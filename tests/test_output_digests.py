"""Byte identity of the outputs: the sha256 of every file that the bundled
configs and a few inline configs write, against the committed manifest
``output_digests.json``.

The operations cover the 7 bundled runs, the 4 bundled studies at
``--levels 3`` (the 19 files the two scripts write) and one small run of
each path no bundled config reaches.  A change that alters any output byte
fails here; such a change declares it and re-records the manifest with

    PYTHONPATH=src python tests/test_output_digests.py [op ...]

Named ops (e.g. ``inline:reversed_labels``) re-record only their entries and
leave every other entry as it was; with none, every op is recorded afresh.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from gstrands import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
MANIFEST = Path(__file__).with_name("output_digests.json")

RUNS = ("cdb_so3", "ch_two_peakon", "chiral_so3", "peakon_strand", "se3_strand",
        "symm_rigid_strand", "verify_action")
STUDIES = ("chiral_study", "peakon_strand", "cdb_study", "verify_action")
_PEAKON_ROWS = ("[[-1.5, -1.4, -1.3, -1.4, -1.5, -1.6, -1.7, -1.6], "
                "[1.5, 1.6, 1.5, 1.4, 1.5, 1.6, 1.5, 1.4]]")
_PEAKON_ROWS_REVERSED = ("[[1.5, 1.6, 1.5, 1.4, 1.5, 1.6, 1.5, 1.4], "
                         "[-1.5, -1.4, -1.3, -1.4, -1.5, -1.6, -1.7, -1.6]]")
# five_peakon's q0 and m0 (scenarios.peakon_setup), one row per peakon, last peakon first
_FIVE_Q_REVERSED = (
    "[[2.4, 2.612132034355964, 2.6999999999999997, 2.612132034355964, 2.4, 2.1878679656440356, "
    "2.1, 2.187867965644035], "
    "[0.8999999999999999, 0.9878679656440357, 1.2, 1.4121320343559642, 1.5, 1.4121320343559645, "
    "1.2, 0.9878679656440356], "
    "[3.6739403974420595e-17, -0.21213203435596423, -0.3, -0.2121320343559643, "
    "-7.347880794884119e-17, 0.2121320343559642, 0.3, 0.2121320343559645], "
    "[-0.8999999999999999, -0.9878679656440357, -1.2, -1.4121320343559642, -1.5, "
    "-1.4121320343559642, -1.2, -0.9878679656440358], "
    "[-2.4, -2.1878679656440356, -2.1, -2.1878679656440356, -2.4, -2.612132034355964, "
    "-2.6999999999999997, -2.612132034355964]]")
_FIVE_M_REVERSED = (
    "[[0.78, 0.7272792206135785, 0.6, 0.47272077938642154, 0.42, 0.4727207793864215, "
    "0.5999999999999999, 0.7272792206135784], "
    "[0.9, 1.090918830920368, 1.1700000000000002, 1.090918830920368, 0.9, 0.7090811690796324, "
    "0.63, 0.7090811690796323], "
    "[-0.35, -0.39393398282201786, -0.5, -0.6060660171779821, -0.65, -0.6060660171779821, "
    "-0.5, -0.39393398282201797], "
    "[0.8, 0.6302943725152286, 0.5599999999999999, 0.6302943725152286, 0.8, 0.9697056274847715, "
    "1.04, 0.9697056274847715], "
    "[1.3, 1.2121320343559643, 1.0, 0.7878679656440357, 0.7, 0.7878679656440357, 1.0, "
    "1.2121320343559643]]")
INLINE = {
    "linear_rep": "scenario: linear_rep\ngrid: {t_end: 0.2}\n",
    "symm_rigid_classical": "scenario: symm_rigid_soN\ngrid: {n_s: 1, dt: 0.01, t_end: 0.5}\n"
                            "initial: {preset: classical}\n",
    "traveling_bump": "scenario: chiral_so3\ngrid: {n_s: 32, dt: 0.01, t_end: 0.2}\n"
                      "initial: {preset: traveling_bump, xi: [1.0, 2.0, 2.0]}\n",
    "pure_gauge": "scenario: chiral_so3\ngrid: {n_s: 32, dt: 0.01, t_end: 0.2}\n"
                  "initial: {preset: pure_gauge}\n",
    "single_peakon": "scenario: peakon_strand\ngrid: {n_s: 8, dt: 0.01, t_end: 0.2}\n"
                     "initial: {preset: single_peakon, m_values: [1.3]}\n",
    "inline": "scenario: peakon_strand\nparams: {n_p: 2}\ngrid: {n_s: 8, dt: 0.01, t_end: 0.2}\n"
              f"initial: {{preset: inline, q0: {_PEAKON_ROWS}, m0: [[1.0, 1.1, 1.2, 1.1, 1.0, "
              "0.9, 0.8, 0.9], [0.8, 0.8, 0.7, 0.8, 0.9, 0.8, 0.8, 0.7]]}\n",
    "five_peakon": "scenario: peakon_strand\nparams: {n_p: 5, alpha: 0.7}\n"
                   "grid: {n_s: 8, dt: 0.01, t_end: 0.2, store_every: 5}\n"
                   "initial: {preset: two_peakon_wave, gap: 1.2, amplitude: 0.3, "
                   "m_values: [1.0, 0.8, -0.5, 0.9, 0.6]}\n",
    # the peakons of "inline" listed right to left: the run keeps its gathers
    "reversed_labels": "scenario: peakon_strand\nparams: {n_p: 2}\n"
                       "grid: {n_s: 8, dt: 0.01, t_end: 0.2}\n"
                       f"initial: {{preset: inline, q0: {_PEAKON_ROWS_REVERSED}, m0: [[0.8, 0.8, "
                       "0.7, 0.8, 0.9, 0.8, 0.8, 0.7], [1.0, 1.1, 1.2, 1.1, 1.0, 0.9, 0.8, 0.9]]}\n",
    # five_peakon's two_peakon_wave rows as an inline config, right to left
    "reversed_five_peakon": "scenario: peakon_strand\nparams: {n_p: 5, alpha: 0.7}\n"
                            "grid: {n_s: 8, dt: 0.01, t_end: 0.2, store_every: 5}\n"
                            f"initial: {{preset: inline, q0: {_FIVE_Q_REVERSED}, "
                            f"m0: {_FIVE_M_REVERSED}}}\n",
    # a -0.0 momentum in the classical mode, where N and d_s N are exact zeros
    "classical_zero_momenta": "scenario: ch_classical\ngrid: {dt: 0.01, t_end: 0.5}\n"
                              "initial: {q0: [-2.0, 0.0, 2.0], p0: [1.0, -0.0, -0.5]}\n",
    # alone, that -0.0 stays -0 only through the +0 of the force's N (dG N) term
    "single_zero_momentum": "scenario: ch_classical\ngrid: {dt: 0.01, t_end: 0.1}\n"
                            "initial: {q0: [0.0], p0: [-0.0]}\n",
}
OPS = ([f"run:{stem}" for stem in RUNS] + [f"study:{stem}" for stem in STUDIES]
       + [f"inline:{name}" for name in INLINE])


def digests(op, work):
    """Run ``op``, with its inline config (if any) in ``work``; the sha256
    of every file it wrote to GSTRANDS_OUTPUT_DIR, by name."""
    kind, name = op.split(":")
    if kind == "inline":
        path = work / f"{name}.yaml"
        path.write_text(f"label: {name}\n" + INLINE[name])
        argv = ["run", str(path)]
    else:
        argv = [kind, str(CONFIGS / f"{name}.yaml")] + (["--levels", "3"] if kind == "study" else [])
    assert cli.main(argv) == 0, op
    out = Path(os.environ["GSTRANDS_OUTPUT_DIR"])
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("op", OPS)
def test_outputs_are_byte_identical_to_the_manifest(op, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GSTRANDS_OUTPUT_DIR", str(tmp_path / "out"))
    assert digests(op, tmp_path) == json.loads(MANIFEST.read_text())[op], capsys.readouterr().err


def record(ops=None, manifest=MANIFEST):
    """Write the manifest from the working tree's outputs: the entries of
    ``ops`` into the existing manifest, every other entry unchanged, or with
    ops None a fresh manifest of every op."""
    unknown = sorted(set(ops or ()) - set(OPS))
    if unknown:
        raise SystemExit(f"unknown op(s): {', '.join(unknown)}; known: {', '.join(OPS)}")
    entries = json.loads(manifest.read_text()) if ops else {}
    for op in ops or OPS:
        with tempfile.TemporaryDirectory() as work:
            os.environ["GSTRANDS_OUTPUT_DIR"] = os.path.join(work, "out")
            entries[op] = digests(op, Path(work))
    manifest.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    written = sum(len(entries[op]) for op in ops or OPS)
    print(f"wrote {manifest}: {written} files", file=sys.stderr)


def test_recording_named_ops_keeps_every_other_entry(tmp_path, monkeypatch):
    manifest = tmp_path / "output_digests.json"
    manifest.write_bytes(MANIFEST.read_bytes())
    monkeypatch.setenv("GSTRANDS_OUTPUT_DIR", str(tmp_path / "unused"))
    monkeypatch.setattr(sys.modules[__name__], "digests", lambda op, work: {"f": op})
    record(["inline:linear_rep", "run:cdb_so3"], manifest)
    before, after = json.loads(MANIFEST.read_text()), json.loads(manifest.read_text())
    assert after == {**before, "inline:linear_rep": {"f": "inline:linear_rep"},
                     "run:cdb_so3": {"f": "run:cdb_so3"}}
    # the untouched entries keep their bytes: the manifest is written canonically
    assert MANIFEST.read_text() == json.dumps(before, indent=2, sort_keys=True) + "\n"
    with pytest.raises(SystemExit, match="unknown op"):
        record(["inline:nonesuch"], manifest)


if __name__ == "__main__":
    record(sys.argv[1:] or None)
