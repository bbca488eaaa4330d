"""Byte identity of the outputs: the sha256 of every file that the bundled
configs and a few inline configs write, against the committed manifest
``output_digests.json``.

The operations cover the 7 bundled runs, the 4 bundled studies at
``--levels 3`` (the 19 files the two scripts write) and one small run of
each path no bundled config reaches.  A change that alters any output byte
fails here; such a change declares it and re-records the manifest with

    PYTHONPATH=src python tests/test_output_digests.py
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


def record():
    """Write the manifest from the working tree's outputs."""
    manifest = {}
    for op in OPS:
        with tempfile.TemporaryDirectory() as work:
            os.environ["GSTRANDS_OUTPUT_DIR"] = os.path.join(work, "out")
            manifest[op] = digests(op, Path(work))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}: {sum(map(len, manifest.values()))} files", file=sys.stderr)


if __name__ == "__main__":
    record()
