"""The peakon configs' summaries and study tables against the values the
benchmark's bundled_suite gate compares with (perfbench/reference_bundled.json,
read only), at the same tolerance, so a change of rounding that would fail
that gate fails here first."""

import json
import math
from pathlib import Path

import pytest

from gstrands import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference_bundled.json"
CONFIGS = ROOT / "scripts" / "configs"
# |value - ref| <= RTOL |ref| + ATOL, as in perfbench/workloads.py
RTOL, ATOL = 1e-6, 1e-12


def leaves(tree, path=""):
    """(path, value) of every scalar in nested dicts and lists."""
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from leaves(tree[key], f"{path}[{key!r}]")
    elif isinstance(tree, list):
        yield f"{path}#len", len(tree)
        for i, value in enumerate(tree):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, tree


def close(value, ref):
    if isinstance(ref, str) or isinstance(value, str):
        return value == ref
    return math.isfinite(value) and abs(value - ref) <= RTOL * abs(ref) + ATOL


@pytest.mark.parametrize("op", ["run:ch_two_peakon", "run:peakon_strand", "study:peakon_strand"])
def test_peakon_outputs_match_the_benchmark_reference(op, tmp_path, monkeypatch, capsys):
    kind, stem = op.split(":")
    monkeypatch.setenv("GSTRANDS_OUTPUT_DIR", str(tmp_path))
    argv = [kind, str(CONFIGS / f"{stem}.yaml")] + (["--levels", "3"] if kind == "study" else [])
    assert cli.main(argv) == 0, capsys.readouterr().err
    if kind == "run":
        got = json.loads((tmp_path / f"{stem}.json").read_text())["summary"]
    else:
        study = json.loads((tmp_path / f"{stem}.study.json").read_text())
        got = {"residuals": study["residuals"], "orders": study["orders"]}
    ref = dict(leaves(json.loads(REFERENCE.read_text())[op]))
    values = dict(leaves(got))
    assert values.keys() == ref.keys()
    bad = {path: (values[path], r) for path, r in ref.items() if not close(values[path], r)}
    assert not bad, bad
