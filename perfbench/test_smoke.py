"""Smoke test of the benchmark itself: every workload at the tiny size,
untraced and traced, through the same command the benchmark is run with.

    python -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def run_bench(workload, trace):
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_gate_counts_a_wrong_output(tmp_path):
    """A result that breaks a gate is a failure, not a silent pass."""
    import workloads
    suite = workloads.BundledSuite(0, tmp_path, "tiny")
    op = suite.ops[0]
    op.prepare()
    assert op.run() == 0
    digest = op.check(0)
    summary_path = op.out_dir / "peakon_strand.json"
    payload = json.loads(summary_path.read_text())
    payload["summary"]["max_s_constraint"] = 1.0
    summary_path.write_text(json.dumps(payload))
    with pytest.raises(workloads.GateError):
        op.check(0)
    with pytest.raises(workloads.GateError):
        op.check(1)
    assert len(digest) == 64


def test_tracer_self_time_and_error_count():
    import spans
    tracer = spans.Tracer()
    inner = tracer.wrap("kernels.eval", lambda: 1 / 0)
    outer = tracer.wrap("peakon.step", lambda: inner())
    with pytest.raises(ZeroDivisionError):
        outer()
    assert dict(tracer.errors) == {"kernels": 1}
    summary = spans.summarize(tracer, 0, len(tracer.spans))
    (_, o_start, o_end, _), (_, i_start, i_end, parent) = tracer.spans
    assert parent == 0
    assert summary["peakon.step.calls"] == summary["kernels.eval.calls"] == 1.0
    assert summary["peakon.step.self_s"] == pytest.approx(
        (o_end - o_start) - (i_end - i_start), abs=1e-12)
    assert summary["peakon.gram_builds_per_step"] == 1.0


def test_digest_mismatch_counts_as_failure():
    import run
    tally = run.Tally()
    tally.record("pass/op", "a", None)
    tally.record("pass/op", "b", None)
    tally.record("pass/op", None, "raised")
    assert tally.attempted == 3 and len(tally.failures) == 2
