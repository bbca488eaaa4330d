#!/usr/bin/env python3
"""gstrands benchmark.

    python3 perfbench/run.py --workload peakon_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; gstrands is imported from its ``src/``.
Each workload runs in its own process, with the BLAS thread count pinned
to 1.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the traced run that gives the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any operation failed its correctness gate, 2 on a usage error.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKLOAD_NAMES = ("peakon_dense", "algebra_wide", "bundled_suite")
SETUP_REPEATS = {"full": 7, "tiny": 2}
LADDER_SCALE = {"full": 1.0, "tiny": 0.1}
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def import_package():
    """Import gstrands from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gstrands
    if not Path(gstrands.__file__).resolve().is_relative_to(src):
        raise ImportError(f"gstrands was imported from {gstrands.__file__}, not {src}")


def machine_record():
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": BLAS_THREADS}


class Tally:
    """Attempted and failed operations.  An operation fails when it raises,
    exits nonzero, fails its gate, or its output digest differs from the
    one the same operation gave earlier in the run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def record(self, key, digest, error):
        self.attempted += 1
        if error is None and self.digests.setdefault(key, digest) != digest:
            error = "output digest differs from an earlier pass with the same seed"
        if error is not None:
            self.failures.append(f"{key}: {error}")


def run_pass(ops, tally, label, tracer=None):
    """Run every operation once.  Returns the wall and CPU seconds of the
    operations; gates and digests are not timed."""
    from workloads import GateError
    wall = cpu = 0.0
    for op in ops:
        op.prepare()
        t0, c0 = time.perf_counter(), time.process_time()
        result, error = None, None
        try:
            if tracer is None:
                result = op.run()
            else:
                # root span; its self time is the CLI and scenario glue
                with tracer.span("op"):
                    result = op.run()
        except Exception:
            error = traceback.format_exc(limit=-3).strip()
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        digest = None
        if error is None:
            try:
                digest = op.check(result)
            except GateError as exc:
                error = f"gate: {exc}"
            except Exception:
                error = "gate: " + traceback.format_exc(limit=-3).strip()
        tally.record(f"{label}/{op.name}", digest, error)
    return wall, cpu


def measure_setup(specs, repeats):
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *specs],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def quartiles(values):
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def make_workload(name, seed, work_dir, size):
    from workloads import WORKLOADS
    work_dir.mkdir(parents=True)
    return WORKLOADS[name](seed, work_dir, size)


def warm_up(name, seed, work_dir, tally):
    """One pass at the tiny size, so lazy imports and first-call costs are
    paid before timing starts."""
    tiny = make_workload(name, seed, work_dir / "warmup", "tiny")
    tiny.setup()
    run_pass(tiny.ops, tally, "warmup")


def untraced_run(name, seed, seconds, size, work_dir, tally):
    workload = make_workload(name, seed, work_dir / "main", size)
    setup_times = measure_setup(workload.setup_specs(), SETUP_REPEATS[size])
    workload.setup()
    warm_up(name, seed, work_dir, tally)
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = run_pass(workload.ops, tally, "pass")
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    info = {"passes": len(walls), "wall_s_quartiles": quartiles(walls),
            "cpu_s_quartiles": quartiles(cpus), "setup_s_all": setup_times}
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, info


def traced_run(name, seed, seconds, size, work_dir, tally):
    import ladder
    import spans
    start = time.perf_counter()
    metrics = ladder.measure(LADDER_SCALE[size])
    workload = make_workload(name, seed, work_dir / "main", size)
    tracer = spans.Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.span("setup"):
            workload.setup()
        setup_stage_s = time.perf_counter() - t0
    setup_hi = len(tracer.spans)
    warm_up(name, seed, work_dir, tally)
    plain, traced, waits, ranges = [], [], [], []
    while True:
        wall, _ = run_pass(workload.ops, tally, "pass")
        plain.append(wall)
        lo = len(tracer.spans)
        with tracer.installed():
            wall, cpu = run_pass(workload.ops, tally, "pass", tracer)
        traced.append(wall)
        waits.append(max(wall - cpu, 0.0))
        ranges.append((lo, len(tracer.spans)))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    tracer.write(OUT / f"spans-{name}.csv.gz")

    stage = spans.summarize(tracer, 0, setup_hi)
    stage["phase.setup_s"] = setup_stage_s  # the whole stage is set-up
    per_pass = []
    for (lo, hi), wall in zip(ranges, traced):
        values = spans.summarize(tracer, lo, hi)
        values["phase.diagnostics_s"] = wall - sum(
            values[f"phase.{p}_s"] for p in ("setup", "solve", "serialize"))
        per_pass.append(values)
    for key in per_pass[0]:
        metrics[key] = stage.get(key, 0.0) + statistics.median(v[key] for v in per_pass)
    for layer in spans.LAYERS:
        metrics[f"{layer}.errors"] = float(tracer.errors[layer])
    metrics["process.wait_s"] = statistics.median(waits)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"passes": len(traced), "untraced_wall_s": statistics.median(plain)}


def run_workload(args):
    spec, units = load_spec()
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    import_package()
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = Tally()
    try:
        measure = traced_run if args.trace else untraced_run
        metrics, info = measure(args.workload, args.seed, args.seconds, args.size,
                                work_dir, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if sorted(metrics) != sorted(declared):
        raise RuntimeError("emitted metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    failed = len(tally.failures)
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# machine {json.dumps(machine_record())}")
    for key, value in sorted(info.items()):
        print(f"#   {key} = {value}")
    print(f"#   fail_ratio = {failed}/{tally.attempted} = {failed / tally.attempted}")
    for name in declared:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload, each in a fresh process of its own."""
    status, results = 0, {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print(f"== {name} (exit {done.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        status = max(status, done.returncode)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
            status = max(status, 1)
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except (ImportError, OSError, subprocess.SubprocessError, KeyError, ValueError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
