"""Command-line runner.

    gstrands run <config.yaml>
    gstrands study <config.yaml> --levels k
    gstrands validate <config.yaml>
    gstrands list-scenarios

Exit codes: 0 success, 1 solver error (near-collision, blow-up, io,
memory), 2 usage error (bad arguments, parse or validation failure).  The
GSTRANDS_OUTPUT_DIR environment variable overrides the configured output
directory.  Identical configs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from .config import (SCENARIOS, load_config, run_scenario, schema_description, study_names,
                     study_residuals)
from .errors import GStrandsError
from .output import write_csv, write_json

SATURATION_FLOOR = 1e-12

_USAGE_CATEGORIES = ("parse", "validation", "usage")


def output_paths(cfg):
    """(csv, json) paths of a run of ``cfg``: ``<label>.csv`` and
    ``<label>.json`` in GSTRANDS_OUTPUT_DIR when set, else in the
    configured output directory."""
    base = os.path.join(os.environ.get("GSTRANDS_OUTPUT_DIR", cfg.output_dir), cfg.label)
    return base + ".csv", base + ".json"


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    started = time.monotonic()
    header, rows, diag, extras = run_scenario(cfg)
    csv_path, json_path = output_paths(cfg)
    payload = {"config": cfg.echo(), "series": diag["series"], "summary": diag["summary"]}
    tables = [(csv_path, header, rows)] + [
        (csv_path.replace(".csv", f".{suffix}.csv"), *table) for suffix, table in extras.items()]
    written = []
    try:
        for path, head, body in tables:
            write_csv(path, head, body)
            written.append(path)
        write_json(json_path, payload)
    except GStrandsError:
        for path in written:  # a refused file leaves none of this run's outputs
            os.unlink(path)
        raise
    print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    print(f"wall-time: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0


def orders_from_residuals(values):
    """log2 ratios of successive residuals; 'saturated' below the roundoff floor."""
    orders = []
    for a, b in zip(values, values[1:]):
        if a < SATURATION_FLOOR or b < SATURATION_FLOOR:
            orders.append("saturated")
        else:
            orders.append(math.log2(a / b))
    return orders


def cmd_study(args) -> int:
    if args.levels < 3:
        print("error category: usage: --levels must be >= 3", file=sys.stderr)
        return 2
    cfg = load_config(args.config)
    names = study_names(cfg)
    started = time.monotonic()
    table = {name: [] for name in names}
    for level in range(args.levels):
        res = study_residuals(cfg, level)
        for name in names:
            table[name].append(float(res[name]))
    report = {
        "config": cfg.echo(),
        "levels": args.levels,
        "residuals": table,
        "orders": {name: orders_from_residuals(vals) for name, vals in table.items()},
    }
    _, json_path = output_paths(cfg)
    json_path = json_path.replace(".json", ".study.json")
    write_json(json_path, report)
    for name, vals in table.items():
        orders = ", ".join(o if isinstance(o, str) else f"{o:.2f}"
                           for o in report["orders"][name])
        print(f"{name}: residuals {['%.3e' % v for v in vals]} orders [{orders}]")
    print(f"wrote {json_path}", file=sys.stderr)
    print(f"wall-time: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"valid: scenario '{cfg.scenario}', label '{cfg.label}'")
    return 0


def cmd_list(_args) -> int:
    print("scenarios: " + ", ".join(SCENARIOS))
    print(schema_description())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="gstrands", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)
    p_study = sub.add_parser("study", help="joint (dt, ds) refinement study")
    p_study.add_argument("config")
    p_study.add_argument("--levels", type=int, default=3)
    p_study.set_defaults(func=cmd_study)
    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)
    p_list = sub.add_parser("list-scenarios", help="list scenarios and schema")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with np.errstate(all="ignore"):  # overflow ends in a categorized error, not a warning
            return args.func(args)
    except MemoryError:
        print("error category: memory: out of memory", file=sys.stderr)
        return 1
    except GStrandsError as exc:
        where = ""
        if getattr(exc, "t", None) is not None:
            step = "the initial state" if exc.step_index is None else f"step {exc.step_index}"
            where = f" at {step} (t = {exc.t:.6g})"
        print(f"error category: {exc.category}: {exc}{where}", file=sys.stderr)
        return 2 if exc.category in _USAGE_CATEGORIES else 1


if __name__ == "__main__":
    sys.exit(main())
