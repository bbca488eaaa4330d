#!/usr/bin/env python3
"""Run every bundled example config once and print the summary block of
each diagnostics file.  Outputs land in scripts/results/, or in
$GSTRANDS_OUTPUT_DIR when it is set."""

import json
import pathlib
import sys

from gstrands import cli, config

HERE = pathlib.Path(__file__).resolve().parent


def main():
    failures = 0
    for cfg in sorted(HERE.glob("configs/*.yaml")):
        if "study" in cfg.stem:
            continue
        print(f"== {cfg.stem}")
        code = cli.main(["run", str(cfg)])
        if code != 0:
            print(f"   exited with {code}")
            failures += 1
            continue
        json_path = cli.output_base(config.load_config(str(cfg))) + ".json"
        diag = json.loads(pathlib.Path(json_path).read_text())
        for key, val in sorted(diag["summary"].items()):
            print(f"   {key}: {val:.3e}" if isinstance(val, float) else f"   {key}: {val}")
    return 1 if failures else 0


if __name__ == "__main__":
    import os
    os.chdir(HERE)
    sys.exit(main())
