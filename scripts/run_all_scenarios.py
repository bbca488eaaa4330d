#!/usr/bin/env python3
"""Run every bundled example config once through `gstrands run`, which
prints each one's summary.  Outputs land in scripts/results/, or in
$GSTRANDS_OUTPUT_DIR when it is set; the exit code is the CLI's."""

import os
import pathlib
import sys

from gstrands import cli

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    os.chdir(HERE)
    sys.exit(cli.main(["run", *(str(cfg) for cfg in sorted(HERE.glob("configs/*.yaml"))
                                if "study" not in cfg.stem)]))
