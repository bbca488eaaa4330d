#!/usr/bin/env python3
"""Joint (dt, ds) refinement studies for every scenario with refinable
residuals through `gstrands study`, which prints the residual tables and
measured orders; the exit code is the CLI's."""

import os
import pathlib
import sys

from gstrands import cli

HERE = pathlib.Path(__file__).resolve().parent
STUDIES = ["chiral_study", "peakon_strand", "cdb_study", "verify_action"]

if __name__ == "__main__":
    os.chdir(HERE)
    sys.exit(cli.main(["study", *(str(HERE / "configs" / f"{name}.yaml") for name in STUDIES),
                       "--levels", "3"]))
