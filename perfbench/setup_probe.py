"""Set-up stage of a workload, timed in a fresh process.

    python3 perfbench/setup_probe.py config:<path> algebra:<name> kernel:<alpha> ...

Imports gstrands, loads every config and builds every algebra and kernel
named on the command line, then prints the seconds this took.  Nothing
heavier than the standard library is imported before the clock starts.
"""

import sys
import time
from pathlib import Path


def build(specs):
    """Load the configs and build the algebras and kernels ``specs`` name."""
    from gstrands import config, kernels, liealg
    for spec in specs:
        kind, _, arg = spec.partition(":")
        if kind == "config":
            config.load_config(arg)
        elif kind == "algebra":
            liealg.builtin(arg)
        elif kind == "kernel":
            kernels.HelmholtzKernel(float(arg), dim=1)
        else:
            raise ValueError(f"unknown set-up spec {spec!r}")


def main(specs):
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import gstrands  # noqa: F401  (the import is part of what is timed)
    build(specs)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
