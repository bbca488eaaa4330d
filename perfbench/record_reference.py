#!/usr/bin/env python3
"""Record the bundled_suite reference: run every bundled operation once and
write its summary values (runs) or residuals and orders (studies) to
reference_bundled.json, which the gate compares against.

    python3 perfbench/record_reference.py

Re-record only when a change to gstrands is meant to change those values,
and say so in the change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    (HERE / ".out").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE / ".out"))
    try:
        suite = workloads.BundledSuite(0, work_dir)
        reference = {}
        for op in suite.ops:
            op.prepare()
            code = op.run()
            if code != 0:
                raise SystemExit(f"{op.name} exited {code}")
            reference[op.name] = suite.outputs[op.name]()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
