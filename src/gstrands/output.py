"""Deterministic trajectory/diagnostics writers.

CSV floats carry 17 significant digits and JSON uses Python's shortest
round-trip float repr, so identical states serialize to identical bytes.
Files are written to a temporary sibling and renamed into place.  A
non-finite float is refused with a blow-up error naming the file and key,
and nothing is written.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

from .errors import BlowUpError, OutputError


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write '{path}': {exc}") from exc


def _refuse_non_finite(path: str, items):
    """Blow-up error at the first non-finite float among (key, value) items."""
    for key, x in items:
        if isinstance(x, float) and not math.isfinite(x):
            raise BlowUpError(f"non-finite value in '{path}' at {key}; nothing written")


def _leaves(value, key=""):
    """(key path, value) of every scalar of a JSON payload."""
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(v, f"{key}[{k!r}]")
    else:
        yield key, value


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines.append(",".join(_fmt(x) for x in row))
        if "nan" in lines[-1] or "inf" in lines[-1]:
            _refuse_non_finite(path, ((f"row {i}, column '{k}'", x) for k, x in zip(header, row)))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict):
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        _refuse_non_finite(path, _leaves(payload))
        raise
    _atomic_write(path, text + "\n")
