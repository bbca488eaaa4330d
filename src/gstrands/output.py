"""Deterministic trajectory/diagnostics writers.

CSV floats carry 17 significant digits and JSON uses Python's shortest
round-trip float repr, so identical states serialize to identical bytes.
A CSV is one float table, formatted with ``'%.17g'`` a block of rows at a
time, and a column that repeats its values (t, s, a peakon index) a
distinct value at a time; ``'%.17g' % x`` is ``format(x, '.17g')``, and an
integer-valued float such as a peakon index prints as that integer.
Files are written to a temporary sibling, with the mode a plain ``open``
gives, and renamed into place.  A non-finite float is refused with a
blow-up error naming the file and key, and nothing is written.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain

import numpy as np

from .errors import BlowUpError, OutputError

# rows formatted per '%' operation: bounds the Python floats alive at once
CSV_BLOCK_ROWS = 4096


def _atomic_write(path: str, chunks):
    """Write the strings ``chunks`` to ``path`` through a temporary sibling."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        # created as open() creates a file (0o666 less the umask), which
        # tempfile.mkstemp does not (0o600); O_EXCL keeps the name ours
        tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(6).hex()}~")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
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


def _table(rows):
    """(labels, values) of CSV rows: a 2-D float array, a zero-argument
    callable that builds one, or a sequence of rows of floats that may each
    start with a string label.  labels is None when the rows carry none."""
    if callable(rows):
        rows = rows()
    if isinstance(rows, np.ndarray):
        return None, rows
    rows = list(rows)
    labels = None
    if rows and isinstance(rows[0][0], str):
        labels = [row[0] for row in rows]
        rows = [row[1:] for row in rows]
    return labels, np.array(rows, dtype=float).reshape(len(rows), -1) if rows else np.empty((0, 0))


def _csv_blocks(labels, values):
    """The text of the rows, one string per CSV_BLOCK_ROWS rows.  In a
    column with at most half as many distinct values as rows, each distinct
    value (told apart by its bits, so -0.0 is not 0.0) is formatted once."""
    for lo in range(0, len(values), CSV_BLOCK_ROWS):
        block = values[lo:lo + CSV_BLOCK_ROWS]
        fields, columns = [], []
        if labels is not None:
            fields.append("%s")
            columns.append(labels[lo:lo + CSV_BLOCK_ROWS])
        for col in block.T:
            bits, index = np.unique(col.view(np.int64), return_inverse=True)
            if 2 * len(bits) <= len(col):
                text = ["%.17g" % x for x in bits.view(float).tolist()]
                fields.append("%s")
                columns.append(list(map(text.__getitem__, index.tolist())))
            else:
                fields.append("%.17g")
                columns.append(col.tolist())
        line = ",".join(fields)
        yield ("\n".join([line] * len(block)) + "\n") % tuple(chain.from_iterable(zip(*columns)))


def write_csv(path: str, header, rows):
    """Write ``rows`` (see _table) under ``header``.  A callable is called
    here, so a table that is never written is never built."""
    labels, values = _table(rows)
    finite = np.isfinite(values)
    if not finite.all():
        i, k = divmod(int(np.argmin(finite)), values.shape[1])
        _refuse_non_finite(path, [(f"row {i}, column '{header[k + (labels is not None)]}'",
                                   float(values[i, k]))])
    _atomic_write(path, chain([",".join(header) + "\n"], _csv_blocks(labels, values)))


def write_json(path: str, payload: dict):
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        _refuse_non_finite(path, _leaves(payload))
        raise
    _atomic_write(path, [text, "\n"])
