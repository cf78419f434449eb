"""Deterministic CSV/JSON table emitters and the matching readers.

Every command's output is a table: an ordered mapping from column name
to a column, one cell per row. A numeric column is a numpy array of
shape ``(n,)`` (one number per cell) or ``(n, w)`` (a w-vector per
cell); a text, boolean or mixed column is a list. The table has as many
rows as its first column. A shorter column, the rounds a diverged run
did not complete, is padded with one ``diverged`` token per missing
cell; a longer one is rejected.

CSV files carry a ``# schema=v1`` comment line and a header, which a
table with no rows keeps, and values formatted with 17 significant
digits so identical configs and seeds reproduce byte-identical files.
A vector cell joins its coordinates with ``;``. Nonfinite numbers are
written as the literal token ``diverged``, one per coordinate. A table
of numeric columns is written with one ``%`` template per row; only
rows holding a nonfinite or missing value, and tables with a list
column, go cell by cell through :func:`format_value`, which gives the
same text. JSON output is ``{"schema": "v1", "rows": [...]}`` with one
object per row.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

SCHEMA_LINE = "# schema=v1"
DIVERGED_TOKEN = "diverged"
# integers up to this size convert to floats exactly
_EXACT_INT = 2 ** 53


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return DIVERGED_TOKEN
    return "%.17g" % x


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        flat = np.asarray(v).ravel().astype(float, copy=False).tolist()
        if all(map(math.isfinite, flat)):
            return ";".join(map("%.17g".__mod__, flat))
        return ";".join(map(_fmt_float, flat))
    return str(v)


def _json_value(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else DIVERGED_TOKEN
    if isinstance(v, (list, tuple, np.ndarray)):
        flat = np.asarray(v).ravel()
        if flat.size == 1:      # match the CSV rendering of 1-vectors
            return _json_value(float(flat[0]))
        return [_json_value(float(u)) for u in flat]
    return str(v)


def _rows_by_template(cols: list):
    """The CSV row template and float block of a table whose columns are
    all numeric arrays: one ``%d`` per integer cell, one ``%.17g`` per
    float coordinate, ``;`` within a vector cell and ``,`` between cells.
    The block holds the rows every column reaches. Returns None when a
    column is a list or a non-numeric array, when an integer exceeds what
    a float holds exactly, or when every row is a single empty cell
    (``csv.writer`` quotes that one)."""
    fields, width = [], []
    for c in cols:
        if not isinstance(c, np.ndarray) or c.dtype.kind not in "iuf" or c.ndim > 2:
            return None
        w = c.shape[1] if c.ndim == 2 else 1
        if c.ndim == 1 and c.dtype.kind != "f":
            if c.size and not (-_EXACT_INT <= c.min() and c.max() <= _EXACT_INT):
                return None
            fields.append("%d")
        else:
            fields.append(";".join(["%.17g"] * w))
        width.append(w)
    template = ",".join(fields)
    if not template:
        return None
    m = min(len(c) for c in cols)
    block = np.concatenate([c[:m].reshape(m, w) for c, w in zip(cols, width)],
                           axis=1, dtype=float)
    return template + "\n", block


def _csv_lines(cols: list, n: int) -> list:
    """The data lines of a table, each ending in a newline. Rows of
    finite numbers take one ``%`` of the row template each; the rest go
    cell by cell through :func:`format_value`, a missing cell written as
    one divergence token."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def by_cells(i: int) -> str:
        writer.writerow([format_value(c[i]) if i < len(c) else DIVERGED_TOKEN
                         for c in cols])
        line = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return line

    spec = _rows_by_template(cols)
    if spec is None:
        return [by_cells(i) for i in range(n)]
    template, block = spec
    finite = np.isfinite(block).all(axis=1).tolist()
    lines = [template % tuple(r) if ok else by_cells(i)
             for i, (r, ok) in enumerate(zip(block.tolist(), finite))]
    return lines + [by_cells(i) for i in range(len(block), n)]


def emit_rows(table: dict, fmt: str, path: str) -> None:
    """Write a table as CSV or JSON.

    The table has as many rows as its first column; a shorter column is
    padded with the divergence token, and a longer one is a ValueError.
    The text goes to a temporary file next to ``path`` that then
    replaces it, so a failed write leaves an existing ``path`` as it
    was."""
    cols = list(table.values())
    n = len(cols[0]) if cols else 0
    for name, c in table.items():
        if len(c) > n:
            raise ValueError(f"column {name!r} has {len(c)} cells, the table {n} rows")
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(SCHEMA_LINE + "\n")
        csv.writer(buf, lineterminator="\n").writerow(list(table))
        buf.writelines(_csv_lines(cols, n))
        data = buf.getvalue()
    elif fmt == "json":
        rows = [{k: _json_value(c[i]) if i < len(c) else DIVERGED_TOKEN
                 for k, c in table.items()} for i in range(n)]
        data = json.dumps({"schema": "v1", "rows": rows},
                          indent=None, separators=(",", ":")) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing {path!r}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def parse_value(text: str):
    """Inverse of format_value for scalar fields; the divergence token
    is preserved as-is."""
    if text == "true":
        return True
    if text == "false":
        return False
    if ";" in text:
        return [math.nan if u == DIVERGED_TOKEN else float(u)
                for u in text.split(";")]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_rows(path: str) -> list:
    """Read back rows written by emit_rows (either format)."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if first.startswith("{"):
            payload = json.loads(first + fh.read())
            return payload["rows"]
        if not first.startswith("#"):
            raise ValueError(f"{path!r}: missing schema comment line")
        reader = csv.reader(fh)
        header = next(reader)
        return [dict(zip(header, (parse_value(v) for v in row)))
                for row in reader]
