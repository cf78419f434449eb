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
written as the literal token ``diverged``, one per coordinate. JSON
output is ``{"schema": "v1", "rows": [...]}`` with one object per row,
in the text ``json.dumps`` writes.

Both formats write a table of numeric columns with one row template,
one ``%`` per row; the JSON template holds the keys. Only rows holding
a nonfinite or missing value, and tables with a list column, go cell by
cell through :func:`format_value`, which gives the same text.
"""

from __future__ import annotations

import csv
import json
import math
import os
import types

import numpy as np

SCHEMA_LINE = "# schema=v1"
DIVERGED_TOKEN = "diverged"
# integers up to this size convert to floats exactly
_EXACT_INT = 2 ** 53
# each format's float, and a vector's opening, separator and closing
_SPELLING = {"csv": ("%.17g", "", ";", ""), "json": ("%s", "[", ",", "]")}
# a csv.writer's writerow returns what its file's write returns: the line
_LINE = types.SimpleNamespace(write=str)


def format_value(v, fmt: str = "csv") -> str:
    """One cell as ``fmt`` writes it. CSV writes a numpy boolean
    ``True``; JSON writes it ``true``, quotes text and the divergence
    token, and writes a 1-vector as its one number."""
    is_json = fmt == "json"
    if isinstance(v, (bool, np.bool_) if is_json else bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if math.isfinite(v):
            return _SPELLING[fmt][0] % float(v)
        return '"%s"' % DIVERGED_TOKEN if is_json else DIVERGED_TOKEN
    if isinstance(v, (list, tuple, np.ndarray)):
        flat = np.asarray(v).ravel().astype(float, copy=False).tolist()
        if is_json and len(flat) == 1:
            return format_value(flat[0], fmt)
        _, opening, sep, closing = _SPELLING[fmt]
        return opening + sep.join([format_value(u, fmt) for u in flat]) + closing
    return json.dumps(str(v)) if is_json else str(v)


def _row_template(table: dict, fmt: str):
    """The row template of ``fmt`` and the float block of a table whose
    columns are all numeric arrays: ``%d`` for an integer cell, the
    format's float and vector spellings for the others and, in JSON,
    each key as ``json.dumps`` writes it. The block holds the rows
    every column reaches. None when a column is a list or a non-numeric
    array, or holds an integer no float holds exactly."""
    spelling, opening, sep, closing = _SPELLING[fmt]
    fields, width = [], []
    for c in table.values():
        if not isinstance(c, np.ndarray) or c.dtype.kind not in "iuf" or c.ndim > 2:
            return None
        w = c.shape[1] if c.ndim == 2 else 1
        if c.ndim == 1 and c.dtype.kind != "f":
            if c.size and not (-_EXACT_INT <= c.min() and c.max() <= _EXACT_INT):
                return None
            fields.append("%d")
        else:
            fields.append(opening + sep.join([spelling] * w) + closing
                          if c.ndim == 2 and w != 1 else spelling)
        width.append(w)
    if fmt == "json":
        keys = [json.dumps(k).replace("%", "%%") + ":" for k in table]
        template = "{" + ",".join(map(str.__add__, keys, fields)) + "}"
    else:   # csv.writer quotes a row of one empty cell
        template = csv.writer(_LINE, lineterminator="\n").writerow(fields)
    m = min(map(len, table.values()))
    block = np.concatenate([c[:m].reshape(m, w) for c, w in zip(table.values(), width)],
                           axis=1, dtype=float)
    return template, block


def _rows(table: dict, fmt: str, n: int) -> list:
    """The table's n rows as ``fmt`` writes them: a CSV row ends in a
    newline, a JSON row is one object. Rows of finite numbers take one
    ``%`` of the row template each; the rest go cell by cell through
    :func:`format_value`, a missing cell written as a NaN is."""
    cols = list(table.values())
    if fmt == "csv":
        join = csv.writer(_LINE, lineterminator="\n").writerow
    else:
        keys = [json.dumps(k) + ":" for k in table]

        def join(cells: list) -> str:
            return "{" + ",".join(map(str.__add__, keys, cells)) + "}"

    missing = format_value(math.nan, fmt)

    def by_cells(i: int) -> str:
        return join([format_value(c[i], fmt) if i < len(c) else missing for c in cols])

    spec = _row_template(table, fmt) if n else None
    if spec is None:
        return [by_cells(i) for i in range(n)]
    template, block = spec
    finite = np.isfinite(block).all(axis=1).tolist()
    rows = [template % tuple(r) if ok else by_cells(i)
            for i, (r, ok) in enumerate(zip(block.tolist(), finite))]
    return rows + [by_cells(i) for i in range(len(rows), n)]


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
        header = csv.writer(_LINE, lineterminator="\n").writerow(list(table))
        data = SCHEMA_LINE + "\n" + header + "".join(_rows(table, fmt, n))
    elif fmt == "json":
        data = '{"schema":"v1","rows":[' + ",".join(_rows(table, fmt, n)) + "]}\n"
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
