"""Deterministic CSV/JSON row emitters and the matching readers.

CSV files carry a ``# schema=v1`` comment line, a header, and values
formatted with 17 significant digits so identical configs and seeds
reproduce byte-identical files. Nonfinite numbers are written as the
literal token ``diverged``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Iterable

import numpy as np

SCHEMA_LINE = "# schema=v1"
DIVERGED_TOKEN = "diverged"


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
    if isinstance(v, bool):
        return v
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


def emit_rows(rows: Iterable[dict], fmt: str, path: str) -> None:
    """Write homogeneous rows as CSV or JSON.

    The rows go to a temporary file next to ``path`` that then replaces
    it, so a failed write leaves an existing ``path`` as it was."""
    rows = list(rows)
    if rows:
        header = list(rows[0].keys())
        for r in rows:
            if list(r.keys()) != header:
                raise ValueError("rows must share one schema")
    else:
        header = []
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(SCHEMA_LINE + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            writer.writerow([format_value(v) for v in r.values()])
        data = buf.getvalue()
    elif fmt == "json":
        data = json.dumps(
            {"schema": "v1",
             "rows": [{k: _json_value(v) for k, v in r.items()} for r in rows]},
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
