"""Output checker for the benchmark's experiments.

Every experiment is checked against invariants from the paper that hold
on any seed. On the default seed its rows are also compared with the
outputs recorded from the seed commit (``reference.json``): discrete
fields exactly, floats within ``REL_TOL`` of the column's scale.

The checker reads the row files with its own parser, so a defect in the
program's reader cannot hide one in its writer.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-9
# Rows kept per recorded file, besides the per-column sums over all rows.
SAMPLE_ROWS = 100
DIVERGED = "diverged"


def parse_config(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_csv(path: str) -> tuple:
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if first.strip() != "# schema=v1":
            raise ValueError(f"missing schema line, got {first[:40]!r}")
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("ragged row")
    return header, rows


def _floats(cell: str):
    """The cell's numbers, or None when it is not numeric."""
    try:
        return [float(u) for u in cell.split(";")]
    except ValueError:
        return None


def _close(a: float, b: float, scale: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def _tail_period(xs: list, burn_in: int, tol: float = 1e-8,
                 max_period: int = 64):
    """0 for a converged tail, p for period p, None for aperiodic."""
    tail = xs[burn_in:]
    if max(abs(x - tail[-1]) for x in tail) < tol:
        return 0
    for p in range(2, max_period + 1):
        if max(abs(a - b) for a, b in zip(tail[p:], tail[:-p])) < tol:
            return p
    return None


# ---------------------------------------------------------------------------
# Invariants that hold on every seed

def _check_invariants(cfg: dict, header: list, rows: list) -> list:
    errors = []
    command = cfg["command"]
    col = {name: i for i, name in enumerate(header)}

    def column(name):
        return [r[col[name]] for r in rows]

    if command in ("track", "bounds", "orbit", "star"):
        if any(DIVERGED in cell for r in rows for cell in r):
            return ["a row holds the divergence token"]
    if command == "track":
        horizon = int(cfg["run.horizon"])
        if len(rows) != horizon:
            errors.append(f"{len(rows)} rows for horizon {horizon}")
        elif column("t") != [str(t) for t in range(1, horizon + 1)]:
            errors.append("round column is not 1..T")
    elif command == "bounds":
        if len(rows) != 1:
            errors.append(f"{len(rows)} bound rows, expected 1")
        elif rows[0][col["holds"]] != "true":
            errors.append(f"bound does not hold: {rows[0]}")
        elif cfg["bound.kind"] == "adversarial_lb":
            measured = float(rows[0][col["measured"]])
            if measured < int(cfg["run.horizon"]) / 4:
                errors.append(f"adversary tracking {measured} < T/4")
    elif command == "verify":
        # the program writes a numpy boolean as "True", a plain one as "true"
        if not rows or any(p.lower() != "true" for p in column("passed")):
            errors.append("a verification check failed")
    elif command == "bifurcation":
        classes = {float(r[col["eta"]]): r[col["classification"]] for r in rows}
        expected_n = int(cfg["dynamics.eta_n"]) + 2
        if len(classes) != expected_n:
            errors.append(f"{len(classes)} step sizes, expected {expected_n}")
        for eta, want in ((3.9, "periodic(4)"), (6.1, "bounded_aperiodic"),
                          (8.0, "converged")):
            if classes.get(eta) != want:
                errors.append(f"eta={eta}: {classes.get(eta)}, expected {want}")
        low = [c for e, c in classes.items() if e <= 0.5]
        band = [c for e, c in classes.items() if 1.9 <= e <= 2.1]
        if not low or any(c != "converged" for c in low):
            errors.append("a step size <= 0.5 does not converge")
        if not band or any(c != "diverged" for c in band):
            errors.append("a step size in [1.9, 2.1] does not diverge")
    elif command == "star":
        steps = int(cfg["star.steps"])
        if len(rows) != steps + 1:
            errors.append(f"{len(rows)} series rows for {steps} steps")
        if any(n != "0" for n in column("n_diverged")):
            errors.append("a start diverged")
        if any(float(s) <= 0.8 for s in column("radial_score")):
            errors.append("radial score <= 0.8")
    elif command == "orbit":
        steps = int(cfg["dynamics.steps"])
        if len(rows) != steps + 1:
            errors.append(f"{len(rows)} orbit rows for {steps} steps")
        else:
            period = _tail_period([float(x) for x in column("x")], steps // 2)
            if period != 4:
                errors.append(f"orbit tail period {period}, expected 4")
    return errors


# ---------------------------------------------------------------------------
# Comparison with the recorded outputs of the default seed

def summarize(header: list, rows: list) -> dict:
    """What the reference keeps of one row file: evenly spaced rows, the
    last row, and per-column sums and scales over all rows."""
    step = max(1, len(rows) // SAMPLE_ROWS)
    idx = sorted(set(range(0, len(rows), step)) | {len(rows) - 1}) if rows else []
    sums, scales = {}, {}
    for j, name in enumerate(header):
        values = [_floats(r[j]) for r in rows]
        if rows and all(v is not None and len(v) == len(values[0])
                        for v in values):
            sums[name] = [math.fsum(v[k] for v in values)
                          for k in range(len(values[0]))]
            scales[name] = max(abs(u) for v in values for u in v)
    return {"header": header, "n_rows": len(rows),
            "samples": {str(i): rows[i] for i in idx},
            "sums": sums, "scales": scales}


def _detail_tokens(cell: str) -> list:
    # finite-difference errors sit at the rounding noise floor and are
    # printed with four digits; their presence is compared, not their value
    return [tok.split("=")[0] if tok.startswith("max_err=") else tok
            for tok in cell.split()]


def _check_reference(command: str, ref: dict, header: list, rows: list) -> list:
    if header != ref["header"]:
        return [f"header {header} != recorded {ref['header']}"]
    if len(rows) != ref["n_rows"]:
        return [f"{len(rows)} rows != recorded {ref['n_rows']}"]
    errors = []
    for i, want in ref["samples"].items():
        got = rows[int(i)]
        aperiodic = command == "bifurcation" and want[1] == "bounded_aperiodic"
        for name, g, w in zip(header, got, want):
            # a chaotic orbit depends on the last bit of every step: compare
            # the class of an aperiodic scan row, not its cells, and only the
            # discrete fields of the star series
            if (aperiodic and name == "cells") or \
                    (command == "star" and name not in ("t", "n_diverged")):
                continue
            if name == "detail":
                same = _detail_tokens(g) == _detail_tokens(w)
            elif name in ref["scales"]:
                gv, wv = _floats(g), _floats(w)
                scale = ref["scales"][name]
                same = gv is not None and len(gv) == len(wv) and all(
                    _close(a, b, scale) for a, b in zip(gv, wv))
            else:
                same = g == w
            if not same:
                errors.append(f"row {i} {name}: {g[:60]!r} != recorded {w[:60]!r}")
                break
    if command not in ("star", "bifurcation"):
        got_sums = summarize(header, rows)["sums"]
        for name, want in ref["sums"].items():
            scale = ref["scales"][name] * max(1, len(rows))
            got = got_sums.get(name)
            if got is None or len(got) != len(want) or not all(
                    _close(a, b, scale) for a, b in zip(got, want)):
                errors.append(f"column {name} sums {got} != recorded {want}")
    return errors[:5]


def check_experiment(config_text: str, path: str, reference=None) -> list:
    """Errors found in one experiment's row file; empty when it passes."""
    cfg = parse_config(config_text)
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable output: {exc}"]
    try:
        errors = _check_invariants(cfg, header, rows)
        if reference is not None:
            errors += _check_reference(cfg["command"], reference, header, rows)
    except (KeyError, IndexError, ValueError) as exc:
        errors = [f"malformed output: {exc!r}"]
    return errors


def load_reference(workload: str) -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)[workload]
