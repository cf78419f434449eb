"""Property tests of the invariants the tracking proofs rely on:
projections are idempotent and nonexpansive, forward and resolvent steps
contract by their factors, exponential weights stay on the simplex, and
emitted rows read back unchanged."""

import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from tvvi.algorithms import (ContractiveForward, CyclicFB, StepSchedule, exp_weights,
                             resolvent_step)
from tvvi.core import Domain, Operator, project
from tvvi.dynamics import GDMap
from tvvi.io import DIVERGED_TOKEN, emit_rows, read_rows

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

coord = st.floats(-100.0, 100.0)


def vectors(d):
    return st.lists(coord, min_size=d, max_size=d).map(np.array)


@st.composite
def domains(draw):
    kind = draw(st.sampled_from(["unbounded", "box", "interval"]))
    if kind == "interval":
        lo, hi = sorted(draw(st.lists(coord, min_size=2, max_size=2)))
        return Domain.interval(lo, hi)
    d = draw(st.integers(1, 4))
    if kind == "unbounded":
        return Domain.unbounded(d)
    a, b = draw(vectors(d)), draw(vectors(d))
    return Domain.box(np.minimum(a, b), np.maximum(a, b))


@st.composite
def domain_and_block(draw):
    dom = draw(domains())
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(vectors(dom.dim), min_size=n, max_size=n))
    return dom, np.array(rows)


@PROPERTY
@given(domain_and_block())
def test_project_idempotent_on_point_and_block(case):
    dom, X = case
    P = project(dom, X)
    assert P.shape == X.shape
    np.testing.assert_array_equal(project(dom, P), P)
    for x, p in zip(X, P):
        np.testing.assert_array_equal(project(dom, x), p)
        np.testing.assert_array_equal(project(dom, p), p)
        assert dom.contains(p, tol=1e-9)


@PROPERTY
@given(domain_and_block())
def test_project_nonexpansive_on_point_and_block(case):
    dom, X = case
    points = [project(dom, x) for x in X]
    for P in (points, project(dom, X)):
        for i in range(len(X)):
            for j in range(i):
                assert np.linalg.norm(P[i] - P[j]) <= \
                    np.linalg.norm(X[i] - X[j]) * (1 + 1e-12) + 1e-12


@st.composite
def strongly_monotone_affine(draw):
    """F(x) = A x + b with A = Q diag(eigs) Q^T + c (S - S^T): an SPD part
    plus a skew part (none when c = 0). Returns F, its modulus mu (the
    least eigenvalue of the SPD part), its Lipschitz constant L = ||A||
    and two points in [-10, 10]^d."""
    d = draw(st.integers(1, 4))
    eigs = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    S = rng.standard_normal((d, d))
    A = Q @ np.diag(eigs) @ Q.T + draw(st.floats(0.0, 5.0)) * (S - S.T)
    box = st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d).map(np.array)
    op = Operator.from_affine(A, draw(box))
    return op, float(eigs.min()), float(np.linalg.norm(A, 2)), draw(box), draw(box)


def learner_step(spec, op, dom, z):
    """The point a learner plays after one round from ``z``: its start,
    play and observe, as ``run_tracker`` drives them."""
    learner = spec.start(z, dom)
    learner.play(1)
    learner.observe(1, op)
    return learner.play(2)


@PROPERTY
@given(strongly_monotone_affine())
def test_forward_step_contracts(case):
    # eta = mu / L^2 contracts distances by sqrt(1 - (mu/L)^2), in the
    # forward learner's round
    op, mu, L, z, w = case
    dom = Domain.unbounded(op.dim)
    eta = mu / L ** 2
    # mu <= L, but the eigenvalue and the norm round apart (mu = 1 and
    # L = 1 - 2^-53 for A = I), so mu / L may pass 1 by an ulp
    factor = math.sqrt(max(0.0, 1.0 - (mu / L) ** 2))
    spec = ContractiveForward(eta)
    step = np.linalg.norm(learner_step(spec, op, dom, z) - learner_step(spec, op, dom, w))
    assert step <= factor * np.linalg.norm(z - w) + 1e-12


@st.composite
def forward_cases(draw):
    """An affine F in d = 1..3, a step size, a start and a domain: the
    box [0, 5]^d or [-5, 0]^d, each with a face at 0.0, or R^d."""
    d = draw(st.integers(1, 3))
    A = np.array(draw(st.lists(coord, min_size=d * d, max_size=d * d))).reshape(d, d)
    op = Operator.from_affine(A, draw(vectors(d)))
    eta = draw(st.floats(1e-3, 2.0))
    kind = draw(st.sampled_from(["upper_box", "lower_box", "unbounded"]))
    dom = {"upper_box": Domain.box(np.zeros(d), np.full(d, 5.0)),
           "lower_box": Domain.box(np.full(d, -5.0), np.zeros(d)),
           "unbounded": Domain.unbounded(d)}[kind]
    return op, eta, draw(vectors(d)), dom


@PROPERTY
@given(forward_cases())
def test_every_forward_path_takes_the_same_step(case):
    # the oracle's step is the step that runs: a forward learner's round,
    # a one-period cyclic bank's round under a constant schedule and one
    # period of a one-operator map give its bytes
    op, eta, z, dom = case
    want = oracle.project(dom, z - eta * op.fn(z)).tobytes()
    assert learner_step(ContractiveForward(eta), op, dom, z).tobytes() == want
    bank = CyclicFB(1, StepSchedule.constant(eta))
    assert learner_step(bank, op, dom, z).tobytes() == want
    assert GDMap(ops=[op], domain=dom, eta=eta, dim=op.dim)(z).tobytes() == want


@PROPERTY
@given(strongly_monotone_affine())
def test_resolvent_step_contracts(case):
    # the resolvent of a mu-strongly monotone F contracts by 1/(1 + mu)
    op, mu, _, z, w = case
    step = np.linalg.norm(resolvent_step(op, z) - resolvent_step(op, w))
    assert step <= np.linalg.norm(z - w) / (1.0 + mu) + 1e-12


@PROPERTY
@given(strongly_monotone_affine())
def test_resolvent_step_is_one_solve(case):
    # the cached identity, the solve gufunc called directly and the
    # residual's dot product leave the step the plain solve of
    # (I + A) z' = z - b, bit for bit
    op, _, _, z, _ = case
    A, b = op.affine
    want = np.linalg.solve(np.eye(op.dim) + A, z - b)
    assert resolvent_step(op, z).tobytes() == want.tobytes()


losses = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8).map(np.array)


@PROPERTY
@given(losses, st.floats(1e-3, 10.0), st.floats(-1e3, 1e3))
def test_exp_weights_simplex_and_shift_invariance(cum_loss, lam, shift):
    w = exp_weights(cum_loss, lam)
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert w[np.argmin(cum_loss)] == w.max()
    assert np.max(np.abs(exp_weights(cum_loss + shift, lam) - w)) <= 1e-9


def format_value(v) -> str:
    """One cell as the per-row emitter wrote it before tables: the
    reference the table emitter's bytes are held to."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v if math.isfinite(v) else DIVERGED_TOKEN
    if isinstance(v, (list, tuple, np.ndarray)):
        flat = np.asarray(v).ravel().astype(float, copy=False).tolist()
        return ";".join("%.17g" % u if math.isfinite(u) else DIVERGED_TOKEN
                        for u in flat)
    return str(v)


def reference_csv(table) -> str:
    """The table as one dict per row, a missing cell NaN, each cell
    through ``format_value`` and ``csv.writer``."""
    n = len(next(iter(table.values())))
    buf = io.StringIO()
    buf.write("# schema=v1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(table))
    for i in range(n):
        row = {k: c[i] if i < len(c) else math.nan for k, c in table.items()}
        writer.writerow([format_value(v) for v in row.values()])
    return buf.getvalue()


any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, math.nan, math.inf, -math.inf])
# words that no reader takes for a number, a boolean or the divergence token
words = st.text(alphabet="bcdghjkmpqsuwxyz_", min_size=1, max_size=8)
ints = st.integers(-10 ** 9, 10 ** 9) | st.integers(-2 ** 63, 2 ** 63 - 1)


NUMERIC = ("int", "float", "vector")


@st.composite
def column(draw, n: int, text, kinds):
    """A column of n cells: an integer or float array of shape (n,) or
    (n, w) with w in 0..5, or a list of text, booleans (Python or numpy)
    or mixed scalars."""
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
    if kind in ("float", "vector"):
        w = draw(st.integers(0, 5)) if kind == "vector" else 1
        cells = draw(st.lists(any_float, min_size=n * w, max_size=n * w))
        a = np.array(cells, dtype=float)
        return a if kind == "float" else a.reshape(n, w)
    if kind == "text":
        return draw(st.lists(text, min_size=n, max_size=n))
    if kind == "bool":
        return draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if kind == "np_bool":
        return [np.bool_(b) for b in draw(st.lists(st.booleans(), min_size=n, max_size=n))]
    cell = ints | ints.map(np.int64) | any_float | any_float.map(np.float64) | \
        text | st.booleans()
    return draw(st.lists(cell, min_size=n, max_size=n))


@st.composite
def tables(draw, text=words, kinds=NUMERIC + ("text", "bool", "np_bool", "mixed")):
    """Tables of 0..6 rows and 1..5 columns; after the first, a column
    may stop short, as the rounds a diverged run did not complete do."""
    n = draw(st.integers(0, 6))
    table = {"c0": draw(column(n, text, kinds))}
    for j in range(1, draw(st.integers(1, 5))):
        short = draw(st.booleans())
        table[f"c{j}"] = draw(column(draw(st.integers(0, n)) if short else n,
                                     text, kinds))
    return table


@PROPERTY
@given(tables(text=st.text(max_size=6)) | tables(kinds=NUMERIC))
def test_csv_matches_per_cell_reference(table):
    # the numeric-only tables take the one-template-per-row path
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        emit_rows(table, "csv", path)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == reference_csv(table)


def json_value(v):
    """The JSON rendering of one cell: a 1-vector as its one number, a
    numpy boolean as a boolean, a nonfinite number as the divergence
    token."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else DIVERGED_TOKEN
    if isinstance(v, (list, tuple, np.ndarray)):
        flat = np.asarray(v).ravel().astype(float, copy=False).tolist()
        if len(flat) == 1:
            return json_value(flat[0])
        return [json_value(u) for u in flat]
    return str(v)


def reference_json(table) -> str:
    """The table as one dict per row, a missing cell NaN, each cell
    through ``json_value`` and ``json.dumps``."""
    n = len(next(iter(table.values())))
    rows = [{k: json_value(c[i] if i < len(c) else math.nan) for k, c in table.items()}
            for i in range(n)]
    return json.dumps({"schema": "v1", "rows": rows}, separators=(",", ":")) + "\n"


@PROPERTY
@given(tables(text=st.text(max_size=6)) | tables(kinds=NUMERIC))
def test_json_matches_per_cell_reference(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.json")
        emit_rows(table, "json", path)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == reference_json(table)


@pytest.mark.parametrize("fmt, reference", [("csv", reference_csv),
                                             ("json", reference_json)])
@pytest.mark.parametrize("key", ["a,b", 'say "hi"', "two\nlines", "\u00e9t\u00e9", "",
                                 "5%", "%s%%"],
                         ids=["comma", "quote", "newline", "non_ascii", "empty",
                              "percent", "format_spec"])
def test_odd_column_names_match_reference(key, fmt, reference):
    # the JSON row template holds each key, so a key's quotes, escapes
    # and percent signs must come out as json.dumps writes them; the
    # numeric tables take the template, the list column goes cell by cell
    for table in ({key: np.array([1.5, -2.0, math.nan]), "t": np.arange(3)},
                  {"z": np.array([[0.5, 1.0], [2.0, 3.0]]), key: np.array([[7.0], [8.0]])},
                  {key: ["u", "v"], "x": np.array([1.0, math.inf])}):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"rows.{fmt}")
            emit_rows(table, fmt, path)
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == reference(table)


def expected(c, i, fmt):
    """What ``read_rows`` gives back for cell i of column c."""
    if i >= len(c):
        return DIVERGED_TOKEN
    v = c[i]
    if isinstance(v, np.ndarray):
        flat = v.astype(float).tolist()
        if len(flat) != 1:      # CSV reads a diverged vector entry as nan
            if not flat and fmt == "csv":
                return ""
            return [u if math.isfinite(u) else
                    (math.nan if fmt == "csv" else DIVERGED_TOKEN) for u in flat]
        v = flat[0]
    if isinstance(v, (bool, str)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v) if math.isfinite(v) else DIVERGED_TOKEN


def same(a, b):
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def round_trips(table) -> bool:
    # numpy booleans are written "True", the spelling the benchmark's
    # recorded kelly/rsi verify rows pin until that reference is
    # recorded again, and read back as text
    return not any(isinstance(v, np.bool_) for c in table.values()
                   if isinstance(c, list) for v in c)


@PROPERTY
@given(tables().filter(round_trips), st.sampled_from(["csv", "json"]))
def test_rows_round_trip(table, fmt):
    n = len(table["c0"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"rows.{fmt}")
        emit_rows(table, fmt, path)
        back = read_rows(path)
    assert len(back) == n
    for i, b in enumerate(back):
        assert list(b) == list(table)
        for k, c in table.items():
            assert same(expected(c, i, fmt), b[k]), (k, c, b[k])
