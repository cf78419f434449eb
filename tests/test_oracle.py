"""The byte contract: a whole ``run_tracker`` run of any catalog scenario
and any algorithm it admits has, byte for byte, the plays, operator
values, solutions, weights and divergence round of the plain per-round
recursion in ``oracle.py``, and spends the oracle's evaluations."""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracle
from tvvi.algorithms import (ContractiveForward, CyclicFB, MetaAdaptive, MetaFixed,
                             Resolvent, StepSchedule, run_tracker)
from tvvi.scenarios import BUILDERS, build_scenario

floats = st.floats      # bounded on both sides: finite, never NaN


def vectors(n, lo, hi):
    return st.lists(floats(lo, hi), min_size=n, max_size=n)


def spd(d):
    """A symmetric positive-definite d x d matrix, not diagonal for d >= 2."""
    return vectors(d * d, -1.0, 1.0).map(lambda m: (
        np.reshape(m, (d, d)) @ np.reshape(m, (d, d)).T + 0.25 * np.eye(d) + 0.25).tolist())


def scenario_params(draw, name):
    """Moderate values of the builder's parameters, inside PARAMS; a None
    keeps the default."""
    d, n, ints, seed = draw(st.sampled_from([3, 2, 1])), draw(st.sampled_from([4, 3, 2])), \
        st.integers, st.integers(0, 99)
    params = {
        "quadratic_drift": lambda: {
            "dim": d, "c1": draw(vectors(d, -2.0, 2.0)), "b": draw(vectors(d, -1.0, 1.0)),
            "decay": draw(floats(0.0, 1.5)), "matrix": draw(spd(d) | st.none())},
        "exp_quadratic": lambda: {"matrices": draw(st.lists(spd(d), min_size=1, max_size=3))},
        "kelly_auction": lambda: {
            "n": n, "values": draw(vectors(n, 0.5, 3.5) | st.none()),
            "budgets": draw(vectors(n, 0.5, 2.0) | st.none()), "entry": draw(floats(0.5, 2.0)),
            "entry_amp": draw(floats(0.0, 0.9)), "value_amp": draw(floats(0.0, 1.0)),
            "period": draw(ints(1, 80)), "lam_reg": draw(floats(0.05, 1.0)), "seed": draw(seed)},
        "streaming_regression": lambda: {
            "dim": d, "n0": draw(ints(0, 70)), "growth": draw(ints(0, 3)),
            "noise": draw(floats(0.0, 1.0)), "lam_reg": draw(floats(0.1, 2.0)),
            "seed": draw(seed)},
        "glm": lambda: {
            "dim": d, "n0": draw(ints(1, 70)), "growth": draw(ints(0, 3)),
            "link": draw(st.sampled_from(["scaled_logistic", "identity"])),
            "scale": draw(floats(0.5, 4.0)), "lam_reg": draw(floats(0.0, 0.5)),
            "noise": draw(floats(0.0, 1.0)), "seed": draw(seed)},
        "rsi_game": lambda: {"a_values": draw(st.lists(floats(0.0, 1.0), min_size=1,
                                                       max_size=4))},
        "lower_bound_adversary": lambda: {"z0": draw(st.sampled_from([-1.0, 0.0, 1.0]))},
    }.get(name, dict)()
    return {key: value for key, value in params.items() if value is not None}


def admitted(sc) -> list:
    """The algorithms the scenario admits."""
    if sc.domain.bounded:
        return ["forward", "cyclic_fb", "meta_adaptive", "meta_fixed"]
    affine = sc.seq.at(1).affine is not None
    return ["forward", "cyclic_fb", "meta_adaptive"] + (["resolvent"] if affine else [])


def algorithm(draw, kind, sc, z1):
    """The algorithm ``kind`` with drawn constants, and the oracle's learner of it."""
    dom, K = sc.domain, draw(st.integers(1, 16))
    eta, mu = 10.0 ** draw(floats(-3.5, 0.0)), draw(floats(0.1, 2.0))
    constant, inverse = (lambda s: eta), (lambda s: 1.0 / (mu * s))
    if kind == "forward":
        return ContractiveForward(eta), oracle.Forward(z1, eta, dom)
    if kind == "resolvent":
        return Resolvent(), oracle.Forward(z1, None, dom, resolvent=True)
    if kind == "meta_adaptive":
        lip = 10.0 ** draw(floats(-0.5, 2.0))
        return MetaAdaptive(K, mu, lip), oracle.Meta(K, z1, lambda s: 1.0 / lip, dom, mu)
    if kind == "meta_fixed":
        D, G = sc.diameter, sc.gbound or 2.0
        lam = 1.0 / (4.0 * mu * (D + G / mu) ** 2)
        return MetaFixed(K, mu, D, G), oracle.Meta(K, z1, inverse, dom, mu, lam)
    period, fixed = draw(st.integers(1, 5)), draw(st.booleans())
    schedule = StepSchedule.constant(eta) if fixed else StepSchedule.inverse_mu_t(mu)
    return CyclicFB(period, schedule), \
        oracle.Cyclic(period, z1, constant if fixed else inverse, dom)


def assert_run_matches_the_oracle(draw, name, params, kind):
    sc = build_scenario(name, params)   # its operators count this run's evaluations
    dom, u = sc.domain, np.array(draw(vectors(sc.seq.dim, 0.0, 1.0)))
    z1 = dom.lower + u * (dom.upper - dom.lower) if dom.bounded else 6.0 * u - 3.0
    algo, learner = algorithm(draw, kind, sc, z1)
    T = 200 - draw(st.integers(0, 199))     # long runs first
    returned, respond = {}, sc.seq.respond

    def recording(t, play):
        z_star, op = respond(t, play)
        returned[id(op)] = op
        return z_star, op

    sc.seq.respond = recording
    traj = run_tracker(sc.seq, algo, dom, z1, T)
    want = oracle.run(oracle.source(name, params), learner, T)
    assert traj.diverged_at == want["diverged_at"], (name, kind)
    for key in ("plays", "op_values", "solutions", "weights"):
        got = getattr(traj, key)
        if got is None:
            assert all(x is None for x in want[key]), (name, kind, key)
        else:
            want_bytes = np.reshape(want[key], (-1, got.shape[1])).tobytes()
            assert got.tobytes() == want_bytes, (name, kind, key)
    # the evaluation economy: one a round for a single iterate, a cyclic
    # bank and meta_fixed; one per distinct point for meta_adaptive
    assert sum(op.evals for op in returned.values()) == learner.evals, (name, kind)


# a failing draw is reported as drawn, its scenario, algorithm and array
# named: at about 40 whole runs a draw, shrinking it takes minutes
@settings(derandomize=True, database=None, deadline=None, max_examples=10,
          phases=[Phase.generate])
@given(st.data())
def test_run_tracker_matches_the_oracle_byte_for_byte(data):
    # each draw runs every catalog scenario under every algorithm it admits
    for name in sorted(BUILDERS):
        params = scenario_params(data.draw, name)
        for kind in admitted(build_scenario(name, params)):
            assert_run_matches_the_oracle(data.draw, name, params, kind)
