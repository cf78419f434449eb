"""Acceptance suite: one test per desk-scale criterion, each printing a
pass/fail line (run with -s or check captured output).

Criteria cover the tightness construction, the upper/lower tracking
bounds, the aggregation guarantees, the alternating-quadratic example,
the chaos phenomenology of the composed period map, the bifurcation and
star scans, the contraction property suites, and the full operator
verification sweep.
"""

import math

import numpy as np
import pytest

from tvvi.algorithms import (ContractiveForward, CyclicFB, MetaAdaptive,
                             MetaFixed, StepSchedule, Trajectory, forward_step,
                             resolvent_step, run_tracker)
from tvvi.core import Domain, Operator
from tvvi.dynamics import (bifurcation_scan, classify_eta, compose_map,
                           eta_grid, iterate_orbit, newton_periodic_orbit,
                           orbit_stability, period3_search, star_scan)
from tvvi.metrics import (aggregation_regret_bound, constant_tracking_bound,
                          contractive_bound, cyclic_regret_bound, dynamic_regret,
                          quadratic_path_length, tracking_error, tracking_series)
from tvvi.scenarios import (RSI_MU, build_scenario, periodic_quadratic,
                            verify_scenario)


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:02d}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def prefix(traj: Trajectory, n: int) -> Trajectory:
    return Trajectory(plays=traj.plays[:n], op_values=traj.op_values[:n],
                      solutions=traj.solutions[:n])


def random_spd(rng, d, lo=0.5, hi=4.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(lo, hi, d)
    return q @ np.diag(eigs) @ q.T, eigs.min(), eigs.max()


def test_criterion_01_tightness_exact():
    # stationary-error run of the drifting-quadratic construction
    C, b, T = 0.5, 0.1, 100
    sc = build_scenario("quadratic_drift", {"c1": 0.0, "b": b, "decay": 0.0})
    traj = run_tracker(sc.seq, ContractiveForward(1.0 - C), sc.domain,
                       [b / (1.0 - C)], T)
    measured = tracking_error(traj)
    target = T * b * b / (1.0 - C) ** 2
    ok = abs(measured - target) <= 1e-10
    report(1, ok, f"tracking {measured:.12f} vs T b^2/(1-C)^2 = {target}")


def test_criterion_02_contractive_upper_bound():
    rng = np.random.default_rng(202)
    T, violations = 10_000, 0
    for trial in range(20):
        d = int(rng.integers(2, 4))
        A, mu, L = random_spd(rng, d)
        b_vec = rng.uniform(-0.3, 0.3, d)
        sc = build_scenario("quadratic_drift", {
            "dim": d, "c1": rng.uniform(-1, 1, d).tolist(),
            "b": b_vec.tolist(), "decay": 0.75, "matrix": A.tolist()})
        z1 = rng.uniform(-2, 2, d)
        traj = run_tracker(sc.seq, ContractiveForward(mu / L ** 2),
                           sc.domain, z1, T)
        bound = contractive_bound(C=math.sqrt(1.0 - (mu / L) ** 2),
                                  path=quadratic_path_length(traj.solutions),
                                  init_dist=float(np.linalg.norm(z1 - traj.solutions[0])))
        if tracking_error(traj) > bound + 1e-9:
            violations += 1
    report(2, violations == 0, f"{violations} violations over 20 tame runs, T={T}")


def test_criterion_03_cyclic_fb_regret_bound():
    rng = np.random.default_rng(303)
    T, violations = 10_000, 0
    runs = [build_scenario("periodic_1d")]
    for _ in range(2):
        d = int(rng.integers(1, 3))
        centers = [rng.uniform(-1, 1, d) for _ in range(2)]
        runs.append(periodic_quadratic(centers))
    for sc in runs:
        z1 = rng.uniform(-2, 2, sc.seq.dim)
        algo = CyclicFB(2, StepSchedule.inverse_mu_t(sc.mu))
        traj = run_tracker(sc.seq, algo, sc.domain, z1, T)
        g_emp = max(float(np.linalg.norm(g)) for g in traj.op_values)
        bound = cyclic_regret_bound(k=2, G=g_emp, mu=sc.mu, T=T)
        if dynamic_regret(traj, traj.solutions, sc.mu) > bound + 1e-9:
            violations += 1
    report(3, violations == 0,
           f"{violations} violations over {len(runs)} periodic runs, T={T}")


def test_criterion_04_meta_fixed_logarithmic():
    T, K = 10_000, 4
    dom = Domain.box([-2.0], [2.0])
    sc = periodic_quadratic([[0.5], [-0.5]], domain=dom)
    algo = MetaFixed(K=K, mu=sc.mu, D=sc.diameter, G=sc.gbound)
    traj = run_tracker(sc.seq, algo, dom, [1.5], 2 * T)
    reg = dynamic_regret(prefix(traj, T), traj.solutions[:T], sc.mu)
    bound = aggregation_regret_bound(G=sc.gbound, mu=sc.mu, D=sc.diameter,
                                     k=2, K=K, T=T)
    series = tracking_series(traj)
    growth = series[2 * T - 1] - series[T - 1]
    cap = 2 * (sc.gbound + sc.mu * sc.diameter) ** 2 / sc.mu ** 2 \
        * (math.log(2.0) + 0.1)
    ok = reg <= bound + 1e-9 and growth <= cap
    report(4, ok, f"regret {reg:.2f} <= {bound:.2f}; "
                  f"track(2T)-track(T) {growth:.2e} <= {cap:.2f}")


def test_criterion_05_meta_adaptive_constant():
    T, K = 10_000, 4
    sc = periodic_quadratic([[1.0], [-1.0]])
    algo = MetaAdaptive(K=K, mu=sc.mu, lip=sc.lip)
    traj = run_tracker(sc.seq, algo, sc.domain, [3.0], T)
    series = tracking_series(traj)
    d0 = max(abs(3.0 - 1.0), abs(3.0 + 1.0))
    bound = constant_tracking_bound(D0=d0, kappa=sc.lip / sc.mu, k=2, K=K)
    plateau = series[T - 1] - series[T // 2 - 1]
    ok = series[-1] <= bound + 1e-9 and plateau <= 1e-6
    report(5, ok, f"tracking {series[-1]:.3f} <= {bound:.1f}; "
                  f"plateau {plateau:.2e} <= 1e-06")


def test_criterion_06_adversarial_lower_bound():
    T = 1000
    sc = build_scenario("lower_bound_adversary")
    traj = run_tracker(sc.seq, ContractiveForward(1.0), sc.domain, [0.0], T)
    path = quadratic_path_length([sc.initial_solution] + list(traj.solutions))
    track = tracking_error(traj)
    ok = path == float(T) and track >= 0.25 * path
    report(6, ok, f"path {path:.0f} == D^2 T / 4 = {T}; "
                  f"tracking {track:.0f} >= path/4 = {0.25 * path:.0f}")


def test_criterion_07_alternating_quadratic_steps():
    sc = build_scenario("periodic_1d")
    rng = np.random.default_rng(707)
    ok_converge = True
    for _ in range(10):
        z1 = float(rng.uniform(-5.0, 5.0))
        traj = run_tracker(sc.seq, ContractiveForward(1.0), sc.domain, [z1], 12)
        if any(p[0] != 0.0 for p in traj.plays[2:]):
            ok_converge = False
    traj = run_tracker(sc.seq, ContractiveForward(0.5), sc.domain, [1.0], 25)
    xs = [p[0] for p in traj.plays]
    ratios = [abs(xs[2 * t] / xs[2 * t - 2]) for t in range(1, 12)]
    ok_ratio = all(abs(r - 1.5) <= 1e-9 for r in ratios)
    report(7, ok_converge and ok_ratio,
           f"eta=1 zero from t=3 on 10 starts; eta=1/2 ratio 1.5 +- 1e-9")


def test_criterion_08_newton_four_cycle():
    sc = build_scenario("chaos_1d")
    m = compose_map(sc, 3.9)
    po = newton_periodic_orbit(m, 4, [-0.1])
    target = [-1.35, 5.92, -1.57, 7.04]
    ok_fp = po is not None and abs(po.fixed_point - (-1.35)) <= 0.02
    ok_orbit = po is not None and all(
        abs(a - b) <= 0.02 for a, b in zip(po.orbit, target))
    st = orbit_stability(m, po.orbit)
    ok_stab = abs(st.product - (-0.26)) <= 0.05 and abs(st.product) < 1.0
    report(8, ok_fp and ok_orbit and ok_stab,
           f"fp {po.fixed_point:.4f}~-1.35; orbit {np.round(po.orbit, 3)}; "
           f"product {st.product:.4f}~-0.26, stable")


def test_criterion_09_period_three_evidence():
    sc = build_scenario("chaos_1d")
    m = compose_map(sc, 6.1)
    pts = period3_search(m, -2.5, 2.5)
    ok_nonempty = len(pts) > 0
    # the documented cycle values live at the even sampling phase: map
    # each located cycle through the round-1 step
    phase1 = m.step_maps[0]
    target = np.array([0.20, 0.04, -0.10])
    ok_value, ok_orbit = False, False
    for r in pts:
        cyc = [r, float(m(np.array([r]))[0]),
               float(m.power(np.array([r]), 2)[0])]
        imgs = np.array([float(phase1(np.array([c]))[0]) for c in cyc])
        if np.min(np.abs(imgs - 0.20)) <= 0.02:
            ok_value = True
            for shift in range(3):
                if np.all(np.abs(np.roll(imgs, shift) - target) <= 0.02):
                    ok_orbit = True
    report(9, ok_nonempty and ok_value and ok_orbit,
           f"{len(pts)} period-3 points; even-phase values match "
           f"{{-0.10, 0.20, 0.04}} within 0.02")


def test_criterion_10_doubling_at_eta_two():
    sc = build_scenario("chaos_1d")
    m = compose_map(sc, 2.0)
    xs = np.linspace(-10, 10, 10_001)
    xs = xs[xs != 0.0]
    ok_grid = all(abs(m(np.array([x]))[0]) > 2.0 * abs(x) for x in xs)
    orbit = iterate_orbit(m, [0.01], 500)
    report(10, ok_grid and not orbit.bounded,
           f"|map(x)| > 2|x| on {len(xs)}-point grid; orbit from 0.01 diverges")


def test_criterion_11_convergent_step_sizes():
    sc = build_scenario("chaos_1d")
    ok = True
    details = []
    for eta in (0.4, 7.6, 8.0, 8.4):
        m = compose_map(sc, eta)
        cls = classify_eta(m, [-0.1])
        tail = iterate_orbit(m, [-0.1], 2000).points[-100:]
        tail_norm = max(abs(p[0]) for p in tail)
        ok = ok and cls.kind == "converged" and tail_norm < 1e-6
        details.append(f"eta={eta}:{cls.kind},|tail|={tail_norm:.1e}")
    report(11, ok, "; ".join(details))


def test_criterion_12_bifurcation_reduced():
    sc = build_scenario("chaos_1d")
    etas = sorted(set(eta_grid(0.0, 8.0, 298)) | {3.9, 6.1})
    assert len(etas) == 300
    rows = bifurcation_scan(sc, [-0.1], etas=etas, n_steps=2000,
                            burn_in=1000)
    by_eta = {r.eta: r.classification for r in rows}
    low = [c.kind for e, c in by_eta.items() if e <= 0.5]
    ok_low = low and all(k == "converged" for k in low)
    band = [c.kind for e, c in by_eta.items() if 1.9 <= e <= 2.1]
    ok_band = band and all(k == "diverged" for k in band)
    ok_39 = by_eta[3.9].kind == "periodic" and by_eta[3.9].period == 4
    ok_61 = by_eta[6.1].kind == "bounded_aperiodic"
    ok_80 = by_eta[8.0].kind == "converged"
    ok = ok_low and ok_band and ok_39 and ok_61 and ok_80
    report(12, ok, f"low-eta converged ({len(low)} rows); diverged band at 2; "
                   f"3.9 {by_eta[3.9]}; 6.1 {by_eta[6.1]}; 8.0 {by_eta[8.0]}")


def test_criterion_13_star_attractor():
    star = build_scenario("star_2d")
    res_04 = star_scan(star, 0.4, n_samples=100, n_steps=500, seed=13)
    ok_04 = res_04.n_diverged == 0 and res_04.avg_norm_series[-1] < 1e-3
    res_05 = star_scan(star, 0.5, n_samples=100, n_steps=500, seed=13)
    ok_05 = res_05.all_diverged
    best = None
    for eta in np.arange(0.55, 1.51, 0.05):
        res = star_scan(star, float(eta), n_samples=60, n_steps=400, seed=13)
        if res.n_diverged == 0 and res.radial_score > 0.8:
            best = res
            break
    ok_star = best is not None
    report(13, ok_04 and ok_05 and ok_star,
           f"eta=0.4 tail {res_04.avg_norm_series[-1]:.1e}; eta=0.5 diverges; "
           f"star regime at eta={best.eta if best else None} "
           f"score={best.radial_score if best else 0:.3f}")


def test_criterion_14_contraction_suites():
    rng = np.random.default_rng(1414)
    bad = []

    # forward step on random conditioned quadratics
    for _ in range(4):
        d = int(rng.integers(2, 5))
        A, mu, L = random_spd(rng, d)
        c = rng.standard_normal(d)
        op = Operator.from_affine(A, -A @ c)
        dom = Domain.unbounded(d)
        factor = math.sqrt(1.0 - (mu / L) ** 2)
        for _ in range(250):
            z = rng.uniform(-5, 5, d)
            out = forward_step(op, dom, z, mu / L ** 2)
            if np.linalg.norm(out - c) > factor * np.linalg.norm(z - c) + 1e-12:
                bad.append("forward")

    # resolvent on strongly monotone affine operators
    for _ in range(4):
        d = 3
        sym, _, _ = random_spd(rng, d, 0.4, 3.0)
        skew = rng.standard_normal((d, d))
        A = sym + 0.5 * (skew - skew.T)
        mu = float(np.linalg.eigvalsh(sym).min())
        b = rng.standard_normal(d)
        star = np.linalg.solve(A, -b)
        op = Operator.from_affine(A, b)
        for _ in range(250):
            z = rng.uniform(-5, 5, d)
            out = resolvent_step(op, z)
            if np.linalg.norm(out - star) > \
                    np.linalg.norm(z - star) / (1.0 + mu) + 1e-10:
                bad.append("resolvent")

    # per-cycle contraction of the correctly tuned cyclic learner
    for _ in range(5):
        d = 2
        A, mu, L = random_spd(rng, d, 1.0, 5.0)
        k = int(rng.integers(2, 4))
        centers = [rng.uniform(-2, 2, d) for _ in range(k)]
        sc = periodic_quadratic(centers, matrix=A)
        z1 = rng.uniform(-4, 4, d)
        traj = run_tracker(sc.seq, CyclicFB(k, StepSchedule.constant(1.0 / L)),
                           sc.domain, z1, 200)
        rho = 1.0 - mu / L
        for t in range(1, len(traj.plays) + 1):
            star = centers[(t - 1) % k]
            lhs = np.linalg.norm(traj.plays[t - 1] - star) ** 2
            if lhs > rho ** ((t - 1) // k) * np.linalg.norm(z1 - star) ** 2 + 1e-9:
                bad.append("per-cycle")

    # descent-ascent contraction on the saddle game under the secant bound
    sc = build_scenario("rsi_game")
    L = sc.lip
    eta = RSI_MU / L ** 2
    C = math.sqrt(1.0 - RSI_MU ** 2 / L ** 2)
    for t in (1, 2, 3):
        op = sc.seq.at(t)
        for _ in range(334):
            z = rng.uniform(-10, 10, 2)
            out = z - eta * op(z)
            if np.linalg.norm(out) > C * np.linalg.norm(z) + 1e-12:
                bad.append("gda")

    report(14, not bad, f"violations: {bad if bad else 'none'} across "
                        f"forward/resolvent/per-cycle/saddle suites")


def test_criterion_15_verification_suite():
    failures = []
    for name in ("quadratic_drift", "periodic_1d", "chaos_1d", "star_2d",
                 "kelly_auction", "streaming_regression", "glm", "rsi_game",
                 "lower_bound_adversary"):
        sc = build_scenario(name)
        rows = verify_scenario(sc, n_samples=10_000, seed=15, n_fd=100)
        failures.extend((name, r) for r in rows if not r["passed"])
    report(15, not failures, f"all scenario gradient/constant checks pass "
                             f"({'ok' if not failures else failures})")
