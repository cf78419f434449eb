"""Configuration-driven experiment runner.

Every command reads one flat config file, runs deterministically given
the seeds it names, and writes plot-ready CSV/JSON rows. Scan-type
commands step every step size or start as one vectorized block in one
process; --threads is still accepted but changes nothing.

Exit status: 0 on success; 1 for a diverged run (with
--fail-on-divergence) or a failed verification; 2 for an invalid config
or a file that cannot be read or written; 3 for an unexpected
exception, a defect in the program, whose traceback goes to standard
error.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from functools import partial
from typing import Optional

import numpy as np

from . import algorithms as alg
from . import dynamics, metrics
from .config import (FIELDS, ExperimentConfig, _field_value, _vector_field,
                     parse_config)
from .core import ConfigurationError, row_norms
from .io import emit_rows
from .scenarios import PARAMS, Scenario, build_scenario, verify_scenario

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3       # an unexpected exception: a defect, not an input error

_BOUND_TOL = 1e-9       # slack of a bound comparison, either direction


def _build_algorithm(cfg: ExperimentConfig, sc: Scenario):
    kind = cfg.get("algorithm.kind")
    if kind == "forward":
        return alg.ContractiveForward(eta=cfg.get("algorithm.eta"))
    if kind == "resolvent":
        return alg.Resolvent()
    if kind == "cyclic_fb":
        if cfg.get("algorithm.schedule") == "constant":
            schedule = alg.StepSchedule.constant(cfg.get("algorithm.eta"))
        else:
            schedule = alg.StepSchedule.inverse_mu_t(
                float(_constant(cfg, "algorithm.mu", sc.mu)))
        return alg.CyclicFB(period=cfg.get("algorithm.period"), schedule=schedule)
    mu = float(_constant(cfg, "algorithm.mu", sc.mu))
    if kind == "meta_fixed":
        return alg.MetaFixed(K=cfg.get("algorithm.k"), mu=mu,
                             D=float(_constant(cfg, "algorithm.d", sc.diameter)),
                             G=float(_constant(cfg, "algorithm.g", sc.gbound)))
    return alg.MetaAdaptive(K=cfg.get("algorithm.k"), mu=mu,     # meta_adaptive
                            lip=float(_constant(cfg, "algorithm.lip", sc.lip)))


def _run_trajectory(cfg: ExperimentConfig, sc: Scenario) -> alg.Trajectory:
    algo = _build_algorithm(cfg, sc)
    z1 = _vector_field("run.z1", cfg.get("run.z1"), sc.seq.dim)
    if not sc.domain.contains(z1):
        raise ConfigurationError("field 'run.z1': the start lies outside the "
                                 f"domain of {sc.name}")
    try:
        return alg.run_tracker(sc.seq, algo, sc.domain, z1, cfg.get("run.horizon"),
                               divergence_threshold=cfg.get("run.divergence_threshold"))
    except np.linalg.LinAlgError as exc:
        # a resolvent step whose system I + A the scenario's operators
        # leave singular or too ill-conditioned to solve
        raise ConfigurationError(f"field 'algorithm.kind': {cfg.get('algorithm.kind')} "
                                 f"cannot step on {sc.name}: {exc}") from exc


def _track_table(traj: alg.Trajectory, mu: float) -> dict:
    """One row per round played; the trajectory's arrays are the columns.
    The columns over completed rounds stop one short after a divergence,
    and ``io.emit_rows`` pads the diverging round."""
    table = {"t": np.arange(1, len(traj.plays) + 1), "z": traj.plays}
    if traj.solutions is not None:
        # a finite play beyond about 1.3e154 has an infinite squared
        # distance, written as the nonfinite token
        sq = metrics.squared_distances(traj)
        table.update(z_star=traj.solutions, sq_dist=sq, cum_track=np.cumsum(sq),
                     cum_regret=metrics.regret_series(traj, traj.solutions, mu))
    if traj.weights is not None:
        table["weights"] = traj.weights
    return table


def _cmd_track(cfg: ExperimentConfig) -> tuple:
    sc = build_scenario(cfg.scenario, cfg.scenario_params)
    traj = _run_trajectory(cfg, sc)
    return _track_table(traj, sc.mu or 0.0), traj.diverged


def _derive_contraction(cfg: ExperimentConfig, sc: Scenario) -> float:
    c = cfg.get("bound.c")
    if c is not None:
        return c
    kind = cfg.get("algorithm.kind")
    try:
        if kind == "resolvent" and sc.mu is not None:
            c = 1.0 / (1.0 + sc.mu)
        if kind == "forward" and sc.mu is not None and sc.lip is not None:
            if abs(cfg.get("algorithm.eta") - sc.mu / sc.lip ** 2) <= 1e-12:
                c = math.sqrt(max(0.0, 1.0 - (sc.mu / sc.lip) ** 2))
    except (OverflowError, ZeroDivisionError):      # L^2 past the float range
        c = None
    if c is not None and c < 1.0:       # a factor that rounds to 1 contracts nothing
        return c
    raise ConfigurationError("field 'bound.c': required, the contraction factor "
                             f"of {kind} is not derivable on this scenario")


def _constant(cfg: ExperimentConfig, key: str, fallback):
    """The bound constant ``key`` from the config, else the scenario's."""
    value = cfg.get(key, fallback)
    if value is None:
        raise ConfigurationError(f"field {key!r}: required, the scenario "
                                 "does not define it")
    return value


def _log_period(cfg: ExperimentConfig, sc: Scenario) -> int:
    """The k of a closed form with a log(T/k) term, which holds for a
    horizon T of at least k."""
    k = _constant(cfg, "bound.k", sc.period)
    T = cfg.get("run.horizon")
    if T < k:
        raise ConfigurationError(f"field 'run.horizon': {T} is below the bound's "
                                 f"period k = {k}, and the bound needs T >= k")
    return k


def _log_form(form: partial) -> Optional[partial]:
    """A log(T/k) form, or None when the run completed fewer than k
    rounds, where log(T/k) is negative and the theorem bounds nothing."""
    return form if form.keywords["T"] >= form.keywords["k"] else None


def _build_bound(cfg: ExperimentConfig, sc: Scenario,
                 traj: alg.Trajectory) -> Optional[partial]:
    """The closed form ``bound.kind`` names, bound to its constants, or
    None for a log(T/k) form the completed rounds T do not reach.

    Every constant is read, and a missing one rejected, here; the
    formula itself runs only once a round completed (T >= 1)."""
    kind = cfg.get("bound.kind")
    T = len(traj.op_values)
    if kind == "contractive":
        sols = traj.solutions
        return partial(metrics.contractive_bound, C=_derive_contraction(cfg, sc),
                       path=metrics.quadratic_path_length(sols),
                       init_dist=float(row_norms(traj.plays[0] - sols[0]))
                       if len(sols) else math.nan)
    if kind == "cyclic_regret":
        G = cfg.get("bound.g") or max((float(row_norms(g)) for g in traj.op_values),
                                      default=math.nan)
        return _log_form(partial(metrics.cyclic_regret_bound, k=_log_period(cfg, sc),
                                 G=G, mu=float(sc.mu), T=T))
    if kind in ("aggregation_regret", "aggregation_tracking"):
        formula = metrics.aggregation_regret_bound if kind == "aggregation_regret" \
            else metrics.aggregation_tracking_bound
        return _log_form(partial(
            formula, G=float(_constant(cfg, "bound.g", sc.gbound)), mu=float(sc.mu),
            D=float(_constant(cfg, "bound.d", sc.diameter)), k=_log_period(cfg, sc),
            K=cfg.get("algorithm.k", 1), T=T))
    if kind == "constant_tracking":
        kappa = cfg.get("bound.kappa")
        if kappa is None:
            if sc.lip is None or sc.mu is None:
                raise ConfigurationError("field 'bound.kappa': required, the "
                                         "scenario does not define mu and L")
            kappa = sc.lip / sc.mu
        D0 = max((float(row_norms(traj.plays[0] - s))
                  for s in traj.solutions[:sc.period or 1]), default=math.nan)
        return partial(metrics.constant_tracking_bound, D0=D0, kappa=kappa,
                       k=cfg.get("bound.k", sc.period or 1),
                       K=cfg.get("algorithm.k", 1))
    return partial(metrics.adversarial_lower_bound,       # adversarial_lb
                   D=float(_constant(cfg, "bound.d", sc.diameter)), T=T)


def _cmd_bounds(cfg: ExperimentConfig) -> tuple:
    sc = build_scenario(cfg.scenario, cfg.scenario_params)
    traj = _run_trajectory(cfg, sc)
    if traj.solutions is None:
        raise ConfigurationError(f"field 'scenario.name': bounds are measured against "
                                 f"the solutions, which {sc.name} does not define")
    formula = _build_bound(cfg, sc, traj)
    kind, which = cfg.get("bound.kind"), cfg.get("bound.which")
    measured = bound = math.nan
    # diverged in round 1: no round to measure or to bound; before round
    # k of a log(T/k) form: no bound
    holds = False
    if len(traj.op_values):
        # a finite play beyond about 1.3e154 has an infinite squared
        # distance, and a bound past the largest float is infinite too
        if which == "tracking":
            measured = metrics.tracking_error(traj)
        else:
            measured = metrics.dynamic_regret(traj, traj.solutions, sc.mu)
        try:
            bound = formula() if formula is not None else math.nan
        except OverflowError:
            bound = math.inf
        if not (math.isfinite(measured) and math.isfinite(bound)):
            holds = False                   # no finite comparison to make
        elif kind == "adversarial_lb":      # a lower bound: measured must reach it
            holds = measured >= bound - _BOUND_TOL
        else:
            holds = measured <= bound + _BOUND_TOL
    table = {"kind": [kind], "which": [which], "measured": [measured],
             "bound": [bound], "holds": [holds]}
    return table, traj.diverged


def _cmd_bifurcation(cfg: ExperimentConfig) -> tuple:
    sc = build_scenario(cfg.scenario or "chaos_1d", cfg.scenario_params)
    etas = dynamics.eta_grid(cfg.get("dynamics.eta_lo"), cfg.get("dynamics.eta_hi"),
                             cfg.get("dynamics.eta_n"))
    if not 0.0 < min(etas) <= max(etas) < math.inf:
        raise ConfigurationError("field 'dynamics.eta_hi': the grid's step sizes "
                                 "eta_lo + (eta_hi - eta_lo) i / eta_n must be positive "
                                 f"floats, and range from {min(etas)} to {max(etas)}")
    extra = cfg.get("dynamics.extra_etas")
    if extra is not None:
        etas = sorted(set(etas) | set(extra))
    rows = dynamics.bifurcation_scan(
        sc, _vector_field("dynamics.x0", cfg.get("dynamics.x0"), sc.seq.dim),
        etas=etas,
        n_steps=cfg.get("dynamics.steps"), burn_in=cfg.get("dynamics.burn_in"),
        cell_lo=cfg.get("dynamics.cell_lo"), cell_hi=cfg.get("dynamics.cell_hi"),
        n_cells=cfg.get("dynamics.cells"), threshold=cfg.get("dynamics.threshold"))
    table = {"eta": [r.eta for r in rows],
             "classification": [str(r.classification) for r in rows],
             "cells": [";".join(map(str, r.occupied_cells)) for r in rows]}
    all_diverged = all(r.classification.kind == "diverged" for r in rows)
    return table, all_diverged


def _cmd_orbit(cfg: ExperimentConfig) -> tuple:
    sc = build_scenario(cfg.scenario or "chaos_1d", cfg.scenario_params)
    gd_map = dynamics.compose_map(sc, cfg.get("dynamics.eta"))
    x0 = _vector_field("dynamics.x0", cfg.get("dynamics.x0"), sc.seq.dim)
    orbit = dynamics.iterate_orbit(gd_map, x0, cfg.get("dynamics.steps"),
                                   cfg.get("dynamics.threshold"))
    P = orbit.points
    return {"t": np.arange(len(P)), "x": P, "norm": row_norms(P)}, not orbit.bounded


def _cmd_star(cfg: ExperimentConfig) -> tuple:
    res = dynamics.star_scan(
        build_scenario(cfg.scenario or "star_2d", cfg.scenario_params),
        eta=cfg.get("star.eta"), n_samples=cfg.get("star.samples"),
        sample_half_width=cfg.get("star.box"), n_steps=cfg.get("star.steps"),
        seed=cfg.get("star.seed"))
    if cfg.get("star.output") == "tail":
        P = res.tail_points
        table = {"i": np.arange(len(P)), "x0": P[:, 0], "x1": P[:, 1]}
    else:
        n = len(res.avg_norm_series)
        table = {"t": np.arange(n), "avg_norm": res.avg_norm_series,
                 "radial_score": np.full(n, res.radial_score),
                 "n_diverged": np.full(n, res.n_diverged)}
    return table, res.all_diverged


def _cmd_verify(cfg: ExperimentConfig) -> tuple:
    sc = build_scenario(cfg.scenario, cfg.scenario_params)
    rows = verify_scenario(sc, n_samples=cfg.get("verify.samples"),
                           seed=cfg.get("verify.seed"), n_fd=cfg.get("verify.fd_points"))
    table = {k: [r[k] for r in rows] for k in ("check", "detail", "passed")}
    return table, not all(table["passed"])


def run_experiment(cfg: ExperimentConfig, out_path: str, fmt: str,
                   fail_on_divergence: bool = False,
                   seed_override=None) -> int:
    """Dispatch one experiment and write its table; returns the exit code.
    ``seed_override`` (``--seed``) replaces every seed the run reads."""
    if seed_override is not None:
        seed = _field_value("--seed", FIELDS["star.seed"], seed_override)
        cfg.values.update({"star.seed": seed, "verify.seed": seed})
        if "seed" in PARAMS.get(cfg.scenario, {}):
            cfg.scenario_params["seed"] = seed

    commands = {"track": _cmd_track, "bounds": _cmd_bounds, "orbit": _cmd_orbit,
                "bifurcation": _cmd_bifurcation, "star": _cmd_star,
                "verify": _cmd_verify}
    if cfg.command not in commands:
        raise ConfigurationError(f"field 'command': unknown command {cfg.command!r}")
    # one floating-point policy for the whole command: an overflow or an
    # invalid operation gives inf or NaN quietly, and the divergence
    # threshold, the residual checks and explicit finiteness tests decide
    with np.errstate(over="ignore", invalid="ignore"):
        table, flagged = commands[cfg.command](cfg)

    emit_rows(table, fmt, out_path)
    # a failed verification always exits 1, a divergence only on request
    failed = flagged and (fail_on_divergence or cfg.command == "verify")
    return EXIT_DIVERGED if failed else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tvvi",
        description="Run tracking, bound, bifurcation, orbit, star and "
                    "verification experiments from a config file.")
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", help="output file (overrides output.path)")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="csv (the default) or json")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; scans run as one "
                             "vectorized block in one process")
    parser.add_argument("--fail-on-divergence", action="store_true",
                        help="exit nonzero when the run diverges")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        out = args.out or cfg.get("output.path")
        if out is None:
            raise ConfigurationError("field 'output.path': required (or pass --out)")
        return run_experiment(cfg, out, args.format or "csv",
                              fail_on_divergence=args.fail_on_divergence,
                              seed_override=args.seed)
    except ConfigurationError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
