"""Configuration-driven experiment runner.

Every command reads one flat config file, runs deterministically given
the seeds it names, and writes plot-ready CSV/JSON rows. Scan-type
commands can fan out over processes with --threads (or TVVI_THREADS).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import algorithms as alg
from . import dynamics, metrics
from .config import ConfigError, ExperimentConfig, parse_config
from .core import ConfigurationError, as_point
from .io import emit_rows
from .scenarios import Scenario, build_scenario, verify_scenario

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_CONFIG = 2


def _build_algorithm(cfg: ExperimentConfig, sc: Scenario):
    kind = cfg.values["algorithm.kind"]
    mu = cfg.get("algorithm.mu", sc.mu)
    if kind == "forward":
        return alg.ContractiveForward(eta=float(cfg.require("algorithm.eta")))
    if kind == "resolvent":
        return alg.Resolvent()
    if kind == "cyclic_fb":
        period = int(cfg.require("algorithm.period"))
        sched_kind = cfg.get("algorithm.schedule", "inverse_mu")
        if sched_kind == "constant":
            schedule = alg.StepSchedule.constant(float(cfg.require("algorithm.eta")))
        elif sched_kind == "inverse_mu":
            if mu is None:
                raise ConfigurationError("cyclic_fb needs algorithm.mu or scenario mu")
            schedule = alg.StepSchedule.inverse_mu_t(float(mu))
        else:
            raise ConfigurationError(f"unknown schedule {sched_kind!r}")
        return alg.CyclicFB(period=period, schedule=schedule)
    if kind == "meta_fixed":
        D = cfg.get("algorithm.d", sc.diameter)
        G = cfg.get("algorithm.g", sc.gbound)
        if mu is None or D is None or G is None:
            raise ConfigurationError("meta_fixed needs mu, D and G")
        return alg.MetaFixed(K=int(cfg.require("algorithm.k")),
                             mu=float(mu), D=float(D), G=float(G))
    if kind == "meta_adaptive":
        lip = cfg.get("algorithm.lip", sc.lip)
        if mu is None or lip is None:
            raise ConfigurationError("meta_adaptive needs mu and a Lipschitz constant")
        return alg.MetaAdaptive(K=int(cfg.require("algorithm.k")),
                                mu=float(mu), lip=float(lip))
    raise ConfigurationError(f"unknown algorithm {kind!r}")


def _run_trajectory(cfg: ExperimentConfig, sc: Scenario) -> alg.Trajectory:
    algo = _build_algorithm(cfg, sc)
    z1 = as_point(cfg.require("run.z1"))
    T = int(cfg.require("run.horizon"))
    threshold = float(cfg.get("run.divergence_threshold"))
    return alg.run_tracker(sc.seq, algo, sc.domain, z1, T,
                           divergence_threshold=threshold)


def _track_rows(traj: alg.Trajectory, mu: float) -> list:
    have_sol = traj.solutions is not None
    is_meta = traj.weights is not None
    if have_sol:
        cum_track = metrics.tracking_series(traj)
        cum_regret = metrics.regret_series(traj, traj.solutions, mu)
    rows = []
    n_complete = len(traj.op_values)
    for i, z in enumerate(traj.plays):
        t = i + 1
        row = {"t": t, "z": z}
        if have_sol:
            if i < n_complete:
                s = traj.solutions[i]
                d = z - s
                row.update(z_star=s, sq_dist=float(np.dot(d, d)),
                           cum_track=cum_track[i], cum_regret=cum_regret[i])
            else:
                row.update(z_star=math.nan, sq_dist=math.nan,
                           cum_track=math.nan, cum_regret=math.nan)
        if is_meta:
            row["weights"] = traj.weights[i] if i < len(traj.weights) else math.nan
        rows.append(row)
    return rows


def _cmd_track(cfg: ExperimentConfig) -> tuple:
    sc = build_scenario(cfg.scenario, cfg.scenario_params)
    traj = _run_trajectory(cfg, sc)
    rows = _track_rows(traj, sc.mu or 0.0)
    return rows, traj.diverged


def _derive_contraction(cfg: ExperimentConfig, sc: Scenario) -> float:
    c = cfg.get("bound.c")
    if c is not None:
        return float(c)
    kind = cfg.values["algorithm.kind"]
    if kind == "resolvent" and sc.mu is not None:
        return 1.0 / (1.0 + sc.mu)
    if kind == "forward" and sc.mu is not None and sc.lip is not None:
        eta = float(cfg.get("algorithm.eta"))
        if abs(eta - sc.mu / sc.lip ** 2) <= 1e-12:
            return math.sqrt(max(0.0, 1.0 - (sc.mu / sc.lip) ** 2))
    raise ConfigurationError("bound.c required: contraction factor not derivable")


def _build_bound_spec(cfg: ExperimentConfig, sc: Scenario,
                      traj: alg.Trajectory):
    kind = cfg.values["bound.kind"]
    T = len(traj.op_values)
    mu = cfg.get("bound.mu", sc.mu)
    if kind == "contractive":
        sols = traj.solutions
        if sols is None:
            raise ConfigurationError("contractive needs recorded solutions")
        return metrics.ContractiveBound(C=_derive_contraction(cfg, sc),
                            path=metrics.quadratic_path_length(sols),
                            init_dist=float(np.linalg.norm(traj.plays[0] - sols[0])))
    if kind == "cyclic_regret":
        G = cfg.get("bound.g") or max(float(np.linalg.norm(g))
                                      for g in traj.op_values)
        return metrics.CyclicRegretBound(k=int(cfg.get("bound.k", sc.period)), G=float(G),
                            mu=float(mu), T=T)
    if kind in ("aggregation_regret", "aggregation_tracking"):
        G = cfg.get("bound.g", sc.gbound)
        D = cfg.get("bound.d", sc.diameter)
        if G is None or D is None:
            raise ConfigurationError(f"{kind} needs bound.g and bound.d")
        cls = metrics.AggregationRegretBound if kind == "aggregation_regret" else metrics.AggregationTrackingBound
        return cls(G=float(G), mu=float(mu), D=float(D),
                   k=int(cfg.get("bound.k", sc.period)),
                   K=int(cfg.get("bound.big_k", cfg.get("algorithm.k", 1))), T=T)
    if kind == "constant_tracking":
        kappa = cfg.get("bound.kappa")
        if kappa is None:
            if sc.lip is None or sc.mu is None:
                raise ConfigurationError("constant_tracking needs bound.kappa")
            kappa = sc.lip / sc.mu
        D0 = cfg.get("bound.d0")
        if D0 is None:
            if traj.solutions is None:
                raise ConfigurationError("constant_tracking needs bound.d0")
            k = sc.period or 1
            D0 = max(float(np.linalg.norm(traj.plays[0] - s))
                     for s in traj.solutions[:k])
        return metrics.ConstantTrackingBound(D0=float(D0), kappa=float(kappa),
                            k=int(cfg.get("bound.k", sc.period or 1)),
                            K=int(cfg.get("bound.big_k", cfg.get("algorithm.k", 1))))
    if kind == "adversarial_lb":
        return metrics.AdversarialLowerBound(D=float(cfg.get("bound.d", sc.diameter)), T=T)
    raise ConfigurationError(f"unknown bound kind {kind!r}")


def _cmd_bounds(cfg: ExperimentConfig) -> tuple:
    sc = build_scenario(cfg.scenario, cfg.scenario_params)
    traj = _run_trajectory(cfg, sc)
    spec = _build_bound_spec(cfg, sc, traj)
    which = cfg.get("bound.which")
    check = metrics.bound_check(traj, spec, which, mu=cfg.get("bound.mu", sc.mu))
    rows = [{"kind": cfg.values["bound.kind"], "which": which,
             "measured": check.measured, "bound": check.bound,
             "holds": check.holds}]
    return rows, traj.diverged


def _cmd_bifurcation(cfg: ExperimentConfig, threads: int) -> tuple:
    sc = build_scenario(cfg.scenario or "chaos_1d", cfg.scenario_params)
    etas = dynamics.eta_grid(float(cfg.get("dynamics.eta_lo")),
                             float(cfg.get("dynamics.eta_hi")),
                             int(cfg.get("dynamics.eta_n")))
    extra = cfg.get("dynamics.extra_etas")
    if extra is not None:
        extra = extra if isinstance(extra, list) else [extra]
        etas = sorted(set(etas) | {float(e) for e in extra})
    result = dynamics.bifurcation_scan(
        sc, as_point(cfg.get("dynamics.x0")), etas=etas,
        n_steps=int(cfg.get("dynamics.steps")),
        burn_in=int(cfg.get("dynamics.burn_in")),
        cell_lo=float(cfg.get("dynamics.cell_lo")),
        cell_hi=float(cfg.get("dynamics.cell_hi")),
        n_cells=int(cfg.get("dynamics.cells")),
        threshold=float(cfg.get("dynamics.threshold")),
        tol=float(cfg.get("dynamics.tol")),
        max_period=int(cfg.get("dynamics.max_period")),
        threads=threads)
    rows = [{"eta": r.eta, "classification": str(r.classification),
             "cells": ";".join(str(c) for c in r.occupied_cells)}
            for r in result.rows]
    all_diverged = all(r.classification.kind == "diverged" for r in result.rows)
    return rows, all_diverged


def _cmd_orbit(cfg: ExperimentConfig) -> tuple:
    sc = build_scenario(cfg.scenario or "chaos_1d", cfg.scenario_params)
    gd_map = dynamics.compose_map(sc, float(cfg.require("dynamics.eta")))
    orbit = dynamics.iterate_orbit(gd_map, as_point(cfg.get("dynamics.x0")),
                                   int(cfg.get("dynamics.steps")),
                                   float(cfg.get("dynamics.threshold")))
    rows = [{"t": i, "x": p, "norm": float(np.linalg.norm(p))}
            for i, p in enumerate(orbit.points)]
    return rows, not orbit.bounded


def _cmd_star(cfg: ExperimentConfig, seed_override) -> tuple:
    seed = seed_override if seed_override is not None else int(cfg.get("star.seed"))
    res = dynamics.star_scan(
        eta=float(cfg.require("star.eta")),
        n_samples=int(cfg.get("star.samples")),
        sample_half_width=float(cfg.get("star.box")),
        n_steps=int(cfg.get("star.steps")),
        tail_fraction=float(cfg.get("star.tail_fraction")),
        seed=seed, threshold=float(cfg.get("star.threshold")))
    if cfg.get("star.output") == "tail":
        rows = [{"i": i, "x0": float(p[0]), "x1": float(p[1])}
                for i, p in enumerate(res.tail_points)]
    else:
        rows = [{"t": t, "avg_norm": float(v), "radial_score": res.radial_score,
                 "n_diverged": res.n_diverged}
                for t, v in enumerate(res.avg_norm_series)]
    return rows, res.all_diverged


def _cmd_verify(cfg: ExperimentConfig, seed_override) -> tuple:
    sc = build_scenario(cfg.scenario, cfg.scenario_params)
    seed = seed_override if seed_override is not None else int(cfg.get("verify.seed"))
    rows = verify_scenario(sc, n_samples=int(cfg.get("verify.samples")),
                           seed=seed, n_fd=int(cfg.get("verify.fd_points")))
    return rows, any(not r["passed"] for r in rows)


_SEEDED_SCENARIOS = ("kelly_auction", "streaming_regression", "glm")


def run_experiment(cfg: ExperimentConfig, out_path: str, fmt: str,
                   threads: int = 1, fail_on_divergence: bool = False,
                   seed_override=None) -> int:
    """Dispatch one experiment and write its rows; returns the exit code."""
    if seed_override is not None and cfg.scenario in _SEEDED_SCENARIOS:
        cfg.scenario_params.setdefault("seed", int(seed_override))

    if cfg.command == "track":
        rows, flagged = _cmd_track(cfg)
    elif cfg.command == "bounds":
        rows, flagged = _cmd_bounds(cfg)
    elif cfg.command == "bifurcation":
        rows, flagged = _cmd_bifurcation(cfg, threads)
    elif cfg.command == "orbit":
        rows, flagged = _cmd_orbit(cfg)
    elif cfg.command == "star":
        rows, flagged = _cmd_star(cfg, seed_override)
    elif cfg.command == "verify":
        rows, flagged = _cmd_verify(cfg, seed_override)
    else:
        raise ConfigError([f"field 'command': unknown command {cfg.command!r}"])

    emit_rows(rows, fmt, out_path)
    if cfg.command == "verify":
        return EXIT_DIVERGED if flagged else EXIT_OK
    if flagged and (fail_on_divergence or cfg.get("run.fail_on_divergence")):
        return EXIT_DIVERGED
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tvvi",
        description="Run tracking, bound, bifurcation, orbit, star and "
                    "verification experiments from a config file.")
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", help="output file (overrides output.path)")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (overrides output.format)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--threads", type=int,
                        default=int(os.environ.get("TVVI_THREADS", "1")),
                        help="worker processes for scan commands")
    parser.add_argument("--fail-on-divergence", action="store_true",
                        help="exit nonzero when the run diverges")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        out = args.out or cfg.get("output.path")
        if out is None:
            raise ConfigError(["field 'output.path': required (or pass --out)"])
        fmt = args.format or cfg.get("output.format")
        return run_experiment(cfg, out, fmt, threads=max(1, args.threads),
                              fail_on_divergence=args.fail_on_divergence,
                              seed_override=args.seed)
    except (ConfigError, ConfigurationError) as exc:
        errors = getattr(exc, "errors", None) or [str(exc)]
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
