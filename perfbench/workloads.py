"""Seeded workload generators.

Each generator maps a seed to an ordered list of ``(experiment, config
text)`` pairs for the ``tvvi`` CLI. The seed reaches the program only as
values written into the config text (``scenario.seed``, ``star.seed``,
``verify.seed`` and the ``run.z1`` starts), never through ``--seed``:
the CLI only ``setdefault``s that flag, so an explicit ``scenario.seed``
would silently win over it.
"""

from __future__ import annotations

import random

# The seed used for the comparison against recorded reference outputs.
DEFAULT_SEED = 0

# Worker processes for the bifurcation scan in untraced passes: the
# two cores of the machine the baseline was recorded on. Fixed, so the
# workload does not change with the host.
SCAN_THREADS = 2


def _vec(values) -> str:
    return ",".join("%.17g" % v for v in values)


def _config(**fields) -> str:
    lines = []
    for key, value in fields.items():
        lines.append(f"{key.replace('__', '.')} = {value}")
    return "\n".join(lines) + "\n"


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def online(seed: int) -> list:
    rng = _rng(seed, "online")
    u = rng.uniform
    return [
        ("drift_forward", _config(
            command="bounds", scenario__name="quadratic_drift",
            scenario__dim=3, scenario__matrix="1,0,0;0,2,0;0,0,4",
            scenario__decay=0.75, algorithm__kind="forward",
            algorithm__eta=0.0625, run__horizon=10000,
            run__z1=_vec(u(-2, 2) for _ in range(3)),
            bound__kind="contractive")),
        ("kelly_meta_fixed", _config(
            command="track", scenario__name="kelly_auction", scenario__n=4,
            scenario__period=8, scenario__seed=rng.randrange(2 ** 31),
            algorithm__kind="meta_fixed", algorithm__k=16,
            run__horizon=2000, run__z1=_vec(u(0, 1) for _ in range(4)))),
        ("p1d_meta_adaptive", _config(
            command="bounds", scenario__name="periodic_1d",
            algorithm__kind="meta_adaptive", algorithm__k=64,
            run__horizon=2000, run__z1=_vec([u(0.5, 5) * rng.choice((-1, 1))]),
            bound__kind="constant_tracking")),
        ("rsi_meta_adaptive", _config(
            command="track", scenario__name="rsi_game",
            algorithm__kind="meta_adaptive", algorithm__k=4,
            run__horizon=2000, run__z1=_vec(u(-2, 2) for _ in range(2)))),
        ("adversary_forward", _config(
            command="bounds", scenario__name="lower_bound_adversary",
            algorithm__kind="forward", algorithm__eta=1,
            run__horizon=2000, run__z1=_vec([u(-1, 1)]),
            bound__kind="adversarial_lb")),
    ]


def stream(seed: int) -> list:
    rng = _rng(seed, "stream")
    u = rng.uniform

    def sseed() -> int:
        return rng.randrange(2 ** 31)

    exps = [
        ("stream_resolvent", _config(
            command="bounds", scenario__name="streaming_regression",
            scenario__seed=sseed(), algorithm__kind="resolvent",
            run__horizon=4000, run__z1=_vec(u(-2, 2) for _ in range(3)),
            bound__kind="contractive")),
        ("glm_identity_resolvent", _config(
            command="track", scenario__name="glm", scenario__link="identity",
            scenario__lam_reg=0.1, scenario__seed=sseed(),
            algorithm__kind="resolvent", run__horizon=1000,
            run__z1=_vec(u(-2, 2) for _ in range(2)))),
        ("glm_logistic_forward", _config(
            command="track", scenario__name="glm",
            scenario__link="scaled_logistic", scenario__lam_reg=0.1,
            scenario__seed=sseed(), algorithm__kind="forward",
            algorithm__eta=0.5, run__horizon=600,
            run__z1=_vec(u(-2, 2) for _ in range(2)))),
    ]
    verify_scenarios = [
        ("kelly", {"scenario__name": "kelly_auction", "scenario__n": 4,
                   "scenario__period": 8, "scenario__seed": sseed()}),
        ("rsi", {"scenario__name": "rsi_game"}),
        ("glm", {"scenario__name": "glm", "scenario__link": "scaled_logistic",
                 "scenario__lam_reg": 0.1, "scenario__seed": sseed()}),
        ("stream", {"scenario__name": "streaming_regression",
                    "scenario__seed": sseed()}),
        ("star", {"scenario__name": "star_2d"}),
        ("drift", {"scenario__name": "quadratic_drift", "scenario__dim": 3,
                   "scenario__matrix": "1,0,0;0,2,0;0,0,4",
                   "scenario__decay": 0.75}),
    ]
    for label, fields in verify_scenarios:
        exps.append((f"verify_{label}", _config(
            command="verify", **fields, verify__seed=sseed())))
    return exps


def dynamics(seed: int) -> list:
    rng = _rng(seed, "dynamics")
    return [
        ("bifurcation", _config(
            command="bifurcation", scenario__name="chaos_1d",
            dynamics__eta_n=98, dynamics__extra_etas="3.9,6.1",
            dynamics__steps=2000, dynamics__burn_in=1000)),
        ("star", _config(
            command="star", star__eta=1.35, star__samples=50,
            star__steps=500, star__seed=rng.randrange(2 ** 31))),
        ("orbit", _config(
            command="orbit", scenario__name="chaos_1d", dynamics__eta=3.9,
            dynamics__steps=2000)),
    ]


GENERATORS = {"online": online, "stream": stream, "dynamics": dynamics}
