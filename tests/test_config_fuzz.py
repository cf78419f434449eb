"""Fuzz the config surface. Every command, scenario and key of
``config.FIELDS`` and ``scenarios.PARAMS`` gets adversarial values:
zero, negatives, NaN, infinities, empty lists and vectors of the wrong
length. Whatever the config, the CLI must exit 0, 1 or 2, and an exit 2
must name a field; exit 3 means a defect in tvvi. Every size stays tiny
(horizon <= 20, eta_n <= 5, steps <= 20, samples <= 5), so the whole
run takes a few seconds."""

import contextlib
import io
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from tvvi.cli import main
from tvvi.config import ALGORITHMS, BOUND_KINDS, FIELDS
from tvvi.scenarios import BUILDERS, PARAMS, build_scenario

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

ADVERSARIAL = ["0", "-1", "-2.5", "nan", "inf", "-inf", "", "0.5,0.5",
               "1,2,3,4,5", "1", "2", "0.25", "true", "x"]

DIMS = {name: build_scenario(name).seq.dim for name in BUILDERS}

_NAMES_A_FIELD = re.compile(r"field '(command|--seed|[a-z_]+\.[a-z_0-9]+)'")


def _base(command: str, scenario: str, kind: str, bound: str) -> dict:
    """A small config of ``command`` on ``scenario`` with every field the
    command needs; adversarial overrides go on top."""
    if command in ("track", "bounds"):
        fields = {"scenario.name": scenario, "algorithm.kind": kind,
                  "algorithm.eta": "0.1", "algorithm.period": "2", "algorithm.k": "2",
                  "run.horizon": "10", "run.z1": ",".join(["0.5"] * DIMS[scenario])}
        if command == "bounds":
            fields["bound.kind"] = bound
        return fields
    if command == "bifurcation":
        return {"scenario.name": scenario, "dynamics.eta_n": "5",
                "dynamics.steps": "20", "dynamics.burn_in": "10"}
    if command == "orbit":
        return {"scenario.name": scenario, "dynamics.eta": "0.4", "dynamics.steps": "20"}
    if command == "star":
        return {"star.eta": "0.4", "star.samples": "3", "star.steps": "10"}
    return {"scenario.name": scenario, "verify.samples": "5", "verify.fd_points": "3"}


@st.composite
def configs(draw) -> str:
    command = draw(st.sampled_from(["track", "bounds", "bifurcation", "orbit",
                                    "star", "verify"]))
    scenario = draw(st.sampled_from(sorted(BUILDERS)))
    fields = _base(command, scenario, draw(st.sampled_from(ALGORITHMS)),
                   draw(st.sampled_from(BOUND_KINDS)))
    keys = sorted([key for key, spec in FIELDS.items() if command in spec.commands]
                  + [f"scenario.{key}" for key in PARAMS[scenario]]
                  + ["scenario.name"])
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        values = ADVERSARIAL + (sorted(BUILDERS) if key == "scenario.name" else [])
        fields[key] = draw(st.sampled_from(values))
    return f"command = {command}\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())


@FUZZ
@given(configs())
def test_any_config_exits_0_1_or_2_and_an_exit_2_names_a_field(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", cfg, "--out", os.path.join(tmp, "out.csv")])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert _NAMES_A_FIELD.search(err.getvalue()), err.getvalue()
