"""End-to-end tests for config parsing, row emission, and the CLI."""

import ast
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tvvi import cli, scenarios
from tvvi.algorithms import CyclicFB, StepSchedule, run_tracker
from tvvi.cli import main
from tvvi.config import (ALGORITHMS, FIELDS, MATRICES, MATRIX, Spec, _field_value,
                         parse_config)
from tvvi.core import ConfigurationError
from tvvi.dynamics import eta_grid, radial_containment_score
from tvvi.io import DIVERGED_TOKEN, emit_rows, read_rows
from tvvi.scenarios import PARAMS

MINIMAL_TRACK = """
command = track
scenario.name = periodic_1d
algorithm.kind = forward
algorithm.eta = 1.0
run.horizon = 10
run.z1 = 3.0
"""

SMALL_SCAN = """
command = bifurcation
scenario.name = chaos_1d
dynamics.eta_n = 5
dynamics.steps = 20
dynamics.burn_in = 10
"""
SMALL_STAR = "command = star\nstar.eta = 0.4\nstar.samples = 3\nstar.steps = 10\n"
SMALL_VERIFY = """
command = verify
scenario.name = chaos_1d
verify.samples = 5
verify.fd_points = 3
"""

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_CONFIGS = re.findall(r"```ini\n(.*?)```", README, re.S)
README_PYTHON = re.findall(r"```python\n(.*?)```", README, re.S)


class TestParseConfig:
    def test_minimal_track_valid(self):
        cfg = parse_config(MINIMAL_TRACK)
        assert cfg.command == "track"
        assert cfg.scenario == "periodic_1d"
        assert cfg.get("algorithm.eta") == 1.0
        assert cfg.get("run.horizon") == 10

    def test_bifurcation_defaults_match_protocol(self):
        cfg = parse_config("command = bifurcation\nscenario.name = chaos_1d\n")
        assert cfg.get("dynamics.eta_lo") == 0.0
        assert cfg.get("dynamics.eta_hi") == 8.0
        assert cfg.get("dynamics.eta_n") == 3000
        assert cfg.get("dynamics.steps") == 2000
        assert cfg.get("dynamics.burn_in") == 1000
        assert cfg.get("dynamics.cells") == 1000
        assert cfg.get("dynamics.cell_lo") == -10.0
        assert cfg.get("dynamics.cell_hi") == 10.0
        assert cfg.get("dynamics.threshold") == 1000.0
        assert cfg.get("dynamics.x0") == -0.1

    def test_negative_eta_names_field(self):
        with pytest.raises(ConfigurationError, match="algorithm.eta"):
            parse_config(MINIMAL_TRACK.replace("eta = 1.0", "eta = -1"))

    @pytest.mark.parametrize("kind, key", [("cyclic_fb", "algorithm.period"),
                                           ("meta_adaptive", "algorithm.k")])
    def test_zero_period_or_k_names_field(self, kind, key):
        text = MINIMAL_TRACK.replace("kind = forward", f"kind = {kind}")
        with pytest.raises(ConfigurationError, match=key):
            parse_config(text + f"{key} = 0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="run.bogus"):
            parse_config(MINIMAL_TRACK + "run.bogus = 3\n")

    def test_unknown_command(self):
        with pytest.raises(ConfigurationError, match="command"):
            parse_config("command = dance\n")

    def test_missing_required_fields_collected(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config("command = track\nscenario.name = periodic_1d\n")
        msg = str(err.value)
        assert "algorithm.kind" in msg
        assert "run.horizon" in msg

    def test_vector_and_matrix_values(self):
        cfg = parse_config("command = orbit\nscenario.name = chaos_1d\n"
                           "dynamics.eta = 0.4\ndynamics.x0 = 0.1,0.2\n")
        assert cfg.get("dynamics.x0") == [0.1, 0.2]

    def test_float_field_accepts_int_literal(self):
        cfg = parse_config(MINIMAL_TRACK.replace("eta = 1.0", "eta = 1"))
        assert cfg.get("algorithm.eta") == 1.0
        assert isinstance(cfg.get("algorithm.eta"), float)

    def test_run_seed_is_unknown_key(self):
        with pytest.raises(ConfigurationError, match="'run.seed': unknown key"):
            parse_config(MINIMAL_TRACK + "run.seed = 3\n")

    def test_constant_schedule_requires_eta(self):
        text = MINIMAL_TRACK.replace("kind = forward", "kind = cyclic_fb")
        text = text.replace("algorithm.eta = 1.0\n", "")
        with pytest.raises(ConfigurationError, match="algorithm.eta"):
            parse_config(text + "algorithm.period = 2\nalgorithm.schedule = constant\n")

    def test_scenario_values_kept_as_text(self):
        # scenario.* values are typed by build_scenario against PARAMS
        cfg = parse_config(SMALL_VERIFY + "scenario.dim = 2.5\n")
        assert cfg.scenario_params == {"dim": "2.5"}

    def test_matrix_kinds(self):
        matrix, matrices = Spec(MATRIX, None), Spec(MATRICES, None)
        assert _field_value("m", matrix, "1,0;0,2") == [[1.0, 0.0], [0.0, 2.0]]
        assert _field_value("m", matrix, "4") == [[4.0]]
        assert _field_value("m", matrices, "0.25|4") == [[[0.25]], [[4.0]]]
        assert _field_value("m", matrices, "1,0;0,2") == [[[1.0, 0.0], [0.0, 2.0]]]
        for spec, text in ((matrix, "1,2;3"), (matrix, "1,nan"), (matrix, ""),
                           (matrices, "1|"), (matrices, "1,2;3|4")):
            with pytest.raises(ConfigurationError, match="'m': must be"):
                _field_value("m", spec, text)

    def test_cli_reads_exactly_the_table_keys(self):
        # every key the CLI reads is defined in the table, and every key
        # the table defines is read somewhere: no dead or undefined key
        sections = {key.split(".")[0] for key in FIELDS}
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        read = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(r"[a-z]+\.[a-z0-9_]+", node.value)
                and node.value.split(".")[0] in sections}
        assert read == set(FIELDS)

    def test_every_table_key_has_a_setter(self):
        # a key counts as set when a test config, a README example or a
        # benchmark workload gives it a value; the fuzzer's adversarial
        # draws, which reach every key, do not count
        texts = [node.value for path in Path(__file__).parent.glob("test_*.py")
                 if path.name != "test_config_fuzz.py"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        texts += README_CONFIGS
        workloads = ROOT / "perfbench" / "workloads.py"   # keys spelt section__key
        texts.append(workloads.read_text(encoding="utf-8").replace("__", "."))
        unset = [key for key in FIELDS
                 if not any(re.search(rf"(?<![\w.]){re.escape(key)} *=", t) for t in texts)]
        assert unset == []


class TestEmitRows:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_rows({"i": np.arange(0), "x": np.empty((0, 2))}, "csv", str(path))
        assert path.read_text().splitlines() == ["# schema=v1", "i,x"]
        assert read_rows(str(path)) == []

    def test_single_bifurcation_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_rows({"eta": [0.5], "classification": ["converged"], "cells": ["12;13"]},
                  "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[1] == "eta,classification,cells"
        assert lines[2].startswith("0.5,converged,")

    def test_round_trip(self, tmp_path):
        rows = [
            {"t": 1, "x": 0.123456789012345678, "label": "abc", "flag": True},
            {"t": 2, "x": -1e-17, "label": "d", "flag": False},
        ]
        lists = {k: [r[k] for r in rows] for k in rows[0]}
        arrays = dict(lists, t=np.array(lists["t"]), x=np.array(lists["x"]))
        for fmt in ("csv", "json"):
            for table in (lists, arrays):
                path = tmp_path / f"rt.{fmt}"
                emit_rows(table, fmt, str(path))
                back = read_rows(str(path))
                assert back == rows

    def test_vector_round_trip(self, tmp_path):
        path = tmp_path / "vec.csv"
        emit_rows({"z": np.array([[1.5, -2.25]])}, "csv", str(path))
        assert read_rows(str(path))[0]["z"] == [1.5, -2.25]

    def test_nonfinite_token(self, tmp_path):
        path = tmp_path / "div.csv"
        emit_rows({"x": np.array([math.inf, 1.0])}, "csv", str(path))
        back = read_rows(str(path))
        assert back[0]["x"] == "diverged"
        assert back[1]["x"] == 1.0

    def test_heterogeneous_rows_rejected(self, tmp_path):
        # a column longer than the table (its first column)
        with pytest.raises(ValueError, match="'b'"):
            emit_rows({"a": np.arange(2), "b": np.arange(3.0)}, "csv",
                      str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_short_column_padded_with_one_token_per_cell(self, tmp_path):
        path = tmp_path / "short.csv"
        emit_rows({"t": np.arange(1, 4), "z": np.ones((3, 2)),
                   "w": np.zeros((2, 3))}, "csv", str(path))
        assert path.read_text().splitlines()[2:] == [
            "1,1;1,0;0;0", "2,1;1,0;0;0", "3,1;1,diverged"]

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_rows({"x": [1.0]}, "csv", str(path))
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails midway
        with pytest.raises(UnicodeEncodeError):
            emit_rows({"x": [2.0, "\ud800"]}, "csv", str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestDivergedRows:
    """The exact spelling of runs that diverge: the diverging round's
    columns over completed rounds (``z_star`` through ``weights``) get
    one ``diverged`` token each, whatever their width."""

    def last_line(self, tmp_path, text, code=0):
        out = tmp_path / "out.csv"
        assert main(["--config", write_cfg(tmp_path, text), "--out", str(out)]) == code
        return out.read_text().splitlines()[-1]

    def test_track_meta_adaptive_1d(self, tmp_path):
        assert self.last_line(tmp_path, """
command = track
scenario.name = periodic_1d
algorithm.kind = meta_adaptive
algorithm.k = 3
algorithm.lip = 0.01
run.horizon = 50
run.z1 = 1
""") == "10,-63201699,diverged,diverged,diverged,diverged,diverged"

    def test_track_meta_adaptive_2d(self, tmp_path):
        assert self.last_line(tmp_path, """
command = track
scenario.name = quadratic_drift
scenario.dim = 2
algorithm.kind = meta_adaptive
algorithm.k = 2
algorithm.lip = 0.01
run.horizon = 50
run.z1 = 1,1
""") == "7,-968359;-968359,diverged,diverged,diverged,diverged,diverged"

    def test_orbit_2d(self, tmp_path):
        # the orbit stops at the first point past the threshold
        assert self.last_line(tmp_path, """
command = orbit
scenario.name = star_2d
dynamics.eta = 1.5
dynamics.steps = 100
dynamics.x0 = 1,0.5
""") == "26,1296.4865146103489;179.78956321811131,1308.8932613504624"

    def test_star_all_diverged_keeps_header(self, tmp_path):
        text = "command = star\nstar.eta = 50\nstar.samples = 5\nstar.steps = 50\n"
        assert self.last_line(tmp_path, text + "star.output = tail\n") == "i,x0,x1"
        assert self.last_line(tmp_path, text) == "50,diverged,0,5"


def source_env() -> dict:
    """The environment of a fresh interpreter that imports tvvi from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run_strict(tmp_path, text, *flags):
    """Run the CLI on ``text`` in a fresh ``python -X dev -W error``, where
    any numpy warning is an error; returns (exit status, output rows)."""
    cfg, out = write_cfg(tmp_path, text), str(tmp_path / "out.csv")
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "tvvi.cli",
                           "--config", cfg, "--out", out, *flags], capture_output=True,
                          text=True, timeout=120, env=source_env())
    assert "Traceback" not in done.stderr, done.stderr
    return done.returncode, read_rows(out)


class TestFinitePointsPastTheSquareRoot:
    """A finite point whose squared norm overflows (its norm is above
    about 1.3e154) but whose norm is below the threshold has not
    diverged, and no overflow warning escapes."""

    def test_orbit(self, tmp_path):
        code, rows = run_strict(tmp_path, """
command = orbit
scenario.name = chaos_1d
dynamics.eta = 3.5
dynamics.steps = 2000
dynamics.threshold = 1e300
""")
        assert code == 0
        assert rows[732]["x"] == -2.1356854643818281e+154
        assert rows[732]["norm"] == 2.1356854643818281e+154
        # the orbit stops at its first point past the threshold
        assert all(abs(r["x"]) == r["norm"] <= 1e300 for r in rows[:-1])
        assert 1e300 < rows[-1]["norm"] < math.inf

    def test_track(self, tmp_path):
        code, rows = run_strict(tmp_path, """
command = track
scenario.name = periodic_1d
algorithm.kind = forward
algorithm.eta = 0.1
run.horizon = 20
run.z1 = 1e200
run.divergence_threshold = 1e300
""", "--fail-on-divergence")
        assert code == 0
        assert [r["t"] for r in rows] == list(range(1, 21))
        assert rows[0]["z"] == 1e200 and rows[1]["z"] == 1e200 - 0.1 * (8.0 * 1e200)
        # the squared distance itself is past the largest float
        assert rows[0]["sq_dist"] == DIVERGED_TOKEN

    @pytest.mark.parametrize("bound", ["bound.kind = contractive\nbound.c = 0.9\n",
                                       "bound.kind = constant_tracking\n"],
                             ids=["contractive", "constant_tracking"])
    def test_bounds(self, tmp_path, bound):
        code, rows = run_strict(tmp_path, """
command = bounds
scenario.name = periodic_1d
algorithm.kind = forward
algorithm.eta = 0.1
run.horizon = 20
run.z1 = 1e200
run.divergence_threshold = 1e300
""" + bound)
        assert code == 0
        # measured and bound are past the largest float: nothing holds
        assert [(r["measured"], r["bound"], r["holds"]) for r in rows] == \
            [(DIVERGED_TOKEN, DIVERGED_TOKEN, False)]


class TestPointsNearTheOrigin:
    """A nonzero point whose squared norm underflows (its norm is below
    about 1.5e-154) has a nonzero norm, and the star score sees it at its
    own scale. At eta = 0.3 the star_2d orbits shrink far below that."""

    def test_orbit(self, tmp_path):
        code, rows = run_strict(tmp_path, """
command = orbit
scenario.name = star_2d
dynamics.eta = 0.3
dynamics.steps = 500
dynamics.x0 = 1,1
""")
        assert code == 0 and len(rows) == 501
        assert rows[-1]["norm"] < 1e-200
        assert all(r["norm"] > 0 for r in rows if any(r["x"]))

    def test_star(self, tmp_path):
        text = "command = star\nstar.eta = 0.3\nstar.samples = 5\nstar.steps = 500\n"
        code, series = run_strict(tmp_path, text)
        assert code == 0
        assert series[-1]["avg_norm"] < 1e-200
        assert 0 not in [r["avg_norm"] for r in series]
        code, tail = run_strict(tmp_path, text + "star.output = tail\n")
        assert code == 0
        pts = np.array([[r["x0"], r["x1"]] for r in tail])
        assert series[0]["radial_score"] == radial_containment_score(np.ldexp(pts, 600))


class TestCliCommands:
    def test_track_alternating_quadratic_rows_and_exit(self, tmp_path):
        cfg = write_cfg(tmp_path, """
command = track
scenario.name = periodic_1d
algorithm.kind = forward
algorithm.eta = 0.5
run.horizon = 20
run.z1 = 1.0
""")
        out = tmp_path / "track.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(str(out))
        xs = [r["z"] for r in rows]
        for t in range(1, 9):
            assert abs(xs[2 * t] / xs[2 * t - 2]) == pytest.approx(1.5, abs=1e-9)
        # divergence at a low threshold flips the exit code under the flag
        cfg2 = write_cfg(tmp_path, """
command = track
scenario.name = periodic_1d
algorithm.kind = forward
algorithm.eta = 0.5
run.horizon = 40
run.z1 = 1.0
run.divergence_threshold = 30
""", name="exp2.cfg")
        assert main(["--config", cfg2, "--out", str(out)]) == 0
        assert main(["--config", cfg2, "--out", str(out),
                     "--fail-on-divergence"]) == 1

    def test_bounds_cyclic_regret_holds(self, tmp_path):
        cfg = write_cfg(tmp_path, """
command = bounds
scenario.name = periodic_1d
algorithm.kind = cyclic_fb
algorithm.period = 2
run.horizon = 2000
run.z1 = 1.0
bound.kind = cyclic_regret
bound.which = regret
""")
        out = tmp_path / "bounds.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        row = read_rows(str(out))[0]
        assert row["holds"] is True
        assert row["measured"] <= row["bound"]

    def test_algorithm_mu_replaces_the_scenario_mu(self, tmp_path):
        # periodic_1d declares mu = 1, which the inverse-mu schedule reads
        text = MINIMAL_TRACK.replace("kind = forward", "kind = cyclic_fb") \
            + "algorithm.period = 2\n"
        outs = []
        for given in ("", "algorithm.mu = 1\n", "algorithm.mu = 2\n"):
            cfg = write_cfg(tmp_path, text + given)
            out = tmp_path / f"{len(outs)}.csv"
            assert main(["--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] != outs[2]

    def test_bound_k_stands_in_for_a_period(self, tmp_path):
        # quadratic_drift is aperiodic: without bound.k this exits 2
        cfg = write_cfg(tmp_path, """
command = bounds
scenario.name = quadratic_drift
algorithm.kind = forward
algorithm.eta = 0.25
run.horizon = 20
run.z1 = 1.0
bound.kind = cyclic_regret
bound.k = 1
""")
        out = tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert math.isfinite(read_rows(str(out))[0]["bound"])

    def test_scan_step_sizes_end_at_eta_hi(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SCAN.replace("eta_n = 5", "eta_n = 4")
                        + "dynamics.eta_lo = 3.5\ndynamics.eta_hi = 3.9\n")
        out = tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert [r["eta"] for r in read_rows(str(out))] == eta_grid(3.5, 3.9, 4)

    def test_bounds_adversarial_lower(self, tmp_path):
        cfg = write_cfg(tmp_path, """
command = bounds
scenario.name = lower_bound_adversary
algorithm.kind = forward
algorithm.eta = 1.0
run.horizon = 200
run.z1 = 0.0
bound.kind = adversarial_lb
""")
        out = tmp_path / "lb.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        row = read_rows(str(out))[0]
        assert row["holds"] is True
        assert row["measured"] >= row["bound"]

    def test_verify_command(self, tmp_path):
        cfg = write_cfg(tmp_path, """
command = verify
scenario.name = chaos_1d
verify.samples = 400
verify.fd_points = 15
""")
        out = tmp_path / "verify.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(str(out))
        assert {r["check"] for r in rows} >= {"gradient_fd", "strong_monotone",
                                              "lipschitz"}
        assert all(r["passed"] for r in rows)

    def test_orbit_command(self, tmp_path):
        cfg = write_cfg(tmp_path, """
command = orbit
scenario.name = chaos_1d
dynamics.eta = 0.4
dynamics.x0 = -0.1
dynamics.steps = 300
""")
        out = tmp_path / "orbit.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(str(out))
        assert len(rows) == 301
        assert rows[-1]["norm"] < 1e-6

    def test_star_command(self, tmp_path):
        cfg = write_cfg(tmp_path, """
command = star
star.eta = 0.4
star.samples = 15
star.steps = 100
""")
        out = tmp_path / "star.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(str(out))
        assert rows[-1]["avg_norm"] < 1e-3
        assert rows[0]["n_diverged"] == 0

    @pytest.mark.parametrize("output", ["series", "tail"])
    def test_star_runs_its_scenario(self, tmp_path, output):
        # exp_quadratic with star_2d's two matrices is the default star_2d
        text = SMALL_STAR.replace("0.4", "1.35") + f"star.output = {output}\n"
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert main(["--config", write_cfg(tmp_path, text), "--out", str(default)]) == 0
        cfg = write_cfg(tmp_path, text + "scenario.name = exp_quadratic\n"
                        "scenario.matrices = 0.75,0;0,5|5,1;1,0.75\n", name="eq.cfg")
        assert main(["--config", cfg, "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()
        assert len(default.read_text().splitlines()) > 2

    def test_star_command_imports_no_scipy(self, tmp_path):
        # the star score is numpy only; a fresh interpreter shows what a
        # whole star run imports
        cfg = write_cfg(tmp_path, "command = star\nstar.eta = 1.35\n"
                                  "star.samples = 5\nstar.steps = 60\n")
        out = str(tmp_path / "star.csv")
        code = ("import sys\nfrom tvvi.cli import main\n"
                f"assert main(['--config', {cfg!r}, '--out', {out!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=source_env())
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert 0.0 < read_rows(out)[0]["radial_score"] <= 1.0

    def test_bifurcation_command_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, """
command = bifurcation
scenario.name = chaos_1d
dynamics.eta_n = 12
dynamics.steps = 400
dynamics.burn_in = 200
""")
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert main(["--config", cfg, "--out", str(out1)]) == 0
        assert main(["--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL_TRACK.replace("eta = 1.0", "eta = -1"))
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "algorithm.eta" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (MINIMAL_TRACK + "run.horizon\n", "line 8: expected 'key = value'"),
        (MINIMAL_TRACK + "run.horizon = 12\n", "field 'run.horizon': duplicated"),
        (MINIMAL_TRACK + "Scenario.Seed = 1\nscenario.seed = 2\n",
         "field 'scenario.seed': duplicated"),
        (MINIMAL_TRACK.replace("command = track\n", ""), "field 'command': required")],
        ids=["no_equals", "duplicated", "duplicated_in_other_case", "no_command"])
    def test_config_syntax_error_exit_code(self, tmp_path, capsys, text, message):
        cfg = write_cfg(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err

    def test_cyclic_fb_constant_schedule(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_TRACK.replace("forward", "cyclic_fb").replace(
            "eta = 1.0", "eta = 0.1") + "algorithm.period = 2\nalgorithm.schedule = constant\n")
        out = tmp_path / "track.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        sc = scenarios.build_scenario("periodic_1d")
        traj = run_tracker(sc.seq, CyclicFB(2, StepSchedule.constant(0.1)), sc.domain,
                           [3.0], 10)
        assert [r["z"] for r in read_rows(str(out))] == traj.plays[:, 0].tolist()

    def test_string_field_path_with_comma(self, tmp_path):
        out = tmp_path / "a,b.csv"
        cfg = write_cfg(tmp_path, MINIMAL_TRACK + f"output.path = {out}\n")
        assert main(["--config", cfg]) == 0
        assert read_rows(str(out))[0]["t"] == 1

    @pytest.mark.parametrize("text, field", [
        (MINIMAL_TRACK.replace("eta = 1.0", "eta = nan"), "algorithm.eta"),
        (MINIMAL_TRACK.replace("eta = 1.0", "eta = inf"), "algorithm.eta"),
        (MINIMAL_TRACK.replace("eta = 1.0", "eta = true"), "algorithm.eta"),
        (SMALL_SCAN + "dynamics.threshold = nan\n", "dynamics.threshold"),
        (MINIMAL_TRACK.replace("horizon = 10", "horizon = 2.5"), "run.horizon"),
        (MINIMAL_TRACK.replace("horizon = 10", "horizon = true"), "run.horizon")],
        ids=["eta_nan", "eta_inf", "eta_true", "threshold_nan", "horizon_2.5",
             "horizon_true"])
    def test_mistyped_number_exit_code(self, tmp_path, capsys, text, field):
        cfg = write_cfg(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        (SMALL_SCAN + "dynamics.cells = 0\n", "dynamics.cells"),
        (SMALL_STAR + "star.seed = -1\n", "star.seed"),
        (SMALL_VERIFY + "verify.seed = -3\n", "verify.seed"),
        (SMALL_STAR + "star.box = -5\n", "star.box"),
        (SMALL_SCAN + "dynamics.x0 = abc\n", "dynamics.x0"),
        (SMALL_SCAN + "dynamics.extra_etas = -1\n", "dynamics.extra_etas"),
        (SMALL_SCAN + "dynamics.eta_lo = -4\n", "dynamics.eta_lo"),
        (SMALL_SCAN + "dynamics.eta_lo = 9\n", "dynamics.eta_lo"),
        (SMALL_SCAN + "dynamics.cell_lo = 2\ndynamics.cell_hi = 1\n",
         "dynamics.cell_lo"),
        (SMALL_SCAN + "dynamics.cell_lo = 0\ndynamics.cell_hi = 5e-324\ndynamics.x0 = 0\n",
         "dynamics.cell_hi"),
        (SMALL_SCAN + "dynamics.cell_lo = -1e308\ndynamics.cell_hi = 1e308\n",
         "dynamics.cell_hi"),
        (MINIMAL_TRACK.replace("track", "bounds")
         + "bound.kind = contractive\nbound.c = 1.5\n", "bound.c"),
        (MINIMAL_TRACK.replace("track", "bounds")
         + "bound.kind = constant_tracking\nbound.kappa = 0.5\n", "bound.kappa"),
        (MINIMAL_TRACK + "output.path =\n", "output.path")],
        ids=["cells_0", "star_seed_-1", "verify_seed_-3", "star_box_-5", "x0_abc",
             "extra_etas_-1", "eta_lo_-4", "eta_lo_above_eta_hi",
             "cell_lo_above_cell_hi", "cell_width_0", "cell_width_inf", "bound_c_1.5",
             "bound_kappa_0.5", "empty_path"])
    def test_out_of_bounds_exit_code(self, tmp_path, capsys, text, field):
        cfg = write_cfg(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert field in capsys.readouterr().err

    def test_resolvent_on_bounded_domain_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
command = track
scenario.name = lower_bound_adversary
algorithm.kind = resolvent
run.horizon = 5
run.z1 = 0.0
""")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "resolvent" in capsys.readouterr().err

    def test_unsolvable_resolvent_exit_code(self, tmp_path, capsys):
        # A = 1e150 I: from round 2, A z' + b cancels at the scale 1e149,
        # whose rounding leaves a residual of about 0.1
        cfg = write_cfg(tmp_path, """
command = track
scenario.name = quadratic_drift
scenario.dim = 2
scenario.matrix = 1e150,0;0,1e150
algorithm.kind = resolvent
run.horizon = 5
run.z1 = 1,1
""")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "field 'algorithm.kind'" in err and "residual" in err
        assert "Traceback" not in err

    _KELLY_META = ("command = track\nscenario.name = kelly_auction\nalgorithm.kind = "
                   "meta_fixed\nalgorithm.k = 2\nrun.horizon = 10\nrun.z1 = 0.5,0.5,0.5\n")
    _FORWARD_C = ("command = bounds\nscenario.name = quadratic_drift\nalgorithm.kind = "
                  "forward\nalgorithm.eta = 0.1\nrun.horizon = 10\nrun.z1 = 0.5\n"
                  "bound.kind = contractive\n")
    _RESOLVENT_C = ("command = bounds\nalgorithm.kind = resolvent\nrun.horizon = 10\n"
                    "bound.kind = contractive\n")
    _EXTREMES = {
        "rate_mu_1e-300": _KELLY_META + "algorithm.mu = 1e-300\n",
        "rate_d_1e308": _KELLY_META + "algorithm.d = 1e308\n",
        "rate_g_1e300": _KELLY_META + "algorithm.g = 1e300\n",
        "rate_entry_1e-300": _KELLY_META + "scenario.entry = 1e-300\n",
        "rate_value_amp_1e300": _KELLY_META + "scenario.value_amp = 1e300\n",
        "rate_lam_reg_1e-300": _KELLY_META + "scenario.lam_reg = 1e-300\n",
        "contraction_lip_1e308": _FORWARD_C + "scenario.matrix = 1e308\n",
        "contraction_lip_5e-324": _FORWARD_C + "scenario.matrix = 5e-324\n",
        "drift_decay_-2000": "command = track\nscenario.name = quadratic_drift\n"
                             "algorithm.kind = forward\nalgorithm.eta = 0.1\n"
                             "run.horizon = 10\nrun.z1 = 0.5\nscenario.decay = -2000\n",
        "kelly_entry_5e-324": _KELLY_META + "scenario.entry = 5e-324\n",
        "exp_mu_rounds_to_0": "command = track\nscenario.name = exp_quadratic\n"
                              "algorithm.kind = cyclic_fb\nalgorithm.period = 2\n"
                              "run.horizon = 10\nrun.z1 = 0.5\n"
                              "scenario.matrices = 5e-324\n",
        "resolvent_c_stream": _RESOLVENT_C + "scenario.name = streaming_regression\n"
                                             "run.z1 = 0.5,0.5,0.5\n"
                                             "scenario.lam_reg = 5e-324\n",
        "resolvent_c_drift": _RESOLVENT_C + "scenario.name = quadratic_drift\n"
                                            "run.z1 = 0.5\nscenario.matrix = 5e-324\n",
        "eta_grid_5e-324": SMALL_SCAN + "dynamics.eta_hi = 5e-324\n",
        "star_box_1e308": SMALL_STAR + "star.box = 1e308\n",
        "verify_lam_reg_1e308": SMALL_VERIFY.replace("chaos_1d", "streaming_regression")
                                + "scenario.lam_reg = 1e308\n"}
    # a scenario parameter whose square, or a product of it, passes the
    # largest float
    _EXTREMES.update({
        f"verify_{name}_{key}_{value}": SMALL_VERIFY.replace("chaos_1d", name)
        + extra + f"scenario.{key} = {value}\n" for name, key, value, extra in [
            ("quadratic_drift", "matrix", "1e308", ""), ("quadratic_drift", "c1", "1e308", ""),
            ("quadratic_drift", "b", "1e308", ""), ("exp_quadratic", "matrices", "1e308", ""),
            ("glm", "lam_reg", "1e308", ""), ("glm", "noise", "1e308", ""),
            ("glm", "scale", "1e308", "scenario.link = scaled_logistic\n"),
            ("glm", "z_star", "1e308,1", ""),
            ("streaming_regression", "noise", "1e200", ""),
            ("streaming_regression", "noise", "1e308", ""),
            ("streaming_regression", "w_star", "1e308,1,1", ""),
            ("kelly_auction", "value_amp", "1e308", ""), ("kelly_auction", "entry", "1e308", ""),
            ("kelly_auction", "lam_reg", "1e308", ""),
            ("kelly_auction", "values", "1e308,1,1", "")]})
    _EXTREMES.update({
        "track_stream_noise_1e308": "command = track\nscenario.name = streaming_regression\n"
                                    "algorithm.kind = resolvent\nrun.horizon = 10\n"
                                    "run.z1 = 0,0,0\nscenario.noise = 1e308\n",
        "track_glm_z_star_1e308": "command = track\nscenario.name = glm\n"
                                  "scenario.link = scaled_logistic\nalgorithm.kind = forward\n"
                                  "algorithm.eta = 0.1\nrun.horizon = 10\nrun.z1 = 0,0\n"
                                  "scenario.z_star = 1e308,1\n",
        "bounds_drift_b_1e308": _FORWARD_C + "bound.c = 0.5\nscenario.b = 1e308\n",
        # the budget box's squared widths overflow in its diameter
        "track_kelly_budgets_1e308": "command = track\nscenario.name = kelly_auction\n"
                                     "scenario.budgets = 1e308,1e308,1e308\n"
                                     "algorithm.kind = meta_fixed\nalgorithm.k = 2\n"
                                     "run.horizon = 10\nrun.z1 = 0.1,0.1,0.1\n"})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", _EXTREMES.values(), ids=_EXTREMES.keys())
    def test_extreme_constant_exit_code(self, tmp_path, capsys, text):
        # each config takes a derived constant or a draw past the float
        # range, or rounds a positive constant to 0 or 1
        cfg = write_cfg(tmp_path, text)
        code = main(["--config", cfg, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, err
        if code == 2:
            assert re.search(r"field '[a-z_]+\.[a-z_0-9]+'", err), err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key, value", [("c1", "1e150"), ("c1", "-1e150"),
                                            ("b", "1e150"), ("b", "-1e150")])
    def test_potential_past_the_float_range_exit_code(self, tmp_path, capsys, key, value):
        # A |x - c|^2 / 2 is about 1e450 on the sampling box: verify refuses
        # the potential and names a field, and track runs as before
        params = f"scenario.matrix = 1e150\nscenario.{key} = {value}\n"
        verify = SMALL_VERIFY.replace("chaos_1d", "quadratic_drift") + params
        cfg = write_cfg(tmp_path, verify)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "field 'scenario." in capsys.readouterr().err
        cfg = write_cfg(tmp_path, "command = track\nscenario.name = quadratic_drift\n"
                                  "algorithm.kind = forward\nalgorithm.eta = 0.1\n"
                                  "run.horizon = 20\nrun.z1 = 0\n" + params)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("decay, horizon, code, round_", [
        (-200, 10, 0, None), (-200, 40, 2, 36), (-2000, 10, 2, 3),
        (-100, 1180, 0, None), (-100, 1300, 2, 1181)])
    def test_decay_overflow_keeps_its_round(self, tmp_path, capsys, decay, horizon, code,
                                            round_):
        # s^200 passes the largest float at s = 35 and s^2000 at s = 2: the
        # drifts are computed a block of rounds ahead, and only the round
        # that reads the overflowing drift fails, naming that round; at
        # decay -100 every term up to s = 1180 is finite, but their sum to
        # round 1181 is not, and that round fails the same way
        cfg = write_cfg(tmp_path, f"command = track\nscenario.name = quadratic_drift\n"
                                  f"algorithm.kind = forward\nalgorithm.eta = 0.1\n"
                                  f"run.divergence_threshold = 1e308\nrun.z1 = 0.5\n"
                                  f"run.horizon = {horizon}\nscenario.decay = {decay}\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "field 'scenario.decay'" in err and f"round {round_} " in err, err
        else:
            assert err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("horizon, code", [(39, 0), (60, 2)])
    def test_drift_center_past_the_float_range_exit_code(self, tmp_path, capsys, horizon,
                                                         code):
        # b P_t passes the largest float at round 40 at decay -100 and
        # b = 1e150: a run of 39 rounds writes finite solutions only, and
        # one of 60 stops at round 40, naming a field
        out = tmp_path / "x.csv"
        cfg = write_cfg(tmp_path, f"command = track\nscenario.name = quadratic_drift\n"
                                  f"scenario.decay = -100\nscenario.b = 1e150\n"
                                  f"algorithm.kind = forward\nalgorithm.eta = 0.5\n"
                                  f"run.divergence_threshold = 1e308\nrun.z1 = 0\n"
                                  f"run.horizon = {horizon}\n")
        assert main(["--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "field 'scenario.b'" in err and "round 40 " in err, err
        else:
            z_star = [r["z_star"] for r in read_rows(str(out))]
            assert len(z_star) == 39 and all(math.isfinite(z) for z in z_star), z_star

    @pytest.mark.parametrize("scenario, algorithm, z1, code", [
        ("kelly_auction", "meta_fixed\nalgorithm.k = 2", "5,5,5", 2),
        ("kelly_auction", "meta_fixed\nalgorithm.k = 2", "1,0,0.5", 0),
        ("lower_bound_adversary", "forward\nalgorithm.eta = 1", "5", 2),
        ("lower_bound_adversary", "forward\nalgorithm.eta = 1", "-1", 0)],
        ids=["kelly_outside", "kelly_on_the_boundary", "adversary_outside",
             "adversary_on_the_boundary"])
    def test_start_outside_the_domain_exit_code(self, tmp_path, capsys, scenario,
                                                algorithm, z1, code):
        # a start outside the budget box was played as given, and one
        # outside [-1, 1] made the adversary warn, an exit 3 when warnings
        # are errors
        cfg = write_cfg(tmp_path, f"command = track\nscenario.name = {scenario}\n"
                                  f"algorithm.kind = {algorithm}\nrun.horizon = 5\n"
                                  f"run.z1 = {z1}\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == code
        assert ("field 'run.z1'" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("kind, given, field, start", [
        ("cyclic_regret", "", "bound.k", "algorithm.eta = 0.25\nrun.z1 = 1.0"),
        ("aggregation_tracking", "bound.g = 1.0\nbound.d = 4.0", "bound.k",
         "algorithm.eta = 0.25\nrun.z1 = 1.0"),
        ("adversarial_lb", "", "bound.d", "algorithm.eta = 0.25\nrun.z1 = 1.0"),
        # diverges in round 1: no formula runs, the constants are still read
        ("cyclic_regret", "", "bound.k", "algorithm.eta = 0.5\nrun.z1 = 1e7")],
        ids=["cyclic_regret", "aggregation_tracking", "adversarial_lb",
             "cyclic_regret_round_one_divergence"])
    def test_bound_constant_missing_exit_code(self, tmp_path, capsys, kind,
                                              given, field, start):
        # quadratic_drift is aperiodic on an unbounded domain: no k, no D
        cfg = write_cfg(tmp_path, f"""
command = bounds
scenario.name = quadratic_drift
algorithm.kind = forward
{start}
run.horizon = 20
bound.kind = {kind}
{given}
""")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["cyclic_regret", "aggregation_regret",
                                      "aggregation_tracking"])
    @pytest.mark.parametrize("T, code", [(1, 2), (3, 2), (4, 0)])
    def test_log_bound_horizon_below_the_period_exit_code(self, tmp_path, capsys,
                                                          kind, T, code):
        # rsi_game has period 4, and log(T/k) is negative below it (at
        # T = 1 the cyclic_regret form is -32.5)
        cfg = write_cfg(tmp_path, f"""
command = bounds
scenario.name = rsi_game
algorithm.kind = cyclic_fb
algorithm.period = 4
run.horizon = {T}
run.z1 = 0.3,0.3
bound.kind = {kind}
bound.which = regret
bound.g = 1
bound.d = 1
""")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == code
        assert ("field 'run.horizon'" in capsys.readouterr().err) == (code == 2)

    # cases the config fuzzer (test_config_fuzz.py) found: an exit 3 for a
    # bounds run on a scenario without solutions, and exit-2 messages
    # that named no field
    @pytest.mark.parametrize("scenario, algorithm, given, field", [
        ("kelly_auction", "meta_fixed\nalgorithm.k = 2",
         "bound.kind = aggregation_tracking", "scenario.name"),
        ("kelly_auction", "cyclic_fb\nalgorithm.period = 2",
         "bound.kind = contractive", "scenario.name"),
        ("streaming_regression", "meta_fixed\nalgorithm.k = 2", "", "algorithm.d"),
        ("kelly_auction", "meta_adaptive\nalgorithm.k = 2", "", "algorithm.lip"),
        ("glm", "cyclic_fb\nalgorithm.period = 2", "", "algorithm.mu"),
        ("exp_quadratic", "resolvent", "", "algorithm.kind"),
        ("streaming_regression", "meta_fixed\nalgorithm.k = 2\nalgorithm.d = 1\n"
         "algorithm.g = 1", "", "algorithm.kind"),
        ("periodic_1d", "meta_adaptive\nalgorithm.k = 2",
         "bound.kind = contractive", "bound.c"),
        ("streaming_regression", "forward\nalgorithm.eta = 0.1",
         "bound.kind = constant_tracking", "bound.kappa"),
        ("exp_quadratic", "forward\nalgorithm.eta = 0.1",
         "scenario.matrices = 0", "scenario.matrices")],
        ids=["bounds_without_solutions", "contractive_without_solutions",
             "meta_fixed_no_d", "meta_adaptive_no_lip", "cyclic_fb_no_mu",
             "resolvent_not_affine", "meta_fixed_unbounded", "contraction_unknown",
             "constant_tracking_no_kappa", "matrices_not_positive_definite"])
    def test_unusable_combination_names_field(self, tmp_path, capsys, scenario,
                                              algorithm, given, field):
        command = "bounds" if "bound.kind" in given else "track"
        dim = {"periodic_1d": 1, "exp_quadratic": 1, "glm": 2}.get(scenario, 3)
        cfg = write_cfg(tmp_path, f"command = {command}\nscenario.name = {scenario}\n"
                                  f"algorithm.kind = {algorithm}\nrun.horizon = 5\n"
                                  f"run.z1 = {','.join(['0.5'] * dim)}\n{given}\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, given", [
        ("cyclic_regret", ""), ("contractive", "bound.c = 0.5")],
        ids=["cyclic_regret", "contractive"])
    def test_bounds_after_round_one_divergence(self, tmp_path, kind, given):
        # the start is past the divergence threshold: no round completes,
        # so there is nothing to measure and no operator value to bound
        cfg = write_cfg(tmp_path, f"""
command = bounds
scenario.name = periodic_1d
algorithm.kind = forward
algorithm.eta = 0.5
run.horizon = 10
run.z1 = 1e7
bound.kind = {kind}
{given}
""")
        out = tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        row = read_rows(str(out))[0]
        assert row["measured"] == DIVERGED_TOKEN       # NaN
        assert row["bound"] == DIVERGED_TOKEN
        assert row["holds"] is False
        assert main(["--config", cfg, "--out", str(out),
                     "--fail-on-divergence"]) == 1

    @pytest.mark.parametrize("kind", ["cyclic_regret", "aggregation_regret",
                                      "aggregation_tracking"])
    def test_log_bound_after_fewer_than_k_rounds(self, tmp_path, kind):
        # round 2 plays -3 * 5e5, past the threshold: one round completed,
        # where log(T/k) = log(1/4) would give a negative bound
        cfg = write_cfg(tmp_path, f"""
command = bounds
scenario.name = periodic_1d
algorithm.kind = forward
algorithm.eta = 0.5
run.horizon = 10
run.z1 = 5e5
bound.kind = {kind}
bound.k = 4
bound.g = 1
bound.d = 1
""")
        out = tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        row = read_rows(str(out))[0]
        assert row["measured"] == pytest.approx(2.5e11)
        assert row["bound"] == DIVERGED_TOKEN
        assert row["holds"] is False
        assert main(["--config", cfg, "--out", str(out),
                     "--fail-on-divergence"]) == 1

    def test_contractive_bound_after_one_round(self, tmp_path):
        # round 2 plays -3 * 5e5, past the threshold: one solution recorded
        cfg = write_cfg(tmp_path, """
command = bounds
scenario.name = periodic_1d
algorithm.kind = forward
algorithm.eta = 0.5
run.horizon = 10
run.z1 = 5e5
bound.kind = contractive
bound.c = 0.5
""")
        out = tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(out),
                     "--fail-on-divergence"]) == 1
        row = read_rows(str(out))[0]
        assert row["measured"] == pytest.approx(2.5e11)
        assert row["bound"] == pytest.approx(2.5e11 / 0.5)
        assert row["holds"] is True

    @pytest.mark.parametrize("T", [1, 50, 500])
    def test_contractive_bound_with_zero_contraction(self, tmp_path, T):
        # forward at eta = mu / L^2 = 1 on identity quadratics derives
        # C = sqrt(1 - (mu/L)^2) = 0: each step lands on the solution
        cfg = write_cfg(tmp_path, f"""
command = bounds
scenario.name = quadratic_drift
algorithm.kind = forward
algorithm.eta = 1
run.horizon = {T}
run.z1 = 0.5
bound.kind = contractive
""")
        out = tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        row = read_rows(str(out))[0]
        # path + init_dist^2, with the 0.25 of the start 0.5 from Z*_1 = 0
        assert row["bound"] == pytest.approx(0.25 + 0.01 * (T - 1), rel=1e-12)
        assert row["holds"] is True

    def test_unexpected_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, "_cmd_track", fail)
        cfg = write_cfg(tmp_path, MINIMAL_TRACK)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: injected fault" in err

    def test_seed_flag_overrides_scenario_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, """
command = track
scenario.name = streaming_regression
scenario.seed = 3
algorithm.kind = resolvent
run.horizon = 20
run.z1 = 1.0,1.0,1.0
""")
        outs = {}
        for seed in (3, 7, 9):
            out = tmp_path / f"s{seed}.csv"
            assert main(["--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
            outs[seed] = out.read_bytes()
        assert outs[7] != outs[9]
        plain = tmp_path / "plain.csv"
        assert main(["--config", cfg, "--out", str(plain)]) == 0
        assert plain.read_bytes() == outs[3]

    def test_json_output(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_TRACK)
        out = tmp_path / "t.json"
        assert main(["--config", cfg, "--out", str(out), "--format", "json"]) == 0
        rows = read_rows(str(out))
        assert rows[0]["t"] == 1
        assert rows[2]["z"] == 0.0

    def test_json_booleans_read_back_as_booleans(self, tmp_path):
        # rsi_game's game checks report numpy booleans, the others bools
        cfg = write_cfg(tmp_path, SMALL_VERIFY.replace("chaos_1d", "rsi_game"))
        out = tmp_path / "v.json"
        assert main(["--config", cfg, "--out", str(out), "--format", "json"]) == 0
        passed = [row["passed"] for row in read_rows(str(out))]
        assert len(passed) > 4 and all(p is True for p in passed)

    @pytest.mark.parametrize("text", README_CONFIGS,
                             ids=[re.search(r"command = (\w+)", t)[1] for t in README_CONFIGS])
    def test_readme_example_runs(self, tmp_path, text):
        cfg = write_cfg(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0

    def test_readme_python_examples_run(self):
        # the blocks build on each other, so they share one namespace
        namespace = {}
        for block in README_PYTHON:
            exec(compile(block, "README.md", "exec"), namespace)
        assert len(README_PYTHON) >= 2 and namespace["total"] <= namespace["bound"]

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_TRACK)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["--config", cfg, "--out", str(out1)])
        main(["--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


# a value that breaks each bound rule used by scenarios.PARAMS
_BREAKS_RULE = {"must be positive": "0", "must be nonnegative": "-1",
                "must be at least 1": "0", "must be at least 2": "1",
                "must be in [0, 1)": "1", "must be in [0, 1]": "1.5",
                "must be -1, 0 or 1": "0.5",
                "must be positive and at most 1e300": "1e308",
                "must be at most 1e150 in magnitude": "-1e151",
                "must be in (0, 1e150]": "1e151", "must be in [0, 1e150]": "1e151"}
_BOUNDED_PARAMS = [(name, key, spec.bound[0]) for name, table in PARAMS.items()
                   for key, spec in table.items() if spec.bound is not None]
_NUMERIC_PARAMS = [(name, key, spec) for name, table in PARAMS.items()
                   for key, spec in table.items()
                   if spec.type in (int, float, list, MATRIX, MATRICES)]


# the in-bound extremes of each bound rule with a cap, and of "must be
# positive", which has none: the cap, its negative where the rule
# allows it, and the least subnormal
_EXTREME_VALUES = {"must be at most 1e150 in magnitude": ("1e150", "-1e150", "5e-324"),
                   "must be in (0, 1e150]": ("1e150", "5e-324"),
                   "must be in [0, 1e150]": ("1e150", "5e-324"),
                   "must be positive and at most 1e300": ("1e300", "5e-324"),
                   "must be positive": ("1e308", "5e-324")}
_EXTREME_PAIRS = [(name, pair) for name, table in PARAMS.items()
                  for pair in itertools.combinations(
                      [key for key, spec in table.items()
                       if spec.type in (float, list, MATRIX, MATRICES)
                       and spec.bound is not None and spec.bound[0] in _EXTREME_VALUES], 2)]
# the algorithm keys each kind needs on top of the kind itself
_KIND_KEYS = {"forward": "algorithm.eta = 0.1\n", "resolvent": "",
              "cyclic_fb": "algorithm.period = 2\n", "meta_fixed": "algorithm.k = 2\n",
              "meta_adaptive": "algorithm.k = 2\n"}


def _default_dim(name: str) -> int:
    """The dimension of scenario ``name`` at its defaults."""
    return next((PARAMS[name][k].default for k in ("dim", "n") if k in PARAMS[name]), 1)


def _param_text(name: str, key: str, value: str) -> str:
    """``value`` as scenario ``name``'s parameter ``key``: the number, or
    a vector of the default dimension or a matrix filled with it."""
    spec, dim = PARAMS[name][key], _default_dim(name)
    text = value if spec.type in (int, float) else ",".join([value] * dim)
    return ";".join([text] * dim) if spec.type in (MATRIX, MATRICES) else text


class TestScenarioParams:
    @pytest.mark.parametrize("name, key, rule", _BOUNDED_PARAMS,
                             ids=[f"{n}.{k}" for n, k, _ in _BOUNDED_PARAMS])
    def test_out_of_bound_param_exit_code(self, tmp_path, capsys, name, key, rule):
        cfg = write_cfg(tmp_path, f"command = verify\nscenario.name = {name}\n"
                                  f"scenario.{key} = {_BREAKS_RULE[rule]}\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"scenario.{key}" in err and rule in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, key, spec", _NUMERIC_PARAMS,
                             ids=[f"{n}.{k}" for n, k, _ in _NUMERIC_PARAMS])
    def test_extreme_param_exit_code(self, tmp_path, capsys, name, key, spec):
        # the largest float, its negative and the least subnormal, a vector
        # of the scenario's default dimension or a matrix filled with it
        for value in ("1e308", "-1e308", "5e-324"):
            cfg = write_cfg(tmp_path, f"{SMALL_VERIFY.replace('chaos_1d', name)}"
                                      f"scenario.{key} = {_param_text(name, key, value)}\n")
            code = main(["--config", cfg, "--out", str(tmp_path / "x.csv")])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (value, err)
            if code == 2:
                assert f"field 'scenario.{key}'" in err, (value, err)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, keys", _EXTREME_PAIRS,
                             ids=[f"{n}.{a}+{b}" for n, (a, b) in _EXTREME_PAIRS])
    def test_extreme_pair_exit_code(self, tmp_path, capsys, name, keys):
        # each pair of capped keys at every pair of in-bound extremes, through
        # verify and through track with each kind that runs on the defaults
        def run(text: str) -> tuple:
            code = main(["--config", write_cfg(tmp_path, text),
                         "--out", str(tmp_path / "x.csv")])
            return code, capsys.readouterr().err

        z1 = ",".join(["0"] * _default_dim(name))
        track = f"command = track\nscenario.name = {name}\nrun.horizon = 20\nrun.z1 = {z1}\n"
        tracks = [track + f"algorithm.kind = {kind}\n" + _KIND_KEYS[kind] for kind in ALGORITHMS]
        tracks = [text for text in tracks if run(text)[0] == 0]
        assert tracks
        verify = f"command = verify\nscenario.name = {name}\nverify.samples = 200\n" \
                 "verify.fd_points = 20\n"
        extremes = [_EXTREME_VALUES[PARAMS[name][key].bound[0]] for key in keys]
        for values in itertools.product(*extremes):
            params = "".join(f"scenario.{key} = {_param_text(name, key, value)}\n"
                             for key, value in zip(keys, values))
            for head in [verify] + tracks:
                code, err = run(head + params)
                assert code in (0, 1, 2) and "Traceback" not in err, (head, values, err)
                if code == 2:
                    assert re.search(r"field '[a-z_]+\.[a-z_0-9]+'", err), (head, values, err)

    # dim = 0, period = 0, seed = -1 and n0 = 0 are cases of the
    # out-of-bound test above
    @pytest.mark.parametrize("name, given, field", [
        ("quadratic_drift", "scenario.dim = 2.5", "scenario.dim"),
        ("rsi_game", "scenario.a_values =", "scenario.a_values"),
        ("streaming_regression", "scenario.growth = -5", "scenario.growth"),
        ("streaming_regression", "scenario.lam_reg = nan", "scenario.lam_reg"),
        ("glm", "scenario.link = probit", "scenario.link"),
        ("kelly_auction", "scenario.budgets = 1,1", "scenario.budgets"),
        ("glm", "scenario.z_star = 1,2,3", "scenario.z_star"),
        ("quadratic_drift", "scenario.dim = 3\nscenario.c1 = 1,2", "scenario.c1"),
        ("quadratic_drift", "scenario.dim = 2\nscenario.matrix = 1,0,0;0,1,0;0,0,1",
         "scenario.matrix"),
        ("exp_quadratic", "scenario.matrices = 1,0;0,1|1", "scenario.matrices"),
        ("chaos_1d", "scenario.bogus = 1", "scenario.bogus")],
        ids=["drift_dim_2.5", "rsi_a_values_empty", "stream_growth_-5",
             "stream_lam_reg_nan", "glm_link_probit",
             "kelly_budgets_length", "glm_z_star_length",
             "drift_c1_length", "drift_matrix_shape", "exp_matrices_sizes",
             "unknown_param"])
    def test_bad_scenario_value_exit_code(self, tmp_path, capsys, name, given, field):
        cfg = write_cfg(tmp_path, f"{SMALL_VERIFY.replace('chaos_1d', name)}{given}\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert field in capsys.readouterr().err

    _BOUNDS = MINIMAL_TRACK.replace("track", "bounds") + "bound.kind = cyclic_regret\n"
    _REMOVED = [
        (MINIMAL_TRACK + "run.fail_on_divergence = true\n", "run.fail_on_divergence"),
        (SMALL_VERIFY.replace("chaos_1d", "rsi_game") + "scenario.estimate_lip = true\n",
         "scenario.estimate_lip"),
        (MINIMAL_TRACK + "output.format = json\n", "output.format"),
        (_BOUNDS + "bound.mu = 1\n", "bound.mu"),
        (_BOUNDS + "bound.big_k = 2\n", "bound.big_k"),
        (_BOUNDS + "bound.d0 = 1\n", "bound.d0"),
        (SMALL_SCAN + "dynamics.tol = 1e-8\n", "dynamics.tol"),
        (SMALL_SCAN + "dynamics.max_period = 64\n", "dynamics.max_period"),
        (SMALL_STAR + "star.tail_fraction = 0.5\n", "star.tail_fraction"),
        (SMALL_STAR + "star.threshold = 1e6\n", "star.threshold")]

    @pytest.mark.parametrize("text, key", _REMOVED, ids=[key for _, key in _REMOVED])
    def test_removed_key_exit_code(self, tmp_path, capsys, text, key):
        # --fail-on-divergence and --format do the jobs of run.fail_on_divergence
        # and output.format, rsi_game always estimates its Lipschitz
        # constant, and the others are protocol constants: bounds reads
        # mu from the scenario, K from algorithm.k and D0 from the run
        cfg = write_cfg(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"field '{key}': unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "verify"])
    def test_asymmetric_matrices_exit_code(self, tmp_path, capsys, command):
        # eigvalsh reads one triangle: 1,3;0,1 would pass as the identity
        text = MINIMAL_TRACK.replace("periodic_1d", "exp_quadratic") \
            if command == "track" else SMALL_VERIFY.replace("chaos_1d", "exp_quadratic")
        cfg = write_cfg(tmp_path, text + "scenario.matrices = 1,3;0,1\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "scenario.matrices" in err and "symmetric" in err
        assert not (tmp_path / "x.csv").exists()

    def test_rsi_single_coupling_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_VERIFY.replace("chaos_1d", "rsi_game")
                        + "scenario.a_values = 0.5\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0

    def test_one_number_c1_broadcasts_to_dim(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_TRACK.replace("periodic_1d", "quadratic_drift")
                        .replace("z1 = 3.0", "z1 = 1,1,1")
                        + "scenario.dim = 3\nscenario.c1 = 0.5\n")
        out = tmp_path / "x.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert read_rows(str(out))[0]["z_star"] == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("text, field", [
        ("command = bounds\nscenario.name = kelly_auction\nalgorithm.kind = meta_fixed\n"
         "algorithm.k = 2\nrun.horizon = 3\nrun.z1 = 0.1,0.1,0.1,0.1\n"
         "bound.kind = aggregation_regret\n", "run.z1"),
        ("command = orbit\nscenario.name = chaos_1d\ndynamics.eta = 0.4\n"
         "dynamics.x0 = 0.1,0.2\n", "dynamics.x0"),
        (SMALL_SCAN + "dynamics.x0 = 0.1,0.2\n", "dynamics.x0"),
        ("command = orbit\nscenario.name = star_2d\ndynamics.eta = 0.4\n",
         "dynamics.x0"),
        (SMALL_SCAN.replace("chaos_1d", "quadratic_drift"), "scenario.name"),
        ("command = orbit\nscenario.name = quadratic_drift\ndynamics.eta = 0.4\n",
         "scenario.name"),
        (SMALL_STAR + "scenario.name = chaos_1d\nscenario.bogus = 3\n", "scenario.bogus"),
        (SMALL_STAR + "scenario.bogus = 3\n", "scenario.bogus"),
        (SMALL_STAR + "scenario.name = chaos_1d\n", "scenario.name"),
        (SMALL_STAR + "scenario.name = quadratic_drift\nscenario.dim = 2\n",
         "scenario.name")],
        ids=["kelly_z1_length", "orbit_x0_length", "bifurcation_x0_length",
             "orbit_default_x0_2d", "bifurcation_aperiodic", "orbit_aperiodic",
             "star_chaos_bogus", "star_default_bogus", "star_not_planar",
             "star_aperiodic"])
    def test_scenario_dependent_exit_code(self, tmp_path, capsys, text, field):
        cfg = write_cfg(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text", [SMALL_STAR, SMALL_VERIFY], ids=["star", "verify"])
    def test_negative_seed_flag_exit_code(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [(SMALL_STAR, "star.seed"),
                                           (SMALL_VERIFY, "verify.seed")],
                             ids=["star", "verify"])
    def test_seed_flag_overrides_command_seed(self, tmp_path, text, key):
        cfg = write_cfg(tmp_path, text + f"{key} = 5\n")
        flagged, plain = tmp_path / "f.csv", tmp_path / "p.csv"
        assert main(["--config", cfg, "--out", str(flagged), "--seed", "2"]) == 0
        cfg2 = write_cfg(tmp_path, text + f"{key} = 2\n", name="two.cfg")
        assert main(["--config", cfg2, "--out", str(plain)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

