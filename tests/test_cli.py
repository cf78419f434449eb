"""End-to-end tests for config parsing, row emission, and the CLI."""

import math

import numpy as np
import pytest

from tvvi.cli import main
from tvvi.config import ConfigError, parse_config
from tvvi.io import emit_rows, read_rows

MINIMAL_TRACK = """
command = track
scenario.name = periodic_1d
algorithm.kind = forward
algorithm.eta = 1.0
run.horizon = 10
run.z1 = 3.0
"""


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
        with pytest.raises(ConfigError, match="algorithm.eta"):
            parse_config(MINIMAL_TRACK.replace("eta = 1.0", "eta = -1"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="run.bogus"):
            parse_config(MINIMAL_TRACK + "run.bogus = 3\n")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("command = dance\n")

    def test_missing_required_fields_collected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = track\nscenario.name = periodic_1d\n")
        msg = str(err.value)
        assert "algorithm.kind" in msg
        assert "run.horizon" in msg

    def test_vector_and_matrix_values(self):
        cfg = parse_config("command = orbit\nscenario.name = chaos_1d\n"
                           "dynamics.eta = 0.4\ndynamics.x0 = 0.1,0.2\n")
        assert cfg.get("dynamics.x0") == [0.1, 0.2]


class TestEmitRows:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_rows([], "csv", str(path))
        text = path.read_text()
        assert text.splitlines()[0] == "# schema=v1"

    def test_single_bifurcation_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_rows([{"eta": 0.5, "classification": "converged", "cells": "12;13"}],
                  "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[1] == "eta,classification,cells"
        assert lines[2].startswith("0.5,converged,")

    def test_round_trip(self, tmp_path):
        rows = [
            {"t": 1, "x": 0.123456789012345678, "label": "abc", "flag": True},
            {"t": 2, "x": -1e-17, "label": "d", "flag": False},
        ]
        for fmt in ("csv", "json"):
            path = tmp_path / f"rt.{fmt}"
            emit_rows(rows, fmt, str(path))
            back = read_rows(str(path))
            assert back == rows

    def test_vector_round_trip(self, tmp_path):
        rows = [{"z": np.array([1.5, -2.25])}]
        path = tmp_path / "vec.csv"
        emit_rows(rows, "csv", str(path))
        assert read_rows(str(path))[0]["z"] == [1.5, -2.25]

    def test_nonfinite_token(self, tmp_path):
        path = tmp_path / "div.csv"
        emit_rows([{"x": math.inf}, {"x": 1.0}], "csv", str(path))
        back = read_rows(str(path))
        assert back[0]["x"] == "diverged"
        assert back[1]["x"] == 1.0

    def test_heterogeneous_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_rows([{"a": 1}, {"b": 2}], "csv", str(tmp_path / "x.csv"))


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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

    def test_json_output(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_TRACK)
        out = tmp_path / "t.json"
        assert main(["--config", cfg, "--out", str(out), "--format", "json"]) == 0
        rows = read_rows(str(out))
        assert rows[0]["t"] == 1
        assert rows[2]["z"] == 0.0

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_TRACK)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["--config", cfg, "--out", str(out1)])
        main(["--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
