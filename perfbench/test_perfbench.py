"""Tests of the benchmark's own parts.

Run: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

import check
import run
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# Experiments whose configs carry no seeded value: the dynamics protocol
# fixes the scan and the orbit's start.
UNSEEDED = {"bifurcation", "orbit"}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_bytes(workload):
    gen = workloads.GENERATORS[workload]
    assert gen(7) == gen(7)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_other_seed_other_bytes(workload):
    gen = workloads.GENERATORS[workload]
    a, b = dict(gen(7)), dict(gen(8))
    assert list(a) == list(b)
    for name in a:
        if name in UNSEEDED:
            assert a[name] == b[name]
        else:
            assert a[name] != b[name], name


def write_rows(tmp_path, header, rows):
    path = tmp_path / "rows.csv"
    path.write_text("# schema=v1\n" + "\n".join(
        ",".join(r) for r in [header] + rows) + "\n")
    return str(path)


BOUNDS_CFG = "command = bounds\nrun.horizon = 8\nbound.kind = adversarial_lb\n"


def test_checker_accepts_holding_bound(tmp_path):
    path = write_rows(tmp_path, ["kind", "which", "measured", "bound", "holds"],
                      [["adversarial_lb", "tracking", "2.5", "2", "true"]])
    assert check.check_experiment(BOUNDS_CFG, path) == []


@pytest.mark.parametrize("row", [
    ["adversarial_lb", "tracking", "2.5", "2", "false"],     # bound fails
    ["adversarial_lb", "tracking", "1.5", "2", "true"],      # below T/4
    ["adversarial_lb", "tracking", "diverged", "2", "true"],
])
def test_checker_rejects_bad_bound(tmp_path, row):
    path = write_rows(tmp_path, ["kind", "which", "measured", "bound", "holds"],
                      [row])
    assert check.check_experiment(BOUNDS_CFG, path)


def test_checker_compares_with_reference(tmp_path):
    cfg = "command = track\nrun.horizon = 3\n"
    header = ["t", "z"]
    rows = [["1", "0.5;1"], ["2", "0.25;1"], ["3", "0.125;1"]]
    ref = check.summarize(header, rows)
    assert check.check_experiment(cfg, write_rows(tmp_path, header, rows), ref) == []
    rows[1][1] = "0.25000001;1"
    assert check.check_experiment(cfg, write_rows(tmp_path, header, rows), ref)


def test_traced_worker_counts_one_evaluation_per_meta_fixed_round(tmp_path):
    """A traced pass reports exactly one true-operator evaluation per
    round of the fixed-rate meta-algorithm and leaves the rows unchanged."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = track\nscenario.name = kelly_auction\n"
                   "scenario.n = 3\nscenario.period = 4\n"
                   "algorithm.kind = meta_fixed\nalgorithm.k = 4\n"
                   "run.horizon = 40\nrun.z1 = 0.5,0.5,0.5\n")
    outs = {}
    for label in ("plain", "traced"):
        out = tmp_path / f"{label}.csv"
        plan = tmp_path / f"{label}.json"
        plan.write_text(json.dumps({
            "experiments": [{"name": "meta", "config": str(cfg),
                             "argv": ["--config", str(cfg), "--out", str(out)]}],
            "result": str(tmp_path / f"{label}.result.json"),
            "trace": str(tmp_path / f"{label}.trace.json")}))
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), str(plan)]
        if label == "traced":
            cmd.append("--trace")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs[label] = out.read_bytes()
    assert outs["plain"] == outs["traced"]
    result = json.loads((tmp_path / "traced.result.json").read_text())
    # host-speed calibrations next to the experiment and the set-up
    assert result["experiments"][0]["calib_s"] > 0
    assert result["setup_calib_s"] > 0
    layers = result["layers"]
    assert layers["core.op_evals_per_round.meta"] == 1
    assert layers["algorithms.make_surrogate.calls"] == 40
    assert layers["scenarios.seq_at.calls"] == 40


def test_calibration_runs_at_the_experiments_parallelism(tmp_path, monkeypatch):
    """The bifurcation scan keeps the pool's processes busy, so its
    calibration runs in as many processes; the others run in one."""
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    plan = run.Plan("dynamics", 0, "plain", workloads.SCAN_THREADS)
    with open(plan.path, encoding="utf-8") as fh:
        procs = {e["name"]: e["procs"] for e in json.load(fh)["experiments"]}
    assert procs == {"bifurcation": workloads.SCAN_THREADS, "star": 1, "orbit": 1}
    assert worker.calibrate(2) > 0
