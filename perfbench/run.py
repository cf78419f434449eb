"""The tvvi benchmark.

Usage:
  python3 perfbench/run.py --workload online|stream|dynamics --seed N
                           --seconds S --trace 0|1

Run from the root of a checkout. Every pass starts a fresh interpreter
(``worker.py``) that imports ``tvvi.cli`` from ``src`` and runs the
workload's seed-generated experiments through ``tvvi.cli.main``, the way
a researcher runs them. Every output is checked (``check.py``); a
failed experiment counts in ``failed`` and makes ``correct`` false.

``--trace 0`` repeats untraced passes until ``--seconds`` is used up
(at least ``MIN_PASSES``) and reports the median of each end-to-end
metric over the passes. Times are host-speed corrected: the shared host
this was built on runs the same code up to 1.5 times slower for seconds
at a time, so each experiment's time (and each set-up time) is scaled by
``CALIBRATION_REF_S`` over the calibration kernel's time measured next
to it, in as many processes as the experiment keeps busy
(``worker.calibrate``). A time is thus the one the host would give
at the speed where the kernel takes ``CALIBRATION_REF_S``; a slower
program still reads slower, since the kernel does not run its code.
Standard error shows the raw times too. ``--trace 1`` runs a fixed four passes (two
traced between two untraced), reports the per-layer metrics, and checks
that the two traced passes agree exactly on every count and that
tracing leaves the row files byte-identical.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
# The track/bounds experiment whose operator evaluations per round must
# be exactly 1: the fixed-rate meta-algorithm's one-evaluation economy.
ONE_EVAL_EXPERIMENT = "kelly_meta_fixed"
# The calibration kernel's time at the host's usual full speed: the
# lower end of its timings on the 2-vCPU Xeon host of the baseline.
CALIBRATION_REF_S = 0.015


class Plan:
    """One pass's experiments: config files, output paths and argv."""

    def __init__(self, workload: str, seed: int, label: str, scan_threads: int):
        self.dir = os.path.join(OUT, workload, label)
        os.makedirs(self.dir, exist_ok=True)
        self.experiments = []
        for name, text in workloads.GENERATORS[workload](seed):
            cfg = check.parse_config(text)
            cfg_path = os.path.join(self.dir, f"{name}.cfg")
            out_path = os.path.join(self.dir, f"{name}.csv")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = ["--config", cfg_path, "--out", out_path]
            procs = 1
            if cfg["command"] == "bifurcation":
                argv += ["--threads", str(scan_threads)]
                procs = scan_threads
            self.experiments.append({"name": name, "text": text, "cfg": cfg,
                                     "config": cfg_path, "out": out_path,
                                     "argv": argv, "procs": procs})
        self.path = os.path.join(self.dir, "plan.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"experiments": [
                {k: e[k] for k in ("name", "config", "argv", "procs")}
                for e in self.experiments],
                "result": os.path.join(self.dir, "result.json"),
                "trace": os.path.join(self.dir, "trace.json")}, fh)


def work_units(cfg: dict) -> int:
    """Learner rounds of a track/bounds experiment, or the nominal
    composed-map steps a dynamics experiment requests."""
    command = cfg["command"]
    if command in ("track", "bounds"):
        return int(cfg["run.horizon"])
    if command == "bifurcation":
        n_eta = int(cfg["dynamics.eta_n"]) + len(cfg["dynamics.extra_etas"].split(","))
        return n_eta * int(cfg["dynamics.steps"])
    if command == "star":
        return int(cfg["star.samples"]) * int(cfg["star.steps"])
    if command == "orbit":
        return int(cfg["dynamics.steps"])
    return 0


def run_pass(plan: Plan, trace: bool, timeout: float, reference) -> dict:
    """Run one worker pass and check its outputs."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan.path]
    if trace:
        cmd.append("--trace")
    result_path = os.path.join(plan.dir, "result.json")
    for path in [result_path] + [e["out"] for e in plan.experiments]:
        if os.path.exists(path):
            os.remove(path)
    start = time.perf_counter()
    # its own session, so a timeout also ends the scan pool's processes
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup_s = time.perf_counter() - start
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    result = None
    if ready and proc.returncode == 0:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    failures = []
    for i, exp in enumerate(plan.experiments):
        if result is None:
            errors = [f"worker exited with {proc.returncode}"]
        else:
            r = result["experiments"][i]
            if r["error"] is not None:
                errors = [r["error"]]
            elif r["exit_code"] != 0:
                errors = [f"exit code {r['exit_code']}"]
            else:
                errors = check.check_experiment(
                    exp["text"], exp["out"],
                    reference.get(exp["name"]) if reference else None)
        if errors:
            failures.append(exp["name"])
            print(f"FAIL {exp['name']}: " + "; ".join(errors), file=sys.stderr)
    return {"setup_s": setup_s, "result": result, "failures": failures,
            "attempted": len(plan.experiments)}


def corrected_seconds(result: dict) -> list:
    """Each experiment's time at the reference host speed."""
    return [r["seconds"] * CALIBRATION_REF_S / r["calib_s"]
            for r in result["experiments"]]


def end_to_end(plan: Plan, passes: list) -> dict:
    units = [work_units(e["cfg"]) for e in plan.experiments]
    wall, rate, rss, setup = [], [], [], []
    for p in passes:
        if p["result"] is None:
            continue
        secs = corrected_seconds(p["result"])
        wall.append(sum(secs))
        rate.append(sum(units) / sum(s for s, u in zip(secs, units) if u))
        rss.append(p["result"]["peak_rss_mb"])
        setup.append(p["setup_s"] * CALIBRATION_REF_S
                     / p["result"]["setup_calib_s"])
    if not wall:
        return {}
    return {"wall_s": statistics.median(wall),
            "steps_per_s": statistics.median(rate),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss)}


def bytes_of(path: str):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def traced_run(args, reference) -> tuple:
    """Two traced passes between two untraced ones, with the exact-count
    self-test. Untraced passes on both sides cancel a drift in machine
    speed out of the overhead. The bifurcation scan runs in one process in
    all four, so every span lands in the traced process and the overhead
    compares like with like."""
    labels = ("plain_a", "traced_a", "traced_b", "plain_b")
    plans = {l: Plan(args.workload, args.seed, l, scan_threads=1) for l in labels}
    start = time.perf_counter()
    passes = {}
    for label in labels:
        left = RUN_BUDGET_S - (time.perf_counter() - start)
        passes[label] = run_pass(plans[label], label.startswith("traced"),
                                 left, reference)
    ok = all(p["result"] is not None for p in passes.values())
    metrics = {}
    if ok:
        a, b = (passes[l]["result"]["layers"] for l in ("traced_a", "traced_b"))
        for label, layers in (("traced_a", a), ("traced_b", b)):
            layers["io.bytes_written"] = sum(
                os.path.getsize(e["out"]) for e in plans[label].experiments)
        exact = [k for k in a if k.endswith(".calls") or k in (
            "io.bytes_written", "algorithms.diverged_runs")
            or k.startswith("core.op_evals_per_round.")]
        for k in exact:
            if a[k] != b[k]:
                ok = False
                print(f"SELF-TEST {k}: {a[k]} != {b[k]}", file=sys.stderr)
        key = f"core.op_evals_per_round.{ONE_EVAL_EXPERIMENT}"
        if key in a and a[key] != 1:
            ok = False
            print(f"SELF-TEST {key} = {a[key]}, expected 1", file=sys.stderr)
        metrics = {k: a[k] if k in exact else (a[k] + b[k]) / 2 for k in a}
        walls = {l: sum(corrected_seconds(passes[l]["result"])) for l in labels}
        metrics["trace.overhead_s"] = (walls["traced_a"] + walls["traced_b"]
                                       - walls["plain_a"] - walls["plain_b"]) / 2
        n = len(plans["plain_a"].experiments)
        metrics["io.identical_outputs"] = sum(
            1 for i in range(n)
            if len({bytes_of(plans[l].experiments[i]["out"]) for l in labels}) == 1
            and bytes_of(plans["plain_a"].experiments[i]["out"]) is not None)
        if metrics["io.identical_outputs"] != n:
            ok = False
            print(f"SELF-TEST io.identical_outputs = "
                  f"{metrics['io.identical_outputs']} of {n}", file=sys.stderr)
    return list(passes.values()), metrics, ok


def timed_run(args, reference) -> tuple:
    plan = Plan(args.workload, args.seed, "plain", workloads.SCAN_THREADS)
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        passes.append(run_pass(plan, False, RUN_BUDGET_S - elapsed, reference))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and \
                elapsed + elapsed / len(passes) > args.seconds:
            break
    metrics = end_to_end(plan, passes)
    failed = sum(len(p["failures"]) for p in passes)
    attempted = len(plan.experiments) * len(passes)
    rounds = "map_steps_per_s" if args.workload == "dynamics" else "rounds_per_s"
    done = [p for p in passes if p["result"]]
    print("pass wall_s = " + " ".join(
        "%.3f" % sum(corrected_seconds(p["result"])) for p in done),
        file=sys.stderr)
    print("pass raw wall_s = " + " ".join(
        "%.3f" % sum(r["seconds"] for r in p["result"]["experiments"])
        for p in done), file=sys.stderr)
    print("pass raw setup_s = " + " ".join(
        "%.3f" % p["setup_s"] for p in done), file=sys.stderr)
    for name, value, unit in (("passes", len(passes), "count"),
                              (rounds, metrics.get("steps_per_s"), "1/s"),
                              ("failed_frac", failed / attempted, "1")):
        print(f"{name} = {value} {unit}", file=sys.stderr)
    return passes, metrics, bool(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tvvi", "cli.py")):
        print(f"no tvvi sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    reference = check.load_reference(args.workload) \
        if args.seed == workloads.DEFAULT_SEED else None

    shutil.rmtree(os.path.join(OUT, args.workload), ignore_errors=True)
    if args.trace:
        passes, metrics, ok = traced_run(args, reference)
    else:
        passes, metrics, ok = timed_run(args, reference)

    failed = sum(len(p["failures"]) for p in passes)
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
