"""One pass over a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN_JSON [--trace]

The plan (written by run.py) lists the experiments with their config
and output paths. The worker imports ``tvvi.cli`` from the checkout's
``src``, parses every config, prints ``ready`` (the end of set-up), then
runs each experiment through ``tvvi.cli.main`` in its own ``try``. The
pass result goes to the plan's ``result`` path as JSON.

Around every experiment the worker times a fixed calibration kernel
(``calibrate``), untimed itself, in as many processes at once as the
experiment keeps busy (the plan's ``procs``). The host's speed drifts by
tens of per cent within seconds, and the kernel slows down with it, so
``run.py`` can rescale each experiment's time by the host speed measured
next to it.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Kernel timings per calibration; their median is the calibration.
CALIBRATION_REPEATS = 5


def _kernel(np) -> float:
    """Interpreter work on a small numpy vector, the kind of work tvvi
    does per round; about 15 ms on the host the baseline was recorded on."""
    x = np.zeros(3)
    s = 0.0
    for i in range(3000):
        y = x + 0.5
        x = np.clip(y - 1.0, -1.0, 1.0)
        s += float(x[0]) * 0.5 + i % 3
    return s


def _kernel_time() -> float:
    """Median time of the calibration kernel, in seconds."""
    import numpy as np
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _kernel(np)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrate(procs: int = 1) -> float:
    """The kernel's median time, run in ``procs`` processes at once (this
    one and ``procs - 1`` forked children) and averaged over them."""
    children = []
    for _ in range(procs - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                os.write(write, repr(_kernel_time()).encode())
            finally:
                os._exit(0)
        os.close(write)
        children.append((pid, read))
    times = [_kernel_time()]
    for pid, read in children:
        with os.fdopen(read) as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return statistics.mean(times)


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    traced = "--trace" in argv[1:]

    sys.path.insert(0, SRC)
    import tvvi.cli
    import tvvi.config
    if not os.path.abspath(tvvi.cli.__file__).startswith(SRC + os.sep):
        print(f"tvvi imported from {tvvi.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    commands = []
    for exp in plan["experiments"]:
        with open(exp["config"], encoding="utf-8") as fh:
            text = fh.read()
        try:
            commands.append(tvvi.config.parse_config(text).command)
        except ValueError:         # the experiment's own run reports it
            commands.append(None)
    print("ready", flush=True)

    results = []
    exps = plan["experiments"]
    # calibrations by process count; the one after an experiment is also
    # the one before the next at the same count
    calib = {1: calibrate()}
    setup_calib = calib[1]
    for i, exp in enumerate(exps):
        procs = exp.get("procs", 1)
        if procs not in calib:
            calib[procs] = calibrate(procs)
        before = calib[procs]
        if tracer is not None:
            tracer.experiment = exp["name"]
        error = None
        start = time.perf_counter()
        try:
            code = tvvi.cli.main(exp["argv"])
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
        except Exception:          # one failed experiment never ends the pass
            code = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        counts = {procs} | {e.get("procs", 1) for e in exps[i + 1:i + 2]}
        calib = {n: calibrate(n) for n in counts}
        results.append({"name": exp["name"], "seconds": elapsed,
                        "calib_s": (before * calib[procs]) ** 0.5,
                        "exit_code": code, "error": error})

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"experiments": results, "peak_rss_mb": kb / 1024.0,
           "setup_calib_s": setup_calib}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(
            [(e["name"], c) for e, c in zip(plan["experiments"], commands)])
        with open(plan["trace"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
