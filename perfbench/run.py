"""Benchmark of the Lilac reproduction, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop with one caller: the next operation
starts only after the previous one returns):

* ``paper-cold`` — the six paper artifacts at ``-O2`` on one session,
  each time in a fresh interpreter over an empty store (what a first
  ``repro all -O2`` costs);
* ``paper-warm`` — the same six artifacts, each pass on a new session,
  over a store filled during set-up (what a second ``repro all -O2``
  costs);
* ``sim-long`` — the six catalog designs simulated at ``-O2`` on the
  ``compiled`` engine (1 lane) and the ``vector`` engine (64 lanes).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
run with ``--trace 1``.  End-to-end times are scaled to one host speed
with a calibration kernel (see ``worker.calibrate``), because the
shared host's speed drifts by tens of percent; the line before the
result records the unscaled times and the rest of the environment.
See ``README.md`` for every definition.
Working files go to ``.perfbench/`` at the root of the checkout; the
traced run leaves ``trace.json`` (Chrome trace events) and
``selftime.txt`` in ``.perfbench/out/<workload>/``.

Every interpreter the benchmark starts gets an environment without any
``REPRO_*`` variable, so a caller's settings cannot change what is
measured.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# Neither module imports any part of the program at import time.
import tracing  # noqa: E402
from worker import CAL_REF_S, SIM_ENGINES  # noqa: E402

#: Every run, set-up included, must end within this many seconds.
RUN_LIMIT_S = 170.0

#: Cold operations a paper-cold run makes at least, whatever --seconds.
MIN_COLD_OPS = 2

#: Interpreters a sim-long run splits its --seconds over, each with
#: its own set-up, so that setup_s is a median of several.
SIM_INTERPRETERS = 3

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))


class ChildFailed(Exception):
    pass


class Run:
    """One benchmark run: its arguments, directories and deadline."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        base = os.path.join(ROOT, ".perfbench")
        self.work = os.path.join(base, "work", f"{args.workload}-{os.getpid()}")
        self.out = os.path.join(base, "out", args.workload)
        self.workers = len(os.sched_getaffinity(0))
        self.env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        self.cleared = sorted(
            key for key in os.environ if key.startswith("REPRO_")
        )
        self.env["PYTHONPATH"] = SRC
        # String hashing (set and dict order) follows the workload seed:
        # the same seed reproduces a run, other seeds vary the order.
        self.env["PYTHONHASHSEED"] = str(args.seed % 4294967296)
        self.children = []

    def child(self, mode: str, *extra: str, trace: bool = False) -> dict:
        """Run ``worker.py <mode>`` in a fresh interpreter; returns its
        report plus the monotonic time it was started at."""
        command = [sys.executable, WORKER, mode, "--seed",
                   str(self.args.seed), "--workers", str(self.workers),
                   *extra]
        if trace:
            command += ["--trace-dir", self.out]
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise ChildFailed(f"{mode}: no time left in the run")
        spawned = time.monotonic()
        try:
            done = subprocess.run(
                command, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode}: timed out after {remaining:.0f}s")
        ended = time.monotonic()
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise ChildFailed(f"{mode}: exited with {done.returncode}")
        report = json.loads(lines[-1])
        report["spawned"] = spawned
        report["ended"] = ended
        self.children.append(report)
        return report

    def store(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        return path


def _setup(report):
    """(wall, scaled) seconds from an interpreter's start to the end of
    its set-up, the first calibrations excluded; scaled by the mean of
    the kernel's median times at either end of the set-up."""
    wall = report["ready"] - report["spawned"] - report["first_cal_s"]
    return wall, wall * CAL_REF_S / report["setup_cal"]


def paper_cold(run: Run):
    """Cold operations in fresh interpreters until --seconds have
    passed, at least MIN_COLD_OPS; traced runs alternate untraced and
    traced ones."""
    trace = bool(run.args.trace)
    deadline = time.monotonic() + run.args.seconds
    reports = []
    while time.monotonic() < deadline or len(reports) < MIN_COLD_OPS:
        traced = trace and len(reports) % 2 == 1
        store = run.store(f"cold-{len(reports)}")
        reports.append(run.child("paper-all", "--store", store, trace=traced))
        shutil.rmtree(store, ignore_errors=True)
    setups = [_setup(r) for r in reports]
    return {
        "setup_s": statistics.median(s for _, s in setups),
        "op_s": statistics.median(
            w for r in reports for w in r["scaled_walls"]
        ),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
    }, {
        "setup_wall_s": statistics.median(w for w, _ in setups),
        "op_wall_s": statistics.median(w for r in reports for w in r["walls"]),
    }, reports


def paper_warm(run: Run):
    """Fill a store in a cold interpreter, then time warm passes."""
    store = run.store("warm")
    fill = run.child("paper-all", "--store", store)
    expect = os.path.join(run.work, "expect.json")
    with open(expect, "w") as handle:
        json.dump(fill["digests"], handle)
    warm = run.child(
        "paper-warm", "--store", store, "--expect", expect,
        "--seconds", str(run.args.seconds), trace=bool(run.args.trace),
    )
    fill_wall, fill_scaled = _setup(fill)
    warm_wall, warm_scaled = _setup(warm)
    # A mean, not a median: a gen-2 collection can land in some passes
    # only, and a median would flip between the two modes.
    return {
        "setup_s": fill_scaled + sum(fill["scaled_walls"]) + warm_scaled,
        "op_s": statistics.fmean(warm["scaled_walls"]),
        "peak_rss_mb": warm["rss_mb"],
    }, {
        "setup_wall_s": fill_wall + sum(fill["walls"]) + warm_wall,
        "op_wall_s": statistics.fmean(warm["walls"]),
    }, [warm]


def sim_long(run: Run):
    """Sweeps over the catalog designs, --seconds split over
    SIM_INTERPRETERS interpreters; each call's time is its median over
    every sweep of the run."""
    seconds = run.args.seconds / SIM_INTERPRETERS
    sims = [
        run.child("sim-long", "--seconds", str(seconds),
                  trace=bool(run.args.trace))
        for _ in range(SIM_INTERPRETERS)
    ]
    setups = [_setup(sim) for sim in sims]
    calls = {}
    for sim in sims:
        for call, samples in sim["call_s"].items():
            calls.setdefault(call, []).extend(samples)
    medians = {
        call: [statistics.median(column) for column in zip(*samples)]
        for call, samples in calls.items() if samples
    }
    work = {engine: lanes * cycles for engine, lanes, cycles in SIM_ENGINES}

    def rate(engine):
        return _geomean([
            work[engine] / raw for call, (raw, _) in medians.items()
            if call.endswith("/" + engine)
        ])

    return {
        "setup_s": statistics.median(s for _, s in setups),
        "op_s": _geomean([scaled for _, scaled in medians.values()]),
        "peak_rss_mb": statistics.median(sim["rss_mb"] for sim in sims),
    }, {
        "setup_wall_s": statistics.median(w for w, _ in setups),
        "op_wall_s": _geomean([raw for raw, _ in medians.values()]),
        "sim_scalar_cps": rate("compiled"),
        "sim_lane_cps": rate("vector"),
        "call_median_s": {call: m[0] for call, m in medians.items()},
    }, sims


def _geomean(values):
    if not values:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


WORKLOADS = {
    "paper-cold": paper_cold,
    "paper-warm": paper_warm,
    "sim-long": sim_long,
}


def _layer_metrics(reports):
    """Per-layer metrics averaged over every traced operation, plus the
    tracing overhead: traced minus untraced mean operation time."""
    layers = [layer for r in reports for layer in r["layers"]]
    traced = [w for r in reports for w in r["traced_walls"]]
    untraced = [w for r in reports for w in r["walls"]]
    if not layers or not untraced:
        raise ChildFailed("the traced run made no traced or no untraced op")
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        value = statistics.fmean(layer[name] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"]["value"] = (
        statistics.fmean(traced) - statistics.fmean(untraced)
    )
    return metrics


def _declared_metrics(trace: bool):
    """Sorted metric names BENCHMARK.json declares for this mode, or
    None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return sorted(entry["name"] for entry in declared)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the Lilac reproduction."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    # and waited for (subprocess.run does that on any exception).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    run = Run(args)
    load_before = os.getloadavg()
    # Byte-compile first, so no measured interpreter pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   env=run.env, stdout=subprocess.DEVNULL, check=True)
    try:
        e2e, unscaled, measured = WORKLOADS[args.workload](run)
        metrics = (
            _layer_metrics(measured) if args.trace else
            {name: {"value": e2e[name], "unit": unit}
             for name, unit in END_TO_END}
        )
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    declared = _declared_metrics(bool(args.trace))
    if declared is not None and declared != sorted(metrics):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in run.children)
    failed = sum(r["failed"] for r in run.children)
    errors = [e for r in run.children for e in r["errors"]]
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": run.workers,
        "python": run.children[-1]["python"],
        "numpy": run.children[-1]["numpy"],
        "vector_flavor": run.children[-1]["vector_flavor"],
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "repro_env_cleared": run.cleared,
        "operations": sum(len(r["walls"]) for r in measured),
        "calibration_median_s": statistics.median(
            r["cal_median"] for r in run.children
        ),
        "errors": errors,
    }
    environment.update(unscaled)
    os.makedirs(run.out, exist_ok=True)
    with open(os.path.join(run.out, f"result-seed{args.seed}.json"),
              "w") as handle:
        json.dump({"environment": environment, "e2e": e2e,
                   "children": run.children}, handle, indent=1)
    correct = failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    print("perfbench-environment " + json.dumps(environment))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
