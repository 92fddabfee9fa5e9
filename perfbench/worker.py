"""One benchmark interpreter: runs a workload's operations and reports.

``run.py`` starts this script in a fresh interpreter for every process
a workload needs and reads the JSON object it prints as its last line
of standard output.  It drives the program only through its public
API: ``CompileSession`` stages and ``evalx.run_artifact``.

Modes:

* ``paper-all`` — the six paper artifacts once at ``-O2`` on one session
  over an empty store: one cold operation (and the store fill of the
  warm workload);
* ``paper-warm`` — passes over the six artifacts, each on a new session,
  over a filled store, for ``--seconds``;
* ``sim-long`` — sweeps over the catalog designs on the ``compiled``
  (1 lane) and ``vector`` (64 lanes) engines for ``--seconds``.

``--trace-dir`` turns on the traced run: operations alternate between
untraced and traced, and the traced ones record spans (see
``tracing.py``).  Check failures are counted and reported, never
raised past the operation they belong to.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback

import tracing

#: Stimulus shape of sim-long: cycles per run on each engine, lanes of
#: the vector engine, and the checked prefix of every trace.
SIM_ENGINES = (("compiled", 1, 2000), ("vector", 64, 500))
SIM_PREFIX = 64

#: Time of :func:`calibrate` on the reference host (an idle 2-vCPU VM).
#: Timed pieces are scaled by CAL_REF_S over the kernel's time measured
#: around them.
CAL_REF_S = 0.010


def calibrate() -> float:
    """Time a fixed pure-Python kernel (~15 ms): the host's current speed.

    The host is shared: its speed drifts by tens of percent over seconds
    to minutes.  The kernel, run at either end of the set-up and between
    the timed pieces of every operation, measures that drift so the
    reported times can be scaled to one reference speed.  It touches
    nothing of the program, and the collector is off while it runs, so
    the program's heap cannot change its time (it makes no reference
    cycles).
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[f"k{i % 977}"] = [i, str(i), (i, i + 1)]
        total = 0
        for key, value in sorted(table.items(), key=lambda kv: kv[1][1]):
            total += len(key) + value[0]
        return time.perf_counter() - start
    finally:
        gc.enable()


class Report:
    """Operations, failures and traced-run metrics of one interpreter."""

    def __init__(self, workload: str, args):
        self.workload = workload
        self.trace_dir = args.trace_dir
        #: the kernel's median time at the start of the interpreter, and
        #: the time those first calibrations took.
        self.first_cal, self.first_cal_s = args.first_cal
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: untraced operations: wall time, and wall time scaled to the
        #: reference host speed; traced operations: wall time.
        self.walls = []
        self.scaled_walls = []
        self.traced_walls = []
        #: every calibration sample, in order.
        self.cal = []
        self._timing = None
        self.layers = []
        self.last_trace = None
        #: artifact name -> wall time of each of its runs.
        self.artifact_s = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    def ready(self) -> None:
        """Mark the end of set-up and calibrate: the set-up is scaled by
        the mean of the kernel's median times at either end of it."""
        self.ready_at = time.monotonic()
        self.cal = [calibrate() for _ in range(9)]

    def untraced_op(self, op) -> None:
        """Run ``op()``, whose work is made of :meth:`piece` calls; its
        wall time is the sum of the pieces', calibrations excluded."""
        self.cal.append(calibrate())
        self._timing = [0.0, 0.0]
        try:
            op()
        finally:
            raw, scaled = self._timing
            self._timing = None
        self.walls.append(raw)
        self.scaled_walls.append(scaled)

    def piece(self, fn, *args, **kwargs):
        """Run one timed piece of an operation; returns ``(result, wall
        time, wall time scaled to the reference host speed)``.  In an
        untraced operation a calibration follows, and the piece is
        scaled by the mean of the calibrations on either side of it."""
        # A piece inside a piece is timed only as part of the outer one.
        timing, self._timing = self._timing, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - start
            self._timing = timing
        if timing is None:
            return result, raw, raw
        before, after = self.cal[-1], calibrate()
        self.cal.append(after)
        scaled = raw * CAL_REF_S * 2.0 / (before + after)
        timing[0] += raw
        timing[1] += scaled
        return result, raw, scaled

    def attempt(self, label: str, fn, *args, **kwargs):
        """Run one checked operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as error:
            traceback.print_exc()
            self.fail(f"{label}: {error!r}")
            return None

    def traced_op(self, op, counts_of=None):
        """Run ``op()`` under a fresh tracer; keep its layer metrics.

        ``counts_of()`` returns counters read from the program's public
        statistics after the op.  Spans outside the op (a collection
        while the wrappers were being installed) are dropped.
        """
        tracer = tracing.Tracer()
        tracer.install()
        try:
            main_tid = threading.get_ident()
            origin = time.perf_counter()
            op(tracer)
            end = time.perf_counter()
        finally:
            tracer.uninstall()
        wall = end - origin
        spans = [s for s in tracer.spans if origin <= s.start and s.end <= end]
        missing = tracing.check_coverage(spans, self.workload)
        if missing:
            self.fail(f"wrappers never fired: {', '.join(missing)}")
        problem = tracing.check_partition(spans, wall, main_tid)
        if problem:
            self.fail(f"self times do not partition the wall: {problem}")
        counts = counts_of() if counts_of is not None else {}
        self.layers.append(
            tracing.layer_metrics(spans, wall, main_tid, counts)
        )
        self.traced_walls.append(wall)
        self.last_trace = (spans, origin, wall, main_tid)

    def finish(self, extra=None) -> None:
        from repro.rtl import vector_flavor

        try:
            import numpy
            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = None
        result = {
            "ready": self.ready_at,
            "first_cal_s": self.first_cal_s,
            "setup_cal": (
                self.first_cal + statistics.median(self.cal[:9])
            ) / 2.0,
            "cal_median": statistics.median(self.cal),
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "walls": self.walls,
            "scaled_walls": self.scaled_walls,
            "traced_walls": self.traced_walls,
            "layers": self.layers,
            "artifact_s": self.artifact_s,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "python": sys.version.split()[0],
            "numpy": numpy_version,
            "vector_flavor": vector_flavor(),
        }
        result.update(extra or {})
        if self.last_trace is not None:
            spans, origin, wall, main_tid = self.last_trace
            table = tracing.self_time_table(spans, wall, main_tid)
            tracing.write_outputs(self.trace_dir, spans, origin, table)
            result["selftime"] = table
        print(json.dumps(result))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _store_bytes(store: str) -> int:
    total = 0
    for directory, _, files in os.walk(store):
        total += sum(
            os.path.getsize(os.path.join(directory, name))
            for name in files if name.endswith(".pkl")
        )
    return total


def _paper_pass(report, session, workers, tracer=None, expect=None):
    """The six artifacts in the order ``repro all`` runs them; returns
    the digest of each rendered artifact."""
    from repro import evalx

    digests = {}
    for name in sorted(evalx.ARTIFACTS):
        run = (
            evalx.run_artifact if tracer is None
            else lambda *a, **k: tracer.call(
                "artifact.run", evalx.run_artifact, a, k
            )
        )
        text, seconds, _ = report.piece(
            report.attempt, name, run, name, session=session,
            workers=workers, executor="thread",
        )
        report.artifact_s.setdefault(name, []).append(seconds)
        if text is not None:
            digests[name] = _digest(text)
    if expect is not None:
        for name, digest in digests.items():
            if expect.get(name) != digest:
                report.fail(f"{name}: rendered output differs from the "
                            "cold run's")
    return digests


def _paper_counts(sessions, store, bytes_before):
    def counts():
        components = sum(
            s.stats.counter("elaborate.components") for s in sessions
        )
        return {
            "elaborate.components": components,
            "disk.bytes_written": _store_bytes(store) - bytes_before,
        }
    return counts


def paper_all(args) -> None:
    """One cold pass: fresh interpreter, empty store, one session."""
    from repro import evalx  # noqa: F401 -- set-up, not the op, imports it
    from repro.driver import CompileSession
    from repro.rtl import compile_memo_size

    report = Report("paper-cold", args)
    if os.path.exists(args.store) and os.listdir(args.store):
        report.fail("isolation: the store is not empty at start")
    # The session `repro all -O2` builds.
    session = CompileSession(opt_level=2, cache_dir=args.store)
    report.ready()
    if compile_memo_size() != 0:
        report.fail("isolation: codegen memo not empty at start")
    digests = {}

    def op(tracer=None):
        digests.update(_paper_pass(report, session, args.workers, tracer))

    if args.trace_dir:
        report.traced_op(op, _paper_counts([session], args.store, 0))
        layers = report.layers[-1]
        stats = session.typecheck_stats()
        if (layers["smt.queries"], layers["typecheck.obligations"]) != (
            stats["solver_queries"], stats["obligations"]
        ):
            report.fail(
                "traced solver counts disagree with the session's: "
                f"{layers['smt.queries']}/{layers['typecheck.obligations']}"
                f" vs {stats['solver_queries']}/{stats['obligations']}"
            )
    else:
        report.untraced_op(op)
    disk = session.disk_stats()
    if disk["hits"] != 0:
        report.fail(f"isolation: {disk['hits']} disk hits in a cold run")
    report.finish({"digests": digests, "disk": disk})


def paper_warm(args) -> None:
    """Warm passes over a filled store, each on a new session."""
    from repro.driver import CompileSession

    report = Report("paper-warm", args)
    with open(args.expect) as handle:
        expect = json.load(handle)
    misses = []
    last = []

    def new_session_pass(tracer):
        session = CompileSession(opt_level=2, cache_dir=args.store)
        last[:] = [session]
        _paper_pass(report, session, args.workers, tracer, expect)
        return session

    def one_pass(tracer=None):
        # The pass is one piece: calibrating between its artifacts would
        # add a tenth to a 0.2 s pass.
        session, _, _ = report.piece(new_session_pass, tracer)
        disk = session.disk_stats()
        misses.append(disk["misses"])
        if disk["misses"]:
            report.fail(f"isolation: {disk['misses']} disk misses in a "
                        "warm pass")

    one_pass()  # warm-up: first-use imports and lazy set-up
    report.ready()
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace_dir and len(report.walls) > len(report.traced_walls):
            report.traced_op(
                one_pass,
                _paper_counts(last, args.store, _store_bytes(args.store)),
            )
        else:
            report.untraced_op(one_pass)
        if time.perf_counter() >= deadline and (
            not args.trace_dir or report.traced_walls
        ):
            break
    report.finish({"misses": misses})


def _sim_seed(seed: int, design: str, engine: str) -> int:
    digest = hashlib.sha256(f"{seed}:{design}:{engine}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sim_long(args) -> None:
    """Sweeps over the catalog on both engines; netlists optimized and
    the interpreter reference computed during set-up."""
    from repro.designs.catalog import DESIGNS, design_point
    from repro.driver import CompileSession
    from repro.rtl import derive_lane_seed

    report = Report("sim-long", args)
    session = CompileSession(opt_level=2)
    points, keep, cells_removed = [], [], 0
    for design in sorted(DESIGNS):
        source, component, generators, params = design_point(design)
        optimized = session.optimize(source, component, params, generators)
        keep.append(optimized)
        cells_removed += (
            optimized.value.cells_before - len(optimized.value.module.cells)
        )
        for engine, lanes, cycles in SIM_ENGINES:
            seed = _sim_seed(args.seed, design, engine)
            # The reference is the interpreter on the unoptimized netlist:
            # independent of both the passes and the engine under test.
            reference = [
                session.simulate(
                    source, component, params, generators,
                    cycles=SIM_PREFIX, seed=derive_lane_seed(seed, lane),
                    opt_level=0, backend="interp", lanes=1,
                ).value.outputs
                for lane in sorted({0, lanes - 1})
            ]
            points.append((design, engine, lanes, cycles, seed, reference,
                           (source, component, params, generators)))

    def reset():
        # The in-memory artifact cache keeps every trace; drop them all
        # and put the optimized netlists back, so memory stays bounded.
        session.cache.clear()
        for artifact in keep:
            session.cache.get_or_compute(artifact.key, lambda a=artifact: a)

    #: (design, engine) -> (wall, scaled wall) of each untraced call.
    times = {(p[0], p[1]): [] for p in points}

    def simulate(point, cycles=None):
        design, engine, lanes, full, seed, reference, where = point
        source, component, params, generators = where
        cycles = full if cycles is None else cycles
        artifact, raw, scaled = report.piece(
            session.simulate, source, component, params, generators,
            cycles=cycles, seed=seed, backend=engine, lanes=lanes,
        )
        trace = artifact.value
        outputs = [trace.outputs] if lanes == 1 else [
            trace.outputs[0], trace.outputs[-1]
        ]
        if [lane[:SIM_PREFIX] for lane in outputs] != reference:
            raise AssertionError(
                f"{design}/{engine}: trace differs from the interpreter's"
            )
        return raw, scaled

    def sweep(tracer=None):
        for point in points:
            walls = report.attempt(f"{point[0]}/{point[1]}", simulate, point)
            reset()
            if walls is not None and tracer is None:
                times[(point[0], point[1])].append(walls)

    # Warm-up: a short checked run generates the step code of every
    # netlist on both engines.
    for point in points:
        report.attempt(f"{point[0]}/{point[1]}", simulate, point, SIM_PREFIX)
        reset()
    report.ready()
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace_dir and len(report.walls) > len(report.traced_walls):
            report.traced_op(
                sweep, lambda: {"optimize.cells_removed": cells_removed}
            )
        else:
            report.untraced_op(sweep)
        if time.perf_counter() >= deadline and (
            not args.trace_dir or report.traced_walls
        ):
            break
    report.finish({
        "call_s": {f"{d}/{e}": samples for (d, e), samples in times.items()},
    })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("paper-all", "paper-warm",
                                         "sim-long"))
    parser.add_argument("--store")
    parser.add_argument("--expect")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    started = time.monotonic()
    first = statistics.median(calibrate() for _ in range(3))
    args.first_cal = (first, time.monotonic() - started)
    {"paper-all": paper_all, "paper-warm": paper_warm,
     "sim-long": sim_long}[args.mode](args)


if __name__ == "__main__":
    main()
