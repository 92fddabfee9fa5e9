"""Outside-in span tracing for the benchmark's traced runs.

The program under test has no spans of its own yet, so this module
wraps each layer's public entry points from the outside and records one
span per call: name, thread, start, end and parent span.  Spans stay in
memory until the run ends; :func:`layer_metrics` turns them into the
per-layer metrics, :func:`write_outputs` into a Chrome trace-event file
(opens in Perfetto or ``chrome://tracing``) and a per-thread self-time
table.

A function imported by name (``from ..synth import synthesize``) is
looked up in the *caller's* module, so wrapping it where it is defined
would intercept nothing.  :meth:`Tracer.install` therefore replaces the
function in every ``repro`` module that holds a reference to it.  The
coverage check in :func:`check_coverage` catches a wrapper that still
never fires.

Self time is a span's duration minus the durations of its children on
the same thread.  A grid point runs on a pool thread while the thread
that called ``EvalGrid.map`` waits, so the map span's self time is that
wait, and the point's time counts once, on the pool thread.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import os
import pkgutil
import re
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: CompileSession stage methods, each traced as ``stage.<name>``.
STAGES = (
    "parse", "typecheck", "elaborate", "optimize", "simulate",
    "emit_verilog", "synthesize",
)

#: Span name -> the per-layer self-time metric it feeds.
LAYER_OF_SPAN = {
    "stage.parse": "parse.self_s",
    "parse.run": "parse.self_s",
    "stage.typecheck": "typecheck.self_s",
    "typecheck.check": "typecheck.self_s",
    "smt.canonicalize": "smt.canonicalize_s",
    "smt.solve": "smt.solve_s",
    "stage.elaborate": "elaborate.self_s",
    "stage.optimize": "optimize.self_s",
    "passes.run": "optimize.self_s",
    "profile.collect": "profile.collect_s",
    "codegen": "codegen.s",
    "stimulus": "stimulus.s",
    "stage.simulate": "simulate.self_s",
    "simulate.run": "simulate.run_s",
    "stage.synthesize": "synthesize.self_s",
    "synth.run": "synthesize.self_s",
    "stage.emit_verilog": "emit_verilog.self_s",
    "disk.load": "disk.read_s",
    "disk.store": "disk.write_s",
    "grid.map": "grid.map_s",
    "grid.point": "artifact.self_s",
    "artifact.run": "artifact.self_s",
    "runtime.gc": "runtime.gc_s",
}

#: The optimization passes whose time is reported one by one.
PASSES = (
    "constant-fold", "dead-cell-elim", "common-cell-sharing",
    "delay-coalesce", "dead-toggle-gating", "hot-cone-specialization",
    "profile-ordered-levelization",
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("parse.self_s", "s", "lower"),
    ("parse.calls", "count", "lower"),
    ("typecheck.self_s", "s", "lower"),
    ("typecheck.obligations", "count", "lower"),
    ("typecheck.hit_ratio", "ratio", "higher"),
    ("smt.solve_s", "s", "lower"),
    ("smt.canonicalize_s", "s", "lower"),
    ("smt.queries", "count", "lower"),
    ("elaborate.self_s", "s", "lower"),
    ("elaborate.components", "count", "lower"),
    ("optimize.self_s", "s", "lower"),
] + [(f"pass.{name}.s", "s", "lower") for name in PASSES] + [
    ("optimize.cells_removed", "count", "higher"),
    ("profile.collect_s", "s", "lower"),
    ("codegen.s", "s", "lower"),
    ("codegen.calls", "count", "lower"),
    ("stimulus.s", "s", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.run_s", "s", "lower"),
    ("simulate.lane_cycles", "count", "higher"),
    ("synthesize.self_s", "s", "lower"),
    ("emit_verilog.self_s", "s", "lower"),
    ("disk.write_s", "s", "lower"),
    ("disk.writes", "count", "lower"),
    ("disk.bytes_written", "bytes", "lower"),
    ("disk.read_s", "s", "lower"),
    ("disk.reads", "count", "lower"),
    ("disk.hit_ratio", "ratio", "higher"),
    ("grid.map_s", "s", "lower"),
    ("grid.points", "count", "lower"),
    ("grid.queue_wait_s", "s", "lower"),
    ("artifact.self_s", "s", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_gen2", "count", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

#: Spans that must fire at least once in a traced operation of each
#: workload: the layers that do work there.  A wrapper that never fires
#: on such a workload fails the run (the bind-by-name trap).
EXPECTED_SPANS = {
    "paper-cold": (
        "artifact.run", "stage.parse", "parse.run", "stage.typecheck",
        "typecheck.check", "smt.canonicalize", "smt.solve",
        "stage.elaborate", "stage.optimize", "passes.run",
        "pass.constant-fold", "pass.dead-cell-elim",
        "pass.common-cell-sharing", "pass.delay-coalesce",
        "profile.collect", "codegen", "stimulus", "stage.simulate",
        "simulate.run", "stage.synthesize", "synth.run", "disk.load",
        "disk.store", "grid.map", "grid.point", "runtime.gc",
    ),
    "paper-warm": (
        "artifact.run", "disk.load", "grid.map", "grid.point",
        "runtime.gc",
    ),
    "sim-long": (
        "stage.simulate", "codegen", "stimulus", "simulate.run",
        "runtime.gc",
    ),
}


class Span:
    __slots__ = ("sid", "parent", "name", "tid", "thread", "start", "end",
                 "attrs")

    def __init__(self, sid, parent, name, tid, thread, start, end, attrs):
        self.sid = sid
        self.parent = parent
        self.name = name
        #: thread ident (reused by later threads) and thread name.
        self.tid = tid
        self.thread = thread
        self.start = start
        self.end = end
        self.attrs = attrs


class Tracer:
    """Records spans from wrappers it patches into the program.

    Recording takes no lock: a garbage collection can start inside the
    bookkeeping of another span, and its callback records a span too.
    ``list.append`` and ``next()`` on a counter are atomic under the
    interpreter lock, and each thread pushes and pops only its own stack.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            self._local.thread = threading.current_thread().name
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, name, start, end, attrs) -> None:
        self.spans.append(Span(
            sid, parent, name, threading.get_ident(), self._local.thread,
            start, end, attrs,
        ))

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             on_result=None, parent: Optional[int] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``on_result(result)`` returns the span's attrs;
        ``parent`` overrides the thread's innermost open span.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        attrs = None
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            if on_result is not None:
                attrs = on_result(result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(sid, parent, name, start, end, attrs)

    def wrap(self, name: str, fn: Callable, on_result=None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        stack = self._stack()
        if phase == "start":
            sid = next(self._ids)
            self._local.gc = (sid, stack[-1] if stack else None,
                              time.perf_counter(), info.get("generation"))
            stack.append(sid)
            return
        pending = getattr(self._local, "gc", None)
        if pending is None:
            return
        end = time.perf_counter()
        sid, parent, start, generation = pending
        self._local.gc = None
        if stack and stack[-1] == sid:
            stack.pop()
        self._record(sid, parent, "runtime.gc", start, end,
                     {"generation": generation})

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr: str, name: str, on_result=None):
        if attr in cls.__dict__:
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr],
                                           on_result))

    def _patch_function(self, original, name: str) -> int:
        """Replace ``original`` in every ``repro`` module that binds it."""
        wrapper = self.wrap(name, original)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    bound += 1
        return bound

    def install(self) -> None:
        """Patch every layer's entry points and start GC accounting."""
        import repro

        # Import every module first, so a by-name binding made by a lazy
        # import still sees the wrapper, and every binding is patched.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        from repro import smt
        from repro.driver import CompileSession, EvalGrid
        from repro.driver.cache import DiskCache
        from repro.lilac import stdlib
        from repro.lilac.parser import parse_program
        from repro.lilac.typecheck import check_component, check_program
        from repro.rtl import (
            BatchedCompiledSimulator, CompiledSimulator, Simulator,
            VectorCompiledSimulator, collect_profile, compile_netlist,
            compile_vector_netlist, random_stimulus, random_stimulus_batch,
        )
        from repro.rtl.passes import Pass, PassManager
        from repro.synth import synthesize

        for stage in STAGES:
            self._patch_method(CompileSession, stage, f"stage.{stage}")
        for function, name in (
            (stdlib.stdlib_program, "parse.run"),
            (parse_program, "parse.run"),
            (check_program, "typecheck.check"),
            (check_component, "typecheck.check"),
            (smt.canonical_query, "smt.canonicalize"),
            (synthesize, "synth.run"),
            (collect_profile, "profile.collect"),
            (compile_netlist, "codegen"),
            (compile_vector_netlist, "codegen"),
            (random_stimulus, "stimulus"),
            (random_stimulus_batch, "stimulus"),
        ):
            if not self._patch_function(function, name):
                raise RuntimeError(f"no module binds {function!r}")
        for cls in (smt.Solver, smt.IncrementalSolver):
            self._patch_method(cls, "check", "smt.solve")
        self._patch_method(PassManager, "run", "passes.run", _cells_removed)
        for cls in _subclasses(Pass):
            self._patch_method(cls, "run", f"pass.{cls.name}")
        for cls in (Simulator, CompiledSimulator, BatchedCompiledSimulator,
                    VectorCompiledSimulator):
            for attr in ("run", "run_batch"):
                self._patch_method(cls, attr, "simulate.run", _lane_cycles)
        self._patch_method(DiskCache, "load", "disk.load", _loaded)
        self._patch_method(DiskCache, "store", "disk.store", _stored)
        self._set(EvalGrid, "map", self._traced_map(EvalGrid.__dict__["map"]))
        gc.callbacks.append(self._gc_callback)

    def _traced_map(self, original_map) -> Callable:
        """``EvalGrid.map`` whose point function records ``grid.point``
        spans parented to the map span, on whichever thread runs them.
        A point's queue wait is the time from the map call to its start
        on a pool thread (the grid submits every point up front)."""
        tracer = self

        def traced_map(grid, fn, points):
            points = list(points)
            map_tid = threading.get_ident()
            opened = {}

            def point_fn(session, point):
                waited = 0.0
                if threading.get_ident() != map_tid:
                    waited = time.perf_counter() - opened["start"]
                return tracer.call(
                    "grid.point", fn, (session, point),
                    on_result=lambda _: {"queue_wait": waited},
                    parent=opened["sid"],
                )

            def run_map():
                opened["sid"] = tracer._stack()[-1]
                opened["start"] = time.perf_counter()
                return original_map(grid, point_fn, points)

            return tracer.call(
                "grid.map", run_map,
                on_result=lambda _: {"points": len(points)},
            )

        traced_map.__wrapped__ = original_map
        return traced_map

    def uninstall(self) -> None:
        """Undo every patch, newest first, and stop GC accounting."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _subclasses(cls) -> List[type]:
    found, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        found.append(sub)
        todo.extend(sub.__subclasses__())
    return found


def _cells_removed(result):
    return {"cells_removed": sum(stat.cells_removed for stat in result)}


def _lane_cycles(result):
    if result and isinstance(result[0], list):
        return {"lane_cycles": sum(len(trace) for trace in result)}
    return {"lane_cycles": len(result)}


def _loaded(result):
    return {"hit": result is not None}


def _stored(result):
    return {"stored": bool(result)}


# -- analysis ---------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus its same-thread children's durations."""
    own = {span.sid: span.end - span.start for span in spans}
    by_id = {span.sid: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.tid == span.tid:
            own[parent.sid] -= span.end - span.start
    return own


def layer_metrics(spans: List[Span], wall: float, main_tid: int,
                  counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced operation.

    ``wall`` is the operation's wall time on ``main_tid``; ``counts``
    supplies the values no span carries (``elaborate.components`` from
    the session's statistics, ``disk.bytes_written`` from the store).
    Counts of nested same-name spans (a batch stimulus call that makes
    single ones) are of the outermost span only.
    """
    own = self_times(spans)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for span in spans:
        layer = LAYER_OF_SPAN.get(span.name)
        if layer is None and span.name.startswith("pass."):
            layer = f"{span.name}.s"
        if layer is None or layer not in metrics:
            raise KeyError(f"span {span.name!r} belongs to no layer")
        metrics[layer] += own[span.sid]
    by_id = {span.sid: span for span in spans}

    def outermost(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == span.name:
                return False
            parent = by_id.get(parent.parent)
        return True

    loads = hits = 0
    for span in spans:
        attrs = span.attrs or {}
        if span.name == "parse.run" and outermost(span):
            metrics["parse.calls"] += 1
        elif span.name == "codegen" and outermost(span):
            metrics["codegen.calls"] += 1
        elif span.name == "smt.solve" and outermost(span):
            metrics["smt.queries"] += 1
        elif span.name == "smt.canonicalize":
            metrics["typecheck.obligations"] += 1
        elif span.name == "passes.run":
            metrics["optimize.cells_removed"] += attrs.get("cells_removed", 0)
        elif span.name == "simulate.run" and outermost(span):
            metrics["simulate.lane_cycles"] += attrs.get("lane_cycles", 0)
        elif span.name == "disk.load":
            loads += 1
            hits += bool(attrs.get("hit"))
        elif span.name == "disk.store":
            metrics["disk.writes"] += bool(attrs.get("stored"))
        elif span.name == "grid.map":
            metrics["grid.points"] += attrs.get("points", 0)
        elif span.name == "grid.point":
            metrics["grid.queue_wait_s"] += attrs.get("queue_wait", 0.0)
        elif span.name == "runtime.gc" and attrs.get("generation") == 2:
            metrics["runtime.gc_gen2"] += 1
    metrics["disk.reads"] = loads
    metrics["disk.hit_ratio"] = hits / loads if loads else 0.0
    obligations = metrics["typecheck.obligations"]
    metrics["typecheck.hit_ratio"] = (
        1.0 - metrics["smt.queries"] / obligations if obligations else 0.0
    )
    main_self = sum(own[s.sid] for s in spans if s.tid == main_tid)
    metrics["other.self_s"] = wall - main_self
    metrics["trace.wall_s"] = wall
    for name, value in counts.items():
        metrics[name] = value
    return metrics


def check_partition(spans: List[Span], wall: float,
                    main_tid: int) -> Optional[str]:
    """None iff the spans nest, so that every self time is >= 0 and the
    main thread's self times plus ``other.self_s`` sum to its wall time.

    On every thread, each span must lie inside its same-thread parent
    and must not overlap its siblings (the other children of that
    parent, or the thread's other top-level spans); the main thread's
    top-level spans must fit in the wall.
    """
    by_id = {span.sid: span for span in spans}
    siblings: Dict[Tuple[int, Optional[int]], List[Span]] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None or parent.tid != span.tid:
            parent = None
        elif span.start < parent.start or span.end > parent.end:
            return f"{span.name} is not inside its parent {parent.name}"
        key = (span.tid, parent.sid if parent is not None else None)
        siblings.setdefault(key, []).append(span)
    for group in siblings.values():
        group.sort(key=lambda span: span.start)
        for before, after in zip(group, group[1:]):
            if after.start < before.end:
                return f"spans {before.name}, {after.name} overlap"
    covered = sum(span.end - span.start
                  for span in siblings.get((main_tid, None), ()))
    if covered > wall + 1e-6:
        return f"spans cover {covered:.6f}s of a {wall:.6f}s wall"
    return None


def check_coverage(spans: List[Span], workload: str) -> List[str]:
    """Names of expected spans that never fired in this operation."""
    fired = {span.name for span in spans}
    return [name for name in EXPECTED_SPANS[workload] if name not in fired]


def self_time_table(spans: List[Span], wall: float,
                    main_tid: int) -> Dict[str, Dict[str, float]]:
    """Thread name -> span name -> summed self time (plus ``other`` on
    the main thread)."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        # Each grid map starts a fresh pool; fold its k-th worker into
        # one row per worker index.
        thread = re.sub(r"ThreadPoolExecutor-\d+_", "pool-worker-",
                        span.thread)
        row = table.setdefault(thread, {})
        row[span.name] = row.get(span.name, 0.0) + own[span.sid]
    main = table.setdefault(threading.main_thread().name, {})
    main["other"] = wall - sum(
        own[s.sid] for s in spans if s.tid == main_tid
    )
    return table


def write_outputs(directory: str, spans: List[Span], origin: float,
                  table: Dict[str, Dict[str, float]]) -> None:
    """Write ``trace.json`` (Chrome trace events) and ``selftime.txt``."""
    os.makedirs(directory, exist_ok=True)
    pid = os.getpid()
    threads = sorted({(span.tid, span.thread) for span in spans},
                     key=lambda thread: thread[1])
    tids = {thread: index for index, thread in enumerate(threads, start=1)}
    events = [
        {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
         "args": {"name": thread[1]}}
        for thread, tid in tids.items()
    ]
    for span in spans:
        args = {"id": span.sid, "parent": span.parent}
        args.update(span.attrs or {})
        events.append({
            "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
            "pid": pid, "tid": tids[(span.tid, span.thread)],
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "args": args,
        })
    with open(os.path.join(directory, "trace.json"), "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    lines = []
    for thread, row in sorted(table.items()):
        lines.append(f"{thread}: {sum(row.values()):.6f} s")
        for name, seconds in sorted(row.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:32s} {seconds:12.6f} s")
    with open(os.path.join(directory, "selftime.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
