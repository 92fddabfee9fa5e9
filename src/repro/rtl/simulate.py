"""Cycle-accurate two-phase simulator for RTL netlists.

Each cycle:

1. input ports are poked;
2. combinational logic is evaluated in topological order;
3. outputs can be sampled;
4. on ``tick`` the sequential cells (registers, FIFOs) latch.

Combinational loops are rejected at construction.  Values are Python ints
masked to net widths (two's-complement-free: all arithmetic is unsigned
modulo 2^width, like Verilog's unsigned semantics).
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from collections import deque
from collections.abc import Sequence as SequenceABC
from typing import Dict, List, Optional, Sequence, Tuple

from .netlist import Cell, Module, Net, NetlistError, comb_topo_order, flatten


def _mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def eval_comb_cell(cell: Cell, values: Dict[Net, int]) -> int:
    """Evaluate one combinational cell over ``values`` (a Net → int map).

    Returns the value of the cell's ``out`` pin, masked to its width.
    This is the single definition of combinational semantics: the
    simulator applies it per cycle and the constant-folding pass applies
    it at compile time, so folding can never diverge from simulation.
    """
    kind = cell.kind
    pins = cell.pins
    out = pins["out"]
    if kind == "const":
        return _mask(int(cell.params["value"]), out.width)
    if kind in ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "eq", "lt"):
        a = values[pins["a"]]
        b = values[pins["b"]]
        if kind == "add":
            result = a + b
        elif kind == "sub":
            result = a - b
        elif kind == "mul":
            result = a * b
        elif kind == "div":
            result = a // b if b else 0
        elif kind == "mod":
            result = a % b if b else 0
        elif kind == "and":
            result = a & b
        elif kind == "or":
            result = a | b
        elif kind == "xor":
            result = a ^ b
        elif kind == "eq":
            result = 1 if a == b else 0
        else:  # lt
            result = 1 if a < b else 0
        return _mask(result, out.width)
    if kind == "not":
        return _mask(~values[pins["a"]], out.width)
    if kind == "shl":
        return _mask(values[pins["a"]] << int(cell.params["amount"]), out.width)
    if kind == "shr":
        return _mask(values[pins["a"]] >> int(cell.params["amount"]), out.width)
    if kind == "mux":
        sel = values[pins["sel"]] & 1
        return _mask(values[pins["a"]] if sel else values[pins["b"]], out.width)
    if kind == "slice":
        return _mask(values[pins["a"]] >> int(cell.params["lsb"]), out.width)
    if kind == "concat":
        b_net = pins["b"]
        return _mask(
            (values[pins["a"]] << b_net.width) | values[b_net], out.width
        )
    raise NetlistError(f"cannot evaluate cell kind {kind!r}")


#: array typecode of an unsigned 32-bit word on this host.
_U32 = "I" if array("I").itemsize == 4 else "L"


def _words32(width: int) -> int:
    """32-bit words one ``getrandbits(width)`` call consumes."""
    return (width + 31) // 32


def dict_rows(
    names: Sequence[str], columns: Sequence[Sequence[int]], cycles: int
) -> List[Dict[str, int]]:
    """Per-cycle ``{name: value}`` dicts from per-name value columns."""
    if not names:
        return [{} for _ in range(cycles)]
    if len(names) == 1:
        name = names[0]
        return [{name: value} for value in columns[0]]
    return [dict(zip(names, row)) for row in zip(*columns)]


class Stimulus(SequenceABC):
    """One lane's input stream, kept as raw little-endian 32-bit words.

    Each cycle is a row of ``stride`` words; port ``p`` of width ``w``
    owns ``ceil(w / 32)`` consecutive words of it, lowest word first,
    and its value sits in the top ``w`` bits of those words — the exact
    shape of the words one ``random.Random.getrandbits(w)`` call draws
    (CPython takes whole Mersenne words, lowest first, and right-shifts
    only the top one).  So one ``getrandbits(32 * stride * cycles)``
    call yields the same values as ``cycles * len(ports)`` per-port
    draws, and the engines decode whole columns from the words without
    building a dict per cycle.

    It still reads as the list of per-cycle ``{port: value}`` dicts it
    stands for (built on first use): indexing, iteration, ``len`` and
    ``==`` against such a list all behave as on the list.
    """

    __slots__ = ("ports", "cycles", "words", "_columns", "_rows")

    def __init__(self, ports: Sequence[Tuple[str, int]], cycles: int,
                 words: bytes, columns: Optional[Dict[str, List[int]]] = None):
        #: ``(name, width)`` per port, in word order.
        self.ports = tuple(ports)
        self.cycles = int(cycles)
        self.words = words
        self._columns = columns
        self._rows: Optional[List[Dict[str, int]]] = None

    @property
    def stride(self) -> int:
        """32-bit words per cycle."""
        return sum(_words32(width) for _, width in self.ports)

    @classmethod
    def from_vectors(
        cls, ports: Sequence[Tuple[str, int]],
        vectors: Sequence[Optional[Dict[str, int]]],
        initial: Optional[Dict[str, int]] = None,
    ) -> "Stimulus":
        """Encode per-cycle input dicts over ``ports``.

        Values are masked to their port's width.  A port a cycle omits
        (or every port, for an empty or None cycle) keeps its previous
        value, starting from ``initial`` (0 where it has no entry) —
        what poking the dicts one by one into an engine does.  Every
        name in the dicts must be one of ``ports``.
        """
        ports = tuple(ports)
        masks = {name: (1 << width) - 1 for name, width in ports}
        current = {name: (initial or {}).get(name, 0) for name, _ in ports}
        columns: Dict[str, List[int]] = {name: [] for name, _ in ports}
        for vector in vectors:
            if vector:
                for name, value in vector.items():
                    current[name] = int(value) & masks[name]
            for name, column in columns.items():
                column.append(current[name])
        # Encode each cycle as one int of ``stride`` words, the top word
        # of every port holding its high bits left-aligned.
        rows = [0] * len(vectors)
        base = 0
        for name, width in ports:
            n_words = _words32(width)
            top = 32 * (n_words - 1)
            shift = 32 * n_words - width
            low = (1 << top) - 1
            rows = [
                row | ((((value >> top) << (top + shift)) | (value & low))
                       << base)
                for row, value in zip(rows, columns[name])
            ]
            base += 32 * n_words
        words = b"".join(row.to_bytes(base // 8, "little") for row in rows)
        return cls(ports, len(vectors), words, columns)

    def columns(self) -> Dict[str, List[int]]:
        """Port name → its value on every cycle (decoded once)."""
        if self._columns is None:
            words = array(_U32)
            words.frombytes(self.words)
            if sys.byteorder == "big":
                words.byteswap()
            stride = self.stride
            columns: Dict[str, List[int]] = {}
            offset = 0
            for name, width in self.ports:
                n_words = _words32(width)
                shift = 32 * n_words - width
                top = offset + n_words - 1
                column = words[top::stride].tolist()
                if shift:
                    column = [value >> shift for value in column]
                for index in range(top - 1, offset - 1, -1):
                    column = [
                        (high << 32) | low
                        for high, low in zip(column, words[index::stride])
                    ]
                columns[name] = column
                offset += n_words
            self._columns = columns
        return self._columns

    def _vectors(self) -> List[Dict[str, int]]:
        if self._rows is None:
            columns = self.columns()
            names = [name for name, _ in self.ports]
            self._rows = dict_rows(
                names, [columns[name] for name in names], self.cycles
            )
        return self._rows

    def __len__(self) -> int:
        return self.cycles

    def __getitem__(self, index):
        return self._vectors()[index]

    def __iter__(self):
        return iter(self._vectors())

    def __eq__(self, other) -> bool:
        if isinstance(other, Stimulus) and other.ports == self.ports:
            return (other.cycles == self.cycles
                    and other.columns() == self.columns())
        if isinstance(other, (Stimulus, list, tuple)):
            return self._vectors() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        ports = ", ".join(f"{name}[{width}]" for name, width in self.ports)
        return f"Stimulus({self.cycles} cycles of {ports})"


def lane_words64(stimuli: Sequence[Stimulus], np) -> Dict[str, object]:
    """Each port of equal-layout ``stimuli`` as numpy uint64 words.

    Port name → array of shape ``(lanes, cycles, ceil(width / 64))``,
    lowest word first.  ``np`` is the numpy module; the lanes' words
    are read with one ``frombuffer`` each.
    """
    first = stimuli[0]
    raw = np.stack([
        np.frombuffer(stimulus.words, "<u4") for stimulus in stimuli
    ]).reshape(len(stimuli), first.cycles, first.stride)
    ports: Dict[str, object] = {}
    offset = 0
    for name, width in first.ports:
        n_words = _words32(width)
        chunks = raw[:, :, offset:offset + n_words].astype(np.uint64)
        offset += n_words
        shift = 32 * n_words - width
        if shift:
            chunks[:, :, -1] >>= np.uint64(shift)
        if n_words % 2:
            chunks = np.concatenate(
                [chunks, np.zeros_like(chunks[:, :, :1])], axis=2
            )
        high = chunks[:, :, 1::2] << np.uint64(32)
        ports[name] = chunks[:, :, 0::2] | high
    return ports


def lane_stimuli(
    streams: Sequence[Sequence[Dict[str, int]]],
    ports: Dict[str, int],
    initial: Sequence[Dict[str, int]],
    where: str,
) -> List[Stimulus]:
    """Every lane's stream as a :class:`Stimulus` over an engine's inputs.

    ``ports`` maps the engine's input names to widths and ``initial``
    holds each lane's current input values.  Stimuli whose ports all
    match ``ports`` pass through as they are; anything else (plain dict
    lists, or stimuli of another port layout) is re-encoded over the
    ports the streams drive, which masks values and carries a port a
    cycle omits forward from the lane's previous value.  An unknown port
    name or lanes of unequal length raise :class:`NetlistError`.
    """
    streams = list(streams)
    first = streams[0] if streams else None
    if isinstance(first, Stimulus) and all(
        isinstance(stream, Stimulus) and stream.ports == first.ports
        for stream in streams
    ) and all(ports.get(name) == width for name, width in first.ports):
        lengths = {stream.cycles for stream in streams}
    else:
        streams = [list(stream) for stream in streams]
        lengths = {len(stream) for stream in streams}
        driven = set()
        for stream in streams:
            for vector in stream:
                if vector:
                    driven.update(vector)
        unknown = sorted(driven - set(ports))
        if unknown:
            raise NetlistError(f"{where}: no input port {unknown[0]!r}")
        layout = [(name, width) for name, width in ports.items()
                  if name in driven]
        streams = [
            Stimulus.from_vectors(layout, stream, values)
            for stream, values in zip(streams, initial)
        ]
    if len(lengths) > 1:
        raise NetlistError(
            f"{where}: lane streams differ in length: {sorted(lengths)}"
        )
    return streams


def random_stimulus(
    module: Module, cycles: int, seed: int = 0, bias: float = 0.0
) -> Stimulus:
    """Reproducible per-cycle input vectors for every input port.

    The same ``(module ports, cycles, seed, bias)`` always yields the
    same stream — ``random.Random`` is a platform-independent Mersenne
    twister — so differential-simulation tests are stable across runs
    and machines.  Ports are visited in declaration order.  The result
    is a :class:`Stimulus`: it reads as the list of per-cycle dicts,
    and the codegen engines decode it column by column.

    ``bias`` mixes corner vectors into the stream: with that probability
    (drawn from the same seeded generator, so still fully deterministic)
    a port gets all-zeros, all-ones, or the top-bit-set max-magnitude
    value instead of a uniform draw.  Pure-random vectors almost never
    exercise overflow/zero corners in wide datapaths; ``bias=0`` (the
    default) preserves the historical stream exactly.
    """
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must be within [0, 1], got {bias!r}")
    rng = random.Random(seed)
    inputs = module.inputs()
    ports = [(name, net.width) for name, net in inputs]
    if not bias:
        # One draw for the whole stream: bit-identical to the historical
        # per-port draws (see Stimulus).
        size = 4 * sum(_words32(width) for _, width in ports) * cycles
        draw = rng.getrandbits(8 * size) if size else 0
        return Stimulus(ports, cycles, draw.to_bytes(size, "little"))
    vectors: List[Dict[str, int]] = []
    for _ in range(cycles):
        vector: Dict[str, int] = {}
        for name, net in inputs:
            if rng.random() < bias:
                width = net.width
                vector[name] = rng.choice(
                    (0, (1 << width) - 1, 1 << (width - 1))
                )
            else:
                vector[name] = rng.getrandbits(net.width)
        vectors.append(vector)
    return Stimulus.from_vectors(ports, vectors)


def derive_lane_seed(seed: int, lane: int) -> int:
    """The stimulus seed lane ``lane`` of a batch uses.

    Lane 0 keeps the batch seed itself, so the first lane of any batched
    run reproduces the corresponding single-lane run exactly.  Every
    other lane's seed goes through SHA-256, which decorrelates the
    Mersenne-twister streams (nearby integer seeds produce visibly
    related first draws) and is identical on every platform.
    """
    if lane == 0:
        return int(seed)
    digest = hashlib.sha256(f"{int(seed)}:{int(lane)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def random_stimulus_batch(
    module: Module, cycles: int, lanes: int, seed: int = 0, bias: float = 0.0
) -> List[Stimulus]:
    """``lanes`` independent stimulus streams from one batch seed.

    Stream ``k`` is exactly ``random_stimulus(module, cycles,
    derive_lane_seed(seed, k), bias)``: lanes are pairwise uncorrelated
    (distinct derived seeds feed distinct generators), the corner
    ``bias`` applies within each lane independently, and the whole batch
    is a pure function of ``(ports, cycles, lanes, seed, bias)``.
    """
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes!r}")
    return [
        random_stimulus(module, cycles, derive_lane_seed(seed, lane), bias)
        for lane in range(lanes)
    ]


class _FifoState:
    __slots__ = ("queue", "depth")

    def __init__(self, depth: int):
        self.queue: deque = deque()
        self.depth = depth


class Simulator:
    """Simulates a (hierarchical) module; hierarchy is flattened first.

    Already-flat modules (e.g. the ``optimize`` stage's output) are
    used as-is — simulation never mutates the netlist, so no defensive
    copy is needed.

    ``plan`` (a :class:`~repro.rtl.passes.pgo.PgoPlan`, or None) turns
    on profile-guided *dead-toggle gating*: combinational cones whose
    root support lies entirely in the plan's cold roots are skipped on
    cycles where none of those roots changed value — their net values
    from the previous settling are still correct, because every comb
    net is a pure function of the cone's roots.  Gating never changes
    observable values (the differential tests assert bit-identity to a
    plan-less interpreter); a plan for a different netlist is ignored.
    """

    def __init__(self, module: Module, plan=None):
        if any(c.kind == "submodule" for c in module.cells.values()):
            self.module = flatten(module)
        else:
            self.module = module
        self.module.validate()
        self.values: Dict[Net, int] = {
            net: 0 for net in self.module.nets.values()
        }
        self.reg_state: Dict[str, int] = {}
        self.fifo_state: Dict[str, _FifoState] = {}
        self.cycle = 0
        for cell in self.module.cells.values():
            if cell.kind in ("reg", "regen"):
                self.reg_state[cell.name] = int(cell.params.get("init", 0))
            elif cell.kind == "fifo":
                self.fifo_state[cell.name] = _FifoState(
                    int(cell.params.get("depth", 2))
                )
        self._comb_order = comb_topo_order(self.module)
        #: cone schedule [(support, gated, cells)] when gating is active.
        self._cones = None
        self._tracked: List[Net] = []
        self._prev_roots: Dict[str, int] = {}
        self._evals = 0
        if plan is not None:
            self._apply_plan(plan)

    def _apply_plan(self, plan) -> None:
        """Build the gated cone schedule (see class docstring)."""
        cold = set(getattr(plan, "cold_roots", ()) or ())
        if (
            not cold
            or plan.structural_hash != self.module.structural_hash()
        ):
            return
        from .profile import comb_cones  # local: profile imports simulate

        cones = []
        tracked = set()
        for sup, cells in comb_cones(self.module):
            gated = (not sup) or sup <= cold
            if gated and sup:
                tracked |= sup
            cones.append((sup, gated, cells))
        if not any(gated for _, gated, _ in cones):
            return
        self._cones = cones
        nets = self.module.nets
        self._tracked = [nets[name] for name in sorted(tracked)]

    # ------------------------------------------------------------------

    def poke(self, inputs: Dict[str, int]) -> None:
        for name, value in inputs.items():
            net = self.module.ports.get(name)
            if net is None or self.module.port_dirs.get(name) != "in":
                raise NetlistError(f"{self.module.name}: no input port {name!r}")
            self.values[net] = _mask(int(value), net.width)

    def evaluate(self) -> None:
        """Drive sequential outputs from state, then evaluate comb logic."""
        values = self.values
        for cell in self.module.cells.values():
            if cell.kind in ("reg", "regen"):
                q = cell.pins["q"]
                values[q] = _mask(self.reg_state[cell.name], q.width)
            elif cell.kind == "fifo":
                self._drive_fifo_outputs(cell)
        if self._cones is None:
            for cell in self._comb_order:
                self._eval_comb(cell)
            return
        self._evaluate_gated()

    def _evaluate_gated(self) -> None:
        """The dead-toggle-gated comb pass (cone schedule from the plan).

        The first evaluation fires every cone unconditionally — net
        values start at 0, which need not match any settled state, so
        nothing may be skipped until each cone has produced real values
        once.  After that a gated cone re-fires only when one of its
        support roots changed since the last evaluation; otherwise its
        output nets still hold the correct settled values (pure
        functions of unchanged roots).  Empty-support (pure-constant)
        cones fire on the first evaluation only.
        """
        values = self.values
        prev = self._prev_roots
        first = self._evals == 0
        self._evals += 1
        changed = set()
        for net in self._tracked:
            value = values[net]
            if first or prev.get(net.name) != value:
                changed.add(net.name)
                prev[net.name] = value
        for sup, gated, cells in self._cones:
            if gated and not first and (not sup or not (sup & changed)):
                continue
            for cell in cells:
                values[cell.pins["out"]] = eval_comb_cell(cell, values)

    def snapshot(self, names=None) -> Dict[str, int]:
        """Current value of every named net (all nets by default).

        The uniform observation hook profile collection uses — each
        backend implements it over its own state representation
        (Net-keyed dict here, flat slot list in the compiled engines,
        per-lane columns in the vector engine).
        """
        nets = self.module.nets
        values = self.values
        if names is None:
            names = nets
        return {name: values[nets[name]] for name in names}

    def peek(self, name: str) -> int:
        net = self.module.ports.get(name)
        if net is None:
            raise NetlistError(f"{self.module.name}: no port {name!r}")
        return self.values[net]

    def peek_net(self, net_name: str) -> int:
        net = self.module.nets.get(net_name)
        if net is None:
            raise NetlistError(f"{self.module.name}: no net {net_name!r}")
        return self.values[net]

    def tick(self) -> None:
        """Clock edge: latch registers and FIFOs from current net values."""
        updates: Dict[str, int] = {}
        for cell in self.module.cells.values():
            if cell.kind == "reg":
                updates[cell.name] = self.values[cell.pins["d"]]
            elif cell.kind == "regen":
                if self.values[cell.pins["en"]] & 1:
                    updates[cell.name] = self.values[cell.pins["d"]]
            elif cell.kind == "fifo":
                self._tick_fifo(cell)
        self.reg_state.update(updates)
        self.cycle += 1

    def step(self, inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Poke, evaluate, sample all outputs, then tick.  Returns outputs."""
        if inputs:
            self.poke(inputs)
        self.evaluate()
        outputs = {name: self.values[net] for name, net in self.module.outputs()}
        self.tick()
        return outputs

    def run(self, input_stream: List[Dict[str, int]]) -> List[Dict[str, int]]:
        """Feed a sequence of input maps; collect outputs for each cycle."""
        return [self.step(inputs) for inputs in input_stream]

    def run_random(
        self, cycles: int, seed: int = 0, bias: float = 0.0
    ) -> List[Dict[str, int]]:
        """Drive ``cycles`` of seeded random stimulus (reproducible)."""
        return self.run(random_stimulus(self.module, cycles, seed, bias))

    def run_batch(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Simulate each stream independently from reset; one trace per
        stream.  The interpreter has no lane parallelism — this is the
        sequential reference the batched compiled backend is verified
        against, one fresh simulator per lane."""
        return [Simulator(self.module).run(stream) for stream in input_streams]

    def run_random_batch(
        self, cycles: int, lanes: int, seed: int = 0, bias: float = 0.0
    ) -> List[List[Dict[str, int]]]:
        """``lanes`` independent seeded runs (see ``derive_lane_seed``)."""
        return self.run_batch(
            random_stimulus_batch(self.module, cycles, lanes, seed, bias)
        )

    # ------------------------------------------------------------------

    def _drive_fifo_outputs(self, cell: Cell) -> None:
        state = self.fifo_state[cell.name]
        values = self.values
        in_ready = cell.pins["in_ready"]
        out_valid = cell.pins["out_valid"]
        out_data = cell.pins["out_data"]
        values[in_ready] = 1 if len(state.queue) < state.depth else 0
        if state.queue:
            values[out_valid] = 1
            values[out_data] = _mask(state.queue[0], out_data.width)
        else:
            values[out_valid] = 0
            values[out_data] = 0

    def _tick_fifo(self, cell: Cell) -> None:
        state = self.fifo_state[cell.name]
        values = self.values
        popped = (
            state.queue
            and values[cell.pins["out_ready"]] & 1
            and values[cell.pins["out_valid"]] & 1
        )
        pushed = (
            values[cell.pins["in_valid"]] & 1
            and values[cell.pins["in_ready"]] & 1
        )
        if popped:
            state.queue.popleft()
        if pushed:
            state.queue.append(values[cell.pins["in_data"]])

    def _eval_comb(self, cell: Cell) -> None:
        self.values[cell.pins["out"]] = eval_comb_cell(cell, self.values)
