"""Timing model: critical-path estimation and maximum frequency.

The combinational netlist is a DAG (the simulator already rejects loops);
the critical path is the longest register-to-register delay, where each
cell contributes a logic delay (width-dependent for carry chains and
multipliers) and each net contributes a routing delay that grows with its
fanout.  High-fanout control signals — ready/valid handshakes, serializer
selects — therefore hurt, matching the paper's observation that the
handshaking logic becomes the critical path in LI designs and the
serializer fanout in LA ones.
"""

from __future__ import annotations

from math import ceil, log2
from typing import Dict, List, Optional, Tuple

from ..rtl import Cell, Module, Net
from .area import flat_view

# Base delays in nanoseconds.
_ROUTING_BASE = 0.25
_ROUTING_FANOUT = 0.07


def logic_delay(cell: Cell) -> float:
    kind = cell.kind
    if kind in ("const",):
        return 0.0
    if kind in ("slice", "concat", "shl", "shr"):
        return 0.02
    if kind == "not":
        return 0.05
    if kind in ("add", "sub"):
        return 0.45 + 0.022 * cell.pins["out"].width
    if kind == "mul":
        # DSP-assisted multiply: modest width dependence.
        return 0.9 + 0.02 * cell.pins["out"].width
    if kind in ("div", "mod"):
        width = cell.pins["out"].width
        return 2.0 + 0.25 * width
    if kind in ("and", "or", "xor"):
        return 0.25
    if kind == "mux":
        return 0.3
    if kind in ("eq", "lt"):
        return 0.4 + 0.012 * cell.pins["a"].width
    if kind in ("reg", "regen"):
        return 0.15  # clock-to-q
    if kind == "fifo":
        return 0.5  # state-to-output
    raise ValueError(f"no timing model for cell kind {kind!r}")


def routing_delay(fanout: int) -> float:
    return _ROUTING_BASE + _ROUTING_FANOUT * ceil(log2(max(1, fanout) + 1))


class TimingReport:
    def __init__(self, critical_path_ns: float, fmax_mhz: float, path: List[str]):
        self.critical_path_ns = critical_path_ns
        self.fmax_mhz = fmax_mhz
        self.path = path

    def __repr__(self):
        return (
            f"TimingReport({self.critical_path_ns:.2f} ns, "
            f"{self.fmax_mhz:.1f} MHz)"
        )


def timing(module: Module) -> TimingReport:
    """Longest combinational path (register/input -> register/output)."""
    flat = flat_view(module)
    fanout: Dict[Net, int] = {}
    producers: Dict[Net, Cell] = {}
    for cell in flat.cells.values():
        for pin in cell.input_pins():
            net = cell.pins.get(pin)
            if net is None:
                continue
            # Control pins load every bit they steer: a register enable
            # drives one CE per flip-flop, a mux select one input per
            # bit.  This is what makes control-heavy (handshaking) logic
            # slow — the paper's LI critical-path observation.
            if cell.kind == "regen" and pin == "en":
                load = cell.pins["q"].width
            elif cell.kind == "mux" and pin == "sel":
                load = cell.pins["out"].width
            elif cell.kind == "fifo" and pin in ("in_valid", "out_ready"):
                load = cell.pins["in_data"].width
            else:
                load = 1
            fanout[net] = fanout.get(net, 0) + load
        for pin in cell.output_pins():
            net = cell.pins.get(pin)
            if net is not None:
                producers[net] = cell

    # arrival[net] = worst arrival time at the net (ns).  Sequential cell
    # outputs and module inputs start a path; sequential cell inputs and
    # module outputs end one.
    arrival: Dict[Net, float] = {}
    best_path: Tuple[float, List[str]] = (0.0, [])

    input_nets = {net for _name, net in flat.inputs()}
    parent: Dict[Net, Optional[Net]] = {}

    # Pure-wiring cells: slices, concatenations, constant shifts and
    # constants are aliases after technology mapping — they add neither
    # logic nor a routing hop.
    wiring = {"slice", "concat", "shl", "shr", "const"}

    def net_arrival(net: Net) -> float:
        cached = arrival.get(net)
        if cached is not None:
            return cached
        producer = producers.get(net)
        if producer is not None and producer.kind in wiring:
            worst = 0.0
            worst_net: Optional[Net] = None
            for pin in producer.input_pins():
                in_net = producer.pins.get(pin)
                if in_net is None:
                    continue
                candidate = net_arrival(in_net)
                if candidate > worst:
                    worst = candidate
                    worst_net = in_net
            arrival[net] = worst
            parent[net] = worst_net
            return worst
        route = routing_delay(fanout.get(net, 1))
        if producer is None or producer.is_sequential():
            base = logic_delay(producer) if producer is not None else 0.0
            arrival[net] = base + route
            parent[net] = None
            return arrival[net]
        worst = 0.0
        worst_net: Optional[Net] = None
        for pin in producer.input_pins():
            in_net = producer.pins.get(pin)
            if in_net is None:
                continue
            candidate = net_arrival(in_net)
            if candidate > worst:
                worst = candidate
                worst_net = in_net
        arrival[net] = worst + logic_delay(producer) + route
        parent[net] = worst_net
        return arrival[net]

    def trace(net: Net) -> List[str]:
        names: List[str] = []
        current: Optional[Net] = net
        while current is not None:
            names.append(current.name)
            current = parent.get(current)
        return list(reversed(names))

    endpoints: List[Net] = []
    for cell in flat.cells.values():
        if cell.is_sequential():
            endpoints.extend(
                net for pin, net in cell.pins.items()
                if pin in cell.input_pins() and net is not None
            )
    endpoints.extend(net for _name, net in flat.outputs())

    setup = 0.1
    for net in endpoints:
        total = net_arrival(net) + setup
        if total > best_path[0]:
            best_path = (total, trace(net))

    critical = max(best_path[0], 0.3)
    return TimingReport(critical, 1000.0 / critical, best_path[1])
