"""Area model: technology mapping of netlist cells to LUTs and registers.

The model approximates 6-input-LUT FPGA mapping.  Absolute values are not
expected to match Vivado (see DESIGN.md), but the *sources* of area are
faithful: arithmetic scales with width, handshake FSMs cost LUTs, FIFOs
and valid chains cost registers — which is what drives the paper's LS/LA
vs LI comparisons.
"""

from __future__ import annotations

from math import ceil, log2
from typing import Dict

from ..rtl import Cell, Module, flatten


def luts_of_cell(cell: Cell) -> int:
    kind = cell.kind
    if kind in ("const", "slice", "concat", "shl", "shr", "not"):
        return 0  # wiring / absorbed inversions
    if kind in ("add", "sub"):
        return cell.pins["out"].width  # one LUT per bit of carry chain
    if kind == "mul":
        width = cell.pins["out"].width
        # DSP-assisted multiplier: glue logic only for wide results.
        return 3 * width
    if kind in ("div", "mod"):
        width = cell.pins["out"].width
        return width * width
    if kind in ("and", "or", "xor"):
        return ceil(cell.pins["out"].width / 2)
    if kind == "mux":
        return ceil(cell.pins["out"].width / 2)
    if kind in ("eq", "lt"):
        width = cell.pins["a"].width
        return ceil(width / 2) + 1
    if kind in ("reg", "regen"):
        return 0
    if kind == "fifo":
        width = cell.pins["in_data"].width
        depth = int(cell.params.get("depth", 2))
        # Read mux + pointer compare + full/empty logic.
        return ceil(width / 2) * max(1, depth - 1) + 2 * _ptr_width(depth) + 4
    raise ValueError(f"no area model for cell kind {kind!r}")


def registers_of_cell(cell: Cell) -> int:
    kind = cell.kind
    if kind in ("reg", "regen"):
        return cell.pins["q"].width
    if kind == "fifo":
        width = cell.pins["in_data"].width
        depth = int(cell.params.get("depth", 2))
        return depth * width + 2 * _ptr_width(depth) + 1
    return 0


def _ptr_width(depth: int) -> int:
    return max(1, ceil(log2(depth + 1)))


class AreaReport:
    def __init__(self, luts: int, registers: int, by_kind: Dict[str, int]):
        self.luts = luts
        self.registers = registers
        self.by_kind = by_kind

    def __repr__(self):
        return f"AreaReport(luts={self.luts}, registers={self.registers})"


def flat_view(module: Module) -> Module:
    """``module`` itself when it has no submodule cells, else a flattened
    copy.  For read-only analyses: the result may alias the argument."""
    if any(cell.kind == "submodule" for cell in module.cells.values()):
        return flatten(module)
    return module


def area(module: Module) -> AreaReport:
    """Total LUT/register usage of a (hierarchical) module."""
    flat = flat_view(module)
    luts = 0
    registers = 0
    by_kind: Dict[str, int] = {}
    for cell in flat.cells.values():
        cell_luts = luts_of_cell(cell)
        luts += cell_luts
        registers += registers_of_cell(cell)
        by_kind[cell.kind] = by_kind.get(cell.kind, 0) + cell_luts
    return AreaReport(luts, registers, by_kind)
