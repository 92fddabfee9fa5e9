"""The reader index behind ``Module.replace_net_uses``.

``share_cells`` and ``DelayCoalesce`` rewire through an index built once
per sweep instead of scanning every cell per rewire.  On seeded random
netlists rich in duplicates, aliases, parallel register chains and
output buffers, their output must equal that of the naive full scan.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.rtl import Module, Simulator, random_stimulus
from repro.rtl.passes import (
    CommonCellSharing,
    DelayCoalesce,
    SHAREABLE_KINDS,
    check_module,
)
from repro.rtl.passes.share import share_cells

WIDTHS = (1, 4, 8)


def naive_replace_net_uses(self, old, new, readers=None):
    """The full-scan rewire: every cell, every input pin, every call."""
    assert old.width == new.width
    rewired = 0
    for cell in self.cells.values():
        outs = set(cell.output_pins())
        for pin, net in cell.pins.items():
            if net is old and pin not in outs:
                cell.pins[pin] = new
                rewired += 1
    return rewired


def random_netlist(seed: int) -> Module:
    rng = random.Random(seed)
    m = Module(f"rand{seed}")
    pool = {
        w: [m.add_input(f"i{w}_{k}", w) for k in range(2)] for w in WIDTHS
    }
    pool[1].append(m.add_input("en", 1))
    built = []

    def pick(width):
        return rng.choice(pool[width])

    for _ in range(rng.randint(10, 60)):
        width = rng.choice(WIDTHS)
        roll = rng.random()
        if built and roll < 0.3:
            # Duplicate an existing cell: same kind, params and inputs.
            proto = rng.choice(built)
            (out_pin,) = proto.output_pins()
            pins = {pin: proto.pins[pin] for pin in proto.input_pins()}
            kind, params = proto.kind, proto.params
            width = proto.pins[out_pin].width
        elif roll < 0.45:
            kind, params, out_pin = "slice", {"lsb": 0}, "out"
            pins = {"a": pick(width)}
        elif roll < 0.65:
            kind, out_pin = rng.choice(("reg", "regen")), "q"
            params = {"init": rng.randint(0, 1)}
            pins = {"d": pick(width)}
            if kind == "regen":
                pins["en"] = pick(1)
        elif roll < 0.75:
            kind, params, out_pin = "mux", {}, "out"
            pins = {"sel": pick(1), "a": pick(width), "b": pick(width)}
        elif roll < 0.85:
            kind, params, out_pin = "not", {}, "out"
            pins = {"a": pick(width)}
        else:
            kind, params, out_pin = "add", {}, "out"
            kind = rng.choice(("and", "or", "xor", "add"))
            pins = {"a": pick(width), "b": pick(width)}
        out = m.fresh_net(width, kind)
        built.append(m.add_cell(kind, {**pins, out_pin: out}, params))
        pool[width].append(out)
    for index in range(rng.randint(1, 4)):
        width = rng.choice(WIDTHS)
        port = m.add_output(f"o{index}", width)
        kind = rng.choice(("slice", "not"))
        params = {"lsb": 0} if kind == "slice" else {}
        m.add_cell(kind, {"a": pick(width), "out": port}, params)
    return m


def _run_both(seed, transform):
    indexed = random_netlist(seed)
    naive = random_netlist(seed)
    indexed_result = transform(indexed)
    with mock.patch.object(
        Module, "replace_net_uses", naive_replace_net_uses
    ):
        naive_result = transform(naive)
    return indexed, naive, indexed_result, naive_result


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_indexed_sharing_equals_naive_full_scan(seed):
    indexed, naive, merged, naive_merged = _run_both(
        seed, lambda m: share_cells(m, SHAREABLE_KINDS)
    )
    assert merged == naive_merged
    assert indexed == naive
    check_module(indexed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_indexed_delay_coalesce_equals_naive_full_scan(seed):
    indexed, naive, _, _ = _run_both(seed, lambda m: DelayCoalesce().run(m))
    assert indexed == naive
    check_module(indexed)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_indexed_passes_preserve_behaviour(seed):
    reference = random_netlist(seed)
    optimized = random_netlist(seed)
    DelayCoalesce().run(optimized)
    CommonCellSharing().run(optimized)
    stimulus = random_stimulus(reference, 16, seed=seed)
    assert Simulator(optimized).run(stimulus) == Simulator(reference).run(
        stimulus
    )


def test_readers_index_stays_current_across_rewires():
    m = Module("chain")
    a = m.add_input("a", 8)
    b = m.add_input("b", 8)
    out = m.add_output("out", 8)
    mid = m.binop("add", a, a, 8)
    m.add_cell("xor", {"a": mid, "b": a, "out": out})
    readers = m.readers()
    assert m.replace_net_uses(a, b, readers) == 3
    assert a not in readers and len(readers[b]) == 3
    dead = m.drivers()[mid][0]
    m.remove_cell(dead.name)
    # The removed adder's entries are skipped; only the xor is rewired.
    assert m.replace_net_uses(b, a, readers) == 1
    assert m.replace_net_uses(b, a) == 0  # builds its own index
