"""Tests for the synthesis area/timing models."""

from repro.designs.fpu import build_li_fpu
from repro.designs.gbp_li import build_li_gbp
from repro.driver import CompileSession
from repro.generators import GeneratorRegistry
from repro.generators.flopoco import FloPoCoGenerator
from repro.rtl import Module, flatten
from repro.synth import (
    area,
    format_table,
    geomean,
    logic_delay,
    routing_delay,
    synthesize,
    timing,
)
from repro.synth.area import flat_view


def adder_module(width):
    m = Module(f"add{width}")
    a = m.add_input("a", width)
    b = m.add_input("b", width)
    out = m.add_output("out", width)
    m.add_cell("add", {"a": a, "b": b, "out": out})
    return m


def test_area_scales_with_width():
    assert area(adder_module(8)).luts < area(adder_module(32)).luts


def test_registers_counted():
    m = Module("regs")
    d = m.add_input("d", 16)
    q = m.add_output("q", 16)
    r = m.delay_chain(d, 3)
    m.add_cell("slice", {"a": r, "out": q}, {"lsb": 0})
    assert area(m).registers == 48


def test_fifo_area_dominated_by_depth():
    def fifo_module(depth):
        m = Module(f"f{depth}")
        in_data = m.add_input("in_data", 32)
        in_valid = m.add_input("in_valid", 1)
        out_ready = m.add_input("out_ready", 1)
        in_ready = m.add_output("in_ready", 1)
        out_data = m.add_output("out_data", 32)
        out_valid = m.add_output("out_valid", 1)
        m.add_cell(
            "fifo",
            {
                "in_data": in_data,
                "in_valid": in_valid,
                "in_ready": in_ready,
                "out_data": out_data,
                "out_valid": out_valid,
                "out_ready": out_ready,
            },
            {"depth": depth},
        )
        return m

    assert area(fifo_module(8)).registers > area(fifo_module(2)).registers


def test_timing_wider_adder_slower():
    narrow = timing(adder_module(8))
    wide = timing(adder_module(64))
    assert wide.critical_path_ns > narrow.critical_path_ns
    assert wide.fmax_mhz < narrow.fmax_mhz


def test_timing_chained_logic_accumulates():
    m = Module("chain")
    a = m.add_input("a", 16)
    out = m.add_output("out", 16)
    current = a
    for _ in range(4):
        current = m.binop("add", current, a, 16)
    m.add_cell("slice", {"a": current, "out": out}, {"lsb": 0})
    chained = timing(m)
    single = timing(adder_module(16))
    assert chained.critical_path_ns > 3 * single.critical_path_ns * 0.5


def test_pipelining_shortens_critical_path():
    """A deeper FloPoCo adder pipeline has a faster clock — the premise
    behind the paper's frequency-driven generator flow."""
    registry = GeneratorRegistry()
    shallow = FloPoCoGenerator(100).generate("FPAdd", {"#W": 64})
    deep = FloPoCoGenerator(400).generate("FPAdd", {"#W": 64})
    t_shallow = timing(shallow.module)
    t_deep = timing(deep.module)
    assert t_deep.fmax_mhz > t_shallow.fmax_mhz
    # And the deeper pipeline spends more registers.
    assert area(deep.module).registers > area(shallow.module).registers


def test_fanout_increases_delay():
    assert routing_delay(32) > routing_delay(1)


def test_synthesize_report():
    report = synthesize(adder_module(16), "adder16")
    assert report.name == "adder16"
    assert report.luts == 16
    assert report.fmax_mhz > 0
    assert "adder16" in repr(report)


def _fields(report):
    return (
        report.name, report.luts, report.registers, report.fmax_mhz,
        report.critical_path_ns, report.timing.path, report.area.by_kind,
    )


def test_hierarchical_report_equals_flattened_copy():
    """``synthesize`` flattens once and hands the flat view to both
    models; the report must not depend on whether the caller did."""
    session = CompileSession()
    for module in (
        build_li_fpu(400, 32, session=session),
        build_li_gbp(2, 16, session=session),
    ):
        assert any(c.kind == "submodule" for c in module.cells.values())
        flat = flatten(module)
        assert flat_view(flat) is flat
        assert _fields(synthesize(module)) == _fields(synthesize(flat))
        assert area(module).by_kind == area(flat).by_kind
        assert timing(module).path == timing(flat).path


def test_geomean():
    assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-9
    assert geomean([]) == 0.0


def test_format_table_alignment():
    text = format_table(
        ["Design", "LUTs"], [["LS", 441], ["LI", 614]]
    )
    lines = text.splitlines()
    assert len(lines) == 4
    assert "Design" in lines[0]
    assert "614" in lines[3]
