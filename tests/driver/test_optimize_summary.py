"""The ``optimize_summary`` stage and the ablation rows built on it.

The ablation reports each design's cell counts and per-pass removals.
A warm store must serve them without loading a single optimized
netlist: the counts come from the simulate traces and the pass stats
from the small summary artifact, while every agreement column is still
recomputed from the traces.
"""

import pytest

from repro.designs.catalog import design_point
from repro.driver import CompileSession, OptimizeSummary
from repro.evalx import ablation

CYCLES = 16

SOURCE = """
comp Double[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""


def _row(row):
    """Every column except the wall-clock sim times."""
    return (
        row.name, row.cells_base, row.cells_opt, row.equivalent,
        row.removed_by, row.backends_agree, row.lanes_agree,
        row.vector_agree, row.o3_agree,
    )


def _passes(pass_stats):
    return [
        (s.name, s.cells_before, s.cells_after, s.nets_before, s.nets_after)
        for s in pass_stats
    ]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold ablation over a fresh store, with every simulate call it
    made recorded as ``(args, kwargs, trace)``."""
    store = str(tmp_path_factory.mktemp("summary-store"))
    session = CompileSession(cache_dir=store)
    traces = []
    simulate = session.simulate

    def recording(*args, **kwargs):
        artifact = simulate(*args, **kwargs)
        traces.append((args, kwargs, artifact.value))
        return artifact

    session.simulate = recording
    rows = ablation.build_rows(session=session, workers=1, cycles=CYCLES)
    session.simulate = simulate
    return store, session, rows, traces


def test_warm_rows_load_no_netlist(cold, monkeypatch):
    store, _, rows, _ = cold

    def refuse(*args, **kwargs):
        raise AssertionError("a warm ablation loaded an optimized netlist")

    monkeypatch.setattr(CompileSession, "optimize", refuse)
    warm = CompileSession(cache_dir=store)
    warm_rows = ablation.build_rows(session=warm, workers=1, cycles=CYCLES)
    assert [_row(r) for r in warm_rows] == [_row(r) for r in rows]
    ablation.check_shape(warm_rows)
    assert warm.stats.hit_count("optimize") == 0
    assert warm.stats.miss_count() == 0
    assert warm.stats.hit_count("optimize_summary") == len(rows)


def test_rows_match_the_optimized_netlists(cold):
    _, session, rows, _ = cold
    for row in rows:
        source, component, generators, params = design_point(row.name)
        base, opt = (
            session.optimize(
                source, component, params, generators, opt_level=level
            ).value
            for level in (0, 2)
        )
        assert row.cells_base == base.cells_after
        assert row.cells_opt == opt.cells_after
        removed = {}
        for s in opt.pass_stats:
            removed[s.name] = removed.get(s.name, 0) + s.cells_removed
        assert row.removed_by == removed


@pytest.mark.parametrize("level", [0, 2])
def test_summary_equals_the_optimized_netlist(cold, level):
    _, session, _, _ = cold
    for name in ablation.ABLATION_DESIGNS:
        source, component, generators, params = design_point(name)
        summary = session.optimize_summary(
            source, component, params, generators, opt_level=level
        ).value
        optimized = session.optimize(
            source, component, params, generators, opt_level=level
        ).value
        assert isinstance(summary, OptimizeSummary)
        assert summary.opt_level == optimized.opt_level == level
        assert summary.cells_before == optimized.cells_before
        assert summary.cells_after == optimized.cells_after
        assert _passes(summary.pass_stats) == _passes(optimized.pass_stats)


def test_every_ablation_trace_counts_its_netlist(cold):
    _, session, _, traces = cold
    # Per design: interp x2, compiled x2, lane refs, batch, vector, -O3.
    assert len(traces) == len(ablation.ABLATION_DESIGNS) * (
        7 + ablation.LANES
    )
    for args, kwargs, trace in traces:
        optimized = session.optimize(
            *args[:4], opt_level=kwargs["opt_level"]
        ).value
        assert trace.cells == optimized.cells_after


def _keys(session, params, opt_level):
    summary = session.optimize_summary(
        SOURCE, "Double", params, opt_level=opt_level
    )
    optimized = session.optimize(
        SOURCE, "Double", params, opt_level=opt_level
    )
    return summary.key, optimized.key


def test_summary_key_is_the_optimize_key_under_its_own_stage():
    session = CompileSession()
    summary, optimized = _keys(session, {"#W": 8}, 2)
    assert summary[0] == "optimize_summary" and optimized[0] == "optimize"
    assert summary[1:] == optimized[1:]


def test_summary_key_follows_level_verify_and_params():
    checked = CompileSession(verify=True)
    unchecked = CompileSession(verify=False)
    base, _ = _keys(checked, {"#W": 8}, 2)
    assert _keys(checked, {"#W": 8}, 0)[0] != base
    assert _keys(checked, {"#W": 8}, 1)[0] != base
    assert _keys(checked, {"#W": 16}, 2)[0] != base
    assert _keys(unchecked, {"#W": 8}, 2)[0] != base
    assert _keys(checked, {"#W": 8}, 2)[0] == base


def test_summary_rejects_profile_guided_level():
    with pytest.raises(ValueError, match="-O0 to -O2"):
        CompileSession().optimize_summary(
            SOURCE, "Double", {"#W": 8}, opt_level=3
        )
