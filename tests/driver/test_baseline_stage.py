"""The ``synthesize_baseline`` stage and code-fingerprint cache keys.

Table 1 and Figure 13 synthesize hand-built ready-valid (LI) baselines
next to Lilac's designs.  Both sides must be served from the artifact
store on a warm run, and a code edit must never serve a stale report.
"""

import sys

import pytest

from repro import synth
from repro.driver import CompileSession
from repro.driver.cache import code_fingerprint
from repro.evalx import figure13, table1
from repro.rtl import Module

SOURCE = """
comp Double[#W]<G:1>(x: [G, G+1] #W) -> (y: [G+1, G+2] #W) {
  s := new Add[#W]<G>(x, x);
  r := new Reg[#W]<G>(s.out);
  y = r.out;
}
"""

BUILDS = []


def build_adder(width, session):
    """A tiny baseline builder; records each call in ``BUILDS``."""
    BUILDS.append(width)
    m = Module(f"adder{width}")
    a = m.add_input("a", width)
    out = m.add_output("out", width)
    m.add_cell("add", {"a": a, "b": a, "out": out})
    return m


def _report(report):
    return (
        report.name, report.luts, report.registers, report.fmax_mhz,
        report.critical_path_ns, report.timing.path, report.area.by_kind,
    )


def _figure13_rows(rows):
    return [(r.parallelism, _report(r.lilac), _report(r.rv)) for r in rows]


def _table1_rows(rows):
    return [(r.label, _report(r.report)) for r in rows]


def _forbid_synthesis(monkeypatch):
    """Make every module-level binding of ``synthesize`` raise."""
    original = synth.synthesize

    def refuse(*args, **kwargs):
        raise AssertionError("synthesize ran on a warm store")

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "synthesize", None) is original
        ):
            monkeypatch.setattr(module, "synthesize", refuse)


def test_code_fingerprint_is_stable_and_per_package():
    whole = code_fingerprint("repro")
    assert whole == code_fingerprint("repro")
    assert whole != code_fingerprint("repro.synth")
    assert len(whole) == 16


def test_code_fingerprint_follows_file_contents(tmp_path, monkeypatch):
    package = tmp_path / "fp_probe_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "model.py").write_text("COST = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    compute = code_fingerprint.__wrapped__  # bypass the per-process memo
    before = compute("fp_probe_pkg")
    assert compute("fp_probe_pkg") == before
    (package / "model.py").write_text("COST = 2\n")
    assert compute("fp_probe_pkg") != before
    (package / "model.py").write_text("COST = 1\n")
    (package / "extra.py").write_text("")
    assert compute("fp_probe_pkg") != before
    sys.modules.pop("fp_probe_pkg", None)


def test_baseline_is_served_warm_without_rebuilding(tmp_path):
    BUILDS.clear()
    cold = CompileSession(cache_dir=str(tmp_path))
    report = cold.synthesize_baseline(build_adder, 8).value
    assert BUILDS == [8]
    assert cold.stats.miss_count("synthesize") == 1
    # Same session: memory hit.  New session: disk hit.  No rebuild.
    cold.synthesize_baseline(build_adder, 8)
    warm = CompileSession(cache_dir=str(tmp_path))
    served = warm.synthesize_baseline(build_adder, 8)
    assert BUILDS == [8]
    assert served.from_cache
    assert warm.stats.miss_count("synthesize") == 0
    assert _report(served.value) == _report(report)


def test_baseline_key_tracks_args_verify_and_code(monkeypatch):
    session = CompileSession()
    key = session.synthesize_baseline(build_adder, 8).key
    assert key[:2] == ("synthesize", "baseline")
    assert session.synthesize_baseline(build_adder, 4).key != key
    assert CompileSession(verify=False).synthesize_baseline(
        build_adder, 8
    ).key != key
    monkeypatch.setattr(
        "repro.driver.session.code_fingerprint", lambda package: "edited"
    )
    assert session.synthesize_baseline(build_adder, 8).key != key


def test_synthesis_model_edits_invalidate_lilac_reports(
    tmp_path, monkeypatch
):
    CompileSession(cache_dir=str(tmp_path)).synthesize(
        SOURCE, "Double", {"#W": 8}
    )
    warm = CompileSession(cache_dir=str(tmp_path))
    warm.synthesize(SOURCE, "Double", {"#W": 8})
    assert warm.stats.miss_count("synthesize") == 0

    real = code_fingerprint

    def edited(package):
        return "edited" if package == "repro.synth" else real(package)

    monkeypatch.setattr("repro.driver.session.code_fingerprint", edited)
    stale = CompileSession(cache_dir=str(tmp_path))
    stale.synthesize(SOURCE, "Double", {"#W": 8})
    assert stale.stats.miss_count("synthesize") == 1
    # Upstream stages do not depend on the synthesis model.
    assert stale.stats.miss_count("elaborate") == 0


def test_warm_table1_and_figure13_run_no_synthesis(tmp_path, monkeypatch):
    cache = str(tmp_path)
    cold = CompileSession(opt_level=2, cache_dir=cache)
    fig_cold = figure13.build_rows(parallelisms=(1, 16), session=cold)
    tab_cold = table1.build_rows(session=cold)
    # 2 + 2 Lilac reports and 2 + 2 LI baselines.
    assert cold.stats.miss_count("synthesize") == 8

    _forbid_synthesis(monkeypatch)
    warm = CompileSession(opt_level=2, cache_dir=cache)
    fig_warm = figure13.build_rows(parallelisms=(1, 16), session=warm)
    tab_warm = table1.build_rows(session=warm)
    assert _figure13_rows(fig_warm) == _figure13_rows(fig_cold)
    assert _table1_rows(tab_warm) == _table1_rows(tab_cold)
    assert warm.stats.miss_count("synthesize") == 0
    assert warm.stats.hit_count("synthesize") == 8
    # The baselines' elaborations are skipped along with their synthesis.
    assert warm.stats.miss_count("elaborate") == 0
    figure13.check_shape(fig_warm)
    table1.check_shape(tab_warm)


@pytest.mark.parametrize("first", ["process", "thread"])
def test_figure13_rows_agree_across_executors(tmp_path, first):
    """A store filled by one executor serves the other the same rows:
    the baseline key is identical in pool workers and in the parent."""
    cache = str(tmp_path)
    second = "thread" if first == "process" else "process"
    filled = figure13.build_rows(
        parallelisms=(1, 2),
        session=CompileSession(opt_level=2, cache_dir=cache),
        workers=2,
        executor=first,
    )
    warm = CompileSession(opt_level=2, cache_dir=cache)
    served = figure13.build_rows(
        parallelisms=(1, 2), session=warm, workers=2, executor=second
    )
    reference = figure13.build_rows(
        parallelisms=(1, 2), session=CompileSession(opt_level=2)
    )
    assert _figure13_rows(filled) == _figure13_rows(reference)
    assert _figure13_rows(served) == _figure13_rows(reference)
    if second == "thread":
        assert warm.stats.miss_count("synthesize") == 0
