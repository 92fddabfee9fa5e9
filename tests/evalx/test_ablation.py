"""The optimization ablation: differential simulation across designs."""

import pytest

from repro.driver import CompileSession
from repro.evalx import ablation
from repro.rtl import clear_compile_memo, clear_vector_memo


def test_ablation_rows_cover_the_catalog_and_hold_shape():
    rows = ablation.build_rows(cycles=32)
    assert [row.name for row in rows] == sorted(
        ["fpu", "fft", "flofft", "risc", "gbp", "blas"]
    )
    stats = ablation.check_shape(rows)
    assert len(stats) == len(rows)
    # Differential simulation: every design bit-identical across levels
    # and across simulation backends (interpreter vs compiled).
    assert all(row.equivalent for row in rows)
    assert all(row.backends_agree for row in rows)
    # ... and both lane engines against the per-lane reference traces.
    assert all(row.lanes_agree for row in rows)
    assert all(row.vector_agree for row in rows)
    # The headline claim: cleanup passes shrink at least three designs.
    assert sum(1 for row in rows if row.cleanup_removed() > 0) >= 3


def test_ablation_render_marks_equivalence():
    row = ablation.AblationRow(
        "toy", 100, 80, True, 2.0, 1.0, {"dead-cell-elim": 20}
    )
    assert abs(row.reduction - 0.2) < 1e-12
    assert row.speedup == 2.0
    assert row.cleanup_removed() == 20
    text = ablation.render([row])
    assert "toy" in text and "20.0%" in text and "yes" in text


def test_ablation_check_shape_rejects_divergence():
    bad = ablation.AblationRow("toy", 100, 100, False, 1.0, 1.0, {})
    try:
        ablation.check_shape([bad])
    except AssertionError as error:
        assert "unsound" in str(error)
    else:
        raise AssertionError("divergent row should fail the shape check")


def test_ablation_check_shape_rejects_backend_divergence():
    bad = ablation.AblationRow(
        "toy", 100, 90, True, 1.0, 1.0, {}, backends_agree=False
    )
    try:
        ablation.check_shape([bad])
    except AssertionError as error:
        assert "code generation is unsound" in str(error)
    else:
        raise AssertionError("backend divergence should fail the check")
    text = ablation.render([bad])
    assert "NO" in text


def test_ablation_check_shape_rejects_vector_divergence():
    bad = ablation.AblationRow(
        "toy", 100, 90, True, 1.0, 1.0, {}, vector_agree=False
    )
    try:
        ablation.check_shape([bad])
    except AssertionError as error:
        assert "vector codegen is unsound" in str(error)
    else:
        raise AssertionError("vector divergence should fail the check")


def test_ablation_check_shape_rejects_pgo_divergence():
    bad = ablation.AblationRow(
        "toy", 100, 90, True, 1.0, 1.0, {}, o3_agree=False
    )
    with pytest.raises(AssertionError, match="PGO specialization is unsound"):
        ablation.check_shape([bad])
    text = ablation.render([bad])
    assert "NO" in text


def test_ablation_holds_under_stdlib_vector_flavor(monkeypatch):
    """The whole differential battery — including the vector column and
    the profile-guided -O3 column — re-run with the vector backend
    forced onto the pure-stdlib ``array('Q')`` flavor."""
    monkeypatch.setenv("REPRO_VECTOR_FLAVOR", "stdlib")
    clear_vector_memo()  # drop programs compiled under another flavor
    try:
        rows = ablation.build_rows(cycles=16)
        ablation.check_shape(rows)
        assert all(row.vector_agree for row in rows)
        assert all(row.o3_agree for row in rows)
    finally:
        clear_vector_memo()


def test_process_and_thread_ablations_report_equal_stats(tmp_path):
    """From an empty store, a process-executor ablation reports the
    simulate misses and disk writes its workers made, exactly as the
    thread run of the same sweep does.  Both start without in-process
    codegen memos too, which forked workers would otherwise inherit."""
    sessions = {}
    for executor in ("thread", "process"):
        clear_compile_memo()
        clear_vector_memo()
        session = CompileSession(cache_dir=str(tmp_path / executor))
        ablation.build_rows(
            session=session, workers=2, cycles=16, executor=executor
        )
        sessions[executor] = session
    thread, process = sessions["thread"], sessions["process"]
    assert thread.stats.miss_count("simulate") == 60
    assert process.stats.miss_count("simulate") == 60
    writes = process.disk_stats()["writes"]
    assert writes == thread.disk_stats()["writes"] > 0


def test_process_ablation_after_a_thread_ablation_writes_every_entry(
    tmp_path,
):
    """Codegen memo entries write through to each store they are asked
    for through: a cold process-mode ablation whose forked workers
    inherit the step code of an earlier in-process thread ablation still
    writes every entry (131 on the catalog, not the 102 it wrote when a
    memo hit skipped the store)."""
    clear_compile_memo()
    clear_vector_memo()
    sessions = {}
    for executor in ("thread", "process"):
        session = CompileSession(cache_dir=str(tmp_path / executor))
        ablation.build_rows(
            session=session, workers=2, cycles=16, executor=executor
        )
        sessions[executor] = session
    thread, process = sessions["thread"], sessions["process"]
    assert process.stats.counter("codegen.store") == thread.stats.counter(
        "codegen.store"
    ) > 0
    writes = process.disk_stats()["writes"]
    assert writes == thread.disk_stats()["writes"] > 0
