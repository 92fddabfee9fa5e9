"""The chaos harness: seeded plans, bit-identity, accounting, containment.

The heavyweight end-to-end sweep (six designs, three groups) runs via
``repro chaos`` in CI; these tests keep the harness honest on a small
design subset so the suite stays fast.
"""

import pytest

from repro.driver import CRASH_SITES, FAULT_SITES, SITE_GROUPS, run_chaos
from repro.driver.chaos import ChaosRun, _run_once


def test_site_groups_plus_crash_sites_partition_fault_sites():
    """Every fault site is chaos-tested by exactly one group — except
    the ``proc.kill.*`` crash sites, which SIGKILL the process and are
    exercised by the separate ``repro chaos --crash`` harness."""
    seen = [site for sites in SITE_GROUPS.values() for site in sites]
    seen.extend(CRASH_SITES)
    assert sorted(seen) == sorted(FAULT_SITES)
    assert len(seen) == len(set(seen))


def test_chaos_sweep_is_bit_identical_and_accounted():
    report = run_chaos(
        designs=("fpu", "risc"), seeds=(0,), cycles=24, count=1
    )
    assert report.ok
    assert report.baseline.error is None
    assert {run.label for run in report.runs} == {
        "disk@seed=0", "worker@seed=0", "solver@seed=0"
    }
    for run in report.runs:
        assert run.error is None
        assert run.identical is True
        assert run.accounted
        # Judged against a baseline that carries both payload parts.
        assert run.digests
    # The disk group schedules five sites over a store-heavy sweep:
    # some of them must actually have fired.
    disk = next(r for r in report.runs if r.label == "disk@seed=0")
    assert sum(disk.injected.values()) >= 1
    assert disk.fired == disk.injected

    payload = report.to_dict()
    assert payload["ok"] is True
    assert len(payload["runs"]) == 3
    rendered = report.render()
    assert "all runs bit-identical, all faults accounted" in rendered
    assert "disk@seed=0" in rendered


def test_process_workers_faults_are_reported_and_accounted():
    """Disk faults fire inside pool workers; the grid merges the
    workers' counters into the session and their fires into the plan,
    so a process-executor sweep reports them and still reconciles."""
    report = run_chaos(
        designs=("fpu", "risc"), seeds=(0,), groups=("disk",), cycles=16,
        count=1, workers=2, executor="process",
    )
    assert report.ok
    (disk,) = report.runs
    assert sum(disk.injected.values()) >= 1
    assert disk.fired == disk.injected


def test_escaping_errors_are_contained_and_fail_the_report():
    report = run_chaos(designs=("no-such-design",), seeds=(), cycles=8)
    assert report.baseline.error is not None
    assert not report.ok
    assert "CHAOS FAILURES" in report.render()


def test_unknown_group_is_rejected():
    with pytest.raises(ValueError, match="unknown chaos groups"):
        run_chaos(designs=("fpu",), groups=("disk", "cosmic-rays"))


def test_runs_diverging_from_baseline_are_flagged():
    baseline = ChaosRun(
        "baseline", None, None,
        {"fpu": {"trace": "aaa"}}, {}, {}, {}, {},
    )
    same = ChaosRun(
        "disk@seed=0", "disk.read", 0,
        {"fpu": {"trace": "aaa"}}, {}, {}, {}, {},
    )
    same.judge(baseline)
    assert same.identical is True and same.ok
    diverged = ChaosRun(
        "disk@seed=1", "disk.read", 1,
        {"fpu": {"trace": "bbb"}}, {}, {}, {}, {},
    )
    diverged.judge(baseline)
    assert diverged.identical is False and not diverged.ok
    empty = ChaosRun("disk@seed=2", "disk.read", 2, {}, {}, {}, {}, {})
    empty.judge(baseline)
    assert empty.identical is False  # produced nothing to compare


def test_unaccounted_fires_fail_the_run():
    run = ChaosRun(
        "disk@seed=0", "disk.read", 0,
        {"fpu": {"trace": "aaa"}},
        fired={"disk.read": 2},
        injected={"disk.read": 1},
        degrades={}, retries={},
    )
    assert not run.accounted and not run.ok


def test_run_once_leaves_no_plan_installed():
    from repro.driver import FaultPlan, faults

    plan = FaultPlan.seeded(0, sites=("disk.read",), count=1)
    _run_once(
        "probe", plan, ("fpu",), 8, 2, False, "interp", None, "thread"
    )
    assert faults.active_plan() is None
