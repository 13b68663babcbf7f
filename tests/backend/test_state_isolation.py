"""Latent-assumption audit: module-level mutable state under real processes.

The single-process simulator tolerates sloppy global state — every location
shares one interpreter, so a toggle flipped anywhere is visible everywhere.
Real worker processes break that assumption.  These tests pin down the
contract the launcher must uphold:

* toggles set *before* the run are snapshotted and re-applied inside every
  worker (``snapshot_toggles``/``apply_toggles``);
* the backend is chosen per run by ``spmd_run(..., backend=)`` and nothing
  else (default: the simulator);
* state mutated *inside* a worker does not leak back into the parent, and
  one run's state does not bleed into the next.
"""

import pytest

from repro.runtime import (
    SpmdError,
    apply_toggles,
    combining_enabled,
    set_combining,
    set_combining_window,
    snapshot_toggles,
    spmd_run,
    spmd_run_detailed,
)
from repro.views.base import bulk_transport_enabled, set_bulk_transport


def _observe_toggles(ctx):
    # Executed inside the worker process: report what the module-level
    # toggles look like from there.
    snap = snapshot_toggles()
    return ctx.id, snap


class TestTogglePropagation:
    def test_toggles_set_before_run_reach_workers(self):
        baseline = snapshot_toggles()
        try:
            set_combining(False)
            set_combining_window(77)
            set_bulk_transport(False)
            out = spmd_run(_observe_toggles, nlocs=2,
                           backend="multiprocessing", timeout=60.0)
            for _lid, snap in out:
                assert snap["combining"] is False
                assert snap["combining_window"] == 77
                assert snap["bulk_transport"] is False
        finally:
            apply_toggles(baseline)

    def test_defaults_reach_workers_untouched(self):
        baseline = snapshot_toggles()
        out = spmd_run(_observe_toggles, nlocs=2,
                       backend="multiprocessing", timeout=60.0)
        for _lid, snap in out:
            assert snap == baseline

    def test_snapshot_apply_round_trip(self):
        baseline = snapshot_toggles()
        try:
            set_combining(not baseline["combining"])
            set_bulk_transport(not baseline["bulk_transport"])
            mutated = snapshot_toggles()
            assert mutated != baseline
            apply_toggles(baseline)
            assert snapshot_toggles() == baseline
            apply_toggles(mutated)
            assert combining_enabled() is not baseline["combining"]
            assert bulk_transport_enabled() is not baseline["bulk_transport"]
        finally:
            apply_toggles(baseline)


def _mutate_toggles(ctx):
    set_combining(False)
    set_bulk_transport(False)
    return ctx.id


class TestIsolation:
    def test_worker_mutations_do_not_leak_to_parent(self):
        baseline = snapshot_toggles()
        spmd_run(_mutate_toggles, nlocs=2, backend="multiprocessing",
                 timeout=60.0)
        assert snapshot_toggles() == baseline

    def test_no_cross_run_state_leak(self):
        # Two back-to-back runs with opposite toggle settings: the second
        # run's workers must see the second snapshot, not the first.
        baseline = snapshot_toggles()
        try:
            set_combining(False)
            first = spmd_run(_observe_toggles, nlocs=2,
                             backend="multiprocessing", timeout=60.0)
            set_combining(True)
            second = spmd_run(_observe_toggles, nlocs=2,
                              backend="multiprocessing", timeout=60.0)
            assert all(s["combining"] is False for _l, s in first)
            assert all(s["combining"] is True for _l, s in second)
        finally:
            apply_toggles(baseline)


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SpmdError, match="unknown execution backend"):
            spmd_run(lambda ctx: ctx.id, nlocs=2, backend="mpi")

    def test_explicit_backend_overrides_default(self):
        rep = spmd_run_detailed(lambda ctx: ctx.allreduce_rmi(1), nlocs=2,
                                backend="multiprocessing", timeout=60.0)
        assert rep.backend == "multiprocessing"
        assert rep.results == [2, 2]
        rep = spmd_run_detailed(lambda ctx: ctx.allreduce_rmi(1), nlocs=2)
        assert rep.backend == "simulated"
        with pytest.raises(TypeError, match="takes no options"):
            spmd_run_detailed(lambda ctx: ctx.id, nlocs=2, timeout=60.0)
