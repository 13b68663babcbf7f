"""Per-run configuration and backend selection under real processes.

A run's behaviour is fixed by its launch arguments and nothing else:

* the :class:`RuntimeConfig` passed as ``spmd_run(..., config=)`` is what
  every location sees as ``ctx.config`` — on the simulator and in forked or
  spawned workers alike; leaving it out means ``RuntimeConfig()``;
* the backend is chosen per run by ``spmd_run(..., backend=)`` (default:
  the simulator).
"""

import dataclasses

import pytest

from repro.algorithms.map_reduce import word_count
from repro.runtime import (
    RuntimeConfig,
    SpmdError,
    spmd_run,
    spmd_run_detailed,
)

LAUNCHES = (
    {"backend": "simulated"},
    {"backend": "multiprocessing", "timeout": 60.0},
    {"backend": "multiprocessing", "timeout": 60.0, "start_method": "spawn"},
)


def _observe_config(ctx):
    return ctx.config


def _wordcount(ctx):
    docs = [f"w{(ctx.id + i) % 5} w{i % 3} shared" for i in range(40)]
    return word_count(ctx, docs, combine_locally=False).to_dict()


class TestTogglePropagation:
    def test_toggles_set_before_run_reach_workers(self):
        config = RuntimeConfig(combining=False, bulk_transport=False)
        for launch in LAUNCHES:
            out = spmd_run(_observe_config, nlocs=2, config=config, **launch)
            assert out == [config] * 2, launch

    def test_defaults_reach_workers_untouched(self):
        for launch in LAUNCHES:
            out = spmd_run(_observe_config, nlocs=2, **launch)
            assert out == [RuntimeConfig()] * 2, launch

    def test_config_is_frozen_with_exactly_four_fields(self):
        config = RuntimeConfig()
        assert [f.name for f in dataclasses.fields(config)] == [
            "combining", "lookup_cache", "dataflow", "bulk_transport"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.combining = False
        with pytest.raises(TypeError):
            RuntimeConfig(combining_window=8)

    def test_combining_off_wordcount_identical_on_both_backends(self):
        counts = {}
        for launch in LAUNCHES[:2]:
            for on in (True, False):
                rep = spmd_run_detailed(
                    _wordcount, nlocs=3, config=RuntimeConfig(combining=on),
                    **launch)
                assert (rep.stats.total.combined_ops > 0) is on
                counts[launch["backend"], on] = rep.results[0]
        first, *rest = counts.values()
        assert all(c == first for c in rest)


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
