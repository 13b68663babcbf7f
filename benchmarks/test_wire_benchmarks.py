"""Micro-benchmarks of the mp wire path's two payload shapes, in-process:
``pack_payload`` -> ``unpack_payload`` of (i) a 1024-record combining flush
(slab-free: one pickle each way, no tree walk) and (ii) a bulk slab push
``(lo, hi, 1 MiB int64 ndarray)`` (the walk, one warm arena segment, a
zero-copy view).  No end-to-end workload moves a slab (every
``runtime.mp.shm_segments_*`` metric is 0 there), so this is where the slab
side gets a number.

Only counts are asserted — segments created/reused, zero-copy views; the
timings are printed by pytest-benchmark and gate nothing.  Each test runs
its ``ROUNDS`` round trips itself and benchmarks the last one, so the
counts hold with benchmarking on or off (``--benchmark-disable`` runs a
``pedantic`` benchmark once, whatever its ``rounds``)."""

import numpy as np
import pytest

from repro.runtime.mp import (
    SegmentCache,
    ShmArena,
    pack_payload,
    unpack_payload,
)
from repro.runtime.stats import LocationStats

ROUNDS = 20


@pytest.fixture
def wire():
    stats = LocationStats()
    names = iter(f"rsbench_wire_{i}" for i in range(1 << 20))
    arena = ShmArena(lambda: next(names), stats=stats)
    cache = SegmentCache(stats=stats)
    yield arena, cache, stats
    cache.close()
    arena.dispose()


def _round_trip(payload, arena, cache):
    out = unpack_payload(pack_payload(payload, arena), cache)
    # what a world fence does for the sender: retired segments go warm
    arena.advance_epoch()
    return out


def _round_trips(benchmark, payload, arena, cache):
    """``ROUNDS`` round trips, the last one benchmarked."""
    for _ in range(ROUNDS - 1):
        _round_trip(payload, arena, cache)
    return benchmark.pedantic(_round_trip, args=(payload, arena, cache),
                              rounds=1, iterations=1)


def test_flush_payload_round_trip(benchmark, wire):
    arena, cache, stats = wire
    handle = ((0, 1), 3)
    payload = ([(handle, "accumulate", (f"w{i % 200}", 1))
                for i in range(1024)],)
    out = _round_trips(benchmark, payload, arena, cache)
    assert out == payload
    assert stats.shm_segments_created == stats.shm_segments_reused == 0
    assert stats.zero_copy_slab_views == 0


def test_slab_payload_round_trip(benchmark, wire):
    arena, cache, stats = wire
    payload = (0, 131072, np.arange(131072, dtype=np.int64))  # 1 MiB
    lo, hi, view = _round_trips(benchmark, payload, arena, cache)
    assert (lo, hi) == (0, 131072) and not view.flags.writeable
    np.testing.assert_array_equal(view, payload[2], strict=True)
    # one segment per round: created once, warm from round 2 on
    assert stats.shm_segments_created == 1
    assert stats.shm_segments_reused == ROUNDS - 1
    assert stats.zero_copy_slab_views == ROUNDS
    del view  # drop the buffer export so close/unlink are clean
