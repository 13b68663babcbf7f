"""The mp wire path serializes each payload once, and the pickle pass is
the scanner: the slab walk runs only for payloads that carry a
slab-eligible ndarray, and *which* arrays ride shared memory is exactly
what it was when every payload was walked — arrays reachable from the
payload root through tuples, lists and dicts.  All assertions are counts,
aliasing and ``/dev/shm`` contents, never times.
"""

import glob
import threading

import numpy as np
import pytest

from repro.runtime import PObject, mp, spmd_run
from repro.runtime.mp import (
    SegmentCache,
    ShmArena,
    pack_payload,
    unpack_payload,
)
from repro.runtime.stats import LocationStats

_counter = [0]


def _namer():
    _counter[0] += 1
    return f"rstest_sp_{_counter[0]}"


@pytest.fixture
def wire(monkeypatch):
    """An arena + cache with stats, and a spy on both directions of the
    tree walk and on ``arena.alloc``."""
    stats = LocationStats()
    arena, cache = ShmArena(_namer, stats=stats), SegmentCache(stats=stats)
    calls = {"walk": 0, "alloc": 0}

    def spy(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mp, "_pack_tree", spy("walk", mp._pack_tree))
    monkeypatch.setattr(mp, "_unpack_tree", spy("walk", mp._unpack_tree))
    monkeypatch.setattr(arena, "alloc", spy("alloc", arena.alloc))
    yield arena, cache, stats, calls
    cache.close()
    arena.dispose()


def _rides_segment(view, cache) -> bool:
    """Is ``view`` a window into one of this module's shm segments?"""
    for path in glob.glob("/dev/shm/rstest_sp_*"):
        base = np.frombuffer(cache.attach(path.rsplit("/", 1)[1]).buf,
                             dtype=np.uint8)
        if np.shares_memory(view, base):
            return True
    return False


def flush_payload(n=1024):
    """What one combining-buffer flush ships: ``(records,)`` with one
    ``(handle, method, args)`` record per buffered op, every record
    holding the same handle tuple."""
    handle = ((0, 1), 3)
    return ([(handle, "accumulate", (f"w{i % 200}", 1)) for i in range(n)],)


def bucket_payload(P=2, n=4096):
    """What sample sort's all-to-all ships: one sorted bucket (a list of
    Python ints) per destination."""
    rng = np.random.default_rng(7)
    return [sorted(rng.integers(0, 2**20, n).tolist()) for _ in range(P)]


# ---------------------------------------------------------------------------
# (a) the fast path is real
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", [flush_payload, bucket_payload])
def test_slab_free_payload_never_enters_the_walk(wire, build):
    arena, cache, stats, calls = wire
    payload = build()
    out = unpack_payload(pack_payload(payload, arena), cache)
    assert out == payload
    assert calls == {"walk": 0, "alloc": 0}
    assert stats.shm_segments_created == stats.zero_copy_slab_views == 0


def test_shared_subobjects_stay_shared(wire):
    arena, cache, _, _ = wire
    (records,) = unpack_payload(pack_payload(flush_payload(), arena), cache)
    # one handle tuple for the whole flush, pickled once and memoized
    assert all(r[0] is records[0][0] for r in records)


# ---------------------------------------------------------------------------
# (b), (d) the rule did not move
# ---------------------------------------------------------------------------


def test_only_reachable_eligible_arrays_ride_segments(wire):
    arena, cache, stats, calls = wire
    small = np.arange(8, dtype=np.int64)
    big = np.arange(4096, dtype=np.int64)
    big2 = np.arange(1024, dtype=np.float64) / 3
    packed = pack_payload((small, {"x": big}, [big2]), arena)
    assert stats.shm_segments_created == calls["alloc"] == 2
    assert len(glob.glob("/dev/shm/rstest_sp_*")) == 2
    assert small.tobytes() in packed
    s, d, (b2,) = unpack_payload(packed, cache)
    assert stats.zero_copy_slab_views == 2
    for view, src in ((d["x"], big), (b2, big2)):
        assert not view.flags.writeable and _rides_segment(view, cache)
        np.testing.assert_array_equal(view, src, strict=True)
    assert s.flags.writeable and not _rides_segment(s, cache)
    np.testing.assert_array_equal(s, small, strict=True)
    del d, b2, view  # drop buffer exports so close/unlink are clean


class Tagged(np.ndarray):
    """An ndarray subclass."""


class Box:
    """An opaque object holding an array in an attribute."""

    def __init__(self, arr):
        self.arr = arr


def test_object_dtype_and_small_arrays_stay_in_band(wire):
    arena, cache, stats, calls = wire
    objs = np.array([{"k": i} for i in range(2048)], dtype=object)
    small = np.arange(255, dtype=np.int64)  # 2040 B: just below
    assert objs.nbytes >= mp.SHM_SLAB_THRESHOLD > small.nbytes
    o, s = unpack_payload(pack_payload((objs, small), arena), cache)
    assert calls == {"walk": 0, "alloc": 0}
    assert o.dtype == object and o[7] == {"k": 7}
    np.testing.assert_array_equal(s, small, strict=True)


def test_ndarray_subclass_rides_a_segment_like_any_ndarray(wire):
    # the walk's test is isinstance(obj, np.ndarray): a subclass instance
    # reachable from the root is moved, and arrives as a plain view
    arena, cache, stats, _ = wire
    tagged = np.arange(1024, dtype=np.int64).view(Tagged)
    (out,) = unpack_payload(pack_payload((tagged,), arena), cache)
    assert stats.shm_segments_created == 1
    assert type(out) is np.ndarray and _rides_segment(out, cache)
    np.testing.assert_array_equal(out, np.asarray(tagged), strict=True)
    del out


def test_closure_and_attribute_arrays_trigger_the_walk_but_do_not_move(wire):
    arena, cache, stats, calls = wire
    big = np.arange(8192, dtype=np.int64)  # 64 KiB

    def probe():
        return big

    fn, box = unpack_payload(pack_payload((probe, Box(big * 3)), arena),
                             cache)
    # the pickle pass met an eligible array, so the walk ran both ways ...
    assert calls["walk"] > 0
    # ... and found nothing reachable through tuple/list/dict to move
    assert calls["alloc"] == stats.shm_segments_created == 0
    assert glob.glob("/dev/shm/rstest_sp_*") == []
    np.testing.assert_array_equal(fn(), big, strict=True)
    np.testing.assert_array_equal(box.arr, big * 3, strict=True)
    assert fn().flags.writeable and box.arr.flags.writeable


# ---------------------------------------------------------------------------
# (c) on the real backend: by-value arrays outlive the sender's recycling
# ---------------------------------------------------------------------------

_N = 16384  # int64 elements: 128 KiB, one arena size class


class Keeper(PObject):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.kept = []
        self.sunk = 0
        self.sunk_in_shm = 0

    def call(self, fn):
        self.kept.append(fn())

    def unbox(self, box):
        self.kept.append(box.arr)

    def keep(self, *args):
        self.kept.append(args)

    def sink(self, arr):
        self.sunk += int(arr[0])
        self.sunk_in_shm += _in_shm_mapping(arr)


def _in_shm_mapping(arr) -> bool:
    """Does ``arr``'s buffer lie inside a mapped ``/dev/shm`` segment of
    this process?"""
    addr = arr.__array_interface__["data"][0]
    with open("/proc/self/maps") as maps:
        for line in maps:
            if "/dev/shm/" in line:
                lo, hi = (int(x, 16) for x in line.split()[0].split("-"))
                if lo <= addr < hi:
                    return True
    return False


def _by_value_prog(ctx):
    k = Keeper(ctx)
    ctx.rmi_fence()
    peer = (ctx.id + 1) % ctx.nlocs
    big = np.arange(_N, dtype=np.int64) + ctx.id

    def probe():
        return big  # rides in the shipped closure's cell

    ctx.async_rmi(peer, k.handle, "call", probe)
    ctx.async_rmi(peer, k.handle, "unbox", Box(big * 3))
    ctx.rmi_fence()
    # slab traffic of the same size class: the second round reuses the
    # segment the first one retired — a by-reference ``big`` would be
    # sitting in exactly that segment
    for r in (1, 2):
        ctx.async_rmi(peer, k.handle, "sink", np.full(_N, r, dtype=np.int64))
        ctx.rmi_fence()
    if not ctx.runtime.shared_address_space:
        assert ctx.stats.shm_segments_reused >= 1
        # the probe can tell: both slabs arrived as views into /dev/shm
        assert ctx.stats.zero_copy_slab_views == k.sunk_in_shm == 2
    return k.sunk, [(int(a[0]), int(a[-1]), int(a.sum()), _in_shm_mapping(a))
                    for a in k.kept]


def test_closure_and_attribute_arrays_arrive_as_private_copies(
        run_differential):
    out = run_differential(_by_value_prog, 2)
    for lid, (sunk, kept) in enumerate(out):
        src = np.arange(_N, dtype=np.int64) + (lid - 1) % 2
        assert sunk == 3
        assert kept == [
            (int(a[0]), int(a[-1]), int(a.sum()), False)
            for a in (src, src * 3)]


# ---------------------------------------------------------------------------
# Self-sends are never pickled
# ---------------------------------------------------------------------------


def _self_send_prog(ctx):
    k = Keeper(ctx)
    ctx.rmi_fence()
    lock = threading.Lock()  # unpicklable: can only arrive by reference
    big = np.arange(_N, dtype=np.int64)

    def fn():
        return big

    ctx.async_rmi(ctx.id, k.handle, "keep", lock, fn, big)
    big[0] = -1  # after the send: the snapshotted argument must not see it
    ctx.rmi_fence()
    got_lock, got_fn, got_big = k.kept.pop()
    out = (got_lock is lock, got_fn is fn, got_fn() is big,
           int(got_big[0]), got_big.flags.writeable)
    del got_big  # drop the slab view before the arena is disposed
    return out


def test_self_send_arrives_by_reference():
    out = spmd_run(_self_send_prog, nlocs=2, backend="multiprocessing",
                   timeout=60.0)
    # the unpicklable lock, the closure and the array in its cell keep
    # their identity; the eligible array argument is a read-only snapshot
    # taken at the send
    assert out == [(True, True, True, 0, False)] * 2
