"""Zero-copy shared-memory storage: arena lifecycle, pooled vs live slab
references, and the end-to-end slab-heavy differential.

Covers, in-process (no workers): the :class:`ShmArena` pooled free-list
(size classes, epoch reclamation, exchange-channel reuse lag), live
bContainer storage registration, and the pooled/live pack/unpack round
trips.  End-to-end (real workers): byte-identity of a slab-heavy program
between the simulator and the shared-memory transport, a ``/dev/shm`` leak
audit, and the spawn start-method smoke test.

Property tests at the bottom assert arena-backed slab views stay
bit-identical across an epoch boundary (the migration-epoch contract:
storage segments are never pooled, so a live reference survives fences
for as long as the owner does).
"""

import glob

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import spmd_run
from repro.runtime.mp import (
    SegmentCache,
    ShmArena,
    pack_payload,
    unpack_payload,
)

_counter = [0]


def _namer():
    _counter[0] += 1
    return f"rstest_zc_{_counter[0]}"


def _segments() -> set:
    """Names of this module's segments currently in ``/dev/shm``."""
    return {p.rsplit("/", 1)[1] for p in glob.glob("/dev/shm/rstest_zc_*")}


def _offset_in(view, cache, name):
    """Byte offset of ``view`` inside ``cache``'s mapping of segment
    ``name``, or None when the view is not a window into that segment.
    The packed payload is opaque bytes; which segment a received view
    rides is read off the view itself."""
    base = np.frombuffer(cache.attach(name).buf, dtype=np.uint8)
    if not np.shares_memory(view, base):
        return None
    return (view.__array_interface__["data"][0]
            - base.__array_interface__["data"][0])


@pytest.fixture
def arena():
    a = ShmArena(_namer)
    yield a
    a.dispose()


# ---------------------------------------------------------------------------
# Arena unit tests
# ---------------------------------------------------------------------------


def test_size_classes_double_from_min():
    assert ShmArena._size_class(1) == 1024
    assert ShmArena._size_class(1024) == 1024
    assert ShmArena._size_class(1025) == 2048
    assert ShmArena._size_class(100_000) == 131072


def test_retired_segment_reused_only_after_epoch(arena):
    seg, cls = arena.alloc(4096)
    name = seg.name
    arena.retire(seg, cls)
    # same epoch: the wire may still be delivering the slab — no reuse
    seg2, cls2 = arena.alloc(4096)
    assert seg2.name != name
    arena.retire(seg2, cls2)
    arena.advance_epoch()
    # the fence proved every receiver dropped its view: both are warm now
    warm = {arena.alloc(4096)[0].name, arena.alloc(4096)[0].name}
    assert warm == {name, seg2.name}


def test_channel_reuse_lag(arena):
    names = {}
    # park one segment per round; descending seq order so no round ages
    # past the lag while the others are still being filled
    for seq in (2, 1, 0):
        arena.begin_channel("xchg", seq)
        seg, cls = arena.alloc(2048)
        names[seq] = seg.name
        arena.retire(seg, cls)
        arena.end_channel()
    # at round 3 only rounds <= 3 - lag(2) = 1 have aged out; round 2's
    # receivers may still hold views, so its segment stays parked
    arena.begin_channel("xchg", 3)
    reused = {arena.alloc(2048)[0].name, arena.alloc(2048)[0].name}
    fresh = arena.alloc(2048)[0].name
    arena.end_channel()
    assert reused == {names[0], names[1]}
    assert fresh not in names.values()


def test_dispose_unlinks_everything():
    a = ShmArena(_namer)
    a.alloc(1024)
    seg, cls = a.alloc(8192)
    a.retire(seg, cls)
    a.storage_alloc((16,), "int64")
    assert glob.glob("/dev/shm/rstest_zc_*")
    a.dispose()
    assert glob.glob("/dev/shm/rstest_zc_*") == []


def test_storage_alloc_and_find_live(arena):
    arr = arena.storage_alloc((8, 4), "float64")
    assert arr.flags.writeable and arr.shape == (8, 4)
    arr[...] = np.arange(32).reshape(8, 4)
    name, off = arena.find_live(arr)
    assert off == 0
    # interior C-contiguous slice: offset into the same segment
    name2, off2 = arena.find_live(arr[2:5])
    assert name2 == name and off2 == 2 * 4 * 8
    # non-contiguous views and foreign arrays are not live
    assert arena.find_live(arr[:, 1:3]) is None
    assert arena.find_live(np.zeros(16)) is None
    assert arena.storage_alloc((4,), object) is None


# ---------------------------------------------------------------------------
# Pooled / live slab round trips
# ---------------------------------------------------------------------------


def test_pooled_round_trip_and_warm_reuse(arena):
    cache = SegmentCache()
    try:
        src = np.arange(512, dtype=np.int64)
        before = _segments()
        packed = pack_payload(src, arena, threshold=1)
        (name,) = _segments() - before  # the slab rode one fresh segment
        out = unpack_payload(packed, cache)
        assert _offset_in(out, cache, name) == 0
        assert not out.flags.writeable
        np.testing.assert_array_equal(out, src, strict=True)
        # after a fence the same warm segment carries the next slab, so
        # the receiver's cached mapping stays valid — zero syscalls
        arena.advance_epoch()
        out2 = unpack_payload(pack_payload(src * 2, arena, threshold=1),
                              cache)
        assert _segments() == before | {name}
        assert _offset_in(out2, cache, name) == 0
        np.testing.assert_array_equal(out2, src * 2)
        del out, out2  # drop buffer exports so close/unlink are clean
    finally:
        cache.close()


def test_live_round_trip_is_a_reference(arena):
    cache = SegmentCache()
    try:
        arr = arena.storage_alloc((256,), "int64")
        arr[...] = np.arange(256)
        before = _segments()
        packed = pack_payload(arr[16:], arena, threshold=1, live_ok=True)
        assert _segments() == before  # no pooled copy was made
        view = unpack_payload(packed, cache)
        name, off = arena.find_live(arr[16:])
        assert _offset_in(view, cache, name) == off == 16 * 8
        assert not view.flags.writeable
        np.testing.assert_array_equal(view, arr[16:], strict=True)
        # a live slab is a window into owner storage, not a snapshot
        arr[16] = 999
        assert view[0] == 999
        del view, arr  # drop buffer exports so close/unlink are clean
    finally:
        cache.close()


def test_live_needs_live_ok(arena):
    cache = SegmentCache()
    try:
        arr = arena.storage_alloc((256,), "int64")
        arr[...] = 7
        before = _segments()
        packed = pack_payload(arr, arena, threshold=1)
        # async sends always snapshot into a pooled segment
        (pooled,) = _segments() - before
        view = unpack_payload(packed, cache)
        assert _offset_in(view, cache, arena.find_live(arr)[0]) is None
        assert _offset_in(view, cache, pooled) == 0
        arr[0] = 8
        assert view[0] == 7
        del view, arr  # drop buffer exports so close/unlink are clean
    finally:
        cache.close()


def test_unpack_without_cache_copies_but_never_unlinks(arena):
    src = np.arange(1024, dtype=np.float64)
    before = _segments()
    packed = pack_payload(src, arena, threshold=1)
    (name,) = _segments() - before
    out = unpack_payload(packed)
    assert out.flags.writeable  # a private copy
    np.testing.assert_array_equal(out, src, strict=True)
    assert name in _segments()  # still the owner's to reclaim
    # the owner still reclaims the segment normally afterwards
    arena.advance_epoch()
    pack_payload(src, arena, threshold=1)
    assert _segments() == before | {name}


# ---------------------------------------------------------------------------
# End-to-end: slab-heavy differential, leak audit, spawn
# ---------------------------------------------------------------------------


def _slab_heavy_prog(ctx):
    """Gather big slabs + a stencil write phase: exercises pooled sends,
    live bulk-reply references and arena-backed container storage."""
    from repro.algorithms.nested import p_stencil
    from repro.containers.parray import PArray
    from repro.views.array_views import Array1DView

    n = 4096
    pa = PArray(ctx, n, dtype=int)
    v = Array1DView(pa)
    sl = v.balanced_slices()
    for i in range(sl.lo, sl.hi):
        pa.set_element(i, (i * 2654435761) % 100003)
    ctx.rmi_fence()
    p_stencil(v, iters=2, dataflow=False)
    gathered = ctx.allgather_rmi(np.asarray(pa.get_range(sl.lo, sl.hi)))
    ctx.rmi_fence()
    return pa.to_list(), [int(a.sum()) for a in gathered]


def test_slab_heavy_differential(run_differential):
    """sim == mp, byte-identical, on a program whose traffic is mostly
    pooled slabs and live bulk-reply references."""
    run_differential(_slab_heavy_prog, 4)


def test_no_segment_leaks_after_run():
    spmd_run(_slab_heavy_prog, nlocs=4, backend="multiprocessing",
             timeout=120.0)
    leaked = glob.glob("/dev/shm/rs*")
    assert leaked == [], f"shared-memory segments leaked: {leaked}"


def test_spawn_start_method_smoke(run_differential):
    """The spawn start method re-imports everything in the child; the
    wire codec must carry fn/args (closures included) explicitly."""
    bonus = 17  # captured by the closure below

    def prog(ctx):
        data = np.full(1024, ctx.id, dtype=np.int64)
        got = ctx.allgather_rmi(data)
        return sorted(int(a[0]) + bonus for a in got)

    out = run_differential(prog, 2, start_method="spawn")
    assert out == [[17, 18]] * 2


# ---------------------------------------------------------------------------
# Property: slab views across an epoch boundary
# ---------------------------------------------------------------------------

DTYPES = st.sampled_from(["int16", "int64", "float32", "float64",
                          "complex128", "bool"])
SHAPES = st.lists(st.integers(1, 13), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(dtype=DTYPES, shape=SHAPES, live=st.booleans(),
       epochs=st.integers(1, 3))
def test_storage_slab_survives_epochs(dtype, shape, live, epochs):
    """An arena-backed slab view stays bit-identical across migration
    epoch boundaries: storage segments are never pooled, and a pooled
    message segment is not recycled under the receiver's feet until the
    owner packs into it again."""
    rng = np.random.default_rng(abs(hash((dtype, tuple(shape)))) % 2**32)
    arena, cache = ShmArena(_namer), SegmentCache()
    try:
        arr = arena.storage_alloc(tuple(shape), dtype)
        assert arr is not None
        arr[...] = (rng.random(shape) * 100).astype(dtype)
        view = unpack_payload(
            pack_payload(arr, arena, threshold=1, live_ok=live), cache)
        storage = arena.find_live(arr)[0]
        assert (_offset_in(view, cache, storage) == 0) is live
        before = view.copy()
        for _ in range(epochs):
            arena.advance_epoch()  # what a migration commit fence does
        np.testing.assert_array_equal(view, before, strict=True)
        np.testing.assert_array_equal(view, arr, strict=True)
        del view, arr  # drop buffer exports so close/unlink are clean
    finally:
        cache.close()
        arena.dispose()
