"""Differential sim-vs-real equivalence suite (ROADMAP item 1 acceptance).

Each test runs one SPMD program twice — under the deterministic simulated
oracle and under the real multiprocessing backend — and asserts the
per-location results are byte-identical, across worker counts P=1,2,4.

Programs are written the way any correct distributed program must be:
conflicting writes are ordered (disjoint writers, commutative accumulates,
min-fixpoints), because under real concurrency cross-source interleaving is
genuinely nondeterministic.  Given that discipline, the two backends must
agree bit-for-bit on all six container families and every algorithm
driver.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms import (
    map_reduce,
    p_adjacent_difference,
    p_partial_sum,
    p_sample_sort,
    p_sort_scan_pipeline,
    sssp,
    word_count,
)
from repro.containers import (
    PArray,
    PGraph,
    PHashMap,
    PList,
    PMatrix,
    PSet,
    PVector,
)
from repro.runtime import LocationGroup, PObject, SpmdError, spmd_run_detailed
from repro.views import Array1DView

SWEEP = pytest.mark.parametrize("nlocs", [1, 2, 4])


# ---------------------------------------------------------------------------
# The six container families
# ---------------------------------------------------------------------------


def _parray_prog(ctx):
    n = 48
    pa = PArray(ctx, n, value=0)
    for i in range(n):
        if pa.is_local(i):
            pa.set_element(i, i * i - 3 * i)
    ctx.rmi_fence()
    # cross-location reads exercise the request/reply path
    probes = [pa.get_element((ctx.id * 11 + k) % n) for k in range(6)]
    ctx.rmi_fence()
    out = pa.to_list()
    ctx.rmi_fence()
    return probes, out


def _pvector_prog(ctx):
    n = 24
    pv = PVector(ctx, n, value=1)
    for i in range(n):
        if pv.is_local(i):
            pv.set_element(i, (i * 7) % 13)
    ctx.rmi_fence()
    out = pv.to_list()
    total = ctx.allreduce_rmi(sum(out))
    ctx.rmi_fence()
    return out, total


def _plist_prog(ctx):
    pl = PList(ctx)
    # per-location push_anywhere_range targets this location's own segment:
    # deterministic placement on both backends
    pl.push_anywhere_range([ctx.id * 1000 + k for k in range(7)])
    ctx.rmi_fence()
    out = pl.to_list()
    ctx.rmi_fence()
    return sorted(out), len(out)


def _assoc_prog(ctx):
    pm = PHashMap(ctx)
    ps = PSet(ctx)
    # commutative accumulates + idempotent set inserts: order-free results
    for k in range(20):
        pm.accumulate(f"key{k % 6}", k + ctx.id)
        ps.insert((k * 5) % 9)
    ctx.rmi_fence()
    # a hash map's within-bContainer order is insertion order, i.e. the
    # cross-sender arrival order on real processes: compare it order-free;
    # the set is a sorted_order container, its exact order is the contract
    items = sorted(pm.sorted_items())
    members = ps.sorted_items()
    ctx.rmi_fence()
    return items, members


def _pgraph_prog(ctx):
    n = 10
    g = PGraph(ctx, n, default_property=0)
    if ctx.id == 0:  # single writer: identical edge set on both backends
        for u in range(n):
            g.add_edge_async(u, (u + 1) % n, float(u % 4 + 1))
            g.add_edge_async(u, (u + 3) % n, 2.0)
    ctx.rmi_fence()
    degs = [len(list(g.edges_of(v))) if g.is_local(v) else -1
            for v in range(n)]
    total_edges = ctx.allreduce_rmi(sum(d for d in degs if d >= 0))
    ctx.rmi_fence()
    return total_edges


def _pmatrix_prog(ctx):
    rows = cols = 6
    pm = PMatrix(ctx, rows, cols, value=0)
    for i in range(rows):
        for j in range(cols):
            if pm.is_local((i, j)):
                pm.set_element((i, j), i * cols + j)
    ctx.rmi_fence()
    local_sum = sum(pm.get_element((i, j)) for i in range(rows)
                    for j in range(cols) if pm.is_local((i, j)))
    total = ctx.allreduce_rmi(local_sum)
    trace = sum(pm.get_element((d, d)) for d in range(rows))
    ctx.rmi_fence()
    return total, trace


CONTAINER_PROGS = {
    "parray": _parray_prog,
    "pvector": _pvector_prog,
    "plist": _plist_prog,
    "associative": _assoc_prog,
    "pgraph": _pgraph_prog,
    "pmatrix": _pmatrix_prog,
}


@SWEEP
@pytest.mark.parametrize("family", sorted(CONTAINER_PROGS))
def test_container_family_identical(run_differential, family, nlocs):
    run_differential(CONTAINER_PROGS[family], nlocs)


# ---------------------------------------------------------------------------
# Algorithm drivers
# ---------------------------------------------------------------------------


def _sort_prog(ctx):
    n = 64
    pa = PArray(ctx, n, value=0)
    data = np.random.default_rng(11).integers(0, 500, n)
    for i in range(n):
        if pa.is_local(i):
            pa.set_element(i, int(data[i]))
    ctx.rmi_fence()
    p_sample_sort(Array1DView(pa))
    out = pa.to_list()
    ctx.rmi_fence()
    return out


def _scan_prog(ctx):
    n = 40
    src = PArray(ctx, n, value=0)
    dst = PArray(ctx, n, value=0)
    diff = PArray(ctx, n, value=0)
    for i in range(n):
        if src.is_local(i):
            src.set_element(i, (i * 3) % 11)
    ctx.rmi_fence()
    p_partial_sum(Array1DView(src), Array1DView(dst))
    p_adjacent_difference(Array1DView(dst), Array1DView(diff))
    out = dst.to_list(), diff.to_list()
    ctx.rmi_fence()
    return out


def _sssp_prog(ctx):
    n = 14
    g = PGraph(ctx, n, default_property=0)
    if ctx.id == 0:
        for u in range(n - 1):
            g.add_edge_async(u, u + 1, float((u % 3) + 1))
        g.add_edge_async(0, 7, 2.5)
        g.add_edge_async(2, 11, 1.5)
    ctx.rmi_fence()
    rounds = sssp(g, 0)
    dists = [g.vertex_property(v) for v in range(n)]
    ctx.rmi_fence()
    del rounds  # round counts are backend-dependent; distances are not
    return dists


def _wordcount_prog(ctx):
    docs = [f"alpha w{(ctx.id * 3 + k) % 5} beta" for k in range(5)]
    out = word_count(ctx, docs)
    counts = sorted(out.sorted_items())  # hash map: order-free, see above
    ctx.rmi_fence()
    return counts


def _map_reduce_prog(ctx):
    items = range(ctx.id * 8, ctx.id * 8 + 8)
    out = map_reduce(ctx, items,
                     lambda x: [("even" if x % 2 == 0 else "odd", 1)])
    counts = sorted(out.sorted_items())  # hash map: order-free, see above
    ctx.rmi_fence()
    return counts


DRIVER_PROGS = {
    "sample_sort": _sort_prog,
    "scan": _scan_prog,
    "sssp": _sssp_prog,
    "wordcount": _wordcount_prog,
    "map_reduce": _map_reduce_prog,
}


@SWEEP
@pytest.mark.parametrize("driver", sorted(DRIVER_PROGS))
def test_driver_identical(run_differential, driver, nlocs):
    run_differential(DRIVER_PROGS[driver], nlocs)


# ---------------------------------------------------------------------------
# The sort -> scan -> adjacent-difference pipeline (composed drivers over
# one dataset: the acceptance-bar end-to-end program)
# ---------------------------------------------------------------------------


def _pipeline_prog(ctx):
    n = 48
    src = PArray(ctx, n, value=0)
    sums = PArray(ctx, n, value=0)
    diffs = PArray(ctx, n, value=0)
    data = np.random.default_rng(23).integers(0, 300, n)
    for i in range(n):
        if src.is_local(i):
            src.set_element(i, int(data[i]))
    ctx.rmi_fence()
    p_sort_scan_pipeline(Array1DView(src), Array1DView(sums),
                         Array1DView(diffs))
    out = src.to_list(), sums.to_list(), diffs.to_list()
    ctx.rmi_fence()
    return out


@SWEEP
def test_sort_scan_diff_pipeline_identical(run_differential, nlocs):
    run_differential(_pipeline_prog, nlocs)


# ---------------------------------------------------------------------------
# The collective protocol is written once (Location._collective): what it
# allows, counts and ships is the same on both backends
# ---------------------------------------------------------------------------


class _Nested(PObject):
    """Runs collectives from inside its RMI handlers."""

    def solo(self):
        """A singleton group completes inline, so it may nest in a handler
        — including the registration of a p_object on it."""
        here = self.here
        g = LocationGroup([here.id])
        inner = _Nested(here, group=g)
        out = (here.allreduce_rmi(5, group=g),
               here.allgather_rmi(here.id, group=g),
               inner.get_num_locations())
        inner.destroy()
        return out

    def wide(self):
        try:
            self.here.allreduce_rmi(1)
        except SpmdError as exc:
            return "handlers must not block" in str(exc)
        return False


def _collective_in_handler_prog(ctx):
    obj = _Nested(ctx)
    ctx.rmi_fence()
    peer = (ctx.id + 1) % ctx.nlocs
    out = (ctx.sync_rmi(peer, obj.handle, "solo"),
           ctx.sync_rmi(peer, obj.handle, "wide"))
    ctx.rmi_fence()
    return out


@pytest.mark.parametrize("nlocs", [2, 4])
def test_singleton_collective_in_handler_identical(run_differential, nlocs):
    out = run_differential(_collective_in_handler_prog, nlocs)
    assert out == [((5, [(lid + 1) % nlocs], 1), True)
                   for lid in range(nlocs)]


def _collectives_only_prog(ctx):
    total = ctx.allreduce_rmi(ctx.id)
    ctx.rmi_fence()
    return (total, ctx.allgather_rmi(ctx.id),
            ctx.alltoall_rmi([ctx.id * 10 + d for d in range(ctx.nlocs)]))


def test_collective_and_fence_counts_identical():
    """A fence is one collective however many counting rounds the real
    backend's protocol takes to certify quiescence."""
    sim = spmd_run_detailed(_collectives_only_prog, nlocs=4)
    real = spmd_run_detailed(_collectives_only_prog, nlocs=4,
                             backend="multiprocessing", timeout=120.0)
    assert sim.results == real.results
    for rep in (sim, real):
        assert rep.stats.total.collectives == 4 * 4
        assert rep.stats.total.fences == 4


def _bulk_rounds_prog(ctx):
    # one slab to the right neighbour, empty ones to everybody else ...
    slabs = [list(range(1000)) if d == (ctx.id + 1) % ctx.nlocs else []
             for d in range(ctx.nlocs)]
    got = ctx.bulk_exchange(slabs, nelems=1000)
    # ... and a gather only location 0 contributes to
    gathered = ctx.bulk_gather([ctx.id] * 5 if ctx.id == 0 else [], nelems=5)
    ctx.rmi_fence()
    return [len(s) for s in got], gathered


def test_bulk_round_counters_identical():
    """Empty slabs are neither messages nor bytes on either backend: the
    counters of a bulk round come from one place, ``Location._bulk_round``."""
    sim = spmd_run_detailed(_bulk_rounds_prog, nlocs=4, machine="smp")
    real = spmd_run_detailed(_bulk_rounds_prog, nlocs=4, machine="smp",
                             backend="multiprocessing", timeout=120.0)
    assert sim.results == real.results
    assert sim.stats.total.bulk_rmi_sent == 4 + 3
    for counter in ("bulk_rmi_sent", "physical_messages", "bytes_sent",
                    "bulk_elements_moved"):
        assert (getattr(sim.stats.total, counter)
                == getattr(real.stats.total, counter)), counter


_SLAB = 1 << 17  # int64 elements: 1 MiB


def _personalised_alltoall_prog(ctx):
    slabs = [np.full(_SLAB, ctx.id * 10 + d, dtype=np.int64)
             for d in range(ctx.nlocs)]
    before = ctx.stats.shm_segments_created, ctx.stats.zero_copy_slab_views
    got = ctx.alltoall_rmi(slabs)
    if not ctx.runtime.shared_address_space:
        # one segment packed per *other* member, one mapped per sender:
        # nobody packs or maps a slab bound for somebody else
        assert ctx.stats.shm_segments_created - before[0] == ctx.nlocs - 1
        assert ctx.stats.zero_copy_slab_views - before[1] == ctx.nlocs - 1
    out = [(a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest())
           for a in got]
    ctx.rmi_fence()
    return out


def test_alltoall_is_personalised(run_differential):
    out = run_differential(_personalised_alltoall_prog, 4)
    want = hashlib.sha256(np.full(_SLAB, 21, dtype=np.int64).tobytes())
    assert out[1][2] == ("<i8", (_SLAB,), want.hexdigest())
