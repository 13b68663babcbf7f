"""Parallel sample sort (Ch. VI's motivating example: commutative bucket
inserts with per-bucket atomicity).

Phases: local sort → sample → splitter selection → bucket by splitter →
exchange → local merge → write back in globally sorted order.

Two execution modes share the phase kernels:

* data-flow (default, ``RuntimeConfig.dataflow``): the
  phases run as **one PARAGRAPH** — samples, buckets, and the running
  write-back offset travel as cross-location dependence messages, so the
  whole sort needs a single closing fence and no collectives;
* fenced baseline: the classic collective pipeline (allgather samples,
  alltoall buckets, exclusive scan for offsets, closing fence).

Element transport always rides the PR-1 slabs: the local portion is read
with one ``read_range`` per owning location and the sorted run written back
with ``write_range`` — not one scalar RMI per element.

Splitter selection handles the degenerate inputs (empty locations,
heavily-duplicated keys): sample indices are clamped into the flattened
sample list, and equal splitters *widen* the bucket range that equal keys
are round-robined across, so all-equal inputs spread over all locations
instead of collapsing into one bucket.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right

from .generic import _read_slab, _write_slab
from .prange import Paragraph


def _select_splitters(all_samples, P: int) -> list:
    """P-1 global splitters from per-location sample lists (location
    order).  Empty locations contribute nothing; selection indices are
    clamped, so few samples simply yield repeated splitters — which is
    deliberate: repeated splitters mark heavy duplicates, and
    :func:`_bucket_elements` spreads the equal keys across the repeated
    range instead of funnelling them into a single bucket."""
    flat = sorted(s for chunk in all_samples for s in chunk)
    if not flat or P <= 1:
        return []
    return [flat[min(len(flat) - 1, k * len(flat) // P)]
            for k in range(1, P)]


def _bucket_elements(local_sorted, splitters, P: int) -> list:
    """Partition a sorted run into P per-destination buckets.

    An element strictly between splitters has exactly one home.  An
    element *equal* to one or more splitters may go to any bucket in
    ``[bisect_left, bisect_right]`` without breaking global order (all
    boundary values it crosses equal it), so equal keys are dealt
    round-robin across that range — the duplicate-heavy fix."""
    buckets = [[] for _ in range(P)]
    rr: dict = {}
    for v in local_sorted:
        lo = bisect_left(splitters, v)
        hi = bisect_right(splitters, v)
        if lo == hi:
            b = lo
        else:
            c = rr.get(v, 0)
            rr[v] = c + 1
            b = lo + c % (hi - lo + 1)
        buckets[b].append(v)
    return buckets


def _local_sorted_sample(view, sl, oversample: int):
    """Phase 1: slab-read this location's portion, sort it, pick samples."""
    ctx = view.ctx
    m = ctx.machine
    local = _read_slab(view, sl)
    local.sort()
    n = len(local)
    ctx.charge(m.t_access * max(1, n) * max(1, int(math.log2(n + 1))) * 0.2)
    step = max(1, n // oversample) if n else 1
    return local, local[::step][:oversample]


def p_sample_sort(view, oversample: int = 4) -> None:
    """Sort the elements of a 1D view in place (collective)."""
    if view.ctx.config.dataflow:
        pg = Paragraph(view.ctx, views=(view,))
        build_sort_tasks(pg, view, oversample, {})
        pg.run()
        pg.destroy()
        return
    _sample_sort_fenced(view, oversample)


def _sample_sort_fenced(view, oversample: int) -> None:
    """Baseline: one collective per phase, closing fence."""
    ctx = view.ctx
    group = view.group
    P = len(group.members)
    m = ctx.machine
    local, samples = _local_sorted_sample(view, view.balanced_slices(),
                                          oversample)
    all_samples = ctx.allgather_rmi(samples, group=group)
    splitters = _select_splitters(all_samples, P)
    buckets = _bucket_elements(local, splitters, P)
    ctx.charge(m.t_access * len(local))
    received = ctx.alltoall_rmi(buckets, group=group)
    merged = list(heapq.merge(*received))
    ctx.charge(m.t_access * len(merged))
    offset, _total = ctx.scan_rmi(len(merged), exclusive=True, group=group)
    _write_slab(view, offset or 0, merged)
    view.post_execute()


def build_sort_tasks(pg: Paragraph, view, oversample: int, st: dict):
    """Add the sample-sort phases to ``pg`` as dependence-driven tasks for
    this location; returns the final (write-back) task so pipelines can
    chain further phases onto the sorted data.

    ``st`` receives the per-location results: ``st["merged"]`` (this
    location's globally-sorted run) and ``st["offset"]`` (its starting
    index), both available once the returned task's dependences ran.

    Data-flow edges: samples fan out all-to-all (tag = sender index),
    buckets fan out all-to-all, and write-back offsets travel as a
    neighbour chain (each location adds its run length and forwards) —
    no collective anywhere; the caller's closing fence commits the
    ``write_range`` slabs."""
    ctx = view.ctx
    members = pg.group.members
    me = members.index(ctx.id)
    P = len(members)
    m = ctx.machine
    sl = view.balanced_slices()

    def t_sort(_c):
        local, samples = _local_sorted_sample(view, sl, oversample)
        st["local"] = local
        for lid in members:
            pg.send(lid, "samples", samples, tag=me)

    sort_t = pg.add_task(t_sort)

    def t_split(_c, inputs):
        splitters = _select_splitters([inputs[i] for i in range(P)], P)
        local = st["local"]
        buckets = _bucket_elements(local, splitters, P)
        ctx.charge(m.t_access * len(local))
        for idx, lid in enumerate(members):
            pg.send(lid, "merge", buckets[idx], tag=me)

    split_t = pg.add_task(t_split, deps=(sort_t,), key="samples", needs=P)

    def t_merge(_c, inputs):
        merged = list(heapq.merge(*(inputs[i] for i in range(P))))
        ctx.charge(m.t_access * len(merged))
        st["merged"] = merged

    merge_t = pg.add_task(t_merge, deps=(split_t,), key="merge", needs=P)

    # The write-back offset travels as a neighbour chain *separate* from
    # the merge: each hop is O(1) (add the local run length and forward),
    # so the expensive merges stay parallel and only the trivial offset
    # arithmetic pipelines across locations.
    def t_offset(_c, inputs=None):
        st["offset"] = inputs["offset"] if me else 0
        if me + 1 < P:
            pg.send(members[me + 1], "offset",
                    st["offset"] + len(st["merged"]), tag="offset")

    offset_t = pg.add_task(t_offset, deps=(merge_t,), key="offset",
                           needs=1 if me else 0)

    def t_write(_c):
        _write_slab(view, st["offset"], st["merged"])

    return pg.add_task(t_write, deps=(offset_t,))


def p_is_sorted(view) -> bool:
    """Collective check that a 1D view is globally non-decreasing."""
    ctx = view.ctx
    sl = view.balanced_slices()
    ok = True
    prev = view.read(sl.lo - 1) if sl.size() and sl.lo > 0 else None
    for i in sl:
        v = view.read(i)
        if prev is not None and v < prev:
            ok = False
            break
        prev = v
    return ctx.allreduce_rmi(ok, lambda a, b: a and b, group=view.group)
