"""Generic pAlgorithms (Ch. VIII.C): parallel counterparts of STL algorithms.

All algorithms are SPMD-collective over the view's group: every member calls
them, each processes its local chunks, and global results come from runtime
collectives.  They end on the automatic synchronisation point of Ch. VII.H.

``p_generate``, ``p_for_each`` and ``p_accumulate`` are the paper's
representative map / map-reduce kernels (Figs. 33, 40, 60); the rest round
out the STL surface (count/find/min/max/copy/fill/equal/inner product/
adjacent difference/partial sum).
"""

from __future__ import annotations

import operator

import numpy as np

from ..core.domains import RangeDomain
from ..views.base import Workfunction
from .prange import Executor, Paragraph, PRange


def _finish(view) -> None:
    view.post_execute()


def _read_slab(view, dom: RangeDomain) -> list:
    """Read ``[dom.lo, dom.hi)`` through the bulk transport when the view
    supports it (one slab per owning location), else element-wise."""
    rr = getattr(view, "read_range", None)
    if view.container.runtime.config.bulk_transport and rr is not None:
        vals = rr(dom.lo, dom.hi)
        if vals is not None:
            return vals.tolist() if hasattr(vals, "tolist") else list(vals)
    return [view.read(i) for i in dom]


def _write_slab(view, lo: int, values) -> None:
    """Write ``values`` at consecutive indices from ``lo``, bulk if
    possible."""
    wr = getattr(view, "write_range", None)
    if (view.container.runtime.config.bulk_transport and wr is not None
            and len(values)):
        if wr(lo, values):
            return
    for k, v in enumerate(values):
        view.write(lo + k, v)


# ---------------------------------------------------------------------------
# map-style algorithms
# ---------------------------------------------------------------------------

def p_generate(view, gen, vector=None, cost=None) -> None:
    """Assign ``gen(index)`` to every element (Fig. 33's ``p_generate``)."""
    wf = Workfunction(gen, vector=vector, cost=cost)
    pr = PRange.map_over(view, lambda ch: ch.generate(wf))
    Executor().run(pr)


def p_for_each(view, fn, vector=None, cost=None) -> None:
    """Apply a mutating function: ``x <- fn(x)`` for every element."""
    wf = Workfunction(fn, vector=vector, cost=cost)
    pr = PRange.map_over(view, lambda ch: ch.map_values(wf))
    Executor().run(pr)


def p_visit(view, fn, cost=None) -> None:
    """Apply ``fn(x)`` for side effects only (read-only traversal)."""
    wf = Workfunction(fn, cost=cost)
    pr = PRange.map_over(view, lambda ch: ch.visit(wf))
    Executor().run(pr)


def p_fill(view, value) -> None:
    """Set every element to ``value``."""
    wf = Workfunction(lambda _v: value,
                      vector=lambda a: np.full(len(a), value))
    for chunk in view.local_chunks():
        bc = getattr(chunk, "bc", None)
        if bc is not None and hasattr(bc, "bulk_fill"):
            chunk._charge(wf, per_elem_accesses=1)
            bc.bulk_fill(value)
        else:
            chunk.map_values(wf)
    _finish(view)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def p_accumulate(view, init=0, op=operator.add):
    """Global reduction of all elements (map-reduce pattern, Fig. 33)."""
    acc = None
    for chunk in view.local_chunks():
        part = chunk.reduce_values(op, init if acc is None else acc)
        acc = part
    local = init if acc is None else acc
    ctx = view.ctx
    total = ctx.allreduce_rmi(local, op, group=view.group)
    _finish(view)
    return total


p_reduce = p_accumulate


def p_count_if(view, pred):
    """Number of elements satisfying ``pred``."""
    local = 0
    for chunk in view.local_chunks():
        local = chunk.reduce_values(
            lambda acc, v: acc + (1 if pred(v) else 0), local)
    total = view.ctx.allreduce_rmi(local, group=view.group)
    _finish(view)
    return total


def p_count(view, value):
    return p_count_if(view, lambda v: v == value)


def p_find_if(view, pred):
    """Index of the first element (in domain order) satisfying ``pred``,
    or None."""
    best = None
    for chunk in view.local_chunks():
        for gid in chunk.gids():
            if pred(chunk.read(gid)):
                if best is None or gid < best:
                    best = gid
                break
    found = view.ctx.allreduce_rmi(
        best, lambda a, b: b if a is None else (a if b is None else min(a, b)),
        group=view.group)
    _finish(view)
    return found


def p_find(view, value):
    return p_find_if(view, lambda v: v == value)


def _extreme(view, better):
    best = None  # (gid, value)
    for chunk in view.local_chunks():
        for gid, val in chunk.items():
            if best is None or better(val, best[1]) or (
                    val == best[1] and gid < best[0]):
                best = (gid, val)
    def combine(a, b):
        if a is None:
            return b
        if b is None:
            return a
        if better(b[1], a[1]) or (b[1] == a[1] and b[0] < a[0]):
            return b
        return a
    out = view.ctx.allreduce_rmi(best, combine, group=view.group)
    _finish(view)
    return out


def p_min_element(view):
    """(index, value) of the minimum element."""
    return _extreme(view, operator.lt)


def p_max_element(view):
    """(index, value) of the maximum element."""
    return _extreme(view, operator.gt)


def p_equal(view_a, view_b) -> bool:
    """True iff both views have equal size and element-wise equal values."""
    if view_a.size() != view_b.size():
        view_a.ctx.rmi_fence(view_a.group)
        return False
    sl = view_a.balanced_slices()
    ok = _read_slab(view_a, sl) == _read_slab(view_b, sl)
    out = view_a.ctx.allreduce_rmi(ok, lambda a, b: a and b,
                                   group=view_a.group)
    _finish(view_a)
    return out


# ---------------------------------------------------------------------------
# two-view algorithms
# ---------------------------------------------------------------------------

def _aligned_native_pairs(src, dst):
    """If src and dst are identity views over identically-partitioned
    containers, return the paired local bContainers for bulk processing."""
    from ..views.array_views import Array1DView

    for v in (src, dst):
        if not isinstance(v, Array1DView) or v.mapping is not None:
            return None
    a, b = src.container, dst.container
    if a.domain.size() != b.domain.size():
        return None
    abcs = a.local_bcontainers()
    bbcs = b.local_bcontainers()
    if len(abcs) != len(bbcs):
        return None
    for x, y in zip(abcs, bbcs):
        if list(x.domain) != list(y.domain):
            return None
    return list(zip(abcs, bbcs))


def p_transform(src, dst, fn, vector=None, cost=None) -> None:
    """``dst[i] <- fn(src[i])``.

    Runs as a two-view pRange, so the closing synchronisation point
    commits *both* containers (source metadata and destination writes) —
    not just the first view's."""
    pairs = _aligned_native_pairs(src, dst)
    ctx = src.ctx
    m = ctx.machine
    pr = PRange([src, dst])
    if pairs is not None:
        def xf(pair):
            sbc, dbc = pair
            ctx.charge((m.t_access * 2 + (cost or m.t_access)) * sbc.size())
            if vector is not None and hasattr(sbc, "values") and hasattr(
                    dbc, "values"):
                dbc.data[:] = vector(sbc.values())
            else:
                for gid in sbc.domain:
                    dbc.set(gid, fn(sbc.get(gid)))
        for pair in pairs:
            pr.add_task(xf, pair)
    else:
        def xf_slice(_c):
            for i in src.balanced_slices():
                dst.write(i, fn(src.read(i)))
        pr.add_task(xf_slice)
    Executor().run(pr)


def p_copy(src, dst) -> None:
    """``dst[i] <- src[i]``."""
    p_transform(src, dst, lambda v: v, vector=lambda a: a)


def p_inner_product(view_a, view_b, init=0):
    """Sum of ``a[i] * b[i]`` plus ``init``."""
    pairs = _aligned_native_pairs(view_a, view_b)
    ctx = view_a.ctx
    m = ctx.machine
    local = 0
    if pairs is not None:
        for abc, bbc in pairs:
            ctx.charge(m.t_access * 3 * abc.size())
            if hasattr(abc, "values") and hasattr(bbc, "values"):
                local += float((abc.values() * bbc.values()).sum())
            else:
                for gid in abc.domain:
                    local += abc.get(gid) * bbc.get(gid)
    else:
        for i in view_a.balanced_slices():
            local += view_a.read(i) * view_b.read(i)
    total = ctx.allreduce_rmi(local, group=view_a.group)
    _finish(view_a)
    return init + total


def p_adjacent_difference(src, dst) -> None:
    """STL semantics: ``dst[0] = src[0]``; ``dst[i] = src[i] - src[i-1]``.

    Data-flow mode: a neighbour edge — each location forwards the last
    value seen so far to its right neighbour as a dependence message
    (empty slices forward unchanged), so no location blocks on a remote
    boundary read.  Fenced baseline: one sync remote boundary read per
    location — the overlap-view pattern (Fig. 2) with window
    (c=1, l=1, r=0)."""
    if src.ctx.config.dataflow:
        _adjacent_difference_dataflow(src, dst)
        return
    ctx = src.ctx
    sl = src.balanced_slices()
    if sl.size():
        prev = src.read(sl.lo - 1) if sl.lo > 0 else None
        vals = _read_slab(src, sl)
        out = []
        for k, i in enumerate(sl):
            if i == 0:
                out.append(vals[0])
            else:
                left = vals[k - 1] if k > 0 else prev
                out.append(vals[k] - left)
        _write_slab(dst, sl.lo, out)
    _finish(dst)


def _diff_outputs(vals, prev):
    """Adjacent differences of one location's run given the last value on
    any lower location (None at the global start or when all lower runs
    are empty); returns (outputs, last value seen so far)."""
    out = []
    left = prev
    for v in vals:
        out.append(v if left is None else v - left)
        left = v
    return out, left


def _adjacent_difference_dataflow(src, dst) -> None:
    pg = Paragraph(src.ctx, views=(src, dst))
    sl = src.balanced_slices()
    build_diff_tasks(pg, dst, lambda: _read_slab(src, sl), lambda: sl.lo)
    pg.run()
    pg.destroy()


def _prefix_outputs(prefix, carry, op, inclusive):
    """Final prefix values for one location given the carry folded over all
    lower locations (None when nothing precedes)."""
    out = []
    for k in range(len(prefix)):
        if inclusive:
            out.append(prefix[k] if carry is None else op(carry, prefix[k]))
        elif k == 0:
            out.append(carry)
        else:
            out.append(prefix[k - 1] if carry is None
                       else op(carry, prefix[k - 1]))
    return out


def _write_prefix(dst, lo, out) -> None:
    if out and out[0] is None:
        # exclusive scan leaves dst[0] untouched on the first location
        _write_slab(dst, lo + 1, out[1:])
    elif out:
        _write_slab(dst, lo, out)


def p_partial_sum(src, dst, op=operator.add, inclusive: bool = True) -> None:
    """Parallel prefix (Ch. III: "important parallel algorithmic
    techniques"): local prefix, then the carry over lower locations.

    Data-flow mode: the carry travels as a neighbour chain of dependence
    messages (location i folds in its total and forwards), pipelining the
    tail of the computation instead of synchronising every member at a
    scan collective.  Fenced baseline: exclusive scan collective of local
    totals."""
    if src.ctx.config.dataflow:
        _partial_sum_dataflow(src, dst, op, inclusive)
        return
    ctx = src.ctx
    m = ctx.machine
    sl = src.balanced_slices()
    vals = _read_slab(src, sl)
    ctx.charge(m.t_access * len(vals))
    prefix = []
    acc = None
    for v in vals:
        acc = v if acc is None else op(acc, v)
        prefix.append(acc)

    def scan_op(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return op(a, b)

    carry, _total = ctx.scan_rmi(acc, scan_op, exclusive=True,
                                 group=src.group)
    _write_prefix(dst, sl.lo, _prefix_outputs(prefix, carry, op, inclusive))
    _finish(dst)


def build_scan_tasks(pg, dst, source, offset_of, op, inclusive,
                     after=()):
    """Add this location's carry-chain prefix tasks to ``pg``: a parallel
    O(n) task folding the local prefix over ``source()``, then an O(1)
    chain task that folds the local total into the carry from the left
    neighbour, forwards it (before writing, pipelining the chain
    downstream), and writes the outputs at ``offset_of()``.  Shared by
    the standalone ``p_partial_sum`` and the sort→scan pipeline."""
    ctx = pg.ctx
    m = ctx.machine
    members = pg.group.members
    me = members.index(ctx.id)
    P = len(members)
    st = {}

    def t_local(_c):
        vals = source()
        ctx.charge(m.t_access * len(vals))
        prefix = []
        acc = None
        for v in vals:
            acc = v if acc is None else op(acc, v)
            prefix.append(acc)
        st["prefix"] = prefix
        st["total"] = acc

    local_t = pg.add_task(t_local, deps=after)

    def t_out(_c, inputs=None):
        carry = inputs["carry"] if me else None
        total = st["total"]
        if me + 1 < P:
            nxt = (carry if total is None
                   else total if carry is None else op(carry, total))
            pg.send(members[me + 1], "scan", nxt, tag="carry")
        _write_prefix(dst, offset_of(),
                      _prefix_outputs(st["prefix"], carry, op, inclusive))

    return pg.add_task(t_out, deps=(local_t,), key="scan",
                       needs=1 if me else 0)


def build_diff_tasks(pg, dst, source, offset_of, after=()):
    """Add this location's adjacent-difference tasks to ``pg``: read the
    run via ``source()``, then an O(1) boundary chain — forward the last
    value seen so far (unchanged through empty runs) and write the
    differences at ``offset_of()``.  Shared by the standalone
    ``p_adjacent_difference`` and the sort→scan pipeline."""
    ctx = pg.ctx
    members = pg.group.members
    me = members.index(ctx.id)
    P = len(members)
    st = {}

    def t_read(_c):
        st["vals"] = source()

    rd = pg.add_task(t_read, deps=after)

    def t_diff(_c, inputs=None):
        vals = st["vals"]
        prev = inputs["bound"] if me else None
        if me + 1 < P:
            # forward the boundary before computing: the right neighbour
            # can start as soon as its own run is in hand
            pg.send(members[me + 1], "diff", vals[-1] if vals else prev,
                    tag="bound")
        out, _last = _diff_outputs(vals, prev)
        if out:
            _write_slab(dst, offset_of(), out)

    return pg.add_task(t_diff, deps=(rd,), key="diff",
                       needs=1 if me else 0)


def _partial_sum_dataflow(src, dst, op, inclusive) -> None:
    pg = Paragraph(src.ctx, views=(src, dst))
    sl = src.balanced_slices()
    build_scan_tasks(pg, dst, lambda: _read_slab(src, sl), lambda: sl.lo,
                     op, inclusive)
    pg.run()
    pg.destroy()
