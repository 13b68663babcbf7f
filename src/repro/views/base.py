"""pView core (Ch. III.A): V = (C, D, F, O).

A pView references a collection (usually a pContainer), defines a domain of
view indices, maps them onto collection GIDs through a mapping function F,
and exposes ADT operations.  For parallel use a pView partitions itself into
*base views* (bViews); pAlgorithms obtain the bViews assigned to the calling
location via :meth:`PView.local_chunks` and process them task-style.

Two chunk flavours implement the locality story the paper tells:

* :class:`NativeChunk` — aligned with the container's distribution; element
  access is direct bContainer access (and NumPy-bulk capable);
* :class:`GenericChunk` — an arbitrary slice of the view's domain; element
  access goes through the container's shared-object interface and may be
  remote.  Balanced views over misaligned data pay for their flexibility,
  which the native-vs-balanced ablation measures.
"""

from __future__ import annotations

import numpy as np

from ..core.domains import RangeDomain
from ..core.partitions import balanced_sizes

def slab_passthrough(view) -> bool:
    """May bulk slab values stay NumPy arrays (possibly read-only
    zero-copy views over shared memory) instead of being lowered to plain
    lists?  True exactly when the view's container runs on a real
    (process-per-location) backend — there the ``tolist`` lowering would
    forfeit the zero-copy receive.
    Under the simulated backend slabs keep their historical plain-list
    form, so sim-vs-real differential results stay byte-identical."""
    c = getattr(view, "container", None)
    rt = getattr(c, "runtime", None)
    return rt is not None and not rt.shared_address_space


def sync_views(views) -> None:
    """Automatic synchronisation point over a set of views (Ch. VII.H):
    one fence per distinct location group, then every distinct container's
    ``post_execute`` hook exactly once.

    Multi-view computations (``p_transform``'s src→dst pRange) must commit
    *every* container they touched — fencing only ``views[0]`` leaves the
    destination container's replicated metadata stale.  Containers are
    deduplicated by identity so a pRange holding two views over the same
    container still runs the hook once."""
    if not views:
        return
    seen_groups = set()
    for v in views:
        key = v.group.key
        if key not in seen_groups:
            seen_groups.add(key)
            v.ctx.rmi_fence(v.group)
    seen_containers = set()
    for v in views:
        c = v.container
        if id(c) in seen_containers:
            continue
        seen_containers.add(id(c))
        hook = getattr(c, "post_execute", None)
        if hook is not None:
            hook()


class Workfunction:
    """Workfunction wrapper: a scalar callable plus an optional vectorised
    (NumPy) implementation and a virtual per-element cost."""

    __slots__ = ("fn", "vector", "cost")

    def __init__(self, fn, vector=None, cost=None):
        self.fn = fn
        self.vector = vector
        self.cost = cost

    def __call__(self, *args):
        return self.fn(*args)


def as_wf(fn) -> Workfunction:
    if isinstance(fn, Workfunction):
        return fn
    return Workfunction(fn)


class Chunk:
    """One bView: the unit of work a pAlgorithm task processes."""

    def size(self) -> int:
        raise NotImplementedError

    def gids(self):
        raise NotImplementedError

    def read(self, gid):
        raise NotImplementedError

    def write(self, gid, value) -> None:
        raise NotImplementedError

    def items(self):
        for gid in self.gids():
            yield gid, self.read(gid)

    # -- bulk operations (overridden with vectorised paths) ---------------
    def map_values(self, wf: Workfunction) -> None:
        """value <- wf(value) for every element."""
        for gid in self.gids():
            self.write(gid, wf.fn(self.read(gid)))

    def generate(self, wf: Workfunction) -> None:
        """value <- wf(gid) for every element."""
        for gid in self.gids():
            self.write(gid, wf.fn(gid))

    def visit(self, wf: Workfunction) -> None:
        """Call wf(value) for side effects only."""
        for gid in self.gids():
            wf.fn(self.read(gid))

    def reduce_values(self, op, initial):
        acc = initial
        for gid in self.gids():
            acc = op(acc, self.read(gid))
        return acc


class NativeChunk(Chunk):
    """bView aligned with one local bContainer (fast path)."""

    def __init__(self, view, bc, location):
        self.view = view
        self.bc = bc
        self.location = location

    def size(self) -> int:
        return self.bc.size()

    def gids(self):
        return iter(self.bc.domain)

    def read(self, gid):
        self.location.charge_access()
        return self.bc.get(gid)

    def write(self, gid, value) -> None:
        self.location.charge_access()
        self.bc.set(gid, value)

    def _charge(self, wf: Workfunction, per_elem_accesses: int = 2) -> None:
        m = self.location.machine
        per = m.t_access * per_elem_accesses + (wf.cost or m.t_access)
        self.location.charge(per * self.bc.size())

    def map_values(self, wf: Workfunction) -> None:
        self._charge(wf)
        if hasattr(self.bc, "bulk_map"):
            if wf.vector is not None:
                self.bc.bulk_map(wf.vector)
            else:
                data = self.bc.data
                data[:] = [wf.fn(v) for v in data.tolist()]
            return
        for gid in self.gids():
            self.bc.set(gid, wf.fn(self.bc.get(gid)))

    def generate(self, wf: Workfunction) -> None:
        self._charge(wf, per_elem_accesses=1)
        if wf.vector is not None and hasattr(self.bc, "bulk_map"):
            import numpy as np

            dom = self.bc.domain
            if isinstance(dom, RangeDomain):
                gids = np.arange(dom.lo, dom.hi, dtype=np.int64)
            else:
                gids = np.fromiter(dom, dtype=np.int64, count=self.bc.size())
            self.bc.data = np.asarray(wf.vector(gids), dtype=self.bc.data.dtype)
            return
        for gid in self.gids():
            self.bc.set(gid, wf.fn(gid))

    def visit(self, wf: Workfunction) -> None:
        self._charge(wf, per_elem_accesses=1)
        vals = self.bc.values() if hasattr(self.bc, "values") else None
        if vals is not None:
            for v in vals:
                wf.fn(v)
            return
        for gid in self.gids():
            wf.fn(self.bc.get(gid))

    def reduce_values(self, op, initial):
        m = self.location.machine
        self.location.charge((m.t_access * 2) * self.bc.size())
        vals = self.bc.values() if hasattr(self.bc, "values") else None
        if vals is None:
            return super().reduce_values(op, initial)
        if hasattr(vals, "dtype"):  # NumPy fast paths for common reductions
            import operator

            if self.bc.size():
                if op is operator.add:
                    return op(initial, vals.sum().item())
                if op is min:
                    return min(initial, vals.min().item())
                if op is max:
                    return max(initial, vals.max().item())
            vals = vals.tolist()
        acc = initial
        for v in vals:
            acc = op(acc, v)
        return acc


class GenericChunk(Chunk):
    """bView over an arbitrary slice of a view's domain; element access uses
    the view's ADT operations (possibly remote).

    When the view exposes contiguous range accessors (``read_range`` /
    ``write_range``) and the chunk's index domain is a contiguous range, the
    bulk element-transport path is used: the whole slice moves as one slab
    per owning location instead of one RMI per element."""

    def __init__(self, view, index_domain):
        self.view = view
        self.index_domain = index_domain

    def size(self) -> int:
        return self.index_domain.size()

    def gids(self):
        return iter(self.index_domain)

    def read(self, i):
        return self.view.read(i)

    def write(self, i, value) -> None:
        self.view.write(i, value)

    # -- bulk helpers ------------------------------------------------------
    def _bulk_read(self):
        """The chunk's slice as a slab, or None when the bulk path does not
        apply (bulk transport off, non-contiguous domain, view without
        ranges)."""
        dom = self.index_domain
        if (not self.view.container.runtime.config.bulk_transport
                or not isinstance(dom, RangeDomain)
                or not hasattr(self.view, "read_range")):
            return None
        return self.view.read_range(dom.lo, dom.hi)

    def _bulk_write(self, values) -> bool:
        dom = self.index_domain
        if (not self.view.container.runtime.config.bulk_transport
                or not isinstance(dom, RangeDomain)
                or not hasattr(self.view, "write_range")):
            return False
        return self.view.write_range(dom.lo, values)

    def _charge_wf(self, wf: Workfunction) -> None:
        m = self.view.ctx.machine
        self.view.ctx.charge((wf.cost or m.t_access) * self.size())

    def _charge_access(self, accesses: int) -> None:
        """Per-element sweep cost of a bulk branch — kept identical to the
        native chunk's accounting so bulk transport wins on messages, not on
        element-touch bookkeeping."""
        m = self.view.ctx.machine
        self.view.ctx.charge(m.t_access * accesses * self.size())

    def map_values(self, wf: Workfunction) -> None:
        self._charge_wf(wf)
        vals = self._bulk_read()
        if vals is not None:
            self._charge_access(2)
            if wf.vector is not None:
                out = wf.vector(np.asarray(vals))
            else:
                seq = vals.tolist() if hasattr(vals, "tolist") else vals
                out = [wf.fn(v) for v in seq]
            # the workfunction already ran once per element — never re-run
            # it (it may be stateful); scatter element-wise if no slab write
            if not self._bulk_write(out):
                for k, i in enumerate(self.index_domain):
                    self.view.write(i, out[k])
            return
        for i in self.gids():
            self.view.write(i, wf.fn(self.view.read(i)))

    def generate(self, wf: Workfunction) -> None:
        self._charge_wf(wf)
        dom = self.index_domain
        if (self.view.container.runtime.config.bulk_transport
                and isinstance(dom, RangeDomain) and dom.size()
                and hasattr(self.view, "write_range")):
            self._charge_access(1)
            if wf.vector is not None:
                out = wf.vector(np.arange(dom.lo, dom.hi, dtype=np.int64))
            else:
                out = [wf.fn(i) for i in dom]
            if not self._bulk_write(out):
                for k, i in enumerate(dom):
                    self.view.write(i, out[k])
            return
        for i in self.gids():
            self.view.write(i, wf.fn(i))

    def visit(self, wf: Workfunction) -> None:
        self._charge_wf(wf)
        vals = self._bulk_read()
        if vals is not None:
            self._charge_access(1)
            seq = vals.tolist() if hasattr(vals, "tolist") else vals
            for v in seq:
                wf.fn(v)
            return
        for i in self.gids():
            wf.fn(self.view.read(i))

    def reduce_values(self, op, initial):
        vals = self._bulk_read()
        if vals is not None:
            self._charge_access(2)
            import operator

            if hasattr(vals, "dtype") and len(vals):
                if op is operator.add:
                    return op(initial, vals.sum().item())
                if op is min:
                    return min(initial, vals.min().item())
                if op is max:
                    return max(initial, vals.max().item())
            acc = initial
            seq = vals.tolist() if hasattr(vals, "tolist") else vals
            for v in seq:
                acc = op(acc, v)
            return acc
        acc = initial
        for i in self.gids():
            acc = op(acc, self.view.read(i))
        return acc


class PView:
    """Base pView (Table II rows share this interface).

    Views cache their *native* chunk lists (bViews aligned with local
    bContainers) keyed by the container's distribution epoch: a committed
    migration or redistribution bumps the epoch, so the next
    ``local_chunks`` call rebuilds the list against the fresh placement
    instead of touching bContainers that moved away.  Balanced/generic
    chunks are never cached — their domains depend on the (possibly
    changing) container size."""

    def __init__(self, container, group=None):
        self.container = container
        self.group = group or container.group
        self._chunk_cache: tuple | None = None

    @property
    def ctx(self):
        return self.container.runtime.current_location

    def _distribution_epoch(self) -> int:
        dist = getattr(self.container, "distribution", None)
        return dist.epoch if dist is not None else 0

    def cached_native_chunks(self, build, extra_key=None) -> list:
        """Native chunk list for this location, rebuilt by ``build()``
        whenever the container's distribution epoch changed (epoch-aware
        metadata refresh).  Views whose chunks snapshot element sets (the
        graph vertex view) pass an ``extra_key`` that also changes when
        the snapshot would."""
        key = (self._distribution_epoch(), extra_key)
        cached = self._chunk_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        chunks = build()
        self._chunk_cache = (key, chunks)
        return chunks

    def size(self) -> int:
        raise NotImplementedError

    def read(self, i):
        raise NotImplementedError

    def write(self, i, value) -> None:
        raise NotImplementedError

    def local_chunks(self) -> list:
        raise NotImplementedError

    def post_execute(self) -> None:
        """Automatic synchronisation point (Ch. VII.H): fence, then let the
        container commit/refresh replicated metadata."""
        sync_views([self])

    # -- domain helpers ----------------------------------------------------
    def balanced_slices(self) -> RangeDomain:
        """This location's share of ``[0, size)`` under a balanced split."""
        n = self.size()
        members = self.group.members
        sizes = balanced_sizes(n, len(members))
        me = members.index(self.ctx.id)
        lo = sum(sizes[:me])
        return RangeDomain(lo, lo + sizes[me])
