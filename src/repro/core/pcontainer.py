"""pContainer base classes (Ch. V.D, Fig. 5 taxonomy).

``PContainerBase`` (Table XI) owns the location-manager and the
data-distribution manager and provides the collective construction protocol:
register with the RTS, initialise domain/partition/mapper, allocate local
bContainers, and close with a barrier so no location escapes a constructor
before every representative is usable.

Specialisations (Tables XII–XVIII) are provided as mixin-style subclasses:
static, dynamic, indexed; associative / relational / sequence interfaces live
with their concrete containers in :mod:`repro.containers`.
"""

from __future__ import annotations

import numpy as np

from ..runtime.p_object import PObject
from .distribution import ASYNC, SYNC, DataDistributionManager
from .domains import RangeDomain
from .location_manager import LocationManager
from .mappers import CyclicMapper
from .migration import MigrationMixin
from .thread_safety import (
    ELEMENT,
    MDREAD,
    READ,
    WRITE,
    LockingPolicy,
    ThreadSafetyManager,
)
from .traits import DEFAULT_TRAITS, Traits

#: per-element cost factor of a vectorised slab sweep relative to
#: ``t_access`` (matches the constructor's bulk-touch factor)
SLAB_ACCESS_FACTOR = 0.25


class PartitionProxy:
    """Polymorphic partition wrapper (Ch. V.G): lets a live container swap
    its partition during redistribution.  All attribute access is delegated
    to the current inner partition."""

    def __init__(self, inner):
        object.__setattr__(self, "_inner", inner)

    @property
    def inner(self):
        return object.__getattribute__(self, "_inner")

    def swap(self, new_inner) -> None:
        object.__setattr__(self, "_inner", new_inner)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __len__(self):
        return len(self.inner)

    def __repr__(self):
        return f"PartitionProxy({self.inner!r})"


class PContainerBase(MigrationMixin, PObject):
    """Per-location representative of a distributed container (Table XI).

    Every pContainer inherits the container-generic migration protocol
    (:class:`~.migration.MigrationMixin`): ``migrate`` /
    ``migrate_bcontainer`` / load-driven ``rebalance`` work on all six
    container families."""

    #: subclasses override with their method locking table (Ch. VI.D)
    DEFAULT_LOCKING: dict = {}

    #: asynchronous element methods eligible for the combining-buffer path
    #: (Ch. III.B): dynamic containers name their insert/set/accumulate/
    #: erase-style ops here; static containers keep this empty (their bulk
    #: story is the slab transport instead)
    COMBINING_METHODS: frozenset = frozenset()

    def __init__(self, ctx, traits: Traits | None = None, group=None):
        super().__init__(ctx, group)
        self.traits = traits or DEFAULT_TRAITS
        self.location_manager = LocationManager()
        self._dist: DataDistributionManager | None = None
        self._cached_size = 0

    # -- construction helpers -------------------------------------------
    def _make_ths_manager(self) -> ThreadSafetyManager:
        factory = self.traits.ths_manager_factory
        return factory() if factory else ThreadSafetyManager()

    def _make_mapper(self):
        factory = self.traits.mapper_factory
        return factory() if factory else CyclicMapper()

    def _make_bcontainer(self, subdomain, bcid):
        factory = self.traits.bcontainer_factory
        if factory is not None:
            return factory(subdomain, bcid)
        return self._default_bcontainer(subdomain, bcid)

    def _default_bcontainer(self, subdomain, bcid):  # pragma: no cover
        raise NotImplementedError

    def _install_locking_policy(self, partition) -> None:
        policy = LockingPolicy()
        for method, attrs in self.DEFAULT_LOCKING.items():
            policy.set(method, *attrs)
        partition.locking_policy = policy

    def init(self, domain, partition, mapper=None, shared_partition=False,
             allocate=True) -> None:
        """Set up distribution metadata and allocate local bContainers.

        With ``shared_partition`` the first group member's partition instance
        becomes the canonical (shared-metadata) copy for the whole container
        — used by containers whose partition metadata mutates (pVector).
        """
        first = self.group.members[0]
        if (shared_partition and self.ctx.id != first
                and self.runtime.shared_address_space):
            partition = self.rep_on(first).partition
        else:
            if domain is not None:
                partition.set_domain(domain)
            if self.traits.use_partition_proxy and not isinstance(
                    partition, PartitionProxy):
                partition = PartitionProxy(partition)
        self._install_locking_policy(partition)
        mapper = mapper if mapper is not None else self._make_mapper()
        mapper.init(partition.size(), self.group.members)
        self._dist = DataDistributionManager(
            self, partition, mapper, self._make_ths_manager(),
            consistency=self.traits.consistency,
            bcontainer_thread_safe=self.traits.bcontainer_thread_safe)
        if allocate:
            self._allocate_local(partition, mapper)

    def _allocate_local(self, partition, mapper) -> None:
        m = self.ctx.machine
        for bcid in mapper.get_local_cids(self.ctx.id):
            sub = partition.get_sub_domain(bcid)
            bc = self._make_bcontainer(sub, bcid)
            self.location_manager.add_bcontainer(bcid, bc)
            # constructor touches every local element once (Fig. 27 shape)
            self.ctx.charge(m.t_access * 0.25 * bc.size())

    def _ctor_done(self) -> None:
        """Collective constructor epilogue: barrier so every representative
        is initialised before any location proceeds."""
        self.ctx.barrier(self.group)

    # -- accessors (Table XI) ---------------------------------------------
    @property
    def distribution(self) -> DataDistributionManager:
        return self._dist

    def get_distribution(self) -> DataDistributionManager:
        return self._dist

    def get_location_manager(self) -> LocationManager:
        return self.location_manager

    @property
    def partition(self):
        return self._dist.partition

    @property
    def mapper(self):
        return self._dist.mapper

    # -- shared-object-view queries ----------------------------------------
    def is_local(self, gid) -> bool:
        return self._dist.is_local(gid)

    def lookup(self, gid):
        """Location owning (or knowing more about) ``gid``."""
        return self._dist.lookup(gid)

    def local_size(self) -> int:
        return self.location_manager.local_size()

    def local_empty(self) -> bool:
        return self.local_size() == 0

    # -- generic RMI handlers (targets of the invoke skeleton) -------------
    def _invoke_handler_async(self, method, gid, args):
        self._dist._dispatch(method, gid, args, ASYNC)

    def _invoke_handler_ret(self, method, gid, args):
        return self._dist._dispatch(method, gid, args, SYNC)

    # the exec handlers carry the pre-resolved BCID plus the cached flag;
    # a moved/stale target re-dispatches with the *caller's* flavour, so an
    # asynchronous request crossing a migration never degrades into a
    # blocking round trip
    def _invoke_exec_async(self, method, gid, args, bcid, cached=False):
        self._dist.execute_at_bcid(method, gid, args, bcid, flavor=ASYNC,
                                   cached=cached)

    def _invoke_exec_ret(self, method, gid, args, bcid, cached=False):
        return self._dist.execute_at_bcid(method, gid, args, bcid,
                                          flavor=SYNC, cached=cached)

    def _gid_resident(self, bc, gid) -> bool:
        """Does ``bc`` currently hold ``gid``?  Directory containers
        override so stale cache-resolved routes can be detected and
        re-forwarded; the default accepts (non-directory GID → BCID
        mappings are pure functions and never stale)."""
        return True

    def _route_update(self, gid, bcid) -> None:
        """Directory route update: a forwarding home tells this (the
        requesting) location which BCID owns ``gid``, filling the lookup
        cache so the next request skips the home hop."""
        dist = self._dist
        if dist.partition.cacheable and self._runtime.config.lookup_cache:
            dist._cache.store(gid, bcid)

    def _sync_dir_lookup(self, home_loc, gid):
        """Directory interrogation round trip (forwarding disabled)."""
        return self._sync(home_loc, "_dir_lookup", gid)

    def _dir_lookup(self, gid):
        return self._dist.partition.lookup(gid)

    def _home_of(self, gid):
        return self._dist.mapper.map(self._dist.partition.home_bcid(gid))

    def _dir_register(self, gid, bcid):
        # a registration racing a migration may land at the old home
        # owner: chase the authoritative home through the fresh mapper
        home = self._home_of(gid)
        if home != self.here.id:
            self.here.stats.stale_redirects += 1
            self._async(home, "_dir_register", gid, bcid)
            return
        self.here.charge_lookup()
        self._dist.partition.register_gid(gid, bcid)
        # the authoritative update keeps the home's own cache truthful —
        # a stale home entry would bounce the redirect chain forever
        self._dist._cache.store(gid, bcid)

    def _dir_unregister(self, gid):
        home = self._home_of(gid)
        if home != self.here.id:
            self.here.stats.stale_redirects += 1
            self._async(home, "_dir_unregister", gid)
            return
        self.here.charge_lookup()
        self._dist.partition.unregister_gid(gid)
        self._dist._cache.discard(gid)

    # -- memory accounting (Ch. IX.F) ---------------------------------------
    def local_memory_size(self) -> tuple:
        """(metadata bytes, data bytes) on this location."""
        lm_meta, lm_data = self.location_manager.memory_size()
        meta = 64 + lm_meta + self._dist.memory_size()
        return meta, lm_data

    def memory_size(self) -> tuple:
        """Collective: (metadata bytes, data bytes) over the whole container."""
        meta, data = self.local_memory_size()
        return tuple(self.ctx.allreduce_rmi(
            (meta, data), lambda a, b: (a[0] + b[0], a[1] + b[1]),
            group=self.group))

    # -- bulk iteration support (native views / pAlgorithms) ----------------
    def local_bcontainers(self) -> list:
        return self.location_manager.ordered()

    # -- combining buffers --------------------------------------------------
    def flush_combining(self) -> int:
        """Explicitly flush every combining buffer on this location that
        holds at least one op record for this container (they execute at
        the next fence/drain).  Buffers are per destination and shared
        across p_objects, so a buffer always flushes *whole* — records for
        other containers on the same channel ship too, and the returned
        count covers all of them, preserving the channel's issue order."""
        return self.here.flush_combining(handle=self.handle)

    # -- bulk transfer accounting ------------------------------------------
    def _piece_transfer(self, owner, nelems: int, local_fn, remote_fn):
        """Shared cost/stats accounting for one piece of a bulk range
        transfer: one lookup, then either a vectorised local sweep
        (``SLAB_ACCESS_FACTOR`` per element) or the remote thunk, which is
        expected to issue exactly one bulk RMI."""
        loc = self.here
        loc.charge_lookup()
        if owner == loc.id:
            loc.stats.local_invocations += 1
            loc.charge(loc.machine.t_access * SLAB_ACCESS_FACTOR * nelems)
            return local_fn()
        loc.stats.remote_invocations += 1
        return remote_fn()


class PContainerStatic(PContainerBase):
    """Static container (Table XII): element count fixed at construction."""

    def size(self) -> int:
        return self._cached_size

    def __len__(self) -> int:
        return self.size()

    def empty(self) -> bool:
        return self.size() == 0

    def apply_get(self, gid, fn):
        """Apply a returning functor to the element at ``gid`` (sync)."""
        return self._dist.invoke_ret("apply_get", gid, fn)

    def apply_set(self, gid, fn) -> None:
        """Apply a mutating functor to the element at ``gid`` (async)."""
        self._dist.invoke("apply_set", gid, fn)


class PContainerDynamic(PContainerBase):
    """Dynamic container (Table XIII): elements can be added and removed.

    ``size()`` is the lazily-maintained replicated size of Ch. VII.G — it is
    refreshed by :meth:`update_size` (called from view ``post_execute``) and
    may be stale between synchronisation points, exactly as specified.
    """

    def size(self) -> int:
        return self._cached_size

    def __len__(self) -> int:
        return self.size()

    def empty(self) -> bool:
        return self.size() == 0

    def update_size(self) -> int:
        """Collective re-synchronisation of the replicated size."""
        self._cached_size = self.ctx.allreduce_rmi(
            self.local_size(), group=self.group)
        return self._cached_size

    def post_execute(self) -> None:
        """Hook invoked by the executor after a computation finishes
        (Ch. VII.H): commit pending ops and refresh replicated metadata."""
        self.update_size()

    def clear(self) -> None:
        """Collective: remove all elements (distribution remains valid)."""
        for bc in self.location_manager:
            bc.clear()
        self.ctx.barrier(self.group)
        self._cached_size = 0

    def add_bcontainer(self, bc, bcid) -> None:
        self.location_manager.add_bcontainer(bcid, bc)

    def delete_bcontainer(self, bcid):
        return self.location_manager.delete_bcontainer(bcid)


class PContainerIndexed(PContainerStatic):
    """Indexed container (Table XIV): access by index GID.

    The method-flavour triple of Ch. V.B: ``set_element`` is asynchronous,
    ``get_element`` synchronous, ``split_phase_get_element`` returns a
    ``pc_future``.
    """

    DEFAULT_LOCKING = {
        "set_element": (ELEMENT, WRITE, MDREAD),
        "get_element": (ELEMENT, READ, MDREAD),
        "apply_get": (ELEMENT, READ, MDREAD),
        "apply_set": (ELEMENT, WRITE, MDREAD),
    }

    def set_element(self, gid, value) -> None:
        self._dist.invoke("set_element", gid, value)

    def get_element(self, gid):
        return self._dist.invoke_ret("get_element", gid)

    def split_phase_get_element(self, gid):
        return self._dist.invoke_opaque_ret("get_element", gid)

    # alias used in parts of the paper
    get_element_split = split_phase_get_element

    def __getitem__(self, gid):
        return self.get_element(gid)

    def __setitem__(self, gid, value) -> None:
        self.set_element(gid, value)

    # -- local handlers ----------------------------------------------------
    def _local_set_element(self, bc, gid, value) -> None:
        bc.set(gid, value)

    def _local_get_element(self, bc, gid):
        return bc.get(gid)

    def _local_apply_get(self, bc, gid, fn):
        return bc.apply(gid, fn)

    def _local_apply_set(self, bc, gid, fn) -> None:
        bc.apply_set(gid, fn)

    # -- bulk element transport (range accessors) --------------------------
    # The coarse-grained counterpart of the Table XIV element methods: a
    # whole GID range moves as one slab per owning location instead of one
    # RMI per element (the aggregation story of Ch. III.B applied at the
    # container interface).  Remote pieces ride the runtime's bulk RMIs, so
    # they inherit mixed-mode locality for free: a same-node owner serves
    # the slab at intra-node rates.  The bContainer range accessors return
    # *copies* — a read must not alias owner storage, or a remote caller
    # could mutate it with no charged communication.

    def _check_range(self, lo: int, hi: int) -> None:
        """Reject ranges outside the container's domain — a silent partial
        transfer would mask indexing bugs the element interface raises on.
        Containers whose GIDs are not a 1D integer range (pMatrix) must use
        their own block accessors instead."""
        dom = self._dist.partition.get_domain()
        if not isinstance(dom, RangeDomain):
            raise TypeError(
                f"{type(self).__name__} has a non-1D domain ({dom!r}); "
                "use the container's block accessors")
        if lo < dom.lo or hi > dom.hi:
            raise IndexError(f"range [{lo}, {hi}) outside {dom}")

    def _range_pieces(self, lo: int, hi: int):
        """Split ``[lo, hi)`` into (bcid, lo, hi) pieces, one per owning
        sub-domain, in GID order.  Returns None when ownership cannot be
        enumerated in closed form (directory partitions, non-contiguous
        sub-domains) — callers then fall back to the element interface."""
        p = self._dist.partition
        if getattr(p, "directory", False):
            return None
        pieces = []
        for bcid in range(p.size()):
            sub = p.get_sub_domain(bcid)
            if not isinstance(sub, RangeDomain):
                return None
            s_lo, s_hi = max(lo, sub.lo), min(hi, sub.hi)
            if s_lo < s_hi:
                pieces.append((bcid, s_lo, s_hi))
        pieces.sort(key=lambda t: t[1])
        return pieces

    def get_range(self, lo: int, hi: int) -> np.ndarray:
        """Gather the GID range ``[lo, hi)`` as one NumPy slab.

        Local pieces are vectorised copies; each remotely-owned piece costs
        exactly one bulk round trip (``bulk_get_range``) regardless of its
        element count."""
        loc = self.here
        if hi <= lo:
            return np.empty(0)
        self._check_range(lo, hi)
        pieces = self._range_pieces(lo, hi)
        if pieces is None:
            return np.asarray([self.get_element(g) for g in range(lo, hi)])
        mapper = self._dist.mapper
        parts = []
        for bcid, s_lo, s_hi in pieces:
            owner = mapper.map(bcid)
            n = s_hi - s_lo
            parts.append(np.asarray(self._piece_transfer(
                owner, n,
                lambda: self.location_manager.get_bcontainer(bcid)
                            .get_range(s_lo, s_hi),
                lambda: loc.bulk_get_range(
                    owner, self.handle, "_bulk_get_range",
                    bcid, s_lo, s_hi, nelems=n))))
        if not parts:
            return np.empty(0)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def set_range(self, lo: int, values) -> None:
        """Scatter ``values`` over the GID range starting at ``lo``.

        Asynchronous like ``set_element``: remote slabs complete at the next
        fence (source-FIFO ordered with scalar RMIs on the same channel)."""
        values = np.asarray(values)
        n = len(values)
        if n == 0:
            return
        loc = self.here
        self._check_range(lo, lo + n)
        pieces = self._range_pieces(lo, lo + n)
        if pieces is None:
            for k in range(n):
                self.set_element(lo + k, values[k])
            return
        mapper = self._dist.mapper
        for bcid, s_lo, s_hi in pieces:
            owner = mapper.map(bcid)
            chunk = values[s_lo - lo:s_hi - lo]
            self._piece_transfer(
                owner, len(chunk),
                lambda: self.location_manager.get_bcontainer(bcid)
                            .set_range(s_lo, chunk),
                lambda: loc.bulk_set_range(
                    owner, self.handle, "_bulk_set_range",
                    bcid, s_lo, chunk, nelems=len(chunk)))

    # bulk handlers (executed on the owning location)
    def _bulk_get_range(self, bcid, lo, hi):
        if not self.location_manager.has_bcontainer(bcid):
            # the sub-domain moved (redistribution): re-resolve
            return self.get_range(lo, hi)
        loc = self.here
        loc.charge(loc.machine.t_access * SLAB_ACCESS_FACTOR * (hi - lo))
        self.location_manager.note_access(bcid, hi - lo)
        bc = self.location_manager.get_bcontainer(bcid)
        rt = self.runtime
        if not rt.shared_address_space and rt.current_origin != self.here.id:
            # cross-process bulk reply: ship a read-only view so the
            # transport can pass a slab reference into live storage with
            # no sender-side copy.  Sound under the epoch discipline every
            # collective here follows (a range read remotely within an
            # epoch is not written until after the separating fence);
            # consumers that hold a slab across protocol events without a
            # fence must snapshot (see OverlapView.materialize).  The
            # same-process guard keeps sim and self-sends on the copying
            # path — a live view would alias owner storage.
            ref = getattr(bc, "get_range_ref", None)
            if ref is not None:
                return ref(lo, hi)
        return bc.get_range(lo, hi)

    def _bulk_set_range(self, bcid, lo, values) -> None:
        if not self.location_manager.has_bcontainer(bcid):
            self.set_range(lo, values)
            return
        loc = self.here
        loc.charge(loc.machine.t_access * SLAB_ACCESS_FACTOR * len(values))
        self.location_manager.note_access(bcid, len(values))
        self.location_manager.get_bcontainer(bcid).set_range(lo, values)


__all__ = [
    "SLAB_ACCESS_FACTOR",
    "PartitionProxy",
    "PContainerBase",
    "PContainerStatic",
    "PContainerDynamic",
    "PContainerIndexed",
]
