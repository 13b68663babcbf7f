"""Data-distribution manager (Ch. V.C.6, Table X; locking skeleton Fig. 17).

Every element-wise pContainer method is an instantiation of the generic
``invoke`` skeleton:

1. ask the partition *where* the GID lives (metadata access, guarded by the
   thread-safety manager);
2. if only partial information is available (dynamic directory), forward the
   whole request to the location that may know more (method forwarding), or
   — with forwarding disabled — resolve it with a synchronous directory
   round trip;
3. map the sub-domain to a location through the partition-mapper;
4. execute locally against the bContainer (data access, guarded), or ship
   the request with the requested flavour: ``invoke`` (asynchronous),
   ``invoke_ret`` (synchronous), ``invoke_opaque_ret`` (split-phase).

Containers implement ``_local_<method>(bc, gid, *args)`` handlers which the
skeleton dispatches to once the owning bContainer is found.

Migration awareness: the manager carries the container's **distribution
epoch** (bumped by every committed migration/redistribution) and a
per-location **lookup cache** consulted before the partition for partitions
whose GID → BCID mapping is stable between epochs.  A cache hit skips the
``charge_lookup`` metadata charge (and, for no-forwarding directories, the
synchronous interrogation round trip).  Cached resolutions are flagged on
the shipped request; if one lands at a location whose bContainer no longer
holds the GID, the receiver re-forwards through the authoritative directory
with the cache bypassed — a bounded chain counted in ``stale_redirects``.

Mixed-mode locality: when the owner is *not* this location, the shipped
request is still locality-aware one layer down — a destination on the same
node is charged intra-node latency and byte costs.
"""

from __future__ import annotations

from .migration import LookupCache
from .partitions import BCInfo
from .thread_safety import ELEMENT, MDREAD, WRITE, THSInfo
from .traits import ConsistencyMode

ASYNC = "async"
SYNC = "sync"
OPAQUE = "opaque"

#: fallback locking attributes for methods without a policy-table entry,
#: hoisted out of the dispatch hot paths
_DEFAULT_POLICY = (ELEMENT, WRITE, MDREAD)


class DataDistributionManager:
    """Owns the partition + partition-mapper of one container representative
    and executes the generic method skeleton."""

    def __init__(self, container, partition, mapper, ths_manager,
                 consistency=ConsistencyMode.DEFAULT,
                 bcontainer_thread_safe=False):
        self.container = container
        self.partition = partition
        self.mapper = mapper
        self.ths_manager = ths_manager
        self.consistency = consistency
        self.bcontainer_thread_safe = bcontainer_thread_safe
        #: distribution epoch: advanced once per committed migration or
        #: redistribution; everything caching distribution metadata is
        #: keyed by it
        self.epoch = 0
        self._cache = LookupCache()

    # -- epoch protocol --------------------------------------------------
    def bump_epoch(self) -> None:
        """Advance the distribution epoch and invalidate the lookup cache
        (called on this location by every committed migration)."""
        self.epoch += 1
        self._cache.invalidate(self.epoch)
        self.container.here.stats.lookup_cache_invalidations += 1

    def _cache_store(self, gid, bcid) -> None:
        """Remember a resolved GID → BCID pair; contiguous-run sub-domains
        are cached whole so one miss covers the entire run."""
        p = self.partition
        if isinstance(gid, int) and not isinstance(gid, bool):
            from .domains import RangeDomain

            sub = p.get_sub_domain(bcid)
            if isinstance(sub, RangeDomain):
                self._cache.store_run(sub.lo, sub.hi, bcid)
                return
        self._cache.store(gid, bcid)

    # -- address resolution (Fig. 7 flowchart) ---------------------------
    def get_info(self, gid, use_cache: bool = True) -> BCInfo:
        """``FunctorWhere``: partition query, possibly partial (Fig. 8).

        Consults the lookup cache first (for cacheable partitions); hits
        return a BCInfo flagged ``cached`` without charging a lookup."""
        loc = self.container.here
        p = self.partition
        if use_cache and p.cacheable and loc.config.lookup_cache:
            bcid = self._cache.lookup(gid)
            if bcid is not None:
                loc.stats.lookup_cache_hits += 1
                return BCInfo(bcid=bcid, cached=True)
        loc.charge_lookup()
        if p.directory:
            home_bcid = p.home_bcid(gid)
            home_loc = self.mapper.map(home_bcid)
            if home_loc != loc.id:
                if p.forwarding:
                    return BCInfo(loc_hint=home_loc)
                # no forwarding: synchronous directory interrogation
                bcid = self.container._sync_dir_lookup(home_loc, gid)
                if bcid is None:
                    raise KeyError(f"GID {gid!r} not in container")
                if p.cacheable:
                    self._cache.store(gid, bcid)
                return BCInfo(bcid=bcid)
            bcid = p.lookup(gid)
            if bcid is None:
                raise KeyError(f"GID {gid!r} not in container")
            if p.cacheable:
                self._cache.store(gid, bcid)
            return BCInfo(bcid=bcid)
        info = p.find(gid)
        if info.valid and p.cacheable:
            self._cache_store(gid, info.bcid)
        return info

    def lookup(self, gid):
        """Location that owns (or may know more about) ``gid``."""
        info = self.get_info(gid)
        if info.valid:
            return self.mapper.map(info.bcid)
        return info.loc_hint

    def is_local(self, gid) -> bool:
        info = self.get_info(gid)
        return info.valid and self.mapper.map(info.bcid) == self.container.here.id

    # -- the generic skeleton ---------------------------------------------
    def _execute_local(self, method, gid, args, ths_info, bcid):
        ths = self.ths_manager
        loc = self.container.here
        ths.data_access_pre(ths_info, bcid)
        loc.charge_access()
        lm = self.container.location_manager
        lm.note_access(bcid)
        bc = lm.get_bcontainer(bcid)
        handler = getattr(self.container, "_local_" + method)
        result = handler(bc, gid, *args)
        ths.data_access_post(ths_info, bcid)
        ths.method_access_post(ths_info)
        return result

    def _dispatch(self, method, gid, args, flavor, use_cache: bool = True):
        container = self.container
        loc = container.here
        ths = self.ths_manager
        policy = self.partition.locking_policy
        pol = policy.get_locking_policy(method) if policy else None
        if pol is None:
            pol = _DEFAULT_POLICY
        info = THSInfo(method, gid, pol, loc, self.partition.dynamic,
                       self.bcontainer_thread_safe)
        ths.method_access_pre(info)
        ths.metadata_access_pre(info)
        bcinfo = self.get_info(gid, use_cache=use_cache)
        ths.metadata_access_post(info)
        if bcinfo.valid:
            target = self.mapper.map(bcinfo.bcid)
        else:
            target = bcinfo.loc_hint
        if target == loc.id:
            if not bcinfo.valid:  # pragma: no cover - defensive
                raise RuntimeError("partition returned hint to self")
            if (bcinfo.cached and self.partition.directory
                    and not (container.location_manager.has_bcontainer(
                                 bcinfo.bcid)
                             and container._gid_resident(
                                 container.location_manager.get_bcontainer(
                                     bcinfo.bcid), gid))):
                # stale cached route resolving to *this* location: same
                # re-forward as the remote arm in execute_at_bcid
                loc.stats.stale_redirects += 1
                ths.method_access_post(info)
                return self._dispatch(method, gid, args, flavor,
                                      use_cache=False)
            loc.stats.local_invocations += 1
            result = self._execute_local(method, gid, args, info, bcinfo.bcid)
            if flavor == OPAQUE:
                from ..runtime.future import Future

                fut = Future(container.runtime, loc.id, loc.id)
                fut._resolve(result, loc.clock)
                return fut
            return result
        # remote: ship the request with the requested flavour.  When the
        # sub-domain is already resolved (directory home answered, a
        # closed-form partition, or a cache hit), ship the BCID so the
        # owner executes directly instead of re-resolving — this is what
        # terminates a forwarding chain at the owner.
        ths.method_access_post(info)
        origin = container.runtime.current_origin
        if origin != loc.id:
            loc.stats.forwarded += 1
            part = self.partition
            if (bcinfo.valid and part.directory and part.cacheable
                    and loc.config.lookup_cache
                    and self.mapper.map(part.home_bcid(gid)) == loc.id):
                # directory route update (BCL-style owner caching): the
                # authoritative home tells the origin which BCID owns the
                # GID, so its next request skips the home hop entirely.
                # A stale update is harmless — the receiver-side
                # residency check re-forwards through the directory.
                loc.async_rmi(origin, container.handle, "_route_update",
                              gid, bcinfo.bcid)
        loc.stats.remote_invocations += 1
        if bcinfo.valid:
            handler_async, handler_ret = "_invoke_exec_async", "_invoke_exec_ret"
            extra = (bcinfo.bcid, bcinfo.cached)
        else:
            handler_async, handler_ret = ("_invoke_handler_async",
                                          "_invoke_handler_ret")
            extra = ()
        if flavor == ASYNC:
            # dynamic-side combining (Ch. III.B): eligible async ops are
            # buffered per (dest, handle) and flushed as one bulk message
            if (method in container.COMBINING_METHODS
                    and loc.combine_rmi(target, container.handle,
                                        handler_async, method, gid, args,
                                        *extra)):
                return None
            loc.async_rmi(target, container.handle, handler_async,
                          method, gid, args, *extra)
            return None
        if flavor == SYNC:
            return loc.sync_rmi(target, container.handle, handler_ret,
                                method, gid, args, *extra)
        return loc.opaque_rmi(target, container.handle, handler_ret,
                              method, gid, args, *extra)

    def execute_at_bcid(self, method, gid, args, bcid, flavor=SYNC,
                        cached: bool = False):
        """Execute at a pre-resolved bContainer (tail of a forwarding chain).

        Falls back to a full re-dispatch — preserving the caller's original
        flavour — when the BCID moved (migration/redistribution), or when a
        cache-resolved request landed at a bContainer that no longer holds
        the GID (directory containers); the re-dispatch then bypasses the
        cache so the chain terminates at the authoritative directory."""
        container = self.container
        loc = container.here
        lm = container.location_manager
        if not lm.has_bcontainer(bcid):
            loc.stats.stale_redirects += 1
            return self._dispatch(method, gid, args, flavor)
        if cached and self.partition.directory and not container._gid_resident(
                lm.get_bcontainer(bcid), gid):
            loc.stats.stale_redirects += 1
            return self._dispatch(method, gid, args, flavor, use_cache=False)
        ths = self.ths_manager
        policy = self.partition.locking_policy
        pol = policy.get_locking_policy(method) if policy else None
        if pol is None:
            pol = _DEFAULT_POLICY
        info = THSInfo(method, gid, pol, loc, self.partition.dynamic,
                       self.bcontainer_thread_safe)
        ths.method_access_pre(info)
        loc.stats.local_invocations += 1
        return self._execute_local(method, gid, args, info, bcid)

    # -- public flavours (Table X) ------------------------------------------
    def invoke(self, method, gid, *args) -> None:
        """Asynchronous execution (no return value)."""
        if self.consistency is ConsistencyMode.SEQUENTIAL:
            self._dispatch(method, gid, args, SYNC)
            return None
        return self._dispatch(method, gid, args, ASYNC)

    def invoke_ret(self, method, gid, *args):
        """Synchronous execution returning the method's value."""
        return self._dispatch(method, gid, args, SYNC)

    def invoke_opaque_ret(self, method, gid, *args):
        """Split-phase execution returning a future."""
        if self.consistency is ConsistencyMode.SEQUENTIAL:
            from ..runtime.future import Future

            value = self._dispatch(method, gid, args, SYNC)
            loc = self.container.here
            fut = Future(self.container.runtime, loc.id, loc.id)
            fut._resolve(value, loc.clock)
            return fut
        return self._dispatch(method, gid, args, OPAQUE)

    def memory_size(self) -> int:
        return (64 + self.partition.memory_size()
                + self.mapper.memory_size()
                + self._cache.memory_size())
