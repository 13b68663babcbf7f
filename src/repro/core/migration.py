"""Container-generic migration subsystem (Ch. V.C, V.G).

The paper's central claim is that directory-based addressing lets *any*
pContainer move data freely while element methods keep working.  This module
is the reproduction of that claim as a first-class protocol shared by all
six containers:

* **bContainer migration** (:class:`MigrationMixin.migrate`): a collective
  that reassigns BCID → location ownership and moves the marshaled
  bContainers (and, for directory partitions, the directory home entries
  riding the same exchange — the transactional commit) over the node-aware
  ``bulk_exchange`` path.  The GID → BCID mapping is untouched, so element
  methods keep resolving through the unchanged partition; only the
  partition-mapper changes.
* **Distribution epochs**: every :class:`~.distribution.DataDistributionManager`
  carries an epoch counter bumped exactly once per committed migration or
  redistribution.  Everything that caches distribution metadata — the
  per-location lookup cache below, the views' native-chunk lists — is keyed
  by the epoch and refreshes itself when it changes.
* **Lookup cache** (:class:`LookupCache`): a per-location GID → BCID cache
  consulted before the partition, so repeated remote lookups stop paying
  ``charge_lookup`` (and, for no-forwarding directories, the synchronous
  interrogation round trip).  Stale hits are safe: a request that lands at
  a non-owner re-forwards through the authoritative directory (a bounded
  chain, counted in ``stale_redirects``).
* **Load-driven rebalancing** (:class:`MigrationMixin.rebalance`):
  per-bContainer element + access counters (maintained by the
  location-manager) feed a greedy LPT bin-packing assignment whose moves
  ride ``migrate``.

BCL (Brock et al., 2018) motivates the cheap-owner-lookup-under-movement
design; pSTL-Bench (Laso et al., 2024) motivates the skewed workloads the
evaluation driver (:mod:`repro.evaluation.migration_figs`) measures.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from .mappers import GeneralMapper

#: entry cap per cache; on overflow the exact map is dropped wholesale (a
#: crude but safe eviction — correctness never depends on cache contents)
CACHE_MAX_EXACT = 1 << 16


class LookupCache:
    """Per-location GID → BCID cache, invalidated by distribution epoch.

    Two stores: contiguous GID *runs* (one entry per sub-domain, bisected)
    for integer-indexed closed-form partitions, and an exact GID map for
    everything else (hash/directory keys, 2D indices).  Entries are only
    ever consulted for partitions whose GID → BCID mapping is stable
    between epochs (``partition.cacheable``).
    """

    __slots__ = ("epoch", "_exact", "_run_lo", "_run_hi", "_run_bcid")

    def __init__(self):
        self.epoch = 0
        self._exact: dict = {}
        self._run_lo: list = []
        self._run_hi: list = []
        self._run_bcid: list = []

    def invalidate(self, epoch: int) -> None:
        """Drop every entry and re-key the cache to ``epoch``."""
        self.epoch = epoch
        self._exact.clear()
        self._run_lo.clear()
        self._run_hi.clear()
        self._run_bcid.clear()

    def lookup(self, gid):
        """Cached BCID for ``gid``, or None."""
        bcid = self._exact.get(gid)
        if bcid is not None:
            return bcid
        if self._run_lo and isinstance(gid, int) and not isinstance(gid, bool):
            i = bisect_right(self._run_lo, gid) - 1
            if i >= 0 and gid < self._run_hi[i]:
                return self._run_bcid[i]
        return None

    def store(self, gid, bcid) -> None:
        if len(self._exact) >= CACHE_MAX_EXACT:
            self._exact.clear()
        self._exact[gid] = bcid

    def discard(self, gid) -> None:
        """Drop one exact entry (authoritative directory updates keep the
        home location's own cache truthful)."""
        self._exact.pop(gid, None)

    def store_run(self, lo: int, hi: int, bcid) -> None:
        """Cache a whole contiguous GID run (one sub-domain)."""
        i = bisect_right(self._run_lo, lo)
        if i > 0 and self._run_lo[i - 1] == lo:
            return  # already cached
        insort(self._run_lo, lo)
        self._run_hi.insert(i, hi)
        self._run_bcid.insert(i, bcid)

    def size(self) -> int:
        return len(self._exact) + len(self._run_lo)

    def memory_size(self) -> int:
        return 64 + 48 * len(self._exact) + 24 * len(self._run_lo)


# -- bContainer marshaling (the define_type path applied whole) -------------

#: per-bContainer configuration that ``pack()`` does not carry but a
#: migrated replica must preserve
_BC_CONFIG_ATTRS = ("sorted_order", "multi", "multi_edges")


def pack_bcontainer(bc) -> tuple:
    """Marshal one whole bContainer for migration: class, domain, BCID,
    packed contents and the config flags ``pack`` does not carry."""
    cfg = {a: getattr(bc, a) for a in _BC_CONFIG_ATTRS if hasattr(bc, a)}
    return (type(bc), bc.domain, bc.get_bcid(), bc.pack(), cfg)


def unpack_bcontainer(payload):
    """Rebuild a migrated bContainer on the receiving location."""
    cls, domain, bcid, data, cfg = payload
    bc = cls.unpack(domain, bcid, data)
    for key, value in cfg.items():
        setattr(bc, key, value)
    return bc


def pack_for_partition(container, new_partition, new_mapper) -> tuple:
    """Pack this location's data per its owner under a *new* partition:
    contiguous GID runs travel as NumPy slabs, 2D sub-blocks as dense
    blocks, anything else element-wise.  Returns ``(outgoing, moved)``
    where ``outgoing`` is one record list per group member — the
    slab-packing half of repartitioning, shared by ``redistribute`` and
    ``migrate_range``."""
    from .domains import Range2DDomain, RangeDomain
    from .pcontainer import SLAB_ACCESS_FACTOR

    ctx = container.ctx
    members = container.group.members
    outgoing = [[] for _ in members]
    pos_of = {lid: i for i, lid in enumerate(members)}
    moved = 0
    for bc in container.location_manager.ordered():
        dom = bc.domain
        if isinstance(dom, RangeDomain) and hasattr(bc, "get_range"):
            gid = dom.lo
            while gid < dom.hi:
                info = new_partition.find(gid)
                dest = new_mapper.map(info.bcid)
                sub = new_partition.get_sub_domain(info.bcid)
                run_hi = (min(dom.hi, sub.hi)
                          if isinstance(sub, RangeDomain) else gid + 1)
                run_hi = max(run_hi, gid + 1)
                ctx.charge_lookup()
                ctx.charge(ctx.machine.t_access * SLAB_ACCESS_FACTOR
                           * (run_hi - gid))
                outgoing[pos_of[dest]].append(
                    ("slab", gid, bc.get_range(gid, run_hi)))
                moved += run_hi - gid
                gid = run_hi
        elif isinstance(dom, Range2DDomain) and hasattr(bc, "get_block"):
            for nb in range(new_partition.size()):
                sub = new_partition.get_sub_domain(nb)
                rr0, rr1 = max(dom.r0, sub.r0), min(dom.r1, sub.r1)
                cc0, cc1 = max(dom.c0, sub.c0), min(dom.c1, sub.c1)
                if rr0 >= rr1 or cc0 >= cc1:
                    continue
                dest = new_mapper.map(nb)
                n = (rr1 - rr0) * (cc1 - cc0)
                ctx.charge_lookup()
                ctx.charge(ctx.machine.t_access * SLAB_ACCESS_FACTOR * n)
                outgoing[pos_of[dest]].append(
                    ("block", (rr0, cc0), bc.get_block(rr0, rr1, cc0, cc1)))
                moved += n
        else:
            for gid in dom:
                value = bc.get(gid)
                info = new_partition.find(gid)
                dest = new_mapper.map(info.bcid)
                outgoing[pos_of[dest]].append(("elem", gid, value))
                ctx.charge_lookup()
                moved += 1
    return outgoing, moved


def apply_packed(container, new_partition, incoming) -> None:
    """Rebuild local storage under ``new_partition`` from the exchanged
    record buckets (the unpack half of repartitioning)."""
    import numpy as np

    from .pcontainer import SLAB_ACCESS_FACTOR

    ctx = container.ctx
    lm = container.location_manager
    for bucket in incoming:
        for kind, key, payload in bucket:
            if kind == "slab":
                info = new_partition.find(key)
                bc = lm.get_bcontainer(info.bcid)
                bc.set_range(key, payload)
                ctx.charge(ctx.machine.t_access * SLAB_ACCESS_FACTOR
                           * len(payload))
            elif kind == "block":
                r0, c0 = key
                info = new_partition.find((r0, c0))
                bc = lm.get_bcontainer(info.bcid)
                bc.set_block(r0, c0, payload)
                ctx.charge(ctx.machine.t_access * SLAB_ACCESS_FACTOR
                           * np.asarray(payload).size)
            else:
                info = new_partition.find(key)
                bc = lm.get_bcontainer(info.bcid)
                bc.set(key, payload)
                ctx.charge_access()


def lpt_assignment(loads: dict, members) -> dict:
    """Greedy longest-processing-time bin packing: heaviest bContainer
    first onto the least-loaded location.  Fully deterministic (ties break
    on BCID, then group order), so every location computes the identical
    assignment from the allgathered load table."""
    bins = [[0.0, i] for i in range(len(members))]
    out = {}
    for bcid in sorted(loads, key=lambda b: (-loads[b], b)):
        bins.sort(key=lambda x: (x[0], x[1]))
        out[bcid] = members[bins[0][1]]
        bins[0][0] += loads[bcid]
    return out


class MigrationMixin:
    """Adds the container-generic migration protocol to every pContainer.

    Mixed into :class:`~.pcontainer.PContainerBase`, so all six containers
    (pArray, pVector, pMatrix, pList, the associative family, pGraph)
    support ``migrate`` / ``migrate_bcontainer`` / ``rebalance``.  Indexed
    containers additionally support GID-range migration and repartitioning
    through :class:`~.redistribution.RedistributableMixin`, which shares
    this module's packing machinery.
    """

    def distribution_epoch(self) -> int:
        """Current distribution epoch of this location's representative."""
        return self._dist.epoch

    def migrate_bcontainer(self, bcid: int, dest: int) -> None:
        """Collective: move one bContainer (and its directory home entries)
        to location ``dest``."""
        self.migrate({bcid: dest})

    def migrate(self, assignment) -> None:
        """Collective: reassign bContainer ownership per ``assignment`` (a
        BCID → location dict, partial, or a full per-BCID list) and move
        the data.

        The commit is transactional under the distribution epoch: packed
        bContainers and directory home entries travel in one node-aware
        ``bulk_exchange``, the mapper swap + epoch bump happen between the
        exchange and the closing barrier, and requests still in flight
        against the old placement re-forward through the directory at the
        receiver (``stale_redirects``).
        """
        from .pcontainer import SLAB_ACCESS_FACTOR

        ctx = self.ctx
        group = self.group
        members = group.members
        dist = self._dist
        part = dist.partition
        old_mapper = dist.mapper
        nbc = part.size()
        if isinstance(assignment, dict):
            new_map = [assignment.get(b, old_mapper.map(b))
                       for b in range(nbc)]
        else:
            new_map = list(assignment)
            if len(new_map) != nbc:
                raise ValueError(
                    f"assignment covers {len(new_map)} BCIDs, partition "
                    f"has {nbc}")
        member_set = set(members)
        for dest in new_map:
            if dest not in member_set:
                raise ValueError(f"location {dest} not in group {members}")
        moves = {b: (old_mapper.map(b), new_map[b]) for b in range(nbc)
                 if old_mapper.map(b) != new_map[b]}
        # entry barrier: the destructive packing below must not start
        # until every group member has entered the collective — a peer
        # may legally still be completing pre-migration element methods
        # against the old placement
        ctx.barrier(group)
        if not moves:
            return

        lm = self.location_manager
        pos_of = {lid: i for i, lid in enumerate(members)}
        outgoing = [[] for _ in members]
        moved = 0
        for bcid in sorted(moves):
            src, dest = moves[bcid]
            if src != ctx.id:
                continue
            bc = lm.delete_bcontainer(bcid)
            n = bc.size()
            ctx.charge_lookup()
            ctx.charge(ctx.machine.t_access * SLAB_ACCESS_FACTOR * n)
            outgoing[pos_of[dest]].append(("bc", pack_bcontainer(bc)))
            moved += n
            ctx.stats.bcontainers_migrated += 1
        if getattr(part, "directory", False):
            # home entries move with their home BCID, riding the same
            # exchange so data + addressing commit in one epoch
            for home_bcid, entries in part.take_entries(set(moves)).items():
                ctx.charge_lookup(len(entries))
                outgoing[pos_of[new_map[home_bcid]]].append(("dir", entries))

        incoming = ctx.bulk_exchange(outgoing, group=group, nelems=moved)

        new_mapper = GeneralMapper(new_map)
        new_mapper.init(nbc, members)
        dist.mapper = new_mapper
        for bucket in incoming:
            for kind, payload in bucket:
                if kind == "bc":
                    bc = unpack_bcontainer(payload)
                    lm.add_bcontainer(bc.get_bcid(), bc)
                    ctx.charge(ctx.machine.t_access * SLAB_ACCESS_FACTOR
                               * bc.size())
                    ctx.stats.migration_elements_moved += bc.size()
                else:
                    part.install_entries(payload)
                    ctx.charge_lookup(len(payload))
        dist.bump_epoch()
        ctx.barrier(group)

    def rebalance(self, access_weight: float = 1.0,
                  reset_counters: bool = True) -> None:
        """Collective load-driven rebalancing: allgather per-bContainer
        (elements, accesses) counters, bin-pack BCIDs onto locations by
        ``elements + access_weight * accesses`` (greedy LPT), and migrate
        the moves.  ``reset_counters`` starts a fresh measurement window
        afterwards."""
        ctx = self.ctx
        group = self.group
        lm = self.location_manager
        local = [(bcid, lm.get_bcontainer(bcid).size(), lm.access_count(bcid))
                 for bcid in lm.bcids()]
        gathered = ctx.allgather_rmi(local, group=group)
        loads = {}
        for per_loc in gathered:
            for bcid, nelem, naccess in per_loc:
                loads[bcid] = nelem + access_weight * naccess
        assignment = lpt_assignment(loads, group.members)
        ctx.stats.rebalances += 1
        if reset_counters:
            lm.reset_access_counts()
        self.migrate(assignment)


__all__ = [
    "CACHE_MAX_EXACT",
    "LookupCache",
    "MigrationMixin",
    "lpt_assignment",
    "pack_bcontainer",
    "unpack_bcontainer",
]
