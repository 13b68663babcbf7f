"""Redistribution support (Ch. V.G): change a live container's partition
and/or mapping, moving marshaled data between locations.

This is the *repartitioning* half of the migration subsystem
(:mod:`repro.core.migration` owns the container-generic half — whole
bContainer moves, the lookup cache and load-driven rebalancing; the slab
packing/unpacking machinery here is shared with it).  The container's
partition is held behind a :class:`PartitionProxy` (Ch. V.G "partition
proxy"), so ``redistribute`` can swap the underlying partition object while
the container stays alive.  Elements are packed per destination (the
``define_type`` marshaling path, Ch. V.G.1) and exchanged with one
coarse-grained ``bulk_exchange`` — contiguous GID runs travel as NumPy
slabs and 2D sub-blocks as dense blocks, so each (src, dst) pair pays for
one physical message plus its payload bytes instead of one RMI per element.
The exchange is node-aware: slabs bound for several locations on one remote
node ride a single coalesced inter-node message (scattered by the node
leader), and same-node slabs pay intra-node rates.

Every committed redistribution bumps the container's distribution epoch,
invalidating per-location lookup caches and the views' native-chunk lists.
"""

from __future__ import annotations

from .domains import RangeDomain
from .migration import apply_packed, pack_for_partition
from .pcontainer import PartitionProxy


class RedistributableMixin:
    """Adds ``redistribute`` / ``migrate_range`` / ``rotate`` (and a
    partition-level ``rebalance`` policy) to indexed containers (pArray,
    pMatrix).  Requires the partition proxy trait."""

    def redistribute(self, new_partition, new_mapper=None) -> None:
        """Collective: reorganise data per ``new_partition`` (and optionally
        a new partition-mapper).  Raises if the container was built without
        a partition proxy, mirroring the paper's compile-time error."""
        if not isinstance(self._dist.partition, PartitionProxy):
            raise TypeError(
                "redistribute() requires a proxy partition "
                "(traits.use_partition_proxy=True)")
        ctx = self.ctx
        group = self.group
        members = group.members
        # entry barrier: peers may still be completing element methods
        # against the old distribution (see MigrationMixin.migrate)
        ctx.barrier(group)
        domain = self._dist.partition.get_domain()
        new_partition.set_domain(domain)
        self._install_locking_policy(new_partition)
        mapper = new_mapper if new_mapper is not None else self._make_mapper()
        mapper.init(new_partition.size(), members)

        outgoing, moved = pack_for_partition(self, new_partition, mapper)
        incoming = ctx.bulk_exchange(outgoing, group=group, nelems=moved)

        # rebuild local storage under the new distribution
        self.location_manager.clear()
        for bcid in mapper.get_local_cids(ctx.id):
            sub = new_partition.get_sub_domain(bcid)
            bc = self._make_bcontainer(sub, bcid)
            self.location_manager.add_bcontainer(bcid, bc)
        apply_packed(self, new_partition, incoming)

        self._dist.partition.swap(new_partition)
        self._dist.mapper = mapper
        self._dist.bump_epoch()
        ctx.barrier(group)

    def rebalance(self, policy: str = "even", **kwargs) -> None:
        """Collective rebalancing.  ``policy="even"`` (default) restores a
        balanced *partition* — each location owns ~N/P elements regardless
        of bContainer boundaries; ``policy="load"`` keeps the partition and
        bin-packs whole bContainers by the measured element + access load
        (the container-generic path of
        :meth:`~.migration.MigrationMixin.rebalance`)."""
        if policy == "load":
            super().rebalance(**kwargs)
            return
        if policy != "even":
            raise ValueError(f"unknown rebalance policy {policy!r}")
        from .partitions import BalancedPartition

        self.redistribute(BalancedPartition(len(self.group)))

    def migrate_range(self, lo: int, hi: int, dest) -> None:
        """Collective: hand location ``dest`` exclusive ownership of the
        GID range ``[lo, hi)``.  The current partition boundaries are
        refined at ``lo``/``hi``; every other range keeps its present
        owner.  1D integer domains only (pMatrix moves whole blocks via
        ``migrate`` instead)."""
        part = self._dist.partition
        dom = part.get_domain()
        if not isinstance(dom, RangeDomain):
            raise TypeError(
                f"migrate_range needs a 1D RangeDomain, not {dom!r}")
        if not (dom.lo <= lo <= hi <= dom.hi):
            raise IndexError(f"range [{lo}, {hi}) outside {dom}")
        if dest not in self.group:
            raise ValueError(f"location {dest} not in group {self.group}")
        bounds = {dom.lo, dom.hi, lo, hi}
        for bcid in range(part.size()):
            sub = part.get_sub_domain(bcid)
            if isinstance(sub, RangeDomain):
                bounds.add(sub.lo)
                bounds.add(sub.hi)
        edges = sorted(bounds)
        mapper = self._dist.mapper
        sizes, owners = [], []
        for a, b in zip(edges, edges[1:]):
            if a == b:
                continue
            sizes.append(b - a)
            if lo <= a < hi:
                owners.append(dest)
            else:
                owners.append(mapper.map(part.find(a).bcid))
        from .mappers import GeneralMapper
        from .partitions import ExplicitPartition

        self.redistribute(ExplicitPartition(sizes), GeneralMapper(owners))

    def rotate(self, positions: int = 1) -> None:
        """Cyclically shift sub-domain ownership by ``positions`` locations."""
        from .mappers import GeneralMapper

        part = self._dist.partition
        old_mapper = self._dist.mapper
        members = list(self.group.members)
        idx = {lid: i for i, lid in enumerate(members)}
        assignment = []
        for bcid in range(part.size()):
            cur = old_mapper.map(bcid)
            assignment.append(members[(idx[cur] + positions) % len(members)])
        # same partition geometry, new ownership
        inner = part.inner if isinstance(part, PartitionProxy) else part
        fresh = _clone_partition(inner)
        self.redistribute(fresh, GeneralMapper(assignment))


def _clone_partition(partition):
    """Fresh partition with identical configuration (proxy swap target)."""
    import copy

    clone = copy.copy(partition)
    clone.locking_policy = {}
    return clone
