"""Per-location and aggregate runtime statistics.

The statistics mirror what the paper instruments for its evaluation chapters:
RMI traffic split by flavour (async / sync / split-phase / bulk), physical
message counts after aggregation, bytes moved, forwarded requests (Ch. XI,
Fig. 51) and lock operations performed by the thread-safety manager (Ch. VI).
``bulk_rmi_sent`` counts one per bulk-transport message regardless of how
many elements it carries; ``bulk_elements_moved`` counts the elements.
``combined_ops`` counts asynchronous op records appended to the combining
buffers; ``combining_flushes`` counts the physical messages that carried
them (one per buffer flush; a node-coalesced flush carrying several
buffers counts once).  ``collectives`` counts collective operations
entered, ``fences`` the subset that were fences: one per call on every
backend — the counting rounds inside a real-process fence are not counted.

Mixed-mode (node-topology-aware) counter: ``coalesced_messages`` counts
inter-node messages that carried payloads for several locations on the
destination node (scattered intra-node by the node leader) — one per
coalesced bulk-exchange send or combining flush.

Task-graph executor counters: ``tasks_executed`` counts work-function tasks
run by the dependence-driven executor (:mod:`repro.algorithms.prange`) —
both pRange tasks and PARAGRAPH tasks, including dynamically spawned ones;
``dependence_messages`` counts cross-location "dependence satisfied" RMIs
sent by producer tasks to consumer tasks on other locations (local edges
are satisfied in place and not counted).

Nested-parallelism counters (Ch. IV.C two-level composition):
``nested_paragraphs`` counts PARAGRAPHs entered while another PARAGRAPH
was already executing on the same location (an inner graph spawned by an
outer task, usually over a nested container on a singleton group);
``nested_multi_paragraphs`` counts the subset of those whose group has
more than one member — genuinely distributed inner sections;
``nested_tasks_executed`` counts the tasks those inner graphs ran — a
subset of ``tasks_executed``.  ``subgroup_fences`` counts the subset of
``fences`` executed on a proper subgroup of the world (quiescing only the
sub-team, never blocking outside locations).

Migration-subsystem counters: ``lookups_charged`` counts metadata lookups
actually charged to the virtual clock (``charge_lookup``);
``lookup_cache_hits`` counts address resolutions served by the
per-location lookup cache instead (no charge);
``lookup_cache_invalidations`` counts epoch bumps that dropped a cache;
``stale_redirects`` counts requests that landed at a non-owner (moved
bContainer or stale cached route) and re-forwarded through the directory;
``bcontainers_migrated`` / ``migration_elements_moved`` count whole
bContainers shipped / elements received by ``migrate``; ``rebalances``
counts load-driven ``rebalance()`` collectives.

Shared-memory transport counters (multiprocessing backend only):
``shm_segments_created`` counts fresh ``SharedMemory`` segments the arena
allocated (pool misses plus container-storage segments);
``shm_segments_reused`` counts warm segments drawn from the arena's
free lists — the create/unlink syscalls the pool avoided;
``zero_copy_slab_views`` counts receiver-side slab materialisations that
returned a read-only view instead of a copy; ``live_storage_refs`` counts
bulk replies that shipped a reference into live container storage with no
sender-side copy at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class LocationStats:
    """Counters accumulated by one location during an SPMD run."""

    async_rmi_sent: int = 0
    sync_rmi_sent: int = 0
    opaque_rmi_sent: int = 0
    bulk_rmi_sent: int = 0
    bulk_elements_moved: int = 0
    combined_ops: int = 0
    combining_flushes: int = 0
    rmi_executed: int = 0
    local_invocations: int = 0
    remote_invocations: int = 0
    forwarded: int = 0
    physical_messages: int = 0
    coalesced_messages: int = 0
    bytes_sent: int = 0
    lock_acquires: int = 0
    fences: int = 0
    subgroup_fences: int = 0
    collectives: int = 0
    tasks_executed: int = 0
    dependence_messages: int = 0
    nested_paragraphs: int = 0
    nested_multi_paragraphs: int = 0
    nested_tasks_executed: int = 0
    lookups_charged: int = 0
    lookup_cache_hits: int = 0
    lookup_cache_invalidations: int = 0
    stale_redirects: int = 0
    bcontainers_migrated: int = 0
    migration_elements_moved: int = 0
    rebalances: int = 0
    shm_segments_created: int = 0
    shm_segments_reused: int = 0
    zero_copy_slab_views: int = 0
    live_storage_refs: int = 0

    def merge(self, other: "LocationStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RunStats:
    """Aggregate view over all locations of a finished run."""

    per_location: list = field(default_factory=list)

    @property
    def total(self) -> LocationStats:
        out = LocationStats()
        for s in self.per_location:
            out.merge(s)
        return out

    def as_dict(self) -> dict:
        return self.total.as_dict()
