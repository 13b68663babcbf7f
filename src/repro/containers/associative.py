"""Associative pContainer base (Ch. XII, Tables XVI/XXVIII, Fig. 57).

Key/value containers: the key *is* the GID, so address resolution is a pure
function of the key — ``stable_hash(key) % m`` for hashed containers
(amortised O(1)) or splitter bisection for sorted containers (Fig. 58's
value-based partition, O(log m)).  The interface follows the paper:
``insert`` (async), ``find``/``find_val`` (sync), ``split_phase_find``,
``erase_async``, plus combining ``data_apply``/``accumulate`` used by
MapReduce.

All asynchronous element ops ride the runtime's combining buffers
(Ch. III.B): records destined to the same location ship as one bulk
message per combining window instead of one RMI per element.  The batch
interface (``insert_range`` / ``accumulate_batch`` / ``erase_batch``) is
the idiomatic client of that path, and ``to_dict``/``sorted_items`` gather
through per-location slabs (``bulk_gather``).
"""

from __future__ import annotations

from ..core.base_containers import MapBC, MultiMapBC, SetBC
from ..core.domains import UniverseDomain
from ..core.partitions import HashPartition, RangePartition
from ..core.pcontainer import PContainerDynamic
from ..core.thread_safety import BCONTAINER, ELEMENT, MDREAD, READ, WRITE
from ..core.traits import Traits


class AssociativeBase(PContainerDynamic):
    """Common machinery for all six associative containers."""

    DEFAULT_LOCKING = {
        "insert": (BCONTAINER, WRITE, MDREAD),
        "set": (ELEMENT, WRITE, MDREAD),
        "get": (ELEMENT, READ, MDREAD),
        "find": (ELEMENT, READ, MDREAD),
        "erase": (BCONTAINER, WRITE, MDREAD),
        "apply_get": (ELEMENT, READ, MDREAD),
        "apply_set": (ELEMENT, WRITE, MDREAD),
        "accumulate": (ELEMENT, WRITE, MDREAD),
        "count": (ELEMENT, READ, MDREAD),
        "contains": (ELEMENT, READ, MDREAD),
    }

    #: sorted containers keep per-bContainer key order
    sorted_order = False

    #: async ops buffered by the combining path (Ch. III.B)
    COMBINING_METHODS = frozenset(
        {"insert", "set", "accumulate", "erase", "apply_set"})

    def __init__(self, ctx, partition=None, splitters=None,
                 num_bcontainers: int | None = None,
                 traits: Traits | None = None, group=None):
        super().__init__(ctx, traits, group)
        if partition is None:
            if splitters is not None:
                partition = RangePartition(splitters)
            else:
                # over-decomposition (``num_bcontainers`` > #locations,
                # default one bucket per location): several hash buckets
                # per location gives load-driven ``rebalance()`` units it
                # can move independently
                partition = HashPartition(num_bcontainers
                                          or len(self.group))
        self.init(UniverseDomain(), partition, allocate=False)
        for bcid in self._dist.mapper.get_local_cids(ctx.id):
            sub = self._dist.partition.get_sub_domain(bcid)
            self.location_manager.add_bcontainer(
                bcid, self._make_bcontainer(sub, bcid))
        self._cached_size = 0
        self._ctor_done()

    # -- core interface (Table XVI) ------------------------------------------
    def insert(self, key, value=None) -> None:
        """Asynchronous insert (does not overwrite an existing key)."""
        self._dist.invoke("insert", key, value)

    def insert_sync(self, key, value=None) -> bool:
        """Synchronous insert; returns True if the key was newly created."""
        return self._dist.invoke_ret("insert", key, value)

    def set_element(self, key, value) -> None:
        """Asynchronous overwrite-or-insert (operator[] assignment)."""
        self._dist.invoke("set", key, value)

    def find(self, key):
        """Synchronous lookup; returns value or raises KeyError."""
        value, ok = self._dist.invoke_ret("find", key)
        if not ok:
            raise KeyError(key)
        return value

    def find_val(self, key):
        """(value, bool) pair — the paper's non-throwing find."""
        return self._dist.invoke_ret("find", key)

    def split_phase_find(self, key):
        """``pc_future`` resolving to the (value, bool) pair."""
        return self._dist.invoke_opaque_ret("find", key)

    def contains(self, key) -> bool:
        return self._dist.invoke_ret("contains", key)

    def count(self, key) -> int:
        return self._dist.invoke_ret("count", key)

    def erase_async(self, key) -> None:
        self._dist.invoke("erase", key)

    def erase(self, key) -> int:
        """Synchronous erase; returns number of elements removed."""
        return self._dist.invoke_ret("erase", key)

    def apply_get(self, key, fn):
        return self._dist.invoke_ret("apply_get", key, fn)

    def apply_set(self, key, fn) -> None:
        self._dist.invoke("apply_set", key, fn)

    def accumulate(self, key, value) -> None:
        """Combining update: ``data[key] += value`` (MapReduce reducer)."""
        self._dist.invoke("accumulate", key, value)

    def __contains__(self, key) -> bool:
        return self.contains(key)

    # -- batch interface (combining-buffer clients) ---------------------------
    # Each op is still resolved and charged per key (lookup + locking), but
    # remote records coalesce into one physical message per combining
    # window; with ``RuntimeConfig(combining=False)`` these degrade to one RMI per
    # element, which is exactly what the ablation measures.

    def insert_range(self, items) -> None:
        """Asynchronously insert many ``(key, value)`` pairs."""
        for key, value in items:
            self.insert(key, value)

    def accumulate_batch(self, items) -> None:
        """Combining update for many ``(key, delta)`` pairs (the MapReduce
        reducer's bulk path)."""
        for key, value in items:
            self.accumulate(key, value)

    def erase_batch(self, keys) -> None:
        """Asynchronously erase many keys."""
        for key in keys:
            self.erase_async(key)

    # -- local handlers --------------------------------------------------------
    def _local_insert(self, bc, key, value):
        return bc.insert(key, value)

    def _local_set(self, bc, key, value) -> None:
        bc.set(key, value)

    def _local_get(self, bc, key):
        return bc.get(key)

    def _local_find(self, bc, key):
        return bc.find(key)

    def _local_contains(self, bc, key) -> bool:
        return bc.contains(key)

    def _local_count(self, bc, key) -> int:
        return bc.count(key) if hasattr(bc, "count") else (
            1 if bc.contains(key) else 0)

    def _local_erase(self, bc, key):
        return bc.erase(key)

    def _local_apply_get(self, bc, key, fn):
        return bc.apply(key, fn)

    def _local_apply_set(self, bc, key, fn) -> None:
        bc.apply_set(key, fn)

    def _local_accumulate(self, bc, key, value) -> None:
        bc.accumulate(key, value)

    # -- iteration / gathering ---------------------------------------------------
    def local_items(self) -> list:
        out = []
        for bc in self.local_bcontainers():
            out.extend(bc.items())
        return out

    def local_keys(self) -> list:
        out = []
        for bc in self.local_bcontainers():
            out.extend(bc.keys())
        return out

    def to_dict(self) -> dict:
        """Gather all items on every location as one slab per (src, dst)
        pair (collective)."""
        local = self.local_items()
        gathered = self.ctx.bulk_gather(local, group=self.group,
                                        nelems=len(local))
        out = {}
        for items in gathered:
            for k, v in items:
                out[k] = v
        return out

    def sorted_items(self) -> list:
        """Globally key-ordered items (meaningful with a RangePartition,
        whose sub-domain order follows the key order, Fig. 58)."""
        local = [(bc.get_bcid(), bc.items())
                 for bc in self.local_bcontainers() if bc.size()]
        gathered = self.ctx.bulk_gather(local, group=self.group,
                                        nelems=self.local_size())
        per_bcid = {}
        for chunk in gathered:
            for bcid, items in chunk:
                per_bcid[bcid] = items
        out = []
        for bcid in sorted(per_bcid):
            out.extend(sorted(per_bcid[bcid]) if self.sorted_order
                       else per_bcid[bcid])
        return out


class _SetMixin:
    """Simple associative containers: key == value (Fig. 5 taxonomy)."""

    def insert(self, key, value=None) -> None:  # noqa: D102 - inherited doc
        self._dist.invoke("insert", key, value)

    def insert_range(self, keys) -> None:
        """Asynchronously insert many keys (key == value)."""
        for key in keys:
            self.insert(key)


class PMap(AssociativeBase):
    """Sorted pair-associative container (std::map analogue).

    With ``splitters`` it uses the value-based range partition of Fig. 58,
    giving a globally sorted enumeration; otherwise keys are hash-partitioned
    and only per-bContainer order is sorted.
    """

    sorted_order = True

    def _default_bcontainer(self, subdomain, bcid):
        return MapBC(subdomain, bcid, sorted_order=True)


class PMultiMap(PMap):
    """Sorted pair-associative container with duplicate keys."""

    def _default_bcontainer(self, subdomain, bcid):
        return MultiMapBC(subdomain, bcid, sorted_order=True)


class PHashMap(AssociativeBase):
    """Hashed pair-associative container (amortised O(1) methods)."""

    def _default_bcontainer(self, subdomain, bcid):
        return MapBC(subdomain, bcid, sorted_order=False)


class PSet(_SetMixin, AssociativeBase):
    """Sorted simple associative container."""

    sorted_order = True

    def _default_bcontainer(self, subdomain, bcid):
        return SetBC(subdomain, bcid, sorted_order=True)


class PMultiSet(_SetMixin, AssociativeBase):
    """Sorted simple associative container with duplicates."""

    sorted_order = True

    def _default_bcontainer(self, subdomain, bcid):
        return SetBC(subdomain, bcid, sorted_order=True, multi=True)


class PHashSet(_SetMixin, AssociativeBase):
    """Hashed simple associative container."""

    def _default_bcontainer(self, subdomain, bcid):
        return SetBC(subdomain, bcid, sorted_order=False)
