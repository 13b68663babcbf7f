"""pList (Ch. X): distributed doubly-linked list.

Design per Ch. X.C: the global list is an ordered sequence of *segments*
(one ListBC per location by default); element GIDs are stable
``(bcid, seq)`` handles, so address resolution is O(1) arithmetic on the GID
— no directory.  All sequence methods (Table XXIV / XVIII) run in O(1):
``push_back``/``push_front`` target the last/first segment,
``insert``/``erase`` run at the owning segment, and ``push_anywhere``
appends locally (the paper's "new methods facilitating parallel use").
"""

from __future__ import annotations

from ..core.base_containers import ListBC
from ..core.domains import UniverseDomain
from ..core.partitions import ListPartition
from ..core.pcontainer import PContainerDynamic
from ..core.thread_safety import ELEMENT, LOCAL, MDREAD, READ, WRITE
from ..core.traits import Traits


class PList(PContainerDynamic):
    """Distributed list with stable element handles."""

    DEFAULT_LOCKING = {
        "set_element": (ELEMENT, WRITE, MDREAD),
        "get_element": (ELEMENT, READ, MDREAD),
        "apply_get": (ELEMENT, READ, MDREAD),
        "apply_set": (ELEMENT, WRITE, MDREAD),
        "insert": (LOCAL, WRITE, MDREAD),
        "erase": (LOCAL, WRITE, MDREAD),
    }

    #: async ops buffered by the combining path (Ch. III.B); remote pushes
    #: combine through their dedicated fast path below
    COMBINING_METHODS = frozenset(
        {"set_element", "apply_set", "insert", "erase"})

    def __init__(self, ctx, size: int = 0, value=0,
                 traits: Traits | None = None, group=None):
        super().__init__(ctx, traits, group)
        partition = ListPartition(len(self.group))
        self.init(UniverseDomain(), partition, allocate=False)
        me = self.group.index_of(ctx.id)
        self._my_bcid = me
        bc = ListBC(UniverseDomain(), me)
        self.location_manager.add_bcontainer(me, bc)
        # collective construction with `size` initial elements, balanced
        from ..core.partitions import balanced_sizes

        mine = balanced_sizes(size, len(self.group))[me]
        for _ in range(mine):
            bc.push_back(value)
        ctx.charge(ctx.machine.t_access * 0.25 * mine)
        self._cached_size = size
        self._ctor_done()

    def _make_mapper(self):
        from ..core.mappers import CyclicMapper

        return CyclicMapper()  # bcid i -> i-th group member

    # -- element access (GID = (bcid, seq)) ---------------------------------
    def set_element(self, gid, value) -> None:
        self._dist.invoke("set_element", gid, value)

    def get_element(self, gid):
        return self._dist.invoke_ret("get_element", gid)

    def split_phase_get_element(self, gid):
        return self._dist.invoke_opaque_ret("get_element", gid)

    def apply_get(self, gid, fn):
        return self._dist.invoke_ret("apply_get", gid, fn)

    def apply_set(self, gid, fn) -> None:
        self._dist.invoke("apply_set", gid, fn)

    def _chase(self) -> None:
        # node dereference: lists pay a pointer chase arrays do not
        self.here.charge(self.here.machine.t_access * 0.5)

    def _local_set_element(self, bc, gid, value) -> None:
        self._chase()
        bc.set(gid[1], value)

    def _local_get_element(self, bc, gid):
        self._chase()
        return bc.get(gid[1])

    def _local_apply_get(self, bc, gid, fn):
        self._chase()
        return bc.apply(gid[1], fn)

    def _local_apply_set(self, bc, gid, fn) -> None:
        self._chase()
        bc.apply_set(gid[1], fn)

    # -- sequence interface (Table XVIII / XXIV) -----------------------------
    # End pushes/pops address segments by BCID and route through the
    # partition-mapper, so they keep working after segments migrate between
    # locations (a handler finding its segment gone re-routes through the
    # fresh mapper — the bounded chain counted in ``stale_redirects``).

    def _push_end(self, bcid: int, back: bool, value) -> None:
        dest = self._dist.mapper.map(bcid)
        if dest == self.here.id:
            self.here.charge_access()
            self.location_manager.note_access(bcid)
            bc = self.location_manager.get_bcontainer(bcid)
            bc.push_back(value) if back else bc.push_front(value)
            self.here.stats.local_invocations += 1
        else:
            self.here.stats.remote_invocations += 1
            if not self.here.combine_rmi(dest, self.handle, "_remote_push",
                                         bcid, back, value):
                self.here.async_rmi(dest, self.handle, "_remote_push",
                                    bcid, back, value)

    def push_back(self, value) -> None:
        """Append at the end of the global sequence (last segment)."""
        self._push_end(self._dist.partition.size() - 1, True, value)

    def push_front(self, value) -> None:
        """Prepend at the beginning of the global sequence (first segment)."""
        self._push_end(0, False, value)

    def _remote_push(self, bcid: int, back: bool, value) -> None:
        if not self.location_manager.has_bcontainer(bcid):
            # the segment migrated while the push was in flight
            self.here.stats.stale_redirects += 1
            self._push_end(bcid, back, value)
            return
        bc = self.location_manager.get_bcontainer(bcid)
        self.here.charge_access()
        self.location_manager.note_access(bcid)
        if back:
            bc.push_back(value)
        else:
            bc.push_front(value)

    def pop_back(self):
        return self._pop(self._dist.partition.size() - 1, True)

    def pop_front(self):
        return self._pop(0, False)

    def _pop(self, bcid: int, back: bool):
        loc = self.here
        dest = self._dist.mapper.map(bcid)
        if dest == loc.id:
            # the end segment is local: no round trip (mirrors push_back's
            # fast path).  Source FIFO: pending self-sends execute first.
            self.runtime.progress(loc, src=loc.id)
            loc.stats.local_invocations += 1
            return self._remote_pop(bcid, back)
        loc.stats.remote_invocations += 1
        return loc.sync_rmi(dest, self.handle, "_remote_pop", bcid, back)

    def _remote_pop(self, bcid: int, back: bool):
        if not self.location_manager.has_bcontainer(bcid):
            self.here.stats.stale_redirects += 1
            return self._pop(bcid, back)
        bc = self.location_manager.get_bcontainer(bcid)
        if bc.size():
            self.here.charge_access()
            self.location_manager.note_access(bcid)
            return bc.pop_back() if back else bc.pop_front()
        # this end segment is empty: chase the sequence inwards
        nxt = bcid - 1 if back else bcid + 1
        if 0 <= nxt < self._dist.partition.size():
            dest = self._dist.mapper.map(nxt)
            if dest == self.here.id:
                return self._remote_pop(nxt, back)
            return self._sync(dest, "_remote_pop", nxt, back)
        raise IndexError("pop from empty pList")

    def insert_element(self, gid, value):
        """Synchronous insert before ``gid``; returns the new element's GID."""
        return self._dist.invoke_ret("insert", gid, value)

    def insert_element_async(self, gid, value) -> None:
        """Asynchronous insert before ``gid``."""
        self._dist.invoke("insert", gid, value)

    def erase_element(self, gid):
        return self._dist.invoke_ret("erase", gid)

    def erase_element_async(self, gid) -> None:
        self._dist.invoke("erase", gid)

    def _local_insert(self, bc, gid, value):
        seq = bc.insert_before(gid[1], value)
        return (gid[0], seq)

    def _local_erase(self, bc, gid, *_):
        return bc.erase(gid[1])

    # -- batch interface (combining-buffer clients) ---------------------------
    def push_back_range(self, values) -> None:
        """Append many values at the end of the global sequence; remote
        appends coalesce through the combining buffers (one physical
        message per combining window instead of one RMI per element)."""
        for value in values:
            self.push_back(value)

    def push_front_range(self, values) -> None:
        """Prepend values one by one, exactly like a repeated push_front
        loop: the *last* value ends up at the global front."""
        for value in values:
            self.push_front(value)

    def push_anywhere_range(self, values) -> list:
        """Append many values to a local segment (no communication while
        one is local); returns their GIDs."""
        bc = self._local_segment_or_none()
        values = list(values)
        if bc is None:
            return [self.push_anywhere(v) for v in values]
        self.here.charge_access(len(values))
        bcid = bc.get_bcid()
        self.location_manager.note_access(bcid, len(values))
        return [(bcid, bc.push_back(v)) for v in values]

    # -- parallel-use extensions (Ch. V.B) -----------------------------------
    def push_anywhere(self, value):
        """Insert at an unspecified position: a local segment (O(1), no
        communication — the fast path of Fig. 39), or — when every segment
        migrated away — the current owner of this location's home segment.
        Returns the GID."""
        bc = self._local_segment_or_none()
        if bc is None:
            self.here.stats.remote_invocations += 1
            return self._sync(self._dist.mapper.map(self._my_bcid),
                              "_push_anywhere_at", self._my_bcid, value)
        self.here.charge_access()
        bcid = bc.get_bcid()
        self.location_manager.note_access(bcid)
        seq = bc.push_back(value)
        return (bcid, seq)

    push_anywhere_async = push_anywhere

    def _push_anywhere_at(self, bcid: int, value):
        if not self.location_manager.has_bcontainer(bcid):
            self.here.stats.stale_redirects += 1
            return self._sync(self._dist.mapper.map(bcid),
                              "_push_anywhere_at", bcid, value)
        self.here.charge_access()
        self.location_manager.note_access(bcid)
        return (bcid, self.location_manager.get_bcontainer(bcid)
                          .push_back(value))

    def get_anywhere(self):
        """A reference value from a local segment if non-empty, else from
        the first non-empty segment."""
        for bc in self.location_manager.ordered():
            if bc.size():
                self.here.charge_access()
                return bc.get(bc.first_seq())
        for lid in self.group.members:
            if lid == self.ctx.id:
                continue
            val = self.here.sync_rmi(lid, self.handle, "_any_local")
            if val is not None:
                return val[0]
        raise IndexError("get_anywhere on empty pList")

    def _any_local(self):
        for bc in self.location_manager.ordered():
            if bc.size():
                return (bc.get(bc.first_seq()),)
        return None

    def remove_element(self):
        """Remove an arbitrary (local if possible) element."""
        for bc in self.location_manager.ordered():
            if bc.size():
                self.here.charge_access()
                return bc.pop_back()
        raise IndexError("remove_element on empty local segment")

    # -- traversal helpers ----------------------------------------------------
    def _local_segment_or_none(self):
        """This location's home segment if still local, else any local
        segment (segments move between locations under migration)."""
        lm = self.location_manager
        if lm.has_bcontainer(self._my_bcid):
            return lm.get_bcontainer(self._my_bcid)
        for bc in lm.ordered():
            return bc
        return None

    def local_segment(self) -> ListBC:
        bc = self._local_segment_or_none()
        if bc is None:
            raise LookupError(
                "no local segment on this location (all migrated away)")
        return bc

    def local_segments(self) -> list:
        return self.location_manager.ordered()

    def local_gids(self) -> list:
        return [(bc.get_bcid(), s)
                for bc in self.location_manager.ordered()
                for s in bc.seqs()]

    def to_list(self) -> list:
        """Gather all values in global sequence order, one slab per
        (src, dst) pair (collective).  Segments are shipped tagged with
        their BCID (the global sequence is BCID order), so the gather is
        placement-independent — correct before and after migration."""
        local = [(bc.get_bcid(), bc.values())
                 for bc in self.location_manager.ordered() if bc.size()]
        gathered = self.ctx.bulk_gather(
            local, group=self.group,
            nelems=sum(len(vals) for _, vals in local))
        segments = {}
        for chunk in gathered:
            for bcid, vals in chunk or []:
                segments[bcid] = vals
        out = []
        for bcid in sorted(segments):
            out.extend(segments[bcid])
        return out

    def splice_from(self, other: "PList") -> None:
        """Collective splice: move every local segment of ``other`` onto the
        back of this list's local segment (O(local size), no communication
        for aligned groups)."""
        if other.group.members != self.group.members:
            raise ValueError("splice requires identical groups")
        dst = self.local_segment()
        for src in other.local_segments():
            n = src.size()
            self.here.charge_access(n)
            while src.size():
                dst.push_back(src.pop_front())
        self.ctx.barrier(self.group)
