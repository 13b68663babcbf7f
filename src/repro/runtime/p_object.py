"""Shared objects (``p_object``, Ch. III.B).

A p_object is the basic concept of a shared object: it has one
*representative* per location, registered with the RTS under a common handle
so that RMIs can be routed between representatives.  All pContainers inherit
from :class:`PObject`, mirroring the paper's requirement that "all the
parallel objects in stapl inherit from the base p_object class".
"""

from __future__ import annotations

from .scheduler import Location, LocationGroup, Runtime


class PObject:
    """Per-location representative of a distributed shared object."""

    def __init__(self, ctx: Location, group: LocationGroup | None = None):
        self._ctx = ctx
        self._runtime: Runtime = ctx.runtime
        self._group = group or ctx.runtime.world
        if ctx.id not in self._group:
            raise ValueError(
                f"location {ctx.id} constructing a p_object outside its "
                f"group {self._group}")
        #: RMI handle shared by all representatives (collective registration)
        self._handle = ctx.collective_register(self, self._group)

    # -- identity --------------------------------------------------------
    @property
    def ctx(self) -> Location:
        """The location that owns this representative."""
        return self._ctx

    @property
    def runtime(self) -> Runtime:
        return self._runtime

    @property
    def group(self) -> LocationGroup:
        return self._group

    @property
    def handle(self) -> int:
        return self._handle

    def get_location_id(self) -> int:
        return self._ctx.id

    def get_num_locations(self) -> int:
        return len(self._group)

    # -- the location currently executing code on this object ------------
    @property
    def here(self) -> Location:
        """Current execution location: the owner location for plain calls,
        the target location while running inside an RMI handler."""
        return self._runtime.current_location

    # -- RMI helpers ------------------------------------------------------
    def rep_on(self, lid: int) -> "PObject":
        """Direct reference to the representative on location ``lid``
        (valid because the simulator shares one address space — only used by
        conductor-side tooling, never by container logic)."""
        return self._runtime.lookup(self._handle, lid)

    def _async(self, dest: int, method: str, *args) -> None:
        self._runtime.current_location.async_rmi(dest, self._handle, method, *args)

    def _sync(self, dest: int, method: str, *args):
        return self._runtime.current_location.sync_rmi(
            dest, self._handle, method, *args)

    def _opaque(self, dest: int, method: str, *args):
        return self._runtime.current_location.opaque_rmi(
            dest, self._handle, method, *args)

    def _apply_combined(self, records) -> None:
        """Replay a flushed combining buffer (Ch. III.B combining): each
        record is one buffered asynchronous op, executed in the order it
        was appended at the source.  A buffer is per destination, so
        records may target other p_objects on this location — each is
        re-routed to its handle's representative."""
        here_id = self.here.id
        for handle, method, args in records:
            obj = (self if handle == self._handle
                   else self._runtime.lookup(handle, here_id))
            getattr(obj, method)(*args)

    def _apply_node_combined(self, bundles) -> None:
        """Node-leader scatter of a coalesced combining flush (mixed-mode
        slab routing): ``bundles`` is a list of ``(dest_lid, records)``
        pairs, all destined to locations on this node.  The bundle
        addressed to this location replays in place; the others are
        forwarded over cheap intra-node asyncs, preserving the originating
        location for ``os_fence``."""
        here = self.here
        for dest, records in bundles:
            if dest == here.id:
                self._apply_combined(records)
            else:
                here.async_rmi(dest, records[0][0], "_apply_combined",
                               records)

    def destroy(self) -> None:
        """Collective destructor: unregister all representatives."""
        self._ctx.collective_unregister(self._handle, self._group)
