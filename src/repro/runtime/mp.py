"""Real-parallelism execution backend: one OS process per location.

The simulated backend executes every RMI handler in one address space and
*models* parallelism with virtual clocks.  This module provides the other
half of ROADMAP item 1: the same SPMD programs, containers, views and
algorithms running with **real** concurrency — each location is a forked OS
process, scalar RMIs travel over per-destination ``multiprocessing`` queues,
and bulk slabs move through ``multiprocessing.shared_memory`` segments so
their payload bytes never pass through a pipe or the pickler.

Design (BCL-style: a handful of backend primitives behind a stable runtime
API):

* There is one :class:`Location` class: its aggregation/combining
  bookkeeping, virtual-clock charging, traffic counters and the whole
  container-facing API are written once over the primitives
  :class:`~repro.runtime.scheduler.BackendRuntime` declares, and
  :class:`MpRuntime` implements those for a process hosting one location:
  *deliver one request* (:meth:`MpRuntime.post`, which every send — asyncs,
  split-phase requests, combining-buffer flushes, bulk slab pushes — funnels
  into), *wait for one reply* (:meth:`MpRuntime.round_trip`, a token
  exchange), *execute what has arrived* (:meth:`MpRuntime.progress`).
* The collective protocol — ``Location._collective`` — runs over
  :meth:`MpRuntime.exchange` (eager point-to-point sends into a parked
  inbox, no coordinator; payloads ride the slab transport and reduction
  operators never cross a process boundary, every member folds its own
  result) and :meth:`MpRuntime.fence`.
* Both fences count: waves of (requests sent, requests executed) totals
  until they are equal and unchanged for two consecutive waves.  A
  ``fence`` gathers a wave with an exchange over the group; ``os_fence``
  polls every peer for its counts of the requests the caller originated,
  so only its caller pays for it and no request is ever acknowledged.
  Every blocked wait services incoming traffic, so fences, sync RMIs and
  exchanges can never deadlock against each other.
* Every blocking wait carries a deadline (the launcher's ``op_timeout``): a
  genuinely deadlocked program fails fast with a diagnostic instead of
  hanging the test runner, and the parent enforces a wall-clock cap on the
  whole run (``timeout``) as a second line of defence.

Guarantees relative to the simulated oracle: per-(src, dst) FIFO holds
(one queue per destination, one feeder per producer), async completion is
guaranteed at fences exactly as Ch. VII.B specifies — asyncs may execute
*earlier* than the simulator would (any service point), which the
completion model permits.  Cross-source interleaving is real and
nondeterministic, so programs must order conflicting writes the same way
they must on any real machine; the differential suite
(``tests/backend/``) pins down byte-identical *final* results for all six
container families and the algorithm drivers.
"""

from __future__ import annotations

import contextlib
import glob
import importlib
import io
import marshal
import multiprocessing
import os
import pickle
import queue as queue_mod
import sys
import time
import traceback
import types
import uuid
from collections import deque

import numpy as np

from .comm import Message, estimate_size
from .config import RuntimeConfig
from .future import Future
from .scheduler import (
    BackendRuntime,
    Location,
    LocationGroup,
    SpmdError,
    SpmdReport,
)
from .stats import RunStats

#: default per-blocking-operation deadline (seconds); a stuck fence,
#: collective or reply raises SpmdError instead of hanging the runner
_OP_TIMEOUT = 60.0
#: default wall-clock cap for one whole run, enforced by the parent
_RUN_TIMEOUT = 300.0
#: how long one task_yield blocks waiting for an incoming message
_YIELD_TIMEOUT = 0.05
#: seconds of group-wide silence before the task-graph executor's blocked
#: wait declares a dependence deadlock
_STALL_PATIENCE = 10.0

_PACK_DEPTH = 9  # eight levels below a wire item's payload

#: ndarray payloads at least this big (bytes) ride shared-memory segments
#: instead of being pickled into the queue pipe
SHM_SLAB_THRESHOLD = 2048

#: smallest arena segment size class (bytes); classes double from here
_ARENA_MIN_CLASS = 1024
#: an exchange channel's round-S segments recycle when round S+2 begins:
#: completing round S+1 proves every peer entered round S+1, i.e. finished
#: consuming round S (the slab-view validity contract below)
_CHANNEL_REUSE_LAG = 2


class ShmSlab:
    """Wire placeholder for an ndarray moved through shared memory: a
    reference to ``shape``/``dtype`` bytes at ``offset`` inside the named
    segment, which the *sender* owns.  The receiver maps the segment
    (cached per name) and hands out a read-only view; it never unlinks.

    The segment is either a warm arena segment — the sender recycles it
    after the next world fence (or two exchange rounds later on the same
    channel) — or, for synchronous bulk replies, the owner's bContainer
    storage segment itself, which lives as long as the storage does.

    Validity contract: a received slab view is guaranteed stable until the
    receiver's next world fence (or its next bulk exchange on the same
    group, for exchange slabs).  Consumers that retain data past that
    point must copy — every internal consumer (``set_range``/handler
    argument paths) already does.
    """

    __slots__ = ("name", "shape", "dtype", "offset")

    def __init__(self, name: str, shape, dtype: str, offset: int = 0):
        self.name = name
        self.shape = shape
        self.dtype = dtype
        self.offset = offset

    def __reduce__(self):
        return (ShmSlab, (self.name, self.shape, self.dtype, self.offset))


class _TrackerShim:
    """No-op stand-in for the multiprocessing resource tracker during slab
    segment calls.  Slab lifetime is managed explicitly — the owning arena
    unlinks on dispose and the parent sweeps leftovers — while
    Python < 3.13 registers every create *and* attach with one tracker
    daemon shared by all forked workers, so the matching unregisters race
    and spam KeyErrors from the tracker thread."""

    @staticmethod
    def register(name, rtype):
        pass

    @staticmethod
    def unregister(name, rtype):
        pass


def _shm_call(fn, *args, **kwargs):
    """Invoke an ``shared_memory`` operation with tracker registration
    suppressed (single-threaded per worker, so swapping the module
    attribute is race-free within the process)."""
    from multiprocessing import shared_memory

    real = shared_memory.resource_tracker
    shared_memory.resource_tracker = _TrackerShim
    try:
        return fn(*args, **kwargs)
    finally:
        shared_memory.resource_tracker = real


class ShmArena:
    """Per-location pooled ``SharedMemory`` allocator with explicit
    epoch-based reclamation.

    Slab sends draw warm segments from per-size-class free lists instead
    of paying create/unlink per transfer.  A segment handed to the wire is
    *retired*, not freed: the owner may not rewrite it until every
    receiver has provably dropped its view.  Two reclamation triggers
    certify that:

    * **world fence** (:meth:`advance_epoch`): the counting fence proves
      every in-flight message executed, and the slab-view validity
      contract (:class:`ShmSlab`) says receivers hold no zero-copy view
      across their own fence — so everything retired before the fence
      recycles.
    * **exchange channel lag** (:meth:`channel_advance`): for
      ``bulk_exchange``/``bulk_gather`` slabs, completing round S+1 on a
      channel proves every peer entered round S+1, i.e. finished
      consuming round S — so round-S segments recycle when round S+2
      begins, without waiting for a fence.  This is what makes repeated
      un-fenced gathers (the latency kernel) reuse warm segments.

    The arena also owns the *live storage* segments backing arena-
    allocated bContainer arrays (:meth:`storage_alloc`) and can recognise
    a C-contiguous ndarray view into one (:meth:`find_live`), which is
    how a bulk reply ships a reference into live storage with no copy at
    all.  Storage segments are never pooled or retired; they die with the
    arena (:meth:`dispose`), which unlinks every owned segment — the
    leak-audit contract that ``/dev/shm`` is clean after a run.
    """

    def __init__(self, namer, stats=None):
        self._namer = namer
        self.stats = stats
        self._free: dict[int, list] = {}       # size class -> [segment]
        self._retired: list = []               # [(epoch, class, segment)]
        self._channels: dict = {}              # channel -> {seq: [(cls, seg)]}
        self._owned: dict[str, object] = {}    # name -> segment (everything)
        self._storage: list = []               # [(addr_lo, addr_hi, name)]
        self._cur_channel = None
        self._cur_seq = None
        self.epoch = 0

    @staticmethod
    def _size_class(nbytes: int) -> int:
        c = _ARENA_MIN_CLASS
        while c < nbytes:
            c <<= 1
        return c

    def alloc(self, nbytes: int):
        """A ``(segment, size_class)`` with capacity >= ``nbytes``: warm
        from the free list when possible, freshly created otherwise."""
        from multiprocessing import shared_memory

        cls = self._size_class(max(1, nbytes))
        free = self._free.get(cls)
        if free:
            if self.stats is not None:
                self.stats.shm_segments_reused += 1
            return free.pop(), cls
        seg = _shm_call(shared_memory.SharedMemory, create=True, size=cls,
                        name=self._namer())
        self._owned[seg.name] = seg
        if self.stats is not None:
            self.stats.shm_segments_created += 1
        return seg, cls

    def retire(self, seg, cls: int) -> None:
        """The segment was handed to the wire: park it until a
        reclamation trigger proves all receivers dropped their views."""
        if self._cur_channel is not None:
            self._channels.setdefault(self._cur_channel, {}) \
                .setdefault(self._cur_seq, []).append((cls, seg))
        else:
            self._retired.append((self.epoch, cls, seg))

    def begin_channel(self, channel, seq: int) -> None:
        """Packs until :meth:`end_channel` retire into round ``seq`` of
        ``channel`` (an exchange tag/group identity) instead of the fence
        pool, and rounds older than the reuse lag recycle now."""
        self._cur_channel, self._cur_seq = channel, seq
        buckets = self._channels.get(channel)
        if buckets:
            for s in [s for s in buckets if s <= seq - _CHANNEL_REUSE_LAG]:
                for cls, seg in buckets.pop(s):
                    self._free.setdefault(cls, []).append(seg)

    def end_channel(self) -> None:
        self._cur_channel = self._cur_seq = None

    def advance_epoch(self) -> None:
        """A world fence completed: recycle everything retired before it
        (including parked exchange rounds — a fence outranks the channel
        lag)."""
        self.epoch += 1
        still = []
        for ep, cls, seg in self._retired:
            if ep < self.epoch:
                self._free.setdefault(cls, []).append(seg)
            else:  # pragma: no cover - retire after advance began
                still.append((ep, cls, seg))
        self._retired = still
        for buckets in self._channels.values():
            for s in list(buckets):
                for cls, seg in buckets.pop(s):
                    self._free.setdefault(cls, []).append(seg)

    # -- live bContainer storage ------------------------------------------
    def storage_alloc(self, shape, dtype):
        """A writable ndarray living inside a dedicated owned segment, or
        None when the dtype cannot live in flat shared memory.  Installed
        as the bContainer storage allocator by the worker bootstrap, so
        numpy-backed container storage is shippable by reference."""
        dtype = np.dtype(dtype)
        if dtype == object:
            return None
        from multiprocessing import shared_memory

        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        seg = _shm_call(shared_memory.SharedMemory, create=True,
                        size=nbytes, name=self._namer())
        self._owned[seg.name] = seg
        if self.stats is not None:
            self.stats.shm_segments_created += 1
        base = np.frombuffer(seg.buf, dtype=np.uint8)
        addr = base.__array_interface__["data"][0]
        self._storage.append((addr, addr + nbytes, seg.name))
        return np.ndarray(shape, dtype=dtype, buffer=seg.buf)

    def find_live(self, arr: np.ndarray):
        """``(name, offset)`` when ``arr`` is a C-contiguous view wholly
        inside a registered storage segment, else None."""
        if not self._storage or not arr.flags.c_contiguous:
            return None
        addr = arr.__array_interface__["data"][0]
        end = addr + arr.nbytes
        for lo, hi, name in self._storage:
            if lo <= addr and end <= hi:
                return name, addr - lo
        return None

    def dispose(self) -> None:
        """Unlink every owned segment.  ``close`` may be refused while
        container arrays still export the buffer (BufferError); the
        *unlink* always proceeds, so ``/dev/shm`` is clean and the pages
        fall with the process."""
        for seg in self._owned.values():
            try:
                seg.close()
            except (BufferError, OSError):  # pragma: no cover - exports
                pass
            try:
                _shm_call(seg.unlink)
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._owned.clear()
        self._free.clear()
        self._retired.clear()
        self._channels.clear()
        self._storage.clear()


class SegmentCache:
    """Receiver-side name -> attached ``SharedMemory`` mapping cache.

    Warm pooled segments recur under the same name (the owner recycles
    them), so after the first attach a zero-copy receive is just an
    ndarray view construction — no syscalls at all."""

    def __init__(self, stats=None):
        self._segs: dict[str, object] = {}
        self.stats = stats

    def attach(self, name: str):
        from multiprocessing import shared_memory

        seg = self._segs.get(name)
        if seg is None:
            seg = _shm_call(shared_memory.SharedMemory, name=name)
            self._segs[name] = seg
        return seg

    def close(self) -> None:
        for seg in self._segs.values():
            try:
                seg.close()
            except (BufferError, OSError):  # pragma: no cover - exports
                pass
        self._segs.clear()


def _slab_view(obj: ShmSlab, seg) -> np.ndarray:
    """Read-only ndarray over ``seg`` as described by the slab ref."""
    dt = np.dtype(obj.dtype)
    count = 1
    for d in obj.shape:
        count *= d
    arr = np.frombuffer(seg.buf, dtype=dt, count=count, offset=obj.offset)
    arr.setflags(write=False)
    return arr.reshape(obj.shape)


def _slab_eligible(obj, threshold: int) -> bool:
    """The one rule for which values ride shared memory (asked both by the
    in-band pass's scanner and by the tree walk): a non-object ndarray of
    at least ``threshold`` bytes."""
    return isinstance(obj, np.ndarray) and obj.dtype != object \
        and obj.nbytes >= threshold


def _pack_tree(obj, arena: ShmArena, threshold: int, live_ok: bool,
               _depth: int = 0):
    """The slab walk: replace slab-eligible ndarrays reachable from
    ``obj`` through tuples, lists and dicts (to depth ``_PACK_DEPTH``)
    with :class:`ShmSlab` references into ``arena`` — a copy in a pooled
    (warm, owner-reclaimed) segment, or, when ``live_ok`` and the array is
    recognised as container storage, a reference straight into that
    storage.  Everything else is passed through by reference."""
    if _slab_eligible(obj, threshold):
        if live_ok:
            live = arena.find_live(obj)
            if live is not None:
                name, off = live
                if arena.stats is not None:
                    arena.stats.live_storage_refs += 1
                return ShmSlab(name, obj.shape, str(obj.dtype), offset=off)
        seg, cls = arena.alloc(obj.nbytes)
        np.ndarray(obj.shape, dtype=obj.dtype, buffer=seg.buf)[...] = obj
        ref = ShmSlab(seg.name, obj.shape, str(obj.dtype))
        arena.retire(seg, cls)
        return ref
    if _depth >= _PACK_DEPTH:
        return obj
    if isinstance(obj, tuple):
        return tuple(_pack_tree(o, arena, threshold, live_ok, _depth + 1)
                     for o in obj)
    if isinstance(obj, list):
        return [_pack_tree(o, arena, threshold, live_ok, _depth + 1)
                for o in obj]
    if isinstance(obj, dict):
        return {k: _pack_tree(v, arena, threshold, live_ok, _depth + 1)
                for k, v in obj.items()}
    return obj


def _unpack_tree(obj, cache: SegmentCache | None, _depth: int = 0):
    """Inverse of :func:`_pack_tree`.  Slab segments are owner-managed:
    with a :class:`SegmentCache` the receiver maps the segment (cached per
    name) and returns a read-only zero-copy view; without one (standalone
    use) the bytes are copied out and the mapping dropped.  The segment is
    never unlinked here."""
    if isinstance(obj, ShmSlab):
        if cache is not None:
            if cache.stats is not None:
                cache.stats.zero_copy_slab_views += 1
            return _slab_view(obj, cache.attach(obj.name))
        from multiprocessing import shared_memory

        seg = _shm_call(shared_memory.SharedMemory, name=obj.name)
        arr = _slab_view(obj, seg).copy()
        try:
            seg.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        return arr
    if _depth >= _PACK_DEPTH:
        return obj
    if isinstance(obj, tuple):
        return tuple(_unpack_tree(o, cache, _depth + 1) for o in obj)
    if isinstance(obj, list):
        return [_unpack_tree(o, cache, _depth + 1) for o in obj]
    if isinstance(obj, dict):
        return {k: _unpack_tree(v, cache, _depth + 1) for k, v in obj.items()}
    return obj


# ---------------------------------------------------------------------------
# Wire serialization
#
# The simulated oracle passes *closures* in RMI arguments (SSSP's visitor
# factories, p_generate's per-gid lambdas, Paragraph task bodies) — in one
# address space that is free.  Crossing a process boundary needs two things
# plain pickle cannot do:
#
# * nested/lambda functions serialize by value: code object (marshal) plus
#   captured cell contents, rebuilt against the defining module's globals
#   on the receiving side.  Cell contents are filled through the reduce
#   state setter, so mutually recursive closures (SSSP's expand <-> visit)
#   survive the round trip.
# * a captured runtime/location resolves to the *receiver's* runtime: every
#   closure written against the simulator uses ``rt.current_location`` /
#   ``rt.lookup(handle, ...)`` idioms, and the only correct meaning on
#   another process is that process's own runtime.  The wire pickler —
#   the one place this is decided — reduces any runtime or location to a
#   per-process sentinel.
#
# Messages are serialized *at the send site*, not by the queue's feeder
# thread: an unserializable payload raises in the sender's stack with a
# real traceback instead of hanging the run from a daemon thread.
#
# Each wire item — envelope and payload together — is serialized exactly
# once (`pack_payload`, called by `MpRuntime._put`) and deserialized once
# (`unpack_payload`, in `MpRuntime._next_item`).  That one pickle pass is
# also the scan for slab-eligible ndarrays: the C pickler calls
# ``reducer_override`` only for non-builtin objects, so a flush of a
# thousand (handle, method, args) records costs no Python at all, and the
# pass aborts at the first eligible ndarray it meets.  Only then does the
# tree walk (`_pack_tree`) run and the walked tree travel behind a flag
# byte.  The envelope holds no arrays, so the walk moves exactly the
# arrays of the payload; the exchange's multicast packs its item once and
# puts the same bytes on every member's queue.  `wire_dumps` serializes
# only the launch blob of a non-fork start.
# ---------------------------------------------------------------------------

#: the process's active runtime, installed by ``_worker_main`` — the anchor
#: every deserialized runtime/location reference resolves to
_CURRENT_RUNTIME: "MpRuntime | None" = None


def _resolve_runtime() -> "MpRuntime":
    if _CURRENT_RUNTIME is None:
        raise SpmdError("no multiprocessing runtime active in this process")
    return _CURRENT_RUNTIME


def _rebuild_fn(code_bytes: bytes, modname: str, qualname: str, nfree: int):
    code = marshal.loads(code_bytes)
    mod = sys.modules.get(modname)
    if mod is None:
        # fork inherits sys.modules; a spawn worker starts fresh and must
        # import the defining module to recover its globals
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            raise SpmdError(
                f"cannot rebuild function {qualname}: defining module "
                f"{modname!r} not importable in this process") from None
    closure = tuple(types.CellType() for _ in range(nfree)) or None
    fn = types.FunctionType(code, mod.__dict__, code.co_name, None, closure)
    fn.__qualname__ = qualname
    return fn


def _set_fn_state(fn, state):
    defaults, kwdefaults, cellvals = state
    fn.__defaults__ = defaults
    fn.__kwdefaults__ = kwdefaults
    if cellvals is not None:
        for cell, value in zip(fn.__closure__, cellvals):
            cell.cell_contents = value


def _lookup_qualname(obj) -> bool:
    """Is ``obj`` reachable as module.qualname (i.e. plain pickle works)?"""
    mod = sys.modules.get(getattr(obj, "__module__", None))
    if mod is None:
        return False
    found = mod
    try:
        for part in obj.__qualname__.split("."):
            found = getattr(found, part)
    except AttributeError:
        return False
    return found is obj


class _WirePickler(pickle.Pickler):
    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType) and not _lookup_qualname(obj):
            closure = obj.__closure__ or ()
            cellvals = tuple(c.cell_contents for c in closure)
            return (_rebuild_fn,
                    (marshal.dumps(obj.__code__), obj.__module__,
                     obj.__qualname__, len(closure)),
                    (obj.__defaults__, obj.__kwdefaults__,
                     cellvals if closure else None),
                    None, None, _set_fn_state)
        # a captured runtime means "that of whatever process executes
        # this", a captured location that runtime's own
        if isinstance(obj, (BackendRuntime, Location)):
            if isinstance(obj, Location):
                return (getattr, (obj.runtime, "loc"))
            return (_resolve_runtime, ())
        return NotImplemented


def wire_dumps(obj) -> bytes:
    """Serialize one wire item (closure-capable, runtime-reference-safe)."""
    buf = io.BytesIO()
    _WirePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def wire_loads(data: bytes):
    return pickle.loads(data)


class _SlabEligible(Exception):
    """Raised out of the in-band pass at the first slab-eligible ndarray."""


class _ScanPickler(_WirePickler):
    """The wire pickler doubling as :func:`pack_payload`'s scanner."""

    def __init__(self, buf, threshold: int):
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self.threshold = threshold

    def reducer_override(self, obj):
        if _slab_eligible(obj, self.threshold):
            raise _SlabEligible
        return super().reducer_override(obj)


#: first byte of a packed payload whose tree was walked (ShmSlab refs
#: inside); an in-band payload is a bare pickle, which starts with the
#: PROTO opcode ``\x80``
_WALKED = b"\x00"


def pack_payload(obj, arena: ShmArena, threshold: int = SHM_SLAB_THRESHOLD,
                 live_ok: bool = False) -> bytes:
    """Serialize one payload for the wire, once.  A payload in which the
    pickle pass meets no slab-eligible ndarray (:func:`_slab_eligible`) is
    just its pickle.  Otherwise the slab walk (:func:`_pack_tree`) moves
    the eligible arrays *reachable through tuples, lists and dicts* into
    shared memory and the walked tree is pickled behind the ``_WALKED``
    flag byte.  An eligible array the pickler meets anywhere else — a
    closure cell, an object attribute — triggers the walk but is not
    moved: it travels by value, as it always has, because a zero-copy view
    of it would die at the sender's next fence.

    ``live_ok`` must only be set for synchronous replies, and is sound
    under the collectives' epoch discipline: a range read remotely within
    an epoch is not written until after the separating fence, so the
    requester dereferences the view before the owner's next write to it.
    A consumer that holds the view across protocol events without an
    intervening fence must snapshot it (``OverlapView.materialize``
    does)."""
    buf = io.BytesIO()
    try:
        _ScanPickler(buf, threshold).dump(obj)
        return buf.getvalue()
    except _SlabEligible:
        pass
    buf = io.BytesIO()
    buf.write(_WALKED)
    _WirePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(
        _pack_tree(obj, arena, threshold, live_ok))
    return buf.getvalue()


def unpack_payload(packed: bytes, cache: SegmentCache | None = None):
    """Inverse of :func:`pack_payload`: one ``pickle.loads``, plus the
    slab walk back (:func:`_unpack_tree`) for flagged payloads only."""
    if packed.startswith(_WALKED):
        return _unpack_tree(pickle.loads(memoryview(packed)[1:]), cache)
    return pickle.loads(packed)


class MpRuntime(BackendRuntime):
    """The multiprocessing backend, one per process: one local location,
    a queue to every peer, a shared-memory arena for slabs.  Representative
    lookup is local-only — there is no shared address space to reach
    across.
    """

    def __init__(self, lid: int, nlocs: int, machine, placement: str,
                 queues, run_id: str, config: RuntimeConfig,
                 op_timeout: float = _OP_TIMEOUT):
        super().__init__(nlocs, machine, placement, config)
        self.lid = lid
        self.op_timeout = op_timeout
        self.run_id = run_id
        self._queues = queues
        self._selfq: deque = deque()
        self.loc = self._running = Location(self, lid)
        self.arena = ShmArena(self._new_shm_name, stats=self.loc.stats)
        self.seg_cache = SegmentCache(stats=self.loc.stats)
        # request counts: totals, per-peer splits for ``fence`` — a fence
        # over a subgroup must count only traffic among its members, or a
        # member's sends to outside locations (whose executions the group
        # gather never sees) keep it from quiescing forever — and
        # per-origin splits for the peers' ``os_fence`` waves
        self.req_sent = 0
        self.req_executed = 0
        self.sent_to = [0] * nlocs
        self.exec_from = [0] * nlocs
        self.origin_sent = [0] * nlocs
        self.origin_executed = [0] * nlocs
        self._os_waves = 0
        self._futures: dict[int, Future] = {}
        self._next_token = 0
        self._shm_count = 0
        #: parked exchange payloads and os_fence answers:
        #: (group.key, seq) or ("os_fence", wave) -> {src: (op, payload)}
        self._slab_inbox: dict = {}
        #: bulk rounds opened per (tag, group.key): the arena channel's seq
        self._bulk_seq: dict = {}
        self._stopped = False

    # -- registry ----------------------------------------------------------
    def registration_handle(self, group: LocationGroup, seq: int):
        """RMI handle of ``group``'s ``seq``-th registration.  Group-scoped,
        so every member derives it without communication and disjoint
        subgroups registering concurrently (sibling nested sections) cannot
        desynchronise each other's handle spaces."""
        return (group.key, seq)

    def lookup(self, handle, lid: int):
        if lid != self.lid:
            raise SpmdError(
                f"location {self.lid}: cross-location representative access "
                f"(handle {handle} on location {lid}) — the multiprocessing "
                "backend has no shared address space")
        return super().lookup(handle, lid)

    # -- wire helpers ------------------------------------------------------
    def _new_shm_name(self) -> str:
        self._shm_count += 1
        return f"rs{self.run_id}_{self.lid}_{self._shm_count}"

    def _put(self, dest: int, item, live_ok: bool = False) -> None:
        if dest == self.lid:
            # self-sends bypass the queue: synchronously visible, so a
            # singleton fence can drain to true quiescence.  Never pickled
            # (closures and object identity arrive by reference), their
            # slab-eligible arrays still snapshot into the arena
            self._selfq.append(
                _pack_tree(item, self.arena, SHM_SLAB_THRESHOLD, live_ok))
        else:
            # serialize here, in the sender's stack — not in the queue's
            # feeder thread, whose pickle failures would hang the run
            self._queues[dest].put(
                pack_payload(item, self.arena, live_ok=live_ok))

    # -- point-to-point primitives -------------------------------------------
    def post(self, msg: Message) -> bool:
        """Eager: the request goes to the destination process now; nothing
        buffers sender-side, and every request is its own queue item."""
        # serialize and post first, count after: a payload that fails to
        # serialize raises here, in the caller's stack, before any fence
        # counter or token has moved.  (Nothing can run in between: this
        # process services incoming traffic only from its own blocking
        # waits.)  A token request's reply resolves the future; it
        # executes, and counts, under its sender's origin.
        token = None if msg.future is None else self._next_token + 1
        origin = msg.origin if token is None else msg.src
        self._put(msg.dst, ("req", msg.src, origin, token, msg.handle,
                            msg.method, msg.args))
        if token is not None:
            self._next_token = token
            self._futures[token] = msg.future
        self.req_sent += 1
        self.sent_to[msg.dst] += 1
        self.origin_sent[origin] += 1
        return True

    def round_trip(self, loc: Location, dest: int, handle, method: str, args,
                   header: int):
        """A token request, then service until the reply; a self-targeted
        one runs inline after the pending self-sends."""
        if dest == self.lid:
            self.progress(loc)
            loc.clock += self.machine.o_send + self.machine.o_recv
            return self._run_handler(loc, handle, method, args, self.lid)
        fut = loc._send(dest, handle, method, args,
                        header + estimate_size(args), self.lid, reply=True)
        loc.stats.physical_messages += 1  # the reply
        self._service_until(lambda: fut.ready,
                            f"reply from location {dest} ({method})")
        return fut.value

    # -- handler execution -------------------------------------------------
    def _execute(self, item) -> None:
        _, src, origin, token, handle, method, args = item
        result = self._run_handler(self.loc, handle, method, args, origin)
        # counted only once the handler has returned: a wave that meets a
        # handler mid-flight (say, blocked in a sync RMI) must not take
        # the requests it has yet to forward for quiescence
        self.req_executed += 1
        self.exec_from[src] += 1
        self.origin_executed[origin] += 1
        if token is not None:
            # replies may ship live-storage references: under the epoch
            # discipline a remotely-read range is not written again until
            # the next fence, which the blocked requester reaches only
            # after dereferencing (holders without a fence snapshot — see
            # pack_payload)
            self._put(src, ("reply", token, result), live_ok=True)

    # -- service engine ----------------------------------------------------
    def _next_item(self, block: bool, timeout: float):
        if self._selfq:
            return _unpack_tree(self._selfq.popleft(), self.seg_cache)
        try:
            if block:
                item = self._queues[self.lid].get(timeout=timeout)
            else:
                item = self._queues[self.lid].get_nowait()
        except queue_mod.Empty:
            return None
        return unpack_payload(item, self.seg_cache)

    def _service_one(self, block: bool = False, timeout: float = 0.02):
        """Receive and process one incoming item; returns its kind, or
        None if nothing arrived.  This is the single progress point every
        blocking wait spins on — requests execute here, so two locations
        blocked on each other always make progress."""
        item = self._next_item(block, timeout)
        if item is None:
            return None
        kind = item[0]
        if kind == "req":
            self._execute(item)
        elif kind == "reply":
            _, token, result = item
            self._futures.pop(token)._resolve(result, 0.0)
        elif kind == "slab":
            _, key, src, op, payload = item
            self._slab_inbox.setdefault(key, {})[src] = (op, payload)
        elif kind == "os_fence":
            # a peer's os_fence wave: answer with the counts of the
            # requests it originated, into its exchange inbox
            _, origin, key = item
            self._put(origin, ("slab", key, self.lid, "os_fence",
                               (self.origin_sent[origin],
                                self.origin_executed[origin])))
        elif kind == "stop":
            self._stopped = True
        return kind

    def _raise_if_stopped(self, desc: str) -> None:
        if self._stopped:
            raise SpmdError(
                f"location {self.lid}: run aborted while waiting for "
                f"{desc} (another location failed or the run was stopped)")

    def _service_until(self, cond, desc: str, timeout: float | None = None):
        deadline = time.monotonic() + (timeout or self.op_timeout)
        while not cond():
            self._raise_if_stopped(desc)
            if self._service_one(block=True, timeout=0.02) is not None:
                continue
            if time.monotonic() > deadline:
                raise SpmdError(
                    f"location {self.lid}: timed out after "
                    f"{timeout or self.op_timeout:.0f}s waiting for {desc} "
                    "— likely deadlock (mismatched collectives, a lost "
                    "peer, or a dependence cycle)")

    # -- progress primitives -------------------------------------------------
    def progress(self, loc: Location, src: int | None = None,
                 one: bool = False) -> int:
        """Everything receivable is deliverable, whatever its source:
        service it all (returning the requests executed), or — ``one`` —
        a single item of any kind."""
        if one:
            return int(self._service_one() is not None)
        before = self.req_executed
        while self._service_one() is not None:
            pass
        return self.req_executed - before

    def wait(self, future: Future) -> None:
        self._service_until(lambda: future.ready,
                            f"reply from location {future._dst}")

    def yield_(self, loc: Location) -> int:
        """With nothing receivable, block briefly for an incoming message:
        the analogue of handing the baton to the conductor."""
        n = self.progress(loc)
        if n == 0 and self._service_one(block=True, timeout=_YIELD_TIMEOUT):
            n = 1
        # a blocked Paragraph polls here, not in _service_until: without
        # this check it would sit out the stall patience after the parent
        # stopped the run
        self._raise_if_stopped("a task-graph dependence")
        return n

    @contextlib.contextmanager
    def bulk_round(self, loc: Location, tag: str, group: LocationGroup,
                   messages: list):
        """No clock model; the round's segments retire into its arena
        channel, so they recycle two rounds later instead of at the next
        world fence: completing round seq-1 proved every peer consumed
        round seq-2."""
        seq = self._bulk_seq.get((tag, group.key), 0)
        self._bulk_seq[(tag, group.key)] = seq + 1
        self.arena.begin_channel((tag, group.key), seq)
        try:
            yield
        finally:
            self.arena.end_channel()

    # -- the task-graph executor's deadlock detection ------------------------
    def group_progress(self, members) -> int:
        """The local view: requests executed here *from the group's
        members* plus local tasks run.  A blocked subgroup executor
        observes progress exactly when member traffic arrives — chatter
        from outside locations cannot mask a stuck sub-team."""
        return (sum(self.exec_from[m] for m in members)
                + self.loc.stats.tasks_executed)

    def stall_limit(self, group_size: int | None = None) -> int:
        """Wall-clock patience: the same window whatever the group."""
        return max(16, int(_STALL_PATIENCE / _YIELD_TIMEOUT))

    # -- the collective primitives + the one-sided fence --------------------
    def exchange(self, loc: Location, op: str, payload, group: LocationGroup,
                 personalised: bool) -> dict:
        """Eager point-to-point sends (shared-memory backed, an item bound
        for several members packed once) and a parked inbox keyed by the
        group's exchange count: no coordinator, one queue hop per
        member."""
        loc.clock += self.machine.collective_cost(len(group))
        seq = loc._coll_seq.get(group.key, 0)
        loc._coll_seq[group.key] = seq + 1
        key = (group.key, seq)
        mine = payload[group.index_of(self.lid)] if personalised else payload
        packed = None
        for rank, member in enumerate(group.members):
            if member == self.lid:
                continue
            if personalised or packed is None:
                piece = payload[rank] if personalised else payload
                packed = pack_payload(("slab", key, self.lid, op, piece),
                                      self.arena)
            self._queues[member].put(packed)
        # a bulk round's arena channel covers the packs above only: what
        # handlers pack while this location waits retires into the epoch
        self.arena.end_channel()
        self._service_until(
            lambda: len(self._slab_inbox.get(key, ())) == len(group) - 1,
            f"collective '{op}' on {group}")
        arrived = {self.lid: mine}
        box = self._slab_inbox.pop(key, {})
        for member, (their_op, value) in box.items():
            if their_op != op:
                raise SpmdError(
                    f"collective mismatch on {group}: location {self.lid} "
                    f"called '{op}' but location {member} called "
                    f"'{their_op}'")
            arrived[member] = value
        return arrived

    def _count_waves(self, loc: Location, wave, desc: str) -> None:
        """The counting rule both fences share (Mattern's four counters):
        drain, then let ``wave()`` total (requests sent, requests executed)
        over the processes it covers; done once two consecutive waves are
        equal and unchanged.  The second wave starts after the first has
        ended, so together they certify that nothing was in flight, and no
        handler mid-flight, past anyone's first count."""
        deadline = time.monotonic() + self.op_timeout
        prev = None
        while True:
            self.progress(loc)
            counts = wave()
            if counts[0] == counts[1] and counts == prev:
                return
            prev = counts
            if time.monotonic() > deadline:
                raise SpmdError(
                    f"location {self.lid}: {desc} never quiesced "
                    f"(sent={counts[0]}, executed={counts[1]}) — likely "
                    "deadlock")

    def fence(self, loc: Location, group: LocationGroup) -> None:
        """Counting fence: flush combining buffers (directly — coalescing
        through a node leader would be a real extra hop between processes),
        then count waves (:meth:`_count_waves`), each one an exchange of
        (sent, executed) snapshots over the group.

        Counting is per-peer and restricted to the group: each member
        contributes its sends *to members* and executions *from members*.
        A subgroup fence therefore quiesces exactly the traffic among the
        sub-team — a member's sends to outside locations (whose execution
        counters the group exchange never sees) cannot stall it, and
        non-member locations are never blocked or drained by it."""
        loc.flush_combining()
        if len(group) == 1:
            # every pass ends with the self-queue empty
            while self.progress(loc):
                pass
            if self.nlocs == 1:
                self.arena.advance_epoch()
            return

        def wave():
            snap = (sum(self.sent_to[m] for m in group.members),
                    sum(self.exec_from[m] for m in group.members))
            arrived = self.exchange(loc, "fence", snap, group, False)
            return tuple(map(sum, zip(*arrived.values())))

        self._count_waves(loc, wave, "fence")
        # world quiescence: every receiver-side zero-copy view is dropped
        # (the validity contract), so retired segments recycle.  Subgroup
        # fences prove nothing about outside receivers, so only a world
        # fence advances the epoch.
        if len(group) == self.nlocs:
            self.arena.advance_epoch()

    def os_fence(self, loc: Location) -> None:
        """One-sided fence: count waves (:meth:`_count_waves`) over the
        requests ``loc`` originated, each one polling every peer for its
        (sent, executed) counts under that origin.  Only the caller pays;
        the peers answer from whatever wait they are in."""
        loc.flush_combining()
        me = self.lid

        def wave():
            self._os_waves += 1
            key = ("os_fence", self._os_waves)
            for peer in range(self.nlocs):
                if peer != me:
                    self._put(peer, ("os_fence", me, key))
            self._service_until(
                lambda: len(self._slab_inbox.get(key, ())) == self.nlocs - 1,
                "os_fence counts from every peer")
            counts = [c for _, c in self._slab_inbox.pop(key, {}).values()]
            counts.append((self.origin_sent[me], self.origin_executed[me]))
            return tuple(map(sum, zip(*counts)))

        self._count_waves(loc, wave, "os_fence")


# ---------------------------------------------------------------------------
# Process orchestration
# ---------------------------------------------------------------------------


def _worker_main(lid, nlocs, machine, placement, queues, result_q, fn, args,
                 config, run_id, op_timeout):
    global _CURRENT_RUNTIME
    rt = MpRuntime(lid, nlocs, machine, placement, queues, run_id, config,
                   op_timeout=op_timeout)
    _CURRENT_RUNTIME = rt
    # numpy bContainer storage allocates inside the arena, so bulk replies
    # can ship references into live storage
    from ..core.base_containers import set_storage_allocator
    set_storage_allocator(rt.arena.storage_alloc)
    if isinstance(fn, bytes):
        # non-fork start methods ship (fn, args) as a wire blob (closure-
        # capable); decode after the runtime is installed so captured
        # runtime/location references re-anchor to this process
        fn, args = wire_loads(fn)
    t0 = time.perf_counter()
    result, err = None, None
    try:
        result = fn(rt.loc, *args)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        err = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    wall = time.perf_counter() - t0
    try:
        pickle.dumps(result)
    except Exception as exc:
        result, err = None, (f"location {lid} returned an unpicklable "
                             f"result: {exc}")
    try:
        result_q.put((lid, result, err, rt.loc.stats, rt.loc.clock, wall))
    except Exception as exc:  # pragma: no cover - defensive
        result_q.put((lid, None, f"result delivery failed: {exc}",
                      rt.loc.stats, rt.loc.clock, wall))
    # keep servicing peers (sync requests, forwarded asyncs) until the
    # parent has collected every result: a location must not vanish while
    # stragglers still depend on it
    deadline = time.monotonic() + op_timeout
    try:
        while not rt._stopped and time.monotonic() < deadline:
            rt._service_one(block=True, timeout=0.05)
    finally:
        # receiver mappings first (they may pin peer segments), then the
        # owned segments: /dev/shm must be clean when this process exits
        rt.seg_cache.close()
        rt.arena.dispose()


def _cleanup_shm(run_id: str) -> None:
    for path in glob.glob(f"/dev/shm/rs{run_id}_*"):
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced with a reader
            pass


def mp_spmd_run_detailed(fn, nlocs: int, machine, args: tuple,
                         placement: str, config: RuntimeConfig,
                         timeout: float | None = None,
                         op_timeout: float | None = None,
                         start_method: str = "fork") -> SpmdReport:
    """Run ``fn(ctx, *args)`` with one OS process per location (reached
    through ``spmd_run(..., backend="multiprocessing")``).

    ``timeout`` caps the whole run's wall clock (default 300 s): on expiry
    every worker is terminated and an :class:`SpmdError` is raised — a
    deadlocked fence fails fast instead of hanging the runner.
    ``op_timeout`` caps each worker-side blocking wait (default 60 s).

    ``start_method`` selects how workers launch.  ``"fork"`` (default)
    inherits the parent image and supports arbitrary local functions.
    ``"spawn"`` (the macOS/Windows default) starts fresh interpreters:
    ``(fn, args)`` travels as a wire blob, so ``fn``'s defining module
    must be importable in the child.
    """
    if nlocs < 1:
        raise ValueError("need at least one location")
    if start_method not in multiprocessing.get_all_start_methods():
        raise SpmdError(
            f"start method {start_method!r} unavailable on this platform "
            f"(have {multiprocessing.get_all_start_methods()}); use the "
            "simulated backend or another start method")
    ctx = multiprocessing.get_context(start_method)
    run_timeout = timeout if timeout is not None else _RUN_TIMEOUT
    worker_timeout = op_timeout if op_timeout is not None else \
        min(_OP_TIMEOUT, run_timeout)
    run_id = uuid.uuid4().hex[:8]
    queues = [ctx.Queue() for _ in range(nlocs)]
    result_q = ctx.Queue()
    if start_method == "fork":
        # fork never pickles fn/args: unpicklable-but-marshalable locals
        # keep working exactly as before
        fn_payload, args_payload = fn, args
    else:
        fn_payload, args_payload = wire_dumps((fn, args)), ()
    procs = []
    for lid in range(nlocs):
        p = ctx.Process(
            target=_worker_main,
            args=(lid, nlocs, machine, placement, queues, result_q,
                  fn_payload, args_payload, config, run_id,
                  worker_timeout),
            name=f"repro-loc-{lid}", daemon=True)
        procs.append(p)
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    collected: dict[int, tuple] = {}
    stop_sent = False

    def _stop_all():
        nonlocal stop_sent
        if not stop_sent:
            for q in queues:
                try:
                    q.put(pickle.dumps(("stop",)))  # a packed item
                except Exception:  # pragma: no cover - defensive
                    pass
            stop_sent = True

    try:
        deadline = time.monotonic() + run_timeout
        while len(collected) < nlocs:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = sorted(set(range(nlocs)) - set(collected))
                raise SpmdError(
                    f"multiprocessing run exceeded {run_timeout:.0f}s; "
                    f"locations {missing} never returned — deadlock or "
                    "worker crash")
            try:
                item = result_q.get(timeout=min(0.2, remaining))
            except queue_mod.Empty:
                dead = [p for p in procs if not p.is_alive()
                        and procs.index(p) not in collected]
                if dead:
                    missing = sorted(set(range(nlocs)) - set(collected))
                    raise SpmdError(
                        f"worker process(es) for locations {missing} died "
                        "without reporting a result")
                continue
            collected[item[0]] = item
            if item[2] is not None:
                # first failure: unblock the other workers so they report
                # promptly instead of waiting out their op timeouts
                _stop_all()
    finally:
        _stop_all()
        grace = time.monotonic() + 5.0
        for p in procs:
            p.join(timeout=max(0.1, grace - time.monotonic()))
        for p in procs:
            if p.is_alive():  # pragma: no cover - stuck worker
                p.terminate()
                p.join(timeout=5.0)
        for q in [*queues, result_q]:
            q.cancel_join_thread()
            q.close()
        _cleanup_shm(run_id)
    wall = time.perf_counter() - t0
    # arrival order: the first failure reported is the root cause, later
    # ones are usually its consequences
    errors = [(lid, err) for lid, _, err, _, _, _ in collected.values()
              if err is not None]
    if errors:
        primary = next((e for e in errors if "run aborted while" not in e[1]),
                       errors[0])
        raise SpmdError(
            f"location {primary[0]} failed under the multiprocessing "
            f"backend: {primary[1]}")
    ordered = [collected[lid] for lid in range(nlocs)]
    return SpmdReport(
        [res for _, res, _, _, _, _ in ordered],
        clocks=[clock for _, _, _, _, clock, _ in ordered],
        stats=RunStats([st for _, _, _, st, _, _ in ordered]),
        wall_seconds=wall,
        backend="multiprocessing")


__all__ = ["MpRuntime", "SegmentCache", "ShmArena", "ShmSlab",
           "mp_spmd_run_detailed", "pack_payload", "unpack_payload"]
