"""Messages, FIFO channels and aggregation for the simulated ARMI layer.

The RTS guarantee reproduced here (Ch. III.B): *requests from a location to
another location are executed in order of invocation at the source*.  Each
(src, dst) pair owns one FIFO channel.  Async RMIs are buffered in the
channel and executed when the channel is flushed (by a fence, a poll, a
``Future.get`` or a sync RMI to the same destination) — exactly the
completion guarantees of Ch. VII.B.

Aggregation (Ch. III.B "major techniques used are aggregation ... and
combining") is modelled by charging the fixed physical-message overhead only
once per ``machine.aggregation`` RMIs enqueued on a channel.

Bulk transport: a :class:`Message` flagged ``bulk=True`` carries a whole
element range (a slab) as its payload.  It always occupies a physical
message of its own — it is never merged into the scalar aggregation window,
and it closes the window so the next scalar RMI starts a fresh physical
message.  Payload bytes are charged exactly once per (src, dst) slab.

Combining (the second Ch. III.B technique) is modelled by the
per-destination *combining buffers* owned by each
:class:`~.scheduler.Location`: asynchronous operation records
(insert / set / accumulate / erase and friends, each tagged with its
p_object handle) are appended locally and shipped as one bulk message when
the buffer reaches the combining window, at a fence, before any other RMI
to the same destination (source-FIFO order), or on an explicit
``flush_combining()``.  One buffer per channel — like ARMI's aggregation
buffers — keeps issue order across p_objects intact.
``RuntimeConfig(combining=False)`` turns the path off for a run so the
evaluation can assert batched == scalar results head-to-head.
"""

from __future__ import annotations

from itertools import islice
from collections import deque

import numpy as np

_SCALAR_SIZE = 8
_DEFAULT_SIZE = 64

#: op records a combining buffer holds before it flushes as one physical
#: message
COMBINING_WINDOW = 1024


def estimate_size(obj, _depth: int = 0) -> int:
    """Cheap, deterministic wire-size estimate (bytes) for RMI arguments.

    This stands in for the ``define_type``/typer marshaling machinery of the
    C++ RTS: it only needs to be consistent, so the bandwidth term of the
    cost model scales with payload size.
    """
    if obj is None or isinstance(obj, (bool, int, float)):
        return _SCALAR_SIZE
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        # numpy scalars (values originating from numpy-backed storage) are
        # 8-byte payloads, not opaque 64-byte objects
        return _SCALAR_SIZE
    if isinstance(obj, (str, bytes, bytearray)):
        return 16 + len(obj)
    if isinstance(obj, np.ndarray):
        return 64 + int(obj.nbytes)
    if _depth >= 3:
        return _DEFAULT_SIZE
    if isinstance(obj, (tuple, list)):
        n = len(obj)
        if n == 0:
            return 16
        if n > 64:
            sample = sum(estimate_size(x, _depth + 1) for x in obj[:16])
            return 16 + (sample * n) // 16
        return 16 + sum(estimate_size(x, _depth + 1) for x in obj)
    if isinstance(obj, dict):
        n = len(obj)
        if n == 0:
            return 16
        # sample at most 16 items without materialising the whole item list
        # (huge dicts), and scale by the number actually sampled — dividing
        # by a fixed 16 under-charged dicts with fewer than 16 entries
        items = list(islice(obj.items(), 16))
        sample = sum(
            estimate_size(k, _depth + 1) + estimate_size(v, _depth + 1)
            for k, v in items
        )
        return 16 + (sample * n) // len(items)
    vt = getattr(obj, "_vt_size_", None)
    if vt is not None:
        return int(vt() if callable(vt) else vt)
    return _DEFAULT_SIZE


class Message:
    """One buffered RMI request (scalar, or a bulk element slab)."""

    __slots__ = ("src", "dst", "handle", "method", "args", "size", "depart",
                 "origin", "future", "bulk")

    def __init__(self, src, dst, handle, method, args, size, depart, origin,
                 future=None, bulk=False):
        self.src = src
        self.dst = dst
        self.handle = handle
        self.method = method
        self.args = args
        self.size = size
        self.depart = depart
        self.origin = origin
        self.future = future
        self.bulk = bulk

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Message({self.src}->{self.dst} h{self.handle}."
                f"{self.method} size={self.size})")


class Network:
    """The simulator's transport: all (src, dst) FIFO channels plus
    aggregation bookkeeping, buffered in one address space and drained by
    the progress engines of :class:`~.scheduler.Runtime`, whose ``post``
    primitive is :meth:`enqueue`.

    Fence polling calls :meth:`pending_to` / :meth:`pending_among` on every
    progress step, so those queries must not rescan all P^2 potential
    channels.  Channels are indexed per *destination* at creation time
    (``_by_dst``) together with a per-destination count of non-empty
    channels (``_nonempty``): a query touches only the destinations asked
    about, scanning at most P channels each, and short-circuits to nothing
    when the destination has no traffic at all.  Entries carry their global
    creation sequence number so ``pending_among`` still enumerates channels
    in exactly the order the un-indexed scan did (drain order is part of the
    deterministic simulation)."""

    def __init__(self, nlocs: int, aggregation: int):
        self.nlocs = nlocs
        self.aggregation = max(1, aggregation)
        self._channels: dict[tuple[int, int], deque] = {}
        self._agg_fill: dict[tuple[int, int], int] = {}
        #: dst -> [(creation_seq, src, chan), ...] in creation order
        self._by_dst: dict[int, list] = {}
        #: dst -> number of currently non-empty channels
        self._nonempty: dict[int, int] = {}
        self.total_pending = 0

    # -- sending -------------------------------------------------------
    def enqueue(self, msg: Message) -> bool:
        """Buffer ``msg``; returns True if a new physical message started
        (i.e. the fixed message overhead must be charged to the sender).

        Bulk messages always occupy their own physical message and close the
        current aggregation window."""
        key = (msg.src, msg.dst)
        chan = self._channels.get(key)
        if chan is None:
            chan = self._channels[key] = deque()
            self._by_dst.setdefault(msg.dst, []).append(
                (len(self._channels), msg.src, chan))
        if not chan:
            self._nonempty[msg.dst] = self._nonempty.get(msg.dst, 0) + 1
        chan.append(msg)
        self.total_pending += 1
        if msg.bulk:
            self._agg_fill[key] = 0
            return True
        fill = self._agg_fill.get(key, 0)
        new_message = fill == 0
        self._agg_fill[key] = (fill + 1) % self.aggregation
        return new_message

    # -- inspection ----------------------------------------------------
    def channel(self, src: int, dst: int) -> deque:
        return self._channels.get((src, dst), _EMPTY)

    def pending_to(self, dst: int) -> list[tuple[int, deque]]:
        if not self._nonempty.get(dst):
            return []
        return [(s, c) for _, s, c in self._by_dst[dst] if c]

    def pending_among(self, members) -> list[deque]:
        ms = members if isinstance(members, (set, frozenset)) else set(members)
        hits = []
        for d in ms:
            if self._nonempty.get(d):
                hits.extend(e for e in self._by_dst[d] if e[2] and e[1] in ms)
        hits.sort(key=lambda e: e[0])
        return [c for _, _, c in hits]

    def pop(self, src: int, dst: int) -> Message | None:
        chan = self._channels.get((src, dst))
        if not chan:
            return None
        self.total_pending -= 1
        msg = chan.popleft()
        if not chan:
            self._agg_fill[(src, dst)] = 0
            self._nonempty[dst] -= 1
        return msg

    def has_pending(self, src: int, dst: int) -> bool:
        return bool(self._channels.get((src, dst)))


_EMPTY: deque = deque()
