"""Deterministic SPMD scheduler: locations, RMI primitives, collectives.

A *location* (Ch. III.B) is "a component of a parallel machine that has a
contiguous address space and associated execution capabilities".  Each
location runs the user's SPMD function on its own Python thread, but a single
baton guarantees exactly one thread executes at a time, so runs are fully
deterministic and data-race free; parallelism is *modelled* by per-location
virtual clocks (see :mod:`repro.runtime.machine`).

Blocking points are exactly the collective operations (fence, barrier,
reduction, broadcast, registration).  Everything else — including sync RMIs,
which execute the handler directly against the target representative while
charging round-trip time — runs to completion without a context switch.

Mixed-mode execution (Ch. III.B "communication ... through shared memory
within a node and message passing across nodes"): intra-node messages pay
intra-node latency and byte costs; collectives run as two-level (intra-node,
then inter-node) trees; and bulk slabs/combining buffers bound for several
locations on one remote node coalesce into a single inter-node message
scattered by a node leader.

Task-graph execution (the PARAGRAPH engine of
:mod:`repro.algorithms.prange`) adds one non-collective blocking point:
``task_yield`` hands the baton back to the conductor without a rendezvous,
so a location whose local tasks are all blocked on cross-location data-flow
edges lets producers elsewhere run, then drains the "dependence satisfied"
RMIs they sent.  ``count_task`` plus the per-location ``rmi_executed``
counters feed the executor's distributed deadlock detection (a group
where neither moves across a full conductor round is stuck).
"""

from __future__ import annotations

import abc
import contextlib
import threading
import time
from typing import Callable

from .comm import COMBINING_WINDOW, Message, Network, estimate_size
from .config import RuntimeConfig
from .future import Future
from .machine import get_machine
from .stats import LocationStats, RunStats

_READY = "ready"
_WAITING = "waiting"
_DONE = "done"
_FAILED = "failed"

#: watchdog for a single baton hold; generous, only trips on a genuine hang.
_BATON_TIMEOUT = 900.0


class SpmdError(RuntimeError):
    """Raised for SPMD protocol violations (mismatched collectives, etc.)."""


class _Abort(BaseException):
    """Internal: unwinds location threads after another location failed."""


class LocationGroup:
    """An ordered set of locations forming a communication group (Ch. III.B).

    All RMI collectives are defined within a group, which is what enables
    nested parallelism: a nested pContainer can live on a sub-group and run
    its own fences/reductions without involving outside locations.

    Groups form a hierarchy.  :meth:`subgroup` carves an ordered sub-team
    out of an existing group without communication; :meth:`split` is the
    collective colour/key partition (the ``MPI_Comm_split`` idiom).  Member
    order is significant — it defines the group-relative ranks used by the
    rank-ordered collectives (allgather / alltoall / scan) — and the member
    tuple doubles as the rendezvous ``key``, so differently-ordered teams
    over the same locations never share a collective sequence space.
    """

    __slots__ = ("members", "key", "parent")

    def __init__(self, members, *, parent: "LocationGroup | None" = None,
                 ordered: bool = False):
        members = tuple(members)
        if not ordered:
            members = tuple(sorted(set(members)))
        elif len(set(members)) != len(members):
            raise ValueError(f"duplicate members in ordered group {members}")
        if not members:
            raise ValueError("a location group needs at least one member")
        self.members = members
        self.key = self.members
        self.parent = parent

    def __len__(self):
        return len(self.members)

    def __contains__(self, lid):
        return lid in self.members

    def index_of(self, lid: int) -> int:
        return self.members.index(lid)

    # -- group-relative rank arithmetic ---------------------------------
    def rank_of(self, lid: int) -> int:
        """Group-relative rank of world location ``lid``."""
        try:
            return self.members.index(lid)
        except ValueError:
            raise ValueError(f"location {lid} not a member of {self}") from None

    def lid_of(self, rank: int) -> int:
        """World location id of group-relative ``rank``."""
        if not 0 <= rank < len(self.members):
            raise ValueError(f"rank {rank} outside {self}")
        return self.members[rank]

    # -- hierarchy -------------------------------------------------------
    def subgroup(self, members) -> "LocationGroup":
        """Carve an ordered sub-team out of this group (no communication).

        ``members`` are world location ids, each of which must belong to
        this group; their order becomes the subgroup's rank order.  Every
        member of the new group must construct it with the same member
        sequence (it is the collective rendezvous key)."""
        members = tuple(members)
        mine = set(self.members)
        for lid in members:
            if lid not in mine:
                raise ValueError(f"location {lid} not a member of {self}")
        return LocationGroup(members, parent=self, ordered=True)

    def split(self, ctx, color, key: int = 0) -> "LocationGroup | None":
        """Collective colour/key partition over this group.

        Every member must call (it allgathers over the group): members that
        passed the same ``color`` form one subgroup, rank-ordered by
        ``(key, lid)``; passing ``color=None`` opts out of every subgroup
        and returns ``None`` (the ``MPI_UNDEFINED`` idiom)."""
        arrived = ctx.allgather_rmi((color, key), group=self)
        if color is None:
            return None
        mine = sorted((k, lid) for (c, k), lid in zip(arrived, self.members)
                      if c == color)
        return LocationGroup([lid for _, lid in mine], parent=self,
                             ordered=True)

    def __repr__(self):
        return f"LocationGroup{self.members}"


class _Rendezvous:
    """One in-flight exchange over a group: the payloads that arrived."""

    __slots__ = ("op", "members", "arrived")

    def __init__(self, op, members):
        self.op = op
        self.members = members
        self.arrived: dict[int, object] = {}

    def complete(self) -> bool:
        return len(self.arrived) == len(self.members)


class Location:
    """Execution context handed to the SPMD program (one per location)."""

    def __init__(self, runtime: "Runtime", lid: int):
        self.runtime = runtime
        #: this run's :class:`RuntimeConfig` (the program-facing handle)
        self.config = runtime.config
        self.id = lid
        self.clock = 0.0
        self.stats = LocationStats()
        self.result = None
        self.error = None
        self.state = _READY
        self._resume = threading.Event()
        self._waiting_on: _Rendezvous | None = None
        #: per-group counts of exchanges entered / p_objects registered:
        #: collectives run in one program order per group, so equal counts
        #: name the same exchange (registration) on every member
        self._coll_seq: dict[tuple, int] = {}
        self._handle_seq: dict[tuple, int] = {}
        self._thread: threading.Thread | None = None
        #: per-destination combining buffers of (handle, method, args)
        #: records — one buffer per channel, like ARMI's aggregation
        #: buffers, so issue order across p_objects is preserved and
        #: interleaved streams to different containers still batch
        self._combining: dict[int, list] = {}
        #: PARAGRAPHs currently executing on this location, outermost
        #: first — a task of the top graph may spawn and drain an inner
        #: graph (nested parallelism, Ch. IV.C); depth > 1 means nested
        self._paragraph_stack: list = []

    # -- identity ------------------------------------------------------
    @property
    def nlocs(self) -> int:
        return self.runtime.nlocs

    def get_location_id(self) -> int:
        return self.id

    def get_num_locations(self) -> int:
        return self.runtime.nlocs

    @property
    def machine(self):
        return self.runtime.machine

    def __repr__(self):
        return f"Location({self.id}/{self.runtime.nlocs})"

    # -- virtual time ----------------------------------------------------
    def charge(self, us: float) -> None:
        """Advance this location's virtual clock by ``us`` microseconds."""
        self.clock += us

    def charge_access(self, n: int = 1) -> None:
        self.clock += self.runtime.machine.t_access * n

    def charge_lookup(self, n: int = 1) -> None:
        self.clock += self.runtime.machine.t_lookup * n
        self.stats.lookups_charged += n

    def charge_lock(self, n: int = 1) -> None:
        self.clock += self.runtime.machine.t_lock * n
        self.stats.lock_acquires += n

    def start_timer(self) -> float:
        """Paper idiom ``stapl::start_timer`` — returns the virtual clock."""
        return self.clock

    def stop_timer(self, t0: float) -> float:
        """Elapsed virtual microseconds since ``t0``."""
        return self.clock - t0

    # -- point-to-point RMI ---------------------------------------------
    # Every public flavour funnels into one of two backend primitives:
    # ``post`` (deliver one request — through ``_send``, which charges the
    # sender) and ``round_trip`` (deliver one request, wait for its reply).

    def _send(self, dest: int, handle: int, method: str, args, size: int,
              origin: int, *, bulk: bool = False, reply: bool = False):
        """Charge the sender and post one request on the FIFO channel to
        ``dest``; returns the reply :class:`Future` when ``reply`` is set
        (split-phase), else None."""
        rt = self.runtime
        m = rt.machine
        self.clock += m.o_send
        self.stats.bytes_sent += size
        fut = Future(rt, self.id, dest) if reply else None
        msg = Message(self.id, dest, handle, method, args, size, self.clock,
                      origin, future=fut, bulk=bulk)
        if rt.post(msg):
            self.clock += m.msg_overhead
            self.stats.physical_messages += 1
        return fut

    def async_rmi(self, dest: int, handle: int, method: str, *args) -> None:
        """Fire-and-forget remote method invocation (no return value).

        Completion is guaranteed only by a subsequent fence, or by a sync /
        split-phase method to the same destination from this location
        (source FIFO ordering), per Ch. VII.B.
        """
        if self._combining:
            self.flush_combining(dest)
        self.stats.async_rmi_sent += 1
        self._send(dest, handle, method, args, 32 + estimate_size(args),
                   self.runtime.current_origin)

    def sync_rmi(self, dest: int, handle: int, method: str, *args):
        """Blocking RMI: returns the method's result; costs a round trip."""
        self.stats.sync_rmi_sent += 1
        # Source FIFO: buffered combined ops, then pending asyncs to
        # `dest` execute first.
        if self._combining:
            self.flush_combining(dest)
        return self.runtime.round_trip(self, dest, handle, method, args, 32)

    def opaque_rmi(self, dest: int, handle: int, method: str, *args) -> Future:
        """Split-phase RMI: returns a :class:`Future` immediately."""
        if self._combining:
            self.flush_combining(dest)
        self.stats.opaque_rmi_sent += 1
        return self._send(dest, handle, method, args,
                          32 + estimate_size(args),
                          self.runtime.current_origin, reply=True)

    def poll(self) -> int:
        """Execute all buffered RMIs destined to this location; returns the
        number executed (the RTS's incoming-request processing point)."""
        return self.runtime.progress(self)

    # -- task-graph executor hooks ----------------------------------------
    # The dependence-driven executor (repro.algorithms.prange) runs local
    # tasks until they block on a data-flow edge from another location,
    # then calls ``task_yield`` so producers elsewhere can run and their
    # "dependence satisfied" RMIs can be drained.

    def count_task(self, n: int = 1) -> None:
        """Record ``n`` executed task-graph tasks.  Together with
        ``rmi_executed`` this is what the executor's deadlock detection
        watches: a location group where neither moves across a full
        conductor round is stuck."""
        self.stats.tasks_executed += n

    def task_yield(self, drain: bool = True) -> int:
        """Let the other locations run (the backend's ``yield_``: the
        baton back to the conductor, or a brief blocking receive), then
        execute RMIs that arrived for this location (all of them by
        default; ``drain=False`` lets the caller drain incrementally
        instead).  Returns the number of RMIs executed.

        This is the executor's blocked-task progress point: unlike a
        collective it involves no rendezvous — the location stays
        runnable."""
        rt = self.runtime
        if rt._exec_depth:
            raise SpmdError(
                f"location {self.id}: task_yield inside an RMI handler")
        n = rt.yield_(self)
        return n + rt.progress(self) if drain else n

    # -- bulk transport ---------------------------------------------------
    # Aggregation taken to its logical end (Ch. III.B): instead of batching
    # scalar RMIs ``aggregation`` at a time, ship a whole element range as
    # one slab.  One physical message per (src, dst) pair, payload bytes
    # charged once, per-RMI sender overhead paid once.

    def bulk_set_range(self, dest: int, handle: int, method: str, *args,
                       nelems: int = 0) -> None:
        """Fire-and-forget slab push: like :meth:`async_rmi` but the whole
        payload travels in a single physical message.  Source-FIFO ordering
        with scalar RMIs on the same channel is preserved (the slab enters
        the same per-(src, dst) queue)."""
        if self._combining:
            self.flush_combining(dest)
        self.stats.bulk_rmi_sent += 1
        self.stats.bulk_elements_moved += nelems
        self._send(dest, handle, method, args, 64 + estimate_size(args),
                   self.runtime.current_origin, bulk=True)

    def bulk_get_range(self, dest: int, handle: int, method: str, *args,
                       nelems: int = 0):
        """Blocking slab fetch: one request message out, one slab reply
        back.  Pending asyncs to ``dest`` execute first (source FIFO)."""
        self.stats.bulk_rmi_sent += 1
        self.stats.bulk_elements_moved += nelems
        if self._combining:
            self.flush_combining(dest)
        return self.runtime.round_trip(self, dest, handle, method, args, 64)

    def bulk_exchange(self, slabs: list, group: "LocationGroup | None" = None,
                      nelems: int = 0) -> list:
        """Personalised all-to-all of per-destination slabs: ``slabs[i]``
        goes to the i-th group member; returns the slabs received, in group
        order — the coarse-grained exchange underlying redistribution
        (Ch. V.G).

        Node-aware slab routing: slabs destined for several locations on one
        *remote* node coalesce into a single inter-node message carrying
        their combined payload; the lowest-numbered destination on that node
        (the node leader) scatters the other slabs over cheap intra-node
        messages.  Same-node destinations pay intra-node rates.  With one
        location per node this degenerates to the classic one physical
        message per non-empty (src, dst) pair, payload bytes charged once."""
        rt = self.runtime
        m = rt.machine
        group = group or rt.world
        my_node = m.node_of(self.id, rt.nlocs, rt.placement)
        by_node: dict[int, list] = {}
        for member, payload in zip(group.members, slabs):
            if member != self.id and not _empty_slab(payload):
                by_node.setdefault(
                    m.node_of(member, rt.nlocs, rt.placement), []).append(
                        (member, 64 + estimate_size(payload)))
        messages = []
        for node in sorted(by_node):
            if node == my_node or len(by_node[node]) == 1:
                messages.extend([target] for target in by_node[node])
            else:
                messages.append(by_node[node])
        with self._bulk_round("x", messages, group, nelems):
            return self.alltoall_rmi(slabs, group)

    def bulk_gather(self, payload, group: "LocationGroup | None" = None,
                    nelems: int = 0) -> list:
        """Allgather of per-location slabs: every member receives the
        payloads in group order.  A non-empty payload costs one physical
        message per (src, dst) pair with its bytes charged once — the
        batched gather under ``to_dict``/``sorted_items``/``to_list``."""
        group = group or self.runtime.world
        messages = []
        if not _empty_slab(payload):
            size = 64 + estimate_size(payload)
            messages = [[(member, size)] for member in group.members
                        if member != self.id]
        with self._bulk_round("g", messages, group, nelems):
            return self.allgather_rmi(payload, group)

    def _bulk_round(self, tag: str, messages: list, group: "LocationGroup",
                    nelems: int):
        """Count one bulk round and enter the backend's ``bulk_round``.
        ``messages`` lists the round's physical messages, each the
        ``(member, size)`` slabs it carries — empty slabs never appear, and
        several in one message is a bundle coalesced through a node leader.
        Every counter of the round is incremented here, so the backends
        cannot drift apart."""
        st = self.stats
        st.bulk_elements_moved += nelems
        for slabs in messages:
            st.bulk_rmi_sent += 1
            st.physical_messages += 1
            st.bytes_sent += sum(size for _, size in slabs)
            if len(slabs) > 1:
                st.coalesced_messages += 1
        return self.runtime.bulk_round(self, tag, group, messages)

    # -- combining buffers -------------------------------------------------
    # The second Ch. III.B technique: asynchronous op records destined to
    # the same (destination, p_object) are buffered locally and replayed by
    # the destination's ``_apply_combined`` handler from one bulk message.

    def combine_rmi(self, dest: int, handle: int, method: str,
                    *args) -> bool:
        """Append one async op record to the per-``dest`` combining
        buffer; returns False — having done nothing — when the op cannot
        be combined (combining disabled, self-targeted, or issued from
        inside an RMI handler, where buffering would let a forwarded
        continuation escape fence quiescence).  The caller then falls back
        to :meth:`async_rmi`.

        Buffered records flush, in append order, at the combining-window
        boundary, at a fence, before any other RMI to the same destination
        (preserving source-FIFO order with scalar RMIs on the channel), or
        on an explicit :meth:`flush_combining`."""
        rt = self.runtime
        if not rt.config.combining or dest == self.id or rt._exec_depth:
            return False
        buf = self._combining.get(dest)
        if buf is None:
            buf = self._combining[dest] = []
        buf.append((handle, method, args))
        # local append: cheap compared to marshaling a full RMI
        self.clock += rt.machine.o_send * 0.25
        self.stats.combined_ops += 1
        if len(buf) >= COMBINING_WINDOW:
            self._flush_combining_buffer(dest)
        return True

    def flush_combining(self, dest: int | None = None,
                        handle: int | None = None,
                        coalesce: bool = False) -> int:
        """Flush combining buffers — all of them, or only those to ``dest``
        and/or containing records for ``handle`` (a buffer always flushes
        whole, preserving the channel's issue order).  Returns the number
        of op records shipped.  Flushing moves records into the FIFO
        channels as bulk messages; it does not execute them (a fence or
        drain does).

        ``coalesce`` enables node-aware routing for a flush-all: buffers
        destined for several locations on one remote node travel as one
        inter-node message that the node leader scatters intra-node.  Only
        the fence paths pass it — a coalesced buffer reaches its
        destination through the leader's channel, so it is only
        source-FIFO-safe when the flush is immediately followed by a drain
        to quiescence (rmi_fence / os_fence)."""
        if not self._combining:
            return 0
        dests = [d for d, buf in self._combining.items()
                 if (dest is None or d == dest)
                 and (handle is None or any(r[0] == handle for r in buf))]
        if coalesce and dest is None and handle is None and len(dests) > 1:
            return self._flush_combining_coalesced(dests)
        n = 0
        for d in dests:
            n += self._flush_combining_buffer(d)
        return n

    def _flush_combining_buffer(self, dest: int) -> int:
        records = self._combining.pop(dest, None)
        if not records:
            return 0
        self.stats.combining_flushes += 1
        # the message routes through the first record's p_object; its
        # _apply_combined handler re-routes each record by handle.  Records
        # are only buffered outside handlers, so the originating location
        # is always this one (never a forwarded origin).
        self._send(dest, records[0][0], "_apply_combined", (records,),
                   64 + estimate_size(records), self.id, bulk=True)
        return len(records)

    def _flush_combining_coalesced(self, dests: list) -> int:
        """Flush-all with node-aware routing: one inter-node message per
        remote node hosting two or more buffered destinations; the node
        leader (lowest destination lid on that node) applies its own bundle
        and forwards the rest intra-node (``_apply_node_combined``).

        Unlike :meth:`bulk_exchange` — whose leader scatter is pure cost
        bookkeeping because the slabs are delivered by the alltoall
        rendezvous — the forwarded bundles here carry *executions*, so the
        leader re-sends them as real intra-node asyncs: that keeps fence
        quiescence and ``os_fence`` origin tracking working through the
        indirection."""
        rt = self.runtime
        m = rt.machine
        my_node = m.node_of(self.id, rt.nlocs, rt.placement)
        by_node: dict[int, list] = {}
        for d in sorted(dests):
            by_node.setdefault(
                m.node_of(d, rt.nlocs, rt.placement), []).append(d)
        n = 0
        for node in sorted(by_node):
            ds = by_node[node]
            if node == my_node or len(ds) == 1:
                # own node (cheap intra-node messages) or a single
                # destination: nothing to coalesce
                for d in ds:
                    n += self._flush_combining_buffer(d)
                continue
            leader = ds[0]
            bundles = [(d, self._combining.pop(d)) for d in ds]
            self.stats.combining_flushes += 1
            self.stats.coalesced_messages += 1
            # routed through the leader bundle's first record handle — a
            # p_object guaranteed to have a representative on the leader
            self._send(leader, bundles[0][1][0][0], "_apply_node_combined",
                       (bundles,), 64 + estimate_size(bundles), self.id,
                       bulk=True)
            n += sum(len(records) for _, records in bundles)
        return n

    # -- collectives -----------------------------------------------------
    def rmi_fence(self, group: LocationGroup | None = None) -> None:
        """Collective fence: on return, no RMI issued by any group member
        before the fence is still pending (Ch. III.B / VII.B).  A fence on
        a proper subgroup quiesces only traffic among its members — it
        never blocks on (or drains) locations outside the group."""
        self.stats.fences += 1
        if group is not None and len(group) < self.runtime.nlocs:
            self.stats.subgroup_fences += 1
        self._collective("fence", None, group)

    def barrier(self, group: LocationGroup | None = None) -> None:
        """Synchronize clocks without draining pending traffic."""
        self._collective("barrier", None, group)

    def allreduce_rmi(self, value, op: Callable = None,
                      group: LocationGroup | None = None):
        """Reduce ``value`` across the group; every member gets the result.
        ``op`` runs on every member, over the values in group order, and
        must not modify its arguments."""
        return self._collective("allreduce", (value, op), group)

    def reduce_rmi(self, value, op: Callable = None, root: int = 0,
                   group: LocationGroup | None = None):
        """Rooted reduction; non-roots receive ``None``."""
        if root not in (group or self.runtime.world):
            raise SpmdError("reduce: root did not participate")
        result = self._collective("allreduce", (value, op), group)
        return result if self.id == root else None

    def broadcast_rmi(self, root: int, value=None,
                      group: LocationGroup | None = None):
        """Broadcast ``value`` from ``root`` to every group member."""
        return self._collective("broadcast", (root, value), group)

    def allgather_rmi(self, value, group: LocationGroup | None = None) -> list:
        """Gather one value per member, in group order, on every member."""
        return self._collective("allgather", value, group)

    def alltoall_rmi(self, values: list, group: LocationGroup | None = None) -> list:
        """Personalised all-to-all: ``values[i]`` goes to the i-th member."""
        return self._collective("alltoall", values, group)

    def scan_rmi(self, value, op: Callable = None, exclusive: bool = False,
                 group: LocationGroup | None = None):
        """Parallel prefix over group order; returns (prefix, total)."""
        return self._collective("scan", (value, op, exclusive), group)

    def os_fence(self) -> None:
        """One-sided fence: completes all RMIs *originated* by this location
        (including forwarded continuations) without a collective."""
        self.runtime.os_fence(self)

    # -- registration ------------------------------------------------------
    def collective_register(self, obj, group: LocationGroup | None = None) -> int:
        """Collectively register a p_object representative; all members
        receive the same RMI handle (Ch. III.B p_object registration)."""
        return self._collective("register", obj, group)

    def collective_unregister(self, handle: int,
                              group: LocationGroup | None = None) -> None:
        self._collective("unregister", handle, group)

    # -- internals -------------------------------------------------------
    def _collective(self, op: str, payload, group: LocationGroup | None):
        """The collective protocol, written once for every backend over the
        runtime's two primitives: ``fence(loc, group)`` and
        ``exchange(loc, op, payload, group, personalised) -> {lid: payload}``
        (every member's payload on every member; personalised, the piece of
        every member's sequence at this member's rank).  Each member folds
        its own result from the raw payloads, so reduction callables never
        reach a backend's wire."""
        rt = self.runtime
        group = group or rt.world
        me = self.id
        if me not in group:
            raise SpmdError(f"location {me} not in {group}")
        if len(group) > 1 and rt._exec_depth:
            # a singleton group (nested parallelism on one location)
            # completes inline on every backend; anything wider blocks
            raise SpmdError(
                f"location {me}: collective '{op}' invoked inside an RMI "
                "handler; handlers must not block")
        self.stats.collectives += 1
        members = group.members
        if op == "fence":
            rt.fence(self, group)
        elif op == "barrier":
            rt.exchange(self, op, None, group, False)
        elif op == "register":
            seq = self._handle_seq.get(group.key, 0)
            handle = rt.registration_handle(group, seq)
            # resolvable before the exchange: a peer that already finished
            # this registration may send a request that executes while this
            # location still waits in it
            rt.registry.setdefault(handle, {})[me] = payload
            proposed = set(
                rt.exchange(self, op, handle, group, False).values())
            if len(proposed) != 1:
                del rt.registry[handle][me]
                raise SpmdError(
                    "p_object registration diverged across locations "
                    f"(proposed handles {sorted(proposed, key=repr)}); "
                    "registrations must run in one collective program "
                    "order per group")
            self._handle_seq[group.key] = seq + 1
            return handle
        elif op == "unregister":
            handles = set(
                rt.exchange(self, op, payload, group, False).values())
            if len(handles) != 1:
                raise SpmdError(
                    "unregister called with differing handles "
                    f"{sorted(handles, key=repr)}")
            rt.registry.pop(payload, None)
        elif op == "allreduce":
            value, op_fn = payload
            arrived = rt.exchange(self, op, value, group, False)
            acc = arrived[members[0]]
            for i in members[1:]:
                acc = _combine(op_fn, acc, arrived[i])
            return acc
        elif op == "scan":
            value, op_fn, exclusive = payload
            arrived = rt.exchange(self, op, value, group, False)
            acc = prefix = None
            for i in members:
                if exclusive and i == me:
                    prefix = acc
                acc = arrived[i] if acc is None else \
                    _combine(op_fn, acc, arrived[i])
                if not exclusive and i == me:
                    prefix = acc
            return prefix, acc
        elif op == "broadcast":
            root, value = payload
            if root not in group:
                raise SpmdError("broadcast: root did not participate")
            return rt.exchange(self, op, value if me == root else None,
                               group, False)[root]
        elif op == "allgather":
            arrived = rt.exchange(self, op, payload, group, False)
            return [arrived[i] for i in members]
        elif op == "alltoall":
            if len(payload) != len(members):
                raise SpmdError(
                    f"alltoall: location {me} passed {len(payload)} "
                    f"values for a group of {len(members)}")
            arrived = rt.exchange(self, op, payload, group, True)
            return [arrived[i] for i in members]
        else:
            raise SpmdError(f"unknown collective {op!r}")


def _combine(op_fn, a, b):
    return (a + b) if op_fn is None else op_fn(a, b)


def _empty_slab(payload) -> bool:
    return payload is None or (hasattr(payload, "__len__")
                               and len(payload) == 0)


class BackendRuntime(abc.ABC):
    """One SPMD execution, as :class:`Location` and everything above it see
    it: the state and handler execution every backend shares, plus — the
    abstract methods — the primitives a backend supplies.  ``Location`` is
    written once over these; a new execution backend is one subclass.

    Conventions: ``loc`` is always the calling location (one a backend
    hosts); a primitive that waits may execute incoming requests meanwhile,
    and raises :class:`SpmdError` rather than wait forever."""

    #: whether representatives on other locations share this address space;
    #: containers consult it before cross-representative shortcuts (e.g.
    #: pVector's shared partition metadata)
    shared_address_space = False

    def __init__(self, nlocs: int, machine, placement: str,
                 config: RuntimeConfig):
        if nlocs < 1:
            raise ValueError("need at least one location")
        self.config = config
        self.machine = get_machine(machine)
        self.nlocs = nlocs
        self.placement = placement
        self.world = LocationGroup(range(nlocs))
        #: handle -> {lid: representative}
        self.registry: dict = {}
        self._exec_stack: list[tuple[Location, int]] = []
        self._exec_depth = 0
        #: the location whose program has the processor — the current
        #: location outside a handler; the backend keeps it up to date
        self._running: Location | None = None

    # -- current location tracking --------------------------------------
    @property
    def current_location(self) -> Location:
        if self._exec_stack:
            return self._exec_stack[-1][0]
        if self._running is None:
            raise SpmdError("no current location (outside an SPMD run)")
        return self._running

    @property
    def current_origin(self) -> int:
        if self._exec_stack:
            return self._exec_stack[-1][1]
        return self.current_location.id

    # -- registry and handler execution -----------------------------------
    def lookup(self, handle, lid: int):
        try:
            reps = self.registry[handle]
        except KeyError:
            raise SpmdError(f"unknown p_object handle {handle}") from None
        try:
            return reps[lid]
        except KeyError:
            raise SpmdError(
                f"p_object handle {handle} has no representative on "
                f"location {lid}") from None

    def _run_handler(self, dst_loc: Location, handle, method: str, args,
                     origin: int):
        obj = self.lookup(handle, dst_loc.id)
        self._exec_stack.append((dst_loc, origin))
        self._exec_depth += 1
        try:
            result = getattr(obj, method)(*args)
        finally:
            self._exec_stack.pop()
            self._exec_depth -= 1
        dst_loc.stats.rmi_executed += 1
        return result

    # -- the backend primitives --------------------------------------------
    @abc.abstractmethod
    def post(self, msg: Message) -> bool:
        """Accept one outgoing request on its (src, dst) channel, which
        executes requests in post order (Ch. III.B source FIFO); a
        ``msg.future`` is resolved with the handler's result.  True when a
        new *physical* message started (the sender is charged the fixed
        message overhead exactly then)."""

    @abc.abstractmethod
    def round_trip(self, loc: Location, dest: int, handle, method: str, args,
                   header: int):
        """Blocking request/reply: execute ``method`` at ``dest`` after
        everything ``loc`` posted there earlier and return its result,
        charging ``loc`` the round trip.  ``header`` is the fixed
        per-message byte cost of request and reply (32 scalar, 64 slab)."""

    @abc.abstractmethod
    def progress(self, loc: Location, src: int | None = None,
                 one: bool = False) -> int:
        """Execute requests deliverable to ``loc`` now, without blocking:
        all of them, at least those ``src`` posted, or — ``one`` — only
        the earliest.  Returns how many ran; 0 means nothing was
        deliverable."""

    @abc.abstractmethod
    def wait(self, future: Future) -> None:
        """Block until the split-phase ``future`` resolves."""

    @abc.abstractmethod
    def yield_(self, loc: Location) -> int:
        """The blocked executor's hand-off: let the other locations run
        before ``loc`` looks for progress again.  Returns the number of
        requests executed at ``loc`` meanwhile."""

    @abc.abstractmethod
    def bulk_round(self, loc: Location, tag: str, group: LocationGroup,
                   messages: list):
        """Open one ``bulk_exchange`` ("x") / ``bulk_gather`` ("g") round
        whose physical ``messages`` ``Location._bulk_round`` has counted:
        charge what they cost, and return the context manager the round's
        collective runs under."""

    @abc.abstractmethod
    def exchange(self, loc: Location, op: str, payload, group: LocationGroup,
                 personalised: bool) -> dict:
        """Every member's ``payload`` lands on every member: returns
        ``{lid: payload}``, or — ``personalised`` — the piece of each
        member's per-rank sequence bound for ``loc``.  Members calling
        different ``op``s raise."""

    @abc.abstractmethod
    def fence(self, loc: Location, group: LocationGroup) -> None:
        """Collective over ``group``: on return no request posted among its
        members before the fence is still pending, ``loc``'s combining
        buffers included."""

    @abc.abstractmethod
    def os_fence(self, loc: Location) -> None:
        """One-sided: on return every request ``loc`` originated —
        transitively, through forwarding — has executed."""

    @abc.abstractmethod
    def registration_handle(self, group: LocationGroup, seq: int):
        """The RMI handle of ``group``'s ``seq``-th registration, the same
        on every member."""

    @abc.abstractmethod
    def group_progress(self, members) -> int:
        """Monotone progress metric over ``members`` (requests executed
        plus tasks run, as far as this backend can see them) watched by
        the task-graph executor's deadlock detection."""

    @abc.abstractmethod
    def stall_limit(self, group_size: int | None = None) -> int:
        """How many progress-free blocked-executor rounds mean deadlock
        for an executor over ``group_size`` locations."""


class Runtime(BackendRuntime):
    """The simulated backend: every location in this process, a buffered
    :class:`Network`, and a conductor passing one baton."""

    #: one address space holds every representative
    shared_address_space = True

    def __init__(self, nlocs: int, machine="smp", placement: str = "packed",
                 config: RuntimeConfig = RuntimeConfig()):
        super().__init__(nlocs, machine, placement, config)
        self.locations = [Location(self, i) for i in range(nlocs)]
        self.network = Network(nlocs, self.machine.aggregation)
        #: shadows the class's ``post``, so a send pays no frame between
        #: ``Location._send`` and the network
        self.post = self.network.enqueue
        self._handles: dict[tuple, int] = {}
        self._pending_rv: dict = {}
        self._conductor_evt = threading.Event()
        self._abort = False

    def registration_handle(self, group: LocationGroup, seq: int):
        """The next int, drawn by whichever member proposes first."""
        return self._handles.setdefault((group.key, seq), len(self._handles))

    # -- message execution ----------------------------------------------
    def post(self, msg: Message) -> bool:
        return self.network.enqueue(msg)

    def round_trip(self, loc: Location, dest: int, handle, method: str, args,
                   header: int):
        """Pending asyncs to ``dest`` execute first, then the handler runs
        directly against the destination representative while both clocks
        are charged the round trip."""
        m = self.machine
        self.flush_channel(loc.id, dest)
        size = header + estimate_size(args)
        loc.clock += m.o_send
        loc.stats.bytes_sent += size
        dst_loc = self.locations[dest]
        if dest == loc.id:
            loc.clock += m.o_recv
            return self._run_handler(dst_loc, handle, method, args, loc.id)
        # a blocking RMI cannot be aggregated: request + reply each occupy
        # one physical message
        loc.stats.physical_messages += 2
        lat = m.latency(loc.id, dest, self.nlocs, self.placement)
        bc = m.byte_cost(loc.id, dest, self.nlocs, self.placement)
        arrival = loc.clock + lat + size * bc
        if dst_loc.clock < arrival:
            dst_loc.clock = arrival
        dst_loc.clock += m.o_recv
        result = self._run_handler(dst_loc, handle, method, args, loc.id)
        rsize = header + estimate_size(result)
        dst_loc.stats.bytes_sent += rsize  # the reply is traffic too
        loc.clock = dst_loc.clock + lat + rsize * bc + m.o_recv
        return result

    def execute_message(self, msg: Message) -> None:
        m = self.machine
        dst_loc = self.locations[msg.dst]
        if msg.src != msg.dst:
            lat = m.latency(msg.src, msg.dst, self.nlocs, self.placement)
            bc = m.byte_cost(msg.src, msg.dst, self.nlocs, self.placement)
            arrival = msg.depart + lat + msg.size * bc
            if dst_loc.clock < arrival:
                dst_loc.clock = arrival
        else:
            lat = 0.0
        dst_loc.clock += m.o_recv
        result = self._run_handler(dst_loc, msg.handle, msg.method, msg.args,
                                   msg.origin)
        if msg.future is not None:
            msg.future._resolve(result, dst_loc.clock + lat)

    # -- progress engines --------------------------------------------------
    def flush_channel(self, src: int, dst: int,
                      until: Future | None = None) -> int:
        """Execute buffered messages src->dst in FIFO order — all of them,
        or only up to the one that resolves ``until``."""
        n = 0
        while until is None or not until.ready:
            msg = self.network.pop(src, dst)
            if msg is None:
                break
            self.execute_message(msg)
            n += 1
        return n

    def wait(self, future: Future) -> None:
        """Force progress on the request's channel until it has executed."""
        self.flush_channel(future._src, future._dst, until=future)

    def progress(self, loc: Location, src: int | None = None,
                 one: bool = False) -> int:
        """Exactly what was asked: every channel to ``loc`` in source
        order, only ``src``'s, or — ``one`` — the single earliest-departed
        pending message (head of its FIFO channel).

        The task-graph executor drains incrementally: executing a message
        advances the receiver's clock to that message's arrival time, so a
        blocked location processes arrivals oldest-first and stops as soon
        as a task unblocks, instead of absorbing the arrival times of
        messages that later phases raced ahead to send."""
        if src is not None:
            return self.flush_channel(src, loc.id)
        if not one:
            return sum(self.flush_channel(src, loc.id)
                       for src in range(self.nlocs))
        best_src = None
        best_depart = 0.0
        for src, chan in self.network.pending_to(loc.id):
            depart = chan[0].depart
            if best_src is None or depart < best_depart:
                best_src, best_depart = src, depart
        if best_src is None:
            return 0
        self.execute_message(self.network.pop(best_src, loc.id))
        return 1

    def yield_(self, loc: Location) -> int:
        """Hand the baton back to the conductor, so every other ready
        location gets a turn; ``loc`` resumes on its next pass."""
        if self.nlocs > 1:
            self._yield_to_conductor(loc)
        return 0

    def drain_among(self, members) -> int:
        """Execute buffered traffic among ``members`` to quiescence.
        Handlers may enqueue further messages (method forwarding), so loop."""
        total = 0
        ms = set(members)
        while True:
            chans = self.network.pending_among(ms)
            if not chans:
                return total
            for chan in chans:
                while chan:
                    # channels are shared deques; pop via network for
                    # aggregation bookkeeping
                    msg = chan[0]
                    self.network.pop(msg.src, msg.dst)
                    self.execute_message(msg)
                    total += 1

    def os_fence(self, loc: Location) -> None:
        """One-sided fence of ``loc``: execute every buffered message it
        originated (transitively, through forwarding)."""
        loc.flush_combining(coalesce=True)
        progress = True
        while progress:
            progress = False
            for src in range(self.nlocs):
                for dst in range(self.nlocs):
                    chan = self.network.channel(src, dst)
                    while chan and chan[0].origin == loc.id:
                        self.execute_message(self.network.pop(src, dst))
                        progress = True

    # -- conductor ---------------------------------------------------------
    def run(self, fn: Callable, args: tuple = ()) -> list:
        """Run ``fn(location, *args)`` SPMD-style on every location."""
        threads = []
        for loc in self.locations:
            t = threading.Thread(
                target=self._thread_main, args=(loc, fn, args),
                name=f"loc-{loc.id}", daemon=True)
            loc._thread = t
            threads.append(t)
        for t in threads:
            t.start()
        try:
            self._conduct()
        except SpmdError:
            raise
        except Exception as exc:
            # handler failures surfacing from a conductor-side drain
            self._abort = True
            raise SpmdError(
                f"RMI handler raised {type(exc).__name__}: {exc}") from exc
        finally:
            if self._abort:
                for loc in self.locations:
                    loc._resume.set()
            for t in threads:
                t.join(timeout=30.0)
            self._running = None
        failed = [loc for loc in self.locations if loc.state == _FAILED]
        if failed:
            loc = failed[0]
            raise SpmdError(
                f"location {loc.id} raised {type(loc.error).__name__}: "
                f"{loc.error}") from loc.error
        return [loc.result for loc in self.locations]

    def _thread_main(self, loc: Location, fn: Callable, args: tuple) -> None:
        loc._resume.wait()
        loc._resume.clear()
        if self._abort:
            loc.state = _DONE
            self._conductor_evt.set()
            return
        try:
            loc.result = fn(loc, *args)
            loc.state = _DONE
        except _Abort:
            loc.state = _DONE
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            loc.error = exc
            loc.state = _FAILED
        finally:
            self._conductor_evt.set()

    def _yield_to_conductor(self, loc: Location) -> None:
        self._conductor_evt.set()
        loc._resume.wait()
        loc._resume.clear()
        if self._abort:
            raise _Abort()

    def _give_baton(self, loc: Location) -> None:
        self._running = loc
        self._conductor_evt.clear()
        loc._resume.set()
        if not self._conductor_evt.wait(timeout=_BATON_TIMEOUT):
            self._abort = True
            raise SpmdError(f"location {loc.id} hung (baton watchdog)")

    def _conduct(self) -> None:
        try:
            while True:
                progressed = False
                for loc in self.locations:
                    if loc.state == _READY:
                        self._give_baton(loc)
                        progressed = True
                        if loc.state == _FAILED:
                            self._abort = True
                            return
                for key in list(self._pending_rv):
                    rv = self._pending_rv[key]
                    if rv.complete():
                        del self._pending_rv[key]
                        self._finish_rendezvous(rv)
                        progressed = True
                states = {loc.state for loc in self.locations}
                if states <= {_DONE}:
                    return
                if not progressed:
                    detail = ", ".join(
                        f"L{loc.id}:{loc.state}"
                        + (f"@{loc._waiting_on.op}" if loc._waiting_on else "")
                        for loc in self.locations)
                    self._abort = True
                    raise SpmdError(
                        "SPMD deadlock — mismatched collectives or a location "
                        f"exited while others wait ({detail})")
        except Exception:
            self._abort = True
            raise

    # -- the collective primitives ------------------------------------------
    def exchange(self, loc: Location, op: str, payload, group: LocationGroup,
                 personalised: bool) -> dict:
        """A rendezvous through the conductor, which synchronises the
        members' clocks; a singleton group completes inline, with no
        context switch."""
        if len(group) == 1:
            loc.clock += self.machine.coll_beta
            arrived = {loc.id: payload}
        else:
            seq = loc._coll_seq.get(group.key, 0)
            loc._coll_seq[group.key] = seq + 1
            key = (group.key, seq)
            rv = self._pending_rv.get(key)
            if rv is None:
                rv = self._pending_rv[key] = _Rendezvous(op, group.members)
            elif rv.op != op:
                raise SpmdError(
                    f"collective mismatch on {group}: location {loc.id} "
                    f"called '{op}' but another member called '{rv.op}'")
            rv.arrived[loc.id] = payload
            loc._waiting_on = rv
            loc.state = _WAITING
            self._yield_to_conductor(loc)
            loc._waiting_on = None
            arrived = rv.arrived
        if personalised:
            rank = group.index_of(loc.id)
            return {lid: pieces[rank] for lid, pieces in arrived.items()}
        return arrived

    def fence(self, loc: Location, group: LocationGroup) -> None:
        """Quiesce traffic among ``group``: flush ``loc``'s combining
        buffers (node-coalesced: the drain below follows immediately), then
        rendezvous; the conductor drains the members' channels."""
        loc.flush_combining(coalesce=True)
        self.exchange(loc, "fence", None, group, False)
        if len(group) == 1:
            self.flush_channel(loc.id, loc.id)

    def _finish_rendezvous(self, rv: _Rendezvous) -> None:
        members = [self.locations[i] for i in rv.members]
        if rv.op == "fence":
            self.drain_among(rv.members)
        t = max(loc.clock for loc in members)
        # mixed-mode collectives: intra-node tree to a node leader, then an
        # inter-node tree across leaders (flat-equivalent when every node
        # hosts one participant)
        t += self.machine.hierarchical_collective_cost(
            rv.members, self.nlocs, self.placement)
        for loc in members:
            loc.clock = t
            loc.state = _READY

    def bulk_round(self, loc: Location, tag: str, group: LocationGroup,
                   messages: list):
        """The virtual cost of a bulk round's messages: same-node slabs pay
        intra-node rates, and a bundle coalesced for a remote node pays one
        inter-node message plus its leader's intra-node scatter."""
        m = self.machine
        for slabs in messages:
            if len(slabs) == 1:
                member, size = slabs[0]
                loc.clock += (m.o_send + m.msg_overhead + size * m.byte_cost(
                    loc.id, member, self.nlocs, self.placement))
                continue
            # several destinations on one remote node: one coalesced
            # inter-node message to the node leader ...
            total = sum(size for _, size in slabs)
            leader = self.locations[min(member for member, _ in slabs)]
            loc.clock += m.o_send + m.msg_overhead + total * m.byte_inter
            # ... which the leader scatters intra-node after it arrives.
            # The scatter is a shared-memory handoff (the slabs land in a
            # node-shared buffer the siblings read under t_lock), not
            # another round of physical messages.
            arrival = loc.clock + m.latency_inter
            if leader.clock < arrival:
                leader.clock = arrival
            for member, size in slabs:
                if member != leader.id:
                    leader.clock += m.t_lock + size * m.byte_intra
                    leader.stats.lock_acquires += 1
        return contextlib.nullcontext()

    # -- the task-graph executor's deadlock detection ------------------------
    def group_progress(self, members) -> int:
        """The simulator can read every member's counters."""
        return sum(self.locations[lid].stats.rmi_executed
                   + self.locations[lid].stats.tasks_executed
                   for lid in members)

    def stall_limit(self, group_size: int | None = None) -> int:
        """One full conductor round suffices in the deterministic
        simulator.  ``group_size`` scopes the patience to the executor's
        own group — the innermost active group is what deadlock detection
        watches, so a small sub-team need not wait out a world-sized
        round."""
        return (group_size or self.nlocs) + 1

    # -- reporting -----------------------------------------------------------
    def stats(self) -> RunStats:
        return RunStats([loc.stats for loc in self.locations])

    def max_clock(self) -> float:
        return max(loc.clock for loc in self.locations)


class SpmdReport:
    """Result bundle from :func:`spmd_run_detailed`.

    ``wall_seconds`` is real elapsed time: meaningful for the
    multiprocessing backend (the longest worker's wall clock), reported
    alongside the virtual ``clocks``/``max_clock`` of the cost model."""

    def __init__(self, results, runtime: Runtime | None = None, *,
                 clocks=None, stats=None, wall_seconds: float = 0.0,
                 backend: str = "simulated"):
        self.results = results
        self.runtime = runtime
        if runtime is not None:
            clocks = [loc.clock for loc in runtime.locations]
            stats = runtime.stats()
        self.clocks = clocks
        self.stats = stats
        self.wall_seconds = wall_seconds
        self.backend = backend

    @property
    def max_clock(self) -> float:
        return max(self.clocks)


def spmd_run_detailed(fn: Callable, nlocs: int = 4, machine="smp",
                      args: tuple = (), placement: str = "packed",
                      backend: str = "simulated",
                      config: RuntimeConfig | None = None,
                      **backend_opts) -> SpmdReport:
    """Run an SPMD program; returns results, clocks, traffic stats and —
    for a real backend — wall-clock time.

    ``fn(ctx, *args)`` is executed once per location with a
    :class:`Location` context, exactly like a ``stapl_main`` under
    ``mpiexec -n nlocs``.

    ``backend`` selects the execution backend for this run ("simulated" —
    the deterministic virtual-time oracle — or "multiprocessing" — one OS
    process per location); ``config`` is the run's
    :class:`~repro.runtime.config.RuntimeConfig` (defaults when omitted),
    readable as ``ctx.config``; ``backend_opts`` (e.g. ``timeout=...``) are
    passed to a real backend's launcher and must be empty for the
    simulator.
    """
    config = config or RuntimeConfig()
    if backend == "multiprocessing":
        from . import mp  # imported lazily: pulls in multiprocessing machinery

        return mp.mp_spmd_run_detailed(
            fn, nlocs=nlocs, machine=machine, args=args, placement=placement,
            config=config, **backend_opts)
    if backend != "simulated":
        raise SpmdError(f"unknown execution backend {backend!r}")
    if backend_opts:
        raise TypeError(
            f"simulated backend takes no options {sorted(backend_opts)}")
    rt = Runtime(nlocs, machine, placement, config)
    t0 = time.perf_counter()
    results = rt.run(fn, args)
    return SpmdReport(results, rt, wall_seconds=time.perf_counter() - t0)


def spmd_run(fn: Callable, nlocs: int = 4, machine="smp", args: tuple = (),
             placement: str = "packed", backend: str = "simulated",
             config: RuntimeConfig | None = None, **backend_opts) -> list:
    """:func:`spmd_run_detailed`, returning only the per-location return
    values."""
    return spmd_run_detailed(fn, nlocs, machine, args, placement, backend,
                             config, **backend_opts).results
