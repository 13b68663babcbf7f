"""pRange and the dependence-driven task-graph executor (Ch. III / Fig. 1).

The paper's Fig. 1 stack places an executor/scheduler between pViews and
the runtime: a computation is a *task graph* over view chunks, and tasks
fire when their dependences are satisfied — the PARAGRAPH engine of later
STAPL work.  Two layers live here:

* :class:`PRange` + :class:`Executor` — this location's portion of a task
  graph with intra-location dependencies.  The executor is a ready-queue
  scheduler: every task carries a successor list and an unmet-dependence
  count, so completing a task triggers its successors in O(1) instead of
  rescanning the pending list (the seed's O(n²) behaviour).  The run closes
  with the automatic synchronisation point of Ch. VII.H applied to *every*
  view (fence per distinct group, ``post_execute`` per distinct container).

* :class:`Paragraph` — a collectively-constructed task graph with
  **cross-location data-flow edges**.  A producer task's completion sends a
  split-phase "dependence satisfied" RMI carrying the produced value to the
  consumer task registered under a key on another location; consumers with
  outstanding inputs block without fencing — the executor drains incoming
  RMIs and yields the baton (``Location.task_yield``) until the inputs
  arrive.  Multi-phase algorithms built this way (sample sort, prefix sums,
  level-async SSSP) need no global ``rmi_fence`` between phases: one fence
  at the very end commits container writes.  Dynamic graphs terminate by a
  quiescence reduction: all locations idle and #dependence messages sent ==
  #executed, snapshot consistently at an allreduce rendezvous.  ``run`` is
  re-entrant: a task may spawn and drain an *inner* Paragraph over a nested
  container (two-level parallelism, Ch. IV.C) — see :meth:`Paragraph._enter`.

The data-parallel pAlgorithms of :mod:`repro.algorithms.generic` compile to
single-phase pRanges; the sorting/scan/SSSP algorithms build Paragraphs when
the data-flow path is on (``RuntimeConfig.dataflow``) and fall back to their
fence-per-phase forms when it is off, so both remain measurable head-to-head
(``evaluation/paragraph_figs.py``).
"""

from __future__ import annotations

from collections import deque

from ..runtime.p_object import PObject
from ..views.base import as_wf, sync_views

class Task:
    """One unit of work: run ``action(chunk)`` once its dependences are
    satisfied.

    Intra-location edges are ``deps`` (other Task objects).  Cross-location
    edges (Paragraph tasks only) are counted by ``needs``: the task also
    waits for ``needs`` distinct tagged input values delivered by
    :meth:`Paragraph.send`; the action then runs as
    ``action(chunk, inputs)`` with the tag→value dict."""

    __slots__ = ("action", "chunk", "deps", "done", "result", "key", "needs",
                 "inputs", "succs", "_unmet", "_queued")

    def __init__(self, action, chunk, deps=(), key=None, needs=0):
        self.action = action
        self.chunk = chunk
        self.deps = tuple(deps)
        self.done = False
        self.result = None
        self.key = key
        self.needs = needs
        self.inputs: dict = {}
        self.succs: list = []
        self._unmet = 0
        self._queued = False

    def run(self):
        if self.needs:
            self.result = self.action(self.chunk, self.inputs)
        else:
            self.result = self.action(self.chunk)
        self.done = True
        return self.result


class PRange:
    """This location's portion of a computation's task graph."""

    def __init__(self, views):
        self.views = views if isinstance(views, (list, tuple)) else [views]
        self.tasks: list[Task] = []

    def add_task(self, action, chunk=None, deps=()) -> Task:
        t = Task(action, chunk, deps)
        self.tasks.append(t)
        return t

    @classmethod
    def map_over(cls, view, action) -> "PRange":
        """One task per local chunk of ``view``."""
        pr = cls(view)
        for chunk in view.local_chunks():
            pr.add_task(action, chunk)
        return pr


class Executor:
    """Executes a pRange's local tasks respecting dependencies, then
    synchronises (the executor + scheduler of Fig. 1).

    Scheduling is a ready queue with successor-count triggering: one pass
    wires each task's successor list and unmet-dependence count (computed
    at run time, so dependences edited after construction still hold), then
    every completion decrements its successors' counts and enqueues the
    ones that reach zero — O(V + E) overall."""

    def __init__(self, fence: bool = True):
        self.fence = fence

    def run(self, prange: PRange) -> list:
        tasks = prange.tasks
        runnable = 0
        for t in tasks:
            t.succs = []
            t._unmet = 0
        for t in tasks:
            if t.done:
                continue
            runnable += 1
            for d in t.deps:
                if not d.done:
                    d.succs.append(t)
                    t._unmet += 1
        ready = deque(t for t in tasks if not t.done and t._unmet == 0)
        loc = prange.views[0].ctx if prange.views else None
        results = []
        executed = 0
        while ready:
            t = ready.popleft()
            results.append(t.run())
            executed += 1
            for s in t.succs:
                s._unmet -= 1
                if s._unmet == 0:
                    ready.append(s)
        if loc is not None and executed:
            loc.count_task(executed)
        if executed < runnable:
            raise RuntimeError("pRange dependency cycle")
        if self.fence and prange.views:
            sync_views(prange.views)
        return results


class Paragraph(PObject):
    """A dependence-driven task graph spanning locations (the PARAGRAPH).

    Collectively constructed (each location registers a representative
    under a common handle); each location adds its local tasks.  Tasks are
    wired three ways:

    * ``deps`` — intra-location edges to earlier tasks of this Paragraph;
    * ``key``/``needs`` — the consumer side of cross-location data-flow
      edges: the task waits for ``needs`` tagged values addressed to its
      key;
    * :meth:`send` — the producer side: deliver one value to the task
      registered under ``key`` on location ``dest``.  Remote sends travel
      as split-phase "dependence satisfied" RMIs (counted in
      ``dependence_messages``); local sends deliver in place.

    :meth:`run` executes local tasks in dependence order, draining RMIs
    and yielding the baton while blocked — no fence between phases; one
    closing fence commits container writes.  :meth:`run_quiescent` is the
    termination protocol for dynamic graphs (tasks spawned by incoming
    messages): repeat until a quiescence reduction observes every location
    idle with all dependence messages executed.
    """

    def __init__(self, ctx, views=(), group=None):
        if group is None:
            group = views[0].group if views else ctx.runtime.world
        self.views = list(views)
        self.tasks: list[Task] = []
        self._by_key: dict = {}
        self._early: dict = {}
        self._ready: deque = deque()
        self._executed = 0
        self._sent = 0
        self._received = 0
        # fields must exist before collective_register publishes this
        # representative: on a real backend a peer that finished
        # construction can deliver a _dependence RMI while we are still
        # inside the registration collective (its wait services requests).
        super().__init__(ctx, group)

    # -- graph construction ----------------------------------------------
    def add_task(self, action, chunk=None, deps=(), key=None,
                 needs: int = 0) -> Task:
        """Add a local task.  ``deps`` must be tasks of this Paragraph that
        were added earlier (edges are wired incrementally so tasks can be
        spawned while the graph runs)."""
        t = Task(action, chunk, deps, key=key, needs=needs)
        for d in t.deps:
            if not d.done:
                d.succs.append(t)
                t._unmet += 1
        self.tasks.append(t)
        if key is not None:
            if key in self._by_key:
                raise ValueError(f"duplicate Paragraph task key {key!r}")
            self._by_key[key] = t
            for tag, value in self._early.pop(key, ()):
                t.inputs[tag] = value
        self._maybe_ready(t)
        return t

    # -- data-flow edges ---------------------------------------------------
    def send(self, dest: int, key, value, tag=None) -> None:
        """Producer side of a data-flow edge: satisfy one tagged input of
        the consumer task registered under ``key`` on location ``dest``.

        ``tag`` defaults to the sending location's id; a consumer expecting
        ``needs`` inputs must receive ``needs`` *distinct* tags (its inputs
        dict is keyed by tag).  Local delivery is immediate; remote delivery
        is a fire-and-forget RMI completing when the consumer location
        drains it (poll / task_yield / fence)."""
        loc = self.here
        rep = (self if loc.id == self._ctx.id
               else self._runtime.lookup(self._handle, loc.id))
        if tag is None:
            tag = loc.id
        if dest == loc.id:
            loc.charge_access()
            rep._dependence(key, tag, value, _local=True)
            return
        rep._sent += 1
        loc.stats.dependence_messages += 1
        loc.async_rmi(dest, self._handle, "_dependence", key, tag, value)

    def _dependence(self, key, tag, value, _local: bool = False) -> None:
        """Handler for one "dependence satisfied" message (runs on the
        destination representative)."""
        if not _local:
            self._received += 1
        t = self._by_key.get(key)
        if t is None:
            # arrived before its consumer task was registered: park it
            self._early.setdefault(key, []).append((tag, value))
            return
        t.inputs[tag] = value
        self._maybe_ready(t)

    def _maybe_ready(self, t: Task) -> None:
        if (not t.done and not t._queued and t._unmet == 0
                and len(t.inputs) >= t.needs):
            t._queued = True
            self._ready.append(t)

    # -- execution ---------------------------------------------------------
    def _drain_until_ready(self, loc) -> int:
        """Execute buffered incoming RMIs one at a time, stopping as soon
        as a task unblocks.  Executing a message advances this location's
        clock to the message's arrival time, so draining eagerly would
        charge us for messages later phases raced ahead to send; leaving
        them buffered until a task actually needs them keeps independent
        per-location work parallel in the cost model."""
        rt = self._runtime
        n = 0
        while not self._ready and rt.progress(loc, one=True):
            n += 1
        return n

    def _run_ready(self, loc) -> int:
        n = 0
        while self._ready:
            t = self._ready.popleft()
            t.run()
            self._executed += 1
            n += 1
            for s in t.succs:
                s._unmet -= 1
                self._maybe_ready(s)
        if n:
            loc.count_task(n)
            stack = loc._paragraph_stack
            if len(stack) > 1 and stack[-1] is self:
                loc.stats.nested_tasks_executed += n
        return n

    def _group_progress(self) -> int:
        """Messages executed by plus tasks run on the group's members —
        the progress metric deadlock detection watches.  Scoped to the
        group where the backend can see it: traffic among outside
        locations must not mask a stuck subgroup Paragraph."""
        return self._runtime.group_progress(self.group.members)

    def _blocked_wait(self, loc, stall: int) -> int:
        """One blocked-executor step: yield the baton, drain RMIs, and
        track group progress for deadlock detection.  Returns the updated
        stall count; raises after a full conductor round with no progress
        anywhere in the group."""
        rt = self._runtime
        # anything this location buffered (combining-path container ops)
        # must reach the wire before it waits on others' progress
        loc.flush_combining()
        before = self._group_progress()
        loc.task_yield(drain=False)
        self._drain_until_ready(loc)
        if self._group_progress() != before:
            return 0
        stall += 1
        # patience scoped to this graph's (innermost) group: a sub-team
        # deadlocks when *its* members stop moving, regardless of world size
        if stall > rt.stall_limit(len(self.group)):
            waiting = [t.key for t in self.tasks
                       if not t.done and t.needs and len(t.inputs) < t.needs]
            raise RuntimeError(
                f"Paragraph deadlock on location {loc.id}: tasks blocked on "
                f"unsatisfied dependences (keys {waiting!r})")
        return stall

    def _enter(self, loc) -> None:
        """Push this graph on the location's executor stack.  ``run`` is
        re-entrant: a task of the currently-running graph may construct an
        inner Paragraph (usually over a nested container on a singleton
        group, Ch. IV.C) and drain it to completion before returning —
        the outer graph's ready queue, key registry and quiescence
        counters are all per-instance, so the inner graph never observes
        outer state.  While the inner graph blocks it yields the *outer*
        baton (``task_yield``), so other locations keep progressing and
        outer dependence messages drained meanwhile simply park on the
        outer instance."""
        if loc._paragraph_stack:
            loc.stats.nested_paragraphs += 1
            if len(self.group) > 1:
                loc.stats.nested_multi_paragraphs += 1
        loc._paragraph_stack.append(self)

    def run(self, fence: bool = True) -> int:
        """Execute until every local task has run (tasks added while
        running — by incoming messages — extend the goal).  Returns the
        number of tasks executed.  ``fence=True`` closes with the
        Ch. VII.H synchronisation point over the Paragraph's views."""
        loc = self.ctx
        self._enter(loc)
        try:
            stall = 0
            while True:
                ran = self._run_ready(loc)
                if self._executed >= len(self.tasks):
                    break
                if ran or self._drain_until_ready(loc):
                    stall = 0
                    continue
                stall = self._blocked_wait(loc, stall)
        finally:
            loc._paragraph_stack.pop()
        if fence:
            self.post_execute()
        return self._executed

    def run_quiescent(self) -> int:
        """Execute until global quiescence: every group member idle (no
        ready tasks) and every dependence message sent has been executed —
        checked by an allreduce over (sent, received) counter snapshots,
        which are stable while their location waits in the rendezvous.
        Returns the number of quiescence reduction rounds."""
        loc = self.ctx
        rounds = 0
        self._enter(loc)
        try:
            while True:
                progress = True
                while progress:
                    progress = bool(self._run_ready(loc) or loc.poll())
                    if not progress and loc.flush_combining():
                        # buffered combining-path ops (e.g. apply_vertex
                        # relaxations) count as sent the moment they were
                        # issued: push them into the channels before the
                        # quiescence snapshot, or sent == received never
                        # holds
                        progress = True
                rounds += 1
                sent, received = loc.allreduce_rmi(
                    (self._sent, self._received),
                    lambda a, b: (a[0] + b[0], a[1] + b[1]), group=self.group)
                if sent == received:
                    return rounds
        finally:
            loc._paragraph_stack.pop()

    def post_execute(self) -> None:
        """Closing synchronisation: fence the group, then commit every
        distinct container exactly once."""
        if self.views:
            sync_views(self.views)
        else:
            self.ctx.rmi_fence(self.group)


def run_map(view, action, fence: bool = True) -> list:
    """Convenience: map ``action`` over local chunks and synchronise."""
    return Executor(fence=fence).run(PRange.map_over(view, action))


__all__ = ["Executor", "PRange", "Paragraph", "Task", "as_wf", "run_map"]
