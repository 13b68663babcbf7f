"""Single-source shortest paths on pGraph (Bellman–Ford relaxation).

Two execution modes:

* **Level-asynchronous** (default, the PARAGRAPH path of
  :mod:`repro.algorithms.prange`): every improvement spawns a per-vertex
  relax task at the vertex's owner; relaxations to remote vertices ride the
  graph's asynchronous visitor routing and are counted as dependence
  messages, so waves propagate as fast as the network delivers them — no
  per-round fence.  Termination is the Paragraph quiescence reduction: all
  locations idle and every relaxation message executed.

* **Level-synchronous baseline** (``RuntimeConfig(dataflow=False)``): rounds
  of relaxations separated by fences, termination by a global no-change
  reduction.

Both modes leave byte-identical distances (Bellman–Ford is confluent: the
final property is the pointwise minimum over path weights regardless of
relaxation order).  Edge weights come from the edge property (default
weight 1).
"""

from __future__ import annotations

from .graph_algorithms import _AlgoState, _init_properties, _local_bc_of
from .prange import Paragraph

INF = float("inf")


def sssp(graph, source: int, default_weight: float = 1.0):
    """Bellman–Ford; leaves each vertex property set to its distance (or
    ``inf`` if unreachable).  Returns the number of rounds: relaxation
    rounds in level-synchronous mode, quiescence-reduction rounds in the
    asynchronous data-flow mode."""
    if graph.ctx.config.dataflow:
        return _sssp_async(graph, source, default_weight)
    return _sssp_level_sync(graph, source, default_weight)


def _sssp_async(graph, source: int, default_weight: float):
    """Level-asynchronous relaxation on a dynamic Paragraph."""
    ctx = graph.ctx
    rt = graph.runtime
    group = graph.group
    pg = Paragraph(ctx, group=group)
    phandle = pg.handle
    ghandle = graph.handle

    def expand(arg):
        """Per-vertex relax task: push this vertex's (already committed)
        distance across its out-edges.  Runs in the owner's executor
        loop, so the sends happen outside any RMI handler."""
        vd, dist = arg
        loc = rt.current_location
        g = rt.lookup(ghandle, loc.id)
        rep = rt.lookup(phandle, loc.id)
        bc = _local_bc_of(g, vd)
        if bc.vertex_property(vd) < dist:
            return  # a better relaxation superseded this task
        for (_s, tgt, prop) in bc.edges_of(vd):
            w = prop if isinstance(prop, (int, float)) else default_weight
            rep._sent += 1
            g.apply_vertex(tgt, _make_visit(dist + w))

    def _make_visit(dist):
        def visit(vrec):
            loc = rt.current_location
            rep = rt.lookup(phandle, loc.id)
            rep._received += 1
            if rt.current_origin != loc.id:
                # the relaxation crossed locations: one dependence message
                loc.stats.dependence_messages += 1
            if dist < vrec.property:
                vrec.property = dist
                rep.add_task(expand, (vrec.vd, dist))
        return visit

    _init_properties(graph, lambda _vd: INF)
    ctx.barrier(group)
    if ctx.id == group.members[0]:
        pg._sent += 1
        graph.apply_vertex(source, _make_visit(0.0))
    rounds = pg.run_quiescent()
    pg.destroy()
    return rounds


def _sssp_level_sync(graph, source: int, default_weight: float):
    """Fence-per-round baseline (``RuntimeConfig(dataflow=False)``)."""
    ctx = graph.ctx
    rt = graph.runtime
    group = graph.group
    state = _AlgoState(ctx, group)
    shandle = state.handle

    def make_relax(dist):
        def visit(vrec):
            if dist < vrec.property:
                vrec.property = dist
                rt.lookup(shandle, rt.current_location.id).flag = True
        return visit

    _init_properties(graph, lambda _vd: INF)
    ctx.barrier(group)
    if ctx.id == group.members[0]:
        graph.apply_vertex(source, make_relax(0.0))
    ctx.rmi_fence(group)
    state.flag = False

    rounds = 0
    while True:
        for bc in graph.local_bcontainers():
            for vd in bc.vertices():
                d = bc.vertex_property(vd)
                if d == INF:
                    continue
                for (_, tgt, prop) in bc.edges_of(vd):
                    w = prop if isinstance(prop, (int, float)) else default_weight
                    graph.apply_vertex(tgt, make_relax(d + w))
        ctx.rmi_fence(group)
        changed = ctx.allreduce_rmi(state.flag, lambda a, b: a or b,
                                    group=group)
        state.flag = False
        rounds += 1
        if not changed:
            break
    state.destroy()
    return rounds


def distances_of(graph, vertices) -> list:
    """Convenience: read back distances for a list of vertices (sync)."""
    return [graph.vertex_property(v) for v in vertices]
