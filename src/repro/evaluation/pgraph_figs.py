"""pGraph evaluation drivers (Ch. XI.F, Figs. 49–56)."""

from __future__ import annotations

from ..containers.pgraph import PGraph
from ..workloads.meshes import local_mesh_edges
from ..workloads.ssca2 import SSCA2Spec, local_edges
from .harness import ExperimentResult, run_spmd_timed

_DEF_PS = (1, 2, 4, 8)


def _build_ssca2(ctx, n, dynamic, forwarding=True):
    g = PGraph(ctx, n, directed=True, dynamic=dynamic, forwarding=forwarding,
               default_property=0)
    spec = SSCA2Spec(num_vertices=n)
    for (u, v) in local_edges(spec, ctx.id, ctx.nlocs):
        g.add_edge_async(u, v)
    ctx.rmi_fence()
    return g


def fig49_50_pgraph_methods(machines=("cray4", "p5cluster"), P=4,
                            n=256) -> ExperimentResult:
    """Static vs dynamic pGraph methods with the SSCA2 generator
    (Figs. 49/50): add_edge, find_vertex, out_degree, add_vertex."""
    res = ExperimentResult(
        "Fig.49/50 pGraph methods (SSCA2)",
        ["machine", "kind", "method", "total_us", "per_op_us"],
        notes="static translation is closed form; dynamic pays directory")

    def prog(ctx, machine_kind):
        kind = machine_kind
        dynamic = kind == "dynamic"
        spec = SSCA2Spec(num_vertices=n)
        mine = local_edges(spec, ctx.id, ctx.nlocs)
        g = PGraph(ctx, n, directed=True, dynamic=dynamic,
                   default_property=0)
        out = {}
        ctx.rmi_fence()
        t0 = ctx.start_timer()
        for (u, v) in mine:
            g.add_edge_async(u, v)
        ctx.rmi_fence()
        out["add_edge"] = (ctx.stop_timer(t0), max(1, len(mine)))
        probe = [e[0] for e in mine[:200]] or [0]
        t0 = ctx.start_timer()
        for u in probe:
            g.find_vertex(u)
        ctx.rmi_fence()
        out["find_vertex"] = (ctx.stop_timer(t0), len(probe))
        t0 = ctx.start_timer()
        for u in probe:
            g.out_degree(u)
        ctx.rmi_fence()
        out["out_degree"] = (ctx.stop_timer(t0), len(probe))
        if dynamic:
            t0 = ctx.start_timer()
            for _ in range(100):
                g.add_vertex()
            ctx.rmi_fence()
            out["add_vertex"] = (ctx.stop_timer(t0), 100)
        return out

    for machine in machines:
        for kind in ("static", "dynamic"):
            results, _, _ = run_spmd_timed(prog, P, machine, (kind,))
            methods = results[0].keys()
            for m in methods:
                total = max(r[m][0] for r in results)
                nops = max(r[m][1] for r in results)
                res.add(machine, kind, m, total, total / nops)
    return res


def fig51_find_sources(P=4, n=192, machine="cray4") -> ExperimentResult:
    """find_sources under static / dynamic+forwarding / dynamic-no-forwarding
    partitions (Fig. 51).

    The per-location lookup cache is pinned off for this figure: it
    measures the paper's *raw* address-resolution regimes, and a cache hit
    would absorb exactly the repeated-interrogation cost the no-forwarding
    curve exists to show (the cached behaviour is its own study,
    ``lookup_cache``)."""
    from ..algorithms.graph_algorithms import find_sources
    from ..runtime import RuntimeConfig

    res = ExperimentResult(
        "Fig.51 find_sources by partition",
        ["partition", "time_us", "forwarded", "sync_rmis"],
        notes="paper ordering: static < dynamic+fwd < dynamic no-fwd "
              "(lookup cache off)")

    def prog(ctx, dynamic, forwarding):
        g = _build_ssca2(ctx, n, dynamic, forwarding)
        t0 = ctx.start_timer()
        find_sources(g)
        return ctx.stop_timer(t0)

    for label, dynamic, fwd in (("static", False, True),
                                ("dynamic_fwd", True, True),
                                ("dynamic_nofwd", True, False)):
        results, _, stats = run_spmd_timed(
            prog, P, machine, (dynamic, fwd),
            config=RuntimeConfig(lookup_cache=False))
        res.add(label, max(results), stats.forwarded, stats.sync_rmi_sent)
    return res


def fig52_partition_comparison(P=4, n=192, machine="cray4") -> ExperimentResult:
    """Comparison of pGraph partitions on a method+traversal mix (Fig. 52)."""
    from ..algorithms.graph_algorithms import bfs

    res = ExperimentResult(
        "Fig.52 pGraph partitions",
        ["partition", "build_us", "bfs_us"])

    def prog(ctx, dynamic, forwarding):
        t0 = ctx.start_timer()
        g = _build_ssca2(ctx, n, dynamic, forwarding)
        build = ctx.stop_timer(t0)
        t0 = ctx.start_timer()
        bfs(g, 0)
        return build, ctx.stop_timer(t0)

    for label, dynamic, fwd in (("static_blocked", False, True),
                                ("dynamic_fwd", True, True),
                                ("dynamic_nofwd", True, False)):
        results, _, _ = run_spmd_timed(prog, P, machine, (dynamic, fwd))
        res.add(label, max(r[0] for r in results), max(r[1] for r in results))
    return res


def fig53_55_graph_algorithms(machines=("cray4", "p5cluster"), P=4,
                              n=192) -> ExperimentResult:
    """pGraph algorithms: BFS, connected components, coloring, degree stats
    (Figs. 53–55)."""
    from ..algorithms.graph_algorithms import (
        bfs,
        connected_components,
        graph_coloring,
        out_degree_histogram,
    )

    res = ExperimentResult(
        "Fig.53-55 pGraph algorithms",
        ["machine", "algorithm", "time_us"])

    def prog(ctx):
        out = {}
        spec = SSCA2Spec(num_vertices=n)
        g = PGraph(ctx, n, directed=False, default_property=0)
        for (u, v) in local_edges(spec, ctx.id, ctx.nlocs):
            g.add_edge_async(u, v)
        ctx.rmi_fence()
        t0 = ctx.start_timer()
        bfs(g, 0)
        out["bfs"] = ctx.stop_timer(t0)
        t0 = ctx.start_timer()
        connected_components(g)
        out["connected_components"] = ctx.stop_timer(t0)
        t0 = ctx.start_timer()
        graph_coloring(g)
        out["coloring"] = ctx.stop_timer(t0)
        t0 = ctx.start_timer()
        out_degree_histogram(g)
        out["degree_stats"] = ctx.stop_timer(t0)
        return out

    for machine in machines:
        results, _, _ = run_spmd_timed(prog, P, machine)
        for algo in ("bfs", "connected_components", "coloring",
                     "degree_stats"):
            res.add(machine, algo, max(r[algo] for r in results))
    return res


def fig56_pagerank_meshes(P=4, cells=900, iterations=5,
                          machine="cray4") -> ExperimentResult:
    """PageRank on a square vs a long-thin mesh with the same vertex count
    (Fig. 56: 1500x1500 vs 15x150000, scaled preserving aspect ratios)."""
    import math

    from ..algorithms.graph_algorithms import page_rank

    res = ExperimentResult(
        "Fig.56 page rank mesh shapes",
        ["mesh", "vertices", "time_us"],
        notes="thin meshes cut fewer edges under blocked partitions")

    side = int(math.sqrt(cells))
    shapes = ((side, side), (max(3, side // 10), cells // max(3, side // 10)))

    def prog(ctx, rows, cols):
        nv = rows * cols
        g = PGraph(ctx, nv, directed=True, default_property=0)
        for (u, v) in local_mesh_edges(rows, cols, ctx.id, ctx.nlocs):
            g.add_edge_async(u, v)
        ctx.rmi_fence()
        t0 = ctx.start_timer()
        page_rank(g, iterations=iterations)
        return ctx.stop_timer(t0)

    for rows, cols in shapes:
        results, _, _ = run_spmd_timed(prog, P, machine, (rows, cols))
        res.add(f"{rows}x{cols}", rows * cols, max(results))
    return res
