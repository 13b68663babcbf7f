"""Migration-subsystem study: load-driven rebalancing under skew, and the
per-location lookup cache.

Not a paper figure — it measures what the container-generic migration
subsystem (PR 4) unlocks, on the workload class pSTL-Bench (Laso et al.,
2024) motivates: skewed access.

* ``migration_skew_study`` — hot-key wordcount: a pHashMap over-decomposed
  into 4 hash buckets per location, with the key stream weighted so the
  buckets on location 0 receive ``SKEW``x (4x) the per-location average
  traffic.  A training window feeds the per-bContainer access counters,
  then the same stream is replayed measured — once on the static
  placement, once after a load-driven ``rebalance()``.  The driver asserts
  the rebalanced run is >= 2x faster in simulated time and that the
  reduced counts (and spot-check lookups) are byte-identical.
* ``migration_graph_study`` — dynamic graph growth: location 0 grows its
  share of the graph to ``SKEW``x the per-location average, then every
  location fires a uniform asynchronous ``apply_vertex`` sweep (the
  overloaded owner's execution queue is the bottleneck the rebalance
  dissolves).  Same >= 2x / identical-results assertions.
* ``lookup_cache_study`` — repeated-access microbenchmark: each location
  re-reads the same remote keys/elements; with the cache on, only the
  first touch pays ``charge_lookup``.  Asserts >= 5x fewer charged
  lookups than with the cache off.
"""

from __future__ import annotations

import random

from ..containers.associative import PHashMap
from ..containers.parray import PArray
from ..containers.pgraph import PGraph
from ..runtime import RuntimeConfig
from ..workloads.corpus import owner_keyed_vocabulary
from .harness import ExperimentResult, run_spmd_report, run_spmd_timed

#: the hot location receives SKEW times the per-location average traffic
SKEW = 4
#: over-decomposition factor (hash buckets per location)
BUCKETS_PER_LOC = 4


def _hot_weight(nbc: int, n_hot: int, P: int) -> float:
    """Per-bucket weight for the hot buckets such that they jointly draw a
    ``SKEW / P`` share of the traffic (cold buckets weigh 1)."""
    if P <= SKEW:
        raise ValueError(
            f"the skew studies need P > {SKEW} locations (one location "
            f"cannot receive {SKEW}x the average of {P})")
    cold = nbc - n_hot
    return SKEW * cold / (n_hot * (P - SKEW))


def _skewed_stream(buckets, hot_bcids, P, n_ops, seed) -> list:
    """Deterministic key stream under the hot-location skew."""
    rng = random.Random(seed)
    w_hot = _hot_weight(len(buckets), len(hot_bcids), P)
    weights = [w_hot if b in hot_bcids else 1.0
               for b in range(len(buckets))]
    picks = rng.choices(range(len(buckets)), weights=weights, k=n_ops)
    return [buckets[b][i % len(buckets[b])] for i, b in enumerate(picks)]


def migration_skew_study(P: int = 8, ops_per_loc: int = 3000,
                         machine: str = "cray4") -> ExperimentResult:
    """Hot-key wordcount, static placement vs load-driven rebalance."""
    _hot_weight(BUCKETS_PER_LOC * P, BUCKETS_PER_LOC, P)  # validate P early
    nbc = BUCKETS_PER_LOC * P
    buckets = owner_keyed_vocabulary(nbc, 8)
    # the default cyclic mapper places bucket b on location b % P: the
    # buckets starting on location 0 are the hot set
    hot = {b for b in range(nbc) if b % P == 0}

    def prog(ctx, rebalanced):
        hm = PHashMap(ctx, num_bcontainers=nbc)
        stream = _skewed_stream(buckets, hot, ctx.nlocs, ops_per_loc,
                                seed=101 + 13 * ctx.id)
        # training window: builds the counts and the access counters the
        # rebalancer bin-packs on
        hm.accumulate_batch((w, 1) for w in stream)
        ctx.rmi_fence(hm.group)
        if rebalanced:
            hm.rebalance()
        # warm-up window (unmeasured, both modes): re-learns lookup-cache
        # routes after the rebalance epoch bump, so the measurement
        # compares steady states
        hm.accumulate_batch((w, 1) for w in stream)
        ctx.rmi_fence(hm.group)
        # measured phase: the same skewed stream again — the overloaded
        # owner's execution queue is the bottleneck the rebalance dissolves
        t0 = ctx.start_timer()
        hm.accumulate_batch((w, 1) for w in stream)
        ctx.rmi_fence(hm.group)
        t = ctx.stop_timer(t0)
        # barrier before the verification reads: their sync round trips
        # must not leak into locations that have not read their timer yet
        ctx.barrier(hm.group)
        spot = [hm.find_val(w)[0] for w in stream[:50]]
        return t, spot, hm.to_dict()

    res = ExperimentResult(
        "Migration: hot-key wordcount, static vs load-driven rebalance",
        ["mode", "N_ops", "time_us", "migrated_bcs", "redirects"],
        notes=f"location 0's buckets receive {SKEW}x the per-location "
              f"average traffic ({BUCKETS_PER_LOC} hash buckets/location); "
              "measured phase replays the training stream")

    outcome = {}
    for label, rebalanced in (("static", False), ("rebalanced", True)):
        results, _, stats = run_spmd_timed(prog, P, machine, (rebalanced,))
        t = max(r[0] for r in results)
        outcome[label] = (t, [r[1] for r in results], results[0][2])
        res.add(label, ops_per_loc * P, t, stats.bcontainers_migrated,
                stats.stale_redirects)

    if outcome["static"][1] != outcome["rebalanced"][1]:
        raise AssertionError("rebalancing changed the lookup results")
    if outcome["static"][2] != outcome["rebalanced"][2]:
        raise AssertionError("rebalancing changed the reduced word counts")
    ratio = outcome["static"][0] / max(1e-9, outcome["rebalanced"][0])
    res.notes += f"; time ratio static/rebalanced = {ratio:.1f}x"
    if ratio < 2:
        raise AssertionError(
            f"migration ablation: rebalanced only {ratio:.1f}x faster "
            "(expected >= 2x)")
    return res


def migration_graph_study(P: int = 8, verts_per_loc: int = 40,
                          sweeps: int = 6,
                          machine: str = "cray4") -> ExperimentResult:
    """Dynamic graph growth with an overloaded location, static vs
    load-driven rebalance; the measured phase is a uniform asynchronous
    ``apply_vertex`` sweep over the grown graph."""
    if P <= SKEW:
        raise ValueError(
            f"the skew studies need P > {SKEW} locations (one location "
            f"cannot hold {SKEW}x the average share of {P})")
    nbc = BUCKETS_PER_LOC * P
    visit_cost_us = 1.0  # modelled per-visit compute, charged at the owner

    def prog(ctx, rebalanced):
        g = PGraph(ctx, 0, dynamic=True, num_bcontainers=nbc,
                   default_property=0)

        def bump(vertex) -> None:
            # g.here is the *executing* location (the vertex's owner)
            g.here.charge(visit_cost_us)
            vertex.property = vertex.property + 1
        # growth: location 0 ends up holding SKEW x the per-location
        # average share of the vertices
        mine = (verts_per_loc * SKEW * (P - 1) // (P - SKEW)
                if ctx.id == 0 else verts_per_loc)
        vds = [g.add_vertex(vp=0) for _ in range(mine)]
        for k in range(1, len(vds)):
            g.add_edge_async(vds[k - 1], vds[k])
        ctx.rmi_fence(g.group)
        all_vds = sorted(
            v for chunk in ctx.allgather_rmi(vds, group=g.group)
            for v in chunk)
        if rebalanced:
            g.rebalance()
        my_slice = all_vds[ctx.id::ctx.nlocs]
        # warm-up sweep (unmeasured, both modes): re-learns lookup-cache
        # routes after the rebalance epoch bump
        for vd in my_slice:
            g.apply_vertex(vd, bump)
        ctx.rmi_fence(g.group)
        # measured phase: every location visits an interleaved slice of
        # the whole vertex set, `sweeps` times (asynchronous visitors ride
        # the combining buffers; execution lands on the owners)
        t0 = ctx.start_timer()
        for _ in range(sweeps):
            for vd in my_slice:
                g.apply_vertex(vd, bump)
        ctx.rmi_fence(g.group)
        t = ctx.stop_timer(t0)
        props = sorted(
            (vd, bc.vertex_property(vd))
            for bc in g.local_bcontainers() for vd in bc.vertices())
        gathered = ctx.allgather_rmi(props, group=g.group)
        merged = sorted(p for chunk in gathered for p in chunk)
        return t, merged, g.get_num_edges()

    res = ExperimentResult(
        "Migration: dynamic graph growth, static vs load-driven rebalance",
        ["mode", "N_vertices", "time_us", "migrated_bcs", "redirects"],
        notes=f"location 0 grows to {SKEW}x the per-location average; "
              f"measured phase is {sweeps} uniform async apply_vertex "
              "sweeps")

    outcome = {}
    n_total = None
    for label, rebalanced in (("static", False), ("rebalanced", True)):
        results, _, stats = run_spmd_timed(prog, P, machine, (rebalanced,))
        t = max(r[0] for r in results)
        outcome[label] = (t, results[0][1], results[0][2])
        n_total = len(results[0][1])
        res.add(label, n_total, t, stats.bcontainers_migrated,
                stats.stale_redirects)

    if outcome["static"][1] != outcome["rebalanced"][1]:
        raise AssertionError("rebalancing changed the visited properties")
    if outcome["static"][2] != outcome["rebalanced"][2]:
        raise AssertionError("rebalancing changed the edge count")
    ratio = outcome["static"][0] / max(1e-9, outcome["rebalanced"][0])
    res.notes += f"; time ratio static/rebalanced = {ratio:.1f}x"
    if ratio < 2:
        raise AssertionError(
            f"graph migration ablation: rebalanced only {ratio:.1f}x "
            "faster (expected >= 2x)")
    return res


def migration_backend_study(P: int = 8, ops_per_loc: int = 600,
                            machine: str = "cray4") -> ExperimentResult:
    """The hot-key wordcount under the multiprocessing backend: measured
    wall seconds next to the virtual clocks, with the simulated run as
    the correctness oracle.

    The >=2x simulated-time win stays asserted in
    :func:`migration_skew_study`; real wall clocks on an arbitrary host
    (often 1 CPU in CI) are *recorded*, not asserted — process timeshare
    dilutes the queueing effect the virtual model isolates."""
    _hot_weight(BUCKETS_PER_LOC * P, BUCKETS_PER_LOC, P)  # validate P early
    nbc = BUCKETS_PER_LOC * P
    buckets = owner_keyed_vocabulary(nbc, 8)
    hot = {b for b in range(nbc) if b % P == 0}

    def prog(ctx, rebalanced):
        hm = PHashMap(ctx, num_bcontainers=nbc)
        stream = _skewed_stream(buckets, hot, ctx.nlocs, ops_per_loc,
                                seed=101 + 13 * ctx.id)
        hm.accumulate_batch((w, 1) for w in stream)
        ctx.rmi_fence(hm.group)
        if rebalanced:
            hm.rebalance()
        t0 = ctx.start_timer()
        hm.accumulate_batch((w, 1) for w in stream)
        ctx.rmi_fence(hm.group)
        t = ctx.stop_timer(t0)
        ctx.barrier(hm.group)
        spot = [hm.find_val(w)[0] for w in stream[:50]]
        return t, spot, hm.to_dict()

    res = ExperimentResult(
        "Migration under real processes: hot-key wordcount wall-clock",
        ["mode", "N_ops", "sim_time_us", "mp_wall_s", "migrated_bcs"],
        notes=f"{machine}, P={P}; mp rows are measured wall seconds, "
              "sim rows the virtual oracle; counts byte-identical across "
              "backends and placements by assertion")

    outcome = {}
    for label, rebalanced in (("static", False), ("rebalanced", True)):
        sim = run_spmd_report(prog, P, machine, (rebalanced,))
        mp = run_spmd_report(prog, P, machine, (rebalanced,),
                             backend="multiprocessing", timeout=300.0)
        sim_out = [(r[1], r[2]) for r in sim.results]
        mp_out = [(r[1], r[2]) for r in mp.results]
        if sim_out != mp_out:
            raise AssertionError(
                f"skew wordcount ({label}): multiprocessing backend "
                "diverged from the simulated oracle")
        outcome[label] = sim_out[0]
        res.add(label, ops_per_loc * P,
                max(r[0] for r in sim.results),
                round(mp.wall_seconds, 4),
                mp.stats.total.bcontainers_migrated)
    if outcome["static"] != outcome["rebalanced"]:
        raise AssertionError(
            "rebalancing changed results under the backend study")
    return res


def lookup_cache_study(P: int = 4, keys_per_loc: int = 48,
                       repeats: int = 16,
                       machine: str = "cray4") -> ExperimentResult:
    """Repeated-access microbenchmark: charged lookups with the lookup
    cache on vs off (same programs, same results)."""
    buckets = owner_keyed_vocabulary(P, keys_per_loc)

    def prog(ctx):
        hm = PHashMap(ctx)
        pa = PArray(ctx, 64 * ctx.nlocs, dtype=int)
        my_keys = buckets[(ctx.id + 1) % ctx.nlocs]  # 100% remote
        hm.insert_range((w, len(w)) for w in my_keys)
        ctx.rmi_fence()
        lk0 = ctx.stats.lookups_charged
        t0 = ctx.start_timer()
        acc = 0
        for _ in range(repeats):
            for w in my_keys:
                acc += hm.find_val(w)[0]
            for gid in range(0, 64 * ctx.nlocs, 16):
                acc += int(pa.get_element(gid))
        ctx.rmi_fence()
        return (ctx.stop_timer(t0), ctx.stats.lookups_charged - lk0, acc)

    res = ExperimentResult(
        "Lookup cache: repeated remote accesses, cache on vs off",
        ["mode", "accesses", "time_us", "charged_lookups", "cache_hits"],
        notes="each location re-reads the same remote keys/elements "
              f"{repeats}x; hits skip charge_lookup entirely")

    outcome = {}
    for label, on in (("cache", True), ("no_cache", False)):
        results, _, stats = run_spmd_timed(
            prog, P, machine, config=RuntimeConfig(lookup_cache=on))
        charged = sum(r[1] for r in results)
        outcome[label] = (charged, [r[2] for r in results])
        accesses = repeats * (keys_per_loc + 4 * P) * P
        res.add(label, accesses, max(r[0] for r in results), charged,
                stats.lookup_cache_hits)

    if outcome["cache"][1] != outcome["no_cache"][1]:
        raise AssertionError("the lookup cache changed results")
    ratio = outcome["no_cache"][0] / max(1, outcome["cache"][0])
    res.notes += f"; charged-lookup ratio off/on = {ratio:.1f}x"
    if ratio < 5:
        raise AssertionError(
            f"lookup cache: only {ratio:.1f}x fewer charged lookups "
            "(expected >= 5x)")
    return res
