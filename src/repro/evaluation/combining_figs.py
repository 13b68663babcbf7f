"""Combining-buffer study: batched dynamic-container inserts vs scalar RMIs.

Not a paper figure — it isolates the second Ch. III.B communication-reduction
technique (*combining*) the way ``bulk_figs`` isolates aggregation-to-slabs:
a wordcount-style ``accumulate`` stream onto a pHashMap whose keys are 100%
remote (each location streams only keys owned by its neighbour), combining
on vs off.  BCL-style buffered insertion predicts an order-of-magnitude drop
in physical messages; the driver measures it, and asserts that the reduced
``to_dict()`` is bit-identical in both modes (batched == scalar semantics).

A second series repeats the ablation for ``insert_range`` (pure inserts)
and ``add_edges_batch`` on a pGraph to show the same win on the other
dynamic containers.
"""

from __future__ import annotations

from ..containers.associative import PHashMap
from ..containers.pgraph import PGraph
from ..runtime import RuntimeConfig
from ..workloads.corpus import owner_keyed_vocabulary, zipf_stream
from .harness import ExperimentResult, run_spmd_timed


def _modes():
    return (("combining", True), ("scalar", False))


def combining_study(P: int = 8, ops_per_loc: int = 16000,
                    vocab_per_owner: int = 400,
                    machine: str = "cray4") -> ExperimentResult:
    """Wordcount-style ``accumulate_batch`` with 100%-remote keys.

    ``op_msgs`` counts only the physical messages of the accumulate phase
    (to_dict's gather slabs are excluded); the driver raises if combining
    does not cut them by at least 10x or if the two modes' results differ.
    """
    buckets = owner_keyed_vocabulary(P, vocab_per_owner)

    def prog(ctx):
        hm = PHashMap(ctx)
        # 100% remote: stream only keys owned by the next location
        words = buckets[(ctx.id + 1) % ctx.nlocs]
        stream = zipf_stream(words, ops_per_loc, seed=11 + 13 * ctx.id)
        ctx.rmi_fence()
        msgs0 = ctx.stats.physical_messages
        t0 = ctx.start_timer()
        hm.accumulate_batch((w, 1) for w in stream)
        ctx.rmi_fence(hm.group)
        t = ctx.stop_timer(t0)
        op_msgs = ctx.stats.physical_messages - msgs0
        return t, op_msgs, hm.to_dict()

    res = ExperimentResult(
        "Combining buffers: wordcount accumulate, 100% remote keys",
        ["mode", "N_ops", "time_us", "op_msgs", "combined_ops",
         "flushes", "MB_sent"],
        notes="on: op records buffered per destination, one bulk message "
              "per window; off: one async RMI per op (scalar aggregation "
              "only)")

    outcome = {}
    for label, on in _modes():
        results, _, stats = run_spmd_timed(
            prog, P, machine, config=RuntimeConfig(combining=on))
        op_msgs = sum(r[1] for r in results)
        outcome[label] = (op_msgs, results[0][2])
        res.add(label, ops_per_loc * P, max(r[0] for r in results), op_msgs,
                stats.combined_ops, stats.combining_flushes,
                stats.bytes_sent / 1e6)

    if outcome["combining"][1] != outcome["scalar"][1]:
        raise AssertionError("combining changed the reduced word counts")
    ratio = outcome["scalar"][0] / max(1, outcome["combining"][0])
    res.notes += f"; message ratio scalar/combining = {ratio:.1f}x"
    if ratio < 10:
        raise AssertionError(
            f"combining ablation: only {ratio:.1f}x fewer physical messages "
            "(expected >= 10x)")
    return res


def combining_containers_study(P: int = 4, n_per_loc: int = 3000,
                               machine: str = "cray4") -> ExperimentResult:
    """The same on/off ablation for pHashMap ``insert_range`` and pGraph
    ``add_edges_batch`` (smaller scale; equivalence asserted per series)."""
    buckets = owner_keyed_vocabulary(P, max(64, n_per_loc // 8))

    def prog_insert(ctx):
        hm = PHashMap(ctx)
        words = buckets[(ctx.id + 1) % ctx.nlocs]
        stream = zipf_stream(words, n_per_loc, seed=3 + 7 * ctx.id)
        ctx.rmi_fence()
        msgs0 = ctx.stats.physical_messages
        t0 = ctx.start_timer()
        hm.insert_range((w, ctx.id) for w in stream)
        ctx.rmi_fence(hm.group)
        t = ctx.stop_timer(t0)
        return t, ctx.stats.physical_messages - msgs0, sorted(hm.to_dict())

    def prog_edges(ctx):
        n = n_per_loc * ctx.nlocs
        pg = PGraph(ctx, num_vertices=n)
        # ring + skip edges whose sources live on the next location
        lo = ((ctx.id + 1) % ctx.nlocs) * n_per_loc
        edges = [(lo + i, (lo + i * 17 + 1) % n) for i in range(n_per_loc)]
        ctx.rmi_fence()
        msgs0 = ctx.stats.physical_messages
        t0 = ctx.start_timer()
        pg.add_edges_batch(edges)
        ctx.rmi_fence(pg.group)
        t = ctx.stop_timer(t0)
        return t, ctx.stats.physical_messages - msgs0, pg.get_num_edges()

    res = ExperimentResult(
        "Combining buffers across dynamic containers",
        ["workload", "mode", "N_ops", "time_us", "op_msgs"],
        notes="insert_range on pHashMap; add_edges_batch on pGraph")

    for name, prog in (("phashmap_insert", prog_insert),
                       ("pgraph_edges", prog_edges)):
        outcome = {}
        for label, on in _modes():
            results, _, _ = run_spmd_timed(
                prog, P, machine, config=RuntimeConfig(combining=on))
            outcome[label] = results[0][2]
            res.add(name, label, n_per_loc * P, max(r[0] for r in results),
                    sum(r[1] for r in results))
        if outcome["combining"] != outcome["scalar"]:
            raise AssertionError(f"{name}: combining changed the result")
    return res
