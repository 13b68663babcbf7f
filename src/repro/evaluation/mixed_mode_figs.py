"""Mixed-mode topology study: hierarchical collectives + node-aware slab
routing.

Not a paper figure — it isolates the node-topology half of the runtime the
way ``bulk_figs`` isolates slab aggregation and ``combining_figs`` isolates
combining.  The paper's runtime is mixed-mode (shared memory within a node,
MPI across nodes; Ch. III.B), and its scalability hinges on intra-node
traffic being far cheaper than the network.

``mixed_mode_topology_study`` tabulates the two-level collective tree
against the flat ``alpha * ceil(log2 P) + beta`` model and measures the
node-aware ``bulk_exchange`` coalescing (packed vs. spread placement) on
each machine model.
"""

from __future__ import annotations

from ..runtime.machine import get_machine
from .harness import ExperimentResult, run_spmd_timed


def mixed_mode_topology_study(
        machines=("cray4", "cray5", "p5cluster")) -> ExperimentResult:
    """Two-level collectives and node-aware slab routing per machine model.

    For each machine: two fully-populated nodes (P = 2 * cores_per_node),
    the flat vs. hierarchical fence-tree cost, and the physical messages of
    a personalised all-to-all under packed (node-aware coalescing applies)
    vs. spread placement (every location its own node — flat behaviour).
    Asserts the hierarchical tree is never more expensive than the flat one
    and degenerates to it exactly when ``cores_per_node == 1``.
    """
    import numpy as np

    res = ExperimentResult(
        "Mixed-mode topology: hierarchical collectives + slab coalescing",
        ["machine", "P", "nodes", "flat_us", "hier_us", "xchg_msgs_spread",
         "xchg_msgs_packed", "coalesced"],
        notes="collective tree: intra-node stage to a node leader + "
              "inter-node stage across leaders; exchange: slabs for one "
              "remote node share one coalesced inter-node message")

    def prog(ctx):
        slabs = [np.full(32, ctx.id * ctx.nlocs + d) for d in range(ctx.nlocs)]
        got = ctx.bulk_exchange(slabs, nelems=32 * ctx.nlocs)
        ctx.rmi_fence()
        return [int(r[0]) for r in got]

    for name in machines:
        m = get_machine(name)
        P = 2 * m.cores_per_node
        flat = m.collective_cost(P)
        hier = m.hierarchical_collective_cost(range(P), P)
        if hier > flat:
            raise AssertionError(
                f"{name}: hierarchical collective ({hier:.2f}us) costs more "
                f"than the flat tree ({flat:.2f}us)")
        if m.with_(cores_per_node=1).hierarchical_collective_cost(
                range(P), P) != flat:
            raise AssertionError(
                f"{name}: hierarchical tree with one core per node must "
                "equal the flat tree")
        counts = {}
        for placement in ("spread", "packed"):
            results, _, stats = run_spmd_timed(prog, P, name,
                                               placement=placement)
            for d, got in enumerate(results):
                if got != [s * P + d for s in range(P)]:
                    raise AssertionError(
                        f"{name}/{placement}: exchange delivered wrong slabs")
            counts[placement] = (stats.physical_messages,
                                 stats.coalesced_messages)
        if counts["packed"][0] >= counts["spread"][0]:
            raise AssertionError(
                f"{name}: node-aware routing did not reduce physical "
                "messages")
        res.add(name, P, 2, flat, hier, counts["spread"][0],
                counts["packed"][0], counts["packed"][1])
    return res
