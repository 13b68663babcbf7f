"""Bulk element-transport study: per-element RMIs vs slab transfers.

Not a paper figure — it isolates the win of the bulk-RMI subsystem
(``bulk_get_range`` / ``bulk_set_range``): a map and a reduce over a
*misaligned* balanced view, where every element the view touches lives on a
remote location.  The per-element path pays one RMI per element (sync reads,
aggregated async writes); the bulk path moves one slab per (src, dst) pair.
The paper's aggregation argument (Ch. III.B) predicts an order-of-magnitude
drop in physical messages — this driver measures it.
"""

from __future__ import annotations

from ..containers.parray import PArray
from ..core.mappers import GeneralMapper
from ..core.traits import Traits
from ..runtime import RuntimeConfig
from ..views.array_views import Array1DView, BalancedView
from .harness import ExperimentResult, run_spmd_timed


def bulk_transport_study(P=8, n_per_loc=15000,
                         machine="cray4") -> ExperimentResult:
    """map / reduce over a 100%-remote balanced view, bulk path on vs off.

    The pArray keeps its default balanced partition but the block→location
    mapping is rotated by one, so each location's balanced slice is owned by
    its neighbour: every access is remote, the worst case for per-element
    transport and the best showcase for slabs.
    """
    from ..algorithms.generic import p_accumulate, p_for_each

    res = ExperimentResult(
        "Bulk element transport (map/reduce, 100% remote balanced view)",
        ["algorithm", "path", "N", "time_us", "physical_msgs",
         "bulk_rmis", "MB_sent"],
        notes="bulk: one slab per (src,dst) pair; per_element: one RMI per "
              "element")

    def prog(ctx, which):
        n = n_per_loc * ctx.nlocs
        rotated = [(i + 1) % ctx.nlocs for i in range(ctx.nlocs)]
        traits = Traits(mapper_factory=lambda: GeneralMapper(rotated))
        pa = PArray(ctx, n, dtype=float, traits=traits)
        view = BalancedView(Array1DView(pa))
        ctx.rmi_fence()
        t0 = ctx.start_timer()
        if which == "map":
            p_for_each(view, lambda x: x + 1.0, vector=lambda a: a + 1.0)
        else:
            p_accumulate(view, 0.0)
        return ctx.stop_timer(t0)

    n = n_per_loc * P
    for algo in ("map", "reduce"):
        for label, on in (("per_element", False), ("bulk", True)):
            results, _, stats = run_spmd_timed(
                prog, P, machine, (algo,),
                config=RuntimeConfig(bulk_transport=on))
            res.add(algo, label, n, max(results), stats.physical_messages,
                    stats.bulk_rmi_sent, stats.bytes_sent / 1e6)
    return res
