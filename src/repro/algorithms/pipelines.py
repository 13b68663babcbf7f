"""Multi-phase algorithm pipelines compiled to a single PARAGRAPH.

The point of the dependence-driven executor is that *chained* algorithm
phases stop paying a global ``rmi_fence`` per phase: values flow from
producer tasks to consumer tasks over data-flow edges and the containers
are committed by one closing fence.  :func:`p_sort_scan_pipeline` is the
canonical multi-phase workload (sort → prefix-sum → adjacent-difference,
all over the sorted data) used by ``evaluation/paragraph_figs.py``; with
the data-flow path off it degrades to the classic fence-per-phase sequence
of the three standalone algorithms.
"""

from __future__ import annotations

import operator

from .generic import (
    build_diff_tasks,
    build_scan_tasks,
    p_adjacent_difference,
    p_partial_sum,
)
from .prange import Paragraph
from .sorting import build_sort_tasks, p_sample_sort


def p_sort_scan_pipeline(src, sum_dst, diff_dst, oversample: int = 4,
                         op=operator.add) -> None:
    """Sort ``src`` in place, then write prefix sums of the sorted data to
    ``sum_dst`` and adjacent differences to ``diff_dst`` (collective).

    Data-flow mode: one Paragraph, one closing fence.  The scan and
    difference phases consume each location's merged run directly (it *is*
    the sorted segment at ``offset``), with the carry and the boundary
    value travelling as neighbour-chain dependence messages — locations
    whose runs came up empty (fewer elements than locations, pathological
    splitters) forward the chain unchanged.

    Fenced baseline: the three standalone algorithms back to back, one
    fence each plus their collectives.

    Results are byte-identical between the modes for exact element types
    (the evaluation drives it with integers)."""
    if not src.ctx.config.dataflow:
        p_sample_sort(src, oversample)
        p_partial_sum(src, sum_dst, op)
        p_adjacent_difference(src, diff_dst)
        return

    pg = Paragraph(src.ctx, views=(src, sum_dst, diff_dst))
    st: dict = {}
    sorted_t = build_sort_tasks(pg, src, oversample, st)
    # the scan and difference phases consume each location's merged run
    # in place — it *is* the sorted segment at st["offset"] — through the
    # same carry-/boundary-chain task builders the standalone algorithms
    # use over balanced slices
    build_scan_tasks(pg, sum_dst, lambda: st["merged"],
                     lambda: st["offset"], op, inclusive=True,
                     after=(sorted_t,))
    build_diff_tasks(pg, diff_dst, lambda: st["merged"],
                     lambda: st["offset"], after=(sorted_t,))
    pg.run()
    pg.destroy()
