"""Dependence-driven executor study: PARAGRAPH data-flow vs fence-per-phase.

Not a paper figure — it isolates the win of the task-graph executor
(``algorithms/prange.py``) the way ``bulk_figs`` isolates slab transport:
FooPar and BCL both attribute distributed-algorithm scalability to
replacing phase barriers with point-to-point completion, and this driver
measures exactly that trade on the repo's multi-phase workloads.

``paragraph_study`` runs the canonical multi-phase workload — sample sort,
then prefix sums and adjacent differences of the sorted data — in both
modes.  The fenced baseline pays one ``rmi_fence`` per algorithm plus its
collectives (sample allgather, bucket alltoall, two scans); the data-flow
pipeline compiles all phases into one PARAGRAPH whose samples, buckets,
offsets, carries and boundary values travel as dependence messages, closed
by a single fence.  It asserts byte-identical results, >= 2x fewer fences,
and lower simulated time.

``sort_transport_study`` is the regression guard for the sorting bulk-path
bugfix: the sort's portion read and sorted write-back must ride
``read_range``/``write_range`` slabs, not one scalar RMI per element.  It
runs the fenced sort (isolating transport from the executor) over 64k
elements whose block→location mapping is rotated by one — every
balanced-slice access is remote, the scalar-storm worst case — with the
bulk transport off and on, and asserts >= 10x fewer physical messages,
identical output.
"""

from __future__ import annotations

from ..algorithms.pipelines import p_sort_scan_pipeline
from ..algorithms.sorting import p_sample_sort
from ..containers.parray import PArray
from ..core.mappers import GeneralMapper
from ..core.traits import Traits
from ..runtime import RuntimeConfig
from ..views.array_views import Array1DView
from .harness import ExperimentResult, run_spmd_report, run_spmd_timed


def _scrambled(i):
    """Deterministic value permutation-ish generator (duplicates included)."""
    return (i * 2654435761) % 100003


def paragraph_study(P: int = 8, n_per_loc: int = 4000,
                    machine: str = "cray4",
                    backend: str = "simulated") -> ExperimentResult:
    """Multi-phase sort + scan workload, data-flow executor on vs off.

    Raises if the two modes disagree on any output array, if the baseline
    does not pay at least 2x the fences, or if data-flow is not faster.

    ``backend="multiprocessing"`` runs the same pipeline on real OS
    processes (ROADMAP item 1): the virtual-clock columns stay meaningful
    (the cost model runs inside each worker) and the ``wall_s`` column
    becomes real elapsed time instead of simulator overhead.
    """
    n = P * n_per_loc

    def prog(ctx):
        src = PArray(ctx, n, dtype=int)
        sums = PArray(ctx, n, dtype=int)
        diffs = PArray(ctx, n, dtype=int)
        sv = Array1DView(src)
        from ..algorithms.generic import p_generate

        p_generate(sv, _scrambled, vector=None)
        ctx.rmi_fence()
        fences0 = ctx.stats.fences
        colls0 = ctx.stats.collectives
        t0 = ctx.start_timer()
        p_sort_scan_pipeline(sv, Array1DView(sums), Array1DView(diffs))
        t = ctx.stop_timer(t0)
        fences = ctx.stats.fences - fences0
        colls = ctx.stats.collectives - colls0
        outcome = (src.to_list(), sums.to_list(), diffs.to_list())
        return t, fences, colls, outcome

    res = ExperimentResult(
        "PARAGRAPH executor: data-flow edges vs fence-per-phase baseline",
        ["mode", "N", "time_us", "wall_s", "fences", "collectives",
         "dep_msgs", "tasks", "physical_msgs"],
        notes=f"{machine}, P={P}, backend={backend or 'simulated'}; "
              "workload: sample sort -> prefix sums -> adjacent "
              "differences of the sorted data")

    outcome = {}
    for label, on in (("fenced", False), ("dataflow", True)):
        rep = run_spmd_report(prog, P, machine, backend=backend,
                              config=RuntimeConfig(dataflow=on))
        results, stats = rep.results, rep.stats.total
        outcome[label] = (max(r[0] for r in results),
                         max(r[1] for r in results), results[0][3])
        res.add(label, n, outcome[label][0], rep.wall_seconds,
                outcome[label][1], max(r[2] for r in results),
                stats.dependence_messages, stats.tasks_executed,
                stats.physical_messages)

    if outcome["dataflow"][2] != outcome["fenced"][2]:
        raise AssertionError(
            "data-flow mode changed the results (expected byte-identical "
            "to the fence-per-phase baseline)")
    f_base, f_df = outcome["fenced"][1], outcome["dataflow"][1]
    if f_base < 2 * max(1, f_df):
        raise AssertionError(
            f"paragraph study: baseline paid {f_base} fences vs {f_df} "
            "data-flow (expected >= 2x reduction)")
    t_base, t_df = outcome["fenced"][0], outcome["dataflow"][0]
    ratio = t_base / max(1e-9, t_df)
    res.notes += (f"; fences {f_base} -> {f_df}, "
                  f"time ratio fenced/dataflow = {ratio:.2f}x")
    if t_df >= t_base:
        raise AssertionError(
            f"paragraph study: data-flow not faster ({t_df:.1f}us vs "
            f"{t_base:.1f}us baseline)")
    return res


def paragraph_backend_study(P: int = 4, n_per_loc: int = 1000,
                            machine: str = "cray4") -> ExperimentResult:
    """The sort->scan pipeline routed through ``backend="multiprocessing"``
    (ROADMAP item 1): one OS process per location, identical assertions,
    real wall-clock in the ``wall_s`` column."""
    return paragraph_study(P, n_per_loc, machine,
                           backend="multiprocessing")


def sort_transport_study(P: int = 8, n_per_loc: int = 8192,
                         machine: str = "cray4") -> ExperimentResult:
    """Sorting bulk-path regression: slab vs per-element transport on a
    64k-element sort (default P * n_per_loc).  Raises unless the slab path
    sends >= 10x fewer physical messages with identical output."""
    n = P * n_per_loc

    def prog(ctx):
        rotated = [(i + 1) % ctx.nlocs for i in range(ctx.nlocs)]
        pa = PArray(ctx, n, dtype=int,
                    traits=Traits(mapper_factory=lambda: GeneralMapper(
                        rotated)))
        v = Array1DView(pa)
        from ..algorithms.generic import p_generate

        p_generate(v, _scrambled, vector=None)
        ctx.rmi_fence()
        msgs0 = ctx.stats.physical_messages
        t0 = ctx.start_timer()
        p_sample_sort(v)
        t = ctx.stop_timer(t0)
        return t, ctx.stats.physical_messages - msgs0, pa.to_list()

    res = ExperimentResult(
        "Sorting transport: read_range/write_range slabs vs per-element RMIs",
        ["path", "N", "time_us", "sort_msgs", "bulk_rmis", "MB_sent"],
        notes=f"{machine}, P={P}; fenced sample sort (executor held "
              "constant); block->location mapping rotated by one so every "
              "balanced-slice access is remote")

    outcome = {}
    for label, on in (("per_element", False), ("bulk", True)):
        results, _, stats = run_spmd_timed(
            prog, P, machine,
            config=RuntimeConfig(dataflow=False, bulk_transport=on))
        outcome[label] = (max(r[0] for r in results),
                         sum(r[1] for r in results), results[0][2])
        res.add(label, n, outcome[label][0], outcome[label][1],
                stats.bulk_rmi_sent, stats.bytes_sent / 1e6)

    if outcome["bulk"][2] != outcome["per_element"][2]:
        raise AssertionError("bulk transport changed the sorted output")
    if outcome["bulk"][2] != sorted(_scrambled(i) for i in range(n)):
        raise AssertionError("sample sort produced an unsorted result")
    m_elem, m_bulk = outcome["per_element"][1], outcome["bulk"][1]
    ratio = m_elem / max(1, m_bulk)
    res.notes += f"; message ratio per_element/bulk = {ratio:.1f}x"
    if ratio < 10.0:
        raise AssertionError(
            f"sorting bulk path: only {ratio:.1f}x fewer messages on the "
            f"{n}-element sort (expected >= 10x)")
    return res
