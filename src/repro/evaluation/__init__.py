"""Evaluation drivers: one function per paper table/figure (Ch. VIII-XIII)."""

from .ablations import (
    ablation_aggregation,
    ablation_consistency_mode,
    ablation_lazy_size,
    ablation_view_alignment,
)
from .assoc_figs import fig59_mapreduce_wordcount, fig60_assoc_algorithms
from .backend_figs import backend_scaling_study, backend_speedup
from .bench import (
    bench_ablation_suite,
    bench_payload,
    bench_suite,
    bench_sweep_suite,
    compare_payloads,
    write_bench,
)
from .bulk_figs import bulk_transport_study
from .combining_figs import combining_containers_study, combining_study
from .composition_figs import composition_backend_study, fig62_row_min
from .consistency_figs import consistency_backend_study, mcm_demonstrations
from .harness import ExperimentResult, method_kernel, run_spmd_timed
from .memory_figs import fig34_memory_study
from .migration_figs import (
    lookup_cache_study,
    migration_backend_study,
    migration_graph_study,
    migration_skew_study,
)
from .mixed_mode_figs import mixed_mode_topology_study
from .nested_figs import (nested_backend_study, nested_groups_study,
                          nested_study)
from .paragraph_figs import (
    paragraph_backend_study,
    paragraph_study,
    sort_transport_study,
)
from .parray_figs import (
    fig27_constructor,
    fig28_local_methods,
    fig29_methods_weak,
    fig30_method_flavours,
    fig31_remote_fraction,
    fig32_local_remote_sizes,
    fig33_generic_algorithms,
)
from .pgraph_figs import (
    fig49_50_pgraph_methods,
    fig51_find_sources,
    fig52_partition_comparison,
    fig53_55_graph_algorithms,
    fig56_pagerank_meshes,
)
from .plist_figs import (
    fig39_plist_methods,
    fig40_parray_vs_plist,
    fig41_placement,
    fig42_plist_vs_pvector,
    fig43_euler_tour_weak,
    fig44_euler_applications,
)
