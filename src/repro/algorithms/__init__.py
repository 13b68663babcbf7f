"""STAPL pAlgorithms (Ch. III, VIII.C)."""

from .euler_tour import (
    EulerTour,
    preorder_numbering,
    subtree_sizes,
    tree_rooting,
    vertex_levels,
)
from .generic import (
    p_accumulate,
    p_adjacent_difference,
    p_copy,
    p_count,
    p_count_if,
    p_equal,
    p_fill,
    p_find,
    p_find_if,
    p_for_each,
    p_generate,
    p_inner_product,
    p_max_element,
    p_min_element,
    p_partial_sum,
    p_reduce,
    p_transform,
    p_visit,
)
from .graph_algorithms import (
    bfs,
    connected_components,
    find_sources,
    graph_coloring,
    out_degree_histogram,
    page_rank,
)
from .map_reduce import map_reduce, word_count
from .matrix_ops import (
    p_col_sums,
    p_frobenius_norm,
    p_matrix_fill,
    p_matvec,
    p_row_sums,
)
from .predicates import (
    p_all_of,
    p_any_of,
    p_histogram,
    p_iota,
    p_mismatch,
    p_none_of,
    p_replace,
    p_replace_if,
    p_swap_ranges,
    p_unique_count,
)
from .nested import (
    p_bucket_sort_nested,
    p_segmented_reduce,
    p_segmented_scan,
    p_stencil,
)
from .pipelines import p_sort_scan_pipeline
from .prange import (
    Executor,
    Paragraph,
    PRange,
    Task,
    run_map,
)
from .sorting import p_is_sorted, p_sample_sort
from .sssp import distances_of, sssp
