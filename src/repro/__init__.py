"""repro: a Python reproduction of the STAPL Parallel Container Framework
(Tanase et al., PPoPP 2011 / Tanase's dissertation, Texas A&M 2010).

The package provides the simulated ARMI runtime (`repro.runtime`), the
Parallel Container Framework core (`repro.core`), the pContainer library
(`repro.containers`), pViews (`repro.views`), pAlgorithms
(`repro.algorithms`), workload generators (`repro.workloads`) and the
benchmark drivers that regenerate every figure of the paper's evaluation
(`repro.evaluation`).

Quickstart::

    from repro import spmd_run, PArray, Array1DView, p_generate, p_accumulate

    def program(ctx):
        pa = PArray(ctx, 1000, dtype=int)
        view = Array1DView(pa)
        p_generate(view, lambda i: i, vector=lambda g: g)
        return p_accumulate(view)

    results = spmd_run(program, nlocs=4, machine="cray4")
"""

from .algorithms import (
    p_accumulate,
    p_copy,
    p_count,
    p_count_if,
    p_fill,
    p_find,
    p_for_each,
    p_generate,
    p_inner_product,
    p_max_element,
    p_min_element,
    p_partial_sum,
    p_reduce,
    p_sample_sort,
    p_stencil,
    p_transform,
)
from .containers import (
    PArray,
    PGraph,
    PHashMap,
    PHashSet,
    PList,
    PMap,
    PMatrix,
    PMultiMap,
    PMultiSet,
    PSet,
    PVector,
)
from .core import Traits
from .runtime import (
    CRAY4,
    CRAY5,
    P5_CLUSTER,
    SMP,
    Location,
    LocationGroup,
    PObject,
    Runtime,
    RuntimeConfig,
    spmd_run,
    spmd_run_detailed,
)
from .views import (
    Array1DView,
    BalancedView,
    GraphView,
    ListView,
    MapView,
    overlap_view,
    segmented_view,
    zip_view,
)

__version__ = "1.0.0"
