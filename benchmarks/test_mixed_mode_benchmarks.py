"""Benchmark regenerating the mixed-mode topology study (hierarchical
collectives, node-aware slab routing).

The driver asserts its own acceptance criteria: the two-level collective
tree never costs more than the flat one and matches it exactly with one
core per node, and node-aware routing cuts the exchange's physical
messages under packed placement.
"""

import repro.evaluation as ev
from benchmarks.conftest import run_and_report


def test_mixed_mode_topology(benchmark):
    run_and_report(benchmark, ev.mixed_mode_topology_study)
