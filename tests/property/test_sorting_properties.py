"""Property-based tests (hypothesis) for sample-sort splitter selection on
degenerate inputs: empty locations, non-power-of-two location counts, and
duplicate-heavy keys — in both the fenced and the data-flow (PARAGRAPH)
execution modes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.sorting import (
    _bucket_elements,
    _select_splitters,
    p_sample_sort,
)
from repro.containers.parray import PArray
from repro.runtime import RuntimeConfig, spmd_run
from repro.views.array_views import Array1DView


def _run_sort(data, nlocs, dataflow):
    def prog(ctx):
        pa = PArray(ctx, len(data), dtype=int)
        for i in range(ctx.id, len(data), ctx.nlocs):
            pa.set_element(i, data[i])
        ctx.rmi_fence()
        p_sample_sort(Array1DView(pa))
        return pa.to_list()

    return spmd_run(prog, nlocs=nlocs,
                    config=RuntimeConfig(dataflow=dataflow))[0]


@settings(max_examples=12, deadline=None)
@given(data=st.lists(st.integers(0, 5), min_size=1, max_size=40),
       nlocs=st.sampled_from([2, 3, 5, 7]),
       dataflow=st.booleans())
def test_duplicate_heavy_matches_sorted(data, nlocs, dataflow):
    """Few distinct keys, odd/prime location counts."""
    assert _run_sort(data, nlocs, dataflow) == sorted(data)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6), nlocs=st.sampled_from([4, 5, 8]),
       dataflow=st.booleans())
def test_more_locations_than_elements(n, nlocs, dataflow):
    """Most locations hold an empty slice of the view."""
    data = [(i * 37) % 11 for i in range(n)]
    assert _run_sort(data, nlocs, dataflow) == sorted(data)


@settings(max_examples=12, deadline=None)
@given(data=st.lists(st.integers(-50, 50), min_size=1, max_size=60),
       nlocs=st.sampled_from([3, 6]), dataflow=st.booleans())
def test_general_matches_sorted_non_power_of_two(data, nlocs, dataflow):
    assert _run_sort(data, nlocs, dataflow) == sorted(data)


# ---------------------------------------------------------------------------
# phase-kernel properties (no runtime needed)
# ---------------------------------------------------------------------------


@given(samples=st.lists(
    st.lists(st.integers(0, 9), max_size=8), min_size=1, max_size=8),
    P=st.integers(1, 8))
def test_select_splitters_sorted_and_sized(samples, P):
    sp = _select_splitters([sorted(s) for s in samples], P)
    assert sp == sorted(sp)
    if any(samples) and P > 1:
        assert len(sp) == P - 1
    else:
        assert sp == []


@given(data=st.lists(st.integers(0, 6), max_size=80), P=st.integers(1, 8))
def test_bucket_concatenation_is_sorted(data, P):
    local = sorted(data)
    sp = _select_splitters([local[:: max(1, len(local) // 4)][:4]], P)
    buckets = _bucket_elements(local, sp, P)
    flat = [v for b in buckets for v in b]
    assert sorted(flat) == local
    assert flat == sorted(flat)  # bucket order preserves global order
    assert all(b == sorted(b) for b in buckets)


@given(P=st.integers(2, 8), n=st.integers(0, 64))
def test_all_equal_keys_spread(P, n):
    """All-equal input must not collapse into one bucket (the degeneracy
    this PR fixes): the round-robin spread lands within one element of
    even."""
    local = [7] * n
    sp = [7] * (P - 1)  # what duplicate-heavy sampling produces
    buckets = _bucket_elements(local, sp, P)
    sizes = [len(b) for b in buckets]
    assert sum(sizes) == n
    if n >= P:
        assert max(sizes) - min(sizes) <= 1
