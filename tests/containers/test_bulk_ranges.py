"""Range-accessor tests: bulk element transport must be observably
*identical* to the per-element interface on pArray / pVector / pMatrix —
only the traffic shape may differ."""

import numpy as np
import pytest

from repro.algorithms.generic import (
    p_accumulate,
    p_adjacent_difference,
    p_equal,
    p_for_each,
    p_partial_sum,
)
from repro.containers.parray import PArray
from repro.containers.pmatrix import PMatrix
from repro.containers.pvector import PVector
from repro.core.mappers import GeneralMapper
from repro.core.partitions import BlockCyclicPartition, BlockedPartition
from repro.core.traits import Traits
from repro.runtime import RuntimeConfig
from repro.views.array_views import Array1DView, BalancedView
from tests.conftest import run, run_detailed


@pytest.fixture(params=[True, False], ids=["bulk", "per_element"])
def bulk_mode(request):
    return RuntimeConfig(bulk_transport=request.param)


def rotated_traits(nlocs):
    """Every block owned by the next location: 100% remote balanced view."""
    rotated = [(i + 1) % nlocs for i in range(nlocs)]
    return Traits(mapper_factory=lambda: GeneralMapper(rotated))


class TestPArrayRanges:
    def test_get_range_matches_elements(self):
        def prog(ctx):
            pa = PArray(ctx, 40, dtype=int)
            for i in range(ctx.id, 40, ctx.nlocs):
                pa.set_element(i, i * 3)
            ctx.rmi_fence()
            slab = pa.get_range(5, 35)
            elems = [pa.get_element(i) for i in range(5, 35)]
            return list(slab) == elems

        assert all(run(prog, nlocs=4))

    def test_set_range_visible_after_fence(self):
        def prog(ctx):
            pa = PArray(ctx, 32, dtype=float)
            if ctx.id == 0:
                pa.set_range(4, np.arange(20, dtype=float))
            ctx.rmi_fence()
            return pa.to_list()

        out = run(prog, nlocs=4)[0]
        assert out[4:24] == [float(v) for v in range(20)]
        assert out[:4] == [0.0] * 4 and out[24:] == [0.0] * 8

    def test_range_crossing_all_locations(self):
        def prog(ctx):
            pa = PArray(ctx, 64, dtype=int, partition=BlockedPartition(8))
            if ctx.id == 1:
                pa.set_range(0, list(range(64)))
            ctx.rmi_fence()
            return list(pa.get_range(0, 64))

        for out in run(prog, nlocs=4):
            assert out == list(range(64))

    def test_set_then_get_same_location_fifo(self):
        """A slab write then slab read from the same location observes the
        write (bulk_get_range flushes the channel first)."""

        def prog(ctx):
            pa = PArray(ctx, 24, dtype=int)
            if ctx.id == 0:
                pa.set_range(0, [7] * 24)
                got = list(pa.get_range(0, 24))
            else:
                got = None
            ctx.rmi_fence()
            return got

        assert run(prog, nlocs=3)[0] == [7] * 24

    def test_block_cyclic_falls_back_to_elements(self):
        """Non-contiguous sub-domains can't ship slabs; results must still
        be exact via the element fallback."""

        def prog(ctx):
            pa = PArray(ctx, 30, dtype=int,
                        partition=BlockCyclicPartition(ctx.nlocs, 2))
            if ctx.id == 0:
                pa.set_range(0, list(range(30)))
            ctx.rmi_fence()
            return list(pa.get_range(3, 27))

        for out in run(prog, nlocs=3):
            assert out == list(range(3, 27))

    def test_bulk_moves_fewer_messages(self):
        def prog(ctx):
            pa = PArray(ctx, 4000, dtype=float, traits=rotated_traits(ctx.nlocs))
            ctx.rmi_fence()
            if ctx.id == 0:
                pa.set_range(0, np.ones(4000))
            ctx.rmi_fence()

        rep_bulk = run_detailed(prog, nlocs=4)

        def prog_scalar(ctx):
            pa = PArray(ctx, 4000, dtype=float, traits=rotated_traits(ctx.nlocs))
            ctx.rmi_fence()
            if ctx.id == 0:
                for i in range(4000):
                    pa.set_element(i, 1.0)
            ctx.rmi_fence()

        rep_scalar = run_detailed(prog_scalar, nlocs=4)
        assert (rep_bulk.stats.total.physical_messages * 2
                < rep_scalar.stats.total.physical_messages)
        assert rep_bulk.max_clock < rep_scalar.max_clock


class TestRangeBounds:
    """Out-of-domain ranges raise instead of silently truncating — the
    element interface raises, so the slab interface must too."""

    def test_parray_out_of_bounds(self):
        def prog(ctx):
            pa = PArray(ctx, 100, dtype=float)
            hits = 0
            for fn in (lambda: pa.get_range(90, 120),
                       lambda: pa.set_range(95, [1.0] * 10),
                       lambda: pa.get_range(-5, 10)):
                try:
                    fn()
                except IndexError:
                    hits += 1
            ctx.rmi_fence()
            return hits

        assert run(prog, nlocs=4) == [3] * 4

    def test_pmatrix_out_of_bounds(self):
        def prog(ctx):
            pm = PMatrix(ctx, 6, 6)
            hits = 0
            for fn in (lambda: pm.get_block(0, 8, 0, 8),
                       lambda: pm.set_block(4, 4, np.ones((4, 4)))):
                try:
                    fn()
                except IndexError:
                    hits += 1
            ctx.rmi_fence()
            return hits

        assert run(prog, nlocs=4) == [2] * 4

    def test_pmatrix_rejects_1d_range(self):
        """The inherited 1D range accessors cannot address (row, col) GIDs;
        they must fail loudly at the API boundary, not deep in the
        partition."""

        def prog(ctx):
            pm = PMatrix(ctx, 4, 4)
            hits = 0
            for fn in (lambda: pm.get_range(0, 4),
                       lambda: pm.set_range(0, [1.0] * 4)):
                try:
                    fn()
                except TypeError:
                    hits += 1
            ctx.rmi_fence()
            return hits

        assert run(prog, nlocs=4) == [2] * 4

    def test_pvector_out_of_bounds(self):
        def prog(ctx):
            pv = PVector(ctx, 10)
            try:
                pv.get_range(5, 15)
                ok = False
            except IndexError:
                ok = True
            ctx.rmi_fence()
            return ok

        assert all(run(prog, nlocs=4))


class TestPVectorRanges:
    def test_get_set_range(self):
        def prog(ctx):
            pv = PVector(ctx, 20, value=0)
            if ctx.id == ctx.nlocs - 1:
                pv.set_range(2, [f"v{i}" for i in range(16)])
            ctx.rmi_fence()
            return pv.get_range(0, 20)

        for out in run(prog, nlocs=4):
            assert out == [0, 0] + [f"v{i}" for i in range(16)] + [0, 0]

    def test_matches_element_interface(self):
        def prog(ctx):
            pv = PVector(ctx, 33)
            if ctx.id == 0:
                for i in range(33):
                    pv.set_element(i, i * i)
            ctx.rmi_fence()
            return pv.get_range(4, 29) == [pv.get_element(i)
                                           for i in range(4, 29)]

        assert all(run(prog, nlocs=3))


class TestPMatrixBlocks:
    def test_get_block_matches_elements(self):
        def prog(ctx):
            pm = PMatrix(ctx, 8, 8, dtype=float)
            if ctx.id == 0:
                for r in range(8):
                    for c in range(8):
                        pm.set_element((r, c), r * 10 + c)
            ctx.rmi_fence()
            block = pm.get_block(2, 7, 1, 6)
            want = [[r * 10 + c for c in range(1, 6)] for r in range(2, 7)]
            return block.tolist() == want

        assert all(run(prog, nlocs=4))

    def test_set_block_crosses_grid(self):
        def prog(ctx):
            pm = PMatrix(ctx, 6, 6, dtype=int)
            if ctx.id == 1:
                pm.set_block(1, 1, np.arange(16).reshape(4, 4))
            ctx.rmi_fence()
            return pm.to_nested()

        out = run(prog, nlocs=4)[0]
        for r in range(4):
            for c in range(4):
                assert out[1 + r][1 + c] == r * 4 + c
        assert out[0] == [0] * 6

    def test_get_row_and_col(self):
        def prog(ctx):
            pm = PMatrix(ctx, 6, 6, dtype=int)
            if ctx.id == 0:
                pm.set_block(0, 0, np.arange(36).reshape(6, 6))
            ctx.rmi_fence()
            return pm.get_row(2), pm.get_col(3)

        row, col = run(prog, nlocs=4)[0]
        assert row == [2 * 6 + c for c in range(6)]
        assert col == [r * 6 + 3 for r in range(6)]


class TestBulkEqualsScalarAlgorithms:
    """The paper-facing guarantee: the bulk path is purely an optimisation —
    algorithm results are bit-identical with it on or off."""

    def test_map_reduce_identical(self, bulk_mode):
        def prog(ctx):
            n = 50 * ctx.nlocs
            pa = PArray(ctx, n, dtype=float, traits=rotated_traits(ctx.nlocs))
            view = BalancedView(Array1DView(pa))
            ctx.rmi_fence()
            p_for_each(view, lambda x: x + 2.0, vector=lambda a: a + 2.0)
            total = p_accumulate(view, 0.0)
            return total

        n = 50 * 4
        assert run(prog, nlocs=4, config=bulk_mode) == [2.0 * n] * 4

    def test_partial_sum_identical(self, bulk_mode):
        def prog(ctx):
            n = 30 * ctx.nlocs
            src = PArray(ctx, n, dtype=int)
            dst = PArray(ctx, n, dtype=int)
            if ctx.id == 0:
                src.set_range(0, [1] * n)
            ctx.rmi_fence()
            p_partial_sum(Array1DView(src), Array1DView(dst))
            return dst.to_list()

        n = 30 * 4
        for out in run(prog, nlocs=4, config=bulk_mode):
            assert out == list(range(1, n + 1))

    def test_adjacent_difference_identical(self, bulk_mode):
        def prog(ctx):
            n = 25 * ctx.nlocs
            src = PArray(ctx, n, dtype=int)
            dst = PArray(ctx, n, dtype=int)
            if ctx.id == 0:
                src.set_range(0, [i * i for i in range(n)])
            ctx.rmi_fence()
            p_adjacent_difference(Array1DView(src), Array1DView(dst))
            return dst.to_list()

        n = 25 * 4
        want = [0] + [i * i - (i - 1) * (i - 1) for i in range(1, n)]
        for out in run(prog, nlocs=4, config=bulk_mode):
            assert out == want

    def test_p_equal_identical(self, bulk_mode):
        def prog(ctx):
            n = 20 * ctx.nlocs
            a = PArray(ctx, n, dtype=int)
            b = PArray(ctx, n, dtype=int)
            if ctx.id == 0:
                a.set_range(0, list(range(n)))
                b.set_range(0, list(range(n)))
            ctx.rmi_fence()
            same = p_equal(Array1DView(a), Array1DView(b))
            if ctx.id == 1:
                b.set_element(7, -1)
            ctx.rmi_fence()
            diff = p_equal(Array1DView(a), Array1DView(b))
            return same, diff

        for same, diff in run(prog, nlocs=4, config=bulk_mode):
            assert same is True
            assert diff is False

    def test_stateful_generator_runs_once_per_element(self, bulk_mode):
        """p_generate with a stateful workfunction over a view without
        range accessors (StridedView): the function must run exactly once
        per element regardless of the transport path."""
        from repro.algorithms.generic import p_generate
        from repro.views.array_views import StridedView

        def prog(ctx):
            n = 8 * ctx.nlocs
            pa = PArray(ctx, n, dtype=int)
            sv = StridedView(Array1DView(pa), stride=2)
            calls = [0]

            def gen(i):
                calls[0] += 1
                return i

            p_generate(sv, gen)
            total_calls = ctx.allreduce_rmi(calls[0])
            return total_calls, pa.to_list()

        n = 8 * 4
        for total_calls, data in run(prog, nlocs=4, config=bulk_mode):
            assert total_calls == n // 2
            assert data[::2] == list(range(n // 2))

    def test_redistribute_identical(self, bulk_mode):
        def prog(ctx):
            n = 16 * ctx.nlocs
            pa = PArray(ctx, n, dtype=int)
            if ctx.id == 0:
                pa.set_range(0, list(range(n)))
            ctx.rmi_fence()
            pa.redistribute(BlockedPartition(8))
            return pa.to_list()

        for out in run(prog, nlocs=4, config=bulk_mode):
            assert out == list(range(16 * 4))

    def test_matrix_redistribute_identical(self, bulk_mode):
        from repro.core.partitions import Matrix2DPartition

        def prog(ctx):
            pm = PMatrix(ctx, 8, 8, dtype=int)
            if ctx.id == 0:
                pm.set_block(0, 0, np.arange(64).reshape(8, 8))
            ctx.rmi_fence()
            pm.redistribute(Matrix2DPartition(ctx.nlocs, 1))
            return pm.to_nested()

        for out in run(prog, nlocs=4, config=bulk_mode):
            assert out == [[r * 8 + c for c in range(8)] for r in range(8)]
