"""Tests for the dependence-driven executor: ready-queue scheduling,
cross-location data-flow edges, quiescence, deadlock detection, the
multi-view synchronisation fix, and dataflow-on/off equivalence of every
rewritten algorithm."""

import pytest

from repro.algorithms.generic import (
    p_adjacent_difference,
    p_generate,
    p_partial_sum,
    p_transform,
)
from repro.algorithms.pipelines import p_sort_scan_pipeline
from repro.algorithms.prange import Executor, Paragraph, PRange
from repro.algorithms.sorting import build_sort_tasks, p_sample_sort
from repro.algorithms.sssp import distances_of, sssp
from repro.containers.parray import PArray
from repro.containers.pgraph import PGraph
from repro.runtime import RuntimeConfig
from repro.runtime.scheduler import SpmdError
from repro.views.array_views import Array1DView
from tests.conftest import run, run_detailed


def _toggled(prog, on, nlocs, **kw):
    return run(prog, nlocs=nlocs, config=RuntimeConfig(dataflow=on), **kw)


class TestExecutorScheduling:
    def test_diamond_dependencies_topological(self):
        def prog(ctx):
            order = []
            pr = PRange([])
            a = pr.add_task(lambda _c: order.append("a"))
            b = pr.add_task(lambda _c: order.append("b"), deps=(a,))
            c = pr.add_task(lambda _c: order.append("c"), deps=(a,))
            d = pr.add_task(lambda _c: order.append("d"), deps=(b, c))
            Executor(fence=False).run(pr)
            return order
        (order,) = run(prog, nlocs=1)
        assert order[0] == "a" and order[-1] == "d"
        assert set(order) == {"a", "b", "c", "d"}

    def test_wide_chain_completes(self):
        """The O(1)-trigger scheduler handles a long chain plus fan-out
        (the seed's O(n^2) rescan was the motivating fix)."""
        def prog(ctx):
            pr = PRange([])
            prev = pr.add_task(lambda _c: 0)
            for _ in range(300):
                prev = pr.add_task(lambda _c: 0, deps=(prev,))
            tail = [pr.add_task(lambda _c: 1, deps=(prev,))
                    for _ in range(50)]
            return len(Executor(fence=False).run(pr)), all(
                t.done for t in tail)
        assert run(prog, nlocs=1)[0] == (351, True)

    def test_cycle_detected_in_larger_graph(self):
        def prog(ctx):
            pr = PRange([])
            a = pr.add_task(lambda _c: None)
            b = pr.add_task(lambda _c: None, deps=(a,))
            c = pr.add_task(lambda _c: None, deps=(b,))
            # close the cycle after construction: b also waits on c
            b.deps = (a, c)
            try:
                Executor(fence=False).run(pr)
                return False
            except RuntimeError as exc:
                return "cycle" in str(exc)
        assert all(run(prog, nlocs=2))

    def test_tasks_executed_counter(self):
        def prog(ctx):
            pa = PArray(ctx, 16, dtype=int)
            p_generate(Array1DView(pa), lambda i: i)
            return None
        report = run_detailed(prog, nlocs=4)
        assert report.stats.total.tasks_executed >= 4


class TestMultiViewSync:
    def test_post_execute_every_view_once_per_container(self):
        """Satellite fix: a multi-view pRange must commit *all* its
        containers (deduplicated), with a single fence."""
        def prog(ctx):
            a = PArray(ctx, 8, dtype=int)
            b = PArray(ctx, 8, dtype=int)
            calls = []
            for name, c in (("a", a), ("b", b)):
                c.post_execute = lambda n=name: calls.append(n)
            pr = PRange([Array1DView(a), Array1DView(b), Array1DView(a)])
            pr.add_task(lambda _c: None)
            fences0 = ctx.stats.fences
            Executor().run(pr)
            return calls, ctx.stats.fences - fences0
        for calls, fences in run(prog, nlocs=2):
            assert calls == ["a", "b"]  # each container once, dst included
            assert fences == 1          # deduped: one fence, not one per view

    def test_p_transform_synchronises_destination(self):
        """p_transform's pRange carries both views, so the destination
        container's post_execute hook runs too."""
        def prog(ctx):
            a = PArray(ctx, 12, dtype=int)
            b = PArray(ctx, 12, dtype=int)
            hooked = []
            b.post_execute = lambda: hooked.append(1)
            p_generate(Array1DView(a), lambda i: i + 1)
            p_transform(Array1DView(a), Array1DView(b), lambda v: v * 2)
            return b.to_list(), len(hooked)
        for data, hooks in run(prog, nlocs=3):
            assert data == [(i + 1) * 2 for i in range(12)]
            assert hooks >= 1


class TestParagraphDataflow:
    def test_cross_location_edges_deliver_values(self):
        def prog(ctx):
            pg = Paragraph(ctx)
            me = pg.group.members.index(ctx.id)
            P = len(pg.group.members)
            right = pg.group.members[(me + 1) % P]
            got = []
            pg.add_task(lambda _c: pg.send(right, "ring", me * 10, tag="v"))
            pg.add_task(lambda _c, inputs: got.append(inputs["v"]),
                        key="ring", needs=1)
            pg.run(fence=False)
            pg.destroy()
            return got
        out = run(prog, nlocs=4)
        assert [g[0] for g in out] == [30, 0, 10, 20]

    def test_early_arrival_before_task_registration(self):
        """A dependence message may land before the consumer task is
        added; it must be held and delivered on registration."""
        def prog(ctx):
            pg = Paragraph(ctx)
            got = []
            if ctx.id == 0:
                pg.send(1, "late", 42, tag="v")
            ctx.rmi_fence()  # deliver the message before the task exists
            if ctx.id == 1:
                pg.add_task(lambda _c, inputs: got.append(inputs["v"]),
                            key="late", needs=1)
            pg.run(fence=False)
            ctx.rmi_fence()
            pg.destroy()
            return got
        out = run(prog, nlocs=2)
        assert out[1] == [42]

    def test_deadlock_detected(self):
        def prog(ctx):
            pg = Paragraph(ctx)
            # every location waits for an input nobody sends
            pg.add_task(lambda _c, inputs: None, key="never", needs=1)
            pg.run(fence=False)
        with pytest.raises(SpmdError, match="deadlock"):
            run(prog, nlocs=2)

    def test_subgroup_deadlock_detected_despite_outside_traffic(self):
        """Progress is group-scoped: messages among locations outside a
        stuck Paragraph's group must not mask its deadlock."""
        from repro.runtime.scheduler import LocationGroup

        def prog(ctx):
            if ctx.id in (0, 1):
                pg = Paragraph(ctx, group=LocationGroup([0, 1]))
                pg.add_task(lambda _c, inputs: None, key="never", needs=1)
                pg.run(fence=False)
            else:
                # unrelated churn on the other subgroup: a chain of real
                # cross-location dependence messages
                pg = Paragraph(ctx, group=LocationGroup([2, 3]))
                other = 5 - ctx.id
                if ctx.id == 2:
                    prev = None
                    for r in range(30):
                        prev = pg.add_task(
                            lambda _c, r=r: pg.send(other, r, r, tag="v"),
                            deps=(prev,) if prev else ())
                else:
                    for r in range(30):
                        pg.add_task(lambda _c, inputs: None, key=r, needs=1)
                pg.run(fence=False)
        with pytest.raises(SpmdError, match="deadlock"):
            run(prog, nlocs=4)

    def test_dependence_message_counters(self):
        def prog(ctx):
            pg = Paragraph(ctx)
            me = pg.group.members.index(ctx.id)
            P = len(pg.group.members)
            right = pg.group.members[(me + 1) % P]
            pg.add_task(lambda _c: pg.send(right, "x", 1, tag="v"))
            pg.add_task(lambda _c, inputs: None, key="x", needs=1)
            pg.run(fence=False)
            pg.destroy()
            return None
        report = run_detailed(prog, nlocs=4)
        total = report.stats.total
        assert total.dependence_messages == 4
        assert total.tasks_executed == 8

    def test_edge_delivery_crossing_migration_epoch(self):
        """Dependence edges are location-addressed: a migration (epoch
        bump) between graph construction and execution must neither lose
        deliveries nor misroute the container writes consumer tasks
        issue against the new placement."""
        def prog(ctx):
            P = ctx.nlocs
            pa = PArray(ctx, 4 * P, dtype=int)
            v = Array1DView(pa)
            p_generate(v, lambda i: i + 1)
            pg = Paragraph(ctx, views=(v,))
            me = pg.group.members.index(ctx.id)
            right = pg.group.members[(me + 1) % P]

            def produce(_c):
                sl = v.balanced_slices()
                pg.send(right, "sum", sum(v.read(i) for i in sl), tag="s")

            def consume(_c, inputs):
                pa.set_element(me, inputs["s"])

            pg.add_task(produce)
            pg.add_task(consume, key="sum", needs=1)
            # rotate every bContainer one location right: epoch bump
            epoch0 = pa.distribution.epoch
            mapper = pa.distribution.mapper
            nbcs = pa.distribution.partition.size()
            pa.migrate({bcid: pg.group.members[
                (pg.group.members.index(mapper.map(bcid)) + 1) % P]
                for bcid in range(nbcs)})
            bumped = pa.distribution.epoch - epoch0
            pg.run()
            pg.destroy()
            return pa.to_list(), bumped
        out = run(prog, nlocs=4)
        data, bumped = out[0]
        assert bumped == 1
        # element i holds the left neighbour's pre-migration slab sum
        n = 16
        slabs = [list(range(lo + 1, lo + 5)) for lo in range(0, n, 4)]
        expected = [sum(slabs[(i - 1) % 4]) for i in range(4)]
        assert data[:4] == expected
        assert data[4:] == list(range(5, n + 1))


class TestDataflowEquivalence:
    """RuntimeConfig(dataflow=True) == dataflow=False, byte for byte."""

    @pytest.mark.parametrize("nlocs", [1, 2, 3, 4])
    def test_sample_sort(self, nlocs):
        def prog(ctx):
            pa = PArray(ctx, 30, dtype=int)
            v = Array1DView(pa)
            p_generate(v, lambda i: (i * 17) % 13)
            p_sample_sort(v)
            return pa.to_list()
        off = _toggled(prog, False, nlocs)
        on = _toggled(prog, True, nlocs)
        assert on == off
        assert on[0] == sorted((i * 17) % 13 for i in range(30))

    @pytest.mark.parametrize("nlocs,inclusive", [(1, True), (3, True),
                                                 (4, True), (4, False)])
    def test_partial_sum(self, nlocs, inclusive):
        def prog(ctx):
            a = PArray(ctx, 23, dtype=int)
            b = PArray(ctx, 23, dtype=int)
            p_generate(Array1DView(a), lambda i: i - 7)
            p_partial_sum(Array1DView(a), Array1DView(b),
                          inclusive=inclusive)
            return b.to_list()
        assert _toggled(prog, True, nlocs) == _toggled(prog, False, nlocs)

    @pytest.mark.parametrize("nlocs", [1, 2, 4])
    def test_adjacent_difference(self, nlocs):
        def prog(ctx):
            a = PArray(ctx, 19, dtype=int)
            b = PArray(ctx, 19, dtype=int)
            p_generate(Array1DView(a), lambda i: (i * i) % 31)
            p_adjacent_difference(Array1DView(a), Array1DView(b))
            return b.to_list()
        off = _toggled(prog, False, nlocs)
        on = _toggled(prog, True, nlocs)
        assert on == off
        vals = [(i * i) % 31 for i in range(19)]
        assert on[0] == [vals[0]] + [vals[i] - vals[i - 1]
                                     for i in range(1, 19)]

    @pytest.mark.parametrize("nlocs", [1, 3, 4])
    def test_sort_scan_pipeline(self, nlocs):
        def prog(ctx):
            src = PArray(ctx, 26, dtype=int)
            sums = PArray(ctx, 26, dtype=int)
            diffs = PArray(ctx, 26, dtype=int)
            p_generate(Array1DView(src), lambda i: (i * 11) % 7)
            p_sort_scan_pipeline(Array1DView(src), Array1DView(sums),
                                 Array1DView(diffs))
            return src.to_list(), sums.to_list(), diffs.to_list()
        off = _toggled(prog, False, nlocs)
        on = _toggled(prog, True, nlocs)
        assert on == off
        s = sorted((i * 11) % 7 for i in range(26))
        assert on[0][0] == s
        acc = 0
        assert on[0][1] == [acc := acc + v for v in s]

    def test_pipeline_fence_reduction(self):
        """The acceptance claim at unit scale: the one-PARAGRAPH pipeline
        fences at most half as often as the fence-per-phase baseline."""
        def prog(ctx):
            src = PArray(ctx, 32, dtype=int)
            sums = PArray(ctx, 32, dtype=int)
            diffs = PArray(ctx, 32, dtype=int)
            p_generate(Array1DView(src), lambda i: (i * 13) % 17)
            fences0 = ctx.stats.fences
            p_sort_scan_pipeline(Array1DView(src), Array1DView(sums),
                                 Array1DView(diffs))
            return ctx.stats.fences - fences0
        fenced = _toggled(prog, False, 4)[0]
        dataflow = _toggled(prog, True, 4)[0]
        assert fenced >= 2 * dataflow

    @pytest.mark.parametrize("nlocs", [2, 4])
    def test_sssp(self, nlocs):
        def prog(ctx):
            g = PGraph(ctx, 8, default_property=0)
            if ctx.id == 0:
                g.add_edge_async(0, 1, 4.0)
                g.add_edge_async(0, 2, 1.0)
                g.add_edge_async(2, 1, 2.0)
                g.add_edge_async(1, 3, 1.0)
                g.add_edge_async(2, 3, 5.0)
                g.add_edge_async(3, 4, 1.0)
                g.add_edge_async(5, 6, 1.0)  # unreachable island
            ctx.rmi_fence()
            sssp(g, 0)
            return distances_of(g, list(range(8)))
        off = _toggled(prog, False, nlocs)
        on = _toggled(prog, True, nlocs)
        assert on == off
        inf = float("inf")
        assert on[0] == [0.0, 3.0, 1.0, 4.0, 5.0, inf, inf, inf]

    def test_sssp_async_fences_fewer_on_deep_graph(self):
        """A path graph forces one fence per level in the baseline; the
        asynchronous mode needs only its quiescence reductions."""
        def prog(ctx):
            n = 12
            g = PGraph(ctx, n, default_property=0)
            if ctx.id == 0:
                for i in range(n - 1):
                    g.add_edge_async(i, i + 1, 1.0)
            ctx.rmi_fence()
            fences0 = ctx.stats.fences
            sssp(g, 0)
            return ctx.stats.fences - fences0, distances_of(g, [n - 1])
        fenced = _toggled(prog, False, 4)
        dataflow = _toggled(prog, True, 4)
        assert dataflow[0][1] == fenced[0][1] == [11.0]
        assert dataflow[0][0] < fenced[0][0]


class TestSplitterDegeneracies:
    """Satellite fix: splitter clamping/spreading on degenerate inputs."""

    @pytest.mark.parametrize("nlocs", [3, 5, 6])
    def test_non_power_of_two_locations(self, nlocs):
        def prog(ctx):
            pa = PArray(ctx, 41, dtype=int)
            v = Array1DView(pa)
            p_generate(v, lambda i: (41 - i) % 9)
            p_sample_sort(v)
            return pa.to_list()
        assert run(prog, nlocs=nlocs)[0] == sorted(
            (41 - i) % 9 for i in range(41))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_more_locations_than_elements(self, n):
        def prog(ctx):
            pa = PArray(ctx, max(1, n), dtype=int)
            v = Array1DView(pa)
            p_generate(v, lambda i: -i)
            if n:
                p_sample_sort(v)
            return pa.to_list()
        expected = sorted(-i for i in range(max(1, n)))
        assert run(prog, nlocs=4)[0] == expected

    def test_all_equal_keys_spread_across_locations(self):
        """All-equal inputs used to collapse into one bucket; the
        round-robin spread must keep every location's run near n/P."""
        def prog(ctx):
            pa = PArray(ctx, 64, dtype=int)
            v = Array1DView(pa)
            p_generate(v, lambda i: 7)
            pg = Paragraph(ctx, views=(v,))
            st = {}
            build_sort_tasks(pg, v, 4, st)
            pg.run()
            pg.destroy()
            return len(st["merged"]), pa.to_list()
        out = run(prog, nlocs=4)
        sizes = [o[0] for o in out]
        assert sum(sizes) == 64
        assert max(sizes) <= 2 * (64 // 4)   # spread, not collapsed
        assert min(sizes) >= 1
        assert out[0][1] == [7] * 64

    def test_duplicate_heavy_mixed_input(self):
        def prog(ctx):
            pa = PArray(ctx, 48, dtype=int)
            v = Array1DView(pa)
            p_generate(v, lambda i: 3 if i % 4 else i % 2)
            p_sample_sort(v)
            return pa.to_list()
        assert run(prog, nlocs=4)[0] == sorted(
            3 if i % 4 else i % 2 for i in range(48))


class TestSortingBulkTransport:
    def test_read_and_write_back_ride_slabs(self):
        """Satellite regression: the sort's portion read and sorted
        write-back must use ``read_range``/``write_range`` — per-element
        mode pays an order of magnitude more physical messages.  The
        block→location mapping is rotated so every balanced-slice access
        is remote (the scalar-storm worst case)."""
        n = 4096

        def prog(ctx):
            from repro.core.mappers import GeneralMapper
            from repro.core.traits import Traits

            rotated = [(i + 1) % ctx.nlocs for i in range(ctx.nlocs)]
            pa = PArray(ctx, n, dtype=int,
                        traits=Traits(mapper_factory=lambda: GeneralMapper(
                            rotated)))
            v = Array1DView(pa)
            p_generate(v, lambda i: (i * 2654435761) % 2039,
                       vector=lambda g: (g * 2654435761) % 2039)
            ctx.rmi_fence()
            msgs0 = ctx.stats.physical_messages
            p_sample_sort(v)
            return ctx.stats.physical_messages - msgs0, pa.to_list()

        # dataflow off isolates transport from the executor
        scalar = run(prog, nlocs=4, config=RuntimeConfig(
            dataflow=False, bulk_transport=False))
        bulk = run(prog, nlocs=4, config=RuntimeConfig(dataflow=False))
        assert bulk[0][1] == scalar[0][1] == sorted(
            (i * 2654435761) % 2039 for i in range(n))
        scalar_msgs = sum(o[0] for o in scalar)
        bulk_msgs = sum(o[0] for o in bulk)
        assert scalar_msgs >= 10 * bulk_msgs
