"""Scheduler tests: SPMD execution, collectives, groups, error handling."""

import pytest

from repro.runtime import LocationGroup, Runtime, SpmdError
from tests.conftest import run, run_detailed


class TestBasicExecution:
    def test_per_location_results(self):
        assert run(lambda ctx: ctx.id * 10, nlocs=4) == [0, 10, 20, 30]

    def test_single_location(self):
        assert run(lambda ctx: ctx.nlocs, nlocs=1) == [1]

    def test_many_locations(self):
        out = run(lambda ctx: ctx.id, nlocs=32)
        assert out == list(range(32))

    def test_args_passed(self):
        out = run(lambda ctx, a, b: a + b + ctx.id, args=(1, 2), nlocs=2)
        assert out == [3, 4]

    def test_nlocs_zero_rejected(self):
        with pytest.raises(ValueError):
            Runtime(0)

    def test_identity_accessors(self):
        def prog(ctx):
            return (ctx.get_location_id(), ctx.get_num_locations())
        assert run(prog, nlocs=3) == [(0, 3), (1, 3), (2, 3)]


class TestDeterminism:
    def test_clocks_deterministic(self):
        def prog(ctx):
            ctx.charge(1.5 * (ctx.id + 1))
            ctx.rmi_fence()
            return round(ctx.clock, 6)
        a = run(prog, nlocs=4, machine="cray4")
        b = run(prog, nlocs=4, machine="cray4")
        assert a == b

    def test_fence_synchronises_clocks(self):
        def prog(ctx):
            ctx.charge(100.0 * ctx.id)
            ctx.rmi_fence()
            return ctx.clock
        clocks = run(prog, nlocs=4)
        assert len(set(clocks)) == 1
        assert clocks[0] >= 300.0


class TestCollectives:
    def test_allreduce_default_sum(self):
        assert run(lambda ctx: ctx.allreduce_rmi(ctx.id + 1), nlocs=4) == [10] * 4

    def test_allreduce_custom_op(self):
        out = run(lambda ctx: ctx.allreduce_rmi(ctx.id, max), nlocs=5)
        assert out == [4] * 5

    def test_reduce_rooted(self):
        out = run(lambda ctx: ctx.reduce_rmi(1, root=2), nlocs=4)
        assert out == [None, None, 4, None]

    def test_reduce_root_outside_group_raises(self):
        def prog(ctx):
            # the default root, 0, is not a member
            if ctx.id:
                return ctx.reduce_rmi(1, group=LocationGroup([1, 2]))
        with pytest.raises(SpmdError, match="reduce: root did not participate"):
            run(prog, nlocs=3)

    def test_broadcast(self):
        def prog(ctx):
            return ctx.broadcast_rmi(1, "payload" if ctx.id == 1 else None)
        assert run(prog, nlocs=3) == ["payload"] * 3

    def test_allgather_ordered(self):
        out = run(lambda ctx: ctx.allgather_rmi(ctx.id * 2), nlocs=4)
        assert out == [[0, 2, 4, 6]] * 4

    def test_alltoall(self):
        def prog(ctx):
            return ctx.alltoall_rmi([f"{ctx.id}->{j}" for j in range(ctx.nlocs)])
        out = run(prog, nlocs=3)
        assert out[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_bad_size(self):
        def prog(ctx):
            return ctx.alltoall_rmi([0])  # wrong length for nlocs=2
        with pytest.raises(SpmdError, match="alltoall"):
            run(prog, nlocs=2)

    def test_scan_inclusive(self):
        out = run(lambda ctx: ctx.scan_rmi(ctx.id + 1), nlocs=4)
        assert out == [(1, 10), (3, 10), (6, 10), (10, 10)]

    def test_scan_exclusive(self):
        out = run(lambda ctx: ctx.scan_rmi(1, exclusive=True), nlocs=4)
        assert [p for p, _ in out] == [None, 1, 2, 3]
        assert all(t == 4 for _, t in out)

    def test_barrier(self):
        def prog(ctx):
            ctx.charge(ctx.id * 50.0)
            ctx.barrier()
            return ctx.clock
        clocks = run(prog, nlocs=3)
        assert len(set(clocks)) == 1


class TestGroups:
    def test_subgroup_collective(self):
        def prog(ctx):
            evens = LocationGroup([0, 2])
            odds = LocationGroup([1, 3])
            g = evens if ctx.id % 2 == 0 else odds
            return ctx.allreduce_rmi(ctx.id, group=g)
        assert run(prog, nlocs=4) == [2, 4, 2, 4]

    def test_group_membership_enforced(self):
        def prog(ctx):
            return ctx.allreduce_rmi(1, group=LocationGroup([0]))
        with pytest.raises(SpmdError, match="not in"):
            run(prog, nlocs=2)

    def test_singleton_group_inline(self):
        def prog(ctx):
            g = LocationGroup([ctx.id])
            a = ctx.allreduce_rmi(5, group=g)
            b = ctx.allgather_rmi(7, group=g)
            c = ctx.scan_rmi(3, group=g)
            ctx.rmi_fence(group=g)
            return (a, b, c)
        assert run(prog, nlocs=2) == [(5, [7], (3, 3))] * 2

    def test_group_requires_member(self):
        with pytest.raises(ValueError):
            LocationGroup([])

    def test_group_ordering(self):
        g = LocationGroup([3, 1, 2])
        assert g.members == (1, 2, 3)
        assert g.index_of(2) == 1


class TestErrorHandling:
    def test_exception_propagates_with_location(self):
        def prog(ctx):
            if ctx.id == 2:
                raise ValueError("boom")
            ctx.rmi_fence()
        with pytest.raises(SpmdError, match="location 2 .*boom"):
            run(prog, nlocs=4)

    def test_mismatched_collectives_detected(self):
        def prog(ctx):
            if ctx.id == 0:
                ctx.rmi_fence()
            # other locations exit without fencing
        with pytest.raises(SpmdError, match="deadlock|mismatch"):
            run(prog, nlocs=2)

    def test_different_collective_ops_detected(self):
        def prog(ctx):
            if ctx.id == 0:
                ctx.rmi_fence()
            else:
                ctx.allreduce_rmi(1)
        with pytest.raises(SpmdError, match="mismatch"):
            run(prog, nlocs=2)


class TestStatsAndTimers:
    def test_timer_idiom(self):
        def prog(ctx):
            t0 = ctx.start_timer()
            ctx.charge(42.0)
            return ctx.stop_timer(t0)
        assert run(prog, nlocs=2) == [42.0, 42.0]

    def test_stats_collected(self):
        def prog(ctx):
            ctx.rmi_fence()
        rep = run_detailed(prog, nlocs=4)
        assert rep.stats.total.fences == 4
        assert len(rep.clocks) == 4
