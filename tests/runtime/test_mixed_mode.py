"""Mixed-mode runtime tests: hierarchical collectives, node-aware slab
routing, and their topology semantics (flat-equivalence with one core per
node; range/block reads never alias owner storage, even though the
simulator's sync path hands back the handler's return value inside one
address space)."""

import numpy as np

from repro.containers.associative import PHashMap
from repro.containers.parray import PArray
from repro.containers.pmatrix import PMatrix
from repro.runtime.machine import CRAY4, CRAY5, P5_CLUSTER, SMP
from tests.conftest import run, run_detailed


class TestHierarchicalCollectives:
    def test_one_core_per_node_equals_flat(self):
        for m in (CRAY4, CRAY5, P5_CLUSTER):
            flat_machine = m.with_(cores_per_node=1)
            for p in (1, 2, 5, 16, 33):
                assert (flat_machine.hierarchical_collective_cost(range(p), p)
                        == m.collective_cost(p))

    def test_spread_placement_equals_flat(self):
        for p in (2, 8, 17):
            assert (CRAY4.hierarchical_collective_cost(range(p), p, "spread")
                    == CRAY4.collective_cost(p))

    def test_uniform_latency_equals_flat(self):
        # SMP has latency_intra == latency_inter: the two-level tree costs
        # exactly the flat tree, so the default test machine is unchanged
        for p in (2, 8, 64):
            assert (SMP.hierarchical_collective_cost(range(p), p)
                    == SMP.collective_cost(p))

    def test_packed_multicore_cheaper_than_flat(self):
        for m in (CRAY4, CRAY5, P5_CLUSTER):
            p = 2 * m.cores_per_node
            hier = m.hierarchical_collective_cost(range(p), p)
            assert hier < m.collective_cost(p)
            assert hier >= m.coll_beta

    def test_singleton_is_beta(self):
        assert CRAY4.hierarchical_collective_cost([3], 8) == CRAY4.coll_beta

    def test_composes_per_level_counts(self):
        # 8 locations on 2 nodes of 4: one intra stage of log2(4) at the
        # discounted alpha, one inter stage of log2(2) at full alpha
        intra = CRAY4.intra_coll_alpha()
        expected = intra * 2 + CRAY4.coll_alpha * 1 + CRAY4.coll_beta
        assert CRAY4.hierarchical_collective_cost(range(8), 8) == expected

    def test_fence_uses_hierarchical_cost(self):
        def prog(ctx):
            ctx.rmi_fence()
            return ctx.clock

        packed = max(run(prog, nlocs=8, machine="cray4", placement="packed"))
        spread = max(run(prog, nlocs=8, machine="cray4", placement="spread"))
        assert packed < spread


class TestZeroCopyAliasing:
    """Sync reads run the handler against the owner's representative in
    the same address space; the value handed back must still be a copy."""

    def test_range_reads_do_not_alias_owner_storage(self):
        def prog(ctx):
            pa = PArray(ctx, ctx.nlocs * 4, dtype=int)
            ctx.rmi_fence()
            peer = (ctx.id + 1) % ctx.nlocs
            slab = pa.get_range(peer * 4, peer * 4 + 4)
            slab[:] = -1  # must not write through to the owner
            ctx.rmi_fence()
            return pa.to_list()

        out = run(prog, nlocs=4, machine="cray5")
        assert out[0] == [0] * 16

    def test_block_reads_do_not_alias_owner_storage(self):
        def prog(ctx):
            pm = PMatrix(ctx, 4, 4)
            ctx.rmi_fence()
            block = pm.get_block(0, 4, 0, 4)
            block[:] = -1.0
            ctx.rmi_fence()
            return pm.to_nested()

        out = run(prog, nlocs=4, machine="cray5")
        assert out[0] == [[0.0] * 4 for _ in range(4)]


class TestNodeAwareRouting:
    def test_exchange_coalesces_per_remote_node(self):
        def prog(ctx):
            slabs = [np.full(16, ctx.id * ctx.nlocs + d)
                     for d in range(ctx.nlocs)]
            got = ctx.bulk_exchange(slabs, nelems=16 * ctx.nlocs)
            ctx.rmi_fence()
            return [int(r[0]) for r in got]

        packed = run_detailed(prog, nlocs=8, machine="cray4",
                              placement="packed")
        spread = run_detailed(prog, nlocs=8, machine="cray4",
                              placement="spread")
        for rep in (packed, spread):
            for d, got in enumerate(rep.results):
                assert got == [s * 8 + d for s in range(8)]
        assert (packed.stats.total.physical_messages
                < spread.stats.total.physical_messages)
        assert packed.stats.total.coalesced_messages == 8  # one per sender
        assert spread.stats.total.coalesced_messages == 0

    def test_combining_flush_coalesces_at_fence(self):
        def prog(ctx):
            hm = PHashMap(ctx)
            ctx.rmi_fence()
            for d in range(ctx.nlocs):
                for i in range(4):
                    hm.accumulate((d, i), 1)
            ctx.rmi_fence()
            return sorted(hm.to_dict().items())

        packed = run_detailed(prog, nlocs=8, machine="cray4",
                              placement="packed")
        spread = run_detailed(prog, nlocs=8, machine="cray4",
                              placement="spread")
        assert packed.results[0] == spread.results[0]
        assert packed.stats.total.coalesced_messages > 0
        assert spread.stats.total.coalesced_messages == 0
        assert (packed.stats.total.physical_messages
                < spread.stats.total.physical_messages)

    def test_coalesced_flush_preserved_by_os_fence(self):
        # the scatter forwards carry the originating location, so a
        # one-sided fence completes them too
        def prog(ctx):
            hm = PHashMap(ctx)
            ctx.rmi_fence()
            if ctx.id == 0:
                for d in range(ctx.nlocs):
                    hm.accumulate((d, 0), 5)
                ctx.os_fence()
                done = [hm.find_val((d, 0)) for d in range(ctx.nlocs)]
            else:
                done = None
            ctx.rmi_fence()
            return done

        out = run(prog, nlocs=8, machine="cray4")
        assert out[0] == [(5, True)] * 8

    def test_redistribution_unchanged_by_topology(self):
        from repro.core.partitions import BlockCyclicPartition

        def prog(ctx):
            pa = PArray(ctx, 64, dtype=int)
            ctx.rmi_fence()
            for g in range(ctx.id, 64, ctx.nlocs):
                pa.set_element(g, g * 3)
            ctx.rmi_fence()
            pa.redistribute(BlockCyclicPartition(num_parts=16, block=4))
            return pa.to_list()

        for placement in ("packed", "spread"):
            out = run(prog, nlocs=8, machine="cray4", placement=placement)
            assert out[0] == [g * 3 for g in range(64)]
