"""Container-level batch APIs riding the combining buffers:
``insert_range`` / ``accumulate_batch`` / ``erase_batch`` on the
associative containers, ``push_back_range`` / ``push_anywhere_range`` on
pList, ``add_edges_batch`` on pGraph — each asserted equivalent to its
scalar loop with combining on and off."""


from repro.containers.associative import (
    PHashMap,
    PHashSet,
    PMap,
    PMultiMap,
    PMultiSet,
    PSet,
)
from repro.containers.pgraph import PGraph
from repro.containers.plist import PList
from repro.runtime import RuntimeConfig
from tests.conftest import run, run_detailed


def both_modes(prog, nlocs=4, **kw):
    """Run under combining on and off; assert identical results."""
    outs = {}
    for on in (True, False):
        outs[on] = run(prog, nlocs=nlocs,
                       config=RuntimeConfig(combining=on), **kw)
    assert outs[True] == outs[False]
    return outs[True]


class TestAssociativeBatch:
    def test_insert_range_pair_containers(self):
        for cls in (PHashMap, PMap, PMultiMap):
            def prog(ctx, cls=cls):
                c = cls(ctx)
                c.insert_range((f"w{ctx.id}_{i}", i) for i in range(25))
                ctx.rmi_fence()
                return sorted(c.to_dict().items())

            out = both_modes(prog)
            assert len(out[0]) == 4 * 25

    def test_insert_range_set_containers(self):
        for cls in (PHashSet, PSet, PMultiSet):
            def prog(ctx, cls=cls):
                s = cls(ctx)
                s.insert_range(f"e{ctx.id}_{i}" for i in range(20))
                ctx.rmi_fence()
                s.update_size()
                return s.size()

            assert both_modes(prog) == [80] * 4

    def test_accumulate_batch_matches_scalar(self):
        def prog(ctx, batched):
            hm = PHashMap(ctx)
            pairs = [(f"k{i % 9}", 1) for i in range(45)]
            if batched:
                hm.accumulate_batch(pairs)
            else:
                for k, v in pairs:
                    hm.accumulate(k, v)
            ctx.rmi_fence()
            return sorted(hm.to_dict().items())

        a = both_modes(lambda ctx: prog(ctx, True))
        b = both_modes(lambda ctx: prog(ctx, False))
        assert a == b
        assert a[0] == [(f"k{i}", 20) for i in range(9)]

    def test_erase_batch(self):
        def prog(ctx):
            hm = PHashMap(ctx)
            if ctx.id == 0:
                hm.insert_range((f"k{i}", i) for i in range(30))
            ctx.rmi_fence()
            if ctx.id == ctx.nlocs - 1:
                hm.erase_batch(f"k{i}" for i in range(0, 30, 3))
            ctx.rmi_fence()
            hm.update_size()
            return hm.size(), sorted(hm.to_dict())

        out = both_modes(prog)
        assert out[0][0] == 20
        assert "k0" not in out[0][1] and "k1" in out[0][1]

    def test_batch_reduces_messages(self):
        """insert_range ships >=10x fewer physical messages than the same
        inserts with combining disabled (all-remote keys, 2 locations)."""

        def prog(ctx):
            hm = PHashMap(ctx)
            from repro.core.partitions import stable_hash

            keys = [k for k in (f"r{i}" for i in range(3000))
                    if stable_hash(k) % ctx.nlocs != ctx.id][:1000]
            ctx.rmi_fence()
            m0 = ctx.stats.physical_messages
            hm.insert_range((k, ctx.id) for k in keys)
            ctx.rmi_fence()
            return ctx.stats.physical_messages - m0

        msgs = {}
        for on in (True, False):
            msgs[on] = sum(run(prog, nlocs=2,
                               config=RuntimeConfig(combining=on)))
        assert msgs[False] >= 10 * msgs[True]


class TestPListBatch:
    def test_push_back_range_order(self):
        def prog(ctx):
            pl = PList(ctx)
            if ctx.id == 0:
                pl.push_back_range(range(10))
            ctx.rmi_fence()
            return pl.to_list()

        assert both_modes(prog)[0] == list(range(10))

    def test_push_front_range(self):
        def prog(ctx):
            pl = PList(ctx)
            if ctx.id == ctx.nlocs - 1:
                pl.push_front_range([1, 2, 3])
            ctx.rmi_fence()
            return pl.to_list()

        assert both_modes(prog)[0] == [3, 2, 1]

    def test_push_anywhere_range_gids(self):
        def prog(ctx):
            pl = PList(ctx)
            gids = pl.push_anywhere_range([ctx.id * 10 + i for i in range(3)])
            ctx.rmi_fence()
            assert [pl.get_element(g) for g in gids] == \
                [ctx.id * 10 + i for i in range(3)]
            pl.update_size()
            return pl.size()

        assert both_modes(prog) == [12] * 4

    def test_remote_push_combines(self):
        """Remote push_back_range buffers instead of one RMI per value."""

        def prog(ctx):
            pl = PList(ctx)
            ctx.rmi_fence()
            if ctx.id == 0 and ctx.nlocs > 1:
                pl.push_back_range(range(100))  # last segment is remote
                assert ctx.stats.combined_ops == 100
            ctx.rmi_fence()
            return pl.to_list()

        assert run(prog, nlocs=2)[0] == list(range(100))


class TestPGraphBatch:
    def test_add_edges_batch_static(self):
        def prog(ctx):
            n = 4 * ctx.nlocs
            pg = PGraph(ctx, num_vertices=n)
            ctx.rmi_fence()
            if ctx.id == 0:
                pg.add_edges_batch((v, (v + 1) % n) for v in range(n))
            ctx.rmi_fence()
            return pg.get_num_edges()

        n = 16
        assert both_modes(prog) == [n] * 4

    def test_add_edges_batch_with_properties(self):
        def prog(ctx):
            pg = PGraph(ctx, num_vertices=8)
            ctx.rmi_fence()
            if ctx.id == 0:
                pg.add_edges_batch([(0, 1, "a"), (1, 2, "b"), (2, 3)])
            ctx.rmi_fence()
            return pg.find_edge(1, 2), pg.find_edge(2, 3)

        out = both_modes(prog, nlocs=2)
        assert out[0] == (["b"], [None])

    def test_add_edges_batch_dynamic_forwarding(self):
        """Directory graph: combined records replay through the forwarding
        chain and still complete at the fence."""

        def prog(ctx):
            pg = PGraph(ctx, num_vertices=4 * ctx.nlocs, dynamic=True,
                        forwarding=True)
            ctx.rmi_fence()
            n = 4 * ctx.nlocs
            pg.add_edges_batch((v, (v + 2) % n) for v in
                               range(ctx.id, n, ctx.nlocs))
            ctx.rmi_fence()
            return pg.get_num_edges()

        assert both_modes(prog) == [16] * 4


class TestBatchedGathers:
    def test_to_dict_charges_gather_slabs(self):
        def prog(ctx):
            hm = PHashMap(ctx)
            hm.insert(f"k{ctx.id}", ctx.id)
            ctx.rmi_fence()
            b0 = ctx.stats.bulk_rmi_sent
            d = hm.to_dict()
            assert ctx.stats.bulk_rmi_sent - b0 == ctx.nlocs - 1
            return d

        out = run_detailed(lambda ctx: prog(ctx), nlocs=4)
        assert out.results[0] == {f"k{i}": i for i in range(4)}

    def test_sorted_items_and_to_list_still_ordered(self):
        def prog(ctx):
            pm = PMap(ctx, splitters=[3, 6, 9])
            pm.insert_range(((i, i * i) for i in range(ctx.id, 12, ctx.nlocs)))
            pl = PList(ctx)
            pl.push_anywhere(ctx.id)
            ctx.rmi_fence()
            return pm.sorted_items(), pl.to_list()

        items, seq = both_modes(prog)[0]
        assert items == [(i, i * i) for i in range(12)]
        assert seq == [0, 1, 2, 3]
