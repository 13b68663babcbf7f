"""Migration-subsystem tests: forwarding chains that cross a migration,
flavour preservation, lookup-cache epochs, and load-driven rebalancing on
every container family."""

from repro.containers.associative import PHashMap, PMap
from repro.containers.parray import PArray
from repro.containers.pgraph import PGraph
from repro.containers.plist import PList
from repro.containers.pmatrix import PMatrix
from repro.containers.pvector import PVector
from repro.core.migration import lpt_assignment
from repro.runtime import RuntimeConfig
from tests.conftest import run, run_detailed


class TestInFlightAcrossMigration:
    """Start an async/sync/opaque invoke, migrate the owning bContainer,
    and assert the request terminates at the new owner with the caller's
    flavour preserved (no silent async -> sync conversion)."""

    def _async_cross(self, make, set_op, get_op, gid, bcid):
        """Generic scenario: location 0 fires an async op at the bContainer
        on location 1, everyone migrates that bContainer to the last
        location, then a fence completes the op at its new home."""
        def prog(ctx):
            c = make(ctx)
            ctx.rmi_fence()
            sync_before = ctx.stats.sync_rmi_sent
            if ctx.id == 0:
                set_op(c, gid)
            c.migrate({bcid: ctx.nlocs - 1})
            sync_during = ctx.stats.sync_rmi_sent - sync_before
            ctx.rmi_fence()
            return (get_op(c, gid), sync_during,
                    ctx.stats.stale_redirects)
        return run(prog, nlocs=4)

    def test_parray_async(self):
        out = self._async_cross(
            lambda ctx: PArray(ctx, 16, dtype=int),
            lambda c, gid: c.set_element(gid, 99),
            lambda c, gid: c.get_element(gid),
            gid=5, bcid=1)  # gids 4..7 live in bContainer 1 (on location 1)
        assert all(o[0] == 99 for o in out)
        # the async op was redirected, never converted into a sync round trip
        assert all(o[1] == 0 for o in out)
        assert sum(o[2] for o in out) >= 1

    def test_pvector_async(self):
        out = self._async_cross(
            lambda ctx: PVector(ctx, 16),
            lambda c, gid: c.set_element(gid, 77),
            lambda c, gid: c.get_element(gid),
            gid=5, bcid=1)
        assert all(o[0] == 77 for o in out)
        assert all(o[1] == 0 for o in out)
        assert sum(o[2] for o in out) >= 1

    def test_pmatrix_async(self):
        out = self._async_cross(
            lambda ctx: PMatrix(ctx, 4, 4, value=0.0),
            lambda c, gid: c.set_element(gid, 3.5),
            lambda c, gid: c.get_element(gid),
            gid=(1, 2), bcid=1)
        assert all(o[0] == 3.5 for o in out)
        assert all(o[1] == 0 for o in out)
        assert sum(o[2] for o in out) >= 1

    def test_plist_async(self):
        out = self._async_cross(
            lambda ctx: PList(ctx, 8, value=0),
            lambda c, gid: c.set_element(gid, 42),
            lambda c, gid: c.get_element(gid),
            gid=(1, 0), bcid=1)  # first element of segment 1
        assert all(o[0] == 42 for o in out)
        assert all(o[1] == 0 for o in out)
        assert sum(o[2] for o in out) >= 1

    def test_phashmap_async(self):
        def prog(ctx):
            hm = PHashMap(ctx)
            key = 1  # stable_hash(1) % 4 == 2: bucket 2, owned by loc 2
            bcid = hm.partition.find(key).bcid
            if ctx.id == 0:
                hm.insert(key, "v")
            ctx.rmi_fence()
            sync_before = ctx.stats.sync_rmi_sent
            if ctx.id == 0:
                hm.set_element(key, "w")  # async, combining-eligible
            hm.migrate({bcid: ctx.nlocs - 1})
            sync_during = ctx.stats.sync_rmi_sent - sync_before
            ctx.rmi_fence()
            return (hm.find(key), sync_during, ctx.stats.stale_redirects)
        out = run(prog, nlocs=4)
        assert all(o[0] == "w" for o in out)
        assert all(o[1] == 0 for o in out)
        assert sum(o[2] for o in out) >= 1

    def test_pgraph_async(self):
        def prog(ctx):
            # vds blocked over 4 bContainers: vd 5 lives in bContainer 2
            g = PGraph(ctx, 8, dynamic=True, default_property=0)
            vd, bcid = 5, 2
            ctx.rmi_fence()
            if ctx.id == 0:
                g.vertex_property(vd)  # warm the route (home replies)
            ctx.rmi_fence()
            sync_before = ctx.stats.sync_rmi_sent
            if ctx.id == 0:
                # cached route: the combined op ships straight to the
                # (soon to be stale) owner
                g.set_vertex_property(vd, "p")
            g.migrate({bcid: ctx.nlocs - 1})
            sync_during = ctx.stats.sync_rmi_sent - sync_before
            ctx.rmi_fence()
            return (g.vertex_property(vd), sync_during,
                    ctx.stats.stale_redirects)
        out = run(prog, nlocs=4)
        assert all(o[0] == "p" for o in out)
        assert all(o[1] == 0 for o in out)
        assert sum(o[2] for o in out) >= 1

    def test_opaque_future_resolves_at_new_owner(self):
        def prog(ctx):
            pa = PArray(ctx, 16, dtype=int)
            for i in range(ctx.id, 16, ctx.nlocs):
                pa.set_element(i, i * 3)
            ctx.rmi_fence()
            fut = None
            if ctx.id == 0:
                fut = pa.split_phase_get_element(5)
            pa.migrate({1: ctx.nlocs - 1})
            ctx.rmi_fence()
            return fut.get() if fut is not None else None
        out = run(prog, nlocs=4)
        assert out[0] == 15

    def test_sync_after_migration_re_resolves(self):
        def prog(ctx):
            pa = PArray(ctx, 16, dtype=int)
            pa.set_element(5, 1)
            ctx.rmi_fence()
            before = pa.get_element(5)
            pa.migrate({1: ctx.nlocs - 1})
            after = pa.get_element(5)
            return before, after, pa.lookup(5)
        out = run(prog, nlocs=4)
        assert all(o == (1, 1, 3) for o in out)


class TestLookupCacheEpochs:
    def test_cache_hits_and_epoch_invalidation(self):
        def prog(ctx):
            pa = PArray(ctx, 16, dtype=int)
            tgt = (ctx.id + 1) % ctx.nlocs * 4  # remote element
            ctx.rmi_fence()
            h0 = ctx.stats.lookup_cache_hits
            pa.get_element(tgt)               # miss: fills the run
            pa.get_element(tgt)               # hit
            pa.get_element(tgt + 1)           # hit (same cached run)
            hits = ctx.stats.lookup_cache_hits - h0
            epoch_before = pa.distribution_epoch()
            inval_before = ctx.stats.lookup_cache_invalidations
            pa.migrate({0: ctx.nlocs - 1})
            epoch_after = pa.distribution_epoch()
            h1 = ctx.stats.lookup_cache_hits
            pa.get_element(tgt)               # miss again: cache dropped
            first_after = ctx.stats.lookup_cache_hits - h1
            return (hits, epoch_after - epoch_before,
                    ctx.stats.lookup_cache_invalidations - inval_before,
                    first_after)
        out = run(prog, nlocs=4)
        for hits, depoch, dinval, first_after in out:
            assert hits == 2
            assert depoch == 1
            assert dinval == 1
            assert first_after == 0  # the post-migration access was a miss

    def test_cache_toggle_preserves_results(self):
        def prog(ctx):
            hm = PHashMap(ctx)
            if ctx.id == 0:
                for k in range(20):
                    hm.insert(k, k * k)
            ctx.rmi_fence()
            return [hm.find(k) for k in range(20)]
        outs = []
        for on in (True, False):
            outs.append(run(prog, nlocs=4,
                            config=RuntimeConfig(lookup_cache=on)))
        assert outs[0] == outs[1]

    def test_stale_cached_route_re_forwards(self):
        """Delete a vertex and re-create it elsewhere: a location holding a
        cached (now stale) route must re-forward through the directory."""
        def prog(ctx):
            # vd 103: directory home on location 2, created on location 1,
            # later re-created on location 0, probed from location 3 — so
            # the probe's route really is learned remotely and goes stale
            vd = 103
            g = PGraph(ctx, 0, dynamic=True, default_property=0)
            if ctx.id == 1:
                g.add_vertex_with(vd, "first")
            ctx.rmi_fence()
            # location 3 learns the route (forwarding + route update)
            if ctx.id == 3:
                g.set_vertex_property(vd, "seen")
            ctx.rmi_fence()
            if ctx.id == 1:
                g.delete_vertex(vd)
            ctx.rmi_fence()
            if ctx.id == 0:
                g.add_vertex_with(vd, "second")
            ctx.rmi_fence()
            val, cached = None, None
            if ctx.id == 3:
                cached = g._dist._cache.lookup(vd)
                val = g.apply_vertex_get(vd, lambda v: v.property)
            ctx.rmi_fence()
            return val, cached, ctx.stats.stale_redirects
        out = run(prog, nlocs=4)
        assert out[3][1] == 1  # the stale route really was cached
        assert out[3][0] == "second"
        assert sum(o[2] for o in out) >= 1

    def test_stale_local_route_re_forwards(self):
        """A stale cached route that resolves to the *requesting* location
        itself must also re-forward, not execute against the local
        bContainer (which no longer holds the vertex)."""
        def prog(ctx):
            # vd 2: directory home on location 1; created on location 0
            vd = 2
            g = PGraph(ctx, 0, dynamic=True, default_property=0)
            if ctx.id == 0:
                g.add_vertex_with(vd, "first")
            ctx.rmi_fence()
            if ctx.id == 0:
                g.set_vertex_property(vd, "seen")  # forwarded: home replies
            ctx.rmi_fence()
            if ctx.id == 0:
                g.delete_vertex(vd)
            ctx.rmi_fence()
            if ctx.id == 1:
                g.add_vertex_with(vd, "second")
            ctx.rmi_fence()
            val, cached = None, None
            if ctx.id == 0:
                cached = g._dist._cache.lookup(vd)
                val = g.vertex_property(vd)
            ctx.rmi_fence()
            return val, cached, ctx.stats.stale_redirects
        out = run(prog, nlocs=4)
        assert out[0][1] == 0  # loc 0 still holds its own (stale) route
        assert out[0][0] == "second"
        assert sum(o[2] for o in out) >= 1


class TestRebalance:
    def test_rebalance_spreads_skewed_hashmap(self):
        def prog(ctx):
            hm = PHashMap(ctx, num_bcontainers=4 * ctx.nlocs)
            if ctx.id == 0:
                for k in range(200):
                    hm.insert(f"k{k}", k)
            ctx.rmi_fence()
            before = hm.to_dict()
            max_before = ctx.allreduce_rmi(hm.local_size(), max)
            hm.rebalance()
            max_after = ctx.allreduce_rmi(hm.local_size(), max)
            return (before == hm.to_dict(), max_before, max_after,
                    ctx.stats.bcontainers_migrated)
        out = run(prog, nlocs=4)
        assert all(o[0] for o in out)
        # the heaviest location sheds load (bin packing over 16 buckets)
        assert out[0][2] <= out[0][1]
        assert sum(o[3] for o in out) >= 1

    def test_rebalance_every_container_family(self):
        def prog(ctx):
            pa = PArray(ctx, 16, dtype=int)
            pv = PVector(ctx, 12, value=2)
            pl = PList(ctx, 9, value=1)
            pm = PMatrix(ctx, 4, 4, value=1.0)
            hm = PMap(ctx)
            g = PGraph(ctx, 8, dynamic=True, default_property=0)
            if ctx.id == 0:
                hm.insert_range((k, k) for k in range(12))
            ctx.rmi_fence()
            pa.rebalance(policy="load")
            pm.rebalance(policy="load")
            for c in (pv, pl, hm, g):
                c.rebalance()
            return (pa.to_list(), pv.to_list(), pl.to_list(),
                    pm.to_nested(), sorted(hm.to_dict().items()),
                    g.num_vertices_sync())
        out = run(prog, nlocs=3)
        pa_l, pv_l, pl_l, pm_n, hm_d, nv = out[0]
        assert pa_l == [0] * 16
        assert pv_l == [2] * 12
        assert pl_l == [1] * 9
        assert pm_n == [[1.0] * 4 for _ in range(4)]
        assert hm_d == [(k, k) for k in range(12)]
        assert nv == 8
        assert all(o == out[0] for o in out)

    def test_lpt_assignment_deterministic_and_balanced(self):
        loads = {0: 10.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 4.0, 5: 4.0}
        a = lpt_assignment(loads, (0, 1, 2))
        assert a == lpt_assignment(loads, (0, 1, 2))
        per_member = {}
        for bcid, m in a.items():
            per_member[m] = per_member.get(m, 0) + loads[bcid]
        assert max(per_member.values()) == 10.0  # heaviest alone in a bin

    def test_migrate_range_hands_over_ownership(self):
        def prog(ctx):
            pa = PArray(ctx, 16, dtype=int)
            for i in range(ctx.id, 16, ctx.nlocs):
                pa.set_element(i, i)
            ctx.rmi_fence()
            pa.migrate_range(4, 12, ctx.nlocs - 1)
            return (pa.lookup(4), pa.lookup(11), pa.lookup(0),
                    pa.to_list())
        out = run(prog, nlocs=4)
        assert out[0][0] == 3 and out[0][1] == 3
        assert out[0][2] == 0
        assert out[0][3] == list(range(16))

    def test_migrate_validates_assignment(self):
        def prog(ctx):
            pa = PArray(ctx, 8, dtype=int)
            try:
                pa.migrate({0: 99})
                return False
            except ValueError:
                ctx.barrier()  # keep the collective structure aligned
                return True
        assert all(run(prog, nlocs=2))

    def test_migration_counters(self):
        def prog(ctx):
            pa = PArray(ctx, 16, dtype=int)
            pa.migrate({0: 1, 1: 0})
            ctx.rmi_fence()
            return (ctx.stats.bcontainers_migrated,
                    ctx.stats.migration_elements_moved)
        rep = run_detailed(prog, nlocs=4)
        total = rep.stats.total
        assert total.bcontainers_migrated == 2
        assert total.migration_elements_moved == 8  # two blocks of 4


class TestDirectoryEntryMigration:
    def test_home_entries_move_with_their_bcid(self):
        """Directory lookups must keep resolving after the home bContainer
        (and therefore its directory entries) migrates."""
        def prog(ctx):
            g = PGraph(ctx, 16, dynamic=True, default_property=0)
            ctx.rmi_fence()
            # move every bContainer one location to the right
            assignment = {
                b: g.group.members[(g.group.index_of(g.mapper.map(b)) + 1)
                                   % len(g.group)]
                for b in range(g.partition.size())}
            g.migrate(assignment)
            ctx.rmi_fence()
            ok = all(g.has_vertex(v) for v in range(16))
            deg = [g.out_degree(v) for v in range(16)]
            return ok, deg
        out = run(prog, nlocs=4)
        assert all(o[0] for o in out)
        assert all(o[1] == [0] * 16 for o in out)
