"""Combining-buffer subsystem tests (Ch. III.B combining): windowed
flushes, source-FIFO ordering with scalar RMIs, fence completion, the
``RuntimeConfig(combining=False)`` ablation, and the combined-op counters."""

from repro.containers.associative import PHashMap
from repro.runtime import COMBINING_WINDOW, RuntimeConfig
from tests.conftest import run, run_detailed


def _remote_key_for(ctx, hm):
    """A key owned by another location (hash partition probe)."""
    from repro.core.partitions import stable_hash

    i = 0
    while True:
        key = f"probe{i}"
        if stable_hash(key) % ctx.nlocs != ctx.id and ctx.nlocs > 1:
            return key
        i += 1


class TestSemantics:
    def test_batched_equals_scalar_results(self):
        """The ablation invariant: identical to_dict with combining on/off."""

        def prog(ctx):
            hm = PHashMap(ctx)
            for i in range(40):
                hm.insert(f"k{i}_{ctx.id}", i)
                hm.accumulate(f"acc{i % 7}", 1)
            hm.erase_batch([f"k{i}_{ctx.id}" for i in range(0, 40, 2)])
            ctx.rmi_fence()
            return hm.to_dict()

        outs = {}
        for on in (True, False):
            outs[on] = run(prog, nlocs=4,
                           config=RuntimeConfig(combining=on))[0]
        assert outs[True] == outs[False]

    def test_fence_completes_buffered_ops(self):
        def prog(ctx):
            hm = PHashMap(ctx)
            hm.insert(f"key{ctx.id}", ctx.id)
            ctx.rmi_fence()
            return [hm.find(f"key{j}") for j in range(ctx.nlocs)]

        assert run(prog, nlocs=4)[0] == [0, 1, 2, 3]

    def test_sync_rmi_flushes_buffer_first(self):
        """Source-FIFO: a sync method to the same destination observes
        every buffered op issued before it, without a fence."""

        def prog(ctx):
            hm = PHashMap(ctx)
            ctx.rmi_fence()
            if ctx.id == 0 and ctx.nlocs > 1:
                key = _remote_key_for(ctx, hm)
                hm.accumulate(key, 5)
                # find() is synchronous: combined record must land first
                assert hm.find(key) == 5
            ctx.rmi_fence()
            return True

        assert all(run(prog, nlocs=4))

    def test_explicit_flush_combining(self):
        """Container-level flush moves records into the network (they
        execute at the destination's next poll/drain, not immediately)."""

        def prog(ctx):
            hm = PHashMap(ctx)
            ctx.rmi_fence()
            if ctx.id == 0:
                key = _remote_key_for(ctx, hm)
                hm.accumulate(key, 3)
                flushed = hm.flush_combining()
                assert flushed == 1
                assert hm.flush_combining() == 0  # already empty
            ctx.rmi_fence()
            return True

        assert all(run(prog, nlocs=2))

    def test_cross_container_fifo(self):
        """Source FIFO holds across p_objects on one channel: switching
        containers flushes the older buffer first, so replay order at the
        destination equals issue order."""
        trace = []

        def prog(ctx):
            a = PHashMap(ctx)
            b = PHashMap(ctx)
            key = _remote_key_for(ctx, a)  # same owner in both (same hash)
            if ctx.id == 0:
                a.insert_sync(key, 0)
                b.insert_sync(key, 0)
            ctx.rmi_fence()
            if ctx.id == 0:
                a.apply_set(key, lambda v: trace.append("a1") or v)
                b.apply_set(key, lambda v: trace.append("b1") or v)
                a.apply_set(key, lambda v: trace.append("a2") or v)
            ctx.rmi_fence()
            return True

        assert all(run(prog, nlocs=2))
        assert trace == ["a1", "b1", "a2"]

    def test_os_fence_completes_buffered_ops(self):
        def prog(ctx):
            hm = PHashMap(ctx)
            ctx.rmi_fence()
            if ctx.id == 0:
                key = _remote_key_for(ctx, hm)
                hm.set_element(key, 42)
                ctx.os_fence()
                # one-sided completion: the op already executed remotely
                assert hm.find(key) == 42
            ctx.rmi_fence()
            return True

        assert all(run(prog, nlocs=2))


class TestAccounting:
    def test_window_flush_is_one_physical_message(self):
        def prog(ctx):
            hm = PHashMap(ctx)
            ctx.rmi_fence()
            if ctx.id == 0:
                key = _remote_key_for(ctx, hm)
                msgs0 = ctx.stats.physical_messages
                for _ in range(3 * COMBINING_WINDOW):
                    hm.accumulate(key, 1)
                assert ctx.stats.physical_messages - msgs0 == 3
                assert ctx.stats.combining_flushes == 3
                assert ctx.stats.combined_ops == 3 * COMBINING_WINDOW
            ctx.rmi_fence()
            return hm.to_dict()

        out = run(prog, nlocs=2)[0]
        assert sum(out.values()) == 3 * COMBINING_WINDOW

    def test_message_reduction_vs_scalar(self):
        """Combining cuts physical messages by ~window/aggregation on an
        all-remote op stream."""

        def prog(ctx):
            hm = PHashMap(ctx)
            keys = []
            i = 0
            while len(keys) < 200:
                k = f"x{i}"
                i += 1
                from repro.core.partitions import stable_hash

                if stable_hash(k) % ctx.nlocs != ctx.id:
                    keys.append(k)
            ctx.rmi_fence()
            for k in keys:
                hm.accumulate(k, 1)
            ctx.rmi_fence()
            return True

        msgs = {}
        for on in (True, False):
            rep = run_detailed(prog, nlocs=2,
                               config=RuntimeConfig(combining=on))
            msgs[on] = rep.stats.total.physical_messages
        assert msgs[True] < msgs[False]

    def test_no_combining_for_local_ops(self):
        """Ops resolving to the calling location never buffer."""

        def prog(ctx):
            hm = PHashMap(ctx)
            from repro.core.partitions import stable_hash

            i = 0
            while stable_hash(f"loc{i}") % ctx.nlocs != ctx.id:
                i += 1
            hm.insert(f"loc{i}", ctx.id)
            assert ctx.stats.combined_ops == 0
            ctx.rmi_fence()
            return hm.find(f"loc{i}")

        assert run(prog, nlocs=2) == [0, 1]
