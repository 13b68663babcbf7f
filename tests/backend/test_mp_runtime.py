"""Protocol-level tests of the multiprocessing backend: collectives with
unpicklable operators, sync/split-phase round trips, fence quiescence,
one-sided fences, shared-memory slab transport, failure propagation and
fail-fast deadlock detection."""

import glob
import os
import threading
import time
import traceback

import numpy as np
import pytest

from repro.algorithms.prange import Paragraph
from repro.runtime import (
    PObject,
    SpmdError,
    spmd_run,
    spmd_run_detailed,
)
from repro.runtime.mp import (
    MpRuntime,
    ShmArena,
    pack_payload,
    unpack_payload,
)

TIMEOUT = 60.0


def mp_run(prog, nlocs=4, args=(), **kw):
    kw.setdefault("timeout", TIMEOUT)
    return spmd_run(prog, nlocs=nlocs, args=args,
                    backend="multiprocessing", **kw)


class Cell(PObject):
    """Minimal shared object: one slot per location."""

    def __init__(self, ctx, value=0):
        super().__init__(ctx)
        self.value = value
        self.log = []

    def set(self, v):
        self.value = v

    def add(self, v):
        self.value += v

    def get(self):
        return self.value

    def record(self, v):
        self.log.append(v)

    def forward(self, dest, v):
        """Handler-spawned continuation: re-sends from inside a handler."""
        if dest == self.ctx.id:
            self.value += v
        else:
            self.async_to(dest, "forward", dest, v)

    def async_to(self, dest, method, *args):
        self.runtime.current_location.async_rmi(dest, self.handle, method,
                                                *args)


class TestCollectives:
    def test_allreduce_with_lambda_op(self):
        def prog(ctx):
            return ctx.allreduce_rmi(ctx.id + 1, lambda a, b: a * b)
        assert mp_run(prog, 4) == [24] * 4

    def test_scan_inclusive_exclusive(self):
        def prog(ctx):
            inc = ctx.scan_rmi(ctx.id + 1)
            exc = ctx.scan_rmi(ctx.id + 1, exclusive=True)
            return inc, exc
        out = mp_run(prog, 3)
        assert [r[0] for r in out] == [(1, 6), (3, 6), (6, 6)]
        assert [r[1] for r in out] == [(None, 6), (1, 6), (3, 6)]

    def test_broadcast_allgather_alltoall(self):
        def prog(ctx):
            b = ctx.broadcast_rmi(1, "payload" if ctx.id == 1 else None)
            g = ctx.allgather_rmi(ctx.id * 2)
            a = ctx.alltoall_rmi([f"{ctx.id}->{d}" for d in range(ctx.nlocs)])
            return b, g, a
        out = mp_run(prog, 3)
        assert all(r[0] == "payload" for r in out)
        assert all(r[1] == [0, 2, 4] for r in out)
        assert out[1][2] == ["0->1", "1->1", "2->1"]

    def test_reduce_rooted(self):
        def prog(ctx):
            return ctx.reduce_rmi(ctx.id, root=2)
        assert mp_run(prog, 4) == [None, None, 6, None]

    def test_reduce_root_outside_group_raises(self):
        from repro.runtime import LocationGroup

        def prog(ctx):
            # the default root, 0, is not a member
            if ctx.id:
                return ctx.reduce_rmi(1, group=LocationGroup([1, 2]))
        with pytest.raises(SpmdError,
                           match="reduce: root did not participate"):
            mp_run(prog, 3)

    def test_barrier_and_subgroup_collective(self):
        from repro.runtime import LocationGroup

        def prog(ctx):
            ctx.barrier()
            if ctx.id < 2:
                g = LocationGroup([0, 1])
                return ctx.allreduce_rmi(10 + ctx.id, group=g)
            return None
        assert mp_run(prog, 4) == [21, 21, None, None]


class TestRegistration:
    def test_handle_resolves_before_the_exchange_starts(self):
        """A peer that already finished a registration may send a request
        that executes while this location still waits in the exchange
        (different sender queues have no mutual order), so the proposed
        handle must resolve before the exchange starts."""

        def prog(ctx):
            seen = []
            real = MpRuntime.exchange

            def spy(self, loc, op, payload, group, personalised):
                if op == "register":
                    seen.append(self.lookup(payload, loc.id))
                return real(self, loc, op, payload, group, personalised)

            MpRuntime.exchange = spy  # this worker process only
            c = Cell(ctx)
            return seen == [c]

        assert mp_run(prog, 3) == [True] * 3


class TestPointToPoint:
    def test_sync_rmi_round_trip(self):
        def prog(ctx):
            c = Cell(ctx, value=ctx.id * 100)
            ctx.rmi_fence()
            got = ctx.sync_rmi((ctx.id + 1) % ctx.nlocs, c.handle, "get")
            ctx.rmi_fence()
            return got
        assert mp_run(prog, 4) == [100, 200, 300, 0]

    def test_opaque_rmi_future(self):
        def prog(ctx):
            c = Cell(ctx, value=ctx.id + 7)
            ctx.rmi_fence()
            fut = ctx.opaque_rmi((ctx.id + 1) % ctx.nlocs, c.handle, "get")
            val = fut.get()
            ctx.rmi_fence()
            return val
        assert mp_run(prog, 3) == [8, 9, 7]

    def test_async_completes_at_fence(self):
        def prog(ctx):
            c = Cell(ctx, value=0)
            ctx.rmi_fence()
            # everyone bombs location 0 with commutative adds
            for k in range(5):
                ctx.async_rmi(0, c.handle, "add", 1)
            ctx.rmi_fence()
            return c.value
        out = mp_run(prog, 4)
        assert out[0] == 20 and out[1:] == [0, 0, 0]

    def test_source_fifo_per_channel(self):
        def prog(ctx):
            c = Cell(ctx)
            ctx.rmi_fence()
            for k in range(30):
                ctx.async_rmi(0, c.handle, "record", (ctx.id, k))
            ctx.rmi_fence()
            return c.log
        log = mp_run(prog, 4)[0]
        for src in range(4):
            seq = [k for (s, k) in log if s == src]
            assert seq == sorted(seq), f"FIFO violated for source {src}"

    def test_os_fence_completes_forwarded_chain(self):
        def prog(ctx):
            c = Cell(ctx, value=0)
            ctx.rmi_fence()
            if ctx.id == 0:
                # 0 -> 1 -> 2 -> 3 forwarded continuation chain; os_fence on
                # the origin alone must cover the whole chain
                c.async_to(1, "forward", 3, 5)
                ctx.os_fence()
            ctx.barrier()
            val = c.value
            ctx.rmi_fence()
            return val
        assert mp_run(prog, 4)[3] == 5

    def test_os_fence_waits_for_a_handler_blocked_in_sync_rmi(self):
        """A request counts as executed only once its handler returns: the
        forward location 1's handler sends *after* its sync RMI to a busy
        location 3 comes back is still covered by location 0's
        ``os_fence``."""

        def prog(ctx):
            c = Relay(ctx)
            ctx.rmi_fence()
            if ctx.id == 0:
                c.async_to(1, "relay")
                ctx.os_fence()
                got = ctx.sync_rmi(2, c.handle, "get")
            else:
                got = None
            ctx.rmi_fence()
            return got

        assert mp_run(prog, 4)[0] == 7

    def test_async_traffic_sends_nothing_back_to_its_sender(self):
        """No per-request protocol traffic: location 0 receives only the
        fence's exchange items, whatever it sent."""

        def prog(ctx):
            c = Cell(ctx)
            ctx.rmi_fence()
            kinds = []
            if ctx.id == 0:
                rt = ctx.runtime
                real = rt._next_item

                def tally(*args):
                    item = real(*args)
                    if item is not None:
                        kinds.append(item[3] if item[0] == "slab" else item[0])
                    return item

                rt._next_item = tally
                for _ in range(100):
                    ctx.async_rmi(1, c.handle, "add", 1)
            ctx.rmi_fence()
            return kinds, c.value

        (kinds, _), (_, value) = mp_run(prog, 2)
        assert set(kinds) == {"fence"} and len(kinds) < 100
        assert value == 100


class Relay(Cell):
    """Location 1 relays to location 2 after a sync RMI to location 3,
    whose handler stays busy (but responsive) for about half a second."""

    def relay(self):
        ctx = self.runtime.current_location
        ctx.sync_rmi(3, self.handle, "busy")
        ctx.async_rmi(2, self.handle, "set", 7)

    def busy(self):
        here = self.runtime.current_location
        t_end = time.monotonic() + 0.5
        while time.monotonic() < t_end:
            here.poll()
            time.sleep(0.001)


class TestSlabTransport:
    def test_big_array_via_shared_memory(self):
        def prog(ctx):
            big = np.arange(50_000, dtype=np.float64) + ctx.id
            slabs = [big if d != ctx.id else None for d in range(ctx.nlocs)]
            got = ctx.bulk_exchange(slabs)
            checks = [float(got[d][0]) for d in range(ctx.nlocs)
                      if d != ctx.id]
            ctx.rmi_fence()
            return checks
        out = mp_run(prog, 3)
        assert out[0] == [1.0, 2.0] and out[2] == [0.0, 1.0]

    def test_bulk_gather_order(self):
        def prog(ctx):
            got = ctx.bulk_gather(np.full(4, ctx.id))
            ctx.rmi_fence()
            return [int(g[0]) for g in got]
        assert mp_run(prog, 4) == [[0, 1, 2, 3]] * 4

    def test_pack_unpack_threshold(self):
        small = np.arange(8)
        big = np.arange(4096, dtype=np.int64)
        names = iter(f"rstest_pk_{i}" for i in range(10))
        arena = ShmArena(lambda: next(names))
        try:
            packed = pack_payload((small, {"x": big}), arena, threshold=1024)
            # one segment, of big's size class: big rides it, small
            # (below the threshold) is inline in the packed bytes
            (seg,) = glob.glob("/dev/shm/rstest_pk_*")
            assert os.path.getsize(seg) == ShmArena._size_class(big.nbytes)
            assert small.tobytes() in packed
            assert len(packed) < big.nbytes
            out = unpack_payload(packed)
        finally:
            arena.dispose()
        np.testing.assert_array_equal(out[0], small)
        np.testing.assert_array_equal(out[1]["x"], big)


class TestReporting:
    def test_detailed_report_wall_clock_and_stats(self):
        def prog(ctx):
            c = Cell(ctx)
            ctx.rmi_fence()
            ctx.async_rmi((ctx.id + 1) % ctx.nlocs, c.handle, "add", 1)
            ctx.rmi_fence()
            return ctx.id
        rep = spmd_run_detailed(prog, nlocs=2, backend="multiprocessing",
                                timeout=TIMEOUT)
        assert rep.backend == "multiprocessing"
        assert rep.results == [0, 1]
        assert rep.wall_seconds > 0
        assert len(rep.clocks) == 2 and rep.max_clock > 0
        assert rep.stats.total.async_rmi_sent == 2

    def test_toggle_options_reach_runner(self):
        with pytest.raises(TypeError):
            spmd_run(lambda ctx: 0, nlocs=1, backend="simulated",
                     timeout=1.0)


class TestFailures:
    def test_handler_error_propagates(self):
        def prog(ctx):
            c = Cell(ctx)
            ctx.rmi_fence()
            if ctx.id == 0:
                ctx.sync_rmi(1, c.handle, "no_such_method")
            ctx.rmi_fence()
        with pytest.raises(SpmdError, match="no_such_method"):
            mp_run(prog, 2)

    def test_worker_exception_propagates(self):
        def prog(ctx):
            if ctx.id == 1:
                raise ValueError("worker boom")
            ctx.rmi_fence()
        with pytest.raises(SpmdError, match="worker boom"):
            mp_run(prog, 2)

    def test_root_cause_wins_over_peer_blocked_in_paragraph(self):
        """Location 2 raises while location 0 sits in a blocked
        ``Paragraph.run()``: the stop must unblock location 0 at once and
        the report must name the first failure, not the lowest lid."""

        def prog(ctx):
            pg = Paragraph(ctx)
            if ctx.id == 2:
                raise ValueError("root cause on two")
            if ctx.id == 0:
                pg.add_task(lambda _chunk: None, key="never", needs=1)
            pg.run(fence=False)

        t0 = time.monotonic()
        with pytest.raises(SpmdError, match="location 2 .*root cause on two"):
            mp_run(prog, 3)
        assert time.monotonic() - t0 < 2.0

    def test_mismatched_collective_fails_fast(self):
        def prog(ctx):
            if ctx.id == 0:
                ctx.allreduce_rmi(1)
            else:
                ctx.barrier()
        with pytest.raises(SpmdError, match="mismatch|timed out|aborted"):
            mp_run(prog, 2, op_timeout=5.0, timeout=30.0)

    def test_lone_collective_times_out(self):
        def prog(ctx):
            if ctx.id == 0:
                ctx.allreduce_rmi(1)  # location 1 never joins
            return ctx.id
        with pytest.raises(SpmdError, match="timed out|aborted"):
            mp_run(prog, 2, op_timeout=5.0, timeout=30.0)

    def test_cross_location_lookup_rejected(self):
        def prog(ctx):
            c = Cell(ctx)
            ctx.rmi_fence()
            try:
                ctx.runtime.lookup(c.handle, (ctx.id + 1) % ctx.nlocs)
                return "reached"
            except SpmdError as exc:
                res = "denied" if "shared address space" in str(exc) else "?"
            ctx.rmi_fence()
            return res
        assert mp_run(prog, 2) == ["denied", "denied"]


class TestUnserializableSend:
    """A send whose payload cannot be serialized raises at the call site,
    in the sender's stack, and moves no transport state: the fence
    counters, tokens and futures are as if the send was never issued."""

    KINDS = ["async_rmi", "sync_rmi", "opaque_rmi"]

    @staticmethod
    def _prog(ctx, kind, catch):
        c = Cell(ctx)
        ctx.rmi_fence()
        frames, state = None, None
        if ctx.id == 0:
            rt = ctx.runtime
            try:
                getattr(ctx, kind)(1, c.handle, "set", threading.Lock())
            except Exception as exc:
                if not catch:
                    raise
                assert "pickle" in str(exc).lower()
                frames = [f.name for f in traceback.extract_tb(
                    exc.__traceback__)]
            state = (rt.req_sent, sum(rt.sent_to), sum(rt.origin_sent),
                     rt._next_token, len(rt._futures))
        t0 = time.monotonic()
        ctx.rmi_fence()
        ctx.os_fence()
        fenced_in = time.monotonic() - t0
        # the channel still works, and nothing stale resolves the reply
        got = ctx.sync_rmi((ctx.id + 1) % ctx.nlocs, c.handle, "get")
        ctx.rmi_fence()
        return frames, state, fenced_in, got

    @pytest.mark.parametrize("kind", KINDS)
    def test_caught_error_leaves_fence_counters_untouched(self, kind):
        out = mp_run(self._prog, 2, args=(kind, True),
                     op_timeout=5.0, timeout=30.0)
        frames, state, _, _ = out[0]
        # raised under the caller's own send, not from a feeder thread
        assert frames[0] == "_prog" and kind in frames
        assert "post" in frames
        assert state == (0, 0, 0, 0, 0)
        for _, _, fenced_in, got in out:
            assert fenced_in < 2.0
            assert got == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_uncaught_error_names_the_pickling_failure(self, kind):
        with pytest.raises(SpmdError,
                           match="location 0 .*(TypeError|PicklingError)"
                           ) as info:
            mp_run(self._prog, 2, args=(kind, False),
                   op_timeout=5.0, timeout=30.0)
        assert "deadlock" not in str(info.value)
        assert "never quiesced" not in str(info.value)
