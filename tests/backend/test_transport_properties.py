"""Hypothesis property tests for transport invariants, run against both
backends where the invariant is observable end-to-end:

* slab pack/unpack identity over random dtypes/shapes (the shared-memory
  lifecycle must be bit-preserving);
* wire serialization round-trip of Message payloads and combining records,
  including closures (the simulated oracle's calling convention);
* per-(src, dst) source-FIFO ordering of async RMIs.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Message, PObject, estimate_size, spmd_run
from repro.runtime.mp import (
    ShmArena,
    pack_payload,
    unpack_payload,
    wire_dumps,
    wire_loads,
)

DTYPES = st.sampled_from(["int8", "uint16", "int32", "int64",
                          "float32", "float64", "complex128", "bool"])
SHAPES = st.lists(st.integers(0, 17), min_size=0, max_size=3)

_name_counter = [0]


def _namer():
    _name_counter[0] += 1
    return f"rstest_prop_{_name_counter[0]}"


@settings(max_examples=40, deadline=None)
@given(dtype=DTYPES, shape=SHAPES, threshold=st.sampled_from([1, 64, 1 << 30]))
def test_slab_pack_unpack_identity(dtype, shape, threshold):
    rng = np.random.default_rng(abs(hash((dtype, tuple(shape)))) % 2**32)
    arr = (rng.random(shape) * 100).astype(dtype)
    arena = ShmArena(_namer)
    try:
        packed = pack_payload({"a": arr, "n": [arr, 3]}, arena,
                              threshold=threshold)
        out = unpack_payload(packed)
    finally:
        arena.dispose()
    np.testing.assert_array_equal(out["a"], arr, strict=True)
    np.testing.assert_array_equal(out["n"][0], arr, strict=True)
    assert out["n"][1] == 3


SCALARS = st.one_of(st.integers(-2**40, 2**40), st.booleans(), st.none(),
                    st.floats(allow_nan=False), st.text(max_size=12),
                    st.binary(max_size=12))
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(args=PAYLOADS, src=st.integers(0, 7), dst=st.integers(0, 7))
def test_message_wire_round_trip(args, src, dst):
    msg = Message(src, dst, 5, "accumulate", (args,),
                  32 + estimate_size((args,)), 0.0, src)
    wire = ("req", msg.src, msg.origin, msg.handle, msg.method, msg.args)
    back = wire_loads(wire_dumps(wire))
    assert back == wire


@settings(max_examples=40, deadline=None)
@given(records=st.lists(
    st.tuples(st.integers(0, 9),
              st.sampled_from(["insert", "accumulate", "set_element"]),
              st.tuples(st.integers(), st.integers())),
    max_size=8))
def test_combining_record_round_trip(records):
    """Combining buffers ship as one bulk message of (handle, method, args)
    records; the wire codec must preserve them exactly."""
    back = wire_loads(wire_dumps(("req", 0, 0, 3, "_apply_combined",
                                  (records,))))
    assert back[5] == (records,)


def test_closure_wire_round_trip():
    offset = 17

    def make_adder(k):
        def add(x):
            return x + k + offset
        return add

    fns = wire_loads(wire_dumps([make_adder(1), make_adder(2)]))
    assert [f(10) for f in fns] == [28, 29]


def test_mutually_recursive_closures_round_trip():
    def make_pair():
        def even(n):
            return True if n == 0 else odd(n - 1)

        def odd(n):
            return False if n == 0 else even(n - 1)
        return even
    even = wire_loads(wire_dumps(make_pair()))
    assert even(10) is True and even(7) is False


class Recorder(PObject):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.log = []

    def record(self, tag):
        self.log.append(tag)


def _fifo_prog(ctx, n_msgs):
    r = Recorder(ctx)
    ctx.rmi_fence()
    for k in range(n_msgs):
        dest = (ctx.id + 1 + k % max(1, ctx.nlocs - 1)) % ctx.nlocs
        ctx.async_rmi(dest, r.handle, "record", (ctx.id, k))
    ctx.rmi_fence()
    return r.log


@settings(max_examples=5, deadline=None)
@given(n_msgs=st.integers(1, 25), nlocs=st.sampled_from([2, 4]))
def test_source_fifo_both_backends(n_msgs, nlocs):
    for backend in ("simulated", "multiprocessing"):
        logs = spmd_run(_fifo_prog, nlocs=nlocs, args=(n_msgs,),
                        backend=backend)
        for log in logs:
            for src in range(nlocs):
                seq = [k for (s, k) in log if s == src]
                assert seq == sorted(seq), (
                    f"{backend}: FIFO violated for source {src}: {seq}")


def test_location_stats_picklable():
    """Worker processes ship their LocationStats back through a queue."""
    from repro.runtime import LocationStats

    st_ = LocationStats()
    st_.async_rmi_sent = 3
    clone = pickle.loads(pickle.dumps(st_))
    assert clone.async_rmi_sent == 3
