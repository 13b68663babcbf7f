"""The backend interface as a contract: ``Location`` is one class written
over the primitives ``BackendRuntime`` declares, every backend implements
exactly those with the declared signatures, and what ``Location`` builds
on them behaves the same on every backend."""

import inspect

import pytest

import repro.runtime.mp as mp
from repro.runtime import (
    BackendRuntime,
    Location,
    PObject,
    Runtime,
    SpmdError,
    spmd_run,
)

PRIMITIVES = sorted(BackendRuntime.__abstractmethods__)

BACKENDS = pytest.mark.parametrize("backend", [
    "simulated",
    pytest.param("multiprocessing", marks=pytest.mark.mp_backend),
])


def run_on(backend, prog, nlocs=2):
    opts = {"timeout": 60.0} if backend == "multiprocessing" else {}
    return spmd_run(prog, nlocs=nlocs, backend=backend, **opts)


class TestStructure:
    def test_location_has_no_subclass(self):
        assert Location.__subclasses__() == []

    def test_the_named_primitives_are_declared(self):
        assert {"post", "round_trip", "progress", "wait", "yield_",
                "bulk_round", "exchange", "fence", "os_fence",
                "registration_handle"} <= set(PRIMITIVES)

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_both_backends_override_with_the_declared_signature(self, name):
        declared = inspect.signature(getattr(BackendRuntime, name))
        for backend in (Runtime, mp.MpRuntime):
            assert name in vars(backend), f"{backend.__name__}.{name}"
            assert inspect.signature(vars(backend)[name]) == declared, (
                f"{backend.__name__}.{name}")


class Log(PObject):
    def __init__(self, ctx):
        # before registering: a peer may be served while this location
        # still waits in the registration
        self.seen = []
        super().__init__(ctx)

    def append(self, v):
        self.seen.append(v)

    def snapshot(self):
        return list(self.seen)

    def yield_inside(self):
        return self.ctx.task_yield()

    def fence_inside(self):
        return self.ctx.rmi_fence()


@BACKENDS
class TestBehaviour:
    def test_self_sync_runs_after_pending_self_asyncs(self, backend):
        def prog(ctx):
            log = Log(ctx)
            for k in range(3):
                ctx.async_rmi(ctx.id, log.handle, "append", k)
            seen = ctx.sync_rmi(ctx.id, log.handle, "snapshot")
            ctx.rmi_fence()
            return seen
        assert run_on(backend, prog) == [[0, 1, 2]] * 2

    def test_poll_returns_the_number_executed(self, backend):
        def prog(ctx):
            log = Log(ctx)
            ctx.async_rmi(ctx.id, log.handle, "append", "a")
            ctx.async_rmi(ctx.id, log.handle, "append", "b")
            before = list(log.seen)
            n = ctx.poll()
            after = list(log.seen)
            ctx.rmi_fence()
            return before, n, after, ctx.poll()
        assert run_on(backend, prog) == [([], 2, ["a", "b"], 0)] * 2

    def test_get_resolves_an_unresolved_split_phase_request(self, backend):
        def prog(ctx):
            log = Log(ctx)
            peer = (ctx.id + 1) % ctx.nlocs
            ctx.async_rmi(peer, log.handle, "append", ctx.id)
            fut = ctx.opaque_rmi(peer, log.handle, "snapshot")
            unresolved = not fut.test()
            value = fut.get()
            ctx.rmi_fence()
            return unresolved, value
        assert run_on(backend, prog) == [(True, [0]), (True, [1])]

    @pytest.mark.parametrize("method, message", [
        ("yield_inside", "task_yield inside an RMI handler"),
        ("fence_inside", "collective 'fence' invoked inside an RMI handler"),
    ])
    def test_blocking_inside_a_handler_raises(self, backend, method, message):
        def prog(ctx):
            log = Log(ctx)
            return ctx.sync_rmi(ctx.id, log.handle, method)
        with pytest.raises(SpmdError, match=message):
            run_on(backend, prog)
