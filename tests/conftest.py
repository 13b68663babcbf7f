"""Shared helpers for the test suite."""

import multiprocessing

import pytest

from repro.runtime import spmd_run, spmd_run_detailed


@pytest.fixture(autouse=True)
def _reap_backend_workers():
    """Suite-wide flakiness guard: no test may leak a live worker process.

    The multiprocessing backend names every location worker
    ``repro-loc-<i>``; if a test (or a bug it found) aborts a run without
    joining them, orphans would soak up the CPU and corrupt later tests'
    wall-clock measurements.  Reap them deterministically instead of
    retrying flaky tests — retries are banned in this suite."""
    yield
    for proc in multiprocessing.active_children():
        if proc.name.startswith("repro-loc-"):
            proc.terminate()
            proc.join(timeout=5.0)


def run(prog, nlocs=4, machine="smp", args=(), placement="packed",
        config=None):
    """Run an SPMD program, returning per-location results."""
    return spmd_run(prog, nlocs=nlocs, machine=machine, args=args,
                    placement=placement, config=config)


def run_detailed(prog, nlocs=4, machine="smp", args=(), placement="packed",
                 config=None):
    return spmd_run_detailed(prog, nlocs=nlocs, machine=machine, args=args,
                             placement=placement, config=config)


@pytest.fixture
def spmd():
    return run


@pytest.fixture
def spmd_detailed():
    return run_detailed
