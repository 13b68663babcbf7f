"""Fixtures for the multiprocessing-backend test layer.

Every test here launches real OS processes, so hygiene is explicit:

* ``mp_teardown`` (autouse) reaps any worker the test leaked (a failure
  mid-run must not poison later tests with orphan processes or stale
  ``/dev/shm`` segments).
* ``run_differential`` runs one SPMD program under the simulated oracle
  and under the multiprocessing backend and asserts the results are
  byte-identical (canonical pickle of the canonicalised values) — the
  ROADMAP item 1 acceptance bar.

Retries are deliberately not used anywhere in this tree: a flaky
concurrency test is a bug report, not noise to paper over.
"""

import glob
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.runtime import spmd_run

#: hard per-run wall-clock cap: a deadlocked fence fails the test quickly
#: instead of hanging the suite (CI adds a job-level `timeout` on top)
MP_RUN_TIMEOUT = 120.0


def canonical_bytes(value) -> bytes:
    """Stable, identity-free byte encoding for differential comparison.

    Raw ``pickle.dumps`` is unusable here: the pickler memoises by object
    *identity*, and a value that crossed a process boundary loses the
    aliasing (e.g. interned strings) its single-process twin still has —
    byte differences with zero value difference.  This encoder is value-
    only: type tag + bit-exact content, recursing through containers;
    floats via ``float.hex()`` so -0.0/NaN/precision survive; ndarrays as
    (dtype, shape, raw buffer)."""
    out = []
    _enc(value, out)
    return b"\x1e".join(out)


def _enc(v, out: list) -> None:
    if isinstance(v, np.ndarray):
        out.append(f"nd:{v.dtype}:{v.shape}".encode())
        out.append(v.tobytes())
        return
    if isinstance(v, (np.integer, np.floating, np.bool_)):
        v = v.item()
    if v is None or isinstance(v, bool) or isinstance(v, int):
        out.append(f"{type(v).__name__}:{v!r}".encode())
    elif isinstance(v, float):
        out.append(b"f:" + (b"nan" if v != v else v.hex().encode()))
    elif isinstance(v, str):
        out.append(b"s:" + v.encode())
    elif isinstance(v, bytes):
        out.append(b"b:" + v)
    elif isinstance(v, (list, tuple)):
        out.append(f"{type(v).__name__}[{len(v)}".encode())
        for x in v:
            _enc(x, out)
        out.append(b"]")
    elif isinstance(v, dict):
        out.append(f"dict[{len(v)}".encode())
        for k, x in sorted(v.items(), key=repr):
            _enc(k, out)
            _enc(x, out)
        out.append(b"]")
    else:
        out.append(b"o:" + pickle.dumps(v, protocol=4))


_HERE = os.path.dirname(__file__)


def pytest_collection_modifyitems(items):
    # the hook sees the whole session's items; mark only this tree's
    for item in items:
        if str(item.path).startswith(_HERE):
            item.add_marker(pytest.mark.mp_backend)


@pytest.fixture(autouse=True)
def mp_teardown():
    """Reap leaked workers and shared-memory segments after every test."""
    yield
    for proc in multiprocessing.active_children():
        if proc.name.startswith("repro-loc-"):
            proc.terminate()
            proc.join(timeout=5.0)
    for path in glob.glob("/dev/shm/rs*"):
        try:
            os.unlink(path)
        except OSError:
            pass


@pytest.fixture
def run_differential():
    def _run(prog, nlocs, args=(), machine="smp", **backend_opts):
        sim = spmd_run(prog, nlocs=nlocs, args=args, machine=machine,
                       backend="simulated")
        real = spmd_run(prog, nlocs=nlocs, args=args, machine=machine,
                        backend="multiprocessing", timeout=MP_RUN_TIMEOUT,
                        **backend_opts)
        assert canonical_bytes(sim) == canonical_bytes(real), (
            f"backend divergence at P={nlocs}:\n sim={sim!r}\n real={real!r}")
        # leak audit: every worker's arena must have unlinked all of its
        # segments (pooled and storage) on the way out
        leaked = glob.glob("/dev/shm/rs*")
        assert not leaked, f"shared-memory segments leaked: {leaked}"
        return sim
    return _run
