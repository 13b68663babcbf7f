"""Backend strong-scaling study: the repo's first *real wall-clock* numbers.

Every other driver reports deterministic virtual microseconds from the
machine model.  This one runs the same SPMD programs under the
multiprocessing backend — one OS process per location, shared-memory slab
transport — and reports measured wall seconds at P = 1, 2, 4, 8.

Two kernels, chosen for honesty on a small container:

* ``latency``: a slab-heavy kernel whose per-round cost is dominated by a
  fixed stall (``time.sleep``, standing in for I/O / remote-memory latency)
  followed by a bulk numpy exchange over shared memory.  Stalls overlap
  across processes, so this scales even on a single-CPU box — it is the
  acceptance kernel for the >= 2x speedup bar at P=8.
* ``cpu``: pure numpy compute.  On a multi-core machine it scales; on the
  1-CPU CI container it legitimately does not, so it is *recorded*, never
  asserted on.

The driver also re-runs the latency kernel under the simulated oracle and
checks the reduced result is identical — scaling numbers from a backend
that diverges from the oracle would be meaningless.
"""

from __future__ import annotations

import time

import numpy as np

from ..runtime import spmd_run, spmd_run_detailed
from .harness import ExperimentResult

#: strong-scaling total work, divisible by every P in the sweep
_TOTAL_UNITS = 64
_STALL_S = 0.03
_SLAB_ELEMS = 4096  # above the SHM threshold: rounds go through /dev/shm


def _latency_kernel(ctx, total_units, stall, slab_elems):
    per = total_units // ctx.nlocs
    acc = 0.0
    for r in range(per):
        if stall:
            time.sleep(stall)
        slab = np.full(slab_elems, float(ctx.id * per + r))
        got = ctx.bulk_gather(slab)
        acc += sum(float(g[0]) for g in got)
    ctx.rmi_fence()
    total = ctx.allreduce_rmi(acc)
    ctx.rmi_fence()
    return total


def _cpu_kernel(ctx, total_units, n):
    per = total_units // ctx.nlocs
    a = np.random.default_rng(7).random((n, n))
    acc = 0.0
    for _ in range(per):
        acc += float(np.trace(a @ a))
    ctx.rmi_fence()
    total = ctx.allreduce_rmi(round(acc, 6))
    ctx.rmi_fence()
    return total


def _mp_wall(fn, nlocs, args, reps: int = 2) -> float:
    # min-of-k: wall clocks on a shared host only ever read *high*, so the
    # minimum is the least-noisy estimate of the true cost
    walls = []
    for _ in range(reps):
        rep = spmd_run_detailed(fn, nlocs=nlocs, args=args,
                                backend="multiprocessing", timeout=300.0)
        walls.append(rep.wall_seconds)
    return min(walls)


def backend_scaling_study(total_units: int = _TOTAL_UNITS,
                          stall_s: float = _STALL_S) -> ExperimentResult:
    """Strong scaling under real processes: wall seconds and speedup vs P=1."""
    result = ExperimentResult(
        name="Backend scaling: wall-clock strong scaling, multiprocessing",
        columns=["kernel", "P", "wall_s", "speedup"])

    # oracle check first: the backend whose clock we are about to trust must
    # produce bit-identical answers to the simulator on the same program
    check_args = (8, 0.0, _SLAB_ELEMS)
    sim = spmd_run(_latency_kernel, nlocs=2, args=check_args,
                   backend="simulated")
    real = spmd_run(_latency_kernel, nlocs=2, args=check_args,
                    backend="multiprocessing", timeout=300.0)
    if sim != real:
        raise AssertionError(
            f"backend divergence on scaling kernel: sim={sim} real={real}")

    sweep = (1, 2, 4, 8)
    for kernel, fn, args in (
            ("latency", _latency_kernel,
             lambda: (total_units, stall_s, _SLAB_ELEMS)),
            ("cpu", _cpu_kernel, lambda: (32, 64))):
        base = None
        for p in sweep:
            wall = _mp_wall(fn, p, args())
            base = wall if base is None else base
            result.add(kernel, p, round(wall, 4),
                       round(base / wall, 2) if wall else float("inf"))
    result.notes = (
        "measured wall seconds (not virtual time); latency kernel overlaps "
        f"{stall_s * 1e3:.0f}ms stalls + SHM slab gathers, so it scales even "
        "on a 1-CPU host; cpu kernel is recorded for reference and only "
        "scales with real cores")
    return result


def backend_speedup(result: ExperimentResult, kernel: str, p: int) -> float:
    """Speedup of ``kernel`` at ``P=p`` vs ``P=1`` from a study result."""
    for k, pp, _wall, speedup in result.rows:
        if k == kernel and pp == p:
            return speedup
    raise KeyError(f"no row for kernel={kernel!r} P={p}")

