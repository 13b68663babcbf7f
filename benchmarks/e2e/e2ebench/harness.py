"""Rep loop, launches and metric computation.

One *rep* = barrier -> t0 -> workload body -> ``ctx.rmi_fence()`` -> t1,
timed inside each location with ``perf_counter``; the rep's time is the
maximum over locations.  A rep is the unit of failure accounting: it fails
on an exception or deadline (which fails its whole launch), on a digest or
result that differs from the sequential reference, or on a ``/dev/shm/rs*``
segment its launch left behind; a failed rep contributes no timing.
"""

from __future__ import annotations

import gc
import glob
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from repro.runtime import SpmdError, spmd_run_detailed

from . import tracing
from .workloads import M64, WORKLOADS

MACHINE = "cray4"
PLACEMENT = "packed"
#: virtual time is reported at P=16 and, as the weak-scaling base, P=2
VIRTUAL_P = (2, 16)
#: wall-clock cap of one mp launch, far above any healthy launch
LAUNCH_TIMEOUT_S = 120.0


#: the per-layer metric that reports each traced layer's self seconds;
#: with ``workload.self_s`` they add up to ``harness.traced_rep_s``
LAYER_SELF_METRIC = {
    "algorithms": "algorithms.self_s",
    "views": "views.self_s",
    "containers": "containers.self_s",
    "core": "core.lookup_self_s",
    "runtime.rmi": "runtime.rmi.self_s",
    "runtime.comm": "runtime.comm.combining_self_s",
    "runtime.mp.wire": "runtime.mp.wire_self_s",
    "runtime.mp.shm": "runtime.mp.shm_self_s",
    "runtime.fence": "runtime.fence.wait_s",
    "runtime.collective": "runtime.collective.wait_s",
}


class Refused(RuntimeError):
    """The machine cannot give a meaningful wall-clock measurement."""


@dataclass
class Plan:
    """How one launch loops: ``warmup`` dropped reps, then timed reps until
    both ``min_reps`` are done and ``budget_s`` seconds are spent."""

    warmup: int
    min_reps: int
    budget_s: float = 0.0
    traced: bool = False
    pin: bool = False


def usable_cpus() -> list:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin(ctx, cpus: list) -> bool:
    """One core per worker, so the OS cannot put both on one core or move
    them mid-rep (remote round trips are bimodal in worker placement)."""
    if not hasattr(os, "sched_setaffinity"):
        return False
    try:
        os.sched_setaffinity(0, {cpus[ctx.id % len(cpus)]})
    except OSError:
        return False
    return True


def _one_rep(ctx, wl, st, tracer) -> dict:
    wl.reset(ctx, st)
    gc.collect()
    ctx.barrier()
    before = ctx.stats.as_dict()
    if tracer is not None:
        tracer.begin()
    v0 = ctx.clock
    t0 = perf_counter()
    scalars, marks = wl.body(ctx, st)
    ctx.rmi_fence()
    t1 = perf_counter()
    v1 = ctx.clock
    layers = tracer.end(t0, t1) if tracer is not None else None
    after = ctx.stats.as_dict()
    edges = (t0, *marks, t1)
    rec = {
        "wall": t1 - t0,
        "virtual_us": v1 - v0,
        "scalars": scalars,
        "phases": [b - a for a, b in zip(edges, edges[1:])],
        "stats": {k: after[k] - before[k] for k in after},
        "layers": layers,
        "digest": wl.digest(ctx, st),
    }
    wl.cleanup(ctx, st)
    return rec


def _program(ctx, wl, seed, p, plan, inp, cpus):
    """The SPMD program of every launch, on either backend."""
    pinned = _pin(ctx, cpus) if plan.pin else False
    tracer = None
    if plan.traced:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        if inp is None:
            inp = wl.inputs(seed, p)
        st = wl.setup(ctx, inp, p)
        for _ in range(plan.warmup):
            _one_rep(ctx, wl, st, None)
        t_ready = perf_counter()
        reps = []
        while True:
            reps.append(_one_rep(ctx, wl, st, tracer))
            more = (len(reps) < plan.min_reps
                    or perf_counter() - t_ready < plan.budget_s)
            # location 0's clock decides for everybody
            if not ctx.broadcast_rmi(0, more):
                break
        spans = list(tracer.spans) if tracer is not None else None
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"pinned": pinned, "t_ready": t_ready, "reps": reps,
            "spans": spans,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


@dataclass
class Phase:
    """The merged reps of one or more launches of one configuration."""

    attempted: int = 0
    failed: int = 0
    reps: list = field(default_factory=list)      # the reps that passed
    setup_s: list = field(default_factory=list)   # one per launch
    rss_mb: list = field(default_factory=list)    # one per launch
    pinned: bool = True
    spans: list | None = None
    errors: list = field(default_factory=list)

    def walls(self) -> list:
        return [r["wall"] for r in self.reps]

    def median_wall(self) -> float:
        return _median(self.walls())

    def stat(self, key: str) -> float:
        """Mean over the reps of a counter summed over locations."""
        if not self.reps:
            return 0.0
        return statistics.fmean(r["stats"][key] for r in self.reps)

    def phase_median(self, i: int) -> float:
        return _median([r["phases"][i] for r in self.reps])


def _merge_rep(per_loc: list) -> dict:
    """One rep as seen by all locations -> one record: times are the
    maximum over locations, counters the sum, layer times the mean."""
    n = len(per_loc)
    rec = {
        "wall": max(r["wall"] for r in per_loc),
        "virtual_us": max(r["virtual_us"] for r in per_loc),
        "scalars": per_loc[0]["scalars"],
        "agree": all(r["scalars"] == per_loc[0]["scalars"] for r in per_loc),
        "phases": [max(col) for col in zip(*(r["phases"] for r in per_loc))],
        "stats": {k: sum(r["stats"][k] for r in per_loc)
                  for k in per_loc[0]["stats"]},
        "digest": sum(r["digest"] for r in per_loc) & M64,
        "layers": None,
    }
    if per_loc[0]["layers"] is not None:
        lay = [r["layers"] for r in per_loc]
        rec["layers"] = {
            "self_s": [sum(col) / n for col in zip(*(x["self_s"] for x in lay))],
            "calls": [sum(col) for col in zip(*(x["calls"] for x in lay))],
            "sync_wait_s": sum(x["sync_wait_s"] for x in lay) / n,
            "workload_s": sum(x["workload_s"] for x in lay) / n,
            "wire_bytes": sum(x["wire_bytes"] for x in lay),
            "wall_mean": sum(r["wall"] for r in per_loc) / n,
        }
    return rec


def launch(phase: Phase, wl, seed: int, p: dict, nlocs: int, backend: str,
           plan: Plan, expect: tuple, inp=None) -> None:
    """Run one launch and merge its reps into ``phase``."""
    mp = backend == "multiprocessing"
    cpus = usable_cpus()
    if plan.pin and nlocs > len(cpus):
        raise Refused(
            f"{nlocs} locations on {len(cpus)} usable core(s): wall clock "
            "would measure time slicing; only counts and virtual time can "
            "be reported at this P")
    segments = set(glob.glob("/dev/shm/rs*")) if mp else set()
    opts = {"timeout": LAUNCH_TIMEOUT_S} if mp else {}
    t0 = perf_counter()
    try:
        report = spmd_run_detailed(
            _program, nlocs=nlocs, machine=MACHINE, placement=PLACEMENT,
            args=(wl, seed, p, plan, inp, cpus), backend=backend, **opts)
    except SpmdError as exc:
        # an exception or deadline in any rep takes the launch down with it
        phase.attempted += plan.min_reps
        phase.failed += plan.min_reps
        phase.errors.append(f"{backend} P={nlocs}: {exc}")
        return
    leaked = set(glob.glob("/dev/shm/rs*")) - segments if mp else set()
    if leaked:
        phase.errors.append(f"{backend} P={nlocs}: shared-memory segments "
                            f"left behind: {sorted(leaked)}")
    locs = report.results
    for per_loc in zip(*(r["reps"] for r in locs)):
        rec = _merge_rep(per_loc)
        phase.attempted += 1
        if (leaked or not rec["agree"]
                or (rec["digest"], rec["scalars"]) != expect):
            phase.failed += 1
            if not leaked:
                phase.errors.append(
                    f"{backend} P={nlocs}: output {rec['digest']:#x} "
                    f"{rec['scalars']} != reference {expect[0]:#x} "
                    f"{expect[1]}")
        else:
            phase.reps.append(rec)
    phase.setup_s.append(max(r["t_ready"] for r in locs) - t0)
    phase.rss_mb.append(max(r["rss_kb"] for r in locs) / 1024.0)
    phase.pinned = phase.pinned and all(r["pinned"] for r in locs)
    if locs[0]["spans"] is not None:
        phase.spans = [r["spans"] for r in locs]


def oracle(wl, inp: dict, p: dict) -> tuple:
    """(digest, scalars) of the sequential reference on this input."""
    run, digest = wl.reference(inp, p)
    out, scalars = run()
    return digest(out), scalars


def sequential(phase: Phase, wl, inp: dict, p: dict, plan: Plan,
               expect: tuple) -> None:
    """Time reps of the plain sequential reference into ``phase``.  Each
    call gets fresh buffers from ``wl.reference``: where they land in
    physical memory is a per-allocation bias that several calls average."""
    run, digest = wl.reference(inp, p)
    t_begin = perf_counter()
    done = 0
    while (done < plan.warmup + plan.min_reps
           or perf_counter() - t_begin < plan.budget_s):
        gc.collect()
        t0 = perf_counter()
        out, scalars = run()
        wall = perf_counter() - t0
        done += 1
        if done <= plan.warmup:
            continue
        phase.attempted += 1
        if (digest(out), scalars) != expect:
            phase.failed += 1
        else:
            phase.reps.append({"wall": wall})


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _iqr_frac(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return _ratio(q3 - q1, statistics.median(values))


def _range_frac(values: list) -> float:
    return _ratio(max(values) - min(values), _median(values)) if values else 0.0


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _schedule(seconds: float, trace: bool, scale: str) -> list:
    """The run's launches in order, as (configuration, plan) pairs; budgets
    are fractions of ``--seconds``, and every launch also runs its minimum
    of reps.  Each configuration is launched more than once, interleaved
    with the others: run-to-run differences on real processes are between
    processes, not between reps, and a noisy spell of the host then costs
    every configuration a few reps instead of one configuration all of
    its reps.  The traced run takes half the budget from the others."""
    if scale == "tiny":
        plans = {"seq": Plan(1, 2), "mp2": Plan(1, 2, pin=True),
                 "mp1": Plan(1, 2, pin=True), "sim": Plan(1, 2),
                 "traced": Plan(1, 2, traced=True, pin=True)}
        order = ["seq", "mp2", "mp1", "sim"] + ["traced"] * trace
    else:
        share = 0.5 if trace else 1.0
        plans = {"seq": Plan(1, 3, 0.02 * share * seconds),
                 "mp2": Plan(2, 7, 0.12 * share * seconds, pin=True),
                 "mp1": Plan(2, 5, 0.09 * share * seconds, pin=True),
                 "sim": Plan(2, 5, 0.09 * share * seconds),
                 "traced": Plan(2, 5, 0.15 * seconds, traced=True, pin=True)}
        half = ["seq", "mp2", "mp1", "seq", "sim"] + ["traced"] * trace
        order = half + ["mp2"] + half
    return [(key, plans[key]) for key in order]


@dataclass
class Result:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict
    per_layer: dict | None
    #: this run's own spread of each end-to-end metric, as a share of it
    spread: dict
    errors: list
    spans: list | None = None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> Result:
    wl = WORKLOADS[name]
    p = wl.params(scale, seed)
    inp = wl.inputs(seed, p)
    expect = oracle(wl, inp, p)
    seq, mp2, mp1, sim, traced = (Phase() for _ in range(5))
    configs = {"seq": (seq, 0, None), "mp2": (mp2, 2, "multiprocessing"),
               "mp1": (mp1, 1, "multiprocessing"), "sim": (sim, 2, "simulated"),
               "traced": (traced, 2, "multiprocessing")}
    for key, plan in _schedule(seconds, trace, scale):
        phase, nlocs, backend = configs[key]
        if key == "seq":
            sequential(phase, wl, inp, p, plan, expect)
        else:
            # the simulator's locations are threads: they share the inputs;
            # an mp worker makes its own, which setup_s includes
            launch(phase, wl, seed, p, nlocs, backend, plan, expect,
                   inp=inp if key == "sim" else None)
    virtual = {}
    for nlocs in VIRTUAL_P:
        vp = wl.params(scale, seed, nlocs)
        vinp = wl.inputs(seed, vp)
        virtual[nlocs] = Phase()
        launch(virtual[nlocs], wl, seed, vp, nlocs, "simulated", Plan(1, 1),
               oracle(wl, vinp, vp), inp=vinp)

    phases = [seq, mp2, mp1, sim, *virtual.values()] + [traced] * trace
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    errors = [e for ph in phases for e in ph.errors]
    # the same program on the same input: the simulator and the real
    # processes must produce the same bytes, not merely both be "right"
    sim_d = {r["digest"] for r in sim.reps}
    mp_d = {r["digest"] for r in mp2.reps}
    if sim_d != mp_d or len(sim_d) != 1:
        errors.append(f"sim digests {sorted(sim_d)} != mp {sorted(mp_d)}")

    v2 = virtual[2].reps[0]["virtual_us"] if virtual[2].reps else 0.0
    v16 = virtual[16].reps[0]["virtual_us"] if virtual[16].reps else 0.0
    w2, w1, ws = mp2.median_wall(), mp1.median_wall(), seq.median_wall()
    end_to_end = {
        "setup_s": _median(mp2.setup_s),
        "mp_wall_s": w2,
        "mp_speedup": _ratio(w1, w2),
        "overhead_x": _ratio(w1, ws),
        "sim_wall_s": sim.median_wall(),
        "virtual_us_p16": v16,
        "virtual_weak_eff": _ratio(v2, v16),
        "mp_peak_rss_mb": _median(mp2.rss_mb),
    }
    s2, s1 = _iqr_frac(mp2.walls()), _iqr_frac(mp1.walls())
    spread = {
        "setup_s": _range_frac(mp2.setup_s),
        "mp_wall_s": s2,
        "mp_speedup": s1 + s2,
        "overhead_x": s1 + _iqr_frac(seq.walls()),
        "sim_wall_s": _iqr_frac(sim.walls()),
        "virtual_us_p16": 0.0,
        "virtual_weak_eff": 0.0,
        "mp_peak_rss_mb": _range_frac(mp2.rss_mb),
    }
    per_layer = None
    if trace:
        per_layer = _per_layer(wl, mp2, mp1, sim, seq, traced, v2)
    correct = failed == 0 and not errors and all(ph.reps for ph in phases)
    return Result(name, seed, correct, attempted, failed, end_to_end,
                  per_layer, spread, errors, traced.spans)


def _per_layer(wl, mp2: Phase, mp1: Phase, sim: Phase, seq: Phase,
               traced: Phase, virtual_us_p2: float) -> dict:
    """Per-layer metrics: seconds are per rep, mean over locations, from
    the traced mp P=2 launch; counts are per rep, summed over locations,
    from that launch's ``LocationStats`` deltas unless marked (sim)."""
    reps = [r["layers"] for r in traced.reps]

    def mean(key: str) -> float:
        return statistics.fmean(x[key] for x in reps) if reps else 0.0

    def layer_means(key: str) -> dict:
        cols = zip(*(x[key] for x in reps)) if reps else ()
        means = [statistics.fmean(col) for col in cols]
        return dict(zip(tracing.LAYERS, means or [0.0] * len(tracing.LAYERS)))

    self_s, calls = layer_means("self_s"), layer_means("calls")
    flushes = traced.stat("combining_flushes")
    created = traced.stat("shm_segments_created")
    reused = traced.stat("shm_segments_reused")
    out = {metric: self_s[layer] for layer, metric in LAYER_SELF_METRIC.items()}
    # every workload's phase metrics are always reported: 0 where they
    # belong to another workload
    out.update({"containers." + phase: 0.0
                for other in WORKLOADS.values() for phase in other.phases})
    out.update({
        "algorithms.calls": calls["algorithms"],
        "algorithms.tasks_executed": sim.stat("tasks_executed"),
        "algorithms.dependence_msgs": sim.stat("dependence_messages"),
        "views.calls": calls["views"],
        "containers.calls": calls["containers"],
        "core.lookups_charged": traced.stat("lookups_charged"),
        "core.lookup_cache_hits": traced.stat("lookup_cache_hits"),
        "runtime.rmi.async_sent": traced.stat("async_rmi_sent"),
        "runtime.rmi.sync_sent": traced.stat("sync_rmi_sent"),
        "runtime.rmi.bulk_sent": traced.stat("bulk_rmi_sent"),
        "runtime.rmi.bulk_elements": traced.stat("bulk_elements_moved"),
        "runtime.rmi.sync_wait_s": mean("sync_wait_s"),
        "runtime.comm.combined_ops": traced.stat("combined_ops"),
        "runtime.comm.combining_flushes": flushes,
        "runtime.comm.ops_per_flush": _ratio(traced.stat("combined_ops"),
                                             flushes),
        "runtime.comm.physical_msgs": sim.stat("physical_messages"),
        "runtime.comm.bytes_sent": sim.stat("bytes_sent"),
        "runtime.mp.physical_msgs": traced.stat("physical_messages"),
        "runtime.mp.wire_calls": calls["runtime.mp.wire"],
        "runtime.mp.wire_bytes": mean("wire_bytes"),
        "runtime.mp.shm_segments_created": created,
        "runtime.mp.shm_segments_reused": reused,
        "runtime.mp.shm_reuse_ratio": _ratio(reused, created + reused),
        "runtime.mp.zero_copy_slab_views": traced.stat("zero_copy_slab_views"),
        "runtime.fence.count": calls["runtime.fence"],
        "runtime.collective.count": calls["runtime.collective"],
        "workload.self_s": mean("workload_s"),
        "harness.mp_rep_p90_s": _p90(mp2.walls()),
        "harness.mp_rep_iqr_frac": _iqr_frac(mp2.walls()),
        "harness.mp_p1_wall_s": mp1.median_wall(),
        "harness.seq_wall_s": seq.median_wall(),
        "harness.virtual_us_p2": virtual_us_p2,
        "harness.reps": float(len(mp2.reps)),
        "harness.pinned": float(mp2.pinned and mp1.pinned and traced.pinned),
        "harness.trace_overhead_x": _ratio(traced.median_wall(),
                                           mp2.median_wall()),
        # mean over locations of the traced rep, the total the layer rows
        # and workload.self_s add up to
        "harness.traced_rep_s": mean("wall_mean"),
    })
    if mp2.reps:
        for i, phase in enumerate(wl.phases):
            out["containers." + phase] = mp2.phase_median(i)
    return out
