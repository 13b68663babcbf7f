"""Scalability sweep suite + perf-regression gate.

The perf trajectory grew out of a single fixed-P snapshot into a sweep
driver modelled on the paper's evaluation (Sec. V): the fixed kernel set
is measured over strong scaling (fixed N, P = 1..64), weak scaling (fixed
N per location), the three machine models and the key runtime-toggle
ablations, and persisted as a versioned JSON payload
(``BENCH_<date>.json`` at the repo root, ``schema_version`` 2) with
per-kernel speedup/efficiency columns and derived scaling summaries.

On top of the sweep sits a regression *gate*: ``--check <baseline>``
re-measures exactly the sections recorded in the committed baseline and
diffs the fresh run against it with per-metric tolerances — a >10%
simulated-time (or payload-byte) regression, or ANY message/fence-count
increase, on any kernel at any coordinate fails the check with a
readable delta table and a non-zero exit.  CI runs this on every PR
(the ``perf-gate`` job), so the trajectory is a merge-blocking contract
rather than an artifact humans might inspect.  Legitimate perf changes
refresh the baseline with ``--update-baseline``.

Every kernel is deterministic — identical inputs, virtual clocks from
the machine model — so two runs of the same tree produce byte-identical
JSON (modulo the ``generated`` stamp), and the tolerances only need to
absorb legitimate drift from unrelated changes, not run-to-run noise.

Run via ``python -m repro.evaluation.bench [outfile] [--machine M]``,
``--check <baseline>``, ``--update-baseline <baseline>``, or the
``bench`` / ``bench_sweep`` / ``bench_ablations`` driver names in
``python -m repro.evaluation``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

from ..algorithms.generic import p_generate, p_partial_sum, p_reduce
from ..algorithms.nested import p_bucket_sort_nested, p_stencil
from ..algorithms.sorting import p_sample_sort
from ..containers.parray import PArray
from ..runtime import RuntimeConfig
from ..views.array_views import Array1DView
from .harness import ExperimentResult, run_spmd_timed, scaling_columns

SCHEMA_VERSION = 2

#: the sweep's processor counts (powers of two so strong-scaling block
#: sizes stay exact) and the machine models of the paper's evaluation.
DEFAULT_P_LIST = (1, 2, 4, 8, 16, 32, 64)
MACHINES = ("cray4", "cray5", "p5cluster")

#: gated metrics -> relative tolerance on *increase*.  Simulated time and
#: payload bytes may drift with unrelated changes (tolerated up to 10%);
#: physical message and fence counts are exact protocol properties, so
#: any increase is a regression.
TOLERANCES = {
    "time_us": 0.10,
    "bytes_sent": 0.10,
    "physical_msgs": 0.0,
    "fences": 0.0,
}

#: ablations: name -> the run's config, exactly one field off its default
ABLATIONS = {
    "combining_off": RuntimeConfig(combining=False),
    "lookup_cache_off": RuntimeConfig(lookup_cache=False),
    "dataflow_off": RuntimeConfig(dataflow=False),
}


def _scrambled(i):
    return (i * 2654435761) % 100003


def _filled(ctx, n):
    pa = PArray(ctx, n, dtype=int)
    v = Array1DView(pa)
    p_generate(v, _scrambled, vector=None)
    ctx.rmi_fence()
    return pa, v


def _timed(body):
    """Wrap ``body(ctx, v)`` on a fresh filled array in a timed region."""
    def prog(ctx, n):
        _pa, v = _filled(ctx, n)
        m0 = ctx.stats.physical_messages
        t0 = ctx.start_timer()
        body(ctx, v)
        t = ctx.stop_timer(t0)
        return t, ctx.stats.physical_messages - m0
    return prog


def _k_reduce(ctx, v):
    p_reduce(v, op=operator.add)


def _k_scan(ctx, v):
    p_partial_sum(v, v)


def _k_sort(ctx, v):
    p_sample_sort(v)


def _k_sort_nested(ctx, v):
    p_bucket_sort_nested(v)


def _k_sort_nested_group(ctx, v):
    # two-location inner teams (clamped so the P=1 sweep point still runs)
    p_bucket_sort_nested(v, inner_group_size=min(2, len(v.group)))


def _k_stencil(ctx, v):
    p_stencil(v, iters=4, dataflow=True)


def _k_stencil_fenced(ctx, v):
    p_stencil(v, iters=4, dataflow=False)


def _k_rebalance(ctx, v):
    v.container.rebalance()


KERNELS = [
    ("reduce", _k_reduce),
    ("scan", _k_scan),
    ("sample_sort", _k_sort),
    ("bucket_sort_nested", _k_sort_nested),
    ("nested_group", _k_sort_nested_group),
    ("stencil_dataflow", _k_stencil),
    ("stencil_fenced", _k_stencil_fenced),
    ("rebalance", _k_rebalance),
]


def _measure_kernels(P: int, n_per_loc: int, machine: str,
                     config: RuntimeConfig | None = None) -> dict:
    """One measured point: ``{kernel: {N, time_us, physical_msgs,
    bytes_sent, fences}}`` for the whole kernel set."""
    n = P * n_per_loc
    out = {}
    for name, body in KERNELS:
        prog = _timed(body)
        results, _, stats = run_spmd_timed(
            lambda ctx: prog(ctx, n), P, machine, config=config)
        out[name] = {
            "N": n,
            "time_us": round(max(r[0] for r in results), 2),
            "physical_msgs": sum(r[1] for r in results),
            "bytes_sent": stats.bytes_sent,
            "fences": stats.fences,
        }
    return out


def bench_suite(P: int = 8, n_per_loc: int = 2048,
                machine: str = "cray4") -> ExperimentResult:
    """Run the fixed kernel set at one P; one row per kernel."""
    res = ExperimentResult(
        "Perf trajectory: fixed kernel set (simulated us + messages)",
        ["kernel", "N", "time_us", "physical_msgs", "bytes_sent", "fences"],
        notes=f"{machine}, P={P}")
    for name, k in _measure_kernels(P, n_per_loc, machine).items():
        res.add(name, k["N"], k["time_us"], k["physical_msgs"],
                k["bytes_sent"], k["fences"])
    return res


def bench_sweep_suite(p_list=DEFAULT_P_LIST, n_strong: int = 16384,
                      n_per_loc: int = 2048,
                      machine: str = "cray4") -> ExperimentResult:
    """Strong + weak scaling of the kernel set over ``p_list``.

    Strong rows keep the total N fixed at ``n_strong`` (block size
    shrinks with P); weak rows keep ``n_per_loc`` fixed (N grows with P).
    Speedup/efficiency are derived per (mode, kernel) series relative to
    the smallest P (see :func:`~.harness.scaling_columns`).
    """
    res = ExperimentResult(
        "Scalability sweep: strong + weak scaling of the fixed kernel set",
        ["mode", "kernel", "P", "N", "time_us", "physical_msgs",
         "bytes_sent", "fences", "speedup", "efficiency"],
        notes=f"{machine}; strong N={n_strong}, weak n/loc={n_per_loc}")
    for mode in ("strong", "weak"):
        per_p = {}
        for P in p_list:
            npl = max(1, n_strong // P) if mode == "strong" else n_per_loc
            per_p[P] = _measure_kernels(P, npl, machine)
        for name, _body in KERNELS:
            times = [per_p[P][name]["time_us"] for P in p_list]
            sp, eff = scaling_columns(p_list, times, weak=(mode == "weak"))
            for i, P in enumerate(p_list):
                k = per_p[P][name]
                res.add(mode, name, P, k["N"], k["time_us"],
                        k["physical_msgs"], k["bytes_sent"], k["fences"],
                        sp[i], eff[i])
    return res


def bench_ablation_suite(P: int = 8, n_per_loc: int = 2048,
                         machine: str = "cray4") -> ExperimentResult:
    """The kernel set with one config field flipped off its default per
    series; ``time_vs_default`` is the per-kernel time ratio (<1 means
    the flipped setting is faster)."""
    res = ExperimentResult(
        "Ablations: fixed kernel set, one config field off per series",
        ["toggle", "kernel", "time_us", "physical_msgs", "bytes_sent",
         "fences", "time_vs_default"],
        notes=f"{machine}, P={P}, n/loc={n_per_loc}")
    base = _measure_kernels(P, n_per_loc, machine)
    for name, k in base.items():
        res.add("default", name, k["time_us"], k["physical_msgs"],
                k["bytes_sent"], k["fences"], 1.0)
    for toggle, config in ABLATIONS.items():
        rows = _measure_kernels(P, n_per_loc, machine, config)
        for name, k in rows.items():
            ratio = k["time_us"] / base[name]["time_us"] \
                if base[name]["time_us"] else 0.0
            res.add(toggle, name, k["time_us"], k["physical_msgs"],
                    k["bytes_sent"], k["fences"], round(ratio, 3))
    return res


# ---------------------------------------------------------------------------
# Versioned JSON payload (schema_version 2)
# ---------------------------------------------------------------------------

def _sweep_section(sweep: ExperimentResult, mode: str, p_list) -> dict:
    kernels = {}
    for row in sweep.rows:
        if row[0] != mode:
            continue
        _, name, P, n, t, msgs, by, fences, sp, eff = row
        kernels.setdefault(name, {})[str(P)] = {
            "N": n, "time_us": t, "physical_msgs": msgs,
            "bytes_sent": by, "fences": fences,
            "speedup": sp, "efficiency": eff}
    return {"P": list(p_list), "kernels": kernels}


def _ablation_section(abl: ExperimentResult) -> dict:
    toggles = {}
    for row in abl.rows:
        toggle, name, t, msgs, by, fences, ratio = row
        toggles.setdefault(toggle, {"kernels": {}})["kernels"][name] = {
            "time_us": t, "physical_msgs": msgs, "bytes_sent": by,
            "fences": fences, "time_vs_default": ratio}
    return {"toggles": toggles}


def _summarize(payload: dict) -> dict:
    """Derived scaling summary: each kernel's speedup/efficiency at the
    largest swept P, per mode."""
    summary = {}
    for mode in ("strong", "weak"):
        sec = payload.get(mode)
        if not sec or not sec["P"]:
            continue
        top = str(max(sec["P"]))
        summary[mode] = {
            name: {"P": int(top),
                   "speedup": by_p[top]["speedup"],
                   "efficiency": by_p[top]["efficiency"]}
            for name, by_p in sec["kernels"].items() if top in by_p}
    return summary


def bench_payload(machine: str = "cray4", generated: str = "",
                  snapshot=(8, 2048),
                  strong=(DEFAULT_P_LIST, 16384),
                  weak=(DEFAULT_P_LIST, 2048),
                  ablations=(8, 2048)) -> dict:
    """The schema-v2 JSON payload.  Each section argument is either its
    config tuple — ``snapshot``/``ablations`` take ``(P, n_per_loc)``,
    ``strong`` takes ``(p_list, N)``, ``weak`` takes ``(p_list,
    n_per_loc)`` — or ``None`` to omit the section (``--check`` uses this
    to re-measure only what a baseline records)."""
    payload = {"schema_version": SCHEMA_VERSION, "generated": generated,
               "machine": machine}
    if snapshot is not None:
        P, npl = snapshot
        payload["snapshot"] = {"P": P, "n_per_loc": npl,
                               "kernels": _measure_kernels(P, npl, machine)}
    sweep = None
    if strong is not None or weak is not None:
        p_strong, n_strong = strong if strong is not None \
            else (DEFAULT_P_LIST, 16384)
        p_weak, n_weak = weak if weak is not None \
            else (DEFAULT_P_LIST, 2048)
        if strong is not None and weak is not None and p_strong != p_weak:
            # the sweep driver runs one p_list; measure separately
            s1 = bench_sweep_suite(p_strong, n_strong, n_weak, machine)
            s2 = bench_sweep_suite(p_weak, n_strong, n_weak, machine)
            payload["strong"] = _sweep_section(s1, "strong", p_strong)
            payload["strong"]["N"] = n_strong
            payload["weak"] = _sweep_section(s2, "weak", p_weak)
            payload["weak"]["n_per_loc"] = n_weak
        else:
            p_list = p_strong if strong is not None else p_weak
            sweep = bench_sweep_suite(p_list, n_strong, n_weak, machine)
            if strong is not None:
                payload["strong"] = _sweep_section(sweep, "strong", p_list)
                payload["strong"]["N"] = n_strong
            if weak is not None:
                payload["weak"] = _sweep_section(sweep, "weak", p_list)
                payload["weak"]["n_per_loc"] = n_weak
    if ablations is not None:
        P, npl = ablations
        abl = bench_ablation_suite(P, npl, machine)
        payload["ablations"] = {"P": P, "n_per_loc": npl,
                                **_ablation_section(abl)}
    summary = _summarize(payload)
    if summary:
        payload["summary"] = summary
    return payload


def write_bench(path: str, machine: str = "cray4", generated: str = "",
                **sections) -> dict:
    payload = bench_payload(machine, generated, **sections)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return payload


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------

class BaselineError(Exception):
    """Baseline file is malformed, schema-incompatible, or config-
    mismatched — distinct from a measured regression (exit 2 vs 1)."""


def _flatten(payload: dict) -> dict:
    """``{(coordinate, kernel): metrics}`` for every measured point in a
    payload.  Coordinates: ``snapshot``, ``strong/P=4``, ``weak/P=8``,
    ``ablation/combining_off`` ..."""
    if not isinstance(payload, dict):
        raise BaselineError("baseline is not a JSON object")
    coords = {}
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BaselineError(
            f"unsupported schema_version {version!r} "
            f"(this tree reads v{SCHEMA_VERSION})")
    snap = payload.get("snapshot")
    if snap:
        for name, m in snap["kernels"].items():
            coords[("snapshot", name)] = m
    for mode in ("strong", "weak"):
        sec = payload.get(mode)
        if sec:
            for name, by_p in sec["kernels"].items():
                for p, m in by_p.items():
                    coords[(f"{mode}/P={p}", name)] = m
    abl = payload.get("ablations")
    if abl:
        for toggle, sec in abl["toggles"].items():
            for name, m in sec["kernels"].items():
                coords[(f"ablation/{toggle}", name)] = m
    if not coords:
        raise BaselineError("baseline records no measured sections")
    return coords


@dataclass
class CheckReport:
    """The comparator's verdict: per-metric regressions, removed/added
    kernels, and the worst observed deltas for context."""

    #: (coord, kernel, metric, base, fresh, delta) per failed tolerance
    regressions: list = field(default_factory=list)
    removed: list = field(default_factory=list)  # (coord, kernel)
    added: list = field(default_factory=list)  # (coord, kernel)
    compared: int = 0
    worst: dict = field(default_factory=dict)  # metric -> (delta, coord, kernel)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.removed

    def format_table(self) -> str:
        lines = []
        if self.regressions:
            res = ExperimentResult(
                "PERF GATE: regressions vs baseline",
                ["coordinate", "kernel", "metric", "baseline", "fresh",
                 "delta_pct"])
            for coord, kernel, metric, base, fresh, delta in self.regressions:
                res.add(coord, kernel, metric, base, fresh,
                        round(100.0 * delta, 1))
            lines.append(res.format_table())
        for coord, kernel in self.removed:
            lines.append(f"REMOVED: kernel '{kernel}' at {coord} is in the "
                         "baseline but was not measured — refresh with "
                         "--update-baseline if intentional")
        for coord, kernel in self.added:
            lines.append(f"note: new kernel '{kernel}' at {coord} has no "
                         "baseline entry (not gated; --update-baseline "
                         "records it)")
        status = "FAIL" if not self.ok else "ok"
        lines.append(f"perf gate: {status} — {self.compared} coordinates "
                     f"compared, {len(self.regressions)} regressions, "
                     f"{len(self.removed)} removed, {len(self.added)} added")
        for metric, (delta, coord, kernel) in sorted(self.worst.items()):
            lines.append(f"  worst {metric} delta: {100.0 * delta:+.1f}% "
                         f"({coord}, {kernel})")
        return "\n".join(lines)


def compare_payloads(baseline: dict, fresh: dict) -> CheckReport:
    """Diff two payloads coordinate-by-coordinate under
    :data:`TOLERANCES`.  Pure — callers feed it loaded JSON; the CLI
    feeds it the committed baseline and a fresh run of the same
    sections."""
    if (baseline.get("machine") and fresh.get("machine")
            and baseline["machine"] != fresh["machine"]):
        raise BaselineError(
            f"machine mismatch: baseline is {baseline['machine']!r}, "
            f"fresh run is {fresh['machine']!r}")
    base_pts, fresh_pts = _flatten(baseline), _flatten(fresh)
    report = CheckReport()
    for key in sorted(base_pts):
        if key not in fresh_pts:
            report.removed.append(key)
    for key in sorted(fresh_pts):
        if key not in base_pts:
            report.added.append(key)
    for key in sorted(base_pts.keys() & fresh_pts.keys()):
        coord, kernel = key
        bm, fm = base_pts[key], fresh_pts[key]
        report.compared += 1
        for metric, tol in TOLERANCES.items():
            if metric not in bm or metric not in fm:
                continue
            base, new = bm[metric], fm[metric]
            delta = (new - base) / base if base else (1.0 if new else 0.0)
            worst = report.worst.get(metric)
            if worst is None or delta > worst[0]:
                report.worst[metric] = (delta, coord, kernel)
            if new > base and delta > tol:
                report.regressions.append(
                    (coord, kernel, metric, base, new, delta))
    return report


def _load_baseline(path: str) -> dict:
    try:
        with open(path) as f:
            payload = json.load(f)
    except OSError as e:
        raise BaselineError(f"cannot read baseline {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise BaselineError(f"baseline {path} is not valid JSON: {e}") from e
    _flatten(payload)  # validate shape up front
    return payload


def _baseline_sections(baseline: dict) -> dict:
    """Recover :func:`bench_payload` section kwargs from a baseline, so
    ``--check`` re-measures exactly the coordinates it records."""
    sections = {"snapshot": None, "strong": None, "weak": None,
                "ablations": None}
    if "snapshot" in baseline:
        sections["snapshot"] = (baseline["snapshot"]["P"],
                                baseline["snapshot"]["n_per_loc"])
    if "strong" in baseline:
        sections["strong"] = (tuple(baseline["strong"]["P"]),
                              baseline["strong"]["N"])
    if "weak" in baseline:
        sections["weak"] = (tuple(baseline["weak"]["P"]),
                            baseline["weak"]["n_per_loc"])
    if "ablations" in baseline:
        sections["ablations"] = (baseline["ablations"]["P"],
                                 baseline["ablations"]["n_per_loc"])
    return sections


def check_against_baseline(path: str, machine: str | None = None) -> int:
    """Re-measure the baseline's sections and gate on the diff.  Exit
    status: 0 within tolerance, 1 regression/removal, 2 bad baseline."""
    baseline = _load_baseline(path)
    machine = machine or baseline.get("machine", "cray4")
    fresh = bench_payload(machine=machine, **_baseline_sections(baseline))
    report = compare_payloads(baseline, fresh)
    print(report.format_table())
    return 0 if report.ok else 1


def update_baseline(path: str, machine: str | None = None,
                    generated: str = "") -> dict:
    """Overwrite ``path`` with a fresh full-sweep payload (or, if it
    already exists, a fresh run of its recorded sections)."""
    sections = {}
    try:
        baseline = _load_baseline(path)
    except BaselineError:
        baseline = {}
    else:
        sections = _baseline_sections(baseline)
    machine = machine or baseline.get("machine", "cray4")
    return write_bench(path, machine=machine, generated=generated,
                       **sections)


def main(argv=None) -> int:
    import datetime
    import sys

    args = list(sys.argv[1:] if argv is None else argv)

    def popval(flag):
        if flag not in args:
            return None
        i = args.index(flag)
        args.pop(i)
        if i >= len(args):
            print(f"{flag} requires a value", file=sys.stderr)
            raise SystemExit(2)
        return args.pop(i)

    machine = popval("--machine")
    check = popval("--check")
    update = popval("--update-baseline")
    date = datetime.date.today().isoformat()
    try:
        if check is not None:
            return check_against_baseline(check, machine)
        if update is not None:
            payload = update_baseline(update, machine, generated=date)
            print(f"[baseline refreshed: {update} "
                  f"({payload['machine']}, schema v{SCHEMA_VERSION})]")
            return 0
    except BaselineError as e:
        print(f"perf gate: bad baseline — {e}", file=sys.stderr)
        return 2
    path = args[0] if args else f"BENCH_{date}.json"
    payload = write_bench(path, machine=machine or "cray4", generated=date)
    n_kernels = len(payload.get("snapshot", {}).get("kernels", {}))
    sections = [k for k in ("snapshot", "strong", "weak", "ablations")
                if k in payload]
    print(f"[bench: {n_kernels} kernels, sections {sections} "
          f"on {payload['machine']} -> {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
