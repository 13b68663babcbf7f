"""Command line of the end-to-end benchmark (``run.py``).

``--workload W --seed N --seconds S --trace 0|1`` runs one workload and
prints every metric by name with its unit, then — as the last line — one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  ``--selfcheck`` and ``--compare`` apply the
bounds of ``BENCHMARK.json`` to two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from . import tracing
from .harness import Refused, Result, run_workload

RUN_PY = Path(__file__).resolve().parents[1] / "run.py"
SPEC_PATH = RUN_PY.parents[2] / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _payload(result: Result, spec: dict, trace: bool) -> dict:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    values = result.per_layer if trace else result.end_to_end
    out_of_step = set(values) ^ {m["name"] for m in section}
    if out_of_step:
        raise SystemExit("metrics out of step with BENCHMARK.json: "
                         f"{sorted(out_of_step)}")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }


def _saved(result: Result, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {"workload": result.workload, "seed": result.seed,
            "correct": result.correct, "spread": result.spread,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in result.end_to_end.items()}}


def _append_run(path: str, run: dict) -> None:
    """``--out``: add this run to a results file ``{"runs": [...]}``."""
    target = Path(path)
    data = {"runs": []}
    if target.exists():
        data = json.loads(target.read_text(encoding="utf-8"))
    data["runs"].append(run)
    target.write_text(json.dumps(data, indent=1), encoding="utf-8")


def _worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative = better), in the metric's own direction."""
    if not base:
        return 0.0
    delta = (new - base) / abs(base)
    return delta if metric["better"] == "lower" else -delta


def compare(spec: dict, runs_a: list, runs_b: list) -> int:
    """Apply the end-to-end bounds to two sets of saved runs; returns the
    number of regressions.  A metric is *unresolved*, not passed, when the
    runs' own spread exceeds its bound."""
    regressions = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        a = [r for r in runs_a if r["workload"] == wl]
        b = [r for r in runs_b if r["workload"] == wl]
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            spread = max([r["spread"][name] for r in a + b]
                         + [(max(v) - min(v)) / abs(statistics.median(v))
                            for v in (va, vb)
                            if len(v) > 1 and statistics.median(v)])
            worse = _worse_by(metric, ma, mb)
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{wl:15s} {name:17s} A={ma:<12.6g} B={mb:<12.6g} "
                  f"{metric['unit']:6s} worse_by={worse:+.3f} "
                  f"spread={spread:.3f} bound={metric['bound']:.2f} "
                  f"{verdict}")
    return regressions


def _fresh_run(workload: str, seed: int, seconds: float, scale: str) -> dict:
    """One untraced run in a process of its own, as the driver makes them:
    workers fork from their launcher, so a launcher that has already run
    something hands them its memory high-water mark."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--scale", scale],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def selfcheck(spec: dict, seed: int, seconds: float, scale: str) -> int:
    """Run every workload twice with one seed; the two runs must agree
    within the bounds, and the deterministic metrics exactly."""
    bad = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        runs = [_fresh_run(wl, seed, seconds, scale) for _ in range(2)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = (run["metrics"][name]["value"] for run in runs)
            exact = name.startswith("virtual_")
            worse = max(_worse_by(metric, a, b), _worse_by(metric, b, a))
            ok = a == b if exact else worse <= metric["bound"]
            bad += not ok
            print(f"{wl:15s} {name:17s} {a:<12.6g} {b:<12.6g} "
                  f"{metric['unit']:6s} differ_by={worse:.3f} "
                  f"bound={'exact' if exact else metric['bound']} "
                  f"{'ok' if ok else 'DIFFERS'}")
        for run in runs:
            if not run["correct"]:
                bad += 1
                print(f"{wl}: {run['failed']} of {run['attempted']} reps "
                      "failed")
    return bad


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(prog="run.py", description=__doc__)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=float(spec["run_seconds"]),
                    help="time budget of the timed reps; every "
                         "configuration still runs its minimum of reps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes, two reps")
    ap.add_argument("--trace-out", metavar="FILE",
                    help="with --trace 1: write the last traced rep's spans "
                         "as Chrome/Perfetto trace JSON")
    ap.add_argument("--out", metavar="FILE",
                    help="append this run's end-to-end result to FILE")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.compare:
        runs = [json.loads(Path(f).read_text(encoding="utf-8"))["runs"]
                for f in args.compare]
        return 1 if compare(spec, *runs) else 0
    if args.selfcheck:
        return 1 if selfcheck(spec, args.seed, args.seconds, args.scale) else 0
    if not args.workload:
        ap.error("one of --workload, --selfcheck, --compare is required")
    if args.trace_out and not args.trace:
        ap.error("--trace-out needs --trace 1")

    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.scale)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    payload = _payload(result, spec, bool(args.trace))
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps(tracing.chrome_trace(result.spans or [])),
            encoding="utf-8")
    if args.out:
        _append_run(args.out, _saved(result, spec))
    for err in result.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}: {result.failed} failed of "
          f"{result.attempted} attempted reps")
    for name, m in payload["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(payload))
    return 0
