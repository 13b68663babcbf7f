"""Smoke test of the end-to-end benchmark: every workload at ``--scale
tiny`` through the real command line, both trace modes.  It checks the
contract of ``BENCHMARK.json`` — names, units, correctness accounting —
and the span arithmetic, never a timing."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for _p in (str(HERE.parents[1] / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from e2ebench import cli, harness, tracing  # noqa: E402

SPEC = cli.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

pytestmark = [
    pytest.mark.mp_backend,
    pytest.mark.skipif(len(harness.usable_cpus()) < 2,
                       reason="the benchmark refuses wall-clock metrics at "
                              "P=2 on fewer than two usable cores"),
]


def _run(capsys, workload, trace, *extra):
    code = cli.main(["--workload", workload, "--seed", "3", "--scale", "tiny",
                     "--trace", str(trace), *extra])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    out = json.loads(last)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def _check_section(metrics, section):
    assert list(metrics) == [m["name"] for m in section]
    for m in section:
        assert NAME.fullmatch(m["name"])
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_spec_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]
                         + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, capsys):
    metrics = _run(capsys, workload, 0)
    _check_section(metrics, SPEC["end_to_end"])
    # an end-to-end metric that can read 0 cannot be bounded by a ratio
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_add_up(workload, capsys, tmp_path):
    trace_file = tmp_path / "trace.json"
    metrics = _run(capsys, workload, 1, "--trace-out", str(trace_file))
    _check_section(metrics, SPEC["per_layer"])
    value = {k: m["value"] for k, m in metrics.items()}
    assert set(harness.LAYER_SELF_METRIC) == set(tracing.LAYERS)
    total = value["workload.self_s"] + sum(
        value[k] for k in harness.LAYER_SELF_METRIC.values())
    assert total == pytest.approx(value["harness.traced_rep_s"], rel=0.05)
    assert value["harness.trace_overhead_x"] > 0
    assert value["harness.pinned"] in (0.0, 1.0)
    events = json.loads(trace_file.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and {e["tid"] for e in spans} == {0, 1}
    assert {e["cat"] for e in spans} <= set(tracing.LAYERS)


def test_compare_applies_the_bounds(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run(capsys, "wordcount", 0, "--out", str(a))
    runs = json.loads(a.read_text())["runs"]
    assert len(runs) == 1 and runs[0]["workload"] == "wordcount"
    # B: the deterministic metric made 50 % worse, nothing else touched
    runs[0]["metrics"]["virtual_us_p16"]["value"] *= 1.5
    b.write_text(json.dumps({"runs": runs}))
    assert cli.main(["--compare", str(a), str(a)]) == 0
    capsys.readouterr()
    assert cli.main(["--compare", str(a), str(b)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
