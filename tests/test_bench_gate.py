"""Perf-regression gate tests: the ``--check`` comparator against
synthetic baselines (regressions, tolerances, added/removed kernels,
malformed/mismatched schemas) and the CLI end-to-end on tiny configs."""

import copy
import json

import pytest

from repro.evaluation.bench import (
    SCHEMA_VERSION,
    BaselineError,
    check_against_baseline,
    compare_payloads,
    update_baseline,
    write_bench,
)
from repro.evaluation.bench import main as bench_main
from repro.evaluation.harness import scaling_columns


def _metrics(time_us=100.0, physical_msgs=10, bytes_sent=1000, fences=4):
    return {"N": 256, "time_us": time_us, "physical_msgs": physical_msgs,
            "bytes_sent": bytes_sent, "fences": fences}


def _v2(kernels=("reduce", "scan")):
    return {
        "schema_version": SCHEMA_VERSION,
        "generated": "2026-01-01",
        "machine": "cray4",
        "snapshot": {"P": 2, "n_per_loc": 128,
                     "kernels": {k: _metrics() for k in kernels}},
        "strong": {"P": [1, 2], "N": 256, "kernels": {
            k: {"1": {**_metrics(), "speedup": 1.0, "efficiency": 1.0},
                "2": {**_metrics(time_us=60.0), "speedup": 1.667,
                      "efficiency": 0.833}}
            for k in kernels}},
    }


class TestComparator:
    def test_identical_payloads_pass(self):
        base = _v2()
        report = compare_payloads(base, copy.deepcopy(base))
        assert report.ok
        assert report.compared == 6  # 2 kernels x (snapshot + 2 strong Ps)
        assert not report.regressions and not report.removed

    def test_time_within_tolerance_passes(self):
        base, fresh = _v2(), _v2()
        fresh["snapshot"]["kernels"]["reduce"]["time_us"] = 109.0  # +9%
        assert compare_payloads(base, fresh).ok

    def test_time_regression_fails_with_delta_row(self):
        base, fresh = _v2(), _v2()
        fresh["snapshot"]["kernels"]["reduce"]["time_us"] = 115.0  # +15%
        report = compare_payloads(base, fresh)
        assert not report.ok
        (coord, kernel, metric, b, f, delta), = report.regressions
        assert (coord, kernel, metric) == ("snapshot", "reduce", "time_us")
        assert b == 100.0 and f == 115.0
        assert delta == pytest.approx(0.15)
        assert "snapshot" in report.format_table()

    def test_time_improvement_passes(self):
        base, fresh = _v2(), _v2()
        fresh["snapshot"]["kernels"]["reduce"]["time_us"] = 50.0
        assert compare_payloads(base, fresh).ok

    def test_any_message_increase_fails(self):
        base, fresh = _v2(), _v2()
        fresh["strong"]["kernels"]["scan"]["2"]["physical_msgs"] = 11
        report = compare_payloads(base, fresh)
        assert not report.ok
        assert report.regressions[0][:3] == ("strong/P=2", "scan",
                                             "physical_msgs")

    def test_any_fence_increase_fails(self):
        base, fresh = _v2(), _v2()
        fresh["snapshot"]["kernels"]["scan"]["fences"] = 5
        assert not compare_payloads(base, fresh).ok

    def test_bytes_have_tolerance(self):
        base, fresh = _v2(), _v2()
        fresh["snapshot"]["kernels"]["scan"]["bytes_sent"] = 1050  # +5%
        assert compare_payloads(base, fresh).ok
        fresh["snapshot"]["kernels"]["scan"]["bytes_sent"] = 1150  # +15%
        assert not compare_payloads(base, fresh).ok

    def test_kernel_removed_fails(self):
        base = _v2(kernels=("reduce", "scan"))
        fresh = _v2(kernels=("reduce",))
        report = compare_payloads(base, fresh)
        assert not report.ok
        assert ("snapshot", "scan") in report.removed
        assert "--update-baseline" in report.format_table()

    def test_kernel_added_passes_with_note(self):
        base = _v2(kernels=("reduce",))
        fresh = _v2(kernels=("reduce", "scan"))
        report = compare_payloads(base, fresh)
        assert report.ok
        assert ("snapshot", "scan") in report.added

    def test_malformed_baseline_raises(self):
        with pytest.raises(BaselineError):
            compare_payloads({"generated": "x"}, _v2())  # no schema_version
        with pytest.raises(BaselineError):
            compare_payloads({"schema_version": SCHEMA_VERSION}, _v2())

    def test_unsupported_schema_version_raises(self):
        bad = _v2()
        bad["schema_version"] = 99
        with pytest.raises(BaselineError):
            compare_payloads(bad, _v2())

    def test_machine_mismatch_raises(self):
        other = _v2()
        other["machine"] = "cray5"
        with pytest.raises(BaselineError):
            compare_payloads(_v2(), other)


class TestScalingColumns:
    def test_strong_scaling(self):
        sp, eff = scaling_columns([1, 2, 4], [100.0, 50.0, 25.0])
        assert sp == [1.0, 2.0, 4.0]
        assert eff == [1.0, 1.0, 1.0]

    def test_strong_sublinear(self):
        sp, eff = scaling_columns([1, 4], [100.0, 50.0])
        assert sp == [1.0, 2.0]
        assert eff == [1.0, 0.5]

    def test_weak_scaling_flat_time_is_ideal(self):
        sp, eff = scaling_columns([1, 2, 4], [100.0, 100.0, 100.0],
                                  weak=True)
        assert eff == [1.0, 1.0, 1.0]
        assert sp == [1.0, 2.0, 4.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            scaling_columns([1, 2], [100.0])


class TestGateEndToEnd:
    """Tiny real runs (P<=2, small N) through the public entry points."""

    def _tiny_sections(self):
        return {"snapshot": (2, 64), "strong": ((1, 2), 128),
                "weak": None, "ablations": None}

    def test_check_passes_on_unchanged_tree(self, tmp_path):
        path = tmp_path / "BENCH_tiny.json"
        write_bench(str(path), generated="t", **self._tiny_sections())
        assert check_against_baseline(str(path)) == 0

    def test_check_fails_on_injected_regression(self, tmp_path, capsys):
        path = tmp_path / "BENCH_tiny.json"
        payload = write_bench(str(path), generated="t",
                              **self._tiny_sections())
        payload["snapshot"]["kernels"]["scan"]["time_us"] *= 0.5
        path.write_text(json.dumps(payload))
        assert check_against_baseline(str(path)) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "scan" in out and "time_us" in out

    def test_cli_exit_codes(self, tmp_path):
        path = tmp_path / "BENCH_tiny.json"
        write_bench(str(path), generated="t", snapshot=(2, 64),
                    strong=None, weak=None, ablations=None)
        assert bench_main(["--check", str(path)]) == 0
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert bench_main(["--check", str(bad)]) == 2
        assert bench_main(["--check", str(tmp_path / "missing.json")]) == 2

    def test_update_baseline_preserves_recorded_sections(self, tmp_path):
        path = tmp_path / "BENCH_tiny.json"
        write_bench(str(path), generated="t", **self._tiny_sections())
        refreshed = update_baseline(str(path), generated="t2")
        on_disk = json.loads(path.read_text())
        assert on_disk["generated"] == "t2"
        assert on_disk["schema_version"] == SCHEMA_VERSION
        assert on_disk["snapshot"]["P"] == 2
        assert on_disk["strong"]["P"] == [1, 2]
        assert "weak" not in on_disk and "ablations" not in on_disk
        assert refreshed["snapshot"]["kernels"].keys() \
            == on_disk["snapshot"]["kernels"].keys()
        assert check_against_baseline(str(path)) == 0
