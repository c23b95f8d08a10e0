#!/usr/bin/env python3
"""Unit tests for the perf_compare policy: unit "count" metrics are
identity-checked, time-unit metrics are ratio-checked (with the noise
floor), everything else is informational. Registered as a ctest case.

Run standalone:  python3 tools/test_perf_compare.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import perf_compare


def run_compare(base, cur, **kwargs):
    values_b = {name: value for name, (value, _) in base.items()}
    units_b = {name: unit for name, (_, unit) in base.items()}
    values_c = {name: value for name, (value, _) in cur.items()}
    return perf_compare.compare(values_b, units_b, values_c, **kwargs)


class CounterIdentityTest(unittest.TestCase):
    def test_equal_counters_pass(self):
        _, failures = run_compare({"pods_bound": (100.0, "count")},
                                  {"pods_bound": (100.0, "count")})
        self.assertEqual(failures, [])

    def test_any_counter_drift_fails(self):
        # Even a tiny drift fails: counters are placement decisions, and the
        # obs registry guarantees them bit-identical across thread counts.
        _, failures = run_compare({"core/migrations": (100.0, "count")},
                                  {"core/migrations": (101.0, "count")})
        self.assertEqual(len(failures), 1)
        self.assertIn("core/migrations", failures[0])

    def test_counters_are_never_ratio_excused(self):
        # A 1% drift would sail through any ratio check; identity catches it.
        _, failures = run_compare({"audit_placed": (10000.0, "count")},
                                  {"audit_placed": (10100.0, "count")},
                                  max_ratio=10.0)
        self.assertEqual(len(failures), 1)


class TimeRatioTest(unittest.TestCase):
    def test_small_slowdown_passes(self):
        _, failures = run_compare({"resolve_ms_p50": (100.0, "ms")},
                                  {"resolve_ms_p50": (150.0, "ms")},
                                  max_ratio=2.0)
        self.assertEqual(failures, [])

    def test_large_slowdown_fails(self):
        _, failures = run_compare({"resolve_ms_p50": (100.0, "ms")},
                                  {"resolve_ms_p50": (250.0, "ms")},
                                  max_ratio=2.0)
        self.assertEqual(len(failures), 1)
        self.assertIn("resolve_ms_p50", failures[0])

    def test_times_are_not_identity_checked(self):
        # The same 1% drift that fails a counter is fine on a timing.
        _, failures = run_compare({"total_resolve_s": (10.0, "s")},
                                  {"total_resolve_s": (10.1, "s")})
        self.assertEqual(failures, [])

    def test_noise_floor_skips_sub_ms_jitter(self):
        lines, failures = run_compare({"k8s/events_ms": (0.1, "ms")},
                                      {"k8s/events_ms": (0.9, "ms")},
                                      max_ratio=2.0, floor_ms=1.0)
        self.assertEqual(failures, [])
        self.assertTrue(any("[noise]" in line for line in lines))

    def test_unit_conversion(self):
        # 500us -> 1.5ms crosses the floor and is a x3 regression.
        _, failures = run_compare({"step": (500.0, "us")},
                                  {"step": (1500.0, "us")},
                                  max_ratio=2.0, floor_ms=1.0)
        self.assertEqual(len(failures), 1)


class InformationalTest(unittest.TestCase):
    def test_gauges_and_rates_never_fail(self):
        lines, failures = run_compare(
            {"k8s/pods_pending": (5.0, "gauge"),
             "bindings_per_s": (1000.0, "rate")},
            {"k8s/pods_pending": (50.0, "gauge"),
             "bindings_per_s": (10.0, "rate")})
        self.assertEqual(failures, [])
        self.assertEqual(sum("[info]" in line for line in lines), 2)

    def test_one_sided_metrics_reported_not_failed(self):
        lines, failures = run_compare({"old_metric": (1.0, "count")},
                                      {"new_metric": (2.0, "count")})
        self.assertEqual(failures, [])
        self.assertTrue(any("[missing]" in line for line in lines))
        self.assertTrue(any("[new]" in line for line in lines))


class TableFormatTest(unittest.TestCase):
    """The report is an aligned old/new/unit/ratio/verdict table."""

    def test_header_row_leads_the_report(self):
        lines, _ = run_compare({"a_ms": (100.0, "ms")},
                               {"a_ms": (50.0, "ms")})
        for column in ("metric", "old", "new", "unit", "ratio", "verdict"):
            self.assertIn(column, lines[0])

    def test_time_rows_show_old_new_unit_and_ratio(self):
        lines, _ = run_compare({"resolve_ms_p50": (100.0, "ms")},
                               {"resolve_ms_p50": (50.0, "ms")})
        self.assertRegex(
            lines[1],
            r"resolve_ms_p50\s+100\s+50\s+ms\s+x0\.50\s+\[ok\]")

    def test_identical_counters_show_identity_ratio(self):
        lines, _ = run_compare({"pods": (7.0, "count")},
                               {"pods": (7.0, "count")})
        self.assertRegex(lines[1], r"pods\s+7\s+7\s+count\s+=\s+\[ok\]")

    def test_columns_align_across_rows(self):
        lines, _ = run_compare(
            {"short": (1.0, "ms"), "a_much_longer_metric": (2000.0, "ms")},
            {"short": (1.5, "ms"), "a_much_longer_metric": (2100.0, "ms")})
        # Same verdict tag starts at the same column on every data row.
        offsets = {line.index("[ok]") for line in lines if "[ok]" in line}
        self.assertEqual(len(offsets), 1)


class WaterfallMetricsTest(unittest.TestCase):
    """The group-waterfall metrics ride the existing policy: the bench-JSON
    waterfall counters are identity-checked (a fixed workload must take the
    same number of runs), and the BM_GroupWaterfallVsDinic microbench
    timing is ratio-checked like any google-benchmark entry."""

    def test_group_counters_are_identity_checked(self):
        _, failures = run_compare(
            {"core/group_runs": (24.0, "count"),
             "core/group_placed": (3000.0, "count")},
            {"core/group_runs": (25.0, "count"),
             "core/group_placed": (3000.0, "count")})
        self.assertEqual(len(failures), 1)
        self.assertIn("core/group_runs", failures[0])

    def test_waterfall_regression_fails(self):
        doc = {"context": {}, "benchmarks": [
            {"name": "BM_GroupWaterfallVsDinic/1", "run_type": "iteration",
             "real_time": 2.0, "time_unit": "ms"},
            {"name": "BM_AggregatedNetworkResolve/2000",
             "run_type": "iteration", "real_time": 40.0, "time_unit": "ms"}]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "micro.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            values, units = perf_compare.load_metrics(path)
        slower = dict(values)
        slower["BM_GroupWaterfallVsDinic/1"] = 9.0  # x4.5 past --max-ratio 2
        _, failures = perf_compare.compare(values, units, slower,
                                           max_ratio=2.0)
        self.assertEqual(len(failures), 1)
        self.assertIn("BM_GroupWaterfallVsDinic/1", failures[0])

    def test_waterfall_win_reads_as_ok(self):
        # The expected direction — a faster solve than the committed
        # baseline — must never fail the gate.
        _, failures = run_compare(
            {"BM_GroupWaterfallVsDinic/1": (8.0, "ms")},
            {"BM_GroupWaterfallVsDinic/1": (2.0, "ms")}, max_ratio=2.0)
        self.assertEqual(failures, [])


class LoadMetricsTest(unittest.TestCase):
    def test_bench_v1_roundtrip(self):
        doc = {"schema": "aladdin-bench-v1", "name": "online",
               "metrics": [{"name": "pods_bound", "value": 7, "unit": "count"},
                           {"name": "p50", "value": 1.5, "unit": "ms"}]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bench.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            values, units = perf_compare.load_metrics(path)
        self.assertEqual(values, {"pods_bound": 7.0, "p50": 1.5})
        self.assertEqual(units, {"pods_bound": "count", "p50": "ms"})


if __name__ == "__main__":
    unittest.main()
