#!/usr/bin/env python3
"""Unit tests for compare_bench.py, run by ctest (compare_bench_unit).

Covers the gate's decision table: pass on a matching run, fail on
throughput and gated-phase regressions, tolerate ungated-phase noise,
reject grid mismatches (thread count included), and — the regression
this file pins — report phases present on only one side as named
warnings instead of silently skipping them (new phase) or never
mentioning them (vanished phase).
Also covers the reallocation family's quality gate: per-cell overhead
ratios (overhead_cells) fail on growth past --max-overhead-growth,
warn by name when a cell exists on only one side, and the mm.realloc
phase is gated like mm.compact.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_bench


BASE = {
    "bench": "fleet",
    "arenas": [4, 8],
    "sessions": 100000,
    "threads": 1,
    "total_steps": 1000,
    "steps_per_second": 1000.0,
    "per_phase": [
        {"section": "heap.place", "calls": 10, "total_ms": 1.0,
         "ns_per_call": 100.0},
        {"section": "mm.compact", "calls": 5, "total_ms": 1.0,
         "ns_per_call": 200.0},
        {"section": "exec.step", "calls": 2, "total_ms": 1.0,
         "ns_per_call": 500.0},
    ],
}

# A bench_realloc-shaped baseline: the overhead gate and the mm.realloc
# phase gate ride on the same comparison machinery.
REALLOC_BASE = {
    "bench": "realloc",
    "logm": 12,
    "logn": 6,
    "total_steps": 1455,
    "steps_per_second": 90000.0,
    "overhead_cells": [
        {"cell": "cohen-petrank/realloc-bucket", "overhead": 0.8421},
        {"cell": "update-mix/realloc-jin", "overhead": 1.0224},
        {"cell": "update-mix/realloc-never", "overhead": 0.0},
    ],
    "per_phase": [
        {"section": "mm.realloc", "calls": 50, "total_ms": 1.0,
         "ns_per_call": 300.0},
    ],
}


def run_compare(base, fresh, extra_args=()):
    """Runs compare_bench.main() on two in-memory reports; returns
    (exit_code, stdout_text)."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        fresh_path = os.path.join(tmp, "fresh.json")
        with open(base_path, "w") as f:
            json.dump(base, f)
        with open(fresh_path, "w") as f:
            json.dump(fresh, f)
        argv = ["compare_bench.py", base_path, fresh_path, *extra_args]
        out = io.StringIO()
        old_argv = sys.argv
        sys.argv = argv
        try:
            with contextlib.redirect_stdout(out), \
                 contextlib.redirect_stderr(out):
                code = compare_bench.main()
        finally:
            sys.argv = old_argv
        return code, out.getvalue()


class CompareBenchTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        code, out = run_compare(BASE, copy.deepcopy(BASE))
        self.assertEqual(code, 0)
        self.assertIn("bench comparison OK", out)

    def test_throughput_regression_fails(self):
        fresh = copy.deepcopy(BASE)
        fresh["steps_per_second"] = 100.0
        code, out = run_compare(BASE, fresh)
        self.assertEqual(code, 1)
        self.assertIn("steps_per_second regressed", out)

    def test_gated_phase_regression_fails(self):
        fresh = copy.deepcopy(BASE)
        fresh["per_phase"][0]["ns_per_call"] = 200.0  # heap.place 2x
        code, out = run_compare(BASE, fresh)
        self.assertEqual(code, 1)
        self.assertIn("heap.place ns_per_call regressed", out)

    def test_ungated_phase_regression_passes(self):
        fresh = copy.deepcopy(BASE)
        fresh["per_phase"][2]["ns_per_call"] = 5000.0  # exec.step 10x
        code, _ = run_compare(BASE, fresh)
        self.assertEqual(code, 0)

    def test_grid_mismatch_fails(self):
        fresh = copy.deepcopy(BASE)
        fresh["total_steps"] = 999
        code, out = run_compare(BASE, fresh)
        self.assertEqual(code, 1)
        self.assertIn("grid mismatch", out)

    def test_thread_count_mismatch_fails(self):
        # A run at more threads than the baseline can post a higher
        # steps_per_second over a single-thread regression; the thread
        # count is part of the grid identity, so it never gets compared.
        fresh = copy.deepcopy(BASE)
        fresh["threads"] = 4
        fresh["steps_per_second"] = 2500.0
        code, out = run_compare(BASE, fresh)
        self.assertEqual(code, 1)
        self.assertIn("grid mismatch on 'threads'", out)

    def test_new_phase_warns_by_name_and_passes(self):
        fresh = copy.deepcopy(BASE)
        fresh["per_phase"].append({"section": "serve.flush", "calls": 3,
                                   "total_ms": 1.0, "ns_per_call": 50.0})
        code, out = run_compare(BASE, fresh)
        self.assertEqual(code, 0)
        self.assertIn("warning: phase 'serve.flush' is new in the fresh run",
                      out)

    def test_vanished_phase_warns_by_name_and_passes(self):
        fresh = copy.deepcopy(BASE)
        fresh["per_phase"] = [p for p in fresh["per_phase"]
                              if p["section"] != "mm.compact"]
        code, out = run_compare(BASE, fresh)
        self.assertEqual(code, 0)
        self.assertIn("warning: phase 'mm.compact' is in the baseline but "
                      "missing", out)

    def test_gated_phase_calls_growth_fails(self):
        # The dual blind spot of the ns_per_call gate: mm.compact firing
        # 2x as often at identical per-call cost must fail.
        fresh = copy.deepcopy(BASE)
        fresh["per_phase"][1]["calls"] = 10  # mm.compact 5 -> 10
        code, out = run_compare(BASE, fresh)
        self.assertEqual(code, 1)
        self.assertIn("mm.compact now fires 100.0% more often", out)

    def test_gated_phase_small_calls_drift_passes(self):
        fresh = copy.deepcopy(BASE)
        fresh["per_phase"][0]["calls"] = 11  # heap.place +10%
        code, out = run_compare(BASE, fresh)
        self.assertEqual(code, 0)
        self.assertIn("10 -> 11 calls (+1)", out)

    def test_ungated_phase_calls_growth_passes(self):
        fresh = copy.deepcopy(BASE)
        fresh["per_phase"][2]["calls"] = 2000  # exec.step 1000x
        code, _ = run_compare(BASE, fresh)
        self.assertEqual(code, 0)

    def test_calls_gate_threshold_is_adjustable(self):
        fresh = copy.deepcopy(BASE)
        fresh["per_phase"][0]["calls"] = 11  # heap.place +10%
        code, out = run_compare(BASE, fresh,
                                ("--max-phase-calls-growth", "5"))
        self.assertEqual(code, 1)
        self.assertIn("heap.place now fires 10.0% more often", out)

    def test_new_gated_phase_is_not_gated_without_baseline(self):
        # A brand-new gated-prefix section can't regress against nothing:
        # it must warn, not fail, whatever its cost.
        fresh = copy.deepcopy(BASE)
        fresh["per_phase"].append({"section": "heap.move", "calls": 3,
                                   "total_ms": 9.0, "ns_per_call": 1e9})
        code, out = run_compare(BASE, fresh)
        self.assertEqual(code, 0)
        self.assertIn("warning: phase 'heap.move' is new in the fresh run",
                      out)

    def test_identical_overhead_cells_pass(self):
        code, out = run_compare(REALLOC_BASE, copy.deepcopy(REALLOC_BASE))
        self.assertEqual(code, 0)
        self.assertIn("bench comparison OK", out)

    def test_overhead_regression_fails(self):
        fresh = copy.deepcopy(REALLOC_BASE)
        fresh["overhead_cells"][1]["overhead"] = 1.2000  # jin +17%
        code, out = run_compare(REALLOC_BASE, fresh)
        self.assertEqual(code, 1)
        self.assertIn("overhead of update-mix/realloc-jin regressed", out)

    def test_overhead_improvement_passes(self):
        fresh = copy.deepcopy(REALLOC_BASE)
        fresh["overhead_cells"][0]["overhead"] = 0.5
        code, _ = run_compare(REALLOC_BASE, fresh)
        self.assertEqual(code, 0)

    def test_zero_overhead_baseline_is_strict(self):
        # A never-move cell has baseline 0.0; relative slack would allow
        # nothing and the epsilon must not allow a real move either.
        fresh = copy.deepcopy(REALLOC_BASE)
        fresh["overhead_cells"][2]["overhead"] = 0.0001
        code, out = run_compare(REALLOC_BASE, fresh)
        self.assertEqual(code, 1)
        self.assertIn("overhead of update-mix/realloc-never regressed", out)

    def test_overhead_threshold_is_adjustable(self):
        fresh = copy.deepcopy(REALLOC_BASE)
        fresh["overhead_cells"][1]["overhead"] = 1.0700  # jin +4.7%
        code, _ = run_compare(REALLOC_BASE, fresh)
        self.assertEqual(code, 1)
        code, _ = run_compare(REALLOC_BASE, fresh,
                              ("--max-overhead-growth", "10"))
        self.assertEqual(code, 0)

    def test_one_sided_overhead_cells_warn_and_pass(self):
        fresh = copy.deepcopy(REALLOC_BASE)
        fresh["overhead_cells"] = fresh["overhead_cells"][1:] + [
            {"cell": "update-comb/realloc-jin", "overhead": 9.9}]
        code, out = run_compare(REALLOC_BASE, fresh)
        self.assertEqual(code, 0)
        self.assertIn("warning: overhead cell 'cohen-petrank/realloc-bucket' "
                      "is in the baseline but missing", out)
        self.assertIn("warning: overhead cell 'update-comb/realloc-jin' is "
                      "new in the fresh run", out)

    def test_mm_realloc_phase_is_gated(self):
        fresh = copy.deepcopy(REALLOC_BASE)
        fresh["per_phase"][0]["ns_per_call"] = 600.0  # mm.realloc 2x
        code, out = run_compare(REALLOC_BASE, fresh)
        self.assertEqual(code, 1)
        self.assertIn("mm.realloc ns_per_call regressed", out)


if __name__ == "__main__":
    unittest.main()
