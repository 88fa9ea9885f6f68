#!/usr/bin/env python3
"""Self-test of the benchmark (about two minutes).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both --trace modes, at tiny size,
it checks that the result line has exactly the contract's keys and that
every named metric is printed with its unit (in the report and in the
JSON). In traced runs at tiny and at full size it checks that the layer
self times add up to the traced wall time and that none of them, the
unattributed rest included, is negative: a span the partition nests in
the wrong layer shows as a negative self time. Then it plants an aborting
cell and checks that the abort is counted as failed while the rest of
the workload still runs. Exits 1 on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PARTITION = ("driver.self_s", "adversary.self_s", "trace.read_s",
             "mm.self_s", "heap.self_s", "service.self_s", "unattributed_s")
# Self times are differences of separately read clocks; allow this much
# below zero per layer.
SELF_EPSILON_S = 1e-4


def check(cond, msg):
    if not cond:
        print("selftest: FAIL: " + msg)
        sys.exit(1)


def run(bench, workload, trace, *extra, size="tiny"):
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace),
                              "--size", size] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    check(out.returncode == 0, "%s exited %d:\n%s"
          % (" ".join(cmd), out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "result keys: %s" % sorted(result))
    return lines[:-1], result


def check_metrics(report, result, specs, label):
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in specs},
          "%s metric names differ: %s" % (label, sorted(
              set(metrics) ^ {m["name"] for m in specs})))
    for m in specs:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], "%s %s unit %s != %s"
              % (label, m["name"], got["unit"], m["unit"]))
        check(isinstance(got["value"], (int, float)),
              "%s %s has no value" % (label, m["name"]))
        pattern = r"^%s\s+[-+0-9.e]+ %s$" % (re.escape(m["name"]),
                                             re.escape(m["unit"]))
        check(any(re.match(pattern, line) for line in report),
              "%s: %s is not printed with its unit" % (label, m["name"]))


def check_partition(result, label):
    values = {k: v["value"] for k, v in result["metrics"].items()}
    total = sum(values[k] for k in PARTITION)
    check(abs(total - values["wall_traced_s"]) <= 1e-6 +
          1e-9 * values["wall_traced_s"],
          "%s: partition sums to %r, traced wall is %r"
          % (label, total, values["wall_traced_s"]))
    for k in PARTITION:
        check(values[k] >= -SELF_EPSILON_S,
              "%s: %s is negative (%r)" % (label, k, values[k]))


def fail_frac(report):
    for line in report:
        found = re.search(r"fail_frac=([0-9.]+)", line)
        if found:
            return float(found.group(1))
    check(False, "no fail_frac line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        report, result = run(bench, name, 0)
        check(result["correct"] and result["failed"] == 0,
              "%s failed: %s" % (name, report))
        check_metrics(report, result, bench["end_to_end"], name)
        check(all(result["metrics"][m["name"]]["value"] > 0
                  for m in bench["end_to_end"]),
              "%s: an end-to-end metric reads 0" % name)

        report, result = run(bench, name, 1)
        check(result["correct"], "%s traced run failed: %s" % (name, report))
        check_metrics(report, result, bench["per_layer"], name + " traced")
        check_partition(result, name + " traced")

        report, result = run(bench, name, 1, size="full")
        check(result["correct"], "%s full traced run failed: %s"
              % (name, report))
        check_partition(result, name + " full traced")
        print("selftest: %s ok" % name)

    base_report, base = run(bench, "pf-grid", 0)
    report, planted = run(bench, "pf-grid", 0, "--plant-abort")
    check(not planted["correct"], "a planted abort left the run correct")
    check(planted["failed"] >= 1 and fail_frac(report) > fail_frac(base_report),
          "the planted abort did not raise fail_frac: %s" % report)
    # tiny pf-grid has 22 cells a pass beside the planted one
    check(planted["attempted"] - planted["failed"] >= 22 * planted["failed"]
          and planted["metrics"]["events_per_s"]["value"] > 0,
          "the other cells did not run beside the planted abort")
    check(any("planted-abort" in line and "SIGABRT" in line
              for line in report), "the abort is not reported by name")
    print("selftest: planted abort ok")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
