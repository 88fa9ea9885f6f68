#!/usr/bin/env python3
"""pcbound's end-to-end benchmark (see BENCHMARK.json at the repo root).

    python3 perfbench/run.py --threads 1 --build-type Release \\
        --workload pf-grid --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build, runs the
single-threaded driver `pcbbench` for one workload, checks every cell's
result, and prints a report whose last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.

Correctness, per cell run (one cell in one pass):
  * the cell must not crash, abort or break a checked invariant
    (Theorem 1 on every c-partial pf-grid cell, the overhead bound on
    realloc cells, complete streams and drained fleets);
  * its result row must be identical in every pass of the run;
  * at the recorded seed (and at every seed for cells whose inputs do
    not depend on it) the row must equal the committed one in
    perfbench/expected.json.
A cell listed under "expected_failures" there is a known defect: when it
crashes it counts in fail_frac but not in the JSON "failed" count.

--threads and --build-type must match the configuration BENCHMARK.json's
command records (one thread, Release); the benchmark refuses any other.
--size tiny and --plant-abort exist for perfbench/selftest.py.
"""

import argparse
import json
import os
import resource
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
STACK_BYTES = 8 << 20
RUN_TIMEOUT_S = 170
WORKLOADS = ("pf-grid", "fleet-churn", "realloc-moves", "trace-replay")


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def recorded_config():
    """(threads, build type) as BENCHMARK.json's command records them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cmd = json.load(f)["command"]
        return (int(cmd[cmd.index("--threads") + 1]),
                cmd[cmd.index("--build-type") + 1])
    except (OSError, ValueError, KeyError, IndexError) as e:
        fail("cannot read the recorded configuration: %s" % e, 2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--build-type", required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--plant-abort", action="store_true")
    a = p.parse_args()
    recorded = recorded_config()
    if (a.threads, a.build_type) != recorded:
        fail("BENCHMARK.json records --threads %d --build-type %s; refusing"
             " --threads %d --build-type %s" % (recorded + (a.threads,
                                                           a.build_type)), 2)
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    return a


def cached_build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_type):
    """Configures (once) and builds pcbbench; returns the binary's path."""
    build_dir = os.path.join(ROOT, ".bench_build")
    steps = []
    if cached_build_type(build_dir) != build_type:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + build_type])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "pcbbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "pcbbench")


def pin_stack():
    # The expected realloc-moves failure is a stack overflow at Linux's
    # default 8 MiB; pin it so the outcome does not depend on the caller.
    _, hard = resource.getrlimit(resource.RLIMIT_STACK)
    resource.setrlimit(resource.RLIMIT_STACK, (STACK_BYTES, hard))


def run_driver(binary, a):
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--threads", str(a.threads), "--size", a.size]
    if a.plant_abort:
        cmd.append("--plant-abort")
    # A session of its own, so a timeout can stop the cells it forked too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=pin_stack, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("pcbbench timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("pcbbench exited with %d" % proc.returncode)
    return json.loads(out)


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def check_cells(report, expected, a):
    """Returns (attempted, failed, expected_failures, problems)."""
    rows = expected["rows"].get(a.workload, {})
    known = expected["expected_failures"].get(a.workload, {})
    at_recorded_seed = a.seed == expected["seed"]
    attempted = failed = known_failed = 0
    problems = []
    for cell in report["cells"]:
        name = cell["name"]
        check_row = a.size == "full" and name not in known and (
            cell["seed_free"] or at_recorded_seed)
        first_row = None
        for k, run in enumerate(cell["runs"]):
            attempted += 1
            why = None
            if run["status"] != "ok":
                if name in known and run["status"] == "signal":
                    known_failed += 1
                    continue
                why = "%s %s" % (run["status"], run["detail"])
            elif first_row is not None and run["row"] != first_row:
                why = "row differs from pass 0: " + run["row"]
            elif check_row and rows.get(name) != run["row"]:
                why = "row differs from expected.json: " + run["row"]
            if first_row is None and run["status"] == "ok":
                first_row = run["row"]
            if why:
                failed += 1
                problems.append("%s pass %d: %s" % (name, k, why))
    return attempted, failed, known_failed, problems


def main():
    a = parse_args()
    expected = load_expected()
    binary = build(a.build_type)
    report = run_driver(binary, a)
    if (report["threads"], report["build_type"]) != (a.threads, a.build_type):
        fail("invalid run: pcbbench ran %d thread(s) built as %s"
             % (report["threads"], report["build_type"]), 2)

    attempted, failed, known_failed, problems = check_cells(report, expected, a)
    if a.trace and not report["exact_counters_stable"]:
        problems.append("deterministic counters differ between traced passes")
    correct = not problems

    print("# pcbbench %s seed=%d size=%s build=%s threads=%d passes=%d"
          " (planned %d) traced_passes=%d setups=%d block_samples=%d cpus=%s"
          % (a.workload, a.seed, a.size, report["build_type"],
             report["threads"], report["passes"], report["planned_passes"],
             report["traced_passes"], report["setups"],
             report["block_samples"],
             ",".join(map(str, report["cpus"]))))
    print("# cells: %d attempted, %d failed (%d of them expected), "
          "fail_frac=%.4f" % (attempted, failed + known_failed, known_failed,
                              (failed + known_failed) / attempted))
    for name, why in sorted(expected["expected_failures"]
                            .get(a.workload, {}).items()):
        print("# expected failure: %s: %s" % (name, why))
    for line in problems:
        print("# FAILED " + line)
    for name, m in report["metrics"].items():
        print("%-28s %22.10g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))


if __name__ == "__main__":
    main()
