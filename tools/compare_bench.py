#!/usr/bin/env python3
"""Compare a fresh bench_pf_sim JSON against the committed baseline.

Usage: compare_bench.py BASELINE.json FRESH.json [--max-regression PCT]

Fails (exit 1) when the fresh run's steps_per_second has regressed by
more than --max-regression percent (default 20) relative to the
baseline, or when the two runs measured different grids or ran at
different thread counts (comparing steps/sec across either is
meaningless). Also prints the
per-phase ns_per_call and calls deltas so CI logs show where time
moved, and fails when a substrate phase (heap.*, fsi.*, mm.compact)
regressed by more than --max-phase-regression percent (default 25):
the end-to-end number can hide a hot-path regression behind an
unrelated win, the per-phase gate cannot.

The calls gate closes the dual blind spot: a change that makes a hot
phase *fire* more often (say, a compaction trigger running twice per
step) can keep ns_per_call flat while the total cost balloons. Unlike
timings, call counts on an identical grid are deterministic, so growth
past --max-phase-calls-growth percent (default 25) in a gated phase
fails the comparison; an intended cadence change must regenerate the
committed baseline.

The overhead gate covers the reallocation family's quality metric the
same way the throughput gate covers speed: baselines that carry
"overhead_cells" (bench_realloc's per-cell words-moved-per-word-
allocated ratios) fail when any cell's fresh overhead grows more than
--max-overhead-growth percent over the baseline. Overhead on an
identical grid is deterministic, so any growth is a behaviour change —
an intended algorithm change must regenerate the committed baseline.
Cells present on only one side warn by name, like phases.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--max-regression", type=float, default=20.0,
                    help="maximum steps_per_second drop, in percent")
    ap.add_argument("--max-phase-regression", type=float, default=25.0,
                    help="maximum ns_per_call growth for the gated "
                         "substrate phases (heap.*, fsi.*, mm.compact), "
                         "in percent")
    ap.add_argument("--max-phase-calls-growth", type=float, default=25.0,
                    help="maximum calls growth for the gated substrate "
                         "phases, in percent (counts are deterministic "
                         "per grid, so growth means the phase fires "
                         "more often, not runner noise)")
    ap.add_argument("--max-overhead-growth", type=float, default=1.0,
                    help="maximum growth of any overhead_cells ratio "
                         "(words moved per word allocated), in percent; "
                         "ratios are deterministic per grid")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    # The throughput number is only comparable on an identical grid, run
    # at the same thread count (a multi-threaded run on a many-core box
    # would hide a single-thread regression several times over).
    for key in ("bench", "logm", "logn", "cs", "total_steps", "threads"):
        if base.get(key) != fresh.get(key):
            print(f"error: grid mismatch on '{key}': baseline "
                  f"{base.get(key)!r} vs fresh {fresh.get(key)!r}",
                  file=sys.stderr)
            return 1

    b, f = base["steps_per_second"], fresh["steps_per_second"]
    change = 100.0 * (f - b) / b
    print(f"steps_per_second: baseline {b}, fresh {f} ({change:+.1f}%)")

    def gated(section):
        return (section.startswith("heap.") or section.startswith("fsi.")
                or section in ("mm.compact", "mm.realloc"))

    failed = False
    base_phases = {p["section"]: p for p in base.get("per_phase", [])}
    fresh_phases = {p["section"]: p for p in fresh.get("per_phase", [])}
    # A phase present on only one side is reported by name rather than
    # silently skipped (or KeyError'd): a brand-new instrumented section
    # must not break the gate, and a section that stopped firing is
    # exactly the kind of change a reviewer should see in the CI log.
    for section in sorted(base_phases.keys() - fresh_phases.keys()):
        print(f"warning: phase '{section}' is in the baseline but missing "
              f"from the fresh run (not gated)")
    for section in sorted(fresh_phases.keys() - base_phases.keys()):
        print(f"warning: phase '{section}' is new in the fresh run "
              f"(no baseline; not gated)")
    for p in fresh.get("per_phase", []):
        bp = base_phases.get(p["section"])
        if bp is None:
            continue
        d = p["ns_per_call"] - bp["ns_per_call"]
        dc = p["calls"] - bp["calls"]
        print(f"  {p['section']:>12}: {bp['ns_per_call']:>10.1f} -> "
              f"{p['ns_per_call']:>10.1f} ns/call ({d:+.1f}), "
              f"{bp['calls']} -> {p['calls']} calls ({dc:+d})")
        if gated(p["section"]) and bp["ns_per_call"] > 0:
            growth = 100.0 * d / bp["ns_per_call"]
            if growth > args.max_phase_regression:
                print(f"error: {p['section']} ns_per_call regressed "
                      f"{growth:.1f}% (> {args.max_phase_regression}% "
                      f"allowed)", file=sys.stderr)
                failed = True
        if gated(p["section"]) and bp["calls"] > 0:
            calls_growth = 100.0 * dc / bp["calls"]
            if calls_growth > args.max_phase_calls_growth:
                print(f"error: {p['section']} now fires {calls_growth:.1f}% "
                      f"more often ({bp['calls']} -> {p['calls']} calls, "
                      f"> {args.max_phase_calls_growth}% allowed)",
                      file=sys.stderr)
                failed = True

    # The reallocation family's quality gate: per-cell overhead ratios.
    base_cells = {c["cell"]: c for c in base.get("overhead_cells", [])}
    fresh_cells = {c["cell"]: c for c in fresh.get("overhead_cells", [])}
    for cell in sorted(base_cells.keys() - fresh_cells.keys()):
        print(f"warning: overhead cell '{cell}' is in the baseline but "
              f"missing from the fresh run (not gated)")
    for cell in sorted(fresh_cells.keys() - base_cells.keys()):
        print(f"warning: overhead cell '{cell}' is new in the fresh run "
              f"(no baseline; not gated)")
    for cell in sorted(base_cells.keys() & fresh_cells.keys()):
        b_over = base_cells[cell]["overhead"]
        f_over = fresh_cells[cell]["overhead"]
        # The absolute epsilon keeps a zero-overhead baseline (the
        # never-move envelope) strict without tripping on formatting.
        allowed = b_over + max(b_over * args.max_overhead_growth / 100.0,
                               1e-9)
        if f_over > allowed:
            print(f"error: overhead of {cell} regressed: {b_over} -> "
                  f"{f_over} words moved per word allocated "
                  f"(> {args.max_overhead_growth}% growth allowed)",
                  file=sys.stderr)
            failed = True

    if change < -args.max_regression:
        print(f"error: steps_per_second regressed {-change:.1f}% "
              f"(> {args.max_regression}% allowed)", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("bench comparison OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
