#!/usr/bin/env python3
"""Compare fresh bench JSON results against the committed perf baseline.

Usage:
  scripts/check_perf_regression.py [--results-dir bench-results] \
      [--baseline bench-results/BASELINE.json]

Reads every <name>.bench.json in the results directory, finds the matching
entry in the baseline (top-level key = bench binary name), and fails (exit 1)
on a regression beyond the tolerance FUSE_PERF_TOLERANCE (a fraction, default
0.20):

  * higher-is-better metrics (delivered notifications) may not drop by more
    than the tolerance;
  * lower-is-better metrics (latencies in simulated time) may not grow by
    more than the tolerance;
  * band metrics (deterministic workload characteristics: simulated event
    and message counts, pending timers) may not drift in either direction —
    a large drift means the workload itself changed and the baseline must be
    re-blessed deliberately.

Every gated metric is a function of the code and the seed, not of the
machine. Wall-clock fields (events_per_wall_s, build_wall_s, socket
throughput and syscall counts) are informational: wall-clock performance is
compared by notifybench's paired runs of two builds on one machine.

Scale-sweep results ({"results": [...]}) are matched per entry by "nodes".
Metrics present on only one side, and unknown keys, are ignored.
"""

import argparse
import json
import os
import sys

HIGHER_BETTER = {
    "delivered",
    "delivered_notifications",
    "notify_delivered",
}
LOWER_BETTER = {
    "latency_min_minutes",
    "latency_p50_minutes",
    "latency_p90_minutes",
    "latency_max_minutes",
    "notify_p50_min",
    "notify_max_min",
    # Group fast-path notification latencies are simulated time, so they gate
    # at full strength even on heterogeneous runners.
    "notify_p50_ms",
    "notify_p999_ms",
}
BAND = {
    "steady_events",
    "msgs_per_sim_s",
    "pending_timers",
    "avg_neighbors",
    "affected_groups",
    "expected_notifications",
    "groups",
    # Structural O(1)-fast-path gates: per-group memory and armed-timer
    # counts are deterministic workload characteristics — growth in either
    # means per-group state or per-group timers crept back in.
    "bytes_per_group",
    "armed_group_timers",
    "notify_samples",
    "overlay_only_msgs_per_s",
    "with_groups_msgs_per_s",
    "stable300_msgs_per_s",
    "churn_msgs_per_s",
    "churn_fuse_msgs_per_s",
    # messages_total is deliberately NOT a band metric: the committed
    # bench_net_transport baseline is the --smoke run, while a local
    # full-size run writes 4x the messages — both are legitimate.
}


def compare_record(name: str, fresh: dict, base: dict, failures: list, checked: list) -> None:
    tol = float(os.environ.get("FUSE_PERF_TOLERANCE", "0.20"))
    for metric, base_value in base.items():
        if metric not in fresh or not isinstance(base_value, (int, float)):
            continue
        if isinstance(base_value, bool):
            continue
        fresh_value = fresh[metric]
        if metric in HIGHER_BETTER:
            bad = fresh_value < base_value * (1.0 - tol)
            direction = "dropped"
        elif metric in LOWER_BETTER:
            bad = base_value > 0 and fresh_value > base_value * (1.0 + tol)
            direction = "grew"
        elif metric in BAND:
            bad = base_value > 0 and abs(fresh_value - base_value) > base_value * tol
            direction = "drifted"
        else:
            continue  # informational field
        checked.append(f"{name}:{metric}")
        if bad:
            failures.append(
                f"{name}: {metric} {direction} beyond {tol:.0%}: "
                f"baseline {base_value}, fresh {fresh_value}"
            )


def scale_entries(doc: dict) -> dict:
    return {entry.get("nodes"): entry for entry in doc.get("results", [])}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--results-dir", default="bench-results")
    parser.add_argument("--baseline", default="bench-results/BASELINE.json")
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)

    failures: list = []
    checked: list = []
    compared_any = False
    for filename in sorted(os.listdir(args.results_dir)):
        if not filename.endswith(".bench.json"):
            continue
        name = filename[: -len(".bench.json")]
        if name not in baseline:
            print(f"note: no baseline entry for {name}; skipping")
            continue
        with open(os.path.join(args.results_dir, filename), encoding="utf-8") as f:
            fresh = json.load(f)
        base = baseline[name]
        compared_any = True
        if "results" in base or "results" in fresh:
            base_by_nodes = scale_entries(base)
            for nodes, fresh_entry in scale_entries(fresh).items():
                if nodes in base_by_nodes:
                    compare_record(f"{name}[{nodes} nodes]", fresh_entry,
                                   base_by_nodes[nodes], failures, checked)
        else:
            compare_record(name, fresh, base, failures, checked)

    if not compared_any:
        print("error: no fresh results matched any baseline entry", file=sys.stderr)
        return 2
    print(f"checked {len(checked)} metrics against {args.baseline}")
    if failures:
        print("PERF REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("perf baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
