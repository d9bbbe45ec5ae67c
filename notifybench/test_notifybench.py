#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of each workload, untraced and
traced, through run.py. Fails if the oracle reports a broken guarantee, if a
metric BENCHMARK.json names is missing or has no unit, if an end-to-end
metric reads 0, or if a layer a workload exercises was not measured.

    python3 notifybench/test_notifybench.py        # about a minute
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics each workload must measure (the rest may be unavailable
# on its backend, reported as -1 with the reason on the line above).
MEASURED = {
    "crash": ["runtime.run_rtt_us", "runtime.crash_call_ms", "runtime.restart_s",
              "transport.syscalls_per_msg", "transport.records_per_datagram",
              "self_s.runtime", "self_s.fuse"],
    "signal": ["runtime.run_rtt_us", "fuse.create_msgs_per_group",
               "fuse.notify_msgs_per_group", "overlay.ping_msgs_per_node_s",
               "transport.syscalls_per_msg", "load.machine_slowdown", "self_s.fuse"],
    "sim_groups": ["service.create_wall_s", "service.bytes_per_group", "fuse.bytes_per_group",
                   "fuse.armed_timers_per_group", "fuse.create_msgs_per_group",
                   "fuse.notify_msgs_per_group", "overlay.ping_msgs_per_node_s",
                   "sim.events_per_wall_s", "sim.events_per_sim_s", "sim.pending_timers",
                   "sim.crash_events", "load.machine_slowdown", "self_s.service", "self_s.sim"],
}


def tiny_run(workload, trace):
    p = subprocess.run(
        [sys.executable, "notifybench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p, (json.loads(p.stdout.splitlines()[-1]) if p.returncode == 0 else None)


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace):
        p, result = tiny_run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        self.assertTrue(result["correct"], f"oracle: guarantee broken\n{p.stdout[-3000:]}")
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        metrics = result["metrics"]
        for m in SPEC["per_layer" if trace else "end_to_end"]:
            self.assertIn(m["name"], metrics)
            self.assertTrue(metrics[m["name"]]["unit"], m["name"])
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
        if trace:
            for name in MEASURED[workload]:
                self.assertGreater(metrics[name]["value"], 0, name)

    def test_crash(self):
        self.check("crash", 0)
        self.check("crash", 1)

    def test_signal(self):
        self.check("signal", 0)
        self.check("signal", 1)

    def test_sim_groups(self):
        self.check("sim_groups", 0)
        self.check("sim_groups", 1)


if __name__ == "__main__":
    unittest.main()
