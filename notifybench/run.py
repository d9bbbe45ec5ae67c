#!/usr/bin/env python3
"""Builds and runs one notifybench workload; prints the result JSON last.

    python3 notifybench/run.py --workload crash|signal|sim_groups --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. The benchmark binary is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the checkout; a
build that is up to date costs a second. Build output goes to stderr. The
result line is checked against BENCHMARK.json (every metric of the run's
kind, with its unit) before it is printed; any failure exits non-zero
without printing a result.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_TIMEOUT_S = 170
# Runnable, but not a workload of BENCHMARK.json: its failed count varies from
# run to run with the program's false notifications (NOTES.md, defect c).
UNGRADED_WORKLOADS = {"crash"}


def fail(msg):
    print(f"notifybench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"notifybench: no protocol sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "notifybench", "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "notifybench"


def run_binary(cmd):
    # Own session, so a timeout can take down the workload's worker
    # processes along with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"workload did not finish within {BINARY_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"workload exited with code {proc.returncode}")
    return out


def check(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no operation attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(wanted) - set(got))}, "
             f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit or not isinstance(value, (int, float)):
            fail(f"metric {name}: {got[name]} (want unit {unit})")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="self-test size")
    a = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]} | UNGRADED_WORKLOADS:
        fail(f"unknown workload {a.workload}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.tiny:
        cmd.append("--tiny")
    if a.trace:
        spans = build_dir / "spans" / f"{a.workload}-seed{a.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    lines = run_binary(cmd).rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    check(result, spec, a.trace)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
