#!/usr/bin/env bash
# Same-schedule check for refactors that claim no behaviour change. Builds
# <base-ref> in a git worktree under the build directory, builds the working
# tree, and diffs two deterministic outputs of each:
#   * the fault-schedule sweep log (fuzz_schedules --schedules 400 --seed 1);
#   * the determinism trace (DeterminismTest.SameSeedSameTrace, written
#     through FUSE_TRACE_OUT).
# Exits 0 when both match byte for byte, 1 on any difference (printed as a
# unified diff), 2 on a usage error.
#
#   scripts/same_schedule.sh HEAD~        # any commit-ish: SHA, branch, tag
#   BUILD_DIR=build-rel scripts/same_schedule.sh main
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
base_sha="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "same_schedule: not a commit: $1" >&2
  exit 2
}

build_dir="${BUILD_DIR:-build}"
out="${build_dir}/same_schedule"
base_src="${out}/base-src"
rm -rf "${out}"
mkdir -p "${out}"
git worktree prune
git worktree add --quiet --detach "${base_src}" "${base_sha}"
trap 'git worktree remove --force "${base_src}" >/dev/null 2>&1 || true' EXIT

targets=(fuzz_schedules determinism_test)
jobs="$(nproc)"

echo "same_schedule: building ${base_sha:0:12} and the working tree" >&2
cmake -S "${base_src}" -B "${out}/base-build" -DFUSE_BUILD_BENCH=OFF \
  -DFUSE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${out}/base-build" -j"${jobs}" --target "${targets[@]}" >/dev/null
cmake -S . -B "${build_dir}" >/dev/null
cmake --build "${build_dir}" -j"${jobs}" --target "${targets[@]}" >/dev/null

# The sweep exits nonzero when a schedule fails its oracle; that verdict is
# in the log line being compared, so the exit status is not.
run() {  # <binary dir> <tag>
  "$1/src/fuzz_schedules" --schedules 400 --seed 1 --repro-dir "${out}" \
    > "${out}/$2.fuzz.log" || true
  FUSE_TRACE_OUT="${out}/$2.trace.txt" "$1/tests/determinism_test" \
    --gtest_filter=DeterminismTest.SameSeedSameTrace >/dev/null
}
run "${out}/base-build" base
run "${build_dir}" work

status=0
for kind in fuzz.log trace.txt; do
  if ! diff -u "${out}/base.${kind}" "${out}/work.${kind}"; then
    status=1
  fi
done
if [[ ${status} -eq 0 ]]; then
  echo "same_schedule: fuzz log and determinism trace match ${base_sha:0:12}" >&2
else
  echo "same_schedule: the working tree's schedule differs from ${base_sha:0:12}" >&2
fi
exit "${status}"
