#!/usr/bin/env bash
# Same-schedule check for refactors that claim no behaviour change. Extracts
# <base-ref> (git archive) under the build directory, builds it and the
# working tree, and diffs three deterministic outputs of each:
#   * the fault-schedule sweep log (fuzz_schedules --schedules 400 --seed 1);
#   * the determinism trace (DeterminismTest.SameSeedSameTrace, written
#     through FUSE_TRACE_OUT);
#   * the simulator scenario verdicts (property_test's FuseAgreementProperty
#     and MachineFailureProperty suites, one ScenarioResult line per run,
#     written through FUSE_SCENARIO_OUT).
# A base whose test binary predates an output variable writes no file for it;
# that comparison is reported as skipped. Each side's sweep summary
# (`swept ... violations=N`) and the number of schedule lines that differ are
# printed either way, so a change that moves behaviour on purpose can still
# show a clean sweep on both sides. Exits 0 when every compared output
# matches byte for byte, 1 on any difference (printed as a unified diff), 2
# on a usage error.
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
mkdir -p "${base_src}"
git archive "${base_sha}" | tar -x -C "${base_src}"

targets=(fuzz_schedules determinism_test property_test)
jobs="$(nproc)"

echo "same_schedule: building ${base_sha:0:12} and the working tree" >&2
cmake -S "${base_src}" -B "${out}/base-build" -DFUSE_BUILD_BENCH=OFF \
  -DFUSE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${out}/base-build" -j"${jobs}" --target "${targets[@]}" >/dev/null
cmake -S . -B "${build_dir}" >/dev/null
cmake --build "${build_dir}" -j"${jobs}" --target "${targets[@]}" >/dev/null

# The sweep exits nonzero when a schedule fails its oracle, and property_test
# when a scenario fails; that verdict is in the line being compared, so the
# exit status is not.
run() {  # <binary dir> <tag>
  "$1/src/fuzz_schedules" --schedules 400 --seed 1 --repro-dir "${out}" \
    > "${out}/$2.fuzz.log" || true
  FUSE_TRACE_OUT="${out}/$2.trace.txt" "$1/tests/determinism_test" \
    --gtest_filter='DeterminismTest.SameSeedSameTrace' >/dev/null
  # The dump appends, one line per scenario run.
  rm -f "${out}/$2.scenario.txt"
  FUSE_SCENARIO_OUT="${out}/$2.scenario.txt" "$1/tests/property_test" \
    --gtest_filter='*/FuseAgreementProperty.*:*/MachineFailureProperty.*' >/dev/null || true
}
run "${out}/base-build" base
run "${build_dir}" work

for tag in base work; do
  echo "same_schedule: ${tag}: $(grep '^swept ' "${out}/${tag}.fuzz.log" || echo 'no sweep summary')" >&2
done
differing="$(diff "${out}/base.fuzz.log" "${out}/work.fuzz.log" | grep -c '^>' || true)"
echo "same_schedule: ${differing} schedule lines differ" >&2

status=0
for kind in fuzz.log trace.txt scenario.txt; do
  if [[ ! -f "${out}/base.${kind}" ]]; then
    echo "same_schedule: ${base_sha:0:12} writes no ${kind}; skipped" >&2
    continue
  fi
  if ! diff -u "${out}/base.${kind}" "${out}/work.${kind}"; then
    status=1
  fi
done
if [[ ${status} -eq 0 ]]; then
  echo "same_schedule: fuzz log, determinism trace and scenario verdicts match" \
    "${base_sha:0:12}" >&2
else
  echo "same_schedule: the working tree's schedule differs from ${base_sha:0:12}" >&2
fi
exit "${status}"
