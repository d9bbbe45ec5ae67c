#!/usr/bin/env bash
# Net source size of a change: lines added, lines removed and the net change
# under src/ between <base-ref> and the working tree (committed or not;
# untracked files under src/ count as added).
#
#   scripts/src_lines.sh HEAD~      # any commit-ish: SHA, branch, tag
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
base_sha="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "src_lines: not a commit: $1" >&2
  exit 2
}

read -r added removed < <(
  git diff --numstat "${base_sha}" -- src | awk '{a += $1; r += $2} END {print a + 0, r + 0}'
)
untracked=0
while IFS= read -r f; do
  untracked=$((untracked + $(wc -l < "${f}")))
done < <(git ls-files --others --exclude-standard -- src)
added=$((added + untracked))
printf 'src/ vs %s: +%d -%d net %+d\n' "${base_sha:0:12}" "${added}" "${removed}" \
  "$((added - removed))"
