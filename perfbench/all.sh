#!/usr/bin/env bash
# Runs every workload in turn, one process each, with the given flags
# (all but --workload), and exits non-zero if any run fails.
#
#   bash perfbench/all.sh --seed 1 --seconds 35 --trace 0
set -uo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
status=0
for w in $(bash "${dir}/run.sh" list); do
	bash "${dir}/run.sh" --workload "${w}" "$@" || status=1
done
exit "${status}"
