#!/usr/bin/env bash
# Builds cheetah-bench, runs every workload of BENCHMARK.json, prints every
# metric with its unit, and exits non-zero unless every run was correct.
#
#   bench/e2e/run.sh [--seeds N] [--first-seed S] [--seconds S] [--trace 0|1]
#                    [--keep DIR]
#
# --seeds runs each workload once per seed (S, S+1, ...); --keep collects
# the cheetah-bench-result-v1 files for bench/e2e/compare.py.
set -euo pipefail
cd "$(dirname "$0")/../.."

seeds=1 first=1 seconds=10 trace=0 keep=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seeds) seeds=$2; shift 2 ;;
    --first-seed) first=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --keep) keep=(--keep "$2"); shift 2 ;;
    *) echo "usage: $0 [--seeds N] [--first-seed S] [--seconds S]" \
            "[--trace 0|1] [--keep DIR]" >&2; exit 1 ;;
  esac
done

workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for workload in $workloads; do
  for seed in $(seq "$first" $((first + seeds - 1))); do
    if ! line=$(python3 bench/e2e/run.py --workload "$workload" \
                  --seed "$seed" --seconds "$seconds" --trace "$trace" \
                  "${keep[@]}" | tail -n 1); then
      echo "FAILED: $workload seed $seed" >&2
      status=1
    elif ! python3 -c 'import json, sys; sys.exit(not json.loads(sys.argv[1])["correct"])' "$line"; then
      echo "INCORRECT: $workload seed $seed" >&2
      status=1
    fi
  done
done
exit $status
