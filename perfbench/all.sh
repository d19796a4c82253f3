#!/usr/bin/env bash
# Run every workload once untraced and once traced, one process at a time,
# and print every metric with its unit.  Usage: bash perfbench/all.sh [SEED] [SECONDS]
set -u
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-30}"
status=0
for workload in extend17 grow7 query; do
    for trace in 0 1; do
        echo "== $workload trace=$trace seed=$seed"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | sed '$d'
        [ "${PIPESTATUS[0]}" -eq 0 ] || status=1
    done
done
exit "$status"
