#!/usr/bin/env bash
# Runs the chaos soak — a two-node TCP cluster under seeded fault
# injection (drops, delays, duplicates, flaky dials, a scripted
# partition) plus a real crash/failover/rejoin — and folds the test's
# CHAOS_SUMMARY line into one JSON artifact (default BENCH_chaos.json):
# offered/accepted/lost exact-accounting totals plus injected-fault,
# retry, and dedup counters.
#
# The soak is deterministic (seeded fault schedule), so the JSON is
# comparable across commits: a drifting counter means the delivery
# pipeline changed behavior, not that the network got unlucky.
#
# Usage:
#   scripts/chaos_summary.sh [OUT.json]
#
# Environment:
#   CHAOS_COUNT  soak repetitions (default 2; all must agree — the
#                schedule is seeded, so any divergence is a bug)
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_chaos.json}
count=${CHAOS_COUNT:-2}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -race -timeout 300s -run 'TestChaosSoakExactAccounting|TestTransientBlipDoesNotFailover' \
    -count "$count" -v . | tee "$raw"

awk -v runs="$count" '
/CHAOS_SUMMARY/ {
    line = ""
    for (i = 1; i <= NF; i++) {
        if (split($i, kv, "=") == 2) {
            pairs[kv[1], ++n[kv[1]]] = kv[2]
            if (!(kv[1] in seen)) { order[++k] = kv[1]; seen[kv[1]] = 1 }
        }
    }
    summaries++
}
END {
    if (summaries == 0) { print "chaos_summary: no CHAOS_SUMMARY line in test output" > "/dev/stderr"; exit 1 }
    printf "{\n  \"suite\": \"chaos-soak\",\n  \"runs\": %d,\n", summaries
    deterministic = 1
    for (i = 1; i <= k; i++)
        for (j = 2; j <= n[order[i]]; j++)
            if (pairs[order[i], j] != pairs[order[i], 1]) deterministic = 0
    printf "  \"deterministic\": %s,\n  \"totals\": {\n", (deterministic ? "true" : "false")
    for (i = 1; i <= k; i++)
        printf "    \"%s\": %s%s\n", order[i], pairs[order[i], 1], (i < k ? "," : "")
    printf "  }\n}\n"
    if (!deterministic) {
        print "chaos_summary: seeded soak produced diverging counters across runs" > "/dev/stderr"
        exit 2
    }
}' "$raw" > "$out"

echo "wrote $out:"
cat "$out"
