#!/usr/bin/env bash
# A/A check: runs the benchmark of BENCHMARK.json as two interleaved sets
# (A B A B ...) of N runs of the same build, each run with its own seed,
# and prints per workload × end-to-end metric both medians, each set's
# quartile spread (Q3−Q1 over the median, statistics.quantiles(n=4)) and
# the spread's ratio to the metric's bound. Exits non-zero if set B's
# median is worse than set A's by more than the bound, if a spread other
# than setup_s's exceeds its bound, or if any run reports a failure.
#
#   bash bench/aa.sh [N=5] [workload ...]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec python3 - "$@" <<'EOF'
import json, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
if n < 5:
    sys.exit("aa.sh: N must be at least 5")
names = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
bad = False

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0 or not out.stdout.strip():
        sys.exit(f"aa.sh: {' '.join(cmd)} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])

def spread(vals):
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)

print(f"{'workload':22s} {'metric':26s} {'median A':>12s} {'median B':>12s} {'B vs A':>8s} "
      f"{'spread A':>9s} {'spread B':>9s} {'bound':>6s} {'spread/bound':>12s}")
for w in names:
    sets = ({}, {})
    for i in range(2 * n):
        res = run(w, i + 1)
        if res["failed"] or not res["correct"]:
            print(f"{w}: seed {i + 1}: {res['failed']} of {res['attempted']} operations failed")
            bad = True
        for k, m in res["metrics"].items():
            sets[i % 2].setdefault(k, []).append(m["value"])
    for e in spec["end_to_end"]:
        a, b = sets[0][e["name"]], sets[1][e["name"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if e["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        flag = ""
        if worse > e["bound"]:
            flag, bad = "  MEDIANS DIFFER", True
        if e["name"] != "setup_s" and max(sa, sb) > e["bound"]:
            flag, bad = flag + "  SPREAD OVER BOUND", True
        print(f"{w:22s} {e['name']:26s} {ma:12.4f} {mb:12.4f} {100 * worse:+7.2f}% "
              f"{100 * sa:8.2f}% {100 * sb:8.2f}% {100 * e['bound']:5.0f}% "
              f"{max(sa, sb) / e['bound']:12.2f}{flag}")
sys.exit(1 if bad else 0)
EOF
