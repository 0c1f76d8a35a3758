#!/usr/bin/env bash
# Records one full result — every workload untraced and traced — with the
# host it was measured on, as bench/baseline/<yyyy-mm-dd>-<host-class>.json.
# The human-readable report lines (sample counts, per-round detail, span
# self times) are kept beside the numbers.
#
#   bash bench/baseline.sh <host-class> [seed=1]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
[ $# -ge 1 ] || { echo "usage: bash bench/baseline.sh <host-class> [seed]" >&2; exit 2; }
exec python3 - "$@" <<'EOF'
import datetime, json, os, platform, subprocess, sys

host, seed = sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 1
spec = json.load(open("BENCHMARK.json"))

def sh(*cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except OSError:
        return ""

def run(workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"baseline.sh: {' '.join(cmd)} exited {out.returncode}")
    res = json.loads(lines[-1])
    res["report"] = lines[:-1]
    return res

cpu = ""
for line in open("/proc/cpuinfo"):
    if line.startswith("model name"):
        cpu = line.split(":", 1)[1].strip()
        break
os.makedirs("bench/out", exist_ok=True)
doc = {
    "date": datetime.date.today().isoformat(),
    "host_class": host,
    "nproc": os.cpu_count(),
    "cpu_model": cpu,
    "kernel": platform.release(),
    "go_version": sh("go", "version"),
    "data_root_fs": sh("stat", "-f", "-c", "%T", "bench/out"),
    "commit": sh("git", "rev-parse", "HEAD") or "not a git checkout",
    "seed": seed,
    "run_seconds": spec["run_seconds"],
    "workloads": {},
}
for w in spec["workloads"]:
    doc["workloads"][w["name"]] = {"end_to_end": run(w["name"], 0), "per_layer": run(w["name"], 1)}
os.makedirs("bench/baseline", exist_ok=True)
path = f"bench/baseline/{doc['date']}-{host}.json"
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(path)
EOF
