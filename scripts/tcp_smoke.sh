#!/usr/bin/env bash
# Multi-process TCP smoke test: a three-node muppet cluster on
# localhost runs the retailer application end to end. Each node is a
# real OS process hosting one machine; inter-machine deliveries cross
# real TCP sockets. Checkins are ingested at every node and the
# per-retailer counts are asserted exact — zero lost updates.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
declare -A nodepid
cleanup() {
    kill "${pids[@]}" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/muppet" ./cmd/muppet
go build -o "$workdir/slatectl" ./cmd/slatectl

base=${SMOKE_BASE_PORT:-17070}
hbase=$((base + 1000))
cat > "$workdir/cluster.json" <<EOF
{
  "nodes": {
    "machine-00": "127.0.0.1:$base",
    "machine-01": "127.0.0.1:$((base + 1))",
    "machine-02": "127.0.0.1:$((base + 2))"
  },
  "retry_backoff": "20ms"
}
EOF

# start_node I LOG: launch machine-0I with the shared durable data
# directory (each node writes under data/machine-0I).
start_node() {
    local i=$1 log=$2
    "$workdir/muppet" -app retailer -node "machine-0$i" -join "$workdir/cluster.json" \
        -http "127.0.0.1:$((hbase + i))" -events 0 -linger 120s \
        -data-dir "$workdir/data" \
        > "$workdir/$log" 2>&1 &
    pids+=($!)
    nodepid[$i]=$!
}

for i in 0 1 2; do
    start_node "$i" "node$i.log"
done

# Wait until every node's HTTP API answers and reports the TCP transport.
for i in 0 1 2; do
    for _ in $(seq 1 100); do
        if curl -sf "127.0.0.1:$((hbase + i))/status" 2>/dev/null | grep -q '"transport":"tcp"'; then
            continue 2
        fi
        sleep 0.1
    done
    echo "FAIL: node $i never came up"; cat "$workdir/node$i.log"; exit 1
done
echo "3 nodes up: $(curl -sf "127.0.0.1:$hbase/status" | tr -d '\n')"

# ingest NODE VENUE COUNT: POST checkins to one node, assert all accepted.
ingest() {
    local node=$1 venue=$2 count=$3 events="" j
    for j in $(seq 1 "$count"); do
        events+="{\"stream\":\"S1\",\"key\":\"u$j\",\"value\":\"{\\\"id\\\":$j,\\\"user\\\":\\\"u$j\\\",\\\"venue\\\":\\\"$venue\\\"}\"},"
    done
    local reply
    reply=$(curl -sf -X POST "127.0.0.1:$((hbase + node))/ingest" \
        -H 'Content-Type: application/json' -d "[${events%,}]")
    if ! grep -q "\"accepted\":$count" <<< "$reply"; then
        echo "FAIL: node $node accepted fewer than $count: $reply"; exit 1
    fi
}

# Spread the load: every node ingests, so whichever machines own the
# three retailer keys, sends cross the network in multiple directions.
ingest 0 "Walmart Supercenter" 4
ingest 1 "wal-mart"            3
ingest 2 "WALMART"             3
ingest 0 "sams club"           2
ingest 1 "Sam's Club"          4
ingest 2 "Target"              5

# expect RETAILER COUNT: the owning node's slate must converge to the
# exact count; the other nodes answer 404 from their local stores.
expect() {
    local retailer=$1 want=$2 path got i
    path=$(printf '%s' "$retailer" | sed 's/ /%20/g')
    for _ in $(seq 1 100); do
        for i in 0 1 2; do
            got=$(curl -sf "127.0.0.1:$((hbase + i))/slate/U1/$path" 2>/dev/null) || continue
            if [ "$got" = "$want" ]; then
                echo "ok: count($retailer) = $want (answered by node $i)"
                return 0
            fi
        done
        sleep 0.1
    done
    echo "FAIL: count($retailer) never reached $want (last seen: ${got:-none})"
    exit 1
}

expect "Walmart"    10
expect "Sam's Club" 6
expect "Target"     5

# Cross-node query: a cluster-wide top-3-by-count through slatectl
# against node 0 must rank the three retailers with their exact counts.
# The whole pipeline executes on the owning nodes; node 0 only receives
# already-reduced partials.
q=""
for _ in $(seq 1 100); do
    q=$("$workdir/slatectl" -addr "127.0.0.1:$hbase" query -stream U1 -topk 3 -by count)
    if grep -q '"key":"Walmart"' <<< "$q"; then
        break
    fi
    sleep 0.1
done
echo "$q"
for want in '1p;"key":"Walmart";"sum":10' '2p;"key":"Sam'"'"'s Club";"sum":6' '3p;"key":"Target";"sum":5'; do
    IFS=';' read -r line key sum <<< "$want"
    got=$(sed -n "$line" <<< "$q")
    if ! grep -qF "$key" <<< "$got" || ! grep -qF "$sum" <<< "$got"; then
        echo "FAIL: topk rank $line: want $key $sum, got: $got"; exit 1
    fi
done
echo "ok: slatectl query -topk 3 ranked Walmart=10, Sam's Club=6, Target=5 across the cluster"

# /metrics: every node serves Prometheus text with live engine
# counters, and the cross-node delivery counters reconcile — sends are
# synchronous request/response, so after convergence every request
# frame one node wrote has been served by a peer.
# metric_sum NAME: sum a counter across all three nodes' /metrics
# (labelled or not).
metric_sum() {
    local name=$1 total=0 i v
    for i in 0 1 2; do
        v=$(curl -sf "127.0.0.1:$((hbase + i))/metrics" \
            | awk -v n="$name" '$1 ~ "^"n"(\\{|$)" { s += $2 } END { printf "%d", s }')
        total=$((total + v))
    done
    echo "$total"
}

# Every node ingested a batch above, so its own ingest counter must be
# live (processing may all happen on the key-owning peers). The body is
# captured first: grep -q on a live curl pipe would SIGPIPE curl and
# trip pipefail even on a match.
for i in 0 1 2; do
    body=$(curl -sf "127.0.0.1:$((hbase + i))/metrics")
    if ! grep -q '^muppet_engine_ingested_total [1-9]' <<< "$body"; then
        echo "FAIL: node $i /metrics missing nonzero engine counters"
        head -20 <<< "$body"
        exit 1
    fi
done

processed=$(metric_sum muppet_engine_processed_total)
if [ "$processed" -eq 0 ]; then
    echo "FAIL: no node processed any event"
    exit 1
fi

frames_out=$(metric_sum muppet_transport_frames_out_total)
frames_in=$(metric_sum muppet_transport_frames_in_total)
if [ "$frames_out" -eq 0 ] || [ "$frames_out" -ne "$frames_in" ]; then
    echo "FAIL: cross-node delivery counters do not reconcile: $frames_out frames written, $frames_in served"
    exit 1
fi
echo "ok: /metrics up on 3 nodes; $frames_out cross-node frames written = $frames_in served"

# Durable restart: kill the node that owns the Target slate, restart it
# on the same data directory, and assert the fresh process serves the
# pre-crash count straight off its own LSM files — no events are
# re-ingested and nothing replays them, so disk is the only possible
# source.
owner=""
for i in 0 1 2; do
    if curl -sf "127.0.0.1:$((hbase + i))/slate/U1/Target" >/dev/null 2>&1; then
        owner=$i
        break
    fi
done
if [ -z "$owner" ]; then
    echo "FAIL: no node owns the Target slate"; exit 1
fi
sleep 0.5 # let the 100ms interval flusher persist the slate
kill "${nodepid[$owner]}"
wait "${nodepid[$owner]}" 2>/dev/null || true
start_node "$owner" "node$owner-restarted.log"

got=""
for _ in $(seq 1 100); do
    got=$(curl -sf "127.0.0.1:$((hbase + owner))/slate/U1/Target" 2>/dev/null) || got=""
    if [ "$got" = "5" ]; then
        break
    fi
    sleep 0.1
done
if [ "$got" != "5" ]; then
    echo "FAIL: node $owner lost the Target slate across restart (got: ${got:-none})"
    cat "$workdir/node$owner-restarted.log"
    exit 1
fi
echo "ok: node $owner restarted on its data dir and served count(Target) = 5 from disk"

# Pushdown phase: a second 3-node cluster runs the httphits app, whose
# per-section counters give an unbounded key space. 300 single-hit pad
# sections plus three hot ones make the saving measurable: the top-3
# query ships 3-group partials to the coordinator while a fetch-all
# must ship every slate. Queries run while pad ingest is still
# streaming in — the hot-section counts must be exact regardless.
base2=$((base + 10))
hbase2=$((hbase + 10))
cat > "$workdir/cluster2.json" <<EOF
{
  "nodes": {
    "machine-00": "127.0.0.1:$base2",
    "machine-01": "127.0.0.1:$((base2 + 1))",
    "machine-02": "127.0.0.1:$((base2 + 2))"
  },
  "retry_backoff": "20ms"
}
EOF
for i in 0 1 2; do
    "$workdir/muppet" -app httphits -node "machine-0$i" -join "$workdir/cluster2.json" \
        -http "127.0.0.1:$((hbase2 + i))" -events 0 -linger 120s \
        -data-dir "$workdir/data2" \
        > "$workdir/hits$i.log" 2>&1 &
    pids+=($!)
done
for i in 0 1 2; do
    for _ in $(seq 1 100); do
        if curl -sf "127.0.0.1:$((hbase2 + i))/status" 2>/dev/null | grep -q '"transport":"tcp"'; then
            continue 2
        fi
        sleep 0.1
    done
    echo "FAIL: httphits node $i never came up"; cat "$workdir/hits$i.log"; exit 1
done

# hits SECTION COUNT: POST that many requests for one site section.
hits() {
    local section=$1 count=$2 events="" j
    for j in $(seq 1 "$count"); do
        events+="{\"stream\":\"S1\",\"key\":\"h$j\",\"value\":\"/$section/page$j\"},"
    done
    curl -sf -X POST "127.0.0.1:$hbase2/ingest" \
        -H 'Content-Type: application/json' -d "[${events%,}]" > /dev/null
}
hits alpha 10
hits beta  6
hits gamma 5

# topk_exact LABEL: one top-3 query must rank alpha=10, beta=6,
# gamma=5 in the q variable set by the caller.
topk_exact() {
    local label=$1 want key sum
    for want in 'alpha;"sum":10' 'beta;"sum":6' 'gamma;"sum":5'; do
        IFS=';' read -r key sum <<< "$want"
        if ! grep "\"key\":\"$key\"" <<< "$q" | grep -qF "$sum"; then
            echo "FAIL: $label topk lost section $key $sum: $q"; exit 1
        fi
    done
}

# Wait for the hot sections to converge to their exact counts.
q=""
for _ in $(seq 1 100); do
    q=$("$workdir/slatectl" -addr "127.0.0.1:$hbase2" query -stream U_hits -topk 3 -by count)
    if grep -q '"sum":10' <<< "$q" && grep -q '"sum":6' <<< "$q" && grep -q '"sum":5' <<< "$q"; then
        break
    fi
    sleep 0.1
done
topk_exact converged

# Stream the 300 pad sections in the background and query while they
# land: each pad scores 1, so the converged 10/6/5 top-3 must stay
# exact in every instantaneous answer.
pad_events=""
for j in $(seq 1 300); do
    pad_events+="{\"stream\":\"S1\",\"key\":\"p$j\",\"value\":\"/pad$j/x\"},"
done
curl -sf -X POST "127.0.0.1:$hbase2/ingest" \
    -H 'Content-Type: application/json' -d "[${pad_events%,}]" > /dev/null &
padpid=$!
q=$("$workdir/slatectl" -addr "127.0.0.1:$hbase2" query -stream U_hits -topk 3 -by count)
topk_exact mid-ingest
wait "$padpid"
echo "ok: top-3 sections exact (alpha=10 beta=6 gamma=5) during streaming pad ingest"

# Settle, then assert the pushdown saving: the coordinator's received
# partial-result bytes must be smaller than fetching all ~303 slates.
q=""
for _ in $(seq 1 100); do
    q=$("$workdir/slatectl" -addr "127.0.0.1:$hbase2" query -stream U_hits -topk 3 -by count)
    if grep -q '"rows_scanned":30[3-9]' <<< "$q"; then
        break
    fi
    sleep 0.1
done
echo "$q" | tail -1
wire=$(grep -o '"wire_bytes":[0-9]*' <<< "$q" | cut -d: -f2)
if [ -z "$wire" ] || [ "$wire" -eq 0 ]; then
    echo "FAIL: query stats carry no wire bytes: $q"; exit 1
fi
fetchall=0
for i in 0 1 2; do
    bytes=$(curl -sf "127.0.0.1:$((hbase2 + i))/slates/U_hits" | wc -c)
    fetchall=$((fetchall + bytes))
done
if [ "$wire" -ge "$fetchall" ]; then
    echo "FAIL: pushdown saved nothing: $wire wire bytes vs $fetchall fetch-all bytes"; exit 1
fi
echo "ok: pushdown shipped $wire bytes to the coordinator vs $fetchall fetch-all bytes"

echo "tcp smoke: 3-process cluster converged with zero lost updates, survived a node restart, and answered cluster-wide queries with pushdown"
