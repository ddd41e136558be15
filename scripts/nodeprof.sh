#!/usr/bin/env bash
# CPU profile of node 0 while a benchmark workload runs: the recipe the
# node profiles in EXPERIMENTS.md were taken by, as a script.
#
#   scripts/nodeprof.sh <workload> [profile seconds, default 8]
#
# An untraced run starts its nodes without -debug-addr, so this is a
# traced one: `bash bench/run.sh --workload <workload> --seed 1 --seconds
# 60 --trace 1` in the background (warm-up 1 s, one-in-flight serial phase
# 6 s, then 27 s of the plain closed phase). The run sets its cluster up
# three times (bench/main.go's setupReps: c0, c1, c2) and only the last
# one serves the phases, so the debug address is read from the run's
# c2/node-0.log, again on every poll. The cluster is serving once that
# node's server.lookups + server.inserts moves — the preload's batch
# inserts move it, a second before the phases; lookups alone stand still
# through update_durable's timed phase. Nine seconds later, inside the
# plain closed phase, the node is profiled for the given time and `go tool
# pprof -top` printed, with the lookups and inserts the node counted
# meanwhile: samples per GUID is what two commits can be compared on. The
# run is then stopped. Changes nothing under bench/; the profile and the
# run's output stay in a temporary directory, whose name is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
wl=${1:?usage: scripts/nodeprof.sh <workload> [profile seconds]}
secs=${2:-8}
tmp=$(mktemp -d)
touch "$tmp/started"

bash bench/run.sh --workload "$wl" --seed 1 --seconds 60 --trace 1 >"$tmp/run.json" 2>"$tmp/run.err" &
run=$!
trap 'kill "$run" 2>/dev/null || true; wait "$run" 2>/dev/null || true' EXIT

# node0 prints the debug address of node 0 of the run's serving cluster.
node0() {
    local dir
    dir=$(find bench/out -mindepth 1 -maxdepth 1 -name "*-$wl-s1-t1-*" -newer "$tmp/started" 2>/dev/null | sort | tail -1)
    [ -n "$dir" ] && [ -f "$dir/c2/node-0.log" ] || return 0
    sed -n 's|^debug endpoint on http://\(.*\)/debug/metrics$|\1|p' "$dir/c2/node-0.log" | tail -1
}

# counter prints one counter of the node at $addr, 0 while it has none.
counter() {
    curl -s --max-time 2 "http://$addr/debug/metrics" | awk -v name="$1" '$2 == name { n = $3 } END { print n + 0 }'
}

addr=
for _ in $(seq 600); do
    kill -0 "$run" 2>/dev/null || { echo "the run ended before its mix started; see $tmp/run.err" >&2; exit 1; }
    addr=$(node0)
    [ -n "$addr" ] && [ $(($(counter server.lookups) + $(counter server.inserts))) != 0 ] && break
    addr=
    sleep 0.5
done
[ -n "$addr" ] || { echo "no serving node answered a lookup or an insert in 300 s; see $tmp/run.err" >&2; exit 1; }

sleep 9
echo "profiling node 0 ($addr) of $wl for $secs s; files in $tmp" >&2
lookups=$(counter server.lookups) inserts=$(counter server.inserts)
curl -sf -o "$tmp/node0.pprof" "http://$addr/debug/pprof/profile?seconds=$secs" ||
    { echo "fetching the profile from node 0 ($addr) failed; see $tmp/run.err" >&2; exit 1; }
echo "node 0 counted $(($(counter server.lookups) - lookups)) lookups and $(($(counter server.inserts) - inserts)) inserts while profiled"
go tool pprof -top -nodecount=25 "$tmp/node0.pprof"
