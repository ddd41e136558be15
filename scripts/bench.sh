#!/bin/sh
# Benchmark harness.
#
#   scripts/bench.sh           # micro-benchmarks -> BENCH_<date>.json
#   scripts/bench.sh smoke     # CI gate: metrics overhead budget
#   scripts/bench.sh trace     # tracing-off request overhead gate
#   scripts/bench.sh alloc     # single-op allocation budget gate
#   scripts/bench.sh recover   # WAL replay + restart time-to-serve
#   scripts/bench.sh soak      # >=1k-connection soak (informational)
#   scripts/bench.sh load      # open-loop overload sweep + knee gate
#   scripts/bench.sh heal      # partition-heal convergence sweep
#   scripts/bench.sh fleet     # telemetry-plane overhead + SLO gate
#   scripts/bench.sh validate  # parse every BENCH_*.json record file
#
# Default mode runs the hot-path micro-benchmarks (hashing, prefix
# match, placement, wire codec, store ops, metrics primitives) with
# -benchmem and emits a JSON record per benchmark into BENCH_<date>.json
# for longitudinal tracking.
#
# Smoke mode asserts the observability overhead budget (DESIGN.md §6):
#   1. store path: BenchmarkStorePutGetInstrumented must be within
#      BENCH_TOLERANCE_PCT (default 5%) of BenchmarkStorePutGet.
#   2. wire path: BenchmarkMetricsRequestOverhead (everything the server
#      adds per served request: two clock reads, one histogram
#      observation, two counters) must be below BENCH_TOLERANCE_PCT of
#      BenchmarkTCPLookup, a real served wire round trip.
#   3. codec pair: the absolute ns delta between
#      BenchmarkWireEntryRoundTripInstrumented and
#      BenchmarkWireEntryRoundTrip must be below BENCH_TOLERANCE_PCT of
#      BenchmarkTCPLookup. The pair is deliberately NOT compared
#      relatively: a ~100 ns encode/decode doubles under two clock reads
#      and a histogram observation, but what the budget protects is the
#      served request, and against a full round trip the same delta is
#      nearly invisible.
#
# Trace mode runs the request-path tracing benchmarks
# (BenchmarkRequestTraceOff / BenchmarkRequestTraceOn) against the
# pre-tracing baseline (BenchmarkTCPLookup) and asserts that the
# trace-capable path with tracing DISABLED stays within
# BENCH_TOLERANCE_PCT (default 5%) of the baseline — the DESIGN.md §8
# tracing-off budget — then appends all three rows to BENCH_<date>.json.
# The fully-sampled cost (TraceOn vs TraceOff) is reported but not
# gated: 100% sampling is a debugging posture, not a production one.
#
# Alloc mode locks the explicit-buffer-ownership refactor in place
# (DESIGN.md §9-§10): the minimum-ns run of BenchmarkLookup64ClientsV2
# must stay at or under BENCH_MAX_ALLOCS allocs/op (default 1: the
# returned entry's NAs slice) and BENCH_MAX_BYTES B/op (default 64),
# and BenchmarkLookupInto64ClientsV2 — the caller-supplied entry buffer
# path — at or under BENCH_MAX_ALLOCS_INTO (default 0) and
# BENCH_MAX_BYTES_INTO (default 16). Any regression — a pool bypassed,
# a buffer escaping, a closure sneaking back into the demux path —
# fails CI the day it lands.
#
# Recover mode measures crash recovery: BenchmarkWALReplay (cold-start
# replay of BENCH_RECOVER_ENTRIES WAL records, default 50k; the
# entries/s metric is recorded as recover.replay_entries_per_s) and
# BenchmarkRecoverTimeToServe (durable Open + listener start + first
# answered lookup). Informational — both rows land in BENCH_<date>.json
# for longitudinal tracking.
#
# Soak mode drives BENCH_SOAK_CONNS (default 1024) concurrent
# multiplexed connections against one node (BenchmarkLookupSoakConns)
# and records the result; it is informational, not a gate — its job is
# flushing pool races and fd/goroutine leaks at a connection count the
# other modes never reach.
#
# Load mode runs TestLoadSweepCI (load_ci_test.go): an open-loop Poisson
# sweep through internal/load against real admission-limited TCP nodes.
# The test gates overload behavior itself — a throughput knee must
# exist, deep-overload goodput must hold >=40% of knee goodput, the
# servers must shed (not queue unboundedly) and the Zipf key skew must
# reach the hot-GUID trackers — and emits one LOADRECORD line per sweep
# point plus the detected knee and the deep-overload point. This mode
# harvests those lines into BENCH_<date>.json, where cmd/benchcheck
# validates the extended record schema. Worker count can be tuned with
# BENCH_LOAD_WORKERS (default 32).
#
# Heal mode runs TestHealSweepCI (heal_ci_test.go): a simulated
# partition-heal sweep through internal/experiments. The test gates the
# anti-entropy story itself — the partition must create measurable
# divergence, every gossip interval must converge and repair entries,
# and convergence time must be monotone in the interval — and emits one
# HEALRECORD line per sweep cell. This mode harvests those lines into
# BENCH_<date>.json, where cmd/benchcheck validates the heal record
# schema. Scale can be tuned with BENCH_HEAL_AS (default 120) and
# BENCH_HEAL_GUIDS (default 40).
#
# Fleet mode runs TestFleetTelemetryCI (fleet_ci_test.go): the full
# telemetry plane — metric collector, runtime bridge, black-box SLO
# prober — against a live 3-node cluster under foreground load. The
# test gates the plane's cost itself: foreground latency must stay
# within BENCH_FLEET_TOLERANCE_PCT (default 5%) of the idle loop, the
# single-op allocation budgets must hold with telemetry attached, and
# a healthy cluster must probe clean (no failures, no SLO burn). It
# emits one FLEETRECORD line that this mode harvests into
# BENCH_<date>.json, where cmd/benchcheck validates the fleet record
# schema.
#
# Validate mode builds cmd/benchcheck and parses every BENCH_*.json in
# the repository root, failing on any malformed record file. Every
# record-writing mode also validates the file it just wrote.
#
# Each benchmark runs -count times; the minimum ns/op is compared (the
# minimum is the least noisy location statistic for benchmarks).
set -eu

cd "$(dirname "$0")/.."

mode="${1:-micro}"
tolerance="${BENCH_TOLERANCE_PCT:-5}"
count="${BENCH_COUNT:-5}"
benchtime="${BENCH_TIME:-300ms}"

run_bench() {
    # $1 = anchored benchmark regex
    go test -run '^$' -bench "$1" -benchmem -count="$count" -benchtime="$benchtime" .
}

# min_ns <name> <file>: minimum ns/op over all runs of one benchmark.
min_ns() {
    awk -v name="$1" '
        $1 ~ "^"name"(-[0-9]+)?$" { if (min == "" || $3 < min) min = $3 }
        END { if (min == "") { exit 1 }; print min }
    ' "$2"
}

# min_bytes / min_allocs <name> <file>: B/op and allocs/op of the
# minimum-ns/op run of one benchmark (the run the gates compare).
min_bytes() {
    awk -v name="$1" -v want="B/op" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            if (min == "" || $3 < min) {
                min = $3; v = "null"
                for (i = 4; i <= NF; i++) if ($i == want) v = $(i-1)
            }
        }
        END { if (min == "") { exit 1 }; print v }
    ' "$2"
}
min_allocs() {
    awk -v name="$1" -v want="allocs/op" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            if (min == "" || $3 < min) {
                min = $3; v = "null"
                for (i = 4; i <= NF; i++) if ($i == want) v = $(i-1)
            }
        }
        END { if (min == "") { exit 1 }; print v }
    ' "$2"
}

# min_metric <name> <unit> <file>: a custom b.ReportMetric column (e.g.
# entries/s) from the minimum-ns/op run of one benchmark.
min_metric() {
    awk -v name="$1" -v want="$2" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            if (min == "" || $3 < min) {
                min = $3; v = "null"
                for (i = 4; i <= NF; i++) if ($i == want) v = $(i-1)
            }
        }
        END { if (min == "") { exit 1 }; print v }
    ' "$3"
}

# bench_record <date> <name> <file>: one JSON record line for the
# minimum-ns run of a benchmark (no trailing comma or newline).
bench_record() {
    printf '  {"date": "%s", "name": "%s", "ns_per_op": %s, "bytes_per_op": %s, "allocs_per_op": %s}' \
        "$1" "$2" "$(min_ns "$2" "$3")" "$(min_bytes "$2" "$3")" "$(min_allocs "$2" "$3")"
}

# append_records <file> <records>: add JSON rows to today's record set,
# creating the file if it does not exist. The existing array is rebuilt
# by dropping everything from the closing bracket on (not just the last
# line, which silently corrupted files whose final line was not a lone
# "]"), and the result is validated before it replaces the original —
# a malformed emit fails loudly instead of poisoning the record file.
append_records() {
    tmp=$(mktemp)
    if [ -s "$1" ]; then
        awk '/^\]/{exit} {print}' "$1" > "$tmp"
        printf ",\n%s\n]\n" "$2" >> "$tmp"
    else
        printf "[\n%s\n]\n" "$2" > "$tmp"
    fi
    if ! go run ./cmd/benchcheck "$tmp" > /dev/null; then
        echo "FAIL: refusing to write malformed records to $1" >&2
        rm -f "$tmp"
        exit 1
    fi
    mv "$tmp" "$1"
}

case "$mode" in
micro)
    date_tag=$(date +%Y%m%d)
    out="BENCH_${date_tag}.json"
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    run_bench 'BenchmarkHashGUID|BenchmarkLPMLookup|BenchmarkNearestPrefix|BenchmarkPlaceReplica|BenchmarkStorePutGet|BenchmarkWireEntryRoundTrip|BenchmarkPercentile|BenchmarkMetrics' \
        | tee "$raw"
    records=$(awk -v date="$date_tag" '
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns = $3; bytes = "null"; allocs = "null"
            for (i = 4; i <= NF; i++) {
                if ($i == "B/op") bytes = $(i-1)
                if ($i == "allocs/op") allocs = $(i-1)
            }
            if (seen++) printf ",\n"
            printf "  {\"date\": \"%s\", \"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
                date, name, ns, bytes, allocs
        }
    ' "$raw")
    append_records "$out" "$records"
    echo "wrote $out"
    ;;

smoke)
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    run_bench '^(BenchmarkStorePutGet|BenchmarkStorePutGetInstrumented|BenchmarkMetricsRequestOverhead|BenchmarkTCPLookup|BenchmarkWireEntryRoundTrip|BenchmarkWireEntryRoundTripInstrumented)$' \
        | tee "$raw"

    store_base=$(min_ns BenchmarkStorePutGet "$raw")
    store_inst=$(min_ns BenchmarkStorePutGetInstrumented "$raw")
    req_over=$(min_ns BenchmarkMetricsRequestOverhead "$raw")
    tcp=$(min_ns BenchmarkTCPLookup "$raw")
    wire_base=$(min_ns BenchmarkWireEntryRoundTrip "$raw")
    wire_inst=$(min_ns BenchmarkWireEntryRoundTripInstrumented "$raw")

    awk -v base="$store_base" -v inst="$store_inst" -v tol="$tolerance" '
        BEGIN {
            pct = (inst - base) / base * 100
            printf "store path: %.1f ns -> %.1f ns (%+.2f%%, budget %s%%)\n", base, inst, pct, tol
            exit (pct > tol) ? 1 : 0
        }' || { echo "FAIL: store instrumentation over budget" >&2; exit 1; }

    awk -v over="$req_over" -v tcp="$tcp" -v tol="$tolerance" '
        BEGIN {
            pct = over / tcp * 100
            printf "wire path: %.1f ns overhead on a %.1f ns served round trip (%.2f%%, budget %s%%)\n", over, tcp, pct, tol
            exit (pct > tol) ? 1 : 0
        }' || { echo "FAIL: wire-path instrumentation over budget" >&2; exit 1; }

    # The codec pair is gated on its ABSOLUTE delta against a served
    # round trip: relative to a ~100 ns encode/decode the clock reads
    # look enormous, but no request ever consists of a bare codec call.
    awk -v base="$wire_base" -v inst="$wire_inst" -v tcp="$tcp" -v tol="$tolerance" '
        BEGIN {
            delta = inst - base
            pct = delta / tcp * 100
            printf "codec pair: %.1f ns -> %.1f ns (+%.1f ns, %.2f%% of a served round trip, budget %s%%)\n", \
                base, inst, delta, pct, tol
            exit (pct > tol) ? 1 : 0
        }' || { echo "FAIL: instrumented codec delta over budget" >&2; exit 1; }

    echo "metrics overhead within budget"
    ;;

trace)
    date_tag=$(date +%Y%m%d)
    out="BENCH_${date_tag}.json"
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    run_bench '^(BenchmarkTCPLookup|BenchmarkRequestTraceOff|BenchmarkRequestTraceOn)$' \
        | tee "$raw"

    base=$(min_ns BenchmarkTCPLookup "$raw")
    off=$(min_ns BenchmarkRequestTraceOff "$raw")
    on=$(min_ns BenchmarkRequestTraceOn "$raw")
    base_allocs=$(min_allocs BenchmarkTCPLookup "$raw")
    off_allocs=$(min_allocs BenchmarkRequestTraceOff "$raw")

    records=$(
        bench_record "$date_tag" BenchmarkTCPLookup "$raw"; printf ',\n'
        bench_record "$date_tag" BenchmarkRequestTraceOff "$raw"; printf ',\n'
        bench_record "$date_tag" BenchmarkRequestTraceOn "$raw")
    append_records "$out" "$records"
    echo "wrote $out"

    awk -v base="$base" -v off="$off" -v tol="$tolerance" '
        BEGIN {
            pct = (off - base) / base * 100
            printf "tracing off: %.1f ns -> %.1f ns (%+.2f%%, budget %s%%)\n", base, off, pct, tol
            exit (pct > tol) ? 1 : 0
        }' || { echo "FAIL: tracing-off request path over budget" >&2; exit 1; }

    if [ "$off_allocs" != "$base_allocs" ]; then
        echo "FAIL: tracing-off path allocates ($off_allocs allocs/op, baseline $base_allocs)" >&2
        exit 1
    fi

    awk -v off="$off" -v on="$on" '
        BEGIN { printf "tracing on (100%% sampled): %.1f ns -> %.1f ns (%+.2f%%, informational)\n", off, on, (on - off) / off * 100 }'
    echo "tracing-off request path within budget"
    ;;

alloc)
    max_allocs="${BENCH_MAX_ALLOCS:-1}"
    max_bytes="${BENCH_MAX_BYTES:-64}"
    max_allocs_into="${BENCH_MAX_ALLOCS_INTO:-0}"
    max_bytes_into="${BENCH_MAX_BYTES_INTO:-16}"
    date_tag=$(date +%Y%m%d)
    out="BENCH_${date_tag}.json"
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    run_bench '^(BenchmarkLookup64ClientsV2|BenchmarkLookupInto64ClientsV2|BenchmarkTCPLookup)$' | tee "$raw"

    v2_allocs=$(min_allocs BenchmarkLookup64ClientsV2 "$raw")
    v2_bytes=$(min_bytes BenchmarkLookup64ClientsV2 "$raw")
    into_allocs=$(min_allocs BenchmarkLookupInto64ClientsV2 "$raw")
    into_bytes=$(min_bytes BenchmarkLookupInto64ClientsV2 "$raw")

    records=$(
        bench_record "$date_tag" BenchmarkLookup64ClientsV2 "$raw"; printf ',\n'
        bench_record "$date_tag" BenchmarkLookupInto64ClientsV2 "$raw"; printf ',\n'
        bench_record "$date_tag" BenchmarkTCPLookup "$raw")
    append_records "$out" "$records"
    echo "wrote $out"

    echo "single-op v2 lookup: ${v2_allocs} allocs/op (budget ${max_allocs}), ${v2_bytes} B/op (budget ${max_bytes})"
    echo "LookupInto v2 lookup: ${into_allocs} allocs/op (budget ${max_allocs_into}), ${into_bytes} B/op (budget ${max_bytes_into})"
    if [ "$v2_allocs" = "null" ] || [ "$v2_bytes" = "null" ] || [ "$into_allocs" = "null" ] || [ "$into_bytes" = "null" ]; then
        echo "FAIL: could not extract allocation figures" >&2
        exit 1
    fi
    if [ "$v2_allocs" -gt "$max_allocs" ]; then
        echo "FAIL: single-op path allocates $v2_allocs/op, budget $max_allocs (a pool was bypassed or a buffer escaped)" >&2
        exit 1
    fi
    if [ "$v2_bytes" -gt "$max_bytes" ]; then
        echo "FAIL: single-op path allocates $v2_bytes B/op, budget $max_bytes" >&2
        exit 1
    fi
    if [ "$into_allocs" -gt "$max_allocs_into" ]; then
        echo "FAIL: LookupInto path allocates $into_allocs/op, budget $max_allocs_into (the caller-supplied buffer is being bypassed)" >&2
        exit 1
    fi
    if [ "$into_bytes" -gt "$max_bytes_into" ]; then
        echo "FAIL: LookupInto path allocates $into_bytes B/op, budget $max_bytes_into" >&2
        exit 1
    fi
    echo "single-op allocation budgets held"
    ;;

recover)
    date_tag=$(date +%Y%m%d)
    out="BENCH_${date_tag}.json"
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    # Recovery iterations are whole Open cycles (tens of ms each):
    # -benchtime=5x keeps the mode fast while still taking a minimum.
    BENCH_RECOVER_ENTRIES="${BENCH_RECOVER_ENTRIES:-50000}" \
        go test -run '^$' -bench '^(BenchmarkWALReplay|BenchmarkRecoverTimeToServe)$' \
        -benchmem -count="$count" -benchtime="${BENCH_RECOVER_TIME:-5x}" . | tee "$raw"

    replay_rate=$(min_metric BenchmarkWALReplay entries/s "$raw")
    serve_ns=$(min_ns BenchmarkRecoverTimeToServe "$raw")

    records=$(
        bench_record "$date_tag" BenchmarkWALReplay "$raw"; printf ',\n'
        bench_record "$date_tag" BenchmarkRecoverTimeToServe "$raw"; printf ',\n'
        printf '  {"date": "%s", "name": "recover.replay_entries_per_s", "ns_per_op": %s, "bytes_per_op": 0, "allocs_per_op": 0}' \
            "$date_tag" "$replay_rate")
    append_records "$out" "$records"
    echo "wrote $out"

    awk -v rate="$replay_rate" -v serve="$serve_ns" 'BEGIN {
        printf "WAL replay: %.0f entries/s; restart time-to-serve: %.1f ms\n", rate, serve / 1e6
    }'
    ;;

soak)
    conns="${BENCH_SOAK_CONNS:-1024}"
    date_tag=$(date +%Y%m%d)
    out="BENCH_${date_tag}.json"
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    BENCH_SOAK=1 BENCH_SOAK_CONNS="$conns" \
        go test -run '^$' -bench '^BenchmarkLookupSoakConns$' -benchmem \
        -benchtime="${BENCH_TIME:-2s}" . | tee "$raw"

    records=$(bench_record "$date_tag" BenchmarkLookupSoakConns "$raw")
    append_records "$out" "$records"
    echo "wrote $out"
    echo "soaked $conns concurrent connections"
    ;;

load)
    date_tag=$(date +%Y%m%d)
    out="BENCH_${date_tag}.json"
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    BENCH_LOAD=1 BENCH_DATE="$date_tag" \
        go test -run '^TestLoadSweepCI$' -v -timeout 10m . | tee "$raw"

    records=$(awk '/^LOADRECORD / { sub(/^LOADRECORD /, ""); if (seen++) printf ",\n"; printf "  %s", $0 }' "$raw")
    if [ -z "$records" ]; then
        echo "FAIL: load sweep emitted no LOADRECORD lines" >&2
        exit 1
    fi
    append_records "$out" "$records"
    echo "wrote $out"
    echo "overload sweep passed: knee detected, shedding engaged, goodput held"
    ;;

heal)
    date_tag=$(date +%Y%m%d)
    out="BENCH_${date_tag}.json"
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    BENCH_HEAL=1 BENCH_DATE="$date_tag" \
        go test -run '^TestHealSweepCI$' -v -timeout 10m . | tee "$raw"

    records=$(awk '/^HEALRECORD / { sub(/^HEALRECORD /, ""); if (seen++) printf ",\n"; printf "  %s", $0 }' "$raw")
    if [ -z "$records" ]; then
        echo "FAIL: heal sweep emitted no HEALRECORD lines" >&2
        exit 1
    fi
    append_records "$out" "$records"
    echo "wrote $out"
    echo "partition-heal sweep passed: divergence measured, every interval converged"
    ;;

fleet)
    date_tag=$(date +%Y%m%d)
    out="BENCH_${date_tag}.json"
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    BENCH_FLEET=1 BENCH_DATE="$date_tag" \
        go test -run '^TestFleetTelemetryCI$' -v -timeout 10m . | tee "$raw"

    records=$(awk '/^FLEETRECORD / { sub(/^FLEETRECORD /, ""); if (seen++) printf ",\n"; printf "  %s", $0 }' "$raw")
    if [ -z "$records" ]; then
        echo "FAIL: fleet gate emitted no FLEETRECORD lines" >&2
        exit 1
    fi
    append_records "$out" "$records"
    echo "wrote $out"
    echo "fleet telemetry gate passed: scrape overhead within budget, probes clean"
    ;;

validate)
    go run ./cmd/benchcheck
    ;;

*)
    echo "usage: $0 [micro|smoke|trace|alloc|recover|soak|load|heal|fleet|validate]" >&2
    exit 2
    ;;
esac
