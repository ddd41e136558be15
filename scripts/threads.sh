#!/usr/bin/env bash
# Per-thread context switches, CPU ticks and syscalls of the benchmark
# driver and of each node while a workload's closed phase runs: how the
# sysmon wake-ups and P hand-offs of DESIGN.md §7 were counted, as a
# script beside scripts/nodeprof.sh.
#
#   scripts/threads.sh <workload> [window seconds, default 8] [seed, default 1]
#
# Runs an untraced `bash bench/run.sh --workload <workload> --seed <seed>
# --seconds 22 --trace 0` in the background. The run sets its cluster up
# three times (c0, c1, c2 under bench/out/<run>/) and serves the phases
# on the last; set-up and warm-up take about as long as the gap between
# the c1 and c2 directories appearing, so the window opens that long,
# plus three seconds, after c2's nodes are up — inside the 22 s closed
# phase. For every thread of the driver and of each node it prints the
# change over the window of voluntary and involuntary context switches
# (/proc/<pid>/task/<tid>/status), CPU ticks (utime + stime, stat) and
# read and write syscalls (syscr, syscw: io). A Go process's first
# thread runs main and the scheduler; the runtime starts sysmon next, so
# it is usually the second. The run is then stopped. Reads /proc only and
# changes nothing under bench/; the run's output stays in a temporary
# directory, whose name is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
wl=${1:?usage: scripts/threads.sh <workload> [window seconds] [seed]}
secs=${2:-8}
seed=${3:-1}
tmp=$(mktemp -d)
touch "$tmp/started"

bash bench/run.sh --workload "$wl" --seed "$seed" --seconds 22 --trace 0 >"$tmp/run.json" 2>"$tmp/run.err" &
run=$!
trap 'kill "$run" 2>/dev/null || true; wait "$run" 2>/dev/null || true' EXIT

# cluster prints the run's directory for set-up $1 once it exists.
cluster() {
    { find bench/out -mindepth 2 -maxdepth 2 -path "*-$wl-s$seed-t0-*/c$1" -newer "$tmp/started" 2>/dev/null || true; } | sort | tail -1
}

# waitfor polls the command $2... every 0.1 s for up to 600 s, until it
# prints something; $1 names what is awaited.
waitfor() {
    local what=$1 out
    shift
    for _ in $(seq 6000); do
        kill -0 "$run" 2>/dev/null || { echo "the run ended before $what; see $tmp/run.err" >&2; exit 1; }
        out=$("$@")
        [ -n "$out" ] && { echo "$out"; return; }
        sleep 0.1
    done
    echo "no $what in 600 s; see $tmp/run.err" >&2
    exit 1
}

# ready prints c2's directory once all three of its nodes are listening.
ready() {
    local dir
    dir=$(cluster 2)
    [ -n "$dir" ] || return 0
    [ "$(cat "$dir"/node-*.log 2>/dev/null | grep -c '^mapping node listening on ')" -ge 3 ] && echo "$dir"
    return 0
}

waitfor "its second set-up" cluster 1 >/dev/null
t1=$(date +%s.%N)
waitfor "its third set-up" cluster 2 >/dev/null
t2=$(date +%s.%N)
dir=$(waitfor "c2's nodes" ready)
lag=$(python3 -c "print(round($t2 - $t1 + 3, 1))")
echo "serving cluster up in $dir; the window opens in $lag s and lasts $secs s; files in $tmp" >&2
sleep "$lag"

# The driver is the run's own process (run.sh execs it), the nodes its
# children.
pids="$run $(pgrep -P "$run" | tr '\n' ' ')"
python3 - "$secs" $pids <<'EOF'
import os, sys, time

secs, pids = float(sys.argv[1]), [int(p) for p in sys.argv[2:]]

def fields(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None

def sample(pid):
    """tid -> (voluntary, involuntary, ticks, syscr, syscw) of pid's threads."""
    out = {}
    try:
        tids = sorted(int(t) for t in os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return out
    for tid in tids:
        base = f"/proc/{pid}/task/{tid}"
        status, stat, io = fields(base + "/status"), fields(base + "/stat"), fields(base + "/io")
        if status is None or stat is None or io is None:
            continue
        kv = dict(l.split(":", 1) for l in (status + io).splitlines() if ":" in l)
        st = stat[stat.rindex(")") + 2:].split()
        out[tid] = (int(kv["voluntary_ctxt_switches"]), int(kv["nonvoluntary_ctxt_switches"]),
                    int(st[11]) + int(st[12]), int(kv["syscr"]), int(kv["syscw"]))
    return out

names = {p: (fields(f"/proc/{p}/comm") or "?").strip() for p in pids}
args = {p: (fields(f"/proc/{p}/cmdline") or "").replace("\0", " ") for p in pids}
before = {p: sample(p) for p in pids}
time.sleep(secs)
after = {p: sample(p) for p in pids}

print(f"{secs:g} s window; per thread: voluntary and involuntary context switches, CPU ticks (1/100 s), read and write syscalls")
for i, p in enumerate(pids):
    role = "driver" if i == 0 else f"node (addr {args[p].split('-addr ')[1].split()[0]})" if "-addr " in args[p] else "child"
    print(f"\n{names[p]} pid {p}, {role}")
    print(f"  {'tid':>8} {'vol':>9} {'invol':>9} {'ticks':>6} {'syscr':>9} {'syscw':>9}")
    tot = [0] * 5
    for tid in sorted(set(before[p]) | set(after[p])):
        if tid not in after[p]:
            print(f"  {tid:>8} exited in the window")
            continue
        d = [a - b for a, b in zip(after[p][tid], before[p].get(tid, (0,) * 5))]
        tot = [t + x for t, x in zip(tot, d)]
        new = "" if tid in before[p] else "  (new)"
        print(f"  {tid:>8} {d[0]:>9} {d[1]:>9} {d[2]:>6} {d[3]:>9} {d[4]:>9}{new}")
    print(f"  {'all':>8} {tot[0]:>9} {tot[1]:>9} {tot[2]:>6} {tot[3]:>9} {tot[4]:>9}")
EOF
