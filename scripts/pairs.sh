#!/usr/bin/env bash
# Paired benchmark runs of the working tree against an earlier revision:
#
#   scripts/pairs.sh <parent-rev> [--pairs N] [--workload W] [--trace 0|1]
#
# Extracts <parent-rev> into a temporary directory (git archive, so the
# repository's own .git is left alone), then runs pair i = 1..N as
#   bash bench/run.sh --workload W --seed i --seconds 22 --trace T
# once in each tree, alternating which side goes first. Both sides of a
# pair share the seed, so they run the same inputs. It prints, per
# end-to-end metric of BENCHMARK.json, each side's median [lower
# quartile, upper quartile], the change of the medians and "better in n
# of N" (pairs where the working tree's run beat its partner); with
# --trace 1, the per-layer metrics either side reported follow. A run
# that reads correct: false or has a failed operation is named on
# stderr and counted in the table's last line.
#
# Defaults: 10 pairs of lookup_single, untraced. The runs are sequential
# (the benchmark pins its cluster to CPUs of its own); each takes about
# 40 s. Needs git, bash and python3.
set -euo pipefail

usage() { echo "usage: $0 <parent-rev> [--pairs N] [--workload W] [--trace 0|1]" >&2; exit 2; }
[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10 workload=lookup_single trace=0
while [ $# -gt 0 ]; do
    case $1 in
    --pairs) pairs=$2 ;;
    --workload) workload=$2 ;;
    --trace) trace=$2 ;;
    *) usage ;;
    esac
    shift 2 || usage
done

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/runs"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"

# run <side> <tree> <seed>: one benchmark run, its result line kept.
run() {
    local out="$tmp/runs/$1.$3.json" log="$tmp/runs/$1.$3.log"
    if ! (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds 22 --trace "$trace") >"$log.out" 2>"$log"; then
        tail -n 20 "$log" >&2
        echo "pair $3 $1: the benchmark failed" >&2
        exit 1
    fi
    tail -n 1 "$log.out" >"$out"
    echo "pair $3 $1: $(cut -c 1-120 "$out")" >&2
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$tmp/parent" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run parent "$tmp/parent" "$i"
    fi
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$pairs" "$workload" "$rev" "$trace" <<'EOF'
import json, statistics, sys

bench, runs, n, workload, rev, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5], sys.argv[6]
spec = json.load(open(bench))
res = {side: [json.load(open(f"{runs}/{side}.{i}.json")) for i in range(1, n + 1)] for side in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[1], q[0], q[2]

def row(m):
    p = [r["metrics"].get(m["name"], {}).get("value", 0.0) for r in res["parent"]]
    c = [r["metrics"].get(m["name"], {}).get("value", 0.0) for r in res["change"]]
    if not any(p) and not any(c):
        return
    lower = m["better"] == "lower"
    better = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    (pm, pl, pu), (cm, cl, cu) = quartiles(p), quartiles(c)
    delta = f"{100 * (cm - pm) / pm:+.1f} %" if pm else "n/a"
    print(f"| {m['name']} ({m['unit']}) | {pm:.4g} [{pl:.4g}, {pu:.4g}] | {cm:.4g} [{cl:.4g}, {cu:.4g}] | {delta} | {better} of {n} |")

print(f"{workload}, {n} alternating pairs, parent {rev} against the working tree, trace {trace}\n")
print("| metric | parent median [q1, q3] | change median [q1, q3] | Δ median | change better |")
print("|---|---|---|---|---|")
for m in spec["end_to_end"]:
    row(m)
if trace != "0":
    for m in spec["per_layer"]:
        row(m)
for side, rs in res.items():
    bad = [i + 1 for i, r in enumerate(rs) if not r.get("correct") or r.get("failed", 0)]
    if bad:
        print(f"{side}: pairs {bad} read correct: false or failed ops", file=sys.stderr)
    print(f"\n{side}: {sum(1 for r in rs if r.get('correct'))} of {n} runs correct, {sum(r.get('failed', 0) for r in rs)} failed ops", end="")
print()
EOF
