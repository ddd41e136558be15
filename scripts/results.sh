#!/bin/sh
# Regenerates results/: one line per file, carrying the flags that file is
# made with (EXPERIMENTS.md quotes these files). `results.sh` writes all
# of them, `results.sh <name>...` the named ones; `results.sh --check
# [<name>...]` writes none and diffs what it would have written against
# results/, exiting 1 on drift (scripts/check.sh runs it on two quick
# ones: a results/ file is only as current as the last run that compared
# it). Every output is deterministic per seed and byte-identical for
# every -workers value; progress goes to the terminal. Run it whenever a
# change is meant to move a figure — the hash family, the topology or
# prefix generators, an evaluation driver — and commit what it writes
# with the reason. Full scale (no -scale flag) is the paper's 26,424 ASs:
# fig4 takes about three minutes on two cores, fig5 three times that,
# everything else under a minute.
set -eu
cd "$(dirname "$0")/.."

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi
names=$#
only=" $* "
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/dmapsim" ./cmd/dmapsim

# run <experiment> [flags] writes results/<experiment>.txt, once the run
# has succeeded: an interrupted one leaves the old file. Under --check it
# compares instead.
ran=0
drift=0
run() {
    if [ "$names" -gt 0 ] && [ "${only#* $1 }" = "$only" ]; then
        return 0
    fi
    ran=$((ran + 1))
    echo "== results/$1.txt: dmapsim -experiment $*" >&2
    "$tmp/dmapsim" -experiment "$@" >"$tmp/out"
    if [ "$check" = 1 ]; then
        diff -u "results/$1.txt" "$tmp/out" || drift=1
    else
        mv "$tmp/out" "results/$1.txt"
    fi
}

mid="-scale 5000 -guids 20000"

run fig4 -cdf 20
run fig5
run fig6
run fig7
run overhead
run holes -guids 200000
run baselines $mid -lookups 100000
run ablation-selection $mid -lookups 200000
run ablation-local $mid -lookups 200000
run ablation-m -scale 5000 -guids 100000
run ablation-asnum $mid -lookups 200000
run ablation-k $mid -lookups 200000
run update -scale 5000 -guids 50000
run caching $mid -lookups 500000
run churnsim -scale 2000 -guids 2000 -lookups 20000
run queryload $mid -lookups 200000
run availability $mid -lookups 200000 -loss 0.01

if [ "$ran" -lt "$names" ]; then
    echo "results.sh: no such output among:$only" >&2
    exit 2
fi
exit "$drift"
