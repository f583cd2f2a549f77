#!/usr/bin/env bash
# A/B the repository benchmark: a base revision against the working tree.
#
#   [TRACE=1] scripts/bench_ab.sh <base-rev> <workload> <pairs> [seconds]
#
# Checks out <base-rev> and the working tree (HEAD plus uncommitted
# changes to tracked files, through `git stash create`; untracked files
# are not carried) as two git worktrees under a temporary directory,
# builds `rl-benchmark` in each, and runs
#
#   rl-benchmark --workload <workload> --seed $SEED --seconds <seconds> --trace 0
#
# <pairs> times on each side, the side that runs first alternating from
# pair to pair. Then it prints, for every end-to-end metric in
# BENCHMARK.json, each side's range, quartiles and median, the relative
# change of the medians, and in how many pairs the working tree read
# lower (every end-to-end metric there is lower-is-better). After that
# table it prints the same statistics for every per-family line an
# untraced run prints before its result line (`metric solve_s.<family>`
# and `metric error_m.<family>`, both lower-is-better), so a change can
# show the family it moved without a traced run. Runs whose result line
# is not `"correct": true` are reported, and the script exits 1 if any
# was.
#
# With TRACE=1, each pair also makes one traced run (`--trace 1`) per
# side, in the same alternating order, and a second table follows: for
# every per-layer metric in BENCHMARK.json, each side's median and range
# over the traced runs, the relative change of the medians, and in how
# many pairs the working tree read better (lower or higher, as the
# metric's `better` says). A traced run makes the serve trace whatever
# the workload, so traced runs need <seconds> of at least 20: in shorter
# windows the feed pushes fewer than the 1,000 ticks
# `server.wait_p99_ms.tick` needs and the run ends without a result, so
# the script refuses them.
#
# SEED defaults to 20050614 and <seconds> to 1. The worktrees and their
# build directories are removed on exit; each run's full stdout
# (<side>-<pair>.txt, traced <side>-<pair>-trace.txt) and result line
# (the same names ending in .json) stay in $OUT (default: a fresh
# directory under the temporary directory, kept).
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: [TRACE=1] $0 <base-rev> <workload> <pairs> [seconds]" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=$3
seconds=${4:-1}
seed=${SEED:-20050614}
trace=${TRACE:-0}
case $pairs in
    '' | *[!0-9]*) echo "pairs must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
[ "$pairs" -ge 1 ] || { echo "pairs must be at least 1" >&2; exit 2; }
case $trace in
    0 | 1) ;;
    *) echo "TRACE must be 0 or 1, got '$trace'" >&2; exit 2 ;;
esac
if [ "$trace" = 1 ] && awk "BEGIN { exit !($seconds < 20) }"; then
    echo "traced runs need seconds >= 20, got $seconds" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify "$base_rev^{commit}")
head=$(git stash create)
head=${head:-$(git rev-parse HEAD)}
metrics=$(python3 -c 'import json, sys; print(" ".join(m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]))' BENCHMARK.json)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
out=${OUT:-$tmp/results}
mkdir -p "$out"
cleanup() {
    for side in base head; do
        git -C "$root" worktree remove --force "$tmp/$side" 2>/dev/null || true
    done
    git -C "$root" worktree prune
    rm -rf "$tmp/base" "$tmp/head" "$tmp/target-base" "$tmp/target-head"
}
trap cleanup EXIT

for side in base head; do
    rev=$base
    [ "$side" = head ] && rev=$head
    git worktree add --quiet --detach "$tmp/$side" "$rev"
    echo "building $side ($(git rev-parse --short "$rev"))" >&2
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --quiet --release --offline --locked \
        --manifest-path "$tmp/$side/benchmark/Cargo.toml"
done

incorrect=0
run() {
    local side=$1 pair=$2 traced=$3 name=$1-$2 line
    [ "$traced" = 1 ] && name=$name-trace
    # The benchmark reads its inputs relative to the checkout's root.
    (cd "$tmp/$side" && "$tmp/target-$side/release/rl-benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$traced") \
        > "$out/$name.txt"
    line=$(tail -n 1 "$out/$name.txt")
    echo "$line" > "$out/$name.json"
    case $line in
        *'"correct": true'*) ;;
        *) echo "$name: not correct: $line" >&2; incorrect=1 ;;
    esac
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for traced in $(seq 0 "$trace"); do
        for side in $order; do
            echo "pair $pair/$pairs: $side$([ "$traced" = 1 ] && echo ", traced")" >&2
            run "$side" "$pair" "$traced"
        done
    done
done

echo "base $(git rev-parse --short "$base") vs working tree, $workload, seed $seed, --seconds $seconds, $pairs pairs"
python3 - "$out" "$pairs" "$trace" $metrics <<'EOF'
import json, statistics, sys

out, pairs, trace, names = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:]
sides = ("base", "head")
def read(side, pair):
    with open(f"{out}/{side}-{pair}.json") as f:
        metrics = {k: m["value"] for k, m in json.load(f)["metrics"].items()}
    # Per-family lines: `metric <name> <value> <unit> n=<samples>`.
    with open(f"{out}/{side}-{pair}.txt") as f:
        for line in f:
            fields = line.split()
            if len(fields) >= 3 and fields[0] == "metric" and fields[1].startswith(("solve_s.", "error_m.")):
                metrics[fields[1]] = float(fields[2])
    return metrics
runs = {s: [read(s, p) for p in range(1, pairs + 1)] for s in sides}
def summary(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return f"{min(v):.6g} [{q[0]:.6g} {q[1]:.6g} {q[2]:.6g}] {max(v):.6g}"
def compare(name):
    b = [r[name] for r in runs["base"]]
    h = [r[name] for r in runs["head"]]
    mb, mh = statistics.median(b), statistics.median(h)
    change = (mh - mb) / mb * 100 if mb else float("nan")
    lower = sum(y < x for x, y in zip(b, h))
    print(f"{name}\n  base {summary(b)}\n  tree {summary(h)}\n  change {change:+.1f}%, lower in {lower}/{pairs}")
print("per side: min [q1 median q3] max; change of the medians; pairs where the tree read lower")
for name in names:
    compare(name)
families = [k for k in runs["base"][0] if k not in names and all(k in r for s in sides for r in runs[s])]
if families:
    print("per-family lines")
    for name in families:
        compare(name)
if trace:
    with open("BENCHMARK.json") as f:
        layers = [(m["name"], m["better"]) for m in json.load(f)["per_layer"]]
    traced = {}
    for s in sides:
        traced[s] = []
        for p in range(1, pairs + 1):
            with open(f"{out}/{s}-{p}-trace.json") as f:
                traced[s].append({k: m["value"] for k, m in json.load(f)["metrics"].items()})
    print("per-layer metrics, traced runs: per side median [min, max]; change of the medians;"
          " pairs where the tree read better")
    for name, better in layers:
        b = [r[name] for r in traced["base"]]
        h = [r[name] for r in traced["head"]]
        mb, mh = statistics.median(b), statistics.median(h)
        change = (mh - mb) / abs(mb) * 100 if mb else float("nan")
        won = sum((y < x) if better == "lower" else (y > x) for x, y in zip(b, h))
        print(f"{name} ({better} is better)\n  base {mb:.6g} [{min(b):.6g}, {max(b):.6g}]"
              f"\n  tree {mh:.6g} [{min(h):.6g}, {max(h):.6g}]\n  change {change:+.1f}%, better in {won}/{pairs}")
EOF
echo "result lines: $out" >&2
exit "$incorrect"
