#!/usr/bin/env bash
# A/B the repository benchmark: a base revision against the working tree.
#
#   scripts/bench_ab.sh <base-rev> <workload> <pairs> [seconds]
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
# lower (every end-to-end metric there is lower-is-better). Runs whose
# result line is not `"correct": true` are reported, and the script
# exits 1 if any was.
#
# SEED defaults to 20050614 and <seconds> to 1. The worktrees and their
# build directories are removed on exit; raw result lines stay in
# $OUT (default: a fresh directory under the temporary directory, kept).
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <base-rev> <workload> <pairs> [seconds]" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=$3
seconds=${4:-1}
seed=${SEED:-20050614}
case $pairs in
    '' | *[!0-9]*) echo "pairs must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
[ "$pairs" -ge 1 ] || { echo "pairs must be at least 1" >&2; exit 2; }

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
    local side=$1 pair=$2 line
    # The benchmark reads its inputs relative to the checkout's root.
    line=$(cd "$tmp/$side" && "$tmp/target-$side/release/rl-benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    echo "$line" > "$out/$side-$pair.json"
    case $line in
        *'"correct": true'*) ;;
        *) echo "pair $pair, $side: not correct: $line" >&2; incorrect=1 ;;
    esac
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        echo "pair $pair/$pairs: $side" >&2
        run "$side" "$pair"
    done
done

echo "base $(git rev-parse --short "$base") vs working tree, $workload, seed $seed, --seconds $seconds, $pairs pairs"
python3 - "$out" "$pairs" $metrics <<'EOF'
import json, statistics, sys

out, pairs, names = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
def read(side, pair):
    with open(f"{out}/{side}-{pair}.json") as f:
        return json.load(f)["metrics"]
runs = {s: [read(s, p) for p in range(1, pairs + 1)] for s in ("base", "head")}
def summary(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return f"{min(v):.6g} [{q[0]:.6g} {q[1]:.6g} {q[2]:.6g}] {max(v):.6g}"
print("per side: min [q1 median q3] max; change of the medians; pairs where the tree read lower")
for name in names:
    b = [r[name]["value"] for r in runs["base"]]
    h = [r[name]["value"] for r in runs["head"]]
    mb, mh = statistics.median(b), statistics.median(h)
    change = (mh - mb) / mb * 100 if mb else float("nan")
    lower = sum(y < x for x, y in zip(b, h))
    print(f"{name}\n  base {summary(b)}\n  tree {summary(h)}\n  change {change:+.1f}%, lower in {lower}/{pairs}")
EOF
echo "result lines: $out" >&2
exit "$incorrect"
