#!/usr/bin/env bash
# A/B comparison of minos-benchmark between a base revision and the
# working tree.
#
#   scripts/ab.sh <base-rev> <workload> <pairs> [seed] [sets]
#
# Builds the benchmark twice, each into its own CARGO_TARGET_DIR: once
# from <base-rev> (exported with `git archive` into a temporary
# directory) and once from the working tree. Then runs <sets> sets
# (default 1) of <pairs> pairs of fresh processes at disjoint seeds: pair
# i of set s (from 0) runs at seed <seed>+s*<pairs>+i (default seed 1).
# Each pair alternates the two binaries run by run and which one goes
# first, each run for BENCHMARK.json's run_seconds. For every set and
# every end-to-end metric it prints each side's q1 / median / q3, the
# change's median as a share of the base's, and in how many pairs the
# change was strictly better (by the metric's "better" direction). With
# more than one set it ends with one line per metric: each set's median
# ratio and win count, and whether the sets agree in sign (every ratio
# on the same side of 1). Exits nonzero when a run fails its checks.
#
# The builds and the base export live in $AB_WORK when it is set, and are
# kept there, so a second comparison rebuilds incrementally; otherwise in
# a temporary directory that is removed on exit.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
    echo "usage: $0 <base-rev> <workload> <pairs> [seed] [sets]" >&2
    exit 2
fi
base_rev=$1 workload=$2 pairs=$3 seed=${4:-1} sets=${5:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base_commit=$(git rev-parse --verify "$base_rev^{commit}")

if [[ -n "${AB_WORK:-}" ]]; then
    work=$AB_WORK
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi

manifest=crates/bench/src/bin/minos-benchmark/Cargo.toml
rm -rf "$work/base-src"
mkdir -p "$work/base-src"
git archive "$base_commit" | tar -x -C "$work/base-src"
echo "==> building base $base_commit" >&2
CARGO_TARGET_DIR="$work/base-target" cargo build --release --offline --quiet \
    --manifest-path "$work/base-src/$manifest"
echo "==> building the working tree" >&2
CARGO_TARGET_DIR="$work/change-target" cargo build --release --offline --quiet \
    --manifest-path "$manifest"

python3 - "$workload" "$pairs" "$seed" "$sets" \
    "$work/base-target/release/minos-benchmark" \
    "$work/change-target/release/minos-benchmark" <<'EOF'
import json, statistics, subprocess, sys

workload, pairs, seed, sets = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
binaries = {"base": sys.argv[5], "change": sys.argv[6]}
bench = json.load(open("BENCHMARK.json"))
if workload not in [w["name"] for w in bench["workloads"]]:
    sys.exit(f"unknown workload {workload}")
if pairs < 2:
    sys.exit("need at least two pairs")
if sets < 1:
    sys.exit("need at least one set")

failed = False


def run_set(first_seed):
    """Runs one set of alternated pairs from `first_seed`; returns each
    side's metrics of the complete pairs."""
    global failed
    runs = {"base": [], "change": []}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {}
        for side in order:
            cmd = [binaries[side], "--workload", workload, "--seed", str(first_seed + i),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failed = True
                print(f"pair {i} {side} seed {first_seed + i}: failed (exit {proc.returncode})\n"
                      f"{proc.stderr}", file=sys.stderr)
                continue
            pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"pair {i} {side} seed {first_seed + i}: ok", file=sys.stderr)
        if len(pair) == 2:
            for side in runs:
                runs[side].append(pair[side])
    return runs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(q):
    return " / ".join(f"{v:.6g}" for v in q)


# Per metric, each set's (median ratio, wins, complete pairs).
summary = {m["name"]: [] for m in bench["end_to_end"]}
for s in range(sets):
    first = seed + s * pairs
    runs = run_set(first)
    if len(runs["base"]) < 2:
        sys.exit(f"set {s + 1}: fewer than two complete pairs")
    print(f"{workload}, set {s + 1} of {sets}, seeds {first}-{first + pairs - 1}, "
          f"{len(runs['base'])} complete pairs (q1 / median / q3)")
    print(f"{'metric':<19} {'base':>34} {'change':>34} {'ratio':>7} {'change better':>13}")
    for m in bench["end_to_end"]:
        name = m["name"]
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        qb, qc = quartiles(base), quartiles(change)
        ratio = qc[1] / qb[1] if qb[1] else float("nan")
        lower = m["better"] == "lower"
        wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
        summary[name].append((ratio, wins, len(base)))
        print(f"{name:<19} {fmt(qb):>34} {fmt(qc):>34} {ratio:>7.4f} {wins:>9}/{len(base)}")

if sets > 1:
    print(f"{workload}, {sets} sets: each set's median ratio and change wins")
    for name, per_set in summary.items():
        cells = "  ".join(f"{r:.4f} {w}/{n}" for r, w, n in per_set)
        sides = {(r > 1) - (r < 1) for r, _, _ in per_set}
        verdict = "agree" if len(sides) == 1 else "disagree"
        print(f"{name:<19} {cells}  sets {verdict} in sign")
sys.exit(1 if failed else 0)
EOF
