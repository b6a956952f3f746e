#!/usr/bin/env bash
# Repeatability check for minos-benchmark.
#
#   repeat.sh <workload|all> <runs> <seed>
#
# Runs the benchmark command from BENCHMARK.json as fresh processes: two
# sets of <runs> runs per workload, seeds <seed> .. <seed>+<runs>-1, with
# the sets and the workloads alternating run by run. For every end-to-end
# metric it prints each set's median and quartiles, the spread (distance
# between the quartiles as a share of the median) and the drift (how much
# worse the second set's median is than the first's, as a share). A metric
# is flagged when a spread (setup_s excepted) or the drift exceeds its
# bound in BENCHMARK.json. Exits nonzero when a run fails its checks or a
# metric is flagged.
set -euo pipefail

if [[ $# -ne 3 ]]; then
    echo "usage: $0 <workload|all> <runs> <seed>" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../../../../.." && pwd)"
cd "$root"

python3 - "$1" "$2" "$3" <<'EOF'
import json, statistics, subprocess, sys

which, runs, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
bench = json.load(open("BENCHMARK.json"))
names = [w["name"] for w in bench["workloads"]]
if which != "all" and which not in names:
    sys.exit(f"unknown workload {which}; one of {', '.join(names)} or all")
workloads = names if which == "all" else [which]
if runs < 2:
    sys.exit("need at least two runs per set")

results = {}  # (workload, set) -> list of metric dicts
failed = False
for i in range(runs):
    for s in ("a", "b"):
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed + i),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failed = True
                print(f"run {s}{i} {w} seed {seed + i}: failed (exit {proc.returncode})\n{proc.stderr}",
                      file=sys.stderr)
                continue
            results.setdefault((w, s), []).append(
                {k: v["value"] for k, v in result["metrics"].items()})
            print(f"run {s}{i} {w} seed {seed + i}: ok", file=sys.stderr)

def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

flagged = False
print(f"{'workload':<11} {'metric':<19} {'median_a':>12} {'q1_a':>12} {'q3_a':>12} "
      f"{'spread_a':>8} {'median_b':>12} {'spread_b':>8} {'drift':>7} {'bound':>7}")
for w in workloads:
    a, b = results.get((w, "a"), []), results.get((w, "b"), [])
    if len(a) < 2 or len(b) < 2:
        continue
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va, vb = [r[name] for r in a], [r[name] for r in b]
        (q1a, meda, q3a), (q1b, medb, q3b) = quartiles(va), quartiles(vb)
        spread_a = (q3a - q1a) / meda if meda else 0.0
        spread_b = (q3b - q1b) / medb if medb else 0.0
        worse = (medb - meda) if m["better"] == "lower" else (meda - medb)
        drift = worse / meda if meda else 0.0
        over = drift > bound or (name != "setup_s" and max(spread_a, spread_b) > bound)
        flagged |= over
        print(f"{w:<11} {name:<19} {meda:>12.6g} {q1a:>12.6g} {q3a:>12.6g} {spread_a:>8.4f} "
              f"{medb:>12.6g} {spread_b:>8.4f} {drift:>7.4f} {bound:>7.4f}{'  FLAG' if over else ''}")
sys.exit(1 if failed or flagged else 0)
EOF
