#!/usr/bin/env bash
# Run the benchmark N times back to back on each of the four workloads,
# seeds 1..N, and print for each end-to-end metric its median, quartiles,
# max-min spread and the interquartile range as a share of the median,
# beside the metric's bound in BENCHMARK.json. The bounds are derived
# from this script's 10-run output.
#
#   benchmark/spread.sh 10
#
# Run from the repository root. Results go to benchmark/out/spread/.
set -euo pipefail

n=${1:?usage: benchmark/spread.sh N}
workloads=(paper scale flood faulty)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=benchmark/out/spread
mkdir -p "$out"

for w in "${workloads[@]}"; do
  : >"$out/$w.jsonl"
  for i in $(seq 1 "$n"); do
    python3 benchmark/run.py --workload "$w" --seed "$i" \
      --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$w.jsonl"
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
for w in workloads:
    rows = [json.loads(l) for l in open(f"{out}/{w}.jsonl")]
    fails = sum(r["failed"] for r in rows)
    print(f"\n{w}: {len(rows)} runs, {sum(r['attempted'] for r in rows)} scenarios, {fails} failed")
    print(f"{'metric':18} {'median':>14} {'q1':>14} {'q3':>14} {'max-min':>8} {'iqr':>7} {'bound':>6}")
    for name, bound in bounds.items():
        v = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        iqr = (q3 - q1) / med
        flag = "" if name == "setup_s" or iqr < bound / 3 else "  > bound/3"
        print(f"{name:18} {med:14.6g} {q1:14.6g} {q3:14.6g} {(max(v) - min(v)) / med:8.2%} "
              f"{iqr:7.2%} {bound:6.0%}{flag}")
EOF
