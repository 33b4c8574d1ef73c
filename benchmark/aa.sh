#!/usr/bin/env bash
# A/A check: two alternating sets of full runs of the same commit. Prints,
# per workload and end-to-end metric, the gap between the medians of the two
# sets and the spread inside each set, next to the bound BENCHMARK.json
# fixes. Run from the repository root:
#
#   benchmark/aa.sh [runs per set, default 10] > benchmark/AA.md
#
# Run i of either set uses seed i, so a set's spread includes the difference
# between instances, as the driver's does.
set -euo pipefail

runs="${1:-10}"
out=benchmark/out/aa
mkdir -p "$out"
rm -f "$out"/set_*.jsonl

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for i in $(seq 1 "$runs"); do
  for set in a b; do
    for w in $workloads; do
      cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
        | tail -n 1 | sed "s/^/{\"workload\": \"$w\", \"result\": /; s/\$/}/" >> "$out/set_$set.jsonl"
    done
  done
done

python3 - "$out" "$runs" <<'EOF'
import json, os, statistics, sys

out, runs = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
nproc = os.cpu_count()

def load(path):
    table = {}
    for line in open(path):
        row = json.loads(line)
        assert row["result"]["correct"], row
        for name, m in row["result"]["metrics"].items():
            table.setdefault((row["workload"], name), []).append(m["value"])
    return table

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

a, b = load(f"{out}/set_a.jsonl"), load(f"{out}/set_b.jsonl")
print(f"# A/A: two alternating sets of {runs} runs of one commit\n")
print(f"`nproc` = {nproc}, `run_seconds` = {spec['run_seconds']}. Gap: how much worse the "
      "median of set B is than that of set A, as a share of A's (negative = better). "
      "Spread: distance between the quartiles of a set's runs, as a share of their median. "
      "Within: the gap and both spreads are inside the bound. The driver leaves `setup_s` "
      "out of its spread check; this table does not.\n")
print("| workload | metric | median A | median B | gap | spread A | spread B | bound | within |")
print("|---|---|---|---|---|---|---|---|---|")
worst = 0.0
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        key = (w["name"], m["name"])
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a[key]), spread(b[key])
        ok = gap <= m["bound"] and max(sa, sb) <= m["bound"]
        worst = max(worst, max(sa, sb) / m["bound"])
        print(f"| {w['name']} | {m['name']} | {ma:.6g} | {mb:.6g} | {gap:+.4f} | "
              f"{sa:.4f} | {sb:.4f} | {m['bound']} | {'yes' if ok else 'NO'} |")
print(f"\nLargest spread as a share of its bound: {worst:.2f}")
EOF
