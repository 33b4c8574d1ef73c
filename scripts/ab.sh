#!/usr/bin/env bash
# A/B judge: alternating pairs of benchmark runs of two revisions, and per
# workload and end-to-end metric whether HEAD's gain over BASE is a claim.
# Run from anywhere inside the repository:
#
#   scripts/ab.sh [--smoke] [--touched KIND[,KIND]] BASE HEAD [pairs, default 10] [workload ...]
#
# Each revision is checked out into a `git worktree` of its own and its
# benchmark built there, with a target directory of its own. Pair i runs
# both revisions on seed i, base first in odd pairs and head first in even
# ones, every workload in turn (default: all of BENCHMARK.json's), at its
# `run_seconds`; `--smoke` is passed to the harness.
# The last stdout line of each run is its JSON result.
#
# Prints one markdown table on stdout. Ratio: the median over pairs of
# head / base, oriented so that > 1 is better. Won: pairs in which head is
# strictly better. p: two-sided sign test over the pairs that differ.
# IQR/median: distance between the quartiles of a side's runs as a share
# of their median. Claim: at least 9 in 10 pairs won, the gap between the
# medians in head's favour (as a share of base's median) larger than
# base's IQR/median, and no more failed operations or incorrect runs on
# head than on base in that workload. `rel_items.<kind>` is the kind's items/s
# over a mean of kinds' items/s in the same run, which takes out the drift
# both sides share: by default the mean of all five kinds; with `--touched`,
# of the kinds not named, so that a gain of a touched kind does not read as
# a fall of the untouched ones.
#
# Worktrees and builds go to AB_WORK (default: a fresh temporary directory,
# removed at exit); the raw results are kept under target/ab/.
set -euo pipefail

# The whole script is one block, which bash reads before it runs any of
# it: a checkout that changes this file mid-run does not change the run.
{
usage() {
  echo "usage: scripts/ab.sh [--smoke] [--touched KIND[,KIND]] BASE HEAD [pairs] [workload ...]" >&2
  exit 2
}

harness=()
touched=""
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) harness+=(--smoke); shift ;;
    --touched) [ $# -ge 2 ] || usage; touched="$2"; shift 2 ;;
    -*) usage ;;
    *) break ;;
  esac
done
[ $# -ge 2 ] || usage

repo=$(git rev-parse --show-toplevel)
base=$(git -C "$repo" rev-parse --verify "$1^{commit}")
head=$(git -C "$repo" rev-parse --verify "$2^{commit}")
pairs="${3:-10}"
shift $(($# < 3 ? $# : 3))
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac

spec="$repo/BENCHMARK.json"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
python3 - "$spec" "$touched" <<'CHECK' || usage
import json, sys
kinds = [m["name"].split(".", 1)[1] for m in json.load(open(sys.argv[1]))["end_to_end"]
         if m["name"].startswith("items_per_s.")]
touched = [k for k in sys.argv[2].split(",") if k]
unknown = [k for k in touched if k not in kinds]
if unknown or len(set(touched)) == len(kinds):
    sys.exit(f"--touched: {','.join(unknown) or 'every kind'} (kinds: {', '.join(kinds)})")
CHECK
if [ $# -gt 0 ]; then
  workloads="$*"
else
  workloads=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
fi

aa_nproc=$(sed -n 's/^`nproc` = \([0-9]*\).*/\1/p' "$repo/benchmark/AA.md" | head -n 1)
if [ -n "$aa_nproc" ] && [ "$aa_nproc" != "$(nproc)" ]; then
  echo "warning: nproc is $(nproc) here, $aa_nproc in benchmark/AA.md: its spreads do not apply" >&2
fi

if [ -n "${AB_WORK:-}" ]; then
  work="$AB_WORK"
  mkdir -p "$work"
else
  work=$(mktemp -d)
fi
cleanup() {
  for side in base head; do
    if [ -d "$work/$side" ]; then
      git -C "$repo" worktree remove --force "$work/$side" || true
    fi
  done
  git -C "$repo" worktree prune
  [ -n "${AB_WORK:-}" ] || rm -rf "$work"
}
trap cleanup EXIT

for side in base head; do
  rev=$([ "$side" = base ] && echo "$base" || echo "$head")
  git -C "$repo" worktree add --detach "$work/$side" "$rev" >&2
  echo "building $side ($rev)" >&2
  cargo build --release --offline --quiet \
    --manifest-path "$work/$side/benchmark/Cargo.toml" --target-dir "$work/target-$side"
done

mkdir -p "$repo/target/ab"
runs="$repo/target/ab/${base:0:10}-${head:0:10}.jsonl"
: > "$runs"
for i in $(seq 1 "$pairs"); do
  order=$([ $((i % 2)) -eq 1 ] && echo "base head" || echo "head base")
  for w in $workloads; do
    for side in $order; do
      echo "pair $i/$pairs: $w on $side" >&2
      line=$(cd "$work/$side" && "$work/target-$side/release/benchmark" run --workload "$w" \
        --seed "$i" --seconds "$seconds" --trace 0 ${harness[@]+"${harness[@]}"} | tail -n 1)
      echo "{\"side\": \"$side\", \"pair\": $i, \"workload\": \"$w\", \"result\": $line}" >> "$runs"
    done
  done
done
echo "raw results: $runs" >&2

python3 - "$spec" "$runs" "$base" "$head" "$pairs" "$seconds" "$touched" <<'EOF'
import json, math, os, statistics, sys

spec_path, runs_path, base, head, pairs, seconds, touched = sys.argv[1:]
spec = json.load(open(spec_path))
pairs = int(pairs)
kinds = [m["name"].split(".", 1)[1] for m in spec["end_to_end"] if m["name"].startswith("items_per_s.")]
touched = [k for k in touched.split(",") if k]
# The kinds whose mean items/s is rel_items' denominator.
reference = [k for k in kinds if k not in touched]

# results[(workload, side)][pair] = the run's JSON result
results = {}
for line in open(runs_path):
    row = json.loads(line)
    results.setdefault((row["workload"], row["side"]), {})[row["pair"]] = row["result"]

def values(workload, side, name):
    runs = results[(workload, side)]
    out = []
    for i in range(1, pairs + 1):
        m = runs[i]["metrics"]
        if name.startswith("rel_items."):
            items = [m[f"items_per_s.{k}"]["value"] for k in reference]
            out.append(m[f"items_per_s.{name[len('rel_items.'):]}"]["value"] / statistics.mean(items))
        else:
            out.append(m[name]["value"])
    return out

def iqr_frac(vs):
    if len(vs) < 2 or statistics.median(vs) == 0:
        return math.nan
    q = statistics.quantiles(vs, n=4)
    return (q[2] - q[0]) / statistics.median(vs)

def sign_p(wins, losses):
    n, k = wins + losses, min(wins, losses)
    if n == 0:
        return 1.0
    return min(1.0, 2 * sum(math.comb(n, j) for j in range(k + 1)) / 2 ** n)

def ratio(b, h, higher):
    if b == h:
        return 1.0
    if (h if higher else b) == 0:
        return 0.0
    if (b if higher else h) == 0:
        return math.inf
    return h / b if higher else b / h

need = math.ceil(0.9 * pairs)
metrics = [(m["name"], m["better"] == "higher") for m in spec["end_to_end"]]
metrics += [(f"rel_items.{k}", True) for k in kinds]

print(f"A/B: base `{base[:10]}`, head `{head[:10]}`; {pairs} pairs, `run_seconds` = {seconds}, "
      f"`nproc` = {os.cpu_count()}. Ratio > 1 is better; claim = won ≥ {need}/{pairs} "
      "and median gap > base IQR/median, with no more failures than base. "
      f"`rel_items` divides by the mean of {', '.join(reference)}.\n")
print("| workload | metric | base median | head median | ratio | won | sign p | base IQR/median | head IQR/median | claim |")
print("|---|---|---|---|---|---|---|---|---|---|")
notes = []
for w in dict.fromkeys(w for (w, _) in results):
    # (failed operations, incorrect runs) per side
    faults = {}
    for side in ("base", "head"):
        runs = results[(w, side)].values()
        faults[side] = (sum(r["failed"] for r in runs), sum(not r["correct"] for r in runs))
        if any(faults[side]):
            notes.append(f"{w} on {side}: {faults[side][0]} failed operations, "
                         f"{faults[side][1]} runs not correct")
    worse = any(h > b for b, h in zip(faults["base"], faults["head"]))
    for name, higher in metrics:
        b, h = values(w, "base", name), values(w, "head", name)
        ratios = [ratio(x, y, higher) for x, y in zip(b, h)]
        wins = sum(r > 1 for r in ratios)
        losses = sum(r < 1 for r in ratios)
        mb, mh = statistics.median(b), statistics.median(h)
        gap = ((mh - mb) if higher else (mb - mh)) / mb if mb else math.nan
        spread = iqr_frac(b)
        claim = wins >= need and gap > spread and not worse
        print(f"| {w} | {name} | {mb:.6g} | {mh:.6g} | {statistics.median(ratios):.3f} | "
              f"{wins}/{pairs} | {sign_p(wins, losses):.3g} | {spread:.3f} | "
              f"{iqr_frac(h):.3f} | {'yes' if claim else 'no'} |")
print()
print("\n".join(notes) if notes else "Every run was correct and failed no operation.")
EOF
exit
}
