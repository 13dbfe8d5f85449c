#!/usr/bin/env bash
# Same-machine A/B of the survey benchmark: a reference commit against the
# working tree.
#
#   tools/ab.sh <ref> [--pairs N] [--seconds S] [--seed0 K] [--work DIR]
#                     [--out FILE]
#
# Both sides are built offline, each with its own target directory: <ref>
# from a `git archive` export under DIR (nothing is registered in .git),
# the working tree as it stands, uncommitted edits included. Then N pairs
# alternate the two sides on every BENCHMARK.json workload, running the
# BENCHMARK.json command with `--seconds S --trace 0`. Pair i uses seed
# K+i-1 on both sides; the reference runs first on odd pairs, the working
# tree first on even ones. Finally each side makes one traced run per
# workload (seed 7, `--seconds S --trace 1`), which gives the per-layer
# breakdown and checks, workload by workload, that the machine-independent
# work counts (every per-layer metric whose unit is `count`) are equal.
#
# Printed, per workload and end-to-end metric: both medians, both q1-q3
# ranges, how many pairs the working tree won and each side's largest
# fail_frac (failed / attempted inputs); then, per workload, the traced
# layers of both sides. The same numbers, the per-run raw values and the
# traced comparisons (`traced`, keyed by workload) go to one JSON summary
# (FILE, default DIR/ab-summary.json).
#
# Defaults: N = 10, S = BENCHMARK.json's run_seconds, K = 1001,
# DIR = ${TMPDIR:-/tmp}/unicert-ab. Run from anywhere inside the
# repository; needs git, cargo, jq and python3.
set -euo pipefail

usage() {
    sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'
    exit "${1:-2}"
}

[ $# -ge 1 ] || usage 2
case "$1" in -h | --help) usage 0 ;; esac
ref=$1
shift
pairs=10
seconds=
seed0=1001
work="${TMPDIR:-/tmp}/unicert-ab"
out=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "error: $1 needs a value" >&2; usage 2; }
    case "$1" in
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --seed0) seed0=$2 ;;
        --work) work=$2 ;;
        --out) out=$2 ;;
        *) echo "error: unknown flag $1" >&2; usage 2 ;;
    esac
    shift 2
done
for n in "$pairs" "$seed0"; do
    [[ "$n" =~ ^[0-9]+$ ]] || { echo "error: $n is not a non-negative integer" >&2; exit 2; }
done

root=$(git rev-parse --show-toplevel)
bench="$root/BENCHMARK.json"
[ -n "$seconds" ] || seconds=$(jq -r '.run_seconds' "$bench")
[[ "$seconds" =~ ^[0-9]+$ ]] || { echo "error: --seconds $seconds is not an integer" >&2; exit 2; }
[ -n "$out" ] || out="$work/ab-summary.json"
ref_commit=$(git -C "$root" rev-parse --verify "$ref^{commit}")
mapfile -t command < <(jq -r '.command[]' "$bench")
mapfile -t workloads < <(jq -r '.workloads[].name' "$bench")

mkdir -p "$work/runs"
rm -rf "$work/ref" "$work/runs"/*
mkdir -p "$work/ref"
# `tar -m` stamps the files now, so cargo never mistakes them for older
# than a previous build in the same target directory.
git -C "$root" archive "$ref_commit" | tar -x -m -C "$work/ref"

tree_of() { if [ "$1" = ref ]; then echo "$work/ref"; else echo "$root"; fi; }

# Run the benchmark command for side $1 with the remaining arguments; the
# result line goes to $2.
run_side() {
    local side=$1 result=$2
    shift 2
    local tree
    tree=$(tree_of "$side")
    (cd "$tree" && CARGO_TARGET_DIR="$work/target-$side" "${command[@]}" "$@") \
        > "$result.out" 2> "$result.err" || true
    tail -n 1 "$result.out" > "$result"
}

for side in ref work; do
    echo "# building $side ($(tree_of "$side"))" >&2
    (cd "$(tree_of "$side")" && CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --offline --quiet --manifest-path unibench/Cargo.toml)
done

for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then order="ref work"; else order="work ref"; fi
    for w in "${workloads[@]}"; do
        for side in $order; do
            echo "# pair $i/$pairs $w seed $seed $side" >&2
            run_side "$side" "$work/runs/$i-$w-$side.json" \
                --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0
        done
    done
done

for w in "${workloads[@]}"; do
    for side in ref work; do
        echo "# traced $w seed 7 $side" >&2
        run_side "$side" "$work/runs/traced-$w-$side.json" \
            --workload "$w" --seed 7 --seconds "$seconds" --trace 1
    done
done

python3 - "$bench" "$work/runs" "$pairs" "$seed0" "$seconds" "$ref_commit" "$out" <<'PY'
import json, os, statistics, sys

bench_path, runs, pairs, seed0, seconds, ref_commit, out = sys.argv[1:]
pairs, seed0, seconds = int(pairs), int(seed0), int(seconds)
bench = json.load(open(bench_path))


def load(path):
    try:
        return json.loads(open(path).read())
    except (OSError, ValueError):
        return None


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (None, None)
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


summary = {
    "ref": ref_commit,
    "pairs": pairs,
    "seeds": [seed0, seed0 + pairs - 1],
    "seconds": seconds,
    "workloads": {},
}
for w in (x["name"] for x in bench["workloads"]):
    per_side = {}
    for side in ("ref", "work"):
        per_side[side] = [load(os.path.join(runs, f"{i}-{w}-{side}.json")) for i in range(1, pairs + 1)]
    entry = {"runs": {}, "metrics": {}}
    for side, results in per_side.items():
        fails = [
            (r["failed"] / r["attempted"]) if r and r.get("attempted") else 1.0
            for r in results
        ]
        entry["runs"][side] = {
            "correct": sum(1 for r in results if r and r.get("correct")),
            "fail_frac_max": max(fails),
        }
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        vals = {
            side: [r["metrics"][name]["value"] if r and name in r.get("metrics", {}) else None for r in results]
            for side, results in per_side.items()
        }
        both = [(a, b) for a, b in zip(vals["ref"], vals["work"]) if a is not None and b is not None]
        wins = sum(1 for a, b in both if (b < a if lower else b > a))
        stats = {}
        for side in ("ref", "work"):
            xs = [v for v in vals[side] if v is not None]
            q1, q3 = quartiles(xs)
            stats[side] = {"median": statistics.median(xs) if xs else None, "q1": q1, "q3": q3, "values": vals[side]}
        rm, wm = stats["ref"]["median"], stats["work"]["median"]
        change = (wm - rm) / rm if rm else None
        gap = abs(wm - rm) if rm is not None and wm is not None else None
        spread = (stats["ref"]["q3"] - stats["ref"]["q1"]) if stats["ref"]["q1"] is not None else None
        entry["metrics"][name] = {
            **stats,
            "change": change,
            "bound": m["bound"],
            "wins": wins,
            "pairs": len(both),
            "gap_exceeds_ref_iqr": gap is not None and spread is not None and gap > spread,
        }
    summary["workloads"][w] = entry

counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
summary["traced"] = {}
for w in summary["workloads"]:
    traced = {side: load(os.path.join(runs, f"traced-{w}-{side}.json")) for side in ("ref", "work")}
    layers = {}
    for m in bench["per_layer"]:
        row = {}
        for side, r in traced.items():
            row[side] = r["metrics"][m["name"]]["value"] if r and m["name"] in r.get("metrics", {}) else None
        layers[m["name"]] = row
    unequal = [n for n in counts if layers[n]["ref"] != layers[n]["work"]]
    summary["traced"][w] = {"seed": 7, "seconds": seconds, "work_counts_equal": not unequal,
                            "unequal_counts": unequal, "layers": layers}

with open(out, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")


def fmt(x):
    return "-" if x is None else (f"{x:.4g}" if abs(x) < 100 else f"{x:.0f}")


print(f"A/B {ref_commit[:12]} (ref) vs working tree: {pairs} pairs, seeds {seed0}-{seed0 + pairs - 1}, {seconds} s")
for w, entry in summary["workloads"].items():
    runs_ = entry["runs"]
    print(f"\n{w}: correct runs ref {runs_['ref']['correct']}/{pairs}, work {runs_['work']['correct']}/{pairs}; "
          f"fail_frac max ref {runs_['ref']['fail_frac_max']:.4g}, work {runs_['work']['fail_frac_max']:.4g}")
    print(f"  {'metric':18} {'ref median':>11} {'ref q1-q3':>19} {'work median':>11} {'work q1-q3':>19} {'change':>8} {'wins':>6}  gap>ref IQR")
    for name, s in entry["metrics"].items():
        change = "-" if s["change"] is None else f"{100 * s['change']:+.1f}%"
        print(f"  {name:18} {fmt(s['ref']['median']):>11} {fmt(s['ref']['q1']) + '-' + fmt(s['ref']['q3']):>19} "
              f"{fmt(s['work']['median']):>11} {fmt(s['work']['q1']) + '-' + fmt(s['work']['q3']):>19} "
              f"{change:>8} {s['wins']:>3}/{s['pairs']:<2}  {'yes' if s['gap_exceeds_ref_iqr'] else 'no'}")
for w, t in summary["traced"].items():
    print(f"\ntraced {w} seed 7: work counts {'equal' if t['work_counts_equal'] else 'DIFFER: ' + ', '.join(t['unequal_counts'])}")
    print(f"  {'layer':40} {'ref':>12} {'work':>12}")
    for name, row in t["layers"].items():
        print(f"  {name:40} {fmt(row['ref']):>12} {fmt(row['work']):>12}")
print(f"\nsummary: {out}")
PY
