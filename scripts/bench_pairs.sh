#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree: the
# measurement a claimed gain rests on (choosing-metrics guide, section 8).
#
#   scripts/bench_pairs.sh <parent-ref> <workload>[,<workload>...]|all [pairs=10] [seed=1]
#
# Unpacks <parent-ref> (git archive) under .bench_build/ — once, for every
# workload named, so the parent is built once — then, workload by
# workload, runs `bash bench/run.sh --workload W --seed S --trace 0` in the
# two trees in turn, <pairs> times, swapping which side goes first every pair.
# Prints one table per workload: for each end-to-end metric of BENCHMARK.json,
# both sides' median and quartiles, the ratio of the medians and how many
# pairs the working tree won (ties count for neither side). `all` is every
# workload of BENCHMARK.json: the no-regression half of a claim in one call.
# Run length is BENCHMARK.json's run_seconds on both sides. Everything written
# — the parent tree, each tree's build cache, the result lines — stays under
# .bench_build/; the parent tree is removed on exit.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi
ref=$1 workloads=$2 pairs=${3:-10} seed=${4:-1}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$ref^{commit}")"
out="$root/.bench_build/pairs"
parent="$root/.bench_build/parent-${sha:0:12}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
if [ "$workloads" = all ]; then
  workloads="$(grep -o '{"name": *"[a-z_]*", *"why"' "$root/BENCHMARK.json" | sed 's/{"name": *"\([a-z_]*\)".*/\1/' | paste -sd, -)"
fi
rm -rf "$parent"
mkdir -p "$out" "$parent"
rm -f "$out"/{parent,change}.log
trap 'rm -rf "$parent"' EXIT
git -C "$root" archive "$sha" | tar -x -C "$parent"

# run <side> <tree>: one benchmark run of $workload; its result line goes to
# <side>.$workload.jsonl.
run() {
  bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    2>>"$out/$1.log" | tail -n 1 >>"$out/$1.$workload.jsonl"
}

# value <file> <metric>: the metric's reading in every run, one per line.
value() {
  grep -o "\"$2\":{\"value\":[^,}]*" "$1" | sed 's/.*://'
}

# summary: median and quartiles of the numbers on stdin, by linear
# interpolation between order statistics; the median again as a second field.
summary() {
  sort -g | awk '
    function quantile(p,    h, lo) {
      h = (NR - 1) * p + 1; lo = int(h)
      return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    { v[NR] = $1 }
    END { if (NR) printf "%.5g [%.5g – %.5g]\t%.6g\n", quantile(0.5), quantile(0.25), quantile(0.75), quantile(0.5) }'
}

for workload in ${workloads//,/ }; do
  rm -f "$out"/{parent,change}."$workload".jsonl
  for i in $(seq "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$parent"; run change "$root"
    else
      run change "$root"; run parent "$parent"
    fi
    echo "$workload: pair $i/$pairs done" >&2
  done
  echo "workload=$workload seed=$seed seconds=$seconds pairs=$pairs parent=${sha:0:12}"
  for side in parent change; do
    if grep -qv '"correct":true,.*"failed":0,' "$out/$side.$workload.jsonl"; then
      echo "WARNING: $side has runs with failed statements; see $out/$side.$workload.jsonl"
    fi
  done
  printf '%-28s %-7s %32s %32s %7s %6s\n' metric better 'parent median [q1 – q3]' 'change median [q1 – q3]' ratio won
  grep -o '{"name": *"[a-z0-9_]*", *"unit": *"[^"]*", *"better": *"[a-z]*", *"bound"' "$root/BENCHMARK.json" |
    sed 's/{"name": *"\([a-z0-9_]*\)".*"better": *"\([a-z]*\)".*/\1 \2/' |
    while read -r metric better; do
      IFS=$'\t' read -r ptext pmed < <(value "$out/parent.$workload.jsonl" "$metric" | summary)
      IFS=$'\t' read -r ctext cmed < <(value "$out/change.$workload.jsonl" "$metric" | summary)
      won="$(paste <(value "$out/parent.$workload.jsonl" "$metric") <(value "$out/change.$workload.jsonl" "$metric") |
        awk -v better="$better" '(better == "higher" ? $2 > $1 : $2 < $1) { won++ } END { print won + 0 }')"
      ratio="$(awk -v p="$pmed" -v c="$cmed" 'BEGIN { if (p != 0) printf "%.2fx", c / p; else print "-" }')"
      printf '%-28s %-7s %32s %32s %7s %3d/%d\n' "$metric" "$better" "$ptext" "$ctext" "$ratio" "$won" "$pairs"
    done
done
