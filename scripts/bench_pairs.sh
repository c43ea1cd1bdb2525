#!/usr/bin/env bash
# Paired before/after measurement of one benchmark workload.
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]
#   SEED=7 scripts/bench_pairs.sh HEAD~1 traffic_dense
#
# Checks <parent-ref> out as a git worktree under target/bench_pairs/ (kept
# for the next workload; `git worktree remove --force <dir>` drops it),
# builds both sides, then runs the BENCHMARK.json command on the parent
# and on this working tree <pairs> times, alternating which side goes
# first. For every end-to-end metric it prints each side's median and
# quartiles, how many pairs the change won, and a verdict: "gain" when
# at least nine tenths of the pairs were won (ties count for neither side)
# and the medians lie further apart than the parent's own interquartile
# range; otherwise whether the change's median stays within the bound
# BENCHMARK.json fixes for that metric. Each pair also shows both sides' run
# digest (the `digest <hex>` in the workload's note line, `-` when the
# workload prints none) and `same simulation: yes|no`, so a change that
# only makes the simulator faster shows, next to its gain, that it
# simulated the same thing. Exits 1 if any run reports failed operations.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { sed -n '2,6p' "$0" >&2; exit 2; }
parent_ref="$1"
workload="$2"
pairs="${3:-10}"
seed="${SEED:-1}"

# The command, run length and metric directions come from BENCHMARK.json.
read -r -a cmd <<< "$(sed -n 's/^ *"command": *\[\(.*\)\],*$/\1/p' BENCHMARK.json | tr -d '",')"
seconds="$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
metrics="$(sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' BENCHMARK.json)"
[ "${#cmd[@]}" -gt 0 ] && [ -n "$seconds" ] && [ -n "$metrics" ] \
  || { echo "bench_pairs: could not read BENCHMARK.json" >&2; exit 2; }
grep -q "\"name\": *\"$workload\"" BENCHMARK.json \
  || { echo "bench_pairs: unknown workload $workload" >&2; exit 2; }

sha="$(git rev-parse --short=12 "$parent_ref^{commit}")"
parent_dir="target/bench_pairs/$sha"
if [ ! -d "$parent_dir" ]; then
  mkdir -p target/bench_pairs
  git worktree add --detach "$parent_dir" "$sha" >&2
fi
echo "# parent $sha in $parent_dir, change = working tree; $workload, seed $seed, $seconds s, $pairs pairs" >&2
(cd "$parent_dir" && cargo build --release --offline --quiet -p envirotrack-benchmark)
cargo build --release --offline --quiet -p envirotrack-benchmark

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
failed=0

# run_side <parent|change> <dir>: one run; appends "<metric> <value>" lines.
run_side() {
  local log="$out/$1.last"
  (cd "$2" && "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) > "$log"
  if ! tail -n 1 "$log" | grep -q '"failed": 0[,}]'; then
    echo "bench_pairs: $1 run reported failed operations: $(tail -n 1 "$log")" >&2
    failed=1
  fi
  awk -v w="$workload" '$1 == "metric" && $2 == w { print $3, $4 }' "$log" >> "$out/$1.pair"
  sed -n "s/^# $workload: .* digest \([0-9a-f]*\).*/\1/p" "$log" > "$out/$1.digest"
}

for i in $(seq 1 "$pairs"); do
  : > "$out/parent.pair"; : > "$out/change.pair"
  if [ $((i % 2)) -eq 1 ]; then
    run_side parent "$parent_dir"; run_side change .
  else
    run_side change .; run_side parent "$parent_dir"
  fi
  # One line per metric and pair: <metric> <parent value> <change value>.
  paste -d ' ' "$out/parent.pair" "$out/change.pair" | awk '{ print $1, $2, $4 }' >> "$out/pairs"
  pdig="$(cat "$out/parent.digest")"; cdig="$(cat "$out/change.digest")"
  if [ -z "$pdig$cdig" ]; then same="n/a"; elif [ "$pdig" = "$cdig" ]; then same="yes"; else same="no"; fi
  echo "$same" >> "$out/same"
  echo "# pair $i/$pairs: $(paste -d ' ' "$out/parent.pair" "$out/change.pair" \
    | awk '{ printf "%s %s -> %s   ", $1, $2, $4 }')digest ${pdig:--} -> ${cdig:--}   same simulation: $same" >&2
done

while read -r metric better bound; do
  awk -v m="$metric" '$1 == m { print $2, $3 }' "$out/pairs" > "$out/m"
  cut -d ' ' -f 1 "$out/m" | sort -g > "$out/p.sorted"
  cut -d ' ' -f 2 "$out/m" | sort -g > "$out/c.sorted"
  # Quartiles by linear interpolation between order statistics.
  quart() { awk '{ v[NR] = $1 } END {
    for (k = 1; k <= 3; k++) { h = (NR - 1) * k / 4 + 1; lo = int(h);
      q[k] = v[lo] + (h - lo) * ((lo < NR ? v[lo + 1] : v[lo]) - v[lo]) }
    print q[1], q[2], q[3] }' "$1"; }
  read -r p1 p2 p3 <<< "$(quart "$out/p.sorted")"
  read -r c1 c2 c3 <<< "$(quart "$out/c.sorted")"
  awk -v m="$metric" -v w="$workload" -v better="$better" -v bound="$bound" \
      -v p1="$p1" -v p2="$p2" -v p3="$p3" -v c1="$c1" -v c2="$c2" -v c3="$c3" '
    { if ($1 == $2) ties++; else if ((better == "higher") == ($2 > $1)) wins++; n++ }
    END {
      iqr = p3 - p1; gap = (better == "higher") ? c2 - p2 : p2 - c2
      worse = (p2 != 0) ? -gap / p2 : 0
      verdict = (wins * 10 >= n * 9 && gap > iqr) ? "gain" \
              : (worse > bound) ? sprintf("REGRESSION beyond the %g%% bound", bound * 100) \
              : (p2 != 0 && iqr / p2 > bound) ? "unresolved, parent spread exceeds the bound" \
              : sprintf("within the %g%% bound", bound * 100)
      printf "%s %s (%s is better)\n", w, m, better
      printf "  parent  median %-12.6g quartiles [%.6g, %.6g]\n", p2, p1, p3
      printf "  change  median %-12.6g quartiles [%.6g, %.6g]\n", c2, c1, c3
      printf "  change won %d of %d pairs (%d ties); median %+.1f%% of parent; parent IQR %.6g: %s\n", \
        wins, n, ties, (p2 != 0 ? (c2 - p2) / p2 * 100 : 0), iqr, verdict
    }' "$out/m"
done <<< "$metrics"

echo "$workload same simulation: $(sort "$out/same" | uniq -c | awk '{ printf "%s%s in %d pairs", sep, $2, $1; sep = ", " }')"

exit "$failed"
