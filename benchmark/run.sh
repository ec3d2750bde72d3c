#!/usr/bin/env bash
# Copyright 2026 The pkgstream Authors.
#
# One-command benchmark. Builds pkgbench and compare from this checkout into
# build-bench/ (configured on first use, incremental after), then runs:
#
#   benchmark/run.sh                       all three workloads, seed 1, 30 s each
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one workload; the last stdout line
#                                          is its JSON result
#   benchmark/run.sh --repeat=N            N rounds of all three workloads,
#                                          alternating the order and the seed
#                                          (1..N), then the median, quartiles
#                                          and spread of every metric
#   benchmark/run.sh --smoke               about 1% of the messages (CI hook)
#
# Every other flag goes to pkgbench unchanged. With --trace 1 the Chrome trace
# lands in build-bench/traces/<workload>.json. Exit status: 0 when
# every run passed its oracles, 1 otherwise (including a failed build, and,
# with --repeat, a run marked invalid), 2 on a usage error.

set -u

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/build-bench"
workloads=(wordcount wordcount-kg paced-20k)

repeat=0
workload=""
seed=1
trace=0
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --repeat=*) repeat="${1#*=}" ;;
    --repeat) repeat="${2:-}"; shift ;;
    --workload=*) workload="${1#*=}" ;;
    --workload) workload="${2:-}"; shift ;;
    --seed=*) seed="${1#*=}" ;;
    --seed) seed="${2:-}"; shift ;;
    --trace=*) trace="${1#*=}" ;;
    --trace) trace="${2:-}"; shift ;;
    *) pass+=("$1") ;;
  esac
  shift
done
if ! [[ "$repeat" =~ ^[0-9]+$ && "$seed" =~ ^[0-9]+$ &&
        "$trace" =~ ^[01]$ ]]; then
  echo "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S]" \
       "[--trace 0|1] [--repeat=N] [--smoke]" >&2
  exit 2
fi

# Build output goes to stderr: stdout carries only results.
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" >&2 ||
    { echo "pkgbench: configure failed" >&2; exit 1; }
fi
cmake --build "$build" -j "$(nproc)" --target pkgbench compare >&2 ||
  { echo "pkgbench: build failed" >&2; exit 1; }

# The ceiling keeps git from reading repositories above this checkout.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") \
         git -C "$root" rev-parse --short=12 HEAD 2>/dev/null) || commit=unknown

pkgbench_args() {  # workload seed
  args=(--workload "$1" --seed "$2" --trace "$trace" --commit "$commit"
        ${pass[@]+"${pass[@]}"})
  if [ "$trace" = 1 ]; then
    mkdir -p "$build/traces"
    # One file per workload, overwritten: a word-count trace is ~70 MB.
    args+=(--trace_out "$build/traces/$1.json")
  fi
}

if [ -n "$workload" ]; then
  pkgbench_args "$workload" "$seed"
  exec "$build/pkgbench" "${args[@]}"
fi

status=0
if [ "$repeat" -eq 0 ]; then
  for w in "${workloads[@]}"; do
    pkgbench_args "$w" "$seed"
    "$build/pkgbench" "${args[@]}" || status=1
  done
  exit $status
fi

mkdir -p "$build/results"
out="$build/results/$(date +%Y%m%d-%H%M%S).jsonl"
for ((r = 1; r <= repeat; r++)); do
  order=("${workloads[@]}")
  if ((r % 2 == 0)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
      order+=("${workloads[i]}")
    done
  fi
  for w in "${order[@]}"; do
    pkgbench_args "$w" "$((seed + r - 1))"
    "$build/pkgbench" "${args[@]}" --record "$out" > /dev/null || status=1
  done
done
"$build/compare" --summary="$out" --bench="$root/BENCHMARK.json" || status=1
echo "results: $out"
echo "compare two sets: $build/compare --base=A.jsonl --change=B.jsonl" \
     "--bench=$root/BENCHMARK.json"
exit $status
