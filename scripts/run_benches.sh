#!/usr/bin/env bash
# Run every bench binary with --json telemetry into bench_out/ and
# validate each document against the quicksand-bench-v1 schema.
#
# Usage: scripts/run_benches.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  defaults to "build"
#   OUT_DIR    defaults to "bench_out"
#
# Pass QUICKSAND_BENCH_TRACE=1 to also write a .jsonl phase trace per bench.
# Pass QUICKSAND_BENCH_THREADS=<n> to forward --threads <n> to every bench
# (0 = hardware concurrency; output is byte-identical for any value — see
# docs/PERFORMANCE.md).
# Pass QUICKSAND_BENCH_FEED_BATCH=<n> to forward --feed-batch <n> to every
# bench: feed-driven benches run natively on the streaming data plane in
# n-record batches instead of the materialized adapters (0 or unset =
# materialized; output is byte-identical either way — docs/ARCHITECTURE.md).
# Pass QUICKSAND_BENCH_FORMAT=<text|qmrt> to forward --format to every
# bench: benches with a wire round trip serialize/parse their feed through
# the textual MRT codec or the binary QMRT codec (unset = text; outputs
# outside the reserved qmrt.* namespace are byte-identical either way —
# docs/ARCHITECTURE.md "Wire formats").
# Pass QUICKSAND_BENCH_PROFILE=1 to forward --profile to every bench: span
# aggregation, the per-stage flight recorder, and the RSS sampler come on,
# breakdown tables are printed, and the JSON grows "spans"/"stages"
# sections plus histogram quantiles (docs/OBSERVABILITY.md).
# micro_substrates runs with --benchmark_min_time=0.01 to keep the sweep
# fast; drop that override for real performance numbers.
# fault_sweep (picked up by the same glob) additionally writes
# fault_sweep.csv — the figure-level outputs under 0–10% injected faults
# (see docs/ROBUSTNESS.md).
# The heavy sweeps also accept --checkpoint/--resume for crash-safe runs;
# scripts/contracts.py exercises kill-mid-run + resume end to end
# (docs/ROBUSTNESS.md, "Crash safety & resume").

set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
out_dir=${2:-"$repo_root/bench_out"}
checker="$repo_root/scripts/check_bench_json.py"

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: $build_dir/bench not found — build first:" >&2
  echo "  cmake -B build -S $repo_root && cmake --build build -j" >&2
  exit 1
fi
build_dir=$(cd "$build_dir" && pwd)  # absolute: the loop below runs from $out_dir

mkdir -p "$out_dir"
cd "$out_dir"   # benches write auxiliary CSVs into their cwd

benches=()
for bin in "$build_dir"/bench/*; do
  # daemon_chaos speaks its own flags/JSON schema and has a dedicated
  # rows in scripts/contracts.py — skip it here.
  [[ "$(basename "$bin")" == "daemon_chaos" ]] && continue
  [[ -f "$bin" && -x "$bin" ]] && benches+=("$bin")
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "error: no bench binaries in $build_dir/bench" >&2
  exit 1
fi

json_files=()
for bin in "${benches[@]}"; do
  name=$(basename "$bin")
  json="$out_dir/$name.json"
  args=(--json "$json")
  if [[ "${QUICKSAND_BENCH_TRACE:-0}" == "1" ]]; then
    args+=(--trace "$out_dir/$name.jsonl")
  fi
  if [[ -n "${QUICKSAND_BENCH_THREADS:-}" ]]; then
    args+=(--threads "$QUICKSAND_BENCH_THREADS")
  fi
  if [[ -n "${QUICKSAND_BENCH_FEED_BATCH:-}" ]]; then
    args+=(--feed-batch "$QUICKSAND_BENCH_FEED_BATCH")
  fi
  if [[ -n "${QUICKSAND_BENCH_FORMAT:-}" ]]; then
    args+=(--format "$QUICKSAND_BENCH_FORMAT")
  fi
  if [[ "${QUICKSAND_BENCH_PROFILE:-0}" == "1" ]]; then
    args+=(--profile)
  fi
  if [[ "$name" == "micro_substrates" ]]; then
    args+=(--benchmark_min_time=0.01)
  fi
  echo "==> $name"
  "$bin" "${args[@]}" > "$out_dir/$name.log"
  json_files+=("$json")
done

echo
python3 "$checker" "${json_files[@]}"
echo
echo "All ${#json_files[@]} bench documents written to $out_dir and validated."
