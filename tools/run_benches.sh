#!/usr/bin/env bash
# Runs every bench_* binary in a build directory and concatenates their JSON
# output into one stream (benches.json by default). Non-JSON bench output
# (the paper-figure text tables) goes to per-bench .log files; any line that
# is a JSON object is collected. Each bench also contributes a status record
# so failures are visible in the combined file.
#
# Usage: tools/run_benches.sh [build_dir] [out_file]
#   WF_FAST=1 is exported so the figure harnesses run in smoke mode; unset
#   it in the environment (WF_FAST=) for full-fidelity runs.
#
# Perf trajectory: each PR that touches the hot path commits a snapshot as
# BENCH_pr<N>.json at the repo root (tools/run_benches.sh build BENCH_prN.json)
# and checks it against the previous snapshot with
#   tools/bench_compare.py BENCH_pr<N-1>.json BENCH_pr<N>.json
# which exits non-zero when a gated micro record (one that prints
# "gate": true) regresses >10%.
set -u

BUILD_DIR="${1:-build}"
OUT_FILE="${2:-benches.json}"

if [ ! -d "$BUILD_DIR" ]; then
  echo "error: build dir '$BUILD_DIR' not found (run cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

: "${WF_FAST:=1}"
export WF_FAST

: > "$OUT_FILE"
failures=0

# The gating micro anchors (bench_micro_*) run first, while the machine is
# freshest: on burst-clocked containers the heavy figure harnesses drag the
# core into a throttled phase, which would bias exactly the records the
# >10% regression gate compares PR-over-PR. Figure benches are informational
# and can absorb the noise. (Two explicit glob groups — a single `ls glob1
# glob2` would re-sort everything alphabetically and lose the ordering.)
done_benches=""
for bench in "$BUILD_DIR"/bench_micro_* "$BUILD_DIR"/bench_*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  case " $done_benches " in *" $name "*) continue ;; esac
  done_benches="$done_benches $name"
  log="$BUILD_DIR/$name.log"
  echo "== $name" >&2
  if "$bench" > "$log" 2>&1; then
    status=ok
  else
    status=failed
    failures=$((failures + 1))
  fi
  # Collect JSON object lines; everything else stays in the log.
  grep -E '^\s*\{.*\}\s*$' "$log" >> "$OUT_FILE" || true
  echo "{\"bench_binary\": \"$name\", \"status\": \"$status\", \"log\": \"$log\"}" >> "$OUT_FILE"
done

echo "wrote $OUT_FILE ($(wc -l < "$OUT_FILE") records, $failures failed)" >&2
exit "$((failures > 0))"
