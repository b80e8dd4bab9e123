#!/usr/bin/env bash
# Performance gate for the planned inference engine, the batched MQ
# produce path and the versioned LSM's read tail. Builds Release, proves
# bit-exactness first (the parity suite is the contract that makes the
# perf numbers meaningful), then runs each bench in --json mode. Each bench
# writes its own file into the build directory, and every gate reads an
# absolute number of the real code from one of them.
#
# Exits non-zero when the build or the parity suite fails, when a bench
# exits non-zero (the MQ exactly-once audit; the read storm's wrong-read
# count and ingest floor) or writes a file that does not parse, or when a
# gate fails:
#   BENCH_fig5.json   planned local exit at least 2x faster than eager, and
#                     at most 6 heap allocations per planned call;
#   BENCH_mq.json     batch-256 produce at 8 partitions at least
#                     5M records/s (about 10x the single-record rate);
#   BENCH_store.json  read p99 under 25 ms at the fixed 60k reads/s, and
#                     the achieved read rate at least 0.95 of that target.
# BENCH_fig7.json is written and parsed but not gated.
#
# Usage: scripts/check_perf.sh [build-dir]   (default: build-perf)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build-perf}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> build: Release (${PREFIX})"
cmake -B "${PREFIX}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${PREFIX}" -j "${JOBS}" --target \
  inference_parity_test bench_fig5_earlyexit_detect bench_fig7_behavior \
  bench_mq_failover bench_store_readstorm

echo "==> parity: planned inference must be bit-exact with eager"
ctest --test-dir "${PREFIX}" --output-on-failure -R inference_parity_test

# Runs one bench in --json mode from the build directory; the bench writes
# the named file there (a stale one is removed first).
run_bench() {
  echo "==> bench: $1 --json"
  rm -f "${PREFIX}/$2"
  (cd "${PREFIX}" && "./bench/$1" --json="$2")
}
run_bench bench_fig5_earlyexit_detect BENCH_fig5.json
run_bench bench_fig7_behavior BENCH_fig7.json
run_bench bench_mq_failover BENCH_mq.json
run_bench bench_store_readstorm BENCH_store.json

# check FILE LABEL EXPR OP LIMIT: loads FILE's JSON object as `d` (a file
# that does not parse fails), evaluates the Python expression EXPR over it,
# prints the value and fails unless `value OP LIMIT` holds.
check() {
  python3 - "$@" <<'EOF'
import json, operator, sys
path, label, expr, op, limit = sys.argv[1:]
with open(path) as f:
    d = json.load(f)
value = eval(expr, {}, {"d": d})
ok = {">=": operator.ge, "<=": operator.le, "<": operator.lt}[op](
    value, float(limit))
print(f"==> {label}: {value:.6g} (gate: {op} {limit}) {'ok' if ok else 'FAIL'}")
sys.exit(0 if ok else 1)
EOF
}

FIG5="${PREFIX}/BENCH_fig5.json"
MQ="${PREFIX}/BENCH_mq.json"
STORE="${PREFIX}/BENCH_store.json"
status=0
python3 -m json.tool "${PREFIX}/BENCH_fig7.json" >/dev/null || status=1
check "${FIG5}" "fig5 local exit: planned speedup over eager (x)" \
  'd["latency_speedup"]' ">=" 2 || status=1
check "${FIG5}" "fig5 local exit: planned heap allocs per call" \
  'd["planned"]["heap_allocs_per_call"]' "<=" 6 || status=1
check "${MQ}" "mq: batch-256 records/s at 8 partitions" \
  'next(p["records_per_s"] for p in d["produce_grid"]
        if p["partitions"] == 8 and p["batch_size"] == 256)' ">=" 5e6 ||
  status=1
check "${STORE}" "store: read p99 (us) at the target rate" \
  'd["read_p99_us"]' "<" 25000 || status=1
check "${STORE}" "store: achieved / target read rate" \
  'd["reads_per_s"] / d["target_reads_per_s"]' ">=" 0.95 || status=1

if [[ "${status}" != 0 ]]; then
  echo "check_perf: FAIL" >&2
  exit 1
fi
echo "==> check_perf: OK (${PREFIX}/BENCH_{fig5,fig7,mq,store}.json)"
