#!/usr/bin/env bash
# The repo's one benchmark. Run from the repository root.
#
#   benchmark/run.sh [--seed N] [--trace] [--smoke]     every workload, then out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                       one workload (the BENCHMARK.json contract)
#   benchmark/run.sh --check                            validate out/result.json against BENCHMARK.json
#
# Builds benchmark/ offline (release, no profile overrides) into
# $CARGO_TARGET_DIR, or benchmark/target when that is unset.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
out="$here/out"
workload="" seed=1 seconds="" trace=0 smoke=0 check=0

while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            # `--trace` alone means "also run the traced pass".
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        --smoke) smoke=1; shift ;;
        --check) check=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [ "$check" = 1 ]; then
    exec python3 "$here/compare.py" --check "$out/result.json"
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/camus-benchmark"
CAMUS_BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export CAMUS_BENCH_GIT_REV

spec="$here/../BENCHMARK.json"
run_seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
# A smoke run exercises every code path and check in about 30 s.
[ "$smoke" = 1 ] && run_seconds=2
seconds="${seconds:-$run_seconds}"
flags=(--seed "$seed" --seconds "$seconds" --out "$out")
[ "$smoke" = 1 ] && flags+=(--smoke)

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --trace "$trace" "${flags[@]}"
fi

rm -rf "$out"
status=0
for w in $(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec"); do
    "$bin" --workload "$w" --trace 0 "${flags[@]}" | sed '$d' || status=1
    if [ "$trace" = 1 ]; then
        "$bin" --workload "$w" --trace 1 "${flags[@]}" | sed '$d' || status=1
    fi
    echo
done
python3 "$here/compare.py" --merge "$out" || status=1
python3 "$here/compare.py" --check "$out/result.json" || status=1
exit "$status"
