#!/usr/bin/env bash
# Nightly churn soak with a memory gate, usable locally:
#
#     ci/churn_soak.sh [seconds]        (default 120)
#
# Runs the benchmark's `churn_mixed` workload — camusd saturated by its
# own looped feed while two bus clients subscribe and unsubscribe at
# 10/s, oracle- and ledger-checked — and samples the resident set of
# the process hosting the daemon once after warm-up and once near the
# end of the mutation phase. Every mutation now rewrites one long-lived
# compiler session, so a leak there shows as RSS growing with the
# mutation count: the run fails if the late sample exceeds the early
# one by more than 25 %.
set -euo pipefail

SECS="${1:-120}"
EARLY=$(( SECS / 8 > 5 ? SECS / 8 : 5 ))   # past set-up and warm-up
LATE=$(( SECS * 4 / 5 ))                   # the daemon phase is the first 85 %
OUT="${TMPDIR:-/tmp}/churn-soak-$$.out"

fail() { echo "churn_soak: FAIL — $*" >&2; [ -f "$OUT" ] && tail -5 "$OUT" >&2; exit 1; }
rss_kb() { awk '/^VmRSS:/ { print $2 }' "/proc/$1/status" 2>/dev/null; }

# Build first so the clock below starts with the run, not the compiler.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --workload churn_mixed --seed 1 --seconds "$SECS" --trace 0 >"$OUT" &
PID=$!   # run.sh execs the benchmark binary, so this becomes its pid
trap 'kill -9 "$PID" 2>/dev/null || true; rm -f "$OUT"' EXIT

for _ in $(seq 1 600); do
  [ "$(cat "/proc/$PID/comm" 2>/dev/null)" = camus-benchmark ] && break
  kill -0 "$PID" 2>/dev/null || fail "benchmark exited before it started measuring"
  sleep 0.1
done

sleep "$EARLY"
RSS_EARLY=$(rss_kb "$PID") || true
sleep $(( LATE - EARLY ))
RSS_LATE=$(rss_kb "$PID") || true
[ -n "${RSS_EARLY:-}" ] && [ -n "${RSS_LATE:-}" ] || fail "could not sample RSS (run shorter than ${LATE}s?)"

wait "$PID" || fail "benchmark run failed"
tail -n 1 "$OUT" | grep -q '"correct": *true' || fail "oracle or ledger check failed"

echo "churn_soak: RSS ${RSS_EARLY} kB at ${EARLY}s, ${RSS_LATE} kB at ${LATE}s"
[ $(( RSS_LATE * 100 )) -le $(( RSS_EARLY * 125 )) ] \
  || fail "RSS grew more than 25 % under churn (${RSS_EARLY} kB -> ${RSS_LATE} kB)"
echo "churn_soak: PASS"
