#!/usr/bin/env bash
# Local CI gate: formatting, lint hygiene, and the tier-1 test suite.
#
#   scripts/ci.sh
#
# Mirrors what the repository expects before a merge:
#   1. `cargo fmt --check`        — no unformatted code;
#   2. `cargo clippy` twice       — libraries *and binaries* with
#      `unwrap`/`expect` denied (fallible paths must return
#      `DeptreeError`, not abort), then every target (tests, examples,
#      benches) with `-D warnings`;
#   3. tier-1: release build + every test in the workspace (the root
#      test binaries and each member crate's unit tests), run twice —
#      once serial (DEPTREE_THREADS=1) and once on an 8-worker pool
#      (DEPTREE_THREADS=8) — so the thread-count-independence contract of
#      the parallel miners is exercised on every gate; then the root
#      serial suite once more back-to-back, so a test that only passes on
#      a fresh process (ordering or leftover-state luck) is caught here
#      and not on a busy CI box;
#   4. pairwise_scaling --smoke — tiny-size run of the blocking/index
#      benchmark that asserts indexed candidate generation reproduces the
#      naive pair scans exactly (MD discovery, DC evidence, dedup);
#   5. columnar_scaling --smoke + the columnar_equivalence suite at
#      DEPTREE_THREADS=1 and =8 — the smoke run asserts every columnar
#      kernel equal to its reference function in
#      tests/common/reference.rs and that the interning CSV parse
#      allocates less than a row-materializing one; the suite diffs every
#      task's output against the frozen goldens in
#      tests/snapshots/columnar_equivalence/;
#   6. serve_loadgen --smoke — boot the three-phase keep-alive benchmark
#      at a reduced size and require that connection reuse beats
#      close-per-request, the response cache actually hits, and a cached
#      replay is byte-identical to the reply that populated it;
#   7. serve smoke — boot `deptree serve` on an ephemeral port, round-trip
#      `deptree query` calls (the discover reply must be byte-identical to
#      the pre-columnar recorded snapshot), scrape /metrics and require
#      every load-bearing series (including the response-cache counters),
#      SIGTERM it, and require a graceful
#      exit 0;
#   8. gateway smoke — boot `deptree gateway` with two sharded workers,
#      round-trip a merged discover, `kill -9` one worker and require the
#      fan-out to *heal* (full, byte-identical answers via failover
#      re-sharding) before the supervisor's respawn, require the
#      self-healing metric series in the aggregated /metrics, then
#      SIGTERM-drain the whole fleet to exit 0;
#   9. rolling-restart smoke — boot a three-worker sharded gateway, keep
#      a continuous `deptree query` loop running, trigger
#      `deptree query reload`, and require zero dropped requests while
#      every worker restarts exactly once.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --check

echo "== clippy (libraries + binaries; unwrap/expect denied) =="
cargo clippy --workspace --lib --bins --quiet -- \
    -D warnings \
    -D clippy::unwrap_used \
    -D clippy::expect_used

echo "== clippy (all targets) =="
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== tier-1: build =="
cargo build --release --quiet

echo "== tier-1: workspace tests (serial, DEPTREE_THREADS=1) =="
DEPTREE_THREADS=1 cargo test --workspace -q

echo "== tier-1: workspace tests (parallel, DEPTREE_THREADS=8) =="
DEPTREE_THREADS=8 cargo test --workspace -q

echo "== tier-1: tests (repeat run, flake gate) =="
DEPTREE_THREADS=1 cargo test -q

echo "== pairwise_scaling smoke (indexed ≡ naive) =="
cargo run --release --quiet --bin pairwise_scaling -- --smoke

echo "== columnar_scaling smoke (columnar ≡ reference, interned parse allocates less) =="
cargo run --release --quiet --bin columnar_scaling -- --smoke

echo "== columnar equivalence suite vs frozen goldens (serial + 8-thread pools) =="
DEPTREE_THREADS=1 cargo test -q --test columnar_equivalence
DEPTREE_THREADS=8 cargo test -q --test columnar_equivalence

echo "== serve_loadgen smoke (keep-alive beats close, cache hits, byte-identical replay) =="
cargo run --release --quiet --bin serve_loadgen -- --smoke

echo "== serve smoke (boot, query round trip, drain to exit 0) =="
serve_log="$(mktemp)"
trap 'rm -f "$serve_log"' EXIT
target/release/deptree serve --data hotels=data/hotels.csv:t,t,t,n,n \
    --addr 127.0.0.1:0 >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_log")"
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve never reported its address"; cat "$serve_log"; exit 1; }
target/release/deptree query datasets --addr "$addr"
target/release/deptree query detect --addr "$addr" --dataset hotels \
    --rule "address -> region" >/dev/null
# A discover round trip moves the engine counters (partition-cache
# hits/misses), so the scrape below checks real numbers, not zeros.
# Its reply is also the columnar regression gate: byte-identical to the
# reply recorded before the columnar relation core landed.
discover_reply="$(target/release/deptree query discover --addr "$addr" \
    --dataset hotels --max-lhs 2)"
if ! diff <(printf '%s\n' "$discover_reply") \
        tests/snapshots/discover_hotels_maxlhs2.txt; then
    echo "discover reply drifted from the pre-columnar snapshot"
    exit 1
fi

echo "== metrics scrape (required series present) =="
metrics="$(target/release/deptree query metrics --addr "$addr")"
for series in \
    'deptree_requests_total{route="/v1/discover",status="200"}' \
    deptree_shed_total \
    deptree_request_duration_seconds_bucket \
    deptree_inflight_requests \
    'deptree_dataset_bytes{dataset="hotels"}' \
    deptree_cache_hits_total \
    deptree_response_cache_hits_total \
    deptree_response_cache_misses_total \
    deptree_response_cache_evictions_total \
    deptree_partition_product_radix_total \
    deptree_partition_product_hash_total \
    deptree_pairgen_distinct_gram_hits_total; do
    if ! grep -qF "$series" <<<"$metrics"; then
        echo "missing required metrics series: $series"
        echo "$metrics"
        exit 1
    fi
done

kill -TERM "$serve_pid"
wait "$serve_pid"   # set -e: non-zero (ungraceful) drain fails the gate

echo "== gateway smoke (shard fan-out, worker kill → re-shard heal, respawn, drain) =="
gw_log="$(mktemp)"
trap 'rm -f "$serve_log" "$gw_log"' EXIT
# A wide respawn window so the healed answers below are provably the
# work of failover re-sharding, not of the supervisor's respawn.
target/release/deptree gateway --data hotels=data/hotels.csv:t,t,t,n,n \
    --shard hotels --workers 2 --respawn-base-ms 3000 \
    --addr 127.0.0.1:0 >"$gw_log" 2>&1 &
gw_pid=$!
gw_addr=""
for _ in $(seq 1 100); do
    gw_addr="$(sed -n 's/^listening on //p' "$gw_log")"
    [ -n "$gw_addr" ] && break
    kill -0 "$gw_pid" 2>/dev/null || { cat "$gw_log"; exit 1; }
    sleep 0.1
done
[ -n "$gw_addr" ] || { echo "gateway never reported its address"; cat "$gw_log"; exit 1; }
for _ in $(seq 1 100); do
    [ "$(grep -c ') up at ' "$gw_log")" -ge 2 ] && break
    sleep 0.1
done
[ "$(grep -c ') up at ' "$gw_log")" -ge 2 ] || {
    echo "gateway workers never came up"; cat "$gw_log"; exit 1; }

# A healthy merged fan-out first — the baseline the healed answers
# must reproduce byte-for-byte.
gw_baseline="$(target/release/deptree query discover --addr "$gw_addr" \
    --dataset hotels --max-lhs 2)"

# kill -9 one worker: within the re-shard budget (and well before the
# 3s respawn backoff) the fan-out must be whole again — the dead
# worker's slice re-homed onto the survivor. A sound degraded partial
# (exit 6) is tolerated only inside the brief re-home window; any
# other exit code is a dropped request and fails the gate.
victim="$(sed -n 's/^gateway: worker 0 (pid \([0-9]*\)) up at.*/\1/p' "$gw_log" | head -n 1)"
[ -n "$victim" ] || { echo "no worker 0 pid in gateway log"; cat "$gw_log"; exit 1; }
kill -9 "$victim"
healed=""
healed_reply=""
for _ in $(seq 1 50); do
    set +e
    healed_reply="$(target/release/deptree query discover --addr "$gw_addr" \
        --dataset hotels --max-lhs 2 2>/dev/null)"
    healed_rc=$?
    set -e
    if [ "$healed_rc" -eq 0 ]; then healed=yes; break; fi
    [ "$healed_rc" -eq 6 ] || {
        echo "expected healed (0) or sound partial (6) after the kill, got $healed_rc"
        echo "$healed_reply"; cat "$gw_log"; exit 1; }
    sleep 0.05
done
[ -n "$healed" ] || {
    echo "fan-out never healed inside the re-shard budget"; cat "$gw_log"; exit 1; }
[ "$healed_reply" = "$gw_baseline" ] || {
    echo "re-sharded reply drifted from the healthy baseline:"
    diff <(printf '%s\n' "$gw_baseline") <(printf '%s\n' "$healed_reply") || true
    exit 1; }
gw_metrics="$(target/release/deptree query metrics --addr "$gw_addr")"
grep -Eq '^deptree_reshard_total [1-9]' <<<"$gw_metrics" || {
    echo "healed answers without a re-shard on the books"; echo "$gw_metrics"; exit 1; }
grep -Fq 'deptree_gateway_worker_restarts_total{worker="0"} 0' <<<"$gw_metrics" || {
    echo "heal arrived only after the respawn — that is not re-sharding"
    echo "$gw_metrics"; cat "$gw_log"; exit 1; }

echo "== gateway metrics scrape (self-healing series present) =="
for series in \
    deptree_worker_slot_state \
    deptree_reshard_total \
    deptree_hedged_reads_total \
    deptree_worker_force_kill_total; do
    if ! grep -qF "$series" <<<"$gw_metrics"; then
        echo "missing required gateway metrics series: $series"
        echo "$gw_metrics"
        exit 1
    fi
done

# The supervisor still respawns the worker, visible in the aggregated
# scrape; once it settles, the replane loop re-absorbs the slice.
restarted=""
for _ in $(seq 1 150); do
    if target/release/deptree query metrics --addr "$gw_addr" \
        | grep -Eq 'deptree_gateway_worker_restarts_total\{worker="0"\} [1-9]'; then
        restarted=yes
        break
    fi
    sleep 0.2
done
[ -n "$restarted" ] || { echo "worker 0 never respawned"; cat "$gw_log"; exit 1; }

kill -TERM "$gw_pid"
wait "$gw_pid"   # set -e: a fleet that does not drain to 0 fails the gate

echo "== gateway rolling-restart smoke (3 workers, zero dropped requests) =="
gw2_log="$(mktemp)"
reload_fail_log="$(mktemp)"
reload_keep="$(mktemp)"
trap 'rm -f "$serve_log" "$gw_log" "$gw2_log" "$reload_fail_log" "$reload_keep"' EXIT
target/release/deptree gateway --data hotels=data/hotels.csv:t,t,t,n,n \
    --shard hotels --workers 3 --addr 127.0.0.1:0 >"$gw2_log" 2>&1 &
gw2_pid=$!
gw2_addr=""
for _ in $(seq 1 100); do
    gw2_addr="$(sed -n 's/^listening on //p' "$gw2_log")"
    [ -n "$gw2_addr" ] && break
    kill -0 "$gw2_pid" 2>/dev/null || { cat "$gw2_log"; exit 1; }
    sleep 0.1
done
[ -n "$gw2_addr" ] || { echo "gateway never reported its address"; cat "$gw2_log"; exit 1; }
for _ in $(seq 1 100); do
    [ "$(grep -c ') up at ' "$gw2_log")" -ge 3 ] && break
    sleep 0.1
done
[ "$(grep -c ') up at ' "$gw2_log")" -ge 3 ] || {
    echo "gateway workers never came up"; cat "$gw2_log"; exit 1; }

# Continuous query pressure across the whole rolling restart. Every
# request must land a full exit-0 answer: a degraded partial (6) or a
# transport failure both count as dropped and fail the gate.
(
    while [ -f "$reload_keep" ]; do
        target/release/deptree query discover --addr "$gw2_addr" \
            --dataset hotels --max-lhs 2 >/dev/null 2>&1 \
            || echo "dropped request during rolling restart" >>"$reload_fail_log"
        sleep 0.05
    done
) &
reload_loop_pid=$!

target/release/deptree query reload --addr "$gw2_addr"
rolled=""
reload_metrics=""
for _ in $(seq 1 300); do
    reload_metrics="$(target/release/deptree query metrics --addr "$gw2_addr")"
    if grep -Fq 'deptree_gateway_worker_restarts_total{worker="0"} 1' <<<"$reload_metrics" \
        && grep -Fq 'deptree_gateway_worker_restarts_total{worker="1"} 1' <<<"$reload_metrics" \
        && grep -Fq 'deptree_gateway_worker_restarts_total{worker="2"} 1' <<<"$reload_metrics"; then
        rolled=yes
        break
    fi
    sleep 0.2
done
[ -n "$rolled" ] || {
    echo "rolling restart never cycled every worker"; echo "$reload_metrics"
    cat "$gw2_log"; exit 1; }
# Let the loop observe the settled fleet once more, then stop it.
sleep 0.5
rm -f "$reload_keep"
wait "$reload_loop_pid"
if [ -s "$reload_fail_log" ]; then
    echo "dropped requests during the rolling restart:"
    cat "$reload_fail_log"; cat "$gw2_log"; exit 1
fi
# Exactly once each — a second restart would mean a crash mid-reload.
reload_metrics="$(target/release/deptree query metrics --addr "$gw2_addr")"
for w in 0 1 2; do
    grep -Fq "deptree_gateway_worker_restarts_total{worker=\"$w\"} 1" <<<"$reload_metrics" || {
        echo "worker $w did not restart exactly once"; echo "$reload_metrics"; exit 1; }
done

kill -TERM "$gw2_pid"
wait "$gw2_pid"   # set -e: a fleet that does not drain to 0 fails the gate

echo "ci: all green"
