#!/usr/bin/env bash
# Offline CI gate for the AmpereBleed reproduction.
#
# The workspace has zero registry dependencies (everything lives under
# crates/, anchored by the crates/sim-rt runtime), so every step below
# runs with --offline and needs nothing but a Rust toolchain.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# Every temp file and background process any gate creates is registered
# here, so one EXIT trap cleans up no matter which gate fails.
cleanup_files=()
cleanup_pids=()
cleanup() {
    for pid in "${cleanup_pids[@]+"${cleanup_pids[@]}"}"; do
        kill "$pid" 2>/dev/null || true
    done
    for f in "${cleanup_files[@]+"${cleanup_files[@]}"}"; do
        rm -rf "$f"
    done
}
trap cleanup EXIT

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> sim-lint (workspace invariants)"
cargo run --offline -q -p sim-lint

echo "==> sim-lint self-test (each seeded violation must fail the gate)"
# One seeded fixture per rule family: the original per-file corpus plus
# one per cross-file rule. A gate that cannot fail is not a gate.
lint_selftest() {
    local rule="$1"
    shift
    if cargo run --offline -q -p sim-lint -- "$@" >/dev/null 2>&1; then
        echo "ci.sh: sim-lint passed the seeded $rule fixture; the gate is broken" >&2
        exit 1
    fi
    local json
    json="$(cargo run --offline -q -p sim-lint -- --json "$@" || true)"
    echo "$json" | grep -q "\"rule\":\"$rule\"" || {
        echo "ci.sh: sim-lint --json emitted no $rule rows for its seeded fixture" >&2
        exit 1
    }
}
lint_selftest wall-clock crates/sim-lint/tests/fixtures/seeded
lint_selftest lock-order \
    crates/sim-lint/tests/fixtures/lock_cycle/a \
    crates/sim-lint/tests/fixtures/lock_cycle/b
lint_selftest panic-path crates/sim-lint/tests/fixtures/panic_path
lint_selftest metric-name-drift crates/sim-lint/tests/fixtures/metric_drift
lint_selftest stale-waiver crates/sim-lint/tests/fixtures/stale_waiver

echo "==> cargo clippy (warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> sim-lint release run (lint-report artifact, < 2 s wall time)"
# The release binary relints the whole workspace: its --json output is
# published as the lint-report artifact, and the run doubles as the
# perf gate — a full two-pass workspace analysis must stay under 2 s.
lint_report="lint-report.jsonl"
lint_t0="$(date +%s%N)"
./target/release/sim-lint --json >"$lint_report" || {
    echo "ci.sh: release sim-lint found diagnostics:" >&2
    cat "$lint_report" >&2
    exit 1
}
lint_elapsed_ms=$(( ($(date +%s%N) - lint_t0) / 1000000 ))
echo "    workspace lint in ${lint_elapsed_ms} ms -> $lint_report"
if [ "$lint_elapsed_ms" -ge 2000 ]; then
    echo "ci.sh: workspace lint took ${lint_elapsed_ms} ms (gate: < 2000 ms)" >&2
    exit 1
fi

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> cargo doc (every crate, warnings are errors)"
# A renamed or deleted item leaves intra-doc links that name it dangling;
# rustdoc reports those only as warnings, so deny them here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> observability smoke (trace-level events + JSONL sink)"
trace_file="$(mktemp)"
cleanup_files+=("$trace_file")
AMPEREBLEED_LOG=trace AMPEREBLEED_TRACE_FILE="$trace_file" \
    cargo run --offline --release --example quickstart >/dev/null 2>&1
if ! [ -s "$trace_file" ]; then
    echo "ci.sh: trace-level run left $trace_file empty" >&2
    exit 1
fi
head -n 1 "$trace_file" | grep -q '"level":' || {
    echo "ci.sh: trace file rows are not obs events" >&2
    exit 1
}
echo "    $(wc -l < "$trace_file") events traced"

echo "==> sampler fast-path smoke (bench --quick)"
fastpath_artifact="crates/bench/BENCH_sampler_fastpath.quick.json"
rm -f "$fastpath_artifact"
cargo bench --offline --bench sampler_fastpath -- --quick
if ! [ -s "$fastpath_artifact" ]; then
    echo "ci.sh: sampler_fastpath smoke left no artifact" >&2
    exit 1
fi
grep -q '"all_channels_fresh"' "$fastpath_artifact" || {
    echo "ci.sh: $fastpath_artifact is missing the headline row" >&2
    exit 1
}

echo "==> serve throughput smoke (bench --quick)"
serve_artifact="crates/bench/BENCH_serve_throughput.quick.json"
rm -f "$serve_artifact"
cargo bench --offline --bench serve_throughput -- --quick
if ! [ -s "$serve_artifact" ]; then
    echo "ci.sh: serve_throughput smoke left no artifact" >&2
    exit 1
fi
grep -q '"farm_req_per_sec"' "$serve_artifact" || {
    echo "ci.sh: $serve_artifact is missing the headline row" >&2
    exit 1
}

echo "==> store hit latency smoke (bench --quick)"
store_artifact="crates/bench/BENCH_store_hit_latency.quick.json"
rm -f "$store_artifact"
cargo bench --offline --bench store_hit_latency -- --quick
if ! [ -s "$store_artifact" ]; then
    echo "ci.sh: store_hit_latency smoke left no artifact" >&2
    exit 1
fi
grep -q '"warm_ms_per_req"' "$store_artifact" || {
    echo "ci.sh: $store_artifact is missing the headline row" >&2
    exit 1
}

echo "==> serve smoke (ephemeral port, one farm_client request, clean drain)"
serve_log="$(mktemp)"
cleanup_files+=("$serve_log")
cargo run --offline --release -p sim-serve --bin serve -- \
    --addr 127.0.0.1:0 --boards 2 >"$serve_log" 2>&1 &
serve_pid=$!
cleanup_pids+=("$serve_pid")
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr="$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$serve_log")"
    [ -n "$serve_addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "ci.sh: serve exited before binding:" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "ci.sh: serve never reported its address:" >&2
    cat "$serve_log" >&2
    exit 1
fi
cargo run --offline --release --example farm_client -- "$serve_addr" --shutdown
wait "$serve_pid" || {
    echo "ci.sh: serve exited non-zero after drain:" >&2
    cat "$serve_log" >&2
    exit 1
}
grep -q '^serve: clean shutdown$' "$serve_log" || {
    echo "ci.sh: serve did not report a clean drain:" >&2
    cat "$serve_log" >&2
    exit 1
}

echo "==> defend smoke (ephemeral port, one-point sweep through serve)"
defend_log="$(mktemp)"
cleanup_files+=("$defend_log")
cargo run --offline --release -p sim-serve --bin serve -- \
    --addr 127.0.0.1:0 --boards 1 >"$defend_log" 2>&1 &
defend_pid=$!
cleanup_pids+=("$defend_pid")
defend_addr=""
for _ in $(seq 1 100); do
    defend_addr="$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$defend_log")"
    [ -n "$defend_addr" ] && break
    if ! kill -0 "$defend_pid" 2>/dev/null; then
        echo "ci.sh: defend-smoke serve exited before binding:" >&2
        cat "$defend_log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$defend_addr" ]; then
    echo "ci.sh: defend-smoke serve never reported its address:" >&2
    cat "$defend_log" >&2
    exit 1
fi
defend_out="$(cargo run --offline --release --example farm_client -- "$defend_addr" \
    --verb defend --seed 11 \
    --config '{"attack": "covert", "layers": ["noise", "throttle"], "strengths": [0.6], "payload": "ci"}' \
    --shutdown)"
echo "$defend_out" | grep -q '"auc"' || {
    echo "ci.sh: defend smoke produced no sweep report:" >&2
    echo "$defend_out" >&2
    exit 1
}
wait "$defend_pid" || {
    echo "ci.sh: defend-smoke serve exited non-zero after drain:" >&2
    cat "$defend_log" >&2
    exit 1
}

echo "==> store smoke (serve twice over one store dir; warm run replays byte-identically)"
store_dir="$(mktemp -d)"
cleanup_files+=("$store_dir")
store_request() {
    # One request against a fresh serve over $store_dir; prints the
    # client transcript, leaves the serve log in $1.
    local log="$1"
    cargo run --offline --release -p sim-serve --bin serve -- \
        --addr 127.0.0.1:0 --boards 1 --store-dir "$store_dir" >"$log" 2>&1 &
    local pid=$!
    cleanup_pids+=("$pid")
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$log")"
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "ci.sh: store-smoke serve exited before binding:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "ci.sh: store-smoke serve never reported its address:" >&2
        cat "$log" >&2
        exit 1
    fi
    cargo run --offline --release --example farm_client -- "$addr" \
        --verb quickstart --seed 41 \
        --config '{"samples_per_level": 60}' \
        --shutdown
    wait "$pid" || {
        echo "ci.sh: store-smoke serve exited non-zero after drain:" >&2
        cat "$log" >&2
        exit 1
    }
}
store_log_cold="$(mktemp)"
store_log_warm="$(mktemp)"
store_out_cold="$(mktemp)"
store_out_warm="$(mktemp)"
cleanup_files+=("$store_log_cold" "$store_log_warm" "$store_out_cold" "$store_out_warm")
# Run outside command substitution so the serve pids register with the
# cleanup trap.
store_request "$store_log_cold" >"$store_out_cold"
store_request "$store_log_warm" >"$store_out_warm"
store_cold_out="$(cat "$store_out_cold")"
store_warm_out="$(cat "$store_out_warm")"
echo "$store_cold_out" | grep -q ', cached)' && {
    echo "ci.sh: cold store run claimed a cache hit:" >&2
    echo "$store_cold_out" >&2
    exit 1
}
echo "$store_warm_out" | grep -q ', cached)' || {
    echo "ci.sh: warm store run was not served from the store:" >&2
    echo "$store_warm_out" >&2
    exit 1
}
store_cold_result="$(echo "$store_cold_out" | grep '^result: ')"
store_warm_result="$(echo "$store_warm_out" | grep '^result: ')"
if [ -z "$store_cold_result" ] || [ "$store_cold_result" != "$store_warm_result" ]; then
    echo "ci.sh: warm store replay diverged from the cold result:" >&2
    echo "cold: $store_cold_result" >&2
    echo "warm: $store_warm_result" >&2
    exit 1
fi
ls "$store_dir"/seg-*.jsonl >/dev/null 2>&1 || {
    echo "ci.sh: store dir holds no persisted segments" >&2
    exit 1
}

echo "==> stats/flight smoke (live telemetry verb, forced deadline dump)"
stats_log="$(mktemp)"
flight_file="$(mktemp)"
cleanup_files+=("$stats_log" "$flight_file")
AMPEREBLEED_FLIGHT_FILE="$flight_file" \
    cargo run --offline --release -p sim-serve --bin serve -- \
    --addr 127.0.0.1:0 --boards 1 >"$stats_log" 2>&1 &
stats_pid=$!
cleanup_pids+=("$stats_pid")
stats_addr=""
for _ in $(seq 1 100); do
    stats_addr="$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$stats_log")"
    [ -n "$stats_addr" ] && break
    if ! kill -0 "$stats_pid" 2>/dev/null; then
        echo "ci.sh: stats-smoke serve exited before binding:" >&2
        cat "$stats_log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$stats_addr" ]; then
    echo "ci.sh: stats-smoke serve never reported its address:" >&2
    cat "$stats_log" >&2
    exit 1
fi
stats_out="$(cargo run --offline --release --example farm_client -- "$stats_addr" \
    --stats --pretty)"
echo "$stats_out" | grep -q '"queue_depth"' || {
    echo "ci.sh: stats verb returned no queue state:" >&2
    echo "$stats_out" >&2
    exit 1
}
echo "$stats_out" | grep -q '"p99"' || {
    echo "ci.sh: stats verb returned no percentile records:" >&2
    echo "$stats_out" >&2
    exit 1
}
# An impossible deadline forces a deadline_exceeded, which must auto-dump
# the flight rings to AMPEREBLEED_FLIGHT_FILE (the request itself fails
# by design, hence the || true).
cargo run --offline --release --example farm_client -- "$stats_addr" \
    --verb quickstart --seed 3 --deadline-ms 0 >/dev/null || true
cargo run --offline --release --example farm_client -- "$stats_addr" \
    --verb ping --shutdown >/dev/null
wait "$stats_pid" || {
    echo "ci.sh: stats-smoke serve exited non-zero after drain:" >&2
    cat "$stats_log" >&2
    exit 1
}
if ! [ -s "$flight_file" ]; then
    echo "ci.sh: deadline_exceeded left no flight dump in $flight_file" >&2
    exit 1
fi
grep -q '"deadline_exceeded"' "$flight_file" || {
    echo "ci.sh: flight dump carries no deadline_exceeded rows:" >&2
    head "$flight_file" >&2
    exit 1
}
grep -q '"kind"' "$flight_file" || {
    echo "ci.sh: flight dump rows are not event records:" >&2
    head "$flight_file" >&2
    exit 1
}

echo "==> farm_e2e unit tests (the benchmark builds against these crates)"
cargo test --offline -q --manifest-path farm_e2e/Cargo.toml

echo "==> farm_e2e --quick (all four workloads checked against the serial reference)"
# Exits non-zero on any result that differs from the serial replay or
# any offline campaign that loses a paper shape.
cargo bench --offline -q --manifest-path farm_e2e/Cargo.toml --bench farm_e2e -- --quick

echo "==> farm_e2e pinned seed-1 digests (offline, burst, warm)"
# --quick skips the pinned-digest check, so three short seed-1 runs make
# it here; each exits non-zero on a digest that differs from the pinned
# one. Every run names its workload: a run of all four rewrites the
# committed BENCH_farm_e2e.json. farm_cold_mix stays out because its
# pinned set needs about 18 s of open loop.
e2e_logs="$(mktemp -d)"
cleanup_files+=("$e2e_logs")
for workload in campaign_offline farm_burst_dedup farm_warm_replay; do
    cargo bench --offline -q --manifest-path farm_e2e/Cargo.toml --bench farm_e2e -- \
        --workload "$workload" --seed 1 --seconds 2 | tee "$e2e_logs/$workload-2s.log"
done

echo "==> served memory stays flat as run length grows (burst, 2 s vs 8 s)"
# A server whose memory grows with uptime reads 1.6-1.7x here; one that
# frees each exited thread's flight ring reads about 1.0x.
cargo bench --offline -q --manifest-path farm_e2e/Cargo.toml --bench farm_e2e -- \
    --workload farm_burst_dedup --seed 1 --seconds 8 | tee "$e2e_logs/farm_burst_dedup-8s.log"
e2e_metric() {
    # The last JSON line of a run holds its end-to-end metrics.
    grep '^{' "$2" | tail -n 1 | sed -n "s/.*\"$1\":{\"value\":\([0-9.eE+-]*\).*/\1/p"
}
rss_short="$(e2e_metric peak_rss_mb "$e2e_logs/farm_burst_dedup-2s.log")"
rss_long="$(e2e_metric peak_rss_mb "$e2e_logs/farm_burst_dedup-8s.log")"
if [ -z "$rss_short" ] || [ -z "$rss_long" ]; then
    echo "ci.sh: a burst run printed no peak_rss_mb" >&2
    exit 1
fi
echo "    peak_rss_mb ${rss_short} MiB at 2 s, ${rss_long} MiB at 8 s"
awk -v short="$rss_short" -v long="$rss_long" 'BEGIN { exit !(long <= 1.25 * short) }' || {
    echo "ci.sh: served peak_rss_mb grew from ${rss_short} to ${rss_long} MiB (gate: at most 1.25x)" >&2
    exit 1
}

echo "==> served latency is the server's, not TCP's (burst latency_p50_ms < 20 ms)"
# A response written while an earlier one is unacknowledged waits for the
# client's delayed ACK, 40 ms at the least, unless the server's sockets
# are TCP_NODELAY. Burst p50 reads about 40 ms at both lengths then, and
# about 4 ms without the stall; the gate sits at half the timer.
for run in 2s 8s; do
    p50="$(e2e_metric latency_p50_ms "$e2e_logs/farm_burst_dedup-$run.log")"
    if [ -z "$p50" ]; then
        echo "ci.sh: the $run burst run printed no latency_p50_ms" >&2
        exit 1
    fi
    echo "    latency_p50_ms ${p50} ms at $run"
    awk -v p50="$p50" 'BEGIN { exit !(p50 < 20) }' || {
        echo "ci.sh: burst latency_p50_ms read ${p50} ms at $run (gate: < 20 ms)" >&2
        exit 1
    }
done

echo "==> ci.sh: all gates passed"
