#!/usr/bin/env bash
# Local CI: formatting, lints, build, and the full test suite — everything
# a change must pass before it lands. Runs fully offline (all third-party
# dependencies are vendored under vendor/).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> canonical encoders stay free of hash-ordered collections"
# Files on the canonical-output path (the alpha-normal form, structural
# hashes, cache-key preimages, wire/disk encodings) must never iterate a
# HashMap/HashSet: iteration order varies across runs and would make
# "canonical" output nondeterministic. Keyed lookups belong in BTreeMap or
# pre-sorted vectors here.
CANON_ENCODER_PATHS=(
    crates/ir/src/printer.rs
    crates/normal/src
    crates/analysis/src/diag.rs
    crates/serve/src/envelope.rs
    crates/serve/src/json.rs
    crates/serve/src/hash.rs
)
if grep -rn 'HashMap\|HashSet' "${CANON_ENCODER_PATHS[@]}"; then
    echo "error: HashMap/HashSet found on a canonical-encoder path (see above);"
    echo "use BTreeMap/BTreeSet or sorted vectors for deterministic output."
    exit 1
fi

echo "==> governed solver loops charge the resource pool"
# The exact and joint solvers are the only unbounded-memory paths in the
# serve tier; their governed entry points must charge working sets against
# the server's resource pool and poll the budget between expansions, or
# vliw-served's --mem-budget silently stops meaning anything.
for f in crates/exact/src/search.rs crates/joint/src/solver.rs; do
    grep -q '\.charge(' "$f" \
        || { echo "error: $f no longer charges the resource pool"; exit 1; }
    grep -q 'exceeded()' "$f" \
        || { echo "error: $f no longer polls the resource budget"; exit 1; }
done

echo "==> request paths compile only on the worker pool"
# Every request, and every entry of a batch, reaches a compile through the
# reactor's lanes, admission and worker pool, under the heavy-lane quota,
# and the engine compiles a miss on the thread that asked. A thread
# spawned on a request path would run compiles outside all of it. The
# engine files are checked up to their first `#[cfg(test)]`: their tests
# race requests on scoped threads.
SPAWNS=$(
    grep -n 'thread::scope\|thread::spawn' crates/serve/src/server.rs crates/serve/src/conn.rs
    for f in crates/serve/src/compile.rs crates/serve/src/cache.rs; do
        awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } /thread::(scope|spawn)/ { print f ":" NR ":" $0 }' "$f"
    done
) || true
if [ -n "$SPAWNS" ]; then
    echo "$SPAWNS"
    echo "error: a request path spawns threads (see above); dispatch work"
    echo "through the reactor's worker pool instead."
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
# Broken or private intra-doc links rot silently otherwise.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release -p vliw-bench --all-targets (bench + baseline runner)"
# vliw-bench is outside default-members; build its lib, benches and the
# bench_scheduler baseline bin so perf-tracking code can't silently rot.
cargo build --release -p vliw-bench --all-targets

echo "==> cargo test"
cargo test -q

echo "==> vliw-lint (cross-stage sanitizer over three loop families)"
cargo run --release --quiet --bin vliw-lint -- \
    --families daxpy,dot,stencil --variants 2 --machines embedded

echo "==> vliw-lint --canon (alpha-canonicalization audit: NRM001-003)"
cargo run --release --quiet --bin vliw-lint -- \
    --canon --families daxpy,dot,stencil,rec1 --variants 3 \
    | grep -q ' 0 error(s)'

echo "==> vliw-serve smoke test (TCP round-trip, repeat served from cache)"
SMOKE_DIR=$(mktemp -d)
cleanup_smoke() {
    [ -n "${SERVED_PID:-}" ] && kill "$SERVED_PID" 2>/dev/null || true
    [ -n "${PEER1_PID:-}" ] && kill "$PEER1_PID" 2>/dev/null || true
    [ -n "${PEER2_PID:-}" ] && kill "$PEER2_PID" 2>/dev/null || true
    rm -rf "$SMOKE_DIR"
}
trap cleanup_smoke EXIT
target/release/vliw-served --addr 127.0.0.1:0 --cache-dir "$SMOKE_DIR/cache" \
    > "$SMOKE_DIR/served.log" &
SERVED_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^vliw-served listening on //p' "$SMOKE_DIR/served.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "vliw-served did not come up"; cat "$SMOKE_DIR/served.log"; exit 1; }
target/release/vliw-client --addr "$ADDR" --compile --gen 0 --repeat 2 \
    | tee "$SMOKE_DIR/client.log"
grep -q 'compile\[0\] served=compiled' "$SMOKE_DIR/client.log"
grep -q 'compile\[1\] served=cache' "$SMOKE_DIR/client.log"
# An isomorphic renaming of the warmed loop (fresh exact key, same semantic
# key) must be served from the canonical alias, not recompiled.
target/release/vliw-client --addr "$ADDR" --compile --gen-variant 0:7 \
    | tee "$SMOKE_DIR/client-variant.log"
grep -q 'compile\[0\] served=cache' "$SMOKE_DIR/client-variant.log"
target/release/vliw-client --addr "$ADDR" --stats --shutdown
wait "$SERVED_PID"
SERVED_PID=""

echo "==> vliw-serve concurrency smoke (256 connections on 2 workers, zero dropped)"
# The reactor core must hold 256 simultaneous connections on a 2-worker
# compile pool and serve one request on each with nothing rejected, timed
# out, or errored.
target/release/vliw-served --addr 127.0.0.1:0 --no-disk --workers 2 \
    > "$SMOKE_DIR/conc.log" &
SERVED_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^vliw-served listening on //p' "$SMOKE_DIR/conc.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "vliw-served did not come up"; cat "$SMOKE_DIR/conc.log"; exit 1; }
target/release/vliw-client --addr "$ADDR" --compile --gen 0 --concurrent 256 \
    | tee "$SMOKE_DIR/conc-client.log"
grep -q '^concurrent n=256 ok=256 errors=0 retries=0$' "$SMOKE_DIR/conc-client.log"
target/release/vliw-client --addr "$ADDR" --stats | tee "$SMOKE_DIR/conc-stats.log"
grep -q ' timeouts=0 ' "$SMOKE_DIR/conc-stats.log"
grep -q ' errors=0 ' "$SMOKE_DIR/conc-stats.log"
grep -q ' conns_rejected=0 ' "$SMOKE_DIR/conc-stats.log"
ACCEPTS=$(sed -n 's/.* accepts=\([0-9]*\).*/\1/p' "$SMOKE_DIR/conc-stats.log")
[ "${ACCEPTS:-0}" -ge 257 ] || { echo "expected >=257 accepts, got ${ACCEPTS:-none}"; exit 1; }
target/release/vliw-client --addr "$ADDR" --shutdown
wait "$SERVED_PID"
SERVED_PID=""

echo "==> vliw-serve sharded smoke test (two peers, batch routing, failover)"
serve_peer() { # $1 = cache dir, $2 = log file
    target/release/vliw-served --addr 127.0.0.1:0 --cache-dir "$1" > "$2" &
}
peer_addr() { # $1 = log file
    local a=""
    for _ in $(seq 1 100); do
        a=$(sed -n 's/^vliw-served listening on //p' "$1")
        [ -n "$a" ] && break
        sleep 0.1
    done
    [ -n "$a" ] || { echo "sharded peer did not come up" >&2; cat "$1" >&2; exit 1; }
    echo "$a"
}
serve_peer "$SMOKE_DIR/shard1" "$SMOKE_DIR/peer1.log"; PEER1_PID=$!
serve_peer "$SMOKE_DIR/shard2" "$SMOKE_DIR/peer2.log"; PEER2_PID=$!
PEERS="$(peer_addr "$SMOKE_DIR/peer1.log"),$(peer_addr "$SMOKE_DIR/peer2.log")"
# Cold sweep: every entry compiles, routed across both peers by key.
target/release/vliw-client --peers "$PEERS" --batch --gen-range 0:32 \
    > "$SMOKE_DIR/shard-cold.log"
grep -q 'batch\[0\] served=compiled' "$SMOKE_DIR/shard-cold.log"
! grep -q 'served=cache' "$SMOKE_DIR/shard-cold.log"
# Warm sweep: same batch, now every entry is a cache hit and nothing reroutes.
target/release/vliw-client --peers "$PEERS" --batch --gen-range 0:32 \
    > "$SMOKE_DIR/shard-warm.log"
grep -q 'batch\[0\] served=cache' "$SMOKE_DIR/shard-warm.log"
! grep -q 'served=compiled' "$SMOKE_DIR/shard-warm.log"
grep -q '^failovers=0$' "$SMOKE_DIR/shard-warm.log"
# Renamed variant of a warmed loop: requests route by semantic key, so the
# variant lands on the peer holding its class representative's alias and
# is served from cache across the wire.
target/release/vliw-client --peers "$PEERS" --compile --gen-variant 3:11 \
    > "$SMOKE_DIR/shard-variant.log"
grep -q 'compile\[0\] served=cache' "$SMOKE_DIR/shard-variant.log"
# Aggregate stats merge both peers' counters.
target/release/vliw-client --peers "$PEERS" --stats --aggregate \
    > "$SMOKE_DIR/shard-stats.log"
grep -q '^aggregate hits=' "$SMOKE_DIR/shard-stats.log"
grep -q '^aggregate peers=2 reporting=2' "$SMOKE_DIR/shard-stats.log"
# Kill one peer hard: its keys fail over to the ring successor and the
# batch still fully succeeds.
kill -9 "$PEER1_PID" 2>/dev/null
wait "$PEER1_PID" 2>/dev/null || true
PEER1_PID=""
target/release/vliw-client --peers "$PEERS" --batch --gen-range 0:32 \
    > "$SMOKE_DIR/shard-failover.log"
! grep -q '] error:' "$SMOKE_DIR/shard-failover.log"
grep -Eq '^failovers=[1-9][0-9]*$' "$SMOKE_DIR/shard-failover.log"
target/release/vliw-client --peers "$PEERS" --shutdown \
    | grep -q 'shutdown acknowledged by 1 peer(s)'
wait "$PEER2_PID" 2>/dev/null || true
PEER2_PID=""

echo "==> vliw-serve crash-restart smoke (kill -9 loses no acknowledged compile)"
# A compile's record is appended to the disk store before its reply is
# sent, so a server killed without any shutdown still has every compile it
# acknowledged: a restart over the same directory recompiles nothing.
serve_peer "$SMOKE_DIR/crash" "$SMOKE_DIR/crash1.log"; SERVED_PID=$!
ADDR=$(peer_addr "$SMOKE_DIR/crash1.log")
target/release/vliw-client --addr "$ADDR" --batch --gen-range 0:32 \
    > "$SMOKE_DIR/crash-cold.log"
[ "$(grep -c 'served=compiled' "$SMOKE_DIR/crash-cold.log")" -eq 32 ] \
    || { echo "cold batch did not compile all 32 entries"; cat "$SMOKE_DIR/crash-cold.log"; exit 1; }
kill -9 "$SERVED_PID"
wait "$SERVED_PID" 2>/dev/null || true
serve_peer "$SMOKE_DIR/crash" "$SMOKE_DIR/crash2.log"; SERVED_PID=$!
ADDR=$(peer_addr "$SMOKE_DIR/crash2.log")
target/release/vliw-client --addr "$ADDR" --batch --gen-range 0:32 \
    > "$SMOKE_DIR/crash-warm.log"
if grep -q 'served=compiled' "$SMOKE_DIR/crash-warm.log"; then
    echo "$(grep -c 'served=compiled' "$SMOKE_DIR/crash-warm.log") of 32 entries recompiled after kill -9"
    exit 1
fi
target/release/vliw-client --addr "$ADDR" --stats --shutdown | tee "$SMOKE_DIR/crash-stats.log"
grep -q ' compiles=0 ' "$SMOKE_DIR/crash-stats.log"
wait "$SERVED_PID"
SERVED_PID=""

echo "==> repro --cache (cached corpus driver, truncated run)"
target/release/repro --table1 --loops 8 --cache --cache-dir "$SMOKE_DIR/repro-cache" \
    | grep -q '^cache: hits='

echo "==> repro --gap (optimality-gap smoke: exact closes, never loses to greedy)"
target/release/repro --gap --loops 40 --budget-ms 2000 > "$SMOKE_DIR/gap.log"
grep -q '^all_optimal=true exact<=greedy=true budget_exceeded=0$' "$SMOKE_DIR/gap.log"

echo "==> repro --joint-gap (joint solver smoke: every loop closed, II never above greedy)"
target/release/repro --joint-gap --loops 40 --budget-ms 4000 > "$SMOKE_DIR/joint-gap.log"
grep -q '^all_closed=true joint_ii<=greedy_ii=true' "$SMOKE_DIR/joint-gap.log"
# The 13–24-vreg scaling table under the 500 ms interactive budget: every
# solve classified (closed/bounded/budget-exceeded sum to the slice) and at
# least 60% closed.
grep -Eq '^closed_pct=[0-9.]+ bounds_honest=true$' "$SMOKE_DIR/joint-gap.log"
CLOSED_PCT=$(sed -n 's/^closed_pct=\([0-9.]*\) .*/\1/p' "$SMOKE_DIR/joint-gap.log")
awk -v p="$CLOSED_PCT" 'BEGIN { exit !(p >= 60.0) }' \
    || { echo "joint scaling closed_pct=$CLOSED_PCT below the 60% floor"; exit 1; }

echo "==> vliw-serve joint anytime smoke (under-budgeted large loop, typed truncation)"
# A 25-vreg daxpy with a deliberate 1 ms joint budget: the server must
# answer with the incumbent and the proven lower bound — a typed reply, not
# a timeout and not a dropped connection.
target/release/vliw-served --addr 127.0.0.1:0 --no-disk > "$SMOKE_DIR/joint-served.log" &
SERVED_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^vliw-served listening on //p' "$SMOKE_DIR/joint-served.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "vliw-served did not come up"; cat "$SMOKE_DIR/joint-served.log"; exit 1; }
printf 'partitioner joint 1\n' > "$SMOKE_DIR/joint.cfg"
target/release/vliw-client --addr "$ADDR" --compile --gen 6 \
    --config-file "$SMOKE_DIR/joint.cfg" | tee "$SMOKE_DIR/joint-client.log"
grep -Eq 'compile\[0\] served=compiled .*joint_ii=[0-9]+ joint_lb=[0-9]+ joint_optimal=false' \
    "$SMOKE_DIR/joint-client.log"
target/release/vliw-client --addr "$ADDR" --stats | tee "$SMOKE_DIR/joint-stats.log"
grep -q ' joint_truncated=1 ' "$SMOKE_DIR/joint-stats.log"
grep -q ' timeouts=0 ' "$SMOKE_DIR/joint-stats.log"
grep -q ' errors=0 ' "$SMOKE_DIR/joint-stats.log"
target/release/vliw-client --addr "$ADDR" --shutdown
wait "$SERVED_PID"
SERVED_PID=""

echo "==> vliw-serve overload smoke (heavy flood shed and retried, interactive unharmed)"
# Governor contract under deliberate overload: a 1-worker heavy lane with a
# depth:1 shed policy, flooded by three clients streaming 300 ms joint
# solves. At least one request must be shed with a typed retryable error and
# then retried to completion by the client's backoff loop, every heavy
# request must eventually be served, and an interactive client compiling
# mid-flood must never be shed and never error.
target/release/vliw-served --addr 127.0.0.1:0 --no-disk --workers 2 \
    --heavy-lane-workers 1 --shed-policy depth:1 --mem-budget 64m \
    > "$SMOKE_DIR/gov.log" &
SERVED_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^vliw-served listening on //p' "$SMOKE_DIR/gov.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "vliw-served did not come up"; cat "$SMOKE_DIR/gov.log"; exit 1; }
# Distinct budgets per client defeat the compile cache, so each stream's
# first request is a real 300 ms solve contending for the single heavy slot.
HEAVY_PIDS=()
for i in 1 2 3; do
    printf 'partitioner joint %d\n' "$((300 + i))" > "$SMOKE_DIR/gov-joint$i.cfg"
    target/release/vliw-client --addr "$ADDR" --compile --gen 6 \
        --config-file "$SMOKE_DIR/gov-joint$i.cfg" --repeat 3 --max-retries 12 \
        > "$SMOKE_DIR/gov-heavy$i.log" 2>&1 &
    HEAVY_PIDS+=("$!")
done
# Interactive traffic in the middle of the flood: the pool keeps one worker
# answerable to the interactive lane, so all 20 compiles must be served
# without a single shed retry.
target/release/vliw-client --addr "$ADDR" --compile --gen 0 --repeat 20 \
    --max-retries 12 | tee "$SMOKE_DIR/gov-inter.log"
[ "$(grep -c 'served=' "$SMOKE_DIR/gov-inter.log")" -eq 20 ] \
    || { echo "interactive client lost requests under flood"; exit 1; }
grep -q '^retries=0$' "$SMOKE_DIR/gov-inter.log" \
    || { echo "interactive client was shed under flood"; exit 1; }
for pid in "${HEAVY_PIDS[@]}"; do
    wait "$pid" \
        || { echo "heavy client exhausted its retry budget"; cat "$SMOKE_DIR"/gov-heavy*.log; exit 1; }
done
for i in 1 2 3; do
    [ "$(grep -c 'served=' "$SMOKE_DIR/gov-heavy$i.log")" -eq 3 ] \
        || { echo "heavy client $i did not complete"; cat "$SMOKE_DIR/gov-heavy$i.log"; exit 1; }
done
GOV_RETRIES=$(sed -n 's/^retries=\([0-9]*\)$/\1/p' "$SMOKE_DIR"/gov-heavy*.log \
    | awk '{ s += $1 } END { print s + 0 }')
[ "${GOV_RETRIES:-0}" -ge 1 ] \
    || { echo "expected >=1 typed shed retry, got ${GOV_RETRIES:-0}"; cat "$SMOKE_DIR"/gov-heavy*.log; exit 1; }
target/release/vliw-client --addr "$ADDR" --shutdown
wait "$SERVED_PID"
SERVED_PID=""

echo "CI OK"
