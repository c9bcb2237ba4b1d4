#!/usr/bin/env bash
# Local CI gate: run everything a reviewer would.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
cargo test --workspace -q

echo "== serve tests, repeated =="
# The shedding, coalescing and latency-floor tests of defender-serve
# depend on timing and on lock order between the batcher and the
# request threads; rerunning them catches order and timing flakes that
# one pass would miss.
for _ in 1 2 3 4 5; do
  cargo test -q -p defender-serve
done

echo "== perfbench tests =="
# The benchmark is a package of its own, outside the workspace. Its plan
# tests pin every pool value against solve_exact and deduplicate fresh
# classes by canonical key, so a canonicalizer or solver regression
# fails here too, not only in a benchmark run.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== defender lint =="
# Workspace static analysis (exactness, determinism, panic-freedom,
# concurrency discipline, exact-path panic/cast gating, unsafe/dependency
# audits, suppression ageing, metric-registry audit — see DESIGN.md §12
# and §17). Hard gate: an unregistered counter, an un-annotated library
# unwrap, or a stale allow fails CI before the bench gates run. The
# --sidecar counters then diff against the committed baseline so even a
# silent change in what the linter *sees* (files scanned, finding mix)
# is a reviewed event.
LINT_DIR="$(mktemp -d)"
(cd "$LINT_DIR" && "$OLDPWD"/target/release/defender lint --root "$OLDPWD" --sidecar)
target/release/defender bench diff \
  baselines/BENCH_lint.json \
  "$LINT_DIR/BENCH_lint.json" \
  --counters-only
rm -rf "$LINT_DIR"

if [[ "${CI_MIRI:-0}" == "1" ]]; then
  echo "== miri (CI_MIRI=1) =="
  # Optional UB sweep over the unsafe-adjacent crates (the worker pool and
  # the rational kernel). Miri needs a nightly component that offline
  # containers usually lack, so skip gracefully when it is not installed.
  if cargo miri --version > /dev/null 2>&1; then
    cargo miri test -p defender-par -p defender-num
  else
    echo "miri not installed; skipping (install with: rustup component add miri)"
  fi
fi

echo "== trace smoke test =="
# Run one experiment with event tracing and in-process profiling on and
# make sure the exported Chrome trace parses, has balanced begin/end
# pairs, and dropped nothing (--strict-drops: a truncated timeline would
# silently skew every profile number downstream).
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
(cd "$SMOKE_DIR" && "$OLDPWD"/target/release/exp_e1_pure_frontier --profile --trace e1.json > /dev/null 2> /dev/null)
target/release/defender bench validate-trace "$SMOKE_DIR/e1.json" --strict-drops

echo "== profile analytics gate =="
# Replay the fresh trace through defender-profile. `defender profile`
# exits 2 if the wall-clock accounting invariant fails (some lane's root
# spans sum past the trace duration — a broken clock or replay), so this
# is an end-to-end sanity gate on the obs -> trace -> profile pipeline.
target/release/defender profile "$SMOKE_DIR/e1.json" > /dev/null
# Span-level regression gate: the --sidecar profile (BENCH_profile_e1.json)
# diffs against the committed baseline, counters only. The baseline is
# pruned to the jobs-invariant `prof.calls.*` rows — self-times are
# machine-sensitive and show up as informational NEW rows.
(cd "$SMOKE_DIR" && "$OLDPWD"/target/release/defender profile e1.json --sidecar > /dev/null)
target/release/defender bench diff \
  baselines/BENCH_profile_e1.json \
  "$SMOKE_DIR/BENCH_profile_e1.json" \
  --counters-only

echo "== profile jobs-invariance check =="
# The profile of a run must be independent of the pool width for every
# jobs-invariant field: `par.worker` frames are elided, so a --jobs 1
# and a --jobs 4 trace of the same experiment must agree on the span
# set, call counts, and flamegraph shape (worker utilization is allowed
# to differ and lives in the parallelism sidecar section instead).
JOBS_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$JOBS_DIR"' EXIT
(cd "$JOBS_DIR" && "$OLDPWD"/target/release/exp_e1_pure_frontier --jobs 1 --trace j1.json > /dev/null)
(cd "$JOBS_DIR" && "$OLDPWD"/target/release/exp_e1_pure_frontier --jobs 4 --trace j4.json > /dev/null)
target/release/defender profile "$JOBS_DIR/j1.json" --format json > "$JOBS_DIR/p1.json"
target/release/defender profile "$JOBS_DIR/j4.json" --format json > "$JOBS_DIR/p4.json"
for p in p1 p4; do
  grep -o '"name": "[^"]*", "calls": [0-9]*' "$JOBS_DIR/$p.json" > "$JOBS_DIR/$p.spans"
  grep -o '"path": "[^"]*", "calls": [0-9]*' "$JOBS_DIR/$p.json" > "$JOBS_DIR/$p.flame"
done
diff "$JOBS_DIR/p1.spans" "$JOBS_DIR/p4.spans"
diff "$JOBS_DIR/p1.flame" "$JOBS_DIR/p4.flame"

echo "== parallel suite smoke test =="
# Run the whole suite on a two-worker pool with tracing on: the exported
# timeline must keep per-thread stack discipline and really span the
# worker lanes (main thread + at least one worker).
SUITE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$JOBS_DIR" "$SUITE_DIR"' EXIT
(cd "$SUITE_DIR" && "$OLDPWD"/target/release/run_all_experiments --jobs 2 --trace trace.json > /dev/null)
target/release/defender bench validate-trace "$SUITE_DIR/trace.json" --min-threads 2

echo "== bench regression gate =="
# Compare the sidecar the smoke run just wrote against the committed
# baseline, judging only the deterministic counters: wall times are
# machine-sensitive (a slower CI runner is not a regression), while
# counters are exact algorithm work. Same-machine comparisons can rerun
# this without --counters-only for the time-aware gate.
target/release/defender bench diff \
  baselines/BENCH_e1_pure_frontier.json \
  "$SMOKE_DIR/BENCH_e1_pure_frontier.json" \
  --counters-only

# Second baseline: the value atlas drives the support-enumeration and
# deferred-reduction kernels, so its sidecar pins `se.pairs_tested` /
# `num.*` — any counter growing past the threshold (a pruning or fast-path
# regression) fails the gate. The suite smoke run above already wrote the
# fresh sidecar.
target/release/defender bench diff \
  baselines/BENCH_e15_value_atlas.json \
  "$SUITE_DIR/BENCH_e15_value_atlas.json" \
  --counters-only

echo "== sweep shard-width identity gate =="
# Run E1 as a sharded sweep at widths 1 and 3: the merged sidecars'
# `counters` objects must be byte-identical (every counter increment is
# attributable to exactly one corpus instance, so per-shard counters sum
# exactly — DESIGN.md §14). This is the cross-process analogue of the
# jobs-invariance check above.
SWEEP_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$JOBS_DIR" "$SUITE_DIR" "$SWEEP_DIR"' EXIT
target/release/defender sweep e1 --shards 1 --out "$SWEEP_DIR/w1" --quiet \
  --bin-dir target/release
target/release/defender sweep e1 --shards 3 --out "$SWEEP_DIR/w3" --quiet \
  --bin-dir target/release
for w in w1 w3; do
  grep -o '"counters": {[^}]*}' "$SWEEP_DIR/$w/BENCH_e1_pure_frontier.json" \
    > "$SWEEP_DIR/$w.counters"
done
diff "$SWEEP_DIR/w1.counters" "$SWEEP_DIR/w3.counters"
# The sharded counters must also match the unsharded smoke run's sidecar
# exactly — sharding may not change what is measured.
grep -o '"counters": {[^}]*}' "$SMOKE_DIR/BENCH_e1_pure_frontier.json" \
  > "$SWEEP_DIR/plain.counters"
diff "$SWEEP_DIR/plain.counters" "$SWEEP_DIR/w3.counters"

echo "== sweep kill-and-resume smoke =="
# Interrupt a 3-shard sweep with a real SIGKILL mid-run (workers
# serialized with --parallel 1 so at least one shard seals a checkpoint
# first), then resume it: the resumed merge must be byte-identical to the
# uninterrupted width-3 merge above. The shard PID files and DONE markers
# exist for exactly this kind of smoke test.
target/release/defender sweep e1 --shards 3 --out "$SWEEP_DIR/kr" --quiet \
  --parallel 1 --bin-dir target/release &
SWEEP_PID=$!
for _ in $(seq 1 200); do
  [[ -f "$SWEEP_DIR/kr/shard_0/DONE" ]] && break
  sleep 0.05
done
[[ -f "$SWEEP_DIR/kr/shard_0/DONE" ]] || { echo "shard 0 never checkpointed"; exit 1; }
kill -KILL "$SWEEP_PID" 2> /dev/null || true
wait "$SWEEP_PID" 2> /dev/null || true
# Reap any orphaned worker the kill left behind before resuming.
if [[ -f "$SWEEP_DIR/kr/shard_1/PID" ]]; then
  kill -KILL "$(cat "$SWEEP_DIR/kr/shard_1/PID")" 2> /dev/null || true
fi
# On a fast machine the sweep can finish before the kill lands; the
# resume below then exercises the all-checkpoints path instead (still a
# valid byte-identity check), so note it rather than fail.
if [[ -f "$SWEEP_DIR/kr/BENCH_e1_pure_frontier.json" ]]; then
  echo "note: sweep finished before the kill; resuming a complete sweep"
fi
target/release/defender sweep e1 --shards 3 --resume "$SWEEP_DIR/kr" --quiet \
  --bin-dir target/release
grep -o '"counters": {[^}]*}' "$SWEEP_DIR/kr/BENCH_e1_pure_frontier.json" \
  > "$SWEEP_DIR/kr.counters"
diff "$SWEEP_DIR/w3.counters" "$SWEEP_DIR/kr.counters"

echo "== equilibrium cache gate =="
# Run E15 twice against the same --cache directory. The first run fills
# the memo (one entry per isomorphism class); the second must be served
# entirely from it: `cache.misses` never ticks and `cache.hits` covers
# the whole atlas. Delta replay keeps the judged `counters` object
# byte-identical between the two runs — cache warmth must be invisible
# to the regression gate (DESIGN.md §15).
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$JOBS_DIR" "$SUITE_DIR" "$SWEEP_DIR" "$CACHE_DIR"' EXIT
mkdir "$CACHE_DIR/cold" "$CACHE_DIR/warm"
(cd "$CACHE_DIR/cold" && "$OLDPWD"/target/release/exp_e15_value_atlas --cache "$CACHE_DIR/memo" > /dev/null)
(cd "$CACHE_DIR/warm" && "$OLDPWD"/target/release/exp_e15_value_atlas --cache "$CACHE_DIR/memo" > /dev/null)
for r in cold warm; do
  grep -o '"counters": {[^}]*}' "$CACHE_DIR/$r/BENCH_e15_value_atlas.json" \
    > "$CACHE_DIR/$r.counters"
done
diff "$CACHE_DIR/cold.counters" "$CACHE_DIR/warm.counters"
grep -q '"cache.misses": [1-9]' "$CACHE_DIR/cold/BENCH_e15_value_atlas.json" \
  || { echo "cold run never missed the cache — the gate is not exercising it"; exit 1; }
if grep -q '"cache.misses": [1-9]' "$CACHE_DIR/warm/BENCH_e15_value_atlas.json"; then
  echo "warm run still missed the cache"; exit 1
fi
WARM_HITS="$(grep -o '"cache.hits": [0-9]*' "$CACHE_DIR/warm/BENCH_e15_value_atlas.json" | grep -o '[0-9]*$')"
[[ "${WARM_HITS:-0}" -gt 0 ]] || { echo "warm run reported no cache hits"; exit 1; }

echo "== serve gate =="
# Cold-then-warm load against one server cache directory (DESIGN.md §16).
# The loadgen asserts the warmth contract itself (--expect cold: one
# cache miss per distinct class; --expect warm: every response a hit,
# zero cache.misses delta, zero lp.simplex.pivots delta — a warm server
# does no solver work), and the two sidecars' judged `counters` objects
# must be byte-identical: the judged view is a pure function of the
# served class set, never of warmth, --jobs, or arrival order. The warm
# server runs at a different --jobs width to pin the jobs-invariance
# half of that claim in the same diff.
SERVE_DIR="$(mktemp -d)"
SERVE_PID=""
trap 'kill "$SERVE_PID" 2> /dev/null || true; rm -rf "$SMOKE_DIR" "$JOBS_DIR" "$SUITE_DIR" "$SWEEP_DIR" "$CACHE_DIR" "$SERVE_DIR"' EXIT
mkdir "$SERVE_DIR/cold" "$SERVE_DIR/warm"

serve_start() { # serve_start <logfile> <extra flags...>
  local log="$1"; shift
  target/release/defender serve --addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 200); do
    grep -q '^listening ' "$log" && break
    sleep 0.05
  done
  SERVE_ADDR="$(grep -m1 '^listening ' "$log" | awk '{print $2}')"
  [[ -n "$SERVE_ADDR" ]] || { echo "server never printed its address"; cat "$log"; exit 1; }
}

serve_start "$SERVE_DIR/cold.log" --cache "$SERVE_DIR/memo"
(cd "$SERVE_DIR/cold" && "$OLDPWD"/target/release/exp_serve_load \
  --addr "$SERVE_ADDR" --expect cold --shutdown > /dev/null)
wait "$SERVE_PID"

serve_start "$SERVE_DIR/warm.log" --cache "$SERVE_DIR/memo" --jobs 3
(cd "$SERVE_DIR/warm" && "$OLDPWD"/target/release/exp_serve_load \
  --addr "$SERVE_ADDR" --expect warm --shutdown > /dev/null)
wait "$SERVE_PID"

for r in cold warm; do
  grep -o '"counters": {[^}]*}' "$SERVE_DIR/$r/BENCH_serve.json" > "$SERVE_DIR/$r.counters"
done
diff "$SERVE_DIR/cold.counters" "$SERVE_DIR/warm.counters"
# Gate the judged counters against the committed baseline: a drift in the
# per-class solve work (pivots, enumerations, kernel fast paths) for the
# fixed seeded load mix is an algorithmic regression.
target/release/defender bench diff \
  baselines/BENCH_serve.json \
  "$SERVE_DIR/cold/BENCH_serve.json" \
  --counters-only

echo "== serve overload gate =="
# A tiny queue and a long batch window force the load governor's hand:
# the loadgen's warm-up solve starts a round, at most one round starts
# per window, so the flood of distinct fresh classes right behind it
# queues and must shed with 429 + Retry-After past the watermark while an already-warm class keeps answering 200
# hits (the loadgen asserts all three, and shuts the server down even on
# its failure path).
serve_start "$SERVE_DIR/overload.log" --max-queue 4 --batch-window-ms 400
target/release/exp_serve_load --addr "$SERVE_ADDR" \
  --overload --clients 8 --requests 32 --shutdown > /dev/null
wait "$SERVE_PID"
SERVE_PID=""

echo "CI OK"
