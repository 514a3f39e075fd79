#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   scripts/tier1.sh
#
# Runs the release build, the full test suite, clippy and rustdoc with
# warnings denied, and the smokes and gates below, stopping at the first
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The packed GEMM engine packs each panel group once per launch, by the
# first worker that needs it, while the others wait and then share it.
# Rerun its tests with one worker and with more workers than this
# container has cores, so that hand-off runs whatever the host.
for workers in 1 4; do
    echo "==> pack_property + fast_path (RAYON_NUM_THREADS=$workers)"
    RAYON_NUM_THREADS=$workers cargo test -q -p aabft-gpu-sim --test pack_property
    RAYON_NUM_THREADS=$workers cargo test -q -p aabft-faults --test fast_path
done

# The committed experiment outputs must still be what the binaries
# print: a change that moves a table or an ablation has to regenerate it.
echo "==> results check"
scripts/check_results.sh

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
# The packed clean-path engine (pack module + microkernel) gets an
# explicit pass so a lint regression there names the right crate.
cargo clippy -p aabft-gpu-sim --all-targets -- -D warnings
# Telemetry (snapshotter + histogram percentiles) likewise gets a named
# pass: its property tests live under --all-targets.
cargo clippy -p aabft-obs --all-targets -- -D warnings
# The typed GemmRequest batch API and the macro-parallel dispatch live in
# aabft-core; a named pass keeps lint regressions on the new surface loud.
cargo clippy -p aabft-core --all-targets -- -D warnings
# The service layer (queue, ladder, breaker, chaos bench) likewise.
cargo clippy -p aabft-serve --all-targets -- -D warnings

# Rustdoc with warnings denied: an intra-doc link to a deleted or private
# item, or an ambiguous one, fails the build instead of rendering as
# plain text.
echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Deterministic-seed fault-campaign smoke: exponent flips must stay >= 90%
# detected on the plain scheme, and the self-healing executor must release
# no critically wrong product (zero silent SDC) and exhaust no budget,
# whether faults strike the GEMM arithmetic or the checksum rows in memory.
echo "==> fault-campaign smoke (seeded)"
aabft="cargo run --release -q -p aabft-cli --bin aabft --"
$aabft campaign --n 32 --bs 8 --trials 100 --seed 7 --region exponent \
    --scheme aabft --assert-min-detection 90
$aabft campaign --n 32 --bs 8 --trials 100 --seed 7 --region exponent \
    --selfheal true --scope sites \
    --assert-zero-sdc true --assert-zero-unrecovered true
$aabft campaign --n 32 --bs 8 --trials 60 --seed 11 --region exponent \
    --selfheal true --scope mem-checksum \
    --assert-zero-sdc true --assert-zero-unrecovered true

# Run-health telemetry smoke: a snapshotted campaign followed by `aabft
# report` over its artifacts. The report gates detection >= 90%, headroom
# p99 < 1.0, zero silent SDC and zero unrecovered trials, and cross-checks
# the snapshot aggregates against the campaign's own DetectionStats.
echo "==> run-health report smoke (seeded)"
$aabft campaign --n 32 --bs 8 --trials 60 --seed 13 --region exponent \
    --selfheal true --scope check \
    --snapshot target/SNAP_smoke.jsonl --snapshot-every 20 \
    --json target/CAMPAIGN_smoke.json
$aabft report --snapshots target/SNAP_smoke.jsonl \
    --campaign target/CAMPAIGN_smoke.json \
    --assert-min-detection 90 --assert-headroom-p99 1.0 \
    --assert-zero-sdc true --assert-zero-unrecovered true

# Dual-path smoke: tiny clean-vs-instrumented bench run. The binary itself
# asserts that fault-free runs engage the clean path (clean_path_launches
# > 0), that a forced device never does, that both paths produce
# bit-identical products, and (--assert-dispatch) that an armed fault plan
# keeps the counter flat. No speedup floor at these tiny sizes — the full
# perf numbers live in BENCH_gemm.json.
echo "==> dual-path bench smoke"
cargo run --release -q -p aabft-bench --bin bench_gemm -- \
    --sizes 64,128 --reps 1 --engine packed --instrumented true \
    --json target/BENCH_smoke.json --assert-dispatch true

# Packed-engine gate: the packed clean engine must beat the PR-4 scalar
# body by >= 2.5x on identical inputs (bit-identity is asserted inside),
# and the fused encode+gemm epilogue must run the clean pipeline in 4
# dispatches with packed-block telemetry advancing.
echo "==> packed engine gate"
cargo run --release -q -p aabft-bench --bin bench_gemm -- \
    --sizes 1024 --reps 2 --engine both --instrumented false \
    --json target/BENCH_packed_gate.json \
    --assert-speedup 2.5 --assert-dispatch packed

# Thread-scaling gate: the macro-parallel clean path (DESIGN §14) must
# race all hardware threads (--threads 0) against a single worker at
# n=2048 and win by >= 2.0x. bench_gemm adapts the floor to the host —
# min(2.0, 0.7 * hw_threads) — and skips the race entirely when the
# worker counts collapse (single-core container), so this line is safe
# everywhere while still biting on real multicore machines.
echo "==> thread-scaling gate"
cargo run --release -q -p aabft-bench --bin bench_gemm -- \
    --sizes 2048 --reps 2 --engine packed --instrumented false \
    --threads 1,0 --json target/BENCH_threads_gate.json \
    --assert-speedup 2.0

# Serving smoke (DESIGN §15): a seeded fault storm against the server at
# two load levels. Gates: zero SDC released, at least one request shed at
# admission (queue-cap 8 under blast), and a full escalation-ladder round
# trip (escalates under the storm, de-escalates in the quiet cooldown).
# The bench itself additionally asserts per level that every accepted
# request resolves to exactly one terminal outcome, and exits non-zero on
# any panic in the dispatcher.
echo "==> serve smoke (seeded storm)"
$aabft serve --n 16 --bs 4 --rates 400,0 --requests 90 --queue-cap 8 \
    --storm true --storm-every 1 --cooldown 150 --quiet-ticks 2 \
    --batch-ms 30000 --interactive-ms 30000 \
    --json target/BENCH_serve_smoke.json \
    --assert-zero-sdc true --assert-shed true --assert-ladder true

# Heterogeneous-fleet storm: the same seeded storm over a packed 26-SM
# replica and a scalar 6-SM one. Under pull dispatch either replica takes
# whatever wave is oldest, so both engines serve storm traffic. Gates zero
# SDC; the bench itself asserts that every accepted request resolves to
# exactly one terminal outcome.
echo "==> serve heterogeneous-fleet storm (seeded)"
$aabft serve --replicas 26:packed,6:scalar --n 16 --bs 4 --rates 400,0 \
    --requests 90 --storm true --storm-every 1 --cooldown 150 --quiet-ticks 2 \
    --batch-ms 30000 --interactive-ms 30000 --seed 7 \
    --json target/BENCH_serve_het_smoke.json \
    --assert-zero-sdc true

# Bench regression gate: a fresh packed measurement at n=1024 must stay
# within 15% of the committed BENCH_gemm.json baseline's GFLOP/s.
# 5 reps: min-of-N needs a few samples to shake off container timing
# noise before the 15% band is trustworthy.
echo "==> bench regression gate"
cargo run --release -q -p aabft-bench --bin bench_check -- \
    --baseline BENCH_gemm.json --n 1024 --reps 5 --max-regress 15

echo "tier-1: all green"
