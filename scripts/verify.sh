#!/usr/bin/env bash
# The repo's verification gate, runnable with no network access:
# tier-1 (ROADMAP.md) plus formatting and lints. CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace has no external dependencies and commits its Cargo.lock,
# so --offline must always work; using it here keeps the gate honest.
export CARGO_NET_OFFLINE=true

echo "== tier-1: cargo build --release =="
cargo build --release --offline --workspace

echo "== tier-1: cargo test -q =="
cargo test -q --offline --workspace

echo "== tvbench tests: the benchmark against the current crates =="
# tvbench is a workspace of its own (BENCHMARK.json), so the tier-1
# `cargo test` never builds it. Its tests run every workload at smoke
# scale through `tvbench/src/sut.rs`, so a tv-core API change that
# breaks the benchmark fails here rather than at the next benchmark run.
cargo test --offline --manifest-path tvbench/Cargo.toml

echo "== examples build =="
# The examples are documentation that compiles; tier-1 alone never
# builds them, so an API drift can silently rot them without this.
cargo build --offline --examples

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings =="
# Broken, ambiguous, or private intra-doc links fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== bench smoke: perf trajectory vs BENCH_TRAJECTORY.json =="
# Fixed smoke suite over the acceptance benchmarks, gated at 2x against
# the latest run appended to the committed trajectory (current-run min
# vs baseline median, so noisy hosts can only produce false passes).
# The suite runs with instrumentation disabled, so this gate is also
# the proof that the tv_obs hot-path checks cost nothing measurable.
# It additionally gates the noise-free counter plane: the warm mips32
# resize's propagate.relaxations must stay under half the cold analyze
# count, or the demand-driven cone engine has stopped engaging.
# Append a new labeled run after an intentional perf change with:
#   cargo run --release --offline -p tv-bench --bin perf_trajectory -- \
#     --out BENCH_TRAJECTORY.json --label prN-short-description
cargo run --release --offline -p tv-bench --bin perf_trajectory -- --check BENCH_TRAJECTORY.json --threshold 2.0

echo "== batch smoke: tv batch vs golden transcript =="
# The committed session script must replay to its committed transcript
# byte for byte: pins the session protocol, the report fingerprints, and
# the pass-pipeline invalidation trace in one diff.
cargo run --release --offline --bin tv -- batch tests/data/session_smoke.txt \
  | diff -u tests/data/session_smoke.golden -

echo "== metrics smoke: deterministic counter golden =="
# The committed metrics script replays to its committed transcript byte
# for byte: pins the `metrics` reply shape and the counter values for a
# fixed edit sequence — including that the warm marks' work plane
# shrinks against the cold one once the demand-driven cone engine
# engages (the cone.* counters in the golden record by how much).
cargo run --release --offline --bin tv -- batch tests/data/metrics_smoke.txt \
  | diff -u tests/data/metrics_smoke.golden -

echo "== cone smoke: warm edits are O(affected cone) =="
# The committed MIPS-class transcript is the acceptance evidence for
# demand-driven cone propagation: the warm single-resize re-analysis
# records under 10% of the cold run's propagate.relaxations, with every
# report fingerprint bit-identical to the full walk's.
cargo run --release --offline --bin tv -- batch tests/data/cone_smoke.txt \
  | diff -u tests/data/cone_smoke.golden -

echo "== extract smoke: hierarchical macromodels share and de-share =="
# The committed transcript pins hierarchical extraction (DESIGN.md §16):
# the cold mips32 analyze groups stages into equivalence classes and
# analyzes one master per class (macro.analyzed well under the stage
# count), a parametric resize de-shares exactly one instance per phase
# graph, and the report fingerprints stay bit-identical to the flat
# path throughout.
# The replay must hold at --jobs 1/2/8: the class partition and the
# emitted arcs are independent of the thread count.
for j in 1 2 8; do
  cargo run -q --release --offline --bin tv -- batch tests/data/extract_smoke.txt --jobs "$j" \
    | diff -u tests/data/extract_smoke.golden -
done

echo "== race smoke: same-phase race-through vs golden =="
# The committed .sim holds a same-phase series pair in each phase and a
# same-phase latch ring whose latest-arrival relaxation diverges. Its
# `analyze --check` render and exit status must match the golden at
# --jobs 1/2/8: races come from the arrival walk's early lane, which
# converges even where the late lane exhausts its budget.
for j in 1 2 8; do
  { cargo run -q --release --offline --bin tv -- analyze tests/data/race_smoke.sim --check \
      --jobs "$j" 2>&1 && echo "exit: 0" || echo "exit: $?"; } \
    | diff -u tests/data/race_smoke.golden -
done

echo "== ingest smoke: chunked parse identity + zero reallocs =="
# Generate a ~100k-device multi-core design with `tv gen`, parse it at
# --jobs 1/2/8, and require byte-identical reports, diagnostics, and
# metrics dumps (DESIGN.md §15). The jobs-1 dump must also show
# ingest.reallocs == 0: the pre-scan sized every arena exactly, so the
# hot parse loop performed no growth reallocation.
ingest_sim="$(mktemp /tmp/tv-ingest.XXXXXX.sim)"
ingest_dir="$(mktemp -d /tmp/tv-ingest.XXXXXX)"
trap 'rm -f "$ingest_sim"; rm -rf "$ingest_dir"' EXIT
cargo run --release --offline --bin tv -- gen --cores 7 --out "$ingest_sim"
# -q: the captured stderr must hold only tv's diagnostics, not cargo's
# own "Running ..." lines (which embed the per-jobs command line).
for j in 1 2 8; do
  cargo run -q --release --offline --bin tv -- flow "$ingest_sim" --jobs "$j" \
    --metrics "$ingest_dir/m$j.json" > "$ingest_dir/out$j.txt" 2> "$ingest_dir/err$j.txt"
done
for j in 2 8; do
  diff -u "$ingest_dir/out1.txt" "$ingest_dir/out$j.txt"
  diff -u "$ingest_dir/err1.txt" "$ingest_dir/err$j.txt"
  diff -u "$ingest_dir/m1.json" "$ingest_dir/m$j.json"
done
grep -q '"ingest.reallocs":0' "$ingest_dir/m1.json" \
  || { echo "ingest smoke: ingest.reallocs != 0"; exit 1; }

echo "== profile smoke: mips32 --trace round trip =="
# A full mips32 analyze must emit a Chrome trace that parses and whose
# spans nest; `tv trace-check` is the same validator the tests use.
trace_file="$(mktemp /tmp/tv-trace.XXXXXX.json)"
trap 'rm -f "$trace_file" "$ingest_sim"; rm -rf "$ingest_dir"' EXIT
cargo run --release --offline --bin tv -- demo --trace "$trace_file" > /dev/null
cargo run --release --offline --bin tv -- trace-check "$trace_file"

echo "== fuzz smoke: tv fuzz --iters 500 =="
# Deterministic mutation fuzzing of the ingest pipeline: zero panics,
# a diagnostic on every rejection. Offline, seeded, finishes in seconds.
cargo run --release --offline --bin tv -- fuzz --iters 500

echo "== chaos smoke: tv chaos --seeds 64 vs golden =="
# The fault-injection sweep: one seeded fault plan per seed against the
# fixed session workload, plus a journal cut-and-resume per seed. The
# committed golden pins the per-site outcome tally — any escaped panic,
# silent result divergence, or phantom recovery fails the diff and the
# sweep's own exit code.
# The same tally must hold at --jobs 2 and 8, where the worker-panic
# sites degrade parallel fan-outs instead of the serial fast path.
cargo run --release --offline --bin tv -- chaos --seeds 64 \
  | diff -u tests/data/chaos_smoke.golden -
for j in 2 8; do
  cargo run -q --release --offline --bin tv -- chaos --seeds 64 --jobs "$j" \
    | diff -u tests/data/chaos_smoke.golden -
done

echo "== fault fuzz smoke: tv fuzz --faults =="
# Randomized session scripts under seeded fault plans: every triggered
# fault must be absorbed, recovered, or loud — never a quiet corruption.
cargo run --release --offline --bin tv -- fuzz --faults

echo "== serve smoke: tv client vs golden over a live server =="
# Start a real `tv serve` on a unix socket, replay the committed client
# script against it, and diff the transcript against the golden — the
# serving plane's bit-identity promise (client transcript == `tv batch`
# transcript) checked end to end over an actual socket.
serve_sock="$(mktemp -u /tmp/tv-serve.XXXXXX.sock)"
./target/release/tv serve --unix "$serve_sock" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_sock" "$trace_file" "$ingest_sim"; rm -rf "$ingest_dir"' EXIT
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.1; done
[ -S "$serve_sock" ] || { echo "serve smoke: server socket never appeared"; exit 1; }
./target/release/tv client --unix "$serve_sock" tests/data/serve_smoke.txt \
  | diff -u tests/data/serve_smoke.golden -
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

echo "verify: OK"
