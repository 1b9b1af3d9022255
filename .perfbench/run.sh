#!/usr/bin/env bash
# Builds the benchmark and the unmodified `lb-serve` binary from source,
# then runs the benchmark with the given arguments, e.g.
#   bash .perfbench/run.sh --workload solve_join --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p lb-serve --bin lb-serve >&2
cargo build --release --offline --quiet --manifest-path .perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
