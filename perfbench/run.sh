#!/usr/bin/env bash
# Builds the `mime` CLI and the benchmark from source, then runs one
# benchmark workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload <serve-mix|batch-mix|vgg224-singular> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# result is the last line of standard output.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a MIME checkout (crates/ not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p mime-cli >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
