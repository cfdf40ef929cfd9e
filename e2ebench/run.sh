#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root: the benchmark builds against ../crates and
# keeps its scratch files under .bench_work/. The build goes to
# $CARGO_TARGET_DIR (default .bench_build/); its output goes to stderr, so
# the benchmark's result line stays the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@"
