#!/usr/bin/env bash
# Builds the release `bagcons` binary and the benchmark from source, then
# runs the benchmark. Run from the repository root:
#
#   bash bagbench/run.sh --workload acyclic_cli --seed 1 --seconds 20 --trace 0
#   bash bagbench/run.sh --selftest
#
# Build output goes to stderr; stdout carries only the benchmark's own
# lines, the last of which is the result. Builds land in
# $CARGO_TARGET_DIR (default .bench_build); the benchmark package gets its
# own subdirectory so the two workspaces never evict each other's
# artifacts.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin bagcons \
    --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path bagbench/Cargo.toml \
    --target-dir "$target/bagbench" >&2
exec "$target/bagbench/release/bagbench" --bin "$target/release/bagcons" "$@"
