#!/usr/bin/env bash
# Builds the benchmark and the `served` daemon it spawns into one target
# directory, then runs one workload. Run from the repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload W --seed S \
#       [--seconds N] [--trace 0|1|SPANS.json] [--smoke]
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p ocapi-serve --bin served
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
