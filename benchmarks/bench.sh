#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's `command`): build the
# harness offline, then run one workload. Arguments go to the binary:
#   --workload NAME --seed N --seconds S --trace 0|1
# Run from anywhere; works in the repository root, where ../crates is.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmarks/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmarks/Cargo.toml --bin reassign-benchmark
exec "$target/release/reassign-benchmark" "$@"
