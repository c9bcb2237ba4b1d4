#!/usr/bin/env bash
# Builds `defender` and the benchmark from this tree, then runs the
# benchmark. Usage, from the repository root:
#   bash perfbench/run.sh --workload <serve_hot|serve_mixed|value_ladder|all> \
#     --seed <n> --seconds <s> --trace <0|1>
# Build output goes to $CARGO_TARGET_DIR, or perfbench/target when unset.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet -p defender-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --defender "$CARGO_TARGET_DIR/release/defender" "$@"
