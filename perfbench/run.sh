#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --all --seed <n> --seconds <s> --trace <0|1>
# --all runs every workload in turn and exits non-zero if any check failed.
# The build goes to $CARGO_TARGET_DIR (default .bench_build) and its output
# to stderr, so the last stdout line of a run is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target" >&2
bin="$target/release/perfbench"
if [ "${1:-}" = "--all" ]; then
    shift
    status=0
    for workload in reptile-d5 redeem-r3x4 closet-m-pooled serve-d2; do
        echo "== $workload"
        "$bin" --workload "$workload" "$@" || status=1
    done
    exit "$status"
fi
exec "$bin" "$@"
