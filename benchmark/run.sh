#!/usr/bin/env bash
# Builds the benchmark package from source and runs one workload:
#
#   bash benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#
# Run from the repository root. `--trace 1` selects the traced binary
# (per-layer metrics), anything else the untraced one (end-to-end
# metrics). Build output goes to $CARGO_TARGET_DIR, default .bench_build
# (listed in the root .gitignore). The last line of standard output is the
# result object.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bins --manifest-path "$here/Cargo.toml" >&2

bin=seer-benchmark
prev=
for arg in "$@"; do
    if [[ "$prev" == --trace && "$arg" == 1 ]]; then
        bin=seer-benchmark-trace
    fi
    prev="$arg"
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
