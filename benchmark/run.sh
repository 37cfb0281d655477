#!/usr/bin/env bash
# Builds diagbench in release mode, offline, and runs it from the
# repository root. See README.md for the three ways to call it:
#   run.sh --workload W --seed N --seconds S --trace 0|1    one run
#   run.sh [--seed N] [--reps N] [--workload W] [--twice] [--record]
#   run.sh compare a.json b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/diagbench" "$@"
