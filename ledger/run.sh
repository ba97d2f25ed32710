#!/usr/bin/env bash
# Builds the ledger and the `dar` binary it drives (release, offline) and
# runs the ledger with the given arguments. Run from the repository root:
#
#   bash ledger/run.sh --workload query-mix --seed 7 --seconds 15 --trace 0
#
# The build lands in $CARGO_TARGET_DIR when set, else in ledger/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/ledger" "$@"
