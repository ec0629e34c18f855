#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the suite from source (offline:
# every crates.io dependency is patched to a stand-in under standins/), then
# run one workload. The driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The last line on stdout is the result object; everything else goes to stderr.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/suite" bench "$@"
