#!/usr/bin/env bash
# Run cargo on the root workspace with no crates registry: a scratch
# workspace symlinks the live sources and patches every crates.io
# dependency to a stand-in (suite/standins/ for what the engine needs,
# scripts/standins/ for proptest and criterion, which only tests and
# benches use; STANDINS=<dir> points at another pair).
#
#   scripts/offline-test.sh                       # cargo test --release --offline --workspace,
#                                                 # then gserver's server suite at 1 and 4 net workers
#   scripts/offline-test.sh test -p pmem txlog    # any cargo subcommand + args
#   scripts/offline-test.sh build -p bench --bins -p gserver --bins
#
# Nothing is written into the repo: target/ and Cargo.lock land in $WS.
set -euo pipefail
REPO=$(cd "$(dirname "$0")/.." && pwd)
WS=${WS:-/root/scratch/ws}
STANDINS=${STANDINS:-$REPO/scripts/standins}

for c in proptest criterion; do
    [ -f "$STANDINS/$c/Cargo.toml" ] || { echo "missing stand-in: $STANDINS/$c" >&2; exit 1; }
done
mkdir -p "$WS"
for d in crates tests src examples; do ln -sfn "$REPO/$d" "$WS/$d"; done
{
    cat "$REPO/Cargo.toml"
    echo
    echo "[patch.crates-io]"
    for c in parking_lot memmap2 libc rand rand_distr \
             cranelift-codegen cranelift-frontend cranelift-native; do
        echo "$c = { path = \"$REPO/suite/standins/$c\" }"
    done
    for c in proptest criterion; do
        echo "$c = { path = \"$STANDINS/$c\" }"
    done
} > "$WS/Cargo.toml"

cd "$WS"
if [ $# -eq 0 ]; then
    cargo test --release --offline --workspace
    # As CI does: the server suite again with one lane and with four net
    # workers (in release like everything here — the lane tests bound
    # latencies, which a debug build does not keep).
    for n in 1 4; do
        PMEMGRAPH_NET_WORKERS=$n cargo test --release --offline -p gserver --test server
    done
    exit
fi
cmd=$1; shift
exec cargo "$cmd" --release --offline "$@"
