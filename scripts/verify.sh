#!/usr/bin/env bash
# One-command verification of the whole reproduction: build (offline),
# lint, test, build and smoke-run the wall-clock benchmark (perfbench),
# regenerate every table once into a run artifact, self-diff it, and
# check it against the committed baseline.
#
# Usage: scripts/verify.sh [--full] [--threads]
#   --full     use paper-scale iteration counts for the table run, and
#              run the logdisk retention-pass differential at 200 seeds
#              (the generated-program differential runs 200 seeds in
#              the workspace test step already)
#   --threads  long conformance pass: replay the threaded server
#              against the deterministic reference for 200 seeds and
#              run the wire fuzzer at 200 seeds (release)
#
# Every table verdict comes from one `graftstat check`: the typed gates
# each table records in the artifact, and every sample of
# BENCH_baseline.json held to the run within a 200% `min_ns` envelope
# (see docs/telemetry.md). Exits nonzero on the first failing step. Safe
# on an air-gapped machine: the workspace has no external dependencies.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=--quick
THREADS=0
for arg in "$@"; do
    if [ "$arg" = --full ]; then
        MODE=--full
    elif [ "$arg" = --threads ]; then
        THREADS=1
    else
        echo "unknown flag: $arg" >&2
        exit 2
    fi
done

ART=$(mktemp /tmp/graft-verify-XXXXXX.json)
trap 'rm -f "$ART"' EXIT

bench() { cargo run --release --offline -q -p graft-bench --bin "$@"; }

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Only graft-server is held to rustfmt so far; the rest of the tree
# predates the check.
echo "==> cargo fmt -p graft-server --check"
cargo fmt -p graft-server --check

echo "==> cargo test --offline --workspace"
cargo test -q --offline --workspace

# perfbench, the wall-clock benchmark BENCHMARK.json declares, is a
# workspace of its own, so the steps above never compile it: build it,
# run its unit tests, and run one short traced grafts smoke. The smoke
# exits nonzero when an oracle or a layer breakdown fails; its last
# line is the JSON result, which explains the failure.
perf() { CARGO_TARGET_DIR=.bench_build cargo "$1" --offline --manifest-path perfbench/Cargo.toml "${@:2}"; }

# Prints `correct`, `failed` and every `breakdown.*` ratio outside
# 1 +- 0.5 (perfbench's tolerance) from a perfbench result line.
# perfbench prints plain decimals, so each ratio is compared in units
# of 1e-12 with shell arithmetic.
smoke_failures() {
    grep -o '"correct": [a-z]*' <<<"$1" || echo "no result line"
    grep -o '"failed": [0-9]*' <<<"$1" || true
    { grep -o '"breakdown\.[^"]*": {"value": -\?[0-9.]*' <<<"$1" || true; } | while IFS= read -r kv; do
        local name=${kv%%\":*} value=${kv##* }
        local whole=${value%%.*} frac=${value#*.}000000000000
        local units=$((10#${whole#-} * 10 ** 12 + 10#${frac:0:12}))
        if [[ $value == -* ]]; then
            units=$((-units))
        fi
        if ((units < 5 * 10 ** 11 || units > 15 * 10 ** 11)); then
            echo "${name#\"} = $value (outside 1 +- 0.5)"
        fi
    done
}

echo "==> perfbench: build, unit tests, 3 s traced grafts smoke"
perf build --release
perf test -q --release
if ! SMOKE=$(perf run --release -q -- --workload grafts --seed 1 --seconds 3 --trace 1 | tail -n 1); then
    echo "perfbench smoke failed:" >&2
    smoke_failures "$SMOKE" >&2
    exit 1
fi
smoke_failures "$SMOKE"

# Threaded-server conformance: the live worker plane must be
# indistinguishable from the deterministic single-threaded replay, and
# the framing layer must survive a seeded mutation barrage without
# leaking tenant state. The 48/64-seed versions already ran in the
# workspace test step; --threads buys the long pass.
if [ "$THREADS" = 1 ]; then
    echo "==> threaded conformance, 200 seeds (release)"
    GRAFT_CONFORMANCE_SEEDS=200 cargo test -q --offline --release \
        -p graft-server --test threaded_conformance
    echo "==> wire fuzz, 200 seeds (release)"
    GRAFT_FUZZ_SEEDS=200 cargo test -q --offline --release \
        -p graft-server --test wire_fuzz
fi

# Retention passes vs a reference built from the write stream alone.
# The 64-seed version already ran in the workspace test step; --full
# buys the long pass.
if [ "$MODE" = --full ]; then
    echo "==> logdisk retention-pass differential, 200 seeds (release)"
    GRAFT_LD_MERGE_SEEDS=200 cargo test -q --offline --release -p logdisk \
        --test proptest_ld retention_passes_match_a_reference_built_from_the_write_stream
fi

echo "==> all tables ($MODE --offline) into one run artifact"
bench all -- "$MODE" --offline --json "$ART" > /dev/null

echo "==> graftstat self-diff (must report zero drift)"
bench graftstat -- "$ART" "$ART" --threshold 0 | tail -n 1

echo "==> graftstat check against BENCH_baseline.json"
bench graftstat -- check BENCH_baseline.json "$ART"

echo "verify: OK"
