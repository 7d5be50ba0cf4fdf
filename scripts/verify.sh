#!/bin/sh
# One-command verification of the whole reproduction:
#   build (offline), test, emit a quick run artifact, self-diff it.
#
# Usage: scripts/verify.sh [--full] [--threads]
#   --full     use paper-scale iteration counts for the artifact run,
#              and run the generated-program differential and the
#              logdisk retention-pass differential at 200 seeds
#   --threads  long conformance pass: replay the threaded server
#              against the deterministic reference for 200 seeds and
#              run the wire fuzzer at 200 seeds (release)
#
# Exits nonzero on the first failure. Safe on an air-gapped machine:
# the workspace has no external dependencies.
set -eu

cd "$(dirname "$0")/.."

MODE=--quick
THREADS=0
for arg in "$@"; do
    case "$arg" in
        --full) MODE=--full ;;
        --threads) THREADS=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

ART=$(mktemp /tmp/graft-verify-XXXXXX.json)
T7ART=$(mktemp /tmp/graft-table7-XXXXXX.json)
T8ART=$(mktemp /tmp/graft-table8-XXXXXX.json)
T8OUT=$(mktemp /tmp/graft-table8-XXXXXX.txt)
T9ART=$(mktemp /tmp/graft-table9-XXXXXX.json)
T9OUT=$(mktemp /tmp/graft-table9-XXXXXX.txt)
T12ART=$(mktemp /tmp/graft-table12-XXXXXX.json)
T12OUT=$(mktemp /tmp/graft-table12-XXXXXX.txt)
T13ART=$(mktemp /tmp/graft-table13-XXXXXX.json)
T13OUT=$(mktemp /tmp/graft-table13-XXXXXX.txt)
T11ART=$(mktemp /tmp/graft-table11-XXXXXX.json)
T11OUT=$(mktemp /tmp/graft-table11-XXXXXX.txt)
T14ART=$(mktemp /tmp/graft-table14-XXXXXX.json)
T14OUT=$(mktemp /tmp/graft-table14-XXXXXX.txt)
trap 'rm -f "$ART" "$T7ART" "$T8ART" "$T8OUT" "$T9ART" "$T9OUT" "$T12ART" "$T12OUT" "$T13ART" "$T13OUT" "$T11ART" "$T11OUT" "$T14ART" "$T14OUT"' EXIT

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test --offline --workspace"
cargo test -q --offline --workspace

# Threaded-server conformance: the live worker plane must be
# indistinguishable from the deterministic single-threaded replay
# (reply sets, ledgers, standings, strike counts, stats), and the
# framing layer must survive a seeded mutation barrage without
# leaking tenant state. The 48/64-seed tier-1 versions already ran
# in the workspace test step; --threads buys the long pass.
if [ "$THREADS" = 1 ]; then
    echo "==> threaded conformance, 200 seeds (release)"
    GRAFT_CONFORMANCE_SEEDS=200 cargo test -q --offline --release \
        -p graft-server --test threaded_conformance
    echo "==> wire fuzz, 200 seeds (release)"
    GRAFT_FUZZ_SEEDS=200 cargo test -q --offline --release \
        -p graft-server --test wire_fuzz
fi

# Generated-program differential: every technology agrees on value or
# trap kind for seeded programs with loops, region traffic, calls and
# traps. The 32-seed version already ran in the workspace test step;
# --full buys the long pass.
if [ "$MODE" = --full ]; then
    echo "==> generated-program differential, 200 seeds (release)"
    GRAFT_DIFF_SEEDS=200 cargo test -q --offline --release \
        --test differential engines_agree_on_generated_programs
    # Retention passes vs a reference built from the write stream
    # alone, across crashes and redo (64 seeds in the workspace step).
    echo "==> logdisk retention-pass differential, 200 seeds (release)"
    GRAFT_LD_MERGE_SEEDS=200 cargo test -q --offline --release -p logdisk \
        --test proptest_ld retention_passes_match_a_reference_built_from_the_write_stream
fi

echo "==> regenerate all tables ($MODE --offline) with run artifact"
cargo run --release --offline -q -p graft-bench --bin all -- \
    "$MODE" --offline --json "$ART" > /dev/null

echo "==> graftstat self-diff (must report zero drift)"
cargo run --release --offline -q -p graft-bench --bin graftstat -- \
    "$ART" "$ART" | tail -1

echo "==> graftstat summary"
cargo run --release --offline -q -p graft-bench --bin graftstat -- "$ART" \
    | head -5

# Regression gate: fresh quick run vs the committed seed baseline.
# Shared-container timing is noisy, so the gate is generous (200%):
# it exists to catch order-of-magnitude regressions (a string lookup
# sneaking back onto a hot path), not scheduler jitter. One-sided keys
# alone (new samples such as the batched-upcall figure, absent from
# baselines that predate an ABI change) are reported but tolerated.
if [ -f BENCH_seed.json ]; then
    echo "==> graftstat regression gate vs BENCH_seed.json (threshold 200%)"
    GATE=$(cargo run --release --offline -q -p graft-bench --bin graftstat -- \
        BENCH_seed.json "$ART" --threshold 200) || {
        case "$GATE" in
            *"drift: 0 of"*) : ;; # no shared sample moved; only one-sided keys
            *)
                echo "$GATE"
                echo "regression gate FAILED"
                exit 1
                ;;
        esac
    }
    echo "$GATE" | tail -1
fi

# Graft-host containment gate: a fresh Table 7 churn run must keep its
# shared samples (per-technology baseline/post throughput, host
# machinery probes) within the same generous 200% envelope against the
# committed kernel baseline. Table 7 samples are absent from artifacts
# that predate the graft-host subsystem (BENCH_seed.json,
# BENCH_abi.json), so those keys show up one-sided above and are
# tolerated; this step is where they get real shared-sample gating.
echo "==> table7 churn run ($MODE --offline) with run artifact"
cargo run --release --offline -q -p graft-bench --bin table7 -- \
    "$MODE" --offline --json "$T7ART" > /dev/null

if [ -f BENCH_kernel.json ]; then
    echo "==> graftstat regression gate vs BENCH_kernel.json (threshold 200%)"
    GATE=$(cargo run --release --offline -q -p graft-bench --bin graftstat -- \
        BENCH_kernel.json "$T7ART" --threshold 200) || {
        case "$GATE" in
            *"drift: 0 of"*) : ;; # no shared sample moved; only one-sided keys
            *)
                echo "$GATE"
                echo "table7 regression gate FAILED"
                exit 1
                ;;
        esac
    }
    echo "$GATE" | tail -1
fi

# Sharded-dispatch gate: a fresh Table 8 run over the full shard
# ladder must (a) keep its shared samples within the 200% envelope
# against the committed shard baseline and (b) reproduce the headline:
# the in-kernel native row's aggregate throughput at 4 shards beats
# 1 shard by at least 2.5x (critical-path measurement; see
# docs/kernel.md "Sharded dispatch").
echo "==> table8 sharded-dispatch run ($MODE --offline) with run artifact"
cargo run --release --offline -q -p graft-bench --bin table8 -- \
    "$MODE" --offline --json "$T8ART" > "$T8OUT"

echo "==> native 4-shard speedup gate (>= 2.5x over 1 shard)"
awk '/in-kernel native/ {
         found = 1; s1 = $3; s4 = $5
         printf "    native: %.3f -> %.3f M accesses/s (%.2fx)\n", s1, s4, s4 / s1
         if (s4 / s1 < 2.5) bad = 1
     }
     END { exit (bad || !found) }' "$T8OUT" || {
    echo "table8 native speedup gate FAILED"
    exit 1
}

if [ -f BENCH_shard.json ]; then
    echo "==> graftstat regression gate vs BENCH_shard.json (threshold 200%)"
    GATE=$(cargo run --release --offline -q -p graft-bench --bin graftstat -- \
        BENCH_shard.json "$T8ART" --threshold 200) || {
        case "$GATE" in
            *"drift: 0 of"*) : ;; # no shared sample moved; only one-sided keys
            *)
                echo "$GATE"
                echo "table8 regression gate FAILED"
                exit 1
                ;;
        esac
    }
    echo "$GATE" | tail -1
fi

# Recovery gate: a fresh Table 9 run under the fixed chaos seed must
# (a) lose zero mappings — in every per-technology degraded-mode
# hand-off *and* in the fault-injected crash/rebuild drill — and
# (b) keep the degraded-mode service cost within 5% of a built-in that
# never failed over (post/base >= 0.95). Both quantities are
# deterministic under the seed (lost mappings are exact block
# comparisons; the hand-off cost is priced through the DiskModel, not
# wall-clock), so there are no retries: a miss is a regression.
echo "==> table9 recovery run ($MODE --offline, chaos seed 42) with run artifact"
cargo run --release --offline -q -p graft-bench --bin table9 -- \
    "$MODE" --offline --faults 42 --json "$T9ART" > "$T9OUT"

grep -q "lost mappings total: 0" "$T9OUT" || {
    cat "$T9OUT"
    echo "table9 zero-lost gate FAILED"
    exit 1
}

echo "==> degraded-mode hand-off gate (lost = 0, post/base >= 0.95)"
awk 'NR > 2 && /^[^ ]/ {
         rows += 1
         printf "    %-20s lost %s  post/base %s\n", $1, $(NF-1), $NF
         if ($(NF-1) + 0 != 0 || $NF + 0 < 0.95) bad = 1
     }
     END { exit (bad || rows < 6) }' "$T9OUT" || {
    echo "table9 hand-off gate FAILED"
    exit 1
}

if [ -f BENCH_recovery.json ]; then
    echo "==> graftstat regression gate vs BENCH_recovery.json (threshold 200%)"
    GATE=$(cargo run --release --offline -q -p graft-bench --bin graftstat -- \
        BENCH_recovery.json "$T9ART" --threshold 200) || {
        case "$GATE" in
            *"drift: 0 of"*) : ;; # no shared sample moved; only one-sided keys
            *)
                echo "$GATE"
                echo "table9 regression gate FAILED"
                exit 1
                ;;
        esac
    }
    echo "$GATE" | tail -1
fi

# Flight-recorder gate: a fresh Table 12 run prices the recorder on
# the Table 7 baseline rig in all three modes. The observability
# contract is (a) armed recording costs at most 10% per access in the
# worst technology row, and (b) the seeded quarantine drill
# reconstructs the *same* trapped-invocation tail from the scalar
# host's recorder and the 4-shard merged timeline (tails MATCH). The
# gated mode is reported but not gated here: its true cost is two
# relaxed atomic loads, far below shared-container timing noise.
echo "==> table12 flight-recorder run ($MODE --offline) with run artifact"
cargo run --release --offline -q -p graft-bench --bin table12 -- \
    "$MODE" --offline --json "$T12ART" > "$T12OUT"

echo "==> flight-recorder overhead gate (recording <= 10%)"
awk '/worst-case overhead/ {
         found = 1
         gsub(/[+%]/, "")
         printf "    gated %s%%  recording %s%%\n", $4, $7
         if ($7 + 0 > 10) bad = 1
     }
     END { exit (bad || !found) }' "$T12OUT" || {
    cat "$T12OUT"
    echo "table12 recording-overhead gate FAILED"
    exit 1
}

echo "==> postmortem drill gate (scalar and sharded tails MATCH)"
grep -q "tails MATCH" "$T12OUT" || {
    cat "$T12OUT"
    echo "table12 postmortem-drill gate FAILED"
    exit 1
}
grep "postmortem drill" "$T12OUT" | sed 's/^ */    /'

if [ -f BENCH_trace.json ]; then
    echo "==> graftstat regression gate vs BENCH_trace.json (threshold 200%)"
    GATE=$(cargo run --release --offline -q -p graft-bench --bin graftstat -- \
        BENCH_trace.json "$T12ART" --threshold 200) || {
        case "$GATE" in
            *"drift: 0 of"*) : ;; # no shared sample moved; only one-sided keys
            *)
                echo "$GATE"
                echo "table12 regression gate FAILED"
                exit 1
                ;;
        esac
    }
    echo "$GATE" | tail -1
fi

# Adaptive-dispatch gate: a fresh Table 13 run drives the skewed-load
# ladder through both dispatch planes. The contract is (a) on the 99/1
# trace the stealing plane beats static hash placement by at least
# 1.5x at 8 shards, and (b) stealing holds the per-shard processed
# imbalance at 16 shards to at most 5%. Both are deterministic under
# the seeded trace: the imbalance is exact item counts, and the
# speedup compares critical paths over identical work, far above the
# 1.5x bar (see docs/kernel.md "Adaptive dispatch").
echo "==> table13 adaptive-dispatch run ($MODE --offline) with run artifact"
cargo run --release --offline -q -p graft-bench --bin table13 -- \
    "$MODE" --offline --json "$T13ART" > "$T13OUT"

echo "==> steal speedup gate (99/1 @8 native >= 1.5x static)"
awk '/gate: 99-1 @8 native steal\/static/ {
         found = 1
         v = $NF; gsub(/x/, "", v)
         printf "    steal/static @8: %sx\n", v
         if (v + 0 < 1.5) bad = 1
     }
     END { exit (bad || !found) }' "$T13OUT" || {
    cat "$T13OUT"
    echo "table13 steal speedup gate FAILED"
    exit 1
}

echo "==> steal imbalance gate (99/1 @16 native <= 5%)"
awk '/gate: 99-1 @16 native steal imbalance/ {
         found = 1
         v = $NF; gsub(/%/, "", v)
         printf "    imbalance @16: %s%%\n", v
         if (v + 0 > 5) bad = 1
     }
     END { exit (bad || !found) }' "$T13OUT" || {
    cat "$T13OUT"
    echo "table13 steal imbalance gate FAILED"
    exit 1
}

if [ -f BENCH_steal.json ]; then
    echo "==> graftstat regression gate vs BENCH_steal.json (threshold 200%)"
    GATE=$(cargo run --release --offline -q -p graft-bench --bin graftstat -- \
        BENCH_steal.json "$T13ART" --threshold 200) || {
        case "$GATE" in
            *"drift: 0 of"*) : ;; # no shared sample moved; only one-sided keys
            *)
                echo "$GATE"
                echo "table13 regression gate FAILED"
                exit 1
                ;;
        esac
    }
    echo "$GATE" | tail -1
fi

# Graft-server gate: a fresh Table 11 run drives the networked host
# with its default open-loop population. The contract is (a) the run
# really is multi-tenant at scale (>= 100,000 tenants), (b) the
# worker ladder scales: native throughput at 4 drain workers beats 1
# worker by at least 2.5x on the critical path, (c) no reply ever
# carries another tenant's value (leakage is an exact count), (d) in
# the noisy-neighbor drill the victims' p99 under attack stays within
# 2x of the quiet baseline, and (e) the saboteur ends the drill
# quarantined (see docs/server.md "Threading model").
echo "==> table11 graft-server run ($MODE --offline) with run artifact"
cargo run --release --offline -q -p graft-bench --bin table11 -- \
    "$MODE" --offline --json "$T11ART" > "$T11OUT"

echo "==> server tenant-scale gate (>= 100000 tenants)"
awk '/gate: tenants/ {
         found = 1
         printf "    tenants: %s\n", $NF
         if ($NF + 0 < 100000) bad = 1
     }
     END { exit (bad || !found) }' "$T11OUT" || {
    cat "$T11OUT"
    echo "table11 tenant-scale gate FAILED"
    exit 1
}

echo "==> worker scaling gate (native @4 >= 2.5x over 1 worker)"
awk '/gate: native worker scaling @4/ {
         found = 1
         v = $NF; gsub(/x/, "", v)
         printf "    native worker scaling @4: %sx\n", v
         if (v + 0 < 2.5) bad = 1
     }
     END { exit (bad || !found) }' "$T11OUT" || {
    cat "$T11OUT"
    echo "table11 worker-scaling gate FAILED"
    exit 1
}

echo "==> server isolation gate (zero cross-tenant leakage)"
awk '/gate: cross-tenant leakage/ {
         found = 1
         printf "    leaked replies: %s\n", $NF
         if ($NF + 0 != 0) bad = 1
     }
     END { exit (bad || !found) }' "$T11OUT" || {
    cat "$T11OUT"
    echo "table11 isolation gate FAILED"
    exit 1
}

echo "==> noisy-neighbor gate (victim p99 <= 2x quiet p99)"
awk '/gate: noisy victim p99/ {
         found = 1
         v = $NF; gsub(/x/, "", v)
         printf "    victim p99 ratio: %sx\n", v
         if (v + 0 > 2.0) bad = 1
     }
     END { exit (bad || !found) }' "$T11OUT" || {
    cat "$T11OUT"
    echo "table11 noisy-neighbor gate FAILED"
    exit 1
}

echo "==> quarantine gate (saboteur quarantined = yes)"
grep -q "gate: saboteur quarantined = yes" "$T11OUT" || {
    cat "$T11OUT"
    echo "table11 quarantine gate FAILED"
    exit 1
}
grep "noisy-neighbor drill" "$T11OUT" | sed 's/^ */    /'

if [ -f BENCH_server.json ]; then
    echo "==> graftstat regression gate vs BENCH_server.json (threshold 200%)"
    GATE=$(cargo run --release --offline -q -p graft-bench --bin graftstat -- \
        BENCH_server.json "$T11ART" --threshold 200) || {
        case "$GATE" in
            *"drift: 0 of"*) : ;; # no shared sample moved; only one-sided keys
            *)
                echo "$GATE"
                echo "table11 regression gate FAILED"
                exit 1
                ;;
        esac
    }
    echo "$GATE" | tail -1
fi

# Durable-logdisk gate: a fresh Table 14 run scrubs a retention-merged
# history, runs the seeded bit-rot drills, and hands a midpoint restore
# to every technology. The contract is (a) the checksum audit detects
# 100% of injected corruptions (duplicate strikes on an already-rotted
# segment are accounted as undetectable-by-design, never silently
# dropped), (b) zero silent-wrong-map outcomes across all drill seeds —
# after quarantine + redo every logical block resolves to its newest
# content or the failure was loud, (c) restore_to_lsn reproduces the
# midpoint map bit-exactly, (d) every technology's adopted map answers
# ld_lookup without a single mismatch, and (e) serving the tail on the
# restored state costs no more than 1/0.95 of the never-crashed
# baseline (see docs/recovery.md "Durability & time travel").
echo "==> table14 durable-logdisk run ($MODE --offline) with run artifact"
cargo run --release --offline -q -p graft-bench --bin table14 -- \
    "$MODE" --offline --json "$T14ART" > "$T14OUT"

echo "==> bit-rot detection gate (100% of injected corruptions)"
awk '/gate: bitrot detection rate/ {
         found = 1
         v = $NF; gsub(/%/, "", v)
         printf "    detection rate: %s%%\n", v
         if (v + 0 != 100) bad = 1
     }
     END { exit (bad || !found) }' "$T14OUT" || {
    cat "$T14OUT"
    echo "table14 detection gate FAILED"
    exit 1
}

echo "==> silent-corruption gate (zero silent wrong map)"
awk '/gate: silent wrong map/ {
         found = 1
         printf "    silent wrong map: %s\n", $NF
         if ($NF + 0 != 0) bad = 1
     }
     END { exit (bad || !found) }' "$T14OUT" || {
    cat "$T14OUT"
    echo "table14 silent-corruption gate FAILED"
    exit 1
}

echo "==> restore exactness gate (zero divergence, zero mismatches)"
awk '/gate: restore divergence/ { rfound = 1; if ($NF + 0 != 0) bad = 1 }
     /gate: lookup mismatches/ { lfound = 1; if ($NF + 0 != 0) bad = 1 }
     END { exit (bad || !rfound || !lfound) }' "$T14OUT" || {
    cat "$T14OUT"
    echo "table14 restore exactness gate FAILED"
    exit 1
}

echo "==> post-restore service gate (post/base >= 0.95)"
awk '/gate: min post\/base/ {
         found = 1
         printf "    min post/base: %s\n", $NF
         if ($NF + 0 < 0.95) bad = 1
     }
     END { exit (bad || !found) }' "$T14OUT" || {
    cat "$T14OUT"
    echo "table14 post-restore service gate FAILED"
    exit 1
}
grep "scrub:" "$T14OUT" | sed 's/^ */    /'

if [ -f BENCH_durable.json ]; then
    echo "==> graftstat regression gate vs BENCH_durable.json (threshold 200%)"
    GATE=$(cargo run --release --offline -q -p graft-bench --bin graftstat -- \
        BENCH_durable.json "$T14ART" --threshold 200) || {
        case "$GATE" in
            *"drift: 0 of"*) : ;; # no shared sample moved; only one-sided keys
            *)
                echo "$GATE"
                echo "table14 regression gate FAILED"
                exit 1
                ;;
        esac
    }
    echo "$GATE" | tail -1
fi

echo "verify: OK"
