//! Table 13 (ours): sharded dispatch scaling, and adaptive dispatch
//! under skewed load.
//!
//! Real extension traffic is keyed — a page, a block, a connection —
//! and keys are skewed, so static hash placement starves most shards
//! while one absorbs the hot key. This experiment prices the adaptive
//! data plane ([`graft_kernel::RunQueues`]) against that failure mode:
//! bounded per-shard run queues, graft-affinity diversion when a home
//! queue fills, work stealing when a shard runs dry, and adaptive
//! batches that widen with backlog and fuse through one `invoke_batch`
//! per batch (every row here: a single-graft chain, tracing off).
//!
//! For each technology row, key skew, and shard rung, the same keyed
//! trace is driven through the plane twice:
//!
//! * **static** — hash placement only ([`StealPolicy::static_plane`]):
//!   a full home queue pushes back on the submitter and no shard ever
//!   takes another's work.
//! * **steal** — the adaptive plane: full homes divert to the
//!   least-loaded shard already warm for the graft, and dry shards
//!   steal the back half of the deepest victim's queue.
//!
//! On uniform keys the static plane is the balanced case, so its
//! throughput across the ladder is the host's dispatch scaling: the
//! native uniform row's static speedup at 4 shards is gated.
//!
//! Each shard's busy time is measured in isolation (shard-at-a-time
//! round-robin drains) and the run is priced on the *critical path* —
//! the slowest shard. That is the wall clock on a machine with at least
//! as many idle cores as shards; the rungs above the host's core count
//! are a model, not a measurement (see docs/kernel.md, "Critical-path
//! measurement"). The concurrency the pricing leaves out — cross-shard
//! quarantine, epoch propagation, ledger merging under real threads —
//! is exercised by the shard property suite, not priced here. Load
//! imbalance is reported as `(max − min) / mean` over the per-shard
//! *processed* counts, which are fully deterministic for a seeded
//! trace.

use std::time::{Duration, Instant};

use graft_api::{GraftError, Technology};
use graft_kernel::{AttachPoint, ShardedHost, StealPolicy};
use graft_rng::SmallRng;
use grafts::eviction;
use kernsim::stats::Sample;

use super::RunConfig;
use crate::gate::{Cmp, Gate};
use crate::manager::GraftManager;

/// The default shard ladder (16 shards is where skew hurts static
/// placement most).
pub const LADDER13: [usize; 5] = [1, 2, 4, 8, 16];

/// The technologies priced: the cheapest dispatch (native) and the
/// paper's headline safe technology (fuel-metered). Both take the fused
/// batch path: a drained batch runs as one `invoke_batch`.
pub const TECHS13: [Technology; 2] = [Technology::RustNative, Technology::SafeCompiled];

/// Keys in the trace. Small on purpose: with a large key space even a
/// skewed trace self-balances across shards by pure hashing; 64 keys
/// over up to 16 shards keeps the hot key hot.
const KEYS: u64 = 64;

/// Key-popularity distribution of the driven trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Every key equally likely.
    Uniform,
    /// 80% of accesses to the first 20% of keys.
    Skew8020,
    /// 99% of accesses to a single hot key.
    Skew9901,
}

impl Skew {
    /// All skews, in report order.
    pub const ALL: [Skew; 3] = [Skew::Uniform, Skew::Skew8020, Skew::Skew9901];

    /// The report label.
    pub fn name(&self) -> &'static str {
        match self {
            Skew::Uniform => "uniform",
            Skew::Skew8020 => "80-20",
            Skew::Skew9901 => "99-1",
        }
    }

    /// Parses a CLI spelling (`uniform`, `8020`/`80-20`, `9901`/`99-1`).
    pub fn parse(s: &str) -> Option<Skew> {
        match s {
            "uniform" => Some(Skew::Uniform),
            "8020" | "80-20" => Some(Skew::Skew8020),
            "9901" | "99-1" => Some(Skew::Skew9901),
            _ => None,
        }
    }

    /// Draws one key of the trace.
    fn key(&self, rng: &mut SmallRng) -> u64 {
        match self {
            Skew::Uniform => rng.bounded_u64(KEYS),
            Skew::Skew8020 => {
                if rng.gen_f64() < 0.8 {
                    rng.bounded_u64(KEYS / 5)
                } else {
                    KEYS / 5 + rng.bounded_u64(KEYS - KEYS / 5)
                }
            }
            Skew::Skew9901 => {
                if rng.gen_f64() < 0.99 {
                    0
                } else {
                    1 + rng.bounded_u64(KEYS - 1)
                }
            }
        }
    }
}

/// One dispatch-plane mode's measurement at one cell.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// Critical-path time divided by total items driven.
    pub per_access: Sample,
    /// Aggregate throughput in million items/second over the best
    /// run's critical path.
    pub throughput_m: f64,
    /// `(max − min) / mean × 100` over per-shard processed counts
    /// (deterministic for the seeded trace).
    pub imbalance_pct: f64,
    /// Items transferred by steals (0 in static mode).
    pub steals: u64,
    /// Drains that found every queue empty.
    pub steal_fail: u64,
    /// Items placed away from their home shard (0 in static mode).
    pub diverted: u64,
}

/// One (technology, skew) pair at one shard count, in both modes.
#[derive(Debug, Clone)]
pub struct Table13Cell {
    /// Worker shards in the host.
    pub shards: usize,
    /// Hash placement only.
    pub static_: ModeResult,
    /// The adaptive plane.
    pub steal: ModeResult,
}

impl Table13Cell {
    /// Steal-mode throughput over static-mode throughput.
    pub fn speedup(&self) -> f64 {
        self.steal.throughput_m / self.static_.throughput_m
    }
}

/// One technology's ladder under one skew.
#[derive(Debug, Clone)]
pub struct Table13Row {
    /// Technology hosting the graft on every shard.
    pub tech: Technology,
    /// Key-popularity distribution driven.
    pub skew: Skew,
    /// One cell per ladder rung, ascending.
    pub cells: Vec<Table13Cell>,
}

impl Table13Row {
    /// The cell at a shard count.
    pub fn cell(&self, shards: usize) -> Option<&Table13Cell> {
        self.cells.iter().find(|c| c.shards == shards)
    }

    /// Static-plane throughput at `shards` over its value at 1 shard
    /// (unmeasured when either rung is missing).
    pub fn static_speedup(&self, shards: usize) -> Option<f64> {
        let one = self.cell(1)?.static_.throughput_m;
        Some(self.cell(shards)?.static_.throughput_m / one)
    }
}

/// Table 13: static vs stealing dispatch across skews and the ladder.
#[derive(Debug, Clone)]
pub struct Table13 {
    /// Rows in (technology, skew) order.
    pub rows: Vec<Table13Row>,
    /// The shard counts measured, ascending.
    pub ladder: Vec<usize>,
    /// Timing runs per mode.
    pub runs: usize,
}

impl Table13 {
    /// The row for a (technology, skew) pair.
    pub fn row(&self, tech: Technology, skew: Skew) -> Option<&Table13Row> {
        self.rows.iter().find(|r| r.tech == tech && r.skew == skew)
    }

    /// The verdicts, on the native rows. On 99/1 keys, stealing beats
    /// static hash placement by at least 1.5x at 8 shards and holds the
    /// per-shard processed imbalance at 16 shards to at most 5%. On
    /// uniform keys, the static plane at 4 shards reaches at least 2.5x
    /// its 1-shard throughput. A missing rung or skew leaves its gate
    /// unmeasured.
    pub fn gates(&self) -> Vec<Gate> {
        let hot = self.row(Technology::RustNative, Skew::Skew9901);
        let speedup = hot.and_then(|r| r.cell(8)).map(Table13Cell::speedup);
        let imbalance = hot.and_then(|r| r.cell(16)).map(|c| c.steal.imbalance_pct);
        let scaling = self
            .row(Technology::RustNative, Skew::Uniform)
            .and_then(|r| r.static_speedup(4));
        vec![
            Gate::new("99-1 @8 native steal/static", speedup, Cmp::Ge, 1.5),
            Gate::new("99-1 @16 native steal imbalance %", imbalance, Cmp::Le, 5.0),
            Gate::new("uniform @4 native static speedup", scaling, Cmp::Ge, 2.5),
        ]
    }
}

/// Items per shard per run. Floored high enough that the 5% imbalance
/// gate at 16 shards has granularity, then rounded up so the wave
/// count (`per_shard / 16`) divides evenly by the polling rotation's
/// period (`shards`). Without that rounding the surplus rotation
/// residues hand a full steal batch to whichever shards poll early in
/// those waves — a fixed ~6% imbalance at 16 shards that measures the
/// driver's rotation coverage, not the plane.
fn per_shard_for(cfg: &RunConfig, shards: usize) -> usize {
    let base = (cfg.evict_iters / 4).clamp(2_000, 8_000);
    let quantum = 16 * shards;
    base.div_ceil(quantum) * quantum
}

/// Drives one seeded trace through one host in one mode, shard at a
/// time, and prices the critical path.
fn mode_run(
    cfg: &RunConfig,
    manager: &GraftManager,
    tech: Technology,
    shards: usize,
    skew: Skew,
    stealing: bool,
) -> Result<ModeResult, GraftError> {
    let engine = manager.load(&eviction::spec(), tech)?;
    let mut host = ShardedHost::new(shards);
    let id = host.install(AttachPoint::VmEvict, "tenant", engine)?;
    let policy = if stealing {
        StealPolicy::default()
    } else {
        StealPolicy::static_plane()
    };

    let per_shard = per_shard_for(cfg, shards);
    let n = per_shard * shards;
    let runs = cfg.runs.clamp(1, 3);
    let mut handles = host.take_handles();

    let mut criticals = Vec::with_capacity(runs);
    let mut counts = vec![0u64; shards];
    let mut stats = Default::default();
    for _ in 0..runs {
        // A fresh plane and a reseeded trace per run: counts, placement,
        // and steal decisions replay identically, so only time varies.
        let q = host.run_queues::<u64>(policy);
        let mut rng = SmallRng::seed_from_u64(0xAB13 + shards as u64);
        let mut busy = vec![Duration::ZERO; shards];
        counts = vec![0u64; shards];
        let (mut submitted, mut processed) = (0usize, 0usize);
        let mut pending: Option<u64> = None;
        let mut start = 0usize;
        // Arrivals come in bounded waves rather than filling every
        // queue to the brim up front: skewed traffic then starves the
        // cold shards between waves — the shape work stealing exists
        // for — instead of letting submit-time diversion pre-balance
        // the whole trace.
        let wave = shards * 16;
        while processed < n {
            // Submit one wave, or less if the plane pushes back.
            let mut sent = 0usize;
            while submitted < n && sent < wave {
                let key = match pending.take() {
                    Some(k) => k,
                    None => skew.key(&mut rng),
                };
                match host.enqueue(&q, key, Some(id), key) {
                    Ok(_) => {
                        submitted += 1;
                        sent += 1;
                    }
                    Err(k) => {
                        pending = Some(k);
                        break;
                    }
                }
            }
            // One adaptive drain per shard, each timed in isolation.
            // The polling order rotates per wave — real executors poll
            // independently, so no shard is always first to the
            // victim's queue. The marshal pins both chain heads to 0 —
            // the graft's fallback branch — so every item prices pure
            // dispatch.
            for i in 0..shards {
                let s = (start + i) % shards;
                let t = Instant::now();
                let k = handles[s].drain_queue(&q, AttachPoint::VmEvict, |_, args| {
                    args.extend_from_slice(&[0, 0])
                });
                if k > 0 {
                    busy[s] += t.elapsed();
                    counts[s] += k as u64;
                    processed += k;
                }
            }
            start = (start + 1) % shards.max(1);
        }
        criticals.push(busy.into_iter().max().unwrap_or(Duration::ZERO));
        stats = q.stats();
    }
    drop(handles);

    let (max, min) = (
        counts.iter().copied().max().unwrap_or(0),
        counts.iter().copied().min().unwrap_or(0),
    );
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    let imbalance_pct = if mean > 0.0 {
        (max - min) as f64 / mean * 100.0
    } else {
        0.0
    };
    Ok(ModeResult {
        per_access: Sample::from_runs(&criticals).per(n),
        throughput_m: n as f64 * 1e3 / Sample::from_runs(&criticals).best_ns(),
        imbalance_pct,
        steals: stats.steals,
        steal_fail: stats.steal_fail,
        diverted: stats.diverted,
    })
}

/// Runs the Table 13 experiment over `ladder` (ascending shard counts;
/// pass `&LADDER13` for the default 1/2/4/8/16), both modes, all skews.
pub fn table13(cfg: &RunConfig, ladder: &[usize]) -> Result<Table13, GraftError> {
    table13_with(cfg, ladder, &Skew::ALL)
}

/// [`table13`] restricted to `skews` (the `--skew` flag).
pub fn table13_with(
    cfg: &RunConfig,
    ladder: &[usize],
    skews: &[Skew],
) -> Result<Table13, GraftError> {
    let _span = graft_telemetry::span!("table13_steal");
    assert!(!ladder.is_empty(), "empty shard ladder");
    assert!(!skews.is_empty(), "empty skew list");
    let manager = GraftManager::new();
    let mut rows = Vec::new();
    for tech in TECHS13 {
        for &skew in skews {
            let mut cells = Vec::new();
            for &shards in ladder {
                cells.push(Table13Cell {
                    shards,
                    static_: mode_run(cfg, &manager, tech, shards, skew, false)?,
                    steal: mode_run(cfg, &manager, tech, shards, skew, true)?,
                });
            }
            rows.push(Table13Row { tech, skew, cells });
        }
    }
    Ok(Table13 {
        rows,
        ladder: ladder.to_vec(),
        runs: cfg.runs.clamp(1, 3),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            runs: 1,
            evict_iters: 160,
            script_evict_iters: 24,
            md5_bytes: 128,
            script_md5_bytes: 128,
            ld_writes: 64,
            ld_blocks: 64,
            live: false,
            faults: None,
        }
    }

    #[test]
    fn both_modes_price_every_cell() {
        let t = table13(&tiny(), &[1, 2]).unwrap();
        assert_eq!(t.rows.len(), TECHS13.len() * Skew::ALL.len());
        for row in &t.rows {
            assert_eq!(row.cells.len(), 2, "{} {}", row.tech, row.skew.name());
            for c in &row.cells {
                for m in [&c.static_, &c.steal] {
                    assert!(m.per_access.mean_ns > 0.0);
                    assert!(m.throughput_m > 0.0);
                    assert!(m.imbalance_pct.is_finite());
                }
                assert_eq!(c.static_.steals, 0, "static plane must not steal");
                assert_eq!(c.static_.diverted, 0, "static plane must not divert");
                assert!(c.speedup().is_finite());
            }
            // One shard cannot be imbalanced.
            assert_eq!(row.cells[0].static_.imbalance_pct, 0.0);
            assert_eq!(row.cells[0].steal.imbalance_pct, 0.0);
        }
        // No gated rung (@4, @8, @16) was measured: every gate fails.
        let gates = t.gates();
        assert_eq!(gates.len(), 3);
        for g in &gates {
            assert_eq!(g.value, None, "{g}");
            assert!(!g.passes(), "{g}");
        }
    }

    #[test]
    fn stealing_balances_the_hot_key_across_shards() {
        let t = table13(&tiny(), &[4]).unwrap();
        let row = t.row(Technology::RustNative, Skew::Skew9901).unwrap();
        let (st, ad) = (&row.cells[0].static_, &row.cells[0].steal);
        // Static placement piles ~99% of the trace on the hot key's
        // home shard; the adaptive plane spreads it.
        assert!(
            st.imbalance_pct > 100.0,
            "static 99/1 imbalance only {:.1}%",
            st.imbalance_pct
        );
        assert!(
            ad.imbalance_pct <= 5.0,
            "steal 99/1 imbalance {:.1}%",
            ad.imbalance_pct
        );
        assert!(ad.steals + ad.diverted > 0);
        // A 4-shard rung without its 1-shard base leaves the scaling
        // gate unmeasured, so it fails.
        let gate = &t.gates()[2];
        assert_eq!(gate.value, None, "{gate}");
        assert!(!gate.passes(), "{gate}");
    }

    #[test]
    fn native_row_gains_from_sharding() {
        // Balanced static shards at 4 should comfortably beat 1 shard
        // for the cheapest dispatch path. Debug-build noise makes
        // per-run times jumpy, so the test bound (1.5x) is looser than
        // the gate (>= 2.5x), which the release-build run is held to.
        // One cell's per-run time swings up to 3x on a shared host, so
        // each rung takes its best over three table runs.
        let mut cfg = tiny();
        cfg.runs = 3;
        cfg.evict_iters = 32_000; // 8 000 items per shard
        let runs: Vec<Table13> = (0..3)
            .map(|_| table13_with(&cfg, &[1, 4], &[Skew::Uniform]).unwrap())
            .collect();
        fn native(t: &Table13) -> &Table13Row {
            t.row(Technology::RustNative, Skew::Uniform).unwrap()
        }
        let best = |shards: usize| {
            runs.iter()
                .map(|t| native(t).cell(shards).unwrap().static_.throughput_m)
                .fold(0.0, f64::max)
        };
        let speedup = best(4) / best(1);
        assert!(speedup > 1.5, "4-shard static speedup only {speedup:.2}x");
        let gate = &runs[0].gates()[2];
        assert_eq!(gate.name, "uniform @4 native static speedup");
        assert_eq!(gate.value, native(&runs[0]).static_speedup(4));
        assert!(gate.value.is_some());
    }

    #[test]
    fn skew_parses_cli_spellings() {
        assert_eq!(Skew::parse("uniform"), Some(Skew::Uniform));
        assert_eq!(Skew::parse("8020"), Some(Skew::Skew8020));
        assert_eq!(Skew::parse("80-20"), Some(Skew::Skew8020));
        assert_eq!(Skew::parse("9901"), Some(Skew::Skew9901));
        assert_eq!(Skew::parse("99-1"), Some(Skew::Skew9901));
        assert_eq!(Skew::parse("zipf"), None);
    }
}
