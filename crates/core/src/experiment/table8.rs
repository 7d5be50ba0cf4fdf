//! Table 8 (ours): sharded multi-core graft dispatch.
//!
//! The paper's measurements are single-processor; its premise — kernel
//! extensions on every hot path — collides with the multi-core kernels
//! that came after it. This experiment measures how each technology's
//! dispatch scales when the graft host is *sharded*: N worker shards,
//! each owning a thread-confined replica of every installed graft
//! (forked through [`graft_api::ExtensionEngine::fork_for_shard`]), no
//! locks anywhere on the dispatch path.
//!
//! For every technology row and every shard count in the ladder
//! (1/2/4/8 by default, or pinned with `--shards N`):
//!
//! 1. A well-behaved eviction graft is installed in a
//!    [`ShardedHost`], which forks one engine replica per shard.
//! 2. Each shard runs its own VM pager (the same [`HostedEviction`]
//!    adapter Tables 7 and 12 use) over an 80/20-skewed page
//!    workload, so every cold miss is an eviction and every eviction is
//!    a dispatch through that shard's replica.
//! 3. Each shard's busy time is measured **in isolation** (shards run
//!    one at a time), and the aggregate throughput is computed over the
//!    *critical path* — the slowest shard's duration. On a machine with
//!    at least N idle cores the critical path **is** the wall clock;
//!    measuring shard-at-a-time makes the number deterministic and
//!    honest on the single-core CI container this reproduction runs in,
//!    where truly concurrent threads would just time-slice one core.
//!    (The concurrency itself — cross-shard quarantine, epoch
//!    propagation, ledger merging under real threads — is exercised by
//!    the shard property and fault-injection suites, not priced here.)
//!
//! Scaling efficiency is reported per cell as
//! `(T_S / S) / (T_S0 / S0)` against the first rung of the ladder: 1.0
//! means perfectly linear scaling, lower means the per-shard dispatch
//! got slower as shards were added (shared-state contention, colder
//! caches, fork overheads).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use graft_api::{GraftError, Technology};
use graft_kernel::{AttachPoint, HostedEviction, ShardHandle, ShardedHost};
use grafts::eviction;
use kernsim::stats::Sample;
use kernsim::vm::Pager;

use super::table7::{FRAMES, HOT_PAGES, PAGES};
use super::tables::ROW_ORDER;
use super::RunConfig;
use crate::gate::{Cmp, Gate};
use crate::manager::GraftManager;

/// The default shard ladder.
pub const LADDER: [usize; 4] = [1, 2, 4, 8];

/// One technology at one shard count.
#[derive(Debug, Clone)]
pub struct Table8Cell {
    /// Worker shards in the host.
    pub shards: usize,
    /// Aggregate ns per access: critical-path time divided by the
    /// *total* accesses across all shards. Falls as shards are added.
    pub per_access: Sample,
    /// Aggregate dispatch throughput in million accesses/second,
    /// computed from the best (fastest) run's critical path.
    pub throughput_m: f64,
    /// Scaling efficiency vs the ladder's first rung (1.0 = linear).
    pub efficiency: f64,
    /// Total accesses per measured run, summed over shards.
    pub accesses: usize,
}

/// One technology's scaling curve.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// Technology hosting the graft on every shard.
    pub tech: Technology,
    /// One cell per ladder rung, in ladder order.
    pub cells: Vec<Table8Cell>,
}

impl Table8Row {
    /// The cell at a shard count.
    pub fn cell(&self, shards: usize) -> Option<&Table8Cell> {
        self.cells.iter().find(|c| c.shards == shards)
    }

    /// Aggregate speedup of `shards` over the ladder's first rung.
    pub fn speedup(&self, shards: usize) -> Option<f64> {
        let base = self.cells.first()?;
        let cell = self.cell(shards)?;
        Some(cell.throughput_m / base.throughput_m)
    }
}

/// Table 8: per-technology dispatch scaling across the shard ladder.
#[derive(Debug, Clone)]
pub struct Table8 {
    /// Rows, in [`ROW_ORDER`].
    pub rows: Vec<Table8Row>,
    /// The shard counts measured, ascending.
    pub ladder: Vec<usize>,
    /// Timing runs per cell.
    pub runs: usize,
}

impl Table8 {
    /// The row for a technology.
    pub fn row(&self, tech: Technology) -> Option<&Table8Row> {
        self.rows.iter().find(|r| r.tech == tech)
    }

    /// The verdict: the in-kernel native row's aggregate throughput at
    /// 4 shards beats the first rung by at least 2.5x (unmeasured
    /// without a 4-shard rung).
    pub fn gates(&self) -> Vec<Gate> {
        let speedup = self.row(Technology::RustNative).and_then(|r| r.speedup(4));
        vec![Gate::new("native speedup @4", speedup, Cmp::Ge, 2.5)]
    }
}

/// Accesses per measured run for a technology, *summed over shards*
/// (script and user-level rows use reduced counts, as in Table 2/7).
fn accesses_for(cfg: &RunConfig, tech: Technology) -> usize {
    match tech {
        Technology::Script => cfg.script_evict_iters.max(48),
        Technology::UserLevel => (cfg.evict_iters / 10).max(64),
        _ => cfg.evict_iters.max(64),
    }
}

/// One shard's measurement rig: a pager whose eviction policy
/// dispatches through this shard's handle, plus its private slice of
/// the skewed workload.
struct ShardRig {
    handle: Rc<RefCell<ShardHandle>>,
    pager: Pager<HostedEviction<Rc<RefCell<ShardHandle>>>>,
    workload: Vec<u64>,
    idx: usize,
}

impl ShardRig {
    fn new(handle: ShardHandle, shard: usize, accesses: usize) -> ShardRig {
        let handle = Rc::new(RefCell::new(handle));
        let mut policy = HostedEviction::new(handle.clone());
        policy.set_hot((0..HOT_PAGES).collect());
        let mut pager = Pager::new(FRAMES, policy);
        // Pre-fill the frames with throwaway pages so every measured
        // access runs at steady state: a miss is an eviction, and an
        // eviction is a dispatch through this shard's replica.
        for p in 0..FRAMES as u64 {
            pager.access(2 * PAGES as u64 + p);
        }
        // Each shard streams its own 80/20-skewed page slice (distinct
        // seed per shard, same distribution).
        let workload: Vec<u64> =
            logdisk::workload::skewed(PAGES, accesses as u64, 42 + shard as u64).collect();
        ShardRig {
            handle,
            pager,
            workload,
            idx: 0,
        }
    }

    /// Runs `n` accesses and returns this shard's busy time.
    fn run(&mut self, n: usize) -> std::time::Duration {
        let start = Instant::now();
        for _ in 0..n {
            self.pager.access(self.workload[self.idx % self.workload.len()]);
            self.idx += 1;
        }
        start.elapsed()
    }
}

fn cell(
    cfg: &RunConfig,
    manager: &GraftManager,
    tech: Technology,
    shards: usize,
) -> Result<(Table8Cell, u64), GraftError> {
    let engine = manager.load(&eviction::spec(), tech)?;
    let mut host = ShardedHost::new(shards);
    host.install(AttachPoint::VmEvict, "tenant", engine)?;

    let total = accesses_for(cfg, tech);
    let per_shard = (total / shards).max(1);
    let total = per_shard * shards;
    let runs = cfg.runs.clamp(1, 5);

    let mut rigs: Vec<ShardRig> = host
        .take_handles()
        .into_iter()
        .enumerate()
        .map(|(i, h)| ShardRig::new(h, i, per_shard * runs))
        .collect();

    // Shard-at-a-time: each shard's busy time in isolation; the
    // critical path (the slowest shard) is the run's wall clock on a
    // machine with >= `shards` idle cores.
    let mut criticals = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut slowest = std::time::Duration::ZERO;
        for rig in &mut rigs {
            slowest = slowest.max(rig.run(per_shard));
        }
        criticals.push(slowest);
    }

    // Tear the rigs down (pager -> adapter -> handle) so every shard's
    // private ledger merges into the shared totals before we read them.
    for rig in rigs {
        drop(rig.pager);
        drop(rig.handle);
    }
    let dispatches = host.stats().dispatches;

    let per_access = Sample::from_runs(&criticals).per(total);
    let throughput_m = total as f64 * 1e3 / Sample::from_runs(&criticals).best_ns();
    Ok((
        Table8Cell {
            shards,
            per_access,
            throughput_m,
            efficiency: f64::NAN, // filled in once the base rung is known
            accesses: total,
        },
        dispatches,
    ))
}

/// Runs the Table 8 experiment over `ladder` (ascending shard counts;
/// pass `&LADDER` for the default 1/2/4/8).
pub fn table8(cfg: &RunConfig, ladder: &[usize]) -> Result<Table8, GraftError> {
    let _span = graft_telemetry::span!("table8_shards");
    assert!(!ladder.is_empty(), "empty shard ladder");
    let manager = GraftManager::new();
    let mut rows = Vec::new();
    for tech in ROW_ORDER {
        let mut cells = Vec::new();
        for &shards in ladder {
            let (c, dispatches) = cell(cfg, &manager, tech, shards)?;
            debug_assert!(dispatches > 0, "{tech}: no dispatch reached the host");
            cells.push(c);
        }
        // Efficiency against the ladder's first rung, per shard.
        let base = cells[0].throughput_m / cells[0].shards as f64;
        for c in &mut cells {
            c.efficiency = (c.throughput_m / c.shards as f64) / base;
        }
        rows.push(Table8Row { tech, cells });
    }
    Ok(Table8 {
        rows,
        ladder: ladder.to_vec(),
        runs: cfg.runs.clamp(1, 5),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            runs: 2,
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
    fn every_technology_scales_across_the_ladder() {
        let t = table8(&tiny(), &[1, 2]).unwrap();
        assert_eq!(t.rows.len(), ROW_ORDER.len());
        for row in &t.rows {
            assert_eq!(row.cells.len(), 2, "{}", row.tech);
            for c in &row.cells {
                assert!(c.per_access.mean_ns > 0.0, "{}", row.tech);
                assert!(c.throughput_m > 0.0, "{}", row.tech);
                assert!(c.efficiency.is_finite(), "{}", row.tech);
                assert!(c.accesses > 0);
            }
            // The base rung's efficiency is 1.0 by construction.
            assert!((row.cells[0].efficiency - 1.0).abs() < 1e-9);
            assert!(row.speedup(2).is_some());
        }
        // No 4-shard rung: the speedup gate is unmeasured and fails.
        let gate = &t.gates()[0];
        assert_eq!(gate.value, None);
        assert!(!gate.passes());
    }

    #[test]
    fn native_row_gains_from_sharding() {
        // Critical-path throughput at 4 shards should comfortably beat
        // 1 shard for the cheapest dispatch path. Debug-build CI noise
        // makes per-run times jumpy, so the test bound (1.5x) is looser
        // than the committed artifact's headline (>= 2.5x), which
        // verify.sh gates on a release-build run.
        let mut cfg = tiny();
        cfg.runs = 3;
        cfg.evict_iters = 400;
        let t = table8(&cfg, &[1, 4]).unwrap();
        let native = t.row(Technology::RustNative).unwrap();
        let speedup = native.speedup(4).unwrap();
        assert!(speedup > 1.5, "4-shard speedup only {speedup:.2}x");
    }
}
