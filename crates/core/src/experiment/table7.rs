//! Table 7 (ours): multi-tenant churn under the graft-host kernel.
//!
//! The paper measures one graft at a time; its premise (§2, §4) is a
//! kernel hosting many untrusted extensions at once and surviving the
//! bad ones. This experiment measures that directly. For every
//! technology row:
//!
//! 1. **baseline** — a well-behaved eviction graft serves the VM pager
//!    through a 1-shard [`graft_kernel::ShardedHost`] (the
//!    single-threaded host: one [`graft_kernel::ShardHandle`]) while an
//!    80/20-skewed page workload streams through; we record ns per
//!    access.
//! 2. **churn** — a hostile graft (its `select_victim` divides by
//!    zero, the one fault every technology traps) is installed at the
//!    *front* of the chain mid-run. We record how long the quarantine
//!    supervisor takes to detach it and how many invocations it was
//!    allowed.
//! 3. **post** — throughput is measured again with the saboteur
//!    quarantined; containment means this is back at the baseline.
//!
//! Alongside the per-technology rows, the experiment prices the host
//! machinery itself: an empty-chain dispatch and a one-graft hosted
//! dispatch against the bare two-phase `invoke_id` fast path.

use std::time::{Duration, Instant};

use graft_api::{
    GraftClass, GraftError, GraftSpec, Motivation, RegionSpec, RegionStore, Technology, Trap,
    TrapKind,
};
use graft_kernel::{AttachPoint, GraftId, HostConfig, HostedEviction, ShardHandle, ShardedHost};
use grafts::eviction::{self, MAX_HOT, MAX_QUEUE};
use kernsim::stats::{measure_counted, measure_per_iter, Sample};
use kernsim::vm::Pager;

use super::tables::ROW_ORDER;
use super::RunConfig;
use crate::gate::{Cmp, Gate};
use crate::manager::GraftManager;

/// Resident frames the churn pager holds.
pub const FRAMES: usize = 64;
/// Distinct pages the skewed workload touches.
pub const PAGES: usize = 512;
/// Pages on the application's hot list.
pub const HOT_PAGES: u64 = 16;
/// Fewest accesses in the workload stream. A phase's untimed warm-up
/// walks the stream before its timed runs do; a stream that touches no
/// more pages than the pager holds leaves them all resident, and then
/// no timed access evicts, so none runs the graft.
pub const STREAM_MIN: usize = 8 * FRAMES;

/// One technology's churn measurements.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Technology hosting both tenants.
    pub tech: Technology,
    /// ns per pager access with the well-behaved tenant serving.
    pub baseline: Sample,
    /// ns per pager access after the saboteur is quarantined.
    pub post: Sample,
    /// Tenant invocations during the baseline's timed runs.
    pub baseline_invocations: u64,
    /// Tenant invocations during the post-quarantine timed runs.
    pub post_invocations: u64,
    /// `post / baseline` mean ratio — 1.0 is perfect containment.
    pub post_over_baseline: f64,
    /// Whether the supervisor detached the saboteur.
    pub quarantined: bool,
    /// The trap kind that tripped quarantine.
    pub quarantined_by: Option<TrapKind>,
    /// Invocations the saboteur was allowed before detachment.
    pub trapped_invocations: u64,
    /// Wall clock from hostile install to detachment.
    pub quarantine_latency: Duration,
    /// Pager accesses between hostile install and detachment.
    pub churn_accesses: u64,
}

/// Table 7: churn rows plus the host-machinery overhead samples.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// Rows, in [`ROW_ORDER`].
    pub rows: Vec<Table7Row>,
    /// ns per bare `invoke_id` of the eviction graft (no host).
    pub direct: Sample,
    /// ns per hosted dispatch through a one-graft chain.
    pub hosted: Sample,
    /// ns per dispatch of an empty chain (pure fallback).
    pub empty_chain: Sample,
    /// The supervisor's trap threshold during the run.
    pub trap_threshold: u32,
    /// Pager accesses per measured phase (base technologies).
    pub accesses: usize,
}

impl Table7 {
    /// The row for a technology.
    pub fn row(&self, tech: Technology) -> Option<&Table7Row> {
        self.rows.iter().find(|r| r.tech == tech)
    }

    /// Hosted-dispatch overhead over the bare fast path, in ns.
    pub fn chain_overhead_ns(&self) -> f64 {
        self.hosted.mean_ns - self.direct.mean_ns
    }

    /// One gate per row: both timed phases ran the tenant's graft. A
    /// row whose accesses all hit times the pager, not the graft.
    pub fn gates(&self) -> Vec<Gate> {
        self.rows
            .iter()
            .map(|r| {
                let fewest = r.baseline_invocations.min(r.post_invocations);
                let name = format!("{} invocations per timed phase", r.tech.paper_name());
                Gate::new(&name, Some(fewest as f64), Cmp::Ge, 1.0)
            })
            .collect()
    }
}

/// The saboteur: same region/entry ABI as the eviction graft, but its
/// body raises the one trap every technology turns into a fault.
/// Shared with Table 12's postmortem drill.
pub(crate) fn hostile_spec() -> GraftSpec {
    let grail = "fn select_victim(a: int, b: int) -> int { return a / (b - b); }";
    let tickle = "proc select_victim {a b} { return [expr $a / ($b - $b)] }";
    GraftSpec::new("saboteur", GraftClass::Prioritization, Motivation::Policy)
        .region(RegionSpec::linked("lru", 1 + 2 * MAX_QUEUE))
        .region(RegionSpec::linked("hot", 1 + 2 * MAX_HOT))
        .entry("select_victim", 2)
        .with_grail(grail)
        .with_tickle(tickle)
        .with_native(Box::new(|| {
            Box::new(
                |_entry: &str, _args: &[i64], _regions: &mut RegionStore| {
                    Err(GraftError::Trap(Trap::DivByZero))
                },
            )
        }))
}

/// The single-threaded host: a 1-shard host and its one handle.
pub(crate) fn one_shard() -> (ShardedHost, ShardHandle) {
    let mut host = ShardedHost::new(1);
    let handle = host.take_handle(0).expect("fresh host");
    (host, handle)
}

/// Accesses per measured phase for a technology (script and user-level
/// rows use reduced counts, as in Table 2).
fn accesses_for(cfg: &RunConfig, tech: Technology) -> usize {
    match tech {
        Technology::Script => cfg.script_evict_iters.max(48),
        Technology::UserLevel => (cfg.evict_iters / 10).max(64),
        _ => cfg.evict_iters.max(64),
    }
}

/// The churn pager and its place in the workload stream.
struct Rig {
    pager: Pager<HostedEviction<ShardHandle>>,
    idx: usize,
}

/// Invocations of `id` so far: the merged ledger plus what `shard` has
/// not flushed yet.
fn invocations(host: &ShardedHost, shard: &ShardHandle, id: GraftId) -> u64 {
    let merged = host.ledger(id).map_or(0, |l| l.invocations);
    merged + shard.local_ledger(id).map_or(0, |l| l.invocations)
}

fn churn_row(
    cfg: &RunConfig,
    manager: &GraftManager,
    tech: Technology,
) -> Result<Table7Row, GraftError> {
    let good = manager.load(&eviction::spec(), tech)?;
    let saboteur_engine = manager.load(&hostile_spec(), tech)?;

    let (host, handle) = one_shard();
    let tenant = host.install(AttachPoint::VmEvict, "tenant", good)?;
    let mut policy = HostedEviction::new(handle);
    policy.set_hot((0..HOT_PAGES).collect());
    let mut rig = Rig {
        pager: Pager::new(FRAMES, policy),
        idx: 0,
    };

    let accesses = accesses_for(cfg, tech);
    let stream = accesses.max(STREAM_MIN) as u64;
    let workload: Vec<u64> = logdisk::workload::skewed(PAGES, stream, 42).collect();
    let runs = cfg.runs.clamp(1, 3);
    let step = |rig: &mut Rig| {
        rig.pager.access(workload[rig.idx % workload.len()]);
        rig.idx += 1;
    };
    let tenant_calls = |rig: &Rig| invocations(&host, rig.pager.policy().host(), tenant);

    // Fill the frames with throwaway pages so every phase runs at
    // steady state: from the first measured access on, a miss is an
    // eviction, and an eviction is a dispatch through the chain.
    for p in 0..FRAMES as u64 {
        rig.pager.access(2 * PAGES as u64 + p);
    }
    // Then walk the stream once, untimed. The graft never evicts a hot
    // page, so resident hot pages pile up at the LRU head and each walk
    // grows until they have all settled there. A row with a short phase
    // would otherwise time its baseline on shorter walks than its post.
    for _ in 0..workload.len() {
        step(&mut rig);
    }

    // Phase 1 — baseline throughput with the tenant serving. Each
    // timed phase replays the stream from its start, so the baseline
    // and the post phase time the same accesses and the same walks.
    rig.idx = 0;
    let (baseline, baseline_invocations) =
        measure_counted(runs, accesses, &mut rig, step, tenant_calls);

    // Phase 2 — the saboteur arrives at the front of the chain. The
    // churn stream is a burst of cold misses (pages outside the skewed
    // domain), so every access past frame-fill is a fault that must
    // evict — the dispatch that consults the saboteur first. Detachment
    // is therefore due within `FRAMES + trap_threshold` accesses.
    let bad = host.install_front(AttachPoint::VmEvict, "saboteur", saboteur_engine)?;
    let start = Instant::now();
    let mut churn_accesses = 0u64;
    let bound = (FRAMES as u64) + 2 * u64::from(host.config().trap_threshold) + 8;
    while !host.is_quarantined(bad) && churn_accesses < bound {
        rig.pager.access(PAGES as u64 + churn_accesses);
        churn_accesses += 1;
    }
    let quarantine_latency = start.elapsed();
    let quarantined = host.is_quarantined(bad);
    // The winning detach merged the saboteur's ledger into the shared
    // totals, so this read needs no flush.
    let trapped_invocations = host.ledger(bad).map(|l| l.invocations).unwrap_or(0);
    let quarantined_by = match host.state(bad) {
        Some(graft_kernel::GraftState::Quarantined { by }) => Some(by),
        _ => None,
    };

    // Phase 3 — throughput with the saboteur detached.
    rig.idx = 0;
    let (post, post_invocations) = measure_counted(runs, accesses, &mut rig, step, tenant_calls);

    Ok(Table7Row {
        tech,
        post_over_baseline: post.mean_ns / baseline.mean_ns,
        baseline,
        post,
        baseline_invocations,
        post_invocations,
        quarantined,
        quarantined_by,
        trapped_invocations,
        quarantine_latency,
        churn_accesses,
    })
}

/// Prices the host machinery: bare `invoke_id` vs a one-graft hosted
/// dispatch vs an empty-chain dispatch, all on pre-marshalled state.
fn overhead(
    cfg: &RunConfig,
    manager: &GraftManager,
) -> Result<(Sample, Sample, Sample), GraftError> {
    let spec = eviction::spec();
    // The small example scenario, not the paper-scale one: the probe
    // prices the *host machinery*, so the graft invocation it wraps
    // must be cheap enough not to drown the chain walk.
    let scenario = eviction::Scenario::example();
    let runs = cfg.runs.clamp(2, 10);
    let iters = cfg.evict_iters.max(100);

    // Bare two-phase fast path, exactly Table 2's measured loop.
    let mut engine = manager.load(&spec, Technology::SafeCompiled)?;
    let (lru, hot) = scenario.marshal(engine.as_mut())?;
    let victim = engine.bind_entry("select_victim")?;
    let direct = measure_per_iter(runs, iters, || {
        let _ = engine.invoke_id(victim, &[lru, hot]);
    });

    // The same graft behind a chain of one: chain walk + ledger +
    // verdict decoding on top of the identical invocation.
    let mut tenant = manager.load(&spec, Technology::SafeCompiled)?;
    let (lru2, hot2) = scenario.marshal(tenant.as_mut())?;
    let (host, mut shard) = one_shard();
    host.install(AttachPoint::VmEvict, "tenant", tenant)?;
    let hosted = measure_per_iter(runs, iters, || {
        let _ = shard.dispatch(AttachPoint::VmEvict, |_| Ok(vec![lru2, hot2]));
    });

    // An empty chain: the price a substrate pays for having an attach
    // point at all when no graft is installed.
    let (_empty_host, mut empty) = one_shard();
    let empty_chain = measure_per_iter(runs, iters, || {
        let _ = empty.dispatch(AttachPoint::VmEvict, |_| Ok(vec![lru2, hot2]));
    });

    Ok((direct, hosted, empty_chain))
}

/// Runs the Table 7 experiment.
pub fn table7(cfg: &RunConfig) -> Result<Table7, GraftError> {
    let _span = graft_telemetry::span!("table7_churn");
    let manager = GraftManager::new();
    let mut rows = Vec::new();
    for tech in ROW_ORDER {
        rows.push(churn_row(cfg, &manager, tech)?);
    }
    let (direct, hosted, empty_chain) = overhead(cfg, &manager)?;
    Ok(Table7 {
        rows,
        direct,
        hosted,
        empty_chain,
        trap_threshold: HostConfig::default().trap_threshold,
        accesses: cfg.evict_iters.max(64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            runs: 2,
            evict_iters: 200,
            script_evict_iters: 24,
            md5_bytes: 128,
            script_md5_bytes: 128,
            ld_writes: 64,
            ld_blocks: 64,
            live: false,
            faults: None,
        }
    }

    /// One tiny run, shared by every test in this module.
    fn shared() -> &'static Table7 {
        static RUN: std::sync::OnceLock<Table7> = std::sync::OnceLock::new();
        RUN.get_or_init(|| table7(&tiny()).unwrap())
    }

    #[test]
    fn every_row_contains_the_saboteur() {
        let t = shared();
        assert_eq!(t.rows.len(), ROW_ORDER.len());
        for row in &t.rows {
            assert!(row.quarantined, "{}: saboteur still attached", row.tech);
            assert_eq!(
                row.trapped_invocations,
                t.trap_threshold as u64,
                "{}: supervisor let the saboteur run too long",
                row.tech
            );
            assert_eq!(row.quarantined_by, Some(TrapKind::DivByZero), "{}", row.tech);
            assert!(row.quarantine_latency > Duration::ZERO);
            // Containment: post-quarantine throughput is in the same
            // regime as the baseline. Tiny runs are noisy, so compare
            // each phase's fastest run, which one preempted run cannot
            // move (the real gate is graftstat's over the committed
            // artifact).
            let fastest = row.post.min_ns / row.baseline.min_ns;
            assert!(
                fastest < 3.0,
                "{}: fastest post/baseline = {fastest:.2}",
                row.tech
            );
            assert!(
                row.baseline_invocations > 0,
                "{}: baseline ran no graft",
                row.tech
            );
            assert!(row.post_invocations > 0, "{}: post ran no graft", row.tech);
        }
        assert!(t.gates().iter().all(Gate::passes), "{:?}", t.gates());
        // A row whose timed accesses all hit fails its gate.
        let mut planted = t.clone();
        planted.rows[4].post_invocations = 0;
        let failed: Vec<Gate> = planted
            .gates()
            .into_iter()
            .filter(|g| !g.passes())
            .collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].name.starts_with(t.rows[4].tech.paper_name()));
    }

    #[test]
    fn hosting_costs_are_ordered() {
        let t = shared();
        // An empty chain skips the graft invocation entirely, so it
        // must be far cheaper than a chain of one. (`hosted` vs
        // `direct` differ by mere bookkeeping ns and can flip under
        // tiny-run noise; the committed artifact carries both samples
        // and graftstat gates the drift.)
        assert!(t.empty_chain.mean_ns < t.hosted.mean_ns);
        assert!(t.direct.mean_ns > 0.0 && t.hosted.mean_ns > 0.0);
    }
}
