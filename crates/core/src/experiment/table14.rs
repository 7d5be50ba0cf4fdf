//! Table 14 (ours): durable logdisk — checksummed segments, seeded
//! bit-rot drills, and point-in-time restore at scale.
//!
//! Table 9 prices recovery when the *graft* fails; this table prices
//! recovery when the **storage under the graft lies**. Four
//! measurements, all on multi-million-block skewed traces
//! ([`logdisk::workload::trace`]):
//!
//! 1. **Restore-to-LSN cost vs distance** — a retention-merged history
//!    disk ([`CleaningDisk::with_retention`]) is rolled back to
//!    progressively older LSNs; each [`restore_to_lsn`] audits the full
//!    retained history and replays the prefix idempotently. Each point
//!    also splits the restore into audit and replay, as the library's
//!    own `ld.restore.*` histograms timed them.
//! 2. **Scrub throughput** — a full checksum audit of the retained
//!    history, reported in million entries per second — and the cost
//!    of one retention pass (audit, fold and seal), timed over every
//!    pass the history disk's cleaner ran.
//! 3. **Bit-rot detection drills** — one drill per seed: the write
//!    stream runs over a [`FaultyDisk`] armed with `bitrot_permille`;
//!    every drawn [`Bitrot`] flips one stored bit in a persisted
//!    segment. After a crash, scrub must detect and quarantine every
//!    distinct corrupted segment, LSN-guarded redo-tail replay must
//!    repair the map (a redo never rolls back a block whose newer copy
//!    survives in an intact segment), and a content model — stamping
//!    every physical block with the index of the write that actually
//!    produced it, independent of the redo mechanism — proves **zero
//!    silent-wrong-map** outcomes: every logical block resolves to its
//!    newest content or the corruption was loudly reported, never
//!    silently wrong.
//! 4. **Post-restore service cost per technology** — the Table 9 rig,
//!    one restore back in time: the built-in disk is rolled back to
//!    the stream's midpoint, the restored map is adopted into each
//!    technology's graft (`bind_region("map")` + `restore_region`),
//!    spot-checked through `ld_lookup`, and the tail of the stream is
//!    served on the restored state vs a baseline that never time
//!    traveled — priced through the deterministic [`DiskModel`], gated
//!    at post/base ≥ 0.95 like Table 9.
//!
//! The drills deliberately run under a quiet plan plus bit-rot (no
//! transient I/O noise) whatever `--faults` says: detection accounting
//! must reconcile exactly (injected == detected + undetected-by-design)
//! to gate at a 100% detection rate.
//!
//! [`CleaningDisk::with_retention`]: logdisk::cleaner::CleaningDisk::with_retention
//! [`restore_to_lsn`]: logdisk::LogicalDisk::restore_to_lsn
//! [`FaultyDisk`]: kernsim::FaultyDisk
//! [`Bitrot`]: kernsim::Bitrot
//! [`DiskModel`]: kernsim::DiskModel

use std::collections::HashSet;
use std::time::{Duration, Instant};

use graft_api::{GraftError, Technology};
use graft_telemetry::MetricsSnapshot;
use grafts::logdisk as ld_graft;
use kernsim::stats::Sample;
use kernsim::{DiskModel, FaultPlan, FaultStats, FaultyDisk};
use logdisk::cleaner::CleaningDisk;
use logdisk::{workload, LdConfig, LogicalDisk, MapEntry, Replayer, UNMAPPED};

use super::tables::ROW_ORDER;
use super::RunConfig;
use crate::gate::{min_of, Cmp, Gate};
use crate::manager::GraftManager;

/// Seeds for the bit-rot drills; every seed must reach a 100%
/// detection rate with zero silent-wrong-map outcomes.
pub const ROT_SEEDS: [u64; 3] = [7, 21, 99];

/// Bit-rot probability per persisted segment in the drills (3%).
pub const BITROT_PERMILLE: u16 = 30;

/// One technology's post-restore hand-off measurements.
#[derive(Debug, Clone)]
pub struct Table14Row {
    /// Technology hosting the Logical Disk graft.
    pub tech: Technology,
    /// Adopting the restored map into the graft's `map` region.
    pub adopt: Sample,
    /// `ld_lookup` spot checks performed against the restored map.
    pub verified_lookups: u64,
    /// Spot checks that disagreed with the restored map. Must be 0.
    pub lookup_mismatches: u64,
    /// Tail service cost on the restored state relative to a baseline
    /// that never time traveled, priced through the deterministic
    /// [`DiskModel`](kernsim::DiskModel). Gated at ≥ 0.95.
    pub post_over_base: f64,
}

/// One point of the restore-cost-vs-distance curve.
#[derive(Debug, Clone)]
pub struct RestorePoint {
    /// How far behind the durable head the target LSN sits.
    pub distance: u64,
    /// The restored LSN.
    pub lsn: u64,
    /// `restore_to_lsn` cost (audit + idempotent replay).
    pub restore: Sample,
    /// Mean audit and replay time per restore, ns, as the library's
    /// `ld.restore.audit_ns` / `ld.restore.replay_ns` histograms saw
    /// them; `None` when telemetry is off.
    pub split: Option<(f64, f64)>,
    /// Mapped blocks in the restored map.
    pub mappings: u64,
}

/// Scrub throughput over the retained history.
#[derive(Debug, Clone)]
pub struct ScrubBench {
    /// Segments audited per pass.
    pub segments: u64,
    /// Mapping entries covered per pass.
    pub entries: u64,
    /// One full scrub pass.
    pub scrub: Sample,
    /// Million entries audited per second (from the mean pass).
    pub throughput_m: f64,
}

/// One seeded bit-rot drill.
#[derive(Debug, Clone)]
pub struct RotDrill {
    /// Drill seed (keys both the trace and the fault rng).
    pub seed: u64,
    /// Bit-rot events drawn by the fault plan.
    pub injected: u64,
    /// Distinct segments actually corrupted (first strike per segment).
    pub corrupted: u64,
    /// Corrupt segments the audit detected and quarantined.
    pub detected: u64,
    /// Redundant strikes on an already-corrupted segment — injected
    /// but undetectable *by design* (there is nothing left to rot).
    pub undetected_by_design: u64,
    /// Writes redone from the quarantined spans (those not already
    /// superseded by a newer surviving write) plus the open segment.
    pub redone: u64,
    /// Logical blocks that resolved to wrong or stale content after
    /// recovery — the silent-corruption count. Must be 0.
    pub silent_wrong_map: u64,
    /// Crash → scrub → rebuild → redo, end to end.
    pub recovery: Duration,
    /// Fault accounting for the drill's disk.
    pub faults: FaultStats,
}

impl RotDrill {
    /// Detected over corrupted (1.0 when nothing was corrupted).
    pub fn detection_rate(&self) -> f64 {
        if self.corrupted == 0 {
            1.0
        } else {
            self.detected as f64 / self.corrupted as f64
        }
    }
}

/// Table 14: restore curve, scrub throughput, bit-rot drills, and
/// per-technology post-restore rows.
#[derive(Debug, Clone)]
pub struct Table14 {
    /// Rows, in [`ROW_ORDER`] (no script row, as in Tables 6/9).
    pub rows: Vec<Table14Row>,
    /// Restore-to-LSN cost vs distance on the history disk.
    pub restore_curve: Vec<RestorePoint>,
    /// Scrub throughput on the history disk.
    pub scrub: ScrubBench,
    /// One drill per [`ROT_SEEDS`] entry.
    pub drills: Vec<RotDrill>,
    /// Writes in the history trace.
    pub writes: usize,
    /// Logical blocks on the history disk.
    pub blocks: usize,
    /// Retention window (LSNs behind the durable head kept restorable).
    pub retention_window: u64,
    /// One retention pass on the history disk (audit, fold and seal),
    /// over every pass its cleaner ran.
    pub retention_pass: Sample,
    /// History entries pruned by retention merging.
    pub pruned_entries: u64,
    /// History entries retained after merging.
    pub retained_entries: u64,
    /// Blocks where the midpoint restore diverged from the oracle's
    /// midpoint map. Must be 0 (`restore_to_lsn` exactness).
    pub restore_divergence: u64,
    /// The bit-rot plan shape the drills ran under (seed of the first).
    pub plan: FaultPlan,
    /// Timed repetitions per measurement.
    pub runs: usize,
}

impl Table14 {
    /// The row for a technology.
    pub fn row(&self, tech: Technology) -> Option<&Table14Row> {
        self.rows.iter().find(|r| r.tech == tech)
    }

    /// Silent-wrong-map outcomes across all drills (must be 0).
    pub fn silent_total(&self) -> u64 {
        self.drills.iter().map(|d| d.silent_wrong_map).sum()
    }

    /// Lookup mismatches across all rows (must be 0).
    pub fn mismatch_total(&self) -> u64 {
        self.rows.iter().map(|r| r.lookup_mismatches).sum()
    }

    /// Worst post/base ratio across the rows (NaN when any row's is).
    pub fn min_post_over_base(&self) -> f64 {
        min_of(self.rows.iter().map(|r| r.post_over_base))
    }

    /// The verdicts: every drill detects exactly the segments it
    /// corrupted; no drill leaves a silently wrong map; the midpoint
    /// restore and every technology's adopted map are exact; and
    /// serving the tail on the restored state costs no more than
    /// 1/0.95 of the never-crashed baseline.
    pub fn gates(&self) -> Vec<Gate> {
        let missed = self
            .drills
            .iter()
            .map(|d| d.corrupted.abs_diff(d.detected))
            .sum();
        vec![
            Gate::zero("bitrot corrupted - detected", missed),
            Gate::zero("silent wrong map", self.silent_total()),
            Gate::zero("restore divergence", self.restore_divergence),
            Gate::zero("lookup mismatches", self.mismatch_total()),
            Gate::new(
                "min post/base",
                Some(self.min_post_over_base()),
                Cmp::Ge,
                0.95,
            ),
        ]
    }
}

/// Builds the retention-merged history disk: a multi-million-block
/// skewed trace (at full scale) through the cleaner with a retention
/// window of half the trace.
fn history_disk(writes: usize, blocks: usize, window: u64) -> CleaningDisk {
    let config = LdConfig {
        blocks,
        segment_blocks: 16,
    };
    let mut disk = CleaningDisk::with_retention(config, 2, Some(window));
    for l in workload::trace(blocks, writes as u64, 42, 800, 200) {
        disk.write(l);
    }
    disk
}

fn restore_curve(disk: &mut CleaningDisk, runs: usize) -> Vec<RestorePoint> {
    let durable = disk.disk().durable_lsn();
    let floor = disk.disk().retention_floor();
    let span = durable - floor;
    let mut distances: Vec<u64> = [span / 64, span / 16, span / 4, span / 2, span]
        .into_iter()
        .filter(|&d| d > 0)
        .collect();
    distances.dedup();
    distances
        .into_iter()
        .map(|distance| {
            let lsn = durable - distance;
            let mut times = Vec::with_capacity(runs);
            let mut mappings = 0u64;
            let before = graft_telemetry::snapshot();
            for _ in 0..runs {
                let t0 = Instant::now();
                let map = disk
                    .disk_mut()
                    .restore_to_lsn(lsn)
                    .expect("curve targets sit inside the retained window");
                times.push(t0.elapsed());
                mappings = map.iter().filter(|&&p| p != UNMAPPED).count() as u64;
            }
            let after = graft_telemetry::snapshot();
            let mean = |name| {
                let totals = |snap: &MetricsSnapshot| {
                    snap.histogram(name).map_or((0, 0), |h| (h.sum, h.count))
                };
                let ((s0, n0), (s1, n1)) = (totals(&before), totals(&after));
                (n1 > n0).then(|| (s1 - s0) as f64 / (n1 - n0) as f64)
            };
            RestorePoint {
                distance,
                lsn,
                restore: Sample::from_runs(&times),
                split: mean("ld.restore.audit_ns").zip(mean("ld.restore.replay_ns")),
                mappings,
            }
        })
        .collect()
}

fn scrub_bench(disk: &CleaningDisk, runs: usize) -> ScrubBench {
    let mut times = Vec::with_capacity(runs);
    let mut segments = 0u64;
    let mut entries = 0u64;
    for _ in 0..runs {
        // Each pass on a fresh clone: scrubbing a healthy disk is
        // idempotent, but the clone keeps the stats honest per pass.
        let mut probe = disk.disk().clone();
        let t0 = Instant::now();
        let report = probe.scrub();
        times.push(t0.elapsed());
        assert!(report.clean(), "history disk must audit clean");
        segments = report.scanned;
        entries = report.entries;
    }
    let scrub = Sample::from_runs(&times);
    let mean_s = scrub.mean_ns / 1e9;
    let throughput_m = if mean_s > 0.0 {
        entries as f64 / mean_s / 1e6
    } else {
        0.0
    };
    ScrubBench {
        segments,
        entries,
        scrub,
        throughput_m,
    }
}

/// One seeded bit-rot drill: stream with latent rot, crash, audit,
/// quarantine, redo-tail replay, and the content-model verdict.
fn rot_drill(cfg: &RunConfig, seed: u64) -> RotDrill {
    let blocks = cfg.ld_blocks;
    let writes = (cfg.ld_writes * 2) as u64;
    let config = LdConfig {
        blocks,
        segment_blocks: 16,
    };
    let stream: Vec<u64> = workload::trace(blocks, writes, seed ^ 0xD0, 800, 200).collect();
    let plan = FaultPlan::quiet(seed).with_bitrot(BITROT_PERMILLE);
    let mut faulty = FaultyDisk::new(DiskModel::default(), plan);

    let mut oracle = LogicalDisk::new(config);
    let mut victim = LogicalDisk::new(config);
    // Content model: what (logical, write-index) each physical block
    // holds on the victim, and the newest write index per logical.
    // Silent corruption is defined against *content*: after recovery a
    // logical block must resolve to its newest content — bit-equality
    // of maps is the wrong oracle, because redo legitimately allocates
    // new physical blocks.
    let mut phys_content: Vec<Option<(u64, u64)>> = Vec::new();
    let mut latest: Vec<Option<u64>> = vec![None; blocks];
    let mut record = |victim: &LogicalDisk, l: u64, idx: u64, bump: bool| {
        let p = victim.read(l).expect("just wrote it") as usize;
        if p >= phys_content.len() {
            phys_content.resize(p + 1, None);
        }
        if bump {
            latest[l as usize] = Some(idx);
        }
        // Always stamp the write's own index: the oracle must stay
        // independent of the mechanism under test, so a redone block is
        // marked with the write actually redone — if redo ever installs
        // a stale copy, the verdict sees idx != latest and flags it.
        phys_content[p] = Some((l, idx));
    };

    let mut corrupted: HashSet<usize> = HashSet::new();
    for (i, &l) in stream.iter().enumerate() {
        oracle.write(l);
        let flushed = victim.write(l).is_some();
        record(&victim, l, i as u64, true);
        if flushed {
            // Price the segment write; under the quiet-plus-bitrot plan
            // it cannot fail, only silently rot.
            faulty.segment_write().expect("quiet plan cannot fail");
            if let Some(rot) = faulty.bitrot() {
                // Rot strikes anywhere in the persisted history, not
                // just the newest segment. Struck segments are deduped
                // by index — stable here, since segments are only ever
                // appended during the run — never by a field of the
                // record itself, which a prior summary strike may have
                // already flipped into a fresh-looking identity.
                let index = (rot.entropy % victim.segments().len() as u64) as usize;
                if corrupted.insert(index) {
                    victim.corrupt_segment(index, rot.summary, rot.entropy);
                } else {
                    // A second strike on an already-rotted segment has
                    // nothing intact left to corrupt: injected, but
                    // undetectable by design. Accounted, not applied.
                }
            }
        }
    }

    // Crash: the in-memory map is gone; recovery must come from the
    // (partly rotted) sealed records plus redo-tail replay.
    let t0 = Instant::now();
    let pending = victim.crash();
    let report = victim.scrub();
    victim.rebuild_map();
    // Per-slot LSN guard over the surviving history: a span write is
    // redone only when every surviving mapping for that block is older
    // than the write being redone. Without the guard, a block whose
    // corrupted-segment write was superseded by a newer write in a
    // later intact segment would be rolled back to the stale copy (and
    // overlapping spans from adjacent quarantines would redo twice).
    let mut guard = Replayer::new(blocks);
    for s in victim.segments() {
        guard.apply_segment(s);
    }
    let mut redone = 0u64;
    for &(start, end) in &report.redo_spans {
        for i in start..end {
            let l = stream[i as usize];
            let e = MapEntry {
                lsn: i,
                logical: l,
                physical: 0, // the guard only consults the LSN
            };
            if guard.apply(&e) {
                victim.write(l);
                record(&victim, l, i, false);
                redone += 1;
            }
        }
    }
    // Open-segment writes carry the newest LSNs of all, so they always
    // win; each is stamped with its true index in the stream.
    let first_pending = stream.len() - pending.len();
    for (k, l) in pending.into_iter().enumerate() {
        victim.write(l);
        record(&victim, l, (first_pending + k) as u64, false);
        redone += 1;
    }
    let recovery = t0.elapsed();

    // The verdict: every mapped logical block must resolve to its
    // newest content; every unmapped one must be unmapped on the
    // oracle too. Anything else is silent corruption.
    let mut silent_wrong_map = 0u64;
    for l in 0..blocks as u64 {
        let ok = match (oracle.read(l), victim.read(l)) {
            (None, None) => true,
            (Some(_), Some(p)) => {
                phys_content.get(p as usize).copied().flatten() == Some((l, latest[l as usize].unwrap()))
            }
            _ => false,
        };
        if !ok {
            silent_wrong_map += 1;
        }
    }

    let faults = faulty.stats();
    let detected = report.failures;
    let undetected_by_design = faults.bitrot - corrupted.len() as u64;
    RotDrill {
        seed,
        injected: faults.bitrot,
        corrupted: corrupted.len() as u64,
        detected,
        undetected_by_design,
        redone,
        silent_wrong_map,
        recovery,
        faults,
    }
}

/// One technology's post-restore hand-off: adopt the midpoint-restored
/// map into the graft, spot-check it, and race the tail service cost.
fn restore_row(
    cfg: &RunConfig,
    manager: &GraftManager,
    tech: Technology,
    restored: &[i64],
    tail_ratio: f64,
) -> Result<Table14Row, GraftError> {
    let blocks = restored.len();
    let mut engine = manager.load(&ld_graft::spec_sized(blocks), tech)?;
    ld_graft::init_map(engine.as_mut(), blocks)?;
    let region = engine.bind_region("map")?;

    let runs = if tech == Technology::UserLevel {
        cfg.runs.clamp(1, 2)
    } else {
        cfg.runs.clamp(1, 5)
    };
    let mut adopts = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        engine.restore_region(region, restored)?;
        adopts.push(t0.elapsed());
    }

    // Spot-check the adopted map through the graft's own lookup path.
    let probes = if tech == Technology::UserLevel { 8 } else { 64 };
    let stride = (blocks / probes).max(1);
    let mut verified_lookups = 0u64;
    let mut lookup_mismatches = 0u64;
    for l in (0..blocks).step_by(stride) {
        let got = engine.invoke("ld_lookup", &[l as i64])?;
        verified_lookups += 1;
        if got != restored[l] {
            lookup_mismatches += 1;
        }
    }

    Ok(Table14Row {
        tech,
        adopt: Sample::from_runs(&adopts),
        verified_lookups,
        lookup_mismatches,
        post_over_base: tail_ratio,
    })
}

/// Runs the Table 14 experiment.
pub fn table14(cfg: &RunConfig) -> Result<Table14, GraftError> {
    let _span = graft_telemetry::span!("table14_durable");
    let runs = cfg.runs.clamp(2, 5);

    // ---- History disk: the scaled trace with retention merging. ----
    let writes = cfg.ld_writes * 8;
    let blocks = cfg.ld_blocks * 2;
    let window = (writes / 2) as u64;
    let mut history = history_disk(writes, blocks, window);
    let restore_curve = restore_curve(&mut history, runs);
    let scrub = scrub_bench(&history, runs);
    let retention_pass = Sample::from_runs(history.retention_passes());
    let pruned_entries = history.disk().stats().pruned_entries;
    let retained_entries = history.disk().retained_entries();
    drop(history);

    // ---- Bit-rot drills. ----
    let drills: Vec<RotDrill> = ROT_SEEDS.iter().map(|&s| rot_drill(cfg, s)).collect();
    let plan = FaultPlan::quiet(ROT_SEEDS[0]).with_bitrot(BITROT_PERMILLE);

    // ---- Per-technology post-restore rows (Table 9 rig sizes). ----
    let row_blocks = cfg.ld_blocks;
    let config = LdConfig {
        blocks: row_blocks,
        segment_blocks: 16,
    };
    let stream: Vec<u64> = workload::trace(row_blocks, cfg.ld_writes as u64, 42, 800, 200).collect();
    let half = (stream.len() / 2 / 16).max(1) * 16;
    let mut full = LogicalDisk::new(config);
    for &l in &stream {
        full.write(l);
    }
    let restored = full
        .restore_to_lsn(half as u64)
        .expect("midpoint is retained");
    // Exactness against the oracle that only ever saw the prefix.
    let mut oracle_half = LogicalDisk::new(config);
    for &l in &stream[..half] {
        oracle_half.write(l);
    }
    let restore_divergence = restored
        .iter()
        .zip(oracle_half.map().iter())
        .filter(|(a, b)| a != b)
        .count() as u64;

    // Tail service race: the restored state vs the state that never
    // time traveled, both adopted through `with_map`, priced through
    // the deterministic DiskModel exactly as Table 9's hand-off gate.
    let tail = &stream[half..];
    let model = DiskModel::default();
    let service_cost = |map: &[i64]| -> Duration {
        let mut d = LogicalDisk::with_map(config, map);
        let mut flushes = 0u32;
        for &l in tail {
            if d.write(l).is_some() {
                flushes += 1;
            }
        }
        model.segment_write() * flushes
    };
    let post_cost = service_cost(&restored);
    let base_cost = service_cost(oracle_half.map());
    let tail_ratio = if post_cost.is_zero() {
        1.0
    } else {
        base_cost.as_secs_f64() / post_cost.as_secs_f64()
    };

    let manager = GraftManager::new();
    let mut rows = Vec::new();
    for tech in ROW_ORDER {
        if tech == Technology::Script {
            continue; // no Tcl Logical Disk, as in Table 6
        }
        rows.push(restore_row(cfg, &manager, tech, &restored, tail_ratio)?);
    }

    let t = Table14 {
        rows,
        restore_curve,
        scrub,
        drills,
        writes,
        blocks,
        retention_window: window,
        retention_pass,
        pruned_entries,
        retained_entries,
        restore_divergence,
        plan,
        runs,
    };
    if graft_telemetry::enabled() {
        graft_telemetry::counter!("ld.silent_wrong_map").add(t.silent_total());
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            runs: 2,
            evict_iters: 50,
            script_evict_iters: 5,
            md5_bytes: 128,
            script_md5_bytes: 128,
            ld_writes: 1_024,
            ld_blocks: 512,
            live: false,
            faults: None,
        }
    }

    #[test]
    fn every_drill_detects_every_corruption_with_no_silent_wrong_map() {
        let mut t = table14(&tiny()).unwrap();
        assert_eq!(t.drills.len(), ROT_SEEDS.len());
        let mut corrupted_somewhere = false;
        for d in &t.drills {
            assert_eq!(
                d.detected, d.corrupted,
                "seed {}: every corrupted segment must be detected",
                d.seed
            );
            assert_eq!(
                d.injected,
                d.corrupted + d.undetected_by_design,
                "seed {}: fault accounting must reconcile",
                d.seed
            );
            assert_eq!(d.faults.bitrot, d.injected, "seed {}", d.seed);
            assert_eq!(d.silent_wrong_map, 0, "seed {}: silent corruption", d.seed);
            corrupted_somewhere |= d.corrupted > 0;
        }
        assert!(corrupted_somewhere, "drills must actually inject rot");
        assert_eq!(t.silent_total(), 0);
        assert!(t.gates().iter().all(Gate::passes), "{:?}", t.gates());

        // One missed corruption in 200 rounds to a 100% rate at the old
        // report precision, but the gate compares the counts.
        t.drills[0].corrupted = 200;
        t.drills[0].detected = 199;
        assert_eq!(format!("{:.0}%", t.drills[0].detection_rate() * 100.0), "100%");
        let gate = &t.gates()[0];
        assert_eq!((gate.name.as_str(), gate.value), ("bitrot corrupted - detected", Some(1.0)));
        assert!(!gate.passes());
        let report = crate::report::render_table14(&t);
        assert!(report.contains("gate: bitrot corrupted - detected = 1 (== 0) FAIL"));
    }

    #[test]
    fn restore_rows_are_exact_and_cost_neutral() {
        let t = table14(&tiny()).unwrap();
        assert_eq!(t.rows.len(), ROW_ORDER.len() - 1);
        assert!(t.row(Technology::Script).is_none());
        assert_eq!(t.restore_divergence, 0, "midpoint restore must be exact");
        for row in &t.rows {
            assert!(row.verified_lookups > 0, "{}", row.tech);
            assert_eq!(row.lookup_mismatches, 0, "{}: adopted map lies", row.tech);
            assert!(row.adopt.best_ns() > 0.0, "{}", row.tech);
            assert!(
                row.post_over_base >= 0.95,
                "{}: post/base = {:.3}",
                row.tech,
                row.post_over_base
            );
        }
        assert_eq!(t.mismatch_total(), 0);
    }

    #[test]
    fn the_history_disk_is_merged_and_scrubbable() {
        let t = table14(&tiny()).unwrap();
        assert!(t.pruned_entries > 0, "retention merging must prune");
        assert!(t.retention_pass.runs > 0);
        assert!(t.retention_pass.best_ns() > 0.0);
        assert!(t.retained_entries > 0);
        assert!(t.scrub.entries > 0);
        assert!(t.scrub.segments > 0);
        assert!(t.scrub.throughput_m > 0.0);
        assert!(!t.restore_curve.is_empty());
        for p in &t.restore_curve {
            assert!(p.restore.best_ns() > 0.0);
            assert!(p.mappings > 0);
            // Other tests toggle telemetry, so the split may be absent.
            if let Some((audit, replay)) = p.split {
                assert!(audit > 0.0 && replay > 0.0);
            }
        }
        // Distances are distinct and the curve covers the whole window.
        let span = t.restore_curve.last().unwrap().distance;
        assert!(span > 0);
    }

    #[test]
    fn guarded_redo_never_rolls_back_a_superseded_block() {
        // Block 1 is written in segment 0 (physical 0) and rewritten in
        // segment 1 (physical 4). Rotting segment 0 puts write 0 in the
        // redo span, but the per-slot LSN guard must refuse to roll
        // block 1 back over its newer surviving copy — exactly the
        // recovery sequence rot_drill runs.
        let config = LdConfig {
            blocks: 64,
            segment_blocks: 4,
        };
        let stream = [1u64, 2, 3, 4, 1, 5, 6, 7];
        let mut d = LogicalDisk::new(config);
        for &l in &stream {
            d.write(l);
        }
        d.corrupt_segment(0, false, 0xAB).unwrap();
        d.crash();
        let report = d.scrub();
        d.rebuild_map();
        assert_eq!(report.redo_spans, vec![(0, 4)]);
        let mut guard = Replayer::new(config.blocks);
        for s in d.segments() {
            guard.apply_segment(s);
        }
        let mut redone = 0;
        for &(start, end) in &report.redo_spans {
            for i in start..end {
                let l = stream[i as usize];
                let e = MapEntry {
                    lsn: i,
                    logical: l,
                    physical: 0,
                };
                if guard.apply(&e) {
                    d.write(l);
                    redone += 1;
                }
            }
        }
        // Writes 1..4 (blocks 2, 3, 4) are redone; write 0 (block 1)
        // is skipped: its surviving copy at LSN 4 is newer.
        assert_eq!(redone, 3);
        assert_eq!(d.read(1), Some(4), "newest copy must survive the redo");
        assert!(d.read(2).is_some());
        assert!(d.read(3).is_some());
        assert!(d.read(4).is_some());
    }

    #[test]
    fn drills_are_deterministic_in_their_seeds() {
        let cfg = tiny();
        let a = table14(&cfg).unwrap();
        let b = table14(&cfg).unwrap();
        for (x, y) in a.drills.iter().zip(&b.drills) {
            assert_eq!(x.injected, y.injected);
            assert_eq!(x.corrupted, y.corrupted);
            assert_eq!(x.detected, y.detected);
            assert_eq!(x.redone, y.redone);
            assert_eq!(x.faults, y.faults);
        }
        assert_eq!(a.restore_divergence, b.restore_divergence);
        assert_eq!(a.retained_entries, b.retained_entries);
    }
}
