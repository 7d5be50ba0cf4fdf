//! The `ldisk` family: ingest, point-in-time restore and crash recovery
//! on one checksummed Logical Disk, on one thread, with no engines.
//!
//! Set-up fills the disk from an 80/20 trace with a retention window
//! merged on a fixed cadence. The measured phase interleaves writes with
//! restores to uniformly drawn retained LSNs and with crash-and-rebuild
//! cycles, at a fixed ratio. Every restored or rebuilt map is checked
//! against the benchmark's own write log, replayed without `Replayer`
//! or any other part of the `logdisk` crate.

use graft_rng::SmallRng;
use logdisk::workload::Trace;
use logdisk::{LdConfig, LogicalDisk, Replayer, UNMAPPED};

use crate::common::{Budget, Tally};
use crate::probe::{now_ns, SpanLog};
use crate::report::Metrics;
use crate::stats;

/// Logical blocks on the disk.
pub const BLOCKS: usize = 262_144;
/// Blocks per segment.
const SEGMENT: usize = 16;
/// LSNs behind the durable head that stay restorable.
pub const WINDOW: u64 = 131_072;
/// Writes between retention merges.
const MERGE_EVERY: u64 = 16_384;
/// Writes between retention merges while set-up fills the history (one
/// last merge then leaves it as the measured phase's cadence would).
const SETUP_MERGE_EVERY: u64 = 8 * MERGE_EVERY;
/// Writes from the trace that fill the history at set-up.
pub const FILL: u64 = 262_144;
/// Writes per cycle of the measured phase; each cycle ends in a restore.
const CYCLE_WRITES: usize = 1_024;
/// Every this many cycles, a crash and rebuild as well.
const REBUILD_EVERY: u64 = 4;
/// Most unpersisted segments a crash loses (drawn 0..=this).
const MAX_LOST_SEGMENTS: u64 = 2;
/// Spacing of the write log's map snapshots, in entries.
const SNAP_EVERY: usize = 32_768;

/// The benchmark's own record of every write the disk accepted, and the
/// map as of any LSN, rebuilt by a plain loop over that record.
///
/// It models only what the disk documents: a write gets the next LSN
/// and the next physical block; a segment seals every [`SEGMENT`]
/// writes; a crash loses the open segment plus the last `k` sealed
/// segments, whose physical blocks the redone writes then reuse.
pub struct WriteLog {
    /// `(lsn, logical, physical)`, in write order (LSNs increase).
    entries: Vec<(u64, u32, u64)>,
    /// Absolute index of `entries[0]`.
    base: usize,
    /// `(absolute position, map after the entries before it)`.
    snaps: Vec<(usize, Vec<i64>)>,
    current: Vec<i64>,
    next_lsn: u64,
    next_phys: u64,
    fill: usize,
}

impl WriteLog {
    /// An empty log over a disk of [`BLOCKS`] blocks.
    pub fn new() -> Self {
        WriteLog {
            entries: Vec::new(),
            base: 0,
            snaps: vec![(0, vec![UNMAPPED; BLOCKS])],
            current: vec![UNMAPPED; BLOCKS],
            next_lsn: 0,
            next_phys: 0,
            fill: 0,
        }
    }

    fn end(&self) -> usize {
        self.base + self.entries.len()
    }

    /// Records one accepted write.
    pub fn write(&mut self, logical: u64) {
        self.entries
            .push((self.next_lsn, logical as u32, self.next_phys));
        self.current[logical as usize] = self.next_phys as i64;
        self.next_lsn += 1;
        self.next_phys += 1;
        self.fill = (self.fill + 1) % SEGMENT;
        if self.end().is_multiple_of(SNAP_EVERY) {
            self.snaps.push((self.end(), self.current.clone()));
        }
    }

    /// Records a crash that loses the open segment and the last
    /// `segments` sealed ones; returns the blocks to redo, in write
    /// order.
    pub fn crash(&mut self, segments: usize) -> Vec<u64> {
        let lost = segments * SEGMENT + self.fill;
        let keep = self.end() - lost;
        assert!(keep >= self.base, "crash reaches below the pruned log");
        let redo = self.entries[keep - self.base..]
            .iter()
            .map(|e| u64::from(e.1))
            .collect();
        self.entries.truncate(keep - self.base);
        self.next_phys -= lost as u64;
        self.fill = 0;
        self.snaps.retain(|&(p, _)| p <= keep);
        self.current = self.map_at_pos(keep);
        redo
    }

    fn map_at_pos(&self, pos: usize) -> Vec<i64> {
        let (at, snap) = self
            .snaps
            .iter()
            .rev()
            .find(|(p, _)| *p <= pos)
            .expect("a snapshot at or below every retained position");
        let mut map = snap.clone();
        for &(_, logical, physical) in &self.entries[at - self.base..pos - self.base] {
            map[logical as usize] = physical as i64;
        }
        map
    }

    /// The map after every recorded write with an LSN below `lsn`.
    pub fn map_at_lsn(&self, lsn: u64) -> Vec<i64> {
        let pos = self.base + self.entries.partition_point(|e| e.0 < lsn);
        self.map_at_pos(pos)
    }

    /// The map after every recorded write.
    pub fn current(&self) -> &[i64] {
        &self.current
    }

    /// Drops history no restore can ask for any more: everything more
    /// than twice the retention window behind the log's head.
    fn prune(&mut self) {
        let horizon = self.next_lsn.saturating_sub(2 * WINDOW);
        let pos = self.base + self.entries.partition_point(|e| e.0 < horizon);
        let Some(keep) = self.snaps.iter().rposition(|(p, _)| *p <= pos) else {
            return;
        };
        self.snaps.drain(..keep);
        let at = self.snaps[0].0;
        self.entries.drain(..at - self.base);
        self.base = at;
    }
}

impl Default for WriteLog {
    fn default() -> Self {
        WriteLog::new()
    }
}

/// The disk, its write stream, and the oracle log.
pub struct LdiskRig {
    disk: LogicalDisk,
    stream: Trace,
    log: WriteLog,
    /// Blocks written to the disk and not yet to the log: the log is
    /// brought up to date outside every timed region.
    unlogged: Vec<u64>,
    rng: SmallRng,
    since_merge: u64,
    merge_every: u64,
    /// Time spent in retention merges, and passes, since the last read.
    merge: (u64, u64),
}

/// Builds the disk and fills its history: every block once, then
/// [`FILL`] writes from the trace, merged every [`MERGE_EVERY`].
pub fn build(seed: u64) -> LdiskRig {
    let mut rig = LdiskRig {
        disk: LogicalDisk::new(LdConfig {
            blocks: BLOCKS,
            segment_blocks: SEGMENT,
        }),
        stream: logdisk::workload::trace(BLOCKS, u64::MAX, seed, 800, 200),
        log: WriteLog::new(),
        unlogged: Vec::with_capacity(CYCLE_WRITES),
        rng: SmallRng::seed_from_u64(seed ^ 0x006c_6469_736b),
        since_merge: 0,
        merge_every: SETUP_MERGE_EVERY,
        merge: (0, 0),
    };
    // Format: every block written once, so that the retained history,
    // and with it the cost of a restore, a rebuild or a merge, is the
    // same at every point of the measured phase.
    for first in (0..BLOCKS as u64).step_by(CYCLE_WRITES) {
        for block in first..first + CYCLE_WRITES as u64 {
            rig.write(block);
        }
        rig.sync_log();
    }
    for _ in 0..FILL / CYCLE_WRITES as u64 {
        for _ in 0..CYCLE_WRITES {
            rig.write_next();
        }
        rig.sync_log();
    }
    rig.merge();
    rig.merge_every = MERGE_EVERY;
    rig.merge = (0, 0);
    rig
}

impl LdiskRig {
    /// Writes the next block of the stream (merging on cadence);
    /// returns whether the write sealed a segment.
    fn write_next(&mut self) -> bool {
        let logical = self.stream.next().expect("the trace is unbounded");
        self.write(logical)
    }

    /// The program's work only: the disk write, and a retention merge
    /// when one is due. The log catches up in [`Self::sync_log`].
    fn write(&mut self, logical: u64) -> bool {
        let sealed = self.disk.write(logical).is_some();
        self.unlogged.push(logical);
        self.since_merge += 1;
        if self.since_merge >= self.merge_every {
            self.merge();
        }
        sealed
    }

    /// A retention pass: folds the history below the window.
    fn merge(&mut self) {
        self.since_merge = 0;
        let t = now_ns();
        let watermark = self.disk.durable_lsn().saturating_sub(WINDOW);
        self.disk.merge_below_watermark(watermark);
        self.merge.0 += now_ns() - t;
        self.merge.1 += 1;
    }

    /// Records the blocks written since the last call in the oracle log,
    /// and drops log history no restore can reach any more.
    fn sync_log(&mut self) {
        for &logical in &self.unlogged {
            self.log.write(logical);
        }
        self.unlogged.clear();
        self.log.prune();
    }
}

#[cfg(test)]
impl LdiskRig {
    /// The disk's current logical→physical map.
    pub fn disk_map(&self) -> &[i64] {
        self.disk.map()
    }

    /// The oracle log.
    pub fn log(&self) -> &WriteLog {
        &self.log
    }
}

/// What one run of the family measured.
#[derive(Debug, Clone, Default)]
pub struct LdiskRun {
    /// Logical writes in the measured stream.
    pub writes: u64,
    /// Time spent writing, merges included, ns.
    pub write_ns: u64,
    /// Restore times, ns.
    pub restore: Vec<f64>,
    /// Crash-plus-rebuild times, ns.
    pub rebuild: Vec<f64>,
    /// Cycles run so far.
    cycles: u64,
    /// Retention merges: time spent, ns, and passes.
    merge: (u64, u64),
    /// Layer timings and counts (traced runs only).
    acc: LayerAcc,
}

#[derive(Debug, Clone, Default)]
struct LayerAcc {
    /// Audit + replay per traced restore, ns.
    parts: Vec<f64>,
    plain: (u64, u64),
    seal: (u64, u64),
    audit_ns: u64,
    replay_ns: u64,
    audited_segments: u64,
    audited_entries: u64,
    replayed_segments: u64,
    replayed_entries: u64,
    retained_entries: u64,
    retained_bytes_per_live: f64,
    rebuilt: u64,
}

/// Compares a restored map with the oracle's.
pub fn restore_matches(log: &WriteLog, lsn: u64, map: &[i64]) -> bool {
    log.map_at_lsn(lsn) == map
}

/// Runs cycles until `budget` is spent. Adds to `out`, so a run can be
/// spread over several slices of the wall clock.
pub fn run(
    rig: &mut LdiskRig,
    budget: Budget,
    traced: bool,
    out: &mut LdiskRun,
    log: &mut SpanLog,
    tally: &mut Tally,
) {
    let acc = &mut out.acc;
    let merge0 = rig.merge;
    let mut clock = budget.start();
    while clock.more() {
        let cycle = out.cycles;
        out.cycles += 1;
        let op = log.op();
        // Writes, merges on cadence included.
        let t0 = now_ns();
        if traced {
            for _ in 0..CYCLE_WRITES {
                let t = now_ns();
                let merge_before = rig.merge.0;
                let sealed = rig.write_next();
                let ns = now_ns() - t - (rig.merge.0 - merge_before);
                let slot = if sealed {
                    &mut acc.seal
                } else {
                    &mut acc.plain
                };
                slot.0 += ns;
                slot.1 += 1;
            }
        } else {
            for _ in 0..CYCLE_WRITES {
                rig.write_next();
            }
        }
        let t1 = now_ns();
        rig.sync_log();
        log.push("ld.write", t0, t1, SpanLog::ROOT, op);
        out.write_ns += t1 - t0;
        out.writes += CYCLE_WRITES as u64;
        tally.add("ld_write", CYCLE_WRITES as u64, 0);

        // A restore to a uniformly drawn retained LSN.
        let floor = rig.disk.retention_floor();
        let durable = rig.disk.durable_lsn();
        let lsn = floor + rig.rng.bounded_u64(durable - floor + 1);
        if traced {
            restore_parts(rig, lsn, acc, log, op);
        }
        let t = now_ns();
        let restored = rig.disk.restore_to_lsn(lsn);
        let t2 = now_ns();
        log.push("ld.restore", t, t2, SpanLog::ROOT, op);
        out.restore.push((t2 - t) as f64);
        tally.check(
            "restore",
            restored.is_ok_and(|map| restore_matches(&rig.log, lsn, &map)),
        );

        if cycle % REBUILD_EVERY == REBUILD_EVERY - 1 {
            let lost = rig.rng.bounded_u64(MAX_LOST_SEGMENTS + 1) as usize;
            let t = now_ns();
            let redo = rig.disk.crash_with_unpersisted(lost);
            let rebuilt = rig.disk.rebuild_map();
            let t3 = now_ns();
            log.push("ld.rebuild", t, t3, SpanLog::ROOT, op);
            out.rebuild.push((t3 - t) as f64);
            acc.rebuilt += rebuilt;
            let want_redo = rig.log.crash(lost);
            let ok = redo == want_redo && rig.disk.map() == rig.log.current();
            tally.check("rebuild", ok);
            // Recovery: the caller redoes the lost writes (untimed, and
            // not counted as stream writes).
            for logical in redo {
                rig.disk.write(logical);
                rig.log.write(logical);
            }
        }
    }
    out.merge.0 += rig.merge.0 - merge0.0;
    out.merge.1 += rig.merge.1 - merge0.1;
}

/// p50 of `(audit + replay)` per restore of a traced run, each stage
/// timed on its own, ns.
pub fn restore_parts_p50(run: &LdiskRun) -> f64 {
    stats::median(&mut run.acc.parts.clone()).unwrap_or(f64::NAN)
}

/// p50 of the restores, ns.
pub fn restore_p50(run: &LdiskRun) -> f64 {
    stats::median(&mut run.restore.clone()).unwrap_or(f64::NAN)
}

/// The traced run's independent timing of a restore's two stages: a
/// checksum audit of every retained segment, then a replay of the
/// entries below the target.
fn restore_parts(rig: &LdiskRig, lsn: u64, acc: &mut LayerAcc, log: &mut SpanLog, op: u64) {
    let seed = rig.disk.checksum_seed();
    let segments = rig.disk.segments();
    let t0 = now_ns();
    let intact = segments.iter().filter(|s| s.verify(seed)).count();
    let t1 = now_ns();
    std::hint::black_box(intact);
    let mut replayer = Replayer::new(BLOCKS);
    let mut replayed = 0u64;
    for s in segments.iter().filter(|s| s.base_lsn < lsn) {
        replayed += 1;
        for e in s.entries.iter().filter(|e| e.lsn < lsn) {
            replayer.apply(e);
        }
    }
    let t2 = now_ns();
    log.push("ld.audit", t0, t1, SpanLog::ROOT, op);
    log.push("ld.replay", t1, t2, SpanLog::ROOT, op);
    acc.audit_ns += t1 - t0;
    acc.replay_ns += t2 - t1;
    acc.parts.push((t2 - t0) as f64);
    acc.audited_segments += segments.len() as u64;
    let entries = rig.disk.retained_entries();
    acc.audited_entries += entries;
    acc.replayed_segments += replayed;
    acc.replayed_entries += replayer.advanced();
    acc.retained_entries += entries;
    let live = rig.disk.map().iter().filter(|&&p| p != UNMAPPED).count();
    acc.retained_bytes_per_live += stats::ratio(rig.disk.retained_bytes() as f64, live as f64);
}

/// The traced run's per-layer metrics.
pub fn layers(run: &LdiskRun) -> Metrics {
    let mut m = Metrics::default();
    let acc = &run.acc;
    let restores = run.restore.len() as f64;
    let merge_ns = run.merge.0 as f64;
    let merges = run.merge.1 as f64;
    m.put(
        "ld.write_plain_ns",
        stats::ratio(acc.plain.0 as f64, acc.plain.1 as f64),
        "ns",
    );
    m.put(
        "ld.write_seal_ns",
        stats::ratio(acc.seal.0 as f64, acc.seal.1 as f64),
        "ns",
    );
    m.put("ld.merge_ms", stats::ratio(merge_ns, merges) / 1e6, "ms");
    m.put(
        "ld.merge_per_write_ns",
        stats::ratio(merge_ns, run.writes as f64),
        "ns",
    );
    m.put(
        "ld.audit_ms",
        stats::ratio(acc.audit_ns as f64, restores) / 1e6,
        "ms",
    );
    m.put(
        "ld.replay_ms",
        stats::ratio(acc.replay_ns as f64, restores) / 1e6,
        "ms",
    );
    m.put(
        "ld.audited_segments",
        stats::ratio(acc.audited_segments as f64, restores),
        "count",
    );
    m.put(
        "ld.replayed_segments",
        stats::ratio(acc.replayed_segments as f64, restores),
        "count",
    );
    m.put_higher(
        "ld.useful_frac",
        stats::ratio(acc.replayed_entries as f64, acc.audited_entries as f64),
        "ratio",
    );
    m.put(
        "ld.retained_entries",
        stats::ratio(acc.retained_entries as f64, restores),
        "count",
    );
    m.put(
        "ld.retained_bytes_per_live_block",
        stats::ratio(acc.retained_bytes_per_live, restores),
        "B",
    );
    m.put(
        "ld.rebuilt_mappings",
        stats::ratio(acc.rebuilt as f64, run.rebuild.len() as f64),
        "count",
    );
    m
}

/// Restore p90, from an untraced run (the traced one spends half its
/// time on the independent audit and replay, so it restores less often).
pub fn restore_tail(run: &LdiskRun) -> Metrics {
    let mut m = Metrics::default();
    let p90 = stats::percentile(&mut run.restore.clone(), 0.9).unwrap_or(f64::NAN);
    m.put("ld.restore_p90_ms", p90 / 1e6, "ms");
    m
}

/// The family's end-to-end metrics. `ld_write_ns` charges each write
/// its share of a retention pass (the mean pass over [`MERGE_EVERY`]),
/// so it does not hinge on how many passes fell inside the run.
pub fn end_to_end(run: &LdiskRun) -> Metrics {
    let mut m = Metrics::default();
    let (merge_ns, merges) = (run.merge.0 as f64, run.merge.1 as f64);
    m.put(
        "ld_write_ns",
        stats::ratio(run.write_ns as f64 - merge_ns, run.writes as f64)
            + stats::ratio(merge_ns, merges) / MERGE_EVERY as f64,
        "ns",
    );
    m.put("restore_ms", restore_p50(run) / 1e6, "ms");
    m.put(
        "rebuild_ms",
        stats::median(&mut run.rebuild.clone()).unwrap_or(f64::NAN) / 1e6,
        "ms",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_history_other_seed_other_history() {
        let a = build(5);
        let b = build(5);
        let c = build(6);
        assert_eq!(a.disk_map(), b.disk_map());
        assert_ne!(a.disk_map(), c.disk_map());
        assert_eq!(
            a.disk_map(),
            a.log().current(),
            "set-up history matches its log"
        );
    }

    #[test]
    fn fixed_cycles_give_identical_counts_and_no_failures() {
        let counts = |seed| {
            let mut rig = build(seed);
            let mut tally = Tally::default();
            let mut out = LdiskRun::default();
            // Two slices: the rebuild cadence carries across them.
            for _ in 0..2 {
                run(
                    &mut rig,
                    Budget::Rounds(REBUILD_EVERY),
                    false,
                    &mut out,
                    &mut SpanLog::with_capacity(0),
                    &mut tally,
                );
            }
            (tally, out.restore.len(), out.rebuild.len())
        };
        let a = counts(9);
        assert_eq!(a, counts(9));
        assert_eq!(a.0.failed(), 0, "{:?}", a.0);
        assert_eq!((a.1, a.2), (8, 2));
    }

    #[test]
    fn the_restore_oracle_catches_a_perturbed_map() {
        let mut rig = build(4);
        let lsn = rig.disk.durable_lsn() - 1_000;
        let mut map = rig.disk.restore_to_lsn(lsn).unwrap();
        assert!(restore_matches(rig.log(), lsn, &map));
        let i = map.iter().position(|&p| p != UNMAPPED).unwrap();
        map[i] += 1;
        assert!(!restore_matches(rig.log(), lsn, &map));
        // The same map one LSN later is a different answer, too.
        let later = rig.disk.restore_to_lsn(lsn + 1).unwrap();
        assert!(restore_matches(rig.log(), lsn + 1, &later));
    }
}
