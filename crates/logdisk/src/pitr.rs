//! Point-in-time restore: multi-version segment history, idempotent
//! replay, and retention merging.
//!
//! The sealed-segment records ([`SealedSegment`]) already keep every
//! mapping generation — a rewrite appends a new `(lsn, logical,
//! physical)` entry instead of erasing the old one — so the durable
//! history is a full version chain down to the **retention floor**.
//! [`LogicalDisk::restore_to_lsn`] rebuilds the exact logical→physical
//! map as of *any* retained LSN by replaying entries below the target
//! through an idempotent [`Replayer`]; replaying a prefix twice (or
//! resuming after a mid-replay crash) is a no-op, because every slot is
//! guarded by the LSN that last advanced it.
//!
//! Unbounded history would explode physical use, so
//! [`LogicalDisk::merge_below_watermark`] folds the segments wholly
//! below a watermark into one *merged* segment keeping only the newest
//! entry per logical block — exactly the state any restore at or above
//! the watermark can still observe — and raises the retention floor.
//! The cleaner drives this from its normal passes
//! ([`CleaningDisk::with_retention`]), making retention pressure part
//! of the measured workload rather than a free lunch.
//!
//! The retention pass is audited like every other reader of the
//! history: it verifies each record before believing any of its LSNs,
//! and refuses to fold rot (sealing it under a fresh checksum would
//! launder it past every later audit). It is also linear: one sweep
//! against a per-block bitmap, no hashing, no sorting, and its output
//! is exactly the newest-entry-per-block record in LSN order.
//!
//! [`CleaningDisk::with_retention`]: crate::cleaner::CleaningDisk::with_retention

use crate::{LogicalDisk, MapEntry, SealedSegment, UNMAPPED};

/// Why a [`LogicalDisk::restore_to_lsn`] request was refused.
///
/// Refusal is loud by design: a restore that cannot be exact returns an
/// error, never an approximate map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The target LSN predates the retention floor (merged away).
    BelowRetention {
        /// Lowest restorable LSN.
        floor: u64,
    },
    /// The target LSN is past the durable head (those writes were never
    /// sealed, so no exact map for them exists on disk).
    BeyondDurable {
        /// One past the newest restorable LSN.
        durable: u64,
    },
    /// A retained segment failed its checksum audit; restoring through
    /// corrupt history would risk a silently wrong map, so the restore
    /// refuses. Scrub (quarantine + redo-tail replay) and retry.
    CorruptSegment {
        /// Index of the offending segment in [`LogicalDisk::segments`].
        index: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::BelowRetention { floor } => {
                write!(f, "target LSN below retention floor {floor}")
            }
            RestoreError::BeyondDurable { durable } => {
                write!(f, "target LSN beyond durable head {durable}")
            }
            RestoreError::CorruptSegment { index } => {
                write!(f, "segment {index} failed checksum audit")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Result of one [`LogicalDisk::merge_below_watermark`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Segments folded into the merged record this pass.
    pub merged_segments: u64,
    /// History entries dropped (superseded below the watermark).
    pub pruned_entries: u64,
    /// Mapping entries retained across the whole history after the pass.
    pub retained_entries: u64,
    /// Records that failed their audit during the pass. Nonzero means
    /// the pass was refused: nothing was folded or sealed, and the
    /// history and the retention floor are as they were.
    pub checksum_failures: u64,
}

impl MergeReport {
    /// Whether the pass was refused because history it read had rotted.
    pub fn refused(&self) -> bool {
        self.checksum_failures > 0
    }
}

/// An idempotent mapping replayer: entries can arrive in any order, any
/// number of times, and the newest LSN per logical block always wins.
///
/// Each slot remembers the LSN that last advanced it, so re-applying a
/// prefix — or resuming a replay that crashed halfway — changes
/// nothing. This is the engine under [`LogicalDisk::rebuild_map`] and
/// [`LogicalDisk::restore_to_lsn`].
#[derive(Debug, Clone)]
pub struct Replayer {
    map: Vec<i64>,
    /// Per-slot guard: `lsn + 1` of the entry that set it (0 = never).
    applied: Vec<u64>,
    advanced: u64,
}

impl Replayer {
    /// A fresh replayer over a disk of `blocks` logical blocks.
    pub fn new(blocks: usize) -> Self {
        Replayer {
            map: vec![UNMAPPED; blocks],
            applied: vec![0; blocks],
            advanced: 0,
        }
    }

    /// Applies one entry; returns whether it advanced the map (false
    /// when an equal-or-newer entry already holds the slot, or the
    /// logical block is out of range).
    #[inline]
    pub fn apply(&mut self, e: &MapEntry) -> bool {
        let Some(guard) = self.applied.get_mut(e.logical as usize) else {
            return false;
        };
        if e.lsn < *guard {
            return false;
        }
        *guard = e.lsn + 1;
        self.map[e.logical as usize] = e.physical as i64;
        self.advanced += 1;
        true
    }

    /// Applies every entry of a segment; returns how many advanced.
    pub fn apply_segment(&mut self, s: &SealedSegment) -> u64 {
        let mut n = 0;
        for e in &s.entries {
            n += self.apply(e) as u64;
        }
        n
    }

    /// Entries that have advanced the map so far.
    pub fn advanced(&self) -> u64 {
        self.advanced
    }

    /// The replayed map (read-only view).
    pub fn map(&self) -> &[i64] {
        &self.map
    }

    /// Consumes the replayer, yielding the replayed map.
    pub fn into_map(self) -> Vec<i64> {
        self.map
    }
}

impl LogicalDisk {
    /// One past the newest durably sealed LSN (the durable head).
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// The next LSN a write would receive (the log clock).
    pub fn head_lsn(&self) -> u64 {
        self.stats.writes
    }

    /// Lowest LSN still restorable. Starts at 0; raised by
    /// [`merge_below_watermark`](LogicalDisk::merge_below_watermark).
    pub fn retention_floor(&self) -> u64 {
        self.retention_floor
    }

    /// Mapping entries retained across the whole durable history.
    pub fn retained_entries(&self) -> u64 {
        self.segments.iter().map(|s| s.entries.len() as u64).sum()
    }

    /// Modelled bytes of the retained history: 24 bytes per entry
    /// (three u64 words) plus a 40-byte summary block per segment.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_entries() * 24 + self.segments.len() as u64 * 40
    }

    /// Rebuilds the exact logical→physical map **as of LSN `lsn`** —
    /// the map an observer would have seen after the first `lsn` writes
    /// — from the retained multi-version history. `lsn` may point
    /// mid-segment: physical addresses are assigned at write time and
    /// only sealed later, so the prefix below `lsn` is exact.
    ///
    /// Every retained segment is checksum-audited first; a mismatch
    /// refuses the restore ([`RestoreError::CorruptSegment`]) rather
    /// than replaying through corrupt history, and every mismatching
    /// segment the audit found is counted in
    /// [`LdStats::checksum_failures`](crate::LdStats::checksum_failures)
    /// so corruption first noticed by a restore still reaches
    /// telemetry. (Each audit counts what it finds, so a scrub after a
    /// refused restore counts — and quarantines — the same rot again.)
    /// The live disk is not modified (only statistics move): the
    /// returned map can be adopted via [`LogicalDisk::with_map`] or
    /// handed to a graft.
    pub fn restore_to_lsn(&mut self, lsn: u64) -> Result<Vec<i64>, RestoreError> {
        if lsn < self.retention_floor {
            return Err(RestoreError::BelowRetention {
                floor: self.retention_floor,
            });
        }
        if lsn > self.durable_lsn {
            return Err(RestoreError::BeyondDurable {
                durable: self.durable_lsn,
            });
        }
        // Audit everything before believing anything: a rotted segment
        // cannot even be trusted about which LSNs it claims to hold.
        // A refusal is loud in telemetry too, but read-only: the
        // mismatches are counted, nothing is quarantined here.
        let seed = self.checksum_seed;
        let mut corrupt = self
            .segments
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.verify(seed))
            .map(|(i, _)| i);
        if let Some(index) = corrupt.next() {
            self.stats.checksum_failures += 1 + corrupt.count() as u64;
            return Err(RestoreError::CorruptSegment { index });
        }
        let mut replayer = Replayer::new(self.config.blocks);
        for s in &self.segments {
            if s.base_lsn >= lsn {
                continue; // wholly after the target
            }
            for e in s.entries.iter().filter(|e| e.lsn < lsn) {
                replayer.apply(e);
            }
        }
        self.stats.restores += 1;
        self.stats.restored_mappings += replayer.advanced();
        Ok(replayer.into_map())
    }

    /// Folds every segment wholly below `watermark` into one *merged*
    /// segment that keeps only the newest entry per logical block —
    /// precisely the state any restore at or above the watermark can
    /// still observe — then raises the retention floor to the watermark
    /// (clamped to the durable head). Restores in
    /// `[watermark, durable_lsn]` are bit-for-bit unchanged by the
    /// merge; restores below it now refuse with
    /// [`RestoreError::BelowRetention`].
    ///
    /// The pass audits before it believes: it walks the history from
    /// the front, verifying each record's checksum before reading any
    /// of its LSNs, and folds the verified prefix whose records end at
    /// or below the watermark; it stops at the first verified record
    /// past it. If any record it reads fails its audit, the pass is
    /// **refused**: nothing is sealed, the history and the floor stay
    /// as they were, and the mismatches are counted in
    /// [`LdStats::checksum_failures`](crate::LdStats::checksum_failures)
    /// and reported in [`MergeReport::checksum_failures`]. Quarantine
    /// stays [`scrub`](LogicalDisk::scrub)'s job, so the redo spans it
    /// reports are the same with or without a refused pass in between.
    ///
    /// The fold is one linear sweep: candidates newest-first against a
    /// per-block bitmap, keeping each block's first sighting. Segments
    /// hold disjoint, ordered LSN ranges, so the survivors come out in
    /// LSN order with no hashing or sorting. The merged segment is
    /// sealed under the same checksum family as fresh ones and
    /// participates in later merges, so repeated passes compound
    /// instead of stacking.
    pub fn merge_below_watermark(&mut self, watermark: u64) -> MergeReport {
        let watermark = watermark.min(self.durable_lsn);
        self.stats.merge_passes += 1;
        let seed = self.checksum_seed;
        let mut candidates = 0;
        let mut corrupt = 0u64;
        for (i, s) in self.segments.iter().enumerate() {
            if !s.verify(seed) {
                corrupt += 1;
            } else if s.end_lsn() > watermark {
                break;
            } else {
                candidates = i + 1;
            }
        }
        if corrupt > 0 {
            self.stats.checksum_failures += corrupt;
            self.stats.merge_refusals += 1;
            return MergeReport {
                checksum_failures: corrupt,
                retained_entries: self.retained_entries(),
                ..MergeReport::default()
            };
        }
        self.retention_floor = self.retention_floor.max(watermark);
        if candidates == 0 {
            return MergeReport {
                retained_entries: self.retained_entries(),
                ..MergeReport::default()
            };
        }
        let total: usize = self.segments[..candidates]
            .iter()
            .map(|s| s.entries.len())
            .sum();
        // One bit per logical block: set once the fold has kept it.
        let mut seen = vec![0u64; self.config.blocks.div_ceil(64)];
        let bit = |logical: u64| (logical as usize / 64, 1u64 << (logical % 64));
        let mut physical_start = u64::MAX;
        // Fresh records newest-first, so each block's first sighting is
        // its newest entry; reversed, the survivors are in LSN order.
        let base_merged = self.segments[0].merged;
        let fresh_records = &self.segments[usize::from(base_merged)..candidates];
        let mut fresh = Vec::new();
        for seg in fresh_records.iter().rev() {
            for e in seg.entries.iter().rev() {
                let (word, mask) = bit(e.logical);
                if seen[word] & mask == 0 {
                    seen[word] |= mask;
                    physical_start = physical_start.min(e.physical);
                    fresh.push(*e);
                }
            }
        }
        fresh.reverse();
        // A merged base holds one entry per block, all older than any
        // fresh entry: its unseen entries survive in place, in order.
        let mut survivors = if base_merged {
            std::mem::take(&mut self.segments[0].entries)
        } else {
            Vec::new()
        };
        survivors.retain(|e| {
            let (word, mask) = bit(e.logical);
            let unseen = seen[word] & mask == 0;
            if unseen {
                physical_start = physical_start.min(e.physical);
            }
            unseen
        });
        survivors.append(&mut fresh);
        let pruned = (total - survivors.len()) as u64;
        let physical_start = if survivors.is_empty() {
            0
        } else {
            physical_start
        };
        let mut merged = SealedSegment {
            base_lsn: survivors.first().map(|e| e.lsn).unwrap_or(watermark),
            physical_start,
            merged: true,
            entries: survivors,
            checksum: 0,
        };
        merged.seal(seed);
        self.segments.splice(..candidates, [merged]);
        self.stats.merged_segments += candidates as u64;
        self.stats.pruned_entries += pruned;
        MergeReport {
            merged_segments: candidates as u64,
            pruned_entries: pruned,
            retained_entries: self.retained_entries(),
            checksum_failures: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{workload, LdConfig};

    fn config() -> LdConfig {
        LdConfig {
            blocks: 128,
            segment_blocks: 8,
        }
    }

    /// The oracle map as of `lsn`: replay the stream prefix by hand.
    fn oracle_prefix(cfg: LdConfig, stream: &[u64], lsn: u64) -> Vec<i64> {
        let mut m = vec![UNMAPPED; cfg.blocks];
        for (i, &l) in stream.iter().take(lsn as usize).enumerate() {
            m[l as usize] = i as i64;
        }
        m
    }

    #[test]
    fn restore_is_exact_at_every_retained_lsn() {
        let cfg = config();
        let stream: Vec<u64> = workload::skewed(cfg.blocks, 200, 11).collect();
        let mut d = LogicalDisk::new(cfg);
        for &l in &stream {
            d.write(l);
        }
        let durable = d.durable_lsn();
        // 200 writes over 8-block segments: all 25 segments sealed.
        assert_eq!(durable, 200);
        for lsn in 0..=durable {
            let restored = d.restore_to_lsn(lsn).unwrap();
            assert_eq!(
                restored,
                oracle_prefix(cfg, &stream, lsn),
                "restore to LSN {lsn} diverged"
            );
        }
        let s = d.stats();
        assert_eq!(s.restores, durable + 1);
    }

    #[test]
    fn restore_refuses_beyond_the_durable_head() {
        let mut d = LogicalDisk::new(config());
        for l in 0..12u64 {
            d.write(l);
        }
        assert_eq!(d.durable_lsn(), 8);
        assert!(d.restore_to_lsn(8).is_ok());
        assert_eq!(
            d.restore_to_lsn(9),
            Err(RestoreError::BeyondDurable { durable: 8 })
        );
    }

    #[test]
    fn restore_refuses_corrupt_history_loudly() {
        let mut d = LogicalDisk::new(config());
        for l in 0..32u64 {
            d.write(l % 16);
        }
        d.corrupt_segment(1, false, 0xDEAD).unwrap();
        assert_eq!(
            d.restore_to_lsn(24),
            Err(RestoreError::CorruptSegment { index: 1 })
        );
        // The refusal reaches telemetry (read-only: counted, nothing
        // quarantined yet)...
        assert_eq!(d.stats().checksum_failures, 1);
        assert_eq!(d.stats().quarantined_segments, 0);
        // ...then scrub quarantines (its own audit counts the same rot
        // again); the remaining history restores again (the quarantined
        // span's mappings are absent — reported, not wrong).
        let r = d.scrub();
        assert_eq!(r.failures, 1);
        assert_eq!(d.stats().checksum_failures, 2);
        assert_eq!(d.stats().quarantined_segments, 1);
        assert!(d.restore_to_lsn(24).is_ok());
    }

    #[test]
    fn corrupt_merged_history_is_reported_as_lost_not_an_empty_span() {
        let cfg = config();
        let mut d = LogicalDisk::new(cfg);
        for l in workload::skewed(cfg.blocks, 400, 23) {
            d.write(l);
        }
        d.merge_below_watermark(200);
        assert!(d.segments()[0].merged);
        d.corrupt_segment(0, false, 0xF00D).unwrap();
        let r = d.scrub();
        assert_eq!(r.failures, 1);
        assert_eq!(r.lost_below_floor, 1);
        assert!(
            r.redo_spans.is_empty(),
            "pre-floor loss has no redoable span in the caller's log"
        );
        assert!(!r.clean());
        // The rest of the history still audits clean, and restores at
        // or above the floor still answer — with the merged mappings
        // absent: reported, never silently wrong.
        assert!(d.scrub().clean());
        assert!(d.restore_to_lsn(d.durable_lsn()).is_ok());
    }

    #[test]
    fn merge_preserves_every_restore_at_or_above_the_watermark() {
        let cfg = config();
        let stream: Vec<u64> = workload::skewed(cfg.blocks, 400, 23).collect();
        let mut d = LogicalDisk::new(cfg);
        for &l in &stream {
            d.write(l);
        }
        let durable = d.durable_lsn();
        let watermark = 200;
        let before: Vec<Vec<i64>> = (watermark..=durable)
            .map(|lsn| d.restore_to_lsn(lsn).unwrap())
            .collect();
        let entries_before = d.retained_entries();
        let report = d.merge_below_watermark(watermark);
        assert!(report.merged_segments > 0);
        assert!(report.pruned_entries > 0, "a skewed stream must supersede");
        assert_eq!(
            d.retained_entries(),
            entries_before - report.pruned_entries
        );
        assert_eq!(d.retention_floor(), watermark);
        for (i, lsn) in (watermark..=durable).enumerate() {
            assert_eq!(
                d.restore_to_lsn(lsn).unwrap(),
                before[i],
                "merge changed restore at LSN {lsn}"
            );
        }
        assert_eq!(
            d.restore_to_lsn(watermark - 1),
            Err(RestoreError::BelowRetention { floor: watermark })
        );
        // The merged record passes audits like any other.
        assert!(d.scrub().clean());
        assert!(d.segments()[0].merged);
    }

    #[test]
    fn merges_compound_instead_of_stacking() {
        let cfg = config();
        let mut d = LogicalDisk::new(cfg);
        for l in workload::skewed(cfg.blocks, 600, 5) {
            d.write(l);
        }
        d.merge_below_watermark(200);
        let after_first = d.segments().len();
        d.merge_below_watermark(400);
        // The first merged segment was itself folded into the second.
        assert_eq!(d.segments().iter().filter(|s| s.merged).count(), 1);
        assert!(d.segments().len() < after_first);
        assert_eq!(d.retention_floor(), 400);
    }

    /// A retention pass over rotted history must not launder it: rot a
    /// fresh segment below the watermark (a payload word or a summary
    /// field, at index 1 or at the last candidate), run the pass, and
    /// the rot must still be reported — with the redo span scrub gives
    /// without the pass — and no restore may answer with a wrong map.
    #[test]
    fn a_merge_never_launders_rot_below_the_watermark() {
        let cfg = config();
        let stream: Vec<u64> = workload::skewed(cfg.blocks, 400, 31).collect();
        let watermark = 200;
        let mut intact = LogicalDisk::new(cfg);
        for &l in &stream {
            intact.write(l);
        }
        let last_candidate = intact
            .segments()
            .iter()
            .rposition(|s| s.end_lsn() <= watermark)
            .unwrap();
        assert!(last_candidate > 1);
        for index in [1, last_candidate] {
            // Payload flips of lsn / logical / physical, then summary
            // flips of checksum / base_lsn / physical_start.
            for (summary, entropy) in [
                (false, 0x0300),
                (false, 0x0901),
                (false, 0x1402),
                (true, 0x0300),
                (true, 0x0901),
                (true, 0x1402),
            ] {
                let mut d = intact.clone();
                d.corrupt_segment(index, summary, entropy).unwrap();
                let without_pass = d.clone().scrub();
                assert_eq!(without_pass.failures, 1);

                let report = d.merge_below_watermark(watermark);
                let what = format!("segment {index}, summary {summary}, entropy {entropy:#x}");
                assert!(report.refused(), "{what}: the pass folded rot");
                assert_eq!(report.checksum_failures, 1, "{what}");
                assert_eq!(report.merged_segments, 0, "{what}");
                assert_eq!(d.retention_floor(), 0, "{what}: refusal moved the floor");
                assert_eq!(d.stats().checksum_failures, 1, "{what}");
                assert_eq!(d.stats().merge_refusals, 1, "{what}");
                assert!(d.segments().iter().all(|s| !s.merged), "{what}");

                let floor = d.retention_floor();
                if let Ok(map) = d.restore_to_lsn(floor) {
                    assert_eq!(map, oracle_prefix(cfg, &stream, floor), "{what}");
                }
                let after_pass = d.scrub();
                assert_eq!(after_pass.failures, 1, "{what}: rot laundered");
                assert_eq!(after_pass.redo_spans, without_pass.redo_spans, "{what}");
            }
        }
    }

    #[test]
    fn rot_past_the_folded_prefix_does_not_refuse_the_pass() {
        let cfg = config();
        let mut d = LogicalDisk::new(cfg);
        for l in workload::skewed(cfg.blocks, 400, 31) {
            d.write(l);
        }
        // 50 segments of 8; the pass reads through segment 25 (the
        // first intact record past LSN 200) and never reaches 40.
        d.corrupt_segment(40, false, 0x0901).unwrap();
        let report = d.merge_below_watermark(200);
        assert!(!report.refused());
        assert_eq!(report.merged_segments, 25);
        assert_eq!(d.retention_floor(), 200);
        assert_eq!(d.stats().checksum_failures, 0);
        assert_eq!(d.scrub().failures, 1, "scrub still finds the rot");
    }

    #[test]
    fn rebuild_map_works_over_merged_history() {
        let cfg = config();
        let stream: Vec<u64> = workload::skewed(cfg.blocks, 320, 9).collect();
        let mut oracle = LogicalDisk::new(cfg);
        let mut victim = LogicalDisk::new(cfg);
        for &l in &stream {
            oracle.write(l);
            victim.write(l);
        }
        victim.merge_below_watermark(160);
        victim.crash();
        victim.rebuild_map();
        for b in 0..cfg.blocks as u64 {
            assert_eq!(victim.read(b), oracle.read(b), "block {b}");
        }
    }

    #[test]
    fn replayer_is_idempotent_over_prefixes() {
        let cfg = config();
        let mut d = LogicalDisk::new(cfg);
        for l in workload::skewed(cfg.blocks, 160, 3) {
            d.write(l);
        }
        let segs = d.segments();
        let mut once = Replayer::new(cfg.blocks);
        for s in segs {
            once.apply_segment(s);
        }
        // Replay a prefix twice, then the remainder: identical result.
        let mut twice = Replayer::new(cfg.blocks);
        for s in &segs[..10] {
            twice.apply_segment(s);
        }
        for s in segs {
            twice.apply_segment(s);
        }
        assert_eq!(once.map(), twice.map());
        assert_eq!(once.advanced(), twice.advanced());
    }

    #[test]
    fn replayer_ignores_out_of_range_entries() {
        let mut r = Replayer::new(4);
        assert!(!r.apply(&MapEntry {
            lsn: 0,
            logical: 99,
            physical: 0
        }));
        assert_eq!(r.advanced(), 0);
    }

    #[test]
    fn retained_bytes_track_entries_and_summaries() {
        let mut d = LogicalDisk::new(config());
        for l in 0..16u64 {
            d.write(l);
        }
        assert_eq!(d.retained_entries(), 16);
        assert_eq!(d.retained_bytes(), 16 * 24 + 2 * 40);
    }
}
