//! The Logical Disk facility (de Jonge et al., SOSP '93), the paper's
//! representative **black-box graft** workload (Sections 3.3 and 5.6).
//!
//! A Logical Disk sits between the filesystem and the physical disk: the
//! filesystem reads and writes *logical* blocks, and the LD maps them to
//! physical locations, batching incoming writes into physically
//! contiguous segments so that random write traffic becomes sequential.
//! The paper's simulation: a 1 GB disk of 4 KB blocks gathered into
//! 64 KB (16-block) segments, driven by 262,144 block writes skewed so
//! that 80% of the writes hit 20% of the blocks, with all mapping state
//! in main memory and no cleaner.
//!
//! This crate is the standalone facility: [`LogicalDisk`] does the
//! bookkeeping, [`workload`] generates the paper's skewed write stream
//! (and larger multi-million-block traces), and [`cleaner`] adds the
//! segment cleaner the paper explicitly left out. Beyond the paper, the
//! disk is **durable against storage that lies**: every flushed segment
//! is sealed under a seeded 64-bit checksum ([`checksum`]), audited by
//! [`LogicalDisk::scrub`] and every rebuild/restore replay, and the
//! multi-version segment history supports exact point-in-time restore
//! ([`pitr`]) down to a retention watermark.
//! The graft versions of the same bookkeeping — Grail, Tickle, bytecode,
//! native — live in the `grafts` crate and are checked against this
//! implementation as an oracle.

pub mod checksum;
pub mod cleaner;
pub mod pitr;
pub mod workload;

pub use pitr::{MergeReport, Replayer, RestoreError};

/// Sentinel for "logical block never written".
pub const UNMAPPED: i64 = -1;

/// Paper defaults: 1 GB disk, 4 KB blocks, 16-block (64 KB) segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdConfig {
    /// Total logical blocks (also the number of physical blocks).
    pub blocks: usize,
    /// Blocks per segment.
    pub segment_blocks: usize,
}

impl Default for LdConfig {
    fn default() -> Self {
        LdConfig {
            blocks: 262_144,
            segment_blocks: 16,
        }
    }
}

impl LdConfig {
    /// A small configuration for tests and quick runs.
    pub fn small() -> Self {
        LdConfig {
            blocks: 1024,
            segment_blocks: 16,
        }
    }

    /// Number of segments on the disk.
    pub fn segments(&self) -> usize {
        self.blocks / self.segment_blocks
    }
}

/// A completed segment handed to the disk: a physically contiguous run
/// of blocks to be written with one seek.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentFlush {
    /// First physical block of the segment.
    pub physical_start: u64,
    /// Logical blocks written into the segment, in order.
    pub logical: Vec<u64>,
}

/// One durable mapping record: the write with sequence number `lsn`
/// put logical block `logical` at physical block `physical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapEntry {
    /// Write sequence number (0-based; the disk's log clock).
    pub lsn: u64,
    /// Logical block written.
    pub logical: u64,
    /// Physical block it landed on.
    pub physical: u64,
}

/// A sealed on-disk segment record: the mapping payload plus the
/// summary block, checksummed together at flush time.
///
/// Fresh segments hold `segment_blocks` consecutive-LSN entries laid
/// out contiguously from `physical_start`; segments produced by the
/// multi-version merge ([`LogicalDisk::merge_below_watermark`]) carry
/// survivors from many generations, so each entry records its own
/// physical address and LSN explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedSegment {
    /// LSN of the earliest entry (summary field).
    pub base_lsn: u64,
    /// First physical block (summary field; lowest, for merged runs).
    pub physical_start: u64,
    /// True when produced by the cleaner's multi-version merge.
    pub merged: bool,
    /// Mapping payload, in LSN order.
    pub entries: Vec<MapEntry>,
    /// Seeded 64-bit digest over payload + summary fields.
    pub checksum: u64,
}

impl SealedSegment {
    /// One past the newest LSN recorded in this segment.
    pub fn end_lsn(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.lsn + 1)
            .max()
            .unwrap_or(self.base_lsn)
    }

    /// The digest over summary fields and payload (everything except
    /// the stored checksum itself).
    pub fn compute_checksum(&self, seed: u64) -> u64 {
        let summary = [
            self.base_lsn,
            self.physical_start,
            self.merged as u64,
            self.entries.len() as u64,
        ];
        let payload = self
            .entries
            .iter()
            .flat_map(|e| [e.lsn, e.logical, e.physical]);
        checksum::checksum_words(seed, summary.into_iter().chain(payload))
    }

    /// Stamps the checksum (done once, at seal time).
    pub fn seal(&mut self, seed: u64) {
        self.checksum = self.compute_checksum(seed);
    }

    /// Whether the stored checksum matches the contents.
    pub fn verify(&self, seed: u64) -> bool {
        self.checksum == self.compute_checksum(seed)
    }
}

/// Statistics accumulated by a [`LogicalDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LdStats {
    /// Total block writes accepted.
    pub writes: u64,
    /// Writes that superseded a still-buffered copy in the open segment.
    pub rewrites_in_segment: u64,
    /// Segments flushed.
    pub segments_flushed: u64,
    /// Blocks whose previous physical copy became garbage.
    pub dead_blocks: u64,
    /// Crashes simulated ([`LogicalDisk::crash`]).
    pub crashes: u64,
    /// Map rebuilds performed ([`LogicalDisk::rebuild_map`]).
    pub rebuilds: u64,
    /// Mapping entries replayed across all rebuilds.
    pub rebuilt_mappings: u64,
    /// Explicit [`LogicalDisk::scrub`] passes.
    pub scrub_passes: u64,
    /// Segments audited by scrub passes.
    pub scrub_segments: u64,
    /// Checksum mismatches found by any audit (scrub, rebuild, restore).
    pub checksum_failures: u64,
    /// Segments quarantined after a failed audit.
    pub quarantined_segments: u64,
    /// Point-in-time restores performed ([`LogicalDisk::restore_to_lsn`]).
    pub restores: u64,
    /// Mapping entries materialized across all restores.
    pub restored_mappings: u64,
    /// Multi-version merge passes ([`LogicalDisk::merge_below_watermark`]),
    /// refused ones included.
    pub merge_passes: u64,
    /// Segments consumed by merges.
    pub merged_segments: u64,
    /// History entries pruned by merges (superseded below the watermark).
    pub pruned_entries: u64,
    /// Merge passes refused because a record they read failed its audit.
    pub merge_refusals: u64,
}

/// Result of one integrity audit over the retained segment history
/// (a [`scrub`] pass, or the implicit audit before every rebuild).
///
/// [`scrub`]: LogicalDisk::scrub
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Segments audited.
    pub scanned: u64,
    /// Mapping entries covered by the audit.
    pub entries: u64,
    /// Checksum mismatches — every one of these segments was
    /// quarantined (dropped from the durable history), never replayed.
    pub failures: u64,
    /// Half-open `[start, end)` LSN spans whose writes must be redone
    /// by the caller (redo-tail replay): one span per quarantined
    /// *fresh* segment, bracketed by the *trusted* neighbours' LSNs —
    /// the corrupt record's own fields are never believed.
    pub redo_spans: Vec<(u64, u64)>,
    /// Quarantined *merged* (post-retention) segments. Their payload is
    /// pre-floor history — by definition not redoable from the caller's
    /// own log — so the loss is surfaced as a count here instead of an
    /// empty redo span clamped to the retention floor. Restores at or
    /// above the floor still answer, with the lost mappings absent:
    /// reported, never silently wrong.
    pub lost_below_floor: u64,
}

impl ScrubReport {
    /// Whether the audit found the history fully intact.
    pub fn clean(&self) -> bool {
        self.failures == 0
    }
}

/// The Logical Disk bookkeeping engine.
///
/// `write` is the hot path the paper times: one map update plus segment
/// batching per logical write. Reads translate through the map.
#[derive(Debug, Clone)]
pub struct LogicalDisk {
    config: LdConfig,
    /// Seed for the per-segment checksum family.
    checksum_seed: u64,
    /// logical → physical block, or [`UNMAPPED`].
    map: Vec<i64>,
    /// Logical blocks buffered in the currently filling segment.
    open_segment: Vec<u64>,
    /// Physical block cursor (wraps around the disk; reuse is the
    /// cleaner's concern, which the paper's run sidesteps by sizing the
    /// run to the number of blocks on the disk).
    next_physical: u64,
    /// Durable sealed-segment records (LFS-style): one per flushed
    /// segment (or merged run), appended at flush time. These survive a
    /// [`crash`]; [`rebuild_map`] audits and replays them to recover
    /// the map.
    ///
    /// [`crash`]: LogicalDisk::crash
    /// [`rebuild_map`]: LogicalDisk::rebuild_map
    segments: Vec<SealedSegment>,
    /// One past the newest durably sealed LSN.
    durable_lsn: u64,
    /// Lowest LSN still restorable (raised by multi-version merges).
    retention_floor: u64,
    stats: LdStats,
}

impl LogicalDisk {
    /// Creates an empty logical disk.
    pub fn new(config: LdConfig) -> Self {
        assert!(config.segment_blocks > 0, "segments must hold blocks");
        assert!(
            config.blocks.is_multiple_of(config.segment_blocks),
            "disk size must be a whole number of segments"
        );
        LogicalDisk {
            config,
            checksum_seed: checksum::DEFAULT_SEED,
            map: vec![UNMAPPED; config.blocks],
            open_segment: Vec::with_capacity(config.segment_blocks),
            next_physical: 0,
            segments: Vec::new(),
            durable_lsn: 0,
            retention_floor: 0,
            stats: LdStats::default(),
        }
    }

    /// Re-keys the checksum family. Call before the first write: the
    /// seed stamps every segment sealed *after* it is set, so changing
    /// it mid-history would make older intact segments fail audits.
    pub fn with_checksum_seed(mut self, seed: u64) -> Self {
        assert!(
            self.segments.is_empty() && self.open_segment.is_empty(),
            "checksum seed must be set before the first write"
        );
        self.checksum_seed = seed;
        self
    }

    /// The active checksum seed.
    pub fn checksum_seed(&self) -> u64 {
        self.checksum_seed
    }

    /// Creates a logical disk that adopts an existing logical→physical
    /// map — the degraded-mode path where the built-in policy inherits
    /// a map salvaged from a detached graft instead of starting empty.
    ///
    /// The physical cursor resumes at the next segment boundary past
    /// the highest mapped block, so new segments never overwrite the
    /// salvaged ones. No segment records are adopted: the salvaged map
    /// itself is the recovery baseline, and only segments flushed
    /// *after* adoption are replayable.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not cover exactly `config.blocks` entries.
    pub fn with_map(config: LdConfig, map: &[i64]) -> Self {
        assert_eq!(map.len(), config.blocks, "salvaged map has wrong block count");
        let mut d = LogicalDisk::new(config);
        d.map.copy_from_slice(map);
        let high = map
            .iter()
            .copied()
            .filter(|&p| p != UNMAPPED)
            .map(|p| p as u64 + 1)
            .max()
            .unwrap_or(0);
        let sb = config.segment_blocks as u64;
        d.next_physical = high.div_ceil(sb) * sb;
        d
    }

    /// The configuration.
    pub fn config(&self) -> LdConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> LdStats {
        self.stats
    }

    /// The logical→physical map (read-only view).
    pub fn map(&self) -> &[i64] {
        &self.map
    }

    /// Translates a logical block for a read; `None` if never written.
    ///
    /// Blocks still buffered in the open segment already have their
    /// final physical address, so translation is uniform.
    pub fn read(&self, logical: u64) -> Option<u64> {
        match self.map.get(logical as usize) {
            Some(&p) if p != UNMAPPED => Some(p as u64),
            _ => None,
        }
    }

    /// Accepts one logical block write; returns the flushed segment when
    /// this write fills it.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is beyond the disk (the kernel validates
    /// block numbers before they reach the LD layer).
    pub fn write(&mut self, logical: u64) -> Option<SegmentFlush> {
        let slot = logical as usize;
        assert!(slot < self.config.blocks, "logical block out of range");
        let lsn = self.stats.writes;
        self.stats.writes += 1;
        let old = self.map[slot];
        if old != UNMAPPED {
            self.stats.dead_blocks += 1;
            // If the previous copy is still in the open segment this is
            // a rewrite the batching absorbs for free.
            let seg_start = self.next_physical - self.open_segment.len() as u64;
            if (old as u64) >= seg_start {
                self.stats.rewrites_in_segment += 1;
            }
        }
        self.map[slot] = self.next_physical as i64;
        self.next_physical += 1;
        self.open_segment.push(logical);
        if self.open_segment.len() == self.config.segment_blocks {
            let logical_blocks = std::mem::take(&mut self.open_segment);
            self.open_segment = Vec::with_capacity(self.config.segment_blocks);
            self.stats.segments_flushed += 1;
            let sb = self.config.segment_blocks as u64;
            let physical_start = self.next_physical - sb;
            let base_lsn = lsn + 1 - sb;
            // The sealed record rides out to disk with the segment (one
            // sequential write, no extra seek): the mapping payload plus
            // a summary block, checksummed together. It is what
            // rebuild_map audits and replays after a crash.
            let mut sealed = SealedSegment {
                base_lsn,
                physical_start,
                merged: false,
                entries: logical_blocks
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| MapEntry {
                        lsn: base_lsn + i as u64,
                        logical: l,
                        physical: physical_start + i as u64,
                    })
                    .collect(),
                checksum: 0,
            };
            sealed.seal(self.checksum_seed);
            self.segments.push(sealed);
            self.durable_lsn = lsn + 1;
            Some(SegmentFlush {
                physical_start,
                logical: logical_blocks,
            })
        } else {
            None
        }
    }

    /// The durable sealed-segment records, in flush order.
    pub fn segments(&self) -> &[SealedSegment] {
        &self.segments
    }

    /// Simulates a crash: all volatile state — the in-memory map, the
    /// physical cursor, and the open segment buffer — is lost. Returns
    /// the logical blocks that were buffered but never flushed, i.e.
    /// the writes a caller must redo after [`rebuild_map`]; everything
    /// else is recoverable from [`segments`], which model the on-disk
    /// sealed records and therefore survive.
    ///
    /// [`rebuild_map`]: LogicalDisk::rebuild_map
    /// [`segments`]: LogicalDisk::segments
    pub fn crash(&mut self) -> Vec<u64> {
        self.crash_with_unpersisted(0)
    }

    /// [`crash`], except the last `unpersisted` segments never reached
    /// the disk — the crash interrupted their segment writes, so their
    /// sealed records are not durable either. Those records are
    /// discarded and their blocks are prepended (in original write
    /// order) to the redo list ahead of the open-segment pending
    /// writes. Redoing the list after [`rebuild_map`] refills exactly
    /// the physical slots the lost segments occupied, so the recovered
    /// disk converges on the no-crash map bit for bit.
    ///
    /// `unpersisted` is clamped to the number of sealed segments: a
    /// crash cannot lose more segments than were ever written, so
    /// asking for more simply loses them all (every flushed block comes
    /// back on the redo list).
    ///
    /// [`crash`]: LogicalDisk::crash
    /// [`rebuild_map`]: LogicalDisk::rebuild_map
    pub fn crash_with_unpersisted(&mut self, unpersisted: usize) -> Vec<u64> {
        self.stats.crashes += 1;
        self.map.fill(UNMAPPED);
        self.next_physical = 0;
        let unpersisted = unpersisted.min(self.segments.len());
        let keep = self.segments.len() - unpersisted;
        let mut redo: Vec<u64> = self
            .segments
            .drain(keep..)
            .flat_map(|s| s.entries.into_iter().map(|e| e.logical))
            .collect();
        redo.append(&mut self.open_segment);
        self.durable_lsn = self
            .segments
            .last()
            .map(SealedSegment::end_lsn)
            .unwrap_or(self.retention_floor);
        redo
    }

    /// Audits every retained segment, quarantining the ones whose
    /// checksum no longer matches — shared by [`scrub`], every
    /// [`rebuild_map`], and every restore. Redo spans are bracketed by
    /// trusted neighbours only: a corrupt record's own `base_lsn` may
    /// itself be the flipped bits, so the span runs from the previous
    /// intact segment's end to the next intact segment's base (or the
    /// retention floor / durable head at the edges).
    ///
    /// [`scrub`]: LogicalDisk::scrub
    /// [`rebuild_map`]: LogicalDisk::rebuild_map
    fn audit_quarantine(&mut self) -> ScrubReport {
        let seed = self.checksum_seed;
        let mut report = ScrubReport {
            scanned: self.segments.len() as u64,
            ..ScrubReport::default()
        };
        let intact: Vec<bool> = self.segments.iter().map(|s| s.verify(seed)).collect();
        for (i, seg) in self.segments.iter().enumerate() {
            report.entries += seg.entries.len() as u64;
            if intact[i] {
                continue;
            }
            report.failures += 1;
            if seg.merged {
                // A merged record keeps only the newest pre-floor entry
                // per block, so no LSN span in the caller's log covers
                // its loss — report it explicitly instead of an empty
                // span bracketed at the retention floor.
                report.lost_below_floor += 1;
                continue;
            }
            let start = self.segments[..i]
                .iter()
                .zip(&intact)
                .filter(|&(_, &ok)| ok)
                .map(|(s, _)| s.end_lsn())
                .next_back()
                .unwrap_or(self.retention_floor);
            let end = self.segments[i + 1..]
                .iter()
                .zip(&intact[i + 1..])
                .find(|&(_, &ok)| ok)
                .map(|(s, _)| s.base_lsn)
                .unwrap_or(self.durable_lsn);
            report.redo_spans.push((start, end.max(start)));
        }
        if report.failures > 0 {
            let mut keep = intact.iter().copied();
            self.segments.retain(|_| keep.next().unwrap_or(true));
            self.stats.checksum_failures += report.failures;
            self.stats.quarantined_segments += report.failures;
        }
        report
    }

    /// Audits the full retained history against the per-segment
    /// checksums. Corrupt segments are **quarantined** — dropped from
    /// the durable history so no rebuild or restore will ever replay
    /// them — and reported with the LSN spans whose writes the caller
    /// must redo (redo-tail replay from its own log). The live map is
    /// untouched: scrubbing detects latent rot; it does not lose state.
    pub fn scrub(&mut self) -> ScrubReport {
        let report = self.audit_quarantine();
        self.stats.scrub_passes += 1;
        self.stats.scrub_segments += report.scanned;
        report
    }

    /// Rebuilds the logical→physical map by replaying the sealed
    /// records in LSN order — later entries win, exactly as the live
    /// map resolved rewrites. Every segment is checksum-audited first;
    /// corrupt ones are quarantined (counted in
    /// [`LdStats::checksum_failures`]) and skipped, never replayed —
    /// a lying disk yields a smaller map plus an audit trail, not a
    /// silently wrong map. Restores the physical cursor to just past
    /// the highest replayed block. Returns the number of mapping
    /// entries replayed.
    ///
    /// Safe to call on a healthy disk too (it is idempotent over the
    /// flushed state); only writes still buffered at crash time are
    /// absent, and [`crash`] returned exactly those for redo.
    ///
    /// [`crash`]: LogicalDisk::crash
    pub fn rebuild_map(&mut self) -> u64 {
        self.audit_quarantine();
        self.open_segment.clear();
        let mut replayer = Replayer::new(self.config.blocks);
        let mut replayed = 0u64;
        for s in &self.segments {
            replayed += replayer.apply_segment(s);
        }
        self.map = replayer.into_map();
        let sb = self.config.segment_blocks as u64;
        let high = self
            .segments
            .iter()
            .flat_map(|s| s.entries.iter())
            .map(|e| e.physical + 1)
            .max()
            .unwrap_or(0);
        self.next_physical = high.div_ceil(sb) * sb;
        self.stats.rebuilds += 1;
        self.stats.rebuilt_mappings += replayed;
        replayed
    }

    /// Flips one stored bit in sealed segment `index` — in the mapping
    /// payload (an entry word) or, when `summary` is set, in the
    /// summary block (checksum / base LSN / physical start), the word
    /// and bit chosen from `entropy` — simulating storage bit-rot.
    /// Returns the segment's (pre-flip) base LSN as a stable identity,
    /// or `None` when the index is out of range. The corruption is
    /// silent by construction: nothing is counted until an audit
    /// detects it.
    pub fn corrupt_segment(&mut self, index: usize, summary: bool, entropy: u64) -> Option<u64> {
        let seg = self.segments.get_mut(index)?;
        let id = seg.base_lsn;
        let bit = 1u64 << ((entropy >> 8) % 64);
        if summary || seg.entries.is_empty() {
            match entropy % 3 {
                0 => seg.checksum ^= bit,
                1 => seg.base_lsn ^= bit,
                _ => seg.physical_start ^= bit,
            }
        } else {
            let slot = (entropy >> 2) as usize % seg.entries.len();
            let e = &mut seg.entries[slot];
            match entropy % 3 {
                0 => e.lsn ^= bit,
                1 => e.logical ^= bit,
                _ => e.physical ^= bit,
            }
        }
        Some(id)
    }

    /// Blocks currently buffered and not yet flushed.
    pub fn pending(&self) -> &[u64] {
        &self.open_segment
    }

    /// Physical blocks consumed so far (monotone; exceeds the disk size
    /// if the workload outruns a missing cleaner).
    pub fn physical_used(&self) -> u64 {
        self.next_physical
    }
}

impl Drop for LogicalDisk {
    /// Flushes accumulated statistics to the global telemetry counters.
    ///
    /// Done at teardown, never per write: `write` is the hot path the
    /// Table 6 experiment times, so it must not touch an atomic. Each
    /// disk (including clones) contributes its totals exactly once.
    fn drop(&mut self) {
        if !graft_telemetry::enabled() {
            return;
        }
        let s = self.stats;
        graft_telemetry::counter!("ld.writes").add(s.writes);
        graft_telemetry::counter!("ld.rewrites_in_segment").add(s.rewrites_in_segment);
        graft_telemetry::counter!("ld.segments_flushed").add(s.segments_flushed);
        graft_telemetry::counter!("ld.dead_blocks").add(s.dead_blocks);
        graft_telemetry::counter!("ld.crashes").add(s.crashes);
        graft_telemetry::counter!("ld.rebuilds").add(s.rebuilds);
        graft_telemetry::counter!("ld.rebuilt_mappings").add(s.rebuilt_mappings);
        graft_telemetry::counter!("ld.scrub.passes").add(s.scrub_passes);
        graft_telemetry::counter!("ld.scrub.segments").add(s.scrub_segments);
        graft_telemetry::counter!("ld.checksum_failures").add(s.checksum_failures);
        graft_telemetry::counter!("ld.quarantined").add(s.quarantined_segments);
        graft_telemetry::counter!("ld.restores").add(s.restores);
        graft_telemetry::counter!("ld.restored_mappings").add(s.restored_mappings);
        graft_telemetry::counter!("ld.merge.passes").add(s.merge_passes);
        graft_telemetry::counter!("ld.merge.merged_segments").add(s.merged_segments);
        graft_telemetry::counter!("ld.merge.pruned_entries").add(s.pruned_entries);
        graft_telemetry::counter!("ld.merge.refused").add(s.merge_refusals);
        graft_telemetry::counter!("ld.retained_segments").add(self.segments.len() as u64);
        graft_telemetry::counter!("ld.retained_entries")
            .add(self.segments.iter().map(|s| s.entries.len() as u64).sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ld() -> LogicalDisk {
        LogicalDisk::new(LdConfig {
            blocks: 64,
            segment_blocks: 4,
        })
    }

    #[test]
    fn writes_allocate_sequential_physical_blocks() {
        let mut d = ld();
        // Random-looking logical blocks...
        for logical in [40, 3, 17, 9] {
            let flush = d.write(logical);
            if let Some(f) = flush {
                // ...land physically contiguous.
                assert_eq!(f.physical_start, 0);
                assert_eq!(f.logical, vec![40, 3, 17, 9]);
            }
        }
        assert_eq!(d.read(17), Some(2));
        assert_eq!(d.read(9), Some(3));
    }

    #[test]
    fn unwritten_blocks_are_unmapped() {
        let d = ld();
        assert_eq!(d.read(5), None);
    }

    #[test]
    fn rewrite_updates_map_and_counts_garbage() {
        let mut d = ld();
        d.write(7);
        d.write(7);
        assert_eq!(d.read(7), Some(1));
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.dead_blocks, 1);
        assert_eq!(s.rewrites_in_segment, 1);
    }

    #[test]
    fn segments_flush_every_n_writes() {
        let mut d = ld();
        let mut flushes = 0;
        for i in 0..16 {
            if d.write(i % 8).is_some() {
                flushes += 1;
            }
        }
        assert_eq!(flushes, 4);
        assert_eq!(d.stats().segments_flushed, 4);
        assert!(d.pending().is_empty());
    }

    #[test]
    fn paper_configuration_shape() {
        let c = LdConfig::default();
        assert_eq!(c.blocks, 262_144); // 1 GB / 4 KB
        assert_eq!(c.segment_blocks, 16); // 64 KB segments
        assert_eq!(c.segments(), 16_384);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_panics() {
        ld().write(1 << 40);
    }

    #[test]
    fn sealed_segments_carry_lsns_and_verifying_checksums() {
        let mut d = ld();
        for logical in [9, 8, 7, 6, 5, 4, 3, 2] {
            d.write(logical);
        }
        let segs = d.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].base_lsn, 0);
        assert_eq!(segs[1].base_lsn, 4);
        assert_eq!(segs[1].end_lsn(), 8);
        assert!(!segs[0].merged);
        for (i, e) in segs[1].entries.iter().enumerate() {
            assert_eq!(e.lsn, 4 + i as u64);
            assert_eq!(e.physical, 4 + i as u64);
        }
        let seed = d.checksum_seed();
        assert!(segs.iter().all(|s| s.verify(seed)));
        // A different seed family rejects them all.
        assert!(segs.iter().all(|s| !s.verify(seed ^ 1)));
    }

    #[test]
    fn crash_rebuild_redo_is_observationally_equal_to_no_crash() {
        // Oracle: a twin disk that never crashes. Victim: same write
        // stream, crash mid-run, rebuild from sealed records, redo the
        // pending writes crash() returned. The two must agree on every
        // logical read afterwards.
        let config = LdConfig {
            blocks: 256,
            segment_blocks: 8,
        };
        let stream: Vec<u64> = workload::skewed(config.blocks, 600, 7).collect();
        let mut oracle = LogicalDisk::new(config);
        let mut victim = LogicalDisk::new(config);
        for &logical in &stream[..371] {
            oracle.write(logical);
            victim.write(logical);
        }
        // Crash with a part-filled segment in flight (371 % 8 != 0).
        let pending = victim.crash();
        assert_eq!(pending.len(), 371 % 8);
        // Before rebuild the victim has lost everything.
        assert!(victim.map().iter().all(|&p| p == UNMAPPED));
        let replayed = victim.rebuild_map();
        assert_eq!(replayed, (371 / 8) * 8);
        for logical in pending {
            victim.write(logical);
        }
        // Remainder of the run lands identically on both disks.
        for &logical in &stream[371..] {
            oracle.write(logical);
            victim.write(logical);
        }
        for logical in 0..config.blocks as u64 {
            assert_eq!(victim.read(logical), oracle.read(logical), "block {logical}");
        }
        assert_eq!(victim.physical_used(), oracle.physical_used());
        let s = victim.stats();
        assert_eq!(s.crashes, 1);
        assert_eq!(s.rebuilds, 1);
        assert_eq!(s.rebuilt_mappings, replayed);
        assert_eq!(s.checksum_failures, 0);
    }

    #[test]
    fn crash_with_unpersisted_redoes_the_torn_segment_bit_exact() {
        let config = LdConfig {
            blocks: 64,
            segment_blocks: 4,
        };
        let stream = [9u64, 5, 9, 1, 3, 9, 5, 2, 8, 7];
        let mut oracle = LogicalDisk::new(config);
        let mut victim = LogicalDisk::new(config);
        for &w in &stream {
            oracle.write(w);
            victim.write(w);
        }
        // The second segment's write was interrupted: its sealed record
        // and data are gone; the two open-segment writes are pending.
        let redo = victim.crash_with_unpersisted(1);
        assert_eq!(redo, vec![3, 9, 5, 2, 8, 7]);
        assert_eq!(victim.segments().len(), 1);
        victim.rebuild_map();
        assert_eq!(victim.physical_used(), 4);
        for w in redo {
            victim.write(w);
        }
        for b in 0..64u64 {
            assert_eq!(victim.read(b), oracle.read(b), "block {b}");
        }
        assert_eq!(victim.physical_used(), oracle.physical_used());
    }

    #[test]
    fn crash_with_unpersisted_clamps_beyond_the_sealed_count() {
        let mut d = ld(); // 4-block segments
        for w in [1u64, 2, 3, 4, 5, 6] {
            d.write(w);
        }
        // One sealed segment + two pending writes; asking to lose a
        // million segments loses exactly the one that exists.
        let redo = d.crash_with_unpersisted(usize::MAX);
        assert_eq!(redo, vec![1, 2, 3, 4, 5, 6]);
        assert!(d.segments().is_empty());
        assert_eq!(d.rebuild_map(), 0);
        for w in redo {
            d.write(w);
        }
        assert_eq!(d.read(6), Some(5));
        assert_eq!(d.physical_used(), 6);
    }

    #[test]
    fn rebuild_replays_later_segments_over_earlier_ones() {
        let mut d = ld(); // 64 blocks, 4-block segments
        for logical in [1, 2, 3, 4, 1, 2, 5, 6] {
            d.write(logical);
        }
        assert_eq!(d.segments().len(), 2);
        assert_eq!(d.read(1), Some(4));
        d.crash();
        d.rebuild_map();
        // Block 1's second copy (physical 4) wins, not the first (0).
        assert_eq!(d.read(1), Some(4));
        assert_eq!(d.read(3), Some(2));
        assert_eq!(d.physical_used(), 8);
    }

    #[test]
    fn rebuild_on_a_healthy_disk_is_idempotent() {
        let mut d = ld();
        for logical in [9, 8, 7, 6] {
            d.write(logical);
        }
        let before: Vec<i64> = d.map().to_vec();
        d.rebuild_map();
        assert_eq!(d.map(), &before[..]);
        assert_eq!(d.physical_used(), 4);
    }

    #[test]
    fn scrub_is_clean_on_an_honest_disk() {
        let mut d = ld();
        for w in 0..32u64 {
            d.write(w % 16);
        }
        let r = d.scrub();
        assert!(r.clean());
        assert_eq!(r.scanned, 8);
        assert_eq!(r.entries, 32);
        assert!(r.redo_spans.is_empty());
        let s = d.stats();
        assert_eq!(s.scrub_passes, 1);
        assert_eq!(s.scrub_segments, 8);
        assert_eq!(s.checksum_failures, 0);
    }

    #[test]
    fn scrub_quarantines_payload_rot_with_a_trusted_redo_span() {
        let mut d = ld(); // 4-block segments
        for w in 0..16u64 {
            d.write(w % 8);
        }
        assert_eq!(d.segments().len(), 4);
        // Rot an entry word in segment 1 (LSNs 4..8).
        d.corrupt_segment(1, false, 0x3_1701).unwrap();
        let r = d.scrub();
        assert_eq!(r.failures, 1);
        assert_eq!(r.redo_spans, vec![(4, 8)]);
        assert_eq!(d.segments().len(), 3);
        let s = d.stats();
        assert_eq!(s.checksum_failures, 1);
        assert_eq!(s.quarantined_segments, 1);
        // A second scrub finds the remaining history intact.
        assert!(d.scrub().clean());
    }

    #[test]
    fn summary_rot_is_detected_and_never_trusted_for_spans() {
        let mut d = ld();
        for w in 0..16u64 {
            d.write(w % 8);
        }
        // Flip a bit in segment 2's base_lsn summary field: the span
        // must come from neighbours (4..12 would trust the rotted
        // field; 8..12 is the truth).
        d.corrupt_segment(2, true, 1 + (13 << 8)).unwrap();
        let r = d.scrub();
        assert_eq!(r.failures, 1);
        assert_eq!(r.redo_spans, vec![(8, 12)]);
    }

    #[test]
    fn rot_at_the_tail_redoes_to_the_durable_head() {
        let mut d = ld();
        for w in 0..16u64 {
            d.write(w % 8);
        }
        d.corrupt_segment(3, false, 0x99).unwrap();
        let r = d.scrub();
        assert_eq!(r.redo_spans, vec![(12, 16)]);
    }

    #[test]
    fn rebuild_audits_and_skips_rotted_segments() {
        let config = LdConfig {
            blocks: 64,
            segment_blocks: 4,
        };
        let stream: Vec<u64> = (0..24u64).map(|i| i % 12).collect();
        let mut oracle = LogicalDisk::new(config);
        let mut victim = LogicalDisk::new(config);
        for &w in &stream {
            oracle.write(w);
            victim.write(w);
        }
        victim.corrupt_segment(2, false, 0xBEEF).unwrap();
        victim.crash();
        let replayed = victim.rebuild_map();
        // The rotted segment (4 entries) was quarantined, not replayed.
        assert_eq!(replayed, 20);
        assert_eq!(victim.stats().checksum_failures, 1);
        // Redo-tail replay from the quarantined span converges with the
        // oracle's *content*: every block the span covered is rewritten
        // from the upper layer's log.
        for &w in &stream[8..12] {
            victim.write(w);
        }
        for b in 0..64u64 {
            assert_eq!(victim.read(b).is_some(), oracle.read(b).is_some(), "block {b}");
        }
    }

    #[test]
    fn corrupt_segment_out_of_range_is_a_noop() {
        let mut d = ld();
        for w in 0..8u64 {
            d.write(w);
        }
        assert_eq!(d.corrupt_segment(7, false, 1), None);
        assert!(d.scrub().clean());
    }

    #[test]
    fn with_map_adopts_salvaged_state_past_a_segment_boundary() {
        let config = LdConfig {
            blocks: 64,
            segment_blocks: 4,
        };
        // A salvaged map with highest physical block 5: the cursor must
        // resume at 8, the next segment boundary.
        let mut salvaged = vec![UNMAPPED; 64];
        salvaged[10] = 5;
        salvaged[11] = 2;
        let mut d = LogicalDisk::with_map(config, &salvaged);
        assert_eq!(d.read(10), Some(5));
        assert_eq!(d.read(11), Some(2));
        assert_eq!(d.read(12), None);
        assert_eq!(d.physical_used(), 8);
        // New writes land after the salvaged segments.
        d.write(20);
        assert_eq!(d.read(20), Some(8));
        // Rewriting a salvaged block counts its old copy dead.
        d.write(10);
        assert_eq!(d.read(10), Some(9));
        assert_eq!(d.stats().dead_blocks, 1);
    }

    #[test]
    #[should_panic(expected = "wrong block count")]
    fn with_map_rejects_mis_sized_maps() {
        LogicalDisk::with_map(LdConfig::small(), &[UNMAPPED; 3]);
    }

    #[test]
    fn full_paper_run_fits_exactly_without_a_cleaner() {
        // The paper runs exactly `blocks` iterations "because our
        // simulation does not include a cleaner".
        let config = LdConfig::small();
        let mut d = LogicalDisk::new(config);
        for logical in workload::skewed(config.blocks, config.blocks as u64, 42) {
            d.write(logical);
        }
        assert_eq!(d.physical_used() as usize, config.blocks);
        assert_eq!(d.stats().segments_flushed as usize, config.segments());
    }
}
