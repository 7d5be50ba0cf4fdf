//! A greedy segment cleaner — the component the paper's simulation
//! explicitly omits ("Because our simulation does not include a cleaner,
//! we run it for 262144 iterations"). Provided as an extension so the
//! Logical Disk can run indefinitely; the `ablation_ld_cleaner` bench
//! measures what it would have cost.

use std::time::{Duration, Instant};

use crate::{LdConfig, LogicalDisk, SegmentFlush, UNMAPPED};

/// Statistics from cleaning activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanerStats {
    /// Cleaning passes run.
    pub passes: u64,
    /// Live blocks copied forward.
    pub live_copied: u64,
    /// Segments reclaimed.
    pub segments_reclaimed: u64,
    /// Retention merges driven by cleaning passes.
    pub retention_merges: u64,
    /// History entries pruned by those merges.
    pub retention_pruned: u64,
    /// Retention passes refused because history they read had rotted
    /// (the disk counts the mismatches; quarantine is left to scrub).
    pub retention_refused: u64,
}

/// A Logical Disk with a greedy cleaner layered on top.
///
/// Physical space is tracked per segment; when fewer than
/// `reserve_segments` are free, the cleaner repeatedly picks the segment
/// with the fewest live blocks, rewrites its live blocks (through the
/// normal write path, so they re-batch), and reclaims it.
pub struct CleaningDisk {
    ld: LogicalDisk,
    config: LdConfig,
    /// Live-block count per physical segment.
    live: Vec<u32>,
    /// Free physical segments available for reuse.
    free_segments: usize,
    /// Cleaning threshold.
    reserve_segments: usize,
    /// When set, every cleaning pass also merges durable history older
    /// than `durable_lsn - window` (multi-version merge), bounding how
    /// much restore history the disk retains.
    retention_window: Option<u64>,
    /// Wall-clock time of every retention pass run, refused ones too.
    retention_passes: Vec<Duration>,
    stats: CleanerStats,
}

impl CleaningDisk {
    /// Wraps a fresh Logical Disk; `reserve_segments` is the low-water
    /// mark that triggers cleaning. Durable history is retained
    /// unboundedly (every LSN stays restorable).
    pub fn new(config: LdConfig, reserve_segments: usize) -> Self {
        CleaningDisk::with_retention(config, reserve_segments, None)
    }

    /// Like [`new`](CleaningDisk::new), but each cleaning pass also
    /// folds segment history older than `window` LSNs behind the
    /// durable head into a merged segment
    /// ([`LogicalDisk::merge_below_watermark`]), so point-in-time
    /// restore reaches back exactly `window` writes while physical
    /// retention stays bounded. `None` keeps everything.
    pub fn with_retention(
        config: LdConfig,
        reserve_segments: usize,
        retention_window: Option<u64>,
    ) -> Self {
        CleaningDisk {
            ld: LogicalDisk::new(config),
            config,
            live: vec![0; config.segments()],
            free_segments: config.segments(),
            reserve_segments,
            retention_window,
            retention_passes: Vec::new(),
            stats: CleanerStats::default(),
        }
    }

    /// Accumulated cleaner statistics.
    pub fn stats(&self) -> CleanerStats {
        self.stats
    }

    /// Wall-clock time of each retention pass the cleaner has run, in
    /// order (empty without a retention window).
    pub fn retention_passes(&self) -> &[Duration] {
        &self.retention_passes
    }

    /// The underlying Logical Disk.
    pub fn disk(&self) -> &LogicalDisk {
        &self.ld
    }

    /// Mutable access to the underlying disk for durability operations
    /// (scrub, restore, merge). These touch only the sealed history and
    /// its statistics, never the live map, so the cleaner's live-block
    /// accounting stays valid.
    pub fn disk_mut(&mut self) -> &mut LogicalDisk {
        &mut self.ld
    }

    fn segment_of(&self, physical: u64) -> usize {
        (physical as usize / self.config.segment_blocks) % self.config.segments()
    }

    /// Writes one logical block, cleaning first if space is low.
    pub fn write(&mut self, logical: u64) -> Vec<SegmentFlush> {
        let mut flushes = Vec::new();
        if self.free_segments <= self.reserve_segments {
            self.clean(&mut flushes);
        }
        let old = self.ld.read(logical);
        if let Some(f) = self.ld.write(logical) {
            self.note_flush(&f);
            flushes.push(f);
        }
        if let Some(old_phys) = old {
            let seg = self.segment_of(old_phys);
            self.live[seg] = self.live[seg].saturating_sub(1);
        }
        flushes
    }

    fn note_flush(&mut self, f: &SegmentFlush) {
        let seg = self.segment_of(f.physical_start);
        // Count only blocks whose mapping still points into this
        // segment (a block rewritten within the segment is live once).
        let mut live = 0u32;
        for &l in &f.logical {
            if let Some(p) = self.ld.read(l) {
                if self.segment_of(p) == seg {
                    live += 1;
                }
            }
        }
        // Rewrites within the segment can double-count; clamp.
        self.live[seg] = live.min(self.config.segment_blocks as u32);
        self.free_segments = self.free_segments.saturating_sub(1);
    }

    /// One greedy cleaning pass: reclaim the emptiest flushed segments
    /// until the reserve is met.
    fn clean(&mut self, flushes: &mut Vec<SegmentFlush>) {
        // Span-timed: a run artifact shows what fraction of wall-clock
        // the cleaner (which the paper's simulation omits) would cost.
        let _span = graft_telemetry::span!("ld_clean_pass");
        self.stats.passes += 1;
        // Reclaim up to a quarter of the disk per pass.
        let target = self.reserve_segments.max(self.config.segments() / 4);
        let mut order: Vec<usize> = (0..self.live.len()).collect();
        order.sort_by_key(|&s| self.live[s]);
        for seg in order {
            if self.free_segments >= target {
                break;
            }
            let victims = self.live_blocks_in(seg);
            for l in &victims {
                self.stats.live_copied += 1;
                if let Some(f) = self.ld.write(*l) {
                    self.note_flush(&f);
                    flushes.push(f.clone());
                }
            }
            self.live[seg] = 0;
            self.free_segments += 1;
            self.stats.segments_reclaimed += 1;
        }
        if let Some(window) = self.retention_window {
            let watermark = self.ld.durable_lsn().saturating_sub(window);
            if watermark > self.ld.retention_floor() {
                let t0 = Instant::now();
                let report = self.ld.merge_below_watermark(watermark);
                self.retention_passes.push(t0.elapsed());
                if report.refused() {
                    self.stats.retention_refused += 1;
                } else {
                    self.stats.retention_merges += 1;
                    self.stats.retention_pruned += report.pruned_entries;
                }
            }
        }
    }

    fn live_blocks_in(&self, seg: usize) -> Vec<u64> {
        let lo = (seg * self.config.segment_blocks) as i64;
        let hi = lo + self.config.segment_blocks as i64;
        self.ld
            .map()
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != UNMAPPED && p >= lo && p < hi)
            .map(|(l, _)| l as u64)
            .collect()
    }
}

impl Drop for CleaningDisk {
    /// Flushes cleaner statistics to the global telemetry counters at
    /// teardown (the write path itself stays atomic-free).
    fn drop(&mut self) {
        if !graft_telemetry::enabled() {
            return;
        }
        let s = self.stats;
        graft_telemetry::counter!("cleaner.passes").add(s.passes);
        graft_telemetry::counter!("cleaner.live_copied").add(s.live_copied);
        graft_telemetry::counter!("cleaner.segments_reclaimed").add(s.segments_reclaimed);
        graft_telemetry::counter!("cleaner.retention_merges").add(s.retention_merges);
        graft_telemetry::counter!("cleaner.retention_pruned").add(s.retention_pruned);
        graft_telemetry::counter!("cleaner.retention_refused").add(s.retention_refused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn cleaner_lets_the_disk_outlive_its_capacity() {
        let config = LdConfig {
            blocks: 256,
            segment_blocks: 16,
        };
        let mut d = CleaningDisk::new(config, 2);
        // Write 4x the disk's capacity — impossible without cleaning.
        for logical in workload::skewed(config.blocks, 4 * config.blocks as u64, 3) {
            d.write(logical);
        }
        let s = d.stats();
        assert!(s.passes > 0, "cleaner must have run");
        assert!(s.segments_reclaimed > 0);
    }

    #[test]
    fn reads_survive_cleaning() {
        let config = LdConfig {
            blocks: 128,
            segment_blocks: 8,
        };
        let mut d = CleaningDisk::new(config, 2);
        for round in 0..6u64 {
            for logical in 0..config.blocks as u64 {
                d.write(logical);
                let _ = round;
            }
        }
        // Every block was written; every block must still translate.
        for logical in 0..config.blocks as u64 {
            assert!(d.disk().read(logical).is_some(), "block {logical} lost");
        }
    }

    #[test]
    fn retention_window_bounds_history_without_changing_reads() {
        let config = LdConfig {
            blocks: 256,
            segment_blocks: 16,
        };
        let stream: Vec<u64> =
            workload::trace(config.blocks, 6 * config.blocks as u64, 13, 900, 100).collect();
        let mut bounded = CleaningDisk::with_retention(config, 2, Some(128));
        let mut unbounded = CleaningDisk::new(config, 2);
        for &l in &stream {
            bounded.write(l);
            unbounded.write(l);
        }
        assert!(bounded.stats().retention_merges > 0, "merges must run");
        assert!(bounded.stats().retention_pruned > 0);
        assert!(
            bounded.disk().retained_entries() < unbounded.disk().retained_entries(),
            "retention must shrink the durable history"
        );
        // Merging touches only the sealed history, never the live map.
        for l in 0..config.blocks as u64 {
            assert_eq!(bounded.disk().read(l), unbounded.disk().read(l));
        }
        assert_eq!(bounded.stats().retention_refused, 0);
        assert_eq!(
            bounded.retention_passes().len() as u64,
            bounded.stats().retention_merges
        );
        // Restores inside the window still work and stay exact.
        let head = bounded.disk().durable_lsn();
        let floor = bounded.disk().retention_floor();
        assert!(head - floor >= 128 - config.segment_blocks as u64);
        let at_head = bounded.disk_mut().restore_to_lsn(head).unwrap();
        // Blocks with a write still pending in the open segment have
        // moved past the durable head; all others must match exactly.
        let pending: std::collections::HashSet<u64> =
            bounded.disk().pending().iter().copied().collect();
        for (l, &p) in at_head.iter().enumerate() {
            if !pending.contains(&(l as u64)) {
                assert_eq!(p, bounded.disk().map()[l], "block {l}");
            }
        }
    }

    #[test]
    fn rotted_history_refuses_retention_until_scrub_quarantines_it() {
        let config = LdConfig {
            blocks: 256,
            segment_blocks: 16,
        };
        let stream: Vec<u64> =
            workload::trace(config.blocks, 12 * config.blocks as u64, 17, 900, 100).collect();
        let (first, rest) = stream.split_at(2 * config.blocks);
        let mut d = CleaningDisk::with_retention(config, 2, Some(128));
        for &l in first {
            d.write(l);
        }
        // Rot the oldest fresh record: every later pass would fold it.
        let index = usize::from(d.disk().segments()[0].merged);
        d.disk_mut().corrupt_segment(index, false, 0x0901).unwrap();
        let (floor, merges) = (d.disk().retention_floor(), d.stats().retention_merges);
        let (half, tail) = rest.split_at(rest.len() / 2);
        for &l in half {
            d.write(l);
        }
        let s = d.stats();
        assert!(s.retention_refused > 0, "passes must have been refused");
        assert_eq!(s.retention_merges, merges, "nothing folded past the rot");
        assert_eq!(d.disk().retention_floor(), floor);
        assert_eq!(d.disk().stats().merge_refusals, s.retention_refused);
        assert_eq!(d.disk().stats().checksum_failures, s.retention_refused);
        let quarantined = d.disk().stats().quarantined_segments;
        assert_eq!(quarantined, 0, "quarantine is scrub's job");
        assert_eq!(
            d.retention_passes().len() as u64,
            s.retention_merges + s.retention_refused
        );
        // Scrub quarantines the rot; retention resumes.
        assert_eq!(d.disk_mut().scrub().failures, 1);
        for &l in tail {
            d.write(l);
        }
        assert!(d.stats().retention_merges > merges);
        assert!(d.disk().retention_floor() > floor);
        assert_eq!(d.stats().retention_refused, s.retention_refused);
    }
}
