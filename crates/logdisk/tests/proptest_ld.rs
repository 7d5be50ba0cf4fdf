//! Property tests for the Logical Disk facility, driven by a seeded RNG
//! (no network deps).

use std::collections::HashMap;

use graft_rng::{Rng, SmallRng};
use logdisk::{
    cleaner::CleaningDisk, workload, LdConfig, LogicalDisk, MapEntry, Replayer, SealedSegment,
    UNMAPPED,
};

/// The map always reflects the most recent write of each block, and
/// physical addresses are handed out sequentially.
#[test]
fn map_matches_a_hashmap_model() {
    let mut rng = SmallRng::seed_from_u64(0x10D);
    for _case in 0..32 {
        let nwrites = rng.gen_range(0usize..600);
        let writes: Vec<u64> = (0..nwrites).map(|_| rng.gen_range(0u64..256)).collect();
        let config = LdConfig { blocks: 256, segment_blocks: 16 };
        let mut ld = LogicalDisk::new(config);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (seq, &w) in writes.iter().enumerate() {
            ld.write(w);
            model.insert(w, seq as u64);
        }
        for b in 0..256u64 {
            assert_eq!(ld.read(b), model.get(&b).copied());
        }
        assert_eq!(ld.physical_used(), writes.len() as u64);
        // Unwritten blocks stay unmapped in the raw map too.
        for (b, &p) in ld.map().iter().enumerate() {
            assert_eq!(p == UNMAPPED, !model.contains_key(&(b as u64)));
        }
    }
}

/// Segments flush exactly every `segment_blocks` writes.
#[test]
fn flush_cadence_is_exact() {
    let mut rng = SmallRng::seed_from_u64(0xF1);
    for _case in 0..32 {
        let nwrites = rng.gen_range(0usize..400);
        let config = LdConfig { blocks: 128, segment_blocks: 16 };
        let mut ld = LogicalDisk::new(config);
        let mut flushes = 0u64;
        for i in 0..nwrites {
            let f = ld.write(rng.gen_range(0u64..128));
            assert_eq!(f.is_some(), (i + 1) % 16 == 0);
            if f.is_some() {
                flushes += 1;
            }
        }
        assert_eq!(ld.stats().segments_flushed, flushes);
    }
}

/// Crash-at-every-point: a 10,000-write trace where the disk crashes
/// after *every single write*, rebuilds its map from the checksummed
/// sealed records (paying the full audit each time), redoes the lost
/// tail, and must be observationally equal to a hashmap model at every
/// point. This is the recovery invariant the paper's Logical Disk
/// leans on, tested exhaustively rather than at sampled points.
#[test]
fn rebuild_is_observationally_exact_at_every_crash_point() {
    let config = LdConfig {
        blocks: 1024,
        segment_blocks: 16,
    };
    let trace: Vec<u64> = workload::trace(config.blocks, 10_000, 0xC8A5, 800, 200).collect();
    let mut ld = LogicalDisk::new(config);
    let mut model: HashMap<u64, ()> = HashMap::new();
    for &l in &trace {
        ld.write(l);
        model.insert(l, ());
        // Crash here: in-memory map and open segment are gone.
        let pending = ld.crash();
        ld.rebuild_map();
        for p in pending {
            ld.write(p); // redo-tail replay of the lost writes
        }
        for b in 0..config.blocks as u64 {
            assert_eq!(
                ld.read(b).is_some(),
                model.contains_key(&b),
                "block {b} after crash at write #{}",
                ld.stats().crashes
            );
        }
    }
    assert_eq!(ld.stats().crashes, trace.len() as u64);
    assert_eq!(ld.stats().rebuilds, trace.len() as u64);
    assert_eq!(ld.stats().checksum_failures, 0);
}

/// `crash_with_unpersisted(n)` clamps to the sealed-segment count and,
/// for every n, rebuild + redo of the returned writes restores
/// observational equality with the model.
#[test]
fn unpersisted_crashes_redo_to_the_model_for_every_depth() {
    let mut rng = SmallRng::seed_from_u64(0xDEAD);
    for _case in 0..16 {
        let config = LdConfig {
            blocks: 256,
            segment_blocks: 16,
        };
        let nwrites = rng.gen_range(1usize..800);
        let writes: Vec<u64> = (0..nwrites).map(|_| rng.gen_range(0u64..256)).collect();
        // Lose up to everything — including n far beyond what exists.
        let depth = rng.gen_range(0usize..80);
        let mut ld = LogicalDisk::new(config);
        let mut model: HashMap<u64, ()> = HashMap::new();
        for &w in &writes {
            ld.write(w);
            model.insert(w, ());
        }
        let sealed = ld.segments().len();
        let lost = ld.crash_with_unpersisted(depth);
        assert!(
            lost.len() <= depth.min(sealed) * 16 + 16,
            "clamp: at most min(n, sealed) segments plus the open tail"
        );
        ld.rebuild_map();
        for l in lost {
            ld.write(l); // redo
        }
        for b in 0..256u64 {
            assert_eq!(ld.read(b).is_some(), model.contains_key(&b), "block {b}");
        }
    }
}

/// The replayer is idempotent: replaying any prefix twice — or
/// restarting the whole replay over a half-applied map, as a crash in
/// the middle of recovery would — converges to the same map.
#[test]
fn replay_is_idempotent_under_repeats_and_mid_replay_crashes() {
    let mut rng = SmallRng::seed_from_u64(0x1DE9);
    for _case in 0..16 {
        let config = LdConfig {
            blocks: 128,
            segment_blocks: 8,
        };
        let nwrites = rng.gen_range(8usize..600);
        let mut ld = LogicalDisk::new(config);
        for _ in 0..nwrites {
            ld.write(rng.gen_range(0u64..128));
        }
        let segments = ld.segments();

        // Ground truth: one clean pass.
        let mut clean = Replayer::new(config.blocks);
        for s in segments {
            clean.apply_segment(s);
        }

        // Replaying every prefix twice never moves the map backwards.
        let mut twice = Replayer::new(config.blocks);
        for s in segments {
            twice.apply_segment(s);
            let advanced_before = twice.advanced();
            twice.apply_segment(s);
            assert_eq!(twice.advanced(), advanced_before, "re-replay must no-op");
        }
        assert_eq!(twice.map(), clean.map());

        // Crash mid-replay: apply a random prefix of entries, then
        // restart the full replay over the same half-applied state.
        let cut = rng.gen_range(0usize..segments.len().max(1));
        let mut crashed = Replayer::new(config.blocks);
        for s in &segments[..cut] {
            crashed.apply_segment(s);
        }
        for s in segments {
            crashed.apply_segment(s);
        }
        assert_eq!(crashed.map(), clean.map(), "restarted replay diverged");
    }
}

/// Point-in-time restore is exact at every retained LSN, before and
/// after multi-version merges at random watermarks: the restored map
/// always equals a fresh disk that only ever saw the trace prefix.
#[test]
fn restore_is_exact_at_every_retained_lsn_across_random_merges() {
    let mut rng = SmallRng::seed_from_u64(0x9E57);
    for _case in 0..8 {
        let config = LdConfig {
            blocks: 128,
            segment_blocks: 8,
        };
        let nwrites = rng.gen_range(64usize..400);
        let stream: Vec<u64> = (0..nwrites).map(|_| rng.gen_range(0u64..128)).collect();
        let mut ld = LogicalDisk::new(config);
        for &l in &stream {
            ld.write(l);
        }
        // A couple of merges at random watermarks, compounding.
        for _ in 0..rng.gen_range(0usize..3) {
            let watermark = rng.gen_range(0u64..ld.durable_lsn() + 1);
            ld.merge_below_watermark(watermark);
        }
        for lsn in ld.retention_floor()..=ld.durable_lsn() {
            let restored = ld.restore_to_lsn(lsn).unwrap();
            let mut oracle = LogicalDisk::new(config);
            for &l in &stream[..lsn as usize] {
                oracle.write(l);
            }
            assert_eq!(restored.as_slice(), oracle.map(), "restore to LSN {lsn} diverged");
        }
    }
}

/// Seeds for the retention-pass differential: 64 by default,
/// `GRAFT_LD_MERGE_SEEDS` overrides (the full verification gate runs
/// 200).
fn merge_seeds() -> u64 {
    std::env::var("GRAFT_LD_MERGE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// What the disk documents about its history, modelled from the write
/// stream alone: a write takes the next LSN (the clock never rewinds)
/// and the next physical block; every `segment_blocks` writes seal a
/// segment; a crash loses the open segment plus the last `k` sealed
/// records, and rebuild resumes the physical cursor just past what
/// survived; a retention pass folds the prefix of records that end at
/// or below the watermark into one record holding the newest write
/// per block.
struct StreamModel {
    config: LdConfig,
    seed: u64,
    /// Every sealed write still durable, in LSN order — including the
    /// superseded ones a fold dropped from the disk.
    durable: Vec<MapEntry>,
    /// Writes in the open segment.
    open: Vec<MapEntry>,
    /// One past the newest LSN folded into the merged record, if any.
    fold_end: Option<u64>,
    floor: u64,
    next_lsn: u64,
    next_physical: u64,
}

impl StreamModel {
    fn new(config: LdConfig, seed: u64) -> Self {
        StreamModel {
            config,
            seed,
            durable: Vec::new(),
            open: Vec::new(),
            fold_end: None,
            floor: 0,
            next_lsn: 0,
            next_physical: 0,
        }
    }

    fn write(&mut self, logical: u64) {
        self.open.push(MapEntry {
            lsn: self.next_lsn,
            logical,
            physical: self.next_physical,
        });
        self.next_lsn += 1;
        self.next_physical += 1;
        if self.open.len() == self.config.segment_blocks {
            self.durable.append(&mut self.open);
        }
    }

    /// The newest write per block with an LSN below `end`, in LSN
    /// order, sealed as a merged record.
    fn merged_record(&self, end: u64) -> SealedSegment {
        let below = self.durable.iter().take_while(|e| e.lsn < end);
        let mut newest = vec![None; self.config.blocks];
        for e in below {
            newest[e.logical as usize] = Some(*e);
        }
        let mut entries: Vec<MapEntry> = newest.into_iter().flatten().collect();
        entries.sort_by_key(|e| e.lsn);
        let mut s = SealedSegment {
            base_lsn: entries.first().map_or(end, |e| e.lsn),
            physical_start: entries.iter().map(|e| e.physical).min().unwrap_or(0),
            merged: true,
            entries,
            checksum: 0,
        };
        s.seal(self.seed);
        s
    }

    /// The sealed fresh records after the fold, in order.
    fn fresh_records(&self) -> Vec<SealedSegment> {
        let end = self.fold_end.unwrap_or(0);
        let start = self.durable.partition_point(|e| e.lsn < end);
        self.durable[start..]
            .chunks(self.config.segment_blocks)
            .map(|chunk| {
                let mut s = SealedSegment {
                    base_lsn: chunk[0].lsn,
                    physical_start: chunk[0].physical,
                    merged: false,
                    entries: chunk.to_vec(),
                    checksum: 0,
                };
                s.seal(self.seed);
                s
            })
            .collect()
    }

    /// The whole retained history the disk should hold.
    fn history(&self) -> Vec<SealedSegment> {
        let merged = self.fold_end.map(|end| self.merged_record(end));
        merged.into_iter().chain(self.fresh_records()).collect()
    }

    fn durable_lsn(&self) -> u64 {
        self.durable.last().map_or(self.floor, |e| e.lsn + 1)
    }

    /// A retention pass; returns how many records it folds.
    fn merge(&mut self, watermark: u64) -> u64 {
        let watermark = watermark.min(self.durable_lsn());
        self.floor = self.floor.max(watermark);
        let ends: Vec<u64> = self
            .history()
            .iter()
            .map(|s| s.entries.last().unwrap().lsn + 1)
            .take_while(|&end| end <= watermark)
            .collect();
        if let Some(&end) = ends.last() {
            self.fold_end = Some(end);
        }
        ends.len() as u64
    }

    /// A crash that loses the open segment and the last `k` records;
    /// returns the writes to redo, in write order.
    fn crash(&mut self, k: usize) -> Vec<u64> {
        let history = self.history();
        let lost = &history[history.len() - k.min(history.len())..];
        let mut redo: Vec<u64> = lost
            .iter()
            .flat_map(|s| s.entries.iter().map(|e| e.logical))
            .collect();
        redo.extend(self.open.drain(..).map(|e| e.logical));
        // Losing the merged record loses every write folded into it.
        let keep = if lost.iter().any(|s| s.merged) {
            self.fold_end = None;
            0
        } else {
            self.durable.len() - lost.iter().map(|s| s.entries.len()).sum::<usize>()
        };
        self.durable.truncate(keep);
        self.next_physical = self.durable.last().map_or(0, |e| e.physical + 1);
        redo
    }
}

/// Differential: after every retention pass — at compounding random
/// watermarks, with crashes that lose sealed records and the redo that
/// follows between passes — the disk's whole retained history, merged
/// record first, equals the one [`StreamModel`] builds from the write
/// stream alone, checksum included.
#[test]
fn retention_passes_match_a_reference_built_from_the_write_stream() {
    for case in 0..merge_seeds() {
        let mut rng = SmallRng::seed_from_u64(0x3E76_E000 ^ case);
        let config = LdConfig {
            blocks: [32, 64, 128][rng.gen_range(0usize..3)],
            segment_blocks: [4, 8][rng.gen_range(0usize..2)],
        };
        let seed = rng.next_u64();
        let mut ld = LogicalDisk::new(config).with_checksum_seed(seed);
        let mut model = StreamModel::new(config, seed);
        for pass in 0..rng.gen_range(1usize..10) {
            let what = format!("case {case}, pass {pass}");
            for _ in 0..rng.gen_range(0usize..160) {
                let l = rng.gen_range(0..config.blocks as u64);
                ld.write(l);
                model.write(l);
            }
            if rng.gen_bool(0.4) {
                let k = rng.gen_range(0usize..6);
                let redo = ld.crash_with_unpersisted(k);
                assert_eq!(redo, model.crash(k), "{what}: crash redo list");
                ld.rebuild_map();
                for &l in &redo {
                    ld.write(l);
                    model.write(l);
                }
            }
            let watermark = rng.gen_range(0..ld.durable_lsn() + 2 * config.segment_blocks as u64);
            let report = ld.merge_below_watermark(watermark);
            assert!(!report.refused(), "{what}");
            assert_eq!(report.merged_segments, model.merge(watermark), "{what}");
            assert_eq!(ld.retention_floor(), model.floor, "{what}");
            assert_eq!(ld.durable_lsn(), model.durable_lsn(), "{what}");
            assert_eq!(ld.segments(), model.history().as_slice(), "{what}");
        }
    }
}

/// With the cleaner, every written block stays readable no matter how
/// far the workload outruns the disk.
#[test]
fn cleaner_preserves_all_live_blocks() {
    let mut rng = SmallRng::seed_from_u64(0xC1EA);
    for _case in 0..24 {
        let nwrites = rng.gen_range(1usize..1500);
        let config = LdConfig { blocks: 64, segment_blocks: 8 };
        let mut disk = CleaningDisk::new(config, 2);
        let mut written = std::collections::HashSet::new();
        for _ in 0..nwrites {
            let w = rng.gen_range(0u64..64);
            disk.write(w);
            written.insert(w);
        }
        for &b in &written {
            assert!(disk.disk().read(b).is_some(), "block {} lost", b);
        }
    }
}
