//! Experiment runners: one per table and figure of Section 5.
//!
//! Every runner returns typed rows; the binaries in `graft-bench` print
//! them via [`crate::report`]. All runners accept a [`RunConfig`] so
//! the full paper-scale runs and the quick CI-scale runs share code.

pub mod figure;
pub mod micro;
pub mod table11;
pub mod table12;
pub mod table13;
pub mod table14;
pub mod table7;
pub mod table9;
pub mod tables;

pub use figure::{figure1, Figure1};
pub use kernsim::FaultPlan;
pub use micro::{table1, table3, table4, Table1, Table3, Table4};
pub use table11::{
    table11, table11_with, ServiceLoad, ServiceResult, Table11, Table11Cell, Table11Drill,
    Table11Row, ARRIVALS11, LADDER11, TECHS11,
};
pub use table12::{table12, Table12, Table12Drill, Table12Row, DRILL_SEED, DRILL_SHARDS};
pub use table13::{
    table13, table13_with, ModeResult, Skew, Table13, Table13Cell, Table13Row, LADDER13, TECHS13,
};
pub use table14::{
    table14, RestorePoint, RotDrill, ScrubBench, Table14, Table14Row, BITROT_PERMILLE, ROT_SEEDS,
};
pub use table7::{table7, Table7, Table7Row};
pub use table9::{table9, Table9, Table9Crash, Table9Row};
pub use tables::{
    table2, table5, table6, CompileCost, Table2, Table2Row, Table5, Table5Row, Table6, Table6Row,
    Table6Sharded,
};

/// Iteration counts and workload sizes for a whole experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Timed repetitions per measurement (the paper uses 30).
    pub runs: usize,
    /// Eviction-graft invocations per run (the paper uses 100,000).
    pub evict_iters: usize,
    /// Eviction iterations for the script technology (the paper reports
    /// Tcl from shorter runs; it is ~10⁴× slower).
    pub script_evict_iters: usize,
    /// Bytes fingerprinted per MD5 run (the paper uses 1 MB).
    pub md5_bytes: usize,
    /// Bytes fingerprinted under the script technology, extrapolated to
    /// the full size (the paper's Tcl MD5 took 50 minutes; ours would
    /// too).
    pub script_md5_bytes: usize,
    /// Logical Disk writes (the paper uses 262,144).
    pub ld_writes: usize,
    /// Logical Disk size in blocks (the paper uses 262,144).
    pub ld_blocks: usize,
    /// Run live host measurements (signals, page faults, disk
    /// bandwidth); when false, 1996-style model defaults are used.
    pub live: bool,
    /// Optional fault-injection plan (from `--faults`/`--fault-rate`):
    /// experiments that price disk work route it through a
    /// [`kernsim::FaultyDisk`] under this plan. `None` runs clean.
    /// Table 9 always injects: it uses this plan when set, or
    /// [`FaultPlan::chaos`] with its default seed otherwise.
    pub faults: Option<FaultPlan>,
}

impl RunConfig {
    /// Paper-scale configuration.
    pub fn full() -> Self {
        RunConfig {
            runs: 30,
            evict_iters: 100_000,
            script_evict_iters: 200,
            md5_bytes: 1 << 20,
            script_md5_bytes: 8_192,
            ld_writes: 262_144,
            ld_blocks: 262_144,
            live: true,
            faults: None,
        }
    }

    /// Reduced configuration for CI and iteration (same code paths,
    /// smaller counts).
    pub fn quick() -> Self {
        RunConfig {
            runs: 5,
            evict_iters: 1_000,
            script_evict_iters: 20,
            md5_bytes: 1 << 16,
            script_md5_bytes: 1_024,
            ld_writes: 8_192,
            ld_blocks: 8_192,
            live: true,
            faults: None,
        }
    }

    /// Quick configuration without live host measurements (for tests).
    pub fn offline() -> Self {
        RunConfig {
            live: false,
            ..RunConfig::quick()
        }
    }
}

/// The deterministic byte workload every MD5 technology hashes.
pub fn md5_workload(bytes: usize) -> Vec<u8> {
    (0..bytes).map(|i| (i % 251) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_scale_sanely() {
        let full = RunConfig::full();
        let quick = RunConfig::quick();
        assert!(full.runs > quick.runs);
        assert!(full.evict_iters > quick.evict_iters);
        assert_eq!(full.md5_bytes, 1 << 20);
        assert_eq!(full.ld_writes, 262_144);
    }

    #[test]
    fn md5_workload_is_deterministic() {
        assert_eq!(md5_workload(100), md5_workload(100));
        assert_eq!(md5_workload(3), vec![0, 1, 2]);
    }
}
