//! The Logical Disk bookkeeping graft (Black box; §3.3, Table 6).
//!
//! The graft maintains the logical→physical block map and the segment
//! fill state entirely inside its own regions and globals; the kernel
//! calls `ld_write(logical)` on every block write and learns from the
//! return value whether a segment just filled (and must be flushed to
//! the disk), and `ld_lookup(logical)` on reads. Table 6 times exactly
//! this per-write bookkeeping.
//!
//! The paper did not measure Tcl on this test ("Because of performance
//! of Tcl on the first two tests, we did not take Tcl measurements for
//! this test"), and neither do we: the spec carries no Tickle source,
//! which exercises the framework's `Unavailable` path.
//!
//! ## Region ABI
//!
//! * `map` — one word per logical block; −1 means unmapped. The kernel
//!   marshals the initial −1 fill.
//!
//! Entries: `ld_init()`, `ld_write(logical) -> flushed(0/1)`,
//! `ld_lookup(logical) -> physical | -1`, `ld_stat(i)` (0 = next
//! physical, 1 = segments flushed, 2 = dead blocks).

use graft_api::{
    ExtensionEngine, GraftClass, GraftError, GraftSpec, Motivation, NativeGraft, RegionId,
    RegionSpec, RegionStore,
};

/// Logical blocks in the benchmark disk. The paper simulates 262,144
/// (1 GB of 4 KB blocks); the region is sized for it.
pub const BLOCKS: usize = 262_144;
/// Blocks per segment (64 KB / 4 KB).
pub const SEGMENT_BLOCKS: i64 = 16;

/// Grail source for the Logical Disk graft.
pub const GRAIL: &str = r#"
// Logical Disk bookkeeping: map logical blocks to a log of physical
// blocks, batching writes into 16-block segments.

var nextp = 0;
var segfill = 0;
var flushes = 0;
var dead = 0;

fn ld_init() {
    nextp = 0;
    segfill = 0;
    flushes = 0;
    dead = 0;
}

fn ld_write(logical: int) -> int {
    if map[logical] >= 0 {
        dead = dead + 1;
    }
    map[logical] = nextp;
    nextp = nextp + 1;
    segfill = segfill + 1;
    if segfill == 16 {
        segfill = 0;
        flushes = flushes + 1;
        return 1;
    }
    return 0;
}

fn ld_lookup(logical: int) -> int {
    return map[logical];
}

fn ld_stat(i: int) -> int {
    if i == 0 { return nextp; }
    if i == 1 { return flushes; }
    return dead;
}
"#;

/// Grail source for the **time-bomb** Logical Disk graft: identical
/// bookkeeping, plus an `ld_arm(n)` fuse. Once armed, the n-th
/// subsequent `ld_write` divides by zero *before* touching the map —
/// the one trap every technology turns into a fault (as Table 7's
/// saboteur), raised with the region state still consistent. Table 9
/// uses it to price salvage-at-detach: the supervisor must lift the
/// intact map out of the trapped graft.
pub const GRAIL_BOMB: &str = r#"
var nextp = 0;
var segfill = 0;
var flushes = 0;
var dead = 0;
var fuse = 0;

fn ld_init() {
    nextp = 0;
    segfill = 0;
    flushes = 0;
    dead = 0;
    fuse = 0;
}

fn ld_arm(n: int) {
    fuse = n;
}

fn ld_write(logical: int) -> int {
    if fuse > 0 {
        fuse = fuse - 1;
        if fuse == 0 {
            return logical / (fuse - fuse);
        }
    }
    if map[logical] >= 0 {
        dead = dead + 1;
    }
    map[logical] = nextp;
    nextp = nextp + 1;
    segfill = segfill + 1;
    if segfill == 16 {
        segfill = 0;
        flushes = flushes + 1;
        return 1;
    }
    return 0;
}

fn ld_lookup(logical: int) -> int {
    return map[logical];
}

fn ld_stat(i: int) -> int {
    if i == 0 { return nextp; }
    if i == 1 { return flushes; }
    return dead;
}
"#;

/// Native implementation of the same ABI.
#[derive(Debug, Default)]
pub struct NativeLogDisk {
    map: Option<RegionId>,
    nextp: i64,
    segfill: i64,
    flushes: i64,
    dead: i64,
}

impl NativeGraft for NativeLogDisk {
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        match entry {
            "ld_init" => {
                *self = NativeLogDisk {
                    map: self.map,
                    ..NativeLogDisk::default()
                };
                Ok(0)
            }
            "ld_write" => {
                let logical = args[0] as usize;
                let id = crate::region_id(&mut self.map, regions, "map")?;
                let map = regions.region_mut(id).words_mut();
                if map[logical] >= 0 {
                    self.dead += 1;
                }
                map[logical] = self.nextp;
                self.nextp += 1;
                self.segfill += 1;
                if self.segfill == SEGMENT_BLOCKS {
                    self.segfill = 0;
                    self.flushes += 1;
                    Ok(1)
                } else {
                    Ok(0)
                }
            }
            "ld_lookup" => {
                let id = crate::region_id(&mut self.map, regions, "map")?;
                Ok(regions.region(id).words()[args[0] as usize])
            }
            "ld_stat" => Ok(match args[0] {
                0 => self.nextp,
                1 => self.flushes,
                _ => self.dead,
            }),
            other => Err(graft_api::engine::no_such_entry(other)),
        }
    }
}

/// Native time-bomb: [`NativeLogDisk`] behind an `ld_arm` fuse.
#[derive(Debug, Default)]
pub struct NativeLogDiskBomb {
    inner: NativeLogDisk,
    fuse: i64,
}

impl NativeGraft for NativeLogDiskBomb {
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        match entry {
            "ld_init" => {
                self.fuse = 0;
                self.inner.call(entry, args, regions)
            }
            "ld_arm" => {
                self.fuse = args[0];
                Ok(0)
            }
            "ld_write" if self.fuse > 0 => {
                self.fuse -= 1;
                if self.fuse == 0 {
                    // The same fault the Grail body raises: a division
                    // by zero before any region write.
                    return Err(GraftError::Trap(graft_api::Trap::DivByZero));
                }
                self.inner.call(entry, args, regions)
            }
            other => self.inner.call(other, args, regions),
        }
    }
}

/// The portable graft package (map sized for the paper's 1 GB disk).
pub fn spec() -> GraftSpec {
    spec_sized(BLOCKS)
}

/// A package with a custom disk size (tests and quick runs).
pub fn spec_sized(blocks: usize) -> GraftSpec {
    GraftSpec::new("logical-disk", GraftClass::BlackBox, Motivation::Performance)
        .region(RegionSpec::data("map", blocks))
        .entry("ld_init", 0)
        .entry("ld_write", 1)
        .entry("ld_lookup", 1)
        .entry("ld_stat", 1)
        .with_grail(GRAIL)
        .with_native(Box::new(|| Box::<NativeLogDisk>::default()))
}

/// The time-bomb package: the same bookkeeping ABI plus `ld_arm(n)`
/// (see [`GRAIL_BOMB`]). Like the plain spec it ships no Tickle.
pub fn spec_bomb_sized(blocks: usize) -> GraftSpec {
    GraftSpec::new("logical-disk-bomb", GraftClass::BlackBox, Motivation::Performance)
        .region(RegionSpec::data("map", blocks))
        .entry("ld_init", 0)
        .entry("ld_arm", 1)
        .entry("ld_write", 1)
        .entry("ld_lookup", 1)
        .entry("ld_stat", 1)
        .with_grail(GRAIL_BOMB)
        .with_native(Box::new(|| Box::<NativeLogDiskBomb>::default()))
}

/// Marshals the initial "all unmapped" state into an engine.
pub fn init_map(engine: &mut dyn ExtensionEngine, blocks: usize) -> Result<(), GraftError> {
    let unmapped = vec![-1i64; blocks];
    // Two-phase ABI: one bind each, then the bulk load and init call go
    // through handles (one upcall apiece under the user-level row).
    let map = engine.bind_region("map")?;
    let init = engine.bind_entry("ld_init")?;
    engine.load_region_id(map, 0, &unmapped)?;
    engine.invoke_id(init, &[]).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_bytecode::BytecodeEngine;
    use engine_native::{load_grail, SafetyMode};
    use logdisk::{LdConfig, LogicalDisk};

    const SMALL: usize = 1024;

    fn engines() -> Vec<Box<dyn ExtensionEngine>> {
        let spec = spec_sized(SMALL);
        let grail = spec.grail.as_ref().unwrap();
        vec![
            Box::new(load_grail(grail, &spec.regions, SafetyMode::Unchecked).unwrap()),
            Box::new(
                load_grail(grail, &spec.regions, SafetyMode::Safe { nil_checks: true }).unwrap(),
            ),
            Box::new(
                load_grail(grail, &spec.regions, SafetyMode::Sfi { read_protect: false })
                    .unwrap(),
            ),
            Box::new(BytecodeEngine::load_grail(grail, &spec.regions).unwrap()),
            Box::new(
                graft_api::NativeEngine::new(&spec.regions, (spec.native.as_ref().unwrap())())
                    .unwrap(),
            ),
        ]
    }

    /// Every technology's bookkeeping must agree with the `logdisk`
    /// crate's reference facility on the paper's skewed workload.
    #[test]
    fn graft_agrees_with_reference_facility() {
        let config = LdConfig {
            blocks: SMALL,
            segment_blocks: 16,
        };
        let writes: Vec<u64> =
            logdisk::workload::skewed(SMALL, SMALL as u64, 11).collect();
        for engine in engines().iter_mut() {
            init_map(engine.as_mut(), SMALL).unwrap();
            let mut oracle = LogicalDisk::new(config);
            let mut flushes = 0i64;
            for &w in &writes {
                let flushed = engine.invoke("ld_write", &[w as i64]).unwrap();
                let oracle_flush = oracle.write(w).is_some();
                assert_eq!(flushed == 1, oracle_flush);
                flushes += flushed;
            }
            // Maps agree block for block.
            for b in 0..SMALL as u64 {
                let got = engine.invoke("ld_lookup", &[b as i64]).unwrap();
                let want = oracle.read(b).map(|p| p as i64).unwrap_or(-1);
                assert_eq!(got, want, "block {b} on {:?}", engine.technology());
            }
            assert_eq!(
                engine.invoke("ld_stat", &[1]).unwrap(),
                flushes,
                "flush count"
            );
            assert_eq!(
                engine.invoke("ld_stat", &[2]).unwrap() as u64,
                oracle.stats().dead_blocks
            );
        }
    }

    #[test]
    fn tickle_is_unavailable_like_the_paper() {
        assert!(spec().tickle.is_none());
        assert!(spec_bomb_sized(SMALL).tickle.is_none());
    }

    fn bomb_engines() -> Vec<Box<dyn ExtensionEngine>> {
        let spec = spec_bomb_sized(SMALL);
        let grail = spec.grail.as_ref().unwrap();
        vec![
            Box::new(load_grail(grail, &spec.regions, SafetyMode::Unchecked).unwrap()),
            Box::new(
                load_grail(grail, &spec.regions, SafetyMode::Safe { nil_checks: true }).unwrap(),
            ),
            Box::new(
                load_grail(grail, &spec.regions, SafetyMode::Sfi { read_protect: false })
                    .unwrap(),
            ),
            Box::new(BytecodeEngine::load_grail(grail, &spec.regions).unwrap()),
            Box::new(
                graft_api::NativeEngine::new(&spec.regions, (spec.native.as_ref().unwrap())())
                    .unwrap(),
            ),
        ]
    }

    /// The bomb behaves exactly like the plain graft until armed; then
    /// the fused write divides by zero with the map untouched.
    #[test]
    fn bomb_bookkeeps_normally_then_traps_cleanly_when_armed() {
        for engine in bomb_engines().iter_mut() {
            let tech = engine.technology();
            init_map(engine.as_mut(), SMALL).unwrap();
            for w in 0..20 {
                engine.invoke("ld_write", &[w]).unwrap();
            }
            assert_eq!(engine.invoke("ld_lookup", &[7]).unwrap(), 7, "{tech:?}");
            engine.invoke("ld_arm", &[3]).unwrap();
            engine.invoke("ld_write", &[30]).unwrap();
            engine.invoke("ld_write", &[31]).unwrap();
            let err = engine.invoke("ld_write", &[32]).unwrap_err();
            assert!(
                matches!(err, GraftError::Trap(_)),
                "{tech:?}: expected a trap, got {err:?}"
            );
            // The trap fired before any bookkeeping: block 32 is
            // unmapped and the cursor still shows 22 allocations.
            assert_eq!(engine.invoke("ld_lookup", &[32]).unwrap(), -1, "{tech:?}");
            assert_eq!(engine.invoke("ld_stat", &[0]).unwrap(), 22, "{tech:?}");
        }
    }

    #[test]
    fn lookup_before_write_is_unmapped() {
        for engine in engines().iter_mut() {
            init_map(engine.as_mut(), SMALL).unwrap();
            assert_eq!(engine.invoke("ld_lookup", &[7]).unwrap(), -1);
        }
    }

    #[test]
    fn init_resets_state() {
        for engine in engines().iter_mut() {
            init_map(engine.as_mut(), SMALL).unwrap();
            for w in 0..20 {
                engine.invoke("ld_write", &[w]).unwrap();
            }
            init_map(engine.as_mut(), SMALL).unwrap();
            assert_eq!(engine.invoke("ld_stat", &[0]).unwrap(), 0);
            assert_eq!(engine.invoke("ld_lookup", &[0]).unwrap(), -1);
        }
    }
}
