//! A file read-ahead graft (Black box; the §3.3 read-ahead example).
//!
//! "If the application knows ahead of time the order in which blocks of
//! a file will be read, the kernel can use this information to make
//! read-ahead decisions. In some cases, an application will read a
//! subset of the blocks of a file in order, and then skip to another
//! region of the file." The application publishes its planned access
//! order into a region; after a miss on block *b* the kernel asks the
//! graft which block to prefetch next, and the graft answers from the
//! plan instead of guessing sequentially.

use graft_api::{
    ExtensionEngine, GraftClass, GraftError, GraftSpec, Motivation, NativeGraft, RegionId,
    RegionSpec, RegionStore,
};

/// Maximum planned accesses.
pub const MAX_PLAN: usize = 4096;

/// Grail source for the read-ahead graft.
pub const GRAIL: &str = r#"
// plan[0] = length; plan[1..] = the block numbers the application will
// read, in order. Cursor tracks progress; after a miss the kernel asks
// what to prefetch and we answer the next planned block.

var cursor = 0;

fn ra_reset() {
    cursor = 0;
}

fn ra_next(missed: int) -> int {
    let n = plan[0];
    // Resynchronize: advance the cursor to just past the missed block.
    let i = cursor;
    while i < n {
        if plan[1 + i] == missed {
            cursor = i + 1;
            if cursor < n {
                return plan[1 + cursor];
            }
            return -1;
        }
        i = i + 1;
    }
    // The miss was off-plan: no opinion.
    return -1;
}
"#;

/// Native implementation of the same ABI.
#[derive(Debug, Default)]
pub struct NativeReadAhead {
    plan: Option<RegionId>,
    cursor: i64,
}

impl NativeGraft for NativeReadAhead {
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        match entry {
            "ra_reset" => {
                self.cursor = 0;
                Ok(0)
            }
            "ra_next" => {
                let missed = args[0];
                let id = crate::region_id(&mut self.plan, regions, "plan")?;
                let plan = regions.region(id).words();
                let n = plan[0];
                let mut i = self.cursor;
                while i < n {
                    if plan[1 + i as usize] == missed {
                        self.cursor = i + 1;
                        return Ok(if self.cursor < n {
                            plan[1 + self.cursor as usize]
                        } else {
                            -1
                        });
                    }
                    i += 1;
                }
                Ok(-1)
            }
            other => Err(graft_api::engine::no_such_entry(other)),
        }
    }
}

/// The portable graft package.
pub fn spec() -> GraftSpec {
    GraftSpec::new("file-read-ahead", GraftClass::BlackBox, Motivation::Policy)
        .region(RegionSpec::data("plan", 1 + MAX_PLAN))
        .entry("ra_reset", 0)
        .entry("ra_next", 1)
        .with_grail(GRAIL)
        .with_native(Box::new(|| Box::<NativeReadAhead>::default()))
}

/// Marshals an access plan.
pub fn load_plan(engine: &mut dyn ExtensionEngine, plan: &[i64]) -> Result<(), GraftError> {
    assert!(plan.len() <= MAX_PLAN);
    let mut words = vec![0i64; 1 + plan.len()];
    words[0] = plan.len() as i64;
    words[1..].copy_from_slice(plan);
    engine.load_region("plan", 0, &words)?;
    engine.invoke("ra_reset", &[]).map(|_| ())
}

/// Adapter: plugs a loaded read-ahead graft into
/// [`kernsim::cache::BufferCache`] as its prefetch policy.
///
/// On each miss the kernel asks the graft for the next planned block,
/// then chains the prediction up to `depth` blocks ahead (each answer
/// is fed back as the next query, advancing the graft's cursor).
pub struct GraftReadAhead {
    engine: Box<dyn ExtensionEngine>,
    depth: usize,
}

impl GraftReadAhead {
    /// Wraps a loaded read-ahead graft (plan already marshalled via
    /// [`load_plan`]) with a 4-block prefetch window.
    pub fn new(engine: Box<dyn ExtensionEngine>) -> Self {
        GraftReadAhead { engine, depth: 4 }
    }

    /// Sets the prefetch window.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth.max(1);
        self
    }
}

impl kernsim::cache::ReadAhead for GraftReadAhead {
    fn prefetch(&mut self, block: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.depth);
        let mut at = block as i64;
        for _ in 0..self.depth {
            // A trapped or wild graft simply yields no prefetch opinion.
            match self.engine.invoke("ra_next", &[at]) {
                Ok(next) if next >= 0 => {
                    out.push(next as u64);
                    at = next;
                }
                _ => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_native::{load_grail, SafetyMode};

    fn engines() -> Vec<Box<dyn ExtensionEngine>> {
        let spec = spec();
        let grail = spec.grail.as_ref().unwrap();
        vec![
            Box::new(
                load_grail(grail, &spec.regions, SafetyMode::Safe { nil_checks: true }).unwrap(),
            ),
            Box::new(
                graft_api::NativeEngine::new(&spec.regions, (spec.native.as_ref().unwrap())())
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn predicts_skips_that_defeat_sequential_heuristics() {
        // Read 0..4 in order, then jump to 100.
        let plan = [0, 1, 2, 3, 100, 101];
        for engine in engines().iter_mut() {
            load_plan(engine.as_mut(), &plan).unwrap();
            assert_eq!(engine.invoke("ra_next", &[0]).unwrap(), 1);
            assert_eq!(engine.invoke("ra_next", &[3]).unwrap(), 100);
            assert_eq!(engine.invoke("ra_next", &[100]).unwrap(), 101);
            assert_eq!(engine.invoke("ra_next", &[101]).unwrap(), -1);
        }
    }

    #[test]
    fn off_plan_misses_yield_no_opinion() {
        for engine in engines().iter_mut() {
            load_plan(engine.as_mut(), &[5, 6, 7]).unwrap();
            assert_eq!(engine.invoke("ra_next", &[999]).unwrap(), -1);
            // The cursor must not have been disturbed.
            assert_eq!(engine.invoke("ra_next", &[5]).unwrap(), 6);
        }
    }

    #[test]
    fn reset_restarts_the_plan() {
        for engine in engines().iter_mut() {
            load_plan(engine.as_mut(), &[5, 6, 7]).unwrap();
            assert_eq!(engine.invoke("ra_next", &[6]).unwrap(), 7);
            engine.invoke("ra_reset", &[]).unwrap();
            assert_eq!(engine.invoke("ra_next", &[5]).unwrap(), 6);
        }
    }

    #[test]
    fn graft_readahead_beats_sequential_heuristic_on_skips() {
        use kernsim::cache::{BufferCache, NoReadAhead, SequentialReadAhead};
        use kernsim::vm::LruPolicy;

        // The application will scan 0..16 and then jump to 1000..1016 —
        // the paper's "read a subset in order, then skip" pattern.
        let plan: Vec<i64> = (0..16).chain(1000..1016).collect();
        let accesses: Vec<u64> = plan.iter().map(|&b| b as u64).collect();

        let spec = spec();
        let mut engine = load_grail(
            spec.grail.as_ref().unwrap(),
            &spec.regions,
            SafetyMode::Safe { nil_checks: true },
        )
        .unwrap();
        load_plan(&mut engine, &plan).unwrap();

        let mut with_graft = BufferCache::new(64, LruPolicy, GraftReadAhead::new(Box::new(engine)));
        let mut sequential = BufferCache::new(64, LruPolicy, SequentialReadAhead { n: 1 });
        let mut plain = BufferCache::new(64, LruPolicy, NoReadAhead);
        for &b in &accesses {
            with_graft.access(b);
            sequential.access(b);
            plain.access(b);
        }
        // The graft predicts the jump; the heuristic misses it.
        assert!(
            with_graft.stats().misses < sequential.stats().misses,
            "graft {:?} vs heuristic {:?}",
            with_graft.stats(),
            sequential.stats()
        );
        assert_eq!(plain.stats().misses, accesses.len() as u64);
        // With a perfect plan and a 4-block window, roughly one miss
        // per window — and crucially, the jump to block 1000 is
        // prefetched rather than missed.
        assert!(
            with_graft.stats().misses <= accesses.len() as u64 / 4 + 1,
            "{:?}",
            with_graft.stats()
        );
    }
}
