//! The VM page-eviction graft (Prioritization; §3.1, Table 2).
//!
//! Protocol, as in the paper: the kernel keeps resident pages on an LRU
//! queue. On a fault it would normally evict the queue head; with this
//! graft installed it instead asks the owning application, which keeps a
//! *hot list* of pages it will need soon. The graft walks the hot list
//! to test the kernel's candidate and, if the candidate is hot, walks
//! down the queue for the first non-hot page.
//!
//! ## Region ABI
//!
//! Both lists are marshalled as index-linked records inside `linked`
//! regions (word 0 is the NIL sentinel): node *p* holds the page id at
//! `region[p]` and the next-node pointer at `region[p + 1]`. This is a
//! real pointer chase — the paper notes the test "is sensitive to the
//! overhead associated with traversing a list of items", and the NIL /
//! bounds checking of the safe technologies lands exactly on these
//! loads.
//!
//! Entry point: `select_victim(lru_head, hot_head) -> page_id`.

use graft_api::{
    ExtensionEngine, GraftClass, GraftError, GraftSpec, Motivation, NativeGraft, RegionId,
    RegionSpec, RegionStore,
};
use kernsim::btree::BtreeModel;
use graft_rng::{Rng, SliceRandom, SmallRng};

/// Maximum LRU queue nodes the marshalled region can hold.
pub const MAX_QUEUE: usize = 4096;
/// Maximum hot-list nodes.
pub const MAX_HOT: usize = 256;

/// Grail source for the eviction graft.
pub const GRAIL: &str = r#"
// VM page-eviction graft: keep the application's hot pages resident.

fn on_hot_list(page: int, hot_head: int) -> bool {
    let p = hot_head;
    while p != 0 {
        if hot[p] == page {
            return true;
        }
        p = hot[p + 1];
    }
    return false;
}

fn select_victim(lru_head: int, hot_head: int) -> int {
    let q = lru_head;
    while q != 0 {
        let page = lru[q];
        if !on_hot_list(page, hot_head) {
            return page;
        }
        q = lru[q + 1];
    }
    // Everything resident is hot: accept the kernel's candidate.
    return lru[lru_head];
}
"#;

/// Tickle source for the eviction graft.
pub const TICKLE: &str = r#"
proc on_hot_list {page hot_head} {
    set p $hot_head
    while {$p != 0} {
        if {[rload hot $p] == $page} { return 1 }
        set p [rload hot [expr $p + 1]]
    }
    return 0
}

proc select_victim {lru_head hot_head} {
    set q $lru_head
    while {$q != 0} {
        set page [rload lru $q]
        if {![on_hot_list $page $hot_head]} { return $page }
        set q [rload lru [expr $q + 1]]
    }
    return [rload lru $lru_head]
}
"#;

/// The native (Rust) implementation, operating on the same marshalled
/// regions through the same ABI.
#[derive(Debug, Default)]
pub struct NativeEviction {
    lru: Option<RegionId>,
    hot: Option<RegionId>,
}

impl NativeGraft for NativeEviction {
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        if entry != "select_victim" {
            return Err(graft_api::engine::no_such_entry(entry));
        }
        let lru = crate::region_id(&mut self.lru, regions, "lru")?;
        let hot = crate::region_id(&mut self.hot, regions, "hot")?;
        let (lru_head, hot_head) = (args[0], args[1]);
        let lru_words = regions.region(lru).words();
        let hot_words = regions.region(hot).words();
        let on_hot = |page: i64, hot_words: &[i64]| -> bool {
            let mut p = hot_head;
            while p != 0 {
                if hot_words[p as usize] == page {
                    return true;
                }
                p = hot_words[p as usize + 1];
            }
            false
        };
        let mut q = lru_head;
        while q != 0 {
            let page = lru_words[q as usize];
            if !on_hot(page, hot_words) {
                return Ok(page);
            }
            q = lru_words[q as usize + 1];
        }
        Ok(lru_words[lru_head as usize])
    }
}

/// The portable graft package.
pub fn spec() -> GraftSpec {
    GraftSpec::new("vm-page-eviction", GraftClass::Prioritization, Motivation::Policy)
        .region(RegionSpec::linked("lru", 1 + 2 * MAX_QUEUE))
        .region(RegionSpec::linked("hot", 1 + 2 * MAX_HOT))
        .entry("select_victim", 2)
        .with_grail(GRAIL)
        .with_tickle(TICKLE)
        .with_native(Box::new(|| Box::<NativeEviction>::default()))
}

/// A marshalled eviction scenario: the kernel's LRU queue snapshot plus
/// the application's hot list.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Resident pages, LRU order (head first).
    pub queue: Vec<u64>,
    /// Hot pages (application will need these soon).
    pub hot: Vec<u64>,
}

impl Scenario {
    /// The paper's model: resident pages are random TPC-B leaves, the
    /// hot list is the (on average half-consumed) set of leaves under
    /// one level-3 B-tree page. The queue head is guaranteed not hot,
    /// the common case whose cost Table 2 reports.
    pub fn from_btree(model: &BtreeModel, resident: usize, hot_len: usize, seed: u64) -> Self {
        assert!((1..=MAX_QUEUE).contains(&resident));
        assert!(hot_len <= MAX_HOT);
        let mut rng = SmallRng::seed_from_u64(seed);
        let l3 = rng.gen_range(0..model.l3_pages);
        let mut hot = model.hot_list(l3);
        hot.shuffle(&mut rng);
        hot.truncate(hot_len);
        let hot_set: std::collections::HashSet<u64> = hot.iter().copied().collect();
        let mut queue = Vec::with_capacity(resident);
        let first = model.first_leaf();
        let leaves = model.leaf_pages() as u64;
        while queue.len() < resident {
            let page = first + rng.gen_range(0..leaves);
            if queue.is_empty() && hot_set.contains(&page) {
                continue; // keep the head non-hot
            }
            queue.push(page);
        }
        Scenario { queue, hot }
    }

    /// The Table 2 configuration: a 64-entry hot list (the average over
    /// the shrinking 128-entry list) in front of a modest resident set.
    pub fn paper_default(seed: u64) -> Self {
        Scenario::from_btree(&BtreeModel::default(), 512, 64, seed)
    }

    /// A small deterministic scenario for examples and doctests.
    pub fn example() -> Self {
        Scenario {
            queue: vec![900, 901, 902, 903],
            hot: vec![50, 51, 52],
        }
    }

    /// A worst-case scenario: the first `hot_prefix` queue entries are
    /// all hot, forcing the graft down the queue.
    pub fn adversarial(hot_prefix: usize, hot_len: usize) -> Self {
        assert!(hot_prefix < MAX_QUEUE && hot_len <= MAX_HOT && hot_prefix <= hot_len);
        let hot: Vec<u64> = (1000..1000 + hot_len as u64).collect();
        let mut queue: Vec<u64> = hot[..hot_prefix].to_vec();
        queue.push(5_000_000);
        Scenario { queue, hot }
    }

    /// Marshals both lists into the engine's regions. Returns the
    /// `(lru_head, hot_head)` argument pair for `select_victim`.
    pub fn marshal(&self, engine: &mut dyn ExtensionEngine) -> Result<(i64, i64), GraftError> {
        let lru = linked_words(&self.queue, MAX_QUEUE);
        let hot = linked_words(&self.hot, MAX_HOT);
        // Two-phase ABI: resolve region names to handles, then bulk-load
        // by id (one upcall each under the user-level technology).
        let lru_id = engine.bind_region("lru")?;
        let hot_id = engine.bind_region("hot")?;
        engine.load_region_id(lru_id, 0, &lru)?;
        engine.load_region_id(hot_id, 0, &hot)?;
        Ok((head_ptr(&self.queue), head_ptr(&self.hot)))
    }

    /// What the graft should answer: the first queue page not on the
    /// hot list, or the head if all are hot (reference oracle).
    pub fn reference_victim(&self) -> u64 {
        let hot: std::collections::HashSet<u64> = self.hot.iter().copied().collect();
        self.queue
            .iter()
            .copied()
            .find(|p| !hot.contains(p))
            .unwrap_or(self.queue[0])
    }
}

fn head_ptr(items: &[u64]) -> i64 {
    if items.is_empty() {
        0
    } else {
        1
    }
}

/// Lays out `items` as linked records: node `i` at pointer `1 + 2i`,
/// `[page, next]`, 0-terminated. Word 0 is the NIL sentinel.
fn linked_words(items: &[u64], capacity: usize) -> Vec<i64> {
    assert!(items.len() <= capacity, "too many items for the region");
    let mut words = vec![0i64; 1 + 2 * items.len()];
    for (i, &page) in items.iter().enumerate() {
        let p = 1 + 2 * i;
        words[p] = page as i64;
        words[p + 1] = if i + 1 < items.len() {
            (1 + 2 * (i + 1)) as i64
        } else {
            0
        };
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_bytecode::BytecodeEngine;
    use engine_native::{load_grail, SafetyMode};
    use engine_script::ScriptEngine;

    fn run(engine: &mut dyn ExtensionEngine, sc: &Scenario) -> i64 {
        let (lru, hot) = sc.marshal(engine).unwrap();
        engine.invoke("select_victim", &[lru, hot]).unwrap()
    }

    fn all_engines() -> Vec<Box<dyn ExtensionEngine>> {
        let spec = spec();
        let regions = &spec.regions;
        let grail = spec.grail.as_ref().unwrap();
        let tickle = spec.tickle.as_ref().unwrap();
        vec![
            Box::new(load_grail(grail, regions, SafetyMode::Unchecked).unwrap()),
            Box::new(load_grail(grail, regions, SafetyMode::Safe { nil_checks: true }).unwrap()),
            Box::new(
                load_grail(grail, regions, SafetyMode::Sfi { read_protect: false }).unwrap(),
            ),
            Box::new(load_grail(grail, regions, SafetyMode::Sfi { read_protect: true }).unwrap()),
            Box::new(BytecodeEngine::load_grail(grail, regions).unwrap()),
            Box::new(ScriptEngine::load(tickle, regions).unwrap()),
            Box::new(
                graft_api::NativeEngine::new(regions, (spec.native.as_ref().unwrap())())
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn every_technology_agrees_with_the_oracle() {
        let scenarios = [
            Scenario::example(),
            Scenario::paper_default(7),
            Scenario::paper_default(8),
            Scenario::adversarial(10, 64),
            Scenario {
                queue: vec![42],
                hot: vec![],
            },
        ];
        for sc in &scenarios {
            let want = sc.reference_victim() as i64;
            for engine in all_engines().iter_mut() {
                let got = run(engine.as_mut(), sc);
                assert_eq!(got, want, "{:?} on {:?}", engine.technology(), sc.hot.len());
            }
        }
    }

    #[test]
    fn all_hot_queue_falls_back_to_kernel_candidate() {
        let sc = Scenario {
            queue: vec![1000, 1001],
            hot: vec![1000, 1001, 1002],
        };
        for engine in all_engines().iter_mut() {
            let got = run(engine.as_mut(), &sc);
            assert_eq!(got, 1000, "{:?}", engine.technology());
        }
    }

    #[test]
    fn paper_default_has_a_non_hot_head() {
        for seed in 0..20 {
            let sc = Scenario::paper_default(seed);
            assert_eq!(sc.hot.len(), 64);
            assert_eq!(sc.queue.len(), 512);
            assert_eq!(sc.reference_victim(), sc.queue[0]);
        }
    }

    #[test]
    fn adversarial_scenario_forces_queue_walk() {
        let sc = Scenario::adversarial(32, 64);
        assert_eq!(sc.reference_victim(), 5_000_000);
    }

    #[test]
    fn linked_layout_is_one_based_and_nil_terminated() {
        let words = linked_words(&[7, 8], 4);
        assert_eq!(words, vec![0, 7, 3, 8, 0]);
    }

    /// Property: on random scenarios, Grail-under-Safe and the native
    /// oracle never disagree.
    #[test]
    fn prop_grail_matches_oracle_on_random_scenarios() {
        let spec = spec();
        let mut engine = load_grail(
            spec.grail.as_ref().unwrap(),
            &spec.regions,
            SafetyMode::Safe { nil_checks: true },
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..200 {
            let qlen = rng.gen_range(1..40);
            let hlen = rng.gen_range(0..30);
            let queue: Vec<u64> = (0..qlen).map(|_| rng.gen_range(0..50)).collect();
            let hot: Vec<u64> = (0..hlen).map(|_| rng.gen_range(0..50)).collect();
            let sc = Scenario { queue, hot };
            let (lru, hotp) = sc.marshal(&mut engine).unwrap();
            let got = engine.invoke("select_victim", &[lru, hotp]).unwrap();
            assert_eq!(got, sc.reference_victim() as i64, "{sc:?}");
        }
    }
}
