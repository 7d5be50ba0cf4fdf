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
        marshal_lists(
            engine,
            self.queue.len(),
            self.queue.iter().copied(),
            &self.hot,
        )
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

/// Marshals the first `queue_len` pages of `queue` (the LRU queue,
/// head first) and the hot list into the engine's `lru` and `hot`
/// regions, as [`Scenario::marshal`] does. Both images are laid out in
/// one buffer this thread reuses, so a decision allocates nothing.
/// Returns the `(lru_head, hot_head)` argument pair for
/// `select_victim`.
///
/// Panics if a list outgrows its region ([`MAX_QUEUE`], [`MAX_HOT`]) or
/// `queue` yields fewer than `queue_len` pages.
pub fn marshal_lists(
    engine: &mut dyn ExtensionEngine,
    queue_len: usize,
    queue: impl IntoIterator<Item = u64>,
    hot: &[u64],
) -> Result<(i64, i64), GraftError> {
    assert!(
        queue_len <= MAX_QUEUE && hot.len() <= MAX_HOT,
        "too many items for the region"
    );
    let lru_len = 1 + 2 * queue_len;
    let hot_len = 1 + 2 * hot.len();
    let mut words = crate::Scratch::take(lru_len + hot_len);
    let (lru, rest) = words.split_at_mut(lru_len);
    let hot_words = &mut rest[..hot_len];
    link(lru, queue);
    link(hot_words, hot.iter().copied());
    // Two-phase ABI: resolve region names to handles, then bulk-load
    // by id (one upcall each under the user-level technology).
    let lru_id = engine.bind_region("lru")?;
    let hot_id = engine.bind_region("hot")?;
    engine.load_region_id(lru_id, 0, lru)?;
    engine.load_region_id(hot_id, 0, hot_words)?;
    // Node 0 sits at pointer 1; an empty list's head is NIL.
    Ok((i64::from(queue_len > 0), i64::from(!hot.is_empty())))
}

/// Fills `image` (`1 + 2n` words) with the first `n` of `pages` as
/// linked records: word 0 is the NIL sentinel, node `i` sits at pointer
/// `1 + 2i` as `[page, next]`, `next = 3 + 2i`, and the last node's
/// next is 0. Every word is written, so the image never shows what an
/// earlier, longer list left in the buffer.
fn link(image: &mut [i64], pages: impl IntoIterator<Item = u64>) {
    let (nil, nodes) = image
        .split_first_mut()
        .expect("an image starts with its NIL word");
    *nil = 0;
    let mut linked = 0;
    for (node, page) in nodes.chunks_exact_mut(2).zip(pages) {
        linked += 1;
        node[0] = page as i64;
        node[1] = (1 + 2 * linked) as i64;
    }
    assert_eq!(2 * linked, nodes.len(), "fewer pages than the image holds");
    if let Some(next) = nodes.last_mut() {
        *next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_bytecode::BytecodeEngine;
    use engine_native::{load_grail, SafetyMode};
    use engine_script::ScriptEngine;
    use kernsim::upcall::UpcallEngine;

    fn run(engine: &mut dyn ExtensionEngine, sc: &Scenario) -> i64 {
        let (lru, hot) = sc.marshal(engine).unwrap();
        engine.invoke("select_victim", &[lru, hot]).unwrap()
    }

    /// One engine per technology row, plus the second Omniware mode:
    /// C, Modula-3, Omniware (write-only and read masks), Java, Tcl,
    /// in-kernel native, and Modula-3 behind the user-level upcall.
    fn all_engines() -> Vec<Box<dyn ExtensionEngine>> {
        let spec = spec();
        let regions = &spec.regions;
        let grail = spec.grail.as_ref().unwrap();
        let tickle = spec.tickle.as_ref().unwrap();
        let safe = SafetyMode::Safe { nil_checks: true };
        let upcalled = load_grail(grail, regions, safe).unwrap();
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
            Box::new(UpcallEngine::new(Box::new(upcalled))),
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

    /// The reference layout, built from scratch: node `i` at pointer
    /// `1 + 2i`, `[page, next]`, 0-terminated, word 0 the NIL sentinel.
    fn linked_words(items: &[u64]) -> Vec<i64> {
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

    #[test]
    fn linked_layout_is_one_based_and_nil_terminated() {
        let mut words = vec![-1; 5];
        link(&mut words, [7, 8]);
        assert_eq!(words, vec![0, 7, 3, 8, 0]);
        assert_eq!(words, linked_words(&[7, 8]));
        let mut empty = vec![-1];
        link(&mut empty, []);
        assert_eq!(empty, vec![0]);
    }

    /// A random scenario of at most `max_queue` queue pages, with pages
    /// drawn from a domain small enough that the hot list often covers
    /// the queue's head.
    fn random_scenario(rng: &mut SmallRng, max_queue: usize) -> Scenario {
        let qlen = rng.gen_range(1..max_queue + 1);
        let hlen = rng.gen_range(0..MAX_HOT.min(2 * qlen) + 1);
        let domain = 2 * (qlen as u64 + 1);
        let queue = (0..qlen).map(|_| rng.gen_range(0..domain)).collect();
        let hot = (0..hlen).map(|_| rng.gen_range(0..domain)).collect();
        Scenario { queue, hot }
    }

    /// Marshals `sc` into `engine`, checks both region images word for
    /// word against the reference layout, and returns the victim.
    fn marshal_checked(engine: &mut dyn ExtensionEngine, sc: &Scenario) -> i64 {
        let (lru, hot) = sc.marshal(engine).unwrap();
        assert_eq!((lru, hot), (1, i64::from(!sc.hot.is_empty())));
        for (name, items) in [("lru", &sc.queue), ("hot", &sc.hot)] {
            let want = linked_words(items);
            let id = engine.bind_region(name).unwrap();
            let mut got = vec![0; want.len()];
            engine.read_region_slice_id(id, 0, &mut got).unwrap();
            assert_eq!(got, want, "{:?}: {name} image", engine.technology());
        }
        engine.invoke("select_victim", &[lru, hot]).unwrap()
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

    /// Property: scenarios marshalled back to back into one engine, long
    /// then shorter then long again, each lay out exactly the reference
    /// images and get the reference victim from every technology. A
    /// shorter list must not inherit the longer one's tail.
    #[test]
    fn prop_back_to_back_marshals_match_the_reference() {
        let mut rng = SmallRng::seed_from_u64(2207);
        let mut scenarios = vec![
            Scenario {
                queue: (0..MAX_QUEUE as u64).rev().collect(),
                hot: (0..MAX_HOT as u64).collect(),
            },
            Scenario {
                queue: vec![3],
                hot: vec![],
            },
            Scenario {
                queue: vec![5],
                hot: vec![5],
            },
        ];
        for _ in 0..24 {
            scenarios.push(random_scenario(&mut rng, 300));
            scenarios.push(random_scenario(&mut rng, 12));
            scenarios.push(random_scenario(&mut rng, 3));
        }
        for engine in all_engines().iter_mut() {
            for sc in &scenarios {
                let got = marshal_checked(engine.as_mut(), sc);
                let want = sc.reference_victim() as i64;
                assert_eq!(got, want, "{:?} on {sc:?}", engine.technology());
            }
        }
    }

    #[test]
    #[should_panic(expected = "too many items for the region")]
    fn an_overlong_queue_is_refused() {
        let spec = spec();
        let grail = spec.grail.as_ref().unwrap();
        let mut engine = BytecodeEngine::load_grail(grail, &spec.regions).unwrap();
        let sc = Scenario {
            queue: vec![1; MAX_QUEUE + 1],
            hot: vec![],
        };
        let _ = sc.marshal(&mut engine);
    }

    #[test]
    #[should_panic(expected = "too many items for the region")]
    fn an_overlong_hot_list_is_refused() {
        let spec = spec();
        let grail = spec.grail.as_ref().unwrap();
        let mut engine = BytecodeEngine::load_grail(grail, &spec.regions).unwrap();
        let sc = Scenario {
            queue: vec![1],
            hot: vec![2; MAX_HOT + 1],
        };
        let _ = sc.marshal(&mut engine);
    }
}
