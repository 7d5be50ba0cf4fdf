//! The benchmark grafts: the paper's three representative extensions —
//! and several more from its taxonomy — each written once per
//! technology.
//!
//! | Module | Class | Paper section | Technologies |
//! |---|---|---|---|
//! | [`eviction`] | Prioritization | §3.1, §5.4 (Table 2) | Grail, Tickle, native |
//! | [`md5`] | Stream | §3.2, §5.5 (Table 5) | Grail, Tickle, native |
//! | [`logdisk`] | Black box | §3.3, §5.6 (Table 6) | Grail, native (the paper skipped Tcl here too) |
//! | [`acl`] | Black box | §3.3 (ACL example) | Grail, native |
//! | [`readahead`] | Black box | §3.3 (read-ahead example) | Grail, native |
//! | [`schedule`] | Prioritization | §3.1 (client/server scheduling) | Grail, Tickle, native |
//! | [`stream`] | Stream | §3.2 (filter chains) | Grail, native |
//!
//! Each module exports a [`GraftSpec`] (the portable package: region
//! ABI, entry points, and per-technology sources) plus kernel-side
//! helpers for marshalling its workload. The Grail and Tickle sources
//! are checked against the native Rust implementation as an oracle in
//! the differential tests.
//!
//! [`GraftSpec`]: graft_api::GraftSpec

pub mod acl;
pub mod eviction;
pub mod logdisk;
pub mod md5;
pub mod readahead;
pub mod schedule;
pub mod stream;

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

thread_local! {
    static SCRATCH: Cell<Vec<i64>> = const { Cell::new(Vec::new()) };
}

/// This thread's marshalling words: taken for one use and put back on
/// drop, so a steady stream of marshals allocates nothing. A use that
/// starts while another holds the buffer finds the slot empty and
/// allocates its own, so taking never panics.
struct Scratch(Vec<i64>);

impl Scratch {
    /// The buffer, at least `len` words long. Words past those a
    /// previous use wrote hold whatever it left there.
    fn take(len: usize) -> Scratch {
        let mut words = SCRATCH.try_with(Cell::take).unwrap_or_default();
        if words.len() < len {
            words.resize(len, 0);
        }
        Scratch(words)
    }
}

impl Deref for Scratch {
    type Target = [i64];
    fn deref(&self) -> &[i64] {
        &self.0
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [i64] {
        &mut self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // At thread exit the slot may be gone already; the words are
        // then simply freed.
        let _ = SCRATCH.try_with(|slot| slot.set(std::mem::take(&mut self.0)));
    }
}

/// The id of region `name`, looked up on a native graft's first call
/// and kept in `slot` after: the compiled rows settle their region
/// indexes at load, so the native rows should not hash a name per call.
fn region_id(
    slot: &mut Option<graft_api::RegionId>,
    regions: &graft_api::RegionStore,
    name: &str,
) -> Result<graft_api::RegionId, graft_api::GraftError> {
    match *slot {
        Some(id) => Ok(id),
        None => Ok(*slot.insert(regions.id(name)?)),
    }
}

/// All core benchmark specs, in the paper's order.
pub fn paper_specs() -> Vec<graft_api::GraftSpec> {
    vec![eviction::spec(), md5::spec(), logdisk::spec()]
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_specs_cover_the_three_classes() {
        use graft_api::GraftClass;
        let specs = super::paper_specs();
        let classes: Vec<GraftClass> = specs.iter().map(|s| s.class).collect();
        assert_eq!(
            classes,
            vec![
                GraftClass::Prioritization,
                GraftClass::Stream,
                GraftClass::BlackBox
            ]
        );
        for spec in &specs {
            assert!(spec.grail.is_some(), "{} needs Grail source", spec.name);
            assert!(spec.native.is_some(), "{} needs a native impl", spec.name);
        }
    }
}
