//! The paper's contribution as a library.
//!
//! `graft-core` ties the workspace together the way the paper's
//! framework ties its systems together:
//!
//! * [`GraftManager`] loads a portable [`GraftSpec`] under any
//!   [`Technology`] — compiling Grail for the compiled and bytecode
//!   engines, interpreting Tickle for the script engine, instantiating
//!   the native implementation, or pushing any of them behind the
//!   user-level upcall boundary;
//! * [`breakeven`] is the paper's break-even arithmetic: how many times
//!   may a graft run per page fault (or disk seek) saved, and what
//!   upcall latency would a user-level server need to compete
//!   (Figure 1);
//! * [`experiment`] regenerates every table and figure of Section 5 as
//!   typed results;
//! * [`report`] renders them in the paper's format (means with relative
//!   standard deviations in parentheses, normalized-to-C rows);
//! * [`artifact`] freezes a whole run — host, config, every table,
//!   every sample, and the telemetry snapshot — into the versioned JSON
//!   document `--json` writes and `graftstat` diffs;
//! * [`gate`] is the typed pass/fail record each gated table returns,
//!   which the reports print and `graftstat check` evaluates.
//!
//! [`GraftSpec`]: graft_api::GraftSpec
//! [`Technology`]: graft_api::Technology

pub mod artifact;
pub mod breakeven;
pub mod experiment;
pub mod gate;
pub mod manager;
pub mod report;

pub use breakeven::{break_even, figure1_series, Figure1Point};
pub use manager::GraftManager;

#[cfg(test)]
mod tests {
    use super::*;
    use graft_api::Technology;

    #[test]
    fn manager_loads_every_paper_technology_for_eviction() {
        let spec = grafts::eviction::spec();
        let manager = GraftManager::new();
        for tech in Technology::ALL {
            let engine = manager.load(&spec, tech);
            assert!(engine.is_ok(), "{tech}: {:?}", engine.err());
            assert_eq!(engine.unwrap().technology(), tech);
        }
    }

    #[test]
    fn loaded_engines_compute_the_same_victim() {
        let spec = grafts::eviction::spec();
        let scenario = grafts::eviction::Scenario::paper_default(3);
        let want = scenario.reference_victim() as i64;
        let manager = GraftManager::new();
        for tech in Technology::ALL {
            let mut engine = manager.load(&spec, tech).unwrap();
            let (lru, hot) = scenario.marshal(engine.as_mut()).unwrap();
            let got = engine.invoke("select_victim", &[lru, hot]).unwrap();
            assert_eq!(got, want, "{tech}");
        }
    }
}
