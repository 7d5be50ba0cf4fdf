//! The host's shared vocabulary: supervisor policy, graft lifecycle,
//! graft ids and aggregate statistics. The host itself is
//! [`ShardedHost`](crate::ShardedHost); its single-threaded case is
//! simply one shard.

use graft_api::TrapKind;

/// Chain depths recorded in the `kernel.chain_depth` histogram are
/// clamped to this many slots (depth 16+ shares the last slot).
pub(crate) const DEPTH_SLOTS: usize = 17;

/// Supervisor policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostConfig {
    /// Trapped invocations before a graft is quarantined (the paper's
    /// "unload the extension" containment response). A single
    /// [`Trap::FuelExhausted`](graft_api::Trap::FuelExhausted)
    /// quarantines immediately regardless.
    pub trap_threshold: u32,
    /// Execution budget applied to every installed engine that meters
    /// fuel (`None` leaves engines unmetered).
    pub fuel_budget: Option<u64>,
    /// Clean invocations a re-admitted graft must complete on probation
    /// before returning to full `Active` standing. Any trap while on
    /// probation re-quarantines instantly.
    pub probation_clean: u64,
    /// Exponential-backoff re-admission: after its first quarantine a
    /// graft is automatically re-admitted (on probation) once this many
    /// dispatches have been served *without* it — the clean built-in
    /// window. The window doubles on each re-quarantine. `0` disables
    /// automatic re-admission entirely (the default): detach is final
    /// until an explicit [`ShardedHost::readmit`](crate::ShardedHost::readmit).
    pub backoff_base: u64,
    /// Quarantine trips after which a graft on the backoff ladder is
    /// permanently banned instead of re-admitted. Only consulted when
    /// `backoff_base > 0`.
    pub ban_ceiling: u32,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            trap_threshold: 3,
            fuel_budget: Some(4_000_000),
            probation_clean: 8,
            backoff_base: 0,
            ban_ceiling: 5,
        }
    }
}

/// Lifecycle state of one installed graft.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraftState {
    /// In the chain, dispatching normally.
    Active,
    /// Re-admitted after quarantine; dispatching, but one more trap
    /// detaches it immediately.
    Probation {
        /// Clean invocations still required to regain `Active`.
        remaining_clean: u64,
    },
    /// Detached by the supervisor; skipped by dispatch, and direct
    /// invocation returns a deterministic
    /// [`GraftError::Unavailable`](graft_api::GraftError::Unavailable).
    Quarantined {
        /// The kind of trap that tripped the supervisor.
        by: TrapKind,
    },
    /// Hit the backoff ladder's permanent-ban ceiling: detached for
    /// good — never auto-readmitted, and
    /// [`ShardedHost::readmit`](crate::ShardedHost::readmit) refuses it.
    Banned,
}

/// Handle to one installed graft.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraftId(pub u64);

/// Aggregate host statistics. Shards publish the dispatch-path fields
/// as `kernel.*` counters from [`ShardHandle::flush`], the control
/// plane the rest from [`ShardedHost::flush`]; both also flush on drop.
///
/// [`ShardHandle::flush`]: crate::ShardHandle::flush
/// [`ShardedHost::flush`]: crate::ShardedHost::flush
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Chain dispatches requested by substrates.
    pub dispatches: u64,
    /// Graft invocations performed (successful or trapped).
    pub invocations: u64,
    /// Invocations that ended in a trap.
    pub traps: u64,
    /// Dispatches decided by a graft's `Override`.
    pub overrides: u64,
    /// Per-graft `Continue` verdicts (the chain kept walking).
    pub continues: u64,
    /// Dispatches that fell through to the built-in kernel policy.
    pub defaults: u64,
    /// Quarantine trips.
    pub quarantine_trips: u64,
    /// Grafts installed.
    pub installs: u64,
    /// Grafts uninstalled.
    pub uninstalls: u64,
    /// Quarantined grafts re-admitted on probation.
    pub readmits: u64,
    /// Marshalling or non-trap framework failures skipped over.
    pub marshal_failures: u64,
    /// Detaches at which the supervisor salvaged the graft's planned
    /// regions into a [`SalvagedState`](crate::recovery::SalvagedState).
    pub salvages: u64,
    /// Total words lifted out of trapped grafts by salvage.
    pub salvaged_words: u64,
    /// Re-admissions performed by the backoff ladder (a subset of
    /// `readmits`).
    pub auto_readmits: u64,
    /// Grafts permanently banned at the backoff ceiling.
    pub bans: u64,
}

impl HostStats {
    /// Field-by-field saturating difference (`self - prev`), used to
    /// publish only the counts not yet flushed to telemetry.
    pub fn delta_since(&self, prev: &HostStats) -> HostStats {
        HostStats {
            dispatches: self.dispatches.saturating_sub(prev.dispatches),
            invocations: self.invocations.saturating_sub(prev.invocations),
            traps: self.traps.saturating_sub(prev.traps),
            overrides: self.overrides.saturating_sub(prev.overrides),
            continues: self.continues.saturating_sub(prev.continues),
            defaults: self.defaults.saturating_sub(prev.defaults),
            quarantine_trips: self.quarantine_trips.saturating_sub(prev.quarantine_trips),
            installs: self.installs.saturating_sub(prev.installs),
            uninstalls: self.uninstalls.saturating_sub(prev.uninstalls),
            readmits: self.readmits.saturating_sub(prev.readmits),
            marshal_failures: self.marshal_failures.saturating_sub(prev.marshal_failures),
            salvages: self.salvages.saturating_sub(prev.salvages),
            salvaged_words: self.salvaged_words.saturating_sub(prev.salvaged_words),
            auto_readmits: self.auto_readmits.saturating_sub(prev.auto_readmits),
            bans: self.bans.saturating_sub(prev.bans),
        }
    }

}
