//! Run budgets and failure accounting shared by the three families.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long a phase keeps issuing operations.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Wall-clock time from the phase's first round (measured runs).
    For(Duration),
    /// A fixed number of rounds (self-tests: deterministic op counts).
    #[cfg_attr(not(test), allow(dead_code))]
    Rounds(u64),
}

impl Budget {
    /// `share` of `seconds`.
    pub fn share(share: f64, seconds: f64) -> Budget {
        Budget::For(Duration::from_secs_f64(share * seconds))
    }

    /// Starts the budget's clock.
    pub fn start(self) -> Running {
        Running {
            budget: self,
            started: Instant::now(),
            round: 0,
        }
    }
}

/// A budget being spent.
#[derive(Debug, Clone, Copy)]
pub struct Running {
    budget: Budget,
    started: Instant,
    round: u64,
}

impl Running {
    /// Whether another round should run; counts the round if so.
    pub fn more(&mut self) -> bool {
        let more = match self.budget {
            Budget::For(d) => self.started.elapsed() < d,
            Budget::Rounds(n) => self.round < n,
        };
        self.round += u64::from(more);
        more
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }
}

/// How far a layer breakdown may sit from 1 (its parts over the whole
/// operation timed without tracing) before the traced run fails. The
/// parts carry their own clock reads, tens of ns each, which is large
/// against a ~1 µs native eviction; host drift between the traced and
/// untraced slices adds the rest.
pub const BREAKDOWN_TOL: f64 = 0.5;

/// Operations attempted and failed, per operation type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    ops: BTreeMap<&'static str, (u64, u64)>,
}

impl Tally {
    /// Counts one operation of type `op`; `ok == false` is a failure.
    pub fn check(&mut self, op: &'static str, ok: bool) {
        self.add(op, 1, u64::from(!ok));
    }

    /// Counts `attempted` operations of type `op`, `failed` of them
    /// failing.
    pub fn add(&mut self, op: &'static str, attempted: u64, failed: u64) {
        let e = self.ops.entry(op).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    /// Operations attempted, all types.
    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|&(a, _)| a).sum()
    }

    /// Operations failed, all types.
    pub fn failed(&self) -> u64 {
        self.ops.values().map(|&(_, f)| f).sum()
    }

    /// `(attempted, failed)` for one type.
    #[cfg(test)]
    pub fn of(&self, op: &str) -> (u64, u64) {
        self.ops.get(op).copied().unwrap_or_default()
    }

    /// Every type with its counts, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.ops.iter().map(|(&op, &(a, f))| (op, a, f))
    }
}
