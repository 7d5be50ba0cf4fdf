//! An independent reference model of the graft host: [`run`] maps an
//! operation sequence and a [`HostConfig`] to each op's result, every
//! graft's ledger and state, the [`HostStats`], the event stream and
//! the detaches. It builds no host and uses no atomics. Each graft is a
//! bare engine, loaded but never installed, that supplies each call's
//! value, trap kind and fuel; everything else is written out here.

use graftbench::api::{EntryId, ExtensionEngine, GraftError, GraftLedger, TrapKind, Verdict};
use graftbench::kernel::{AttachPoint, GraftState, HostConfig, HostStats};
use graftbench::telemetry::{
    TRACE_VERDICT_CONTINUE, TRACE_VERDICT_MARSHAL_FAIL, TRACE_VERDICT_OVERRIDE, TRACE_VERDICT_TRAP,
};

/// One host operation. Grafts are named by chain position (front = 0).
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Installs a fresh graft at the front (`true`) or back.
    Install(bool),
    Uninstall(usize),
    Readmit(usize),
    Dispatch(i64, i64),
    /// `n` dispatches as one batch, call `i` with [`batch_call`]`(a, b, i)`;
    /// the model runs them as `n` dispatches.
    DispatchBatch(i64, i64, usize),
    /// A dispatch whose marshalling fails for every graft.
    MarshalFail,
    Invoke(usize, i64, i64),
}

/// Call `i`'s arguments in `Op::DispatchBatch(a, b, _)`. For `b >= 0`
/// the second argument walks `(b + i) % 9`, so a call divides by zero
/// where it reaches 0 and runs clean elsewhere; for `b < 0`, call
/// `-b - 1` is a runaway (second argument -1) and the rest run clean.
pub fn batch_call(a: i64, b: i64, i: usize) -> [i64; 2] {
    let i = i as i64;
    let second = match b {
        0.. => (b + i) % 9,
        _ if i == -b - 1 => -1,
        _ => 1 + i % 3,
    };
    [a + 13 * i, second]
}

/// What one op returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    Installed,
    Uninstalled(bool),
    Readmitted(bool),
    Verdict(Verdict),
    Verdicts(Vec<Verdict>),
    Invoked(Result<i64, Refusal>),
}

/// An invoke error by observable class (messages embed host ids).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    Trap(TrapKind),
    Unavailable,
    Other,
}

impl Refusal {
    pub fn of(e: &GraftError) -> Self {
        match e {
            GraftError::Trap(t) => Refusal::Trap(t.kind()),
            GraftError::Unavailable { .. } => Refusal::Unavailable,
            _ => Refusal::Other,
        }
    }
}

/// A graft's ledger (`cum_ns` 0: wall clock is machine-dependent) and state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Standing {
    pub ledger: GraftLedger,
    pub state: GraftState,
}

/// One quarantine trip, as the supervisor decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detach {
    pub reason: TrapKind,
    pub strikes: u32,
    pub quarantines: u32,
    pub backoff_remaining: u64,
    pub state: GraftState,
}

/// Everything a run is compared on.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub steps: Vec<Step>,
    pub grafts: Vec<Standing>, // still installed, in chain order
    pub stats: HostStats,
    /// Every event's `TraceEvent::semantics()`; `None` when not recorded.
    pub events: Option<Vec<(u8, u8, u8, i64)>>,
    pub detaches: Vec<Detach>, // of installed grafts, by install order
    /// `(consulted, chain length)`, once per distinct shard view.
    pub membership: Vec<(usize, usize)>,
}

struct Graft {
    seq: u64, // install order
    engine: Box<dyn ExtensionEngine>,
    entry: EntryId,
    standing: Standing,
    strikes: u32,     // traps since the last (re-)admission
    quarantines: u32, // lifetime trips: the backoff ladder's rung
    backoff: u64,     // dispatches to serve without it before re-admission
    detaches: Vec<Detach>,
}

impl Graft {
    fn consulted(&self) -> bool {
        use GraftState::{Active, Probation};
        matches!(self.standing.state, Active | Probation { .. })
    }

    /// Re-admission, by hand or by the ladder, on probation.
    fn readmit(&mut self, config: &HostConfig) {
        self.strikes = 0;
        self.backoff = 0;
        self.standing.state = GraftState::Probation {
            remaining_clean: config.probation_clean.max(1),
        };
    }
}

struct Model {
    config: HostConfig,
    point: AttachPoint,
    chain: Vec<Graft>,
    stats: HostStats,
    events: Vec<(u8, u8, u8, i64)>,
}

/// Runs `ops` against the model; `load` supplies one engine per install.
pub fn run(
    config: HostConfig,
    point: AttachPoint,
    ops: &[Op],
    mut load: impl FnMut() -> Box<dyn ExtensionEngine>,
) -> Outcome {
    let mut m = Model {
        config,
        point,
        chain: Vec::new(),
        stats: HostStats::default(),
        events: Vec::new(),
    };
    let steps = ops.iter().map(|&op| m.apply(op, &mut load)).collect();
    let mut by_install: Vec<&Graft> = m.chain.iter().collect();
    by_install.sort_by_key(|g| g.seq);
    let consulted = m.chain.iter().filter(|g| g.consulted()).count();
    Outcome {
        steps,
        grafts: m.chain.iter().map(|g| g.standing).collect(),
        stats: m.stats,
        events: Some(m.events),
        detaches: by_install.iter().flat_map(|g| g.detaches.clone()).collect(),
        membership: vec![(consulted, m.chain.len())],
    }
}

impl Model {
    fn apply(&mut self, op: Op, load: &mut impl FnMut() -> Box<dyn ExtensionEngine>) -> Step {
        match op {
            Op::Install(front) => {
                let mut engine = load();
                let entry = engine.bind_entry(self.point.entry()).expect("entry binds");
                engine.set_fuel(self.config.fuel_budget);
                let g = Graft {
                    seq: self.stats.installs,
                    engine,
                    entry,
                    standing: Standing {
                        ledger: GraftLedger::default(),
                        state: GraftState::Active,
                    },
                    strikes: 0,
                    quarantines: 0,
                    backoff: 0,
                    detaches: Vec::new(),
                };
                self.chain
                    .insert(if front { 0 } else { self.chain.len() }, g);
                self.stats.installs += 1;
                Step::Installed
            }
            Op::Uninstall(k) => {
                self.chain.remove(k);
                self.stats.uninstalls += 1;
                Step::Uninstalled(true)
            }
            Op::Readmit(k) => {
                let g = &mut self.chain[k];
                let quarantined = matches!(g.standing.state, GraftState::Quarantined { .. });
                if quarantined {
                    g.readmit(&self.config);
                    self.stats.readmits += 1;
                }
                Step::Readmitted(quarantined)
            }
            Op::Dispatch(a, b) => Step::Verdict(self.dispatch(Some([a, b]))),
            Op::DispatchBatch(a, b, n) => Step::Verdicts(
                (0..n)
                    .map(|i| self.dispatch(Some(batch_call(a, b, i))))
                    .collect(),
            ),
            Op::MarshalFail => Step::Verdict(self.dispatch(None)),
            Op::Invoke(k, a, b) => Step::Invoked(match self.chain[k].consulted() {
                true => self.call(k, &[a, b], None),
                false => Err(Refusal::Unavailable),
            }),
        }
    }

    /// Walks the chain in order; the first `Override` wins. A detached
    /// graft is skipped, and each dispatch served without it counts
    /// down its backoff window.
    fn dispatch(&mut self, args: Option<[i64; 2]>) -> Verdict {
        self.stats.dispatches += 1;
        for k in 0..self.chain.len() {
            let g = &mut self.chain[k];
            if !g.consulted() {
                let quarantined = matches!(g.standing.state, GraftState::Quarantined { .. });
                if quarantined && g.backoff > 0 {
                    g.backoff -= 1;
                    if g.backoff == 0 {
                        g.readmit(&self.config);
                        self.stats.readmits += 1;
                        self.stats.auto_readmits += 1;
                    }
                }
                continue;
            }
            let Some(args) = args else {
                self.stats.marshal_failures += 1;
                let tech = g.engine.technology() as u8;
                let event = (self.point as u8, tech, TRACE_VERDICT_MARSHAL_FAIL, 0);
                self.events.push(event);
                continue;
            };
            if let Ok(ret) = self.call(k, &args, Some(self.point)) {
                match self.point.decode(ret) {
                    Verdict::Override(v) => {
                        self.stats.overrides += 1;
                        return Verdict::Override(v);
                    }
                    Verdict::Continue => self.stats.continues += 1,
                }
            }
        }
        self.stats.defaults += 1;
        Verdict::Continue
    }

    /// One invocation of graft `k`: its ledger, probation, strikes and
    /// event. `point` is `None` for a direct invoke, which records its
    /// return value as an override.
    fn call(&mut self, k: usize, args: &[i64], point: Option<AttachPoint>) -> Result<i64, Refusal> {
        let c = self.config;
        let g = &mut self.chain[k];
        let result = g.engine.invoke_id(g.entry, args);
        let fuel = g.engine.fuel_used();
        let s = &mut g.standing;
        self.stats.invocations += 1;
        let (verdict, value) = match &result {
            Ok(r) => {
                s.ledger.record_ok(0, fuel);
                if let GraftState::Probation { remaining_clean } = &mut s.state {
                    *remaining_clean -= 1;
                    if *remaining_clean == 0 {
                        s.state = GraftState::Active;
                    }
                }
                match point.map(|p| p.decode(*r)) {
                    Some(Verdict::Continue) => (TRACE_VERDICT_CONTINUE, 0),
                    Some(Verdict::Override(v)) => (TRACE_VERDICT_OVERRIDE, v),
                    None => (TRACE_VERDICT_OVERRIDE, *r),
                }
            }
            Err(GraftError::Trap(trap)) => {
                let kind = trap.kind();
                s.ledger.record_trap(0, fuel, trap);
                self.stats.traps += 1;
                g.strikes += 1;
                let instant = kind == TrapKind::FuelExhausted
                    || matches!(s.state, GraftState::Probation { .. });
                if instant || g.strikes >= c.trap_threshold {
                    // Detach; an armed ladder bans at the ceiling or
                    // doubles the window.
                    self.stats.quarantine_trips += 1;
                    g.quarantines += 1;
                    s.state = GraftState::Quarantined { by: kind };
                    if c.backoff_base > 0 && g.quarantines >= c.ban_ceiling.max(1) {
                        s.state = GraftState::Banned;
                        self.stats.bans += 1;
                    } else if c.backoff_base > 0 {
                        let doubling = 1u64 << (g.quarantines - 1).min(62);
                        g.backoff = c.backoff_base.saturating_mul(doubling);
                    }
                    g.detaches.push(Detach {
                        reason: kind,
                        strikes: g.strikes,
                        quarantines: g.quarantines,
                        backoff_remaining: g.backoff,
                        state: s.state,
                    });
                }
                (TRACE_VERDICT_TRAP, kind as i64)
            }
            Err(_) => {
                self.stats.marshal_failures += 1;
                (TRACE_VERDICT_MARSHAL_FAIL, 0)
            }
        };
        let (at, tech) = (point.map_or(u8::MAX, |p| p as u8), g.engine.technology());
        self.events.push((at, tech as u8, verdict, value));
        result.map_err(|e| Refusal::of(&e))
    }
}
