//! The graft host: per-shard engine replicas, a cross-shard quarantine
//! supervisor, and lock-free ledger merging.
//!
//! There is one host and one chain walk. eBPF scales by giving every
//! CPU its own program state and per-CPU maps, so the hot path never
//! takes a cross-CPU lock; its single-CPU case is just N = 1, not a
//! second runtime. [`ShardedHost`] applies the same shape to grafts,
//! and `ShardedHost::new(1)` plus its one [`ShardHandle`] is the
//! single-threaded host the churn, recovery and tracing tables use:
//!
//! * **Thread-confined replicas.** `install` binds the attach point's
//!   entry once, then clones the engine per additional shard via
//!   [`ExtensionEngine::fork_for_shard`] (a 1-shard host never forks).
//!   Each shard owns its replicas outright — dispatch touches no lock.
//! * **Shard handles.** Workers receive a [`ShardHandle`] (it is
//!   `Send`; move it into a `std::thread`) and dispatch inline on their
//!   own thread, exactly like per-CPU program invocation.
//! * **Hot install/uninstall.** The control plane stays usable while
//!   shards dispatch: membership ops are queued to per-shard mailboxes
//!   and stamped with a bumped *epoch*. A dispatching shard pays one
//!   relaxed epoch load when nothing changed, and drains its mailbox
//!   only when the epoch moved.
//! * **One supervisor, all shards.** Strikes are a single shared atomic
//!   per graft, so "3 traps or one `FuelExhausted`" means three traps
//!   *anywhere*. The losing CAS never double-detaches; the winning
//!   shard stamps the graft's detach epoch, and every shard's next
//!   dispatch observes the quarantine before invoking — a detached
//!   graft never runs again.
//! * **Lock-free ledger merge.** Each shard accounts into a private,
//!   plain-field [`GraftLedger`]; [`ShardHandle::flush`] folds it into
//!   the graft's shared [`AtomicLedger`] with `fetch_add` — no mutex on
//!   either side, and totals are exact.
//!
//! * **Adaptive dispatch plane.** Work routed through [`RunQueues`]
//!   lands on a bounded per-shard queue keyed by hash, with
//!   graft-affinity diversion when a home queue is full and work
//!   stealing when a shard runs dry ([`crate::steal`]). Shards drain
//!   batches that widen with backlog ([`ShardHandle::drain_queue`]) and
//!   fuse every untraced single-graft chain, fuel-metered or not,
//!   through one `invoke_batch` per batch, allocating nothing per call
//!   ([`ShardHandle::dispatch_batch`]). A
//!   stolen dispatch still counts toward the 3-strike supervisor
//!   exactly once: the handoff carries the enqueue-time epoch, and the
//!   draining shard syncs its mailbox past it before invoking.
//!
//! For deterministic concurrency testing there is a *virtual scheduler*
//! ([`VirtualShards`]): all shard handles held on one thread and
//! stepped in a seeded, reshuffled round-robin, so cross-shard
//! quarantine races replay exactly from a seed in CI. The test suite
//! checks the host against an independent reference model of these
//! semantics, not against a second host.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use graft_api::{
    EntryId, ExtensionEngine, GraftError, GraftLedger, Technology, TrapKind, Verdict,
};
use graft_rng::{SliceRandom, SmallRng};
use graft_telemetry::{TraceBuffer, TraceEvent, TraceId};

use crate::host::{GraftId, GraftState, HostConfig, HostStats, DEPTH_SLOTS};
use crate::point::AttachPoint;
use crate::postmortem::{PostmortemReport, POSTMORTEM_TAIL};
use crate::recovery::{self, SalvagedState};
use crate::steal::{RunQueues, StealPolicy, WorkItem};

const STATE_ACTIVE: u32 = 0;
const STATE_PROBATION: u32 = 1;
const STATE_QUARANTINED: u32 = 2;
const STATE_BANNED: u32 = 3;

/// A [`GraftLedger`] whose fields are atomics: the merge target shared
/// by every shard's private ledger. `fetch_add`-only, so merging is
/// lock-free and totals are exact.
#[derive(Debug, Default)]
pub struct AtomicLedger {
    invocations: AtomicU64,
    traps: AtomicU64,
    cum_ns: AtomicU64,
    fuel_used: AtomicU64,
    trap_counts: [AtomicU64; TrapKind::COUNT],
}

impl AtomicLedger {
    /// Folds one shard's private ledger into the shared totals.
    pub fn merge(&self, local: &GraftLedger) {
        if local.invocations == 0 && local.traps == 0 {
            return;
        }
        self.invocations.fetch_add(local.invocations, Ordering::Relaxed);
        self.traps.fetch_add(local.traps, Ordering::Relaxed);
        self.cum_ns.fetch_add(local.cum_ns, Ordering::Relaxed);
        self.fuel_used.fetch_add(local.fuel_used, Ordering::Relaxed);
        for kind in TrapKind::ALL {
            let n = local.trap_counts.get(kind);
            if n > 0 {
                self.trap_counts[kind as usize].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// A plain-field snapshot of the merged totals.
    pub fn snapshot(&self) -> GraftLedger {
        let mut ledger = GraftLedger {
            invocations: self.invocations.load(Ordering::Relaxed),
            traps: self.traps.load(Ordering::Relaxed),
            cum_ns: self.cum_ns.load(Ordering::Relaxed),
            fuel_used: self.fuel_used.load(Ordering::Relaxed),
            ..GraftLedger::default()
        };
        for kind in TrapKind::ALL {
            let n = self.trap_counts[kind as usize].load(Ordering::Relaxed);
            if n > 0 {
                ledger.trap_counts.add(kind, n);
            }
        }
        ledger
    }
}

/// The cross-shard face of one installed graft: supervisor state and
/// merged accounting. Everything here is atomic; nothing on the
/// dispatch path takes a lock.
struct SharedGraft {
    id: u64,
    name: String,
    tech: Technology,
    /// Install generation: the global epoch when this graft was
    /// (re-)admitted. A detach stamps the epoch *at detach time*, so
    /// `detach_epoch > generation` always identifies the incarnation
    /// that was detached — a stale observation of a previous
    /// incarnation can never quarantine a re-admitted graft.
    generation: AtomicU64,
    /// Trapped invocations since (re-)admission, summed over shards.
    strikes: AtomicU32,
    state: AtomicU32,
    /// Clean invocations still required while on probation.
    remaining_clean: AtomicU64,
    /// `TrapKind as u32` of the trap that tripped the supervisor.
    quarantined_by: AtomicU32,
    /// Global epoch stamped by the winning detach.
    detach_epoch: AtomicU64,
    ledger: AtomicLedger,
    /// Region names the winning detach shard must salvage out of its
    /// replica (fixed at install; empty = nothing to salvage).
    salvage_plan: Vec<String>,
    /// State salvaged by the most recent winning detach. Mutex, not an
    /// atomic: only the winning shard writes it, only the control plane
    /// reads it — strictly off the dispatch path.
    salvage: Mutex<Option<SalvagedState>>,
    /// Lifetime quarantine trips (the backoff ladder's rung).
    quarantines: AtomicU32,
    /// Dispatches still to be served without this graft before the
    /// ladder re-admits it (0 = not armed). Shards CAS-decrement; the
    /// shard that moves 1 → 0 performs the atomic re-admission.
    backoff_remaining: AtomicU64,
    /// Postmortems captured by winning detaches, oldest first. Mutex,
    /// not an atomic: only the winning shard appends, only the control
    /// plane drains — strictly off the dispatch path.
    postmortems: Mutex<Vec<PostmortemReport>>,
}

impl SharedGraft {
    fn new(
        id: u64,
        name: &str,
        tech: Technology,
        generation: u64,
        salvage_plan: Vec<String>,
    ) -> Self {
        SharedGraft {
            id,
            name: name.to_string(),
            tech,
            generation: AtomicU64::new(generation),
            strikes: AtomicU32::new(0),
            state: AtomicU32::new(STATE_ACTIVE),
            remaining_clean: AtomicU64::new(0),
            quarantined_by: AtomicU32::new(0),
            detach_epoch: AtomicU64::new(0),
            ledger: AtomicLedger::default(),
            salvage_plan,
            salvage: Mutex::new(None),
            quarantines: AtomicU32::new(0),
            backoff_remaining: AtomicU64::new(0),
            postmortems: Mutex::new(Vec::new()),
        }
    }

    /// Detached for any reason (quarantined or banned): the dispatch
    /// gate, one Acquire load.
    fn is_detached(&self) -> bool {
        self.state.load(Ordering::Acquire) >= STATE_QUARANTINED
    }

    fn state(&self) -> GraftState {
        match self.state.load(Ordering::Acquire) {
            STATE_ACTIVE => GraftState::Active,
            STATE_PROBATION => GraftState::Probation {
                remaining_clean: self.remaining_clean.load(Ordering::Acquire),
            },
            STATE_BANNED => GraftState::Banned,
            _ => GraftState::Quarantined {
                by: TrapKind::ALL[self.quarantined_by.load(Ordering::Acquire) as usize
                    % TrapKind::COUNT],
            },
        }
    }

    /// One clean invocation: walk probation back toward `Active`.
    fn note_clean(&self) {
        if self.state.load(Ordering::Acquire) != STATE_PROBATION {
            return;
        }
        // Decrement-if-positive, so concurrent clean invocations from
        // several shards never wrap below zero.
        let mut left = self.remaining_clean.load(Ordering::Acquire);
        while left > 0 {
            match self.remaining_clean.compare_exchange_weak(
                left,
                left - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if left == 1 {
                        // Last required clean call: back to full standing.
                        let _ = self.state.compare_exchange(
                            STATE_PROBATION,
                            STATE_ACTIVE,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                    }
                    return;
                }
                Err(now) => left = now,
            }
        }
    }

    /// Accounts one trap; returns `true` when *this* call wins the
    /// detach (exactly one caller across all shards does).
    fn note_trap(&self, kind: TrapKind, threshold: u32, epoch: &AtomicU64) -> bool {
        let strikes = self.strikes.fetch_add(1, Ordering::AcqRel) + 1;
        let instant = kind == TrapKind::FuelExhausted
            || self.state.load(Ordering::Acquire) == STATE_PROBATION;
        if instant || strikes >= threshold {
            self.detach(kind, epoch)
        } else {
            false
        }
    }

    /// Atomically quarantines the graft across all shards. The single
    /// winning transition stamps a freshly bumped global epoch, so the
    /// detach is totally ordered against install/uninstall traffic.
    /// A CAS loop (not a bare swap) so a late trap racing a permanent
    /// ban can never demote `Banned` back to `Quarantined`.
    fn detach(&self, kind: TrapKind, epoch: &AtomicU64) -> bool {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            if cur >= STATE_QUARANTINED {
                return false; // another shard already won (or banned)
            }
            match self.state.compare_exchange_weak(
                cur,
                STATE_QUARANTINED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.quarantined_by.store(kind as u32, Ordering::Release);
        self.detach_epoch
            .store(epoch.fetch_add(1, Ordering::AcqRel) + 1, Ordering::Release);
        true
    }
}

/// Membership traffic from the control plane to one shard.
enum ShardOp {
    Install {
        shared: Arc<SharedGraft>,
        engine: Box<dyn ExtensionEngine>,
        entry: EntryId,
        point: AttachPoint,
        at: usize,
    },
    Uninstall(u64),
}

/// `HostStats`' dispatch-path fields as shared atomics, merged into by
/// shard flushes.
#[derive(Default)]
struct AtomicStats {
    dispatches: AtomicU64,
    invocations: AtomicU64,
    traps: AtomicU64,
    overrides: AtomicU64,
    continues: AtomicU64,
    defaults: AtomicU64,
    quarantine_trips: AtomicU64,
    marshal_failures: AtomicU64,
    salvages: AtomicU64,
    salvaged_words: AtomicU64,
    auto_readmits: AtomicU64,
    bans: AtomicU64,
}

impl AtomicStats {
    fn merge(&self, s: &HostStats) {
        self.dispatches.fetch_add(s.dispatches, Ordering::Relaxed);
        self.invocations.fetch_add(s.invocations, Ordering::Relaxed);
        self.traps.fetch_add(s.traps, Ordering::Relaxed);
        self.overrides.fetch_add(s.overrides, Ordering::Relaxed);
        self.continues.fetch_add(s.continues, Ordering::Relaxed);
        self.defaults.fetch_add(s.defaults, Ordering::Relaxed);
        self.quarantine_trips.fetch_add(s.quarantine_trips, Ordering::Relaxed);
        self.marshal_failures.fetch_add(s.marshal_failures, Ordering::Relaxed);
        self.salvages.fetch_add(s.salvages, Ordering::Relaxed);
        self.salvaged_words.fetch_add(s.salvaged_words, Ordering::Relaxed);
        self.auto_readmits.fetch_add(s.auto_readmits, Ordering::Relaxed);
        self.bans.fetch_add(s.bans, Ordering::Relaxed);
    }
}

/// Control-plane state shared by the [`ShardedHost`] and every
/// [`ShardHandle`].
struct Control {
    config: HostConfig,
    shards: usize,
    /// Membership epoch: bumped after every install/uninstall/readmit
    /// and by every winning detach. The only thing a dispatching shard
    /// reads when nothing changed.
    epoch: AtomicU64,
    next_id: AtomicU64,
    registry: Mutex<BTreeMap<u64, Arc<SharedGraft>>>,
    mailboxes: Mutex<Vec<Sender<ShardOp>>>,
    stats: AtomicStats,
    /// Per-shard dispatch totals (merged on flush), for the
    /// shard-imbalance histogram.
    shard_dispatches: Vec<AtomicU64>,
    installs: AtomicU64,
    uninstalls: AtomicU64,
    readmits: AtomicU64,
}

/// The extension kernel: attach-point chains over installed,
/// individually-accounted grafts, replicated over N worker shards.
///
/// `ShardedHost` is the control plane: install, uninstall, readmit,
/// and observe. Dispatch happens on [`ShardHandle`]s, taken once with
/// [`take_handle`](ShardedHost::take_handle) or
/// [`take_handles`](ShardedHost::take_handles) and moved onto worker
/// threads (or driven cooperatively through [`VirtualShards`]).
/// Control-plane calls take `&self` and stay fully usable while every
/// shard is dispatching. The single-threaded host is `new(1)`.
pub struct ShardedHost {
    inner: Arc<Control>,
    handles: Vec<Option<ShardHandle>>,
    /// Control-plane counts already pushed to telemetry by
    /// [`flush`](ShardedHost::flush); subtracted on the next flush so
    /// nothing is double-counted.
    published: HostStats,
    published_epoch: u64,
    published_shards: bool,
}

impl ShardedHost {
    /// A host with `shards` worker shards and the default supervisor
    /// policy.
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, HostConfig::default())
    }

    /// A host with `shards` worker shards and an explicit policy.
    pub fn with_config(shards: usize, config: HostConfig) -> Self {
        let shards = shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let inner = Arc::new(Control {
            config,
            shards,
            epoch: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            registry: Mutex::new(BTreeMap::new()),
            mailboxes: Mutex::new(senders),
            stats: AtomicStats::default(),
            shard_dispatches: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            installs: AtomicU64::new(0),
            uninstalls: AtomicU64::new(0),
            readmits: AtomicU64::new(0),
        });
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                Some(ShardHandle {
                    shard,
                    control: Arc::clone(&inner),
                    rx,
                    seen_epoch: 0,
                    grafts: BTreeMap::new(),
                    chains: std::array::from_fn(|_| Vec::new()),
                    books: Books {
                        shard: shard as u32,
                        stats: HostStats::default(),
                        depth_counts: [0; DEPTH_SLOTS],
                        recorder: TraceBuffer::new(graft_telemetry::TRACE_BUFFER_CAPACITY),
                        trace_seq: 0,
                    },
                    published: HostStats::default(),
                    published_depth: [0; DEPTH_SLOTS],
                    epoch_syncs: 0,
                    mailbox_ops: 0,
                    flushes: 0,
                    batch_args: Vec::new(),
                    batch_out: Vec::new(),
                })
            })
            .collect();
        ShardedHost {
            inner,
            handles,
            published: HostStats::default(),
            published_epoch: 0,
            published_shards: false,
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.inner.shards
    }

    /// The supervisor policy in force.
    pub fn config(&self) -> HostConfig {
        self.inner.config
    }

    /// Takes ownership of one shard's handle (at most once per shard).
    pub fn take_handle(&mut self, shard: usize) -> Option<ShardHandle> {
        self.handles.get_mut(shard).and_then(Option::take)
    }

    /// Takes every remaining handle, in shard order.
    pub fn take_handles(&mut self) -> Vec<ShardHandle> {
        self.handles.iter_mut().filter_map(Option::take).collect()
    }

    /// Installs `engine` at the end of `point`'s chain on every shard.
    ///
    /// Binds the point's entry once on the source engine, forks one
    /// thread-confined replica per additional shard (shard 0 receives
    /// the source itself), applies the fuel budget, and queues the
    /// install to every shard's mailbox under a bumped epoch. Shards
    /// pick it up at their next dispatch — the chain stays hot
    /// throughout. Fails atomically: if binding or any fork fails,
    /// nothing is installed anywhere. The engine's regions should
    /// already hold any install-time state (access plans, logical-disk
    /// maps, ...).
    pub fn install(
        &self,
        point: AttachPoint,
        name: &str,
        engine: Box<dyn ExtensionEngine>,
    ) -> Result<GraftId, GraftError> {
        self.install_full(point, name, engine, usize::MAX, &[])
    }

    /// Installs at the *front* of every shard's chain — the hot-install
    /// path a hostile tenant would take to shadow everyone else.
    pub fn install_front(
        &self,
        point: AttachPoint,
        name: &str,
        engine: Box<dyn ExtensionEngine>,
    ) -> Result<GraftId, GraftError> {
        self.install_full(point, name, engine, 0, &[])
    }

    /// Installs with a salvage plan: the regions that hold
    /// kernel-critical state (the Logical Disk graft's `map`, for
    /// example). When the supervisor detaches this graft, the winning
    /// shard lifts the named regions out of *its* replica into a
    /// [`SalvagedState`] (readable via
    /// [`take_salvage`](Self::take_salvage)), and
    /// [`ShardHandle::salvage_now`] checkpoints them on demand. Region
    /// names are validated against the engine before anything is
    /// forked, so a typo fails at install time, not at detach time.
    pub fn install_with_salvage(
        &self,
        point: AttachPoint,
        name: &str,
        engine: Box<dyn ExtensionEngine>,
        salvage_regions: &[&str],
    ) -> Result<GraftId, GraftError> {
        for region in salvage_regions {
            engine.bind_region(region)?;
        }
        self.install_full(point, name, engine, usize::MAX, salvage_regions)
    }

    fn install_full(
        &self,
        point: AttachPoint,
        name: &str,
        mut engine: Box<dyn ExtensionEngine>,
        at: usize,
        salvage_regions: &[&str],
    ) -> Result<GraftId, GraftError> {
        // Bind once, up front: dispatch never does a string lookup.
        let entry = engine.bind_entry(point.entry())?;
        // Fork all replicas *before* registering anything, so a
        // non-forkable engine fails the install cleanly on every shard.
        let mut engines: Vec<Box<dyn ExtensionEngine>> = Vec::with_capacity(self.inner.shards);
        for shard in 1..self.inner.shards {
            engines.push(engine.fork_for_shard(shard)?);
        }
        engine.set_fuel(self.inner.config.fuel_budget);
        for replica in &mut engines {
            replica.set_fuel(self.inner.config.fuel_budget);
        }
        engines.insert(0, engine);

        let id = self.inner.next_id.fetch_add(1, Ordering::AcqRel);
        let generation = self.inner.epoch.load(Ordering::Acquire);
        let shared = Arc::new(SharedGraft::new(
            id,
            name,
            engines[0].technology(),
            generation,
            salvage_regions.iter().map(|s| s.to_string()).collect(),
        ));
        self.inner
            .registry
            .lock()
            .expect("registry lock")
            .insert(id, Arc::clone(&shared));
        {
            let mailboxes = self.inner.mailboxes.lock().expect("mailbox lock");
            for (tx, replica) in mailboxes.iter().zip(engines) {
                // A send only fails when the shard handle is gone; the
                // remaining shards still serve.
                let _ = tx.send(ShardOp::Install {
                    shared: Arc::clone(&shared),
                    engine: replica,
                    entry,
                    point,
                    at,
                });
            }
        }
        self.inner.installs.fetch_add(1, Ordering::Relaxed);
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(GraftId(id))
    }

    /// Uninstalls a graft from every shard. Returns `false` for an
    /// unknown id. Shards drop their replicas (merging any unflushed
    /// ledger counts) at their next dispatch.
    pub fn uninstall(&self, id: GraftId) -> bool {
        if self
            .inner
            .registry
            .lock()
            .expect("registry lock")
            .remove(&id.0)
            .is_none()
        {
            return false;
        }
        {
            let mailboxes = self.inner.mailboxes.lock().expect("mailbox lock");
            for tx in mailboxes.iter() {
                let _ = tx.send(ShardOp::Uninstall(id.0));
            }
        }
        self.inner.uninstalls.fetch_add(1, Ordering::Relaxed);
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Re-admits a quarantined graft on probation, across all shards at
    /// once (shards read the shared supervisor state inline, so the
    /// re-admission is visible at every shard's very next dispatch).
    /// Returns `false` unless the graft exists and is quarantined.
    pub fn readmit(&self, id: GraftId) -> bool {
        let registry = self.inner.registry.lock().expect("registry lock");
        let Some(g) = registry.get(&id.0) else {
            return false;
        };
        if g.state.load(Ordering::Acquire) != STATE_QUARANTINED {
            return false; // active, on probation, or permanently banned
        }
        g.strikes.store(0, Ordering::Release);
        g.backoff_remaining.store(0, Ordering::Release);
        g.remaining_clean
            .store(self.inner.config.probation_clean.max(1), Ordering::Release);
        // New incarnation: a detach observed after this point must have
        // been won against the probation state, not the old one.
        g.generation
            .store(self.inner.epoch.load(Ordering::Acquire), Ordering::Release);
        g.state.store(STATE_PROBATION, Ordering::Release);
        drop(registry);
        self.inner.readmits.fetch_add(1, Ordering::Relaxed);
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Runs `f` on one registered graft's shared state.
    fn with_graft<R>(&self, id: GraftId, f: impl FnOnce(&SharedGraft) -> R) -> Option<R> {
        self.inner
            .registry
            .lock()
            .expect("registry lock")
            .get(&id.0)
            .map(|g| f(g.as_ref()))
    }

    /// Merged cross-shard ledger of one graft. Complete once shards
    /// have flushed (a [`ShardHandle`] flushes explicitly or on drop;
    /// a winning detach merges the detaching shard's share at once).
    pub fn ledger(&self, id: GraftId) -> Option<GraftLedger> {
        self.with_graft(id, |g| g.ledger.snapshot())
    }

    /// The lifecycle state of one graft.
    pub fn state(&self, id: GraftId) -> Option<GraftState> {
        self.with_graft(id, SharedGraft::state)
    }

    /// Whether the supervisor has detached this graft (on all shards —
    /// detach is global by construction).
    pub fn is_quarantined(&self, id: GraftId) -> bool {
        matches!(self.state(id), Some(GraftState::Quarantined { .. }))
    }

    /// Takes ownership of the state the winning detach shard salvaged
    /// out of its replica (e.g. to re-seed a replacement graft or the
    /// built-in policy).
    pub fn take_salvage(&self, id: GraftId) -> Option<SalvagedState> {
        self.with_graft(id, |g| g.salvage.lock().expect("salvage lock").take())
            .flatten()
    }

    /// Lifetime quarantine trips for one graft (the backoff rung).
    pub fn quarantine_count(&self, id: GraftId) -> Option<u32> {
        self.with_graft(id, |g| g.quarantines.load(Ordering::Acquire))
    }

    /// The epoch stamped by the supervisor when it detached this graft
    /// (0 if never detached). Strictly greater than the graft's install
    /// generation, and totally ordered against membership changes.
    pub fn detach_epoch(&self, id: GraftId) -> Option<u64> {
        self.with_graft(id, |g| g.detach_epoch.load(Ordering::Acquire))
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Drains every postmortem captured by winning detaches so far,
    /// oldest first per graft. A shard-local report's event tail only
    /// covers the winning shard's recorder; re-attach a merged timeline
    /// with [`PostmortemReport::adopt_tail`] for the cross-shard view.
    pub fn take_postmortems(&self) -> Vec<PostmortemReport> {
        let registry = self.inner.registry.lock().expect("registry lock");
        let mut out = Vec::new();
        for g in registry.values() {
            out.append(&mut g.postmortems.lock().expect("postmortem lock"));
        }
        out
    }

    /// The technology a graft was installed under.
    pub fn technology(&self, id: GraftId) -> Option<Technology> {
        self.with_graft(id, |g| g.tech)
    }

    /// The name a graft was installed under.
    pub fn name(&self, id: GraftId) -> Option<String> {
        self.with_graft(id, |g| g.name.clone())
    }

    /// Aggregate statistics: control-plane counts plus everything the
    /// shards have flushed so far.
    pub fn stats(&self) -> HostStats {
        let s = &self.inner.stats;
        HostStats {
            dispatches: s.dispatches.load(Ordering::Relaxed),
            invocations: s.invocations.load(Ordering::Relaxed),
            traps: s.traps.load(Ordering::Relaxed),
            overrides: s.overrides.load(Ordering::Relaxed),
            continues: s.continues.load(Ordering::Relaxed),
            defaults: s.defaults.load(Ordering::Relaxed),
            quarantine_trips: s.quarantine_trips.load(Ordering::Relaxed),
            installs: self.inner.installs.load(Ordering::Relaxed),
            uninstalls: self.inner.uninstalls.load(Ordering::Relaxed),
            readmits: self.inner.readmits.load(Ordering::Relaxed),
            marshal_failures: s.marshal_failures.load(Ordering::Relaxed),
            salvages: s.salvages.load(Ordering::Relaxed),
            salvaged_words: s.salvaged_words.load(Ordering::Relaxed),
            auto_readmits: s.auto_readmits.load(Ordering::Relaxed),
            bans: s.bans.load(Ordering::Relaxed),
        }
    }

    /// Per-shard dispatch totals flushed so far, in shard order.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.inner
            .shard_dispatches
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    /// A run-queue plane sized for this host's shards — the adaptive
    /// data plane ([`crate::steal`]). Submitters feed it through
    /// [`enqueue`]; each [`ShardHandle`] drains it with
    /// [`ShardHandle::drain_queue_with`].
    ///
    /// [`enqueue`]: ShardedHost::enqueue
    pub fn run_queues<T>(&self, policy: StealPolicy) -> RunQueues<T> {
        RunQueues::new(self.inner.shards, policy)
    }

    /// Stamps one work item with the current host epoch and submits it
    /// to the plane (see [`RunQueues::submit`]). `graft` steers
    /// affinity placement; `Err` returns the payload on backpressure.
    pub fn enqueue<T>(
        &self,
        queues: &RunQueues<T>,
        key: u64,
        graft: Option<GraftId>,
        payload: T,
    ) -> Result<usize, T> {
        queues
            .submit(WorkItem {
                key,
                graft: graft.map_or(0, |g| g.0),
                epoch: self.epoch(),
                payload,
            })
            .map_err(|w| w.payload)
    }

    /// Flushes any handles still held here, then publishes the
    /// control-plane counts accumulated since the last flush:
    /// `kernel.installs`, `kernel.uninstalls`, `kernel.readmits`,
    /// `kernel.shard.count` and `kernel.shard.epoch`. The dispatch-path
    /// and `kernel.recovery.*` counts are published by the shard that
    /// accounted them ([`ShardHandle::flush`]).
    ///
    /// Idempotent: each count is published once, whether by an
    /// explicit flush or by `Drop`, so a caller that may leak the host
    /// (`std::mem::forget`, an `Rc` cycle) or abort a long run can
    /// checkpoint its counts at will.
    pub fn flush(&mut self) {
        for h in self.handles.iter_mut().flatten() {
            h.flush();
        }
        let now = self.stats();
        let s = now.delta_since(&self.published);
        self.published = now;
        let epoch = self.epoch();
        let epochs = epoch.saturating_sub(self.published_epoch);
        self.published_epoch = epoch;
        let shards = if self.published_shards { 0 } else { self.inner.shards as u64 };
        self.published_shards = true;
        if !graft_telemetry::enabled() {
            return;
        }
        graft_telemetry::counter!("kernel.installs").add(s.installs);
        graft_telemetry::counter!("kernel.uninstalls").add(s.uninstalls);
        graft_telemetry::counter!("kernel.readmits").add(s.readmits);
        graft_telemetry::counter!("kernel.shard.count").add(shards);
        graft_telemetry::counter!("kernel.shard.epoch").add(epochs);
    }
}

impl Drop for ShardedHost {
    fn drop(&mut self) {
        // Drop any never-taken handles first so their ledgers and
        // shard counters flush before the imbalance snapshot.
        for h in &mut self.handles {
            h.take();
        }
        // Publishes only what explicit flushes have not already pushed.
        self.flush();
        let loads = self.shard_loads();
        let total: u64 = loads.iter().sum();
        if total > 0 && loads.len() > 1 && graft_telemetry::enabled() {
            let max = *loads.iter().max().unwrap();
            let min = *loads.iter().min().unwrap();
            let mean = total as f64 / loads.len() as f64;
            // Spread of per-shard load around the mean, in percent:
            // 0 = perfectly balanced, 100 = the busiest shard saw one
            // mean-load more than the idlest.
            let imbalance = ((max - min) as f64 / mean * 100.0).round() as u64;
            graft_telemetry::histogram!("kernel.shard.imbalance_pct").record(imbalance);
        }
    }
}

/// One worker shard's thread-confined half of a [`ShardedHost`].
///
/// `Send` but not `Sync`: move it into the worker thread that owns the
/// shard, then dispatch inline. All engines reached through a handle
/// are private to it; the only shared traffic is the per-graft atomic
/// supervisor state, one epoch load per dispatch, and the mailbox drain
/// when membership changed.
pub struct ShardHandle {
    shard: usize,
    control: Arc<Control>,
    rx: Receiver<ShardOp>,
    seen_epoch: u64,
    grafts: BTreeMap<u64, ShardGraft>,
    chains: [Vec<u64>; AttachPoint::COUNT],
    books: Books,
    published: HostStats,
    published_depth: [u64; DEPTH_SLOTS],
    epoch_syncs: u64,
    mailbox_ops: u64,
    flushes: u64,
    /// A fused batch's arguments, back to back, and its results: kept
    /// across batches so the fused path allocates nothing per call.
    batch_args: Vec<i64>,
    batch_out: Vec<i64>,
}

struct ShardGraft {
    shared: Arc<SharedGraft>,
    engine: Box<dyn ExtensionEngine>,
    entry: EntryId,
    /// Private per-shard accounting, merged on flush.
    local: GraftLedger,
}

impl ShardGraft {
    /// Invokes this replica through its pre-bound entry, threading the
    /// dispatch's causal id when the flight recorder is armed.
    fn invoke(&mut self, args: &[i64], trace: Option<TraceId>) -> Result<i64, GraftError> {
        match trace {
            Some(trace) => self.engine.invoke_id_traced(self.entry, args, trace),
            None => self.engine.invoke_id(self.entry, args),
        }
    }

    /// Lifts the salvage plan's regions out of this replica (`None`
    /// without a plan, or when any region fails to snapshot).
    fn salvage(&self) -> Option<SalvagedState> {
        let s = &self.shared;
        if s.salvage_plan.is_empty() {
            return None;
        }
        recovery::salvage(&s.name, s.tech, self.engine.as_ref(), &s.salvage_plan)
    }
}

/// Where one invocation sits in the flight recorder: its dispatch's
/// causal id (`None` when not recording), its step in the chain walk,
/// its attach point (`None` for a direct invoke), and when it started.
#[derive(Clone, Copy)]
struct Site {
    trace: Option<TraceId>,
    seq: u32,
    point: Option<AttachPoint>,
    started: Instant,
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// One shard's dispatch-path books: statistics, chain-depth counts and
/// the flight recorder. Kept apart from the graft table so a chain
/// walk can hold a graft and its shard's books at once.
struct Books {
    shard: u32,
    stats: HostStats,
    depth_counts: [u64; DEPTH_SLOTS],
    /// This shard's flight recorder: thread-confined like the engines,
    /// merged across shards by [`VirtualShards::merged_timeline`] (or by
    /// collecting [`ShardHandle::trace_events`] from worker threads).
    recorder: TraceBuffer,
    /// Dispatches traced by this shard — the per-source sequence
    /// [`TraceId::mint`] consumes (the shard index is the source, so
    /// ids are globally unique without a shared atomic).
    trace_seq: u64,
}

impl Books {
    /// One causal id per dispatch or direct invoke, minted only when
    /// the flight recorder is armed: gated mode costs two relaxed
    /// loads, off mode one.
    fn mint(&mut self) -> Option<TraceId> {
        if !graft_telemetry::tracing() {
            return None;
        }
        self.trace_seq += 1;
        Some(TraceId::mint(self.shard as u16, self.trace_seq))
    }

    /// Records one invocation's [`TraceEvent`] — the only place the
    /// host builds one. A no-op unless `site` is being traced.
    fn record(&mut self, site: Site, g: &SharedGraft, ns: u64, fuel: u64, (verdict, value): (u8, i64)) {
        let Some(trace) = site.trace else {
            return;
        };
        self.recorder.record(TraceEvent {
            ts_ns: graft_telemetry::since_epoch_ns(site.started),
            trace,
            seq: site.seq,
            graft: g.id,
            shard: self.shard,
            point: site.point.map_or(u8::MAX, |p| p as u8),
            tech: g.tech as u8,
            verdict,
            value,
            duration_ns: ns,
            fuel,
        });
    }

    /// Charges one finished invocation of `g`: its ledger, probation,
    /// trace event and strikes. A trap is charged to this graft only;
    /// a non-trap framework error is counted as a marshal failure and
    /// not charged to the graft at all.
    fn settle(
        &mut self,
        control: &Control,
        g: &mut ShardGraft,
        site: Site,
        result: &Result<i64, GraftError>,
    ) {
        let ns = elapsed_ns(site.started);
        let fuel = g.engine.fuel_used();
        self.stats.invocations += 1;
        if site.trace.is_some() {
            // Direct invocations have no attach point; an `Ok` records
            // the return value under the override verdict.
            let code = match result {
                Ok(ret) => match site.point.map(|p| p.decode(*ret)) {
                    Some(Verdict::Continue) => (graft_telemetry::TRACE_VERDICT_CONTINUE, 0),
                    Some(Verdict::Override(v)) => (graft_telemetry::TRACE_VERDICT_OVERRIDE, v),
                    None => (graft_telemetry::TRACE_VERDICT_OVERRIDE, *ret),
                },
                Err(GraftError::Trap(trap)) => {
                    (graft_telemetry::TRACE_VERDICT_TRAP, trap.kind() as usize as i64)
                }
                Err(_) => (graft_telemetry::TRACE_VERDICT_MARSHAL_FAIL, 0),
            };
            self.record(site, &g.shared, ns, fuel.unwrap_or(0), code);
        }
        match result {
            Ok(_) => {
                g.local.record_ok(ns, fuel);
                g.shared.note_clean();
            }
            Err(GraftError::Trap(trap)) => {
                g.local.record_trap(ns, fuel, trap);
                self.strike(control, g, trap.kind());
            }
            Err(_) => self.stats.marshal_failures += 1,
        }
    }

    /// Adds one strike to `g`'s shared count; the call that wins the
    /// detach (exactly one across all shards) runs the supervisor's
    /// response on this shard.
    fn strike(&mut self, control: &Control, g: &mut ShardGraft, kind: TrapKind) {
        self.stats.traps += 1;
        if g.shared.note_trap(kind, control.config.trap_threshold, &control.epoch) {
            // The winning detach bumped the epoch; the next sync is a
            // (cheap, empty) mailbox drain.
            self.win_detach(&control.config, g, kind);
        }
    }

    /// Post-detach bookkeeping on the shard that *won* the detach CAS:
    /// salvage the planned regions out of this shard's replica, arm the
    /// backoff ladder or ban at the ceiling, and capture the
    /// postmortem. Cold path — the locks here are never touched by a
    /// dispatch that doesn't detach.
    fn win_detach(&mut self, config: &HostConfig, g: &mut ShardGraft, reason: TrapKind) {
        self.stats.quarantine_trips += 1;
        let trips = g.shared.quarantines.fetch_add(1, Ordering::AcqRel) + 1;
        let mut salvaged_words = None;
        if let Some(s) = g.salvage() {
            self.stats.salvages += 1;
            self.stats.salvaged_words += s.words() as u64;
            salvaged_words = Some(s.words());
            *g.shared.salvage.lock().expect("salvage lock") = Some(s);
        }
        if config.backoff_base > 0 {
            if trips >= config.ban_ceiling.max(1) {
                g.shared.state.store(STATE_BANNED, Ordering::Release);
                self.stats.bans += 1;
            } else {
                // Window doubles with each trip: base << (trips - 1).
                g.shared.backoff_remaining.store(
                    config
                        .backoff_base
                        .saturating_mul(1u64 << u64::from(trips - 1).min(62)),
                    Ordering::Release,
                );
            }
        }
        // Postmortem: merge the winner's unflushed ledger into the
        // shared totals first so the report's ledger covers every
        // invocation this shard accounted, then snapshot supervisor
        // state. The event tail only sees the winner's recorder; traps
        // that landed on other shards are re-attached later via
        // `PostmortemReport::adopt_tail` over a merged timeline.
        g.shared.ledger.merge(&g.local);
        g.local = GraftLedger::default();
        let id = g.shared.id;
        let mut events: Vec<TraceEvent> = self
            .recorder
            .events()
            .into_iter()
            .filter(|e| e.graft == id)
            .collect();
        if events.len() > POSTMORTEM_TAIL {
            events.drain(..events.len() - POSTMORTEM_TAIL);
        }
        let report = PostmortemReport {
            graft: g.shared.name.clone(),
            graft_id: id,
            tech: g.shared.tech,
            reason,
            state: g.shared.state(),
            ledger: g.shared.ledger.snapshot(),
            strikes: g.shared.strikes.load(Ordering::Acquire),
            quarantines: trips,
            backoff_remaining: g.shared.backoff_remaining.load(Ordering::Acquire),
            salvaged_words,
            events,
            detached_at_ns: graft_telemetry::now_ns(),
            shard: self.shard,
        };
        g.shared
            .postmortems
            .lock()
            .expect("postmortem lock")
            .push(report);
    }
}

/// One dispatch served while `shared` sat quarantined: CAS-decrement
/// its backoff window; the shard that moves 1 → 0 wins the atomic
/// re-admission (mirroring [`ShardedHost::readmit`], but initiated by
/// the ladder). Composes with any number of shards: the window counts
/// dispatches *globally*, and exactly one shard re-admits.
fn note_backoff_dispatch(control: &Control, stats: &mut HostStats, shared: &SharedGraft) {
    if control.config.backoff_base == 0
        || shared.state.load(Ordering::Acquire) != STATE_QUARANTINED
    {
        return;
    }
    let mut left = shared.backoff_remaining.load(Ordering::Acquire);
    while left > 0 {
        match shared.backoff_remaining.compare_exchange_weak(
            left,
            left - 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                if left == 1 {
                    shared.strikes.store(0, Ordering::Release);
                    shared
                        .remaining_clean
                        .store(control.config.probation_clean.max(1), Ordering::Release);
                    shared
                        .generation
                        .store(control.epoch.load(Ordering::Acquire), Ordering::Release);
                    if shared
                        .state
                        .compare_exchange(
                            STATE_QUARANTINED,
                            STATE_PROBATION,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        stats.auto_readmits += 1;
                        control.readmits.fetch_add(1, Ordering::Relaxed);
                        control.epoch.fetch_add(1, Ordering::AcqRel);
                    }
                }
                return;
            }
            Err(now) => left = now,
        }
    }
}

impl ShardHandle {
    /// This handle's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Catches up with membership: one epoch load when nothing
    /// changed; otherwise drain the mailbox.
    fn sync(&mut self) {
        let epoch = self.control.epoch.load(Ordering::Acquire);
        if epoch == self.seen_epoch {
            return;
        }
        self.seen_epoch = epoch;
        self.epoch_syncs += 1;
        while let Ok(op) = self.rx.try_recv() {
            self.mailbox_ops += 1;
            match op {
                ShardOp::Install {
                    shared,
                    engine,
                    entry,
                    point,
                    at,
                } => {
                    let id = shared.id;
                    self.grafts.insert(
                        id,
                        ShardGraft {
                            shared,
                            engine,
                            entry,
                            local: GraftLedger::default(),
                        },
                    );
                    let chain = &mut self.chains[point as usize];
                    let at = at.min(chain.len());
                    chain.insert(at, id);
                }
                ShardOp::Uninstall(id) => {
                    if let Some(g) = self.grafts.remove(&id) {
                        // Merge before dropping so no counts are lost.
                        g.shared.ledger.merge(&g.local);
                        for chain in &mut self.chains {
                            chain.retain(|&x| x != id);
                        }
                    }
                }
            }
        }
    }

    /// The chain this shard would dispatch at `point`, in order.
    pub fn chain(&mut self, point: AttachPoint) -> Vec<GraftId> {
        self.sync();
        self.chains[point as usize].iter().map(|&id| GraftId(id)).collect()
    }

    /// Grafts at `point` this shard's dispatch would actually consult.
    pub fn active_len(&mut self, point: AttachPoint) -> usize {
        self.sync();
        self.chains[point as usize]
            .iter()
            .filter(|id| !self.grafts[id].shared.is_detached())
            .count()
    }

    /// This shard's replica engine for a graft (e.g. to marshal
    /// shard-local state after install or re-admission).
    pub fn engine_mut(&mut self, id: GraftId) -> Option<&mut (dyn ExtensionEngine + '_)> {
        self.sync();
        self.grafts.get_mut(&id.0).map(|g| g.engine.as_mut() as _)
    }

    /// This shard's private (unflushed) ledger for a graft.
    pub fn local_ledger(&self, id: GraftId) -> Option<&GraftLedger> {
        self.grafts.get(&id.0).map(|g| &g.local)
    }

    /// This shard's dispatch-path statistics (unflushed view).
    pub fn stats(&self) -> HostStats {
        self.books.stats
    }

    /// Snapshots a graft's salvage plan out of this shard's *live*
    /// replica right now, without detaching — an explicit checkpoint.
    /// `None` for a graft unknown here, without a plan, or whose
    /// regions fail to snapshot.
    pub fn salvage_now(&mut self, id: GraftId) -> Option<SalvagedState> {
        self.sync();
        let s = self.grafts.get(&id.0)?.salvage()?;
        self.books.stats.salvages += 1;
        self.books.stats.salvaged_words += s.words() as u64;
        Some(s)
    }

    /// Walks `point`'s chain on this shard: marshals each attached
    /// graft with `marshal` (which loads the graft's regions and
    /// returns the argument vector), invokes it through the pre-bound
    /// handle, and returns the first `Override`. Traps and marshalling
    /// failures are charged to the offending graft (marshalling
    /// failures to the host's counter, not the graft) and the walk
    /// continues — one bad tenant never takes the attach point down. A
    /// chain that declines entirely yields [`Verdict::Continue`], so
    /// the substrate's built-in policy applies. The quarantine gate is
    /// the *shared* supervisor state, so a detach by any shard
    /// suppresses invocation here immediately.
    pub fn dispatch<F>(&mut self, point: AttachPoint, mut marshal: F) -> Verdict
    where
        F: FnMut(&mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError>,
    {
        self.sync();
        let p = point as usize;
        let depth = self.chains[p]
            .iter()
            .filter(|id| !self.grafts[id].shared.is_detached())
            .count();
        let books = &mut self.books;
        books.stats.dispatches += 1;
        books.depth_counts[depth.min(DEPTH_SLOTS - 1)] += 1;
        // One causal id per dispatch, threaded through every invocation
        // it causes (including across the upcall wire).
        let trace = books.mint();
        let mut seq: u32 = 0;
        for &id in &self.chains[p] {
            let Some(g) = self.grafts.get_mut(&id) else {
                continue;
            };
            // The cross-shard quarantine gate: one Acquire load.
            if g.shared.is_detached() {
                // Backoff re-admission: each dispatch served without
                // this graft — on any shard — counts toward its clean
                // built-in window.
                note_backoff_dispatch(&self.control, &mut books.stats, &g.shared);
                continue;
            }
            let site = Site {
                trace,
                seq,
                point: Some(point),
                started: Instant::now(),
            };
            seq += 1;
            let result = match marshal(g.engine.as_mut()) {
                Ok(args) => g.invoke(&args, trace),
                Err(_) => {
                    // Kernel-side marshalling failed for this tenant
                    // (e.g. a dead upcall transport). Skip it; do not
                    // charge its ledger for a fault that is not its
                    // code's.
                    books.stats.marshal_failures += 1;
                    let code = (graft_telemetry::TRACE_VERDICT_MARSHAL_FAIL, 0);
                    books.record(site, &g.shared, elapsed_ns(site.started), 0, code);
                    continue;
                }
            };
            books.settle(&self.control, g, site, &result);
            if let Ok(ret) = result {
                match point.decode(ret) {
                    v @ Verdict::Override(_) => {
                        books.stats.overrides += 1;
                        return v;
                    }
                    Verdict::Continue => books.stats.continues += 1,
                }
            }
        }
        books.stats.defaults += 1;
        Verdict::Continue
    }

    /// Dispatches `calls` chain walks at `point` as one batch — the
    /// adaptive-dispatch fast path. Returns one verdict per call, in
    /// call order.
    ///
    /// When the chain at `point` is a single attached graft and tracing
    /// is off, the calls fuse into one [`ExtensionEngine::invoke_batch`],
    /// metered engine or not: `marshal(i, engine, args)` appends every
    /// call's arguments to one shared buffer first, then the engine runs
    /// the whole batch without re-crossing the chain-walk machinery per
    /// call, and nothing is allocated per call. Accounting stays
    /// call-exact — each call counts one dispatch, one invocation, its
    /// own verdict statistics, and its own supervisor strike; the
    /// batch's fuel (the sum [`ExtensionEngine::fuel_used`] reports
    /// after a batch, refuelled per call) is added to the ledger once.
    /// On a mid-batch trap the faulting call is charged exactly once
    /// (ledger trap, strike, possible winning detach) and the remaining
    /// calls fall back to per-call dispatch, which observes any detach
    /// the trap just caused — exactly like back-to-back dispatches.
    ///
    /// Everything else — deeper or empty chains, tracing runs (each
    /// dispatch needs its own causal id), ragged arities, marshal
    /// failures — takes the per-call path, whose semantics are
    /// [`dispatch`] in a loop. The `marshal` closure must be pure per
    /// call: the fused path marshals every call before the first
    /// invocation and re-marshals when degrading to per-call dispatch
    /// (see [`ChainDispatch::dispatch_batch`]).
    ///
    /// [`dispatch`]: ShardHandle::dispatch
    pub fn dispatch_batch<F>(
        &mut self,
        point: AttachPoint,
        calls: usize,
        mut marshal: F,
    ) -> Vec<Verdict>
    where
        F: FnMut(usize, &mut dyn ExtensionEngine, &mut Vec<i64>) -> Result<(), GraftError>,
    {
        self.sync();
        let mut verdicts = Vec::with_capacity(calls);
        let p = point as usize;
        let fusable = calls > 1
            && !graft_telemetry::tracing()
            && self.chains[p].len() == 1
            && self
                .grafts
                .get(&self.chains[p][0])
                .is_some_and(|g| !g.shared.is_detached());
        if fusable {
            self.invoke_fused(point, calls, &mut marshal, &mut verdicts);
        }
        // The per-call path: every call when the batch did not fuse,
        // the calls after a fault when it did.
        for i in verdicts.len()..calls {
            let v = self.dispatch(point, |e| {
                let mut args = Vec::new();
                marshal(i, e, &mut args)?;
                Ok(args)
            });
            verdicts.push(v);
        }
        verdicts
    }

    /// The fused half of [`dispatch_batch`]: marshals every call into
    /// `batch_args`, runs them as one `invoke_batch` on the chain's one
    /// graft, and accounts each completed call (and a faulting one) into
    /// `verdicts`. Runs nothing when marshalling fails or the arity is
    /// ragged; after a fault `verdicts` is short, and the caller
    /// dispatches the rest per call.
    ///
    /// [`dispatch_batch`]: ShardHandle::dispatch_batch
    fn invoke_fused<F>(
        &mut self,
        point: AttachPoint,
        calls: usize,
        marshal: &mut F,
        verdicts: &mut Vec<Verdict>,
    ) where
        F: FnMut(usize, &mut dyn ExtensionEngine, &mut Vec<i64>) -> Result<(), GraftError>,
    {
        let id = self.chains[point as usize][0];
        let g = self.grafts.get_mut(&id).expect("chain member");
        let args = &mut self.batch_args;
        args.clear();
        let mut arity = None;
        for i in 0..calls {
            let before = args.len();
            if marshal(i, g.engine.as_mut(), args).is_err()
                || *arity.get_or_insert(args.len() - before) != args.len() - before
            {
                return;
            }
        }
        let out = &mut self.batch_out;
        out.clear();
        let started = Instant::now();
        let result = g.engine.invoke_batch(g.entry, calls, args, out);
        // Wall-clock attribution per call (an even share; `cum_ns` is
        // the one machine-dependent ledger field). The batch's fuel is
        // charged once, before a strike can cut a postmortem.
        let share_ns = elapsed_ns(started) / calls as u64;
        g.local.fuel_used += g.engine.fuel_used().unwrap_or(0);
        let books = &mut self.books;
        // The completed prefix: each result is one full dispatch.
        for &ret in out.iter() {
            books.stats.dispatches += 1;
            books.depth_counts[1] += 1;
            g.local.record_ok(share_ns, None);
            g.shared.note_clean();
            books.stats.invocations += 1;
            match point.decode(ret) {
                v @ Verdict::Override(_) => {
                    books.stats.overrides += 1;
                    verdicts.push(v);
                }
                Verdict::Continue => {
                    books.stats.continues += 1;
                    books.stats.defaults += 1;
                    verdicts.push(Verdict::Continue);
                }
            }
        }
        if let Err(err) = result {
            // The faulting call, charged exactly once; the caller then
            // degrades to per-call dispatch for the remainder, which
            // observes any detach the trap just caused.
            books.stats.dispatches += 1;
            books.depth_counts[1] += 1;
            books.stats.invocations += 1;
            match err {
                GraftError::Trap(trap) => {
                    g.local.record_trap(share_ns, None, &trap);
                    books.strike(&self.control, g, trap.kind());
                }
                _ => books.stats.marshal_failures += 1,
            }
            books.stats.defaults += 1;
            verdicts.push(Verdict::Continue);
        }
    }

    /// Drains one adaptively sized batch from `queues` for this shard
    /// and dispatches each item's chain walk at `point`; returns the
    /// number of items dispatched (0 = nothing runnable).
    ///
    /// The steal-safe handoff: the handle syncs membership *before*
    /// dispatching and checks it has caught up with every drained
    /// item's submit-time epoch (monotone, so a mailbox sync after the
    /// drain always suffices) — a stolen item never runs against a
    /// staler chain than its submitter saw. Items executed here mark
    /// this shard warm for their graft, steering future placement and
    /// theft ([`RunQueues::mark_warm`]).
    ///
    /// `to_args` appends an item's arguments to the batch's argument
    /// buffer; it must be pure (it may run more than once per item, per
    /// the [`ChainDispatch::dispatch_batch`] contract). `on_result`
    /// observes every `(item, verdict)` pair in execution order.
    pub fn drain_queue_with<T, A, F>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        mut to_args: A,
        mut on_result: F,
    ) -> usize
    where
        A: FnMut(&T, &mut Vec<i64>),
        F: FnMut(&WorkItem<T>, Verdict),
    {
        let mut batch = Vec::new();
        if queues.take(self.shard, &mut batch) == 0 {
            return 0;
        }
        self.sync();
        debug_assert!(
            batch.iter().all(|w| w.epoch <= self.seen_epoch),
            "drained an item stamped past the shard's synced epoch"
        );
        for w in &batch {
            queues.mark_warm(self.shard, w.graft);
        }
        let verdicts = self.dispatch_batch(point, batch.len(), |i, _engine, args| {
            to_args(&batch[i].payload, args);
            Ok(())
        });
        for (w, v) in batch.iter().zip(verdicts) {
            on_result(w, v);
        }
        batch.len()
    }

    /// [`drain_queue_with`] discarding the per-item verdicts.
    ///
    /// [`drain_queue_with`]: ShardHandle::drain_queue_with
    pub fn drain_queue<T, A>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        to_args: A,
    ) -> usize
    where
        A: FnMut(&T, &mut Vec<i64>),
    {
        self.drain_queue_with(queues, point, to_args, |_, _| {})
    }

    /// Invokes one graft directly on this shard's replica, with ledger
    /// accounting and the shared quarantine gate: a detached graft
    /// deterministically returns [`GraftError::Unavailable`] — on every
    /// shard, not just the one that observed the traps — never a panic.
    pub fn invoke(&mut self, id: GraftId, args: &[i64]) -> Result<i64, GraftError> {
        self.sync();
        let Some(g) = self.grafts.get_mut(&id.0) else {
            return Err(GraftError::Unavailable {
                graft: format!("graft#{}", id.0),
                missing: "installation (no such graft)".into(),
            });
        };
        if g.shared.is_detached() {
            let missing = if g.shared.state.load(Ordering::Acquire) == STATE_BANNED {
                "permanently banned at the backoff ceiling"
            } else {
                "detached by quarantine supervisor"
            };
            return Err(GraftError::Unavailable {
                graft: g.shared.name.clone(),
                missing: missing.into(),
            });
        }
        let trace = self.books.mint();
        let site = Site {
            trace,
            seq: 0,
            point: None,
            started: Instant::now(),
        };
        let result = g.invoke(args, trace);
        self.books.settle(&self.control, g, site, &result);
        result
    }

    /// Merges this shard's private ledgers and statistics into the
    /// shared totals (pure `fetch_add` — lock-free on both sides) and
    /// publishes telemetry deltas: the dispatch-path `kernel.*`
    /// counters, `kernel.recovery.*`, the `kernel.chain_depth`
    /// histogram, and this shard's `kernel.shard.*` sync traffic.
    /// Idempotent: each count merges and publishes exactly once, and
    /// `Drop` flushes whatever remains, including when the worker
    /// thread unwinds out of a panic.
    pub fn flush(&mut self) {
        self.flushes += 1;
        // Publishes only events not yet flushed, and accounts every
        // overwritten-unpublished event to `telemetry.trace.dropped`.
        self.books.recorder.flush();
        for g in self.grafts.values_mut() {
            g.shared.ledger.merge(&g.local);
            g.local = GraftLedger::default();
        }
        let s = self.books.stats.delta_since(&self.published);
        self.published = self.books.stats;
        self.control.stats.merge(&s);
        self.control.shard_dispatches[self.shard].fetch_add(s.dispatches, Ordering::Relaxed);
        let depth_prev = std::mem::replace(&mut self.published_depth, self.books.depth_counts);
        let (syncs, mailbox_ops) = (self.epoch_syncs, self.mailbox_ops);
        self.epoch_syncs = 0;
        self.mailbox_ops = 0;
        if !graft_telemetry::enabled() {
            return;
        }
        graft_telemetry::counter!("kernel.dispatches").add(s.dispatches);
        graft_telemetry::counter!("kernel.invocations").add(s.invocations);
        graft_telemetry::counter!("kernel.traps").add(s.traps);
        graft_telemetry::counter!("kernel.verdict_override").add(s.overrides);
        graft_telemetry::counter!("kernel.verdict_continue").add(s.continues);
        graft_telemetry::counter!("kernel.verdict_default").add(s.defaults);
        graft_telemetry::counter!("kernel.quarantine_trips").add(s.quarantine_trips);
        graft_telemetry::counter!("kernel.marshal_failures").add(s.marshal_failures);
        graft_telemetry::counter!("kernel.recovery.salvages").add(s.salvages);
        graft_telemetry::counter!("kernel.recovery.salvaged_words").add(s.salvaged_words);
        graft_telemetry::counter!("kernel.recovery.auto_readmits").add(s.auto_readmits);
        graft_telemetry::counter!("kernel.recovery.bans").add(s.bans);
        graft_telemetry::counter!("kernel.shard.epoch_syncs").add(syncs);
        graft_telemetry::counter!("kernel.shard.mailbox_ops").add(mailbox_ops);
        graft_telemetry::counter!("kernel.shard.flushes").incr();
        let depth = graft_telemetry::histogram!("kernel.chain_depth");
        for (d, (&n, &p)) in self.books.depth_counts.iter().zip(&depth_prev).enumerate() {
            depth.record_n(d as u64, n.saturating_sub(p));
        }
    }

    /// Every trace event still retained by this shard's flight
    /// recorder, oldest first (empty unless recording was armed).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.books.recorder.events()
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.flush();
        if graft_telemetry::enabled() {
            // Lifetime per-shard load, one histogram entry per shard:
            // the distribution graftstat summarizes as shard balance.
            graft_telemetry::histogram!("kernel.shard.load").record(self.books.stats.dispatches);
        }
    }
}

/// Deterministic cooperative driver for a [`ShardedHost`]'s handles —
/// the loom-style interleaving mode.
///
/// All shard handles are held on one thread and stepped in a seeded
/// round-robin: each full round visits every shard once, in an order
/// reshuffled from the seed, so cross-shard supervisor races (two
/// shards observing a graft's third strike, a detach landing between
/// another shard's gate check and its invoke, ...) are explored
/// *deterministically* — the same seed replays the same interleaving,
/// which is what CI needs.
pub struct VirtualShards {
    handles: Vec<ShardHandle>,
    order: Vec<usize>,
    cursor: usize,
    rng: SmallRng,
}

impl VirtualShards {
    /// Takes every remaining handle from `host` and builds a seeded
    /// driver over them.
    pub fn new(host: &mut ShardedHost, seed: u64) -> Self {
        let handles = host.take_handles();
        assert!(!handles.is_empty(), "all shard handles already taken");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..handles.len()).collect();
        order.shuffle(&mut rng);
        VirtualShards {
            handles,
            order,
            cursor: 0,
            rng,
        }
    }

    /// Number of shards driven.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True when driving no shards (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The next shard in the seeded round-robin (reshuffles the visit
    /// order at the end of each round).
    pub fn next_shard(&mut self) -> &mut ShardHandle {
        if self.cursor >= self.order.len() {
            self.cursor = 0;
            self.order.shuffle(&mut self.rng);
        }
        let idx = self.order[self.cursor];
        self.cursor += 1;
        &mut self.handles[idx]
    }

    /// A specific shard, for tests that script exact placements.
    pub fn shard_mut(&mut self, shard: usize) -> &mut ShardHandle {
        &mut self.handles[shard]
    }

    /// Dispatches on the next shard in the seeded rotation.
    pub fn dispatch<F>(&mut self, point: AttachPoint, marshal: F) -> Verdict
    where
        F: FnMut(&mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError>,
    {
        self.next_shard().dispatch(point, marshal)
    }

    /// Drains one adaptive batch on the next shard of the seeded
    /// rotation — the deterministic steal-interleaving step. Which
    /// shard drains (and therefore which steals happen) is a pure
    /// function of the seed and the queue state, so the same seed
    /// replays the same steal schedule. Returns items dispatched.
    pub fn drive_queue<T, A>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        to_args: A,
    ) -> usize
    where
        A: FnMut(&T, &mut Vec<i64>),
    {
        self.next_shard().drain_queue(queues, point, to_args)
    }

    /// [`drive_queue`] with a per-item observer, for harnesses that
    /// record execution order.
    ///
    /// [`drive_queue`]: VirtualShards::drive_queue
    pub fn drive_queue_with<T, A, F>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        to_args: A,
        on_result: F,
    ) -> usize
    where
        A: FnMut(&T, &mut Vec<i64>),
        F: FnMut(&WorkItem<T>, Verdict),
    {
        self.next_shard()
            .drain_queue_with(queues, point, to_args, on_result)
    }

    /// Steps the seeded rotation until the plane is empty; returns the
    /// total items dispatched. Terminates because a shard with queued
    /// work always drains at least one item when visited.
    pub fn drain_queue_to_empty<T, A>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        mut to_args: A,
    ) -> usize
    where
        A: FnMut(&T, &mut Vec<i64>),
    {
        let mut total = 0;
        while queues.total_depth() > 0 {
            total += self.drive_queue(queues, point, &mut to_args);
        }
        total
    }

    /// Flushes every shard's ledgers and statistics.
    pub fn flush_all(&mut self) {
        for h in &mut self.handles {
            h.flush();
        }
    }

    /// The causally ordered merge of every shard's flight recorder —
    /// one timeline in which each dispatch's events appear in chain
    /// order and cross-shard events interleave by monotonic time.
    pub fn merged_timeline(&self) -> Vec<TraceEvent> {
        graft_telemetry::merge_timelines(self.handles.iter().map(ShardHandle::trace_events))
    }
}

/// Object-safe chain-dispatch seam: what a substrate adapter needs from
/// "something that hosts graft chains". Implemented by [`ShardHandle`]
/// (a worker thread's shard, owned by one adapter) and by
/// `Rc<RefCell<ShardHandle>>` (one shard shared by several adapters).
pub trait ChainDispatch {
    /// Walks the chain at `point`; see [`ShardHandle::dispatch`].
    fn dispatch_chain(&mut self, point: AttachPoint, marshal: &mut MarshalFn<'_>) -> Verdict;

    /// Dispatches `calls` chain walks at `point` as one batch,
    /// returning one verdict per call, in call order.
    ///
    /// `marshal(i, engine, args)` appends call `i`'s arguments to `args`,
    /// a buffer shared by the whole batch. The contract beyond
    /// [`dispatch_chain`]: marshalling must be **pure per call** —
    /// implementations may marshal every call before the first
    /// invocation runs (the `invoke_batch` shape) and may re-marshal a
    /// call when falling back to per-call dispatch, so a closure that
    /// writes per-call engine state (regions) or has observable side
    /// effects must not be batched. Each call still counts as its own
    /// dispatch: ledgers (fuel included), verdict statistics, and the
    /// 3-strike supervisor advance exactly as if the calls had been
    /// dispatched one by one.
    ///
    /// [`ShardHandle`] fuses the calls through one
    /// [`ExtensionEngine::invoke_batch`] whenever the chain is a single
    /// attached graft and tracing is off, whether or not its engine
    /// meters fuel.
    ///
    /// [`dispatch_chain`]: ChainDispatch::dispatch_chain
    fn dispatch_batch(
        &mut self,
        point: AttachPoint,
        calls: usize,
        marshal: &mut BatchMarshalFn<'_>,
    ) -> Vec<Verdict>;
}

/// The kernel-side marshalling callback a chain walk applies to each
/// engine before invoking it: loads the graft's regions and returns
/// the argument vector (or a kernel-side failure, charged to the
/// host's failure counter, not the graft).
pub type MarshalFn<'a> = dyn FnMut(&mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError> + 'a;

/// Per-call marshalling for [`ChainDispatch::dispatch_batch`]: appends
/// call `i`'s arguments to the batch's shared argument buffer, against
/// the engine about to run it — no per-call allocation. Must be pure
/// per call (see the `dispatch_batch` contract).
pub type BatchMarshalFn<'a> =
    dyn FnMut(usize, &mut dyn ExtensionEngine, &mut Vec<i64>) -> Result<(), GraftError> + 'a;

impl ChainDispatch for ShardHandle {
    fn dispatch_chain(
        &mut self,
        point: AttachPoint,
        marshal: &mut MarshalFn<'_>,
    ) -> Verdict {
        self.dispatch(point, marshal)
    }

    fn dispatch_batch(
        &mut self,
        point: AttachPoint,
        calls: usize,
        marshal: &mut BatchMarshalFn<'_>,
    ) -> Vec<Verdict> {
        // The inherent method: fuses a single-graft, untraced chain
        // through one `invoke_batch`.
        ShardHandle::dispatch_batch(self, point, calls, |i, e, args| marshal(i, e, args))
    }
}

/// A shared single-threaded handle (`Rc<RefCell<ShardHandle>>`)
/// dispatches through a runtime borrow, so several substrate adapters
/// can take turns on one shard.
impl<T: ChainDispatch> ChainDispatch for std::rc::Rc<std::cell::RefCell<T>> {
    fn dispatch_chain(
        &mut self,
        point: AttachPoint,
        marshal: &mut MarshalFn<'_>,
    ) -> Verdict {
        self.borrow_mut().dispatch_chain(point, marshal)
    }

    fn dispatch_batch(
        &mut self,
        point: AttachPoint,
        calls: usize,
        marshal: &mut BatchMarshalFn<'_>,
    ) -> Vec<Verdict> {
        self.borrow_mut().dispatch_batch(point, calls, marshal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_api::Trap;
    use graft_api::{EntryPoint, NativeEngine, RegionSpec, RegionStore};
    use graft_api::spec::SharedNativeFactory;

    /// A forkable native engine exporting `select_victim/2` built from
    /// a shared factory (every shard gets a fresh closure instance).
    fn victim_engine_factory<F>(make: F) -> Box<dyn ExtensionEngine>
    where
        F: Fn() -> Box<dyn graft_api::NativeGraft> + Send + Sync + 'static,
    {
        let specs = [RegionSpec::data("scratch", 8)];
        let entries = [EntryPoint {
            name: "select_victim".into(),
            arity: 2,
        }];
        let factory: SharedNativeFactory = Arc::new(make);
        Box::new(NativeEngine::from_factory(&specs, &entries, factory).unwrap())
    }

    fn constant(v: i64) -> Box<dyn ExtensionEngine> {
        victim_engine_factory(move || {
            Box::new(move |_: &str, _: &[i64], _: &mut RegionStore| Ok(v))
        })
    }

    fn trapping() -> Box<dyn ExtensionEngine> {
        victim_engine_factory(|| {
            Box::new(|_: &str, _: &[i64], _: &mut RegionStore| {
                Err(Trap::DivByZero.into())
            })
        })
    }

    #[test]
    fn install_replicates_to_every_shard_and_dispatch_is_local() {
        let mut host = ShardedHost::new(4);
        let id = host
            .install(AttachPoint::VmEvict, "forty-two", constant(42))
            .unwrap();
        let mut shards = VirtualShards::new(&mut host, 7);
        for _ in 0..12 {
            assert_eq!(
                shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
                Verdict::Override(42)
            );
        }
        shards.flush_all();
        let ledger = host.ledger(id).unwrap();
        assert_eq!(ledger.invocations, 12);
        assert_eq!(host.stats().dispatches, 12);
        assert_eq!(host.stats().overrides, 12);
        // Round-robin: every shard saw exactly 3 of the 12 dispatches.
        assert_eq!(host.shard_loads(), vec![3, 3, 3, 3]);
    }

    #[test]
    fn hot_install_and_uninstall_under_dispatch() {
        let mut host = ShardedHost::new(2);
        let mut shards = VirtualShards::new(&mut host, 11);
        // Chain empty on both shards.
        assert_eq!(
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
            Verdict::Continue
        );
        // Install lands while shards keep dispatching.
        let id = host.install(AttachPoint::VmEvict, "late", constant(5)).unwrap();
        for _ in 0..4 {
            assert_eq!(
                shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
                Verdict::Override(5)
            );
        }
        assert!(host.uninstall(id));
        assert!(!host.uninstall(id));
        for _ in 0..4 {
            assert_eq!(
                shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
                Verdict::Continue
            );
        }
        shards.flush_all();
        assert_eq!(host.stats().installs, 1);
        assert_eq!(host.stats().uninstalls, 1);
    }

    #[test]
    fn readmit_probation_is_global_and_requarantines() {
        let mut host = ShardedHost::with_config(
            2,
            HostConfig {
                trap_threshold: 3,
                fuel_budget: None,
                probation_clean: 2,
                ..HostConfig::default()
            },
        );
        let id = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        let mut shards = VirtualShards::new(&mut host, 5);
        for _ in 0..3 {
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        }
        assert!(host.is_quarantined(id));
        let first_detach = host.detach_epoch(id).unwrap();
        assert!(host.readmit(id));
        assert!(!host.readmit(id), "only quarantined grafts re-admit");
        assert!(matches!(
            host.state(id),
            Some(GraftState::Probation { remaining_clean: 2 })
        ));
        // One further trap — observed by whichever shard dispatches
        // next — re-quarantines instantly, with a later detach epoch.
        shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        assert!(host.is_quarantined(id));
        assert!(host.detach_epoch(id).unwrap() > first_detach);
        shards.flush_all();
        assert_eq!(host.stats().readmits, 1);
        assert_eq!(host.stats().quarantine_trips, 2);
    }

    #[test]
    fn real_threads_smoke_concurrent_dispatch_and_detach() {
        // The non-virtual path: four OS threads dispatch concurrently
        // while a saboteur trips the supervisor on some shard; totals
        // still merge exactly and the detach is globally visible.
        let shards_n = 4;
        let per_shard = 200u64;
        let mut host = ShardedHost::new(shards_n);
        // The saboteur goes first in the chain: it declines (-1) except
        // on arg 13, where it traps; the well-behaved tenant behind it
        // serves every dispatch.
        let bad = host
            .install(
                AttachPoint::VmEvict,
                "hostile",
                victim_engine_factory(|| {
                    Box::new(|_: &str, args: &[i64], _: &mut RegionStore| {
                        if args[0] == 13 {
                            Err(Trap::DivByZero.into())
                        } else {
                            Ok(-1)
                        }
                    })
                }),
            )
            .unwrap();
        let good = host.install(AttachPoint::VmEvict, "good", constant(1)).unwrap();
        let handles = host.take_handles();
        let workers: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                std::thread::spawn(move || {
                    for i in 0..per_shard {
                        // arg 13 traps; each shard raises it a few times.
                        let arg = (i % 20) as i64;
                        h.dispatch(AttachPoint::VmEvict, |_| Ok(vec![arg, 0]));
                    }
                    // handle drops here → flush
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert!(host.is_quarantined(bad));
        let bad_ledger = host.ledger(bad).unwrap();
        // At least the three strikes landed; after the detach became
        // visible no shard invoked it again (visibility is immediate in
        // program order per shard, so the count is bounded by one
        // in-flight invocation per shard).
        assert!(bad_ledger.traps >= 3);
        assert!(bad_ledger.traps <= 3 + shards_n as u64);
        // Before detach the saboteur also declined a lot; every one of
        // those invocations was accounted.
        assert!(bad_ledger.invocations >= bad_ledger.traps);
        assert!(bad_ledger.invocations <= shards_n as u64 * per_shard);
        assert_eq!(host.stats().dispatches, shards_n as u64 * per_shard);
        assert_eq!(host.stats().quarantine_trips, 1);
        // The well-behaved tenant served every dispatch.
        assert_eq!(
            host.ledger(good).unwrap().invocations,
            shards_n as u64 * per_shard
        );
        let loads = host.shard_loads();
        assert_eq!(loads, vec![per_shard; shards_n]);
    }

    #[test]
    fn install_fails_atomically_when_fork_is_refused() {
        let mut host = ShardedHost::new(2);
        // NativeEngine::with_entries has no factory → fork refuses.
        let specs = [RegionSpec::data("scratch", 8)];
        let entries = [EntryPoint {
            name: "select_victim".into(),
            arity: 2,
        }];
        let engine: Box<dyn ExtensionEngine> = Box::new(
            NativeEngine::with_entries(
                &specs,
                &entries,
                Box::new(|_: &str, _: &[i64], _: &mut RegionStore| Ok(0)),
            )
            .unwrap(),
        );
        let err = host.install(AttachPoint::VmEvict, "unforkable", engine);
        assert!(matches!(err, Err(GraftError::Unavailable { .. })));
        let mut shards = VirtualShards::new(&mut host, 1);
        assert_eq!(shards.shard_mut(0).active_len(AttachPoint::VmEvict), 0);
        assert_eq!(shards.shard_mut(1).active_len(AttachPoint::VmEvict), 0);
        assert_eq!(host.stats().installs, 0);
    }

    #[test]
    fn one_shard_host_matches_single_host_semantics_without_forking() {
        // shards=1 never calls fork_for_shard, so even a factory-less
        // engine installs: the single-threaded host takes any engine.
        let specs = [RegionSpec::data("scratch", 8)];
        let entries = [EntryPoint {
            name: "select_victim".into(),
            arity: 2,
        }];
        let engine: Box<dyn ExtensionEngine> = Box::new(
            NativeEngine::with_entries(
                &specs,
                &entries,
                Box::new(|_: &str, _: &[i64], _: &mut RegionStore| Ok(7)),
            )
            .unwrap(),
        );
        let mut host = ShardedHost::new(1);
        host.install(AttachPoint::VmEvict, "scalar", engine).unwrap();
        let mut shards = VirtualShards::new(&mut host, 0);
        assert_eq!(
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
            Verdict::Override(7)
        );
    }

    #[test]
    fn winning_detach_shard_salvages_its_replica() {
        let mut host = ShardedHost::new(4);
        // Every replica writes its call count into scratch[0], then
        // traps on call 3: whichever shard wins the detach salvages a
        // scratch holding that shard's last pre-trap state (2).
        let bad = host
            .install_with_salvage(
                AttachPoint::VmEvict,
                "stateful",
                victim_engine_factory(|| {
                    let mut calls = 0i64;
                    Box::new(move |_: &str, _: &[i64], regions: &mut RegionStore| {
                        calls += 1;
                        let id = regions.id("scratch").unwrap();
                        regions.write_id(id, 0, calls)?;
                        if calls >= 3 {
                            Err(Trap::DivByZero.into())
                        } else {
                            Ok(-1)
                        }
                    })
                }),
                &["scratch"],
            )
            .unwrap();
        host.install(AttachPoint::VmEvict, "good", constant(1)).unwrap();
        let mut shards = VirtualShards::new(&mut host, 17);
        // Each replica needs 3 calls to reach its first trap; traps
        // accumulate globally, 3 strikes detach.
        for _ in 0..64 {
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
            if host.is_quarantined(bad) {
                break;
            }
        }
        assert!(host.is_quarantined(bad));
        shards.flush_all();
        let s = host.take_salvage(bad).expect("winner salvaged");
        assert_eq!(s.graft, "stateful");
        // The winning shard's replica trapped on its own call 3, after
        // writing 3 into scratch[0] (region writes land before the
        // trap decision in this native graft).
        assert_eq!(s.region("scratch").unwrap()[0], 3);
        assert!(host.take_salvage(bad).is_none(), "taken once");
        assert_eq!(host.stats().salvages, 1);
        // Unknown salvage regions fail the install atomically.
        let err = host.install_with_salvage(
            AttachPoint::VmEvict,
            "typo",
            constant(2),
            &["missing"],
        );
        assert!(err.is_err());
    }

    #[test]
    fn virtual_scheduler_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<usize> {
            let mut host = ShardedHost::new(4);
            let mut shards = VirtualShards::new(&mut host, seed);
            (0..16).map(|_| shards.next_shard().shard()).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same interleaving");
        assert_ne!(run(42), run(43), "different seed explores differently");
        // Every round visits each shard exactly once.
        let order = run(9);
        for round in order.chunks(4) {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    /// An engine echoing its first argument (negative = Continue,
    /// non-negative = Override at eviction points), so batch verdicts
    /// can be scripted per call.
    fn echo() -> Box<dyn ExtensionEngine> {
        victim_engine_factory(|| {
            Box::new(|_: &str, args: &[i64], _: &mut RegionStore| Ok(args[0]))
        })
    }

    /// A metered Safe-compiled engine: `select_victim(a, b)` loops `b`
    /// times (so each call burns its own fuel) and echoes `a`; `b == 0`
    /// divides by zero and `b < 0` spins until the meter preempts it.
    fn safe_echo() -> Box<dyn ExtensionEngine> {
        let src = r#"
            fn select_victim(a: int, b: int) -> int {
                if b == 0 { return a / b; }
                if b < 0 { let i = 0; while true { i = i + 1; } return i; }
                let j = 0;
                while j < b { j = j + 1; }
                return a;
            }
        "#;
        let mode = engine_native::SafetyMode::Safe { nil_checks: true };
        Box::new(engine_native::load_grail(src, &[], mode).unwrap())
    }

    /// Runs `args` at `VmEvict` on shard 0 of a fresh 2-shard host
    /// holding one graft from `engine`, as one batch or as per-call
    /// dispatches, and returns the verdicts, the dispatch-path stats,
    /// the whole ledger but `cum_ns` (the one wall-clock field), and
    /// whether the graft ended quarantined.
    fn run_calls(
        engine: fn() -> Box<dyn ExtensionEngine>,
        config: HostConfig,
        args: &[[i64; 2]],
        batched: bool,
    ) -> (Vec<Verdict>, HostStats, GraftLedger, bool) {
        let mut host = ShardedHost::with_config(2, config);
        let id = host.install(AttachPoint::VmEvict, "echo", engine()).unwrap();
        let mut vs = VirtualShards::new(&mut host, 5);
        let h = vs.shard_mut(0);
        let verdicts: Vec<Verdict> = if batched {
            h.dispatch_batch(AttachPoint::VmEvict, args.len(), |i, _, buf| {
                buf.extend_from_slice(&args[i]);
                Ok(())
            })
        } else {
            args.iter().map(|a| h.dispatch(AttachPoint::VmEvict, |_| Ok(a.to_vec()))).collect()
        };
        vs.flush_all();
        let mut stats = host.stats();
        stats.installs = 0; // control-plane, not dispatch-path
        let ledger = GraftLedger {
            cum_ns: 0,
            ..host.ledger(id).unwrap()
        };
        (verdicts, stats, ledger, host.is_quarantined(id))
    }

    #[test]
    fn fused_batch_matches_per_call_dispatch_exactly() {
        // Same calls through the fused invoke_batch path and through a
        // per-call dispatch loop: identical verdicts, stats, and whole
        // ledgers (fuel and trap counts included), for an unmetered
        // native engine and a fuel-metered Safe-compiled one — both
        // fuse on a single-graft, untraced chain.
        let args: Vec<[i64; 2]> =
            (0..13).map(|i| [if i % 3 == 0 { i } else { -1 }, 1 + i % 4]).collect();
        for engine in [echo, safe_echo] {
            let fused = run_calls(engine, HostConfig::default(), &args, true);
            let per_call = run_calls(engine, HostConfig::default(), &args, false);
            assert_eq!(fused, per_call, "fused batch diverges from per-call dispatch");
            assert_eq!(fused.0[0], Verdict::Override(0));
            assert_eq!(fused.0[1], Verdict::Continue);
            assert_eq!(fused.2.invocations, 13);
        }
        // The metered engine's fuel is each call's own, summed.
        let (_, _, ledger, _) = run_calls(safe_echo, HostConfig::default(), &args, true);
        assert!(ledger.fuel_used > 0, "a metered batch charged no fuel");
        let (_, _, ledger, _) = run_calls(echo, HostConfig::default(), &args, true);
        assert_eq!(ledger.fuel_used, 0);
    }

    #[test]
    fn runaway_call_in_a_fused_batch_is_charged_once_with_its_fuel() {
        // Call 3 of 8 spins until the meter preempts it: the fused path
        // charges it once, with the whole budget, and `FuelExhausted`
        // detaches at once; calls 4-8 dispatch per call against the
        // detached chain and charge nothing. Per-call dispatch ends in
        // exactly the same books.
        let config = HostConfig {
            fuel_budget: Some(50_000),
            ..HostConfig::default()
        };
        let args: Vec<[i64; 2]> = (0..8).map(|i| [-1, if i == 3 { -1 } else { 2 }]).collect();
        let fused = run_calls(safe_echo, config, &args, true);
        assert_eq!(fused, run_calls(safe_echo, config, &args, false));
        let (verdicts, stats, ledger, quarantined) = fused;
        assert_eq!(verdicts, vec![Verdict::Continue; 8]);
        assert!(quarantined, "a fuel trap did not detach");
        assert_eq!(ledger.invocations, 4);
        assert_eq!(ledger.traps, 1);
        assert_eq!(ledger.trap_counts.get(TrapKind::FuelExhausted), 1);
        assert!(ledger.fuel_used >= 50_000, "the runaway's fuel went uncharged");
        assert_eq!((stats.dispatches, stats.defaults, stats.quarantine_trips), (8, 8, 1));

        // Three div-by-zero calls in one batch: the first is charged by
        // the fused path, the rest by per-call dispatch, and the third
        // strike detaches, exactly as back-to-back dispatches would.
        let args: Vec<[i64; 2]> =
            (0..10).map(|i| [-1, if matches!(i, 2 | 5 | 7) { 0 } else { 3 }]).collect();
        let fused = run_calls(safe_echo, config, &args, true);
        assert_eq!(fused, run_calls(safe_echo, config, &args, false));
        let (_, stats, ledger, quarantined) = fused;
        assert!(quarantined, "three strikes did not detach");
        assert_eq!(ledger.invocations, 8);
        assert_eq!(ledger.trap_counts.get(TrapKind::DivByZero), 3);
        assert_eq!((stats.dispatches, stats.traps, stats.quarantine_trips), (10, 3, 1));
    }

    #[test]
    fn mid_batch_trap_strikes_exactly_once_and_detaches() {
        let mut host = ShardedHost::new(2);
        let bad = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        let mut vs = VirtualShards::new(&mut host, 3);
        // An 8-call batch against an always-trapping graft: the fused
        // path charges the first trap once, then degrades to per-call
        // dispatch — strikes 2 and 3 detach, calls 4-8 run against the
        // detached chain and charge nothing.
        let verdicts = vs
            .shard_mut(0)
            .dispatch_batch(AttachPoint::VmEvict, 8, |_, _, args| {
                args.extend_from_slice(&[0, 0]);
                Ok(())
            });
        assert_eq!(verdicts, vec![Verdict::Continue; 8]);
        assert!(host.is_quarantined(bad), "three strikes did not detach");
        vs.flush_all();
        let ledger = host.ledger(bad).unwrap();
        assert_eq!(ledger.traps, 3, "a mid-batch strike was double-counted");
        assert_eq!(ledger.invocations, 3);
        let stats = host.stats();
        assert_eq!(stats.dispatches, 8);
        assert_eq!(stats.defaults, 8);
        assert_eq!(stats.quarantine_trips, 1);
    }

    #[test]
    fn drain_queue_runs_every_item_once_and_marks_warm() {
        let mut host = ShardedHost::new(4);
        let id = host.install(AttachPoint::VmEvict, "decline", constant(-1)).unwrap();
        let q: RunQueues<Vec<i64>> = host.run_queues(StealPolicy::default());
        let n = 300u64;
        for k in 0..n {
            host.enqueue(&q, k, Some(id), vec![k as i64, 0]).expect("room");
        }
        assert_eq!(q.stats().enqueued, n);
        let mut vs = VirtualShards::new(&mut host, 42);
        let ran = vs.drain_queue_to_empty(&q, AttachPoint::VmEvict, |p, args| {
            args.extend_from_slice(p)
        });
        assert_eq!(ran as u64, n, "items lost or double-run");
        vs.flush_all();
        assert_eq!(host.ledger(id).unwrap().invocations, n);
        assert_eq!(host.stats().dispatches, n);
        // Every shard that executed work went warm for the graft.
        let st = q.stats();
        assert!(st.batches > 0);
        assert!((0..4).any(|s| q.is_warm(s, id.0)));
        // Adaptive widths realized: more items than batches.
        assert!(st.batched_items / st.batches >= 1);
    }

    #[test]
    fn drain_queue_replays_identically_from_the_same_seed() {
        let run = |seed: u64| -> (Vec<(usize, u64)>, u64, u64) {
            let mut host = ShardedHost::new(4);
            let id = host.install(AttachPoint::VmEvict, "decline", constant(-1)).unwrap();
            let q: RunQueues<u64> = host.run_queues(StealPolicy::default());
            for k in 0..200u64 {
                host.enqueue(&q, k % 7, Some(id), k).expect("room");
            }
            let mut vs = VirtualShards::new(&mut host, seed);
            let mut order = Vec::new();
            while q.total_depth() > 0 {
                let h = vs.next_shard();
                let s = h.shard();
                h.drain_queue_with(&q, AttachPoint::VmEvict, |&k, args| args.extend_from_slice(&[k as i64, 0]), |w, _| {
                    order.push((s, w.payload));
                });
            }
            let st = q.stats();
            (order, st.steals, st.diverted)
        };
        assert_eq!(run(7), run(7), "same seed, same steal schedule");
        let (order, steals, _) = run(7);
        assert_eq!(order.len(), 200);
        assert!(steals > 0, "a 7-hot-key trace on 4 shards must steal");
    }

    /// The single-threaded host: a 1-shard host and its one handle.
    fn one_shard() -> (ShardedHost, ShardHandle) {
        let mut host = ShardedHost::new(1);
        let handle = host.take_handle(0).expect("fresh host");
        (host, handle)
    }

    fn dispatch_once(h: &mut ShardHandle) -> Verdict {
        h.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]))
    }

    #[test]
    fn first_override_wins_in_chain_order() {
        let (host, mut h) = one_shard();
        let a = host.install(AttachPoint::VmEvict, "decline", constant(-1)).unwrap();
        let b = host.install(AttachPoint::VmEvict, "forty-two", constant(42)).unwrap();
        let c = host.install(AttachPoint::VmEvict, "seven", constant(7)).unwrap();
        assert_eq!(h.chain(AttachPoint::VmEvict), vec![a, b, c]);
        assert_eq!(dispatch_once(&mut h), Verdict::Override(42));
        // The decliner was consulted, the shadowed graft was not.
        assert_eq!(h.local_ledger(a).unwrap().invocations, 1);
        assert_eq!(h.local_ledger(b).unwrap().invocations, 1);
        assert_eq!(h.local_ledger(c).unwrap().invocations, 0);
        assert_eq!(h.stats().overrides, 1);
        assert_eq!(h.stats().continues, 1);
    }

    #[test]
    fn install_front_shadows_and_uninstall_restores() {
        let (host, mut h) = one_shard();
        let back = host.install(AttachPoint::VmEvict, "back", constant(1)).unwrap();
        let front = host.install_front(AttachPoint::VmEvict, "front", constant(2)).unwrap();
        assert_eq!(h.chain(AttachPoint::VmEvict), vec![front, back]);
        assert_eq!(dispatch_once(&mut h), Verdict::Override(2));
        assert!(host.uninstall(front));
        assert!(!host.uninstall(front));
        assert_eq!(dispatch_once(&mut h), Verdict::Override(1));
    }

    #[test]
    fn chains_are_per_attach_point() {
        let (host, mut h) = one_shard();
        assert_eq!(dispatch_once(&mut h), Verdict::Continue, "empty chain");
        host.install(AttachPoint::VmEvict, "evict", constant(1)).unwrap();
        assert_eq!(h.active_len(AttachPoint::VmEvict), 1);
        assert_eq!(h.active_len(AttachPoint::SchedPick), 0);
        assert_eq!(
            h.dispatch(AttachPoint::SchedPick, |_| Ok(vec![1])),
            Verdict::Continue
        );
        assert_eq!(h.stats().defaults, 2);
    }

    #[test]
    fn install_rejects_missing_entry_at_bind_time() {
        let (host, mut h) = one_shard();
        let entries = [EntryPoint {
            name: "something_else".into(),
            arity: 0,
        }];
        let engine: Box<dyn ExtensionEngine> = Box::new(
            NativeEngine::with_entries(
                &[RegionSpec::data("scratch", 8)],
                &entries,
                Box::new(|_: &str, _: &[i64], _: &mut RegionStore| Ok(0)),
            )
            .unwrap(),
        );
        let err = host.install(AttachPoint::VmEvict, "bad", engine);
        assert!(err.is_err(), "binding select_victim must fail");
        assert_eq!(h.active_len(AttachPoint::VmEvict), 0);
        assert_eq!(host.stats().installs, 0);
    }

    #[test]
    fn marshal_failure_skips_tenant_without_charging_it() {
        let (host, mut h) = one_shard();
        let a = host.install(AttachPoint::VmEvict, "a", constant(3)).unwrap();
        let verdict = h.dispatch(AttachPoint::VmEvict, |_| {
            Err(GraftError::UpcallFailed("dead transport".into()))
        });
        assert_eq!(verdict, Verdict::Continue);
        assert_eq!(h.local_ledger(a).unwrap().invocations, 0);
        assert_eq!(h.stats().marshal_failures, 1);
        assert_eq!(h.stats().invocations, 0);
    }

    #[test]
    fn probation_walks_back_to_active_after_clean_calls() {
        let (host, mut h) = one_shard();
        // Traps on its first three calls, then behaves.
        let id = host
            .install(
                AttachPoint::VmEvict,
                "flaky",
                victim_engine_factory(|| {
                    let mut calls = 0;
                    Box::new(move |_: &str, _: &[i64], _: &mut RegionStore| {
                        calls += 1;
                        if calls <= 3 {
                            Err(Trap::DivByZero.into())
                        } else {
                            Ok(5)
                        }
                    })
                }),
            )
            .unwrap();
        for _ in 0..3 {
            dispatch_once(&mut h);
        }
        assert!(host.is_quarantined(id));
        assert!(!host.readmit(GraftId(999)), "unknown id");
        assert!(host.readmit(id));
        assert_eq!(
            host.state(id),
            Some(GraftState::Probation { remaining_clean: 8 })
        );
        for _ in 0..8 {
            assert_eq!(dispatch_once(&mut h), Verdict::Override(5));
        }
        assert_eq!(host.state(id), Some(GraftState::Active));
    }

    #[test]
    fn salvage_now_checkpoints_without_detaching() {
        let (host, mut h) = one_shard();
        let writer = || {
            victim_engine_factory(|| {
                Box::new(|_: &str, _: &[i64], regions: &mut RegionStore| {
                    let id = regions.id("scratch").unwrap();
                    regions.write_id(id, 1, 7)?;
                    Ok(-1)
                })
            })
        };
        let plain = host.install(AttachPoint::VmEvict, "plain", writer()).unwrap();
        let id = host
            .install_with_salvage(AttachPoint::VmEvict, "live", writer(), &["scratch"])
            .unwrap();
        dispatch_once(&mut h);
        assert!(h.salvage_now(plain).is_none(), "no plan, no checkpoint");
        assert!(h.salvage_now(GraftId(999)).is_none(), "unknown graft");
        let s = h.salvage_now(id).unwrap();
        assert_eq!(s.region("scratch").unwrap()[1], 7);
        assert_eq!(host.state(id), Some(GraftState::Active));
        assert_eq!(h.stats().salvages, 1);
        assert_eq!(h.stats().salvaged_words, 8);
    }

    #[test]
    fn backoff_disabled_by_default_keeps_detach_final() {
        let (host, mut h) = one_shard();
        let id = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        for _ in 0..203 {
            dispatch_once(&mut h);
        }
        assert!(host.is_quarantined(id), "no ladder unless configured");
        assert_eq!(h.stats().auto_readmits, 0);
        assert_eq!(host.ledger(id).unwrap().invocations, 3);
    }

    fn counter(name: &str) -> u64 {
        graft_telemetry::snapshot().counter(name)
    }

    #[test]
    fn flush_is_idempotent_and_survives_mem_forget() {
        // A leaked host (`std::mem::forget`, an `Rc` cycle) never runs
        // `Drop`, so only an explicit `flush()` gets its install,
        // uninstall and readmit counts out; a later flush or drop
        // publishes only the delta, never double-counting.
        let (installs, dispatches) = (counter("kernel.installs"), counter("kernel.dispatches"));
        let (mut host, mut h) = one_shard();
        host.install(AttachPoint::VmEvict, "c", constant(4)).unwrap();
        for _ in 0..5 {
            dispatch_once(&mut h);
        }
        h.flush();
        host.flush();
        // Everything accumulated so far is now published: the pending
        // delta is zero, so a second flush (or Drop) adds nothing.
        assert_eq!(host.stats().delta_since(&host.published), HostStats::default());
        host.flush();
        assert_eq!(host.published.installs, 1);
        assert_eq!(host.published.dispatches, 5);
        // Leak both halves. Without the explicit flushes above these
        // counts would never reach telemetry.
        std::mem::forget(h);
        std::mem::forget(host);
        if graft_telemetry::enabled() {
            // Other tests run in parallel and also publish, so the
            // global counters are only monotonically bounded below.
            assert!(counter("kernel.installs") > installs, "install count lost");
            assert!(counter("kernel.dispatches") >= dispatches + 5, "dispatch counts lost");
        }
    }

    #[test]
    fn drop_during_panic_unwind_publishes_counts() {
        let (installs, dispatches) = (counter("kernel.installs"), counter("kernel.dispatches"));
        let result = std::panic::catch_unwind(|| {
            let (host, mut h) = one_shard();
            host.install(AttachPoint::VmEvict, "c", constant(4)).unwrap();
            for _ in 0..7 {
                dispatch_once(&mut h);
            }
            // The eighth dispatch faults in kernel-side marshalling
            // code; both halves unwind and their Drop impls must still
            // publish all eight dispatches and the install.
            h.dispatch(AttachPoint::VmEvict, |_| -> Result<Vec<i64>, GraftError> {
                panic!("marshal bug")
            });
        });
        assert!(result.is_err(), "the marshal closure must have panicked");
        if graft_telemetry::enabled() {
            assert!(counter("kernel.installs") > installs, "install lost on unwind");
            assert!(counter("kernel.dispatches") >= dispatches + 8, "dispatches lost on unwind");
        }
    }
}
