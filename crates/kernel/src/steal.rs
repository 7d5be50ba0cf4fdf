//! Adaptive sharded dispatch: bounded per-shard run queues with work
//! stealing and graft-affinity placement.
//!
//! [`ShardedHost`](crate::shard::ShardedHost)'s original data plane is
//! statically keyed: whoever drives the shards decides where each
//! dispatch lands, and under the 80/20-skewed workloads that dominate
//! the paper's tables a hash-of-key placement hot-spots one shard
//! (`kernel.shard.imbalance_pct` warns at >= 20%). [`RunQueues`] is the
//! refactored plane: submitters hash work to a *home* shard's bounded
//! queue, and shards pull adaptively sized batches from their own queue
//! — stealing from the deepest victim when theirs runs dry. Placement
//! and theft both prefer shards that are *warm* for the work item's
//! graft (their replica has served it before, so its salvaged /
//! steady-state region writes are resident there — the post-recovery
//! affinity argument), mirroring how per-CPU extension runtimes get
//! their multi-core wins from load-aware placement rather than static
//! partitioning.
//!
//! Three properties make the queues safe to put under the quarantine
//! supervisor:
//!
//! * **Determinism.** Every placement and steal decision is a pure
//!   function of queue contents and the warm set — no clocks, no
//!   randomness — so a seeded [`VirtualShards`] drive replays the exact
//!   same interleaving (the property harness in
//!   `tests/shard_properties.rs` depends on this).
//! * **Epoch-checked handoff.** A submitter stamps each [`WorkItem`]
//!   with the host epoch it observed; the executing shard syncs
//!   membership *before* dispatching a drained batch, so a stolen item
//!   never runs against a staler chain than its submitter saw.
//! * **Exactly-once accounting.** An item is owned by exactly one queue
//!   slot and drained exactly once (pop under the queue mutex), so a
//!   stolen dispatch still counts toward ledgers and the 3-strike
//!   supervisor exactly once, on the shard that executed it.
//!
//! [`VirtualShards`]: crate::shard::VirtualShards

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`RunQueues`] plane.
#[derive(Debug, Clone, Copy)]
pub struct StealPolicy {
    /// Bounded depth of each shard's queue; a full home queue diverts
    /// (stealing on) or pushes back on the submitter (stealing off).
    pub queue_cap: usize,
    /// Most items one steal transfers from a victim's back end. Kept
    /// equal to [`batch_max`] by default: a thief that could only grab
    /// half a batch would systematically fall behind the hot shard's
    /// own full-width drains, re-skewing the very load stealing exists
    /// to flatten.
    ///
    /// [`batch_max`]: StealPolicy::batch_max
    pub steal_batch: usize,
    /// Ceiling on the adaptive take: a shard never executes more than
    /// this many items per drain, however deep its queue grows.
    pub batch_max: usize,
    /// Work stealing + divert-on-full placement. Off = the static
    /// plane: pure hash placement with backpressure, for A/B pricing.
    pub stealing: bool,
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            queue_cap: 256,
            steal_batch: 32,
            batch_max: 32,
            stealing: true,
        }
    }
}

impl StealPolicy {
    /// The static (no-steal) plane with the same bounds.
    pub fn static_plane() -> Self {
        StealPolicy {
            stealing: false,
            ..StealPolicy::default()
        }
    }
}

/// One queued dispatch: a placement key, the graft it targets (0 =
/// none/unknown — no affinity), the submitter's observed host epoch,
/// and an opaque payload the executor marshals into arguments.
#[derive(Debug, Clone)]
pub struct WorkItem<T> {
    /// Placement key (hashed to the home shard).
    pub key: u64,
    /// Raw graft id for affinity (0 when the work targets a whole
    /// chain rather than one graft, or affinity is unwanted).
    pub graft: u64,
    /// Host epoch observed by the submitter; the executing shard syncs
    /// to at least this epoch before dispatching the item.
    pub epoch: u64,
    /// Marshalling payload, interpreted by the drain callback.
    pub payload: T,
}

/// Counters for one plane's lifetime, published as `kernel.shard.*`.
#[derive(Debug, Default)]
struct QueueCounters {
    enqueued: AtomicU64,
    diverted: AtomicU64,
    steals: AtomicU64,
    steal_fail: AtomicU64,
    batches: AtomicU64,
    batched_items: AtomicU64,
}

/// A read-only snapshot of a plane's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items pushed onto the plane (`submit` or `push_staged`).
    pub enqueued: u64,
    /// Items placed away from their home shard (home queue full).
    pub diverted: u64,
    /// Items transferred by steals.
    pub steals: u64,
    /// Drains that found every queue empty (failed steal attempts).
    pub steal_fail: u64,
    /// Batches handed out by `take`.
    pub batches: u64,
    /// Items handed out by `take` (`batched_items / batches` is the
    /// realized adaptive batch width).
    pub batched_items: u64,
}

struct ShardQueue<T> {
    items: Mutex<VecDeque<WorkItem<T>>>,
    /// Mirror of `items.len()`, readable without the lock for victim
    /// selection and load probes.
    depth: AtomicUsize,
    /// Set while an executor of this shard is parked in `idle_wait`.
    asleep: AtomicBool,
    /// The thread that last parked on this shard; a push unparks it.
    sleeper: Mutex<Option<Thread>>,
}

impl<T> Default for ShardQueue<T> {
    fn default() -> Self {
        ShardQueue {
            items: Mutex::new(VecDeque::new()),
            depth: AtomicUsize::new(0),
            asleep: AtomicBool::new(false),
            sleeper: Mutex::new(None),
        }
    }
}

/// Work placed on a plane but not yet pushed: one run per shard. A
/// submitter stages a pass's items with [`RunQueues::stage`] and hands
/// each run over with one [`RunQueues::push_staged`], so the queue
/// lock, depth store and counters are paid per run, not per item.
pub struct Staged<T> {
    runs: Vec<Vec<WorkItem<T>>>,
}

struct Inner<T> {
    policy: StealPolicy,
    queues: Vec<ShardQueue<T>>,
    /// Per-shard 64-bit warm set: bit `hash(graft) % 64` is set once
    /// the shard's replica has executed that graft. Approximate (hash
    /// collisions only ever *add* affinity), monotone, lock-free.
    warm: Vec<AtomicU64>,
    counters: QueueCounters,
}

/// The adaptive data plane: one bounded run queue per shard, shared by
/// submitters and executors. Cheaply cloneable (an `Arc` handle); all
/// methods take `&self`, so any thread may submit while shard threads
/// drain.
pub struct RunQueues<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for RunQueues<T> {
    fn clone(&self) -> Self {
        RunQueues {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// SplitMix64: the placement hash (also used to pick a graft's warm
/// bit). Avalanches well enough that adjacent keys land on different
/// shards.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn warm_bit(graft: u64) -> u64 {
    1u64 << (mix(graft) & 63)
}

impl<T> RunQueues<T> {
    /// A plane with one bounded queue per shard.
    pub fn new(shards: usize, policy: StealPolicy) -> Self {
        assert!(shards > 0, "a run-queue plane needs at least one shard");
        assert!(policy.queue_cap > 0, "queue_cap must be positive");
        RunQueues {
            inner: Arc::new(Inner {
                policy,
                queues: (0..shards).map(|_| ShardQueue::default()).collect(),
                warm: (0..shards).map(|_| AtomicU64::new(0)).collect(),
                counters: QueueCounters::default(),
            }),
        }
    }

    /// Number of shard queues.
    pub fn shards(&self) -> usize {
        self.inner.queues.len()
    }

    /// The plane's tuning knobs.
    pub fn policy(&self) -> StealPolicy {
        self.inner.policy
    }

    /// The home shard a key hashes to.
    pub fn home(&self, key: u64) -> usize {
        (mix(key) % self.inner.queues.len() as u64) as usize
    }

    /// Current depth of one shard's queue (racy probe).
    pub fn depth(&self, shard: usize) -> usize {
        self.inner.queues[shard].depth.load(Ordering::Acquire)
    }

    /// Total queued items across all shards (racy probe).
    pub fn total_depth(&self) -> usize {
        self.inner
            .queues
            .iter()
            .map(|q| q.depth.load(Ordering::Acquire))
            .sum()
    }

    /// Marks `shard`'s replica warm for `graft`: placement and theft
    /// will prefer it for that graft's future work. Executors call this
    /// as they dispatch.
    pub fn mark_warm(&self, shard: usize, graft: u64) {
        if graft != 0 {
            self.inner.warm[shard].fetch_or(warm_bit(graft), Ordering::AcqRel);
        }
    }

    /// Whether `shard` is warm for `graft`.
    pub fn is_warm(&self, shard: usize, graft: u64) -> bool {
        graft != 0 && self.inner.warm[shard].load(Ordering::Acquire) & warm_bit(graft) != 0
    }

    /// Where an item keyed `key` for `graft` goes, given `staged(s)`
    /// items already placed on shard `s` but not yet pushed: its home
    /// shard while `depth + staged` there is under capacity. When the
    /// home is full: with stealing on, the item is *diverted* to the
    /// least-loaded shard that is warm for its graft (least-loaded
    /// overall when none is), which is what flattens a skewed key
    /// distribution at submit time; with stealing off — the static
    /// plane — or with every queue at capacity, `None` (backpressure).
    /// Otherwise `Some((shard, diverted))`.
    fn place(
        &self,
        key: u64,
        graft: u64,
        staged: impl Fn(usize) -> usize,
    ) -> Option<(usize, bool)> {
        let cap = self.inner.policy.queue_cap;
        let load = |s: usize| self.depth(s) + staged(s);
        let home = self.home(key);
        if load(home) < cap {
            return Some((home, false));
        }
        if !self.inner.policy.stealing {
            return None;
        }
        // Ties break to the lowest index, so the choice is
        // deterministic given the queue depths.
        let pick = |warm_only: bool| -> Option<usize> {
            (0..self.inner.queues.len())
                .filter(|&s| s != home && (!warm_only || self.is_warm(s, graft)))
                .map(|s| (load(s), s))
                .filter(|&(d, _)| d < cap)
                .min()
                .map(|(_, s)| s)
        };
        pick(true).or_else(|| pick(false)).map(|s| (s, true))
    }

    /// Submits one item: the one-item case of [`stage`] followed by
    /// [`push_staged`]. `Ok` carries the shard the item landed on; `Err`
    /// hands it back on backpressure (never silent loss), and the
    /// submitter must drain before retrying.
    ///
    /// [`stage`]: RunQueues::stage
    /// [`push_staged`]: RunQueues::push_staged
    pub fn submit(&self, item: WorkItem<T>) -> Result<usize, WorkItem<T>> {
        let Some((shard, diverted)) = self.place(item.key, item.graft, |_| 0) else {
            return Err(item);
        };
        // A second submitter can fill the queue between the probe and
        // the push; report backpressure rather than looping.
        self.push(shard, std::iter::once(item))
            .map_err(|mut back| back.next().expect("the refused item"))?;
        self.note_divert(diverted);
        Ok(shard)
    }

    /// An empty staging area for this plane: one run per shard.
    pub fn staging(&self) -> Staged<T> {
        Staged {
            runs: (0..self.inner.queues.len()).map(|_| Vec::new()).collect(),
        }
    }

    /// Places `item` as [`submit`](RunQueues::submit) would, counting
    /// `staged`'s runs as already queued, and appends it to its shard's
    /// run. Nothing reaches the plane until
    /// [`push_staged`](RunQueues::push_staged); `Err` is the same
    /// backpressure `submit` reports.
    pub fn stage(&self, staged: &mut Staged<T>, item: WorkItem<T>) -> Result<usize, WorkItem<T>> {
        let Some((shard, diverted)) = self.place(item.key, item.graft, |s| staged.runs[s].len())
        else {
            return Err(item);
        };
        staged.runs[shard].push(item);
        // Counted at placement: a staged item is always pushed.
        self.note_divert(diverted);
        Ok(shard)
    }

    /// Hands every staged run to its shard: one lock, one depth store
    /// and one counter add per shard with work, in staging order, and a
    /// wake for that shard's parked executor. `staged` is left empty,
    /// its buffers kept for the next pass.
    ///
    /// Panics if a run no longer fits. Placement counted every staged
    /// item against its queue's capacity and executors only shrink
    /// queues, so a run can only overflow when a second thread submitted
    /// to the plane between `stage` and this push.
    pub fn push_staged(&self, staged: &mut Staged<T>) {
        for (shard, run) in staged.runs.iter_mut().enumerate() {
            if run.is_empty() {
                continue;
            }
            if self.push(shard, run.drain(..)).is_err() {
                panic!("a staged run overflowed shard {shard}: the plane has a second submitter");
            }
        }
    }

    /// Appends `run` to `shard`'s queue under one lock, unless it would
    /// overfill the queue (the run comes back untouched in `Err`), then
    /// wakes the shard's executor if it is parked in
    /// [`idle_wait`](RunQueues::idle_wait). With stealing on, a push
    /// that leaves more than one item queued also wakes one parked
    /// executor of another shard, which steals from the backlog as a
    /// spinning one would.
    fn push<I: ExactSizeIterator<Item = WorkItem<T>>>(
        &self,
        shard: usize,
        run: I,
    ) -> Result<(), I> {
        let q = &self.inner.queues[shard];
        let n = run.len() as u64;
        let depth = {
            let mut items = q.items.lock().expect("queue lock");
            if items.len() + run.len() > self.inner.policy.queue_cap {
                return Err(run);
            }
            items.extend(run);
            q.depth.store(items.len(), Ordering::Release);
            items.len()
        };
        self.inner.counters.enqueued.fetch_add(n, Ordering::Relaxed);
        // Pairs with the fence in `park`: either the executor's last
        // probe saw this push, or this load sees it asleep.
        fence(Ordering::SeqCst);
        self.wake(shard);
        if self.inner.policy.stealing && depth > 1 {
            let asleep =
                |s: &usize| *s != shard && self.inner.queues[*s].asleep.load(Ordering::Relaxed);
            if let Some(thief) = (0..self.inner.queues.len()).find(asleep) {
                self.wake(thief);
            }
        }
        Ok(())
    }

    /// Unparks `shard`'s executor if it is parked.
    fn wake(&self, shard: usize) {
        let q = &self.inner.queues[shard];
        if q.asleep.load(Ordering::Relaxed) {
            if let Some(t) = q.sleeper.lock().expect("sleeper lock").as_ref() {
                t.unpark();
            }
        }
    }

    fn note_divert(&self, diverted: bool) {
        if diverted {
            self.inner.counters.diverted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether `shard`'s executor has anything to take: its own queue,
    /// or with stealing on, any queue. Lock-free and write-free.
    pub fn has_work(&self, shard: usize) -> bool {
        if self.inner.policy.stealing {
            self.total_depth() > 0
        } else {
            self.depth(shard) > 0
        }
    }

    /// Waits on the calling thread until `shard`'s executor may have
    /// work: spins on [`has_work`](RunQueues::has_work) (`pause`, no
    /// lock, no counter write) for `spin`, then parks until a push
    /// lands on `shard` or another thread unparks this one. Returns
    /// whether it parked. A return does not promise work; callers loop.
    pub fn idle_wait(&self, shard: usize, spin: Duration) -> bool {
        let start = Instant::now();
        let mut probes = 0u32;
        while !self.has_work(shard) {
            std::hint::spin_loop();
            probes = probes.wrapping_add(1);
            if probes.is_multiple_of(64) && start.elapsed() >= spin {
                self.park(shard);
                return true;
            }
        }
        false
    }

    fn park(&self, shard: usize) {
        let q = &self.inner.queues[shard];
        *q.sleeper.lock().expect("sleeper lock") = Some(std::thread::current());
        q.asleep.store(true, Ordering::Relaxed);
        // Pairs with the fence in `push`: a push after this point sees
        // `asleep` and unparks; one before it shows in this probe.
        fence(Ordering::SeqCst);
        if !self.has_work(shard) {
            std::thread::park();
        }
        q.asleep.store(false, Ordering::Relaxed);
    }

    /// Drains one adaptively sized batch for `shard` into `out`;
    /// returns the number of items appended.
    ///
    /// The shard's own queue is served from the *front* (FIFO). The
    /// batch widens with backlog — `(depth / 2).max(1)`, capped at
    /// [`StealPolicy::batch_max`] — so a loaded shard amortizes chain
    /// setup over more invocations while an idle one stays at
    /// latency-1.
    ///
    /// With stealing on, the selected victim is robbed from the *back*
    /// (its owner keeps the FIFO front) in two situations: the classic
    /// starvation steal (own queue empty), and a *balance* steal —
    /// when the victim's backlog is at least twice this shard's own
    /// depth, the theft preempts the own-queue drain, so a steady
    /// skewed trickle is flattened instead of being served at the hot
    /// shard's pace. Victims whose next-stolen item belongs to a graft
    /// this shard is warm for are preferred; at most
    /// [`StealPolicy::steal_batch`] and never more than half the
    /// victim's backlog (rounded up) move per theft.
    pub fn take(&self, shard: usize, out: &mut Vec<WorkItem<T>>) -> usize {
        let policy = &self.inner.policy;
        let own = self.depth(shard);
        if policy.stealing {
            match self.select_victim(shard) {
                Some(victim) if self.depth(victim) >= own.saturating_mul(2).max(1) => {
                    let n = self.steal_from(victim, out);
                    if n > 0 {
                        return n;
                    }
                    // The victim raced to empty; fall through to the
                    // own queue (steal_from recorded the failure).
                }
                None if own == 0 => {
                    // Every queue on the plane is empty.
                    self.inner.counters.steal_fail.fetch_add(1, Ordering::Relaxed);
                    return 0;
                }
                _ => {}
            }
        }
        let q = &self.inner.queues[shard];
        let mut items = q.items.lock().expect("queue lock");
        if items.is_empty() {
            return 0;
        }
        let n = (items.len() / 2).max(1).min(policy.batch_max);
        out.extend(items.drain(..n));
        q.depth.store(items.len(), Ordering::Release);
        let after = items.len();
        drop(items);
        self.note_batch(n, after);
        n
    }

    /// Victim selection: a victim whose back item belongs to a graft
    /// `shard` is warm for outranks any cold victim; within a warmth
    /// class the deepest queue wins; ties break to the lowest shard
    /// index. Pure function of queue state — deterministic under a
    /// seeded driver. `None` when every other queue is empty.
    fn select_victim(&self, shard: usize) -> Option<usize> {
        let mut best: Option<(bool, usize, std::cmp::Reverse<usize>)> = None;
        for s in 0..self.inner.queues.len() {
            if s == shard {
                continue;
            }
            let depth = self.depth(s);
            if depth == 0 {
                continue;
            }
            let back_graft = self.inner.queues[s]
                .items
                .lock()
                .expect("queue lock")
                .back()
                .map_or(0, |i| i.graft);
            let warm = self.is_warm(shard, back_graft);
            let cand = (warm, depth, std::cmp::Reverse(s));
            if best.is_none_or(|b| cand > b) {
                best = Some(cand);
            }
        }
        best.map(|(_, _, std::cmp::Reverse(victim))| victim)
    }

    /// Steals the back half of `victim`'s queue (capped at
    /// [`StealPolicy::steal_batch`]) into `out`, in queue order.
    fn steal_from(&self, victim: usize, out: &mut Vec<WorkItem<T>>) -> usize {
        let q = &self.inner.queues[victim];
        let mut items = q.items.lock().expect("queue lock");
        // Re-check under the lock: the victim may have been drained.
        if items.is_empty() {
            self.inner.counters.steal_fail.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        let n = items.len().div_ceil(2).min(self.inner.policy.steal_batch);
        let split = items.len() - n;
        out.extend(items.drain(split..));
        q.depth.store(items.len(), Ordering::Release);
        drop(items);
        self.inner.counters.steals.fetch_add(n as u64, Ordering::Relaxed);
        self.note_batch(n, 0);
        n
    }

    fn note_batch(&self, n: usize, depth_after: usize) {
        self.inner.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .batched_items
            .fetch_add(n as u64, Ordering::Relaxed);
        if graft_telemetry::enabled() {
            // Depth the drain observed (batch + what it left behind):
            // the backlog signal the adaptive width responds to.
            graft_telemetry::histogram!("kernel.shard.queue_depth")
                .record((n + depth_after) as u64);
        }
    }

    /// Snapshot of the plane's counters.
    pub fn stats(&self) -> QueueStats {
        let c = &self.inner.counters;
        QueueStats {
            enqueued: c.enqueued.load(Ordering::Relaxed),
            diverted: c.diverted.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            steal_fail: c.steal_fail.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_items: c.batched_items.load(Ordering::Relaxed),
        }
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        if !graft_telemetry::enabled() {
            return;
        }
        let c = &self.counters;
        graft_telemetry::counter!("kernel.shard.enqueued")
            .add(c.enqueued.load(Ordering::Relaxed));
        graft_telemetry::counter!("kernel.shard.diverted")
            .add(c.diverted.load(Ordering::Relaxed));
        graft_telemetry::counter!("kernel.shard.steals").add(c.steals.load(Ordering::Relaxed));
        graft_telemetry::counter!("kernel.shard.steal_fail")
            .add(c.steal_fail.load(Ordering::Relaxed));
        graft_telemetry::counter!("kernel.shard.batches")
            .add(c.batches.load(Ordering::Relaxed));
        graft_telemetry::counter!("kernel.shard.batch_items")
            .add(c.batched_items.load(Ordering::Relaxed));
        if self.policy.stealing {
            graft_telemetry::counter!("kernel.shard.steal_mode").add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(key: u64, graft: u64) -> WorkItem<u64> {
        WorkItem {
            key,
            graft,
            epoch: 0,
            payload: key,
        }
    }

    #[test]
    fn submit_routes_by_key_hash_and_take_preserves_fifo() {
        // Static plane: with stealing on, a shard whose queue runs
        // shallow balance-steals foreign items mid-drain (covered by
        // `balance_steal_preempts_a_shallow_drain`), which would
        // interleave this test's own-queue FIFO check.
        let q: RunQueues<u64> = RunQueues::new(4, StealPolicy::static_plane());
        let mut homes = vec![];
        for k in 0..32 {
            homes.push(q.submit(item(k, 1)).expect("room"));
        }
        // Same key, same home — placement is deterministic.
        for k in 0..32 {
            assert_eq!(q.home(k), homes[k as usize]);
        }
        assert_eq!(q.total_depth(), 32);
        // Draining a shard's own queue yields its items in submit order.
        let s = homes[0];
        let expected: Vec<u64> = (0..32).filter(|&k| q.home(k) == s).collect();
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while q.depth(s) > 0 {
            buf.clear();
            q.take(s, &mut buf);
            got.extend(buf.iter().map(|w| w.payload));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn adaptive_batch_widens_with_backlog_and_caps() {
        let q: RunQueues<u64> = RunQueues::new(1, StealPolicy::default());
        for k in 0..100 {
            q.submit(item(k, 0)).expect("room");
        }
        let mut buf = Vec::new();
        // depth 100 -> take 32 (batch_max); depth 68 -> 32 again;
        // depth 36 -> 18; the width halves with the backlog.
        assert_eq!(q.take(0, &mut buf), 32);
        buf.clear();
        assert_eq!(q.take(0, &mut buf), 32);
        buf.clear();
        assert_eq!(q.take(0, &mut buf), 18);
        let st = q.stats();
        assert_eq!(st.batches, 3);
        assert_eq!(st.batched_items, 82);
        // A single queued item still drains immediately (latency-1).
        while q.depth(0) > 0 {
            buf.clear();
            q.take(0, &mut buf);
        }
        q.submit(item(0, 0)).expect("room");
        buf.clear();
        assert_eq!(q.take(0, &mut buf), 1);
    }

    #[test]
    fn full_home_queue_diverts_to_least_loaded_and_backpressures_static() {
        let policy = StealPolicy {
            queue_cap: 4,
            ..StealPolicy::default()
        };
        let q: RunQueues<u64> = RunQueues::new(3, policy);
        let hot = 7u64; // one hot key: everything homes to one shard
        let home = q.home(hot);
        for _ in 0..4 {
            assert_eq!(q.submit(item(hot, 0)).expect("room"), home);
        }
        // Queue full: the 5th submit diverts off the home shard.
        let diverted_to = q.submit(item(hot, 0)).expect("diverts");
        assert_ne!(diverted_to, home);
        assert_eq!(q.stats().diverted, 1);
        // The static plane backpressures instead.
        let st: RunQueues<u64> = RunQueues::new(3, StealPolicy {
            queue_cap: 4,
            ..StealPolicy::static_plane()
        });
        for _ in 0..4 {
            st.submit(item(hot, 0)).expect("room");
        }
        let back = st.submit(item(hot, 0));
        assert!(back.is_err(), "static plane must backpressure when full");
        assert_eq!(st.stats().diverted, 0);
    }

    #[test]
    fn divert_prefers_the_warm_shard_for_the_graft() {
        let policy = StealPolicy {
            queue_cap: 2,
            ..StealPolicy::default()
        };
        let q: RunQueues<u64> = RunQueues::new(4, policy);
        let hot = 3u64;
        let home = q.home(hot);
        // Warm a non-home shard for graft 9; load another non-home
        // shard less, so least-loaded-overall would pick differently.
        let warm_shard = (home + 1) % 4;
        q.mark_warm(warm_shard, 9);
        for _ in 0..2 {
            q.submit(item(hot, 9)).expect("fill home");
        }
        let target = q.submit(item(hot, 9)).expect("diverts");
        assert_eq!(target, warm_shard, "divert ignored graft affinity");
    }

    #[test]
    fn steal_takes_from_the_back_of_the_deepest_victim() {
        let q: RunQueues<u64> = RunQueues::new(2, StealPolicy::default());
        // Load only one shard; give keys that hash there.
        let loaded = q.home(0);
        let keys: Vec<u64> = (0..1000).filter(|&k| q.home(k) == loaded).take(10).collect();
        for &k in &keys {
            q.submit(item(k, 0)).expect("room");
        }
        let thief = 1 - loaded;
        let mut buf = Vec::new();
        let n = q.take(thief, &mut buf);
        assert_eq!(n, 5, "steal moves ceil(depth/2) = 5 of 10");
        // Stolen items are the back half, in their original order.
        let stolen: Vec<u64> = buf.iter().map(|w| w.payload).collect();
        assert_eq!(stolen, keys[5..].to_vec());
        assert_eq!(q.stats().steals, 5);
        // The victim still drains its front half in order.
        buf.clear();
        q.take(loaded, &mut buf);
        assert_eq!(buf[0].payload, keys[0]);
        // An all-empty plane records a failed steal.
        while q.total_depth() > 0 {
            buf.clear();
            q.take(loaded, &mut buf);
        }
        buf.clear();
        assert_eq!(q.take(thief, &mut buf), 0);
        assert!(q.stats().steal_fail >= 1);
    }

    #[test]
    fn balance_steal_preempts_a_shallow_drain() {
        let q: RunQueues<u64> = RunQueues::new(2, StealPolicy::default());
        let (hot, cold) = (q.home(0), 1 - q.home(0));
        // 40 items on the hot shard, 2 on the cold one: the cold
        // shard's next drain sees a victim far deeper than itself and steals
        // instead of serving its own trickle at the hot shard's pace.
        let hot_keys: Vec<u64> = (0..4000).filter(|&k| q.home(k) == hot).take(40).collect();
        let cold_keys: Vec<u64> = (0..4000).filter(|&k| q.home(k) == cold).take(2).collect();
        for &k in hot_keys.iter().chain(&cold_keys) {
            q.submit(item(k, 0)).expect("room");
        }
        let mut buf = Vec::new();
        let n = q.take(cold, &mut buf);
        assert_eq!(n, 20, "balance steal moves ceil(40/2) of the hot queue");
        assert!(buf.iter().all(|w| q.home(w.key) == hot));
        assert_eq!(q.depth(cold), 2, "the cold queue was left untouched");
        // Repeated takes keep halving the hot backlog (20 -> 10 -> 5 -> 2)
        // until it drops under 2x the cold depth; only then does the
        // cold shard serve its own queue.
        buf.clear();
        assert_eq!(q.take(cold, &mut buf), 10);
        buf.clear();
        assert_eq!(q.take(cold, &mut buf), 5);
        buf.clear();
        assert_eq!(q.take(cold, &mut buf), 3, "5 >= 2x2 still steals");
        assert_eq!(q.depth(hot), 2);
        buf.clear();
        let n = q.take(cold, &mut buf);
        assert_eq!(n, 1, "next take serves the cold queue");
        assert_eq!(buf[0].payload, cold_keys[0]);
    }

    #[test]
    fn steal_prefers_a_victim_whose_tail_graft_is_warm() {
        let q: RunQueues<u64> = RunQueues::new(3, StealPolicy::default());
        // Find two distinct keys homing to shards 0-like and 1-like,
        // leaving one shard empty to act as the thief.
        let mut by_home = [None; 3];
        for k in 0..10_000u64 {
            let h = q.home(k);
            if by_home[h].is_none() {
                by_home[h] = Some(k);
            }
        }
        let (a, b) = (by_home[0].unwrap(), by_home[1].unwrap());
        // Shard 0 holds graft-5 work (shallow); shard 1 holds graft-6
        // work (deeper). The thief (shard 2) is warm for graft 5, so it
        // robs the *shallower* warm victim over the deeper cold one.
        for _ in 0..3 {
            q.submit(WorkItem {
                key: a,
                graft: 5,
                epoch: 0,
                payload: 0,
            })
            .expect("room");
        }
        for _ in 0..8 {
            q.submit(WorkItem {
                key: b,
                graft: 6,
                epoch: 0,
                payload: 0,
            })
            .expect("room");
        }
        q.mark_warm(2, 5);
        let mut buf = Vec::new();
        let n = q.take(2, &mut buf);
        assert!(n > 0);
        assert!(buf.iter().all(|w| w.graft == 5), "stole from a cold victim");
    }

    #[test]
    fn stats_and_depths_are_exact_under_interleaved_traffic() {
        let q: RunQueues<u64> = RunQueues::new(4, StealPolicy::default());
        let mut submitted = 0u64;
        let mut drained = 0u64;
        let mut buf = Vec::new();
        for k in 0..200u64 {
            if q.submit(item(k, 1 + k % 3)).is_ok() {
                submitted += 1;
            }
            if k % 5 == 4 {
                buf.clear();
                drained += q.take((k % 4) as usize, &mut buf) as u64;
                for w in &buf {
                    q.mark_warm((k % 4) as usize, w.graft);
                }
            }
        }
        for s in 0..4 {
            loop {
                buf.clear();
                let n = q.take(s, &mut buf);
                if n == 0 {
                    break;
                }
                drained += n as u64;
            }
        }
        // Nothing lost, nothing double-drained. (Shard queues may still
        // hold items stolen *to* an earlier-drained shard's buffer —
        // drain until every queue reports empty.)
        while q.total_depth() > 0 {
            for s in 0..4 {
                buf.clear();
                drained += q.take(s, &mut buf) as u64;
            }
        }
        assert_eq!(q.stats().enqueued, submitted);
        assert_eq!(drained, submitted);
        assert_eq!(q.total_depth(), 0);
    }

    #[test]
    fn staging_a_pass_places_exactly_as_submitting_each_item() {
        for policy in [
            StealPolicy {
                queue_cap: 5,
                ..StealPolicy::default()
            },
            StealPolicy {
                queue_cap: 5,
                ..StealPolicy::static_plane()
            },
        ] {
            let direct: RunQueues<u64> = RunQueues::new(3, policy);
            let staged: RunQueues<u64> = RunQueues::new(3, policy);
            direct.mark_warm(2, 4);
            staged.mark_warm(2, 4);
            let mut pass = staged.staging();
            let mut buf = Vec::new();
            for k in 0..40u64 {
                let it = item(k % 4, 1 + k % 5);
                let a = direct.submit(it.clone()).map_err(|w| w.payload);
                let b = staged.stage(&mut pass, it).map_err(|w| w.payload);
                assert_eq!(a, b, "item {k}");
                if k % 10 == 9 {
                    let held: usize = pass.runs.iter().map(Vec::len).sum();
                    assert_eq!(staged.total_depth() + held, direct.total_depth());
                    staged.push_staged(&mut pass);
                    assert!(pass.runs.iter().all(Vec::is_empty));
                    for s in 0..3 {
                        assert_eq!(direct.depth(s), staged.depth(s), "shard {s} after item {k}");
                        let mut got = Vec::new();
                        buf.clear();
                        direct.take(s, &mut buf);
                        got.extend(buf.iter().map(|w| w.payload));
                        buf.clear();
                        staged.take(s, &mut buf);
                        assert_eq!(got, buf.iter().map(|w| w.payload).collect::<Vec<_>>());
                    }
                }
            }
            assert_eq!(direct.stats(), staged.stats());
        }
    }

    #[test]
    fn a_backlog_wakes_a_parked_executor_of_another_shard() {
        let q: RunQueues<u64> = RunQueues::new(2, StealPolicy::default());
        let key = (0..).find(|&k| q.home(k) == 0).expect("a key homed on shard 0");
        let (tx, rx) = std::sync::mpsc::channel();
        let thief = {
            let q = q.clone();
            std::thread::spawn(move || {
                while !q.idle_wait(1, Duration::ZERO) {}
                tx.send(()).expect("test waits");
            })
        };
        while !q.inner.queues[1].asleep.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // One queued item is its home executor's to take; a second is
        // a backlog another executor can steal from.
        q.submit(item(key, 1)).expect("room");
        q.submit(item(key, 1)).expect("room");
        rx.recv_timeout(Duration::from_secs(10))
            .expect("shard 1's executor woke for the backlog on shard 0");
        thief.join().expect("thief thread");
    }

    #[test]
    fn run_queues_are_send_sync_for_real_threads() {
        fn assert_send_sync<S: Send + Sync>() {}
        assert_send_sync::<RunQueues<Vec<i64>>>();
    }
}
