//! The graft server: protocol core, admission control, and the
//! stealing-plane executor.
//!
//! [`GraftServer`] is transport-agnostic. Bytes arrive via
//! [`GraftServer::ingest`] (from a non-blocking pipe read, a virtual
//! transport flush — the server cannot tell), [`GraftServer::pump`]
//! decodes frames and runs the *control plane* inline (hello, install,
//! bind, uninstall — cheap, namespace-local), and admitted *data
//! plane* requests (invoke, batch) are placed on the work-stealing
//! [`RunQueues`] so the shards serve them. Admission stages each job
//! on its shard ([`RunQueues::stage`]); every `pump`/`pump_conn` ends
//! by handing each shard its staged run in one push
//! ([`RunQueues::push_staged`]), so the queue lock, depth store and
//! counters are paid once per shard per pass, not per request.
//!
//! Serving is split in two halves so it can run on real threads:
//!
//! * the **invoke half** ([`GraftServer::drain_invoke`], or a
//!   [`WorkerPlane`](crate::workers::WorkerPlane) worker) takes a
//!   steal-aware batch for one shard, invokes each item's graft on
//!   that shard's handle, and pushes a [`Completion`] into the
//!   lock-free [`CompletionQueue`];
//! * the **completion half** ([`GraftServer::reap`]) runs serially on
//!   the pump/writer side: accounting, quarantine detection, ladder
//!   ticks, fuel refresh, and reply encode into the owning
//!   connection's outbox.
//!
//! Because the completion half is serial, every tenant-state decision
//! (park, ban, re-admit, fuel charge) is made by exactly one thread no
//! matter how many workers invoke — that is what makes strike
//! accounting exactly-once under concurrency. Because stealing and
//! threading both reorder completion, replies carry the client's
//! echoed `seq`.
//!
//! Admission control happens at pump time, before anything is
//! enqueued: a parked or banned tenant is refused with `Quarantined`,
//! an over-cap tenant with `Overloaded`, an over-budget tenant with
//! `QuotaExceeded` — all typed, all without touching the data plane.
//! Admission is additionally *weighted*: tenants belong to
//! [`QuotaClass`]es and each class holds a hard share of the plane's
//! in-flight capacity proportional to its weight, so a heavy class
//! cannot starve a light one. Quarantine detection happens at
//! completion time: when an invoke traps and the backing host's
//! supervisor has detached the graft, the owning tenant is parked on
//! the PR 5 backoff ladder and the server re-admits the graft
//! (`ShardedHost::readmit`) only after the tenant's window of clean
//! server dispatches has elapsed.

use crate::cq::CompletionQueue;
use crate::tenant::{class_share, QuotaClass, Standing, Tenant, TenantQuotas, MAX_CLASSES};
use crate::wire::{InvokeArgs, Reply, Request, WireError};
use graft_api::{ExtensionEngine, GraftError, Technology};
use graft_kernel::{
    AttachPoint, GraftId, HostConfig, RunQueues, ShardHandle, ShardedHost, Staged, StealPolicy,
    WorkItem,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A loader the server calls to build an engine for an installed spec:
/// the registry decouples the server from any particular compiler
/// pipeline (tests register closures over `NativeEngine`; the bench
/// harness registers `GraftManager`-backed loaders).
pub type SpecLoader =
    Box<dyn Fn(Technology) -> Result<Box<dyn ExtensionEngine>, GraftError> + Send>;

/// Server tuning: the backing host, the plane, and the quotas.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Shard count for the backing [`ShardedHost`] — also the worker
    /// count when the plane is threaded (one worker per handle).
    pub shards: usize,
    /// Host supervisor config. `backoff_base` here is forced to 0:
    /// the *server* owns the re-admission ladder per tenant.
    pub host: HostConfig,
    /// Dispatch-plane policy (stealing or static).
    pub steal: StealPolicy,
    /// Per-tenant ceilings for the default class (class 0 inherits
    /// these when no explicit classes are configured).
    pub quotas: TenantQuotas,
    /// Weighted admission classes. All-unused (every weight 0) means
    /// "one default class owning the whole plane with `quotas`"; the
    /// constructor materializes that so admission always has a class.
    pub classes: [QuotaClass; MAX_CLASSES],
    /// Server-side re-admission ladder base (PR 5 semantics: window
    /// `base << (trip-1)` clean dispatches, doubling per trip). 0
    /// disables re-admission — quarantine is permanent.
    pub backoff_base: u64,
    /// Quarantine trips after which a tenant is permanently banned.
    pub ban_ceiling: u32,
    /// Completions between ledger-backed fuel-quota refreshes for a
    /// tenant (1 = every completion; larger amortizes the flush).
    pub fuel_refresh: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 1,
            host: HostConfig::default(),
            steal: StealPolicy::default(),
            quotas: TenantQuotas::default(),
            classes: [QuotaClass::UNUSED; MAX_CLASSES],
            backoff_base: 16,
            ban_ceiling: 5,
            fuel_refresh: 64,
        }
    }
}

/// Aggregate server counters (also published as `server.*` telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Data-plane requests served to completion.
    pub served: u64,
    /// Refusals: plane, tenant, or class share at capacity.
    pub rejected_overloaded: u64,
    /// Refusals: graft-count or fuel quota exhausted.
    pub rejected_quota: u64,
    /// Refusals: tenant parked or banned on the ladder.
    pub rejected_quarantined: u64,
    /// Frames answered with `Malformed` (connection survived).
    pub malformed: u64,
    /// Connections torn down for an untrusted length prefix.
    pub fatal_frames: u64,
    /// Tenants that ever connected.
    pub tenants: u64,
    /// Tenants currently parked or banned.
    pub tenants_quarantined: u64,
    /// High-water mark of total in-flight requests.
    pub inflight_peak: u64,
    /// Replies dropped because the connection closed while the request
    /// was in flight (churned clients; accounting still ran).
    pub orphaned: u64,
}

/// What one data-plane job carries through the plane.
#[derive(Debug)]
pub(crate) struct Job {
    conn: usize,
    seq: u32,
    tenant: u64,
    /// Per-call arity when this is a batch; `None` = single invoke.
    batch: Option<usize>,
    args: InvokeArgs,
    t0: Instant,
}

/// What a job's invoke produced.
#[derive(Debug)]
pub(crate) enum Outcome {
    /// A single invoke's value, or the error it raised.
    Single(Result<i64, GraftError>),
    /// A batch's values for the calls that ran, then the error that
    /// stopped it, if one did.
    Batch(Vec<i64>, Option<GraftError>),
}

/// A finished invoke travelling back from a worker (or the inline
/// executor) to the serial completion half.
#[derive(Debug)]
pub(crate) struct Completion {
    /// Which shard invoked (fuel refresh flushes this shard's handle
    /// in single-threaded mode).
    pub(crate) shard: usize,
    pub(crate) job: Job,
    pub(crate) outcome: Outcome,
}

/// The invoke half of the executor: takes one steal-aware batch for
/// `shard` into `batch` (an empty buffer the caller reuses), invokes
/// each item on `handle`, and pushes one [`Completion`] per job. This
/// is exactly what a drain-worker thread runs in a loop; the
/// single-threaded [`GraftServer::drain`] calls it inline with the
/// resident handle. Returns the number of jobs invoked.
///
/// The completion queue cannot fill: it holds at most the admitted
/// in-flight jobs, which the class shares cap at the plane's capacity
/// (one slot more per class at most, from rounding), and it is sized
/// at twice that and at least 4096. The push still retries rather
/// than drops — a dropped completion would leak a tenant's in-flight
/// slot forever.
pub(crate) fn invoke_shard(
    shard: usize,
    handle: &mut ShardHandle,
    queues: &RunQueues<Job>,
    completions: &CompletionQueue<Completion>,
    batch: &mut Vec<WorkItem<Job>>,
) -> usize {
    queues.take(shard, batch);
    let n = batch.len();
    for item in batch.drain(..) {
        let gid = GraftId(item.graft);
        let job = item.payload;
        // Invoke on this shard's replica. A batch job shares the
        // engine's prefix-on-trap contract: values for the calls that
        // ran, then the error that stopped it.
        let outcome = match job.batch {
            None => Outcome::Single(handle.invoke(gid, &job.args)),
            Some(arity) => {
                let mut values = Vec::new();
                let mut error = None;
                for call in job.args.chunks(arity) {
                    match handle.invoke(gid, call) {
                        Ok(v) => values.push(v),
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                Outcome::Batch(values, error)
            }
        };
        // Tell the plane this shard now has the graft hot.
        queues.mark_warm(shard, item.graft);
        let mut completion = Completion {
            shard,
            job,
            outcome,
        };
        while let Err(back) = completions.push(completion) {
            completion = back;
            std::hint::spin_loop();
        }
    }
    n
}

/// Per-graft server bookkeeping.
#[derive(Debug)]
struct GraftMeta {
    tenant: u64,
    point: AttachPoint,
}

/// One connection's state machine: framing in, bytes out.
#[derive(Debug, Default)]
struct Conn {
    open: bool,
    tenant: Option<u64>,
    inbox: crate::wire::FrameBuf,
    outbox: Vec<u8>,
}

/// The multi-tenant graft server. See the module docs for the shape.
pub struct GraftServer {
    host: ShardedHost,
    /// Shard handles when resident. Empty while a
    /// [`WorkerPlane`](crate::workers::WorkerPlane) owns them — the
    /// single-threaded executor paths assert residency.
    handles: Vec<ShardHandle>,
    queues: RunQueues<Job>,
    /// Jobs admitted in the current pump pass, not yet pushed. Empty
    /// whenever a public call returns.
    staged: Staged<Job>,
    /// The inline executor's reused batch buffer.
    batch: Vec<WorkItem<Job>>,
    completions: Arc<CompletionQueue<Completion>>,
    config: ServerConfig,
    conns: Vec<Conn>,
    tenants: BTreeMap<u64, Tenant>,
    /// Tenant ids currently parked (ladder ticks scan only these).
    parked: Vec<u64>,
    /// Pre-assigned admission classes (applied at Hello).
    class_of: BTreeMap<u64, usize>,
    /// In-flight requests per admission class (pump-side state).
    class_in_flight: [u64; MAX_CLASSES],
    specs: BTreeMap<String, SpecLoader>,
    grafts: BTreeMap<u64, GraftMeta>,
    stats: ServerStats,
    total_in_flight: u64,
    /// When set, completed requests append `(tenant, service_ns)`
    /// here for offline percentile analysis (Table 11).
    latency_sink: Option<Vec<(u64, u64)>>,
    published: bool,
}

impl GraftServer {
    /// Builds a server over a fresh sharded host.
    pub fn new(mut config: ServerConfig) -> Self {
        // The server owns the re-admission ladder; the host supervisor
        // must not auto-readmit underneath it.
        config.host.backoff_base = 0;
        // No explicit classes ⇒ one default class over the whole plane
        // with the legacy per-tenant quotas.
        if config.classes.iter().all(|c| c.weight == 0) {
            config.classes[0] = QuotaClass {
                weight: 1,
                quotas: config.quotas,
            };
        }
        let mut host = ShardedHost::with_config(config.shards, config.host);
        let handles = host.take_handles();
        let queues = host.run_queues(config.steal);
        // Sized so that "invoke the whole plane, then reap once" can
        // never fill it (see `invoke_shard`).
        let cq_cap = (config.steal.queue_cap * config.shards * 2).max(4096);
        GraftServer {
            host,
            handles,
            staged: queues.staging(),
            batch: Vec::new(),
            queues,
            completions: Arc::new(CompletionQueue::with_capacity(cq_cap)),
            config,
            conns: Vec::new(),
            tenants: BTreeMap::new(),
            parked: Vec::new(),
            class_of: BTreeMap::new(),
            class_in_flight: [0; MAX_CLASSES],
            specs: BTreeMap::new(),
            grafts: BTreeMap::new(),
            stats: ServerStats::default(),
            total_in_flight: 0,
            latency_sink: None,
            published: false,
        }
    }

    /// Registers a named spec the wire `Install` frame can reference.
    pub fn register_spec(&mut self, name: &str, loader: SpecLoader) {
        self.specs.insert(name.to_string(), loader);
    }

    /// Assigns `tenant` to admission class `class` (effective at its
    /// next `Hello`, or immediately if the tenant already exists).
    /// Out-of-range or zero-weight classes fall back to class 0.
    pub fn assign_class(&mut self, tenant: u64, class: usize) {
        let class = if class < MAX_CLASSES && self.config.classes[class].weight > 0 {
            class
        } else {
            0
        };
        self.class_of.insert(tenant, class);
        if let Some(t) = self.tenants.get_mut(&tenant) {
            t.class = class;
        }
    }

    /// Starts collecting `(tenant, service_ns)` pairs per completion.
    pub fn collect_latency(&mut self, on: bool) {
        self.latency_sink = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the collected latency pairs.
    pub fn take_latencies(&mut self) -> Vec<(u64, u64)> {
        self.latency_sink
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Opens a connection; the returned id names it in
    /// [`ingest`](Self::ingest)/[`take_outbound`](Self::take_outbound).
    pub fn connect(&mut self) -> usize {
        self.conns.push(Conn {
            open: true,
            ..Conn::default()
        });
        self.conns.len() - 1
    }

    /// Whether a connection is still open.
    pub fn is_open(&self, conn: usize) -> bool {
        self.conns.get(conn).is_some_and(|c| c.open)
    }

    /// Marks a connection closed from the transport side (peer went
    /// away without `Bye`). In-flight requests complete their
    /// accounting but their replies are dropped as orphaned.
    pub fn disconnect(&mut self, conn: usize) {
        if let Some(c) = self.conns.get_mut(conn) {
            c.open = false;
            c.outbox.clear();
        }
    }

    /// Appends raw transport bytes to a connection's inbox.
    pub fn ingest(&mut self, conn: usize, bytes: &[u8]) {
        if let Some(c) = self.conns.get_mut(conn) {
            if c.open {
                c.inbox.extend(bytes);
            }
        }
    }

    /// Takes whatever reply bytes the connection has accumulated.
    ///
    /// An open connection's outbox is refilled at the size just taken,
    /// so the next pass encodes its replies in place without growing
    /// the buffer step by step.
    pub fn take_outbound(&mut self, conn: usize) -> Vec<u8> {
        let Some(c) = self.conns.get_mut(conn) else {
            return Vec::new();
        };
        let refill = if c.open { c.outbox.len() } else { 0 };
        std::mem::replace(&mut c.outbox, Vec::with_capacity(refill))
    }

    /// Decodes and processes every complete frame on every connection,
    /// then hands the admitted jobs to the plane.
    pub fn pump(&mut self) {
        for conn in 0..self.conns.len() {
            self.pump_frames(conn);
        }
        self.queues.push_staged(&mut self.staged);
    }

    /// Decodes and processes every complete frame on one connection,
    /// then hands the admitted jobs to the plane.
    pub fn pump_conn(&mut self, conn: usize) {
        self.pump_frames(conn);
        self.queues.push_staged(&mut self.staged);
    }

    /// The frame loop of one connection. Admitted jobs stay staged; the
    /// public caller pushes them.
    fn pump_frames(&mut self, conn: usize) {
        loop {
            let Some(c) = self.conns.get_mut(conn) else {
                return;
            };
            if !c.open {
                return;
            }
            let decoded = match c.inbox.next_frame() {
                // Echo the seq of a bad body if its prefix still has one.
                Ok(Some(body)) => Request::decode(body).map_err(|err| {
                    let seq = body
                        .get(1..5)
                        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                        .unwrap_or(0);
                    (seq, err)
                }),
                Ok(None) => return,
                Err(fatal) => {
                    // The length prefix itself is untrustworthy: answer
                    // once, then close — the only protocol tear-down.
                    self.stats.fatal_frames += 1;
                    Reply::Error {
                        seq: 0,
                        error: fatal,
                    }
                    .encode_into(&mut c.outbox);
                    c.open = false;
                    return;
                }
            };
            let reply = match decoded {
                Ok(req) => self.handle(conn, req),
                Err((seq, err)) => {
                    // A bad body is the *client's* problem, not the
                    // connection's: reply typed and keep framing.
                    self.stats.malformed += 1;
                    graft_telemetry::counter!("server.malformed").add(1);
                    Some(Reply::Error { seq, error: err })
                }
            };
            if let Some(reply) = reply {
                if let Some(c) = self.conns.get_mut(conn) {
                    reply.encode_into(&mut c.outbox);
                }
            }
        }
    }

    /// Control-plane handling. Data-plane requests return `None` here
    /// (their reply is written at completion time).
    fn handle(&mut self, conn: usize, req: Request) -> Option<Reply> {
        graft_telemetry::counter!("server.requests").add(1);
        let seq = req.seq();
        // Hello is the only frame legal without a tenant.
        let tenant_id = match (&req, self.conns[conn].tenant) {
            (Request::Hello { tenant, .. }, None) => {
                let id = *tenant;
                self.conns[conn].tenant = Some(id);
                if let std::collections::btree_map::Entry::Vacant(e) = self.tenants.entry(id) {
                    let mut t = Tenant::new(id);
                    t.class = self.class_of.get(&id).copied().unwrap_or(0);
                    e.insert(t);
                    self.stats.tenants += 1;
                }
                return Some(Reply::Welcome { seq, tenant: id });
            }
            (Request::Hello { .. }, Some(_)) => {
                return Some(Reply::Error {
                    seq,
                    error: WireError::Protocol("duplicate Hello".into()),
                });
            }
            (_, None) => {
                return Some(Reply::Error {
                    seq,
                    error: WireError::Protocol("frame before Hello".into()),
                });
            }
            (_, Some(id)) => id,
        };

        match req {
            Request::Hello { .. } => unreachable!("handled above"),
            Request::Bye { .. } => {
                self.conns[conn].open = false;
                Some(Reply::Gone { seq })
            }
            Request::Install {
                point, tech, spec, ..
            } => {
                // A compile is slow: hand over what this pass admitted
                // so far, so those jobs do not wait behind it.
                self.queues.push_staged(&mut self.staged);
                Some(self.install(tenant_id, point, tech, &spec, seq))
            }
            Request::Bind { graft, entry, .. } => {
                let meta = match self.tenant_graft(tenant_id, graft) {
                    Ok(meta) => meta,
                    Err(error) => return Some(Reply::Error { seq, error }),
                };
                // The point entry was pre-bound at install; its wire id
                // is 0 by construction. Any other name is the same
                // deterministic NoSuchFunction the engines raise.
                if entry == meta.point.entry() {
                    Some(Reply::Bound { seq, entry: 0 })
                } else {
                    Some(Reply::Error {
                        seq,
                        error: WireError::from(&GraftError::Trap(graft_api::Trap::NoSuchFunction(
                            entry,
                        ))),
                    })
                }
            }
            Request::Uninstall { graft, .. } => {
                if let Err(error) = self.tenant_graft(tenant_id, graft) {
                    return Some(Reply::Error { seq, error });
                }
                self.host.uninstall(GraftId(graft));
                self.grafts.remove(&graft);
                let t = self.tenants.get_mut(&tenant_id).expect("tenant exists");
                t.grafts.retain(|g| g.0 != graft);
                Some(Reply::Gone { seq })
            }
            Request::Invoke {
                graft, entry, args, ..
            } => self.admit(conn, seq, tenant_id, graft, entry, None, args),
            Request::InvokeBatch {
                graft,
                entry,
                arity,
                args,
                ..
            } => self.admit(
                conn,
                seq,
                tenant_id,
                graft,
                entry,
                Some(arity as usize),
                args.into(),
            ),
        }
    }

    /// Validates a graft handle against the tenant's namespace. The
    /// check is the isolation boundary: another tenant's (or a
    /// never-issued) handle is `NoSuchGraft` — handles cannot reach
    /// across namespaces.
    fn tenant_graft(&self, tenant: u64, graft: u64) -> Result<&GraftMeta, WireError> {
        match self.grafts.get(&graft) {
            Some(meta) if meta.tenant == tenant => Ok(meta),
            _ => Err(WireError::NoSuchGraft(graft)),
        }
    }

    /// The per-tenant ceilings a tenant's class grants it.
    fn quotas_for(&self, tenant: &Tenant) -> TenantQuotas {
        self.config.classes[tenant.class].quotas
    }

    fn install(&mut self, tenant_id: u64, point: u8, tech: u8, spec: &str, seq: u32) -> Reply {
        let t = self.tenants.get_mut(&tenant_id).expect("tenant exists");
        if matches!(t.standing, Standing::Banned) {
            self.stats.rejected_quarantined += 1;
            t.rejected += 1;
            return Reply::Error {
                seq,
                error: WireError::Quarantined {
                    backoff_remaining: 0,
                },
            };
        }
        let quotas = self.config.classes[t.class].quotas;
        if let Err(e) = t.admit_install(&quotas) {
            self.stats.rejected_quota += 1;
            t.rejected += 1;
            graft_telemetry::counter!("server.rejected.quota").add(1);
            return Reply::Error {
                seq,
                error: WireError::from(&e),
            };
        }
        let Some(point) = AttachPoint::ALL.get(point as usize).copied() else {
            return Reply::Error {
                seq,
                error: WireError::Malformed(format!("unknown attach point {point}")),
            };
        };
        let Some(tech) = Technology::ALL.get(tech as usize).copied() else {
            return Reply::Error {
                seq,
                error: WireError::Malformed(format!("unknown technology {tech}")),
            };
        };
        let Some(loader) = self.specs.get(spec) else {
            return Reply::Error {
                seq,
                error: WireError::Unavailable(format!("no spec `{spec}` registered")),
            };
        };
        let engine = match loader(tech) {
            Ok(engine) => engine,
            Err(e) => {
                return Reply::Error {
                    seq,
                    error: WireError::from(&e),
                }
            }
        };
        let name = format!("t{tenant_id}:{spec}");
        match self.host.install(point, &name, engine) {
            Ok(gid) => {
                self.grafts.insert(
                    gid.0,
                    GraftMeta {
                        tenant: tenant_id,
                        point,
                    },
                );
                let t = self.tenants.get_mut(&tenant_id).expect("tenant exists");
                t.grafts.push(gid);
                Reply::Installed { seq, graft: gid.0 }
            }
            Err(e) => Reply::Error {
                seq,
                error: WireError::from(&e),
            },
        }
    }

    /// Admission for one data-plane request: ladder standing, handle
    /// validity, entry-id staleness, in-flight cap, class share, fuel
    /// budget — all checked *before* the plane sees the job, each
    /// refusal typed.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        conn: usize,
        seq: u32,
        tenant_id: u64,
        graft: u64,
        entry: u32,
        batch: Option<usize>,
        args: InvokeArgs,
    ) -> Option<Reply> {
        if let Err(error) = self.tenant_graft(tenant_id, graft) {
            let t = self.tenants.get_mut(&tenant_id).expect("tenant exists");
            t.rejected += 1;
            return Some(Reply::Error { seq, error });
        }
        // The only entry id ever issued is 0 (the point entry, bound
        // at install). Anything else is a stale handle and traps
        // deterministically, exactly like the in-process engines.
        if entry != 0 {
            return Some(Reply::Error {
                seq,
                error: WireError::StaleHandle { kind: 0, id: entry },
            });
        }
        if let Some(arity) = batch {
            if arity == 0 || !args.len().is_multiple_of(arity) {
                return Some(Reply::Error {
                    seq,
                    error: WireError::Malformed(format!(
                        "batch of {} args with arity {arity}",
                        args.len()
                    )),
                });
            }
        }
        let t = self.tenants.get_mut(&tenant_id).expect("tenant exists");
        match t.standing {
            Standing::Banned => {
                t.rejected += 1;
                self.stats.rejected_quarantined += 1;
                graft_telemetry::counter!("server.rejected.quarantined").add(1);
                return Some(Reply::Error {
                    seq,
                    error: WireError::Quarantined {
                        backoff_remaining: 0,
                    },
                });
            }
            Standing::Parked { remaining, .. } => {
                t.rejected += 1;
                self.stats.rejected_quarantined += 1;
                graft_telemetry::counter!("server.rejected.quarantined").add(1);
                return Some(Reply::Error {
                    seq,
                    error: WireError::Quarantined {
                        backoff_remaining: remaining,
                    },
                });
            }
            Standing::Serving => {}
        }
        let class = t.class;
        let quotas = self.config.classes[class].quotas;
        if let Err(e) = t.admit_invoke(&quotas) {
            t.rejected += 1;
            match &e {
                GraftError::Overloaded { .. } => {
                    self.stats.rejected_overloaded += 1;
                    graft_telemetry::counter!("server.rejected.overloaded").add(1);
                }
                _ => {
                    self.stats.rejected_quota += 1;
                    graft_telemetry::counter!("server.rejected.quota").add(1);
                }
            }
            return Some(Reply::Error {
                seq,
                error: WireError::from(&e),
            });
        }
        // Weighted admission: the class's hard share of the plane.
        // Refusing here (not at enqueue) is what protects *other*
        // classes — this class's flood never occupies their slots.
        let plane_cap = (self.config.steal.queue_cap * self.config.shards) as u64;
        let share = class_share(&self.config.classes, class, plane_cap);
        if self.class_in_flight[class] >= share {
            let t = self.tenants.get_mut(&tenant_id).expect("tenant exists");
            t.rejected += 1;
            self.stats.rejected_overloaded += 1;
            graft_telemetry::counter!("server.rejected.overloaded").add(1);
            return Some(Reply::Error {
                seq,
                error: WireError::Overloaded {
                    in_flight: self.class_in_flight[class],
                    cap: share,
                },
            });
        }
        let job = Job {
            conn,
            seq,
            tenant: tenant_id,
            batch,
            args,
            t0: Instant::now(),
        };
        // Key by tenant: a tenant's requests hash to a home shard
        // (cache affinity), and the stealing plane rebalances skew.
        // Staged work counts as queued, so this refusal is the one the
        // push would have made, in the same reply order.
        let item = WorkItem {
            key: tenant_id,
            graft,
            epoch: self.host.epoch(),
            payload: job,
        };
        match self.queues.stage(&mut self.staged, item) {
            Ok(_shard) => {
                let t = self.tenants.get_mut(&tenant_id).expect("tenant exists");
                t.admitted();
                self.class_in_flight[class] += 1;
                self.total_in_flight += 1;
                if self.total_in_flight > self.stats.inflight_peak {
                    self.stats.inflight_peak = self.total_in_flight;
                }
                None
            }
            Err(_job) => {
                // Every queue in the plane is full: backpressure is an
                // Overloaded refusal, never a silent drop.
                let t = self.tenants.get_mut(&tenant_id).expect("tenant exists");
                t.rejected += 1;
                self.stats.rejected_overloaded += 1;
                graft_telemetry::counter!("server.rejected.overloaded").add(1);
                Some(Reply::Error {
                    seq,
                    error: WireError::Overloaded {
                        in_flight: self.total_in_flight,
                        cap: plane_cap,
                    },
                })
            }
        }
    }

    /// The invoke half only: serves one steal-aware batch on `shard`
    /// and queues the completions without processing them. Pair with
    /// [`reap`](Self::reap). Panics if a [`WorkerPlane`]
    /// (crate::workers::WorkerPlane) currently owns the handles.
    pub fn drain_invoke(&mut self, shard: usize) -> usize {
        assert!(
            !self.handles.is_empty(),
            "drain_invoke needs resident handles (worker plane active?)"
        );
        invoke_shard(
            shard,
            &mut self.handles[shard],
            &self.queues,
            &self.completions,
            &mut self.batch,
        )
    }

    /// The executor: serves one steal-aware batch on `shard` and
    /// processes every queued completion. Returns the number of
    /// requests invoked.
    pub fn drain(&mut self, shard: usize) -> usize {
        let n = self.drain_invoke(shard);
        self.reap();
        n
    }

    /// Serves every shard round-robin until the plane is empty. The
    /// single-threaded deterministic shape (tests, Table 11); a pipe
    /// front-end interleaves `drain` with its poll loop instead.
    pub fn drain_all(&mut self) -> usize {
        let mut total = 0;
        loop {
            let mut round = 0;
            for shard in 0..self.handles.len() {
                round += self.drain(shard);
            }
            if round == 0 {
                return total;
            }
            total += round;
        }
    }

    /// The completion half: pops every queued [`Completion`] and runs
    /// the serial accounting/reply path. Returns how many were
    /// processed. This is the *only* consumer of tenant standing, so
    /// running it on one thread (the pump) makes strike accounting
    /// exactly-once regardless of worker count.
    pub fn reap(&mut self) -> usize {
        let completions = Arc::clone(&self.completions);
        let mut n = 0;
        while let Some(c) = completions.pop() {
            self.complete(c);
            n += 1;
        }
        n
    }

    /// Completion: accounting, quarantine detection, ladder ticks,
    /// fuel refresh, reply delivery.
    fn complete(&mut self, completion: Completion) {
        let Completion {
            shard,
            job,
            outcome,
        } = completion;
        let service_ns = job.t0.elapsed().as_nanos() as u64;
        graft_telemetry::histogram!("server.service_ns").record(service_ns);
        if let Some(sink) = self.latency_sink.as_mut() {
            sink.push((job.tenant, service_ns));
        }
        self.stats.served += 1;
        self.total_in_flight = self.total_in_flight.saturating_sub(1);
        graft_telemetry::counter!("server.replies").add(1);

        // Did this failure quarantine the graft? (The supervisor
        // detaches globally; the *tenant* consequence — parking on the
        // ladder — is the server's decision.) The `Serving` guard is
        // the exactly-once strike: a second trap from the same episode
        // (e.g. a queued request another worker served as
        // `Unavailable` after the detach) finds the tenant already
        // parked and does not strike again.
        let error = match &outcome {
            Outcome::Single(Err(e)) | Outcome::Batch(_, Some(e)) => Some(e),
            _ => None,
        };
        let clean = error.is_none();
        if let Some(e) = error {
            let trapped = e.as_trap().is_some() || matches!(e, GraftError::Unavailable { .. });
            if trapped {
                // Find the job's graft: it is the one the tenant owns
                // that the host now reports quarantined.
                let t = self.tenants.get(&job.tenant).expect("tenant exists");
                let newly_parked = matches!(t.standing, Standing::Serving);
                if newly_parked {
                    let quarantined = t
                        .grafts
                        .iter()
                        .copied()
                        .find(|g| self.host.is_quarantined(*g));
                    if let Some(gid) = quarantined {
                        let base = self.config.backoff_base;
                        let ceiling = self.config.ban_ceiling;
                        let t = self.tenants.get_mut(&job.tenant).expect("tenant exists");
                        t.park(gid, base, ceiling);
                        self.parked.push(job.tenant);
                        self.stats.tenants_quarantined += 1;
                        graft_telemetry::counter!("server.tenants.quarantined").add(1);
                    }
                }
            }
        }

        // Fuel-quota refresh from the authoritative per-graft ledgers,
        // amortized over `fuel_refresh` completions per tenant. With a
        // worker plane active the handles are not resident — workers
        // flush their own handle per batch instead, so the shared
        // ledgers stay no staler than one batch.
        let t = self.tenants.get(&job.tenant).expect("tenant exists");
        let quotas = self.quotas_for(t);
        if quotas.fuel_budget.is_some() && t.accepted.is_multiple_of(self.config.fuel_refresh) {
            if let Some(handle) = self.handles.get_mut(shard) {
                handle.flush();
            }
            let t = self.tenants.get_mut(&job.tenant).expect("tenant exists");
            t.fuel_charged = t
                .grafts
                .iter()
                .filter_map(|g| self.host.ledger(*g))
                .map(|l| l.fuel_used)
                .sum();
        }

        let t = self.tenants.get_mut(&job.tenant).expect("tenant exists");
        let class = t.class;
        t.completed();
        self.class_in_flight[class] = self.class_in_flight[class].saturating_sub(1);

        // A clean dispatch ticks every parked tenant's window — the
        // server-wide analog of the scalar host's "dispatches served
        // without the graft".
        if clean && !self.parked.is_empty() {
            let tenants = &mut self.tenants;
            let mut readmit = Vec::new();
            self.parked.retain(|id| {
                let t = tenants.get_mut(id).expect("tenant exists");
                match t.tick() {
                    Some(gid) => {
                        readmit.push(gid);
                        false
                    }
                    // Banned tenants fall off the tick list.
                    None => matches!(t.standing, Standing::Parked { .. }),
                }
            });
            for gid in readmit {
                self.host.readmit(gid);
                self.stats.tenants_quarantined = self.stats.tenants_quarantined.saturating_sub(1);
            }
        }

        let reply = match outcome {
            Outcome::Single(Ok(value)) => Reply::Value {
                seq: job.seq,
                value,
            },
            Outcome::Single(Err(e)) => Reply::Error {
                seq: job.seq,
                error: WireError::from(&e),
            },
            Outcome::Batch(values, e) => Reply::Batch {
                seq: job.seq,
                values,
                error: e.as_ref().map(WireError::from),
            },
        };
        match self.conns.get_mut(job.conn) {
            Some(c) if c.open => reply.encode_into(&mut c.outbox),
            _ => {
                // The client churned away mid-flight: the accounting
                // above still ran (slots released, strikes recorded),
                // only the bytes have nowhere to go.
                self.stats.orphaned += 1;
                graft_telemetry::counter!("server.replies.orphaned").add(1);
            }
        }
    }

    /// Work still sitting in the plane.
    pub fn backlog(&self) -> usize {
        self.queues.total_depth()
    }

    /// The shard a tenant's work homes to (before any warm-graft
    /// divert) — lets tests and the bench rig pick drain order.
    pub fn home_shard(&self, tenant: u64) -> usize {
        self.queues.home(tenant)
    }

    /// Queued depth of one shard (racy probe while workers run).
    pub fn shard_depth(&self, shard: usize) -> usize {
        self.queues.depth(shard)
    }

    /// Requests admitted but not yet completion-processed (includes
    /// queued, in-invoke, and queued-completion work).
    pub fn in_flight(&self) -> u64 {
        self.total_in_flight
    }

    /// Number of shards serving the data plane.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// A tenant's current ladder standing (None = never connected).
    pub fn tenant_standing(&self, tenant: u64) -> Option<Standing> {
        self.tenants.get(&tenant).map(|t| t.standing)
    }

    /// A tenant's quarantine-trip count (None = never connected).
    pub fn tenant_trips(&self, tenant: u64) -> Option<u32> {
        self.tenants.get(&tenant).map(|t| t.quarantines)
    }

    /// A tenant's admission ledger `(accepted, rejected, in_flight_peak)`.
    pub fn tenant_ledger(&self, tenant: u64) -> Option<(u64, u64, usize)> {
        self.tenants
            .get(&tenant)
            .map(|t| (t.accepted, t.rejected, t.in_flight_peak))
    }

    /// The backing host (for tests asserting host-level state).
    pub fn host(&self) -> &ShardedHost {
        &self.host
    }

    /// Plane stats (steals, diverts…) for the bench report.
    pub fn queue_stats(&self) -> graft_kernel::QueueStats {
        self.queues.stats()
    }

    /// Moves the shard handles out for a worker plane, along with the
    /// shared plane ends the workers need. `fuel_metered` tells the
    /// workers to flush their handle per batch so the pump-side fuel
    /// refresh reads fresh ledgers.
    pub(crate) fn worker_parts(
        &mut self,
    ) -> (
        Vec<ShardHandle>,
        RunQueues<Job>,
        Arc<CompletionQueue<Completion>>,
        bool,
    ) {
        assert!(
            !self.handles.is_empty(),
            "worker plane already owns the handles"
        );
        let fuel_metered = self
            .config
            .classes
            .iter()
            .any(|c| c.weight > 0 && c.quotas.fuel_budget.is_some());
        (
            std::mem::take(&mut self.handles),
            self.queues.clone(),
            Arc::clone(&self.completions),
            fuel_metered,
        )
    }

    /// Returns the handles a worker plane took (already ordered by
    /// shard index by the caller).
    pub(crate) fn restore_handles(&mut self, handles: Vec<ShardHandle>) {
        debug_assert!(self.handles.is_empty());
        self.handles = handles;
    }

    /// Publishes `server.*` gauge-style counters. Called on drop;
    /// idempotent.
    fn publish_telemetry(&mut self) {
        if self.published || !graft_telemetry::enabled() {
            return;
        }
        self.published = true;
        graft_telemetry::counter!("server.served").add(self.stats.served);
        graft_telemetry::counter!("server.tenants").add(self.stats.tenants);
        graft_telemetry::counter!("server.inflight.peak").add(self.stats.inflight_peak);
        graft_telemetry::counter!("server.conns").add(self.conns.len() as u64);
    }
}

impl Drop for GraftServer {
    fn drop(&mut self) {
        self.publish_telemetry();
    }
}
