//! Table 11 (ours): the graft server under multi-tenant service load.
//!
//! The paper prices technologies inside one process; a production
//! extension host is a *served* system — a hundred thousand untrusted
//! tenants installing and invoking grafts over a wire protocol, with
//! admission control deciding what the data plane ever sees. This
//! experiment drives [`graft_server::GraftServer`] through the
//! byte-faithful in-process transport with an open-loop load
//! generator: 100k simulated tenants, each owning one graft in its
//! private namespace, submitting requests over framed connections in
//! bounded cohorts. Requests are keyed into the stealing plane by
//! tenant, so the adaptive run queues serve the data plane and the
//! worker ladder prices its scaling.
//!
//! **Worker-ladder pricing.** The threaded server splits work between
//! one *pump* thread (framing, admission, the serial completion reap)
//! and one *drain worker* per shard (take a batch, invoke, push
//! completions). The rungs run past the host's cores, so each rung is
//! priced on the critical path, as Table 13 prices its shards: the
//! serve phase separately accumulates the serial front-end
//! (`ingest` + `pump` + `reap`) and each shard's busy time
//! (`drain_invoke`, the very function a worker thread loops on), and a
//! rep's critical path is `max(pump + reap, busiest shard)` — the wall
//! clock on a machine with enough idle cores. The native graft carries
//! a calibrated compute lever ([`SPIN`]) so the rung ladder measures
//! worker scaling rather than framing overhead; its gate is native
//! ≥ 2.5x at 4 workers.
//!
//! **Service hazards ride along.** Every cohort serves one *slowloris*
//! frame — an invoke dribbled a few bytes per wave, admitted only when
//! its last byte lands, and still answered correctly — and tenants
//! with `id % 11 == 5` *churn*: mid-rep their transport drops cold (no
//! `Bye`) and re-opens, after which service resumes on the new
//! connection. Tenants with `id % 16 == 0` sit in a weight-1 admission
//! class against the default weight-3 class, so weighted per-tenant
//! admission is exercised at scale.
//!
//! Reported per (technology, arrival-skew, worker-rung) cell:
//!
//! * **p50/p99/p999 service latency** — measured server-side from
//!   admission to completion (the latency sink), pooled over reps;
//! * **saturation throughput** — requests over the serve-phase
//!   critical path, best rep;
//! * **serial fraction** — the pump thread's share of the critical
//!   path (how close the front-end is to becoming the bottleneck);
//! * **cross-tenant leakage** — every reply's value is checked against
//!   the submitting tenant's expected tag; any foreign verdict counts.
//!
//! The **noisy-neighbor drill** then replays identical victim traffic
//! twice — once quiet, once alongside a saboteur tenant whose graft
//! divides by zero until the supervisor quarantines it and the server
//! bans the tenant — and compares victim p99 across the two runs. The
//! gates ([`Table11::gates`]): ≥ 100k tenants, zero leakage, native
//! worker scaling ≥ 2.5x at 4, saboteur quarantined, victim p99 within
//! 2x.

use std::time::{Duration, Instant};

use graft_api::{
    GraftClass, GraftError, GraftSpec, Motivation, NativeGraft, RegionSpec, RegionStore,
    Technology, Trap,
};
use graft_rng::SmallRng;
use graft_server::{
    GraftClient, GraftServer, QuotaClass, Reply, ServerConfig, Standing, TenantQuotas, MAX_CLASSES,
};
use kernsim::stats::Sample;

use super::table13::Skew;
use super::RunConfig;
use crate::gate::{Cmp, Gate};
use crate::manager::GraftManager;

/// The service ladder: the paper-scale 1/2/4/8 worker rungs.
pub const LADDER11: [usize; 4] = [1, 2, 4, 8];

/// Technologies served: the cheapest dispatch and the headline safe
/// technology, as in Table 13.
pub const TECHS11: [Technology; 2] = [Technology::RustNative, Technology::SafeCompiled];

/// Arrival skews driven by default: uniform and 80-20 (`--arrival`
/// restricts to one, and also admits the 99-1 spelling).
pub const ARRIVALS11: [Skew; 2] = [Skew::Uniform, Skew::Skew8020];

/// Victim requests each drill victim submits.
const DRILL_PER_VICTIM: usize = 48;

/// Compute lever in the native tag graft: iterations of a dependent
/// multiply-add chain per invoke, modelling a few microseconds of real
/// extension work. Sized so four workers' share of the busy time still
/// dominates the serial pump+reap path — the scaling gate measures the
/// workers, not the framer.
const SPIN: u64 = 4096;

/// Tenants with this residue mod 11 churn their transport mid-rep.
const CHURN_RESIDUE: u64 = 5;

/// Tenants with this residue mod 16 land in the light admission class.
const LIGHT_RESIDUE: u64 = 0;

/// Simulated population shape: how many tenants exist and how many
/// connections a serving cohort keeps open at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceLoad {
    /// Tenant population requests are drawn from (`--tenants`).
    pub tenants: usize,
    /// Open connections per cohort (`--conns`): active tenants are
    /// served in cohorts of this many simultaneously-open framed
    /// connections.
    pub conns: usize,
}

impl Default for ServiceLoad {
    fn default() -> Self {
        ServiceLoad {
            tenants: 100_000,
            conns: 64,
        }
    }
}

/// One cell's service measurement.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// Serve-phase critical path divided by requests (the regression
    /// envelope surface).
    pub per_request: Sample,
    /// Saturation throughput in thousand requests/second, best rep.
    pub throughput_krps: f64,
    /// Median service latency (admission to completion), pooled reps.
    pub p50_ns: u64,
    /// 99th-percentile service latency.
    pub p99_ns: u64,
    /// 99.9th-percentile service latency.
    pub p999_ns: u64,
    /// Requests served to completion across all reps.
    pub served: u64,
    /// Typed refusals across all reps (0 in a well-sized run).
    pub rejected: u64,
    /// Tenants that actually appeared in the drawn trace.
    pub distinct_tenants: usize,
    /// Items the adaptive plane stole across shards.
    pub steals: u64,
    /// Items placed away from their home shard at submit time.
    pub diverted: u64,
    /// Serial front-end (pump + reap) share of the best rep's critical
    /// path.
    pub serial_frac: f64,
    /// Connections dropped cold and re-opened mid-rep, all reps.
    pub churned: u64,
    /// Slowloris frames dribbled byte-wise across waves and served.
    pub slowloris: u64,
}

/// One (technology, arrival) pair at one worker count.
#[derive(Debug, Clone)]
pub struct Table11Cell {
    /// Drain workers serving the data plane (= shards).
    pub shards: usize,
    /// The cell's measurement.
    pub service: ServiceResult,
}

/// One technology's ladder under one arrival skew.
#[derive(Debug, Clone)]
pub struct Table11Row {
    /// Technology hosting every tenant's graft.
    pub tech: Technology,
    /// Arrival skew of the drawn request trace.
    pub arrival: Skew,
    /// One cell per ladder rung, ascending.
    pub cells: Vec<Table11Cell>,
}

impl Table11Row {
    /// The cell at a worker count.
    pub fn cell(&self, shards: usize) -> Option<&Table11Cell> {
        self.cells.iter().find(|c| c.shards == shards)
    }

    /// Critical-path speedup of the `shards`-worker rung over one
    /// worker (throughputs are over identical per-rep work, so the
    /// ratio is the scaling factor).
    pub fn worker_scaling(&self, shards: usize) -> Option<f64> {
        let base = self.cell(1)?;
        let top = self.cell(shards)?;
        Some(top.service.throughput_krps / base.service.throughput_krps)
    }
}

/// The noisy-neighbor drill: identical victim traffic, quiet vs with a
/// trapping saboteur tenant.
#[derive(Debug, Clone)]
pub struct Table11Drill {
    /// Shards serving the drill.
    pub shards: usize,
    /// Victim tenants.
    pub victims: usize,
    /// Requests each victim submits.
    pub per_victim: usize,
    /// Victim p99 with no saboteur (best rep).
    pub quiet_p99_ns: u64,
    /// Victim p99 with the saboteur active (best rep).
    pub noisy_p99_ns: u64,
    /// `noisy_p99 / quiet_p99`, gated at 2x (NaN or infinite fails).
    pub victim_p99_ratio: f64,
    /// Whether the saboteur tenant ended the noisy runs banned or
    /// parked (every rep).
    pub saboteur_quarantined: bool,
    /// Saboteur requests refused at admission after the ban.
    pub saboteur_rejections: u64,
    /// Victim requests served in the noisy run (must be all of them).
    pub victim_served: u64,
}

/// Table 11: the graft server across technologies, arrivals, and the
/// worker ladder, plus the noisy-neighbor drill.
#[derive(Debug, Clone)]
pub struct Table11 {
    /// Rows in (technology, arrival) order.
    pub rows: Vec<Table11Row>,
    /// The worker counts measured, ascending.
    pub ladder: Vec<usize>,
    /// Tenant population.
    pub tenants: usize,
    /// Open connections per cohort.
    pub conns: usize,
    /// Requests drawn per cell per rep.
    pub requests: usize,
    /// Timing reps per cell.
    pub runs: usize,
    /// Replies whose value did not match the submitting tenant's
    /// expected tag, across every cell and the drill. Gate: zero.
    pub leaked: u64,
    /// The noisy-neighbor drill.
    pub drill: Table11Drill,
}

impl Table11 {
    /// The row for a (technology, arrival) pair.
    pub fn row(&self, tech: Technology, arrival: Skew) -> Option<&Table11Row> {
        self.rows
            .iter()
            .find(|r| r.tech == tech && r.arrival == arrival)
    }

    /// Connections churned (dropped cold + re-opened) across all cells.
    pub fn churned(&self) -> u64 {
        self.rows
            .iter()
            .flat_map(|r| &r.cells)
            .map(|c| c.service.churned)
            .sum()
    }

    /// Slowloris frames dribbled and served across all cells.
    pub fn slowloris(&self) -> u64 {
        self.rows
            .iter()
            .flat_map(|r| &r.cells)
            .map(|c| c.service.slowloris)
            .sum()
    }

    /// The verdicts: the run is multi-tenant at scale (>= 100,000
    /// tenants); native throughput at 4 drain workers beats 1 worker by
    /// at least 2.5x on the uniform trace; no reply carries another
    /// tenant's value; the victims' p99 under attack stays within 2x of
    /// the quiet baseline; and the saboteur ends the drill quarantined.
    pub fn gates(&self) -> Vec<Gate> {
        let scaling = self
            .row(Technology::RustNative, Skew::Uniform)
            .and_then(|r| r.worker_scaling(4));
        vec![
            Gate::new("tenants", Some(self.tenants as f64), Cmp::Ge, 100_000.0),
            Gate::new("native worker scaling @4", scaling, Cmp::Ge, 2.5),
            Gate::zero("cross-tenant leakage", self.leaked),
            Gate::new(
                "noisy victim p99 / quiet p99",
                Some(self.drill.victim_p99_ratio),
                Cmp::Le,
                2.0,
            ),
            Gate::holds("saboteur quarantined", self.drill.saboteur_quarantined),
        ]
    }
}

/// Grail source for the tenant-tag graft: `select_victim(tenant, x)`
/// returns the tenant-unique tag `tenant * 31 + x`, and divides by
/// zero when `x == 0` (the saboteur's payload).
const TAG_GRAIL: &str = r#"
// Tenant tag: a verdict no other tenant's graft can produce, plus a
// deterministic trap lever (x == 0 divides by zero).

fn select_victim(tenant: int, x: int) -> int {
    return tenant * 31 + x + x / x - 1;
}
"#;

/// Native implementation of the same tag, carrying the [`SPIN`] work
/// lever (the interpreted grail pays its work in interpretation; the
/// native graft models an extension doing real compute).
#[derive(Debug, Default)]
struct NativeTag;

impl NativeGraft for NativeTag {
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        _regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        if entry != "select_victim" {
            return Err(graft_api::engine::no_such_entry(entry));
        }
        if args[1] == 0 {
            return Err(Trap::DivByZero.into());
        }
        let mut acc = args[0] as u64 ^ 0x9E37_79B9_7F4A_7C15;
        for _ in 0..SPIN {
            acc = acc
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(args[1] as u64);
        }
        std::hint::black_box(acc);
        Ok(args[0] * 31 + args[1])
    }
}

/// The tenant-tag graft package.
fn tag_spec() -> GraftSpec {
    GraftSpec::new("tenant-tag", GraftClass::BlackBox, Motivation::Functionality)
        .region(RegionSpec::data("scratch", 8))
        .entry("select_victim", 2)
        .with_grail(TAG_GRAIL)
        .with_native(Box::new(|| Box::<NativeTag>::default()))
}

/// Spec name on the wire.
const SPEC: &str = "tag";

/// VmEvict attach-point code on the wire (Install frame).
const POINT_VM_EVICT: u8 = 0;

/// Requests drawn per cell per rep.
fn requests_for(cfg: &RunConfig) -> usize {
    (cfg.evict_iters * 4).clamp(256, 40_000)
}

/// Submission wave between pump/drain rounds.
fn wave_for(shards: usize) -> usize {
    (shards * 16).max(16)
}

/// Draws one tenant id from a population of `n` under `arrival`.
fn draw_tenant(arrival: Skew, rng: &mut SmallRng, n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    match arrival {
        Skew::Uniform => rng.bounded_u64(n),
        Skew::Skew8020 => {
            let hot = (n / 5).max(1);
            if rng.gen_f64() < 0.8 {
                rng.bounded_u64(hot)
            } else {
                hot + rng.bounded_u64(n - hot)
            }
        }
        Skew::Skew9901 => {
            if rng.gen_f64() < 0.99 {
                0
            } else {
                1 + rng.bounded_u64(n - 1)
            }
        }
    }
}

/// Index into a sorted latency pool at `num/den` of the way up.
fn percentile(sorted: &[u64], num: usize, den: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * num / den).min(sorted.len() - 1)]
}

/// A fresh server for one cell/drill: one-graft-per-tenant quotas, the
/// stealing plane, a 3:1 weighted class split, the `tag` spec loaded
/// through [`GraftManager`], and the latency sink armed.
fn tag_server(shards: usize, backoff_base: u64) -> GraftServer {
    let quotas = TenantQuotas {
        max_grafts: 1,
        fuel_budget: None,
        max_in_flight: 64,
    };
    let mut classes = [QuotaClass::UNUSED; MAX_CLASSES];
    classes[0] = QuotaClass { weight: 3, quotas };
    classes[1] = QuotaClass { weight: 1, quotas };
    let mut server = GraftServer::new(ServerConfig {
        shards,
        quotas,
        classes,
        backoff_base,
        ..ServerConfig::default()
    });
    let manager = GraftManager::new();
    server.register_spec(SPEC, Box::new(move |tech| manager.load(&tag_spec(), tech)));
    server.collect_latency(true);
    server
}

/// One tenant's open connection inside a serving cohort.
struct Session {
    tenant: u64,
    client: GraftClient,
    graft: u64,
    /// `(seq, k)` for every invoke submitted and not yet verified.
    sent: Vec<(u32, i64)>,
    /// Requests still to submit this rep.
    remaining: usize,
    /// Submitted since the last drain (per-tenant in-flight bound).
    outstanding: usize,
    /// Drop the transport cold once `remaining` falls to this.
    churn_at: Option<usize>,
    /// A slowloris frame is mid-dribble on this connection: nothing
    /// else may be written until its last byte lands.
    dribbling: bool,
}

/// Per-rep critical-path clock: the serial front-end (pump + reap) on
/// one side, each drain worker's busy time on the other.
struct ServeClock {
    pump: Duration,
    reap: Duration,
    busy: Vec<Duration>,
}

impl ServeClock {
    fn new(shards: usize) -> Self {
        ServeClock {
            pump: Duration::ZERO,
            reap: Duration::ZERO,
            busy: vec![Duration::ZERO; shards],
        }
    }

    /// The serial pump thread's total.
    fn serial(&self) -> Duration {
        self.pump + self.reap
    }

    /// Wall clock on a machine with enough idle cores: the slower of
    /// the pump thread and the busiest drain worker.
    fn critical(&self) -> Duration {
        self.serial()
            .max(self.busy.iter().copied().max().unwrap_or_default())
    }

    /// Serial share of the critical path.
    fn serial_frac(&self) -> f64 {
        let c = self.critical().as_nanos().max(1) as f64;
        self.serial().as_nanos() as f64 / c
    }
}

/// Mutable bookkeeping one cohort serve threads through.
struct ServeOps<'a> {
    clock: &'a mut ServeClock,
    next_k: &'a mut [i64],
    leaked: &'a mut u64,
    churned: &'a mut u64,
    slowloris: &'a mut u64,
    /// The drill's trapping tenant: always submits `x == 0`.
    saboteur: Option<u64>,
    /// Arm one slowloris dribble for this cohort.
    dribble: bool,
}

/// Counts replies that are values but not the submitting tenant's own
/// tag — the leakage metric.
fn tally_foreign(tenant: u64, sent: &[(u32, i64)], replies: &[Reply]) -> u64 {
    let mut leaked = 0u64;
    for r in replies {
        if let Reply::Value { seq, value } = r {
            match sent.iter().find(|(q, _)| q == seq) {
                Some(&(_, k)) if *value == tenant as i64 * 31 + k => {}
                _ => leaked += 1,
            }
        }
    }
    leaked
}

/// Opens one cohort: hello every tenant, install its graft on first
/// contact (ids persist per tenant across cohorts and reps), and put
/// light-residue tenants in the weight-1 admission class. Untimed —
/// connection churn is not the service cost under measurement.
fn open_cohort(
    server: &mut GraftServer,
    tech: u8,
    tenants: &[(u64, usize)],
    grafts: &mut [Option<u64>],
) -> Vec<Session> {
    let mut sessions = Vec::with_capacity(tenants.len());
    for &(tenant, remaining) in tenants {
        if tenant % 16 == LIGHT_RESIDUE {
            server.assign_class(tenant, 1);
        }
        let conn = server.connect();
        let mut client = GraftClient::new(conn);
        let hello = client.hello(tenant);
        server.ingest(conn, &hello);
        let graft = match grafts[tenant as usize] {
            Some(g) => {
                server.pump_conn(conn);
                let _ = server.take_outbound(conn); // discard the Welcome
                g
            }
            None => {
                let install = client.install(POINT_VM_EVICT, tech, SPEC);
                server.ingest(conn, &install);
                server.pump_conn(conn);
                let out = server.take_outbound(conn);
                let replies = client.on_bytes(&out).expect("well-formed frames");
                let g = replies
                    .iter()
                    .find_map(|r| match r {
                        Reply::Installed { graft, .. } => Some(*graft),
                        _ => None,
                    })
                    .unwrap_or_else(|| panic!("install failed for t{tenant}: {replies:?}"));
                grafts[tenant as usize] = Some(g);
                g
            }
        };
        sessions.push(Session {
            tenant,
            client,
            graft,
            sent: Vec::with_capacity(remaining),
            remaining,
            outstanding: 0,
            churn_at: None,
            dribbling: false,
        });
    }
    sessions
}

/// Serves one cohort to completion: round-robin wave submission, then
/// per wave a *timed pump* (ingest + frame decode + admission), timed
/// per-shard *drain rounds* (each `drain_invoke` is exactly one
/// worker-thread loop body), and a timed serial *reap*. Client-side
/// frame encoding, churn reconnects, and verification stay off the
/// clock. The saboteur id (if any) always submits the trap payload
/// `x == 0`; everyone else advances its per-tenant counter.
fn serve_cohort(
    server: &mut GraftServer,
    sessions: &mut [Session],
    wave: usize,
    ops: &mut ServeOps,
) {
    // Keep per-tenant in-flight under the admission cap (64) even when
    // one hot tenant is the only submitter left in the cohort.
    const OUT_CAP: usize = 32;
    let shards = server.shards();
    let len = sessions.len();
    // A rotating cursor, not a restart-from-zero scan: every session
    // keeps submitting across waves (fair interleaving), so a noisy
    // tenant's traffic genuinely competes with everyone else's.
    let mut cursor = 0usize;

    // Arm the cohort's slowloris: the first eligible session's next
    // invoke arrives a few bytes per wave. Its connection carries
    // nothing else until the frame completes.
    let mut dribble: Option<(usize, Vec<u8>, usize)> = None;
    if ops.dribble {
        if let Some(i) = sessions
            .iter()
            .position(|s| s.remaining > 0 && s.churn_at.is_none())
        {
            let s = &mut sessions[i];
            let k = if ops.saboteur == Some(s.tenant) {
                0
            } else {
                let k = ops.next_k[s.tenant as usize];
                ops.next_k[s.tenant as usize] += 1;
                k
            };
            let (seq, bytes) = s.client.invoke(s.graft, 0, &[s.tenant as i64, k]);
            s.sent.push((seq, k));
            s.remaining -= 1;
            s.dribbling = true;
            dribble = Some((i, bytes, 0));
        }
    }

    loop {
        // Encode this wave's frames client-side — not a server cost.
        let mut frames: Vec<(usize, Vec<u8>)> = Vec::with_capacity(wave);
        let mut sent = 0usize;
        let mut skipped = 0usize;
        while sent < wave && skipped < len {
            let s = &mut sessions[cursor % len];
            cursor += 1;
            if s.remaining == 0 || s.outstanding >= OUT_CAP || s.dribbling {
                skipped += 1;
                continue;
            }
            skipped = 0;
            let k = if ops.saboteur == Some(s.tenant) {
                0
            } else {
                let k = ops.next_k[s.tenant as usize];
                ops.next_k[s.tenant as usize] += 1;
                k
            };
            let (seq, bytes) = s.client.invoke(s.graft, 0, &[s.tenant as i64, k]);
            frames.push((s.client.conn, bytes));
            s.sent.push((seq, k));
            s.remaining -= 1;
            s.outstanding += 1;
            sent += 1;
        }
        if sent == 0 && dribble.is_none() {
            break;
        }

        // Timed: the pump thread's front-end — raw bytes in, frames
        // decoded, admission verdicts, jobs enqueued.
        let t = Instant::now();
        let mut dribble_done = false;
        let mut conns: Vec<usize> = Vec::with_capacity(frames.len() + 1);
        if let Some((i, bytes, off)) = dribble.as_mut() {
            let chunk = (bytes.len() / 6).max(1);
            let end = (*off + chunk).min(bytes.len());
            let conn = sessions[*i].client.conn;
            server.ingest(conn, &bytes[*off..end]);
            *off = end;
            conns.push(conn);
            if end == bytes.len() {
                sessions[*i].dribbling = false;
                dribble_done = true;
            }
        }
        for (conn, bytes) in &frames {
            server.ingest(*conn, bytes);
            conns.push(*conn);
        }
        conns.sort_unstable();
        conns.dedup();
        for conn in conns {
            server.pump_conn(conn);
        }
        ops.clock.pump += t.elapsed();
        if dribble_done {
            dribble = None;
            *ops.slowloris += 1;
        }

        // Timed per shard: round-robin single-batch drain rounds, one
        // `drain_invoke` per non-empty shard per round — each shard's
        // accumulated time is what its worker thread would burn.
        while server.backlog() > 0 {
            for shard in 0..shards {
                if server.shard_depth(shard) == 0 {
                    continue;
                }
                let t = Instant::now();
                server.drain_invoke(shard);
                ops.clock.busy[shard] += t.elapsed();
            }
        }

        // Timed: the serial completion reap back on the pump thread.
        let t = Instant::now();
        while server.in_flight() > 0 {
            if server.reap() == 0 {
                break;
            }
        }
        ops.clock.reap += t.elapsed();

        for s in sessions.iter_mut() {
            s.outstanding = 0;
        }

        // Untimed: transport churn. A churner whose submitted half has
        // fully completed verifies it, drops the connection cold (no
        // Bye), and re-hellos on a fresh connection.
        for s in sessions.iter_mut() {
            let Some(at) = s.churn_at else { continue };
            if s.remaining > at {
                continue;
            }
            s.churn_at = None;
            let out = server.take_outbound(s.client.conn);
            let replies = s.client.on_bytes(&out).expect("well-formed frames");
            *ops.leaked += tally_foreign(s.tenant, &s.sent, &replies);
            s.sent.clear();
            server.disconnect(s.client.conn);
            let conn = server.connect();
            let mut client = GraftClient::new(conn);
            let hello = client.hello(s.tenant);
            server.ingest(conn, &hello);
            server.pump_conn(conn);
            let _ = server.take_outbound(conn); // discard the Welcome
            s.client = client;
            *ops.churned += 1;
        }
    }
}

/// Verifies every reply each session accumulated against the
/// submitting tenant's expected tag, then closes the connection.
/// Returns the number of foreign or mismatched verdicts. Untimed.
fn verify_and_close(server: &mut GraftServer, sessions: Vec<Session>) -> u64 {
    let mut leaked = 0u64;
    for mut s in sessions {
        let out = server.take_outbound(s.client.conn);
        let replies = s.client.on_bytes(&out).expect("well-formed frames");
        leaked += tally_foreign(s.tenant, &s.sent, &replies);
        let bye = s.client.bye();
        server.ingest(s.client.conn, &bye);
        server.pump_conn(s.client.conn);
        let _ = server.take_outbound(s.client.conn);
    }
    leaked
}

/// Runs one (technology, arrival, workers) cell.
fn cell_run(
    cfg: &RunConfig,
    tech: Technology,
    arrival: Skew,
    shards: usize,
    load: &ServiceLoad,
    leaked: &mut u64,
) -> Result<Table11Cell, GraftError> {
    let tech_code = Technology::ALL
        .iter()
        .position(|&t| t == tech)
        .expect("known technology") as u8;
    let requests = requests_for(cfg);
    let reps = cfg.runs.clamp(1, 3);
    let population = load.tenants.max(1);
    let wave = wave_for(shards);

    // The drawn trace: per-tenant request counts, fixed per cell so
    // every rep serves identical work.
    let mut rng = SmallRng::seed_from_u64(
        0x1100 + shards as u64 + ((arrival as u64) << 8) + ((tech_code as u64) << 16),
    );
    let mut counts = vec![0usize; population];
    for _ in 0..requests {
        counts[draw_tenant(arrival, &mut rng, population as u64) as usize] += 1;
    }
    let active: Vec<(u64, usize)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(t, &c)| (t as u64, c))
        .collect();

    let mut server = tag_server(shards, ServerConfig::default().backoff_base);
    let mut grafts = vec![None; population];
    let mut next_k = vec![1i64; population];
    let mut criticals = Vec::with_capacity(reps);
    let mut pool: Vec<u64> = Vec::with_capacity(requests * reps);
    let mut churned = 0u64;
    let mut slowloris = 0u64;
    let mut best = Duration::MAX;
    let mut serial_frac = 1.0f64;
    for _ in 0..reps {
        let mut clock = ServeClock::new(shards);
        for cohort in active.chunks(load.conns.max(1)) {
            let mut sessions = open_cohort(&mut server, tech_code, cohort, &mut grafts);
            for s in sessions.iter_mut() {
                if s.tenant % 11 == CHURN_RESIDUE && s.remaining >= 2 {
                    s.churn_at = Some(s.remaining / 2);
                }
            }
            let mut ops = ServeOps {
                clock: &mut clock,
                next_k: &mut next_k,
                leaked,
                churned: &mut churned,
                slowloris: &mut slowloris,
                saboteur: None,
                dribble: true,
            };
            serve_cohort(&mut server, &mut sessions, wave, &mut ops);
            *leaked += verify_and_close(&mut server, sessions);
        }
        let critical = clock.critical();
        if critical < best {
            best = critical;
            serial_frac = clock.serial_frac();
        }
        criticals.push(critical);
        pool.extend(server.take_latencies().into_iter().map(|(_, ns)| ns));
    }
    pool.sort_unstable();

    let stats = server.stats();
    let q = server.queue_stats();
    let critical = Sample::from_runs(&criticals);
    Ok(Table11Cell {
        shards,
        service: ServiceResult {
            throughput_krps: requests as f64 * 1e6 / critical.best_ns(),
            per_request: critical.per(requests),
            p50_ns: percentile(&pool, 1, 2),
            p99_ns: percentile(&pool, 99, 100),
            p999_ns: percentile(&pool, 999, 1000),
            served: stats.served,
            rejected: stats.rejected_overloaded + stats.rejected_quota + stats.rejected_quarantined,
            distinct_tenants: active.len(),
            steals: q.steals,
            diverted: q.diverted,
            serial_frac,
            churned,
            slowloris,
        },
    })
}

/// One drill pass: `victims` tenants submit identical traffic; when
/// `saboteur` is true an extra tenant interleaves divide-by-zero
/// payloads until the supervisor quarantines its graft and the server
/// bans the tenant (`backoff_base: 0` makes the park permanent).
/// Returns `(victim p99, victim served, leaked, admission rejections,
/// saboteur quarantined)`.
fn drill_run(
    shards: usize,
    victims: usize,
    per_victim: usize,
    saboteur: bool,
) -> (u64, u64, u64, u64, bool) {
    let sab_id = victims as u64;
    let population = victims + 1;
    let mut server = tag_server(shards, 0);
    let mut grafts = vec![None; population];
    let mut next_k = vec![1i64; population];

    let mut cohort: Vec<(u64, usize)> = (0..victims as u64).map(|t| (t, per_victim)).collect();
    if saboteur {
        // Front of the cohort: the saboteur's traps land while victim
        // traffic is in flight, which is the scenario under test.
        cohort.insert(0, (sab_id, per_victim.min(32)));
    }
    let mut sessions = open_cohort(&mut server, 0, &cohort, &mut grafts);
    let mut clock = ServeClock::new(shards);
    let (mut serve_leaked, mut churned, mut slowloris) = (0u64, 0u64, 0u64);
    let mut ops = ServeOps {
        clock: &mut clock,
        next_k: &mut next_k,
        leaked: &mut serve_leaked,
        churned: &mut churned,
        slowloris: &mut slowloris,
        saboteur: saboteur.then_some(sab_id),
        dribble: false,
    };
    serve_cohort(&mut server, &mut sessions, wave_for(shards), &mut ops);

    let mut victim_lat: Vec<u64> = server
        .take_latencies()
        .into_iter()
        .filter(|&(t, _)| t != sab_id)
        .map(|(_, ns)| ns)
        .collect();
    victim_lat.sort_unstable();
    let victim_served = victim_lat.len() as u64;

    // Verify victims only — the saboteur's replies are traps and
    // refusals by design; its connection is just drained and closed.
    let mut leaked = serve_leaked;
    for s in sessions {
        if s.tenant == sab_id {
            let mut c = s.client;
            let out = server.take_outbound(c.conn);
            let _ = c.on_bytes(&out);
            let bye = c.bye();
            server.ingest(c.conn, &bye);
            server.pump_conn(c.conn);
            let _ = server.take_outbound(c.conn);
        } else {
            leaked += verify_and_close(&mut server, vec![s]);
        }
    }

    let quarantined = matches!(
        server.tenant_standing(sab_id),
        Some(Standing::Banned) | Some(Standing::Parked { .. })
    );
    (
        percentile(&victim_lat, 99, 100),
        victim_served,
        leaked,
        server.stats().rejected_quarantined,
        quarantined,
    )
}

/// Runs the noisy-neighbor drill: paired quiet/noisy passes per rep,
/// reporting the best (minimum) p99 of each side — the repo's robust
/// estimator convention, which keeps the ratio gate CI-stable.
fn drill(cfg: &RunConfig, ladder: &[usize], leaked: &mut u64) -> Table11Drill {
    let shards = ladder.iter().copied().max().unwrap_or(1).min(4);
    let victims = 96;
    let reps = cfg.runs.clamp(1, 3);

    let mut quiet_best = u64::MAX;
    let mut noisy_best = u64::MAX;
    let mut victim_served = 0;
    let mut rejections = 0;
    let mut quarantined = true;
    for _ in 0..reps {
        let (qp99, _, ql, _, _) = drill_run(shards, victims, DRILL_PER_VICTIM, false);
        let (np99, nserved, nl, nrej, nq) = drill_run(shards, victims, DRILL_PER_VICTIM, true);
        *leaked += ql + nl;
        quiet_best = quiet_best.min(qp99.max(1));
        noisy_best = noisy_best.min(np99.max(1));
        victim_served = nserved;
        rejections = nrej;
        quarantined &= nq;
    }
    Table11Drill {
        shards,
        victims,
        per_victim: DRILL_PER_VICTIM,
        quiet_p99_ns: quiet_best,
        noisy_p99_ns: noisy_best,
        victim_p99_ratio: noisy_best as f64 / quiet_best as f64,
        saboteur_quarantined: quarantined,
        saboteur_rejections: rejections,
        victim_served,
    }
}

/// Runs the Table 11 experiment over `ladder` (ascending worker
/// counts; pass `&LADDER11` for the default 1/2/4/8), both default
/// arrivals, and the default 100k-tenant population.
pub fn table11(cfg: &RunConfig, ladder: &[usize]) -> Result<Table11, GraftError> {
    table11_with(cfg, ladder, &ARRIVALS11, &ServiceLoad::default())
}

/// [`table11`] restricted to `arrivals` (the `--arrival` flag) and a
/// custom population shape (`--tenants`/`--conns`).
pub fn table11_with(
    cfg: &RunConfig,
    ladder: &[usize],
    arrivals: &[Skew],
    load: &ServiceLoad,
) -> Result<Table11, GraftError> {
    let _span = graft_telemetry::span!("table11_server");
    assert!(!ladder.is_empty(), "empty shard ladder");
    assert!(!arrivals.is_empty(), "empty arrival list");
    let mut leaked = 0u64;
    let mut rows = Vec::new();
    for tech in TECHS11 {
        for &arrival in arrivals {
            let mut cells = Vec::new();
            for &shards in ladder {
                cells.push(cell_run(cfg, tech, arrival, shards, load, &mut leaked)?);
            }
            rows.push(Table11Row {
                tech,
                arrival,
                cells,
            });
        }
    }
    let drill = drill(cfg, ladder, &mut leaked);
    Ok(Table11 {
        rows,
        ladder: ladder.to_vec(),
        tenants: load.tenants,
        conns: load.conns,
        requests: requests_for(cfg),
        runs: cfg.runs.clamp(1, 3),
        leaked,
        drill,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            runs: 1,
            evict_iters: 64,
            script_evict_iters: 8,
            md5_bytes: 128,
            script_md5_bytes: 128,
            ld_writes: 64,
            ld_blocks: 64,
            live: false,
            faults: None,
        }
    }

    fn small_load() -> ServiceLoad {
        ServiceLoad {
            tenants: 200,
            conns: 16,
        }
    }

    #[test]
    fn every_cell_serves_everything_and_nothing_leaks() {
        let t = table11_with(&tiny(), &[1, 2], &ARRIVALS11, &small_load()).unwrap();
        assert_eq!(t.rows.len(), TECHS11.len() * ARRIVALS11.len());
        assert_eq!(t.leaked, 0, "cross-tenant verdict leakage");
        let per_rep = requests_for(&tiny()) as u64;
        for row in &t.rows {
            assert_eq!(row.cells.len(), 2);
            for c in &row.cells {
                let s = &c.service;
                assert_eq!(s.served, per_rep, "{} {}", row.tech, row.arrival.name());
                assert_eq!(s.rejected, 0);
                assert!(s.throughput_krps > 0.0);
                assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns);
                assert!(s.p50_ns > 0);
                assert!(s.distinct_tenants > 0 && s.distinct_tenants <= 200);
                assert!(s.serial_frac > 0.0 && s.serial_frac <= 1.0);
            }
        }
    }

    #[test]
    fn churn_and_slowloris_ride_along_without_leaking() {
        let t = table11_with(&tiny(), &[1, 2], &ARRIVALS11, &small_load()).unwrap();
        assert!(t.slowloris() > 0, "no cohort dribbled a frame");
        assert!(t.churned() > 0, "no tenant churned its transport");
        assert_eq!(t.leaked, 0);
    }

    #[test]
    fn worker_scaling_is_reported_over_the_ladder() {
        let mut t = table11_with(&tiny(), &[1, 2], &[Skew::Uniform], &small_load()).unwrap();
        let row = t.row(Technology::RustNative, Skew::Uniform).unwrap();
        let s = row.worker_scaling(2).unwrap();
        assert!(s.is_finite() && s > 0.0);
        assert!(row.worker_scaling(8).is_none(), "rung not measured");

        let gate = |t: &Table11, name: &str| t.gates().into_iter().find(|g| g.name == name);
        // No 4-worker rung: the scaling gate is unmeasured, not skipped.
        let scaling = gate(&t, "native worker scaling @4").unwrap();
        assert!(scaling.value.is_none() && !scaling.passes());
        assert!(gate(&t, "cross-tenant leakage").unwrap().passes());
        // A zero quiet p99 makes noisy/quiet NaN (or inf); either fails.
        for ratio in [f64::NAN, f64::INFINITY] {
            t.drill.victim_p99_ratio = ratio;
            let noisy = gate(&t, "noisy victim p99 / quiet p99").unwrap();
            assert!(!noisy.passes(), "{noisy}");
        }
        let report = crate::report::render_table11(&t);
        assert!(report.contains("gate: noisy victim p99 / quiet p99 = inf (<= 2) FAIL"));
    }

    #[test]
    fn skewed_arrivals_concentrate_the_tenant_set() {
        let t = table11_with(&tiny(), &[1], &ARRIVALS11, &small_load()).unwrap();
        let uni = t.row(Technology::RustNative, Skew::Uniform).unwrap();
        let hot = t.row(Technology::RustNative, Skew::Skew8020).unwrap();
        assert!(
            hot.cells[0].service.distinct_tenants < uni.cells[0].service.distinct_tenants,
            "80-20 hit {} tenants, uniform {}",
            hot.cells[0].service.distinct_tenants,
            uni.cells[0].service.distinct_tenants
        );
    }

    #[test]
    fn noisy_drill_quarantines_the_saboteur_and_victims_keep_serving() {
        let t = table11_with(&tiny(), &[2], &[Skew::Uniform], &small_load()).unwrap();
        let d = &t.drill;
        assert!(d.saboteur_quarantined, "{d:?}");
        assert!(d.saboteur_rejections > 0, "{d:?}");
        assert_eq!(d.victim_served, (d.victims * d.per_victim) as u64, "{d:?}");
        assert!(d.victim_p99_ratio.is_finite() && d.victim_p99_ratio > 0.0);
        assert_eq!(t.leaked, 0);
    }

    #[test]
    fn tenant_draws_cover_the_population_shapes() {
        let mut rng = SmallRng::seed_from_u64(7);
        for arrival in Skew::ALL {
            for _ in 0..100 {
                assert!(draw_tenant(arrival, &mut rng, 50) < 50);
            }
            assert_eq!(draw_tenant(arrival, &mut rng, 1), 0);
        }
    }
}
