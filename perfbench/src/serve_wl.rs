//! The `serve` family: the tenants' view of the graft server.
//!
//! One thread is both the request generator and the server's pump; a
//! live worker plane (one drain worker per remaining core) invokes the
//! grafts. The transport is in-process but byte-faithful: every frame a
//! [`GraftClient`] encodes goes through `ingest`, and every reply comes
//! back through `take_outbound` and `on_bytes`.
//!
//! Each connection is one tenant session: Hello, Install of the tenant's
//! own Grail tag graft under Modula-3, Bind, a run of invokes pipelined
//! up to the tenant's in-flight cap, then Uninstall (so the tenant's next
//! session can install again within its one-graft quota) and Bye.
//! Tenants are drawn 80/20 from a large population. A closed-loop phase
//! gives throughput; an open-loop phase at a fixed rate gives
//! client-observed latency, timed from when each request was due. A run
//! of the family is many short pairs of the two phases, so that it can
//! be spread over the whole run between the other families' slices.

use std::sync::Arc;

use graft_api::{GraftClass, GraftError, GraftSpec, Motivation};
use graft_rng::SmallRng;
use graft_server::{
    GraftClient, GraftServer, Reply, ServerConfig, ServerStats, TenantQuotas, WorkerPlane,
    WorkerStats,
};

use crate::common::{Budget, Tally};
use crate::probe::{now_ns, SpanLog, Tap, Tapped};
use crate::report::Metrics;
use crate::stats;
use crate::tech::{self, Tech};

/// Tenant `tenant`'s graft: its tag is compiled into its code, so a
/// reply computed by any other tenant's graft differs.
fn tag_grail(tenant: u64) -> String {
    format!("fn select_victim(x: int) -> int {{\n    return {tenant} * 31 + x;\n}}\n")
}

/// What the benchmark expects tenant `tenant`'s graft to answer for
/// `x` — computed here, never by the server.
pub fn expected_tag(tenant: u64, x: i64) -> i64 {
    tenant as i64 * 31 + x
}

/// The spec name tenant `tenant` installs on the wire.
fn spec_name(tenant: u64) -> String {
    format!("tag{tenant}")
}

/// `VmEvict`'s attach-point code on the wire.
const POINT_VM_EVICT: u8 = 0;
/// The technology every tenant installs under.
const TECH: Tech = Tech::M3;
/// Tenant population the sessions are drawn from.
const POPULATION: u64 = 100_000;
/// Per-tenant in-flight cap; sessions pipeline up to it.
const WINDOW: usize = 64;
/// Invokes per session: `SESSION_MIN + uniform(SESSION_SPREAD)`.
const SESSION_MIN: u64 = 128;
const SESSION_SPREAD: u64 = 256;
/// Open-loop arrival rate, requests per second. Fixed, so that every
/// run on every commit offers the same load; well below the closed-loop
/// saturation throughput on a 2-vCPU host.
pub const OPEN_RATE: f64 = 100_000.0;
/// Quantile of the closed-loop phases' throughputs reported as
/// `serve_rps`: the highest that leaves ten of a 30-second run's 60
/// phases beyond it.
const RPS_QUANTILE: f64 = 0.8;

fn tag_spec(tenant: u64) -> GraftSpec {
    GraftSpec::new(
        "perfbench-tag",
        GraftClass::BlackBox,
        Motivation::Functionality,
    )
    .entry("select_victim", 1)
    .with_grail(&tag_grail(tenant))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Hello + Install to send.
    Open,
    /// Waiting for Welcome + Installed.
    Installing,
    /// Bind to send.
    Bind,
    /// Waiting for Bound.
    Binding,
    /// Sending invokes.
    Invoking,
    /// Waiting for Gone + Gone.
    Closing,
    /// Finished; to be replaced.
    Closed,
}

struct Pending {
    seq: u32,
    x: i64,
    due: u64,
}

struct Session {
    tenant: u64,
    client: GraftClient,
    stage: Stage,
    graft: u64,
    entry: u32,
    to_send: u64,
    next_x: i64,
    pending: Vec<Pending>,
    gone: u8,
}

/// The server, its worker plane, and the generator state.
pub struct ServeRig {
    server: GraftServer,
    plane: Option<WorkerPlane>,
    workers: usize,
    conns: usize,
    rng: SmallRng,
    sessions: Vec<Session>,
    tap: Option<Arc<Tap>>,
    drew: Vec<u64>,
    /// Whose graft a session installs; the identity, except where a
    /// self-test plants another tenant's graft.
    installs_as: fn(u64) -> u64,
}

/// Registers one tag spec per tenant of the population.
fn register(server: &mut GraftServer, tap: Option<&Arc<Tap>>) {
    for tenant in 0..POPULATION {
        let tap = tap.cloned();
        server.register_spec(
            &spec_name(tenant),
            Box::new(move |technology| {
                let tech = [Tech::C, Tech::M3, Tech::Omni, Tech::Java, Tech::Native]
                    .into_iter()
                    .find(|t| t.technology() == technology)
                    .ok_or_else(|| GraftError::Unavailable {
                        graft: spec_name(tenant),
                        missing: format!("{technology:?}"),
                    })?;
                let engine = tech::load(&tag_spec(tenant), tech)?;
                Ok(match &tap {
                    Some(tap) => Tapped::wrap(engine, tap),
                    None => engine,
                })
            }),
        );
    }
}

/// Builds the server with `nproc` connections and one drain worker per
/// remaining core, and starts the workers. With a `tap`, every engine
/// the server installs is wrapped in a [`Tapped`] forwarder, timing only
/// while the tap is active (engine time on the worker thread).
pub fn build(seed: u64, nproc: usize, tap: Option<Arc<Tap>>) -> ServeRig {
    let workers = nproc.saturating_sub(1).max(1);
    let quotas = TenantQuotas {
        max_grafts: 1,
        fuel_budget: None,
        max_in_flight: WINDOW,
    };
    let mut server = GraftServer::new(ServerConfig {
        shards: workers,
        quotas,
        ..ServerConfig::default()
    });
    register(&mut server, tap.as_ref());
    server.collect_latency(true);
    let plane = Some(server.spawn_workers());
    ServeRig {
        server,
        plane,
        workers,
        conns: nproc.max(1),
        rng: SmallRng::seed_from_u64(seed ^ 0x0073_6572_7665),
        sessions: Vec::new(),
        tap,
        drew: Vec::new(),
        installs_as: |tenant| tenant,
    }
}

impl ServeRig {
    /// Drain workers running.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The tenants drawn so far, in order (the session sequence).
    #[cfg(test)]
    pub fn tenants_drawn(&self) -> &[u64] {
        &self.drew
    }

    fn draw_tenant(&mut self) -> u64 {
        loop {
            let hot = POPULATION / 5;
            let t = if self.rng.gen_f64() < 0.8 {
                self.rng.bounded_u64(hot)
            } else {
                hot + self.rng.bounded_u64(POPULATION - hot)
            };
            // One live session per tenant: a second would exceed the
            // tenant's one-graft quota.
            if self.sessions.iter().all(|s| s.tenant != t) {
                return t;
            }
        }
    }

    fn open_session(&mut self) {
        let tenant = self.draw_tenant();
        self.drew.push(tenant);
        let to_send = SESSION_MIN + self.rng.bounded_u64(SESSION_SPREAD);
        let conn = self.server.connect();
        self.sessions.push(Session {
            tenant,
            client: GraftClient::new(conn),
            stage: Stage::Open,
            graft: 0,
            entry: 0,
            to_send,
            next_x: 1,
            pending: Vec::with_capacity(WINDOW),
            gone: 0,
        });
    }

    /// Closes every session cleanly and joins the worker plane.
    pub fn shutdown(&mut self, log: &mut SpanLog, tally: &mut Tally) -> Vec<WorkerStats> {
        for s in &mut self.sessions {
            s.to_send = 0;
        }
        let mut acc = ServeAcc::default();
        let mut round = 0u64;
        while self.sessions.iter().any(|s| s.stage != Stage::Closed) {
            self.iterate(Mode::Closing, false, &mut acc, log, tally);
            round += 1;
            assert!(round < 50_000_000, "sessions failed to close");
        }
        self.sessions.clear();
        match self.plane.take() {
            Some(plane) => plane.join(&mut self.server),
            None => Vec::new(),
        }
    }
}

impl Drop for ServeRig {
    fn drop(&mut self) {
        if let Some(plane) = self.plane.take() {
            plane.join(&mut self.server);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Refill every window as replies return.
    Closed,
    /// Send on a fixed schedule; requests due at `start + i * period`.
    Open { start: u64, period: f64 },
    /// Send nothing new; finish every session.
    Closing,
}

/// Pump-loop slots timed in the traced run.
const CLIENT: usize = 0;
const INGEST: usize = 1;
const PUMP: usize = 2;
const INSTALL: usize = 3;
const REAP: usize = 4;
const OUTBOUND: usize = 5;
const SLOTS: usize = 6;
const SLOT_NAMES: [&str; SLOTS] = [
    "serve.client",
    "serve.ingest",
    "serve.pump",
    "serve.install",
    "serve.reap",
    "serve.outbound",
];

/// One phase's counts; the counters also sum over a run's phases.
#[derive(Debug, Clone, Default)]
struct ServeAcc {
    invokes: u64,
    /// Open loop: latency per request, ns (failures are infinite).
    latency: Vec<f64>,
    late: Vec<f64>,
    next_due: u64,
    draining: bool,
    ns: [u64; SLOTS],
    wait_ns: u64,
    installs: u64,
    iterations: u64,
    backlog_sum: f64,
    in_flight_sum: f64,
}

impl ServeAcc {
    /// Adds a finished phase's counters (its latencies are kept apart,
    /// per phase, by the caller).
    fn absorb(&mut self, phase: ServeAcc) {
        self.invokes += phase.invokes;
        self.late.extend(phase.late);
        for (a, b) in self.ns.iter_mut().zip(phase.ns) {
            *a += b;
        }
        self.wait_ns += phase.wait_ns;
        self.installs += phase.installs;
        self.iterations += phase.iterations;
        self.backlog_sum += phase.backlog_sum;
        self.in_flight_sum += phase.in_flight_sum;
    }
}

impl ServeRig {
    /// One pump-loop iteration: encode, ingest, pump, reap, take
    /// replies, decode and check them.
    fn iterate(
        &mut self,
        mode: Mode,
        traced: bool,
        acc: &mut ServeAcc,
        log: &mut SpanLog,
        tally: &mut Tally,
    ) {
        let mut it = [0u64; SLOTS];
        let iter_start = if traced { now_ns() } else { 0 };
        let mut mark = iter_start;
        let mut lap = |slot: usize, it: &mut [u64; SLOTS]| {
            if traced {
                let n = now_ns();
                it[slot] += n - mark;
                mark = n;
            }
        };

        // Client side: refill the session table and encode frames.
        if !acc.draining && mode != Mode::Closing {
            self.sessions.retain(|s| s.stage != Stage::Closed);
            while self.sessions.len() < self.conns {
                self.open_session();
            }
        }
        let now = now_ns();
        let installs_as = self.installs_as;
        let mut out: Vec<(usize, Vec<u8>, bool)> = Vec::with_capacity(self.sessions.len());
        for (i, s) in self.sessions.iter_mut().enumerate() {
            let mut bytes = Vec::new();
            let mut install = false;
            match s.stage {
                Stage::Open => {
                    let spec = spec_name(installs_as(s.tenant));
                    bytes.extend(s.client.hello(s.tenant));
                    bytes.extend(s.client.install(POINT_VM_EVICT, TECH.wire_code(), &spec));
                    s.stage = Stage::Installing;
                    install = true;
                }
                Stage::Bind => {
                    bytes.extend(s.client.bind(s.graft, "select_victim"));
                    s.stage = Stage::Binding;
                }
                Stage::Invoking
                    if s.pending.is_empty() && (s.to_send == 0 || mode == Mode::Closing) =>
                {
                    bytes.extend(s.client.uninstall(s.graft));
                    bytes.extend(s.client.bye());
                    s.stage = Stage::Closing;
                }
                Stage::Invoking if mode == Mode::Closed && !acc.draining => {
                    while s.pending.len() < WINDOW && s.to_send > 0 {
                        let x = s.next_x;
                        let (seq, frame) = s.client.invoke(s.graft, s.entry, &[x]);
                        bytes.extend(frame);
                        s.pending.push(Pending { seq, x, due: now });
                        s.next_x += 1;
                        s.to_send -= 1;
                    }
                }
                _ => {}
            }
            if !bytes.is_empty() {
                out.push((i, bytes, install));
            }
        }
        if let Mode::Open { start, period } = mode {
            // Every request whose time has come goes to the next
            // session with room; if none has room, it stays due (and its
            // latency keeps counting from its due time).
            let n = self.sessions.len();
            let mut cursor = acc.next_due as usize;
            while !acc.draining && n > 0 {
                let due = start + (acc.next_due as f64 * period) as u64;
                if due > now {
                    break;
                }
                let pick = (0..n).map(|k| (cursor + k) % n).find(|&i| {
                    let s = &self.sessions[i];
                    s.stage == Stage::Invoking && s.to_send > 0 && s.pending.len() < WINDOW
                });
                let Some(i) = pick else { break };
                cursor = i + 1;
                let s = &mut self.sessions[i];
                let x = s.next_x;
                let (seq, frame) = s.client.invoke(s.graft, s.entry, &[x]);
                s.pending.push(Pending { seq, x, due });
                s.next_x += 1;
                s.to_send -= 1;
                acc.late.push((now - due) as f64);
                acc.next_due += 1;
                match out.iter_mut().find(|(j, _, _)| *j == i) {
                    Some((_, bytes, _)) => bytes.extend(frame),
                    None => out.push((i, frame, false)),
                }
            }
        }
        lap(CLIENT, &mut it);

        for (i, bytes, _) in &out {
            self.server.ingest(self.sessions[*i].client.conn, bytes);
        }
        lap(INGEST, &mut it);
        for (i, _, install) in &out {
            if !install {
                self.server.pump_conn(self.sessions[*i].client.conn);
            }
        }
        lap(PUMP, &mut it);
        for (i, _, install) in &out {
            if *install {
                self.server.pump_conn(self.sessions[*i].client.conn);
                acc.installs += 1;
            }
        }
        lap(INSTALL, &mut it);
        let reaped = self.server.reap();
        lap(REAP, &mut it);
        let replies: Vec<(usize, Vec<u8>)> = self
            .sessions
            .iter()
            .enumerate()
            .map(|(i, s)| (i, self.server.take_outbound(s.client.conn)))
            .filter(|(_, b)| !b.is_empty())
            .collect();
        lap(OUTBOUND, &mut it);

        let arrived = now_ns();
        let mut moved = !out.is_empty() || reaped > 0;
        for (i, bytes) in replies {
            moved = true;
            let s = &mut self.sessions[i];
            let decoded = s.client.on_bytes(&bytes);
            let Ok(decoded) = decoded else {
                tally.check("serve_frame", false);
                continue;
            };
            for reply in decoded {
                check_reply(s, reply, arrived, mode, acc, tally);
            }
        }
        lap(CLIENT, &mut it);

        if traced {
            acc.iterations += 1;
            acc.backlog_sum += self.server.backlog() as f64;
            acc.in_flight_sum += self.server.in_flight() as f64;
            if moved {
                for (slot, ns) in it.iter().enumerate() {
                    acc.ns[slot] += ns;
                }
                let op = log.op();
                log.push("serve.iteration", iter_start, mark, SpanLog::ROOT, op);
                let mut at = iter_start;
                for (slot, ns) in it.iter().enumerate() {
                    if *ns > 0 {
                        log.push(SLOT_NAMES[slot], at, at + ns, SpanLog::ROOT, op);
                        at += ns;
                    }
                }
            } else {
                acc.wait_ns += it.iter().sum::<u64>();
            }
        }
    }
}

/// The serve oracle: every reply must answer a request this session
/// made, and a value must be the session tenant's own tag.
fn check_reply(
    s: &mut Session,
    reply: Reply,
    arrived: u64,
    mode: Mode,
    acc: &mut ServeAcc,
    tally: &mut Tally,
) {
    match reply {
        Reply::Value { seq, value } => {
            let Some(at) = s.pending.iter().position(|p| p.seq == seq) else {
                tally.check("serve", false);
                return;
            };
            let p = s.pending.swap_remove(at);
            let ok = value == expected_tag(s.tenant, p.x);
            tally.check("serve", ok);
            acc.invokes += 1;
            if matches!(mode, Mode::Open { .. }) {
                // A wrong answer misses any latency limit.
                let lat = if ok {
                    arrived.saturating_sub(p.due) as f64
                } else {
                    f64::INFINITY
                };
                acc.latency.push(lat);
            }
        }
        Reply::Welcome { tenant, .. } => {
            tally.check(
                "serve_control",
                s.stage == Stage::Installing && tenant == s.tenant,
            );
        }
        Reply::Installed { graft, .. } if s.stage == Stage::Installing => {
            s.graft = graft;
            s.stage = Stage::Bind;
            tally.check("serve_control", true);
        }
        Reply::Bound { entry, .. } if s.stage == Stage::Binding => {
            s.entry = entry;
            s.stage = Stage::Invoking;
            tally.check("serve_control", true);
        }
        Reply::Gone { .. } if s.stage == Stage::Closing => {
            s.gone += 1;
            if s.gone == 2 {
                s.stage = Stage::Closed;
            }
            tally.check("serve_control", true);
        }
        other => {
            // A refusal, a trap, or a reply to nothing this session
            // asked: a failure. An invoke it answers is lost for good.
            if let Reply::Error { seq, .. } = &other {
                if let Some(at) = s.pending.iter().position(|p| p.seq == *seq) {
                    s.pending.swap_remove(at);
                    if matches!(mode, Mode::Open { .. }) {
                        acc.latency.push(f64::INFINITY);
                    }
                }
            }
            tally.check("serve", false);
            if matches!(s.stage, Stage::Installing | Stage::Binding) {
                // The session cannot go on; retire it.
                s.stage = Stage::Closed;
            }
        }
    }
}

/// What the family measured, summed over every phase pair run so far.
#[derive(Debug, Clone, Default)]
pub struct ServeRun {
    /// Closed-loop counters.
    closed: ServeAcc,
    /// Closed-loop wall time, ns.
    closed_wall_ns: u64,
    /// Throughput of each closed-loop phase, requests per second.
    closed_rps: Vec<f64>,
    /// Open-loop counters.
    open: ServeAcc,
    /// Open-loop client latencies, one list per open phase, ns.
    windows: Vec<Vec<f64>>,
    /// Open-loop service latencies from the server, ns.
    service: Vec<f64>,
    /// Refusals: overloaded, quota, quarantined.
    rejected: [u64; 3],
    /// Engine `(ns, invokes)` timed by the tap.
    engine: (u64, u64),
}

fn run_phase(
    rig: &mut ServeRig,
    mode: Mode,
    budget: Budget,
    traced: bool,
    acc: &mut ServeAcc,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> u64 {
    let start = now_ns();
    let mut clock = budget.start();
    loop {
        if !acc.draining && !clock.more() {
            acc.draining = true;
        }
        rig.iterate(mode, traced, acc, log, tally);
        if mode == Mode::Closed && clock.rounds().is_multiple_of(4096) {
            // Closed-loop service latencies are not reported; keep the
            // server's sink from growing without bound.
            rig.server.take_latencies();
        }
        if acc.draining
            && rig
                .sessions
                .iter()
                .all(|s| s.pending.is_empty() && matches!(s.stage, Stage::Invoking | Stage::Closed))
        {
            break;
        }
    }
    now_ns() - start
}

fn rejections(s: ServerStats) -> [u64; 3] {
    [
        s.rejected_overloaded,
        s.rejected_quota,
        s.rejected_quarantined,
    ]
}

/// Runs one closed-loop phase for `closed`, then one open-loop phase at
/// [`OPEN_RATE`] for `open`, and adds what they measured to `out`. A
/// traced pair times the pump loop's laps and, through the tap, the
/// engine.
pub fn run(
    rig: &mut ServeRig,
    closed: Budget,
    open: Budget,
    traced: bool,
    out: &mut ServeRun,
    log: &mut SpanLog,
    tally: &mut Tally,
) {
    if let Some(tap) = &rig.tap {
        tap.set_active(traced);
    }
    let engine0 = rig
        .tap
        .as_ref()
        .map(|t| t.invoke_totals())
        .unwrap_or_default();
    let rejected0 = rejections(rig.server.stats());

    let mut a = ServeAcc::default();
    let wall = run_phase(rig, Mode::Closed, closed, traced, &mut a, log, tally);
    out.closed_wall_ns += wall;
    out.closed_rps
        .push(stats::ratio(a.invokes as f64 * 1e9, wall as f64));
    out.closed.absorb(a);

    rig.server.take_latencies();
    let mut b = ServeAcc::default();
    let mode = Mode::Open {
        start: now_ns(),
        period: 1e9 / OPEN_RATE,
    };
    run_phase(rig, mode, open, traced, &mut b, log, tally);
    out.service.extend(
        rig.server
            .take_latencies()
            .into_iter()
            .map(|(_, ns)| ns as f64),
    );
    out.windows.push(std::mem::take(&mut b.latency));
    out.open.absorb(b);

    for (sum, (now, before)) in out
        .rejected
        .iter_mut()
        .zip(rejections(rig.server.stats()).into_iter().zip(rejected0))
    {
        *sum += now - before;
    }
    let engine1 = rig
        .tap
        .as_ref()
        .map(|t| t.invoke_totals())
        .unwrap_or_default();
    out.engine.0 += engine1.0 - engine0.0;
    out.engine.1 += engine1.1 - engine0.1;
}

/// The family's end-to-end metrics. `serve_rps` is the
/// [`RPS_QUANTILE`] of the closed-loop phases' throughputs: on a shared
/// 2-vCPU host the pump and its worker each lose their vCPU now and
/// then, which drags whole phases far down, in some runs most of them.
pub fn end_to_end(run: &ServeRun) -> Metrics {
    let mut lat: Vec<f64> = run.windows.concat();
    let mut m = Metrics::default();
    m.put_higher(
        "serve_rps",
        stats::percentile(&mut run.closed_rps.clone(), RPS_QUANTILE).unwrap_or(f64::NAN),
        "req/s",
    );
    m.put(
        "serve_p50_us",
        stats::median(&mut lat).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    m
}

/// The open loop's tail: p99 per open phase, then the median over the
/// phases, so a host stall (a stolen vCPU) spoils the phase it falls in,
/// not the whole run's tail. Reported with the per-layer metrics: on a
/// shared 2-vCPU host it moves with how fast a sleeping worker's vCPU is
/// woken, run to run by more than any end-to-end bound allows.
pub fn tail(run: &ServeRun) -> Metrics {
    let mut p99s: Vec<f64> = run
        .windows
        .iter()
        .filter_map(|w| stats::percentile(&mut w.clone(), 0.99))
        .collect();
    p99s.sort_by(f64::total_cmp);
    let p99 = p99s.get(p99s.len() / 2).copied().unwrap_or(f64::NAN);
    let mut m = Metrics::default();
    m.put("serve_p99_us", p99 / 1e3, "us");
    m
}

/// Closed-loop pump-side time per request, every lap and idle iteration
/// timed directly (traced run), ns.
pub fn closed_parts_per_req(traced: &ServeRun) -> f64 {
    let a = &traced.closed;
    stats::ratio(
        (a.ns.iter().sum::<u64>() + a.wait_ns) as f64,
        a.invokes as f64,
    )
}

/// Closed-loop wall time per request, ns.
pub fn closed_wall_per_req(run: &ServeRun) -> f64 {
    stats::ratio(run.closed_wall_ns as f64, run.closed.invokes as f64)
}

/// The traced run's per-layer metrics.
pub fn layers(run: &ServeRun) -> Metrics {
    let (a, b) = (&run.closed, &run.open);
    let reqs = (a.invokes + b.invokes) as f64;
    let ns = |slot: usize| (a.ns[slot] + b.ns[slot]) as f64;
    let mut m = Metrics::default();
    m.put("server.client_ns", stats::ratio(ns(CLIENT), reqs), "ns");
    m.put("server.ingest_ns", stats::ratio(ns(INGEST), reqs), "ns");
    m.put("server.pump_ns", stats::ratio(ns(PUMP), reqs), "ns");
    m.put(
        "server.install_us",
        stats::ratio(ns(INSTALL), (a.installs + b.installs) as f64) / 1e3,
        "us",
    );
    m.put("server.reap_ns", stats::ratio(ns(REAP), reqs), "ns");
    m.put("server.outbound_ns", stats::ratio(ns(OUTBOUND), reqs), "ns");
    let busy: u64 = a.ns.iter().sum();
    m.put(
        "server.pump_busy_frac",
        stats::ratio(busy as f64, run.closed_wall_ns as f64),
        "ratio",
    );
    m.put(
        "server.pump_wait_ns",
        stats::ratio(a.wait_ns as f64, a.invokes as f64),
        "ns",
    );
    m.put(
        "server.engine_ns",
        stats::ratio(run.engine.0 as f64, run.engine.1 as f64),
        "ns",
    );
    let mut svc = run.service.clone();
    m.put(
        "server.service_p50_us",
        stats::median(&mut svc).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    m.put(
        "server.service_p99_us",
        stats::percentile(&mut svc, 0.99).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    let iters = (a.iterations + b.iterations) as f64;
    m.put(
        "server.backlog_mean",
        stats::ratio(a.backlog_sum + b.backlog_sum, iters),
        "count",
    );
    m.put(
        "server.in_flight_mean",
        stats::ratio(a.in_flight_sum + b.in_flight_sum, iters),
        "count",
    );
    for (name, n) in ["overloaded", "quota", "quarantined"]
        .iter()
        .zip(run.rejected)
    {
        m.put(
            format!("server.rejected.{name}"),
            stats::ratio(n as f64, reqs),
            "1/req",
        );
    }
    m.put(
        "server.gen_late_p99_us",
        stats::percentile(&mut b.late.clone(), 0.99).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    m
}

/// Worker-plane metrics, from the stats the workers publish at join.
pub fn worker_layers(stats: &[WorkerStats]) -> Metrics {
    let served: u64 = stats.iter().map(|s| s.served).sum();
    let batches: u64 = stats.iter().map(|s| s.batches).sum();
    let idle: u64 = stats.iter().map(|s| s.idle_spins).sum();
    let mut m = Metrics::default();
    m.put_higher(
        "server.worker_batch_mean",
        stats::ratio(served as f64, batches as f64),
        "count",
    );
    m.put(
        "server.idle_spins_per_req",
        stats::ratio(idle as f64, served as f64),
        "1/req",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run(seed: u64, installs_as: fn(u64) -> u64) -> (Tally, Vec<u64>) {
        let mut rig = build(seed, 2, None);
        rig.installs_as = installs_as;
        let mut tally = Tally::default();
        let mut log = SpanLog::with_capacity(0);
        run(
            &mut rig,
            Budget::Rounds(400),
            Budget::Rounds(0),
            false,
            &mut ServeRun::default(),
            &mut log,
            &mut tally,
        );
        rig.shutdown(&mut log, &mut tally);
        (tally, rig.tenants_drawn().to_vec())
    }

    #[test]
    fn same_seed_same_sessions_other_seed_other_sessions() {
        let (a, ta) = tiny_run(11, |t| t);
        let (b, tb) = tiny_run(11, |t| t);
        let (_, tc) = tiny_run(12, |t| t);
        assert_eq!(ta, tb);
        assert_ne!(ta, tc);
        assert_eq!(a.failed(), 0, "{a:?}");
        assert!(a.of("serve").0 > 0);
        assert_eq!(a.of("serve_control"), b.of("serve_control"));
    }

    #[test]
    fn the_serve_oracle_catches_replies_from_another_tenants_graft() {
        // Swap the grafts of tenant pairs (2k, 2k+1): every session's
        // invokes now reach its neighbour's graft.
        let (tally, _) = tiny_run(11, |t| t ^ 1);
        let (attempted, failed) = tally.of("serve");
        assert!(attempted > 0 && failed == attempted, "{tally:?}");
        assert_eq!(tally.of("serve_control").1, 0, "{tally:?}");
    }
}
