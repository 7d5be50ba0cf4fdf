//! Concurrency conformance: the threaded server must be
//! indistinguishable from the deterministic single-threaded replay.
//!
//! Each seed generates a multi-round scenario — a tenant population
//! with one graft each, a designated saboteur, rounds of clean
//! invokes/batches/malformed frames/foreign-handle probes alternating
//! with trap-only rounds — and plays the *identical frame bytes*
//! through two servers with identical configs:
//!
//! * the **reference**: `pump` + `drain_all` on one thread (the
//!   `VirtualTransport` discipline, byte-faithful and deterministic);
//! * the **subject**: a live [`WorkerPlane`] of one drain thread per
//!   shard, with the test thread acting as the pump (`pump` + `reap`).
//!
//! After every round both servers are quiesced and compared on reply
//! sets (order-insensitive via the seq echo — stealing is off, but
//! threads still reorder completion), per-tenant ledgers, ladder
//! standing (including `Parked { remaining }` — quarantine *timing*),
//! quarantine trip counts, and the whole stats block. Scenarios where
//! `backoff_base == 0` exercise the mid-drain ban: the saboteur's
//! first trap bans it while its remaining queued requests are still in
//! the plane, and those must come back `Unavailable` in both worlds.
//!
//! Rounds keep trap traffic saboteur-only while the saboteur is
//! strikeable. That is a scenario-generation constraint, not a relaxed
//! assertion: interleaving clean completions with the parking trap
//! would make `remaining` depend on completion order, which is exactly
//! the freedom threading legitimately has (the seq echo exists because
//! of it) — everything the protocol *does* promise is compared
//! exactly.
//!
//! Seed count: `GRAFT_CONFORMANCE_SEEDS` (default 48 for tier-1;
//! verify.sh's `--threads` pass runs 200+).

use graft_api::{
    EntryPoint, ExtensionEngine, NativeEngine, RegionSpec, RegionStore, Technology, Trap,
};
use graft_kernel::StealPolicy;
use graft_rng::SmallRng;
use graft_server::{FrameBuf, GraftClient, GraftServer, Reply, ServerConfig, Standing};
use std::collections::BTreeMap;

/// Wire code for `AttachPoint::VmEvict` / `Technology::RustNative`.
const POINT: u8 = 0;
const TECH: u8 = 0;

fn tagging() -> Box<dyn ExtensionEngine> {
    let specs = [RegionSpec::data("scratch", 8)];
    let entries = [EntryPoint {
        name: "select_victim".into(),
        arity: 2,
    }];
    let factory: graft_api::spec::SharedNativeFactory = std::sync::Arc::new(|| {
        Box::new(|_: &str, args: &[i64], _: &mut RegionStore| {
            if args[1] == 0 {
                return Err(Trap::DivByZero.into());
            }
            Ok(args[0] * 31 + args[1])
        })
    });
    Box::new(NativeEngine::from_factory(&specs, &entries, factory).unwrap())
}

fn build_server(config: ServerConfig) -> GraftServer {
    let mut s = GraftServer::new(config);
    s.register_spec("tag", Box::new(|_tech: Technology| Ok(tagging())));
    s
}

fn seeds() -> u64 {
    std::env::var("GRAFT_CONFORMANCE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// Replies a connection has produced, keyed by the echoed seq.
fn decode_replies(bytes: &[u8], into: &mut BTreeMap<u32, Reply>) {
    let mut buf = FrameBuf::new();
    buf.extend(bytes);
    while let Some(body) = buf.next_frame().expect("server frames are well-formed") {
        let reply = Reply::decode(body).expect("server bodies decode");
        let seq = reply.seq();
        assert!(
            into.insert(seq, reply).is_none(),
            "seq {seq} answered twice"
        );
    }
}

struct Scenario {
    shards: usize,
    tenants: usize,
    rounds: usize,
    backoff_base: u64,
}

impl Scenario {
    fn from_seed(seed: u64) -> Self {
        Scenario {
            shards: 1 + (seed % 4) as usize,
            tenants: 3 + (seed % 6) as usize,
            rounds: 4 + (seed % 3) as usize,
            // Every third seed runs the mid-drain *ban* flavor: the
            // first trap is a permanent ban while the rest of the
            // saboteur's queue is still mid-drain.
            backoff_base: if seed.is_multiple_of(3) { 0 } else { 4 },
        }
    }

    fn config(&self) -> ServerConfig {
        ServerConfig {
            shards: self.shards,
            // Stealing off: per-tenant home-shard FIFO makes the
            // reference replay fully deterministic. (Threads may still
            // interleave *across* shards — that is the point.)
            steal: StealPolicy::static_plane(),
            backoff_base: self.backoff_base,
            ban_ceiling: 3,
            ..ServerConfig::default()
        }
    }
}

/// One frame of scripted traffic: which tenant's connection it goes
/// out on, and the bytes (identical for both servers).
struct Step {
    tenant: usize,
    bytes: Vec<u8>,
}

fn run_scenario(seed: u64) {
    let sc = Scenario::from_seed(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let saboteur = (rng.bounded_u64(sc.tenants as u64)) as usize;

    let mut reference = build_server(sc.config());
    let mut subject = build_server(sc.config());

    // One connection + one scripted client per tenant; the client only
    // *encodes* — the same bytes feed both servers.
    let conns_r: Vec<usize> = (0..sc.tenants).map(|_| reference.connect()).collect();
    let conns_s: Vec<usize> = (0..sc.tenants).map(|_| subject.connect()).collect();
    assert_eq!(conns_r, conns_s);
    let mut clients: Vec<GraftClient> = conns_r.iter().map(|&c| GraftClient::new(c)).collect();

    // Session setup: hello + install, control-plane, compared inline.
    let mut grafts = Vec::new();
    for (i, client) in clients.iter_mut().enumerate() {
        let tenant_id = 1000 + i as u64;
        for bytes in [client.hello(tenant_id), client.install(POINT, TECH, "tag")] {
            reference.ingest(conns_r[i], &bytes);
            subject.ingest(conns_s[i], &bytes);
        }
        reference.pump_conn(conns_r[i]);
        subject.pump_conn(conns_s[i]);
        let out_r = reference.take_outbound(conns_r[i]);
        let out_s = subject.take_outbound(conns_s[i]);
        assert_eq!(out_r, out_s, "seed {seed}: setup bytes diverge");
        let mut replies = BTreeMap::new();
        decode_replies(&out_r, &mut replies);
        let graft = replies
            .values()
            .find_map(|r| match r {
                Reply::Installed { graft, .. } => Some(*graft),
                _ => None,
            })
            .expect("install succeeded");
        grafts.push(graft);
    }

    let plane = subject.spawn_workers();
    assert_eq!(plane.workers(), sc.shards);

    for round in 0..sc.rounds {
        let trap_round = round % 2 == 1;
        let mut steps: Vec<Step> = Vec::new();
        if trap_round {
            // Trap-only round: enough traps to strike, plus queued
            // stragglers that must resolve `Unavailable` (or be
            // refused at admission once parked/banned) identically.
            let n = 4 + rng.bounded_u64(4);
            for _ in 0..n {
                let (_, bytes) = clients[saboteur].invoke(grafts[saboteur], 0, &[7, 0]);
                steps.push(Step {
                    tenant: saboteur,
                    bytes,
                });
            }
        } else {
            for t in 0..sc.tenants {
                let n = rng.bounded_u64(7);
                for _ in 0..n {
                    let roll = rng.bounded_u64(100);
                    let bytes = if roll < 70 {
                        let k = 1 + rng.bounded_u64(1000) as i64;
                        clients[t].invoke(grafts[t], 0, &[t as i64, k]).1
                    } else if roll < 85 {
                        let calls = 1 + rng.bounded_u64(3);
                        let mut args = Vec::new();
                        for _ in 0..calls {
                            args.push(t as i64);
                            args.push(1 + rng.bounded_u64(50) as i64);
                        }
                        clients[t].invoke_batch(grafts[t], 0, 2, &args).1
                    } else if roll < 93 {
                        // Foreign handle: another tenant's graft is
                        // NoSuchGraft — the isolation boundary.
                        let other = grafts[(t + 1) % sc.tenants];
                        clients[t].invoke(other, 0, &[1, 1]).1
                    } else {
                        // Unknown opcode, well-framed: Malformed reply,
                        // connection survives.
                        let body = [0x6fu8, clients[t].seq().to_le_bytes()[0], 0, 0, 0];
                        let mut f = (body.len() as u32).to_le_bytes().to_vec();
                        f.extend_from_slice(&body);
                        f
                    };
                    steps.push(Step { tenant: t, bytes });
                }
            }
        }

        // Identical submission into both servers. Neither processes a
        // completion until every admission verdict for the round is
        // in, so admission state evolves identically even though the
        // subject's workers are already invoking.
        for step in &steps {
            reference.ingest(conns_r[step.tenant], &step.bytes);
            subject.ingest(conns_s[step.tenant], &step.bytes);
        }
        reference.pump();
        subject.pump();

        // Quiesce both worlds.
        reference.drain_all();
        while subject.in_flight() > 0 {
            if subject.reap() == 0 {
                std::thread::yield_now();
            }
        }

        // Compare everything the protocol promises.
        for t in 0..sc.tenants {
            let mut replies_r = BTreeMap::new();
            let mut replies_s = BTreeMap::new();
            decode_replies(&reference.take_outbound(conns_r[t]), &mut replies_r);
            decode_replies(&subject.take_outbound(conns_s[t]), &mut replies_s);
            assert_eq!(
                replies_r, replies_s,
                "seed {seed} round {round} tenant {t}: reply sets diverge"
            );
            let id = 1000 + t as u64;
            assert_eq!(
                reference.tenant_ledger(id),
                subject.tenant_ledger(id),
                "seed {seed} round {round} tenant {t}: ledgers diverge"
            );
            assert_eq!(
                reference.tenant_standing(id),
                subject.tenant_standing(id),
                "seed {seed} round {round} tenant {t}: standing diverges"
            );
            assert_eq!(
                reference.tenant_trips(id),
                subject.tenant_trips(id),
                "seed {seed} round {round} tenant {t}: strike counts diverge"
            );
        }
        assert_eq!(
            reference.stats(),
            subject.stats(),
            "seed {seed} round {round}: stats diverge"
        );
    }

    // The saboteur struck exactly once per quarantine episode, never
    // once per trap reply: with base 0 one episode is terminal.
    let sab_id = 1000 + saboteur as u64;
    let trips = subject.tenant_trips(sab_id).unwrap();
    assert!(trips >= 1, "seed {seed}: saboteur never struck");
    if sc.backoff_base == 0 {
        assert_eq!(trips, 1, "seed {seed}: banned saboteur struck again");
        assert_eq!(subject.tenant_standing(sab_id), Some(Standing::Banned));
    }

    plane.join(&mut subject);
    assert_eq!(subject.in_flight(), 0);
    assert_eq!(subject.backlog(), 0);
}

#[test]
fn threaded_server_matches_deterministic_replay() {
    let n = seeds();
    for seed in 0..n {
        run_scenario(seed);
    }
}
