//! The staged hand-off between the pump and the drain workers.
//!
//! Admission places each job against `depth + staged` and stages it on
//! its shard; every `pump`/`pump_conn` ends by pushing each shard's run
//! in one go and unparking that shard's worker if it sleeps. An idle
//! worker spins on the depth probes for a fixed window, then parks.
//! These tests pin the three promises that design rests on:
//!
//! * **no lost wake-up**: single invokes at random gaps on both sides
//!   of the spin window are each answered promptly, by a plane of one
//!   worker and by a plane of three, and `join` of a parked plane
//!   returns;
//! * **exact refusals**: staging refuses exactly the requests an
//!   immediate push would have refused, at the same seqs, and leaves no
//!   in-flight slot behind;
//! * **nothing left staged**: once a public call returns, every
//!   admitted job is on the plane;
//! * **parked thieves wake**: with stealing on, a backlog on one shard
//!   wakes a parked worker of another to steal from it.

use graft_api::{EntryPoint, ExtensionEngine, NativeEngine, RegionSpec, RegionStore, Technology};
use graft_kernel::{RunQueues, StealPolicy};
use graft_rng::SmallRng;
use graft_server::{GraftClient, GraftServer, Reply, ServerConfig, TenantQuotas, WireError};
use std::time::{Duration, Instant};

const POINT: u8 = 0;
const TECH: u8 = 0;
/// How long an idle drain worker spins before it parks (the server's
/// own window).
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// The tag graft, `tenant * 31 + x`, busy for `work` per invoke.
fn tagging(work: Duration) -> Box<dyn ExtensionEngine> {
    let specs = [RegionSpec::data("scratch", 8)];
    let entries = [EntryPoint {
        name: "select_victim".into(),
        arity: 2,
    }];
    let factory: graft_api::spec::SharedNativeFactory = std::sync::Arc::new(move || {
        Box::new(move |_: &str, args: &[i64], _: &mut RegionStore| {
            let start = Instant::now();
            while start.elapsed() < work {
                std::hint::spin_loop();
            }
            Ok(args[0] * 31 + args[1])
        })
    });
    Box::new(NativeEngine::from_factory(&specs, &entries, factory).unwrap())
}

fn build_server_with(config: ServerConfig, work: Duration) -> GraftServer {
    let mut s = GraftServer::new(config);
    s.register_spec("tag", Box::new(move |_tech: Technology| Ok(tagging(work))));
    s
}

fn build_server(config: ServerConfig) -> GraftServer {
    build_server_with(config, Duration::ZERO)
}

/// Hello + install on a fresh connection; returns the client and the
/// graft handle.
fn session(server: &mut GraftServer, tenant: u64) -> (GraftClient, u64) {
    let conn = server.connect();
    let mut client = GraftClient::new(conn);
    for bytes in [client.hello(tenant), client.install(POINT, TECH, "tag")] {
        server.ingest(conn, &bytes);
    }
    server.pump_conn(conn);
    let out = server.take_outbound(conn);
    let graft = client
        .on_bytes(&out)
        .expect("setup replies decode")
        .into_iter()
        .find_map(|r| match r {
            Reply::Installed { graft, .. } => Some(graft),
            _ => None,
        })
        .expect("install succeeded");
    (client, graft)
}

fn replies(server: &mut GraftServer, client: &mut GraftClient) -> Vec<Reply> {
    let out = server.take_outbound(client.conn);
    client.on_bytes(&out).expect("server frames decode")
}

/// Feeds `invokes` single invokes, one at a time, at seeded random gaps
/// of 0–500 µs, from six tenants spread over the shards, and waits for
/// each reply before the next gap. A wake lost between a worker's last
/// probe and its park would leave a reply unanswered until the
/// deadline.
fn feed_at_random_gaps(shards: usize, invokes: usize, seed: u64) {
    const DEADLINE: Duration = Duration::from_secs(10);
    let mut server = build_server(ServerConfig {
        shards,
        ..ServerConfig::default()
    });
    let mut sessions: Vec<(GraftClient, u64, i64)> = (1..=6u64)
        .map(|t| {
            let (client, graft) = session(&mut server, t);
            (client, graft, t as i64)
        })
        .collect();
    let plane = server.spawn_workers();
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut short, mut long) = (0, 0);
    for i in 0..invokes {
        let gap = Duration::from_micros(rng.bounded_u64(501));
        if gap < SPIN_WINDOW {
            short += 1;
        } else {
            long += 1;
        }
        let at = Instant::now() + gap;
        while Instant::now() < at {
            std::hint::spin_loop();
        }
        let pick = rng.bounded_u64(sessions.len() as u64) as usize;
        let (client, graft, tenant) = &mut sessions[pick];
        let x = i as i64 + 1;
        let (seq, bytes) = client.invoke(*graft, 0, &[*tenant, x]);
        server.ingest(client.conn, &bytes);
        server.pump_conn(client.conn);
        let sent = Instant::now();
        let reply = loop {
            server.reap();
            if let Some(r) = replies(&mut server, client).pop() {
                break r;
            }
            assert!(
                sent.elapsed() < DEADLINE,
                "invoke {i} (gap {gap:?}, {shards} workers) unanswered after {DEADLINE:?}"
            );
            std::thread::yield_now();
        };
        assert_eq!(
            reply,
            Reply::Value {
                seq,
                value: *tenant * 31 + x
            }
        );
    }
    assert!(short > 0 && long > 0, "the gaps straddle the spin window");
    // Let every worker run out its window and park, then join.
    std::thread::sleep(SPIN_WINDOW * 20);
    let stats = plane.join(&mut server);
    assert_eq!(stats.len(), shards);
    assert_eq!(stats.iter().map(|s| s.served).sum::<u64>(), invokes as u64);
    assert!(
        stats.iter().map(|s| s.parks).sum::<u64>() > 0,
        "gaps past the window park a worker: {stats:?}"
    );
    assert_eq!(server.in_flight(), 0);
    assert_eq!(server.backlog(), 0);
}

#[test]
fn one_worker_answers_every_invoke_across_the_spin_window() {
    feed_at_random_gaps(1, 2_000, 0x5EED_0001);
}

#[test]
fn three_workers_answer_every_invoke_across_the_spin_window() {
    feed_at_random_gaps(3, 2_000, 0x5EED_0003);
}

#[test]
fn a_parked_worker_wakes_to_steal_a_backlog_homed_on_another_shard() {
    // Every tenant hashes to shard 0, and no request ever lands on shard
    // 1. Its worker parks before the work arrives; only the wake on
    // shard 0's backlog brings it back to steal.
    let mut server = build_server_with(
        ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
        Duration::from_micros(100),
    );
    let probe: RunQueues<()> = RunQueues::new(2, StealPolicy::default());
    let mut sessions: Vec<(GraftClient, u64, i64)> = (1..)
        .filter(|&t| probe.home(t) == 0)
        .take(4)
        .map(|t| {
            let (client, graft) = session(&mut server, t);
            (client, graft, t as i64)
        })
        .collect();
    let plane = server.spawn_workers();
    std::thread::sleep(SPIN_WINDOW * 20);
    let mut expected = 0;
    for (client, graft, tenant) in &mut sessions {
        for x in 1..=50 {
            let (_, bytes) = client.invoke(*graft, 0, &[*tenant, x]);
            server.ingest(client.conn, &bytes);
            expected += 1;
        }
    }
    server.pump();
    assert_eq!(server.queue_stats().diverted, 0, "the backlog stays homed");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut answered = 0;
    while answered < expected {
        server.reap();
        for (client, _, _) in &mut sessions {
            answered += replies(&mut server, client).len();
        }
        assert!(
            Instant::now() < deadline,
            "{answered} of {expected} answered"
        );
        // Leave both cores to the workers while they serve.
        std::thread::sleep(Duration::from_micros(200));
    }
    let stats = plane.join(&mut server);
    let thief = stats.iter().find(|s| s.shard == 1).expect("shard 1 worker");
    assert!(
        thief.served > 0,
        "shard 1's worker stole nothing: {stats:?}"
    );
    assert_eq!(server.queue_stats().steals, thief.served);
}

#[test]
fn join_returns_for_a_plane_that_never_saw_work() {
    let mut server = build_server(ServerConfig {
        shards: 4,
        ..ServerConfig::default()
    });
    let plane = server.spawn_workers();
    std::thread::sleep(SPIN_WINDOW * 20);
    let stats = plane.join(&mut server);
    assert!(stats.iter().all(|s| s.served == 0));
}

/// Sends `4 + k` invokes from a new session of tenant 7 in one pass;
/// returns every seq, the seqs refused `Overloaded`, the client and its
/// graft.
fn one_pass(server: &mut GraftServer, k: usize) -> (Vec<u32>, Vec<u32>, GraftClient, u64) {
    let (mut client, graft) = session(server, 7);
    let mut seqs = Vec::new();
    for x in 0..(4 + k) as i64 {
        let (seq, bytes) = client.invoke(graft, 0, &[7, x + 1]);
        seqs.push(seq);
        server.ingest(client.conn, &bytes);
    }
    server.pump();
    let refused = replies(server, &mut client)
        .into_iter()
        .map(|r| match r {
            Reply::Error {
                seq,
                error: WireError::Overloaded { .. },
            } => seq,
            other => panic!("only Overloaded replies before any drain: {other:?}"),
        })
        .collect();
    (seqs, refused, client, graft)
}

fn assert_exact_refusals(config: ServerConfig) {
    for k in [0, 1, 3, 9] {
        let mut server = build_server(config);
        let (seqs, refused, mut client, graft) = one_pass(&mut server, k);
        // The last k, exactly as an immediate push per request refuses.
        assert_eq!(refused, seqs[4..].to_vec(), "k = {k}");
        assert_eq!(server.stats().rejected_overloaded, k as u64);
        assert_eq!(server.in_flight(), 4);
        assert_eq!(server.backlog(), 4);
        assert_eq!(server.drain_all(), 4);
        let served: Vec<u32> = replies(&mut server, &mut client)
            .into_iter()
            .map(|r| match r {
                Reply::Value { seq, .. } => seq,
                other => panic!("admitted requests are served: {other:?}"),
            })
            .collect();
        assert_eq!(served.len(), 4);
        assert!(served.iter().all(|s| seqs[..4].contains(s)));
        assert_eq!(server.in_flight(), 0);
        let (accepted, rejected, _) = server.tenant_ledger(7).expect("tenant 7 connected");
        assert_eq!((accepted, rejected), (4, k as u64), "k = {k}");
        // Every slot came back: a second full pass is admitted whole.
        for x in 0..4 {
            let (_, bytes) = client.invoke(graft, 0, &[7, x + 1]);
            server.ingest(client.conn, &bytes);
        }
        server.pump();
        assert_eq!(server.stats().rejected_overloaded, k as u64, "k = {k}");
        assert_eq!(server.drain_all(), 4);
        assert_eq!(server.in_flight(), 0);
    }
}

#[test]
fn a_full_single_shard_refuses_exactly_the_overflow() {
    let quotas = TenantQuotas {
        max_in_flight: 64,
        ..TenantQuotas::default()
    };
    assert_exact_refusals(ServerConfig {
        shards: 1,
        steal: StealPolicy {
            queue_cap: 4,
            ..StealPolicy::default()
        },
        quotas,
        ..ServerConfig::default()
    });
}

#[test]
fn a_full_static_home_queue_refuses_exactly_the_overflow() {
    // Two shards, so the class share (8) is not what refuses: the
    // tenant's home queue fills at 4 staged jobs, and the static plane
    // refuses the rest at placement.
    let quotas = TenantQuotas {
        max_in_flight: 64,
        ..TenantQuotas::default()
    };
    assert_exact_refusals(ServerConfig {
        shards: 2,
        steal: StealPolicy {
            queue_cap: 4,
            ..StealPolicy::static_plane()
        },
        quotas,
        ..ServerConfig::default()
    });
}

#[test]
fn a_full_home_queue_diverts_staged_work_like_pushed_work() {
    // Stealing on: the overflow of a full home queue diverts to the
    // other shard, counting what is staged there too, until both are
    // full.
    let quotas = TenantQuotas {
        max_in_flight: 64,
        ..TenantQuotas::default()
    };
    let mut server = build_server(ServerConfig {
        shards: 2,
        steal: StealPolicy {
            queue_cap: 4,
            ..StealPolicy::default()
        },
        quotas,
        ..ServerConfig::default()
    });
    let (seqs, refused, _client, _) = one_pass(&mut server, 5);
    assert_eq!(refused, seqs[8..].to_vec());
    assert_eq!(server.shard_depth(0), 4);
    assert_eq!(server.shard_depth(1), 4);
    assert_eq!(server.queue_stats().diverted, 4);
    assert_eq!(server.queue_stats().enqueued, 8);
}

#[test]
fn nothing_stays_staged_once_a_pump_returns() {
    let mut server = build_server(ServerConfig {
        shards: 3,
        ..ServerConfig::default()
    });
    let mut sessions: Vec<(GraftClient, u64)> =
        (1..=5u64).map(|t| session(&mut server, t)).collect();
    // Admitted and not yet served; admitted in all.
    let (mut admitted, mut total) = (0u64, 0u64);
    for round in 0..6 {
        for (t, (client, graft)) in sessions.iter_mut().enumerate() {
            for x in 0..=round {
                let (_, bytes) = client.invoke(*graft, 0, &[t as i64, x + 1]);
                server.ingest(client.conn, &bytes);
                admitted += 1;
                total += 1;
            }
        }
        // Alternate the two admitting calls; either way every admitted
        // job is queued (or already served) when it returns.
        if round % 2 == 0 {
            server.pump();
        } else {
            for (client, _) in &sessions {
                server.pump_conn(client.conn);
                assert_eq!(server.in_flight(), server.backlog() as u64);
            }
        }
        assert_eq!(server.in_flight(), admitted);
        assert_eq!(server.backlog() as u64, admitted);
        assert_eq!(server.queue_stats().enqueued, total);
        if round == 3 {
            admitted -= server.drain_all() as u64;
            assert_eq!(admitted, 0);
        }
    }
    server.drain_all();
    assert_eq!(server.in_flight(), 0);
}
