//! Exactly-once strike accounting when a trap races the tenant's own
//! queued work on another worker.
//!
//! The hazard: a tenant's trap on worker A detaches the graft
//! (kernel-side CAS) while worker B is concurrently serving the same
//! tenant's next queued request. If strike accounting keyed off "the
//! reply was an error" the tenant would be struck once per straggler;
//! the fix under test is structural — completions are reaped serially
//! on the pump thread and only a `Serving -> quarantined-graft`
//! transition strikes, so one trap episode is one strike no matter how
//! many in-flight requests it strands.
//!
//! Two shapes:
//!
//! * a **deterministic interleave** built with the invoke/reap split:
//!   the trap batch is invoked on its home shard, the tenant's
//!   remaining requests are invoked on the divert shard *before any
//!   completion is processed*, then one reap settles the lot;
//! * a **live race**: a worker plane under a banning saboteur plus six
//!   clean victim tenants, iterated to shake interleavings on real
//!   threads.

use graft_api::{
    EntryPoint, ExtensionEngine, NativeEngine, RegionSpec, RegionStore, Technology, Trap,
};
use graft_kernel::{HostConfig, StealPolicy};
use graft_server::{GraftClient, GraftServer, Reply, ServerConfig, Standing, WireError};
use std::collections::BTreeMap;

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

fn drain_replies(server: &mut GraftServer, client: &mut GraftClient) -> Vec<Reply> {
    let out = server.take_outbound(client.conn);
    client.on_bytes(&out).expect("server frames decode")
}

/// The deterministic interleave: worker A's trap detaches the graft
/// while the tenant's next requests already sit invoked-or-queued on
/// worker B's shard. One strike, one quarantine, zero served values.
#[test]
fn a_trap_on_one_shard_strikes_once_while_another_shard_serves_the_queue() {
    let config = ServerConfig {
        shards: 2,
        // First trap detaches: the whole tail of the episode strands,
        // whichever shard it was invoked on.
        host: HostConfig {
            trap_threshold: 1,
            ..HostConfig::default()
        },
        // A 3-deep home queue so the tenant's tail diverts to the
        // other shard — the two-worker split without any racing.
        steal: StealPolicy {
            queue_cap: 3,
            ..StealPolicy::default()
        },
        ..ServerConfig::default()
    };
    let mut server = build_server(config);
    let (mut client, graft) = session(&mut server, 1);
    let home = server.home_shard(1);
    let other = 1 - home;

    // Three traps then three cleans, all admitted before anything is
    // invoked: traps fill the home queue, cleans divert.
    let mut seqs = Vec::new();
    for k in [0i64, 0, 0, 5, 6, 7] {
        let (seq, bytes) = client.invoke(graft, 0, &[1, k]);
        seqs.push(seq);
        server.ingest(client.conn, &bytes);
    }
    server.pump();
    assert_eq!(server.shard_depth(home), 3, "traps fill the home queue");
    assert_eq!(server.shard_depth(other), 3, "cleans divert");
    assert_eq!(server.queue_stats().diverted, 3);

    // Worker A drains its trap queue dry: the first trap detaches the
    // graft, everything after strands. Batches are adaptive and the
    // balance-steal may pull some of B's cleans over mid-drain —
    // either way the traps go first and A invokes at least them.
    let mut on_a = 0;
    while server.shard_depth(home) > 0 {
        on_a += server.drain_invoke(home);
    }
    assert!(on_a >= 3, "worker A invoked at least its own queue: {on_a}");
    // Worker B: whatever of the tenant's tail was not stolen, invoked
    // before any completion has been processed — the race window,
    // frozen.
    let mut on_b = 0;
    while server.shard_depth(other) > 0 {
        on_b += server.drain_invoke(other);
    }
    assert_eq!(on_a + on_b, 6);
    // Nothing has been accounted yet; now settle in one pass.
    assert_eq!(server.in_flight(), 6);
    assert_eq!(server.reap(), 6);

    let mut replies = BTreeMap::new();
    for r in drain_replies(&mut server, &mut client) {
        assert!(replies.insert(r.seq(), r).is_none(), "seq answered twice");
    }
    assert_eq!(replies.len(), 6, "every stranded request was answered");
    let traps = replies
        .values()
        .filter(|r| {
            matches!(
                r,
                Reply::Error {
                    error: WireError::Trap { .. },
                    ..
                }
            )
        })
        .count();
    let stranded = replies
        .values()
        .filter(|r| {
            matches!(
                r,
                Reply::Error {
                    error: WireError::Unavailable(_),
                    ..
                }
            )
        })
        .count();
    let served = replies
        .values()
        .filter(|r| matches!(r, Reply::Value { .. }))
        .count();
    assert_eq!(
        (traps, stranded, served),
        (1, 5, 0),
        "one trap reply, five stranded, nothing served: {replies:?}"
    );

    // Exactly one strike for the whole episode.
    assert_eq!(server.tenant_trips(1), Some(1));
    assert_eq!(server.stats().tenants_quarantined, 1);
    assert!(matches!(
        server.tenant_standing(1),
        Some(Standing::Parked { .. })
    ));
}

/// The live race: a banning saboteur (backoff base 0: first strike is
/// terminal) floods traps into a running worker plane while six victim
/// tenants are served concurrently. However the threads interleave —
/// concurrent trap invokes, steals, stragglers — the saboteur is
/// struck exactly once and every victim request is served.
#[test]
fn a_banning_saboteur_on_live_workers_strikes_once_and_victims_never_notice() {
    const ITERS: u64 = 30;
    const VICTIMS: u64 = 6;
    const CALLS: i64 = 8;
    for iter in 0..ITERS {
        let config = ServerConfig {
            shards: 4,
            backoff_base: 0, // first quarantine is a permanent ban
            ..ServerConfig::default()
        };
        let mut server = build_server(config);
        let (mut sab, sab_graft) = session(&mut server, 999);
        let mut victims: Vec<(GraftClient, u64)> =
            (1..=VICTIMS).map(|t| session(&mut server, t)).collect();

        let plane = server.spawn_workers();

        // Interleave the saboteur's traps with victim traffic so the
        // admissions land shuffled across the plane.
        let mut expected: Vec<BTreeMap<u32, i64>> = vec![BTreeMap::new(); VICTIMS as usize];
        for call in 0..CALLS {
            let (_, bytes) = sab.invoke(sab_graft, 0, &[9, 0]);
            server.ingest(sab.conn, &bytes);
            for (v, (client, graft)) in victims.iter_mut().enumerate() {
                let k = 1 + (iter as i64 * CALLS + call) % 100;
                let (seq, bytes) = client.invoke(*graft, 0, &[v as i64, k]);
                expected[v].insert(seq, v as i64 * 31 + k);
                server.ingest(client.conn, &bytes);
            }
            server.pump();
        }

        while server.in_flight() > 0 {
            if server.reap() == 0 {
                std::thread::yield_now();
            }
        }
        plane.join(&mut server);

        // Exactly-once strike, terminal ban, zero served traps.
        assert_eq!(server.tenant_trips(999), Some(1), "iter {iter}");
        assert_eq!(
            server.tenant_standing(999),
            Some(Standing::Banned),
            "iter {iter}"
        );
        for r in drain_replies(&mut server, &mut sab) {
            assert!(
                matches!(r, Reply::Error { .. }),
                "iter {iter}: saboteur got served: {r:?}"
            );
        }

        // Every victim request came back with its value — the episode
        // leaked nothing into their service.
        for (v, (client, _)) in victims.iter_mut().enumerate() {
            let mut got = BTreeMap::new();
            for r in drain_replies(&mut server, client) {
                match r {
                    Reply::Value { seq, value } => {
                        got.insert(seq, value);
                    }
                    other => panic!("iter {iter} victim {v}: {other:?}"),
                }
            }
            assert_eq!(got, expected[v], "iter {iter} victim {v}");
            let id = 1 + v as u64;
            assert_eq!(server.tenant_trips(id), Some(0), "iter {iter} victim {v}");
            assert_eq!(
                server.tenant_standing(id),
                Some(Standing::Serving),
                "iter {iter} victim {v}"
            );
        }
        assert_eq!(server.backlog(), 0);
    }
}
