//! End-to-end conformance for the graft-server protocol core.
//!
//! Everything here crosses the wire as *bytes* through the
//! `VirtualTransport`, so the framing, error, and reordering paths are
//! the ones a live pipe exercises. The suite pins the ISSUE contracts:
//! malformed frames answered without tearing the connection, stale
//! `EntryId`s trapping deterministically, batched wire invokes
//! matching the in-process `invoke_batch` verdict-for-verdict, typed
//! quota refusals, and backoff re-admission timelines matching the
//! graft host's own ladder.

use graft_api::{
    EntryPoint, ExtensionEngine, GraftError, NativeEngine, RegionSpec, RegionStore, Technology,
    Trap,
};
use graft_kernel::{AttachPoint, GraftState, HostConfig, ShardedHost, StealPolicy};
use graft_server::{
    GraftServer, Reply, ServerConfig, Standing, TenantQuotas, VirtualTransport, WireError,
};
use std::sync::Arc;

/// Wire code for `AttachPoint::VmEvict` (`select_victim/2`).
const POINT: u8 = 0;
/// Wire code for `Technology::RustNative`.
const TECH: u8 = 0;

/// A forkable native engine exporting `select_victim/2`.
fn victim_engine<F>(make: F) -> Box<dyn ExtensionEngine>
where
    F: Fn() -> Box<dyn graft_api::NativeGraft> + Send + Sync + 'static,
{
    let specs = [RegionSpec::data("scratch", 8)];
    let entries = [EntryPoint {
        name: "select_victim".into(),
        arity: 2,
    }];
    let factory: graft_api::spec::SharedNativeFactory = Arc::new(make);
    Box::new(NativeEngine::from_factory(&specs, &entries, factory).unwrap())
}

/// `select_victim(a, b) = a*31 + b`, trapping DivByZero when `b == 0`.
fn tagging() -> Box<dyn ExtensionEngine> {
    victim_engine(|| {
        Box::new(|_: &str, args: &[i64], _: &mut RegionStore| {
            if args[1] == 0 {
                return Err(Trap::DivByZero.into());
            }
            Ok(args[0] * 31 + args[1])
        })
    })
}

fn server(config: ServerConfig) -> GraftServer {
    let mut s = GraftServer::new(config);
    s.register_spec("tag", Box::new(|_tech: Technology| Ok(tagging())));
    s
}

/// hello → install → bind → invoke round trip, all through bytes.
#[test]
fn hello_install_invoke_round_trip() {
    let mut vt = VirtualTransport::new(server(ServerConfig::default()));
    let mut c = vt.connect();

    let hello = c.hello(7);
    assert_eq!(vt.rpc(&mut c, &hello), Reply::Welcome { seq: 1, tenant: 7 });

    let install = c.install(POINT, TECH, "tag");
    let graft = match vt.rpc(&mut c, &install) {
        Reply::Installed { graft, .. } => graft,
        other => panic!("{other:?}"),
    };

    let bind = c.bind(graft, "select_victim");
    assert!(matches!(
        vt.rpc(&mut c, &bind),
        Reply::Bound { entry: 0, .. }
    ));

    let (seq, invoke) = c.invoke(graft, 0, &[10, 3]);
    assert_eq!(
        vt.rpc(&mut c, &invoke),
        Reply::Value {
            seq,
            value: 10 * 31 + 3
        }
    );

    // An engine that checks arity answers a wrong argument count
    // `BadArity`, whether the list travels inline (one argument) or on
    // the heap (three, more than any attach point takes), and the
    // connection keeps serving.
    vt.server.register_spec(
        "grail-tag",
        Box::new(|_tech: Technology| {
            let engine = engine_bytecode::BytecodeEngine::load_grail(
                "fn select_victim(a: int, b: int) -> int { return a * 31 + b; }",
                &[],
            )?;
            Ok(Box::new(engine) as Box<dyn ExtensionEngine>)
        }),
    );
    let install = c.install(POINT, TECH, "grail-tag");
    let checked = match vt.rpc(&mut c, &install) {
        Reply::Installed { graft, .. } => graft,
        other => panic!("{other:?}"),
    };
    for args in [&[10][..], &[10, 3, 4], &[10, 3]] {
        let (seq, invoke) = c.invoke(checked, 0, args);
        let expected = match args.len() {
            2 => Reply::Value {
                seq,
                value: 10 * 31 + 3,
            },
            got => Reply::Error {
                seq,
                error: WireError::BadArity {
                    expected: 2,
                    got: got as u32,
                },
            },
        };
        assert_eq!(vt.rpc(&mut c, &invoke), expected);
    }
}

/// A malformed frame gets a typed error and the connection keeps
/// serving; an oversized length prefix is the one fatal shape.
#[test]
fn malformed_frame_does_not_tear_the_connection() {
    let mut vt = VirtualTransport::new(server(ServerConfig::default()));
    let mut c = vt.connect();
    let hello = c.hello(1);
    vt.rpc(&mut c, &hello);
    let install = c.install(POINT, TECH, "tag");
    let graft = match vt.rpc(&mut c, &install) {
        Reply::Installed { graft, .. } => graft,
        other => panic!("{other:?}"),
    };

    // A well-framed body with an unknown opcode.
    let mut bogus = Vec::new();
    let body = [0x6fu8, 9, 0, 0, 0, 0xde, 0xad];
    bogus.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bogus.extend_from_slice(&body);
    match vt.rpc(&mut c, &bogus) {
        Reply::Error {
            seq: 9,
            error: WireError::Malformed(_),
        } => {}
        other => panic!("{other:?}"),
    }

    // The connection survived: the next real request still serves.
    let (seq, invoke) = c.invoke(graft, 0, &[2, 1]);
    assert_eq!(vt.rpc(&mut c, &invoke), Reply::Value { seq, value: 63 });
    assert_eq!(vt.server.stats().malformed, 1);

    // An untrusted length prefix, by contrast, closes the connection.
    let mut fatal = Vec::new();
    fatal.extend_from_slice(&(graft_server::MAX_FRAME as u32 + 1).to_le_bytes());
    let replies = vt.exchange(&mut c, &fatal);
    assert!(
        matches!(
            replies.as_slice(),
            [Reply::Error {
                error: WireError::Malformed(_),
                ..
            }]
        ),
        "{replies:?}"
    );
    assert!(!vt.server.is_open(c.conn));
}

/// A stale `EntryId` over the wire traps deterministically — same
/// answer every time, never a panic, never an enqueue.
#[test]
fn stale_entry_id_traps_deterministically() {
    let mut vt = VirtualTransport::new(server(ServerConfig::default()));
    let mut c = vt.connect();
    let hello = c.hello(1);
    vt.rpc(&mut c, &hello);
    let install = c.install(POINT, TECH, "tag");
    let graft = match vt.rpc(&mut c, &install) {
        Reply::Installed { graft, .. } => graft,
        other => panic!("{other:?}"),
    };

    for _ in 0..3 {
        let (seq, invoke) = c.invoke(graft, 99, &[1, 1]);
        assert_eq!(
            vt.rpc(&mut c, &invoke),
            Reply::Error {
                seq,
                error: WireError::StaleHandle { kind: 0, id: 99 }
            }
        );
    }
    // Stale-handle refusals never reached the data plane.
    assert_eq!(vt.server.stats().served, 0);

    // And a handle from another tenant's namespace is invisible, not
    // stale: cross-tenant probing learns nothing but NoSuchGraft.
    let mut c2 = vt.connect();
    let hello = c2.hello(2);
    vt.rpc(&mut c2, &hello);
    let (seq, invoke) = c2.invoke(graft, 0, &[1, 1]);
    assert_eq!(
        vt.rpc(&mut c2, &invoke),
        Reply::Error {
            seq,
            error: WireError::NoSuchGraft(graft)
        }
    );
}

/// Batched wire invoke ≡ in-process `invoke_batch`, verdict for
/// verdict, including the prefix-on-trap cut.
#[test]
fn wire_batch_matches_in_process_invoke_batch() {
    // In-process reference: same engine, same calls.
    let mut reference = tagging();
    let entry = reference.bind_entry("select_victim").unwrap();
    let args: Vec<i64> = vec![1, 5, 2, 7, 3, 0, 4, 9]; // call 3 traps (b == 0)
    let mut expect_values = Vec::new();
    let expect_err = reference
        .invoke_batch(entry, 4, &args, &mut expect_values)
        .unwrap_err();
    assert_eq!(expect_values, vec![31 + 5, 2 * 31 + 7]);

    let mut vt = VirtualTransport::new(server(ServerConfig::default()));
    let mut c = vt.connect();
    let hello = c.hello(1);
    vt.rpc(&mut c, &hello);
    let install = c.install(POINT, TECH, "tag");
    let graft = match vt.rpc(&mut c, &install) {
        Reply::Installed { graft, .. } => graft,
        other => panic!("{other:?}"),
    };

    let (seq, batch) = c.invoke_batch(graft, 0, 2, &args);
    match vt.rpc(&mut c, &batch) {
        Reply::Batch {
            seq: got_seq,
            values,
            error: Some(WireError::Trap { kind, .. }),
        } => {
            assert_eq!(got_seq, seq);
            assert_eq!(values, expect_values);
            assert_eq!(
                kind,
                expect_err.as_trap().unwrap().kind() as u8,
                "wire trap kind must match the in-process trap"
            );
        }
        other => panic!("{other:?}"),
    }

    // A clean batch matches too.
    let clean: Vec<i64> = vec![1, 1, 2, 2, 3, 3];
    let mut expect_values = Vec::new();
    reference
        .invoke_batch(entry, 3, &clean, &mut expect_values)
        .unwrap();
    let (_, batch) = c.invoke_batch(graft, 0, 2, &clean);
    match vt.rpc(&mut c, &batch) {
        Reply::Batch {
            values,
            error: None,
            ..
        } => assert_eq!(values, expect_values),
        other => panic!("{other:?}"),
    }
}

/// Quota exhaustion is typed — `QuotaExceeded` for the namespace,
/// `Overloaded` for the in-flight cap — and never a silent drop.
#[test]
fn quota_exhaustion_is_typed_never_silent() {
    let config = ServerConfig {
        quotas: TenantQuotas {
            max_grafts: 1,
            max_in_flight: 2,
            fuel_budget: None,
        },
        ..ServerConfig::default()
    };
    let mut vt = VirtualTransport::new(server(config));
    let mut c = vt.connect();
    let hello = c.hello(1);
    vt.rpc(&mut c, &hello);
    let install = c.install(POINT, TECH, "tag");
    let graft = match vt.rpc(&mut c, &install) {
        Reply::Installed { graft, .. } => graft,
        other => panic!("{other:?}"),
    };

    // Second install: namespace quota, typed.
    let install = c.install(POINT, TECH, "tag");
    match vt.rpc(&mut c, &install) {
        Reply::Error {
            error: WireError::QuotaExceeded { resource, limit },
            ..
        } => {
            assert_eq!(resource, "grafts");
            assert_eq!(limit, 1);
        }
        other => panic!("{other:?}"),
    }

    // Submit 3 invokes in one flush without serving: the third must be
    // refused Overloaded (cap 2), and *every* request gets a reply.
    let mut bytes = Vec::new();
    let mut seqs = Vec::new();
    for _ in 0..3 {
        let (seq, invoke) = c.invoke(graft, 0, &[1, 1]);
        seqs.push(seq);
        bytes.extend_from_slice(&invoke);
    }
    let replies = vt.exchange(&mut c, &bytes);
    assert_eq!(replies.len(), 3, "no silent drops: {replies:?}");
    let overloaded: Vec<_> = replies
        .iter()
        .filter(|r| {
            matches!(
                r,
                Reply::Error {
                    error: WireError::Overloaded {
                        in_flight: 2,
                        cap: 2
                    },
                    ..
                }
            )
        })
        .collect();
    assert_eq!(overloaded.len(), 1, "{replies:?}");
    assert_eq!(overloaded[0].seq(), seqs[2]);
    assert_eq!(vt.server.stats().rejected_overloaded, 1);
}

/// The cumulative fuel budget refuses with `QuotaExceeded("fuel")`
/// once the ledgers say the tenant has burned its allowance.
#[test]
fn fuel_budget_exhaustion_is_typed() {
    let config = ServerConfig {
        quotas: TenantQuotas {
            fuel_budget: Some(1), // any metered burn exhausts it
            ..TenantQuotas::default()
        },
        fuel_refresh: 1, // re-price from the ledgers every completion
        ..ServerConfig::default()
    };
    let mut vt = VirtualTransport::new(GraftServer::new(config));
    // A Grail-compiled engine meters fuel (native does not).
    vt.server.register_spec(
        "grail-tag",
        Box::new(|_tech: Technology| {
            let engine = engine_bytecode::BytecodeEngine::load_grail(
                "fn select_victim(a: int, b: int) -> int { return a * 31 + b; }",
                &[],
            )?;
            Ok(Box::new(engine) as Box<dyn ExtensionEngine>)
        }),
    );
    let mut c = vt.connect();
    let hello = c.hello(1);
    vt.rpc(&mut c, &hello);
    let install = c.install(POINT, TECH, "grail-tag");
    let graft = match vt.rpc(&mut c, &install) {
        Reply::Installed { graft, .. } => graft,
        other => panic!("{other:?}"),
    };

    // First invoke serves (budget not yet known to be burned)…
    let (_, invoke) = c.invoke(graft, 0, &[1, 1]);
    assert!(matches!(vt.rpc(&mut c, &invoke), Reply::Value { .. }));
    // …after which the refreshed ledger shows the burn and the tenant
    // is over budget: typed refusal at admission.
    let (_, invoke) = c.invoke(graft, 0, &[1, 1]);
    match vt.rpc(&mut c, &invoke) {
        Reply::Error {
            error: WireError::QuotaExceeded { resource, limit: 1 },
            ..
        } => assert_eq!(resource, "fuel"),
        other => panic!("{other:?}"),
    }
    assert_eq!(vt.server.stats().rejected_quota, 1);
}

/// The noisy-neighbor contract: a trapping saboteur is quarantined
/// (typed `Quarantined` refusals), victims keep serving throughout,
/// and the backoff ladder re-admits after its window — with timelines
/// matching the graft host's ladder (`base << (trip-1)`).
#[test]
fn saboteur_quarantine_isolates_and_ladder_matches_the_kernel_host() {
    let base = 4u64;
    let config = ServerConfig {
        backoff_base: base,
        ban_ceiling: 3,
        ..ServerConfig::default()
    };
    let mut vt = VirtualTransport::new(server(config));
    let mut victim = vt.connect();
    let mut sab = vt.connect();
    let hello = victim.hello(1);
    vt.rpc(&mut victim, &hello);
    let hello = sab.hello(2);
    vt.rpc(&mut sab, &hello);

    let install = victim.install(POINT, TECH, "tag");
    let vg = match vt.rpc(&mut victim, &install) {
        Reply::Installed { graft, .. } => graft,
        other => panic!("{other:?}"),
    };
    let install = sab.install(POINT, TECH, "tag");
    let sg = match vt.rpc(&mut sab, &install) {
        Reply::Installed { graft, .. } => graft,
        other => panic!("{other:?}"),
    };

    // Three traps (b == 0) trip the supervisor.
    for _ in 0..3 {
        let (_, invoke) = sab.invoke(sg, 0, &[1, 0]);
        match vt.rpc(&mut sab, &invoke) {
            Reply::Error {
                error: WireError::Trap { .. } | WireError::Unavailable(_),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(
        vt.server.tenant_standing(2),
        Some(Standing::Parked {
            graft: graft_kernel::GraftId(sg),
            remaining: base, // trip 1: window = base << 0
        })
    );

    // Parked tenant is refused with the typed wire error…
    let (_, invoke) = sab.invoke(sg, 0, &[1, 1]);
    match vt.rpc(&mut sab, &invoke) {
        Reply::Error {
            error: WireError::Quarantined { backoff_remaining },
            ..
        } => assert_eq!(backoff_remaining, base),
        other => panic!("{other:?}"),
    }

    // …while the victim keeps serving; its clean dispatches tick the
    // ladder, and after exactly `base` the saboteur is re-admitted.
    for i in 0..base {
        let (seq, invoke) = victim.invoke(vg, 0, &[7, 1]);
        assert_eq!(
            vt.rpc(&mut victim, &invoke),
            Reply::Value {
                seq,
                value: 7 * 31 + 1
            },
            "victim dispatch {i} must serve during the quarantine"
        );
    }
    assert_eq!(vt.server.tenant_standing(2), Some(Standing::Serving));
    // The graft is back (on probation) and serves again.
    let (seq, invoke) = sab.invoke(sg, 0, &[2, 1]);
    assert_eq!(vt.rpc(&mut sab, &invoke), Reply::Value { seq, value: 63 });

    // Kernel-ladder parity: the same trip count on a 1-shard graft host
    // with the same config produces the same window. Trip 2 = base*2.
    for _ in 0..1 {
        let (_, invoke) = sab.invoke(sg, 0, &[1, 0]);
        vt.rpc(&mut sab, &invoke); // probation: one trap re-quarantines
    }
    match vt.server.tenant_standing(2) {
        Some(Standing::Parked { remaining, .. }) => assert_eq!(remaining, base * 2),
        other => panic!("{other:?}"),
    }

    let kernel_windows = kernel_ladder_windows(base, 3);
    assert_eq!(
        kernel_windows,
        vec![base, base * 2],
        "kernel host schedule: windows then ban at ceiling"
    );

    // Trip 3 hits the ceiling on both: permanent ban.
    for _ in 0..base * 2 {
        let (_, invoke) = victim.invoke(vg, 0, &[7, 1]);
        vt.rpc(&mut victim, &invoke);
    }
    assert_eq!(vt.server.tenant_standing(2), Some(Standing::Serving));
    let (_, invoke) = sab.invoke(sg, 0, &[1, 0]);
    vt.rpc(&mut sab, &invoke);
    assert_eq!(vt.server.tenant_standing(2), Some(Standing::Banned));
    let (_, invoke) = sab.invoke(sg, 0, &[1, 1]);
    match vt.rpc(&mut sab, &invoke) {
        Reply::Error {
            error: WireError::Quarantined {
                backoff_remaining: 0,
            },
            ..
        } => {}
        other => panic!("{other:?}"),
    }
}

/// Runs a trapping graft through the graft host's backoff ladder (one
/// shard) and records each re-admission window (dispatches served
/// without the graft), stopping at the ban. The server's per-tenant
/// ladder must produce the same schedule.
fn kernel_ladder_windows(base: u64, ceiling: u32) -> Vec<u64> {
    let config = HostConfig {
        backoff_base: base,
        ban_ceiling: ceiling,
        trap_threshold: 1, // first trap quarantines: trips align 1:1
        ..HostConfig::default()
    };
    let mut host = ShardedHost::with_config(1, config);
    let mut shard = host.take_handle(0).expect("fresh host");
    let id = host
        .install(
            AttachPoint::VmEvict,
            "trappy",
            victim_engine(|| {
                Box::new(|_: &str, _: &[i64], _: &mut RegionStore| {
                    Err::<i64, GraftError>(Trap::DivByZero.into())
                })
            }),
        )
        .unwrap();
    let mut windows = Vec::new();
    loop {
        // Trap once to (re-)quarantine.
        shard.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        match host.state(id) {
            Some(GraftState::Banned) => return windows,
            Some(GraftState::Quarantined { .. }) => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        // Count built-in dispatches until the ladder re-admits.
        let mut served = 0u64;
        while matches!(host.state(id), Some(GraftState::Quarantined { .. })) {
            shard.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
            served += 1;
            assert!(served < 1_000_000, "ladder never re-admitted");
        }
        windows.push(served);
    }
}

/// The stealing plane really serves the data plane: requests keyed by
/// tenant spread over shards, complete out of order, and every reply's
/// echoed seq re-associates it.
#[test]
fn sharded_plane_serves_and_seq_reassociates() {
    let config = ServerConfig {
        shards: 4,
        steal: StealPolicy::default(),
        quotas: TenantQuotas {
            max_in_flight: 1024,
            ..TenantQuotas::default()
        },
        ..ServerConfig::default()
    };
    let mut vt = VirtualTransport::new(server(config));
    let mut clients = Vec::new();
    for tenant in 0..16u64 {
        let mut c = vt.connect();
        let hello = c.hello(tenant);
        vt.rpc(&mut c, &hello);
        let install = c.install(POINT, TECH, "tag");
        let graft = match vt.rpc(&mut c, &install) {
            Reply::Installed { graft, .. } => graft,
            other => panic!("{other:?}"),
        };
        clients.push((c, graft));
    }

    // Every tenant submits a burst; serve everything, then match
    // replies by seq and check the tenant-tagged values never leak
    // across namespaces.
    let mut expected = Vec::new(); // (tenant index, seq, value)
    for (i, (c, graft)) in clients.iter_mut().enumerate() {
        let mut bytes = Vec::new();
        for k in 1..=8i64 {
            let (seq, invoke) = c.invoke(*graft, 0, &[i as i64, k]);
            expected.push((i, seq, i as i64 * 31 + k));
            bytes.extend_from_slice(&invoke);
        }
        vt.server.ingest(c.conn, &bytes);
    }
    vt.server.pump();
    vt.server.drain_all();

    for (i, (c, _)) in clients.iter_mut().enumerate() {
        let out = vt.server.take_outbound(c.conn);
        let replies = c.on_bytes(&out).unwrap();
        assert_eq!(replies.len(), 8);
        for reply in replies {
            match reply {
                Reply::Value { seq, value } => {
                    let (_, _, want) = expected
                        .iter()
                        .find(|(t, s, _)| *t == i && *s == seq)
                        .expect("reply seq matches a request");
                    assert_eq!(value, *want, "tenant {i} saw a foreign verdict");
                }
                other => panic!("{other:?}"),
            }
        }
    }
    assert_eq!(vt.server.stats().served, 16 * 8);
}
