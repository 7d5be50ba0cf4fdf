//! Slowloris and connection-churn stress: a tenant that dribbles bytes
//! or vanishes mid-stream must cost every other tenant nothing.
//!
//! Four shapes, two deterministic and two live:
//!
//! * **framer slowloris** (deterministic): a victim connection feeds an
//!   invoke frame one byte at a time; between every byte a bystander
//!   completes a full round-trip. The incremental framer holds the
//!   partial frame without ever blocking the pump or answering early.
//! * **churn orphans** (deterministic): a connection is torn down from
//!   the transport side with requests still in flight; their
//!   accounting runs exactly once, their replies are counted orphaned,
//!   and nothing leaks into other tenants.
//! * **pipe slowloris + churn** (live, gated on
//!   `kernsim::netpipe::AVAILABLE`): a byte-at-a-time dribbler holds
//!   its last byte until two fast clients have *finished entire
//!   sessions* — deterministic proof the threaded pump served others
//!   while the frame was incomplete — plus a client that drops its
//!   pipe mid-stream without `Bye`.
//! * **slow reader** (live, gated): a client writes thousands of
//!   requests while refusing to read replies until the end. Reply
//!   bytes exceed the pipe capacity, so the loop's non-blocking writes
//!   park them in the per-connection pending buffer; a concurrent fast
//!   client completes its session regardless, and every reply is
//!   eventually delivered. (The old blocking write loop deadlocks
//!   here.)

use graft_api::{
    EntryPoint, ExtensionEngine, NativeEngine, RegionSpec, RegionStore, Technology, Trap,
};
use graft_kernel::StealPolicy;
use graft_server::{
    serve_pipes_threaded, GraftClient, GraftServer, Reply, ServerConfig, TenantQuotas,
};
use kernsim::netpipe::PipeEnd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const POINT: u8 = 0;
const TECH: u8 = 0;

fn tagging() -> Box<dyn ExtensionEngine> {
    let specs = [RegionSpec::data("scratch", 8)];
    let entries = [EntryPoint {
        name: "select_victim".into(),
        arity: 2,
    }];
    let factory: graft_api::spec::SharedNativeFactory = Arc::new(|| {
        Box::new(|_: &str, args: &[i64], _: &mut RegionStore| {
            if args[1] == 0 {
                return Err(Trap::DivByZero.into());
            }
            Ok(args[0] * 31 + args[1])
        }) as Box<dyn graft_api::NativeGraft>
    });
    Box::new(NativeEngine::from_factory(&specs, &entries, factory).unwrap())
}

fn build_server(config: ServerConfig) -> GraftServer {
    let mut s = GraftServer::new(config);
    s.register_spec("tag", Box::new(|_tech: Technology| Ok(tagging())));
    s
}

/// Hello + install on a fresh connection of a raw server.
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

#[test]
fn a_byte_at_a_time_frame_never_stalls_other_tenants() {
    let mut server = build_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let (mut slow, slow_graft) = session(&mut server, 1);
    let (mut fast, fast_graft) = session(&mut server, 2);

    let (slow_seq, slow_frame) = slow.invoke(slow_graft, 0, &[1, 9]);
    let mut fast_served = 0u64;
    for (i, byte) in slow_frame.iter().enumerate() {
        server.ingest(slow.conn, std::slice::from_ref(byte));
        // A full bystander round-trip between every dribbled byte.
        let k = 1 + i as i64;
        let (seq, bytes) = fast.invoke(fast_graft, 0, &[2, k]);
        server.ingest(fast.conn, &bytes);
        server.pump();
        server.drain_all();
        let replies = fast
            .on_bytes(&server.take_outbound(fast.conn))
            .expect("decode");
        assert_eq!(
            replies,
            vec![Reply::Value {
                seq,
                value: 2 * 31 + k
            }],
            "byte {i}: bystander stalled behind a partial frame"
        );
        fast_served += 1;
        if i + 1 < slow_frame.len() {
            // The partial frame must never have been answered.
            assert!(
                server.take_outbound(slow.conn).is_empty(),
                "byte {i}: replied to an incomplete frame"
            );
        }
    }

    // The last byte completed the frame: exactly one reply, correct.
    let replies = slow
        .on_bytes(&server.take_outbound(slow.conn))
        .expect("decode");
    assert_eq!(
        replies,
        vec![Reply::Value {
            seq: slow_seq,
            value: 31 + 9
        }]
    );
    assert_eq!(fast_served, slow_frame.len() as u64);
    assert_eq!(server.stats().served, fast_served + 1);
}

#[test]
fn transport_churn_orphans_replies_but_accounts_exactly_once() {
    let mut server = build_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let (mut churner, churn_graft) = session(&mut server, 1);
    let (mut fast, fast_graft) = session(&mut server, 2);

    // Admit a burst, then the peer vanishes before anything completes.
    const K: u64 = 12;
    for k in 1..=K as i64 {
        let (_, bytes) = churner.invoke(churn_graft, 0, &[1, k]);
        server.ingest(churner.conn, &bytes);
    }
    server.pump();
    assert_eq!(server.in_flight(), K);
    server.disconnect(churner.conn);
    assert!(!server.is_open(churner.conn));

    server.drain_all();

    // Every reply was dropped as an orphan; the accounting still ran
    // exactly once per request.
    assert_eq!(server.stats().orphaned, K);
    assert_eq!(server.in_flight(), 0);
    assert_eq!(server.backlog(), 0);
    assert_eq!(
        server.tenant_ledger(1).map(|(a, r, _)| (a, r)),
        Some((K, 0))
    );
    assert!(server.take_outbound(churner.conn).is_empty());

    // Rapid reconnect: the same tenant on a fresh connection is served
    // immediately — churn is not quarantine.
    let conn = server.connect();
    let mut back = GraftClient::new(conn);
    let hello = back.hello(1);
    server.ingest(conn, &hello);
    let (seq, bytes) = back.invoke(churn_graft, 0, &[1, 5]);
    server.ingest(conn, &bytes);
    server.pump();
    server.drain_all();
    let replies = back.on_bytes(&server.take_outbound(conn)).expect("decode");
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert_eq!(replies[1], Reply::Value { seq, value: 31 + 5 });

    // The bystander never noticed any of it.
    let (seq, bytes) = fast.invoke(fast_graft, 0, &[2, 3]);
    server.ingest(fast.conn, &bytes);
    server.pump();
    server.drain_all();
    let replies = fast
        .on_bytes(&server.take_outbound(fast.conn))
        .expect("decode");
    assert_eq!(
        replies,
        vec![Reply::Value {
            seq,
            value: 2 * 31 + 3
        }]
    );
}

/// A full fast-client session over a pipe end: hello, install,
/// `invokes` invokes, bye. Panics on any non-Value invoke reply.
fn fast_session(end: PipeEnd, tenant: u64, invokes: i64) -> u64 {
    let mut c = GraftClient::new(0);
    assert!(end.write_all(&c.hello(tenant)));
    assert!(end.write_all(&c.install(POINT, TECH, "tag")));

    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    let mut read_some = |c: &mut GraftClient, replies: &mut Vec<Reply>| loop {
        match end.read(&mut buf) {
            Some(0) => panic!("server closed early"),
            Some(n) => {
                replies.extend(c.on_bytes(&buf[..n]).unwrap());
                return;
            }
            None => std::thread::yield_now(),
        }
    };
    while replies.len() < 2 {
        read_some(&mut c, &mut replies);
    }
    let graft = match &replies[1] {
        Reply::Installed { graft, .. } => *graft,
        other => panic!("{other:?}"),
    };
    for k in 1..=invokes {
        let (_, bytes) = c.invoke(graft, 0, &[tenant as i64, k]);
        assert!(end.write_all(&bytes));
    }
    while replies.len() < 2 + invokes as usize {
        read_some(&mut c, &mut replies);
    }
    let mut served = 0;
    for r in &replies[2..] {
        match r {
            Reply::Value { .. } => served += 1,
            other => panic!("tenant {tenant}: {other:?}"),
        }
    }
    assert!(end.write_all(&c.bye()));
    while replies.len() < 3 + invokes as usize {
        read_some(&mut c, &mut replies);
    }
    assert!(matches!(replies.pop(), Some(Reply::Gone { .. })));
    served
}

#[test]
fn threaded_pipes_survive_a_dribbler_and_a_mid_stream_drop() {
    if !kernsim::netpipe::AVAILABLE {
        return;
    }
    const FAST: u64 = 2;
    const INVOKES: i64 = 40;
    const CHURN_K: i64 = 16;

    let mut server = build_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let mut server_ends = Vec::new();
    let mut fast_threads = Vec::new();
    let finished = Arc::new(AtomicUsize::new(0));

    // Fast clients: full sessions that must complete while the
    // dribbler's frame is still open.
    for tenant in 10..10 + FAST {
        let (server_end, client_end) = PipeEnd::pair().expect("pipes available");
        server_ends.push(server_end);
        let finished = Arc::clone(&finished);
        fast_threads.push(std::thread::spawn(move || {
            let served = fast_session(client_end, tenant, INVOKES);
            finished.fetch_add(1, Ordering::Release);
            served
        }));
    }

    // The dribbler: hello + install normally, then an invoke frame one
    // byte at a time — and the *last byte is withheld* until every fast
    // client has finished its whole session. When the reply then
    // arrives, the pump provably never waited on the partial frame.
    let (server_end, dribble_end) = PipeEnd::pair().expect("pipes available");
    server_ends.push(server_end);
    let dribble_finished = Arc::clone(&finished);
    let dribbler = std::thread::spawn(move || {
        let mut c = GraftClient::new(0);
        assert!(dribble_end.write_all(&c.hello(1)));
        assert!(dribble_end.write_all(&c.install(POINT, TECH, "tag")));
        let mut replies = Vec::new();
        let mut buf = [0u8; 4096];
        while replies.len() < 2 {
            match dribble_end.read(&mut buf) {
                Some(0) => panic!("server closed early"),
                Some(n) => replies.extend(c.on_bytes(&buf[..n]).unwrap()),
                None => std::thread::yield_now(),
            }
        }
        let graft = match &replies[1] {
            Reply::Installed { graft, .. } => *graft,
            other => panic!("{other:?}"),
        };
        let (seq, frame) = c.invoke(graft, 0, &[1, 7]);
        for byte in &frame[..frame.len() - 1] {
            assert!(dribble_end.write_all(std::slice::from_ref(byte)));
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        // Hold the frame open until the fast sessions are *done*.
        while dribble_finished.load(Ordering::Acquire) < FAST as usize {
            std::thread::yield_now();
        }
        assert!(dribble_end.write_all(std::slice::from_ref(frame.last().unwrap())));
        loop {
            match dribble_end.read(&mut buf) {
                Some(0) => panic!("server closed early"),
                Some(n) => {
                    replies.extend(c.on_bytes(&buf[..n]).unwrap());
                    if replies.len() >= 3 {
                        break;
                    }
                }
                None => std::thread::yield_now(),
            }
        }
        assert_eq!(replies[2], Reply::Value { seq, value: 31 + 7 });
        assert!(dribble_end.write_all(&c.bye()));
        loop {
            match dribble_end.read(&mut buf) {
                Some(0) => return, // server closed after Gone: fine
                Some(n) => {
                    replies.extend(c.on_bytes(&buf[..n]).unwrap());
                    if matches!(replies.last(), Some(Reply::Gone { .. })) {
                        return;
                    }
                }
                None => std::thread::yield_now(),
            }
        }
    });

    // The churner: requests in flight, then the whole end drops — no
    // Bye, reader and writer both gone.
    let (server_end, churn_end) = PipeEnd::pair().expect("pipes available");
    server_ends.push(server_end);
    let churner = std::thread::spawn(move || {
        let mut c = GraftClient::new(0);
        assert!(churn_end.write_all(&c.hello(99)));
        assert!(churn_end.write_all(&c.install(POINT, TECH, "tag")));
        let mut replies = Vec::new();
        let mut buf = [0u8; 4096];
        while replies.len() < 2 {
            match churn_end.read(&mut buf) {
                Some(0) => panic!("server closed early"),
                Some(n) => replies.extend(c.on_bytes(&buf[..n]).unwrap()),
                None => std::thread::yield_now(),
            }
        }
        let graft = match &replies[1] {
            Reply::Installed { graft, .. } => *graft,
            other => panic!("{other:?}"),
        };
        for k in 1..=CHURN_K {
            let (_, bytes) = c.invoke(graft, 0, &[99, k]);
            assert!(churn_end.write_all(&bytes));
        }
        // Wait for at least one reply so the burst was demonstrably
        // admitted, then vanish.
        while replies.len() < 3 {
            match churn_end.read(&mut buf) {
                Some(0) => panic!("server closed early"),
                Some(n) => replies.extend(c.on_bytes(&buf[..n]).unwrap()),
                None => std::thread::yield_now(),
            }
        }
        drop(churn_end);
    });

    let stats = serve_pipes_threaded(&mut server, server_ends);
    assert_eq!(stats.closed, FAST as usize + 2);

    for t in fast_threads {
        assert_eq!(t.join().expect("fast client"), INVOKES as u64);
    }
    dribbler.join().expect("dribbler");
    churner.join().expect("churner");

    // The churned tenant's burst was accounted exactly once; the
    // server fully quiesced with nothing leaked or stuck.
    assert_eq!(
        server.tenant_ledger(99).map(|(a, r, _)| (a, r)),
        Some((CHURN_K as u64, 0))
    );
    assert_eq!(server.in_flight(), 0);
    assert_eq!(server.backlog(), 0);
    assert_eq!(
        server.stats().served,
        FAST * INVOKES as u64 + 1 + CHURN_K as u64
    );
}

#[test]
fn a_slow_reader_parks_replies_without_blocking_the_pump() {
    if !kernsim::netpipe::AVAILABLE {
        return;
    }
    // Enough replies to overflow a pipe buffer several times: the
    // loop's non-blocking writes must park the excess and move on.
    const SLOW_INVOKES: i64 = 6000;
    const FAST_INVOKES: i64 = 50;

    let mut server = build_server(ServerConfig {
        shards: 2,
        steal: StealPolicy {
            queue_cap: 4096,
            ..StealPolicy::default()
        },
        quotas: TenantQuotas {
            max_in_flight: 8192,
            ..TenantQuotas::default()
        },
        ..ServerConfig::default()
    });

    let (server_end, slow_end) = PipeEnd::pair().expect("pipes available");
    let (server_end2, fast_end) = PipeEnd::pair().expect("pipes available");

    let slow = std::thread::spawn(move || {
        let mut c = GraftClient::new(0);
        assert!(slow_end.write_all(&c.hello(1)));
        assert!(slow_end.write_all(&c.install(POINT, TECH, "tag")));
        let mut replies = Vec::new();
        let mut buf = [0u8; 4096];
        while replies.len() < 2 {
            match slow_end.read(&mut buf) {
                Some(0) => panic!("server closed early"),
                Some(n) => replies.extend(c.on_bytes(&buf[..n]).unwrap()),
                None => std::thread::yield_now(),
            }
        }
        let graft = match &replies[1] {
            Reply::Installed { graft, .. } => *graft,
            other => panic!("{other:?}"),
        };
        // Write everything, read nothing: the reply pipe fills and
        // stays full until this loop ends.
        for k in 1..=SLOW_INVOKES {
            let (_, bytes) = c.invoke(graft, 0, &[1, 1 + (k % 100)]);
            assert!(slow_end.write_all(&bytes));
        }
        // Now drain: every single reply must eventually arrive.
        while replies.len() < 2 + SLOW_INVOKES as usize {
            match slow_end.read(&mut buf) {
                Some(0) => panic!("server closed early"),
                Some(n) => replies.extend(c.on_bytes(&buf[..n]).unwrap()),
                None => std::thread::yield_now(),
            }
        }
        let mut served = 0u64;
        for r in &replies[2..] {
            match r {
                Reply::Value { .. } => served += 1,
                other => panic!("slow reader: {other:?}"),
            }
        }
        assert!(slow_end.write_all(&c.bye()));
        while replies.len() < 3 + SLOW_INVOKES as usize {
            match slow_end.read(&mut buf) {
                Some(0) => break,
                Some(n) => replies.extend(c.on_bytes(&buf[..n]).unwrap()),
                None => std::thread::yield_now(),
            }
        }
        served
    });
    let fast = std::thread::spawn(move || fast_session(fast_end, 2, FAST_INVOKES));

    let stats = serve_pipes_threaded(&mut server, vec![server_end, server_end2]);
    assert_eq!(stats.closed, 2);

    // The fast client finished its entire session despite ~100KB of
    // parked replies on the slow connection; the slow reader got every
    // one of its replies once it started reading.
    assert_eq!(fast.join().expect("fast client"), FAST_INVOKES as u64);
    assert_eq!(slow.join().expect("slow reader"), SLOW_INVOKES as u64);
    assert_eq!(server.stats().served, (SLOW_INVOKES + FAST_INVOKES) as u64);
    assert_eq!(server.stats().orphaned, 0);
    assert_eq!(server.in_flight(), 0);
}
