//! The live pipe front-end: the same protocol core as the virtual
//! transport, fed through real non-blocking pipes and a `poll(2)`
//! readiness loop, with clients on their own threads.
//!
//! Gated on `kernsim::netpipe::AVAILABLE`: on targets without the FFI
//! shims the test is a no-op (the documented fallback is the virtual
//! transport, covered in `server_e2e.rs`).

use graft_api::{
    EntryPoint, ExtensionEngine, NativeEngine, RegionSpec, RegionStore, Technology, Trap,
};
use graft_server::{
    serve_pipes, serve_pipes_threaded, GraftClient, GraftServer, Reply, ServerConfig, TenantQuotas,
};
use kernsim::netpipe::PipeEnd;
use std::sync::Arc;

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

/// One client session over a pipe end: hello, install, a burst of
/// invokes, bye. Reads replies with a blocking-ish poll-free loop
/// (the read side of the *client* end is non-blocking too).
fn client_session(end: PipeEnd, tenant: u64, invokes: i64) -> Vec<(u32, i64)> {
    let mut c = GraftClient::new(0); // conn id unused on the client side
    assert!(end.write_all(&c.hello(tenant)));
    assert!(end.write_all(&c.install(0, 0, "tag")));

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

    // Wait for Welcome + Installed.
    while replies.len() < 2 {
        read_some(&mut c, &mut replies);
    }
    let graft = match &replies[1] {
        Reply::Installed { graft, .. } => *graft,
        other => panic!("{other:?}"),
    };

    let mut sent = Vec::new();
    for k in 1..=invokes {
        let (seq, bytes) = c.invoke(graft, 0, &[tenant as i64, k]);
        sent.push(seq);
        assert!(end.write_all(&bytes));
    }
    while replies.len() < 2 + sent.len() {
        read_some(&mut c, &mut replies);
    }
    // Orderly close: send Bye and wait for its Gone ack so the server
    // never writes into a torn-down pipe.
    assert!(end.write_all(&c.bye()));
    while replies.len() < 3 + sent.len() {
        read_some(&mut c, &mut replies);
    }
    assert!(matches!(replies.pop(), Some(Reply::Gone { .. })));

    replies[2..]
        .iter()
        .map(|r| match r {
            Reply::Value { seq, value } => (*seq, *value),
            other => panic!("{other:?}"),
        })
        .collect()
}

#[test]
fn pipe_readiness_loop_serves_concurrent_clients() {
    if !kernsim::netpipe::AVAILABLE {
        return;
    }
    let mut server = GraftServer::new(ServerConfig {
        shards: 2,
        quotas: TenantQuotas {
            max_in_flight: 256,
            ..TenantQuotas::default()
        },
        ..ServerConfig::default()
    });
    server.register_spec("tag", Box::new(|_t: Technology| Ok(tagging())));

    const CLIENTS: u64 = 3;
    const INVOKES: i64 = 40;
    let mut server_ends = Vec::new();
    let mut threads = Vec::new();
    for tenant in 0..CLIENTS {
        let (server_end, client_end) = PipeEnd::pair().expect("pipes available");
        server_ends.push(server_end);
        threads.push(std::thread::spawn(move || {
            client_session(client_end, tenant, INVOKES)
        }));
    }

    let stats = serve_pipes(&mut server, server_ends);
    assert_eq!(stats.closed, CLIENTS as usize);
    assert!(stats.chunks > 0);

    for (tenant, t) in threads.into_iter().enumerate() {
        let values = t.join().expect("client thread");
        assert_eq!(values.len(), INVOKES as usize);
        // Replies re-associate by seq and never leak another tenant's
        // verdict across the wire.
        for (seq, value) in values {
            let k = (seq - 2) as i64; // seq 1 = hello, 2 = install
            assert_eq!(value, tenant as i64 * 31 + k);
        }
    }
    assert_eq!(server.stats().served, CLIENTS * INVOKES as u64);
    assert_eq!(server.stats().tenants, CLIENTS);
}

#[test]
fn frames_sent_before_an_abrupt_close_are_admitted() {
    if !kernsim::netpipe::AVAILABLE {
        return;
    }
    let mut server = GraftServer::new(ServerConfig::default());
    server.register_spec("tag", Box::new(|_t: Technology| Ok(tagging())));
    // Install over a direct connection to learn the graft id.
    let conn = server.connect();
    let mut direct = GraftClient::new(conn);
    server.ingest(conn, &direct.hello(5));
    server.ingest(conn, &direct.install(0, 0, "tag"));
    server.pump_conn(conn);
    let graft = direct
        .on_bytes(&server.take_outbound(conn))
        .unwrap()
        .into_iter()
        .find_map(|r| match r {
            Reply::Installed { graft, .. } => Some(graft),
            _ => None,
        })
        .expect("installed");

    // The pipe client sends a hello and a burst, then drops its end
    // before the loop starts: the loop reads the burst and the close in
    // the same pass, and must admit the burst before it disconnects.
    const K: i64 = 16;
    let (server_end, client_end) = PipeEnd::pair().expect("pipes available");
    let mut c = GraftClient::new(0);
    assert!(client_end.write_all(&c.hello(5)));
    for k in 1..=K {
        let (_, bytes) = c.invoke(graft, 0, &[5, k]);
        assert!(client_end.write_all(&bytes));
    }
    drop(client_end);

    let stats = serve_pipes_threaded(&mut server, vec![server_end]);
    assert_eq!(stats.closed, 1);
    assert_eq!(
        server.tenant_ledger(5).map(|(a, r, _)| (a, r)),
        Some((K as u64, 0))
    );
    assert_eq!(server.stats().served, K as u64);
    assert_eq!(server.stats().orphaned, K as u64);
    assert_eq!(server.in_flight(), 0);
}
