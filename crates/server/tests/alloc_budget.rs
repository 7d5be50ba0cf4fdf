//! The served path of a single `Invoke` costs no heap allocation.
//!
//! A counting global allocator tallies every allocation this thread
//! makes. On a resident one-shard server, after warm-up, a pass of k
//! pipelined single invokes — `ingest`, `pump`, `drain_invoke` and
//! `reap` — may allocate at most once, whatever k is: the one
//! allowance is the connection's outbox growing past the capacity
//! `take_outbound` refilled it with. Frames are decoded borrowed from
//! the inbox, arguments and the result travel inline, and replies are
//! encoded straight into the outbox, so nothing on that path grows with
//! the number of requests.

use graft_api::{EntryPoint, ExtensionEngine, NativeEngine, RegionSpec, RegionStore, Technology};
use graft_server::{GraftClient, GraftServer, Reply, ServerConfig, TenantQuotas};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (fresh and resizing) of the calling thread,
/// so the test harness's other threads cannot disturb a count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each call meets `System`'s contract exactly when the caller met
// `GlobalAlloc`'s; the count is a thread-local `Cell` that allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` is passed on as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` is passed on as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const TENANT: u64 = 5;
/// The largest pass: the tenant's in-flight cap.
const MAX_PASS: usize = 256;

/// The tag graft, `args[0] * 31 + args[1]`.
fn tagging() -> Box<dyn ExtensionEngine> {
    let specs = [RegionSpec::data("scratch", 8)];
    let entries = [EntryPoint {
        name: "select_victim".into(),
        arity: 2,
    }];
    let factory: graft_api::spec::SharedNativeFactory = std::sync::Arc::new(|| {
        Box::new(|_: &str, args: &[i64], _: &mut RegionStore| Ok(args[0] * 31 + args[1]))
    });
    Box::new(NativeEngine::from_factory(&specs, &entries, factory).unwrap())
}

/// A resident one-shard server with one installed session.
fn session() -> (GraftServer, GraftClient, u64) {
    let mut server = GraftServer::new(ServerConfig {
        quotas: TenantQuotas {
            max_in_flight: MAX_PASS,
            ..TenantQuotas::default()
        },
        ..ServerConfig::default()
    });
    server.register_spec("tag", Box::new(|_: Technology| Ok(tagging())));
    let mut client = GraftClient::new(server.connect());
    for bytes in [client.hello(TENANT), client.install(0, 0, "tag")] {
        server.ingest(client.conn, &bytes);
    }
    server.pump();
    let out = server.take_outbound(client.conn);
    let graft = client
        .on_bytes(&out)
        .unwrap()
        .into_iter()
        .find_map(|r| match r {
            Reply::Installed { graft, .. } => Some(graft),
            _ => None,
        })
        .expect("install succeeded");
    (server, client, graft)
}

/// One pass of `k` pipelined invokes: encodes them (outside the
/// count), serves them, and returns the allocations the served path
/// made. Checks every reply.
fn pass(server: &mut GraftServer, client: &mut GraftClient, graft: u64, k: usize) -> u64 {
    let mut bytes = Vec::new();
    let mut seqs = Vec::with_capacity(k);
    for i in 0..k as i64 {
        let (seq, frame) = client.invoke(graft, 0, &[i, 1]);
        bytes.extend(frame);
        seqs.push((seq, i * 31 + 1));
    }
    let ((), allocs) = counted(|| {
        server.ingest(client.conn, &bytes);
        server.pump();
        while server.drain_invoke(0) > 0 {}
        server.reap();
    });
    let out = server.take_outbound(client.conn);
    let replies = client.on_bytes(&out).unwrap();
    assert_eq!(replies.len(), k);
    for reply in replies {
        let Reply::Value { seq, value } = reply else {
            panic!("{reply:?}");
        };
        assert!(seqs.contains(&(seq, value)), "seq {seq} answered {value}");
    }
    allocs
}

#[test]
fn a_pass_of_single_invokes_allocates_nothing_per_request() {
    let (mut server, mut client, graft) = session();
    for k in [8, 64, MAX_PASS] {
        // Warm-up: counters register, buffers reach size k.
        for _ in 0..2 {
            pass(&mut server, &mut client, graft, k);
        }
        let allocs = pass(&mut server, &mut client, graft, k);
        assert!(
            allocs <= 1,
            "a pass of {k} invokes allocated {allocs} times"
        );
    }
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn an_invoke_frame_is_the_clients_only_allocation() {
    let mut client = GraftClient::new(0);
    for args in [&[][..], &[1], &[1, 2], &[1, 2, 3]] {
        let ((_, frame), allocs) = counted(|| client.invoke(7, 0, args));
        assert_eq!(allocs, 1, "{} args", args.len());
        assert_eq!(frame.len(), frame.capacity(), "sized exactly");
    }
}
