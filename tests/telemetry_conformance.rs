//! Conformance for the `--no-telemetry` runtime toggle: with recording
//! disabled, the dispatch paths must record *nothing* — no counters, no
//! histogram entries, no spans, and no flight-recorder events — while
//! the hosts' own bookkeeping (ledgers, quarantine decisions,
//! postmortem reports) still works, because that is host state, not
//! telemetry.
//!
//! Every test in this binary runs with telemetry disabled; none
//! re-enables it, so the process-global toggle cannot race between
//! tests. (The bench binaries apply the same toggle from the
//! `--no-telemetry` flag before any experiment runs.)

use graftbench::api::{
    GraftClass, GraftError, GraftSpec, Motivation, RegionStore, Technology, Trap, Verdict,
};
use graftbench::core::GraftManager;
use graftbench::kernel::{AttachPoint, ShardedHost, VirtualShards};
use graftbench::telemetry;

const POINT: AttachPoint = AttachPoint::VmEvict;

/// The pure two-argument graft the shard properties use: `b == 0`
/// divides by zero, anything else picks `(a + b) % 7 - 3`.
fn pure_spec() -> GraftSpec {
    let grail = r#"
        fn select_victim(a: int, b: int) -> int {
            if b == 0 { return a / b; }
            return (a + b) % 7 - 3;
        }
    "#;
    GraftSpec::new("pure-pick", GraftClass::Prioritization, Motivation::Policy)
        .entry("select_victim", 2)
        .with_grail(grail)
        .with_native(Box::new(|| {
            Box::new(
                |entry: &str, args: &[i64], _regions: &mut RegionStore| {
                    if entry != "select_victim" {
                        return Err(GraftError::Unavailable {
                            graft: "pure-pick".into(),
                            missing: format!("entry {entry}"),
                        });
                    }
                    if args[1] == 0 {
                        return Err(GraftError::Trap(Trap::DivByZero));
                    }
                    Ok((args[0] + args[1]) % 7 - 3)
                },
            )
        }))
}

/// Sum of all counter values in a snapshot.
fn counter_total(s: &telemetry::MetricsSnapshot) -> u64 {
    s.counters.iter().map(|&(_, v)| v).sum()
}

/// Sum of all histogram entry counts in a snapshot.
fn histogram_total(s: &telemetry::MetricsSnapshot) -> u64 {
    s.histograms.iter().map(|h| h.count).sum()
}

#[test]
fn disabled_telemetry_records_nothing_through_dispatch() {
    telemetry::set_enabled(false);
    // Arming the recorder must be inert while recording is disabled:
    // `tracing()` gates on both toggles.
    telemetry::set_tracing(true);
    assert!(!telemetry::tracing());
    let before = telemetry::snapshot();

    let manager = GraftManager::new();
    let spec = pure_spec();

    // Single-threaded (1-shard) host: clean dispatches, direct
    // invokes, a marshalling failure, and enough traps to trip the
    // quarantine supervisor.
    let mut single = ShardedHost::new(1);
    let mut shard = single.take_handle(0).expect("fresh host");
    let threshold = single.config().trap_threshold;
    let id = single
        .install(POINT, "pure", manager.load(&spec, Technology::SafeCompiled).unwrap())
        .expect("install");
    for _ in 0..8 {
        // (7 + 1) % 7 - 3 = -2: the graft declines, the kernel default
        // wins, and the chain keeps being consulted.
        let v = shard.dispatch(POINT, |_| Ok(vec![7, 1]));
        assert_eq!(v, Verdict::Continue);
    }
    // (3 + 2) % 7 - 3 = 2: direct invocation still works.
    assert_eq!(shard.invoke(id, &[3, 2]).unwrap(), 2);
    let _ = shard.dispatch(POINT, |_| {
        Err(GraftError::Unavailable {
            graft: "pure-pick".into(),
            missing: "kernel-side marshalling (injected)".into(),
        })
    });
    let mut trapped = 0;
    while !single.is_quarantined(id) && trapped < 4 * threshold {
        shard.dispatch(POINT, |_| Ok(vec![9, 0]));
        trapped += 1;
    }
    assert!(single.is_quarantined(id), "saboteur never quarantined");
    shard.flush();
    single.flush();

    // A 4-shard host through the deterministic interleaver.
    let mut sharded = ShardedHost::new(4);
    let sid = sharded
        .install(POINT, "pure", manager.load(&spec, Technology::SafeCompiled).unwrap())
        .expect("install");
    let mut vs = VirtualShards::new(&mut sharded, 0xD15A);
    for i in 0..16 {
        vs.dispatch(POINT, |_| Ok(vec![i, 1 + (i % 3)]));
    }
    vs.flush_all();
    sharded.flush();

    // The hosts did real work and kept their own books...
    let ledger = single.ledger(id).expect("ledger");
    assert!(ledger.invocations > 0);
    assert_eq!(ledger.traps, u64::from(threshold));
    assert!(sharded.ledger(sid).expect("ledger").invocations > 0);
    // ...including the postmortem for the quarantine trip, which is
    // host state and must survive `--no-telemetry` (with an empty
    // event tail, since the recorder was inert).
    let reports = single.take_postmortems();
    assert_eq!(reports.len(), 1);
    assert!(reports[0].events.is_empty());

    // ...but the telemetry registry saw none of it.
    let after = telemetry::snapshot();
    assert_eq!(
        counter_total(&before),
        counter_total(&after),
        "counters moved: {:?} -> {:?}",
        before.counters,
        after.counters
    );
    assert_eq!(
        histogram_total(&before),
        histogram_total(&after),
        "histogram entries were recorded"
    );
    assert_eq!(before.spans.len(), after.spans.len(), "spans were recorded");
    assert_eq!(
        before.traces.len(),
        after.traces.len(),
        "trace events were published"
    );
    // And the per-host flight recorders stayed empty too.
    assert!(shard.trace_events().is_empty());
    assert!(vs.merged_timeline().is_empty());
}

#[test]
fn disabled_telemetry_keeps_histogram_queries_inert() {
    telemetry::set_enabled(false);
    let before = telemetry::snapshot();
    // Recording into the macro-registered cells is a no-op while
    // disabled, for every instrument kind.
    telemetry::counter!("conformance.counter").incr();
    telemetry::histogram!("conformance.hist").record(42);
    {
        let _span = telemetry::span!("conformance.span");
    }
    let after = telemetry::snapshot();
    assert_eq!(counter_total(&before), counter_total(&after));
    assert_eq!(histogram_total(&before), histogram_total(&after));
    assert_eq!(before.spans.len(), after.spans.len());
}
