//! An SFI engine sums its per-invocation tallies and adds them to the
//! `sfi.*` counters every `SFI_FLUSH_EVERY` invocations and when it
//! drops. Over a run that is not a whole number of flush intervals,
//! the counters hold exactly the whole intervals while the engine
//! lives — the remainder is pending, not lost — and exactly the sum of
//! every invocation's `sfi_tally()` once it drops.
//!
//! The counters are process-wide, so this file holds one test: no other
//! test in its process runs SFI code beside it.

use engine_native::{load_grail, SafetyMode, SfiTally, SFI_FLUSH_EVERY};
use graft_api::{ExtensionEngine, RegionSpec};

fn counters() -> [u64; 4] {
    let s = graft_telemetry::snapshot();
    [
        s.counter("sfi.mask_ops"),
        s.counter("sfi.masked_loads"),
        s.counter("sfi.masked_stores"),
        s.counter("sfi.arena_loads"),
    ]
}

fn words(t: SfiTally) -> [u64; 4] {
    [t.masks, t.masked_loads, t.masked_stores, t.arena_loads]
}

fn since(before: [u64; 4]) -> [u64; 4] {
    let now = counters();
    std::array::from_fn(|i| now[i] - before[i])
}

#[test]
fn a_remainder_reaches_the_counters_when_the_engine_drops() {
    graft_telemetry::set_enabled(true);
    let src = "fn fill(n: int) -> int {
        let i = 0;
        while i < n { buf[i] = i; i = i + 1; }
        return buf[n - 1];
    }";
    let regions = [RegionSpec::data("buf", 8)];
    let calls = 3 * SFI_FLUSH_EVERY + 17;
    for read_protect in [false, true] {
        let mut engine = load_grail(src, &regions, SafetyMode::Sfi { read_protect }).unwrap();
        let entry = engine.bind_entry("fill").unwrap();
        let before = counters();
        let mut sum = [0u64; 4];
        let mut whole_intervals = [0u64; 4];
        for call in 0..calls {
            // Tallies differ from call to call: 1..=8 stores.
            let n = i64::from(call % 8) + 1;
            assert_eq!(engine.invoke_id(entry, &[n]).unwrap(), n - 1);
            let tally = words(engine.sfi_tally());
            assert!(tally.iter().any(|&w| w > 0), "call {call} tallied nothing");
            for (s, w) in sum.iter_mut().zip(tally) {
                *s += w;
            }
            if (call + 1) % SFI_FLUSH_EVERY == 0 {
                whole_intervals = sum;
            }
        }
        assert_eq!(since(before), whole_intervals, "read_protect {read_protect}");
        assert_ne!(whole_intervals, sum, "the run ends mid-interval");
        drop(engine);
        assert_eq!(since(before), sum, "read_protect {read_protect}");
    }
}
