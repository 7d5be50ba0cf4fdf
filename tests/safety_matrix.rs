//! The protection matrix: what each technology does with a misbehaving
//! graft — the reliability half of the paper's comparison (§4).
//!
//! | fault             | unsafe C      | Modula-3 | SFI        | Java  | Tcl   |
//! |-------------------|---------------|----------|------------|-------|-------|
//! | out-of-bounds     | silent garbage| trap     | confined   | trap  | trap  |
//! | NIL pointer chase | silent garbage| trap     | confined   | trap  | trap  |
//! | divide by zero    | trap          | trap     | trap       | trap  | trap  |
//! | infinite loop     | hangs kernel  | fuel trap| fuel trap  | fuel  | fuel  |
//! | deep recursion    | stack trap    | stack    | stack      | stack | stack |

use graftbench::api::{
    GraftClass, GraftError, GraftSpec, Motivation, RegionSpec, RegionStore, Technology, Trap,
};
use graftbench::core::GraftManager;
use graftbench::kernel::{AttachPoint, HostedEviction};
use graftbench::kernsim::vm::Pager;

fn hostile_spec() -> GraftSpec {
    let grail = r#"
        fn oob_read(i: int) -> int { return data[i]; }
        fn oob_write(i: int) -> int { data[i] = 777; return 0; }
        fn nil_chase() -> int { return list[0]; }
        fn div(a: int, b: int) -> int { return a / b; }
        fn spin() -> int { let i = 0; while true { i = i + 1; } return i; }
        fn recurse(n: int) -> int { return recurse(n + 1); }
    "#;
    let tickle = r#"
        proc oob_read {i} { return [rload data $i] }
        proc oob_write {i} { rstore data $i 777; return 0 }
        proc nil_chase {} { return [rload list 0] }
        proc div {a b} { return [expr $a / $b] }
        proc spin {} { while {1} { } }
        proc recurse {n} { return [recurse [expr $n + 1]] }
    "#;
    GraftSpec::new("hostile", GraftClass::BlackBox, Motivation::Functionality)
        .region(RegionSpec::data("data", 16))
        .region(RegionSpec::linked("list", 16))
        .entry("oob_read", 1)
        .entry("oob_write", 1)
        .entry("nil_chase", 0)
        .entry("div", 2)
        .entry("spin", 0)
        .entry("recurse", 1)
        .with_grail(grail)
        .with_tickle(tickle)
}

const SAFE_TECHS: [Technology; 3] = [
    Technology::SafeCompiled,
    Technology::Bytecode,
    Technology::Script,
];

#[test]
fn out_of_bounds_traps_under_checked_technologies() {
    let spec = hostile_spec();
    for tech in SAFE_TECHS {
        let mut e = GraftManager::new().load(&spec, tech).unwrap();
        for entry in ["oob_read", "oob_write"] {
            let err = e.invoke(entry, &[10_000]).unwrap_err();
            assert!(
                matches!(err.as_trap(), Some(Trap::OutOfBounds { .. })),
                "{tech}/{entry}: {err}"
            );
        }
    }
}

#[test]
fn out_of_bounds_is_silent_garbage_under_unsafe_and_confined_under_sfi() {
    let spec = hostile_spec();
    for tech in [Technology::CompiledUnchecked, Technology::Sfi] {
        let mut e = GraftManager::new().load(&spec, tech).unwrap();
        // No trap — and, crucially, no effect outside the graft's own
        // memory. The kernel-side view of the region is intact except
        // where the wrap landed.
        e.invoke("oob_write", &[1 << 30]).unwrap();
        e.invoke("oob_read", &[-3]).unwrap();
    }
}

#[test]
fn nil_chase_behaviour_matches_the_paper_matrix() {
    let spec = hostile_spec();
    for tech in SAFE_TECHS {
        let mut e = GraftManager::new().load(&spec, tech).unwrap();
        let err = e.invoke("nil_chase", &[]).unwrap_err();
        assert!(
            matches!(err.as_trap(), Some(Trap::NilDeref { .. })),
            "{tech}: {err}"
        );
    }
    // The Solaris-style ablation: no explicit NIL check emitted.
    let relaxed = GraftManager {
        nil_checks: false,
        ..GraftManager::new()
    };
    let mut e = relaxed.load(&spec, Technology::SafeCompiled).unwrap();
    assert_eq!(e.invoke("nil_chase", &[]).unwrap(), 0);
}

#[test]
fn divide_by_zero_traps_everywhere() {
    let spec = hostile_spec();
    for tech in [
        Technology::CompiledUnchecked,
        Technology::SafeCompiled,
        Technology::Sfi,
        Technology::Bytecode,
        Technology::Script,
    ] {
        let mut e = GraftManager::new().load(&spec, tech).unwrap();
        let err = e.invoke("div", &[1, 0]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::DivByZero), "{tech}");
        // And the engine is still usable afterwards.
        assert_eq!(e.invoke("div", &[6, 3]).unwrap(), 2);
    }
}

#[test]
fn runaway_loops_are_preempted_exactly_where_the_paper_says() {
    let spec = hostile_spec();
    // Safe technologies can be metered...
    for tech in [
        Technology::SafeCompiled,
        Technology::Sfi,
        Technology::Bytecode,
        Technology::Script,
    ] {
        let mut e = GraftManager::new().load(&spec, tech).unwrap();
        e.set_fuel(Some(50_000));
        let err = e.invoke("spin", &[]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::FuelExhausted), "{tech}");
    }
    // ...and the paper's point about unprotected code is that it
    // cannot: `Technology::preemptible` documents the hazard.
    assert!(!Technology::CompiledUnchecked.preemptible());
}

#[test]
fn fuel_reporting_is_conformant_across_metered_technologies() {
    // Every engine that accepts a meter must also report through it:
    // after `set_fuel(Some(_))`, `fuel_used()` is `Some(_)` whether the
    // invocation ran to completion or was preempted — including through
    // the user-level upcall boundary, where the reading is an RPC to
    // the server-side engine.
    let spec = hostile_spec();
    let mgr = GraftManager {
        user_level_inner: Technology::SafeCompiled,
        ..GraftManager::new()
    };
    for tech in [
        Technology::SafeCompiled,
        Technology::Sfi,
        Technology::Bytecode,
        Technology::Script,
        Technology::UserLevel,
    ] {
        let mut e = mgr.load(&spec, tech).unwrap();
        e.set_fuel(Some(50_000));

        // A successful metered invocation reports a reading.
        assert_eq!(e.invoke("div", &[10, 2]).unwrap(), 5);
        let calm = e.fuel_used();
        assert!(calm.is_some(), "{tech}: no fuel reading after metered call");

        // A preempted invocation reports (roughly) the whole budget.
        let err = e.invoke("spin", &[]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::FuelExhausted), "{tech}");
        let spent = e.fuel_used();
        assert!(
            spent.unwrap_or(0) >= 50_000,
            "{tech}: preempted run reported {spent:?} of a 50k budget"
        );

        // Withdrawing the meter withdraws the claim.
        e.set_fuel(None);
        assert_eq!(e.invoke("div", &[10, 2]).unwrap(), 5);
        assert_eq!(e.fuel_used(), None, "{tech}: unmetered reading");
    }
}

/// `step(a, b)` loops `b` times and returns `a + b`, so every call
/// burns its own fuel; `b == 0` divides by zero and `b < 0` spins until
/// the meter preempts it (the native body reports both traps at once).
fn stepping_spec() -> GraftSpec {
    let grail = r#"
        fn step(a: int, b: int) -> int {
            if b == 0 { return a / b; }
            if b < 0 { let i = 0; while true { i = i + 1; } return i; }
            let j = 0;
            while j < b { j = j + 1; }
            return a + j;
        }
    "#;
    let tickle = r#"
        proc step {a b} {
            if {$b == 0} { return [expr $a / $b] }
            if {$b < 0} { while {1} { } }
            for {set j 0} {$j < $b} {incr j} { }
            return [expr $a + $j]
        }
    "#;
    GraftSpec::new("stepping", GraftClass::BlackBox, Motivation::Functionality)
        .entry("step", 2)
        .with_grail(grail)
        .with_tickle(tickle)
        .with_native(Box::new(|| {
            Box::new(|_: &str, args: &[i64], _: &mut RegionStore| match args[1] {
                0 => Err(GraftError::Trap(Trap::DivByZero)),
                b if b < 0 => Err(GraftError::Trap(Trap::FuelExhausted)),
                b => Ok(args[0] + b),
            })
        }))
}

#[test]
fn batched_fuel_is_the_sum_of_per_call_fuel_on_every_technology() {
    // `invoke_batch` over k calls must leave exactly what k back-to-back
    // `invoke_id`s leave: the same results before the stop, the same
    // error, and a `fuel_used()` equal to the sum of the per-call
    // readings — each call refuelled, so a runaway stops where it would
    // alone. Upcall inherits the sum from its (metered) inner engine.
    let spec = stepping_spec();
    let mgr = GraftManager {
        user_level_inner: Technology::SafeCompiled,
        ..GraftManager::new()
    };
    let clean: &[i64] = &[1, 2, 3, 4, 5, 6, 7, 1];
    let div_by_zero: &[i64] = &[1, 2, 3, 5, 5, 0, 7, 1];
    let runaway: &[i64] = &[1, 2, 3, 5, 5, -1, 7, 1];
    for tech in Technology::ALL {
        let fresh = || {
            let mut e = mgr.load(&spec, tech).unwrap();
            e.set_fuel(Some(50_000));
            let id = e.bind_entry("step").unwrap();
            (e, id)
        };
        for args in [clean, div_by_zero, runaway] {
            if args == runaway && !fresh().0.fuel_metered() && tech != Technology::RustNative {
                continue; // nothing preempts an unmetered runaway
            }
            let (mut batched, id) = fresh();
            let mut out = Vec::new();
            let err = batched.invoke_batch(id, args.len() / 2, args, &mut out).err();
            let (mut single, id) = fresh();
            let mut want = (Vec::new(), None, None::<u64>);
            for call in args.chunks(2) {
                let r = single.invoke_id(id, call);
                want.2 = single.fuel_used().map(|f| want.2.unwrap_or(0) + f);
                match r {
                    Ok(v) => want.0.push(v),
                    Err(e) => {
                        want.1 = Some(e);
                        break;
                    }
                }
            }
            let got = (out, err, batched.fuel_used());
            assert_eq!(got, want, "{tech} on {args:?}");
            if args == runaway && tech.preemptible() {
                assert!(got.2.unwrap_or(0) >= 50_000, "{tech}: runaway fuel {:?}", got.2);
            }
        }
    }
}

#[test]
fn runaway_recursion_is_contained_everywhere() {
    let spec = hostile_spec();
    for tech in [
        Technology::CompiledUnchecked,
        Technology::SafeCompiled,
        Technology::Sfi,
        Technology::Bytecode,
        Technology::Script,
    ] {
        let mut e = GraftManager::new().load(&spec, tech).unwrap();
        let err = e.invoke("recurse", &[0]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::StackOverflow), "{tech}");
    }
}

/// An eviction-shaped graft (same region/entry ABI as the paper's VM
/// graft) whose body divides by zero — the one fault every safe
/// technology turns into a trap.
fn saboteur_spec() -> GraftSpec {
    use graftbench::grafts::eviction::{MAX_HOT, MAX_QUEUE};
    let grail = "fn select_victim(a: int, b: int) -> int { return a / (b - b); }";
    let tickle = "proc select_victim {a b} { return [expr $a / ($b - $b)] }";
    GraftSpec::new("saboteur", GraftClass::Prioritization, Motivation::Policy)
        .region(RegionSpec::linked("lru", 1 + 2 * MAX_QUEUE))
        .region(RegionSpec::linked("hot", 1 + 2 * MAX_HOT))
        .entry("select_victim", 2)
        .with_grail(grail)
        .with_tickle(tickle)
}

/// Shard count of the multi-core variant of every multi-tenant row; the
/// single-threaded variant runs on one shard. Strikes, backoff windows
/// and detaches are shared across shards, so every row holds unchanged.
const SHARDS: usize = 4;

#[test]
fn quarantine_row_detach_serve_and_deterministic_refusal() {
    quarantine_row(1);
}

#[test]
fn quarantine_row_holds_under_sharded_dispatch() {
    quarantine_row(SHARDS);
}

fn quarantine_row(shards: usize) {
    // The multi-tenant row of the matrix: under every safe technology a
    // hostile graft is detached by the quarantine supervisor after N
    // trapped invocations, the substrate keeps serving on the built-in
    // policy, and re-invoking the detached graft through the host is a
    // deterministic error — never a panic, never a hung kernel. Each
    // shard runs its own pager; strikes accumulate *globally*, so
    // whichever shard observes the third trap detaches the graft on
    // every shard at once.
    let spec = saboteur_spec();
    for tech in SAFE_TECHS {
        let engine = GraftManager::new().load(&spec, tech).unwrap();
        let mut host = ShardedHost::new(shards);
        let threshold = host.config().trap_threshold as u64;
        let id = host.install(AttachPoint::VmEvict, "saboteur", engine).unwrap();

        let handles: Vec<_> = host
            .take_handles()
            .into_iter()
            .map(|h| Rc::new(RefCell::new(h)))
            .collect();
        let mut pagers: Vec<_> = handles
            .iter()
            .map(|h| Pager::new(4, HostedEviction::new(h.clone())))
            .collect();

        // Shard 0's pager alone supplies the strikes; by the time
        // any other shard runs, the graft is already detached and
        // its pager never reaches it.
        for (s, pager) in pagers.iter_mut().enumerate() {
            for p in 0..32u64 {
                pager.access(p);
            }
            assert!(host.is_quarantined(id), "{tech}/{shards}: shard {s} left it attached");
            // Every pager behaved exactly like stock LRU throughout:
            // every dispatch fell back to the built-in policy.
            assert_eq!(pager.stats().faults, 32, "{tech}/{shards} shard {s}");
            assert_eq!(pager.stats().evictions, 28, "{tech}/{shards} shard {s}");
        }

        // Deterministic refusal on every shard, with one message.
        let mut messages = Vec::new();
        for (s, h) in handles.iter().enumerate() {
            let err = h.borrow_mut().invoke(id, &[0, 0]).unwrap_err();
            let again = h.borrow_mut().invoke(id, &[0, 0]).unwrap_err();
            assert!(
                matches!(&err, GraftError::Unavailable { .. }),
                "{tech}/{shards} shard {s}: {err}"
            );
            assert_eq!(err.to_string(), again.to_string(), "{tech}/{shards} shard {s}");
            messages.push(err.to_string());
        }
        messages.dedup();
        assert_eq!(messages.len(), 1, "{tech}/{shards}: refusals differ across shards");

        // Tear down (pager -> handle) so every shard's private
        // ledger merges, then check the global totals: exactly
        // `threshold` trapped invocations, none charged by the
        // refusals above.
        drop(pagers);
        drop(handles);
        let ledger = host.ledger(id).unwrap();
        assert_eq!(ledger.traps, threshold, "{tech}/{shards}");
        assert_eq!(ledger.invocations, threshold, "{tech}/{shards}");
    }
}

// ---------------------------------------------------------------------
// The recovery rows of the matrix: detaching a trapped graft is not
// enough when kernel state lives *inside* it. These rows assert the
// full salvage → degraded-mode → re-admission story, per safe
// technology and shard count.
// ---------------------------------------------------------------------

use graftbench::kernel::{GraftState, HostConfig, ShardedHost, VirtualShards};
use graftbench::kernsim::{DiskFault, DiskModel, FaultPlan, FaultyDisk};
use graftbench::logdisk::{LdConfig, LogicalDisk};
use std::cell::RefCell;
use std::rc::Rc;

const LD_BLOCKS: usize = 256;
const LD_CONFIG: LdConfig = LdConfig {
    blocks: LD_BLOCKS,
    segment_blocks: 16,
};

fn ld_stream(seed: u64) -> Vec<i64> {
    graftbench::logdisk::workload::skewed(LD_BLOCKS, 512, seed)
        .map(|w| w as i64)
        .collect()
}

/// A hair-trigger supervisor: the bomb's single trap detaches.
fn hair_trigger() -> HostConfig {
    HostConfig {
        trap_threshold: 1,
        ..HostConfig::default()
    }
}

/// Loads the time-bomb Logical Disk under `tech`, or `None` where the
/// technology cannot express it (no Tcl Logical Disk, as in Table 6).
fn bomb_engine(tech: Technology) -> Option<Box<dyn graftbench::api::ExtensionEngine>> {
    let spec = graftbench::grafts::logdisk::spec_bomb_sized(LD_BLOCKS);
    match GraftManager::new().load(&spec, tech) {
        Ok(engine) => Some(engine),
        Err(GraftError::Unavailable { .. }) => None,
        Err(err) => panic!("{tech}: unexpected load failure: {err}"),
    }
}

#[test]
fn salvage_detach_row_keeps_serving_correct_mappings() {
    salvage_detach_row(1);
}

#[test]
fn salvage_detach_row_holds_under_sharded_dispatch() {
    salvage_detach_row(SHARDS);
}

fn salvage_detach_row(shards: usize) {
    // Row: a black-box Logical Disk graft traps mid-stream. The
    // supervisor detaches it *and* lifts its map out through the
    // salvage plan — out of the replica of the shard the trap fired on,
    // where the state lives — the detach is visible on every shard at
    // once, and the built-in adopts the map and serves the rest of the
    // stream with zero lost or misdirected mappings against an oracle
    // that never failed over.
    let stream = ld_stream(9);
    let half = 256; // segment-aligned hand-off point
    let mut covered = 0usize;
    for tech in SAFE_TECHS {
        let Some(engine) = bomb_engine(tech) else {
            continue;
        };
        covered += 1;
        let mut host = ShardedHost::with_config(shards, hair_trigger());
        let id = host
            .install_with_salvage(AttachPoint::DiskWrite, "logical-disk", engine, &["map"])
            .unwrap();

        // Populate shard 0's replica only: the map is shard-local
        // state and the trap will fire where the state lives.
        let mut vs = VirtualShards::new(&mut host, 7);
        {
            let replica = vs.shard_mut(0).engine_mut(id).unwrap();
            graftbench::grafts::logdisk::init_map(replica, LD_BLOCKS).unwrap();
        }
        for &w in &stream[..half] {
            vs.shard_mut(0).invoke(id, &[w]).unwrap();
        }
        vs.shard_mut(0).engine_mut(id).unwrap().invoke("ld_arm", &[1]).unwrap();
        let err = vs.shard_mut(0).invoke(id, &[stream[half]]).unwrap_err();
        assert!(matches!(err, GraftError::Trap(_)), "{tech}/{shards}: {err}");
        assert!(host.is_quarantined(id), "{tech}/{shards}: bomb must detach");

        // Detach is global, immediately: every other shard refuses.
        for s in 1..shards {
            let err = vs.shard_mut(s).invoke(id, &[stream[half]]).unwrap_err();
            assert!(
                matches!(err, GraftError::Unavailable { .. }),
                "{tech}/{shards} shard {s}: {err}"
            );
        }

        let salvage = host.take_salvage(id).expect("salvaged at detach");
        assert_eq!(salvage.words(), LD_BLOCKS, "{tech}/{shards}: whole map lifted");

        // Degraded mode: the built-in adopts the salvaged map.
        let mut degraded = LogicalDisk::with_map(LD_CONFIG, salvage.region("map").unwrap());
        for &w in &stream[half..] {
            degraded.write(w as u64);
        }
        let mut oracle = LogicalDisk::new(LD_CONFIG);
        for &w in &stream {
            oracle.write(w as u64);
        }
        assert_eq!(
            degraded.map(),
            oracle.map(),
            "{tech}/{shards}: degraded mode lost or misdirected mappings"
        );
    }
    assert!(covered >= 2, "row must cover the compiled safe technologies");
}

#[test]
fn backoff_readmits_after_a_clean_window_and_doubles_on_the_second_strike() {
    backoff_ladder_row(1);
}

#[test]
fn backoff_ladder_holds_under_sharded_dispatch() {
    backoff_ladder_row(SHARDS);
}

fn backoff_ladder_row(shards: usize) {
    // Row: the backoff ladder. After the first quarantine the graft is
    // re-admitted once the chain serves `backoff_base` dispatches
    // without it — on *any* shard, since the window is a shared atomic;
    // a strike on probation detaches instantly and the window doubles;
    // at the ban ceiling the graft is out for good, on every shard.
    let spec = saboteur_spec();
    for tech in SAFE_TECHS {
        let engine = GraftManager::new().load(&spec, tech).unwrap();
        let mut host = ShardedHost::with_config(
            shards,
            HostConfig {
                trap_threshold: 1,
                probation_clean: 2,
                backoff_base: 4,
                ban_ceiling: 3,
                ..HostConfig::default()
            },
        );
        let id = host.install(AttachPoint::VmEvict, "saboteur", engine).unwrap();
        let mut vs = VirtualShards::new(&mut host, 11);
        let mut dispatch = || {
            vs.dispatch(AttachPoint::VmEvict, |_| Ok(vec![7, 3]));
        };
        let ctx = format!("{tech}/{shards}");

        // Trip 1: one trap detaches; the ladder arms a 4-dispatch
        // window.
        dispatch();
        assert!(host.is_quarantined(id), "{ctx}");
        assert_eq!(host.quarantine_count(id), Some(1), "{ctx}");
        for _ in 0..3 {
            dispatch();
            assert!(host.is_quarantined(id), "{ctx}: readmitted early");
        }
        dispatch(); // 4th clean dispatch: window exhausted
        assert!(
            matches!(host.state(id), Some(GraftState::Probation { .. })),
            "{ctx}: ladder must re-admit on probation, got {:?}",
            host.state(id)
        );

        // Trip 2: a probation strike detaches instantly and the
        // window doubles — 7 clean dispatches are not enough, the
        // 8th is.
        dispatch();
        assert!(host.is_quarantined(id), "{ctx}: probation strike must detach");
        assert_eq!(host.quarantine_count(id), Some(2), "{ctx}");
        for i in 0..7 {
            dispatch();
            assert!(host.is_quarantined(id), "{ctx}: window did not double (clean #{i})");
        }
        dispatch();
        assert!(
            matches!(host.state(id), Some(GraftState::Probation { .. })),
            "{ctx}: second re-admission, got {:?}",
            host.state(id)
        );

        // Trip 3 hits the ceiling: permanently banned, manual
        // readmit refuses, and no amount of clean dispatches brings
        // it back.
        dispatch();
        assert_eq!(host.state(id), Some(GraftState::Banned), "{ctx}");
        assert!(!host.readmit(id), "{ctx}: banned grafts must not readmit");
        for _ in 0..40 {
            dispatch();
        }
        assert_eq!(host.state(id), Some(GraftState::Banned), "{ctx}");
        for shard in 0..shards {
            match vs.shard_mut(shard).invoke(id, &[0, 0]).unwrap_err() {
                GraftError::Unavailable { missing, .. } => {
                    assert!(missing.contains("banned"), "{ctx} shard {shard}: {missing}")
                }
                err => panic!("{ctx} shard {shard}: {err}"),
            }
        }

        vs.flush_all();
        let stats = host.stats();
        assert_eq!(stats.quarantine_trips, 3, "{ctx}");
        assert_eq!(stats.auto_readmits, 2, "{ctx}");
        assert_eq!(stats.readmits, 2, "{ctx}: each auto-readmit counted once");
        assert_eq!(stats.bans, 1, "{ctx}");
    }
}

#[test]
fn crash_and_rebuild_restore_an_observationally_equal_map() {
    // Row: a mid-stream crash tears the in-flight segment write; the
    // Logical Disk discards the torn segment's summary, rebuilds its
    // map from the durable summaries, and redoes the lost writes. The
    // rebuilt map must answer block-for-block exactly what each safe
    // technology's own bookkeeping answers for the same stream — the
    // graft is the oracle here, so the row also re-proves the
    // graft/built-in agreement *through* a crash.
    let stream = ld_stream(21);
    let spec = graftbench::grafts::logdisk::spec_sized(LD_BLOCKS);
    for tech in SAFE_TECHS {
        let mut engine = match GraftManager::new().load(&spec, tech) {
            Ok(engine) => engine,
            Err(GraftError::Unavailable { .. }) => continue,
            Err(err) => panic!("{tech}: {err}"),
        };
        graftbench::grafts::logdisk::init_map(engine.as_mut(), LD_BLOCKS).unwrap();

        let plan = FaultPlan::chaos(5).with_crash_after(8);
        let mut faulty = FaultyDisk::new(DiskModel::default(), plan);
        let mut ld = LogicalDisk::new(LD_CONFIG);
        for &w in &stream {
            engine.invoke("ld_write", &[w]).unwrap();
            if ld.write(w as u64).is_none() {
                continue;
            }
            loop {
                match faulty.segment_write() {
                    Ok(_) => break,
                    Err(DiskFault::RetriesExhausted { .. }) => continue,
                    Err(DiskFault::Crashed) => {
                        let redo = ld.crash_with_unpersisted(1);
                        faulty.recover();
                        assert!(ld.rebuild_map() > 0, "{tech}: nothing replayed");
                        for r in redo {
                            if ld.write(r).is_some() {
                                while let Err(DiskFault::RetriesExhausted { .. }) =
                                    faulty.segment_write()
                                {}
                            }
                        }
                        break;
                    }
                }
            }
        }
        assert_eq!(faulty.stats().crashes, 1, "{tech}: the drill must crash once");

        // Observational equality, block for block.
        let map = engine.bind_region("map").unwrap();
        let snap = engine.snapshot_region(map).unwrap();
        assert_eq!(
            ld.map(),
            &snap[..],
            "{tech}: rebuilt map diverges from the technology's bookkeeping"
        );
        for (block, &want) in snap.iter().enumerate() {
            assert_eq!(
                engine.invoke("ld_lookup", &[block as i64]).unwrap(),
                want,
                "{tech}: block {block}"
            );
        }
    }
}

#[test]
fn traps_do_not_corrupt_engine_state() {
    let spec = hostile_spec();
    for tech in SAFE_TECHS {
        let mut e = GraftManager::new().load(&spec, tech).unwrap();
        e.load_region("data", 0, &[5; 16]).unwrap();
        let _ = e.invoke("oob_read", &[999_999]);
        // Region contents and entry points still work after the trap.
        assert_eq!(e.read_region("data", 3).unwrap(), 5);
        assert_eq!(e.invoke("oob_read", &[3]).unwrap(), 5, "{tech}");
    }
}
