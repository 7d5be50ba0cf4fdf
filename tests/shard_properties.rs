//! Property harness for the graft host: for every technology, a
//! `ShardedHost` with 1-4 shards driven through [`VirtualShards`] (the
//! deterministic loom-style interleaving mode) must match an
//! independent reference model fed the same operation sequence — same
//! verdicts, same ledger totals, same quarantine decisions, same
//! statistics, same flight-recorder event stream. The model
//! (`reference/mod.rs`) never builds a host: it is the single-threaded
//! ("scalar") semantics written out directly, so a regression in the
//! host's chain walk, supervisor or accounting cannot hide in the
//! oracle too.
//!
//! Each interleaving is a short random program over the host API
//! (install at either chain end, uninstall, readmit, chain dispatch,
//! batched dispatch, direct invoke, marshalling failure) generated
//! from a seeded
//! [`SmallRng`], so every run of the suite replays the exact same
//! programs — the property is checked over >= 200 interleavings per
//! technology and stays reproducible in CI. The stealing half replays
//! the adaptive plane's completion order through the model the same
//! way. A batched dispatch on a single-graft chain takes the host's
//! fused `invoke_batch` path while the flight recorder is off, which
//! is how every test here but the recording ones runs (see
//! [`RECORDER`]); the model always runs it as separate dispatches.
//!
//! The fault-injection harness schedules a saboteur's traps on chosen
//! (shard, invocation) slots and asserts the quarantine detach
//! propagates to every shard (no post-detach invocations anywhere,
//! deterministic `Unavailable` on re-invoke, epoch stamped against the
//! membership order).

mod reference;

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use graft_rng::SmallRng;
use graftbench::api::{
    EntryId, ExtensionEngine, GraftClass, GraftError, GraftLedger, GraftSpec, Motivation, RegionId,
    RegionStore, Technology, Trap, Verdict,
};
use graftbench::core::GraftManager;
use graftbench::kernel::{
    AttachPoint, GraftId, HostConfig, PostmortemReport, RunQueues, ShardedHost, StealPolicy,
    VirtualShards,
};
use graftbench::telemetry::TRACE_VERDICT_TRAP;
use reference::{batch_call, Detach, Op, Outcome, Refusal, Standing, Step};

const POINT: AttachPoint = AttachPoint::VmEvict;

/// Every technology row of the paper's tables.
const ALL_TECHS: [Technology; 7] = [
    Technology::CompiledUnchecked,
    Technology::SafeCompiled,
    Technology::Sfi,
    Technology::Bytecode,
    Technology::Script,
    Technology::RustNative,
    Technology::UserLevel,
];

/// A *pure* graft: `select_victim(a, b)` depends only on its arguments,
/// so every per-shard replica computes exactly what the reference
/// model's bare engine computes — the precondition for equivalence. `b == 0` divides by zero (the one trap every safe
/// technology and the unchecked one agree on); `b < 0` spins until the
/// fuel meter preempts it (only dispatched by the metered fault tests);
/// otherwise it loops `b` times first, so a metered engine's fuel
/// reading varies with the call.
fn pure_spec() -> GraftSpec {
    let grail = r#"
        fn select_victim(a: int, b: int) -> int {
            if b == 0 { return a / b; }
            if b < 0 { let i = 0; while true { i = i + 1; } return i; }
            let j = 0;
            while j < b { j = j + 1; }
            return (a + j) % 7 - 3;
        }
    "#;
    let tickle = r#"
        proc select_victim {a b} {
            if {$b == 0} { return [expr $a / $b] }
            if {$b < 0} { while {1} { } }
            for {set j 0} {$j < $b} {incr j} { }
            return [expr ($a + $j) % 7 - 3]
        }
    "#;
    GraftSpec::new("pure-pick", GraftClass::Prioritization, Motivation::Policy)
        .entry("select_victim", 2)
        .with_grail(grail)
        .with_tickle(tickle)
        .with_native(Box::new(|| {
            Box::new(|entry: &str, args: &[i64], _regions: &mut RegionStore| {
                if entry != "select_victim" {
                    return Err(GraftError::Unavailable {
                        graft: "pure-pick".into(),
                        missing: format!("entry {entry}"),
                    });
                }
                let (a, b) = (args[0], args[1]);
                if b == 0 {
                    return Err(GraftError::Trap(Trap::DivByZero));
                }
                if b < 0 {
                    return Err(GraftError::Trap(Trap::FuelExhausted));
                }
                Ok((a + b) % 7 - 3)
            })
        }))
}

fn marshal_err() -> GraftError {
    GraftError::Unavailable {
        graft: "pure-pick".into(),
        missing: "kernel-side marshalling (injected)".into(),
    }
}

/// A seeded random program over the host API and the shard count to
/// run it on. Grafts are named by chain position, so the program is
/// meaningful to the model and the host alike.
fn random_program(seed: u64) -> (usize, Vec<Op>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shards = 1 + rng.bounded_u64(4) as usize;
    let mut live = 0u64;
    let ops = 12 + rng.bounded_u64(20);
    let program = (0..ops)
        .map(|_| {
            let roll = if live == 0 { 0 } else { rng.bounded_u64(100) };
            if roll < 15 && live < 3 {
                live += 1;
                Op::Install(rng.bounded_u64(2) == 0)
            } else if roll < 25 {
                live -= 1;
                Op::Uninstall(rng.bounded_u64(live + 1) as usize)
            } else if roll < 33 {
                Op::Readmit(rng.bounded_u64(live) as usize)
            } else if roll < 43 {
                let k = rng.bounded_u64(live) as usize;
                Op::Invoke(k, rng.bounded_u64(1000) as i64, rng.bounded_u64(4) as i64)
            } else if roll < 48 {
                Op::MarshalFail
            } else if roll < 63 {
                let calls = 2 + rng.bounded_u64(7) as usize;
                Op::DispatchBatch(
                    rng.bounded_u64(1000) as i64,
                    rng.bounded_u64(9) as i64,
                    calls,
                )
            } else {
                Op::Dispatch(rng.bounded_u64(1000) as i64, rng.bounded_u64(5) as i64)
            }
        })
        .collect();
    (shards, program)
}

/// The first difference between the model's outcome and a host's, or
/// `Ok` when the host matches. Events are compared only when the host
/// recorded them.
fn compare(model: &Outcome, host: &Outcome) -> Result<(), String> {
    let steps = model.steps.iter().zip(&host.steps);
    if let Some(i) = steps.clone().position(|(m, h)| m != h) {
        let (m, h) = steps.clone().nth(i).unwrap();
        return Err(format!("op {i}: model {m:?}, host {h:?}"));
    }
    check("op count", &model.steps.len(), &host.steps.len())?;
    check("host stats", &model.stats, &host.stats)?;
    check("ledgers and states", &model.grafts, &host.grafts)?;
    check("detaches", &model.detaches, &host.detaches)?;
    check("membership", &model.membership, &host.membership)?;
    if host.events.is_some() {
        check("event stream", &model.events, &host.events)?;
    }
    Ok(())
}

fn check<T: PartialEq + Debug>(what: &str, model: &T, host: &T) -> Result<(), String> {
    if model == host {
        return Ok(());
    }
    Err(format!("{what}: model {model:?}, host {host:?}"))
}

/// The reference model's outcome for `ops`, every graft a fresh bare
/// engine of `tech`.
fn model(
    manager: &GraftManager,
    spec: &GraftSpec,
    tech: Technology,
    config: HostConfig,
    ops: &[Op],
) -> Outcome {
    reference::run(config, POINT, ops, || {
        manager.load(spec, tech).expect("model load")
    })
}

/// What a host reports after a run, in the model's terms. `chain` is
/// the installed grafts in chain order; `steps` what each op returned.
fn host_outcome(
    (host, vs): (&ShardedHost, &mut VirtualShards),
    chain: &[GraftId],
    steps: Vec<Step>,
    traced: bool,
    postmortems: &[PostmortemReport],
) -> Outcome {
    // Merge every shard's private ledgers before reading the totals.
    vs.flush_all();
    let grafts = chain
        .iter()
        .map(|&id| Standing {
            ledger: GraftLedger {
                cum_ns: 0,
                ..host.ledger(id).expect("ledger")
            },
            state: host.state(id).expect("state"),
        })
        .collect();
    // A postmortem freezes the *detaching shard's* ledger: it saw at
    // least the fatal strike and never more than the graft's global
    // total (strikes on other shards merge after the report is cut).
    // When recorded, its tail ends on the fatal trap.
    for pm in postmortems {
        let total = host.ledger(GraftId(pm.graft_id)).map_or(0, |l| l.traps);
        assert!(
            (1..=total).contains(&pm.ledger.traps),
            "postmortem ledger {pm:?}"
        );
        if let Some(last) = pm.events.last() {
            assert_eq!(
                (last.verdict, last.value),
                (TRACE_VERDICT_TRAP, pm.reason as i64),
                "tail {pm:?}"
            );
        }
    }
    let detaches = postmortems
        .iter()
        .map(|pm| Detach {
            reason: pm.reason,
            strikes: pm.strikes,
            quarantines: pm.quarantines,
            backoff_remaining: pm.backoff_remaining,
            state: pm.state,
        })
        .collect();
    // Every shard must see the same membership: distinct views are
    // reported separately, so a disagreeing shard shows up as a second
    // entry the model never has.
    let membership: BTreeSet<(usize, usize)> = (0..vs.len())
        .map(|s| {
            let h = vs.shard_mut(s);
            (h.active_len(POINT), h.chain(POINT).len())
        })
        .collect();
    Outcome {
        steps,
        grafts,
        stats: host.stats(),
        events: traced.then(|| vs.merged_timeline().iter().map(|e| e.semantics()).collect()),
        detaches,
        membership: membership.into_iter().collect(),
    }
}

/// Runs `ops` on a `shards`-shard host under the seeded interleaving,
/// every graft a fresh engine from `load`. The flight recorder is
/// armed for the whole run or not at all ([`RECORDER`]), so a traced
/// run's event stream is complete.
fn run_host(
    load: &mut dyn FnMut() -> Box<dyn ExtensionEngine>,
    config: HostConfig,
    (shards, ops): (usize, &[Op]),
    seed: u64,
) -> Outcome {
    let traced = graftbench::telemetry::tracing();
    let mut host = ShardedHost::with_config(shards, config);
    let mut vs = VirtualShards::new(&mut host, seed ^ 0xA5A5_5A5A);
    let mut chain: Vec<GraftId> = Vec::new();
    let steps = ops
        .iter()
        .map(|&op| match op {
            Op::Install(front) => {
                let engine = load();
                let id = if front {
                    host.install_front(POINT, "pure", engine)
                } else {
                    host.install(POINT, "pure", engine)
                }
                .expect("install");
                chain.insert(if front { 0 } else { chain.len() }, id);
                Step::Installed
            }
            Op::Uninstall(k) => Step::Uninstalled(host.uninstall(chain.remove(k))),
            Op::Readmit(k) => Step::Readmitted(host.readmit(chain[k])),
            // Direct invocation on whichever shard the rotation lands on.
            Op::Invoke(k, a, b) => Step::Invoked(
                vs.next_shard()
                    .invoke(chain[k], &[a, b])
                    .map_err(|e| Refusal::of(&e)),
            ),
            Op::MarshalFail => Step::Verdict(vs.dispatch(POINT, |_| Err(marshal_err()))),
            Op::Dispatch(a, b) => Step::Verdict(vs.dispatch(POINT, |_| Ok(vec![a, b]))),
            Op::DispatchBatch(a, b, n) => {
                Step::Verdicts(vs.next_shard().dispatch_batch(POINT, n, |i, _, args| {
                    args.extend_from_slice(&batch_call(a, b, i));
                    Ok(())
                }))
            }
        })
        .collect();
    let postmortems = host.take_postmortems();
    host_outcome((&host, &mut vs), &chain, steps, traced, &postmortems)
}

/// One seeded interleaving on the host, checked against the model.
/// Returns the host's outcome so the determinism test can compare two
/// runs of the same seed.
fn check_one(manager: &GraftManager, spec: &GraftSpec, tech: Technology, seed: u64) -> Outcome {
    let (shards, ops) = random_program(seed);
    let config = HostConfig::default();
    let want = model(manager, spec, tech, config, &ops);
    let got = run_host(
        &mut loader(manager, spec, tech),
        config,
        (shards, &ops),
        seed,
    );
    if let Err(divergence) = compare(&want, &got) {
        panic!("{tech} seed {seed:#x} on {shards} shard(s): {divergence}");
    }
    got
}

/// Fresh engines of `tech` for a host under test.
fn loader<'a>(
    manager: &'a GraftManager,
    spec: &'a GraftSpec,
    tech: Technology,
) -> impl FnMut() -> Box<dyn ExtensionEngine> + 'a {
    move || manager.load(spec, tech).expect("host load")
}

/// >= 200 seeded interleavings for one technology.
fn run_equivalence(tech: Technology, base_seed: u64) {
    const INTERLEAVINGS: usize = 200;
    let _untraced = untraced();
    let manager = GraftManager::new();
    let spec = pure_spec();
    for i in 0..INTERLEAVINGS {
        let seed = base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        check_one(&manager, &spec, tech, seed);
    }
}

#[test]
fn sharded_matches_scalar_compiled_unchecked() {
    run_equivalence(Technology::CompiledUnchecked, 0xC0);
}

#[test]
fn sharded_matches_scalar_safe_compiled() {
    run_equivalence(Technology::SafeCompiled, 0x53);
}

#[test]
fn sharded_matches_scalar_sfi() {
    run_equivalence(Technology::Sfi, 0x5F1);
}

#[test]
fn sharded_matches_scalar_bytecode() {
    run_equivalence(Technology::Bytecode, 0xB1);
}

#[test]
fn sharded_matches_scalar_script() {
    run_equivalence(Technology::Script, 0x7C1);
}

#[test]
fn sharded_matches_scalar_rust_native() {
    run_equivalence(Technology::RustNative, 0x4A);
}

#[test]
fn sharded_matches_scalar_user_level() {
    run_equivalence(Technology::UserLevel, 0x0E);
}

#[test]
fn interleavings_replay_identically_from_the_same_seed() {
    // The harness is only as good as its reproducibility: the same
    // seed must replay the same program with the same observable
    // outcomes, or a CI failure could never be investigated.
    let _untraced = untraced();
    let manager = GraftManager::new();
    let spec = pure_spec();
    for i in 0..32u64 {
        let seed = 0xD00D_F00D ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let first = check_one(&manager, &spec, Technology::SafeCompiled, seed);
        let again = check_one(&manager, &spec, Technology::SafeCompiled, seed);
        let key = |o: &Outcome| (o.steps.clone(), o.grafts.clone(), o.stats);
        assert_eq!(key(&first), key(&again), "seed {seed:#x} did not replay");
    }
}

#[test]
fn model_backed_property_rejects_a_wrong_host() {
    // The oracle must be able to fail. Take the first seeded
    // interleaving whose outcome depends on the trap threshold, run it
    // on a host with the default threshold of 3, and compare it with a
    // model told the threshold is 4: the comparison has to report a
    // divergence, while the right model still matches.
    let _untraced = untraced();
    let manager = GraftManager::new();
    let spec = pure_spec();
    let tech = Technology::SafeCompiled;
    let right = HostConfig::default();
    let wrong = HostConfig {
        trap_threshold: right.trap_threshold + 1,
        ..right
    };
    let (seed, program, model_right, model_wrong) = (0..64u64)
        .map(|i| 0x53 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .find_map(|seed| {
            let program = random_program(seed);
            let r = model(&manager, &spec, tech, right, &program.1);
            let w = model(&manager, &spec, tech, wrong, &program.1);
            compare(&r, &w).is_err().then_some((seed, program, r, w))
        })
        .expect("some seed must depend on the threshold");
    let (shards, ops) = program;
    let host = run_host(
        &mut loader(&manager, &spec, tech),
        right,
        (shards, &ops),
        seed,
    );
    assert!(
        host.stats.quarantine_trips > 0,
        "seed {seed:#x} never tripped the supervisor"
    );
    assert_eq!(compare(&model_right, &host), Ok(()), "seed {seed:#x}");
    let divergence = compare(&model_wrong, &host).expect_err("a wrong model went unnoticed");
    assert!(!divergence.is_empty());
}

/// A program that batches on a single-graft chain — the host's fused
/// shape — with re-admissions, and (for an engine that meters fuel)
/// runaway batches.
fn batch_program(seed: u64, runaways: bool) -> (usize, Vec<Op>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shards = 1 + rng.bounded_u64(3) as usize;
    let mut ops = vec![Op::Install(false)];
    for _ in 0..12 {
        let a = rng.bounded_u64(1000) as i64;
        let calls = 2 + rng.bounded_u64(7) as usize;
        ops.push(match rng.bounded_u64(10) {
            0 => Op::Readmit(0),
            1 if runaways => Op::DispatchBatch(a, -1 - rng.bounded_u64(calls as u64) as i64, calls),
            _ => Op::DispatchBatch(a, rng.bounded_u64(9) as i64, calls),
        });
    }
    (shards, ops)
}

#[test]
fn fused_batches_match_the_model_on_every_technology() {
    // Untraced, single-graft batches fuse into one `invoke_batch`
    // whether or not the engine meters fuel; the ledger — fuel and
    // trap counts included — must still equal the model's per-call
    // sums, and so must the verdicts, statistics and detaches. A small
    // budget keeps the runaway batches short.
    let _untraced = untraced();
    let config = HostConfig {
        fuel_budget: Some(20_000),
        ..HostConfig::default()
    };
    let manager = GraftManager::new();
    let spec = pure_spec();
    for tech in ALL_TECHS {
        let mut probe = manager.load(&spec, tech).expect("load");
        probe.set_fuel(config.fuel_budget);
        let metered = probe.fuel_metered();
        let mut fuel = 0;
        for i in 0..24u64 {
            let seed = 0xBA7C ^ (tech as u64) << 32 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (shards, ops) = batch_program(seed, metered);
            let want = model(&manager, &spec, tech, config, &ops);
            let got = run_host(
                &mut loader(&manager, &spec, tech),
                config,
                (shards, &ops),
                seed,
            );
            if let Err(divergence) = compare(&want, &got) {
                panic!("{tech} seed {seed:#x} on {shards} shard(s): {divergence}");
            }
            fuel += got.grafts.iter().map(|g| g.ledger.fuel_used).sum::<u64>();
        }
        assert_eq!(fuel > 0, metered, "{tech}: fuel {fuel}");
    }
}

/// An engine whose reading after `invoke_batch` is 0 — what a host
/// that charged a fused batch no fuel would record. Everything else is
/// the wrapped engine's.
struct DropsBatchFuel {
    inner: Box<dyn ExtensionEngine>,
    after_batch: bool,
}

impl ExtensionEngine for DropsBatchFuel {
    fn technology(&self) -> Technology {
        self.inner.technology()
    }

    fn bind_entry(&mut self, entry: &str) -> Result<EntryId, GraftError> {
        self.inner.bind_entry(entry)
    }

    fn bind_region(&self, name: &str) -> Result<RegionId, GraftError> {
        self.inner.bind_region(name)
    }

    fn invoke_id(&mut self, entry: EntryId, args: &[i64]) -> Result<i64, GraftError> {
        self.after_batch = false;
        self.inner.invoke_id(entry, args)
    }

    fn invoke_batch(
        &mut self,
        entry: EntryId,
        calls: usize,
        args_flat: &[i64],
        out: &mut Vec<i64>,
    ) -> Result<(), GraftError> {
        self.after_batch = true;
        self.inner.invoke_batch(entry, calls, args_flat, out)
    }

    fn load_region_id(
        &mut self,
        id: RegionId,
        offset: usize,
        data: &[i64],
    ) -> Result<(), GraftError> {
        self.inner.load_region_id(id, offset, data)
    }

    fn read_region_id(&self, id: RegionId, index: usize) -> Result<i64, GraftError> {
        self.inner.read_region_id(id, index)
    }

    fn write_region_id(
        &mut self,
        id: RegionId,
        index: usize,
        value: i64,
    ) -> Result<(), GraftError> {
        self.inner.write_region_id(id, index, value)
    }

    fn read_region_slice_id(
        &self,
        id: RegionId,
        offset: usize,
        out: &mut [i64],
    ) -> Result<(), GraftError> {
        self.inner.read_region_slice_id(id, offset, out)
    }

    fn region_len(&self, id: RegionId) -> Result<usize, GraftError> {
        self.inner.region_len(id)
    }

    fn set_fuel(&mut self, fuel: Option<u64>) {
        self.inner.set_fuel(fuel);
    }

    fn fuel_used(&self) -> Option<u64> {
        let fuel = self.inner.fuel_used();
        if self.after_batch {
            fuel.map(|_| 0)
        } else {
            fuel
        }
    }

    fn fork_for_shard(&self, shard: usize) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        Ok(Box::new(DropsBatchFuel {
            inner: self.inner.fork_for_shard(shard)?,
            after_batch: false,
        }))
    }
}

#[test]
fn model_backed_property_rejects_a_host_that_drops_batch_fuel() {
    // The fused path's fuel accounting must be checkable: a host that
    // charges a fused batch no fuel (as if it recorded every call with
    // no reading) has to diverge from the model on the ledger, while
    // the same program on the real engines matches.
    let _untraced = untraced();
    let manager = GraftManager::new();
    let spec = pure_spec();
    let config = HostConfig::default();
    for tech in [
        Technology::SafeCompiled,
        Technology::Bytecode,
        Technology::Script,
    ] {
        let (shards, ops) = (2, vec![Op::Install(false), Op::DispatchBatch(7, 1, 6)]);
        let want = model(&manager, &spec, tech, config, &ops);
        let right = run_host(
            &mut loader(&manager, &spec, tech),
            config,
            (shards, &ops),
            1,
        );
        assert_eq!(compare(&want, &right), Ok(()), "{tech}");
        assert!(right.grafts[0].ledger.fuel_used > 0, "{tech}: unmetered");
        let mut wrong_load = || -> Box<dyn ExtensionEngine> {
            Box::new(DropsBatchFuel {
                inner: manager.load(&spec, tech).expect("load"),
                after_batch: false,
            })
        };
        let wrong = run_host(&mut wrong_load, config, (shards, &ops), 1);
        let divergence = compare(&want, &wrong).expect_err("dropped batch fuel went unnoticed");
        assert!(divergence.starts_with("ledgers"), "{tech}: {divergence}");
    }
}

// ---------------------------------------------------------------------
// Fault injection: rng-scheduled saboteur on (shard, invocation) slots.
// ---------------------------------------------------------------------

#[test]
fn scheduled_saboteur_detach_propagates_to_every_shard() {
    const SHARDS: usize = 4;
    const ROUNDS: usize = 12;
    let _untraced = untraced();
    let manager = GraftManager::new();
    let spec = pure_spec();
    for tech in ALL_TECHS {
        let mut rng = SmallRng::seed_from_u64(0xFA01_7000 + tech as u64);
        let mut host = ShardedHost::new(SHARDS);
        let threshold = host.config().trap_threshold as u64;
        let engine = manager.load(&spec, tech).expect("load saboteur");
        let id = host.install(POINT, "saboteur", engine).expect("install");
        let epoch_at_install = host.epoch();
        let mut vs = VirtualShards::new(&mut host, 0xBEEF);

        // The trap schedule: exactly `threshold` distinct
        // (shard, round) slots drawn from the seeded rng. Every other
        // slot dispatches clean arguments that decode to Continue, so
        // the chain keeps being consulted until the supervisor trips.
        let mut plan = [[false; ROUNDS]; SHARDS];
        let mut placed = 0;
        while placed < threshold {
            let s = rng.bounded_u64(SHARDS as u64) as usize;
            let k = rng.bounded_u64(ROUNDS as u64) as usize;
            if !plan[s][k] {
                plan[s][k] = true;
                placed += 1;
            }
        }

        let mut expected_invocations = 0u64;
        let mut expected_traps = 0u64;
        for k in 0..ROUNDS {
            for (s, shard_plan) in plan.iter().enumerate() {
                let live = !host.is_quarantined(id);
                let b = if shard_plan[k] { 0 } else { 1 };
                if live {
                    expected_invocations += 1;
                    if b == 0 {
                        expected_traps += 1;
                    }
                }
                let v = vs.shard_mut(s).dispatch(POINT, |_| Ok(vec![7, b]));
                // (7 + 1) % 7 - 3 = -2: the graft always declines, so
                // every dispatch falls through to the kernel default.
                assert_eq!(v, Verdict::Continue, "{tech} shard {s} round {k}");
            }
        }

        // The third scheduled trap detached the graft — globally.
        assert!(host.is_quarantined(id), "{tech}: saboteur still attached");
        assert_eq!(expected_traps, threshold, "{tech}: schedule under-fired");
        let detach = host.detach_epoch(id).expect("detach epoch");
        assert!(
            detach >= epoch_at_install && detach <= host.epoch(),
            "{tech}: detach epoch {detach} outside [{epoch_at_install}, {}]",
            host.epoch()
        );

        // Ledger totals match the deterministic schedule exactly.
        vs.flush_all();
        let ledger = host.ledger(id).expect("ledger");
        assert_eq!(ledger.traps, threshold, "{tech}");
        assert_eq!(ledger.invocations, expected_invocations, "{tech}");

        // No post-detach invocation on *any* shard: more dispatches
        // leave the ledger untouched and the active chain empty.
        for s in 0..SHARDS {
            for _ in 0..3 {
                let v = vs.shard_mut(s).dispatch(POINT, |_| Ok(vec![7, 1]));
                assert_eq!(v, Verdict::Continue, "{tech} shard {s}");
            }
            assert_eq!(vs.shard_mut(s).active_len(POINT), 0, "{tech} shard {s}");
        }
        vs.flush_all();
        assert_eq!(
            host.ledger(id).expect("ledger").invocations,
            expected_invocations,
            "{tech}: a detached graft was invoked"
        );

        // Re-invoking the detached graft refuses deterministically on
        // every shard, with the same message everywhere, and the
        // refusal is never charged to the ledger.
        let mut messages = Vec::new();
        for s in 0..SHARDS {
            let e1 = vs.shard_mut(s).invoke(id, &[1, 1]).unwrap_err();
            let e2 = vs.shard_mut(s).invoke(id, &[1, 1]).unwrap_err();
            assert!(
                matches!(&e1, GraftError::Unavailable { .. }),
                "{tech} shard {s}: {e1}"
            );
            assert_eq!(e1.to_string(), e2.to_string(), "{tech} shard {s}");
            messages.push(e1.to_string());
        }
        messages.dedup();
        assert_eq!(messages.len(), 1, "{tech}: refusals differ across shards");
        vs.flush_all();
        assert_eq!(
            host.ledger(id).expect("ledger").invocations,
            expected_invocations,
            "{tech}: refusal charged the ledger"
        );
    }
}

#[test]
fn scheduled_saboteur_replays_identically() {
    // Same seed, same schedule, same detach point: run the scheduled
    // saboteur twice and compare where the supervisor tripped.
    let _untraced = untraced();
    let manager = GraftManager::new();
    let spec = pure_spec();
    let run = |seed: u64| -> (u64, u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut host = ShardedHost::new(3);
        let id = host
            .install(
                POINT,
                "saboteur",
                manager.load(&spec, Technology::Bytecode).unwrap(),
            )
            .unwrap();
        let mut vs = VirtualShards::new(&mut host, seed);
        let mut step = 0u64;
        let mut tripped_at = 0u64;
        while !host.is_quarantined(id) {
            step += 1;
            let b = i64::from(rng.bounded_u64(3) != 0);
            vs.dispatch(POINT, |_| Ok(vec![7, b]));
            tripped_at = step;
            assert!(step < 10_000, "saboteur never tripped");
        }
        vs.flush_all();
        (tripped_at, host.ledger(id).unwrap().invocations)
    };
    for seed in [1u64, 0xFEED, 0x1234_5678] {
        assert_eq!(run(seed), run(seed), "seed {seed:#x}");
    }
}

// ---------------------------------------------------------------------
// Flight-recorder properties: the merged cross-shard timeline is
// causally ordered and semantically identical to the reference
// model's event stream over the same operation sequence.
// ---------------------------------------------------------------------

/// The flight recorder's toggle is process-global, and it decides
/// which batch path the host takes: fused while off, per call while
/// on. So a test that records holds this lock for writing while the
/// recorder is armed ([`recording`]) and every other test holds it for
/// reading ([`untraced`]): each test runs wholly traced or wholly
/// untraced, whatever runs beside it.
static RECORDER: RwLock<()> = RwLock::new(());

/// Holds the recorder off for the caller's scope. Take it once per
/// test (a nested read can deadlock behind a waiting writer).
fn untraced() -> RwLockReadGuard<'static, ()> {
    RECORDER.read().unwrap_or_else(PoisonError::into_inner)
}

/// The flight recorder, armed until dropped.
struct Recording {
    _exclusive: RwLockWriteGuard<'static, ()>,
}

impl Drop for Recording {
    fn drop(&mut self) {
        graftbench::telemetry::set_tracing(false);
    }
}

/// Arms the flight recorder, or `None` in a noop-telemetry build
/// (nothing to assert there).
fn recording() -> Option<Recording> {
    let exclusive = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    graftbench::telemetry::set_enabled(true);
    graftbench::telemetry::set_tracing(true);
    let armed = Recording {
        _exclusive: exclusive,
    };
    graftbench::telemetry::tracing().then_some(armed)
}

#[test]
fn merged_timeline_is_causally_ordered_per_trace() {
    let Some(_recording) = recording() else {
        return;
    };
    let manager = GraftManager::new();
    let spec = pure_spec();
    for seed in [0x7EA5u64, 0xACE0_FBA5u64, 0x5EED_CAFEu64] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut host = ShardedHost::new(4);
        let front = manager.load(&spec, Technology::SafeCompiled).expect("load");
        let back = manager.load(&spec, Technology::Bytecode).expect("load");
        host.install(POINT, "front", front).expect("install");
        host.install(POINT, "back", back).expect("install");
        let mut vs = VirtualShards::new(&mut host, seed);
        for _ in 0..48 {
            let a = rng.bounded_u64(100) as i64;
            let b = 1 + rng.bounded_u64(3) as i64; // never traps
            vs.dispatch(POINT, |_| Ok(vec![a, b]));
        }
        let merged = vs.merged_timeline();
        assert!(!merged.is_empty(), "recorder armed but timeline empty");

        // Total order: strictly ascending (ts, trace, seq) keys, so the
        // merge is deterministic and duplicate-free.
        for w in merged.windows(2) {
            assert!(
                w[0].key() < w[1].key(),
                "timeline out of order: {:?} then {:?}",
                w[0],
                w[1]
            );
        }

        // Per-trace happens-before: in timeline order every trace's
        // seqs read 0, 1, ... with no gaps, and one dispatch's events
        // never span shards (the chain runs where the dispatch landed).
        use std::collections::HashMap;
        let mut next_seq: HashMap<u64, u32> = HashMap::new();
        let mut shard_of: HashMap<u64, u32> = HashMap::new();
        for e in &merged {
            let want = next_seq.entry(e.trace.0).or_insert(0);
            assert_eq!(e.seq, *want, "trace {:#x} skipped a seq", e.trace.0);
            *want += 1;
            let s = shard_of.entry(e.trace.0).or_insert(e.shard);
            assert_eq!(*s, e.shard, "trace {:#x} spans shards", e.trace.0);
        }
        // A two-graft chain yields one or two events per dispatch: two
        // when the front graft declines, one when it overrides and the
        // walk stops.
        assert!(
            next_seq.values().all(|&n| (1..=2).contains(&n)),
            "seed {seed:#x}: trace lengths {:?}",
            next_seq.values().collect::<Vec<_>>()
        );
    }
}

#[test]
fn merged_timeline_matches_the_scalar_event_stream() {
    let Some(_recording) = recording() else {
        return;
    };
    // Same dispatches, same chain, same traps: the merged 4-shard
    // timeline carries exactly the model's event sequence —
    // (point, tech, verdict, value) for every invocation, in the same
    // order (trace ids and shard stamps are host details).
    let manager = GraftManager::new();
    let spec = pure_spec();
    let tech = Technology::SafeCompiled;
    for seed in [1u64, 0xBEEF, 0x1234_5678] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ops = vec![Op::Install(false)];
        // b == 0 traps, so the stream covers the detach too.
        ops.extend(
            (0..40).map(|_| Op::Dispatch(rng.bounded_u64(1000) as i64, rng.bounded_u64(4) as i64)),
        );
        let config = HostConfig::default();
        let want = model(&manager, &spec, tech, config, &ops);
        let got = run_host(&mut loader(&manager, &spec, tech), config, (4, &ops), seed);
        assert!(
            got.events.as_ref().is_some_and(|e| !e.is_empty()),
            "seed {seed:#x}: nothing recorded"
        );
        assert_eq!(compare(&want, &got), Ok(()), "seed {seed:#x}");
    }
    // Random programs, batches included (a traced batch dispatches per
    // call, one causal id each), record the model's event stream too.
    for i in 0..16u64 {
        let seed = 0x7ACE ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (shards, ops) = random_program(seed);
        let config = HostConfig::default();
        let want = model(&manager, &spec, tech, config, &ops);
        let got = run_host(
            &mut loader(&manager, &spec, tech),
            config,
            (shards, &ops),
            seed,
        );
        assert!(got.events.is_some(), "seed {seed:#x}: not recorded");
        assert_eq!(compare(&want, &got), Ok(()), "seed {seed:#x}");
    }
}

#[test]
fn one_fuel_exhaustion_detaches_globally() {
    // FuelExhausted is a single-strike offence: one preempted
    // invocation on one shard detaches the graft everywhere, even
    // though the trap threshold has not been reached.
    let _untraced = untraced();
    let cfg = HostConfig {
        fuel_budget: Some(20_000),
        ..HostConfig::default()
    };
    let manager = GraftManager::new();
    let spec = pure_spec();
    for tech in [
        Technology::SafeCompiled,
        Technology::Sfi,
        Technology::Bytecode,
        Technology::Script,
    ] {
        let mut host = ShardedHost::with_config(4, cfg);
        let engine = manager.load(&spec, tech).expect("load");
        let id = host.install(POINT, "spinner", engine).expect("install");
        let mut vs = VirtualShards::new(&mut host, 0x10E1);

        // A clean dispatch on every shard first: all attached.
        for s in 0..4 {
            vs.shard_mut(s).dispatch(POINT, |_| Ok(vec![7, 1]));
            assert_eq!(vs.shard_mut(s).active_len(POINT), 1, "{tech} shard {s}");
        }
        assert!(!host.is_quarantined(id), "{tech}");

        // One runaway invocation on shard 2.
        let v = vs.shard_mut(2).dispatch(POINT, |_| Ok(vec![7, -1]));
        assert_eq!(v, Verdict::Continue, "{tech}");
        assert!(host.is_quarantined(id), "{tech}: fuel trap did not detach");

        // Every shard observes the detach at its very next dispatch.
        for s in 0..4 {
            vs.shard_mut(s).dispatch(POINT, |_| Ok(vec![7, 1]));
            assert_eq!(vs.shard_mut(s).active_len(POINT), 0, "{tech} shard {s}");
        }
        vs.flush_all();
        let ledger = host.ledger(id).expect("ledger");
        assert_eq!(ledger.traps, 1, "{tech}");
        assert_eq!(ledger.invocations, 5, "{tech}");
    }
}

// ---------------------------------------------------------------------
// Adaptive dispatch plane: work-stealing interleavings replayed through
// the reference model. The host drives a keyed trace through
// [`RunQueues`] with stealing on, recording the order items actually
// completed (home drains, diversions, and steals included); the model
// then replays the identical items in that completion order, one
// dispatch each. Verdict-for-verdict equality plus ledger, lifecycle,
// and detach parity proves a stolen dispatch is charged exactly once
// and quarantine semantics survive cross-shard handoff.
// ---------------------------------------------------------------------

/// One work item's arguments and the verdict it completed with.
type Completed = ((i64, i64), Verdict);

/// Checks a plane run that completed `order` on the single graft `id`
/// against the model's replay of the same completion order.
fn check_completion_order(
    manager: &GraftManager,
    spec: &GraftSpec,
    tech: Technology,
    (host, vs, id): (&ShardedHost, &mut VirtualShards, GraftId),
    (order, traced, postmortems): (&[Completed], bool, &[PostmortemReport]),
    ctx: &str,
) -> Outcome {
    let ops: Vec<Op> = std::iter::once(Op::Install(false))
        .chain(order.iter().map(|&((a, b), _)| Op::Dispatch(a, b)))
        .collect();
    let steps = std::iter::once(Step::Installed)
        .chain(order.iter().map(|&(_, v)| Step::Verdict(v)))
        .collect();
    let want = model(manager, spec, tech, HostConfig::default(), &ops);
    let got = host_outcome((host, vs), &[id], steps, traced, postmortems);
    if let Err(divergence) = compare(&want, &got) {
        panic!("{ctx}: {divergence}");
    }
    got
}

/// One stealing interleaving checked against the model. Returns the
/// host's outcome so determinism can be asserted over repeated runs.
fn check_one_stealing(
    manager: &GraftManager,
    spec: &GraftSpec,
    tech: Technology,
    seed: u64,
) -> Outcome {
    let traced = graftbench::telemetry::tracing();
    let mut rng = SmallRng::seed_from_u64(seed);
    let shards = 2 + rng.bounded_u64(3) as usize; // stealing needs a peer
    let mut sharded = ShardedHost::new(shards);
    let engine = manager.load(spec, tech).expect("sharded load");
    let id = sharded.install(POINT, "pure", engine).expect("install");
    let q: RunQueues<(i64, i64)> = sharded.run_queues(StealPolicy::default());
    let mut vs = VirtualShards::new(&mut sharded, seed ^ 0x57EA_1000);
    let ctx = format!("{tech} seed {seed:#x}");

    // A keyed trace over a small hot key space: half the items hit one
    // hot key, so the plane genuinely diverts and steals; `b == 0`
    // traps, so some seeds quarantine the graft mid-trace (including
    // mid-steal, when the trapping item was pulled from another
    // shard's queue).
    let total = 24 + rng.bounded_u64(40) as usize;
    let mut submitted = 0usize;
    let mut order: Vec<Completed> = Vec::new();
    let to_args = |&(a, b): &(i64, i64), args: &mut Vec<i64>| args.extend_from_slice(&[a, b]);
    while submitted < total || q.total_depth() > 0 {
        if submitted < total && rng.bounded_u64(3) != 0 {
            let key = if rng.bounded_u64(2) == 0 {
                0
            } else {
                rng.bounded_u64(8)
            };
            let a = rng.bounded_u64(1000) as i64;
            let b = if rng.bounded_u64(24) == 0 {
                0 // div-by-zero trap
            } else {
                1 + rng.bounded_u64(3) as i64
            };
            if sharded.enqueue(&q, key, Some(id), (a, b)).is_ok() {
                submitted += 1;
                continue;
            }
            // Backpressure: fall through to a drain.
        }
        vs.drive_queue_with(&q, POINT, to_args, |w, v| order.push((w.payload, v)));
    }
    assert_eq!(order.len(), total, "plane lost or duplicated items, {ctx}");
    let postmortems = sharded.take_postmortems();
    check_completion_order(
        manager,
        spec,
        tech,
        (&sharded, &mut vs, id),
        (&order, traced, &postmortems),
        &ctx,
    )
}

/// >= 200 seeded stealing interleavings for one technology.
fn run_steal_equivalence(tech: Technology, base_seed: u64) {
    const INTERLEAVINGS: usize = 200;
    let _untraced = untraced();
    let manager = GraftManager::new();
    let spec = pure_spec();
    for i in 0..INTERLEAVINGS {
        let seed = base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        check_one_stealing(&manager, &spec, tech, seed);
    }
}

#[test]
fn stealing_matches_scalar_compiled_unchecked() {
    run_steal_equivalence(Technology::CompiledUnchecked, 0x5C0);
}

#[test]
fn stealing_matches_scalar_safe_compiled() {
    run_steal_equivalence(Technology::SafeCompiled, 0x553);
}

#[test]
fn stealing_matches_scalar_sfi() {
    run_steal_equivalence(Technology::Sfi, 0x55F1);
}

#[test]
fn stealing_matches_scalar_bytecode() {
    run_steal_equivalence(Technology::Bytecode, 0x5B1);
}

#[test]
fn stealing_matches_scalar_script() {
    run_steal_equivalence(Technology::Script, 0x57C1);
}

#[test]
fn stealing_matches_scalar_rust_native() {
    run_steal_equivalence(Technology::RustNative, 0x54A);
}

#[test]
fn stealing_matches_scalar_user_level() {
    run_steal_equivalence(Technology::UserLevel, 0x50E);
}

#[test]
fn stealing_interleavings_replay_identically_from_the_same_seed() {
    let _untraced = untraced();
    let manager = GraftManager::new();
    let spec = pure_spec();
    for i in 0..16u64 {
        let seed = 0x57EA_D00D ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let first = check_one_stealing(&manager, &spec, Technology::Bytecode, seed);
        let again = check_one_stealing(&manager, &spec, Technology::Bytecode, seed);
        let key = |o: &Outcome| (o.steps.clone(), o.grafts.clone(), o.stats);
        assert_eq!(key(&first), key(&again), "seed {seed:#x} did not replay");
    }
}

#[test]
fn saboteur_quarantined_mid_steal_names_the_thief_and_counts_once() {
    // All work homes on one shard; the trapping items sit in the back
    // half of its queue — exactly the slice a thief steals. The
    // supervisor must trip on the thief (the postmortem names it), the
    // strikes must count exactly once despite the cross-shard handoff,
    // and the model's replay of the completion order must agree
    // verdict for verdict.
    let _untraced = untraced();
    let manager = GraftManager::new();
    let spec = pure_spec();
    for tech in [
        Technology::SafeCompiled,
        Technology::Bytecode,
        Technology::RustNative,
    ] {
        let traced = graftbench::telemetry::tracing();
        let mut host = ShardedHost::new(2);
        let threshold = host.config().trap_threshold as u64;
        let id = host
            .install(POINT, "saboteur", manager.load(&spec, tech).expect("load"))
            .expect("install");
        let q: RunQueues<(i64, i64)> = host.run_queues(StealPolicy::default());
        let home = q.home(0);
        let thief = 1 - home;
        // Ten items keyed to the home shard: seven clean, then
        // `threshold` trapping ones at the back. A steal takes the back
        // half (five items), which contains every trap.
        for i in 0..10u64 {
            let b = if i >= 10 - threshold { 0 } else { 1 };
            host.enqueue(&q, 0, Some(id), (7i64, b)).expect("room");
        }
        let mut vs = VirtualShards::new(&mut host, 0x7EEF);
        let to_args = |&(a, b): &(i64, i64), args: &mut Vec<i64>| args.extend_from_slice(&[a, b]);
        let mut order: Vec<Completed> = Vec::new();
        let stolen = vs
            .shard_mut(thief)
            .drain_queue_with(&q, POINT, to_args, |w, v| {
                order.push((w.payload, v));
            });
        assert_eq!(stolen, 5, "{tech}: thief did not steal the back half");
        assert!(host.is_quarantined(id), "{tech}: saboteur survived");
        // The home shard mops up its remaining front half against a
        // detached chain.
        let mut rest = 0;
        while q.total_depth() > 0 {
            rest += vs
                .shard_mut(home)
                .drain_queue_with(&q, POINT, to_args, |w, v| {
                    order.push((w.payload, v));
                });
        }
        assert_eq!(rest, 5, "{tech}: home lost its front half");
        vs.flush_all();

        let ledger = host.ledger(id).expect("ledger");
        assert_eq!(ledger.traps, threshold, "{tech}: strikes double-counted");
        assert_eq!(ledger.invocations, 5, "{tech}: stolen batch miscounted");
        let pm = host.take_postmortems();
        assert_eq!(pm.len(), 1, "{tech}");
        assert_eq!(pm[0].shard, thief as u32, "{tech}: wrong shard blamed");
        assert_eq!(pm[0].strikes as u64, threshold, "{tech}");

        let got = check_completion_order(
            &manager,
            &spec,
            tech,
            (&host, &mut vs, id),
            (&order, traced, &pm),
            &format!("{tech}"),
        );
        assert!(
            matches!(
                got.grafts[0].state,
                graftbench::kernel::GraftState::Quarantined { .. }
            ),
            "{tech}"
        );
    }
}
