//! The `grafts` family: the paper's own question. Eviction decisions at
//! `VmEvict`, MD5 digests, and Logical-Disk block writes at `DiskWrite`,
//! each under several technologies, interleaved batch by batch on one
//! thread so host drift hits every technology equally.
//!
//! Engines, marshalling and the chain walk do nearly all the work here;
//! the `server` and `logdisk` crates do none (the ldmap oracle aside,
//! which runs outside every timed region).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use graft_api::{ExtensionEngine, GraftError, GraftSpec, Verdict};
use graft_kernel::{AttachPoint, GraftId, HostedWritePath, ShardHandle, ShardedHost};
use graft_rng::SmallRng;
use grafts::eviction::{self, Scenario};
use grafts::{logdisk as ld_graft, md5 as md5_graft};
use kernsim::btree::BtreeModel;
use logdisk::workload::SkewedWrites;
use logdisk::{LdConfig, LogicalDisk};

use crate::common::{Budget, Tally};
use crate::probe::{now_ns, NullEngine, SpanLog, Tap, Tapped};
use crate::report::Metrics;
use crate::stats;
use crate::tech::{self, Tech};

/// Technologies whose eviction decisions are end-to-end metrics.
pub const EVICT_TECHS: [Tech; 4] = [Tech::Native, Tech::C, Tech::M3, Tech::Omni];
/// Technologies whose MD5 throughput is an end-to-end metric.
pub const MD5_TECHS: [Tech; 2] = [Tech::C, Tech::M3];
/// Technologies whose Logical-Disk writes are end-to-end metrics.
pub const LDMAP_TECHS: [Tech; 3] = [Tech::C, Tech::M3, Tech::Omni];

/// Resident pages per eviction scenario (Table 2).
const RESIDENT: usize = 512;
/// Hot-list length per scenario (Table 2's average).
const HOT: usize = 64;
/// Scenarios drawn per seed.
const SCENARIOS: usize = 64;
/// Each scenario re-queues 0..HOT_PREFIX hot pages at the LRU head, so
/// the graft walks a seeded, varying number of queue entries.
const HOT_PREFIX: u64 = 4;
/// Bytes per MD5 operation.
pub const MD5_BYTES: usize = 16 * 1024;
/// Distinct seeded MD5 buffers.
const MD5_BUFS: usize = 4;
/// Logical blocks on the ldmap disk (Table 6).
pub const LD_BLOCKS: usize = 262_144;
/// Block writes per `write_batch` call.
pub const LD_BATCH: usize = 32;
/// Writes after which a technology's graft map is checked whole against
/// its oracle disk and both are reset.
const LD_EPOCH: u64 = LD_BLOCKS as u64;
/// Decisions timed together in the untraced loop (amortises the clock).
const EVICT_GROUP: usize = 8;
/// Groups per eviction batch.
const EVICT_GROUPS: usize = 64;
/// `write_batch` calls per ldmap batch.
const LDMAP_CALLS: usize = 64;

/// One eviction decision's input and its oracle answer.
pub struct EvictCase {
    /// The LRU snapshot and hot list.
    pub scenario: Scenario,
    /// `reference_victim`, the page the graft must choose.
    pub victim: i64,
    /// LRU entries the walk visits before deciding.
    pub nodes: u64,
}

/// One MD5 input and its reference digest.
pub struct Md5Case {
    /// Seeded bytes.
    pub data: Vec<u8>,
    /// `graft_md5::digest` of `data`.
    pub digest: [u8; 16],
}

/// Everything the family feeds the program, generated from the seed.
pub struct Inputs {
    /// Eviction scenarios, used in order.
    pub cases: Vec<EvictCase>,
    /// MD5 buffers, used in turn.
    pub md5: Vec<Md5Case>,
    /// Seed of the 80/20 ldmap write stream.
    pub write_seed: u64,
}

/// Generates the family's inputs from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6772_6166_7473);
    let model = BtreeModel::default();
    let cases = (0..SCENARIOS)
        .map(|_| {
            let mut scenario = Scenario::from_btree(&model, RESIDENT, HOT, rng.next_u64());
            let prefix = rng.bounded_u64(HOT_PREFIX) as usize;
            let front: Vec<u64> = scenario.hot[..prefix].to_vec();
            scenario.queue.truncate(RESIDENT - prefix);
            scenario.queue.splice(0..0, front);
            let victim = scenario.reference_victim();
            let nodes = scenario
                .queue
                .iter()
                .position(|&p| p == victim)
                .map_or(scenario.queue.len(), |i| i + 1) as u64;
            EvictCase {
                scenario,
                victim: victim as i64,
                nodes,
            }
        })
        .collect();
    let md5 = (0..MD5_BUFS)
        .map(|_| {
            let data: Vec<u8> = (0..MD5_BYTES).map(|_| rng.next_u64() as u8).collect();
            let digest = graft_md5::digest(&data);
            Md5Case { data, digest }
        })
        .collect();
    Inputs {
        cases,
        md5,
        write_seed: rng.next_u64(),
    }
}

struct EvictRig {
    tech: Tech,
    _host: ShardedHost,
    handle: ShardHandle,
    /// Traced rigs: the same chain with a [`NullEngine`] in place of the
    /// graft, which times the chain walk on its own.
    null: Option<(ShardedHost, ShardHandle)>,
}

struct LdmapRig {
    tech: Tech,
    _host: ShardedHost,
    handle: Rc<RefCell<ShardHandle>>,
    path: HostedWritePath<Rc<RefCell<ShardHandle>>>,
    id: GraftId,
    oracle: LogicalDisk,
    writes: SkewedWrites,
    epoch_writes: u64,
    /// Traced rigs: the write path over a [`NullEngine`].
    null: Option<(ShardedHost, HostedWritePath<ShardHandle>)>,
}

/// The family's engines, each behind its own 1-shard host.
pub struct GraftsRig {
    evict: Vec<EvictRig>,
    java: Option<EvictRig>,
    md5: Vec<Box<dyn ExtensionEngine>>,
    ldmap: Vec<LdmapRig>,
    tap: Option<Arc<Tap>>,
}

fn engine(
    spec: &GraftSpec,
    tech: Tech,
    tap: Option<&Arc<Tap>>,
) -> Result<Box<dyn ExtensionEngine>, GraftError> {
    let e = tech::load(spec, tech)?;
    Ok(match tap {
        Some(tap) => Tapped::wrap(e, tap),
        None => e,
    })
}

fn hosted(
    point: AttachPoint,
    engine: Box<dyn ExtensionEngine>,
) -> Result<(ShardedHost, ShardHandle, GraftId), GraftError> {
    let mut host = ShardedHost::new(1);
    let id = host.install(point, "perfbench", engine)?;
    let handle = host.take_handle(0).expect("a 1-shard host has shard 0");
    Ok((host, handle, id))
}

/// A 1-shard host whose only graft at `point` is a [`NullEngine`] that
/// takes the same batch path as graft `id` on `handle`.
fn null_twin(
    point: AttachPoint,
    handle: &mut ShardHandle,
    id: GraftId,
) -> Result<(ShardedHost, ShardHandle), GraftError> {
    let real = handle
        .engine_mut(id)
        .ok_or_else(|| GraftError::Verify("graft left the host".into()))?;
    let (host, handle, _) = hosted(point, NullEngine::like(real))?;
    Ok((host, handle))
}

fn ld_oracle() -> LogicalDisk {
    LogicalDisk::new(LdConfig {
        blocks: LD_BLOCKS,
        segment_blocks: ld_graft::SEGMENT_BLOCKS as usize,
    })
}

/// Builds every engine of the family. A traced rig wraps each engine in
/// a [`Tapped`] forwarder and also hosts the Java eviction graft.
pub fn build(inputs: &Inputs, traced: bool) -> Result<GraftsRig, GraftError> {
    let tap = traced.then(Tap::new);
    let evict_spec = eviction::spec();
    let evict_rig = |tech| -> Result<EvictRig, GraftError> {
        let (host, mut handle, id) = hosted(
            AttachPoint::VmEvict,
            engine(&evict_spec, tech, tap.as_ref())?,
        )?;
        let null = if traced {
            Some(null_twin(AttachPoint::VmEvict, &mut handle, id)?)
        } else {
            None
        };
        Ok(EvictRig {
            tech,
            _host: host,
            handle,
            null,
        })
    };
    let evict = EVICT_TECHS
        .into_iter()
        .map(evict_rig)
        .collect::<Result<_, _>>()?;
    let java = if traced {
        Some(evict_rig(Tech::Java)?)
    } else {
        None
    };
    let md5_spec = md5_graft::spec();
    let md5 = MD5_TECHS
        .into_iter()
        .map(|tech| engine(&md5_spec, tech, tap.as_ref()))
        .collect::<Result<_, GraftError>>()?;
    let ld_spec = ld_graft::spec_sized(LD_BLOCKS);
    let ldmap = LDMAP_TECHS
        .into_iter()
        .map(|tech| {
            let mut e = engine(&ld_spec, tech, tap.as_ref())?;
            ld_graft::init_map(e.as_mut(), LD_BLOCKS)?;
            let (host, mut handle, id) = hosted(AttachPoint::DiskWrite, e)?;
            let null = if traced {
                let (host, h) = null_twin(AttachPoint::DiskWrite, &mut handle, id)?;
                Some((host, HostedWritePath::new(h, LD_BLOCKS)))
            } else {
                None
            };
            let handle = Rc::new(RefCell::new(handle));
            Ok(LdmapRig {
                tech,
                _host: host,
                path: HostedWritePath::new(Rc::clone(&handle), LD_BLOCKS),
                handle,
                id,
                oracle: ld_oracle(),
                writes: logdisk::workload::skewed(LD_BLOCKS, u64::MAX, inputs.write_seed),
                epoch_writes: 0,
                null,
            })
        })
        .collect::<Result<_, GraftError>>()?;
    if let Some(tap) = &tap {
        tap.discard();
    }
    Ok(GraftsRig {
        evict,
        java,
        md5,
        ldmap,
        tap,
    })
}

/// Timings of one operation type under one technology.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// The end-to-end samples, ns per operation (per block for ldmap).
    pub op: Vec<f64>,
    /// The middle value of `op` within each call of [`run`] (each round
    /// of a measured run).
    pub round_p50: Vec<f64>,
    /// Operations timed.
    pub ops: u64,
    /// Sum of marshal time (traced), ns: the marshal closure for
    /// eviction, `load_region_id` for MD5.
    pub marshal_ns: f64,
    /// Sum of engine time (traced), ns.
    pub engine_ns: f64,
    /// Sum of kernel self time (traced), ns: the traced op minus its
    /// marshal and engine time, a remainder.
    pub chain_ns: f64,
    /// Engine time per traced operation, ns.
    pub engine: Vec<f64>,
    /// Per traced operation (per block for ldmap), the parts timed
    /// directly, each by its own clock: marshal + engine for eviction,
    /// `load_region_id` + engine for MD5, engine for ldmap, ns.
    pub parts: Vec<f64>,
    /// The chain walk alone over a [`NullEngine`], per operation (per
    /// block for ldmap), ns.
    pub null: Vec<f64>,
    /// LRU entries walked (evict) or blocks written (ldmap).
    pub units: u64,
    /// Telemetry counter deltas over the traced batches.
    pub counters: [u64; 2],
}

/// What one run of the family measured.
#[derive(Debug, Clone, Default)]
pub struct GraftsRun {
    /// Eviction, in [`EVICT_TECHS`] order, then Java when traced.
    pub evict: Vec<OpStats>,
    /// MD5, in [`MD5_TECHS`] order.
    pub md5: Vec<OpStats>,
    /// ldmap, in [`LDMAP_TECHS`] order.
    pub ldmap: Vec<OpStats>,
    /// Whether the run was traced.
    pub traced: bool,
    /// Rounds run so far.
    pub rounds: u64,
}

impl GraftsRun {
    fn ops(&self) -> impl Iterator<Item = &OpStats> {
        self.evict.iter().chain(&self.md5).chain(&self.ldmap)
    }

    fn ops_mut(&mut self) -> impl Iterator<Item = &mut OpStats> {
        self.evict
            .iter_mut()
            .chain(&mut self.md5)
            .chain(&mut self.ldmap)
    }

    /// An empty run, traced or not.
    pub fn new(traced: bool) -> Self {
        GraftsRun {
            evict: vec![OpStats::default(); EVICT_TECHS.len() + usize::from(traced)],
            md5: vec![OpStats::default(); MD5_TECHS.len()],
            ldmap: vec![OpStats::default(); LDMAP_TECHS.len()],
            traced,
            rounds: 0,
        }
    }
}

fn counter(name: &str) -> u64 {
    graft_telemetry::snapshot().counter(name)
}

fn marshal_case(case: &EvictCase, e: &mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError> {
    let (lru, hot) = case.scenario.marshal(e)?;
    Ok(vec![lru, hot])
}

fn evict_batch(
    rig: &mut EvictRig,
    tap: Option<&Tap>,
    cases: &[EvictCase],
    st: &mut OpStats,
    log: &mut SpanLog,
    tally: &mut Tally,
) {
    let n = cases.len();
    let want = |i: usize, v: Verdict| v == Verdict::Override(cases[i % n].victim);
    let Some(tap) = tap else {
        let mut verdicts = [Verdict::Continue; EVICT_GROUP];
        for g in 0..EVICT_GROUPS {
            let base = g * EVICT_GROUP;
            let t = Instant::now();
            for (j, v) in verdicts.iter_mut().enumerate() {
                let case = &cases[(base + j) % n];
                *v = rig
                    .handle
                    .dispatch(AttachPoint::VmEvict, |e| marshal_case(case, e));
            }
            let ns = t.elapsed().as_nanos() as f64;
            st.op.push(ns / EVICT_GROUP as f64);
            st.ops += EVICT_GROUP as u64;
            for (j, &v) in verdicts.iter().enumerate() {
                tally.check("evict", want(base + j, v));
            }
        }
        return;
    };
    for i in 0..EVICT_GROUPS * EVICT_GROUP {
        let case = &cases[i % n];
        let op = log.op();
        let mut marshal = (0u64, 0u64);
        let t0 = now_ns();
        let v = rig.handle.dispatch(AttachPoint::VmEvict, |e| {
            let start = now_ns();
            let args = marshal_case(case, e);
            marshal = (start, now_ns());
            args
        });
        let t1 = now_ns();
        tally.check("evict", want(i, v));
        let name = match rig.tech {
            Tech::Java => "grafts.evict.java",
            _ => "grafts.evict",
        };
        let op_span = log.push(name, t0, t1, SpanLog::ROOT, op);
        let m_span = log.push("grafts.marshal", marshal.0, marshal.1, op_span, op);
        let e = tap.drain_op(log, op, op_span, m_span).0 as f64;
        let total = (t1 - t0) as f64;
        let m = (marshal.1 - marshal.0) as f64;
        let chain = total - m - e;
        st.op.push(total);
        st.ops += 1;
        st.marshal_ns += m;
        st.engine_ns += e;
        st.chain_ns += chain.max(0.0);
        st.engine.push(e);
        st.parts.push(m + e);
        st.units += case.nodes;
    }
    if let Some((_, null)) = rig.null.as_mut() {
        for _ in 0..EVICT_GROUPS {
            let t = Instant::now();
            for _ in 0..EVICT_GROUP {
                std::hint::black_box(null.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])));
            }
            st.null
                .push(t.elapsed().as_nanos() as f64 / EVICT_GROUP as f64);
        }
    }
}

fn md5_op(
    engine: &mut dyn ExtensionEngine,
    tap: Option<&Tap>,
    case: &Md5Case,
    st: &mut OpStats,
    log: &mut SpanLog,
    tally: &mut Tally,
) {
    let op = log.op();
    let t0 = now_ns();
    let digest = md5_graft::digest_via(engine, &case.data);
    let t1 = now_ns();
    tally.check("md5", digest.as_ref().is_ok_and(|d| *d == case.digest));
    let total = (t1 - t0) as f64;
    st.op.push(total);
    st.ops += 1;
    if let Some(tap) = tap {
        let op_span = log.push("grafts.md5", t0, t1, SpanLog::ROOT, op);
        let (e, load) = tap.drain_op(log, op, op_span, op_span);
        let (e, load) = (e as f64, load as f64);
        st.engine_ns += e;
        st.marshal_ns += load;
        st.engine.push(e);
        st.parts.push(e + load);
    }
}

fn ldmap_batch(
    rig: &mut LdmapRig,
    tap: Option<&Tap>,
    st: &mut OpStats,
    log: &mut SpanLog,
    tally: &mut Tally,
) {
    let mut blocks = [0u64; LD_BATCH];
    for _ in 0..LDMAP_CALLS {
        for b in &mut blocks {
            *b = rig.writes.next().expect("the write stream is unbounded");
        }
        let op = log.op();
        let t0 = now_ns();
        let flushed = rig.path.write_batch(&blocks);
        let t1 = now_ns();
        let total = (t1 - t0) as f64;
        st.op.push(total / LD_BATCH as f64);
        st.ops += 1;
        st.units += LD_BATCH as u64;
        if let Some(tap) = tap {
            let op_span = log.push("kernel.write_batch", t0, t1, SpanLog::ROOT, op);
            let e = tap.drain_op(log, op, op_span, op_span).0 as f64;
            st.engine_ns += e;
            st.chain_ns += (total - e).max(0.0);
            st.engine.push(e / LD_BATCH as f64);
            st.parts.push(e / LD_BATCH as f64);
        }
        if let Some((_, null)) = rig.null.as_mut() {
            let t = now_ns();
            std::hint::black_box(null.write_batch(&blocks));
            st.null.push((now_ns() - t) as f64 / LD_BATCH as f64);
        }
        // Oracle: the logdisk crate's reference facility, fed the same
        // writes, must flush on exactly the same blocks.
        let mut ok = flushed.len() == LD_BATCH;
        for (i, &b) in blocks.iter().enumerate() {
            ok &= flushed.get(i) == Some(&rig.oracle.write(b).is_some());
        }
        tally.check("ldmap", ok);
        rig.epoch_writes += LD_BATCH as u64;
        if rig.epoch_writes >= LD_EPOCH {
            tally.check("ldmap_map", ldmap_epoch(rig).is_ok_and(|same| same));
            if let Some(tap) = tap {
                tap.discard();
            }
        }
    }
}

/// Ends an ldmap epoch: compares the graft's whole map with the oracle
/// disk's, then resets both. Returns whether the maps agreed.
fn ldmap_epoch(rig: &mut LdmapRig) -> Result<bool, GraftError> {
    let mut handle = rig.handle.borrow_mut();
    let engine = handle
        .engine_mut(rig.id)
        .ok_or_else(|| GraftError::Verify("ldmap graft left the host".into()))?;
    let map_id = engine.bind_region("map")?;
    let mut map = vec![0i64; LD_BLOCKS];
    engine.read_region_slice_id(map_id, 0, &mut map)?;
    let same = map == rig.oracle.map();
    ld_graft::init_map(engine, LD_BLOCKS)?;
    rig.oracle = ld_oracle();
    rig.epoch_writes = 0;
    Ok(same)
}

/// Runs the family until `budget` is spent: every round runs one batch
/// of each operation type under each technology, rotating which
/// technology goes first. Adds to `out`, so a run can be spread over
/// several slices of the wall clock.
pub fn run(
    rig: &mut GraftsRig,
    inputs: &Inputs,
    budget: Budget,
    out: &mut GraftsRun,
    log: &mut SpanLog,
    tally: &mut Tally,
) {
    let traced = rig.tap.is_some();
    assert_eq!(traced, out.traced, "a traced rig fills a traced run");
    let tap = rig.tap.clone();
    let tap = tap.as_deref();
    let starts: Vec<usize> = out.ops().map(|st| st.op.len()).collect();
    let mut clock = budget.start();
    while clock.more() {
        let r = out.rounds as usize;
        out.rounds += 1;
        for k in 0..rig.evict.len() {
            let i = (k + r) % rig.evict.len();
            let omni = traced && rig.evict[i].tech == Tech::Omni;
            let before = if omni { counter("sfi.arena_loads") } else { 0 };
            evict_batch(
                &mut rig.evict[i],
                tap,
                &inputs.cases,
                &mut out.evict[i],
                log,
                tally,
            );
            if omni {
                out.evict[i].counters[0] += counter("sfi.arena_loads") - before;
            }
        }
        if let Some(java) = rig.java.as_mut() {
            let st = out.evict.last_mut().expect("java slot");
            let before = counter("vm.dispatch");
            evict_batch(java, tap, &inputs.cases, st, log, tally);
            st.counters[0] += counter("vm.dispatch") - before;
        }
        for k in 0..rig.md5.len() {
            let i = (k + r) % rig.md5.len();
            let case = &inputs.md5[r % inputs.md5.len()];
            md5_op(rig.md5[i].as_mut(), tap, case, &mut out.md5[i], log, tally);
        }
        for k in 0..rig.ldmap.len() {
            let i = (k + r) % rig.ldmap.len();
            let omni = traced && rig.ldmap[i].tech == Tech::Omni;
            let before = if omni {
                [counter("sfi.mask_ops"), counter("sfi.masked_stores")]
            } else {
                [0, 0]
            };
            ldmap_batch(&mut rig.ldmap[i], tap, &mut out.ldmap[i], log, tally);
            if omni {
                let st = &mut out.ldmap[i].counters;
                st[0] += counter("sfi.mask_ops") - before[0];
                st[1] += counter("sfi.masked_stores") - before[1];
            }
        }
    }
    for (st, start) in out.ops_mut().zip(starts) {
        let mut this_round = st.op[start..].to_vec();
        if !this_round.is_empty() {
            this_round.sort_by(f64::total_cmp);
            st.round_p50.push(this_round[this_round.len() / 2]);
        }
    }
}

fn p50(samples: &[f64]) -> f64 {
    stats::median(&mut samples.to_vec()).unwrap_or(f64::NAN)
}

/// Quantile, over a run's rounds, of each round's p50 that the family
/// reports. The host flips between a fast and a slow state (up to 1.7×
/// for a native eviction) in spells of seconds to minutes. A run's p50
/// jumps between the two states with the share of fast rounds, which
/// varies from run to run; the upper quartile of the rounds stays in
/// the slow state unless three quarters of the run were fast.
const ROUND_QUANTILE: f64 = 0.75;

/// [`ROUND_QUANTILE`] of an operation's per-round p50s, ns.
fn per_op(st: &OpStats) -> f64 {
    stats::percentile(&mut st.round_p50.clone(), ROUND_QUANTILE).unwrap_or(f64::NAN)
}

/// The family's end-to-end metrics: time per eviction, MB/s per digest
/// and time per ldmap block, each the [`ROUND_QUANTILE`] over the run's
/// rounds of the round's p50.
pub fn end_to_end(run: &GraftsRun) -> Metrics {
    let mut m = Metrics::default();
    for (tech, st) in EVICT_TECHS.iter().zip(&run.evict) {
        m.put(format!("evict_ns.{}", tech.label()), per_op(st), "ns");
    }
    for (tech, st) in MD5_TECHS.iter().zip(&run.md5) {
        m.put_higher(
            format!("md5_mb_s.{}", tech.label()),
            MD5_BYTES as f64 * 1e3 / per_op(st),
            "MB/s",
        );
    }
    for (tech, st) in LDMAP_TECHS.iter().zip(&run.ldmap) {
        m.put(format!("ldmap_ns.{}", tech.label()), per_op(st), "ns");
    }
    m
}

/// The traced run's per-layer metrics.
pub fn layers(run: &GraftsRun) -> Metrics {
    assert!(run.traced, "layer metrics come from the traced run");
    let mut m = Metrics::default();
    let per = |sum: f64, st: &OpStats| stats::ratio(sum, st.ops as f64);
    let kb = MD5_BYTES as f64 / 1024.0;
    let evict_techs: Vec<Tech> = EVICT_TECHS.iter().copied().chain([Tech::Java]).collect();
    let engine_evict = |t: Tech| {
        let i = evict_techs
            .iter()
            .position(|&x| x == t)
            .expect("evict tech");
        per(run.evict[i].engine_ns, &run.evict[i])
    };
    for (tech, st) in EVICT_TECHS.iter().zip(&run.evict) {
        m.put(
            format!("kernel.chain_ns.{}", tech.label()),
            per(st.chain_ns, st),
            "ns",
        );
    }
    for (tech, st) in LDMAP_TECHS.iter().zip(&run.ldmap) {
        m.put(
            format!("kernel.batch_chain_ns.{}", tech.label()),
            stats::ratio(st.chain_ns, st.units as f64),
            "ns",
        );
    }
    for (tech, st) in EVICT_TECHS.iter().zip(&run.evict) {
        m.put(
            format!("grafts.marshal_ns.{}", tech.label()),
            per(st.marshal_ns, st),
            "ns",
        );
    }
    for (tech, st) in MD5_TECHS.iter().zip(&run.md5) {
        m.put(
            format!("grafts.md5_marshal_ns_per_kb.{}", tech.label()),
            per(st.marshal_ns, st) / kb,
            "ns/KB",
        );
    }
    let nodes = stats::ratio(run.evict[0].units as f64, run.evict[0].ops as f64);
    m.put("grafts.evict_nodes", nodes, "count");
    for (tech, st) in evict_techs.iter().zip(&run.evict) {
        m.put(
            format!("engine.evict_ns.{}", tech.label()),
            per(st.engine_ns, st),
            "ns",
        );
    }
    for (tech, st) in evict_techs.iter().zip(&run.evict) {
        let walked = stats::ratio(st.units as f64, st.ops as f64);
        m.put(
            format!("engine.evict_ns_per_node.{}", tech.label()),
            stats::ratio(per(st.engine_ns, st), walked),
            "ns",
        );
    }
    let md5_engine: Vec<f64> = run
        .md5
        .iter()
        .map(|st| per(st.engine_ns, st) / kb)
        .collect();
    for (tech, v) in MD5_TECHS.iter().zip(&md5_engine) {
        m.put(
            format!("engine.md5_ns_per_kb.{}", tech.label()),
            *v,
            "ns/KB",
        );
    }
    let ld_engine: Vec<f64> = run
        .ldmap
        .iter()
        .map(|st| stats::ratio(st.engine_ns, st.units as f64))
        .collect();
    for (tech, v) in LDMAP_TECHS.iter().zip(&ld_engine) {
        m.put(format!("engine.ldmap_ns.{}", tech.label()), *v, "ns");
    }
    m.put(
        "engine.checking_tax_ns.evict",
        engine_evict(Tech::M3) - engine_evict(Tech::C),
        "ns",
    );
    m.put(
        "engine.checking_tax_ns.md5",
        md5_engine[1] - md5_engine[0],
        "ns/KB",
    );
    m.put(
        "engine.checking_tax_ns.ldmap",
        ld_engine[1] - ld_engine[0],
        "ns",
    );
    m.put(
        "engine.sfi_tax_ns.evict",
        engine_evict(Tech::Omni) - engine_evict(Tech::C),
        "ns",
    );
    m.put("engine.sfi_tax_ns.ldmap", ld_engine[2] - ld_engine[0], "ns");
    m.put(
        "engine.c_over_native.evict",
        stats::ratio(engine_evict(Tech::C), engine_evict(Tech::Native)),
        "ratio",
    );
    let omni_ld = &run.ldmap[2];
    m.put(
        "sfi.mask_ops",
        stats::ratio(omni_ld.counters[0] as f64, omni_ld.units as f64),
        "1/write",
    );
    m.put(
        "sfi.masked_stores",
        stats::ratio(omni_ld.counters[1] as f64, omni_ld.units as f64),
        "1/write",
    );
    let omni_ev = &run.evict[3];
    m.put(
        "sfi.arena_loads",
        stats::ratio(omni_ev.counters[0] as f64, omni_ev.ops as f64),
        "1/evict",
    );
    let java = &run.evict[4];
    m.put(
        "vm.dispatch",
        stats::ratio(java.counters[0] as f64, java.ops as f64),
        "1/evict",
    );
    for (tech, st) in evict_techs.iter().zip(&run.evict) {
        let p99 = stats::percentile(&mut st.engine.clone(), 0.99).unwrap_or(f64::NAN);
        m.put(format!("engine.evict_p99_ns.{}", tech.label()), p99, "ns");
    }
    m
}

/// How well each operation's directly timed parts add back up to the
/// operation timed whole, without tracing: p50 of the parts (plus p50 of
/// the chain walk over a [`NullEngine`], where there is one) over the
/// untraced p50, per technology. No part is a remainder. MD5 leaves out
/// `digest_via`'s own byte packing, a few percent of the op.
pub fn breakdown(traced: &GraftsRun, plain: &GraftsRun) -> Vec<(String, f64)> {
    let ratio = |t: &OpStats, p: &OpStats| {
        let null = if t.null.is_empty() { 0.0 } else { p50(&t.null) };
        stats::ratio(p50(&t.parts) + null, p50(&p.op))
    };
    let mut out = Vec::new();
    for (op, techs, t, p) in [
        ("evict", &EVICT_TECHS[..], &traced.evict, &plain.evict),
        ("md5", &MD5_TECHS[..], &traced.md5, &plain.md5),
        ("ldmap", &LDMAP_TECHS[..], &traced.ldmap, &plain.ldmap),
    ] {
        for ((tech, t), p) in techs.iter().zip(t.iter()).zip(p.iter()) {
            out.push((format!("{op}.{}", tech.label()), ratio(t, p)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let key = |i: &Inputs| {
            (
                i.cases
                    .iter()
                    .map(|c| (c.scenario.queue.clone(), c.scenario.hot.clone(), c.victim))
                    .collect::<Vec<_>>(),
                i.md5.iter().map(|c| c.digest).collect::<Vec<_>>(),
                i.write_seed,
            )
        };
        assert!(key(&inputs(7)) == key(&inputs(7)));
        assert!(key(&inputs(7)) != key(&inputs(8)));
        // The walk length varies across scenarios.
        let nodes: std::collections::BTreeSet<u64> =
            inputs(7).cases.iter().map(|c| c.nodes).collect();
        assert!(nodes.len() > 1, "{nodes:?}");
    }

    #[test]
    fn a_fixed_round_budget_gives_identical_counts_and_no_failures() {
        let inp = inputs(3);
        let counts = |seed_inputs: &Inputs| {
            let mut rig = build(seed_inputs, false).unwrap();
            let mut tally = Tally::default();
            let mut log = SpanLog::with_capacity(0);
            run(
                &mut rig,
                seed_inputs,
                Budget::Rounds(1),
                &mut GraftsRun::new(false),
                &mut log,
                &mut tally,
            );
            tally
        };
        let a = counts(&inp);
        assert_eq!(a, counts(&inp));
        assert_eq!(a.failed(), 0, "{a:?}");
        assert!(a.of("evict").0 > 0 && a.of("md5").0 > 0 && a.of("ldmap").0 > 0);
    }

    #[test]
    fn the_eviction_oracle_catches_a_wrong_victim() {
        let mut inp = inputs(5);
        // Plant a wrong answer: the oracle now expects a page the graft
        // will never choose.
        inp.cases[0].victim = -7;
        let mut rig = build(&inp, false).unwrap();
        let mut tally = Tally::default();
        let mut st = OpStats::default();
        evict_batch(
            &mut rig.evict[0],
            None,
            &inp.cases,
            &mut st,
            &mut SpanLog::with_capacity(0),
            &mut tally,
        );
        assert!(tally.of("evict").1 > 0);
    }
}
