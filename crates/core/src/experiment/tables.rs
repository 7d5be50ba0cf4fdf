//! Tables 2, 5, and 6: the per-technology graft measurements.

use std::time::{Duration, Instant};

use engine_native::Tier;
use graft_api::{ExtensionEngine, GraftError, GraftSpec, Technology};
use graft_kernel::{AttachPoint, ShardedHost, StealPolicy};
use grafts::{eviction, logdisk as ld_graft, md5 as md5_graft};
use kernsim::stats::{measure, measure_per_iter, Sample};
use kernsim::DiskModel;

use super::micro::UPCALL_BATCH;
use super::{md5_workload, RunConfig};
use crate::breakeven::break_even;
use crate::manager::GraftManager;

/// The technologies the tables row over, in the paper's column order
/// plus our extra rows (native upper bound, user-level server).
pub const ROW_ORDER: [Technology; 7] = [
    Technology::CompiledUnchecked,
    Technology::Bytecode,
    Technology::SafeCompiled,
    Technology::Sfi,
    Technology::Script,
    Technology::RustNative,
    Technology::UserLevel,
];

fn duration_of(sample: &Sample) -> Duration {
    sample.best()
}

/// What a compiled row's machine code costs to make, and how soon it
/// pays for itself against the decoded loop.
#[derive(Debug, Clone, Copy)]
pub struct CompileCost {
    /// Load-time compile of the graft, median of [`COMPILE_LOADS`].
    pub compile: Duration,
    /// One invocation on the decoded loop, ns.
    pub loop_ns: f64,
    /// One invocation on the machine code, ns.
    pub jit_ns: f64,
    /// Call sites the machine code runs inline.
    pub inlined: usize,
    /// Graft registers the machine code keeps in host registers.
    pub pinned: usize,
}

impl CompileCost {
    /// Invocations after which the machine code has saved its compile
    /// time; `None` when it saves nothing per invocation.
    pub fn payback(&self) -> Option<f64> {
        let saved = self.loop_ns - self.jit_ns;
        (saved > 0.0).then(|| self.compile.as_nanos() as f64 / saved)
    }
}

/// Loads timed per compile cost.
const COMPILE_LOADS: usize = 5;

/// `tech`'s compile cost for `spec`, or `None` for a row this host does
/// not compile to machine code. `per_invoke` times one invocation on
/// an engine, in ns; `jit_ns` is the row's own figure.
fn compile_cost(
    manager: &GraftManager,
    spec: &GraftSpec,
    tech: Technology,
    jit_ns: f64,
    per_invoke: impl FnOnce(&mut dyn ExtensionEngine) -> Result<f64, GraftError>,
) -> Result<Option<CompileCost>, GraftError> {
    if manager.mode(tech).is_none() || Tier::AVAILABLE[0] != Tier::Jit {
        return Ok(None);
    }
    let mut compiles = Vec::with_capacity(COMPILE_LOADS);
    let (mut inlined, mut pinned) = (0, 0);
    for _ in 0..COMPILE_LOADS {
        match manager.load_compiled(spec, tech, Tier::Jit) {
            Ok(engine) => {
                compiles.push(engine.compile_time());
                (inlined, pinned) = (engine.inlined_calls(), engine.pinned_registers());
            }
            // The host refused executable pages: the row ran the loop.
            Err(GraftError::Unavailable { .. }) => return Ok(None),
            Err(err) => return Err(err),
        }
    }
    compiles.sort();
    let mut looped = manager.load_compiled(spec, tech, Tier::Loop)?;
    Ok(Some(CompileCost {
        compile: compiles[COMPILE_LOADS / 2],
        loop_ns: per_invoke(&mut looped)?,
        jit_ns,
        inlined,
        pinned,
    }))
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Technology measured.
    pub tech: Technology,
    /// Time per `select_victim` invocation.
    pub sample: Sample,
    /// Normalized to unsafe compiled C (the paper's second line). This
    /// isolates the *checking tax*: both run on the same translated
    /// dispatch loop.
    pub normalized: f64,
    /// Normalized to the hand-compiled native row. Because the paper's
    /// C baseline was true native code, this is the column to compare
    /// against its Java and Tcl ratios (the *interpretation tax*).
    pub vs_native: f64,
    /// Break-even against the hard page-fault time.
    pub break_even: f64,
    /// True when the row used the reduced script iteration count.
    pub reduced_iters: bool,
    /// Machine-code compile cost (compiled rows on hosts with a code
    /// generator).
    pub compile: Option<CompileCost>,
}

/// Table 2: the VM page-eviction graft.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows, in [`ROW_ORDER`].
    pub rows: Vec<Table2Row>,
    /// The fault time used for break-even.
    pub fault: Duration,
    /// The model application's saves: one per this many invocations.
    pub invocations_per_save: f64,
}

impl Table2 {
    /// The row for a technology.
    pub fn row(&self, tech: Technology) -> Option<&Table2Row> {
        self.rows.iter().find(|r| r.tech == tech)
    }
}

/// Runs the Table 2 experiment.
pub fn table2(cfg: &RunConfig, fault: Duration) -> Result<Table2, GraftError> {
    // Span-timed so the run artifact shows per-table wall-clock.
    let _span = graft_telemetry::span!("table2_eviction");
    let spec = eviction::spec();
    let scenario = eviction::Scenario::paper_default(42);
    let manager = GraftManager::new();
    let mut rows = Vec::new();
    for tech in ROW_ORDER {
        let reduced = tech == Technology::Script;
        let iters = if reduced {
            cfg.script_evict_iters
        } else if tech == Technology::UserLevel {
            // Every invocation crosses the upcall boundary (~50µs);
            // full-scale counts would take minutes without changing the
            // answer.
            (cfg.evict_iters / 10).max(100)
        } else {
            cfg.evict_iters
        };
        // Two-phase ABI: resolve the entry name once at load time; the
        // measured loop runs entirely on the pre-bound handle.
        let time = |engine: &mut dyn ExtensionEngine| -> Result<Sample, GraftError> {
            let (lru, hot) = scenario.marshal(engine)?;
            let victim = engine.bind_entry("select_victim")?;
            // Sanity before timing: the graft must answer correctly.
            let got = engine.invoke_id(victim, &[lru, hot])?;
            debug_assert_eq!(got, scenario.reference_victim() as i64);
            Ok(measure_per_iter(cfg.runs, iters, || {
                let _ = engine.invoke_id(victim, &[lru, hot]);
            }))
        };
        let sample = time(manager.load(&spec, tech)?.as_mut())?;
        let compile = compile_cost(&manager, &spec, tech, sample.best_ns(), |e| {
            time(e).map(|s| s.best_ns())
        })?;
        rows.push(Table2Row {
            tech,
            sample,
            normalized: 0.0,
            vs_native: 0.0,
            break_even: break_even(fault, duration_of(&sample)),
            reduced_iters: reduced,
            compile,
        });
    }
    let c_ns = rows
        .iter()
        .find(|r| r.tech == Technology::CompiledUnchecked)
        .expect("C row present")
        .sample
        .best_ns();
    let native_ns = rows
        .iter()
        .find(|r| r.tech == Technology::RustNative)
        .expect("native row present")
        .sample
        .best_ns();
    for row in &mut rows {
        row.normalized = row.sample.best_ns() / c_ns;
        row.vs_native = row.sample.best_ns() / native_ns;
    }
    let model = kernsim::btree::BtreeModel::default();
    Ok(Table2 {
        rows,
        fault,
        invocations_per_save: 1.0 / model.hot_probability(64),
    })
}

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Technology measured.
    pub tech: Technology,
    /// Time to fingerprint 1 MB (extrapolated for reduced rows).
    pub per_mb: Duration,
    /// Raw sample over the actual workload size.
    pub sample: Sample,
    /// Normalized to unsafe compiled C (checking tax).
    pub normalized: f64,
    /// Normalized to the native row (interpretation tax; the paper's
    /// basis).
    pub vs_native: f64,
    /// MD5-time / disk-1MB-time: below 1 means the fingerprint hides
    /// inside I/O time.
    pub md5_over_disk: f64,
    /// Bytes actually hashed (differs from 1 MB for reduced rows).
    pub bytes: usize,
    /// Machine-code compile cost, per graft invocation of a
    /// fingerprint (see [`md5_graft::invocations`]).
    pub compile: Option<CompileCost>,
}

/// Table 5: MD5 fingerprinting.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Rows, in [`ROW_ORDER`].
    pub rows: Vec<Table5Row>,
    /// The 1 MB disk access time used as denominator.
    pub disk_mb: Duration,
}

impl Table5 {
    /// The row for a technology.
    pub fn row(&self, tech: Technology) -> Option<&Table5Row> {
        self.rows.iter().find(|r| r.tech == tech)
    }
}

/// Runs the Table 5 experiment.
pub fn table5(cfg: &RunConfig, disk_mb: Duration) -> Result<Table5, GraftError> {
    let _span = graft_telemetry::span!("table5_md5");
    let spec = md5_graft::spec();
    let manager = GraftManager::new();
    let mut rows = Vec::new();
    for tech in ROW_ORDER {
        let bytes = if tech == Technology::Script {
            cfg.script_md5_bytes
        } else {
            cfg.md5_bytes
        };
        let data = md5_workload(bytes);
        let runs = if tech == Technology::Script {
            cfg.runs.min(3)
        } else {
            cfg.runs.min(10)
        };
        let time = |engine: &mut dyn ExtensionEngine| -> Result<Sample, GraftError> {
            // Correctness before timing.
            let digest = md5_graft::digest_via(engine, &data)?;
            assert_eq!(
                digest,
                graft_md5::digest(&data),
                "{tech} computes a wrong fingerprint"
            );
            Ok(measure(runs, || {
                let _ = md5_graft::digest_via(engine, &data);
            }))
        };
        let sample = time(manager.load(&spec, tech)?.as_mut())?;
        let calls = md5_graft::invocations(bytes) as f64;
        let compile = compile_cost(&manager, &spec, tech, sample.best_ns() / calls, |e| {
            time(e).map(|s| s.best_ns() / calls)
        })?;
        let scale = (1 << 20) as f64 / bytes as f64;
        let per_mb = Duration::from_nanos((sample.best_ns() * scale) as u64);
        rows.push(Table5Row {
            tech,
            per_mb,
            sample,
            normalized: 0.0,
            vs_native: 0.0,
            md5_over_disk: per_mb.as_secs_f64() / disk_mb.as_secs_f64(),
            bytes,
            compile,
        });
    }
    let c_ns = rows
        .iter()
        .find(|r| r.tech == Technology::CompiledUnchecked)
        .expect("C row present")
        .per_mb
        .as_nanos() as f64;
    let native_ns = rows
        .iter()
        .find(|r| r.tech == Technology::RustNative)
        .expect("native row present")
        .per_mb
        .as_nanos() as f64;
    for row in &mut rows {
        row.normalized = row.per_mb.as_nanos() as f64 / c_ns;
        row.vs_native = row.per_mb.as_nanos() as f64 / native_ns;
    }
    Ok(Table5 { rows, disk_mb })
}

/// One row of Table 6.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Technology measured.
    pub tech: Technology,
    /// Total bookkeeping time for the whole write stream.
    pub total: Sample,
    /// Normalized to unsafe compiled C (checking tax).
    pub normalized: f64,
    /// Normalized to the native row (interpretation tax).
    pub vs_native: f64,
    /// Per-block overhead — what each write must save to break even.
    pub per_block: Duration,
    /// Whether batching savings (from the disk model) exceed the
    /// overhead.
    pub pays_off: bool,
}

/// The same write stream served by the adaptive sharded plane: keyed
/// submission through `ShardedHost::enqueue` (home shard by block,
/// diversion and stealing on), so Table 6 exercises the data plane the
/// graft server runs on rather than pre-balanced per-shard slices.
#[derive(Debug, Clone)]
pub struct Table6Sharded {
    /// Worker shards in the host.
    pub shards: usize,
    /// Technology on every shard.
    pub tech: Technology,
    /// Critical path (slowest shard) over the whole stream.
    pub total: Sample,
    /// Critical path divided by writes.
    pub per_block: Duration,
    /// Writes per millisecond on the critical path, best run.
    pub throughput_m: f64,
    /// Items accepted by the plane (must equal the write count).
    pub enqueued: u64,
    /// Items transferred by steals.
    pub steals: u64,
    /// Items placed away from their home shard at submit time.
    pub diverted: u64,
}

/// Table 6: Logical Disk bookkeeping.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Rows (no script row, as in the paper).
    pub rows: Vec<Table6Row>,
    /// Writes per run.
    pub writes: usize,
    /// Per-block time batching saves under the disk model.
    pub saving_per_block: Duration,
    /// The write stream re-served through the adaptive sharded plane.
    pub sharded: Table6Sharded,
}

impl Table6 {
    /// The row for a technology.
    pub fn row(&self, tech: Technology) -> Option<&Table6Row> {
        self.rows.iter().find(|r| r.tech == tech)
    }
}

/// Runs the Table 6 experiment.
pub fn table6(cfg: &RunConfig, model: &DiskModel) -> Result<Table6, GraftError> {
    let _span = graft_telemetry::span!("table6_logdisk");
    let spec = ld_graft::spec_sized(cfg.ld_blocks);
    let manager = GraftManager::new();
    let writes: Vec<i64> = logdisk::workload::skewed(cfg.ld_blocks, cfg.ld_writes as u64, 42)
        .map(|w| w as i64)
        .collect();
    let mut rows = Vec::new();
    for tech in ROW_ORDER {
        if tech == Technology::Script {
            continue; // the paper took no Tcl measurements here
        }
        let mut engine = manager.load(&spec, tech)?;
        let ld_write = engine.bind_entry("ld_write")?;
        // Batching is now part of the measured workload itself: the
        // write stream goes through `invoke_batch` in UPCALL_BATCH-call
        // chunks. In-process engines loop over `invoke_id` (the default
        // impl), while the user-level row amortizes one upcall
        // rendezvous over the whole chunk — the Logical-Disk batching
        // argument applied at the ABI layer.
        let runs = if tech == Technology::UserLevel {
            cfg.runs.min(2)
        } else {
            cfg.runs.min(10)
        };
        let mut samples = Vec::with_capacity(runs);
        let mut results = Vec::with_capacity(UPCALL_BATCH);
        for _ in 0..runs {
            ld_graft::init_map(engine.as_mut(), cfg.ld_blocks)?;
            let start = std::time::Instant::now();
            for chunk in writes.chunks(UPCALL_BATCH) {
                results.clear();
                engine.invoke_batch(ld_write, chunk.len(), chunk, &mut results)?;
            }
            samples.push(start.elapsed());
        }
        let total = Sample::from_runs(&samples);
        let per_block = Duration::from_nanos((total.best_ns() / writes.len() as f64) as u64);
        rows.push(Table6Row {
            tech,
            total,
            normalized: 0.0,
            vs_native: 0.0,
            per_block,
            pays_off: per_block < model.batching_saving_per_block(),
        });
    }
    let c_ns = rows
        .iter()
        .find(|r| r.tech == Technology::CompiledUnchecked)
        .expect("C row present")
        .total
        .best_ns();
    let native_ns = rows
        .iter()
        .find(|r| r.tech == Technology::RustNative)
        .expect("native row present")
        .total
        .best_ns();
    for row in &mut rows {
        row.normalized = row.total.best_ns() / c_ns;
        row.vs_native = row.total.best_ns() / native_ns;
    }
    let sharded = table6_sharded(cfg, &manager, &writes)?;
    Ok(Table6 {
        rows,
        writes: writes.len(),
        saving_per_block: model.batching_saving_per_block(),
        sharded,
    })
}

/// Shards the host the ROADMAP way: the same skewed write stream,
/// submitted keyed-by-block through `ShardedHost::enqueue` in bounded
/// waves and drained through the stealing plane, shard at a time, so
/// the table's sharded figure prices the adaptive data plane
/// end-to-end (as Table 11's server does) instead of hand-balanced
/// slices.
fn table6_sharded(
    cfg: &RunConfig,
    manager: &GraftManager,
    writes: &[i64],
) -> Result<Table6Sharded, GraftError> {
    const T6_SHARDS: usize = 4;
    let spec = ld_graft::spec_sized(cfg.ld_blocks);
    let engine = manager.load(&spec, Technology::RustNative)?;
    let mut host = ShardedHost::new(T6_SHARDS);
    let id = host.install(AttachPoint::DiskWrite, "t6", engine)?;
    let mut handles = host.take_handles();

    let runs = cfg.runs.clamp(1, 3);
    let mut criticals = Vec::with_capacity(runs);
    let mut stats = graft_kernel::QueueStats::default();
    for _ in 0..runs {
        let q = host.run_queues::<i64>(StealPolicy::default());
        let mut busy = vec![Duration::ZERO; T6_SHARDS];
        let (mut submitted, mut processed) = (0usize, 0usize);
        let mut pending: Option<i64> = None;
        let mut start = 0usize;
        let wave = T6_SHARDS * 16;
        while processed < writes.len() {
            let mut sent = 0usize;
            while submitted < writes.len() && sent < wave {
                let w = pending.take().unwrap_or(writes[submitted]);
                match host.enqueue(&q, w as u64, Some(id), w) {
                    Ok(_) => {
                        submitted += 1;
                        sent += 1;
                    }
                    Err(rejected) => {
                        pending = Some(rejected);
                        break;
                    }
                }
            }
            for i in 0..T6_SHARDS {
                let s = (start + i) % T6_SHARDS;
                let t = Instant::now();
                let k = handles[s].drain_queue(&q, AttachPoint::DiskWrite, |&w, args| args.push(w));
                if k > 0 {
                    busy[s] += t.elapsed();
                    processed += k;
                }
            }
            start = (start + 1) % T6_SHARDS;
        }
        criticals.push(busy.into_iter().max().unwrap_or(Duration::ZERO));
        stats = q.stats();
    }
    drop(handles);

    let total = Sample::from_runs(&criticals);
    Ok(Table6Sharded {
        shards: T6_SHARDS,
        tech: Technology::RustNative,
        per_block: Duration::from_nanos((total.best_ns() / writes.len() as f64) as u64),
        throughput_m: writes.len() as f64 * 1e3 / total.best_ns(),
        total,
        enqueued: stats.enqueued,
        steals: stats.steals,
        diverted: stats.diverted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            runs: 2,
            evict_iters: 50,
            script_evict_iters: 5,
            md5_bytes: 256,
            script_md5_bytes: 128,
            ld_writes: 256,
            ld_blocks: 256,
            live: false,
            faults: None,
        }
    }

    #[test]
    fn table2_orders_technologies_as_the_paper_found() {
        let t = table2(&tiny(), Duration::from_millis(13)).unwrap();
        assert_eq!(t.rows.len(), ROW_ORDER.len());
        let c = t.row(Technology::CompiledUnchecked).unwrap();
        assert!((c.normalized - 1.0).abs() < 1e-9);
        let script = t.row(Technology::Script).unwrap();
        let bytecode = t.row(Technology::Bytecode).unwrap();
        assert!(
            script.normalized > bytecode.normalized,
            "script {} must be slower than bytecode {}",
            script.normalized,
            bytecode.normalized
        );
        assert!(bytecode.normalized > c.normalized);
        // The 1-in-781 save rate comes from the B-tree model.
        assert!((700.0..900.0).contains(&t.invocations_per_save));
    }

    #[test]
    fn table5_validates_fingerprints_and_normalizes() {
        let t = table5(&tiny(), Duration::from_millis(333)).unwrap();
        let c = t.row(Technology::CompiledUnchecked).unwrap();
        assert!((c.normalized - 1.0).abs() < 1e-9);
        let native = t.row(Technology::RustNative).unwrap();
        assert!(native.normalized <= 1.1, "native should not lose to C");
        for row in &t.rows {
            assert!(row.per_mb.as_nanos() > 0);
        }
    }

    #[test]
    fn table6_skips_script_and_computes_per_block() {
        let t = table6(&tiny(), &DiskModel::default()).unwrap();
        assert!(t.row(Technology::Script).is_none());
        assert_eq!(t.rows.len(), ROW_ORDER.len() - 1);
        let c = t.row(Technology::CompiledUnchecked).unwrap();
        assert!(c.per_block.as_nanos() > 0);
        // Compiled bookkeeping is far below the ~12 ms batching saving.
        assert!(c.pays_off);
        assert!(t.saving_per_block > Duration::from_millis(5));
    }

    #[test]
    fn table6_sharded_plane_runs_every_write_through_the_queues() {
        let t = table6(&tiny(), &DiskModel::default()).unwrap();
        let s = &t.sharded;
        assert_eq!(s.shards, 4);
        assert_eq!(s.tech, Technology::RustNative);
        assert_eq!(s.enqueued, t.writes as u64, "writes bypassed the queues");
        assert!(s.per_block.as_nanos() > 0);
        assert!(s.throughput_m > 0.0);
    }
}
