//! The machine-readable run artifact (`--json`).
//!
//! A [`RunArtifact`] freezes one experiment run — host facts, the
//! [`RunConfig`] it ran under, every table and figure as structured
//! rows, a flattened index of every timing sample, the full telemetry
//! [`MetricsSnapshot`], and the wall-clock cost of producing it all —
//! into a deterministic JSON document. Two artifacts from different
//! commits (or different hosts) can then be compared mechanically by
//! `graftstat` instead of by eyeballing table printouts.
//!
//! The schema is versioned ([`SCHEMA`]) and serialization is key-sorted
//! (see [`graft_telemetry::json`]), so artifact diffs are stable.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use graft_telemetry::json::{self, Json};
use graft_telemetry::MetricsSnapshot;
use kernsim::stats::Sample;

use crate::experiment::{
    CompileCost, Figure1, RunConfig, Table1, Table11, Table12, Table13, Table14, Table2, Table3,
    Table4, Table5, Table6, Table7, Table9,
};
use crate::gate::{gates_json, Gate};

/// Schema identifier embedded in every artifact.
pub const SCHEMA: &str = "graft-run-artifact/v1";

/// One run's worth of results, ready to serialize.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// Host facts: os, arch, cores, CPU model, build profile, telemetry
    /// state.
    pub host: Json,
    /// The configuration the run used.
    pub config: RunConfig,
    /// Table/figure name → structured result rows.
    pub tables: BTreeMap<String, Json>,
    /// Flattened `table/row/...` → timing-sample index (see
    /// [`RunArtifact::add_table`]); the uniform surface `graftstat`
    /// diffs.
    pub samples: BTreeMap<String, Json>,
    /// The telemetry snapshot taken at [`RunArtifact::finish`].
    pub metrics: Json,
    /// Wall-clock time from [`RunArtifact::begin`] to
    /// [`RunArtifact::finish`].
    pub wall_clock: Duration,
    started: Option<Instant>,
}

/// Captures the host facts an artifact records.
fn host_json() -> Json {
    let mut host = Json::object();
    host.set("os", std::env::consts::OS)
        .set("arch", std::env::consts::ARCH)
        .set(
            "cores",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
        .set(
            "profile",
            if cfg!(debug_assertions) { "debug" } else { "release" },
        )
        .set("telemetry", graft_telemetry::enabled())
        .set("checksum_kernel", logdisk::checksum::kernel())
        .set("cpu_model", cpu_model());
    host
}

/// The CPU's `model name` from /proc/cpuinfo, or `"unknown"` where there
/// is none (another OS, a hidden /proc).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.trim() == "model name")
                .map(|(_, v)| v.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl RunArtifact {
    /// Starts an artifact: captures host facts and the wall clock.
    pub fn begin(config: &RunConfig) -> Self {
        RunArtifact {
            host: host_json(),
            config: *config,
            tables: BTreeMap::new(),
            samples: BTreeMap::new(),
            metrics: Json::object(),
            wall_clock: Duration::ZERO,
            started: Some(Instant::now()),
        }
    }

    /// Adds one table/figure result and indexes every timing sample in
    /// it under `table/row-path` keys.
    ///
    /// The sample scan is structural: any nested object carrying both
    /// `mean_ns` and `runs` is a [`Sample`]. Path components come from
    /// object keys; rows (array elements) contribute their `tech` name
    /// when they have one, their index otherwise. A table's `gates`
    /// array is verdict data, not timing, and is skipped.
    pub fn add_table(&mut self, name: &str, table: Json) {
        collect_samples(name, &table, &mut self.samples);
        self.tables.insert(name.to_string(), table);
    }

    /// Seals the artifact: records wall clock and the metrics snapshot.
    pub fn finish(&mut self, metrics: &MetricsSnapshot) {
        self.wall_clock = self.started.map(|t| t.elapsed()).unwrap_or_default();
        self.metrics = metrics_json(metrics);
    }

    /// The complete JSON document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.set("schema", SCHEMA)
            .set("host", self.host.clone())
            .set("config", config_json(&self.config))
            .set("tables", Json::Obj(self.tables.clone()))
            .set("samples", Json::Obj(self.samples.clone()))
            .set("metrics", self.metrics.clone())
            .set("wall_clock_ns", self.wall_clock.as_nanos().min(u64::MAX as u128) as u64);
        doc
    }

    /// Pretty-printed document, what `--json <path>` writes.
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Writes the artifact to a file.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_pretty_string())
    }

    /// Parses an artifact back from JSON text (as written by
    /// [`RunArtifact::to_pretty_string`]).
    pub fn from_json_str(text: &str) -> Result<RunArtifact, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
        }
        let tables = doc
            .get("tables")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("missing `tables`")?;
        let samples = doc
            .get("samples")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("missing `samples`")?;
        Ok(RunArtifact {
            host: doc.get("host").cloned().unwrap_or_else(Json::object),
            config: config_from_json(doc.get("config").ok_or("missing `config`")?)?,
            tables,
            samples,
            metrics: doc.get("metrics").cloned().unwrap_or_else(Json::object),
            wall_clock: Duration::from_nanos(
                doc.get("wall_clock_ns").and_then(Json::as_u64).unwrap_or(0),
            ),
            started: None,
        })
    }

    /// The `min_ns` (robust estimate) of an indexed sample.
    pub fn sample_best_ns(&self, key: &str) -> Option<f64> {
        self.samples.get(key)?.get("min_ns")?.as_f64()
    }

    /// The value of a recorded counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .get_path("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// Every gate in the run as `(table, gate)`, in table order; a
    /// malformed gate record is an error naming its table.
    pub fn gates(&self) -> Vec<(&str, Result<Gate, String>)> {
        let mut out = Vec::new();
        for (table, doc) in &self.tables {
            let Some(gates) = doc.get("gates") else {
                continue;
            };
            match gates.as_arr() {
                Some(arr) => out.extend(arr.iter().map(|g| (table.as_str(), Gate::from_json(g)))),
                None => out.push((table.as_str(), Err("`gates` is not an array".to_string()))),
            }
        }
        out
    }

    /// Number of counters/histograms that recorded data.
    pub fn distinct_metrics(&self) -> usize {
        let counters = self
            .metrics
            .get("counters")
            .and_then(Json::as_obj)
            .map(|m| m.values().filter(|v| v.as_u64().unwrap_or(0) > 0).count())
            .unwrap_or(0);
        let histograms = self
            .metrics
            .get("histograms")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter(|h| h.get("count").and_then(Json::as_u64).unwrap_or(0) > 0)
                    .count()
            })
            .unwrap_or(0);
        counters + histograms
    }
}

/// Walks `node`, indexing every [`Sample`]-shaped object under
/// slash-joined paths into `out`.
fn collect_samples(path: &str, node: &Json, out: &mut BTreeMap<String, Json>) {
    match node {
        Json::Obj(map) => {
            if map.contains_key("mean_ns") && map.contains_key("runs") {
                out.insert(path.to_string(), node.clone());
                return;
            }
            for (k, v) in map.iter().filter(|(k, _)| k.as_str() != "gates") {
                collect_samples(&format!("{path}/{k}"), v, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let label = item
                    .get("tech")
                    .and_then(Json::as_str)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| i.to_string());
                collect_samples(&format!("{path}/{label}"), item, out);
            }
        }
        _ => {}
    }
}

/// A [`Sample`] as JSON.
pub fn sample_json(s: &Sample) -> Json {
    let mut obj = Json::object();
    obj.set("mean_ns", s.mean_ns)
        .set("std_pct", s.std_pct)
        .set("min_ns", s.min_ns)
        .set("median_ns", s.median_ns)
        .set("runs", s.runs);
    obj
}

fn dur_ns(d: Duration) -> Json {
    Json::from(d.as_nanos().min(u64::MAX as u128) as u64)
}

/// [`RunConfig`] as JSON.
pub fn config_json(c: &RunConfig) -> Json {
    let mut obj = Json::object();
    obj.set("runs", c.runs)
        .set("evict_iters", c.evict_iters)
        .set("script_evict_iters", c.script_evict_iters)
        .set("md5_bytes", c.md5_bytes)
        .set("script_md5_bytes", c.script_md5_bytes)
        .set("ld_writes", c.ld_writes)
        .set("ld_blocks", c.ld_blocks)
        .set("live", c.live);
    // The fault plan is optional *on disk* too: clean-run artifacts
    // (and every artifact committed before fault injection existed)
    // simply omit the key.
    if let Some(p) = &c.faults {
        let mut plan = Json::object();
        plan.set("seed", p.seed)
            .set("io_error_permille", u64::from(p.io_error_permille))
            .set("torn_permille", u64::from(p.torn_permille))
            .set("bitrot_permille", u64::from(p.bitrot_permille))
            .set("max_retries", u64::from(p.max_retries));
        if let Some(n) = p.crash_after_ios {
            plan.set("crash_after_ios", n);
        }
        obj.set("faults", plan);
    }
    obj
}

fn config_from_json(j: &Json) -> Result<RunConfig, String> {
    let field = |name: &str| -> Result<u64, String> {
        j.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("config missing `{name}`"))
    };
    Ok(RunConfig {
        runs: field("runs")? as usize,
        evict_iters: field("evict_iters")? as usize,
        script_evict_iters: field("script_evict_iters")? as usize,
        md5_bytes: field("md5_bytes")? as usize,
        script_md5_bytes: field("script_md5_bytes")? as usize,
        ld_writes: field("ld_writes")? as usize,
        ld_blocks: field("ld_blocks")? as usize,
        live: j
            .get("live")
            .and_then(Json::as_bool)
            .ok_or("config missing `live`")?,
        faults: match j.get("faults") {
            None => None, // pre-fault-injection artifacts omit the key
            Some(p) => {
                let pf = |name: &str| -> Result<u64, String> {
                    p.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("fault plan missing `{name}`"))
                };
                Some(kernsim::FaultPlan {
                    seed: pf("seed")?,
                    io_error_permille: pf("io_error_permille")? as u16,
                    torn_permille: pf("torn_permille")? as u16,
                    // Absent in artifacts committed before bit-rot
                    // injection existed: those plans drew none.
                    bitrot_permille: p
                        .get("bitrot_permille")
                        .and_then(Json::as_u64)
                        .unwrap_or(0) as u16,
                    crash_after_ios: p.get("crash_after_ios").and_then(Json::as_u64),
                    max_retries: pf("max_retries")? as u32,
                })
            }
        },
    })
}

/// Trace events the artifact retains from the global ring: the most
/// recent tail, so `graftstat timeline` works from the artifact alone
/// without committed baselines ballooning.
pub const TRACES_IN_ARTIFACT: usize = 256;

/// [`MetricsSnapshot`] as JSON: counters object, histogram array with
/// derived mean/p50/p90/p99/p999, recent span events, and the tail of
/// the flight-recorder ring (empty unless a run traced).
pub fn metrics_json(m: &MetricsSnapshot) -> Json {
    let mut counters = Json::object();
    for (name, value) in &m.counters {
        counters.set(name, *value);
    }
    let histograms: Vec<Json> = m
        .histograms
        .iter()
        .map(|h| {
            let mut obj = Json::object();
            obj.set("name", h.name.as_str())
                .set("count", h.count)
                .set("sum", h.sum)
                .set("mean", h.mean())
                .set("p50", h.quantile(0.5))
                .set("p90", h.quantile(0.9))
                .set("p99", h.quantile(0.99))
                .set("p999", h.quantile(0.999))
                .set(
                    "buckets",
                    h.buckets
                        .iter()
                        .map(|&(b, n)| Json::Arr(vec![Json::from(b), Json::from(n)]))
                        .collect::<Vec<_>>(),
                );
            obj
        })
        .collect();
    let spans: Vec<Json> = m
        .spans
        .iter()
        .map(|s| {
            let mut obj = Json::object();
            obj.set("name", s.name)
                .set("start_ns", s.start_ns)
                .set("duration_ns", s.duration_ns);
            obj
        })
        .collect();
    let skip = m.traces.len().saturating_sub(TRACES_IN_ARTIFACT);
    let traces: Vec<Json> = m.traces[skip..]
        .iter()
        .map(graft_kernel::postmortem::trace_event_json)
        .collect();
    let mut out = Json::object();
    out.set("counters", counters)
        .set("histograms", histograms)
        .set("spans", spans)
        .set("traces", traces);
    out
}

/// Table 1 as JSON.
pub fn table1_json(t: &Table1) -> Json {
    let mut obj = Json::object();
    match &t.signals {
        Some(s) => {
            let mut sig = Json::object();
            sig.set("handled", sample_json(&s.handled))
                .set("ignored", sample_json(&s.ignored))
                .set("per_signal_us", s.per_signal_us);
            obj.set("signals", sig);
        }
        None => {
            obj.set("signals", Json::Null);
        }
    }
    obj.set("upcall_roundtrip", sample_json(&t.upcall_roundtrip));
    obj.set("upcall_batched", sample_json(&t.upcall_batched));
    obj.set("batch", t.batch);
    obj
}

/// A compiled row's machine-code compile cost, or null.
fn compile_json(cost: Option<&CompileCost>) -> Json {
    let Some(c) = cost else {
        return Json::Null;
    };
    let mut obj = Json::object();
    obj.set("compile_ns", dur_ns(c.compile))
        .set("loop_ns", c.loop_ns)
        .set("jit_ns", c.jit_ns)
        .set("inlined_calls", c.inlined)
        .set("pinned_registers", c.pinned);
    match c.payback() {
        Some(n) => obj.set("payback_invocations", n),
        None => obj.set("payback_invocations", Json::Null),
    };
    obj
}

/// Table 2 as JSON.
pub fn table2_json(t: &Table2) -> Json {
    let rows: Vec<Json> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("tech", r.tech.paper_name())
                .set("sample", sample_json(&r.sample))
                .set("normalized", r.normalized)
                .set("vs_native", r.vs_native)
                .set("break_even", r.break_even)
                .set("reduced_iters", r.reduced_iters)
                .set("compile", compile_json(r.compile.as_ref()));
            row
        })
        .collect();
    let mut obj = Json::object();
    obj.set("rows", rows)
        .set("fault_ns", dur_ns(t.fault))
        .set("invocations_per_save", t.invocations_per_save);
    obj
}

/// Table 3 as JSON.
pub fn table3_json(t: &Table3) -> Json {
    let mut obj = Json::object();
    match &t.soft {
        Some(s) => obj.set("soft", sample_json(s)),
        None => obj.set("soft", Json::Null),
    };
    obj.set(
        "hard",
        t.hard
            .iter()
            .map(|&(pages, d)| {
                let mut row = Json::object();
                row.set("pages", pages).set("time_ns", dur_ns(d));
                row
            })
            .collect::<Vec<_>>(),
    );
    obj
}

/// Table 4 as JSON.
pub fn table4_json(t: &Table4) -> Json {
    let mut obj = Json::object();
    match &t.measured {
        Some(bw) => {
            let mut m = Json::object();
            m.set("bytes_per_sec", bw.bytes_per_sec)
                .set("megabyte_access_ns", dur_ns(bw.megabyte_access()))
                .set("sample", sample_json(&bw.sample));
            obj.set("measured", m)
        }
        None => obj.set("measured", Json::Null),
    };
    let mut model = Json::object();
    model
        .set("bandwidth_bytes_per_sec", t.model.bandwidth)
        .set("avg_seek_ns", dur_ns(t.model.avg_seek))
        .set("avg_rotation_ns", dur_ns(t.model.avg_rotation))
        .set("block_size", t.model.block_size)
        .set("segment_blocks", t.model.segment_blocks)
        .set("megabyte_access_ns", dur_ns(t.model.megabyte_access()));
    obj.set("model", model);
    obj
}

/// Table 5 as JSON.
pub fn table5_json(t: &Table5) -> Json {
    let rows: Vec<Json> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("tech", r.tech.paper_name())
                .set("per_mb_ns", dur_ns(r.per_mb))
                .set("sample", sample_json(&r.sample))
                .set("normalized", r.normalized)
                .set("vs_native", r.vs_native)
                .set("md5_over_disk", r.md5_over_disk)
                .set("bytes", r.bytes)
                .set("compile", compile_json(r.compile.as_ref()));
            row
        })
        .collect();
    let mut obj = Json::object();
    obj.set("rows", rows).set("disk_mb_ns", dur_ns(t.disk_mb));
    obj
}

/// Table 6 as JSON.
pub fn table6_json(t: &Table6) -> Json {
    let rows: Vec<Json> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("tech", r.tech.paper_name())
                .set("sample", sample_json(&r.total))
                .set("normalized", r.normalized)
                .set("vs_native", r.vs_native)
                .set("per_block_ns", dur_ns(r.per_block))
                .set("pays_off", r.pays_off);
            row
        })
        .collect();
    let mut sharded = Json::object();
    sharded
        .set("tech", t.sharded.tech.paper_name())
        .set("shards", t.sharded.shards)
        .set("sample", sample_json(&t.sharded.total))
        .set("per_block_ns", dur_ns(t.sharded.per_block))
        .set("throughput_m", t.sharded.throughput_m)
        .set("enqueued", t.sharded.enqueued)
        .set("steals", t.sharded.steals)
        .set("diverted", t.sharded.diverted);
    let mut obj = Json::object();
    obj.set("rows", rows)
        .set("writes", t.writes)
        .set("saving_per_block_ns", dur_ns(t.saving_per_block))
        .set("sharded", sharded);
    obj
}

/// Table 7 as JSON; `gates` holds [`Table7::gates`].
pub fn table7_json(t: &Table7) -> Json {
    let rows: Vec<Json> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("tech", r.tech.paper_name())
                .set("baseline", sample_json(&r.baseline))
                .set("post", sample_json(&r.post))
                .set("post_over_baseline", r.post_over_baseline)
                .set("quarantined", r.quarantined)
                .set(
                    "quarantined_by",
                    match r.quarantined_by {
                        Some(kind) => Json::from(kind.name()),
                        None => Json::Null,
                    },
                )
                .set("trapped_invocations", r.trapped_invocations)
                .set("quarantine_latency_ns", dur_ns(r.quarantine_latency))
                .set("churn_accesses", r.churn_accesses)
                .set("baseline_invocations", r.baseline_invocations)
                .set("post_invocations", r.post_invocations);
            row
        })
        .collect();
    let mut overhead = Json::object();
    overhead
        .set("direct", sample_json(&t.direct))
        .set("hosted", sample_json(&t.hosted))
        .set("empty_chain", sample_json(&t.empty_chain));
    let mut obj = Json::object();
    obj.set("rows", rows)
        .set("overhead", overhead)
        .set("trap_threshold", t.trap_threshold)
        .set("accesses", t.accesses)
        .set("gates", gates_json(&t.gates()));
    obj
}

/// Table 9 as JSON. Each row's `snapshot`/`salvage_detach`/`restore`
/// samples land in the flattened index; `gates` holds
/// [`Table9::gates`].
pub fn table9_json(t: &Table9) -> Json {
    let rows: Vec<Json> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("tech", r.tech.paper_name())
                .set("snapshot", sample_json(&r.snapshot))
                .set("salvage_detach", sample_json(&r.salvage_detach))
                .set("restore", sample_json(&r.restore))
                .set("recovery_ns", dur_ns(r.recovery))
                .set("salvaged_words", r.salvaged_words)
                .set("lost_mappings", r.lost_mappings)
                .set("post_over_base", r.post_over_base)
                .set("populated", r.populated);
            row
        })
        .collect();
    let mut crash = Json::object();
    crash
        .set("crash_after_ios", t.crash.crash_after_ios)
        .set("rebuild", sample_json(&t.crash.rebuild))
        .set("time_to_recovery_ns", dur_ns(t.crash.time_to_recovery))
        .set("replayed", t.crash.replayed)
        .set("redone", t.crash.redone)
        .set("lost_mappings", t.crash.lost_mappings)
        .set("ios", t.crash.faults.ios)
        .set("injected", t.crash.faults.injected)
        .set("retries", t.crash.faults.retries)
        .set("torn_writes", t.crash.faults.torn_writes)
        .set("exhausted", t.crash.faults.exhausted)
        .set("crashes", t.crash.faults.crashes);
    let mut plan = Json::object();
    plan.set("seed", t.plan.seed)
        .set("io_error_permille", u64::from(t.plan.io_error_permille))
        .set("torn_permille", u64::from(t.plan.torn_permille))
        .set("max_retries", u64::from(t.plan.max_retries));
    let mut obj = Json::object();
    obj.set("rows", rows)
        .set("crash", crash)
        .set("plan", plan)
        .set("writes", t.writes)
        .set("blocks", t.blocks)
        .set("runs", t.runs)
        .set("gates", gates_json(&t.gates()));
    obj
}

/// Table 14 as JSON. Each row's `adopt` sample and every curve point's
/// `restore` sample land in the flattened index; the drill objects
/// carry the full detection ledger; `gates` holds [`Table14::gates`].
pub fn table14_json(t: &Table14) -> Json {
    let rows: Vec<Json> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("tech", r.tech.paper_name())
                .set("adopt", sample_json(&r.adopt))
                .set("verified_lookups", r.verified_lookups)
                .set("lookup_mismatches", r.lookup_mismatches)
                .set("post_over_base", r.post_over_base);
            row
        })
        .collect();
    let curve: Vec<Json> = t
        .restore_curve
        .iter()
        .map(|p| {
            let mut point = Json::object();
            point
                .set("distance", p.distance)
                .set("lsn", p.lsn)
                .set("restore", sample_json(&p.restore))
                .set("mappings", p.mappings);
            if let Some((audit, replay)) = p.split {
                point.set("audit_ns", audit).set("replay_ns", replay);
            }
            point
        })
        .collect();
    let drills: Vec<Json> = t
        .drills
        .iter()
        .map(|d| {
            let mut drill = Json::object();
            drill
                .set("seed", d.seed)
                .set("injected", d.injected)
                .set("corrupted", d.corrupted)
                .set("detected", d.detected)
                .set("undetected_by_design", d.undetected_by_design)
                .set("redone", d.redone)
                .set("silent_wrong_map", d.silent_wrong_map)
                .set("recovery_ns", dur_ns(d.recovery))
                .set("detection_rate", d.detection_rate())
                .set("bitrot", d.faults.bitrot)
                .set("ios", d.faults.ios);
            drill
        })
        .collect();
    let mut scrub = Json::object();
    scrub
        .set("segments", t.scrub.segments)
        .set("entries", t.scrub.entries)
        .set("scrub", sample_json(&t.scrub.scrub))
        .set("throughput_m", t.scrub.throughput_m);
    let mut plan = Json::object();
    plan.set("seed", t.plan.seed)
        .set("bitrot_permille", u64::from(t.plan.bitrot_permille))
        .set("max_retries", u64::from(t.plan.max_retries));
    let mut obj = Json::object();
    obj.set("rows", rows)
        .set("restore_curve", curve)
        .set("scrub", scrub)
        .set("drills", drills)
        .set("plan", plan)
        .set("writes", t.writes)
        .set("blocks", t.blocks)
        .set("retention_window", t.retention_window)
        .set("retention_pass", sample_json(&t.retention_pass))
        .set("pruned_entries", t.pruned_entries)
        .set("retained_entries", t.retained_entries)
        .set("restore_divergence", t.restore_divergence)
        .set("runs", t.runs)
        .set("gates", gates_json(&t.gates()));
    obj
}

/// Table 12 as JSON. Each row's `off`/`gated`/`recording` samples land
/// in the flattened index; the drill object embeds both
/// [`PostmortemReport`]s — the machine-readable surface `graftstat
/// postmortem` renders; `gates` holds [`Table12::gates`].
///
/// [`PostmortemReport`]: graft_kernel::PostmortemReport
pub fn table12_json(t: &Table12) -> Json {
    let rows: Vec<Json> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("tech", r.tech.paper_name())
                .set("off", sample_json(&r.off))
                .set("gated", sample_json(&r.gated))
                .set("recording", sample_json(&r.recording))
                .set("gated_overhead_pct", r.gated_overhead_pct)
                .set("recording_overhead_pct", r.recording_overhead_pct);
            row
        })
        .collect();
    let d = &t.drill;
    let pm_json = |pm: &Option<graft_kernel::PostmortemReport>| match pm {
        Some(p) => p.to_json(),
        None => Json::Null,
    };
    let mut drill = Json::object();
    drill
        .set("tech", d.tech.paper_name())
        .set("seed", d.seed)
        .set("trap_threshold", d.trap_threshold)
        .set("shards", d.shards)
        .set("traced", d.traced)
        .set("one_shard_trapped", d.one_shard_trapped)
        .set("sharded_trapped", d.sharded_trapped)
        .set("one_shard_events", d.one_shard_events)
        .set("sharded_events", d.sharded_events)
        .set("tails_match", d.tails_match)
        .set("one_shard_postmortem", pm_json(&d.one_shard))
        .set("sharded_postmortem", pm_json(&d.sharded));
    let mut obj = Json::object();
    obj.set("rows", rows)
        .set("drill", drill)
        .set("runs", t.runs)
        .set("gates", gates_json(&t.gates()));
    obj
}

/// Table 13 as JSON. Rows are labeled `tech@skew` so every
/// (technology, skew) pair lands under a distinct path in the
/// flattened sample index; each cell carries both dispatch-plane modes
/// side by side; `gates` holds [`Table13::gates`].
pub fn table13_json(t: &Table13) -> Json {
    let mode_json = |m: &crate::experiment::ModeResult| {
        let mut mode = Json::object();
        mode.set("per_access", sample_json(&m.per_access))
            .set("throughput_m", m.throughput_m)
            .set("imbalance_pct", m.imbalance_pct)
            .set("steals", m.steals)
            .set("steal_fail", m.steal_fail)
            .set("diverted", m.diverted);
        mode
    };
    let rows: Vec<Json> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("tech", format!("{}@{}", r.tech.paper_name(), r.skew.name()))
                .set("skew", r.skew.name());
            for c in &r.cells {
                let mut cell = Json::object();
                cell.set("shards", c.shards)
                    .set("static", mode_json(&c.static_))
                    .set("steal", mode_json(&c.steal))
                    .set("speedup", c.speedup());
                row.set(&format!("s{}", c.shards), cell);
            }
            row
        })
        .collect();
    let mut obj = Json::object();
    obj.set("rows", rows)
        .set(
            "ladder",
            t.ladder.iter().map(|&s| Json::from(s as u64)).collect::<Vec<_>>(),
        )
        .set("runs", t.runs)
        .set("gates", gates_json(&t.gates()));
    obj
}

/// Table 11 as JSON. Rows are labeled `tech@arrival` so every
/// (technology, arrival) pair lands under a distinct path in the
/// flattened sample index; each cell carries the per-request sample
/// plus the latency percentiles and plane counters, the drill object
/// carries the noisy-neighbor verdicts, and `gates` holds
/// [`Table11::gates`].
pub fn table11_json(t: &Table11) -> Json {
    let rows: Vec<Json> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set(
                "tech",
                format!("{}@{}", r.tech.paper_name(), r.arrival.name()),
            )
            .set("arrival", r.arrival.name());
            for c in &r.cells {
                let s = &c.service;
                let mut cell = Json::object();
                cell.set("shards", c.shards)
                    .set("per_request", sample_json(&s.per_request))
                    .set("throughput_krps", s.throughput_krps)
                    .set("p50_ns", s.p50_ns)
                    .set("p99_ns", s.p99_ns)
                    .set("p999_ns", s.p999_ns)
                    .set("served", s.served)
                    .set("rejected", s.rejected)
                    .set("distinct_tenants", s.distinct_tenants)
                    .set("steals", s.steals)
                    .set("diverted", s.diverted)
                    .set("serial_frac", s.serial_frac)
                    .set("churned", s.churned)
                    .set("slowloris", s.slowloris);
                row.set(&format!("s{}", c.shards), cell);
            }
            row
        })
        .collect();
    let d = &t.drill;
    let mut drill = Json::object();
    drill
        .set("shards", d.shards)
        .set("victims", d.victims)
        .set("per_victim", d.per_victim)
        .set("quiet_p99_ns", d.quiet_p99_ns)
        .set("noisy_p99_ns", d.noisy_p99_ns)
        .set("victim_p99_ratio", d.victim_p99_ratio)
        .set("saboteur_quarantined", d.saboteur_quarantined)
        .set("saboteur_rejections", d.saboteur_rejections)
        .set("victim_served", d.victim_served);
    let mut obj = Json::object();
    obj.set("rows", rows)
        .set(
            "ladder",
            t.ladder.iter().map(|&s| Json::from(s as u64)).collect::<Vec<_>>(),
        )
        .set("tenants", t.tenants)
        .set("conns", t.conns)
        .set("requests", t.requests)
        .set("leaked", t.leaked)
        .set("drill", drill)
        .set("runs", t.runs)
        .set("gates", gates_json(&t.gates()));
    obj
}

/// Figure 1 as JSON.
pub fn figure1_json(f: &Figure1) -> Json {
    let series: Vec<Json> = f
        .series
        .iter()
        .map(|p| {
            let mut pt = Json::object();
            pt.set("upcall_ns", dur_ns(p.upcall))
                .set("user_level_break_even", p.user_level_break_even);
            pt
        })
        .collect();
    let mut obj = Json::object();
    obj.set("series", series)
        .set("safe_line", f.safe_line)
        .set("sfi_line", f.sfi_line)
        .set("bytecode_line", f.bytecode_line);
    match f.competitive_upcall {
        Some(d) => obj.set("competitive_upcall_ns", dur_ns(d)),
        None => obj.set("competitive_upcall_ns", Json::Null),
    };
    match f.measured_upcall {
        Some(d) => obj.set("measured_upcall_ns", dur_ns(d)),
        None => obj.set("measured_upcall_ns", Json::Null),
    };
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{figure1, table2, table3, table4, table5, table6, table7};
    use kernsim::DiskModel;

    fn tiny() -> RunConfig {
        RunConfig {
            runs: 2,
            evict_iters: 30,
            script_evict_iters: 3,
            md5_bytes: 128,
            script_md5_bytes: 128,
            ld_writes: 64,
            ld_blocks: 64,
            live: false,
            faults: None,
        }
    }

    fn tiny_artifact() -> RunArtifact {
        let cfg = tiny();
        let mut art = RunArtifact::begin(&cfg);
        let t3 = table3(&cfg, DiskModel::default());
        let fault = t3.hard_single_page();
        let t2 = table2(&cfg, fault).unwrap();
        let t4 = table4(&cfg, false);
        let t5 = table5(&cfg, t4.megabyte_access()).unwrap();
        let t6 = table6(&cfg, &t4.model).unwrap();
        let t7 = table7(&cfg).unwrap();
        let fig = figure1(&t2, None);
        art.add_table("table2", table2_json(&t2));
        art.add_table("table3", table3_json(&t3));
        art.add_table("table4", table4_json(&t4));
        art.add_table("table5", table5_json(&t5));
        art.add_table("table6", table6_json(&t6));
        art.add_table("table7", table7_json(&t7));
        art.add_table("figure1", figure1_json(&fig));
        art.finish(&graft_telemetry::snapshot());
        art
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let art = tiny_artifact();
        let text = art.to_pretty_string();
        let back = RunArtifact::from_json_str(&text).unwrap();
        assert_eq!(back.to_json(), art.to_json());
        assert_eq!(back.config.runs, art.config.runs);
        assert_eq!(back.tables.len(), art.tables.len());
        assert_eq!(back.samples, art.samples);
    }

    #[test]
    fn samples_are_indexed_by_table_and_technology() {
        let art = tiny_artifact();
        assert!(
            art.sample_best_ns("table2/rows/C/sample").is_some(),
            "keys: {:?}",
            art.samples.keys().collect::<Vec<_>>()
        );
        assert!(art.sample_best_ns("table6/rows/Modula-3/sample").is_some());
        // Nested sample objects inside rows are found too.
        assert!(art
            .samples
            .keys()
            .any(|k| k.starts_with("table5/rows/")));
        // The churn table indexes both its per-technology phases and
        // the host-machinery overhead samples.
        assert!(art.sample_best_ns("table7/rows/Modula-3/baseline").is_some());
        assert!(art.sample_best_ns("table7/overhead/empty_chain").is_some());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let err = RunArtifact::from_json_str(r#"{"schema":"other/v9"}"#).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(RunArtifact::from_json_str("not json").is_err());
    }

    #[test]
    fn config_round_trips_exactly() {
        for cfg in [RunConfig::full(), RunConfig::quick(), RunConfig::offline()] {
            let back = config_from_json(&config_json(&cfg)).unwrap();
            assert_eq!(back.runs, cfg.runs);
            assert_eq!(back.evict_iters, cfg.evict_iters);
            assert_eq!(back.ld_writes, cfg.ld_writes);
            assert_eq!(back.live, cfg.live);
        }
    }
}
