//! `graftstat`: summarize or diff the JSON run artifacts that the
//! table/figure binaries write with `--json`.
//!
//! With one artifact it prints a summary (tables, sample count, distinct
//! metrics, wall clock). With two it diffs them per indexed sample
//! (robust `min_ns` estimates) and per counter, and declares drift when
//! any sample moved by more than the threshold.
//!
//! Two subcommands read the flight recorder's output back out of an
//! artifact: `graftstat timeline <run.json>` prints the recorded trace
//! events in causal order — sorted by `(ts_ns, trace id, seq)`, the
//! same total order the kernel's merged cross-shard timeline uses — and
//! `graftstat postmortem <run.json>` renders every quarantine
//! postmortem report embedded in the artifact (Table 12's drill pair),
//! including the event tail that reconstructs the detach.

use std::fmt::Write as _;

use graft_core::artifact::RunArtifact;
use graft_telemetry::json::Json;

/// Writes to stdout, ignoring EPIPE (e.g. when piped through `head`).
fn emit(text: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

const USAGE: &str = "usage: graftstat <baseline.json> [candidate.json] [--threshold <pct>]\n       graftstat timeline <run.json>\n       graftstat postmortem <run.json>";

/// Relative change of one indexed sample between two artifacts.
#[derive(Debug, Clone, PartialEq)]
struct SampleDelta {
    key: String,
    base_ns: f64,
    cand_ns: f64,
}

impl SampleDelta {
    /// Percent change candidate-over-baseline; 0 when the baseline is 0.
    fn pct(&self) -> f64 {
        if self.base_ns == 0.0 {
            0.0
        } else {
            (self.cand_ns - self.base_ns) / self.base_ns * 100.0
        }
    }
}

/// The full comparison of two artifacts.
#[derive(Debug, Clone, Default)]
struct Report {
    /// Per-sample deltas for keys present in both artifacts.
    samples: Vec<SampleDelta>,
    /// Sample keys present in only one side: `(key, in_baseline)`.
    missing: Vec<(String, bool)>,
    /// Counters whose value changed: `(name, baseline, candidate)`.
    counters: Vec<(String, u64, u64)>,
}

impl Report {
    /// True when nothing moved at all — the self-diff invariant.
    fn zero_drift(&self) -> bool {
        self.missing.is_empty()
            && self.counters.is_empty()
            && self.samples.iter().all(|d| d.pct() == 0.0)
    }

    /// Samples that moved by more than `threshold` percent (absolute).
    fn drifted(&self, threshold: f64) -> Vec<&SampleDelta> {
        self.samples
            .iter()
            .filter(|d| d.pct().abs() > threshold)
            .collect()
    }
}

/// Counter names and values of one artifact, for the diff.
fn counters_of(a: &RunArtifact) -> Vec<(String, u64)> {
    a.metrics
        .get("counters")
        .and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default()
}

/// Diffs two artifacts structurally: shared sample keys become deltas,
/// one-sided keys are reported as missing, and counters are compared by
/// name.
fn diff(base: &RunArtifact, cand: &RunArtifact) -> Report {
    let mut report = Report::default();
    for key in base.samples.keys() {
        match (base.sample_best_ns(key), cand.sample_best_ns(key)) {
            (Some(b), Some(c)) => report.samples.push(SampleDelta {
                key: key.clone(),
                base_ns: b,
                cand_ns: c,
            }),
            _ => report.missing.push((key.clone(), true)),
        }
    }
    for key in cand.samples.keys() {
        if !base.samples.contains_key(key) {
            report.missing.push((key.clone(), false));
        }
    }
    let base_counters = counters_of(base);
    let cand_counters = counters_of(cand);
    let mut names: Vec<&String> = base_counters.iter().map(|(k, _)| k).collect();
    names.extend(cand_counters.iter().map(|(k, _)| k));
    names.sort();
    names.dedup();
    let value = |set: &[(String, u64)], name: &str| {
        set.iter().find(|(k, _)| k == name).map(|&(_, v)| v).unwrap_or(0)
    };
    for name in names {
        let (b, c) = (value(&base_counters, name), value(&cand_counters, name));
        if b != c {
            report.counters.push((name.clone(), b, c));
        }
    }
    report
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// One-artifact mode: a human summary of what the run recorded.
fn summarize(path: &str, a: &RunArtifact) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "artifact {path}");
    let _ = writeln!(out, "  tables:   {}", {
        let names: Vec<&str> = a.tables.keys().map(String::as_str).collect();
        names.join(", ")
    });
    let _ = writeln!(out, "  samples:  {}", a.samples.len());
    let _ = writeln!(out, "  metrics:  {} distinct", a.distinct_metrics());
    let _ = writeln!(out, "  wall:     {}", fmt_ns(a.wall_clock.as_nanos() as f64));
    let mut keyed: Vec<(&String, f64)> = a
        .samples
        .keys()
        .filter_map(|k| a.sample_best_ns(k).map(|ns| (k, ns)))
        .collect();
    keyed.sort_by(|x, y| x.0.cmp(y.0));
    for (key, ns) in keyed {
        let _ = writeln!(out, "  {key:<44} {:>12}", fmt_ns(ns));
    }
    // The ABI-level counters — bind cache behaviour, batching, and
    // buffer reuse on the upcall transport — plus everything else the
    // telemetry registry recorded during the run.
    let mut counters = counters_of(a);
    counters.sort();
    if !counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        for (name, v) in &counters {
            let _ = writeln!(out, "    {name:<42} {v:>12}");
        }
    }
    if let Some(hists) = a.metrics.get("histograms").and_then(Json::as_arr) {
        for h in hists {
            let (Some(name), Some(count)) = (
                h.get("name").and_then(Json::as_str),
                h.get("count").and_then(Json::as_u64),
            ) else {
                continue;
            };
            let mean = h.get("mean").and_then(Json::as_f64).unwrap_or(0.0);
            let p50 = h.get("p50").and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(out, "    hist {name:<37} n={count} mean={mean:.1} p50={p50:.0}");
        }
    }
    out.push_str(&summarize_kernel(a));
    out.push_str(&summarize_shards(a));
    out.push_str(&summarize_recovery(a));
    out.push_str(&summarize_durable(a));
    out.push_str(&summarize_server(a));
    out
}

/// The durable-logdisk section: scrub/audit activity, checksum
/// failures and quarantines, point-in-time restores, and how much
/// history the disk retains, from the `ld.*` durability namespace.
/// Empty when the run never scrubbed, restored, or merged. Checksum
/// failures outside a bit-rot fault drill mean real (not injected)
/// corruption, so they get a WARN bar.
fn summarize_durable(a: &RunArtifact) -> String {
    let mut out = String::new();
    let scrub_passes = a.counter("ld.scrub.passes");
    let restores = a.counter("ld.restores");
    let merges = a.counter("ld.merge.passes");
    if scrub_passes == 0 && restores == 0 && merges == 0 {
        return out;
    }
    let _ = writeln!(out, "  durable logdisk:");
    let scrubbed = a.counter("ld.scrub.segments");
    let failures = a.counter("ld.checksum_failures");
    let _ = writeln!(
        out,
        "    scrub: passes {scrub_passes}  segments {scrubbed}  checksum failures {failures}  quarantined {}",
        a.counter("ld.quarantined"),
    );
    let _ = writeln!(
        out,
        "    restores: {restores}  mappings materialized {}",
        a.counter("ld.restored_mappings"),
    );
    let _ = writeln!(
        out,
        "    retention: merges {merges}  merged segments {}  pruned entries {}  retained {} entries / {} segments  refused {}",
        a.counter("ld.merge.merged_segments"),
        a.counter("ld.merge.pruned_entries"),
        a.counter("ld.retained_entries"),
        a.counter("ld.retained_segments"),
        a.counter("ld.merge.refused"),
    );
    if failures > 0 && a.counter("disk.faults.bitrot") == 0 {
        out.push_str(
            "  !! WARN: checksum failures with no bit-rot drill armed — real corruption\n",
        );
    }
    out
}

/// The recovery section: supervisor salvage activity, fault-injection
/// accounting, and Logical Disk crash/rebuild traffic from the
/// `kernel.recovery.*`, `disk.faults.*`, and `ld.*` namespaces. Empty
/// when the run neither salvaged nor injected nor crashed.
fn summarize_recovery(a: &RunArtifact) -> String {
    let mut out = String::new();
    let salvages = a.counter("kernel.recovery.salvages");
    let injected = a.counter("disk.faults.injected");
    let crashes = a.counter("ld.crashes") + a.counter("disk.faults.crashes");
    if salvages == 0 && injected == 0 && crashes == 0 {
        return out;
    }
    let _ = writeln!(out, "  recovery:");
    let _ = writeln!(
        out,
        "    salvages {salvages}  salvaged words {}  lost mappings {}  auto-readmits {}  bans {}",
        a.counter("kernel.recovery.salvaged_words"),
        a.counter("kernel.recovery.lost_mappings"),
        a.counter("kernel.recovery.auto_readmits"),
        a.counter("kernel.recovery.bans"),
    );
    let _ = writeln!(
        out,
        "    fault injection: ios {}  injected {injected}  retries {}  torn writes {}  exhausted {}  crashes {}",
        a.counter("disk.faulty_ios"),
        a.counter("disk.retries"),
        a.counter("disk.torn_writes"),
        a.counter("disk.faults.exhausted"),
        a.counter("disk.faults.crashes"),
    );
    let _ = writeln!(
        out,
        "    logical disk: crashes {}  rebuilds {}  replayed mappings {}",
        a.counter("ld.crashes"),
        a.counter("ld.rebuilds"),
        a.counter("ld.rebuilt_mappings"),
    );
    out
}

/// The graft-server section: admission outcomes, tenant standing, and
/// service latency from the `server.*` namespace. Empty when the run
/// never served a wire request.
fn summarize_server(a: &RunArtifact) -> String {
    let mut out = String::new();
    let requests = a.counter("server.requests");
    if requests == 0 {
        return out;
    }
    let _ = writeln!(out, "  graft-server:");
    let _ = writeln!(
        out,
        "    requests {requests}  served {}  replies {}  conns {}  in-flight peak {}",
        a.counter("server.served"),
        a.counter("server.replies"),
        a.counter("server.conns"),
        a.counter("server.inflight.peak"),
    );
    let _ = writeln!(
        out,
        "    admission: rejected overloaded {}  quota {}  quarantined {}  malformed frames {}",
        a.counter("server.rejected.overloaded"),
        a.counter("server.rejected.quota"),
        a.counter("server.rejected.quarantined"),
        a.counter("server.malformed"),
    );
    let _ = writeln!(
        out,
        "    tenants: {}  quarantined {}",
        a.counter("server.tenants"),
        a.counter("server.tenants.quarantined"),
    );
    let service = a
        .metrics
        .get("histograms")
        .and_then(Json::as_arr)
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some("server.service_ns"))
        });
    if let Some(h) = service {
        let p = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "    service latency: p50={} p99={} p999={} ({} samples)",
            fmt_ns(p("p50")),
            fmt_ns(p("p99")),
            fmt_ns(p("p999")),
            h.get("count").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    out
}

/// The sharded-kernel section: the counts only a sharded host has —
/// shard count, epoch/mailbox membership traffic, per-shard load and
/// balance, and the adaptive plane — from the `kernel.shard.*`
/// namespace. Dispatch and control-plane totals are in the
/// `graft-host:` section. Empty when no host published its shards.
fn summarize_shards(a: &RunArtifact) -> String {
    let mut out = String::new();
    let shards = a.counter("kernel.shard.count");
    if shards == 0 {
        return out;
    }
    let _ = writeln!(out, "  graft-host (sharded):");
    let _ = writeln!(
        out,
        "    shards {shards}  epoch {}  epoch syncs {}  mailbox ops {}  flushes {}",
        a.counter("kernel.shard.epoch"),
        a.counter("kernel.shard.epoch_syncs"),
        a.counter("kernel.shard.mailbox_ops"),
        a.counter("kernel.shard.flushes"),
    );
    let hist = |name: &str| {
        a.metrics
            .get("histograms")
            .and_then(Json::as_arr)
            .and_then(|hs| {
                hs.iter()
                    .find(|h| h.get("name").and_then(Json::as_str) == Some(name))
            })
    };
    if let Some(h) = hist("kernel.shard.load") {
        let mean = h.get("mean").and_then(Json::as_f64).unwrap_or(0.0);
        let count = h.get("count").and_then(Json::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "    shard load: {count} shard lifetimes, mean {mean:.0} dispatches each"
        );
    }
    let stealing = a.counter("kernel.shard.steal_mode") > 0;
    let enqueued = a.counter("kernel.shard.enqueued");
    if enqueued > 0 {
        let _ = writeln!(
            out,
            "    adaptive plane: enqueued {enqueued}  diverted {}  steals {}  steal fails {}  batches {}",
            a.counter("kernel.shard.diverted"),
            a.counter("kernel.shard.steals"),
            a.counter("kernel.shard.steal_fail"),
            a.counter("kernel.shard.batches"),
        );
        if let Some(h) = hist("kernel.shard.queue_depth") {
            let mean = h.get("mean").and_then(Json::as_f64).unwrap_or(0.0);
            let p99 = h.get("p99").and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "    queue depth after drain: mean={mean:.1} p99={p99:.0}"
            );
        }
    }
    if let Some(h) = hist("kernel.shard.imbalance_pct") {
        let mean = h.get("mean").and_then(Json::as_f64).unwrap_or(0.0);
        let p99 = h.get("p99").and_then(Json::as_f64).unwrap_or(0.0);
        // With hash placement only, ≥20% means the dispatch keys are
        // skewing the shards badly enough that the ladder's scaling
        // numbers stop being about the dispatch plane. When the run
        // used the work-stealing plane the bar tightens to the Table 13
        // gate: stealing is supposed to hold (max-min)/mean under 5%
        // even on a 99/1 key skew, so anything above that means the
        // plane is misbehaving, not the keys.
        let threshold = if stealing { 5.0 } else { 20.0 };
        let warn = match (stealing, mean >= threshold) {
            (_, false) => "",
            (true, true) => "  !! WARN: imbalance >= 5% with stealing on, plane is misbehaving",
            (false, true) => "  !! WARN: imbalance >= 20%, dispatch keys are skewed",
        };
        let _ = writeln!(
            out,
            "    imbalance (max-min)/mean: mean={mean:.1}% p99={p99:.0}%{warn}"
        );
    }
    out
}

/// The graft-host section of the summary: dispatch volume, the verdict
/// mix, supervisor activity, and the chain-depth histogram, all from
/// the `kernel.*` telemetry namespace. Empty when the run never touched
/// a host.
fn summarize_kernel(a: &RunArtifact) -> String {
    let mut out = String::new();
    let dispatches = a.counter("kernel.dispatches");
    if dispatches == 0 {
        return out;
    }
    let pct = |n: u64| n as f64 * 100.0 / dispatches as f64;
    let (over, cont, def) = (
        a.counter("kernel.verdict_override"),
        a.counter("kernel.verdict_continue"),
        a.counter("kernel.verdict_default"),
    );
    let _ = writeln!(out, "  graft-host:");
    let _ = writeln!(
        out,
        "    dispatches {dispatches}  invocations {}  traps {}",
        a.counter("kernel.invocations"),
        a.counter("kernel.traps"),
    );
    let _ = writeln!(
        out,
        "    verdict mix: override {over} ({:.1}%)  continue {cont} ({:.1}%)  default {def} ({:.1}%)",
        pct(over),
        pct(cont),
        pct(def),
    );
    let _ = writeln!(
        out,
        "    supervisor: quarantine trips {}  readmits {}  installs {}  uninstalls {}  marshal failures {}",
        a.counter("kernel.quarantine_trips"),
        a.counter("kernel.readmits"),
        a.counter("kernel.installs"),
        a.counter("kernel.uninstalls"),
        a.counter("kernel.marshal_failures"),
    );
    let depth = a
        .metrics
        .get("histograms")
        .and_then(Json::as_arr)
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some("kernel.chain_depth"))
        });
    if let Some(h) = depth {
        let mean = h.get("mean").and_then(Json::as_f64).unwrap_or(0.0);
        let p99 = h.get("p99").and_then(Json::as_f64).unwrap_or(0.0);
        let buckets: Vec<String> = h
            .get("buckets")
            .and_then(Json::as_arr)
            .map(|bs| {
                bs.iter()
                    .filter_map(|b| {
                        let arr = b.as_arr()?;
                        let (lo, n) = (arr.first()?.as_u64()?, arr.get(1)?.as_u64()?);
                        (n > 0).then(|| format!("\u{2265}{lo}:{n}"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "    chain depth: mean={mean:.2} p99={p99:.0}  [{}]",
            buckets.join(" ")
        );
    }
    out
}

/// The causal sort key of one serialized trace event: `(ts_ns, trace
/// id, intra-trace seq)`, matching the kernel's merged-timeline order.
fn trace_key(e: &Json) -> (u64, u64, u64) {
    let n = |k: &str| e.get(k).and_then(Json::as_u64).unwrap_or(0);
    (n("ts_ns"), n("trace"), n("seq"))
}

/// One rendered timeline row; `t0` anchors timestamps to the first
/// event so the column stays readable.
fn trace_row(e: &Json, t0: u64) -> String {
    let (ts, trace, seq) = trace_key(e);
    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("-");
    let n = |k: &str| e.get(k).and_then(Json::as_u64).unwrap_or(0);
    let shard = match e.get("shard") {
        Some(Json::Str(name)) => name.clone(),
        Some(j) => j
            .as_u64()
            .map(|v| format!("shard {v}"))
            .unwrap_or_else(|| "?".into()),
        None => "?".into(),
    };
    format!(
        "  +{:<11} {:>16x}/{:<3} g{:<3} {:<13} {:<10} {:<19} {:<12} {:>9} ns",
        ts.saturating_sub(t0),
        trace,
        seq,
        n("graft"),
        shard,
        s("point"),
        s("tech"),
        s("verdict"),
        n("duration_ns"),
    )
}

/// `timeline` mode: the artifact's flight-recorder events in causal
/// order. Empty unless the run was benched with `--trace`.
fn render_timeline(path: &str, a: &RunArtifact) -> String {
    let mut out = String::new();
    let mut events: Vec<&Json> = a
        .metrics
        .get("traces")
        .and_then(Json::as_arr)
        .map(|v| v.iter().collect())
        .unwrap_or_default();
    if events.is_empty() {
        let _ = writeln!(
            out,
            "{path}: no trace events (rerun the bench with --trace --json)"
        );
        return out;
    }
    events.sort_by_key(|e| trace_key(e));
    let t0 = trace_key(events[0]).0;
    let _ = writeln!(out, "timeline {path}: {} events", events.len());
    let _ = writeln!(
        out,
        "  {:<12} {:>16}/{:<3} {:<4} {:<13} {:<10} {:<19} {:<12} {:>12}",
        "t+ns", "trace", "seq", "gft", "shard", "point", "tech", "verdict", "duration"
    );
    for e in &events {
        out.push_str(&trace_row(e, t0));
        out.push('\n');
    }
    out
}

/// Renders one embedded postmortem report (the JSON shape that
/// `PostmortemReport::to_json` writes).
fn render_postmortem(label: &str, pm: &Json) -> String {
    let mut out = String::new();
    let s = |k: &str| pm.get(k).and_then(Json::as_str).unwrap_or("-");
    let n = |k: &str| pm.get(k).and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(out, "postmortem {label}:");
    let _ = writeln!(
        out,
        "  graft \"{}\" (id {}) under {}  state {}  reason {}",
        s("graft"),
        n("graft_id"),
        s("tech"),
        s("state"),
        s("reason"),
    );
    let ledger = pm.get("ledger");
    let ln = |k: &str| {
        ledger
            .and_then(|l| l.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let _ = writeln!(
        out,
        "  ledger: invocations {}  traps {}  cum {}  fuel {}",
        ln("invocations"),
        ln("traps"),
        fmt_ns(ln("cum_ns") as f64),
        ln("fuel_used"),
    );
    if let Some(counts) = ledger
        .and_then(|l| l.get("trap_counts"))
        .and_then(Json::as_obj)
    {
        if !counts.is_empty() {
            let mix: Vec<String> = counts
                .iter()
                .map(|(k, v)| format!("{k}:{}", v.as_u64().unwrap_or(0)))
                .collect();
            let _ = writeln!(out, "  trap mix: {}", mix.join("  "));
        }
    }
    let salvage = match pm.get("salvaged_words").and_then(Json::as_u64) {
        Some(w) => format!("{w} words"),
        None => "none".into(),
    };
    let _ = writeln!(
        out,
        "  strikes {}  quarantines {}  backoff remaining {}  salvaged {salvage}  detached on shard {}",
        n("strikes"),
        n("quarantines"),
        n("backoff_remaining"),
        n("shard"),
    );
    match pm.get("events").and_then(Json::as_arr) {
        Some(events) if !events.is_empty() => {
            let t0 = events.first().map(trace_key).map(|k| k.0).unwrap_or(0);
            let _ = writeln!(out, "  tail ({} events, oldest first):", events.len());
            for e in events {
                out.push_str("  ");
                out.push_str(&trace_row(e, t0));
                out.push('\n');
            }
        }
        _ => {
            let _ = writeln!(out, "  tail: empty (the flight recorder was not recording)");
        }
    }
    out
}

/// `postmortem` mode: every quarantine report embedded in the
/// artifact's tables (Table 12's drill carries a 1-shard/4-shard pair).
fn render_postmortems(path: &str, a: &RunArtifact) -> String {
    let mut out = String::new();
    let mut found = 0;
    for (table, doc) in &a.tables {
        let Some(drill) = doc.get("drill") else { continue };
        for side in ["one_shard_postmortem", "sharded_postmortem"] {
            let Some(pm) = drill.get(side) else { continue };
            if matches!(pm, Json::Null) {
                continue;
            }
            found += 1;
            out.push_str(&render_postmortem(&format!("{table}/{side}"), pm));
        }
    }
    if found == 0 {
        let _ = writeln!(
            out,
            "{path}: no postmortems (run the table12 bench with --json)"
        );
    }
    out
}

/// Two-artifact mode: the rendered diff plus the process exit code
/// (0 when within threshold, 1 when drift was detected).
fn render_diff(base_path: &str, cand_path: &str, report: &Report, threshold: f64) -> (String, i32) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# graftstat: {base_path} -> {cand_path} (threshold {threshold}%)"
    );
    for d in &report.samples {
        let _ = writeln!(
            out,
            "  {:<44} {:>12} -> {:>12}  {:>+8.2}%",
            d.key,
            fmt_ns(d.base_ns),
            fmt_ns(d.cand_ns),
            d.pct()
        );
    }
    for (key, in_base) in &report.missing {
        let side = if *in_base { "baseline" } else { "candidate" };
        let _ = writeln!(out, "  {key:<44} only in {side}");
    }
    for (name, b, c) in &report.counters {
        let _ = writeln!(out, "  counter {name:<36} {b:>12} -> {c:>12}");
    }
    if report.zero_drift() {
        let _ = writeln!(out, "zero drift: artifacts are metrically identical");
        return (out, 0);
    }
    let drifted = report.drifted(threshold);
    let code = if drifted.is_empty() && report.missing.is_empty() {
        let _ = writeln!(
            out,
            "no drift beyond {threshold}% across {} samples",
            report.samples.len()
        );
        0
    } else {
        let _ = writeln!(
            out,
            "drift: {} of {} samples moved more than {threshold}%, {} keys one-sided",
            drifted.len(),
            report.samples.len(),
            report.missing.len()
        );
        1
    };
    (out, code)
}

fn load(path: &str) -> RunArtifact {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("error: cannot read {path}: {err}");
            std::process::exit(2);
        }
    };
    match RunArtifact::from_json_str(&text) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("error: {path}: {err}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 5.0_f64;
    let mut mode: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold = t,
                None => {
                    eprintln!("--threshold needs a number\n{USAGE}");
                    std::process::exit(2);
                }
            },
            sub @ ("timeline" | "postmortem") if mode.is_none() && paths.is_empty() => {
                mode = Some(sub.to_string());
            }
            other => paths.push(other.to_string()),
        }
    }
    if let Some(mode) = mode {
        let [one] = paths.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        let artifact = load(one);
        emit(&match mode.as_str() {
            "timeline" => render_timeline(one, &artifact),
            _ => render_postmortems(one, &artifact),
        });
        return;
    }
    match paths.as_slice() {
        [one] => emit(&summarize(one, &load(one))),
        [base, cand] => {
            let report = diff(&load(base), &load(cand));
            let (text, code) = render_diff(base, cand, &report, threshold);
            emit(&text);
            std::process::exit(code);
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_core::artifact::{sample_json, table3_json, RunArtifact};
    use graft_core::experiment::{table3, RunConfig};
    use kernsim::stats::Sample;
    use kernsim::DiskModel;
    use std::time::Duration;

    fn artifact() -> RunArtifact {
        let cfg = RunConfig::offline();
        let mut art = RunArtifact::begin(&cfg);
        let t3 = table3(&cfg, DiskModel::default());
        art.add_table("table3", table3_json(&t3));
        // Offline Table 3 carries no measured samples, so index a
        // synthetic one to exercise the sample-diff path.
        let runs = [Duration::from_micros(10), Duration::from_micros(12)];
        art.samples
            .insert("synthetic/sample".into(), sample_json(&Sample::from_runs(&runs)));
        art.finish(&graft_telemetry::snapshot());
        art
    }

    #[test]
    fn self_diff_is_zero_drift() {
        let art = artifact();
        let back = RunArtifact::from_json_str(&art.to_pretty_string()).unwrap();
        let report = diff(&back, &back);
        assert!(report.zero_drift(), "{report:?}");
        assert!(report.drifted(0.0).is_empty());
    }

    #[test]
    fn sample_movement_is_measured_in_percent() {
        let d = SampleDelta {
            key: "k".into(),
            base_ns: 100.0,
            cand_ns: 110.0,
        };
        assert!((d.pct() - 10.0).abs() < 1e-9);
        let zero = SampleDelta {
            key: "z".into(),
            base_ns: 0.0,
            cand_ns: 5.0,
        };
        assert_eq!(zero.pct(), 0.0);
    }

    #[test]
    fn kernel_section_summarizes_verdict_mix_and_chain_depth() {
        let mut art = artifact();
        // A run that never touched a host prints no graft-host section.
        assert!(!summarize("x.json", &art).contains("graft-host:"));

        let mut counters = Json::object();
        counters
            .set("kernel.dispatches", 100u64)
            .set("kernel.invocations", 120u64)
            .set("kernel.traps", 3u64)
            .set("kernel.verdict_override", 60u64)
            .set("kernel.verdict_continue", 30u64)
            .set("kernel.verdict_default", 10u64)
            .set("kernel.quarantine_trips", 1u64)
            .set("kernel.installs", 2u64);
        let mut depth = Json::object();
        depth
            .set("name", "kernel.chain_depth")
            .set("count", 100u64)
            .set("mean", 1.4)
            .set("p50", 1.0)
            .set("p99", 2.0)
            .set(
                "buckets",
                vec![
                    Json::Arr(vec![Json::from(1u64), Json::from(60u64)]),
                    Json::Arr(vec![Json::from(2u64), Json::from(40u64)]),
                ],
            );
        let mut metrics = Json::object();
        metrics
            .set("counters", counters)
            .set("histograms", vec![depth]);
        art.metrics = metrics;

        let text = summarize("x.json", &art);
        assert!(text.contains("graft-host:"), "{text}");
        assert!(
            text.contains("override 60 (60.0%)  continue 30 (30.0%)  default 10 (10.0%)"),
            "{text}"
        );
        assert!(text.contains("quarantine trips 1"), "{text}");
        assert!(text.contains("chain depth: mean=1.40 p99=2"), "{text}");
        assert!(text.contains("\u{2265}1:60 \u{2265}2:40"), "{text}");
    }

    #[test]
    fn shard_section_summarizes_load_and_imbalance() {
        let mut art = artifact();
        assert!(!summarize("x.json", &art).contains("graft-host (sharded):"));

        let mut counters = Json::object();
        counters
            .set("kernel.shard.count", 4u64)
            .set("kernel.shard.epoch", 3u64)
            .set("kernel.shard.epoch_syncs", 12u64)
            .set("kernel.shard.mailbox_ops", 8u64)
            .set("kernel.shard.flushes", 4u64)
            .set("kernel.shard.enqueued", 360u64)
            .set("kernel.shard.diverted", 14u64)
            .set("kernel.shard.steals", 96u64)
            .set("kernel.shard.steal_fail", 5u64)
            .set("kernel.shard.batches", 40u64);
        let mut load = Json::object();
        load.set("name", "kernel.shard.load")
            .set("count", 4u64)
            .set("mean", 100.0)
            .set("p50", 100.0)
            .set("p99", 101.0)
            .set("buckets", Vec::<Json>::new());
        let mut depth = Json::object();
        depth
            .set("name", "kernel.shard.queue_depth")
            .set("count", 40u64)
            .set("mean", 12.5)
            .set("p50", 12.0)
            .set("p99", 31.0)
            .set("buckets", Vec::<Json>::new());
        let mut imb = Json::object();
        imb.set("name", "kernel.shard.imbalance_pct")
            .set("count", 1u64)
            .set("mean", 2.0)
            .set("p50", 2.0)
            .set("p99", 2.0)
            .set("buckets", Vec::<Json>::new());
        let mut metrics = Json::object();
        metrics
            .set("counters", counters)
            .set("histograms", vec![load, depth, imb]);
        art.metrics = metrics;

        let text = summarize("x.json", &art);
        assert!(text.contains("graft-host (sharded):"), "{text}");
        assert!(
            text.contains("shards 4  epoch 3  epoch syncs 12  mailbox ops 8  flushes 4"),
            "{text}"
        );
        assert!(text.contains("4 shard lifetimes, mean 100 dispatches"), "{text}");
        assert!(
            text.contains(
                "adaptive plane: enqueued 360  diverted 14  steals 96  steal fails 5  batches 40"
            ),
            "{text}"
        );
        assert!(
            text.contains("queue depth after drain: mean=12.5 p99=31"),
            "{text}"
        );
        assert!(text.contains("imbalance (max-min)/mean: mean=2.0% p99=2%"), "{text}");
    }

    #[test]
    fn recovery_section_summarizes_salvage_and_fault_accounting() {
        let mut art = artifact();
        // A clean run prints no recovery section.
        assert!(!summarize("x.json", &art).contains("recovery:"));

        let mut counters = Json::object();
        counters
            .set("kernel.recovery.salvages", 6u64)
            .set("kernel.recovery.salvaged_words", 1536u64)
            .set("kernel.recovery.lost_mappings", 0u64)
            .set("kernel.recovery.auto_readmits", 1u64)
            .set("kernel.recovery.bans", 0u64)
            .set("disk.faulty_ios", 32u64)
            .set("disk.faults.injected", 3u64)
            .set("disk.retries", 3u64)
            .set("disk.torn_writes", 1u64)
            .set("disk.faults.exhausted", 0u64)
            .set("disk.faults.crashes", 1u64)
            .set("ld.crashes", 1u64)
            .set("ld.rebuilds", 3u64)
            .set("ld.rebuilt_mappings", 240u64);
        let mut metrics = Json::object();
        metrics
            .set("counters", counters)
            .set("histograms", Vec::<Json>::new());
        art.metrics = metrics;

        let text = summarize("x.json", &art);
        assert!(text.contains("recovery:"), "{text}");
        assert!(
            text.contains("salvages 6  salvaged words 1536  lost mappings 0"),
            "{text}"
        );
        assert!(
            text.contains("ios 32  injected 3  retries 3  torn writes 1  exhausted 0  crashes 1"),
            "{text}"
        );
        assert!(
            text.contains("logical disk: crashes 1  rebuilds 3  replayed mappings 240"),
            "{text}"
        );
    }

    #[test]
    fn durable_section_summarizes_scrub_restores_and_retention() {
        let art = artifact();
        // A run that never scrubbed, restored, or merged prints nothing.
        assert!(!summarize("x.json", &art).contains("durable logdisk:"));

        let build = |failures: u64, bitrot: u64| {
            let mut art = artifact();
            let mut counters = Json::object();
            counters
                .set("ld.scrub.passes", 5u64)
                .set("ld.scrub.segments", 2081u64)
                .set("ld.checksum_failures", failures)
                .set("ld.quarantined", failures)
                .set("ld.restores", 12u64)
                .set("ld.restored_mappings", 120_000u64)
                .set("ld.merge.passes", 3u64)
                .set("ld.merge.merged_segments", 900u64)
                .set("ld.merge.pruned_entries", 26_381u64)
                .set("ld.merge.refused", 1u64)
                .set("ld.retained_entries", 41_699u64)
                .set("ld.retained_segments", 2081u64)
                .set("disk.faults.bitrot", bitrot);
            let mut metrics = Json::object();
            metrics
                .set("counters", counters)
                .set("histograms", Vec::<Json>::new());
            art.metrics = metrics;
            art
        };

        let text = summarize("x.json", &build(0, 0));
        assert!(text.contains("durable logdisk:"), "{text}");
        assert!(
            text.contains("scrub: passes 5  segments 2081  checksum failures 0  quarantined 0"),
            "{text}"
        );
        assert!(
            text.contains("restores: 12  mappings materialized 120000"),
            "{text}"
        );
        assert!(
            text.contains(
                "retention: merges 3  merged segments 900  pruned entries 26381  retained 41699 entries / 2081 segments  refused 1"
            ),
            "{text}"
        );
        assert!(!text.contains("!! WARN"), "{text}");

        // Failures during a bit-rot drill are expected (injected)...
        let drilled = summarize("x.json", &build(7, 7));
        assert!(!drilled.contains("!! WARN"), "{drilled}");
        // ...but failures with no drill armed are real corruption.
        let rotted = summarize("x.json", &build(7, 0));
        assert!(
            rotted.contains("!! WARN: checksum failures with no bit-rot drill armed"),
            "{rotted}"
        );
    }

    #[test]
    fn server_section_summarizes_admission_and_service_latency() {
        let mut art = artifact();
        // A run that never served a wire request prints no section.
        assert!(!summarize("x.json", &art).contains("graft-server:"));

        let mut counters = Json::object();
        counters
            .set("server.requests", 4100u64)
            .set("server.served", 4000u64)
            .set("server.replies", 4100u64)
            .set("server.conns", 130u64)
            .set("server.inflight.peak", 48u64)
            .set("server.rejected.overloaded", 2u64)
            .set("server.rejected.quota", 1u64)
            .set("server.rejected.quarantined", 29u64)
            .set("server.malformed", 3u64)
            .set("server.tenants", 96u64)
            .set("server.tenants.quarantined", 1u64);
        let mut hist = Json::object();
        hist.set("name", "server.service_ns")
            .set("count", 4000u64)
            .set("sum", 8_000_000u64)
            .set("mean", 2000.0)
            .set("p50", 1500.0)
            .set("p99", 9000.0)
            .set("p999", 21000.0);
        let mut metrics = Json::object();
        metrics.set("counters", counters).set("histograms", vec![hist]);
        art.metrics = metrics;

        let text = summarize("x.json", &art);
        assert!(text.contains("graft-server:"), "{text}");
        assert!(
            text.contains("requests 4100  served 4000  replies 4100  conns 130  in-flight peak 48"),
            "{text}"
        );
        assert!(
            text.contains("rejected overloaded 2  quota 1  quarantined 29  malformed frames 3"),
            "{text}"
        );
        assert!(text.contains("tenants: 96  quarantined 1"), "{text}");
        assert!(
            text.contains("service latency: p50=1.500 µs p99=9.000 µs p999=21.000 µs (4000 samples)"),
            "{text}"
        );
    }

    fn trace_event(ts: u64, trace: u64, seq: u64, verdict: &str) -> Json {
        let mut e = Json::object();
        e.set("ts_ns", ts)
            .set("trace", trace)
            .set("seq", seq)
            .set("graft", 1u64)
            .set("shard", Json::Num(0.0))
            .set("point", "vm_evict")
            .set("tech", "C")
            .set("verdict", verdict)
            .set("value", 9u64)
            .set("duration_ns", 120u64)
            .set("fuel", 4u64);
        e
    }

    #[test]
    fn timeline_sorts_events_into_causal_order() {
        let mut art = artifact();
        let mut metrics = Json::object();
        metrics.set(
            "traces",
            vec![
                trace_event(300, 7, 1, "trap"),
                trace_event(100, 7, 0, "continue"),
                trace_event(200, 9, 0, "override"),
            ],
        );
        art.metrics = metrics;
        let text = render_timeline("x.json", &art);
        assert!(text.contains("3 events"), "{text}");
        let continue_at = text.find("continue").unwrap();
        let override_at = text.find("override").unwrap();
        let trap_at = text.find("trap").unwrap();
        assert!(continue_at < override_at && override_at < trap_at, "{text}");
        // Timestamps render relative to the first event.
        assert!(text.contains("+0"), "{text}");
    }

    #[test]
    fn timeline_without_traces_points_at_the_trace_flag() {
        let art = artifact();
        assert!(render_timeline("x.json", &art).contains("--trace"));
    }

    #[test]
    fn postmortem_mode_renders_the_drill_pair() {
        let mut art = artifact();
        let mut ledger = Json::object();
        ledger
            .set("invocations", 3u64)
            .set("traps", 3u64)
            .set("cum_ns", 900u64)
            .set("fuel_used", 33u64);
        let mut counts = Json::object();
        counts.set("div_by_zero", 3u64);
        ledger.set("trap_counts", counts);
        let mut pm = Json::object();
        pm.set("graft", "saboteur")
            .set("graft_id", 2u64)
            .set("tech", "Modula-3")
            .set("reason", "div_by_zero")
            .set("state", "quarantined")
            .set("ledger", ledger)
            .set("strikes", 3u64)
            .set("quarantines", 1u64)
            .set("backoff_remaining", 0u64)
            .set("salvaged_words", Json::Null)
            .set("events", vec![trace_event(50, 3, 0, "trap")])
            .set("detached_at_ns", 1000u64)
            .set("shard", 0u64);
        let mut drill = Json::object();
        drill
            .set("one_shard_postmortem", pm)
            .set("sharded_postmortem", Json::Null);
        let mut table = Json::object();
        table.set("drill", drill);
        art.tables.insert("table12".into(), table);

        let text = render_postmortems("x.json", &art);
        assert!(text.contains("postmortem table12/one_shard_postmortem:"), "{text}");
        assert!(
            text.contains("graft \"saboteur\" (id 2) under Modula-3"),
            "{text}"
        );
        assert!(text.contains("reason div_by_zero"), "{text}");
        assert!(text.contains("trap mix: div_by_zero:3"), "{text}");
        assert!(text.contains("salvaged none"), "{text}");
        assert!(text.contains("detached on shard 0"), "{text}");
        assert!(text.contains("tail (1 events"), "{text}");

        // An artifact without any embedded reports says so.
        let empty = artifact();
        assert!(render_postmortems("x.json", &empty).contains("no postmortems"));
    }

    #[test]
    fn imbalance_warning_fires_at_twenty_percent() {
        let mut art = artifact();
        let mut counters = Json::object();
        counters.set("kernel.shard.count", 2u64);
        let mut imb = Json::object();
        imb.set("name", "kernel.shard.imbalance_pct")
            .set("count", 1u64)
            .set("mean", 25.0)
            .set("p50", 25.0)
            .set("p99", 25.0)
            .set("buckets", Vec::<Json>::new());
        let mut metrics = Json::object();
        metrics
            .set("counters", counters)
            .set("histograms", vec![imb]);
        art.metrics = metrics;
        let text = summarize("x.json", &art);
        assert!(text.contains("!! WARN: imbalance >= 20%"), "{text}");
    }

    #[test]
    fn stealing_runs_tighten_the_imbalance_warning_to_five_percent() {
        // 8% imbalance: fine under hash placement, a plane failure when
        // the run had stealing on (`kernel.shard.steal_mode` > 0).
        let build = |stealing: bool| {
            let mut art = artifact();
            let mut counters = Json::object();
            counters.set("kernel.shard.count", 2u64);
            if stealing {
                counters.set("kernel.shard.steal_mode", 1u64);
            }
            let mut imb = Json::object();
            imb.set("name", "kernel.shard.imbalance_pct")
                .set("count", 1u64)
                .set("mean", 8.0)
                .set("p50", 8.0)
                .set("p99", 8.0)
                .set("buckets", Vec::<Json>::new());
            let mut metrics = Json::object();
            metrics
                .set("counters", counters)
                .set("histograms", vec![imb]);
            art.metrics = metrics;
            art
        };
        let static_text = summarize("x.json", &build(false));
        assert!(!static_text.contains("!! WARN"), "{static_text}");
        let steal_text = summarize("x.json", &build(true));
        assert!(
            steal_text.contains("!! WARN: imbalance >= 5% with stealing on"),
            "{steal_text}"
        );
    }

    #[test]
    fn one_sided_keys_are_reported_missing() {
        let a = artifact();
        let mut b = artifact();
        b.samples.clear();
        let report = diff(&a, &b);
        assert!(!report.zero_drift());
        assert!(report.missing.iter().all(|(_, in_base)| *in_base));
        assert!(!report.missing.is_empty());
    }
}
