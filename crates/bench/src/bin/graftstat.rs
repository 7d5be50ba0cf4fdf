//! `graftstat`: summarize, diff or check the JSON run artifacts that
//! the table/figure binaries write with `--json`.
//!
//! With one artifact it prints a summary (tables, every sample, counter
//! and histogram, and two warnings). With two it diffs them per indexed
//! sample (robust `min_ns` estimates) and per counter, and declares
//! drift when any sample moved by more than the threshold.
//!
//! `graftstat check <baseline.json> <run.json>` is the verification
//! gate: it evaluates every typed gate the run recorded (see
//! `graft_core::gate`) and holds every baseline table and sample to the
//! run within a fixed 200% `min_ns` envelope, prints one line per gate,
//! lists every failure, and exits 1 if there was any.
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

const USAGE: &str = "usage: graftstat <baseline.json> [candidate.json] [--threshold <pct>]\n       graftstat check <baseline.json> <run.json>\n       graftstat timeline <run.json>\n       graftstat postmortem <run.json>";

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

/// One-artifact mode: a human summary of what the run recorded —
/// every sample, counter and histogram — plus [`warnings`].
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
    // Everything the telemetry registry recorded during the run; each
    // counter's meaning is in docs/telemetry.md.
    let mut counters = counters_of(a);
    counters.sort();
    if !counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        for (name, v) in &counters {
            let _ = writeln!(out, "    {name:<42} {v:>12}");
        }
    }
    for h in histograms_of(a) {
        let (Some(name), Some(count)) = (
            h.get("name").and_then(Json::as_str),
            h.get("count").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let q = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let buckets: Vec<String> = h
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|b| {
                let (lo, n) = (b.as_arr()?.first()?.as_u64()?, b.as_arr()?.get(1)?.as_u64()?);
                (n > 0).then(|| format!("\u{2265}{lo}:{n}"))
            })
            .collect();
        let _ = writeln!(
            out,
            "    hist {name:<37} n={count} mean={:.1} p50={:.0} p99={:.0} p999={:.0}  [{}]",
            q("mean"),
            q("p50"),
            q("p99"),
            q("p999"),
            buckets.join(" ")
        );
    }
    for warning in warnings(a) {
        let _ = writeln!(out, "  !! WARN: {warning}");
    }
    out
}

/// Histogram objects of an artifact's metrics snapshot.
fn histograms_of(a: &RunArtifact) -> &[Json] {
    a.metrics
        .get("histograms")
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

/// The two readings a counter dump cannot make on its own.
///
/// Shard imbalance: with hash placement only, a mean (max-min)/mean of
/// 20% or more means the dispatch keys skew the shards badly enough
/// that the ladder's scaling numbers stop being about the dispatch
/// plane. With the work-stealing plane on (`kernel.shard.steal_mode`)
/// the bar is Table 13's 5%: stealing should hold it there even on a
/// 99/1 key skew, so anything above means the plane misbehaves.
///
/// Checksum failures outside a bit-rot drill (`disk.faults.bitrot` 0)
/// mean real, not injected, corruption.
fn warnings(a: &RunArtifact) -> Vec<String> {
    let mut out = Vec::new();
    let imbalance = histograms_of(a)
        .iter()
        .find(|h| h.get("name").and_then(Json::as_str) == Some("kernel.shard.imbalance_pct"))
        .and_then(|h| h.get("mean").and_then(Json::as_f64));
    if let Some(mean) = imbalance {
        let stealing = a.counter("kernel.shard.steal_mode") > 0;
        if stealing && mean >= 5.0 {
            out.push(format!(
                "imbalance >= 5% with stealing on (mean {mean:.1}%), plane is misbehaving"
            ));
        } else if !stealing && mean >= 20.0 {
            out.push(format!("imbalance >= 20% (mean {mean:.1}%), dispatch keys are skewed"));
        }
    }
    let failures = a.counter("ld.checksum_failures");
    if failures > 0 && a.counter("disk.faults.bitrot") == 0 {
        out.push(format!(
            "{failures} checksum failures with no bit-rot drill armed — real corruption"
        ));
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

/// How far a baseline sample's `min_ns` may move in a `check` run, in
/// percent. Shared-container timing is noisy, so the envelope is
/// generous: it catches order-of-magnitude regressions (a string lookup
/// sneaking back onto a hot path), not scheduler jitter.
const ENVELOPE_PCT: f64 = 200.0;

/// `check` mode: every gate the run recorded, then every baseline
/// table and sample against the run. A failing or malformed gate, a
/// baseline table or sample missing from the run, and a sample outside
/// [`ENVELOPE_PCT`] each fail; samples only the run has are listed.
/// Returns the report and whether the run passed.
fn check(base_path: &str, run_path: &str, base: &RunArtifact, run: &RunArtifact) -> (String, bool) {
    let mut out = String::new();
    let mut failures = 0;
    let _ = writeln!(
        out,
        "# graftstat check: {run_path} against {base_path} (envelope {ENVELOPE_PCT}% on min_ns)"
    );
    if let Some(warning) = host_mismatch(base, run) {
        let _ = writeln!(out, "  !! WARN: {warning}");
    }
    let gates = run.gates();
    for (table, gate) in &gates {
        match gate {
            Ok(g) => {
                failures += usize::from(!g.passes());
                let _ = writeln!(out, "  gate {table}/{g}");
            }
            Err(err) => {
                failures += 1;
                let _ = writeln!(out, "  gate {table}: malformed ({err}) FAIL");
            }
        }
    }
    for table in base.tables.keys().filter(|t| !run.tables.contains_key(*t)) {
        failures += 1;
        let _ = writeln!(out, "  table {table}: in baseline, missing from run FAIL");
    }
    let report = diff(base, run);
    let drifted = report.drifted(ENVELOPE_PCT);
    for d in &drifted {
        let _ = writeln!(
            out,
            "  sample {:<44} {:>12} -> {:>12}  {:>+8.2}% FAIL",
            d.key,
            fmt_ns(d.base_ns),
            fmt_ns(d.cand_ns),
            d.pct()
        );
    }
    failures += drifted.len();
    for (key, in_base) in &report.missing {
        if *in_base {
            failures += 1;
            let _ = writeln!(out, "  sample {key}: in baseline, missing from run FAIL");
        } else {
            let _ = writeln!(out, "  sample {key}: run only, not compared");
        }
    }
    let _ = writeln!(
        out,
        "check: {} gates, {} of {} shared samples within {ENVELOPE_PCT}%; {failures} failure(s)",
        gates.len(),
        report.samples.len() - drifted.len(),
        report.samples.len(),
    );
    (out, failures == 0)
}

/// The host facts that decide whether two runs' timings compare.
const HOST_KEYS: [&str; 4] = ["os", "arch", "cores", "cpu_model"];

/// A warning naming each [`HOST_KEYS`] fact the baseline and the run
/// disagree on (a fact one side did not record counts as a
/// difference), or `None` when they ran on the same kind of host.
/// Samples from different machines still get compared; the warning
/// says why they may drift.
fn host_mismatch(base: &RunArtifact, run: &RunArtifact) -> Option<String> {
    let fact = |a: &RunArtifact, key: &str| match a.host.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(j) => j.to_string_compact(),
        None => "unrecorded".into(),
    };
    let diffs: Vec<String> = HOST_KEYS
        .iter()
        .filter_map(|key| {
            let (b, r) = (fact(base, key), fact(run, key));
            (b != r).then(|| format!("{key} {b} -> {r}"))
        })
        .collect();
    (!diffs.is_empty()).then(|| {
        format!(
            "baseline and run hosts differ ({}); timings compare across machines",
            diffs.join(", ")
        )
    })
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
            sub @ ("timeline" | "postmortem" | "check") if mode.is_none() && paths.is_empty() => {
                mode = Some(sub.to_string());
            }
            other => paths.push(other.to_string()),
        }
    }
    if mode.as_deref() == Some("check") {
        let [base, run] = paths.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        let (text, passed) = check(base, run, &load(base), &load(run));
        emit(&text);
        std::process::exit(if passed { 0 } else { 1 });
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
    use graft_core::artifact::{sample_json, table2_json, table3_json, table9_json, RunArtifact};
    use graft_core::experiment::{table2, table3, table9, RunConfig};
    use graft_core::gate::{Cmp, Gate};
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

    /// A metrics snapshot with the given counters and histograms.
    fn metrics(counters: &[(&str, u64)], histograms: Vec<Json>) -> Json {
        let mut c = Json::object();
        for (name, v) in counters {
            c.set(name, *v);
        }
        let mut m = Json::object();
        m.set("counters", c).set("histograms", histograms);
        m
    }

    fn histogram(name: &str, mean: f64, buckets: &[(u64, u64)]) -> Json {
        let pair = |&(lo, n): &(u64, u64)| Json::Arr(vec![Json::from(lo), Json::from(n)]);
        let mut h = Json::object();
        h.set("name", name)
            .set("count", buckets.iter().map(|b| b.1).sum::<u64>())
            .set("mean", mean)
            .set("p50", 1.0)
            .set("p99", 2.0)
            .set("p999", 3.0)
            .set("buckets", buckets.iter().map(pair).collect::<Vec<_>>());
        h
    }

    fn summary_of(counters: &[(&str, u64)], histograms: Vec<Json>) -> String {
        let mut art = artifact();
        art.metrics = metrics(counters, histograms);
        summarize("x.json", &art)
    }

    #[test]
    fn summary_prints_every_counter_and_histogram() {
        let text = summary_of(
            &[("server.requests", 4100), ("kernel.dispatches", 100), ("ld.scrub.passes", 5)],
            vec![
                histogram("kernel.chain_depth", 1.4, &[(1, 60), (2, 0), (4, 40)]),
                histogram("server.service_ns", 0.0, &[]),
            ],
        );
        let at = |name: &str| text.find(name).unwrap_or_else(|| panic!("{name}: {text}"));
        assert!(at("kernel.dispatches") < at("ld.scrub.passes"));
        assert!(at("ld.scrub.passes") < at("server.requests"));
        assert!(text.contains("synthetic/sample"), "{text}");
        // Tail quantiles and only the non-empty buckets.
        let depth = "n=100 mean=1.4 p50=1 p99=2 p999=3  [\u{2265}1:60 \u{2265}4:40]";
        assert!(text.contains(depth), "{text}");
        assert!(text.contains("hist server.service_ns"), "{text}");
        assert!(!text.contains("!! WARN"), "{text}");
    }

    #[test]
    fn checksum_failures_warn_only_outside_a_bitrot_drill() {
        let build = |failures, bitrot| {
            summary_of(&[("ld.checksum_failures", failures), ("disk.faults.bitrot", bitrot)], vec![])
        };
        assert!(!build(0, 0).contains("!! WARN"));
        // Failures during a bit-rot drill are expected (injected)...
        assert!(!build(7, 7).contains("!! WARN"));
        // ...but failures with no drill armed are real corruption.
        let rotted = build(7, 0);
        let warn = "!! WARN: 7 checksum failures with no bit-rot drill armed";
        assert!(rotted.contains(warn), "{rotted}");
    }

    /// A real offline artifact, read back from its JSON text, with a
    /// timed engine table (Table 2's rows are indexed samples) and a
    /// gated table (Table 9's gates are deterministic under its chaos
    /// seed).
    fn offline_artifact() -> RunArtifact {
        let cfg = RunConfig::offline();
        let mut art = RunArtifact::begin(&cfg);
        art.add_table("table2", table2_json(&table2(&cfg, Duration::from_millis(13)).unwrap()));
        art.add_table("table9", table9_json(&table9(&cfg).unwrap()));
        art.finish(&graft_telemetry::snapshot());
        RunArtifact::from_json_str(&art.to_pretty_string()).unwrap()
    }

    /// `check`'s report for `run` against `base`, asserting its verdict.
    fn checked(base: &RunArtifact, run: &RunArtifact, pass: bool) -> String {
        let (text, passed) = check("base.json", "run.json", base, run);
        assert_eq!(passed, pass, "{text}");
        text
    }

    #[test]
    fn check_passes_a_self_check_and_fails_each_planted_fault() {
        let base = offline_artifact();
        let text = checked(&base, &base, true);
        assert!(text.contains("gate table9/lost mappings total = 0 (== 0) pass"), "{text}");

        // A 4x min_ns slowdown on one engine row breaks the envelope.
        let key = "table2/rows/C/sample";
        let mut slow = base.clone();
        let min = slow.sample_best_ns(key).unwrap();
        slow.samples.get_mut(key).unwrap().set("min_ns", min * 4.0);
        let text = checked(&base, &slow, false);
        let line = text.lines().find(|l| l.contains(key)).unwrap_or_else(|| panic!("{text}"));
        assert!(line.contains("+300.00% FAIL"), "{line}");
        assert!(text.contains("1 failure(s)"), "{text}");

        // A gate flipped past its threshold fails by name.
        let mut flipped = base.clone();
        let table = flipped.tables.get_mut("table9").unwrap();
        let gates: Vec<Json> = table.get("gates").and_then(Json::as_arr).unwrap().to_vec();
        let flip = |g: Json| match g.get("name").and_then(Json::as_str) {
            Some("lost mappings total") => Gate::zero("lost mappings total", 1).to_json(),
            _ => g,
        };
        table.set("gates", gates.into_iter().map(flip).collect::<Vec<_>>());
        let text = checked(&base, &flipped, false);
        assert!(text.contains("gate table9/lost mappings total = 1 (== 0) FAIL"), "{text}");
    }

    #[test]
    fn check_warns_but_does_not_fail_when_the_hosts_differ() {
        let base = offline_artifact();
        let text = checked(&base, &base, true);
        assert!(!text.contains("!! WARN"), "{text}");
        let model = base.host.get("cpu_model").and_then(Json::as_str);
        assert!(model.is_some_and(|m| !m.is_empty()), "{:?}", base.host);

        // The committed baseline's shape: one core, no model recorded.
        let mut old = base.clone();
        old.host.set("cores", 1u64);
        if let Json::Obj(map) = &mut old.host {
            map.remove("cpu_model");
        }
        let mut run = base.clone();
        run.host.set("cores", 2u64).set("cpu_model", "Example CPU");
        let text = checked(&old, &run, true);
        let warn = text
            .lines()
            .find(|l| l.contains("!! WARN"))
            .unwrap_or_else(|| panic!("{text}"));
        assert!(warn.contains("cores 1 -> 2"), "{warn}");
        assert!(
            warn.contains("cpu_model unrecorded -> Example CPU"),
            "{warn}"
        );
        assert!(!warn.contains("arch"), "{warn}");
    }

    #[test]
    fn check_fails_what_the_run_is_missing_and_lists_what_only_it_has() {
        let base = offline_artifact();

        // A gate whose cell was not measured (`null` value) fails.
        let mut unmeasured = base.clone();
        let gate = Gate::new("cell @16", None, Cmp::Le, 5.0).to_json();
        unmeasured.tables.get_mut("table9").unwrap().set("gates", vec![gate]);
        let text = checked(&base, &unmeasured, false);
        assert!(text.contains("gate table9/cell @16 = unmeasured (<= 5) FAIL"), "{text}");

        // A baseline table absent from the run fails.
        let mut no_table = base.clone();
        no_table.tables.remove("table9");
        let text = checked(&base, &no_table, false);
        assert!(text.contains("table table9: in baseline, missing from run FAIL"), "{text}");

        // A baseline sample absent from the run fails; a sample only the
        // run has is listed and passes.
        let key = "table2/rows/Modula-3/sample";
        let mut older = base.clone();
        older.samples.remove(key);
        let text = checked(&base, &older, false);
        assert!(text.contains(&format!("sample {key}: in baseline, missing from run FAIL")));
        let text = checked(&older, &base, true);
        assert!(text.contains(&format!("sample {key}: run only, not compared")), "{text}");
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
        let text = summary_of(
            &[("kernel.shard.count", 2)],
            vec![histogram("kernel.shard.imbalance_pct", 25.0, &[(16, 1)])],
        );
        assert!(text.contains("!! WARN: imbalance >= 20%"), "{text}");
    }

    #[test]
    fn stealing_runs_tighten_the_imbalance_warning_to_five_percent() {
        // 8% imbalance: fine under hash placement, a plane failure when
        // the run had stealing on (`kernel.shard.steal_mode` > 0).
        let build = |stealing: bool| {
            summary_of(
                &[("kernel.shard.count", 2), ("kernel.shard.steal_mode", u64::from(stealing))],
                vec![histogram("kernel.shard.imbalance_pct", 8.0, &[(8, 1)])],
            )
        };
        let static_text = build(false);
        assert!(!static_text.contains("!! WARN"), "{static_text}");
        let steal_text = build(true);
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
