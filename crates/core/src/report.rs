//! Paper-style rendering of experiment results.
//!
//! The binaries in `graft-bench` print these tables; EXPERIMENTS.md
//! records them next to the paper's originals.

use std::fmt::Write as _;
use std::time::Duration;

use crate::experiment::{
    Figure1, Skew, Table1, Table11, Table12, Table13, Table13Cell, Table14, Table2, Table3, Table4,
    Table5, Table6, Table7, Table8, Table9,
};

fn dur(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 10_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 10_000_000.0 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

fn line(out: &mut String, cols: &[&str], widths: &[usize]) {
    for (c, w) in cols.iter().zip(widths) {
        let _ = write!(out, "{c:<w$}  ", w = w);
    }
    out.push('\n');
}

/// Renders Table 1.
pub fn render_table1(t: &Table1) -> String {
    let mut out = String::new();
    out.push_str("Table 1. Signal Handling Time (paper \u{00a7}5.3)\n");
    match &t.signals {
        Some(s) => {
            let _ = writeln!(
                out,
                "  this host : {:.1}\u{00b5}s per handled signal   [group handled {} | group ignored {}]",
                s.per_signal_us,
                s.handled.paper_style(),
                s.ignored.paper_style()
            );
        }
        None => out.push_str("  this host : (live signal measurement unavailable)\n"),
    }
    let _ = writeln!(
        out,
        "  upcall    : {} round trip through the user-level server transport",
        t.upcall_roundtrip.paper_style()
    );
    let _ = writeln!(
        out,
        "  batched   : {} per call with {} calls per round trip",
        t.upcall_batched.paper_style(),
        t.batch
    );
    out.push_str("  paper     : ");
    for (name, us) in t.paper_us {
        let _ = write!(out, "{name} {us}\u{00b5}s  ");
    }
    out.push('\n');
    out
}

/// Renders Table 2.
pub fn render_table2(t: &Table2) -> String {
    let widths = [20, 30, 8, 11, 12, 6];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2. VM Page Eviction (fault time {}; model app saves 1 in {:.0})",
        dur(t.fault),
        t.invocations_per_save
    );
    line(
        &mut out,
        &["technology", "raw", "vs C", "vs native", "break-even", "note"],
        &widths,
    );
    for row in &t.rows {
        let note = if row.reduced_iters { "(reduced)" } else { "" };
        line(
            &mut out,
            &[
                row.tech.paper_name(),
                &row.sample.robust_style(),
                &format!("{:.2}", row.normalized),
                &format!("{:.1}", row.vs_native),
                &format!("{:.0}", row.break_even),
                note,
            ],
            &widths,
        );
    }
    out
}

/// Renders Table 3.
pub fn render_table3(t: &Table3) -> String {
    let mut out = String::new();
    out.push_str("Table 3. Page Fault Time\n");
    match &t.soft {
        Some(s) => {
            let _ = writeln!(out, "  soft (minor) fault, measured : {}", s.paper_style());
        }
        None => out.push_str("  soft (minor) fault           : (unavailable)\n"),
    }
    for (pages, time) in &t.hard {
        let _ = writeln!(
            out,
            "  hard fault, modeled          : {} ({} page read-ahead)",
            dur(*time),
            pages
        );
    }
    out.push_str("  paper: ");
    for (name, ms, pages) in t.paper {
        let _ = write!(out, "{name} {ms}ms/{pages}p  ");
    }
    out.push('\n');
    out
}

/// Renders Table 4.
pub fn render_table4(t: &Table4) -> String {
    let mut out = String::new();
    out.push_str("Table 4. Disk I/O Time\n");
    match &t.measured {
        Some(bw) => {
            let _ = writeln!(
                out,
                "  this host : {:.0} KB/s write bandwidth; 1MB access {}",
                bw.kb_per_sec(),
                dur(bw.megabyte_access())
            );
        }
        None => out.push_str("  this host : (live bandwidth measurement unavailable)\n"),
    }
    let _ = writeln!(
        out,
        "  model     : {:.0} KB/s; 1MB access {} (used as Table 5 denominator)",
        t.model.bandwidth / 1024.0,
        dur(t.model.megabyte_access())
    );
    out.push_str("  paper     : ");
    for (name, kbs, ms) in t.paper {
        let _ = write!(out, "{name} {kbs}KB/s/{ms}ms  ");
    }
    out.push('\n');
    out
}

/// Renders Table 5.
pub fn render_table5(t: &Table5) -> String {
    let widths = [20, 12, 8, 11, 10, 14];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 5. MD5 Fingerprinting of 1MB (disk 1MB access {})",
        dur(t.disk_mb)
    );
    line(
        &mut out,
        &["technology", "per MB", "vs C", "vs native", "MD5/disk", "hashed bytes"],
        &widths,
    );
    for row in &t.rows {
        line(
            &mut out,
            &[
                row.tech.paper_name(),
                &dur(row.per_mb),
                &format!("{:.2}", row.normalized),
                &format!("{:.1}", row.vs_native),
                &format!("{:.2}", row.md5_over_disk),
                &format!("{}", row.bytes),
            ],
            &widths,
        );
    }
    out
}

/// Renders Table 6.
pub fn render_table6(t: &Table6) -> String {
    let widths = [20, 30, 8, 11, 12, 10];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 6. Logical Disk, {} writes (batching saves {}/block)",
        t.writes,
        dur(t.saving_per_block)
    );
    line(
        &mut out,
        &["technology", "total", "vs C", "vs native", "per block", "pays off"],
        &widths,
    );
    for row in &t.rows {
        line(
            &mut out,
            &[
                row.tech.paper_name(),
                &row.total.robust_style(),
                &format!("{:.2}", row.normalized),
                &format!("{:.1}", row.vs_native),
                &dur(row.per_block),
                if row.pays_off { "yes" } else { "no" },
            ],
            &widths,
        );
    }
    let s = &t.sharded;
    let _ = writeln!(
        out,
        "  sharded plane ({} @{}): per block {} | {:.2} M blk/s | enqueued {} diverted {} steals {}",
        s.tech.paper_name(),
        s.shards,
        dur(s.per_block),
        s.throughput_m,
        s.enqueued,
        s.diverted,
        s.steals,
    );
    out
}

/// Renders Table 7, the multi-tenant churn benchmark.
pub fn render_table7(t: &Table7) -> String {
    let widths = [20, 26, 26, 10, 12, 12, 14];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 7. Multi-Tenant Churn (quarantine after {} traps; {} accesses/phase)",
        t.trap_threshold, t.accesses
    );
    line(
        &mut out,
        &[
            "technology",
            "baseline/access",
            "post-quarantine",
            "post/base",
            "trapped",
            "detach in",
            "detach after",
        ],
        &widths,
    );
    for row in &t.rows {
        line(
            &mut out,
            &[
                row.tech.paper_name(),
                &row.baseline.robust_style(),
                &row.post.robust_style(),
                &format!("{:.2}", row.post_over_baseline),
                &format!(
                    "{} ({})",
                    row.trapped_invocations,
                    row.quarantined_by.map(|k| k.name()).unwrap_or("-")
                ),
                &dur(row.quarantine_latency),
                &format!("{} accesses", row.churn_accesses),
            ],
            &widths,
        );
    }
    let _ = writeln!(
        out,
        "  host machinery: direct invoke {}  |  hosted chain-of-1 {}  |  empty chain {}",
        t.direct.robust_style(),
        t.hosted.robust_style(),
        t.empty_chain.robust_style()
    );
    let _ = writeln!(
        out,
        "  chain overhead vs direct: {:.0}ns/dispatch",
        t.chain_overhead_ns()
    );
    out
}

/// Renders Table 8: per-technology aggregate dispatch throughput (in
/// million accesses/second over the critical path) across the shard
/// ladder, with the top rung's speedup and scaling efficiency.
pub fn render_table8(t: &Table8) -> String {
    let mut out = String::new();
    let top = *t.ladder.last().expect("non-empty ladder");
    let _ = writeln!(
        out,
        "Table 8. Sharded Dispatch Throughput (M accesses/s over the critical path; {} runs/cell)",
        t.runs
    );
    let mut widths = vec![20usize];
    widths.extend(t.ladder.iter().map(|_| 12usize));
    widths.extend([12usize, 12usize]);
    let shard_headers: Vec<String> = t.ladder.iter().map(|s| format!("{s} shard(s)")).collect();
    let mut headers: Vec<&str> = vec!["technology"];
    headers.extend(shard_headers.iter().map(String::as_str));
    let speedup_h = format!("x{top}/x{}", t.ladder[0]);
    headers.push(&speedup_h);
    headers.push("efficiency");
    line(&mut out, &headers, &widths);
    for row in &t.rows {
        let cells: Vec<String> = row
            .cells
            .iter()
            .map(|c| format!("{:.3}", c.throughput_m))
            .collect();
        let speedup = row.speedup(top).unwrap_or(f64::NAN);
        let eff = row
            .cell(top)
            .map(|c| c.efficiency)
            .unwrap_or(f64::NAN);
        let mut cols: Vec<&str> = vec![row.tech.paper_name()];
        cols.extend(cells.iter().map(String::as_str));
        let speedup_s = format!("{speedup:.2}x");
        let eff_s = format!("{:.0}%", eff * 100.0);
        cols.push(&speedup_s);
        cols.push(&eff_s);
        line(&mut out, &cols, &widths);
    }
    out.push_str(
        "  (shards measured one at a time; critical path = slowest shard, i.e. the wall\n   clock on a machine with enough idle cores. See docs/kernel.md.)\n",
    );
    out
}

/// Renders Table 9: per-technology recovery costs plus the
/// fault-injected crash drill.
pub fn render_table9(t: &Table9) -> String {
    let widths = [20, 16, 18, 16, 12, 10, 10];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 9. Graft Recovery ({} writes over {} blocks; {} map words salvaged/row)",
        t.writes, t.blocks, t.blocks
    );
    line(
        &mut out,
        &[
            "technology",
            "snapshot",
            "salvage-detach",
            "restore",
            "recovery",
            "lost",
            "post/base",
        ],
        &widths,
    );
    for row in &t.rows {
        line(
            &mut out,
            &[
                row.tech.paper_name(),
                &row.snapshot.robust_style(),
                &row.salvage_detach.robust_style(),
                &row.restore.robust_style(),
                &dur(row.recovery),
                &row.lost_mappings.to_string(),
                &format!("{:.2}", row.post_over_base),
            ],
            &widths,
        );
    }
    let c = &t.crash;
    let _ = writeln!(
        out,
        "  crash drill (seed {}, {}\u{2030} io-err, {}\u{2030} torn): crash at flush #{}, \
         rebuilt {} mappings in {}, redid {} writes, recovery {}",
        t.plan.seed,
        t.plan.io_error_permille,
        t.plan.torn_permille,
        c.crash_after_ios,
        c.replayed,
        c.rebuild.robust_style(),
        c.redone,
        dur(c.time_to_recovery)
    );
    let _ = writeln!(
        out,
        "  fault accounting: {} ios, {} injected, {} retries, {} torn, {} exhausted, {} crash(es); lost mappings total: {}",
        c.faults.ios,
        c.faults.injected,
        c.faults.retries,
        c.faults.torn_writes,
        c.faults.exhausted,
        c.faults.crashes,
        t.lost_total()
    );
    out
}

/// Renders Table 14: durable-logdisk restore/scrub costs, the seeded
/// bit-rot drills, and per-technology post-restore hand-off, plus
/// machine-parseable `gate:` lines for the CI durability gates
/// (detection rate, silent corruption, restore exactness, post/base).
pub fn render_table14(t: &Table14) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 14. Durable Logdisk ({} writes over {} blocks; retention window {} LSNs, \
         {} entries retained / {} pruned)",
        t.writes, t.blocks, t.retention_window, t.retained_entries, t.pruned_entries
    );
    out.push_str("  restore-to-LSN cost vs distance behind the durable head:\n");
    let widths = [14, 14, 18, 12];
    line(&mut out, &["distance", "lsn", "restore", "mappings"], &widths);
    for p in &t.restore_curve {
        line(
            &mut out,
            &[
                &p.distance.to_string(),
                &p.lsn.to_string(),
                &p.restore.robust_style(),
                &p.mappings.to_string(),
            ],
            &widths,
        );
    }
    let _ = writeln!(
        out,
        "  scrub: {} segments / {} entries audited in {} = {:.1}M entries/s",
        t.scrub.segments,
        t.scrub.entries,
        t.scrub.scrub.robust_style(),
        t.scrub.throughput_m
    );
    let _ = writeln!(
        out,
        "  retention: {} passes, {} each (audit, fold and seal)",
        t.retention_pass.runs,
        t.retention_pass.robust_style()
    );
    out.push_str("  bit-rot drills (quiet plan + latent rot, one bit per strike):\n");
    let dwidths = [6, 9, 10, 9, 11, 7, 13, 10];
    line(
        &mut out,
        &[
            "seed", "injected", "corrupted", "detected", "dup-strikes", "redone", "silent-wrong",
            "recovery",
        ],
        &dwidths,
    );
    for d in &t.drills {
        line(
            &mut out,
            &[
                &d.seed.to_string(),
                &d.injected.to_string(),
                &d.corrupted.to_string(),
                &d.detected.to_string(),
                &d.undetected_by_design.to_string(),
                &d.redone.to_string(),
                &d.silent_wrong_map.to_string(),
                &dur(d.recovery),
            ],
            &dwidths,
        );
    }
    out.push_str("  post-restore hand-off (midpoint restore adopted into each technology):\n");
    let rwidths = [20, 18, 10, 12, 10];
    line(
        &mut out,
        &["technology", "adopt", "lookups", "mismatches", "post/base"],
        &rwidths,
    );
    for row in &t.rows {
        line(
            &mut out,
            &[
                row.tech.paper_name(),
                &row.adopt.robust_style(),
                &row.verified_lookups.to_string(),
                &row.lookup_mismatches.to_string(),
                &format!("{:.2}", row.post_over_base),
            ],
            &rwidths,
        );
    }
    // The CI gates grep these lines (scripts/verify.sh).
    let _ = writeln!(
        out,
        "  gate: bitrot detection rate = {:.0}%",
        t.detection_rate() * 100.0
    );
    let _ = writeln!(out, "  gate: silent wrong map = {}", t.silent_total());
    let _ = writeln!(
        out,
        "  gate: restore divergence = {}",
        t.restore_divergence
    );
    let _ = writeln!(out, "  gate: lookup mismatches = {}", t.mismatch_total());
    let _ = writeln!(
        out,
        "  gate: min post/base = {:.2}",
        t.min_post_over_base()
    );
    out.push_str(
        "  (restore audits the full retained history before replaying — a rotted record\n   is never believed; costs are dominated by that audit. See docs/recovery.md.)\n",
    );
    out
}

/// Renders Table 12: per-technology tracing overhead (ns per pager
/// access under off/gated/recording telemetry) plus the scalar-vs-
/// sharded postmortem drill verdict.
pub fn render_table12(t: &Table12) -> String {
    let widths = [20, 26, 26, 26, 9, 11];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 12. Flight-Recorder Overhead (ns/access on the Table 7 baseline rig; {} runs/mode)",
        t.runs
    );
    line(
        &mut out,
        &["technology", "off", "gated", "recording", "gated%", "recording%"],
        &widths,
    );
    for row in &t.rows {
        line(
            &mut out,
            &[
                row.tech.paper_name(),
                &row.off.robust_style(),
                &row.gated.robust_style(),
                &row.recording.robust_style(),
                &format!("{:+.1}", row.gated_overhead_pct),
                &format!("{:+.1}", row.recording_overhead_pct),
            ],
            &widths,
        );
    }
    let _ = writeln!(
        out,
        "  worst-case overhead: gated {:+.1}% | recording {:+.1}%",
        t.worst_gated_pct(),
        t.worst_recording_pct()
    );
    let d = &t.drill;
    let _ = writeln!(
        out,
        "  postmortem drill (seed {}, {} saboteur, threshold {}): scalar tail {} trap(s) | {}-shard tail {} trap(s) | tails {}",
        d.seed,
        d.scalar
            .as_ref()
            .map(|p| p.reason.name())
            .unwrap_or("missing"),
        d.trap_threshold,
        d.scalar_trapped,
        d.shards,
        d.sharded_trapped,
        if d.tails_match { "MATCH" } else { "DIVERGE" }
    );
    if !d.traced {
        out.push_str("  (flight recorder compiled out: tails empty by construction)\n");
    }
    out
}

/// Renders Table 13: static vs stealing dispatch across key skews and
/// the shard ladder, plus machine-parseable `gate:` lines for the CI
/// steal gate.
pub fn render_table13(t: &Table13) -> String {
    let mut out = String::new();
    let top = *t.ladder.last().expect("non-empty ladder");
    let _ = writeln!(
        out,
        "Table 13. Adaptive Dispatch Under Skew (steal/static speedup per rung; {} runs/mode)",
        t.runs
    );
    let mut widths = vec![20usize, 9usize];
    widths.extend(t.ladder.iter().map(|_| 8usize));
    widths.extend([13usize, 11usize, 10usize, 9usize]);
    let rung_headers: Vec<String> = t.ladder.iter().map(|s| format!("x{s}")).collect();
    let thr_h = format!("thr@{top}(M/s)");
    let mut headers: Vec<&str> = vec!["technology", "skew"];
    headers.extend(rung_headers.iter().map(String::as_str));
    headers.extend([thr_h.as_str(), "imb static", "imb steal", "steals"]);
    line(&mut out, &headers, &widths);
    for row in &t.rows {
        let speedups: Vec<String> = row
            .cells
            .iter()
            .map(|c| match c.speedup() {
                Some(s) => format!("{s:.2}x"),
                None => "-".into(),
            })
            .collect();
        let Some(tc) = row.cell(top) else { continue };
        let mut cols: Vec<&str> = vec![row.tech.paper_name(), row.skew.name()];
        cols.extend(speedups.iter().map(String::as_str));
        let fmt_thr = |m: &Option<crate::experiment::ModeResult>| match m {
            Some(m) => format!("{:.3}", m.throughput_m),
            None => "-".into(),
        };
        let fmt_imb = |m: &Option<crate::experiment::ModeResult>| match m {
            Some(m) => format!("{:.1}%", m.imbalance_pct),
            None => "-".into(),
        };
        let thr_s = fmt_thr(&tc.steal);
        let imb_st = fmt_imb(&tc.static_);
        let imb_ad = fmt_imb(&tc.steal);
        let steals_s = tc
            .steal
            .as_ref()
            .map(|m| m.steals.to_string())
            .unwrap_or_else(|| "-".into());
        cols.extend([thr_s.as_str(), imb_st.as_str(), imb_ad.as_str(), steals_s.as_str()]);
        line(&mut out, &cols, &widths);
    }
    // The CI gate greps these two lines (scripts/verify.sh).
    if let Some(row) = t.row(graft_api::Technology::RustNative, Skew::Skew9901) {
        if let Some(s) = row.cell(8).and_then(Table13Cell::speedup) {
            let _ = writeln!(out, "  gate: 99-1 @8 native steal/static = {s:.2}x");
        }
        if let Some(m) = row.cell(16).and_then(|c| c.steal.as_ref()) {
            let _ = writeln!(
                out,
                "  gate: 99-1 @16 native steal imbalance = {:.1}%",
                m.imbalance_pct
            );
        }
    }
    out.push_str(
        "  (same seeded trace both modes; imbalance = (max-min)/mean over per-shard\n   processed counts at the top rung. See docs/kernel.md \"Adaptive dispatch\".)\n",
    );
    out
}

/// Renders Table 11: the graft server under multi-tenant service
/// load, plus machine-parseable `gate:` lines for the CI service
/// gates (tenant scale, leakage, noisy-neighbor bound, quarantine).
pub fn render_table11(t: &Table11) -> String {
    let mut out = String::new();
    let top = *t.ladder.last().expect("non-empty ladder");
    let _ = writeln!(
        out,
        "Table 11. Graft Server Service Latency and Throughput ({} tenants, {} conns/cohort, {} reqs/rep, {} reps)",
        t.tenants, t.conns, t.requests, t.runs
    );
    let mut widths = vec![20usize, 9usize];
    widths.extend(t.ladder.iter().map(|_| 10usize));
    widths.extend([10usize, 10usize, 10usize, 8usize]);
    let rung_headers: Vec<String> = t.ladder.iter().map(|s| format!("kr/s x{s}")).collect();
    let p50_h = format!("p50@{top}");
    let p99_h = format!("p99@{top}");
    let p999_h = format!("p999@{top}");
    let mut headers: Vec<&str> = vec!["technology", "arrival"];
    headers.extend(rung_headers.iter().map(String::as_str));
    headers.extend([p50_h.as_str(), p99_h.as_str(), p999_h.as_str(), "steals"]);
    line(&mut out, &headers, &widths);
    for row in &t.rows {
        let thr: Vec<String> = row
            .cells
            .iter()
            .map(|c| format!("{:.1}", c.service.throughput_krps))
            .collect();
        let Some(tc) = row.cell(top) else { continue };
        let mut cols: Vec<&str> = vec![row.tech.paper_name(), row.arrival.name()];
        cols.extend(thr.iter().map(String::as_str));
        let p50 = dur(Duration::from_nanos(tc.service.p50_ns));
        let p99 = dur(Duration::from_nanos(tc.service.p99_ns));
        let p999 = dur(Duration::from_nanos(tc.service.p999_ns));
        let steals = tc.service.steals.to_string();
        cols.extend([p50.as_str(), p99.as_str(), p999.as_str(), steals.as_str()]);
        line(&mut out, &cols, &widths);
    }
    let d = &t.drill;
    let _ = writeln!(
        out,
        "  noisy-neighbor drill ({} victims x {} reqs @{} shards): quiet p99 {} | noisy p99 {} | saboteur rejections {} | victims served {}",
        d.victims,
        d.per_victim,
        d.shards,
        dur(Duration::from_nanos(d.quiet_p99_ns)),
        dur(Duration::from_nanos(d.noisy_p99_ns)),
        d.saboteur_rejections,
        d.victim_served
    );
    let _ = writeln!(
        out,
        "  hazards: {} conns churned cold mid-rep | {} slowloris frames dribbled and served",
        t.churned(),
        t.slowloris()
    );
    // The CI gates grep these lines (scripts/verify.sh).
    if let Some(s) = t
        .row(graft_api::Technology::RustNative, Skew::Uniform)
        .and_then(|r| r.worker_scaling(4))
    {
        let _ = writeln!(out, "  gate: native worker scaling @4 = {s:.2}x");
    }
    let _ = writeln!(out, "  gate: tenants = {}", t.tenants);
    let _ = writeln!(out, "  gate: cross-tenant leakage = {}", t.leaked);
    let _ = writeln!(
        out,
        "  gate: noisy victim p99 / quiet p99 = {:.2}x",
        d.victim_p99_ratio
    );
    let _ = writeln!(
        out,
        "  gate: saboteur quarantined = {}",
        if d.saboteur_quarantined { "yes" } else { "no" }
    );
    out.push_str(
        "  (latency measured server-side, admission to completion; throughput over the\n   serve-phase critical path — max(serial pump+reap, busiest worker) — best rep,\n   as on a machine with enough idle cores. See docs/server.md.)\n",
    );
    out
}

/// Renders Figure 1 as a CSV series plus the horizontal lines.
pub fn render_figure1(f: &Figure1) -> String {
    let mut out = String::new();
    out.push_str("Figure 1. Break-Even vs Upcall Time\n");
    let _ = writeln!(
        out,
        "# lines: safe-compiled={:.0} sfi={:.0} bytecode={:.0}",
        f.safe_line, f.sfi_line, f.bytecode_line
    );
    if let Some(w) = f.competitive_upcall {
        let _ = writeln!(
            out,
            "# user-level server competitive below upcall = {}",
            dur(w)
        );
    }
    if let Some(m) = f.measured_upcall {
        let _ = writeln!(out, "# measured upcall round trip on this host = {}", dur(m));
    }
    out.push_str("upcall_us,user_level_break_even\n");
    for p in &f.series {
        let _ = writeln!(
            out,
            "{:.0},{:.1}",
            p.upcall.as_secs_f64() * 1e6,
            p.user_level_break_even
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{figure1, table1, table2, table3, table4, table6, RunConfig};
    use kernsim::DiskModel;
    use std::time::Duration;

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

    #[test]
    fn tables_render_without_panicking_and_mention_key_items() {
        let cfg = tiny();
        let t1 = table1(&cfg).unwrap();
        assert!(render_table1(&t1).contains("Signal"));

        let t2 = table2(&cfg, Duration::from_millis(13)).unwrap();
        let s = render_table2(&t2);
        assert!(s.contains("Modula-3"));
        assert!(s.contains("Omniware"));
        assert!(s.contains("Tcl"));
        assert!(s.contains("break-even"));

        let t3 = table3(&cfg, DiskModel::default());
        assert!(render_table3(&t3).contains("read-ahead"));

        let t4 = table4(&cfg, false);
        assert!(render_table4(&t4).contains("KB/s"));

        let t6 = table6(&cfg, &DiskModel::default()).unwrap();
        let s6 = render_table6(&t6);
        assert!(s6.contains("per block"));
        assert!(!s6.contains("Tcl"), "no Tcl row in Table 6");

        let fig = figure1(&t2, None);
        let sf = render_figure1(&fig);
        assert!(sf.contains("upcall_us"));
        assert!(sf.lines().count() > 50);
    }

    #[test]
    fn offline_tables_render_the_unavailable_branches() {
        let cfg = tiny();
        // Offline: no live signal or bandwidth measurement exists, so
        // the renderers must take their "(unavailable)" arms.
        let t1 = table1(&cfg).unwrap();
        assert!(t1.signals.is_none());
        assert!(render_table1(&t1).contains("unavailable"));

        let t3 = table3(&cfg, DiskModel::default());
        assert!(t3.soft.is_none());
        assert!(render_table3(&t3).contains("(unavailable)"));

        let t4 = table4(&cfg, false);
        assert!(t4.measured.is_none());
        assert!(render_table4(&t4).contains("unavailable"));
        // The model row still prints the Table 5 denominator.
        assert!(render_table4(&t4).contains("denominator"));
    }

    #[test]
    fn table5_renders_rows_and_ratios() {
        let cfg = tiny();
        let t4 = table4(&cfg, false);
        let t5 = crate::experiment::table5(&cfg, t4.megabyte_access()).unwrap();
        let s = render_table5(&t5);
        assert!(s.contains("MD5 Fingerprinting"));
        assert!(s.contains("MD5/disk"));
        assert!(s.contains("Modula-3"));
        assert!(s.contains("hashed bytes"));
    }

    #[test]
    fn figure1_csv_carries_the_annotations_and_51_points() {
        let cfg = tiny();
        let t2 = table2(&cfg, Duration::from_millis(13)).unwrap();
        let fig = figure1(&t2, Some(Duration::from_micros(7)));
        let s = render_figure1(&fig);
        assert!(s.contains("# lines:"));
        assert!(s.contains("measured upcall round trip"));
        // Header + comment lines + exactly one CSV row per µs 0..=50.
        let csv_rows = s
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .count();
        assert_eq!(csv_rows, 51);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(dur(Duration::from_nanos(500)), "500ns");
        assert_eq!(dur(Duration::from_micros(25)), "25.0µs");
        assert_eq!(dur(Duration::from_millis(25)), "25.0ms");
        assert_eq!(dur(Duration::from_secs(3)), "3.00s");
    }
}
