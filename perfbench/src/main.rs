//! perfbench: one wall-clock benchmark for graftbench.
//!
//! ```text
//! perfbench --workload <grafts|serve|ldisk> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets the whole system up (several times, reporting the
//! median), then measures all three operation families in short rounds:
//! each round runs a slice of every family, the chosen workload's family
//! the longest, so every family is sampled across the whole run and
//! every run reports every metric. With `--trace 0` it prints the
//! end-to-end metrics, measured with telemetry off; with `--trace 1` it
//! measures each slice both untraced and traced, and prints the
//! per-layer metrics, the tracing overhead, and how well each layer
//! breakdown adds back up. The last line of standard output is the JSON
//! result; the exit code is nonzero if any oracle or breakdown check
//! failed.
//!
//! See `README.md` in this directory for the metric catalogue.

mod common;
mod grafts_wl;
mod ldisk_wl;
mod probe;
mod report;
mod serve_wl;
mod stats;
mod tech;

use std::process::ExitCode;
use std::time::Instant;

use common::{Budget, Tally, BREAKDOWN_TOL};
use grafts_wl::GraftsRun;
use ldisk_wl::LdiskRun;
use probe::{SpanLog, Tap};
use report::Metrics;
use serve_wl::ServeRun;

/// Set-ups per untraced run; `setup_s` is their median. The first is
/// the one the run uses; the others are spread between the rounds and
/// dropped, so that they sample the host's speed across the whole run.
const SETUPS: usize = 9;
/// Share of the run the chosen workload's family gets; the other two
/// split the rest.
const FOCUS_SHARE: f64 = 0.5;
/// Share of the serve family spent in the closed loop.
const CLOSED_SHARE: f64 = 0.4;
/// Spans kept in memory in a traced run.
const SPAN_CAP: usize = 400_000;
/// Length of one round, s. The host's speed drifts over seconds; short
/// rounds spread every family's samples over the whole run.
const ROUND_S: f64 = 0.5;
/// Fewest rounds in a run.
const MIN_ROUNDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Grafts,
    Serve,
    Ldisk,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Grafts => "grafts",
            Workload::Serve => "serve",
            Workload::Ldisk => "ldisk",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "grafts" => Workload::Grafts,
                    "serve" => Workload::Serve,
                    "ldisk" => Workload::Ldisk,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (grafts, serve or ldisk)")?,
        seed,
        seconds,
        trace,
    })
}

/// Everything set-up builds.
struct Rigs {
    grafts_inputs: grafts_wl::Inputs,
    grafts: grafts_wl::GraftsRig,
    ldisk: ldisk_wl::LdiskRig,
    serve: serve_wl::ServeRig,
}

/// Builds the engines (Grail compile, IR verify, SFI instrument), fills
/// the logdisk history, and starts the server and its workers. A traced
/// set-up wraps the server's engines in a switchable tap.
fn setup(seed: u64, nproc: usize, trace: bool) -> Result<Rigs, graft_api::GraftError> {
    let grafts_inputs = grafts_wl::inputs(seed);
    let grafts = grafts_wl::build(&grafts_inputs, false)?;
    let ldisk = ldisk_wl::build(seed);
    let serve = serve_wl::build(seed, nproc, trace.then(Tap::new));
    Ok(Rigs {
        grafts_inputs,
        grafts,
        ldisk,
        serve,
    })
}

/// Median relative worsening of the traced metrics over the untraced.
fn overhead(traced: &Metrics, plain: &Metrics) -> f64 {
    let mut rel: Vec<f64> = plain
        .0
        .iter()
        .filter_map(|p| {
            let t = traced.get(&p.name)?;
            let worse = if p.higher_is_better {
                p.value - t
            } else {
                t - p.value
            };
            Some(worse / p.value)
        })
        .collect();
    rel.sort_by(f64::total_cmp);
    rel.get(rel.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Reports one breakdown ratio and counts it as failed when it sits
/// more than [`BREAKDOWN_TOL`] from 1.
fn breakdown_check(out: &mut Metrics, tally: &mut Tally, op: &str, ratio: f64) {
    tally.check("breakdown", (ratio - 1.0).abs() <= BREAKDOWN_TOL);
    out.put(format!("breakdown.{op}"), ratio, "ratio");
}

fn print_family(family: &str, metrics: &Metrics) {
    for m in &metrics.0 {
        println!("[{family}] {} = {} {}", m.name, m.value, m.unit);
    }
}

/// Seconds of each round one family gets.
struct Shares {
    grafts: f64,
    serve: f64,
    ldisk: f64,
}

fn shares(workload: Workload, round: f64) -> Shares {
    let rest = (1.0 - FOCUS_SHARE) / 2.0;
    let pick = |w| round * if w == workload { FOCUS_SHARE } else { rest };
    Shares {
        grafts: pick(Workload::Grafts),
        serve: pick(Workload::Serve),
        ldisk: pick(Workload::Ldisk),
    }
}

/// The untraced and the traced measurements of each family.
#[derive(Default)]
struct Runs {
    serve: [ServeRun; 2],
    grafts: [GraftsRun; 2],
    ldisk: [LdiskRun; 2],
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // End-to-end numbers are measured with the program's telemetry off;
    // traced slices switch it on.
    graft_telemetry::set_enabled(false);
    graft_telemetry::set_tracing(false);

    let timed_setup = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let rigs = setup(args.seed, nproc, args.trace);
        setup_s.push(t.elapsed().as_secs_f64());
        rigs.map_err(|e| eprintln!("perfbench: set-up failed: {e}"))
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let Ok(mut rigs) = timed_setup(&mut setup_s) else {
        return ExitCode::from(2);
    };
    let extra_setups = if args.trace { 0 } else { SETUPS - 1 };
    let mut traced_grafts = if args.trace {
        match grafts_wl::build(&rigs.grafts_inputs, true) {
            Ok(rig) => Some(rig),
            Err(e) => {
                eprintln!("perfbench: traced set-up failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    let rounds = ((args.seconds / ROUND_S).round() as usize).max(MIN_ROUNDS);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} workers={} rounds={rounds}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rigs.serve.workers()
    );

    // A traced run splits every slice into an untraced and a traced
    // half, alternating which goes first.
    let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let share = shares(
        args.workload,
        args.seconds / rounds as f64 / halves.len() as f64,
    );
    let mut tally = Tally::default();
    let mut log = SpanLog::with_capacity(if args.trace { SPAN_CAP } else { 0 });
    let mut runs = Runs {
        grafts: [GraftsRun::new(false), GraftsRun::new(true)],
        ..Runs::default()
    };
    for round in 0..rounds {
        for k in 0..3 {
            for h in 0..halves.len() {
                let traced = halves[(h + round) % halves.len()];
                let t = usize::from(traced);
                graft_telemetry::set_enabled(traced);
                match (k + round) % 3 {
                    0 => serve_wl::run(
                        &mut rigs.serve,
                        Budget::share(CLOSED_SHARE, share.serve),
                        Budget::share(1.0 - CLOSED_SHARE, share.serve),
                        traced,
                        &mut runs.serve[t],
                        &mut log,
                        &mut tally,
                    ),
                    1 => {
                        let rig = match traced_grafts.as_mut() {
                            Some(rig) if traced => rig,
                            _ => &mut rigs.grafts,
                        };
                        grafts_wl::run(
                            rig,
                            &rigs.grafts_inputs,
                            Budget::share(1.0, share.grafts),
                            &mut runs.grafts[t],
                            &mut log,
                            &mut tally,
                        )
                    }
                    _ => ldisk_wl::run(
                        &mut rigs.ldisk,
                        Budget::share(1.0, share.ldisk),
                        traced,
                        &mut runs.ldisk[t],
                        &mut log,
                        &mut tally,
                    ),
                }
                graft_telemetry::set_enabled(false);
            }
        }
        while setup_s.len() - 1 < (round + 1) * extra_setups / rounds {
            let Ok(spare) = timed_setup(&mut setup_s) else {
                return ExitCode::from(2);
            };
            drop(spare);
        }
    }
    setup_s.sort_by(f64::total_cmp);
    let setup_median = setup_s[setup_s.len() / 2];
    let workers = rigs.serve.shutdown(&mut log, &mut tally);

    let [s_plain, s_traced] = &runs.serve;
    let [g_plain, g_traced] = &runs.grafts;
    let [l_plain, l_traced] = &runs.ldisk;
    let families = [
        ("serve", serve_wl::end_to_end(s_plain)),
        ("grafts", grafts_wl::end_to_end(g_plain)),
        ("ldisk", ldisk_wl::end_to_end(l_plain)),
    ];
    for (family, m) in &families {
        print_family(family, m);
    }
    let mut setup = Metrics::default();
    setup.put("setup_s", setup_median, "s");
    print_family("all", &setup);

    let reported = if args.trace {
        let mut layers = Metrics::default();
        layers.extend(serve_wl::tail(s_plain));
        layers.extend(serve_wl::layers(s_traced));
        layers.extend(serve_wl::worker_layers(&workers));
        layers.extend(grafts_wl::layers(g_traced));
        layers.extend(ldisk_wl::layers(l_traced));
        layers.extend(ldisk_wl::restore_tail(l_plain));
        let traced_e2e = [
            serve_wl::end_to_end(s_traced),
            grafts_wl::end_to_end(g_traced),
            ldisk_wl::end_to_end(l_traced),
        ];
        for ((family, plain), traced) in families.iter().zip(&traced_e2e) {
            layers.put(
                format!("trace.overhead.{family}"),
                overhead(traced, plain),
                "ratio",
            );
        }
        breakdown_check(
            &mut layers,
            &mut tally,
            "serve",
            stats::ratio(
                serve_wl::closed_parts_per_req(s_traced),
                serve_wl::closed_wall_per_req(s_plain),
            ),
        );
        for (op, r) in grafts_wl::breakdown(g_traced, g_plain) {
            breakdown_check(&mut layers, &mut tally, &op, r);
        }
        breakdown_check(
            &mut layers,
            &mut tally,
            "restore",
            stats::ratio(
                ldisk_wl::restore_parts_p50(l_traced),
                ldisk_wl::restore_p50(l_plain),
            ),
        );
        print_family("layer", &layers);
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("perfbench-spans")));
        if let Some(dir) = dir {
            let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
            match log.write_tsv(&path) {
                Ok(()) => println!("spans {} written to {}", log.len(), path.display()),
                Err(e) => eprintln!("perfbench: could not write spans: {e}"),
            }
        }
        layers
    } else {
        let mut e2e = Metrics::default();
        for (_, m) in families {
            e2e.extend(m);
        }
        e2e.extend(setup);
        e2e
    };
    for (op, attempted, failed) in tally.iter() {
        println!("ops {op} attempted={attempted} failed={failed}");
    }
    println!("{}", report::result_json(&tally, &reported));
    if tally.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
