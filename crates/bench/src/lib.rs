//! Shared plumbing for the table/figure binaries.
//!
//! Each binary regenerates one of the paper's evaluation artifacts:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table1` | Table 1 (signal handling, upcall round trip) |
//! | `table2` | Table 2 (VM page eviction) |
//! | `table3` | Table 3 (page fault time) |
//! | `table4` | Table 4 (disk I/O time) |
//! | `table5` | Table 5 (MD5 fingerprinting) |
//! | `table6` | Table 6 (Logical Disk) |
//! | `table7` | Table 7 (ours: multi-tenant churn under graft-host) |
//! | `table9` | Table 9 (ours: graft recovery under fault injection) |
//! | `table11` | Table 11 (ours: graft-server multi-tenant service benchmark) |
//! | `table12` | Table 12 (ours: flight-recorder overhead + postmortem drill) |
//! | `table13` | Table 13 (ours: sharded dispatch scaling and adaptive dispatch under skewed load) |
//! | `table14` | Table 14 (ours: durable logdisk — scrub, bit-rot drills, restore) |
//! | `figure1` | Figure 1 (break-even vs upcall time, CSV) |
//! | `all` | everything, in paper order |
//! | `graftstat` | summarize/diff run artifacts; `timeline`/`postmortem` modes |
//!
//! All accept `--quick` (default), `--full` (paper-scale counts),
//! `--offline` (skip live host measurements), `--json <path>` (write
//! the machine-readable run artifact), `--no-telemetry` (disable
//! metric recording at runtime, for observer-effect checks), and
//! `--trace` (arm the flight recorder: every dispatch appends causal
//! trace events, surfaced in the artifact's `metrics.traces` and by
//! `graftstat timeline`).
//! Fault injection is opt-in via `--faults <seed>` (a seeded
//! [`kernsim::FaultPlan::chaos`] plan) and `--fault-rate <permille>`
//! (override the transient I/O-error rate; torn writes run at half
//! that); any experiment that prices disk work routes it through a
//! `FaultyDisk` under the plan, and Table 9's drill adopts it for its
//! seeded crash.

use std::path::PathBuf;

use graft_core::artifact::RunArtifact;
use graft_core::experiment::RunConfig;

/// Usage string shared by `--help` and error reporting.
pub const USAGE: &str = "usage: [--quick|--full] [--offline] [--json <path>] [--no-telemetry] [--trace] [--shards <n>] [--skew <uniform|8020|9901>] [--tenants <n>] [--conns <n>] [--arrival <uniform|8020|9901>] [--faults <seed>] [--fault-rate <permille>]";

/// Parsed command line: the run configuration plus artifact options.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Iteration counts and live-measurement switches.
    pub config: RunConfig,
    /// Where to write the JSON run artifact, when requested.
    pub json: Option<PathBuf>,
    /// Whether telemetry recording stays enabled (`--no-telemetry`
    /// turns the runtime toggle off).
    pub telemetry: bool,
    /// `--trace`: arm the flight recorder so every dispatch appends
    /// causal trace events (a no-op in noop-telemetry builds).
    pub trace: bool,
    /// `--shards <n>`: pin the sharded experiments (Tables 11 and 13)
    /// to one shard count instead of their default ladders.
    /// Validated at parse time — 0 and counts beyond what the machine
    /// could plausibly run (`max(available_parallelism, 16)`) are
    /// rejected as [`CliError::BadValue`] instead of panicking inside
    /// `ShardedHost` construction.
    pub shards: Option<usize>,
    /// `--skew <uniform|8020|9901>`: restrict Table 13 to one key
    /// skew instead of all three.
    pub skew: Option<graft_core::experiment::Skew>,
    /// `--tenants <n>`: Table 11's simulated tenant population.
    /// Validated at parse time — 0 and populations beyond 1,000,000
    /// are rejected as [`CliError::BadValue`].
    pub tenants: Option<usize>,
    /// `--conns <n>`: Table 11's open connections per serving cohort.
    /// Validated at parse time — 0 and counts beyond 10,000 are
    /// rejected as [`CliError::BadValue`].
    pub conns: Option<usize>,
    /// `--arrival <uniform|8020|9901>`: restrict Table 11 to one
    /// arrival skew instead of its default pair.
    pub arrival: Option<graft_core::experiment::Skew>,
}

/// A CLI parse outcome that is not a runnable configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h`: the caller should print [`USAGE`] and exit 0.
    Help,
    /// An unrecognized flag.
    Unknown(String),
    /// A flag that requires a value did not get one.
    MissingValue(String),
    /// A flag value that did not parse (e.g. `--shards zero`).
    BadValue(String, String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "{USAGE}"),
            CliError::Unknown(flag) => {
                write!(f, "unknown flag `{flag}` (try --help)\n{USAGE}")
            }
            CliError::MissingValue(flag) => {
                write!(f, "flag `{flag}` needs a value\n{USAGE}")
            }
            CliError::BadValue(flag, value) => {
                write!(f, "flag `{flag}` got unusable value `{value}`\n{USAGE}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Parses flags from an explicit argument list against this machine's
/// available parallelism. Pure apart from the parallelism probe: no
/// process exit, no I/O — errors come back as values so they are
/// testable.
pub fn parse_cli(args: &[String]) -> Result<Cli, CliError> {
    let par = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    parse_cli_with_parallelism(args, par)
}

/// [`parse_cli`] with the parallelism injected, so the `--shards`
/// ceiling is testable on any machine. The ceiling is
/// `max(parallelism, 16)`: single-core CI containers must still be
/// able to run the default 16-rung Table 13 ladder shard-at-a-time,
/// but a 4 096-shard request is a typo everywhere.
pub fn parse_cli_with_parallelism(args: &[String], parallelism: usize) -> Result<Cli, CliError> {
    let shard_cap = parallelism.max(16);
    let mut cli = Cli {
        config: RunConfig::quick(),
        json: None,
        telemetry: true,
        trace: false,
        shards: None,
        skew: None,
        tenants: None,
        conns: None,
        arrival: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => cli.config = RunConfig::full(),
            "--quick" => cli.config = RunConfig::quick(),
            "--offline" => cli.config.live = false,
            "--no-telemetry" => cli.telemetry = false,
            "--trace" => cli.trace = true,
            "--json" => {
                let path = it
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--json".into()))?;
                cli.json = Some(PathBuf::from(path));
            }
            "--shards" => {
                let n = it
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--shards".into()))?;
                let parsed: usize = n
                    .parse()
                    .ok()
                    .filter(|&v| (1..=shard_cap).contains(&v))
                    .ok_or_else(|| CliError::BadValue("--shards".into(), n.clone()))?;
                cli.shards = Some(parsed);
            }
            "--skew" => {
                let s = it
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--skew".into()))?;
                let parsed = graft_core::experiment::Skew::parse(s)
                    .ok_or_else(|| CliError::BadValue("--skew".into(), s.clone()))?;
                cli.skew = Some(parsed);
            }
            "--tenants" => {
                let n = it
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--tenants".into()))?;
                let parsed: usize = n
                    .parse()
                    .ok()
                    .filter(|&v| (1..=1_000_000).contains(&v))
                    .ok_or_else(|| CliError::BadValue("--tenants".into(), n.clone()))?;
                cli.tenants = Some(parsed);
            }
            "--conns" => {
                let n = it
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--conns".into()))?;
                let parsed: usize = n
                    .parse()
                    .ok()
                    .filter(|&v| (1..=10_000).contains(&v))
                    .ok_or_else(|| CliError::BadValue("--conns".into(), n.clone()))?;
                cli.conns = Some(parsed);
            }
            "--arrival" => {
                let s = it
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--arrival".into()))?;
                let parsed = graft_core::experiment::Skew::parse(s)
                    .ok_or_else(|| CliError::BadValue("--arrival".into(), s.clone()))?;
                cli.arrival = Some(parsed);
            }
            "--faults" => {
                let n = it
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--faults".into()))?;
                let seed: u64 = n
                    .parse()
                    .map_err(|_| CliError::BadValue("--faults".into(), n.clone()))?;
                // Keep rates a prior --fault-rate configured; re-seed.
                cli.config.faults = Some(match cli.config.faults {
                    Some(plan) => kernsim::FaultPlan { seed, ..plan },
                    None => kernsim::FaultPlan::chaos(seed),
                });
            }
            "--fault-rate" => {
                let n = it
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--fault-rate".into()))?;
                let permille: u16 = n
                    .parse()
                    .ok()
                    .filter(|&v| v <= 1000)
                    .ok_or_else(|| CliError::BadValue("--fault-rate".into(), n.clone()))?;
                let plan = cli
                    .config
                    .faults
                    .unwrap_or_else(|| kernsim::FaultPlan::chaos(42));
                cli.config.faults = Some(kernsim::FaultPlan {
                    io_error_permille: permille,
                    torn_permille: permille / 2,
                    ..plan
                });
            }
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::Unknown(other.to_string())),
        }
    }
    Ok(cli)
}

/// Parses the common flags into a [`RunConfig`], ignoring artifact
/// options (kept for callers that only need iteration counts).
pub fn config_from(args: &[String]) -> Result<RunConfig, CliError> {
    parse_cli(args).map(|cli| cli.config)
}

/// Parses the process's own arguments, applying the telemetry toggle;
/// on `--help` prints usage and exits 0, on bad flags exits 2. This is
/// the only place the CLI layer touches the process.
pub fn cli_from_args() -> Cli {
    match parse_cli(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(cli) => {
            graft_telemetry::set_enabled(cli.telemetry);
            graft_telemetry::set_tracing(cli.trace);
            cli
        }
        Err(CliError::Help) => {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    }
}

/// Back-compat wrapper: parse the process arguments into a config.
pub fn config_from_args() -> RunConfig {
    cli_from_args().config
}

/// Writes the run artifact if `--json` was given; reports the path on
/// stderr so table output on stdout stays clean.
pub fn maybe_write_artifact(cli: &Cli, artifact: &mut RunArtifact) {
    let Some(path) = &cli.json else { return };
    artifact.finish(&graft_telemetry::snapshot());
    match artifact.write_file(path) {
        Ok(()) => eprintln!("# wrote run artifact to {}", path.display()),
        Err(err) => {
            eprintln!("error: cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
}

/// The fault time Table 2's break-even uses: the modeled single-page
/// hard fault from Table 3.
pub fn fault_time(cfg: &RunConfig) -> std::time::Duration {
    let t3 = graft_core::experiment::table3(cfg, kernsim::DiskModel::default());
    t3.hard_single_page()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_is_quick_and_live() {
        let cli = parse_cli(&[]).unwrap();
        assert_eq!(cli.config.runs, RunConfig::quick().runs);
        assert!(cli.config.live);
        assert!(cli.telemetry);
        assert!(cli.json.is_none());
    }

    #[test]
    fn full_and_offline_compose() {
        let cfg = config_from(&strings(&["--full", "--offline"])).unwrap();
        assert_eq!(cfg.runs, RunConfig::full().runs);
        assert!(!cfg.live);
    }

    #[test]
    fn json_flag_takes_a_path() {
        let cli = parse_cli(&strings(&["--offline", "--json", "out.json"])).unwrap();
        assert_eq!(cli.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(!cli.config.live);
    }

    #[test]
    fn json_without_path_is_an_error_value() {
        assert_eq!(
            parse_cli(&strings(&["--json"])),
            Err(CliError::MissingValue("--json".into()))
        );
    }

    #[test]
    fn unknown_flags_are_error_values_not_exits() {
        let err = parse_cli(&strings(&["--frobnicate"])).unwrap_err();
        assert_eq!(err, CliError::Unknown("--frobnicate".into()));
        assert!(err.to_string().contains("usage:"));
    }

    #[test]
    fn help_is_a_distinguished_error() {
        assert_eq!(parse_cli(&strings(&["-h"])), Err(CliError::Help));
        assert_eq!(parse_cli(&strings(&["--help"])), Err(CliError::Help));
    }

    #[test]
    fn no_telemetry_flag_parses() {
        let cli = parse_cli(&strings(&["--no-telemetry"])).unwrap();
        assert!(!cli.telemetry);
    }

    #[test]
    fn trace_flag_parses_and_defaults_off() {
        assert!(!parse_cli(&[]).unwrap().trace);
        let cli = parse_cli(&strings(&["--trace", "--offline"])).unwrap();
        assert!(cli.trace);
        assert!(cli.telemetry);
    }

    #[test]
    fn shards_flag_parses_and_validates() {
        assert_eq!(parse_cli(&strings(&[])).unwrap().shards, None);
        let cli = parse_cli(&strings(&["--shards", "4"])).unwrap();
        assert_eq!(cli.shards, Some(4));
        assert_eq!(
            parse_cli(&strings(&["--shards"])),
            Err(CliError::MissingValue("--shards".into()))
        );
        assert_eq!(
            parse_cli(&strings(&["--shards", "0"])),
            Err(CliError::BadValue("--shards".into(), "0".into()))
        );
        assert_eq!(
            parse_cli(&strings(&["--shards", "many"])),
            Err(CliError::BadValue("--shards".into(), "many".into()))
        );
    }

    #[test]
    fn shards_ceiling_tracks_parallelism_with_a_ladder_floor() {
        // A single-core box still admits the 16-rung ladder...
        let cli = parse_cli_with_parallelism(&strings(&["--shards", "16"]), 1).unwrap();
        assert_eq!(cli.shards, Some(16));
        // ...but not absurd counts;
        assert_eq!(
            parse_cli_with_parallelism(&strings(&["--shards", "17"]), 1),
            Err(CliError::BadValue("--shards".into(), "17".into()))
        );
        // a wider machine raises the ceiling to its parallelism.
        let cli = parse_cli_with_parallelism(&strings(&["--shards", "48"]), 48).unwrap();
        assert_eq!(cli.shards, Some(48));
        assert_eq!(
            parse_cli_with_parallelism(&strings(&["--shards", "49"]), 48),
            Err(CliError::BadValue("--shards".into(), "49".into()))
        );
    }

    #[test]
    fn skew_flag_parses() {
        use graft_core::experiment::Skew;
        assert_eq!(parse_cli(&[]).unwrap().skew, None);
        let cli = parse_cli(&strings(&["--skew", "99-1"])).unwrap();
        assert_eq!(cli.skew, Some(Skew::Skew9901));
        assert_eq!(
            parse_cli(&strings(&["--skew", "uniform"])).unwrap().skew,
            Some(Skew::Uniform)
        );
        assert_eq!(
            parse_cli(&strings(&["--skew"])),
            Err(CliError::MissingValue("--skew".into()))
        );
        assert_eq!(
            parse_cli(&strings(&["--skew", "zipf"])),
            Err(CliError::BadValue("--skew".into(), "zipf".into()))
        );
    }

    #[test]
    fn tenants_and_conns_flags_parse_and_validate() {
        let cli = parse_cli(&[]).unwrap();
        assert_eq!(cli.tenants, None);
        assert_eq!(cli.conns, None);
        let cli = parse_cli(&strings(&["--tenants", "10000", "--conns", "64"])).unwrap();
        assert_eq!(cli.tenants, Some(10_000));
        assert_eq!(cli.conns, Some(64));
        assert_eq!(
            parse_cli(&strings(&["--tenants"])),
            Err(CliError::MissingValue("--tenants".into()))
        );
        assert_eq!(
            parse_cli(&strings(&["--tenants", "0"])),
            Err(CliError::BadValue("--tenants".into(), "0".into()))
        );
        assert_eq!(
            parse_cli(&strings(&["--tenants", "1000001"])),
            Err(CliError::BadValue("--tenants".into(), "1000001".into()))
        );
        assert_eq!(
            parse_cli(&strings(&["--conns", "0"])),
            Err(CliError::BadValue("--conns".into(), "0".into()))
        );
        assert_eq!(
            parse_cli(&strings(&["--conns", "10001"])),
            Err(CliError::BadValue("--conns".into(), "10001".into()))
        );
    }

    #[test]
    fn arrival_flag_parses_the_skew_spellings() {
        use graft_core::experiment::Skew;
        assert_eq!(parse_cli(&[]).unwrap().arrival, None);
        let cli = parse_cli(&strings(&["--arrival", "8020"])).unwrap();
        assert_eq!(cli.arrival, Some(Skew::Skew8020));
        assert_eq!(
            parse_cli(&strings(&["--arrival", "uniform"])).unwrap().arrival,
            Some(Skew::Uniform)
        );
        assert_eq!(
            parse_cli(&strings(&["--arrival"])),
            Err(CliError::MissingValue("--arrival".into()))
        );
        assert_eq!(
            parse_cli(&strings(&["--arrival", "poisson"])),
            Err(CliError::BadValue("--arrival".into(), "poisson".into()))
        );
    }

    #[test]
    fn faults_flag_arms_a_seeded_chaos_plan() {
        assert_eq!(parse_cli(&strings(&[])).unwrap().config.faults, None);
        let cli = parse_cli(&strings(&["--faults", "7"])).unwrap();
        assert_eq!(cli.config.faults, Some(kernsim::FaultPlan::chaos(7)));
        assert_eq!(
            parse_cli(&strings(&["--faults"])),
            Err(CliError::MissingValue("--faults".into()))
        );
        assert_eq!(
            parse_cli(&strings(&["--faults", "lots"])),
            Err(CliError::BadValue("--faults".into(), "lots".into()))
        );
    }

    #[test]
    fn fault_rate_overrides_rates_in_any_flag_order() {
        let cli = parse_cli(&strings(&["--faults", "7", "--fault-rate", "100"])).unwrap();
        let plan = cli.config.faults.unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.io_error_permille, 100);
        assert_eq!(plan.torn_permille, 50);
        // Rate first, then seed: the rate survives the re-seed.
        let cli = parse_cli(&strings(&["--fault-rate", "100", "--faults", "7"])).unwrap();
        assert_eq!(cli.config.faults.unwrap(), plan);
        // Rate alone defaults the seed.
        let cli = parse_cli(&strings(&["--fault-rate", "8"])).unwrap();
        assert_eq!(cli.config.faults.unwrap().seed, 42);
        assert_eq!(
            parse_cli(&strings(&["--fault-rate", "1001"])),
            Err(CliError::BadValue("--fault-rate".into(), "1001".into()))
        );
    }

    #[test]
    fn fault_time_is_disk_dominated() {
        let cfg = RunConfig::offline();
        let f = fault_time(&cfg);
        assert!(f.as_millis() >= 4, "{f:?}");
    }
}
