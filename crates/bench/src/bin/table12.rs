//! Regenerates Table 12: flight-recorder overhead per technology
//! (off / gated / recording telemetry on the Table 7 baseline rig)
//! plus the 1-shard-vs-4-shard quarantine postmortem drill.

use graft_core::artifact::{self, RunArtifact};

fn main() {
    let cli = graft_bench::cli_from_args();
    let t = graft_core::experiment::table12(&cli.config).expect("table 12 runs");
    print!("{}", graft_core::report::render_table12(&t));
    let mut art = RunArtifact::begin(&cli.config);
    art.add_table("table12", artifact::table12_json(&t));
    graft_bench::maybe_write_artifact(&cli, &mut art);
}
