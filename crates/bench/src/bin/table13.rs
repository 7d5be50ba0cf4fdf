//! Regenerates Table 13: sharded dispatch scaling and adaptive dispatch
//! under skewed load — static hash placement vs the work-stealing
//! run-queue plane across the shard ladder (1/2/4/8/16 by default, or a
//! single count via `--shards N`). `--skew` restricts the run to one
//! key distribution (see `docs/kernel.md`, "Adaptive dispatch").

use graft_core::artifact::{self, RunArtifact};
use graft_core::experiment::{Skew, LADDER13};

fn main() {
    let cli = graft_bench::cli_from_args();
    let ladder: Vec<usize> = match cli.shards {
        Some(s) => vec![s],
        None => LADDER13.to_vec(),
    };
    let skews: Vec<Skew> = match cli.skew {
        Some(s) => vec![s],
        None => Skew::ALL.to_vec(),
    };
    let t =
        graft_core::experiment::table13_with(&cli.config, &ladder, &skews).expect("table 13 runs");
    print!("{}", graft_core::report::render_table13(&t));
    let mut art = RunArtifact::begin(&cli.config);
    art.add_table("table13", artifact::table13_json(&t));
    graft_bench::maybe_write_artifact(&cli, &mut art);
}
