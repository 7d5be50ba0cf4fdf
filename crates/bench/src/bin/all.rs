//! Regenerates every table and figure in paper order.

use graft_core::artifact::{self, RunArtifact};
use graft_core::{experiment, report};

fn main() {
    let cli = graft_bench::cli_from_args();
    let cfg = cli.config;
    eprintln!("# running with {cfg:?}");
    let mut art = RunArtifact::begin(&cfg);

    let t1 = experiment::table1(&cfg).expect("table 1");
    println!("{}", report::render_table1(&t1));
    art.add_table("table1", artifact::table1_json(&t1));

    let t3 = experiment::table3(&cfg, kernsim::DiskModel::default());
    println!("{}", report::render_table3(&t3));
    art.add_table("table3", artifact::table3_json(&t3));

    let fault = t3.hard_single_page();
    let t2 = experiment::table2(&cfg, fault).expect("table 2");
    println!("{}", report::render_table2(&t2));
    art.add_table("table2", artifact::table2_json(&t2));

    let t4 = experiment::table4(&cfg, false);
    println!("{}", report::render_table4(&t4));
    art.add_table("table4", artifact::table4_json(&t4));

    let t5 = experiment::table5(&cfg, t4.megabyte_access()).expect("table 5");
    println!("{}", report::render_table5(&t5));
    art.add_table("table5", artifact::table5_json(&t5));

    let t6 = experiment::table6(&cfg, &t4.model).expect("table 6");
    println!("{}", report::render_table6(&t6));
    art.add_table("table6", artifact::table6_json(&t6));

    let t7 = experiment::table7(&cfg).expect("table 7");
    println!("{}", report::render_table7(&t7));
    art.add_table("table7", artifact::table7_json(&t7));

    let t9 = experiment::table9(&cfg).expect("table 9");
    println!("{}", report::render_table9(&t9));
    art.add_table("table9", artifact::table9_json(&t9));

    let ladder11: Vec<usize> = match cli.shards {
        Some(s) => vec![s],
        None => experiment::LADDER11.to_vec(),
    };
    let arrivals: Vec<experiment::Skew> = match cli.arrival {
        Some(a) => vec![a],
        None => experiment::ARRIVALS11.to_vec(),
    };
    let default_load = experiment::ServiceLoad::default();
    let load = experiment::ServiceLoad {
        tenants: cli.tenants.unwrap_or(default_load.tenants),
        conns: cli.conns.unwrap_or(default_load.conns),
    };
    let t11 = experiment::table11_with(&cfg, &ladder11, &arrivals, &load).expect("table 11");
    println!("{}", report::render_table11(&t11));
    art.add_table("table11", artifact::table11_json(&t11));

    let t12 = experiment::table12(&cfg).expect("table 12");
    println!("{}", report::render_table12(&t12));
    art.add_table("table12", artifact::table12_json(&t12));

    let ladder13: Vec<usize> = match cli.shards {
        Some(s) => vec![s],
        None => experiment::LADDER13.to_vec(),
    };
    let skews: Vec<experiment::Skew> = match cli.skew {
        Some(s) => vec![s],
        None => experiment::Skew::ALL.to_vec(),
    };
    let t13 = experiment::table13_with(&cfg, &ladder13, &skews).expect("table 13");
    println!("{}", report::render_table13(&t13));
    art.add_table("table13", artifact::table13_json(&t13));

    let t14 = experiment::table14(&cfg).expect("table 14");
    println!("{}", report::render_table14(&t14));
    art.add_table("table14", artifact::table14_json(&t14));

    let measured = std::time::Duration::from_nanos(t1.upcall_roundtrip.mean_ns as u64);
    let fig = experiment::figure1(&t2, Some(measured));
    print!("{}", report::render_figure1(&fig));
    art.add_table("figure1", artifact::figure1_json(&fig));

    graft_bench::maybe_write_artifact(&cli, &mut art);
}
