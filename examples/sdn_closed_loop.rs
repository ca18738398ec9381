//! The deployment story (paper §2.1, §5): FUBAR as a periodic offline
//! controller over a simulated SDN fabric, with noisy measurement,
//! Poisson flow churn, and a mid-run fiber cut — a `.scn` timeline run
//! through the scenario driver.
//!
//! Run with: `cargo run --release --example sdn_closed_loop`

use fubar::prelude::*;
use fubar::scenario::{driver, RunConfig};

/// A mid-size research backbone with tight links so the controller has
/// real work to do. The Denver–KansasCity trunk is cut at 200 s and
/// repaired at 380 s; the controller re-optimizes at 60 s, 150 s,
/// 240 s, ...
const SPEC: &str = "\
scenario sdn_closed_loop
topology abilene 3Mbps
duration 540s
epoch 30s
seed 11
workload flows 3 10
reoptimize every 90s warmup 60s
arrivals rate 0.05 max-flows 12
departures prob 0.05
at 200s fail Denver KansasCity
at 380s repair Denver KansasCity
";

fn main() {
    let spec = Scenario::parse(SPEC).expect("spec parses");
    let engine = driver::build(&spec, spec.seed, &RunConfig::default()).expect("spec builds");
    let (log, _, consumer) = engine.run_instrumented(&spec.name, spec.seed);
    let fabric = consumer.fabric();
    println!("{}", fabric.topology().summary());
    println!(
        "{} aggregates, demand {}",
        fabric.true_tm().len(),
        fabric.true_tm().total_demand()
    );

    println!("time_s,utility,congested_links,failed_links,live_flows,event");
    for r in log.records.iter().filter(|r| {
        r.what.starts_with("epoch") || r.commits.is_some() || r.what.starts_with("fail")
    }) {
        println!(
            "{},{:.4},{},{},{},{}",
            r.time_s, r.utility, r.congested_links, r.failed_links, r.live_flows, r.what
        );
    }

    let epoch_utility = |t: f64| {
        log.records
            .iter()
            .find(|r| r.what.starts_with("epoch") && r.time_s == t)
            .expect("epoch closes")
            .utility
    };
    let before_cut = epoch_utility(180.0);
    let stale = epoch_utility(210.0);
    let rerouted = epoch_utility(270.0);
    let after_repair = epoch_utility(510.0);
    println!(
        "fiber cut at 200s: utility {before_cut:.4} -> {stale:.4} on the stale \
         rules (the fabric falls back to live shortest paths, so nothing \
         black-holes), {rerouted:.4} after the 240s re-optimization, \
         {after_repair:.4} after the repair at 380s"
    );
    assert!(
        log.records.iter().all(|r| r.utility > 0.0),
        "the network must never black-hole"
    );
    assert_eq!(
        fabric.peek_full().fallback_count,
        0,
        "the last re-optimization must leave no rule pointing at a dead link"
    );
}
