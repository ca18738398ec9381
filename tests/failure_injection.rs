//! Failure-injection integration tests: the scenario driver's control
//! loop under fiber cuts, partitions, measurement noise, and demand
//! churn. Each timeline is a `.scn` spec built with `driver::build` and
//! run with `Engine::run_instrumented`, so the returned consumer's
//! fabric gives the post-run data-plane state.

use fubar::prelude::*;
use fubar::scenario::{driver, EventRecord, RunConfig, SdnConsumer};
use fubar::sdn::{Estimator, MeasurementConfig};
use fubar::topology::{format, generators};
use fubar::traffic::workload;

/// Builds `text` through the scenario driver, runs it at the spec's
/// seed, and returns the log plus the consumer for post-run checks.
fn run_scn(text: &str, config: &RunConfig) -> (ScenarioLog, SdnConsumer) {
    let spec = Scenario::parse(text).expect("spec parses");
    let engine = driver::build(&spec, spec.seed, config).expect("spec builds");
    let (log, _, consumer) = engine.run_instrumented(&spec.name, spec.seed);
    (log, consumer)
}

/// The record of the measurement epoch closing at `t` seconds.
fn epoch(log: &ScenarioLog, t: f64) -> &EventRecord {
    log.records
        .iter()
        .find(|r| r.what.starts_with("epoch") && r.time_s == t)
        .unwrap_or_else(|| panic!("no epoch closes at {t}s"))
}

/// The duplex link between two named nodes of the consumer's fabric.
fn link(consumer: &SdnConsumer, a: &str, b: &str) -> LinkId {
    let t = consumer.fabric().topology();
    t.graph()
        .find_link(t.node(a).unwrap(), t.node(b).unwrap())
        .unwrap()
}

/// Abilene under a Denver–KansasCity cut at 100 s; re-optimizations
/// fire at 15 s, 45 s, 75 s, 105 s, ...
fn abilene_cut(duration_s: u32) -> String {
    format!(
        "scenario abilene_cut\n\
         topology abilene 3Mbps\n\
         duration {duration_s}s\n\
         epoch 30s\n\
         seed 11\n\
         workload flows 3 8\n\
         reoptimize every 30s warmup 15s\n\
         at 100s fail Denver KansasCity\n"
    )
}

#[test]
fn controller_routes_around_a_cut_within_one_cycle() {
    // Just after the cut the stale rules still point at the dead link:
    // the fabric falls back to live shortest paths.
    let (_, stale) = run_scn(&abilene_cut(102), &RunConfig::default());
    assert!(stale.fabric().peek_full().fallback_count > 0);
    // One cycle later (the 105 s run) the installed rules avoid it:
    // no fallbacks, nothing crosses the dead link in either direction.
    let (log, fresh) = run_scn(&abilene_cut(110), &RunConfig::default());
    let report = fresh.fabric().peek_full();
    assert_eq!(report.fallback_count, 0);
    let cut = link(&fresh, "Denver", "KansasCity");
    let back = link(&fresh, "KansasCity", "Denver");
    for l in [cut, back] {
        assert_eq!(
            report.outcome.link_load[l.index()],
            Bandwidth::ZERO,
            "no traffic on the failed link after reoptimization"
        );
    }
    // Utility stays strictly positive throughout (no black-holing).
    for r in &log.records {
        assert!(r.utility > 0.2, "{}", r.to_line());
    }
}

#[test]
fn double_failure_still_converges() {
    let (log, consumer) = run_scn(
        "scenario double_failure\n\
         topology abilene 3Mbps\n\
         duration 300s\n\
         epoch 30s\n\
         seed 13\n\
         workload flows 3 8\n\
         reoptimize every 30s warmup 15s\n\
         at 50s fail Denver KansasCity\n\
         at 110s fail Chicago NewYork\n\
         at 230s repair Denver KansasCity\n\
         at 230s repair Chicago NewYork\n",
        &RunConfig::default(),
    );
    assert_eq!(epoch(&log, 120.0).failed_links, 4, "two duplex pairs down");
    assert_eq!(epoch(&log, 300.0).failed_links, 0, "both repaired");
    assert!(consumer.fabric().failed_links().is_empty());
    // After both repairs and a reoptimization, utility returns to the
    // healthy neighbourhood.
    let healthy = epoch(&log, 30.0).utility;
    let recovered = epoch(&log, 300.0).utility;
    assert!(
        recovered > healthy * 0.9,
        "recovery: healthy {healthy}, recovered {recovered}"
    );
}

#[test]
fn noise_and_drift_do_not_break_the_loop() {
    // The scenario driver measures with the default noise, so very
    // noisy counters (15%) are exercised on the controller directly:
    // measure every epoch, drift the demand, re-optimize every other
    // epoch on the noisy estimate.
    let topo = generators::abilene(Bandwidth::from_mbps(3.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (3, 8),
            ..Default::default()
        },
        17,
    );
    let mut fabric = Fabric::new(topo, tm, Delay::from_secs(30.0));
    let noisy = MeasurementConfig {
        noise_rel_std: 0.15,
        ..Default::default()
    };
    let mut estimator = Estimator::new(fabric.true_tm().len(), noisy, 23);
    let controller = FubarController::default();
    let mut previous: Option<Allocation> = None;
    let mut utilities = Vec::new();
    for epoch in 1..=12usize {
        // Deterministic drift: each aggregate steps -1, 0 or +1 flow,
        // clamped to [1, 16].
        for i in 0..fabric.true_tm().len() {
            let id = AggregateId(i as u32);
            let flows = fabric.flow_count(id);
            let next = match (i + epoch) % 3 {
                0 => flows + 1,
                1 => flows.saturating_sub(1),
                _ => flows,
            };
            fabric.set_flow_count(id, next.clamp(1, 16));
        }
        let report = fabric.run_epoch();
        estimator.observe(fabric.counters(), fabric.epoch_duration());
        utilities.push(report.report.network_utility);
        if epoch % 2 == 0 {
            let estimated = estimator.estimated_matrix(fabric.true_tm());
            let r = controller.reoptimize(&fabric, &estimated, previous.as_ref());
            fabric.install(r.rules);
            previous = Some(r.allocation);
        }
    }
    for &u in &utilities {
        assert!((0.0..=1.0).contains(&u), "utility {u}");
    }
    // The controller should still, on average, beat the boot state.
    let early: f64 = utilities[..3].iter().sum::<f64>() / 3.0;
    let late: f64 = utilities[9..].iter().sum::<f64>() / 3.0;
    assert!(
        late >= early - 0.05,
        "noisy control must not regress badly: early {early}, late {late}"
    );
}

#[test]
fn partitioning_failure_degrades_gracefully() {
    // A line topology: cutting any link partitions it. Traffic across
    // the cut black-holes (utility contribution 0) but the loop and the
    // rest of the network keep working.
    let dir = std::env::temp_dir().join(format!("fubar-line-partition-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let line = generators::line(4, Bandwidth::from_mbps(2.0), Delay::from_ms(2.0));
    std::fs::write(dir.join("line4.topo"), format::serialize(&line)).unwrap();
    let config = RunConfig {
        base: Some(dir.clone()),
        ..Default::default()
    };
    let (log, _) = run_scn(
        "scenario line_partition\n\
         topology file line4.topo\n\
         duration 70s\n\
         epoch 10s\n\
         seed 3\n\
         workload flows 2 4\n\
         reoptimize every 10s warmup 5s\n\
         at 22s fail n1 n2\n\
         at 52s repair n1 n2\n",
        &config,
    );
    std::fs::remove_dir_all(&dir).ok();
    let before = epoch(&log, 20.0).utility;
    let during = epoch(&log, 40.0).utility;
    let after = epoch(&log, 70.0).utility;
    assert!(during < before, "partition must hurt");
    assert!(during > 0.0, "intra-side traffic still flows");
    assert!(after > during, "repair restores utility");
}

/// Ring of 6 with both of n0's duplex links cut at 22 s and repaired at
/// 62 s; re-optimizations fire every 10 s from 5 s.
fn isolated_n0(duration_s: u32) -> String {
    format!(
        "scenario total_partition\n\
         topology ring 6 1Mbps 2ms\n\
         duration {duration_s}s\n\
         epoch 10s\n\
         seed 5\n\
         workload flows 2 4\n\
         reoptimize every 10s warmup 5s\n\
         at 22s fail n5 n0\n\
         at 22s fail n0 n1\n\
         at 62s repair n5 n0\n\
         at 62s repair n0 n1\n"
    )
}

#[test]
fn total_partition_carries_zero_utility_aggregates_and_revives() {
    // Cutting both of n0's duplex links isolates it outright — every
    // aggregate into or out of n0 has *no* physical path. The loop must
    // keep re-optimizing through the partition (warm start rebases
    // across the partitioned view), carry the dead aggregates at zero
    // utility without a single NaN, and revive them on repair.
    let (log, _) = run_scn(&isolated_n0(90), &RunConfig::default());
    for r in &log.records {
        assert!(
            r.utility.is_finite(),
            "total partition must never produce NaN/inf utility: {}",
            r.to_line()
        );
    }
    assert_eq!(epoch(&log, 30.0).failed_links, 4, "both duplex pairs down");
    let before = epoch(&log, 20.0).utility;
    let during = epoch(&log, 40.0).utility;
    let after = epoch(&log, 90.0).utility;
    assert!(during < before, "isolation must hurt: {during} vs {before}");
    assert!(during > 0.0, "the surviving arc still carries traffic");
    assert!(
        after > during,
        "repair + reoptimization must revive n0's aggregates"
    );
    assert!(
        after > before * 0.9,
        "recovery: before {before}, after {after}"
    );
    // Mid-partition, after two re-optimizations on the partitioned view,
    // n0's flows have nowhere to go and are carried at zero utility.
    let (_, mid) = run_scn(&isolated_n0(45), &RunConfig::default());
    let report = mid.fabric().peek_full();
    assert!(report.blackholed_flows > 0, "n0's aggregates are dead");
    assert!(report.report.network_utility.is_finite());
}

#[test]
fn chaos_partition_scenario_survives_total_isolation_of_n5() {
    // The committed worst case found by `scenario search`: the n5-n6
    // cut at 68s plus the scripted n4-n5 cut at 70s isolates n5 until
    // the 120s repair, with the optimizer starved to 4 moves per run.
    // The derived regression: utilities stay finite through the total
    // partition, the partition hurts, and repairs revive the node.
    let mut spec = fubar::scenario::catalog::load("chaos_partition").unwrap();
    spec.duration = fubar::topology::Delay::from_secs(170.0);
    let log = fubar::scenario::run(&spec, spec.seed).unwrap();
    let epochs: Vec<(f64, f64)> = log
        .records
        .iter()
        .filter(|r| r.what.starts_with("epoch"))
        .map(|r| (r.time_s, r.utility))
        .collect();
    for &(t, u) in &epochs {
        assert!(u.is_finite(), "NaN/inf utility at t={t}");
    }
    let min_in = |lo: f64, hi: f64| {
        epochs
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, u)| u)
            .fold(f64::INFINITY, f64::min)
    };
    let before = min_in(16.0, 60.0);
    let during = min_in(72.0, 120.0);
    let after = epochs
        .iter()
        .filter(|&&(t, _)| t >= 152.0)
        .map(|&(_, u)| u)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(during < before, "isolation must hurt: {during} vs {before}");
    assert!(during > 0.0, "the surviving arc still carries traffic");
    assert!(after > during, "repairs must revive: {after} vs {during}");
}
