//! The `he_cold` workload: Table 1's provisioned case, one cold
//! `Optimizer::run` from shortest paths on the HE-961 matrix. No fabric
//! and no engine are involved.

use crate::clock::Stamp;
use crate::{Counts, Instance, Layers};
use fubar_core::experiments::{paper_inputs, CaseOptions, Scenario as Case};
use fubar_core::{OptimizeResult, Optimizer, OptimizerConfig};
use fubar_topology::generators;
use fubar_traffic::TrafficMatrix;
use std::fmt::Write as _;

/// The result rendered as text, every float in its round-trip form, so
/// two runs compare byte for byte.
fn render(seed: u64, r: &OptimizeResult) -> String {
    let mut out = format!(
        "# he_cold seed {seed} commits {} termination {:?}\n",
        r.commits, r.termination
    );
    for p in r.trace.points() {
        let _ = writeln!(
            out,
            "point commits={} utility={:?} congested={}",
            p.commits, p.network_utility, p.congested_links
        );
    }
    for m in &r.moves {
        let _ = writeln!(out, "move {m:?}");
    }
    let _ = writeln!(out, "final utility={:?}", r.report.network_utility);
    out
}

fn check(r: &OptimizeResult, tm: &TrafficMatrix) -> Result<(), String> {
    let utilities = r
        .trace
        .points()
        .iter()
        .map(|p| p.network_utility)
        .chain([r.report.network_utility]);
    for u in utilities {
        if !u.is_finite() || !(0.0..=1.0).contains(&u) {
            return Err(format!("utility {u} is non-finite or outside [0, 1]"));
        }
    }
    r.allocation
        .validate(tm)
        .map_err(|e| format!("final allocation: {e}"))
}

/// One cold optimization of the instance `seed`; `traced` adds the
/// topology/traffic split of the set-up time.
pub fn run(seed: u64, traced: bool) -> Result<Instance, String> {
    let started = Stamp::now();
    let topology_s = if traced {
        let t = Stamp::now();
        std::hint::black_box(generators::he_core(Case::Provisioned.capacity()));
        t.elapsed()
    } else {
        0.0
    };
    let inputs = Stamp::now();
    let (topo, tm) = paper_inputs(Case::Provisioned, seed, &CaseOptions::default());
    let inputs_s = inputs.elapsed();
    let setup_s = started.elapsed();

    let optimized = Stamp::now();
    let result = Optimizer::new(&topo, &tm, OptimizerConfig::default()).run();
    let optimize_s = optimized.elapsed();
    let rendered = Stamp::now();
    let output = render(seed, &result);
    let log_render_s = rendered.elapsed();
    let run_s = started.elapsed();

    check(&result, &tm)?;
    // The optimizer's events are its commits. Its trace stamps them on
    // the wall clock; the run's CPU time is shared out among them in
    // proportion to their wall-clock gaps, which cancels a slowdown the
    // host spreads evenly over the run.
    let points = result.trace.points();
    let span = points.last().map_or(0.0, |p| p.elapsed.as_secs_f64());
    let steps = points
        .windows(2)
        .map(|w| (w[1].elapsed - w[0].elapsed).as_secs_f64() * optimize_s / span)
        .collect();
    let (trunk, others) = result.shards.split_last().map_or((0.0, 0.0), |(t, o)| {
        (t.score_s, o.iter().map(|s| s.score_s).sum())
    });
    let layers = if traced {
        Layers {
            topology_build_s: topology_s,
            traffic_generate_s: (inputs_s - topology_s).max(0.0),
            reoptimize_s: optimize_s,
            trunk_score_s: trunk,
            shard_score_s: others,
            log_render_s,
            ..Layers::default()
        }
    } else {
        Layers::default()
    };
    Ok(Instance {
        setup_s,
        run_s,
        loop_s: optimize_s,
        events: result.commits,
        measure_s: steps,
        reopt_s: vec![optimize_s],
        utility: result.report.network_utility,
        counts: Counts {
            events: 0,
            reopts: 0,
            commits: result.commits,
            fills: result.scratch.fills,
            peak_component: result.scratch.peak_component,
        },
        output,
        layers,
    })
}
