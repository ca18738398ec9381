//! The scenario workloads (`he_churn`, `planetary_surge`).
//!
//! An untraced run goes through the production stack:
//! `driver::inputs_at`, `Fabric::new`, the bundled `SdnConsumer` and
//! `Engine::run_instrumented`, with the engine assembled here as
//! `driver::build` assembles it, so that the traffic matrix and the
//! stochastic draws can take separate seeds.
//! [`Checked`] wraps the consumer only to time each event from outside
//! and to keep a replica of its estimator, so the final allocation can
//! be validated against the matrix it was planned for.
//!
//! A traced run swaps in [`Replica`], which makes the same public calls
//! the `SdnConsumer` makes (`Fabric::peek`, `Fabric::run_epoch`,
//! `FubarController::reoptimize`, ...) with a timer around each. Its log
//! must equal the production log byte for byte, which checks that the
//! spans time the same computation.

use crate::clock::Stamp;
use crate::{Counts, Instance, Layers};
use fubar_core::{Allocation, ShardRunStats};
use fubar_graph::LinkId;
use fubar_model::WorkspaceStats;
use fubar_scenario::{
    driver, Action, ChurnSource, Engine, Event, EventConsumer, EventKind, FailureSource, Measure,
    Scenario, ScenarioLog, SdnConsumer, TopologySpec,
};
use fubar_sdn::{EpochReport, Estimator, Fabric, FubarController, MeasurementConfig};
use fubar_topology::{generators, Delay, Topology};
use fubar_traffic::{AggregateId, TrafficMatrix};

/// The driver derives the measurement-noise seed from the run seed
/// this way (`driver::build_oracle_knobs_at`); the replica must match.
const MEASUREMENT_SEED_MIX: u64 = 0x5eed;

/// Resolves the spec's timeline against the concrete inputs, as
/// `driver::build` does for the directives the benchmark's specs use.
fn timeline(
    spec: &Scenario,
    topo: &Topology,
    tm: &TrafficMatrix,
) -> Result<Vec<(Delay, EventKind)>, String> {
    let link = |a: &str, b: &str| -> Result<LinkId, String> {
        let (na, nb) = (
            topo.node(a).map_err(|e| e.to_string())?,
            topo.node(b).map_err(|e| e.to_string())?,
        );
        topo.graph()
            .find_link(na, nb)
            .ok_or_else(|| format!("no link between {a} and {b}"))
    };
    let pair = |a: &str, b: &str| -> Result<Vec<AggregateId>, String> {
        let (na, nb) = (
            topo.node(a).map_err(|e| e.to_string())?,
            topo.node(b).map_err(|e| e.to_string())?,
        );
        Ok(tm.for_pair(na, nb).to_vec())
    };
    let mut out = Vec::new();
    for e in &spec.timeline {
        match &e.action {
            Action::Fail { a, b } => out.push((e.at, EventKind::LinkFailure { link: link(a, b)? })),
            Action::Repair { a, b } => {
                out.push((e.at, EventKind::LinkRecovery { link: link(a, b)? }))
            }
            Action::Surge { src, dst, factor } => {
                for aggregate in pair(src, dst)? {
                    let factor = *factor;
                    out.push((e.at, EventKind::Surge { aggregate, factor }));
                }
            }
            Action::Relax { src, dst } => {
                for aggregate in pair(src, dst)? {
                    out.push((e.at, EventKind::Relax { aggregate }));
                }
            }
            Action::Reoptimize => out.push((e.at, EventKind::Reoptimize)),
            other => return Err(format!("timeline action {other:?} is not benchmarked")),
        }
    }
    Ok(out)
}

fn engine<C: EventConsumer>(
    spec: &Scenario,
    consumer: C,
    timeline: Vec<(Delay, EventKind)>,
    draw_seed: u64,
) -> Engine<C> {
    let churn = (spec.arrivals.is_some() || spec.departures.is_some()).then(|| {
        ChurnSource::new(
            draw_seed,
            spec.arrivals.clone(),
            spec.departures.clone(),
            spec.diurnal.clone(),
        )
    });
    let failures = spec
        .failures
        .clone()
        .map(|f| FailureSource::new(draw_seed, f));
    Engine::new(
        consumer,
        spec.duration,
        spec.epoch,
        Some((spec.reoptimize.warmup, spec.reoptimize.every)),
        timeline,
        churn,
        failures,
    )
}

/// The production consumer, timed per event from outside.
struct Checked {
    inner: SdnConsumer,
    /// Replica of the consumer's estimator (same seed, same counters).
    estimator: Estimator,
    /// The matrix the last re-optimization planned for.
    planned_for: Option<TrafficMatrix>,
    measure_s: Vec<f64>,
    reopt_s: Vec<f64>,
}

impl EventConsumer for Checked {
    fn on_event(&mut self, event: &Event) -> Measure {
        let reopt = event.kind == EventKind::Reoptimize;
        if reopt {
            let tm = self.inner.fabric().true_tm();
            self.planned_for = Some(self.estimator.estimated_matrix(tm));
        }
        let started = Stamp::now();
        let m = self.inner.on_event(event);
        let secs = started.elapsed();
        if reopt {
            self.reopt_s.push(secs);
        } else {
            self.measure_s.push(secs);
        }
        if event.kind == EventKind::MeasurementEpoch {
            let fabric = self.inner.fabric();
            self.estimator
                .observe(fabric.counters(), fabric.epoch_duration());
        }
        m
    }
    fn describe(&self, event: &Event) -> String {
        self.inner.describe(event)
    }
    fn take_followups(&mut self) -> Vec<(Delay, EventKind)> {
        self.inner.take_followups()
    }
    fn aggregate_count(&self) -> usize {
        self.inner.aggregate_count()
    }
    fn flow_count(&self, aggregate: AggregateId) -> u32 {
        self.inner.flow_count(aggregate)
    }
    fn churn_target(&self, aggregate: AggregateId) -> f64 {
        self.inner.churn_target(aggregate)
    }
    fn healthy_duplex_links(&self) -> Vec<LinkId> {
        self.inner.healthy_duplex_links()
    }
}

/// Checks common to both paths: every logged number finite, every
/// utility in [0, 1], and the final allocation valid for its matrix.
fn check(
    log: &ScenarioLog,
    allocation: Option<&Allocation>,
    planned_for: Option<&TrafficMatrix>,
) -> Result<(), String> {
    for r in &log.records {
        if !r.time_s.is_finite() || !r.utility.is_finite() {
            return Err(format!("non-finite number at seq {}", r.seq));
        }
        if !(0.0..=1.0).contains(&r.utility) {
            return Err(format!(
                "utility {} outside [0, 1] at seq {}",
                r.utility, r.seq
            ));
        }
    }
    match (allocation, planned_for) {
        (Some(a), Some(tm)) => a.validate(tm).map_err(|e| format!("final allocation: {e}")),
        (None, None) => Ok(()),
        _ => Err("re-optimization left no allocation".to_string()),
    }
}

fn counts(log: &ScenarioLog, scratch: WorkspaceStats) -> Counts {
    Counts {
        events: log.records.len(),
        reopts: log.reoptimizations(),
        commits: log.total_commits(),
        fills: scratch.fills,
        peak_component: scratch.peak_component,
    }
}

/// One instance through the production stack.
pub fn production(spec: &Scenario, matrix_seed: u64, draw_seed: u64) -> Result<Instance, String> {
    let started = Stamp::now();
    let (topo, tm) = driver::inputs_at(spec, matrix_seed, None).map_err(|e| e.to_string())?;
    let timeline = timeline(spec, &topo, &tm)?;
    let n = tm.len();
    let fabric = Fabric::new(topo, tm, spec.epoch);
    let measurement_seed = draw_seed ^ MEASUREMENT_SEED_MIX;
    let consumer = Checked {
        inner: SdnConsumer::new(fabric, measurement_seed, spec.reoptimize.warm_start),
        estimator: Estimator::new(n, MeasurementConfig::default(), measurement_seed),
        planned_for: None,
        measure_s: Vec::new(),
        reopt_s: Vec::new(),
    };
    let engine = engine(spec, consumer, timeline, draw_seed);
    let setup_s = started.elapsed();

    let looped = Stamp::now();
    let (log, _, consumer) = engine.run_instrumented(&spec.name, draw_seed);
    let loop_s = looped.elapsed();
    let output = log.to_text();
    let run_s = started.elapsed();

    check(
        &log,
        consumer.inner.previous_allocation(),
        consumer.planned_for.as_ref(),
    )?;
    Ok(Instance {
        setup_s,
        run_s,
        loop_s,
        events: log.records.len(),
        measure_s: consumer.measure_s,
        reopt_s: consumer.reopt_s,
        utility: log.mean_epoch_utility(),
        counts: counts(&log, consumer.inner.scratch_stats()),
        output,
        layers: Layers::default(),
    })
}

/// Builds the spec's topology alone, as `driver::inputs_at` does, so
/// the traced run can split topology build from traffic generation.
fn topology(spec: &TopologySpec) -> Result<Topology, String> {
    match spec {
        TopologySpec::He { capacity } => Ok(generators::he_core(*capacity)),
        TopologySpec::Planetary { capacity } => Ok(generators::planetary(16, 16, *capacity)),
        other => Err(format!("topology {other:?} is not benchmarked")),
    }
}

/// The `SdnConsumer`'s event handling, rebuilt from the same public
/// calls with a timer around each layer.
struct Replica {
    fabric: Fabric,
    estimator: Estimator,
    controller: FubarController,
    previous: Option<Allocation>,
    planned_for: Option<TrafficMatrix>,
    baseline: Vec<u32>,
    surge: Vec<f64>,
    scratch: WorkspaceStats,
    shards: Vec<ShardRunStats>,
    layers: Layers,
    /// Seconds inside `on_event`, for the engine's self time.
    on_event_s: f64,
}

impl Replica {
    fn measure(&self, report: &EpochReport) -> Measure {
        Measure {
            utility: report.report.network_utility,
            congested_links: report.outcome.congested.len(),
            live_flows: self.fabric.true_tm().total_flows(),
            failed_links: self.fabric.failed_links().len(),
            commits: None,
            warm: false,
        }
    }

    fn timed_peek(&mut self, link_write: bool) -> EpochReport {
        let started = Stamp::now();
        let report = self.fabric.peek();
        let secs = started.elapsed();
        if link_write {
            self.layers.peek_link_s.push(secs);
        } else {
            self.layers.peek_flow_s.push(secs);
        }
        report
    }

    fn set_flows(&mut self, aggregate: AggregateId, flows: u32) {
        self.fabric.set_flow_count(aggregate, flows);
    }

    fn pair_name(&self, aggregate: AggregateId) -> String {
        let a = self.fabric.true_tm().aggregate(aggregate);
        let t = self.fabric.topology();
        format!("{}->{}", t.node_name(a.ingress), t.node_name(a.egress))
    }

    fn link_name(&self, link: LinkId) -> String {
        let t = self.fabric.topology();
        let l = t.graph().link(link);
        format!("{}-{}", t.node_name(l.src), t.node_name(l.dst))
    }

    fn apply(&mut self, event: &Event) -> Measure {
        let report = match &event.kind {
            EventKind::FlowArrival { aggregate, count } => {
                let i = aggregate.index();
                if self.baseline[i] > 0 {
                    let now = self.fabric.flow_count(*aggregate);
                    self.set_flows(*aggregate, now + count);
                }
                self.timed_peek(false)
            }
            EventKind::FlowDeparture { aggregate, count } => {
                let i = aggregate.index();
                if self.baseline[i] > 0 {
                    let now = self.fabric.flow_count(*aggregate);
                    self.set_flows(*aggregate, now.saturating_sub(*count));
                }
                self.timed_peek(false)
            }
            EventKind::Surge { aggregate, factor } => {
                let i = aggregate.index();
                self.surge[i] = *factor;
                if self.baseline[i] > 0 {
                    let target = (f64::from(self.baseline[i]) * factor).round() as u32;
                    self.set_flows(*aggregate, target.max(1));
                }
                self.timed_peek(false)
            }
            EventKind::Relax { aggregate } => {
                let i = aggregate.index();
                self.surge[i] = 1.0;
                self.set_flows(*aggregate, self.baseline[i]);
                self.timed_peek(false)
            }
            EventKind::LinkFailure { link } => {
                self.fabric.fail_link(*link);
                self.timed_peek(true)
            }
            EventKind::LinkRecovery { link } => {
                self.fabric.repair_link(*link);
                self.timed_peek(true)
            }
            EventKind::MeasurementEpoch => {
                let report = self.fabric.run_epoch();
                self.estimator
                    .observe(self.fabric.counters(), self.fabric.epoch_duration());
                report
            }
            EventKind::Reoptimize => {
                let started = Stamp::now();
                let estimated = self.estimator.estimated_matrix(self.fabric.true_tm());
                let optimized = Stamp::now();
                let r =
                    self.controller
                        .reoptimize(&self.fabric, &estimated, self.previous.as_ref());
                self.layers.reoptimize_s += optimized.elapsed();
                let installed = Stamp::now();
                self.fabric.install(r.rules);
                self.previous = Some(r.allocation);
                self.planned_for = Some(estimated);
                self.scratch.merge(&r.scratch);
                fubar_core::shard::merge_shard_stats(&mut self.shards, &r.shards);
                let report = self.fabric.peek();
                let mut m = self.measure(&report);
                m.commits = Some(r.commits);
                m.warm = r.warm;
                self.layers.install_s += optimized.since(started) + installed.elapsed();
                return m;
            }
            other => panic!("event {other:?} is not benchmarked"),
        };
        self.measure(&report)
    }
}

impl EventConsumer for Replica {
    fn on_event(&mut self, event: &Event) -> Measure {
        let started = Stamp::now();
        let m = self.apply(event);
        let secs = started.elapsed();
        self.on_event_s += secs;
        if event.kind != EventKind::Reoptimize {
            self.layers.measure_s += secs;
        }
        m
    }

    fn describe(&self, event: &Event) -> String {
        match &event.kind {
            EventKind::FlowArrival { aggregate, count } => {
                format!("arrive {} +{}", self.pair_name(*aggregate), count)
            }
            EventKind::FlowDeparture { aggregate, count } => {
                format!("depart {} -{}", self.pair_name(*aggregate), count)
            }
            EventKind::LinkFailure { link } => format!("fail {}", self.link_name(*link)),
            EventKind::LinkRecovery { link } => format!("repair {}", self.link_name(*link)),
            EventKind::Surge { aggregate, factor } => {
                format!("surge {} x{}", self.pair_name(*aggregate), factor)
            }
            EventKind::Relax { aggregate } => format!("relax {}", self.pair_name(*aggregate)),
            EventKind::Reoptimize => "reoptimize".to_string(),
            EventKind::MeasurementEpoch => format!("epoch {}", self.fabric.epochs_run()),
            other => format!("{other:?}"),
        }
    }

    fn aggregate_count(&self) -> usize {
        self.fabric.true_tm().len()
    }

    fn flow_count(&self, aggregate: AggregateId) -> u32 {
        self.fabric.flow_count(aggregate)
    }

    fn churn_target(&self, aggregate: AggregateId) -> f64 {
        f64::from(self.baseline[aggregate.index()]) * self.surge[aggregate.index()]
    }

    fn healthy_duplex_links(&self) -> Vec<LinkId> {
        let t = self.fabric.topology();
        let down = self.fabric.failed_links();
        t.links()
            .filter(|&l| {
                !down.contains(l) && t.reverse_of(l).is_some_and(|r| r.index() > l.index())
            })
            .collect()
    }
}

/// One instance through [`Replica`], with every layer timed.
pub fn traced(spec: &Scenario, matrix_seed: u64, draw_seed: u64) -> Result<Instance, String> {
    let started = Stamp::now();
    let topology_s = {
        let t = Stamp::now();
        std::hint::black_box(topology(&spec.topology)?);
        t.elapsed()
    };
    let inputs = Stamp::now();
    let (topo, tm) = driver::inputs_at(spec, matrix_seed, None).map_err(|e| e.to_string())?;
    let inputs_s = inputs.elapsed();
    let timeline = timeline(spec, &topo, &tm)?;
    let fabric_new = Stamp::now();
    let fabric = Fabric::new(topo, tm, spec.epoch);
    let fabric_new_s = fabric_new.elapsed();
    let n = fabric.true_tm().len();
    let baseline = fabric.true_tm().iter().map(|a| a.flow_count).collect();
    let replica = Replica {
        fabric,
        estimator: Estimator::new(
            n,
            MeasurementConfig::default(),
            draw_seed ^ MEASUREMENT_SEED_MIX,
        ),
        controller: FubarController {
            warm_start: spec.reoptimize.warm_start,
            ..Default::default()
        },
        previous: None,
        planned_for: None,
        baseline,
        surge: vec![1.0; n],
        scratch: WorkspaceStats::default(),
        shards: Vec::new(),
        layers: Layers::default(),
        on_event_s: 0.0,
    };
    let engine = engine(spec, replica, timeline, draw_seed);
    let setup_s = started.elapsed();

    let looped = Stamp::now();
    let (log, _, replica) = engine.run_instrumented(&spec.name, draw_seed);
    let loop_s = looped.elapsed();
    let rendered = Stamp::now();
    let output = log.to_text();
    let log_render_s = rendered.elapsed();
    let run_s = started.elapsed();

    check(
        &log,
        replica.previous.as_ref(),
        replica.planned_for.as_ref(),
    )?;
    let (trunk, others) = replica.shards.split_last().map_or((0.0, 0.0), |(t, o)| {
        (t.score_s, o.iter().map(|s| s.score_s).sum())
    });
    let layers = Layers {
        topology_build_s: topology_s,
        traffic_generate_s: (inputs_s - topology_s).max(0.0),
        fabric_new_s,
        trunk_score_s: trunk,
        shard_score_s: others,
        engine_self_s: (loop_s - replica.on_event_s).max(0.0),
        log_render_s,
        ..replica.layers
    };
    // The per-event samples stay empty: a traced run reports layers.
    Ok(Instance {
        setup_s,
        run_s,
        loop_s,
        events: log.records.len(),
        measure_s: Vec::new(),
        reopt_s: Vec::new(),
        utility: log.mean_epoch_utility(),
        counts: counts(&log, replica.scratch),
        output,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every directive the benchmark's specs use, on a short horizon.
    const PARITY: &str = "scenario parity
topology he 75Mbps
duration 40s
epoch 10s
workload flows 3 8 intra-pop large-prob 0.05
reoptimize every 20s warmup 10s
arrivals rate 0.05 max-flows 24
departures prob 0.05
failures shape 1.5 scale 20s repair-shape 1 repair-scale 10s max-down 2
at 15s surge NewYork Fremont x6
at 25s fail Denver KansasCity
at 30s repair Denver KansasCity
at 35s relax NewYork Fremont
";

    #[test]
    fn assembled_and_replica_runs_reproduce_the_driver_log() {
        let spec = Scenario::parse(PARITY).expect("spec parses");
        let expected = driver::run(&spec, 3).expect("driver run").to_text();
        let production = production(&spec, 3, 3).expect("production run");
        assert_eq!(production.output, expected);
        assert_eq!(traced(&spec, 3, 3).expect("traced run").output, expected);
    }
}
