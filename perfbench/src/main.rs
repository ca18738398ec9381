//! The FUBAR workspace benchmark: end-to-end metrics per workload, and
//! per-layer metrics from a separate traced run. See README.md.
//!
//! ```text
//! fubar-perfbench --workload <he_churn|he_cold|planetary_surge> --seed <n>
//!                 --seconds <s> --trace <0|1> [--instance-seed <n>]
//! ```
//!
//! A run repeats *passes* until `--seconds` would be exceeded (at least
//! two). A pass runs every instance of the workload's batch once; the
//! first pass's outputs and work counters are the reference every later
//! pass must repeat exactly. The last line of standard output is the
//! JSON result.

mod clock;
mod cold;
mod scenario;
mod stats;

use fubar_scenario::Scenario;
use stats::{describe, mean, median, quantile, Metric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Deterministic work counters: a pure function of the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub events: usize,
    pub reopts: usize,
    pub commits: usize,
    pub fills: usize,
    pub peak_component: usize,
}

/// Per-layer times of one traced instance.
#[derive(Default)]
pub struct Layers {
    pub topology_build_s: f64,
    pub traffic_generate_s: f64,
    pub fabric_new_s: f64,
    /// Non-re-optimization events, each ending in a fabric probe.
    pub measure_s: f64,
    /// `Fabric::peek` after a flow-count write.
    pub peek_flow_s: Vec<f64>,
    /// `Fabric::peek` after a link failure or repair.
    pub peek_link_s: Vec<f64>,
    /// A re-optimization event outside the optimizer: the estimate it
    /// plans for, `Fabric::install`, and the probe after it.
    pub install_s: f64,
    pub reoptimize_s: f64,
    pub trunk_score_s: f64,
    pub shard_score_s: f64,
    pub engine_self_s: f64,
    pub log_render_s: f64,
}

/// What one instance of a workload produced. Durations are on the
/// process CPU clock (see `clock`).
pub struct Instance {
    pub setup_s: f64,
    /// From the start of set-up to the rendered log or result.
    pub run_s: f64,
    /// The workload's loop: the engine run, or the optimizer run.
    pub loop_s: f64,
    /// Events applied in the loop (optimizer commits on `he_cold`).
    pub events: usize,
    /// Latency of each measurement event (commit step on `he_cold`).
    pub measure_s: Vec<f64>,
    /// Latency of each re-optimization (the cold run on `he_cold`); the
    /// first is the cold convergence.
    pub reopt_s: Vec<f64>,
    pub utility: f64,
    pub counts: Counts,
    /// The rendered log or result, compared byte for byte.
    pub output: String,
    pub layers: Layers,
}

enum Kind {
    /// A scenario spec; the traffic matrix takes `matrix_seed`, and the
    /// churn, failure and measurement draws take the batch seeds unless
    /// `fixed_draws` pins them to `matrix_seed` too.
    Scenario {
        spec: Box<Scenario>,
        matrix_seed: u64,
        fixed_draws: bool,
    },
    /// Table 1's provisioned case on the matrix of `matrix_seed`.
    Cold { matrix_seed: u64 },
}

struct Workload {
    name: &'static str,
    /// Instances per pass.
    batch: usize,
    kind: Kind,
}

impl Workload {
    fn resolve(name: &str, instance_seed: Option<u64>) -> Result<Workload, String> {
        let parse = |text: &str| Scenario::parse(text).map_err(|e| e.to_string());
        Ok(match name {
            "he_churn" => {
                let spec = parse(include_str!("../specs/he_churn.scn"))?;
                Workload {
                    name: "he_churn",
                    batch: 4,
                    kind: Kind::Scenario {
                        matrix_seed: instance_seed.unwrap_or(spec.seed),
                        spec: Box::new(spec),
                        fixed_draws: false,
                    },
                }
            }
            "planetary_surge" => {
                let spec = fubar_scenario::catalog::load("planetary")
                    .ok_or("the catalog has no planetary spec")?;
                Workload {
                    name: "planetary_surge",
                    batch: 1,
                    kind: Kind::Scenario {
                        matrix_seed: instance_seed.unwrap_or(spec.seed),
                        spec: Box::new(spec),
                        fixed_draws: true,
                    },
                }
            }
            "he_cold" => Workload {
                name: "he_cold",
                batch: 1,
                kind: Kind::Cold {
                    matrix_seed: instance_seed.unwrap_or(1),
                },
            },
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    fn instance(&self, seed: u64, index: usize, traced: bool) -> Result<Instance, String> {
        let sub = sub_seed(seed, index);
        match &self.kind {
            Kind::Scenario {
                spec,
                matrix_seed,
                fixed_draws,
            } => {
                let draw = if *fixed_draws { *matrix_seed } else { sub };
                if traced {
                    scenario::traced(spec, *matrix_seed, draw)
                } else {
                    scenario::production(spec, *matrix_seed, draw)
                }
            }
            Kind::Cold { matrix_seed } => cold::run(*matrix_seed, traced),
        }
    }
}

/// The seed of instance `index` of a batch (SplitMix64 finalizer).
fn sub_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Pass {
    traced: bool,
    /// The instances that passed every check.
    instances: Vec<Instance>,
}

/// Runs one instance and checks it: it must not panic, and its output
/// and work counters must equal those of the first run of the same
/// instance, which `reference` records.
fn checked(
    workload: &Workload,
    seed: u64,
    index: usize,
    traced: bool,
    reference: &mut Option<(String, Counts)>,
) -> Result<Instance, String> {
    let mut inst = catch_unwind(AssertUnwindSafe(|| workload.instance(seed, index, traced)))
        .unwrap_or_else(|_| Err("panicked".to_string()))?;
    // Only the reference output is kept, so the peak resident set does
    // not grow with the number of passes.
    let output = std::mem::take(&mut inst.output);
    match reference {
        None => *reference = Some((output, inst.counts)),
        Some((first, _)) if *first != output => {
            return Err("output differs from the first run".to_string())
        }
        Some((_, counts)) if *counts != inst.counts => {
            return Err(format!(
                "work counters {:?} differ from the first run's {counts:?}",
                inst.counts
            ))
        }
        Some(_) => {}
    }
    Ok(inst)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    instance_seed: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        instance_seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--instance-seed" => args.instance_seed = Some(number()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine's cumulative CPU ticks stolen by the hypervisor, and all
/// ticks, from `/proc/stat`; `None` where that file does not exist.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Median over `passes` of `f(the pass's instances)`.
fn per_pass(passes: &[&Pass], f: impl Fn(&[Instance]) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(&p.instances)).collect::<Vec<_>>())
}

/// Median over `passes` of the mean of `f` over each pass's instances.
fn per_instance(passes: &[&Pass], f: impl Fn(&Instance) -> f64) -> f64 {
    per_pass(passes, |is| mean(&is.iter().map(&f).collect::<Vec<_>>()))
}

fn pooled<'a>(
    instances: impl IntoIterator<Item = &'a Instance>,
    f: impl Fn(&Instance) -> &[f64],
) -> Vec<f64> {
    instances
        .into_iter()
        .flat_map(|i| f(i).iter().copied())
        .collect()
}

/// Each sample's median over the passes, for every instance: the k-th
/// sample of an instance times the same event in every pass (their
/// outputs are identical), so a burst of host noise in one pass is
/// outvoted. Passes missing a failed instance are left out.
fn aligned(passes: &[&Pass], f: impl Fn(&Instance) -> &[f64]) -> Vec<f64> {
    let width = passes.iter().map(|p| p.instances.len()).max().unwrap_or(0);
    let full: Vec<&Pass> = passes
        .iter()
        .copied()
        .filter(|p| p.instances.len() == width)
        .collect();
    let mut out = Vec::new();
    for index in 0..width {
        let runs: Vec<&[f64]> = full.iter().map(|p| f(&p.instances[index])).collect();
        let events = runs.iter().map(|r| r.len()).min().unwrap_or(0);
        out.extend((0..events).map(|k| median(&runs.iter().map(|r| r[k]).collect::<Vec<_>>())));
    }
    out
}

fn end_to_end(passes: &[&Pass]) -> Vec<Metric> {
    let all = || passes.iter().flat_map(|p| &p.instances);
    let setups: Vec<f64> = all().map(|i| i.setup_s).collect();
    println!("setup    {}", describe(&setups, 1.0, "s"));
    let measure = aligned(passes, |i| &i.measure_s);
    println!("measure  {}", describe(&measure, 1e6, "us"));
    let reopt = aligned(passes, |i| &i.reopt_s);
    println!("reopt    {}", describe(&reopt, 1e3, "ms"));
    let converge = aligned(passes, |i| &i.reopt_s[..i.reopt_s.len().min(1)]);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(&setups)),
        m("wall_s", "s", per_instance(passes, |i| i.run_s)),
        m(
            "events_per_s",
            "1/s",
            per_pass(passes, |is| {
                let events: usize = is.iter().map(|i| i.events).sum();
                events as f64 / is.iter().map(|i| i.loop_s).sum::<f64>()
            }),
        ),
        m("measure_p50_us", "us", median(&measure) * 1e6),
        m("measure_p99_us", "us", quantile(&measure, 0.99) * 1e6),
        m("reopt_p50_ms", "ms", median(&reopt) * 1e3),
        m("reopt_max_ms", "ms", quantile(&reopt, 1.0) * 1e3),
        m("converge_s", "s", mean(&converge)),
        m(
            "utility",
            "ratio",
            mean(&all().map(|i| i.utility).collect::<Vec<_>>()),
        ),
        m("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// Shares of a traced instance's wall time.
struct Shares {
    setup: f64,
    measure: f64,
    reopt: f64,
    engine_self: f64,
}

fn per_layer(workload: &str, passes: &[&Pass]) -> Vec<Metric> {
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    let l = |f: fn(&Layers) -> f64| per_instance(&traced, |i| f(&i.layers));
    let wall = per_instance(&traced, |i| i.run_s);
    let share = |x: f64| if wall > 0.0 { x / wall } else { 0.0 };
    let setup = |x: &Layers| x.topology_build_s + x.traffic_generate_s + x.fabric_new_s;
    let reopt = |x: &Layers| x.reoptimize_s + x.install_s;
    let shares = Shares {
        setup: share(l(setup)),
        measure: share(l(|x| x.measure_s)),
        reopt: share(l(reopt)),
        engine_self: share(l(|x| x.engine_self_s)),
    };
    intent(workload, &shares);
    let unattributed = per_instance(&traced, |i| {
        let x = &i.layers;
        i.run_s - setup(x) - x.measure_s - reopt(x) - x.engine_self_s - x.log_render_s
    });
    let untraced_wall = per_instance(&untraced, |i| i.run_s);
    let peek = |f: fn(&Layers) -> &[f64]| {
        per_pass(&traced, |is| median(&pooled(is, |i| f(&i.layers))) * 1e6)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let commits = per_instance(&traced, |i| i.counts.commits as f64);
    let fills = per_instance(&traced, |i| i.counts.fills as f64);
    // Work counters are identical in every pass: report one pass's total.
    let counts: Vec<Counts> = traced
        .first()
        .map(|p| p.instances.iter().map(|i| i.counts).collect())
        .unwrap_or_default();
    let total = |f: fn(&Counts) -> usize| counts.iter().map(f).sum::<usize>() as f64;
    let peak = counts.iter().map(|c| c.peak_component).max().unwrap_or(0);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("topology.build_s", "s", l(|x| x.topology_build_s)),
        m("traffic.generate_s", "s", l(|x| x.traffic_generate_s)),
        m("sdn.fabric_new_s", "s", l(|x| x.fabric_new_s)),
        m("sdn.measure_s", "s", l(|x| x.measure_s)),
        m("sdn.peek_flow_us", "us", peek(|x| &x.peek_flow_s)),
        m("sdn.peek_link_us", "us", peek(|x| &x.peek_link_s)),
        m("sdn.install_s", "s", l(|x| x.install_s)),
        m("core.reoptimize_s", "s", l(|x| x.reoptimize_s)),
        m("core.trunk_score_s", "s", l(|x| x.trunk_score_s)),
        m("core.shard_score_s", "s", l(|x| x.shard_score_s)),
        m(
            "core.commits_per_s",
            "1/s",
            ratio(commits, l(|x| x.reoptimize_s)),
        ),
        m("core.fills_per_commit", "count", ratio(fills, commits)),
        m("scenario.engine_self_s", "s", l(|x| x.engine_self_s)),
        m("scenario.log_render_s", "s", l(|x| x.log_render_s)),
        m("scenario.events", "count", total(|c| c.events)),
        m("scenario.reopts", "count", total(|c| c.reopts)),
        m("core.commits", "count", total(|c| c.commits)),
        m("model.fills", "count", total(|c| c.fills)),
        m("core.peak_component", "count", peak as f64),
        m("share.setup", "ratio", shares.setup),
        m("share.measure", "ratio", shares.measure),
        m("share.reopt", "ratio", shares.reopt),
        m("share.engine_self", "ratio", shares.engine_self),
        m("trace.unattributed_share", "ratio", share(unattributed)),
        m(
            "trace.overhead_share",
            "ratio",
            ratio(wall, untraced_wall) - 1.0,
        ),
    ]
}

/// Prints whether the traced shares bear out the workload's stated
/// purpose (README.md, "Workloads").
fn intent(workload: &str, s: &Shares) {
    let (claim, holds) = match workload {
        "he_churn" => (
            "measurement-bound",
            s.measure > s.setup.max(s.reopt).max(s.engine_self),
        ),
        "planetary_surge" => (
            "bound by re-optimization plus set-up",
            s.reopt + s.setup > 0.5 && s.reopt + s.setup > s.measure + s.engine_self,
        ),
        _ => (
            "optimizer-only",
            s.reopt > 0.9 && s.measure == 0.0 && s.engine_self == 0.0,
        ),
    };
    let verdict = if holds { "holds" } else { "DOES NOT HOLD" };
    println!(
        "intent {workload}: {claim}: {verdict} (setup={:.3} measure={:.3} reopt={:.3} engine_self={:.3})",
        s.setup, s.measure, s.reopt, s.engine_self
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = match Workload::resolve(&args.workload, args.instance_seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A panicking instance is a failed instance; keep the report quiet.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: instance panicked: {info}")
    }));

    let budget = Duration::from_secs(args.seconds);
    // lint:allow(wall-clock): the run's time budget; never feeds a result of the program
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut references: Vec<Option<(String, Counts)>> = vec![None; workload.batch];
    let (mut attempted, mut failed) = (0usize, 0usize);
    loop {
        // The traced run alternates untraced and traced passes, so the
        // tracing overhead is measured within one process.
        let traced = args.trace && passes.len() % 2 == 1;
        let ticks = cpu_ticks();
        let mut instances = Vec::new();
        for (index, reference) in references.iter_mut().enumerate() {
            attempted += 1;
            match checked(&workload, args.seed, index, traced, reference) {
                Ok(inst) => instances.push(inst),
                Err(e) => {
                    eprintln!("perfbench: {} instance {index} failed: {e}", workload.name);
                    failed += 1;
                }
            }
        }
        // The share of the machine's CPU time the hypervisor stole during
        // the pass: the cause when a pass runs slow.
        let steal = match (ticks, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        let times: Vec<String> = instances
            .iter()
            .map(|i| format!("{:.3}", i.run_s))
            .collect();
        eprintln!(
            "pass {} traced={traced} steal={steal:.3} run_s=[{}]",
            passes.len(),
            times.join(" ")
        );
        passes.push(Pass { traced, instances });
        let elapsed = started.elapsed();
        let per = elapsed / passes.len() as u32;
        if passes.len() >= 2 && elapsed + per > budget {
            break;
        }
    }

    let all: Vec<&Pass> = passes.iter().collect();
    println!(
        "{} seed={} passes={} instances/pass={} fail_rate={}/{}={:.4}",
        workload.name,
        args.seed,
        passes.len(),
        workload.batch,
        failed,
        attempted,
        failed as f64 / attempted as f64
    );
    let metrics = if args.trace {
        per_layer(workload.name, &all)
    } else {
        end_to_end(&all)
    };
    for m in &metrics {
        println!("{:<26} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0;
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
