//! The offline controller: optimize → install.
//!
//! The paper positions FUBAR as "an offline controller in SDN or MPLS
//! networks, in conjunction with an online controller to actually admit
//! flows to the paths that have been computed" (§5), working "offline to
//! periodically adjust the distribution of traffic on paths" (abstract).
//! [`FubarController`] is one such adjustment: it runs the `fubar-core`
//! optimizer on an estimated matrix over the [`Fabric`]'s failure-aware
//! topology view and returns installable rules. Each run **warm-starts**
//! from the previously installed allocation ([`Optimizer::run_from`]) so
//! its path sets carry across runs instead of being rediscovered from
//! the shortest-path boot state every time. The cadence — when to
//! measure, when to re-optimize — belongs to the caller
//! (`fubar-scenario`'s event engine).

use crate::fabric::Fabric;
use crate::rules::RuleSet;
use fubar_core::{Allocation, Optimizer, OptimizerConfig, ShardRunStats};
use fubar_model::WorkspaceStats;
use fubar_traffic::TrafficMatrix;

/// The re-optimizing offline controller.
pub struct FubarController {
    /// Optimizer configuration used on every re-optimization.
    pub optimizer: OptimizerConfig,
    /// Warm-start each run from the previously installed allocation
    /// (the default). When false every re-optimization cold-starts from
    /// shortest paths — the pre-warm-start behavior, kept for A/B
    /// comparisons and tests.
    pub warm_start: bool,
}

impl Default for FubarController {
    fn default() -> Self {
        FubarController {
            optimizer: OptimizerConfig::default(),
            warm_start: true,
        }
    }
}

/// What one controller run produced: the rules to install plus the
/// allocation to warm-start the next run from.
pub struct Reoptimization {
    /// Installable rule set for the fabric.
    pub rules: RuleSet,
    /// The allocation behind `rules` — feed it back as `previous` on
    /// the next call to carry path sets across runs.
    pub allocation: Allocation,
    /// Moves the optimizer committed (warm starts after small
    /// perturbations need far fewer than cold starts).
    pub commits: usize,
    /// Whether this run actually warm-started.
    pub warm: bool,
    /// High-water marks of the optimizer's per-candidate scoring
    /// scratch during this run (`fubar-cli scenario run --stats`).
    pub scratch: WorkspaceStats,
    /// Per-shard execution statistics when the optimizer ran the
    /// hierarchical sharded loop (empty for flat runs); the last entry
    /// is the trunk core.
    pub shards: Vec<ShardRunStats>,
}

impl FubarController {
    /// Runs the optimizer against the estimated matrix on the fabric's
    /// (failure-aware) topology view — warm-started from `previous`
    /// when [`FubarController::warm_start`] is set and a previous
    /// allocation exists — and returns installable rules plus the
    /// allocation to seed the next run.
    pub fn reoptimize(
        &self,
        fabric: &Fabric,
        estimated: &TrafficMatrix,
        previous: Option<&Allocation>,
    ) -> Reoptimization {
        let view = fabric.topology_view();
        let mut cfg = self.optimizer.clone();
        cfg.excluded_links = fabric.failed_links().clone();
        let optimizer = Optimizer::new(&view, estimated, cfg);
        let warm = self.warm_start && previous.is_some();
        let result = match previous {
            Some(prev) if warm => optimizer.run_from(prev),
            _ => optimizer.run(),
        };
        Reoptimization {
            rules: RuleSet::from_allocation(&result.allocation, estimated),
            allocation: result.allocation,
            commits: result.commits,
            warm,
            scratch: result.scratch,
            shards: result.shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_graph::NodeId;
    use fubar_topology::{generators, Bandwidth, Delay};
    use fubar_traffic::{Aggregate, AggregateId};
    use fubar_utility::TrafficClass;

    fn small_fabric() -> Fabric {
        // A 4-ring: two disjoint 2-hop routes between n0 and n2.
        let topo = generators::ring(4, Bandwidth::from_kbps(800.0), Delay::from_ms(2.0));
        let tm = TrafficMatrix::new(vec![
            Aggregate::new(
                AggregateId(0),
                NodeId(0),
                NodeId(2),
                TrafficClass::BulkTransfer,
                10, // 1.2 Mb/s: needs both sides of the ring
            ),
            Aggregate::new(
                AggregateId(0),
                NodeId(1),
                NodeId(3),
                TrafficClass::RealTime,
                6,
            ),
        ]);
        Fabric::new(topo, tm, Delay::from_secs(10.0))
    }

    /// Installs one re-optimization planned on the true matrix.
    fn reoptimize_and_install(
        c: &FubarController,
        f: &mut Fabric,
        previous: Option<&Allocation>,
    ) -> Reoptimization {
        let tm = f.true_tm().clone();
        let r = c.reoptimize(f, &tm, previous);
        f.install(r.rules.clone());
        r
    }

    #[test]
    fn controller_improves_true_utility() {
        let mut f = small_fabric();
        let before = f.run_epoch().report.network_utility;
        reoptimize_and_install(&FubarController::default(), &mut f, None);
        let after = f.run_epoch().report.network_utility;
        assert!(
            after > before,
            "controller should improve true utility: {before} -> {after}"
        );
    }

    #[test]
    fn loop_survives_failure_and_recovers() {
        let c = FubarController::default();
        let mut healthy = small_fabric();
        reoptimize_and_install(&c, &mut healthy, None);
        let healthy_u = healthy.run_epoch().report.network_utility;

        // Cut the link aggregate 0's boot shortest path starts on: the
        // boot rules fall back, the next run plans around the cut, and
        // nothing black-holes.
        let mut f = small_fabric();
        let link = f.rules().group(AggregateId(0)).unwrap().buckets[0]
            .0
            .links()[0];
        f.fail_link(link);
        assert!(f.run_epoch().fallback_count > 0, "boot rules hit the cut");
        let cut = reoptimize_and_install(&c, &mut f, None);
        let during = f.run_epoch();
        assert_eq!(during.fallback_count, 0, "re-planned around the cut");
        assert_eq!(during.outcome.link_load[link.index()], Bandwidth::ZERO);
        assert!(during.report.network_utility > 0.0, "must not black-hole");
        // Repair: the warm run from the cut-era allocation recovers.
        f.repair_link(link);
        reoptimize_and_install(&c, &mut f, Some(&cut.allocation));
        let recovered = f.run_epoch().report.network_utility;
        assert!(
            recovered > during.report.network_utility && recovered >= 0.9 * healthy_u,
            "repair must revive: {recovered} vs healthy {healthy_u}"
        );
    }

    #[test]
    fn reoptimizations_warm_start_after_the_first() {
        let mut f = small_fabric();
        let c = FubarController::default();
        let first = reoptimize_and_install(&c, &mut f, None);
        assert!(!first.warm, "first run has nothing to warm from");
        let second = reoptimize_and_install(&c, &mut f, Some(&first.allocation));
        assert!(second.warm, "later runs warm-start");
        // Unchanged demand: warm-starting from the previous optimum is a
        // no-op re-optimization.
        assert_eq!(second.commits, 0, "steady state needs no moves");
        let cold = FubarController {
            warm_start: false,
            ..Default::default()
        };
        let third = reoptimize_and_install(&cold, &mut f, Some(&second.allocation));
        assert!(!third.warm, "warm_start = false always cold-starts");
    }

    #[test]
    fn warm_start_spends_no_more_commits_than_cold() {
        let mut f = small_fabric();
        let c = FubarController::default();
        let first = reoptimize_and_install(&c, &mut f, None);
        // Perturb the demand the previous optimum was planned for.
        f.set_flow_count(AggregateId(0), 13);
        f.set_flow_count(AggregateId(1), 4);
        let tm = f.true_tm().clone();
        let warm = c.reoptimize(&f, &tm, Some(&first.allocation));
        let cold = FubarController {
            warm_start: false,
            ..Default::default()
        }
        .reoptimize(&f, &tm, Some(&first.allocation));
        assert!(warm.warm && !cold.warm);
        assert!(
            warm.commits <= cold.commits,
            "warm start must not work harder: {} vs {}",
            warm.commits,
            cold.commits
        );
        let utility = |r: Reoptimization| {
            let mut g = small_fabric();
            g.set_flow_count(AggregateId(0), 13);
            g.set_flow_count(AggregateId(1), 4);
            g.install(r.rules);
            g.run_epoch().report.network_utility
        };
        let (warm_u, cold_u) = (utility(warm), utility(cold));
        assert!(
            warm_u >= cold_u - 0.01,
            "warm start must stay within 1%: {warm_u} vs {cold_u}"
        );
    }
}
