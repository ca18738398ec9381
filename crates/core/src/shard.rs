//! Hierarchical sharded optimization — the planetary scale tier.
//!
//! Past hypergrowth-4096 the flat greedy loop stops being bounded by
//! per-move scoring (which is O(component), see [`crate::optimizer`])
//! and starts being bounded by *instance-sized bookkeeping*: candidate
//! enumeration scanned every aggregate's every path per congested link.
//! This module reorganizes the same computation hierarchically:
//!
//! * [`RegionPartition`] splits the instance by region (the node-name
//!   prefix before `_`, e.g. `pop3_7` → region `pop3`). Regions map to
//!   shards round-robin; aggregates and links whose endpoints fall in
//!   one shard belong to it, everything crossing shard boundaries —
//!   inter-region trunks and cross-shard aggregates — is abstracted
//!   into the **trunk core**, one extra shard holding the global
//!   problem's backbone.
//! * A sparse **aggregate→link crossing index** (per link: the sorted
//!   `(aggregate, path)` pairs whose path crosses it) replaces the
//!   full-matrix scan, making candidate enumeration O(paths on the
//!   link) instead of O(instance).
//! * Each shard owns its own scoring scratch pool
//!   (`Workspace`/`ReportScratch`), so shard-local work touches
//!   shard-local memory and per-shard peaks are observable
//!   (`fubar-cli scenario run --stats`).
//!
//! The greedy *decision sequence* is untouched: congested links are
//! still visited globally from most to least oversubscribed, candidate
//! moves are gathered, scored and reduced exactly as the flat loop
//! does, and each commit is stitched through the same fixed-shape
//! summation tree. The repo's signature invariant therefore extends one
//! level up — **sharded ≡ flat, move for move and bitwise** (allocation,
//! traces, utility report), at any shard count, enforced by property
//! tests in `tests/properties.rs` and selectable end to end via
//! `fubar-cli scenario run --oracle flat`.

use crate::allocation::{Allocation, Move};
use crate::optimizer::{Candidate, Incumbent, OptimizeResult, Optimizer, ScoreScratch};
use crate::pathgen::alternatives;
use crate::recorder::RunTrace;
use fubar_graph::{LinkId, Path};
use fubar_model::WorkspaceStats;
use fubar_topology::Topology;
use fubar_traffic::{AggregateId, TrafficMatrix};
use std::sync::Mutex;
use std::time::Instant;

/// How the optimizer organizes its data: hierarchically sharded (the
/// default) or flat. Results are bitwise identical either way; this
/// knob trades nothing but performance and observability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sharding {
    /// One shard per detected region, capped at 16, plus the trunk
    /// core. Topologies without region structure (no `_` in node
    /// names) degrade gracefully: every node is its own region.
    Auto,
    /// The flat (unsharded) loop — the `--oracle flat` mode the
    /// sharded path is property-tested against.
    Off,
    /// Exactly this many region shards (≥ 1), plus the trunk core.
    Shards(usize),
}

impl Sharding {
    /// Resolves the shard count against the topology's region count;
    /// `None` means run flat.
    pub(crate) fn shard_count(self, regions: usize) -> Option<usize> {
        match self {
            Sharding::Auto => Some(regions.clamp(1, 16)),
            Sharding::Off => None,
            Sharding::Shards(n) => Some(n.max(1)),
        }
    }
}

/// The region label of a node name: the prefix before the first `_`,
/// or the whole name when there is none (every node its own region).
fn region_label(name: &str) -> &str {
    name.split_once('_').map_or(name, |(region, _)| region)
}

/// Number of distinct regions in a topology (first-seen order over node
/// ids; used to resolve [`Sharding::Auto`]).
pub fn region_count(topology: &Topology) -> usize {
    let mut seen: Vec<&str> = Vec::new();
    for n in topology.nodes() {
        let r = region_label(topology.node_name(n));
        if !seen.contains(&r) {
            seen.push(r);
        }
    }
    seen.len()
}

/// A region-based partition of one `(topology, traffic matrix)`
/// instance into `shard_count` shards plus the trunk core.
///
/// Invariants (property-tested in `tests/properties.rs`):
///
/// * every aggregate belongs to **exactly one** shard (its endpoint
///   regions' shard when they agree, the core otherwise);
/// * every intra-shard link has both endpoints in that shard's
///   regions;
/// * the trunk set is disjoint from every shard's link set, and
///   shards + trunks cover every link.
pub struct RegionPartition {
    shard_count: usize,
    regions: Vec<String>,
    node_region: Vec<u32>,
    agg_shard: Vec<u32>,
    /// Per link: owning shard, or `shard_count` for trunks.
    link_shard: Vec<u32>,
    /// Aggregates per shard (index `shard_count` = core).
    shard_aggregates: Vec<usize>,
    /// Links per shard (index `shard_count` = trunks).
    shard_links: Vec<usize>,
}

impl RegionPartition {
    /// Partitions an instance into `shard_count` region shards plus the
    /// trunk core.
    ///
    /// # Panics
    ///
    /// Panics when `shard_count == 0`.
    pub fn new(topology: &Topology, tm: &TrafficMatrix, shard_count: usize) -> Self {
        assert!(shard_count >= 1, "at least one shard");
        let mut regions: Vec<String> = Vec::new();
        let mut node_region = Vec::with_capacity(topology.node_count());
        for n in topology.nodes() {
            let label = region_label(topology.node_name(n));
            let idx = regions.iter().position(|r| r == label).unwrap_or_else(|| {
                regions.push(label.to_string());
                regions.len() - 1
            });
            node_region.push(idx as u32);
        }
        // Regions → shards round-robin in first-seen order.
        let region_shard = |region: u32| -> u32 { region % shard_count as u32 };

        let mut shard_aggregates = vec![0usize; shard_count + 1];
        let agg_shard: Vec<u32> = tm
            .iter()
            .map(|a| {
                let si = region_shard(node_region[a.ingress.index()]);
                let se = region_shard(node_region[a.egress.index()]);
                let shard = if si == se { si } else { shard_count as u32 };
                shard_aggregates[shard as usize] += 1;
                shard
            })
            .collect();

        let mut shard_links = vec![0usize; shard_count + 1];
        let link_shard: Vec<u32> = topology
            .links()
            .map(|l| {
                let link = topology.graph().link(l);
                let ss = region_shard(node_region[link.src.index()]);
                let sd = region_shard(node_region[link.dst.index()]);
                let shard = if ss == sd { ss } else { shard_count as u32 };
                shard_links[shard as usize] += 1;
                shard
            })
            .collect();

        RegionPartition {
            shard_count,
            regions,
            node_region,
            agg_shard,
            link_shard,
            shard_aggregates,
            shard_links,
        }
    }

    /// Number of region shards (the trunk core is one more).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The trunk-core shard index (`== shard_count()`).
    pub fn core_shard(&self) -> usize {
        self.shard_count
    }

    /// Distinct regions detected in the topology.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The region index of a node.
    pub fn region_of_node(&self, node: fubar_graph::NodeId) -> usize {
        self.node_region[node.index()] as usize
    }

    /// The shard owning an aggregate (the core for cross-shard pairs).
    pub fn shard_of_aggregate(&self, agg: AggregateId) -> usize {
        self.agg_shard[agg.index()] as usize
    }

    /// The shard owning a link (the core for inter-shard trunks).
    pub fn shard_of_link(&self, link: LinkId) -> usize {
        self.link_shard[link.index()] as usize
    }

    /// Whether a link is an inter-shard trunk (owned by the core).
    pub fn is_trunk(&self, link: LinkId) -> bool {
        self.link_shard[link.index()] as usize == self.core_shard()
    }

    /// Aggregates owned by `shard` (index `core_shard()` = cross-shard).
    pub fn aggregates_in(&self, shard: usize) -> usize {
        self.shard_aggregates[shard]
    }

    /// Links owned by `shard` (index `core_shard()` = trunks).
    pub fn links_in(&self, shard: usize) -> usize {
        self.shard_links[shard]
    }
}

/// Per-shard execution statistics of one sharded run. Wall-clock fields
/// ride outside the byte-exact replay surface.
#[derive(Clone, Debug, Default)]
pub struct ShardRunStats {
    /// Shard index; the last entry of `OptimizeResult::shards` is the
    /// trunk core.
    pub shard: usize,
    /// Aggregates the partition assigned to this shard.
    pub aggregates: usize,
    /// Links the partition assigned to this shard.
    pub links: usize,
    /// Commits whose focus link this shard owned.
    pub commits: usize,
    /// Seconds spent gathering and scoring this shard's candidates.
    pub score_s: f64,
    /// Peak scoring-scratch sizes of this shard's workspace pool.
    pub scratch: WorkspaceStats,
}

impl ShardRunStats {
    /// Folds another run's statistics for the same shard (sums work,
    /// maxes peaks) — the scenario driver accumulates these across
    /// re-optimizations.
    pub fn merge(&mut self, other: &ShardRunStats) {
        self.aggregates = self.aggregates.max(other.aggregates);
        self.links = self.links.max(other.links);
        self.commits += other.commits;
        self.score_s += other.score_s;
        self.scratch.merge(&other.scratch);
    }
}

/// Folds a run's per-shard statistics into an accumulator, resizing if
/// the shard layout grew.
pub fn merge_shard_stats(acc: &mut Vec<ShardRunStats>, run: &[ShardRunStats]) {
    if acc.len() < run.len() {
        acc.resize_with(run.len(), ShardRunStats::default);
    }
    for (a, r) in acc.iter_mut().zip(run) {
        a.shard = r.shard;
        a.merge(r);
    }
}

/// The sparse aggregate→link crossing index: for every link, the
/// `(aggregate, path index)` pairs — sorted ascending — whose path
/// crosses it. Filtered by live flow count at query time, iterating a
/// link's entries reproduces `Allocation::flow_paths_over` exactly
/// (same pairs, same order) at O(paths on the link) instead of
/// O(instance). Paths are only ever *added* to path sets, so the index
/// grows monotonically: one insert per newly-committed alternative.
struct CrossingIndex {
    per_link: Vec<Vec<(u32, u32)>>,
}

impl CrossingIndex {
    fn build(topology: &Topology, tm: &TrafficMatrix, alloc: &Allocation) -> Self {
        let mut per_link = vec![Vec::new(); topology.link_count()];
        // Aggregates ascending, path indices ascending: each link's
        // entry list is born sorted.
        for a in tm.iter() {
            let ps = alloc.path_set(a.id);
            for idx in 0..ps.len() {
                for &l in ps.path(idx).links() {
                    per_link[l.index()].push((a.id.0, idx as u32));
                }
            }
        }
        CrossingIndex { per_link }
    }

    /// Registers a newly added path (aggregate `agg`, path index `idx`)
    /// on every link it crosses, keeping each list sorted.
    fn insert(&mut self, agg: AggregateId, idx: u32, path: &Path) {
        for &l in path.links() {
            let list = &mut self.per_link[l.index()];
            let pos = list.partition_point(|&e| e < (agg.0, idx));
            if list.get(pos) != Some(&(agg.0, idx)) {
                list.insert(pos, (agg.0, idx));
            }
        }
    }
}

/// One shard's execution state: its scoring scratch pool (one scratch
/// per evaluation thread, same discipline as the flat loop's) and its
/// running counters.
struct ShardState {
    scratch: Vec<Mutex<ScoreScratch>>,
    commits: usize,
    score_s: f64,
}

/// Candidate enumeration through the crossing index — the sharded
/// replacement for the flat loop's full-matrix
/// `Allocation::flow_paths_over` scan. Must enumerate exactly the same
/// candidates in exactly the same order.
fn gather_indexed(
    opt: &Optimizer<'_>,
    alloc: &Allocation,
    incumbent: &Incumbent,
    index: &CrossingIndex,
    link: LinkId,
    escape_level: u32,
) -> Vec<Candidate> {
    let outcome = &incumbent.eval.outcome;
    let mut candidates: Vec<Candidate> = Vec::new();
    for &(agg_raw, path_idx) in &index.per_link[link.index()] {
        let agg_id = AggregateId(agg_raw);
        let on_path = alloc.flows_on(agg_id, path_idx as usize);
        if on_path == 0 {
            continue;
        }
        let agg = opt.tm.aggregate(agg_id);
        let count = opt.flows_to_move(agg, on_path, escape_level);
        if count == 0 {
            continue;
        }
        let alts = alternatives(
            opt.topology,
            agg,
            alloc,
            outcome,
            opt.config.path_policy,
            &opt.config.excluded_links,
        );
        for alt in alts {
            if alt.uses_link(link) || &alt == alloc.path_set(agg_id).path(path_idx as usize) {
                continue;
            }
            candidates.push(Candidate {
                aggregate: agg_id,
                from: path_idx as usize,
                count,
                alt,
            });
        }
    }
    candidates
}

/// One sharded step focused on `link`: gathers candidates through the
/// crossing index and scores them on the owning shard's scratch pool,
/// with the flat loop's exact reduction (max score, earliest candidate
/// on ties) at any thread count.
fn step_sharded(
    opt: &Optimizer<'_>,
    shard: &ShardState,
    alloc: &Allocation,
    incumbent: &Incumbent,
    index: &CrossingIndex,
    link: LinkId,
    escape_level: u32,
) -> Option<Candidate> {
    let initial_score = opt
        .config
        .objective
        .score(&incumbent.report, &incumbent.eval.outcome);
    let mut candidates = gather_indexed(opt, alloc, incumbent, index, link, escape_level);
    if candidates.is_empty() {
        return None;
    }

    let threads = opt.config.threads.min(candidates.len());
    let mut scores = vec![f64::NEG_INFINITY; candidates.len()];
    if threads == 1 {
        let mut ws = shard.scratch[0].lock().expect("scratch lock poisoned");
        for (i, c) in candidates.iter().enumerate() {
            scores[i] = opt.score_candidate_incremental(alloc, incumbent, c, &mut ws);
        }
    } else {
        let chunk = candidates.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for ((slot, cands), scratch) in scores
                .chunks_mut(chunk)
                .zip(candidates.chunks(chunk))
                .zip(&shard.scratch)
            {
                scope.spawn(move || {
                    let mut ws = scratch.lock().expect("scratch lock poisoned");
                    for (s, c) in slot.iter_mut().zip(cands) {
                        *s = opt.score_candidate_incremental(alloc, incumbent, c, &mut ws);
                    }
                });
            }
        });
    }

    let (best_idx, &best_score) = scores
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ib.cmp(ia)))
        .expect("candidates is non-empty");

    if best_score > initial_score + opt.config.improvement_eps {
        Some(candidates.swap_remove(best_idx))
    } else {
        None
    }
}

/// The sharded main loop. Identical decision sequence to
/// `Optimizer::run_flat` in incremental mode — same congested-link
/// visit order, same candidates, same scores, same commits — over
/// sharded data structures and scratch.
pub(crate) fn run_sharded(
    opt: &Optimizer<'_>,
    initial: Allocation,
    shard_count: usize,
) -> OptimizeResult {
    // lint:allow(wall-clock): timing observability only; never feeds a decision
    let started = Instant::now();
    debug_assert!(initial.validate(opt.tm).is_ok());
    let partition = RegionPartition::new(opt.topology, opt.tm, shard_count);
    let mut index = CrossingIndex::build(opt.topology, opt.tm, &initial);
    let mut shards: Vec<ShardState> = (0..=shard_count)
        .map(|_| ShardState {
            scratch: (0..opt.config.threads)
                .map(|_| Mutex::new(ScoreScratch::default()))
                .collect(),
            commits: 0,
            score_s: 0.0,
        })
        .collect();

    let mut alloc = initial;
    let mut incumbent = opt.incumbent_for(&alloc);
    let mut trace = RunTrace::new();
    let mut commits = 0usize;
    let mut moves: Vec<Move> = Vec::new();
    trace.push(opt.trace_point(started, commits, &incumbent.eval.outcome, &incumbent.report));

    let mut escape_level: u32 = 0;
    let termination = loop {
        if !incumbent.eval.outcome.is_congested() {
            break crate::optimizer::Termination::NoCongestion;
        }
        if commits >= opt.config.max_commits {
            break crate::optimizer::Termination::CommitLimit;
        }

        // Visit congested links from most to least oversubscribed, as
        // the flat loop does; each link's work runs on its owning
        // shard.
        let congested = incumbent.eval.outcome.congested.clone();
        let mut winner: Option<(Candidate, usize)> = None;
        for link in congested {
            let owner = partition.shard_of_link(link);
            // lint:allow(wall-clock): timing observability only; never feeds a decision
            let t0 = Instant::now();
            let found = step_sharded(
                opt,
                &shards[owner],
                &alloc,
                &incumbent,
                &index,
                link,
                escape_level,
            );
            shards[owner].score_s += t0.elapsed().as_secs_f64();
            if let Some(c) = found {
                winner = Some((c, owner));
                break;
            }
        }

        if let Some((c, owner)) = winner {
            let known_paths = alloc.path_set(c.aggregate).len();
            let m = opt.commit(&mut alloc, &mut incumbent, &c);
            if m.to == known_paths {
                // The commit appended a brand-new path: register it on
                // every link it crosses so future enumeration sees it.
                index.insert(c.aggregate, m.to as u32, &c.alt);
            }
            shards[owner].commits += 1;
            commits += 1;
            moves.push(m);
            trace.push(opt.trace_point(
                started,
                commits,
                &incumbent.eval.outcome,
                &incumbent.report,
            ));
            escape_level = 0;
            continue;
        }

        let fraction_maxed =
            (opt.config.move_fraction * opt.config.escape_growth.powi(escape_level as i32)) >= 1.0;
        if !opt.config.escape || fraction_maxed {
            break crate::optimizer::Termination::NoImprovement;
        }
        escape_level += 1;
    };

    debug_assert!(alloc.validate(opt.tm).is_ok());
    let mut scratch = WorkspaceStats::default();
    let shard_stats: Vec<ShardRunStats> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut ws = WorkspaceStats::default();
            for pool in &s.scratch {
                ws.merge(&pool.lock().expect("scratch lock poisoned").model.stats());
            }
            scratch.merge(&ws);
            ShardRunStats {
                shard: i,
                aggregates: partition.aggregates_in(i),
                links: partition.links_in(i),
                commits: s.commits,
                score_s: s.score_s,
                scratch: ws,
            }
        })
        .collect();

    let Incumbent { eval, report, .. } = incumbent;
    OptimizeResult {
        allocation: alloc,
        trace,
        report,
        outcome: eval.outcome,
        commits,
        moves,
        termination,
        scratch,
        shards: shard_stats,
    }
}

/// One per-component pass's recorded outcome: the committed candidates
/// in commit order (replayed verbatim onto the master state during the
/// merge), plus the pass's observability counters.
struct PassRecord {
    shard: usize,
    commits: Vec<(Candidate, Move)>,
    score_s: f64,
    scratch: WorkspaceStats,
}

/// Runs one isolated shard's greedy pass from a private clone of the
/// initial state: only `shard`-owned congested links are visited (in
/// the global most-oversubscribed-first order), and the exclusion set
/// is widened to every link the shard does not own, so alternatives
/// never leave the component. Scoring is single-threaded — the
/// parallelism lives one level up, across passes — and the decision
/// rule (strict improvement, earliest candidate on ties) is the flat
/// loop's.
fn run_pass(
    opt: &Optimizer<'_>,
    partition: &RegionPartition,
    shard: usize,
    alloc0: &Allocation,
    inc0: &Incumbent,
) -> PassRecord {
    // lint:allow(wall-clock): timing observability only; never feeds a decision
    let t0 = Instant::now();
    let mut alloc = alloc0.clone();
    let mut incumbent = inc0.clone();
    let mut excluded = opt.config.excluded_links.clone();
    for l in opt.topology.links() {
        if partition.shard_of_link(l) != shard {
            excluded.insert(l);
        }
    }
    let mut ws = ScoreScratch::default();
    let mut commits: Vec<(Candidate, Move)> = Vec::new();
    let mut escape_level: u32 = 0;
    loop {
        if commits.len() >= opt.config.max_commits {
            break;
        }
        let congested: Vec<LinkId> = incumbent
            .eval
            .outcome
            .congested
            .iter()
            .copied()
            .filter(|&l| partition.shard_of_link(l) == shard)
            .collect();
        if congested.is_empty() {
            break;
        }

        let mut winner: Option<Candidate> = None;
        for link in congested {
            let initial_score = opt
                .config
                .objective
                .score(&incumbent.report, &incumbent.eval.outcome);
            let mut candidates =
                opt.gather_candidates(&alloc, &incumbent, link, escape_level, &excluded);
            if candidates.is_empty() {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in candidates.iter().enumerate() {
                let s = opt.score_candidate_incremental(&alloc, &incumbent, c, &mut ws);
                // Strict `>` keeps the earliest candidate on ties, the
                // flat reduction's rule.
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((i, s));
                }
            }
            let (best_idx, best_score) = best.expect("candidates is non-empty");
            if best_score > initial_score + opt.config.improvement_eps {
                winner = Some(candidates.swap_remove(best_idx));
                break;
            }
        }

        if let Some(c) = winner {
            let m = opt.commit(&mut alloc, &mut incumbent, &c);
            commits.push((c, m));
            escape_level = 0;
            continue;
        }
        let fraction_maxed =
            (opt.config.move_fraction * opt.config.escape_growth.powi(escape_level as i32)) >= 1.0;
        if !opt.config.escape || fraction_maxed {
            break;
        }
        escape_level += 1;
    }
    PassRecord {
        shard,
        commits,
        score_s: t0.elapsed().as_secs_f64(),
        scratch: ws.model.stats(),
    }
}

/// Per-component optimizer passes
/// ([`crate::optimizer::OptimizerConfig::parallel_passes`]): region
/// shards that are **isolated** — no allocated flow path crosses a
/// shard boundary involving them — optimize their own congested links
/// concurrently from private clones of the initial state, their commit
/// sequences are replayed onto the master state shard-ascending, and a
/// global residual run (the regular sharded loop, or the flat loop
/// under [`Sharding::Off`]) finishes whatever congestion remains.
///
/// Determinism: every pass depends only on `(config, initial state,
/// shard id)` and the merge order is fixed (ascending shard id, commit
/// order within a shard), so the result is **bitwise identical at any
/// [`pass_threads`](crate::optimizer::OptimizerConfig::pass_threads)
/// count** — the worker assignment decides only which thread runs which
/// pass, never what a pass computes. Because isolated components share
/// no links *and no aggregates* with the rest of the instance, a
/// pass's network-utility improvements carry over exactly to the
/// merged state (the utility objective is a weighted sum over
/// aggregates), which is why this path requires that objective.
///
/// With no isolated congested shard, this degrades to exactly the
/// regular dispatch plus one no-op scan.
pub(crate) fn run_parallel_passes(
    opt: &Optimizer<'_>,
    initial: Allocation,
    shard_count: usize,
) -> OptimizeResult {
    // lint:allow(wall-clock): timing observability only; never feeds a decision
    let started = Instant::now();
    debug_assert!(initial.validate(opt.tm).is_ok());
    let partition = RegionPartition::new(opt.topology, opt.tm, shard_count);
    let incumbent0 = opt.incumbent_for(&initial);

    // Isolation scan: any allocated (flows > 0) path with a link owned
    // by a shard other than the aggregate's owner couples both shards
    // to the rest of the instance. Cross-shard aggregates (owner =
    // core) likewise de-isolate every shard whose links they ride.
    let mut isolated = vec![true; shard_count];
    for a in opt.tm.iter() {
        let owner = partition.shard_of_aggregate(a.id);
        let ps = initial.path_set(a.id);
        for idx in 0..ps.len() {
            if initial.flows_on(a.id, idx) == 0 {
                continue;
            }
            for &l in ps.path(idx).links() {
                let ls = partition.shard_of_link(l);
                if ls != owner {
                    if owner < shard_count {
                        isolated[owner] = false;
                    }
                    if ls < shard_count {
                        isolated[ls] = false;
                    }
                }
            }
        }
    }

    // A pass is only worth launching where there is shard-local
    // congestion to fix.
    let jobs: Vec<usize> = (0..shard_count)
        .filter(|&s| {
            isolated[s]
                && incumbent0
                    .eval
                    .outcome
                    .congested
                    .iter()
                    .any(|&l| partition.shard_of_link(l) == s)
        })
        .collect();

    let mut records: Vec<Option<PassRecord>> = jobs.iter().map(|_| None).collect();
    if !jobs.is_empty() {
        let workers = opt.config.pass_threads.max(1).min(jobs.len());
        if workers == 1 {
            for (slot, &s) in records.iter_mut().zip(&jobs) {
                *slot = Some(run_pass(opt, &partition, s, &initial, &incumbent0));
            }
        } else {
            let chunk = jobs.len().div_ceil(workers);
            let (partition_ref, initial_ref, inc_ref) = (&partition, &initial, &incumbent0);
            std::thread::scope(|scope| {
                for (slot, js) in records.chunks_mut(chunk).zip(jobs.chunks(chunk)) {
                    scope.spawn(move || {
                        for (r, &s) in slot.iter_mut().zip(js) {
                            *r = Some(run_pass(opt, partition_ref, s, initial_ref, inc_ref));
                        }
                    });
                }
            });
        }
    }

    // Merge: replay every pass's commit sequence onto the master state,
    // shard-ascending. Path-set growth per aggregate is confined to its
    // owning shard's pass, so each replayed `add_path` lands on exactly
    // the index the pass recorded.
    let mut alloc = initial;
    let mut incumbent = incumbent0;
    let mut trace = RunTrace::new();
    let mut commits = 0usize;
    let mut moves: Vec<Move> = Vec::new();
    trace.push(opt.trace_point(started, commits, &incumbent.eval.outcome, &incumbent.report));

    let mut shard_stats: Vec<ShardRunStats> = (0..=shard_count)
        .map(|i| ShardRunStats {
            shard: i,
            aggregates: partition.aggregates_in(i),
            links: partition.links_in(i),
            ..Default::default()
        })
        .collect();
    let mut scratch = WorkspaceStats::default();
    for rec in records.into_iter().flatten() {
        shard_stats[rec.shard].commits += rec.commits.len();
        shard_stats[rec.shard].score_s += rec.score_s;
        shard_stats[rec.shard].scratch.merge(&rec.scratch);
        scratch.merge(&rec.scratch);
        for (c, recorded) in rec.commits {
            let m = opt.commit(&mut alloc, &mut incumbent, &c);
            debug_assert_eq!(m, recorded, "pass replay must reproduce the recorded move");
            commits += 1;
            moves.push(m);
            trace.push(opt.trace_point(
                started,
                commits,
                &incumbent.eval.outcome,
                &incumbent.report,
            ));
        }
    }
    drop(incumbent);

    // Residual: whatever congestion the passes could not own — trunk
    // links, coupled shards, cross-shard aggregates — is finished by
    // the regular loop from the merged state.
    let pass_commits = commits;
    let residual = match opt.config.sharding.shard_count(partition.region_count()) {
        Some(n) => run_sharded(opt, alloc, n),
        None => opt.run_flat(alloc),
    };
    // The residual's initial trace point duplicates the merged state the
    // replay already recorded; skip it and re-stamp commit counts.
    for p in residual.trace.points().iter().skip(1) {
        let mut p = *p;
        p.commits += pass_commits;
        trace.push(p);
    }
    moves.extend(residual.moves);
    scratch.merge(&residual.scratch);
    merge_shard_stats(&mut shard_stats, &residual.shards);

    OptimizeResult {
        allocation: residual.allocation,
        trace,
        report: residual.report,
        outcome: residual.outcome,
        commits: pass_commits + residual.commits,
        moves,
        termination: residual.termination,
        scratch,
        shards: shard_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerConfig;
    use fubar_topology::{generators, Bandwidth};
    use fubar_traffic::{workload, WorkloadConfig};

    #[test]
    fn region_labels_come_from_name_prefixes() {
        let topo = generators::hypergrowth(4, 4, Bandwidth::from_mbps(10.0));
        assert_eq!(region_count(&topo), 4);
        let tm = workload::generate(&topo, &WorkloadConfig::default(), 1);
        let p = RegionPartition::new(&topo, &tm, 2);
        assert_eq!(p.region_count(), 4);
        assert_eq!(p.shard_count(), 2);
        assert_eq!(p.core_shard(), 2);
        // pop0 and pop2 land on shard 0; pop1 and pop3 on shard 1.
        assert_eq!(p.region_of_node(topo.node("pop0_0").unwrap()), 0);
        assert_eq!(p.region_of_node(topo.node("pop2_0").unwrap()), 2);
    }

    #[test]
    fn topologies_without_underscores_degrade_to_per_node_regions() {
        let topo = generators::abilene(Bandwidth::from_mbps(10.0));
        assert_eq!(region_count(&topo), topo.node_count());
    }

    #[test]
    fn partition_counts_cover_the_instance() {
        let topo = generators::planetary(6, 4, Bandwidth::from_mbps(10.0));
        let tm = workload::generate(
            &topo,
            &WorkloadConfig {
                include_intra_pop: true,
                ..Default::default()
            },
            3,
        );
        let p = RegionPartition::new(&topo, &tm, 3);
        let aggs: usize = (0..=p.core_shard()).map(|s| p.aggregates_in(s)).sum();
        let links: usize = (0..=p.core_shard()).map(|s| p.links_in(s)).sum();
        assert_eq!(aggs, tm.len());
        assert_eq!(links, topo.link_count());
        // The hierarchical generator guarantees both trunk and local
        // links exist.
        assert!(p.links_in(p.core_shard()) > 0, "no trunks found");
        assert!(p.links_in(0) > 0, "no shard-local links found");
    }

    /// A structurally congested hypergrowth instance whose traffic
    /// never leaves its region: every region is an isolated congestion
    /// component, the shape per-component passes exist for.
    fn isolated_regions_instance() -> (fubar_topology::Topology, fubar_traffic::TrafficMatrix) {
        let topo = generators::hypergrowth(4, 4, Bandwidth::from_mbps(2.0));
        let tm = workload::generate(
            &topo,
            &WorkloadConfig {
                intra_region_only: true,
                ..Default::default()
            },
            7,
        );
        (topo, tm)
    }

    fn run_with_passes(
        topo: &fubar_topology::Topology,
        tm: &fubar_traffic::TrafficMatrix,
        pass_threads: usize,
        sharding: Sharding,
    ) -> OptimizeResult {
        let cfg = OptimizerConfig {
            parallel_passes: true,
            pass_threads,
            sharding,
            threads: 1,
            ..Default::default()
        };
        Optimizer::new(topo, tm, cfg).run()
    }

    #[test]
    fn parallel_passes_fire_on_isolated_regions() {
        let (topo, tm) = isolated_regions_instance();
        // `Sharding::Off` makes the residual run flat, so every entry
        // in `shards` with commits > 0 was written by a pass.
        let result = run_with_passes(&topo, &tm, 2, Sharding::Off);
        assert!(result.commits > 0, "instance must be optimizable");
        let pass_commits: usize = result.shards.iter().map(|s| s.commits).sum();
        assert!(pass_commits > 0, "isolated regions should run passes");
        assert_eq!(
            result.shards[result.shards.len() - 1].commits,
            0,
            "intra-region traffic must not commit on the trunk core"
        );
        result.allocation.validate(&tm).unwrap();
        assert!(result.trace.is_monotone());
        assert_eq!(result.commits, result.moves.len());
    }

    #[test]
    fn parallel_passes_are_invariant_under_pass_thread_count() {
        let (topo, tm) = isolated_regions_instance();
        let base = run_with_passes(&topo, &tm, 1, Sharding::Auto);
        for pass_threads in [2, 4] {
            let run = run_with_passes(&topo, &tm, pass_threads, Sharding::Auto);
            assert_eq!(run.moves, base.moves, "pass_threads={pass_threads}");
            assert_eq!(run.commits, base.commits);
            assert_eq!(
                run.report.network_utility.to_bits(),
                base.report.network_utility.to_bits()
            );
            assert_eq!(run.outcome.congested, base.outcome.congested);
            assert_eq!(run.trace.points().len(), base.trace.points().len());
            for (a, b) in run.trace.points().iter().zip(base.trace.points()) {
                assert_eq!(a.commits, b.commits);
                assert_eq!(a.network_utility.to_bits(), b.network_utility.to_bits());
            }
        }
    }

    #[test]
    fn parallel_passes_degrade_to_sharded_without_isolation() {
        // All-pairs traffic rides the trunks, so no shard is isolated
        // and the pass layer must change nothing.
        let topo = generators::hypergrowth(4, 4, Bandwidth::from_mbps(2.0));
        let tm = workload::generate(&topo, &WorkloadConfig::default(), 7);
        let with_passes = run_with_passes(&topo, &tm, 4, Sharding::Auto);
        let without = Optimizer::new(
            &topo,
            &tm,
            OptimizerConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(with_passes.moves, without.moves);
        assert_eq!(
            with_passes.report.network_utility.to_bits(),
            without.report.network_utility.to_bits()
        );
        assert_eq!(with_passes.termination, without.termination);
    }

    #[test]
    fn crossing_index_matches_flow_paths_over() {
        let topo = generators::hypergrowth(4, 4, Bandwidth::from_kbps(400.0));
        let tm = workload::generate(
            &topo,
            &WorkloadConfig {
                flow_count: (2, 5),
                ..Default::default()
            },
            7,
        );
        let alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let index = CrossingIndex::build(&topo, &tm, &alloc);
        for l in topo.links() {
            let via_scan: Vec<(AggregateId, usize, u32)> = alloc.flow_paths_over(&tm, l);
            let via_index: Vec<(AggregateId, usize, u32)> = index.per_link[l.index()]
                .iter()
                .filter_map(|&(a, idx)| {
                    let id = AggregateId(a);
                    let n = alloc.flows_on(id, idx as usize);
                    (n > 0).then_some((id, idx as usize, n))
                })
                .collect();
            assert_eq!(via_scan, via_index, "link {l:?}");
        }
    }
}
