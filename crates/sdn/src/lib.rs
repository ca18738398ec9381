//! # fubar-sdn
//!
//! The deployment substrate the paper describes but defers (§2.1, §5):
//! FUBAR "will be separate from the SDN controller", working "offline to
//! periodically adjust the distribution of traffic on paths", with an
//! online component admitting flows to the computed paths.
//!
//! This crate simulates that environment so the controller can be
//! exercised and failure-injected without hardware:
//!
//! * [`RuleSet`] — installed forwarding state: weighted path buckets per
//!   aggregate (OpenFlow group-table style);
//! * [`Fabric`] — the data plane: maps *true* traffic onto installed
//!   rules, enforces link failures with IGP-style fallback, evaluates
//!   the shared flow model, accumulates counters;
//! * [`Estimator`] — the measurement pipeline: noisy counters, EWMA
//!   smoothing, and demand-peak inference (paper §2.2);
//! * [`FubarController`] — one re-optimization on the estimated matrix,
//!   warm-started from the previously installed allocation so path sets
//!   carry across runs.
//!
//! The periodic loop around them — churn, failures, measurement epochs
//! and the re-optimization cadence — is `fubar-scenario`'s event engine.
//!
//! ```
//! use fubar_sdn::{Estimator, Fabric, FubarController, MeasurementConfig};
//! use fubar_topology::{generators, Bandwidth, Delay};
//! use fubar_traffic::{workload, WorkloadConfig};
//!
//! let topo = generators::abilene(Bandwidth::from_mbps(2.0));
//! let tm = workload::generate(&topo, &WorkloadConfig {
//!     include_intra_pop: false,
//!     flow_count: (2, 6),
//!     ..Default::default()
//! }, 7);
//! let mut fabric = Fabric::new(topo, tm, Delay::from_secs(30.0));
//! let mut estimator = Estimator::new(fabric.true_tm().len(), MeasurementConfig::default(), 1);
//!
//! // Measure the shortest-path boot state, plan on the estimate, install.
//! let boot = fabric.run_epoch();
//! estimator.observe(fabric.counters(), fabric.epoch_duration());
//! let estimated = estimator.estimated_matrix(fabric.true_tm());
//! let controller = FubarController::default();
//! let first = controller.reoptimize(&fabric, &estimated, None);
//! fabric.install(first.rules);
//! assert!(fabric.run_epoch().report.network_utility >= boot.report.network_utility);
//!
//! // The next run warm-starts from the installed allocation.
//! let next = controller.reoptimize(&fabric, &estimated, Some(&first.allocation));
//! assert!(next.warm && !first.warm);
//! ```
#![forbid(unsafe_code)]

mod controller;
mod fabric;
mod measurement;
mod rules;

pub use controller::{FubarController, Reoptimization};
pub use fabric::{AggregateCounter, EpochReport, Fabric};
pub use measurement::{AggregateEstimate, Estimator, MeasurementConfig};
pub use rules::{GroupEntry, RuleSet};
