//! AMPS-Inf — the paper's primary contribution.
//!
//! Given a pre-trained model, AMPS-Inf jointly decides (1) how to split the
//! layer graph into contiguous partitions and (2) which Lambda memory block
//! to give each partition, minimizing monetary cost subject to a
//! response-time SLO and the platform's deployment/temporary-storage limits
//! (paper §3), then deploys and coordinates the chain (§4).
//!
//! * [`config`] — knobs: platform presets, SLO, constraint-(6) cap, QCR
//!   policy, time-preference ε;
//! * [`cuts`] — cut enumeration with constraint-(4)/(5)/(6) pruning (the
//!   Profiler's "all the possible ways for the partition", Fig. 4);
//! * [`colcache`] — the per-optimize segment-column memo cache shared by
//!   both optimizer passes;
//! * [`miqp_build`] — assembly of the per-cut 0-1 quadratic program
//!   (Eq. 12–14) with SOS-1 memory rows (Eq. 1) and the SLO row;
//! * [`optimizer`] — the Optimizer component: enumerate → solve → select;
//! * [`sweep`] — amortized multi-point planning over an SLO × batch grid
//!   with Pareto-frontier extraction;
//! * [`baselines`] — the paper's Baseline 1 (random), Baseline 2
//!   (greedy-from-last-layer + max memory), Baseline 3 (exhaustive
//!   optimum via DP over all boundaries);
//! * [`coordinator`] — the Coordinator component: package partitions,
//!   deploy them as one DAG of lambdas (a chain is a width-1 DAG), move
//!   each request through storage on the one sharded serving engine,
//!   return predictions;
//! * [`plancache`] — the online `(model, SLO, batch) → plan` cache the
//!   adaptive serving loop consults when load shifts SLO pressure;
//! * [`plan`] — serializable execution/provisioning plans.

#![warn(missing_docs)]

pub mod baselines;
pub mod colcache;
pub mod config;
pub mod coordinator;
pub mod cuts;
pub mod miqp_build;
pub mod optimizer;
pub mod plan;
pub mod plancache;
pub mod sweep;
pub mod trace;

pub use config::AmpsConfig;
pub use coordinator::{
    BatchFailure, BatchReport, Coordinator, DagDeployment, DagNodeStats, DagServeScratch,
    JobReport, PipelineReport, PipelineStats, RequestSummary, RetryRecord, ServeError, TraceReport,
};
pub use optimizer::{DagReport, DagSearchStats, OptimizeError, Optimizer};
pub use plan::{
    DagNode, DagObject, DagPlan, EffectivePlan, ExecutionPlan, PartitionPlan, PipelinePlan,
};
pub use plancache::PlanCache;
pub use sweep::{
    DagSweepPoint, DagSweepReport, PipelinePoint, PipelineSweepReport, PointStats, SweepGrid,
    SweepPoint, SweepReport,
};
pub use trace::Timeline;
