//! Open-loop load generation over a deployed AMPS-Inf plan.
//!
//! The paper motivates serverless serving with its ability "to quickly
//! adapt to the query load dynamics" (§2). This module exercises exactly
//! that: seeded arrival processes over a deployed plan — constant-rate
//! Poisson plus the bursty shapes real services see ([`ArrivalShape`]:
//! diurnal sinusoid, flash crowd, Poisson bursts, multi-tenant mix) —
//! with the platform's per-function instance pools scaling out under
//! concurrency (cold starts) and serving warm when load permits. It
//! reports the latency distribution, cold-start rate, warm-pool idle
//! cost and dollars — the numbers an operator would use to pick an SLO
//! and a provisioning policy for the optimizer.
//!
//! [`run_adaptive_loop`] closes the loop: an online plan cache
//! ([`PlanCache`], seeded from one amortized sweep) lets the coordinator
//! re-plan between load epochs when the arrival rate shifts the SLO
//! pressure, switching plans mid-run without ever solving on the
//! serving path more than once per `(SLO, batch)` point.

use std::collections::HashMap;

use ampsinf_core::plan::{DagPlan, EffectivePlan, ExecutionPlan};
use ampsinf_core::sweep::SweepGrid;
use ampsinf_core::{
    AmpsConfig, Coordinator, DagDeployment, DagNodeStats, OptimizeError, Optimizer, PlanCache,
    TraceReport,
};
use ampsinf_faas::SmallRng;
use ampsinf_model::LayerGraph;

/// Deterministic arrival-process shapes for [`LoadSpec`].
///
/// Every shape is generated up front from the spec's seed by inverting
/// the instantaneous rate (`Δt = -ln(u)/λ(t)` for the time-varying
/// shapes), so arrivals are a pure function of `(shape, rate, requests,
/// seed)` — independent of lane count and thread count by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalShape {
    /// Homogeneous Poisson process at the spec's mean rate.
    Constant,
    /// Sinusoidal rate modulation, `λ(t) = rate·(1 + depth·sin(2πt/T))`
    /// — the day/night cycle of a user-facing service.
    Diurnal {
        /// Modulation period `T` in seconds.
        period_s: f64,
        /// Peak-to-mean modulation depth in `[0, 1)`.
        depth: f64,
    },
    /// Flash crowd: the rate multiplies by `magnitude` inside a window
    /// centred at fraction `at` of the nominal run horizon
    /// (`requests / rate` seconds) and `width` of it wide.
    Spike {
        /// Window centre as a fraction of the nominal horizon.
        at: f64,
        /// Rate multiplier inside the window (> 1).
        magnitude: f64,
        /// Window width as a fraction of the nominal horizon.
        width: f64,
    },
    /// Poisson bursts: burst *starts* follow a Poisson process slowed by
    /// the burst size (so the mean rate stays the spec's), and each
    /// start releases `burst` requests within a `within_s`-second
    /// window.
    Bursts {
        /// Requests per burst.
        burst: usize,
        /// Window each burst's requests land in, seconds.
        within_s: f64,
    },
    /// Superposition of independent per-tenant Poisson streams. Each
    /// tenant is `(share, multiplier)`: it contributes `share` of the
    /// total requests (shares are normalized) at `multiplier ×` the mean
    /// rate, from its own derived seed; the streams are merged in time
    /// order.
    MultiTenant {
        /// Per-tenant `(request share, rate multiplier)` pairs.
        tenants: Vec<(f64, f64)>,
    },
}

impl ArrivalShape {
    /// Preset diurnal cycle: one-hour period, 0.8 depth.
    pub fn diurnal() -> Self {
        ArrivalShape::Diurnal {
            period_s: 3600.0,
            depth: 0.8,
        }
    }

    /// Preset flash crowd: 8× rate for the middle tenth of the run.
    pub fn flash_crowd() -> Self {
        ArrivalShape::Spike {
            at: 0.5,
            magnitude: 8.0,
            width: 0.1,
        }
    }

    /// Preset Poisson bursts: 32 requests within 50 ms per burst.
    pub fn bursty() -> Self {
        ArrivalShape::Bursts {
            burst: 32,
            within_s: 0.05,
        }
    }

    /// Preset multi-tenant mix: a slow majority tenant (60% of requests
    /// at 0.5×), a steady mid tenant (30% at 2×) and an aggressive small
    /// one (10% at 8×).
    pub fn multi_tenant() -> Self {
        ArrivalShape::MultiTenant {
            tenants: vec![(0.6, 0.5), (0.3, 2.0), (0.1, 8.0)],
        }
    }

    /// Parses a CLI shape name into its preset.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "constant" | "poisson" => Ok(ArrivalShape::Constant),
            "diurnal" => Ok(Self::diurnal()),
            "spike" | "flash-crowd" | "flash_crowd" => Ok(Self::flash_crowd()),
            "burst" | "bursts" | "bursty" => Ok(Self::bursty()),
            "mix" | "multi-tenant" | "multi_tenant" | "tenants" => Ok(Self::multi_tenant()),
            other => Err(format!(
                "unknown arrival shape '{other}' \
                 (try constant, diurnal, spike, bursts or mix)"
            )),
        }
    }

    /// Short human-readable label, used in [`LoadReport::shape`].
    pub fn label(&self) -> String {
        match self {
            ArrivalShape::Constant => "poisson".into(),
            ArrivalShape::Diurnal { period_s, depth } => {
                format!("diurnal(period={period_s}s,depth={depth})")
            }
            ArrivalShape::Spike {
                at,
                magnitude,
                width,
            } => format!("flash-crowd(at={at},x{magnitude},width={width})"),
            ArrivalShape::Bursts { burst, within_s } => {
                format!("bursts({burst} within {within_s}s)")
            }
            ArrivalShape::MultiTenant { tenants } => {
                format!("multi-tenant({} tenants)", tenants.len())
            }
        }
    }
}

/// An open-loop workload description.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Mean arrival rate, requests per second.
    pub rate_rps: f64,
    /// Total requests to generate.
    pub requests: usize,
    /// RNG seed (deterministic runs).
    pub seed: u64,
    /// Arrival-process shape (constant-rate Poisson by default).
    pub shape: ArrivalShape,
}

impl LoadSpec {
    /// A constant-rate Poisson workload.
    pub fn poisson(rate_rps: f64, requests: usize, seed: u64) -> Self {
        LoadSpec {
            rate_rps,
            requests,
            seed,
            shape: ArrivalShape::Constant,
        }
    }

    /// Same spec with a different arrival shape.
    pub fn with_shape(mut self, shape: ArrivalShape) -> Self {
        self.shape = shape;
        self
    }

    /// Generates the arrival times, ascending. Deterministic in the
    /// spec alone — see [`ArrivalShape`].
    pub fn arrivals(&self) -> Vec<f64> {
        assert!(
            self.rate_rps > 0.0 && self.rate_rps.is_finite(),
            "arrival rate must be positive"
        );
        let n = self.requests;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(n);
        match &self.shape {
            ArrivalShape::Constant => {
                let mut t = 0.0f64;
                for _ in 0..n {
                    t += -rng.next_f64_open().ln() / self.rate_rps;
                    out.push(t);
                }
            }
            ArrivalShape::Diurnal { period_s, depth } => {
                assert!(*period_s > 0.0, "diurnal period must be positive");
                assert!((0.0..1.0).contains(depth), "diurnal depth must be in [0,1)");
                let mut t = 0.0f64;
                for _ in 0..n {
                    let phase = std::f64::consts::TAU * t / period_s;
                    let lambda = self.rate_rps * (1.0 + depth * phase.sin());
                    t += -rng.next_f64_open().ln() / lambda;
                    out.push(t);
                }
            }
            ArrivalShape::Spike {
                at,
                magnitude,
                width,
            } => {
                assert!(*magnitude > 0.0, "spike magnitude must be positive");
                assert!(*width >= 0.0, "spike width must be non-negative");
                let horizon = n as f64 / self.rate_rps;
                let lo = (at - width / 2.0) * horizon;
                let hi = (at + width / 2.0) * horizon;
                let mut t = 0.0f64;
                for _ in 0..n {
                    let lambda = if t >= lo && t < hi {
                        self.rate_rps * magnitude
                    } else {
                        self.rate_rps
                    };
                    t += -rng.next_f64_open().ln() / lambda;
                    out.push(t);
                }
            }
            ArrivalShape::Bursts { burst, within_s } => {
                assert!(*within_s >= 0.0, "burst window must be non-negative");
                let burst = (*burst).max(1);
                let mut start = 0.0f64;
                while out.len() < n {
                    start += -rng.next_f64_open().ln() * burst as f64 / self.rate_rps;
                    let take = burst.min(n - out.len());
                    let mut offsets: Vec<f64> =
                        (0..take).map(|_| rng.next_f64_open() * within_s).collect();
                    offsets.sort_by(f64::total_cmp);
                    out.extend(offsets.into_iter().map(|o| start + o));
                }
            }
            ArrivalShape::MultiTenant { tenants } => {
                assert!(!tenants.is_empty(), "at least one tenant required");
                assert!(
                    tenants.iter().all(|&(s, m)| s > 0.0 && m > 0.0),
                    "tenant shares and multipliers must be positive"
                );
                let share_sum: f64 = tenants.iter().map(|t| t.0).sum();
                let mut assigned = 0usize;
                for (i, &(share, mult)) in tenants.iter().enumerate() {
                    let count = if i + 1 == tenants.len() {
                        n - assigned
                    } else {
                        (((share / share_sum) * n as f64) as usize).min(n - assigned)
                    };
                    assigned += count;
                    let tenant_seed =
                        self.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut rng = SmallRng::seed_from_u64(tenant_seed);
                    let rate = self.rate_rps * mult;
                    let mut t = 0.0f64;
                    for _ in 0..count {
                        t += -rng.next_f64_open().ln() / rate;
                        out.push(t);
                    }
                }
            }
        }
        // Bursts can overlap and tenant streams interleave; the serving
        // engine expects the trace in arrival order.
        out.sort_by(f64::total_cmp);
        out
    }
}

/// Aggregated results of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// End-to-end latencies (arrival → prediction) of the *successful*
    /// requests, sorted ascending.
    pub latencies_s: Vec<f64>,
    /// Wall-clock of the whole run (first arrival → last completion).
    pub makespan_s: f64,
    /// Total dollars: invocations + storage settlement + warm-pool idle
    /// billing, failed requests included.
    pub dollars: f64,
    /// Cold starts across all partitions.
    pub cold_starts: usize,
    /// Peak live container instances across partitions.
    pub peak_instances: usize,
    /// Requests that exhausted their retry budget. The run degrades past
    /// them — percentiles and SLO attainment cover successes only.
    pub failures: usize,
    /// Label of the arrival shape that drove the run.
    pub shape: String,
    /// Label of the warm-pool policy in force.
    pub policy: String,
    /// Lambda invocations attempted (successes and failed attempts) —
    /// the denominator of [`cold_start_rate`](Self::cold_start_rate).
    pub invocations: u64,
    /// Instances the warm-pool policy pre-warmed before the first
    /// arrival.
    pub pre_warmed: usize,
    /// Idle warm-pool seconds accumulated under the policy's keep-alive
    /// horizon.
    pub idle_s: f64,
    /// Dollars billed for that idle time (0 unless the policy bills
    /// provisioned capacity; included in [`dollars`](Self::dollars)).
    pub idle_dollars: f64,
    /// Plan-cache lookups served without solving (adaptive runs only).
    pub plan_hits: u64,
    /// Plan-cache lookups that ran the optimizer (adaptive runs only).
    pub plan_misses: u64,
    /// Epoch boundaries where the adaptive controller switched to a
    /// different plan (adaptive runs only).
    pub replans: u64,
    /// Seconds requests spent waiting for a free pipeline station, summed
    /// over stages (pipelined runs only; stage 0's share is admission
    /// queueing, later stages' share measures cut imbalance).
    pub stall_s: f64,
    /// Mean fraction of the run each stage's stations were busy
    /// (pipelined runs only; 0 otherwise).
    pub pipeline_utilization: f64,
    /// Per-stage station utilization in chain order (empty unless the run
    /// was pipelined).
    pub stage_utilization: Vec<f64>,
    /// Per-node busy/stall/critical-path accounting (`Some` for every
    /// single-plan open-loop run — [`run_open_loop`] reports one row per
    /// chain partition, [`run_open_loop_dag`] one per DAG node; the
    /// adaptive engine serves several deployments whose node indices
    /// don't line up, so it reports `None`).
    pub dag_nodes: Option<DagNodeStats>,
}

impl LoadReport {
    /// Latency at percentile `p` ∈ [0, 100], linearly interpolated
    /// between order statistics. Degenerate runs are well-defined: no
    /// successes returns 0.0, a single success returns it at every `p`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        match self.latencies_s.len() {
            0 => 0.0,
            1 => self.latencies_s[0],
            n => {
                let rank = (p / 100.0) * (n - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let frac = rank - lo as f64;
                self.latencies_s[lo] + (self.latencies_s[hi] - self.latencies_s[lo]) * frac
            }
        }
    }

    /// Fraction of requests within `slo_s`.
    pub fn slo_attainment(&self, slo_s: f64) -> f64 {
        if self.latencies_s.is_empty() {
            return 1.0;
        }
        self.latencies_s.iter().filter(|&&l| l <= slo_s).count() as f64
            / self.latencies_s.len() as f64
    }

    /// Cold starts per attempted invocation (0 when nothing ran).
    pub fn cold_start_rate(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.cold_starts as f64 / self.invocations as f64
        }
    }
}

/// Folds a serving-engine trace into a [`LoadReport`].
fn report_from_trace(
    trace: &TraceReport,
    arrivals: &[f64],
    load: &LoadSpec,
    cfg: &AmpsConfig,
) -> LoadReport {
    let mut latencies: Vec<f64> = trace
        .requests
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.latency_s)
        .collect();
    debug_assert!(
        latencies.iter().all(|l| !l.is_nan()),
        "NaN latency in load run"
    );
    latencies.sort_by(f64::total_cmp);
    let makespan_s = trace.last_completion_s - arrivals.first().copied().unwrap_or(0.0);
    LoadReport {
        latencies_s: latencies,
        makespan_s,
        dollars: trace.dollars + trace.settled_dollars + trace.idle_dollars,
        cold_starts: trace.cold_starts,
        peak_instances: trace.peak_instances,
        failures: trace.failures,
        shape: load.shape.label(),
        policy: cfg.warm_pool.to_string(),
        invocations: trace.invocations,
        pre_warmed: trace.pre_warmed,
        idle_s: trace.idle_s,
        idle_dollars: trace.idle_dollars,
        plan_hits: 0,
        plan_misses: 0,
        replans: 0,
        stall_s: trace.pipeline.as_ref().map_or(0.0, |p| p.stall_s()),
        pipeline_utilization: trace.pipeline.as_ref().map_or(0.0, |p| p.utilization()),
        stage_utilization: trace
            .pipeline
            .as_ref()
            .map_or_else(Vec::new, |p| p.stage_utilization()),
        dag_nodes: trace.dag_nodes.clone(),
    }
}

/// Runs an open-loop workload against a deployed chain plan.
///
/// The chain is served as the width-1 DAG [`DagPlan::from_chain`] builds,
/// through [`run_open_loop_dag`]; the report therefore carries
/// [`LoadReport::dag_nodes`] with one row per partition.
pub fn run_open_loop(
    graph: &LayerGraph,
    plan: &ExecutionPlan,
    cfg: &AmpsConfig,
    load: &LoadSpec,
) -> Result<LoadReport, String> {
    let dag = DagPlan::from_chain(plan, |k| graph.cut_transfer_bytes(k));
    run_open_loop_dag(graph, &dag, cfg, load)
}

/// Runs an open-loop workload against a deployed [`DagPlan`] — a
/// branch-parallel plan or a chain.
///
/// Requests are processed in arrival order; each runs every node of the
/// plan. The platform's instance pools decide warm/cold per invocation
/// under [`AmpsConfig::warm_pool`]'s provisioning policy, so bursts
/// scale out (cold) and steady trickles stay warm — Lambda's actual
/// elasticity behaviour, or the pre-warmed variant the policy buys.
///
/// Serving runs on [`Coordinator::serve_trace_dag`]'s work-stealing
/// sharded engine, station-pipelined when [`AmpsConfig::pipeline_depth`]
/// is positive: with [`AmpsConfig::serve_lanes`] > 1, requests split across
/// warm-pool shards executed by [`AmpsConfig::serve_threads`] workers,
/// and the report is bit-identical at every thread count. A request that
/// exhausts its retry budget does not abort the run — it is counted in
/// [`LoadReport::failures`] and the load keeps flowing. The run surfaces
/// [`LoadReport::dag_nodes`]: per-node busy/stall seconds, station
/// occupancy and critical-path shares — where the time actually went.
pub fn run_open_loop_dag(
    graph: &LayerGraph,
    plan: &DagPlan,
    cfg: &AmpsConfig,
    load: &LoadSpec,
) -> Result<LoadReport, String> {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord
        .deploy_dag(&mut platform, graph, plan)
        .map_err(|e| e.to_string())?;
    let arrivals = load.arrivals();
    let trace = coord.serve_trace_dag(&mut platform, &dep, &arrivals);
    Ok(report_from_trace(&trace, &arrivals, load, cfg))
}

/// The adaptive controller's knobs for [`run_adaptive_loop`].
#[derive(Debug, Clone)]
pub struct AdaptiveSpec {
    /// Requests per control epoch: the controller re-evaluates the SLO
    /// tier every `epoch_requests` arrivals.
    pub epoch_requests: usize,
    /// Candidate SLO tiers, seconds, sorted tight → loose on
    /// construction. High arrival pressure selects tight tiers (fast
    /// plans), quiet epochs relax toward the loose end (cheap plans).
    pub slo_tiers: Vec<f64>,
}

impl AdaptiveSpec {
    /// Validates and sorts the tiers (tight → loose).
    pub fn new(epoch_requests: usize, mut slo_tiers: Vec<f64>) -> Self {
        assert!(epoch_requests >= 1, "epoch must cover at least one request");
        assert!(!slo_tiers.is_empty(), "at least one SLO tier required");
        assert!(
            slo_tiers.iter().all(|s| s.is_finite() && *s > 0.0),
            "SLO tiers must be positive and finite"
        );
        slo_tiers.sort_by(f64::total_cmp);
        AdaptiveSpec {
            epoch_requests,
            slo_tiers,
        }
    }
}

/// Runs an open-loop workload with online re-planning between epochs.
///
/// The plan cache is seeded by one amortized [`Optimizer::optimize_sweep`]
/// over the spec's SLO tiers, and every tier resolves to a chain plan
/// (served as a width-1 DAG). See [`run_adaptive_loop_dag`] for the
/// controller itself.
pub fn run_adaptive_loop(
    graph: &LayerGraph,
    cfg: &AmpsConfig,
    load: &LoadSpec,
    adaptive: &AdaptiveSpec,
) -> Result<LoadReport, String> {
    adaptive_loop(
        graph,
        cfg,
        load,
        adaptive,
        |cache, grid| {
            let sweep = Optimizer::new(cfg.clone()).optimize_sweep(graph, grid);
            cache.seed_from_sweep(&graph.name, &sweep);
        },
        |cache, slo| {
            cache
                .get_or_plan(graph, cfg, slo, cfg.batch_size)
                .map(EffectivePlan::Chain)
        },
    )
}

/// Runs an open-loop workload with online re-planning over *effective*
/// plans — chain or branch-parallel DAG, whichever the twin-objective
/// search recommends per SLO tier.
///
/// The cache is seeded by one amortized [`Optimizer::optimize_dag_sweep`]
/// over the spec's tiers, so each tier resolves to an [`EffectivePlan`]
/// without solving on the serving path. The controller then walks the
/// arrival trace in epochs of [`AdaptiveSpec::epoch_requests`]: each
/// epoch's observed arrival rate maps to a pressure in `(0, 1)` against
/// the spec's mean rate, the pressure picks an SLO tier (hot epochs →
/// tight tiers), and the tier's plan comes from the cache — solving at
/// most once per `(SLO, batch)` point, with infeasible tiers falling back
/// loose-ward and finally to an unconstrained plan. Each distinct plan is
/// deployed once, and requests run on
/// [`Coordinator::serve_trace_assigned_dag`] with a per-epoch assignment
/// that is a pure function of the request index, so the report stays
/// bit-identical at every thread count. [`LoadReport::plan_hits`],
/// [`LoadReport::plan_misses`] and [`LoadReport::replans`] make the
/// controller observable.
pub fn run_adaptive_loop_dag(
    graph: &LayerGraph,
    cfg: &AmpsConfig,
    load: &LoadSpec,
    adaptive: &AdaptiveSpec,
) -> Result<LoadReport, String> {
    adaptive_loop(
        graph,
        cfg,
        load,
        adaptive,
        |cache, grid| {
            let sweep = Optimizer::new(cfg.clone()).optimize_dag_sweep(graph, grid);
            cache.seed_from_dag_sweep(&graph.name, &sweep);
        },
        |cache, slo| cache.get_or_plan_effective(graph, cfg, slo, cfg.batch_size),
    )
}

/// The adaptive controller behind [`run_adaptive_loop`] and
/// [`run_adaptive_loop_dag`]: `seed` fills the cache from one sweep over
/// the tier grid, and `plan_for` turns an SLO tier (`None` =
/// unconstrained) into an effective plan.
fn adaptive_loop(
    graph: &LayerGraph,
    cfg: &AmpsConfig,
    load: &LoadSpec,
    adaptive: &AdaptiveSpec,
    seed: impl FnOnce(&mut PlanCache, &SweepGrid),
    mut plan_for: impl FnMut(&mut PlanCache, Option<f64>) -> Result<EffectivePlan, OptimizeError>,
) -> Result<LoadReport, String> {
    let arrivals = load.arrivals();
    if arrivals.is_empty() {
        return Err("adaptive run needs at least one request".into());
    }
    if cfg.pipeline_depth > 0 {
        return Err(
            "pipelined execution does not combine with the adaptive controller: \
             stations are bound to one plan's stages, and the controller switches \
             plans between epochs"
                .into(),
        );
    }
    let n_tiers = adaptive.slo_tiers.len();

    // Seed the cache with one amortized sweep over the tier grid.
    let mut cache = PlanCache::new();
    let grid = SweepGrid::from_slos(adaptive.slo_tiers.clone()).with_batches(vec![cfg.batch_size]);
    seed(&mut cache, &grid);

    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let mut deps: Vec<DagDeployment> = Vec::new();
    let mut dep_of_tier: HashMap<Option<u64>, usize> = HashMap::new();
    let mut epoch_dep: Vec<usize> = Vec::new();
    let mut replans = 0u64;
    for epoch in arrivals.chunks(adaptive.epoch_requests) {
        // Observed epoch rate → pressure in (0, 1) against the mean.
        let span = epoch[epoch.len() - 1] - epoch[0];
        let rate = if epoch.len() >= 2 && span > 0.0 {
            (epoch.len() - 1) as f64 / span
        } else {
            load.rate_rps
        };
        let pressure = rate / (rate + load.rate_rps);
        let tier = (((1.0 - pressure) * n_tiers as f64) as usize).min(n_tiers - 1);

        // Tier → plan, falling back loose-ward, then unconstrained.
        let mut chosen: Option<(Option<f64>, EffectivePlan)> = None;
        for slo in adaptive.slo_tiers[tier..]
            .iter()
            .copied()
            .map(Some)
            .chain([None])
        {
            if let Ok(plan) = plan_for(&mut cache, slo) {
                chosen = Some((slo, plan));
                break;
            }
        }
        let Some((slo, plan)) = chosen else {
            return Err("no feasible plan at any SLO tier".into());
        };
        let key = slo.map(f64::to_bits);
        let dep_idx = match dep_of_tier.get(&key) {
            Some(&i) => i,
            None => {
                let dag = plan.to_dag(|k| graph.cut_transfer_bytes(k));
                let dep = coord
                    .deploy_dag(&mut platform, graph, &dag)
                    .map_err(|e| e.to_string())?;
                deps.push(dep);
                dep_of_tier.insert(key, deps.len() - 1);
                deps.len() - 1
            }
        };
        if epoch_dep.last().is_some_and(|&prev| prev != dep_idx) {
            replans += 1;
        }
        epoch_dep.push(dep_idx);
    }

    let epoch_requests = adaptive.epoch_requests;
    let trace = coord.serve_trace_assigned_dag(
        &mut platform,
        &deps,
        &|i| epoch_dep[i / epoch_requests],
        &arrivals,
    );
    let mut report = report_from_trace(&trace, &arrivals, load, cfg);
    report.plan_hits = cache.hits();
    report.plan_misses = cache.misses();
    report.replans = replans;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_model::zoo;

    fn setup() -> (ampsinf_model::LayerGraph, ExecutionPlan, AmpsConfig) {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        (g, plan, cfg)
    }

    #[test]
    fn deterministic_under_seed() {
        let (g, plan, cfg) = setup();
        let load = LoadSpec::poisson(0.5, 10, 42);
        let a = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        let b = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        assert_eq!(a.latencies_s, b.latencies_s);
        assert_eq!(a.cold_starts, b.cold_starts);
    }

    #[test]
    fn trickle_load_stays_mostly_warm() {
        // Arrivals far apart (but inside keep-alive): after the first cold
        // chain, requests reuse warm instances.
        let (g, plan, cfg) = setup();
        let load = LoadSpec::poisson(0.01, 8, 1); // one request every ~100 s
        let r = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        // Requests never overlap at this rate, so after the first chain
        // warms the containers, (almost) everything reuses them; an
        // occasional >10-min gap may lapse the keep-alive.
        assert!(
            r.cold_starts <= 2 * plan.num_lambdas(),
            "trickle should stay warm: {} cold starts",
            r.cold_starts
        );
        // Warm requests are much faster than the cold head.
        assert!(r.latencies_s[0] < r.latencies_s[r.latencies_s.len() - 1] / 2.0);
        assert!(r.invocations >= load.requests as u64);
        assert!(r.cold_start_rate() > 0.0 && r.cold_start_rate() < 1.0);
    }

    #[test]
    fn burst_load_scales_out() {
        // A hard burst: everything arrives at ~the same time → every chain
        // needs its own instances.
        let (g, plan, cfg) = setup();
        let load = LoadSpec::poisson(1000.0, 12, 7);
        let r = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        assert!(
            r.peak_instances >= 6,
            "burst must fan out: {}",
            r.peak_instances
        );
        assert!(r.cold_starts > plan.num_lambdas());
    }

    #[test]
    fn failed_requests_degrade_not_abort() {
        use ampsinf_faas::FaultPlan;
        // Zero retries + aggressive faults: some requests die. The run
        // must keep serving and report them, not abort on the first.
        let (g, plan, cfg) = setup();
        let cfg = cfg
            .with_retries(0)
            .with_faults(FaultPlan::uniform(0.15, 13));
        let load = LoadSpec::poisson(2.0, 12, 5);
        let r = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        assert!(r.failures > 0, "faults must surface");
        assert!(!r.latencies_s.is_empty(), "run must degrade, not collapse");
        assert_eq!(r.latencies_s.len() + r.failures, load.requests);
        // Failed requests still billed (Lambda bills failures).
        assert!(r.dollars > 0.0);
    }

    #[test]
    fn load_report_bit_identical_across_thread_counts() {
        let (g, plan, cfg) = setup();
        let cfg = cfg.with_serve_lanes(4);
        let load = LoadSpec::poisson(3.0, 16, 9);
        let base = run_open_loop(&g, &plan, &cfg.clone().with_serve_threads(1), &load).unwrap();
        for t in [2usize, 8] {
            let other =
                run_open_loop(&g, &plan, &cfg.clone().with_serve_threads(t), &load).unwrap();
            assert_eq!(
                base.latencies_s
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>(),
                other
                    .latencies_s
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>(),
                "latencies at {t} threads"
            );
            assert_eq!(base.dollars.to_bits(), other.dollars.to_bits());
            assert_eq!(base.makespan_s.to_bits(), other.makespan_s.to_bits());
            assert_eq!(base.cold_starts, other.cold_starts);
            assert_eq!(base.peak_instances, other.peak_instances);
            assert_eq!(base.failures, other.failures);
        }
    }

    #[test]
    fn percentiles_and_slo_attainment() {
        let (g, plan, cfg) = setup();
        let load = LoadSpec::poisson(2.0, 20, 3);
        let r = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        let p50 = r.percentile(50.0);
        let p99 = r.percentile(99.0);
        assert!(p50 <= p99);
        assert!(r.slo_attainment(p99 + 1.0) >= 0.99);
        assert!(r.slo_attainment(0.0) <= 0.01 + f64::EPSILON);
        assert!(r.dollars > 0.0);
    }

    fn report_with(latencies: Vec<f64>) -> LoadReport {
        LoadReport {
            latencies_s: latencies,
            makespan_s: 0.0,
            dollars: 0.0,
            cold_starts: 0,
            peak_instances: 0,
            failures: 0,
            shape: "poisson".into(),
            policy: "lambda-default".into(),
            invocations: 0,
            pre_warmed: 0,
            idle_s: 0.0,
            idle_dollars: 0.0,
            plan_hits: 0,
            plan_misses: 0,
            replans: 0,
            stall_s: 0.0,
            pipeline_utilization: 0.0,
            stage_utilization: Vec::new(),
            dag_nodes: None,
        }
    }

    #[test]
    fn pipelined_open_loop_reports_stage_metrics() {
        let (g, plan, cfg) = setup();
        let cfg = cfg.with_pipeline(2);
        let load = LoadSpec::poisson(2.0, 30, 11).with_shape(ArrivalShape::bursty());
        let r = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        assert_eq!(r.stage_utilization.len(), plan.num_lambdas());
        assert!(r.pipeline_utilization > 0.0 && r.pipeline_utilization <= 1.0 + 1e-12);
        assert!(r.stall_s >= 0.0);
        assert!(r
            .stage_utilization
            .iter()
            .all(|&u| (0.0..=1.0 + 1e-12).contains(&u)));
    }

    #[test]
    fn pipelined_open_loop_shrinks_burst_makespan() {
        // All requests land nearly at once: the sequential lane serializes
        // whole chains, the pipelined lane overlaps stages.
        let (g, plan, cfg) = setup();
        if plan.num_lambdas() < 2 {
            return; // nothing to pipeline
        }
        let cfg = cfg.with_serve_lanes(1).with_serve_threads(1);
        let load = LoadSpec::poisson(1000.0, 20, 5);
        let seq = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        let pipe = run_open_loop(&g, &plan, &cfg.clone().with_pipeline(1), &load).unwrap();
        assert!(
            pipe.makespan_s < seq.makespan_s,
            "pipelined {} vs sequential {}",
            pipe.makespan_s,
            seq.makespan_s
        );
        assert_eq!(pipe.latencies_s.len(), seq.latencies_s.len());
    }

    #[test]
    fn sequential_reports_have_no_pipeline_metrics() {
        let (g, plan, cfg) = setup();
        let load = LoadSpec::poisson(2.0, 5, 3);
        let r = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        assert_eq!(r.stall_s, 0.0);
        assert_eq!(r.pipeline_utilization, 0.0);
        assert!(r.stage_utilization.is_empty());
    }

    #[test]
    fn adaptive_loop_rejects_pipelining() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default().with_pipeline(1);
        let load = LoadSpec::poisson(2.0, 8, 1);
        let adaptive = AdaptiveSpec::new(4, vec![10.0]);
        let err = run_adaptive_loop(&g, &cfg, &load, &adaptive).unwrap_err();
        assert!(err.contains("adaptive"), "{err}");
    }

    #[test]
    fn percentile_well_defined_on_degenerate_reports() {
        // 0 successes: every percentile is 0.0, no panic, no NaN.
        let empty = report_with(vec![]);
        for p in [0.0, 50.0, 99.9, 100.0] {
            let v = empty.percentile(p);
            assert_eq!(v, 0.0, "empty report p{p}");
            assert!(!v.is_nan());
        }
        // 1 success: every percentile is that latency.
        let one = report_with(vec![1.25]);
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(one.percentile(p), 1.25, "single-success p{p}");
        }
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let r = report_with(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.percentile(0.0), 1.0);
        assert_eq!(r.percentile(100.0), 4.0);
        assert!((r.percentile(50.0) - 2.5).abs() < 1e-12);
        assert!((r.percentile(25.0) - 1.75).abs() < 1e-12);
        // Monotone in p.
        let mut prev = f64::NEG_INFINITY;
        for p in 0..=100 {
            let v = r.percentile(p as f64);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn all_shapes_generate_deterministic_sorted_arrivals() {
        let shapes = [
            ArrivalShape::Constant,
            ArrivalShape::diurnal(),
            ArrivalShape::flash_crowd(),
            ArrivalShape::bursty(),
            ArrivalShape::multi_tenant(),
        ];
        for shape in shapes {
            let spec = LoadSpec::poisson(50.0, 200, 11).with_shape(shape.clone());
            let a = spec.arrivals();
            let b = spec.arrivals();
            assert_eq!(a.len(), 200, "{}", shape.label());
            assert_eq!(
                a.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                "{} must be deterministic",
                shape.label()
            );
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "{} must be sorted",
                shape.label()
            );
            assert!(
                a.iter().all(|t| t.is_finite() && *t > 0.0),
                "{} times must be positive",
                shape.label()
            );
            // A different seed moves the process.
            let c = LoadSpec::poisson(50.0, 200, 12)
                .with_shape(shape.clone())
                .arrivals();
            assert_ne!(a, c, "{} must depend on the seed", shape.label());
        }
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_window() {
        let spec = LoadSpec::poisson(100.0, 400, 21).with_shape(ArrivalShape::flash_crowd());
        let a = spec.arrivals();
        let horizon = 400.0 / 100.0;
        let (lo, hi) = (0.45 * horizon, 0.55 * horizon);
        let in_window = a.iter().filter(|&&t| t >= lo && t < hi).count();
        // The window is 10% of the nominal horizon but runs at 8× rate:
        // far more than its uniform share lands inside.
        assert!(
            in_window > 400 / 5,
            "flash crowd should concentrate: {in_window}/400 in window"
        );
    }

    #[test]
    fn bursts_cluster_within_their_window() {
        let spec = LoadSpec::poisson(1.0, 32, 5).with_shape(ArrivalShape::Bursts {
            burst: 8,
            within_s: 0.05,
        });
        let a = spec.arrivals();
        // Mean burst spacing is 8 s vs a 50 ms window: the four bursts
        // cannot overlap, so each consecutive 8 shares one window.
        for (i, cluster) in a.chunks(8).enumerate() {
            let spread = cluster[cluster.len() - 1] - cluster[0];
            assert!(
                spread <= 0.05 + 1e-12,
                "burst {i} spread {spread} exceeds the window"
            );
        }
        assert!(a[8] - a[7] > 0.05, "bursts must be separated");
    }

    #[test]
    fn multi_tenant_mix_allocates_all_requests() {
        let spec = LoadSpec::poisson(10.0, 100, 3).with_shape(ArrivalShape::multi_tenant());
        let a = spec.arrivals();
        assert_eq!(a.len(), 100);
        // The aggressive 8× tenant front-loads the early timeline: the
        // first tenth of the run is denser than the constant shape's.
        let constant = LoadSpec::poisson(10.0, 100, 3).arrivals();
        let early = |v: &[f64]| v.iter().filter(|&&t| t < 1.0).count();
        assert!(early(&a) >= early(&constant));
    }

    #[test]
    fn shape_parse_round_trips_presets() {
        assert_eq!(
            ArrivalShape::parse("poisson").unwrap(),
            ArrivalShape::Constant
        );
        assert_eq!(
            ArrivalShape::parse("diurnal").unwrap(),
            ArrivalShape::diurnal()
        );
        assert_eq!(
            ArrivalShape::parse("spike").unwrap(),
            ArrivalShape::flash_crowd()
        );
        assert_eq!(
            ArrivalShape::parse("bursts").unwrap(),
            ArrivalShape::bursty()
        );
        assert_eq!(
            ArrivalShape::parse("mix").unwrap(),
            ArrivalShape::multi_tenant()
        );
        assert!(ArrivalShape::parse("nope").is_err());
    }

    #[test]
    fn shaped_loads_are_thread_invariant() {
        // Satellite: every arrival shape must keep the report bit-identical
        // across thread counts (arrivals are generated before the engine
        // ever sees a thread).
        let (g, plan, cfg) = setup();
        let cfg = cfg.with_serve_lanes(4);
        for shape in [
            ArrivalShape::diurnal(),
            ArrivalShape::flash_crowd(),
            ArrivalShape::bursty(),
            ArrivalShape::multi_tenant(),
        ] {
            let load = LoadSpec::poisson(5.0, 24, 17).with_shape(shape.clone());
            let base = run_open_loop(&g, &plan, &cfg.clone().with_serve_threads(1), &load).unwrap();
            for t in [2usize, 8] {
                let other =
                    run_open_loop(&g, &plan, &cfg.clone().with_serve_threads(t), &load).unwrap();
                assert_eq!(
                    base.latencies_s
                        .iter()
                        .map(|l| l.to_bits())
                        .collect::<Vec<_>>(),
                    other
                        .latencies_s
                        .iter()
                        .map(|l| l.to_bits())
                        .collect::<Vec<_>>(),
                    "{} at {t} threads",
                    shape.label()
                );
                assert_eq!(base.dollars.to_bits(), other.dollars.to_bits());
                assert_eq!(base.cold_starts, other.cold_starts);
            }
        }
    }

    #[test]
    fn provisioned_pool_cuts_cold_starts_and_bills_idle() {
        use ampsinf_faas::WarmPoolPolicy;
        let (g, plan, cfg) = setup();
        let load = LoadSpec::poisson(0.5, 10, 42);
        let cold = run_open_loop(&g, &plan, &cfg, &load).unwrap();
        assert_eq!(cold.policy, "lambda-default");
        assert_eq!(cold.pre_warmed, 0);
        assert_eq!(cold.idle_dollars, 0.0);

        let warm_cfg = cfg.clone().with_warm_pool(WarmPoolPolicy::provisioned(2));
        let warm = run_open_loop(&g, &plan, &warm_cfg, &load).unwrap();
        assert_eq!(warm.policy, "provisioned(2)");
        assert!(warm.pre_warmed >= plan.num_lambdas());
        assert!(
            warm.cold_starts < cold.cold_starts,
            "pre-warming must cut cold starts: {} vs {}",
            warm.cold_starts,
            cold.cold_starts
        );
        assert!(warm.cold_start_rate() < cold.cold_start_rate());
        assert!(warm.idle_s > 0.0, "provisioned capacity idles");
        assert!(warm.idle_dollars > 0.0, "and that idle is billed");
        assert!(
            warm.idle_dollars < warm.dollars,
            "idle is part of the total"
        );

        let zero_cfg = cfg.clone().with_warm_pool(WarmPoolPolicy::scale_to_zero());
        let zero = run_open_loop(&g, &plan, &zero_cfg, &load).unwrap();
        assert_eq!(zero.policy, "scale-to-zero");
        assert!(
            zero.cold_starts >= cold.cold_starts,
            "scale-to-zero never reuses warm instances"
        );
        assert_eq!(zero.idle_dollars, 0.0);
    }

    #[test]
    fn warm_pool_policies_stay_thread_invariant() {
        use ampsinf_faas::WarmPoolPolicy;
        let (g, plan, cfg) = setup();
        let load = LoadSpec::poisson(3.0, 16, 9).with_shape(ArrivalShape::bursty());
        for policy in [
            WarmPoolPolicy::scale_to_zero(),
            WarmPoolPolicy::provisioned(3),
            WarmPoolPolicy::keep_alive(60.0),
        ] {
            let cfg = cfg.clone().with_serve_lanes(4).with_warm_pool(policy);
            let base = run_open_loop(&g, &plan, &cfg.clone().with_serve_threads(1), &load).unwrap();
            for t in [2usize, 8] {
                let other =
                    run_open_loop(&g, &plan, &cfg.clone().with_serve_threads(t), &load).unwrap();
                assert_eq!(base.dollars.to_bits(), other.dollars.to_bits(), "{policy}");
                assert_eq!(
                    base.idle_dollars.to_bits(),
                    other.idle_dollars.to_bits(),
                    "{policy}"
                );
                assert_eq!(base.idle_s.to_bits(), other.idle_s.to_bits(), "{policy}");
                assert_eq!(base.cold_starts, other.cold_starts, "{policy}");
                assert_eq!(base.pre_warmed, other.pre_warmed, "{policy}");
            }
        }
    }

    fn dag_setup() -> (ampsinf_model::LayerGraph, DagPlan, AmpsConfig) {
        let g = zoo::inception_v3();
        let cfg = AmpsConfig {
            batch_size: 64,
            ..Default::default()
        };
        let report = Optimizer::new(cfg.clone()).optimize_dag(&g).unwrap();
        let dag = report.dag.expect("DAG plan must win at batch 64");
        (g, dag, cfg)
    }

    #[test]
    fn dag_open_loop_bit_identical_across_thread_counts() {
        // The branch-parallel counterpart of the chain invariance test,
        // under the full gauntlet: bursty arrivals, a flaky store, fault injection and a
        // billed provisioned pool. The whole report — per-node stats
        // included — must be bit-identical at 1, 2 and 8 threads.
        use ampsinf_faas::{FaultPlan, StoreKind, WarmPoolPolicy};
        let (g, plan, mut cfg) = dag_setup();
        cfg.store = StoreKind::flaky_s3(0.2);
        let cfg = cfg
            .with_serve_lanes(4)
            .with_retries(2)
            .with_faults(FaultPlan::uniform(0.1, 29))
            .with_warm_pool(WarmPoolPolicy::provisioned(2));
        let load = LoadSpec::poisson(3.0, 16, 9).with_shape(ArrivalShape::bursty());
        let base = run_open_loop_dag(&g, &plan, &cfg.clone().with_serve_threads(1), &load).unwrap();
        assert!(
            base.latencies_s.iter().any(|_| true),
            "run must serve something"
        );
        for t in [2usize, 8] {
            let other =
                run_open_loop_dag(&g, &plan, &cfg.clone().with_serve_threads(t), &load).unwrap();
            assert_eq!(
                base.latencies_s
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>(),
                other
                    .latencies_s
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>(),
                "latencies at {t} threads"
            );
            assert_eq!(base.dollars.to_bits(), other.dollars.to_bits());
            assert_eq!(base.makespan_s.to_bits(), other.makespan_s.to_bits());
            assert_eq!(base.cold_starts, other.cold_starts);
            assert_eq!(base.failures, other.failures);
            assert_eq!(base.idle_dollars.to_bits(), other.idle_dollars.to_bits());
            let (a, b) = (
                base.dag_nodes.as_ref().unwrap(),
                other.dag_nodes.as_ref().unwrap(),
            );
            assert_eq!(a.span_s.to_bits(), b.span_s.to_bits());
            for (x, y) in a.busy_s.iter().zip(&b.busy_s) {
                assert_eq!(x.to_bits(), y.to_bits(), "node busy at {t} threads");
            }
            for (x, y) in a.crit_s.iter().zip(&b.crit_s) {
                assert_eq!(x.to_bits(), y.to_bits(), "node crit at {t} threads");
            }
        }
    }

    #[test]
    fn dag_open_loop_reports_node_stats() {
        let (g, plan, cfg) = dag_setup();
        let load = LoadSpec::poisson(5.0, 12, 3);
        let r = run_open_loop_dag(&g, &plan, &cfg, &load).unwrap();
        let stats = r.dag_nodes.as_ref().expect("DAG runs report node stats");
        assert_eq!(stats.busy_s.len(), plan.nodes.len());
        assert!(stats.busy_s.iter().all(|&b| b > 0.0), "every node ran");
        assert!(stats.stall_s.iter().all(|&s| s >= 0.0));
        assert_eq!(stats.stations_per_node, 0, "scale-out serving is unbounded");
        assert!(stats.mean_concurrency(0) > 0.0);
        let crit_total: f64 = (0..plan.nodes.len()).map(|v| stats.critical_share(v)).sum();
        assert!(
            (crit_total - 1.0).abs() < 1e-9,
            "critical-path shares must sum to 1, got {crit_total}"
        );
    }

    #[test]
    fn dag_adaptive_loop_swaps_effective_plans_and_stays_thread_invariant() {
        // The effective-plan controller on a chain model: every tier's
        // effective plan is the chain incumbent wrapped as a degenerate
        // DAG, deployed through the one serving engine. The flash crowd must
        // force a re-plan, the seeded cache must serve every epoch, and
        // the report must be bit-identical at every thread count.
        let (g, plan, cfg) = setup();
        let free = plan.predicted_time_s;
        let adaptive = AdaptiveSpec::new(8, vec![free * 1.05, free * 4.0]);
        let load = LoadSpec::poisson(2.0, 48, 33).with_shape(ArrivalShape::flash_crowd());
        let cfg = cfg.with_serve_lanes(4);
        let base = run_adaptive_loop_dag(&g, &cfg.clone().with_serve_threads(1), &load, &adaptive)
            .unwrap();
        assert_eq!(base.latencies_s.len() + base.failures, 48);
        assert!(base.plan_hits > 0, "seeded cache must serve the controller");
        assert_eq!(base.plan_misses, 0, "seeded tiers must not re-solve");
        assert!(base.replans >= 1, "the flash crowd must force a re-plan");
        assert!(
            base.dag_nodes.is_none(),
            "multi-deployment engine has no single node axis"
        );
        for t in [2usize, 8] {
            let other =
                run_adaptive_loop_dag(&g, &cfg.clone().with_serve_threads(t), &load, &adaptive)
                    .unwrap();
            assert_eq!(
                base.latencies_s
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>(),
                other
                    .latencies_s
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>(),
                "adaptive DAG latencies at {t} threads"
            );
            assert_eq!(base.dollars.to_bits(), other.dollars.to_bits());
            assert_eq!(base.replans, other.replans);
            assert_eq!(base.plan_hits, other.plan_hits);
        }
    }

    #[test]
    fn dag_adaptive_loop_rejects_pipelining() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default().with_pipeline(1);
        let load = LoadSpec::poisson(2.0, 8, 1);
        let adaptive = AdaptiveSpec::new(4, vec![10.0]);
        let err = run_adaptive_loop_dag(&g, &cfg, &load, &adaptive).unwrap_err();
        assert!(err.contains("adaptive"), "{err}");
    }

    #[test]
    fn adaptive_loop_replans_under_a_flash_crowd() {
        let (g, plan, cfg) = setup();
        let free = plan.predicted_time_s;
        // Tight tier ≈ the unconstrained optimum's speed, loose tier far
        // beyond it: hot epochs pick the tight plan, quiet ones the loose.
        let adaptive = AdaptiveSpec::new(8, vec![free * 1.05, free * 4.0]);
        let load = LoadSpec::poisson(2.0, 48, 33).with_shape(ArrivalShape::flash_crowd());
        let r = run_adaptive_loop(&g, &cfg, &load, &adaptive).unwrap();
        assert_eq!(r.latencies_s.len() + r.failures, 48);
        // The sweep seeded both tiers, so every epoch lookup is a hit.
        assert!(r.plan_hits > 0, "plan cache must serve the controller");
        assert_eq!(r.plan_misses, 0, "seeded tiers must not re-solve");
        assert!(
            r.replans >= 1,
            "the flash crowd must force at least one re-plan"
        );
    }

    #[test]
    fn adaptive_loop_falls_back_past_infeasible_tiers() {
        let (g, _plan, cfg) = setup();
        // 1 µs is infeasible for any plan; the controller must fall back
        // to the loose tier instead of failing the run.
        let adaptive = AdaptiveSpec::new(4, vec![1e-6, 1e9]);
        let load = LoadSpec::poisson(2.0, 8, 1);
        let r = run_adaptive_loop(&g, &cfg, &load, &adaptive).unwrap();
        assert_eq!(r.latencies_s.len(), 8);
        assert_eq!(r.replans, 0, "only the loose tier is ever deployable");
    }

    #[test]
    fn adaptive_loop_is_thread_invariant() {
        let (g, plan, cfg) = setup();
        let free = plan.predicted_time_s;
        let adaptive = AdaptiveSpec::new(6, vec![free * 1.05, free * 4.0]);
        let load = LoadSpec::poisson(3.0, 30, 7).with_shape(ArrivalShape::bursty());
        let cfg = cfg.with_serve_lanes(4);
        let base =
            run_adaptive_loop(&g, &cfg.clone().with_serve_threads(1), &load, &adaptive).unwrap();
        for t in [2usize, 8] {
            let other = run_adaptive_loop(&g, &cfg.clone().with_serve_threads(t), &load, &adaptive)
                .unwrap();
            assert_eq!(
                base.latencies_s
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>(),
                other
                    .latencies_s
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>(),
                "adaptive latencies at {t} threads"
            );
            assert_eq!(base.dollars.to_bits(), other.dollars.to_bits());
            assert_eq!(base.replans, other.replans);
            assert_eq!(base.plan_hits, other.plan_hits);
            assert_eq!(base.plan_misses, other.plan_misses);
        }
    }
}
