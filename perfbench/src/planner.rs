//! Planner queries shared by every workload: cold point queries
//! (`Optimizer::optimize`, `Optimizer::optimize_dag`), amortized grid
//! queries (`optimize_sweep`, `optimize_dag_sweep`), the checks on their
//! answers, and the per-layer counters their reports carry.

use crate::trace::Tracer;
use ampsinf_core::colcache::SegmentColumnCache;
use ampsinf_core::cuts::enumerate_cuts;
use ampsinf_core::optimizer::OptimizerReport;
use ampsinf_core::{
    AmpsConfig, Coordinator, DagPlan, DagSearchStats, ExecutionPlan, OptimizeError, Optimizer,
    PointStats, SweepGrid,
};
use ampsinf_faas::SmallRng;
use ampsinf_model::LayerGraph;
use ampsinf_profiler::Profile;
use std::hint::black_box;
use std::time::Instant;

/// One cold point query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Index into the workload's model list.
    pub model: usize,
    /// Images per request.
    pub batch: u64,
    /// Response-time SLO, `None` for a free run.
    pub slo_s: Option<f64>,
    /// Ask the branch-parallel planner (`optimize_dag`).
    pub dag: bool,
}

/// One amortized grid query at a single batch size.
#[derive(Debug, Clone)]
pub struct SweepQuery {
    /// Index into the workload's model list.
    pub model: usize,
    /// Images per request.
    pub batch: u64,
    /// SLO grid, seconds.
    pub slos: Vec<f64>,
    /// Ask the branch-parallel sweep (`optimize_dag_sweep`).
    pub dag: bool,
}

/// Loosest SLO drawn, as a multiple of the free-run time.
const SLO_LOOSEST: f64 = 1.5;
/// Tightest SLO drawn, as a multiple of the free-run time, unless the
/// fastest plan the planner knows is slower than that.
const SLO_TIGHTEST: f64 = 0.9;
/// Margin kept above the fastest plan's time, so every SLO drawn is
/// feasible.
const FASTEST_MARGIN: f64 = 1.01;

/// The range SLOs are drawn from for one (model, batch): from the tighter
/// of 0.9× the free-run time and just above the fastest known plan, to
/// 1.5× the free-run time. The free run is the default plan; the fastest
/// plan is the planner's pick when any cost is acceptable.
#[derive(Debug, Clone, Copy)]
pub struct SloRange {
    /// Tightest SLO, seconds.
    pub lo: f64,
    /// Loosest SLO, seconds.
    pub hi: f64,
}

impl SloRange {
    /// Plans the free run and the fastest run of `graph` at `batch` on
    /// `threads` optimizer threads.
    pub fn plan(
        tr: &mut Tracer,
        id: u64,
        graph: &LayerGraph,
        batch: u64,
        threads: usize,
        counters: &mut PlanCounters,
    ) -> Result<SloRange, String> {
        let free = tr
            .span("optimizer.optimize", id, |_| {
                Optimizer::new(planner_cfg(batch, None, threads)).optimize(graph)
            })
            .map_err(|e| format!("free run of {} at batch {batch}: {e}", graph.name))?;
        counters.add_report(&free);
        let any_cost = AmpsConfig {
            cost_tolerance: f64::MAX,
            ..planner_cfg(batch, None, threads)
        };
        let fastest = tr
            .span("optimizer.optimize", id, |_| {
                Optimizer::new(any_cost).optimize(graph)
            })
            .map_err(|e| format!("fastest run of {} at batch {batch}: {e}", graph.name))?;
        counters.add_report(&fastest);
        let free_s = free.plan.predicted_time_s;
        Ok(SloRange {
            lo: (SLO_TIGHTEST * free_s).max(FASTEST_MARGIN * fastest.plan.predicted_time_s),
            hi: SLO_LOOSEST * free_s,
        })
    }

    /// `n` SLOs at the midpoints of `n` equal strata of the range.
    pub fn ladder(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| self.lo + (self.hi - self.lo) * (j as f64 + 0.5) / n as f64)
            .collect()
    }

    /// `n` SLOs, one drawn uniformly inside each of `n` equal strata of the
    /// range, so that every seed covers all of it.
    pub fn draw(&self, rng: &mut SmallRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| self.lo + (self.hi - self.lo) * (j as f64 + rng.next_f64()) / n as f64)
            .collect()
    }
}

/// The planner configuration every query uses: defaults plus batch, SLO
/// and optimizer threads.
pub fn planner_cfg(batch: u64, slo_s: Option<f64>, threads: usize) -> AmpsConfig {
    AmpsConfig {
        slo_s,
        ..AmpsConfig::default()
    }
    .with_batch(batch)
    .with_threads(threads)
}

/// A point query's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The chain plan (the incumbent, for DAG queries).
    pub chain: ExecutionPlan,
    /// The branch-parallel plan, when one beats the chain.
    pub dag: Option<DagPlan>,
}

impl Answer {
    /// Predicted dollars per request of the plan that would be served.
    pub fn usd(&self) -> f64 {
        self.dag
            .as_ref()
            .map_or(self.chain.predicted_cost, |d| d.predicted_cost)
    }
}

/// Per-layer counters summed over every planner call of a run.
#[derive(Debug, Clone, Default)]
pub struct PlanCounters {
    /// `OptimizerReport::pass1_time`, ms.
    pub pass1_ms: f64,
    /// `OptimizerReport::pass2_time`, ms.
    pub pass2_ms: f64,
    /// Segment-column cache hits.
    pub col_hits: u64,
    /// Segment-column cache misses.
    pub col_misses: u64,
    /// MIQPs solved.
    pub miqps_solved: u64,
    /// MIQPs pruned by dual bounds.
    pub miqps_pruned: u64,
    /// Branch-and-bound nodes.
    pub bb_nodes: u64,
    /// QP relaxations solved.
    pub qp_relaxations: u64,
    /// `DagSearchStats::search_time`, ms.
    pub dag_search_ms: f64,
    /// DAG region trials evaluated.
    pub dag_trials: u64,
    /// DAG node-memo misses.
    pub dag_node_memo_misses: u64,
    /// DAG spine spans solved.
    pub dag_spine_spans_solved: u64,
    /// Wall time of every sweep, ms.
    pub sweep_ms: f64,
    /// Grid points over those sweeps.
    pub sweep_points: u64,
    /// Sweep points that ran with a seeded bound.
    pub seeded_points: u64,
}

impl PlanCounters {
    /// Adds one optimizer report.
    pub fn add_report(&mut self, r: &OptimizerReport) {
        self.pass1_ms += r.pass1_time.as_secs_f64() * 1e3;
        self.pass2_ms += r.pass2_time.as_secs_f64() * 1e3;
        self.col_hits += r.column_cache_hits as u64;
        self.col_misses += r.column_cache_misses as u64;
        self.miqps_solved += r.miqps_solved as u64;
        self.miqps_pruned += r.miqps_pruned as u64;
        self.bb_nodes += r.bb_nodes as u64;
        self.qp_relaxations += r.qp_relaxations as u64;
    }

    /// Adds one sweep point's statistics.
    pub fn add_point(&mut self, s: &PointStats) {
        self.col_hits += s.cache_hits as u64;
        self.col_misses += s.cache_misses as u64;
        self.miqps_solved += s.miqps_solved as u64;
        self.miqps_pruned += s.miqps_pruned as u64;
        self.bb_nodes += s.bb_nodes as u64;
        self.qp_relaxations += s.qp_relaxations as u64;
        self.seeded_points += u64::from(s.seeded);
    }

    /// Adds one DAG region search.
    pub fn add_search(&mut self, s: &DagSearchStats) {
        self.dag_search_ms += s.search_time.as_secs_f64() * 1e3;
        self.dag_trials += s.trials_evaluated as u64;
        self.dag_node_memo_misses += s.node_memo_misses as u64;
        self.dag_spine_spans_solved += s.spine_spans_solved as u64;
    }
}

/// Runs one cold point query inside a `optimizer.optimize` (or
/// `optimizer.optimize_dag`) span and returns its wall time in ms.
pub fn run_query(
    tr: &mut Tracer,
    id: u64,
    graph: &LayerGraph,
    q: &Query,
    threads: usize,
    counters: &mut PlanCounters,
) -> (f64, Result<Answer, OptimizeError>) {
    let opt = Optimizer::new(planner_cfg(q.batch, q.slo_s, threads));
    let t = Instant::now();
    let answer = if q.dag {
        tr.span("optimizer.optimize_dag", id, |_| {
            opt.optimize_dag(black_box(graph))
        })
        .map(|r| {
            counters.add_report(&r.chain);
            counters.add_search(&r.search);
            Answer {
                chain: r.chain.plan,
                dag: r.dag,
            }
        })
    } else {
        tr.span("optimizer.optimize", id, |_| opt.optimize(black_box(graph)))
            .map(|r| {
                counters.add_report(&r);
                Answer {
                    chain: r.plan,
                    dag: None,
                }
            })
    };
    (t.elapsed().as_secs_f64() * 1e3, answer)
}

/// Checks that a plan answer meets its SLO and the platform quotas, and
/// that every function it names deploys. Returns the plan's predicted
/// dollars.
pub fn check_answer(graph: &LayerGraph, q: &Query, a: &Answer) -> Result<f64, String> {
    let cfg = planner_cfg(q.batch, q.slo_s, 1);
    let quotas = cfg.quotas;
    let coord = Coordinator::new(cfg.clone());
    let within_slo = |t: f64| q.slo_s.is_none_or(|slo| t <= slo);
    let p = &a.chain;
    p.validate(graph.num_layers())?;
    if !within_slo(p.predicted_time_s) {
        return Err(format!("chain plan misses its SLO: {p}"));
    }
    if p.num_lambdas() > cfg.max_partitions
        || !p.memories().iter().all(|&m| quotas.is_valid_memory(m))
    {
        return Err(format!("chain plan breaks the quotas: {p}"));
    }
    coord
        .deploy(&mut coord.platform(), graph, p)
        .map_err(|e| format!("chain plan does not deploy: {e}"))?;
    if let Some(d) = &a.dag {
        d.validate(graph.num_layers())?;
        if !within_slo(d.predicted_time_s) {
            return Err(format!("DAG plan misses its SLO: {d}"));
        }
        // `Quotas::max_lambdas` is not checked: neither the planner nor the
        // platform enforces it, and the branch-parallel plans exceed it.
        if !d.memories().iter().all(|&m| quotas.is_valid_memory(m)) {
            return Err(format!("DAG plan breaks the quotas: {d}"));
        }
        coord
            .deploy_dag(&mut coord.platform(), graph, d)
            .map_err(|e| format!("DAG plan does not deploy: {e}"))?;
    }
    let usd = a.usd();
    if usd.is_finite() && usd > 0.0 {
        Ok(usd)
    } else {
        Err(format!("plan predicts a non-positive cost {usd}"))
    }
}

/// A finished grid query.
pub struct SweepAnswer {
    /// `(slo, seeded, answer)` per grid point, in grid order.
    pub points: Vec<(f64, bool, Result<Answer, OptimizeError>)>,
}

/// Runs one amortized grid query inside an `optimizer.sweep` (or
/// `optimizer.dag_sweep`) span; returns its wall time in ms.
pub fn run_sweep(
    tr: &mut Tracer,
    id: u64,
    graph: &LayerGraph,
    s: &SweepQuery,
    threads: usize,
    counters: &mut PlanCounters,
) -> (f64, SweepAnswer) {
    let opt = Optimizer::new(planner_cfg(s.batch, None, threads));
    let grid = SweepGrid::from_slos(s.slos.clone()).with_batches(vec![s.batch]);
    let t = Instant::now();
    let points = if s.dag {
        let r = tr.span("optimizer.dag_sweep", id, |_| {
            opt.optimize_dag_sweep(black_box(graph), &grid)
        });
        r.points
            .into_iter()
            .map(|p| {
                counters.add_point(&p.stats);
                counters.add_search(&p.search);
                let a = p.outcome.map(|chain| Answer { chain, dag: p.dag });
                (p.slo_s, p.stats.seeded, a)
            })
            .collect()
    } else {
        let r = tr.span("optimizer.sweep", id, |_| {
            opt.optimize_sweep(black_box(graph), &grid)
        });
        r.points
            .into_iter()
            .map(|p| {
                counters.add_point(&p.stats);
                let a = p.outcome.map(|chain| Answer { chain, dag: None });
                (p.slo_s, p.stats.seeded, a)
            })
            .collect()
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    counters.sweep_ms += ms;
    counters.sweep_points += s.slos.len() as u64;
    (ms, SweepAnswer { points })
}

/// Checks every point of a sweep like a point query, and that up to
/// `samples` seeded points are bit-identical to a cold point query of the
/// same (model, SLO, batch).
pub fn check_sweep(
    graph: &LayerGraph,
    s: &SweepQuery,
    ans: &SweepAnswer,
    samples: usize,
) -> Result<(), String> {
    if ans.points.len() != s.slos.len() {
        return Err("sweep returned a different number of points".into());
    }
    for (slo, _, a) in &ans.points {
        let q = Query {
            model: s.model,
            batch: s.batch,
            slo_s: Some(*slo),
            dag: s.dag,
        };
        let a = a
            .as_ref()
            .map_err(|e| format!("sweep point at SLO {slo}: {e}"))?;
        check_answer(graph, &q, a)?;
    }
    for (slo, _, a) in ans.points.iter().filter(|p| p.1).take(samples) {
        let q = Query {
            model: s.model,
            batch: s.batch,
            slo_s: Some(*slo),
            dag: s.dag,
        };
        let (_, cold) = run_query(
            &mut Tracer::disabled(),
            0,
            graph,
            &q,
            1,
            &mut PlanCounters::default(),
        );
        if cold != *a {
            return Err(format!(
                "seeded sweep point at SLO {slo} differs from a cold point query"
            ));
        }
    }
    Ok(())
}

/// Times the planner's layers on their own for one (model, batch): the
/// profile, cut enumeration and cold column evaluation over every cut.
/// Returns the number of cuts.
pub fn trace_planner_layers(tr: &mut Tracer, id: u64, graph: &LayerGraph, batch: u64) -> u64 {
    let cfg = planner_cfg(batch, None, 1);
    let profile = tr.span("profiler.profile", id, |_| {
        Profile::batched(black_box(graph), batch)
    });
    let cuts = tr.span("cuts.enumerate", id, |_| enumerate_cuts(&profile, &cfg));
    let cache = SegmentColumnCache::new();
    tr.span("colcache.columns", id, |_| {
        for cut in &cuts {
            black_box(cache.columns_for_cut(&profile, cut, &cfg));
        }
    });
    cuts.len() as u64
}

/// Per-layer metrics of the planner counters, in report order.
pub fn counter_metrics(c: &PlanCounters) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("optimizer.pass1_ms", c.pass1_ms, "ms"),
        ("optimizer.pass2_ms", c.pass2_ms, "ms"),
        ("colcache.hits", c.col_hits as f64, "count"),
        ("colcache.misses", c.col_misses as f64, "count"),
        ("solver.miqps_solved", c.miqps_solved as f64, "count"),
        ("solver.miqps_pruned", c.miqps_pruned as f64, "count"),
        ("solver.bb_nodes", c.bb_nodes as f64, "count"),
        ("solver.qp_relaxations", c.qp_relaxations as f64, "count"),
        ("optimizer.dag_search_ms", c.dag_search_ms, "ms"),
        ("dag.trials", c.dag_trials as f64, "count"),
        (
            "dag.node_memo_misses",
            c.dag_node_memo_misses as f64,
            "count",
        ),
        (
            "dag.spine_spans_solved",
            c.dag_spine_spans_solved as f64,
            "count",
        ),
        (
            "sweep.ms_per_point",
            if c.sweep_points == 0 {
                0.0
            } else {
                c.sweep_ms / c.sweep_points as f64
            },
            "ms",
        ),
        ("sweep.seeded_points", c.seeded_points as f64, "count"),
    ]
}

/// Answers and timings of one pass over a workload's planner queries.
#[derive(Default)]
pub struct Phase {
    /// Wall time of each point query, ms, in query order.
    pub latencies_ms: Vec<f64>,
    /// Answer of each point query, in query order.
    pub answers: Vec<Result<Answer, OptimizeError>>,
    /// Amortized wall time per grid point of each sweep, ms.
    pub sweep_ms_per_point: Vec<f64>,
    /// Answer of each sweep, in sweep order.
    pub sweeps: Vec<SweepAnswer>,
}

impl Phase {
    /// Runs point query `k` of `queries` at `threads` optimizer threads.
    pub fn query(
        &mut self,
        tr: &mut Tracer,
        graphs: &[LayerGraph],
        queries: &[Query],
        k: usize,
        threads: usize,
        counters: &mut PlanCounters,
    ) {
        let q = &queries[k];
        let (ms, a) = run_query(tr, k as u64, &graphs[q.model], q, threads, counters);
        self.latencies_ms.push(ms);
        self.answers.push(a);
    }

    /// Runs sweep `k` of `sweeps` at `threads` optimizer threads.
    pub fn sweep(
        &mut self,
        tr: &mut Tracer,
        graphs: &[LayerGraph],
        sweeps: &[SweepQuery],
        k: usize,
        threads: usize,
        counters: &mut PlanCounters,
    ) {
        let s = &sweeps[k];
        let (ms, a) = run_sweep(tr, k as u64, &graphs[s.model], s, threads, counters);
        self.sweep_ms_per_point.push(ms / s.slos.len() as f64);
        self.sweeps.push(a);
    }
}

/// Runs every point query, then every sweep, at `threads` optimizer
/// threads, inside `planner.queries` and `planner.sweeps` spans.
pub fn run_phase(
    tr: &mut Tracer,
    graphs: &[LayerGraph],
    queries: &[Query],
    sweeps: &[SweepQuery],
    threads: usize,
    counters: &mut PlanCounters,
) -> Phase {
    let mut phase = Phase::default();
    tr.span("planner.queries", 0, |tr| {
        for k in 0..queries.len() {
            phase.query(tr, graphs, queries, k, threads, counters);
        }
    });
    tr.span("planner.sweeps", 0, |tr| {
        for k in 0..sweeps.len() {
            phase.sweep(tr, graphs, sweeps, k, threads, counters);
        }
    });
    phase
}

/// Outcome of checking a [`Phase`].
#[derive(Debug, Default)]
pub struct PhaseCheck {
    /// Predicted dollars summed over the answered point queries.
    pub usd_sum: f64,
    /// Point queries the planner refused (no plan, or SLO-infeasible).
    pub refused: u64,
    /// Answers that failed a check, one line each.
    pub errors: Vec<String>,
}

/// Checks every answer of `phase`: plans meet their SLO and quotas and
/// deploy, and up to `samples` seeded points per sweep match a cold point
/// query.
pub fn check_phase(
    graphs: &[LayerGraph],
    queries: &[Query],
    sweeps: &[SweepQuery],
    phase: &Phase,
    samples: usize,
) -> PhaseCheck {
    let mut out = PhaseCheck::default();
    for (k, (q, a)) in queries.iter().zip(&phase.answers).enumerate() {
        match a.as_ref().map(|a| check_answer(&graphs[q.model], q, a)) {
            Ok(Ok(usd)) => out.usd_sum += usd,
            Ok(Err(e)) => out.errors.push(format!("query {k} {q:?}: {e}")),
            Err(_) => out.refused += 1,
        }
    }
    for (k, (s, a)) in sweeps.iter().zip(&phase.sweeps).enumerate() {
        if let Err(e) = check_sweep(&graphs[s.model], s, a, samples) {
            out.errors.push(format!("sweep {k}: {e}"));
        }
    }
    out
}
