//! The sharded serving engine's core guarantee (DESIGN.md §6c): every
//! report is **bit-identical** at every `serve_threads` setting — with and
//! without fault injection, with and without a flaky store. Threads are an
//! execution parameter; only `serve_lanes` (the warm-pool sharding) is a
//! model parameter.

use ampsinf_core::{AmpsConfig, BatchReport, Coordinator, DagPlan, Optimizer, TraceReport};
use ampsinf_faas::{FaultPlan, StoreKind, WarmPoolPolicy};
use ampsinf_model::zoo;

const THREADS: [usize; 3] = [1, 2, 8];

fn plan_cfg() -> (
    ampsinf_model::LayerGraph,
    ampsinf_core::ExecutionPlan,
    AmpsConfig,
) {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default();
    let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
    (g, plan, cfg)
}

/// Runs `serve_parallel` and returns the report plus the merged platform's
/// own books (ledger total after settlement, invocation count, cold
/// starts) — the merge must agree at every thread count too.
fn run_batch(
    cfg: &AmpsConfig,
    g: &ampsinf_model::LayerGraph,
    plan: &ampsinf_core::ExecutionPlan,
    images: usize,
) -> (BatchReport, u64, u64, usize) {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, g, plan).unwrap();
    let batch = coord.serve_parallel(&mut platform, &dep, images, 0.0);
    platform.settle_storage(batch.completion_s + 500.0);
    let cold: usize = dep.functions.iter().map(|&f| platform.cold_starts(f)).sum();
    (
        batch,
        platform.total_cost().to_bits(),
        platform.invocation_count(),
        cold,
    )
}

/// [`run_trace_dag`] over a chain plan, served as its width-1 DAG.
fn run_trace(
    cfg: &AmpsConfig,
    g: &ampsinf_model::LayerGraph,
    plan: &ampsinf_core::ExecutionPlan,
    arrivals: &[f64],
) -> (TraceReport, u64, u64) {
    let dag = DagPlan::from_chain(plan, |e| g.cut_transfer_bytes(e));
    run_trace_dag(cfg, g, &dag, arrivals)
}

fn assert_batches_bit_identical(a: &BatchReport, b: &BatchReport) {
    assert_eq!(a.completion_s.to_bits(), b.completion_s.to_bits());
    assert_eq!(a.dollars.to_bits(), b.dollars.to_bits());
    assert_eq!(a.wasted_s.to_bits(), b.wasted_s.to_bits());
    assert_eq!(a.wasted_dollars.to_bits(), b.wasted_dollars.to_bits());
    assert_eq!(a.jobs.len(), b.jobs.len());
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.inference_s.to_bits(), y.inference_s.to_bits());
        assert_eq!(x.dollars.to_bits(), y.dollars.to_bits());
        assert_eq!(x.wasted_s.to_bits(), y.wasted_s.to_bits());
        assert_eq!(x.retries.len(), y.retries.len());
        for (r, s) in x.retries.iter().zip(&y.retries) {
            assert_eq!(r.lambda, s.lambda);
            assert_eq!(r.backoff_s.to_bits(), s.backoff_s.to_bits());
            assert_eq!(r.failed.start.to_bits(), s.failed.start.to_bits());
            assert_eq!(r.failed.end.to_bits(), s.failed.end.to_bits());
            assert_eq!(r.failed.dollars.to_bits(), s.failed.dollars.to_bits());
        }
    }
    assert_eq!(a.failures.len(), b.failures.len());
    for (x, y) in a.failures.iter().zip(&b.failures) {
        assert_eq!(x.image, y.image);
        assert_eq!(x.error.lambda, y.error.lambda);
        assert_eq!(x.error.attempts, y.error.attempts);
        assert_eq!(x.error.elapsed_s.to_bits(), y.error.elapsed_s.to_bits());
        assert_eq!(x.error.dollars.to_bits(), y.error.dollars.to_bits());
    }
}

fn assert_traces_bit_identical(a: &TraceReport, b: &TraceReport) {
    assert_eq!(a.dollars.to_bits(), b.dollars.to_bits());
    assert_eq!(a.settled_dollars.to_bits(), b.settled_dollars.to_bits());
    assert_eq!(a.last_completion_s.to_bits(), b.last_completion_s.to_bits());
    assert_eq!(a.cold_starts, b.cold_starts);
    assert_eq!(a.peak_instances, b.peak_instances);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.invocations, b.invocations);
    assert_eq!(a.pre_warmed, b.pre_warmed);
    assert_eq!(a.idle_s.to_bits(), b.idle_s.to_bits());
    assert_eq!(a.idle_dollars.to_bits(), b.idle_dollars.to_bits());
    assert_eq!(a.requests.len(), b.requests.len());
    for (x, y) in a.requests.iter().zip(&b.requests) {
        assert_eq!(x.latency_s.to_bits(), y.latency_s.to_bits());
        assert_eq!(x.dollars.to_bits(), y.dollars.to_bits());
        assert_eq!(x.wasted_s.to_bits(), y.wasted_s.to_bits());
        assert_eq!(x.retries, y.retries);
        assert_eq!(x.ok, y.ok);
    }
    assert_eq!(a.pipeline.is_some(), b.pipeline.is_some());
    if let (Some(p), Some(q)) = (&a.pipeline, &b.pipeline) {
        assert_eq!(p.stations_per_stage, q.stations_per_stage);
        assert_eq!(p.span_s.to_bits(), q.span_s.to_bits());
        assert_eq!(p.stage_busy_s.len(), q.stage_busy_s.len());
        for (x, y) in p.stage_busy_s.iter().zip(&q.stage_busy_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in p.stage_stall_s.iter().zip(&q.stage_stall_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    assert_eq!(a.dag_nodes.is_some(), b.dag_nodes.is_some());
    if let (Some(p), Some(q)) = (&a.dag_nodes, &b.dag_nodes) {
        assert_eq!(p.stations_per_node, q.stations_per_node);
        assert_eq!(p.span_s.to_bits(), q.span_s.to_bits());
        for (x, y) in p.busy_s.iter().zip(&q.busy_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in p.stall_s.iter().zip(&q.stall_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in p.crit_s.iter().zip(&q.crit_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn batch_report_bit_identical_across_thread_counts() {
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg.with_serve_lanes(4);
    let baseline = run_batch(&cfg.clone().with_serve_threads(THREADS[0]), &g, &plan, 12);
    assert_eq!(baseline.0.succeeded(), 12);
    for t in &THREADS[1..] {
        let other = run_batch(&cfg.clone().with_serve_threads(*t), &g, &plan, 12);
        assert_batches_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
        assert_eq!(baseline.3, other.3, "cold starts at {t} threads");
    }
}

#[test]
fn batch_report_bit_identical_under_faults() {
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg
        .with_serve_lanes(4)
        .with_retries(3)
        .with_faults(FaultPlan::uniform(0.25, 17));
    let baseline = run_batch(&cfg.clone().with_serve_threads(THREADS[0]), &g, &plan, 16);
    // The fault plan must actually bite for the test to mean anything.
    let disturbed =
        baseline.0.jobs.iter().any(|j| !j.retries.is_empty()) || !baseline.0.failures.is_empty();
    assert!(disturbed, "fault plan injected nothing");
    for t in &THREADS[1..] {
        let other = run_batch(&cfg.clone().with_serve_threads(*t), &g, &plan, 16);
        assert_batches_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
    }
}

#[test]
fn targeted_crash_hits_the_same_image_at_every_thread_count() {
    // In sharded mode `crash_invocations` addresses (request << 32) +
    // attempt: image 5's first invocation crashes, nothing else does.
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg.with_serve_lanes(3).with_faults(FaultPlan {
        crash_invocations: vec![5 << 32],
        ..FaultPlan::default()
    });
    for t in THREADS {
        let (batch, ..) = run_batch(&cfg.clone().with_serve_threads(t), &g, &plan, 9);
        assert_eq!(batch.succeeded(), 9, "retry must recover the image");
        for (img, job) in batch.jobs.iter().enumerate() {
            assert_eq!(
                job.retries.len(),
                usize::from(img == 5),
                "only image 5 retries (got a retry on image {img}, {t} threads)"
            );
        }
    }
}

#[test]
fn trace_report_bit_identical_across_thread_counts() {
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg.with_serve_lanes(8);
    // A mixed trace: an initial burst, then a trickle.
    let arrivals: Vec<f64> = (0..24)
        .map(|i| {
            if i < 8 {
                0.1 * i as f64
            } else {
                30.0 * i as f64
            }
        })
        .collect();
    let baseline = run_trace(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    assert_eq!(baseline.0.requests.len(), 24);
    assert_eq!(baseline.0.failures, 0);
    for t in &THREADS[1..] {
        let other = run_trace(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
    }
}

#[test]
fn trace_report_bit_identical_under_faults_and_flaky_store() {
    let (g, plan, mut cfg) = plan_cfg();
    cfg.store = StoreKind::flaky_s3(0.3);
    let cfg = cfg
        .with_serve_lanes(4)
        .with_retries(2)
        .with_faults(FaultPlan::uniform(0.2, 31));
    let arrivals: Vec<f64> = (0..20).map(|i| 2.0 * i as f64).collect();
    let baseline = run_trace(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    let disturbed = baseline.0.failures > 0 || baseline.0.requests.iter().any(|r| r.retries > 0);
    assert!(disturbed, "faults injected nothing");
    for t in &THREADS[1..] {
        let other = run_trace(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
    }
}

/// A deliberately skewed per-lane cost distribution: a dense head burst
/// slams every lane at once (all-cold, maximal concurrency), then a
/// heavy tail whose inter-arrival gaps grow quadratically — late
/// requests serve warm or lapse the keep-alive, so the lanes that drew
/// tail requests do far less work than the burst lanes. This is the
/// worst case for the work-stealing queues: chunk boundaries and steal
/// order shift with the thread count while the merged report must not.
fn heavy_tail_arrivals() -> Vec<f64> {
    let mut arrivals: Vec<f64> = (0..32).map(|i| 0.01 * i as f64).collect();
    let mut t = 1.0f64;
    for i in 0..32 {
        t += 0.5 * (1.0 + i as f64).powi(2);
        arrivals.push(t);
    }
    arrivals
}

#[test]
fn heavy_tail_trace_bit_identical_across_thread_counts() {
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg.with_serve_lanes(8);
    let arrivals = heavy_tail_arrivals();
    let baseline = run_trace(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    assert_eq!(baseline.0.requests.len(), arrivals.len());
    assert_eq!(baseline.0.failures, 0);
    for t in &THREADS[1..] {
        let other = run_trace(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
    }
}

#[test]
fn heavy_tail_trace_bit_identical_under_faults_and_warm_pool() {
    // Same skew, plus fault injection (retries stretch some chains) and
    // a billed provisioned pool (per-lane idle settlement) — every
    // field must still merge identically at every thread count.
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg
        .with_serve_lanes(8)
        .with_retries(2)
        .with_faults(FaultPlan::uniform(0.2, 23))
        .with_warm_pool(WarmPoolPolicy::provisioned(2));
    let arrivals = heavy_tail_arrivals();
    let baseline = run_trace(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    let disturbed = baseline.0.failures > 0 || baseline.0.requests.iter().any(|r| r.retries > 0);
    assert!(disturbed, "faults injected nothing");
    assert!(baseline.0.pre_warmed > 0, "policy pre-warmed nothing");
    assert!(baseline.0.idle_dollars > 0.0, "provisioned idle unbilled");
    for t in &THREADS[1..] {
        let other = run_trace(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
    }
}

#[test]
fn pipelined_trace_bit_identical_across_thread_counts() {
    // DESIGN.md §6e: the pipelined engine keeps the sequential engine's
    // guarantee — per-lane station state travels with the lane's task, so
    // the report is bit-identical at every thread count.
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg.with_serve_lanes(8).with_pipeline(2);
    let arrivals: Vec<f64> = (0..24)
        .map(|i| {
            if i < 8 {
                0.1 * i as f64
            } else {
                30.0 * i as f64
            }
        })
        .collect();
    let baseline = run_trace(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    assert_eq!(baseline.0.requests.len(), 24);
    assert_eq!(baseline.0.failures, 0);
    let stats = baseline.0.pipeline.as_ref().expect("pipelined stats");
    assert!(stats.utilization() > 0.0, "stations never ran");
    for t in &THREADS[1..] {
        let other = run_trace(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
    }
}

#[test]
fn pipelined_trace_bit_identical_under_faults_and_flaky_store() {
    let (g, plan, mut cfg) = plan_cfg();
    cfg.store = StoreKind::flaky_s3(0.3);
    let cfg = cfg
        .with_serve_lanes(4)
        .with_pipeline(2)
        .with_retries(2)
        .with_faults(FaultPlan::uniform(0.2, 31));
    let arrivals: Vec<f64> = (0..20).map(|i| 2.0 * i as f64).collect();
    let baseline = run_trace(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    let disturbed = baseline.0.failures > 0 || baseline.0.requests.iter().any(|r| r.retries > 0);
    assert!(disturbed, "faults injected nothing");
    for t in &THREADS[1..] {
        let other = run_trace(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
    }
}

#[test]
fn pipelined_heavy_tail_bit_identical_with_faults_and_warm_pool() {
    // The full gauntlet: skewed lane costs, fault injection, billed
    // provisioned warm pool, stations overlapping stages — bit-identical
    // at every thread count.
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg
        .with_serve_lanes(8)
        .with_pipeline(2)
        .with_retries(2)
        .with_faults(FaultPlan::uniform(0.2, 23))
        .with_warm_pool(WarmPoolPolicy::provisioned(2));
    let arrivals = heavy_tail_arrivals();
    let baseline = run_trace(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    let disturbed = baseline.0.failures > 0 || baseline.0.requests.iter().any(|r| r.retries > 0);
    assert!(disturbed, "faults injected nothing");
    for t in &THREADS[1..] {
        let other = run_trace(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
    }
}

#[test]
fn pipelined_request_fates_match_sequential_under_faults() {
    // RNG streams are keyed per request index in both engines, so a given
    // request draws the same fault fate whether or not stages overlap —
    // pipelining changes the clock, never the outcome.
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg
        .with_serve_lanes(4)
        .with_retries(2)
        .with_faults(FaultPlan::uniform(0.25, 17));
    let arrivals: Vec<f64> = (0..16).map(|i| 0.5 * i as f64).collect();
    let seq = run_trace(&cfg.clone().with_serve_threads(1), &g, &plan, &arrivals);
    let pipe = run_trace(
        &cfg.clone().with_pipeline(2).with_serve_threads(1),
        &g,
        &plan,
        &arrivals,
    );
    let disturbed = seq.0.requests.iter().any(|r| r.retries > 0) || seq.0.failures > 0;
    assert!(disturbed, "faults injected nothing");
    for (a, b) in seq.0.requests.iter().zip(&pipe.0.requests) {
        assert_eq!(a.retries, b.retries, "fault fates must match");
        assert_eq!(a.ok, b.ok);
    }
}

#[test]
fn auto_thread_default_matches_explicit_counts() {
    // serve_threads = 0 (auto) is the default everyone actually runs.
    let (g, plan, cfg) = plan_cfg();
    let cfg = cfg.with_serve_lanes(4);
    let auto = run_batch(&cfg.clone().with_serve_threads(0), &g, &plan, 8);
    let one = run_batch(&cfg.clone().with_serve_threads(1), &g, &plan, 8);
    assert_batches_bit_identical(&auto.0, &one.0);
    assert_eq!(auto.1, one.1);
}

// ---------------------------------------------------------------------
// Branch fan-out (DAG) engines: the same bit-identity guarantee holds
// when a request fans out across parallel partition nodes. The (request,
// node) recurrence is deterministic — node v starts at the max of its
// parents' checkpoint-ready times, fault streams are keyed per request —
// so the merged report cannot depend on the thread count.
// ---------------------------------------------------------------------

/// The optimizer's real branch-parallel plan for Inception-v3: planned at
/// batch 64 (where branch concurrency beats the chain at equal SLO and
/// equal cost), then served on the unbatched request stream like every
/// other plan.
fn dag_plan_cfg() -> (ampsinf_model::LayerGraph, DagPlan, AmpsConfig) {
    let g = zoo::inception_v3();
    let base = AmpsConfig {
        batch_size: 64,
        ..Default::default()
    };
    let free = Optimizer::new(base.clone()).optimize(&g).unwrap();
    let report = Optimizer::new(AmpsConfig {
        slo_s: Some(free.plan.predicted_time_s),
        ..base
    })
    .optimize_dag(&g)
    .unwrap();
    let dag = report.dag.expect("DAG plan must win at batch 64");
    (g, dag, AmpsConfig::default())
}

fn run_trace_dag(
    cfg: &AmpsConfig,
    g: &ampsinf_model::LayerGraph,
    plan: &DagPlan,
    arrivals: &[f64],
) -> (TraceReport, u64, u64) {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord.deploy_dag(&mut platform, g, plan).unwrap();
    let trace = coord.serve_trace_dag(&mut platform, &dep, arrivals);
    (
        trace,
        platform.total_cost().to_bits(),
        platform.invocation_count(),
    )
}

#[test]
fn dag_trace_bit_identical_across_thread_counts() {
    let (g, plan, cfg) = dag_plan_cfg();
    assert!(plan.width() >= 2, "plan must actually fan out");
    let cfg = cfg.with_serve_lanes(4);
    let arrivals: Vec<f64> = (0..12).map(|i| 1.5 * i as f64).collect();
    let baseline = run_trace_dag(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    assert_eq!(baseline.0.requests.len(), 12);
    assert_eq!(baseline.0.failures, 0);
    for t in &THREADS[1..] {
        let other = run_trace_dag(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
    }
}

#[test]
fn dag_trace_bit_identical_under_faults_and_flaky_store() {
    let (g, plan, mut cfg) = dag_plan_cfg();
    cfg.store = StoreKind::flaky_s3(0.3);
    let cfg = cfg
        .with_serve_lanes(4)
        .with_retries(2)
        .with_faults(FaultPlan::uniform(0.15, 31));
    let arrivals: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
    let baseline = run_trace_dag(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    let disturbed = baseline.0.failures > 0 || baseline.0.requests.iter().any(|r| r.retries > 0);
    assert!(disturbed, "faults injected nothing");
    for t in &THREADS[1..] {
        let other = run_trace_dag(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
    }
}

#[test]
fn dag_heavy_tail_bit_identical_under_faults_flaky_store_and_warm_pool() {
    // The full gauntlet on the DAG engine: heavy-tail arrivals (front
    // burst + stretching gaps skew lane chunks), a flaky store (per-key
    // fate draws), fault injection (retries) and a billed provisioned
    // pool (per-lane idle settlement). Every report field — including
    // the per-node busy/stall/critical accounting — must merge
    // bit-identically at every thread count.
    let (g, plan, mut cfg) = dag_plan_cfg();
    cfg.store = StoreKind::flaky_s3(0.2);
    let cfg = cfg
        .with_serve_lanes(8)
        .with_retries(2)
        .with_faults(FaultPlan::uniform(0.1, 47))
        .with_warm_pool(WarmPoolPolicy::provisioned(2));
    let arrivals = heavy_tail_arrivals();
    let baseline = run_trace_dag(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    let disturbed = baseline.0.requests.iter().any(|r| r.retries > 0);
    assert!(disturbed, "faults/flaky store injected nothing");
    assert!(baseline.0.pre_warmed > 0, "policy pre-warmed nothing");
    assert!(baseline.0.idle_dollars > 0.0, "provisioned idle unbilled");
    let stats = baseline.0.dag_nodes.as_ref().expect("node stats");
    assert!(stats.busy_s() > 0.0, "nodes never ran");
    for t in &THREADS[1..] {
        let other = run_trace_dag(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
    }
}

#[test]
fn dag_pipelined_trace_bit_identical_across_thread_counts() {
    let (g, plan, cfg) = dag_plan_cfg();
    let cfg = cfg.with_serve_lanes(4).with_pipeline(2);
    let arrivals: Vec<f64> = (0..12).map(|i| 0.5 * i as f64).collect();
    let baseline = run_trace_dag(
        &cfg.clone().with_serve_threads(THREADS[0]),
        &g,
        &plan,
        &arrivals,
    );
    assert_eq!(baseline.0.failures, 0);
    let stats = baseline.0.pipeline.as_ref().expect("pipelined stats");
    assert!(stats.utilization() > 0.0, "stations never ran");
    for t in &THREADS[1..] {
        let other = run_trace_dag(&cfg.clone().with_serve_threads(*t), &g, &plan, &arrivals);
        assert_traces_bit_identical(&baseline.0, &other.0);
        assert_eq!(baseline.1, other.1, "ledger total at {t} threads");
        assert_eq!(baseline.2, other.2, "invocations at {t} threads");
    }
}

#[test]
fn lanes_are_a_model_parameter_threads_are_not() {
    // Changing lanes may change results (less warm sharing); changing
    // threads never does. Pin both directions so nobody conflates them.
    let (g, plan, cfg) = plan_cfg();
    let one_lane = run_batch(&cfg.clone().with_serve_lanes(1), &g, &plan, 6);
    let six_lanes = run_batch(&cfg.clone().with_serve_lanes(6), &g, &plan, 6);
    // Six images on six lanes: nobody shares a warm pool, so every chain
    // cold-starts; one lane serves the legacy single-pool behaviour.
    assert!(six_lanes.3 >= one_lane.3);
    assert_eq!(six_lanes.0.jobs.len(), 6);
}
