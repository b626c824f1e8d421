//! The serve workload: one deployed branch-parallel plan driven by an
//! open-loop arrival trace through `run_open_loop_dag`, plus the planner
//! queries for that plan's (model, batch).

use crate::planner::{
    check_phase, counter_metrics, run_phase, trace_planner_layers, Phase, PlanCounters, Query,
    SloRange, SweepQuery,
};
use crate::report::{due, fnv1a, median, serial_share, FNV_OFFSET};
use crate::trace::Tracer;
use crate::{end_to_end, list, Outcome, Run, SERVE_LANES, THREADS};
use ampsinf_core::{AmpsConfig, Coordinator, DagPlan, Optimizer, TraceReport};
use ampsinf_faas::platform::Platform;
use ampsinf_faas::ObjectStore;
use ampsinf_faas::{CostLedger, FaultPlan, PartitionWork, StoreKind, WarmPoolPolicy};
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_serving::{run_open_loop_dag, ArrivalShape, LoadReport, LoadSpec};
use std::hint::black_box;
use std::time::Instant;

/// The serve workload's fixed parameters; the seed supplies the rest.
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Zoo builder of the served model.
    pub model: fn() -> LayerGraph,
    /// Images per request.
    pub batch: u64,
    /// Requests in the arrival trace.
    pub requests: usize,
    /// Mean arrival rate, requests per simulated second.
    pub rate_rps: f64,
    /// Flash-crowd arrival shape instead of constant-rate Poisson.
    pub flash_crowd: bool,
    /// Crash, timeout and cold-start fault rate (each), 0 for none.
    pub fault_rate: f64,
    /// Storage 5xx rate, 0 for the plain store.
    pub flaky_rate: f64,
    /// Per-invocation retry budget.
    pub retries: u32,
    /// Cold point queries on the served (model, batch).
    pub plan_queries: usize,
    /// Grid points per sweep.
    pub sweep_points: usize,
    /// Sweeps per pass.
    pub sweeps: usize,
}

/// Inception-v3 batch-64 DAG (47 nodes, 46 objects) under a flash crowd,
/// with crash, timeout and cold-start faults, a flaky store and a
/// one-retry budget.
pub const SERVE_DAG: ServeSpec = ServeSpec {
    name: "serve_dag",
    model: zoo::inception_v3,
    batch: 64,
    requests: 200_000,
    rate_rps: 100.0,
    flash_crowd: true,
    fault_rate: FAULT_RATE,
    flaky_rate: FAULT_RATE,
    retries: 1,
    plan_queries: 100,
    sweep_points: 4,
    sweeps: 15,
};

/// Crash, timeout, cold-start and storage fault rate of the serve
/// workload: with 47 invocations and ~120 storage calls per request, a
/// job retries about 20k invocations and a few dozen of its 200k requests
/// exhaust the retry budget.
const FAULT_RATE: f64 = 0.001;
/// Optimizer threads of the serve workload, for its set-up, queries and
/// sweeps. Its parallel speed-up is not what the workload measures (the
/// optimizer is no faster at 2 threads on a 2-vCPU host), and at 2 its
/// times swing by up to half with the load on the busier vCPU.
const PLANNER_THREADS: usize = 1;
/// Serve pairs (one 2-thread and one 1-thread job) run at the least.
const MIN_PAIRS: usize = 3;
/// Whole jobs and decomposed jobs timed by the traced run.
const DECOMPOSE_REPEATS: usize = 3;
/// Invocations timed by the `Platform::invoke` probe.
const INVOKE_PROBES: usize = 200_000;
/// Simulated requests' worth of storage traffic timed by the store probe.
const STORAGE_PROBE_REQUESTS: usize = 20_000;

/// Everything set-up produces.
struct Prepared {
    graph: LayerGraph,
    plan: DagPlan,
    load: LoadSpec,
    queries: Vec<Query>,
    sweeps: Vec<SweepQuery>,
}

/// The serving configuration at `threads` serving threads.
fn serve_cfg(spec: &ServeSpec, seed: u64, threads: usize) -> AmpsConfig {
    let mut cfg = AmpsConfig::default()
        .with_batch(spec.batch)
        .with_threads(PLANNER_THREADS)
        .with_serve_lanes(SERVE_LANES)
        .with_serve_threads(threads)
        .with_warm_pool(WarmPoolPolicy::lambda_default())
        .with_retries(spec.retries);
    if spec.fault_rate > 0.0 {
        cfg = cfg.with_faults(FaultPlan::uniform(spec.fault_rate, seed));
    }
    if spec.flaky_rate > 0.0 {
        cfg.store = StoreKind::flaky_s3(spec.flaky_rate);
    }
    cfg
}

/// Builds the model, plans it, deploys the plan, generates the arrivals
/// and lists the planner queries.
fn setup(
    spec: &ServeSpec,
    seed: u64,
    tr: &mut Tracer,
    counters: &mut PlanCounters,
) -> Result<Prepared, String> {
    tr.span("setup", 0, |tr| {
        let graph = tr.span("model.build", 0, |_| (spec.model)());
        let cfg = serve_cfg(spec, seed, THREADS);
        let opt = Optimizer::new(cfg.clone());
        let r = tr
            .span("optimizer.optimize_dag", 0, |_| opt.optimize_dag(&graph))
            .map_err(|e| format!("planning {}: {e}", spec.name))?;
        counters.add_report(&r.chain);
        counters.add_search(&r.search);
        let plan = r
            .dag
            .ok_or("the planner found no branch-parallel plan to serve")?;
        let coord = Coordinator::new(cfg);
        let mut platform = coord.platform();
        tr.span("coordinator.deploy", 0, |_| {
            deploy(&coord, &mut platform, &graph, &plan)
        })?;
        let mut load = LoadSpec::poisson(spec.rate_rps, spec.requests, seed);
        if spec.flash_crowd {
            load = load.with_shape(ArrivalShape::flash_crowd());
        }
        let arrivals = tr.span("loadgen.arrivals", 0, |_| load.arrivals());
        if arrivals.len() != spec.requests || !arrivals.windows(2).all(|w| w[0] <= w[1]) {
            return Err("arrival trace is not the requested length in time order".into());
        }
        // The point queries are the cold free-run plan of the served
        // (model, batch), the query `serve --requests` makes before serving
        // (for the DAG, its chain incumbent); the sweeps walk a fixed SLO
        // ladder. The seed drives this workload's arrivals and faults;
        // `plan_mix` is the seeded planner stream.
        let range = SloRange::plan(tr, 1, &graph, spec.batch, PLANNER_THREADS, counters)?;
        let queries = vec![
            Query {
                model: 0,
                batch: spec.batch,
                slo_s: None,
                dag: false,
            };
            spec.plan_queries
        ];
        let sweeps = (0..spec.sweeps)
            .map(|_| SweepQuery {
                model: 0,
                batch: spec.batch,
                slos: range.ladder(spec.sweep_points),
                dag: true,
            })
            .collect();
        Ok(Prepared {
            graph,
            plan,
            load,
            queries,
            sweeps,
        })
    })
}

/// Deploys `plan` on `platform`.
fn deploy(
    coord: &Coordinator,
    platform: &mut Platform,
    g: &LayerGraph,
    plan: &DagPlan,
) -> Result<Vec<ampsinf_faas::FunctionId>, String> {
    coord
        .deploy_dag(platform, g, plan)
        .map(|d| d.functions)
        .map_err(|e| format!("deploy: {e}"))
}

/// One serve job: the whole open-loop run the `serve --requests` command
/// makes after planning.
fn serve_job(p: &Prepared, cfg: &AmpsConfig) -> Result<LoadReport, String> {
    run_open_loop_dag(&p.graph, &p.plan, cfg, &p.load)
}

/// The deterministic content of a load report: two runs of the same
/// workload must agree on all of it, at any thread count.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    dollars_bits: u64,
    makespan_bits: u64,
    served: usize,
    failures: usize,
    invocations: u64,
    cold_starts: usize,
    peak_instances: usize,
    latency_hash: u64,
    p50_s: f64,
    p99_s: f64,
}

fn fingerprint(r: &LoadReport) -> Fingerprint {
    let h = r
        .latencies_s
        .iter()
        .fold(FNV_OFFSET, |h, l| fnv1a(h, &l.to_bits().to_le_bytes()));
    Fingerprint {
        dollars_bits: r.dollars.to_bits(),
        makespan_bits: r.makespan_s.to_bits(),
        served: r.latencies_s.len(),
        failures: r.failures,
        invocations: r.invocations,
        cold_starts: r.cold_starts,
        peak_instances: r.peak_instances,
        latency_hash: h,
        p50_s: r.percentile(50.0),
        p99_s: r.percentile(99.0),
    }
}

/// The thread-invariant totals of an engine trace.
#[derive(Debug, PartialEq)]
struct EngineSummary {
    dollars_bits: u64,
    requests: usize,
    failures: usize,
    failed_requests: usize,
    retries: u64,
    invocations: u64,
    cold_starts: usize,
    peak_instances: usize,
}

impl EngineSummary {
    fn of(t: &TraceReport) -> Self {
        EngineSummary {
            dollars_bits: t.dollars.to_bits(),
            requests: t.requests.len(),
            failures: t.failures,
            failed_requests: t.requests.iter().filter(|r| !r.ok).count(),
            retries: t.requests.iter().map(|r| u64::from(r.retries)).sum(),
            invocations: t.invocations,
            cold_starts: t.cold_starts,
            peak_instances: t.peak_instances,
        }
    }
}

/// Runs one serve job at `threads` and checks its report against the
/// first one of the run. Returns host seconds.
fn timed_job(
    spec: &ServeSpec,
    seed: u64,
    p: &Prepared,
    threads: usize,
    reference: &mut Option<Fingerprint>,
    run: &mut Run,
) -> Result<f64, String> {
    let cfg = serve_cfg(spec, seed, threads);
    let t = Instant::now();
    let report = serve_job(p, &cfg)?;
    let secs = t.elapsed().as_secs_f64();
    let fp = fingerprint(&report);
    drop(report);
    run.attempted += 1;
    let mut ok = run.check(
        fp.served + fp.failures == spec.requests,
        format!(
            "{threads}-thread job: {} succeeded + {} failed != {} sent",
            fp.served, fp.failures, spec.requests
        ),
    );
    match reference {
        None => *reference = Some(fp),
        Some(r) => {
            ok &= run.check(
                *r == fp,
                format!("{threads}-thread report differs from the first job's: {fp:?} vs {r:?}"),
            )
        }
    }
    if !ok {
        run.failed += 1;
    }
    Ok(secs)
}

/// Peak resident set, MiB, of a child process that sets up the workload
/// and serves one job: this process's own high-water mark also holds what
/// the allocator retains across the run's many jobs.
fn peak_rss_probe(name: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--rss-probe", name, &seed.to_string()])
        .output()
        .map_err(|e| format!("running the memory probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(mb)) => Ok(mb),
        _ => Err(format!(
            "memory probe failed: {}{}",
            text,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// The memory probe's side: sets up `spec` and serves one job, then
/// returns this process's peak resident set in MiB. The job runs at 1
/// thread: at 2, which worker's allocator arena frees first moves the
/// peak by up to 100 MB from run to run.
pub fn rss_probe(spec: &ServeSpec, seed: u64) -> Result<f64, String> {
    let p = setup(
        spec,
        seed,
        &mut Tracer::disabled(),
        &mut PlanCounters::default(),
    )?;
    serve_job(&p, &serve_cfg(spec, seed, 1))?;
    crate::report::peak_rss_mb().ok_or_else(|| "VmHWM is not available".to_string())
}

/// Serves one lone request on a fresh, fault-free deployment and returns
/// realized over predicted latency.
fn realized_over_predicted(spec: &ServeSpec, seed: u64, p: &Prepared) -> Result<f64, String> {
    let cfg = AmpsConfig {
        faults: FaultPlan::none(),
        store: StoreKind::s3(),
        ..serve_cfg(spec, seed, 1)
    };
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = coord
        .deploy_dag(&mut platform, &p.graph, &p.plan)
        .map_err(|e| e.to_string())?;
    let job = coord
        .serve_one_dag(&mut platform, &dep, 0.0, "probe")
        .map_err(|e| format!("lone request failed: {e:?}"))?;
    Ok(job.inference_s / p.plan.predicted_time_s)
}

/// ns per `Platform::invoke` on the workload's own deployed functions,
/// warm, with no storage traffic.
fn invoke_probe(spec: &ServeSpec, seed: u64, p: &Prepared) -> Result<f64, String> {
    let cfg = AmpsConfig {
        faults: FaultPlan::none(),
        ..serve_cfg(spec, seed, 1)
    };
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let functions = deploy(&coord, &mut platform, &p.graph, &p.plan)?;
    let works: Vec<_> = p
        .plan
        .nodes
        .iter()
        .map(|n| PartitionWork::from_segment(&p.graph, n.start, n.end).invocation(None, None))
        .collect();
    let rounds = INVOKE_PROBES.div_ceil(functions.len());
    let mut now = 0.0f64;
    let t = Instant::now();
    for _ in 0..rounds {
        let mut longest = 0.0f64;
        for (f, w) in functions.iter().zip(&works) {
            let out = platform
                .invoke(*f, now, black_box(w))
                .map_err(|e| format!("probe invocation failed: {:?}", e.reason))?;
            longest = longest.max(out.end - out.start);
        }
        // Start the next round once every instance is idle again, well
        // inside the keep-alive window, so every invocation after the first
        // round is warm.
        now += longest + 1.0;
    }
    Ok(t.elapsed().as_nanos() as f64 / (rounds * functions.len()) as f64)
}

/// ns per PUT + GET pair through `ObjectStore::put_id`/`get_id` at the
/// sizes of the plan's objects, and storage operations per request.
fn storage_probe(spec: &ServeSpec, seed: u64, p: &Prepared) -> (f64, u64) {
    let cfg = serve_cfg(spec, seed, 1);
    let dag = &p.plan;
    let ops_per_request: u64 = dag
        .objects
        .iter()
        .map(|o| 1 + o.consumers.len() as u64)
        .sum();
    if ops_per_request == 0 {
        return (0.0, 0);
    }
    let mut store = ObjectStore::new(cfg.store);
    let mut ledger = CostLedger::new();
    ledger.set_itemized(false);
    let keys: Vec<_> = (0..dag.objects.len())
        .map(|i| store.intern(&format!("probe/object{i}")))
        .collect();
    let mut now = 0.0f64;
    let t = Instant::now();
    for _ in 0..STORAGE_PROBE_REQUESTS {
        for (o, &key) in dag.objects.iter().zip(&keys) {
            // A flaky store may give up on an operation; that is simulated
            // behaviour, not a benchmark failure.
            if let Ok(op) = store.put_id(key, o.bytes, now, &cfg.prices, &mut ledger) {
                now += op.duration_s;
            }
            for _ in &o.consumers {
                let _ = black_box(store.get_id(key, &cfg.prices, &mut ledger));
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    let ops = STORAGE_PROBE_REQUESTS as u64 * ops_per_request;
    (2.0 * ns / ops as f64, ops_per_request)
}

/// The serve workload `spec`: measures for about `seconds` seconds, or
/// makes the traced run when `trace` is set.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return traced(spec, seed);
    }
    let mut run = Run::default();
    let mut counters = PlanCounters::default();
    let mut disabled = Tracer::disabled();

    let start = Instant::now();
    let p = setup(spec, seed, &mut disabled, &mut counters)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    // One untimed (but checked) job first, so that timing starts once the
    // allocator holds its working memory.
    let mut reference = None;
    timed_job(spec, seed, &p, THREADS, &mut reference, &mut run)?;

    // Planner queries, sweeps and the remaining set-ups run in slices
    // between serve pairs, as many as are due by the end of the coming
    // pair, so that every metric samples the whole run rather than one
    // stretch of it on a machine whose speed drifts.
    let graphs = std::slice::from_ref(&p.graph);
    let mut phase = Phase::default();
    let (mut rps2, mut rps1) = (Vec::new(), Vec::new());
    let mut pair_s = 0.0;
    let mut catch_up = |frac: f64,
                        phase: &mut Phase,
                        setup_s: &mut Vec<f64>,
                        counters: &mut PlanCounters|
     -> Result<(), String> {
        while phase.latencies_ms.len() < due(p.queries.len(), frac) {
            let k = phase.latencies_ms.len();
            phase.query(
                &mut disabled,
                graphs,
                &p.queries,
                k,
                PLANNER_THREADS,
                counters,
            );
        }
        while phase.sweeps.len() < due(p.sweeps.len(), frac) {
            let k = phase.sweeps.len();
            phase.sweep(
                &mut disabled,
                graphs,
                &p.sweeps,
                k,
                PLANNER_THREADS,
                counters,
            );
        }
        while setup_s.len() < due(crate::SETUP_REPEATS, frac) {
            let t = Instant::now();
            drop(setup(spec, seed, &mut Tracer::disabled(), counters)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    };
    for pair in 0.. {
        let t = Instant::now();
        let frac = (start.elapsed().as_secs_f64() + pair_s) / seconds;
        catch_up(frac, &mut phase, &mut setup_s, &mut counters)?;
        // Alternate which thread count runs first within a pair.
        let order = if pair % 2 == 0 { [2, 1] } else { [1, 2] };
        for threads in order {
            let secs = timed_job(spec, seed, &p, threads, &mut reference, &mut run)?;
            let rps = spec.requests as f64 / secs;
            if threads == 2 {
                rps2.push(rps);
            } else {
                rps1.push(rps);
            }
        }
        pair_s = t.elapsed().as_secs_f64();
        if pair + 1 >= MIN_PAIRS && start.elapsed().as_secs_f64() + pair_s > seconds {
            break;
        }
    }
    catch_up(1.0, &mut phase, &mut setup_s, &mut counters)?;

    let check = check_phase(
        std::slice::from_ref(&p.graph),
        &p.queries,
        &p.sweeps,
        &phase,
        2,
    );
    run.absorb_phase(&p.queries, &p.sweeps, &check);
    let ratio = realized_over_predicted(spec, seed, &p)?;
    let fp = reference.expect("at least one serve job ran");
    let sent = spec.requests as f64;
    run.check(
        fp.p50_s > 0.0 && fp.p50_s <= fp.p99_s && fp.invocations > 0,
        format!("implausible simulated outputs {fp:?}"),
    );
    run.line(format!(
        "checked outputs: simulated p50 {:.6} s, p99 {:.6} s, ${:.9}/request, \
         cold share {:.6}, {} of {} requests failed, {} invocations, peak {} instances",
        fp.p50_s,
        fp.p99_s,
        f64::from_bits(fp.dollars_bits) / sent,
        fp.cold_starts as f64 / fp.invocations as f64,
        fp.failures,
        spec.requests,
        fp.invocations,
        fp.peak_instances,
    ));
    run.line(format!(
        "predicted vs realized (lone cold request, not gated): realized/predicted = {ratio:.6}"
    ));
    run.line(format!(
        "samples: set-up s {}; req/s at 2 threads {}; at 1 thread {} ({} requests per job); \
         {} point queries; {} sweeps",
        list(&setup_s),
        list(&rps2),
        list(&rps1),
        spec.requests,
        phase.latencies_ms.len(),
        phase.sweep_ms_per_point.len()
    ));
    let ok_frac = fp.served as f64 / sent;
    Ok(run.finish(end_to_end(
        median(&setup_s),
        median(&rps2),
        median(&rps1),
        &phase,
        check.usd_sum,
        peak_rss_probe(spec.name, seed)?,
        ok_frac,
    )?))
}

/// The traced run: one untraced pass, the same pass traced, then the
/// per-layer decomposition and probes.
fn traced(spec: &ServeSpec, seed: u64) -> Result<Outcome, String> {
    let mut run = Run::default();
    let one =
        |tr: &mut Tracer, counters: &mut PlanCounters| -> Result<(Prepared, Phase, f64), String> {
            let p = setup(spec, seed, tr, counters)?;
            let phase = run_phase(
                tr,
                std::slice::from_ref(&p.graph),
                &p.queries,
                &p.sweeps,
                PLANNER_THREADS,
                counters,
            );
            let cfg = serve_cfg(spec, seed, THREADS);
            let t = Instant::now();
            let report = tr.span("loadgen.run_open_loop", 0, |_| serve_job(&p, &cfg))?;
            let job_s = t.elapsed().as_secs_f64();
            drop(report);
            Ok((p, phase, job_s))
        };

    let t = Instant::now();
    one(&mut Tracer::disabled(), &mut PlanCounters::default())?;
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut tr = Tracer::enabled();
    let mut counters = PlanCounters::default();
    let (p, phase, _) = one(&mut tr, &mut counters)?;
    let traced_ms: f64 = tr.top_level().map(|i| tr.ms(i)).sum();
    run.attempted += 1;
    let check = check_phase(
        std::slice::from_ref(&p.graph),
        &p.queries,
        &p.sweeps,
        &phase,
        0,
    );
    run.absorb_phase(&p.queries, &p.sweeps, &check);

    // The job decomposed into the calls `run_open_loop_dag` makes, at 2 and at
    // 1 serving thread, on the same inputs, interleaved with whole jobs;
    // each layer reports its median over the repetitions.
    let mut engine = Vec::new();
    for rep in 0..DECOMPOSE_REPEATS as u64 {
        if rep > 0 {
            let cfg = serve_cfg(spec, seed, THREADS);
            tr.span("loadgen.run_open_loop", rep, |_| serve_job(&p, &cfg))?;
        }
        for (threads, name) in [(2usize, "coordinator.serve"), (1, "coordinator.serve_1t")] {
            let cfg = serve_cfg(spec, seed, threads);
            let r = tr.span("decompose", rep, |tr| -> Result<TraceReport, String> {
                let coord = Coordinator::new(cfg);
                let mut platform = coord.platform();
                let dep = tr
                    .span("coordinator.deploy", rep, |_| {
                        coord.deploy_dag(&mut platform, &p.graph, &p.plan)
                    })
                    .map_err(|e| e.to_string())?;
                let arrivals = tr.span("loadgen.arrivals", rep, |_| p.load.arrivals());
                Ok(tr.span(name, rep, |_| {
                    coord.serve_trace_dag(&mut platform, &dep, &arrivals)
                }))
            })?;
            engine.push(EngineSummary::of(&r));
        }
    }
    let e = &engine[0];
    run.check(
        engine.iter().all(|x| x == e),
        format!("engine traces differ between thread counts or repetitions: {engine:?}"),
    );
    run.check(
        e.requests == spec.requests && e.failed_requests == e.failures,
        "request summaries disagree with the trace totals".to_string(),
    );

    let cuts = tr.span("probe.planner_layers", 0, |tr| {
        trace_planner_layers(tr, 0, &p.graph, spec.batch)
    });
    let invoke_ns = tr.span("probe.invoke", 0, |_| invoke_probe(spec, seed, &p))?;
    let (put_get_ns, ops_per_request) =
        tr.span("probe.storage", 0, |_| storage_probe(spec, seed, &p));
    let ratio = tr.span("probe.lone_request", 0, |_| {
        realized_over_predicted(spec, seed, &p)
    })?;

    let med = |name: &str| median(&tr.durations_ms(name));
    let (deploy_ms, arrivals_ms) = (med("coordinator.deploy"), med("loadgen.arrivals"));
    let (serve_ms, serve_1t_ms) = (med("coordinator.serve"), med("coordinator.serve_1t"));
    let report_ms = med("loadgen.run_open_loop") - deploy_ms - arrivals_ms - serve_ms;
    let mut layers = vec![
        ("model.build_ms", tr.total_ms("model.build"), "ms"),
        ("loadgen.arrivals_ms", arrivals_ms, "ms"),
        ("loadgen.report_ms", report_ms, "ms"),
        ("coordinator.deploy_ms", deploy_ms, "ms"),
        ("coordinator.serve_ms", serve_ms, "ms"),
        ("coordinator.serve_1t_ms", serve_1t_ms, "ms"),
        (
            "coordinator.ns_per_invocation",
            serve_1t_ms * 1e6 / e.invocations as f64,
            "ns",
        ),
        (
            "coordinator.serial_share",
            serial_share(serve_1t_ms, serve_ms),
            "fraction",
        ),
        ("coordinator.retries", e.retries as f64, "count"),
        ("coordinator.failed", e.failed_requests as f64, "count"),
        ("coordinator.realized_over_predicted", ratio, "ratio"),
        ("platform.invocations", e.invocations as f64, "count"),
        ("platform.cold_starts", e.cold_starts as f64, "count"),
        ("platform.peak_instances", e.peak_instances as f64, "count"),
        ("platform.invoke_ns", invoke_ns, "ns"),
        ("storage.put_get_ns", put_get_ns, "ns"),
        (
            "storage.ops",
            (ops_per_request * spec.requests as u64) as f64,
            "count",
        ),
        ("profiler.profile_ms", tr.total_ms("profiler.profile"), "ms"),
        ("cuts.enumerate_ms", tr.total_ms("cuts.enumerate"), "ms"),
        ("cuts.count", cuts as f64, "count"),
        ("colcache.columns_ms", tr.total_ms("colcache.columns"), "ms"),
    ];
    layers.extend(counter_metrics(&counters));
    Ok(run.finish_traced(layers, tr, untraced_ms, traced_ms))
}
