//! The `plan_mix` workload: a seeded stream of cold planner queries over
//! the paper's four evaluation models, with no serving layer involved.

use crate::planner::{
    check_phase, counter_metrics, run_phase, run_query, trace_planner_layers, Phase, PlanCounters,
    Query, SloRange, SweepQuery,
};
use crate::report::{due, median, percentile};
use crate::trace::Tracer;
use crate::{end_to_end, list, Outcome, Run, SETUP_REPEATS, THREADS};
use ampsinf_faas::SmallRng;
use ampsinf_model::{zoo, LayerGraph};
use std::time::Instant;

/// The paper's §5 evaluation models.
const MODELS: [fn() -> LayerGraph; 4] = [
    zoo::mobilenet_v1,
    zoo::resnet50,
    zoo::inception_v3,
    zoo::xception,
];
/// Batch sizes every model is queried at.
const BATCHES: [u64; 3] = [1, 8, 64];
/// SLO-bound chain queries per (model, batch), beside one free run.
const SLO_QUERIES: usize = 8;
/// Batch sizes of the DAG queries; each gets a free run and one SLO.
const DAG_BATCHES: [u64; 2] = [1, 64];
/// Sweep kinds as (model index, batch, DAG sweep): chain sweeps of
/// Xception batch 64, ResNet-50 batch 1, Inception-v3 batch 1 and
/// ResNet-50 batch 8 (binding SLOs, MIQP-heavy), and the Inception-v3
/// batch-64 DAG sweep.
const SWEEP_KINDS: [(usize, u64, bool); 5] = [
    (3, 64, false),
    (1, 1, false),
    (2, 1, false),
    (1, 8, false),
    (2, 64, true),
];
/// Runs of each sweep kind per pass.
const SWEEP_REPEATS: usize = 3;
/// Grid points per sweep.
const SWEEP_POINTS: usize = 4;
/// Every `ONE_THREAD_STRIDE`-th point query, from the third on, reruns at
/// one optimizer thread; the offset puts the batch-64 Inception-v3 DAG
/// query, the slowest kind, in the subset.
const ONE_THREAD_STRIDE: usize = 3;
const ONE_THREAD_OFFSET: usize = 2;

/// Set-up's product: the models and the seeded query stream.
struct Prepared {
    graphs: Vec<LayerGraph>,
    queries: Vec<Query>,
    sweeps: Vec<SweepQuery>,
}

/// Builds the models, plans every (model, batch) free run to place the
/// SLOs, and draws the queries.
fn setup(seed: u64, tr: &mut Tracer, counters: &mut PlanCounters) -> Result<Prepared, String> {
    tr.span("setup", 0, |tr| {
        let graphs: Vec<LayerGraph> = MODELS
            .iter()
            .enumerate()
            .map(|(m, build)| tr.span("model.build", m as u64, |_| build()))
            .collect();
        // ranges[m][b]: where the SLOs of (model m, batch b) are drawn.
        let mut ranges = Vec::new();
        for (m, g) in graphs.iter().enumerate() {
            let mut row = Vec::new();
            for (b, &batch) in BATCHES.iter().enumerate() {
                let id = (m * BATCHES.len() + b) as u64;
                row.push(SloRange::plan(tr, id, g, batch, THREADS, counters)?);
            }
            ranges.push(row);
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x91a2_5eed);
        let mut queries = Vec::new();
        for (m, row) in ranges.iter().enumerate() {
            for (b, &batch) in BATCHES.iter().enumerate() {
                queries.push(Query {
                    model: m,
                    batch,
                    slo_s: None,
                    dag: false,
                });
                for slo in row[b].draw(&mut rng, SLO_QUERIES) {
                    queries.push(Query {
                        model: m,
                        batch,
                        slo_s: Some(slo),
                        dag: false,
                    });
                }
            }
        }
        for (m, row) in ranges.iter().enumerate() {
            for batch in DAG_BATCHES {
                let b = BATCHES
                    .iter()
                    .position(|&x| x == batch)
                    .expect("DAG batch is queried");
                for slo_s in [None, Some(row[b].draw(&mut rng, 1)[0])] {
                    queries.push(Query {
                        model: m,
                        batch,
                        slo_s,
                        dag: true,
                    });
                }
            }
        }
        // Each sweep kind runs SWEEP_REPEATS times on the SLO ladder of its
        // (model, batch). The kinds' per-point costs lie far apart, so with
        // an odd number of kinds the median sweep is the middle repetition
        // of the middle kind instead of an average across a gap between
        // two kinds. The ladder does not depend on the seed: on seeded
        // grids, which kind is in the middle changed from seed to seed and
        // moved the median by a fifth.
        let mut sweeps = Vec::new();
        for (m, batch, dag) in SWEEP_KINDS {
            let b = BATCHES
                .iter()
                .position(|&x| x == batch)
                .expect("sweep batch is queried");
            let slos = ranges[m][b].ladder(SWEEP_POINTS);
            for _ in 0..SWEEP_REPEATS {
                sweeps.push(SweepQuery {
                    model: m,
                    batch,
                    slos: slos.clone(),
                    dag,
                });
            }
        }
        Ok(Prepared {
            graphs,
            queries,
            sweeps,
        })
    })
}

/// The `plan_mix` workload: measures for about `seconds` seconds, or makes
/// the traced run when `trace` is set.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return traced(seed);
    }
    let mut run = Run::default();
    let mut counters = PlanCounters::default();
    let start = Instant::now();
    let p = setup(seed, &mut Tracer::disabled(), &mut counters)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];

    let mut passes: Vec<Phase> = Vec::new();
    let mut one_thread_ms = Vec::new();
    let mut disabled = Tracer::disabled();
    loop {
        let t = Instant::now();
        let setup_before: f64 = setup_s.iter().sum();
        let mut phase = Phase::default();
        let (nq, ns) = (p.queries.len(), p.sweeps.len());
        for k in 0..nq {
            phase.query(
                &mut disabled,
                &p.graphs,
                &p.queries,
                k,
                THREADS,
                &mut counters,
            );
            // The subset reruns right away at one optimizer thread, so both
            // thread counts see the same machine state, and must plan the
            // same.
            if k % ONE_THREAD_STRIDE == ONE_THREAD_OFFSET {
                let q = &p.queries[k];
                let (ms, answer) = run_query(
                    &mut disabled,
                    k as u64,
                    &p.graphs[q.model],
                    q,
                    1,
                    &mut counters,
                );
                one_thread_ms.push(ms);
                run.attempted += 1;
                if !run.check(
                    answer == phase.answers[k],
                    format!("query {k} {q:?} planned differently at 1 and {THREADS} threads"),
                ) {
                    run.failed += 1;
                }
            }
            // The remaining set-ups spread evenly through the first pass,
            // so that `setup_s` samples the whole of it.
            while setup_s.len() < due(SETUP_REPEATS, (k + 1) as f64 / nq as f64) {
                let t = Instant::now();
                drop(setup(seed, &mut Tracer::disabled(), &mut counters)?);
                setup_s.push(t.elapsed().as_secs_f64());
            }
            // Sweeps spread evenly through the pass, the last one at its end.
            while phase.sweeps.len() < ns && (phase.sweeps.len() + 1) * nq <= (k + 1) * ns {
                let j = phase.sweeps.len();
                phase.sweep(
                    &mut disabled,
                    &p.graphs,
                    &p.sweeps,
                    j,
                    THREADS,
                    &mut counters,
                );
            }
        }
        if let Some(first) = passes.first() {
            run.check(
                first.answers == phase.answers,
                "a later pass planned differently from the first".into(),
            );
        }
        passes.push(phase);
        // The next pass repeats this one's work without its set-ups.
        let pass_s = t.elapsed().as_secs_f64() - (setup_s.iter().sum::<f64>() - setup_before);
        if start.elapsed().as_secs_f64() + pass_s > seconds {
            break;
        }
    }

    let per_s = |ms: &[f64]| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
    let first = &passes[0];
    let check = check_phase(&p.graphs, &p.queries, &p.sweeps, first, 2);
    run.absorb_phase(&p.queries, &p.sweeps, &check);
    // Later passes repeat the first one's answers (checked above).
    let repeats = passes.len() as u64 - 1;
    run.attempted += repeats * (p.queries.len() + p.sweeps.len()) as u64;
    run.failed += repeats * (check.refused + check.errors.len() as u64);
    let all = Phase {
        latencies_ms: passes.iter().flat_map(|f| f.latencies_ms.clone()).collect(),
        answers: Vec::new(),
        sweep_ms_per_point: passes
            .iter()
            .flat_map(|f| f.sweep_ms_per_point.clone())
            .collect(),
        sweeps: Vec::new(),
    };
    let n = p.queries.len() as f64;
    let refused_or_wrong = check.refused as f64 + check.errors.len() as f64;
    let dag_queries = p.queries.iter().filter(|q| q.dag).count();
    run.line(format!(
        "checked outputs: {} point queries ({} DAG) and {} sweeps per pass, {} pass(es); \
         predicted $ summed over answered point queries = {:.9}",
        p.queries.len(),
        dag_queries,
        p.sweeps.len(),
        passes.len(),
        check.usd_sum
    ));
    let subset_2t: Vec<f64> = passes
        .iter()
        .flat_map(|f| {
            f.latencies_ms
                .iter()
                .copied()
                .skip(ONE_THREAD_OFFSET)
                .step_by(ONE_THREAD_STRIDE)
        })
        .collect();
    run.line(format!(
        "one-thread subset: {:.4} queries/s at 1 thread vs {:.4} at {THREADS} threads",
        per_s(&one_thread_ms),
        per_s(&subset_2t)
    ));
    run.line(format!(
        "samples: set-up s {}; {} point queries at {THREADS} threads (p50 {:.3} ms, p90 {:.3} ms), \
         {} at 1 thread (p50 {:.3} ms), {} sweeps",
        list(&setup_s),
        all.latencies_ms.len(),
        percentile(&all.latencies_ms, 50.0),
        percentile(&all.latencies_ms, 90.0),
        one_thread_ms.len(),
        percentile(&one_thread_ms, 50.0),
        all.sweep_ms_per_point.len()
    ));
    Ok(run.finish(end_to_end(
        median(&setup_s),
        per_s(&all.latencies_ms),
        per_s(&one_thread_ms),
        &all,
        check.usd_sum,
        crate::report::peak_rss_mb().ok_or("VmHWM is not available")?,
        (n - refused_or_wrong) / n,
    )?))
}

/// The traced run: one untraced pass, the same pass traced, then the
/// planner's layers timed on their own for every (model, batch).
fn traced(seed: u64) -> Result<Outcome, String> {
    let mut run = Run::default();
    let one = |tr: &mut Tracer, counters: &mut PlanCounters| -> Result<(Prepared, Phase), String> {
        let p = setup(seed, tr, counters)?;
        let phase = run_phase(tr, &p.graphs, &p.queries, &p.sweeps, THREADS, counters);
        Ok((p, phase))
    };
    let t = Instant::now();
    one(&mut Tracer::disabled(), &mut PlanCounters::default())?;
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut tr = Tracer::enabled();
    let mut counters = PlanCounters::default();
    let (p, phase) = one(&mut tr, &mut counters)?;
    let traced_ms: f64 = tr.top_level().map(|i| tr.ms(i)).sum();
    let check = check_phase(&p.graphs, &p.queries, &p.sweeps, &phase, 0);
    run.absorb_phase(&p.queries, &p.sweeps, &check);

    let mut cuts = 0;
    tr.span("probe.planner_layers", 0, |tr| {
        for (m, g) in p.graphs.iter().enumerate() {
            for (b, &batch) in BATCHES.iter().enumerate() {
                cuts += trace_planner_layers(tr, (m * BATCHES.len() + b) as u64, g, batch);
            }
        }
    });
    let mut layers = vec![
        ("model.build_ms", tr.total_ms("model.build"), "ms"),
        ("profiler.profile_ms", tr.total_ms("profiler.profile"), "ms"),
        ("cuts.enumerate_ms", tr.total_ms("cuts.enumerate"), "ms"),
        ("cuts.count", cuts as f64, "count"),
        ("colcache.columns_ms", tr.total_ms("colcache.columns"), "ms"),
    ];
    layers.extend(counter_metrics(&counters));
    Ok(run.finish_traced(layers, tr, untraced_ms, traced_ms))
}
