//! Golden report hashes for serving *chain* plans.
//!
//! Every field the serving entry points report for a chain plan is folded
//! into one FNV-1a hash per case, over MobileNet, ResNet-50 and
//! Inception-v3 (whose cuts carry skip tensors), clean and under injected
//! faults with a flaky store, on Poisson and heavy-tail arrivals. The
//! constants pin the served numbers bit for bit: a change to the serving
//! engine that moves any of them is a behaviour change, not a refactor.
//! `dag_nodes` (per-node stats) is excluded from the trace and load
//! hashes.
//!
//! On a mismatch the test prints every case's actual hashes in table form.

use ampsinf_core::{AmpsConfig, Coordinator, DagDeployment, ExecutionPlan, Optimizer, TraceReport};
use ampsinf_faas::{FaultPlan, Platform, StoreKind};
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_serving::{
    run_adaptive_loop, run_open_loop, AdaptiveSpec, ArrivalShape, LoadReport, LoadSpec,
};
use std::fmt::Debug;

/// 64-bit FNV-1a of `value`'s `Debug` rendering, which prints every field,
/// nested ones included, and every float exactly (its shortest
/// round-trip form, so two renderings agree iff the bits agree).
fn fnv(value: &impl Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A trace report without its per-node stats.
fn trace_hashed(mut t: TraceReport) -> TraceReport {
    t.dag_nodes = None;
    t
}

/// A load report without its per-node stats.
fn load_hashed(mut r: LoadReport) -> LoadReport {
    r.dag_nodes = None;
    r
}

/// A front burst that slams every lane at once, then a tail whose gaps
/// grow quadratically.
fn heavy_tail_arrivals() -> Vec<f64> {
    let mut arrivals: Vec<f64> = (0..24).map(|i| 0.01 * i as f64).collect();
    let mut t = 1.0f64;
    for i in 0..24 {
        t += 0.5 * (1.0 + i as f64).powi(2);
        arrivals.push(t);
    }
    arrivals
}

/// Retried attempts and exhausted requests a set of cases drew.
#[derive(Default)]
struct Disturbance {
    retries: u64,
    failures: u64,
}

/// Deploys `plan` under `cfg` and returns the hash of what `serve`
/// reports on the deployment.
fn served<R: Debug>(
    g: &LayerGraph,
    plan: &ExecutionPlan,
    cfg: AmpsConfig,
    serve: impl FnOnce(&Coordinator, &mut Platform, &DagDeployment) -> R,
) -> u64 {
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, g, plan).unwrap();
    fnv(&serve(&coord, &mut platform, &dep))
}

/// Hashes of every chain serving entry point for one model and fault mode,
/// as `(case, hash)` pairs, plus the retries and failures the runs drew
/// (to prove the faults reached both paths). The faulty mode injects
/// crash/timeout/cold-start faults at 5% plus a 5%-flaky store with one
/// retry — enough that some requests retry and a few exhaust the budget.
fn chain_cases(
    g: &LayerGraph,
    plan: &ExecutionPlan,
    faulty: bool,
) -> (Vec<(String, u64)>, Disturbance) {
    let mut base = AmpsConfig::default().with_serve_threads(2);
    if faulty {
        base = base.with_retries(1);
        base.faults = FaultPlan::uniform(0.05, 41);
        base.store = StoreKind::flaky_s3(0.05);
    }
    let mut out = Vec::new();
    let mut seen = Disturbance::default();

    // One request at a time on one platform: cold, warm, and a later one.
    let h = served(g, plan, base.clone(), |coord, platform, dep| {
        let jobs: Vec<_> = [0.0, 0.0, 50.0]
            .into_iter()
            .enumerate()
            .map(|(i, t0)| coord.serve_one_dag(platform, dep, t0, &format!("g{i}")))
            .collect();
        for r in &jobs {
            match r {
                Ok(j) => seen.retries += j.retries.len() as u64,
                Err(_) => seen.failures += 1,
            }
        }
        (jobs, platform.settle_storage(1000.0), platform.total_cost())
    });
    out.push(("single_requests".to_string(), h));

    // Closed-loop batches.
    for lanes in [1, 8] {
        let cfg = base.clone().with_serve_lanes(lanes);
        let h = served(g, plan, cfg, |coord, platform, dep| {
            let b = coord.serve_parallel(platform, dep, 12, 0.0);
            seen.failures += b.failed() as u64;
            seen.retries += b.jobs.iter().map(|j| j.retries.len() as u64).sum::<u64>();
            (b, platform.total_cost(), platform.invocation_count())
        });
        out.push((format!("serve_parallel/lanes={lanes}"), h));
    }
    let h = served(g, plan, base.clone(), |coord, platform, dep| {
        let b = coord.serve_sequential(platform, dep, 6, 0.0);
        (b, platform.total_cost())
    });
    out.push(("serve_sequential".to_string(), h));
    let piped = base.clone().with_pipeline(2);
    let h = served(g, plan, piped, |coord, platform, dep| {
        let p = coord.serve_pipelined(platform, dep, 12, 0.0);
        (p, platform.total_cost())
    });
    out.push(("serve_pipelined".to_string(), h));

    // Open-loop traces on the sharded engine, scale-out and pipelined.
    let poisson = LoadSpec::poisson(4.0, 48, 5).arrivals();
    let heavy = heavy_tail_arrivals();
    for (arr_name, arrivals) in [("poisson", &poisson), ("heavy_tail", &heavy)] {
        for depth in [0usize, 2] {
            let mut cfg = base.clone().with_serve_lanes(8);
            cfg.pipeline_depth = depth;
            let h = served(g, plan, cfg, |coord, platform, dep| {
                let t = coord.serve_trace_dag(platform, dep, arrivals);
                seen.failures += t.failures as u64;
                seen.retries += t.requests.iter().map(|r| u64::from(r.retries)).sum::<u64>();
                let books = (platform.total_cost(), platform.invocation_count());
                (trace_hashed(t), books)
            });
            out.push((format!("trace/{arr_name}/depth={depth}"), h));
        }
    }

    // The load generator over the same plan.
    let poisson = LoadSpec::poisson(4.0, 48, 9);
    let bursty = LoadSpec::poisson(3.0, 48, 9).with_shape(ArrivalShape::bursty());
    for (load_name, load) in [("poisson", poisson), ("bursty", bursty)] {
        for depth in [0usize, 2] {
            let mut cfg = base.clone().with_serve_lanes(4);
            cfg.pipeline_depth = depth;
            let r = run_open_loop(g, plan, &cfg, &load).unwrap();
            out.push((
                format!("run_open_loop/{load_name}/depth={depth}"),
                fnv(&load_hashed(r)),
            ));
        }
    }
    let free = plan.predicted_time_s;
    let adaptive = AdaptiveSpec::new(8, vec![free * 1.05, free * 4.0]);
    let load = LoadSpec::poisson(2.0, 48, 33).with_shape(ArrivalShape::flash_crowd());
    let r = run_adaptive_loop(g, &base.with_serve_lanes(4), &load, &adaptive).unwrap();
    out.push((
        "run_adaptive_loop/flash_crowd".to_string(),
        fnv(&load_hashed(r)),
    ));
    (out, seen)
}

/// The optimizer's plan for `g` at the default configuration.
fn optimized(g: &LayerGraph) -> ExecutionPlan {
    Optimizer::new(AmpsConfig::default())
        .optimize(g)
        .unwrap()
        .plan
}

/// Checks every case of `plan` against `golden`, one `case clean faulty`
/// line of hex hashes per case, and returns what the faulty cases drew.
fn check_model(g: &LayerGraph, plan: &ExecutionPlan, golden: &str) -> Disturbance {
    let (clean, quiet) = chain_cases(g, plan, false);
    assert_eq!(
        quiet.retries + quiet.failures,
        0,
        "{}: clean run retried",
        g.name
    );
    let (faulty, seen) = chain_cases(g, plan, true);
    let table: String = clean
        .iter()
        .zip(&faulty)
        .map(|((case, a), (_, b))| format!("    {case:<30} {a:016x} {b:016x}\n"))
        .collect();
    let words = |t: &str| t.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    assert!(
        words(&table) == words(golden),
        "{}: golden hashes moved; actual:\n{table}",
        g.name
    );
    seen
}

/// The faults must reach both the retry and the exhausted-budget paths.
fn assert_disturbed(name: &str, seen: &Disturbance) {
    assert!(seen.retries > 0, "{name}: faults caused no retry");
    assert!(seen.failures > 0, "{name}: no request exhausted its budget");
}

#[test]
fn mobilenet_chain_reports_match_golden_hashes() {
    // The optimizer picks one lambda for MobileNet; the 3-stage
    // bucket-scan cut adds a chain with checkpoint objects.
    let g = zoo::mobilenet_v1();
    let plan = optimized(&g);
    assert_eq!(plan.num_lambdas(), 1);
    let one = check_model(&g, &plan, MOBILENET);
    let staged = ampsinf_core::baselines::b4_bucket_scan(&g, &AmpsConfig::default(), 3).unwrap();
    assert_eq!(staged.num_lambdas(), 3);
    let three = check_model(&g, &staged, MOBILENET_3_STAGES);
    let seen = Disturbance {
        retries: one.retries + three.retries,
        failures: one.failures + three.failures,
    };
    assert_disturbed("mobilenet", &seen);
}

#[test]
fn resnet50_chain_reports_match_golden_hashes() {
    let g = zoo::resnet50();
    let plan = optimized(&g);
    assert!(plan.num_lambdas() >= 2, "need a multi-stage chain: {plan}");
    assert_disturbed("resnet50", &check_model(&g, &plan, RESNET50));
}

#[test]
fn inception_v3_chain_reports_match_golden_hashes() {
    let g = zoo::inception_v3();
    let plan = optimized(&g);
    assert!(plan.num_lambdas() >= 2, "need a multi-stage chain: {plan}");
    assert_disturbed("inception_v3", &check_model(&g, &plan, INCEPTION_V3));
}

const MOBILENET: &str = "
    single_requests                085053e145f2d47f 085053e145f2d47f
    serve_parallel/lanes=1         aaee79ea8811ca84 81546b9d5c0a597d
    serve_parallel/lanes=8         aaee79ea8811ca84 f5e06202ac895c8b
    serve_sequential               41fb6bfc4ab7f011 41fb6bfc4ab7f011
    serve_pipelined                5eb0c57684e161c7 5752858f17fc0415
    trace/poisson/depth=0          5f08cb81f757b628 e1cc5a890eb8f43d
    trace/poisson/depth=2          8ec9afd1b21bafd9 aa153af7d6163d81
    trace/heavy_tail/depth=0       f10dcc13b3b2f672 877fd6d63bc0fbb3
    trace/heavy_tail/depth=2       9d88f242073ee3fe 11e338d9db2ff941
    run_open_loop/poisson/depth=0  636d79d8449f0519 f9d7a098eedd5979
    run_open_loop/poisson/depth=2  bac7c0731ec595a1 3ded286b2883f916
    run_open_loop/bursty/depth=0   d2b67ee1e1c661d9 d4ee2c98d4e3fea5
    run_open_loop/bursty/depth=2   9fa13a8a933638f7 f950d866ad06d39e
    run_adaptive_loop/flash_crowd  ea6922e4e5ff4136 885694a713ea6304
";

const MOBILENET_3_STAGES: &str = "
    single_requests                428405d66850c4f3 e0a1f2dc344f8b6d
    serve_parallel/lanes=1         4f8f681ca102b65b b17c5e8fb658a8c7
    serve_parallel/lanes=8         4f8f681ca102b65b 9d6e4afbf6bffb31
    serve_sequential               d01110cbb18bf2bb 7b111210c71eb2ad
    serve_pipelined                4518d237cd9683f4 4f2aad53dfc11589
    trace/poisson/depth=0          07a7f73e87f95d69 98f5a61dec292445
    trace/poisson/depth=2          6bd784a0fe392a23 d9de0fdabb4215ee
    trace/heavy_tail/depth=0       e0f7856d60b83a3c b147d80a62a80094
    trace/heavy_tail/depth=2       62e5cbfe63a22900 99e79d24aec3078d
    run_open_loop/poisson/depth=0  c5a30856e1e43ad7 72798735194400b7
    run_open_loop/poisson/depth=2  f5ff6839a8c6e838 6d1a4bd0d455e65e
    run_open_loop/bursty/depth=0   9a1174fd52fb8676 b5fe77bf88560597
    run_open_loop/bursty/depth=2   f58b3da689207725 b8d7e72aeee84fb2
    run_adaptive_loop/flash_crowd  3345f2c1c4917110 7aab96efc60b3584
";

const RESNET50: &str = "
    single_requests                f58cbfd3f6b55d40 c9ddd10785f22f92
    serve_parallel/lanes=1         e77b4eac129c0122 371dce3ed49f304d
    serve_parallel/lanes=8         22795e036adb4cfa 7da8b6f43505d367
    serve_sequential               7737377ffb71dd9d 875959817ed12014
    serve_pipelined                5e570ad990645173 58e73a6c9be4da05
    trace/poisson/depth=0          f4640fb0fc4b314f ba6190f0c6925637
    trace/poisson/depth=2          b2e41ef0c517f591 035a8f9b2e8597d8
    trace/heavy_tail/depth=0       5d1e052721f3fc33 f7ff3a2928828807
    trace/heavy_tail/depth=2       e42f38aa7663e249 870e8c102ff4f13b
    run_open_loop/poisson/depth=0  0c302d9b3dd859b9 b184aa96730ec4fb
    run_open_loop/poisson/depth=2  869efaad55c89ca2 6594a5b3d218cd2b
    run_open_loop/bursty/depth=0   95e90f92b2f9af99 982527958b1e13a5
    run_open_loop/bursty/depth=2   7a650de85e0f62f9 6d9128453b0cb52c
    run_adaptive_loop/flash_crowd  4e7e78132f51607b 898bd243de7b5c3f
";

const INCEPTION_V3: &str = "
    single_requests                d74b7ef7ba778630 c0caf011a54d6bcb
    serve_parallel/lanes=1         a4f12e05e273a739 3d62f2a8c66dc9b3
    serve_parallel/lanes=8         a4f12e05e273a739 f71eda8201270589
    serve_sequential               8ff578ce20870be0 0ebc035f9b32f956
    serve_pipelined                aa8aaa89ba8e0c00 1dd1ca75edb5eb5c
    trace/poisson/depth=0          a2f95baab2e70915 ef7eaf0da016268a
    trace/poisson/depth=2          76ab5e3d5f13d3f6 7a418b6b7338c734
    trace/heavy_tail/depth=0       e8b08b2789035333 7f4db1189db90ec4
    trace/heavy_tail/depth=2       07292c44a7f3b64f 819edeae3ec80197
    run_open_loop/poisson/depth=0  672958d2ed3da84a 988e26f1adc4d56b
    run_open_loop/poisson/depth=2  4880bb0b7d53d886 1761b0172613e685
    run_open_loop/bursty/depth=0   4debb351eadb084d 50333b904bc86dd5
    run_open_loop/bursty/depth=2   d10b6f7a344a8af5 4b3b9124a09c5967
    run_adaptive_loop/flash_crowd  d91df162fea5d4ce 550492b8e4310524
";
