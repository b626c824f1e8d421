//! Batch serving (paper §5.4, Fig. 13) on the one serving engine: ten
//! batches of ten images served sequentially, in parallel and through
//! depth-1 pipeline stations, each a request of a batch-10 plan deployed
//! at the batch it was planned for.
//!
//! `batch_modes_match_executor_golden` pins every mode, and the BATCH
//! comparator, to the `(deploy_s, completion_s, dollars)` the former
//! dedicated batched-chain executors produced; the remaining tests pin
//! the execution modes' shapes.

use ampsinf_core::{AmpsConfig, Coordinator, ExecutionPlan, Optimizer};
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_serving::run_batch_baseline;

/// How a closed batch of requests runs on the engine.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// One request after another (AMPS-Inf-Seq).
    Sequential,
    /// Every request at t = 0 (AMPS-Inf's parallel mode).
    Parallel,
    /// One station per node: request `k + 1` enters a node as soon as
    /// request `k` leaves it.
    Pipelined,
}

/// The plan `g` gets at `batch`, and the config that planned it.
fn planned(g: &LayerGraph, batch: u64) -> (ExecutionPlan, AmpsConfig) {
    let cfg = AmpsConfig::default().with_batch(batch);
    (Optimizer::new(cfg.clone()).optimize(g).unwrap().plan, cfg)
}

/// `(deploy_s, completion_s, dollars)` of `requests` requests of `plan`
/// served in `mode` at `cfg` on a fresh deployment, with storage settled
/// at completion.
fn serve(
    g: &LayerGraph,
    plan: &ExecutionPlan,
    cfg: &AmpsConfig,
    mode: Mode,
    requests: usize,
) -> (f64, f64, f64) {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, g, plan).unwrap();
    let (completion, dollars) = match mode {
        Mode::Sequential | Mode::Parallel => {
            let b = if matches!(mode, Mode::Sequential) {
                coord.serve_sequential(&mut platform, &dep, requests, 0.0)
            } else {
                coord.serve_parallel(&mut platform, &dep, requests, 0.0)
            };
            assert_eq!(b.failed(), 0);
            (b.completion_s, b.dollars)
        }
        Mode::Pipelined => {
            let p = coord.serve_pipelined(&mut platform, &dep, requests, 0.0);
            assert_eq!(p.failed, 0);
            (p.completion_s, p.dollars)
        }
    };
    (
        dep.deploy_s,
        completion,
        dollars + platform.settle_storage(completion),
    )
}

#[test]
fn batch_modes_match_executor_golden() {
    // Recorded from the dedicated batched-chain executors (sequential,
    // parallel, pipelined) and the BATCH comparator, ten batches of ten
    // images on each model's batch-10 plan. The engine sums dollars per
    // request and sequential completion from request latencies, yet every
    // value comes out bit for bit.
    let golden = [
        (
            "mobilenet",
            Mode::Sequential,
            (0.9516008, 86.86200169333335, 0.002536588402500001),
        ),
        (
            "mobilenet",
            Mode::Parallel,
            (0.9516008, 12.199356073333332, 0.0035603404500000007),
        ),
        (
            "mobilenet",
            Mode::Pipelined,
            (0.9516008, 86.86200169333335, 0.002536588402500001),
        ),
        (
            "resnet50",
            Mode::Sequential,
            (1.990624, 598.8764915960061, 0.017364278742514304),
        ),
        (
            "resnet50",
            Mode::Parallel,
            (1.990624, 72.97592918684568, 0.020363256183863237),
        ),
        (
            "resnet50",
            Mode::Pipelined,
            (1.990624, 486.2925694413395, 0.01736425984884286),
        ),
    ];
    for (name, mode, want) in golden {
        let g = zoo::by_name(name).unwrap();
        let (plan, cfg) = planned(&g, 10);
        let got = serve(&g, &plan, &cfg, mode, 10);
        for (what, a, b) in [
            ("deploy_s", got.0, want.0),
            ("completion_s", got.1, want.1),
            ("dollars", got.2, want.2),
        ] {
            assert_eq!(a, b, "{name} {mode:?} {what}");
        }
    }
    let cfg = AmpsConfig::default().with_batch(10);
    let batch = run_batch_baseline(&zoo::mobilenet_v1(), &cfg, 2048, 10, 10).unwrap();
    assert_eq!(batch.completion_s, 121.99356073333333);
    assert_eq!(batch.dollars, 0.0040686748000000016);
    assert_eq!(batch.invocations, 10);
    let err = run_batch_baseline(&zoo::resnet50(), &cfg, 2048, 10, 10).unwrap_err();
    assert_eq!(err, "package 267.8 MB exceeds the 250 MB deployment limit");
}

#[test]
fn batching_amortizes_cost_per_image() {
    let g = zoo::mobilenet_v1();
    let (plan1, cfg1) = planned(&g, 1);
    let (plan10, cfg10) = planned(&g, 10);
    let one = serve(&g, &plan1, &cfg1, Mode::Sequential, 1);
    let ten = serve(&g, &plan10, &cfg10, Mode::Sequential, 1);
    let per_image_one = one.2;
    let per_image_ten = ten.2 / 10.0;
    assert!(
        per_image_ten < per_image_one,
        "batched {per_image_ten} vs single {per_image_one}"
    );
}

#[test]
fn parallel_batches_finish_faster_than_sequential() {
    // The Fig. 13 effect: 42.6 s parallel vs 231 s sequential.
    let g = zoo::mobilenet_v1();
    let (plan, cfg) = planned(&g, 10);
    let seq = serve(&g, &plan, &cfg, Mode::Sequential, 10);
    let par = serve(&g, &plan, &cfg, Mode::Parallel, 10);
    assert!(par.1 < seq.1 * 0.5);
    // Costs stay in the same ballpark (same total work ± warm starts).
    assert!(par.2 < seq.2 * 3.0);
}

#[test]
fn pipelining_beats_sequential_on_multi_partition_plans() {
    // With ≥2 partitions, overlapping batches across stages must cut
    // the makespan versus strictly sequential batches. ResNet50 plans
    // always span several partitions (deployment limit).
    let g = zoo::resnet50();
    let (plan, cfg) = planned(&g, 10);
    assert!(plan.num_lambdas() >= 2);
    let seq = serve(&g, &plan, &cfg, Mode::Sequential, 8);
    let pipe = serve(&g, &plan, &cfg, Mode::Pipelined, 8);
    assert!(pipe.1 < seq.1, "pipe {} vs seq {}", pipe.1, seq.1);
    // Same work, same-ish dollars.
    assert!((pipe.2 - seq.2).abs() < seq.2 * 0.2);
}

#[test]
fn pipeline_throughput_bounded_by_slowest_stage() {
    let g = zoo::resnet50();
    let (plan, cfg) = planned(&g, 10);
    assert!(plan.num_lambdas() >= 2);
    let few = serve(&g, &plan, &cfg, Mode::Pipelined, 2);
    let many = serve(&g, &plan, &cfg, Mode::Pipelined, 10);
    // Adding 8 batches costs ~8 bottleneck periods, far less than 8
    // full chain traversals.
    let marginal = (many.1 - few.1) / 8.0;
    let chain = few.1 / 2.0; // ≈ one cold chain
    assert!(marginal < chain, "marginal {marginal} vs chain {chain}");
}

#[test]
fn sequential_batches_warm_up() {
    let g = zoo::mobilenet_v1();
    let (plan, cfg) = planned(&g, 5);
    let two = serve(&g, &plan, &cfg, Mode::Sequential, 2);
    let one = serve(&g, &plan, &cfg, Mode::Sequential, 1);
    // Second batch rides warm containers: far less than 2× duration.
    assert!(two.1 < one.1 * 1.9);
}
