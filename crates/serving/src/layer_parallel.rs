//! Gillis-style intra-partition parallelism.
//!
//! The paper's related work (§6) contrasts AMPS-Inf with Gillis, which
//! "further enables parallelism within a partition": a weight-heavy
//! partition is split *channel-wise* across `w` workers, each holding
//! `1/w` of the weights and producing `1/w` of the outputs; the next stage
//! gathers the slices. This module implements that execution mode as an
//! extension — it is what serves models whose *single largest layer*
//! exceeds the deployment cap (VGG16's 392 MB `fc1` being the §1 poster
//! child), where contiguous chain partitioning is provably infeasible.
//!
//! Trade-off surface: each worker re-reads the full stage input (broadcast)
//! and the next stage pays `w` reads (gather), so parallelism buys
//! deployability and latency at higher transfer volume — the same tension
//! the paper resolves in favour of chains whenever chains are feasible.

use ampsinf_core::AmpsConfig;
use ampsinf_faas::platform::Platform;
use ampsinf_faas::runtime::{PartitionWork, CODE_BYTES, DEPS_BYTES};
use ampsinf_faas::{ObjectKey, MB};
use ampsinf_model::LayerGraph;
use ampsinf_profiler::Profile;

/// One stage of a parallel plan: a contiguous layer segment executed by
/// `workers` weight-sliced lambdas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelStage {
    /// First layer (inclusive).
    pub start: usize,
    /// Last layer (inclusive).
    pub end: usize,
    /// Weight-parallel workers (1 = plain chain stage).
    pub workers: u32,
    /// Memory block per worker.
    pub memory_mb: u32,
}

/// A chain of (possibly parallel) stages covering the model.
#[derive(Debug, Clone)]
pub struct ParallelPlan {
    /// Model name.
    pub model: String,
    /// Stages in execution order.
    pub stages: Vec<ParallelStage>,
}

impl ParallelPlan {
    /// Total lambdas deployed.
    pub fn total_workers(&self) -> usize {
        self.stages.iter().map(|s| s.workers as usize).sum()
    }

    /// Highest per-stage worker count.
    pub fn max_workers(&self) -> u32 {
        self.stages.iter().map(|s| s.workers).max().unwrap_or(1)
    }
}

/// Result of a parallel-plan execution.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRun {
    /// One-off deployment time (parallel uploads).
    pub deploy_s: f64,
    /// Chain wall-clock (stage makespans summed).
    pub inference_s: f64,
    /// Dollars (invocations + storage settlement).
    pub dollars: f64,
}

/// Plans a stage list greedily: pack contiguous chain segments while they
/// fit the platform limits; when even a single layer cannot fit, split it
/// across the smallest worker count that does. Returns `None` only when a
/// layer cannot fit even at `max_workers`.
pub fn plan_with_parallelism(
    graph: &LayerGraph,
    cfg: &AmpsConfig,
    max_workers: u32,
) -> Option<ParallelPlan> {
    let profile = Profile::batched(graph, cfg.batch_size);
    let n = profile.num_layers();
    let deploy_budget = u64::from(cfg.quotas.deploy_limit_mb) * MB;
    let mut stages = Vec::new();
    let mut start = 0usize;
    while start < n {
        // Grow a chain segment as far as the limits allow.
        let mut end = start;
        if segment_fits(&profile, start, start, cfg) {
            while end + 1 < n && segment_fits(&profile, start, end + 1, cfg) {
                end += 1;
            }
            let memory_mb = best_memory(graph, start, end, 1, cfg)?;
            stages.push(ParallelStage {
                start,
                end,
                workers: 1,
                memory_mb,
            });
            start = end + 1;
            continue;
        }
        // Single layer too big: parallelize it with the smallest adequate w.
        let weights = profile.weights(start, start);
        let mut chosen = None;
        for w in 2..=max_workers {
            let slice = weights.div_ceil(u64::from(w));
            if CODE_BYTES + DEPS_BYTES + slice <= deploy_budget {
                if let Some(mem) = best_memory(graph, start, start, w, cfg) {
                    chosen = Some((w, mem));
                    break;
                }
            }
        }
        let (workers, memory_mb) = chosen?;
        stages.push(ParallelStage {
            start,
            end: start,
            workers,
            memory_mb,
        });
        start += 1;
    }
    Some(ParallelPlan {
        model: graph.name.clone(),
        stages,
    })
}

fn segment_fits(profile: &Profile, start: usize, end: usize, cfg: &AmpsConfig) -> bool {
    profile.fits_deployment(start, end, &cfg.quotas)
        && profile.fits_tmp(start, end, &cfg.quotas)
        && profile
            .memory_floor(start, end, &cfg.quotas, &cfg.perf)
            .is_some()
}

/// One of `workers` weight-sliced workers over layers `[start, end]`:
/// the segment with its weights, FLOPs, activations and output divided
/// by `workers` (rounded up). Every worker reads the whole stage input.
fn worker_work(graph: &LayerGraph, start: usize, end: usize, workers: u32) -> PartitionWork {
    let w = u64::from(workers);
    let mut work = PartitionWork::from_segment(graph, start, end);
    let seg = &mut work.seg;
    seg.weight_bytes = seg.weight_bytes.div_ceil(w);
    seg.flops = seg.flops.div_ceil(w);
    seg.activation_bytes = seg.activation_bytes.div_ceil(w);
    seg.output_bytes = seg.output_bytes.div_ceil(w);
    work
}

/// Cheapest memory block for a (possibly sliced) stage: evaluates the
/// per-worker work on a scratch platform across the feasible grid.
fn best_memory(
    graph: &LayerGraph,
    start: usize,
    end: usize,
    workers: u32,
    cfg: &AmpsConfig,
) -> Option<u32> {
    let mut best: Option<(f64, u32)> = None;
    for mem in cfg.quotas.memory_blocks_search_grid() {
        let Some(dollars) = eval_worker(graph, start, end, workers, mem, cfg) else {
            continue;
        };
        if best.is_none_or(|(c, _)| dollars < c) {
            best = Some((dollars, mem));
        }
    }
    best.map(|(_, m)| m)
}

/// Dollars of one worker of a stage at one memory size on a scratch
/// platform; `None` when undeployable/unrunnable.
fn eval_worker(
    graph: &LayerGraph,
    start: usize,
    end: usize,
    workers: u32,
    memory_mb: u32,
    cfg: &AmpsConfig,
) -> Option<f64> {
    let work = worker_work(graph, start, end, workers);
    let batch = cfg.batch_size;
    let mut platform = Platform::new(cfg.quotas, cfg.prices, cfg.perf, cfg.store);
    let name = format!("{}[{start}..{end}]/{workers}", graph.name);
    let (fid, _) = platform.deploy(work.function_spec(name, memory_mb)).ok()?;
    let in_key = platform.store.intern("in");
    let out_key = platform.store.intern("out");
    let input = work.seg.input_bytes * batch;
    let mut scratch = ampsinf_faas::CostLedger::new();
    platform
        .store
        .put("in", input, 0.0, &cfg.prices, &mut scratch)
        .ok()?;
    let reads = if start == 0 {
        vec![]
    } else {
        vec![(in_key, input)]
    };
    let writes = if end + 1 == graph.num_layers() {
        vec![]
    } else {
        vec![(out_key, work.seg.output_bytes * batch)]
    };
    let out = platform
        .invoke(fid, 0.0, &work.batched(batch, &reads, &writes))
        .ok()?;
    Some(out.dollars)
}

/// Deploys and executes a parallel plan for one request.
pub fn run_parallel_plan(
    graph: &LayerGraph,
    plan: &ParallelPlan,
    cfg: &AmpsConfig,
) -> Result<ParallelRun, String> {
    let batch = cfg.batch_size;
    let works: Vec<PartitionWork> = plan
        .stages
        .iter()
        .map(|s| worker_work(graph, s.start, s.end, s.workers))
        .collect();
    let mut platform = Platform::new(cfg.quotas, cfg.prices, cfg.perf, cfg.store);
    // Deploy every worker of every stage.
    let mut fids = Vec::new();
    let mut deploy_s = 0.0f64;
    for (si, s) in plan.stages.iter().enumerate() {
        let mut stage_fids = Vec::new();
        for wi in 0..s.workers {
            let spec = works[si].function_spec(format!("{}-s{si}w{wi}", plan.model), s.memory_mb);
            let (fid, d) = platform.deploy(spec).map_err(|e| e.to_string())?;
            deploy_s = deploy_s.max(d);
            stage_fids.push(fid);
        }
        fids.push(stage_fids);
    }

    // Execute stage by stage; within a stage all workers start together.
    let mut now = 0.0f64;
    let mut dollars = 0.0f64;
    let n = graph.num_layers();
    for (si, s) in plan.stages.iter().enumerate() {
        // Inputs: every slice the previous stage wrote (gather + broadcast).
        let reads: Vec<(ObjectKey, u64)> = if si == 0 {
            vec![]
        } else {
            let slice = works[si - 1].seg.output_bytes * batch;
            (0..plan.stages[si - 1].workers)
                .map(|p| (platform.store.intern(&format!("b{}/{p}", si - 1)), slice))
                .collect()
        };
        let mut stage_end = now;
        for (wi, fid) in fids[si].iter().enumerate() {
            let writes = if s.end + 1 == n {
                vec![]
            } else {
                let key = platform.store.intern(&format!("b{si}/{wi}"));
                vec![(key, works[si].seg.output_bytes * batch)]
            };
            let out = platform
                .invoke(*fid, now, &works[si].batched(batch, &reads, &writes))
                .map_err(|e| e.to_string())?;
            dollars += out.dollars;
            stage_end = stage_end.max(out.end);
        }
        now = stage_end;
    }
    dollars += platform.settle_storage(now);
    Ok(ParallelRun {
        deploy_s,
        inference_s: now,
        dollars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_model::zoo;

    #[test]
    fn vgg16_needs_parallelism_and_gets_it() {
        // VGG16's fc1 (≈392 MB of weights) cannot fit any chain partition:
        // the chain optimizer must refuse, while the parallel planner
        // splits that layer across workers.
        let g = zoo::vgg16();
        let cfg = AmpsConfig::default();
        assert!(ampsinf_core::Optimizer::new(cfg.clone())
            .optimize(&g)
            .is_err());
        let plan = plan_with_parallelism(&g, &cfg, 16).expect("parallelizable");
        assert!(plan.max_workers() >= 2, "fc1 must be sliced: {plan:?}");
        // Every chain-capable stage stays a chain stage.
        let giant_stages = plan.stages.iter().filter(|s| s.workers > 1).count();
        assert!((1..=3).contains(&giant_stages));
    }

    #[test]
    fn vgg16_parallel_plan_executes() {
        let g = zoo::vgg16();
        let cfg = AmpsConfig::default();
        let plan = plan_with_parallelism(&g, &cfg, 16).unwrap();
        let run = run_parallel_plan(&g, &plan, &cfg).expect("executes");
        assert!(run.inference_s > 0.0);
        assert!(run.dollars > 0.0);
    }

    #[test]
    fn chain_models_stay_chains() {
        // Models the chain handles must come out as pure chain stages with
        // workers = 1 everywhere.
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let plan = plan_with_parallelism(&g, &cfg, 8).unwrap();
        assert_eq!(plan.max_workers(), 1);
        let run = run_parallel_plan(&g, &plan, &cfg).unwrap();
        assert!(run.inference_s > 0.0);
    }

    #[test]
    fn worker_count_is_minimal() {
        let g = zoo::vgg16();
        let cfg = AmpsConfig::default();
        let plan = plan_with_parallelism(&g, &cfg, 32).unwrap();
        for s in plan.stages.iter().filter(|s| s.workers > 1) {
            // One fewer worker must not fit the deployment cap.
            let profile = Profile::of(&g);
            let weights = profile.weights(s.start, s.end);
            let smaller = weights.div_ceil(u64::from(s.workers - 1));
            assert!(
                CODE_BYTES + DEPS_BYTES + smaller > u64::from(cfg.quotas.deploy_limit_mb) * MB,
                "stage {s:?} over-parallelized"
            );
        }
    }

    #[test]
    fn insufficient_workers_reported() {
        // A worker cap too small for fc1 → planning fails cleanly.
        let g = zoo::vgg16();
        let cfg = AmpsConfig::default();
        assert!(plan_with_parallelism(&g, &cfg, 2).is_none());
    }
}
