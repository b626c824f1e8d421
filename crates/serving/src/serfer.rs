//! SerFer \[42\] — the "state-of-the-art" comparison of the paper's Fig. 11.
//!
//! SerFer drives partitioned inference with AWS Step Functions and an EC2
//! driver, and requires manual model splitting. The paper gives it the
//! *same* partitions and memory configuration as AMPS-Inf; the differences
//! are (a) the Step-Function state machine — each transition "takes nearly
//! 15 s" (footnote 2) — and (b) the driver instance. The workflow runs on
//! the real [`StepFunction`] substrate in `ampsinf-faas`.

use ampsinf_core::plan::ExecutionPlan;
use ampsinf_core::{AmpsConfig, Coordinator};
use ampsinf_faas::runtime::PartitionWork;
use ampsinf_faas::vm::{VmInstance, VmType};
use ampsinf_faas::{StepFunction, StepState};
use ampsinf_model::LayerGraph;

/// Result of a SerFer run.
#[derive(Debug, Clone, Copy)]
pub struct SerferReport {
    /// End-to-end completion (workflow + driver overheads).
    pub completion_s: f64,
    /// Total dollars (lambdas + transitions + driver instance).
    pub dollars: f64,
    /// Seconds spent in state transitions alone.
    pub transition_s: f64,
    /// Workflow state transitions.
    pub transitions: usize,
}

/// Fixed driver-side overhead: SerFer's driver splits the input image and
/// stages it before starting the workflow.
const DRIVER_SPLIT_OVERHEAD_S: f64 = 2.0;

/// Runs SerFer with AMPS-Inf's plan (the paper's setup for Fig. 11).
pub fn run_serfer(
    graph: &LayerGraph,
    plan: &ExecutionPlan,
    cfg: &AmpsConfig,
) -> Result<SerferReport, String> {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord
        .deploy(&mut platform, graph, plan)
        .map_err(|e| e.to_string())?;

    // Build the state machine: one Task state per partition, chained
    // through storage exactly like AMPS-Inf's coordinator.
    let k = dep.functions.len();
    let states: Vec<StepState> = (0..k)
        .map(|i| {
            let input_key = (i > 0).then(|| platform.store.intern(&format!("serfer/b{}", i - 1)));
            let output_key = (i + 1 < k).then(|| platform.store.intern(&format!("serfer/b{i}")));
            let part = &plan.partitions[i];
            let work = PartitionWork::from_segment(graph, part.start, part.end);
            StepState {
                name: format!("partition{i}"),
                function: dep.functions[i],
                work: work.invocation(input_key, output_key),
            }
        })
        .collect();
    let sf = StepFunction::standard(format!("serfer-{}", plan.model), states);

    let driver = VmInstance::start(VmType::ec2_driver(), 0.0);
    let exec = sf
        .execute(&mut platform, DRIVER_SPLIT_OVERHEAD_S)
        .map_err(|e| e.to_string())?;
    let mut dollars = exec.dollars + platform.settle_storage(exec.end);
    let completion_s = exec.end;
    let mut ledger = ampsinf_faas::CostLedger::new();
    dollars += driver.stop(completion_s, &mut ledger);

    Ok(SerferReport {
        completion_s,
        dollars,
        transition_s: exec.transition_time_s,
        transitions: exec.transitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_core::Optimizer;
    use ampsinf_model::zoo;

    #[test]
    fn serfer_slower_and_pricier_than_amps() {
        // Fig. 11: AMPS-Inf beats SerFer on both axes.
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let serfer = run_serfer(&g, &plan, &cfg).unwrap();

        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let amps = coord
            .serve_one_dag(&mut platform, &dep, 0.0, "amps")
            .unwrap();
        let amps_dollars = amps.dollars + platform.settle_storage(amps.inference_s);

        assert!(
            serfer.completion_s > amps.inference_s + serfer.transition_s - 1e-9,
            "serfer {} vs amps {} (+{} transitions)",
            serfer.completion_s,
            amps.inference_s,
            serfer.transition_s
        );
        assert!(serfer.dollars > amps_dollars);
    }

    #[test]
    fn transition_overhead_scales_with_partitions() {
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let r = run_serfer(&g, &plan, &cfg).unwrap();
        assert_eq!(r.transitions, plan.num_lambdas() + 1);
        assert!(
            (r.transition_s
                - r.transitions as f64 * ampsinf_faas::stepfn::DEFAULT_TRANSITION_LATENCY_S)
                .abs()
                < 1e-9
        );
    }
}
