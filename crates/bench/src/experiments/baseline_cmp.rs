//! §5.3 baseline comparison: Fig. 9 (completion times) and Fig. 10 (cost)
//! for AMPS-Inf vs Baselines 1–3 on the three large models.

use crate::Table;
use ampsinf_core::baselines::{b1_random, b2_greedy_max, b3_optimal};
use ampsinf_core::plan::ExecutionPlan;
use ampsinf_core::{AmpsConfig, Coordinator, Optimizer};
use ampsinf_model::zoo;
use ampsinf_model::LayerGraph;

/// Seed for Baseline 1's randomness (fixed for reproducibility).
const B1_SEED: u64 = 2020;

/// Measured (completion seconds, dollars incl. storage settlement) of a
/// plan served once on a fresh platform.
fn measure(g: &LayerGraph, plan: &ExecutionPlan, cfg: &AmpsConfig) -> (f64, f64) {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord
        .deploy(&mut platform, g, plan)
        .expect("deployable plan");
    let job = coord
        .serve_one_dag(&mut platform, &dep, 0.0, "bl")
        .expect("serves");
    let dollars = job.dollars + platform.settle_storage(job.inference_s);
    (job.inference_s, dollars)
}

/// One model's (time, cost) for AMPS and the three baselines.
type ModelRuns = (String, [(f64, f64); 4]);

/// All four systems' (time, cost) per model; computed once — Fig. 9 and
/// Fig. 10 read the same runs, as in the paper.
fn run_all() -> &'static Vec<ModelRuns> {
    static CACHE: std::sync::OnceLock<Vec<ModelRuns>> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| {
        let cfg = AmpsConfig::default();
        let mut out = Vec::new();
        for g in [zoo::resnet50(), zoo::inception_v3(), zoo::xception()] {
            let amps = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
            let b1 = b1_random(&g, &cfg, B1_SEED).expect("b1 feasible");
            let b2 = b2_greedy_max(&g, &cfg).expect("b2 feasible");
            let b3 = b3_optimal(&g, &cfg).expect("b3 feasible");
            out.push((
                g.name.clone(),
                [
                    measure(&g, &amps, &cfg),
                    measure(&g, &b1, &cfg),
                    measure(&g, &b2, &cfg),
                    measure(&g, &b3, &cfg),
                ],
            ));
        }
        out
    })
}

/// Fig. 9: completion times across the four lambda settings.
pub fn fig9() -> Table {
    let mut t = Table::new(
        "fig9",
        "Completion time for one image across lambda settings (s)",
        &["AMPS-Inf", "Baseline 1", "Baseline 2", "Baseline 3"],
    );
    for (name, vals) in run_all().iter() {
        t.row_all(name.clone(), &[vals[0].0, vals[1].0, vals[2].0, vals[3].0]);
    }
    t.notes = "Shape: AMPS-Inf beats B1 and the cost-optimal B3 on completion (paper: \
               ≈4% faster than B3 on ResNet50, ≈9% on Xception) by spending its cost \
               tolerance on larger blocks. Deviation: our B2 (maximum memory everywhere) \
               is the fastest setting at 3–6× the cost — in the paper's measurements B2 \
               came out slightly slower than B1, which our deterministic CPU-share model \
               cannot reproduce (more memory never hurts)."
        .into();
    t
}

/// Fig. 10: total costs across the four lambda settings.
pub fn fig10() -> Table {
    let mut t = Table::new(
        "fig10",
        "Total cost for one image across lambda settings ($)",
        &["AMPS-Inf", "Baseline 1", "Baseline 2", "Baseline 3"],
    );
    for (name, vals) in run_all().iter() {
        t.row_all(name.clone(), &[vals[0].1, vals[1].1, vals[2].1, vals[3].1]);
    }
    t.notes = "Shape: B3 (exhaustive optimum) is the cheapest; AMPS-Inf sits within its \
               cost tolerance of B3 (paper: +9% ResNet50, ≈0% InceptionV3, +14% \
               Xception); B2's max-memory allocation is the most expensive lambda \
               setting (paper: B2 > B1 > AMPS ≥ B3)."
        .into();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_fig10_shapes() {
        let data = run_all();
        for (name, v) in data.iter() {
            let (amps, b1, b2, b3) = (v[0], v[1], v[2], v[3]);
            // Cost ordering: B3 cheapest; AMPS within ~25% of B3; B2 most
            // expensive of the heuristics.
            assert!(b3.1 <= amps.1 + 1e-12, "{name}: b3 not cheapest");
            assert!(
                amps.1 <= b3.1 * 1.25,
                "{name}: amps {} vs b3 {}",
                amps.1,
                b3.1
            );
            assert!(
                amps.1 <= b1.1 && amps.1 <= b2.1,
                "{name}: amps must beat heuristics on cost"
            );
            assert!(
                b2.1 > b3.1 * 1.5,
                "{name}: max-memory B2 should be clearly pricier"
            );
            // Time: AMPS no slower than B3 + dust, and faster than B1.
            assert!(
                amps.0 <= b3.0 * 1.02 + 1e-9,
                "{name}: amps {} vs b3 {}",
                amps.0,
                b3.0
            );
        }
    }
}
