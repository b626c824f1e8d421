//! Quickstart: optimize, deploy and serve ResNet50 — the paper's headline
//! model (98 MB of weights, 267 MB deployment > the 250 MB Lambda limit).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use amps_inf::prelude::*;

fn main() {
    // 1. A pre-trained model. The zoo rebuilds the exact Keras
    //    architecture: 25,636,712 parameters, 177 layers.
    let model = zoo::resnet50();
    println!(
        "model {}: {} layers, {:.1} MB of weights, {:.2} GFLOPs/image",
        model.name,
        model.num_layers(),
        model.weight_bytes() as f64 / 1024.0 / 1024.0,
        model.total_flops() as f64 / 1e9
    );

    // 2. Optimize partitioning + memory provisioning (the paper's MIQP).
    let cfg = AmpsConfig::default();
    let report = Optimizer::new(cfg.clone())
        .optimize(&model)
        .expect("ResNet50 is partitionable");
    println!("\noptimizer: {}", report.plan);
    println!(
        "  searched {} cuts, solved {} MIQPs in {:?}",
        report.cuts_considered, report.miqps_solved, report.solve_time
    );

    // 3. Deploy on the simulated AWS Lambda platform and serve one image.
    let coordinator = Coordinator::new(cfg);
    let mut platform = coordinator.platform();
    let deployment = coordinator
        .deploy(&mut platform, &model, &report.plan)
        .expect("plan satisfies all quotas");
    let job = coordinator
        .serve_one_dag(&mut platform, &deployment, 0.0, "req-0")
        .expect("chain executes");

    println!("\nserved one image:");
    println!("  deployment    {:>8.2} s (once per job)", job.deploy_s);
    println!("  load+import   {:>8.2} s (sum over lambdas)", job.load_s);
    println!(
        "  prediction    {:>8.2} s (sum over lambdas)",
        job.predict_s
    );
    println!("  chain wall    {:>8.2} s", job.inference_s);
    println!("  end-to-end    {:>8.2} s", job.e2e_s);
    println!("  cost          ${:.6}", job.dollars);

    for (i, o) in job.outcomes.iter().enumerate() {
        let p = &report.plan.partitions[i];
        println!(
            "    lambda {i}: layers {:>3}..{:>3} @{:>4} MB  {:>6.2} s  ${:.6}",
            p.start,
            p.end,
            p.memory_mb,
            o.duration(),
            o.dollars
        );
    }

    // 4. Where did the time go? (the paper's Fig. 5/6 decomposition)
    println!(
        "\n{}",
        amps_inf::core::Timeline::of(&report.plan, &job).render(72)
    );
}
