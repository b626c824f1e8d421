//! Batch inference (paper §5.4): serving many images through a
//! partitioned model, sequentially (AMPS-Inf-Seq, the BATCH-comparable
//! mode) and in parallel.
//!
//! ```text
//! cargo run --release --example batch_serving
//! ```

use amps_inf::prelude::*;
use amps_inf::serving::batch_baseline::run_batch_baseline;

fn main() {
    let model = zoo::mobilenet_v1();
    // The paper's Fig. 13 workload: 100 images as 10 batches of 10 —
    // AMPS-Inf plans *for the batch* (the paper's batch configuration used
    // larger blocks: 2048/2176 MB), not for a single image.
    let (batch, batches) = (10u64, 10usize);
    let cfg = AmpsConfig::default().with_batch(batch);
    let plan = Optimizer::new(cfg.clone())
        .optimize(&model)
        .expect("MobileNet optimizes")
        .plan;
    println!("plan (batch-aware): {plan}\n");
    println!(
        "workload: {} images as {} batches of {}\n",
        batch as usize * batches,
        batches,
        batch
    );

    let batch_sys =
        run_batch_baseline(&model, &cfg, 2048, batch, batches).expect("MobileNet fits one lambda");
    // Each request is one batch, served at the batch the plan was made
    // for; the engine's sequential and parallel modes are Fig. 13's pair.
    let coord = Coordinator::new(cfg);
    let (mut p_seq, mut p_par) = (coord.platform(), coord.platform());
    let dep = coord.deploy(&mut p_seq, &model, &plan).unwrap();
    let seq = coord.serve_sequential(&mut p_seq, &dep, batches, 0.0);
    let seq_dollars = seq.dollars + p_seq.settle_storage(seq.completion_s);
    let dep = coord.deploy(&mut p_par, &model, &plan).unwrap();
    let par = coord.serve_parallel(&mut p_par, &dep, batches, 0.0);
    let par_dollars = par.dollars + p_par.settle_storage(par.completion_s);

    println!("{:<22} {:>12} {:>12}", "system", "time (s)", "cost ($)");
    println!(
        "{:<22} {:>12.2} {:>12.5}",
        "BATCH [23] (1 lambda)", batch_sys.completion_s, batch_sys.dollars
    );
    println!(
        "{:<22} {:>12.2} {:>12.5}",
        "AMPS-Inf-Seq", seq.completion_s, seq_dollars
    );
    println!(
        "{:<22} {:>12.2} {:>12.5}",
        "AMPS-Inf (parallel)", par.completion_s, par_dollars
    );

    println!(
        "\nAMPS-Inf-Seq beats BATCH on both axes at the same batching\n\
         policy; parallel invocation then collapses the completion time\n\
         at almost unchanged cost — the paper's Fig. 13 shape."
    );

    // A parallel 10-image batch for the larger models (paper Table 5),
    // planned for the single images it serves.
    let cfg = AmpsConfig::default();
    println!("\nten parallel single-image requests, per model:");
    println!("{:<14} {:>10} {:>12}", "model", "time (s)", "cost ($)");
    for model in [zoo::resnet50(), zoo::inception_v3(), zoo::xception()] {
        let plan = Optimizer::new(cfg.clone()).optimize(&model).unwrap().plan;
        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &model, &plan).unwrap();
        let report = coord.serve_parallel(&mut platform, &dep, 10, 0.0);
        let dollars = report.dollars + platform.settle_storage(report.completion_s);
        println!(
            "{:<14} {:>10.2} {:>12.5}",
            model.name, report.completion_s, dollars
        );
    }
}
