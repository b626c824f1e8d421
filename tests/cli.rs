//! Smoke tests for the `ampsinf` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ampsinf"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn models_lists_zoo() {
    let (stdout, _, ok) = run(&["models"]);
    assert!(ok);
    for name in [
        "mobilenet",
        "resnet50",
        "inception_v3",
        "xception",
        "bert_base",
    ] {
        assert!(stdout.contains(name), "missing {name}:\n{stdout}");
    }
    assert!(stdout.contains("25636712")); // ResNet50 params, exact
}

#[test]
fn summary_renders() {
    let (stdout, _, ok) = run(&["summary", "mobilenet"]);
    assert!(ok);
    assert!(stdout.contains("Total params: 4253864"));
    assert!(stdout.contains("conv_dw_1 (DepthwiseConv2D)"));
}

#[test]
fn plan_mobilenet_and_json_output() {
    let dir = std::env::temp_dir().join("ampsinf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("plan.json");
    let json_str = json.to_str().unwrap();
    let (stdout, stderr, ok) = run(&["plan", "mobilenet", "--json", json_str]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("lambda(s)"), "{stdout}");
    assert!(stdout.contains("exhaustive optimum"), "{stdout}");
    let plan =
        amps_inf::core::ExecutionPlan::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(plan.model, "mobilenet");
    assert!(plan.num_lambdas() >= 1);
}

#[test]
fn plan_with_quantization() {
    let (stdout, _, ok) = run(&["plan", "bert_base", "--quantize", "1"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("quantized weights to 8 bits"));
    assert!(stdout.contains("lambda(s)"));
}

#[test]
fn serve_runs_end_to_end() {
    let (stdout, stderr, ok) = run(&["serve", "mobilenet", "--images", "2"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("2 image(s)"), "{stdout}");
    assert!(stdout.contains('$'));
}

#[test]
fn verbose_chain_load_prints_one_node_row_per_partition() {
    // A chain serves as a width-1 DAG, so `--verbose` reports per-node
    // stats for it too; without `--verbose` the table stays off.
    let args = ["serve", "resnet50", "--requests", "40", "--rate", "5"];
    let (quiet, _, ok) = run(&args);
    assert!(ok && !quiet.contains("nodes ("), "{quiet}");
    let (stdout, stderr, ok) = run(&[&args[..], &["--verbose"]].concat());
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("nodes (scale-out on demand"), "{stdout}");
    // ResNet-50 plans two partitions: L0..L167 and L168..L176.
    assert!(
        stdout.contains("L0..L167") && stdout.contains("L168..L176"),
        "{stdout}"
    );
}

#[test]
fn unknown_model_fails_cleanly() {
    let (_, stderr, ok) = run(&["plan", "alexnet-9000"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
}

#[test]
fn bad_flag_value_fails_cleanly() {
    let (_, stderr, ok) = run(&["plan", "mobilenet", "--slo", "banana"]);
    assert!(!ok);
    assert!(stderr.contains("bad --slo"));
}

#[test]
fn no_args_prints_usage() {
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn model_file_round_trip_through_cli() {
    // Serialize a zoo model to a file and plan from the file.
    let g = amps_inf::model::zoo::tiny_cnn();
    let dir = std::env::temp_dir().join("ampsinf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.json");
    std::fs::write(&path, amps_inf::model::serialize::to_json(&g)).unwrap();
    let (stdout, stderr, ok) = run(&["plan", path.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("tiny_cnn"));
}

#[test]
fn images_flag_rejects_garbage() {
    // Regression: malformed --images used to silently fall back to 1.
    for bad in ["banana", "0", "-3", "1.5"] {
        let (_, stderr, ok) = run(&["serve", "mobilenet", "--images", bad]);
        assert!(!ok, "--images {bad} should fail");
        assert!(stderr.contains("bad --images"), "{stderr}");
    }
}

#[test]
fn sweep_prints_frontier_table() {
    let (stdout, stderr, ok) = run(&[
        "sweep",
        "mobilenet",
        "--slo-from",
        "2",
        "--slo-to",
        "20",
        "--points",
        "4",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("sweep: 4 point(s)"), "{stdout}");
    assert!(
        stdout.contains("pareto") || stdout.contains("knee"),
        "{stdout}"
    );
    assert!(stdout.contains("cache hits"), "{stdout}");
    assert!(stdout.contains("bound-seeded"), "{stdout}");
}

#[test]
fn dag_sweep_prints_chain_vs_dag_table() {
    let (stdout, stderr, ok) = run(&[
        "sweep",
        "inception_v3",
        "--dag",
        "--slo-from",
        "22",
        "--slo-to",
        "40",
        "--points",
        "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("dag sweep: 3 point(s)"), "{stdout}");
    assert!(stdout.contains("chain($)"), "{stdout}");
    assert!(
        stdout.contains("pareto") || stdout.contains("knee"),
        "{stdout}"
    );
    assert!(stdout.contains("dag memos:"), "{stdout}");
}

#[test]
fn dag_sweep_shares_grid_validation_with_chain_sweep() {
    let (_, stderr, ok) = run(&["sweep", "inception_v3", "--dag"]);
    assert!(!ok);
    assert!(stderr.contains("requires --slo-from"), "{stderr}");
}

#[test]
fn sweep_requires_grid_flags() {
    let (_, stderr, ok) = run(&["sweep", "mobilenet"]);
    assert!(!ok);
    assert!(stderr.contains("requires --slo-from"), "{stderr}");
    let (_, stderr, ok) = run(&["sweep", "mobilenet", "--slo-from", "2", "--slo-to", "20"]);
    assert!(!ok);
    assert!(stderr.contains("requires --points"), "{stderr}");
}

#[test]
fn sweep_rejects_bad_grid_values() {
    let (_, stderr, ok) = run(&[
        "sweep",
        "mobilenet",
        "--slo-from",
        "20",
        "--slo-to",
        "2",
        "--points",
        "4",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad --slo-to"), "{stderr}");
    let (_, stderr, ok) = run(&[
        "sweep",
        "mobilenet",
        "--slo-from",
        "2",
        "--slo-to",
        "20",
        "--points",
        "4",
        "--batches",
        "1,zero",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad --batches"), "{stderr}");
}

/// Every `(command line, flag)` case must exit 1 with an `error:` line
/// that names `flag`, and never reach a panic.
fn assert_rejected(cases: &[(&str, &str)]) {
    for (line, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ampsinf"))
            .args(line.split_whitespace())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let code = out.status.code();
        assert_eq!(code, Some(1), "`{line}` should exit 1; stderr: {stderr}");
        assert!(stderr.starts_with("error:"), "`{line}`: {stderr}");
        assert!(
            stderr.contains(flag),
            "`{line}` should name {flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "`{line}` panicked: {stderr}");
    }
}

#[test]
fn out_of_range_values_are_rejected_before_they_reach_the_library() {
    assert_rejected(&[
        ("plan mobilenet --quantize 0", "--quantize"),
        ("plan mobilenet --quantize 9", "--quantize"),
        ("plan mobilenet --batch 0", "--batch"),
        ("serve mobilenet --batch 0", "--batch"),
        ("plan mobilenet --tolerance -1", "--tolerance"),
        ("plan mobilenet --tolerance nan", "--tolerance"),
        ("plan mobilenet --slo -5", "--slo"),
        ("plan mobilenet --slo nan", "--slo"),
        ("plan mobilenet --slo inf", "--slo"),
        ("serve mobilenet --backoff -1", "--backoff"),
        ("serve mobilenet --backoff nan", "--backoff"),
        ("serve mobilenet --inject-faults 1.5", "--inject-faults"),
        ("serve mobilenet --flaky-store 1", "--flaky-store"),
        ("serve mobilenet --retries -1", "--retries"),
        ("serve mobilenet --requests 5 --rate inf", "--rate"),
        ("serve mobilenet --requests 5 --lanes 0", "--lanes"),
        (
            "serve mobilenet --requests 5 --policy keepalive:-1",
            "--policy",
        ),
        ("serve mobilenet --requests 5 --shape square", "--shape"),
        (
            "sweep mobilenet --slo-from 2 --slo-to 20 --points 0",
            "--points",
        ),
        ("plan mobilenet --threads 257", "--threads"),
        ("plan mobilenet --threads 100000", "--threads"),
        (
            "sweep mobilenet --slo-from 2 --slo-to 20 --points 4 --threads 257",
            "--threads",
        ),
        (
            "sweep mobilenet --slo-from 2 --slo-to 20 --points 4 --threads 100000",
            "--threads",
        ),
        ("serve mobilenet --threads 257", "--threads"),
        ("serve mobilenet --threads 100000", "--threads"),
        ("plan mobilenet --batch 4097", "--batch"),
        ("plan mobilenet --batch 100000000000", "--batch"),
        ("serve mobilenet --batch 4097", "--batch"),
        (
            "sweep mobilenet --slo-from 2 --slo-to 20 --points 4 --batches 1,4097",
            "--batches",
        ),
        (
            "sweep mobilenet --slo-from 2 --slo-to 20 --points 4 --batches 0",
            "--batches",
        ),
        (
            "sweep mobilenet --slo-from 2 --slo-to 20 --points 10001",
            "--points",
        ),
    ]);
}

#[test]
fn silently_ignored_input_is_rejected() {
    let sweep = "sweep mobilenet --slo-from 2 --slo-to 20 --points 4";
    let (sweep_batch, sweep_pipeline, sweep_faults) = (
        format!("{sweep} --batch 8"),
        format!("{sweep} --pipeline"),
        format!("{sweep} --inject-faults 0.3"),
    );
    assert_rejected(&[
        ("plan mobilenet --sloo 5", "--sloo"),
        ("plan mobilenet --threads", "--threads"),
        ("plan mobilenet --slo --batch 4", "--slo"),
        ("plan mobilenet --slo 5 --slo 50", "--slo"),
        ("plan mobilenet extra", "extra"),
        ("models extra", "extra"),
        ("summary mobilenet --slo 5", "--slo"),
        ("plan mobilenet --images 3", "--images"),
        ("serve mobilenet --quantize 2", "--quantize"),
        ("serve mobilenet --imgaes 3", "--imgaes"),
        ("serve mobilenet --rate 5", "--rate"),
        ("serve mobilenet --requests 20 --images 3", "--images"),
        ("serve mobilenet --requests 20 --parallel", "--parallel"),
        ("serve mobilenet --requests 20 --slo-tiers 5", "--slo-tiers"),
        ("serve mobilenet --requests 20 --adaptive", "--slo-tiers"),
        ("serve mobilenet --pipe-depth 2", "--pipe-depth"),
        ("serve mobilenet --pipeline --parallel", "--parallel"),
        ("serve mobilenet --fault-seed 3", "--fault-seed"),
        ("plan inception_v3 --dag --pipeline", "--dag"),
        (&sweep_batch, "--batch"),
        (&sweep_pipeline, "--pipeline"),
        (&sweep_faults, "--inject-faults"),
    ]);
}

#[test]
fn help_is_generated_per_command() {
    let lists = |stdout: &str, flag: &str| stdout.split_whitespace().any(|w| w == flag);
    for line in ["--help", "help", "plan --help", "summary --help"] {
        let (stdout, stderr, ok) = run(&line.split_whitespace().collect::<Vec<_>>());
        assert!(ok && stdout.starts_with("usage:"), "`{line}`: {stderr}");
        assert!(stderr.is_empty(), "`{line}`: {stderr}");
    }
    for (cmd, listed, absent) in [
        ("plan", "--quantize", "--images"),
        ("serve", "--images", "--quantize"),
        ("sweep", "--batches", "--batch"),
    ] {
        let (stdout, _, ok) = run(&[cmd, "--help"]);
        assert!(ok, "{cmd} --help failed");
        assert!(
            lists(&stdout, listed),
            "{cmd} --help lacks {listed}:\n{stdout}"
        );
        assert!(
            !lists(&stdout, absent),
            "{cmd} --help lists {absent}:\n{stdout}"
        );
    }
}

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    // The reader goes away before the first line is written, as with
    // `ampsinf models | head -1` once `head` has its line.
    let sweep = "sweep mobilenet --slo-from 2 --slo-to 20 --points 4";
    for line in ["models", "--help", sweep] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ampsinf"))
            .args(line.split_whitespace())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "`{line}`: {stderr}");
        assert!(out.status.success(), "`{line}`: {stderr}");
    }
}

#[test]
fn every_flag_the_docs_use_is_in_help() {
    // Cargo's own flags appear in the docs' build and test commands.
    const CARGO: [&str; 7] = [
        "--release",
        "--bin",
        "--example",
        "--test",
        "--bench",
        "--workspace",
        "--manifest-path",
    ];
    let (help, _, ok) = run(&["--help"]);
    assert!(ok);
    let helped: Vec<&str> = help.split_whitespace().collect();
    for doc in ["README.md", ".claude/skills/verify/SKILL.md"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
        let text = std::fs::read_to_string(path).unwrap();
        for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            let Some(name) = word.strip_prefix("--") else {
                continue;
            };
            if !name.starts_with(|c: char| c.is_ascii_lowercase()) || CARGO.contains(&word) {
                continue;
            }
            assert!(
                helped.contains(&word),
                "{doc} uses {word}, which --help lacks"
            );
        }
    }
}
