//! Golden stdout hashes for the `ampsinf` CLI.
//!
//! Each line of [`GOLDEN`] reads `hash exit args...`: the test runs
//! `ampsinf args...`, masks the wall-clock and thread-racy fields of stdout, folds it (and
//! the file a `--json` run writes) into one FNV-1a hash, and checks the hash
//! and the exit code against the line. Together the invocations use every
//! flag, and they include every command line of README.md and of the
//! verify notes that `tests/cli.rs` also checks against `--help`. `{tmp}`
//! stands for a scratch directory holding `tiny.json`, a serialized
//! `tiny_cnn`.
//!
//! The constants pin the CLI's output byte for byte: a change to argument
//! handling that moves any of them is a behaviour change, not a refactor.
//! On a mismatch the test prints the whole actual table.

use std::process::Command;

/// 64-bit FNV-1a of `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Prefixes of the planner's stats lines. They carry `{:?}` durations,
/// the thread count picked on this machine, and the hit/miss counters of
/// caches that the planner's threads fill in a racy order.
const STATS: [&str; 7] = [
    "searched ",
    "planned ",
    "columns: ",
    "dag search: ",
    "dag memos: ",
    "solver: ",
    "search: ",
];

/// Words a machine-dependent count stands before in a stats line.
const COUNTED: [&str; 4] = ["thread", "cache", "hit", "miss"];

/// Whether `word` is a `Duration` rendered with `{:?}`, e.g. `1.2ms`.
fn is_duration(word: &str) -> bool {
    ["ns", "µs", "ms", "s"].iter().any(|unit| {
        word.strip_suffix(unit)
            .is_some_and(|n| n.parse::<f64>().is_ok())
    })
}

/// `line` with its durations and machine-dependent counts replaced by `#`
/// when it is one of the [`STATS`] lines.
fn mask_line(line: &str) -> String {
    if !STATS.iter().any(|p| line.trim_start().starts_with(p)) {
        return line.to_string();
    }
    let words: Vec<&str> = line.split(' ').collect();
    words
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let core = w.trim_start_matches('(').trim_end_matches([',', ')', ';']);
            let next = words.get(i + 1).copied().unwrap_or("");
            if is_duration(core) || COUNTED.iter().any(|c| next.starts_with(c)) {
                w.replacen(core, "#", 1)
            } else {
                w.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs one invocation and returns its exit code and the hash of its
/// masked stdout plus the `--json` file it wrote.
fn run(args: &[String], tmp: &str) -> (i32, u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_ampsinf"))
        .args(args)
        .output()
        .expect("binary runs");
    let code = out.status.code().unwrap_or(-1);
    let stdout = String::from_utf8_lossy(&out.stdout).replace(tmp, "{tmp}");
    let mut hashed: String = stdout.lines().map(|l| mask_line(l) + "\n").collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        if code == 0 {
            hashed += &std::fs::read_to_string(&args[i + 1]).expect("--json file written");
        }
    }
    (code, fnv(hashed.as_bytes()))
}

#[test]
fn cli_stdout_matches_golden_hashes() {
    let dir = std::env::temp_dir().join(format!("ampsinf-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = dir.to_str().unwrap().to_string();
    let tiny = amps_inf::model::serialize::to_json(&amps_inf::model::zoo::tiny_cnn());
    std::fs::write(dir.join("tiny.json"), tiny).unwrap();

    let mut table = String::new();
    for line in GOLDEN.lines().filter(|l| !l.trim().is_empty()) {
        let args: Vec<String> = line
            .split_whitespace()
            .skip(2)
            .map(|a| a.replace("{tmp}", &tmp))
            .collect();
        let (code, hash) = run(&args, &tmp);
        let shown: Vec<String> = args.iter().map(|a| a.replace(&tmp, "{tmp}")).collect();
        table += &format!("    {hash:016x} {code} {}\n", shown.join(" "));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let words = |t: &str| t.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    assert!(
        words(&table) == words(GOLDEN),
        "golden CLI hashes moved; actual:\n{table}"
    );
}

#[test]
fn masking_hides_only_wall_clock_fields() {
    assert_eq!(
        mask_line("searched 23 cuts, 1 MIQPs, 1.5ms (2 threads: eval 300µs, miqp 1.2s)"),
        "searched 23 cuts, 1 MIQPs, # (# threads: eval #, miqp #)"
    );
    assert_eq!(
        mask_line("planned 4 point(s) over 96 cut(s) in 12.3ms on 2 thread(s)"),
        "planned 4 point(s) over 96 cut(s) in # on # thread(s)"
    );
    assert_eq!(
        mask_line("dag memos: node evals 1981 hit / 646 miss, spine spans 66 reused / 22 solved"),
        "dag memos: node evals # hit / # miss, spine spans 66 reused / 22 solved"
    );
    let plan = "resnet50: 2 lambda(s) predicted 24.28s / $0.000536";
    assert_eq!(mask_line(plan), plan);
}

const GOLDEN: &str = "
    6f6ce56ec5ea3641 0 models
    475e8daaeba3906e 0 summary resnet50
    cbf29ce484222325 1 plan xception --slo 20 --json {tmp}/xception.json
    8bc4922c4314e265 0 plan bert_base --quantize 2
    ee8921e96e5015cf 0 sweep resnet50 --slo-from 22 --slo-to 36 --points 16
    5c690715e270b1bf 0 serve mobilenet --images 10 --parallel
    18f9d5a332b98bb2 0 sweep resnet50 --slo-from 22 --slo-to 36 --points 8
    5e63b221b4108315 0 plan inception_v3 --dag --batch 64 --slo 636.5
    017a51bc7a69d6bc 0 serve inception_v3 --dag --batch 64 --images 4
    413b43c371169cb8 0 sweep inception_v3 --dag --slo-from 22 --slo-to 40 --points 8 --batches 1,16
    f0778fe7fabb2abb 0 serve inception_v3 --batch 64 --dag --requests 100000 --rate 200 --shape spike --policy prewarm:4 --threads 8 --verbose
    8f32c06cd0def982 0 serve resnet50 --images 5 --parallel --flaky-store 0.3 --inject-faults 0.05 --fault-seed 7 --retries 3 --backoff 0.2
    2343c94f4249f80f 0 serve resnet50 --requests 10000 --rate 200 --shape spike --policy provisioned:4
    47f0a0c9ac83597b 0 serve resnet50 --requests 20000 --rate 100 --shape spike --adaptive --slo-tiers 15,30,60 --epoch 128
    ca200bfbc8bf5373 0 serve resnet50 --requests 1000 --rate 50 --threads 8
    2e7c3f444b943947 0 plan resnet50 --pipeline
    c8ec5ce91644b1ab 0 serve resnet50 --images 100 --pipeline --pipe-depth 2
    a21e34ed5fb0204a 0 serve resnet50 --requests 1000 --rate 50 --pipeline
    7fdfc288eb512886 0 plan resnet50
    9ca1fd11ff471cc5 0 plan mobilenet --slo 7.6
    7fdfc288eb512886 0 plan resnet50 --threads 2
    e8fef42593f07070 0 serve mobilenet --images 3
    4e016ba53cc5b138 0 serve resnet50 --images 5 --parallel --flaky-store 0.3
    27a5bc9ab4bba29b 0 serve mobilenet --images 3 --inject-faults 0.15 --fault-seed 11
    a688c945d00c9d72 0 serve mobilenet --inject-faults 0.15 --retries 3 --backoff 0.2
    243f0ac4bf93c48c 0 serve resnet50 --requests 500 --rate 25 --lanes 32 --threads 4
    bf6240c752164dc2 0 serve mobilenet --requests 40 --rate 4 --retries 0 --inject-faults 0.15
    e31dd29331d17f3f 0 serve resnet50 --requests 500 --rate 25 --shape flash-crowd --policy provisioned:2
    0cf9973d0566292c 0 serve mobilenet --requests 120 --rate 20 --shape diurnal --policy zero
    08c51458740bfe00 0 serve mobilenet --requests 96 --rate 40 --shape flash-crowd --adaptive --slo-tiers 8.5,30 --epoch 16 --verbose
    6c2fb6a16b4352c9 0 serve resnet50 --images 20 --pipeline --pipe-depth 2
    3d8e48054c2a9db9 0 serve resnet50 --requests 300 --rate 25 --pipeline --pipe-depth 2
    803ae3088ed6e905 0 serve mobilenet --dag --images 6 --pipeline --pipe-depth 2
    eb975df0c9a37e64 0 serve mobilenet --dag --images 3 --inject-faults 0.15 --fault-seed 11
    d945f8e503b4afc0 0 serve mobilenet --dag --requests 300 --rate 10 --inject-faults 0.15 --fault-seed 11 --retries 2 --flaky-store 0.2
    db2648ae2c100082 0 serve inception_v3 --batch 64 --dag --requests 5000 --rate 50 --adaptive --slo-tiers 600,1200 --epoch 512
    eacf2679937af39d 0 plan inception_v3 --dag --batch 64 --slo 636.5 --verbose
    5c94efdd3090c931 0 sweep inception_v3 --dag --slo-from 570 --slo-to 700 --points 6 --batches 64
    3ba0ba20b21267b7 0 sweep inception_v3 --dag --slo-from 22 --slo-to 40 --points 4 --verbose
    f77653eaced8235e 0 serve resnet50 --requests 500 --rate 25 --verbose
    7f722ef02fa442f2 0 plan resnet50 --tolerance 0.05 --quota-2021 --verbose --json {tmp}/resnet50.json
    47a210fc7c77001e 0 plan mobilenet --inject-faults 0.1 --fault-seed 3 --retries 1 --backoff 0.5
    543cd09b45934d66 0 plan inception_v3 --dag --quantize 1 --threads 1 --json {tmp}/dag.json
    2bbdbccf24f30df0 0 plan mobilenet --dag
    0cad66029192ec4a 0 plan resnet50 --pipeline --slo 40 --batch 4
    aacce42858a5397b 0 plan {tmp}/tiny.json --slo 5
    a18266d2be4d1c1e 0 sweep mobilenet --slo-from 2 --slo-to 20 --points 4 --batches 1,8 --no-seed --verbose --tolerance 0.2 --quota-2021 --threads 2
    c9d1ff4d548ca73c 0 sweep resnet50 --slo-from 1 --slo-to 24 --points 3 --tolerance 0
    f6269e4a19a1b930 0 serve mobilenet --images 1 --parallel
    6bef49019872ee8d 0 serve resnet50 --images 1 --pipeline
    e20378616f6d676a 0 serve resnet50 --images 3 --pipeline
    64c0d54f0ec2625b 0 serve resnet50 --batch 4 --images 2
    6187d014b434fc95 0 serve mobilenet --slo 7.6 --images 2 --quota-2021 --tolerance 0.2
    935f22f6ad9f3fc7 0 serve mobilenet --dag --images 1
    c445cf80edb08699 0 serve mobilenet --dag --images 1 --pipeline
    849f1b0b1b3dade8 0 serve inception_v3 --dag --images 3 --parallel --verbose
    ef13001e278b5474 0 serve resnet50 --dag --requests 200 --rate 20 --pipeline --pipe-depth 2 --lanes 8 --verbose
    16ed0696edfe576d 0 serve mobilenet --requests 64 --rate 8 --shape bursts --policy keepalive:30 --lanes 4 --threads 2
    a2bf24ccb53693d1 0 serve mobilenet --requests 64 --rate 8 --shape mix --policy default
    1d98fc220c13c53a 0 serve mobilenet --requests 40 --rate 4 --backoff 0.05 --retries 1 --inject-faults 0.1 --fault-seed 5 --flaky-store 0.1
";
