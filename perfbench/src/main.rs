//! Benchmark of the AMPS-Inf reproduction's two products, the planner and
//! the serving simulator, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_dag|plan_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced run with `--trace 1`. The exit code is
//! non-zero when an output check fails. `README.md` beside this crate
//! describes the workloads.

mod plan_mix;
mod planner;
mod report;
mod serve;
mod trace;

use planner::{Phase, PhaseCheck, Query, SweepQuery};
use report::{median, percentile, tail_percentile, Metric, RunResult};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Tracer;

/// Worker threads of the serving engine and of `plan_mix`'s optimizer;
/// the one-thread metrics rerun the same work at 1.
pub const THREADS: usize = 2;
/// Warm-pool shards of the serving engine (a model parameter: reports
/// depend on it, never on the thread count).
pub const SERVE_LANES: usize = 64;
/// Set-ups per run, spread through it; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

/// Every end-to-end metric, in report order, with its unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("req_per_s_1t", "1/s"),
    ("plan_p50_ms", "ms"),
    ("plan_p90_ms", "ms"),
    ("sweep_p50_ms", "ms"),
    ("plan_usd_sum", "usd"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
];

/// Every per-layer metric of the traced run, in report order, with its
/// unit. A workload that never calls a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("model.build_ms", "ms"),
    ("loadgen.arrivals_ms", "ms"),
    ("loadgen.report_ms", "ms"),
    ("coordinator.deploy_ms", "ms"),
    ("coordinator.serve_ms", "ms"),
    ("coordinator.serve_1t_ms", "ms"),
    ("coordinator.ns_per_invocation", "ns"),
    ("coordinator.serial_share", "fraction"),
    ("coordinator.retries", "count"),
    ("coordinator.failed", "count"),
    ("coordinator.realized_over_predicted", "ratio"),
    ("platform.invocations", "count"),
    ("platform.cold_starts", "count"),
    ("platform.peak_instances", "count"),
    ("platform.invoke_ns", "ns"),
    ("storage.put_get_ns", "ns"),
    ("storage.ops", "count"),
    ("profiler.profile_ms", "ms"),
    ("cuts.enumerate_ms", "ms"),
    ("cuts.count", "count"),
    ("colcache.columns_ms", "ms"),
    ("optimizer.pass1_ms", "ms"),
    ("optimizer.pass2_ms", "ms"),
    ("colcache.hits", "count"),
    ("colcache.misses", "count"),
    ("solver.miqps_solved", "count"),
    ("solver.miqps_pruned", "count"),
    ("solver.bb_nodes", "count"),
    ("solver.qp_relaxations", "count"),
    ("optimizer.dag_search_ms", "ms"),
    ("dag.trials", "count"),
    ("dag.node_memo_misses", "count"),
    ("dag.spine_spans_solved", "count"),
    ("sweep.ms_per_point", "ms"),
    ("sweep.seeded_points", "count"),
    ("self.setup_ms", "ms"),
    ("self.planner_queries_ms", "ms"),
    ("self.planner_sweeps_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

/// What a workload run produced.
pub struct Outcome {
    result: RunResult,
    lines: Vec<String>,
    errors: Vec<String>,
    spans: Option<Tracer>,
}

/// Bookkeeping shared by the workloads: operation counts, failed checks
/// and the human-readable lines printed before the result.
#[derive(Default)]
pub struct Run {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that errored or failed a check.
    pub failed: u64,
    errors: Vec<String>,
    lines: Vec<String>,
}

impl Run {
    /// Records a failed output check unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, what: String) -> bool {
        if !ok {
            self.errors.push(what);
        }
        ok
    }

    /// Adds a line to print before the result.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Counts a checked planner pass.
    pub fn absorb_phase(&mut self, queries: &[Query], sweeps: &[SweepQuery], c: &PhaseCheck) {
        self.attempted += (queries.len() + sweeps.len()) as u64;
        self.failed += c.refused + c.errors.len() as u64;
        self.errors.extend(c.errors.iter().cloned());
        if c.refused > 0 {
            self.line(format!(
                "{} of {} point queries refused (no plan or SLO-infeasible)",
                c.refused,
                queries.len()
            ));
        }
    }

    /// Finishes an untraced run with its end-to-end metrics.
    pub fn finish(mut self, metrics: Vec<(&'static str, f64, &'static str)>) -> Outcome {
        let names: Vec<(&str, &str)> = metrics.iter().map(|&(n, _, u)| (n, u)).collect();
        if names != END_TO_END {
            self.errors.push(format!(
                "end-to-end metrics {names:?} are not the listed ones"
            ));
        }
        self.outcome(metrics, None)
    }

    /// Finishes a traced run: fills the per-layer metrics the workload did
    /// not produce with 0 and adds self times and tracing overhead.
    pub fn finish_traced(
        mut self,
        layers: Vec<(&'static str, f64, &'static str)>,
        tr: Tracer,
        untraced_ms: f64,
        traced_ms: f64,
    ) -> Outcome {
        let self_ms = tr.self_by_name();
        let mut by_name: BTreeMap<&str, f64> = layers.iter().map(|&(n, v, _)| (n, v)).collect();
        for (metric, span) in [
            ("self.setup_ms", "setup"),
            ("self.planner_queries_ms", "planner.queries"),
            ("self.planner_sweeps_ms", "planner.sweeps"),
        ] {
            by_name.insert(metric, self_ms.get(span).copied().unwrap_or(0.0));
        }
        by_name.insert("trace.untraced_ms", untraced_ms);
        by_name.insert("trace.traced_ms", traced_ms);
        by_name.insert("trace.overhead_ms", traced_ms - untraced_ms);
        by_name.insert("trace.coverage", traced_ms / untraced_ms);
        for name in by_name.keys() {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                self.errors
                    .push(format!("unlisted per-layer metric {name}"));
            }
        }
        self.line(format!(
            "tracing: untraced pass {untraced_ms:.3} ms, traced top-level spans {traced_ms:.3} ms \
             (overhead {:.3} ms, coverage {:.4})",
            traced_ms - untraced_ms,
            traced_ms / untraced_ms
        ));
        self.line("self time by span (ms):".into());
        for (name, ms) in &self_ms {
            self.line(format!("  {name:<32} {ms:>14.3}"));
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, by_name.get(n).copied().unwrap_or(0.0), u))
            .collect();
        self.outcome(metrics, Some(tr))
    }

    fn outcome(
        self,
        metrics: Vec<(&'static str, f64, &'static str)>,
        spans: Option<Tracer>,
    ) -> Outcome {
        Outcome {
            result: RunResult {
                correct: self.errors.is_empty(),
                attempted: self.attempted,
                failed: self.failed,
                metrics: metrics
                    .into_iter()
                    .map(|(name, value, unit)| Metric {
                        name: name.into(),
                        value,
                        unit: unit.into(),
                    })
                    .collect(),
            },
            lines: self.lines,
            errors: self.errors,
            spans,
        }
    }
}

/// Samples as a short space-separated list.
fn list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The end-to-end metrics every workload reports, in report order.
fn end_to_end(
    setup_s: f64,
    req_per_s: f64,
    req_per_s_1t: f64,
    phase: &Phase,
    plan_usd_sum: f64,
    peak_rss_mb: f64,
    ok_frac: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let n = phase.latencies_ms.len();
    if tail_percentile(n).is_none_or(|p| p < 90.0) {
        return Err(format!("{n} point queries cannot support a p90"));
    }
    Ok(vec![
        ("setup_s", setup_s, "s"),
        ("req_per_s", req_per_s, "1/s"),
        ("req_per_s_1t", req_per_s_1t, "1/s"),
        ("plan_p50_ms", percentile(&phase.latencies_ms, 50.0), "ms"),
        ("plan_p90_ms", percentile(&phase.latencies_ms, 90.0), "ms"),
        ("sweep_p50_ms", median(&phase.sweep_ms_per_point), "ms"),
        ("plan_usd_sum", plan_usd_sum, "usd"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("ok_frac", ok_frac, "fraction"),
    ])
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        if map.insert(key, value.clone()).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed needs a whole number".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// FNV-1a over every source and manifest file of the library crates and
/// the benchmark, in path order: identifies the code when the checkout is
/// not a git repository.
fn source_hash() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.push("Cargo.lock".into());
    files.sort();
    files.iter().fold(report::FNV_OFFSET, |h, f| {
        let h = report::fnv1a(h, f.to_string_lossy().as_bytes());
        report::fnv1a(h, &std::fs::read(f).unwrap_or_default())
    })
}

/// The commit of a git checkout, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(c.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Machine, toolchain and code the result was measured on, as JSON.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let commit = git_commit().map_or("null".to_string(), |c| format!("\"{c}\""));
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"threads\": {THREADS}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_commit\": {commit}, \
         \"source_fnv\": \"{:016x}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        cpu.replace('"', "'"),
        rustc.replace('"', "'"),
        source_hash()
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--rss-probe <workload> <seed>`: the child a serve workload spawns
    // to measure the peak memory of one job on its own.
    if let [flag, workload, seed] = argv.as_slice() {
        if flag == "--rss-probe" {
            let spec = match workload.as_str() {
                "serve_dag" => Ok(&serve::SERVE_DAG),
                other => Err(format!("no memory probe for workload {other:?}")),
            };
            let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"));
            return match spec.and_then(|spec| serve::rss_probe(spec, seed?)) {
                Ok(mb) => {
                    println!("{mb}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_dag|plan_mix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let fp = fingerprint(&args);
    println!("fingerprint: {fp}");
    // The workload runs on a spawned thread: on the main thread, whose
    // allocations go to the allocator's main heap, single-threaded work
    // (the 1-thread serve job, point queries) ran at one of two speeds
    // per process, up to 20% apart, whatever the code under test.
    let outcome = std::thread::scope(|s| {
        s.spawn(|| match args.workload.as_str() {
            "serve_dag" => serve::run(&serve::SERVE_DAG, args.seed, args.seconds, args.trace),
            "plan_mix" => plan_mix::run(args.seed, args.seconds, args.trace),
            other => Err(format!("unknown workload {other:?}")),
        })
        .join()
        .unwrap_or_else(|_| Err("the workload panicked".into()))
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = outcome.result.validate() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let line = outcome.result.to_json();
    if RunResult::from_json(&line).as_ref() != Ok(&outcome.result) {
        eprintln!("error: the result line does not read back as written: {line}");
        return ExitCode::FAILURE;
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.result.metrics {
        println!("{:<40} {:>22} {}", m.name, m.value, m.unit);
    }
    if let Some(tr) = &outcome.spans {
        let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        let body = format!(
            "{{\"fingerprint\": {fp},\n\"result\": {},\n\"spans\": {}}}\n",
            outcome.result.to_json(),
            tr.to_json()
        );
        match std::fs::create_dir_all(TRACE_DIR).and_then(|_| std::fs::write(&path, body)) {
            Ok(()) => println!("spans: {} written to {path}", tr.spans().len()),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    println!("{line}");
    if outcome.result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The manifest at the repository root lists exactly the metrics the
    /// program reports.
    #[test]
    fn benchmark_manifest_lists_every_metric() {
        let manifest = include_str!("../../BENCHMARK.json");
        let listed = manifest.matches("\"name\": \"").count();
        let workloads = 2;
        assert_eq!(listed, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                report::valid_name(name) && report::valid_unit(unit),
                "{name}"
            );
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let ok: Vec<String> = "--workload plan_mix --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("plan_mix", 7, 10.0, true)
        );
        for bad in [
            "--workload plan_mix --seed 7 --seconds 10",
            "--workload plan_mix --seed x --seconds 10 --trace 0",
            "--workload plan_mix --seed 7 --seconds 0 --trace 0",
            "--workload plan_mix --seed 7 --seconds 10 --trace 2",
            "--workload plan_mix --seed 7 --seed 8 --seconds 10 --trace 0",
            "--workload plan_mix --seed 7 --seconds 10 --trace 0 --extra 1",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad}");
        }
    }
}
