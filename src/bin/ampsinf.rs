//! `ampsinf` — the AMPS-Inf command-line front end (the paper's Fig. 3
//! workflow: pre-trained model in, optimal configuration out, optional
//! deployment + serving on the simulated platform).
//!
//! ```text
//! ampsinf plan resnet50 --slo 20 --json out.json
//! ampsinf sweep resnet50 --slo-from 10 --slo-to 40 --points 16 --batches 1,8,32
//! ampsinf serve resnet50 --requests 1000 --rate 50 --threads 8
//! ampsinf plan model.json          # any serialized LayerGraph file
//! ampsinf <command> --help
//! ```
//!
//! Every flag is declared once, in [`FLAGS`]: which subcommands read it,
//! what its value must be, which flag it needs or excludes, and its help
//! line. [`Args::parse`] enforces all of that before a command runs, and
//! `--help` is generated from the same table.

use amps_inf::core::sweep::SweepGrid;
use amps_inf::core::{baselines, DagDeployment, OptimizeError, PipelinePlan};
use amps_inf::faas::WarmPoolPolicy;
use amps_inf::model::summary::ModelSummary;
use amps_inf::prelude::*;
use amps_inf::serving::{
    run_adaptive_loop, run_adaptive_loop_dag, run_open_loop, run_open_loop_dag, AdaptiveSpec,
    ArrivalShape, LoadSpec,
};
use std::fmt::{self, Write as _};
use std::io::{self, Write as _};
use std::str::FromStr;

/// `print!` that ends the process quietly once stdout's reader has gone
/// (`ampsinf models | head -1`) instead of panicking on a broken pipe.
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` with [`out!`]'s broken-pipe handling.
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn emit(text: fmt::Arguments) {
    if let Err(e) = io::stdout().write_fmt(text) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

/// Bits of [`Flag::cmds`], one per subcommand.
const MODELS: u8 = 1;
const SUMMARY: u8 = 2;
const PLAN: u8 = 4;
const SWEEP: u8 = 8;
const SERVE: u8 = 16;
const PLANNERS: u8 = PLAN | SWEEP | SERVE;

/// A subcommand: its name, [`Flag::cmds`] bit, positional argument, help
/// line, and body.
struct Command {
    name: &'static str,
    bit: u8,
    operand: &'static str,
    help: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

#[rustfmt::skip]
static COMMANDS: [Command; 5] = [
    Command { name: "models", bit: MODELS, operand: "", help: "list built-in models", run: models },
    Command { name: "summary", bit: SUMMARY, operand: MODEL, help: "Keras-style model summary", run: summary },
    Command { name: "plan", bit: PLAN, operand: MODEL, help: "compute the optimal deployment plan", run: plan },
    Command { name: "sweep", bit: SWEEP, operand: MODEL, help: "plan an SLO grid, print the Pareto frontier", run: sweep },
    Command { name: "serve", bit: SERVE, operand: MODEL, help: "plan + deploy + serve on the simulator", run: serve },
];

const MODEL: &str = "<model|file.json>";

/// What a flag's value must be; [`Args::parse`] rejects anything else.
#[derive(Clone, Copy)]
enum Kind {
    /// No value.
    Switch,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A finite number > 0.
    Positive,
    /// A finite number >= 0.
    NonNegative,
    /// A probability in [0, 1], or in [0, 1) when `false`.
    Probability(bool),
    /// Comma-separated integers in `1..=max`.
    Counts(u64),
    /// Comma-separated finite numbers > 0.
    Positives,
    /// Any string; parsed where it is used.
    Text,
}

use Kind::*;

const COUNT: Kind = Int(1, u64::MAX);
/// The largest batch a plan or sweep takes: far above any batch the
/// paper's evaluation uses (64), and small enough that batch-scaled
/// FLOPs and bytes stay far from `u64` overflow.
const MAX_BATCH: u64 = 4096;
/// The most SLO points a sweep grid takes (one grid entry each).
const MAX_POINTS: u64 = 10_000;

impl Kind {
    /// What a value of this kind must be, for error messages.
    fn need(self) -> String {
        match self {
            Switch | Text => "a value".into(),
            Int(1, u64::MAX) => "a positive integer".into(),
            Int(0, u64::MAX) => "an integer >= 0".into(),
            Int(lo, hi) => format!("an integer in {lo}..={hi}"),
            Positive => "a finite number > 0".into(),
            NonNegative => "a finite number >= 0".into(),
            Probability(true) => "a probability in [0,1]".into(),
            Probability(false) => "a probability in [0,1)".into(),
            Counts(hi) => format!("comma-separated integers in 1..={hi}"),
            Positives => "comma-separated finite numbers > 0".into(),
        }
    }

    fn accepts(self, v: &str) -> bool {
        let num = |s: &str| s.parse::<f64>().ok().filter(|x| x.is_finite());
        let list = |ok: &dyn Fn(&str) -> bool| v.split(',').map(str::trim).all(ok);
        match self {
            Switch | Text => true,
            Int(lo, hi) => v.parse::<u64>().is_ok_and(|n| (lo..=hi).contains(&n)),
            Positive => num(v).is_some_and(|x| x > 0.0),
            NonNegative => num(v).is_some_and(|x| x >= 0.0),
            Probability(closed) => {
                num(v).is_some_and(|x| x >= 0.0 && if closed { x <= 1.0 } else { x < 1.0 })
            }
            Counts(hi) => list(&|s| s.parse::<u64>().is_ok_and(|n| (1..=hi).contains(&n))),
            Positives => list(&|s| num(s).is_some_and(|x| x > 0.0)),
        }
    }
}

/// One command-line flag.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    /// Value placeholder for `--help`; empty for a switch.
    value: &'static str,
    kind: Kind,
    /// [`Command::bit`]s of the subcommands that read the flag.
    cmds: u8,
    /// A flag that must be given too.
    requires: Option<&'static str>,
    /// Flags that must not be given with this one.
    conflicts: &'static [&'static str],
    help: &'static str,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    kind: Kind,
    cmds: u8,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        value,
        kind,
        cmds,
        requires: None,
        conflicts: &[],
        help,
    }
}

const fn switch(name: &'static str, cmds: u8, help: &'static str) -> Flag {
    flag(name, "", Switch, cmds, help)
}

impl Flag {
    const fn requires(mut self, other: &'static str) -> Flag {
        self.requires = Some(other);
        self
    }

    const fn conflicts(mut self, others: &'static [&'static str]) -> Flag {
        self.conflicts = others;
        self
    }
}

/// Every flag of every subcommand, in `--help` order. `--pipeline` has one
/// entry per subcommand because its meaning and exclusions differ.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--slo", "<seconds>", Positive, PLAN | SERVE, "response-time SLO"),
    flag("--batch", "<n>", Int(1, MAX_BATCH), PLAN | SERVE, "optimize for n-image batches (at most 4096)"),
    flag("--tolerance", "<f>", NonNegative, PLANNERS, "cost tolerance spent on speed (default 0.1)"),
    flag("--threads", "<n>", Int(0, 256), PLANNERS,
        "optimizer threads, and serving workers in load mode (0 = auto, at most 256)"),
    switch("--quota-2021", PLANNERS, "10,240 MB / 1 MB-step quota preset"),
    switch("--dag", PLANNERS,
        "branch-parallel plans: fork/join regions fan out into concurrent nodes when that beats the chain"),
    switch("--verbose", PLANNERS, "solver and search statistics; serve: the per-node table"),
    flag("--quantize", "<bytes>", Int(1, 4), PLAN, "weight width in bytes"),
    flag("--json", "<path>", Text, PLAN, "write the plan as JSON"),
    switch("--pipeline", PLAN, "also plan batch and cut jointly against the pipelined makespan")
        .conflicts(&["--dag"]),
    flag("--slo-from", "<seconds>", Positive, SWEEP, "tightest SLO of the grid (required)"),
    flag("--slo-to", "<seconds>", Positive, SWEEP, "loosest SLO of the grid (required, >= --slo-from)"),
    flag("--points", "<n>", Int(1, MAX_POINTS), SWEEP, "number of SLO grid points (required, at most 10000)"),
    flag("--batches", "<a,b,...>", Counts(MAX_BATCH), SWEEP,
        "batch sizes to cross with the SLO axis (default 1, each at most 4096)"),
    switch("--no-seed", SWEEP, "disable cross-point bound seeding"),
    flag("--images", "<n>", COUNT, SERVE, "images to serve at once (default 1)").conflicts(&["--requests"]),
    switch("--parallel", SERVE, "serve the images concurrently").conflicts(&["--requests"]),
    switch("--pipeline", SERVE, "overlap partition stages across requests")
        .conflicts(&["--parallel", "--adaptive"]),
    flag("--pipe-depth", "<n>", COUNT, SERVE, "stations per stage per lane (default 1)").requires("--pipeline"),
    flag("--requests", "<n>", COUNT, SERVE, "open-loop load mode: requests to serve"),
    flag("--rate", "<rps>", Positive, SERVE, "mean arrival rate (default 1)").requires("--requests"),
    flag("--shape", "<name>", Text, SERVE, "arrivals: constant (default), diurnal, spike, bursts or mix")
        .requires("--requests"),
    flag("--policy", "<spec>", Text, SERVE, "warm pool: default, zero, prewarm:N, provisioned:N or keepalive:S")
        .requires("--requests"),
    flag("--lanes", "<n>", COUNT, SERVE, "warm-pool shards, at least --threads (default 64)").requires("--requests"),
    switch("--adaptive", SERVE, "re-plan between epochs among the --slo-tiers plans")
        .requires("--requests"),
    flag("--slo-tiers", "<a,b,...>", Positives, SERVE, "adaptive SLO tiers in seconds, tight to loose")
        .requires("--adaptive"),
    flag("--epoch", "<n>", COUNT, SERVE, "requests per adaptive epoch (default 64)").requires("--adaptive"),
    flag("--inject-faults", "<p>", Probability(true), PLAN | SERVE,
        "crash, timeout and cold-start probability per invocation"),
    flag("--fault-seed", "<n>", Int(0, u64::MAX), PLAN | SERVE, "seed of the fault stream (default 0)")
        .requires("--inject-faults"),
    flag("--flaky-store", "<p>", Probability(false), SERVE, "storage 5xx probability per request"),
    flag("--retries", "<n>", Int(0, u32::MAX as u64), PLAN | SERVE, "retry budget per partition (default 2)"),
    flag("--backoff", "<s>", NonNegative, PLAN | SERVE, "exponential-backoff base seconds (default 0.1)"),
    switch("--help", MODELS | SUMMARY | PLANNERS, "print this help"),
];

/// A subcommand's command line, checked against [`FLAGS`].
struct Args<'a> {
    model: Option<&'a str>,
    given: Vec<(&'static Flag, &'a str)>,
}

impl<'a> Args<'a> {
    /// Parses `argv` (everything after the subcommand name) for `cmd`.
    /// Rejects unknown flags, flags `cmd` does not read, duplicate flags,
    /// missing or out-of-range values, stray positionals, and violated
    /// `requires`/`conflicts` rules.
    fn parse(cmd: &Command, argv: &'a [String]) -> Result<Args<'a>, String> {
        let mut args = Args {
            model: None,
            given: Vec::new(),
        };
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if cmd.operand.is_empty() || args.model.is_some() {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                args.model = Some(arg);
                continue;
            }
            let Some(flag) = FLAGS
                .iter()
                .find(|f| f.name == arg && f.cmds & cmd.bit != 0)
            else {
                let what = if FLAGS.iter().any(|f| f.name == arg) {
                    format!("{} does not take", cmd.name)
                } else {
                    "unknown flag".to_string()
                };
                return Err(format!("{what} {arg} (see `ampsinf {} --help`)", cmd.name));
            };
            if args.has(arg) {
                return Err(format!("{arg} given twice"));
            }
            let value = match flag.kind {
                Switch => "",
                kind => {
                    let Some(v) = rest.next().filter(|v| !v.starts_with("--")) else {
                        return Err(format!("{arg} needs a value {}", flag.value));
                    };
                    if !kind.accepts(v) {
                        return Err(format!("bad {arg} value {v} (need {})", kind.need()));
                    }
                    v
                }
            };
            args.given.push((flag, value));
        }
        for (flag, _) in &args.given {
            if let Some(other) = flag.requires.filter(|r| !args.has(r)) {
                return Err(format!("{} requires {other}", flag.name));
            }
            if let Some(other) = flag.conflicts.iter().find(|c| args.has(c)) {
                return Err(format!("{} cannot be combined with {other}", flag.name));
            }
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.given
            .iter()
            .find(|(f, _)| f.name == name)
            .map(|(_, v)| *v)
    }

    /// The value of `name`, already range-checked by [`Args::parse`].
    fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name)?.parse().ok()
    }

    /// The comma-separated values of `name`.
    fn list<T: FromStr>(&self, name: &str) -> Option<Vec<T>> {
        self.value(name)?
            .split(',')
            .map(|s| s.trim().parse().ok())
            .collect()
    }
}

/// `ampsinf <cmd> --help`: usage plus one line per flag `cmd` reads.
fn command_help(cmd: &Command) -> String {
    let usage = format!("ampsinf {} {}", cmd.name, cmd.operand);
    format!(
        "usage: {} [options]\n{}\n\noptions:\n{}",
        usage.trim_end(),
        cmd.help,
        flag_lines(cmd.bit)
    )
}

/// The help lines of the flags in `cmds`, with the `requires` and
/// `conflicts` rules that apply there (conflicts listed from both sides).
fn flag_lines(cmds: u8) -> String {
    let mut s = String::new();
    for f in FLAGS.iter().filter(|f| f.cmds & cmds != 0) {
        let applies = |name: &str| FLAGS.iter().any(|g| g.name == name && g.cmds & cmds != 0);
        let mut excludes: Vec<&str> = f.conflicts.iter().copied().filter(|c| applies(c)).collect();
        excludes.extend(
            FLAGS
                .iter()
                .filter(|g| g.cmds & cmds != 0 && g.conflicts.contains(&f.name))
                .map(|g| g.name),
        );
        let mut notes = String::new();
        if let Some(r) = f.requires {
            let _ = write!(notes, "; requires {r}");
        }
        if !excludes.is_empty() {
            let _ = write!(notes, "; excludes {}", excludes.join(", "));
        }
        let name = format!("{} {}", f.name, f.value);
        let _ = writeln!(s, "  {:<22} {}{notes}", name.trim_end(), f.help);
    }
    s
}

/// `ampsinf --help`: the commands, then each subcommand's flags.
fn help() -> String {
    let mut s =
        String::from("usage: ampsinf <command> [<model|file.json>] [options]\n\ncommands:\n");
    for c in &COMMANDS {
        let _ = writeln!(
            s,
            "  {:<26} {}",
            format!("{} {}", c.name, c.operand),
            c.help
        );
    }
    let _ = writeln!(s, "  {:<26} print this help", "help");
    for c in COMMANDS.iter().filter(|c| c.bit & PLANNERS != 0) {
        let _ = write!(
            s,
            "\n{} options (`ampsinf {} --help`):\n{}",
            c.name,
            c.name,
            flag_lines(c.bit)
        );
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(argv: &[String]) -> i32 {
    let Some(name) = argv.first() else {
        eprint!("{}", help());
        return 2;
    };
    if name == "help" || name == "--help" {
        out!("{}", help());
        return 0;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command '{name}'\n");
        eprint!("{}", help());
        return 2;
    };
    if argv[1..].iter().any(|a| a == "--help") {
        out!("{}", command_help(cmd));
        return 0;
    }
    match Args::parse(cmd, &argv[1..]).and_then(|args| (cmd.run)(&args)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn models(_: &Args) -> Result<(), String> {
    for name in [
        "mobilenet",
        "resnet50",
        "inception_v3",
        "xception",
        "vgg16",
        "vgg19",
        "bert_base",
    ] {
        let g = zoo::by_name(name).expect("zoo model");
        outln!(
            "{:<14} {:>10} params  {:>7.1} MB  {:>4} layers",
            name,
            g.total_params(),
            g.weight_bytes() as f64 / 1024.0 / 1024.0,
            g.num_layers()
        );
    }
    Ok(())
}

fn summary(args: &Args) -> Result<(), String> {
    out!("{}", ModelSummary::of(&load_model(args.model)?).render());
    Ok(())
}

/// The planning and serving configuration the flags describe.
fn config(args: &Args) -> AmpsConfig {
    let d = AmpsConfig::default();
    let cfg = AmpsConfig {
        slo_s: args.get("--slo"),
        batch_size: args.get("--batch").unwrap_or(d.batch_size),
        cost_tolerance: args.get("--tolerance").unwrap_or(d.cost_tolerance),
        threads: args.get("--threads").unwrap_or(d.threads),
        invoke_retries: args.get("--retries").unwrap_or(d.invoke_retries),
        backoff_base_s: args.get("--backoff").unwrap_or(d.backoff_base_s),
        faults: match args.get("--inject-faults") {
            Some(rate) => FaultPlan::uniform(rate, args.get("--fault-seed").unwrap_or(0)),
            None => FaultPlan::none(),
        },
        store: match args.get("--flaky-store") {
            Some(rate) => StoreKind::flaky_s3(rate),
            None => StoreKind::s3(),
        },
        pipeline_depth: if args.has("--pipeline") {
            args.get("--pipe-depth").unwrap_or(1)
        } else {
            0
        },
        ..d
    };
    if args.has("--quota-2021") {
        cfg.lambda_2021()
    } else {
        cfg
    }
}

fn optimization_failed(e: impl fmt::Display) -> String {
    format!("optimization failed: {e}")
}

fn plan(args: &Args) -> Result<(), String> {
    let mut g = load_model(args.model)?;
    let cfg = config(args);
    if let Some(bytes) = args.get("--quantize") {
        g = g.quantized(bytes);
        outln!(
            "quantized weights to {} bits: {:.1} MB",
            bytes * 8,
            g.weight_bytes() as f64 / 1024.0 / 1024.0
        );
    }
    if args.has("--dag") {
        return plan_dag(&g, cfg, args);
    }
    let r = Optimizer::new(cfg.clone())
        .optimize(&g)
        .map_err(optimization_failed)?;
    outln!("{}", r.plan);
    print_fault_plan(&cfg);
    outln!(
        "searched {} cuts, {} MIQPs, {:?} ({} threads: eval {:?}, miqp {:?})",
        r.cuts_considered,
        r.miqps_solved,
        r.solve_time,
        r.threads_used,
        r.pass1_time,
        r.pass2_time
    );
    if args.has("--verbose") {
        print_solver_stats(&r);
    }
    if let Some(b3) = baselines::b3_optimal(&g, &cfg) {
        outln!(
            "exhaustive optimum for reference: {:.2}s ${:.6}",
            b3.predicted_time_s,
            b3.predicted_cost
        );
    }
    if let Some(b4) = baselines::b4_bucket_scan(&g, &cfg, r.plan.num_lambdas()) {
        let bottleneck = baselines::stage_times(&Profile::of(&g), &b4, &cfg)
            .map(|t| t.into_iter().fold(0.0f64, f64::max))
            .unwrap_or(f64::NAN);
        outln!(
            "pipeserve bucket-scan for reference: {} stage(s), {:.2}s \
             ${:.6}, bottleneck {:.3}s",
            b4.num_lambdas(),
            b4.predicted_time_s,
            b4.predicted_cost,
            bottleneck
        );
    }
    if cfg.pipeline_depth > 0 {
        match pipelined_plan(&g, &cfg) {
            Ok(pp) => {
                outln!("pipelined plan: {pp}");
                let stages: Vec<String> = pp
                    .stage_times_s
                    .iter()
                    .map(|t| format!("{t:.3}s"))
                    .collect();
                outln!(
                    "  stage times: [{}] (fill {:.2}s, steady-state \
                     makespan(n) = fill + (n-1) x {:.3}s)",
                    stages.join(", "),
                    pp.stage_times_s.iter().sum::<f64>(),
                    pp.bottleneck_s
                );
            }
            Err(e) => outln!("pipelined plan: {e}"),
        }
    }
    write_json(args, &r.plan.to_json())
}

/// Writes `json` to the `--json` path, if one was given.
fn write_json(args: &Args, json: &str) -> Result<(), String> {
    if let Some(path) = args.value("--json") {
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        outln!("plan written to {path}");
    }
    Ok(())
}

/// `plan --dag`: chain-vs-DAG comparison. Runs the standard chain
/// optimization, then evaluates branch-parallel candidates over the
/// graph's fork/join regions with every scatter/gather request fee and
/// storage lifetime billed; a DAG is reported only when it beats the
/// chain incumbent under the paper's selection rule.
fn plan_dag(g: &LayerGraph, cfg: AmpsConfig, args: &Args) -> Result<(), String> {
    let r = Optimizer::new(cfg.clone())
        .optimize_dag(g)
        .map_err(optimization_failed)?;
    let chain = &r.chain.plan;
    outln!("chain incumbent: {chain}");
    print_fault_plan(&cfg);
    outln!(
        "searched {} cuts, {} MIQPs, {:?} ({} threads); {} branch region(s) considered",
        r.chain.cuts_considered,
        r.chain.miqps_solved,
        r.chain.solve_time,
        r.chain.threads_used,
        r.regions_considered
    );
    if args.has("--verbose") {
        print_solver_stats(&r.chain);
        let s = &r.search;
        outln!(
            "dag search: {} trial(s) evaluated, node evals {} hit / {} miss, \
             spine spans {} reused / {} solved, {:?}",
            s.trials_evaluated,
            s.node_memo_hits,
            s.node_memo_misses,
            s.spine_span_hits,
            s.spine_spans_solved,
            s.search_time
        );
    }
    match &r.dag {
        Some(dag) => {
            outln!("dag plan: {dag}");
            let bytes: u64 = dag.objects.iter().map(|o| o.bytes).sum();
            let gets: usize = dag.objects.iter().map(|o| o.consumers.len()).sum();
            outln!(
                "  {} of {} region(s) parallelized, width {}; {} checkpoint \
                 object(s) ({:.1} MB): {} put(s), {} get(s) billed per request",
                r.regions_used,
                r.regions_considered,
                dag.width(),
                dag.objects.len(),
                bytes as f64 / 1024.0 / 1024.0,
                dag.objects.len(),
                gets
            );
            outln!(
                "  critical path {:.4}s vs chain {:.4}s ({:+.2}%); \
                 cost ${:.6} vs ${:.6} ({:+.2}%)",
                dag.predicted_time_s,
                chain.predicted_time_s,
                100.0 * (dag.predicted_time_s / chain.predicted_time_s - 1.0),
                dag.predicted_cost,
                chain.predicted_cost,
                100.0 * (dag.predicted_cost / chain.predicted_cost - 1.0)
            );
        }
        None => outln!(
            "no branch plan beats the chain at this SLO/batch point \
             ({} region(s) considered); the chain incumbent stands",
            r.regions_considered
        ),
    }
    let json = r
        .dag
        .as_ref()
        .map_or_else(|| chain.to_json(), DagPlan::to_json);
    write_json(args, &json)
}

/// Joint batch–partition planning against the pipelined
/// (bottleneck-bound) makespan at `cfg`'s SLO and batch: the minimum
/// bottleneck within `cost_tolerance` of the sequential cost floor.
fn pipelined_plan(g: &LayerGraph, cfg: &AmpsConfig) -> Result<PipelinePlan, OptimizeError> {
    let grid =
        SweepGrid::from_slos(vec![cfg.slo_s.unwrap_or(1e9)]).with_batches(vec![cfg.batch_size]);
    let mut rep = Optimizer::new(cfg.clone()).optimize_pipelined(g, &grid);
    rep.points.swap_remove(0).outcome
}

/// The chain plan `serve` deploys, printed: the sequential optimum, or
/// under `--pipeline` the [`pipelined_plan`].
fn chain_serving_plan(g: &LayerGraph, cfg: &AmpsConfig) -> Result<ExecutionPlan, String> {
    let plan = if cfg.pipeline_depth == 0 {
        Optimizer::new(cfg.clone())
            .optimize(g)
            .map_err(optimization_failed)?
            .plan
    } else {
        let pp = pipelined_plan(g, cfg).map_err(|e| format!("pipelined planning failed: {e}"))?;
        outln!(
            "pipelined planning: bottleneck {:.3}s, imbalance {:.2} \
             (stage-balanced within cost tolerance of the sequential optimum)",
            pp.bottleneck_s,
            pp.imbalance()
        );
        pp.plan
    };
    outln!("{plan}");
    Ok(plan)
}

/// The plan `serve --dag` deploys, printed: the winning branch plan (the
/// [`plan_dag`] objective), or the chain incumbent (a degenerate DAG)
/// when no branch plan wins.
fn dag_serving_plan(g: &LayerGraph, cfg: &AmpsConfig) -> Result<EffectivePlan, String> {
    let report = Optimizer::new(cfg.clone())
        .optimize_dag(g)
        .map_err(optimization_failed)?;
    Ok(match report.dag {
        Some(d) => {
            outln!(
                "dag plan ({} of {} region(s) parallelized): {d}",
                report.regions_used,
                report.regions_considered
            );
            EffectivePlan::Dag(d)
        }
        None => {
            outln!(
                "no branch plan beats the chain here ({} region(s) considered); \
                 serving the chain incumbent as a degenerate DAG",
                report.regions_considered
            );
            EffectivePlan::Chain(report.chain.plan)
        }
    })
}

/// Serves one image on a fresh deployment, prints its phase breakdown
/// (`span` names the inference phase) and reliability line, and returns
/// its end-to-end seconds and dollars before storage settlement.
fn serve_single(
    coord: &Coordinator,
    platform: &mut Platform,
    dep: &DagDeployment,
    span: &str,
) -> Result<(f64, f64), String> {
    let job = coord
        .serve_one_dag(platform, dep, 0.0, "cli")
        .map_err(|e| format!("serve: {e}"))?;
    outln!(
        "deploy {:.2}s  load {:.2}s  predict {:.2}s  {span} {:.2}s",
        job.deploy_s,
        job.load_s,
        job.predict_s,
        job.inference_s
    );
    print_reliability(job.retries.len(), 0, job.wasted_s, job.wasted_dollars);
    Ok((job.e2e_s, job.dollars))
}

/// `serve`: a burst of `--images` through the planned deployment, or the
/// open-loop load mode under `--requests`.
fn serve(args: &Args) -> Result<(), String> {
    let g = load_model(args.model)?;
    let cfg = config(args);
    if let Some(requests) = args.get("--requests") {
        return serve_load(&g, cfg, args, requests);
    }
    if args.has("--dag") {
        return serve_dag(&g, cfg, args);
    }
    let images: usize = args.get("--images").unwrap_or(1);
    let parallel = args.has("--parallel");
    let plan = chain_serving_plan(&g, &cfg)?;
    print_fault_plan(&cfg);
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = coord
        .deploy(&mut platform, &g, &plan)
        .map_err(|e| format!("deploy: {e}"))?;
    let (time, mut dollars) = if images == 1 {
        serve_single(&coord, &mut platform, &dep, "chain")?
    } else if coord.config().pipeline_depth > 0 {
        let p = coord.serve_pipelined(&mut platform, &dep, images, 0.0);
        outln!(
            "pipeline: {} succeeded, {} failed over {} station(s)/stage",
            p.requests.len() - p.failed,
            p.failed,
            p.stats.stations_per_stage
        );
        outln!(
            "pipeline: utilization {:.1}% [{}], stall {:.2}s, warm idle {:.2}s",
            p.stats.utilization() * 100.0,
            percentages(&p.stats.stage_utilization()),
            p.stats.stall_s(),
            p.warm_idle_s
        );
        (p.e2e_s, p.dollars)
    } else {
        let b = if parallel {
            coord.serve_parallel(&mut platform, &dep, images, 0.0)
        } else {
            coord.serve_sequential(&mut platform, &dep, images, 0.0)
        };
        outln!("batch: {} succeeded, {} failed", b.succeeded(), b.failed());
        for f in &b.failures {
            outln!("  image {}: {}", f.image, f.error);
        }
        let retries: usize = b.jobs.iter().map(|j| j.retries.len()).sum();
        print_reliability(retries, b.failed(), b.wasted_s, b.wasted_dollars);
        (b.e2e_s, b.dollars)
    };
    dollars += platform.settle_storage(time);
    outln!(
        "{} image(s){}: {:.2}s end-to-end, ${:.6}",
        images,
        if parallel { " in parallel" } else { "" },
        time,
        dollars
    );
    Ok(())
}

/// Whole percentages, comma-separated: `80%, 95%`.
fn percentages(fractions: &[f64]) -> String {
    let pcts: Vec<String> = fractions
        .iter()
        .map(|u| format!("{:.0}%", u * 100.0))
        .collect();
    pcts.join(", ")
}

/// `serve --dag`: deploy the DAG [`dag_serving_plan`] picks and execute
/// requests through the fan-out/fan-in engine. `--parallel` forces the
/// burst trace engine even for a single image (each DAG request already
/// fans its branch nodes out concurrently, so the flag only picks the
/// engine, not the within-request concurrency).
fn serve_dag(g: &LayerGraph, cfg: AmpsConfig, args: &Args) -> Result<(), String> {
    let images: usize = args.get("--images").unwrap_or(1);
    let parallel = args.has("--parallel");
    let plan = dag_serving_plan(g, &cfg)?;
    print_fault_plan(&cfg);
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = coord
        .deploy_effective(&mut platform, g, &plan)
        .map_err(|e| format!("deploy: {e}"))?;
    if images == 1 && coord.config().pipeline_depth == 0 && !parallel {
        let (time, dollars) = serve_single(&coord, &mut platform, &dep, "critical path")?;
        let dollars = dollars + platform.settle_storage(time);
        outln!("1 image(s): {time:.2}s end-to-end, ${dollars:.6}");
        return Ok(());
    }
    // A burst of requests through the trace engine (all arrive at t = 0);
    // storage and warm-pool idle are settled inside the engine.
    let arrivals = vec![0.0; images];
    let trace = coord.serve_trace_dag(&mut platform, &dep, &arrivals);
    outln!(
        "batch: {} succeeded, {} failed",
        trace.requests.len() - trace.failures,
        trace.failures
    );
    let retries: usize = trace.requests.iter().map(|r| r.retries as usize).sum();
    let wasted_s: f64 = trace.requests.iter().map(|r| r.wasted_s).sum();
    let wasted_dollars: f64 = trace.requests.iter().map(|r| r.wasted_dollars).sum();
    print_reliability(retries, trace.failures, wasted_s, wasted_dollars);
    if let Some(stats) = &trace.pipeline {
        outln!(
            "pipeline: {} station(s)/node, utilization {:.1}%, stall {:.2}s",
            stats.stations_per_stage,
            stats.utilization() * 100.0,
            stats.stall_s()
        );
    }
    if args.has("--verbose") {
        if let Some(stats) = &trace.dag_nodes {
            print_dag_node_stats(stats, &node_spans(&plan));
        }
    }
    outln!(
        "{} image(s) fanned out: {:.2}s end-to-end, ${:.6} \
         (storage settlement ${:.6}, warm idle ${:.6} included)",
        images,
        trace.last_completion_s,
        trace.dollars + trace.settled_dollars + trace.idle_dollars,
        trace.settled_dollars,
        trace.idle_dollars
    );
    Ok(())
}

/// Each node's `(first, last)` layer, in node order (a chain's nodes are
/// its partitions).
fn node_spans(plan: &EffectivePlan) -> Vec<(usize, usize)> {
    match plan {
        EffectivePlan::Chain(p) => p.partitions.iter().map(|n| (n.start, n.end)).collect(),
        EffectivePlan::Dag(p) => p.nodes.iter().map(|n| (n.start, n.end)).collect(),
    }
}

/// Per-node busy/stall/occupancy/critical-path table for `--verbose`
/// load and DAG runs — where the plan's time actually went; `spans`
/// names each node's layers.
fn print_dag_node_stats(stats: &DagNodeStats, spans: &[(usize, usize)]) {
    // Pipeline stations genuinely bound per-node concurrency, so the
    // utilization column is an occupancy percentage; scale-out serving
    // adds instances on demand and reports mean concurrency instead.
    let bounded = stats.stations_per_node > 0;
    if bounded {
        outln!(
            "nodes ({} station(s)/node over {:.1}s span):",
            stats.stations_per_node,
            stats.span_s
        );
    } else {
        outln!(
            "nodes (scale-out on demand over {:.1}s span):",
            stats.span_s
        );
    }
    let column = if bounded { "occupancy" } else { "mean-conc" };
    outln!("  node        layers     busy(s)    stall(s)  {column:>9}   critical");
    for (i, &(start, end)) in spans.iter().enumerate() {
        let util = if bounded {
            format!("{:>8.1}%", stats.occupancy(i) * 100.0)
        } else {
            format!("{:>8.1}x", stats.mean_concurrency(i))
        };
        outln!(
            "  {:>4}  {:>12}  {:>10.2}  {:>10.2}  {util}  {:>8.1}%",
            i,
            format!("L{start}..L{end}"),
            stats.busy_s[i],
            stats.stall_s[i],
            stats.critical_share(i) * 100.0
        );
    }
}

/// Parses a `--policy` spec: `default`, `zero`, `prewarm:N`,
/// `provisioned:N` or `keepalive:SECONDS`.
fn parse_policy(spec: &str) -> Result<WarmPoolPolicy, String> {
    let lower = spec.to_ascii_lowercase();
    let (name, arg) = lower.split_once(':').unwrap_or((&lower, ""));
    let bad = || {
        format!(
            "bad --policy value {spec} \
             (need default, zero, prewarm:N, provisioned:N or keepalive:S)"
        )
    };
    let count = || arg.parse::<usize>().map_err(|_| bad());
    match name {
        "default" | "lambda" => Ok(WarmPoolPolicy::lambda_default()),
        "zero" | "scale-to-zero" => Ok(WarmPoolPolicy::scale_to_zero()),
        "prewarm" | "pre-warm" => Ok(WarmPoolPolicy {
            pre_warm: count()?,
            ..WarmPoolPolicy::lambda_default()
        }),
        "provisioned" => Ok(WarmPoolPolicy::provisioned(count()?)),
        "keepalive" | "keep-alive" => match arg.parse::<f64>() {
            Ok(s) if s >= 0.0 => Ok(WarmPoolPolicy::keep_alive(s)),
            _ => Err(bad()),
        },
        _ => Err(bad()),
    }
}

/// Open-loop load mode (`serve --requests M --rate R`): shaped arrivals
/// against the planned deployment on the work-stealing serving engine,
/// with a throughput / percentile summary instead of per-image reports.
/// Every plan serves on the one sharded engine, a chain as a width-1 DAG.
/// With `--dag`, planning runs the chain-vs-DAG objective and serves the
/// winning (or chain-degenerate) DAG — `--adaptive` swaps *effective*
/// plans (chain or DAG per SLO tier) between epochs. `--verbose` prints
/// the per-node busy/stall/occupancy/critical-path table (one row per
/// partition for a chain).
fn serve_load(g: &LayerGraph, cfg: AmpsConfig, args: &Args, requests: usize) -> Result<(), String> {
    let rate: f64 = args.get("--rate").unwrap_or(1.0);
    let lanes: usize = args.get("--lanes").unwrap_or(64);
    // `--threads` drives both the optimizer and the serving workers here;
    // serving results are thread-invariant either way (DESIGN.md §6c).
    let threads = cfg.threads;
    if threads > lanes {
        return Err(format!(
            "--threads {threads} exceeds --lanes {lanes}: a lane never splits \
             across threads, so workers are clamped to the lane count and the \
             extra threads would sit idle; lower --threads or raise --lanes"
        ));
    }
    let shape = match args.value("--shape") {
        Some(v) => ArrivalShape::parse(v).map_err(|e| format!("bad --shape value: {e}"))?,
        None => ArrivalShape::Constant,
    };
    let policy = match args.value("--policy") {
        Some(v) => parse_policy(v)?,
        None => WarmPoolPolicy::lambda_default(),
    };
    let verbose = args.has("--verbose");
    let cfg = cfg
        .with_serve_lanes(lanes)
        .with_serve_threads(threads)
        .with_warm_pool(policy);
    let load = LoadSpec::poisson(rate, requests, 0).with_shape(shape);
    let adaptive = if args.has("--adaptive") {
        let tiers = args
            .list("--slo-tiers")
            .ok_or("--adaptive requires --slo-tiers <a,b,...>")?;
        Some(AdaptiveSpec::new(args.get("--epoch").unwrap_or(64), tiers))
    } else {
        None
    };

    let dag = args.has("--dag");
    let (rep, plan) = match &adaptive {
        Some(adaptive) => {
            let run = if dag {
                run_adaptive_loop_dag
            } else {
                run_adaptive_loop
            };
            let rep =
                run(g, &cfg, &load, adaptive).map_err(|e| format!("adaptive load run: {e}"))?;
            (rep, None)
        }
        None => {
            let plan = if dag {
                dag_serving_plan(g, &cfg)?
            } else {
                EffectivePlan::Chain(chain_serving_plan(g, &cfg)?)
            };
            print_fault_plan(&cfg);
            let rep = match &plan {
                EffectivePlan::Chain(chain) => run_open_loop(g, chain, &cfg, &load),
                EffectivePlan::Dag(d) => run_open_loop_dag(g, d, &cfg, &load),
            }
            .map_err(|e| format!("load run: {e}"))?;
            (rep, Some(plan))
        }
    };

    let workers = match threads {
        0 => "auto".to_string(),
        n => n.to_string(),
    };
    outln!(
        "load: {requests} request(s) at {rate:.1} rps ({} arrivals) over {lanes} lane(s), \
         {workers} worker thread(s)",
        rep.shape
    );
    outln!(
        "latency: p50 {:.3}s  p95 {:.3}s  p99 {:.3}s  over {} success(es)",
        rep.percentile(50.0),
        rep.percentile(95.0),
        rep.percentile(99.0),
        rep.latencies_s.len()
    );
    let served = rep.latencies_s.len() as f64;
    outln!(
        "throughput: {:.2} req/s over {:.1}s simulated makespan",
        if rep.makespan_s > 0.0 {
            served / rep.makespan_s
        } else {
            0.0
        },
        rep.makespan_s
    );
    outln!(
        "platform: {} cold start(s) over {} invocation(s) ({:.1}% cold), \
         peak {} instance(s)",
        rep.cold_starts,
        rep.invocations,
        rep.cold_start_rate() * 100.0,
        rep.peak_instances
    );
    outln!(
        "warm pool: policy {}, {} pre-warmed instance(s), {:.1}s idle \
         (${:.6} billed)",
        rep.policy,
        rep.pre_warmed,
        rep.idle_s,
        rep.idle_dollars
    );
    if cfg.pipeline_depth > 0 {
        outln!(
            "pipeline: depth {} station(s)/stage/lane, utilization {:.1}% [{}], \
             stall {:.2}s",
            cfg.pipeline_depth,
            rep.pipeline_utilization * 100.0,
            percentages(&rep.stage_utilization),
            rep.stall_s
        );
    }
    if verbose {
        if let (Some(stats), Some(plan)) = (&rep.dag_nodes, &plan) {
            print_dag_node_stats(stats, &node_spans(plan));
        }
    }
    if adaptive.is_some() || verbose {
        outln!(
            "plan cache: {} hit(s), {} miss(es), {} re-plan(s)",
            rep.plan_hits,
            rep.plan_misses,
            rep.replans
        );
    }
    if rep.failures > 0 {
        outln!(
            "reliability: {} request(s) exhausted retries \
             (excluded from percentiles, still billed)",
            rep.failures
        );
    }
    outln!("total ${:.6}", rep.dollars);
    Ok(())
}

/// The SLO × batch grid `sweep` plans.
fn sweep_grid(args: &Args) -> Result<SweepGrid, String> {
    let from: f64 = args
        .get("--slo-from")
        .ok_or("sweep requires --slo-from <seconds>")?;
    let to: f64 = args
        .get("--slo-to")
        .ok_or("sweep requires --slo-to <seconds>")?;
    let points = args.get("--points").ok_or("sweep requires --points <n>")?;
    if to < from {
        return Err("bad --slo-to value (need seconds >= --slo-from)".into());
    }
    let batches = args.list("--batches").unwrap_or_else(|| vec![1]);
    Ok(SweepGrid::slo_range(from, to, points).with_batches(batches))
}

/// A sweep point's frontier mark.
fn frontier_mark(knee: bool, dominated: bool) -> &'static str {
    if knee {
        "knee *"
    } else if dominated {
        "dominated"
    } else {
        "pareto"
    }
}

/// `sweep`: plan an entire SLO × batch grid in one amortized call and
/// print the per-batch Pareto frontier (knee flagged) plus the cache
/// amortization summary. `--dag` plans chain-vs-DAG at every point.
fn sweep(args: &Args) -> Result<(), String> {
    let g = load_model(args.model)?;
    let grid = sweep_grid(args)?;
    let cfg = config(args).with_sweep_seeding(!args.has("--no-seed"));
    if args.has("--dag") {
        dag_sweep(&g, cfg, &grid, args.has("--verbose"));
        return Ok(());
    }
    let report = Optimizer::new(cfg).optimize_sweep(&g, &grid);

    outln!(
        "sweep: {} point(s) ({} SLO x {} batch), {} solved",
        report.points.len(),
        grid.slos.len(),
        grid.batches.len(),
        report.solved()
    );
    outln!("  #  batch     slo(s)    time(s)      cost($)  fns  frontier   cache h/m");
    for (i, p) in report.points.iter().enumerate() {
        match &p.outcome {
            Ok(plan) => outln!(
                "{i:>3} {:>6} {:>10.3} {:>10.3} {:>12.6} {:>4}  {:<10} {:>5}/{}",
                p.batch,
                p.slo_s,
                plan.predicted_time_s,
                plan.predicted_cost,
                plan.num_lambdas(),
                frontier_mark(p.knee, p.dominated),
                p.stats.cache_hits,
                p.stats.cache_misses
            ),
            Err(e) => outln!("{i:>3} {:>6} {:>10.3}  {e}", p.batch, p.slo_s),
        }
        if args.has("--verbose") {
            outln!(
                "      solver: {} miqp(s), {} pruned, {} b&b nodes, seeded={} fallback={}, {:?}",
                p.stats.miqps_solved,
                p.stats.miqps_pruned,
                p.stats.bb_nodes,
                p.stats.seeded,
                p.stats.seed_fallback,
                p.stats.solve_time
            );
        }
    }
    let seeded = report.points.iter().filter(|p| p.stats.seeded).count();
    let fallbacks = report
        .points
        .iter()
        .filter(|p| p.stats.seed_fallback)
        .count();
    outln!("seeding: {seeded} point(s) bound-seeded, {fallbacks} cold fallback(s)");
    outln!(
        "columns: {} cache hits, {} misses cumulative (shared pass 1: {:?})",
        report.cache_hits,
        report.cache_misses,
        report.pass1_time
    );
    outln!(
        "planned {} point(s) over {} cut(s) in {:?} on {} thread(s)",
        report.points.len(),
        report.cuts_considered,
        report.total_time,
        report.threads_used
    );
    Ok(())
}

/// `sweep --dag`: amortized chain-vs-DAG planning over the SLO × batch
/// grid. Segment columns, branch-region candidates and the node/spine
/// memos are shared across every point of a batch; the table prints both
/// verdicts per point, and the frontier/knee marks apply to each point's
/// *effective* plan (the DAG when it won, else the chain).
fn dag_sweep(g: &LayerGraph, cfg: AmpsConfig, grid: &SweepGrid, verbose: bool) {
    let report = Optimizer::new(cfg).optimize_dag_sweep(g, grid);

    outln!(
        "dag sweep: {} point(s) ({} SLO x {} batch), {} solved, {} DAG win(s) \
         over {} branch region(s)",
        report.points.len(),
        grid.slos.len(),
        grid.batches.len(),
        report.solved(),
        report.dag_wins(),
        report.regions_considered
    );
    outln!(
        "  #  batch     slo(s)   chain(s)     chain($)     dag(s)       dag($)   win  frontier  "
    );
    for (i, p) in report.points.iter().enumerate() {
        match &p.outcome {
            Ok(plan) => {
                let (dag_s, dag_usd, win) = match &p.dag {
                    Some(d) => (
                        format!("{:>10.3}", d.predicted_time_s),
                        format!("{:>12.6}", d.predicted_cost),
                        "dag",
                    ),
                    None => (format!("{:>10}", "-"), format!("{:>12}", "-"), "chain"),
                };
                outln!(
                    "{i:>3} {:>6} {:>10.3} {:>10.3} {:>12.6} {dag_s} {dag_usd} {win:>5}  {}",
                    p.batch,
                    p.slo_s,
                    plan.predicted_time_s,
                    plan.predicted_cost,
                    frontier_mark(p.knee, p.dominated)
                );
            }
            Err(e) => outln!("{i:>3} {:>6} {:>10.3}  {e}", p.batch, p.slo_s),
        }
        if verbose {
            outln!(
                "      search: {} trial(s), {} region(s) accepted, node evals {} hit / \
                 {} miss, spine spans {} reused / {} solved, {:?}",
                p.search.trials_evaluated,
                p.regions_used,
                p.search.node_memo_hits,
                p.search.node_memo_misses,
                p.search.spine_span_hits,
                p.search.spine_spans_solved,
                p.search.search_time
            );
        }
    }
    outln!(
        "columns: {} cache hits, {} misses cumulative (shared pass 1: {:?})",
        report.cache_hits,
        report.cache_misses,
        report.pass1_time
    );
    outln!(
        "dag memos: node evals {} hit / {} miss, spine spans {} reused / {} solved",
        report.node_memo_hits,
        report.node_memo_misses,
        report.spine_span_hits,
        report.spine_spans_solved
    );
    outln!(
        "planned {} point(s) over {} cut(s) in {:?} on {} thread(s)",
        report.points.len(),
        report.cuts_considered,
        report.total_time,
        report.threads_used
    );
}

/// Configured fault-injection summary (printed when injection is active).
fn print_fault_plan(cfg: &AmpsConfig) {
    if cfg.faults.enabled() {
        outln!(
            "fault injection: crash {:.0}%, timeout {:.0}%, cold-start {:.0}% (seed {}); \
             retry budget {}, backoff base {:.2}s",
            cfg.faults.crash_rate * 100.0,
            cfg.faults.timeout_rate * 100.0,
            cfg.faults.cold_start_failure_rate * 100.0,
            cfg.faults.seed,
            cfg.invoke_retries,
            cfg.backoff_base_s
        );
    }
}

/// Reliability summary line: what failures cost this run.
fn print_reliability(retries: usize, failed: usize, wasted_s: f64, wasted_dollars: f64) {
    if retries > 0 || failed > 0 || wasted_s > 0.0 {
        outln!(
            "reliability: {retries} retried attempt(s), {failed} failed image(s), \
             {wasted_s:.2}s and ${wasted_dollars:.6} wasted on failures"
        );
    }
}

/// `--verbose` companion block: solver-internals counters from the run.
fn print_solver_stats(r: &amps_inf::core::optimizer::OptimizerReport) {
    outln!(
        "solver: {} b&b nodes, {} qp relaxations, {} warm-started, {} cuts dual-pruned",
        r.bb_nodes,
        r.qp_relaxations,
        r.warm_start_hits,
        r.miqps_pruned
    );
    outln!(
        "columns: {} cache hits, {} misses",
        r.column_cache_hits,
        r.column_cache_misses
    );
}

fn load_model(arg: Option<&str>) -> Result<LayerGraph, String> {
    let Some(name) = arg else {
        return Err("missing model name or file".into());
    };
    if let Some(g) = zoo::by_name(name) {
        return Ok(g);
    }
    if std::path::Path::new(name).exists() {
        let s = std::fs::read_to_string(name).map_err(|e| e.to_string())?;
        return amps_inf::model::serialize::from_json(&s);
    }
    Err(format!(
        "unknown model '{name}' (try `ampsinf models`) and no such file"
    ))
}
