//! The Coordinator component (paper §4): package each partition, deploy
//! the lambdas, move each request through storage, return the prediction.
//!
//! # One sharded serving engine (DESIGN.md §6c–§6e)
//!
//! A chain plan deploys as the width-1 DAG [`DagPlan::from_chain`]
//! builds, so every plan is served as a [`DagDeployment`].
//! [`AmpsConfig::pipeline_depth`] picks the execution mode: 0 scales
//! instances out on demand, `d > 0` bounds every node to `d` stations per
//! lane. The batch/trace engines split the platform into
//! [`AmpsConfig::serve_lanes`] warm-pool shards ("lanes"). Request `i` is
//! pinned to lane `i % serve_lanes` and only ever sees that lane's warm
//! instances — a would-be warm hit on another lane's container is simply a
//! cold start on its own lane (the reconciliation rule: shards are
//! disjoint by construction, so no cross-shard state ever needs merging
//! mid-run). Worker threads *steal whole chunks of a lane's request
//! sequence* from a shared queue: a lane's state (platform, scratch,
//! stations, results) travels with its task, so which worker runs which
//! chunk can never change what the chunk computes. That keeps every report
//! bit-identical at every thread count: the lane a request runs on, the
//! per-request RNG streams ([`Platform::begin_request`]), the order of
//! requests within a lane, and the merge order (requests in global index
//! order, shards in lane order) are all functions of the request index
//! alone — workers only race for *which lane advances next*.

use crate::config::AmpsConfig;
use crate::plan::{DagPlan, ExecutionPlan};
use ampsinf_faas::platform::{
    DeployError, FailedInvocation, FunctionId, InvocationWork, InvokeError, Platform,
};
use ampsinf_faas::runtime::{PartitionWork, StationPool};
use ampsinf_faas::{InvocationOutcome, ObjectKey};
use ampsinf_model::LayerGraph;
use std::fmt::Write as _;

/// One retried partition attempt: what failed, and the backoff the
/// coordinator waited before re-invoking. Because intermediates live in
/// S3, the retry resumed from the last checkpointed boundary — only the
/// failed partition re-ran.
#[derive(Debug, Clone)]
pub struct RetryRecord {
    /// Chain position of the partition that failed.
    pub lambda: usize,
    /// The failed attempt, with its billing.
    pub failed: FailedInvocation,
    /// Exponential backoff waited after the failure, seconds.
    pub backoff_s: f64,
}

/// Why a request could not be served, plus what finding out cost.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// The final attempt's failure.
    pub reason: InvokeError,
    /// Chain position of the partition that exhausted its budget.
    pub lambda: usize,
    /// Attempts made on that partition (1 = no retries).
    pub attempts: u32,
    /// Wall-clock from the request trigger to giving up.
    pub elapsed_s: f64,
    /// Dollars the doomed request billed before giving up (successful
    /// upstream partitions plus every failed attempt).
    pub dollars: f64,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lambda {} failed after {} attempt(s), {:.2} s, ${:.6}: {}",
            self.lambda, self.attempts, self.elapsed_s, self.dollars, self.reason
        )
    }
}

impl std::error::Error for ServeError {}

/// Measurements of one served request (the paper's per-figure metrics).
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job deployment time (once per job).
    pub deploy_s: f64,
    /// Sum of per-lambda model+weights loading time (paper Fig. 5).
    pub load_s: f64,
    /// Sum of per-lambda framework-import time (not part of Fig. 5's
    /// "loading", reported separately).
    pub import_s: f64,
    /// Sum of per-lambda compute time (paper Fig. 6 "prediction time").
    pub predict_s: f64,
    /// Chain wall-clock from trigger to prediction (excludes deployment).
    pub inference_s: f64,
    /// End-to-end completion: deployment + inference (paper §2.2.1).
    pub e2e_s: f64,
    /// Dollars directly billed to this request (compute + requests +
    /// storage fees), including every failed attempt's bill.
    pub dollars: f64,
    /// Per-lambda successful outcomes in chain order.
    pub outcomes: Vec<InvocationOutcome>,
    /// Failed attempts that were retried, in occurrence order.
    pub retries: Vec<RetryRecord>,
    /// Wall-clock lost to failures: retried attempts, their backoffs, and
    /// storage-retry stalls inside successful invocations. Zero on a
    /// clean run.
    pub wasted_s: f64,
    /// Dollars lost to failures: failed attempts' bills plus the marginal
    /// GB-seconds the storage stalls billed. Zero on a clean run; part of
    /// `dollars`.
    pub wasted_dollars: f64,
}

/// One image of a batch that exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct BatchFailure {
    /// Batch position of the failed image.
    pub image: usize,
    /// How and at what cost it failed.
    pub error: ServeError,
}

/// A batch serving result (paper §5.4). Infallible: a dead image no
/// longer poisons the batch — it lands in `failures` while the rest of
/// the batch completes.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Wall-clock completion of the whole batch (excluding deployment).
    pub completion_s: f64,
    /// Completion including the one-off deployment.
    pub e2e_s: f64,
    /// Total dollars for the batch, failed images included.
    pub dollars: f64,
    /// Per-image reports of the successful images.
    pub jobs: Vec<JobReport>,
    /// Images that exhausted their retry budget.
    pub failures: Vec<BatchFailure>,
    /// Wall-clock lost to failures across the batch (successful images'
    /// retry/backoff/storage-stall time plus failed images' full elapsed
    /// time).
    pub wasted_s: f64,
    /// Dollars lost to failures across the batch (part of `dollars`).
    pub wasted_dollars: f64,
}

impl BatchReport {
    /// Number of images served successfully.
    pub fn succeeded(&self) -> usize {
        self.jobs.len()
    }

    /// Number of images that failed past their retry budget.
    pub fn failed(&self) -> usize {
        self.failures.len()
    }
}

/// Per-node invocation scalars of a deployed DAG node, precomputed at
/// deploy time so the serving hot path only patches storage keys.
#[derive(Debug, Clone, Copy)]
struct DagNodeWork {
    load_bytes: u64,
    flops: u64,
    resident_bytes: u64,
    tmp_bytes: u64,
}

/// A deployed DAG of partition lambdas ([`Coordinator::deploy_dag`], or
/// [`Coordinator::deploy`] for a chain, which is a width-1 DAG). Node `v`
/// becomes ready when every object it reads has been written — fan-out
/// nodes of a scatter all read the same object and therefore start
/// concurrently; the gather node waits for the last branch; on a chain,
/// partition `i + 1` waits for partition `i`.
#[derive(Debug, Clone)]
pub struct DagDeployment {
    /// Function ids in node (topological) order.
    pub functions: Vec<FunctionId>,
    /// Wall-clock deployment duration (uploads proceed in parallel).
    pub deploy_s: f64,
    /// Per-node invocation scalars in node order.
    scalars: Vec<DagNodeWork>,
    /// CSR offsets into `reads_obj`/`read_producer`: node `v` reads the
    /// entries in `reads_off[v]..reads_off[v + 1]`.
    reads_off: Vec<u32>,
    /// Object index of every read, node-major, in object order within a
    /// node — the per-request invocation template the hot path patches
    /// keys into.
    reads_obj: Vec<u32>,
    /// Producer node of the matching `reads_obj` entry, so the ready-time
    /// recurrence folds over one flat slice with no per-object
    /// indirection.
    read_producer: Vec<u32>,
    /// CSR offsets into `writes`: node `v` writes the entries in
    /// `writes_off[v]..writes_off[v + 1]`.
    writes_off: Vec<u32>,
    /// `(object index, bytes)` of every write, node-major, in object
    /// order within a node.
    writes: Vec<(u32, u64)>,
    /// Number of inter-node storage objects.
    num_objects: usize,
}

impl DagDeployment {
    /// Number of inter-node storage objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Object indices node `v` reads, in object order.
    #[inline]
    fn reads_of(&self, v: usize) -> &[u32] {
        &self.reads_obj[self.reads_off[v] as usize..self.reads_off[v + 1] as usize]
    }

    /// Producer nodes of the objects node `v` reads (parallel to
    /// [`reads_of`](Self::reads_of)).
    #[inline]
    fn producers_of(&self, v: usize) -> &[u32] {
        &self.read_producer[self.reads_off[v] as usize..self.reads_off[v + 1] as usize]
    }

    /// `(object, bytes)` pairs node `v` writes, in object order.
    #[inline]
    fn writes_of(&self, v: usize) -> &[(u32, u64)] {
        &self.writes[self.writes_off[v] as usize..self.writes_off[v + 1] as usize]
    }
}

/// Per-node observability of a DAG trace (DESIGN.md §7): how long every
/// node's sandboxes executed, how long ready work sat waiting in front of
/// each node, and how much of the requests' end-to-end latency each node
/// sat on. Accumulated per lane inside [`DagServeScratch`] and summed in
/// lane order, so the values are bit-identical at every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNodeStats {
    /// Execution stations per node the occupancy is measured against:
    /// `pipeline_depth × lanes` when pipelined, where stations genuinely
    /// bound per-node concurrency. Scale-out serving adds instances on
    /// demand (no per-node capacity bound) and reports 0 — use
    /// [`DagNodeStats::mean_concurrency`] there.
    pub stations_per_node: usize,
    /// Successful-attempt execution seconds per node.
    pub busy_s: Vec<f64>,
    /// Seconds requests spent stalled in front of each node: the gap
    /// between its inputs being checkpointed and the successful attempt
    /// starting (retry backoff, and station waits when pipelined), plus
    /// storage-retry stalls inside the attempt.
    pub stall_s: Vec<f64>,
    /// Seconds each node contributed to request critical paths: per
    /// request, the walk from the last-finishing node back through each
    /// node's latest-finishing input producer (first such producer on
    /// ties) accumulates the successful-attempt duration of every node on
    /// the path.
    pub crit_s: Vec<f64>,
    /// Wall-clock span of the run (first arrival → last completion).
    pub span_s: f64,
}

impl DagNodeStats {
    /// Fraction of the run each node's stations spent executing (0 when
    /// the engine has no station bound — see
    /// [`DagNodeStats::stations_per_node`]).
    pub fn occupancy(&self, node: usize) -> f64 {
        if self.span_s > 0.0 && self.stations_per_node > 0 {
            self.busy_s[node] / (self.span_s * self.stations_per_node as f64)
        } else {
            0.0
        }
    }

    /// Mean number of concurrently-executing instances of `node` over
    /// the run (busy seconds per wall-clock second) — the scale-out
    /// measure for unbounded scale-out serving.
    pub fn mean_concurrency(&self, node: usize) -> f64 {
        if self.span_s > 0.0 {
            self.busy_s[node] / self.span_s
        } else {
            0.0
        }
    }

    /// Fraction of all critical-path seconds attributed to `node`.
    pub fn critical_share(&self, node: usize) -> f64 {
        let total: f64 = self.crit_s.iter().sum();
        if total > 0.0 {
            self.crit_s[node] / total
        } else {
            0.0
        }
    }

    /// Total stall across all nodes.
    pub fn stall_s(&self) -> f64 {
        self.stall_s.iter().sum()
    }

    /// Total busy across all nodes.
    pub fn busy_s(&self) -> f64 {
        self.busy_s.iter().sum()
    }
}

/// Reusable per-request buffers for the DAG serving hot path: one
/// [`InvocationWork`] per node whose storage-key slots are patched in
/// place each request, the per-node completion/duration times the ready
/// recurrence and critical-path walk fold over, and the per-node
/// busy/stall/critical accumulators the trace engine merges in lane
/// order.
#[derive(Debug, Clone)]
pub struct DagServeScratch {
    works: Vec<InvocationWork>,
    keys: Vec<ObjectKey>,
    /// Completion time of each node for the request in flight.
    finish: Vec<f64>,
    /// Successful-attempt duration of each node for the request in
    /// flight (critical-path walk input).
    dur: Vec<f64>,
    /// Per-node accumulators across this lane's requests.
    busy_s: Vec<f64>,
    stall_s: Vec<f64>,
    crit_s: Vec<f64>,
    buf: String,
    primed: bool,
}

impl DagServeScratch {
    /// Scratch sized for `dep`'s node count.
    pub fn for_deployment(dep: &DagDeployment) -> Self {
        let k = dep.functions.len();
        DagServeScratch {
            works: vec![InvocationWork::default(); k],
            keys: Vec::with_capacity(dep.num_objects()),
            finish: vec![0.0; k],
            dur: vec![0.0; k],
            busy_s: vec![0.0; k],
            stall_s: vec![0.0; k],
            crit_s: vec![0.0; k],
            buf: String::new(),
            primed: false,
        }
    }

    /// Refills every node's work profile from the deployment's scalars
    /// and per-object keys produced by `key_of`.
    fn fill_works(&mut self, dep: &DagDeployment, key_of: impl Fn(u32) -> ObjectKey) {
        for (v, w) in self.works.iter_mut().enumerate() {
            let s = dep.scalars[v];
            w.load_bytes = s.load_bytes;
            w.flops = s.flops;
            w.resident_bytes = s.resident_bytes;
            w.tmp_bytes = s.tmp_bytes;
            w.reads.clear();
            w.reads.extend(dep.reads_of(v).iter().map(|&o| key_of(o)));
            w.writes.clear();
            w.writes.extend(
                dep.writes_of(v)
                    .iter()
                    .map(|&(o, bytes)| (key_of(o), bytes)),
            );
        }
    }

    /// Resizes the per-node buffers for `dep` (no-op when already sized;
    /// [`fill_works`](Self::fill_works) overwrites every work field, so
    /// the work buffers keep their capacity across requests).
    fn resize_for(&mut self, dep: &DagDeployment) {
        let k = dep.functions.len();
        self.works.resize(k, InvocationWork::default());
        self.finish.resize(k, 0.0);
        self.dur.resize(k, 0.0);
        self.busy_s.resize(k, 0.0);
        self.stall_s.resize(k, 0.0);
        self.crit_s.resize(k, 0.0);
    }

    /// Interns this request's object keys (`{tag}/b{o}`, one per object in
    /// object order — boundary `o` on a chain) and refills the per-node
    /// work profiles.
    pub fn prepare(&mut self, platform: &mut Platform, dep: &DagDeployment, tag: &str) {
        self.resize_for(dep);
        self.keys.clear();
        self.primed = false;
        for o in 0..dep.num_objects() {
            self.buf.clear();
            let _ = write!(self.buf, "{tag}/b{o}");
            self.keys.push(platform.store.intern(&self.buf));
        }
        let keys = std::mem::take(&mut self.keys);
        self.fill_works(dep, |o| keys[o as usize]);
        self.keys = keys;
    }

    /// Prepares this request with *anonymous* object keys — the trace
    /// engine's hot path. Keys are drawn as one contiguous block in
    /// object order, so the draws are a function of the request alone
    /// (flaky-store fate parity across engines and modes). The first call
    /// builds the full work profiles; every later call only allocates the
    /// key block and patches the keys into the existing read/write slots
    /// — per-request setup is O(reads + writes) stores with no Vec
    /// growth, clearing, or per-object allocator calls.
    pub fn prepare_anon(&mut self, platform: &mut Platform, dep: &DagDeployment) {
        let k = dep.functions.len();
        let base = platform.store.fresh_block(dep.num_objects());
        if !self.primed || self.works.len() != k {
            self.resize_for(dep);
            self.fill_works(dep, |o| base.offset(o));
            self.primed = true;
            return;
        }
        // The wiring is fixed per plan: every read/write slot position is
        // the same for every request, so only the keys change.
        for (v, w) in self.works.iter_mut().enumerate() {
            for (slot, &o) in dep.reads_of(v).iter().enumerate() {
                w.reads[slot] = base.offset(o);
            }
            for (slot, &(o, _)) in dep.writes_of(v).iter().enumerate() {
                w.writes[slot].0 = base.offset(o);
            }
        }
    }

    /// Checkpoint-ready instant of node `v` for the request in flight:
    /// when the last object it reads was written, or `t0` for the root.
    #[inline]
    fn ready_at(&self, dep: &DagDeployment, v: usize, t0: f64) -> f64 {
        dep.producers_of(v)
            .iter()
            .fold(t0, |ready, &p| ready.max(self.finish[p as usize]))
    }

    /// Drains this lane's per-node accumulators into `stats` (summed in
    /// lane order by the trace engine).
    fn drain_into(&mut self, stats: &mut DagNodeStats) {
        for v in 0..self.busy_s.len() {
            stats.busy_s[v] += self.busy_s[v];
            stats.stall_s[v] += self.stall_s[v];
            stats.crit_s[v] += self.crit_s[v];
        }
    }
}

/// Scalar per-request result of [`Coordinator::serve_trace_dag`] — everything
/// the load generator aggregates, without the per-outcome detail of a
/// [`JobReport`] (which would dominate allocation on 100k-request runs).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSummary {
    /// Request arrival time.
    pub arrival_s: f64,
    /// Arrival → prediction (success) or arrival → gave-up (failure).
    pub latency_s: f64,
    /// Dollars this request billed, failed attempts included.
    pub dollars: f64,
    /// Failed attempts that were retried.
    pub retries: u32,
    /// Wall-clock lost to failures (see [`JobReport::wasted_s`]).
    pub wasted_s: f64,
    /// Dollars lost to failures (part of `dollars`).
    pub wasted_dollars: f64,
    /// Whether the request produced a prediction.
    pub ok: bool,
}

/// Aggregated pipeline-station measurements of a pipelined run
/// (DESIGN.md §6e): per-stage occupancy and stall, plus the span the
/// utilization is measured against. Summed over lanes in lane order, so
/// the values are bit-identical at every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Total stations per stage across all lanes
    /// (`pipeline_depth × lanes`).
    pub stations_per_stage: usize,
    /// Station-occupied seconds per stage (the utilization numerator),
    /// indexed by node (chain position on a chain).
    pub stage_busy_s: Vec<f64>,
    /// Ready-but-waiting seconds per stage: how long requests whose input
    /// tensor was already checkpointed sat queued for a free station.
    /// Stage 0's stall is admission queueing; later stages' stall is the
    /// cost of an imbalanced cut (the quantity PipeServe partitions to
    /// minimize).
    pub stage_stall_s: Vec<f64>,
    /// Wall-clock span of the run (first entry → last completion).
    pub span_s: f64,
}

impl PipelineStats {
    /// Total stall across all stages.
    pub fn stall_s(&self) -> f64 {
        self.stage_stall_s.iter().sum()
    }

    /// Per-stage utilization: busy seconds over the stage's total
    /// station-seconds (`stations_per_stage × span`).
    pub fn stage_utilization(&self) -> Vec<f64> {
        let denom = self.stations_per_stage as f64 * self.span_s;
        self.stage_busy_s
            .iter()
            .map(|&b| if denom > 0.0 { b / denom } else { 0.0 })
            .collect()
    }

    /// Mean utilization across stages.
    pub fn utilization(&self) -> f64 {
        let u = self.stage_utilization();
        if u.is_empty() {
            0.0
        } else {
            u.iter().sum::<f64>() / u.len() as f64
        }
    }
}

/// Result of [`Coordinator::serve_pipelined`] — the closed-loop pipelined
/// counterpart of [`Coordinator::serve_sequential`]'s [`BatchReport`],
/// reduced to the scalars the throughput comparison needs plus the
/// pipeline-station measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Wall-clock completion of the whole batch (excluding deployment).
    pub completion_s: f64,
    /// Completion including the one-off deployment.
    pub e2e_s: f64,
    /// Total dollars, failed requests included.
    pub dollars: f64,
    /// Requests that exhausted their retry budget.
    pub failed: usize,
    /// Per-request summaries in submission order.
    pub requests: Vec<RequestSummary>,
    /// Station occupancy / stall measurements.
    pub stats: PipelineStats,
    /// Idle warm seconds the platform's containers accrued between
    /// reuses during this run ([`Platform::warm_idle_accrued`] delta) —
    /// the "warm instances sitting idle" the pipeline exists to shrink.
    pub warm_idle_s: f64,
}

/// Result of serving an arrival trace through the sharded engine.
///
/// Bit-identical at every [`AmpsConfig::serve_threads`] setting; depends
/// on [`AmpsConfig::serve_lanes`] (a model parameter) only.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-request summaries, in arrival (request-index) order.
    pub requests: Vec<RequestSummary>,
    /// Total invocation dollars across all requests (settlement excluded).
    pub dollars: f64,
    /// At-rest storage settlement, billed at the last completion.
    pub settled_dollars: f64,
    /// Completion time of the last request (absolute, same clock as the
    /// arrivals).
    pub last_completion_s: f64,
    /// Cold starts across all partitions and lanes.
    pub cold_starts: usize,
    /// Peak live container instances across partitions (lanes summed).
    pub peak_instances: usize,
    /// Requests that exhausted their retry budget.
    pub failures: usize,
    /// Lambda invocations attempted across all lanes (successes and
    /// failed attempts).
    pub invocations: u64,
    /// Instances pre-warmed by the warm-pool policy across all lanes.
    pub pre_warmed: usize,
    /// Idle warm-pool seconds settled at the last completion (see
    /// [`Platform::settle_warm_pool`]).
    pub idle_s: f64,
    /// Dollars the warm-pool policy billed for that idle time (0 unless
    /// the policy bills idle capacity; part of no other total).
    pub idle_dollars: f64,
    /// Pipeline-station measurements when a single deployment ran with
    /// stations ([`Coordinator::serve_trace_dag`] at
    /// [`AmpsConfig::pipeline_depth`] > 0); `None` at depth 0 and on the
    /// multi-deployment [`Coordinator::serve_trace_assigned_dag`].
    pub pipeline: Option<PipelineStats>,
    /// Per-node busy/stall/critical-path measurements when the trace ran
    /// a single deployment ([`Coordinator::serve_trace_dag`]) — a chain
    /// reports one row per partition; `None` on the multi-deployment
    /// [`Coordinator::serve_trace_assigned_dag`].
    pub dag_nodes: Option<DagNodeStats>,
}

/// One lane's collection slot in the lane runner: its
/// per-request results plus the shard platform and lane-carried state,
/// filled exactly once.
type LaneSlot<R, S> = Option<(Vec<R>, Platform, S)>;

/// A trace lane's state for one deployment: the request scratch and, when
/// pipelined, one station pool per node.
type LaneDeployment = (DagServeScratch, Vec<StationPool>);

/// The Coordinator: executes plans on a platform.
#[derive(Debug, Clone)]
pub struct Coordinator {
    cfg: AmpsConfig,
}

impl Coordinator {
    /// Creates a coordinator.
    pub fn new(cfg: AmpsConfig) -> Self {
        Coordinator { cfg }
    }

    /// The configuration this coordinator serves under.
    pub fn config(&self) -> &AmpsConfig {
        &self.cfg
    }

    /// Builds a platform matching this coordinator's configuration,
    /// including its fault injection plan.
    pub fn platform(&self) -> Platform {
        Platform::new(
            self.cfg.quotas,
            self.cfg.prices,
            self.cfg.perf,
            self.cfg.store,
        )
        .with_fault_plan(self.cfg.faults.clone())
        .with_warm_pool(self.cfg.warm_pool)
    }

    /// Packages and deploys every partition of a chain `plan` as the
    /// width-1 DAG [`DagPlan::from_chain`] builds: partition `i` becomes
    /// node `i` and boundary `i` becomes object `i`, sized by
    /// [`LayerGraph::cut_transfer_bytes`] (skip tensors included).
    pub fn deploy(
        &self,
        platform: &mut Platform,
        graph: &LayerGraph,
        plan: &ExecutionPlan,
    ) -> Result<DagDeployment, DeployError> {
        plan.validate(graph.num_layers())
            .expect("structurally valid plan");
        let dag = DagPlan::from_chain(plan, |k| graph.cut_transfer_bytes(k));
        self.deploy_dag(platform, graph, &dag)
    }

    /// Packages and deploys every node of a branch-parallel DAG `plan`.
    ///
    /// Each node gets its own lambda (`{model}-node{v}`); each
    /// [`DagObject`](crate::plan::DagObject) becomes one storage object
    /// per request, uploaded once by its producer and downloaded once per
    /// consumer — the scatter/gather request fees and lifetime-billed
    /// bytes ride on exactly those transfers. The staged input that feeds
    /// a node's `/tmp` and resident footprint is the sum of the objects it
    /// reads (the root's image arrives with the trigger, as in the chain).
    pub fn deploy_dag(
        &self,
        platform: &mut Platform,
        graph: &LayerGraph,
        plan: &DagPlan,
    ) -> Result<DagDeployment, DeployError> {
        plan.validate(graph.num_layers())
            .expect("structurally valid plan");
        let n = plan.nodes.len();
        let mut functions = Vec::with_capacity(n);
        let mut scalars = Vec::with_capacity(n);
        let mut reads_off = Vec::with_capacity(n + 1);
        let mut reads_obj = Vec::new();
        let mut read_producer = Vec::new();
        let mut writes_off = Vec::with_capacity(n + 1);
        let mut writes = Vec::new();
        reads_off.push(0u32);
        writes_off.push(0u32);
        let mut deploy_s = 0.0f64;
        for (v, node) in plan.nodes.iter().enumerate() {
            let work = PartitionWork::from_segment(graph, node.start, node.end);
            let spec = work.function_spec(format!("{}-node{v}", plan.model), node.memory_mb);
            let (fid, d) = platform.deploy(spec)?;
            functions.push(fid);
            deploy_s = deploy_s.max(d); // parallel uploads
            let reads = plan.inputs_of(v);
            for &o in &reads {
                reads_obj.push(o as u32);
                read_producer.push(plan.objects[o].producer as u32);
            }
            reads_off.push(reads_obj.len() as u32);
            for o in plan.outputs_of(v) {
                writes.push((o as u32, plan.objects[o].bytes));
            }
            writes_off.push(writes.len() as u32);
            let input_bytes = if reads.is_empty() {
                work.seg.input_bytes
            } else {
                reads.iter().map(|&o| plan.objects[o].bytes).sum()
            };
            scalars.push(DagNodeWork {
                load_bytes: work.seg.weight_bytes,
                flops: work.seg.flops,
                resident_bytes: 2 * work.seg.weight_bytes + work.seg.activation_bytes + input_bytes,
                tmp_bytes: work.seg.weight_bytes + input_bytes,
            });
        }
        Ok(DagDeployment {
            functions,
            deploy_s,
            scalars,
            reads_off,
            reads_obj,
            read_producer,
            writes_off,
            writes,
            num_objects: plan.objects.len(),
        })
    }

    /// Serves one request through a deployment, starting at `t0`.
    ///
    /// `tag` disambiguates intermediate-object keys between requests.
    ///
    /// Node `v` is invoked at the *checkpoint-ready* instant: the maximum
    /// over its parents' completion times (the instant the last object it
    /// reads finished its PUT), or `t0` for the root. On a chain that is
    /// the previous partition's end; scatter siblings run concurrently in
    /// simulated time, so `inference_s` is the critical path (max node
    /// completion − `t0`) while `dollars` sums every sandbox.
    ///
    /// A failed invocation with a transient cause is retried up to
    /// [`AmpsConfig::invoke_retries`] times with exponential backoff
    /// (`backoff_base_s · 2^(n-1)`). Because every input object is
    /// already checkpointed in storage, a retry resumes from there: only
    /// the failed node re-runs, never the request. Retried attempts are
    /// billed (real Lambda bills failures) and surfaced in
    /// [`JobReport::retries`]/`wasted_s`/`wasted_dollars`.
    pub fn serve_one_dag(
        &self,
        platform: &mut Platform,
        dep: &DagDeployment,
        t0: f64,
        tag: &str,
    ) -> Result<JobReport, ServeError> {
        let mut scratch = DagServeScratch::for_deployment(dep);
        scratch.prepare(platform, dep, tag);
        self.serve_one_dag_with(platform, dep, t0, &mut scratch)
    }

    /// [`serve_one_dag`](Self::serve_one_dag) over pre-interned keys and
    /// reused work buffers — the allocation-free hot path of the batch
    /// engines. `scratch` must have been
    /// [`prepare`](DagServeScratch::prepare)d for this request's tag on
    /// this platform.
    pub fn serve_one_dag_with(
        &self,
        platform: &mut Platform,
        dep: &DagDeployment,
        t0: f64,
        scratch: &mut DagServeScratch,
    ) -> Result<JobReport, ServeError> {
        let k = dep.functions.len();
        let mut outcomes: Vec<InvocationOutcome> = Vec::with_capacity(k);
        let mut retries: Vec<RetryRecord> = Vec::new();
        for v in 0..k {
            let ready = scratch.ready_at(dep, v, t0);
            let retried_before = retries.len();
            let result = self.invoke_with_retry(
                platform,
                dep.functions[v],
                ready,
                &scratch.works[v],
                |failed, backoff_s| {
                    retries.push(RetryRecord {
                        lambda: v,
                        failed,
                        backoff_s,
                    })
                },
            );
            let out = match result {
                Ok(out) => out,
                Err(failed) => {
                    let attempts = (retries.len() - retried_before) as u32 + 1;
                    let wasted: f64 =
                        retries.iter().map(|r| r.failed.dollars).sum::<f64>() + failed.dollars;
                    let spent: f64 = outcomes.iter().map(|o| o.dollars).sum::<f64>() + wasted;
                    return Err(ServeError {
                        reason: failed.reason,
                        lambda: v,
                        attempts,
                        elapsed_s: failed.end - t0,
                        dollars: spent,
                    });
                }
            };
            scratch.finish[v] = out.end;
            outcomes.push(out);
        }
        let load_s: f64 = outcomes.iter().map(|o| o.breakdown.load_s).sum();
        let import_s: f64 = outcomes.iter().map(|o| o.breakdown.import_s).sum();
        let predict_s: f64 = outcomes.iter().map(|o| o.breakdown.compute_s).sum();
        let retry_dollars: f64 = retries.iter().map(|r| r.failed.dollars).sum();
        let retry_s: f64 = retries
            .iter()
            .map(|r| r.failed.duration() + r.backoff_s)
            .sum();
        let stall_s: f64 = outcomes.iter().map(|o| o.storage_retry_s).sum();
        // Marginal GB-seconds the storage stalls billed inside the
        // otherwise-successful invocations (attribution, not a new charge).
        let stall_dollars: f64 = outcomes
            .iter()
            .zip(&dep.functions)
            .map(|(o, fid)| {
                let mem = platform.spec(*fid).map_or(0, |s| s.memory_mb);
                self.cfg.prices.lambda_compute_cost(o.storage_retry_s, mem)
            })
            .sum();
        let dollars: f64 = outcomes.iter().map(|o| o.dollars).sum::<f64>() + retry_dollars;
        // Critical path, not sum: concurrent branches overlap.
        let inference_s = scratch.finish[..k].iter().fold(t0, |a, &b| a.max(b)) - t0;
        Ok(JobReport {
            deploy_s: dep.deploy_s,
            load_s,
            import_s,
            predict_s,
            inference_s,
            e2e_s: dep.deploy_s + inference_s,
            dollars,
            outcomes,
            retries,
            wasted_s: retry_s + stall_s,
            wasted_dollars: retry_dollars + stall_dollars,
        })
    }

    /// Invokes `fid` at `start` and retries transient failures up to
    /// [`AmpsConfig::invoke_retries`] times with exponential backoff
    /// (`backoff_base_s · 2^(n-1)`), handing every retried failure and
    /// its backoff to `on_retry`. Returns the final attempt's result.
    fn invoke_with_retry(
        &self,
        platform: &mut Platform,
        fid: FunctionId,
        start: f64,
        work: &InvocationWork,
        mut on_retry: impl FnMut(FailedInvocation, f64),
    ) -> Result<InvocationOutcome, FailedInvocation> {
        let mut now = start;
        let mut attempt: u32 = 0;
        loop {
            match platform.invoke(fid, now, work) {
                Ok(out) => return Ok(out),
                Err(failed) => {
                    attempt += 1;
                    if attempt > self.cfg.invoke_retries || !failed.reason.is_transient() {
                        return Err(failed);
                    }
                    // Back off, then resume from the checkpointed inputs —
                    // they are still in storage.
                    let backoff_s = self.cfg.backoff_base_s * 2f64.powi(attempt as i32 - 1);
                    now = failed.end + backoff_s;
                    on_retry(failed, backoff_s);
                }
            }
        }
    }

    /// Serves image `img` of a closed-loop batch at `t0` under the key tag
    /// `img{img}`, reusing `scratch` and `tag`.
    fn serve_image(
        &self,
        platform: &mut Platform,
        dep: &DagDeployment,
        (scratch, tag): &mut (DagServeScratch, String),
        img: usize,
        t0: f64,
    ) -> Result<JobReport, ServeError> {
        tag.clear();
        let _ = write!(tag, "img{img}");
        scratch.prepare(platform, dep, tag);
        self.serve_one_dag_with(platform, dep, t0, scratch)
    }

    /// Serves `images` requests in parallel (paper Table 5): all requests
    /// start at `t0`; completion is the slowest one. One dead image does
    /// not poison the batch — it degrades into
    /// [`BatchReport::failures`] while the rest complete.
    ///
    /// With [`AmpsConfig::serve_lanes`] > 1 the images run on disjoint
    /// warm-pool shards (executed by up to [`AmpsConfig::serve_threads`]
    /// workers) and the per-image results merge back in image order — the
    /// report is bit-identical at every thread count. At the default
    /// single lane the images run serially on `platform` itself.
    pub fn serve_parallel(
        &self,
        platform: &mut Platform,
        dep: &DagDeployment,
        images: usize,
        t0: f64,
    ) -> BatchReport {
        let state = || (DagServeScratch::for_deployment(dep), String::new());
        let results: Vec<Result<JobReport, ServeError>> = if self.cfg.serve_lanes > 1 {
            let starts = vec![t0; images];
            let (results, shards) = self.run_lanes_generic(
                platform,
                &starts,
                |_| state(),
                |p, s, img, start| self.serve_image(p, dep, s, img, start),
            );
            for (shard, _) in shards {
                platform.absorb_shard(shard);
            }
            results
        } else {
            let mut s = state();
            (0..images)
                .map(|img| self.serve_image(platform, dep, &mut s, img, t0))
                .collect()
        };
        let mut batch = Self::empty_batch(dep, images);
        for (img, result) in results.into_iter().enumerate() {
            match result {
                Ok(r) => {
                    batch.completion_s = batch.completion_s.max(r.inference_s);
                    Self::absorb_job(&mut batch, r);
                }
                Err(e) => {
                    batch.completion_s = batch.completion_s.max(e.elapsed_s);
                    Self::absorb_failure(&mut batch, img, e);
                }
            }
        }
        batch.e2e_s = dep.deploy_s + batch.completion_s;
        batch
    }

    /// Serves `images` requests strictly one after another (the paper's
    /// AMPS-Inf-Seq mode in Fig. 13); later requests hit warm containers.
    /// A failed image consumes its elapsed wall-clock, then the next
    /// image proceeds.
    pub fn serve_sequential(
        &self,
        platform: &mut Platform,
        dep: &DagDeployment,
        images: usize,
        t0: f64,
    ) -> BatchReport {
        let mut batch = Self::empty_batch(dep, images);
        let mut state = (DagServeScratch::for_deployment(dep), String::new());
        let mut now = t0;
        for img in 0..images {
            match self.serve_image(platform, dep, &mut state, img, now) {
                Ok(r) => {
                    now += r.inference_s;
                    Self::absorb_job(&mut batch, r);
                }
                Err(e) => {
                    now += e.elapsed_s;
                    Self::absorb_failure(&mut batch, img, e);
                }
            }
        }
        batch.completion_s = now - t0;
        batch.e2e_s = dep.deploy_s + batch.completion_s;
        batch
    }

    /// Serves `images` requests through pipeline stations — the
    /// closed-loop counterpart of [`serve_sequential`](Self::serve_sequential)
    /// (all requests ready at `t0`, single warm pool), but with nodes
    /// overlapping across requests: every node owns
    /// [`AmpsConfig::pipeline_depth`] stations (defaulting to 1 when
    /// pipelining is not configured), and request `k+1` enters node `v`
    /// as soon as its inputs are checkpointed and a station frees. On a
    /// chain, completion is therefore bottleneck-stage-bound —
    /// `fill + (n−1)·max_i t_i` on a clean run — instead of
    /// [`serve_sequential`](Self::serve_sequential)'s `n·Σ_i t_i`.
    pub fn serve_pipelined(
        &self,
        platform: &mut Platform,
        dep: &DagDeployment,
        images: usize,
        t0: f64,
    ) -> PipelineReport {
        let depth = self.cfg.pipeline_depth.max(1);
        let mut stations: Vec<StationPool> = (0..dep.functions.len())
            .map(|_| StationPool::new(depth))
            .collect();
        let mut scratch = DagServeScratch::for_deployment(dep);
        let idle_before = platform.warm_idle_accrued();
        let mut requests = Vec::with_capacity(images);
        let mut dollars = 0.0f64;
        let mut completion = t0;
        let mut failed = 0usize;
        for _ in 0..images {
            scratch.prepare_anon(platform, dep);
            let r = self.serve_lite_dag(platform, dep, t0, &mut scratch, Some(&mut stations));
            completion = completion.max(r.arrival_s + r.latency_s);
            dollars += r.dollars;
            failed += usize::from(!r.ok);
            requests.push(r);
        }
        let span = completion - t0;
        let stats = PipelineStats {
            stations_per_stage: depth,
            stage_busy_s: stations.iter().map(StationPool::busy_s).collect(),
            stage_stall_s: stations.iter().map(StationPool::stall_s).collect(),
            span_s: span,
        };
        PipelineReport {
            completion_s: span,
            e2e_s: dep.deploy_s + span,
            dollars,
            failed,
            requests,
            stats,
            warm_idle_s: platform.warm_idle_accrued() - idle_before,
        }
    }

    /// [`serve_one_dag_with`](Self::serve_one_dag_with) reduced to the
    /// scalars a [`RequestSummary`] carries: same retry loop and the same
    /// accounting, but no per-outcome or per-retry allocation.
    ///
    /// With `stations`, node `v`'s invocation is gated behind
    /// `stations[v]`: it starts at `max(ready, earliest station free)`
    /// and occupies its station through every retry and backoff until
    /// the attempt chain resolves. Station waits lengthen the request's
    /// latency but are *not* waste (they are pipeline stalls, accumulated
    /// on the pool). Without stations, every node starts when its inputs
    /// are ready and the platform scales instances out on demand.
    fn serve_lite_dag(
        &self,
        platform: &mut Platform,
        dep: &DagDeployment,
        t0: f64,
        scratch: &mut DagServeScratch,
        mut stations: Option<&mut [StationPool]>,
    ) -> RequestSummary {
        let k = dep.functions.len();
        let mut dollars = 0.0f64;
        let mut retry_dollars = 0.0f64;
        let mut retry_s = 0.0f64;
        let mut stall_s = 0.0f64;
        let mut stall_dollars = 0.0f64;
        let mut n_retries: u32 = 0;
        for v in 0..k {
            let ready = scratch.ready_at(dep, v, t0);
            let (station, start) = match stations.as_deref_mut() {
                Some(pools) => pools[v].admit(ready),
                None => (0, ready),
            };
            let result = self.invoke_with_retry(
                platform,
                dep.functions[v],
                start,
                &scratch.works[v],
                |failed, backoff_s| {
                    n_retries += 1;
                    retry_dollars += failed.dollars;
                    retry_s += failed.duration() + backoff_s;
                },
            );
            let out = match result {
                Ok(out) => out,
                Err(failed) => {
                    // The doomed request held its station until the final
                    // attempt ended.
                    if let Some(pools) = stations {
                        pools[v].release(station, start, failed.end);
                    }
                    // Mirror `absorb_failure`: the doomed request's whole
                    // spend and elapsed time produced nothing.
                    let spent = dollars + retry_dollars + failed.dollars;
                    return RequestSummary {
                        arrival_s: t0,
                        latency_s: failed.end - t0,
                        dollars: spent,
                        retries: n_retries,
                        wasted_s: failed.end - t0,
                        wasted_dollars: spent,
                        ok: false,
                    };
                }
            };
            if let Some(pools) = stations.as_deref_mut() {
                pools[v].release(station, start, out.end);
            }
            scratch.finish[v] = out.end;
            scratch.dur[v] = out.end - out.start;
            scratch.busy_s[v] += out.end - out.start;
            scratch.stall_s[v] += (out.start - ready) + out.storage_retry_s;
            dollars += out.dollars;
            stall_s += out.storage_retry_s;
            if out.storage_retry_s > 0.0 {
                let mem = platform.spec(dep.functions[v]).map_or(0, |s| s.memory_mb);
                stall_dollars += self
                    .cfg
                    .prices
                    .lambda_compute_cost(out.storage_retry_s, mem);
            }
        }
        let done = scratch.finish[..k].iter().fold(t0, |a, &b| a.max(b));
        self.accumulate_critical_path(dep, scratch, k);
        RequestSummary {
            arrival_s: t0,
            latency_s: done - t0,
            dollars: dollars + retry_dollars,
            retries: n_retries,
            wasted_s: retry_s + stall_s,
            wasted_dollars: retry_dollars + stall_dollars,
            ok: true,
        }
    }

    /// Walks one served request's critical path — from the last-finishing
    /// node back through each node's latest-finishing input producer
    /// (first such producer on ties, making the walk deterministic) — and
    /// adds every visited node's successful-attempt duration to the
    /// lane's `crit_s` accumulator. O(path length) per request.
    fn accumulate_critical_path(
        &self,
        dep: &DagDeployment,
        scratch: &mut DagServeScratch,
        k: usize,
    ) {
        if k == 0 {
            return;
        }
        let mut v = 0usize;
        for u in 1..k {
            if scratch.finish[u] > scratch.finish[v] {
                v = u;
            }
        }
        loop {
            scratch.crit_s[v] += scratch.dur[v];
            let producers = dep.producers_of(v);
            let Some(&first) = producers.first() else {
                break;
            };
            let mut best = first as usize;
            for &p in &producers[1..] {
                if scratch.finish[p as usize] > scratch.finish[best] {
                    best = p as usize;
                }
            }
            v = best;
        }
    }

    /// Serves an arrival trace (one request per entry of `arrivals`, in
    /// seconds on the platform clock) through one deployment on the
    /// sharded engine and returns scalar per-request summaries — the
    /// open-loop load path for chains (width-1 DAGs) and branch plans
    /// alike.
    ///
    /// Request `i` runs on lane `i % serve_lanes` with its RNG streams
    /// keyed by index ([`Platform::begin_request`]), executes its nodes in
    /// topological index order with the deterministic `(request, node)`
    /// ready recurrence, and results merge in global index order — so the
    /// report is bit-identical at every thread count, faults on or off.
    ///
    /// With [`AmpsConfig::pipeline_depth`] `d > 0`, every node owns `d`
    /// stations per lane (DESIGN.md §6e): node `v` of request `k+1`
    /// starts as soon as its inputs are checkpointed *and* a station
    /// frees, stations admit in request-index order, and the report
    /// carries [`TraceReport::pipeline`]. At depth 0 instances scale out
    /// on demand. Per-request RNG streams are keyed identically in both
    /// modes, so a given request draws the same fault/storage fates.
    ///
    /// Requests never abort the run: one that exhausts its retry budget is
    /// recorded (`ok == false`, counted in [`TraceReport::failures`]) and
    /// the trace keeps serving. Storage is settled at the global last
    /// completion, per lane in lane order.
    pub fn serve_trace_dag(
        &self,
        platform: &mut Platform,
        dep: &DagDeployment,
        arrivals: &[f64],
    ) -> TraceReport {
        let k = dep.functions.len();
        let (mut report, lanes) =
            self.serve_trace_lanes(platform, std::slice::from_ref(dep), |_| 0, arrivals);
        let first = arrivals.first().copied().unwrap_or(0.0);
        let span_s = (report.last_completion_s - first).max(0.0);
        let stations = self.cfg.pipeline_depth * lanes.len();
        let mut nodes = DagNodeStats {
            stations_per_node: stations,
            busy_s: vec![0.0; k],
            stall_s: vec![0.0; k],
            crit_s: vec![0.0; k],
            span_s,
        };
        let mut pipeline = (stations > 0).then(|| PipelineStats {
            stations_per_stage: stations,
            stage_busy_s: vec![0.0; k],
            stage_stall_s: vec![0.0; k],
            span_s,
        });
        // Fold the per-lane measurements in lane order.
        for mut lane in lanes {
            let (scratch, pools) = &mut lane[0];
            scratch.drain_into(&mut nodes);
            if let Some(stats) = &mut pipeline {
                for (v, pool) in pools.iter().enumerate() {
                    stats.stage_busy_s[v] += pool.busy_s();
                    stats.stage_stall_s[v] += pool.stall_s();
                }
            }
        }
        report.pipeline = pipeline;
        report.dag_nodes = Some(nodes);
        report
    }

    /// [`serve_trace_dag`](Self::serve_trace_dag) over several
    /// deployments: request `i` runs `deps[assign(i)]` — the plan-cache
    /// engine's entry point, where an adaptive controller switches plans
    /// between load epochs. `assign` must be a pure function of the
    /// request index (that is what keeps the report thread-invariant);
    /// every returned index must be `< deps.len()`, and all deployments
    /// must live on `platform`. Per-node and station stats are not folded
    /// here (node indices mean different things across deployments), so
    /// `dag_nodes` and `pipeline` stay `None`.
    pub fn serve_trace_assigned_dag(
        &self,
        platform: &mut Platform,
        deps: &[DagDeployment],
        assign: &(dyn Fn(usize) -> usize + Sync),
        arrivals: &[f64],
    ) -> TraceReport {
        self.serve_trace_lanes(platform, deps, assign, arrivals).0
    }

    /// The trace engine: runs every request on the lane runner with one
    /// scratch (and, when pipelined, one station pool per node) per
    /// deployment riding along with each lane, then settles the shards.
    /// Returns the report without per-node or station stats, plus every
    /// lane's final per-deployment state in lane order.
    fn serve_trace_lanes(
        &self,
        platform: &mut Platform,
        deps: &[DagDeployment],
        assign: impl Fn(usize) -> usize + Sync,
        arrivals: &[f64],
    ) -> (TraceReport, Vec<Vec<LaneDeployment>>) {
        let depth = self.cfg.pipeline_depth;
        let (requests, lanes) = self.run_lanes_generic(
            platform,
            arrivals,
            |_lane| -> Vec<LaneDeployment> {
                deps.iter()
                    .map(|d| {
                        let k = if depth > 0 { d.functions.len() } else { 0 };
                        let pools = (0..k).map(|_| StationPool::new(depth)).collect();
                        (DagServeScratch::for_deployment(d), pools)
                    })
                    .collect()
            },
            |p, lane: &mut Vec<LaneDeployment>, idx, t0| {
                let d = assign(idx);
                let (scratch, pools) = &mut lane[d];
                scratch.prepare_anon(p, &deps[d]);
                let pools = (depth > 0).then_some(pools.as_mut_slice());
                self.serve_lite_dag(p, &deps[d], t0, scratch, pools)
            },
        );
        let (shards, states): (Vec<Platform>, Vec<Vec<LaneDeployment>>) = lanes.into_iter().unzip();
        (self.finish_trace(platform, deps, requests, shards), states)
    }

    /// Shared trace aggregation: settle storage and warm pools per shard
    /// in lane order, absorb shards, and assemble the report.
    fn finish_trace(
        &self,
        platform: &mut Platform,
        deps: &[DagDeployment],
        requests: Vec<RequestSummary>,
        mut shards: Vec<Platform>,
    ) -> TraceReport {
        let mut dollars = 0.0f64;
        let mut last_completion = 0.0f64;
        let mut failures = 0usize;
        for r in &requests {
            dollars += r.dollars;
            last_completion = last_completion.max(r.arrival_s + r.latency_s);
            failures += usize::from(!r.ok);
        }
        let mut settled = platform.settle_storage(last_completion);
        let mut idle_s = 0.0f64;
        let mut idle_dollars = 0.0f64;
        let mut invocations = 0u64;
        for shard in &mut shards {
            settled += shard.settle_storage(last_completion);
            let (lane_idle, lane_idle_dollars) = shard.settle_warm_pool(last_completion);
            idle_s += lane_idle;
            idle_dollars += lane_idle_dollars;
            invocations += shard.invocation_count();
        }
        for shard in shards {
            platform.absorb_shard(shard);
        }
        let mut fids: Vec<FunctionId> = deps
            .iter()
            .flat_map(|d| d.functions.iter().copied())
            .collect();
        fids.sort_by_key(|f| f.0);
        fids.dedup();
        let cold_starts = fids.iter().map(|&f| platform.cold_starts(f)).sum();
        let peak_instances = fids
            .iter()
            .map(|&f| platform.instance_count(f))
            .max()
            .unwrap_or(0);
        TraceReport {
            requests,
            dollars,
            settled_dollars: settled,
            last_completion_s: last_completion,
            cold_starts,
            peak_instances,
            failures,
            invocations,
            pre_warmed: platform.pre_warmed_total(),
            idle_s,
            idle_dollars,
            pipeline: None,
            dag_nodes: None,
        }
    }

    /// Number of requests lane `lane` owns when `n` requests round-robin
    /// over `lanes` lanes (lane `l` serves indices `l, l+lanes, …`).
    fn lane_len(n: usize, lanes: usize, lane: usize) -> usize {
        if lane >= n {
            0
        } else {
            (n - lane - 1) / lanes + 1
        }
    }

    /// The work-stealing core of the sharded serving engine (DESIGN.md
    /// §6d): every lane is a self-contained task (shard platform, lane
    /// state, result buffer, progress cursor) on a shared
    /// queue; workers pop a task, advance it one *chunk* of requests, and
    /// either requeue it or deposit it in its lane slot when exhausted.
    /// Chunking amortizes queue traffic while letting an idle worker steal
    /// a heavy lane's remainder — under skewed per-request cost no worker
    /// sits idle watching one lane grind.
    ///
    /// Thread-count invariance holds by construction: request `i` always
    /// runs on lane `i % lanes` (with [`Platform::begin_request`] keying
    /// its RNG streams), a lane's requests run in index order, and the
    /// lane's entire mutable state travels with its task — workers race
    /// only for *which lane advances next*, never for state inside one.
    /// Chunk boundaries therefore cannot affect any result, and the merge
    /// (requests in global index order, shard platforms in lane order) is
    /// the same at every worker count.
    ///
    /// Warm-pool pre-warming ([`AmpsConfig::warm_pool`]) happens here,
    /// per shard: lane `l` gets `⌈(pre_warm - l) / lanes⌉` of the policy's
    /// instances, so the split is deterministic and the sum exact.
    ///
    /// `f` receives `(platform, lane_state, request_index, start)`. The
    /// per-lane mutable state `S` — request scratches, station pools,
    /// anything — is created per lane by `init`, mutated only by that
    /// lane's requests (in index order), and returned with the shard
    /// platform in lane order, so it inherits the same thread-count
    /// invariance as the platform itself.
    fn run_lanes_generic<R, S, F, I>(
        &self,
        base: &Platform,
        starts: &[f64],
        init: I,
        f: F,
    ) -> (Vec<R>, Vec<(Platform, S)>)
    where
        R: Send,
        S: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut Platform, &mut S, usize, f64) -> R + Sync,
    {
        let n = starts.len();
        let lanes = self.cfg.serve_lanes.max(1).min(n.max(1));
        let workers = match self.cfg.serve_threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        }
        .clamp(1, lanes);
        let pre_warm = self.cfg.warm_pool.pre_warm;
        // ~4 chunks per lane bounds steal latency; the clamp keeps queue
        // traffic negligible on huge runs and chunks meaningful on small.
        let chunk = (n / (lanes * 4) + 1).clamp(32, 1024);

        struct LaneTask<R, S> {
            lane: usize,
            /// Requests of this lane already processed.
            done: usize,
            platform: Platform,
            state: S,
            out: Vec<R>,
        }
        let new_task = |lane: usize| {
            let mut platform = base.fork_empty();
            platform.pre_warm(Self::lane_len(pre_warm, lanes, lane));
            LaneTask {
                lane,
                done: 0,
                platform,
                state: init(lane),
                out: Vec::with_capacity(Self::lane_len(n, lanes, lane)),
            }
        };
        // Advances `task` by one chunk; true when the lane is exhausted.
        let run_chunk = |task: &mut LaneTask<R, S>| -> bool {
            let total = Self::lane_len(n, lanes, task.lane);
            let stop = (task.done + chunk).min(total);
            while task.done < stop {
                let idx = task.lane + task.done * lanes;
                task.platform.begin_request(idx as u64);
                let r = f(&mut task.platform, &mut task.state, idx, starts[idx]);
                task.out.push(r);
                task.done += 1;
            }
            task.done >= total
        };

        let lane_results: Vec<(Vec<R>, Platform, S)> = if workers == 1 {
            (0..lanes)
                .map(|lane| {
                    let mut task = new_task(lane);
                    while !run_chunk(&mut task) {}
                    (task.out, task.platform, task.state)
                })
                .collect()
        } else {
            use std::collections::VecDeque;
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Mutex;
            let queue: Mutex<VecDeque<LaneTask<R, S>>> =
                Mutex::new((0..lanes).map(new_task).collect());
            let remaining = AtomicUsize::new(lanes);
            let slots: Mutex<Vec<LaneSlot<R, S>>> = Mutex::new((0..lanes).map(|_| None).collect());
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let task = queue.lock().unwrap().pop_front();
                        match task {
                            Some(mut task) => {
                                if run_chunk(&mut task) {
                                    slots.lock().unwrap()[task.lane] =
                                        Some((task.out, task.platform, task.state));
                                    remaining.fetch_sub(1, Ordering::Release);
                                } else {
                                    queue.lock().unwrap().push_back(task);
                                }
                            }
                            None => {
                                if remaining.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
            slots
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|slot| slot.expect("every lane ran"))
                .collect()
        };
        let mut lanes_out = Vec::with_capacity(lanes);
        let mut iters = Vec::with_capacity(lanes);
        for (out, p, s) in lane_results {
            iters.push(out.into_iter());
            lanes_out.push((p, s));
        }
        let merged = (0..n)
            .map(|idx| iters[idx % lanes].next().expect("lane result"))
            .collect();
        (merged, lanes_out)
    }

    fn empty_batch(dep: &DagDeployment, images: usize) -> BatchReport {
        BatchReport {
            completion_s: 0.0,
            e2e_s: dep.deploy_s,
            dollars: 0.0,
            jobs: Vec::with_capacity(images),
            failures: Vec::new(),
            wasted_s: 0.0,
            wasted_dollars: 0.0,
        }
    }

    fn absorb_job(batch: &mut BatchReport, job: JobReport) {
        batch.dollars += job.dollars;
        batch.wasted_s += job.wasted_s;
        batch.wasted_dollars += job.wasted_dollars;
        batch.jobs.push(job);
    }

    fn absorb_failure(batch: &mut BatchReport, image: usize, error: ServeError) {
        // A doomed image's entire spend and elapsed time produced nothing.
        batch.dollars += error.dollars;
        batch.wasted_s += error.elapsed_s;
        batch.wasted_dollars += error.dollars;
        batch.failures.push(BatchFailure { image, error });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use ampsinf_model::zoo;

    fn optimized(graph: &ampsinf_model::LayerGraph) -> (Coordinator, ExecutionPlan) {
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(graph).unwrap().plan;
        (Coordinator::new(cfg), plan)
    }

    #[test]
    fn serve_one_matches_prediction() {
        // The optimizer's predicted (time, cost) must equal the platform's
        // measured cold-chain behaviour: prediction IS simulation.
        for g in [zoo::mobilenet_v1(), zoo::resnet50()] {
            let (coord, plan) = optimized(&g);
            let mut platform = coord.platform();
            let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
            let report = coord
                .serve_one_dag(&mut platform, &dep, 0.0, "req0")
                .unwrap();
            assert!(
                (report.inference_s - plan.predicted_time_s).abs() < 1e-6,
                "{}: measured {} vs predicted {}",
                g.name,
                report.inference_s,
                plan.predicted_time_s
            );
            assert!(
                (report.dollars - plan.predicted_cost).abs() < 1e-9,
                "{}: measured {} vs predicted {}",
                g.name,
                report.dollars,
                plan.predicted_cost
            );
            // Clean run: nothing retried, nothing wasted.
            assert!(report.retries.is_empty());
            assert_eq!(report.wasted_s, 0.0);
            assert_eq!(report.wasted_dollars, 0.0);
        }
    }

    #[test]
    fn deployment_time_counted_once() {
        let g = zoo::mobilenet_v1();
        let (coord, plan) = optimized(&g);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        assert!(dep.deploy_s > 0.0);
        let report = coord.serve_one_dag(&mut platform, &dep, 0.0, "r").unwrap();
        assert!((report.e2e_s - (dep.deploy_s + report.inference_s)).abs() < 1e-12);
    }

    #[test]
    fn sequential_batch_gets_warm_speedup() {
        let g = zoo::mobilenet_v1();
        let (coord, plan) = optimized(&g);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let batch = coord.serve_sequential(&mut platform, &dep, 3, 0.0);
        assert_eq!(batch.jobs.len(), 3);
        assert_eq!(batch.failed(), 0);
        // First request cold, later ones warm and faster.
        assert!(batch.jobs[1].inference_s < batch.jobs[0].inference_s);
        assert!(batch.jobs[1].outcomes.iter().all(|o| o.warm));
    }

    #[test]
    fn parallel_batch_completion_is_max_not_sum() {
        let g = zoo::mobilenet_v1();
        let (coord, plan) = optimized(&g);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let batch = coord.serve_parallel(&mut platform, &dep, 5, 0.0);
        let max_inf = batch
            .jobs
            .iter()
            .map(|j| j.inference_s)
            .fold(0.0f64, f64::max);
        let sum_inf: f64 = batch.jobs.iter().map(|j| j.inference_s).sum();
        assert!((batch.completion_s - max_inf).abs() < 1e-12);
        assert!(batch.completion_s < sum_inf);
        // Cost still sums over all images.
        assert!(batch.dollars > batch.jobs[0].dollars * 4.0);
    }

    #[test]
    fn pipelined_closed_loop_doubles_throughput_on_balanced_plan() {
        // The acceptance bar for DESIGN.md §6e: on a multi-stage plan with
        // balanced stage times, steady-state pipelined throughput is at
        // least 2× the sequential chain at equal cost accounting.
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let opt = Optimizer::new(cfg.clone());
        let free = opt.optimize(&g).unwrap().plan;
        // The joint planner balances within the cost budget…
        let grid = crate::sweep::SweepGrid::from_slos(vec![free.predicted_time_s * 2.0]);
        let joint = opt.optimize_pipelined(&g, &grid).points[0]
            .outcome
            .clone()
            .unwrap();
        assert!(
            joint.imbalance() < 1.25,
            "joint plan should balance stages: {joint}"
        );
        // …and the throughput bar uses a deeper balanced cut (the
        // bucket-scan baseline at 4 stages, unconstrained by cost).
        let plan = crate::baselines::b4_bucket_scan(&g, &cfg, 4).unwrap();
        assert!(plan.num_lambdas() >= 3, "need a multi-stage plan: {plan}");
        let pp = crate::plan::PipelinePlan {
            stage_times_s: crate::baselines::stage_times(
                &ampsinf_profiler::Profile::of(&g),
                &plan,
                &cfg,
            )
            .unwrap(),
            bottleneck_s: 0.0,
            plan,
        };
        let n = 40;

        let coord = Coordinator::new(cfg.clone());
        let mut p_seq = coord.platform();
        let dep = coord.deploy(&mut p_seq, &g, &pp.plan).unwrap();
        let seq = coord.serve_sequential(&mut p_seq, &dep, n, 0.0);
        assert_eq!(seq.failed(), 0);
        let seq_idle = p_seq.warm_idle_accrued();

        let coord_pipe = Coordinator::new(cfg.with_pipeline(1));
        let mut p_pipe = coord_pipe.platform();
        let dep_pipe = coord_pipe.deploy(&mut p_pipe, &g, &pp.plan).unwrap();
        let pipe = coord_pipe.serve_pipelined(&mut p_pipe, &dep_pipe, n, 0.0);
        assert_eq!(pipe.failed, 0);

        let seq_tp = n as f64 / seq.completion_s;
        let pipe_tp = n as f64 / pipe.completion_s;
        assert!(
            pipe_tp >= 2.0 * seq_tp,
            "pipelined {pipe_tp:.3} req/s vs sequential {seq_tp:.3} req/s"
        );
        // Equal cost accounting: same invocations, same warm/cold pattern,
        // only the clock positions differ.
        assert!(
            (pipe.dollars - seq.dollars).abs() < 1e-9,
            "pipelined ${} vs sequential ${}",
            pipe.dollars,
            seq.dollars
        );
        // Stations were measurably busy, and queueing showed up as stall.
        assert!(pipe.stats.utilization() > 0.0);
        assert!(pipe.stats.utilization() <= 1.0 + 1e-12);
        assert!(pipe.stats.stall_s() > 0.0);
        assert_eq!(pipe.stats.stage_busy_s.len(), pp.plan.num_lambdas());
        // Overlap keeps warm instances busier: strictly less idle-warm
        // time than the serialized chain.
        assert!(
            pipe.warm_idle_s < seq_idle,
            "pipelined idle {} vs sequential idle {}",
            pipe.warm_idle_s,
            seq_idle
        );
    }

    #[test]
    fn pipelined_depth_two_is_no_slower_than_depth_one() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let run = |depth: usize| {
            let coord = Coordinator::new(cfg.clone().with_pipeline(depth));
            let mut platform = coord.platform();
            let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
            coord.serve_pipelined(&mut platform, &dep, 24, 0.0)
        };
        let d1 = run(1);
        let d2 = run(2);
        assert_eq!(d1.failed, 0);
        assert_eq!(d2.failed, 0);
        assert!(
            d2.completion_s <= d1.completion_s + 1e-9,
            "depth 2 {} vs depth 1 {}",
            d2.completion_s,
            d1.completion_s
        );
    }

    #[test]
    fn pipelined_trace_matches_sequential_on_sparse_arrivals() {
        // Arrivals so far apart that no two requests ever share the chain:
        // pipelined serving must reproduce scale-out serving's
        // per-request numbers exactly (same RNG keying, no station waits).
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let arrivals: Vec<f64> = (0..8).map(|i| i as f64 * 100.0).collect();

        let coord = Coordinator::new(cfg.clone());
        let mut p_seq = coord.platform();
        let dep = coord.deploy(&mut p_seq, &g, &plan).unwrap();
        let seq = coord.serve_trace_dag(&mut p_seq, &dep, &arrivals);

        let coord_pipe = Coordinator::new(cfg.with_pipeline(1));
        let mut p_pipe = coord_pipe.platform();
        let dep_pipe = coord_pipe.deploy(&mut p_pipe, &g, &plan).unwrap();
        let pipe = coord_pipe.serve_trace_dag(&mut p_pipe, &dep_pipe, &arrivals);

        assert_eq!(seq.requests.len(), pipe.requests.len());
        for (a, b) in seq.requests.iter().zip(&pipe.requests) {
            assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
            assert_eq!(a.dollars.to_bits(), b.dollars.to_bits());
            assert_eq!(a.ok, b.ok);
        }
        assert_eq!(seq.dollars.to_bits(), pipe.dollars.to_bits());
        let stats = pipe.pipeline.expect("pipelined trace carries stats");
        // No contention on sparse arrivals beyond the first admissions.
        assert_eq!(stats.stall_s(), 0.0);
        assert!(seq.pipeline.is_none());
    }

    /// A hand-built branch-parallel DAG plan over [`zoo::branchy_cnn`]'s
    /// single region: spine → {3×3 path, 5×5 path} → gather tail, with
    /// the scatter object read by both branches and one gather object per
    /// branch. Prediction stamped by [`crate::baselines::predict_dag`].
    fn branchy_dag(g: &ampsinf_model::LayerGraph, cfg: &AmpsConfig) -> crate::plan::DagPlan {
        use crate::plan::{DagNode, DagObject, DagPlan};
        let regions = g.branch_regions();
        let r = &regions[0];
        let n = g.num_layers();
        let mem = 512u32;
        let nodes = vec![
            DagNode {
                start: 0,
                end: r.entry,
                memory_mb: mem,
            },
            DagNode {
                start: r.branches[0].0,
                end: r.branches[0].1,
                memory_mb: mem,
            },
            DagNode {
                start: r.branches[1].0,
                end: r.branches[1].1,
                memory_mb: mem,
            },
            DagNode {
                start: r.merge,
                end: n - 1,
                memory_mb: mem,
            },
        ];
        let objects = vec![
            DagObject {
                producer: 0,
                consumers: vec![1, 2],
                bytes: g.cut_transfer_bytes(r.entry),
            },
            DagObject {
                producer: 1,
                consumers: vec![3],
                bytes: g.span_io_bytes(r.branches[0].0, r.branches[0].1).1,
            },
            DagObject {
                producer: 2,
                consumers: vec![3],
                bytes: g.span_io_bytes(r.branches[1].0, r.branches[1].1).1,
            },
        ];
        let mut plan = DagPlan {
            model: g.name.clone(),
            nodes,
            objects,
            predicted_time_s: 0.0,
            predicted_cost: 0.0,
        };
        plan.validate(n).unwrap();
        assert!(crate::baselines::predict_dag(
            &ampsinf_profiler::Profile::of(g),
            &mut plan,
            cfg
        ));
        plan
    }

    #[test]
    fn serve_one_dag_matches_prediction() {
        // The branch counterpart of `serve_one_matches_prediction`: the critical
        // path and summed cost predicted by `predict_dag` must equal the
        // platform's measured cold behaviour, scatter/gather fees
        // included — prediction IS simulation on branches too.
        let g = zoo::branchy_cnn();
        let cfg = AmpsConfig::default();
        let plan = branchy_dag(&g, &cfg);
        assert_eq!(plan.width(), 2);
        let coord = Coordinator::new(cfg);
        let mut platform = coord.platform();
        let dep = coord.deploy_dag(&mut platform, &g, &plan).unwrap();
        let report = coord
            .serve_one_dag(&mut platform, &dep, 0.0, "req0")
            .unwrap();
        assert!(
            (report.inference_s - plan.predicted_time_s).abs() < 1e-6,
            "measured {} vs predicted {}",
            report.inference_s,
            plan.predicted_time_s
        );
        assert!(
            (report.dollars - plan.predicted_cost).abs() < 1e-9,
            "measured {} vs predicted {}",
            report.dollars,
            plan.predicted_cost
        );
        // Branches overlap: the critical path is shorter than the sum of
        // node durations, and every node still bills.
        let sum_s: f64 = report
            .outcomes
            .iter()
            .map(InvocationOutcome::duration)
            .sum();
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.inference_s < sum_s - 1e-9);
        // All three objects (scatter + two gathers) were checkpointed.
        for o in 0..3 {
            assert!(platform.store.size_of(&format!("req0/b{o}")).is_some());
        }
        assert!(platform.settle_storage(1000.0) > 0.0);
        assert!(report.retries.is_empty());
        assert_eq!(report.wasted_s, 0.0);
    }

    #[test]
    fn dag_trace_pipelined_bounds_scale_out_on_bursty_trace() {
        // On a burst of simultaneous arrivals, the unpipelined DAG trace
        // engine scales out (one cold sandbox per request per node) while
        // the station-gated engine reuses its bounded stations warm —
        // fewer cold starts, queueing surfaced as station stall.
        let g = zoo::branchy_cnn();
        let cfg = AmpsConfig::default();
        let plan = branchy_dag(&g, &cfg);
        let arrivals = vec![0.0; 8];

        let coord = Coordinator::new(cfg.clone());
        let mut p_seq = coord.platform();
        let dep = coord.deploy_dag(&mut p_seq, &g, &plan).unwrap();
        let seq = coord.serve_trace_dag(&mut p_seq, &dep, &arrivals);
        assert_eq!(seq.failures, 0);

        let coord_pipe = Coordinator::new(cfg.with_pipeline(1));
        let mut p_pipe = coord_pipe.platform();
        let dep_pipe = coord_pipe.deploy_dag(&mut p_pipe, &g, &plan).unwrap();
        let pipe = coord_pipe.serve_trace_dag(&mut p_pipe, &dep_pipe, &arrivals);
        assert_eq!(pipe.failures, 0);
        assert!(
            pipe.cold_starts < seq.cold_starts,
            "stations should reuse warm sandboxes: {} vs {}",
            pipe.cold_starts,
            seq.cold_starts
        );
        let stats = pipe.pipeline.expect("pipelined trace carries stats");
        assert_eq!(stats.stage_busy_s.len(), plan.num_lambdas());
        assert!(stats.utilization() > 0.0);
        assert!(stats.stall_s() > 0.0);
    }

    #[test]
    fn chain_objects_flow_through_storage() {
        let g = zoo::resnet50();
        let (coord, plan) = optimized(&g);
        assert!(plan.num_lambdas() >= 2);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        coord
            .serve_one_dag(&mut platform, &dep, 0.0, "req")
            .unwrap();
        // Intermediate objects exist for every interior boundary.
        for i in 0..plan.num_lambdas() - 1 {
            assert!(platform.store.size_of(&format!("req/b{i}")).is_some());
        }
        // Settlement charges at-rest storage for them.
        let settled = platform.settle_storage(1000.0);
        assert!(settled > 0.0);
    }
}
