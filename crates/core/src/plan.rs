//! Execution and resource-provisioning plans — the Optimizer's output
//! ("best configuration (Partitions, Lambdas' memories)", paper Fig. 3).

use ampsinf_model::json::Json;

/// One partition's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionPlan {
    /// First layer index (inclusive).
    pub start: usize,
    /// Last layer index (inclusive).
    pub end: usize,
    /// Lambda memory block, MB.
    pub memory_mb: u32,
}

/// A complete serverless deployment plan for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Model name.
    pub model: String,
    /// Partitions in chain order.
    pub partitions: Vec<PartitionPlan>,
    /// Predicted end-to-end inference duration (cold chain), seconds.
    pub predicted_time_s: f64,
    /// Predicted inference cost, dollars.
    pub predicted_cost: f64,
}

impl ExecutionPlan {
    /// Number of lambdas provisioned.
    pub fn num_lambdas(&self) -> usize {
        self.partitions.len()
    }

    /// The memory allocations in chain order (the tuple the paper reports,
    /// e.g. ResNet50 → 1536/1408/1408/1344 MB).
    pub fn memories(&self) -> Vec<u32> {
        self.partitions.iter().map(|p| p.memory_mb).collect()
    }

    /// Partition boundaries as (inclusive) end-layer indices.
    pub fn bounds(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.end).collect()
    }

    /// Checks structural sanity against a model with `num_layers` layers:
    /// contiguous, complete coverage, ordered.
    pub fn validate(&self, num_layers: usize) -> Result<(), String> {
        if self.partitions.is_empty() {
            return Err("empty plan".into());
        }
        if self.partitions[0].start != 0 {
            return Err("plan must start at layer 0".into());
        }
        for w in self.partitions.windows(2) {
            if w[1].start != w[0].end + 1 {
                return Err(format!(
                    "gap between partitions: {} .. {}",
                    w[0].end, w[1].start
                ));
            }
        }
        let last = self.partitions.last().unwrap();
        if last.end != num_layers - 1 {
            return Err(format!(
                "plan ends at {} but the model has {} layers",
                last.end, num_layers
            ));
        }
        Ok(())
    }

    /// Serializes the plan to pretty-printed JSON (the Coordinator's
    /// deployment artifact).
    pub fn to_json(&self) -> String {
        let partitions: Vec<Json> = self
            .partitions
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("start".into(), Json::from(p.start)),
                    ("end".into(), Json::from(p.end)),
                    ("memory_mb".into(), Json::from(p.memory_mb)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("model".into(), Json::from(self.model.as_str())),
            ("partitions".into(), Json::Arr(partitions)),
            ("predicted_time_s".into(), Json::from(self.predicted_time_s)),
            ("predicted_cost".into(), Json::from(self.predicted_cost)),
        ])
        .render_pretty()
    }

    /// Parses a plan from its JSON form.
    pub fn from_json(s: &str) -> Result<ExecutionPlan, String> {
        let doc = Json::parse(s)?;
        let field = |key: &str| -> Result<&Json, String> {
            doc.get(key).ok_or_else(|| format!("missing field `{key}`"))
        };
        let mut partitions = Vec::new();
        for p in field("partitions")?
            .as_array()
            .ok_or("partitions must be an array")?
        {
            partitions.push(PartitionPlan {
                start: p
                    .get("start")
                    .and_then(Json::as_usize)
                    .ok_or("bad partition start")?,
                end: p
                    .get("end")
                    .and_then(Json::as_usize)
                    .ok_or("bad partition end")?,
                memory_mb: p
                    .get("memory_mb")
                    .and_then(Json::as_u32)
                    .ok_or("bad partition memory")?,
            });
        }
        Ok(ExecutionPlan {
            model: field("model")?
                .as_str()
                .ok_or("model must be a string")?
                .to_string(),
            partitions,
            predicted_time_s: field("predicted_time_s")?
                .as_f64()
                .ok_or("bad predicted_time_s")?,
            predicted_cost: field("predicted_cost")?
                .as_f64()
                .ok_or("bad predicted_cost")?,
        })
    }
}

/// One node of a branch-parallel DAG plan: a contiguous layer span placed
/// on its own Lambda, exactly like a [`PartitionPlan`], but wired to its
/// parents through explicit storage objects instead of an implicit chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagNode {
    /// First layer index (inclusive).
    pub start: usize,
    /// Last layer index (inclusive).
    pub end: usize,
    /// Lambda memory block, MB.
    pub memory_mb: u32,
}

/// One inter-node storage object of a [`DagPlan`]: the producer uploads
/// it once (one PUT) and every consumer downloads it (one GET each), so a
/// scatter of width `k` costs 1 put + `k` gets and a gather costs `k`
/// puts + 1 get — the request fees and lifetime-billed bytes ride on
/// exactly these objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagObject {
    /// Node index that writes the object.
    pub producer: usize,
    /// Node indices that read it (ascending, at least one).
    pub consumers: Vec<usize>,
    /// Object size, bytes.
    pub bytes: u64,
}

/// A branch-parallel deployment plan: a DAG of contiguous partition nodes
/// executed as concurrent Lambdas. Nodes are stored in topological order
/// (ascending `start`); a node becomes ready when all objects it reads
/// are written, so fan-out of width `k` costs `k` sandboxes but only
/// `max(branch)` wall-clock — `predicted_time_s` is the *critical path*
/// while `predicted_cost` sums every sandbox and storage fee.
#[derive(Debug, Clone, PartialEq)]
pub struct DagPlan {
    /// Model name.
    pub model: String,
    /// Partition nodes in topological (ascending-`start`) order.
    pub nodes: Vec<DagNode>,
    /// Inter-node storage objects.
    pub objects: Vec<DagObject>,
    /// Predicted end-to-end latency along the critical path (cold), seconds.
    pub predicted_time_s: f64,
    /// Predicted inference cost summed over all nodes and objects, dollars.
    pub predicted_cost: f64,
}

impl DagPlan {
    /// The width-1 DAG of a chain plan: one node per partition, one
    /// object per boundary carrying the full cut (`boundary_bytes(end)`
    /// per partition end). This is how chains deploy and serve
    /// ([`crate::Coordinator::deploy`]).
    pub fn from_chain(plan: &ExecutionPlan, boundary_bytes: impl Fn(usize) -> u64) -> DagPlan {
        let nodes: Vec<DagNode> = plan
            .partitions
            .iter()
            .map(|p| DagNode {
                start: p.start,
                end: p.end,
                memory_mb: p.memory_mb,
            })
            .collect();
        let objects: Vec<DagObject> = plan
            .partitions
            .iter()
            .take(plan.partitions.len().saturating_sub(1))
            .enumerate()
            .map(|(i, p)| DagObject {
                producer: i,
                consumers: vec![i + 1],
                bytes: boundary_bytes(p.end),
            })
            .collect();
        DagPlan {
            model: plan.model.clone(),
            nodes,
            objects,
            predicted_time_s: plan.predicted_time_s,
            predicted_cost: plan.predicted_cost,
        }
    }

    /// Number of lambdas provisioned.
    pub fn num_lambdas(&self) -> usize {
        self.nodes.len()
    }

    /// Memory allocations in node order.
    pub fn memories(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.memory_mb).collect()
    }

    /// True when the node DAG is a simple path (each boundary one object
    /// to the next node) — the degenerate chain shape.
    pub fn is_chain(&self) -> bool {
        self.objects.len() + 1 == self.nodes.len()
            && self
                .objects
                .iter()
                .enumerate()
                .all(|(i, o)| o.producer == i && o.consumers == [i + 1])
            && self.nodes.windows(2).all(|w| w[1].start == w[0].end + 1)
    }

    /// Object indices node `v` reads, in object order.
    pub fn inputs_of(&self, v: usize) -> Vec<usize> {
        (0..self.objects.len())
            .filter(|&o| self.objects[o].consumers.contains(&v))
            .collect()
    }

    /// Object indices node `u` writes, in object order.
    pub fn outputs_of(&self, u: usize) -> Vec<usize> {
        (0..self.objects.len())
            .filter(|&o| self.objects[o].producer == u)
            .collect()
    }

    /// The byte lists node `v` reads and writes, in object order — the
    /// explicit-object arguments its `quick_eval_node` pricing takes.
    pub fn node_io_bytes(&self, v: usize) -> (Vec<u64>, Vec<u64>) {
        let reads = self
            .inputs_of(v)
            .into_iter()
            .map(|o| self.objects[o].bytes)
            .collect();
        let writes = self
            .outputs_of(v)
            .into_iter()
            .map(|o| self.objects[o].bytes)
            .collect();
        (reads, writes)
    }

    /// Parent node indices of `v` (deduplicated, ascending).
    pub fn parents_of(&self, v: usize) -> Vec<usize> {
        let mut ps: Vec<usize> = self
            .objects
            .iter()
            .filter(|o| o.consumers.contains(&v))
            .map(|o| o.producer)
            .collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Maximum fan-out width: the largest number of nodes ready to run
    /// concurrently once a common parent finishes (1 for a chain).
    pub fn width(&self) -> usize {
        (0..self.nodes.len())
            .map(|u| {
                let mut kids: Vec<usize> = self
                    .objects
                    .iter()
                    .filter(|o| o.producer == u)
                    .flat_map(|o| o.consumers.iter().copied())
                    .collect();
                kids.sort_unstable();
                kids.dedup();
                kids.len()
            })
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Structural sanity against a model with `num_layers` layers: nodes
    /// cover every layer exactly once in ascending contiguous spans
    /// (branches make sibling spans adjacent in index order), node 0
    /// starts at layer 0, every non-root node has at least one input
    /// object, and every object points at valid, forward-ordered nodes.
    pub fn validate(&self, num_layers: usize) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty plan".into());
        }
        if self.nodes[0].start != 0 {
            return Err("plan must start at layer 0".into());
        }
        for w in self.nodes.windows(2) {
            if w[1].start != w[0].end + 1 {
                return Err(format!(
                    "nodes must tile the layer order: {} .. {}",
                    w[0].end, w[1].start
                ));
            }
        }
        for n in &self.nodes {
            if n.start > n.end {
                return Err(format!("inverted node span {}..{}", n.start, n.end));
            }
        }
        let last = self.nodes.last().unwrap();
        if last.end != num_layers - 1 {
            return Err(format!(
                "plan ends at {} but the model has {} layers",
                last.end, num_layers
            ));
        }
        for (i, o) in self.objects.iter().enumerate() {
            if o.producer >= self.nodes.len() {
                return Err(format!("object {i} has unknown producer"));
            }
            if o.consumers.is_empty() {
                return Err(format!("object {i} has no consumers"));
            }
            if o.consumers.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("object {i} consumers must be ascending"));
            }
            for &c in &o.consumers {
                if c >= self.nodes.len() {
                    return Err(format!("object {i} has unknown consumer"));
                }
                if c <= o.producer {
                    return Err(format!("object {i} flows backward ({} -> {c})", o.producer));
                }
            }
        }
        for v in 1..self.nodes.len() {
            if self.inputs_of(v).is_empty() {
                return Err(format!("node {v} has no input object"));
            }
        }
        Ok(())
    }

    /// Serializes the plan to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let nodes: Vec<Json> = self
            .nodes
            .iter()
            .map(|n| {
                Json::Obj(vec![
                    ("start".into(), Json::from(n.start)),
                    ("end".into(), Json::from(n.end)),
                    ("memory_mb".into(), Json::from(n.memory_mb)),
                ])
            })
            .collect();
        let objects: Vec<Json> = self
            .objects
            .iter()
            .map(|o| {
                Json::Obj(vec![
                    ("producer".into(), Json::from(o.producer)),
                    (
                        "consumers".into(),
                        Json::Arr(o.consumers.iter().map(|&c| Json::from(c)).collect()),
                    ),
                    ("bytes".into(), Json::from(o.bytes)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("model".into(), Json::from(self.model.as_str())),
            ("nodes".into(), Json::Arr(nodes)),
            ("objects".into(), Json::Arr(objects)),
            ("predicted_time_s".into(), Json::from(self.predicted_time_s)),
            ("predicted_cost".into(), Json::from(self.predicted_cost)),
        ])
        .render_pretty()
    }

    /// Parses a plan from its JSON form.
    pub fn from_json(s: &str) -> Result<DagPlan, String> {
        let doc = Json::parse(s)?;
        let field = |key: &str| -> Result<&Json, String> {
            doc.get(key).ok_or_else(|| format!("missing field `{key}`"))
        };
        let mut nodes = Vec::new();
        for n in field("nodes")?.as_array().ok_or("nodes must be an array")? {
            nodes.push(DagNode {
                start: n
                    .get("start")
                    .and_then(Json::as_usize)
                    .ok_or("bad node start")?,
                end: n
                    .get("end")
                    .and_then(Json::as_usize)
                    .ok_or("bad node end")?,
                memory_mb: n
                    .get("memory_mb")
                    .and_then(Json::as_u32)
                    .ok_or("bad node memory")?,
            });
        }
        let mut objects = Vec::new();
        for o in field("objects")?
            .as_array()
            .ok_or("objects must be an array")?
        {
            let consumers = o
                .get("consumers")
                .and_then(Json::as_array)
                .ok_or("bad object consumers")?
                .iter()
                .map(|c| c.as_usize().ok_or("bad consumer index"))
                .collect::<Result<Vec<usize>, _>>()?;
            objects.push(DagObject {
                producer: o
                    .get("producer")
                    .and_then(Json::as_usize)
                    .ok_or("bad object producer")?,
                consumers,
                bytes: o
                    .get("bytes")
                    .and_then(Json::as_u64)
                    .ok_or("bad object bytes")?,
            });
        }
        Ok(DagPlan {
            model: field("model")?
                .as_str()
                .ok_or("model must be a string")?
                .to_string(),
            nodes,
            objects,
            predicted_time_s: field("predicted_time_s")?
                .as_f64()
                .ok_or("bad predicted_time_s")?,
            predicted_cost: field("predicted_cost")?
                .as_f64()
                .ok_or("bad predicted_cost")?,
        })
    }
}

impl std::fmt::Display for DagPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} node(s), width {} [",
            self.model,
            self.nodes.len(),
            self.width()
        )?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "L{}..L{} @{}MB", n.start, n.end, n.memory_mb)?;
        }
        write!(
            f,
            "] {} object(s), predicted {:.2}s / ${:.5}",
            self.objects.len(),
            self.predicted_time_s,
            self.predicted_cost
        )
    }
}

/// The plan the optimizer actually recommends deploying at a point:
/// the branch-parallel [`DagPlan`] when the DAG search beat the chain
/// under the twin objectives, otherwise the chain [`ExecutionPlan`]
/// incumbent. [`crate::PlanCache`] stores these so an adaptive DAG
/// serving loop can hold chain and DAG tiers side by side and deploy
/// either through the one serving engine
/// ([`crate::Coordinator::deploy_effective`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EffectivePlan {
    /// The chain incumbent stands at this point.
    Chain(ExecutionPlan),
    /// A branch-parallel plan beat the chain at this point.
    Dag(DagPlan),
}

impl EffectivePlan {
    /// Predicted end-to-end latency, seconds (critical path for DAGs).
    pub fn predicted_time_s(&self) -> f64 {
        match self {
            EffectivePlan::Chain(p) => p.predicted_time_s,
            EffectivePlan::Dag(p) => p.predicted_time_s,
        }
    }

    /// Predicted per-inference dollars.
    pub fn predicted_cost(&self) -> f64 {
        match self {
            EffectivePlan::Chain(p) => p.predicted_cost,
            EffectivePlan::Dag(p) => p.predicted_cost,
        }
    }

    /// Lambdas the plan provisions.
    pub fn num_lambdas(&self) -> usize {
        match self {
            EffectivePlan::Chain(p) => p.num_lambdas(),
            EffectivePlan::Dag(p) => p.num_lambdas(),
        }
    }
}

/// An [`ExecutionPlan`] annotated with its pipelined stage timing — the
/// joint batch–partition planner's output (DESIGN.md §6e). Under
/// pipelined execution throughput is bound by the *bottleneck* stage, not
/// the summed chain, so the planner reports both.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinePlan {
    /// The underlying partition/memory plan.
    pub plan: ExecutionPlan,
    /// Predicted per-stage durations in chain order (cold chain, the same
    /// accounting as [`ExecutionPlan::predicted_time_s`], which is their
    /// sum).
    pub stage_times_s: Vec<f64>,
    /// The slowest stage — the steady-state pipeline period.
    pub bottleneck_s: f64,
}

impl PipelinePlan {
    /// Steady-state request throughput under pipelined execution:
    /// one request leaves the chain per bottleneck period.
    pub fn steady_rps(&self) -> f64 {
        if self.bottleneck_s > 0.0 {
            1.0 / self.bottleneck_s
        } else {
            0.0
        }
    }

    /// Stage imbalance: `bottleneck × stages / fill` — 1.0 for a
    /// perfectly balanced cut, approaching `stages` for a lopsided one.
    pub fn imbalance(&self) -> f64 {
        let fill: f64 = self.stage_times_s.iter().sum();
        if fill > 0.0 {
            self.bottleneck_s * self.stage_times_s.len() as f64 / fill
        } else {
            1.0
        }
    }

    /// Pipelined makespan for `n` requests on a clean run: fill the
    /// pipeline once, then one request per bottleneck period.
    pub fn makespan_s(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.stage_times_s.iter().sum::<f64>() + (n - 1) as f64 * self.bottleneck_s
    }
}

impl std::fmt::Display for PipelinePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} | bottleneck {:.3}s, imbalance {:.2}, steady {:.2} req/s",
            self.plan,
            self.bottleneck_s,
            self.imbalance(),
            self.steady_rps()
        )
    }
}

impl std::fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} lambda(s) [", self.model, self.partitions.len())?;
        for (i, p) in self.partitions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "L{}..L{} @{}MB", p.start, p.end, p.memory_mb)?;
        }
        write!(
            f,
            "] predicted {:.2}s / ${:.5}",
            self.predicted_time_s, self.predicted_cost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ExecutionPlan {
        ExecutionPlan {
            model: "m".into(),
            partitions: vec![
                PartitionPlan {
                    start: 0,
                    end: 9,
                    memory_mb: 512,
                },
                PartitionPlan {
                    start: 10,
                    end: 19,
                    memory_mb: 1024,
                },
            ],
            predicted_time_s: 3.0,
            predicted_cost: 0.001,
        }
    }

    #[test]
    fn accessors() {
        let p = plan();
        assert_eq!(p.num_lambdas(), 2);
        assert_eq!(p.memories(), vec![512, 1024]);
        assert_eq!(p.bounds(), vec![9, 19]);
    }

    #[test]
    fn validation_passes_on_complete_coverage() {
        assert!(plan().validate(20).is_ok());
    }

    #[test]
    fn validation_catches_gaps_and_wrong_end() {
        let mut p = plan();
        p.partitions[1].start = 11;
        assert!(p.validate(20).is_err());
        let p2 = plan();
        assert!(p2.validate(25).is_err());
    }

    #[test]
    fn json_round_trip() {
        let p = plan();
        let back = ExecutionPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn json_rejects_malformed_plans() {
        assert!(ExecutionPlan::from_json("{}").is_err());
        assert!(ExecutionPlan::from_json("not json").is_err());
    }

    #[test]
    fn display_is_informative() {
        let s = plan().to_string();
        assert!(s.contains("2 lambda(s)"));
        assert!(s.contains("@512MB"));
    }

    /// 4-node diamond: 0 scatters to {1, 2}, which gather into 3.
    fn dag() -> DagPlan {
        DagPlan {
            model: "m".into(),
            nodes: vec![
                DagNode {
                    start: 0,
                    end: 4,
                    memory_mb: 512,
                },
                DagNode {
                    start: 5,
                    end: 9,
                    memory_mb: 512,
                },
                DagNode {
                    start: 10,
                    end: 14,
                    memory_mb: 1024,
                },
                DagNode {
                    start: 15,
                    end: 19,
                    memory_mb: 512,
                },
            ],
            objects: vec![
                DagObject {
                    producer: 0,
                    consumers: vec![1, 2],
                    bytes: 1000,
                },
                DagObject {
                    producer: 1,
                    consumers: vec![3],
                    bytes: 400,
                },
                DagObject {
                    producer: 2,
                    consumers: vec![3],
                    bytes: 600,
                },
            ],
            predicted_time_s: 2.0,
            predicted_cost: 0.002,
        }
    }

    #[test]
    fn dag_accessors_and_validation() {
        let d = dag();
        assert!(d.validate(20).is_ok());
        assert_eq!(d.num_lambdas(), 4);
        assert_eq!(d.width(), 2);
        assert!(!d.is_chain());
        assert_eq!(d.parents_of(3), vec![1, 2]);
        assert_eq!(d.inputs_of(1), vec![0]);
        assert_eq!(d.inputs_of(3), vec![1, 2]);
        assert_eq!(d.outputs_of(0), vec![0]);
        assert_eq!(d.memories(), vec![512, 512, 1024, 512]);
    }

    #[test]
    fn dag_validation_catches_structural_errors() {
        let mut d = dag();
        d.nodes[1].start = 6;
        assert!(d.validate(20).is_err());
        let mut d = dag();
        d.objects[0].consumers = vec![2, 1];
        assert!(d.validate(20).is_err());
        let mut d = dag();
        d.objects[2].producer = 3;
        assert!(d.validate(20).is_err(), "backward edge must be rejected");
        let mut d = dag();
        d.objects.remove(0);
        assert!(d.validate(20).is_err(), "orphan node must be rejected");
        assert!(dag().validate(25).is_err());
    }

    #[test]
    fn dag_from_chain_is_degenerate_chain() {
        let p = plan();
        let d = DagPlan::from_chain(&p, |end| (end as u64 + 1) * 10);
        assert!(d.validate(20).is_ok());
        assert!(d.is_chain());
        assert_eq!(d.width(), 1);
        assert_eq!(d.objects.len(), 1);
        assert_eq!(d.objects[0].bytes, 100); // boundary after layer 9
        assert_eq!(d.predicted_time_s, p.predicted_time_s);
        assert_eq!(d.predicted_cost, p.predicted_cost);
    }

    #[test]
    fn dag_json_round_trip() {
        let d = dag();
        let back = DagPlan::from_json(&d.to_json()).unwrap();
        assert_eq!(back, d);
        assert!(DagPlan::from_json("{}").is_err());
    }

    #[test]
    fn dag_display_is_informative() {
        let s = dag().to_string();
        assert!(s.contains("4 node(s)"));
        assert!(s.contains("width 2"));
        assert!(s.contains("3 object(s)"));
    }

    #[test]
    fn pipeline_plan_metrics() {
        let pp = PipelinePlan {
            plan: plan(),
            stage_times_s: vec![1.0, 2.0],
            bottleneck_s: 2.0,
        };
        assert!((pp.steady_rps() - 0.5).abs() < 1e-12);
        // imbalance = 2.0 * 2 / 3.0
        assert!((pp.imbalance() - 4.0 / 3.0).abs() < 1e-12);
        // makespan(3) = fill 3.0 + 2 periods of 2.0
        assert!((pp.makespan_s(3) - 7.0).abs() < 1e-12);
        assert_eq!(pp.makespan_s(0), 0.0);
        let s = pp.to_string();
        assert!(s.contains("bottleneck"));
    }
}
