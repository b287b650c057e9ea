//! The `(layer x stage)` task graph and its α–β schedule model.
//!
//! Every unit of work in one K-FAC update step — each layer's factor
//! finalize/fold, its factor allreduce, the LPT-assigned eigensolves, the
//! eigendecomposition broadcasts, the per-gradient-worker preconditioning,
//! the gradient broadcasts, and the final scale — becomes a [`Task`] with
//! explicit dependencies, a resource (one rank's compute, or the shared
//! network), and a duration from the same α–β [`CollectiveCostModel`] the
//! simulator uses.
//!
//! Scheduling the same graph two ways quantifies the pipeline's win without
//! touching a wall clock:
//!
//! - [`StepModel::serial_seconds`] — the serial executor's lock-step walk:
//!   every layer completes a stage (compute **plus** its collective) before
//!   the next layer starts it.
//! - [`StepModel::pipelined_seconds`] — list scheduling in the pipelined
//!   executor's issue order: compute serializes per rank, collectives
//!   serialize on the network, but compute and communication of different
//!   layers overlap freely subject to dependencies.

use kaisa_comm::CollectiveCostModel;

use crate::assignment::WorkPlan;
use crate::pipeline::stage::PipelineStage;
use crate::state::factor_payload_len;
use crate::strategy::FactorReduction;

/// What a task occupies while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// One rank's compute stream.
    Compute(usize),
    /// The shared interconnect (collectives serialize here).
    Network,
}

/// One schedulable `(layer x stage)` unit.
#[derive(Debug, Clone)]
pub struct Task {
    /// Layer index.
    pub layer: usize,
    /// Which stage of the pipeline this task belongs to.
    pub stage: PipelineStage,
    /// Resource the task runs on.
    pub resource: Resource,
    /// Modeled duration, seconds.
    pub duration: f64,
    /// Indices of tasks that must finish first.
    pub deps: Vec<usize>,
}

/// A dependency graph of [`Task`]s in executor issue order.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Append a task, returning its index for use in later `deps`.
    pub fn push(&mut self, task: Task) -> usize {
        debug_assert!(task.deps.iter().all(|&d| d < self.tasks.len()), "deps must precede");
        self.tasks.push(task);
        self.tasks.len() - 1
    }

    /// All tasks in issue order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Sum of durations per stage (diagnostics).
    pub fn stage_total(&self, stage: PipelineStage) -> f64 {
        self.tasks.iter().filter(|t| t.stage == stage).map(|t| t.duration).sum()
    }

    /// List-schedule makespan: walk tasks in issue order; each starts at
    /// `max(resource free, deps finished)`. `world` sizes the compute
    /// resource table.
    pub fn list_schedule_makespan(&self, world: usize) -> f64 {
        let mut compute_free = vec![0.0f64; world];
        let mut network_free = 0.0f64;
        let mut finish = Vec::with_capacity(self.tasks.len());
        let mut makespan = 0.0f64;
        for task in &self.tasks {
            let deps_done = task.deps.iter().map(|&d| finish[d]).fold(0.0f64, f64::max);
            let free = match task.resource {
                Resource::Compute(r) => compute_free[r],
                Resource::Network => network_free,
            };
            let end = deps_done.max(free) + task.duration;
            match task.resource {
                Resource::Compute(r) => compute_free[r] = end,
                Resource::Network => network_free = end,
            }
            makespan = makespan.max(end);
            finish.push(end);
        }
        makespan
    }

    /// Dependency-only critical path (infinite resources) — a lower bound on
    /// any schedule.
    pub fn critical_path(&self) -> f64 {
        let mut finish = Vec::with_capacity(self.tasks.len());
        let mut longest = 0.0f64;
        for task in &self.tasks {
            let deps_done = task.deps.iter().map(|&d| finish[d]).fold(0.0f64, f64::max);
            let end = deps_done + task.duration;
            longest = longest.max(end);
            finish.push(end);
        }
        longest
    }
}

/// Peak throughputs used to convert flop counts to durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeRates {
    /// Effective GEMM/elementwise throughput, flop/s.
    pub gemm_flops: f64,
    /// Effective symmetric-eigensolve throughput, flop/s (far below GEMM
    /// peak — the solver is iterative and bandwidth-bound).
    pub eig_flops: f64,
}

impl Default for ComputeRates {
    fn default() -> Self {
        // V100-class ballpark, matching the simulator's device table.
        ComputeRates { gemm_flops: 10e12, eig_flops: 0.4e12 }
    }
}

/// Options for [`StepModel::with_options`] beyond the dense defaults.
#[derive(Debug, Clone, Copy)]
pub struct StepModelOptions {
    /// Factor element width in bytes (2 for fp16 factors).
    pub elem_bytes: usize,
    /// Triangular factor packing (Section 4.3).
    pub triangular: bool,
    /// Which factor-reduction mode to model: the dense world allreduce, the
    /// sharded reduce-scatter (folds run only on the owning
    /// eigendecomposition workers), or LOCAL-OPT's no-collective local fold
    /// (finalize and fold on the single owner, no network task at all).
    pub reduction: FactorReduction,
    /// With the sharded reduction, also model the `FactorGather` regather
    /// within each layer's eigendecomposition worker group — the
    /// direct-inverse fallback, whose solver consumes both factors on one
    /// rank.
    pub gather: bool,
}

impl StepModelOptions {
    /// Dense-path options: world allreduce, no regather.
    pub fn dense(elem_bytes: usize, triangular: bool) -> Self {
        StepModelOptions {
            elem_bytes,
            triangular,
            reduction: FactorReduction::DenseAllreduce,
            gather: false,
        }
    }
}

/// The modeled cost of one full K-FAC update step (factor + eig +
/// precondition + scale) under a given placement plan and network.
#[derive(Debug, Clone)]
pub struct StepModel {
    graph: TaskGraph,
    serial: f64,
    world: usize,
}

impl StepModel {
    /// Build the dense-path model for layers of factor dims
    /// `dims = [(a, g); n]` under `plan`, an α–β network `cost`, compute
    /// `rates`, factor element width `elem_bytes` (2 for fp16 factors), and
    /// the triangular-packing flag.
    pub fn new(
        dims: &[(usize, usize)],
        plan: &WorkPlan,
        cost: &CollectiveCostModel,
        rates: &ComputeRates,
        elem_bytes: usize,
        triangular: bool,
    ) -> Self {
        StepModel::with_options(
            dims,
            plan,
            cost,
            rates,
            StepModelOptions::dense(elem_bytes, triangular),
        )
    }

    /// Build the model with explicit [`StepModelOptions`] — the sharded
    /// factor path and/or the inverse-fallback regather.
    pub fn with_options(
        dims: &[(usize, usize)],
        plan: &WorkPlan,
        cost: &CollectiveCostModel,
        rates: &ComputeRates,
        opts: StepModelOptions,
    ) -> Self {
        assert_eq!(dims.len(), plan.layers.len(), "plan must cover every layer");
        let StepModelOptions { elem_bytes, triangular, reduction, gather } = opts;
        let sharded = reduction == FactorReduction::ShardedReduceScatter;
        let local = reduction == FactorReduction::LocalNone;
        let world = plan.world;
        let mut graph = TaskGraph::new();
        let mut serial = 0.0f64;

        let n = dims.len();
        let fa_fin: Vec<f64> =
            dims.iter().map(|&(a, g)| 2.0 * (a * a + g * g) as f64 / rates.gemm_flops).collect();
        let fa_fold = fa_fin.clone(); // axpby over both factors: same element count
        let fold_a: Vec<f64> =
            dims.iter().map(|&(a, _)| 2.0 * (a * a) as f64 / rates.gemm_flops).collect();
        let fold_g: Vec<f64> =
            dims.iter().map(|&(_, g)| 2.0 * (g * g) as f64 / rates.gemm_flops).collect();
        let payload_bytes: Vec<usize> =
            dims.iter().map(|&(a, g)| factor_payload_len(a, g, triangular) * elem_bytes).collect();
        let ar: Vec<f64> = payload_bytes.iter().map(|&b| cost.allreduce(b, world)).collect();
        let rs: Vec<f64> = payload_bytes.iter().map(|&b| cost.reduce_scatter(b, world)).collect();
        // The fallback regather within the (at most two-member) eig worker
        // group: each member contributes roughly half the payload.
        let ga: Vec<f64> = (0..n)
            .map(|i| {
                let asn = &plan.layers[i];
                if gather && asn.a_worker != asn.g_worker {
                    cost.allgather(payload_bytes[i].div_ceil(2), 2)
                } else {
                    0.0
                }
            })
            .collect();
        let eig_a: Vec<f64> =
            dims.iter().map(|&(a, _)| 9.0 * (a as f64).powi(3) / rates.eig_flops).collect();
        let eig_g: Vec<f64> =
            dims.iter().map(|&(_, g)| 9.0 * (g as f64).powi(3) / rates.eig_flops).collect();
        let outer: Vec<f64> =
            dims.iter().map(|&(a, g)| (a * g) as f64 / rates.gemm_flops).collect();
        let prec: Vec<f64> = dims
            .iter()
            .map(|&(a, g)| (4 * a * g * (a + g) + a * g) as f64 / rates.gemm_flops)
            .collect();
        let scale: Vec<f64> =
            dims.iter().map(|&(a, g)| 3.0 * (a * g) as f64 / rates.gemm_flops).collect();

        // -------- Factor phase --------
        // Sweep A: finalize on every rank, then post the collective (world
        // allreduce, or the sharded reduce-scatter). Sweep B folds the
        // averages — on every rank for the dense path, only on the owning
        // eigendecomposition workers for the sharded path. LOCAL-OPT
        // degenerates both sweeps: finalize and fold run on the single
        // owner and there is no network task at all.
        let mut a_factor_ready = vec![0usize; n]; // task feeding eig_a on the A worker
        let mut g_factor_ready = vec![0usize; n]; // task feeding eig_g on the G worker
        let mut fin_ids = vec![Vec::new(); n];
        let mut comm_ids = vec![0usize; n];
        for i in 0..n {
            if local {
                let id = graph.push(Task {
                    layer: i,
                    stage: PipelineStage::FactorAccumulate,
                    resource: Resource::Compute(plan.layers[i].a_worker),
                    duration: fa_fin[i],
                    deps: Vec::new(),
                });
                fin_ids[i].push(id);
                comm_ids[i] = id; // the fold depends directly on the finalize
                continue;
            }
            for r in 0..world {
                let id = graph.push(Task {
                    layer: i,
                    stage: PipelineStage::FactorAccumulate,
                    resource: Resource::Compute(r),
                    duration: fa_fin[i],
                    deps: Vec::new(),
                });
                fin_ids[i].push(id);
            }
            let (stage, duration) = if sharded {
                (PipelineStage::FactorReduce, rs[i])
            } else {
                (PipelineStage::FactorAllreduce, ar[i])
            };
            comm_ids[i] = graph.push(Task {
                layer: i,
                stage,
                resource: Resource::Network,
                duration,
                deps: fin_ids[i].clone(),
            });
        }
        for i in 0..n {
            let asn = &plan.layers[i];
            let mut fold_dep = comm_ids[i];
            if local {
                let id = graph.push(Task {
                    layer: i,
                    stage: PipelineStage::FactorAccumulate,
                    resource: Resource::Compute(asn.a_worker),
                    duration: fa_fold[i],
                    deps: vec![fold_dep],
                });
                a_factor_ready[i] = id;
                g_factor_ready[i] = id;
                serial += fa_fin[i] + fa_fold[i];
                continue;
            }
            if sharded && ga[i] > 0.0 {
                fold_dep = graph.push(Task {
                    layer: i,
                    stage: PipelineStage::FactorGather,
                    resource: Resource::Network,
                    duration: ga[i],
                    deps: vec![comm_ids[i]],
                });
            }
            if sharded {
                let a_id = graph.push(Task {
                    layer: i,
                    stage: PipelineStage::FactorAccumulate,
                    resource: Resource::Compute(asn.a_worker),
                    duration: fold_a[i],
                    deps: vec![fold_dep],
                });
                let g_id = graph.push(Task {
                    layer: i,
                    stage: PipelineStage::FactorAccumulate,
                    resource: Resource::Compute(asn.g_worker),
                    duration: fold_g[i],
                    deps: vec![fold_dep],
                });
                a_factor_ready[i] = a_id;
                g_factor_ready[i] = g_id;
                serial += fa_fin[i] + rs[i] + ga[i];
                serial += if asn.a_worker == asn.g_worker {
                    fold_a[i] + fold_g[i]
                } else {
                    fold_a[i].max(fold_g[i])
                };
            } else {
                let mut fold_ids = Vec::with_capacity(world);
                for r in 0..world {
                    fold_ids.push(graph.push(Task {
                        layer: i,
                        stage: PipelineStage::FactorAccumulate,
                        resource: Resource::Compute(r),
                        duration: fa_fold[i],
                        deps: vec![fold_dep],
                    }));
                }
                a_factor_ready[i] = fold_ids[asn.a_worker];
                g_factor_ready[i] = fold_ids[asn.g_worker];
                serial += fa_fin[i] + ar[i] + fa_fold[i];
            }
        }

        // -------- Eigendecomposition phase --------
        let mut eig_done = vec![0usize; n]; // last task whose output feeds preconditioning
        for i in 0..n {
            let asn = &plan.layers[i];
            let a_id = graph.push(Task {
                layer: i,
                stage: PipelineStage::EigCompute,
                resource: Resource::Compute(asn.a_worker),
                duration: eig_a[i],
                deps: vec![a_factor_ready[i]],
            });
            let g_id = graph.push(Task {
                layer: i,
                stage: PipelineStage::EigCompute,
                resource: Resource::Compute(asn.g_worker),
                duration: eig_g[i],
                deps: vec![g_factor_ready[i]],
            });
            // v_A pair shuttle + outer product on the G worker.
            let mut outer_deps = vec![g_id];
            let mut pair_cost = 0.0;
            if asn.a_worker != asn.g_worker {
                pair_cost = cost.broadcast(dims[i].0 * elem_bytes, 2);
                outer_deps.push(graph.push(Task {
                    layer: i,
                    stage: PipelineStage::EigBcast,
                    resource: Resource::Network,
                    duration: pair_cost,
                    deps: vec![a_id],
                }));
            }
            let outer_id = graph.push(Task {
                layer: i,
                stage: PipelineStage::EigCompute,
                resource: Resource::Compute(asn.g_worker),
                duration: outer[i],
                deps: outer_deps,
            });
            let gw = asn.gradient_workers.len();
            let bcast_cost = if gw > 1 {
                let (a, g) = dims[i];
                cost.broadcast((a * a + g * g + a * g) * elem_bytes, gw)
            } else {
                0.0
            };
            let done = if gw > 1 {
                graph.push(Task {
                    layer: i,
                    stage: PipelineStage::EigBcast,
                    resource: Resource::Network,
                    duration: bcast_cost,
                    deps: vec![a_id, g_id, outer_id],
                })
            } else {
                outer_id
            };
            eig_done[i] = done;
            // Co-located workers serialize the two eigensolves; distinct
            // workers run them concurrently even in the serial executor.
            let eig_cost = if asn.a_worker == asn.g_worker {
                eig_a[i] + eig_g[i]
            } else {
                eig_a[i].max(eig_g[i])
            };
            serial += eig_cost + pair_cost + outer[i] + bcast_cost;
        }

        // -------- Precondition + gradient broadcast phase --------
        let mut gb_or_p = Vec::new();
        for i in 0..n {
            let asn = &plan.layers[i];
            let mut p_ids = Vec::new();
            for &r in &asn.gradient_workers {
                p_ids.push(graph.push(Task {
                    layer: i,
                    stage: PipelineStage::Precondition,
                    resource: Resource::Compute(r),
                    duration: prec[i],
                    deps: vec![eig_done[i]],
                }));
            }
            let largest = asn.bcast_groups.iter().map(|g| g.len()).max().unwrap_or(1);
            let gb_cost =
                if largest > 1 { cost.broadcast(dims[i].0 * dims[i].1 * 4, largest) } else { 0.0 };
            if largest > 1 {
                gb_or_p.push(graph.push(Task {
                    layer: i,
                    stage: PipelineStage::GradBcast,
                    resource: Resource::Network,
                    duration: gb_cost,
                    deps: p_ids,
                }));
            } else {
                gb_or_p.extend(p_ids);
            }
            serial += prec[i] + gb_cost;
        }

        // -------- Scale --------
        let scale_total: f64 = scale.iter().sum();
        for r in 0..world {
            graph.push(Task {
                layer: 0,
                stage: PipelineStage::ScaleUpdate,
                resource: Resource::Compute(r),
                duration: scale_total,
                deps: gb_or_p.clone(),
            });
        }

        // Serial lock-step: every layer's factor stages already round-tripped
        // before the next layer's begin (accumulated above); only the shared
        // scale remains.
        serial += scale_total;

        StepModel { graph, serial, world }
    }

    /// The underlying task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Modeled seconds for the serial executor's lock-step walk.
    pub fn serial_seconds(&self) -> f64 {
        self.serial
    }

    /// Modeled seconds for the pipelined executor (list-scheduled overlap).
    pub fn pipelined_seconds(&self) -> f64 {
        self.graph.list_schedule_makespan(self.world)
    }

    /// `serial / pipelined` — how much the overlap shortens the step.
    pub fn overlap_speedup(&self) -> f64 {
        self.serial_seconds() / self.pipelined_seconds().max(1e-18)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::plan_assignments;
    use crate::AssignmentStrategy;
    use kaisa_comm::{ClusterNetwork, CollectiveCostModel};

    fn dims() -> Vec<(usize, usize)> {
        vec![(144, 64), (576, 64), (576, 128), (1152, 128), (128, 10)]
    }

    fn model(world: usize, frac: f64, net: ClusterNetwork) -> StepModel {
        let d = dims();
        let plan = plan_assignments(&d, world, frac, AssignmentStrategy::ComputeLpt);
        StepModel::new(
            &d,
            &plan,
            &CollectiveCostModel::new(net),
            &ComputeRates::default(),
            4,
            false,
        )
    }

    #[test]
    fn single_rank_has_no_network_tasks_and_no_speedup() {
        let m = model(1, 1.0, ClusterNetwork::ethernet_10g());
        let net_time: f64 = m
            .graph()
            .tasks()
            .iter()
            .filter(|t| t.resource == Resource::Network)
            .map(|t| t.duration)
            .sum();
        assert_eq!(net_time, 0.0, "world=1 collectives are free");
        // With one compute resource and nothing to overlap, both schedules
        // degenerate to the same serialization.
        assert!((m.serial_seconds() - m.pipelined_seconds()).abs() < 1e-12);
    }

    #[test]
    fn pipelined_never_exceeds_serial() {
        for world in [2, 4, 8] {
            for frac in [1.0 / world as f64, 0.5, 1.0] {
                for net in [ClusterNetwork::infiniband_edr(), ClusterNetwork::ethernet_10g()] {
                    let m = model(world, frac, net);
                    assert!(
                        m.pipelined_seconds() <= m.serial_seconds() + 1e-15,
                        "world={world} frac={frac}: {} > {}",
                        m.pipelined_seconds(),
                        m.serial_seconds()
                    );
                }
            }
        }
    }

    #[test]
    fn critical_path_lower_bounds_the_schedule() {
        let m = model(8, 0.5, ClusterNetwork::ethernet_10g());
        assert!(m.graph().critical_path() <= m.pipelined_seconds() + 1e-15);
    }

    fn sharded_opts() -> StepModelOptions {
        StepModelOptions {
            elem_bytes: 4,
            triangular: false,
            reduction: FactorReduction::ShardedReduceScatter,
            gather: false,
        }
    }

    #[test]
    fn sharded_model_replaces_the_allreduce_and_moves_less_traffic() {
        let d = dims();
        let plan = plan_assignments(&d, 8, 0.5, AssignmentStrategy::ComputeLpt);
        let cost = CollectiveCostModel::new(ClusterNetwork::ethernet_10g());
        let rates = ComputeRates::default();
        let dense = StepModel::new(&d, &plan, &cost, &rates, 4, false);
        let sharded = StepModel::with_options(&d, &plan, &cost, &rates, sharded_opts());
        assert_eq!(sharded.graph().stage_total(PipelineStage::FactorAllreduce), 0.0);
        assert_eq!(dense.graph().stage_total(PipelineStage::FactorReduce), 0.0);
        let rs = sharded.graph().stage_total(PipelineStage::FactorReduce);
        let ar = dense.graph().stage_total(PipelineStage::FactorAllreduce);
        assert!(rs > 0.0 && rs < ar, "reduce-scatter ({rs}) must undercut the allreduce ({ar})");
        assert!(
            sharded.pipelined_seconds() <= dense.pipelined_seconds() + 1e-15,
            "sharded factor phase must not lengthen the modeled step"
        );
    }

    #[test]
    fn local_model_has_no_factor_network_tasks_and_undercuts_dense() {
        let d = dims();
        // LOCAL-OPT runs on the one-worker grid.
        let plan = plan_assignments(&d, 8, 1.0 / 8.0, AssignmentStrategy::ComputeLpt);
        let cost = CollectiveCostModel::new(ClusterNetwork::ethernet_10g());
        let rates = ComputeRates::default();
        let dense =
            StepModel::with_options(&d, &plan, &cost, &rates, StepModelOptions::dense(4, false));
        let local = StepModel::with_options(
            &d,
            &plan,
            &cost,
            &rates,
            StepModelOptions {
                reduction: FactorReduction::LocalNone,
                ..StepModelOptions::dense(4, false)
            },
        );
        for stage in [
            PipelineStage::FactorAllreduce,
            PipelineStage::FactorReduce,
            PipelineStage::FactorGather,
        ] {
            assert_eq!(local.graph().stage_total(stage), 0.0, "{stage:?} must be absent");
        }
        assert!(
            local.serial_seconds() < dense.serial_seconds(),
            "dropping the factor allreduce must shorten the modeled step"
        );
        assert!(local.pipelined_seconds() <= dense.pipelined_seconds() + 1e-15);
    }

    #[test]
    fn gather_tasks_appear_only_for_split_worker_layers() {
        let d = dims();
        let plan = plan_assignments(&d, 4, 0.5, AssignmentStrategy::ComputeLpt);
        let cost = CollectiveCostModel::new(ClusterNetwork::ethernet_10g());
        let rates = ComputeRates::default();
        let no_gather = StepModel::with_options(&d, &plan, &cost, &rates, sharded_opts());
        let mut with_gather = sharded_opts();
        with_gather.gather = true;
        let with_gather = StepModel::with_options(&d, &plan, &cost, &rates, with_gather);
        assert_eq!(no_gather.graph().stage_total(PipelineStage::FactorGather), 0.0);
        let split_layers = plan.layers.iter().filter(|a| a.a_worker != a.g_worker).count();
        let gather_tasks = with_gather
            .graph()
            .tasks()
            .iter()
            .filter(|t| t.stage == PipelineStage::FactorGather)
            .count();
        assert_eq!(gather_tasks, split_layers, "one regather per split-worker layer");
    }

    #[test]
    fn list_schedule_respects_dependencies_and_resources() {
        // Two independent 1s compute tasks on one rank serialize; on two
        // ranks they run concurrently.
        let mut g = TaskGraph::new();
        let t = |r: usize, deps: Vec<usize>| Task {
            layer: 0,
            stage: PipelineStage::EigCompute,
            resource: Resource::Compute(r),
            duration: 1.0,
            deps,
        };
        g.push(t(0, vec![]));
        g.push(t(0, vec![]));
        assert_eq!(g.list_schedule_makespan(1), 2.0);
        let mut g2 = TaskGraph::new();
        g2.push(t(0, vec![]));
        g2.push(t(1, vec![]));
        assert_eq!(g2.list_schedule_makespan(2), 1.0);
        // A dependency forces serialization even across ranks.
        let mut g3 = TaskGraph::new();
        let first = g3.push(t(0, vec![]));
        g3.push(t(1, vec![first]));
        assert_eq!(g3.list_schedule_makespan(2), 2.0);
        assert_eq!(g3.critical_path(), 2.0);
    }
}
