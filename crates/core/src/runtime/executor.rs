//! The runtime executor: `Kfac::step` as a DAG of polled task units.
//!
//! Each phase of the K-FAC step decomposes into per-layer tasks (see
//! `TaskKind`): a *begin* task packs data and initiates the phase's
//! collective, a *complete* task polls its readiness, consumes the payload,
//! and folds it into state, and pure-compute tasks (eigensolves,
//! preconditioning) sit between them. The [`Scheduler`] runs these in data
//! dependency order, parking complete-side tasks whose collectives are
//! still in flight — so a rank blocked on one layer's allreduce keeps
//! working on other layers, later phases, or (via the
//! [`Kfac::step_begin`]/[`Kfac::step_finish`] split) the *next* iteration's
//! factor-accumulation phase.
//!
//! Bitwise equivalence with the serial and sweep executors holds because:
//!
//! - every task reuses the *same* stage kernels and quantization points in
//!   `crate::state` / `crate::preconditioner`,
//! - collective begin order is pinned per group by plan-time gates in
//!   canonical sweep order (the sweep executor's exact begin order), so the
//!   rank-ordered reductions see identical operand sequences, and
//! - the KL-clip scale runs as a single task in fixed serial layer order.

use kaisa_comm::{CommTag, Communicator, PendingCollective, ReduceOp};
use kaisa_nn::Model;
use kaisa_tensor::Matrix;

use crate::pipeline::executor::LayerBcasts;
use crate::preconditioner::{factor_shards, reassemble_gathered_payload, Kfac};
use crate::runtime::scheduler::{Scheduler, TaskPoll};
use crate::state::{
    factor_payload_len, pack_factor_payload, pack_factor_payload_scaled_into,
    unpack_factor_payload, KfacLayerState,
};
use crate::strategy::FactorReduction;
use crate::timing::Stage;

/// One schedulable unit of a K-FAC step, tagged with its layer index.
enum TaskKind {
    /// Finalize captured statistics, pack, and begin the dense factor
    /// allreduce. Gated on the world group.
    FactorDenseBegin(usize),
    /// Finalize captured statistics, scale-and-pack into staging, and begin
    /// the sharded reduce-scatter. Gated on the world group.
    FactorShardBegin(usize),
    /// LOCAL-OPT: finalize and fold this rank's **local** statistics on the
    /// layer's owner — no collective, so no complete-side task exists and
    /// the depth-D window has nothing to defer. Ungated.
    FactorLocalFold(usize),
    /// Complete the dense allreduce, unpack, and fold the averages.
    FactorDenseComplete(usize),
    /// Complete the reduce-scatter shard; fold it, or stash it for the
    /// direct-inverse fallback's regather.
    FactorShardComplete(usize),
    /// Begin the worker-group allgather that rematerializes the payload for
    /// the direct-inverse fallback. Gated on the eig worker group.
    FactorGatherBegin(usize),
    /// Complete the regather and fold on the A worker.
    FactorGatherComplete(usize),
    /// Local eigensolves / direct inverses for this rank's roles.
    EigSolve(usize),
    /// Begin the `v_A` shuttle to the G worker. Gated on the worker pair.
    EigPairBegin(usize),
    /// Complete the `v_A` shuttle.
    EigPairComplete(usize),
    /// Compute the damped reciprocal outer product on the G worker.
    EigOuter(usize),
    /// Begin every eigendecomposition result broadcast for this layer.
    /// Gated on the gradient-worker group.
    EigBcastBegin(usize),
    /// Complete the result broadcasts into the layer state.
    EigBcastComplete(usize),
    /// Precondition this layer's gradient locally.
    Precond(usize),
    /// Begin the preconditioned-gradient broadcast. Gated on the layer's
    /// broadcast group.
    GradBcastBegin(usize),
    /// Complete the preconditioned-gradient broadcast.
    GradBcastComplete(usize),
    /// KL-clip scale and write-back, in fixed serial layer order.
    Scale,
}

/// A factor collective in flight: the handle plus unpack metadata. `buf`
/// is the dense allreduce's payload buffer (empty under sharding, where the
/// complete side allocates its own shard buffer).
struct FactorInFlight {
    pending: PendingCollective,
    buf: Vec<f32>,
    split: usize,
    total: usize,
}

/// Mutable task-local state threaded between a step's tasks.
struct StepCtx {
    /// Staging-ring slot this step's factor begins pack into
    /// (`window_index % depth`), so a held predecessor DAG in a depth-D
    /// window never aliases this step's live staging buffers.
    slot: usize,
    factor: Vec<Option<FactorInFlight>>,
    /// Per-layer `(split, total)` payload geometry, recorded by the sharded
    /// complete for the regather tasks.
    splits: Vec<(usize, usize)>,
    /// Owned shard awaiting the regather begin (sharded inverse fallback).
    owned: Vec<Option<Vec<f32>>>,
    /// Regather in flight: handle plus this rank's owned length.
    gather: Vec<Option<(PendingCollective, usize)>>,
    va: Vec<Option<Vec<f32>>>,
    vg: Vec<Option<Vec<f32>>>,
    pair: Vec<Option<(PendingCollective, Vec<f32>)>>,
    bcasts: Vec<LayerBcasts>,
    grads: Vec<Matrix>,
    precond: Vec<Option<Matrix>>,
    grad_pending: Vec<Option<PendingCollective>>,
}

impl StepCtx {
    fn new(n: usize, slot: usize) -> Self {
        StepCtx {
            slot,
            factor: (0..n).map(|_| None).collect(),
            splits: vec![(0, 0); n],
            owned: (0..n).map(|_| None).collect(),
            gather: (0..n).map(|_| None).collect(),
            va: (0..n).map(|_| None).collect(),
            vg: (0..n).map(|_| None).collect(),
            pair: (0..n).map(|_| None).collect(),
            bcasts: (0..n).map(|_| LayerBcasts::default()).collect(),
            grads: Vec::new(),
            precond: (0..n).map(|_| None).collect(),
            grad_pending: (0..n).map(|_| None).collect(),
        }
    }
}

/// An in-progress runtime step, stashed on [`Kfac`] between
/// [`Kfac::step_begin`] and [`Kfac::step_finish`] — and, at window depths
/// beyond 1, possibly retired into the window ring with deferred factor
/// completes still in flight.
pub struct RuntimeStep {
    sched: Scheduler,
    kinds: Vec<TaskKind>,
    ctx: StepCtx,
    /// Monotone DAG counter (`Kfac::windows_built` at plan time).
    window_index: u64,
    /// The `Kfac::steps` value this DAG belongs to.
    iteration: u64,
}

impl RuntimeStep {
    /// Bytes of payload this retired step still pins while it sits in the
    /// window ring: in-flight dense factor buffers plus stashed owned
    /// shards. Gather handles and completed tasks pin nothing.
    fn held_bytes(&self) -> usize {
        let factor: usize = self.ctx.factor.iter().flatten().map(|fl| fl.buf.capacity()).sum();
        let owned: usize = self.ctx.owned.iter().flatten().map(|b| b.capacity()).sum();
        (factor + owned) * std::mem::size_of::<f32>()
    }
}

impl std::fmt::Debug for RuntimeStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeStep")
            .field("tasks", &self.kinds.len())
            .field("window_index", &self.window_index)
            .field("iteration", &self.iteration)
            .finish()
    }
}

impl Kfac {
    /// Plan the step's task DAG: tasks in canonical phase order, layers in
    /// sweep order within each phase, so per-group gate sequences reproduce
    /// the sweep executor's begin order exactly. Every task except the
    /// factor begins starts *held* (released by `step_finish`), giving
    /// `step_begin` its factor-only contract.
    fn build_runtime_step(&mut self) -> RuntimeStep {
        fn push(
            sched: &mut Scheduler,
            kinds: &mut Vec<TaskKind>,
            kind: TaskKind,
            label: String,
            gate: Option<usize>,
            deps: &[usize],
        ) -> usize {
            kinds.push(kind);
            sched.add_task(label, gate, deps)
        }

        let n = self.states.len();
        let rank = self.rank;
        let factor_step = self.is_factor_update_step();
        let inv_step = self.is_inv_update_step();
        let use_eigen = self.cfg.use_eigen;
        let precompute = self.cfg.precompute_outer;
        let order = self.sweep_order.clone();
        let window_index = self.windows_built;
        let iteration = self.steps;
        self.windows_built += 1;
        let mut sched = Scheduler::with_window(
            rank,
            self.cfg.runtime_stall_timeout_ms,
            window_index,
            iteration,
        );
        let mut kinds: Vec<TaskKind> = Vec::new();

        // Phase 1: factor update. The resolved `StrategyPlan` picks the
        // task shapes here, at plan time — `run_task` bodies carry no
        // strategy conditionals.
        let mut fold_task: Vec<Option<usize>> = vec![None; n];
        if factor_step {
            match self.strat.reduction {
                FactorReduction::LocalNone => {
                    // No collective: the ungated local fold runs entirely in
                    // `step_begin` and directly feeds the eigensolves.
                    for &i in &order {
                        fold_task[i] = Some(push(
                            &mut sched,
                            &mut kinds,
                            TaskKind::FactorLocalFold(i),
                            format!("factor-local-fold L{i}"),
                            None,
                            &[],
                        ));
                    }
                }
                FactorReduction::ShardedReduceScatter => {
                    let world_group: Vec<usize> = (0..self.world).collect();
                    let wg = sched.add_group(&world_group);
                    let mut begin_id = vec![0usize; n];
                    for &i in &order {
                        begin_id[i] = push(
                            &mut sched,
                            &mut kinds,
                            TaskKind::FactorShardBegin(i),
                            format!("factor-begin L{i}"),
                            Some(wg),
                            &[],
                        );
                    }
                    for &i in &order {
                        fold_task[i] = Some(push(
                            &mut sched,
                            &mut kinds,
                            TaskKind::FactorShardComplete(i),
                            format!("factor-shard-complete L{i}"),
                            None,
                            &[begin_id[i]],
                        ));
                    }
                    for &i in &order {
                        let asn = self.plan.layers[i].clone();
                        if self.strat.needs_regather(&asn) && asn.eig_worker_group().contains(&rank)
                        {
                            let eg = sched.add_group(&asn.eig_worker_group());
                            let gb = push(
                                &mut sched,
                                &mut kinds,
                                TaskKind::FactorGatherBegin(i),
                                format!("factor-gather-begin L{i}"),
                                Some(eg),
                                &[fold_task[i].expect("shard complete planned")],
                            );
                            fold_task[i] = Some(push(
                                &mut sched,
                                &mut kinds,
                                TaskKind::FactorGatherComplete(i),
                                format!("factor-gather-complete L{i}"),
                                None,
                                &[gb],
                            ));
                        }
                    }
                }
                FactorReduction::DenseAllreduce => {
                    let world_group: Vec<usize> = (0..self.world).collect();
                    let wg = sched.add_group(&world_group);
                    let mut begin_id = vec![0usize; n];
                    for &i in &order {
                        begin_id[i] = push(
                            &mut sched,
                            &mut kinds,
                            TaskKind::FactorDenseBegin(i),
                            format!("factor-begin L{i}"),
                            Some(wg),
                            &[],
                        );
                    }
                    for &i in &order {
                        fold_task[i] = Some(push(
                            &mut sched,
                            &mut kinds,
                            TaskKind::FactorDenseComplete(i),
                            format!("factor-complete L{i}"),
                            None,
                            &[begin_id[i]],
                        ));
                    }
                }
            }
        }

        // Phase 2: eigendecompositions.
        let mut eig_last: Vec<Option<usize>> = vec![None; n];
        if inv_step {
            for &i in &order {
                let deps: Vec<usize> = fold_task[i].into_iter().collect();
                let s = push(
                    &mut sched,
                    &mut kinds,
                    TaskKind::EigSolve(i),
                    format!("eig-solve L{i}"),
                    None,
                    &deps,
                );
                eig_last[i] = Some(s);
                let asn = self.plan.layers[i].clone();
                let mut pair_complete = None;
                if use_eigen
                    && precompute
                    && asn.a_worker != asn.g_worker
                    && (rank == asn.a_worker || rank == asn.g_worker)
                {
                    let pg = sched.add_group(&[asn.a_worker, asn.g_worker]);
                    let pb = push(
                        &mut sched,
                        &mut kinds,
                        TaskKind::EigPairBegin(i),
                        format!("eig-pair-begin L{i}"),
                        Some(pg),
                        &[s],
                    );
                    let pc = push(
                        &mut sched,
                        &mut kinds,
                        TaskKind::EigPairComplete(i),
                        format!("eig-pair-complete L{i}"),
                        None,
                        &[pb],
                    );
                    pair_complete = Some(pc);
                    eig_last[i] = Some(pc);
                }
                if use_eigen && precompute && rank == asn.g_worker {
                    let mut deps = vec![s];
                    deps.extend(pair_complete);
                    eig_last[i] = Some(push(
                        &mut sched,
                        &mut kinds,
                        TaskKind::EigOuter(i),
                        format!("eig-outer L{i}"),
                        None,
                        &deps,
                    ));
                }
            }
            for &i in &order {
                let asn = self.plan.layers[i].clone();
                if asn.is_gradient_worker(rank) && asn.gradient_workers.len() > 1 {
                    let gg = sched.add_group(&asn.gradient_workers);
                    let bb = push(
                        &mut sched,
                        &mut kinds,
                        TaskKind::EigBcastBegin(i),
                        format!("eig-bcast-begin L{i}"),
                        Some(gg),
                        &[eig_last[i].expect("eig solve planned")],
                    );
                    eig_last[i] = Some(push(
                        &mut sched,
                        &mut kinds,
                        TaskKind::EigBcastComplete(i),
                        format!("eig-bcast-complete L{i}"),
                        None,
                        &[bb],
                    ));
                }
            }
        }

        // Phase 3: precondition, gradient broadcasts, scale.
        let mut grad_last = vec![0usize; n];
        for &i in &order {
            let deps: Vec<usize> = eig_last[i].into_iter().collect();
            let p = push(
                &mut sched,
                &mut kinds,
                TaskKind::Precond(i),
                format!("precondition L{i}"),
                None,
                &deps,
            );
            grad_last[i] = p;
            let asn = self.plan.layers[i].clone();
            if let Some(group) = asn.bcast_group_of(rank) {
                let gg = sched.add_group(group);
                let gb = push(
                    &mut sched,
                    &mut kinds,
                    TaskKind::GradBcastBegin(i),
                    format!("grad-bcast-begin L{i}"),
                    Some(gg),
                    &[p],
                );
                grad_last[i] = push(
                    &mut sched,
                    &mut kinds,
                    TaskKind::GradBcastComplete(i),
                    format!("grad-bcast-complete L{i}"),
                    None,
                    &[gb],
                );
            }
        }
        push(&mut sched, &mut kinds, TaskKind::Scale, "scale".to_string(), None, &grad_last);

        for (id, kind) in kinds.iter().enumerate() {
            if !matches!(
                kind,
                TaskKind::FactorDenseBegin(_)
                    | TaskKind::FactorShardBegin(_)
                    | TaskKind::FactorLocalFold(_)
            ) {
                sched.hold(id);
            }
        }
        // Depth-D window: factor *completes* may outlive their step — their
        // collectives are already begun (begins are never deferrable, so
        // per-group begin order is untouched) and their folds commute with
        // everything until the next factor-update step, which `step_begin`
        // force-drains ahead of. The one exception: a shard complete whose
        // payload feeds this rank's regather begin must finish in-step,
        // because that begin is gated.
        if self.resolved_depth > 1 {
            for (id, kind) in kinds.iter().enumerate() {
                let deferrable = match *kind {
                    TaskKind::FactorDenseComplete(_) | TaskKind::FactorGatherComplete(_) => true,
                    TaskKind::FactorShardComplete(i) => {
                        let asn = &self.plan.layers[i];
                        !(self.strat.needs_regather(asn) && asn.eig_worker_group().contains(&rank))
                    }
                    _ => false,
                };
                if deferrable {
                    sched.mark_deferrable(id);
                }
            }
        }
        let slot = (window_index % self.resolved_depth as u64) as usize;
        RuntimeStep { sched, kinds, ctx: StepCtx::new(n, slot), window_index, iteration }
    }

    /// Start a runtime step: plan the task DAG and run the factor-phase
    /// *begin* tasks only, leaving their collectives in flight. Call after
    /// the backward pass, *before* the data-parallel gradient allreduce —
    /// that lets the factor reductions overlap the DDP allreduce and the
    /// remainder of the step (the paper's cross-iteration lookahead).
    /// Every rank must call this at the same point so the world-group
    /// collective order stays consistent. Requires `async_runtime`.
    pub fn step_begin<M: Model>(&mut self, model: &mut M, comm: &dyn Communicator) {
        assert!(self.cfg.async_runtime, "step_begin requires async_runtime(true)");
        assert!(
            self.runtime_step.is_none(),
            "step_begin called twice without an intervening step_finish"
        );
        // Opportunistically reap retired window steps whose deferred
        // completes have since become ready (non-blocking).
        self.poll_window(comm);
        // A factor-update step folds new running averages: every deferred
        // fold from the window must land first so the EMA sees updates in
        // iteration order (bitwise equivalence with the serial executor).
        if self.is_factor_update_step() {
            self.drain_window(comm);
        }
        // Capacity: at most `depth` DAGs in flight including the one about
        // to be built.
        while self.window.len() + 1 > self.resolved_depth {
            let step = self.window.pop_front().expect("window non-empty");
            self.drain_window_step(step, comm);
        }
        self.note_window_residency();
        let mut layers = model.kfac_layers();
        assert_eq!(layers.len(), self.states.len(), "layer set changed after registration");
        self.note_capture_residency(&layers);
        let RuntimeStep { mut sched, kinds, mut ctx, window_index, iteration } =
            self.build_runtime_step();
        sched.run(|id| self.run_task(&kinds[id], &mut layers, comm, &mut ctx, 0.0));
        self.runtime_step = Some(RuntimeStep { sched, kinds, ctx, window_index, iteration });
    }

    /// Finish a runtime step begun by [`Kfac::step_begin`]: release the
    /// held tasks and run the scheduler to quiescence. Call after the
    /// data-parallel gradient allreduce; `lr` enters the KL-clip scale as
    /// in [`Kfac::step`].
    pub fn step_finish<M: Model>(&mut self, model: &mut M, comm: &dyn Communicator, lr: f32) {
        let RuntimeStep { mut sched, kinds, mut ctx, window_index, iteration } =
            self.runtime_step.take().expect("step_finish requires a prior step_begin");
        let mut layers = model.kfac_layers();
        assert_eq!(layers.len(), self.states.len(), "layer set changed after registration");
        // Gradients are final only now (post-DDP), so the plan defers their
        // capture — and every task that reads them — to this half.
        ctx.grads = layers.iter().map(|l| l.combined_grad()).collect();
        sched.release_all();
        if self.resolved_depth == 1 {
            sched.run(|id| self.run_task(&kinds[id], &mut layers, comm, &mut ctx, lr));
        } else {
            // Depth-D window: run to quiescence of the *non-deferrable*
            // tasks only; still-pending factor completes retire with the
            // step into the window ring and drain under later iterations.
            sched.run_released(|id| self.run_task(&kinds[id], &mut layers, comm, &mut ctx, lr));
            if !sched.all_done() {
                self.window.push_back(RuntimeStep { sched, kinds, ctx, window_index, iteration });
            }
            // Age bound: a step's residue may ride along for at most
            // `depth - 1` subsequent iterations.
            let now = self.steps;
            while self.window.front().is_some_and(|s| {
                now.saturating_sub(s.iteration) >= (self.resolved_depth - 1) as u64
            }) {
                let step = self.window.pop_front().expect("window non-empty");
                self.drain_window_step(step, comm);
            }
        }
        self.note_window_residency();
        self.note_step_residency();
        self.steps += 1;
        self.times.steps += 1;
    }

    /// Block until every retired window step has fully drained. Call before
    /// reading cross-rank observables whose accounting happens on the
    /// complete side — [`Kfac::comm_bytes`], [`Kfac::stage_times`],
    /// [`Kfac::memory_meter`] — or before tearing down the communicator.
    /// A no-op at depth 1 (the window is always empty) and between
    /// `step_begin`/`step_finish` pairs it must not be called.
    pub fn flush(&mut self, comm: &dyn Communicator) {
        assert!(self.runtime_step.is_none(), "flush called between step_begin and step_finish");
        self.drain_window(comm);
        self.note_window_residency();
    }

    /// One non-blocking poll pass over the window, popping fully-finished
    /// steps off the front (in retirement order only, so a finished step
    /// behind an unfinished one waits — the ring drains FIFO).
    fn poll_window(&mut self, comm: &dyn Communicator) {
        let mut window = std::mem::take(&mut self.window);
        while let Some(front) = window.front_mut() {
            let RuntimeStep { ref mut sched, ref kinds, ref mut ctx, .. } = *front;
            let done = sched.poll_pass(|id| self.run_deferred_task(&kinds[id], comm, ctx));
            if done {
                window.pop_front();
            } else {
                break;
            }
        }
        self.window = window;
    }

    /// Drain the whole window, oldest step first, blocking as needed.
    fn drain_window(&mut self, comm: &dyn Communicator) {
        while let Some(step) = self.window.pop_front() {
            self.drain_window_step(step, comm);
        }
    }

    /// Run one retired step's remaining deferred tasks to completion.
    fn drain_window_step(&mut self, step: RuntimeStep, comm: &dyn Communicator) {
        let RuntimeStep { mut sched, kinds, mut ctx, .. } = step;
        sched.run(|id| self.run_deferred_task(&kinds[id], comm, &mut ctx));
    }

    /// Update the `HeldWindows` meter category from the ring's pinned
    /// payload bytes.
    fn note_window_residency(&mut self) {
        let bytes: usize = self.window.iter().map(|s| s.held_bytes()).sum();
        self.mem.set(crate::memory::MemoryCategory::HeldWindows, bytes);
    }

    /// Execute one task unit. Complete-side tasks return
    /// [`TaskPoll::Pending`] while their collective is in flight.
    fn run_task(
        &mut self,
        kind: &TaskKind,
        layers: &mut [&mut dyn kaisa_nn::KfacAble],
        comm: &dyn Communicator,
        ctx: &mut StepCtx,
        lr: f32,
    ) -> TaskPoll {
        let rank = self.rank;
        let precision = self.cfg.precision;
        let triangular = self.cfg.triangular_comm;
        match *kind {
            TaskKind::FactorShardBegin(i) => {
                let layer = &mut layers[i];
                let stats = layer.capture_mut().take_stats().unwrap_or_else(|| {
                    panic!(
                        "layer {}: no captured statistics — call Kfac::prepare() before the forward pass",
                        layer.layer_name()
                    )
                });
                let world_group: Vec<usize> = (0..self.world).collect();
                // Scale-and-pack straight into the reusable staging
                // buffer; no scaled square statistics materialize.
                let asn = self.plan.layers[i].clone();
                let mut staging = self.staging.take(ctx.slot, i);
                let split = self.times.time_layer(i, Stage::FactorCompute, || {
                    let inv = 1.0 / stats.batches.max(1) as f32;
                    pack_factor_payload_scaled_into(
                        &mut staging,
                        &stats.a_stat,
                        &stats.g_stat,
                        inv,
                        triangular,
                        precision,
                    )
                });
                let total = staging.len();
                let entry = self.times.time_layer(i, Stage::FactorComm, || {
                    let shards = factor_shards(&asn, split, total);
                    let pending = comm.begin_reduce_scatter(
                        &staging,
                        ReduceOp::Avg,
                        &world_group,
                        &shards,
                        CommTag::FactorReduce,
                    );
                    FactorInFlight { pending, buf: Vec::new(), split, total }
                });
                // The begin copies the payload, so staging is reusable.
                self.staging.put(ctx.slot, i, staging);
                ctx.factor[i] = Some(entry);
                TaskPoll::Done
            }
            TaskKind::FactorDenseBegin(i) => {
                let layer = &mut layers[i];
                let stats = layer.capture_mut().take_stats().unwrap_or_else(|| {
                    panic!(
                        "layer {}: no captured statistics — call Kfac::prepare() before the forward pass",
                        layer.layer_name()
                    )
                });
                let world_group: Vec<usize> = (0..self.world).collect();
                let (a_new, g_new) = self.times.time_layer(i, Stage::FactorCompute, || {
                    let inv = 1.0 / stats.batches.max(1) as f32;
                    let mut a = stats.a_stat;
                    a.scale(inv);
                    let mut g = stats.g_stat;
                    g.scale(inv);
                    (a, g)
                });
                let entry = self.times.time_layer(i, Stage::FactorComm, || {
                    let (buf, split) = pack_factor_payload(&a_new, &g_new, triangular, precision);
                    let total = buf.len();
                    let pending = comm.begin_allreduce(
                        &buf,
                        ReduceOp::Avg,
                        &world_group,
                        CommTag::FactorComm,
                    );
                    FactorInFlight { pending, buf, split, total }
                });
                ctx.factor[i] = Some(entry);
                TaskPoll::Done
            }
            TaskKind::FactorLocalFold(i) => {
                let layer = &mut layers[i];
                let stats = layer.capture_mut().take_stats().unwrap_or_else(|| {
                    panic!(
                        "layer {}: no captured statistics — call Kfac::prepare() before the forward pass",
                        layer.layer_name()
                    )
                });
                self.fold_local_stats(i, stats);
                self.note_factor_residency();
                TaskPoll::Done
            }
            TaskKind::FactorDenseComplete(_)
            | TaskKind::FactorShardComplete(_)
            | TaskKind::FactorGatherComplete(_) => self.run_deferred_task(kind, comm, ctx),
            TaskKind::FactorGatherBegin(i) => {
                let owned = ctx.owned[i].take().expect("shard complete stashed the shard");
                let asn = self.plan.layers[i].clone();
                let group = asn.eig_worker_group();
                let pending = self.times.time_layer(i, Stage::FactorComm, || {
                    comm.begin_allgather(&owned, &group, CommTag::FactorGather)
                });
                ctx.gather[i] = Some((pending, owned.len()));
                TaskPoll::Done
            }
            TaskKind::EigSolve(i) => {
                let asn = self.plan.layers[i].clone();
                let damping = self.cfg.damping;
                if self.cfg.ekfac {
                    self.states[i].ekfac_scale = None;
                }
                self.note_decomposition_transients(i);
                if !self.cfg.use_eigen {
                    if rank == asn.a_worker {
                        self.times.time_layer(i, Stage::EigCompute, || {
                            self.states[i].compute_inverses(damping);
                        });
                    }
                    return TaskPoll::Done;
                }
                if rank == asn.a_worker {
                    let (qa, values) = self.times.time_layer(i, Stage::EigCompute, || {
                        self.states[i].eig_a_with(&mut self.eig_scratch)
                    });
                    self.states[i].qa = Some(qa);
                    ctx.va[i] = Some(values);
                }
                if rank == asn.g_worker {
                    let (qg, values) = self.times.time_layer(i, Stage::EigCompute, || {
                        self.states[i].eig_g_with(&mut self.eig_scratch)
                    });
                    self.states[i].qg = Some(qg);
                    ctx.vg[i] = Some(values);
                }
                if asn.is_gradient_worker(rank)
                    && asn.gradient_workers.len() == 1
                    && !self.cfg.precompute_outer
                {
                    // Single gradient worker: keep local values (no bcast).
                    if let Some(values) = ctx.va[i].take() {
                        self.states[i].va = Some(values);
                    }
                    if let Some(values) = ctx.vg[i].take() {
                        self.states[i].vg = Some(values);
                    }
                }
                TaskPoll::Done
            }
            TaskKind::EigPairBegin(i) => {
                let asn = self.plan.layers[i].clone();
                let a_dim = self.states[i].a_dim;
                let pair = [asn.a_worker, asn.g_worker];
                let buf = ctx.va[i].clone().unwrap_or_else(|| vec![0.0; a_dim]);
                let pending = self.times.time_layer(i, Stage::EigComm, || {
                    comm.begin_broadcast(&buf, asn.a_worker, &pair, CommTag::EigComm)
                });
                if rank == asn.a_worker {
                    self.comm_bytes += (a_dim * precision.bytes_per_element()) as u64;
                }
                ctx.pair[i] = Some((pending, buf));
                TaskPoll::Done
            }
            TaskKind::EigPairComplete(i) => {
                let ready = ctx.pair[i].as_ref().is_some_and(|(p, _)| comm.poll_ready(p));
                if !ready {
                    return TaskPoll::Pending;
                }
                let (pending, mut buf) = ctx.pair[i].take().expect("pair begin ran");
                self.times.time_layer(i, Stage::EigComm, || comm.complete(pending, &mut buf));
                if rank == self.plan.layers[i].g_worker {
                    ctx.va[i] = Some(buf);
                }
                TaskPoll::Done
            }
            TaskKind::EigOuter(i) => {
                let damping = self.cfg.damping;
                let outer = self.times.time_layer(i, Stage::EigCompute, || {
                    KfacLayerState::compute_outer(
                        ctx.vg[i].as_ref().expect("G worker has v_G"),
                        ctx.va[i].as_ref().expect("G worker received v_A"),
                        damping,
                    )
                });
                self.states[i].outer = Some(outer);
                TaskPoll::Done
            }
            TaskKind::EigBcastBegin(i) => {
                let asn = self.plan.layers[i].clone();
                let (a_dim, g_dim) = (self.states[i].a_dim, self.states[i].g_dim);
                let mut b = LayerBcasts::default();
                if !self.cfg.use_eigen {
                    let local = self.states[i].inv_a.take();
                    b.inv_a = Some(self.begin_matrix_bcast(
                        i,
                        comm,
                        local,
                        a_dim,
                        a_dim,
                        asn.a_worker,
                        &asn.gradient_workers,
                    ));
                    let local = self.states[i].inv_g.take();
                    b.inv_g = Some(self.begin_matrix_bcast(
                        i,
                        comm,
                        local,
                        g_dim,
                        g_dim,
                        asn.a_worker,
                        &asn.gradient_workers,
                    ));
                } else {
                    let local = self.states[i].qa.take();
                    b.qa = Some(self.begin_matrix_bcast(
                        i,
                        comm,
                        local,
                        a_dim,
                        a_dim,
                        asn.a_worker,
                        &asn.gradient_workers,
                    ));
                    let local = self.states[i].qg.take();
                    b.qg = Some(self.begin_matrix_bcast(
                        i,
                        comm,
                        local,
                        g_dim,
                        g_dim,
                        asn.g_worker,
                        &asn.gradient_workers,
                    ));
                    if self.cfg.precompute_outer {
                        let local = self.states[i].outer.take();
                        b.outer = Some(self.begin_matrix_bcast(
                            i,
                            comm,
                            local,
                            g_dim,
                            a_dim,
                            asn.g_worker,
                            &asn.gradient_workers,
                        ));
                    } else {
                        // Ablation: ship raw eigenvalues; every worker
                        // recomputes the outer product per step.
                        let va_b = ctx.va[i].take().unwrap_or_else(|| vec![0.0; a_dim]);
                        let vg_b = ctx.vg[i].take().unwrap_or_else(|| vec![0.0; g_dim]);
                        let pending_a = self.times.time_layer(i, Stage::EigComm, || {
                            comm.begin_broadcast(
                                &va_b,
                                asn.a_worker,
                                &asn.gradient_workers,
                                CommTag::EigComm,
                            )
                        });
                        let pending_g = self.times.time_layer(i, Stage::EigComm, || {
                            comm.begin_broadcast(
                                &vg_b,
                                asn.g_worker,
                                &asn.gradient_workers,
                                CommTag::EigComm,
                            )
                        });
                        let receivers = (asn.gradient_workers.len() - 1) as u64;
                        if rank == asn.a_worker {
                            self.comm_bytes +=
                                (a_dim * precision.bytes_per_element()) as u64 * receivers;
                        }
                        if rank == asn.g_worker {
                            self.comm_bytes +=
                                (g_dim * precision.bytes_per_element()) as u64 * receivers;
                        }
                        b.va_buf = Some((pending_a, va_b));
                        b.vg_buf = Some((pending_g, vg_b));
                    }
                }
                ctx.bcasts[i] = b;
                TaskPoll::Done
            }
            TaskKind::EigBcastComplete(i) => {
                if !eig_bcasts_ready(comm, &ctx.bcasts[i]) {
                    return TaskPoll::Pending;
                }
                let b = std::mem::take(&mut ctx.bcasts[i]);
                if let Some(mb) = b.inv_a {
                    let m = self.complete_matrix_bcast(i, comm, mb);
                    self.states[i].inv_a = Some(m);
                }
                if let Some(mb) = b.inv_g {
                    let m = self.complete_matrix_bcast(i, comm, mb);
                    self.states[i].inv_g = Some(m);
                }
                if let Some(mb) = b.qa {
                    let m = self.complete_matrix_bcast(i, comm, mb);
                    self.states[i].qa = Some(m);
                }
                if let Some(mb) = b.qg {
                    let m = self.complete_matrix_bcast(i, comm, mb);
                    self.states[i].qg = Some(m);
                }
                if let Some(mb) = b.outer {
                    let m = self.complete_matrix_bcast(i, comm, mb);
                    self.states[i].outer = Some(m);
                }
                if let Some((pending, mut buf)) = b.va_buf {
                    self.times.time_layer(i, Stage::EigComm, || comm.complete(pending, &mut buf));
                    self.states[i].va = Some(buf);
                }
                if let Some((pending, mut buf)) = b.vg_buf {
                    self.times.time_layer(i, Stage::EigComm, || comm.complete(pending, &mut buf));
                    self.states[i].vg = Some(buf);
                }
                TaskPoll::Done
            }
            TaskKind::Precond(i) => {
                let asn = self.plan.layers[i].clone();
                let is_gw = asn.is_gradient_worker(rank);
                let precond = self.precondition_local(i, &ctx.grads[i], is_gw);
                ctx.precond[i] = Some(precond);
                TaskPoll::Done
            }
            TaskKind::GradBcastBegin(i) => {
                let asn = self.plan.layers[i].clone();
                let group =
                    asn.bcast_group_of(rank).expect("task planned only for members").clone();
                let root = group[0];
                let precond = ctx.precond[i].as_mut().expect("precondition ran");
                if rank == root {
                    precond.quantize(precision);
                    self.comm_bytes += (precond.numel()
                        * precision.bytes_per_element()
                        * (group.len() - 1)) as u64;
                }
                let pending = self.times.time_layer(i, Stage::GradComm, || {
                    comm.begin_broadcast(precond.as_slice(), root, &group, CommTag::GradComm)
                });
                ctx.grad_pending[i] = Some(pending);
                TaskPoll::Done
            }
            TaskKind::GradBcastComplete(i) => {
                let ready = ctx.grad_pending[i].as_ref().is_some_and(|p| comm.poll_ready(p));
                if !ready {
                    return TaskPoll::Pending;
                }
                let pending = ctx.grad_pending[i].take().expect("grad bcast begin ran");
                let buf = ctx.precond[i].as_mut().expect("precondition ran").as_mut_slice();
                self.times.time_layer(i, Stage::GradComm, || comm.complete(pending, buf));
                TaskPoll::Done
            }
            TaskKind::Scale => {
                let preconditioned: Vec<Matrix> = ctx
                    .precond
                    .iter_mut()
                    .map(|p| p.take().expect("every layer preconditioned"))
                    .collect();
                let grads = std::mem::take(&mut ctx.grads);
                self.scale_and_write_back(layers, &grads, preconditioned, lr);
                TaskPoll::Done
            }
        }
    }

    /// Execute a factor-complete task — the only task kinds that may
    /// outlive their step into the depth-D window. None of them touch the
    /// model's layers, which is what lets a retired step drain after the
    /// `kfac_layers()` borrow is gone.
    fn run_deferred_task(
        &mut self,
        kind: &TaskKind,
        comm: &dyn Communicator,
        ctx: &mut StepCtx,
    ) -> TaskPoll {
        let rank = self.rank;
        let precision = self.cfg.precision;
        let triangular = self.cfg.triangular_comm;
        match *kind {
            TaskKind::FactorDenseComplete(i) => {
                let ready = ctx.factor[i].as_ref().is_some_and(|fl| comm.poll_ready(&fl.pending));
                if !ready {
                    return TaskPoll::Pending;
                }
                let mut fl = ctx.factor[i].take().expect("factor begin ran");
                let decay = self.cfg.factor_decay;
                let (a_dim, g_dim) = (self.states[i].a_dim, self.states[i].g_dim);
                let (a_new, g_new) = self.times.time_layer(i, Stage::FactorComm, || {
                    comm.complete(fl.pending, &mut fl.buf);
                    unpack_factor_payload(
                        &mut fl.buf,
                        fl.split,
                        a_dim,
                        g_dim,
                        triangular,
                        precision,
                    )
                });
                self.comm_bytes += (factor_payload_len(a_dim, g_dim, triangular)
                    * precision.bytes_per_element()) as u64;
                self.times.time_layer(i, Stage::FactorCompute, || {
                    self.states[i].update_factors(a_new, g_new, decay);
                });
                self.note_factor_residency();
                TaskPoll::Done
            }
            TaskKind::FactorShardComplete(i) => {
                let ready = ctx.factor[i].as_ref().is_some_and(|fl| comm.poll_ready(&fl.pending));
                if !ready {
                    return TaskPoll::Pending;
                }
                let fl = ctx.factor[i].take().expect("factor begin ran");
                let asn = self.plan.layers[i].clone();
                let owned_len: usize = factor_shards(&asn, fl.split, fl.total)
                    .iter()
                    .filter(|s| s.owner == rank)
                    .map(|s| s.len)
                    .sum();
                let mut owned = vec![0.0f32; owned_len];
                self.times
                    .time_layer(i, Stage::FactorComm, || comm.complete(fl.pending, &mut owned));
                self.comm_bytes += (owned_len * precision.bytes_per_element()) as u64;
                ctx.splits[i] = (fl.split, fl.total);
                if self.needs_factor_gather(&asn) {
                    if asn.eig_worker_group().contains(&rank) {
                        ctx.owned[i] = Some(owned);
                    }
                } else {
                    self.fold_owned_sections(i, owned, fl.split, fl.total);
                }
                TaskPoll::Done
            }
            TaskKind::FactorGatherComplete(i) => {
                let ready = ctx.gather[i].as_ref().is_some_and(|(p, _)| comm.poll_ready(p));
                if !ready {
                    return TaskPoll::Pending;
                }
                let (pending, owned_len) = ctx.gather[i].take().expect("gather begin ran");
                let (split, total) = ctx.splits[i];
                let asn = self.plan.layers[i].clone();
                let mut gathered = vec![0.0f32; total];
                self.times
                    .time_layer(i, Stage::FactorComm, || comm.complete(pending, &mut gathered));
                self.comm_bytes += ((total - owned_len) * precision.bytes_per_element()) as u64;
                let payload = reassemble_gathered_payload(&asn, &gathered, split);
                self.fold_gathered_payload(i, payload, split);
                TaskPoll::Done
            }
            _ => unreachable!("only factor completes may outlive their step"),
        }
    }
}

/// True once every result broadcast a layer has in flight is ready to
/// complete without blocking.
fn eig_bcasts_ready(comm: &dyn Communicator, b: &LayerBcasts) -> bool {
    let mats = [&b.inv_a, &b.inv_g, &b.qa, &b.qg, &b.outer];
    mats.iter().all(|mb| mb.as_ref().map_or(true, |mb| comm.poll_ready(mb.pending())))
        && b.va_buf.as_ref().map_or(true, |(p, _)| comm.poll_ready(p))
        && b.vg_buf.as_ref().map_or(true, |(p, _)| comm.poll_ready(p))
}

#[cfg(test)]
mod tests {
    use crate::config::KfacConfig;
    use crate::preconditioner::Kfac;
    use kaisa_comm::{Communicator, LocalComm, ThreadComm};
    use kaisa_nn::models::Mlp;
    use kaisa_nn::Model;
    use kaisa_tensor::{Matrix, Rng};

    fn toy() -> (Mlp, Matrix, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(404);
        let mlp = Mlp::new(&[6, 10, 3], &mut rng);
        let x = Matrix::randn(16, 6, 1.0, &mut rng);
        let y: Vec<usize> = (0..16).map(|i| i % 3).collect();
        (mlp, x, y)
    }

    #[test]
    fn runtime_matches_serial_single_rank() {
        let (model, x, y) = toy();
        let comm = LocalComm::new();
        let mut grads = Vec::new();
        for async_runtime in [false, true] {
            let mut m = model.clone();
            let cfg = KfacConfig::builder()
                .factor_update_freq(2)
                .inv_update_freq(4)
                .pipelined(false)
                .async_runtime(async_runtime)
                .build();
            let mut kfac = Kfac::new(cfg, &mut m, &comm);
            for _ in 0..5 {
                kfac.prepare(&mut m);
                m.zero_grad();
                let _ = m.forward_backward(&x, &y);
                kfac.step(&mut m, &comm, 0.1);
            }
            grads.push(m.grads_flat());
        }
        assert_eq!(grads[0], grads[1], "runtime executor must be bitwise identical to serial");
    }

    #[test]
    fn step_begin_finish_split_matches_monolithic_step() {
        let (model, x, y) = toy();
        let comm = LocalComm::new();
        let cfg = || {
            KfacConfig::builder()
                .factor_update_freq(1)
                .inv_update_freq(1)
                .async_runtime(true)
                .build()
        };
        let mut m1 = model.clone();
        let mut k1 = Kfac::new(cfg(), &mut m1, &comm);
        let mut m2 = model.clone();
        let mut k2 = Kfac::new(cfg(), &mut m2, &comm);
        for _ in 0..3 {
            k1.prepare(&mut m1);
            m1.zero_grad();
            let _ = m1.forward_backward(&x, &y);
            k1.step(&mut m1, &comm, 0.1);

            k2.prepare(&mut m2);
            m2.zero_grad();
            let _ = m2.forward_backward(&x, &y);
            k2.step_begin(&mut m2, &comm);
            k2.step_finish(&mut m2, &comm, 0.1);
        }
        assert_eq!(m1.grads_flat(), m2.grads_flat());
        assert_eq!(k1.steps(), k2.steps());
        assert_eq!(k1.comm_bytes(), k2.comm_bytes());
    }

    #[test]
    fn deep_window_matches_serial_single_rank() {
        let (model, x, y) = toy();
        let comm = LocalComm::new();
        let run = |depth: Option<usize>| {
            let mut m = model.clone();
            let mut b =
                KfacConfig::builder().factor_update_freq(2).inv_update_freq(4).pipelined(false);
            if let Some(d) = depth {
                b = b.async_runtime(true).cross_iter_depth(d);
            }
            let mut kfac = Kfac::new(b.build(), &mut m, &comm);
            for _ in 0..6 {
                kfac.prepare(&mut m);
                m.zero_grad();
                let _ = m.forward_backward(&x, &y);
                kfac.step(&mut m, &comm, 0.1);
            }
            kfac.flush(&comm);
            (m.grads_flat(), kfac.comm_bytes())
        };
        let serial = run(None);
        for depth in [2, 3] {
            assert_eq!(
                run(Some(depth)),
                serial,
                "depth-{depth} window must stay bitwise identical to serial"
            );
        }
    }

    #[test]
    fn deep_window_matches_depth_one_across_ranks() {
        let run_world = |depth: usize| {
            ThreadComm::run(2, move |comm| {
                let mut m = Mlp::new(&[6, 10, 3], &mut Rng::seed_from_u64(404));
                let mut rng = Rng::seed_from_u64(7 + comm.rank() as u64);
                let x = Matrix::randn(16, 6, 1.0, &mut rng);
                let y: Vec<usize> = (0..16).map(|i| (i + comm.rank()) % 3).collect();
                let cfg = KfacConfig::builder()
                    .factor_update_freq(2)
                    .inv_update_freq(4)
                    .async_runtime(true)
                    .cross_iter_depth(depth)
                    .sharded_factors(true)
                    .build();
                let mut kfac = Kfac::new(cfg, &mut m, comm);
                for _ in 0..6 {
                    kfac.prepare(&mut m);
                    m.zero_grad();
                    let _ = m.forward_backward(&x, &y);
                    kfac.step(&mut m, comm, 0.1);
                }
                kfac.flush(comm);
                comm.barrier();
                (m.grads_flat(), kfac.comm_bytes())
            })
        };
        let base = run_world(1);
        for depth in [2, 3] {
            assert_eq!(run_world(depth), base, "depth {depth} must match depth 1 on every rank");
        }
    }

    #[test]
    fn flush_between_halves_is_rejected() {
        let (model, x, y) = toy();
        let comm = LocalComm::new();
        let mut m = model.clone();
        let cfg = KfacConfig::builder()
            .factor_update_freq(1)
            .inv_update_freq(1)
            .async_runtime(true)
            .cross_iter_depth(2)
            .build();
        let mut kfac = Kfac::new(cfg, &mut m, &comm);
        kfac.prepare(&mut m);
        m.zero_grad();
        let _ = m.forward_backward(&x, &y);
        kfac.step_begin(&mut m, &comm);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kfac.flush(&comm);
        }))
        .expect_err("flush inside a step must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("between step_begin and step_finish"), "got: {msg}");
        kfac.step_finish(&mut m, &comm, 0.1);
    }

    #[test]
    fn mismatched_collective_trips_watchdog_instead_of_deadlocking() {
        // Rank 1 never enters the step, so rank 0's factor allreduce can
        // never become ready: the runtime must park, detect the stall, and
        // dump a diagnostic panic instead of hanging inside `complete`.
        // `ThreadComm::run` re-raises rank panics with a generic wrapper
        // message, so catch the panic inside the rank thread and assert on
        // the diagnostic text directly.
        let (model, x, y) = toy();
        let messages = ThreadComm::run(2, |comm| {
            let mut m = model.clone();
            let cfg = KfacConfig::builder()
                .factor_update_freq(1)
                .inv_update_freq(1)
                .async_runtime(true)
                .runtime_stall_timeout_ms(200)
                .build();
            let mut kfac = Kfac::new(cfg, &mut m, comm);
            kfac.prepare(&mut m);
            m.zero_grad();
            let _ = m.forward_backward(&x, &y);
            if comm.rank() != 0 {
                return String::new();
            }
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                kfac.step(&mut m, comm, 0.1);
            }))
            .expect_err("rank 0's step must panic, not hang or succeed");
            if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                String::from("<non-string panic payload>")
            }
        });
        let diag = &messages[0];
        assert!(
            diag.contains("stall watchdog"),
            "expected the stall watchdog diagnostic, got: {diag}"
        );
        assert!(diag.contains("parked"), "diagnostic must dump the parked task state, got: {diag}");
    }
}
