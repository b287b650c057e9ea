//! Worker placement: gradient-worker sets, broadcast groups, and greedy
//! (longest-processing-time) eigendecomposition distribution.
//!
//! Every rank computes the identical plan from the layer dimension list, so
//! no coordination round is needed — the same trick `kfac_pytorch` uses.

use crate::gradient_worker_count;

/// Placement decisions for one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerAssignment {
    /// Layer index (order of `Model::kfac_layers`).
    pub layer: usize,
    /// Ranks that cache this layer's eigendecompositions and precondition
    /// its gradient. Sorted.
    pub gradient_workers: Vec<usize>,
    /// Rank that eigendecomposes the `A` factor (a gradient worker).
    pub a_worker: usize,
    /// Rank that eigendecomposes the `G` factor and computes the eigenvalue
    /// outer product (a gradient worker).
    pub g_worker: usize,
    /// Preconditioned-gradient broadcast groups: `groups[k][0]` is the
    /// gradient worker acting as root; the rest are its receivers. Disjoint
    /// across `k`, so all broadcasts can run concurrently (Section 3.1).
    pub bcast_groups: Vec<Vec<usize>>,
}

impl LayerAssignment {
    /// True if `rank` preconditions this layer's gradient.
    pub fn is_gradient_worker(&self, rank: usize) -> bool {
        self.gradient_workers.binary_search(&rank).is_ok()
    }

    /// The broadcast group containing `rank`, if any.
    pub fn bcast_group_of(&self, rank: usize) -> Option<&Vec<usize>> {
        self.bcast_groups.iter().find(|g| g.contains(&rank))
    }
}

/// The full placement plan for a model.
#[derive(Debug, Clone)]
pub struct WorkPlan {
    /// Per-layer assignments, in layer order.
    pub layers: Vec<LayerAssignment>,
    /// World size the plan was computed for.
    pub world: usize,
    /// Gradient workers per layer.
    pub workers_per_layer: usize,
    /// Final per-rank eigendecomposition load (model-cost units), for
    /// inspecting balance.
    pub rank_loads: Vec<f64>,
}

impl WorkPlan {
    /// Makespan of the eigendecomposition assignment (max rank load).
    pub fn makespan(&self) -> f64 {
        self.rank_loads.iter().cloned().fold(0.0, f64::max)
    }

    /// Sum of all job costs (lower bound on `world * makespan`).
    pub fn total_load(&self) -> f64 {
        self.rank_loads.iter().sum()
    }
}

/// A factor eigendecomposition job for the LPT scheduler.
#[derive(Debug, Clone, Copy)]
struct Job {
    layer: usize,
    /// true = A factor, false = G factor.
    is_a: bool,
    cost: f64,
}

/// Compute the placement plan.
///
/// `layer_dims[i] = (a_dim, g_dim)` for layer `i`. The plan is a pure
/// function of its inputs, so all ranks agree without communication.
pub fn plan_assignments(
    layer_dims: &[(usize, usize)],
    world: usize,
    grad_worker_frac: f64,
) -> WorkPlan {
    assert!(world > 0, "world must be positive");
    let workers_per_layer = gradient_worker_count(grad_worker_frac, world);

    // 1. Gradient-worker sets: contiguous windows rotated by layer so layers
    //    spread over ranks (layer i starts at offset i*workers mod world).
    let mut layers: Vec<LayerAssignment> = Vec::with_capacity(layer_dims.len());
    for (i, _) in layer_dims.iter().enumerate() {
        let offset = (i * workers_per_layer) % world;
        let mut gradient_workers: Vec<usize> =
            (0..workers_per_layer).map(|j| (offset + j) % world).collect();
        gradient_workers.sort_unstable();

        // 2. Receiver partition: round-robin receivers over gradient workers;
        //    each non-empty group is [root, receivers...].
        let receivers: Vec<usize> =
            (0..world).filter(|r| gradient_workers.binary_search(r).is_err()).collect();
        let mut groups: Vec<Vec<usize>> = gradient_workers.iter().map(|&w| vec![w]).collect();
        for (j, &r) in receivers.iter().enumerate() {
            groups[j % workers_per_layer].push(r);
        }
        let bcast_groups: Vec<Vec<usize>> = groups.into_iter().filter(|g| g.len() > 1).collect();

        layers.push(LayerAssignment {
            layer: i,
            gradient_workers,
            a_worker: 0, // placed below
            g_worker: 0,
            bcast_groups,
        });
    }

    // 3. Eigendecomposition jobs → ranks, restricted to each layer's
    //    gradient workers, greedy LPT on the O(N³) eigensolve cost: sort
    //    jobs by decreasing cost, assign each to the least-loaded allowed
    //    rank (ties broken by rank id for determinism).
    let mut rank_loads = vec![0.0f64; world];
    let cost = |n: usize| (n as f64).powi(3);
    let mut jobs: Vec<Job> = layer_dims
        .iter()
        .enumerate()
        .flat_map(|(i, &(a_dim, g_dim))| {
            [
                Job { layer: i, is_a: true, cost: cost(a_dim) },
                Job { layer: i, is_a: false, cost: cost(g_dim) },
            ]
        })
        .collect();
    jobs.sort_by(|a, b| {
        b.cost
            .partial_cmp(&a.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.layer.cmp(&b.layer))
            .then(a.is_a.cmp(&b.is_a))
    });
    for job in &jobs {
        let allowed = &layers[job.layer].gradient_workers;
        let min_load = allowed.iter().map(|&r| rank_loads[r]).fold(f64::INFINITY, f64::min);
        let rank = *allowed
            .iter()
            .find(|&&r| rank_loads[r] == min_load)
            .expect("gradient worker set is non-empty");
        rank_loads[rank] += job.cost;
        if job.is_a {
            layers[job.layer].a_worker = rank;
        } else {
            layers[job.layer].g_worker = rank;
        }
    }

    WorkPlan { layers, world, workers_per_layer, rank_loads }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (16 + 8 * (i % 5), 8 + 4 * (i % 3))).collect()
    }

    #[test]
    fn comm_opt_has_no_bcast_groups() {
        let plan = plan_assignments(&dims(6), 4, 1.0);
        for layer in &plan.layers {
            assert_eq!(layer.gradient_workers, vec![0, 1, 2, 3]);
            assert!(layer.bcast_groups.is_empty(), "COMM-OPT never broadcasts gradients");
        }
    }

    #[test]
    fn mem_opt_has_one_worker_and_world_group() {
        let plan = plan_assignments(&dims(6), 4, 0.25);
        for layer in &plan.layers {
            assert_eq!(layer.gradient_workers.len(), 1);
            assert_eq!(layer.bcast_groups.len(), 1);
            assert_eq!(layer.bcast_groups[0].len(), 4, "one broadcast to everyone");
            // Eigen workers coincide with the single gradient worker.
            assert_eq!(layer.a_worker, layer.gradient_workers[0]);
            assert_eq!(layer.g_worker, layer.gradient_workers[0]);
        }
    }

    #[test]
    fn hybrid_groups_are_disjoint_and_cover() {
        let plan = plan_assignments(&dims(5), 8, 0.5);
        for layer in &plan.layers {
            assert_eq!(layer.gradient_workers.len(), 4);
            let mut seen = std::collections::HashSet::new();
            for group in &layer.bcast_groups {
                assert!(layer.gradient_workers.contains(&group[0]), "root is a worker");
                for &r in group {
                    assert!(seen.insert(r), "rank {r} in two groups");
                }
            }
            // Receivers covered: groups hold the 4 receivers + their roots.
            let covered: usize = layer.bcast_groups.iter().map(|g| g.len() - 1).sum();
            assert_eq!(covered, 4);
        }
    }

    #[test]
    fn eig_workers_are_gradient_workers() {
        for frac in [0.125, 0.25, 0.5, 1.0] {
            let plan = plan_assignments(&dims(9), 8, frac);
            for layer in &plan.layers {
                assert!(layer.is_gradient_worker(layer.a_worker));
                assert!(layer.is_gradient_worker(layer.g_worker));
            }
        }
    }

    #[test]
    fn lpt_bound_holds() {
        // Graham's bound: LPT makespan ≤ (4/3 - 1/3m)·OPT ≤ 3/2·OPT, and
        // OPT ≥ max(total/m, largest job). Check against the lower bound.
        let layer_dims: Vec<(usize, usize)> =
            (0..40).map(|i| (10 + 17 * (i % 7), 5 + 11 * (i % 4))).collect();
        let world = 8;
        let plan = plan_assignments(&layer_dims, world, 1.0);
        let total = plan.total_load();
        let largest = layer_dims
            .iter()
            .flat_map(|&(a, g)| [a, g])
            .map(|n| (n as f64).powi(3))
            .fold(0.0, f64::max);
        let lower_bound = (total / world as f64).max(largest);
        assert!(
            plan.makespan() <= 1.5 * lower_bound + 1e-6,
            "makespan {} vs 3/2 lower bound {}",
            plan.makespan(),
            1.5 * lower_bound
        );
    }

    #[test]
    fn lpt_beats_round_robin_on_skewed_jobs() {
        // One huge layer among many small ones: round-robin can stack badly.
        let mut layer_dims = vec![(512, 256)];
        layer_dims.extend(std::iter::repeat_n((16, 8), 15));
        let lpt = plan_assignments(&layer_dims, 4, 1.0);
        // Round-robin oracle: the k-th job (A then G, layer by layer) on
        // rank k mod world.
        let mut rr_loads = [0.0f64; 4];
        for (k, n) in layer_dims.iter().flat_map(|&(a, g)| [a, g]).enumerate() {
            rr_loads[k % 4] += (n as f64).powi(3);
        }
        let rr_makespan = rr_loads.iter().cloned().fold(0.0, f64::max);
        assert!(lpt.makespan() <= rr_makespan + 1e-6);
    }

    #[test]
    fn plan_is_deterministic() {
        let a = plan_assignments(&dims(12), 8, 0.5);
        let b = plan_assignments(&dims(12), 8, 0.5);
        assert_eq!(a.layers, b.layers);
    }

    #[test]
    fn layers_rotate_over_ranks() {
        // With frac < 1, different layers should use different worker sets.
        let plan = plan_assignments(&dims(4), 8, 0.25);
        let sets: std::collections::HashSet<Vec<usize>> =
            plan.layers.iter().map(|l| l.gradient_workers.clone()).collect();
        assert!(sets.len() > 1, "worker sets should rotate across layers");
    }

    #[test]
    fn world_of_one() {
        let plan = plan_assignments(&dims(3), 1, 1.0);
        for layer in &plan.layers {
            assert_eq!(layer.gradient_workers, vec![0]);
            assert!(layer.bcast_groups.is_empty());
        }
    }
}
