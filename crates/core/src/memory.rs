//! Live per-rank resident-memory accounting for K-FAC state.
//!
//! The analytic model in `kaisa-sim` *predicts* per-rank memory; the
//! [`MemoryMeter`] *measures* it, so claims like "the dense path replicates
//! every factor on every rank" can be asserted in tests and
//! regression-gated in CI instead of modeled in a doc. Each `Kfac` instance
//! owns one meter; the trainer exposes it per rank through `TrainResult`.
//!
//! Bytes are counted at the configured storage precision — the same
//! convention as `Kfac::memory_bytes` and the paper's Table 5 — so the
//! meter's `Factors`/`Eigens` categories are directly comparable to the
//! analytic breakdown.

/// A category of K-FAC resident memory tracked by the [`MemoryMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryCategory {
    /// Running factor averages: the packed lower triangles of `A`/`G`
    /// (`n(n+1)/2` elements each).
    Factors,
    /// Cached decompositions: eigenvectors, the precomputed outer product,
    /// and EK-FAC corrected moments.
    Eigens,
    /// Preconditioned gradients alive between preconditioning and the
    /// KL-clip write-back.
    PrecondGrads,
}

impl MemoryCategory {
    /// Every category, in display order.
    pub const ALL: [MemoryCategory; 3] =
        [MemoryCategory::Factors, MemoryCategory::Eigens, MemoryCategory::PrecondGrads];

    /// Human-readable category name (figure/table labels).
    pub fn name(self) -> &'static str {
        match self {
            MemoryCategory::Factors => "factors",
            MemoryCategory::Eigens => "eigens",
            MemoryCategory::PrecondGrads => "precond grads",
        }
    }

    fn index(self) -> usize {
        match self {
            MemoryCategory::Factors => 0,
            MemoryCategory::Eigens => 1,
            MemoryCategory::PrecondGrads => 2,
        }
    }
}

/// Peak/current resident bytes per [`MemoryCategory`] on one rank.
///
/// `current` tracks what is resident right now; `peak` is the high-water
/// mark.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryMeter {
    current: [usize; 3],
    peak: [usize; 3],
}

impl MemoryMeter {
    /// A meter with all categories at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a category's current resident bytes, raising its peak if needed.
    pub fn set(&mut self, cat: MemoryCategory, bytes: usize) {
        let i = cat.index();
        self.current[i] = bytes;
        self.peak[i] = self.peak[i].max(bytes);
    }

    /// Current resident bytes in a category.
    pub fn current(&self, cat: MemoryCategory) -> usize {
        self.current[cat.index()]
    }

    /// Peak resident bytes a category ever reached.
    pub fn peak(&self, cat: MemoryCategory) -> usize {
        self.peak[cat.index()]
    }

    /// Current resident bytes summed over all categories.
    pub fn current_total(&self) -> usize {
        self.current.iter().sum()
    }

    /// Sum of per-category peaks — an upper bound on the true peak total,
    /// since categories may not peak simultaneously.
    pub fn peak_total(&self) -> usize {
        self.peak.iter().sum()
    }
}

/// A fixed pool-wide K-FAC memory budget for admission control.
///
/// The serve layer models a candidate job's per-rank K-FAC footprint (the
/// analytic `kfac_overhead()` from `kaisa-sim`) and asks the budget
/// whether that footprint fits on top of what running jobs' live
/// [`MemoryMeter`]s currently hold. The two query flavors drive the two
/// admission outcomes: a job that [`MemoryBudget::would_ever_fit`] rejects
/// can never run on this pool (modeled footprint exceeds the whole budget);
/// a job that merely fails [`MemoryBudget::admits`] right now is queued and
/// retried when a running job pauses or completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    limit: usize,
}

impl MemoryBudget {
    /// A budget of `limit_bytes` total K-FAC state across the pool.
    pub fn new(limit_bytes: usize) -> Self {
        MemoryBudget { limit: limit_bytes }
    }

    /// The configured limit in bytes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Whether a job with `modeled` additional bytes fits alongside `live`
    /// bytes currently resident.
    pub fn admits(&self, live: usize, modeled: usize) -> bool {
        live.saturating_add(modeled) <= self.limit
    }

    /// Whether a job with `modeled` bytes could fit on an otherwise-empty
    /// pool at all — `false` means reject outright rather than queue.
    pub fn would_ever_fit(&self, modeled: usize) -> bool {
        modeled <= self.limit
    }

    /// Bytes still unclaimed with `live` bytes resident.
    pub fn remaining(&self, live: usize) -> usize {
        self.limit.saturating_sub(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_tracks_current_and_peak_independently() {
        let mut m = MemoryMeter::new();
        m.set(MemoryCategory::Factors, 100);
        m.set(MemoryCategory::Factors, 40);
        assert_eq!(m.current(MemoryCategory::Factors), 40);
        assert_eq!(m.peak(MemoryCategory::Factors), 100);
        assert_eq!(m.current(MemoryCategory::Eigens), 0);
    }

    #[test]
    fn totals_sum_categories() {
        let mut m = MemoryMeter::new();
        m.set(MemoryCategory::Factors, 10);
        m.set(MemoryCategory::Eigens, 20);
        m.set(MemoryCategory::PrecondGrads, 5);
        m.set(MemoryCategory::PrecondGrads, 0);
        assert_eq!(m.current_total(), 30);
        assert_eq!(m.peak_total(), 35);
    }

    #[test]
    fn budget_admission_queries() {
        let b = MemoryBudget::new(1000);
        assert_eq!(b.limit(), 1000);
        assert!(b.admits(0, 1000));
        assert!(!b.admits(1, 1000));
        assert!(b.admits(400, 600));
        assert!(!b.admits(401, 600));
        assert!(b.would_ever_fit(1000));
        assert!(!b.would_ever_fit(1001));
        assert_eq!(b.remaining(400), 600);
        assert_eq!(b.remaining(2000), 0);
        // Saturating: absurd live totals never overflow.
        assert!(!b.admits(usize::MAX, 1));
    }

    #[test]
    fn category_names_are_distinct() {
        let names: Vec<&str> = MemoryCategory::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
