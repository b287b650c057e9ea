//! A shared thread-rank pool for running many communicator worlds at once.
//!
//! The serve layer schedules a queue of training jobs over one machine; each
//! job wants its own [`ThreadComm`] world. A [`RankPool`] bounds how many
//! rank threads run concurrently across *all* jobs: [`RankPool::try_lease`]
//! claims one permit per rank if that many are free *now*, never waiting,
//! and the [`RankLease`] it returns runs the job's world through
//! [`ThreadComm::run`] and gives the permits back when it drops — even
//! during a panic unwind.
//!
//! Every job gets a **fresh, fully isolated world**: its own SPSC rings,
//! group table, and meter. Ranks are numbered `0..world` within each job
//! regardless of which pool permits backed them, so a job checkpointed at
//! one world size restores cleanly at another.

use std::sync::{Mutex, PoisonError};

use crate::ThreadComm;

/// A counting semaphore over rank-thread capacity, shared by every job a
/// serve pool runs.
#[derive(Debug)]
pub struct RankPool {
    capacity: usize,
    available: Mutex<usize>,
}

/// Permits claimed from a [`RankPool`]: gives them back on drop, including
/// during a panic unwind out of a job body.
pub struct RankLease<'a> {
    pool: &'a RankPool,
    ranks: usize,
}

impl Drop for RankLease<'_> {
    fn drop(&mut self) {
        *self.pool.available.lock().unwrap_or_else(PoisonError::into_inner) += self.ranks;
    }
}

impl RankPool {
    /// A pool of `capacity` rank threads.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "rank pool needs at least one rank");
        RankPool { capacity, available: Mutex::new(capacity) }
    }

    /// Total rank threads the pool may run concurrently.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rank threads currently unclaimed.
    pub fn available(&self) -> usize {
        *self.available.lock().expect("rank pool poisoned")
    }

    /// Claim `world` rank permits if that many are free now; `None`
    /// otherwise. Never waits.
    ///
    /// # Panics
    /// If `world` is zero or exceeds the pool capacity (such a job could
    /// never start).
    pub fn try_lease(&self, world: usize) -> Option<RankLease<'_>> {
        assert!(world >= 1, "job world must be positive");
        let capacity = self.capacity;
        assert!(world <= capacity, "job world {world} exceeds pool capacity {capacity}");
        let mut avail = self.available.lock().expect("rank pool poisoned");
        *avail = avail.checked_sub(world)?;
        Some(RankLease { pool: self, ranks: world })
    }
}

impl RankLease<'_> {
    /// Run one job on a fresh communicator world of the leased ranks.
    /// Returns the per-rank results in rank order, exactly like
    /// [`ThreadComm::run`]; the permits stay claimed until the lease drops.
    ///
    /// # Panics
    /// If a rank thread panics.
    pub fn run_job<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Sync,
    {
        ThreadComm::run(self.ranks, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Communicator, ReduceOp};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_get_isolated_worlds() {
        let pool = RankPool::new(8);
        let out = pool.try_lease(4).unwrap().run_job(|comm| {
            let mut buf = vec![comm.rank() as f32; 2];
            comm.allreduce(&mut buf, ReduceOp::Sum);
            buf[0]
        });
        assert_eq!(out, vec![6.0; 4]);
        assert_eq!(pool.available(), 8, "permits return after the job");
    }

    #[test]
    fn concurrent_jobs_never_exceed_capacity() {
        let pool = RankPool::new(4);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    // A full pool refuses at once; retry until the lease lands.
                    let lease = loop {
                        match pool.try_lease(3) {
                            Some(lease) => break lease,
                            None => std::thread::sleep(std::time::Duration::from_micros(200)),
                        }
                    };
                    lease.run_job(|comm| {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        comm.barrier();
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        live.fetch_sub(1, Ordering::SeqCst);
                    });
                });
            }
        });
        // With capacity 4 and 3-rank jobs, jobs must serialize: at most one
        // job's 3 ranks alive at once.
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {}", peak.load(Ordering::SeqCst));
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn a_full_pool_refuses_without_waiting() {
        let pool = RankPool::new(4);
        let held = pool.try_lease(3).unwrap();
        assert!(pool.try_lease(2).is_none(), "only one rank is free");
        let one = pool.try_lease(1).expect("the last free rank");
        assert_eq!(pool.available(), 0);
        drop(held);
        assert_eq!(pool.available(), 3);
        drop(one);
        assert!(pool.try_lease(4).is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds pool capacity")]
    fn oversized_job_rejected() {
        let pool = RankPool::new(2);
        let _ = pool.try_lease(3);
    }

    #[test]
    fn permits_survive_a_panicking_job() {
        let pool = RankPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.try_lease(2).unwrap().run_job(|comm| {
                if comm.rank() == 1 {
                    panic!("job body failure");
                }
                comm.rank()
            })
        }));
        assert!(r.is_err());
        assert_eq!(pool.available(), 2, "lease must release on unwind");
        // The pool still runs new jobs afterwards.
        let out = pool.try_lease(2).unwrap().run_job(|comm| comm.rank());
        assert_eq!(out, vec![0, 1]);
    }
}
