//! A shared thread-rank pool for running many communicator worlds at once.
//!
//! The serve layer schedules a queue of training jobs over one machine; each
//! job wants its own [`ThreadComm`] world. A [`RankPool`] bounds how many
//! rank threads run concurrently across *all* jobs: [`RankPool::run_job`]
//! acquires one permit per rank (blocking while the pool is full), spawns
//! the job's world through [`ThreadComm::run`], and releases the
//! permits when the job's rank threads join — even if a rank panics.
//!
//! Every job gets a **fresh, fully isolated world**: its own SPSC rings,
//! group table, and meter. Ranks are numbered `0..world` within each job
//! regardless of which pool permits backed them, so a job checkpointed at
//! one world size restores cleanly at another.

use std::sync::{Condvar, Mutex};

use crate::ThreadComm;

/// A counting semaphore over rank-thread capacity, shared by every job a
/// serve pool runs.
#[derive(Debug)]
pub struct RankPool {
    capacity: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

/// RAII permit lease: gives the permits back (and wakes waiters) on drop,
/// including during a panic unwind out of a job body.
struct Lease<'a> {
    pool: &'a RankPool,
    ranks: usize,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let mut avail = self.pool.available.lock().expect("rank pool poisoned");
        *avail += self.ranks;
        self.pool.freed.notify_all();
    }
}

impl RankPool {
    /// A pool of `capacity` rank threads.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "rank pool needs at least one rank");
        RankPool { capacity, available: Mutex::new(capacity), freed: Condvar::new() }
    }

    /// Total rank threads the pool may run concurrently.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rank threads currently unclaimed (racy by nature — informational).
    pub fn available(&self) -> usize {
        *self.available.lock().expect("rank pool poisoned")
    }

    /// Run one job on a fresh `world`-rank communicator world, blocking
    /// until the pool has `world` free rank permits. Returns the per-rank
    /// results in rank order, exactly like [`ThreadComm::run`].
    ///
    /// # Panics
    /// If `world` exceeds the pool capacity (such a job could never start),
    /// or if a rank thread panics.
    pub fn run_job<R, F>(&self, world: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Sync,
    {
        assert!(world >= 1, "job world must be positive");
        assert!(
            world <= self.capacity,
            "job world {world} exceeds pool capacity {}",
            self.capacity
        );
        {
            let mut avail = self.available.lock().expect("rank pool poisoned");
            while *avail < world {
                avail = self.freed.wait(avail).expect("rank pool poisoned");
            }
            *avail -= world;
        }
        let _lease = Lease { pool: self, ranks: world };
        ThreadComm::run(world, f)
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
        let out = pool.run_job(4, |comm| {
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
                    pool.run_job(3, |comm| {
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
    #[should_panic(expected = "exceeds pool capacity")]
    fn oversized_job_rejected() {
        let pool = RankPool::new(2);
        let _ = pool.run_job(3, |_| ());
    }

    #[test]
    fn permits_survive_a_panicking_job() {
        let pool = RankPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_job(2, |comm| {
                if comm.rank() == 1 {
                    panic!("job body failure");
                }
                comm.rank()
            })
        }));
        assert!(r.is_err());
        assert_eq!(pool.available(), 2, "lease must release on unwind");
        // The pool still runs new jobs afterwards.
        let out = pool.run_job(2, |comm| comm.rank());
        assert_eq!(out, vec![0, 1]);
    }
}
