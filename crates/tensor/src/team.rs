//! The cooperative compute team behind the banded GEMM/SYRK kernels.
//!
//! A *region* is one banded kernel call, given to [`run`] as a closure that
//! claims the next band of `C` from a shared queue and computes it. The
//! calling thread always works through the queue itself; when it can see
//! that help will pay, it also *offers* the closure to the team's helper
//! threads, which claim whatever bands the caller has not got to yet. Which
//! thread computes a band never changes a bit of the result — bands are a
//! pure function of shape and core count, and each `C` element's update
//! chain lives inside one band.
//!
//! **Who may help.** `cores() − 1` helper threads are spawned by the first
//! offer and then park on a condvar for the life of the process — no thread
//! is created on the step path. A region is offered only when
//!
//! * the product is at least [`MIN_BANDED_MACS`] multiply-adds (decided by
//!   the kernels through [`pays`]; below it they run one serial sweep and
//!   never touch this module),
//! * at least two bands are still unclaimed,
//! * fewer than `cores()` threads are inside a region right now (one
//!   process-wide counter: callers of any banded region plus helpers running
//!   one), i.e. some core is not already doing GEMM work,
//! * no other region is on offer (there is a single job slot), and
//! * the caller is not itself inside a band.
//!
//! The caller looks again before each band it claims, so a region that began
//! while every core was busy is offered as soon as one falls idle (a peer
//! rank finishing its own products and parking in a collective). Until then
//! the caller just runs its bands in a loop. That is what two rank threads
//! in lock-step forward/backward, `cargo test`'s thread pool and a one-core
//! runner all want, and it is decided from what the process is doing, so
//! there is nothing to configure: no knob, env var or setter.
//!
//! **The one `unsafe`.** The job slot holds the caller's closure as a
//! `&'static` reference although it borrows the caller's stack. The contract
//! that makes this sound is kept entirely inside this module: a helper calls
//! through the reference only between `running += 1` and `running -= 1`
//! (both under the slot lock, the first only while the slot still holds the
//! job), and the caller leaves [`run`] — by return or by unwinding — only
//! through [`Offer`]'s drop, which first clears the slot, so no new helper
//! can pick the reference up, and then waits for `running` to reach zero.
//!
//! **Panics.** A band that panics on a helper is caught there; the payload is
//! re-raised on the caller once the region has closed, and the helper goes
//! back to waiting, so the team stays usable.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// Below this many multiply-adds a product is not cut into bands at all: the
/// time it takes to wake a parked helper, and to wait for its last band, is
/// a measurable share of anything shorter. Read off a sweep with the
/// threshold removed (EXPERIMENTS.md, "Offer threshold"): offered products
/// of 8.4 M and more never lost to the inline loop and gained up to 1.6×,
/// those of 4.2 M (BertMini's largest) swung between 0.6× and 1.12× of it
/// with the state of the second core, and smaller ones lost. `kernel_bench`
/// gates that the step shapes below it cost nothing extra.
const MIN_BANDED_MACS: usize = 8 << 20;

/// Whether a product of `macs` multiply-adds is worth cutting into bands —
/// a pure function of shape, so every rank decides alike.
pub(crate) fn pays(macs: usize) -> bool {
    macs >= MIN_BANDED_MACS
}

/// Cores available to this process, resolved on first use and then fixed:
/// band sizes, the team size and the "is a core free" test all read this one
/// value (`available_parallelism` re-reads the cgroup files on every call,
/// 15–20 µs). It counts the *calling thread's* affinity mask: nothing in
/// the workspace narrows a thread's mask, so under `taskset -c 0` it sees
/// one core and the process gets one band per product and a team of zero
/// helpers. Helpers inherit the affinity of the thread that makes the first
/// offer.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads inside a banded region right now, callers and helpers alike.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread executes bands; a region entered from inside
    /// one runs inline, so a band can never wait on the team it is part of.
    static IN_BAND: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as executing bands until dropped.
struct InBand {
    was: bool,
}

impl InBand {
    fn enter() -> InBand {
        InBand { was: IN_BAND.replace(true) }
    }
}

impl Drop for InBand {
    fn drop(&mut self) {
        IN_BAND.set(self.was);
    }
}

/// Counts the calling thread in [`BUSY`] until dropped.
struct Busy;

impl Busy {
    fn enter() -> Busy {
        // Relaxed, here and wherever `BUSY` is read: the count only steers
        // who helps; it publishes no data.
        BUSY.fetch_add(1, Ordering::Relaxed);
        Busy
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Run `f` with every banded region inside it executed inline on the calling
/// thread, exactly as if `f` were itself a band. This is the reference the
/// team is tested and benchmarked against (the property suite,
/// `kernel_bench`); it touches only the calling thread's state.
#[doc(hidden)]
pub fn inline_bands<R>(f: impl FnOnce() -> R) -> R {
    let _in_band = InBand::enter();
    f()
}

/// A region's closure: claim the next band and compute it; `false` once the
/// queue is empty.
type Work<'a> = dyn Fn() -> bool + Sync + 'a;

/// The single job slot and the helpers' bookkeeping.
struct Slot {
    /// The region on offer, if any (module docs: "The one `unsafe`").
    job: Option<&'static Work<'static>>,
    /// Bumped per offer, so a helper joins a given region at most once.
    epoch: u64,
    /// Helpers the open region still wants.
    wanted: usize,
    /// Helpers currently inside the region's closure.
    running: usize,
    /// The region's owner has withdrawn `job` and is waiting for `running`
    /// to reach zero; the slot is not free for a new offer until it has.
    closing: bool,
    /// First panic payload caught on a helper, for the caller to re-raise.
    panic: Option<Box<dyn Any + Send>>,
}

static SLOT: Mutex<Slot> =
    Mutex::new(Slot { job: None, epoch: 0, wanted: 0, running: 0, closing: false, panic: None });
/// Helpers park here until a region is offered.
static OFFERED: Condvar = Condvar::new();
/// The offering caller parks here until its helpers have left the closure.
static DRAINED: Condvar = Condvar::new();

/// No code panics while holding the slot lock and every update leaves the
/// slot consistent, so a poisoned lock (impossible today) is still usable.
fn slot() -> MutexGuard<'static, Slot> {
    SLOT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spawn the helpers, once. They live as long as the process and are never
/// joined: they own nothing, and a band's panic is caught in [`help`], not
/// left in a `JoinHandle`. A failed spawn just means a smaller team.
fn start_helpers() {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        for i in 1..cores() {
            let _ = std::thread::Builder::new().name(format!("kaisa-team-{i}")).spawn(help);
        }
    });
}

/// A helper's life: wait for an offer, claim bands until the region's queue
/// is empty, report, repeat.
fn help() {
    // Everything a helper executes is a band.
    let _in_band = InBand::enter();
    let mut joined = 0u64;
    let mut guard = slot();
    loop {
        let job = match guard.job {
            Some(job) if guard.epoch != joined && guard.wanted > 0 => job,
            _ => {
                guard = OFFERED.wait(guard).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
        };
        joined = guard.epoch;
        guard.wanted -= 1;
        guard.running += 1;
        drop(guard);
        let outcome = {
            let _busy = Busy::enter();
            catch_unwind(AssertUnwindSafe(|| while job() {}))
        };
        // `job` is not touched again: once `running` drops below, its
        // referent may be gone.
        guard = slot();
        if let Err(payload) = outcome {
            guard.panic.get_or_insert(payload);
        }
        guard.running -= 1;
        if guard.running == 0 {
            DRAINED.notify_one();
        }
    }
}

/// An open offer. Dropping it closes the region: the slot is cleared and the
/// caller waits until no helper is inside the closure any more — which is
/// what lets the slot hold a reference into the caller's stack.
struct Offer;

impl Offer {
    /// Put `work` on offer to up to `wanted` helpers, unless another region
    /// holds the slot (open, or closed with helpers still to drain).
    fn open(work: &Work<'_>, wanted: usize) -> Option<Offer> {
        start_helpers();
        let mut guard = slot();
        if guard.job.is_some() || guard.closing {
            return None;
        }
        // SAFETY: only the lifetime changes. The reference is reachable
        // through `SLOT.job` alone; helpers copy it out and call it only
        // while counted in `running`, and entering that count requires
        // `job` to be set. The `Offer` returned here is dropped before
        // `work`'s referent is (it is created inside `run`, which borrows
        // `work` for its whole body), and its drop clears `job` and then
        // blocks until `running == 0` — on return and on unwind alike. The
        // slot stays `closing` meanwhile, so `running` never counts another
        // region's helpers.
        let job = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(work) };
        guard.job = Some(job);
        guard.epoch += 1;
        guard.wanted = wanted;
        drop(guard);
        if wanted == 1 {
            OFFERED.notify_one();
        } else {
            OFFERED.notify_all();
        }
        Some(Offer)
    }

    /// Close the region and hand back a helper's panic, if there was one.
    fn close(self) -> Option<Box<dyn Any + Send>> {
        let payload = Self::drain();
        std::mem::forget(self);
        payload
    }

    fn drain() -> Option<Box<dyn Any + Send>> {
        let mut guard = slot();
        guard.job = None;
        guard.closing = true;
        while guard.running > 0 {
            guard = DRAINED.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        guard.closing = false;
        guard.panic.take()
    }
}

impl Drop for Offer {
    fn drop(&mut self) {
        // Reached with work still to do only when the caller's own band
        // panicked; a helper's payload is then dropped in favour of the
        // panic already unwinding.
        drop(Self::drain());
    }
}

/// Execute a region of `bands` bands: `band` claims and computes one band
/// per call until it reports the queue empty. It runs on the calling thread
/// and — while the conditions in the module docs hold — concurrently on
/// helpers. Returns once every band is done.
pub(crate) fn run(bands: usize, band: &Work<'_>) {
    if IN_BAND.get() {
        while band() {}
        return;
    }
    let _in_band = InBand::enter();
    let _busy = Busy::enter();
    let mut offer = None;
    // Unclaimed bands; exact for as long as the caller is the only claimant.
    let mut left = bands;
    loop {
        if offer.is_none() && left >= 2 {
            let free = cores().saturating_sub(BUSY.load(Ordering::Relaxed));
            if free > 0 {
                offer = Offer::open(band, free.min(left - 1));
            }
        }
        if !band() {
            break;
        }
        left = left.saturating_sub(1);
    }
    if let Some(payload) = offer.and_then(Offer::close) {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `f` on its own thread and fail if it has not finished in 30 s —
    /// a team bug shows as a hang, and a hung test reports nothing.
    fn within_timeout<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        let outcome = rx.recv_timeout(Duration::from_secs(30)).expect("team region hung");
        thread.join().expect("test thread exits once it has reported");
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// A region of `bands` bands over an atomic claim counter; `band(i)`
    /// runs once per band. Offered whenever the team has a free helper.
    fn region(bands: usize, band: impl Fn(usize) + Sync) {
        let next = AtomicUsize::new(0);
        run(bands, &|| {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i < bands {
                band(i);
            }
            i < bands
        });
    }

    #[test]
    fn every_band_runs_exactly_once() {
        within_timeout(|| {
            for bands in [1usize, 2, 3, 8, 64] {
                let hits: Vec<AtomicUsize> = (0..bands).map(|_| AtomicUsize::new(0)).collect();
                region(bands, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "bands={bands}");
            }
        });
    }

    #[test]
    fn band_panic_reaches_the_caller_and_the_team_survives() {
        within_timeout(|| {
            for round in 0..20 {
                // Band 3 panics on whichever thread claims it; the slow
                // bands give a helper time to be that thread.
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    region(8, |i| {
                        if i == 3 {
                            panic!("band 3 of round {round}");
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    });
                }));
                let payload = caught.expect_err("the band's panic must surface on the caller");
                let message = payload.downcast_ref::<String>().expect("panic! with a format");
                assert_eq!(message, &format!("band 3 of round {round}"));
                assert_all_bands_run();
            }
            assert!(!IN_BAND.get(), "a panicking region must restore the caller's state");
        });
    }

    /// The next region on the same team runs to completion.
    fn assert_all_bands_run() {
        let done = AtomicUsize::new(0);
        region(8, |_| {
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn helper_panic_is_reraised_on_the_caller() {
        within_timeout(|| {
            // Every band a *helper* claims panics; the caller's first band
            // waits (bounded) for that to have happened, so the helper path
            // is the one exercised whenever the region was offered at all —
            // with one core, or every core busy in other tests, it is not,
            // and then the region must simply complete.
            for _ in 0..10 {
                let caller = std::thread::current().id();
                let helper_claimed = AtomicBool::new(false);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    region(8, |_| {
                        if std::thread::current().id() != caller {
                            helper_claimed.store(true, Ordering::SeqCst);
                            panic!("band on a helper");
                        }
                        let t0 = std::time::Instant::now();
                        while !helper_claimed.load(Ordering::SeqCst)
                            && t0.elapsed() < Duration::from_millis(20)
                        {
                            std::thread::yield_now();
                        }
                    });
                }));
                assert_eq!(caught.is_err(), helper_claimed.load(Ordering::SeqCst));
                assert_all_bands_run();
            }
        });
    }

    #[test]
    fn concurrent_callers_all_complete() {
        // More callers than cores, tiny bands: offers, refusals (slot taken
        // or closing) and drains interleave in every order the scheduler
        // finds. Each caller checks its own bands.
        within_timeout(|| {
            std::thread::scope(|scope| {
                for _ in 0..cores() + 2 {
                    scope.spawn(|| {
                        for round in 0..300 {
                            let bands = 2 + round % 5;
                            let done = AtomicUsize::new(0);
                            region(bands, |_| {
                                done.fetch_add(1, Ordering::Relaxed);
                            });
                            assert_eq!(done.load(Ordering::Relaxed), bands);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn region_inside_a_band_runs_inline() {
        within_timeout(|| {
            let nested_elsewhere = AtomicBool::new(false);
            region(4, |_| {
                let outer = std::thread::current().id();
                region(4, |_| {
                    if std::thread::current().id() != outer {
                        nested_elsewhere.store(true, Ordering::Relaxed);
                    }
                });
            });
            assert!(!nested_elsewhere.load(Ordering::Relaxed));
        });
    }

    #[test]
    fn inline_bands_keeps_the_region_on_the_caller() {
        within_timeout(|| {
            let me = std::thread::current().id();
            inline_bands(|| {
                region(16, |_| {
                    assert_eq!(std::thread::current().id(), me);
                    std::thread::sleep(Duration::from_micros(200));
                });
            });
            assert!(!IN_BAND.get());
        });
    }
}
