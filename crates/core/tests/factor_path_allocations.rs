//! The factor path allocates nothing after warm-up but the collective's own
//! messages: a factor step allocates at most three packed factor payloads
//! per rank more than the plain step beside it.
//!
//! A factor step differs from a plain one by capture (the `aᵀa`/`gᵀg`
//! Grams during the pass) and by `Kfac::update_factors` (finalize, pack,
//! allreduce, fold). With the statistic buffers kept by the capture and the
//! wire kept by the layer state, what is left is the allreduce itself — each
//! rank's contribution message, which the leader reduces into — and the
//! bias layers' ones-augmented inputs. Square factors on that path would
//! cost several square payloads (about two packed ones each) per rank.
//!
//! This is the only test in its binary on purpose: the counting allocator
//! is process-wide, and another test's allocations would land in its
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kaisa_comm::{Communicator, ThreadComm};
use kaisa_core::{Kfac, KfacConfig};
use kaisa_linalg::packed_len;
use kaisa_nn::models::Mlp;
use kaisa_nn::Model;
use kaisa_tensor::{Matrix, Rng};

/// The system allocator, counting every byte it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a side effect that touches no memory it hands
// out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_factor_step_allocates_only_the_collectives_messages() {
    const WORLD: usize = 2;
    // A 513-wide `A` factor (512 inputs plus the bias) dominates the wire.
    let widths = [512usize, 64, 10];
    let payload_bytes: usize =
        widths.windows(2).map(|w| packed_len(w[0] + 1) + packed_len(w[1])).sum::<usize>()
            * std::mem::size_of::<f32>();

    let extras = ThreadComm::run(WORLD, |comm| {
        let mut model = Mlp::new(&widths, &mut Rng::seed_from_u64(17));
        let mut rng = Rng::seed_from_u64(100 + comm.rank() as u64);
        let x = Matrix::randn(32, widths[0], 1.0, &mut rng);
        let y: Vec<usize> = (0..32).map(|i| i % widths[2]).collect();
        let cfg = KfacConfig::builder().factor_update_freq(2).inv_update_freq(1000).build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let mut step = |model: &mut Mlp| {
            kfac.prepare(model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            kfac.step(model, comm, 0.1);
        };
        // Bytes allocated, world-wide, by the next step: every rank is
        // parked in a barrier while the counter is read.
        let mut measure = |model: &mut Mlp| {
            comm.barrier();
            let before = ALLOCATED.load(Ordering::SeqCst);
            comm.barrier();
            step(model);
            comm.barrier();
            let after = ALLOCATED.load(Ordering::SeqCst);
            comm.barrier();
            after - before
        };
        // Warm-up: two factor steps (the first also decomposes) and two
        // plain ones size every kept buffer.
        for _ in 0..4 {
            measure(&mut model);
        }
        (0..3)
            .map(|_| {
                let factor = measure(&mut model);
                let plain = measure(&mut model);
                factor.saturating_sub(plain)
            })
            .collect::<Vec<usize>>()
    })
    .swap_remove(0);

    let budget = 3 * WORLD * payload_bytes;
    println!("extra bytes per factor step: {extras:?}; budget {budget}");
    for (pair, extra) in extras.iter().enumerate() {
        assert!(
            *extra <= budget,
            "pair {pair}: a factor step allocated {extra} bytes more than a plain step across \
             {WORLD} ranks; the budget is three packed payloads ({payload_bytes} bytes) per rank"
        );
    }
}
