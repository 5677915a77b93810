//! Proof that a warm MLP training step stays off the allocator: the
//! input batch, activations, deltas, the transposed weights and the
//! gradients live in the `Net`'s workspace, which grows to the largest
//! batch in the first epoch and is reused after that.
//!
//! This pins hygiene, not speed. Removing the allocations alone bought
//! nothing: a workspace `Net` with zero per-step allocations but the old
//! product loop ran 0.996–1.03× the allocating one on the benchmark city's
//! VaxCenter fit (55 labeled rows, net [19, 64, 32, 2], 400 Adam steps).
//! The fit is compute-bound, and the gain came from the product kernel.
//!
//! Kept as the single test in this binary so no concurrent test perturbs
//! the global allocation counter.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use staq_ml::mlp::Net;
use staq_ml::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator that counts allocation events (not bytes).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn warm_training_steps_do_not_allocate() {
    // The benchmark task's shape: 55 labeled rows of 19 features, 2 targets,
    // batches of 32 (so every epoch has a full and a short batch).
    let mut rng = StdRng::seed_from_u64(3);
    let (n, d) = (55, 19);
    let mut x = Matrix::zeros(n, d);
    let mut y = Matrix::zeros(n, 2);
    for v in x.data_mut().iter_mut().chain(y.data_mut()) {
        *v = rng.random_range(-1.0..1.0);
    }
    let mut net = Net::new(&[d, 64, 32, 2], &mut rng);
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch = |net: &mut Net, rng: &mut StdRng| {
        order.shuffle(rng);
        for chunk in order.chunks(32) {
            std::hint::black_box(net.train_rows(&x, &y, chunk, 1e-2, 1.0));
        }
    };

    epoch(&mut net, &mut rng);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..20 {
        epoch(&mut net, &mut rng);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "40 warm training steps allocated {allocs} times");
}
