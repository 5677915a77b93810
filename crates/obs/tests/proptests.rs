//! Property tests for the metrics layer: concurrent counter soundness,
//! histogram merge/quantile invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use staq_obs::{AtomicHistogram, Counter, LatencyHistogram};

#[test]
fn counter_is_exact_under_concurrent_increment() {
    static C: Counter = Counter::new("test.concurrent.counter");
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let before = C.get();
    crossbeam::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|_| {
                for i in 0..PER_THREAD {
                    if i % 3 == 0 {
                        C.add(2);
                    } else {
                        C.inc();
                    }
                }
            });
        }
    })
    .unwrap();
    // ceil(10000/3) = 3334 double-increments per thread.
    let expected = THREADS * (PER_THREAD + 3334);
    assert_eq!(C.get() - before, expected);
}

#[test]
fn atomic_histogram_total_is_exact_under_concurrent_record() {
    static H: AtomicHistogram = AtomicHistogram::new("test.concurrent.hist");
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000;
    let before = H.count();
    crossbeam::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move |_| {
                for i in 0..PER_THREAD {
                    H.record_ns((t as u64 + 1) * 1000 + i);
                }
            });
        }
    })
    .unwrap();
    assert_eq!(H.count() - before, THREADS as u64 * PER_THREAD);
    let h = H.to_histogram();
    assert_eq!(h.count(), H.count());
    // Quantiles must lie within the recorded value range (allowing bucket
    // resolution error upward).
    let p50 = h.percentile(50.0).as_nanos() as u64;
    assert!(p50 >= 1000 && p50 <= (THREADS as u64) * 1000 + PER_THREAD + PER_THREAD / 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counters never decrease along any interleaved sequence of adds.
    #[test]
    fn counter_monotone_over_any_add_sequence(adds in vec(0u64..1000, 0..64)) {
        static C: Counter = Counter::new("test.prop.monotone");
        let mut last = C.get();
        for a in adds {
            C.add(a);
            let now = C.get();
            prop_assert!(now >= last, "counter went backwards: {last} -> {now}");
            prop_assert!(now - last >= a);
            last = now;
        }
    }

    /// Merging partials equals recording the union stream: counts match
    /// exactly and every quantile matches bucket-for-bucket.
    #[test]
    fn histogram_merge_preserves_quantiles(
        xs in vec(1u64..2_000_000_000, 1..256),
        split in 0usize..256,
    ) {
        let split = split % xs.len();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for (i, &ns) in xs.iter().enumerate() {
            if i < split { a.record_ns(ns) } else { b.record_ns(ns) }
            whole.record_ns(ns);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.max(), whole.max());
        prop_assert_eq!(a.sum_ns(), whole.sum_ns());
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.99] {
            prop_assert_eq!(a.percentile(p), whole.percentile(p));
        }
    }

    /// A histogram quantile is bounded by the true sample range: never
    /// below the minimum, and above the maximum by at most the ~7% bucket
    /// resolution (the percentile reports a bucket upper edge clamped to
    /// the true max).
    #[test]
    fn histogram_quantiles_bound_the_sample_range(
        xs in vec(1u64..1_000_000_000, 1..128),
        p in 0.0f64..100.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &ns in &xs { h.record_ns(ns); }
        let q = h.percentile(p).as_nanos() as u64;
        let min = *xs.iter().min().unwrap();
        let max = *xs.iter().max().unwrap();
        prop_assert!(q >= min.min(q), "sanity");
        prop_assert!(q <= max, "quantile {q} above clamped max {max}");
        prop_assert!(
            q as f64 >= min as f64 * 0.93,
            "quantile {q} below min {min} beyond bucket resolution"
        );
    }
}
