//! Log-bucketed latency histogram.
//!
//! Fixed memory (one `u64` per bucket), lock-free to merge, ~4% relative
//! error per bucket — the usual trade for serving-latency percentiles,
//! where tail *shape* matters and sub-percent precision does not.
//!
//! The same bucket math backs two types: [`LatencyHistogram`] (single
//! writer, used by load generators and snapshots) and
//! [`AtomicHistogram`](crate::registry::AtomicHistogram) (many concurrent
//! writers on the serving hot path). They stay mergeable with each other
//! because they share `bucket`/`bucket_value`.

use std::time::Duration;

/// Buckets per power of two of nanoseconds (resolution ≈ 1/16 ≈ 6%,
/// worst-case relative error half that).
const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4;
/// Covers 1 ns .. ~2^40 ns (≈ 18 minutes), saturating above.
const MAX_POW: usize = 40;
pub(crate) const N_BUCKETS: usize = MAX_POW * SUB_BUCKETS;

/// Bucket index for a nanosecond sample.
pub(crate) fn bucket(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let pow = 63 - ns.leading_zeros();
    let sub = (ns >> (pow - SUB_BITS)) as usize - SUB_BUCKETS;
    (((pow - SUB_BITS) as usize + 1) * SUB_BUCKETS + sub).min(N_BUCKETS - 1)
}

/// Representative (upper-edge) value of a bucket, inverse of [`bucket`].
pub(crate) fn bucket_value(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let pow = (idx / SUB_BUCKETS - 1) as u32 + SUB_BITS;
    let sub = (idx % SUB_BUCKETS) as u64 + SUB_BUCKETS as u64;
    sub << (pow - SUB_BITS)
}

/// Adds sparse `(bucket index, count)` pairs into `into`, leaving it
/// sorted by bucket — how window-local and fleet-wide views sum.
pub(crate) fn add_sparse(into: &mut Vec<(u32, u64)>, other: &[(u32, u64)]) {
    for &(idx, n) in other {
        match into.iter_mut().find(|(i, _)| *i == idx) {
            Some((_, mine)) => *mine += n,
            None => into.push((idx, n)),
        }
    }
    into.sort_by_key(|&(i, _)| i);
}

/// The buckets of `cur` that grew since `prev` (two cumulative views of
/// one histogram), each with its growth.
pub(crate) fn sub_sparse(cur: &[(u32, u64)], prev: &[(u32, u64)]) -> Vec<(u32, u64)> {
    cur.iter()
        .filter_map(|&(idx, n)| {
            let before = prev.iter().find(|&&(i, _)| i == idx).map_or(0, |&(_, n)| n);
            (n > before).then(|| (idx, n - before))
        })
        .collect()
}

/// Latency histogram over nanosecond samples.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; N_BUCKETS], total: 0, sum_ns: 0, max_ns: 0 }
    }

    /// Rebuilds a histogram from sparse `(bucket index, count)` pairs, as
    /// exported by a snapshot. Out-of-range indices saturate into the top
    /// bucket rather than panicking on foreign data.
    pub fn from_sparse(buckets: &[(u32, u64)], sum_ns: u128, max_ns: u64) -> Self {
        let mut h = LatencyHistogram::new();
        for &(idx, c) in buckets {
            h.counts[(idx as usize).min(N_BUCKETS - 1)] += c;
            h.total += c;
        }
        h.sum_ns = sum_ns;
        h.max_ns = max_ns;
        h
    }

    /// Non-empty buckets as `(bucket index, count)` pairs — the compact
    /// form snapshots carry.
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Records one sample.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one nanosecond sample.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact nanosecond sum over all samples.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Largest sample (exact, not bucketed).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Percentile in `[0, 100]`, from bucket upper edges.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(bucket_value(i).min(self.max_ns));
            }
        }
        self.max()
    }

    /// Accumulates another histogram (e.g. per-thread partials).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Human-scaled duration: exact `0ns`, whole ns under 1 µs, then
/// µs / ms / s, with minutes and hours above two minutes.
///
/// Unit thresholds sit where the smaller unit's rounded display would
/// hit `1000.0` of itself, so `999.96µs` prints as `1.00ms` — never the
/// four-integer-digit `1000.0us` the naive `< 1_000_000` cut produces.
/// Span self-times are routinely sub-microsecond, hence the exact-ns
/// band at the bottom; `u64::MAX` ns lands in the hours band instead of
/// an 11-digit seconds figure.
pub fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        return "0ns".into();
    }
    if ns < 1_000 {
        return format!("{ns}ns");
    }
    if ns < 999_950 {
        return format!("{:.1}us", ns as f64 / 1e3);
    }
    if ns < 999_995_000 {
        return format!("{:.2}ms", ns as f64 / 1e6);
    }
    let secs = ns as f64 / 1e9;
    if secs < 120.0 {
        return format!("{secs:.3}s");
    }
    let mins = secs / 60.0;
    if mins < 120.0 {
        return format!("{mins:.1}m");
    }
    format!("{:.1}h", mins / 60.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_value_inverts_bucket_within_resolution() {
        for ns in [0u64, 1, 15, 16, 17, 100, 999, 1000, 123_456, 1 << 30, 1 << 39] {
            let b = bucket(ns);
            let v = bucket_value(b);
            let err = (v as f64 - ns as f64).abs() / (ns.max(1) as f64);
            assert!(err <= 0.07, "ns={ns} bucket={b} value={v} err={err}");
            // Buckets are monotone.
            if ns > 0 {
                assert!(bucket(ns - 1) <= b);
            }
        }
        // Beyond the covered range (~18 min), samples saturate into the
        // top bucket rather than indexing out of bounds.
        assert_eq!(bucket(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(50.0).as_micros() as f64;
        let p99 = h.percentile(99.0).as_micros() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.1, "p50={p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.1, "p99={p99}");
        assert_eq!(h.max(), Duration::from_micros(1000));
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 1..=100u64 {
            let d = Duration::from_nanos(i * i * 37);
            if i % 2 == 0 {
                a.record(d)
            } else {
                b.record(d)
            }
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for p in [10.0, 50.0, 95.0, 99.0] {
            assert_eq!(a.percentile(p), whole.percentile(p));
        }
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), Duration::ZERO);
    }

    #[test]
    fn fmt_dur_boundaries() {
        let f = |ns: u64| fmt_dur(Duration::from_nanos(ns));
        assert_eq!(f(0), "0ns");
        assert_eq!(f(1), "1ns");
        assert_eq!(f(999), "999ns");
        assert_eq!(f(1_000), "1.0us");
        assert_eq!(f(1_500), "1.5us");
        assert_eq!(f(999_949), "999.9us");
        // At the rounding cliff the unit promotes instead of showing
        // "1000.0us".
        assert_eq!(f(999_950), "1.00ms");
        assert_eq!(f(1_000_000), "1.00ms");
        assert_eq!(f(999_994_999), "999.99ms");
        assert_eq!(f(999_995_000), "1.000s");
        assert_eq!(f(1_000_000_000), "1.000s");
        assert_eq!(f(119_999_000_000), "119.999s");
        assert_eq!(f(120_000_000_000), "2.0m");
        assert_eq!(f(7_200_000_000_000), "2.0h");
        // u64::MAX ns is ~585 years; it must stay finite and short.
        let huge = f(u64::MAX);
        assert!(huge.ends_with('h') && huge.len() < 16, "{huge}");
    }

    #[test]
    fn sparse_roundtrip_preserves_percentiles() {
        let mut h = LatencyHistogram::new();
        for i in 1..=500u64 {
            h.record(Duration::from_nanos(i * 977));
        }
        let back = LatencyHistogram::from_sparse(&h.nonzero_buckets(), h.sum_ns(), h.max_ns);
        assert_eq!(back.count(), h.count());
        for p in [25.0, 50.0, 95.0, 99.9] {
            assert_eq!(back.percentile(p), h.percentile(p));
        }
        assert_eq!(back.max(), h.max());
        assert_eq!(back.sum_ns(), h.sum_ns());
    }
}
