//! Point-in-time metric snapshots.
//!
//! [`MetricsSnapshot`] is the plain-data view of the registry: integer
//! samples by name, mergeable across processes. It travels in the serve
//! `Stats` frame (staq-serve's wire codec is its interchange format) and
//! is exported as text by [`prom::render`](crate::prom::render). The
//! serde derives are markers on the vendored API stand-in; no serde
//! driver runs.

use crate::hist::LatencyHistogram;
use serde::{Deserialize, Serialize};

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    pub name: String,
    pub value: u64,
}

/// One gauge's level at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    pub name: String,
    pub value: u64,
}

/// One histogram, compacted to its non-empty buckets plus precomputed
/// headline percentiles (nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSample {
    pub name: String,
    pub count: u64,
    /// Exact sample sum in ns (saturated to u64 for the wire).
    pub sum_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Sparse `(bucket index, count)` pairs; merge-preserving.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSample {
    /// Compacts a histogram under `name`.
    pub fn from_histogram(name: &str, h: &LatencyHistogram) -> Self {
        HistogramSample {
            name: name.to_string(),
            count: h.count(),
            sum_ns: h.sum_ns().min(u64::MAX as u128) as u64,
            max_ns: h.max().as_nanos().min(u64::MAX as u128) as u64,
            p50_ns: h.percentile(50.0).as_nanos() as u64,
            p95_ns: h.percentile(95.0).as_nanos() as u64,
            p99_ns: h.percentile(99.0).as_nanos() as u64,
            buckets: h.nonzero_buckets(),
        }
    }

    /// Rebuilds a mergeable histogram (for quantiles beyond the headline
    /// three).
    pub fn to_histogram(&self) -> LatencyHistogram {
        LatencyHistogram::from_sparse(&self.buckets, self.sum_ns as u128, self.max_ns)
    }
}

/// Everything the registry knew at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSample>,
    pub gauges: Vec<GaugeSample>,
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Gauge level by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram sample by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Folds another snapshot in, for scatter-gather over processes that
    /// each own a registry (the staq-shard router merging its backends):
    /// counters and gauges sum by name (a gauge is a level, so the sum is
    /// the fleet-wide level — total queue depth, total cache entries);
    /// histograms merge bucket-wise, which preserves quantiles exactly at
    /// bucket resolution. Names sort afterwards so merged output stays
    /// deterministic.
    ///
    /// Merging snapshots taken from the *same* registry double-counts;
    /// callers with in-process backends must take one snapshot instead.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|m| m.name == c.name) {
                Some(m) => m.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|m| m.name == g.name) {
                Some(m) => m.value += g.value,
                None => self.gauges.push(g.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|m| m.name == h.name) {
                Some(m) => {
                    let mut merged = m.to_histogram();
                    merged.merge(&h.to_histogram());
                    *m = HistogramSample::from_histogram(&h.name, &merged);
                }
                None => self.histograms.push(h.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(Duration::from_micros(i * 3));
        }
        MetricsSnapshot {
            counters: vec![
                CounterSample { name: "engine.cache.hits".into(), value: 42 },
                CounterSample { name: "raptor.queries".into(), value: 123_456 },
            ],
            gauges: vec![GaugeSample { name: "serve.workers".into(), value: 8 }],
            histograms: vec![HistogramSample::from_histogram("serve.request.query", &h)],
        }
    }

    #[test]
    fn lookup_helpers_find_by_name() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("raptor.queries"), Some(123_456));
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("serve.workers"), Some(8));
        assert!(snap.histogram("serve.request.query").is_some());
    }

    #[test]
    fn merge_sums_by_name_and_merges_histograms() {
        let mut a = sample_snapshot();
        let b = sample_snapshot();
        // A reference histogram holding both copies of the samples.
        let mut both = a.histograms[0].to_histogram();
        both.merge(&b.histograms[0].to_histogram());

        a.merge(&b);
        assert_eq!(a.counter("engine.cache.hits"), Some(84));
        assert_eq!(a.counter("raptor.queries"), Some(2 * 123_456));
        assert_eq!(a.gauge("serve.workers"), Some(16));
        let h = a.histogram("serve.request.query").unwrap();
        assert_eq!(h.count, 200);
        assert_eq!(h.to_histogram().percentile(95.0), both.percentile(95.0));

        // Disjoint names just union in, sorted.
        a.merge(&MetricsSnapshot {
            counters: vec![CounterSample { name: "aaa.first".into(), value: 1 }],
            ..Default::default()
        });
        assert_eq!(a.counters[0].name, "aaa.first");
    }
}
