//! Declarative latency/availability objectives per query class, with
//! multi-window burn rates.
//!
//! An SLO here is "fraction `objective` of requests finish under
//! `threshold` and are not shed". A *bad event* is a request whose
//! latency landed above the threshold, plus every admission shed or
//! worker-side deadline miss attributed to the class (the serving layer
//! calls [`shed`] at those sites — shed requests never reach the
//! latency histograms, so they must be counted separately or the error
//! budget would silently exclude exactly the failures admission control
//! produces).
//!
//! Burn rate follows the multi-window convention: over a window,
//! `burn = (bad / total) / (1 - objective)` — 1.0 means the budget is
//! being spent exactly at the sustainable pace, 10 means the budget
//! burns ten times too fast. The ops layer evaluates a fast window
//! (default 5 min, pages on sudden breakage) and a slow window (default
//! 1 h, catches slow leaks) from the same ring of per-class windows.
//!
//! Everything here keys off the four serving classes, and everything
//! keyed by class — its latency histograms (the per-kind
//! `serve.request.*` families the worker pool records), its
//! `obs.slo.<class>.shed` counter, its burn gauges, its slow-capture
//! threshold and its default objective — is one row of the `CLASSES` table.

use crate::hist::bucket_value;
use crate::ops::ClassWindow;
use crate::registry::{Counter, Gauge};
use std::sync::atomic::AtomicU64;

/// The serving classes objectives are declared over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloClass {
    /// Access queries (`serve.request.query`).
    Query,
    /// Journey planning (`serve.request.plan`).
    Plan,
    /// Per-zone measure dumps (`serve.request.measures`).
    Measures,
    /// Mutations: POI/route edits and streamed deltas.
    Edits,
}

/// One class's row: the registry takes statics only, so each class gets
/// declared metrics rather than dynamic names.
pub(crate) struct ClassRow {
    name: &'static str,
    hists: &'static [&'static str],
    pub(crate) shed: Counter,
    /// Burn rates and remaining budget in thousandths, refreshed
    /// whenever a report is assembled.
    pub(crate) burn_fast_milli: Gauge,
    pub(crate) burn_slow_milli: Gauge,
    pub(crate) budget_remaining_milli: Gauge,
    /// Slow-trace promotion threshold, settable at runtime.
    pub(crate) slow_threshold_ns: AtomicU64,
    /// Default objective: good fraction in thousandths, latency bound.
    objective_milli: u32,
    threshold_ns: u64,
}

/// Indexed by `SloClass as usize`.
static CLASSES: [ClassRow; 4] = [
    ClassRow {
        name: "query",
        hists: &["serve.request.query"],
        shed: Counter::new("obs.slo.query.shed"),
        burn_fast_milli: Gauge::new("obs.slo.query.burn_fast_milli"),
        burn_slow_milli: Gauge::new("obs.slo.query.burn_slow_milli"),
        budget_remaining_milli: Gauge::new("obs.slo.query.budget_remaining_milli"),
        slow_threshold_ns: AtomicU64::new(25_000_000),
        objective_milli: 999,
        threshold_ns: 50_000_000,
    },
    ClassRow {
        name: "plan",
        hists: &["serve.request.plan"],
        shed: Counter::new("obs.slo.plan.shed"),
        burn_fast_milli: Gauge::new("obs.slo.plan.burn_fast_milli"),
        burn_slow_milli: Gauge::new("obs.slo.plan.burn_slow_milli"),
        budget_remaining_milli: Gauge::new("obs.slo.plan.budget_remaining_milli"),
        slow_threshold_ns: AtomicU64::new(50_000_000),
        objective_milli: 999,
        threshold_ns: 100_000_000,
    },
    ClassRow {
        name: "measures",
        hists: &["serve.request.measures"],
        shed: Counter::new("obs.slo.measures.shed"),
        burn_fast_milli: Gauge::new("obs.slo.measures.burn_fast_milli"),
        burn_slow_milli: Gauge::new("obs.slo.measures.burn_slow_milli"),
        budget_remaining_milli: Gauge::new("obs.slo.measures.budget_remaining_milli"),
        slow_threshold_ns: AtomicU64::new(25_000_000),
        objective_milli: 999,
        threshold_ns: 50_000_000,
    },
    ClassRow {
        name: "edits",
        hists: &["serve.request.add_poi", "serve.request.apply_delta", "serve.request.delta_batch"],
        shed: Counter::new("obs.slo.edits.shed"),
        burn_fast_milli: Gauge::new("obs.slo.edits.burn_fast_milli"),
        burn_slow_milli: Gauge::new("obs.slo.edits.burn_slow_milli"),
        budget_remaining_milli: Gauge::new("obs.slo.edits.budget_remaining_milli"),
        slow_threshold_ns: AtomicU64::new(100_000_000),
        objective_milli: 995,
        threshold_ns: 250_000_000,
    },
];

impl SloClass {
    pub const ALL: [SloClass; 4] =
        [SloClass::Query, SloClass::Plan, SloClass::Measures, SloClass::Edits];

    pub(crate) fn row(self) -> &'static ClassRow {
        &CLASSES[self as usize]
    }

    /// Stable wire/JSON name.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The cumulative latency histograms whose samples this class
    /// aggregates.
    pub fn hist_names(self) -> &'static [&'static str] {
        self.row().hists
    }

    /// The class's shed counter name.
    pub fn shed_counter(self) -> &'static str {
        self.row().shed.name()
    }
}

/// Counts one availability error (admission shed or deadline miss)
/// against `class`'s error budget.
pub fn shed(class: SloClass) {
    class.row().shed.inc()
}

/// Cumulative shed count for `class` since boot.
pub fn shed_count(class: SloClass) -> u64 {
    class.row().shed.get()
}

/// One declared objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    pub class: SloClass,
    /// Good-fraction objective in thousandths: 999 = 99.9%.
    pub objective_milli: u32,
    /// Latency threshold a good request must finish under.
    pub threshold_ns: u64,
}

impl SloSpec {
    /// The error-budget fraction: `1 - objective`.
    pub fn budget_fraction(&self) -> f64 {
        1.0 - (self.objective_milli.min(1000) as f64 / 1000.0)
    }
}

fn default_specs() -> [SloSpec; 4] {
    SloClass::ALL.map(|class| {
        let row = class.row();
        SloSpec { class, objective_milli: row.objective_milli, threshold_ns: row.threshold_ns }
    })
}

static SPECS: std::sync::Mutex<Option<[SloSpec; 4]>> = std::sync::Mutex::new(None);

/// The active objectives in [`SloClass::ALL`] order, defaults unless
/// [`configure`]d.
pub fn specs() -> [SloSpec; 4] {
    SPECS.lock().expect("slo specs poisoned").unwrap_or_else(default_specs)
}

/// Replaces the objective for each class present in `new` (absent
/// classes keep their current spec). Process-global, like the registry.
pub fn configure(new: &[SloSpec]) {
    let mut guard = SPECS.lock().expect("slo specs poisoned");
    let mut specs = guard.unwrap_or_else(default_specs);
    for spec in new {
        specs[spec.class as usize] = *spec;
    }
    *guard = Some(specs);
}

/// Total and bad event counts for `spec`'s class inside one window.
///
/// Returns `(total, bad)`: total = latency samples + sheds; bad =
/// samples whose bucket's upper edge exceeds the threshold + sheds.
/// Working at bucket granularity inherits the histogram's ~6% edge
/// resolution, which is the precision the quantiles already have.
pub fn window_events(spec: &SloSpec, window: &ClassWindow) -> (u64, u64) {
    let over: u64 = window
        .buckets
        .iter()
        .filter(|&&(idx, _)| bucket_value(idx as usize) > spec.threshold_ns)
        .map(|&(_, n)| n)
        .sum();
    (window.count + window.shed, over + window.shed)
}

/// Burn rate for `bad` out of `total` events against an objective:
/// `(bad/total) / budget_fraction`. Zero traffic burns nothing; a zero
/// budget (objective = 100%) makes any bad event an infinite burn,
/// clamped to a large finite sentinel so it serializes.
pub fn burn_rate(total: u64, bad: u64, budget_fraction: f64) -> f64 {
    if total == 0 || bad == 0 {
        return 0.0;
    }
    let bad_fraction = bad as f64 / total as f64;
    if budget_fraction <= 0.0 {
        return 1e9;
    }
    bad_fraction / budget_fraction
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn window(latencies_ns: &[u64], shed: u64) -> ClassWindow {
        let mut h = LatencyHistogram::new();
        for &ns in latencies_ns {
            h.record_ns(ns);
        }
        ClassWindow {
            class: "query".into(),
            span_ns: 1_000_000_000,
            count: h.count(),
            sum_ns: h.sum_ns() as u64,
            max_ns: h.max().as_nanos() as u64,
            buckets: h.nonzero_buckets(),
            shed,
        }
    }

    #[test]
    fn violations_and_sheds_both_count_as_bad() {
        let spec =
            SloSpec { class: SloClass::Query, objective_milli: 990, threshold_ns: 1_000_000 };
        // 3 fast, 2 slow, 1 shed.
        let w = window(&[10_000, 10_000, 10_000, 50_000_000, 50_000_000], 1);
        let (total, bad) = window_events(&spec, &w);
        assert_eq!(total, 6);
        assert_eq!(bad, 3);
        let burn = burn_rate(total, bad, spec.budget_fraction());
        // 50% bad against a 1% budget burns 50x.
        assert!((burn - 50.0).abs() < 1e-9, "burn = {burn}");
    }

    #[test]
    fn quiet_window_burns_nothing() {
        let spec = specs()[0];
        let (total, bad) = window_events(&spec, &window(&[], 0));
        assert_eq!((total, bad), (0, 0));
        assert_eq!(burn_rate(total, bad, spec.budget_fraction()), 0.0);
    }

    #[test]
    fn configure_overrides_only_named_classes() {
        // Serialized by being the only test that writes SPECS; reset after.
        let plan_before = specs()[1];
        configure(&[SloSpec { class: SloClass::Query, objective_milli: 900, threshold_ns: 77 }]);
        let now = specs();
        assert_eq!(now[0].objective_milli, 900);
        assert_eq!(now[0].threshold_ns, 77);
        assert_eq!(now[1], plan_before, "plan untouched");
        configure(&[default_specs()[0]]);
    }

    #[test]
    fn table_rows_sit_at_their_class_index() {
        assert_eq!(SloClass::ALL.map(|c| c as usize), [0, 1, 2, 3]);
        assert_eq!(SloClass::ALL.map(SloClass::name), ["query", "plan", "measures", "edits"]);
        for class in SloClass::ALL {
            assert_eq!(class.shed_counter(), format!("obs.slo.{}.shed", class.name()));
        }
    }
}
