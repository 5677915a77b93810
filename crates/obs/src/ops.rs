//! The fleet-health report: windows + SLO burn + slow traces, in one
//! wire-friendly value.
//!
//! The registry only ever accumulates — `serve.request.query` is "since
//! boot", which answers capacity questions but not "what is p99 *right
//! now*". [`report`], which is what the serving layer answers an
//! `OpsReport` request with, owns a process-global ring of closed
//! *windows*: per tick, what each SLO class recorded since the previous
//! tick. Windows close *lazily* — a report call first checks whether at
//! least [`set_interval`]'s worth of wall time has passed since the last
//! close and ticks if so. No background thread; the poller's cadence
//! (a `staq-top` refresh, a dashboard scrape) drives the ring, and each
//! window carries its real `span_ns` so uneven polling never skews
//! rates. The shard router scatter-gathers one report per backend and
//! folds them with [`OpsReport::merge`].
//!
//! Burn rates follow the fast/slow multi-window convention (see
//! [`slo`](crate::slo)): the fast window pages on sudden breakage, the
//! slow window catches budget leaks. Both are sums over the same ring's
//! trailing windows.

use crate::hist::{add_sparse, bucket_value, sub_sparse};
use crate::slo::{self, SloClass, SloSpec};
use crate::slow::{self, SlowTrace};
use crate::snapshot::MetricsSnapshot;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

/// Default window width when nobody polls faster.
pub const DEFAULT_INTERVAL: Duration = Duration::from_secs(10);
/// Fast burn window: sudden-breakage alerting horizon.
pub const FAST_WINDOW: Duration = Duration::from_secs(5 * 60);
/// Slow burn window: budget-leak horizon.
pub const SLOW_WINDOW: Duration = Duration::from_secs(60 * 60);
/// Windows the ring retains — covers the slow window at the default
/// interval with headroom (6 h at 10 s ticks, less when polled faster).
pub const RING_WINDOWS: usize = 2048;

/// Per-class view of the most recently closed window. Carries the raw
/// delta buckets so fleet merges stay exact at bucket resolution;
/// quantiles are derived views.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassWindow {
    /// [`SloClass::name`] of the class.
    pub class: String,
    /// Wall time the window covers.
    pub span_ns: u64,
    /// Requests the class completed inside the window.
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    /// Sparse `(bucket, count)` latency pairs, window-local.
    pub buckets: Vec<(u32, u64)>,
    /// Admission sheds / deadline misses attributed to the class.
    pub shed: u64,
}

impl ClassWindow {
    fn idle(class: SloClass, span_ns: u64) -> ClassWindow {
        let class = class.name().to_string();
        ClassWindow { class, span_ns, count: 0, sum_ns: 0, max_ns: 0, buckets: Vec::new(), shed: 0 }
    }

    /// Completed requests per second over the window.
    pub fn rps(&self) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        self.count as f64 / (self.span_ns as f64 / 1e9)
    }

    /// Window-local latency quantile in nanoseconds (0 when idle).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        crate::hist::LatencyHistogram::from_sparse(&self.buckets, self.sum_ns as u128, self.max_ns)
            .percentile(q)
            .as_nanos() as u64
    }

    fn add_samples(&mut self, count: u64, sum_ns: u64, max_ns: u64, buckets: &[(u32, u64)]) {
        self.count += count;
        self.sum_ns = self.sum_ns.saturating_add(sum_ns);
        self.max_ns = self.max_ns.max(max_ns);
        add_sparse(&mut self.buckets, buckets);
    }

    /// Folds another shard's view of the same class and window.
    pub fn merge(&mut self, other: &ClassWindow) {
        debug_assert_eq!(self.class, other.class);
        self.span_ns = self.span_ns.max(other.span_ns);
        self.add_samples(other.count, other.sum_ns, other.max_ns, &other.buckets);
        self.shed += other.shed;
    }
}

/// Event counts for one burn-rate window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BurnWindow {
    /// Wall time actually covered (≤ the nominal window while the ring
    /// is still filling).
    pub span_ns: u64,
    /// All class events: completed requests + sheds.
    pub total: u64,
    /// Budget-consuming events: threshold violations + sheds.
    pub bad: u64,
}

impl BurnWindow {
    fn merge(&mut self, other: &BurnWindow) {
        self.span_ns = self.span_ns.max(other.span_ns);
        self.total += other.total;
        self.bad += other.bad;
    }
}

/// One class's objective and its current burn state.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    pub class: String,
    /// Good-fraction objective in thousandths (999 = 99.9%).
    pub objective_milli: u32,
    /// Latency threshold a good request finishes under.
    pub threshold_ns: u64,
    pub fast: BurnWindow,
    pub slow: BurnWindow,
    /// Cumulative sheds for the class since boot.
    pub shed_total: u64,
}

impl SloStatus {
    fn budget_fraction(&self) -> f64 {
        1.0 - (self.objective_milli.min(1000) as f64 / 1000.0)
    }

    /// Fast-window burn rate (1.0 = spending the budget exactly at the
    /// sustainable pace).
    pub fn burn_fast(&self) -> f64 {
        slo::burn_rate(self.fast.total, self.fast.bad, self.budget_fraction())
    }

    /// Slow-window burn rate.
    pub fn burn_slow(&self) -> f64 {
        slo::burn_rate(self.slow.total, self.slow.bad, self.budget_fraction())
    }

    /// Fraction of the slow-window error budget still unspent, in
    /// `[0, 1]`. An idle class has its whole budget.
    pub fn budget_remaining(&self) -> f64 {
        if self.slow.total == 0 {
            return 1.0;
        }
        let allowed = self.slow.total as f64 * self.budget_fraction();
        if allowed <= 0.0 {
            return if self.slow.bad == 0 { 1.0 } else { 0.0 };
        }
        (1.0 - self.slow.bad as f64 / allowed).clamp(0.0, 1.0)
    }

    fn merge(&mut self, other: &SloStatus) {
        debug_assert_eq!(self.class, other.class);
        self.fast.merge(&other.fast);
        self.slow.merge(&other.slow);
        self.shed_total += other.shed_total;
    }
}

/// The whole fleet-health answer, as one mergeable value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpsReport {
    /// Nominal tick interval of the reporting process.
    pub interval_ns: u64,
    /// Closed windows the ring currently holds.
    pub windows: u32,
    /// Unix time the report was assembled.
    pub generated_unix_ns: u64,
    /// Per-class view of the most recently closed window.
    pub classes: Vec<ClassWindow>,
    pub slo: Vec<SloStatus>,
    /// Slowest retained traces, duration-descending.
    pub slow: Vec<SlowTrace>,
}

impl OpsReport {
    /// Folds another backend's report in: class windows and burn counts
    /// sum, slow traces re-rank into one top-K. Reports from backends
    /// sharing a process (and therefore a registry) must not be merged —
    /// take one of them instead, exactly as with snapshot merges.
    pub fn merge(&mut self, other: &OpsReport) {
        self.interval_ns = self.interval_ns.max(other.interval_ns);
        self.windows = self.windows.max(other.windows);
        self.generated_unix_ns = self.generated_unix_ns.max(other.generated_unix_ns);
        for cw in &other.classes {
            match self.classes.iter_mut().find(|m| m.class == cw.class) {
                Some(mine) => mine.merge(cw),
                None => self.classes.push(cw.clone()),
            }
        }
        for st in &other.slo {
            match self.slo.iter_mut().find(|m| m.class == st.class) {
                Some(mine) => mine.merge(st),
                None => self.slo.push(st.clone()),
            }
        }
        for t in &other.slow {
            slow::insert_top_k(&mut self.slow, t.clone(), slow::SLOW_KEEP);
        }
    }

    /// The class window by name.
    pub fn class(&self, name: &str) -> Option<&ClassWindow> {
        self.classes.iter().find(|c| c.class == name)
    }

    /// The SLO status by class name.
    pub fn slo_for(&self, name: &str) -> Option<&SloStatus> {
        self.slo.iter().find(|s| s.class == name)
    }
}

/// What the ring keeps of a snapshot: the class histograms and shed
/// counters, nothing else of the registry.
fn class_sources(mut snap: MetricsSnapshot) -> MetricsSnapshot {
    snap.gauges = Vec::new();
    snap.counters.retain(|c| SloClass::ALL.iter().any(|k| k.shed_counter() == c.name));
    snap.histograms
        .retain(|h| SloClass::ALL.iter().any(|k| k.hist_names().contains(&h.name.as_str())));
    snap
}

/// A bounded ring of closed windows, newest last: per tick, the four
/// [`ClassWindow`]s (in [`SloClass::ALL`] order) that reports show and
/// burn rates sum over. Fed cumulative snapshots; plain data.
struct ClassRing {
    cap: usize,
    /// Class sources at the last tick — the next window's subtrahend.
    prev: MetricsSnapshot,
    windows: VecDeque<[ClassWindow; 4]>,
}

impl ClassRing {
    /// An empty ring of at most `cap` windows. The first tick closes
    /// against `baseline`: pass the current snapshot and pre-ring
    /// history stays out of window 1.
    fn new(cap: usize, baseline: MetricsSnapshot) -> Self {
        assert!(cap > 0, "a window ring needs at least one slot");
        ClassRing { cap, prev: class_sources(baseline), windows: VecDeque::new() }
    }

    /// Closes the current window — what each class recorded between the
    /// last tick's snapshot and `cur`, over `span_ns` of wall time —
    /// evicting the oldest at capacity. Each histogram is differenced on
    /// its own, then summed into its class; one absent from the last
    /// snapshot (registered mid-window) counts from zero.
    fn tick(&mut self, cur: MetricsSnapshot, span_ns: u64) {
        let cur = class_sources(cur);
        let windows = SloClass::ALL.map(|class| {
            let mut w = ClassWindow::idle(class, span_ns);
            let shed = |snap: &MetricsSnapshot| snap.counter(class.shed_counter()).unwrap_or(0);
            w.shed = shed(&cur).saturating_sub(shed(&self.prev));
            for h in class.hist_names().iter().filter_map(|name| cur.histogram(name)) {
                let Some(before) = self.prev.histogram(&h.name) else {
                    w.add_samples(h.count, h.sum_ns, h.max_ns, &h.buckets);
                    continue;
                };
                let grew = sub_sparse(&h.buckets, &before.buckets);
                // A window's max is not observable from cumulative
                // state: take the value of the highest bucket that grew,
                // clamped to the cumulative max.
                let max_ns = grew.iter().map(|&(idx, _)| bucket_value(idx as usize)).max();
                w.add_samples(
                    grew.iter().map(|&(_, n)| n).sum(),
                    h.sum_ns.saturating_sub(before.sum_ns),
                    max_ns.unwrap_or(0).min(h.max_ns),
                    &grew,
                );
            }
            w
        });
        if self.windows.len() == self.cap {
            self.windows.pop_front();
        }
        self.windows.push_back(windows);
        self.prev = cur;
    }

    /// The most recently closed window (idle, spanning nothing, before
    /// the first tick).
    fn last(&self) -> [ClassWindow; 4] {
        self.windows
            .back()
            .cloned()
            .unwrap_or_else(|| SloClass::ALL.map(|c| ClassWindow::idle(c, 0)))
    }

    /// Sums each class's events over the newest windows until at least
    /// `target_span_ns` of wall time is covered (or the ring runs out) —
    /// the sliding-window view burn rates are computed from.
    fn trailing(&self, specs: &[SloSpec; 4], target_span_ns: u64) -> [BurnWindow; 4] {
        let mut out = [BurnWindow::default(); 4];
        let mut covered = 0u64;
        for windows in self.windows.iter().rev() {
            for spec in specs {
                let class = spec.class as usize;
                let (total, bad) = slo::window_events(spec, &windows[class]);
                out[class].total += total;
                out[class].bad += bad;
            }
            covered = covered.saturating_add(windows[0].span_ns);
            if covered >= target_span_ns {
                break;
            }
        }
        out.map(|burn| BurnWindow { span_ns: covered, ..burn })
    }
}

struct OpsState {
    interval: Duration,
    ring: ClassRing,
    last_tick: Instant,
}

static OPS: Mutex<Option<OpsState>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut OpsState) -> R) -> R {
    let mut guard = OPS.lock().expect("ops state poisoned");
    let state = guard.get_or_insert_with(|| OpsState {
        interval: DEFAULT_INTERVAL,
        ring: ClassRing::new(RING_WINDOWS, crate::registry::snapshot()),
        last_tick: Instant::now(),
    });
    f(state)
}

/// Sets the nominal window width (process-global; 10 s default). Tests
/// and dashboards polling faster than the interval see one window per
/// interval; polling slower yields wider windows with honest `span_ns`.
pub fn set_interval(interval: Duration) {
    with_state(|s| s.interval = interval.max(Duration::from_millis(1)));
}

fn tick_locked(state: &mut OpsState) {
    let span_ns = state.last_tick.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    state.ring.tick(crate::registry::snapshot(), span_ns);
    state.last_tick = Instant::now();
}

/// Closes the current window unconditionally. Reports tick lazily;
/// tests tick explicitly to make window boundaries deterministic.
pub fn force_tick() {
    with_state(tick_locked);
}

/// Assembles the process-local report, lazily closing a window first if
/// the interval has elapsed, and refreshes the `obs.slo.*` gauge family
/// from it. `slow_limit` caps the traces included.
pub fn report(slow_limit: usize) -> OpsReport {
    let specs = slo::specs();
    let (interval_ns, windows, classes, fast, slow_w) = with_state(|state| {
        if state.last_tick.elapsed() >= state.interval {
            tick_locked(state);
        }
        let ring = &state.ring;
        (
            state.interval.as_nanos() as u64,
            ring.windows.len() as u32,
            ring.last(),
            ring.trailing(&specs, FAST_WINDOW.as_nanos() as u64),
            ring.trailing(&specs, SLOW_WINDOW.as_nanos() as u64),
        )
    });
    let mut slo_status = Vec::with_capacity(specs.len());
    for spec in &specs {
        let st = SloStatus {
            class: spec.class.name().to_string(),
            objective_milli: spec.objective_milli,
            threshold_ns: spec.threshold_ns,
            fast: fast[spec.class as usize],
            slow: slow_w[spec.class as usize],
            shed_total: slo::shed_count(spec.class),
        };
        let row = spec.class.row();
        row.burn_fast_milli.set((st.burn_fast() * 1000.0).min(u64::MAX as f64) as u64);
        row.burn_slow_milli.set((st.burn_slow() * 1000.0).min(u64::MAX as f64) as u64);
        row.budget_remaining_milli.set((st.budget_remaining() * 1000.0) as u64);
        slo_status.push(st);
    }
    let mut slow_traces = slow::dump();
    slow_traces.truncate(slow_limit);
    let generated_unix_ns =
        SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default().as_nanos();
    OpsReport {
        interval_ns,
        windows,
        generated_unix_ns: generated_unix_ns as u64,
        classes: classes.into(),
        slo: slo_status,
        slow: slow_traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cw(class: &str, count: u64, shed: u64, buckets: Vec<(u32, u64)>) -> ClassWindow {
        ClassWindow {
            class: class.into(),
            span_ns: 1_000_000_000,
            count,
            sum_ns: count * 1000,
            max_ns: 1000,
            buckets,
            shed,
        }
    }

    #[test]
    fn merge_sums_classes_and_reranks_slow_traces() {
        let t = |trace, dur| SlowTrace {
            trace,
            class: "query".into(),
            root_dur_ns: dur,
            is_error: false,
            captured_unix_ns: 0,
            spans: vec![],
        };
        let mut a = OpsReport {
            interval_ns: 10,
            windows: 2,
            generated_unix_ns: 5,
            classes: vec![cw("query", 10, 1, vec![(100, 10)])],
            slo: vec![SloStatus {
                class: "query".into(),
                objective_milli: 999,
                threshold_ns: 1000,
                fast: BurnWindow { span_ns: 60, total: 10, bad: 1 },
                slow: BurnWindow { span_ns: 600, total: 100, bad: 2 },
                shed_total: 1,
            }],
            slow: vec![t(1, 500)],
        };
        let b = OpsReport {
            interval_ns: 20,
            windows: 1,
            generated_unix_ns: 9,
            classes: vec![cw("query", 5, 2, vec![(100, 3), (200, 2)]), cw("plan", 7, 0, vec![])],
            slo: vec![SloStatus {
                class: "query".into(),
                objective_milli: 999,
                threshold_ns: 1000,
                fast: BurnWindow { span_ns: 55, total: 5, bad: 0 },
                slow: BurnWindow { span_ns: 590, total: 50, bad: 1 },
                shed_total: 2,
            }],
            slow: vec![t(2, 900), t(1, 100)],
        };
        a.merge(&b);
        let q = a.class("query").unwrap();
        assert_eq!(q.count, 15);
        assert_eq!(q.shed, 3);
        assert_eq!(q.buckets, vec![(100, 13), (200, 2)]);
        assert!(a.class("plan").is_some(), "new classes union in");
        let s = a.slo_for("query").unwrap();
        assert_eq!((s.fast.total, s.fast.bad), (15, 1));
        assert_eq!((s.slow.total, s.slow.bad), (150, 3));
        assert_eq!(s.shed_total, 3);
        // Slow traces re-rank; trace 1 keeps its longer incarnation.
        assert_eq!(a.slow[0].trace, 2);
        assert_eq!(a.slow[1].root_dur_ns, 500);
    }

    #[test]
    fn burn_and_budget_math() {
        let st = SloStatus {
            class: "query".into(),
            objective_milli: 990, // 1% budget
            threshold_ns: 0,
            fast: BurnWindow { span_ns: 1, total: 100, bad: 2 },
            slow: BurnWindow { span_ns: 1, total: 1000, bad: 5 },
            shed_total: 0,
        };
        assert!((st.burn_fast() - 2.0).abs() < 1e-9);
        assert!((st.burn_slow() - 0.5).abs() < 1e-9);
        // 5 bad of 10 allowed: half the budget left.
        assert!((st.budget_remaining() - 0.5).abs() < 1e-9);
        let idle = SloStatus { fast: BurnWindow::default(), slow: BurnWindow::default(), ..st };
        assert_eq!(idle.burn_fast(), 0.0);
        assert_eq!(idle.budget_remaining(), 1.0);
    }

    #[test]
    fn class_window_quantiles_come_from_buckets() {
        let mut h = crate::hist::LatencyHistogram::new();
        for _ in 0..99 {
            h.record_ns(1_000);
        }
        h.record_ns(8_000_000);
        let w = ClassWindow {
            class: "query".into(),
            span_ns: 2_000_000_000,
            count: h.count(),
            sum_ns: h.sum_ns() as u64,
            max_ns: 8_000_000,
            buckets: h.nonzero_buckets(),
            shed: 0,
        };
        assert!((w.rps() - 50.0).abs() < 1e-9);
        assert!(w.quantile_ns(50.0) <= 1_100);
        assert!(w.quantile_ns(99.9) >= 7_000_000);
    }

    /// A scripted registry: cumulative histograms and counters by name.
    #[derive(Default)]
    struct Script {
        hists: BTreeMap<&'static str, crate::hist::LatencyHistogram>,
        counters: BTreeMap<&'static str, u64>,
    }

    type Records = &'static [(&'static str, &'static [u64])];
    type Adds = &'static [(&'static str, u64)];

    impl Script {
        /// Records samples and counter increments; returns the snapshot.
        fn step(&mut self, hists: Records, counters: Adds) -> MetricsSnapshot {
            use crate::snapshot::{CounterSample, GaugeSample, HistogramSample};
            for &(name, samples) in hists {
                let h = self.hists.entry(name).or_default();
                samples.iter().for_each(|&ns| h.record_ns(ns));
            }
            for &(name, add) in counters {
                *self.counters.entry(name).or_default() += add;
            }
            let counter = |(n, &value): (&&str, &u64)| CounterSample { name: n.to_string(), value };
            MetricsSnapshot {
                counters: self.counters.iter().map(counter).collect(),
                gauges: vec![GaugeSample { name: "serve.workers".into(), value: 8 }],
                histograms: self
                    .hists
                    .iter()
                    .map(|(n, h)| HistogramSample::from_histogram(n, h))
                    .collect(),
            }
        }
    }

    /// `(class index, count, sum_ns, max_ns, buckets, shed)` of a class
    /// that was not idle in the last window.
    type Busy = (usize, u64, u64, u64, &'static [(u32, u64)], u64);
    /// Per class `(span_s, total, bad)`.
    type Burn = [(u64, u64, u64); 4];
    /// One tick: `(span_s, samples, counter adds)`, then what it must
    /// leave: `(windows held, busy classes, burn over a trailing 150 s,
    /// burn over a trailing 3600 s)`.
    type Tick = (u64, Records, Adds, usize, &'static [Busy], Burn, Burn);

    // Every expected value below was printed by the previous design — a
    // ring of whole-registry snapshot deltas, merged over the trailing
    // span and read per class — run on this script at the commit before
    // the ring held class windows.
    #[test]
    fn scripted_series_matches_the_whole_registry_ring() {
        const Q: &str = "serve.request.query";
        const PLAN: &str = "serve.request.plan";
        const MEAS: &str = "serve.request.measures";
        const ADD_POI: &str = "serve.request.add_poi";
        const APPLY: &str = "serve.request.apply_delta";
        const BATCH: &str = "serve.request.delta_batch";
        const S: u64 = 1_000_000_000;
        let specs = [
            SloSpec { class: SloClass::Query, objective_milli: 999, threshold_ns: 50_000_000 },
            SloSpec { class: SloClass::Plan, objective_milli: 999, threshold_ns: 100_000_000 },
            SloSpec { class: SloClass::Measures, objective_milli: 999, threshold_ns: 50_000_000 },
            SloSpec { class: SloClass::Edits, objective_milli: 995, threshold_ns: 250_000_000 },
        ];
        let ticks: [Tick; 6] = [
            // Quiet: nothing moved since the baseline.
            (60, &[], &[], 1, &[], [(60, 0, 0); 4], [(60, 0, 0); 4]),
            // Burst: two of five queries over the 50 ms threshold; the
            // window holds only its own samples, not the 1-2 us history.
            (
                60,
                &[(Q, &[50_000, 50_000, 50_000, 80_000_000, 80_000_000])],
                &[("serve.requests", 5)],
                2,
                &[(0, 5, 160_150_000, 79_691_776, &[(200, 3), (371, 2)], 0)],
                [(120, 5, 2), (120, 0, 0), (120, 0, 0), (120, 0, 0)],
                [(120, 5, 2), (120, 0, 0), (120, 0, 0), (120, 0, 0)],
            ),
            // Sheds only; plan's counter is first seen here.
            (
                120,
                &[],
                &[("obs.slo.query.shed", 3), ("obs.slo.plan.shed", 2)],
                3,
                &[(0, 0, 0, 0, &[], 3), (1, 0, 0, 0, &[], 2)],
                [(180, 8, 5), (180, 2, 2), (180, 0, 0), (180, 0, 0)],
                [(240, 8, 5), (240, 2, 2), (240, 0, 0), (240, 0, 0)],
            ),
            // Histograms first seen mid-series count from zero and keep
            // their exact max.
            (
                60,
                &[(PLAN, &[120_000_000, 1_000_000]), (MEAS, &[1_000, 1_000, 1_000])],
                &[],
                4,
                &[
                    (1, 2, 121_000_000, 120_000_000, &[(270, 1), (380, 1)], 0),
                    (2, 3, 3_000, 1_000, &[(111, 3)], 0),
                ],
                [(180, 3, 3), (180, 4, 3), (180, 3, 0), (180, 0, 0)],
                [(300, 8, 5), (300, 4, 3), (300, 3, 0), (300, 0, 0)],
            ),
            // More ticks than slots: the quiet window rotates out. A
            // differenced histogram's max is its highest grown bucket.
            (
                60,
                &[(MEAS, &[8_000_000, 8_000_000, 8_000_000]), (Q, &[1_000])],
                &[("obs.slo.edits.shed", 1)],
                4,
                &[
                    (0, 1, 1_000, 992, &[(111, 1)], 0),
                    (2, 3, 24_000_000, 7_864_320, &[(318, 3)], 0),
                    (3, 0, 0, 0, &[], 1),
                ],
                [(240, 4, 3), (240, 4, 3), (240, 6, 0), (240, 1, 1)],
                [(300, 9, 5), (300, 4, 3), (300, 6, 0), (300, 1, 1)],
            ),
            // Edits sums three histograms, two of them new; the burst
            // window has rotated out of both trailing views.
            (
                60,
                &[
                    (ADD_POI, &[5_000_000, 400_000_000]),
                    (BATCH, &[2_000_000]),
                    (APPLY, &[450_000_000]),
                    (Q, &[70_000_000]),
                ],
                &[],
                4,
                &[
                    (0, 1, 70_000_000, 67_108_864, &[(368, 1)], 0),
                    (3, 4, 857_000_000, 450_000_000, &[(286, 1), (307, 1), (407, 1), (410, 1)], 0),
                ],
                [(180, 2, 1), (180, 2, 1), (180, 6, 0), (180, 5, 3)],
                [(300, 5, 4), (300, 4, 3), (300, 6, 0), (300, 5, 3)],
            ),
        ];
        let mut script = Script::default();
        let baseline = script.step(
            &[(Q, &[1_000, 2_000]), (ADD_POI, &[2_000_000])],
            &[("obs.slo.query.shed", 10), ("serve.requests", 7)],
        );
        let mut ring = ClassRing::new(4, baseline);
        for (span_s, hists, counters, len, busy, fast, slow) in ticks {
            ring.tick(script.step(hists, counters), span_s * S);
            assert_eq!(ring.windows.len(), len);
            for (i, got) in ring.last().into_iter().enumerate() {
                let mut want = ClassWindow::idle(SloClass::ALL[i], span_s * S);
                if let Some(&(_, count, sum_ns, max_ns, buckets, shed)) =
                    busy.iter().find(|b| b.0 == i)
                {
                    want = ClassWindow {
                        count,
                        sum_ns,
                        max_ns,
                        buckets: buckets.into(),
                        shed,
                        ..want
                    };
                }
                assert_eq!(got, want, "last window after the {span_s} s tick at len {len}");
            }
            for (target_s, want) in [(150, fast), (3600, slow)] {
                let got = ring.trailing(&specs, target_s * S);
                assert_eq!(got.map(|b| (b.span_ns / S, b.total, b.bad)), want, "{target_s} s burn");
            }
        }
    }

    // The global report path is exercised end-to-end (with real traffic
    // and a fleet) by the root `tests/ops.rs`; here just pin the lazy
    // tick + shape contract.
    #[test]
    fn report_shape_is_stable() {
        set_interval(Duration::from_secs(3600)); // no lazy tick mid-test
        let r = report(4);
        assert_eq!(r.classes.len(), 4);
        assert_eq!(r.slo.len(), 4);
        for class in ["query", "plan", "measures", "edits"] {
            assert!(r.class(class).is_some());
            assert!(r.slo_for(class).is_some());
        }
        assert!(r.slow.len() <= 4);
        assert!(r.generated_unix_ns > 0);
    }
}
