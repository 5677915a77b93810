//! Tail-based slow-query capture: a bounded top-K store of complete
//! traces worth keeping.
//!
//! The span ring ([`trace`](crate::trace)) is drop-oldest — under load a
//! slow trace is overwritten within seconds, exactly when an operator
//! wants it most. This module adds a retention policy on top: when a
//! request *completes*, the serving layer calls [`maybe_promote`]; if
//! the request exceeded its class's slow threshold (or ended in an
//! error frame), every span of its trace is copied out of the ring into
//! a K-bounded store ordered by root duration. Promotion happens on the
//! worker thread that just finished the request — the only place where
//! the class, the outcome, and a still-fresh ring coexist — and costs
//! one ring scan, paid only by requests that are already slow.
//!
//! The store is fleet-mergeable the same way `TraceDump` is: each
//! backend reports its own top-K in the `OpsReport` frame and the shard
//! router folds them, deduping by trace id (in-process fleets share
//! this store, so the router takes one copy).

use crate::slo::SloClass;
use crate::trace::{OwnedSpan, TraceId};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Traces the store retains (per process).
pub const SLOW_KEEP: usize = 16;

/// Spans copied per promoted trace — a runaway span flood inside one
/// trace must not balloon the store.
pub const MAX_SPANS_PER_TRACE: usize = 256;

/// One retained trace: the promotion verdict plus the full span tree as
/// it stood in the ring at completion time.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowTrace {
    pub trace: TraceId,
    /// SLO class name of the request that completed the trace.
    pub class: String,
    /// The completed request's end-to-end duration.
    pub root_dur_ns: u64,
    /// True when promotion was triggered by an error outcome rather
    /// than (or in addition to) the latency threshold.
    pub is_error: bool,
    /// Unix time of promotion.
    pub captured_unix_ns: u64,
    pub spans: Vec<OwnedSpan>,
}

/// Traces promoted into the store (cumulative).
static PROMOTED: crate::registry::Counter = crate::registry::Counter::new("obs.slow.promoted");

/// The promotion threshold for `class`, in nanoseconds (25/50/25/100 ms
/// by default; an atomic in the class table, so the completion path
/// takes no lock until the threshold has actually been crossed).
pub fn threshold_ns(class: SloClass) -> u64 {
    class.row().slow_threshold_ns.load(Ordering::Relaxed)
}

/// Sets the promotion threshold for `class` at runtime.
pub fn set_threshold_ns(class: SloClass, ns: u64) {
    class.row().slow_threshold_ns.store(ns, Ordering::Relaxed);
}

static STORE: Mutex<Vec<SlowTrace>> = Mutex::new(Vec::new());

/// Considers a just-completed request for promotion. Cheap when the
/// request was fast and clean: two relaxed loads, no lock. No-op for
/// untraced requests (`trace == 0`).
pub fn maybe_promote(class: SloClass, trace: TraceId, root_dur_ns: u64, is_error: bool) {
    if trace == 0 || (!is_error && root_dur_ns < threshold_ns(class)) {
        return;
    }
    let mut spans: Vec<OwnedSpan> =
        crate::trace::dump(0).into_iter().filter(|s| s.trace == trace).collect();
    if spans.len() > MAX_SPANS_PER_TRACE {
        // Over the cap, keep the *longest* spans: the root and the
        // stage spans are what triage needs, and a flood of
        // microsecond leaves is exactly what the cap is for. (The
        // root completes last, so a ring-order truncate would drop
        // it first.)
        spans.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
        spans.truncate(MAX_SPANS_PER_TRACE);
        spans.sort_by_key(|s| (s.start_unix_ns, s.span));
    }
    let captured_unix_ns = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64;
    let entry = SlowTrace {
        trace,
        class: class.name().to_string(),
        root_dur_ns,
        is_error,
        captured_unix_ns,
        spans,
    };
    let mut store = STORE.lock().expect("slow-trace store poisoned");
    insert_top_k(&mut store, entry, SLOW_KEEP);
    PROMOTED.inc();
}

/// Inserts into a duration-descending top-K list, deduping by trace id
/// (a re-promoted trace keeps its longer incarnation). Shared with the
/// router's fleet merge.
pub fn insert_top_k(store: &mut Vec<SlowTrace>, entry: SlowTrace, keep: usize) {
    if let Some(existing) = store.iter_mut().find(|t| t.trace == entry.trace) {
        if entry.root_dur_ns > existing.root_dur_ns {
            *existing = entry;
        }
    } else {
        store.push(entry);
    }
    store.sort_by_key(|t| std::cmp::Reverse(t.root_dur_ns));
    store.truncate(keep);
}

/// The current top-K, slowest first.
pub fn dump() -> Vec<SlowTrace> {
    STORE.lock().expect("slow-trace store poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace: u64, dur: u64) -> SlowTrace {
        SlowTrace {
            trace,
            class: "query".into(),
            root_dur_ns: dur,
            is_error: false,
            captured_unix_ns: 0,
            spans: vec![],
        }
    }

    #[test]
    fn top_k_keeps_slowest_and_dedups_by_trace() {
        let mut store = Vec::new();
        for i in 1..=10u64 {
            insert_top_k(&mut store, entry(i, i * 100), 4);
        }
        let durs: Vec<u64> = store.iter().map(|t| t.root_dur_ns).collect();
        assert_eq!(durs, vec![1000, 900, 800, 700]);
        // Re-promoting a kept trace with a longer duration replaces it
        // in place rather than duplicating.
        insert_top_k(&mut store, entry(9, 5000), 4);
        assert_eq!(store[0].trace, 9);
        assert_eq!(store.iter().filter(|t| t.trace == 9).count(), 1);
        // A shorter re-promotion is ignored.
        insert_top_k(&mut store, entry(9, 1), 4);
        assert_eq!(store[0].root_dur_ns, 5000);
    }

    /// Records `root` with one `child` span and returns the trace id
    /// once both are visible in the ring. Sibling tests in this binary
    /// flip the global capture threshold under their own lock, so a
    /// recording attempt can be silently filtered — retry rather than
    /// touching the knob (writing it here would race *their* windows).
    fn record_tree(root: &'static str, child: &'static str) -> u64 {
        for _ in 0..200 {
            let trace;
            {
                let r = crate::trace::root_span(root);
                trace = r.context().trace;
                let _c = crate::trace::span(child);
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            let mine = crate::trace::dump(0).into_iter().filter(|s| s.trace == trace).count();
            if trace != 0 && mine == 2 {
                return trace;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("span tree never recorded: capture stayed filtered");
    }

    #[test]
    fn promotion_copies_the_span_tree_out_of_the_ring() {
        let trace = record_tree("test.slow.root", "test.slow.child");
        // Below threshold and clean: not promoted.
        set_threshold_ns(SloClass::Query, u64::MAX);
        maybe_promote(SloClass::Query, trace, 1_000, false);
        assert!(!dump().iter().any(|t| t.trace == trace));
        // Above threshold: promoted with both spans.
        set_threshold_ns(SloClass::Query, 1_000);
        maybe_promote(SloClass::Query, trace, u64::MAX, false);
        let store = dump();
        let kept = store.iter().find(|t| t.trace == trace).expect("promoted");
        assert_eq!(kept.class, "query");
        assert_eq!(kept.spans.len(), 2, "root + child captured");
        assert!(kept.spans.iter().any(|s| s.name == "test.slow.root"));
        set_threshold_ns(SloClass::Query, 25_000_000);
    }

    #[test]
    fn error_outcomes_promote_regardless_of_duration() {
        let trace = record_tree("test.slow.err", "test.slow.err_child");
        maybe_promote(SloClass::Plan, trace, 1, true);
        let store = dump();
        let kept = store.iter().find(|t| t.trace == trace).expect("error promoted");
        assert!(kept.is_error);
    }

    #[test]
    fn untraced_requests_never_promote() {
        let before = dump().len();
        maybe_promote(SloClass::Query, 0, u64::MAX, true);
        assert_eq!(dump().len(), before);
    }
}
