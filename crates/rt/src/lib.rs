//! # staq-rt
//!
//! Live timetable streaming over an [`AccessEngine`]: the GTFS-RT-shaped
//! half of the paper's "dynamic" claim. An [`RtEngine`] wraps a shared
//! engine with a **monotonic delta log** — every accepted [`Delta`] gets a
//! 1-based sequence number, and replaying the log onto a fresh engine
//! reproduces the live engine's state bit-for-bit (the equivalence the
//! root `rt_stream` / `scenario_edits` tests gate).
//!
//! Sequence numbers are what let replicas converge deterministically:
//!
//! * [`RtEngine::apply`] — assign the next sequence number and apply
//!   incrementally (the origin of an edit).
//! * [`RtEngine::apply_at`] — apply a delta *at* a sequence number
//!   (a replica following a broadcast): already-seen numbers are
//!   idempotently skipped, the next number is applied, and anything
//!   further ahead is a [`RtError::Gap`] telling the caller to resend the
//!   missing tail ([`RtEngine::log_tail`]).
//! * [`RtEngine::apply_batch`] — a contiguous run of deltas, the catch-up
//!   payload (`DeltaBatch` on the wire).
//!
//! The what-if half ([`RtEngine::what_if`]) forwards to
//! [`AccessEngine::what_if`], which evaluates each scenario over a copy of
//! the feed and leaves the log untouched.

use parking_lot::Mutex;
use staq_core::engine::{DeltaApplied, ScenarioOutcome};
use staq_core::AccessEngine;
use staq_gtfs::Delta;
use staq_obs::Counter;
use staq_synth::PoiCategory;
use std::sync::Arc;

/// Deltas accepted into the log (origin or replica side).
static DELTAS_APPLIED: Counter = Counter::new("rt.deltas_applied");
/// Engine result-cache invalidations caused by streamed deltas
/// (published category results dropped).
static INVAL_ENGINE: Counter = Counter::new("rt.invalidations.engine");
/// Access-artifact invalidations: zones whose hop trees were rebuilt.
static INVAL_ACCESS: Counter = Counter::new("rt.invalidations.access");
/// Pattern invalidations: deltas with a non-empty footprint (they changed
/// a call row), which make the engine rebuild its prepared RAPTOR network
/// from the changed feed. Alerts and no-op edits do not count.
static INVAL_PATTERN: Counter = Counter::new("rt.invalidations.pattern");

/// Why a streamed delta was not applied.
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    /// The caller is ahead of this log: it asked to apply `got` but the log
    /// only has `have` entries. Recover by resending `log_tail(have)`.
    Gap { have: u64, got: u64 },
    /// The engine rejected the delta (unknown id, bad geometry); the world
    /// and the log are untouched.
    Rejected(String),
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::Gap { have, got } => {
                write!(f, "sequence gap: have {have}, got {got}; resend from {}", have + 1)
            }
            RtError::Rejected(msg) => write!(f, "delta rejected: {msg}"),
        }
    }
}

impl std::error::Error for RtError {}

/// Receipt for one accepted (or idempotently skipped) delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Applied {
    /// The delta's position in the log (1-based).
    pub seq: u64,
    /// What applying it invalidated; `None` when the sequence number was
    /// already in the log and the delta was skipped as a replay.
    pub receipt: Option<DeltaApplied>,
}

/// A sequenced streaming front over a shared [`AccessEngine`].
///
/// The log mutex is held across the engine mutation so the log order *is*
/// the application order — concurrent publishers serialize here, queries
/// keep flowing through the engine's own read path.
pub struct RtEngine {
    engine: Arc<AccessEngine>,
    log: Mutex<Vec<Delta>>,
}

impl RtEngine {
    /// Wraps `engine` with an empty delta log.
    pub fn new(engine: Arc<AccessEngine>) -> Self {
        RtEngine { engine, log: Mutex::new(Vec::new()) }
    }

    /// The wrapped engine (queries go straight through).
    pub fn engine(&self) -> &Arc<AccessEngine> {
        &self.engine
    }

    /// Highest sequence number in the log (0 when empty).
    pub fn seq(&self) -> u64 {
        self.log.lock().len() as u64
    }

    /// Log entries *after* sequence number `after`, i.e. the catch-up tail
    /// a replica at `after` needs. `log_tail(0)` is the whole log.
    pub fn log_tail(&self, after: u64) -> Vec<Delta> {
        let log = self.log.lock();
        log.get(after as usize..).map_or_else(Vec::new, <[Delta]>::to_vec)
    }

    /// Applies `delta` as the next log entry, assigning its sequence
    /// number. This is [`apply_at`](Self::apply_at) with `seq = 0`.
    pub fn apply(&self, delta: Delta) -> Result<Applied, RtError> {
        self.apply_at(0, delta)
    }

    /// Applies `delta` at sequence number `seq` (0 = assign the next one).
    ///
    /// * `seq <= log length` — already seen: idempotent no-op (`receipt:
    ///   None`), so retried broadcasts cannot double-apply.
    /// * `seq == log length + 1` — the expected next entry: applied.
    /// * beyond that — [`RtError::Gap`].
    pub fn apply_at(&self, seq: u64, delta: Delta) -> Result<Applied, RtError> {
        let mut span = staq_obs::trace::span("rt.apply");
        let mut log = self.log.lock();
        let have = log.len() as u64;
        let seq = if seq == 0 { have + 1 } else { seq };
        span.attr("seq", seq);
        if seq <= have {
            return Ok(Applied { seq, receipt: None });
        }
        if seq > have + 1 {
            return Err(RtError::Gap { have, got: seq });
        }
        let receipt = self.engine.apply_delta(&delta).map_err(RtError::Rejected)?;
        log.push(delta);
        DELTAS_APPLIED.inc();
        INVAL_ENGINE.add(receipt.invalidated as u64);
        INVAL_ACCESS.add(receipt.zones_rebuilt as u64);
        if receipt.structural {
            INVAL_PATTERN.inc();
        }
        Ok(Applied { seq, receipt: Some(receipt) })
    }

    /// Applies a contiguous batch starting at `first_seq` (the `DeltaBatch`
    /// wire payload). Already-seen prefixes are skipped idempotently;
    /// returns the receipt of the last entry, or the first error.
    pub fn apply_batch(&self, first_seq: u64, deltas: &[Delta]) -> Result<Applied, RtError> {
        assert!(first_seq >= 1, "batches carry explicit sequence numbers");
        let mut last = Applied { seq: first_seq.saturating_sub(1), receipt: None };
        for (i, delta) in deltas.iter().enumerate() {
            last = self.apply_at(first_seq + i as u64, delta.clone())?;
        }
        Ok(last)
    }

    /// Evaluates counterfactual scenarios against the live engine — see
    /// [`AccessEngine::what_if`].
    pub fn what_if(
        &self,
        category: PoiCategory,
        scenarios: &[Vec<Delta>],
    ) -> Result<Vec<ScenarioOutcome>, RtError> {
        let mut span = staq_obs::trace::span("rt.whatif");
        span.attr("scenarios", scenarios.len() as u64);
        self.engine.what_if(category, scenarios).map_err(RtError::Rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_core::PipelineConfig;
    use staq_gtfs::model::TripId;
    use staq_ml::ModelKind;
    use staq_synth::{City, CityConfig};
    use staq_todam::TodamSpec;

    fn rt() -> RtEngine {
        let city = City::generate(&CityConfig::small(42));
        let config = PipelineConfig {
            beta: 0.2,
            model: ModelKind::Ols,
            todam: TodamSpec { per_hour: 3, ..Default::default() },
            ..Default::default()
        };
        RtEngine::new(Arc::new(AccessEngine::new(city, config)))
    }

    #[test]
    fn log_assigns_monotonic_seqs_and_skips_replays() {
        let rt = rt();
        let d1 = Delta::TripDelay { trip: TripId(0), delay_secs: 60 };
        let d2 = Delta::ServiceAlert { route: staq_gtfs::model::RouteId(0), message: "x".into() };
        let a1 = rt.apply(d1.clone()).expect("first delta");
        assert_eq!(a1.seq, 1);
        assert!(a1.receipt.expect("applied").structural);
        let a2 = rt.apply(d2.clone()).expect("second delta");
        assert_eq!(a2.seq, 2);
        assert!(!a2.receipt.expect("applied").structural);
        assert_eq!(rt.seq(), 2);
        assert_eq!(rt.log_tail(0), vec![d1.clone(), d2.clone()]);
        assert_eq!(rt.log_tail(1), vec![d2.clone()]);
        assert!(rt.log_tail(9).is_empty());

        // Replaying an already-logged seq is a no-op, not a double apply.
        let replay = rt.apply_at(1, d1).expect("replay ok");
        assert_eq!(replay, Applied { seq: 1, receipt: None });
        assert_eq!(rt.seq(), 2);

        // A future seq is a gap with a resend hint.
        let gap = rt.apply_at(5, d2).expect_err("gap");
        assert_eq!(gap, RtError::Gap { have: 2, got: 5 });
        assert!(gap.to_string().contains("resend from 3"), "{gap}");
    }

    #[test]
    fn rejected_deltas_leave_log_and_world_untouched() {
        let rt = rt();
        let bogus = Delta::TripCancel { trip: TripId(999_999) };
        let err = rt.apply(bogus).expect_err("unknown trip");
        assert!(matches!(err, RtError::Rejected(_)), "{err:?}");
        assert_eq!(rt.seq(), 0);
        assert!(rt.log_tail(0).is_empty());
    }

    #[test]
    fn batches_catch_a_replica_up_idempotently() {
        let origin = rt();
        let replica = rt();
        let deltas = vec![
            Delta::TripDelay { trip: TripId(1), delay_secs: 120 },
            Delta::TripCancel { trip: TripId(2) },
            Delta::TripDelay { trip: TripId(3), delay_secs: 300 },
        ];
        for d in &deltas {
            origin.apply(d.clone()).expect("origin apply");
        }
        // Replica saw only the first delta, then receives the full batch.
        replica.apply_at(1, deltas[0].clone()).expect("replica first");
        let last = replica.apply_batch(1, &deltas).expect("catch-up batch");
        assert_eq!(last.seq, 3);
        assert_eq!(replica.seq(), origin.seq());
        assert_eq!(replica.log_tail(0), origin.log_tail(0));
        // A batch from the future is a gap.
        let gap = replica.apply_batch(5, &deltas[..1]).expect_err("gap");
        assert_eq!(gap, RtError::Gap { have: 3, got: 5 });
    }
}
