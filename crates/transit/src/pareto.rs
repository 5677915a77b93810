//! Multi-criteria Pareto machinery over **(arrival time, transfers)**.
//!
//! A [`ParetoLabel`] is one point in criteria space; a [`Bag`] is the
//! classic multi-criteria RAPTOR container holding the undominated set.
//! Label `a` dominates `b` when it arrives no later *and* uses no more
//! transfers; a label equal to one already present is treated as dominated
//! (the bag holds distinct frontier points, first writer wins).
//!
//! The bag stays tiny — at most `max_boardings + 1` points — so inserts
//! are linear scans, not trees. Two process-wide counters meter the
//! frontier work: `raptor.bag_inserts` (labels that entered a bag) and
//! `raptor.labels_dominated` (labels rejected or evicted by dominance).

use staq_gtfs::time::Stime;
use staq_obs::Counter;

/// Labels accepted into a Pareto bag.
static BAG_INSERTS: Counter = Counter::new("raptor.bag_inserts");
/// Labels rejected on insert, plus existing labels evicted by a new
/// dominating label.
static LABELS_DOMINATED: Counter = Counter::new("raptor.labels_dominated");

/// One point on the (arrival, transfers) frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParetoLabel {
    /// Arrival time at the destination.
    pub arrival: Stime,
    /// Number of transfers (rides minus one; zero for walk-only and
    /// single-ride journeys).
    pub transfers: u8,
}

impl ParetoLabel {
    /// True when `self` dominates `other`: arrives no later with no more
    /// transfers. Equal labels dominate each other — callers treat an
    /// exact duplicate as dominated.
    #[inline]
    pub fn dominates(&self, other: &ParetoLabel) -> bool {
        self.arrival <= other.arrival && self.transfers <= other.transfers
    }
}

/// An undominated set of [`ParetoLabel`]s.
#[derive(Debug, Default)]
pub struct Bag {
    labels: Vec<ParetoLabel>,
}

impl Bag {
    /// An empty bag.
    pub fn new() -> Self {
        Bag { labels: Vec::new() }
    }

    /// Inserts `label` unless an existing label dominates it (duplicates
    /// count as dominated); evicts every existing label the newcomer
    /// dominates. Returns whether the label entered the bag.
    pub fn insert(&mut self, label: ParetoLabel) -> bool {
        if self.labels.iter().any(|l| l.dominates(&label)) {
            LABELS_DOMINATED.inc();
            return false;
        }
        let before = self.labels.len();
        self.labels.retain(|l| !label.dominates(l));
        LABELS_DOMINATED.add((before - self.labels.len()) as u64);
        self.labels.push(label);
        BAG_INSERTS.inc();
        true
    }

    /// True when exactly `label` is in the bag.
    pub fn contains(&self, label: &ParetoLabel) -> bool {
        self.labels.contains(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(arrival: u32, transfers: u8) -> ParetoLabel {
        ParetoLabel { arrival: Stime(arrival), transfers }
    }

    #[test]
    fn dominated_labels_are_rejected() {
        let mut bag = Bag::new();
        assert!(bag.insert(l(1000, 2)));
        assert!(!bag.insert(l(1000, 2)), "exact duplicate is dominated");
        assert!(!bag.insert(l(1100, 2)), "later same-transfers is dominated");
        assert!(!bag.insert(l(1100, 3)), "later with more transfers is dominated");
        assert_eq!(bag.labels.len(), 1);
    }

    #[test]
    fn dominating_label_evicts_the_dominated() {
        let mut bag = Bag::new();
        bag.insert(l(1200, 0));
        bag.insert(l(1000, 2));
        assert_eq!(bag.labels.len(), 2, "incomparable labels coexist");
        assert!(bag.insert(l(900, 0)), "dominates both");
        assert_eq!(bag.labels, &[l(900, 0)]);
        assert!(!bag.contains(&l(1200, 0)));
    }

    #[test]
    fn frontier_is_always_undominated() {
        let mut bag = Bag::new();
        for lab in [l(1500, 0), l(1200, 1), l(1100, 2), l(1300, 1), l(1050, 3)] {
            bag.insert(lab);
        }
        let f = &bag.labels;
        for a in f {
            for b in f {
                assert!(a == b || !a.dominates(b), "{a:?} dominates {b:?} in frontier");
            }
        }
    }
}
