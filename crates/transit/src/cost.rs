//! Access cost models: JT and GAC (paper §III-C).
//!
//! JT: `c(o, d, t) = AT(d) − t`, in minutes.
//!
//! GAC (Eq. 1): `λ₁·TAN + λ₂·WT + λ₃·IVT + λ₄·ET + TP + FARE/VOT`, in
//! *generalized minutes*. Weights follow the UK Department for Transport's
//! TAG Unit M3.2 public-transport assignment conventions the paper cites:
//! walking and waiting are perceived as roughly twice as onerous as
//! in-vehicle time, and every interchange carries a fixed time penalty.

use crate::fare::FareModel;
use crate::journey::Journey;
use serde::{Deserialize, Serialize};

/// Which access cost a pipeline computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostKind {
    /// Journey time in minutes.
    Jt,
    /// Generalized access cost in generalized minutes.
    Gac,
}

impl std::fmt::Display for CostKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CostKind::Jt => "JT",
            CostKind::Gac => "GAC",
        })
    }
}

/// GAC weighting factors (all non-negative, per Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GacWeights {
    /// λ₁: access (time to reach the network, TAN).
    pub lambda_access: f64,
    /// λ₂: waiting time (WT).
    pub lambda_wait: f64,
    /// λ₃: in-vehicle time (IVT).
    pub lambda_ivt: f64,
    /// λ₄: egress time (ET).
    pub lambda_egress: f64,
    /// Transfer penalty TP, minutes per interchange.
    pub transfer_penalty_min: f64,
    /// Value of time VOT, £ per minute (TAG non-work ≈ £9.95/h).
    pub vot_per_min: f64,
    /// Fare model supplying FARE.
    pub fares: FareModel,
}

impl Default for GacWeights {
    /// TAG M3.2-style defaults: walk ×2.0, wait ×2.5, IVT ×1.0, egress ×2.0,
    /// 10 generalized minutes per interchange, VOT £9.95/h.
    fn default() -> Self {
        GacWeights {
            lambda_access: 2.0,
            lambda_wait: 2.5,
            lambda_ivt: 1.0,
            lambda_egress: 2.0,
            transfer_penalty_min: 10.0,
            vot_per_min: 9.95 / 60.0,
            fares: FareModel::default(),
        }
    }
}

impl GacWeights {
    /// Validates non-negativity; a negative weight silently inverts the
    /// meaning of a cost component.
    pub fn validate(&self) -> Result<(), String> {
        let vals = [
            self.lambda_access,
            self.lambda_wait,
            self.lambda_ivt,
            self.lambda_egress,
            self.transfer_penalty_min,
        ];
        if vals.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err("GAC weights must be finite and non-negative".into());
        }
        if self.vot_per_min.is_nan() || self.vot_per_min <= 0.0 {
            return Err("value of time must be positive".into());
        }
        Ok(())
    }
}

/// Computes one access cost for a journey, in (generalized) minutes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessCost {
    pub kind: CostKind,
    pub weights: GacWeights,
}

impl AccessCost {
    /// The `kind` cost model with default TAG weights (which JT ignores).
    pub fn of(kind: CostKind) -> Self {
        AccessCost { kind, weights: GacWeights::default() }
    }

    /// Journey-time cost model.
    pub fn jt() -> Self {
        AccessCost::of(CostKind::Jt)
    }

    /// Generalized-access-cost model with default TAG weights.
    pub fn gac() -> Self {
        AccessCost::of(CostKind::Gac)
    }

    /// Cost of `journey`, minutes (JT) or generalized minutes (GAC).
    pub fn cost(&self, journey: &Journey) -> f64 {
        match self.kind {
            CostKind::Jt => journey.jt_secs() as f64 / 60.0,
            CostKind::Gac => self.gac_cost(journey),
        }
    }

    fn gac_cost(&self, j: &Journey) -> f64 {
        let w = &self.weights;
        if j.is_walk_only() {
            // A walk-only trip has no wait/ride/fare; the walk *is* the
            // journey and is weighted as access time.
            return w.lambda_access * (j.jt_secs() as f64 / 60.0);
        }
        let tan = j.access_walk_secs() as f64 / 60.0;
        let wt = j.wait_secs() as f64 / 60.0;
        let ivt = j.in_vehicle_secs() as f64 / 60.0;
        let et = j.egress_walk_secs() as f64 / 60.0;
        // Interchange walking is perceived like access walking.
        let twalk = j.transfer_walk_secs() as f64 / 60.0;
        let tp = w.transfer_penalty_min * j.n_transfers() as f64;
        let fare = w.fares.fare(j.n_rides());
        w.lambda_access * (tan + twalk)
            + w.lambda_wait * wt
            + w.lambda_ivt * ivt
            + w.lambda_egress * et
            + tp
            + fare / w.vot_per_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::Leg;
    use staq_gtfs::model::{RouteId, StopId, TripId};
    use staq_gtfs::time::Stime;

    fn simple_ride(depart: Stime, walk1: u32, wait: u32, ride: u32, walk2: u32) -> Journey {
        let mut t = depart;
        let mut legs = Vec::new();
        legs.push(Leg::Walk { secs: walk1, to_stop: Some(StopId(0)) });
        t = t.plus(walk1);
        legs.push(Leg::Wait { secs: wait, at_stop: StopId(0) });
        t = t.plus(wait);
        legs.push(Leg::Ride {
            trip: TripId(0),
            route: RouteId(0),
            from_stop: StopId(0),
            to_stop: StopId(1),
            board: t,
            alight: t.plus(ride),
        });
        t = t.plus(ride);
        legs.push(Leg::Walk { secs: walk2, to_stop: None });
        t = t.plus(walk2);
        Journey { depart, arrive: t, legs }
    }

    #[test]
    fn jt_cost_is_minutes() {
        let j = simple_ride(Stime::hms(8, 0, 0), 120, 180, 600, 60);
        assert!((AccessCost::jt().cost(&j) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn gac_matches_hand_computation() {
        let j = simple_ride(Stime::hms(8, 0, 0), 120, 180, 600, 60);
        let w = GacWeights::default();
        let expected = 2.0 * 2.0       // access 2min * λ1
            + 2.5 * 3.0                // wait 3min * λ2
            + 1.0 * 10.0               // ivt
            + 2.0 * 1.0                // egress
            + 0.0                      // no transfers
            + 1.70 / w.vot_per_min; // one fare
        assert!((AccessCost::gac().cost(&j) - expected).abs() < 1e-9);
    }

    #[test]
    fn gac_walk_only_weighted_as_access() {
        let j = Journey::walk_only(Stime::hms(8, 0, 0), 600);
        let got = AccessCost::gac().cost(&j);
        assert!((got - 2.0 * 10.0).abs() < 1e-12);
    }

    #[test]
    fn gac_exceeds_jt_for_transit_trips() {
        // Generalized minutes weight everything >= 1x, plus fare: GAC > JT.
        let j = simple_ride(Stime::hms(8, 0, 0), 300, 300, 1200, 300);
        assert!(AccessCost::gac().cost(&j) > AccessCost::jt().cost(&j));
    }

    #[test]
    fn transfer_penalty_applies_per_interchange() {
        let mut j = simple_ride(Stime::hms(8, 0, 0), 60, 60, 300, 60);
        // Splice in a second ride.
        let t = j.arrive;
        j.legs.push(Leg::Ride {
            trip: TripId(1),
            route: RouteId(1),
            from_stop: StopId(1),
            to_stop: StopId(2),
            board: t,
            alight: t.plus(300),
        });
        j.arrive = t.plus(300);
        let one_ride = simple_ride(Stime::hms(8, 0, 0), 60, 60, 300, 60);
        let delta = AccessCost::gac().cost(&j) - AccessCost::gac().cost(&one_ride);
        let w = GacWeights::default();
        // Extra = 5min IVT + TP + extra fare.
        let expected = 5.0 + w.transfer_penalty_min + 1.70 / w.vot_per_min;
        assert!((delta - expected).abs() < 1e-9, "delta {delta} expected {expected}");
    }

    #[test]
    fn weights_validation() {
        let mut w = GacWeights::default();
        assert!(w.validate().is_ok());
        w.lambda_wait = -1.0;
        assert!(w.validate().is_err());
        let w2 = GacWeights { vot_per_min: 0.0, ..Default::default() };
        assert!(w2.validate().is_err());
    }
}
