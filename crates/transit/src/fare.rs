//! Fare model for the GAC's monetary component.
//!
//! West Midlands bus fares are flat per boarding with a daily cap; the model
//! reproduces that structure. Values are pounds sterling.

use serde::{Deserialize, Serialize};

/// A flat-fare-with-cap model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FareModel {
    /// Fare charged per boarding, £.
    pub per_ride: f64,
    /// Daily cap, £ (a day ticket price); boardings beyond the cap are free.
    pub day_cap: f64,
}

impl Default for FareModel {
    /// TfWM-like 2022 fares: £1.70 single, £4.00 day cap.
    fn default() -> Self {
        FareModel { per_ride: 1.70, day_cap: 4.00 }
    }
}

impl FareModel {
    /// Fare for a journey with `n_rides` boardings, £.
    pub fn fare(&self, n_rides: usize) -> f64 {
        (self.per_ride * n_rides as f64).min(self.day_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_ride_until_cap() {
        let f = FareModel::default();
        assert_eq!(f.fare(0), 0.0);
        assert!((f.fare(1) - 1.70).abs() < 1e-12);
        assert!((f.fare(2) - 3.40).abs() < 1e-12);
        assert!((f.fare(3) - 4.00).abs() < 1e-12, "capped");
        assert!((f.fare(10) - 4.00).abs() < 1e-12);
    }
}
