//! Start-time sampling (paper §III-C).
//!
//! `R` is a global set of random start times drawn from the interval `v` at
//! a per-hour rate. For each `(z_i, p_j)` pair with `α_ij > 0`, a subset
//! `r^{i,j} ⊆ R` is sampled — each element kept independently with
//! probability `min(1, γ·α_ij)`, so expected trip counts are proportional
//! to attractiveness ("r^{i,j} is proportional to α_ij and is governed by a
//! probability function").

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use staq_gtfs::time::{Stime, TimeInterval};

/// Draws the global start-time set `R`: `per_hour` uniform samples per hour
/// of `v`, sorted ascending. A degenerate interval (`start == end`) spans
/// zero hours, so it yields the empty set — sampling `start.0..end.0`
/// unconditionally used to panic on the empty range.
pub fn draw_start_times(v: &TimeInterval, per_hour: u32, seed: u64) -> Vec<Stime> {
    if v.start.0 >= v.end.0 {
        return Vec::new();
    }
    let n = ((v.duration_hours() * per_hour as f64).round() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_7135);
    let mut times: Vec<Stime> =
        (0..n).map(|_| Stime(rng.random_range(v.start.0..v.end.0))).collect();
    times.sort_unstable();
    times
}

/// Keep-probability for one `(z_i, p_j)` pair: `min(1, gamma * alpha)`.
/// `gamma` is the trip-budget multiplier — larger values sample more of `R`
/// per unit attractiveness.
#[inline]
fn keep_probability(alpha: f64, gamma: f64) -> f64 {
    (gamma * alpha).clamp(0.0, 1.0)
}

/// Thins `R` for one pair: binomial selection at [`keep_probability`],
/// deterministic in `(seed, zone, poi)` so construction order (and
/// parallelism) never changes the matrix.
pub fn thin_for_pair(
    times: &[Stime],
    alpha: f64,
    gamma: f64,
    seed: u64,
    zone: u32,
    poi: u32,
) -> Vec<Stime> {
    let p = keep_probability(alpha, gamma);
    if p <= 0.0 {
        return Vec::new();
    }
    if p >= 1.0 {
        return times.to_vec();
    }
    // Pair-specific stream: SplitMix-style mix of (seed, zone, poi).
    let mix = seed
        .wrapping_add((zone as u64).wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add((poi as u64).wrapping_mul(0xBF58476D1CE4E5B9));
    let mut rng = StdRng::seed_from_u64(mix);
    times.iter().copied().filter(|_| rng.random_range(0.0..1.0) < p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn am() -> TimeInterval {
        TimeInterval::am_peak()
    }

    #[test]
    fn draws_rate_times_hours_samples() {
        let r = draw_start_times(&am(), 5, 1);
        assert_eq!(r.len(), 10, "5/hr over a 2h window");
        assert!(r.windows(2).all(|w| w[0] <= w[1]));
        assert!(r.iter().all(|&t| am().contains(t)));
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(draw_start_times(&am(), 7, 9), draw_start_times(&am(), 7, 9));
        assert_ne!(draw_start_times(&am(), 7, 9), draw_start_times(&am(), 7, 10));
    }

    #[test]
    fn degenerate_interval_draws_nothing() {
        let t = Stime::hms(8, 0, 0);
        let point = TimeInterval { start: t, end: t, ..am() };
        assert!(draw_start_times(&point, 5, 1).is_empty());
    }

    #[test]
    fn keep_probability_clamps() {
        assert_eq!(keep_probability(0.0, 15.0), 0.0);
        assert_eq!(keep_probability(0.5, 15.0), 1.0);
        assert!((keep_probability(0.01, 15.0) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn thinning_is_proportional() {
        let times = draw_start_times(&am(), 300, 2); // 600 samples
        let small = thin_for_pair(&times, 0.005, 15.0, 1, 0, 0); // p = 0.075
        let large = thin_for_pair(&times, 0.04, 15.0, 1, 0, 1); // p = 0.6
        let ps = small.len() as f64 / times.len() as f64;
        let pl = large.len() as f64 / times.len() as f64;
        assert!((ps - 0.075).abs() < 0.04, "observed {ps}");
        assert!((pl - 0.6).abs() < 0.08, "observed {pl}");
    }

    #[test]
    fn zero_alpha_yields_no_trips() {
        let times = draw_start_times(&am(), 5, 3);
        assert!(thin_for_pair(&times, 0.0, 15.0, 1, 2, 3).is_empty());
    }

    #[test]
    fn saturated_alpha_keeps_everything() {
        let times = draw_start_times(&am(), 5, 3);
        assert_eq!(thin_for_pair(&times, 0.5, 15.0, 1, 2, 3), times);
    }

    #[test]
    fn pair_streams_are_independent_and_reproducible() {
        let times = draw_start_times(&am(), 50, 4);
        let a1 = thin_for_pair(&times, 0.02, 15.0, 9, 5, 7);
        let a2 = thin_for_pair(&times, 0.02, 15.0, 9, 5, 7);
        let b = thin_for_pair(&times, 0.02, 15.0, 9, 5, 8);
        assert_eq!(a1, a2);
        assert_ne!(a1, b, "different pairs draw different subsets");
    }
}
