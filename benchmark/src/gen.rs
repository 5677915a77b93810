//! Seeded input generation: the PRNG, the Zipf sampler, the open-loop
//! send schedule and the request bodies the workloads put on the wire.
//!
//! The *population* a workload draws from (the city, which zones are
//! hot, which routes exist) is fixed; `--seed` picks the draws. Runs of
//! different seeds therefore sample one distribution, and the spread
//! between them is measurement noise, not a different experiment.

use staq_geom::Point;
use staq_synth::PoiCategory;
use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable, and independent of the vendored `rand`
/// stand-in, so a seed means the same inputs on every checkout.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Open-loop schedule: operation `i` is due at `start + i * period`
/// whatever happened to the ones before it, so a stall delays later
/// sends without thinning them out, and latency timed from the due time
/// counts the wait the stall imposed.
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    sent: u32,
}

impl OpenLoop {
    pub fn new(start: Instant, period: Duration) -> Self {
        OpenLoop { start, period, sent: 0 }
    }

    /// Due time of the next operation; advances the schedule.
    pub fn next_due(&mut self) -> Instant {
        let due = self.start + self.period * self.sent;
        self.sent += 1;
        due
    }
}

/// How late `now` is against `due` (zero when early or on time).
pub fn lateness(due: Instant, now: Instant) -> Duration {
    now.saturating_duration_since(due)
}

pub fn category_slug(c: PoiCategory) -> &'static str {
    match c {
        PoiCategory::School => "school",
        PoiCategory::Hospital => "hospital",
        PoiCategory::VaxCenter => "vax_center",
        PoiCategory::JobCenter => "job_center",
    }
}

/// The aggregate query shapes of the warm mix, as the JSON the gateway
/// parses. Parameters are the gateway's defaults made explicit.
pub const AGGREGATE_KINDS: [&str; 4] = [
    r#"{"kind":"mean_access"}"#,
    r#"{"kind":"worst_zones","k":5}"#,
    r#"{"kind":"fairness","weight":"uniform"}"#,
    r#"{"kind":"at_risk","threshold_factor":1}"#,
];

pub fn query_body(category: PoiCategory, query_json: &str) -> String {
    format!(r#"{{"category":"{}","query":{query_json}}}"#, category_slug(category))
}

pub fn point_body(category: PoiCategory, p: Point) -> String {
    format!(
        r#"{{"category":"{}","query":{{"kind":"point_access","x":{},"y":{}}},"approx":true}}"#,
        category_slug(category),
        p.x,
        p.y
    )
}

/// Tuesday 08:00, no transfer cap: the whole Pareto frontier.
pub fn plan_body(origin: Point, dest: Point) -> String {
    format!(
        r#"{{"origin":{{"x":{},"y":{}}},"dest":{{"x":{},"y":{}}},"depart":28800,"day":"tuesday"}}"#,
        origin.x, origin.y, dest.x, dest.y
    )
}

pub fn measures_path(category: PoiCategory) -> String {
    format!("/v1/measures?category={}", category_slug(category))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(43);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn zipf_one_halves_with_rank() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(7);
        let mut hits = [0u32; 100];
        let n = 200_000;
        for _ in 0..n {
            hits[z.sample(&mut rng)] += 1;
        }
        // H(100) = 5.187..., so rank 0 carries 19.3 % and rank 1 half that.
        let share0 = hits[0] as f64 / n as f64;
        assert!((share0 - 0.1928).abs() < 0.005, "rank-0 share {share0}");
        let ratio = hits[0] as f64 / hits[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "rank 0 / rank 1 = {ratio}");
        assert!(hits[99] > 0, "the tail is reachable");
    }

    #[test]
    fn open_loop_due_times_ignore_how_late_earlier_sends_ran() {
        let start = Instant::now();
        let period = Duration::from_millis(100);
        let mut s = OpenLoop::new(start, period);
        assert_eq!(s.next_due(), start);
        // A 350 ms stall happens here; the schedule does not shift.
        assert_eq!(s.next_due(), start + period);
        assert_eq!(s.next_due(), start + 2 * period);
        let due = s.next_due();
        assert_eq!(due, start + 3 * period);
        // Lateness is counted from the due time, never negative.
        assert_eq!(lateness(due, due + Duration::from_millis(50)), Duration::from_millis(50));
        assert_eq!(lateness(due, start), Duration::ZERO);
    }

    #[test]
    fn bodies_are_valid_gateway_json() {
        use staq_net::json::Json;
        let p = Point::new(1234.5678, 0.25);
        for body in [
            query_body(PoiCategory::School, AGGREGATE_KINDS[1]),
            point_body(PoiCategory::VaxCenter, p),
            plan_body(p, Point::new(9.0, 8.0)),
        ] {
            Json::parse(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
        }
        let parsed = Json::parse(&point_body(PoiCategory::School, p)).unwrap();
        let x = parsed.get("query").and_then(|q| q.get("x")).and_then(Json::as_f64);
        assert_eq!(x, Some(1234.5678), "coordinates survive the text round trip exactly");
    }
}
