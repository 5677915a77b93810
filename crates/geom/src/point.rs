//! Planar points and distance helpers.

use serde::{Deserialize, Serialize};

/// A point in a local planar coordinate system, in meters.
///
/// `x` grows eastwards, `y` grows northwards. All of the synthetic city
/// machinery works in this frame, which keeps distance computations cheap and
/// exact (no geodesy needed at city scale).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from easting/northing meters.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` in meters.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (cheaper when only comparing).
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }

    /// Returns the point displaced by `(dx, dy)` meters.
    #[inline]
    pub fn offset(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// True when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

/// Mean radius of the Earth in meters (IUGG).
const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Great-circle (haversine) distance between two WGS-84 coordinates, in
/// meters. `lat`/`lon` are in decimal degrees.
///
/// Provided so the same pipeline can ingest real GTFS feeds, whose stop
/// coordinates are geographic. The synthetic pipeline never calls this on the
/// hot path.
pub fn haversine_m(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (la1, lo1, la2, lo2) =
        (lat1.to_radians(), lon1.to_radians(), lat2.to_radians(), lon2.to_radians());
    let dlat = la2 - la1;
    let dlon = lo2 - lo1;
    let a = (dlat * 0.5).sin().powi(2) + la1.cos() * la2.cos() * (dlon * 0.5).sin().powi(2);
    2.0 * EARTH_RADIUS_M * a.sqrt().asin()
}

/// Projects a WGS-84 coordinate into a local planar frame centered on
/// (`lat0`, `lon0`) using an equirectangular approximation, returning meters.
///
/// Accurate to well under 0.5% at city scale (< 50 km), which is ample for
/// accessibility analysis.
pub fn project_local(lat: f64, lon: f64, lat0: f64, lon0: f64) -> Point {
    let x = (lon - lon0).to_radians() * lat0.to_radians().cos() * EARTH_RADIUS_M;
    let y = (lat - lat0).to_radians() * EARTH_RADIUS_M;
    Point::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist2(&b), 25.0);
    }

    #[test]
    fn dist_is_symmetric() {
        let a = Point::new(-12.5, 88.0);
        let b = Point::new(101.0, -7.25);
        assert_eq!(a.dist(&b), b.dist(&a));
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 6.0);
        let m = a.midpoint(&b);
        assert!((m.dist(&a) - m.dist(&b)).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new(2.0, 3.0);
        let b = Point::new(-1.0, 7.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert_eq!(mid, a.midpoint(&b));
    }

    #[test]
    fn haversine_known_value() {
        // London (51.5074, -0.1278) to Birmingham (52.4862, -1.8904) is about
        // 163 km.
        let d = haversine_m(51.5074, -0.1278, 52.4862, -1.8904);
        assert!((d - 163_000.0).abs() < 3_000.0, "got {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        assert_eq!(haversine_m(52.0, -1.5, 52.0, -1.5), 0.0);
    }

    #[test]
    fn local_projection_roundtrip_distance() {
        // Two points ~1.1km apart near Birmingham; projected planar distance
        // should closely match the haversine distance.
        let (lat0, lon0) = (52.48, -1.89);
        let a = project_local(52.4862, -1.8904, lat0, lon0);
        let b = project_local(52.4950, -1.8800, lat0, lon0);
        let planar = a.dist(&b);
        let sphere = haversine_m(52.4862, -1.8904, 52.4950, -1.8800);
        assert!((planar - sphere).abs() / sphere < 0.005, "{planar} vs {sphere}");
    }

    #[test]
    fn offset_moves_point() {
        let p = Point::new(1.0, 1.0).offset(2.0, -3.0);
        assert_eq!(p, Point::new(3.0, -2.0));
    }
}
