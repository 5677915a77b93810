//! Parsing GTFS text tables into a [`Feed`].
//!
//! Input is the set of GTFS files as strings (`agency.txt`, `stops.txt`,
//! `routes.txt`, `calendar.txt`, `trips.txt`, `stop_times.txt`). String ids
//! are interned to dense `u32` ids in first-seen order; cross-references are
//! resolved eagerly so later stages never handle missing ids.
//!
//! Stop coordinates: this crate stores planar meters. Real feeds carry
//! `stop_lat`/`stop_lon`; [`FeedText::parse`] projects them with
//! [`staq_geom::point::project_local`] around the feed centroid. Synthetic
//! feeds (written by [`crate::write`]) store planar meters in the same
//! columns with `planar=1` in `agency.txt`'s companion flag — detected via
//! coordinate magnitude (|lat| > 90 ⇒ planar).

use crate::csv;
use crate::model::*;
use crate::time::Stime;
use std::collections::HashMap;

/// The six GTFS tables as raw text.
#[derive(Debug, Clone, Default)]
pub struct FeedText {
    pub agency: String,
    pub stops: String,
    pub routes: String,
    pub calendar: String,
    pub trips: String,
    pub stop_times: String,
}

impl FeedText {
    /// Reads the six files from a directory on disk.
    pub fn from_dir(dir: &std::path::Path) -> Result<Self, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name)).map_err(|e| format!("reading {name}: {e}"))
        };
        Ok(FeedText {
            agency: read("agency.txt")?,
            stops: read("stops.txt")?,
            routes: read("routes.txt")?,
            calendar: read("calendar.txt")?,
            trips: read("trips.txt")?,
            stop_times: read("stop_times.txt")?,
        })
    }

    /// Parses all tables into a [`Feed`]. See module docs for coordinate
    /// handling.
    pub fn parse(&self) -> Result<Feed, String> {
        let mut feed = Feed::default();

        // agency.txt
        let t = csv::parse(&self.agency).map_err(|e| format!("agency.txt: {e}"))?;
        let (c_id, c_name) = (t.col("agency_id")?, t.col("agency_name")?);
        let mut agency_ids: HashMap<String, AgencyId> = HashMap::new();
        for row in &t.rows {
            let id = AgencyId(feed.agencies.len() as u32);
            if agency_ids.insert(row[c_id].clone(), id).is_some() {
                return Err(format!("duplicate agency_id {:?}", row[c_id]));
            }
            feed.agencies.push(Agency {
                id,
                gtfs_id: row[c_id].clone(),
                name: row[c_name].clone(),
            });
        }

        // stops.txt
        let t = csv::parse(&self.stops).map_err(|e| format!("stops.txt: {e}"))?;
        let (c_id, c_name) = (t.col("stop_id")?, t.col("stop_name")?);
        let (c_lat, c_lon) = (t.col("stop_lat")?, t.col("stop_lon")?);
        let mut stop_ids: HashMap<String, StopId> = HashMap::new();
        let mut raw: Vec<(f64, f64)> = Vec::with_capacity(t.rows.len());
        for row in &t.rows {
            let lat: f64 =
                row[c_lat].parse().map_err(|_| format!("bad stop_lat {:?}", row[c_lat]))?;
            let lon: f64 =
                row[c_lon].parse().map_err(|_| format!("bad stop_lon {:?}", row[c_lon]))?;
            raw.push((lat, lon));
        }
        // Geographic feeds have |lat| <= 90 everywhere; planar (synthetic)
        // feeds store meters, which exceed that immediately.
        let geographic = raw.iter().all(|&(lat, lon)| lat.abs() <= 90.0 && lon.abs() <= 180.0)
            && !raw.is_empty();
        let (lat0, lon0) = if geographic {
            let n = raw.len() as f64;
            (raw.iter().map(|r| r.0).sum::<f64>() / n, raw.iter().map(|r| r.1).sum::<f64>() / n)
        } else {
            (0.0, 0.0)
        };
        for (row, &(lat, lon)) in t.rows.iter().zip(&raw) {
            let id = StopId(feed.stops.len() as u32);
            if stop_ids.insert(row[c_id].clone(), id).is_some() {
                return Err(format!("duplicate stop_id {:?}", row[c_id]));
            }
            let pos = if geographic {
                staq_geom::point::project_local(lat, lon, lat0, lon0)
            } else {
                // Planar: stop_lat is y (northing), stop_lon is x (easting).
                staq_geom::Point::new(lon, lat)
            };
            feed.stops.push(Stop {
                id,
                gtfs_id: row[c_id].clone(),
                name: row[c_name].clone(),
                pos,
            });
        }

        // routes.txt
        let t = csv::parse(&self.routes).map_err(|e| format!("routes.txt: {e}"))?;
        let c_id = t.col("route_id")?;
        let c_agency = t.col("agency_id")?;
        let c_short = t.col("route_short_name")?;
        let c_type = t.col("route_type")?;
        let mut route_ids: HashMap<String, RouteId> = HashMap::new();
        for row in &t.rows {
            let id = RouteId(feed.routes.len() as u32);
            if route_ids.insert(row[c_id].clone(), id).is_some() {
                return Err(format!("duplicate route_id {:?}", row[c_id]));
            }
            let agency = *agency_ids.get(&row[c_agency]).ok_or_else(|| {
                format!("route {:?} references unknown agency {:?}", row[c_id], row[c_agency])
            })?;
            let code: u32 =
                row[c_type].parse().map_err(|_| format!("bad route_type {:?}", row[c_type]))?;
            feed.routes.push(Route {
                id,
                gtfs_id: row[c_id].clone(),
                agency,
                short_name: row[c_short].clone(),
                route_type: RouteType::from_code(code)?,
            });
        }

        // calendar.txt
        let t = csv::parse(&self.calendar).map_err(|e| format!("calendar.txt: {e}"))?;
        let c_id = t.col("service_id")?;
        let day_cols = [
            t.col("monday")?,
            t.col("tuesday")?,
            t.col("wednesday")?,
            t.col("thursday")?,
            t.col("friday")?,
            t.col("saturday")?,
            t.col("sunday")?,
        ];
        let mut service_ids: HashMap<String, ServiceId> = HashMap::new();
        for row in &t.rows {
            let id = ServiceId(feed.services.len() as u32);
            if service_ids.insert(row[c_id].clone(), id).is_some() {
                return Err(format!("duplicate service_id {:?}", row[c_id]));
            }
            let mut days = [false; 7];
            for (d, &col) in day_cols.iter().enumerate() {
                days[d] = match row[col].as_str() {
                    "1" => true,
                    "0" => false,
                    other => return Err(format!("bad calendar flag {other:?}")),
                };
            }
            feed.services.push(Service { id, gtfs_id: row[c_id].clone(), days });
        }

        // trips.txt
        let t = csv::parse(&self.trips).map_err(|e| format!("trips.txt: {e}"))?;
        let (c_route, c_svc, c_id) = (t.col("route_id")?, t.col("service_id")?, t.col("trip_id")?);
        let mut trip_ids: HashMap<String, TripId> = HashMap::new();
        for row in &t.rows {
            let id = TripId(feed.trips.len() as u32);
            if trip_ids.insert(row[c_id].clone(), id).is_some() {
                return Err(format!("duplicate trip_id {:?}", row[c_id]));
            }
            let route = *route_ids.get(&row[c_route]).ok_or_else(|| {
                format!("trip {:?} references unknown route {:?}", row[c_id], row[c_route])
            })?;
            let service = *service_ids.get(&row[c_svc]).ok_or_else(|| {
                format!("trip {:?} references unknown service {:?}", row[c_id], row[c_svc])
            })?;
            feed.trips.push(Trip { id, gtfs_id: row[c_id].clone(), route, service });
        }

        // stop_times.txt
        let t = csv::parse(&self.stop_times).map_err(|e| format!("stop_times.txt: {e}"))?;
        let c_trip = t.col("trip_id")?;
        let c_arr = t.col("arrival_time")?;
        let c_dep = t.col("departure_time")?;
        let c_stop = t.col("stop_id")?;
        let c_seq = t.col("stop_sequence")?;
        feed.stop_times.reserve(t.rows.len());
        for row in &t.rows {
            let trip = *trip_ids
                .get(&row[c_trip])
                .ok_or_else(|| format!("stop_time references unknown trip {:?}", row[c_trip]))?;
            let stop = *stop_ids
                .get(&row[c_stop])
                .ok_or_else(|| format!("stop_time references unknown stop {:?}", row[c_stop]))?;
            let arrival = Stime::parse(&row[c_arr])?;
            let departure = Stime::parse(&row[c_dep])?;
            let seq: u32 =
                row[c_seq].parse().map_err(|_| format!("bad stop_sequence {:?}", row[c_seq]))?;
            feed.stop_times.push(StopTime { trip, stop, arrival, departure, seq });
        }
        feed.normalize();
        Ok(feed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A minimal planar two-stop, one-trip feed used across the crate's
    /// tests.
    pub(crate) fn tiny_feed_text() -> FeedText {
        FeedText {
            agency: "agency_id,agency_name\nA1,Test Buses\n".into(),
            stops: "stop_id,stop_name,stop_lat,stop_lon\n\
                    S1,First,1000,2000\nS2,Second,1500,2600\n"
                .into(),
            routes: "route_id,agency_id,route_short_name,route_type\nR1,A1,11A,3\n".into(),
            calendar: "service_id,monday,tuesday,wednesday,thursday,friday,saturday,sunday\n\
                       WK,1,1,1,1,1,0,0\n"
                .into(),
            trips: "route_id,service_id,trip_id\nR1,WK,T1\n".into(),
            stop_times: "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
                         T1,07:00:00,07:00:30,S1,0\nT1,07:06:00,07:06:00,S2,1\n"
                .into(),
        }
    }

    #[test]
    fn parses_tiny_feed() {
        // The GTFS reference permits a leading byte-order mark on any file.
        let mut with_bom = tiny_feed_text();
        with_bom.stops.insert(0, '\u{feff}');
        for text in [tiny_feed_text(), with_bom] {
            let feed = text.parse().unwrap();
            assert_eq!(feed.agencies.len(), 1);
            assert_eq!(feed.stops.len(), 2);
            assert_eq!(feed.routes.len(), 1);
            assert_eq!(feed.trips.len(), 1);
            assert_eq!(feed.stop_times.len(), 2);
            assert_eq!(feed.stops[0].pos, staq_geom::Point::new(2000.0, 1000.0));
            assert_eq!(feed.stop_times[0].departure, Stime::hms(7, 0, 30));
            assert!(feed.is_normalized());
        }
    }

    #[test]
    fn geographic_coordinates_are_projected() {
        let mut text = tiny_feed_text();
        text.stops = "stop_id,stop_name,stop_lat,stop_lon\n\
                      S1,First,52.48,-1.89\nS2,Second,52.49,-1.88\n"
            .into();
        let feed = text.parse().unwrap();
        // ~1.3km apart after projection.
        let d = feed.stops[0].pos.dist(&feed.stops[1].pos);
        assert!((1000.0..2000.0).contains(&d), "projected distance {d}");
    }

    #[test]
    fn rejects_dangling_references() {
        let mut text = tiny_feed_text();
        text.trips = "route_id,service_id,trip_id\nNOPE,WK,T1\n".into();
        let err = text.parse().unwrap_err();
        assert!(err.contains("unknown route"), "{err}");

        let mut text = tiny_feed_text();
        text.stop_times = "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
                           T9,07:00:00,07:00:00,S1,0\n"
            .into();
        assert!(text.parse().unwrap_err().contains("unknown trip"));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let mut text = tiny_feed_text();
        text.stops.push_str("S1,Again,0,0\n");
        assert!(text.parse().unwrap_err().contains("duplicate stop_id"));
    }

    #[test]
    fn rejects_bad_times_and_flags() {
        let mut text = tiny_feed_text();
        text.stop_times = "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
                           T1,late,07:00:00,S1,0\n"
            .into();
        assert!(text.parse().is_err());

        let mut text = tiny_feed_text();
        text.calendar = "service_id,monday,tuesday,wednesday,thursday,friday,saturday,sunday\n\
                         WK,1,1,1,1,1,0,maybe\n"
            .into();
        assert!(text.parse().unwrap_err().contains("calendar flag"));
    }

    #[test]
    fn rejects_missing_columns() {
        let mut text = tiny_feed_text();
        text.routes = "route_id,route_short_name,route_type\nR1,11A,3\n".into();
        assert!(text.parse().unwrap_err().contains("agency_id"));
    }
}
