//! GTFS round-trip and inspection: write the synthetic feed to disk as
//! standard GTFS text files, parse it back, validate it, and print a
//! timetable excerpt — demonstrating that the ingestion path is the same
//! one a real agency feed (e.g. TfWM's) would take.
//!
//! ```text
//! cargo run --release --example gtfs_inspect
//! ```

use staq_repro::gtfs::{validate, FeedIndex, StopId, StopTime};
use staq_repro::prelude::*;

fn main() {
    let city = City::generate(&CityConfig::small(42));
    let feed = city.feed.feed();

    // Write to a temp dir as agency.txt / stops.txt / ... and re-read.
    let dir = std::env::temp_dir().join("staq_gtfs_demo");
    staq_repro::gtfs::write::to_dir(feed, &dir).expect("write feed");
    println!("wrote GTFS feed to {}", dir.display());
    let reread = staq_repro::gtfs::parse::FeedText::from_dir(&dir)
        .expect("read feed")
        .parse()
        .expect("parse feed");
    assert_eq!(*feed, reread, "round-trip must be lossless");
    let violations = validate::validate(&reread);
    println!(
        "re-parsed: {} stops, {} routes, {} trips, {} stop_times, {} violations",
        reread.stops.len(),
        reread.routes.len(),
        reread.trips.len(),
        reread.stop_times.len(),
        violations.len()
    );

    // Departure board for the busiest stop in the AM peak.
    let ix = FeedIndex::build(reread);
    let am = TimeInterval::am_peak();
    // Each stop's calls departing in the interval, in departure order.
    let mut board: Vec<Vec<&StopTime>> = vec![Vec::new(); ix.n_stops()];
    for c in &ix.feed().stop_times {
        if am.contains(c.departure) && ix.trip_runs_on(c.trip, am.day) {
            board[c.stop.idx()].push(c);
        }
    }
    for calls in &mut board {
        calls.sort_by_key(|c| (c.departure, c.trip, c.seq));
    }
    let busiest =
        (0..ix.n_stops() as u32).map(StopId).max_by_key(|s| board[s.idx()].len()).unwrap();
    let deps = &board[busiest.idx()];
    println!("\ndeparture board, stop {} ({} departures in {}):", busiest.0, deps.len(), am);
    for dep in deps.iter().take(12) {
        let route = ix.trip_route(dep.trip);
        let calls = ix.trip_calls(dep.trip);
        let last = calls.last().unwrap();
        println!(
            "  {}  line {:<4} towards stop {:<4} (arrives {})",
            dep.departure,
            ix.feed().routes[route.idx()].short_name,
            last.stop.0,
            last.arrival
        );
    }
    if let [first, .., last] = deps[..] {
        let headway = first.departure.until(last.departure) as f64 / (deps.len() - 1) as f64;
        println!("mean headway: {:.0} s", headway);
    }
}
