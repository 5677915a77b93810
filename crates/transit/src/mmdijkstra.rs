//! Time-dependent multimodal Dijkstra: the baseline router.
//!
//! Labels stops with earliest arrival and relaxes two move kinds: foot
//! transfers, and "board the next catchable trip and alight at any later
//! stop". Unlike RAPTOR it has no boarding bound, making it the reference
//! implementation: RAPTOR must never beat it, and matches it whenever the
//! optimum uses at most `max_boardings` rides. The router ablation benchmark
//! (DESIGN.md) compares the two.

use crate::network::TransitNetwork;
use staq_geom::Point;
use staq_gtfs::time::{DayOfWeek, Stime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Earliest arrival at `dest` from `origin` departing `depart` on `day`,
/// including the walk-only fallback (always finite).
pub fn earliest_arrival(
    net: &TransitNetwork<'_>,
    origin: &Point,
    dest: &Point,
    depart: Stime,
    day: DayOfWeek,
) -> Stime {
    let n_stops = net.n_stops();
    let mut arr = vec![u32::MAX; n_stops];
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();

    for (s, walk) in net.access_stops(origin) {
        let t = depart.0.saturating_add(walk);
        if t < arr[s.idx()] {
            arr[s.idx()] = t;
            heap.push(Reverse((t, s.0)));
        }
    }

    // Egress walks, for early exit bookkeeping.
    let mut egress = vec![u32::MAX; n_stops];
    for (s, walk) in net.access_stops(dest) {
        egress[s.idx()] = walk;
    }

    let direct = depart.0.saturating_add(net.direct_walk_secs(origin, dest));
    let mut best_total = direct;

    while let Some(Reverse((t, s))) = heap.pop() {
        if t > arr[s as usize] {
            continue; // stale
        }
        if t >= best_total {
            break; // nothing on the heap can still improve the destination
        }
        if egress[s as usize] != u32::MAX {
            best_total = best_total.min(t.saturating_add(egress[s as usize]));
        }
        let stop = staq_gtfs::model::StopId(s);
        // Foot transfers.
        for tr in net.transfers_from(stop) {
            let nt = t.saturating_add(tr.walk_secs);
            if nt < arr[tr.to.idx()] {
                arr[tr.to.idx()] = nt;
                heap.push(Reverse((nt, tr.to.0)));
            }
        }
        // Ride the next catchable trip of every pattern through this stop.
        for &(pi, pos) in net.patterns_at(stop) {
            let p = &net.patterns()[pi as usize];
            let Some(trip) = p.earliest_trip(pos as usize, Stime(t), day) else {
                continue;
            };
            for i in (pos as usize + 1)..p.stops.len() {
                let at = p.arrival(trip, i).0;
                let to = p.stops[i];
                if at < arr[to.idx()] {
                    arr[to.idx()] = at;
                    heap.push(Reverse((at, to.0)));
                }
            }
        }
    }

    Stime(best_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raptor::Raptor;
    use staq_synth::{City, CityConfig};

    #[test]
    fn dijkstra_never_loses_to_raptor() {
        let city = City::generate(&CityConfig::small(42));
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let raptor = Raptor::new(&net);
        let depart = Stime::hms(7, 30, 0);
        let mut equal = 0;
        let n = 30;
        for i in 0..n {
            let o = city.zones[(i * 11) % city.zones.len()].centroid;
            let d = city.zones[(i * 17 + 3) % city.zones.len()].centroid;
            let dij = earliest_arrival(&net, &o, &d, depart, DayOfWeek::Tuesday);
            let rap = raptor.query(&o, &d, depart, DayOfWeek::Tuesday).arrive;
            assert!(dij <= rap, "unbounded Dijkstra ({dij}) must not lose to RAPTOR ({rap})");
            if dij == rap {
                equal += 1;
            }
        }
        assert!(equal * 10 >= n * 7, "routers should agree on most ODs, agreed {equal}/{n}");
    }

    #[test]
    fn walk_fallback_on_sunday() {
        let city = City::generate(&CityConfig::tiny(5));
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let o = city.zones[0].centroid;
        let d = city.zones[city.zones.len() - 1].centroid;
        let depart = Stime::hms(8, 0, 0);
        let at = earliest_arrival(&net, &o, &d, depart, DayOfWeek::Sunday);
        assert_eq!(at.0, depart.0 + net.direct_walk_secs(&o, &d));
    }

    #[test]
    fn arrival_never_precedes_departure() {
        let city = City::generate(&CityConfig::tiny(6));
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let depart = Stime::hms(7, 0, 0);
        for z in &city.zones {
            let at =
                earliest_arrival(&net, &city.cores[0], &z.centroid, depart, DayOfWeek::Tuesday);
            assert!(at >= depart);
        }
    }
}
