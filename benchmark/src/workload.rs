//! The four workloads: set-up, the measured loops, and the checks that
//! decide which operations count as failed.
//!
//! All load comes from this process over at most two connections per
//! workload, through the sockets only: HTTP keep-alive to the gateway
//! for reads, a wire-v4 `MuxClient` to the router for deltas.

use crate::check::{self, Reference};
use crate::gen::{self, OpenLoop, Rng, Zipf, AGGREGATE_KINDS};
use crate::http::{self, HttpClient, OP_TIMEOUT};
use crate::stack::{generate_city, Fleet, Workload};
use crate::stats::percentile;
use staq_access::{AccessQuery, QueryAnswer};
use staq_geom::Point;
use staq_gtfs::{Delta, RouteId, TripId};
use staq_serve::{MuxClient, Request, Response};
use staq_synth::{City, PoiCategory};
use std::time::{Duration, Instant};

/// Trips the structural `TripDelay +30 s` edits rotate over.
const ROTATION: usize = 8;
/// Open-loop delta rate of `live_plan`.
const DELTA_PERIOD: Duration = Duration::from_millis(100);
/// Point-access replies kept per client for the post-run exactness check.
const POINT_SAMPLE_CAP: usize = 20_000;
/// Plan replies kept for the post-run structural check.
const PLAN_SAMPLE_CAP: usize = 1_024;
/// Reads a window must hold on average for its median to mean something.
const WINDOW_MIN_READS: usize = 20;
const MAX_WINDOWS: usize = 20;
/// Share of 20 mix slots: 11 aggregate, 8 point, 1 measures (55/40/5 %).
const MIX_SLOTS: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2];

/// What the workloads draw from; a function of the city alone.
pub struct Population {
    pub centroids: Vec<Point>,
    /// Zipf rank → zone index. Fixed, so every seed has the same hot zones.
    pub hot: Vec<usize>,
    pub n_trips: usize,
    pub n_routes: usize,
}

impl Population {
    pub fn of(city: &City) -> Self {
        let centroids: Vec<Point> = city.zones.iter().map(|z| z.centroid).collect();
        let mut hot: Vec<usize> = (0..centroids.len()).collect();
        Rng::new(0x005E_ED0F_2095).shuffle(&mut hot);
        let feed = city.feed.feed();
        Population { centroids, hot, n_trips: feed.trips.len(), n_routes: feed.routes.len() }
    }
}

/// One timed operation.
#[derive(Clone, Copy)]
pub struct Sample {
    pub start: Instant,
    pub ns: u64,
}

struct PointSample {
    category: PoiCategory,
    at: Point,
    mac: f64,
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    pub reads: Vec<Sample>,
    /// Delta round trips at the router socket; open-loop ones are timed
    /// from their due time.
    pub edits: Vec<Sample>,
    /// How late each open-loop send started.
    pub lag_ns: Vec<u64>,
    pub failed_reads: u64,
    pub failed_edits: u64,
    pub wall_s: f64,
    /// Cold workloads: (deltas applied when asked, reply body) per cycle.
    cold_answers: Vec<(usize, Vec<u8>)>,
    points: Vec<PointSample>,
    plans: Vec<Vec<u8>>,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.reads.len() as u64 + self.edits.len() as u64 + self.failed_reads + self.failed_edits
    }

    pub fn failed(&self) -> u64 {
        self.failed_reads + self.failed_edits
    }

    /// Throughput and median read latency of the phase in its quietest
    /// stretch. The span is cut into equal time windows of at least
    /// [`WINDOW_MIN_READS`] reads on average (at most [`MAX_WINDOWS`]);
    /// each window gets its own rate and its own median latency, and the
    /// best window of each is reported.
    ///
    /// Why not the pooled figures: on a shared 2-vCPU VM the host slows
    /// this process by 10–300 % for seconds at a time, and that noise
    /// only ever adds. Pooled over a run it put the run-to-run spread of
    /// throughput at 40 %; best-window brings it under 15 %. A change in
    /// the program moves every window, the quietest included, so nothing
    /// a later PR does can hide here — except a stall rarer than one per
    /// window, which `client.lat_p90_us` / `client.lat_p99_us` (pooled,
    /// unfiltered) still show.
    pub fn summary(&self) -> Summary {
        let samples = || self.reads.iter().chain(&self.edits);
        let Some(t0) = samples().map(|s| s.start).min() else {
            return Summary { ops_per_s: 0.0, p50_us: 0.0, windows: 0 };
        };
        let windows = (self.reads.len() / WINDOW_MIN_READS).clamp(1, MAX_WINDOWS);
        let width = self.wall_s / windows as f64;
        let window_of = |s: &Sample| {
            let done = (s.start + Duration::from_nanos(s.ns)).duration_since(t0).as_secs_f64();
            ((done / width) as usize).min(windows - 1)
        };
        let mut done = vec![0u64; windows];
        let mut lat: Vec<Vec<u64>> = vec![Vec::new(); windows];
        for s in samples() {
            done[window_of(s)] += 1;
        }
        for s in &self.reads {
            lat[window_of(s)].push(s.ns);
        }
        let best_rate = done.iter().max().map_or(0.0, |&n| n as f64 / width);
        let best_p50 = lat
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| {
                w.sort_unstable();
                percentile(w, 0.5)
            })
            .min();
        Summary {
            ops_per_s: best_rate,
            p50_us: best_p50.map_or(0.0, |ns| ns as f64 / 1e3),
            windows,
        }
    }
}

/// See [`Phase::summary`].
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub windows: usize,
}

/// A booted, warmed fleet with the workload's client connections open.
/// Field order is drop order: connections close before the fleet stops.
pub struct Session {
    http: Vec<HttpClient>,
    mux: Option<MuxClient>,
    pub fleet: Fleet,
    /// Warm-up replies to the 16 aggregate bodies and 4 measures GETs, in
    /// request-table order; every later warm reply must equal them.
    warm_replies: Vec<Vec<u8>>,
    /// Every delta the fleet acked, in order.
    log: Vec<Delta>,
}

/// The fixed warm request table: 4 categories × 4 aggregate kinds, then
/// the 4 measures GETs.
fn warm_requests() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for c in PoiCategory::ALL {
        for kind in AGGREGATE_KINDS {
            out.push(http::post("/v1/query", &gen::query_body(c, kind)));
        }
    }
    for c in PoiCategory::ALL {
        out.push(http::get(&gen::measures_path(c)));
    }
    out
}

fn mean_access_request(category: PoiCategory) -> Vec<u8> {
    http::post("/v1/query", &gen::query_body(category, AGGREGATE_KINDS[0]))
}

fn call_ok(client: &mut HttpClient, request: &[u8]) -> Result<Vec<u8>, String> {
    match client.call(request) {
        Ok((200, body)) => Ok(body.to_vec()),
        Ok((status, body)) => Err(format!("HTTP {status}: {}", String::from_utf8_lossy(body))),
        Err(e) => Err(format!("transport: {e}")),
    }
}

impl Session {
    /// Everything between process start and the measured phase: city
    /// generation, two engine builds, fleet boot, one cold AQ per
    /// category, the workload's own cache warm-up, and a first warm
    /// request. This is what `setup_s` times.
    pub fn prepare(w: Workload, pool: usize) -> Result<Session, String> {
        let city = generate_city();
        let fleet = Fleet::boot(&city, &w.pipeline(), pool).map_err(|e| format!("boot: {e}"))?;
        let n_http = if w == Workload::WarmReads { 2 } else { 1 };
        let mut http_clients = Vec::new();
        for _ in 0..n_http {
            http_clients
                .push(HttpClient::connect(fleet.gateway_addr()).map_err(|e| e.to_string())?);
        }
        let mux = match w.writes() {
            true => Some(MuxClient::connect(fleet.router_addr()).map_err(|e| e.to_string())?),
            false => None,
        };
        let c0 = &mut http_clients[0];
        for category in PoiCategory::ALL {
            call_ok(c0, &mean_access_request(category))?;
        }
        let mut warm_replies = Vec::new();
        match w {
            Workload::WarmReads => {
                for request in warm_requests() {
                    warm_replies.push(call_ok(c0, &request)?);
                }
                // Seed the approximate-answer stores at every centroid so
                // the measured mix interpolates from its first request.
                for category in PoiCategory::ALL {
                    for zone in &city.zones {
                        let body = gen::point_body(category, zone.centroid);
                        call_ok(c0, &http::post("/v1/query", &body))?;
                    }
                }
            }
            Workload::LivePlan => {
                let (o, d) = (city.zones[0].centroid, city.zones[city.n_zones() / 2].centroid);
                call_ok(c0, &http::post("/v1/plan", &gen::plan_body(o, d)))?;
            }
            Workload::ColdDense | Workload::ColdSparse => {}
        }
        let first = call_ok(c0, &mean_access_request(w.category()))?;
        let again = call_ok(c0, &mean_access_request(w.category()))?;
        if first != again {
            return Err("two warm replies to one body differ".into());
        }
        Ok(Session { http: http_clients, mux, fleet, warm_replies, log: Vec::new() })
    }

    /// Runs the workload's loop for `seconds`.
    pub fn measure(&mut self, w: Workload, pop: &Population, seed: u64, seconds: f64) -> Phase {
        let span = Duration::from_secs_f64(seconds);
        match w {
            Workload::ColdDense | Workload::ColdSparse => self.cold_loop(w, pop, seed, span),
            Workload::WarmReads => self.warm_loop(pop, seed, span),
            Workload::LivePlan => self.live_plan_loop(pop, seed, span),
        }
    }

    fn send_delta(mux: &MuxClient, delta: &Delta) -> bool {
        let request = Request::ApplyDelta { seq: 0, delta: delta.clone() };
        matches!(
            mux.call_timeout(&request, OP_TIMEOUT),
            Ok(Response::ApplyDelta(ack)) if !ack.replayed
        )
    }

    /// Closed loop, one client: structural edit, then the cold AQ.
    fn cold_loop(&mut self, w: Workload, pop: &Population, seed: u64, span: Duration) -> Phase {
        let rotation = trip_rotation(pop, seed);
        let query = mean_access_request(w.category());
        let mux = self.mux.as_ref().expect("cold workloads write");
        let client = &mut self.http[0];
        let mut phase = Phase::default();
        let t0 = Instant::now();
        let mut cycle = 0usize;
        while t0.elapsed() < span {
            let delta = Delta::TripDelay { trip: rotation[cycle % ROTATION], delay_secs: 30 };
            cycle += 1;
            let start = Instant::now();
            if Self::send_delta(mux, &delta) {
                phase.edits.push(Sample { start, ns: start.elapsed().as_nanos() as u64 });
                self.log.push(delta);
            } else {
                phase.failed_edits += 1;
                continue;
            }
            let start = Instant::now();
            match client.call(&query) {
                Ok((200, body)) => {
                    phase.reads.push(Sample { start, ns: start.elapsed().as_nanos() as u64 });
                    phase.cold_answers.push((self.log.len(), body.to_vec()));
                }
                _ => phase.failed_reads += 1,
            }
        }
        phase.wall_s = t0.elapsed().as_secs_f64();
        phase
    }

    /// Closed loop, two keep-alive clients, all four categories warm.
    fn warm_loop(&mut self, pop: &Population, seed: u64, span: Duration) -> Phase {
        let requests = warm_requests();
        let expected = &self.warm_replies;
        let t0 = Instant::now();
        let parts: Vec<Phase> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .http
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    let requests = &requests;
                    let mut rng = Rng::new(seed ^ (0x00C1_1E47 + i as u64));
                    scope.spawn(move || {
                        warm_client(client, pop, &mut rng, requests, expected, t0, span)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("warm client panicked")).collect()
        });
        merge(parts, t0)
    }

    /// One closed-loop HTTP planner beside one open-loop wire writer.
    fn live_plan_loop(&mut self, pop: &Population, seed: u64, span: Duration) -> Phase {
        let rotation = trip_rotation(pop, seed);
        let mux = self.mux.as_ref().expect("live_plan writes");
        let client = &mut self.http[0];
        let t0 = Instant::now();
        let (reader, (writer, acked)) = std::thread::scope(|scope| {
            let r = scope.spawn(move || {
                let mut rng = Rng::new(seed ^ 0x91A4);
                plan_client(client, pop, &mut rng, t0, span)
            });
            let w = scope.spawn(move || delta_writer(mux, pop, &rotation, t0, span));
            (r.join().expect("planner panicked"), w.join().expect("writer panicked"))
        });
        self.log.extend(acked);
        merge(vec![reader, writer], t0)
    }

    /// Post-run answer checks against the reference replica. Returns the
    /// number of operations whose answer failed its check and, per
    /// scored category, the served-vs-naive MAC error.
    pub fn verify(
        &mut self,
        w: Workload,
        pop: &Population,
        reference: &mut Reference,
        phases: &[&Phase],
    ) -> Result<Verdict, String> {
        let mut bad_answers = 0u64;
        match w {
            Workload::ColdDense | Workload::ColdSparse => {
                // Replaying every cycle would double the run; the first,
                // middle and last answer of each phase pin the sequence.
                for phase in phases {
                    let n = phase.cold_answers.len();
                    let mut picks = vec![0, n / 2, n.saturating_sub(1)];
                    picks.dedup();
                    for i in picks.into_iter().filter(|&i| i < n) {
                        let (applied, body) = &phase.cold_answers[i];
                        reference.advance_to(&self.log, *applied);
                        let want = reference.engine().query(&AccessQuery::MeanAccess, w.category());
                        if check::parse_body(body) != Some(check::answer_json(&want)) {
                            bad_answers += 1;
                        }
                    }
                    // Every other answer is at least a well-formed one.
                    bad_answers += phase
                        .cold_answers
                        .iter()
                        .filter(|(_, b)| !b.starts_with(br#"{"kind":"mean_access","mean_mac":"#))
                        .count() as u64;
                }
            }
            Workload::WarmReads => {
                // The warm-up replies (which every measured reply was
                // compared to, byte for byte) equal the direct answers.
                let mut i = 0;
                for category in PoiCategory::ALL {
                    for kind in 0..AGGREGATE_KINDS.len() {
                        let want =
                            reference.engine().query(&check::aggregate_query(kind), category);
                        if check::parse_body(&self.warm_replies[i])
                            != Some(check::answer_json(&want))
                        {
                            return Err(format!("warm reply {i} differs from the direct answer"));
                        }
                        i += 1;
                    }
                }
                for category in PoiCategory::ALL {
                    let want =
                        check::measures_json(&reference.engine().measures(category).predicted);
                    if check::parse_body(&self.warm_replies[i]) != Some(want) {
                        return Err(format!("measures of {category:?} differ from the engine's"));
                    }
                    i += 1;
                }
                let bound = reference.engine().approx_config().error_bound;
                for phase in phases {
                    for p in &phase.points {
                        let q = AccessQuery::PointAccess { x: p.at.x, y: p.at.y };
                        let exact = match reference.engine().query(&q, p.category) {
                            QueryAnswer::PointAccess { mac, .. } => mac,
                            other => unreachable!("{other:?}"),
                        };
                        let off = (p.mac - exact).abs();
                        if off.is_nan() || off > bound {
                            bad_answers += 1;
                        }
                    }
                }
            }
            Workload::LivePlan => {
                for phase in phases {
                    bad_answers +=
                        phase.plans.iter().filter(|b| !check::plan_is_sane(b)).count() as u64;
                }
            }
        }

        // Final state: the fleet and a replica that replayed the same log
        // must agree bit for bit on measures and on 20 fixed plans.
        let runs_before_final_reads = self.pipeline_runs()?;
        reference.advance_to(&self.log, self.log.len());
        let client = &mut self.http[0];
        let mut mac_err = Vec::new();
        for category in w.scored_categories() {
            let body = call_ok(client, &http::get(&gen::measures_path(category)))?;
            let want = check::measures_json(&reference.engine().measures(category).predicted);
            if check::parse_body(&body) != Some(want) {
                return Err(format!("final measures of {category:?} differ from the replica's"));
            }
            mac_err.push(check::mac_err_pct(reference, category));
        }
        if w.writes() {
            for (o, d) in check::fixed_plan_ods(&pop.centroids) {
                let body = call_ok(client, &http::post("/v1/plan", &gen::plan_body(o, d)))?;
                let want = reference.engine().plan(o, d, check::PLAN_DEPART, check::PLAN_DAY, None);
                if check::parse_body(&body) != Some(check::plan_json(&want)) {
                    return Err("a fixed plan differs from the replica's after the same log".into());
                }
            }
        }
        Ok(Verdict {
            bad_answers,
            ssr_mac_err_pct: mac_err.iter().sum::<f64>() / mac_err.len() as f64,
            pipeline_runs: runs_before_final_reads,
        })
    }

    /// Fleet-wide SSR pipeline executions so far, from `/v1/stats`.
    pub fn pipeline_runs(&mut self) -> Result<u64, String> {
        let body = call_ok(&mut self.http[0], &http::get("/v1/stats"))?;
        check::parse_body(&body)
            .and_then(|j| j.get("pipeline_runs").and_then(|v| v.as_f64()))
            .map(|v| v as u64)
            .ok_or_else(|| "stats reply has no pipeline_runs".to_string())
    }

    /// Mean-access round trips at the gateway socket on connection 0, for
    /// the hop probes.
    pub fn gateway_client(&mut self) -> &mut HttpClient {
        &mut self.http[0]
    }
}

pub struct Verdict {
    /// Replies that arrived with status 200 but failed their answer check.
    pub bad_answers: u64,
    pub ssr_mac_err_pct: f64,
    /// Pipeline runs at the end of the measured phases, before the final
    /// reads (which legitimately add cold runs of their own).
    pub pipeline_runs: u64,
}

/// The seed's eight distinct trips.
fn trip_rotation(pop: &Population, seed: u64) -> Vec<TripId> {
    let mut trips: Vec<u32> = (0..pop.n_trips as u32).collect();
    Rng::new(seed ^ 0x7219).shuffle(&mut trips);
    trips.into_iter().take(ROTATION).map(TripId).collect()
}

fn merge(parts: Vec<Phase>, t0: Instant) -> Phase {
    let mut all = Phase::default();
    let mut end = t0;
    for p in parts {
        for s in p.reads.iter().chain(&p.edits) {
            end = end.max(s.start + Duration::from_nanos(s.ns));
        }
        all.reads.extend(p.reads);
        all.edits.extend(p.edits);
        all.lag_ns.extend(p.lag_ns);
        all.failed_reads += p.failed_reads;
        all.failed_edits += p.failed_edits;
        all.points.extend(p.points);
        all.plans.extend(p.plans);
    }
    all.wall_s = end.duration_since(t0).as_secs_f64();
    all
}

fn jitter(rng: &mut Rng, c: Point) -> Point {
    Point::new(c.x + (rng.unit() - 0.5) * 100.0, c.y + (rng.unit() - 0.5) * 100.0)
}

fn warm_client(
    client: &mut HttpClient,
    pop: &Population,
    rng: &mut Rng,
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    t0: Instant,
    span: Duration,
) -> Phase {
    let zipf = Zipf::new(pop.centroids.len(), 1.0);
    let mut slots = MIX_SLOTS;
    rng.shuffle(&mut slots);
    let n_aggregate = PoiCategory::ALL.len() * AGGREGATE_KINDS.len();
    let mut phase = Phase::default();
    phase.points.reserve(POINT_SAMPLE_CAP);
    let mut i = 0usize;
    while t0.elapsed() < span {
        let slot = slots[i % slots.len()];
        i += 1;
        match slot {
            // Aggregate or measures: a table request with a known reply.
            0 | 2 => {
                let idx = if slot == 0 {
                    rng.below(n_aggregate)
                } else {
                    n_aggregate + rng.below(PoiCategory::ALL.len())
                };
                let start = Instant::now();
                match client.call(&requests[idx]) {
                    Ok((200, body)) if body == expected[idx].as_slice() => {
                        phase.reads.push(Sample { start, ns: start.elapsed().as_nanos() as u64 })
                    }
                    _ => phase.failed_reads += 1,
                }
            }
            _ => {
                let category = PoiCategory::ALL[rng.below(PoiCategory::ALL.len())];
                let zone = pop.hot[zipf.sample(rng)];
                let at = jitter(rng, pop.centroids[zone]);
                let request = http::post("/v1/query", &gen::point_body(category, at));
                let start = Instant::now();
                let reply = client.call(&request);
                let ns = start.elapsed().as_nanos() as u64;
                match reply.ok().filter(|(s, _)| *s == 200).and_then(|(_, b)| check::scan_mac(b)) {
                    Some(mac) => {
                        phase.reads.push(Sample { start, ns });
                        if phase.points.len() < POINT_SAMPLE_CAP {
                            phase.points.push(PointSample { category, at, mac });
                        }
                    }
                    None => phase.failed_reads += 1,
                }
            }
        }
    }
    phase
}

fn plan_client(
    client: &mut HttpClient,
    pop: &Population,
    rng: &mut Rng,
    t0: Instant,
    span: Duration,
) -> Phase {
    let zipf = Zipf::new(pop.centroids.len(), 1.0);
    let mut phase = Phase::default();
    while t0.elapsed() < span {
        let o = pop.hot[zipf.sample(rng)];
        let mut d = pop.hot[zipf.sample(rng)];
        if d == o {
            d = (o + 1) % pop.centroids.len();
        }
        let request = http::post("/v1/plan", &gen::plan_body(pop.centroids[o], pop.centroids[d]));
        let start = Instant::now();
        match client.call(&request) {
            Ok((200, body)) if body.starts_with(br#"{"journeys":["#) => {
                phase.reads.push(Sample { start, ns: start.elapsed().as_nanos() as u64 });
                if phase.plans.len() < PLAN_SAMPLE_CAP {
                    phase.plans.push(body.to_vec());
                }
            }
            _ => phase.failed_reads += 1,
        }
    }
    phase
}

/// Open loop at one delta per [`DELTA_PERIOD`]: four advisory alerts,
/// then one structural delay on the rotation. Returns the acked deltas.
fn delta_writer(
    mux: &MuxClient,
    pop: &Population,
    rotation: &[TripId],
    t0: Instant,
    span: Duration,
) -> (Phase, Vec<Delta>) {
    let mut schedule = OpenLoop::new(t0, DELTA_PERIOD);
    let mut phase = Phase::default();
    let mut acked = Vec::new();
    let mut i = 0usize;
    loop {
        let due = schedule.next_due();
        if due.duration_since(t0) >= span {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let delta = if i % 5 == 4 {
            Delta::TripDelay { trip: rotation[(i / 5) % ROTATION], delay_secs: 30 }
        } else {
            Delta::ServiceAlert {
                route: RouteId((i % pop.n_routes) as u32),
                message: format!("advisory {i}"),
            }
        };
        i += 1;
        phase.lag_ns.push(gen::lateness(due, Instant::now()).as_nanos() as u64);
        if Session::send_delta(mux, &delta) {
            phase.edits.push(Sample { start: due, ns: due.elapsed().as_nanos() as u64 });
            acked.push(delta);
        } else {
            phase.failed_edits += 1;
        }
    }
    (phase, acked)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2000 reads of 1 ms back to back, except that the reads of one
    /// 100 ms stretch take 10 ms each.
    fn phase_with_a_stall() -> Phase {
        let t0 = Instant::now();
        let mut phase = Phase::default();
        let mut at = Duration::ZERO;
        while phase.reads.len() < 2000 {
            let stalled = (500..600).contains(&at.as_millis());
            let ns = if stalled { 10_000_000 } else { 1_000_000 };
            phase.reads.push(Sample { start: t0 + at, ns });
            at += Duration::from_nanos(ns);
        }
        phase.wall_s = at.as_secs_f64();
        phase
    }

    #[test]
    fn a_stall_does_not_reach_the_summary() {
        let phase = phase_with_a_stall();
        let s = phase.summary();
        assert_eq!(s.windows, 20);
        assert!((s.p50_us - 1000.0).abs() < 1e-9);
        assert!((s.ops_per_s - 1000.0).abs() < 15.0, "{}", s.ops_per_s);
        // The pooled rate pays for the stall; the best window does not.
        let pooled = phase.reads.len() as f64 / phase.wall_s;
        assert!(pooled < 960.0, "{pooled}");
    }

    #[test]
    fn few_reads_give_the_pooled_figures() {
        let t0 = Instant::now();
        let mut phase = Phase::default();
        for i in 0..30u64 {
            let start = t0 + Duration::from_millis(100 * i);
            phase.reads.push(Sample { start, ns: (i + 1) * 1_000 });
        }
        phase.wall_s = 3.0;
        let s = phase.summary();
        assert_eq!(s.windows, 1);
        assert_eq!(s.p50_us, 15.0);
        assert!((s.ops_per_s - 10.0).abs() < 1e-9);
    }
}
