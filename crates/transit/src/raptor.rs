//! RAPTOR: round-based earliest-arrival routing over trip patterns.
//!
//! Round `k` computes the earliest arrival at every stop using at most `k`
//! boardings; foot transfers follow each round. Journeys are reconstructed
//! from per-round labels into [`Journey`] legs so the GAC's components
//! (access walk, wait, in-vehicle, egress, transfers) fall out directly.
//!
//! This is the workhorse behind every shortest-path query (SPQ) in the
//! paper. TODAM labeling (§IV-D) runs one [`Raptor::query_many`] pass per
//! (zone, start time): every trip of the group leaves the same centroid at
//! the same time, so one unpruned round loop answers all of them and only
//! the egress scan and reconstruction run per trip. Point queries, Pareto
//! plans and the reference oracle run the same round loop; they differ
//! only in which pruning rules are on.
//!
//! ## Foot transfers
//!
//! After each round's pattern scans, foot transfers are swept in stop-id
//! order from the stops riding improved. A stop a transfer improves ahead
//! of the sweep joins it, so a walk chains on through any stop improved
//! earlier in the same sweep. Which stops sweep, and in what order, depends
//! only on which stops improved, never on the order the scans reached them.
//!
//! ## Pruning
//!
//! A pruned query is **exact**: its journey is leg-for-leg identical to
//! the [`Raptor::reference`] journey for the same query (see
//! `tests/prune_equivalence.rs`, which checks every TODAM trip of the test
//! cities):
//!
//! * **Target pruning.** The egress stop set is computed *before* the
//!   rounds loop and a best-known-arrival bound, seeded by the direct-walk
//!   fallback, tightens whenever an improved stop completes a journey. An
//!   improvement that arrives *after* the bound can never sit on the
//!   returned journey's label chain (every chain arrival is at most the
//!   optimal total, which the bound never undercuts), so it is skipped.
//!   The comparison is strict (`>`): arrivals that tie the bound are kept,
//!   which is what makes the journeys — not just the arrival times —
//!   identical. The foot sweep is what keeps this sound: the reference
//!   also sweeps the stops whose improvements the bound suppressed, but
//!   from arrivals past the bound, so nothing it reaches from them can
//!   complete a journey that beats or ties the bound.
//! * **Local pruning.** A single per-stop best-arrival array (`tau_star`)
//!   replaces the former `(max_boardings + 1) × n_stops` arrival matrix and
//!   its per-round copy-forward; boarding reads `tau_prev`, last round's
//!   snapshot, preserving the bounded-boardings semantics.
//! * **Early exit.** When every marked stop is already past the bound, no
//!   later round can produce a journey that beats or ties it, so the
//!   remaining rounds are cut (`raptor.rounds_cut`).
//! * **Dense queue.** The per-round pattern queue is a generation-stamped
//!   `Vec` indexed by pattern id instead of a rebuilt `HashMap`, and a stop
//!   bitmask deduplicates `marked` so a stop improved twice in one round is
//!   processed once.
//!
//! Access/egress isochrones go through the [`AccessCache`] of the
//! network's stop tables: labeling re-routes the same zone centroids and
//! POI destinations thousands of times per pass, so the bounded road-graph
//! Dijkstra memoizes by (quantized) point, and every router over the same
//! stops — each labeling worker, each `plan` — warms the one cache.
//!
//! [`AccessCache`]: crate::access_cache::AccessCache
//!
//! [`Raptor::reference`] builds the same router with every pruning rule
//! disabled — the oracle `tests/prune_equivalence.rs` compares against.
//! [`Raptor::query_many`] runs with target pruning off (there is no single
//! target to bound against) but keeps the two skips that do not depend on
//! the destination — patterns idle on the query day, boarding at a
//! pattern's last stop — so its journeys equal the reference's too.

use crate::access_cache::{AccessRange, CacheHandle};
use crate::journey::{Journey, Leg};
use crate::network::TransitNetwork;
use crate::pareto::{Bag, ParetoLabel};
use staq_geom::Point;
use staq_gtfs::model::StopId;
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_obs::Counter;
use staq_road::dijkstra::WalkScratch;
use staq_road::NodeId;
use std::cell::RefCell;

const INF: u32 = u32::MAX;

/// Round-loop passes run across all routers in the process: one per point
/// query, one per [`Raptor::query_many`] group.
static QUERIES: Counter = Counter::new("raptor.queries");
/// RAPTOR rounds that scanned patterns (rounds skipped because no stop was
/// marked don't count — they do no routing work).
static ROUNDS: Counter = Counter::new("raptor.rounds");
/// Pattern scans across all rounds (the inner-loop unit of work).
static PATTERNS_SCANNED: Counter = Counter::new("raptor.patterns_scanned");
/// Pattern-enqueue attempts suppressed by target pruning: a marked stop
/// whose best arrival already trails the destination bound contributes its
/// pattern list here instead of to the queue.
static PATTERNS_PRUNED: Counter = Counter::new("raptor.patterns_pruned");
/// Rounds cut by the bound-based early exit (remaining rounds that would
/// have scanned, summed per query).
static ROUNDS_CUT: Counter = Counter::new("raptor.rounds_cut");
/// Pattern-enqueue attempts skipped because the pattern runs no trip at
/// all on the query day — `earliest_trip` could never board it.
static PATTERNS_DAY_SKIPPED: Counter = Counter::new("raptor.patterns_day_skipped");

/// The best completed journey as of the end of one round — the raw
/// material of a Pareto frontier over (arrival, transfers): round `k`'s
/// best total is the earliest arrival achievable with at most `k`
/// boardings.
#[derive(Debug, Clone, Copy)]
struct RoundBest {
    round: usize,
    total: u32,
    stop: StopId,
    egress_walk: u32,
}

/// How a stop's arrival time was achieved in a given round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Label {
    /// Not improved this round (carried over from the previous round).
    None,
    /// Walked from the origin (round 0 only).
    Access { walk_secs: u32 },
    /// Rode a trip of `pattern` from `board_pos` to `alight_pos`.
    Ride { pattern: u32, trip_idx: u32, board_pos: u32, alight_pos: u32 },
    /// Foot transfer from another stop improved this round.
    Foot { from: StopId, walk_secs: u32 },
}

/// Per-router query state, allocated once in [`Raptor::new`] and cleared —
/// never reallocated — between queries. Labeling runs millions of SPQs per
/// pipeline pass (§IV-E), so the allocator must stay off this path.
struct Scratch {
    /// `tau_star[s]`: best-known arrival at `s` across all rounds so far —
    /// the local-pruning array. Replaces the old per-round arrival matrix
    /// (and its O(n_stops) copy-forward per round).
    tau_star: Vec<u32>,
    /// `tau_star` as of the end of the previous round; boarding reads this
    /// so round `k` only extends journeys with ≤ `k - 1` boardings.
    tau_prev: Vec<u32>,
    /// `labels[k][s]`: how round `k` achieved its arrival at `s`.
    labels: Vec<Vec<Label>>,
    /// Stops improved in the current round (deduplicated).
    marked: Vec<StopId>,
    /// Stops the foot phase still has to sweep, one bit per stop; empty
    /// between rounds.
    sweep: Vec<u64>,
    /// Membership bitmask for `marked`: a stop improved twice in one round
    /// is processed once.
    stop_marked: Vec<bool>,
    /// Per-pattern earliest marked position, valid when the generation
    /// stamp matches the current round.
    queue_pos: Vec<u32>,
    /// Generation stamps for `queue_pos`.
    queue_gen: Vec<u32>,
    /// Current queue generation (bumped per round).
    queue_round: u32,
    /// Pattern ids touched this round, sorted for a deterministic scan.
    queue_patterns: Vec<u32>,
    /// Egress walk seconds per stop, valid when `egress_gen` matches.
    egress_walk: Vec<u32>,
    /// Generation stamps for `egress_walk`.
    egress_gen: Vec<u32>,
    /// Current egress generation (bumped per query).
    egress_round: u32,
    /// Road-graph Dijkstra state for the access/egress isochrones.
    walk: WalkScratch,
    /// Isochrone output: road nodes within the walk budget.
    walk_nodes: Vec<(NodeId, f64)>,
    /// Staging buffer for isochrones on a cache miss.
    access_tmp: Vec<(StopId, u32)>,
    /// This router's handle on the access cache of the network's stop
    /// tables.
    cache: CacheHandle,
}

impl Scratch {
    fn new(rounds: usize, n_stops: usize, n_patterns: usize, cache: CacheHandle) -> Self {
        Scratch {
            tau_star: vec![INF; n_stops],
            tau_prev: vec![INF; n_stops],
            labels: vec![vec![Label::None; n_stops]; rounds + 1],
            marked: Vec::new(),
            sweep: vec![0; n_stops.div_ceil(64)],
            stop_marked: vec![false; n_stops],
            queue_pos: vec![0; n_patterns],
            queue_gen: vec![0; n_patterns],
            queue_round: 0,
            queue_patterns: Vec::new(),
            egress_walk: vec![0; n_stops],
            egress_gen: vec![0; n_stops],
            egress_round: 0,
            walk: WalkScratch::new(),
            walk_nodes: Vec::new(),
            access_tmp: Vec::new(),
            cache,
        }
    }

    /// The memoized isochrone of `point`; valid until the next
    /// `begin_query`.
    fn lookup(&mut self, net: &TransitNetwork<'_>, point: &Point) -> AccessRange {
        self.cache.lookup(net, point, &mut self.walk, &mut self.walk_nodes, &mut self.access_tmp)
    }
}

/// The RAPTOR router over a prepared [`TransitNetwork`].
///
/// Holds reusable query scratch behind a `RefCell`, which makes a router
/// `!Sync` — share networks across threads, not routers. Every existing
/// call-site already builds one router per worker.
pub struct Raptor<'n, 'a> {
    net: &'n TransitNetwork<'a>,
    scratch: RefCell<Scratch>,
    /// Target pruning + early exit on; off only for the reference oracle.
    pruning: bool,
}

impl<'n, 'a> Raptor<'n, 'a> {
    /// Wraps a prepared network. Pruning is on: this is the production
    /// router.
    pub fn new(net: &'n TransitNetwork<'a>) -> Self {
        Self::with_pruning(net, true)
    }

    /// The unpruned reference router: every round scans every touched
    /// pattern, exactly like the pre-pruning implementation. It is the
    /// reference `tests/prune_equivalence.rs` holds the pruned router to,
    /// leg for leg, and the scan count `tests/prune_counters.rs` measures
    /// the pruning drop against.
    pub fn reference(net: &'n TransitNetwork<'a>) -> Self {
        Self::with_pruning(net, false)
    }

    fn with_pruning(net: &'n TransitNetwork<'a>, pruning: bool) -> Self {
        let scratch = RefCell::new(Scratch::new(
            net.cfg.max_boardings,
            net.n_stops(),
            net.n_patterns(),
            net.access_cache().handle(),
        ));
        Raptor { net, scratch, pruning }
    }

    /// Earliest-arriving journey from `origin` to `dest` departing at
    /// `depart` on `day`. Always returns a journey: the walk-only fallback
    /// guarantees finiteness even across a severed network.
    pub fn query(&self, origin: &Point, dest: &Point, depart: Stime, day: DayOfWeek) -> Journey {
        self.query_one(origin, dest, depart, day, None)
    }

    /// Earliest-arriving journeys from `origin` to every point of `dests`,
    /// departing at `depart` on `day`: `out` is cleared and receives one
    /// journey per destination, in order.
    ///
    /// One round loop serves the whole group. It runs without target
    /// pruning (there is no single target to bound against), so each
    /// journey is leg for leg the one [`Raptor::reference`] returns for its
    /// destination; only the egress scan and the reconstruction run per
    /// destination. `raptor.queries` counts the pass once.
    pub fn query_many(
        &self,
        origin: &Point,
        dests: &[Point],
        depart: Stime,
        day: DayOfWeek,
        out: &mut Vec<Journey>,
    ) {
        out.clear();
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        s.cache.begin_query();
        let origin_acc = s.lookup(self.net, origin);
        let final_k = self.rounds(s, origin_acc, None, INF, depart, day, None);
        for dest in dests {
            // The origin's range is dead once the rounds are done, so each
            // egress lookup opens a cache window of its own.
            s.cache.begin_query();
            let egress = s.lookup(self.net, dest);
            let direct = depart.0.saturating_add(self.net.direct_walk_secs(origin, dest));
            out.push(self.finish(s, egress, final_k, depart, direct));
        }
    }

    /// [`query`](Self::query), optionally recording each round's best
    /// completed journey for [`query_pareto`](Self::query_pareto).
    fn query_one(
        &self,
        origin: &Point,
        dest: &Point,
        depart: Stime,
        day: DayOfWeek,
        round_best: Option<&mut Vec<RoundBest>>,
    ) -> Journey {
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        // Both isochrones up front: the egress set drives the pruning
        // bound through every round. `begin_query` guarantees neither
        // lookup evicts the other's range.
        s.cache.begin_query();
        let egress = s.lookup(self.net, dest);
        let origin_acc = s.lookup(self.net, origin);
        let direct = depart.0.saturating_add(self.net.direct_walk_secs(origin, dest));
        let bound = if self.pruning { direct } else { INF };
        let final_k = self.rounds(s, origin_acc, Some(egress), bound, depart, day, round_best);
        self.finish(s, egress, final_k, depart, direct)
    }

    /// The round loop every query shares; returns the last round whose
    /// labels row is valid. `egress` is the target's isochrone when the
    /// query has one target. A finite `bound` (the direct-walk arrival)
    /// switches on target pruning against it and the early exit; at `INF`
    /// nothing is ever suppressed. `round_best` records each round's best
    /// completion over `egress`.
    #[allow(clippy::too_many_arguments)]
    fn rounds(
        &self,
        s: &mut Scratch,
        origin_acc: AccessRange,
        egress: Option<AccessRange>,
        mut bound: u32,
        depart: Stime,
        day: DayOfWeek,
        mut round_best: Option<&mut Vec<RoundBest>>,
    ) -> usize {
        // Deferred span: only sample the clock when a trace is live, so
        // the untraced hot path stays a thread-local read.
        let t_span = staq_obs::trace::is_active().then(std::time::Instant::now);
        let rounds = self.net.cfg.max_boardings;
        // The destination-independent skips (day filter, last stop).
        let skips = self.pruning;
        // Resolved once: the round loops below index it per scanned pattern.
        let patterns = self.net.patterns();
        let mut rounds_run = 0u64;
        let mut patterns_scanned = 0u64;
        let mut patterns_pruned = 0u64;
        let mut patterns_day_skipped = 0u64;
        let mut rounds_cut = 0u64;

        let Scratch {
            tau_star,
            tau_prev,
            labels,
            marked,
            sweep,
            stop_marked,
            queue_pos,
            queue_gen,
            queue_round,
            queue_patterns,
            egress_walk,
            egress_gen,
            egress_round,
            cache,
            ..
        } = s;

        // A cut query can leave its last round's marks unconsumed.
        for &st in marked.iter() {
            stop_marked[st.idx()] = false;
        }
        marked.clear();
        tau_star.fill(INF);
        labels[0].fill(Label::None);

        // Bumped even without a target, so last query's stamps go stale.
        *egress_round = egress_round.wrapping_add(1);
        if *egress_round == 0 {
            egress_gen.fill(0);
            *egress_round = 1;
        }
        // `min_eg` is a lower bound on what any journey still owes after
        // its last alighting: every total is some arrival plus an egress
        // walk of at least this much. Pruning on `arrival + min_eg` is
        // therefore still exact and strictly tighter than `arrival` alone.
        // An empty egress set leaves it saturating — no transit journey can
        // complete, so with pruning on everything collapses to the walk
        // fallback (which the reference also returns).
        //
        // `bound` is the upper bound on any total arrival worth recording,
        // seeded by the walk-only fallback. Invariant: never below the
        // optimal total, so pruning arrivals whose completion must be
        // strictly later is exact (ties are kept — that is what makes the
        // *journeys*, not just the arrival times, identical to the
        // reference). At `INF` target pruning is off: `x > INF` never holds.
        let mut min_eg = 0;
        if let Some(eg) = egress.filter(|_| bound < INF) {
            min_eg = INF;
            for &(st, w) in cache.slice(eg) {
                egress_walk[st.idx()] = w;
                egress_gen[st.idx()] = *egress_round;
                min_eg = min_eg.min(w);
            }
        }

        // Whether pruning suppressed any would-be improvement or marked
        // stop in the round just processed; decides whether an empty
        // `marked` at the next round means "cut by the bound" (counted in
        // `raptor.rounds_cut`) or natural exhaustion.
        let mut suppressed_prev = false;

        for &(st, w) in cache.slice(origin_acc) {
            let t = depart.0.saturating_add(w);
            let idx = st.idx();
            if t < tau_star[idx] {
                if t.saturating_add(min_eg) > bound {
                    suppressed_prev = true;
                    continue;
                }
                tau_star[idx] = t;
                labels[0][idx] = Label::Access { walk_secs: w };
                if !stop_marked[idx] {
                    stop_marked[idx] = true;
                    marked.push(st);
                }
                if egress_gen[idx] == *egress_round {
                    bound = bound.min(t.saturating_add(egress_walk[idx]));
                }
            }
        }
        if let (Some(rb), Some(eg)) = (round_best.as_deref_mut(), egress) {
            record_round_best(rb, 0, cache.slice(eg), tau_star);
        }

        // Last round whose labels row is valid; reconstruction starts here.
        let mut final_k = 0usize;
        #[allow(clippy::needless_range_loop)] // k is the round number, not just an index
        for k in 1..=rounds {
            if marked.is_empty() {
                if suppressed_prev {
                    rounds_cut += (rounds - k + 1) as u64;
                }
                break;
            }
            suppressed_prev = false;

            // Queue: each pattern touched by a surviving marked stop, with
            // the earliest marked position along it.
            *queue_round = queue_round.wrapping_add(1);
            if *queue_round == 0 {
                queue_gen.fill(0);
                *queue_round = 1;
            }
            queue_patterns.clear();
            let mut dropped_any = false;
            for &st in marked.iter() {
                let idx = st.idx();
                stop_marked[idx] = false;
                if tau_star[idx].saturating_add(min_eg) > bound {
                    // Boarding here departs no earlier than an arrival
                    // that — after paying the cheapest possible egress —
                    // already trails the bound: nothing downstream can beat
                    // or tie the best journey.
                    patterns_pruned += self.net.patterns_at(st).len() as u64;
                    dropped_any = true;
                    suppressed_prev = true;
                    continue;
                }
                for &(p, pos) in self.net.patterns_at(st) {
                    let pi = p as usize;
                    if skips && !patterns[pi].runs_on(day) {
                        // No trip of this pattern runs on the query day:
                        // `earliest_trip` would reject every candidate, so
                        // scanning it is a provable no-op.
                        patterns_day_skipped += 1;
                        continue;
                    }
                    if skips && pos as usize + 1 >= patterns[pi].stops.len() {
                        // Boarding at a pattern's last stop can't alight
                        // anywhere: the scan would be a provable no-op.
                        patterns_pruned += 1;
                        continue;
                    }
                    if queue_gen[pi] == *queue_round {
                        queue_pos[pi] = queue_pos[pi].min(pos);
                    } else {
                        queue_gen[pi] = *queue_round;
                        queue_pos[pi] = pos;
                        queue_patterns.push(p);
                    }
                }
            }
            marked.clear();
            if queue_patterns.is_empty() {
                if dropped_any {
                    rounds_cut += (rounds - k + 1) as u64;
                }
                break;
            }

            rounds_run += 1;
            final_k = k;
            tau_prev.copy_from_slice(tau_star);
            labels[k].fill(Label::None);
            queue_patterns.sort_unstable(); // deterministic scan order
            patterns_scanned += queue_patterns.len() as u64;

            for &pi in queue_patterns.iter() {
                let start_pos = queue_pos[pi as usize];
                let pattern = &patterns[pi as usize];
                let mut active: Option<(usize, usize)> = None; // (trip_idx, board_pos)
                for i in start_pos as usize..pattern.stops.len() {
                    let stop = pattern.stops[i];
                    let idx = stop.idx();
                    if let Some((t, b)) = active {
                        let at = pattern.arrival(t, i).0;
                        if at < tau_star[idx] {
                            if at.saturating_add(min_eg) > bound {
                                suppressed_prev = true;
                            } else {
                                tau_star[idx] = at;
                                labels[k][idx] = Label::Ride {
                                    pattern: pi,
                                    trip_idx: t as u32,
                                    board_pos: b as u32,
                                    alight_pos: i as u32,
                                };
                                if !stop_marked[idx] {
                                    stop_marked[idx] = true;
                                    marked.push(stop);
                                }
                                if egress_gen[idx] == *egress_round {
                                    bound = bound.min(at.saturating_add(egress_walk[idx]));
                                }
                            }
                        }
                    }
                    // Board (or re-board an earlier trip) using the previous
                    // round's arrival at this stop.
                    let ready = tau_prev[idx];
                    if ready < INF {
                        match active {
                            None => {
                                // First boarding along the scan: one binary
                                // search over the position's sorted
                                // departure column.
                                if let Some(t2) = pattern.earliest_trip(i, Stime(ready), day) {
                                    active = Some((t2, i));
                                }
                            }
                            Some((t, _)) => {
                                // Flattened-layout cursor: instead of
                                // re-running the binary search, walk the
                                // contiguous departure column down from the
                                // active trip to the earliest one still
                                // catchable, then forward past trips not
                                // running today. The active trip index only
                                // ever decreases along a scan, so the
                                // walk-down is amortized O(n_trips) per
                                // pattern — and the result is exactly
                                // `earliest_trip`'s answer whenever that
                                // answer is an earlier trip (the only case
                                // the old code acted on).
                                let col = pattern.departures_at(i);
                                let mut t2 = t;
                                while t2 > 0 && col[t2 - 1].0 >= ready {
                                    t2 -= 1;
                                }
                                while t2 < t && !pattern.trip_runs_on(t2, day) {
                                    t2 += 1;
                                }
                                if t2 < t {
                                    active = Some((t2, i));
                                }
                            }
                        }
                    }
                }
            }

            // Foot transfers, swept in stop-id order (see the module doc):
            // the stops riding improved, plus every stop a transfer improves
            // ahead of the sweep. Stops the bound suppressed never enter it;
            // the reference sweeps them from arrivals past the bound, which
            // complete nothing that beats or ties it.
            let mut w = usize::MAX;
            for &st in marked.iter() {
                sweep[st.idx() / 64] |= 1 << (st.idx() % 64);
                w = w.min(st.idx() / 64);
            }
            while w < sweep.len() {
                let bits = sweep[w];
                if bits == 0 {
                    w += 1;
                    continue;
                }
                sweep[w] = bits & (bits - 1);
                let st = StopId((w * 64) as u32 + bits.trailing_zeros());
                let base = tau_star[st.idx()];
                if base.saturating_add(min_eg) > bound {
                    // Every transfer out of here completes past the bound.
                    suppressed_prev = true;
                    continue;
                }
                for tr in self.net.transfers_from(st) {
                    let t = base.saturating_add(tr.walk_secs);
                    let idx = tr.to.idx();
                    if t < tau_star[idx] {
                        if t.saturating_add(min_eg) > bound {
                            suppressed_prev = true;
                            continue;
                        }
                        tau_star[idx] = t;
                        labels[k][idx] = Label::Foot { from: st, walk_secs: tr.walk_secs };
                        if !stop_marked[idx] {
                            stop_marked[idx] = true;
                            marked.push(tr.to);
                        }
                        if tr.to > st {
                            sweep[idx / 64] |= 1 << (idx % 64);
                        }
                        if egress_gen[idx] == *egress_round {
                            bound = bound.min(t.saturating_add(egress_walk[idx]));
                        }
                    }
                }
            }
            if let (Some(rb), Some(eg)) = (round_best.as_deref_mut(), egress) {
                record_round_best(rb, k, cache.slice(eg), tau_star);
            }
        }

        // One batched registry update per pass: eight labeling workers
        // bumping shared counters per round/pattern would contend on the
        // counters' cache lines inside the inner loop.
        QUERIES.inc();
        ROUNDS.add(rounds_run);
        PATTERNS_SCANNED.add(patterns_scanned);
        PATTERNS_PRUNED.add(patterns_pruned);
        PATTERNS_DAY_SKIPPED.add(patterns_day_skipped);
        ROUNDS_CUT.add(rounds_cut);
        if let Some(t0) = t_span {
            let mut span = staq_obs::trace::span_at("raptor.query", t0);
            span.attr("rounds", rounds_run);
            span.attr("patterns_scanned", patterns_scanned);
        }
        final_k
    }

    /// The journey to the target whose isochrone is `egress`, read off the
    /// labels the round loop left: the earliest completion over the
    /// walkable stops around it, or the direct walk when that is no later.
    fn finish(
        &self,
        s: &Scratch,
        egress: AccessRange,
        final_k: usize,
        depart: Stime,
        direct: u32,
    ) -> Journey {
        match best_exit(s.cache.slice(egress), &s.tau_star) {
            Some((total, stop, egress_w)) if total < direct => {
                self.reconstruct(&s.labels[..=final_k], depart, stop, egress_w, Stime(total))
            }
            _ => Journey::walk_only(depart, direct - depart.0),
        }
    }

    /// Earliest arrival time only (no journey construction) — used by tests
    /// to cross-check against the Dijkstra baseline cheaply.
    pub fn earliest_arrival(
        &self,
        origin: &Point,
        dest: &Point,
        depart: Stime,
        day: DayOfWeek,
    ) -> Stime {
        self.query(origin, dest, depart, day).arrive
    }

    /// The Pareto frontier over **(arrival time, transfers)**: every
    /// returned journey is undominated — no other journey arrives no later
    /// with no more transfers — and together they cover every trade-off the
    /// network offers up to `cfg.max_boardings` rides.
    ///
    /// RAPTOR's rounds *are* the second criterion: the best total at the
    /// end of round `k` is the earliest arrival with at most `k` boardings,
    /// so recording each improving round and reconstructing its journey
    /// yields one frontier candidate per ride count; a [`Bag`] then keeps
    /// the undominated ones (by the journeys' actual transfer counts — a
    /// round-`k` candidate may reconstruct with fewer rides). The walk-only
    /// fallback competes as the zero-transfer candidate. Pruning stays
    /// exact for the whole frontier, not just the best total: the bound
    /// never undercuts the optimal ≤`k`-boardings total while round `k`
    /// runs, so every label on an optimal ≤`k` chain survives.
    ///
    /// Sorted by increasing transfers (hence decreasing arrival).
    pub fn query_pareto(
        &self,
        origin: &Point,
        dest: &Point,
        depart: Stime,
        day: DayOfWeek,
    ) -> Vec<Journey> {
        let mut rounds_best: Vec<RoundBest> = Vec::new();
        let _ = self.query_one(origin, dest, depart, day, Some(&mut rounds_best));

        let mut candidates: Vec<Journey> = Vec::new();
        {
            // The labels rows survive `query_one` untouched; reconstruct
            // each improving round's journey from its prefix of rounds.
            let s = self.scratch.borrow();
            for rb in &rounds_best {
                candidates.push(self.reconstruct(
                    &s.labels[..=rb.round],
                    depart,
                    rb.stop,
                    rb.egress_walk,
                    Stime(rb.total),
                ));
            }
        }
        candidates.push(Journey::walk_only(depart, self.net.direct_walk_secs(origin, dest)));

        let mut bag = Bag::new();
        for j in &candidates {
            bag.insert(ParetoLabel {
                arrival: j.arrive,
                transfers: j.n_transfers().min(u8::MAX as usize) as u8,
            });
        }
        let mut frontier: Vec<Journey> = Vec::new();
        for j in candidates {
            let l = ParetoLabel {
                arrival: j.arrive,
                transfers: j.n_transfers().min(u8::MAX as usize) as u8,
            };
            if bag.contains(&l)
                && !frontier
                    .iter()
                    .any(|f| f.arrive == j.arrive && f.n_transfers() == j.n_transfers())
            {
                frontier.push(j);
            }
        }
        frontier.sort_by_key(|j| (j.n_transfers(), j.arrive));
        frontier
    }

    /// Earliest-arriving journey using at most `max_transfers` transfers
    /// (i.e. at most `max_transfers + 1` rides) — "fastest with ≤1
    /// transfer". Falls back to walking when no such transit journey
    /// exists. Transfer depth is naturally capped by `cfg.max_boardings`.
    pub fn query_max_transfers(
        &self,
        origin: &Point,
        dest: &Point,
        depart: Stime,
        day: DayOfWeek,
        max_transfers: u8,
    ) -> Journey {
        self.query_pareto(origin, dest, depart, day)
            .into_iter()
            .filter(|j| j.n_transfers() <= max_transfers as usize)
            .min_by_key(|j| j.arrive)
            .unwrap_or_else(|| Journey::walk_only(depart, self.net.direct_walk_secs(origin, dest)))
    }

    /// Rebuilds legs by walking labels backwards from the egress stop.
    fn reconstruct(
        &self,
        labels: &[Vec<Label>],
        depart: Stime,
        egress_stop: StopId,
        egress_walk: u32,
        arrive: Stime,
    ) -> Journey {
        let mut rev: Vec<Leg> = Vec::new();
        if egress_walk > 0 {
            rev.push(Leg::Walk { secs: egress_walk, to_stop: None });
        }
        let mut k = labels.len() - 1;
        let mut stop = egress_stop;
        loop {
            // Find the round that actually set this stop's current value.
            while labels[k][stop.idx()] == Label::None {
                debug_assert!(k > 0, "unlabeled stop {stop:?} reached during reconstruction");
                k -= 1;
            }
            match labels[k][stop.idx()] {
                Label::None => unreachable!(),
                Label::Access { walk_secs } => {
                    rev.push(Leg::Walk { secs: walk_secs, to_stop: Some(stop) });
                    break;
                }
                Label::Foot { from, walk_secs } => {
                    rev.push(Leg::Walk { secs: walk_secs, to_stop: Some(stop) });
                    stop = from;
                }
                Label::Ride { pattern, trip_idx, board_pos, alight_pos } => {
                    let p = &self.net.patterns()[pattern as usize];
                    let board_stop = p.stops[board_pos as usize];
                    let board = p.departure(trip_idx as usize, board_pos as usize);
                    let alight = p.arrival(trip_idx as usize, alight_pos as usize);
                    rev.push(Leg::Ride {
                        trip: p.trips[trip_idx as usize],
                        route: p.route,
                        from_stop: board_stop,
                        to_stop: stop,
                        board,
                        alight,
                    });
                    stop = board_stop;
                    k -= 1;
                }
            }
        }
        rev.reverse();

        // Forward pass: derive waits from the chain's own clock. They
        // cannot come from the arrival table: chained foot transfers may
        // overwrite a parent label after a successor's value was derived
        // from the parent's older (slower) value, so the label chain can
        // reach a boarding stop strictly earlier than the table recorded —
        // the slack is real waiting time, and the chain end (never later
        // than the table-derived bound) is the journey's true arrival.
        let mut legs: Vec<Leg> = Vec::with_capacity(rev.len() + 1);
        let mut t = depart;
        for leg in rev {
            match leg {
                Leg::Walk { secs, .. } => {
                    t = t.plus(secs);
                    legs.push(leg);
                }
                Leg::Wait { .. } => unreachable!("waits are derived in the forward pass"),
                Leg::Ride { board, alight, from_stop, .. } => {
                    debug_assert!(
                        t.0 <= board.0,
                        "chain reaches {from_stop:?} at {t:?}, after boarding at {board:?}"
                    );
                    let wait = board.0.saturating_sub(t.0);
                    if wait > 0 {
                        legs.push(Leg::Wait { secs: wait, at_stop: from_stop });
                    }
                    t = alight;
                    legs.push(leg);
                }
            }
        }
        debug_assert!(t.0 <= arrive.0, "chain arrival {t:?} exceeds arr bound {arrive:?}");
        let j = Journey { depart, arrive: t, legs };
        debug_assert!(j.check_consistency().is_ok(), "{:?}", j.check_consistency());
        j
    }
}

/// The earliest completion `(total, stop, egress_walk)` over the egress
/// set as of `tau_star`: the first stop in slice order with a strictly
/// smaller total wins.
fn best_exit(egress: &[(StopId, u32)], tau_star: &[u32]) -> Option<(u32, StopId, u32)> {
    let mut best: Option<(u32, StopId, u32)> = None;
    for &(st, w) in egress {
        let at = tau_star[st.idx()];
        if at == INF {
            continue;
        }
        let total = at.saturating_add(w);
        if best.is_none_or(|(bt, _, _)| total < bt) {
            best = Some((total, st, w));
        }
    }
    best
}

/// Best completed journey over the egress set as of now, appended to `out`
/// when it strictly improves on the last recorded round (the frontier only
/// cares about rounds that buy an earlier arrival).
fn record_round_best(
    out: &mut Vec<RoundBest>,
    round: usize,
    egress: &[(StopId, u32)],
    tau_star: &[u32],
) {
    if let Some((total, stop, egress_walk)) = best_exit(egress, tau_star) {
        if out.last().is_none_or(|p| total < p.total) {
            out.push(RoundBest { round, total, stop, egress_walk });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AccessCost;
    use crate::network::RouterConfig;
    use staq_synth::{City, CityConfig};

    fn city() -> City {
        City::generate(&CityConfig::small(42))
    }

    fn queries(city: &City, n: usize) -> Vec<(Point, Point)> {
        // Deterministic OD pairs spread across zones.
        (0..n)
            .map(|i| {
                let o = city.zones[(i * 7) % city.zones.len()].centroid;
                let d = city.zones[(i * 13 + 5) % city.zones.len()].centroid;
                (o, d)
            })
            .collect()
    }

    #[test]
    fn journeys_are_consistent_and_finite() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let router = Raptor::new(&net);
        let depart = Stime::hms(7, 30, 0);
        for (o, d) in queries(&city, 40) {
            let j = router.query(&o, &d, depart, DayOfWeek::Tuesday);
            j.check_consistency().unwrap();
            assert!(j.arrive >= depart);
            assert!(j.jt_secs() < 4 * 3600, "city crossing under 4h, got {}s", j.jt_secs());
        }
    }

    #[test]
    fn some_journeys_use_transit() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let router = Raptor::new(&net);
        let mut rides = 0;
        let mut walks = 0;
        for (o, d) in queries(&city, 40) {
            let j = router.query(&o, &d, Stime::hms(7, 30, 0), DayOfWeek::Tuesday);
            if j.is_walk_only() {
                walks += 1;
            } else {
                rides += 1;
            }
        }
        assert!(rides > 0, "no transit journeys found at all");
        assert!(walks > 0, "short trips should prefer walking");
    }

    #[test]
    fn transit_never_loses_to_walking_badly() {
        // The router picks transit only when it beats the walk fallback.
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let router = Raptor::new(&net);
        for (o, d) in queries(&city, 30) {
            let j = router.query(&o, &d, Stime::hms(7, 30, 0), DayOfWeek::Tuesday);
            let walk = net.direct_walk_secs(&o, &d);
            assert!(j.jt_secs() <= walk, "journey {} worse than walking {walk}", j.jt_secs());
        }
    }

    #[test]
    fn sunday_has_no_service_so_everything_walks() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let router = Raptor::new(&net);
        for (o, d) in queries(&city, 10) {
            let j = router.query(&o, &d, Stime::hms(7, 30, 0), DayOfWeek::Sunday);
            assert!(j.is_walk_only());
        }
    }

    #[test]
    fn later_departure_never_arrives_earlier() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let router = Raptor::new(&net);
        for (o, d) in queries(&city, 15) {
            let j1 = router.query(&o, &d, Stime::hms(7, 0, 0), DayOfWeek::Tuesday);
            let j2 = router.query(&o, &d, Stime::hms(7, 20, 0), DayOfWeek::Tuesday);
            assert!(
                j2.arrive.plus(1) >= j1.arrive,
                "FIFO violated: {:?} vs {:?}",
                j1.arrive,
                j2.arrive
            );
        }
    }

    #[test]
    fn zero_boardings_config_walks_everywhere() {
        let city = city();
        let cfg = RouterConfig { max_boardings: 0, ..RouterConfig::default() };
        let net = TransitNetwork::new(&city.road, &city.feed, cfg);
        let router = Raptor::new(&net);
        let (o, d) = queries(&city, 1)[0];
        let j = router.query(&o, &d, Stime::hms(7, 30, 0), DayOfWeek::Tuesday);
        assert!(j.is_walk_only());
    }

    #[test]
    fn gac_cost_computable_for_all_journeys() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let router = Raptor::new(&net);
        let gac = AccessCost::gac();
        let jt = AccessCost::jt();
        for (o, d) in queries(&city, 20) {
            let j = router.query(&o, &d, Stime::hms(8, 0, 0), DayOfWeek::Tuesday);
            let g = gac.cost(&j);
            let t = jt.cost(&j);
            assert!(g.is_finite() && g >= 0.0);
            assert!(g >= t * 0.99, "GAC {g} below JT {t}");
        }
    }

    /// The reference router is the same machine with pruning off; smoke
    /// check it still routes (full equivalence lives in
    /// `tests/prune_equivalence.rs`).
    #[test]
    fn reference_router_routes() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let router = Raptor::reference(&net);
        let (o, d) = queries(&city, 5)[4];
        let j = router.query(&o, &d, Stime::hms(7, 30, 0), DayOfWeek::Tuesday);
        j.check_consistency().unwrap();
    }
}
