//! Length-prefixed binary wire protocol for access-query serving.
//!
//! There is one frame layout and one version, [`WIRE_VERSION`]. Every
//! frame, request or response, is:
//!
//! ```text
//! +----------------+-----------+----------+----------------+
//! | len: u32 (BE)  | ver: u8   | kind: u8 | body (len-2 B) |
//! +----------------+-----------+----------+----------------+
//! ```
//!
//! `len` counts everything after itself (version byte + kind byte +
//! body). Integers and floats are big-endian. Strings are `u16` length +
//! UTF-8 bytes. A frame whose version byte is not [`WIRE_VERSION`] is
//! rejected from its first five bytes, whatever length it claims; the
//! server answers one `BadRequest` error frame and closes the connection.
//!
//! Request kinds are `0x01..=0x0B` (`0x04` is retired); response kinds
//! mirror them with the high bit set, and `0xFF` is the error frame — so
//! a response can never be confused for a request even if framing slips.
//!
//! A request body is
//!
//! ```text
//! req id: u64 | trace id: u64 | span id: u64 | flags: u8
//!             | [deadline ms: u32 when flags bit 0] | payload
//! ```
//!
//! and a response body is the echoed `req id: u64` followed by the
//! payload. The ID is what makes a connection multiplexable: many
//! requests in flight, each response matched by ID rather than arrival
//! order, so the server answers in completion order. Clients that
//! pipeline MUST use distinct IDs; a strictly sequential client may send
//! 0 throughout. The trace context (both words zero when untraced) is
//! the calling thread's current [`SpanContext`] — [`encode_request`]
//! stamps it automatically, so a client running inside a span propagates
//! it without any API change. The optional deadline is the client's
//! total time budget: the server sheds the request with
//! [`ErrorCode::Overloaded`] instead of queueing it past its useful life.
//!
//! ## Streaming frames
//!
//! `ApplyDelta` carries one [`Delta`] plus an explicit sequence number
//! (0 = "assign the next one"); `DeltaBatch` carries a contiguous run of
//! deltas starting at `first_seq` — the catch-up payload replicas replay
//! idempotently. `WhatIf` evaluates K counterfactual scenarios (each a
//! delta list) against the live engine and answers one [`AccessQuery`]
//! per scenario, side by side. A server whose delta log is behind a
//! claimed sequence number answers an [`ErrorCode::SeqGap`] error frame;
//! the sender recovers by resending from the gap. `Plan` asks for
//! point-to-point journeys: the full Pareto (arrival, transfers)
//! frontier, or the single fastest journey within a transfer cap.
//! `OpsReport` is the fleet-health poll: windowed per-class rates, SLO
//! burn status, and retained slow traces in one frame.

use bytes::{Buf, BufMut, BytesMut};
use staq_access::measures::ZoneMeasures;
use staq_access::{AccessClass, AccessQuery, DemographicWeight, QueryAnswer};
use staq_geom::Point;
use staq_gtfs::model::{RouteId, StopId, TripId};
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_gtfs::Delta;
use staq_obs::SpanContext;
use staq_obs::{trace, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, OwnedSpan};
use staq_obs::{BurnWindow, ClassWindow, OpsReport, SloStatus, SlowTrace};
use staq_synth::{PoiCategory, ZoneId};
use staq_transit::{Journey, Leg};

/// The protocol version this build speaks, on encode and decode alike.
pub const WIRE_VERSION: u8 = 4;

/// Oldest version accepted on decode — the current one; no older peer
/// is served.
pub const MIN_WIRE_VERSION: u8 = WIRE_VERSION;

/// Upper bound on `len`; larger frames indicate a desynced or hostile
/// peer and are rejected before any allocation.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// A request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Full SSR measure vector for one category. `approx` opts into the
    /// engine's approximate serving mode (the flag rides the high bit of
    /// the category byte).
    Measures { category: PoiCategory, approx: bool },
    /// An analytical access query against one category; `approx` as on
    /// [`Request::Measures`] — `PointAccess` queries may then be answered
    /// by interpolation within the server's error bound.
    Query { category: PoiCategory, query: AccessQuery, approx: bool },
    /// Scenario edit: add a POI at a position.
    AddPoi { category: PoiCategory, pos: Point },
    /// Server counters (pipeline runs, cache state, requests served).
    Stats,
    /// Recent completed spans with duration ≥ `min_dur_ns`; optionally
    /// retunes the server's capture threshold first.
    TraceDump { min_dur_ns: u64, set_capture_ns: Option<u64> },
    /// Streaming edit: apply one delta at a sequence number (0 = assign
    /// the next one) to the server's delta log.
    ApplyDelta { seq: u64, delta: Delta },
    /// Streaming catch-up: a contiguous run of deltas starting at
    /// `first_seq`; already-seen prefixes are skipped idempotently.
    DeltaBatch { first_seq: u64, deltas: Vec<Delta> },
    /// Evaluate each counterfactual scenario (a delta list) against the
    /// live engine and answer `query` under each, side by side.
    WhatIf { category: PoiCategory, scenarios: Vec<Vec<Delta>>, query: AccessQuery },
    /// Point-to-point journey planning against the live timetable.
    /// `max_transfers: None` asks for the whole Pareto (arrival,
    /// transfers) frontier; `Some(k)` for the single fastest journey
    /// using at most `k` transfers.
    Plan { origin: Point, dest: Point, depart: Stime, day: DayOfWeek, max_transfers: Option<u8> },
    /// Fleet-health poll: windowed per-class rates and quantiles, SLO
    /// burn status, and retained slow traces, in one frame.
    OpsReport,
}

impl Request {
    /// Short label for latency reporting, one per request kind.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Request::Measures { .. } => "measures",
            Request::Query { .. } => "query",
            Request::AddPoi { .. } => "add_poi",
            Request::Stats => "stats",
            Request::TraceDump { .. } => "trace_dump",
            Request::ApplyDelta { .. } => "apply_delta",
            Request::DeltaBatch { .. } => "delta_batch",
            Request::WhatIf { .. } => "what_if",
            Request::Plan { .. } => "plan",
            Request::OpsReport => "ops_report",
        }
    }
}

/// A decoded request plus the frame-header facts a server needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedRequest {
    pub request: Request,
    /// The trace context the peer propagated (`SpanContext::NONE` when
    /// untraced).
    pub ctx: SpanContext,
    /// The request ID to echo on the response (sequential clients send
    /// 0 throughout).
    pub req_id: u64,
    /// The client's total time budget for this request, if it set one.
    /// Measured from decode; the server sheds the request once the
    /// budget cannot be met.
    pub deadline_ms: Option<u32>,
}

/// A decoded response plus its frame-level identity — what a
/// multiplexing client needs to match it to a caller.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedResponse {
    pub response: Response,
    /// Echoed request ID.
    pub req_id: u64,
}

/// Server counters exposed over the wire; `pipeline_runs` makes the
/// single-flight guarantee assertable by a remote client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// SSR pipeline executions since startup.
    pub pipeline_runs: u64,
    /// Requests answered (all kinds) since startup.
    pub requests_served: u64,
    /// Categories with a warm cache entry.
    pub cached: Vec<PoiCategory>,
    /// Worker threads in the pool.
    pub workers: u16,
    /// Server-side metrics registry at reply time: per-kind request
    /// latency histograms, engine cache counters, pipeline stage timers.
    pub metrics: MetricsSnapshot,
}

/// Acknowledgement of one streamed delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaAck {
    /// The delta's position in the server's log (1-based).
    pub seq: u64,
    /// Zones whose access artifacts were incrementally rebuilt.
    pub zones_rebuilt: u32,
    /// True when the sequence number was already in the log and the delta
    /// was idempotently skipped (a retried broadcast, not a new edit).
    pub replayed: bool,
}

/// One scenario's answer inside a `WhatIf` response.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfAnswer {
    /// The request's query answered under this scenario's overlay.
    pub answer: QueryAnswer,
    /// Bytes the copy-on-write overlay materialized for this scenario.
    pub overlay_bytes: u64,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Measures(Vec<ZoneMeasures>),
    Query(QueryAnswer),
    AddPoi {
        poi_id: u32,
    },
    Stats(StatsReply),
    /// Spans matching a `TraceDump` request, oldest first.
    TraceDump(Vec<OwnedSpan>),
    /// One streamed delta accepted (or idempotently skipped).
    ApplyDelta(DeltaAck),
    /// A catch-up batch fully applied; `last_seq` is the highest sequence
    /// number now in the server's log from this batch.
    DeltaBatch {
        last_seq: u64,
    },
    /// Per-scenario answers, in request order.
    WhatIf(Vec<WhatIfAnswer>),
    /// Journeys answering a `Plan` request: the Pareto frontier sorted by
    /// transfers ascending, or a single journey under a transfer cap.
    Plan(Vec<Journey>),
    /// The server's ops report — mergeable across a fleet.
    OpsReport(OpsReport),
    /// Semantic failure; the connection stays usable.
    Error {
        code: ErrorCode,
        message: String,
    },
}

/// Error codes carried in error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed or unsupported frame.
    BadRequest = 1,
    /// Structurally valid but semantically rejected (e.g. a one-stop route).
    Invalid = 2,
    /// The server is shutting down or the queue is gone.
    Unavailable = 3,
    /// A streamed delta's sequence number is ahead of the server's log;
    /// the sender must resend the missing tail.
    SeqGap = 4,
    /// Load shed: admission control refused the request (queue budget
    /// exhausted, or its deadline could not be met). Retry later or
    /// against another replica — nothing was executed.
    Overloaded = 5,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::BadRequest),
            2 => Some(ErrorCode::Invalid),
            3 => Some(ErrorCode::Unavailable),
            4 => Some(ErrorCode::SeqGap),
            5 => Some(ErrorCode::Overloaded),
            _ => None,
        }
    }
}

/// Decode-side failure. `Incomplete` is not an error — the caller reads
/// more bytes; everything else means the stream is no longer trustworthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    BadVersion(u8),
    BadKind(u8),
    BadPayload(&'static str),
    FrameTooLarge(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (want {WIRE_VERSION})")
            }
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            CodecError::BadPayload(why) => write!(f, "malformed payload: {why}"),
            CodecError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

const K_MEASURES: u8 = 0x01;
const K_QUERY: u8 = 0x02;
const K_ADD_POI: u8 = 0x03;
const K_STATS: u8 = 0x05;
const K_TRACE_DUMP: u8 = 0x06;
const K_APPLY_DELTA: u8 = 0x07;
const K_DELTA_BATCH: u8 = 0x08;
const K_WHAT_IF: u8 = 0x09;
const K_PLAN: u8 = 0x0A;
const K_OPS_REPORT: u8 = 0x0B;
const K_R_MEASURES: u8 = 0x81;
const K_R_QUERY: u8 = 0x82;
const K_R_ADD_POI: u8 = 0x83;
const K_R_STATS: u8 = 0x85;
const K_R_TRACE_DUMP: u8 = 0x86;
const K_R_APPLY_DELTA: u8 = 0x87;
const K_R_DELTA_BATCH: u8 = 0x88;
const K_R_WHAT_IF: u8 = 0x89;
const K_R_PLAN: u8 = 0x8A;
const K_R_OPS_REPORT: u8 = 0x8B;
const K_R_ERROR: u8 = 0xFF;

fn category_code(c: PoiCategory) -> u8 {
    PoiCategory::ALL.iter().position(|k| *k == c).expect("category in ALL") as u8
}

fn category_from(code: u8) -> Result<PoiCategory, CodecError> {
    PoiCategory::ALL
        .get(code as usize)
        .copied()
        .ok_or(CodecError::BadPayload("unknown POI category"))
}

/// High bit of the category byte on `Measures`/`Query` requests: the
/// approximate-mode opt-in. Category codes stay tiny, so the bit is free.
const APPROX_FLAG: u8 = 0x80;

fn category_byte(c: PoiCategory, approx: bool) -> u8 {
    category_code(c) | if approx { APPROX_FLAG } else { 0 }
}

fn category_and_approx(raw: u8) -> Result<(PoiCategory, bool), CodecError> {
    Ok((category_from(raw & !APPROX_FLAG)?, raw & APPROX_FLAG != 0))
}

fn class_code(c: AccessClass) -> u8 {
    match c {
        AccessClass::Best => 0,
        AccessClass::MostlyGood => 1,
        AccessClass::MostlyBad => 2,
        AccessClass::Worst => 3,
    }
}

fn class_from(code: u8) -> Result<AccessClass, CodecError> {
    Ok(match code {
        0 => AccessClass::Best,
        1 => AccessClass::MostlyGood,
        2 => AccessClass::MostlyBad,
        3 => AccessClass::Worst,
        _ => return Err(CodecError::BadPayload("unknown access class")),
    })
}

fn weight_code(w: DemographicWeight) -> u8 {
    match w {
        DemographicWeight::Uniform => 0,
        DemographicWeight::Population => 1,
        DemographicWeight::Unemployed => 2,
        DemographicWeight::Vulnerable => 3,
        DemographicWeight::Children => 4,
    }
}

fn weight_from(code: u8) -> Result<DemographicWeight, CodecError> {
    Ok(match code {
        0 => DemographicWeight::Uniform,
        1 => DemographicWeight::Population,
        2 => DemographicWeight::Unemployed,
        3 => DemographicWeight::Vulnerable,
        4 => DemographicWeight::Children,
        _ => return Err(CodecError::BadPayload("unknown demographic weight")),
    })
}

/// Strings longer than the `u16` length prefix allows are truncated at
/// the last char boundary that fits, so the bytes on the wire are always
/// valid UTF-8.
fn put_string(buf: &mut BytesMut, s: &str) {
    let n = s.floor_char_boundary(u16::MAX as usize);
    buf.put_u16(n as u16);
    buf.put_slice(&s.as_bytes()[..n]);
}

fn take_string(buf: &mut &[u8]) -> Result<String, CodecError> {
    let n = take_u16(buf)? as usize;
    if buf.remaining() < n {
        return Err(CodecError::BadPayload("truncated string"));
    }
    let s = std::str::from_utf8(&buf.chunk()[..n])
        .map_err(|_| CodecError::BadPayload("non-UTF-8 string"))?
        .to_owned();
    buf.advance(n);
    Ok(s)
}

macro_rules! take_fixed {
    ($name:ident, $ty:ty, $get:ident, $width:expr) => {
        fn $name(buf: &mut &[u8]) -> Result<$ty, CodecError> {
            if buf.remaining() < $width {
                return Err(CodecError::BadPayload("truncated frame"));
            }
            Ok(buf.$get())
        }
    };
}

take_fixed!(take_u8, u8, get_u8, 1);
take_fixed!(take_u16, u16, get_u16, 2);
take_fixed!(take_u32, u32, get_u32, 4);
take_fixed!(take_u64, u64, get_u64, 8);
take_fixed!(take_f64, f64, get_f64, 8);

/// Capacity to pre-reserve for a counted list: trust the claimed count
/// only up to what the remaining bytes could actually hold. A frame that
/// lies about its count (arbitrary bytes from a desynced or hostile peer)
/// must fail on the per-element reads, not get a multi-gigabyte
/// allocation first.
fn capped(claimed: usize, remaining: usize, elem_bytes: usize) -> usize {
    claimed.min(remaining / elem_bytes.max(1))
}

fn encode_query(buf: &mut BytesMut, q: &AccessQuery) {
    match q {
        AccessQuery::MeanAccess => buf.put_u8(0),
        AccessQuery::Classification => buf.put_u8(1),
        AccessQuery::AtRisk { threshold_factor } => {
            buf.put_u8(2);
            buf.put_f64(*threshold_factor);
        }
        AccessQuery::Fairness { weight } => {
            buf.put_u8(3);
            buf.put_u8(weight_code(*weight));
        }
        AccessQuery::WorstZones { k } => {
            buf.put_u8(4);
            buf.put_u32(*k as u32);
        }
        AccessQuery::PointAccess { x, y } => {
            buf.put_u8(5);
            buf.put_f64(*x);
            buf.put_f64(*y);
        }
    }
}

fn decode_query(buf: &mut &[u8]) -> Result<AccessQuery, CodecError> {
    Ok(match take_u8(buf)? {
        0 => AccessQuery::MeanAccess,
        1 => AccessQuery::Classification,
        2 => AccessQuery::AtRisk { threshold_factor: take_f64(buf)? },
        3 => AccessQuery::Fairness { weight: weight_from(take_u8(buf)?)? },
        4 => AccessQuery::WorstZones { k: take_u32(buf)? as usize },
        5 => AccessQuery::PointAccess { x: take_f64(buf)?, y: take_f64(buf)? },
        _ => return Err(CodecError::BadPayload("unknown query tag")),
    })
}

fn encode_answer(buf: &mut BytesMut, a: &QueryAnswer) {
    match a {
        QueryAnswer::MeanAccess { mean_mac, mean_acsd, n_zones } => {
            buf.put_u8(0);
            buf.put_f64(*mean_mac);
            buf.put_f64(*mean_acsd);
            buf.put_u32(*n_zones as u32);
        }
        QueryAnswer::Classification(cs) => {
            buf.put_u8(1);
            buf.put_u32(cs.len() as u32);
            for (z, c) in cs {
                buf.put_u32(z.0);
                buf.put_u8(class_code(*c));
            }
        }
        QueryAnswer::AtRisk(zs) => {
            buf.put_u8(2);
            buf.put_u32(zs.len() as u32);
            for z in zs {
                buf.put_u32(z.0);
            }
        }
        QueryAnswer::Fairness(j) => {
            buf.put_u8(3);
            buf.put_f64(*j);
        }
        QueryAnswer::WorstZones(zs) => {
            buf.put_u8(4);
            buf.put_u32(zs.len() as u32);
            for (z, mac) in zs {
                buf.put_u32(z.0);
                buf.put_f64(*mac);
            }
        }
        QueryAnswer::PointAccess { zone, mac, acsd } => {
            buf.put_u8(5);
            buf.put_u32(zone.0);
            buf.put_f64(*mac);
            buf.put_f64(*acsd);
        }
    }
}

fn decode_answer(buf: &mut &[u8]) -> Result<QueryAnswer, CodecError> {
    Ok(match take_u8(buf)? {
        0 => QueryAnswer::MeanAccess {
            mean_mac: take_f64(buf)?,
            mean_acsd: take_f64(buf)?,
            n_zones: take_u32(buf)? as usize,
        },
        1 => {
            let n = take_u32(buf)? as usize;
            let mut cs = Vec::with_capacity(capped(n, buf.remaining(), 5));
            for _ in 0..n {
                cs.push((ZoneId(take_u32(buf)?), class_from(take_u8(buf)?)?));
            }
            QueryAnswer::Classification(cs)
        }
        2 => {
            let n = take_u32(buf)? as usize;
            let mut zs = Vec::with_capacity(capped(n, buf.remaining(), 4));
            for _ in 0..n {
                zs.push(ZoneId(take_u32(buf)?));
            }
            QueryAnswer::AtRisk(zs)
        }
        3 => QueryAnswer::Fairness(take_f64(buf)?),
        4 => {
            let n = take_u32(buf)? as usize;
            let mut zs = Vec::with_capacity(capped(n, buf.remaining(), 12));
            for _ in 0..n {
                zs.push((ZoneId(take_u32(buf)?), take_f64(buf)?));
            }
            QueryAnswer::WorstZones(zs)
        }
        5 => QueryAnswer::PointAccess {
            zone: ZoneId(take_u32(buf)?),
            mac: take_f64(buf)?,
            acsd: take_f64(buf)?,
        },
        _ => return Err(CodecError::BadPayload("unknown answer tag")),
    })
}

/// Wire form of one [`Delta`]: a tag byte then the variant's fields.
fn encode_delta(buf: &mut BytesMut, d: &Delta) {
    match d {
        Delta::TripDelay { trip, delay_secs } => {
            buf.put_u8(0);
            buf.put_u32(trip.0);
            buf.put_u32(*delay_secs);
        }
        Delta::TripCancel { trip } => {
            buf.put_u8(1);
            buf.put_u32(trip.0);
        }
        Delta::RouteRemove { route } => {
            buf.put_u8(2);
            buf.put_u32(route.0);
        }
        Delta::ServiceAlert { route, message } => {
            buf.put_u8(3);
            buf.put_u32(route.0);
            put_string(buf, message);
        }
        Delta::AddRoute { stops, headway_s } => {
            buf.put_u8(4);
            buf.put_u32(*headway_s);
            buf.put_u16(stops.len().min(u16::MAX as usize) as u16);
            for p in stops.iter().take(u16::MAX as usize) {
                buf.put_f64(p.x);
                buf.put_f64(p.y);
            }
        }
    }
}

fn decode_delta(buf: &mut &[u8]) -> Result<Delta, CodecError> {
    Ok(match take_u8(buf)? {
        0 => Delta::TripDelay { trip: TripId(take_u32(buf)?), delay_secs: take_u32(buf)? },
        1 => Delta::TripCancel { trip: TripId(take_u32(buf)?) },
        2 => Delta::RouteRemove { route: RouteId(take_u32(buf)?) },
        3 => Delta::ServiceAlert { route: RouteId(take_u32(buf)?), message: take_string(buf)? },
        4 => {
            let headway_s = take_u32(buf)?;
            let n = take_u16(buf)? as usize;
            let mut stops = Vec::with_capacity(capped(n, buf.remaining(), 16));
            for _ in 0..n {
                stops.push(Point::new(take_f64(buf)?, take_f64(buf)?));
            }
            Delta::AddRoute { stops, headway_s }
        }
        _ => return Err(CodecError::BadPayload("unknown delta tag")),
    })
}

/// Wire form of a [`MetricsSnapshot`]: three `u16`-counted sample lists.
/// Binary rather than the snapshot's JSON text — a busy server's registry
/// serializes to tens of KiB of JSON, and the stats frame should stay a
/// cheap request to poll.
fn encode_snapshot(buf: &mut BytesMut, m: &MetricsSnapshot) {
    buf.put_u16(m.counters.len().min(u16::MAX as usize) as u16);
    for c in m.counters.iter().take(u16::MAX as usize) {
        put_string(buf, &c.name);
        buf.put_u64(c.value);
    }
    buf.put_u16(m.gauges.len().min(u16::MAX as usize) as u16);
    for g in m.gauges.iter().take(u16::MAX as usize) {
        put_string(buf, &g.name);
        buf.put_u64(g.value);
    }
    buf.put_u16(m.histograms.len().min(u16::MAX as usize) as u16);
    for h in m.histograms.iter().take(u16::MAX as usize) {
        put_string(buf, &h.name);
        buf.put_u64(h.count);
        buf.put_u64(h.sum_ns);
        buf.put_u64(h.max_ns);
        buf.put_u64(h.p50_ns);
        buf.put_u64(h.p95_ns);
        buf.put_u64(h.p99_ns);
        buf.put_u16(h.buckets.len().min(u16::MAX as usize) as u16);
        for &(idx, n) in h.buckets.iter().take(u16::MAX as usize) {
            buf.put_u32(idx);
            buf.put_u64(n);
        }
    }
}

fn decode_snapshot(buf: &mut &[u8]) -> Result<MetricsSnapshot, CodecError> {
    let mut m = MetricsSnapshot::default();
    let n = take_u16(buf)? as usize;
    m.counters.reserve(capped(n, buf.remaining(), 10));
    for _ in 0..n {
        m.counters.push(CounterSample { name: take_string(buf)?, value: take_u64(buf)? });
    }
    let n = take_u16(buf)? as usize;
    m.gauges.reserve(capped(n, buf.remaining(), 10));
    for _ in 0..n {
        m.gauges.push(GaugeSample { name: take_string(buf)?, value: take_u64(buf)? });
    }
    let n = take_u16(buf)? as usize;
    m.histograms.reserve(capped(n, buf.remaining(), 52));
    for _ in 0..n {
        let name = take_string(buf)?;
        let count = take_u64(buf)?;
        let sum_ns = take_u64(buf)?;
        let max_ns = take_u64(buf)?;
        let p50_ns = take_u64(buf)?;
        let p95_ns = take_u64(buf)?;
        let p99_ns = take_u64(buf)?;
        let n_buckets = take_u16(buf)? as usize;
        let mut buckets = Vec::with_capacity(capped(n_buckets, buf.remaining(), 12));
        for _ in 0..n_buckets {
            buckets.push((take_u32(buf)?, take_u64(buf)?));
        }
        m.histograms.push(HistogramSample {
            name,
            count,
            sum_ns,
            max_ns,
            p50_ns,
            p95_ns,
            p99_ns,
            buckets,
        });
    }
    Ok(m)
}

/// Wire form of one completed span inside a `TraceDump` response.
fn encode_span(buf: &mut BytesMut, s: &OwnedSpan) {
    buf.put_u64(s.trace);
    buf.put_u64(s.span);
    buf.put_u64(s.parent);
    put_string(buf, &s.name);
    buf.put_u64(s.start_unix_ns);
    buf.put_u64(s.dur_ns);
    buf.put_u8(s.attrs.len().min(u8::MAX as usize) as u8);
    for (k, v) in s.attrs.iter().take(u8::MAX as usize) {
        put_string(buf, k);
        buf.put_u64(*v);
    }
}

fn decode_span(buf: &mut &[u8]) -> Result<OwnedSpan, CodecError> {
    let trace = take_u64(buf)?;
    let span = take_u64(buf)?;
    let parent = take_u64(buf)?;
    let name = take_string(buf)?;
    let start_unix_ns = take_u64(buf)?;
    let dur_ns = take_u64(buf)?;
    let n = take_u8(buf)? as usize;
    let mut attrs = Vec::with_capacity(capped(n, buf.remaining(), 10));
    for _ in 0..n {
        attrs.push((take_string(buf)?, take_u64(buf)?));
    }
    Ok(OwnedSpan { trace, span, parent, name, start_unix_ns, dur_ns, attrs })
}

/// Wire form of one journey leg: a tag byte then the variant's fields.
fn encode_leg(buf: &mut BytesMut, leg: &Leg) {
    match *leg {
        Leg::Walk { secs, to_stop } => {
            buf.put_u8(0);
            buf.put_u32(secs);
            match to_stop {
                Some(s) => {
                    buf.put_u8(1);
                    buf.put_u32(s.0);
                }
                None => buf.put_u8(0),
            }
        }
        Leg::Wait { secs, at_stop } => {
            buf.put_u8(1);
            buf.put_u32(secs);
            buf.put_u32(at_stop.0);
        }
        Leg::Ride { trip, route, from_stop, to_stop, board, alight } => {
            buf.put_u8(2);
            buf.put_u32(trip.0);
            buf.put_u32(route.0);
            buf.put_u32(from_stop.0);
            buf.put_u32(to_stop.0);
            buf.put_u32(board.0);
            buf.put_u32(alight.0);
        }
    }
}

fn decode_leg(buf: &mut &[u8]) -> Result<Leg, CodecError> {
    Ok(match take_u8(buf)? {
        0 => {
            let secs = take_u32(buf)?;
            let to_stop = match take_u8(buf)? {
                0 => None,
                1 => Some(StopId(take_u32(buf)?)),
                _ => return Err(CodecError::BadPayload("bad walk-stop flag")),
            };
            Leg::Walk { secs, to_stop }
        }
        1 => Leg::Wait { secs: take_u32(buf)?, at_stop: StopId(take_u32(buf)?) },
        2 => Leg::Ride {
            trip: TripId(take_u32(buf)?),
            route: RouteId(take_u32(buf)?),
            from_stop: StopId(take_u32(buf)?),
            to_stop: StopId(take_u32(buf)?),
            board: Stime(take_u32(buf)?),
            alight: Stime(take_u32(buf)?),
        },
        _ => return Err(CodecError::BadPayload("unknown leg tag")),
    })
}

/// Wire form of one journey inside a `Plan` response.
fn encode_journey(buf: &mut BytesMut, j: &Journey) {
    buf.put_u32(j.depart.0);
    buf.put_u32(j.arrive.0);
    buf.put_u16(j.legs.len().min(u16::MAX as usize) as u16);
    for leg in j.legs.iter().take(u16::MAX as usize) {
        encode_leg(buf, leg);
    }
}

fn decode_journey(buf: &mut &[u8]) -> Result<Journey, CodecError> {
    let depart = Stime(take_u32(buf)?);
    let arrive = Stime(take_u32(buf)?);
    let n = take_u16(buf)? as usize;
    let mut legs = Vec::with_capacity(capped(n, buf.remaining(), 6));
    for _ in 0..n {
        legs.push(decode_leg(buf)?);
    }
    Ok(Journey { depart, arrive, legs })
}

/// Wire form of an [`OpsReport`]: fixed header, then three `u16`-counted
/// lists — per-class windows (sparse buckets like the stats snapshot),
/// SLO statuses (two raw burn windows each, so the poller recomputes
/// rates from exact integers), and retained slow traces (each a span
/// list reusing the `TraceDump` span codec).
fn encode_ops_report(buf: &mut BytesMut, r: &OpsReport) {
    buf.put_u64(r.interval_ns);
    buf.put_u32(r.windows);
    buf.put_u64(r.generated_unix_ns);
    buf.put_u16(r.classes.len().min(u16::MAX as usize) as u16);
    for c in r.classes.iter().take(u16::MAX as usize) {
        put_string(buf, &c.class);
        buf.put_u64(c.span_ns);
        buf.put_u64(c.count);
        buf.put_u64(c.sum_ns);
        buf.put_u64(c.max_ns);
        buf.put_u64(c.shed);
        buf.put_u16(c.buckets.len().min(u16::MAX as usize) as u16);
        for &(idx, n) in c.buckets.iter().take(u16::MAX as usize) {
            buf.put_u32(idx);
            buf.put_u64(n);
        }
    }
    buf.put_u16(r.slo.len().min(u16::MAX as usize) as u16);
    for s in r.slo.iter().take(u16::MAX as usize) {
        put_string(buf, &s.class);
        buf.put_u32(s.objective_milli);
        buf.put_u64(s.threshold_ns);
        for w in [&s.fast, &s.slow] {
            buf.put_u64(w.span_ns);
            buf.put_u64(w.total);
            buf.put_u64(w.bad);
        }
        buf.put_u64(s.shed_total);
    }
    buf.put_u16(r.slow.len().min(u16::MAX as usize) as u16);
    for t in r.slow.iter().take(u16::MAX as usize) {
        buf.put_u64(t.trace);
        put_string(buf, &t.class);
        buf.put_u64(t.root_dur_ns);
        buf.put_u8(t.is_error as u8);
        buf.put_u64(t.captured_unix_ns);
        buf.put_u16(t.spans.len().min(u16::MAX as usize) as u16);
        for s in t.spans.iter().take(u16::MAX as usize) {
            encode_span(buf, s);
        }
    }
}

fn decode_ops_report(buf: &mut &[u8]) -> Result<OpsReport, CodecError> {
    let interval_ns = take_u64(buf)?;
    let windows = take_u32(buf)?;
    let generated_unix_ns = take_u64(buf)?;
    let n = take_u16(buf)? as usize;
    let mut classes = Vec::with_capacity(capped(n, buf.remaining(), 44));
    for _ in 0..n {
        let class = take_string(buf)?;
        let span_ns = take_u64(buf)?;
        let count = take_u64(buf)?;
        let sum_ns = take_u64(buf)?;
        let max_ns = take_u64(buf)?;
        let shed = take_u64(buf)?;
        let nb = take_u16(buf)? as usize;
        let mut buckets = Vec::with_capacity(capped(nb, buf.remaining(), 12));
        for _ in 0..nb {
            buckets.push((take_u32(buf)?, take_u64(buf)?));
        }
        classes.push(ClassWindow { class, span_ns, count, sum_ns, max_ns, buckets, shed });
    }
    let n = take_u16(buf)? as usize;
    let mut slo = Vec::with_capacity(capped(n, buf.remaining(), 70));
    for _ in 0..n {
        let class = take_string(buf)?;
        let objective_milli = take_u32(buf)?;
        let threshold_ns = take_u64(buf)?;
        let mut burns = [BurnWindow::default(); 2];
        for w in burns.iter_mut() {
            w.span_ns = take_u64(buf)?;
            w.total = take_u64(buf)?;
            w.bad = take_u64(buf)?;
        }
        let shed_total = take_u64(buf)?;
        slo.push(SloStatus {
            class,
            objective_milli,
            threshold_ns,
            fast: burns[0],
            slow: burns[1],
            shed_total,
        });
    }
    let n = take_u16(buf)? as usize;
    let mut slow = Vec::with_capacity(capped(n, buf.remaining(), 37));
    for _ in 0..n {
        let trace = take_u64(buf)?;
        let class = take_string(buf)?;
        let root_dur_ns = take_u64(buf)?;
        let is_error = match take_u8(buf)? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::BadPayload("bad is-error flag")),
        };
        let captured_unix_ns = take_u64(buf)?;
        let ns = take_u16(buf)? as usize;
        let mut spans = Vec::with_capacity(capped(ns, buf.remaining(), 43));
        for _ in 0..ns {
            spans.push(decode_span(buf)?);
        }
        slow.push(SlowTrace { trace, class, root_dur_ns, is_error, captured_unix_ns, spans });
    }
    Ok(OpsReport { interval_ns, windows, generated_unix_ns, classes, slo, slow })
}

/// Appends one encoded request frame (header included) to `buf`,
/// carrying the calling thread's current span context — propagation is
/// automatic for any client running inside a span. Request ID 0 and no
/// deadline: the sequential-client form.
pub fn encode_request(req: &Request, buf: &mut BytesMut) {
    encode_request_mux(req, 0, None, buf)
}

/// Bit 0 of the request flags byte: a `deadline ms: u32` field follows.
/// Remaining bits are reserved (must be zero).
const FLAG_DEADLINE: u8 = 0x01;

/// [`encode_request`] with an explicit request ID and optional deadline
/// budget — the multiplexed-client form. IDs on one connection must be
/// distinct while their requests are in flight.
pub fn encode_request_mux(
    req: &Request,
    req_id: u64,
    deadline_ms: Option<u32>,
    buf: &mut BytesMut,
) {
    let body_start = begin_frame(buf);
    let ctx = trace::current();
    let put_ctx = |buf: &mut BytesMut| {
        buf.put_u64(req_id);
        buf.put_u64(ctx.trace);
        buf.put_u64(ctx.span);
        match deadline_ms {
            Some(ms) => {
                buf.put_u8(FLAG_DEADLINE);
                buf.put_u32(ms);
            }
            None => buf.put_u8(0),
        }
    };
    match req {
        Request::Measures { category, approx } => {
            buf.put_u8(K_MEASURES);
            put_ctx(buf);
            buf.put_u8(category_byte(*category, *approx));
        }
        Request::Query { category, query, approx } => {
            buf.put_u8(K_QUERY);
            put_ctx(buf);
            buf.put_u8(category_byte(*category, *approx));
            encode_query(buf, query);
        }
        Request::AddPoi { category, pos } => {
            buf.put_u8(K_ADD_POI);
            put_ctx(buf);
            buf.put_u8(category_code(*category));
            buf.put_f64(pos.x);
            buf.put_f64(pos.y);
        }
        Request::Stats => {
            buf.put_u8(K_STATS);
            put_ctx(buf);
        }
        Request::TraceDump { min_dur_ns, set_capture_ns } => {
            buf.put_u8(K_TRACE_DUMP);
            put_ctx(buf);
            buf.put_u64(*min_dur_ns);
            match set_capture_ns {
                Some(ns) => {
                    buf.put_u8(1);
                    buf.put_u64(*ns);
                }
                None => buf.put_u8(0),
            }
        }
        Request::ApplyDelta { seq, delta } => {
            buf.put_u8(K_APPLY_DELTA);
            put_ctx(buf);
            buf.put_u64(*seq);
            encode_delta(buf, delta);
        }
        Request::DeltaBatch { first_seq, deltas } => {
            buf.put_u8(K_DELTA_BATCH);
            put_ctx(buf);
            buf.put_u64(*first_seq);
            buf.put_u16(deltas.len().min(u16::MAX as usize) as u16);
            for d in deltas.iter().take(u16::MAX as usize) {
                encode_delta(buf, d);
            }
        }
        Request::WhatIf { category, scenarios, query } => {
            buf.put_u8(K_WHAT_IF);
            put_ctx(buf);
            buf.put_u8(category_code(*category));
            encode_query(buf, query);
            buf.put_u16(scenarios.len().min(u16::MAX as usize) as u16);
            for scenario in scenarios.iter().take(u16::MAX as usize) {
                buf.put_u16(scenario.len().min(u16::MAX as usize) as u16);
                for d in scenario.iter().take(u16::MAX as usize) {
                    encode_delta(buf, d);
                }
            }
        }
        Request::Plan { origin, dest, depart, day, max_transfers } => {
            buf.put_u8(K_PLAN);
            put_ctx(buf);
            buf.put_f64(origin.x);
            buf.put_f64(origin.y);
            buf.put_f64(dest.x);
            buf.put_f64(dest.y);
            buf.put_u32(depart.0);
            buf.put_u8(day.index() as u8);
            match max_transfers {
                Some(k) => {
                    buf.put_u8(1);
                    buf.put_u8(*k);
                }
                None => buf.put_u8(0),
            }
        }
        Request::OpsReport => {
            buf.put_u8(K_OPS_REPORT);
            put_ctx(buf);
        }
    }
    end_frame(buf, body_start);
}

/// Appends one encoded response frame (header included) to `buf`,
/// echoing request ID 0 — the reply to a sequential client.
pub fn encode_response(resp: &Response, buf: &mut BytesMut) {
    encode_response_to(resp, 0, buf)
}

/// Encodes the response to the request that carried `req_id`; the ID is
/// echoed right after the kind byte so a multiplexing client can match
/// it to its caller.
pub fn encode_response_to(resp: &Response, req_id: u64, buf: &mut BytesMut) {
    let body_start = begin_frame(buf);
    let put_req_id = |buf: &mut BytesMut| buf.put_u64(req_id);
    match resp {
        Response::Measures(ms) => {
            buf.put_u8(K_R_MEASURES);
            put_req_id(buf);
            buf.put_u32(ms.len() as u32);
            for m in ms {
                buf.put_u32(m.zone.0);
                buf.put_f64(m.mac);
                buf.put_f64(m.acsd);
            }
        }
        Response::Query(a) => {
            buf.put_u8(K_R_QUERY);
            put_req_id(buf);
            encode_answer(buf, a);
        }
        Response::AddPoi { poi_id } => {
            buf.put_u8(K_R_ADD_POI);
            put_req_id(buf);
            buf.put_u32(*poi_id);
        }
        Response::Stats(s) => {
            buf.put_u8(K_R_STATS);
            put_req_id(buf);
            buf.put_u64(s.pipeline_runs);
            buf.put_u64(s.requests_served);
            buf.put_u16(s.workers);
            buf.put_u8(s.cached.len() as u8);
            for c in &s.cached {
                buf.put_u8(category_code(*c));
            }
            encode_snapshot(buf, &s.metrics);
        }
        Response::TraceDump(spans) => {
            buf.put_u8(K_R_TRACE_DUMP);
            put_req_id(buf);
            buf.put_u32(spans.len() as u32);
            for s in spans {
                encode_span(buf, s);
            }
        }
        Response::ApplyDelta(ack) => {
            buf.put_u8(K_R_APPLY_DELTA);
            put_req_id(buf);
            buf.put_u64(ack.seq);
            buf.put_u32(ack.zones_rebuilt);
            buf.put_u8(ack.replayed as u8);
        }
        Response::DeltaBatch { last_seq } => {
            buf.put_u8(K_R_DELTA_BATCH);
            put_req_id(buf);
            buf.put_u64(*last_seq);
        }
        Response::WhatIf(answers) => {
            buf.put_u8(K_R_WHAT_IF);
            put_req_id(buf);
            buf.put_u16(answers.len().min(u16::MAX as usize) as u16);
            for a in answers.iter().take(u16::MAX as usize) {
                encode_answer(buf, &a.answer);
                buf.put_u64(a.overlay_bytes);
            }
        }
        Response::Plan(journeys) => {
            buf.put_u8(K_R_PLAN);
            put_req_id(buf);
            buf.put_u16(journeys.len().min(u16::MAX as usize) as u16);
            for j in journeys.iter().take(u16::MAX as usize) {
                encode_journey(buf, j);
            }
        }
        Response::OpsReport(report) => {
            buf.put_u8(K_R_OPS_REPORT);
            put_req_id(buf);
            encode_ops_report(buf, report);
        }
        Response::Error { code, message } => {
            buf.put_u8(K_R_ERROR);
            put_req_id(buf);
            buf.put_u8(*code as u8);
            put_string(buf, message);
        }
    }
    end_frame(buf, body_start);
}

/// Reserves the length prefix; returns the body offset for [`end_frame`].
fn begin_frame(buf: &mut BytesMut) -> usize {
    buf.put_u32(0);
    let body_start = buf.len();
    buf.put_u8(WIRE_VERSION);
    body_start
}

/// Backpatches the length prefix once the body is written.
fn end_frame(buf: &mut BytesMut, body_start: usize) {
    let len = (buf.len() - body_start) as u32;
    buf[body_start - 4..body_start].copy_from_slice(&len.to_be_bytes());
}

/// Pulls one complete frame body (kind byte onwards) out of `buf`, or
/// `None` if more bytes are needed. The version byte is checked as soon
/// as it is buffered — before the rest of the frame arrives and before
/// anything is split off — so a peer speaking another version is
/// rejected from five bytes, not after `len` bytes were accumulated.
fn split_frame(buf: &mut BytesMut) -> Result<Option<BytesMut>, CodecError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(CodecError::FrameTooLarge(len));
    }
    if len < 2 {
        return Err(CodecError::BadPayload("frame shorter than header"));
    }
    if buf.len() < 5 {
        return Ok(None);
    }
    if buf[4] != WIRE_VERSION {
        return Err(CodecError::BadVersion(buf[4]));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(5);
    Ok(Some(buf.split_to(len - 1)))
}

/// Decodes one request from `buf` if a complete frame is buffered,
/// discarding the frame header — the form tests and simple tools want.
/// Servers use [`decode_request_full`].
pub fn decode_request(buf: &mut BytesMut) -> Result<Option<Request>, CodecError> {
    Ok(decode_request_full(buf)?.map(|d| d.request))
}

/// Decodes one request plus its request ID, propagated trace context
/// and deadline budget.
pub fn decode_request_full(buf: &mut BytesMut) -> Result<Option<DecodedRequest>, CodecError> {
    let Some(frame) = split_frame(buf)? else { return Ok(None) };
    let mut p: &[u8] = &frame;
    let kind = take_u8(&mut p)?;
    let req_id = take_u64(&mut p)?;
    let ctx = SpanContext { trace: take_u64(&mut p)?, span: take_u64(&mut p)? };
    let flags = take_u8(&mut p)?;
    if flags & !FLAG_DEADLINE != 0 {
        return Err(CodecError::BadPayload("unknown request flags"));
    }
    let deadline_ms = if flags & FLAG_DEADLINE != 0 { Some(take_u32(&mut p)?) } else { None };
    let req = match kind {
        K_MEASURES => {
            let (category, approx) = category_and_approx(take_u8(&mut p)?)?;
            Request::Measures { category, approx }
        }
        K_QUERY => {
            let (category, approx) = category_and_approx(take_u8(&mut p)?)?;
            Request::Query { category, query: decode_query(&mut p)?, approx }
        }
        K_ADD_POI => Request::AddPoi {
            category: category_from(take_u8(&mut p)?)?,
            pos: Point::new(take_f64(&mut p)?, take_f64(&mut p)?),
        },
        K_STATS => Request::Stats,
        K_TRACE_DUMP => {
            let min_dur_ns = take_u64(&mut p)?;
            let set_capture_ns = match take_u8(&mut p)? {
                0 => None,
                1 => Some(take_u64(&mut p)?),
                _ => return Err(CodecError::BadPayload("bad set-capture flag")),
            };
            Request::TraceDump { min_dur_ns, set_capture_ns }
        }
        K_APPLY_DELTA => {
            let seq = take_u64(&mut p)?;
            let delta = decode_delta(&mut p)?;
            Request::ApplyDelta { seq, delta }
        }
        K_DELTA_BATCH => {
            let first_seq = take_u64(&mut p)?;
            let n = take_u16(&mut p)? as usize;
            let mut deltas = Vec::with_capacity(capped(n, p.remaining(), 5));
            for _ in 0..n {
                deltas.push(decode_delta(&mut p)?);
            }
            Request::DeltaBatch { first_seq, deltas }
        }
        K_WHAT_IF => {
            let category = category_from(take_u8(&mut p)?)?;
            let query = decode_query(&mut p)?;
            let k = take_u16(&mut p)? as usize;
            let mut scenarios = Vec::with_capacity(capped(k, p.remaining(), 2));
            for _ in 0..k {
                let n = take_u16(&mut p)? as usize;
                let mut deltas = Vec::with_capacity(capped(n, p.remaining(), 5));
                for _ in 0..n {
                    deltas.push(decode_delta(&mut p)?);
                }
                scenarios.push(deltas);
            }
            Request::WhatIf { category, scenarios, query }
        }
        K_PLAN => {
            let origin = Point::new(take_f64(&mut p)?, take_f64(&mut p)?);
            let dest = Point::new(take_f64(&mut p)?, take_f64(&mut p)?);
            let depart = Stime(take_u32(&mut p)?);
            let day = *DayOfWeek::ALL
                .get(take_u8(&mut p)? as usize)
                .ok_or(CodecError::BadPayload("unknown day of week"))?;
            let max_transfers = match take_u8(&mut p)? {
                0 => None,
                1 => Some(take_u8(&mut p)?),
                _ => return Err(CodecError::BadPayload("bad max-transfers flag")),
            };
            Request::Plan { origin, dest, depart, day, max_transfers }
        }
        K_OPS_REPORT => Request::OpsReport,
        other => return Err(CodecError::BadKind(other)),
    };
    if p.remaining() != 0 {
        return Err(CodecError::BadPayload("trailing bytes in frame"));
    }
    Ok(Some(DecodedRequest { request: req, ctx, req_id, deadline_ms }))
}

/// Decodes one response from `buf` if a complete frame is buffered,
/// discarding the frame identity — the sequential-client form.
/// Multiplexing clients use [`decode_response_full`].
pub fn decode_response(buf: &mut BytesMut) -> Result<Option<Response>, CodecError> {
    Ok(decode_response_full(buf)?.map(|d| d.response))
}

/// Decodes one response plus its echoed request ID.
pub fn decode_response_full(buf: &mut BytesMut) -> Result<Option<DecodedResponse>, CodecError> {
    let Some(frame) = split_frame(buf)? else { return Ok(None) };
    let mut p: &[u8] = &frame;
    let kind = take_u8(&mut p)?;
    let req_id = take_u64(&mut p)?;
    let resp = match kind {
        K_R_MEASURES => {
            let n = take_u32(&mut p)? as usize;
            let mut ms = Vec::with_capacity(capped(n, p.remaining(), 20));
            for _ in 0..n {
                ms.push(ZoneMeasures {
                    zone: ZoneId(take_u32(&mut p)?),
                    mac: take_f64(&mut p)?,
                    acsd: take_f64(&mut p)?,
                });
            }
            Response::Measures(ms)
        }
        K_R_QUERY => Response::Query(decode_answer(&mut p)?),
        K_R_ADD_POI => Response::AddPoi { poi_id: take_u32(&mut p)? },
        K_R_STATS => {
            let pipeline_runs = take_u64(&mut p)?;
            let requests_served = take_u64(&mut p)?;
            let workers = take_u16(&mut p)?;
            let n = take_u8(&mut p)? as usize;
            let mut cached = Vec::with_capacity(n);
            for _ in 0..n {
                cached.push(category_from(take_u8(&mut p)?)?);
            }
            let metrics = decode_snapshot(&mut p)?;
            Response::Stats(StatsReply { pipeline_runs, requests_served, cached, workers, metrics })
        }
        K_R_TRACE_DUMP => {
            let n = take_u32(&mut p)? as usize;
            let mut spans = Vec::with_capacity(capped(n, p.remaining(), 43));
            for _ in 0..n {
                spans.push(decode_span(&mut p)?);
            }
            Response::TraceDump(spans)
        }
        K_R_APPLY_DELTA => {
            let seq = take_u64(&mut p)?;
            let zones_rebuilt = take_u32(&mut p)?;
            let replayed = match take_u8(&mut p)? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::BadPayload("bad replayed flag")),
            };
            Response::ApplyDelta(DeltaAck { seq, zones_rebuilt, replayed })
        }
        K_R_DELTA_BATCH => Response::DeltaBatch { last_seq: take_u64(&mut p)? },
        K_R_WHAT_IF => {
            let n = take_u16(&mut p)? as usize;
            let mut answers = Vec::with_capacity(capped(n, p.remaining(), 9));
            for _ in 0..n {
                let answer = decode_answer(&mut p)?;
                let overlay_bytes = take_u64(&mut p)?;
                answers.push(WhatIfAnswer { answer, overlay_bytes });
            }
            Response::WhatIf(answers)
        }
        K_R_PLAN => {
            let n = take_u16(&mut p)? as usize;
            let mut journeys = Vec::with_capacity(capped(n, p.remaining(), 10));
            for _ in 0..n {
                journeys.push(decode_journey(&mut p)?);
            }
            Response::Plan(journeys)
        }
        K_R_OPS_REPORT => Response::OpsReport(decode_ops_report(&mut p)?),
        K_R_ERROR => {
            let code = ErrorCode::from_u8(take_u8(&mut p)?)
                .ok_or(CodecError::BadPayload("unknown error code"))?;
            let message = take_string(&mut p)?;
            Response::Error { code, message }
        }
        other => return Err(CodecError::BadKind(other)),
    };
    if p.remaining() != 0 {
        return Err(CodecError::BadPayload("trailing bytes in frame"));
    }
    Ok(Some(DecodedResponse { response: resp, req_id }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = BytesMut::new();
        encode_request(req, &mut buf);
        let got = decode_request(&mut buf).unwrap().expect("complete frame");
        assert!(buf.is_empty(), "decoder must consume the whole frame");
        got
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = BytesMut::new();
        encode_response(resp, &mut buf);
        let got = decode_response(&mut buf).unwrap().expect("complete frame");
        assert!(buf.is_empty());
        got
    }

    /// A snapshot touching every sample kind, including a histogram with
    /// sparse buckets, so the stats roundtrip exercises the whole wire
    /// shape.
    fn sample_metrics() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                CounterSample { name: "engine.cache.hits".into(), value: 42 },
                CounterSample { name: "serve.requests".into(), value: u64::MAX },
            ],
            gauges: vec![GaugeSample { name: "serve.workers".into(), value: 8 }],
            histograms: vec![HistogramSample {
                name: "serve.request.query".into(),
                count: 1000,
                sum_ns: 14_000_000,
                max_ns: 90_000,
                p50_ns: 13_000,
                p95_ns: 40_000,
                p99_ns: 88_000,
                buckets: vec![(120, 900), (121, 80), (200, 20)],
            }],
        }
    }

    #[test]
    fn request_kinds_roundtrip() {
        let reqs = [
            Request::Measures { category: PoiCategory::School, approx: false },
            Request::Measures { category: PoiCategory::Hospital, approx: true },
            Request::Query {
                category: PoiCategory::Hospital,
                query: AccessQuery::AtRisk { threshold_factor: 1.5 },
                approx: false,
            },
            Request::Query {
                category: PoiCategory::JobCenter,
                query: AccessQuery::Fairness { weight: DemographicWeight::Unemployed },
                approx: false,
            },
            Request::Query {
                category: PoiCategory::VaxCenter,
                query: AccessQuery::WorstZones { k: 7 },
                approx: false,
            },
            Request::Query {
                category: PoiCategory::School,
                query: AccessQuery::PointAccess { x: 1312.5, y: -40.0 },
                approx: true,
            },
            Request::AddPoi { category: PoiCategory::VaxCenter, pos: Point::new(1234.5, -6.25) },
            Request::Stats,
        ];
        for r in &reqs {
            assert_eq!(&roundtrip_request(r), r);
        }
    }

    #[test]
    fn response_kinds_roundtrip() {
        let resps = [
            Response::Measures(vec![
                ZoneMeasures { zone: ZoneId(0), mac: 10.0, acsd: 0.5 },
                ZoneMeasures { zone: ZoneId(7), mac: 22.25, acsd: 1.75 },
            ]),
            Response::Query(QueryAnswer::MeanAccess {
                mean_mac: 31.5,
                mean_acsd: 2.0,
                n_zones: 120,
            }),
            Response::Query(QueryAnswer::Classification(vec![
                (ZoneId(1), AccessClass::Best),
                (ZoneId(2), AccessClass::Worst),
            ])),
            Response::Query(QueryAnswer::AtRisk(vec![ZoneId(3), ZoneId(9)])),
            Response::Query(QueryAnswer::Fairness(0.83)),
            Response::Query(QueryAnswer::WorstZones(vec![(ZoneId(5), 99.5)])),
            Response::Query(QueryAnswer::PointAccess { zone: ZoneId(12), mac: 840.5, acsd: 2.5 }),
            Response::AddPoi { poi_id: 41 },
            Response::Stats(StatsReply {
                pipeline_runs: 3,
                requests_served: 1000,
                cached: vec![PoiCategory::School, PoiCategory::JobCenter],
                workers: 8,
                metrics: sample_metrics(),
            }),
            Response::Error {
                code: ErrorCode::Invalid,
                message: "a route needs at least two stops".into(),
            },
        ];
        for r in &resps {
            assert_eq!(&roundtrip_response(r), r);
        }
    }

    #[test]
    fn stats_with_empty_metrics_roundtrips() {
        let resp = Response::Stats(StatsReply {
            pipeline_runs: 0,
            requests_served: 0,
            cached: Vec::new(),
            workers: 1,
            metrics: MetricsSnapshot::default(),
        });
        assert_eq!(roundtrip_response(&resp), resp);
    }

    /// Chopping bytes out of the embedded snapshot must surface as a
    /// payload error, never a panic or a silently-shorter snapshot.
    #[test]
    fn truncated_stats_metrics_is_rejected() {
        let resp = Response::Stats(StatsReply {
            pipeline_runs: 1,
            requests_served: 2,
            cached: Vec::new(),
            workers: 4,
            metrics: sample_metrics(),
        });
        let mut full = BytesMut::new();
        encode_response(&resp, &mut full);
        // Drop the last 8 bytes of the frame body and fix the prefix.
        let mut raw = full.to_vec();
        raw.truncate(raw.len() - 8);
        let len = (raw.len() - 4) as u32;
        raw[..4].copy_from_slice(&len.to_be_bytes());
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&raw);
        assert!(matches!(decode_response(&mut buf), Err(CodecError::BadPayload(_))));
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut full = BytesMut::new();
        encode_request(&Request::Stats, &mut full);
        for cut in 0..full.len() {
            let mut partial = BytesMut::new();
            partial.extend_from_slice(&full[..cut]);
            assert_eq!(decode_request(&mut partial), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut buf = BytesMut::new();
        encode_request(&Request::Stats, &mut buf);
        encode_request(
            &Request::Measures { category: PoiCategory::School, approx: false },
            &mut buf,
        );
        assert_eq!(decode_request(&mut buf).unwrap(), Some(Request::Stats));
        assert_eq!(
            decode_request(&mut buf).unwrap(),
            Some(Request::Measures { category: PoiCategory::School, approx: false })
        );
        assert_eq!(decode_request(&mut buf).unwrap(), None);
    }

    #[test]
    fn trace_dump_request_roundtrips() {
        for req in [
            Request::TraceDump { min_dur_ns: 0, set_capture_ns: None },
            Request::TraceDump { min_dur_ns: 50_000, set_capture_ns: Some(25_000) },
            Request::TraceDump { min_dur_ns: u64::MAX, set_capture_ns: Some(0) },
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn trace_dump_response_roundtrips() {
        let spans = vec![
            OwnedSpan {
                trace: 0xDEAD_BEEF,
                span: 2,
                parent: 0,
                name: "shard.request".into(),
                start_unix_ns: 1_700_000_000_000_000_000,
                dur_ns: 1_234_567,
                attrs: vec![("shard".into(), 3)],
            },
            OwnedSpan {
                trace: 0xDEAD_BEEF,
                span: 3,
                parent: 2,
                name: "raptor.query".into(),
                start_unix_ns: 1_700_000_000_000_100_000,
                dur_ns: 890,
                attrs: vec![("rounds".into(), 4), ("patterns_scanned".into(), 128)],
            },
        ];
        let resp = Response::TraceDump(spans);
        assert_eq!(roundtrip_response(&resp), resp);
        assert_eq!(roundtrip_response(&Response::TraceDump(vec![])), Response::TraceDump(vec![]));
    }

    fn sample_deltas() -> Vec<Delta> {
        vec![
            Delta::TripDelay { trip: TripId(7), delay_secs: 300 },
            Delta::TripCancel { trip: TripId(0) },
            Delta::RouteRemove { route: RouteId(3) },
            Delta::ServiceAlert { route: RouteId(1), message: "snow detour".into() },
            Delta::AddRoute {
                stops: vec![Point::new(0.5, -1.25), Point::new(900.0, 42.0)],
                headway_s: 480,
            },
        ]
    }

    #[test]
    fn streaming_request_kinds_roundtrip() {
        for d in sample_deltas() {
            let req = Request::ApplyDelta { seq: 17, delta: d };
            assert_eq!(roundtrip_request(&req), req);
        }
        let reqs = [
            Request::ApplyDelta {
                seq: 0,
                delta: Delta::TripDelay { trip: TripId(1), delay_secs: 1 },
            },
            Request::DeltaBatch { first_seq: 1, deltas: sample_deltas() },
            Request::DeltaBatch { first_seq: u64::MAX, deltas: vec![] },
            Request::WhatIf {
                category: PoiCategory::Hospital,
                scenarios: vec![
                    vec![],
                    sample_deltas(),
                    vec![Delta::TripCancel { trip: TripId(9) }],
                ],
                query: AccessQuery::WorstZones { k: 5 },
            },
            Request::WhatIf {
                category: PoiCategory::School,
                scenarios: vec![],
                query: AccessQuery::MeanAccess,
            },
        ];
        for r in &reqs {
            assert_eq!(&roundtrip_request(r), r);
        }
    }

    #[test]
    fn streaming_response_kinds_roundtrip() {
        let resps = [
            Response::ApplyDelta(DeltaAck { seq: 1, zones_rebuilt: 42, replayed: false }),
            Response::ApplyDelta(DeltaAck { seq: u64::MAX, zones_rebuilt: 0, replayed: true }),
            Response::DeltaBatch { last_seq: 12 },
            Response::WhatIf(vec![]),
            Response::WhatIf(vec![
                WhatIfAnswer {
                    answer: QueryAnswer::MeanAccess { mean_mac: 9.5, mean_acsd: 1.5, n_zones: 3 },
                    overlay_bytes: 4096,
                },
                WhatIfAnswer { answer: QueryAnswer::Fairness(0.7), overlay_bytes: 0 },
            ]),
            Response::Error { code: ErrorCode::SeqGap, message: "have 2, got 5".into() },
        ];
        for r in &resps {
            assert_eq!(&roundtrip_response(r), r);
        }
    }

    fn sample_journey() -> Journey {
        Journey {
            depart: Stime(27000),
            arrive: Stime(29512),
            legs: vec![
                Leg::Walk { secs: 120, to_stop: Some(StopId(4)) },
                Leg::Wait { secs: 80, at_stop: StopId(4) },
                Leg::Ride {
                    trip: TripId(9),
                    route: RouteId(2),
                    from_stop: StopId(4),
                    to_stop: StopId(11),
                    board: Stime(27200),
                    alight: Stime(29400),
                },
                Leg::Walk { secs: 112, to_stop: None },
            ],
        }
    }

    #[test]
    fn plan_request_kinds_roundtrip() {
        let reqs = [
            Request::Plan {
                origin: Point::new(100.0, 250.5),
                dest: Point::new(-3.0, 9000.0),
                depart: Stime(7 * 3600 + 1800),
                day: DayOfWeek::Tuesday,
                max_transfers: Some(1),
            },
            Request::Plan {
                origin: Point::new(0.0, 0.0),
                dest: Point::new(1.0, 1.0),
                depart: Stime(0),
                day: DayOfWeek::Sunday,
                max_transfers: None,
            },
        ];
        for r in &reqs {
            assert_eq!(&roundtrip_request(r), r);
        }
    }

    #[test]
    fn plan_response_kinds_roundtrip() {
        let resps = [
            Response::Plan(vec![]),
            Response::Plan(vec![Journey::walk_only(Stime(100), 340)]),
            Response::Plan(vec![sample_journey(), Journey::walk_only(Stime(27000), 3000)]),
        ];
        for r in &resps {
            assert_eq!(&roundtrip_response(r), r);
        }
    }

    fn sample_ops_report() -> OpsReport {
        OpsReport {
            interval_ns: 10_000_000_000,
            windows: 12,
            generated_unix_ns: 1_700_000_000_000_000_000,
            classes: vec![
                ClassWindow {
                    class: "query".into(),
                    span_ns: 10_000_000_000,
                    count: 900,
                    sum_ns: 45_000_000,
                    max_ns: 2_000_000,
                    buckets: vec![(100, 880), (150, 20)],
                    shed: 3,
                },
                ClassWindow {
                    class: "edits".into(),
                    span_ns: 10_000_000_000,
                    count: 0,
                    sum_ns: 0,
                    max_ns: 0,
                    buckets: vec![],
                    shed: 0,
                },
            ],
            slo: vec![SloStatus {
                class: "query".into(),
                objective_milli: 999,
                threshold_ns: 50_000_000,
                fast: BurnWindow { span_ns: 300_000_000_000, total: 900, bad: 23 },
                slow: BurnWindow { span_ns: 3_600_000_000_000, total: 12_000, bad: 23 },
                shed_total: 3,
            }],
            slow: vec![SlowTrace {
                trace: 0xFEED_F00D,
                class: "query".into(),
                root_dur_ns: 77_000_000,
                is_error: true,
                captured_unix_ns: 1_700_000_000_000_000_111,
                spans: vec![OwnedSpan {
                    trace: 0xFEED_F00D,
                    span: 1,
                    parent: 0,
                    name: "serve.request".into(),
                    start_unix_ns: 1_700_000_000_000_000_000,
                    dur_ns: 77_000_000,
                    attrs: vec![("queue_wait_ns".into(), 12)],
                }],
            }],
        }
    }

    #[test]
    fn ops_report_request_roundtrips() {
        assert_eq!(roundtrip_request(&Request::OpsReport), Request::OpsReport);
    }

    #[test]
    fn ops_report_response_roundtrips() {
        let resp = Response::OpsReport(sample_ops_report());
        assert_eq!(roundtrip_response(&resp), resp);
        let empty = Response::OpsReport(OpsReport::default());
        assert_eq!(roundtrip_response(&empty), empty);
    }

    /// Truncating a delta frame mid-payload must be a payload error (or a
    /// wait-for-more on a clean length cut), never a panic.
    #[test]
    fn truncated_delta_batch_is_rejected() {
        let req = Request::DeltaBatch { first_seq: 1, deltas: sample_deltas() };
        let mut full = BytesMut::new();
        encode_request(&req, &mut full);
        let mut raw = full.to_vec();
        raw.truncate(raw.len() - 6);
        let len = (raw.len() - 4) as u32;
        raw[..4].copy_from_slice(&len.to_be_bytes());
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&raw);
        assert!(matches!(decode_request(&mut buf), Err(CodecError::BadPayload(_))));
    }

    #[test]
    fn requests_roundtrip_request_id_and_deadline() {
        let mut buf = BytesMut::new();
        encode_request_mux(&Request::Stats, 0xABCD_EF01_2345_6789, Some(1500), &mut buf);
        assert_eq!(buf[4], WIRE_VERSION);
        let d = decode_request_full(&mut buf).unwrap().expect("complete frame");
        assert!(buf.is_empty());
        assert_eq!(d.req_id, 0xABCD_EF01_2345_6789);
        assert_eq!(d.deadline_ms, Some(1500));

        encode_request_mux(&Request::Stats, 7, None, &mut buf);
        let d = decode_request_full(&mut buf).unwrap().expect("complete frame");
        assert_eq!(d.req_id, 7);
        assert_eq!(d.deadline_ms, None);
    }

    #[test]
    fn responses_echo_the_request_id() {
        let resp = Response::AddPoi { poi_id: 9 };
        let mut buf = BytesMut::new();
        encode_response_to(&resp, 42, &mut buf);
        assert_eq!(buf[4], WIRE_VERSION);
        let d = decode_response_full(&mut buf).unwrap().expect("complete frame");
        assert_eq!(d.req_id, 42);
        assert_eq!(d.response, resp);
    }

    #[test]
    fn unknown_request_flags_are_rejected() {
        let mut buf = BytesMut::new();
        encode_request_mux(&Request::Stats, 1, None, &mut buf);
        // The flags byte sits after len(4) + ver(1) + kind(1) + req id(8)
        // + trace ctx(16).
        let flags_at = 4 + 1 + 1 + 8 + 16;
        buf[flags_at] = 0x80;
        assert_eq!(
            decode_request_full(&mut buf).map(|d| d.map(|d| d.request)),
            Err(CodecError::BadPayload("unknown request flags"))
        );
    }

    #[test]
    fn overloaded_error_code_roundtrips() {
        let resp = Response::Error {
            code: ErrorCode::Overloaded,
            message: "estimated queue wait exceeds server budget".into(),
        };
        assert_eq!(roundtrip_response(&resp), resp);
    }

    #[test]
    fn current_requests_carry_the_current_span_context() {
        let ctx = SpanContext { trace: 0x1234_5678_9ABC_DEF0, span: 42 };
        let _g = trace::attach(ctx);
        let mut buf = BytesMut::new();
        encode_request(&Request::Stats, &mut buf);
        let d = decode_request_full(&mut buf).unwrap().expect("complete frame");
        // Under obs-off the attach above is a no-op and the frame
        // carries the empty context; the layout is identical either way.
        let want = if staq_obs::obs_enabled() { ctx } else { SpanContext::NONE };
        assert_eq!(d.ctx, want);
    }

    #[test]
    fn oversized_frame_is_rejected_before_buffering() {
        let mut buf = BytesMut::new();
        buf.put_u32((MAX_FRAME_LEN + 1) as u32);
        assert_eq!(decode_request(&mut buf), Err(CodecError::FrameTooLarge(MAX_FRAME_LEN + 1)));
    }

    #[test]
    fn trailing_garbage_in_frame_is_rejected() {
        let mut buf = BytesMut::new();
        encode_request(&Request::Stats, &mut buf);
        // Extend payload by one byte and fix up the length prefix.
        let mut raw = buf.to_vec();
        raw.push(0xAB);
        let len = (raw.len() - 4) as u32;
        raw[..4].copy_from_slice(&len.to_be_bytes());
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&raw);
        assert_eq!(
            decode_request(&mut buf),
            Err(CodecError::BadPayload("trailing bytes in frame"))
        );
    }

    /// A 70 000-byte message of 3-byte characters: the `u16` cut at
    /// 65 535 bytes happens to be a boundary (21 845 chars), so shift it
    /// by one ASCII byte to land the cut mid-character.
    #[test]
    fn over_long_strings_truncate_at_a_char_boundary() {
        let message = format!("x{}", "\u{20AC}".repeat(23_333));
        assert_eq!(message.len(), 70_000);
        assert!(!message.is_char_boundary(u16::MAX as usize));
        let sent = Response::Error { code: ErrorCode::Invalid, message: message.clone() };
        match roundtrip_response(&sent) {
            Response::Error { message: got, .. } => {
                assert_eq!(got.len(), 65_533, "cut at the last whole character that fits");
                assert!(message.starts_with(&got));
            }
            other => panic!("{other:?}"),
        }
        let alert = Request::ApplyDelta {
            seq: 1,
            delta: Delta::ServiceAlert { route: RouteId(1), message: message.clone() },
        };
        match roundtrip_request(&alert) {
            Request::ApplyDelta { delta: Delta::ServiceAlert { message: got, .. }, .. } => {
                assert!(message.starts_with(&got) && got.len() == 65_533);
            }
            other => panic!("{other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any version byte other than the current one is `BadVersion`
        /// from the first five bytes: nothing is consumed, and a claimed
        /// length the buffer does not hold (up to the 16 MiB cap) is not
        /// waited for, so nothing is buffered or allocated on its account.
        #[test]
        fn any_other_version_byte_is_rejected_from_the_header(
            offset in 1u8..=255u8,
            claimed_len in 2u32..=(MAX_FRAME_LEN as u32),
            kind in 0u8..=255u8,
        ) {
            let version = WIRE_VERSION.wrapping_add(offset);
            let mut buf = BytesMut::new();
            buf.put_u32(claimed_len);
            buf.put_u8(version);
            buf.put_u8(kind);
            let before = buf.len();
            prop_assert_eq!(decode_request(&mut buf), Err(CodecError::BadVersion(version)));
            prop_assert_eq!(decode_response(&mut buf), Err(CodecError::BadVersion(version)));
            prop_assert_eq!(buf.len(), before);

            // The same byte stamped onto an otherwise valid, complete frame.
            let mut whole = BytesMut::new();
            encode_request(&Request::Stats, &mut whole);
            whole[4] = version;
            prop_assert_eq!(decode_request(&mut whole), Err(CodecError::BadVersion(version)));
        }

        #[test]
        fn arbitrary_query_requests_roundtrip(
            cat in 0usize..4,
            tag in 0u8..6,
            x in -1e6f64..1e6,
            k in 0u32..1000,
            approx_bit in 0u8..2,
        ) {
            let approx = approx_bit == 1;
            let category = PoiCategory::ALL[cat];
            let query = match tag {
                0 => AccessQuery::MeanAccess,
                1 => AccessQuery::Classification,
                2 => AccessQuery::AtRisk { threshold_factor: x },
                3 => AccessQuery::Fairness { weight: DemographicWeight::Children },
                4 => AccessQuery::WorstZones { k: k as usize },
                _ => AccessQuery::PointAccess { x, y: x * 0.5 - 12.0 },
            };
            let req = Request::Query { category, query, approx };
            prop_assert_eq!(roundtrip_request(&req), req);
        }

        #[test]
        fn arbitrary_measure_responses_roundtrip(
            n in 0usize..64,
            seed in 0u64..1000,
        ) {
            let ms: Vec<ZoneMeasures> = (0..n)
                .map(|i| ZoneMeasures {
                    zone: ZoneId(i as u32),
                    mac: (seed as f64) * 0.25 + i as f64,
                    acsd: i as f64 * 0.125,
                })
                .collect();
            let resp = Response::Measures(ms);
            prop_assert_eq!(roundtrip_response(&resp), resp);
        }
    }
}
