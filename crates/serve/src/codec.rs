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
    /// Full SSR measure vector for one category. `approx` (the high bit of
    /// the category byte) is accepted, ignored: answers are exact.
    Measures { category: PoiCategory, approx: bool },
    /// An analytical access query against one category; `approx` as on
    /// [`Request::Measures`]: accepted, ignored, answers are exact.
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
    /// The request's query answered under this scenario.
    pub answer: QueryAnswer,
    /// Retired: always 0. It reported what a copy-on-write scenario overlay
    /// materialized; scenarios now build their network from a copy of the
    /// feed. Still carried so v4 frames keep their layout.
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

/// One type's wire form, stated once: how a value is written, how it is
/// read back, and the fewest bytes it can occupy. A frame body is a
/// sequence of `Wire` values.
trait Wire: Sized {
    /// Lower bound on one encoded value — what [`take_list`] divides the
    /// bytes left by to bound its reservation. Records sum their fields
    /// (`wire_record!`); a tagged union states its shortest variant.
    const MIN_BYTES: usize;
    fn put(&self, buf: &mut BytesMut);
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

/// Big-endian fixed-width primitives.
macro_rules! wire_fixed {
    ($($ty:ty: $put:ident / $get:ident),*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self)
            }
            fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
                if buf.remaining() < Self::MIN_BYTES {
                    return Err(CodecError::BadPayload("truncated frame"));
                }
                Ok(buf.$get())
            }
        }
    )*};
}

wire_fixed!(u8: put_u8 / get_u8, u16: put_u16 / get_u16, u32: put_u32 / get_u32);
wire_fixed!(u64: put_u64 / get_u64, f64: put_f64 / get_f64);

/// The one strict flag byte: 0 or 1, anything else is a corrupt frame.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8)
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::take(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadPayload("flag byte is neither 0 nor 1")),
        }
    }
}

/// A presence flag, then the value when present.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = bool::MIN_BYTES;
    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(if bool::take(buf)? { Some(T::take(buf)?) } else { None })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::take(buf)?, B::take(buf)?))
    }
}

/// `u16` length + UTF-8 bytes. A string longer than the prefix allows is
/// truncated at the last char boundary that fits, so the bytes on the
/// wire are always valid UTF-8.
impl Wire for String {
    const MIN_BYTES: usize = u16::MIN_BYTES;
    fn put(&self, buf: &mut BytesMut) {
        let n = self.floor_char_boundary(u16::MAX as usize);
        buf.put_u16(n as u16);
        buf.put_slice(&self.as_bytes()[..n]);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let n = u16::take(buf)? as usize;
        if buf.remaining() < n {
            return Err(CodecError::BadPayload("truncated string"));
        }
        let s = std::str::from_utf8(&buf.chunk()[..n])
            .map_err(|_| CodecError::BadPayload("non-UTF-8 string"))?
            .to_owned();
        buf.advance(n);
        Ok(s)
    }
}

/// The width of a list's count prefix.
trait Count: Wire + Copy {
    /// `len` as a count, saturated at what the prefix can carry.
    fn saturating(len: usize) -> Self;
    fn get(self) -> usize;
}

macro_rules! wire_count {
    ($($ty:ty),*) => {$(
        impl Count for $ty {
            fn saturating(len: usize) -> Self {
                <$ty>::try_from(len).unwrap_or(<$ty>::MAX)
            }
            fn get(self) -> usize {
                self as usize
            }
        }
    )*};
}

wire_count!(u8, u16, u32);

/// Writes `items` behind a `C`-wide count. A list with more items than
/// `C` can count is cut to the count written, never the other way round.
fn put_list<C: Count, T: Wire>(buf: &mut BytesMut, items: &[T]) {
    let n = C::saturating(items.len());
    n.put(buf);
    for item in &items[..n.get()] {
        item.put(buf);
    }
}

/// Capacity to pre-reserve for a counted list: trust the claimed count
/// only up to what the remaining bytes could actually hold. A frame that
/// lies about its count (arbitrary bytes from a desynced or hostile peer)
/// must fail on the per-element reads, not get a multi-gigabyte
/// allocation first.
fn capped(claimed: usize, remaining: usize, elem_bytes: usize) -> usize {
    claimed.min(remaining / elem_bytes.max(1))
}

fn take_list<C: Count, T: Wire>(buf: &mut &[u8]) -> Result<Vec<T>, CodecError> {
    let n = C::take(buf)?.get();
    let mut items = Vec::with_capacity(capped(n, buf.remaining(), T::MIN_BYTES));
    for _ in 0..n {
        items.push(T::take(buf)?);
    }
    Ok(items)
}

/// Lists are `u16`-counted; the few that are not call [`put_list`] /
/// [`take_list`] with their width.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = u16::MIN_BYTES;
    fn put(&self, buf: &mut BytesMut) {
        put_list::<u16, T>(buf, self)
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        take_list::<u16, T>(buf)
    }
}

/// A record is its fields in the order listed — the wire order, which
/// need not be the declaration order. Tuple newtypes name their field `0`.
macro_rules! wire_record {
    ($($ty:ident { $($field:tt: $fty:ty),* })*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty>::MIN_BYTES)*;
            fn put(&self, buf: &mut BytesMut) {
                $(self.$field.put(buf);)*
            }
            fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
                Ok($ty { $($field: <$fty>::take(buf)?),* })
            }
        }
    )*};
}

wire_record! {
    ZoneId { 0: u32 }
    TripId { 0: u32 }
    RouteId { 0: u32 }
    StopId { 0: u32 }
    Stime { 0: u32 }
    Point { x: f64, y: f64 }
    ZoneMeasures { zone: ZoneId, mac: f64, acsd: f64 }
    Journey { depart: Stime, arrive: Stime, legs: Vec<Leg> }
    WhatIfAnswer { answer: QueryAnswer, overlay_bytes: u64 }
    DeltaAck { seq: u64, zones_rebuilt: u32, replayed: bool }
    CounterSample { name: String, value: u64 }
    GaugeSample { name: String, value: u64 }
    HistogramSample {
        name: String,
        count: u64,
        sum_ns: u64,
        max_ns: u64,
        p50_ns: u64,
        p95_ns: u64,
        p99_ns: u64,
        buckets: Vec<(u32, u64)>
    }
    MetricsSnapshot {
        counters: Vec<CounterSample>,
        gauges: Vec<GaugeSample>,
        histograms: Vec<HistogramSample>
    }
    ClassWindow {
        class: String,
        span_ns: u64,
        count: u64,
        sum_ns: u64,
        max_ns: u64,
        shed: u64,
        buckets: Vec<(u32, u64)>
    }
    BurnWindow { span_ns: u64, total: u64, bad: u64 }
    SloStatus {
        class: String,
        objective_milli: u32,
        threshold_ns: u64,
        fast: BurnWindow,
        slow: BurnWindow,
        shed_total: u64
    }
    SlowTrace {
        trace: u64,
        class: String,
        root_dur_ns: u64,
        is_error: bool,
        captured_unix_ns: u64,
        spans: Vec<OwnedSpan>
    }
    OpsReport {
        interval_ns: u64,
        windows: u32,
        generated_unix_ns: u64,
        classes: Vec<ClassWindow>,
        slo: Vec<SloStatus>,
        slow: Vec<SlowTrace>
    }
}

/// One completed span: a record but for its `u8`-counted attribute list.
impl Wire for OwnedSpan {
    const MIN_BYTES: usize = 5 * u64::MIN_BYTES + String::MIN_BYTES + u8::MIN_BYTES;
    fn put(&self, buf: &mut BytesMut) {
        self.trace.put(buf);
        self.span.put(buf);
        self.parent.put(buf);
        self.name.put(buf);
        self.start_unix_ns.put(buf);
        self.dur_ns.put(buf);
        put_list::<u8, _>(buf, &self.attrs);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(OwnedSpan {
            trace: Wire::take(buf)?,
            span: Wire::take(buf)?,
            parent: Wire::take(buf)?,
            name: Wire::take(buf)?,
            start_unix_ns: Wire::take(buf)?,
            dur_ns: Wire::take(buf)?,
            attrs: take_list::<u8, _>(buf)?,
        })
    }
}

fn category_code(c: PoiCategory) -> u8 {
    PoiCategory::ALL.iter().position(|k| *k == c).expect("category in ALL") as u8
}

fn category_from(code: u8) -> Result<PoiCategory, CodecError> {
    PoiCategory::ALL
        .get(code as usize)
        .copied()
        .ok_or(CodecError::BadPayload("unknown POI category"))
}

impl Wire for PoiCategory {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(category_code(*self))
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        category_from(u8::take(buf)?)
    }
}

/// High bit of the category byte on `Measures`/`Query` requests: the
/// approx flag, still carried so existing frames decode unchanged, and
/// ignored by the server. Category codes stay tiny, so the bit is free.
const APPROX_FLAG: u8 = 0x80;

fn category_byte(c: PoiCategory, approx: bool) -> u8 {
    category_code(c) | if approx { APPROX_FLAG } else { 0 }
}

fn category_and_approx(raw: u8) -> Result<(PoiCategory, bool), CodecError> {
    Ok((category_from(raw & !APPROX_FLAG)?, raw & APPROX_FLAG != 0))
}

/// A fieldless enum as one code byte, each code stated once. `put`'s
/// match has no wildcard arm, so a new variant does not compile until it
/// is given a code.
macro_rules! wire_codes {
    ($($ty:ident, $unknown:literal: { $($variant:ident = $code:literal),* })*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 1;
            fn put(&self, buf: &mut BytesMut) {
                buf.put_u8(match self { $($ty::$variant => $code),* })
            }
            fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(match u8::take(buf)? {
                    $($code => $ty::$variant,)*
                    _ => return Err(CodecError::BadPayload($unknown)),
                })
            }
        }
    )*};
}

wire_codes! {
    AccessClass, "unknown access class": { Best = 0, MostlyGood = 1, MostlyBad = 2, Worst = 3 }
    DemographicWeight, "unknown demographic weight": {
        Uniform = 0, Population = 1, Unemployed = 2, Vulnerable = 3, Children = 4
    }
    ErrorCode, "unknown error code": {
        BadRequest = 1, Invalid = 2, Unavailable = 3, SeqGap = 4, Overloaded = 5
    }
}

impl Wire for DayOfWeek {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(self.index() as u8)
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        DayOfWeek::ALL
            .get(u8::take(buf)? as usize)
            .copied()
            .ok_or(CodecError::BadPayload("unknown day of week"))
    }
}

/// A tag byte then the variant's fields, as for every tagged union below.
impl Wire for AccessQuery {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut BytesMut) {
        match self {
            AccessQuery::MeanAccess => buf.put_u8(0),
            AccessQuery::Classification => buf.put_u8(1),
            AccessQuery::AtRisk { threshold_factor } => {
                buf.put_u8(2);
                threshold_factor.put(buf);
            }
            AccessQuery::Fairness { weight } => {
                buf.put_u8(3);
                weight.put(buf);
            }
            AccessQuery::WorstZones { k } => {
                buf.put_u8(4);
                (*k as u32).put(buf);
            }
            AccessQuery::PointAccess { x, y } => {
                buf.put_u8(5);
                x.put(buf);
                y.put(buf);
            }
        }
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::take(buf)? {
            0 => AccessQuery::MeanAccess,
            1 => AccessQuery::Classification,
            2 => AccessQuery::AtRisk { threshold_factor: Wire::take(buf)? },
            3 => AccessQuery::Fairness { weight: Wire::take(buf)? },
            4 => AccessQuery::WorstZones { k: u32::take(buf)? as usize },
            5 => AccessQuery::PointAccess { x: Wire::take(buf)?, y: Wire::take(buf)? },
            _ => return Err(CodecError::BadPayload("unknown query tag")),
        })
    }
}

/// The list-valued answers are `u32`-counted.
impl Wire for QueryAnswer {
    const MIN_BYTES: usize = 1 + u32::MIN_BYTES;
    fn put(&self, buf: &mut BytesMut) {
        match self {
            QueryAnswer::MeanAccess { mean_mac, mean_acsd, n_zones } => {
                buf.put_u8(0);
                mean_mac.put(buf);
                mean_acsd.put(buf);
                (*n_zones as u32).put(buf);
            }
            QueryAnswer::Classification(cs) => {
                buf.put_u8(1);
                put_list::<u32, _>(buf, cs);
            }
            QueryAnswer::AtRisk(zs) => {
                buf.put_u8(2);
                put_list::<u32, _>(buf, zs);
            }
            QueryAnswer::Fairness(j) => {
                buf.put_u8(3);
                j.put(buf);
            }
            QueryAnswer::WorstZones(zs) => {
                buf.put_u8(4);
                put_list::<u32, _>(buf, zs);
            }
            QueryAnswer::PointAccess { zone, mac, acsd } => {
                buf.put_u8(5);
                zone.put(buf);
                mac.put(buf);
                acsd.put(buf);
            }
        }
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::take(buf)? {
            0 => QueryAnswer::MeanAccess {
                mean_mac: Wire::take(buf)?,
                mean_acsd: Wire::take(buf)?,
                n_zones: u32::take(buf)? as usize,
            },
            1 => QueryAnswer::Classification(take_list::<u32, _>(buf)?),
            2 => QueryAnswer::AtRisk(take_list::<u32, _>(buf)?),
            3 => QueryAnswer::Fairness(Wire::take(buf)?),
            4 => QueryAnswer::WorstZones(take_list::<u32, _>(buf)?),
            5 => QueryAnswer::PointAccess {
                zone: Wire::take(buf)?,
                mac: Wire::take(buf)?,
                acsd: Wire::take(buf)?,
            },
            _ => return Err(CodecError::BadPayload("unknown answer tag")),
        })
    }
}

impl Wire for Delta {
    /// `TripCancel`: tag + trip.
    const MIN_BYTES: usize = 1 + TripId::MIN_BYTES;
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Delta::TripDelay { trip, delay_secs } => {
                buf.put_u8(0);
                trip.put(buf);
                delay_secs.put(buf);
            }
            Delta::TripCancel { trip } => {
                buf.put_u8(1);
                trip.put(buf);
            }
            Delta::RouteRemove { route } => {
                buf.put_u8(2);
                route.put(buf);
            }
            Delta::ServiceAlert { route, message } => {
                buf.put_u8(3);
                route.put(buf);
                message.put(buf);
            }
            Delta::AddRoute { stops, headway_s } => {
                buf.put_u8(4);
                headway_s.put(buf);
                stops.put(buf);
            }
        }
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::take(buf)? {
            0 => Delta::TripDelay { trip: Wire::take(buf)?, delay_secs: Wire::take(buf)? },
            1 => Delta::TripCancel { trip: Wire::take(buf)? },
            2 => Delta::RouteRemove { route: Wire::take(buf)? },
            3 => Delta::ServiceAlert { route: Wire::take(buf)?, message: Wire::take(buf)? },
            4 => Delta::AddRoute { headway_s: Wire::take(buf)?, stops: Wire::take(buf)? },
            _ => return Err(CodecError::BadPayload("unknown delta tag")),
        })
    }
}

impl Wire for Leg {
    /// `Walk` to no stop: tag + secs + absent flag.
    const MIN_BYTES: usize = 1 + u32::MIN_BYTES + Option::<StopId>::MIN_BYTES;
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Leg::Walk { secs, to_stop } => {
                buf.put_u8(0);
                secs.put(buf);
                to_stop.put(buf);
            }
            Leg::Wait { secs, at_stop } => {
                buf.put_u8(1);
                secs.put(buf);
                at_stop.put(buf);
            }
            Leg::Ride { trip, route, from_stop, to_stop, board, alight } => {
                buf.put_u8(2);
                trip.put(buf);
                route.put(buf);
                from_stop.put(buf);
                to_stop.put(buf);
                board.put(buf);
                alight.put(buf);
            }
        }
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::take(buf)? {
            0 => Leg::Walk { secs: Wire::take(buf)?, to_stop: Wire::take(buf)? },
            1 => Leg::Wait { secs: Wire::take(buf)?, at_stop: Wire::take(buf)? },
            2 => Leg::Ride {
                trip: Wire::take(buf)?,
                route: Wire::take(buf)?,
                from_stop: Wire::take(buf)?,
                to_stop: Wire::take(buf)?,
                board: Wire::take(buf)?,
                alight: Wire::take(buf)?,
            },
            _ => return Err(CodecError::BadPayload("unknown leg tag")),
        })
    }
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
    let head = |buf: &mut BytesMut, kind: u8| {
        buf.put_u8(kind);
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
            head(buf, K_MEASURES);
            buf.put_u8(category_byte(*category, *approx));
        }
        Request::Query { category, query, approx } => {
            head(buf, K_QUERY);
            buf.put_u8(category_byte(*category, *approx));
            query.put(buf);
        }
        Request::AddPoi { category, pos } => {
            head(buf, K_ADD_POI);
            category.put(buf);
            pos.put(buf);
        }
        Request::Stats => head(buf, K_STATS),
        Request::TraceDump { min_dur_ns, set_capture_ns } => {
            head(buf, K_TRACE_DUMP);
            min_dur_ns.put(buf);
            set_capture_ns.put(buf);
        }
        Request::ApplyDelta { seq, delta } => {
            head(buf, K_APPLY_DELTA);
            seq.put(buf);
            delta.put(buf);
        }
        Request::DeltaBatch { first_seq, deltas } => {
            head(buf, K_DELTA_BATCH);
            first_seq.put(buf);
            deltas.put(buf);
        }
        Request::WhatIf { category, scenarios, query } => {
            head(buf, K_WHAT_IF);
            category.put(buf);
            query.put(buf);
            scenarios.put(buf);
        }
        Request::Plan { origin, dest, depart, day, max_transfers } => {
            head(buf, K_PLAN);
            origin.put(buf);
            dest.put(buf);
            depart.put(buf);
            day.put(buf);
            max_transfers.put(buf);
        }
        Request::OpsReport => head(buf, K_OPS_REPORT),
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
    let head = |buf: &mut BytesMut, kind: u8| {
        buf.put_u8(kind);
        buf.put_u64(req_id);
    };
    match resp {
        Response::Measures(ms) => {
            head(buf, K_R_MEASURES);
            put_list::<u32, _>(buf, ms);
        }
        Response::Query(a) => {
            head(buf, K_R_QUERY);
            a.put(buf);
        }
        Response::AddPoi { poi_id } => {
            head(buf, K_R_ADD_POI);
            poi_id.put(buf);
        }
        Response::Stats(s) => {
            head(buf, K_R_STATS);
            s.pipeline_runs.put(buf);
            s.requests_served.put(buf);
            s.workers.put(buf);
            put_list::<u8, _>(buf, &s.cached);
            s.metrics.put(buf);
        }
        Response::TraceDump(spans) => {
            head(buf, K_R_TRACE_DUMP);
            put_list::<u32, _>(buf, spans);
        }
        Response::ApplyDelta(ack) => {
            head(buf, K_R_APPLY_DELTA);
            ack.put(buf);
        }
        Response::DeltaBatch { last_seq } => {
            head(buf, K_R_DELTA_BATCH);
            last_seq.put(buf);
        }
        Response::WhatIf(answers) => {
            head(buf, K_R_WHAT_IF);
            answers.put(buf);
        }
        Response::Plan(journeys) => {
            head(buf, K_R_PLAN);
            journeys.put(buf);
        }
        Response::OpsReport(report) => {
            head(buf, K_R_OPS_REPORT);
            report.put(buf);
        }
        Response::Error { code, message } => {
            head(buf, K_R_ERROR);
            code.put(buf);
            message.put(buf);
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
    let p = &mut &frame[..];
    let kind = u8::take(p)?;
    let req_id = u64::take(p)?;
    let ctx = SpanContext { trace: Wire::take(p)?, span: Wire::take(p)? };
    let flags = u8::take(p)?;
    if flags & !FLAG_DEADLINE != 0 {
        return Err(CodecError::BadPayload("unknown request flags"));
    }
    let deadline_ms = if flags & FLAG_DEADLINE != 0 { Some(u32::take(p)?) } else { None };
    let request = match kind {
        K_MEASURES => {
            let (category, approx) = category_and_approx(u8::take(p)?)?;
            Request::Measures { category, approx }
        }
        K_QUERY => {
            let (category, approx) = category_and_approx(u8::take(p)?)?;
            Request::Query { category, query: Wire::take(p)?, approx }
        }
        K_ADD_POI => Request::AddPoi { category: Wire::take(p)?, pos: Wire::take(p)? },
        K_STATS => Request::Stats,
        K_TRACE_DUMP => {
            Request::TraceDump { min_dur_ns: Wire::take(p)?, set_capture_ns: Wire::take(p)? }
        }
        K_APPLY_DELTA => Request::ApplyDelta { seq: Wire::take(p)?, delta: Wire::take(p)? },
        K_DELTA_BATCH => Request::DeltaBatch { first_seq: Wire::take(p)?, deltas: Wire::take(p)? },
        K_WHAT_IF => Request::WhatIf {
            category: Wire::take(p)?,
            query: Wire::take(p)?,
            scenarios: Wire::take(p)?,
        },
        K_PLAN => Request::Plan {
            origin: Wire::take(p)?,
            dest: Wire::take(p)?,
            depart: Wire::take(p)?,
            day: Wire::take(p)?,
            max_transfers: Wire::take(p)?,
        },
        K_OPS_REPORT => Request::OpsReport,
        other => return Err(CodecError::BadKind(other)),
    };
    if p.remaining() != 0 {
        return Err(CodecError::BadPayload("trailing bytes in frame"));
    }
    Ok(Some(DecodedRequest { request, ctx, req_id, deadline_ms }))
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
    let p = &mut &frame[..];
    let kind = u8::take(p)?;
    let req_id = u64::take(p)?;
    let response = match kind {
        K_R_MEASURES => Response::Measures(take_list::<u32, _>(p)?),
        K_R_QUERY => Response::Query(Wire::take(p)?),
        K_R_ADD_POI => Response::AddPoi { poi_id: Wire::take(p)? },
        K_R_STATS => Response::Stats(StatsReply {
            pipeline_runs: Wire::take(p)?,
            requests_served: Wire::take(p)?,
            workers: Wire::take(p)?,
            cached: take_list::<u8, _>(p)?,
            metrics: Wire::take(p)?,
        }),
        K_R_TRACE_DUMP => Response::TraceDump(take_list::<u32, _>(p)?),
        K_R_APPLY_DELTA => Response::ApplyDelta(Wire::take(p)?),
        K_R_DELTA_BATCH => Response::DeltaBatch { last_seq: Wire::take(p)? },
        K_R_WHAT_IF => Response::WhatIf(Wire::take(p)?),
        K_R_PLAN => Response::Plan(Wire::take(p)?),
        K_R_OPS_REPORT => Response::OpsReport(Wire::take(p)?),
        K_R_ERROR => Response::Error { code: Wire::take(p)?, message: Wire::take(p)? },
        other => return Err(CodecError::BadKind(other)),
    };
    if p.remaining() != 0 {
        return Err(CodecError::BadPayload("trailing bytes in frame"));
    }
    Ok(Some(DecodedResponse { response, req_id }))
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

    /// The snapshot's degenerate forms survive the wire: an untouched
    /// registry (three empty lists), `u64::MAX` values (u64 end to end,
    /// never through f64), and a histogram whose samples all lie beyond
    /// the bucketed range (~18 min) and so saturate into the top bucket.
    #[test]
    fn stats_with_degenerate_metrics_roundtrip() {
        let mut overflow = staq_obs::LatencyHistogram::new();
        for _ in 0..5 {
            overflow.record_ns(u64::MAX);
        }
        let overflow = HistogramSample::from_histogram("overflow", &overflow);
        assert_eq!(overflow.buckets.len(), 1, "all mass in one bucket");
        let snapshots = [
            MetricsSnapshot::default(),
            MetricsSnapshot {
                counters: vec![CounterSample { name: "c".into(), value: u64::MAX }],
                gauges: vec![GaugeSample { name: "g".into(), value: u64::MAX }],
                histograms: Vec::new(),
            },
            MetricsSnapshot { histograms: vec![overflow], ..Default::default() },
        ];
        for metrics in snapshots {
            let resp = Response::Stats(StatsReply {
                pipeline_runs: 0,
                requests_served: 0,
                cached: Vec::new(),
                workers: 1,
                metrics,
            });
            assert_eq!(roundtrip_response(&resp), resp);
        }
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
        assert_eq!(d.ctx, ctx);
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

    /// Each value's encoding is at least `MIN_BYTES` long and reads back.
    fn holds_min_bytes<T: Wire + PartialEq + std::fmt::Debug>(values: &[T]) {
        for v in values {
            let mut buf = BytesMut::new();
            v.put(&mut buf);
            assert!(
                (1..=buf.len()).contains(&T::MIN_BYTES),
                "{v:?} takes {} bytes, MIN_BYTES says {}",
                buf.len(),
                T::MIN_BYTES
            );
            let p = &mut &buf[..];
            assert_eq!(T::take(p).as_ref(), Ok(v));
            assert!(p.is_empty());
        }
    }

    /// `MIN_BYTES` only sizes a reservation, so nothing else would notice
    /// one that overstates: hold every wire type to it on its shortest
    /// values (empty strings and lists, absent options, every variant).
    /// Fixed-width primitives and the ID newtypes are their own size and
    /// are held to it through every record that sums them.
    #[test]
    fn min_bytes_never_exceeds_an_encoding() {
        holds_min_bytes(&[false, true]);
        holds_min_bytes(&[None, Some(3u64)]);
        holds_min_bytes(&[(7u32, 9u64)]);
        holds_min_bytes(&[String::new(), "x".to_owned()]);
        holds_min_bytes(&[Vec::<u64>::new(), vec![1]]);
        holds_min_bytes(&[Point::new(0.0, 0.0)]);
        holds_min_bytes(&PoiCategory::ALL);
        holds_min_bytes(&DayOfWeek::ALL);
        holds_min_bytes(&[AccessClass::Best, AccessClass::Worst]);
        holds_min_bytes(&[DemographicWeight::Uniform, DemographicWeight::Children]);
        holds_min_bytes(&[ErrorCode::BadRequest, ErrorCode::Overloaded]);
        holds_min_bytes(&[ZoneMeasures { zone: ZoneId(0), mac: 0.0, acsd: 0.0 }]);
        holds_min_bytes(&[
            AccessQuery::MeanAccess,
            AccessQuery::Classification,
            AccessQuery::AtRisk { threshold_factor: 1.0 },
            AccessQuery::Fairness { weight: DemographicWeight::Uniform },
            AccessQuery::WorstZones { k: 0 },
            AccessQuery::PointAccess { x: 0.0, y: 0.0 },
        ]);
        let answers = [
            QueryAnswer::MeanAccess { mean_mac: 0.0, mean_acsd: 0.0, n_zones: 0 },
            QueryAnswer::Classification(vec![]),
            QueryAnswer::AtRisk(vec![]),
            QueryAnswer::Fairness(0.0),
            QueryAnswer::WorstZones(vec![]),
            QueryAnswer::PointAccess { zone: ZoneId(0), mac: 0.0, acsd: 0.0 },
        ];
        holds_min_bytes(&answers.clone().map(|answer| WhatIfAnswer { answer, overlay_bytes: 0 }));
        holds_min_bytes(&answers);
        holds_min_bytes(&sample_deltas());
        holds_min_bytes(&[
            Delta::ServiceAlert { route: RouteId(0), message: String::new() },
            Delta::AddRoute { stops: vec![], headway_s: 0 },
        ]);
        holds_min_bytes(&sample_journey().legs);
        holds_min_bytes(&[Journey { depart: Stime(0), arrive: Stime(0), legs: vec![] }]);
        holds_min_bytes(&[DeltaAck { seq: 0, zones_rebuilt: 0, replayed: false }]);
        holds_min_bytes(&[CounterSample { name: String::new(), value: 0 }]);
        holds_min_bytes(&[GaugeSample { name: String::new(), value: 0 }]);
        holds_min_bytes(&[MetricsSnapshot::default(), sample_metrics()]);
        holds_min_bytes(&[BurnWindow::default()]);
        // The ops-report rows, then each again with its strings and
        // lists emptied.
        let report = sample_ops_report();
        let trace = report.slow[0].clone();
        holds_min_bytes(&sample_metrics().histograms);
        holds_min_bytes(&[HistogramSample {
            name: String::new(),
            buckets: vec![],
            ..sample_metrics().histograms[0].clone()
        }]);
        holds_min_bytes(&report.classes);
        holds_min_bytes(&[ClassWindow { class: String::new(), ..report.classes[1].clone() }]);
        holds_min_bytes(&report.slo);
        holds_min_bytes(&[SloStatus { class: String::new(), ..report.slo[0].clone() }]);
        holds_min_bytes(&trace.spans);
        holds_min_bytes(&[OwnedSpan {
            name: String::new(),
            attrs: vec![],
            ..trace.spans[0].clone()
        }]);
        holds_min_bytes(&[
            SlowTrace { class: String::new(), spans: vec![], ..trace.clone() },
            trace,
        ]);
        holds_min_bytes(&[OpsReport::default(), sample_ops_report()]);
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
