//! Blocking client for the staq-serve wire protocol.
//!
//! One [`Client`] owns one TCP connection and issues one request at a
//! time (the protocol itself allows pipelining; the load generator opens
//! many clients instead). Semantic failures arrive as
//! [`ClientError::Server`] with the server's error code and message —
//! the connection stays usable after them.

use crate::codec::{
    self, CodecError, DeltaAck, ErrorCode, Request, Response, StatsReply, WhatIfAnswer,
};
use bytes::BytesMut;
use staq_access::measures::ZoneMeasures;
use staq_access::{AccessQuery, QueryAnswer};
use staq_geom::Point;
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_gtfs::Delta;
use staq_obs::{OpsReport, OwnedSpan};
use staq_synth::{PoiCategory, PoiId};
use staq_transit::Journey;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Codec(CodecError),
    /// The server answered with an error frame.
    Server {
        code: ErrorCode,
        message: String,
    },
    /// The server answered with the wrong response kind.
    Unexpected(&'static str),
    /// The server closed the connection.
    Disconnected,
    /// A configured read/write timeout elapsed mid-call. On a plain
    /// [`Client`] this poisons the connection (the response may still
    /// arrive and would pair with the next request); a
    /// [`MuxClient`](crate::mux::MuxClient) survives it (late responses
    /// are matched by ID and discarded).
    TimedOut,
    /// A previous call failed mid-frame; request/response pairing on this
    /// connection can no longer be trusted. Discard the client.
    Poisoned,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Codec(e) => write!(f, "codec: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::TimedOut => write!(f, "timed out waiting for the server"),
            ClientError::Poisoned => {
                write!(f, "connection poisoned by an earlier mid-frame failure")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// Per-connection client tunables.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Longest a call blocks waiting for response bytes before failing
    /// with [`ClientError::TimedOut`] (and poisoning the connection).
    /// `None` waits forever — a stalled or half-open server blocks the
    /// caller indefinitely.
    pub read_timeout: Option<Duration>,
    /// Same, for writing the request (a peer that stopped reading
    /// eventually exhausts the socket buffer and stalls writes).
    pub write_timeout: Option<Duration>,
}

/// One connection to a staq-serve server.
pub struct Client {
    stream: TcpStream,
    buf: BytesMut,
    out: BytesMut,
    /// Set when a call failed after its request may have reached the
    /// wire: an unread (or half-read) response could still be in flight,
    /// so the next call would pair with the wrong frame. Once set, every
    /// call fails fast — pools use this to discard instead of reuse.
    poisoned: bool,
}

impl Client {
    /// Connects and disables Nagle (request/response latencies matter
    /// more than byte counts here). No timeouts: calls block until the
    /// server answers or the connection breaks.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Client::connect_with(addr, &ClientConfig::default())
    }

    /// [`connect`](Self::connect) with read/write timeouts. A timed-out
    /// call fails with [`ClientError::TimedOut`] and poisons the
    /// connection — the response may still be in flight, so reusing the
    /// socket could pair it with the next request.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, cfg: &ClientConfig) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(cfg.read_timeout)?;
        stream.set_write_timeout(cfg.write_timeout)?;
        Ok(Client {
            stream,
            buf: BytesMut::with_capacity(4096),
            out: BytesMut::with_capacity(4096),
            poisoned: false,
        })
    }

    /// True after any IO/codec failure mid-call: the connection's framing
    /// state is undefined and the client must not be reused. Semantic
    /// error frames ([`ClientError::Server`]) do *not* poison — the
    /// protocol stays in sync across them.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Full SSR measure vector for one category.
    pub fn measures(&mut self, category: PoiCategory) -> Result<Vec<ZoneMeasures>, ClientError> {
        match self.call(&Request::Measures { category, approx: false })? {
            Response::Measures(ms) => Ok(ms),
            other => Err(unexpected(other)),
        }
    }

    /// An analytical access query for one category.
    pub fn query(
        &mut self,
        query: &AccessQuery,
        category: PoiCategory,
    ) -> Result<QueryAnswer, ClientError> {
        match self.call(&Request::Query { category, query: query.clone(), approx: false })? {
            Response::Query(a) => Ok(a),
            other => Err(unexpected(other)),
        }
    }

    /// Scenario edit: add a POI.
    pub fn add_poi(&mut self, category: PoiCategory, pos: Point) -> Result<PoiId, ClientError> {
        match self.call(&Request::AddPoi { category, pos })? {
            Response::AddPoi { poi_id } => Ok(PoiId(poi_id)),
            other => Err(unexpected(other)),
        }
    }

    /// Scenario edit: add a bus route (an [`Delta::AddRoute`] at the next
    /// sequence number); returns zones rebuilt.
    pub fn add_bus_route(&mut self, stops: &[Point], headway_s: u32) -> Result<u32, ClientError> {
        let route = Delta::AddRoute { stops: stops.to_vec(), headway_s };
        Ok(self.apply_delta(0, &route)?.zones_rebuilt)
    }

    /// Streams one delta at a sequence number (0 = let the server assign
    /// the next one). A [`ClientError::Server`] with
    /// [`ErrorCode::SeqGap`] means this client is ahead of the server's
    /// log and must resend the missing tail first.
    pub fn apply_delta(&mut self, seq: u64, delta: &Delta) -> Result<DeltaAck, ClientError> {
        match self.call(&Request::ApplyDelta { seq, delta: delta.clone() })? {
            Response::ApplyDelta(ack) => Ok(ack),
            other => Err(unexpected(other)),
        }
    }

    /// Streams a contiguous run of deltas starting at `first_seq`
    /// (1-based); already-seen prefixes are skipped idempotently. Returns
    /// the highest sequence number the server's log now covers from this
    /// batch.
    pub fn delta_batch(&mut self, first_seq: u64, deltas: &[Delta]) -> Result<u64, ClientError> {
        match self.call(&Request::DeltaBatch { first_seq, deltas: deltas.to_vec() })? {
            Response::DeltaBatch { last_seq } => Ok(last_seq),
            other => Err(unexpected(other)),
        }
    }

    /// Evaluates counterfactual scenarios (each a delta list) against the
    /// live engine, answering `query` under each — side by side, in
    /// request order.
    pub fn what_if(
        &mut self,
        category: PoiCategory,
        scenarios: &[Vec<Delta>],
        query: &AccessQuery,
    ) -> Result<Vec<WhatIfAnswer>, ClientError> {
        match self.call(&Request::WhatIf {
            category,
            scenarios: scenarios.to_vec(),
            query: query.clone(),
        })? {
            Response::WhatIf(answers) => Ok(answers),
            other => Err(unexpected(other)),
        }
    }

    /// Point-to-point journeys against the live timetable: the Pareto
    /// (arrival, transfers) frontier, or — with `max_transfers` — the
    /// single fastest journey within that transfer cap.
    pub fn plan(
        &mut self,
        origin: Point,
        dest: Point,
        depart: Stime,
        day: DayOfWeek,
        max_transfers: Option<u8>,
    ) -> Result<Vec<Journey>, ClientError> {
        match self.call(&Request::Plan { origin, dest, depart, day, max_transfers })? {
            Response::Plan(journeys) => Ok(journeys),
            other => Err(unexpected(other)),
        }
    }

    /// The server's fleet-mergeable ops report: windowed per-class rates
    /// and quantiles, SLO burn status, retained slow traces.
    pub fn ops_report(&mut self) -> Result<OpsReport, ClientError> {
        match self.call(&Request::OpsReport)? {
            Response::OpsReport(report) => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// Completed spans at least `min_dur_ns` long from the server's trace
    /// ring; `set_capture_ns` first retunes the server's capture
    /// threshold (spans shorter than it are never recorded).
    pub fn trace_dump(
        &mut self,
        min_dur_ns: u64,
        set_capture_ns: Option<u64>,
    ) -> Result<Vec<OwnedSpan>, ClientError> {
        match self.call(&Request::TraceDump { min_dur_ns, set_capture_ns })? {
            Response::TraceDump(spans) => Ok(spans),
            other => Err(unexpected(other)),
        }
    }

    /// Sends one request frame and blocks for its response frame.
    ///
    /// Any IO or codec failure poisons the client: the request may have
    /// reached the server, so a retry on the same connection could read
    /// the *first* request's response as its own. Callers that retry must
    /// do so on a fresh connection.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        match self.call_inner(request) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn call_inner(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.out.clear();
        codec::encode_request(request, &mut self.out);
        self.stream.write_all(&self.out).map_err(map_io)?;
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some(resp) = codec::decode_response(&mut self.buf)? {
                return Ok(resp);
            }
            let n = self.stream.read(&mut scratch).map_err(map_io)?;
            if n == 0 {
                return Err(ClientError::Disconnected);
            }
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }
}

/// Socket-timeout expiries surface as `WouldBlock` (or `TimedOut`,
/// platform-dependent); everything else stays an IO error.
fn map_io(e: std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::TimedOut,
        _ => ClientError::Io(e),
    }
}

fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Server { code, message },
        Response::Measures(_) => ClientError::Unexpected("measures"),
        Response::Query(_) => ClientError::Unexpected("query answer"),
        Response::AddPoi { .. } => ClientError::Unexpected("add_poi ack"),
        Response::Stats(_) => ClientError::Unexpected("stats"),
        Response::TraceDump(_) => ClientError::Unexpected("trace dump"),
        Response::ApplyDelta(_) => ClientError::Unexpected("apply_delta ack"),
        Response::DeltaBatch { .. } => ClientError::Unexpected("delta_batch ack"),
        Response::WhatIf(_) => ClientError::Unexpected("what_if answers"),
        Response::Plan(_) => ClientError::Unexpected("plan journeys"),
        Response::OpsReport(_) => ClientError::Unexpected("ops report"),
    }
}
