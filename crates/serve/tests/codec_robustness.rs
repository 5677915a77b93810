//! Codec robustness: the shard router decodes frames produced by backend
//! processes it does not control, so the decoder must survive arbitrary
//! bytes — truncated frames, corrupted bytes, lying length prefixes and
//! element counts — without panicking or allocating unboundedly.
//!
//! Complements the round-trip tests inside `codec.rs`: those check that
//! well-formed frames survive; this file checks that malformed ones fail
//! *cleanly*.

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use staq_access::measures::ZoneMeasures;
use staq_access::{AccessClass, AccessQuery, DemographicWeight, QueryAnswer};
use staq_geom::Point;
use staq_gtfs::model::{RouteId, StopId, TripId};
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_gtfs::Delta;
use staq_obs::{BurnWindow, ClassWindow, OpsReport, OwnedSpan, SloStatus, SlowTrace};
use staq_obs::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
use staq_serve::codec::{
    decode_request, decode_response, encode_request, encode_request_mux, encode_response,
    encode_response_to, DeltaAck, ErrorCode, Request, Response, StatsReply, WhatIfAnswer,
};
use staq_synth::{PoiCategory, ZoneId};
use staq_transit::{Journey, Leg};

/// One delta of every variant (they reach the wire inside `DeltaBatch` and
/// `WhatIf`, through the same per-delta codec `ApplyDelta` uses).
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

/// One of every request variant and sub-variant, exercising every encoder
/// branch. New entries go at the end: the corruption proptests below
/// index the head of the list.
fn request_catalogue() -> Vec<Request> {
    vec![
        Request::Measures { category: PoiCategory::School, approx: false },
        Request::Measures { category: PoiCategory::JobCenter, approx: true },
        Request::Query {
            category: PoiCategory::Hospital,
            query: AccessQuery::MeanAccess,
            approx: false,
        },
        Request::Query {
            category: PoiCategory::School,
            query: AccessQuery::Classification,
            approx: false,
        },
        Request::Query {
            category: PoiCategory::VaxCenter,
            query: AccessQuery::AtRisk { threshold_factor: 1.25 },
            approx: false,
        },
        Request::Query {
            category: PoiCategory::JobCenter,
            query: AccessQuery::Fairness { weight: DemographicWeight::Vulnerable },
            approx: false,
        },
        Request::Query {
            category: PoiCategory::School,
            query: AccessQuery::WorstZones { k: 5 },
            approx: false,
        },
        Request::Query {
            category: PoiCategory::Hospital,
            query: AccessQuery::PointAccess { x: 512.0, y: -80.25 },
            approx: true,
        },
        Request::AddPoi { category: PoiCategory::Hospital, pos: Point::new(-12.5, 99.0) },
        Request::ApplyDelta {
            seq: 0,
            delta: Delta::AddRoute {
                stops: vec![Point::new(0.0, 0.0), Point::new(100.0, 50.0), Point::new(10.0, 1.0)],
                headway_s: 450,
            },
        },
        Request::Stats,
        Request::TraceDump { min_dur_ns: 0, set_capture_ns: None },
        Request::TraceDump { min_dur_ns: 50_000, set_capture_ns: Some(25_000) },
        Request::DeltaBatch { first_seq: 1, deltas: sample_deltas() },
        Request::WhatIf {
            category: PoiCategory::Hospital,
            scenarios: vec![vec![], sample_deltas(), vec![Delta::TripCancel { trip: TripId(9) }]],
            query: AccessQuery::WorstZones { k: 5 },
        },
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
        Request::OpsReport,
    ]
}

fn sample_metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![CounterSample { name: "a.b".into(), value: 7 }],
        gauges: vec![GaugeSample { name: "c".into(), value: 1 }],
        histograms: vec![HistogramSample {
            name: "d.e".into(),
            count: 10,
            sum_ns: 1000,
            max_ns: 200,
            p50_ns: 90,
            p95_ns: 180,
            p99_ns: 199,
            buckets: vec![(3, 9), (40, 1)],
        }],
    }
}

fn sample_span() -> OwnedSpan {
    OwnedSpan {
        trace: 0xDEAD_BEEF,
        span: 3,
        parent: 2,
        name: "raptor.query".into(),
        start_unix_ns: 1_700_000_000_000_100_000,
        dur_ns: 890,
        attrs: vec![("rounds".into(), 4), ("patterns_scanned".into(), 128)],
    }
}

/// A journey with a leg of every variant, and both walk-leg endings.
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

/// A report with a row of every kind.
fn sample_ops_report() -> OpsReport {
    OpsReport {
        interval_ns: 10_000_000_000,
        windows: 12,
        generated_unix_ns: 1_700_000_000_000_000_000,
        classes: vec![ClassWindow {
            class: "query".into(),
            span_ns: 10_000_000_000,
            count: 900,
            sum_ns: 45_000_000,
            max_ns: 2_000_000,
            buckets: vec![(100, 880), (150, 20)],
            shed: 3,
        }],
        slo: vec![SloStatus {
            class: "query".into(),
            objective_milli: 999,
            threshold_ns: 50_000_000,
            fast: BurnWindow { span_ns: 300_000_000_000, total: 900, bad: 23 },
            slow: BurnWindow { span_ns: 3_600_000_000_000, total: 12_000, bad: 24 },
            shed_total: 3,
        }],
        slow: vec![SlowTrace {
            trace: 0xFEED_F00D,
            class: "query".into(),
            root_dur_ns: 77_000_000,
            is_error: true,
            captured_unix_ns: 1_700_000_000_000_000_111,
            spans: vec![sample_span()],
        }],
    }
}

/// One of every response variant, including every answer tag, leg tag and
/// error code. New entries go at the end, as in [`request_catalogue`].
fn response_catalogue() -> Vec<Response> {
    vec![
        Response::Measures(vec![
            ZoneMeasures { zone: ZoneId(1), mac: 11.0, acsd: 0.25 },
            ZoneMeasures { zone: ZoneId(9), mac: 44.5, acsd: 3.5 },
        ]),
        Response::Query(QueryAnswer::MeanAccess { mean_mac: 9.5, mean_acsd: 1.0, n_zones: 64 }),
        Response::Query(QueryAnswer::Classification(vec![
            (ZoneId(0), AccessClass::Best),
            (ZoneId(1), AccessClass::MostlyGood),
            (ZoneId(2), AccessClass::MostlyBad),
            (ZoneId(3), AccessClass::Worst),
        ])),
        Response::Query(QueryAnswer::AtRisk(vec![ZoneId(5), ZoneId(6)])),
        Response::Query(QueryAnswer::Fairness(0.5)),
        Response::Query(QueryAnswer::WorstZones(vec![(ZoneId(2), 80.0), (ZoneId(4), 70.0)])),
        Response::AddPoi { poi_id: 17 },
        Response::ApplyDelta(DeltaAck { seq: 3, zones_rebuilt: 4, replayed: false }),
        Response::Stats(StatsReply {
            pipeline_runs: 2,
            requests_served: 99,
            cached: vec![PoiCategory::School, PoiCategory::VaxCenter],
            workers: 4,
            metrics: sample_metrics(),
        }),
        Response::Error { code: ErrorCode::BadRequest, message: "x".into() },
        Response::Error { code: ErrorCode::Invalid, message: "yy".into() },
        Response::Error { code: ErrorCode::Unavailable, message: String::new() },
        Response::Error { code: ErrorCode::SeqGap, message: "have 2, got 5".into() },
        Response::Error { code: ErrorCode::Overloaded, message: "queue budget".into() },
        Response::Query(QueryAnswer::PointAccess { zone: ZoneId(12), mac: 840.5, acsd: 2.5 }),
        Response::ApplyDelta(DeltaAck { seq: u64::MAX, zones_rebuilt: 0, replayed: true }),
        Response::DeltaBatch { last_seq: 12 },
        Response::TraceDump(vec![]),
        Response::TraceDump(vec![
            OwnedSpan { span: 2, parent: 0, attrs: vec![], ..sample_span() },
            sample_span(),
        ]),
        Response::WhatIf(vec![]),
        Response::WhatIf(vec![
            WhatIfAnswer {
                answer: QueryAnswer::MeanAccess { mean_mac: 9.5, mean_acsd: 1.5, n_zones: 3 },
                overlay_bytes: 4096,
            },
            WhatIfAnswer { answer: QueryAnswer::AtRisk(vec![]), overlay_bytes: 0 },
        ]),
        Response::Plan(vec![]),
        Response::Plan(vec![sample_journey(), Journey::walk_only(Stime(27000), 3000)]),
        Response::OpsReport(sample_ops_report()),
        Response::OpsReport(OpsReport::default()),
    ]
}

fn encoded_requests() -> Vec<Vec<u8>> {
    request_catalogue()
        .iter()
        .map(|r| {
            let mut b = BytesMut::new();
            encode_request(r, &mut b);
            b.to_vec()
        })
        .collect()
}

fn encoded_responses() -> Vec<Vec<u8>> {
    response_catalogue()
        .iter()
        .map(|r| {
            let mut b = BytesMut::new();
            encode_response(r, &mut b);
            b.to_vec()
        })
        .collect()
}

#[test]
fn every_request_variant_roundtrips() {
    for req in request_catalogue() {
        let mut b = BytesMut::new();
        encode_request(&req, &mut b);
        let got = decode_request(&mut b).unwrap().expect("complete frame");
        assert_eq!(got, req);
        assert!(b.is_empty());
    }
}

#[test]
fn every_response_variant_roundtrips() {
    for resp in response_catalogue() {
        let mut b = BytesMut::new();
        encode_response(&resp, &mut b);
        let got = decode_response(&mut b).unwrap().expect("complete frame");
        assert_eq!(got, resp);
        assert!(b.is_empty());
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes on the wire are frozen. `golden_frames.hex` holds every frame
/// of both catalogues as the encoder wrote it before the codec was
/// rebuilt around one per-type `Wire` trait (multiplexed form: request ID
/// 7, a 250 ms deadline on requests, no trace context); any difference
/// here is a wire break, not a fixture to regenerate.
#[test]
fn every_frame_matches_its_golden_bytes() {
    let mut golden = include_str!("golden_frames.hex").lines().filter(|l| !l.starts_with('#'));
    for req in request_catalogue() {
        let mut b = BytesMut::new();
        encode_request_mux(&req, 7, Some(250), &mut b);
        assert_eq!(Some(hex(&b).as_str()), golden.next(), "{req:?}");
    }
    for resp in response_catalogue() {
        let mut b = BytesMut::new();
        encode_response_to(&resp, 7, &mut b);
        assert_eq!(Some(hex(&b).as_str()), golden.next(), "{resp:?}");
    }
    assert_eq!(golden.next(), None, "fixture holds frames the catalogues no longer produce");
}

/// Rewrites the length prefix of `raw[..cut]` so the truncation presents
/// as a complete frame; `None` when the cut leaves no full prefix.
fn truncated_frame(raw: &[u8], cut: usize) -> Option<BytesMut> {
    if cut < 4 {
        return None;
    }
    let mut t = raw[..cut].to_vec();
    let len = (cut - 4) as u32;
    t[..4].copy_from_slice(&len.to_be_bytes());
    let mut b = BytesMut::new();
    b.extend_from_slice(&t);
    Some(b)
}

/// Every strict truncation of every variant, presented as a complete
/// frame, must decode to a clean error — never a panic, never a silently
/// shorter value.
#[test]
fn truncations_of_every_request_fail_cleanly() {
    for raw in encoded_requests() {
        for cut in 0..raw.len() {
            let Some(mut b) = truncated_frame(&raw, cut) else { continue };
            match decode_request(&mut b) {
                Err(_) | Ok(None) => {}
                Ok(Some(got)) => panic!("truncation at {cut}/{} decoded as {got:?}", raw.len()),
            }
        }
    }
}

#[test]
fn truncations_of_every_response_fail_cleanly() {
    for raw in encoded_responses() {
        for cut in 0..raw.len() {
            let Some(mut b) = truncated_frame(&raw, cut) else { continue };
            match decode_response(&mut b) {
                Err(_) | Ok(None) => {}
                Ok(Some(got)) => panic!("truncation at {cut}/{} decoded as {got:?}", raw.len()),
            }
        }
    }
}

/// A frame that claims a huge element count but carries almost no bytes
/// must be rejected without reserving the claimed capacity (the decoder
/// caps its pre-allocation by the bytes actually present).
#[test]
fn lying_element_counts_do_not_allocate() {
    use staq_serve::codec::CodecError;

    // Measures response claiming u32::MAX zones, 0 carried.
    let mut b = BytesMut::new();
    b.put_u32(2 + 8 + 4); // version + kind + req id + count
    b.put_u8(staq_serve::WIRE_VERSION);
    b.put_u8(0x81); // K_R_MEASURES
    b.put_u64(7);
    b.put_u32(u32::MAX);
    assert_eq!(decode_response(&mut b), Err(CodecError::BadPayload("truncated frame")));

    // Classification answer claiming u32::MAX entries.
    let mut b = BytesMut::new();
    b.put_u32(2 + 8 + 1 + 4); // version + kind + req id + tag + count
    b.put_u8(staq_serve::WIRE_VERSION);
    b.put_u8(0x82); // K_R_QUERY
    b.put_u64(7);
    b.put_u8(1); // Classification tag
    b.put_u32(u32::MAX);
    assert_eq!(decode_response(&mut b), Err(CodecError::BadPayload("truncated frame")));

    // ApplyDelta request whose AddRoute delta claims u16::MAX stops.
    let mut b = BytesMut::new();
    b.put_u32(2 + 8 + 16 + 1 + 8 + 1 + 4 + 2);
    b.put_u8(staq_serve::WIRE_VERSION);
    b.put_u8(0x07); // K_APPLY_DELTA
    b.put_u64(7); // req id
    b.put_u64(0); // trace
    b.put_u64(0); // span
    b.put_u8(0); // flags
    b.put_u64(0); // seq
    b.put_u8(4); // AddRoute tag
    b.put_u32(600); // headway
    b.put_u16(u16::MAX);
    assert_eq!(decode_request(&mut b), Err(CodecError::BadPayload("truncated frame")));
}

/// Drains a buffer the way a connection loop does; returns how many
/// frames decoded before the stream ended or went bad.
fn drain_responses(mut b: BytesMut) -> usize {
    let mut n = 0;
    loop {
        match decode_response(&mut b) {
            Ok(Some(_)) => n += 1,
            Ok(None) | Err(_) => return n,
        }
    }
}

fn drain_requests(mut b: BytesMut) -> usize {
    let mut n = 0;
    loop {
        match decode_request(&mut b) {
            Ok(Some(_)) => n += 1,
            Ok(None) | Err(_) => return n,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flipping any single byte of any well-formed response frame must
    /// never panic the decoder (it may still decode — some bytes are
    /// payload values — but it must return).
    #[test]
    fn single_byte_corruption_never_panics(
        frame_idx in 0usize..12,
        byte_idx in 0usize..4096,
        value in 0u8..=255u8,
    ) {
        let frames = encoded_responses();
        let raw = &frames[frame_idx % frames.len()];
        let mut corrupted = raw.clone();
        let i = byte_idx % corrupted.len();
        corrupted[i] = value;
        let mut b = BytesMut::new();
        b.extend_from_slice(&corrupted);
        drain_responses(b);
    }

    #[test]
    fn request_corruption_never_panics(
        frame_idx in 0usize..9,
        byte_idx in 0usize..4096,
        value in 0u8..=255u8,
    ) {
        let frames = encoded_requests();
        let raw = &frames[frame_idx % frames.len()];
        let mut corrupted = raw.clone();
        let i = byte_idx % corrupted.len();
        corrupted[i] = value;
        let mut b = BytesMut::new();
        b.extend_from_slice(&corrupted);
        drain_requests(b);
    }

    /// Entirely arbitrary bytes: the decoders must terminate cleanly on
    /// garbage streams of any shape.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255u8, 0..2048)) {
        let mut b = BytesMut::new();
        b.extend_from_slice(&bytes);
        drain_responses(b);
        let mut b = BytesMut::new();
        b.extend_from_slice(&bytes);
        drain_requests(b);
    }
}
