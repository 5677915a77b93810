//! Per-layer probes for the traced pass: calls into each crate's `pub`
//! functions, timed from outside on the inputs the workload uses, plus
//! one warm request measured at each socket of the chain so hop costs
//! fall out as differences. Every timed call is a span of the
//! [`Recorder`]; a metric is the median over its spans.

use crate::check::{PLAN_DAY, PLAN_DEPART};
use crate::gen::{self, AGGREGATE_KINDS};
use crate::http::{self, HttpClient};
use crate::spans::Recorder;
use crate::stack::{generate_city, Workload, CITY_SEED};
use crate::workload::{Population, Session};
use bytes::BytesMut;
use staq_access::AccessQuery;
use staq_core::pipeline::ssr_train_infer;
use staq_core::{AccessEngine, OfflineArtifacts, PipelineConfig, SsrPipeline};
use staq_gtfs::{Delta, RouteId, TripId};
use staq_hoptree::{aggregate, FeatureExtractor, HopTreeStore};
use staq_ml::{AnnIndex, KdAnn};
use staq_net::http::{serve_http, HttpRequest, HttpResponse};
use staq_net::json::Json;
use staq_net::reactor::{self, ConnHandler, ConnId, ReactorConfig, ReplySink};
use staq_obs::trace;
use staq_road::{Isochrone, NodeSnapper};
use staq_rt::RtEngine;
use staq_serve::codec;
use staq_serve::pool::{execute, PoolStats};
use staq_serve::{serve_rt, MuxClient, Request, Response, ServerConfig};
use staq_synth::{City, CityConfig, PoiCategory, ZoneId};
use staq_todam::{LabelEngine, TodamSpec};
use staq_transit::{AccessCost, CostKind, Raptor, TransitNetwork};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations per span for nanosecond-scale calls.
const BATCH: u32 = 1_000;
/// Round trips per socket per interleaved round of the hop probe.
const HOP_CALLS: usize = 100;
const HOP_ROUNDS: usize = 12;

pub type Metrics = Vec<(&'static str, f64)>;

fn us(rec: &Recorder, span: &str) -> f64 {
    rec.median_ns(span) / 1e3
}

fn secs(rec: &Recorder, span: &str) -> f64 {
    rec.median_ns(span) / 1e9
}

/// Eight trips spread over the timetable, delayed in turn.
fn delay(city: &City, i: usize) -> Delta {
    let n = city.feed.feed().trips.len();
    Delta::TripDelay { trip: TripId(((i % 8) * (n / 8)) as u32), delay_secs: 30 }
}

fn alert(i: usize) -> Delta {
    Delta::ServiceAlert { route: RouteId(0), message: format!("probe {i}") }
}

fn cost_model(cfg: &PipelineConfig) -> AccessCost {
    match cfg.cost {
        CostKind::Jt => AccessCost::jt(),
        CostKind::Gac => AccessCost::gac(),
    }
}

/// Offline artifacts and the SSR pipeline, stage by stage, on the
/// workload's category and pipeline config.
fn pipeline_probes(rec: &mut Recorder, city: &City, w: Workload, out: &mut Metrics) {
    let cfg = w.pipeline();
    let category = w.category();
    let interval = cfg.todam.interval.clone();

    for _ in 0..3 {
        rec.time("synth.generate", 1, |_| generate_city());
    }
    out.push(("synth.generate_s", secs(rec, "synth.generate")));

    let snapper = NodeSnapper::new(&city.road);
    for zone in city.zones.iter().take(64) {
        rec.time("road.isochrone", 1, |_| {
            Isochrone::grow(
                &city.road,
                zone.centroid,
                snapper.snap_unchecked(&zone.centroid),
                &cfg.isochrone,
            )
        });
    }
    out.push(("road.isochrone_us", us(rec, "road.isochrone")));

    let mut store = None;
    for _ in 0..3 {
        store =
            Some(rec.time("hoptree.build", 1, |_| {
                HopTreeStore::build(city, &interval, &cfg.isochrone)
            }));
    }
    let mut store = store.expect("built three times");
    out.push(("hoptree.build_s", secs(rec, "hoptree.build")));
    for z in (0..city.n_zones() as u32).step_by(city.n_zones() / 32) {
        rec.time("hoptree.rebuild_zones", 1, |_| store.rebuild_zones(city, &[ZoneId(z)]));
    }
    out.push(("hoptree.rebuild_zones_us", us(rec, "hoptree.rebuild_zones")));

    let mut matrix = None;
    for _ in 0..5 {
        matrix = Some(rec.time("todam.build", 1, |_| cfg.todam.build(city, category)));
    }
    let matrix = matrix.expect("built five times");
    out.push(("todam.build_ms", rec.median_ns("todam.build") / 1e6));
    out.push(("todam.matrix_trips", matrix.n_trips() as f64));

    let mut fx = FeatureExtractor::new(city, &store);
    fx.use_interchanges = cfg.use_interchange_features;
    fx.max_hops = cfg.max_hops;
    for _ in 0..3 {
        rec.time("hoptree.features", 1, |_| aggregate::all_origin_features(&fx, city, &matrix));
    }
    let n_od: usize = (0..city.n_zones() as u32).map(|z| matrix.zone_alpha(ZoneId(z)).len()).sum();
    out.push(("hoptree.features_s", secs(rec, "hoptree.features")));
    out.push(("hoptree.features_ns_per_od", rec.median_ns("hoptree.features") / n_od as f64));

    // The whole pipeline, as the engine runs it on a cache miss.
    let artifacts = OfflineArtifacts::build(city, &interval, &cfg.isochrone);
    let pipeline = SsrPipeline::new(city, &artifacts, cfg.clone());
    let mut runs = Vec::new();
    for _ in 0..3 {
        runs.push(rec.time("core.pipeline_run", 1, |_| pipeline.run(category)));
    }
    runs.sort_by(|a, b| a.timings.total().total_cmp(&b.timings.total()));
    let result = &runs[1];
    let total = result.timings.total();
    out.push(("core.pipeline_run_s", secs(rec, "core.pipeline_run")));
    out.push(("core.stage_share_features", result.timings.feature_secs / total));
    out.push(("core.stage_share_labeling", result.timings.label_secs / total));
    out.push(("core.stage_share_train", result.timings.train_secs / total));

    // Labeling alone: wall over the worker threads, not CPU.
    let labeler = LabelEngine::new(city, cost_model(&cfg), interval);
    labeler.label_zones(&matrix, &result.labeled);
    let mut imbalance = Vec::new();
    for _ in 0..3 {
        let (_, walls) =
            rec.time("todam.label", 1, |_| labeler.label_zones_timed(&matrix, &result.labeled));
        let max = walls.iter().max().expect("a worker ran").as_secs_f64();
        let min = walls.iter().min().expect("a worker ran").as_secs_f64();
        imbalance.push(max / min);
    }
    out.push(("todam.label_s", secs(rec, "todam.label")));
    out.push((
        "todam.label_trips_per_s",
        labeler.trip_count(&matrix, &result.labeled) as f64 / secs(rec, "todam.label"),
    ));
    out.push(("todam.label_worker_imbalance", crate::stats::median(&imbalance)));

    for _ in 0..5 {
        rec.time("ml.train_infer", 1, |_| {
            ssr_train_infer(
                city,
                &cfg,
                &result.labeled,
                &result.unlabeled,
                &result.x_labeled,
                &result.x_unlabeled,
                &result.labeled_stats,
            )
        });
    }
    out.push(("ml.train_infer_ms", rec.median_ns("ml.train_infer") / 1e6));

    for _ in 0..20 {
        rec.time("access.answer", BATCH, |_| {
            for _ in 0..BATCH {
                std::hint::black_box(
                    AccessQuery::MeanAccess
                        .answer(std::hint::black_box(&result.predicted), &city.zones),
                );
            }
        });
    }
    out.push(("access.answer_ns", rec.median_ns("access.answer")));
}

/// The paper-scale probe: one feature-aggregation call and a 10 %
/// labeling pass at Coventry 1.0 (1014 zones), Hospital.
fn scale1_probes(rec: &mut Recorder, out: &mut Metrics) {
    let city = City::generate(&CityConfig::coventry(CITY_SEED));
    let spec = TodamSpec { per_hour: 3, ..Default::default() };
    let cfg = PipelineConfig::default();
    let store = HopTreeStore::build(&city, &spec.interval, &cfg.isochrone);
    let matrix = spec.build(&city, PoiCategory::Hospital);
    let fx = FeatureExtractor::new(&city, &store);
    rec.time("hoptree.features_scale1", 1, |_| aggregate::all_origin_features(&fx, &city, &matrix));
    let labeler = LabelEngine::new(&city, AccessCost::jt(), spec.interval.clone());
    let tenth: Vec<ZoneId> = (0..city.n_zones() as u32).step_by(10).map(ZoneId).collect();
    rec.time("todam.label_scale1", 1, |_| labeler.label_zones(&matrix, &tenth));
    out.push(("hoptree.features_s_scale1", secs(rec, "hoptree.features_scale1")));
    out.push(("todam.label_s_scale1", secs(rec, "todam.label_scale1")));
}

/// GTFS, transit and engine calls that need no socket.
fn engine_probes(
    rec: &mut Recorder,
    city: &City,
    w: Workload,
    pop: &Population,
    scratch: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    let cfg = w.pipeline();
    let category = w.category();

    let dir = scratch.join(format!("feed-{}", std::process::id()));
    staq_gtfs::write::to_dir(city.feed.feed(), &dir)?;
    for _ in 0..3 {
        rec.time("gtfs.parse", 1, |_| {
            staq_gtfs::parse::FeedText::from_dir(&dir).and_then(|t| t.parse())
        })?;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    out.push(("gtfs.parse_s", secs(rec, "gtfs.parse")));

    let mut feed = city.feed.clone();
    for i in 0..64 {
        rec.time("gtfs.apply_delta", 1, |_| {
            feed.apply_delta(&delay(city, i), city.config.bus_speed_mps)
        })?;
    }
    out.push(("gtfs.apply_delta_us", us(rec, "gtfs.apply_delta")));

    for _ in 0..10 {
        rec.time("transit.network_build", 1, |_| {
            TransitNetwork::with_defaults(&city.road, &city.feed)
        });
    }
    out.push(("transit.network_build_us", us(rec, "transit.network_build")));
    let net = TransitNetwork::with_defaults(&city.road, &city.feed);
    let router = Raptor::new(&net);
    let ods = crate::check::fixed_plan_ods(&pop.centroids);
    for pass in 0..4 {
        for (o, d) in &ods {
            // The first pass pays the access-cache misses.
            let names = if pass == 0 {
                ("warmup", "warmup")
            } else {
                ("transit.raptor_query", "transit.raptor_pareto")
            };
            rec.time(names.0, 1, |_| router.query(o, d, PLAN_DEPART, PLAN_DAY));
            rec.time(names.1, 1, |_| router.query_pareto(o, d, PLAN_DEPART, PLAN_DAY));
        }
    }
    out.push(("transit.raptor_query_us", us(rec, "transit.raptor_query")));
    out.push(("transit.raptor_pareto_us", us(rec, "transit.raptor_pareto")));

    let mut ann = KdAnn::new();
    for c in &pop.centroids {
        ann.push(&[c.x, c.y]);
    }
    for _ in 0..20 {
        rec.time("ml.ann_query", BATCH, |_| {
            for i in 0..BATCH as usize {
                let c = pop.centroids[pop.hot[i % pop.hot.len()]];
                std::hint::black_box(ann.nearest(&[c.x + 13.0, c.y - 7.0], 3));
            }
        });
    }
    out.push(("ml.ann_query_ns", rec.median_ns("ml.ann_query")));

    let mut engine = None;
    for _ in 0..3 {
        engine = Some(
            rec.time("core.engine_build", 1, |_| AccessEngine::new(city.clone(), cfg.clone())),
        );
    }
    let engine = engine.expect("built three times");
    out.push(("core.engine_build_s", secs(rec, "core.engine_build")));
    engine.measures(category);
    for zone in &city.zones {
        let q = AccessQuery::PointAccess { x: zone.centroid.x, y: zone.centroid.y };
        engine.query_approx(&q, category);
    }
    for _ in 0..20 {
        rec.time("core.query_warm", BATCH, |_| {
            for _ in 0..BATCH {
                std::hint::black_box(engine.query(&AccessQuery::MeanAccess, category));
            }
        });
        rec.time("core.query_approx", BATCH, |_| {
            for i in 0..BATCH as usize {
                let c = pop.centroids[pop.hot[i % 16]];
                let q = AccessQuery::PointAccess { x: c.x + 13.0, y: c.y - 7.0 };
                std::hint::black_box(engine.query_approx(&q, category));
            }
        });
    }
    out.push(("core.query_warm_ns", rec.median_ns("core.query_warm")));
    out.push(("core.query_approx_ns", rec.median_ns("core.query_approx")));
    for (o, d) in ods.iter().chain(&ods) {
        rec.time("core.plan", 1, |_| engine.plan(*o, *d, PLAN_DEPART, PLAN_DAY, None));
    }
    out.push(("core.plan_us", us(rec, "core.plan")));
    for i in 0..16 {
        rec.time("core.apply_delta", 1, |_| engine.apply_delta(&delay(city, i)))?;
    }
    out.push(("core.apply_delta_us", us(rec, "core.apply_delta")));

    let rt = RtEngine::new(Arc::new(engine));
    for i in 0..16 {
        rec.time("rt.apply", 1, |_| rt.apply(delay(city, i))).map_err(|e| e.to_string())?;
    }
    for i in 0..64 {
        rec.time("rt.apply_advisory", 1, |_| rt.apply(alert(i))).map_err(|e| e.to_string())?;
    }
    out.push(("rt.apply_us", us(rec, "rt.apply")));
    out.push(("rt.apply_advisory_us", us(rec, "rt.apply_advisory")));
    Ok(())
}

/// Wire codec, JSON and span costs: the per-request CPU floor of `serve`,
/// `net` and `obs`.
fn codec_probes(rec: &mut Recorder, warm: &AccessEngine, category: PoiCategory, out: &mut Metrics) {
    let request = Request::Query { category, query: AccessQuery::MeanAccess, approx: false };
    let small = Response::Query(warm.query(&AccessQuery::MeanAccess, category));
    let large = Response::Measures(warm.measures(category).predicted.clone());
    let body = gen::query_body(category, AGGREGATE_KINDS[0]);
    let mut buf = BytesMut::with_capacity(1 << 16);
    for _ in 0..20 {
        rec.time("serve.codec_req", BATCH, |_| {
            for _ in 0..BATCH {
                buf.clear();
                codec::encode_request(&request, &mut buf);
                std::hint::black_box(codec::decode_request_full(&mut buf).expect("own frame"));
            }
        });
        rec.time("serve.codec_resp_small", BATCH, |_| {
            for _ in 0..BATCH {
                buf.clear();
                codec::encode_response(&small, &mut buf);
                std::hint::black_box(codec::decode_response(&mut buf).expect("own frame"));
            }
        });
        rec.time("serve.codec_resp_measures", 50, |_| {
            for _ in 0..50 {
                buf.clear();
                codec::encode_response(&large, &mut buf);
                std::hint::black_box(codec::decode_response(&mut buf).expect("own frame"));
            }
        });
        rec.time("net.json_parse", BATCH, |_| {
            for _ in 0..BATCH {
                std::hint::black_box(Json::parse(std::hint::black_box(&body)).expect("own body"));
            }
        });
        rec.time("obs.span", 2 * BATCH, |_| {
            for _ in 0..BATCH {
                let _root = trace::root_span("bench.root");
                let _child = trace::span("bench.child");
            }
        });
    }
    out.push(("serve.codec_req_ns", rec.median_ns("serve.codec_req")));
    out.push(("serve.codec_resp_small_ns", rec.median_ns("serve.codec_resp_small")));
    out.push(("serve.codec_resp_measures_us", us(rec, "serve.codec_resp_measures")));
    out.push(("net.json_parse_ns", rec.median_ns("net.json_parse")));
    out.push(("obs.span_ns", rec.median_ns("obs.span")));
}

/// Echoes length-prefixed frames: the reactor with no protocol on top.
struct Echo;

impl ConnHandler for Echo {
    fn on_data(&mut self, conn: ConnId, buf: &mut BytesMut, out: &ReplySink) -> bool {
        while buf.len() >= 4 {
            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if buf.len() < 4 + len {
                break;
            }
            out.send(conn, buf.split_to(4 + len).freeze());
        }
        true
    }
}

/// Bare transports: what a round trip costs before any staq protocol.
fn echo_probes(rec: &mut Recorder, out: &mut Metrics) -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut handle = reactor::spawn(listener, Box::new(Echo), ReactorConfig::default())?;
    let mut stream = TcpStream::connect(handle.addr())?;
    stream.set_nodelay(true)?;
    let mut frame = 16u32.to_be_bytes().to_vec();
    frame.extend_from_slice(&[7u8; 16]);
    let mut back = [0u8; 20];
    for _ in 0..2_000 {
        rec.time("net.reactor_echo_rtt", 1, |_| {
            stream.write_all(&frame)?;
            stream.read_exact(&mut back)
        })?;
    }
    drop(stream);
    handle.finish(Duration::from_millis(100));
    out.push(("net.reactor_echo_rtt_us", us(rec, "net.reactor_echo_rtt")));

    let handler = Arc::new(|_: &HttpRequest| HttpResponse::json(200, r#"{"ok":true}"#.into()));
    let mut server = serve_http("127.0.0.1:0", 1, handler)?;
    let mut client = HttpClient::connect(server.addr())?;
    let request = http::post("/echo", r#"{"ok":true}"#);
    for _ in 0..2_000 {
        rec.time("net.http_echo_rtt", 1, |_| client.call(&request).map(|(status, _)| status))?;
    }
    drop(client);
    server.shutdown();
    out.push(("net.http_echo_rtt_us", us(rec, "net.http_echo_rtt")));
    Ok(())
}

/// The same warm request at each socket of the chain, interleaved so
/// drift hits all three alike; then the fleet-mutating broadcasts.
fn hop_probes(
    rec: &mut Recorder,
    city: &City,
    w: Workload,
    session: &mut Session,
    pool: usize,
    out: &mut Metrics,
) -> Result<(), String> {
    let category = w.category();
    let io = |e: std::io::Error| e.to_string();
    let warm = Arc::new(AccessEngine::new(city.clone(), w.pipeline()));
    warm.measures(category);
    codec_probes(rec, &warm, category, out);

    let request = Request::Query { category, query: AccessQuery::MeanAccess, approx: false };
    let rt = Arc::new(RtEngine::new(Arc::clone(&warm)));
    let stats = PoolStats::default();
    for _ in 0..50 {
        rec.time("serve.execute", 100, |_| {
            for _ in 0..100 {
                std::hint::black_box(execute(&rt, &stats, pool, &request));
            }
        });
    }

    let mut backend =
        serve_rt(Arc::clone(&rt), &ServerConfig { workers: pool, ..Default::default() })
            .map_err(io)?;
    let to_backend = MuxClient::connect(backend.addr()).map_err(io)?;
    let to_router = MuxClient::connect(session.fleet.router_addr()).map_err(io)?;
    let http_request = http::post("/v1/query", &gen::query_body(category, AGGREGATE_KINDS[0]));
    let mux_call = |mux: &MuxClient| match mux.call(&request) {
        Ok(Response::Query(_)) => Ok(()),
        other => Err(format!("hop probe got {other:?}")),
    };
    let http_call = |client: &mut HttpClient| match client.call(&http_request) {
        Ok((200, _)) => Ok(()),
        other => Err(format!("hop probe got {:?}", other.map(|(s, _)| s))),
    };
    for round in 0..=HOP_ROUNDS {
        // Round 0 warms connections and caches; it is recorded apart. The
        // gateway is measured twice per round, independently: the hops
        // derived from the first pass must add up to what the second
        // sees (`client.hop_sum_ratio`).
        let names = if round == 0 {
            ["warmup"; 4]
        } else {
            [
                "serve.backend_rtt",
                "client.router_rtt",
                "client.gateway_rtt",
                "client.gateway_rtt_check",
            ]
        };
        for _ in 0..HOP_CALLS {
            rec.time(names[0], 1, |_| mux_call(&to_backend))?;
        }
        for _ in 0..HOP_CALLS {
            rec.time(names[1], 1, |_| mux_call(&to_router))?;
        }
        for name in &names[2..] {
            for _ in 0..HOP_CALLS {
                rec.time(name, 1, |_| http_call(session.gateway_client()))?;
            }
        }
    }
    for _ in 0..500 {
        rec.time("shard.dispatch", 1, |_| {
            staq_shard::router::dispatch(session.fleet.supervisor(), request.clone())
        });
    }
    // Trace capture on vs off on one connection, in adjacent 150 ms
    // slices: the two slices of a pair share the host's mood, so the
    // median of the pair ratios is steadier than a ratio of totals.
    let mut ratios = Vec::new();
    for _ in 0..10 {
        let mut rate = [0.0f64; 2];
        for off in [false, true] {
            trace::set_enabled(!off);
            let (t0, mut calls) = (Instant::now(), 0u32);
            while t0.elapsed() < Duration::from_millis(150) {
                http_call(session.gateway_client())?;
                calls += 1;
            }
            rate[off as usize] = calls as f64 / t0.elapsed().as_secs_f64();
        }
        ratios.push(rate[1] / rate[0]);
    }
    trace::set_enabled(true);
    out.push(("obs.trace_off_speedup", crate::stats::median(&ratios)));

    drop(to_backend);
    drop(to_router);
    backend.shutdown();

    for i in 0..32 {
        rec.time("shard.broadcast_advisory", 1, |_| {
            session.fleet.supervisor().broadcast_delta(alert(i))
        })
        .map_err(|e| format!("advisory broadcast refused: {e:?}"))?;
    }
    for i in 0..8 {
        rec.time("shard.broadcast_structural", 1, |_| {
            session.fleet.supervisor().broadcast_delta(delay(city, i))
        })
        .map_err(|e| format!("structural broadcast refused: {e:?}"))?;
    }

    let execute_us = us(rec, "serve.execute");
    let backend_us = us(rec, "serve.backend_rtt");
    let router_us = us(rec, "client.router_rtt");
    let gateway_us = us(rec, "client.gateway_rtt");
    let hops =
        [execute_us, backend_us - execute_us, router_us - backend_us, gateway_us - router_us];
    out.push(("serve.execute_us", execute_us));
    out.push(("serve.backend_rtt_us", backend_us));
    out.push(("serve.backend_hop_us", hops[1]));
    out.push(("shard.router_hop_us", hops[2]));
    out.push(("serve.gateway_hop_us", hops[3]));
    out.push(("client.router_rtt_us", router_us));
    out.push(("client.gateway_rtt_us", gateway_us));
    out.push((
        "client.hop_sum_ratio",
        hops.iter().sum::<f64>() / us(rec, "client.gateway_rtt_check"),
    ));
    out.push(("shard.dispatch_us", us(rec, "shard.dispatch")));
    out.push(("shard.broadcast_advisory_us", us(rec, "shard.broadcast_advisory")));
    out.push(("shard.broadcast_structural_us", us(rec, "shard.broadcast_structural")));
    Ok(())
}

/// Runs every probe. `session` is the workload's fleet, already
/// verified; the broadcast probes mutate it, so nothing may read fleet
/// state after this.
pub fn run(
    rec: &mut Recorder,
    city: &City,
    w: Workload,
    pop: &Population,
    session: &mut Session,
    pool: usize,
    scratch: &Path,
) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    rec.time("probes.hops", 1, |rec| hop_probes(rec, city, w, session, pool, &mut out))?;
    rec.time("probes.echo", 1, |rec| echo_probes(rec, &mut out)).map_err(|e| e.to_string())?;
    rec.time("probes.pipeline", 1, |rec| pipeline_probes(rec, city, w, &mut out));
    rec.time("probes.engine", 1, |rec| engine_probes(rec, city, w, pop, scratch, &mut out))?;
    rec.time("probes.scale1", 1, |rec| scale1_probes(rec, &mut out));
    Ok(out)
}
