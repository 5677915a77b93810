//! Prices the staq-net reactor serving core.
//!
//! ```text
//! net-bench [--conns N] [--duration secs] [--workers N] [--seed N]
//!           [--quick] [--emit-json path] [--baseline path]
//! ```
//!
//! Three measurements, one report (`BENCH_net.json`):
//!
//! 1. **Warm latency, low concurrency.** One connection issues warm
//!    `MeanAccess` queries for `--duration` seconds; p50/p90/p99 are
//!    reported. This is the "the reactor must not tax the common case"
//!    number: the committed baseline comparison warns when p50 drifts
//!    more than 6%.
//! 2. **Multiplexing.** Eight concurrent callers run the same closed
//!    loop twice: sharing ONE multiplexed connection, then with eight
//!    private connections. Reports both throughputs and their ratio,
//!    and hard-fails unless a scripted query mix answers bit-identically
//!    over both transports (the mux must be a pure wire optimisation).
//! 3. **Mass connections.** `--conns` simultaneous connections (default
//!    10000, `--quick` 512) against the single reactor thread.
//!    Every connection answers one warm query; sustained throughput,
//!    connect time, and the `net.conns` peak are reported. The held
//!    count is clamped to the process fd limit (two fds per loopback
//!    connection — bench and server share the process); the remainder
//!    is churned through connect-query-close so the *served* total
//!    always reaches `--conns`.
//!
//! `--baseline` compares against a committed report and *warns* on
//! regression — it never fails the run (shared-runner timing is noisy;
//! the artifact is the trend record).

use bytes::BytesMut;
use staq_access::AccessQuery;
use staq_gtfs::Delta;
use staq_serve::codec::encode_response;
use staq_serve::presets::CityPreset;
use staq_serve::{Client, MuxClient, Request, Response, ServerConfig, ServerHandle};
use staq_synth::PoiCategory;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

struct Args {
    conns: usize,
    duration: Duration,
    workers: usize,
    seed: u64,
    quick: bool,
    emit_json: Option<String>,
    baseline: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        conns: 10_000,
        duration: Duration::from_secs(2),
        workers: 2,
        seed: 42,
        quick: false,
        emit_json: None,
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--conns" => args.conns = parse(&mut it, "--conns"),
            "--duration" => args.duration = Duration::from_secs_f64(parse(&mut it, "--duration")),
            "--workers" => args.workers = parse(&mut it, "--workers"),
            "--seed" => args.seed = parse(&mut it, "--seed"),
            "--quick" => args.quick = true,
            "--emit-json" => args.emit_json = Some(need(&mut it, "--emit-json")),
            "--baseline" => args.baseline = Some(need(&mut it, "--baseline")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.quick {
        args.conns = args.conns.min(512);
        args.duration = args.duration.min(Duration::from_secs(1));
    }
    args
}

fn need(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn parse<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    need(it, flag).parse().unwrap_or_else(|_| usage(&format!("{flag} needs a valid value")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: net-bench [--conns N] [--duration secs] [--workers N] [--seed N] \
         [--quick] [--emit-json path] [--baseline path]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn warm_query() -> Request {
    Request::Query { category: PoiCategory::School, query: AccessQuery::MeanAccess, approx: false }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[i]
}

/// "Max open files" soft limit, from procfs; generous fallback when the
/// file is unreadable (non-Linux).
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("Max open files"))?;
            line.split_whitespace().nth(3)?.parse().ok()
        })
        .unwrap_or(1 << 20)
}

fn start_server(args: &Args) -> ServerHandle {
    let engine = CityPreset::Test.engine(0.05, args.seed);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: args.workers,
        queue_depth: 1024,
        ..Default::default()
    };
    let handle = staq_serve::serve(engine, &cfg).expect("bind loopback server");
    // Warm the School cache so every later query is the cheap path.
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.call(&warm_query()).expect("warm-up query");
    handle
}

// ---- part 1: warm latency at low concurrency --------------------------

struct WarmLatency {
    calls: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
}

fn bench_warm_latency(addr: SocketAddr, duration: Duration) -> WarmLatency {
    let mut c = Client::connect(addr).expect("connect");
    let req = warm_query();
    let mut samples = Vec::with_capacity(1 << 16);
    let t0 = Instant::now();
    while t0.elapsed() < duration {
        let t = Instant::now();
        c.call(&req).expect("warm call");
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    WarmLatency {
        calls: samples.len() as u64,
        p50_ns: percentile(&samples, 0.5),
        p90_ns: percentile(&samples, 0.9),
        p99_ns: percentile(&samples, 0.99),
    }
}

// ---- part 2: multiplexed vs private connections -----------------------

const MUX_CALLERS: usize = 8;

/// Runs [`MUX_CALLERS`] closed-loop callers for `duration`; `make`
/// builds each caller's per-thread call closure.
fn closed_loop_rps<F, G>(duration: Duration, make: F) -> f64
where
    F: Fn() -> G + Sync,
    G: FnMut() + Send,
{
    let total: u64 = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..MUX_CALLERS)
            .map(|_| {
                let make = &make;
                scope.spawn(move |_| {
                    let mut call = make();
                    let mut n = 0u64;
                    let t0 = Instant::now();
                    while t0.elapsed() < duration {
                        call();
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
    .unwrap();
    total as f64 / duration.as_secs_f64()
}

/// The scripted mix both transports must answer byte-for-byte equally —
/// including the one-stop route, which draws an error frame.
fn equivalence_script() -> Vec<Request> {
    vec![
        warm_query(),
        Request::Query {
            category: PoiCategory::School,
            query: AccessQuery::WorstZones { k: 5 },
            approx: false,
        },
        Request::Query {
            category: PoiCategory::School,
            query: AccessQuery::PointAccess { x: 2000.0, y: 2000.0 },
            approx: false,
        },
        Request::Measures { category: PoiCategory::School, approx: false },
        Request::ApplyDelta {
            seq: 0,
            delta: Delta::AddRoute { stops: vec![staq_geom::Point::new(0.0, 0.0)], headway_s: 600 },
        },
    ]
}

fn canon(resp: &Response) -> Vec<u8> {
    let mut buf = BytesMut::new();
    encode_response(resp, &mut buf);
    buf.to_vec()
}

fn assert_bit_identical(addr: SocketAddr) {
    let mux = MuxClient::connect(addr).expect("connect mux");
    let mut private = Client::connect(addr).expect("connect");
    for (i, req) in equivalence_script().iter().enumerate() {
        let a = canon(&mux.call(req).expect("mux call"));
        let b = canon(&private.call(req).expect("private call"));
        assert_eq!(a, b, "step {i}: mux and private answers diverge — the mux is not pure");
    }
}

struct MuxThroughput {
    mux_rps: f64,
    private_rps: f64,
}

fn bench_mux(addr: SocketAddr, duration: Duration) -> MuxThroughput {
    let mux = MuxClient::connect(addr).expect("connect mux");
    let mux_rps = closed_loop_rps(duration, || {
        let mux = mux.clone();
        let req = warm_query();
        move || {
            mux.call(&req).expect("mux call");
        }
    });
    let private_rps = closed_loop_rps(duration, || {
        let mut client = Client::connect(addr).expect("connect");
        let req = warm_query();
        move || {
            client.call(&req).expect("private call");
        }
    });
    MuxThroughput { mux_rps, private_rps }
}

// ---- part 3: mass connections -----------------------------------------

struct MassRun {
    requested: usize,
    held: usize,
    served: usize,
    connect_s: f64,
    sustained_rps: f64,
    peak_conns: u64,
}

fn bench_mass(addr: SocketAddr, requested: usize) -> MassRun {
    // Two fds per loopback connection (client end + server end) plus
    // headroom for the engine, listener, and stdio.
    let held_cap = (fd_limit().saturating_sub(256)) / 2;
    let held = requested.min(held_cap);
    let req = warm_query();

    let t_connect = Instant::now();
    let mut conns: Vec<Client> = (0..held)
        .map(|i| {
            Client::connect(addr).unwrap_or_else(|e| panic!("connect {i} of {held} failed: {e}"))
        })
        .collect();
    let connect_s = t_connect.elapsed().as_secs_f64();

    let t_serve = Instant::now();
    for c in &mut conns {
        c.call(&req).expect("query on held connection");
    }
    // The reactor now has every held connection open at once.
    let peak_conns = staq_obs::snapshot().gauge("net.conns").unwrap_or(0);
    // Churn the remainder so the served total reaches the request.
    for _ in held..requested {
        let mut c = Client::connect(addr).expect("churn connect");
        c.call(&req).expect("churn query");
    }
    let served = requested;
    let sustained_rps = served as f64 / t_serve.elapsed().as_secs_f64();
    drop(conns);
    MassRun { requested, held, served, connect_s, sustained_rps, peak_conns }
}

fn main() {
    let args = parse_args();

    println!("building test city (seed {}) and warming the cache...", args.seed);
    let mut server = start_server(&args);
    let addr = server.addr();

    let warm = bench_warm_latency(addr, args.duration);
    println!(
        "warm latency (1 conn, {} calls): p50 {}ns p90 {}ns p99 {}ns",
        warm.calls, warm.p50_ns, warm.p90_ns, warm.p99_ns
    );

    assert_bit_identical(addr);
    println!("mux vs private equivalence: bit-identical over the scripted mix");

    let mux = bench_mux(addr, args.duration);
    println!(
        "throughput ({MUX_CALLERS} callers): mux {:.0} req/s over 1 conn, \
         private {:.0} req/s over {MUX_CALLERS} conns ({:.2}x)",
        mux.mux_rps,
        mux.private_rps,
        mux.mux_rps / mux.private_rps.max(1.0)
    );

    let mass = bench_mass(addr, args.conns);
    println!(
        "mass connections: {} requested, {} held simultaneously (fd-limited), \
         {} served at {:.0} req/s sustained; connect {:.2}s; net.conns peak {}",
        mass.requested, mass.held, mass.served, mass.sustained_rps, mass.connect_s, mass.peak_conns
    );
    server.shutdown();

    if let Some(path) = &args.baseline {
        compare_baseline(path, warm.p50_ns, mux.mux_rps);
    }

    if let Some(path) = &args.emit_json {
        let json = format!(
            "{{\"bench\":\"net-bench\",\"seed\":{},\"quick\":{},\"workers\":{},\
             \"warm\":{{\"calls\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}},\
             \"mux\":{{\"callers\":{MUX_CALLERS},\"mux_rps\":{:.0},\"private_rps\":{:.0},\
             \"ratio\":{:.3},\"bit_identical\":true}},\
             \"mass\":{{\"requested\":{},\"held\":{},\"served\":{},\"connect_s\":{:.3},\
             \"sustained_rps\":{:.0},\"peak_conns\":{}}},\
             \"metrics\":{}}}",
            args.seed,
            args.quick,
            args.workers,
            warm.calls,
            warm.p50_ns,
            warm.p90_ns,
            warm.p99_ns,
            mux.mux_rps,
            mux.private_rps,
            mux.mux_rps / mux.private_rps.max(1.0),
            mass.requested,
            mass.held,
            mass.served,
            mass.connect_s,
            mass.sustained_rps,
            mass.peak_conns,
            staq_obs::snapshot().to_json(),
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
}

/// Warn-only gate: warm p50 within ±6% of the committed baseline, mux
/// throughput within 25% (throughput is noisier than latency on shared
/// runners). Prints, never exits non-zero. Only those two keys are read,
/// so a baseline written before a report key was dropped still compares.
fn compare_baseline(path: &str, p50_ns: u64, mux_rps: f64) {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("baseline: cannot read {path}, skipping comparison");
        return;
    };
    match first_json_f64(&text, "p50_ns") {
        Some(old) if old > 0.0 => {
            let drift = (p50_ns as f64 - old) / old;
            if drift.abs() > 0.06 {
                println!(
                    "WARNING: warm p50 drifted {:+.1}% vs baseline ({:.0}ns -> {p50_ns}ns, {path})",
                    100.0 * drift,
                    old
                );
            } else {
                println!(
                    "baseline warm p50: {:.0}ns -> {p50_ns}ns ({:+.1}%, within 6%)",
                    old,
                    100.0 * drift
                );
            }
        }
        _ => println!("baseline: no p50_ns in {path}"),
    }
    match first_json_f64(&text, "mux_rps") {
        Some(old) if mux_rps < old * 0.75 => {
            println!("WARNING: mux throughput regressed: {old:.0} -> {mux_rps:.0} req/s ({path})")
        }
        Some(old) => {
            println!("baseline mux throughput: {old:.0} -> {mux_rps:.0} req/s (within 25%)")
        }
        None => println!("baseline: no mux_rps in {path}"),
    }
}

/// Extracts the *first* `"key":<number>` occurrence from our own flat
/// hand-rolled report. Not a parser.
fn first_json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)?;
    let val = &text[at + needle.len()..];
    let end = val.find([',', '}'])?;
    val[..end].trim().parse().ok()
}
