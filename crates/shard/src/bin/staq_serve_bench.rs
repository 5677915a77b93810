//! Open-loop load generator for a staq-serve daemon or a staq-shard
//! fleet.
//!
//! ```text
//! staq-serve-bench [--addr 127.0.0.1:7878 | --loopback] [--conns N]
//!                  [--duration secs] [--rate req/s] [--edit-every ms]
//!                  [--workers N] [--seed N] [--shards N] [--emit-json path]
//! ```
//!
//! Phase 1 (cold): with an empty server cache, one connection touches
//! every POI category once — these latencies include the SSR pipeline
//! run. Phase 2 (warm): `--conns` connections issue a rotating query mix
//! for `--duration` seconds; `--rate` (total requests/sec, spread across
//! connections) makes the loop open-loop — senders pace by wall clock
//! and do not slow down when the server does. `--rate 0` means closed
//! loop (send as fast as responses return). `--edit-every N` adds a
//! dedicated connection issuing `add_poi` every N ms, so the cache keeps
//! being invalidated under read load.
//!
//! `--loopback` skips the external daemon: the bench hosts its own
//! server (test-size city, `--seed`-fixed, `--workers` threads) on a
//! free loopback port — self-contained enough for CI.
//!
//! `--shards N` (loopback only) measures one-process-vs-N-process
//! serving: the same workload runs twice, first against a single server
//! with `--workers` threads, then against a staq-shard router fronting
//! `N` in-process backends of `--workers` threads each (scale-out, not
//! same-budget: the sharded fleet has N× the workers). The report prints
//! both and their throughput ratio; `--emit-json` (`BENCH_shard.json`)
//! carries a `single` and a `sharded` section. Both runs share this
//! process's metrics registry, so the sharded section's raw snapshot
//! includes the single run's samples — compare the client-side sections,
//! which are per-run.
//!
//! `--emit-json` without `--shards` writes the classic single-server
//! report (`BENCH_serve.json`): client-side throughput plus the server's
//! own [`MetricsSnapshot`] — per-kind latency quantiles as the workers
//! measured them, engine cache hit/miss/invalidation counts, pipeline
//! stage timings.
//!
//! `--trace-compare` (loopback only) prices the staq-trace span layer:
//! after a warm-up sweep, the same warm workload runs in interleaved
//! rounds with tracing disabled and enabled (`--duration` each, five
//! pairs), so drift affects both sides equally. The report and its JSON
//! (`BENCH_trace.json`) carry both median throughputs and their ratio —
//! the PR 2 contract holds when the ratio stays within the ±6% noise
//! floor. Run the same flag on an `obs-off` build for the third point
//! (metrics *and* spans compiled out); the JSON stamps `obs_enabled` so
//! the reports stay distinguishable.
//!
//! [`MetricsSnapshot`]: staq_obs::MetricsSnapshot

use staq_bench::{fmt_dur, LatencyHistogram};
use staq_serve::client::Client;
use staq_serve::presets::CityPreset;
use staq_serve::{ServerConfig, StatsReply};
use staq_shard::{route, RouterConfig, ShardSupervisor, SupervisorConfig, ThreadBackend};
use staq_synth::PoiCategory;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    conns: usize,
    duration: Duration,
    rate: f64,
    edit_every: Option<Duration>,
    loopback: bool,
    workers: usize,
    seed: u64,
    shards: usize,
    emit_json: Option<String>,
    trace_compare: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        conns: 16,
        duration: Duration::from_secs(10),
        rate: 0.0,
        edit_every: None,
        loopback: false,
        workers: 4,
        seed: 42,
        shards: 0,
        emit_json: None,
        trace_compare: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = need(&mut it, "--addr"),
            "--conns" => args.conns = parse(&mut it, "--conns"),
            "--duration" => args.duration = Duration::from_secs_f64(parse(&mut it, "--duration")),
            "--rate" => args.rate = parse(&mut it, "--rate"),
            "--edit-every" => {
                let ms: u64 = parse(&mut it, "--edit-every");
                args.edit_every = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--loopback" => args.loopback = true,
            "--workers" => args.workers = parse(&mut it, "--workers"),
            "--seed" => args.seed = parse(&mut it, "--seed"),
            "--shards" => args.shards = parse(&mut it, "--shards"),
            "--emit-json" => args.emit_json = Some(need(&mut it, "--emit-json")),
            "--trace-compare" => args.trace_compare = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.conns == 0 {
        usage("--conns must be at least 1");
    }
    if args.workers == 0 {
        usage("--workers must be at least 1");
    }
    if args.shards > 0 && !args.loopback {
        usage("--shards requires --loopback (the bench hosts the fleet itself)");
    }
    if args.trace_compare && !args.loopback {
        usage("--trace-compare requires --loopback (it toggles the in-process trace layer)");
    }
    if args.trace_compare && args.shards > 0 {
        usage("--trace-compare and --shards are mutually exclusive");
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
        "usage: staq-serve-bench [--addr host:port | --loopback] [--conns N] \
         [--duration secs] [--rate req/s] [--edit-every ms] [--workers N] \
         [--seed N] [--shards N] [--emit-json path] [--trace-compare]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

/// Kinds tracked separately in the report, in print order.
const KINDS: [&str; 4] = ["measures", "mean_access", "worst_zones", "at_risk"];

struct WorkerReport {
    hists: Vec<LatencyHistogram>, // indexed like KINDS
    errors: u64,
}

/// One full cold+warm run against one address.
struct PhaseReport {
    cold: LatencyHistogram,
    hists: Vec<LatencyHistogram>,
    edit: Option<(LatencyHistogram, u64)>,
    errors: u64,
    elapsed: f64,
    total: u64,
    stats0: StatsReply,
    stats1: StatsReply,
}

impl PhaseReport {
    fn req_per_sec(&self) -> f64 {
        self.total as f64 / self.elapsed
    }
}

fn main() {
    let mut args = parse_args();

    if args.shards > 0 {
        run_comparison(&args);
        return;
    }
    if args.trace_compare {
        run_trace_compare(&args);
        return;
    }

    // Self-hosted mode: a test-size city on a free loopback port, so CI
    // can run the bench without a separately managed daemon.
    let mut loopback_server = args.loopback.then(|| {
        let engine = CityPreset::Test.engine(0.05, args.seed);
        let handle = staq_serve::serve(
            engine,
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: args.workers,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("error: cannot start loopback server: {e}");
            std::process::exit(1);
        });
        args.addr = handle.addr().to_string();
        handle
    });

    let phase = run_workload(&args.addr, &args);
    print_phase(&phase, &args);

    if let Some(path) = &args.emit_json {
        let json = format!(
            "{{\"bench\":\"staq-serve-bench\",{}}}",
            phase_json(&phase, &args, args.workers as u64)
        );
        write_json(path, &json);
    }

    if let Some(mut server) = loopback_server.take() {
        server.shutdown();
    }
}

/// `--shards N`: the same workload against one process, then against a
/// sharded fleet, printed side by side.
fn run_comparison(args: &Args) {
    println!("== single process ({} workers) ==", args.workers);
    let mut server = {
        let engine = CityPreset::Test.engine(0.05, args.seed);
        staq_serve::serve(
            engine,
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: args.workers,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("error: cannot start loopback server: {e}");
            std::process::exit(1);
        })
    };
    let single = run_workload(&server.addr().to_string(), args);
    print_phase(&single, args);
    server.shutdown();
    drop(server);

    println!("\n== sharded: {} backends x {} workers ==", args.shards, args.workers);
    let backends = (0..args.shards)
        .map(|_| {
            let (workers, seed) = (args.workers, args.seed);
            Box::new(ThreadBackend::new(workers, move || {
                Arc::new(CityPreset::Test.engine(0.05, seed))
            })) as Box<dyn staq_shard::Backend>
        })
        .collect();
    let sup = ShardSupervisor::start(backends, SupervisorConfig::default()).unwrap_or_else(|e| {
        eprintln!("error: fleet failed to start: {e}");
        std::process::exit(1);
    });
    let mut router = route(sup, &RouterConfig::default()).unwrap_or_else(|e| {
        eprintln!("error: cannot bind router: {e}");
        std::process::exit(1);
    });
    let sharded = run_workload(&router.addr().to_string(), args);
    print_phase(&sharded, args);
    router.shutdown();

    let speedup = sharded.req_per_sec() / single.req_per_sec();
    println!(
        "\nsharded/single throughput: {:.0}/{:.0} req/s = {speedup:.2}x ({} shards)",
        sharded.req_per_sec(),
        single.req_per_sec(),
        args.shards
    );

    if let Some(path) = &args.emit_json {
        let json = format!(
            "{{\"bench\":\"staq-serve-bench\",\"mode\":\"shard-compare\",\"shards\":{},\
             \"speedup\":{speedup:.4},\"single\":{{{}}},\"sharded\":{{{}}}}}",
            args.shards,
            phase_json(&single, args, args.workers as u64),
            phase_json(&sharded, args, (args.workers * args.shards) as u64),
        );
        write_json(path, &json);
    }
}

/// `--trace-compare`: interleaved warm rounds with tracing off and on
/// against one loopback server, so the span layer's cost is measured
/// against its own baseline under identical drift.
fn run_trace_compare(args: &Args) {
    let mut server = {
        let engine = CityPreset::Test.engine(0.05, args.seed);
        staq_serve::serve(
            engine,
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: args.workers,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("error: cannot start loopback server: {e}");
            std::process::exit(1);
        })
    };
    let addr = server.addr().to_string();

    // Warm every category so no round pays a pipeline run.
    let mut control = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    for cat in PoiCategory::ALL {
        control.measures(cat).expect("warm-up measures");
    }

    const PAIRS: usize = 5;
    println!(
        "trace compare: {PAIRS} interleaved pairs of {:.1}s rounds, {} conns, obs_enabled={}",
        args.duration.as_secs_f64(),
        args.conns,
        staq_obs::obs_enabled()
    );
    let mut off = Vec::with_capacity(PAIRS);
    let mut on = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        for enabled in [false, true] {
            staq_obs::trace::set_enabled(enabled);
            let rps = timed_round(&addr, args);
            println!(
                "  pair {pair} tracing {}: {rps:.0} req/s",
                if enabled { "on " } else { "off" }
            );
            if enabled { &mut on } else { &mut off }.push(rps);
        }
    }
    staq_obs::trace::set_enabled(true);

    let m_off = median(&mut off);
    let m_on = median(&mut on);
    let ratio = m_on / m_off;
    let snap = staq_obs::snapshot();
    let recorded = snap.counter("trace.spans_recorded").unwrap_or(0);
    let dropped = snap.counter("trace.spans_dropped").unwrap_or(0);
    println!(
        "median tracing-on/off: {m_on:.0}/{m_off:.0} req/s = {ratio:.4} \
         ({recorded} spans recorded, {dropped} dropped)"
    );

    if let Some(path) = &args.emit_json {
        let fmt_list =
            |v: &[f64]| v.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(",");
        let json = format!(
            "{{\"bench\":\"staq-serve-bench\",\"mode\":\"trace-compare\",\
             \"obs_enabled\":{},\"seed\":{},\"workers\":{},\"conns\":{},\
             \"round_secs\":{:.3},\"pairs\":{PAIRS},\
             \"tracing_off_rps\":[{}],\"tracing_on_rps\":[{}],\
             \"median_off\":{m_off:.1},\"median_on\":{m_on:.1},\"on_off_ratio\":{ratio:.4},\
             \"spans_recorded\":{recorded},\"spans_dropped\":{dropped}}}",
            staq_obs::obs_enabled(),
            args.seed,
            args.workers,
            args.conns,
            args.duration.as_secs_f64(),
            fmt_list(&off),
            fmt_list(&on),
        );
        write_json(path, &json);
    }
    server.shutdown();
}

/// One warm round: the standard connection mix for `--duration`, returning
/// client-observed req/s.
fn timed_round(addr: &str, args: &Args) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let per_conn_interval =
        (args.rate > 0.0).then(|| Duration::from_secs_f64(args.conns as f64 / args.rate));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..args.conns)
        .map(|c| {
            let addr = addr.to_string();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_conn(&addr, c, per_conn_interval, &stop))
        })
        .collect();
    std::thread::sleep(args.duration);
    stop.store(true, Ordering::SeqCst);
    let mut total = 0u64;
    for h in handles {
        let r = h.join().expect("round thread panicked");
        total += r.hists.iter().map(LatencyHistogram::count).sum::<u64>();
    }
    total as f64 / t0.elapsed().as_secs_f64()
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Runs the cold sweep plus the timed warm mix against `addr`.
fn run_workload(addr: &str, args: &Args) -> PhaseReport {
    let mut control = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let stats0 = control.stats().expect("stats");
    println!(
        "server at {addr}: {} workers, {} pipeline runs so far",
        stats0.workers, stats0.pipeline_runs
    );

    // Cold phase: first touch per category pays the SSR pipeline.
    let mut cold = LatencyHistogram::new();
    for cat in PoiCategory::ALL {
        let t = Instant::now();
        control.measures(cat).expect("cold measures");
        cold.record(t.elapsed());
    }

    // Warm phase: rotating query mix over `conns` connections.
    let stop = Arc::new(AtomicBool::new(false));
    let per_conn_interval =
        (args.rate > 0.0).then(|| Duration::from_secs_f64(args.conns as f64 / args.rate));
    let t_start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..args.conns {
        let addr = addr.to_string();
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || run_conn(&addr, c, per_conn_interval, &stop)));
    }
    let editor = args.edit_every.map(|every| {
        let addr = addr.to_string();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_editor(&addr, every, &stop))
    });

    std::thread::sleep(args.duration);
    stop.store(true, Ordering::SeqCst);

    let mut hists: Vec<LatencyHistogram> =
        (0..KINDS.len()).map(|_| LatencyHistogram::new()).collect();
    let mut errors = 0u64;
    for h in handles {
        let r = h.join().expect("worker thread panicked");
        for (acc, part) in hists.iter_mut().zip(&r.hists) {
            acc.merge(part);
        }
        errors += r.errors;
    }
    let edit = editor.map(|h| h.join().expect("editor thread panicked"));
    let elapsed = t_start.elapsed().as_secs_f64();
    let total: u64 = hists.iter().map(|h| h.count()).sum();
    let stats1 = control.stats().expect("stats");
    PhaseReport { cold, hists, edit, errors, elapsed, total, stats0, stats1 }
}

fn print_phase(p: &PhaseReport, args: &Args) {
    println!("cold (first touch per category): {}", p.cold.summary());
    println!(
        "warm: {} requests over {:.1}s from {} conns -> {:.0} req/s ({} errors)",
        p.total,
        p.elapsed,
        args.conns,
        p.req_per_sec(),
        p.errors
    );
    for (kind, h) in KINDS.iter().zip(&p.hists) {
        if h.count() > 0 {
            println!("  {kind:<12} {}", h.summary());
        }
    }
    if let Some((h, errs)) = &p.edit {
        println!("  {:<12} {} ({errs} errors)", "add_poi", h.summary());
    }
    println!(
        "pipeline runs {} -> {} (+{}); requests served {}",
        p.stats0.pipeline_runs,
        p.stats1.pipeline_runs,
        p.stats1.pipeline_runs - p.stats0.pipeline_runs,
        p.stats1.requests_served
    );
    println!(
        "warm vs cold p99: {} vs {}",
        fmt_dur(
            p.hists
                .iter()
                .fold(LatencyHistogram::new(), |mut a, h| {
                    a.merge(h);
                    a
                })
                .percentile(99.0)
        ),
        fmt_dur(p.cold.percentile(99.0)),
    );
}

fn write_json(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {path}");
}

/// The body of one phase's machine-readable report (caller wraps it):
/// client-observed throughput plus the server's own view — per-kind
/// execution latency quantiles from the worker-side histograms, engine
/// cache counters, and the full metrics snapshot for anything else
/// (stage timings, RAPTOR counters, shard routing counters).
fn phase_json(p: &PhaseReport, args: &Args, workers: u64) -> String {
    let m = &p.stats1.metrics;
    let mut kinds = String::new();
    for (i, kind) in ["measures", "query", "add_poi", "stats"].iter().enumerate() {
        if i > 0 {
            kinds.push(',');
        }
        match m.histogram(&format!("serve.request.{kind}")) {
            Some(h) => kinds.push_str(&format!(
                "{{\"kind\":\"{kind}\",\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\
                 \"p99_ns\":{},\"max_ns\":{}}}",
                h.count, h.p50_ns, h.p95_ns, h.p99_ns, h.max_ns
            )),
            None => kinds.push_str(&format!("{{\"kind\":\"{kind}\",\"count\":0}}")),
        }
    }
    let cache = |name: &str| m.counter(&format!("engine.cache.{name}")).unwrap_or(0);
    format!(
        "\"seed\":{},\"workers\":{workers},\"conns\":{},\
         \"duration_secs\":{:.3},\"total_requests\":{},\"requests_per_sec\":{:.1},\
         \"errors\":{},\"pipeline_runs\":{},\"engine_cache\":{{\"hits\":{},\"misses\":{},\
         \"joins\":{},\"invalidations\":{}}},\"server_kinds\":[{}],\"metrics\":{}",
        args.seed,
        args.conns,
        p.elapsed,
        p.total,
        p.req_per_sec(),
        p.errors,
        p.stats1.pipeline_runs,
        cache("hits"),
        cache("misses"),
        cache("joins"),
        cache("invalidations"),
        kinds,
        m.to_json(),
    )
}

fn run_conn(addr: &str, index: usize, pace: Option<Duration>, stop: &AtomicBool) -> WorkerReport {
    use staq_access::AccessQuery;

    let mut report = WorkerReport {
        hists: (0..KINDS.len()).map(|_| LatencyHistogram::new()).collect(),
        errors: 0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        report.errors += 1;
        return report;
    };
    let mut i = index; // desynchronize the rotation across connections
    let mut next_send = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        if let Some(p) = pace {
            // Open loop: stick to the schedule even if responses lag.
            let now = Instant::now();
            if now < next_send {
                std::thread::sleep(next_send - now);
            }
            next_send += p;
        }
        let cat = PoiCategory::ALL[i % 4];
        let t = Instant::now();
        let (slot, res) = match i % 8 {
            0 => (0, client.measures(cat).map(|_| ())),
            1..=3 => (1, client.query(&AccessQuery::MeanAccess, cat).map(|_| ())),
            4 | 5 => (2, client.query(&AccessQuery::WorstZones { k: 10 }, cat).map(|_| ())),
            _ => (3, client.query(&AccessQuery::AtRisk { threshold_factor: 1.5 }, cat).map(|_| ())),
        };
        let elapsed = t.elapsed();
        match res {
            Ok(()) => report.hists[slot].record(elapsed),
            Err(_) => report.errors += 1,
        }
        i += 1;
    }
    report
}

fn run_editor(addr: &str, every: Duration, stop: &AtomicBool) -> (LatencyHistogram, u64) {
    let mut hist = LatencyHistogram::new();
    let mut errors = 0u64;
    let Ok(mut client) = Client::connect(addr) else { return (hist, 1) };
    // Walk POIs along a diagonal so every edit is a distinct position.
    let mut k = 0u32;
    while !stop.load(Ordering::SeqCst) {
        let pos = staq_geom::Point::new(500.0 + 13.0 * k as f64, 500.0 + 7.0 * k as f64);
        let t = Instant::now();
        match client.add_poi(PoiCategory::ALL[k as usize % 4], pos) {
            Ok(_) => hist.record(t.elapsed()),
            Err(_) => errors += 1,
        }
        k += 1;
        std::thread::sleep(every);
    }
    (hist, errors)
}
