//! The staq-shard router daemon.
//!
//! ```text
//! shard [--addr 127.0.0.1:7900] [--shards N] [--mode process|thread]
//!       [--workers N] [--city birmingham|coventry|test] [--scale f]
//!       [--seed u64] [--serve-bin path] [--metrics-addr host:port]
//! ```
//!
//! Boots `--shards` backend engines — each one a spawned `serve` daemon
//! in `process` mode (the default), or an in-process server per shard in
//! `thread` mode — waits until every one answers its readiness probe,
//! then serves the wire protocol on `--addr` until SIGINT/EOF on
//! stdin. Backends that crash are respawned automatically; their
//! categories answer `Unavailable` in the meantime.

use staq_serve::presets::CityPreset;
use staq_shard::{
    route, Backend, ProcessBackend, RouterConfig, ShardSupervisor, SupervisorConfig, ThreadBackend,
};
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Process,
    Thread,
}

struct Args {
    addr: String,
    shards: usize,
    mode: Mode,
    workers: usize,
    city: CityPreset,
    scale: f64,
    seed: u64,
    serve_bin: Option<String>,
    metrics_addr: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7900".into(),
        shards: 4,
        mode: Mode::Process,
        workers: 4,
        city: CityPreset::Test,
        scale: 0.05,
        seed: 42,
        serve_bin: None,
        metrics_addr: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = need(&mut it, "--addr"),
            "--shards" => args.shards = parse(&mut it, "--shards"),
            "--mode" => {
                args.mode = match need(&mut it, "--mode").as_str() {
                    "process" => Mode::Process,
                    "thread" => Mode::Thread,
                    other => usage(&format!("unknown mode {other:?}")),
                }
            }
            "--workers" => args.workers = parse(&mut it, "--workers"),
            "--city" => {
                let v = need(&mut it, "--city");
                args.city =
                    CityPreset::parse(&v).unwrap_or_else(|| usage(&format!("unknown city {v:?}")));
            }
            "--scale" => args.scale = parse(&mut it, "--scale"),
            "--seed" => args.seed = parse(&mut it, "--seed"),
            "--serve-bin" => args.serve_bin = Some(need(&mut it, "--serve-bin")),
            "--metrics-addr" => args.metrics_addr = Some(need(&mut it, "--metrics-addr")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.shards == 0 {
        usage("--shards must be at least 1");
    }
    if args.workers == 0 {
        usage("--workers must be at least 1");
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
        "usage: shard [--addr host:port] [--shards N] [--mode process|thread] \
         [--workers N] [--city birmingham|coventry|test] [--scale f] [--seed u64] \
         [--serve-bin path] [--metrics-addr host:port]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn main() {
    let args = parse_args();
    let backends: Vec<Box<dyn Backend>> = match args.mode {
        Mode::Process => {
            let bin = match &args.serve_bin {
                Some(p) => std::path::PathBuf::from(p),
                None => ProcessBackend::sibling_serve_bin().unwrap_or_else(|e| {
                    eprintln!("error: cannot locate the serve binary: {e}");
                    std::process::exit(1);
                }),
            };
            if !bin.is_file() {
                eprintln!(
                    "error: serve binary not found at {} (build it, or pass --serve-bin)",
                    bin.display()
                );
                std::process::exit(1);
            }
            let daemon_args = vec![
                "--city".into(),
                args.city.to_string(),
                "--scale".into(),
                args.scale.to_string(),
                "--seed".into(),
                args.seed.to_string(),
                "--workers".into(),
                args.workers.to_string(),
            ];
            (0..args.shards)
                .map(|_| {
                    Box::new(ProcessBackend::new(bin.clone(), daemon_args.clone()))
                        as Box<dyn Backend>
                })
                .collect()
        }
        Mode::Thread => (0..args.shards)
            .map(|_| {
                let (city, scale, seed) = (args.city, args.scale, args.seed);
                Box::new(ThreadBackend::new(args.workers, move || {
                    Arc::new(city.engine(scale, seed))
                })) as Box<dyn Backend>
            })
            .collect(),
    };

    eprintln!(
        "starting {} {} backend(s) ({} city, scale {}, seed {})...",
        args.shards,
        if args.mode == Mode::Process { "process" } else { "thread" },
        args.city,
        args.scale,
        args.seed
    );
    let t0 = std::time::Instant::now();
    let sup = ShardSupervisor::start(backends, SupervisorConfig::default()).unwrap_or_else(|e| {
        eprintln!("error: fleet failed to start: {e}");
        std::process::exit(1);
    });
    eprintln!("fleet ready in {:.1}s", t0.elapsed().as_secs_f64());

    let router_cfg =
        RouterConfig { addr: args.addr.clone(), workers: 8, ..RouterConfig::default() };
    let mut handle = route(sup, &router_cfg).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {}: {e}", args.addr);
        std::process::exit(1);
    });
    eprintln!("routing on {} across {} shards; close stdin to stop", handle.addr(), args.shards);
    // Router-side registry: shard.* counters, backend latency banks, and
    // (in thread mode) the in-process backends' own metrics too.
    let _scrape = args.metrics_addr.as_ref().map(|addr| {
        let h = staq_serve::gateway::serve_metrics(addr).unwrap_or_else(|e| {
            eprintln!("error: cannot bind metrics listener {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("metrics on http://{}/metrics", h.addr());
        h
    });

    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
        sink.clear();
    }
    eprintln!("shutting down...");
    handle.shutdown();
}
