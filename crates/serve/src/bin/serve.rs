//! The staq-serve daemon.
//!
//! ```text
//! serve [--addr 127.0.0.1:7878] [--workers N] [--city birmingham|coventry|test]
//!       [--scale f] [--seed u64] [--queue-depth N] [--port-file path]
//!       [--metrics-addr host:port]
//! ```
//!
//! Builds the city and its offline artifacts (the expensive step), then
//! serves access queries and scenario edits until SIGINT/EOF on stdin.
//!
//! `--port-file` writes the bound address (useful with `--addr :0`) to a
//! file once the listener is up — how the staq-shard supervisor discovers
//! the port of a backend it spawned. The write is atomic (temp file +
//! rename) so a poller never reads a half-written address.
//!
//! `--metrics-addr` additionally serves the process's metrics registry as
//! Prometheus text on `GET /metrics` — the ops scrape surface.

use staq_serve::presets::CityPreset;
use staq_serve::{serve, ServerConfig};

struct Args {
    cfg: ServerConfig,
    city: CityPreset,
    scale: f64,
    seed: u64,
    port_file: Option<String>,
    metrics_addr: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: ServerConfig { addr: "127.0.0.1:7878".into(), ..Default::default() },
        city: CityPreset::Test,
        scale: 0.05,
        seed: 42,
        port_file: None,
        metrics_addr: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.cfg.addr = need(&mut it, "--addr"),
            "--workers" => args.cfg.workers = parse(&mut it, "--workers"),
            "--queue-depth" => args.cfg.queue_depth = parse(&mut it, "--queue-depth"),
            "--city" => {
                let v = need(&mut it, "--city");
                args.city =
                    CityPreset::parse(&v).unwrap_or_else(|| usage(&format!("unknown city {v:?}")));
            }
            "--scale" => args.scale = parse(&mut it, "--scale"),
            "--seed" => args.seed = parse(&mut it, "--seed"),
            "--port-file" => args.port_file = Some(need(&mut it, "--port-file")),
            "--metrics-addr" => args.metrics_addr = Some(need(&mut it, "--metrics-addr")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.cfg.workers == 0 {
        usage("--workers must be at least 1");
    }
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        usage("--scale must be in (0, 1]");
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
        "usage: serve [--addr host:port] [--workers N] [--queue-depth N] \
         [--city birmingham|coventry|test] [--scale f] [--seed u64] [--port-file path] \
         [--metrics-addr host:port]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn main() {
    let args = parse_args();
    eprintln!(
        "building {} city (scale {}, seed {}) and offline artifacts...",
        args.city, args.scale, args.seed
    );
    let t0 = std::time::Instant::now();
    let engine = args.city.engine(args.scale, args.seed);
    eprintln!(
        "ready in {:.1}s: {} zones, {} POIs",
        t0.elapsed().as_secs_f64(),
        engine.city().n_zones(),
        engine.city().pois.len()
    );

    let mut handle = serve(engine, &args.cfg).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {}: {e}", args.cfg.addr);
        std::process::exit(1);
    });
    eprintln!(
        "listening on {} ({} workers, queue depth {}); close stdin to stop",
        handle.addr(),
        args.cfg.workers,
        args.cfg.queue_depth
    );
    if let Some(path) = &args.port_file {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, handle.addr().to_string())
            .and_then(|()| std::fs::rename(&tmp, path))
            .unwrap_or_else(|e| {
                eprintln!("error: cannot write port file {path}: {e}");
                std::process::exit(1);
            });
    }
    let _scrape = args.metrics_addr.as_ref().map(|addr| {
        let h = staq_serve::gateway::serve_metrics(addr).unwrap_or_else(|e| {
            eprintln!("error: cannot bind metrics listener {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("metrics on http://{}/metrics", h.addr());
        h
    });

    // Foreground daemon: block until stdin closes (^D, or the supervisor
    // hanging up), then drain and exit.
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
        sink.clear();
    }
    eprintln!("shutting down...");
    handle.shutdown();
}
