//! staq-top: live fleet health dashboard.
//!
//! ```text
//! staq-top [--addr 127.0.0.1:7900] [--interval SECS] [--count N] [--no-clear]
//! ```
//!
//! Polls the endpoint (a `staq-serve` server or a `staq-shard` router —
//! routers answer with the fleet-merged report) with an `OpsReport`
//! request every `--interval` seconds and redraws a per-class table:
//! request rate, window p50/p99, sheds, fast/slow burn rates and
//! remaining error budget, followed by the worst retained slow traces.
//!
//! `--count N` exits after N polls (0 = run until interrupted), which is
//! what scripts and smoke tests want; `--no-clear` appends frames
//! instead of redrawing in place, which is what logs want.

use staq_obs::{fmt_dur, OpsReport, SlowTrace};
use staq_serve::MuxClient;
use std::time::Duration;

struct Args {
    addr: String,
    interval: Duration,
    count: u64,
    no_clear: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7900".into(),
        interval: Duration::from_secs(2),
        count: 0,
        no_clear: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = need(&mut it, "--addr"),
            "--interval" => args.interval = Duration::from_secs(parse(&mut it, "--interval")),
            "--count" => args.count = parse(&mut it, "--count"),
            "--no-clear" => args.no_clear = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
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
    eprintln!("usage: staq-top [--addr host:port] [--interval SECS] [--count N] [--no-clear]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn main() {
    let args = parse_args();
    let client = MuxClient::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {}: {e}", args.addr);
        std::process::exit(1);
    });
    let mut polls = 0u64;
    loop {
        let report = client.ops_report().unwrap_or_else(|e| {
            eprintln!("error: ops report failed: {e}");
            std::process::exit(1);
        });
        if !args.no_clear {
            // Clear screen + home, like top(1); frames redraw in place.
            print!("\x1b[2J\x1b[H");
        }
        render(&args.addr, &report);
        polls += 1;
        if args.count != 0 && polls >= args.count {
            return;
        }
        std::thread::sleep(args.interval);
    }
}

fn render(addr: &str, r: &OpsReport) {
    println!(
        "staq-top  {addr}  interval={} windows={}",
        fmt_dur(Duration::from_nanos(r.interval_ns)),
        r.windows
    );
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>7} {:>8} {:>8} {:>7}",
        "CLASS", "RPS", "P50", "P99", "SHED", "BURN-5M", "BURN-1H", "BUDGET"
    );
    for c in &r.classes {
        let slo = r.slo_for(&c.class);
        println!(
            "{:<10} {:>9.1} {:>10} {:>10} {:>7} {:>8} {:>8} {:>6.1}%",
            c.class,
            c.rps(),
            fmt_dur(Duration::from_nanos(c.quantile_ns(50.0))),
            fmt_dur(Duration::from_nanos(c.quantile_ns(99.0))),
            c.shed,
            slo.map_or_else(|| "-".into(), |s| fmt_burn(s.burn_fast())),
            slo.map_or_else(|| "-".into(), |s| fmt_burn(s.burn_slow())),
            slo.map_or(100.0, |s| s.budget_remaining() * 100.0),
        );
    }
    if r.slow.is_empty() {
        println!("no slow traces retained");
        return;
    }
    println!("worst traces:");
    for t in &r.slow {
        println!("  {}", trace_line(t));
    }
}

/// Burn rates saturate at a 1e9 sentinel when the budget is zero-width;
/// render that honestly instead of printing nonsense digits.
fn fmt_burn(burn: f64) -> String {
    if burn >= 1e6 {
        "inf".into()
    } else {
        format!("{burn:.2}")
    }
}

fn trace_line(t: &SlowTrace) -> String {
    format!(
        "{:016x}  {:<9} {:>10}  {} span(s){}",
        t.trace,
        t.class,
        fmt_dur(Duration::from_nanos(t.root_dur_ns)),
        t.spans.len(),
        if t.is_error { "  ERROR" } else { "" }
    )
}
