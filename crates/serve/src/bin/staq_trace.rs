//! staq-trace: fetch a trace dump from a server or router and render
//! per-query span trees.
//!
//! ```text
//! staq-trace [--addr 127.0.0.1:7900] [--min-dur-us N] [--set-capture-us N]
//!            [--limit N] [--min-dur DUR] [--sort total|self|start] [--top N]
//! ```
//!
//! Issues a `TraceDump` request (routers fan it out across the fleet and
//! concatenate), stitches the returned spans into trees by
//! `(trace, parent)` links, and prints one tree per trace — newest first
//! — with each span's total time and self time (total minus the children
//! that ran under it).
//!
//! `--min-dur-us` filters the dump server-side; `--set-capture-us`
//! retunes the server's capture threshold for *future* spans, which is
//! how an operator keeps sub-microsecond spans from flooding the ring
//! before taking a dump worth reading.
//!
//! Triage flags operate client-side on whole traces: `--min-dur` drops
//! traces whose end-to-end time is under a threshold (`250us`, `5ms`,
//! `1s`; a bare number is microseconds), `--sort` orders them by
//! `total` (end-to-end, slowest first), `self` (largest single-span
//! self time first) or `start` (newest first — the default, unchanged),
//! and `--top N` keeps only the first N after sorting.

use staq_obs::{fmt_dur, OwnedSpan};
use staq_serve::MuxClient;
use std::collections::HashMap;
use std::time::Duration;

#[derive(Clone, Copy, PartialEq, Eq)]
enum SortKey {
    /// End-to-end duration, slowest first.
    Total,
    /// Largest single-span self time, largest first.
    SelfTime,
    /// Newest activity first (the historical default).
    Start,
}

struct Args {
    addr: String,
    min_dur_us: u64,
    set_capture_us: Option<u64>,
    limit: usize,
    min_dur_ns: u64,
    sort: SortKey,
    top: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7900".into(),
        min_dur_us: 0,
        set_capture_us: None,
        limit: 20,
        min_dur_ns: 0,
        sort: SortKey::Start,
        top: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = need(&mut it, "--addr"),
            "--min-dur-us" => args.min_dur_us = parse(&mut it, "--min-dur-us"),
            "--set-capture-us" => args.set_capture_us = Some(parse(&mut it, "--set-capture-us")),
            "--limit" => args.limit = parse(&mut it, "--limit"),
            "--min-dur" => {
                let v = need(&mut it, "--min-dur");
                args.min_dur_ns = parse_dur_ns(&v)
                    .unwrap_or_else(|| usage("--min-dur wants e.g. 250us, 5ms or 1s"));
            }
            "--sort" => {
                args.sort = match need(&mut it, "--sort").as_str() {
                    "total" => SortKey::Total,
                    "self" => SortKey::SelfTime,
                    "start" => SortKey::Start,
                    _ => usage("--sort must be total, self or start"),
                }
            }
            "--top" => args.top = Some(parse(&mut it, "--top")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

/// `250us` / `5ms` / `1s` / `1000ns`; a bare number is microseconds,
/// matching the CLI's other duration flags.
fn parse_dur_ns(v: &str) -> Option<u64> {
    let (digits, scale) = match v {
        _ if v.ends_with("ns") => (&v[..v.len() - 2], 1),
        _ if v.ends_with("us") => (&v[..v.len() - 2], 1_000),
        _ if v.ends_with("ms") => (&v[..v.len() - 2], 1_000_000),
        _ if v.ends_with('s') => (&v[..v.len() - 1], 1_000_000_000),
        _ => (v, 1_000),
    };
    digits.parse::<u64>().ok().map(|n| n.saturating_mul(scale))
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
        "usage: staq-trace [--addr host:port] [--min-dur-us N] [--set-capture-us N] [--limit N]\n\
         \x20                 [--min-dur DUR] [--sort total|self|start] [--top N]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn main() {
    let args = parse_args();
    let client = MuxClient::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {}: {e}", args.addr);
        std::process::exit(1);
    });
    let spans = client
        .trace_dump(args.min_dur_us * 1_000, args.set_capture_us.map(|us| us * 1_000))
        .unwrap_or_else(|e| {
            eprintln!("error: trace dump failed: {e}");
            std::process::exit(1);
        });
    if let Some(us) = args.set_capture_us {
        eprintln!("capture threshold set to {us}us");
    }
    if spans.is_empty() {
        println!("no spans (ring empty, filtered out, or capture switched off)");
        return;
    }
    print_traces(&spans, &args);
}

fn trace_total_ns(ss: &[&OwnedSpan]) -> u64 {
    let start = ss.iter().map(|s| s.start_unix_ns).min().unwrap_or(0);
    let end = ss.iter().map(|s| s.start_unix_ns + s.dur_ns).max().unwrap_or(0);
    end.saturating_sub(start)
}

/// A trace's largest single-span self time (total minus children).
fn trace_max_self_ns(ss: &[&OwnedSpan]) -> u64 {
    ss.iter()
        .map(|s| {
            let child_ns: u64 = ss
                .iter()
                .filter(|c| c.parent == s.span && c.span != s.span)
                .map(|c| c.dur_ns)
                .sum();
            s.dur_ns.saturating_sub(child_ns)
        })
        .max()
        .unwrap_or(0)
}

/// Groups spans by trace, orders per `--sort` (newest first by
/// default), and prints each as a tree.
fn print_traces(spans: &[OwnedSpan], args: &Args) {
    let mut by_trace: HashMap<u64, Vec<&OwnedSpan>> = HashMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut traces: Vec<(u64, Vec<&OwnedSpan>)> = by_trace.into_iter().collect();
    if args.min_dur_ns > 0 {
        traces.retain(|(_, ss)| trace_total_ns(ss) >= args.min_dur_ns);
    }
    match args.sort {
        // Newest activity first: a dump is usually taken to look at what
        // just happened.
        SortKey::Start => traces
            .sort_by_key(|(_, ss)| std::cmp::Reverse(ss.iter().map(|s| s.start_unix_ns).max())),
        SortKey::Total => traces.sort_by_key(|(_, ss)| std::cmp::Reverse(trace_total_ns(ss))),
        SortKey::SelfTime => traces.sort_by_key(|(_, ss)| std::cmp::Reverse(trace_max_self_ns(ss))),
    }
    let limit = args.top.unwrap_or(args.limit);
    let total = traces.len();
    for (trace, mut ss) in traces.into_iter().take(limit) {
        ss.sort_by_key(|s| (s.start_unix_ns, s.span));
        let start = ss.iter().map(|s| s.start_unix_ns).min().unwrap_or(0);
        let end = ss.iter().map(|s| s.start_unix_ns + s.dur_ns).max().unwrap_or(0);
        println!(
            "trace {trace:016x}  {} span(s), {} end to end",
            ss.len(),
            fmt_dur(Duration::from_nanos(end.saturating_sub(start)))
        );
        // Parent → children index; roots are spans whose parent is absent
        // from the dump (evicted, below threshold, or on another host).
        let ids: HashMap<u64, ()> = ss.iter().map(|s| (s.span, ())).collect();
        let mut children: HashMap<u64, Vec<&OwnedSpan>> = HashMap::new();
        let mut roots: Vec<&OwnedSpan> = Vec::new();
        for s in &ss {
            if s.parent != 0 && ids.contains_key(&s.parent) && s.parent != s.span {
                children.entry(s.parent).or_default().push(s);
            } else {
                roots.push(s);
            }
        }
        for root in roots {
            print_tree(root, &children, 1, ss.len());
        }
    }
    if total > limit {
        let flag = if args.top.is_some() { "--top" } else { "--limit" };
        println!("... {} more trace(s); raise {flag} to see them", total - limit);
    }
}

fn print_tree(s: &OwnedSpan, children: &HashMap<u64, Vec<&OwnedSpan>>, depth: usize, cap: usize) {
    // Depth is bounded by the span count, so corrupt parent links cannot
    // recurse forever.
    if depth > cap {
        return;
    }
    let kids = children.get(&s.span).map(Vec::as_slice).unwrap_or(&[]);
    let child_ns: u64 = kids.iter().map(|k| k.dur_ns).sum();
    let self_ns = s.dur_ns.saturating_sub(child_ns);
    let mut line = format!(
        "{}{}  total={} self={}",
        "  ".repeat(depth),
        s.name,
        fmt_dur(Duration::from_nanos(s.dur_ns)),
        fmt_dur(Duration::from_nanos(self_ns)),
    );
    for (k, v) in &s.attrs {
        line.push_str(&format!(" {k}={v}"));
    }
    println!("{line}");
    for k in kids {
        print_tree(k, children, depth + 1, cap);
    }
}
