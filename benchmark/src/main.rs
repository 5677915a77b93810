//! `staq-e2e`: one socket-to-reply benchmark of the staq serving stack,
//! with a per-layer bill. See `benchmark/README.md`.
//!
//! ```text
//! staq-e2e                                     all workloads, untraced then traced
//! staq-e2e --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! staq-e2e --smoke                             every workload at 1/10 length
//! staq-e2e --compare A.jsonl B.jsonl           apply the bounds to two sets of runs
//! staq-e2e --manifest                          print BENCHMARK.json
//! ```

mod check;
mod gen;
mod http;
mod layers;
mod manifest;
mod report;
mod spans;
mod stack;
mod stats;
mod workload;

use check::Reference;
use report::RunResult;
use spans::Recorder;
use stack::{generate_city, pool_size, Workload};
use staq_synth::City;
use stats::{median, percentile};
use std::path::PathBuf;
use std::time::Instant;
use workload::{Phase, Population, Sample, Session};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Median read latency of the last quarter of a run over the first
/// quarter's may not leave this band, or the run was not stationary.
/// The band is wide because the reference box is not quiet: over 32
/// full-length runs of one commit the ratio ranged 0.75–1.42 (once
/// 0.48). Load that grows with every cycle — a TODAM fed by `add_poi`,
/// say, at +2 % a cycle — leaves it many times over within a run.
const DRIFT_BAND: (f64, f64) = (0.67, 1.5);
const HOP_SUM_BAND: (f64, f64) = (0.8, 1.2);

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    strict: bool,
    out: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: staq-e2e [--workload cold_dense|cold_sparse|warm_reads|live_plan] [--seed N] \
         [--seconds S] [--trace 0|1] [--out runs.jsonl] | --smoke | --compare A B | --manifest"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        strict: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let v = value();
                args.workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => {
                args.seed = value().parse().unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                args.seconds =
                    value().parse().unwrap_or_else(|_| usage("--seconds needs a number"));
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--smoke" => args.smoke = true,
            "--strict" => args.strict = true,
            "--manifest" => {
                print!("{}", manifest::manifest_json());
                std::process::exit(0);
            }
            "--compare" => {
                let (a, b) = (value(), value());
                match report::compare(&a, &b) {
                    Ok(regressed) => std::process::exit(regressed as i32),
                    Err(e) => usage(&e),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn sorted_ns(samples: &[Sample]) -> Vec<u64> {
    let mut ns: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    ns.sort_unstable();
    ns
}

fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p) as f64 / 1e3
    }
}

/// Median read latency of the last quarter of the run over the first's.
fn drift_ratio(reads: &[Sample]) -> f64 {
    let mut by_start = reads.to_vec();
    by_start.sort_by_key(|s| s.start);
    let q = by_start.len() / 4;
    if q == 0 {
        return 1.0;
    }
    let med = |part: &[Sample]| median(&part.iter().map(|s| s.ns as f64).collect::<Vec<_>>());
    med(&by_start[by_start.len() - q..]) / med(&by_start[..q])
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SSR pipeline runs the fleet must have made: one per category at
/// warm-up, then one per cold query. Anything else means a cache
/// misbehaved or a request ran twice.
fn expected_pipeline_runs(w: Workload, phases: &[&Phase]) -> u64 {
    let reads: u64 = phases.iter().map(|p| p.reads.len() as u64 + p.failed_reads).sum();
    match w {
        Workload::ColdDense | Workload::ColdSparse => 4 + reads,
        Workload::WarmReads | Workload::LivePlan => 4,
    }
}

/// Outcome of the checks shared by both kinds of run.
struct Checked {
    correct: bool,
    attempted: u64,
    failed: u64,
    ssr_mac_err_pct: f64,
    pipeline_runs: u64,
}

fn verify(
    w: Workload,
    city: &City,
    pop: &Population,
    session: &mut Session,
    phases: &[&Phase],
) -> Result<Checked, String> {
    let mut reference = Reference::new(city, &w.pipeline());
    let verdict = session.verify(w, pop, &mut reference, phases)?;
    let attempted: u64 = phases.iter().map(|p| p.attempted()).sum();
    let failed: u64 = phases.iter().map(|p| p.failed()).sum::<u64>() + verdict.bad_answers;
    let expected_runs = expected_pipeline_runs(w, phases);
    let runs_ok = verdict.pipeline_runs == expected_runs;
    if !runs_ok {
        eprintln!(
            "FAIL {}: fleet made {} pipeline runs, the workload accounts for {expected_runs}",
            w.name(),
            verdict.pipeline_runs
        );
    }
    if failed > 0 {
        eprintln!("FAIL {}: {failed} of {attempted} operations failed", w.name());
    }
    Ok(Checked {
        correct: failed == 0 && runs_ok,
        attempted,
        failed,
        ssr_mac_err_pct: verdict.ssr_mac_err_pct,
        pipeline_runs: verdict.pipeline_runs,
    })
}

/// Measurement-quality checks: they say the numbers cannot be trusted,
/// not that the system answered wrongly.
fn quality_warnings(
    w: Workload,
    drift: f64,
    hop_sum: Option<f64>,
    p90_reads: Option<usize>,
    smoke: bool,
) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(n) = p90_reads.filter(|&n| n < 110) {
        out.push(format!("{}: {n} reads, a p90 needs 110", w.name()));
    }
    if !smoke && !(DRIFT_BAND.0..=DRIFT_BAND.1).contains(&drift) {
        out.push(format!("{}: not stationary, last/first quarter median = {drift:.3}", w.name()));
    }
    if let Some(r) = hop_sum.filter(|r| !(HOP_SUM_BAND.0..=HOP_SUM_BAND.1).contains(r)) {
        out.push(format!("{}: hops sum to {r:.3} of the measured gateway round trip", w.name()));
    }
    out
}

fn run_untraced(
    w: Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    smoke: bool,
) -> Result<(RunResult, Vec<String>), String> {
    let pool = pool_size();
    let city = generate_city();
    let pop = Population::of(&city);
    // Set-ups are timed on both sides of the measured phase, so that
    // their median does not hang on the host's mood in one short moment.
    let mut setup_s = Vec::new();
    let mut timed_setup = || -> Result<Session, String> {
        let t = Instant::now();
        let session = Session::prepare(w, pool)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(session)
    };
    for _ in 1..setups.div_ceil(2) {
        timed_setup()?;
    }
    let mut session = timed_setup()?;
    let phase = session.measure(w, &pop, seed, seconds);
    let checked = verify(w, &city, &pop, &mut session, &[&phase])?;
    drop(session);
    for _ in 0..setups / 2 {
        timed_setup()?;
    }

    let summary = phase.summary();
    eprintln!(
        "INFO {}: {} reads, {} edits, {} window(s), {:.2} s measured",
        w.name(),
        phase.reads.len(),
        phase.edits.len(),
        summary.windows,
        phase.wall_s
    );
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("ops_per_s", summary.ops_per_s),
        ("lat_p50_us", summary.p50_us),
        ("ssr_mac_err_pct", checked.ssr_mac_err_pct),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let warnings = quality_warnings(w, drift_ratio(&phase.reads), None, None, smoke);
    let result = RunResult {
        workload: w.name(),
        seed,
        seconds,
        traced: false,
        correct: checked.correct,
        attempted: checked.attempted,
        failed: checked.failed,
        metrics,
    };
    Ok((result, warnings))
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &std::path::Path,
) -> Result<(RunResult, Vec<String>), String> {
    let pool = pool_size();
    let city = generate_city();
    let pop = Population::of(&city);
    let mut rec = Recorder::new();
    let mut session = rec.time("client.setup", 1, |_| Session::prepare(w, pool))?;

    // Two halves on one fleet: the first exactly as an untraced run, the
    // second with every client operation kept as a span.
    let before = staq_obs::snapshot();
    let plain = session.measure(w, &pop, seed, seconds / 2.0);
    let traced = rec.time("client.traced_half", 1, |rec| {
        let phase = session.measure(w, &pop, seed ^ 0x7ACE, seconds / 2.0);
        for s in &phase.reads {
            rec.push("client.read", s.start, s.ns);
        }
        for s in &phase.edits {
            rec.push("client.edit", s.start, s.ns);
        }
        phase
    });
    let after = staq_obs::snapshot();
    let queue_wait: Vec<f64> = staq_obs::trace::dump(0)
        .iter()
        .filter(|s| s.name == "serve.queue_wait")
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    let log_len = session.fleet.supervisor().edit_seq();

    let checked = verify(w, &city, &pop, &mut session, &[&plain, &traced])?;
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let mut metrics = layers::run(&mut rec, &city, w, &pop, &mut session, pool, out_dir)?;
    drop(session);

    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let ops =
        (plain.reads.len() + plain.edits.len() + traced.reads.len() + traced.edits.len()) as u64;
    let reads: Vec<Sample> = plain.reads.iter().chain(&traced.reads).copied().collect();
    let edits: Vec<Sample> = plain.edits.iter().chain(&traced.edits).copied().collect();
    let (lat, edit_lat) = (sorted_ns(&reads), sorted_ns(&edits));
    let mut lag: Vec<u64> = plain.lag_ns.iter().chain(&traced.lag_ns).copied().collect();
    lag.sort_unstable();
    // An eviction from the full ring counts as a drop, so under load
    // dropped approaches recorded: the share of spans a later dump can
    // no longer see.
    let spans = delta("trace.spans_recorded");
    let cache_reads =
        delta("engine.cache.hits") + delta("engine.cache.misses") + delta("engine.cache.joins");
    let access = delta("transit.access_cache.hit") + delta("transit.access_cache.miss");
    let approx = delta("engine.approx.hit") + delta("engine.approx.fallback");
    let gateway_rtt_us =
        metrics.iter().find(|(n, _)| *n == "client.gateway_rtt_us").expect("hop probe ran").1;
    let query_warm_ns =
        metrics.iter().find(|(n, _)| *n == "core.query_warm_ns").expect("engine probe ran").1;
    let hop_sum =
        metrics.iter().find(|(n, _)| *n == "client.hop_sum_ratio").expect("hop probe ran").1;
    let drift = drift_ratio(&reads);
    metrics.extend([
        (
            "transit.patterns_scanned_per_query",
            share(delta("raptor.patterns_scanned"), delta("raptor.queries")),
        ),
        ("transit.access_cache_hit_share", share(delta("transit.access_cache.hit"), access)),
        ("transit.access_cache_evictions", delta("transit.access_cache.evictions") as f64),
        ("ml.approx_hit_share", share(delta("engine.approx.hit"), approx)),
        ("core.pipeline_runs", checked.pipeline_runs as f64),
        ("core.cache_hit_share", share(delta("engine.cache.hits"), cache_reads)),
        ("rt.log_len", log_len as f64),
        ("serve.queue_wait_us", if queue_wait.is_empty() { 0.0 } else { median(&queue_wait) }),
        ("net.frames_per_op", share(delta("net.frames_in") + delta("net.frames_out"), ops)),
        ("net.admission_shed", delta("admission.shed") as f64),
        ("obs.spans_per_op", share(spans, ops)),
        ("obs.spans_dropped_share", share(delta("trace.spans_dropped"), spans)),
        ("client.ops_per_s_traced", traced.summary().ops_per_s),
        ("client.lat_p50_us", percentile_us(&lat, 0.5)),
        ("client.lat_p90_us", percentile_us(&lat, 0.9)),
        ("client.lat_p99_us", percentile_us(&lat, 0.99)),
        ("client.edit_p50_us", percentile_us(&edit_lat, 0.5)),
        ("client.edit_p90_us", percentile_us(&edit_lat, 0.9)),
        ("client.sched_lag_p99_us", percentile_us(&lag, 0.99)),
        ("client.drift_ratio", drift),
        ("client.trace_overhead_ratio", plain.summary().ops_per_s / traced.summary().ops_per_s),
        ("client.engine_share_of_p50", query_warm_ns / (gateway_rtt_us * 1e3)),
        ("client.reads", reads.len() as f64),
        ("client.edits", edits.len() as f64),
        ("client.failed_reads", (plain.failed_reads + traced.failed_reads) as f64),
        ("client.failed_edits", (plain.failed_edits + traced.failed_edits) as f64),
    ]);

    let spans_path = out_dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    rec.write_jsonl(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let warnings = quality_warnings(w, drift, Some(hop_sum), Some(reads.len()), false);
    let result = RunResult {
        workload: w.name(),
        seed,
        seconds,
        traced: true,
        correct: checked.correct,
        attempted: checked.attempted,
        failed: checked.failed,
        metrics,
    };
    Ok((result, warnings))
}

/// Runs one workload in a child process of this same binary, so every
/// run has its own peak RSS, metrics registry and trace ring, exactly as
/// under the driver. Prints the child's result as a table.
fn run_in_child(args: &Args, w: Workload, traced: bool, seconds: f64) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name(), "--strict"])
        .args(["--seed", &args.seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = &args.out {
        cmd.arg("--out").arg(path);
    }
    let output = cmd.stderr(std::process::Stdio::inherit()).output().expect("spawning a run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().and_then(|line| staq_net::json::Json::parse(line).ok()) {
        Some(result) => report::print_table(w.name(), traced, &result),
        None => eprintln!("FAIL {}: the run printed no result", w.name()),
    }
    output.status.success()
}

fn main() {
    let args = parse_args();

    // One run, its result as the last line of stdout: the driver's form.
    // Wrong answers fail it; with `--strict`, so do numbers that cannot
    // be trusted (otherwise those only warn on stderr).
    if let Some(w) = args.workload {
        let outcome = if args.trace {
            run_traced(w, args.seed, args.seconds, &PathBuf::from("benchmark/out"))
        } else {
            let setups = if args.smoke { 1 } else { SETUPS };
            run_untraced(w, args.seed, args.seconds, setups, args.smoke)
        };
        let (result, warnings) = outcome.unwrap_or_else(|e| {
            eprintln!("FAIL {}: {e}", w.name());
            std::process::exit(1);
        });
        result.assert_complete();
        for warning in &warnings {
            eprintln!("WARN {warning}");
        }
        if let Some(path) = &args.out {
            result.append_to(path, &report::environment(pool_size())).unwrap_or_else(|e| {
                eprintln!("error: cannot append to {}: {e}", path.display());
                std::process::exit(1);
            });
        }
        println!("{}", result.driver_line());
        let ok = result.correct && (warnings.is_empty() || !args.strict);
        std::process::exit(!ok as i32);
    }

    // The one command: every workload untraced, then traced (`--smoke`:
    // untraced only, at a tenth of the length).
    let seconds = if args.smoke { args.seconds / 10.0 } else { args.seconds };
    let mut ok = true;
    for traced in [false, true] {
        if traced && args.smoke {
            break;
        }
        for w in Workload::ALL {
            ok &= run_in_child(&args, w, traced, seconds);
        }
    }
    println!("{}", if ok { "all checks passed" } else { "CHECKS FAILED" });
    std::process::exit(!ok as i32);
}
