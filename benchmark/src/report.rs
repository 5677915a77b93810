//! Run results: the one-line JSON the driver reads, the JSON-lines file
//! a set of runs accumulates in, and `--compare` over two such files.

use crate::manifest::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use staq_net::json::Json;
use std::io::Write;

/// One run of one workload.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Every answer check and accounting check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("{name} is not in the manifest"))
}

impl RunResult {
    /// Panics unless the metrics are exactly the manifest's list for this
    /// kind of run: a missing or stray name is a bug in the benchmark.
    pub fn assert_complete(&self) {
        let want: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        for name in &want {
            let n = self.metrics.iter().filter(|(m, _)| m == name).count();
            assert_eq!(n, 1, "{name} reported {n} times");
        }
        for (name, value) in &self.metrics {
            assert!(want.contains(name), "{name} is not a metric of this kind of run");
            assert!(value.is_finite(), "{name} = {value}");
        }
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let m = Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]);
                    (name.to_string(), m)
                })
                .collect(),
        )
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .to_string()
    }

    /// Appends the run, stamped with its environment, to a JSON-lines file.
    pub fn append_to(&self, path: &std::path::Path, env: &Json) -> std::io::Result<()> {
        let record = Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Num(self.traced as u8 as f64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
            ("env", env.clone()),
        ]);
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{record}")
    }
}

/// Prints a parsed driver line as a table, one metric per row.
pub fn print_table(workload: &str, traced: bool, result: &Json) {
    let field = |k: &str| result.get(k).map_or("?".to_string(), Json::to_string);
    println!(
        "== {workload} {}: attempted {} failed {} correct {}",
        if traced { "traced" } else { "untraced" },
        field("attempted"),
        field("failed"),
        field("correct")
    );
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "  {name:<36} {value:>16.4} {}",
                m.get("unit").and_then(Json::as_str).unwrap_or("?")
            );
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What a number was measured on: stamped into every stored record.
pub fn environment(pool: usize) -> Json {
    // Processors the machine has against those this process may use.
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map_or(0, |text| text.lines().filter(|l| l.starts_with("processor")).count());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("available_parallelism", Json::Num(crate::stack::pool_size() as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("commit", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("city", Json::str(format!("coventry x{}", crate::stack::CITY_SCALE))),
        ("pool_size", Json::Num(pool as f64)),
        ("backends", Json::Num(crate::stack::N_BACKENDS as f64)),
        ("obs_enabled", Json::Bool(staq_obs::obs_enabled())),
    ])
}

/// (workload, metric) → values, from the untraced runs of a JSONL file.
fn load(path: &str) -> Result<Vec<(String, String, Vec<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut cells: Vec<(String, String, Vec<f64>)> = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload =
            rec.get("workload").and_then(Json::as_str).ok_or("record without workload")?;
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("{path}:{}: record without metrics", i + 1));
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
            match cells.iter_mut().find(|(w, n, _)| w == workload && n == name) {
                Some((_, _, values)) => values.push(value),
                None => cells.push((workload.to_string(), name.clone(), vec![value])),
            }
        }
    }
    Ok(cells)
}

fn summary(values: &[f64]) -> (f64, f64, f64, Option<f64>) {
    match values.len() {
        1 => (values[0], values[0], values[0], None),
        _ => {
            let (q1, q3) = quartiles(values);
            (median(values), q1, q3, Some(spread(values)))
        }
    }
}

/// Applies each end-to-end metric's bound to B against A, one row per
/// (workload, metric). A cell whose run-to-run spread on either side
/// exceeds the bound is *unresolved*, not passed. Returns whether any
/// cell regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<12} {:<16} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "bound"
    );
    let mut regressed = false;
    for (workload, name, va) in &a {
        let Some(def) = END_TO_END.iter().find(|m| m.name == name) else { continue };
        let Some((_, _, vb)) = b.iter().find(|(w, n, _)| w == workload && n == name) else {
            println!("{workload:<12} {name:<16} missing in {path_b}");
            regressed = true;
            continue;
        };
        let (ma, a1, a3, sa) = summary(va);
        let (mb, b1, b3, sb) = summary(vb);
        // Positive = B is worse, as a share of A's median.
        let worse = match def.better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        };
        let noisy = sa.is_some_and(|s| s > def.bound) || sb.is_some_and(|s| s > def.bound);
        let verdict = if worse > def.bound {
            regressed = true;
            "REGRESSED"
        } else if noisy {
            "unresolved"
        } else {
            "ok"
        };
        println!(
            "{workload:<12} {name:<16} {ma:>12.4} {:>25} {mb:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {verdict}",
            format!("[{a1:.4}, {a3:.4}]"),
            format!("[{b1:.4}, {b3:.4}]"),
            100.0 * worse,
            100.0 * def.bound,
        );
    }
    Ok(regressed)
}
