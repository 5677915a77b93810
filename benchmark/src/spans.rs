//! The benchmark's own span recorder.
//!
//! The traced pass times calls into each layer from outside: every
//! probe runs inside [`Recorder::time`], which records name, start, end
//! and the span that was open around it. Spans stay in memory and are
//! written once, when the run ends. A per-layer timing metric is the
//! median of its spans' per-iteration durations.

use crate::stats::median;
use std::io::Write;
use std::time::Instant;

pub struct SpanRec {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Iterations the span covers (ns-scale calls are timed in batches).
    pub iters: u32,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Option<u32>,
}

/// Raw spans written per name; the rest are summarised by the metrics.
const WRITE_CAP_PER_NAME: usize = 256;

impl Recorder {
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: None }
    }

    /// Runs `f` as one span covering `iters` iterations of the measured
    /// call. Nested calls become child spans.
    pub fn time<T>(&mut self, name: &'static str, iters: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len() as u32;
        let parent = self.open;
        let start = Instant::now();
        self.spans.push(SpanRec {
            name,
            parent,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
            iters: iters.max(1),
        });
        self.open = Some(id);
        let out = f(self);
        self.spans[id as usize].dur_ns = start.elapsed().as_nanos() as u64;
        self.open = parent;
        out
    }

    /// Records a span measured elsewhere (a client thread's operation).
    pub fn push(&mut self, name: &'static str, start: Instant, dur_ns: u64) {
        self.spans.push(SpanRec {
            name,
            parent: self.open,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            iters: 1,
        });
    }

    /// Median nanoseconds per iteration over the spans called `name`.
    pub fn median_ns(&self, name: &str) -> f64 {
        let per_iter: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / s.iters as f64)
            .collect();
        assert!(!per_iter.is_empty(), "no span named {name} was recorded");
        median(&per_iter)
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// One JSON object per line, at most [`WRITE_CAP_PER_NAME`] per name.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written: std::collections::HashMap<&str, usize> = Default::default();
        let self_ns = self.self_ns();
        for (id, s) in self.spans.iter().enumerate() {
            let n = written.entry(s.name).or_insert(0);
            if *n >= WRITE_CAP_PER_NAME {
                continue;
            }
            *n += 1;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\
                 \"self_ns\":{},\"iters\":{}}}",
                s.name, s.start_ns, s.dur_ns, self_ns[id], s.iters
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_know_their_parent_and_self_time() {
        let mut rec = Recorder::new();
        rec.time("outer", 1, |rec| {
            rec.time("inner", 4, |_| std::thread::sleep(std::time::Duration::from_millis(4)));
        });
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[0].parent, None);
        assert!(rec.spans[0].dur_ns >= rec.spans[1].dur_ns);
        assert!(rec.self_ns()[0] < rec.spans[1].dur_ns, "outer did nothing itself");
        let per_iter = rec.median_ns("inner");
        assert!((1e6..3e6).contains(&per_iter), "4 ms over 4 iterations, got {per_iter}");
    }
}
