//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is exactly [`manifest_json`] (a unit test holds the
//! two together), and every run's output is checked against these
//! tables before it is printed.

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "cold_dense",
        why: "edit then cold School AQ (OLS, beta 0.2): dense POIs put ~90% of the op in hoptree features; a feature fix shows here, Range-RAPTOR must not",
    },
    WorkloadDef {
        name: "cold_sparse",
        why: "edit then cold VaxCenter AQ (paper MLP, beta 0.3): same pipeline, bill inverted to RAPTOR labeling and MLP training (features ~15%); Range-RAPTOR and ml changes show here",
    },
    WorkloadDef {
        name: "warm_reads",
        why: "2 keep-alive clients on warm caches: engine work is <5% of the round trip, so net/serve/shard/obs own the bill; the bypass workload for every engine-side change",
    },
    WorkloadDef {
        name: "live_plan",
        why: "Pareto plans beside 10 deltas/s: single RAPTOR queries under a mutating timetable and an access cache invalidated twice a second, unlike batch labeling",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "lat_p50_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "ssr_mac_err_pct", unit: "%", better: Lower, bound: 0.15 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate. The prefix before the first dot names it.
pub const PER_LAYER: [PerLayer; 77] = [
    layer("synth.generate_s", "s", Lower),
    layer("gtfs.parse_s", "s", Lower),
    layer("gtfs.apply_delta_us", "us", Lower),
    layer("road.isochrone_us", "us", Lower),
    layer("hoptree.build_s", "s", Lower),
    layer("hoptree.rebuild_zones_us", "us", Lower),
    layer("hoptree.features_s", "s", Lower),
    layer("hoptree.features_ns_per_od", "ns", Lower),
    layer("hoptree.features_s_scale1", "s", Lower),
    layer("todam.build_ms", "ms", Lower),
    layer("todam.matrix_trips", "count", Lower),
    layer("todam.label_s", "s", Lower),
    layer("todam.label_trips_per_s", "1/s", Higher),
    layer("todam.label_worker_imbalance", "ratio", Lower),
    layer("todam.label_s_scale1", "s", Lower),
    layer("transit.network_build_us", "us", Lower),
    layer("transit.raptor_query_us", "us", Lower),
    layer("transit.raptor_pareto_us", "us", Lower),
    layer("transit.patterns_scanned_per_query", "count", Lower),
    layer("transit.access_cache_hit_share", "ratio", Higher),
    layer("transit.access_cache_evictions", "count", Lower),
    layer("ml.train_infer_ms", "ms", Lower),
    layer("ml.ann_query_ns", "ns", Lower),
    layer("ml.approx_hit_share", "ratio", Higher),
    layer("access.answer_ns", "ns", Lower),
    layer("core.engine_build_s", "s", Lower),
    layer("core.pipeline_run_s", "s", Lower),
    layer("core.stage_share_features", "ratio", Lower),
    layer("core.stage_share_labeling", "ratio", Lower),
    layer("core.stage_share_train", "ratio", Lower),
    layer("core.query_warm_ns", "ns", Lower),
    layer("core.query_approx_ns", "ns", Lower),
    layer("core.apply_delta_us", "us", Lower),
    layer("core.plan_us", "us", Lower),
    layer("core.pipeline_runs", "count", Lower),
    layer("core.cache_hit_share", "ratio", Higher),
    layer("rt.apply_us", "us", Lower),
    layer("rt.apply_advisory_us", "us", Lower),
    layer("rt.log_len", "count", Lower),
    layer("serve.codec_req_ns", "ns", Lower),
    layer("serve.codec_resp_small_ns", "ns", Lower),
    layer("serve.codec_resp_measures_us", "us", Lower),
    layer("serve.execute_us", "us", Lower),
    layer("serve.backend_rtt_us", "us", Lower),
    layer("serve.backend_hop_us", "us", Lower),
    layer("serve.gateway_hop_us", "us", Lower),
    layer("serve.queue_wait_us", "us", Lower),
    layer("shard.dispatch_us", "us", Lower),
    layer("shard.router_hop_us", "us", Lower),
    layer("shard.broadcast_structural_us", "us", Lower),
    layer("shard.broadcast_advisory_us", "us", Lower),
    layer("net.reactor_echo_rtt_us", "us", Lower),
    layer("net.http_echo_rtt_us", "us", Lower),
    layer("net.json_parse_ns", "ns", Lower),
    layer("net.frames_per_op", "count", Lower),
    layer("net.admission_shed", "count", Lower),
    layer("obs.span_ns", "ns", Lower),
    layer("obs.spans_per_op", "count", Lower),
    layer("obs.spans_dropped_share", "ratio", Lower),
    layer("obs.trace_off_speedup", "ratio", Lower),
    layer("client.ops_per_s_traced", "1/s", Higher),
    layer("client.lat_p50_us", "us", Lower),
    layer("client.lat_p90_us", "us", Lower),
    layer("client.lat_p99_us", "us", Lower),
    layer("client.edit_p50_us", "us", Lower),
    layer("client.edit_p90_us", "us", Lower),
    layer("client.sched_lag_p99_us", "us", Lower),
    layer("client.drift_ratio", "ratio", Lower),
    layer("client.trace_overhead_ratio", "ratio", Lower),
    layer("client.hop_sum_ratio", "ratio", Lower),
    layer("client.gateway_rtt_us", "us", Lower),
    layer("client.router_rtt_us", "us", Lower),
    layer("client.engine_share_of_p50", "ratio", Lower),
    layer("client.reads", "count", Higher),
    layer("client.edits", "count", Higher),
    layer("client.failed_reads", "count", Lower),
    layer("client.failed_edits", "count", Lower),
];

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest_json(), "regenerate with `staq-e2e --manifest`");
    }

    #[test]
    fn names_units_and_bounds_fit_the_driver_schema() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit) && seen.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit) && seen.insert(m.name), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(manifest_json().len() < 64 * 1024);
    }
}
