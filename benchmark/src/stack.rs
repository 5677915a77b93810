//! Boots the real serving stack in-process: HTTP gateway → shard router
//! → two `ThreadBackend` replicas over loopback TCP. Nothing here is a
//! test double; the benchmark only ever talks to the sockets.

use staq_core::{AccessEngine, PipelineConfig};
use staq_ml::ModelKind;
use staq_net::http::HttpHandle;
use staq_serve::gateway::{gateway, GatewayConfig};
use staq_shard::{
    route, Backend, PoolConfig, RouterConfig, RouterHandle, ShardSupervisor, SupervisorConfig,
    ThreadBackend,
};
use staq_synth::{City, CityConfig, PoiCategory};
use staq_todam::TodamSpec;
use std::net::SocketAddr;
use std::sync::Arc;

/// The city is fixed; `--seed` only drives the traffic drawn over it.
pub const CITY_SEED: u64 = 42;
/// Coventry preset scale: 183 zones, so a cold School AQ is ~0.12 s and a
/// 20 s run yields well over the 110 reads a p90 needs.
pub const CITY_SCALE: f64 = 0.18;
pub const N_BACKENDS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ColdDense,
    ColdSparse,
    WarmReads,
    LivePlan,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdDense, Workload::ColdSparse, Workload::WarmReads, Workload::LivePlan];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdDense => "cold_dense",
            Workload::ColdSparse => "cold_sparse",
            Workload::WarmReads => "warm_reads",
            Workload::LivePlan => "live_plan",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `cold_sparse` runs the paper's pipeline (MLP, 30 starts/h) at
    /// β = 0.3; everything else the serving preset (OLS, 3 starts/h, β 0.2).
    pub fn pipeline(self) -> PipelineConfig {
        match self {
            Workload::ColdSparse => PipelineConfig { beta: 0.3, ..Default::default() },
            _ => PipelineConfig {
                beta: 0.2,
                model: ModelKind::Ols,
                todam: TodamSpec { per_hour: 3, ..Default::default() },
                ..Default::default()
            },
        }
    }

    /// The category a cold workload re-queries after every edit, and the
    /// one the per-layer probes use as their input.
    pub fn category(self) -> PoiCategory {
        match self {
            Workload::ColdSparse => PoiCategory::VaxCenter,
            _ => PoiCategory::School,
        }
    }

    /// Categories whose served MAC is scored against naive labeling.
    pub fn scored_categories(self) -> Vec<PoiCategory> {
        match self {
            Workload::ColdDense | Workload::ColdSparse => vec![self.category()],
            Workload::WarmReads | Workload::LivePlan => PoiCategory::ALL.to_vec(),
        }
    }

    pub fn writes(self) -> bool {
        self != Workload::WarmReads
    }
}

pub fn pool_size() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn generate_city() -> City {
    City::generate(&CityConfig::coventry(CITY_SEED).scaled(CITY_SCALE))
}

/// A running gateway → router → backends chain. Fields drop in order:
/// the gateway first (its worker threads end when clients hang up), then
/// the router, which takes the backends down with it.
pub struct Fleet {
    gateway: HttpHandle,
    router: RouterHandle,
}

impl Fleet {
    /// Every pool — backend workers, router workers, mux streams per
    /// backend, gateway threads — gets `pool` threads. Each backend
    /// builds its own engine (replicas apply every delta themselves).
    pub fn boot(city: &City, pipeline: &PipelineConfig, pool: usize) -> std::io::Result<Fleet> {
        let backends: Vec<Box<dyn Backend>> = (0..N_BACKENDS)
            .map(|_| {
                let (city, pipeline) = (city.clone(), pipeline.clone());
                Box::new(ThreadBackend::new(pool, move || {
                    Arc::new(AccessEngine::new(city.clone(), pipeline.clone()))
                })) as Box<dyn Backend>
            })
            .collect();
        let sup_cfg = SupervisorConfig {
            pool: PoolConfig { mux_conns: pool, ..Default::default() },
            ..Default::default()
        };
        let sup = ShardSupervisor::start(backends, sup_cfg)?;
        let router = route(sup, &RouterConfig { workers: pool, ..Default::default() })?;
        let gateway =
            gateway(router.addr(), &GatewayConfig { addr: "127.0.0.1:0".into(), threads: pool })?;
        Ok(Fleet { gateway, router })
    }

    pub fn gateway_addr(&self) -> SocketAddr {
        self.gateway.addr()
    }

    pub fn router_addr(&self) -> SocketAddr {
        self.router.addr()
    }

    pub fn supervisor(&self) -> &ShardSupervisor {
        self.router.supervisor()
    }
}
