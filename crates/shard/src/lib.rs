//! # staq-shard
//!
//! Multi-process sharded serving for dynamic access queries. One router
//! process speaks the staq-serve wire protocol on the front and fans
//! requests out to N backend `staq-serve` engine processes, sharded by
//! consistent hashing on [`PoiCategory`] — the paper's unit of cache
//! invalidation (§IV-F), so each shard's single-flight SSR cache stays
//! private to the categories it owns.
//!
//! ```text
//!                          ┌────────────┐
//!   clients ──wire v4────► │   router   │  shard = rendezvous(category)
//!                          └─────┬──────┘
//!              ┌───────────┬─────┴─────┬───────────┐
//!         conn pool    conn pool   conn pool   conn pool
//!              │           │           │           │
//!          backend 0   backend 1   backend 2   backend 3
//!         (staq-serve engines, supervised: respawned on crash)
//! ```
//!
//! Layers, bottom up:
//!
//! * [`hash`] — rendezvous (highest-random-weight) hashing from category
//!   to shard: adding a shard remaps ~1/N of the keys, and only ever onto
//!   the new shard.
//! * [`backend`] — what a shard runs: an in-process server over real TCP
//!   ([`ThreadBackend`], for tests and `staq-e2e`) or a
//!   spawned `serve` daemon ([`ProcessBackend`], port-file discovery).
//! * [`pool`] — per-backend connection pool: reuse, bounded in-flight,
//!   retry-with-backoff on connect, generation tags so a respawned
//!   backend never receives a stale connection.
//! * [`supervisor`] — spawns and readiness-probes every backend before
//!   admitting traffic, monitors liveness, respawns crashed backends
//!   after a backoff, and owns the per-shard call path (retries for
//!   idempotent reads, fail-fast `Unavailable` while a shard is down).
//! * [`router`] — the front TCP server (`staq-serve`'s front end over a
//!   routing executor): single-shard paths for `Measures`/`Query`/
//!   `AddPoi`, broadcast for schedule deltas, scatter-gather merge for
//!   `Stats`.
//!
//! Binaries: `shard` (the router daemon).
//!
//! [`PoiCategory`]: staq_synth::PoiCategory

pub mod backend;
pub mod hash;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod supervisor;

pub use backend::{Backend, ProcessBackend, ThreadBackend};
pub use hash::shard_for;
pub use pool::PoolConfig;
pub use router::{route, RouterConfig, RouterHandle};
pub use supervisor::{ShardSupervisor, SupervisorConfig};
