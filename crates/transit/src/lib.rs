//! # staq-transit
//!
//! The multimodal journey planner — this repository's substitute for Open
//! Trip Planner, which the paper uses as its `(o, d, t) → journey` oracle
//! for labeling (§IV-D). Given an origin point, destination point, departure
//! time and day, the router returns the earliest-arriving journey as a
//! sequence of legs (access walk, wait, ride, transfer, egress walk), from
//! which both access costs are computed:
//!
//! * **JT** — journey time, `c(o,d,t) = AT(d) − t` (§III-C);
//! * **GAC** — generalized access cost, Eq. (1): weighted walk/wait/in-vehicle
//!   time, transfer penalties, and fare divided by the value of time,
//!   following the UK DfT TAG M3.2 convention the paper cites.
//!
//! Two routing algorithms are provided:
//!
//! * [`raptor`] — round-based RAPTOR over trip patterns: exact earliest
//!   arrival with a bounded number of transfers. The production labeler.
//!   Also answers multi-criteria queries: [`raptor::Raptor::query_pareto`]
//!   returns the (arrival, transfers) frontier via [`pareto`]'s `Bag`, and
//!   [`raptor::Raptor::query_max_transfers`] the fastest ≤K-transfer
//!   journey.
//! * [`mmdijkstra`] — a time-dependent multimodal Dijkstra baseline used for
//!   cross-validation tests and the router ablation benchmark.
//!
//! [`network::NetworkTables`] precomputes the structures both share: trip
//! patterns, stop→road-node snapping, stop-to-stop foot transfers;
//! [`network::TransitNetwork`] is the routable view over them.

pub mod cost;
pub mod fare;
pub mod journey;
pub mod mmdijkstra;
pub mod network;
pub mod pareto;
pub mod raptor;
pub mod shared_cache;

pub use cost::{AccessCost, CostKind, GacWeights};
pub use fare::FareModel;
pub use journey::{Journey, Leg};
pub use network::{AccessCache, NetworkTables, RouterConfig, TransitNetwork};
pub use pareto::{Bag, ParetoLabel};
pub use raptor::Raptor;
pub use shared_cache::{QueryCache, SharedAccessCache, SharedCacheHandle};
