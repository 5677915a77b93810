//! staq-net — the serving core.
//!
//! A std-only networking layer shared by `staq-serve` and the
//! `staq-shard` router:
//!
//! - [`poll`]: level-triggered readiness poller over `poll(2)`, declared
//!   against the libc that std already links (no external crates).
//! - [`reactor`]: one event-loop thread driving every connection —
//!   nonblocking framed reads into a protocol handler, per-connection
//!   outbound queues, generation-checked [`reactor::ConnId`]s, two-phase
//!   graceful shutdown.
//! - [`admission`]: deadline/budget admission control for the worker
//!   pool (EWMA-estimated queue wait, `Overloaded` shedding).
//! - [`http`] + [`json`]: the minimal HTTP/1.1 + JSON surface behind the
//!   `staq-gateway` binary.

pub mod admission;
pub mod http;
pub mod json;
pub mod poll;
pub mod reactor;

pub use admission::{Admission, AdmissionConfig, ShedReason};
pub use poll::{Event, Interest, Poller};
pub use reactor::{spawn, ConnHandler, ConnId, ReactorConfig, ReactorHandle, ReplySink};
