//! staq-net — the serving core.
//!
//! A std-only networking layer shared by `staq-serve` and the
//! `staq-shard` router:
//!
//! - [`poll`]: level-triggered readiness poller (`epoll` on Linux,
//!   `poll(2)` everywhere else).
//! - [`reactor`]: one event-loop thread driving every connection —
//!   nonblocking framed reads into a protocol handler, per-connection
//!   outbound queues, generation-checked [`reactor::ConnId`]s, two-phase
//!   graceful shutdown.
//! - [`admission`]: deadline/budget admission control for the worker
//!   pool (EWMA-estimated queue wait, `Overloaded` shedding).
//! - [`http`] + [`json`]: the minimal HTTP/1.1 + JSON surface behind the
//!   `staq-gateway` binary.
//! - [`sys`]: the raw libc declarations all of it stands on (no external
//!   crates; std already links libc).

pub mod admission;
pub mod http;
pub mod json;
pub mod poll;
pub mod reactor;
pub mod sys;

pub use admission::{Admission, AdmissionConfig, ShedReason};
pub use poll::{Event, Interest, Poller};
pub use reactor::{spawn, ConnHandler, ConnId, ReactorConfig, ReactorHandle, ReplySink};
