//! # staq-serve
//!
//! A concurrent access-query serving subsystem: the paper's dynamic
//! spatio-temporal access queries (§I, §IV) exposed as a network service.
//! Planners' tools connect over TCP, issue [`AccessQuery`]s, scenario
//! edits (`add_poi`; a new bus route is an `AddRoute` delta), live
//! timetable deltas (`apply_delta`, `delta_batch`) and counterfactual
//! `what_if` requests, and share one [`staq_core::AccessEngine`] whose
//! per-category SSR results are computed at most once per edit
//! generation no matter how many clients demand them concurrently
//! (single-flight caching). Every mutation flows through one sequenced
//! [`staq_rt::RtEngine`] delta log, so a server's edit history is
//! replayable onto a fresh replica.
//!
//! Layers, bottom up:
//!
//! * [`codec`] — hand-rolled length-prefixed binary wire protocol
//!   (one versioned frame layout, request/response frames, error frames).
//! * [`pool`] — fixed worker threads over a bounded job queue, and the
//!   backend's executor: the only place engine methods are called.
//! * [`server`] — the front end: a reactor decoding frames, gating
//!   admission and queueing jobs, with graceful shutdown. The shard
//!   router runs the same front end over its own executor.
//! * [`client`] — the one client, [`MuxClient`]: one socket, any number
//!   of concurrent callers, responses matched to callers by request ID.
//! * [`gateway`] — HTTP/JSON in front of any of the above.
//!
//! Binaries: `serve` (the daemon), `staq-gateway`, `staq-trace` and
//! `staq-top`. Load generation and measurement live in `benchmark/`
//! (`staq-e2e`), which drives this crate only through its sockets.
//!
//! [`AccessQuery`]: staq_access::AccessQuery

pub mod client;
pub mod codec;
pub mod gateway;
pub mod pool;
pub mod presets;
pub mod server;

pub use client::{ClientError, MuxClient};
pub use codec::{DeltaAck, Request, Response, StatsReply, WhatIfAnswer, WIRE_VERSION};
pub use pool::InFlight;
pub use server::{serve, serve_front, serve_rt, FrontNames, ServerConfig, ServerHandle};
