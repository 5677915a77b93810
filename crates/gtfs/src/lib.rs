//! # staq-gtfs
//!
//! A self-contained implementation of the subset of the **General Transit
//! Feed Specification** (GTFS) needed for accessibility analysis, plus the
//! temporal primitives the paper builds on.
//!
//! The paper (§III-A) calls this data `F`: "information about stops, routes,
//! and individual departure and arrival times", consumed through two views —
//! `F_stops` (stops near a location) and `F_trips` (services through a stop
//! within a time interval). [`index::FeedIndex`] provides exactly those
//! views over a parsed [`model::Feed`].
//!
//! Feeds are parsed from GTFS's CSV text format by a purpose-built reader in
//! [`csv`] (GTFS's dialect is plain RFC-4180), and can be serialized back,
//! so synthetic feeds from `staq-synth` round-trip through the same text
//! path a real agency feed would.
//!
//! * [`time`] — seconds-since-midnight service time (`Stime`, > 24 h legal
//!   per GTFS), days of week, and the paper's time interval `v = [t_s, t_e, t_d]`.
//! * [`model`] — typed records: agencies, stops, routes, trips, stop times,
//!   calendars, with `u32` newtype ids.
//! * [`csv`] — minimal RFC-4180 reader/writer.
//! * [`parse`] / [`write`](mod@write) — feed ⇄ text tables.
//! * [`index`] — `FeedIndex`: departures-at-stop, trip stop sequences,
//!   stops-by-route, spatial stop lookup inputs.
//! * [`validate`] — referential integrity and monotonicity checks.

pub mod csv;
pub mod delta;
pub mod index;
pub mod model;
pub mod parse;
pub mod time;
pub mod validate;
pub mod write;

pub use delta::{Delta, Footprint, TripRows};
pub use index::FeedIndex;
pub use model::{Feed, Route, RouteId, Stop, StopId, StopTime, Trip, TripId};
pub use time::{DayOfWeek, Stime, TimeInterval};
