//! Instrumentation for the clos-routing workspace: scoped wall-clock
//! timers, atomic counters, and machine-readable experiment reports.
//!
//! # The enable/disable model
//!
//! All instrumentation is **off by default** and controlled by one global
//! flag, [`set_enabled`]. Every hot-path hook ([`Counter::add`],
//! [`Timer::scope`]) first reads that flag with a single relaxed atomic
//! load and returns immediately when it is off — no allocation, no lock,
//! no clock read. Library callers that never call `set_enabled(true)`
//! therefore pay one predictable-branch load per instrumented event and
//! nothing else; this is the crate's zero-overhead-when-off guarantee.
//!
//! When enabled, counters accumulate with relaxed atomic adds and timers
//! with one `Instant` pair per scope, so even the "on" mode is cheap
//! enough for the workspace's exhaustive searches.
//!
//! # What is instrumented
//!
//! Every counter and timer is a `static` registered in [`counters`] and
//! [`timers`]; [`Snapshot::take`] captures them all, and
//! [`Snapshot::delta_since`] yields the per-experiment deltas the `repro`
//! binary embeds in its reports:
//!
//! * water-filling: calls, freezing rounds, link saturation events,
//!   rounds replayed from the previous run, warm-scratch reuse;
//! * simplex: solves, pivots, degenerate pivots;
//! * Hopcroft–Karp: calls, BFS phases, augmenting paths;
//! * König coloring: calls, edge passes, alternating-path flips;
//! * routing-objective searches: runs, canonical assignments enumerated,
//!   incumbent improvements, pruned subtrees, proven and skipped blocks;
//! * churn engines: events, arrivals, departures, epochs, dirty links,
//!   recomputed flows and paths, reused flows;
//! * failures and reroutes: overlays applied, links degraded, flows
//!   rerouted, reroute dead ends;
//! * topology: non-Clos fabric builds and their routing classes;
//! * timers: `waterfill`, `simplex`, `search`, `search.compile`,
//!   `churn.epoch`.
//!
//! # Machine-readable reports
//!
//! [`ExperimentRecord`] is the schema of one JSON-Lines record per
//! experiment (id, parameters, wall time, counter deltas, key results,
//! audit verdicts). It serializes through the dependency-free encoder in
//! [`json`] ([`ExperimentRecord::to_json_line`]) and parses back with
//! [`ExperimentRecord::from_json_line`].
//!
//! # Examples
//!
//! ```
//! use clos_telemetry::{counters, set_enabled, Snapshot};
//!
//! set_enabled(true);
//! let before = Snapshot::take();
//! counters::WATERFILL_ROUNDS.add(3);
//! let delta = Snapshot::take().delta_since(&before);
//! assert_eq!(delta, vec![("waterfill.rounds".to_string(), 3)]);
//! # clos_telemetry::set_enabled(false);
//! ```

pub mod json;
mod registry;
mod report;
pub mod span;

pub use crate::registry::{
    counters, enabled, set_enabled, timers, Counter, Snapshot, Timer, TimerGuard,
};
pub use crate::report::{AuditVerdict, ExperimentRecord, JsonLinesWriter};
pub use crate::span::{
    reset_tracing, set_tracing, span, take_trace, tracing_enabled, ContextGuard, SpanContext,
    SpanGuard, SpanTree,
};
