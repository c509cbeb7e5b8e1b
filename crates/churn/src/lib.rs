//! `clos-churn`: event-driven max-min allocation under flow churn.
//!
//! The rest of this workspace evaluates *static* instances: a flow
//! collection is routed once and water-filled once. Real data centers
//! see the instance only as a fixed point of constant churn — flows
//! arrive, live, and depart by the hundreds of thousands per second,
//! and congestion control continuously re-converges around them. This
//! crate makes that regime first-class:
//!
//! * [`trace`] — seeded open-loop event generators: Poisson arrivals
//!   with exponential or empirical lifetimes, endpoints drawn uniformly
//!   or by replaying any `clos-workloads` pattern, emitted as
//!   deterministic [`TimedEvent`] streams.
//! * [`policy`] — per-event online routing ([`OnlinePolicy`]): ECMP,
//!   greedy, and first-fit mirrors of the `clos-core` batch routers
//!   over persistent live-flow counts, never disturbing placed flows.
//! * [`engine`] — the [`ChurnEngine`]: live flows over any
//!   [`Fabric`](clos_net::Fabric) (Clos by default), grouped at apply
//!   time into *path classes* (flows with the same endpoints and routing
//!   class). Each batched recompute epoch runs one water-filling over
//!   the live paths, each weighted by its number of live flows; flows
//!   on a path freeze together at one level, so the result reproduces a
//!   per-flow full recompute bit for bit — checkable online via
//!   [`ChurnConfig::verify`]'s full-recompute oracle.
//!
//! Sustained throughput at C₃/C₄ scales with 10⁵–10⁶ concurrent flows
//! is tracked by the `bench_churn` binary in `clos-bench` (versioned
//! `BENCH_churn.json`, gated in CI); experiment `e13` reports epoch
//! latency and starvation under churn.

pub mod engine;
pub mod event;
pub mod policy;
pub mod reroute;
pub mod trace;

pub use engine::{ChurnConfig, ChurnEngine, RecomputeStats};
pub use event::{FlowEvent, FlowKey, TimedEvent};
pub use policy::OnlinePolicy;
pub use reroute::{LocalReroute, RerouteOutcome};
pub use trace::{Pattern, SizeDist, TraceConfig, TraceGenerator};
