//! Fixture: telemetry registry with naming violations.

/// Minimal stand-ins for the registry types.
pub struct Counter;
impl Counter {
    /// Registers a counter.
    #[must_use]
    pub const fn new(_name: &str) -> Self {
        Counter
    }
    /// Bumps it.
    pub fn incr(&self) {}
}
/// Timer stand-in.
pub struct Timer;
impl Timer {
    /// Registers a timer.
    #[must_use]
    pub const fn new(_name: &str) -> Self {
        Timer
    }
}

/// Registered statics.
pub mod counters {
    use super::{Counter, Timer};
    /// Fine.
    pub static GOOD: Counter = Counter::new("search.rounds");
    /// Duplicate of GOOD.
    pub static DUP: Counter = Counter::new("search.rounds");
    /// Scheme violation.
    pub static UGLY: Counter = Counter::new("Search-Rounds");
    /// Collides with the timer snapshot key below.
    pub static SHADOW: Counter = Counter::new("solve.nanos");
    /// The timer whose derived keys SHADOW collides with.
    pub static SOLVE: Timer = Timer::new("solve");
}

/// Instrumentation sites.
pub fn touch() {
    counters::GOOD.incr();
    counters::MISSING.incr();
}

/// Registered statics of the compiled evaluation pipeline — the
/// production `waterfill.scratch_reuse` / `search.compile` names must
/// pass the scheme, uniqueness, and snapshot-key collision checks.
pub mod pipeline {
    use super::{Counter, Timer};
    /// Warm-scratch reuse counter.
    pub static SCRATCH_REUSE: Counter = Counter::new("waterfill.scratch_reuse");
    /// Instance compilation timer.
    pub static SEARCH_COMPILE: Timer = Timer::new("search.compile");
}

/// Instrumentation site referencing a pipeline static registered above.
pub fn touch_pipeline() {
    counters::SCRATCH_REUSE.incr();
}

/// Span stand-in (hierarchical tracing entry point).
pub fn span(_name: &str) {}

/// Span sites: names share the registry scheme; the duplicate of the
/// first name is deliberate and must NOT fire (re-instrumenting one
/// logical phase at several sites is how span trees merge).
pub fn traced() {
    span("search.block");
    span("search.block");
    span("Bad Span");
}

/// Registered statics of the churn engine — the production `churn.*`
/// names must pass the scheme, and the `churn.epochs` counter must NOT
/// be mistaken for the `churn.epoch` timer's derived snapshot keys
/// (`churn.epoch.nanos` / `churn.epoch.spans`).
pub mod churn {
    use super::{Counter, Timer};
    /// Flow events applied.
    pub static CHURN_EVENTS: Counter = Counter::new("churn.events");
    /// Recompute epochs flushed; near-miss of the timer below.
    pub static CHURN_EPOCHS: Counter = Counter::new("churn.epochs");
    /// Links whose saturation level could change per epoch.
    pub static CHURN_DIRTY_LINKS: Counter = Counter::new("churn.dirty_links");
    /// Live paths recomputed per epoch (one waterfill entry each).
    pub static CHURN_RECOMPUTED_PATHS: Counter = Counter::new("churn.recomputed_paths");
    /// Epoch timer: derives `churn.epoch.nanos` and `churn.epoch.spans`.
    pub static CHURN_EPOCH: Timer = Timer::new("churn.epoch");
}

/// Instrumentation sites referencing churn statics and the epoch span.
pub fn touch_churn() {
    counters::CHURN_EVENTS.incr();
    counters::CHURN_RECOMPUTED_PATHS.add(1);
    span("churn.epoch");
}

/// Registered statics of the failure and reroute subsystems — the
/// production `failure.*` / `reroute.*` names must pass the scheme,
/// uniqueness, and snapshot-key collision checks.
pub mod failure {
    use super::Counter;
    /// Failure overlays applied to a churn engine.
    pub static FAILURE_EVENTS: Counter = Counter::new("failure.events");
    /// Links whose capacity failure overlays changed.
    pub static FAILURE_LINKS_DEGRADED: Counter = Counter::new("failure.links_degraded");
    /// Flows moved by the local fast-reroute policy.
    pub static REROUTE_FLOWS: Counter = Counter::new("reroute.flows");
    /// Flows with no surviving path.
    pub static REROUTE_DEAD_ENDS: Counter = Counter::new("reroute.dead_ends");
}

/// Instrumentation site referencing a failure static registered above.
pub fn touch_failure() {
    counters::FAILURE_EVENTS.incr();
    counters::REROUTE_FLOWS.incr();
}

/// Registered statics of the topology builders — the production
/// `topology.builds` / `fabric.classes` names (non-Clos fabric
/// constructions and their routing-class counts) must pass the scheme,
/// uniqueness, and snapshot-key collision checks.
pub mod topology {
    use super::Counter;
    /// Non-Clos fabric constructions (Benes and fat-tree builders).
    pub static TOPOLOGY_BUILDS: Counter = Counter::new("topology.builds");
    /// Routing classes exposed by constructed non-Clos fabrics.
    pub static FABRIC_CLASSES: Counter = Counter::new("fabric.classes");
}

/// Instrumentation site referencing a topology static registered above.
pub fn touch_topology() {
    counters::TOPOLOGY_BUILDS.incr();
    counters::FABRIC_CLASSES.incr();
}

/// Registered statics of the search engine's proven-optimum exit — the
/// production `search.proven_blocks` / `search.blocks_skipped` names
/// must pass the scheme, uniqueness, and snapshot-key collision checks.
pub mod search_exit {
    use super::Counter;
    /// Blocks whose walk stopped at a proven optimum.
    pub static SEARCH_PROVEN_BLOCKS: Counter = Counter::new("search.proven_blocks");
    /// Blocks never started past the wave that proved the optimum.
    pub static SEARCH_BLOCKS_SKIPPED: Counter = Counter::new("search.blocks_skipped");
}

/// Instrumentation site referencing the exit statics registered above.
pub fn touch_search_exit() {
    counters::SEARCH_PROVEN_BLOCKS.incr();
    counters::SEARCH_BLOCKS_SKIPPED.incr();
}
