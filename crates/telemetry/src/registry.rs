//! The global enable flag, counters, timers, and snapshots.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns instrumentation on or off globally.
///
/// Off is the default; see the crate docs for the cost model.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Returns whether instrumentation is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A named monotonic event counter.
///
/// Counters are cheap statics: incrementing is a relaxed atomic add when
/// instrumentation is enabled and a single flag load otherwise.
///
/// # Examples
///
/// ```
/// use clos_telemetry::{set_enabled, Counter};
///
/// static MY_EVENTS: Counter = Counter::new("my.events");
/// MY_EVENTS.incr(); // disabled: no effect
/// assert_eq!(MY_EVENTS.get(), 0);
/// set_enabled(true);
/// MY_EVENTS.add(2);
/// assert_eq!(MY_EVENTS.get(), 2);
/// # clos_telemetry::set_enabled(false);
/// # MY_EVENTS.reset();
/// ```
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter (usable in `static` position).
    #[must_use]
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Returns the counter's name (dot-separated, e.g. `waterfill.rounds`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter if instrumentation is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter if instrumentation is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Returns the current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero (works even when disabled).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A named accumulator of wall-clock time over scopes.
///
/// # Examples
///
/// ```
/// use clos_telemetry::{set_enabled, Timer};
///
/// static MY_PHASE: Timer = Timer::new("my.phase");
/// set_enabled(true);
/// {
///     let _guard = MY_PHASE.scope();
///     // ... timed work ...
/// }
/// assert_eq!(MY_PHASE.spans(), 1);
/// # clos_telemetry::set_enabled(false);
/// # MY_PHASE.reset();
/// ```
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    nanos: AtomicU64,
    spans: AtomicU64,
}

impl Timer {
    /// Creates a timer (usable in `static` position).
    #[must_use]
    pub const fn new(name: &'static str) -> Timer {
        Timer {
            name,
            nanos: AtomicU64::new(0),
            spans: AtomicU64::new(0),
        }
    }

    /// Returns the timer's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Starts a scoped measurement; the elapsed wall time is recorded when
    /// the returned guard drops. A no-op (no clock read) when disabled.
    #[must_use]
    pub fn scope(&self) -> TimerGuard<'_> {
        TimerGuard {
            timer: self,
            start: if enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Records one completed span of `elapsed` wall time.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.spans.fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded nanoseconds.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn spans(&self) -> u64 {
        self.spans.load(Ordering::Relaxed)
    }

    /// Resets the timer (works even when disabled).
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
        self.spans.store(0, Ordering::Relaxed);
    }
}

/// The guard returned by [`Timer::scope`]; records on drop.
#[derive(Debug)]
pub struct TimerGuard<'a> {
    timer: &'a Timer,
    start: Option<Instant>,
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.timer.record(start.elapsed());
        }
    }
}

/// The workspace's counter registry: one static per instrumented event.
pub mod counters {
    use super::Counter;

    /// Water-filling runs (`WaterfillInstance::run`, which every
    /// allocator, search evaluation and churn epoch calls).
    pub static WATERFILL_CALLS: Counter = Counter::new("waterfill.calls");
    /// Water-filling freezing rounds (one per fill level).
    pub static WATERFILL_ROUNDS: Counter = Counter::new("waterfill.rounds");
    /// Links saturated during water-filling (may exceed rounds when several
    /// links saturate at the same level).
    pub static WATERFILL_SATURATIONS: Counter = Counter::new("waterfill.saturations");
    /// Water-filling rounds a run over an edited-in-place description
    /// replayed from the previous run instead of recomputing (counted
    /// in `waterfill.rounds` too).
    pub static WATERFILL_REPLAYED_ROUNDS: Counter = Counter::new("waterfill.replayed_rounds");
    /// Simplex solves (`LinearProgram::solve`).
    pub static SIMPLEX_SOLVES: Counter = Counter::new("simplex.solves");
    /// Simplex pivots across both phases.
    pub static SIMPLEX_PIVOTS: Counter = Counter::new("simplex.pivots");
    /// Degenerate pivots (leaving row already at zero — no objective
    /// progress; Bland's rule guards against cycling through these).
    pub static SIMPLEX_DEGENERATE_PIVOTS: Counter = Counter::new("simplex.degenerate_pivots");
    /// Hopcroft–Karp invocations.
    pub static MATCHING_CALLS: Counter = Counter::new("matching.calls");
    /// Hopcroft–Karp BFS layering phases.
    pub static MATCHING_BFS_PHASES: Counter = Counter::new("matching.bfs_phases");
    /// Augmenting paths applied (equals the final matching size).
    pub static MATCHING_AUGMENTING_PATHS: Counter = Counter::new("matching.augmenting_paths");
    /// König edge-coloring invocations.
    pub static COLORING_CALLS: Counter = Counter::new("coloring.calls");
    /// König coloring passes (one per edge inserted).
    pub static COLORING_PASSES: Counter = Counter::new("coloring.passes");
    /// Alternating-path recolorings performed during insertion.
    pub static COLORING_PATH_FLIPS: Counter = Counter::new("coloring.path_flips");
    /// Exhaustive routing-objective searches started.
    pub static SEARCH_RUNS: Counter = Counter::new("search.runs");
    /// Canonical middle-switch assignments enumerated (callbacks from
    /// `for_each_canonical_assignment`).
    pub static SEARCH_ASSIGNMENTS: Counter = Counter::new("search.assignments");
    /// Times a search improved its incumbent optimum.
    pub static SEARCH_IMPROVEMENTS: Counter = Counter::new("search.improvements");
    /// Assignment subtrees skipped by branch-and-bound pruning (their
    /// admissible objective bound could not beat an incumbent).
    pub static SEARCH_PRUNED: Counter = Counter::new("search.pruned");
    /// Search blocks whose walk stopped early at a proven optimum (an
    /// incumbent that reached the objective's root bound).
    pub static SEARCH_PROVEN_BLOCKS: Counter = Counter::new("search.proven_blocks");
    /// Search blocks never started because an earlier wave proved the
    /// optimum (not prunes: `search.pruned` does not count them).
    pub static SEARCH_BLOCKS_SKIPPED: Counter = Counter::new("search.blocks_skipped");
    /// Water-filling runs served by an already-warm scratch buffer (no
    /// fresh allocations; see `clos-fairness`'s compiled pipeline).
    pub static WATERFILL_SCRATCH_REUSE: Counter = Counter::new("waterfill.scratch_reuse");
    /// Flow events (arrivals + departures) applied to a churn engine.
    pub static CHURN_EVENTS: Counter = Counter::new("churn.events");
    /// Flow arrivals applied to a churn engine.
    pub static CHURN_ARRIVALS: Counter = Counter::new("churn.arrivals");
    /// Flow departures applied to a churn engine.
    pub static CHURN_DEPARTURES: Counter = Counter::new("churn.departures");
    /// Churn recompute epochs (batched incremental water-filling runs).
    pub static CHURN_EPOCHS: Counter = Counter::new("churn.epochs");
    /// Links whose live-flow count changed since the previous churn
    /// epoch.
    pub static CHURN_DIRTY_LINKS: Counter = Counter::new("churn.dirty_links");
    /// Live flows whose rates a churn epoch recomputed: the live flows
    /// less `churn.reused_flows`.
    pub static CHURN_RECOMPUTED_FLOWS: Counter = Counter::new("churn.recomputed_flows");
    /// Live paths a churn epoch recomputed, one waterfill entry each
    /// (`churn.recomputed_flows` over this is the mean number of flows
    /// sharing a recomputed path).
    pub static CHURN_RECOMPUTED_PATHS: Counter = Counter::new("churn.recomputed_paths");
    /// Live flows whose rates a churn epoch reused: those on paths that
    /// froze in water-filling rounds replayed from the previous epoch.
    pub static CHURN_REUSED_FLOWS: Counter = Counter::new("churn.reused_flows");
    /// Failure overlays applied to a churn engine (`apply_failure`
    /// calls that changed at least one link).
    pub static FAILURE_EVENTS: Counter = Counter::new("failure.events");
    /// Links whose capacity a failure overlay actually changed.
    pub static FAILURE_LINKS_DEGRADED: Counter = Counter::new("failure.links_degraded");
    /// Flows moved off a dead link by the local fast-reroute policy.
    pub static REROUTE_FLOWS: Counter = Counter::new("reroute.flows");
    /// Flows the reroute policy could not save (no middle with a
    /// surviving uplink and downlink, or a dead host link).
    pub static REROUTE_DEAD_ENDS: Counter = Counter::new("reroute.dead_ends");
    /// Non-Clos fabric constructions (Benes and fat-tree builders; the
    /// Clos constructor predates the `Fabric` trait and stays silent so
    /// historical experiment telemetry is unchanged).
    pub static TOPOLOGY_BUILDS: Counter = Counter::new("topology.builds");
    /// Routing classes exposed by constructed non-Clos fabrics
    /// (accumulated over `topology.builds`).
    pub static FABRIC_CLASSES: Counter = Counter::new("fabric.classes");

    /// Every registered counter, in a stable order.
    #[must_use]
    pub fn all() -> [&'static Counter; 34] {
        [
            &WATERFILL_CALLS,
            &WATERFILL_ROUNDS,
            &WATERFILL_SATURATIONS,
            &WATERFILL_REPLAYED_ROUNDS,
            &SIMPLEX_SOLVES,
            &SIMPLEX_PIVOTS,
            &SIMPLEX_DEGENERATE_PIVOTS,
            &MATCHING_CALLS,
            &MATCHING_BFS_PHASES,
            &MATCHING_AUGMENTING_PATHS,
            &COLORING_CALLS,
            &COLORING_PASSES,
            &COLORING_PATH_FLIPS,
            &SEARCH_RUNS,
            &SEARCH_ASSIGNMENTS,
            &SEARCH_IMPROVEMENTS,
            &SEARCH_PRUNED,
            &SEARCH_PROVEN_BLOCKS,
            &SEARCH_BLOCKS_SKIPPED,
            &WATERFILL_SCRATCH_REUSE,
            &CHURN_EVENTS,
            &CHURN_ARRIVALS,
            &CHURN_DEPARTURES,
            &CHURN_EPOCHS,
            &CHURN_DIRTY_LINKS,
            &CHURN_RECOMPUTED_FLOWS,
            &CHURN_RECOMPUTED_PATHS,
            &CHURN_REUSED_FLOWS,
            &FAILURE_EVENTS,
            &FAILURE_LINKS_DEGRADED,
            &REROUTE_FLOWS,
            &REROUTE_DEAD_ENDS,
            &TOPOLOGY_BUILDS,
            &FABRIC_CLASSES,
        ]
    }

    /// Resets every registered counter.
    pub fn reset_all() {
        for c in all() {
            c.reset();
        }
    }
}

/// The workspace's timer registry.
pub mod timers {
    use super::Timer;

    /// Wall time inside water-filling.
    pub static WATERFILL: Timer = Timer::new("waterfill");
    /// Wall time inside simplex solves.
    pub static SIMPLEX: Timer = Timer::new("simplex");
    /// Wall time inside exhaustive routing-objective searches.
    pub static SEARCH: Timer = Timer::new("search");
    /// Wall time compiling a search instance (dense incidence tables),
    /// paid once per search rather than once per evaluated routing.
    pub static SEARCH_COMPILE: Timer = Timer::new("search.compile");
    /// Wall time inside churn recompute epochs (the resumed water-filling
    /// run, the write-back of shown paths, and the oracle check when
    /// enabled).
    pub static CHURN_EPOCH: Timer = Timer::new("churn.epoch");

    /// Every registered timer, in a stable order.
    #[must_use]
    pub fn all() -> [&'static Timer; 5] {
        [&WATERFILL, &SIMPLEX, &SEARCH, &SEARCH_COMPILE, &CHURN_EPOCH]
    }

    /// Resets every registered timer.
    pub fn reset_all() {
        for t in all() {
            t.reset();
        }
    }
}

/// A point-in-time capture of every registered counter and timer.
///
/// Timers appear as two entries each: `<name>.nanos` and `<name>.spans`.
/// Entries are sorted by name, so snapshot and delta output is stable
/// across runs regardless of registration order.
///
/// # Examples
///
/// ```
/// use clos_telemetry::{counters, set_enabled, Snapshot};
///
/// set_enabled(true);
/// let before = Snapshot::take();
/// counters::SIMPLEX_PIVOTS.incr();
/// let delta = Snapshot::take().delta_since(&before);
/// assert!(delta.contains(&("simplex.pivots".to_string(), 1)));
/// # clos_telemetry::set_enabled(false);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot {
    entries: Vec<(String, u64)>,
}

impl Snapshot {
    /// Captures the current value of every registered counter and timer.
    #[must_use]
    pub fn take() -> Snapshot {
        let mut entries: Vec<(String, u64)> = counters::all()
            .iter()
            .map(|c| (c.name().to_string(), c.get()))
            .collect();
        for t in timers::all() {
            entries.push((format!("{}.nanos", t.name()), t.total_nanos()));
            entries.push((format!("{}.spans", t.name()), t.spans()));
        }
        // Report order must not depend on registration order: sort by
        // name so snapshots (and the deltas derived from them) are
        // deterministic across runs and refactors of the registries.
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Snapshot { entries }
    }

    /// Returns all captured `(name, value)` entries.
    #[must_use]
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// Returns the value captured for `name`, if registered.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Returns the entries that grew since `earlier` (zero deltas are
    /// omitted). Saturates at zero if a counter was reset in between.
    #[must_use]
    pub fn delta_since(&self, earlier: &Snapshot) -> Vec<(String, u64)> {
        self.entries
            .iter()
            .map(|(name, now)| {
                let before = earlier.get(name).unwrap_or(0);
                (name.clone(), now.saturating_sub(before))
            })
            .filter(|&(_, d)| d > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry state is global; keep every test that mutates it under one
    // lock so `cargo test`'s parallel threads don't interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_counters_do_nothing() {
        let _guard = serial();
        set_enabled(false);
        static C: Counter = Counter::new("test.disabled");
        C.reset();
        C.incr();
        C.add(10);
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn enabled_counters_accumulate() {
        let _guard = serial();
        static C: Counter = Counter::new("test.enabled");
        C.reset();
        set_enabled(true);
        C.incr();
        C.add(4);
        set_enabled(false);
        C.incr(); // ignored again
        assert_eq!(C.get(), 5);
        assert_eq!(C.name(), "test.enabled");
        C.reset();
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn disabled_timer_records_nothing() {
        let _guard = serial();
        set_enabled(false);
        static T: Timer = Timer::new("test.timer.off");
        T.reset();
        drop(T.scope());
        assert_eq!(T.spans(), 0);
        assert_eq!(T.total_nanos(), 0);
    }

    #[test]
    fn enabled_timer_counts_spans() {
        let _guard = serial();
        static T: Timer = Timer::new("test.timer.on");
        T.reset();
        set_enabled(true);
        drop(T.scope());
        drop(T.scope());
        set_enabled(false);
        assert_eq!(T.spans(), 2);
        T.record(Duration::from_nanos(7));
        assert_eq!(T.spans(), 3);
        assert!(T.total_nanos() >= 7);
        T.reset();
    }

    #[test]
    fn snapshot_delta_reports_only_growth() {
        let _guard = serial();
        counters::reset_all();
        timers::reset_all();
        set_enabled(true);
        let before = Snapshot::take();
        counters::WATERFILL_ROUNDS.add(2);
        counters::SIMPLEX_PIVOTS.incr();
        let after = Snapshot::take();
        set_enabled(false);
        let delta = after.delta_since(&before);
        // Deltas come out name-sorted (snapshot entries are sorted).
        assert_eq!(
            delta,
            vec![
                ("simplex.pivots".to_string(), 1),
                ("waterfill.rounds".to_string(), 2),
            ]
        );
        assert_eq!(after.get("waterfill.rounds"), Some(2));
        assert_eq!(after.get("no.such.counter"), None);
        counters::reset_all();
    }

    #[test]
    fn registries_have_unique_names() {
        let mut names: Vec<&str> = counters::all().iter().map(|c| c.name()).collect();
        names.extend(timers::all().iter().map(|t| t.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate telemetry names");
    }
}
