//! The churn engine.
//!
//! [`ChurnEngine`] maintains the max-min fair allocation of a
//! multi-stage fabric (any [`Fabric`], a Clos network by default) under
//! online flow churn. Each [`FlowEvent`] routes (on arrival, via an
//! [`OnlinePolicy`] choosing among the fabric's routing classes) or
//! removes one flow; after a configurable batch of events an *epoch*
//! ([`flush`]) recomputes and publishes every live rate.
//!
//! # Path classes
//!
//! An unsplittable flow's links are fixed by its endpoints and its
//! routing class, so the engine interns each (source, destination,
//! class) triple into a *path* at apply time, and a flow's slot records
//! only its path id. Endpoint pairs index a dense table of first path
//! ids (sources × destinations), and a pair's paths take consecutive ids
//! in class order. A fabric has far fewer paths than a busy trace has
//! live flows (C_4 has 32 × 32 × 4 = 4,096 paths against ~10⁵ live
//! flows), so the waterfill gets one entry per path, weighted by its
//! live multiplicity: the number of live flows on it.
//!
//! The engine keeps one waterfill description for its whole life, and
//! entry `p` is path `p`. Interning pushes a path's entry without flows
//! ([`WaterfillScratch::push_flows`] at multiplicity zero), and every
//! arrival, departure, or reroute moves one entry's multiplicity
//! ([`WaterfillScratch::set_multiplicity`]), which keeps the links'
//! member lists and flow counts current. Those per-link flow counts are
//! also the live-flow counts the policy reads. An epoch is then one run
//! over the description as it stands: no per-epoch push or rebuild, and
//! no work for paths without live flows.
//!
//! # Bit-identical to a per-flow recompute
//!
//! Flows on one path cross exactly the same links, so water-filling
//! cannot tell them apart: they freeze in the same round, on the same
//! first saturating link, at the same level. A per-flow run then adds
//! that level to each link's frozen load once per flow; the
//! multiplicity-aware run counts those adds per link and makes them in
//! one [`Scalar::add_repeated`] call, which returns exactly the chain of
//! single adds. Its arithmetic is the arithmetic of a per-flow run,
//! while a round costs one operation per touched link rather than one
//! per live flow. Nor does the order of the member lists, which departures
//! and reroutes reshuffle, change any result of an unweighted run (see
//! the `clos_fairness` compiled module docs). Rates and bottlenecks are
//! therefore **bit-identical**
//! (in both exact-rational and `TotalF64` modes) to a fresh full run over
//! the live flows, and the
//! engine's [`levels`](ChurnEngine::levels) equal the fresh run's up to
//! the sorted-dedup normalization described on that method. The `verify`
//! flag of [`ChurnConfig`] asserts exactly that against a per-flow
//! full-recompute oracle after every epoch, and the `incremental_oracle`
//! and `failure_oracle` proptest suites pin it over random traces.
//!
//! # Publication
//!
//! Accessors report the allocation as of the last flush. A flow that
//! arrived since then reads rate zero (and the first link of its path as
//! its bottleneck); a flow rerouted since then keeps the rate and
//! bottleneck of the path it was on at the last flush. Each slot
//! therefore records the path it reports next to its current path, and a
//! flush refreshes only the slots touched since the previous flush.
//! Rates and bottlenecks are read in place from the waterfill's result
//! slices at the path's entry: a run writes only the entries it fills,
//! so a path that lost its last flow since the flush still holds the
//! values its former flows report until the next one.
//!
//! Because routing, slot assignment, and path bookkeeping all happen at
//! *apply* time (they are pure functions of the event prefix), the
//! engine's state after `apply`ing a prefix and [`flush`]ing is
//! independent of the batch size — two engines fed the same trace with
//! different batches agree byte-for-byte at every common flushed
//! checkpoint (CI byte-diffs published epochs at two batch sizes).
//!
//! Nothing here assumes the Clos shape: paths may have any length (the
//! waterfill description keeps every path's links in one flat array), and
//! congestion bookkeeping is a live-flow count per dense link rather
//! than per (ToR, middle) pair. On a Clos fabric the
//! interior of a path is exactly its uplink and downlink, so the
//! per-class load maxima the policy sees — and hence every placement —
//! are identical to the historical ToR-sharded matrices.
//!
//! [`flush`]: ChurnEngine::flush

use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::{CapacityMap, ClosNetwork, Fabric, Flow, LinkId, NodeKind};
use clos_rational::{Rational, Scalar};
use clos_telemetry::{counters, timers};

use crate::event::{FlowEvent, FlowKey};
use crate::policy::OnlinePolicy;
use crate::reroute::{LocalReroute, RerouteOutcome};

/// Sentinel in the key→slot table: the key has no live flow.
const NO_SLOT: u32 = u32::MAX;
/// Sentinel path id of a free slot.
const NO_PATH: u32 = u32::MAX;
/// Sentinel host rank of a switch.
const NO_RANK: u32 = u32::MAX;

/// Engine configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChurnConfig {
    /// Events buffered between recompute epochs; must be at least 1.
    /// Larger batches amortize recomputation over more events at the
    /// cost of staler published rates.
    pub batch: usize,
    /// When set, every epoch is checked against a full-recompute oracle
    /// (rates, bottlenecks, and levels must match bit for bit). The
    /// oracle water-fills every live *flow* where the engine water-fills
    /// every live *path*, so each checked epoch adds one water-fill whose
    /// size is the live flow count rather than the live path count —
    /// about 1.6× the engine's entries in E13 (see EXPERIMENTS.md).
    /// Meant for tests and debugging.
    pub verify: bool,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            batch: 1024,
            verify: false,
        }
    }
}

/// Cumulative engine statistics (mirrors the `churn.*` telemetry
/// counters, but always on and per-engine).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecomputeStats {
    /// Recompute epochs run.
    pub epochs: u64,
    /// Links whose flow set or capacity changed between epochs, summed
    /// over epochs (informational: every epoch recomputes every live
    /// path regardless).
    pub dirty_links: u64,
    /// Live flows recomputed by epochs (every live flow, every epoch).
    pub recomputed_flows: u64,
    /// Live paths recomputed by epochs, one waterfill entry each;
    /// `recomputed_flows / recomputed_paths` is the mean number of flows
    /// sharing a path.
    pub recomputed_paths: u64,
    /// Always 0: epochs recompute every live path and reuse no cached
    /// rate. Kept so reports that read it stay comparable.
    pub reused_flows: u64,
    /// Events applied.
    pub events: u64,
    /// Arrivals applied.
    pub arrivals: u64,
    /// Departures applied.
    pub departures: u64,
    /// Maximum concurrent live flows observed.
    pub peak_live: u64,
    /// Failure overlays applied (calls that changed at least one link).
    pub failures: u64,
    /// Links whose capacity failure overlays changed.
    pub degraded_links: u64,
    /// Flows moved by [`reroute_failed`](ChurnEngine::reroute_failed).
    pub rerouted_flows: u64,
    /// Flows `reroute_failed` found stuck (no surviving path).
    pub reroute_dead_ends: u64,
}

/// One interned path: a source/destination pair routed via one class.
/// Every live flow on it crosses the same links, so they share one
/// waterfill entry (the entry with the path's id, which holds its links,
/// its live multiplicity, and its published rate and bottleneck).
#[derive(Clone, Debug)]
struct PathClass {
    flow: Flow,
    /// Routing class (on Clos, the middle-switch index).
    class: u32,
}

/// One flow's bookkeeping (slots are reused through a free list after
/// the flow departs).
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: FlowKey,
    /// Current path, or `NO_PATH` while the slot is free.
    path: u32,
    /// The path whose published allocation the flow reports (its path
    /// at the last flush), or `NO_PATH` if it arrived since.
    shown: u32,
}

/// Event-driven max-min allocation over a multi-stage fabric (see the
/// module docs for the algorithm and its guarantees).
///
/// # Examples
///
/// ```
/// use clos_churn::{ChurnConfig, ChurnEngine, FlowEvent, OnlinePolicy};
/// use clos_net::{ClosNetwork, Flow};
/// use clos_rational::Rational;
///
/// let clos = ClosNetwork::standard(2);
/// let flow = Flow::new(clos.source(0, 0), clos.destination(2, 0));
/// let mut engine = ChurnEngine::<Rational>::new(
///     clos,
///     OnlinePolicy::greedy(),
///     ChurnConfig::default(),
/// );
/// engine.apply(FlowEvent::Arrive { key: 0, flow });
/// engine.flush();
/// assert_eq!(engine.rate(0), Some(Rational::ONE));
/// engine.apply(FlowEvent::Depart { key: 0 });
/// engine.flush();
/// assert_eq!(engine.live(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct ChurnEngine<S, F: Fabric = ClosNetwork> {
    fabric: F,
    instance: WaterfillInstance<S>,
    policy: OnlinePolicy,
    cfg: ChurnConfig,
    capacity: Rational,
    classes: usize,

    /// Node index → rank among the fabric's sources, or among its
    /// destinations (`NO_RANK` for switches).
    host_rank: Vec<u32>,
    /// Number of destinations (the row length of `path_of`).
    destinations: usize,
    /// Endpoint pair (source rank × `destinations` + destination rank)
    /// → id of its first path, or `NO_PATH` before the pair's first
    /// arrival; the pair's `classes` paths take consecutive ids in class
    /// order.
    path_of: Vec<u32>,
    paths: Vec<PathClass>,

    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Key → slot index (keys are dense, see [`FlowKey`]); `NO_SLOT`
    /// marks keys that never arrived or already departed.
    slot_of_key: Vec<u32>,
    /// Slots that arrived or moved since the last flush.
    touched: Vec<u32>,
    live: usize,

    /// Links changed since the last flush; a flush with none is a no-op.
    dirty: Vec<bool>,
    dirty_list: Vec<usize>,
    pending: usize,

    /// The waterfill description: entry `p` is path `p`, at its live
    /// multiplicity, so its per-link flow counts are the live-flow
    /// counts the policy reads.
    scratch: WaterfillScratch<S>,
    oracle_scratch: WaterfillScratch<S>,
    // Apply-time work buffers, reused across events.
    path_buf: Vec<LinkId>,
    dense_buf: Vec<usize>,
    class_loads: Vec<u32>,

    stats: RecomputeStats,
}

impl<S: Scalar, F: Fabric> ChurnEngine<S, F> {
    /// Builds an engine over `fabric` with the given routing policy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.batch` is zero.
    #[must_use]
    pub fn new(fabric: F, policy: OnlinePolicy, cfg: ChurnConfig) -> ChurnEngine<S, F> {
        assert!(cfg.batch >= 1, "batch size must be at least 1");
        let instance = WaterfillInstance::<S>::compile(fabric.network());
        let links = instance.link_count();
        let net = fabric.network();
        let mut host_rank = vec![NO_RANK; net.node_count()];
        let sources = net.nodes_of_kind(NodeKind::Source);
        let destinations = net.nodes_of_kind(NodeKind::Destination);
        for ends in [&sources, &destinations] {
            for (rank, node) in ends.iter().enumerate() {
                host_rank[node.index()] = rank as u32;
            }
        }
        ChurnEngine {
            capacity: fabric.nominal_capacity(),
            classes: fabric.class_count(),
            instance,
            policy,
            cfg,
            host_rank,
            destinations: destinations.len(),
            path_of: vec![NO_PATH; sources.len() * destinations.len()],
            paths: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            slot_of_key: Vec::new(),
            touched: Vec::new(),
            live: 0,
            dirty: vec![false; links],
            dirty_list: Vec::new(),
            pending: 0,
            scratch: WaterfillScratch::new(),
            oracle_scratch: WaterfillScratch::new(),
            path_buf: Vec::new(),
            dense_buf: Vec::new(),
            class_loads: Vec::new(),
            stats: RecomputeStats::default(),
            fabric,
        }
    }

    /// Applies one flow event, auto-flushing once the configured batch
    /// fills up.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate arrival for a key or a departure for a key
    /// with no live flow — churn traces are well-formed by construction
    /// and a violation means the caller lost track of its keys.
    pub fn apply(&mut self, event: FlowEvent) {
        counters::CHURN_EVENTS.incr();
        self.stats.events += 1;
        match event {
            FlowEvent::Arrive { key, flow } => self.arrive(key, flow),
            FlowEvent::Depart { key } => self.depart(key),
        }
        self.pending += 1;
        if self.pending >= self.cfg.batch {
            self.flush();
        }
    }

    /// Dense link indices of `path`.
    fn links_of(&self, path: u32) -> &[usize] {
        self.scratch.entry_links(path as usize)
    }

    /// Id of the first of `flow`'s paths (one per routing class, at
    /// consecutive ids), interning them on the pair's first arrival as
    /// waterfill entries without flows.
    ///
    /// # Panics
    ///
    /// Panics if the flow's endpoints are not a source and a destination
    /// of the fabric.
    fn intern(&mut self, flow: Flow) -> u32 {
        let (src, dst) = (
            self.host_rank[flow.src().index()],
            self.host_rank[flow.dst().index()],
        );
        assert!(
            src != NO_RANK && dst != NO_RANK,
            "flow endpoints must be a fabric source and destination"
        );
        let pair = src as usize * self.destinations + dst as usize;
        if self.path_of[pair] != NO_PATH {
            return self.path_of[pair];
        }
        let first = self.paths.len() as u32;
        for class in 0..self.classes {
            self.path_buf.clear();
            self.fabric
                .append_links_via(flow, class, &mut self.path_buf);
            debug_assert!(!self.path_buf.is_empty(), "paths cross links");
            self.dense_buf.clear();
            for &link in &self.path_buf {
                let Some(d) = self.instance.dense_index(link) else {
                    unreachable!("fabric links are finite")
                };
                self.dense_buf.push(d);
            }
            self.scratch.push_flows(&self.dense_buf, 0);
            self.paths.push(PathClass {
                flow,
                class: class as u32,
            });
        }
        self.path_of[pair] = first;
        first
    }

    /// Maximum live-flow count over the interior links of `path`, the
    /// congestion the policy compares across classes. (Host access
    /// links are class-independent, so they cancel; a degenerate path
    /// with no interior reads all of its links.)
    fn interior_load(&self, path: u32) -> u32 {
        self.interior(path)
            .iter()
            .map(|&d| self.scratch.link_flows(d) as u32)
            .fold(0, u32::max)
    }

    /// The interior links of `path` (all of them if it has fewer than
    /// three).
    fn interior(&self, path: u32) -> &[usize] {
        let links = self.links_of(path);
        let len = links.len();
        if len >= 3 {
            &links[1..len - 1]
        } else {
            links
        }
    }

    fn arrive(&mut self, key: FlowKey, flow: Flow) {
        counters::CHURN_ARRIVALS.incr();
        self.stats.arrivals += 1;
        let first = self.intern(flow);
        self.class_loads.clear();
        for class in 0..self.classes {
            let load = self.interior_load(first + class as u32);
            self.class_loads.push(load);
        }
        let class = self.policy.pick_class(&self.class_loads, self.capacity);
        let path = first + class as u32;

        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    key: 0,
                    path: NO_PATH,
                    shown: NO_PATH,
                });
                (self.slots.len() - 1) as u32
            }
        };

        let ki = key as usize;
        if self.slot_of_key.len() <= ki {
            self.slot_of_key.resize(ki + 1, NO_SLOT);
        }
        assert!(
            self.slot_of_key[ki] == NO_SLOT,
            "duplicate arrival for key {key}"
        );
        self.slot_of_key[ki] = slot;

        self.slots[slot as usize] = Slot {
            key,
            path,
            shown: NO_PATH,
        };
        self.join(path);
        self.touched.push(slot);
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live as u64);
    }

    /// Adds one live flow to `path` (a multiplicity step of its
    /// waterfill entry, which updates its links' live counts) and marks
    /// its links dirty.
    fn join(&mut self, path: u32) {
        let live = self.scratch.multiplicity(path as usize) + 1;
        self.set_live(path, live);
    }

    /// Removes one live flow from `path`, the inverse of [`Self::join`].
    fn leave(&mut self, path: u32) {
        let live = self.scratch.multiplicity(path as usize) - 1;
        self.set_live(path, live);
    }

    /// Sets `path`'s live multiplicity and marks its links dirty.
    fn set_live(&mut self, path: u32, live: usize) {
        self.scratch.set_multiplicity(path as usize, live);
        for i in 0..self.links_of(path).len() {
            let d = self.links_of(path)[i];
            self.mark_dirty(d);
        }
    }

    fn depart(&mut self, key: FlowKey) {
        counters::CHURN_DEPARTURES.incr();
        self.stats.departures += 1;
        let ki = key as usize;
        let slot = match self.slot_of_key.get(ki) {
            Some(&s) if s != NO_SLOT => s,
            _ => panic!("departure for key {key} with no live flow"),
        };
        self.slot_of_key[ki] = NO_SLOT;

        self.leave(self.slots[slot as usize].path);
        self.slots[slot as usize].path = NO_PATH;
        self.free.push(slot);
        self.live -= 1;
    }

    fn mark_dirty(&mut self, dense: usize) {
        if !self.dirty[dense] {
            self.dirty[dense] = true;
            self.dirty_list.push(dense);
        }
    }

    /// Runs a recompute epoch — one waterfill over the live paths, each
    /// weighted by its live multiplicity — and resets the batch window.
    /// A no-op when nothing changed since the last flush.
    ///
    /// Rates published by [`rate`](Self::rate)/[`checksum`] are exact
    /// as of the last flush; callers comparing engines across batch
    /// sizes must flush both at the common checkpoint first.
    ///
    /// [`checksum`]: Self::checksum
    pub fn flush(&mut self) {
        self.pending = 0;
        if self.dirty_list.is_empty() {
            return;
        }
        let _timer = timers::CHURN_EPOCH.scope();
        let _span = clos_telemetry::span("churn.epoch");
        counters::CHURN_EPOCHS.incr();
        counters::CHURN_DIRTY_LINKS.add(self.dirty_list.len() as u64);
        self.stats.epochs += 1;
        self.stats.dirty_links += self.dirty_list.len() as u64;
        for &d in &self.dirty_list {
            self.dirty[d] = false;
        }
        self.dirty_list.clear();

        // The description is current: apply kept every live path's
        // multiplicity, and the run leaves each path's rate and
        // bottleneck in place, where accessors read them.
        self.instance.run(&mut self.scratch);
        {
            let _write_back = clos_telemetry::span("churn.write_back");
            // Every other live slot already shows its current path.
            for &slot in &self.touched {
                let s = &mut self.slots[slot as usize];
                s.shown = s.path;
            }
            self.touched.clear();
        }

        let paths = self.scratch.live_entries() as u64;
        counters::CHURN_RECOMPUTED_FLOWS.add(self.live as u64);
        counters::CHURN_RECOMPUTED_PATHS.add(paths);
        self.stats.recomputed_flows += self.live as u64;
        self.stats.recomputed_paths += paths;

        if self.cfg.verify {
            let _verify = clos_telemetry::span("churn.verify");
            self.check_against_oracle();
        }
    }

    /// Full-recompute oracle check (the `verify` flag): a fresh run
    /// pushing every live flow separately must agree bit for bit.
    fn check_against_oracle(&mut self) {
        self.oracle_scratch.begin();
        for si in 0..self.slots.len() {
            let path = self.slots[si].path;
            if path != NO_PATH {
                self.oracle_scratch
                    .push_flow(self.scratch.entry_links(path as usize));
            }
        }
        self.instance.run(&mut self.oracle_scratch);
        let rates = self.oracle_scratch.rates();
        let bottlenecks = self.oracle_scratch.bottlenecks();
        let live = self.slots.iter().filter(|s| s.path != NO_PATH);
        for (i, slot) in live.enumerate() {
            let (rate, bottleneck) = self.published(slot);
            assert!(
                rate == rates[i],
                "path-class rate diverged from the oracle for key {}",
                slot.key
            );
            assert!(
                bottleneck == bottlenecks[i],
                "path-class bottleneck diverged from the oracle for key {}",
                slot.key
            );
        }
        // Raw round levels can contain floating-point duplicates (see
        // `levels`); normalize both sides to the sorted deduplicated
        // sequence, which is exact in every scalar mode.
        let mut oracle_levels = self.oracle_scratch.levels().to_vec();
        oracle_levels.sort_unstable();
        oracle_levels.dedup();
        assert!(
            self.levels() == oracle_levels,
            "path-class levels diverged from the oracle"
        );
    }

    /// Applies a failure overlay (see [`clos_net::failure`]): changed
    /// links take their new capacities — identifiers and dense indices
    /// stay stable, a dead link being a live link of zero capacity —
    /// and the waterfill instance is recompiled, so the next
    /// [`flush`](Self::flush) recomputes under the new capacities. A
    /// no-op when the overlay changes nothing.
    ///
    /// Placed flows are *not* moved — that is
    /// [`reroute_failed`](Self::reroute_failed)'s job. A flow crossing
    /// a zeroed link recomputes to rate zero at the next flush.
    pub fn apply_failure(&mut self, overlay: &CapacityMap) {
        let changed: Vec<LinkId> = overlay
            .iter()
            .filter(|&(&link, &cap)| self.fabric.network().link(link).capacity() != cap)
            .map(|(&link, _)| link)
            .collect();
        if changed.is_empty() {
            return;
        }
        counters::FAILURE_EVENTS.incr();
        counters::FAILURE_LINKS_DEGRADED.add(changed.len() as u64);
        self.stats.failures += 1;
        self.stats.degraded_links += changed.len() as u64;
        self.fabric = self.fabric.with_capacities(overlay);
        let instance = WaterfillInstance::<S>::compile(self.fabric.network());
        debug_assert_eq!(
            instance.link_ids(),
            self.instance.link_ids(),
            "failure overlays must keep the dense link order stable"
        );
        self.instance = instance;
        for link in changed {
            let Some(d) = self.instance.dense_index(link) else {
                unreachable!("failure overlays keep every link finite")
            };
            self.mark_dirty(d);
        }
    }

    /// Sweeps every live flow crossing a zero-capacity link and moves
    /// it, via the randomized local fast-reroute `policy`, onto a
    /// routing class whose interior links *all* survive. A flow with a
    /// dead host access link or no surviving class is left in place as
    /// *stuck* — its max-min rate is zero and no reroute (local or
    /// global) can change that. A moved flow keeps its published rate
    /// until the next flush.
    ///
    /// The sweep runs in ascending slot order — a deterministic
    /// function of the event prefix — so the outcome depends only on
    /// engine state and the policy's seed. Call
    /// [`flush`](Self::flush) afterwards to publish recomputed rates.
    pub fn reroute_failed(&mut self, policy: &mut LocalReroute) -> RerouteOutcome {
        let n = self.classes;
        let mut outcome = RerouteOutcome::default();
        let mut candidates: Vec<usize> = Vec::with_capacity(n);
        for slot in 0..self.slots.len() {
            let path = self.slots[slot].path;
            if path == NO_PATH {
                continue;
            }
            let dead = |d: &usize| self.instance.capacity(*d).is_zero();
            let links = self.links_of(path);
            if !links.iter().any(dead) {
                continue;
            }
            // Host access links are shared by every class choice: if
            // one is dead, no detour exists.
            let host_dead = dead(&links[0]) || dead(&links[links.len() - 1]);
            let first = path - self.paths[path as usize].class;
            candidates.clear();
            if !host_dead {
                candidates.extend(
                    (0..n).filter(|&class| !self.interior(first + class as u32).iter().any(dead)),
                );
            }
            if candidates.is_empty() {
                outcome.stuck += 1;
            } else {
                let moved = first + policy.pick(&candidates) as u32;
                self.leave(path);
                self.join(moved);
                self.slots[slot].path = moved;
                self.touched.push(slot as u32);
                outcome.moved += 1;
            }
        }
        counters::REROUTE_FLOWS.add(outcome.moved);
        counters::REROUTE_DEAD_ENDS.add(outcome.stuck);
        self.stats.rerouted_flows += outcome.moved;
        self.stats.reroute_dead_ends += outcome.stuck;
        outcome
    }

    /// Number of live flows.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Events applied since the last flush.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The engine's topology.
    #[must_use]
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// The routing policy's short name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> RecomputeStats {
        self.stats
    }

    /// The live slot of `key`, if any.
    fn slot(&self, key: FlowKey) -> Option<&Slot> {
        let slot = *self.slot_of_key.get(key as usize)?;
        (slot != NO_SLOT).then(|| &self.slots[slot as usize])
    }

    /// A live slot's published rate and bottleneck (dense index): its
    /// shown path's as of the last flush, or, if it arrived since, rate
    /// zero on its first link (the source's access link, which every
    /// class of the flow shares).
    fn published(&self, slot: &Slot) -> (S, usize) {
        if slot.shown == NO_PATH {
            (S::zero(), self.links_of(slot.path)[0])
        } else {
            let entry = slot.shown as usize;
            (
                self.scratch.rates()[entry],
                self.scratch.bottlenecks()[entry],
            )
        }
    }

    /// The rate of the live flow with `key` as of the last flush, or
    /// `None` if no live flow has that key.
    #[must_use]
    pub fn rate(&self, key: FlowKey) -> Option<S> {
        self.slot(key).map(|s| self.published(s).0)
    }

    /// The endpoints of the live flow with `key`, or `None` if no live
    /// flow has that key.
    #[must_use]
    pub fn flow(&self, key: FlowKey) -> Option<Flow> {
        self.slot(key).map(|s| self.paths[s.path as usize].flow)
    }

    /// The routing class the live flow with `key` was placed on (on a
    /// Clos fabric, the middle-switch index), or `None` if no live flow
    /// has that key. Placement is final for the flow's lifetime
    /// (unsplittable flows are never moved) except through
    /// [`reroute_failed`](Self::reroute_failed).
    #[must_use]
    pub fn class_of(&self, key: FlowKey) -> Option<usize> {
        self.slot(key)
            .map(|s| self.paths[s.path as usize].class as usize)
    }

    /// The bottleneck link of the live flow with `key` as of the last
    /// flush.
    #[must_use]
    pub fn bottleneck(&self, key: FlowKey) -> Option<LinkId> {
        self.slot(key)
            .map(|s| self.instance.link_id(self.published(s).1))
    }

    /// Iterates over `(key, rate)` of every live flow in slot order (a
    /// deterministic function of the event prefix, independent of the
    /// batch size).
    pub fn live_flows(&self) -> impl Iterator<Item = (FlowKey, S)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.path != NO_PATH)
            .map(|s| (s.key, self.published(s).0))
    }

    /// The global fill levels as of the last flush: the sorted,
    /// deduplicated live rates. Every round level freezes at least one
    /// flow at that rate and every rate is its freezing round's level,
    /// so this equals the sorted deduplication of a fresh full run's
    /// `levels()` in every scalar mode — and the raw sequence itself
    /// under exact rationals, where round levels strictly increase.
    /// (Under `TotalF64`, rounding can make a recomputed link level
    /// land exactly back on the previous round's level, so a fresh
    /// run's raw sequence may contain duplicates.)
    #[must_use]
    pub fn levels(&self) -> Vec<S> {
        let mut levels: Vec<S> = self.live_flows().map(|(_, rate)| rate).collect();
        levels.sort_unstable();
        levels.dedup();
        levels
    }

    /// FNV-1a digest of the live allocation (keys and rate bits in slot
    /// order, plus the live count) as of the last flush. Engines fed
    /// the same trace agree at every common flushed checkpoint
    /// regardless of batch size; CI byte-diffs these across batches.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (key, rate) in self.live_flows() {
            fold(key);
            fold(rate.to_f64().to_bits());
        }
        fold(self.live as u64);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::BenesNetwork;
    use clos_rational::TotalF64;

    fn engine(n: usize, batch: usize, verify: bool) -> ChurnEngine<Rational> {
        ChurnEngine::new(
            ClosNetwork::standard(n),
            OnlinePolicy::greedy(),
            ChurnConfig { batch, verify },
        )
    }

    #[test]
    fn single_flow_gets_full_rate_and_departs_cleanly() {
        let mut e = engine(2, 1, true);
        let flow = Flow::new(e.fabric().source(0, 0), e.fabric().destination(2, 0));
        e.apply(FlowEvent::Arrive { key: 0, flow });
        assert_eq!(e.rate(0), Some(Rational::ONE));
        assert_eq!(e.flow(0), Some(flow));
        assert!(e.bottleneck(0).is_some());
        assert_eq!(e.levels(), vec![Rational::ONE]);
        e.apply(FlowEvent::Depart { key: 0 });
        assert_eq!(e.live(), 0);
        assert_eq!(e.rate(0), None);
        assert_eq!(e.levels(), vec![]);
        assert_eq!(e.stats().epochs, 2);
    }

    #[test]
    fn batching_defers_recompute_until_flush() {
        let mut e = engine(2, 100, false);
        let clos = e.fabric().clone();
        for k in 0..4 {
            let flow = Flow::new(
                clos.source(k % 2, (k / 2) % 2),
                clos.destination(2 + k % 2, 0),
            );
            e.apply(FlowEvent::Arrive {
                key: k as u64,
                flow,
            });
        }
        assert_eq!(e.stats().epochs, 0);
        assert_eq!(e.pending(), 4);
        e.flush();
        assert_eq!(e.stats().epochs, 1);
        assert_eq!(e.pending(), 0);
        assert!(e.live_flows().all(|(_, r)| r.is_positive()));
    }

    /// Flows with the same endpoints and class share one waterfill
    /// entry, and accessors publish the allocation as of the last flush:
    /// an arrival reads rate zero (bottlenecked on its first link) until
    /// then, and a rerouted flow keeps its old path's rate and bottleneck.
    #[test]
    fn path_classes_share_entries_and_publish_at_flush() {
        let mut e = engine(2, 100, true);
        let clos = e.fabric().clone();
        let x = Flow::new(clos.source(0, 0), clos.destination(2, 0));
        let y = Flow::new(clos.source(0, 1), clos.destination(2, 1));
        // Greedy places x, x, y, y, y on middles 0, 1, 0, 1, 0: four
        // paths for five flows.
        for (key, flow) in [x, x, y, y, y].into_iter().enumerate() {
            e.apply(FlowEvent::Arrive {
                key: key as u64,
                flow,
            });
        }
        e.flush();
        assert_eq!(e.stats().recomputed_flows, 5);
        assert_eq!(e.stats().recomputed_paths, 4);
        assert_eq!(e.stats().reused_flows, 0);
        let (third, two_thirds) = (Rational::new(1, 3), Rational::new(2, 3));
        assert_eq!(e.class_of(0), Some(0));
        assert_eq!(e.rate(0), Some(third));
        assert_eq!(e.class_of(1), Some(1));
        assert_eq!(e.rate(1), Some(two_thirds));
        let (b0, b1) = (e.bottleneck(0), e.bottleneck(1));
        assert_ne!(b0, b1);

        // An arrival since the flush reads rate zero on its first link;
        // the others keep their published rates.
        e.apply(FlowEvent::Arrive { key: 5, flow: x });
        assert_eq!(e.class_of(5), Some(1));
        assert_eq!(e.rate(5), Some(Rational::ZERO));
        assert_eq!(e.bottleneck(5), Some(clos.host_uplink(0, 0)));
        assert_eq!(e.rate(1), Some(two_thirds));
        assert_eq!(e.levels(), vec![Rational::ZERO, third, two_thirds]);

        // Kill middle 0's uplink and reroute: flow 0 reports its new
        // middle at once, but its old path's rate and bottleneck (not
        // those of flow 1, which shares its new path) until the flush.
        let mut overlay = clos_net::CapacityMap::new();
        overlay.insert(
            clos.uplink(0, 0),
            clos_net::Capacity::finite_value(Rational::ZERO),
        );
        e.apply_failure(&overlay);
        let outcome = e.reroute_failed(&mut LocalReroute::new(5));
        assert_eq!(outcome.moved, 3);
        assert_eq!(e.class_of(0), Some(1));
        assert_eq!(e.rate(0), Some(third));
        assert_eq!(e.bottleneck(0), b0);
        e.flush();
        assert!(e.live_flows().all(|(_, r)| r == Rational::new(1, 6)));
        assert_eq!(e.stats().recomputed_flows, 11);
        assert_eq!(e.stats().recomputed_paths, 6);
    }

    #[test]
    fn checksum_is_batch_independent_at_common_checkpoints() {
        let clos = ClosNetwork::standard(2);
        let trace: Vec<FlowEvent> = {
            let cfg = crate::trace::TraceConfig {
                arrival_rate_per_sec: 1_000_000,
                lifetime: crate::trace::SizeDist::Exponential { mean_ns: 20_000 },
                pattern: crate::trace::Pattern::Uniform,
                events: 200,
                seed: 11,
            };
            crate::trace::TraceGenerator::new(&clos, &cfg)
                .map(|t| t.event)
                .collect()
        };
        let mut small = ChurnEngine::<TotalF64>::new(
            clos.clone(),
            OnlinePolicy::first_fit(),
            ChurnConfig {
                batch: 3,
                verify: false,
            },
        );
        let mut large = ChurnEngine::<TotalF64>::new(
            clos,
            OnlinePolicy::first_fit(),
            ChurnConfig {
                batch: 64,
                verify: false,
            },
        );
        for (i, &ev) in trace.iter().enumerate() {
            small.apply(ev);
            large.apply(ev);
            if (i + 1) % 50 == 0 {
                small.flush();
                large.flush();
                assert_eq!(small.checksum(), large.checksum());
                assert_eq!(small.levels(), large.levels());
            }
        }
    }

    /// The engine makes no 4-link/4-layer assumption: a Benes fabric of
    /// order 3 has 6-link paths and 4 routing classes, and the verify
    /// oracle pins the path-class allocation bit for bit across an
    /// arrive/depart mix that reuses slots.
    #[test]
    fn benes_six_link_paths_match_oracle() {
        let benes = BenesNetwork::standard(3);
        assert_eq!(benes.max_path_len(), 6);
        assert_eq!(benes.class_count(), 4);
        let terminals = benes.terminal_count();
        let mut e = ChurnEngine::<Rational, BenesNetwork>::new(
            benes.clone(),
            OnlinePolicy::greedy(),
            ChurnConfig {
                batch: 1,
                verify: true,
            },
        );
        // A full permutation load: terminal t -> terminal (t + 3) mod 8.
        for t in 0..terminals {
            let flow = Flow::new(benes.source(t), benes.destination((t + 3) % terminals));
            e.apply(FlowEvent::Arrive {
                key: t as u64,
                flow,
            });
        }
        assert_eq!(e.live(), terminals);
        for t in 0..terminals {
            let class = e.class_of(t as u64).expect("live flow has a placement");
            assert!(class < 4);
            assert!(e.rate(t as u64).expect("rate published").is_positive());
        }
        // Depart half (emptying some paths of their flows), then
        // re-arrive onto reused slots.
        for t in (0..terminals).step_by(2) {
            e.apply(FlowEvent::Depart { key: t as u64 });
        }
        assert_eq!(e.live(), terminals / 2);
        for t in (0..terminals).step_by(2) {
            let flow = Flow::new(benes.source(t), benes.destination((t + 5) % terminals));
            e.apply(FlowEvent::Arrive {
                key: (terminals + t) as u64,
                flow,
            });
        }
        assert_eq!(e.live(), terminals);
        // Every epoch above ran with verify=true; a final flush after a
        // batched tail double-checks the steady state.
        e.flush();
    }

    #[test]
    #[should_panic(expected = "duplicate arrival")]
    fn duplicate_arrival_panics() {
        let mut e = engine(2, 100, false);
        let flow = Flow::new(e.fabric().source(0, 0), e.fabric().destination(2, 0));
        e.apply(FlowEvent::Arrive { key: 0, flow });
        e.apply(FlowEvent::Arrive { key: 0, flow });
    }

    #[test]
    #[should_panic(expected = "no live flow")]
    fn unknown_departure_panics() {
        let mut e = engine(2, 100, false);
        e.apply(FlowEvent::Depart { key: 5 });
    }
}
