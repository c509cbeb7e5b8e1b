//! Compiled water-filling: a per-network instance plus a reusable scratch.
//!
//! [`max_min_fair`] rebuilds every table — the dense finite-link index,
//! the per-link member lists, the frozen/active bookkeeping — from scratch
//! on each call. That is fine for one-shot allocations, but the exhaustive
//! routing searches evaluate *thousands* of routings against the same
//! network, and the rebuild dominates their wall-clock. This module splits
//! the allocator into the two halves that actually have different
//! lifetimes:
//!
//! * [`WaterfillInstance`] — everything that depends only on the network:
//!   the dense table of finite links and their capacities. Compiled once.
//! * [`WaterfillScratch`] — everything that depends on the routing: the
//!   description (per-entry link lists and multiplicities, per-link member
//!   lists and flow counts, all kept current as entries are pushed or
//!   change multiplicity) and the run's rates and frozen/active state,
//!   held in buffers that are *cleared, never reallocated* between runs.
//!
//! [`WaterfillInstance::run`] is the workspace's one progressive-filling
//! loop, and it performs **zero heap allocations** once the scratch has
//! warmed up to the instance size. The public
//! [`max_min_fair`]/[`max_min_fair_traced`]/[`max_min_fair_weighted`]
//! functions are thin compile-then-run wrappers over it.
//!
//! # The round loop
//!
//! The run starts from the description's member lists and flow counts as
//! they stand (nothing is sorted or rebuilt per run). Each round costs one
//! pass over the links that still carry unfrozen flows, not two passes
//! over every link. The run keeps those links in an ascending list
//! (compacted only on rounds that empty a link) and caches every link's
//! saturation level, refreshing it right after a round's update pass
//! touches the link. One scan then finds the minimum level and the links
//! at it, in ascending order, and the round freezes from that list. Bottleneck order, the frozen-load sums (counted, see below), and
//! the divisions are those of textbook progressive filling — every round
//! recomputes every level and makes two full passes in link order — so
//! rates, levels, and bottlenecks are bit-identical to it in every scalar
//! mode. The `compiled_equivalence` test suite checks that against a
//! plain reference implementation.
//!
//! An unweighted run does not depend on the order of the member lists: a
//! round visits the links at its level in ascending order, so an entry's
//! bottleneck is its first such link whichever member reaches it first,
//! and the round's frozen-load adds are counted per link (see below), so
//! the order in which entries freeze within a round changes no sum.
//!
//! # Multiplicities
//!
//! [`WaterfillScratch::push_flows`] describes `m` flows with one link set
//! as a single entry. Identical flows are members of exactly the same
//! links, so they freeze in the same round, on the same first saturating
//! link, at the same level. The run therefore counts the entry `m` times
//! in every link's active count. Textbook filling then adds the round's
//! level to a link's frozen load once per flow that froze across it; all
//! those adds are the same value, so only their number matters. The
//! update pass counts them per link, and the refresh makes them in one
//! [`Scalar::add_repeated`] call, which returns exactly what the chain of
//! single adds would. A round therefore costs one operation per touched
//! link, not per frozen flow. Rates, levels, and bottlenecks are
//! bit-identical to pushing the `m` flows one by one, in any order, in
//! every scalar mode.
//!
//! [`WaterfillScratch::set_multiplicity`] changes an entry's multiplicity
//! in place: its links' flow counts move by the difference, and an entry
//! that loses its last flow leaves its links' member lists (swap-removed)
//! and rejoins them at the end when it regains one. An entry of
//! multiplicity zero is described but absent: the run skips it and leaves
//! its rate and bottleneck as the last run that filled it set them. A
//! caller whose flows churn (the churn engine) therefore keeps one
//! description for good and changes only the entries whose multiplicity
//! changed, and a run costs nothing per absent entry.
//!
//! # Weights
//!
//! [`WaterfillScratch::push_weighted_flow`] gives an entry a weight `w`
//! ([`max_min_fair_weighted`]). A link's level is then its residual
//! capacity divided by the summed weights of its unfrozen flows; an entry
//! freezes at rate `w · level`, added once to each of its links' frozen
//! load in the update pass, since those adds differ from flow to flow.
//! Without weighted entries the weight vector stays empty and the
//! unweighted arithmetic runs unchanged; a multiplicity-`m` entry in a
//! weighted run counts as `m` flows of unit weight. Those per-flow sums
//! depend on member order, which is push order until an entry is removed,
//! so a weighted description is built by pushes alone (removing one of
//! its entries panics).
//!
//! # The scratch-reuse contract
//!
//! Between `run`s the description changes only through
//! [`WaterfillScratch::begin`] (which empties it), the push calls (which
//! append entries), and [`WaterfillScratch::set_multiplicity`]; each keeps
//! the member lists and flow counts current, and all of them reuse the
//! buffers' existing capacity. A run reads the description and leaves it
//! as it was, so a description may be run, changed, and run again. A warm
//! run (the scratch has run at least once before) is counted in the
//! `waterfill.scratch_reuse` telemetry counter, and allocates only if the
//! new description is *larger* than anything the scratch has seen —
//! steady-state loops over a fixed instance therefore touch the allocator
//! exactly never (asserted by `bench_search`'s counting allocator).
//!
//! [`max_min_fair`]: crate::max_min_fair
//! [`max_min_fair_traced`]: crate::max_min_fair_traced
//! [`max_min_fair_weighted`]: crate::max_min_fair_weighted

use clos_net::{LinkId, Network};
use clos_rational::Scalar;
use clos_telemetry::{counters, timers};

/// The network-dependent half of water-filling: the dense table of finite
/// links (only those can bottleneck a flow), compiled once and shared by
/// every run against the same network.
///
/// # Examples
///
/// ```
/// use clos_fairness::{WaterfillInstance, WaterfillScratch};
/// use clos_net::{ClosNetwork, Flow};
/// use clos_rational::Rational;
///
/// let clos = ClosNetwork::standard(2);
/// let flow = Flow::new(clos.source(0, 0), clos.destination(2, 0));
/// let instance = WaterfillInstance::<Rational>::compile(clos.network());
/// let mut scratch = WaterfillScratch::new();
/// scratch.begin();
/// let links: Vec<usize> = clos
///     .path_via(flow, 0)
///     .links()
///     .iter()
///     .filter_map(|&l| instance.dense_index(l))
///     .collect();
/// scratch.push_flow(&links);
/// instance.run(&mut scratch);
/// assert_eq!(scratch.rates(), &[Rational::ONE]);
/// ```
#[derive(Clone, Debug)]
pub struct WaterfillInstance<S> {
    /// Raw link index -> dense finite-link index, if compiled in.
    dense_of_link: Vec<Option<usize>>,
    /// Dense index -> original link id.
    link_ids: Vec<LinkId>,
    /// Dense index -> capacity.
    capacities: Vec<S>,
}

impl<S: Scalar> WaterfillInstance<S> {
    /// Compiles every finite link of `net`, in network link order.
    #[must_use]
    pub fn compile(net: &Network) -> WaterfillInstance<S> {
        let mut instance = WaterfillInstance {
            dense_of_link: vec![None; net.link_count()],
            link_ids: Vec::with_capacity(net.link_count()),
            capacities: Vec::with_capacity(net.link_count()),
        };
        for link in net.links() {
            if let Some(cap) = link.capacity().finite() {
                instance.dense_of_link[link.id().index()] = Some(instance.link_ids.len());
                instance.link_ids.push(link.id());
                instance.capacities.push(S::from_rational(cap));
            }
        }
        instance
    }

    /// Compiles only the given subset of `net`'s links (duplicates and
    /// infinite links are dropped), still in network link order — so a
    /// run over the subset freezes flows in exactly the order a full
    /// compile would, provided every flow's links lie in the subset.
    ///
    /// # Panics
    ///
    /// Panics if a link id is out of range for `net`.
    #[must_use]
    pub fn compile_subset(net: &Network, links: &[LinkId]) -> WaterfillInstance<S> {
        let mut keep = vec![false; net.link_count()];
        for &l in links {
            assert!(l.index() < net.link_count(), "link outside the network");
            keep[l.index()] = true;
        }
        let mut instance = WaterfillInstance {
            dense_of_link: vec![None; net.link_count()],
            link_ids: Vec::new(),
            capacities: Vec::new(),
        };
        for link in net.links() {
            if !keep[link.id().index()] {
                continue;
            }
            if let Some(cap) = link.capacity().finite() {
                instance.dense_of_link[link.id().index()] = Some(instance.link_ids.len());
                instance.link_ids.push(link.id());
                instance.capacities.push(S::from_rational(cap));
            }
        }
        instance
    }

    /// Returns the dense index of `link`, or `None` if it is infinite,
    /// outside the compiled subset, or outside the network.
    #[must_use]
    pub fn dense_index(&self, link: LinkId) -> Option<usize> {
        self.dense_of_link.get(link.index()).copied().flatten()
    }

    /// Returns the original id of the dense link `dense`.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is out of range.
    #[must_use]
    pub fn link_id(&self, dense: usize) -> LinkId {
        self.link_ids[dense]
    }

    /// Number of compiled (finite) links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.link_ids.len()
    }

    /// Returns the original ids of every compiled link, in dense order
    /// (callers holding dense indices across a recompile compare these
    /// to check that the dense layout stayed stable).
    #[must_use]
    pub fn link_ids(&self) -> &[LinkId] {
        &self.link_ids
    }

    /// Returns the capacity of the dense link `dense`.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is out of range.
    #[must_use]
    pub fn capacity(&self, dense: usize) -> S {
        self.capacities[dense]
    }

    /// Water-fills the flow collection described in `scratch` (via
    /// [`WaterfillScratch::begin`]/[`WaterfillScratch::push_flow`] and
    /// their kin), leaving rates, fill levels, and bottlenecks readable
    /// from the scratch and the description unchanged. Rates, levels, and bottlenecks are bit-identical to
    /// textbook progressive filling in every scalar mode (see the module
    /// docs' round loop and the `compiled_equivalence` reference test);
    /// after one warm-up run per instance size it performs no heap
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if some described flow crosses no compiled link — such a
    /// flow would fill forever. Callers that cannot rule this out belong
    /// on the [`max_min_fair`](crate::max_min_fair) wrapper, which reports
    /// [`FairnessError::UnboundedRate`](crate::FairnessError) instead.
    pub fn run(&self, scratch: &mut WaterfillScratch<S>) {
        let _timer = timers::WATERFILL.scope();
        let _span = clos_telemetry::span("waterfill");
        counters::WATERFILL_CALLS.incr();
        if scratch.warm {
            counters::WATERFILL_SCRATCH_REUSE.incr();
        } else {
            scratch.warm = true;
        }
        let s = scratch;
        let flows = s.flow_count();
        let links = self.capacities.len();
        s.grow_links(links);

        // The description keeps every link's member list and flow count
        // current; the run only copies the counts it consumes.
        s.active_count.clear();
        s.active_count.extend_from_slice(&s.link_flows[..links]);
        // Weighted runs fill a link by the summed weights of its active
        // flows instead of their count (entries pushed without a weight
        // after the last weighted one have unit weight). Members are in
        // push order, so each link sums its weights in entry order.
        let multiplied = !s.multiplicity.is_empty();
        let weighted = !s.weights.is_empty();
        if weighted {
            s.weights.resize(flows, S::one());
            s.active_weight.clear();
            s.active_weight.resize(links, S::zero());
            for d in 0..links {
                for &f in &s.members[d] {
                    let f = f as usize;
                    let m = if multiplied { s.multiplicity[f] } else { 1 };
                    for _ in 0..m {
                        s.active_weight[d] += s.weights[f];
                    }
                }
            }
        }

        // Results of zero-multiplicity entries are left as they were, so
        // only entries described since the last run are initialized.
        s.rates.resize(flows, S::zero());
        s.bottleneck_of.resize(flows, 0);
        s.frozen.resize(flows, false);
        s.frozen_order.clear();
        s.frozen_order.reserve(s.live);
        s.frozen_load.clear();
        s.frozen_load.resize(links, S::zero());
        s.frozen_adds.clear();
        s.frozen_adds.resize(links, 0);
        s.levels.clear();
        s.levels.reserve(s.live);
        s.active_links.clear();
        s.active_links.reserve(links);
        s.at_minimum.clear();
        s.at_minimum.reserve(links);
        s.touched.clear();
        s.touched.reserve(links);
        // Every link's level is cached; a round refreshes only the links
        // its update pass touched. A link's inputs change only there, so
        // the cached value is the one a recomputation would produce and
        // the divisions drop from links-per-round to touched-links.
        s.link_level.clear();
        s.link_level.resize(links, S::zero());
        s.stale.clear();
        s.stale.resize(links, false);
        for d in 0..links {
            if s.active_count[d] > 0 {
                s.link_level[d] = self.level(s, d, weighted);
                s.active_links.push(d);
            }
        }
        let mut remaining = s.live;

        while remaining > 0 {
            // One scan over the links that still carry unfrozen flows
            // finds the minimum level and the links at it, ascending.
            // Every unfrozen flow touches a compiled link (the caller
            // contract), so while `remaining > 0` the list is not empty.
            let mut min_level: Option<S> = None;
            s.at_minimum.clear();
            for &d in &s.active_links {
                let l = s.link_level[d];
                match min_level {
                    Some(m) if l > m => {}
                    Some(m) if l == m => s.at_minimum.push(d),
                    _ => {
                        min_level = Some(l);
                        s.at_minimum.clear();
                        s.at_minimum.push(d);
                    }
                }
            }
            let level =
                min_level.expect("invariant: unfrozen flows always touch a compiled finite link");

            // Freeze every active flow on every link saturating at
            // `level`. Links are visited in ascending order, so an entry's
            // bottleneck is its first at-minimum link whatever the order
            // of the member lists.
            let round_start = s.frozen_order.len();
            for &d in &s.at_minimum {
                counters::WATERFILL_SATURATIONS.incr();
                for &f in &s.members[d] {
                    let f = f as usize;
                    if !s.frozen[f] {
                        s.frozen[f] = true;
                        s.rates[f] = if weighted {
                            s.weights[f] * level
                        } else {
                            level
                        };
                        s.bottleneck_of[f] = d;
                        s.frozen_order.push(f);
                    }
                }
            }
            debug_assert!(s.frozen_order.len() > round_start, "progress each round");
            counters::WATERFILL_ROUNDS.incr();
            s.levels.push(level);
            for i in round_start..s.frozen_order.len() {
                let f = s.frozen_order[i];
                let m = if multiplied { s.multiplicity[f] } else { 1 };
                for k in s.flow_starts[f]..s.flow_starts[f + 1] {
                    let d = s.flow_links[k];
                    s.active_count[d] -= m;
                    // Unweighted, every add of the round is `level`: count
                    // them, and the refresh below adds them in one call
                    // (so the order of the round's frozen entries does not
                    // matter). Weighted rates differ per flow, so add them
                    // here, in member order.
                    if weighted {
                        for _ in 0..m {
                            s.frozen_load[d] += s.rates[f];
                            s.active_weight[d] -= s.weights[f];
                        }
                    } else {
                        s.frozen_adds[d] += m;
                    }
                    if !s.stale[d] {
                        s.stale[d] = true;
                        s.touched.push(d);
                    }
                }
            }
            remaining -= s.frozen_order.len() - round_start;
            // Commit the counted adds and refresh the touched links'
            // levels; drop emptied links from the active list (in place,
            // keeping it ascending). An emptied link's load is never
            // read again, so its last adds are skipped.
            let mut emptied = false;
            for i in 0..s.touched.len() {
                let d = s.touched[i];
                s.stale[d] = false;
                if s.active_count[d] > 0 {
                    let adds = std::mem::take(&mut s.frozen_adds[d]);
                    s.frozen_load[d] = s.frozen_load[d].add_repeated(level, adds);
                    s.link_level[d] = self.level(s, d, weighted);
                } else {
                    emptied = true;
                }
            }
            s.touched.clear();
            if emptied {
                let active_count = &s.active_count;
                s.active_links.retain(|&d| active_count[d] > 0);
            }
        }
        // Every live entry froze; clear the flags for the next run.
        for i in 0..s.frozen_order.len() {
            let f = s.frozen_order[i];
            s.frozen[f] = false;
        }
    }

    /// Link `d`'s residual capacity per unit of active weight (per active
    /// flow when unweighted) — the fill level at which it saturates if no
    /// other link freezes its members first.
    fn level(&self, s: &WaterfillScratch<S>, d: usize, weighted: bool) -> S {
        let (cap, load) = (self.capacities[d], s.frozen_load[d]);
        let residual = if cap > load { cap - load } else { S::zero() };
        let active = if weighted {
            s.active_weight[d]
        } else {
            S::from_usize(s.active_count[d])
        };
        residual / active
    }
}

/// The routing-dependent half of water-filling: the flow description
/// (entries, their links and multiplicities, and every link's member list
/// and flow count, kept current as the description changes) plus every
/// buffer the iteration needs, reused run to run (see the module docs for
/// the scratch-reuse contract).
#[derive(Clone, Debug)]
pub struct WaterfillScratch<S> {
    /// Dense link indices of every entry, concatenated (a CSR layout with
    /// `flow_starts`). Duplicate entries count double, exactly like a
    /// path crossing the same link twice.
    flow_links: Vec<usize>,
    /// `flow_links[flow_starts[i]..flow_starts[i + 1]]` are entry `i`'s.
    flow_starts: Vec<usize>,
    /// Per-entry count of identical flows the entry stands for (zero for
    /// an entry that is described but absent); empty while every entry
    /// is a single flow, so unit pushes cost nothing.
    multiplicity: Vec<usize>,
    /// Per-entry weight; empty while every entry has unit weight, and
    /// shorter than the entry list when unit entries follow the last
    /// weighted one (the run pads it with ones).
    weights: Vec<S>,
    /// Per-link member list: the entry of every slot of `flow_links` on
    /// the link whose entry has a nonzero multiplicity (an entry crossing
    /// the link twice is listed twice). Push order until an entry loses
    /// its last flow, which swap-removes it.
    members: Vec<Vec<u32>>,
    /// Per-link flow count: the summed multiplicities of its members.
    link_flows: Vec<usize>,
    /// Number of entries with a nonzero multiplicity.
    live: usize,
    /// Per-entry rate (the result).
    rates: Vec<S>,
    /// Per-entry frozen flag (all clear between runs).
    frozen: Vec<bool>,
    /// Entries in freezing order; the current round's are a suffix.
    frozen_order: Vec<usize>,
    /// Per-link count of unfrozen member flows.
    active_count: Vec<usize>,
    /// Per-link summed weight of unfrozen member flows (weighted runs).
    active_weight: Vec<S>,
    /// Per-link load already committed by frozen flows (as of the
    /// last refresh; an emptied link's stops there).
    frozen_load: Vec<S>,
    /// Per-link count of `level` adds the current round's update pass
    /// owes `frozen_load` (unweighted runs).
    frozen_adds: Vec<usize>,
    /// Cached per-link saturation level of every active link.
    link_level: Vec<S>,
    /// Per-link flag: the current round's update pass touched the link
    /// (dedupes `touched`).
    stale: Vec<bool>,
    /// Links that still carry unfrozen flows, ascending.
    active_links: Vec<usize>,
    /// Active links at the current round's level, ascending.
    at_minimum: Vec<usize>,
    /// Links the current round's update pass touched, each once.
    touched: Vec<usize>,
    /// Fill level of each freezing round (the trace).
    levels: Vec<S>,
    /// Per-entry dense index of the link that froze it (the bottleneck).
    bottleneck_of: Vec<usize>,
    /// Whether this scratch has completed a run before (telemetry).
    warm: bool,
}

impl<S: Scalar> WaterfillScratch<S> {
    /// Creates an empty, cold scratch.
    #[must_use]
    pub fn new() -> WaterfillScratch<S> {
        WaterfillScratch {
            flow_links: Vec::new(),
            flow_starts: vec![0],
            multiplicity: Vec::new(),
            weights: Vec::new(),
            members: Vec::new(),
            link_flows: Vec::new(),
            live: 0,
            rates: Vec::new(),
            frozen: Vec::new(),
            frozen_order: Vec::new(),
            active_count: Vec::new(),
            active_weight: Vec::new(),
            frozen_load: Vec::new(),
            frozen_adds: Vec::new(),
            link_level: Vec::new(),
            stale: Vec::new(),
            active_links: Vec::new(),
            at_minimum: Vec::new(),
            touched: Vec::new(),
            levels: Vec::new(),
            bottleneck_of: Vec::new(),
            warm: false,
        }
    }

    /// Makes room for `flows` flow boundaries and `entries` link entries,
    /// so describing a collection of known size never regrows the flow
    /// tables.
    pub(crate) fn reserve(&mut self, flows: usize, entries: usize) {
        self.flow_starts.reserve(flows);
        self.flow_links.reserve(entries);
    }

    /// Starts describing a new flow collection (clears the previous one,
    /// keeping every buffer's capacity).
    pub fn begin(&mut self) {
        // Only the links of the previous description carry members.
        for &d in &self.flow_links {
            self.members[d].clear();
            self.link_flows[d] = 0;
        }
        self.flow_links.clear();
        self.flow_starts.clear();
        self.flow_starts.push(0);
        self.multiplicity.clear();
        self.weights.clear();
        self.live = 0;
    }

    /// Appends the next flow, crossing the given dense link indices (from
    /// [`WaterfillInstance::dense_index`]; duplicates count double).
    pub fn push_flow(&mut self, links: &[usize]) {
        self.push_flows(links, 1);
    }

    /// Appends `multiplicity` identical flows crossing `links` as one
    /// entry: the run gives the entry the rate and bottleneck each of
    /// those flows would get if pushed separately (see the module docs),
    /// and the result slices hold one element per entry. A multiplicity
    /// of zero describes the entry without any flow on it (it joins its
    /// links once [`Self::set_multiplicity`] gives it flows).
    pub fn push_flows(&mut self, links: &[usize], multiplicity: usize) {
        let entry = self.flow_count();
        // Member lists hold entry ids as `u32`.
        assert!(
            entry < u32::MAX as usize,
            "a description holds fewer than 2^32 entries"
        );
        self.flow_links.extend_from_slice(links);
        self.flow_starts.push(self.flow_links.len());
        if let Some(&last) = links.iter().max() {
            self.grow_links(last + 1);
        }
        if multiplicity != 1 || !self.multiplicity.is_empty() {
            // Every earlier entry is a single flow.
            self.multiplicity.resize(entry, 1);
            self.multiplicity.push(0);
            self.set_multiplicity(entry, multiplicity);
        } else {
            self.enlist(entry, 1);
        }
    }

    /// Appends one flow of weight `weight` crossing `links`: the run
    /// fills it at `weight` times the level of its links and gives its
    /// rate, so `weight` one reproduces [`Self::push_flow`] bit for bit
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not strictly positive.
    pub fn push_weighted_flow(&mut self, links: &[usize], weight: S) {
        assert!(weight > S::zero(), "weights must be strictly positive");
        // Every earlier entry without a weight has unit weight.
        self.weights.resize(self.flow_count(), S::one());
        self.weights.push(weight);
        self.push_flow(links);
    }

    /// Changes entry `entry`'s multiplicity to `multiplicity`, updating
    /// its links' flow counts, and their member lists when the entry
    /// gains its first flow or loses its last (a loss scans each of its
    /// links' lists for it). Zero leaves the entry described but absent:
    /// the run skips it and leaves its rate and bottleneck as the last
    /// run that saw it set them.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range, or if an entry of a weighted
    /// description loses its last flow (weighted runs read the member
    /// lists in push order, which removal would reorder).
    pub fn set_multiplicity(&mut self, entry: usize, multiplicity: usize) {
        if self.multiplicity.is_empty() {
            self.multiplicity.resize(self.flow_count(), 1);
        }
        let old = self.multiplicity[entry];
        self.multiplicity[entry] = multiplicity;
        if old == 0 && multiplicity > 0 {
            self.enlist(entry, multiplicity);
        } else if old > 0 && multiplicity == 0 {
            self.delist(entry, old);
        } else {
            for k in self.flow_starts[entry]..self.flow_starts[entry + 1] {
                let d = self.flow_links[k];
                self.link_flows[d] = self.link_flows[d] - old + multiplicity;
            }
        }
    }

    /// Appends entry `entry`, of multiplicity `m`, to its links' member
    /// lists and flow counts.
    fn enlist(&mut self, entry: usize, m: usize) {
        for k in self.flow_starts[entry]..self.flow_starts[entry + 1] {
            let d = self.flow_links[k];
            self.members[d].push(entry as u32);
            self.link_flows[d] += m;
        }
        self.live += 1;
    }

    /// Removes entry `entry`, of multiplicity `m`, from its links'
    /// member lists (one record per slot, found by a scan of the link's
    /// list and swap-removed) and flow counts.
    fn delist(&mut self, entry: usize, m: usize) {
        assert!(self.weights.is_empty(), "weighted entries keep their flows");
        for k in self.flow_starts[entry]..self.flow_starts[entry + 1] {
            let d = self.flow_links[k];
            let list = &mut self.members[d];
            let Some(pos) = list.iter().position(|&e| e as usize == entry) else {
                unreachable!("an entry with flows is a member of its links")
            };
            list.swap_remove(pos);
            self.link_flows[d] -= m;
        }
        self.live -= 1;
    }

    /// Grows the per-link tables to at least `links` links.
    fn grow_links(&mut self, links: usize) {
        if self.members.len() < links {
            self.members.resize_with(links, Default::default);
            self.link_flows.resize(links, 0);
        }
    }

    /// Number of entries described since the last [`Self::begin`] (one
    /// per push call), zero-multiplicity ones included.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.flow_starts.len() - 1
    }

    /// Number of entries with a nonzero multiplicity (the entries a run
    /// water-fills).
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Entry `entry`'s multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    #[must_use]
    pub fn multiplicity(&self, entry: usize) -> usize {
        assert!(entry < self.flow_count(), "entry out of range");
        self.multiplicity.get(entry).copied().unwrap_or(1)
    }

    /// Entry `entry`'s dense links, as pushed.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    #[must_use]
    pub fn entry_links(&self, entry: usize) -> &[usize] {
        &self.flow_links[self.flow_starts[entry]..self.flow_starts[entry + 1]]
    }

    /// Number of described flows crossing dense link `dense`: its
    /// entries' summed multiplicities (a link crossed twice by an entry
    /// counts it twice). Zero for links no entry crosses.
    #[must_use]
    pub fn link_flows(&self, dense: usize) -> usize {
        self.link_flows.get(dense).copied().unwrap_or(0)
    }

    /// Returns `true` if the last described flow crosses no link (its
    /// rate would be unbounded; see [`WaterfillInstance::run`]'s panic
    /// contract).
    #[must_use]
    pub fn last_flow_is_unbounded(&self) -> bool {
        let n = self.flow_starts.len();
        n >= 2 && self.flow_starts[n - 1] == self.flow_starts[n - 2]
    }

    /// Per-entry rates of the last run, in push order (one per entry
    /// described at that run; a zero-multiplicity entry keeps the rate of
    /// the last run that water-filled it, zero if none did).
    #[must_use]
    pub fn rates(&self) -> &[S] {
        &self.rates
    }

    /// Fill levels of the last run, in non-decreasing order.
    #[must_use]
    pub fn levels(&self) -> &[S] {
        &self.levels
    }

    /// Per-entry dense index of the bottleneck link of the last run (map
    /// back with [`WaterfillInstance::link_id`]; zero-multiplicity
    /// entries as for [`Self::rates`]).
    #[must_use]
    pub fn bottlenecks(&self) -> &[usize] {
        &self.bottleneck_of
    }
}

impl<S: Scalar> Default for WaterfillScratch<S> {
    fn default() -> WaterfillScratch<S> {
        WaterfillScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::{ClosNetwork, Flow, MacroSwitch, Routing};
    use clos_rational::Rational;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// Compiles the instance, pushes each path's finite links, runs.
    fn run_on(
        net: &Network,
        routing: &Routing,
        scratch: &mut WaterfillScratch<Rational>,
    ) -> WaterfillInstance<Rational> {
        let instance = WaterfillInstance::<Rational>::compile(net);
        scratch.begin();
        for path in routing.paths() {
            let links: Vec<usize> = path
                .links()
                .iter()
                .filter_map(|&l| instance.dense_index(l))
                .collect();
            scratch.push_flow(&links);
        }
        instance.run(scratch);
        instance
    }

    #[test]
    fn matches_the_wrapper_on_a_macro_switch() {
        let ms = MacroSwitch::standard(2);
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(0, 0), ms.destination(0, 1)),
            Flow::new(ms.source(0, 1), ms.destination(0, 1)),
        ];
        let routing = ms.routing(&flows);
        let mut scratch = WaterfillScratch::new();
        let instance = run_on(ms.network(), &routing, &mut scratch);
        let (alloc, trace) =
            crate::max_min_fair_traced::<Rational>(ms.network(), &flows, &routing).unwrap();
        assert_eq!(scratch.rates(), alloc.rates());
        assert_eq!(scratch.levels(), &trace.levels[..]);
        let bottlenecks: Vec<_> = scratch
            .bottlenecks()
            .iter()
            .map(|&d| instance.link_id(d))
            .collect();
        assert_eq!(bottlenecks, trace.bottleneck_of);
    }

    #[test]
    fn scratch_reuse_reproduces_fresh_results() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 0)),
            Flow::new(clos.source(1, 0), clos.destination(2, 1)),
        ];
        let mut scratch = WaterfillScratch::new();
        let mut fresh_rates = Vec::new();
        // Three different routings through one warm scratch...
        for m in 0..2 {
            let routing = Routing::new(vec![
                clos.path_via(flows[0], m),
                clos.path_via(flows[1], 1 - m),
                clos.path_via(flows[2], m),
            ]);
            run_on(clos.network(), &routing, &mut scratch);
            fresh_rates.push((
                scratch.rates().to_vec(),
                crate::max_min_fair::<Rational>(clos.network(), &flows, &routing)
                    .unwrap()
                    .rates()
                    .to_vec(),
            ));
        }
        // ...each matching its own fresh-allocation run.
        for (warm, fresh) in fresh_rates {
            assert_eq!(warm, fresh);
        }
    }

    #[test]
    fn subset_compile_preserves_network_order() {
        let ms = MacroSwitch::standard(2);
        let full = WaterfillInstance::<Rational>::compile(ms.network());
        // A scrambled, duplicated subset must come out in network order.
        let subset = vec![
            full.link_id(3),
            full.link_id(1),
            full.link_id(3),
            full.link_id(5),
        ];
        let sub = WaterfillInstance::<Rational>::compile_subset(ms.network(), &subset);
        assert_eq!(sub.link_count(), 3);
        assert_eq!(
            (0..3).map(|d| sub.link_id(d)).collect::<Vec<_>>(),
            vec![full.link_id(1), full.link_id(3), full.link_id(5)]
        );
        assert_eq!(sub.dense_index(full.link_id(3)), Some(1));
        assert_eq!(sub.dense_index(full.link_id(0)), None);
    }

    #[test]
    fn equal_sharing_via_compiled_pipeline() {
        let ms = MacroSwitch::standard(2);
        let flows: Vec<Flow> = (0..4)
            .map(|k| Flow::new(ms.source(0, 0), ms.destination(k % 4, k / 4)))
            .collect();
        let routing = ms.routing(&flows);
        let mut scratch = WaterfillScratch::new();
        run_on(ms.network(), &routing, &mut scratch);
        assert!(scratch.rates().iter().all(|&x| x == r(1, 4)));
        assert_eq!(scratch.flow_count(), 4);
    }

    #[test]
    fn unbounded_flow_is_detectable_before_running() {
        let mut scratch = WaterfillScratch::<Rational>::new();
        scratch.begin();
        scratch.push_flow(&[0, 1]);
        assert!(!scratch.last_flow_is_unbounded());
        scratch.push_flow(&[]);
        assert!(scratch.last_flow_is_unbounded());
    }
}
