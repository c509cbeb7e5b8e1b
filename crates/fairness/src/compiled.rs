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
//! over every link. The run keeps those links in a list, from which a
//! link that a round empties is swap-removed through a per-link position
//! table, and caches every link's saturation level, refreshing it right
//! after a round's update pass touches the link. One scan then finds the
//! minimum level and the links at it; a round with more than one such
//! link sorts them, and the round freezes from that ascending list. The
//! update pass lists each touched link once, the first time it counts an
//! add for it (its count of pending adds is still zero then).
//!
//! Bottleneck order, the frozen-load sums (counted, see below), and the
//! divisions are those of textbook progressive filling — every round
//! recomputes every level and makes two full passes in link order — so
//! rates, levels, and bottlenecks are bit-identical to it in every scalar
//! mode. The `compiled_equivalence` test suite checks that against a
//! plain reference implementation.
//!
//! A run does not depend on the order of the member lists: a round
//! visits the links at its level in ascending order, so an entry's
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
//! every scalar mode. Weighted fairness is described this way too:
//! [`max_min_fair_weighted`] scales its weights to integers and gives
//! each flow its scaled weight as multiplicity.
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
//! # Resuming an edited description
//!
//! A caller that keeps one description and edits it between runs (the
//! churn engine, which publishes rates after every flow event) mostly
//! asks for a run whose first rounds repeat the last run round for round.
//! Once [`WaterfillScratch::set_multiplicity`] has edited a description in
//! place, and until the next [`WaterfillScratch::begin`], the scratch
//! therefore notes the links whose flow counts change
//! ([`WaterfillScratch::dirty_links`]), and each run records, per round,
//! where its entries start in the freezing order, its at-minimum links,
//! and every touched link's add count and resulting frozen load.
//!
//! The next run against the same instance replays round `r` of that log
//! while none of the round's at-minimum links is dirty and every dirty
//! link that still carries unfrozen flows sits strictly above `r`'s
//! level. Then the round repeats exactly: clean links have seen the same
//! loads and counts so far, so they give the same minimum and the same
//! at-minimum links; dirty links only enter the minimum test; and an
//! entry whose multiplicity changed lies on dirty links only, so it
//! cannot freeze in the round. A replayed round marks the logged entries
//! frozen (their rates and bottlenecks are still in place from the last
//! run), moves active counts by the logged adds, restores clean links'
//! logged loads, and recomputes dirty links' loads with the same counted
//! add, writing them back into the log (a dirty link can empty in a
//! different round than before, which skips its add). The round loop
//! continues from the first round that fails the test, so rates, levels,
//! and bottlenecks stay bit-identical to a fresh run, and
//! `waterfill.rounds`/`waterfill.saturations` count replayed rounds as
//! if they had run (`waterfill.replayed_rounds` counts them apart).
//!
//! A run never resumes after `begin` (searches, oracles, and the
//! [`max_min_fair`] wrappers describe every run afresh, and neither log
//! nor track anything), against a different instance (every compile is a
//! new identity, so a recompile under new capacities starts afresh), or
//! after a run that did not complete.
//!
//! # Index widths
//!
//! Every per-entry and per-slot index the scratch keeps is 32 bits wide,
//! the width of a `LinkId` and of the member lists' entry ids: each
//! entry's dense links and where they start, the freezing order, and each
//! entry's bottleneck. A 4-link `TotalF64` entry thus costs 53 bytes of
//! description and results, not 81. [`WaterfillScratch::push_flows`]
//! still takes `usize` link indices and panics on one that does not fit
//! in 32 bits, and a description holds fewer than 2^32 entries and link
//! slots. A dense index always fits: it is below the network's link
//! count, and link ids are 32 bits. A run reserves its fill levels for at
//! most as many rounds as links (each round empties at least the links at
//! its minimum), not one per entry.
//!
//! # The scratch-reuse contract
//!
//! Between `run`s the description changes only through
//! [`WaterfillScratch::begin`] (which empties it), the push calls (which
//! append entries), and [`WaterfillScratch::set_multiplicity`]; each keeps
//! the member lists and flow counts current (and, for a description
//! edited in place, the dirty links), and all of them reuse the buffers'
//! existing capacity. A run reads the description and leaves it as it
//! was, so a description may be run, changed, and run again. A warm
//! run (the scratch has run at least once before) is counted in the
//! `waterfill.scratch_reuse` telemetry counter, and allocates only if the
//! new description is *larger* than anything the scratch has seen —
//! steady-state loops over a fixed instance therefore touch the allocator
//! exactly never (asserted by `bench_search`'s counting allocator).
//!
//! [`max_min_fair`]: crate::max_min_fair
//! [`max_min_fair_traced`]: crate::max_min_fair_traced
//! [`max_min_fair_weighted`]: crate::max_min_fair_weighted

use std::sync::atomic::{AtomicU64, Ordering};

use clos_net::{LinkId, Network};
use clos_rational::Scalar;
use clos_telemetry::{counters, timers};

/// Source of [`WaterfillInstance`] identities: every compile takes the
/// next value, so a scratch can tell the instance its log was written
/// against from any other, a recompile of the same network included.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(0);

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
    /// Identity of this compile (clones share it, since they are equal).
    id: u64,
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
        WaterfillInstance::compile_where(net, net.link_count(), |_| true)
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
        WaterfillInstance::compile_where(net, links.len(), |l| keep[l.index()])
    }

    /// Compiles the finite links of `net` that `keep` accepts, in network
    /// link order, presizing the dense tables for `expected` links.
    fn compile_where(
        net: &Network,
        expected: usize,
        keep: impl Fn(LinkId) -> bool,
    ) -> WaterfillInstance<S> {
        let mut instance = WaterfillInstance {
            id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::AcqRel),
            dense_of_link: vec![None; net.link_count()],
            link_ids: Vec::with_capacity(expected),
            capacities: Vec::with_capacity(expected),
        };
        for link in net.links() {
            if !keep(link.id()) {
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
    /// from the scratch and the description unchanged. A description
    /// edited in place since its last run against this instance resumes
    /// that run (see the module docs). Rates, levels, and bottlenecks are
    /// bit-identical to textbook progressive filling in every scalar mode
    /// (see the module docs' round loop and the `compiled_equivalence`
    /// reference test); after one warm-up run per instance size it
    /// performs no heap allocations.
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
        let multiplied = !s.multiplicity.is_empty();

        // Results of zero-multiplicity entries are left as they were, so
        // only entries described since the last run are initialized.
        s.rates.resize(flows, S::zero());
        s.bottleneck_of.resize(flows, 0);
        s.frozen.resize(flows, false);
        s.frozen_load.clear();
        s.frozen_load.resize(links, S::zero());
        s.frozen_adds.clear();
        s.frozen_adds.resize(links, 0);
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
        // Read only for links on the active list, which set it.
        s.active_pos.resize(links, 0);

        // An edited-in-place description is logged round by round, and a
        // run against the instance of the last (complete) logged run
        // replays the rounds its edits cannot change (see the module
        // docs); the round loop continues from the first other one.
        let logging = s.in_place;
        let resume = logging && s.log.instance == Some(self.id);
        s.log.instance = None;
        s.replayed = Replayed::default();
        let replayed = if resume { self.replay(s) } else { 0 };
        s.truncate_to_round(replayed);
        // Every live entry freezes once, and every round empties at least
        // the links at its minimum, so a run has at most `min(live,
        // links)` rounds (replayed ones included).
        s.frozen_order.reserve(s.live - s.frozen_order.len());
        s.levels
            .reserve(s.live.min(links).saturating_sub(s.levels.len()));
        for d in 0..links {
            if s.active_count[d] > 0 {
                s.link_level[d] = self.level(s, d);
                s.active_pos[d] = s.active_links.len();
                s.active_links.push(d);
            }
        }
        let mut remaining = s.live - s.frozen_order.len();

        while remaining > 0 {
            if logging {
                s.log.open_round(s.frozen_order.len());
            }
            // One scan over the links that still carry unfrozen flows
            // finds the minimum level and the links at it. Every unfrozen
            // flow touches a compiled link (the caller contract), so
            // while `remaining > 0` the list is not empty.
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
            // The active list is unordered; freezing visits the at-minimum
            // links in ascending order.
            if s.at_minimum.len() > 1 {
                s.at_minimum.sort_unstable();
            }
            if logging {
                s.log.at_minimum.extend_from_slice(&s.at_minimum);
            }

            // Freeze every active flow on every link saturating at
            // `level`. Links are visited in ascending order, so an entry's
            // bottleneck is its first at-minimum link whatever the order
            // of the member lists.
            let round_start = s.frozen_order.len();
            for &d in &s.at_minimum {
                counters::WATERFILL_SATURATIONS.incr();
                for &f in &s.members[d] {
                    let e = f as usize;
                    if !s.frozen[e] {
                        s.frozen[e] = true;
                        s.rates[e] = level;
                        s.bottleneck_of[e] = d as u32;
                        s.frozen_order.push(f);
                    }
                }
            }
            debug_assert!(s.frozen_order.len() > round_start, "progress each round");
            counters::WATERFILL_ROUNDS.incr();
            s.levels.push(level);
            for i in round_start..s.frozen_order.len() {
                let f = s.frozen_order[i] as usize;
                // A live entry has at least one flow, so a link's pending
                // adds are zero only until the first one is counted.
                let m = if multiplied { s.multiplicity[f] } else { 1 };
                for k in s.slots(f) {
                    let d = s.flow_links[k] as usize;
                    s.active_count[d] -= m;
                    if s.frozen_adds[d] == 0 {
                        s.touched.push(d);
                    }
                    // Every add of the round is `level`: count them, and
                    // the refresh below adds them in one call (so the
                    // order of the round's frozen entries does not matter).
                    s.frozen_adds[d] += m;
                }
            }
            remaining -= s.frozen_order.len() - round_start;
            // Commit the counted adds and refresh the touched links'
            // levels; swap-remove emptied links from the active list. An
            // emptied link's load is never read again, so its last adds
            // are skipped.
            for i in 0..s.touched.len() {
                let d = s.touched[i];
                let adds = std::mem::take(&mut s.frozen_adds[d]);
                if s.active_count[d] > 0 {
                    s.frozen_load[d] = s.frozen_load[d].add_repeated(level, adds);
                    s.link_level[d] = self.level(s, d);
                } else {
                    let pos = s.active_pos[d];
                    s.active_links.swap_remove(pos);
                    if let Some(&moved) = s.active_links.get(pos) {
                        s.active_pos[moved] = pos;
                    }
                }
                if logging {
                    s.log.touched.push((d, adds, s.frozen_load[d]));
                }
            }
            s.touched.clear();
        }
        if logging {
            s.log.open_round(s.frozen_order.len());
            s.log.instance = Some(self.id);
        }
        // Every live entry froze; clear the flags for the next run, and
        // the edits this run has taken in.
        for i in 0..s.frozen_order.len() {
            let f = s.frozen_order[i] as usize;
            s.frozen[f] = false;
        }
        s.clear_dirty();
    }

    /// Replays the leading rounds of the logged last run that the edits
    /// since cannot change, and returns how many. Round `r` repeats when
    /// none of its at-minimum links is dirty and every dirty link that
    /// still carries unfrozen flows sits strictly above its level: clean
    /// links then hold the loads and counts they held before, so the
    /// round's minimum, its at-minimum links, and the entries it freezes
    /// (members of clean links, whose multiplicities did not change) are
    /// the logged ones. A replayed round marks those entries frozen,
    /// whose rates and bottlenecks are still in place, moves active
    /// counts by the logged adds, restores clean links' logged loads, and
    /// recomputes dirty links' loads with the same counted add, writing
    /// them back into the log for the next run to restore.
    fn replay(&self, s: &mut WaterfillScratch<S>) -> usize {
        debug_assert_eq!(s.log.starts.len(), s.levels.len() + 1, "a complete log");
        // Only dirty links' levels enter the test; the others are
        // refreshed where the round loop resumes.
        for i in 0..s.dirty_links.len() {
            let d = s.dirty_links[i];
            if s.active_count[d] > 0 {
                s.link_level[d] = self.level(s, d);
            }
        }
        let multiplied = !s.multiplicity.is_empty();
        let mut round = 0;
        let mut flows = 0;
        while round < s.levels.len() {
            let [f0, a0, t0] = s.log.starts[round];
            let [f1, a1, t1] = s.log.starts[round + 1];
            let level = s.levels[round];
            let dirty = &s.dirty;
            if s.log.at_minimum[a0..a1].iter().any(|&d| dirty[d])
                || s.dirty_links
                    .iter()
                    .any(|&d| s.active_count[d] > 0 && s.link_level[d] <= level)
            {
                break;
            }
            // Counted as if the round had run.
            counters::WATERFILL_ROUNDS.incr();
            counters::WATERFILL_REPLAYED_ROUNDS.incr();
            counters::WATERFILL_SATURATIONS.add((a1 - a0) as u64);
            for &f in &s.frozen_order[f0..f1] {
                let f = f as usize;
                s.frozen[f] = true;
                flows += if multiplied { s.multiplicity[f] } else { 1 };
            }
            for t in t0..t1 {
                let (d, adds, load) = s.log.touched[t];
                s.active_count[d] -= adds;
                if s.dirty[d] {
                    if s.active_count[d] > 0 {
                        s.frozen_load[d] = s.frozen_load[d].add_repeated(level, adds);
                        s.link_level[d] = self.level(s, d);
                    }
                    s.log.touched[t].2 = s.frozen_load[d];
                } else {
                    s.frozen_load[d] = load;
                }
            }
            round += 1;
        }
        s.replayed = Replayed {
            rounds: round,
            entries: s.log.starts[round][0],
            flows,
        };
        round
    }

    /// Link `d`'s residual capacity per active flow — the fill level at
    /// which it saturates if no other link freezes its members first.
    fn level(&self, s: &WaterfillScratch<S>, d: usize) -> S {
        let (cap, load) = (self.capacities[d], s.frozen_load[d]);
        let residual = if cap > load { cap - load } else { S::zero() };
        residual / S::from_usize(s.active_count[d])
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
    flow_links: Vec<u32>,
    /// `flow_links[flow_starts[i]..flow_starts[i + 1]]` are entry `i`'s.
    flow_starts: Vec<u32>,
    /// Per-entry count of identical flows the entry stands for (zero for
    /// an entry that is described but absent); empty while every entry
    /// is a single flow, so unit pushes cost nothing.
    multiplicity: Vec<usize>,
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
    frozen_order: Vec<u32>,
    /// Per-link count of unfrozen member flows.
    active_count: Vec<usize>,
    /// Per-link load already committed by frozen flows (as of the
    /// last refresh; an emptied link's stops there).
    frozen_load: Vec<S>,
    /// Per-link count of `level` adds the current round's update pass
    /// owes `frozen_load` (nonzero exactly for the links in `touched`).
    frozen_adds: Vec<usize>,
    /// Cached per-link saturation level of every active link.
    link_level: Vec<S>,
    /// Links that still carry unfrozen flows, in no particular order.
    active_links: Vec<usize>,
    /// Per-link position in `active_links`, for the links on it.
    active_pos: Vec<usize>,
    /// Active links at the current round's level, ascending.
    at_minimum: Vec<usize>,
    /// Links the current round's update pass touched, each once.
    touched: Vec<usize>,
    /// Fill level of each freezing round (the trace).
    levels: Vec<S>,
    /// Per-entry dense index of the link that froze it (the bottleneck).
    bottleneck_of: Vec<u32>,
    /// Whether this scratch has completed a run before (telemetry).
    warm: bool,
    /// Whether the description was edited in place
    /// ([`Self::set_multiplicity`]) since the last [`Self::begin`]: only
    /// such a description tracks dirty links and logs its runs.
    in_place: bool,
    /// Per-link flag: the link's flow count changed since the last run.
    dirty: Vec<bool>,
    /// The flagged links, each once.
    dirty_links: Vec<usize>,
    /// The round log of the last run.
    log: RoundLog<S>,
    /// What the last run replayed.
    replayed: Replayed,
}

/// The per-round record of a run over an edited-in-place description,
/// which the next run's replay reads (see the module docs).
#[derive(Clone, Debug)]
struct RoundLog<S> {
    /// Identity of the instance the logged run completed against; `None`
    /// while the log cannot be resumed (no logged run completed, or the
    /// description was begun again since).
    instance: Option<u64>,
    /// Per round, its first index in `frozen_order`, in `at_minimum`,
    /// and in `touched`; one more entry closes the last round.
    starts: Vec<[usize; 3]>,
    /// Each round's at-minimum links, ascending.
    at_minimum: Vec<usize>,
    /// Each round's touched links: the link, the flows that froze
    /// across it, and its frozen load after the round.
    touched: Vec<(usize, usize, S)>,
}

impl<S> RoundLog<S> {
    /// Records that a round (or, after the last round, the end of the
    /// run) starts at `frozen` in the freezing order.
    fn open_round(&mut self, frozen: usize) {
        self.starts
            .push([frozen, self.at_minimum.len(), self.touched.len()]);
    }
}

/// What a run took from the previous run's log instead of recomputing.
#[derive(Clone, Copy, Debug, Default)]
struct Replayed {
    /// Rounds replayed.
    rounds: usize,
    /// Entries frozen in those rounds.
    entries: usize,
    /// Flows on those entries (their summed multiplicities).
    flows: usize,
}

impl<S: Scalar> WaterfillScratch<S> {
    /// Creates an empty, cold scratch.
    #[must_use]
    pub fn new() -> WaterfillScratch<S> {
        WaterfillScratch {
            flow_links: Vec::new(),
            flow_starts: vec![0],
            multiplicity: Vec::new(),
            members: Vec::new(),
            link_flows: Vec::new(),
            live: 0,
            rates: Vec::new(),
            frozen: Vec::new(),
            frozen_order: Vec::new(),
            active_count: Vec::new(),
            frozen_load: Vec::new(),
            frozen_adds: Vec::new(),
            link_level: Vec::new(),
            active_links: Vec::new(),
            active_pos: Vec::new(),
            at_minimum: Vec::new(),
            touched: Vec::new(),
            levels: Vec::new(),
            bottleneck_of: Vec::new(),
            warm: false,
            in_place: false,
            dirty: Vec::new(),
            dirty_links: Vec::new(),
            log: RoundLog {
                instance: None,
                starts: Vec::new(),
                at_minimum: Vec::new(),
                touched: Vec::new(),
            },
            replayed: Replayed::default(),
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
            self.members[d as usize].clear();
            self.link_flows[d as usize] = 0;
        }
        self.flow_links.clear();
        self.flow_starts.clear();
        self.flow_starts.push(0);
        self.multiplicity.clear();
        self.live = 0;
        self.in_place = false;
        self.clear_dirty();
        self.log.instance = None;
    }

    /// Appends the next flow, crossing the given dense link indices (from
    /// [`WaterfillInstance::dense_index`]; duplicates count double).
    ///
    /// # Panics
    ///
    /// As [`Self::push_flows`].
    pub fn push_flow(&mut self, links: &[usize]) {
        self.push_flows(links, 1);
    }

    /// Appends `multiplicity` identical flows crossing `links` as one
    /// entry: the run gives the entry the rate and bottleneck each of
    /// those flows would get if pushed separately (see the module docs),
    /// and the result slices hold one element per entry. A multiplicity
    /// of zero describes the entry without any flow on it (it joins its
    /// links once [`Self::set_multiplicity`] gives it flows).
    ///
    /// # Panics
    ///
    /// Panics if a link index does not fit in 32 bits, or if the
    /// description would reach 2^32 entries or link slots (see the module
    /// docs' index widths).
    pub fn push_flows(&mut self, links: &[usize], multiplicity: usize) {
        let entry = self.flow_count();
        let slots = self.flow_links.len() + links.len();
        assert!(
            entry < u32::MAX as usize && slots <= u32::MAX as usize,
            "a description holds fewer than 2^32 entries and link slots"
        );
        if let Some(&last) = links.iter().max() {
            assert!(
                last <= u32::MAX as usize,
                "dense link index {last} does not fit in 32 bits"
            );
            self.grow_links(last + 1);
        }
        // Both checked above.
        self.flow_links.extend(links.iter().map(|&d| d as u32));
        self.flow_starts.push(slots as u32);
        if multiplicity != 1 || !self.multiplicity.is_empty() {
            // Every earlier entry is a single flow.
            self.multiplicity.resize(entry, 1);
            self.multiplicity.push(0);
            self.change_multiplicity(entry, multiplicity);
        } else {
            self.enlist(entry, 1);
        }
    }

    /// Changes entry `entry`'s multiplicity to `multiplicity`, updating
    /// its links' flow counts, and their member lists when the entry
    /// gains its first flow or loses its last (a loss scans each of its
    /// links' lists for it). Zero leaves the entry described but absent:
    /// the run skips it and leaves its rate and bottleneck as the last
    /// run that saw it set them.
    ///
    /// The description counts as edited in place from here until the
    /// next [`Self::begin`]: the scratch notes the links whose flow
    /// counts change ([`Self::dirty_links`]), and the next run resumes
    /// the last one where those links can first make a difference (see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn set_multiplicity(&mut self, entry: usize, multiplicity: usize) {
        self.in_place = true;
        self.change_multiplicity(entry, multiplicity);
    }

    /// [`Self::set_multiplicity`] without marking the description as
    /// edited in place (the push path).
    fn change_multiplicity(&mut self, entry: usize, multiplicity: usize) {
        if self.multiplicity.is_empty() {
            self.multiplicity.resize(self.flow_count(), 1);
        }
        let old = self.multiplicity[entry];
        self.multiplicity[entry] = multiplicity;
        if old == 0 && multiplicity > 0 {
            self.enlist(entry, multiplicity);
        } else if old > 0 && multiplicity == 0 {
            self.delist(entry, old);
        } else if old != multiplicity {
            for k in self.slots(entry) {
                let d = self.flow_links[k] as usize;
                self.link_flows[d] = self.link_flows[d] - old + multiplicity;
                self.mark_dirty(d);
            }
        }
    }

    /// Appends entry `entry`, of multiplicity `m`, to its links' member
    /// lists and flow counts.
    fn enlist(&mut self, entry: usize, m: usize) {
        for k in self.slots(entry) {
            let d = self.flow_links[k] as usize;
            self.members[d].push(entry as u32);
            self.link_flows[d] += m;
            self.mark_dirty(d);
        }
        self.live += 1;
    }

    /// Removes entry `entry`, of multiplicity `m`, from its links'
    /// member lists (one record per slot, found by a scan of the link's
    /// list and swap-removed) and flow counts.
    fn delist(&mut self, entry: usize, m: usize) {
        for k in self.slots(entry) {
            let d = self.flow_links[k] as usize;
            let list = &mut self.members[d];
            let Some(pos) = list.iter().position(|&e| e as usize == entry) else {
                unreachable!("an entry with flows is a member of its links")
            };
            list.swap_remove(pos);
            self.link_flows[d] -= m;
            self.mark_dirty(d);
        }
        self.live -= 1;
    }

    /// Notes that dense link `d`'s flow count changed, if the description
    /// is edited in place.
    fn mark_dirty(&mut self, d: usize) {
        if self.in_place && !self.dirty[d] {
            self.dirty[d] = true;
            self.dirty_links.push(d);
        }
    }

    /// Forgets every dirty mark.
    fn clear_dirty(&mut self) {
        for &d in &self.dirty_links {
            self.dirty[d] = false;
        }
        self.dirty_links.clear();
    }

    /// Cuts the freezing order, the levels, and the round log back to the
    /// first `round` rounds of the logged run (all of them when the run
    /// starts afresh).
    fn truncate_to_round(&mut self, round: usize) {
        let [frozen, at_minimum, touched] = self.log.starts.get(round).copied().unwrap_or_default();
        self.frozen_order.truncate(frozen);
        self.levels.truncate(round);
        self.log.starts.truncate(round);
        self.log.at_minimum.truncate(at_minimum);
        self.log.touched.truncate(touched);
    }

    /// The slots of `flow_links` holding entry `entry`'s links.
    fn slots(&self, entry: usize) -> std::ops::Range<usize> {
        self.flow_starts[entry] as usize..self.flow_starts[entry + 1] as usize
    }

    /// Grows the per-link tables to at least `links` links.
    fn grow_links(&mut self, links: usize) {
        if self.members.len() < links {
            self.members.resize_with(links, Default::default);
            self.link_flows.resize(links, 0);
            self.dirty.resize(links, false);
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

    /// Entry `entry`'s dense links, as pushed (stored as `u32`, see the
    /// module docs' index widths).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    #[must_use]
    pub fn entry_links(&self, entry: usize) -> &[u32] {
        &self.flow_links[self.slots(entry)]
    }

    /// Number of described flows crossing dense link `dense`: its
    /// entries' summed multiplicities (a link crossed twice by an entry
    /// counts it twice). Zero for links no entry crosses.
    #[must_use]
    pub fn link_flows(&self, dense: usize) -> usize {
        self.link_flows.get(dense).copied().unwrap_or(0)
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

    /// Per-entry dense index of the bottleneck link of the last run, as
    /// `u32` (map back with [`WaterfillInstance::link_id`];
    /// zero-multiplicity entries as for [`Self::rates`]).
    #[must_use]
    pub fn bottlenecks(&self) -> &[u32] {
        &self.bottleneck_of
    }

    /// The per-entry rates of the last run, moved out of the scratch (the
    /// allocating wrappers' result).
    pub(crate) fn into_rates(self) -> Vec<S> {
        self.rates
    }

    /// Dense links whose flow count changed since the last run, each
    /// once, in the order they first changed; empty unless the
    /// description is edited in place ([`Self::set_multiplicity`]).
    #[must_use]
    pub fn dirty_links(&self) -> &[usize] {
        &self.dirty_links
    }

    /// Rounds the last run replayed from the run before it instead of
    /// recomputing them (see the module docs); zero unless the
    /// description is edited in place.
    #[must_use]
    pub fn replayed_rounds(&self) -> usize {
        self.replayed.rounds
    }

    /// Entries the last run's replayed rounds froze: their rates and
    /// bottlenecks are the run before's, left in place.
    #[must_use]
    pub fn replayed_entries(&self) -> usize {
        self.replayed.entries
    }

    /// Flows on [`Self::replayed_entries`] (their summed multiplicities).
    #[must_use]
    pub fn replayed_flows(&self) -> usize {
        self.replayed.flows
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
            .map(|&d| instance.link_id(d as usize))
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
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "does not fit in 32 bits")]
    fn link_index_above_u32_rejected() {
        let mut scratch = WaterfillScratch::<Rational>::new();
        scratch.begin();
        scratch.push_flow(&[0, u32::MAX as usize + 1]);
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
}
