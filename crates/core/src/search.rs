//! Deterministic parallel branch-and-bound search over canonical routings.
//!
//! Both routing objectives of §2.3 (and the relative objective of §7)
//! reduce to the same problem: over the `n^F` routings of `F` flows in
//! a fabric with `n` routing classes (the paper's `C_n`, where a class
//! is a middle switch; a Benes network, where it is a top/bottom
//! descent; an oversubscribed fat-tree, where it is a core switch),
//! maximize a key derived from the max-min fair allocation. Replication
//! feasibility at fixed rates (§4.1,
//! [`find_feasible_routing`](crate::replication::find_feasible_routing))
//! is the same problem with a `bool` key read off fixed-rate link loads
//! ([`Objective::evaluate`]). This module is the shared engine, generic
//! over [`Fabric`]. It improves on naive enumeration these ways, without
//! leaving exact territory:
//!
//! 1. **Combined symmetry reduction, capacity-class aware.** Permuting
//!    identical flows always preserves the key (the objective says which
//!    flows are identical, [`Objective::interchange_labels`]: by default
//!    those with equal endpoints; for fixed-rate feasibility, those with
//!    equal rates and equal class-dependent links); relabeling routing
//!    classes preserves it only within a *capacity equivalence
//!    class* — classes whose interchange signatures
//!    ([`Fabric::class_signature`]) are identical (on a pristine Clos
//!    fabric every middle switch is in one class; failures split
//!    classes, and fabrics with smaller symmetry groups report
//!    singleton signatures). The enumerator emits only
//!    assignments that are simultaneously *group-sorted*
//!    (non-decreasing within each set of identical flows) and
//!    *first-use canonical per class* (the `j`-th distinct member of a
//!    class to appear is the `j`-th member of that class in class
//!    order). Every orbit keeps a representative: its lexicographically
//!    least element satisfies both constraints at once — if it violated
//!    group-sortedness, sorting within groups would produce a
//!    lex-smaller orbit element; and if some class's members first
//!    appeared out of order, relabeling that class by first use would
//!    map the first out-of-order member to a smaller same-class index,
//!    again lex-smaller (re-sorting groups afterwards only decreases
//!    further, and the process terminates because the element strictly
//!    decreases). With one class this degenerates to the classic
//!    uniform reduction, byte for byte.
//! 2. **Branch-and-bound pruning.** Each [`Objective`] may supply an
//!    *admissible* per-prefix upper bound on its key; subtrees whose bound
//!    cannot strictly beat the incumbent are skipped (counted in telemetry
//!    as `search.pruned`).
//! 3. **Prefix-splitting parallelism.** The canonical tree is split into
//!    blocks at a fixed prefix depth, and the blocks run on the
//!    [`search_threads`] workers: the calling thread is one of them, and
//!    each scoped worker it spawns enters the caller's open span path, so
//!    a block's spans record under the search's `search` span wherever
//!    the block ran.
//! 4. **Compiled evaluation.** The instance is compiled once
//!    ([`crate::compiled`]) into dense flow→link incidence tables, and
//!    each worker evaluates assignments into its own reusable
//!    [`EvalScratch`] — the steady-state leaf loop performs no heap
//!    allocations (asserted by `bench_search`'s counting allocator).
//! 5. **Proven optimum.** Each objective's bound over the empty prefix
//!    ([`Objective::root_bound`]: the sorted per-flow rate caps for
//!    lex, `min(Σ caps, host-link capacity on either side)` for
//!    throughput) is computed once per search. An incumbent that reaches
//!    it cannot be beaten by any routing, so its block stops walking
//!    ([`SearchProfile::proven_blocks`]) and no later wave of blocks
//!    starts ([`SearchProfile::blocks_skipped`]); a seed that already
//!    meets it runs no block at all. On rearrangeable fabrics, where
//!    every flow can get its own cap, this ends the search at the first
//!    optimal leaf instead of after the whole canonical space.
//!    [`SearchConfig::no_prune`] turns it off with the prefix bounds.
//!
//! # Determinism
//!
//! Results and [`SearchStats`] are byte-identical for any thread count.
//! The block decomposition depends only on the instance (smallest depth
//! with at least [`BLOCK_TARGET`] canonical prefixes), each block prunes
//! against a *block-local* incumbent seeded with the key of the first
//! canonical leaf (the all-zeros assignment, evaluated once up front), and
//! block winners are merged in block order with a strict comparison. The
//! final answer is therefore always the lexicographically first canonical
//! assignment attaining the optimal key — exactly what a sequential
//! first-wins scan returns — and every per-block statistic is a property
//! of the block alone, independent of scheduling.
//!
//! Pruning cannot lose that first winner: a subtree is skipped only when
//! its bound is `<=` the local incumbent key, and the incumbent (seed or
//! an earlier leaf of the same block) always precedes the subtree in
//! lexicographic order, so any equal-key leaf inside it was never going to
//! replace the incumbent.
//!
//! The proven exit keeps both properties. Blocks run in *waves* of
//! [`FIRST_WAVE`], then twice as many, … blocks; the boundaries come from
//! the block count alone. Every block of a wave runs to its own end, and
//! the search ends after the first wave holding a proven block, so the
//! set of blocks that ran — and each block's statistics — is the same
//! for any thread count (one loop serves every worker count: the workers
//! persist across waves and meet at a barrier between them).
//! A search without a root bound ([`SearchConfig::no_prune`], or an
//! objective with no bound) cannot prove its optimum, so it runs all its
//! blocks as one wave, and no worker waits between blocks.
//! The winner is unchanged too: a block stops only at a leaf whose key
//! equals the root bound, the optimum, and it is the block's first such
//! leaf; every block before it ran in full (it sits in the same wave or
//! an earlier one), and no block after it can strictly beat the optimum
//! in the merge.
//!
//! # Sweep rows
//!
//! [`map_rows`] runs experiment sweeps whose rows are independent and do
//! not search on the same worker loop, as one wave: rows are claimed by
//! index and merged back in row order, so the sweep's output is the same
//! for any thread count.
//!
//! [`SearchStats`]: crate::objectives::SearchStats

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

use clos_fairness::{max_min_fair, Allocation, SortedRates};
use clos_net::{ClosNetwork, Fabric, Flow, LinkId, Routing};
use clos_rational::Rational;
use clos_telemetry::counters;

use crate::compiled::{CompiledInstance, EvalScratch};
use crate::objectives::{SampledBranch, SearchProfile, SearchStats};

/// Target number of prefix blocks for the parallel decomposition.
///
/// The split depth is the smallest depth whose canonical prefix count
/// reaches this target (clamped to the flow count), *independent of the
/// thread count* — that is what keeps [`SearchStats`] identical across
/// thread counts while still giving a 16-way machine enough blocks to
/// balance load.
pub const BLOCK_TARGET: usize = 64;

/// Size of the first wave of blocks; each later wave doubles it (8, 16,
/// 32, … blocks). A search ends after the first wave holding a block that
/// proved the optimum. Like [`BLOCK_TARGET`], the wave boundaries depend
/// on the block count alone, never on the thread count, so which blocks
/// run — and with them [`SearchStats`] — is the same for every thread
/// count.
pub const FIRST_WAVE: usize = 8;

/// Upper cap on the auto-detected thread count.
const MAX_AUTO_THREADS: usize = 8;

/// Per-block cap on sampled branches ([`SearchConfig::trace_sample`]);
/// with [`BLOCK_TARGET`] blocks the global
/// [`SearchProfile::MAX_SAMPLED`] cap usually binds first.
const MAX_SAMPLED_PER_BLOCK: usize = 4;

/// Requested worker count: 0 means "auto" (env var, then hardware).
static SEARCH_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count for subsequent searches and [`map_rows`] sweeps
/// (process-global).
///
/// `0` restores the default resolution order: the `CLOS_SEARCH_THREADS`
/// environment variable if set, otherwise the available hardware
/// parallelism capped at 8. Results are identical for every setting; only
/// wall-clock time changes.
pub fn set_search_threads(threads: usize) {
    SEARCH_THREADS.store(threads, Ordering::Release);
}

/// Resolves the worker count a search or sweep started now would use.
#[must_use]
pub fn search_threads() -> usize {
    let explicit = SEARCH_THREADS.load(Ordering::Acquire);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(var) = std::env::var("CLOS_SEARCH_THREADS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_AUTO_THREADS)
}

/// Tuning knobs for one search run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SearchConfig {
    /// Worker count; `None` resolves via [`search_threads`].
    pub threads: Option<usize>,
    /// Disables branch-and-bound pruning when `true` (the enumeration
    /// then visits every canonical assignment). Used by benchmarks to
    /// measure the pruning contribution; results are identical either way.
    pub no_prune: bool,
    /// Sampled branch-trace mode: `Some(k)` records every `k`-th
    /// examined leaf of each block (first leaf included) into
    /// [`SearchProfile::sampled`], capped per block and globally.
    /// Sampling is keyed to the block-local examination index, so the
    /// recorded sample is identical for any thread count. `None` (the
    /// default) records nothing.
    pub trace_sample: Option<u64>,
}

/// Precomputed, read-only view of one search instance, shared by all
/// workers and handed to [`Objective::prefix_bound`].
///
/// Evaluation goes through the [`CompiledInstance`] built at
/// construction time: applying an assignment is a dense table walk into
/// a caller-provided [`EvalScratch`], never a fresh `Routing`.
#[derive(Debug)]
pub struct Problem<'a, F: Fabric = ClosNetwork> {
    fabric: &'a F,
    flows: &'a [Flow],
    /// Dense flow→link incidence tables (built under `search.compile`).
    compiled: CompiledInstance,
    /// Up-side cover link of flow `i` via class `c`: the interior link
    /// right after the source host link (the host link itself on
    /// two-link paths) — on Clos, the ToR→middle uplink.
    uplinks: Vec<Vec<LinkId>>,
    /// Down-side mirror of [`Self::uplinks`].
    downlinks: Vec<Vec<LinkId>>,
    /// Finite capacity of every link, indexed by dense [`LinkId`] — the
    /// per-link generalization that keeps both bounds admissible on
    /// asymmetric (failure-degraded) fabrics.
    link_cap: Vec<Rational>,
    /// Capacity sum of the distinct source host-uplinks among
    /// `flows[k..]`, for every `k` (uniform fabrics: capacity x count).
    suffix_src_cap: Vec<Rational>,
    /// Capacity sum of the distinct destination host-downlinks among
    /// `flows[k..]`.
    suffix_dst_cap: Vec<Rational>,
    /// Per-flow rate cap: `min(source host link, destination host link,
    /// best interior cover pair over all classes)` — what a flow can
    /// carry under *any* assignment.
    flow_caps: Vec<Rational>,
    /// Sum of `flow_caps[k..]`, for every `k`.
    suffix_flow_cap: Vec<Rational>,
    /// The nominal construction capacity
    /// ([`Fabric::nominal_capacity`]; individual links may have been
    /// degraded below it).
    capacity: Rational,
}

impl<'a, F: Fabric> Problem<'a, F> {
    /// Compiles the search instance for `flows` in `fabric` (public so
    /// custom [`Objective`] implementations can be developed and tested
    /// against the same view the engine uses).
    ///
    /// # Panics
    ///
    /// Panics if a flow endpoint is not a source/destination of
    /// `fabric`.
    #[must_use]
    pub fn new(fabric: &'a F, flows: &'a [Flow]) -> Problem<'a, F> {
        let n = fabric.class_count();
        let compiled = CompiledInstance::new(fabric, flows);
        let link_cap: Vec<Rational> = fabric
            .network()
            .links()
            .map(|l| l.capacity().finite().expect("fabric links are finite"))
            .collect();
        let mut uplinks = Vec::with_capacity(flows.len());
        let mut downlinks = Vec::with_capacity(flows.len());
        let mut src_host = Vec::with_capacity(flows.len());
        let mut dst_host = Vec::with_capacity(flows.len());
        let mut path: Vec<LinkId> = Vec::with_capacity(fabric.max_path_len());
        for &f in flows {
            let mut ups = Vec::with_capacity(n);
            let mut downs = Vec::with_capacity(n);
            for c in 0..n {
                path.clear();
                fabric.append_links_via(f, c, &mut path);
                let len = path.len();
                if len >= 3 {
                    ups.push(path[1]);
                    downs.push(path[len - 2]);
                } else {
                    ups.push(path[0]);
                    downs.push(path[len - 1]);
                }
            }
            // The first/last links are class-independent host access
            // links by the Fabric contract, so reading them off the last
            // enumerated class is sound.
            src_host.push(path[0]);
            dst_host.push(path[path.len() - 1]);
            uplinks.push(ups);
            downlinks.push(downs);
        }
        // Suffix capacity sums of distinct host links (a flow crosses its
        // source host link and destination host link no matter the
        // class). Sums of per-link capacities, not counts x capacity, so
        // the cover bounds stay admissible when host links are degraded.
        let mut suffix_src_cap = vec![Rational::ZERO; flows.len() + 1];
        let mut suffix_dst_cap = vec![Rational::ZERO; flows.len() + 1];
        let mut seen_src = std::collections::BTreeSet::new();
        let mut seen_dst = std::collections::BTreeSet::new();
        let (mut src_acc, mut dst_acc) = (Rational::ZERO, Rational::ZERO);
        for k in (0..flows.len()).rev() {
            if seen_src.insert(src_host[k]) {
                src_acc += link_cap[src_host[k].index()];
            }
            if seen_dst.insert(dst_host[k]) {
                dst_acc += link_cap[dst_host[k].index()];
            }
            suffix_src_cap[k] = src_acc;
            suffix_dst_cap[k] = dst_acc;
        }
        let flow_caps: Vec<Rational> = (0..flows.len())
            .map(|i| {
                // Fold from zero: capacities are nonnegative, so the
                // identity is exact even for the n = 1 fabric.
                let interior = (0..n)
                    .map(|c| link_cap[uplinks[i][c].index()].min(link_cap[downlinks[i][c].index()]))
                    .fold(Rational::ZERO, Rational::max);
                link_cap[src_host[i].index()]
                    .min(link_cap[dst_host[i].index()])
                    .min(interior)
            })
            .collect();
        let mut suffix_flow_cap = vec![Rational::ZERO; flows.len() + 1];
        for k in (0..flows.len()).rev() {
            suffix_flow_cap[k] = suffix_flow_cap[k + 1] + flow_caps[k];
        }
        Problem {
            fabric,
            flows,
            compiled,
            uplinks,
            downlinks,
            link_cap,
            suffix_src_cap,
            suffix_dst_cap,
            flow_caps,
            suffix_flow_cap,
            capacity: fabric.nominal_capacity(),
        }
    }

    /// The fabric being searched.
    #[must_use]
    pub fn fabric(&self) -> &'a F {
        self.fabric
    }

    /// The flow collection being routed.
    #[must_use]
    pub fn flows(&self) -> &'a [Flow] {
        self.flows
    }

    /// The nominal construction capacity (individual links may carry
    /// less after failure overlays; the bounds use per-link values).
    #[must_use]
    pub fn capacity(&self) -> Rational {
        self.capacity
    }

    /// The compiled incidence tables: dense link indices per
    /// `(flow, class)` path and the dense links' capacities.
    pub(crate) fn compiled(&self) -> &CompiledInstance {
        &self.compiled
    }

    /// Water-fills the routing selecting `assignment[i]` as flow `i`'s
    /// class (a prefix of the flow collection is allowed, evaluating the
    /// prefix flows alone) into `scratch` — the compiled fast path: an
    /// O(flows) incidence-table walk with no steady-state allocation.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is longer than the flow collection or
    /// assigns an out-of-range class.
    pub fn evaluate(&self, scratch: &mut EvalScratch, assignment: &[usize]) {
        self.compiled.evaluate(scratch, assignment);
    }

    /// Builds the routing selecting `assignment[i]` as flow `i`'s class;
    /// `assignment` may cover just a prefix of the flow collection.
    #[must_use]
    pub fn partial_routing(&self, assignment: &[usize]) -> Routing {
        Routing::new(
            assignment
                .iter()
                .enumerate()
                .map(|(i, &c)| self.fabric.path_via_class(self.flows[i], c))
                .collect(),
        )
    }

    /// Max-min fair allocation of the *prefix* flows routed by
    /// `assignment`, ignoring the unassigned remainder — the allocating
    /// reference path ([`Self::evaluate`] is the equivalent compiled
    /// one), kept for bound-admissibility tests and one-shot callers.
    #[must_use]
    pub fn prefix_allocation(&self, assignment: &[usize]) -> Allocation<Rational> {
        let routing = self.partial_routing(assignment);
        max_min_fair::<Rational>(
            self.fabric.network(),
            &self.flows[..assignment.len()],
            &routing,
        )
        .expect("fabric links are finite")
    }

    /// Admissible upper bound on the *total throughput* of any completion
    /// of `prefix` (a cover argument): every flow's rate crosses its
    /// source host link and its destination host link, every assigned
    /// flow's rate crosses its chosen class's interior cover links, and
    /// each link carries at most its capacity. Summing capacities over
    /// either cover — assigned up-side cover links plus the unassigned
    /// flows' source host links, or the down-side mirror — bounds the
    /// total.
    ///
    /// The unassigned part is cap-tight: each unassigned flow's rate is
    /// also at most its own rate cap (host links and its best interior
    /// cover pair) whatever class it later takes, so that part is
    /// charged `min(distinct host-link capacity, sum of rate caps)`, and
    /// the whole bound is clamped by the sum of every flow's rate cap.
    /// On an oversubscribed fabric, where the interior cap sits below a
    /// host link, this is what lets the bound meet the optimum. At the
    /// empty prefix it is the search's root bound.
    #[must_use]
    pub fn throughput_cover_bound(&self, prefix: &[usize]) -> Rational {
        self.throughput_cover_bound_with(&mut EvalScratch::default(), prefix)
    }

    /// [`Self::throughput_cover_bound`] deduping into the scratch's
    /// reusable link buffers instead of fresh `Vec`s (the engine's
    /// prune-path variant).
    #[must_use]
    pub fn throughput_cover_bound_with(
        &self,
        scratch: &mut EvalScratch,
        prefix: &[usize],
    ) -> Rational {
        let k = prefix.len();
        let (up, down) = scratch.link_buffers();
        up.clear();
        down.clear();
        for (i, &c) in prefix.iter().enumerate() {
            up.push(self.uplinks[i][c]);
            down.push(self.downlinks[i][c]);
        }
        up.sort_unstable();
        up.dedup();
        down.sort_unstable();
        down.dedup();
        // Capacity sums (not counts x uniform capacity): each cover
        // element carries at most its own — possibly degraded — capacity.
        let unassigned = self.suffix_flow_cap[k];
        let mut up_cap = self.suffix_src_cap[k].min(unassigned);
        for l in up.iter() {
            up_cap += self.link_cap[l.index()];
        }
        let mut down_cap = self.suffix_dst_cap[k].min(unassigned);
        for l in down.iter() {
            down_cap += self.link_cap[l.index()];
        }
        up_cap
            .min(down_cap)
            .min(self.suffix_src_cap[0])
            .min(self.suffix_dst_cap[0])
            .min(self.suffix_flow_cap[0])
    }
}

/// A search objective: a (partially) ordered key computed from an
/// evaluation of a routing — by default its max-min fair allocation —
/// plus an optional admissible bound that enables branch-and-bound
/// pruning.
///
/// The engine evaluates routings into an [`EvalScratch`]
/// ([`Self::evaluate`]) and consults the objective in two modes:
/// [`Self::beats`] on the allocation-free hot path (once per leaf), and
/// [`Self::key`] only when an improvement must be materialized. The two
/// must agree: `beats(incumbent, scratch)` iff
/// `key(scratch) > incumbent` under [`PartialOrd`].
pub trait Objective<F: Fabric = ClosNetwork>: Sync {
    /// Comparison key; the search maximizes it. Ties are broken toward
    /// the lexicographically first canonical assignment. (`Sync` because
    /// the seed key is shared with every worker by reference.)
    type Key: PartialOrd + Clone + Send + Sync;

    /// Evaluates the routing selecting `assignment[i]` as flow `i`'s
    /// class into `scratch`, for [`Self::key`] and [`Self::beats`] to
    /// read — called once for the seed and once per examined leaf. The
    /// default water-fills ([`Problem::evaluate`]).
    fn evaluate(&self, problem: &Problem<'_, F>, scratch: &mut EvalScratch, assignment: &[usize]) {
        problem.evaluate(scratch, assignment);
    }

    /// Interchange labels, one per flow: swapping the classes of two
    /// flows with equal labels must never change the key, so the
    /// canonical space enumerates each label group's classes in
    /// non-decreasing order only. The default labels a flow by its
    /// endpoints, which any key derived from the max-min fair
    /// allocation respects.
    fn interchange_labels(&self, problem: &Problem<'_, F>) -> Vec<usize> {
        endpoint_labels(problem.flows())
    }

    /// Materializes the key of the evaluation held in `scratch`. May
    /// allocate: the engine calls this only for the seed and on strict
    /// improvements, never per examined leaf.
    fn key(&self, scratch: &mut EvalScratch) -> Self::Key;

    /// Whether the evaluation held in `scratch` strictly beats
    /// `incumbent` — the hot path, called once per examined leaf.
    /// Implementations borrow scratch buffers (e.g.
    /// [`EvalScratch::sorted_by`]) instead of allocating.
    fn beats(&self, incumbent: &Self::Key, scratch: &mut EvalScratch) -> bool;

    /// An upper bound on [`Self::key`] over *every* completion of
    /// `prefix` (flows `prefix.len()..` still unassigned), or `None` to
    /// skip pruning at this prefix. Soundness requirement: whenever the
    /// bound compares `<=` to some key `k`, no completion's key exceeds
    /// `k`. `scratch` is available for prefix evaluations; its previous
    /// contents may be clobbered.
    fn prefix_bound(
        &self,
        problem: &Problem<'_, F>,
        prefix: &[usize],
        scratch: &mut EvalScratch,
    ) -> Option<Self::Key>;

    /// An upper bound on [`Self::key`] over *every* routing — the bound
    /// of the empty prefix — or `None` when none is known. The engine
    /// computes it once per search; an incumbent that reaches it is a
    /// proven optimum, and the search stops (see the module docs). The
    /// default is [`Self::prefix_bound`] of the empty prefix; override it
    /// where that bound is gated off at the root but a cheap one exists.
    fn root_bound(&self, problem: &Problem<'_, F>, scratch: &mut EvalScratch) -> Option<Self::Key> {
        self.prefix_bound(problem, &[], scratch)
    }

    /// Whether *no* completion of `prefix` can strictly beat `incumbent`
    /// — the pruning predicate the engine actually calls. The default
    /// materializes [`Self::prefix_bound`]; implementations may override
    /// it to compare against borrowed scratch buffers instead (it must
    /// decide exactly as the default does, or pruning statistics change).
    fn prefix_cannot_beat(
        &self,
        problem: &Problem<'_, F>,
        prefix: &[usize],
        incumbent: &Self::Key,
        scratch: &mut EvalScratch,
    ) -> bool {
        self.prefix_bound(problem, prefix, scratch)
            .is_some_and(|bound| bound_cannot_beat(&bound, incumbent))
    }
}

/// Labels each item by the index of the first item with an equal key:
/// equal keys, equal labels (the form [`Objective::interchange_labels`]
/// returns).
pub(crate) fn first_equal_labels<K: Ord>(keys: impl IntoIterator<Item = K>) -> Vec<usize> {
    let mut first = std::collections::BTreeMap::new();
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| *first.entry(key).or_insert(i))
        .collect()
}

/// Interchange labels grouping flows with equal endpoints.
pub(crate) fn endpoint_labels(flows: &[Flow]) -> Vec<usize> {
    first_equal_labels(flows.iter().map(|f| (f.src(), f.dst())))
}

/// Lex-max-min fairness (Definition 2.4): the key is the sorted rate
/// vector, compared lexicographically from the smallest rate.
///
/// Its prefix bound concatenates the max-min fair rates of the prefix
/// flows *alone* with each unassigned flow's individual rate cap
/// (host links and its best fabric pair — on a uniform fabric, one
/// full link capacity), and sorts. Admissibility: in any completion,
/// the allocation restricted to the prefix flows is feasible for the
/// prefix-only problem, whose max-min fair allocation is
/// leximin-maximal among feasible rate vectors; each unassigned flow
/// is individually capped by [`Problem`]'s `flow_caps` no matter which
/// middle it picks; and sorting is monotone under componentwise
/// domination of the two parts, so the concatenated bound vector
/// dominates every completion's sorted vector.
#[derive(Clone, Copy, Debug, Default)]
pub struct LexMaxMin;

/// Shared gate for [`LexMaxMin`]'s bound: a bound costs one
/// water-filling pass; only spend it where it can pay for a subtree
/// (>= n^2 leaves) on a meaningful prefix.
fn lex_bound_worthwhile(k: usize, f: usize) -> bool {
    k >= 2 && f - k >= 2
}

impl<F: Fabric> Objective<F> for LexMaxMin {
    type Key = SortedRates<Rational>;

    fn key(&self, scratch: &mut EvalScratch) -> Self::Key {
        SortedRates::from_unsorted(scratch.rates().to_vec())
    }

    fn beats(&self, incumbent: &Self::Key, scratch: &mut EvalScratch) -> bool {
        scratch.sorted_by(|rates, buf| buf.extend_from_slice(rates)) > incumbent.rates()
    }

    fn prefix_bound(
        &self,
        problem: &Problem<'_, F>,
        prefix: &[usize],
        scratch: &mut EvalScratch,
    ) -> Option<Self::Key> {
        let k = prefix.len();
        let f = problem.flows().len();
        if !lex_bound_worthwhile(k, f) {
            return None;
        }
        problem.evaluate(scratch, prefix);
        let mut rates = scratch.rates().to_vec();
        rates.extend_from_slice(&problem.flow_caps[k..]);
        Some(SortedRates::from_unsorted(rates))
    }

    /// The sorted per-flow rate caps: the prefix bound of the empty
    /// prefix, taken once per search whatever [`lex_bound_worthwhile`]
    /// says (it gates the per-prefix water-filling, which the root does
    /// not need).
    fn root_bound(
        &self,
        problem: &Problem<'_, F>,
        _scratch: &mut EvalScratch,
    ) -> Option<Self::Key> {
        Some(SortedRates::from_unsorted(problem.flow_caps.clone()))
    }

    fn prefix_cannot_beat(
        &self,
        problem: &Problem<'_, F>,
        prefix: &[usize],
        incumbent: &Self::Key,
        scratch: &mut EvalScratch,
    ) -> bool {
        // Allocation-free mirror of the default: evaluate the prefix,
        // pad with the unassigned flows' caps in the scratch sort
        // buffer, compare.
        let k = prefix.len();
        let f = problem.flows().len();
        if !lex_bound_worthwhile(k, f) {
            return false;
        }
        problem.evaluate(scratch, prefix);
        let caps = &problem.flow_caps[k..];
        let bound = scratch.sorted_by(|rates, buf| {
            buf.extend_from_slice(rates);
            buf.extend_from_slice(caps);
        });
        bound <= incumbent.rates()
    }
}

/// Throughput-max-min fairness (Definition 2.5): the key is the total
/// throughput of the max-min fair allocation, bounded per prefix by
/// [`Problem::throughput_cover_bound`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ThroughputMaxMin;

impl<F: Fabric> Objective<F> for ThroughputMaxMin {
    type Key = Rational;

    fn key(&self, scratch: &mut EvalScratch) -> Self::Key {
        let mut total = Rational::ZERO;
        for &r in scratch.rates() {
            total += r;
        }
        total
    }

    fn beats(&self, incumbent: &Self::Key, scratch: &mut EvalScratch) -> bool {
        Objective::<F>::key(self, scratch) > *incumbent
    }

    fn prefix_bound(
        &self,
        problem: &Problem<'_, F>,
        prefix: &[usize],
        scratch: &mut EvalScratch,
    ) -> Option<Self::Key> {
        Some(problem.throughput_cover_bound_with(scratch, prefix))
    }
}

/// The canonical assignment space: per-position admissible values
/// encoding the combined symmetry reduction (see the module docs),
/// organized around *capacity equivalence classes* of routing classes.
///
/// Two routing classes are equivalent iff their interchange signatures
/// ([`Fabric::class_signature`]) agree — the fabric's certificate that
/// swapping them maps every routing to one with the same allocation (on
/// Clos, middles whose per-ToR uplink and downlink capacity vectors
/// both agree). First-use canonicalization applies per class: along any
/// path of the enumeration tree, the `j`-th distinct member of
/// equivalence class `c` to appear must be the `j`-th member of `c` in
/// ascending routing-class order. The
/// walker tracks, per position, how many members of each class the
/// prefix has used (a row of [`Self::classes`] counters); a value is
/// admissible iff its within-class rank does not exceed its class's
/// used count. On a uniform fabric there is a single class, the
/// admissible set is the contiguous range `lower..=used`, and the
/// enumeration is identical — order, admitted counts, and all — to the
/// historical uniform-only reduction.
pub(crate) struct CanonicalSpace {
    n: usize,
    /// Number of capacity equivalence classes (1 on a pristine Clos).
    classes: usize,
    /// Routing class -> its equivalence class, numbered by smallest member.
    class_of: Vec<u32>,
    /// Routing class -> rank among its equivalence class's members in
    /// ascending order.
    rank_in_class: Vec<u32>,
    /// Previous position holding an identical flow (equal interchange
    /// label), if any.
    prev_in_group: Vec<Option<usize>>,
}

impl CanonicalSpace {
    /// The space with identical flows grouped by equal `labels` (one
    /// per flow; see [`Objective::interchange_labels`]).
    pub(crate) fn new<F: Fabric>(fabric: &F, labels: &[usize]) -> CanonicalSpace {
        let mut last = std::collections::BTreeMap::new();
        let prev_in_group = labels
            .iter()
            .enumerate()
            .map(|(i, &label)| last.insert(label, i))
            .collect();
        let n = fabric.class_count();
        // Interchange signature of a routing class, as certified by the
        // fabric: equal signature == interchangeable under every flow
        // collection (on Clos, the per-ToR uplink and downlink capacity
        // vectors; fabrics with less symmetry tag classes apart).
        let mut reprs: Vec<(usize, Vec<clos_net::Capacity>)> = Vec::new();
        let mut class_of = Vec::with_capacity(n);
        let mut rank_in_class = Vec::with_capacity(n);
        let mut class_sizes: Vec<u32> = Vec::new();
        for m in 0..n {
            let sig = fabric.class_signature(m);
            let class = match reprs.iter().position(|r| *r == sig) {
                Some(c) => c,
                None => {
                    reprs.push(sig);
                    class_sizes.push(0);
                    reprs.len() - 1
                }
            };
            class_of.push(class as u32);
            rank_in_class.push(class_sizes[class]);
            class_sizes[class] += 1;
        }
        // Degenerate-case guard (successor of the hard "all links have
        // equal capacity" assumption this reduction once silently made):
        // a fabric whose links all carry one capacity and whose classes
        // share a structural tag must collapse to a single equivalence
        // class, or the reduction would enumerate a wrong orbit set.
        // Kept as a debug assertion now that non-uniform fabrics are
        // first-class. (Fabrics like the Benes network deliberately tag
        // classes apart — their symmetry group is smaller than the full
        // symmetric group — and are exempt via the tag check.)
        debug_assert!(
            {
                let mut caps = fabric.network().links().map(|l| l.capacity());
                let first = caps.next();
                let uniform = caps.all(|c| Some(c) == first);
                let tags_equal = reprs.iter().all(|r| r.0 == reprs[0].0);
                !(uniform && tags_equal) || reprs.len() == 1
            },
            "uniform fabric produced {} capacity classes; the symmetry \
             reduction would enumerate a wrong orbit set",
            reprs.len()
        );
        CanonicalSpace {
            n,
            classes: reprs.len(),
            class_of,
            rank_in_class,
            prev_in_group,
        }
    }

    /// Allocates the walker's per-position used-count rows for
    /// assignments of length `count`: row `i` (a `classes`-wide slice)
    /// holds, for each class, how many of its members appear in
    /// `assignment[..i]`. Row 0 is all zeros; [`Self::fill_next_row`]
    /// derives each subsequent row.
    pub(crate) fn rows(&self, count: usize) -> Vec<u32> {
        vec![0; (count + 1) * self.classes]
    }

    /// Borrows row `i` of `used`.
    fn row<'u>(&self, used: &'u [u32], i: usize) -> &'u [u32] {
        &used[i * self.classes..(i + 1) * self.classes]
    }

    /// Fills row `i + 1` from row `i` and the value chosen at position
    /// `i`: the chosen value's class gains one used member iff the value
    /// was fresh for its class.
    pub(crate) fn fill_next_row(&self, used: &mut [u32], i: usize, value: usize) {
        let c = self.classes;
        let (head, tail) = used.split_at_mut((i + 1) * c);
        let row = &head[i * c..];
        let next = &mut tail[..c];
        next.copy_from_slice(row);
        let class = self.class_of[value] as usize;
        debug_assert!(
            self.rank_in_class[value] <= row[class],
            "inadmissible value {value} reached fill_next_row"
        );
        if self.rank_in_class[value] == row[class] {
            next[class] += 1;
        }
    }

    /// Whether `value` is admissible under the used-count `row`:
    /// reusing an already-introduced member of its class, or
    /// introducing exactly its class's next member.
    fn admissible(&self, row: &[u32], value: usize) -> bool {
        self.rank_in_class[value] <= row[self.class_of[value] as usize]
    }

    /// Smallest admissible value `>= from`, or `n` (the exhaustion
    /// sentinel) when none remains.
    fn next_admissible(&self, row: &[u32], from: usize) -> usize {
        (from..self.n)
            .find(|&v| self.admissible(row, v))
            .unwrap_or(self.n)
    }

    /// Number of admissible values `>= lower` (the walker's branching
    /// factor at a position; `n - admitted` is the symmetry skip count).
    fn admitted(&self, row: &[u32], lower: usize) -> usize {
        (lower..self.n).filter(|&v| self.admissible(row, v)).count()
    }

    /// Smallest admissible value at position `i` given the prefix:
    /// group-sortedness forces at least the previous identical flow's
    /// value. (First-use canonicalization never rules this value out:
    /// the group bound was already used in the prefix, so its class rank
    /// is strictly below its class's used count — the admissible set at
    /// or above `lower` is never empty.)
    fn lower(&self, assignment: &[usize], i: usize) -> usize {
        self.prev_in_group[i].map_or(0, |p| assignment[p])
    }
}

/// Callbacks driving the canonical walker.
pub(crate) trait Visitor {
    /// Called once per proper prefix (never the block root, never a
    /// complete assignment); returning `true` skips the subtree.
    fn prune(&mut self, _prefix: &[usize]) -> bool {
        false
    }

    /// Called when the walker starts enumerating values at `position`
    /// (i.e. expands the prefix of that length), with the number of
    /// middle choices the canonical space admits there. The default
    /// ignores it; the engine's visitor derives its per-depth node
    /// histogram and symmetry-skip counter from this hook.
    fn enter(&mut self, _position: usize, _admitted: usize) {}

    /// Called once per surviving complete assignment.
    fn leaf(&mut self, assignment: &[usize]);

    /// Checked after every leaf; returning `true` ends the walk there
    /// (the engine's visitor stops once its incumbent is proven optimal).
    fn stop(&self) -> bool {
        false
    }
}

/// Iteratively enumerates, in lexicographic order, every canonical
/// completion of `assignment[..start]` — an explicit-stack depth-first
/// walk, so deep flow collections cannot overflow the call stack.
///
/// `used` holds the per-position used-count rows ([`CanonicalSpace::rows`]);
/// rows `0..=start` must describe `assignment[..start]` on entry
/// ([`CanonicalSpace::fill_next_row`] per prefix position), and the
/// walker maintains the deeper rows. Within a position, values advance
/// through the admissible set in ascending order — on a single-class
/// (uniform) fabric that set is the contiguous range the historical
/// walker scanned, so the visit order is unchanged there.
pub(crate) fn walk_completions(
    space: &CanonicalSpace,
    assignment: &mut [usize],
    used: &mut [u32],
    start: usize,
    visitor: &mut impl Visitor,
) {
    let count = assignment.len();
    if start == count {
        visitor.leaf(assignment);
        return;
    }
    let mut i = start;
    // The group lower bound is always admissible (see `lower`), so the
    // first candidate at a freshly entered position needs no scan.
    assignment[i] = space.lower(assignment, i);
    visitor.enter(i, space.admitted(space.row(used, i), assignment[i]));
    loop {
        // Invariant: `assignment[i]` is an admissible value, or the
        // sentinel `n` once the position is exhausted.
        if assignment[i] < space.n {
            space.fill_next_row(used, i, assignment[i]);
            if i + 1 == count {
                visitor.leaf(assignment);
                if visitor.stop() {
                    return;
                }
            } else if !visitor.prune(&assignment[..=i]) {
                i += 1;
                assignment[i] = space.lower(assignment, i);
                visitor.enter(i, space.admitted(space.row(used, i), assignment[i]));
                continue;
            }
            assignment[i] = space.next_admissible(space.row(used, i), assignment[i] + 1);
            continue;
        }
        // Values exhausted at this depth: backtrack.
        if i == start {
            return;
        }
        i -= 1;
        assignment[i] = space.next_admissible(space.row(used, i), assignment[i] + 1);
    }
}

/// A [`Visitor`] that collects every leaf (used for prefix enumeration
/// and by tests).
struct Collect(Vec<Vec<usize>>);

impl Visitor for Collect {
    fn leaf(&mut self, assignment: &[usize]) {
        self.0.push(assignment.to_vec());
    }
}

/// Collects every canonical prefix of length `depth`.
fn canonical_prefixes(space: &CanonicalSpace, depth: usize) -> Vec<Vec<usize>> {
    let mut assignment = vec![0usize; depth];
    let mut used = space.rows(depth);
    let mut collect = Collect(Vec::new());
    walk_completions(space, &mut assignment, &mut used, 0, &mut collect);
    collect.0
}

/// Picks the block decomposition: the canonical prefixes at the smallest
/// depth reaching [`BLOCK_TARGET`] blocks (or the full depth).
fn prefix_blocks(space: &CanonicalSpace, flow_count: usize) -> (usize, Vec<Vec<usize>>) {
    let mut depth = 0;
    loop {
        let blocks = canonical_prefixes(space, depth);
        if blocks.len() >= BLOCK_TARGET || depth == flow_count {
            return (depth, blocks);
        }
        depth += 1;
    }
}

/// The block-index ranges of the successive waves over `blocks` blocks:
/// [`FIRST_WAVE`] blocks, then twice as many as the wave before.
fn wave_ranges(blocks: usize) -> Vec<Range<usize>> {
    let mut waves = Vec::new();
    let (mut start, mut size) = (0, FIRST_WAVE);
    while start < blocks {
        let end = (start + size).min(blocks);
        waves.push(start..end);
        start = end;
        size *= 2;
    }
    waves
}

/// Per-block search outcome; every field is a pure function of the block,
/// the instance, and the seed key — never of thread scheduling.
struct BlockOutcome<K> {
    index: usize,
    /// Lexicographically first leaf of the block whose key strictly beats
    /// the seed key (with its key), if any.
    best: Option<(Vec<usize>, K)>,
    examined: u64,
    improvements: u64,
    pruned: u64,
    /// Per-depth histograms, prune provenance, and sampled leaves of
    /// this block alone.
    profile: SearchProfile,
}

impl<K> BlockOutcome<K> {
    /// Whether the block's walk stopped at a proven optimum.
    fn proven(&self) -> bool {
        self.profile.proven_blocks > 0
    }
}

fn strictly_greater<K: PartialOrd>(a: &K, b: &K) -> bool {
    matches!(a.partial_cmp(b), Some(std::cmp::Ordering::Greater))
}

fn bound_cannot_beat<K: PartialOrd>(bound: &K, incumbent: &K) -> bool {
    // Explicit on incomparability: only a bound provably <= the incumbent
    // justifies skipping the subtree.
    matches!(
        bound.partial_cmp(incumbent),
        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
    )
}

/// Read-only state shared by every block of one search run.
struct SearchContext<'a, F: Fabric, O: Objective<F>> {
    space: CanonicalSpace,
    problem: Problem<'a, F>,
    objective: &'a O,
    config: SearchConfig,
    /// The all-zeros seed assignment and its key.
    seed: Vec<usize>,
    seed_key: O::Key,
    /// The objective's [`Objective::root_bound`]: no routing's key
    /// exceeds it. `None` when unknown or pruning is off.
    ceiling: Option<O::Key>,
}

/// The per-block worker: walks one block with block-local pruning,
/// evaluating into a per-worker [`EvalScratch`].
struct BlockVisitor<'a, 'p, 's, F: Fabric, O: Objective<F>> {
    ctx: &'a SearchContext<'p, F, O>,
    scratch: &'s mut EvalScratch,
    /// The seed leaf lives in the first block; skip its re-evaluation
    /// there (it was examined up front).
    seed_pending: bool,
    /// Whether the incumbent has reached the root bound.
    proven: bool,
    outcome: BlockOutcome<O::Key>,
}

// The block-local incumbent is the best leaf so far, else the shared
// seed key, borrowed straight out of `outcome.best` (field-disjoint from
// the scratch). Holding it by reference instead of cloning into a shadow
// field is what lets improvements store their key exactly once.
impl<F: Fabric, O: Objective<F>> Visitor for BlockVisitor<'_, '_, '_, F, O> {
    fn prune(&mut self, prefix: &[usize]) -> bool {
        if self.ctx.config.no_prune {
            return false;
        }
        let incumbent = self
            .outcome
            .best
            .as_ref()
            .map_or(&self.ctx.seed_key, |(_, key)| key);
        if self
            .ctx
            .objective
            .prefix_cannot_beat(&self.ctx.problem, prefix, incumbent, self.scratch)
        {
            self.outcome.pruned += 1;
            self.outcome.profile.bound_pruned += 1;
            self.outcome.profile.depth_pruned[prefix.len()] += 1;
            counters::SEARCH_PRUNED.incr();
            true
        } else {
            false
        }
    }

    fn enter(&mut self, position: usize, admitted: usize) {
        self.outcome.profile.depth_nodes[position] += 1;
        let n = self.ctx.space.n;
        self.outcome.profile.symmetry_skipped += (n.saturating_sub(admitted)) as u64;
    }

    fn leaf(&mut self, assignment: &[usize]) {
        if self.seed_pending && assignment == &self.ctx.seed[..] {
            self.seed_pending = false;
            return;
        }
        self.outcome.examined += 1;
        counters::SEARCH_ASSIGNMENTS.incr();
        let sampled = self.ctx.config.trace_sample.is_some_and(|k| {
            (self.outcome.examined - 1).is_multiple_of(k.max(1))
                && self.outcome.profile.sampled.len() < MAX_SAMPLED_PER_BLOCK
        });
        self.ctx
            .objective
            .evaluate(&self.ctx.problem, self.scratch, assignment);
        let incumbent = self
            .outcome
            .best
            .as_ref()
            .map_or(&self.ctx.seed_key, |(_, key)| key);
        let improved = self.ctx.objective.beats(incumbent, self.scratch);
        if improved {
            self.outcome.improvements += 1;
            counters::SEARCH_IMPROVEMENTS.incr();
            // Histogram the improvement at the first position where the
            // new incumbent diverges from the one it replaces — a pure
            // function of the block, not of scheduling.
            let previous = self
                .outcome
                .best
                .as_ref()
                .map_or(&self.ctx.seed[..], |(a, _)| &a[..]);
            let divergence = assignment
                .iter()
                .zip(previous)
                .position(|(a, b)| a != b)
                .unwrap_or(assignment.len());
            self.outcome.profile.depth_improvements[divergence] += 1;
            let key = self.ctx.objective.key(self.scratch);
            self.proven = self
                .ctx
                .ceiling
                .as_ref()
                .is_some_and(|bound| bound_cannot_beat(bound, &key));
            self.outcome.best = Some((assignment.to_vec(), key));
        }
        if sampled {
            self.outcome.profile.sampled.push(SampledBranch {
                block: self.outcome.index,
                assignment: assignment.to_vec(),
                improved,
            });
        }
    }

    fn stop(&self) -> bool {
        self.proven
    }
}

fn process_block<F: Fabric, O: Objective<F>>(
    ctx: &SearchContext<'_, F, O>,
    index: usize,
    prefix: &[usize],
    scratch: &mut EvalScratch,
) -> BlockOutcome<O::Key> {
    let _span = clos_telemetry::span("search.block");
    let flow_count = ctx.problem.flows().len();
    let depth = prefix.len();
    let mut assignment = vec![0usize; flow_count];
    assignment[..depth].copy_from_slice(prefix);
    let mut used = ctx.space.rows(flow_count);
    for (i, &middle) in assignment.iter().enumerate().take(depth) {
        ctx.space.fill_next_row(&mut used, i, middle);
    }
    let mut visitor = BlockVisitor {
        ctx,
        scratch,
        seed_pending: index == 0,
        proven: false,
        outcome: BlockOutcome {
            index,
            best: None,
            examined: 0,
            improvements: 0,
            pruned: 0,
            profile: SearchProfile::for_depth(flow_count),
        },
    };
    // The walker only bounds prefixes strictly deeper than the block
    // root; bound the root itself first.
    if depth > 0 && depth < flow_count && visitor.prune(&assignment[..depth]) {
        // Reclassify the prune just recorded: the whole block died at
        // its root, the bound never cut inside the walk.
        visitor.outcome.profile.bound_pruned -= 1;
        visitor.outcome.profile.root_pruned += 1;
        return visitor.outcome;
    }
    walk_completions(&ctx.space, &mut assignment, &mut used, depth, &mut visitor);
    if visitor.proven {
        visitor.outcome.profile.proven_blocks += 1;
        counters::SEARCH_PROVEN_BLOCKS.incr();
    } else {
        visitor.outcome.profile.blocks_exhausted += 1;
    }
    visitor.outcome
}

/// Runs the full search: returns the lexicographically first canonical
/// assignment maximizing the objective key, plus deterministic statistics.
///
/// # Panics
///
/// Panics if a flow endpoint is invalid for `fabric`. A panic inside a
/// block (in the objective's evaluation, say) stops the search and is
/// re-raised on the calling thread with the lowest-index panicking
/// block's own payload, for any thread count.
pub fn run_search<F: Fabric + Sync, O: Objective<F>>(
    fabric: &F,
    flows: &[Flow],
    objective: &O,
    config: SearchConfig,
) -> (Vec<usize>, SearchStats) {
    let _timer = clos_telemetry::timers::SEARCH.scope();
    let _span = clos_telemetry::span("search");
    counters::SEARCH_RUNS.incr();

    let problem = Problem::new(fabric, flows);
    let space = CanonicalSpace::new(fabric, &objective.interchange_labels(&problem));
    let (_, blocks) = prefix_blocks(&space, flows.len());

    // Seed incumbent: the lexicographically first canonical leaf — all
    // zeros, since every position's group and first-use lower bound is 0.
    let seed = vec![0usize; flows.len()];
    let mut seed_scratch = EvalScratch::default();
    counters::SEARCH_ASSIGNMENTS.incr();
    {
        let _seed_span = clos_telemetry::span("search.seed");
        objective.evaluate(&problem, &mut seed_scratch, &seed);
    }
    let seed_key = objective.key(&mut seed_scratch);
    counters::SEARCH_IMPROVEMENTS.incr();
    let ceiling = if config.no_prune {
        None
    } else {
        objective.root_bound(&problem, &mut seed_scratch)
    };
    let waves = match &ceiling {
        // Without a root bound no block can prove the optimum, so every
        // block runs, as one wave: no worker waits between blocks.
        None => std::iter::once(0..blocks.len()).collect(),
        // A seed that already meets the root bound is the proven optimum:
        // no block runs.
        Some(bound) if bound_cannot_beat(bound, &seed_key) => Vec::new(),
        Some(_) => wave_ranges(blocks.len()),
    };

    let ctx = SearchContext {
        space,
        problem,
        objective,
        config,
        seed,
        seed_key,
        ceiling,
    };

    let threads = config.threads.unwrap_or_else(search_threads);
    // The caller works its blocks in the (already warm) seed scratch; a
    // spawned worker keeps its own across waves. Block outcomes stay a
    // pure function of the block, so results and stats are
    // byte-identical for any thread count.
    let outcomes = run_waves(
        threads,
        &waves,
        &mut seed_scratch,
        EvalScratch::default,
        |index, scratch| process_block(&ctx, index, &blocks[index], scratch),
        BlockOutcome::proven,
    );

    // Deterministic merge: the outcomes come back in block order, and
    // only a strict improvement replaces the incumbent, so the earliest
    // block (hence the lexicographically earliest leaf) wins ties.
    //
    // The seed's up-front examination/improvement is histogrammed at
    // depth 0, keeping `sum(depth_improvements) == improvements`.
    let mut seed_profile = SearchProfile::for_depth(flows.len());
    seed_profile.depth_improvements[0] = 1;
    let mut stats = SearchStats {
        routings_examined: 1,
        improvements: 1,
        pruned: 0,
        profile: seed_profile,
    };
    // Blocks past the wave that proved the optimum never started.
    let skipped = (blocks.len() - outcomes.len()) as u64;
    stats.profile.blocks_skipped = skipped;
    counters::SEARCH_BLOCKS_SKIPPED.add(skipped);
    let mut best_assignment = ctx.seed;
    let mut best_key = ctx.seed_key;
    for outcome in outcomes {
        stats.routings_examined += outcome.examined;
        stats.improvements += outcome.improvements;
        stats.pruned += outcome.pruned;
        stats.profile.merge(&outcome.profile);
        if let Some((assignment, key)) = outcome.best {
            if strictly_greater(&key, &best_key) {
                best_key = key;
                best_assignment = assignment;
            }
        }
    }
    (best_assignment, stats)
}

/// Maps `row` over independent sweep rows on the [`search_threads`]
/// workers and returns the results in input order.
///
/// The rows run as one wave of the worker loop that runs
/// [`run_search`]'s blocks: workers claim rows by index, each result is
/// merged back into its row's place, and a row's spans record under the
/// caller's open span path wherever it ran. The output is therefore the
/// same as `items.iter().map(row).collect()` for any thread count
/// whenever each row is a pure function of its input.
///
/// Rows that call [`run_search`] gain nothing here: the search already
/// runs on the same workers.
///
/// # Panics
///
/// Re-raises the panic of the lowest-index row that panicked, with its
/// own payload, after every worker has stopped; no row starts after a
/// panic.
pub fn map_rows<T: Sync, R: Send>(items: &[T], row: impl Fn(&T) -> R + Sync) -> Vec<R> {
    map_rows_on(search_threads(), items, row)
}

/// [`map_rows`] on an explicit worker count (tests pin it without
/// touching the process-global setting).
fn map_rows_on<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    row: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    run_waves(
        threads,
        std::slice::from_ref(&(0..items.len())),
        &mut (),
        || (),
        |index, ()| row(&items[index]),
        |_| false,
    )
}

/// The one worker loop behind [`run_search`]'s block waves and
/// [`map_rows`]' sweep rows: runs `job` on every index of the
/// consecutive `waves`, one wave after the other, and returns the results
/// in index order.
///
/// The calling thread is one of `threads.min(jobs)` workers (at least
/// one; with one, no thread is spawned) and hands `state` to its jobs;
/// each spawned worker hands its own `spawned_state()` to its jobs and
/// enters the caller's open span path
/// ([`SpanContext`](clos_telemetry::SpanContext)), so a job's spans record
/// under the same path wherever it ran. Workers claim indices from a
/// per-wave cursor and meet at a barrier between waves. Every job of a
/// wave runs to its own end, and no later wave starts once a job's result
/// `stops` the run, so which jobs ran depends on the waves alone, never on
/// the thread count.
///
/// # Panics
///
/// A panicking job is caught: no job starts after it, and no later wave.
/// Once every worker has stopped, the panic of the lowest-index job that
/// panicked is re-raised with its own payload.
fn run_waves<S, R: Send>(
    threads: usize,
    waves: &[Range<usize>],
    state: &mut S,
    spawned_state: impl Fn() -> S + Sync,
    job: impl Fn(usize, &mut S) -> R + Sync,
    stops: impl Fn(&R) -> bool + Sync,
) -> Vec<R> {
    let jobs = waves.last().map_or(0, |wave| wave.end);
    let workers = threads.min(jobs).max(1);
    let cursors: Vec<AtomicUsize> = waves.iter().map(|w| AtomicUsize::new(w.start)).collect();
    // Per wave: a job of it stopped the run (or panicked). Set only inside
    // its wave and read only past the wave's barrier, so every worker
    // reads the same value.
    let stopped: Vec<AtomicBool> = waves.iter().map(|_| AtomicBool::new(false)).collect();
    // A job panicked: no worker claims another job.
    let failed = AtomicBool::new(false);
    let barrier = Barrier::new(workers);
    let context = clos_telemetry::SpanContext::capture();
    let work = |state: &mut S| {
        let mut done = Vec::new();
        for (w, wave) in waves.iter().enumerate() {
            if w > 0 {
                barrier.wait();
                if stopped[w - 1].load(Ordering::Acquire) {
                    break;
                }
            }
            while !failed.load(Ordering::Acquire) {
                let index = cursors[w].fetch_add(1, Ordering::AcqRel);
                if index >= wave.end {
                    break;
                }
                // A panicking job must still reach the barrier, or the
                // other workers would wait on it forever.
                let result = catch_unwind(AssertUnwindSafe(|| job(index, state)));
                if result.as_ref().map_or(true, &stops) {
                    stopped[w].store(true, Ordering::Release);
                }
                if result.is_err() {
                    failed.store(true, Ordering::Release);
                }
                done.push((index, result));
            }
        }
        done
    };
    let mut done: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _entered = context.enter();
                    work(&mut spawned_state())
                })
            })
            .collect();
        let mut done = work(state);
        for handle in spawned {
            // Jobs catch their own panics, so a worker cannot fail here.
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter()
        .map(|(_, result)| result.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flows_from_coords(clos: &ClosNetwork, coords: &[(usize, usize, usize, usize)]) -> Vec<Flow> {
        coords
            .iter()
            .map(|&(si, sj, ti, tj)| Flow::new(clos.source(si, sj), clos.destination(ti, tj)))
            .collect()
    }

    /// Enumerates all canonical leaves without pruning.
    fn all_leaves<F: Fabric>(fabric: &F, flows: &[Flow]) -> Vec<Vec<usize>> {
        let space = CanonicalSpace::new(fabric, &endpoint_labels(flows));
        let mut assignment = vec![0usize; flows.len()];
        let mut used = space.rows(flows.len());
        let mut collect = Collect(Vec::new());
        walk_completions(&space, &mut assignment, &mut used, 0, &mut collect);
        collect.0
    }

    /// `fabric` under e15's interior overlay at `oversub`:1, where a
    /// flow's interior cap sits below its host links.
    fn oversubscribed<F: Fabric>(fabric: &F, oversub: u32) -> F {
        let nominal = fabric.nominal_capacity();
        fabric.with_capacities(&clos_net::interior_overlay(
            fabric.network(),
            nominal,
            oversub,
        ))
    }

    /// Flows between the `src`-th source and `dst`-th destination host
    /// of `fabric` (indices taken modulo the host counts).
    fn host_flows<F: Fabric>(fabric: &F, pairs: &[(usize, usize)]) -> Vec<Flow> {
        let net = fabric.network();
        let sources = net.nodes_of_kind(clos_net::NodeKind::Source);
        let dests = net.nodes_of_kind(clos_net::NodeKind::Destination);
        pairs
            .iter()
            .map(|&(s, d)| Flow::new(sources[s % sources.len()], dests[d % dests.len()]))
            .collect()
    }

    #[test]
    fn blocks_partition_the_leaves() {
        let clos = ClosNetwork::standard(3);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(3, 0)),
            Flow::new(clos.source(0, 0), clos.destination(3, 0)),
            Flow::new(clos.source(0, 1), clos.destination(3, 1)),
            Flow::new(clos.source(1, 0), clos.destination(4, 0)),
        ];
        let space = CanonicalSpace::new(&clos, &endpoint_labels(&flows));
        let (depth, blocks) = prefix_blocks(&space, flows.len());
        let mut via_blocks = Vec::new();
        for prefix in &blocks {
            let mut assignment = vec![0usize; flows.len()];
            assignment[..depth].copy_from_slice(prefix);
            let mut used = space.rows(flows.len());
            for (i, &middle) in assignment.iter().enumerate().take(depth) {
                space.fill_next_row(&mut used, i, middle);
            }
            let mut collect = Collect(Vec::new());
            walk_completions(&space, &mut assignment, &mut used, depth, &mut collect);
            via_blocks.extend(collect.0);
        }
        assert_eq!(via_blocks, all_leaves(&clos, &flows));
    }

    #[test]
    fn waves_double_and_cover_every_block_once() {
        assert!(wave_ranges(0).is_empty());
        assert_eq!(wave_ranges(5), vec![0..5]);
        assert_eq!(
            wave_ranges(122),
            vec![0..8, 8..24, 24..56, 56..120, 120..122]
        );
        for blocks in [1, 8, 9, 64, 187, 1000] {
            let waves = wave_ranges(blocks);
            assert_eq!(waves[0].start, 0);
            assert_eq!(waves[waves.len() - 1].end, blocks);
            for w in waves.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn seed_is_first_leaf_and_order_is_lexicographic() {
        let clos = ClosNetwork::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(1, 0), clos.destination(3, 0)),
        ];
        let leaves = all_leaves(&clos, &flows);
        assert_eq!(leaves[0], vec![0, 0, 0]);
        for w in leaves.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    /// Admissibility of every bound on a C_2 instance: the uniform
    /// fabric plus its 2:1 and 4:1 overlays (see
    /// [`check_bounds_admissible_on`]).
    fn check_bounds_admissible(coords: &[(usize, usize, usize, usize)]) {
        let clos = ClosNetwork::standard(2);
        let flows = flows_from_coords(&clos, coords);
        check_bounds_admissible_on(&clos, &flows);
        for oversub in [2, 4] {
            check_bounds_admissible_on(&oversubscribed(&clos, oversub), &flows);
        }
    }

    /// Admissibility of the prefix bounds and the root bounds: no
    /// completion's key exceeds the bound of any of its prefixes, nor
    /// the objective's root bound. Also pins the compiled pipeline to
    /// the allocating reference path (`prefix_allocation`) and
    /// [`Objective::beats`]/[`Objective::prefix_cannot_beat`] to their
    /// key-materializing definitions. On uniform fabrics the cap-tight
    /// terms never bind; the oversubscribed overlays are where a wrong
    /// one would show.
    fn check_bounds_admissible_on<F: Fabric>(fabric: &F, flows: &[Flow]) {
        let problem = Problem::new(fabric, flows);
        let mut scratch = EvalScratch::default();
        let lex = &LexMaxMin as &dyn Objective<F, Key = SortedRates<Rational>>;
        let tput = &ThroughputMaxMin as &dyn Objective<F, Key = Rational>;
        let lex_root = lex
            .root_bound(&problem, &mut scratch)
            .expect("lex has a root bound");
        let tput_root = tput
            .root_bound(&problem, &mut scratch)
            .expect("throughput has a root bound");
        assert_eq!(
            Some(tput_root),
            tput.prefix_bound(&problem, &[], &mut scratch),
            "the throughput root bound is its empty-prefix bound"
        );
        for leaf in all_leaves(fabric, flows) {
            let alloc = problem.prefix_allocation(&leaf);
            problem.evaluate(&mut scratch, &leaf);
            // Compiled evaluation == fresh Routing + max_min_fair.
            assert_eq!(scratch.rates(), alloc.rates(), "compiled pipeline diverged");
            let lex_key = lex.key(&mut scratch);
            let tput_key = tput.key(&mut scratch);
            assert_eq!(lex_key.rates(), alloc.sorted().rates());
            assert_eq!(tput_key, alloc.throughput());
            assert!(lex_root >= lex_key, "lex root bound below a routing's key");
            assert!(
                tput_root >= tput_key,
                "throughput root bound below a routing's key"
            );
            // beats == strict key comparison against itself (never) and
            // against a strictly smaller key (always: rates are positive).
            assert!(!lex.beats(&lex_key, &mut scratch));
            assert!(!tput.beats(&tput_key, &mut scratch));
            let zeros = SortedRates::from_unsorted(vec![Rational::ZERO; flows.len()]);
            assert!(lex.beats(&zeros, &mut scratch));
            assert!(tput.beats(&Rational::ZERO, &mut scratch));
            for k in 0..=flows.len() {
                let lex_bound = lex.prefix_bound(&problem, &leaf[..k], &mut scratch);
                if let Some(bound) = lex_bound {
                    assert!(bound >= lex_key, "lex bound below a completion's key");
                    // The engine's pruning predicate decides exactly as
                    // materializing the bound would.
                    assert_eq!(
                        lex.prefix_cannot_beat(&problem, &leaf[..k], &lex_key, &mut scratch),
                        bound <= lex_key
                    );
                } else {
                    assert!(!lex.prefix_cannot_beat(&problem, &leaf[..k], &lex_key, &mut scratch));
                }
                if let Some(bound) = tput.prefix_bound(&problem, &leaf[..k], &mut scratch) {
                    assert!(
                        bound >= tput_key,
                        "throughput bound below a completion's key"
                    );
                    assert!(bound <= tput_root, "a prefix bound above the root bound");
                }
            }
        }
    }

    /// On an oversubscribed Benes network every flow of a terminal
    /// permutation can get its interior cap (rearrangeability), so the
    /// cap-tight root bounds are attained and the search stops early;
    /// the host-link cover alone would charge each flow a full host link.
    #[test]
    fn cap_tight_root_bounds_meet_the_oversubscribed_benes_optimum() {
        let benes = oversubscribed(&clos_net::BenesNetwork::standard(2), 4);
        let flows = host_flows(&benes, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let problem = Problem::new(&benes, &flows);
        let mut scratch = EvalScratch::default();
        let quarter = Rational::new(1, 4);
        let tput_root = Objective::<clos_net::BenesNetwork>::root_bound(
            &ThroughputMaxMin,
            &problem,
            &mut scratch,
        );
        assert_eq!(tput_root, Some(Rational::ONE));
        assert_eq!(
            Objective::<clos_net::BenesNetwork>::root_bound(&LexMaxMin, &problem, &mut scratch)
                .map(|b| b.rates().to_vec()),
            Some(vec![quarter; 4])
        );
        for threads in [1, 2, 4] {
            let config = SearchConfig {
                threads: Some(threads),
                no_prune: false,
                trace_sample: None,
            };
            let (tput, tput_stats) = run_search(&benes, &flows, &ThroughputMaxMin, config);
            let (lex, lex_stats) = run_search(&benes, &flows, &LexMaxMin, config);
            let exhaustive = SearchConfig {
                no_prune: true,
                ..config
            };
            assert_eq!(
                tput,
                run_search(&benes, &flows, &ThroughputMaxMin, exhaustive).0
            );
            assert_eq!(lex, run_search(&benes, &flows, &LexMaxMin, exhaustive).0);
            for stats in [&tput_stats, &lex_stats] {
                let p = &stats.profile;
                assert!(
                    p.proven_blocks + p.blocks_skipped > 0,
                    "the proven exit did not fire at {threads} threads"
                );
            }
        }
    }

    /// The engine returns the lexicographically first canonical leaf
    /// attaining the optimum, for every thread count and with pruning on
    /// or off.
    fn check_engine_matches_first_wins_scan(coords: &[(usize, usize, usize, usize)]) {
        let clos = ClosNetwork::standard(2);
        let flows = flows_from_coords(&clos, coords);
        check_engine_matches_first_wins_scan_on(&clos, &flows);
        check_engine_matches_first_wins_scan_on(&oversubscribed(&clos, 4), &flows);
    }

    fn check_engine_matches_first_wins_scan_on<F: Fabric + Sync>(fabric: &F, flows: &[Flow]) {
        let problem = Problem::new(fabric, flows);
        let mut scratch = EvalScratch::default();
        // Reference: sequential first-wins scan over all leaves.
        let mut expect: Option<(Vec<usize>, Rational)> = None;
        for leaf in all_leaves(fabric, flows) {
            problem.evaluate(&mut scratch, &leaf);
            let key = Objective::<F>::key(&ThroughputMaxMin, &mut scratch);
            if expect.as_ref().is_none_or(|(_, b)| key > *b) {
                expect = Some((leaf, key));
            }
        }
        let (expect_leaf, _) = expect.unwrap();
        for (threads, no_prune) in [(1, false), (1, true), (3, false), (7, true)] {
            let config = SearchConfig {
                threads: Some(threads),
                no_prune,
                trace_sample: None,
            };
            let (got, _) = run_search(fabric, flows, &ThroughputMaxMin, config);
            assert_eq!(got, expect_leaf, "threads={threads} no_prune={no_prune}");
        }
    }

    /// Statistics are identical across thread counts (the block
    /// decomposition and the wave rule, not the schedule, define them),
    /// on the uniform fabric and on its 4:1 overlay, where the proven
    /// exit fires most.
    fn check_stats_identical_across_thread_counts(coords: &[(usize, usize, usize, usize)]) {
        let clos = ClosNetwork::standard(2);
        let flows = flows_from_coords(&clos, coords);
        let overlay = oversubscribed(&clos, 4);
        for fabric in [&clos, &overlay] {
            let config = |threads| SearchConfig {
                threads: Some(threads),
                no_prune: false,
                trace_sample: None,
            };
            let lex = run_search(fabric, &flows, &LexMaxMin, config(1));
            let tput = run_search(fabric, &flows, &ThroughputMaxMin, config(1));
            for threads in [2, 5, 16] {
                let multi = run_search(fabric, &flows, &LexMaxMin, config(threads));
                assert_eq!(lex, multi, "lex, threads={threads}");
                let multi = run_search(fabric, &flows, &ThroughputMaxMin, config(threads));
                assert_eq!(tput, multi, "throughput, threads={threads}");
            }
        }
    }

    /// Deterministic coverage of the three engine invariants on fixed
    /// instances (duplicates, shared endpoints, singletons), so the
    /// invariants are exercised even where proptest is unavailable.
    #[test]
    fn fixed_instances_uphold_engine_invariants() {
        let instances: [&[(usize, usize, usize, usize)]; 4] = [
            &[(0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 0)],
            &[(0, 0, 2, 0), (0, 0, 2, 0), (1, 0, 3, 0)],
            &[(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 1, 2, 1)],
            &[(2, 1, 3, 0)],
        ];
        for coords in instances {
            check_bounds_admissible(coords);
            check_engine_matches_first_wins_scan(coords);
            check_stats_identical_across_thread_counts(coords);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prefix_bounds_are_admissible(
            coords in prop::collection::vec((0..4usize, 0..2usize, 0..4usize, 0..2usize), 2..=5)
        ) {
            check_bounds_admissible(&coords);
        }

        #[test]
        fn prefix_bounds_are_admissible_on_oversubscribed_benes(
            pairs in prop::collection::vec((0..4usize, 0..4usize), 2..=5),
            shift in 0..3u32,
        ) {
            let oversub = 1u32 << shift;
            let benes = oversubscribed(&clos_net::BenesNetwork::standard(2), oversub);
            check_bounds_admissible_on(&benes, &host_flows(&benes, &pairs));
        }

        #[test]
        fn engine_matches_first_wins_scan(
            coords in prop::collection::vec((0..4usize, 0..2usize, 0..4usize, 0..2usize), 1..=5)
        ) {
            check_engine_matches_first_wins_scan(&coords);
        }

        #[test]
        fn stats_identical_across_thread_counts(
            coords in prop::collection::vec((0..4usize, 0..2usize, 0..4usize, 0..2usize), 1..=5)
        ) {
            check_stats_identical_across_thread_counts(&coords);
        }
    }

    #[test]
    fn map_rows_returns_rows_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        for threads in [1, 200] {
            assert_eq!(
                map_rows_on(threads, &items, |i| i * i),
                expect,
                "threads={threads}"
            );
        }
        // The first `threads` rows meet at a barrier, so each worker
        // holds one of them and the workers' results interleave.
        for threads in [2, 3, 4] {
            let barrier = Barrier::new(threads);
            let got = map_rows_on(threads, &items, |&i| {
                if i < threads as u64 {
                    barrier.wait();
                }
                i * i
            });
            assert_eq!(got, expect, "threads={threads}");
        }
        assert!(map_rows_on(4, &[] as &[u64], |i| *i).is_empty());
    }

    #[test]
    fn map_rows_re_raises_the_first_panicking_row() {
        fn message(threads: usize, fails: impl Fn(usize) -> bool + Sync) -> Option<String> {
            let items: Vec<usize> = (0..12).collect();
            let payload = catch_unwind(AssertUnwindSafe(|| {
                map_rows_on(threads, &items, |&i| {
                    assert!(!fails(i), "row {i} failed its check");
                    i
                })
            }))
            .expect_err("a row panicked");
            payload.downcast_ref::<String>().cloned()
        }
        for threads in [1, 2, 4] {
            let got = message(threads, |i| i % 5 == 3);
            assert_eq!(
                got.as_deref(),
                Some("row 3 failed its check"),
                "threads={threads}"
            );
        }
        // Every worker, spawned ones included, panics in its first row at
        // once: the caller still gets row 0's own message.
        for threads in [2, 3, 4] {
            let barrier = Barrier::new(threads);
            let got = message(threads, |i| {
                i < threads && {
                    barrier.wait();
                    true
                }
            });
            assert_eq!(
                got.as_deref(),
                Some("row 0 failed its check"),
                "threads={threads}"
            );
        }
    }

    /// Panics on chosen leaves and remembers the highest leaf position
    /// it evaluated; its key is always 0 under a root bound of 1, so no block
    /// proves the optimum and the blocks run in their waves.
    struct PanicsOn {
        leaves: Vec<Vec<usize>>,
        fails: Vec<usize>,
        latest: AtomicUsize,
    }

    impl Objective for PanicsOn {
        type Key = u8;

        fn evaluate(&self, _: &Problem<'_>, _: &mut EvalScratch, assignment: &[usize]) {
            let at = self.leaves.iter().position(|l| l == assignment).unwrap();
            self.latest.fetch_max(at, Ordering::AcqRel);
            assert!(!self.fails.contains(&at), "leaf {at} failed its check");
        }

        fn key(&self, _: &mut EvalScratch) -> u8 {
            0
        }

        fn beats(&self, _: &u8, _: &mut EvalScratch) -> bool {
            false
        }

        fn prefix_bound(&self, _: &Problem<'_>, _: &[usize], _: &mut EvalScratch) -> Option<u8> {
            None
        }

        fn root_bound(&self, _: &Problem<'_>, _: &mut EvalScratch) -> Option<u8> {
            Some(1)
        }
    }

    #[test]
    fn run_search_re_raises_the_first_panicking_block() {
        let clos = ClosNetwork::standard(2);
        let flows = flows_from_coords(
            &clos,
            &[
                (0, 0, 1, 1),
                (1, 0, 0, 1),
                (2, 0, 3, 1),
                (3, 0, 2, 1),
                (0, 1, 2, 0),
                (1, 1, 3, 0),
                (2, 1, 0, 0),
            ],
        );
        let leaves = all_leaves(&clos, &flows);
        // One block per leaf, so waves 0..8, 8..24, 24..56, 56..64.
        let space = CanonicalSpace::new(&clos, &endpoint_labels(&flows));
        assert_eq!(prefix_blocks(&space, flows.len()).1, leaves);
        for threads in [1, 2, 4] {
            let objective = PanicsOn {
                leaves: leaves.clone(),
                fails: vec![9, 19, 29, 39],
                latest: AtomicUsize::new(0),
            };
            let config = SearchConfig {
                threads: Some(threads),
                no_prune: false,
                trace_sample: None,
            };
            let payload = catch_unwind(AssertUnwindSafe(|| {
                run_search(&clos, &flows, &objective, config)
            }))
            .expect_err("a block panicked");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("leaf 9 failed its check"),
                "threads={threads}"
            );
            // Leaves 9 and 19 fail in the second wave; the third never starts.
            assert!(
                objective.latest.into_inner() < 24,
                "threads={threads}: a wave started after a panic"
            );
        }
    }

    #[test]
    fn search_threads_resolution_prefers_explicit() {
        set_search_threads(3);
        assert_eq!(search_threads(), 3);
        set_search_threads(0);
        assert!(search_threads() >= 1);
    }
}
