//! Practical data-center routing baselines (§6).
//!
//! The paper's extended-version evaluation compares how closely the
//! max-min fair rates under practical routing algorithms track the
//! macro-switch rates. Three families are modeled here:
//!
//! * [`EcmpRouter`] — ECMP, the long-standing default: each flow picks a
//!   middle switch uniformly at random;
//! * [`GreedyRouter`] — greedy congestion-aware routing in the style of
//!   Hedera/CONGA: flows are offered with their macro-switch rates as
//!   demands and placed, largest first, on the path minimizing resulting
//!   congestion;
//! * [`LocalSearchRouter`] — greedy followed by single-flow local search
//!   that lexicographically reduces the sorted link-congestion vector.
//!
//! All routers implement [`Router`] and produce a [`Routing`]; congestion
//! control (the max-min fair allocation for that routing) is applied
//! downstream by `clos-fairness`.

use std::cmp::Ordering;

use clos_net::{ClosNetwork, Fabric, Flow, LinkId, MacroSwitch, NodeKind, Routing};
use clos_rational::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::macro_switch::macro_max_min;
use crate::routed::assignment_routing;

/// A routing algorithm for multi-stage fabrics (Clos by default).
///
/// Routers may be randomized (hence `&mut self`); deterministic routers
/// simply ignore the mutability. Per-flow `demands` are supplied because
/// state-of-the-art algorithms use macro-switch (host-limited) rates as
/// flow demands (§6) — see [`macro_demands`] and
/// [`host_limited_demands`].
pub trait Router<F: Fabric = ClosNetwork> {
    /// A short human-readable name for reports ("ecmp", "greedy", ...).
    fn name(&self) -> &str;

    /// Whether [`Self::route`] reads the `demands` slice. Demand-oblivious
    /// routers (ECMP) return `false` so callers can skip the macro-switch
    /// water-fill entirely; an empty slice is then a valid argument.
    fn uses_demands(&self) -> bool {
        true
    }

    /// Routes each flow onto one of its `class_count` candidate paths.
    fn route(&mut self, fabric: &F, demands: &[Rational], flows: &[Flow]) -> Routing;
}

/// Per-instance congestion-accounting view shared by the demand-aware
/// routers: the interior (switch→switch) links of every candidate path,
/// plus a per-link load table.
///
/// On the Clos fabric the interior links of flow `i` via middle `m` are
/// exactly the ToR→middle uplink and middle→ToR downlink the historical
/// routers tracked in `[tor][middle]` matrices, and [`Self::interior`]
/// enumerates uplinks then downlinks in the same order — so every greedy
/// / first-fit / local-search / annealing decision (including
/// tie-breaks) is unchanged on Clos.
pub(crate) struct RouteView {
    n: usize,
    /// Interior links of flow `i` via class `c`, flattened (CSR).
    links: Vec<LinkId>,
    offsets: Vec<usize>,
    /// Every interior link of the fabric, in id order.
    interior: Vec<LinkId>,
    /// Load per link, indexed by `LinkId::index` (host links stay zero).
    loads: Vec<Rational>,
}

impl RouteView {
    pub(crate) fn new<F: Fabric>(fabric: &F, flows: &[Flow]) -> RouteView {
        let n = fabric.class_count();
        let mut links = Vec::with_capacity(flows.len() * n * 2);
        let mut offsets = Vec::with_capacity(flows.len() * n + 1);
        offsets.push(0);
        let mut path: Vec<LinkId> = Vec::with_capacity(fabric.max_path_len());
        for &f in flows {
            for c in 0..n {
                path.clear();
                fabric.append_links_via(f, c, &mut path);
                if path.len() >= 3 {
                    links.extend_from_slice(&path[1..path.len() - 1]);
                }
                offsets.push(links.len());
            }
        }
        let net = fabric.network();
        let interior = net
            .links()
            .filter(|l| {
                net.node(l.src()).kind() != NodeKind::Source
                    && net.node(l.dst()).kind() != NodeKind::Destination
            })
            .map(|l| l.id())
            .collect();
        RouteView {
            n,
            links,
            offsets,
            interior,
            loads: vec![Rational::ZERO; net.link_count()],
        }
    }

    fn interior_links(&self, flow: usize, class: usize) -> &[LinkId] {
        let row = flow * self.n + class;
        &self.links[self.offsets[row]..self.offsets[row + 1]]
    }

    /// Max interior-link load of `(flow, class)` after adding `demand`.
    fn congestion_after(&self, flow: usize, class: usize, demand: Rational) -> Rational {
        self.interior_links(flow, class)
            .iter()
            .map(|&l| self.loads[l.index()] + demand)
            .fold(Rational::ZERO, Rational::max)
    }

    /// Max interior-link load of `(flow, class)` as placed.
    fn congestion_at(&self, flow: usize, class: usize) -> Rational {
        self.interior_links(flow, class)
            .iter()
            .map(|&l| self.loads[l.index()])
            .fold(Rational::ZERO, Rational::max)
    }

    fn fits(&self, flow: usize, class: usize, demand: Rational, cap: Rational) -> bool {
        self.interior_links(flow, class)
            .iter()
            .all(|&l| self.loads[l.index()] + demand <= cap)
    }

    fn place(&mut self, flow: usize, class: usize, demand: Rational) {
        let row = flow * self.n + class;
        for &l in &self.links[self.offsets[row]..self.offsets[row + 1]] {
            self.loads[l.index()] += demand;
        }
    }

    fn remove(&mut self, flow: usize, class: usize, demand: Rational) {
        let row = flow * self.n + class;
        for &l in &self.links[self.offsets[row]..self.offsets[row + 1]] {
            self.loads[l.index()] -= demand;
        }
    }

    /// Fills `out` with the sorted-descending congestion vector of the
    /// interior links, reusing `out`'s capacity. Moves are compared by
    /// [`cmp_by_delta`] without it; annealing materialises the vector only
    /// for a move that beats the current assignment, to compare it with
    /// the best one seen.
    fn congestion_vector_into(&self, out: &mut Vec<Rational>) {
        out.clear();
        out.extend(self.interior.iter().map(|&l| self.loads[l.index()]));
        out.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Appends to `out` what moving `flow` (carrying `demand`) from class
    /// `from` to class `to` does to the congestion vector: `(old, -1)` and
    /// `(new, +1)` for each interior link whose load the move changes.
    /// Links on both paths keep their load and contribute nothing. The
    /// loads themselves are left untouched.
    fn push_move_delta(
        &self,
        flow: usize,
        from: usize,
        to: usize,
        demand: Rational,
        out: &mut Vec<(Rational, i32)>,
    ) {
        let (left, joined) = (
            self.interior_links(flow, from),
            self.interior_links(flow, to),
        );
        for &l in left.iter().filter(|l| !joined.contains(l)) {
            let old = self.loads[l.index()];
            out.extend([(old, -1), (old - demand, 1)]);
        }
        for &l in joined.iter().filter(|l| !left.contains(l)) {
            let old = self.loads[l.index()];
            out.extend([(old, -1), (old + demand, 1)]);
        }
    }
}

/// Compares two descending-sorted vectors of equal length, `a` and `b`,
/// from their multiset difference alone: `delta` holds `(v, +1)` for each
/// value `a` has over `b` and `(v, -1)` for each value `b` has over `a`
/// (entries for the same value may cancel). The vectors agree on every
/// value above the largest one whose net count is nonzero, so that value
/// decides: a positive count means `a` holds it where `b` already holds
/// something smaller, so `a` is greater. No such value means equal.
///
/// A single-flow move changes a handful of loads, so this costs
/// `O(k log k)` in the touched links instead of sorting every link. It
/// sorts `delta` in place.
fn cmp_by_delta(delta: &mut [(Rational, i32)]) -> Ordering {
    delta.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
    let mut rest = &delta[..];
    while let Some(&(value, _)) = rest.first() {
        let run = rest.iter().take_while(|e| e.0 == value).count();
        let net: i32 = rest[..run].iter().map(|e| e.1).sum();
        if net != 0 {
            return net.cmp(&0);
        }
        rest = &rest[run..];
    }
    Ordering::Equal
}

/// ECMP: every flow independently hashes to a uniformly random middle
/// switch.
///
/// # Examples
///
/// ```
/// use clos_core::routers::{macro_demands, EcmpRouter, Router};
/// use clos_net::{ClosNetwork, Flow, MacroSwitch};
///
/// let clos = ClosNetwork::standard(2);
/// let ms = MacroSwitch::standard(2);
/// let flows = vec![Flow::new(clos.source(0, 0), clos.destination(2, 0))];
/// let demands = macro_demands(&clos, &ms, &flows);
/// let mut router = EcmpRouter::new(42);
/// let routing = router.route(&clos, &demands, &flows);
/// assert!(routing.validate(clos.network(), &flows).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct EcmpRouter {
    rng: StdRng,
}

impl EcmpRouter {
    /// Creates an ECMP router with a deterministic seed (reproducible
    /// experiments).
    #[must_use]
    pub fn new(seed: u64) -> EcmpRouter {
        EcmpRouter {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<F: Fabric> Router<F> for EcmpRouter {
    fn name(&self) -> &str {
        "ecmp"
    }

    fn uses_demands(&self) -> bool {
        false
    }

    fn route(&mut self, fabric: &F, _demands: &[Rational], flows: &[Flow]) -> Routing {
        let n = fabric.class_count();
        flows
            .iter()
            .map(|&f| fabric.path_via_class(f, self.rng.gen_range(0..n)))
            .collect()
    }
}

/// Computes per-flow demands as macro-switch max-min rates (§6: flows "are
/// offered to the data-center with their macro-switch rates").
#[must_use]
pub fn macro_demands(clos: &ClosNetwork, ms: &MacroSwitch, flows: &[Flow]) -> Vec<Rational> {
    let ms_flows = ms.translate_flows(clos, flows);
    macro_max_min(ms, &ms_flows).rates().to_vec()
}

/// The generic-fabric counterpart of [`macro_demands`]: the max-min fair
/// rates when only the host access links constrain (every interior link
/// lifted to infinite capacity) — the macro-switch abstraction applied
/// to an arbitrary [`Fabric`].
///
/// On a pristine Clos fabric this equals [`macro_demands`] exactly.
///
/// # Panics
///
/// Panics if a flow endpoint is invalid for `fabric`.
#[must_use]
pub fn host_limited_demands<F: Fabric>(fabric: &F, flows: &[Flow]) -> Vec<Rational> {
    let net = fabric.network();
    let overlay: clos_net::CapacityMap = net
        .links()
        .filter(|l| {
            net.node(l.src()).kind() != NodeKind::Source
                && net.node(l.dst()).kind() != NodeKind::Destination
        })
        .map(|l| (l.id(), clos_net::Capacity::Infinite))
        .collect();
    let lifted = fabric.with_capacities(&overlay);
    // Host access links keep their finite capacities, so every flow
    // crosses a finite link and the water-filling terminates.
    crate::RoutedAllocation::from_assignment(&lifted, flows, &vec![0; flows.len()])
        .allocation
        .rates()
        .to_vec()
}

/// Greedy congestion-aware routing: flows in decreasing-demand order, each
/// placed on the middle switch minimizing the congestion of its path after
/// placement (congestion of a path = maximum congestion of its links, §6).
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyRouter;

impl GreedyRouter {
    /// Creates the (stateless) greedy router.
    #[must_use]
    pub fn new() -> GreedyRouter {
        GreedyRouter
    }

    pub(crate) fn assignment(
        view: &mut RouteView,
        demands: &[Rational],
        flows: &[Flow],
    ) -> Vec<usize> {
        let n = view.n;
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| demands[b].cmp(&demands[a]).then(a.cmp(&b)));
        let mut assignment = vec![0usize; flows.len()];
        for &i in &order {
            let demand = demands[i];
            let best = (0..n)
                .min_by_key(|&c| {
                    // Path congestion after placement: the max load over
                    // the candidate path's interior links.
                    (view.congestion_after(i, c, demand), c)
                })
                .expect("n >= 1");
            view.place(i, best, demand);
            assignment[i] = best;
        }
        assignment
    }
}

impl<F: Fabric> Router<F> for GreedyRouter {
    fn name(&self) -> &str {
        "greedy"
    }

    fn route(&mut self, fabric: &F, demands: &[Rational], flows: &[Flow]) -> Routing {
        let mut view = RouteView::new(fabric, flows);
        let assignment = GreedyRouter::assignment(&mut view, demands, flows);
        assignment_routing(fabric, flows, &assignment)
    }
}

/// Greedy placement followed by single-flow local search (§6's
/// "local-search algorithms"): repeatedly move one flow to a different
/// middle switch if doing so lexicographically decreases the sorted (from
/// highest) vector of fabric-link congestions; stop at a local optimum or
/// after `max_rounds` passes.
#[derive(Clone, Copy, Debug)]
pub struct LocalSearchRouter {
    /// Maximum full passes over the flow collection.
    pub max_rounds: usize,
}

impl LocalSearchRouter {
    /// Creates a local-search router with the given pass budget.
    #[must_use]
    pub fn new(max_rounds: usize) -> LocalSearchRouter {
        LocalSearchRouter { max_rounds }
    }
}

impl Default for LocalSearchRouter {
    fn default() -> LocalSearchRouter {
        LocalSearchRouter::new(16)
    }
}

impl<F: Fabric> Router<F> for LocalSearchRouter {
    fn name(&self) -> &str {
        "local-search"
    }

    fn route(&mut self, fabric: &F, demands: &[Rational], flows: &[Flow]) -> Routing {
        let mut view = RouteView::new(fabric, flows);
        let n = view.n;
        let mut assignment = GreedyRouter::assignment(&mut view, demands, flows);

        // Each move is scored by its delta against the current assignment
        // (`candidate`); `best` holds the delta of the best move so far, and
        // `diff` the candidate-minus-best comparison buffer.
        let mut candidate = Vec::new();
        let mut best: Vec<(Rational, i32)> = Vec::new();
        let mut diff = Vec::new();
        for _ in 0..self.max_rounds {
            let mut improved = false;
            for i in 0..flows.len() {
                if demands[i].is_zero() {
                    continue;
                }
                let from = assignment[i];
                let mut best_move = None;
                for c in 0..n {
                    if c == from {
                        continue;
                    }
                    candidate.clear();
                    view.push_move_delta(i, from, c, demands[i], &mut candidate);
                    diff.clone_from(&candidate);
                    if best_move.is_some() {
                        diff.extend(best.iter().map(|&(v, s)| (v, -s)));
                    }
                    if cmp_by_delta(&mut diff) == Ordering::Less {
                        best_move = Some(c);
                        std::mem::swap(&mut best, &mut candidate);
                    }
                }
                if let Some(c) = best_move {
                    view.remove(i, from, demands[i]);
                    view.place(i, c, demands[i]);
                    assignment[i] = c;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }

        assignment_routing(fabric, flows, &assignment)
    }
}

/// Hedera-style "global first fit": flows in decreasing-demand order are
/// placed on the first middle switch whose uplink and downlink still have
/// room for the full demand; if none fits, the least-congested middle is
/// used instead (the flow will be squeezed by congestion control).
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstFitRouter;

impl FirstFitRouter {
    /// Creates the (stateless) global-first-fit router.
    #[must_use]
    pub fn new() -> FirstFitRouter {
        FirstFitRouter
    }
}

impl<F: Fabric> Router<F> for FirstFitRouter {
    fn name(&self) -> &str {
        "first-fit"
    }

    fn route(&mut self, fabric: &F, demands: &[Rational], flows: &[Flow]) -> Routing {
        let mut view = RouteView::new(fabric, flows);
        let n = view.n;
        let cap = fabric.nominal_capacity();
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| demands[b].cmp(&demands[a]).then(a.cmp(&b)));

        let mut assignment = vec![0usize; flows.len()];
        for &i in &order {
            let demand = demands[i];
            let chosen = (0..n)
                .find(|&c| view.fits(i, c, demand, cap))
                .unwrap_or_else(|| {
                    // No class fits: fall back to least congestion.
                    (0..n)
                        .min_by_key(|&c| (view.congestion_at(i, c), c))
                        .expect("n >= 1")
                });
            view.place(i, chosen, demand);
            assignment[i] = chosen;
        }
        assignment_routing(fabric, flows, &assignment)
    }
}

/// Simulated annealing over middle-switch assignments (the second Hedera
/// placement algorithm): single-flow moves, accepted when they improve the
/// sorted congestion vector or with a decaying probability otherwise.
#[derive(Clone, Debug)]
pub struct AnnealingRouter {
    /// Random seed for the move proposals.
    pub seed: u64,
    /// Number of proposed moves.
    pub iterations: usize,
}

impl AnnealingRouter {
    /// Creates an annealing router with the given seed and move budget.
    #[must_use]
    pub fn new(seed: u64, iterations: usize) -> AnnealingRouter {
        AnnealingRouter { seed, iterations }
    }
}

impl Default for AnnealingRouter {
    fn default() -> AnnealingRouter {
        AnnealingRouter::new(0, 2000)
    }
}

impl<F: Fabric> Router<F> for AnnealingRouter {
    fn name(&self) -> &str {
        "annealing"
    }

    fn route(&mut self, fabric: &F, demands: &[Rational], flows: &[Flow]) -> Routing {
        let mut view = RouteView::new(fabric, flows);
        let n = view.n;
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Seed with greedy, then anneal. Only the best assignment's
        // congestion vector is kept; the current one lives in the view's
        // loads, and moves are compared against it by their delta.
        let mut assignment = GreedyRouter::assignment(&mut view, demands, flows);
        let mut best = assignment.clone();
        let mut best_score = Vec::with_capacity(view.interior.len());
        view.congestion_vector_into(&mut best_score);
        let mut candidate = Vec::with_capacity(view.interior.len());
        let mut delta = Vec::new();

        if flows.is_empty() || n < 2 {
            return assignment_routing(fabric, flows, &assignment);
        }
        for step in 0..self.iterations {
            let i = rng.gen_range(0..flows.len());
            if demands[i].is_zero() {
                continue;
            }
            let from = assignment[i];
            let to = (from + rng.gen_range(1..n)) % n;
            delta.clear();
            view.push_move_delta(i, from, to, demands[i], &mut delta);
            let versus_current = cmp_by_delta(&mut delta);
            // Acceptance: always when improving, with decaying probability
            // otherwise (temperature halves every eighth of the budget).
            let phase = 8 * step / self.iterations.max(1);
            let accept_prob = 0.5f64.powi(phase as i32 + 1);
            let accept = versus_current != Ordering::Greater || rng.gen::<f64>() < accept_prob;
            if accept {
                view.remove(i, from, demands[i]);
                view.place(i, to, demands[i]);
                assignment[i] = to;
                // best <= current always holds, so only a move that beats
                // the current assignment can beat the best one.
                if versus_current == Ordering::Less {
                    view.congestion_vector_into(&mut candidate);
                    if candidate < best_score {
                        std::mem::swap(&mut best_score, &mut candidate);
                        best.clone_from(&assignment);
                    }
                }
            }
        }
        assignment_routing(fabric, flows, &best)
    }
}

/// Replication-first routing: try to *replicate the macro-switch rates*
/// with the first-fit heuristic (the multirate-rearrangeability approach,
/// §6 related work); fall back to greedy congestion-aware placement when
/// no first-fit replication exists.
///
/// When replication succeeds, the macro-switch rates fit the chosen
/// routing simultaneously, so the congestion-controlled allocation tracks
/// them closely (exactly, on every instance in this workspace's tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicationFirstRouter;

impl ReplicationFirstRouter {
    /// Creates the (stateless) replication-first router.
    #[must_use]
    pub fn new() -> ReplicationFirstRouter {
        ReplicationFirstRouter
    }
}

impl Router for ReplicationFirstRouter {
    fn name(&self) -> &str {
        "replication-first"
    }

    fn route(&mut self, clos: &ClosNetwork, demands: &[Rational], flows: &[Flow]) -> Routing {
        match crate::replication::first_fit_routing(clos, flows, demands) {
            Some(routing) => routing,
            None => {
                // Historically the fallback was a self-contained greedy run
                // that re-derived its own demands from the macro-switch
                // abstraction; keep that two-pass telemetry profile.
                let ms = MacroSwitch::with_params(clos.params());
                let demands = macro_demands(clos, &ms, flows);
                GreedyRouter::new().route(clos, &demands, flows)
            }
        }
    }
}

/// Evaluates a router on the Clos fabric: computes the macro-switch
/// demands, routes the flows, and computes the resulting max-min fair
/// allocation.
///
/// # Panics
///
/// Panics if a flow endpoint is invalid for `clos`/`ms`.
#[must_use]
pub fn route_and_allocate(
    router: &mut dyn Router,
    clos: &ClosNetwork,
    ms: &MacroSwitch,
    flows: &[Flow],
) -> crate::RoutedAllocation {
    let demands = if router.uses_demands() {
        macro_demands(clos, ms, flows)
    } else {
        Vec::new()
    };
    crate::RoutedAllocation::new(clos, flows, router.route(clos, &demands, flows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::FlowId as Fid;

    fn setup(n: usize) -> (ClosNetwork, MacroSwitch) {
        (ClosNetwork::standard(n), MacroSwitch::standard(n))
    }

    fn permutation_flows(clos: &ClosNetwork) -> Vec<Flow> {
        let mut flows = Vec::new();
        for i in 0..clos.tor_count() {
            for j in 0..clos.hosts_per_tor() {
                flows.push(Flow::new(
                    clos.source(i, j),
                    clos.destination((i + 1) % clos.tor_count(), j),
                ));
            }
        }
        flows
    }

    #[test]
    fn ecmp_is_seed_deterministic() {
        let (clos, ms) = setup(3);
        let flows = permutation_flows(&clos);
        let demands = macro_demands(&clos, &ms, &flows);
        let r1 = EcmpRouter::new(7).route(&clos, &demands, &flows);
        let r2 = EcmpRouter::new(7).route(&clos, &demands, &flows);
        let r3 = EcmpRouter::new(8).route(&clos, &demands, &flows);
        assert_eq!(r1, r2);
        assert!(r1.validate(clos.network(), &flows).is_ok());
        assert!(r3.validate(clos.network(), &flows).is_ok());
    }

    #[test]
    fn greedy_routes_permutation_disjointly() {
        // A permutation has macro rate 1 per flow; greedy must spread the n
        // flows per ToR pair over the n middles, giving everyone rate 1.
        let (clos, ms) = setup(3);
        let flows = permutation_flows(&clos);
        let out = route_and_allocate(&mut GreedyRouter::new(), &clos, &ms, &flows);
        assert!(out.allocation.rates().iter().all(|&x| x == Rational::ONE));
    }

    #[test]
    fn local_search_never_worse_than_greedy_max_congestion() {
        let (clos, ms) = setup(2);
        // Adversarial order for greedy: two big flows first on the same
        // pair, then crossing flows.
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            Flow::new(clos.source(1, 0), clos.destination(2, 0)),
            Flow::new(clos.source(1, 1), clos.destination(3, 0)),
            Flow::new(clos.source(3, 0), clos.destination(0, 0)),
        ];
        let g = route_and_allocate(&mut GreedyRouter::new(), &clos, &ms, &flows);
        let l = route_and_allocate(&mut LocalSearchRouter::default(), &clos, &ms, &flows);
        // Compare realized max-min throughput: local search should not be
        // worse on this instance.
        assert!(l.throughput() >= g.throughput() || l.allocation.sorted() >= g.allocation.sorted());
    }

    #[test]
    fn routers_report_names() {
        assert_eq!(Router::<ClosNetwork>::name(&EcmpRouter::new(0)), "ecmp");
        assert_eq!(Router::<ClosNetwork>::name(&GreedyRouter::new()), "greedy");
        assert_eq!(
            Router::<ClosNetwork>::name(&LocalSearchRouter::default()),
            "local-search"
        );
        assert_eq!(
            Router::<ClosNetwork>::name(&FirstFitRouter::new()),
            "first-fit"
        );
        assert_eq!(
            Router::<ClosNetwork>::name(&AnnealingRouter::default()),
            "annealing"
        );
    }

    #[test]
    fn first_fit_routes_permutation_disjointly() {
        // Unit demands fit exactly once per fabric link, so first fit is
        // forced into a König-style disjoint placement on permutations.
        let (clos, ms) = setup(3);
        let flows = permutation_flows(&clos);
        let out = route_and_allocate(&mut FirstFitRouter::new(), &clos, &ms, &flows);
        assert!(out.allocation.rates().iter().all(|&x| x == Rational::ONE));
    }

    #[test]
    fn first_fit_fallback_still_produces_valid_routing() {
        // Four unit-demand flows on one ToR pair with only 2 middles: two
        // cannot fit and take the fallback path.
        let (clos, ms) = setup(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            Flow::new(clos.source(1, 0), clos.destination(2, 0)),
            Flow::new(clos.source(1, 1), clos.destination(2, 1)),
        ];
        let out = route_and_allocate(&mut FirstFitRouter::new(), &clos, &ms, &flows);
        assert!(out.routing.validate(clos.network(), &flows).is_ok());
        assert!(out.allocation.rates().iter().all(|&x| x.is_positive()));
    }

    #[test]
    fn annealing_is_seed_deterministic_and_no_worse_than_greedy() {
        let (clos, ms) = setup(2);
        let flows = permutation_flows(&clos);
        let demands = macro_demands(&clos, &ms, &flows);
        let mut a1 = AnnealingRouter::new(5, 500);
        let mut a2 = AnnealingRouter::new(5, 500);
        assert_eq!(
            a1.route(&clos, &demands, &flows),
            a2.route(&clos, &demands, &flows)
        );
        // Annealing keeps the best-seen assignment, which starts at
        // greedy's, so its final max congestion cannot be worse.
        let g = route_and_allocate(&mut GreedyRouter::new(), &clos, &ms, &flows);
        let a = route_and_allocate(&mut AnnealingRouter::new(5, 500), &clos, &ms, &flows);
        assert!(a.allocation.sorted() >= g.allocation.sorted() || a.throughput() >= g.throughput());
    }

    #[test]
    fn replication_first_achieves_macro_rates_when_it_fits() {
        let (clos, ms) = setup(3);
        let flows = permutation_flows(&clos);
        let out = route_and_allocate(&mut ReplicationFirstRouter::new(), &clos, &ms, &flows);
        // A permutation replicates: everyone keeps rate 1.
        assert!(out.allocation.rates().iter().all(|&x| x == Rational::ONE));
        assert_eq!(ReplicationFirstRouter::new().name(), "replication-first");
    }

    #[test]
    fn replication_first_falls_back_gracefully() {
        // The Theorem 4.2 collection admits no replication; the router
        // must still return a valid routing (greedy fallback).
        let t = crate::constructions::theorem_4_2(3);
        let out = route_and_allocate(
            &mut ReplicationFirstRouter::new(),
            &t.instance.clos,
            &t.instance.ms,
            &t.instance.flows,
        );
        assert!(out
            .routing
            .validate(t.instance.clos.network(), &t.instance.flows)
            .is_ok());
        assert!(out.allocation.rates().iter().all(|&x| x.is_positive()));
    }

    #[test]
    fn annealing_handles_degenerate_inputs() {
        let clos = ClosNetwork::standard(1); // single middle: nothing to move
        let ms = MacroSwitch::standard(1);
        let flows = vec![Flow::new(clos.source(0, 0), clos.destination(1, 0))];
        let out = route_and_allocate(&mut AnnealingRouter::default(), &clos, &ms, &flows);
        assert_eq!(out.allocation.rates(), &[Rational::ONE]);
        // Empty collection.
        let out = AnnealingRouter::default().route(&clos, &[], &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn greedy_is_deterministic() {
        let (clos, ms) = setup(2);
        let flows = permutation_flows(&clos);
        let demands = macro_demands(&clos, &ms, &flows);
        let mut g = GreedyRouter::new();
        assert_eq!(
            g.route(&clos, &demands, &flows),
            g.route(&clos, &demands, &flows)
        );
    }

    #[test]
    fn ecmp_collisions_reduce_rates_sometimes() {
        // With 2 middles and 4 same-pair flows, ECMP cannot do better than
        // 1/2 per flow (two flows per uplink); exact value depends on seed
        // but every rate is at most 1 and the routing stays valid.
        let (clos, ms) = setup(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            Flow::new(clos.source(1, 0), clos.destination(3, 0)),
            Flow::new(clos.source(1, 1), clos.destination(3, 1)),
        ];
        let out = route_and_allocate(&mut EcmpRouter::new(3), &clos, &ms, &flows);
        assert!(out.allocation.rates().iter().all(|&x| x <= Rational::ONE));
        assert!(out.allocation.rates().iter().all(|&x| x.is_positive()));
    }

    fn sorted_desc(mut v: Vec<Rational>) -> Vec<Rational> {
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Sets `(index, value)` changes on a copy of `base` (the first change
    /// to an index wins), returning the changed vector and its delta.
    fn changed(
        base: &[Rational],
        changes: &[(usize, Rational)],
    ) -> (Vec<Rational>, Vec<(Rational, i32)>) {
        let mut out = base.to_vec();
        let mut delta = Vec::new();
        let mut touched = Vec::new();
        for &(i, v) in changes {
            if !touched.contains(&i) {
                touched.push(i);
                delta.extend([(base[i], -1), (v, 1)]);
                out[i] = v;
            }
        }
        (out, delta)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `cmp_by_delta` orders like `Vec` comparison of the sorted
        /// vectors, for a change against its base and for two changes of
        /// one base against each other. Values are eighths in `0..=2`, so
        /// ties are frequent, and both changes may touch the same indices.
        #[test]
        fn cmp_by_delta_matches_sorted_vec_order(
            raw_base in proptest::collection::vec(0u8..17, 1..24),
            raw_a in proptest::collection::vec((0usize..24, 0u8..17), 0..6),
            raw_b in proptest::collection::vec((0usize..24, 0u8..17), 0..6),
        ) {
            let eighth = |x: u8| Rational::new(i128::from(x), 8);
            let base: Vec<Rational> = raw_base.iter().map(|&x| eighth(x)).collect();
            let change = |raw: &[(usize, u8)]| -> Vec<(usize, Rational)> {
                raw.iter().map(|&(i, v)| (i % base.len(), eighth(v))).collect()
            };
            let (a, mut da) = changed(&base, &change(&raw_a));
            let (b, db) = changed(&base, &change(&raw_b));
            let (a, b, base) = (sorted_desc(a), sorted_desc(b), sorted_desc(base));
            proptest::prop_assert_eq!(cmp_by_delta(&mut da.clone()), a.cmp(&base));
            da.extend(db.iter().map(|&(v, s)| (v, -s)));
            proptest::prop_assert_eq!(cmp_by_delta(&mut da), a.cmp(&b));
        }

        /// `push_move_delta` describes the move exactly, on fabrics whose
        /// classes share interior links (fat-tree edge→aggregation links,
        /// Benes first- and last-stage links): the delta's verdict equals
        /// comparing the sorted vectors before and after applying it.
        #[test]
        fn move_delta_matches_applied_move(
            benes in proptest::prelude::any::<bool>(),
            picks in proptest::collection::vec((0usize..16, 0usize..16, 0usize..4, 0i128..5), 1..20),
            moves in proptest::collection::vec((0usize..20, 1usize..4), 1..20),
        ) {
            fn check<F: Fabric>(
                fabric: &F,
                picks: &[(usize, usize, usize, i128)],
                moves: &[(usize, usize)],
            ) {
                let net = fabric.network();
                let sources = net.nodes_of_kind(NodeKind::Source);
                let dests = net.nodes_of_kind(NodeKind::Destination);
                let n = fabric.class_count();
                let flows: Vec<Flow> = picks
                    .iter()
                    .map(|&(s, d, _, _)| Flow::new(sources[s % sources.len()], dests[d % dests.len()]))
                    .collect();
                let demands: Vec<Rational> = picks.iter().map(|p| Rational::new(p.3, 4)).collect();
                let mut view = RouteView::new(fabric, &flows);
                let mut assignment: Vec<usize> = picks.iter().map(|p| p.2 % n).collect();
                for (i, &c) in assignment.iter().enumerate() {
                    view.place(i, c, demands[i]);
                }
                let (mut before, mut after, mut delta) = (Vec::new(), Vec::new(), Vec::new());
                for &(i, step) in moves {
                    let i = i % flows.len();
                    let (from, to) = (assignment[i], (assignment[i] + step) % n);
                    if from == to {
                        continue;
                    }
                    view.congestion_vector_into(&mut before);
                    delta.clear();
                    view.push_move_delta(i, from, to, demands[i], &mut delta);
                    view.remove(i, from, demands[i]);
                    view.place(i, to, demands[i]);
                    assignment[i] = to;
                    view.congestion_vector_into(&mut after);
                    assert_eq!(cmp_by_delta(&mut delta), after.cmp(&before));
                }
            }
            if benes {
                check(&clos_net::BenesNetwork::standard(3), &picks, &moves);
            } else {
                check(&clos_net::FatTree::new(4, Rational::TWO), &picks, &moves);
            }
        }
    }

    #[test]
    fn local_search_fixes_greedy_blind_spot() {
        // Construct a case where a later huge flow makes greedy's earlier
        // placement suboptimal, and local search can undo it.
        let (clos, ms) = setup(2);
        let flows = vec![
            // Two medium flows (macro rate 1/2 each, sharing a source).
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 0), clos.destination(2, 1)),
            // Two full-rate flows from the sibling source.
            Flow::new(clos.source(0, 1), clos.destination(3, 0)),
            Flow::new(clos.source(1, 0), clos.destination(2, 0)),
        ];
        let l = route_and_allocate(&mut LocalSearchRouter::default(), &clos, &ms, &flows);
        assert!(l.routing.validate(clos.network(), &flows).is_ok());
        // Flow 2 is alone on its pair; a decent routing gives it rate >= 1/2.
        assert!(l.allocation.rate(Fid::new(2)) >= Rational::new(1, 2));
    }
}
