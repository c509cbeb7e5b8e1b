//! The core of the clos-routing workspace: routing objectives,
//! impossibility constructions, and routing algorithms for Clos data-center
//! networks with unsplittable flows under max-min fair congestion control.
//!
//! This crate implements the primary contribution of Ferreira, Atre, Sherry
//! & Sobrinho, *"Impossibility Results for Data-Center Routing with
//! Congestion Control and Unsplittable Flows"* (PODC '24), on top of the
//! substrates in `clos-net` (topologies), `clos-graph` (matching, coloring,
//! max-flow), and `clos-fairness` (water-filling max-min fairness):
//!
//! * [`macro_switch`] — analysis of the macro-switch abstraction `MS_n`:
//!   its unique max-min fair allocation, the matching-based maximum
//!   throughput allocation (Lemma 3.2), and the **price of fairness**
//!   bounded by Theorem 3.4 (`T^MmF ≥ ½ T^MT`, tight).
//! * [`objectives`] — the two routing objectives of §2.3 computed
//!   *exactly* by symmetry-pruned exhaustive search over routings:
//!   lex-max-min fair allocations (Definition 2.4) and throughput-max-min
//!   fair allocations (Definition 2.5).
//! * [`search`] — the deterministic parallel branch-and-bound engine
//!   behind [`objectives`] and [`relative`]: combined symmetry reduction,
//!   admissible per-prefix bounds, and prefix-splitting parallelism with
//!   byte-identical results for any thread count.
//! * [`compiled`] — the compiled evaluation pipeline under [`search`]:
//!   dense flow→link incidence tables built once per instance plus a
//!   per-worker scratch, so each routing evaluation is an O(flows) table
//!   walk with zero steady-state heap allocations.
//! * [`doom_switch`] — Algorithm 1, the Doom-Switch routing that
//!   approximates a throughput-max-min fair allocation and realizes the
//!   tight factor-2 gain of Theorem 5.4.
//! * [`constructions`] — the adversarial flow collections of Figures 1–4
//!   and Theorems 3.4, 4.2, 4.3, and 5.4, together with the paper's
//!   predicted rates (Lemmas 4.4 and 4.6) as checkable data.
//! * [`replication`] — feasibility of replicating macro-switch rates in
//!   the Clos network (Theorem 4.2's notion), by exact search (a
//!   feasibility objective on the [`search`] engine) and by a first-fit
//!   heuristic.
//! * [`routers`] — practical routing baselines evaluated in the paper's
//!   extended version: ECMP, greedy congestion-aware routing on
//!   macro-switch rates (à la Hedera), and local search.
//! * [`relative`] — **relative max-min fairness**, the alternative
//!   objective the paper's conclusion leaves open: max-min over the ratios
//!   of network rates to macro-switch rates, computable exactly on small
//!   instances and heuristically on large ones.
//! * [`splittable`] — the §1 baseline regimes where the macro-switch
//!   abstraction *is* exact: splittable flows (hose-model proportional
//!   routing) and admission control (link-disjoint unit flows).
//! * [`audit`] — one-stop diagnosis of any routing: allocation, bottleneck
//!   placement (host vs fabric), ratios against the macro-switch, and the
//!   universal throughput bounds.
//! * [`lp_models`] — exact LP formulations (iterative max-min fairness,
//!   splittable relaxations) over the `clos-lp` simplex, used as an
//!   independent oracle against the water-filling allocator.
//!
//! # Quick start
//!
//! Reproduce Theorem 4.3's starvation result for `n = 3`: the flow whose
//! macro-switch rate is 1 is held to `1/n` by the *fairest possible*
//! routing:
//!
//! ```
//! use clos_core::constructions::theorem_4_3;
//! use clos_rational::Rational;
//!
//! let t = theorem_4_3(3);
//! // Macro-switch: the type-3 flow gets rate 1 (Lemma 4.4).
//! assert_eq!(t.instance.macro_allocation().rate(t.type3_flow()), Rational::ONE);
//! // Lex-max-min fair routing (Lemma 4.6 certificate): it is starved to 1/n.
//! assert_eq!(t.certificate().allocation.rate(t.type3_flow()), Rational::new(1, 3));
//! ```

pub mod audit;
pub mod compiled;
pub mod constructions;
pub mod doom_switch;
pub mod graphs;
pub mod lp_models;
pub mod macro_switch;
pub mod objectives;
pub mod relative;
pub mod replication;
pub mod routers;
pub mod search;
pub mod splittable;

mod routed;

pub use crate::routed::RoutedAllocation;
