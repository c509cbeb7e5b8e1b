//! Max-min fair rate allocation for routed flow collections.
//!
//! This crate implements the congestion-control half of the paper's model
//! (§2.2): given a network, a flow collection, and a routing, compute the
//! **max-min fair allocation** — the feasible allocation whose sorted rate
//! vector is lexicographically maximum (Definition 2.1) — by progressive
//! filling (water-filling), and verify it independently via the
//! **bottleneck property** (Lemma 2.2).
//!
//! There is one filling loop, [`WaterfillInstance::run`]; [`max_min_fair`],
//! [`max_min_fair_traced`] and the weighted [`max_min_fair_weighted`] are
//! wrappers over it, certified independently by the two verifiers.
//!
//! The water-fill and the unweighted wrappers are generic over [`Scalar`],
//! so the same allocator runs exactly (over [`Rational`], used for all
//! theorem verification) and fast (over [`TotalF64`], used by the
//! large-scale simulator). [`max_min_fair_weighted`] takes [`Rational`]
//! weights, which it scales to integer multiplicities.
//!
//! # Examples
//!
//! Reproduce the macro-switch allocation of the paper's Example 2.3: three
//! flows out of `s_1^2`, two more into the same destinations, one isolated
//! flow. Sorted rates come out `[1/3, 1/3, 1/3, 2/3, 2/3, 1]`:
//!
//! ```
//! use clos_fairness::max_min_fair;
//! use clos_net::{Flow, MacroSwitch};
//! use clos_rational::Rational;
//!
//! let ms = MacroSwitch::standard(2);
//! let flows = vec![
//!     Flow::new(ms.source(0, 1), ms.destination(0, 1)), // type 1
//!     Flow::new(ms.source(0, 1), ms.destination(1, 0)), // type 1
//!     Flow::new(ms.source(0, 1), ms.destination(1, 1)), // type 1
//!     Flow::new(ms.source(1, 0), ms.destination(1, 0)), // type 2
//!     Flow::new(ms.source(1, 1), ms.destination(1, 1)), // type 2
//!     Flow::new(ms.source(0, 0), ms.destination(0, 0)), // type 3
//! ];
//! let routing = ms.routing(&flows);
//! let alloc = max_min_fair::<Rational>(ms.network(), &flows, &routing)?;
//! let sorted = alloc.sorted();
//! assert_eq!(
//!     sorted.rates(),
//!     &[
//!         Rational::new(1, 3),
//!         Rational::new(1, 3),
//!         Rational::new(1, 3),
//!         Rational::new(2, 3),
//!         Rational::new(2, 3),
//!         Rational::ONE,
//!     ]
//! );
//! # Ok::<(), clos_fairness::FairnessError>(())
//! ```
//!
//! [`Rational`]: clos_rational::Rational
//! [`TotalF64`]: clos_rational::TotalF64
//! [`Scalar`]: clos_rational::Scalar

mod allocation;
mod bottleneck;
pub mod compiled;
mod feasibility;
mod waterfill;
mod weighted;

pub use crate::allocation::{Allocation, SortedRates};
pub use crate::bottleneck::{verify_bottleneck_property, BottleneckViolation};
pub use crate::compiled::{WaterfillInstance, WaterfillScratch};
pub use crate::feasibility::{is_feasible, link_loads, FeasibilityViolation};
pub use crate::waterfill::{max_min_fair, max_min_fair_traced, FairnessError, WaterfillTrace};
pub use crate::weighted::{max_min_fair_weighted, verify_weighted_bottleneck_property};
