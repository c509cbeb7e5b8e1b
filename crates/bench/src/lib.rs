//! Experiment harness for the clos-routing workspace.
//!
//! Every figure, worked example, and theorem bound of the paper maps to one
//! experiment module (the index lives in `DESIGN.md`; measured-vs-paper
//! numbers in `EXPERIMENTS.md`):
//!
//! | Id | Paper artifact | Module |
//! |----|----------------|--------|
//! | E1 | Figure 1 / Example 2.3 | [`experiments::e1_example_2_3`] |
//! | E2 | Figure 2 / Theorem 3.4 (price of fairness) | [`experiments::e2_price_of_fairness`] |
//! | E3 | Figure 3 / Theorem 4.2 (replication infeasibility) | [`experiments::e3_replication`] |
//! | E4 | Theorem 4.3 (1/n starvation) | [`experiments::e4_starvation`] |
//! | E5 | Figure 4 / Theorem 5.4 (Doom-Switch) | [`experiments::e5_doom_switch`] |
//! | E6 | §6 stochastic rate study | [`experiments::e6_rate_study`] |
//! | E7 | §7 scheduling vs congestion control (FCT) | [`experiments::e7_fct`] |
//! | E8 | Definitions 2.4/2.5 exactness cross-checks | [`experiments::e8_exactness`] |
//! | E9 | §7 (R2) open question: relative max-min fairness | [`experiments::e9_relative_fairness`] |
//! | E10 | §6 multirate rearrangeability (generalized Clos) | [`experiments::e10_oversubscription`] |
//! | E11 | §1 demand satisfaction / Definition 2.1 (LP cross-validation) | [`experiments::e11_lp_cross_validation`] |
//! | E12 | §7 (R2) ablation: weighted congestion control | [`experiments::e12_weighted_fairness`] |
//! | E13 | Online churn ablation (beyond the paper) | [`experiments::e13_churn`] |
//! | E14 | Failure robustness ablation (beyond the paper) | [`experiments::e14_failures`] |
//! | E15 | Topology generality: Clos, Benes, fat-tree (beyond the paper) | [`experiments::e15_topologies`] |
//!
//! Run them all with the `repro` binary:
//!
//! ```text
//! cargo run --release -p clos-bench --bin repro -- --experiment all
//! ```

pub mod experiments;
pub mod table;
