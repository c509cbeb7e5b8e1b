//! Flow-level simulation for the clos-routing workspace.
//!
//! Two simulators back the paper's empirical claims:
//!
//! * [`rate_study`] — the extended-version evaluation (§6): route a flow
//!   collection with a practical algorithm, impose max-min fair rates, and
//!   compare each flow's rate to its macro-switch rate. For stochastic
//!   inputs the ratios concentrate near 1; for the adversarial
//!   constructions they collapse to `1/n` (Theorem 4.3) or to ≈0
//!   (Doom-Switch, Theorem 5.4).
//! * [`fct`] — the scheduling discussion of §7 (R1): a discrete-event
//!   flow-level simulator measuring flow completion times under max-min
//!   fair congestion control versus an admission-control scheduler that
//!   runs flows at full link rate with preemptive priority in arrival
//!   order. Arrivals and departures drive a
//!   `clos-churn` engine, which places flows and maintains the fair rates.
//!
//! Both run the same compiled water-filling allocator as the exact
//! theorem machinery, instantiated at `TotalF64` for speed.

pub mod fct;
pub mod rate_study;
pub mod utilization;

pub use crate::fct::{
    simulate_fct, simulate_fct_records, FctConfig, FctStats, FlowRecord, SizeDist, Transport,
};
pub use crate::rate_study::{rate_ratio_study, summarize, RateStudy, RatioSummary};
pub use crate::utilization::{utilization, UtilizationReport};
