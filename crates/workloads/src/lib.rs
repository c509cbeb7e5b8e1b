//! Flow-collection generators for Clos network experiments.
//!
//! The paper's extended-version evaluation runs routing algorithms over
//! *stochastic inputs* (§6); this crate provides the standard data-center
//! traffic patterns as seeded, reproducible generators:
//!
//! * [`Workload::UniformRandom`] — independent uniformly random
//!   source–destination pairs (the classic stochastic input);
//! * [`Workload::Permutation`] — a random permutation: one flow per source
//!   and per destination (the admission-control regime where Clos networks
//!   are throughput-optimal, §1);
//! * [`Workload::Incast`] — many senders, one destination (the partition/
//!   aggregate pattern that motivates congestion control);
//! * [`Workload::Zipf`] — skewed popularity: destinations drawn from a
//!   Zipf distribution, sources uniform (elephant hotspots);
//! * [`Workload::Stride`] — the deterministic stride pattern used in Clos
//!   evaluations since Al-Fares et al.;
//! * [`Workload::AllToAll`] — every pair among the first `hosts` servers
//!   (shuffle phases).
//!
//! All generators are deterministic functions of `(topology, seed)`.
//!
//! # Examples
//!
//! ```
//! use clos_net::ClosNetwork;
//! use clos_workloads::Workload;
//!
//! let clos = ClosNetwork::standard(3);
//! let flows = Workload::Permutation.generate(&clos, 7);
//! assert_eq!(flows.len(), 18); // one per source
//! ```

use std::fmt;

use clos_net::{ClosNetwork, Flow};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A named, parameterized traffic pattern.
///
/// See the [crate docs](crate) for the catalogue. Generation is
/// deterministic in the seed so experiment tables are reproducible.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Workload {
    /// `flows` independent uniformly random source–destination pairs.
    UniformRandom {
        /// Number of flows to draw.
        flows: usize,
    },
    /// A uniformly random permutation: each source sends exactly one flow
    /// and each destination receives exactly one.
    Permutation,
    /// `senders` random distinct sources all sending to one random
    /// destination.
    Incast {
        /// Number of concurrent senders (capped at the host count).
        senders: usize,
    },
    /// `flows` pairs with Zipf-distributed destinations (exponent
    /// `s ≥ 0`) and uniform sources. Exponent 0 degenerates to uniform.
    Zipf {
        /// Number of flows to draw.
        flows: usize,
        /// The Zipf exponent; larger means more skew.
        exponent: f64,
    },
    /// Deterministic stride: host `g` sends to host `(g + stride) mod H`.
    Stride {
        /// The stride offset (must not be a multiple of the host count for
        /// cross-traffic).
        stride: usize,
    },
    /// Every ordered pair among the first `hosts` servers (including the
    /// self pair's distinct destination server).
    AllToAll {
        /// Number of participating servers (capped at the host count).
        hosts: usize,
    },
}

impl Workload {
    /// Returns a short identifier for reports, e.g. `"uniform(64)"`.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Workload::UniformRandom { flows } => format!("uniform({flows})"),
            Workload::Permutation => "permutation".to_string(),
            Workload::Incast { senders } => format!("incast({senders})"),
            Workload::Zipf { flows, exponent } => format!("zipf({flows},s={exponent})"),
            Workload::Stride { stride } => format!("stride({stride})"),
            Workload::AllToAll { hosts } => format!("all-to-all({hosts})"),
        }
    }

    /// Returns a one-line human-readable description of the pattern and
    /// its parameters, for experiment tables and trace reports (the
    /// short [`name`](Self::name) stays the machine-friendly key).
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Workload::UniformRandom { flows } => {
                format!("{flows} independent uniformly random source-destination pairs")
            }
            Workload::Permutation => {
                "random permutation: one flow per source and per destination".to_string()
            }
            Workload::Incast { senders } => format!(
                "incast: {senders} distinct senders (capped at the host count) \
                 to one random destination"
            ),
            Workload::Zipf { flows, exponent } => {
                format!("{flows} flows with Zipf(s={exponent}) destinations and uniform sources")
            }
            Workload::Stride { stride } => {
                format!("deterministic stride: host g sends to host (g + {stride}) mod H")
            }
            Workload::AllToAll { hosts } => format!(
                "all-to-all: every ordered pair among the first {hosts} servers \
                 (capped at the host count)"
            ),
        }
    }

    /// Generates the flow collection on `clos`, deterministically in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is degenerate for the topology (zero flows,
    /// zero senders or hosts, or a stride that is a multiple of the host
    /// count). Oversized `Incast` sender and `AllToAll` host counts are
    /// capped at the host count rather than rejected.
    #[must_use]
    pub fn generate(&self, clos: &ClosNetwork, seed: u64) -> Vec<Flow> {
        let mut rng = StdRng::seed_from_u64(seed);
        let host_count = clos.tor_count() * clos.hosts_per_tor();
        let source = |g: usize| clos.source(g / clos.hosts_per_tor(), g % clos.hosts_per_tor());
        let dest = |g: usize| clos.destination(g / clos.hosts_per_tor(), g % clos.hosts_per_tor());
        match *self {
            Workload::UniformRandom { flows } => {
                assert!(flows > 0, "need at least one flow");
                (0..flows)
                    .map(|_| {
                        Flow::new(
                            source(rng.gen_range(0..host_count)),
                            dest(rng.gen_range(0..host_count)),
                        )
                    })
                    .collect()
            }
            Workload::Permutation => {
                let mut targets: Vec<usize> = (0..host_count).collect();
                targets.shuffle(&mut rng);
                targets
                    .iter()
                    .enumerate()
                    .map(|(g, &t)| Flow::new(source(g), dest(t)))
                    .collect()
            }
            Workload::Incast { senders } => {
                assert!(senders > 0, "need at least one sender");
                let senders = senders.min(host_count);
                let target = rng.gen_range(0..host_count);
                let mut pool: Vec<usize> = (0..host_count).collect();
                pool.shuffle(&mut rng);
                pool.into_iter()
                    .take(senders)
                    .map(|g| Flow::new(source(g), dest(target)))
                    .collect()
            }
            Workload::Zipf { flows, exponent } => {
                assert!(flows > 0, "need at least one flow");
                assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
                // Inverse-CDF sampling over ranks 1..=host_count.
                let weights: Vec<f64> = (1..=host_count)
                    .map(|r| 1.0 / (r as f64).powf(exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut cdf = Vec::with_capacity(host_count);
                let mut acc = 0.0;
                for w in &weights {
                    acc += w / total;
                    cdf.push(acc);
                }
                // Random rank-to-host mapping so the hotspot is not always
                // host 0.
                let mut ranked: Vec<usize> = (0..host_count).collect();
                ranked.shuffle(&mut rng);
                (0..flows)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        let idx = cdf.partition_point(|&c| c < u).min(host_count - 1);
                        Flow::new(source(rng.gen_range(0..host_count)), dest(ranked[idx]))
                    })
                    .collect()
            }
            Workload::Stride { stride } => {
                assert!(
                    stride % host_count != 0,
                    "stride must not be a multiple of the host count"
                );
                (0..host_count)
                    .map(|g| Flow::new(source(g), dest((g + stride) % host_count)))
                    .collect()
            }
            Workload::AllToAll { hosts } => {
                assert!(hosts >= 1, "need at least one host");
                let hosts = hosts.min(host_count);
                let mut flows = Vec::with_capacity(hosts * hosts);
                for s in 0..hosts {
                    for t in 0..hosts {
                        flows.push(Flow::new(source(s), dest(t)));
                    }
                }
                flows
            }
        }
    }
}

impl fmt::Display for Workload {
    /// Formats as the short [`name`](Workload::name), e.g.
    /// `all-to-all(5)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Generates several workloads (each with a seed derived from `seed`) and
/// concatenates the flow collections.
///
/// Real data-center traffic is a blend — e.g. a latency-sensitive incast
/// riding on top of background uniform traffic. The combined collection is
/// deterministic in `(workloads, seed)`.
///
/// # Panics
///
/// Panics if any component generator panics (degenerate parameters).
///
/// # Examples
///
/// ```
/// use clos_net::ClosNetwork;
/// use clos_workloads::{combine, Workload};
///
/// let clos = ClosNetwork::standard(2);
/// let flows = combine(
///     &[Workload::Permutation, Workload::Incast { senders: 4 }],
///     &clos,
///     7,
/// );
/// assert_eq!(flows.len(), 8 + 4);
/// ```
#[must_use]
pub fn combine(workloads: &[Workload], clos: &ClosNetwork, seed: u64) -> Vec<Flow> {
    workloads
        .iter()
        .enumerate()
        .flat_map(|(i, w)| w.generate(clos, seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::validate_flows;
    use std::collections::HashSet;

    fn clos() -> ClosNetwork {
        ClosNetwork::standard(3)
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let clos = clos();
        for w in [
            Workload::UniformRandom { flows: 40 },
            Workload::Permutation,
            Workload::Incast { senders: 9 },
            Workload::Zipf {
                flows: 40,
                exponent: 1.2,
            },
        ] {
            let a = w.generate(&clos, 123);
            let b = w.generate(&clos, 123);
            let c = w.generate(&clos, 124);
            assert_eq!(a, b, "{}", w.name());
            assert!(validate_flows(clos.network(), &a).is_ok());
            // Different seed should (with these sizes) differ.
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn uniform_has_requested_count() {
        let clos = clos();
        let flows = Workload::UniformRandom { flows: 77 }.generate(&clos, 1);
        assert_eq!(flows.len(), 77);
    }

    #[test]
    fn permutation_uses_each_endpoint_once() {
        let clos = clos();
        let flows = Workload::Permutation.generate(&clos, 5);
        assert_eq!(flows.len(), 18);
        let srcs: HashSet<_> = flows.iter().map(|f| f.src()).collect();
        let dsts: HashSet<_> = flows.iter().map(|f| f.dst()).collect();
        assert_eq!(srcs.len(), 18);
        assert_eq!(dsts.len(), 18);
    }

    #[test]
    fn incast_targets_single_destination() {
        let clos = clos();
        let flows = Workload::Incast { senders: 7 }.generate(&clos, 2);
        assert_eq!(flows.len(), 7);
        let dsts: HashSet<_> = flows.iter().map(|f| f.dst()).collect();
        assert_eq!(dsts.len(), 1);
        let srcs: HashSet<_> = flows.iter().map(|f| f.src()).collect();
        assert_eq!(srcs.len(), 7, "senders are distinct");
    }

    #[test]
    fn incast_caps_senders_at_host_count() {
        let clos = clos();
        let flows = Workload::Incast { senders: 10_000 }.generate(&clos, 2);
        assert_eq!(flows.len(), 18);
    }

    #[test]
    fn zipf_skews_destinations() {
        let clos = clos();
        let flows = Workload::Zipf {
            flows: 2000,
            exponent: 1.5,
        }
        .generate(&clos, 3);
        let mut counts = std::collections::HashMap::new();
        for f in &flows {
            *counts.entry(f.dst()).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        // The hottest destination should dominate a uniform share (2000/18
        // ≈ 111) by a wide margin.
        assert!(max > 400, "max destination count {max} not skewed");
    }

    #[test]
    fn zipf_exponent_zero_is_roughly_uniform() {
        let clos = clos();
        let flows = Workload::Zipf {
            flows: 3600,
            exponent: 0.0,
        }
        .generate(&clos, 4);
        let mut counts = std::collections::HashMap::new();
        for f in &flows {
            *counts.entry(f.dst()).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(max < 400, "uniform sampling should not concentrate: {max}");
    }

    #[test]
    fn stride_is_a_permutation() {
        let clos = clos();
        let flows = Workload::Stride { stride: 5 }.generate(&clos, 0);
        assert_eq!(flows.len(), 18);
        let dsts: HashSet<_> = flows.iter().map(|f| f.dst()).collect();
        assert_eq!(dsts.len(), 18);
        // Deterministic regardless of seed.
        assert_eq!(flows, Workload::Stride { stride: 5 }.generate(&clos, 9));
    }

    #[test]
    fn all_to_all_counts() {
        let clos = clos();
        let flows = Workload::AllToAll { hosts: 4 }.generate(&clos, 0);
        assert_eq!(flows.len(), 16);
    }

    #[test]
    #[should_panic(expected = "multiple of the host count")]
    fn degenerate_stride_rejected() {
        let _ = Workload::Stride { stride: 18 }.generate(&clos(), 0);
    }

    #[test]
    fn oversized_all_to_all_caps_at_host_count() {
        // 18 hosts on C_3: requesting more must cap, not panic (and not
        // silently fabricate nonexistent servers).
        let clos = clos();
        let capped = Workload::AllToAll { hosts: 19 }.generate(&clos, 0);
        let exact = Workload::AllToAll { hosts: 18 }.generate(&clos, 0);
        assert_eq!(capped, exact);
        assert_eq!(capped.len(), 18 * 18);
        assert!(validate_flows(clos.network(), &capped).is_ok());
        let huge = Workload::AllToAll { hosts: usize::MAX }.generate(&clos, 0);
        assert_eq!(huge, exact);
    }

    #[test]
    fn oversized_incast_matches_exact_fit() {
        // The sender cap must behave exactly like requesting the full
        // host count, for any oversized request.
        let clos = clos();
        let capped = Workload::Incast { senders: 10_000 }.generate(&clos, 6);
        let exact = Workload::Incast { senders: 18 }.generate(&clos, 6);
        assert_eq!(capped, exact);
        assert!(validate_flows(clos.network(), &capped).is_ok());
    }

    #[test]
    fn combine_concatenates_deterministically() {
        let clos = clos();
        let parts = [
            Workload::Permutation,
            Workload::Incast { senders: 5 },
            Workload::UniformRandom { flows: 7 },
        ];
        let a = combine(&parts, &clos, 11);
        let b = combine(&parts, &clos, 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 18 + 5 + 7);
        assert!(validate_flows(clos.network(), &a).is_ok());
        // Different component seeds: the two random parts differ even
        // within one combined collection.
        let c = combine(&parts, &clos, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Workload::Permutation.name(), "permutation");
        assert_eq!(Workload::UniformRandom { flows: 8 }.name(), "uniform(8)");
        assert_eq!(Workload::Incast { senders: 3 }.name(), "incast(3)");
        assert_eq!(Workload::Stride { stride: 2 }.name(), "stride(2)");
        assert_eq!(Workload::AllToAll { hosts: 5 }.name(), "all-to-all(5)");
    }

    #[test]
    fn display_matches_name() {
        for w in [
            Workload::Permutation,
            Workload::UniformRandom { flows: 8 },
            Workload::Incast { senders: 3 },
            Workload::Zipf {
                flows: 4,
                exponent: 1.5,
            },
            Workload::Stride { stride: 2 },
            Workload::AllToAll { hosts: 5 },
        ] {
            assert_eq!(w.to_string(), w.name());
        }
    }

    #[test]
    fn descriptions_mention_the_parameters() {
        assert!(Workload::UniformRandom { flows: 64 }
            .describe()
            .contains("64"));
        assert!(Workload::Incast { senders: 12 }.describe().contains("12"));
        assert!(Workload::Zipf {
            flows: 10,
            exponent: 1.5
        }
        .describe()
        .contains("1.5"));
        assert!(Workload::Stride { stride: 7 }.describe().contains("7"));
        assert!(Workload::AllToAll { hosts: 9 }.describe().contains("9"));
        assert!(Workload::Permutation.describe().contains("permutation"));
    }
}
