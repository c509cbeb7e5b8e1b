//! Deterministic, seeded failure models for Clos fabrics.
//!
//! The paper's gaps are proven on pristine symmetric fabrics; this
//! module supplies the machinery for asking how they behave as the
//! fabric degrades. Failures never rewrite the topology: they are
//! expressed as [`CapacityMap`] *overlays* — new absolute capacities
//! for a subset of links — applied via
//! [`ClosNetwork::with_capacities`], so every [`NodeId`] and
//! [`LinkId`] stays stable across any failure history. A removed
//! middle switch is simply a middle whose fabric links all carry zero
//! capacity; dense per-link vectors built before the failure remain
//! valid after it.
//!
//! Three failure shapes from the data-center literature are modelled
//! (cf. Bankhamer, Elsässer & Schmid, arXiv 2108.02136, for the local
//! fast-reroute setting they motivate):
//!
//! * [`FailureEvent::DegradeLink`] — a single fabric link loses a
//!   fraction of its capacity (optics aging, partial lane failure);
//! * [`FailureEvent::RemoveMiddle`] — a whole middle switch goes dark
//!   (power/firmware), zeroing all of its uplinks and downlinks;
//! * [`FailureEvent::PodFailure`] — a correlated event degrades every
//!   fabric link touching one ToR pair (shared power/cooling domain).
//!
//! A [`FailureSchedule`] is an ordered list of events; `overlay_at(k)`
//! folds the first `k` into one cumulative overlay. Schedules are
//! generated from a seed with an inline SplitMix64 generator — no
//! external RNG dependency — so every consumer (experiments, churn,
//! CI byte-diffs across thread counts) sees the identical sequence.
//!
//! [`NodeId`]: crate::NodeId

use std::collections::BTreeMap;

use clos_rational::Rational;

use crate::{Capacity, ClosNetwork, LinkId, Network, NodeKind};

/// New absolute capacities for a subset of links, keyed by stable
/// [`LinkId`]. A `BTreeMap` keeps iteration (and hence application and
/// `Debug` output) in deterministic identifier order.
pub type CapacityMap = BTreeMap<LinkId, Capacity>;

/// Overlay scaling every switch↔switch link of `net` to `nominal /
/// oversub` (host access links keep their capacity, mirroring the
/// fat-tree's native oversubscription, which only rescales an interior
/// tier): the oversubscribed Clos and Benes fabrics of experiment e15.
#[must_use]
pub fn interior_overlay(net: &Network, nominal: Rational, oversub: u32) -> CapacityMap {
    let scaled = Capacity::finite_value(nominal / Rational::from_integer(i128::from(oversub)));
    net.links()
        .filter(|l| {
            net.node(l.src()).kind() != NodeKind::Source
                && net.node(l.dst()).kind() != NodeKind::Destination
        })
        .map(|l| (l.id(), scaled))
        .collect()
}

/// One failure event, expressed in Clos coordinates so schedules stay
/// meaningful across structurally identical fabrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureEvent {
    /// Multiplies one fabric link's current capacity by `factor`
    /// (`0 <= factor < 1`; zero removes the link).
    DegradeLink {
        /// The degraded link.
        link: LinkId,
        /// The multiplicative survival factor.
        factor: Rational,
    },
    /// Removes middle switch `middle`: all of its uplinks and
    /// downlinks drop to zero capacity.
    RemoveMiddle {
        /// The removed middle switch index.
        middle: usize,
    },
    /// Correlated pod event: every fabric uplink of input ToR `tor`
    /// and every fabric downlink of output ToR `tor` is multiplied by
    /// `factor`.
    PodFailure {
        /// The affected ToR pair index.
        tor: usize,
        /// The multiplicative survival factor.
        factor: Rational,
    },
}

/// An ordered, reproducible sequence of [`FailureEvent`]s.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FailureSchedule {
    events: Vec<FailureEvent>,
}

/// SplitMix64: the tiny, well-studied seed expander (Steele et al.,
/// "Fast splittable pseudorandom number generators"). Inlined so the
/// base `clos-net` crate keeps its zero-dependency RNG story while
/// schedules stay bit-reproducible everywhere.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`. The modulo bias is below `n / 2^64`,
    /// irrelevant for the single-digit ranges used here.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

impl FailureSchedule {
    /// Wraps an explicit event list.
    #[must_use]
    pub fn new(events: Vec<FailureEvent>) -> FailureSchedule {
        FailureSchedule { events }
    }

    /// Generates `count` events for `clos` from `seed`, deterministic
    /// per `(clos dimensions, seed, count)`.
    ///
    /// The mix is half single-link degradations (factor 1/2), a
    /// quarter middle removals, and a quarter correlated pod events
    /// (factor 1/2). Middle removals never take out the last surviving
    /// middle: a fully dark fabric starves everything and measures
    /// nothing, so the generator degrades a link of a surviving middle
    /// instead.
    #[must_use]
    pub fn random(clos: &ClosNetwork, seed: u64, count: usize) -> FailureSchedule {
        let n = clos.middle_count();
        let tors = clos.tor_count();
        let half = Rational::new(1, 2);
        let mut rng = SplitMix64(seed);
        let mut removed = vec![false; n];
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = rng.below(4);
            let event = match kind {
                0 | 1 => {
                    let up = rng.below(2) == 0;
                    let tor = rng.below(tors);
                    let middle = rng.below(n);
                    let link = if up {
                        clos.uplink(tor, middle)
                    } else {
                        clos.downlink(middle, tor)
                    };
                    FailureEvent::DegradeLink { link, factor: half }
                }
                2 => {
                    let surviving: Vec<usize> = (0..n).filter(|&m| !removed[m]).collect();
                    if surviving.len() > 1 {
                        let middle = surviving[rng.below(surviving.len())];
                        removed[middle] = true;
                        FailureEvent::RemoveMiddle { middle }
                    } else {
                        let tor = rng.below(tors);
                        FailureEvent::DegradeLink {
                            link: clos.uplink(tor, surviving[0]),
                            factor: half,
                        }
                    }
                }
                _ => FailureEvent::PodFailure {
                    tor: rng.below(tors),
                    factor: half,
                },
            };
            events.push(event);
        }
        FailureSchedule { events }
    }

    /// The events in schedule order.
    #[must_use]
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Folds the first `k` events into one cumulative overlay against
    /// the *pristine* capacities of `clos`. Degradations compound:
    /// two halvings of the same link leave a quarter of its capacity.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the schedule length, if an event names a
    /// middle/ToR outside `clos`, or if a degraded link is infinite
    /// (no Clos fabric link is).
    #[must_use]
    pub fn overlay_at(&self, clos: &ClosNetwork, k: usize) -> CapacityMap {
        assert!(
            k <= self.events.len(),
            "overlay_at({k}) exceeds schedule length {}",
            self.events.len()
        );
        let mut overlay = CapacityMap::new();
        for event in &self.events[..k] {
            apply_event(clos, &mut overlay, event);
        }
        overlay
    }
}

/// Folds one event into a cumulative overlay: reads the link's current
/// (overlaid, else pristine) capacity and writes the degraded value.
///
/// # Panics
///
/// Panics if the event names a middle or ToR outside `clos`, or if an
/// affected link has infinite capacity (no Clos fabric link does).
pub fn apply_event(clos: &ClosNetwork, overlay: &mut CapacityMap, event: &FailureEvent) {
    let degrade = |overlay: &mut CapacityMap, link: LinkId, factor: Rational| {
        let current = overlay
            .get(&link)
            .copied()
            .unwrap_or_else(|| clos.network().link(link).capacity());
        let value = current
            .finite()
            .expect("failure overlays only degrade finite links");
        overlay.insert(link, Capacity::finite_value(value * factor));
    };
    match *event {
        FailureEvent::DegradeLink { link, factor } => degrade(overlay, link, factor),
        FailureEvent::RemoveMiddle { middle } => {
            for tor in 0..clos.tor_count() {
                degrade(overlay, clos.uplink(tor, middle), Rational::ZERO);
                degrade(overlay, clos.downlink(middle, tor), Rational::ZERO);
            }
        }
        FailureEvent::PodFailure { tor, factor } => {
            for middle in 0..clos.middle_count() {
                degrade(overlay, clos.uplink(tor, middle), factor);
                degrade(overlay, clos.downlink(middle, tor), factor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_reproducible_and_seed_sensitive() {
        let clos = ClosNetwork::standard(3);
        let a = FailureSchedule::random(&clos, 11, 12);
        let b = FailureSchedule::random(&clos, 11, 12);
        let c = FailureSchedule::random(&clos, 12, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 12);
    }

    #[test]
    fn overlays_are_cumulative_and_compound() {
        let clos = ClosNetwork::standard(2);
        let link = clos.uplink(0, 0);
        let half = Rational::new(1, 2);
        let schedule = FailureSchedule::new(vec![
            FailureEvent::DegradeLink { link, factor: half },
            FailureEvent::DegradeLink { link, factor: half },
        ]);
        let one = schedule.overlay_at(&clos, 1);
        let two = schedule.overlay_at(&clos, 2);
        assert_eq!(one[&link], Capacity::finite_value(half));
        assert_eq!(two[&link], Capacity::finite_value(Rational::new(1, 4)));
        assert!(schedule.overlay_at(&clos, 0).is_empty());
    }

    #[test]
    fn middle_removal_zeroes_every_fabric_link_of_the_middle() {
        let clos = ClosNetwork::standard(3);
        let schedule = FailureSchedule::new(vec![FailureEvent::RemoveMiddle { middle: 1 }]);
        let overlay = schedule.overlay_at(&clos, 1);
        assert_eq!(overlay.len(), 2 * clos.tor_count());
        for tor in 0..clos.tor_count() {
            assert_eq!(
                overlay[&clos.uplink(tor, 1)],
                Capacity::finite_value(Rational::ZERO)
            );
            assert_eq!(
                overlay[&clos.downlink(1, tor)],
                Capacity::finite_value(Rational::ZERO)
            );
        }
    }

    #[test]
    fn random_schedules_never_remove_every_middle() {
        for n in [2usize, 3] {
            let clos = ClosNetwork::standard(n);
            for seed in 0..32 {
                let schedule = FailureSchedule::random(&clos, seed, 24);
                let removed = schedule
                    .events()
                    .iter()
                    .filter(|e| matches!(e, FailureEvent::RemoveMiddle { .. }))
                    .count();
                assert!(removed < n, "seed {seed} removed all {n} middles");
            }
        }
    }

    #[test]
    fn with_capacities_keeps_identifiers_stable() {
        let clos = ClosNetwork::standard(2);
        let schedule = FailureSchedule::new(vec![FailureEvent::RemoveMiddle { middle: 0 }]);
        let overlay = schedule.overlay_at(&clos, 1);
        let failed = clos.with_capacities(&overlay);
        assert_eq!(
            failed.network().link_count(),
            clos.network().link_count(),
            "overlays must not add or remove links"
        );
        assert_eq!(failed.uplink(1, 1), clos.uplink(1, 1));
        assert_eq!(
            failed.network().link(clos.uplink(0, 0)).capacity(),
            Capacity::finite_value(Rational::ZERO)
        );
        assert_eq!(
            failed.network().link(clos.uplink(0, 1)).capacity(),
            Capacity::unit()
        );
    }
}
