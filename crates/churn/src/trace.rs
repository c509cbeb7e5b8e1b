//! Seeded open-loop trace generators.
//!
//! A [`TraceGenerator`] turns a [`TraceConfig`] into a deterministic
//! stream of [`TimedEvent`]s: flows arrive as a Poisson process at a
//! configured rate, live for a sampled lifetime, and depart. Endpoints
//! come from a [`Pattern`] — uniformly random server pairs, or a replay
//! of any `clos-workloads` pattern cycled as an arrival schedule.
//!
//! The stream is open-loop (arrivals do not react to network state) and
//! fully determined by the seed, so two generators with equal configs
//! emit byte-identical traces — the property the cross-batch
//! determinism checks in CI rely on.
//!
//! # Order contract
//!
//! Pending departures wait in a monotone radix heap over packed
//! `time << 64 | key` keys (`DepartureQueue`). They leave in `(time,
//! key)` order, and a departure due at the same nanosecond as the next
//! arrival goes first (`time_ns <= next_arrival_ns`). The heap relies on
//! the trace being monotone: a flow's departure is queued when it
//! arrives, no earlier than any departure already emitted, so no key is
//! ever pushed below the last one popped (a debug assertion checks it).
//! This is the order a `BinaryHeap<Reverse<(time, key)>>` merge gives,
//! which the tests keep as the reference. The generator knows its exact
//! remaining length ([`ExactSizeIterator`]), so collecting a trace
//! allocates once.

use std::fmt;
use std::iter::FusedIterator;

use clos_net::{ClosNetwork, Flow, NodeId};
use clos_workloads::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::{FlowEvent, FlowKey, TimedEvent};

/// Flow lifetime distribution.
#[derive(Clone, PartialEq, Debug)]
pub enum SizeDist {
    /// Exponentially distributed lifetimes with the given mean.
    Exponential {
        /// Mean lifetime in nanoseconds.
        mean_ns: u64,
    },
    /// Lifetimes drawn uniformly from an empirical table.
    Empirical {
        /// The observed lifetimes to resample from; must be non-empty.
        lifetimes_ns: Vec<u64>,
    },
}

/// Where arriving flows get their endpoints.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Pattern {
    /// Independent uniformly random source and destination servers.
    Uniform,
    /// Cycle through the flows of a `clos-workloads` pattern, turning a
    /// static workload into an arrival schedule.
    Replay(Workload),
}

/// Configuration of one open-loop churn trace.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceConfig {
    /// Poisson arrival rate in flows per simulated second; must be
    /// positive.
    pub arrival_rate_per_sec: u64,
    /// Flow lifetime distribution. Together with the arrival rate this
    /// sets the steady-state concurrency: by Little's law the expected
    /// number of live flows is `rate × mean lifetime`.
    pub lifetime: SizeDist,
    /// Endpoint pattern for arriving flows.
    pub pattern: Pattern,
    /// Total number of events (arrivals plus departures) to emit.
    pub events: usize,
    /// Seed determining the whole trace.
    pub seed: u64,
}

/// A deterministic iterator over the events of one churn trace.
///
/// Events come out in nondecreasing time order with keys assigned
/// densely in arrival order. The stream ends after exactly
/// [`TraceConfig::events`] events; flows still live at that point
/// simply never see their departure emitted, which leaves the engine
/// with a realistic standing population.
///
/// # Panics
///
/// Iterating panics before the 2^32nd arrival: keys are 32 bits wide
/// (see [`FlowKey`]).
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    rng: SmallRng,
    interarrival_mean_ns: f64,
    lifetime: SizeDist,
    sources: Vec<NodeId>,
    destinations: Vec<NodeId>,
    replay: Vec<Flow>,
    replay_pos: usize,
    departures: DepartureQueue,
    next_arrival_ns: u64,
    next_key: FlowKey,
    emitted: usize,
    budget: usize,
}

impl TraceGenerator {
    /// Builds the generator for `config` over `clos`.
    ///
    /// The topology is only consulted here (to enumerate servers or
    /// expand the replayed workload); the generator owns everything it
    /// needs afterwards.
    #[must_use]
    pub fn new(clos: &ClosNetwork, config: &TraceConfig) -> TraceGenerator {
        assert!(
            config.arrival_rate_per_sec > 0,
            "arrival rate must be positive"
        );
        if let SizeDist::Empirical { lifetimes_ns } = &config.lifetime {
            assert!(
                !lifetimes_ns.is_empty(),
                "empirical lifetime table is empty"
            );
        }
        let mut sources = Vec::new();
        let mut destinations = Vec::new();
        let mut replay = Vec::new();
        match config.pattern {
            Pattern::Uniform => {
                for tor in 0..clos.tor_count() {
                    for host in 0..clos.hosts_per_tor() {
                        sources.push(clos.source(tor, host));
                        destinations.push(clos.destination(tor, host));
                    }
                }
            }
            Pattern::Replay(workload) => {
                replay = workload.generate(clos, config.seed);
                assert!(!replay.is_empty(), "replayed workload generated no flows");
            }
        }
        TraceGenerator {
            rng: SmallRng::seed_from_u64(config.seed),
            interarrival_mean_ns: 1e9 / config.arrival_rate_per_sec as f64,
            lifetime: config.lifetime.clone(),
            sources,
            destinations,
            replay,
            replay_pos: 0,
            departures: DepartureQueue::new(),
            next_arrival_ns: 0,
            next_key: 0,
            emitted: 0,
            budget: config.events,
        }
    }

    /// Returns the number of flows that have arrived so far.
    #[must_use]
    pub fn arrivals(&self) -> u64 {
        u64::from(self.next_key)
    }

    fn sample_exponential(&mut self, mean: f64) -> u64 {
        // Inversion sampling; `1 - u` keeps the argument of `ln`
        // positive since `u` is in `[0, 1)`.
        let u: f64 = self.rng.gen();
        let sample = -(1.0 - u).ln() * mean;
        (sample as u64).max(1)
    }

    fn sample_lifetime(&mut self) -> u64 {
        match &self.lifetime {
            SizeDist::Exponential { mean_ns } => {
                let mean = *mean_ns as f64;
                self.sample_exponential(mean)
            }
            SizeDist::Empirical { lifetimes_ns } => {
                let i = self.rng.gen_range(0..lifetimes_ns.len());
                lifetimes_ns[i].max(1)
            }
        }
    }

    fn next_flow(&mut self) -> Flow {
        if self.replay.is_empty() {
            let s = self.sources[self.rng.gen_range(0..self.sources.len())];
            let d = self.destinations[self.rng.gen_range(0..self.destinations.len())];
            Flow::new(s, d)
        } else {
            let f = self.replay[self.replay_pos];
            self.replay_pos = (self.replay_pos + 1) % self.replay.len();
            f
        }
    }

    /// Emits the next arrival and returns it with its departure time.
    ///
    /// # Panics
    ///
    /// Panics before the 2^32nd arrival, whose key would not fit a
    /// [`FlowKey`].
    fn arrive(&mut self) -> (TimedEvent, u64) {
        let time_ns = self.next_arrival_ns;
        let key = self.next_key;
        assert!(
            key < FlowKey::MAX,
            "a churn trace holds fewer than 2^32 arrivals (flow keys are 32 bits)"
        );
        self.next_key += 1;
        let flow = self.next_flow();
        let life = self.sample_lifetime();
        let gap = self.interarrival_mean_ns;
        self.next_arrival_ns = time_ns + self.sample_exponential(gap);
        let event = TimedEvent {
            time_ns,
            event: FlowEvent::Arrive { key, flow },
        };
        (event, time_ns + life)
    }
}

impl Iterator for TraceGenerator {
    type Item = TimedEvent;

    fn next(&mut self) -> Option<TimedEvent> {
        if self.emitted == self.budget {
            return None;
        }
        self.emitted += 1;
        if let Some((time_ns, key)) = self.departures.peek() {
            if time_ns <= self.next_arrival_ns {
                self.departures.pop();
                return Some(TimedEvent {
                    time_ns,
                    event: FlowEvent::Depart { key },
                });
            }
        }
        let (arrival, departs_ns) = self.arrive();
        self.departures.push(departs_ns, arrival.event.key());
        Some(arrival)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.budget - self.emitted;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceGenerator {}

impl FusedIterator for TraceGenerator {}

/// Bits per digit of the departure queue's radix.
const DIGIT_BITS: u32 = 8;
/// Buckets per digit level.
const RADIX: usize = 1 << DIGIT_BITS;
/// Digit levels of a 128-bit packed key.
const LEVELS: usize = 128 / DIGIT_BITS as usize;
/// Occupancy words, one bit per bucket; at most 64 so that one summary
/// word covers them.
const WORDS: usize = LEVELS * RADIX / 64;
const _: () = assert!(128 % DIGIT_BITS == 0 && WORDS <= 64);

/// The pending departures: a monotone radix heap over packed
/// `time << 64 | key` keys.
///
/// A pending key `k` lives in the bucket named by the highest digit in
/// which it differs from `last`, the last *popped* key, and by its own
/// value of that digit. Every pending key is above `last`, so buckets in
/// index order hold ascending, disjoint key ranges, and the queue's
/// minimum is the cached minimum of the first occupied bucket. Popping it
/// makes it the new `last` and moves the rest of its bucket to strictly
/// lower digit levels, so a key moves at most once per level. That is
/// sound only while keys are distinct (flow keys are) and no key is
/// pushed below `last`: the generator pushes departures after their
/// arrival, which comes no earlier than any departure already emitted.
#[derive(Clone)]
struct DepartureQueue {
    last: u128,
    buckets: Vec<Vec<u128>>,
    /// Each bucket's minimum, `u128::MAX` when empty.
    mins: Vec<u128>,
    /// Bit `b` set when bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` set when `occupied[w]` is non-zero.
    summary: u64,
}

impl DepartureQueue {
    fn new() -> DepartureQueue {
        DepartureQueue {
            last: 0,
            buckets: vec![Vec::new(); LEVELS * RADIX],
            mins: vec![u128::MAX; LEVELS * RADIX],
            occupied: [0; WORDS],
            summary: 0,
        }
    }

    /// Queues the departure of `key` at `time_ns`.
    fn push(&mut self, time_ns: u64, key: FlowKey) {
        self.insert((u128::from(time_ns) << 64) | u128::from(key));
    }

    /// The earliest pending departure, ties broken by key.
    fn peek(&self) -> Option<(u64, FlowKey)> {
        self.first().map(|b| unpack(self.mins[b]))
    }

    /// Removes and returns the earliest pending departure.
    fn pop(&mut self) -> Option<(u64, FlowKey)> {
        let b = self.first()?;
        let min = self.mins[b];
        self.last = min;
        self.mins[b] = u128::MAX;
        self.occupied[b / 64] &= !(1 << (b % 64));
        if self.occupied[b / 64] == 0 {
            self.summary &= !(1 << (b / 64));
        }
        let mut moved = std::mem::take(&mut self.buckets[b]);
        for &k in &moved {
            if k != min {
                self.insert(k);
            }
        }
        moved.clear();
        self.buckets[b] = moved;
        Some(unpack(min))
    }

    fn first(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        Some(w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    fn insert(&mut self, k: u128) {
        debug_assert!(k > self.last, "departure queued below the last one popped");
        let level = (127 - (k ^ self.last).leading_zeros()) / DIGIT_BITS;
        let digit = (k >> (level * DIGIT_BITS)) as usize & (RADIX - 1);
        let b = level as usize * RADIX + digit;
        self.buckets[b].push(k);
        self.mins[b] = self.mins[b].min(k);
        self.occupied[b / 64] |= 1 << (b % 64);
        self.summary |= 1 << (b / 64);
    }
}

impl fmt::Debug for DepartureQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DepartureQueue")
            .field("next", &self.peek())
            .finish_non_exhaustive()
    }
}

fn unpack(k: u128) -> (u64, FlowKey) {
    ((k >> 64) as u64, k as FlowKey)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    /// The reference trace: the generator's own arrivals, with pending
    /// departures merged through a `BinaryHeap` of `(time, key)`.
    fn heap_merge(clos: &ClosNetwork, cfg: &TraceConfig) -> Vec<TimedEvent> {
        let mut g = TraceGenerator::new(clos, cfg);
        let mut heap = BinaryHeap::new();
        let mut out = Vec::new();
        while out.len() < cfg.events {
            if let Some(&Reverse((time_ns, key))) = heap.peek() {
                if time_ns <= g.next_arrival_ns {
                    heap.pop();
                    out.push(TimedEvent {
                        time_ns,
                        event: FlowEvent::Depart { key },
                    });
                    continue;
                }
            }
            let (arrival, departs_ns) = g.arrive();
            heap.push(Reverse((departs_ns, arrival.event.key())));
            out.push(arrival);
        }
        out
    }

    fn lifetime() -> impl Strategy<Value = SizeDist> {
        prop_oneof![
            (1u64..2_000_000).prop_map(|mean_ns| SizeDist::Exponential { mean_ns }),
            // A few short values drawn again and again make departures
            // tie in time; `u64::MAX / 4` leaves flows pending for good.
            prop::collection::vec(prop_oneof![0u64..64, Just(1_000), Just(u64::MAX / 4)], 1..6)
                .prop_map(|lifetimes_ns| SizeDist::Empirical { lifetimes_ns }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The radix queue emits the heap merge's trace event for event,
        /// and the generator's length is exact at every step.
        #[test]
        fn trace_matches_binary_heap_merge(
            seed in any::<u64>(),
            rate in 1_000u64..2_000_000_000,
            lifetime in lifetime(),
            replay in any::<bool>(),
            events in 0usize..800,
        ) {
            let clos = ClosNetwork::standard(2);
            let pattern = if replay {
                Pattern::Replay(Workload::Permutation)
            } else {
                Pattern::Uniform
            };
            let cfg = TraceConfig {
                arrival_rate_per_sec: rate,
                lifetime,
                pattern,
                events,
                seed,
            };
            let expected = heap_merge(&clos, &cfg);
            let mut g = TraceGenerator::new(&clos, &cfg);
            for (i, want) in expected.iter().enumerate() {
                prop_assert_eq!(g.len(), events - i);
                prop_assert_eq!(g.size_hint(), (events - i, Some(events - i)));
                prop_assert_eq!(g.next().as_ref(), Some(want));
            }
            prop_assert_eq!(g.len(), 0);
            prop_assert_eq!(g.next(), None);
            prop_assert_eq!(g.next(), None);
        }

        /// Pushes, peeks and pops in any order agree with a `BinaryHeap`,
        /// for times that tie, step by one or jump across many digits.
        #[test]
        fn queue_matches_binary_heap(
            ops in prop::collection::vec(
                (0u8..3, prop_oneof![0u64..3, 0u64..1 << 20, 0u64..1 << 62]),
                0..400
            ),
        ) {
            let mut queue = DepartureQueue::new();
            let mut heap = BinaryHeap::new();
            let (mut last_ns, mut key) = (0, 0);
            for (op, delta) in ops {
                if op == 0 {
                    let popped = queue.pop();
                    prop_assert_eq!(popped, heap.pop().map(|Reverse(d)| d));
                    if let Some((time_ns, _)) = popped {
                        last_ns = time_ns;
                    }
                } else {
                    // Keys are fresh, so a push at the last popped time
                    // still sorts after it.
                    key += 1;
                    queue.push(last_ns + delta, key);
                    heap.push(Reverse((last_ns + delta, key)));
                }
                prop_assert_eq!(queue.peek(), heap.peek().map(|&Reverse(d)| d));
            }
        }
    }

    fn config(pattern: Pattern, events: usize, seed: u64) -> TraceConfig {
        TraceConfig {
            arrival_rate_per_sec: 1_000_000,
            lifetime: SizeDist::Exponential { mean_ns: 50_000 },
            pattern,
            events,
            seed,
        }
    }

    #[test]
    fn deterministic_and_time_ordered() {
        let clos = ClosNetwork::standard(3);
        let cfg = config(Pattern::Uniform, 500, 42);
        let a: Vec<TimedEvent> = TraceGenerator::new(&clos, &cfg).collect();
        let b: Vec<TimedEvent> = TraceGenerator::new(&clos, &cfg).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        for w in a.windows(2) {
            assert!(w[0].time_ns <= w[1].time_ns);
        }
    }

    #[test]
    fn departures_follow_matching_arrivals() {
        let clos = ClosNetwork::standard(2);
        let cfg = config(Pattern::Uniform, 400, 7);
        let mut live = BTreeSet::new();
        let mut next_key = 0;
        for ev in TraceGenerator::new(&clos, &cfg) {
            match ev.event {
                FlowEvent::Arrive { key, .. } => {
                    assert_eq!(key, next_key, "keys are dense in arrival order");
                    next_key += 1;
                    assert!(live.insert(key));
                }
                FlowEvent::Depart { key } => {
                    assert!(live.remove(&key), "departure without live arrival");
                }
            }
        }
        assert!(next_key > 0);
    }

    #[test]
    fn replay_cycles_workload_flows() {
        let clos = ClosNetwork::standard(2);
        let workload = Workload::Permutation;
        let expected = workload.generate(&clos, 9);
        let cfg = config(Pattern::Replay(workload), 300, 9);
        let mut seen = Vec::new();
        for ev in TraceGenerator::new(&clos, &cfg) {
            if let FlowEvent::Arrive { flow, .. } = ev.event {
                seen.push(flow);
            }
        }
        assert!(
            seen.len() > expected.len(),
            "trace should wrap the workload"
        );
        for (i, flow) in seen.iter().enumerate() {
            assert_eq!(*flow, expected[i % expected.len()]);
        }
    }

    #[test]
    #[should_panic(expected = "fewer than 2^32 arrivals")]
    fn key_space_exhaustion_panics() {
        let clos = ClosNetwork::standard(2);
        let mut g = TraceGenerator::new(&clos, &config(Pattern::Uniform, 4, 1));
        // The last key a trace may hand out is `FlowKey::MAX - 1`.
        g.next_key = FlowKey::MAX - 1;
        let first = g.next().expect("a budgeted event");
        assert_eq!(first.event.key(), FlowKey::MAX - 1);
        // One flow is pending, so of the next two events at least one is
        // an arrival.
        g.next();
        g.next();
    }

    #[test]
    fn empirical_lifetimes_resample_table() {
        let clos = ClosNetwork::standard(2);
        let cfg = TraceConfig {
            arrival_rate_per_sec: 500_000,
            lifetime: SizeDist::Empirical {
                lifetimes_ns: vec![10_000, 20_000, 40_000],
            },
            pattern: Pattern::Uniform,
            events: 200,
            seed: 3,
        };
        let events: Vec<TimedEvent> = TraceGenerator::new(&clos, &cfg).collect();
        assert_eq!(events.len(), 200);
        assert!(events.iter().any(|e| !e.event.is_arrival()));
    }
}
