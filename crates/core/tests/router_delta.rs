//! The local-search and annealing routers against sort-per-move references.
//!
//! Both routers score a single-flow move by its delta: the few interior
//! loads it changes decide how the sorted congestion vector moves. The
//! references below score every move the plain way, by sorting the full
//! congestion vector after it, exactly as the routers did before. They must
//! produce identical routings: on Clos fabrics, where a path has two
//! interior links, and on Benes and fat-tree fabrics, where different
//! classes of one flow share interior links.

use clos_core::routers::{host_limited_demands, AnnealingRouter, LocalSearchRouter, Router};
use clos_net::{BenesNetwork, ClosNetwork, Fabric, FatTree, Flow, LinkId, NodeKind, Routing};
use clos_rational::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interior links per (flow, class) and a per-link load table.
struct View {
    links: Vec<Vec<Vec<LinkId>>>,
    interior: Vec<LinkId>,
    loads: Vec<Rational>,
}

impl View {
    fn new<F: Fabric>(fabric: &F, flows: &[Flow]) -> View {
        let links = flows
            .iter()
            .map(|&f| {
                (0..fabric.class_count())
                    .map(|c| {
                        let path = fabric.path_via_class(f, c);
                        let l = path.links();
                        l[1..l.len() - 1].to_vec()
                    })
                    .collect()
            })
            .collect();
        let net = fabric.network();
        let interior = net
            .links()
            .filter(|l| {
                net.node(l.src()).kind() != NodeKind::Source
                    && net.node(l.dst()).kind() != NodeKind::Destination
            })
            .map(|l| l.id())
            .collect();
        View {
            links,
            interior,
            loads: vec![Rational::ZERO; net.link_count()],
        }
    }

    fn shift(&mut self, flow: usize, class: usize, by: Rational) {
        for &l in &self.links[flow][class] {
            self.loads[l.index()] += by;
        }
    }

    fn vector(&self) -> Vec<Rational> {
        let mut v: Vec<Rational> = self
            .interior
            .iter()
            .map(|&l| self.loads[l.index()])
            .collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Greedy seed: largest demand first, onto the class whose path has
    /// the lowest max load after placement (ties to the lower class).
    fn greedy(&mut self, demands: &[Rational]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by(|&a, &b| demands[b].cmp(&demands[a]).then(a.cmp(&b)));
        let mut assignment = vec![0; demands.len()];
        for &i in &order {
            let n = self.links[i].len();
            let best = (0..n)
                .min_by_key(|&c| {
                    let after = self.links[i][c]
                        .iter()
                        .map(|&l| self.loads[l.index()] + demands[i])
                        .fold(Rational::ZERO, Rational::max);
                    (after, c)
                })
                .unwrap();
            self.shift(i, best, demands[i]);
            assignment[i] = best;
        }
        assignment
    }
}

fn routing<F: Fabric>(fabric: &F, flows: &[Flow], classes: &[usize]) -> Routing {
    flows
        .iter()
        .zip(classes)
        .map(|(&f, &c)| fabric.path_via_class(f, c))
        .collect()
}

/// Local search, re-sorting the whole congestion vector for every move.
fn reference_local_search<F: Fabric>(
    fabric: &F,
    demands: &[Rational],
    flows: &[Flow],
    max_rounds: usize,
) -> Routing {
    let mut view = View::new(fabric, flows);
    let n = fabric.class_count();
    let mut assignment = view.greedy(demands);
    for _ in 0..max_rounds {
        let mut improved = false;
        for i in 0..flows.len() {
            if demands[i].is_zero() {
                continue;
            }
            let current = view.vector();
            let from = assignment[i];
            let mut best: Option<(usize, Vec<Rational>)> = None;
            for c in (0..n).filter(|&c| c != from) {
                view.shift(i, from, -demands[i]);
                view.shift(i, c, demands[i]);
                let candidate = view.vector();
                let bar = best.as_ref().map_or(&current, |b| &b.1);
                if candidate < *bar {
                    best = Some((c, candidate));
                }
                view.shift(i, c, -demands[i]);
                view.shift(i, from, demands[i]);
            }
            if let Some((c, _)) = best {
                view.shift(i, from, -demands[i]);
                view.shift(i, c, demands[i]);
                assignment[i] = c;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    routing(fabric, flows, &assignment)
}

/// Annealing, re-sorting the whole congestion vector for every move.
fn reference_annealing<F: Fabric>(
    fabric: &F,
    demands: &[Rational],
    flows: &[Flow],
    seed: u64,
    iterations: usize,
) -> Routing {
    let mut view = View::new(fabric, flows);
    let n = fabric.class_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assignment = view.greedy(demands);
    let mut current = view.vector();
    let mut best = assignment.clone();
    let mut best_score = current.clone();
    if flows.is_empty() || n < 2 {
        return routing(fabric, flows, &assignment);
    }
    for step in 0..iterations {
        let i = rng.gen_range(0..flows.len());
        if demands[i].is_zero() {
            continue;
        }
        let from = assignment[i];
        let to = (from + rng.gen_range(1..n)) % n;
        view.shift(i, from, -demands[i]);
        view.shift(i, to, demands[i]);
        let candidate = view.vector();
        let phase = 8 * step / iterations.max(1);
        let accept_prob = 0.5f64.powi(phase as i32 + 1);
        if candidate <= current || rng.gen::<f64>() < accept_prob {
            assignment[i] = to;
            if candidate < best_score {
                best_score = candidate.clone();
                best = assignment.clone();
            }
            current = candidate;
        } else {
            view.shift(i, to, -demands[i]);
            view.shift(i, from, demands[i]);
        }
    }
    routing(fabric, flows, &best)
}

/// `count` flows between random hosts of `fabric`.
fn random_flows<F: Fabric>(fabric: &F, count: usize, rng: &mut StdRng) -> Vec<Flow> {
    let net = fabric.network();
    let sources = net.nodes_of_kind(NodeKind::Source);
    let destinations = net.nodes_of_kind(NodeKind::Destination);
    (0..count)
        .map(|_| {
            Flow::new(
                sources[rng.gen_range(0..sources.len())],
                destinations[rng.gen_range(0..destinations.len())],
            )
        })
        .collect()
}

/// Host-limited demands (what E6 offers), or random quarters including
/// zero (zero-demand flows are never moved).
fn demands_for<F: Fabric>(
    fabric: &F,
    flows: &[Flow],
    random: bool,
    rng: &mut StdRng,
) -> Vec<Rational> {
    if random {
        flows
            .iter()
            .map(|_| Rational::new(rng.gen_range(0..5), 4))
            .collect()
    } else {
        host_limited_demands(fabric, flows)
    }
}

fn assert_routers_match<F: Fabric>(fabric: &F, flow_count: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let flows = random_flows(fabric, flow_count, &mut rng);
    for random in [false, true] {
        let demands = demands_for(fabric, &flows, random, &mut rng);
        for rounds in [1, 16] {
            let got = LocalSearchRouter::new(rounds).route(fabric, &demands, &flows);
            let want = reference_local_search(fabric, &demands, &flows, rounds);
            assert_eq!(got, want, "local search, seed {seed}, rounds {rounds}");
        }
        let got = AnnealingRouter::new(seed, 400).route(fabric, &demands, &flows);
        let want = reference_annealing(fabric, &demands, &flows, seed, 400);
        assert_eq!(got, want, "annealing, seed {seed}");
    }
}

#[test]
fn clos_routings_match_reference() {
    for n in 2..=4 {
        let clos = ClosNetwork::standard(n);
        let hosts = clos.tor_count() * clos.hosts_per_tor();
        for seed in 0..10 {
            assert_routers_match(&clos, 2 * hosts, seed);
        }
    }
}

#[test]
fn benes_routings_match_reference() {
    let benes = BenesNetwork::standard(3);
    for seed in 0..10 {
        assert_routers_match(&benes, 16, seed);
    }
}

#[test]
fn fat_tree_routings_match_reference() {
    for ft in [
        FatTree::new(4, Rational::ONE),
        FatTree::new(4, Rational::TWO),
    ] {
        for seed in 0..10 {
            assert_routers_match(&ft, 24, seed);
        }
    }
}
