//! Property-based tests for the topology models.

use clos_net::{Capacity, ClosNetwork, ClosParams, Flow, MacroSwitch, NodeKind, Path, Routing};
use clos_rational::Rational;
use proptest::prelude::*;

fn params() -> impl Strategy<Value = ClosParams> {
    (1usize..=4, 1usize..=5, 1usize..=4, 1i128..=3).prop_map(|(m, t, h, c)| ClosParams {
        middle_switches: m,
        tor_pairs: t,
        hosts_per_tor: h,
        link_capacity: Rational::from_integer(c),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Structural counts of the generalized Clos network.
    #[test]
    fn clos_counts(p in params()) {
        let clos = ClosNetwork::with_params(p);
        let net = clos.network();
        let hosts = p.tor_pairs * p.hosts_per_tor;
        prop_assert_eq!(
            net.node_count(),
            2 * hosts + 2 * p.tor_pairs + p.middle_switches
        );
        prop_assert_eq!(
            net.link_count(),
            2 * hosts + 2 * p.tor_pairs * p.middle_switches
        );
        prop_assert_eq!(net.nodes_of_kind(NodeKind::Source).len(), hosts);
        prop_assert_eq!(net.nodes_of_kind(NodeKind::Middle).len(), p.middle_switches);
        // Every link has the configured capacity.
        prop_assert!(net
            .links()
            .all(|l| l.capacity() == Capacity::finite_value(p.link_capacity)));
    }

    /// Every source–destination pair has exactly `middle_switches` valid,
    /// pairwise fabric-disjoint paths.
    #[test]
    fn clos_paths_valid_and_disjoint(
        p in params(),
        st in 0usize..5, sh in 0usize..4, dt in 0usize..5, dh in 0usize..4,
    ) {
        let clos = ClosNetwork::with_params(p);
        let flow = Flow::new(
            clos.source(st % p.tor_pairs, sh % p.hosts_per_tor),
            clos.destination(dt % p.tor_pairs, dh % p.hosts_per_tor),
        );
        let paths = clos.paths_for(flow);
        prop_assert_eq!(paths.len(), p.middle_switches);
        for (m, path) in paths.iter().enumerate() {
            prop_assert!(path.is_valid(clos.network(), flow).is_ok());
            prop_assert_eq!(clos.middle_of_path(path), Some(m));
        }
        // Fabric links (positions 1 and 2) are pairwise distinct.
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                prop_assert_ne!(paths[i].links()[1], paths[j].links()[1]);
                prop_assert_ne!(paths[i].links()[2], paths[j].links()[2]);
            }
        }
    }

    /// The macro-switch shares server structure with the Clos network and
    /// its unique path is valid.
    #[test]
    fn macro_switch_consistency(
        p in params(),
        st in 0usize..5, sh in 0usize..4, dt in 0usize..5, dh in 0usize..4,
    ) {
        let clos = ClosNetwork::with_params(p);
        let ms = MacroSwitch::with_params(p);
        let (st, sh) = (st % p.tor_pairs, sh % p.hosts_per_tor);
        let (dt, dh) = (dt % p.tor_pairs, dh % p.hosts_per_tor);
        let clos_flow = Flow::new(clos.source(st, sh), clos.destination(dt, dh));
        let ms_flow = ms.translate_flow(&clos, clos_flow);
        prop_assert_eq!(ms.source_coords(ms_flow.src()), Some((st, sh)));
        prop_assert_eq!(ms.destination_coords(ms_flow.dst()), Some((dt, dh)));
        let path = ms.path(ms_flow);
        prop_assert!(path.is_valid(ms.network(), ms_flow).is_ok());
        prop_assert_eq!(path.len(), 3);
        // The mesh hop is infinite-capacity.
        let mesh = path.links()[1];
        prop_assert!(ms.network().link(mesh).capacity().is_infinite());
    }

    /// Random routings validate and flows_per_link inverts paths.
    #[test]
    fn routing_membership_inverts_paths(
        p in params(),
        picks in prop::collection::vec((0usize..5, 0usize..4, 0usize..5, 0usize..4, 0usize..4), 1..8),
    ) {
        let clos = ClosNetwork::with_params(p);
        let flows: Vec<Flow> = picks
            .iter()
            .map(|&(st, sh, dt, dh, _)| {
                Flow::new(
                    clos.source(st % p.tor_pairs, sh % p.hosts_per_tor),
                    clos.destination(dt % p.tor_pairs, dh % p.hosts_per_tor),
                )
            })
            .collect();
        let routing: Routing = flows
            .iter()
            .zip(&picks)
            .map(|(&f, &(_, _, _, _, m))| clos.path_via(f, m % p.middle_switches))
            .collect();
        prop_assert!(routing.validate(clos.network(), &flows).is_ok());
        let members = routing.flows_per_link(clos.network());
        for (i, path) in routing.paths().iter().enumerate() {
            for link in path.links() {
                prop_assert!(members[link.index()]
                    .iter()
                    .any(|f| f.index() == i));
            }
        }
        // Total memberships = sum of path lengths.
        let total: usize = members.iter().map(Vec::len).sum();
        prop_assert_eq!(total, routing.paths().iter().map(Path::len).sum::<usize>());
    }
}
