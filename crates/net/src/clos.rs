//! The three-stage Clos network `C_n` and its generalized form.

#![allow(clippy::needless_range_loop)]

use clos_rational::Rational;

use crate::{Capacity, Flow, LinkId, Network, NodeId, NodeKind, Path};

/// Parameters of a (generalized) three-stage Clos network.
///
/// The paper's `C_n` (§2.1) fixes `tor_pairs = 2n`, `hosts_per_tor = n`,
/// `middle_switches = n`, and unit link capacities — obtained from
/// [`ClosParams::standard`]. The generalized form lets benchmarks explore
/// oversubscribed (`middle_switches < hosts_per_tor`) and overprovisioned
/// fabrics.
///
/// # Examples
///
/// ```
/// use clos_net::ClosParams;
///
/// let p = ClosParams::standard(3);
/// assert_eq!(p.middle_switches, 3);
/// assert_eq!(p.tor_pairs, 6);
/// assert_eq!(p.hosts_per_tor, 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClosParams {
    /// Number of middle switches `n` (equivalently, paths per flow).
    pub middle_switches: usize,
    /// Number of input ToR switches; the output side has the same count.
    pub tor_pairs: usize,
    /// Number of source servers per input ToR (and destinations per output
    /// ToR).
    pub hosts_per_tor: usize,
    /// Capacity of every link.
    pub link_capacity: Rational,
}

impl ClosParams {
    /// The paper's `C_n`: `n` middle switches, `2n` ToRs per side, `n` hosts
    /// per ToR, unit capacities.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn standard(n: usize) -> ClosParams {
        assert!(n >= 1, "Clos network size must be at least 1");
        ClosParams {
            middle_switches: n,
            tor_pairs: 2 * n,
            hosts_per_tor: n,
            link_capacity: Rational::ONE,
        }
    }

    fn validate(self) {
        assert!(self.middle_switches >= 1, "need at least one middle switch");
        assert!(self.tor_pairs >= 1, "need at least one ToR pair");
        assert!(self.hosts_per_tor >= 1, "need at least one host per ToR");
        assert!(
            self.link_capacity.is_positive(),
            "link capacity must be positive"
        );
    }
}

/// Where a node sits within a Clos network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NodeLoc {
    Source { tor: usize, host: usize },
    InputTor { tor: usize },
    Middle { middle: usize },
    OutputTor { tor: usize },
    Destination { tor: usize, host: usize },
}

/// Where a link sits within a Clos network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LinkLoc {
    HostUplink { tor: usize, host: usize },
    Uplink { tor: usize, middle: usize },
    Downlink { middle: usize, tor: usize },
    HostDownlink { tor: usize, host: usize },
}

/// The three-stage Clos network `C_n` of the paper (§2.1, Figure 1a).
///
/// Sources `s_i^j` attach to input ToR switches `I_i`; each `I_i` has one
/// uplink to every middle switch `M_m`; each `M_m` has one downlink to every
/// output ToR `O_i`; destinations `t_i^j` attach to output ToRs. Every
/// source–destination pair is therefore connected by exactly
/// `middle_switches` link-disjoint (inside the fabric) paths, one per middle
/// switch, and routing a flow is equivalent to choosing its middle switch.
///
/// Indices are **0-based** throughout (the paper is 1-based).
///
/// # Examples
///
/// ```
/// use clos_net::{ClosNetwork, Flow};
///
/// let clos = ClosNetwork::standard(2);
/// assert_eq!(clos.middle_count(), 2);
/// assert_eq!(clos.network().node_count(), 2 + 4 + 4 + 8 + 8);
///
/// let f = Flow::new(clos.source(0, 1), clos.destination(3, 0));
/// let paths = clos.paths_for(f);
/// assert_eq!(paths.len(), 2); // one per middle switch
/// assert_eq!(clos.middle_of_path(&paths[1]), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct ClosNetwork {
    net: Network,
    params: ClosParams,
    sources: Vec<Vec<NodeId>>,
    input_tors: Vec<NodeId>,
    middles: Vec<NodeId>,
    output_tors: Vec<NodeId>,
    destinations: Vec<Vec<NodeId>>,
    host_uplinks: Vec<Vec<LinkId>>,
    uplinks: Vec<Vec<LinkId>>,
    downlinks: Vec<Vec<LinkId>>,
    host_downlinks: Vec<Vec<LinkId>>,
    node_locs: Vec<NodeLoc>,
    link_locs: Vec<LinkLoc>,
}

impl ClosNetwork {
    /// Builds the paper's `C_n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn standard(n: usize) -> ClosNetwork {
        ClosNetwork::with_params(ClosParams::standard(n))
    }

    /// Builds a generalized Clos network from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the capacity is non-positive.
    #[must_use]
    pub fn with_params(params: ClosParams) -> ClosNetwork {
        params.validate();
        let cap = Capacity::finite_value(params.link_capacity);
        let hosts = params.tor_pairs * params.hosts_per_tor;
        let node_count = 2 * hosts + 2 * params.tor_pairs + params.middle_switches;
        let link_count = 2 * hosts + 2 * params.tor_pairs * params.middle_switches;
        let mut net = Network::with_capacity(node_count, link_count);
        let mut node_locs = Vec::with_capacity(node_count);
        let mut link_locs = Vec::with_capacity(link_count);

        let mut sources = Vec::with_capacity(params.tor_pairs);
        let mut destinations = Vec::with_capacity(params.tor_pairs);
        let mut input_tors = Vec::with_capacity(params.tor_pairs);
        let mut output_tors = Vec::with_capacity(params.tor_pairs);
        let mut middles = Vec::with_capacity(params.middle_switches);

        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.hosts_per_tor);
            for j in 0..params.hosts_per_tor {
                row.push(net.add_node(NodeKind::Source, format!("s_{i}^{j}")));
                node_locs.push(NodeLoc::Source { tor: i, host: j });
            }
            sources.push(row);
        }
        for i in 0..params.tor_pairs {
            input_tors.push(net.add_node(NodeKind::InputTor, format!("I_{i}")));
            node_locs.push(NodeLoc::InputTor { tor: i });
        }
        for m in 0..params.middle_switches {
            middles.push(net.add_node(NodeKind::Middle, format!("M_{m}")));
            node_locs.push(NodeLoc::Middle { middle: m });
        }
        for i in 0..params.tor_pairs {
            output_tors.push(net.add_node(NodeKind::OutputTor, format!("O_{i}")));
            node_locs.push(NodeLoc::OutputTor { tor: i });
        }
        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.hosts_per_tor);
            for j in 0..params.hosts_per_tor {
                row.push(net.add_node(NodeKind::Destination, format!("t_{i}^{j}")));
                node_locs.push(NodeLoc::Destination { tor: i, host: j });
            }
            destinations.push(row);
        }

        let mut host_uplinks = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.hosts_per_tor);
            for j in 0..params.hosts_per_tor {
                let e = net
                    .add_link(sources[i][j], input_tors[i], cap)
                    .expect("endpoints exist");
                link_locs.push(LinkLoc::HostUplink { tor: i, host: j });
                row.push(e);
            }
            host_uplinks.push(row);
        }
        let mut uplinks = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.middle_switches);
            for m in 0..params.middle_switches {
                let e = net
                    .add_link(input_tors[i], middles[m], cap)
                    .expect("endpoints exist");
                link_locs.push(LinkLoc::Uplink { tor: i, middle: m });
                row.push(e);
            }
            uplinks.push(row);
        }
        let mut downlinks = Vec::with_capacity(params.middle_switches);
        for m in 0..params.middle_switches {
            let mut row = Vec::with_capacity(params.tor_pairs);
            for i in 0..params.tor_pairs {
                let e = net
                    .add_link(middles[m], output_tors[i], cap)
                    .expect("endpoints exist");
                link_locs.push(LinkLoc::Downlink { middle: m, tor: i });
                row.push(e);
            }
            downlinks.push(row);
        }
        let mut host_downlinks = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.hosts_per_tor);
            for j in 0..params.hosts_per_tor {
                let e = net
                    .add_link(output_tors[i], destinations[i][j], cap)
                    .expect("endpoints exist");
                link_locs.push(LinkLoc::HostDownlink { tor: i, host: j });
                row.push(e);
            }
            host_downlinks.push(row);
        }

        ClosNetwork {
            net,
            params,
            sources,
            input_tors,
            middles,
            output_tors,
            destinations,
            host_uplinks,
            uplinks,
            downlinks,
            host_downlinks,
            node_locs,
            link_locs,
        }
    }

    /// Returns the underlying directed network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Returns the construction parameters.
    #[must_use]
    pub fn params(&self) -> ClosParams {
        self.params
    }

    /// Returns a copy of this network with the capacities in `overlay`
    /// substituted. Every node, link, and coordinate accessor of the
    /// copy matches the original identifier-for-identifier — only
    /// capacities change — so failure overlays (see
    /// [`crate::failure`]) compose with any dense per-link state built
    /// against the pristine fabric.
    ///
    /// # Panics
    ///
    /// Panics if `overlay` names a link outside this network.
    #[must_use]
    pub fn with_capacities(&self, overlay: &crate::CapacityMap) -> ClosNetwork {
        let mut out = self.clone();
        for (&link, &capacity) in overlay {
            out.net.set_link_capacity(link, capacity);
        }
        out
    }

    /// Returns the number of middle switches (the `n` of `C_n` for standard
    /// networks).
    #[must_use]
    pub fn middle_count(&self) -> usize {
        self.params.middle_switches
    }

    /// Returns the number of input (equivalently output) ToR switches.
    #[must_use]
    pub fn tor_count(&self) -> usize {
        self.params.tor_pairs
    }

    /// Returns the number of source servers per input ToR.
    #[must_use]
    pub fn hosts_per_tor(&self) -> usize {
        self.params.hosts_per_tor
    }

    /// Returns the source server `s_tor^host`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` or `host` is out of range.
    #[must_use]
    pub fn source(&self, tor: usize, host: usize) -> NodeId {
        self.sources[tor][host]
    }

    /// Returns the destination server `t_tor^host`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` or `host` is out of range.
    #[must_use]
    pub fn destination(&self, tor: usize, host: usize) -> NodeId {
        self.destinations[tor][host]
    }

    /// Returns the input ToR switch `I_tor`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` is out of range.
    #[must_use]
    pub fn input_tor(&self, tor: usize) -> NodeId {
        self.input_tors[tor]
    }

    /// Returns the middle switch `M_middle`.
    ///
    /// # Panics
    ///
    /// Panics if `middle` is out of range.
    #[must_use]
    pub fn middle(&self, middle: usize) -> NodeId {
        self.middles[middle]
    }

    /// Returns the output ToR switch `O_tor`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` is out of range.
    #[must_use]
    pub fn output_tor(&self, tor: usize) -> NodeId {
        self.output_tors[tor]
    }

    /// Returns the link `s_tor^host → I_tor`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` or `host` is out of range.
    #[must_use]
    pub fn host_uplink(&self, tor: usize, host: usize) -> LinkId {
        self.host_uplinks[tor][host]
    }

    /// Returns the link `I_tor → M_middle`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` or `middle` is out of range.
    #[must_use]
    pub fn uplink(&self, tor: usize, middle: usize) -> LinkId {
        self.uplinks[tor][middle]
    }

    /// Returns the link `M_middle → O_tor`.
    ///
    /// # Panics
    ///
    /// Panics if `middle` or `tor` is out of range.
    #[must_use]
    pub fn downlink(&self, middle: usize, tor: usize) -> LinkId {
        self.downlinks[middle][tor]
    }

    /// Returns the link `O_tor → t_tor^host`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` or `host` is out of range.
    #[must_use]
    pub fn host_downlink(&self, tor: usize, host: usize) -> LinkId {
        self.host_downlinks[tor][host]
    }

    /// Returns the `(tor, host)` coordinates of a source server, or
    /// `None` if `node` is not a source of this network.
    #[must_use]
    pub fn source_coords(&self, node: NodeId) -> Option<(usize, usize)> {
        match self.node_locs.get(node.index()) {
            Some(&NodeLoc::Source { tor, host }) => Some((tor, host)),
            _ => None,
        }
    }

    /// Returns the `(tor, host)` coordinates of a destination server, or
    /// `None` if `node` is not a destination of this network.
    #[must_use]
    pub fn destination_coords(&self, node: NodeId) -> Option<(usize, usize)> {
        match self.node_locs.get(node.index()) {
            Some(&NodeLoc::Destination { tor, host }) => Some((tor, host)),
            _ => None,
        }
    }

    /// Returns the path for `flow` through middle switch `middle`:
    /// `s → I → M → O → t` (four links).
    ///
    /// # Panics
    ///
    /// Panics if `middle` is out of range or the flow endpoints are not a
    /// source/destination of this network.
    #[must_use]
    pub fn path_via(&self, flow: Flow, middle: usize) -> Path {
        Path::new(self.links_via(flow, middle).to_vec())
    }

    /// Returns the four link ids of `flow`'s path through middle switch
    /// `middle` (`s → I → M → O → t`) without allocating — the raw
    /// material compiled into dense incidence tables by the evaluation
    /// pipeline (`clos-core`'s `CompiledInstance`).
    ///
    /// # Panics
    ///
    /// Panics if `middle` is out of range or the flow endpoints are not a
    /// source/destination of this network.
    #[must_use]
    pub fn links_via(&self, flow: Flow, middle: usize) -> [LinkId; 4] {
        assert!(
            middle < self.params.middle_switches,
            "middle switch {middle} out of range (have {})",
            self.params.middle_switches
        );
        let (si, sj) = crate::network::expect_server_coords(
            flow.src(),
            NodeKind::Source,
            self.source_coords(flow.src()),
        );
        let (ti, tj) = crate::network::expect_server_coords(
            flow.dst(),
            NodeKind::Destination,
            self.destination_coords(flow.dst()),
        );
        [
            self.host_uplinks[si][sj],
            self.uplinks[si][middle],
            self.downlinks[middle][ti],
            self.host_downlinks[ti][tj],
        ]
    }

    /// Returns all `middle_count()` paths for `flow`, indexed by middle
    /// switch.
    ///
    /// # Panics
    ///
    /// Panics if the flow endpoints are not a source/destination of this
    /// network.
    #[must_use]
    pub fn paths_for(&self, flow: Flow) -> Vec<Path> {
        (0..self.params.middle_switches)
            .map(|m| self.path_via(flow, m))
            .collect()
    }

    /// Returns the middle switch a path traverses, or `None` if the path
    /// does not contain an uplink of this network.
    #[must_use]
    pub fn middle_of_path(&self, path: &Path) -> Option<usize> {
        path.links()
            .iter()
            .find_map(|&e| match self.link_locs.get(e.index()) {
                Some(LinkLoc::Uplink { middle, .. }) => Some(*middle),
                _ => None,
            })
    }

    /// Returns the input ToR index of a flow's source.
    ///
    /// # Panics
    ///
    /// Panics if the flow's source is not a source of this network.
    #[must_use]
    pub fn src_tor(&self, flow: Flow) -> usize {
        crate::network::expect_server_coords(
            flow.src(),
            NodeKind::Source,
            self.source_coords(flow.src()),
        )
        .0
    }

    /// Returns the output ToR index of a flow's destination.
    ///
    /// # Panics
    ///
    /// Panics if the flow's destination is not a destination of this network.
    #[must_use]
    pub fn dst_tor(&self, flow: Flow) -> usize {
        crate::network::expect_server_coords(
            flow.dst(),
            NodeKind::Destination,
            self.destination_coords(flow.dst()),
        )
        .0
    }
}

impl crate::Fabric for ClosNetwork {
    fn network(&self) -> &Network {
        &self.net
    }

    fn class_count(&self) -> usize {
        self.params.middle_switches
    }

    fn append_links_via(&self, flow: Flow, class: usize, out: &mut Vec<LinkId>) {
        out.extend_from_slice(&self.links_via(flow, class));
    }

    fn class_of_path(&self, path: &Path) -> Option<usize> {
        self.middle_of_path(path)
    }

    fn source_coords(&self, node: NodeId) -> Option<(usize, usize)> {
        ClosNetwork::source_coords(self, node)
    }

    fn destination_coords(&self, node: NodeId) -> Option<(usize, usize)> {
        ClosNetwork::destination_coords(self, node)
    }

    fn class_signature(&self, class: usize) -> (usize, Vec<Capacity>) {
        // A middle switch's orbit is determined by the capacities of its
        // uplinks and downlinks in ToR order: two middles with equal
        // vectors are exchanged by the relabeling automorphism, which
        // realizes the full symmetric group on each capacity class.
        let caps = (0..self.params.tor_pairs)
            .map(|t| self.net.link(self.uplinks[t][class]).capacity())
            .chain(
                (0..self.params.tor_pairs)
                    .map(|t| self.net.link(self.downlinks[class][t]).capacity()),
            )
            .collect();
        (0, caps)
    }

    fn with_capacities(&self, overlay: &crate::CapacityMap) -> ClosNetwork {
        ClosNetwork::with_capacities(self, overlay)
    }

    fn nominal_capacity(&self) -> Rational {
        self.params.link_capacity
    }

    fn max_path_len(&self) -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_counts_match_paper() {
        for n in 1..=4 {
            let clos = ClosNetwork::standard(n);
            // 2n^2 sources, 2n ToRs each side, n middles, 2n^2 destinations.
            assert_eq!(
                clos.network().node_count(),
                2 * n * n + 2 * n + n + 2 * n + 2 * n * n
            );
            // Links: 2n^2 host uplinks + 2n*n uplinks + n*2n downlinks + 2n^2 host downlinks.
            assert_eq!(clos.network().link_count(), 8 * n * n);
            assert_eq!(clos.middle_count(), n);
            assert_eq!(clos.tor_count(), 2 * n);
            assert_eq!(clos.hosts_per_tor(), n);
        }
    }

    #[test]
    fn labels_follow_paper_notation() {
        let clos = ClosNetwork::standard(2);
        assert_eq!(clos.network().node(clos.source(1, 0)).label(), "s_1^0");
        assert_eq!(clos.network().node(clos.input_tor(3)).label(), "I_3");
        assert_eq!(clos.network().node(clos.middle(1)).label(), "M_1");
        assert_eq!(clos.network().node(clos.output_tor(0)).label(), "O_0");
        assert_eq!(clos.network().node(clos.destination(2, 1)).label(), "t_2^1");
    }

    #[test]
    fn links_connect_the_right_nodes() {
        let clos = ClosNetwork::standard(3);
        let net = clos.network();
        let e = clos.uplink(4, 2);
        assert_eq!(net.link(e).src(), clos.input_tor(4));
        assert_eq!(net.link(e).dst(), clos.middle(2));
        let e = clos.downlink(1, 5);
        assert_eq!(net.link(e).src(), clos.middle(1));
        assert_eq!(net.link(e).dst(), clos.output_tor(5));
        let e = clos.host_uplink(2, 1);
        assert_eq!(net.link(e).src(), clos.source(2, 1));
        assert_eq!(net.link(e).dst(), clos.input_tor(2));
        let e = clos.host_downlink(0, 2);
        assert_eq!(net.link(e).src(), clos.output_tor(0));
        assert_eq!(net.link(e).dst(), clos.destination(0, 2));
    }

    #[test]
    fn all_links_have_unit_capacity_by_default() {
        let clos = ClosNetwork::standard(2);
        assert!(clos
            .network()
            .links()
            .all(|l| l.capacity() == Capacity::unit()));
    }

    #[test]
    fn paths_are_valid_and_distinct() {
        let clos = ClosNetwork::standard(3);
        let flow = Flow::new(clos.source(0, 2), clos.destination(5, 1));
        let paths = clos.paths_for(flow);
        assert_eq!(paths.len(), 3);
        for (m, p) in paths.iter().enumerate() {
            assert!(p.is_valid(clos.network(), flow).is_ok());
            assert_eq!(clos.middle_of_path(p), Some(m));
        }
        assert_ne!(paths[0], paths[1]);
        // Paths share only the host links.
        assert_eq!(paths[0].links()[0], paths[1].links()[0]);
        assert_eq!(paths[0].links()[3], paths[1].links()[3]);
        assert_ne!(paths[0].links()[1], paths[1].links()[1]);
        assert_ne!(paths[0].links()[2], paths[1].links()[2]);
    }

    #[test]
    fn intra_tor_pair_still_crosses_a_middle_switch() {
        // Even (s_0^0, t_0^0) transits the fabric: input and output stages
        // are distinct layers (Figure 1a).
        let clos = ClosNetwork::standard(2);
        let flow = Flow::new(clos.source(0, 0), clos.destination(0, 0));
        let p = clos.path_via(flow, 1);
        assert_eq!(p.len(), 4);
        assert!(p.contains(clos.uplink(0, 1)));
        assert!(p.contains(clos.downlink(1, 0)));
    }

    #[test]
    fn coordinate_round_trips() {
        let clos = ClosNetwork::standard(3);
        assert_eq!(clos.source_coords(clos.source(4, 2)), Some((4, 2)));
        assert_eq!(
            clos.destination_coords(clos.destination(1, 0)),
            Some((1, 0))
        );
        let f = Flow::new(clos.source(4, 2), clos.destination(1, 0));
        assert_eq!(clos.src_tor(f), 4);
        assert_eq!(clos.dst_tor(f), 1);
    }

    #[test]
    fn source_coords_rejects_non_source() {
        let clos = ClosNetwork::standard(2);
        assert_eq!(clos.source_coords(clos.middle(0)), None);
        assert_eq!(clos.source_coords(clos.destination(0, 0)), None);
        assert_eq!(clos.destination_coords(clos.source(0, 0)), None);
        assert_eq!(clos.source_coords(NodeId::new(u32::MAX)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn path_via_rejects_bad_middle() {
        let clos = ClosNetwork::standard(2);
        let f = Flow::new(clos.source(0, 0), clos.destination(0, 0));
        let _ = clos.path_via(f, 2);
    }

    #[test]
    fn generalized_params() {
        let params = ClosParams {
            middle_switches: 2,
            tor_pairs: 3,
            hosts_per_tor: 4,
            link_capacity: Rational::new(5, 2),
        };
        let clos = ClosNetwork::with_params(params);
        assert_eq!(clos.params(), params);
        assert_eq!(clos.tor_count(), 3);
        assert_eq!(clos.hosts_per_tor(), 4);
        assert_eq!(clos.middle_count(), 2);
        assert_eq!(
            clos.network().link(clos.uplink(0, 0)).capacity(),
            Capacity::finite_value(Rational::new(5, 2))
        );
        // 3*4 host-up + 3*2 up + 2*3 down + 3*4 host-down.
        assert_eq!(clos.network().link_count(), 12 + 6 + 6 + 12);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_size_rejected() {
        let _ = ClosNetwork::standard(0);
    }

    #[test]
    fn middle_of_foreign_path_is_none() {
        let clos = ClosNetwork::standard(2);
        let p = Path::new(vec![clos.host_uplink(0, 0)]);
        assert_eq!(clos.middle_of_path(&p), None);
        let p = Path::new(vec![LinkId::new(9999)]);
        assert_eq!(clos.middle_of_path(&p), None);
    }
}
