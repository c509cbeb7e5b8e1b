//! The macro-switch abstraction `MS_n`.

#![allow(clippy::needless_range_loop)]

use crate::{Capacity, ClosParams, Flow, LinkId, Network, NodeId, NodeKind, Path, Routing};

/// The macro-switch abstraction `MS_n` of a Clos network (§2.1, Figure 1b).
///
/// The middle stage of the Clos network is replaced by a complete bipartite
/// graph of **infinite-capacity** links from every input ToR to every output
/// ToR, emulating one giant switch connecting all sources to all
/// destinations. Only the server↔ToR links (unit capacity in the standard
/// model) can constrain rates, so a flow's macro-switch max-min rate depends
/// only on how many flows share its first and last hop.
///
/// There is exactly one path per flow, hence a unique routing
/// ([`MacroSwitch::routing`]) and a unique max-min fair allocation per flow
/// collection — the idealized reference point that the paper's three results
/// compare Clos networks against.
///
/// # Examples
///
/// ```
/// use clos_net::{Flow, MacroSwitch};
///
/// let ms = MacroSwitch::standard(2);
/// let f = Flow::new(ms.source(0, 0), ms.destination(3, 1));
/// let p = ms.path(f);
/// assert_eq!(p.len(), 3); // server→ToR, ToR→ToR mesh, ToR→server
/// assert!(p.is_valid(ms.network(), f).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct MacroSwitch {
    net: Network,
    params: ClosParams,
    sources: Vec<Vec<NodeId>>,
    input_tors: Vec<NodeId>,
    output_tors: Vec<NodeId>,
    destinations: Vec<Vec<NodeId>>,
    host_uplinks: Vec<Vec<LinkId>>,
    mesh: Vec<Vec<LinkId>>,
    host_downlinks: Vec<Vec<LinkId>>,
    coords: Vec<MsLoc>,
}

#[derive(Clone, Copy, Debug)]
enum MsLoc {
    Source { tor: usize, host: usize },
    InputTor,
    OutputTor,
    Destination { tor: usize, host: usize },
}

impl MacroSwitch {
    /// Builds the paper's `MS_n`: the macro-switch of `C_n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn standard(n: usize) -> MacroSwitch {
        MacroSwitch::with_params(ClosParams::standard(n))
    }

    /// Builds the macro-switch abstraction of the Clos network described by
    /// `params`: same servers and ToRs, middle stage replaced by an
    /// infinite-capacity mesh.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the capacity is non-positive.
    #[must_use]
    pub fn with_params(params: ClosParams) -> MacroSwitch {
        assert!(params.tor_pairs >= 1, "need at least one ToR pair");
        assert!(params.hosts_per_tor >= 1, "need at least one host per ToR");
        assert!(
            params.link_capacity.is_positive(),
            "link capacity must be positive"
        );
        let cap = Capacity::finite_value(params.link_capacity);
        let hosts = params.tor_pairs * params.hosts_per_tor;
        let node_count = 2 * hosts + 2 * params.tor_pairs;
        let link_count = 2 * hosts + params.tor_pairs * params.tor_pairs;
        let mut net = Network::with_capacity(node_count, link_count);
        let mut coords = Vec::with_capacity(node_count);

        let mut sources = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.hosts_per_tor);
            for j in 0..params.hosts_per_tor {
                row.push(net.add_node(NodeKind::Source, format!("s_{i}^{j}")));
                coords.push(MsLoc::Source { tor: i, host: j });
            }
            sources.push(row);
        }
        let mut input_tors = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            input_tors.push(net.add_node(NodeKind::InputTor, format!("I_{i}")));
            coords.push(MsLoc::InputTor);
        }
        let mut output_tors = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            output_tors.push(net.add_node(NodeKind::OutputTor, format!("O_{i}")));
            coords.push(MsLoc::OutputTor);
        }
        let mut destinations = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.hosts_per_tor);
            for j in 0..params.hosts_per_tor {
                row.push(net.add_node(NodeKind::Destination, format!("t_{i}^{j}")));
                coords.push(MsLoc::Destination { tor: i, host: j });
            }
            destinations.push(row);
        }

        let mut host_uplinks = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.hosts_per_tor);
            for j in 0..params.hosts_per_tor {
                row.push(
                    net.add_link(sources[i][j], input_tors[i], cap)
                        .expect("endpoints exist"),
                );
            }
            host_uplinks.push(row);
        }
        let mut mesh = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.tor_pairs);
            for o in 0..params.tor_pairs {
                row.push(
                    net.add_link(input_tors[i], output_tors[o], Capacity::Infinite)
                        .expect("endpoints exist"),
                );
            }
            mesh.push(row);
        }
        let mut host_downlinks = Vec::with_capacity(params.tor_pairs);
        for i in 0..params.tor_pairs {
            let mut row = Vec::with_capacity(params.hosts_per_tor);
            for j in 0..params.hosts_per_tor {
                row.push(
                    net.add_link(output_tors[i], destinations[i][j], cap)
                        .expect("endpoints exist"),
                );
            }
            host_downlinks.push(row);
        }

        MacroSwitch {
            net,
            params,
            sources,
            input_tors,
            output_tors,
            destinations,
            host_uplinks,
            mesh,
            host_downlinks,
            coords,
        }
    }

    /// Returns the underlying directed network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Returns the construction parameters (shared with the corresponding
    /// Clos network).
    #[must_use]
    pub fn params(&self) -> ClosParams {
        self.params
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

    /// Returns the infinite-capacity mesh link `I_in → O_out`.
    ///
    /// # Panics
    ///
    /// Panics if `in_tor` or `out_tor` is out of range.
    #[must_use]
    pub fn mesh_link(&self, in_tor: usize, out_tor: usize) -> LinkId {
        self.mesh[in_tor][out_tor]
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
    /// `None` if `node` is not a source of this macro-switch.
    #[must_use]
    pub fn source_coords(&self, node: NodeId) -> Option<(usize, usize)> {
        match self.coords.get(node.index()) {
            Some(&MsLoc::Source { tor, host }) => Some((tor, host)),
            _ => None,
        }
    }

    /// Returns the `(tor, host)` coordinates of a destination server, or
    /// `None` if `node` is not a destination of this macro-switch.
    #[must_use]
    pub fn destination_coords(&self, node: NodeId) -> Option<(usize, usize)> {
        match self.coords.get(node.index()) {
            Some(&MsLoc::Destination { tor, host }) => Some((tor, host)),
            _ => None,
        }
    }

    /// Returns the unique path for `flow`: `s → I → O → t` (three links).
    ///
    /// # Panics
    ///
    /// Panics if the flow endpoints are not a source/destination of this
    /// macro-switch.
    #[must_use]
    pub fn path(&self, flow: Flow) -> Path {
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
        Path::new(vec![
            self.host_uplinks[si][sj],
            self.mesh[si][ti],
            self.host_downlinks[ti][tj],
        ])
    }

    /// Returns the unique routing for a flow collection (§2.2: "in a
    /// macro-switch, there is a unique routing").
    ///
    /// # Panics
    ///
    /// Panics if any flow endpoint is not a source/destination of this
    /// macro-switch.
    #[must_use]
    pub fn routing(&self, flows: &[Flow]) -> Routing {
        flows.iter().map(|&f| self.path(f)).collect()
    }

    /// Maps a flow on the corresponding Clos network into this macro-switch
    /// by `(tor, host)` coordinates.
    ///
    /// Node identifiers differ between a [`ClosNetwork`] and its
    /// `MacroSwitch` (the middle switches shift the numbering), so flows
    /// must be translated rather than reused.
    ///
    /// # Panics
    ///
    /// Panics if the flow endpoints are not a source/destination of `clos`,
    /// or the coordinates exceed this macro-switch's dimensions.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_net::{ClosNetwork, Flow, MacroSwitch};
    ///
    /// let clos = ClosNetwork::standard(2);
    /// let ms = MacroSwitch::standard(2);
    /// let f = Flow::new(clos.source(1, 0), clos.destination(2, 1));
    /// let g = ms.translate_flow(&clos, f);
    /// assert_eq!(g.src(), ms.source(1, 0));
    /// assert_eq!(g.dst(), ms.destination(2, 1));
    /// ```
    ///
    /// [`ClosNetwork`]: crate::ClosNetwork
    #[must_use]
    pub fn translate_flow(&self, clos: &crate::ClosNetwork, flow: Flow) -> Flow {
        let (si, sj) = crate::network::expect_server_coords(
            flow.src(),
            NodeKind::Source,
            clos.source_coords(flow.src()),
        );
        let (ti, tj) = crate::network::expect_server_coords(
            flow.dst(),
            NodeKind::Destination,
            clos.destination_coords(flow.dst()),
        );
        Flow::new(self.source(si, sj), self.destination(ti, tj))
    }

    /// Translates a whole flow collection from the corresponding Clos
    /// network; see [`MacroSwitch::translate_flow`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MacroSwitch::translate_flow`].
    #[must_use]
    pub fn translate_flows(&self, clos: &crate::ClosNetwork, flows: &[Flow]) -> Vec<Flow> {
        flows
            .iter()
            .map(|&f| self.translate_flow(clos, f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClosNetwork;

    #[test]
    fn standard_counts() {
        for n in 1..=3 {
            let ms = MacroSwitch::standard(n);
            let t = 2 * n;
            assert_eq!(ms.network().node_count(), 2 * n * n * 2 + 2 * t);
            // host links twice + t^2 mesh links.
            assert_eq!(ms.network().link_count(), 2 * 2 * n * n + t * t);
        }
    }

    #[test]
    fn mesh_links_are_infinite_host_links_finite() {
        let ms = MacroSwitch::standard(2);
        let net = ms.network();
        for i in 0..4 {
            for o in 0..4 {
                assert!(net.link(ms.mesh_link(i, o)).capacity().is_infinite());
            }
        }
        assert_eq!(net.link(ms.host_uplink(0, 0)).capacity(), Capacity::unit());
        assert_eq!(
            net.link(ms.host_downlink(3, 1)).capacity(),
            Capacity::unit()
        );
    }

    #[test]
    fn unique_path_is_valid() {
        let ms = MacroSwitch::standard(3);
        let f = Flow::new(ms.source(0, 2), ms.destination(5, 0));
        let p = ms.path(f);
        assert!(p.is_valid(ms.network(), f).is_ok());
        assert_eq!(p.len(), 3);
        assert!(p.contains(ms.mesh_link(0, 5)));
    }

    #[test]
    fn same_tor_pair_uses_diagonal_mesh_link() {
        let ms = MacroSwitch::standard(2);
        let f = Flow::new(ms.source(1, 0), ms.destination(1, 1));
        let p = ms.path(f);
        assert!(p.contains(ms.mesh_link(1, 1)));
    }

    #[test]
    fn routing_covers_all_flows() {
        let ms = MacroSwitch::standard(2);
        let flows = vec![
            Flow::new(ms.source(0, 0), ms.destination(1, 1)),
            Flow::new(ms.source(2, 1), ms.destination(0, 0)),
        ];
        let r = ms.routing(&flows);
        assert!(r.validate(ms.network(), &flows).is_ok());
    }

    #[test]
    fn translation_from_clos_by_coordinates() {
        let clos = ClosNetwork::standard(3);
        let ms = MacroSwitch::standard(3);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(5, 2)),
            Flow::new(clos.source(2, 1), clos.destination(2, 1)),
        ];
        let translated = ms.translate_flows(&clos, &flows);
        assert_eq!(translated[0].src(), ms.source(0, 0));
        assert_eq!(translated[0].dst(), ms.destination(5, 2));
        assert_eq!(translated[1].src(), ms.source(2, 1));
        assert_eq!(translated[1].dst(), ms.destination(2, 1));
        assert!(crate::validate_flows(ms.network(), &translated).is_ok());
    }

    #[test]
    fn coords_round_trip() {
        let ms = MacroSwitch::standard(2);
        assert_eq!(ms.source_coords(ms.source(3, 1)), Some((3, 1)));
        assert_eq!(ms.destination_coords(ms.destination(2, 0)), Some((2, 0)));
    }

    #[test]
    fn destination_coords_rejects_tor() {
        let ms = MacroSwitch::standard(2);
        assert_eq!(ms.destination_coords(ms.input_tor(0)), None);
        assert_eq!(ms.source_coords(ms.output_tor(0)), None);
    }

    #[test]
    fn params_accessors() {
        let ms = MacroSwitch::standard(2);
        assert_eq!(ms.tor_count(), 4);
        assert_eq!(ms.hosts_per_tor(), 2);
        assert_eq!(ms.params(), ClosParams::standard(2));
    }
}
