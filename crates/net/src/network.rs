//! The directed-graph substrate underlying every topology.

use std::error::Error;
use std::fmt;

use crate::{Capacity, LinkId, NodeId};

/// The role a node plays in a three-stage data-center topology.
///
/// The paper's model (§2.1) distinguishes source servers, input ToR
/// switches, middle switches, output ToR switches, and destination servers.
/// Roles are carried on nodes so that validation (flows start at sources and
/// end at destinations, paths traverse stages in order) can be enforced
/// dynamically.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// A source server `s_i^j`.
    Source,
    /// An input top-of-rack switch `I_i`.
    InputTor,
    /// A middle switch `M_m`.
    Middle,
    /// An output top-of-rack switch `O_i`.
    OutputTor,
    /// A destination server `t_i^j`.
    Destination,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Source => "source",
            NodeKind::InputTor => "input-tor",
            NodeKind::Middle => "middle",
            NodeKind::OutputTor => "output-tor",
            NodeKind::Destination => "destination",
        };
        f.write_str(s)
    }
}

/// Unwraps server `(group, host)` coordinates resolved by an
/// `Option`-returning accessor (`source_coords`/`destination_coords` on
/// the fabric types), panicking with one consistent message when the
/// node is not of the expected kind.
///
/// Callers that can recover from a foreign node should match on the
/// `Option` directly; this helper is for the documented-panic call
/// sites (path construction, flow translation) where a wrong-kind node
/// means the caller mixed up fabrics.
///
/// # Panics
///
/// Panics if `coords` is `None`.
#[must_use]
pub fn expect_server_coords(
    node: NodeId,
    expected: NodeKind,
    coords: Option<(usize, usize)>,
) -> (usize, usize) {
    match coords {
        Some(c) => c,
        None => panic!("node {node} is not a {expected}"),
    }
}

/// A node of a [`Network`]: a server or a switch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Node {
    id: NodeId,
    kind: NodeKind,
    label: String,
}

impl Node {
    /// Returns the node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Returns the node's role in the topology.
    #[must_use]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Returns the human-readable label, e.g. `"I_2"` or `"s_1^3"`.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// A directed link of a [`Network`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Link {
    id: LinkId,
    src: NodeId,
    dst: NodeId,
    capacity: Capacity,
}

impl Link {
    /// Returns the link's identifier.
    #[must_use]
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// Returns the tail (start) node.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Returns the head (end) node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Returns the link's capacity.
    #[must_use]
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }
}

/// The error returned by [`Network`] construction and lookup operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// A referenced node identifier does not exist in the network.
    UnknownNode(NodeId),
    /// A link would connect a node to itself.
    SelfLoop(NodeId),
    /// No link connects the given pair of nodes.
    NoSuchLink {
        /// The requested tail node.
        src: NodeId,
        /// The requested head node.
        dst: NodeId,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
            TopologyError::NoSuchLink { src, dst } => {
                write!(f, "no link from {src} to {dst}")
            }
        }
    }
}

impl Error for TopologyError {}

/// A directed network of servers and switches with capacitated links.
///
/// `Network` is the common substrate beneath [`ClosNetwork`] and
/// [`MacroSwitch`]; the fairness and routing algorithms operate on it
/// directly so they remain correct for arbitrary topologies (the `½`
/// throughput bound of Theorem 3.4 holds for *every* interconnection
/// network, as the paper's conclusion notes).
///
/// Nodes and links receive dense identifiers in insertion order, so per-node
/// and per-link state can be kept in plain vectors.
///
/// # Examples
///
/// ```
/// use clos_net::{Capacity, Network, NodeKind};
///
/// let mut net = Network::new();
/// let s = net.add_node(NodeKind::Source, "s");
/// let t = net.add_node(NodeKind::Destination, "t");
/// let e = net.add_link(s, t, Capacity::unit())?;
/// assert_eq!(net.link(e).src(), s);
/// assert_eq!(net.out_links(s), &[e]);
/// # Ok::<(), clos_net::TopologyError>(())
/// ```
///
/// [`ClosNetwork`]: crate::ClosNetwork
/// [`MacroSwitch`]: crate::MacroSwitch
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    out_links: Vec<Vec<LinkId>>,
    in_links: Vec<Vec<LinkId>>,
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Network {
        Network::default()
    }

    /// Creates an empty network with room for `nodes` nodes and `links`
    /// links, so builders that know their size up front never regrow the
    /// tables.
    #[must_use]
    pub fn with_capacity(nodes: usize, links: usize) -> Network {
        Network {
            nodes: Vec::with_capacity(nodes),
            links: Vec::with_capacity(links),
            out_links: Vec::with_capacity(nodes),
            in_links: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node with the given role and label, returning its identifier.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            label: label.into(),
        });
        self.out_links.push(Vec::new());
        self.in_links.push(Vec::new());
        id
    }

    /// Adds a directed link from `src` to `dst` with the given capacity.
    ///
    /// Parallel links are permitted (they arise in generalized topologies);
    /// self-loops are not.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if either endpoint does not
    /// exist, or [`TopologyError::SelfLoop`] if `src == dst`.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: Capacity,
    ) -> Result<LinkId, TopologyError> {
        if src.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(dst));
        }
        if src == dst {
            return Err(TopologyError::SelfLoop(src));
        }
        let id = LinkId::from(self.links.len());
        self.links.push(Link {
            id,
            src,
            dst,
            capacity,
        });
        self.out_links[src.index()].push(id);
        self.in_links[dst.index()].push(id);
        Ok(id)
    }

    /// Returns the number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Replaces the capacity of an existing link, leaving the adjacency
    /// structure (and with it every [`NodeId`]/[`LinkId`]) untouched.
    ///
    /// This is the mutation primitive behind failure overlays: degraded
    /// and removed links keep their identifiers (a removed link is one
    /// whose capacity is zero), so per-link vectors indexed by dense
    /// identifiers stay valid across failure events.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn set_link_capacity(&mut self, id: LinkId, capacity: Capacity) {
        self.links[id.index()].capacity = capacity;
    }

    /// Returns the node with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the link with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    #[must_use]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Returns an iterator over all nodes in identifier order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Returns an iterator over all links in identifier order.
    pub fn links(&self) -> impl ExactSizeIterator<Item = &Link> {
        self.links.iter()
    }

    /// Returns the identifiers of links leaving `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this network.
    #[must_use]
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node.index()]
    }

    /// Returns the identifiers of links entering `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this network.
    #[must_use]
    pub fn in_links(&self, node: NodeId) -> &[LinkId] {
        &self.in_links[node.index()]
    }

    /// Finds the first link from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoSuchLink`] if no such link exists, and
    /// [`TopologyError::UnknownNode`] if `src` is not a node of this network.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Result<LinkId, TopologyError> {
        if src.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(src));
        }
        self.out_links[src.index()]
            .iter()
            .copied()
            .find(|&e| self.links[e.index()].dst == dst)
            .ok_or(TopologyError::NoSuchLink { src, dst })
    }

    /// Returns all node identifiers with the given role, in identifier order.
    #[must_use]
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == kind)
            .map(Node::id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Source, "a");
        let b = net.add_node(NodeKind::InputTor, "b");
        let c = net.add_node(NodeKind::Destination, "c");
        (net, a, b, c)
    }

    #[test]
    fn nodes_get_dense_ids() {
        let (net, a, b, c) = tiny();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 2);
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.node(b).label(), "b");
        assert_eq!(net.node(b).kind(), NodeKind::InputTor);
    }

    #[test]
    fn links_update_adjacency() {
        let (mut net, a, b, c) = tiny();
        let e1 = net.add_link(a, b, Capacity::unit()).unwrap();
        let e2 = net.add_link(b, c, Capacity::Infinite).unwrap();
        assert_eq!(net.out_links(a), &[e1]);
        assert_eq!(net.in_links(b), &[e1]);
        assert_eq!(net.out_links(b), &[e2]);
        assert_eq!(net.in_links(c), &[e2]);
        assert_eq!(net.link(e2).capacity(), Capacity::Infinite);
        assert_eq!(net.link_count(), 2);
    }

    #[test]
    fn parallel_links_allowed() {
        let (mut net, a, b, _) = tiny();
        let e1 = net.add_link(a, b, Capacity::unit()).unwrap();
        let e2 = net.add_link(a, b, Capacity::unit()).unwrap();
        assert_ne!(e1, e2);
        assert_eq!(net.out_links(a).len(), 2);
        // find_link returns the first.
        assert_eq!(net.find_link(a, b).unwrap(), e1);
    }

    #[test]
    fn self_loop_rejected() {
        let (mut net, a, _, _) = tiny();
        assert_eq!(
            net.add_link(a, a, Capacity::unit()),
            Err(TopologyError::SelfLoop(a))
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let (mut net, a, _, _) = tiny();
        let ghost = NodeId::new(99);
        assert_eq!(
            net.add_link(a, ghost, Capacity::unit()),
            Err(TopologyError::UnknownNode(ghost))
        );
        assert_eq!(
            net.add_link(ghost, a, Capacity::unit()),
            Err(TopologyError::UnknownNode(ghost))
        );
        assert_eq!(
            net.find_link(ghost, a),
            Err(TopologyError::UnknownNode(ghost))
        );
    }

    #[test]
    fn find_link_reports_missing() {
        let (mut net, a, b, c) = tiny();
        net.add_link(a, b, Capacity::unit()).unwrap();
        assert_eq!(
            net.find_link(a, c),
            Err(TopologyError::NoSuchLink { src: a, dst: c })
        );
    }

    #[test]
    fn nodes_of_kind_filters() {
        let (net, a, b, c) = tiny();
        assert_eq!(net.nodes_of_kind(NodeKind::Source), vec![a]);
        assert_eq!(net.nodes_of_kind(NodeKind::InputTor), vec![b]);
        assert_eq!(net.nodes_of_kind(NodeKind::Destination), vec![c]);
        assert!(net.nodes_of_kind(NodeKind::Middle).is_empty());
    }

    #[test]
    fn error_display() {
        let e = TopologyError::NoSuchLink {
            src: NodeId::new(0),
            dst: NodeId::new(1),
        };
        assert_eq!(e.to_string(), "no link from v0 to v1");
        assert_eq!(
            TopologyError::SelfLoop(NodeId::new(2)).to_string(),
            "self-loop at node v2"
        );
        assert_eq!(
            TopologyError::UnknownNode(NodeId::new(3)).to_string(),
            "unknown node v3"
        );
    }

    #[test]
    fn iterators_cover_everything() {
        let (mut net, a, b, c) = tiny();
        net.add_link(a, b, Capacity::unit()).unwrap();
        net.add_link(b, c, Capacity::unit()).unwrap();
        assert_eq!(net.nodes().count(), 3);
        assert_eq!(net.links().count(), 2);
        assert!(net.links().all(|l| l.src() != l.dst()));
    }
}
