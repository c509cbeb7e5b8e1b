//! Routings: the assignment of each flow to a single path.

use std::error::Error;
use std::fmt;

use crate::{Flow, FlowId, LinkId, Network, Path, PathError};

/// A routing: one [`Path`] per flow, indexed by flow position (§2.2).
///
/// In a macro-switch the routing is unique; in a Clos network `C_n` there
/// are `n^|F|` routings, and both the max-min fair allocation and the
/// throughput depend on which one is chosen — the central theme of the
/// paper. `Routing` is a passive data structure; the allocators in
/// `clos-fairness` consume it, and the routers in `clos-core` produce it.
///
/// # Examples
///
/// ```
/// use clos_net::{ClosNetwork, Flow, Routing};
///
/// let clos = ClosNetwork::standard(2);
/// let flows = [Flow::new(clos.source(0, 0), clos.destination(2, 0))];
/// let routing = Routing::new(vec![clos.path_via(flows[0], 1)]);
/// routing.validate(clos.network(), &flows)?;
/// # Ok::<(), clos_net::RoutingError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Routing {
    paths: Vec<Path>,
}

impl Routing {
    /// Creates a routing from one path per flow, in flow order.
    #[must_use]
    pub fn new(paths: Vec<Path>) -> Routing {
        Routing { paths }
    }

    /// Returns the path assigned to `flow`.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range for this routing.
    #[must_use]
    pub fn path(&self, flow: FlowId) -> &Path {
        &self.paths[flow.index()]
    }

    /// Returns all paths in flow order.
    #[must_use]
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Returns the number of routed flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Returns `true` if no flows are routed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Replaces the path of `flow`, returning the previous path.
    ///
    /// Used by local-search routers that move one flow at a time.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range for this routing.
    pub fn reassign(&mut self, flow: FlowId, path: Path) -> Path {
        std::mem::replace(&mut self.paths[flow.index()], path)
    }

    /// Validates the routing against a network and flow collection: the
    /// number of paths matches the number of flows and each path is a valid
    /// source→destination path for its flow.
    ///
    /// # Errors
    ///
    /// Returns [`RoutingError::LengthMismatch`] or the first per-flow
    /// [`RoutingError::InvalidPath`].
    pub fn validate(&self, net: &Network, flows: &[Flow]) -> Result<(), RoutingError> {
        if self.paths.len() != flows.len() {
            return Err(RoutingError::LengthMismatch {
                paths: self.paths.len(),
                flows: flows.len(),
            });
        }
        for (i, (path, &flow)) in self.paths.iter().zip(flows).enumerate() {
            path.is_valid(net, flow)
                .map_err(|source| RoutingError::InvalidPath {
                    flow: FlowId::from(i),
                    source,
                })?;
        }
        Ok(())
    }

    /// Returns, for every link of `net`, the flows whose paths traverse it.
    ///
    /// The result is indexed by [`LinkId`]. This is the primitive the
    /// water-filling allocator uses to find bottleneck links.
    #[must_use]
    pub fn flows_per_link(&self, net: &Network) -> Vec<Vec<FlowId>> {
        let mut members = vec![Vec::new(); net.link_count()];
        for (i, path) in self.paths.iter().enumerate() {
            for &e in path.links() {
                members[e.index()].push(FlowId::from(i));
            }
        }
        members
    }

    /// Returns the flows whose paths traverse `link`.
    #[must_use]
    pub fn flows_on_link(&self, link: LinkId) -> Vec<FlowId> {
        self.paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.contains(link))
            .map(|(i, _)| FlowId::from(i))
            .collect()
    }
}

impl FromIterator<Path> for Routing {
    fn from_iter<I: IntoIterator<Item = Path>>(iter: I) -> Routing {
        Routing::new(iter.into_iter().collect())
    }
}

/// The error returned when a [`Routing`] fails validation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingError {
    /// The routing has a different number of paths than there are flows.
    LengthMismatch {
        /// Number of paths in the routing.
        paths: usize,
        /// Number of flows in the collection.
        flows: usize,
    },
    /// A path is not a valid source→destination path for its flow.
    InvalidPath {
        /// The flow whose path is invalid.
        flow: FlowId,
        /// The underlying path validation error.
        source: PathError,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::LengthMismatch { paths, flows } => {
                write!(f, "routing has {paths} paths for {flows} flows")
            }
            RoutingError::InvalidPath { flow, source } => {
                write!(f, "invalid path for flow {flow}: {source}")
            }
        }
    }
}

impl Error for RoutingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RoutingError::InvalidPath { source, .. } => Some(source),
            RoutingError::LengthMismatch { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClosNetwork;

    fn setup() -> (ClosNetwork, Vec<Flow>) {
        let clos = ClosNetwork::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(3, 1)),
        ];
        (clos, flows)
    }

    #[test]
    fn valid_routing_passes() {
        let (clos, flows) = setup();
        let routing: Routing = flows.iter().map(|&f| clos.path_via(f, 0)).collect();
        assert!(routing.validate(clos.network(), &flows).is_ok());
        assert_eq!(routing.len(), 2);
        assert!(!routing.is_empty());
    }

    #[test]
    fn length_mismatch_detected() {
        let (clos, flows) = setup();
        let routing = Routing::new(vec![clos.path_via(flows[0], 0)]);
        assert_eq!(
            routing.validate(clos.network(), &flows),
            Err(RoutingError::LengthMismatch { paths: 1, flows: 2 })
        );
    }

    #[test]
    fn wrong_path_detected_with_flow_position() {
        let (clos, flows) = setup();
        // Give flow 1 the path of flow 0.
        let routing = Routing::new(vec![clos.path_via(flows[0], 0), clos.path_via(flows[0], 0)]);
        match routing.validate(clos.network(), &flows) {
            Err(RoutingError::InvalidPath { flow, .. }) => assert_eq!(flow, FlowId::new(1)),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn flows_per_link_indexes_members() {
        let (clos, flows) = setup();
        // Both flows through middle switch 0: they share the I_0 -> M_0 uplink.
        let routing: Routing = flows.iter().map(|&f| clos.path_via(f, 0)).collect();
        let members = routing.flows_per_link(clos.network());
        let uplink = clos.uplink(0, 0);
        assert_eq!(
            members[uplink.index()],
            vec![FlowId::new(0), FlowId::new(1)]
        );
        assert_eq!(
            routing.flows_on_link(uplink),
            vec![FlowId::new(0), FlowId::new(1)]
        );
        // Different middle switches: the uplink carries only one flow.
        let routing2 = Routing::new(vec![clos.path_via(flows[0], 0), clos.path_via(flows[1], 1)]);
        assert_eq!(routing2.flows_on_link(uplink), vec![FlowId::new(0)]);
    }

    #[test]
    fn reassign_swaps_path() {
        let (clos, flows) = setup();
        let mut routing: Routing = flows.iter().map(|&f| clos.path_via(f, 0)).collect();
        let old = routing.reassign(FlowId::new(0), clos.path_via(flows[0], 1));
        assert_eq!(&old, &clos.path_via(flows[0], 0));
        assert_eq!(routing.path(FlowId::new(0)), &clos.path_via(flows[0], 1));
        assert!(routing.validate(clos.network(), &flows).is_ok());
    }

    #[test]
    fn error_display_and_source() {
        let (clos, flows) = setup();
        let routing = Routing::new(vec![]);
        let err = routing.validate(clos.network(), &flows).unwrap_err();
        assert!(err.to_string().contains("0 paths for 2 flows"));
        assert!(Error::source(&err).is_none());
    }
}
