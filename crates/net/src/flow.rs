//! Unsplittable flows.

use std::error::Error;
use std::fmt;

use crate::{Network, NodeId, NodeKind};

/// An unsplittable flow: a source–destination pair demanding capacity.
///
/// Multiple flows may map to the same pair (§2.2) — congestion control
/// accepts every offered flow, unlike the admission-control model of early
/// telephone networks. A flow carries no demand value: under max-min fair
/// congestion control its rate is an *output* of the allocation, not an
/// input.
///
/// Flow collections are plain `&[Flow]` slices; a flow's [`FlowId`] is its
/// position in the slice.
///
/// # Examples
///
/// ```
/// use clos_net::{ClosNetwork, Flow};
///
/// let clos = ClosNetwork::standard(2);
/// let f = Flow::new(clos.source(0, 0), clos.destination(1, 1));
/// assert_eq!(f.src(), clos.source(0, 0));
/// ```
///
/// [`FlowId`]: crate::FlowId
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Flow {
    src: NodeId,
    dst: NodeId,
}

impl Flow {
    /// Creates a flow from `src` to `dst`.
    #[must_use]
    pub const fn new(src: NodeId, dst: NodeId) -> Flow {
        Flow { src, dst }
    }

    /// Returns the source server.
    #[must_use]
    pub const fn src(self) -> NodeId {
        self.src
    }

    /// Returns the destination server.
    #[must_use]
    pub const fn dst(self) -> NodeId {
        self.dst
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} -> {})", self.src, self.dst)
    }
}

/// The error returned when a flow collection is malformed for a network.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FlowError {
    /// A flow endpoint does not exist in the network.
    UnknownEndpoint {
        /// The offending flow's position in the collection.
        flow: usize,
        /// The nonexistent node.
        node: NodeId,
    },
    /// A flow's source is not a [`NodeKind::Source`] node.
    NotASource {
        /// The offending flow's position in the collection.
        flow: usize,
        /// The node used as a source.
        node: NodeId,
    },
    /// A flow's destination is not a [`NodeKind::Destination`] node.
    NotADestination {
        /// The offending flow's position in the collection.
        flow: usize,
        /// The node used as a destination.
        node: NodeId,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::UnknownEndpoint { flow, node } => {
                write!(f, "flow {flow} references unknown node {node}")
            }
            FlowError::NotASource { flow, node } => {
                write!(f, "flow {flow} starts at non-source node {node}")
            }
            FlowError::NotADestination { flow, node } => {
                write!(f, "flow {flow} ends at non-destination node {node}")
            }
        }
    }
}

impl Error for FlowError {}

/// Validates that every flow starts at a source server and ends at a
/// destination server of `net`.
///
/// # Errors
///
/// Returns the first violation found, identifying the flow by its position.
///
/// # Examples
///
/// ```
/// use clos_net::{validate_flows, ClosNetwork, Flow};
///
/// let clos = ClosNetwork::standard(2);
/// let flows = [Flow::new(clos.source(0, 0), clos.destination(0, 0))];
/// validate_flows(clos.network(), &flows)?;
/// # Ok::<(), clos_net::FlowError>(())
/// ```
pub fn validate_flows(net: &Network, flows: &[Flow]) -> Result<(), FlowError> {
    for (i, flow) in flows.iter().enumerate() {
        for node in [flow.src, flow.dst] {
            if node.index() >= net.node_count() {
                return Err(FlowError::UnknownEndpoint { flow: i, node });
            }
        }
        if net.node(flow.src).kind() != NodeKind::Source {
            return Err(FlowError::NotASource {
                flow: i,
                node: flow.src,
            });
        }
        if net.node(flow.dst).kind() != NodeKind::Destination {
            return Err(FlowError::NotADestination {
                flow: i,
                node: flow.dst,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClosNetwork;

    #[test]
    fn accessors_and_display() {
        let f = Flow::new(NodeId::new(1), NodeId::new(2));
        assert_eq!(f.src(), NodeId::new(1));
        assert_eq!(f.dst(), NodeId::new(2));
        assert_eq!(f.to_string(), "(v1 -> v2)");
    }

    #[test]
    fn valid_flows_pass() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(3, 1)),
            Flow::new(clos.source(1, 1), clos.destination(0, 0)),
            // Repeated pairs are allowed.
            Flow::new(clos.source(1, 1), clos.destination(0, 0)),
        ];
        assert!(validate_flows(clos.network(), &flows).is_ok());
    }

    #[test]
    fn swapped_endpoints_rejected() {
        let clos = ClosNetwork::standard(2);
        let flows = [Flow::new(clos.destination(0, 0), clos.source(0, 0))];
        assert_eq!(
            validate_flows(clos.network(), &flows),
            Err(FlowError::NotASource {
                flow: 0,
                node: clos.destination(0, 0)
            })
        );
    }

    #[test]
    fn switch_endpoint_rejected() {
        let clos = ClosNetwork::standard(2);
        let flows = [Flow::new(clos.source(0, 0), clos.input_tor(0))];
        assert_eq!(
            validate_flows(clos.network(), &flows),
            Err(FlowError::NotADestination {
                flow: 0,
                node: clos.input_tor(0)
            })
        );
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let clos = ClosNetwork::standard(2);
        let ghost = NodeId::new(10_000);
        let flows = [Flow::new(clos.source(0, 0), ghost)];
        assert_eq!(
            validate_flows(clos.network(), &flows),
            Err(FlowError::UnknownEndpoint {
                flow: 0,
                node: ghost
            })
        );
    }

    #[test]
    fn error_positions_point_to_offender() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(0, 0)),
            Flow::new(clos.source(0, 0), clos.input_tor(1)),
        ];
        match validate_flows(clos.network(), &flows) {
            Err(FlowError::NotADestination { flow, .. }) => assert_eq!(flow, 1),
            other => panic!("unexpected result: {other:?}"),
        }
    }
}
