//! Source–destination paths.

use std::error::Error;
use std::fmt;

use crate::{Flow, LinkId, Network};

/// A directed path through a network, stored as a sequence of link
/// identifiers.
///
/// A path is the unit of routing for an unsplittable flow: the flow's entire
/// rate traverses every link of its assigned path (§2.2). Paths are created
/// from raw link sequences and can be validated for connectivity against a
/// network and a flow via [`Path::is_valid`].
///
/// # Examples
///
/// ```
/// use clos_net::{ClosNetwork, Flow};
///
/// let clos = ClosNetwork::standard(2);
/// let f = Flow::new(clos.source(0, 0), clos.destination(2, 1));
/// let p = clos.path_via(f, 0);
/// assert_eq!(p.len(), 4);
/// assert!(p.links().len() == 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Path {
    links: Vec<LinkId>,
}

impl Path {
    /// Creates a path from a sequence of link identifiers.
    ///
    /// The sequence is not validated here (the links may belong to any
    /// network); call [`Path::is_valid`] to check connectivity.
    #[must_use]
    pub fn new(links: Vec<LinkId>) -> Path {
        Path { links }
    }

    /// Returns the links of the path in traversal order.
    #[must_use]
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Returns the number of links (hops).
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the path has no links.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Returns an iterator over the link identifiers in traversal order.
    pub fn iter(&self) -> std::slice::Iter<'_, LinkId> {
        self.links.iter()
    }

    /// Returns `true` if the path traverses `link`.
    #[must_use]
    pub fn contains(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// Checks that this path is a connected `flow.src() → flow.dst()` walk
    /// in `net` that visits no node twice.
    ///
    /// # Errors
    ///
    /// Returns a [`PathError`] describing the first violation: an unknown
    /// link, a disconnected consecutive pair, wrong endpoints, an empty
    /// path, or a repeated node.
    pub fn is_valid(&self, net: &Network, flow: Flow) -> Result<(), PathError> {
        if self.links.is_empty() {
            return Err(PathError::Empty);
        }
        for &e in &self.links {
            if e.index() >= net.link_count() {
                return Err(PathError::UnknownLink(e));
            }
        }
        let first = net.link(self.links[0]);
        if first.src() != flow.src() {
            return Err(PathError::WrongSource {
                expected: flow.src(),
                found: first.src(),
            });
        }
        let last = net.link(*self.links.last().expect("nonempty"));
        if last.dst() != flow.dst() {
            return Err(PathError::WrongDestination {
                expected: flow.dst(),
                found: last.dst(),
            });
        }
        let mut visited = vec![flow.src()];
        for pair in self.links.windows(2) {
            let a = net.link(pair[0]);
            let b = net.link(pair[1]);
            if a.dst() != b.src() {
                return Err(PathError::Disconnected {
                    prev: pair[0],
                    next: pair[1],
                });
            }
            visited.push(a.dst());
        }
        visited.push(flow.dst());
        for (i, &n) in visited.iter().enumerate() {
            if visited[..i].contains(&n) {
                return Err(PathError::RepeatedNode(n));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.links.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<LinkId> for Path {
    fn from_iter<I: IntoIterator<Item = LinkId>>(iter: I) -> Path {
        Path::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a LinkId;
    type IntoIter = std::slice::Iter<'a, LinkId>;

    fn into_iter(self) -> Self::IntoIter {
        self.links.iter()
    }
}

/// The error returned when a [`Path`] fails validation against a network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathError {
    /// The path has no links.
    Empty,
    /// The path references a link that does not exist in the network.
    UnknownLink(LinkId),
    /// Two consecutive links do not share a node.
    Disconnected {
        /// The earlier link.
        prev: LinkId,
        /// The later link whose tail does not match.
        next: LinkId,
    },
    /// The path does not start at the flow's source.
    WrongSource {
        /// The flow's source.
        expected: crate::NodeId,
        /// The path's actual first node.
        found: crate::NodeId,
    },
    /// The path does not end at the flow's destination.
    WrongDestination {
        /// The flow's destination.
        expected: crate::NodeId,
        /// The path's actual last node.
        found: crate::NodeId,
    },
    /// The walk visits a node more than once.
    RepeatedNode(crate::NodeId),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => write!(f, "path is empty"),
            PathError::UnknownLink(e) => write!(f, "path references unknown link {e}"),
            PathError::Disconnected { prev, next } => {
                write!(f, "links {prev} and {next} are not adjacent")
            }
            PathError::WrongSource { expected, found } => {
                write!(f, "path starts at {found}, expected {expected}")
            }
            PathError::WrongDestination { expected, found } => {
                write!(f, "path ends at {found}, expected {expected}")
            }
            PathError::RepeatedNode(n) => write!(f, "path visits node {n} twice"),
        }
    }
}

impl Error for PathError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Capacity, NodeKind};

    fn line() -> (Network, Vec<crate::NodeId>, Vec<LinkId>) {
        let mut net = Network::new();
        let s = net.add_node(NodeKind::Source, "s");
        let a = net.add_node(NodeKind::InputTor, "a");
        let b = net.add_node(NodeKind::OutputTor, "b");
        let t = net.add_node(NodeKind::Destination, "t");
        let e0 = net.add_link(s, a, Capacity::unit()).unwrap();
        let e1 = net.add_link(a, b, Capacity::unit()).unwrap();
        let e2 = net.add_link(b, t, Capacity::unit()).unwrap();
        (net, vec![s, a, b, t], vec![e0, e1, e2])
    }

    #[test]
    fn valid_path_accepted() {
        let (net, nodes, links) = line();
        let flow = Flow::new(nodes[0], nodes[3]);
        let p = Path::new(links.clone());
        assert!(p.is_valid(&net, flow).is_ok());
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(p.contains(links[1]));
    }

    #[test]
    fn empty_path_rejected() {
        let (net, nodes, _) = line();
        let flow = Flow::new(nodes[0], nodes[3]);
        assert_eq!(
            Path::new(vec![]).is_valid(&net, flow),
            Err(PathError::Empty)
        );
    }

    #[test]
    fn wrong_endpoints_rejected() {
        let (net, nodes, links) = line();
        let flow = Flow::new(nodes[1], nodes[3]);
        assert!(matches!(
            Path::new(links.clone()).is_valid(&net, flow),
            Err(PathError::WrongSource { .. })
        ));
        let flow = Flow::new(nodes[0], nodes[2]);
        assert!(matches!(
            Path::new(links).is_valid(&net, flow),
            Err(PathError::WrongDestination { .. })
        ));
    }

    #[test]
    fn gap_rejected() {
        let (net, nodes, links) = line();
        let flow = Flow::new(nodes[0], nodes[3]);
        let p = Path::new(vec![links[0], links[2]]);
        assert_eq!(
            p.is_valid(&net, flow),
            Err(PathError::Disconnected {
                prev: links[0],
                next: links[2]
            })
        );
    }

    #[test]
    fn unknown_link_rejected() {
        let (net, nodes, _) = line();
        let flow = Flow::new(nodes[0], nodes[3]);
        let p = Path::new(vec![LinkId::new(17)]);
        assert_eq!(
            p.is_valid(&net, flow),
            Err(PathError::UnknownLink(LinkId::new(17)))
        );
    }

    #[test]
    fn cycle_rejected() {
        let mut net = Network::new();
        let s = net.add_node(NodeKind::Source, "s");
        let a = net.add_node(NodeKind::Middle, "a");
        let t = net.add_node(NodeKind::Destination, "t");
        let e0 = net.add_link(s, a, Capacity::unit()).unwrap();
        let e1 = net.add_link(a, s, Capacity::unit()).unwrap();
        let _ = net.add_link(s, t, Capacity::unit());
        let e2 = net.add_link(s, t, Capacity::unit()).unwrap();
        let flow = Flow::new(s, t);
        let p = Path::new(vec![e0, e1, e2]);
        assert_eq!(p.is_valid(&net, flow), Err(PathError::RepeatedNode(s)));
    }

    #[test]
    fn display_and_iter() {
        let p: Path = [LinkId::new(0), LinkId::new(2)].into_iter().collect();
        assert_eq!(p.to_string(), "[e0 e2]");
        let collected: Vec<_> = (&p).into_iter().copied().collect();
        assert_eq!(collected, vec![LinkId::new(0), LinkId::new(2)]);
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn error_display() {
        assert_eq!(PathError::Empty.to_string(), "path is empty");
        assert_eq!(
            PathError::RepeatedNode(crate::NodeId::new(1)).to_string(),
            "path visits node v1 twice"
        );
    }
}
