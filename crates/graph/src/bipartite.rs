//! The bipartite multigraph representation.

use std::fmt;

/// A bipartite multigraph given by an explicit edge list.
///
/// Left and right nodes are dense indices `0..left_count` and
/// `0..right_count`; edges may repeat (parallel edges), which is essential
/// here because a flow collection routinely contains several flows between
/// the same source–destination pair (§2.2). Edges are identified by their
/// position in the list, so matchings and colorings can refer back to the
/// flows that induced them.
///
/// Two instantiations appear throughout the workspace (§3, §5):
///
/// * `G^MS` — left = sources, right = destinations, edges = flows; its
///   maximum matching size is the maximum throughput across the
///   macro-switch (Lemma 3.2).
/// * `G^C` — left = input ToRs, right = output ToRs, edges = flows
///   identified by their ToR pair; an `n`-edge-coloring of it is a
///   link-disjoint routing (footnote 5).
///
/// # Examples
///
/// ```
/// use clos_graph::BipartiteMultigraph;
///
/// let g = BipartiteMultigraph::from_edges(3, 2, vec![(0, 1), (2, 0), (0, 1)]);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.left_degree(0), 2);
/// assert_eq!(g.max_degree(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BipartiteMultigraph {
    left_count: usize,
    right_count: usize,
    edges: Vec<(usize, usize)>,
}

impl BipartiteMultigraph {
    /// Creates a multigraph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any edge endpoint is out of range.
    #[must_use]
    pub fn from_edges(
        left_count: usize,
        right_count: usize,
        edges: Vec<(usize, usize)>,
    ) -> BipartiteMultigraph {
        for &(l, r) in &edges {
            assert!(
                l < left_count,
                "left endpoint {l} out of range {left_count}"
            );
            assert!(
                r < right_count,
                "right endpoint {r} out of range {right_count}"
            );
        }
        BipartiteMultigraph {
            left_count,
            right_count,
            edges,
        }
    }

    /// Returns the number of left-side nodes.
    #[must_use]
    pub fn left_count(&self) -> usize {
        self.left_count
    }

    /// Returns the number of right-side nodes.
    #[must_use]
    pub fn right_count(&self) -> usize {
        self.right_count
    }

    /// Returns the number of edges (with multiplicity).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the edge list in index order.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Returns the endpoints of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn edge(&self, e: usize) -> (usize, usize) {
        self.edges[e]
    }

    /// Returns the degree (with multiplicity) of left node `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[must_use]
    pub fn left_degree(&self, l: usize) -> usize {
        assert!(l < self.left_count, "left node out of range");
        self.edges.iter().filter(|&&(a, _)| a == l).count()
    }

    /// Returns the degree (with multiplicity) of right node `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn right_degree(&self, r: usize) -> usize {
        assert!(r < self.right_count, "right node out of range");
        self.edges.iter().filter(|&&(_, b)| b == r).count()
    }

    /// Returns the maximum degree over all nodes on both sides.
    ///
    /// König's theorem guarantees an edge coloring with exactly this many
    /// colors.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        let mut left = vec![0usize; self.left_count];
        let mut right = vec![0usize; self.right_count];
        for &(l, r) in &self.edges {
            left[l] += 1;
            right[r] += 1;
        }
        left.into_iter().chain(right).max().unwrap_or(0)
    }

    /// Returns, for each left node, the indices of its incident edges.
    #[must_use]
    pub fn left_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.left_count];
        for (e, &(l, _)) in self.edges.iter().enumerate() {
            adj[l].push(e);
        }
        adj
    }

    /// Returns, for each right node, the indices of its incident edges.
    #[must_use]
    pub fn right_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.right_count];
        for (e, &(_, r)) in self.edges.iter().enumerate() {
            adj[r].push(e);
        }
        adj
    }
}

impl fmt::Display for BipartiteMultigraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bipartite({}x{}, {} edges)",
            self.left_count,
            self.right_count,
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let g = BipartiteMultigraph::from_edges(3, 2, vec![(0, 0), (0, 1), (2, 1)]);
        assert_eq!(g.left_count(), 3);
        assert_eq!(g.right_count(), 2);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge(1), (0, 1));
        assert_eq!(g.edges()[2], (2, 1));
    }

    #[test]
    fn degrees_count_multiplicity() {
        let g = BipartiteMultigraph::from_edges(2, 2, vec![(0, 0), (0, 0), (0, 1), (1, 1)]);
        assert_eq!(g.left_degree(0), 3);
        assert_eq!(g.left_degree(1), 1);
        assert_eq!(g.right_degree(0), 2);
        assert_eq!(g.right_degree(1), 2);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteMultigraph::from_edges(0, 0, vec![]);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_rejected() {
        let _ = BipartiteMultigraph::from_edges(1, 1, vec![(0, 1)]);
    }

    #[test]
    fn adjacency_lists() {
        let g = BipartiteMultigraph::from_edges(2, 2, vec![(0, 0), (1, 0), (0, 1)]);
        assert_eq!(g.left_adjacency(), vec![vec![0, 2], vec![1]]);
        assert_eq!(g.right_adjacency(), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn display() {
        let g = BipartiteMultigraph::from_edges(2, 3, vec![(0, 0)]);
        assert_eq!(g.to_string(), "bipartite(2x3, 1 edges)");
    }
}
