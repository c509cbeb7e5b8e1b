//! Typed identifiers for nodes, links, and flows.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a dense index.
            #[must_use]
            pub const fn new(index: u32) -> $name {
                $name(index)
            }

            /// Returns the dense index, suitable for direct vector indexing.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            /// # Panics
            ///
            /// Panics if `index` exceeds `u32::MAX`.
            fn from(index: usize) -> $name {
                $name(u32::try_from(index).expect("identifier index exceeds u32::MAX"))
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// The identifier of a node (server or switch) within a [`Network`].
    ///
    /// Node identifiers are dense indices assigned in insertion order, so
    /// they can be used to index per-node vectors directly.
    ///
    /// [`Network`]: crate::Network
    NodeId,
    "v"
);

id_type!(
    /// The identifier of a directed link within a [`Network`].
    ///
    /// Link identifiers are dense indices assigned in insertion order, so
    /// they can be used to index per-link vectors (loads, residual
    /// capacities) directly.
    ///
    /// [`Network`]: crate::Network
    LinkId,
    "e"
);

id_type!(
    /// The identifier of a flow within a flow collection.
    ///
    /// Flow identifiers are positions in the `&[Flow]` slice describing the
    /// collection; allocations and routings are indexed by them.
    FlowId,
    "f"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        let n = NodeId::new(7);
        assert_eq!(n.index(), 7);
        assert_eq!(NodeId::from(7usize), n);
        assert_eq!(usize::from(n), 7);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId::new(3).to_string(), "v3");
        assert_eq!(LinkId::new(4).to_string(), "e4");
        assert_eq!(FlowId::new(5).to_string(), "f5");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(LinkId::new(1) < LinkId::new(2));
        let mut v = vec![FlowId::new(2), FlowId::new(0), FlowId::new(1)];
        v.sort();
        assert_eq!(v, vec![FlowId::new(0), FlowId::new(1), FlowId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn oversized_index_panics() {
        let _ = NodeId::from(usize::MAX);
    }
}
