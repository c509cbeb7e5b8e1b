//! Topology model for the clos-routing workspace.
//!
//! This crate defines the two network models studied by Ferreira et al.
//! (PODC '24):
//!
//! * [`ClosNetwork`] — the three-stage Clos network `C_n` (§2.1): `2n` input
//!   top-of-rack (ToR) switches, `n` middle switches, `2n` output ToR
//!   switches, and `n` servers per ToR, with unit-capacity links. Every
//!   source–destination pair is connected by exactly `n` paths, one per
//!   middle switch. A generalized form with arbitrary ToR counts, hosts per
//!   ToR, middle-switch counts, and capacities is also supported.
//! * [`MacroSwitch`] — the macro-switch abstraction `MS_n`: the middle stage
//!   is replaced by a complete bipartite mesh of infinite-capacity links, so
//!   only the server↔ToR links constrain rates.
//!
//! Beyond the paper's topologies, the [`Fabric`] trait abstracts any
//! multi-stage fabric with per-flow candidate paths indexed by routing
//! class; [`BenesNetwork`] (log-depth, rearrangeably non-blocking) and
//! [`FatTree`] (k-ary, with edge-layer oversubscription and a collapsed
//! Clos-equivalent mode) implement it alongside [`ClosNetwork`].
//!
//! On top of the topologies it defines the traffic model: [`Flow`]s
//! (unsplittable source→destination demands, possibly many per pair),
//! [`Path`]s, and [`Routing`]s (an assignment of each flow to one path).
//!
//! # Examples
//!
//! Build `C_2`, route a flow through middle switch 1, and check the path:
//!
//! ```
//! use clos_net::{ClosNetwork, Flow};
//!
//! let clos = ClosNetwork::standard(2);
//! let flow = Flow::new(clos.source(0, 1), clos.destination(3, 0));
//! let path = clos.path_via(flow, 1);
//! assert_eq!(path.len(), 4); // server→ToR, ToR→middle, middle→ToR, ToR→server
//! assert!(path.is_valid(clos.network(), flow).is_ok());
//! ```

pub mod dot;

mod benes;
mod capacity;
mod clos;
mod fabric;
pub mod failure;
mod fat_tree;
mod flow;
mod ids;
mod macro_switch;
mod network;
mod path;
mod routing;

pub use crate::benes::BenesNetwork;
pub use crate::capacity::Capacity;
pub use crate::clos::{ClosNetwork, ClosParams};
pub use crate::fabric::Fabric;
pub use crate::failure::{
    apply_event, interior_overlay, CapacityMap, FailureEvent, FailureSchedule,
};
pub use crate::fat_tree::FatTree;
pub use crate::flow::{validate_flows, Flow, FlowError};
pub use crate::ids::{FlowId, LinkId, NodeId};
pub use crate::macro_switch::MacroSwitch;
pub use crate::network::{expect_server_coords, Network, Node, NodeKind, TopologyError};
pub use crate::path::{Path, PathError};
pub use crate::routing::{Routing, RoutingError};
