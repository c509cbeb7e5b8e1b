//! Flow events: the vocabulary of the churn engine.
//!
//! A churn trace is a sequence of [`TimedEvent`]s; each wraps a
//! [`FlowEvent`] — a flow arriving (with its endpoints) or departing
//! (by key). Keys are assigned by the trace layer in arrival order and
//! identify a flow across its whole lifetime, so a `Depart` needs no
//! endpoint information.
//!
//! # Widths
//!
//! A [`FlowKey`] is 32 bits wide, the width of a `NodeId`, a `LinkId`
//! and the engine's slot and path ids. A trace therefore holds fewer
//! than 2^32 arrivals (the trace generator panics before the 2^32nd),
//! and a collected trace costs 16 bytes per [`FlowEvent`] (a key beside
//! two 4-byte node ids) and 24 per [`TimedEvent`]. The engine indexes a
//! dense table by key, so a wider key could not be used anyway.

use clos_net::Flow;

/// Identifies one flow across its lifetime in a churn trace.
///
/// The trace generators assign keys densely in arrival order (the first
/// arrival gets key 0); the engine exploits that density with an
/// index-keyed lookup table, so externally produced traces should keep
/// keys small and never reuse a key for a second arrival.
pub type FlowKey = u32;

/// One flow arriving or departing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowEvent {
    /// A new flow enters the network and must be routed and allocated.
    Arrive {
        /// The key identifying this flow until it departs.
        key: FlowKey,
        /// The flow's source and destination servers.
        flow: Flow,
    },
    /// The flow identified by `key` leaves the network.
    Depart {
        /// The key of a previously arrived, still-live flow.
        key: FlowKey,
    },
}

impl FlowEvent {
    /// Returns the key of the flow this event concerns.
    #[must_use]
    pub fn key(&self) -> FlowKey {
        match *self {
            FlowEvent::Arrive { key, .. } | FlowEvent::Depart { key } => key,
        }
    }

    /// Returns `true` for an arrival.
    #[must_use]
    pub fn is_arrival(&self) -> bool {
        matches!(self, FlowEvent::Arrive { .. })
    }
}

/// A flow event stamped with its occurrence time.
///
/// Times are nanoseconds on the trace's simulated clock, strictly
/// monotone within a generated trace (ties are broken by the generator
/// spacing events at least one nanosecond apart).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimedEvent {
    /// Simulated occurrence time in nanoseconds.
    pub time_ns: u64,
    /// The event itself.
    pub event: FlowEvent,
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::ClosNetwork;

    /// The layouts the module docs' widths promise.
    #[test]
    fn event_sizes() {
        assert_eq!(std::mem::size_of::<FlowEvent>(), 16);
        assert_eq!(std::mem::size_of::<TimedEvent>(), 24);
    }

    #[test]
    fn event_accessors() {
        let clos = ClosNetwork::standard(2);
        let f = Flow::new(clos.source(0, 0), clos.destination(1, 1));
        let a = FlowEvent::Arrive { key: 7, flow: f };
        let d = FlowEvent::Depart { key: 7 };
        assert_eq!(a.key(), 7);
        assert_eq!(d.key(), 7);
        assert!(a.is_arrival());
        assert!(!d.is_arrival());
    }
}
