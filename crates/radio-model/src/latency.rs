//! Per-node delivery latency instrumentation.
//!
//! The paper's guarantees are stated in rounds-to-completion, but the
//! latency-optimal line of work (Xin–Xia 2017, arXiv:1709.01494) asks
//! *when each node first decodes*, not when the last one does. The
//! engine therefore tracks, per node:
//!
//! * the round of the node's **first [`crate::Reception::Packet`]**
//!   (its first-delivery round), and
//! * the round in which the node's **decode completed** — the first
//!   round at whose end [`crate::NodeBehavior::decoded`] reported
//!   `true` (`0` for nodes decoded at construction, e.g. the source).
//!
//! Both are 0-based round indices; a node first served in round `r`
//! has a *latency* of `r + 1` rounds. Read the profile with
//! [`crate::Simulator::latency_profile`].

/// Per-node first-delivery and decode-completion rounds of one
/// simulation.
///
/// Both values are 0-based round indices: the round of the node's
/// first [`crate::Reception::Packet`], and the first round at whose
/// end [`crate::NodeBehavior::decoded`] reported `true` (`0` for
/// nodes decoded at construction, e.g. the source). A node first
/// served in round `r` has a *latency* of `r + 1` rounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyProfile {
    /// `first_packet[v]` = round of node `v`'s first
    /// `Reception::Packet`, or `None` if it never received one.
    pub(crate) first_packet: Vec<Option<u64>>,
    /// `decode[v]` = first round at whose end `v`'s behavior reported
    /// [`crate::NodeBehavior::decoded`], or `None`.
    pub(crate) decode: Vec<Option<u64>>,
}

impl LatencyProfile {
    /// Number of nodes the profile covers.
    pub fn node_count(&self) -> usize {
        self.first_packet.len()
    }

    /// The round of node `v`'s first packet reception, by index.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn first_packet(&self, v: netgraph::NodeId) -> Option<u64> {
        self.first_packet[v.index()]
    }

    /// The round node `v`'s decode completed (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn decode_complete(&self, v: netgraph::NodeId) -> Option<u64> {
        self.decode[v.index()]
    }

    /// Nodes that have received at least one packet.
    pub fn delivered_count(&self) -> usize {
        self.first_packet.iter().filter(|r| r.is_some()).count()
    }

    /// Nodes whose decode has completed.
    pub fn decoded_count(&self) -> usize {
        self.decode.iter().filter(|r| r.is_some()).count()
    }

    /// Delivery latencies (`round + 1`) of every node that received a
    /// packet, in node order. Note this is the *physical* reception
    /// record: a broadcast source that listens in some rounds can hear
    /// its own message echoed back from a neighbor and then appears
    /// here too — use
    /// [`LatencyProfile::delivery_latencies_excluding`] to drop it
    /// from broadcast-latency distributions.
    pub fn delivery_latencies(&self) -> Vec<u64> {
        self.first_packet
            .iter()
            .filter_map(|r| Some((*r)? + 1))
            .collect()
    }

    /// As [`LatencyProfile::delivery_latencies`], but excluding node
    /// `v` — typically the broadcast source, whose only receptions are
    /// echoes of the message it already holds.
    pub fn delivery_latencies_excluding(&self, v: netgraph::NodeId) -> Vec<u64> {
        self.first_packet
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != v.index())
            .filter_map(|(_, r)| Some((*r)? + 1))
            .collect()
    }

    /// Decode latencies (`round + 1`) of every node that completed its
    /// decode, in node order.
    pub fn decode_latencies(&self) -> Vec<u64> {
        self.decode.iter().filter_map(|r| Some((*r)? + 1)).collect()
    }

    /// The largest delivery latency, or `None` if nothing was
    /// delivered.
    pub fn max_delivery_latency(&self) -> Option<u64> {
        self.first_packet.iter().flatten().max().map(|r| r + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::NodeId;

    fn profile() -> LatencyProfile {
        LatencyProfile {
            first_packet: vec![None, Some(0), Some(4)],
            decode: vec![Some(0), Some(0), Some(6)],
        }
    }

    #[test]
    fn accessors() {
        let p = profile();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.first_packet(NodeId::new(0)), None);
        assert_eq!(p.first_packet(NodeId::new(2)), Some(4));
        assert_eq!(p.decode_complete(NodeId::new(2)), Some(6));
        assert_eq!(p.delivered_count(), 2);
        assert_eq!(p.decoded_count(), 3);
    }

    #[test]
    fn latencies_are_rounds_plus_one() {
        let p = profile();
        assert_eq!(p.delivery_latencies(), vec![1, 5]);
        assert_eq!(p.decode_latencies(), vec![1, 1, 7]);
        assert_eq!(p.max_delivery_latency(), Some(5));
    }

    #[test]
    fn excluding_drops_only_the_named_node() {
        let p = profile();
        assert_eq!(p.delivery_latencies_excluding(NodeId::new(1)), vec![5]);
        // Excluding a node that never received changes nothing.
        assert_eq!(p.delivery_latencies_excluding(NodeId::new(0)), vec![1, 5]);
    }

    #[test]
    fn empty_profile() {
        let p = LatencyProfile {
            first_packet: vec![None; 2],
            decode: vec![None; 2],
        };
        assert_eq!(p.delivered_count(), 0);
        assert_eq!(p.delivery_latencies(), Vec::<u64>::new());
        assert_eq!(p.max_delivery_latency(), None);
    }
}
