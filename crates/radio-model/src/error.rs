//! Error type for simulator construction and stepping.

use std::error::Error;
use std::fmt;

/// Errors from constructing or driving the simulator.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A fault probability outside `[0, 1)`.
    InvalidFaultProbability {
        /// The offending probability.
        p: f64,
    },
    /// The number of supplied per-node values does not match the
    /// graph's node count.
    NodeCountMismatch {
        /// Values supplied.
        supplied: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// An adversary was asked to corrupt more nodes than remain once
    /// the spared ones are set aside.
    TooManyFaulty {
        /// Nodes asked to be corrupted.
        faulty: usize,
        /// Nodes not spared, the most that can be corrupted.
        unspared: usize,
    },
    /// A routing controller listed a sender the runner cannot accept:
    /// a node outside the graph, a message outside `0..k`, or a node
    /// listed twice in one round.
    InvalidSender {
        /// Round of the offending decision.
        round: u64,
        /// The listed node index.
        node: usize,
        /// The listed message index.
        message: usize,
        /// Nodes in the graph.
        nodes: usize,
        /// Messages `k` of the run.
        messages: usize,
    },
    /// An adaptive-routing run was asked for more messages than a
    /// [`MsgId`](crate::adaptive::MsgId) can name (2³²).
    TooManyMessages {
        /// The requested message count `k`.
        messages: usize,
    },
    /// A state too large to allocate: its size overflows `usize`, or
    /// the allocator refused it.
    TooLarge {
        /// What could not be allocated, e.g. `a 5 x 4294967296 bit
        /// matrix`.
        what: String,
    },
    /// Two channels whose delivery-side presentations differ
    /// (`receiver` noise vs `erasure` detection) cannot be composed.
    IncompatibleChannels {
        /// Rendered left channel.
        left: String,
        /// Rendered right channel.
        right: String,
    },
    /// A channel spec string that does not parse.
    InvalidChannelSpec {
        /// The offending spec (or term of a composed spec).
        spec: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidFaultProbability { p } => {
                write!(f, "fault probability {p} outside [0, 1)")
            }
            ModelError::NodeCountMismatch { supplied, expected } => {
                write!(
                    f,
                    "supplied {supplied} per-node values for a graph of {expected} nodes"
                )
            }
            ModelError::TooManyFaulty { faulty, unspared } => {
                write!(
                    f,
                    "cannot corrupt {faulty} faulty nodes: only {unspared} nodes are unspared"
                )
            }
            ModelError::InvalidSender {
                round,
                node,
                message,
                nodes,
                messages,
            } => {
                write!(f, "round {round}: controller listed ")?;
                if node >= nodes {
                    write!(f, "node {node} in a graph of {nodes} nodes")
                } else if message >= messages {
                    write!(f, "message {message} for node {node}, but k = {messages}")
                } else {
                    write!(f, "node {node} twice")
                }
            }
            ModelError::TooManyMessages { messages } => {
                write!(
                    f,
                    "cannot route k = {messages} messages: a message index names at most 2^32"
                )
            }
            ModelError::TooLarge { what } => {
                write!(f, "cannot allocate {what}: it does not fit in memory")
            }
            ModelError::IncompatibleChannels { left, right } => {
                write!(
                    f,
                    "cannot compose {left} with {right}: their delivery presentations differ"
                )
            }
            ModelError::InvalidChannelSpec { spec } => {
                write!(
                    f,
                    "invalid channel spec {spec:?} (expected faultless, sender:P, \
                     receiver:P, erasure:P, or a `+`-joined composition)"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            ModelError::InvalidFaultProbability { p: 1.0 }.to_string(),
            "fault probability 1 outside [0, 1)"
        );
        assert_eq!(
            ModelError::NodeCountMismatch {
                supplied: 2,
                expected: 3
            }
            .to_string(),
            "supplied 2 per-node values for a graph of 3 nodes"
        );
        assert_eq!(
            ModelError::TooManyFaulty {
                faulty: 4,
                unspared: 3
            }
            .to_string(),
            "cannot corrupt 4 faulty nodes: only 3 nodes are unspared"
        );
        let sender = |node, message| ModelError::InvalidSender {
            round: 3,
            node,
            message,
            nodes: 4,
            messages: 2,
        };
        assert_eq!(
            sender(4, 0).to_string(),
            "round 3: controller listed node 4 in a graph of 4 nodes"
        );
        assert_eq!(
            sender(1, 64).to_string(),
            "round 3: controller listed message 64 for node 1, but k = 2"
        );
        assert_eq!(
            sender(1, 1).to_string(),
            "round 3: controller listed node 1 twice"
        );
        assert_eq!(
            ModelError::IncompatibleChannels {
                left: "receiver(p=0.1)".into(),
                right: "erasure(p=0.2)".into()
            }
            .to_string(),
            "cannot compose receiver(p=0.1) with erasure(p=0.2): \
             their delivery presentations differ"
        );
        assert_eq!(
            ModelError::TooManyMessages { messages: 1 << 33 }.to_string(),
            "cannot route k = 8589934592 messages: a message index names at most 2^32"
        );
        assert_eq!(
            ModelError::TooLarge {
                what: "a 5 x 4294967296 bit matrix".into()
            }
            .to_string(),
            "cannot allocate a 5 x 4294967296 bit matrix: it does not fit in memory"
        );
        assert!(ModelError::InvalidChannelSpec {
            spec: "bogus".into()
        }
        .to_string()
        .contains("bogus"));
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_traits<T: Error + Send + Sync>() {}
        assert_traits::<ModelError>();
    }
}
