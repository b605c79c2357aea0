//! The [`Payload`] trait: what the engine requires of a broadcast
//! packet, threaded through the delivery sweep.
//!
//! A radio broadcast is physically one transmission heard by every
//! neighbor, so the engine materializes each delivery by asking the
//! broadcast payload for the copy a given listener hears —
//! [`Payload::for_listener`]. For honest payloads that is a plain
//! clone (the default), and every payload type the schedules use
//! (`()`, integers, vectors, tuples, coded packets) implements it
//! that way. The hook exists for *adversarial* payloads: a Byzantine
//! equivocator hands **different listeners different packets** from
//! one slot, which is only expressible at the delivery site — the
//! act phase produces one action per node, and only the receive sweep
//! knows who is listening. See [`crate::adversary`].
//!
//! The hook is deliberately on the payload, not the behavior: the
//! receive sweep mutates the listener's behavior while reading the
//! broadcaster's action, so a per-listener decision must live on the
//! (immutable) action's payload.

use netgraph::NodeId;

use crate::Ctx;

/// A broadcastable packet: cloneable per delivery, with a per-listener
/// materialization hook.
///
/// Implementations must be cheap to clone (the engine clones once per
/// delivery) and `for_listener` must be a pure function of the payload
/// and the listener id, so the packet a listener hears never depends
/// on which other listeners were served first.
pub trait Payload: Clone {
    /// The packet a specific listener hears from this broadcast.
    ///
    /// The default is an honest radio: every listener hears the same
    /// clone. Adversarial payloads (equivocation) override this to
    /// split the audience.
    fn for_listener(&self, listener: NodeId) -> Self {
        let _ = listener;
        self.clone()
    }
}

/// A payload an adversary can manufacture: how to spam a slot with
/// junk ([`jam`](AdversarialPayload::jam)) and how to turn an honest
/// broadcast into an equivocating one
/// ([`equivocated`](AdversarialPayload::equivocated)).
///
/// Implemented by workload payloads that opt into running under a
/// Byzantine [`crate::adversary::Adversary`]; the honest engine never
/// calls these.
pub trait AdversarialPayload: Payload {
    /// A junk packet for a jamming slot. The jammer's transmission
    /// occupies the channel (it collides with honest broadcasts) and
    /// honest receivers must survive decoding it.
    fn jam(ctx: &mut Ctx<'_>) -> Self;

    /// Wraps an honest broadcast so that different listeners may hear
    /// conflicting packets (resolved per listener through
    /// [`Payload::for_listener`]).
    fn equivocated(self, ctx: &mut Ctx<'_>) -> Self;
}

macro_rules! honest_payload {
    ($($t:ty),* $(,)?) => {
        $(impl Payload for $t {})*
    };
}

honest_payload!(
    (),
    bool,
    char,
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    String,
    NodeId,
);

// The coding substrate's packets are honest payloads too; hosting the
// impl here (the trait's crate) keeps `radio_coding` free of any radio
// dependency.
impl<F: Clone> Payload for radio_coding::rlnc::CodedPacket<F> {}

impl<T: Clone> Payload for Vec<T> {}
impl<T: Clone> Payload for Option<T> {}
impl<T: Clone> Payload for std::sync::Arc<T> {}
impl<T: Clone, const N: usize> Payload for [T; N] {}

impl<A: Clone, B: Clone> Payload for (A, B) {}
impl<A: Clone, B: Clone, C: Clone> Payload for (A, B, C) {}
impl<A: Clone, B: Clone, C: Clone, D: Clone> Payload for (A, B, C, D) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_for_listener_is_clone() {
        let p = vec![1u8, 2, 3];
        assert_eq!(p.for_listener(NodeId::new(0)), p);
        assert_eq!(p.for_listener(NodeId::new(7)), p);
        assert_eq!(42u64.for_listener(NodeId::new(1)), 42);
        assert_eq!(().for_listener(NodeId::new(2)), ());
        let t = (3u64, vec![0u8; 4]);
        assert_eq!(t.for_listener(NodeId::new(3)), t);
    }

    #[test]
    fn overriding_for_listener_splits_the_audience() {
        #[derive(Clone, PartialEq, Debug)]
        struct Split;
        impl Payload for Split {
            fn for_listener(&self, listener: NodeId) -> Self {
                // Still `Split`, but prove the hook sees the listener.
                assert!(listener.index() < 4);
                Split
            }
        }
        assert_eq!(Split.for_listener(NodeId::new(3)), Split);
    }
}
