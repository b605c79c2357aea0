//! The channel layer: loss models ([`Channel`]) and per-slot listener
//! observations ([`Reception`]).
//!
//! This replaces the original closed `FaultModel` enum. A [`Channel`]
//! is an opaque, always-valid description of the loss process the
//! engine consults per delivery; constructors validate the fault
//! probability once, so an in-hand `Channel` never needs re-checking.
//! Keeping the kind private left room for composed channels (e.g.
//! sender faults *and* erasures) without a breaking change —
//! [`Channel::compose`] cashes that in: a composed channel carries an
//! independent sender-side component and one delivery-side component,
//! and the engine draws each from the same per-node fork streams it
//! already uses, so the determinism contract holds.

use std::fmt;
use std::str::FromStr;

use crate::ModelError;

/// What a listening node observes in one slot (round).
///
/// The engine hands every listener exactly one `Reception` per round —
/// the *physical* outcome of its slot:
///
/// * [`Packet`](Reception::Packet) — exactly one neighbor broadcast
///   and the channel delivered the packet;
/// * [`Noise`](Reception::Noise) — the slot carried energy but no
///   decodable packet: a collision (≥ 2 broadcasting neighbors) or a
///   sender/receiver fault of the paper's noisy model;
/// * [`Erased`](Reception::Erased) — a packet was transmitted to this
///   node but the channel erased it, *and the node knows it* (the
///   erasure model of Censor-Hillel–Haeupler–Hershkowitz–Zuzic,
///   DISC 2019);
/// * [`Silence`](Reception::Silence) — no neighbor broadcast.
///
/// **Model-fidelity contract.** In the PODC 2017 noisy radio model,
/// silence, collisions and faults are indistinguishable to a node (no
/// collision detection). Protocols claiming to run in that model must
/// therefore treat `Noise`, `Silence` and `Erased` identically —
/// typically by only matching `Packet`. Branching on the non-packet
/// kinds is what the *erasure* model (and stronger carrier-sensing
/// models) permits; [`crate::Channel::erasure`] is the channel under
/// which that distinction is meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reception<P> {
    /// A cleanly delivered packet.
    Packet(P),
    /// Collision or fault noise (indistinguishable in the paper's
    /// noisy model).
    Noise,
    /// A transmission aimed at this node was erased; the node learns
    /// *that* the loss happened (DISC 2019 erasure semantics).
    Erased,
    /// No broadcasting neighbor this round.
    Silence,
}

impl<P> Reception<P> {
    /// The delivered packet, if any (consuming).
    pub fn packet(self) -> Option<P> {
        match self {
            Reception::Packet(p) => Some(p),
            _ => None,
        }
    }

    /// The delivered packet by reference, if any.
    pub fn as_packet(&self) -> Option<&P> {
        match self {
            Reception::Packet(p) => Some(p),
            _ => None,
        }
    }

    /// Whether a packet was delivered.
    pub fn is_packet(&self) -> bool {
        matches!(self, Reception::Packet(_))
    }

    /// Whether the slot was silent.
    pub fn is_silence(&self) -> bool {
        matches!(self, Reception::Silence)
    }

    /// The payload-free kind of this reception.
    pub fn kind(&self) -> ReceptionKind {
        match self {
            Reception::Packet(_) => ReceptionKind::Packet,
            Reception::Noise => ReceptionKind::Noise,
            Reception::Erased => ReceptionKind::Erased,
            Reception::Silence => ReceptionKind::Silence,
        }
    }

    /// Maps the packet payload type.
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> Reception<Q> {
        match self {
            Reception::Packet(p) => Reception::Packet(f(p)),
            Reception::Noise => Reception::Noise,
            Reception::Erased => Reception::Erased,
            Reception::Silence => Reception::Silence,
        }
    }
}

/// The payload-free kinds of [`Reception`], for counting and test
/// generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReceptionKind {
    /// A packet was delivered.
    Packet,
    /// Collision or fault noise.
    Noise,
    /// A detected erasure.
    Erased,
    /// An empty slot.
    Silence,
}

impl ReceptionKind {
    /// All four kinds, for exhaustive test sweeps.
    pub const ALL: [ReceptionKind; 4] = [
        ReceptionKind::Packet,
        ReceptionKind::Noise,
        ReceptionKind::Erased,
        ReceptionKind::Silence,
    ];
}

/// The loss process of a (possibly noisy) radio channel.
///
/// Construct through the validated constructors; the fault probability
/// is checked once (`p ∈ [0, 1)`), so every `Channel` value is valid
/// by construction:
///
/// * [`Channel::faultless`] — the classic Chlamtac–Kutten radio model;
/// * [`Channel::sender`] — each broadcaster transmits noise with
///   probability `p` per round; the transmission still occupies the
///   channel (paper §3.1);
/// * [`Channel::receiver`] — each would-be delivery is replaced by
///   noise with probability `p`, independently per listener (§3.1);
/// * [`Channel::erasure`] — each would-be delivery is *erased* with
///   probability `p`, and the listener observes
///   [`Reception::Erased`] — the DISC 2019 erasure model, under which
///   receivers learn that a slot was lost.
///
/// `receiver(p)` and `erasure(p)` drop the same slots under the same
/// seed (the engine draws from one stream in the same order); they
/// differ only in what the listener *learns*.
///
/// Channels [`compose`](Channel::compose): `sender(a) + erasure(b)` is
/// a channel where each broadcast turns to noise with probability `a`
/// *and*, independently, each surviving delivery is erased with
/// probability `b`. A channel has at most one sender-side and one
/// delivery-side component; same-side components merge by independent
/// OR (`1 − (1−a)(1−b)`), and the two delivery presentations (noise
/// vs detected erasure) cannot be mixed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Channel {
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum Kind {
    #[default]
    Faultless,
    Sender {
        p: f64,
    },
    Receiver {
        p: f64,
    },
    Erasure {
        p: f64,
    },
    /// Independent sender-side and delivery-side loss. `erased`
    /// selects the delivery presentation ([`Reception::Erased`] vs
    /// [`Reception::Noise`]).
    Composed {
        sender_p: f64,
        delivery_p: f64,
        erased: bool,
    },
}

impl Channel {
    /// The faultless radio channel (classic model, `p = 0`).
    pub fn faultless() -> Self {
        Channel {
            kind: Kind::Faultless,
        }
    }

    /// Sender-fault channel: broadcasts become noise with probability
    /// `p` each round.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFaultProbability`] unless `p ∈ [0, 1)`.
    pub fn sender(p: f64) -> Result<Self, ModelError> {
        Self::check(p)?;
        Ok(Channel {
            kind: Kind::Sender { p },
        })
    }

    /// Receiver-fault channel: each delivery becomes noise with
    /// probability `p`, independently per listener.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFaultProbability`] unless `p ∈ [0, 1)`.
    pub fn receiver(p: f64) -> Result<Self, ModelError> {
        Self::check(p)?;
        Ok(Channel {
            kind: Kind::Receiver { p },
        })
    }

    /// Erasure channel: each delivery is erased with probability `p`,
    /// and the listener observes [`Reception::Erased`] (it learns
    /// *that* the slot was lost — DISC 2019, arXiv:1805.04165).
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFaultProbability`] unless `p ∈ [0, 1)`.
    pub fn erasure(p: f64) -> Result<Self, ModelError> {
        Self::check(p)?;
        Ok(Channel {
            kind: Kind::Erasure { p },
        })
    }

    fn check(p: f64) -> Result<(), ModelError> {
        if !(0.0..1.0).contains(&p) || p.is_nan() {
            return Err(ModelError::InvalidFaultProbability { p });
        }
        Ok(())
    }

    /// Composes two channels into one whose loss processes act
    /// independently: a sender-side component (one draw per
    /// broadcaster) and a delivery-side component (one draw per
    /// would-be delivery). Same-side components merge by independent
    /// OR: `compose(sender(a), sender(b)) = sender(1 − (1−a)(1−b))`.
    /// `faultless` is the identity. The engine draws each component
    /// from the per-node fork streams it already uses (sender faults
    /// from the broadcaster's stream in the act sweep, delivery losses
    /// from the listener's stream in the receive sweep), so composed
    /// channels inherit the determinism contract unchanged.
    ///
    /// # Errors
    ///
    /// [`ModelError::IncompatibleChannels`] when the two delivery
    /// presentations differ — `receiver(p)` losses present as
    /// undetected [`Reception::Noise`] while `erasure(p)` losses
    /// present as detected [`Reception::Erased`], and one listener
    /// draw cannot present both ways.
    ///
    /// [`ModelError::InvalidFaultProbability`] when a merged
    /// probability rounds to 1, which the constructors reject — two
    /// `receiver(0.99999999999)` components, say.
    pub fn compose(self, other: Channel) -> Result<Channel, ModelError> {
        let merge = |a, b| {
            let p = independent_or(a, b);
            Self::check(p).map(|()| p)
        };
        let (s1, d1) = self.components();
        let (s2, d2) = other.components();
        let delivery = match (d1, d2) {
            (None, d) | (d, None) => d,
            (Some((a, ea)), Some((b, eb))) => {
                if ea != eb {
                    return Err(ModelError::IncompatibleChannels {
                        left: self.to_string(),
                        right: other.to_string(),
                    });
                }
                Some((merge(a, b)?, ea))
            }
        };
        let sender = match (s1, s2) {
            (None, s) | (s, None) => s,
            (Some(a), Some(b)) => Some(merge(a, b)?),
        };
        Ok(Channel {
            kind: match (sender, delivery) {
                (None, None) => Kind::Faultless,
                (Some(p), None) => Kind::Sender { p },
                (None, Some((p, false))) => Kind::Receiver { p },
                (None, Some((p, true))) => Kind::Erasure { p },
                (Some(sender_p), Some((delivery_p, erased))) => Kind::Composed {
                    sender_p,
                    delivery_p,
                    erased,
                },
            },
        })
    }

    /// Structural components: the sender-side fault probability (if
    /// that component is present) and the delivery-side `(p, erased)`
    /// pair. Presence is structural, not numeric — `sender(0.0)` has a
    /// sender component (the engine still consumes one draw per
    /// broadcaster for it), `faultless` has none.
    fn components(&self) -> (Option<f64>, Option<(f64, bool)>) {
        match self.kind {
            Kind::Faultless => (None, None),
            Kind::Sender { p } => (Some(p), None),
            Kind::Receiver { p } => (None, Some((p, false))),
            Kind::Erasure { p } => (None, Some((p, true))),
            Kind::Composed {
                sender_p,
                delivery_p,
                erased,
            } => (Some(sender_p), Some((delivery_p, erased))),
        }
    }

    /// The overall per-delivery loss probability: the chance that a
    /// sole-broadcaster slot fails to deliver a packet. For simple
    /// channels this is the constructor's `p`; for composed channels
    /// the components are independent, so it is `1 − (1−s)(1−d)`.
    pub fn fault_probability(&self) -> f64 {
        match self.kind {
            Kind::Faultless => 0.0,
            Kind::Sender { p } | Kind::Receiver { p } | Kind::Erasure { p } => p,
            Kind::Composed {
                sender_p,
                delivery_p,
                ..
            } => independent_or(sender_p, delivery_p),
        }
    }

    /// The sender-side fault probability, if a sender component is
    /// present (one draw per broadcaster, shared by all listeners).
    /// Presence is structural: `sender(0.0)` returns `Some(0.0)`.
    pub fn sender_fault(&self) -> Option<f64> {
        self.components().0
    }

    /// The delivery-side loss probability, if a delivery component is
    /// present (one draw per would-be delivery, in the listener's
    /// stream).
    pub fn delivery_fault(&self) -> Option<f64> {
        self.components().1.map(|(p, _)| p)
    }

    /// Whether delivery-side losses present as detected
    /// [`Reception::Erased`] rather than [`Reception::Noise`].
    pub fn delivery_presents_erasure(&self) -> bool {
        matches!(self.components().1, Some((_, true)))
    }

    /// Whether losses strike *only* at the sender side (one draw per
    /// broadcaster, shared by all its listeners).
    pub fn is_sender(&self) -> bool {
        matches!(self.kind, Kind::Sender { .. })
    }

    /// Whether losses strike *only* per delivery and present as noise.
    pub fn is_receiver(&self) -> bool {
        matches!(self.kind, Kind::Receiver { .. })
    }

    /// Whether losses strike *only* per delivery and present as
    /// detected erasures.
    pub fn is_erasure(&self) -> bool {
        matches!(self.kind, Kind::Erasure { .. })
    }
}

/// `1 − (1−a)(1−b)`: the loss probability of two independent loss
/// processes in series. Inputs in `[0, 1)` keep the exact result below
/// 1, but the rounded one is 1 once `(1−a)(1−b) ≤ 2⁻⁵⁴`.
fn independent_or(a: f64, b: f64) -> f64 {
    1.0 - (1.0 - a) * (1.0 - b)
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            Kind::Faultless => write!(f, "faultless"),
            Kind::Sender { p } => write!(f, "sender(p={p})"),
            Kind::Receiver { p } => write!(f, "receiver(p={p})"),
            Kind::Erasure { p } => write!(f, "erasure(p={p})"),
            Kind::Composed {
                sender_p,
                delivery_p,
                erased,
            } => {
                let delivery = if erased { "erasure" } else { "receiver" };
                write!(f, "sender(p={sender_p})+{delivery}(p={delivery_p})")
            }
        }
    }
}

impl FromStr for Channel {
    type Err = ModelError;

    /// Parses a channel spec: `faultless`, `sender:P`, `receiver:P`,
    /// `erasure:P`, or a `+`-joined composition of those
    /// (`sender:0.1+erasure:0.3`). The `Display` form
    /// (`sender(p=0.1)`) is accepted too, so rendered labels round-trip.
    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        fn term(t: &str) -> Result<Channel, ModelError> {
            let t = t.trim();
            if t == "faultless" {
                return Ok(Channel::faultless());
            }
            let (kind, p) = if let Some((kind, rest)) = t.split_once(':') {
                (kind, rest)
            } else if let Some((kind, rest)) = t.split_once("(p=") {
                (kind, rest.strip_suffix(')').unwrap_or(rest))
            } else {
                return Err(ModelError::InvalidChannelSpec { spec: t.into() });
            };
            let p: f64 = p
                .trim()
                .parse()
                .map_err(|_| ModelError::InvalidChannelSpec { spec: t.into() })?;
            match kind.trim() {
                "sender" => Channel::sender(p),
                "receiver" => Channel::receiver(p),
                "erasure" => Channel::erasure(p),
                _ => Err(ModelError::InvalidChannelSpec { spec: t.into() }),
            }
        }
        if spec.trim().is_empty() {
            return Err(ModelError::InvalidChannelSpec { spec: spec.into() });
        }
        spec.split('+')
            .map(term)
            .try_fold(Channel::faultless(), |acc, c| acc.compose(c?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert!(Channel::sender(0.0).is_ok());
        assert!(Channel::sender(0.999).is_ok());
        assert!(Channel::sender(1.0).is_err());
        assert!(Channel::receiver(-0.1).is_err());
        assert!(Channel::receiver(f64::NAN).is_err());
        assert!(Channel::erasure(0.5).is_ok());
        assert!(Channel::erasure(1.0).is_err());
    }

    #[test]
    fn accessors() {
        assert_eq!(Channel::faultless().fault_probability(), 0.0);
        let s = Channel::sender(0.3).unwrap();
        assert_eq!(s.fault_probability(), 0.3);
        assert!(s.is_sender() && !s.is_receiver() && !s.is_erasure());
        let r = Channel::receiver(0.3).unwrap();
        assert!(r.is_receiver() && !r.is_sender());
        let e = Channel::erasure(0.3).unwrap();
        assert!(e.is_erasure() && !e.is_receiver());
        assert_eq!(Channel::default(), Channel::faultless());
    }

    #[test]
    fn display_is_uniform() {
        assert_eq!(Channel::faultless().to_string(), "faultless");
        assert_eq!(Channel::sender(0.5).unwrap().to_string(), "sender(p=0.5)");
        assert_eq!(
            Channel::receiver(0.25).unwrap().to_string(),
            "receiver(p=0.25)"
        );
        assert_eq!(
            Channel::erasure(0.125).unwrap().to_string(),
            "erasure(p=0.125)"
        );
    }

    #[test]
    fn compose_rules() {
        let s = Channel::sender(0.5).unwrap();
        let r = Channel::receiver(0.5).unwrap();
        let e = Channel::erasure(0.5).unwrap();
        let id = Channel::faultless();

        // Faultless is the identity, including on the structural level.
        assert_eq!(id.compose(s).unwrap(), s);
        assert_eq!(s.compose(id).unwrap(), s);
        assert_eq!(id.compose(id).unwrap(), id);
        let s0 = Channel::sender(0.0).unwrap();
        assert!(
            id.compose(s0).unwrap().is_sender(),
            "sender(0) is structural"
        );

        // Same-side components merge by independent OR.
        assert_eq!(s.compose(s).unwrap(), Channel::sender(0.75).unwrap());
        assert_eq!(r.compose(r).unwrap(), Channel::receiver(0.75).unwrap());
        assert_eq!(e.compose(e).unwrap(), Channel::erasure(0.75).unwrap());

        // Sender + delivery yields a composed channel.
        let c = s.compose(e).unwrap();
        assert!(!c.is_sender() && !c.is_erasure());
        assert_eq!(c.sender_fault(), Some(0.5));
        assert_eq!(c.delivery_fault(), Some(0.5));
        assert!(c.delivery_presents_erasure());
        assert_eq!(c.fault_probability(), 0.75);
        // Order does not matter.
        assert_eq!(e.compose(s).unwrap(), c);
        // Composed channels compose further, per side.
        let cc = c.compose(s).unwrap();
        assert_eq!(cc.sender_fault(), Some(0.75));
        assert_eq!(cc.delivery_fault(), Some(0.5));

        let cr = s.compose(r).unwrap();
        assert_eq!(cr.sender_fault(), Some(0.5));
        assert_eq!(cr.delivery_fault(), Some(0.5));
        assert!(!cr.delivery_presents_erasure());

        // The two delivery presentations cannot be mixed.
        assert!(matches!(
            r.compose(e),
            Err(ModelError::IncompatibleChannels { .. })
        ));
        assert!(matches!(
            cr.compose(e),
            Err(ModelError::IncompatibleChannels { .. })
        ));

        // A same-side merge that rounds to certain loss is rejected like
        // the constructors reject p = 1; the two sides never merge, so
        // near-certain components on both sides still compose.
        let a = 0.99999999999;
        for make in [Channel::sender, Channel::receiver, Channel::erasure] {
            assert_eq!(
                make(a).unwrap().compose(make(a).unwrap()),
                Err(ModelError::InvalidFaultProbability { p: 1.0 })
            );
        }
        assert!(Channel::sender(a)
            .unwrap()
            .compose(Channel::receiver(a).unwrap())
            .is_ok());
    }

    #[test]
    fn component_accessors_on_simple_kinds() {
        assert_eq!(Channel::faultless().sender_fault(), None);
        assert_eq!(Channel::faultless().delivery_fault(), None);
        let s = Channel::sender(0.3).unwrap();
        assert_eq!(s.sender_fault(), Some(0.3));
        assert_eq!(s.delivery_fault(), None);
        let r = Channel::receiver(0.3).unwrap();
        assert_eq!(r.sender_fault(), None);
        assert_eq!(r.delivery_fault(), Some(0.3));
        assert!(!r.delivery_presents_erasure());
        let e = Channel::erasure(0.3).unwrap();
        assert_eq!(e.delivery_fault(), Some(0.3));
        assert!(e.delivery_presents_erasure());
    }

    #[test]
    fn composed_display() {
        let c = Channel::sender(0.1)
            .unwrap()
            .compose(Channel::erasure(0.3).unwrap())
            .unwrap();
        assert_eq!(c.to_string(), "sender(p=0.1)+erasure(p=0.3)");
        let c = Channel::receiver(0.25)
            .unwrap()
            .compose(Channel::sender(0.5).unwrap())
            .unwrap();
        assert_eq!(c.to_string(), "sender(p=0.5)+receiver(p=0.25)");
    }

    #[test]
    fn parse_specs() {
        assert_eq!(
            "faultless".parse::<Channel>().unwrap(),
            Channel::faultless()
        );
        assert_eq!(
            "receiver:0.3".parse::<Channel>().unwrap(),
            Channel::receiver(0.3).unwrap()
        );
        assert_eq!(
            "sender:0.1+erasure:0.3".parse::<Channel>().unwrap(),
            Channel::sender(0.1)
                .unwrap()
                .compose(Channel::erasure(0.3).unwrap())
                .unwrap()
        );
        // Display output round-trips through the parser.
        for ch in [
            Channel::faultless(),
            Channel::sender(0.5).unwrap(),
            Channel::erasure(0.125).unwrap(),
            Channel::sender(0.1)
                .unwrap()
                .compose(Channel::receiver(0.25).unwrap())
                .unwrap(),
        ] {
            assert_eq!(ch.to_string().parse::<Channel>().unwrap(), ch);
        }
        assert!(matches!(
            "garbage".parse::<Channel>(),
            Err(ModelError::InvalidChannelSpec { .. })
        ));
        assert!(matches!(
            "sender:2.0".parse::<Channel>(),
            Err(ModelError::InvalidFaultProbability { .. })
        ));
        assert!(matches!(
            "receiver:0.1+erasure:0.2".parse::<Channel>(),
            Err(ModelError::IncompatibleChannels { .. })
        ));
        assert_eq!(
            "receiver:0.99999999999+receiver:0.99999999999".parse::<Channel>(),
            Err(ModelError::InvalidFaultProbability { p: 1.0 })
        );
        assert!("".parse::<Channel>().is_err());
    }

    #[test]
    fn reception_predicates_and_map() {
        let p: Reception<u8> = Reception::Packet(7);
        assert!(p.is_packet());
        assert_eq!(p.as_packet(), Some(&7));
        assert_eq!(p.kind(), ReceptionKind::Packet);
        assert_eq!(p.map(|x| u32::from(x) * 2), Reception::Packet(14));
        assert_eq!(p.packet(), Some(7));
        let n: Reception<u8> = Reception::Noise;
        assert!(!n.is_packet());
        assert_eq!(n.kind(), ReceptionKind::Noise);
        assert_eq!(n.packet(), None);
        assert_eq!(n.map(u32::from), Reception::Noise);
        let e: Reception<u8> = Reception::Erased;
        assert_eq!(e.kind(), ReceptionKind::Erased);
        assert_eq!(e.map(u32::from), Reception::Erased);
        let s: Reception<u8> = Reception::Silence;
        assert!(s.is_silence());
        assert_eq!(s.map(u32::from), Reception::Silence);
        assert_eq!(ReceptionKind::ALL.len(), 4);
    }
}
