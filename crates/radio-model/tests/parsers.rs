//! Parser robustness for channel specs: `Channel::from_str` never
//! panics on arbitrary input, and every channel's `Display` form
//! parses back to the same channel.

use proptest::prelude::*;
use radio_model::Channel;

/// Fragments of the spec grammar and of its near misses, space
/// separated, so random sequences of them get past the first byte.
const TOKENS: &str =
    "sender receiver erasure faultless : + (p= ) 0 1 2 3 4 5 6 7 8 9 . e - [ ] \" \\u";

fn arb_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..64)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

fn arb_tokens() -> impl Strategy<Value = String> {
    let tokens: Vec<&str> = TOKENS.split(' ').collect();
    prop::collection::vec(0..tokens.len(), 0..16)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

/// Fault probabilities from every corner of `[0, 1)`: both zeros,
/// subnormals, the open interval, and the last doubles below 1.
fn arb_p() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        (1u64..1 << 52).prop_map(f64::from_bits),
        0.0..1.0f64,
        (1u64..1024).prop_map(|k| f64::from_bits(1.0f64.to_bits() - k)),
    ]
}

fn arb_channel() -> impl Strategy<Value = Channel> {
    prop_oneof![
        Just(Channel::faultless()),
        arb_p().prop_map(|p| Channel::sender(p).unwrap()),
        arb_p().prop_map(|p| Channel::receiver(p).unwrap()),
        arb_p().prop_map(|p| Channel::erasure(p).unwrap()),
        (arb_p(), arb_p(), any::<bool>()).prop_map(|(s, d, erased)| {
            let delivery = if erased {
                Channel::erasure(d)
            } else {
                Channel::receiver(d)
            };
            Channel::sender(s)
                .unwrap()
                .compose(delivery.unwrap())
                .unwrap()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn channel_parse_never_panics_on_bytes(spec in arb_bytes()) {
        let _ = spec.parse::<Channel>();
    }

    #[test]
    fn channel_parse_never_panics_on_tokens(spec in arb_tokens()) {
        let _ = spec.parse::<Channel>();
    }

    #[test]
    fn channel_display_round_trips(c in arb_channel()) {
        let text = c.to_string();
        let back = text.parse::<Channel>();
        prop_assert_eq!(back, Ok(c), "parsing {}", text);
        // `==` on f64 equates −0 and 0; the rendering does not.
        prop_assert_eq!(back.unwrap().to_string(), text);
    }
}
