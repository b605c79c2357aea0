//! Parser robustness for artifacts: `Json::parse` never panics on
//! arbitrary input, deep nesting included, and every rendered tree
//! parses back to a tree that renders to the same text.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use radio_sweep::Json;
use rand::Rng;

/// Fragments of JSON and of its near misses, space separated, so
/// random sequences of them get past the first byte.
const TOKENS: &str = "{ } [ ] , : \" \\ \\u d8 00 null true false 0 1 9 . e E - + \n a τ";

/// The parser's nesting cap.
const MAX_DEPTH: usize = 128;

fn arb_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..96)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

fn arb_tokens() -> impl Strategy<Value = String> {
    let tokens: Vec<&str> = TOKENS.split(' ').collect();
    prop::collection::vec(0..tokens.len(), 0..24)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

/// Trees of arrays and objects at most `depth` levels deep.
struct ArbJson {
    depth: u32,
}

impl Strategy for ArbJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let child = ArbJson {
            depth: self.depth.saturating_sub(1),
        };
        let kinds = if self.depth == 0 { 5 } else { 7 };
        match rng.gen_range(0..kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen()),
            2 => Json::U64(rng.gen()),
            3 => Json::F64(arb_f64(rng)),
            4 => Json::Str(arb_string(rng)),
            5 => Json::Arr(
                (0..rng.gen_range(0..4))
                    .map(|_| child.generate(rng))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0..4))
                    .map(|_| (arb_string(rng), child.generate(rng)))
                    .collect(),
            ),
        }
    }
}

/// Whole, fractional, tiny, huge, signed-zero and non-finite values.
fn arb_f64(rng: &mut TestRng) -> f64 {
    match rng.gen_range(0..6) {
        0 => f64::from(rng.gen::<i32>()),
        1 => f64::from_bits(rng.gen_range(1..1 << 52)),
        2 => -0.0,
        3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)],
        _ => any::<f64>().generate(rng),
    }
}

/// Strings heavy in the characters rendering escapes.
fn arb_string(rng: &mut TestRng) -> String {
    const SPECIAL: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'τ', '😀',
    ];
    (0..rng.gen_range(0..6))
        .map(|_| {
            if rng.gen() {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                char::from_u32(rng.gen_range(0..0x11_0000)).unwrap_or('?')
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parse_never_panics_on_bytes(text in arb_bytes()) {
        let _ = Json::parse(&text);
    }

    #[test]
    fn json_parse_never_panics_on_tokens(text in arb_tokens()) {
        let _ = Json::parse(&text);
    }

    #[test]
    fn json_parse_caps_nesting_without_panicking(
        depth in 0..3 * MAX_DEPTH,
        (open, close) in prop_oneof![Just(("[", "]")), Just(("{\"a\":", "}"))],
        tail in arb_tokens(),
    ) {
        let nested = format!("{}1{}", open.repeat(depth), close.repeat(depth));
        prop_assert_eq!(Json::parse(&nested).is_ok(), depth <= MAX_DEPTH, "{} levels", depth);
        let _ = Json::parse(&format!("{}{tail}", open.repeat(depth)));
    }

    #[test]
    fn rendered_trees_reparse_to_the_same_text(tree in ArbJson { depth: 8 }) {
        // Compare renders, not trees: a whole `F64` re-parses as `U64`.
        let compact = tree.render();
        let back = Json::parse(&compact).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back.render(), compact);
        let pretty = tree.render_pretty();
        let back = Json::parse(&pretty).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back.render_pretty(), pretty);
    }
}

/// Text that is not JSON, alone and inside an array: an escape with a
/// sign among its four hex digits, numbers with a leading zero, an empty
/// fraction or integer part, and numbers beyond `f64`'s range.
#[test]
fn text_that_is_not_json_is_rejected() {
    let cases = [
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\u 041""#,
        "01",
        "-01",
        "00",
        "1.",
        "-.5",
        ".5",
        "-",
        "1e",
        "1e+",
        "1.e3",
        "1e999",
        "-1e999",
        "+1",
    ];
    for text in cases {
        assert!(Json::parse(text).is_err(), "{text} parsed");
        let wrapped = format!("[{text}]");
        assert!(Json::parse(&wrapped).is_err(), "{wrapped} parsed");
    }
}

/// The grammar's edges that are JSON still parse, to the same value.
#[test]
fn numbers_and_escapes_at_the_grammar_edges_parse() {
    let cases = [
        ("0", Json::U64(0)),
        ("-0", Json::F64(-0.0)),
        ("10", Json::U64(10)),
        ("18446744073709551615", Json::U64(u64::MAX)),
        ("18446744073709551616", Json::F64(18446744073709551616.0)),
        ("-12", Json::F64(-12.0)),
        ("0.5", Json::F64(0.5)),
        ("-1.5e+3", Json::F64(-1500.0)),
        ("1E-2", Json::F64(0.01)),
        ("2e0", Json::F64(2.0)),
        ("1e308", Json::F64(1e308)),
        (r#""\u0041\u00E9\u00e9é""#, Json::str("Aééé")),
    ];
    for (text, want) in cases {
        assert_eq!(Json::parse(text), Ok(want.clone()), "{text}");
        assert_eq!(
            Json::parse(&format!("[{text}]")),
            Ok(Json::Arr(vec![want])),
            "[{text}]"
        );
    }
}
