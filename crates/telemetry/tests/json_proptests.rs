//! Property tests for the ledger's JSON writer/parser pair.
//!
//! The run ledger and the serving `/metrics` endpoint both rely on
//! `Json::to_line` producing a single line that `json::parse` reads back
//! unchanged. These properties drive randomly shaped trees — nested
//! objects and arrays, strings full of escapes and control characters,
//! and non-finite floats — through the round trip.
//!
//! The vendored proptest stub has no `prop_recursive`, so the recursive
//! tree strategy is written by hand against its `Strategy` trait.

use ahntp_telemetry::json::{parse, Json};
use proptest::prelude::*;
use proptest::TestRng;

/// Strategy over JSON scalar strings: a grab-bag of escape-heavy content.
struct ArbString;

impl Strategy for ArbString {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        const ALPHABET: &[&str] = &[
            "a", "Z", "0", " ", "\"", "\\", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{1}", "\u{1f}",
            "/", "{", "}", "[", "]", ":", ",", "é", "λ", "好", "🦀", "\u{7f}",
        ];
        let len = rng.below(12);
        (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len())])
            .collect()
    }
}

/// Strategy over JSON numbers, including the non-finite values the writer
/// must degrade to `null`.
struct ArbNum;

impl Strategy for ArbNum {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        match rng.below(8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => (rng.next_u64() % 9_000_000_000_000_000) as f64, // integral, < 2^53
            4 => -((rng.next_u64() % 1_000_000) as f64),
            5 => rng.next_f64() * 1e-8,
            6 => (rng.next_f64() - 0.5) * 1e12,
            _ => rng.next_f64(),
        }
    }
}

/// Recursive strategy over whole JSON trees, depth-bounded by hand.
struct ArbJson {
    depth: usize,
}

impl Strategy for ArbJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        // Leaves get likelier as depth shrinks; depth 0 is leaves only.
        let choices = if self.depth == 0 { 4 } else { 6 };
        match rng.below(choices) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::Num(ArbNum.generate(rng)),
            3 => Json::Str(ArbString.generate(rng)),
            4 => {
                let n = rng.below(4);
                let child = ArbJson {
                    depth: self.depth - 1,
                };
                Json::Arr((0..n).map(|_| child.generate(rng)).collect())
            }
            _ => {
                let n = rng.below(4);
                let child = ArbJson {
                    depth: self.depth - 1,
                };
                Json::Obj(
                    (0..n)
                        .map(|_| (ArbString.generate(rng), child.generate(rng)))
                        .collect(),
                )
            }
        }
    }
}

/// What the writer actually promises to preserve: non-finite numbers are
/// written as `null`, so normalize them before comparing.
fn normalize(v: &Json) -> Json {
    match v {
        Json::Num(n) if !n.is_finite() => Json::Null,
        Json::Arr(items) => Json::Arr(items.iter().map(normalize).collect()),
        Json::Obj(map) => Json::Obj(map.iter().map(|(k, v)| (k.clone(), normalize(v))).collect()),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trees_round_trip_through_write_and_parse(tree in ArbJson { depth: 3 }) {
        let line = tree.to_line();
        let back = parse(&line).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("{e} in {line:?}"))
        })?;
        prop_assert_eq!(back, normalize(&tree), "line was {:?}", line);
    }

    #[test]
    fn output_is_one_line_and_reserializes_identically(tree in ArbJson { depth: 3 }) {
        let line = tree.to_line();
        prop_assert!(!line.contains('\n') && !line.contains('\r'),
            "JSONL line contains a line break: {:?}", line);
        // Writing the parsed tree again is a fixed point (normalization
        // already happened on the first write).
        let again = parse(&line).unwrap().to_line();
        prop_assert_eq!(&again, &line);
    }

    #[test]
    fn escape_heavy_strings_survive(s in ArbString) {
        let line = Json::Str(s.clone()).to_line();
        prop_assert_eq!(parse(&line).unwrap(), Json::Str(s));
    }

    #[test]
    fn trailing_garbage_is_rejected(tree in ArbJson { depth: 2 }, extra in 1usize..4) {
        let mut line = tree.to_line();
        line.push(' ');
        for _ in 0..extra {
            line.push('x');
        }
        prop_assert!(parse(&line).is_err(), "accepted {:?}", line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn numbers_round_trip_or_become_null(n in ArbNum) {
        let line = Json::Num(n).to_line();
        let back = parse(&line).unwrap();
        if n.is_finite() {
            match back {
                Json::Num(m) => {
                    // The writer prints either as i64 or with `{}`, both of
                    // which f64-parse back to an equal value (`-0.0` may
                    // come back as `0.0`, which compares equal).
                    prop_assert_eq!(m, n, "line {:?}", line);
                }
                other => return Err(proptest::test_runner::TestCaseError::fail(
                    format!("expected number, got {other:?}"),
                )),
            }
        } else {
            prop_assert_eq!(back, Json::Null);
        }
    }
}
