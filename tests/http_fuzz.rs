//! Parser fuzzing for the two HTTP parsers of the stack, which exist
//! exactly once each: `ahntp_serve::http::read_request` (what every
//! server worker runs on bytes from the network) and
//! `ahntp_serve::client::read_response` (what the front runs on bytes
//! from its shards). Truncations, byte flips, hostile `Content-Length`s
//! and outright garbage must come back as a typed error or a clean parse —
//! never a panic, never a body the input does not contain, never a read
//! past the message.
//!
//! Uses the vendored proptest stub, as `tests/checkpoint_fuzz.rs` does.

use ahntp_serve::client::{read_response, MAX_RESPONSE_BYTES};
use ahntp_serve::http::{read_request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use proptest::TestRng;
use std::io::Cursor;

/// What a parse came to: `Ok(Some(body))`, `Ok(None)` for a clean EOF
/// before any byte (requests only), or the typed error's message.
type Parsed = Result<Option<Vec<u8>>, String>;

/// A parser under test: the outcome plus how many input bytes it consumed.
type Parser = fn(&[u8]) -> (Parsed, usize);

/// Both parsers behind one signature, plus how many input bytes each
/// consumed. A `Cursor` is its own `BufRead`, so its position is exactly
/// what the parser took off the stream.
const PARSERS: [(&str, usize, Parser); 2] = [
    ("request", MAX_BODY_BYTES, |input| {
        let mut cursor = Cursor::new(input);
        let parsed = match read_request(&mut cursor) {
            Ok(req) => Ok(req.map(|r| r.body)),
            Err(e) => Err(e.to_string()),
        };
        (parsed, cursor.position() as usize)
    }),
    ("response", MAX_RESPONSE_BYTES, |input| {
        let mut cursor = Cursor::new(input);
        let parsed = read_response(&mut cursor)
            .map(|r| Some(r.body.into_bytes()))
            .map_err(|e| format!("{:?}: {e}", e.kind()));
        (parsed, cursor.position() as usize)
    }),
];

/// A well-formed message for parser `kind` with the given header block
/// (after the first line) and body.
fn message(kind: &str, headers: &str, body: &str) -> Vec<u8> {
    let first = if kind == "request" {
        "POST /score?x=1 HTTP/1.1"
    } else {
        "HTTP/1.1 200 OK"
    };
    format!("{first}\r\n{headers}\r\n{body}").into_bytes()
}

const BODY: &str = r#"{"pairs":[[0,1],[2,3]]}"#;

fn pristine(kind: &str) -> Vec<u8> {
    let headers = format!(
        "Content-Type: application/json\r\nContent-Length: {}\r\n",
        BODY.len()
    );
    message(kind, &headers, BODY)
}

/// The invariants every outcome must satisfy, whatever the input: errors
/// carry a message, and a parsed body is made of the input bytes right
/// before the cursor — so it was neither invented nor read past.
fn check(kind: &str, input: &[u8], parsed: &Parsed, consumed: usize) -> Result<(), TestCaseError> {
    prop_assert!(
        consumed <= input.len(),
        "{} consumed {} of {}",
        kind,
        consumed,
        input.len()
    );
    match parsed {
        Ok(Some(body)) => {
            prop_assert!(
                body.len() <= consumed,
                "{} body longer than what was read",
                kind
            );
            prop_assert_eq!(
                &input[consumed - body.len()..consumed],
                &body[..],
                "{} body",
                kind
            );
        }
        Ok(None) => prop_assert_eq!(consumed, 0, "{} clean EOF after reading bytes", kind),
        Err(message) => prop_assert!(!message.is_empty(), "{} error has no message", kind),
    }
    Ok(())
}

/// Sanity: the pristine messages parse, body intact, and stop at their
/// own end when another message follows on the same connection.
#[test]
fn pristine_messages_parse_and_stop_at_their_end() {
    for (kind, _, parse) in PARSERS {
        let one = pristine(kind);
        let two = [one.clone(), one.clone()].concat();
        let (parsed, consumed) = parse(&two);
        assert_eq!(parsed, Ok(Some(BODY.as_bytes().to_vec())), "{kind}");
        assert_eq!(consumed, one.len(), "{kind} read into the next message");
    }
}

/// What the peer claims is checked before it is believed.
#[test]
fn head_and_body_caps_hold_before_anything_is_buffered() {
    for (kind, max_body, parse) in PARSERS {
        // A head line that never ends is refused at the cap.
        let (parsed, consumed) = parse(&message(
            kind,
            &format!("X-Pad: {}", "x".repeat(1 << 20)),
            "",
        ));
        assert!(parsed.is_err(), "{kind} swallowed a 1 MiB header");
        assert!(
            consumed <= MAX_HEAD_BYTES + 1,
            "{kind} read {consumed} head bytes"
        );
        // An oversized body is refused from the header alone: nothing is
        // allocated for it (a terabyte would abort the test) and nothing
        // after the head is read.
        for huge in [max_body + 1, 1 << 40, usize::MAX] {
            let input = message(kind, &format!("Content-Length: {huge}\r\n"), BODY);
            let (parsed, consumed) = parse(&input);
            assert!(parsed.is_err(), "{kind} believed Content-Length {huge}");
            assert_eq!(
                consumed,
                input.len() - BODY.len(),
                "{kind} read past the head"
            );
        }
        for bogus in ["-1", "1e3", "0x10", "", "18446744073709551616"] {
            let input = message(kind, &format!("Content-Length: {bogus}\r\n"), BODY);
            assert!(
                parse(&input).0.is_err(),
                "{kind} took {bogus:?} for a length"
            );
        }
        // Absent: an empty body, and the bytes that follow stay unread.
        let input = message(kind, "Content-Type: application/json\r\n", BODY);
        assert_eq!(
            parse(&input),
            (Ok(Some(Vec::new())), input.len() - BODY.len()),
            "{kind}"
        );
    }
}

/// Random raw bytes, newline-rich so the line reader gets exercised.
struct ArbBytes {
    max_len: usize,
}

impl Strategy for ArbBytes {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let len = rng.below(self.max_len);
        (0..len)
            .map(|_| match rng.below(8) {
                0 => b'\n',
                1 => b'\r',
                2 => b':',
                3 => b' ',
                _ => rng.below(256) as u8,
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncations_never_parse_as_a_whole_message(cut in 0usize..1_000_000) {
        for (kind, _, parse) in PARSERS {
            let bytes = pristine(kind);
            let keep = cut % bytes.len(); // strictly shorter than the message
            let (parsed, consumed) = parse(&bytes[..keep]);
            check(kind, &bytes[..keep], &parsed, consumed)?;
            prop_assert!(
                !matches!(parsed, Ok(Some(_))),
                "{} parsed a message truncated to {} of {} bytes", kind, keep, bytes.len()
            );
        }
    }

    #[test]
    fn byte_flips_never_panic_or_over_read(pos in 0usize..1_000_000, xor in 0usize..1_000_000) {
        let flip = (xor % 255 + 1) as u8; // never 0: always a real change
        for (kind, _, parse) in PARSERS {
            // A second message behind the first: a flip that shortens the
            // declared length must not let the parse run into it.
            let mut bad = [pristine(kind), pristine(kind)].concat();
            let i = pos % pristine(kind).len();
            bad[i] ^= flip;
            let (parsed, consumed) = parse(&bad);
            check(kind, &bad, &parsed, consumed)?;
        }
    }

    #[test]
    fn random_garbage_never_panics(garbage in ArbBytes { max_len: 512 }) {
        for (kind, _, parse) in PARSERS {
            let (parsed, consumed) = parse(&garbage);
            check(kind, &garbage, &parsed, consumed)?;
        }
    }

    #[test]
    fn duplicate_content_lengths_last_one_wins_exactly(decoy in 0usize..64, claim in 0usize..64) {
        for (kind, _, parse) in PARSERS {
            let headers = format!("Content-Length: {decoy}\r\nContent-Length: {claim}\r\n");
            let input = message(kind, &headers, BODY);
            let (parsed, consumed) = parse(&input);
            check(kind, &input, &parsed, consumed)?;
            // A body shorter than claimed is an error, not a short read.
            match parsed {
                Ok(Some(body)) => prop_assert_eq!(body, BODY.as_bytes()[..claim].to_vec()),
                other => prop_assert!(claim > BODY.len(), "{} refused {}: {:?}", kind, claim, other),
            }
        }
    }
}
