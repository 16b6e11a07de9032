//! Property tests for the daemon's HTTP request parser: whatever bytes a
//! client sends, [`Request::read_from`] returns a request or a typed I/O
//! error, never a panic.

use ax_serve::Request;
use proptest::prelude::*;
use std::io::{Cursor, ErrorKind};

/// A valid request with a query and a body, the base of the mutations.
const VALID: &[u8] =
    b"POST /campaigns?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 17\r\n\r\n{\"name\": \"smoke\"}";

/// Parses `bytes`: `Ok(Some(_))`, `Ok(None)` only for empty input, or an
/// error of kind `InvalidData` or `UnexpectedEof`.
fn parse(bytes: &[u8]) -> Result<Option<Request>, TestCaseError> {
    match Request::read_from(&mut Cursor::new(bytes)) {
        Ok(None) => {
            prop_assert!(bytes.is_empty(), "Ok(None) from {} bytes", bytes.len());
            Ok(None)
        }
        Ok(Some(request)) => Ok(Some(request)),
        Err(e) => {
            prop_assert!(
                matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                "{:?}: {}",
                e.kind(),
                e
            );
            Ok(None)
        }
    }
}

/// Bytes weighted towards the characters the parser splits on.
fn arb_byte() -> impl Strategy<Value = u8> {
    const HTTP: &[u8] = b" \r\n:?/=&0123456789HTTP/1.Content-Length";
    prop_oneof![0u8..=255, (0..HTTP.len()).prop_map(|i| HTTP[i])]
}

/// Applies one to six overwrite / insert / delete / truncate edits at
/// positions taken modulo the current length.
fn mutate(mut bytes: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(op, pos, byte) in edits {
        let len = bytes.len();
        match op {
            0 if len > 0 => bytes[pos % len] = byte,
            1 => bytes.insert(pos % (len + 1), byte),
            2 if len > 0 => {
                bytes.remove(pos % len);
            }
            3 => bytes.truncate(pos % (len + 1)),
            _ => {}
        }
    }
    bytes
}

/// A string of `len` characters drawn from `alphabet`.
fn word(alphabet: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..alphabet.len(), len)
        .prop_map(move |ix| ix.into_iter().map(|i| char::from(alphabet[i])).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes parse or fail cleanly.
    #[test]
    fn arbitrary_bytes_parse_or_fail_cleanly(
        bytes in prop::collection::vec(arb_byte(), 0..256),
    ) {
        parse(&bytes)?;
    }

    /// So does any byte-level mutation of a valid request.
    #[test]
    fn mutated_requests_parse_or_fail_cleanly(
        edits in prop::collection::vec((0u8..4, 0usize..1 << 16, arb_byte()), 1..7),
    ) {
        parse(&mutate(VALID.to_vec(), &edits))?;
    }

    /// A well-formed request parses back to the fields it was written
    /// from.
    #[test]
    fn well_formed_requests_round_trip(
        method in 0usize..4,
        path in word(b"abcdefghijklmnopqrstuvwxyz0123456789/_-.", 0..24),
        query in word(b"abcdefghijklmnopqrstuvwxyz0123456789=&%+-_.?", 0..24),
        body in prop::collection::vec(0u8..=255, 0..4096),
        lowercase_header in 0u8..2,
    ) {
        let method = ["GET", "POST", "PUT", "DELETE"][method];
        let path = format!("/{path}");
        let target = if query.is_empty() { path.clone() } else { format!("{path}?{query}") };
        let length = if lowercase_header == 1 { "content-length" } else { "Content-Length" };
        let mut raw = format!(
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\n{length}: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let request = parse(&raw)?.expect("a well-formed request parses");
        prop_assert_eq!(request.method.as_str(), method);
        prop_assert_eq!(&request.path, &path);
        prop_assert_eq!(&request.query, &query);
        prop_assert_eq!(&request.body, &body);
    }
}

#[test]
fn the_mutation_base_is_a_valid_request() {
    let request = Request::read_from(&mut Cursor::new(VALID))
        .unwrap()
        .unwrap();
    assert_eq!(
        (request.method.as_str(), request.path.as_str()),
        ("POST", "/campaigns")
    );
    assert_eq!(request.query_param("x"), Some("1"));
    assert_eq!(request.body, b"{\"name\": \"smoke\"}");
}
