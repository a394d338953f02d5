//! A deliberately small HTTP/1.1 implementation over `std` I/O.
//!
//! Just enough protocol for the serving endpoints: request-line, headers,
//! and `Content-Length` bodies on the way in, fixed-length responses with
//! keep-alive on the way out. No chunked encoding, no TLS, no
//! percent-decoding (user ids and counts are plain integers). Limits are
//! hard-coded and conservative because the server fronts a model, not the
//! open internet.
//!
//! Requests and responses share everything after their first line —
//! header block, `Content-Length`, body — so that part is read by one
//! function here, used by [`read_request`] and by the response parser of
//! [`crate::client`]. Every head line is read against what is left of
//! [`MAX_HEAD_BYTES`] and the body length is checked before it is
//! allocated, so neither side buffers more than its caps on a peer's say.
//!
//! Failpoints (`ahntp-faultz`): `serve.read` fires at the top of
//! [`read_request`] and `serve.write` at the top of
//! [`write_response_with`], both surfacing as injected I/O errors — the
//! chaos suite uses them to simulate flaky sockets.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};

/// Maximum bytes for the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed or the socket failed mid-request.
    Io(io::Error),
    /// The bytes are not HTTP we understand; the message is safe to echo
    /// into a 400 response.
    BadRequest(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    TooLarge,
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

impl From<ahntp_faultz::Injected> for HttpError {
    fn from(inj: ahntp_faultz::Injected) -> HttpError {
        HttpError::Io(inj.into())
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge => write!(f, "request body too large"),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Path with the query string stripped (e.g. `/topk`).
    pub path: String,
    /// Query parameters, last occurrence wins.
    pub query: BTreeMap<String, String>,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Whether the client asked to drop the connection after this
    /// exchange. HTTP/1.1 defaults to keep-alive.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// A query parameter parsed to `usize`.
    ///
    /// # Errors
    ///
    /// `Err` carries a 400-ready message for missing or non-numeric
    /// values.
    pub fn query_usize(&self, name: &str) -> Result<usize, String> {
        let raw = self
            .query
            .get(name)
            .ok_or_else(|| format!("missing query parameter {name:?}"))?;
        raw.parse()
            .map_err(|_| format!("query parameter {name:?} is not a non-negative integer"))
    }
}

/// Reads one request off the stream. `Ok(None)` means the peer closed
/// cleanly between requests (normal keep-alive teardown).
///
/// # Errors
///
/// [`HttpError::Io`] on socket failure (including read timeouts, which
/// surface as `WouldBlock`/`TimedOut`), [`HttpError::BadRequest`] on
/// malformed syntax, [`HttpError::TooLarge`] on oversized bodies.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    ahntp_faultz::failpoint!("serve.read");
    let mut head_bytes = 0;
    let line = read_head_line(reader, &mut head_bytes)?;
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
        _ => return Err(HttpError::BadRequest(format!("bad request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version}"
        )));
    }
    let (headers, body) = read_headers_and_body(reader, head_bytes, MAX_BODY_BYTES)?;

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.clone(), ""),
    };
    let mut query = BTreeMap::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(k.to_string(), v.to_string());
    }

    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Reads one head line, at most one byte past what is left of
/// [`MAX_HEAD_BYTES`] (so "exactly fits" and "too long" stay apart), and
/// charges it to `head_bytes`. An empty string means EOF.
pub(crate) fn read_head_line(
    reader: &mut impl BufRead,
    head_bytes: &mut usize,
) -> Result<String, HttpError> {
    let mut line = String::new();
    let room = (MAX_HEAD_BYTES + 1).saturating_sub(*head_bytes);
    reader.by_ref().take(room as u64).read_line(&mut line)?;
    *head_bytes += line.len();
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(HttpError::BadRequest("headers too large".to_string()));
    }
    Ok(line)
}

/// What follows the first line of a request or a response: the header
/// block (names lower-cased, last occurrence wins) and a `Content-Length`
/// body of at most `max_body` bytes. `head_bytes` is what the first line
/// already used of [`MAX_HEAD_BYTES`].
pub(crate) fn read_headers_and_body(
    reader: &mut impl BufRead,
    mut head_bytes: usize,
    max_body: usize,
) -> Result<(BTreeMap<String, String>, Vec<u8>), HttpError> {
    let mut headers = BTreeMap::new();
    loop {
        let header = read_head_line(reader, &mut head_bytes)?;
        if header.is_empty() {
            return Err(HttpError::BadRequest("eof inside headers".to_string()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::BadRequest(format!("bad header {header:?}")));
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    let content_length = match headers.get("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest("bad content-length".to_string()))?,
        None => 0,
    };
    // Checked before the allocation: the length is the peer's claim.
    if content_length > max_body {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((headers, body))
}

/// The reason phrase this stack writes for `status`. One table for every
/// response the server core renders, including shard replies the front
/// passes through (a status no endpoint here produces reads
/// `Upstream Status`).
pub(crate) fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Upstream Status",
    }
}

/// Writes one fixed-length response.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with(writer, status, reason, content_type, &[], body, keep_alive)
}

/// [`write_response`] plus arbitrary extra headers (e.g. `Retry-After` on
/// load-shed and deadline responses).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response_with(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    ahntp_faultz::failpoint!("serve.write");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse("GET /topk?user=3&k=10 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/topk");
        assert_eq!(req.query_usize("user"), Ok(3));
        assert_eq!(req.query_usize("k"), Ok(10));
        assert!(req.query_usize("missing").is_err());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse(
            "POST /score HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: 15\r\nConnection: close\r\n\r\n{\"pairs\":[[0,1]]}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        // Exactly Content-Length bytes are consumed, no more.
        assert_eq!(req.body, b"{\"pairs\":[[0,1]".to_vec());
        assert!(req.wants_close());
        assert_eq!(req.headers.get("content-type").unwrap(), "application/json");
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_bad_request() {
        assert!(matches!(parse(""), Ok(None)));
        assert!(matches!(
            parse("NONSENSE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading() {
        let raw = format!(
            "POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge)));
    }

    #[test]
    fn reason_phrases_cover_every_status_the_stack_writes() {
        for status in [200, 400, 404, 405, 409, 413, 422, 500, 501, 502, 503, 504] {
            assert_ne!(reason_phrase(status), "Upstream Status", "{status}");
        }
        assert_eq!(reason_phrase(418), "Upstream Status");
    }

    #[test]
    fn responses_have_framed_bodies() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "application/json", b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_ride_between_the_fixed_ones_and_the_body() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", "2")],
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("\r\nRetry-After: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
