//! The one blocking HTTP/1.1 client of the repo.
//!
//! The scatter-gather front ([`crate::serve_sharded`]) talks to its
//! shards through it, and so do the load generator, the benches, the
//! example and every serving test — one place that connects, writes a
//! request and parses `status + headers + body` back.
//!
//! A [`Client`] is one keep-alive connection, or — after
//! [`Client::one_shot`] — one `Connection: close` exchange. The timeout
//! given at connect bounds the connect itself and every later read and
//! write. Responses are read with the same bounded reader as requests
//! ([`crate::http`]): the head is capped at
//! [`MAX_HEAD_BYTES`](crate::http::MAX_HEAD_BYTES) and a `Content-Length`
//! above [`MAX_RESPONSE_BYTES`] is refused before any allocation, both as
//! [`io::ErrorKind::InvalidData`] — a faulty peer cannot make its caller
//! buffer without bound.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{read_head_line, read_headers_and_body, HttpError};

/// Largest accepted response body: room for a full `/debug/traces` ring
/// or a `/metrics/shards` fan-out, far below what a bogus
/// `Content-Length` could ask for.
pub const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names, last occurrence wins.
    pub headers: BTreeMap<String, String>,
    /// The body, decoded as UTF-8 (every endpoint answers JSON or text).
    pub body: String,
}

/// Reads one response off the stream.
///
/// # Errors
///
/// Socket failures as they come; a malformed status line or header, a
/// head or body over its cap, or a non-UTF-8 body as
/// [`io::ErrorKind::InvalidData`]; a peer that closed before answering
/// as [`io::ErrorKind::UnexpectedEof`].
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let typed = |e: HttpError| match e {
        HttpError::Io(e) => e,
        other => invalid(other.to_string()),
    };
    let mut head_bytes = 0;
    let line = read_head_line(reader, &mut head_bytes).map_err(typed)?;
    if line.is_empty() {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let mut parts = line.split_whitespace();
    let status = match (
        parts.next(),
        parts.next().and_then(|s| s.parse::<u16>().ok()),
    ) {
        (Some(version), Some(status)) if version.starts_with("HTTP/1.") => status,
        _ => return Err(invalid(format!("bad status line {line:?}"))),
    };
    let (headers, body) =
        read_headers_and_body(reader, head_bytes, MAX_RESPONSE_BYTES).map_err(typed)?;
    let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8".to_string()))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// One connection to a server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    close: bool,
}

impl Client {
    /// Connects with `timeout` as the connect, read and write timeout and
    /// `TCP_NODELAY` set (requests are one small write each; Nagle plus
    /// delayed ACK would add ~40 ms per exchange). The connection is
    /// keep-alive.
    ///
    /// # Errors
    ///
    /// Connect and socket-option failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
            close: false,
        })
    }

    /// Makes [`Client::get`] and [`Client::post`] send `Connection: close`:
    /// the server answers once and hangs up.
    pub fn one_shot(self) -> Client {
        Client {
            close: true,
            ..self
        }
    }

    /// `GET target`.
    ///
    /// # Errors
    ///
    /// As [`Client::send`].
    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.request("GET", target, "")
    }

    /// `POST target` with `body`.
    ///
    /// # Errors
    ///
    /// As [`Client::send`].
    pub fn post(&mut self, target: &str, body: &str) -> io::Result<Response> {
        self.request("POST", target, body)
    }

    fn request(&mut self, method: &str, target: &str, body: &str) -> io::Result<Response> {
        let mut head = format!("{method} {target} HTTP/1.1\r\n");
        if !body.is_empty() {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        if self.close {
            head.push_str("Connection: close\r\n");
        }
        self.send(format!("{head}\r\n{body}").as_bytes())
    }

    /// Writes `raw` as is — well-formed or not, which is what the
    /// malformed-input tests need — and reads one response.
    ///
    /// # Errors
    ///
    /// Write failures, and everything [`read_response`] reports.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<Response> {
        self.reader.get_mut().write_all(raw)?;
        read_response(&mut self.reader)
    }
}
