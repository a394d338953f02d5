//! A minimal keep-alive HTTP/1.1 client. The suite carries its own so the
//! instrument depends on nothing outside `BENCHMARK.json`'s `paths` but
//! the layers' public endpoints.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body accepted (the biggest real one is a full
/// `/debug/traces` ring, a few MiB).
const MAX_BODY: usize = 64 << 20;

/// One open keep-alive connection.
pub struct Client {
    reader: BufReader<TcpStream>,
}

/// A parsed response.
pub struct Response {
    pub status: u16,
    /// The server's `X-Ahntp-Trace-Id` (hex), when present.
    pub trace_id: Option<u64>,
    pub body: String,
}

impl Client {
    /// Connects with Nagle off (one small write per exchange) and a read
    /// timeout, so a stalled server fails the request instead of hanging
    /// the benchmark.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// `GET target`.
    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.request("GET", target, "")
    }

    /// `POST target` with a JSON body.
    pub fn post(&mut self, target: &str, body: &str) -> io::Result<Response> {
        self.request("POST", target, body)
    }

    fn request(&mut self, method: &str, target: &str, body: &str) -> io::Result<Response> {
        self.send(method, target, body)?;
        self.recv()
    }

    /// Writes one request; pair with [`Client::recv`].
    pub fn send(&mut self, method: &str, target: &str, body: &str) -> io::Result<()> {
        let request = format!(
            "{method} {target} HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.reader.get_mut().write_all(request.as_bytes())
    }

    /// Reads the response to the request last sent.
    pub fn recv(&mut self) -> io::Result<Response> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut content_length = 0usize;
        let mut trace_id = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .parse()
                        .ok()
                        .filter(|&n| n <= MAX_BODY)
                        .ok_or_else(|| bad(format!("bad length {value:?}")))?;
                } else if name.eq_ignore_ascii_case("x-ahntp-trace-id") {
                    trace_id = u64::from_str_radix(value, 16).ok();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8".into()))?;
        Ok(Response {
            status,
            trace_id,
            body,
        })
    }
}
