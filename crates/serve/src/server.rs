//! The one server core: listener, acceptor, worker pool, keep-alive
//! connection loop — everything about serving HTTP that does not depend
//! on *what* is served.
//!
//! ```text
//! TcpListener ──accept──▶ acceptor thread ──mpsc──▶ worker pool (N threads)
//!                                                      │ one keep-alive loop
//!                                                      ▼
//!                              Handler::ROUTES, else shared routes, else 404/405
//! ```
//!
//! Per request the core mints the trace id and installs it as the worker
//! thread's ambient id, dispatches, writes the response with the
//! `X-Ahntp-Trace-Id` (and, on backpressure answers, `Retry-After`)
//! headers, counts requests, errors and latency, writes
//! the access-log line, records the request with its stage timings in the
//! [`TraceRing`] and — with trace collection on — emits it as one span on
//! a per-request Chrome-trace lane (`pid` 2, `tid` = trace id) with its
//! stages nested inside. Unreadable requests get `400` / `413` and the
//! connection closed. `GET /metrics` (`?format=prometheus` for the text
//! format), `/debug/traces` and `/debug/trace.json` are answered here;
//! every other route comes from the [`Handler`]'s table, and `404` / `405`
//! are derived from the two tables, so no path list is kept by hand.
//!
//! There are exactly two handlers: the node ([`crate::node`]) and the
//! scatter-gather front ([`crate::shard`]). Each supplies its metric and
//! log names ([`Names`]: `serve.*` / `front.*`) and its routes;
//! [`crate::serve`], [`crate::serve_live`] and
//! [`crate::serve_sharded`] build theirs and hand it to [`Core::start`].
//!
//! Shutdown is cooperative: a flag flip plus one self-connection unblocks
//! the acceptor, whose exit closes the connection channel; workers finish
//! their in-flight requests (without inviting another on the same
//! connection) and exit. Idle keep-alive connections notice within
//! [`READ_TIMEOUT`].

use std::borrow::Cow;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ahntp_par::Context;
use ahntp_telemetry::json::Json;
use ahntp_telemetry::{
    counter_add, debug, histogram_record, metrics_prometheus_text, metrics_snapshot_json,
    trace_now_us, warn,
};

use crate::backend::BackendKind;
use crate::http::{
    read_request, reason_phrase, write_response, write_response_with, HttpError, Request,
};
use crate::trace_ring::{RequestTrace, Stage, Stages, TraceRing};

/// Socket read timeout: how long an idle keep-alive connection can delay
/// shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Configuration shared by [`crate::serve`], [`crate::serve_live`] and
/// [`crate::serve_sharded`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// HTTP worker threads.
    pub workers: usize,
    /// Per-request deadline for `POST /events`: if the applier has not
    /// replied within this budget (measured from request parse), the
    /// worker answers `504 Gateway Timeout` with a `Retry-After` header
    /// instead of blocking forever. On the front it is the timeout of
    /// each RPC to a shard. (`/score` and `/topk` are answered on the
    /// worker and wait on nothing.)
    pub deadline: Duration,
    /// Value of the `Retry-After` header (whole seconds, minimum 1) on
    /// load-shed (`503`) and deadline (`504`) responses.
    pub retry_after: Duration,
    /// How many recently served requests `GET /debug/traces` retains
    /// (per-request stage timings, newest last). Minimum 1.
    pub trace_ring: usize,
    /// Ignored: exact is the only scoring backend. Kept only because the
    /// benchmark harness (`crates/perf`) sets it; it goes with the next
    /// change to that harness (see [`BackendKind`]).
    pub backend: Option<BackendKind>,
    /// The contiguous trustee id range `[lo, hi)` this server owns as a
    /// shard of a scatter-gather cluster. `None` (the default) serves the
    /// whole id space. A shard still maps the *full* artifact — `/score`
    /// answers any pair — but its `/topk` scans only the owned range
    /// (always with the exact scalar arithmetic), so a front tier can
    /// merge per-shard results into the single-node exact answer
    /// bitwise. The range is advertised as `shard_lo`/`shard_hi` in
    /// `/healthz` for front-tier discovery.
    pub shard_range: Option<(usize, usize)>,
    /// Sybil-defense prior to attach at startup
    /// ([`crate::TrustIndex::with_defense`]): `/score` and `/topk` then
    /// serve `(1 − α) · learned + α · prior[trustee]` blended scores, and
    /// `/healthz` advertises `defended: true` plus the alpha. `None` (the
    /// default) serves raw learned scores. Build one with
    /// [`crate::DefensePrior::from_env`] to pick the alpha up from
    /// `AHNTP_PPR_ALPHA`.
    pub defense: Option<crate::index::DefensePrior>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            deadline: Duration::from_secs(2),
            retry_after: Duration::from_secs(1),
            trace_ring: 128,
            backend: None,
            shard_range: None,
            defense: None,
        }
    }
}

/// One endpoint answer: status plus JSON body, with an optional
/// `Retry-After` value (seconds) for backpressure responses. Text
/// endpoints (Prometheus exposition) carry a pre-rendered body instead of
/// a [`Json`] document. The reason phrase is looked up when the response
/// is written ([`reason_phrase`]).
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) body: Json,
    /// `(content_type, body)` override; when set, wins over `body`.
    text: Option<(&'static str, String)>,
    pub(crate) retry_after: Option<u64>,
}

impl Response {
    pub(crate) fn new(status: u16, body: Json) -> Response {
        Response {
            status,
            body,
            text: None,
            retry_after: None,
        }
    }

    pub(crate) fn error(status: u16, message: &str) -> Response {
        Response::new(status, Json::obj([("error", message.into())]))
    }

    pub(crate) fn retry_after(mut self, after: Duration) -> Response {
        self.retry_after = Some(after.as_secs().max(1));
        self
    }
}

/// What an endpoint returns. Both arms are written to the client the same
/// way; `Err` is there so an endpoint can leave early with `?`.
pub(crate) type Answer = Result<Response, Response>;

/// One request on its way through an endpoint: the parsed request, its
/// trace id, and the stage timings the endpoint leaves behind for the
/// trace ring and the request lane.
pub(crate) struct Call<'a> {
    pub(crate) req: &'a Request,
    pub(crate) trace_id: u64,
    stages: Stages,
}

impl<'a> Call<'a> {
    pub(crate) fn new(req: &'a Request, trace_id: u64) -> Call<'a> {
        Call {
            req,
            trace_id,
            stages: Stages::default(),
        }
    }

    /// Records the stage `name` as having run over `[from_us, to_us)` on
    /// the trace clock ([`trace_now_us`]). An endpoint records at most
    /// four ([`Stages`]).
    pub(crate) fn stage(&mut self, name: &'static str, from_us: u64, to_us: u64) {
        self.stages.push(Stage {
            name,
            ts_us: from_us,
            dur_us: to_us.saturating_sub(from_us),
        });
    }

    /// The request body as text, or the `400` every endpoint gives.
    pub(crate) fn text(&self) -> Result<&'a str, Response> {
        std::str::from_utf8(&self.req.body).map_err(|_| Response::error(400, "body is not UTF-8"))
    }
}

/// The static names under which the core counts and logs on behalf of a
/// handler.
pub(crate) struct Names {
    /// Log target for lifecycle and connection warnings.
    pub(crate) log: &'static str,
    /// Log target of the per-request access line (`debug` level).
    pub(crate) access: &'static str,
    /// Counter: requests read.
    pub(crate) requests: &'static str,
    /// Counter: responses with status ≥ 400, plus unreadable requests.
    pub(crate) errors: &'static str,
    /// Histogram: request wall time, µs.
    pub(crate) latency_us: &'static str,
    /// Name of the per-request span on the Chrome-trace request lane.
    pub(crate) span: &'static str,
}

/// `(method, path, endpoint)`.
pub(crate) type Route<H> = (&'static str, &'static str, fn(&H, &mut Call<'_>) -> Answer);

/// What the core is parameterised by. Two implementations: the node and
/// the scatter-gather front.
pub(crate) trait Handler: Send + Sync + Sized + 'static {
    const NAMES: Names;
    /// Every route beyond the ones the core answers itself.
    const ROUTES: &'static [Route<Self>];
}

type SharedEndpoint = fn(&Request, &TraceRing) -> Response;

/// The routes every server answers, all `GET`.
const SHARED_ROUTES: [(&str, SharedEndpoint); 3] = [
    ("/metrics", |req, _| {
        match req.query.get("format").map(String::as_str) {
            Some("prometheus") => {
                let text = ("text/plain; version=0.0.4", metrics_prometheus_text());
                Response {
                    text: Some(text),
                    ..Response::new(200, Json::Null)
                }
            }
            Some(other) => Response::error(
                400,
                &format!("unknown metrics format {other:?} (try \"prometheus\")"),
            ),
            None => Response::new(200, metrics_snapshot_json()),
        }
    }),
    // The last `trace_ring` requests with their stage timings.
    ("/debug/traces", |_, traces| {
        Response::new(200, traces.to_json())
    }),
    // The live Chrome trace buffer (empty unless collection is on).
    ("/debug/trace.json", |_, _| {
        Response::new(200, ahntp_telemetry::chrome_trace_json())
    }),
];

/// `name` borrowed from `known` when it is there, else an owned copy.
fn interned(mut known: impl Iterator<Item = &'static str>, name: &str) -> Cow<'static, str> {
    known
        .find(|k| *k == name)
        .map_or_else(|| Cow::Owned(name.to_string()), Cow::Borrowed)
}

/// A request's method and path as the ring records them: borrowed from
/// the two route tables, owned only when no route has that method or that
/// path (what `405` and `404` answer), so the record of a routed request
/// allocates nothing.
fn route_names<H: Handler>(method: &str, path: &str) -> (Cow<'static, str>, Cow<'static, str>) {
    let methods = H::ROUTES.iter().map(|r| r.0).chain(["GET"]);
    let paths = H::ROUTES
        .iter()
        .map(|r| r.1)
        .chain(SHARED_ROUTES.iter().map(|r| r.0));
    (interned(methods, method), interned(paths, path))
}

/// Dispatches one request: the handler's table, then the shared routes;
/// a known path under another method is `405`, anything else `404`.
pub(crate) fn dispatch<H: Handler>(
    handler: &H,
    traces: &TraceRing,
    call: &mut Call<'_>,
) -> Response {
    let (method, path) = (call.req.method.as_str(), call.req.path.as_str());
    if let Some((_, _, run)) = H::ROUTES
        .iter()
        .find(|(m, p, _)| *m == method && *p == path)
    {
        return run(handler, call).unwrap_or_else(|early| early);
    }
    match SHARED_ROUTES.iter().find(|(p, _)| *p == path) {
        Some((_, run)) if method == "GET" => run(call.req, traces),
        None if !H::ROUTES.iter().any(|(_, p, _)| *p == path) => {
            Response::error(404, "no such endpoint")
        }
        _ => Response::error(405, "method not allowed"),
    }
}

/// A running listener + acceptor + worker pool. Non-generic, so the
/// public handles just hold one.
pub(crate) struct Core {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Core {
    /// Binds `config.addr` and starts the acceptor and
    /// `config.workers` workers answering through `handler`.
    pub(crate) fn start<H: Handler>(handler: Arc<H>, config: &ServeConfig) -> io::Result<Core> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let traces = Arc::new(TraceRing::new(config.trace_ring));
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        // Every thread of the server works in the starter's context.
        let ctx = Context::capture();
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            ctx.clone().spawn(move || loop {
                let accepted = listener.accept();
                if shutdown.load(Ordering::SeqCst) {
                    break; // the wake-up connection, or a late arrival
                }
                match accepted {
                    Ok((stream, _)) => {
                        if conn_tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) => warn!(H::NAMES.log, "accept failed: {e}"),
                }
            })
        };

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let conn_rx = Arc::clone(&conn_rx);
                let handler = Arc::clone(&handler);
                let traces = Arc::clone(&traces);
                let shutdown = Arc::clone(&shutdown);
                ctx.clone().spawn(move || loop {
                    // Don't hold the receiver lock while serving a connection.
                    let stream = match conn_rx.lock().unwrap().recv() {
                        Ok(s) => s,
                        Err(_) => return, // acceptor gone and channel drained
                    };
                    if let Err(e) = serve_connection(stream, &*handler, &traces, &shutdown) {
                        warn!(H::NAMES.log, "connection dropped: {e}");
                    }
                })
            })
            .collect();
        Ok(Core {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the OS-assigned port when the config asked
    /// for port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets in-flight requests finish, joins the
    /// acceptor and then the workers. `false` when already stopped.
    pub(crate) fn stop(&mut self) -> bool {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return false;
        }
        // Unblock the acceptor's accept() with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        // Acceptor exit drops the connection sender; workers drain the
        // channel, finish their in-flight requests, and exit.
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        true
    }
}

/// Serves one connection (keep-alive loop) until close, error, or
/// shutdown.
fn serve_connection<H: Handler>(
    stream: TcpStream,
    handler: &H,
    traces: &TraceRing,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    // Responses are one small write each; Nagle + delayed ACK would add
    // ~40ms per exchange.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                if !serve_request(&req, &mut writer, handler, traces, shutdown)? {
                    return Ok(());
                }
            }
            Ok(None) => return Ok(()), // peer closed between requests
            Err(HttpError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle keep-alive poll tick; only exit once shutdown is on.
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(HttpError::Io(e)) => return Err(e),
            Err(HttpError::BadRequest(m)) => return refuse::<H>(&mut writer, 400, &m),
            Err(HttpError::TooLarge) => return refuse::<H>(&mut writer, 413, "body too large"),
        }
    }
}

/// Answers an unreadable request; the connection ends with it, since
/// nothing after it can be framed.
fn refuse<H: Handler>(writer: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    counter_add(H::NAMES.errors, 1);
    let body = Response::error(status, message).body.to_line();
    write_response(
        writer,
        status,
        reason_phrase(status),
        "application/json",
        body.as_bytes(),
        false,
    )
}

/// Answers one parsed request; `Ok(false)` once the connection is not to
/// be kept alive.
fn serve_request<H: Handler>(
    req: &Request,
    writer: &mut TcpStream,
    handler: &H,
    traces: &TraceRing,
    shutdown: &AtomicBool,
) -> io::Result<bool> {
    let names = H::NAMES;
    let started = Instant::now();
    let req_ts_us = trace_now_us();
    counter_add(names.requests, 1);
    let trace_id = ahntp_telemetry::next_trace_id();
    let mut call = Call::new(req, trace_id);
    let resp = {
        // Ambient id for any span opened while handling this request on
        // this thread (top-k scans, metrics, ...).
        let _scope = ahntp_telemetry::set_trace_id_scope(trace_id);
        dispatch(handler, traces, &mut call)
    };
    let (status, stages) = (resp.status, call.stages);
    if status >= 400 {
        counter_add(names.errors, 1);
    }
    let trace_hex = format!("{trace_id:016x}");
    let retry_after = resp.retry_after.map(|secs| secs.to_string());
    // The second header rides only on backpressure answers.
    let headers = [
        ("X-Ahntp-Trace-Id", trace_hex.as_str()),
        ("Retry-After", retry_after.as_deref().unwrap_or_default()),
    ];
    let headers = &headers[..1 + usize::from(retry_after.is_some())];
    // Finish the in-flight response even during shutdown, but don't
    // invite another request.
    let keep_alive = !req.wants_close() && !shutdown.load(Ordering::SeqCst);
    let (content_type, body) = match resp.text {
        Some((ct, text)) => (ct, text.into_bytes()),
        None => ("application/json", resp.body.to_line().into_bytes()),
    };
    write_response_with(
        writer,
        status,
        reason_phrase(status),
        content_type,
        headers,
        &body,
        keep_alive,
    )?;
    let us = started.elapsed().as_micros() as u64;
    histogram_record(names.latency_us, us);
    // Access log: off by default (Info floor); enable with e.g.
    // AHNTP_LOG=serve.access=debug.
    debug!(
        names.access,
        "{} {} {status} {us}us trace={trace_id:016x}", req.method, req.path
    );
    if ahntp_telemetry::trace_collecting() {
        // Request lane: one span for the request with the stages nested
        // under the same (pid, tid).
        ahntp_telemetry::trace_complete_request(names.span, req_ts_us, us, trace_id);
        for s in stages.as_slice() {
            ahntp_telemetry::trace_complete_request(s.name, s.ts_us, s.dur_us, trace_id);
        }
    }
    let (method, path) = route_names::<H>(&req.method, &req.path);
    traces.push(RequestTrace {
        trace_id,
        method,
        path,
        status,
        ts_us: req_ts_us,
        dur_us: us,
        stages,
    });
    Ok(keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::shard::Front;

    /// Every route of `H` and of the core is recorded by reference.
    fn routes_are_recorded_borrowed<H: Handler>() {
        let own = H::ROUTES.iter().map(|(m, p, _)| (*m, *p));
        for (method, path) in own.chain(SHARED_ROUTES.iter().map(|(p, _)| ("GET", *p))) {
            let (m, p) = route_names::<H>(method, path);
            assert!(
                matches!(m, Cow::Borrowed(_)) && m == method,
                "{method} {path}: {m:?}"
            );
            assert!(
                matches!(p, Cow::Borrowed(_)) && p == path,
                "{method} {path}: {p:?}"
            );
        }
    }

    #[test]
    fn ring_records_borrow_routed_names_and_own_unknown_ones() {
        routes_are_recorded_borrowed::<Node>();
        routes_are_recorded_borrowed::<Front>();
        // What 405 and 404 answer is recorded verbatim, the unknown part owned.
        let (m, p) = route_names::<Node>("PUT", "/score");
        assert!(matches!(&m, Cow::Owned(m) if m == "PUT") && matches!(p, Cow::Borrowed("/score")));
        let (m, p) = route_names::<Node>("GET", "/nope");
        assert!(matches!(m, Cow::Borrowed("GET")) && matches!(&p, Cow::Owned(p) if p == "/nope"));
    }
}
