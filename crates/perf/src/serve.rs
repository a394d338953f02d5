//! `serve_score`, `serve_topk`, `serve_sharded`: the online caller's path
//! over a frozen artifact. One endpoint per workload, so each median is
//! the median of one distribution: `/score` is bound by the batch linger,
//! `/topk` by the index scan, and the sharded `/topk` adds the front's
//! per-request connect, RPC and merge.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::Instant;

use ahntp_nn::TrustArtifact;
use ahntp_serve::{
    serve, serve_sharded, shard_ranges, BackendKind, ServeConfig, ServerHandle, ShardedHandle,
    TrustIndex,
};
use ahntp_telemetry::json::{parse, Json};

use crate::gen::{clustered_artifact, pair_batches, score_body, topk_users};
use crate::host::process_cpu_us;
use crate::http::Client;
use crate::span::{Span, SpanLog};
use crate::stats::{median, sorted};
use crate::workload::{fnv1a, Kind, Opts, Ready, Timed, Workload};

/// Closed-loop client connections (= `nproc` of the reference host).
pub const CONNECTIONS: usize = 2;
/// Index size: the largest EXPERIMENTS.md reports, 3 MB per head.
pub const USERS: usize = 24_000;
pub const HEAD_DIM: usize = 32;
pub const PAIRS_PER_REQUEST: usize = 8;
pub const TOP_K: usize = 10;
/// Requests per connection after which a `serve_sharded` run stops.
const SHARDED_REQUESTS: usize = 2000;

/// The server configuration every serve workload runs: the defaults (4
/// workers, 64-pair batches, 2 ms linger) with the backend pinned against
/// the environment and a larger request ring for the traced run to read
/// back. Not larger still: `ahntp_telemetry::json::parse` re-validates
/// the rest of the document at every string character, so reading a ring
/// of 16k records back takes longer than the run that filled it.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        backend: Some(BackendKind::default()),
        trace_ring: 2048,
        ..ServeConfig::default()
    }
}

pub fn index_of(artifact: TrustArtifact) -> TrustIndex {
    TrustIndex::from_artifact_with(artifact, BackendKind::default())
        .expect("generated artifact is valid")
}

/// One request of the pool and, once the oracle is prepared, the exact
/// body a correct server answers.
struct Exchange {
    input: Input,
    method: &'static str,
    target: String,
    body: String,
    expected: String,
}

enum Input {
    Score(Vec<(usize, usize)>),
    Topk(usize),
}

/// The `/score` body a server must answer for `pairs`.
pub fn expected_score_body(index: &TrustIndex, pairs: &[(usize, usize)]) -> String {
    let scores = index
        .score_pairs(pairs)
        .expect("generated pairs are in range");
    Json::obj([
        (
            "scores",
            Json::Arr(scores.into_iter().map(Json::from).collect()),
        ),
        ("backend", index.backend_name().into()),
    ])
    .to_line()
}

/// The `/topk` body a server must answer for `user`.
pub fn expected_topk_body(index: &TrustIndex, user: usize, k: usize) -> String {
    let top = index
        .top_k_trustees(user, k)
        .expect("generated user is in range");
    let trustees = top
        .into_iter()
        .map(|(v, s)| Json::obj([("user", v.into()), ("score", s.into())]))
        .collect();
    Json::obj([
        ("user", user.into()),
        ("trustees", Json::Arr(trustees)),
        ("backend", index.backend_name().into()),
    ])
    .to_line()
}

struct Serve {
    kind: Kind,
    addr: SocketAddr,
    /// Dropped before `_servers`: the front stops before its shards.
    front: Option<ShardedHandle>,
    /// Held for their `Drop`, which stops each server and joins its threads.
    _servers: Vec<ServerHandle>,
    /// The artifact the oracle will index, until the first measurement
    /// prepares the expected bodies; responses are compared from then on.
    oracle_artifact: Option<TrustArtifact>,
    pool: Vec<Exchange>,
    /// Requests sent so far per connection; keeps pool positions moving
    /// across `measure` calls.
    sent: [usize; CONNECTIONS],
    /// Requests per connection measured so far (warm-up not counted).
    measured_per_connection: usize,
    corrupt: bool,
    /// Failed exchanges and bodies that differ from the oracle's.
    bad: Vec<String>,
    /// Server trace id -> index of the client span that caused it.
    stitch: HashMap<u64, usize>,
    client_p50_us: f64,
}

pub fn setup(kind: Kind, opts: &Opts) -> Ready {
    let started = process_cpu_us();
    let (users, pool_len, warmup) = if opts.quick {
        (400, 16, 8)
    } else {
        (USERS, 512, 100)
    };
    let artifact = clustered_artifact(opts.seed, users, HEAD_DIM);
    let fingerprint = fnv1a(
        artifact
            .trustee_head
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes()),
    );
    let config = serve_config();
    let (front, servers, addr) = if kind == Kind::ServeSharded {
        let shards: Vec<ServerHandle> = shard_ranges(users, 2)
            .into_iter()
            .map(|range| {
                let cfg = ServeConfig {
                    shard_range: Some(range),
                    ..config.clone()
                };
                serve(index_of(artifact.clone()), &cfg).expect("bind shard")
            })
            .collect();
        let addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
        let front = serve_sharded(&addrs, &config).expect("start front");
        let addr = front.addr();
        (Some(front), shards, addr)
    } else {
        let server = serve(index_of(artifact.clone()), &config).expect("bind server");
        let addr = server.addr();
        (None, vec![server], addr)
    };
    let pool: Vec<Exchange> = if kind == Kind::ServeScore {
        pair_batches(opts.seed, users, pool_len, PAIRS_PER_REQUEST)
            .into_iter()
            .map(|pairs| Exchange {
                method: "POST",
                target: "/score".to_string(),
                body: score_body(&pairs),
                expected: String::new(),
                input: Input::Score(pairs),
            })
            .collect()
    } else {
        topk_users(opts.seed, users, pool_len)
            .into_iter()
            .map(|user| Exchange {
                method: "GET",
                target: format!("/topk?user={user}&k={TOP_K}"),
                body: String::new(),
                expected: String::new(),
                input: Input::Topk(user),
            })
            .collect()
    };
    let mut serve = Serve {
        kind,
        addr,
        front,
        _servers: servers,
        oracle_artifact: Some(artifact),
        pool,
        sent: [0; CONNECTIONS],
        measured_per_connection: 0,
        corrupt: opts.corrupt,
        bad: Vec::new(),
        stitch: HashMap::new(),
        client_p50_us: f64::NAN,
    };
    let warm = serve.drive(Some(warmup), f64::INFINITY, &mut SpanLog::new(false, 0));
    assert_eq!(warm.failed, 0, "warm-up requests failed: {:?}", serve.bad);
    let setup_s = (process_cpu_us() - started) / 1e6;
    Ready {
        workload: Box::new(serve),
        setup_s,
        fingerprint,
    }
}

impl Serve {
    /// Computes, in process on the same artifact, the body every pooled
    /// request must be answered with. This is the benchmark's cost, not
    /// the system's, so it runs once, for the set-up that gets measured,
    /// outside both `setup_s` and the measuring window.
    fn prepare_oracle(&mut self, artifact: TrustArtifact) {
        let index = &index_of(artifact);
        for exchange in &mut self.pool {
            exchange.expected = match &exchange.input {
                Input::Score(pairs) => expected_score_body(index, pairs),
                Input::Topk(user) => expected_topk_body(index, *user, TOP_K),
            };
        }
        if self.corrupt {
            self.pool[0].expected.push(' ');
        }
    }

    /// The closed loop: every connection sends its next request only
    /// after the previous reply. Stops after `limit` requests per
    /// connection or `seconds`, whichever comes first.
    fn drive(&mut self, limit: Option<usize>, seconds: f64, log: &mut SpanLog) -> Timed {
        let (addr, pool, sent) = (self.addr, &self.pool, self.sent);
        let (check, trace) = (self.oracle_artifact.is_none(), log.enabled());
        let started = Instant::now();
        let connections: Vec<Connection> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    scope.spawn(move || {
                        let mut c = Connection::open(addr, trace, conn as u32 + 1);
                        // Connections walk the pool from different offsets.
                        let offset = conn * pool.len() / CONNECTIONS + sent[conn];
                        for i in 0.. {
                            if limit.is_some_and(|l| i >= l)
                                || started.elapsed().as_secs_f64() >= seconds
                            {
                                break;
                            }
                            let exchange = &pool[(offset + i) % pool.len()];
                            let op = ((conn as u64) << 32) | (sent[conn] + i) as u64;
                            let Some((latency_us, body)) =
                                c.exchange(op, exchange.method, &exchange.target, &exchange.body)
                            else {
                                continue;
                            };
                            c.timed.samples_us.push(latency_us);
                            c.timed.work += 1.0;
                            if check && body != exchange.expected {
                                c.bad.push(format!(
                                    "{} {}: got {body} want {}",
                                    exchange.method, exchange.target, exchange.expected
                                ));
                            }
                        }
                        c
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut timed = Timed::default();
        for (conn, c) in connections.into_iter().enumerate() {
            self.sent[conn] += c.timed.attempted as usize;
            timed.absorb(c.finish(log, &mut self.stitch, &mut self.bad));
        }
        // The connections ran side by side: one shared wall time.
        timed.wall_s = started.elapsed().as_secs_f64();
        timed
    }
}

impl Workload for Serve {
    fn measure(&mut self, seconds: f64, log: &mut SpanLog) -> Timed {
        if let Some(artifact) = self.oracle_artifact.take() {
            self.prepare_oracle(artifact);
        }
        // The front opens a fresh connection to every shard for every
        // request. Sustained for many seconds that fills the kernel's
        // TIME_WAIT table and the numbers turn into TCP retransmit timers
        // (p50 0.9–1.9 ms and half the throughput, run to run), so the
        // sharded workload has a fixed request budget over the whole run
        // and reports that it is spent by doing nothing.
        let limit = (self.kind == Kind::ServeSharded)
            .then(|| SHARDED_REQUESTS.saturating_sub(self.measured_per_connection));
        if limit == Some(0) {
            return Timed::default();
        }
        let timed = self.drive(limit, seconds, log);
        self.measured_per_connection += timed.attempted as usize / CONNECTIONS;
        if !log.enabled() {
            self.client_p50_us = median(&timed.samples_us).unwrap_or(f64::NAN);
        }
        timed
    }

    fn verify(&mut self, log: &mut SpanLog) -> Vec<String> {
        let mut errors = Vec::new();
        if !self.bad.is_empty() {
            errors.push(format!(
                "{} exchanges failed or differ from the in-process index; first: {}",
                self.bad.len(),
                self.bad[0]
            ));
        }
        // A single node records every request with its stage timings;
        // the front keeps no ring, so sharded traces stay client-side.
        if log.enabled() && self.front.is_none() {
            match server_traces(self.addr) {
                Ok(traces) => {
                    stitch_server_spans(log, &traces, &self.stitch);
                    let path = if self.kind == Kind::ServeScore {
                        "/score"
                    } else {
                        "/topk"
                    };
                    print_request_budget(self.addr, &traces, path, self.client_p50_us);
                }
                Err(e) => errors.push(format!("GET /debug/traces failed: {e}")),
            }
        }
        errors
    }
}

/// One closed-loop client connection and everything it observed.
pub struct Connection {
    addr: SocketAddr,
    client: Client,
    pub timed: Timed,
    log: SpanLog,
    /// `(server trace id, index of the client span that caused it)`.
    stitch: Vec<(u64, usize)>,
    /// One line per exchange that failed or answered wrongly.
    pub bad: Vec<String>,
}

impl Connection {
    pub fn open(addr: SocketAddr, trace: bool, lane: u32) -> Connection {
        Connection {
            addr,
            client: Client::connect(addr).expect("connect to local server"),
            timed: Timed::default(),
            log: SpanLog::new(trace, lane),
            stitch: Vec::new(),
            bad: Vec::new(),
        }
    }

    /// One timed exchange, under a `client.request` span over `http.send`
    /// and `http.recv`. A 200 returns the client-side latency in µs and
    /// the body. Anything else counts as failed (it is then missing from
    /// every percentile) and the connection starts afresh.
    pub fn exchange(
        &mut self,
        op: u64,
        method: &str,
        target: &str,
        body: &str,
    ) -> Option<(f64, String)> {
        self.timed.attempted += 1;
        let root = self.log.begin("client.request", op, None);
        let started = Instant::now();
        let span = self.log.begin("http.send", op, Some(root));
        let sent = self.client.send(method, target, body);
        self.log.end(span);
        let reply = sent.and_then(|()| {
            let span = self.log.begin("http.recv", op, Some(root));
            let reply = self.client.recv();
            self.log.end(span);
            reply
        });
        let latency_us = started.elapsed().as_secs_f64() * 1e6;
        self.log.end(root);
        match reply {
            Ok(reply) if reply.status == 200 => {
                if let (true, Some(id)) = (self.log.enabled(), reply.trace_id) {
                    self.stitch.push((id, root));
                }
                Some((latency_us, reply.body))
            }
            other => {
                self.timed.failed += 1;
                self.bad.push(match other {
                    Ok(r) => format!("{method} {target}: status {} {}", r.status, r.body),
                    Err(e) => format!("{method} {target}: {e}"),
                });
                self.client = Client::connect(self.addr).expect("reconnect to local server");
                None
            }
        }
    }

    /// Folds this connection's spans, stitch points and complaints into
    /// the run's and returns its counts.
    pub fn finish(
        self,
        log: &mut SpanLog,
        stitch: &mut HashMap<u64, usize>,
        bad: &mut Vec<String>,
    ) -> Timed {
        let base = log.spans.len();
        log.absorb(self.log);
        stitch.extend(self.stitch.into_iter().map(|(id, span)| (id, span + base)));
        bad.extend(self.bad);
        self.timed
    }
}

/// One server-side request record from `GET /debug/traces`.
pub struct ServerTrace {
    pub trace_id: u64,
    pub path: String,
    pub ts_us: u64,
    pub dur_us: u64,
    /// `(name, ts_us, dur_us)`.
    pub stages: Vec<(String, u64, u64)>,
}

/// Reads a server's request ring.
pub fn server_traces(addr: SocketAddr) -> Result<Vec<ServerTrace>, String> {
    let reply = Client::connect(addr)
        .and_then(|mut c| c.get("/debug/traces"))
        .map_err(|e| e.to_string())?;
    let doc = parse(&reply.body)?;
    let Some(Json::Arr(traces)) = doc.get("traces") else {
        return Err("no traces array".to_string());
    };
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(traces
        .iter()
        .map(|t| ServerTrace {
            trace_id: t
                .get("trace_id")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .unwrap_or(0),
            path: t
                .get("path")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            ts_us: num(t, "ts_us"),
            dur_us: num(t, "dur_us"),
            stages: match t.get("stages") {
                Some(Json::Arr(stages)) => stages
                    .iter()
                    .map(|s| {
                        let name = s
                            .get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string();
                        (name, num(s, "ts_us"), num(s, "dur_us"))
                    })
                    .collect(),
                _ => Vec::new(),
            },
        })
        .collect())
}

/// Nests each recorded server request, and its stages, under the client
/// span that carries the same trace id.
pub fn stitch_server_spans(
    log: &mut SpanLog,
    traces: &[ServerTrace],
    stitch: &HashMap<u64, usize>,
) {
    for t in traces {
        let Some(&client) = stitch.get(&t.trace_id) else {
            continue;
        };
        let (op, lane) = (log.spans[client].op, log.spans[client].lane);
        let request = log.spans.len();
        log.push_closed(Span {
            name: "serve.request".into(),
            start_us: t.ts_us,
            end_us: t.ts_us + t.dur_us,
            op,
            parent: Some(client),
            lane,
        });
        for (name, ts_us, dur_us) in &t.stages {
            log.push_closed(Span {
                name: name.clone().into(),
                start_us: *ts_us,
                end_us: ts_us + dur_us,
                op,
                parent: Some(request),
                lane,
            });
        }
    }
}

/// Typical server-side times for `path` from the ring's records: the
/// request duration under `"server"`, each stage under its own name. The
/// server records whole microseconds, so the typical value is the mean of
/// the middle half of the samples: as robust as the median, but not
/// quantised to an integer that two runs would report identically.
pub fn stage_times(traces: &[ServerTrace], path: &str) -> BTreeMap<String, f64> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for t in traces.iter().filter(|t| t.path == path) {
        samples
            .entry("server".to_string())
            .or_default()
            .push(t.dur_us as f64);
        for (name, _, dur_us) in &t.stages {
            samples
                .entry(name.clone())
                .or_default()
                .push(*dur_us as f64);
        }
    }
    samples
        .into_iter()
        .map(|(name, v)| {
            let v = sorted(v);
            let middle = &v[v.len() / 4..(v.len() - v.len() / 4)];
            (name, middle.iter().sum::<f64>() / middle.len() as f64)
        })
        .collect()
}

/// Closed-loop median of `requests` exchanges on one connection, µs;
/// `next(i)` gives the i-th `(method, target, body)`.
pub fn closed_loop_p50(
    client: &mut Client,
    requests: usize,
    mut next: impl FnMut(usize) -> (&'static str, String, String),
) -> f64 {
    let samples: Vec<f64> = (0..requests)
        .filter_map(|i| {
            let (method, target, body) = next(i);
            let t = Instant::now();
            let reply = match method {
                "GET" => client.get(&target),
                _ => client.post(&target, &body),
            };
            reply
                .ok()
                .filter(|r| r.status == 200)
                .map(|_| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    median(&samples).unwrap_or(f64::NAN)
}

/// Closed-loop `GET /healthz` median: accept → parse → route → render →
/// write, the floor under every endpoint.
pub fn healthz_p50_us(addr: SocketAddr, requests: usize) -> f64 {
    let mut client = Client::connect(addr).expect("connect to local server");
    closed_loop_p50(&mut client, requests, |_| {
        ("GET", "/healthz".to_string(), String::new())
    })
}

/// Where one request's time went, from the server's own stage records;
/// for `/score` also what the stages leave unexplained.
fn print_request_budget(addr: SocketAddr, traces: &[ServerTrace], path: &str, client_p50_us: f64) {
    let stages = stage_times(traces, path);
    let floor = healthz_p50_us(addr, 200);
    eprintln!("# request budget for {path} (typical, us): client {client_p50_us:.1}, healthz floor {floor:.1}");
    for (name, us) in &stages {
        eprintln!("#   {name}: {us:.1}");
    }
    if path == "/score" {
        let stage = |name: &str| stages.get(name).copied().unwrap_or(0.0);
        let explained = floor + stage("serve.queue.wait") + stage("serve.score");
        eprintln!(
            "#   residual (client - floor - queue.wait - score): {:.1}",
            client_p50_us - explained
        );
    }
}
