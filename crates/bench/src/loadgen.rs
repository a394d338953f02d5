//! Closed-loop load generator for the serving stack.
//!
//! Each worker thread owns one keep-alive connection and issues `POST
//! /score` requests back-to-back (closed loop: the next request starts
//! when the previous response lands), recording per-request latency.
//! The report carries exact percentiles — every latency sample is kept
//! and sorted, unlike the server's own log2-bucket histograms — plus
//! aggregate throughput, so `benches/serve_load.rs`-style harnesses and
//! the smoke tests can print p50/p99/RPS lines from one call.
//!
//! [`run_mixed_load`] drives a live server instead: each connection
//! interleaves `POST /events` writes with `POST /score` / `GET /topk`
//! reads at a configurable write ratio, and the report keeps separate
//! exact percentiles per request class — the read-latency cost of live
//! ingest is the number the streaming benches exist to measure.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ahntp_serve::client::Client;

/// Connect/read/write timeout of every load connection: far above any
/// served latency, so a hung server fails the request instead of the run.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Shape of the generated load.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop client connections.
    pub connections: usize,
    /// `POST /score` requests issued per connection.
    pub requests_per_connection: usize,
    /// Scored pairs per request body.
    pub pairs_per_request: usize,
    /// Exclusive upper bound for generated user ids.
    pub n_users: usize,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            connections: 4,
            requests_per_connection: 50,
            pairs_per_request: 8,
            n_users: 64,
        }
    }
}

/// Aggregated results of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests answered 200.
    pub completed: usize,
    /// Requests answered anything else or failed at the socket.
    pub failed: usize,
    /// Median request latency, microseconds (exact, not bucketed).
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Mean request latency, microseconds.
    pub mean_us: f64,
    /// Completed requests per wall-clock second across all connections.
    pub throughput_rps: f64,
    /// `X-Ahntp-Trace-Id` of one of the answered requests (the server
    /// stamps every response) — lets smoke harnesses assert trace
    /// propagation end to end.
    pub sample_trace_id: Option<String>,
}

impl LoadReport {
    /// One-line human summary for bench output.
    pub fn summary(&self) -> String {
        format!(
            "{} ok / {} failed, p50 {}us, p99 {}us, mean {:.0}us, {:.0} req/s",
            self.completed, self.failed, self.p50_us, self.p99_us, self.mean_us,
            self.throughput_rps
        )
    }
}

/// Deterministic pair pattern for connection `conn`, request `req`: spreads
/// load over all users without an RNG so runs are reproducible.
fn request_body(conn: usize, req: usize, pairs: usize, n_users: usize) -> String {
    let mut items = Vec::with_capacity(pairs);
    for p in 0..pairs {
        let u = (conn * 7919 + req * 104_729 + p * 31) % n_users;
        let v = (conn * 15_485_863 + req * 6_700_417 + p * 97 + 1) % n_users;
        items.push(format!("[{u},{v}]"));
    }
    format!("{{\"pairs\":[{}]}}", items.join(","))
}

/// Runs the closed loop against a serving endpoint and aggregates
/// latencies.
///
/// # Panics
///
/// Panics when no connection can be established at all (the server is not
/// there — a harness bug, not a measurement).
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    assert!(config.n_users > 0, "n_users must be positive");
    let started = Instant::now();
    let workers: Vec<_> = (0..config.connections.max(1))
        .map(|conn| {
            let config = config.clone();
            std::thread::spawn(move || {
                let mut latencies: Vec<u64> = Vec::new();
                let mut failed = 0usize;
                let mut trace_id: Option<String> = None;
                let Ok(mut client) = Client::connect(addr, TIMEOUT) else {
                    return (false, latencies, config.requests_per_connection, trace_id);
                };
                for req in 0..config.requests_per_connection {
                    let body = request_body(
                        conn,
                        req,
                        config.pairs_per_request,
                        config.n_users,
                    );
                    let sent = Instant::now();
                    match client.post("/score", &body) {
                        Ok(mut resp) if resp.status == 200 => {
                            latencies.push(sent.elapsed().as_micros() as u64);
                            if trace_id.is_none() {
                                trace_id = resp.headers.remove("x-ahntp-trace-id");
                            }
                        }
                        Ok(_) | Err(_) => failed += 1,
                    }
                }
                (true, latencies, failed, trace_id)
            })
        })
        .collect();

    let mut latencies: Vec<u64> = Vec::new();
    let mut failed = 0usize;
    let mut connected = false;
    let mut sample_trace_id = None;
    for w in workers {
        let (ok, mut l, f, trace_id) = w.join().expect("load worker panicked");
        connected |= ok;
        latencies.append(&mut l);
        failed += f;
        sample_trace_id = sample_trace_id.or(trace_id);
    }
    assert!(connected, "load generator could not reach {addr}");
    let wall = started.elapsed().max(Duration::from_micros(1));

    let stats = ClassStats::from_samples(latencies, failed);
    LoadReport {
        completed: stats.completed,
        failed,
        p50_us: stats.p50_us,
        p99_us: stats.p99_us,
        mean_us: stats.mean_us,
        throughput_rps: stats.completed as f64 / wall.as_secs_f64(),
        sample_trace_id,
    }
}

/// Shape of a mixed read/write load run against a live server.
#[derive(Debug, Clone)]
pub struct MixedLoadConfig {
    /// Concurrent closed-loop client connections.
    pub connections: usize,
    /// Requests issued per connection (reads and writes combined).
    pub requests_per_connection: usize,
    /// Scored pairs per `/score` request body.
    pub pairs_per_request: usize,
    /// Trust events per `POST /events` request body.
    pub events_per_request: usize,
    /// Exclusive upper bound for generated user ids.
    pub n_users: usize,
    /// Fraction of requests that are writes, in `[0, 1]`. The write
    /// slots are spread evenly through each connection's sequence (not
    /// front- or back-loaded), so reads observe a steadily mutating
    /// index.
    pub write_ratio: f64,
}

impl Default for MixedLoadConfig {
    fn default() -> MixedLoadConfig {
        MixedLoadConfig {
            connections: 4,
            requests_per_connection: 50,
            pairs_per_request: 8,
            events_per_request: 4,
            n_users: 64,
            write_ratio: 0.2,
        }
    }
}

/// Exact latency aggregate for one request class of a mixed run.
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Requests answered 200.
    pub completed: usize,
    /// Requests answered anything else or failed at the socket.
    pub failed: usize,
    /// Median latency, microseconds (exact).
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
}

impl ClassStats {
    fn from_samples(mut latencies: Vec<u64>, failed: usize) -> ClassStats {
        latencies.sort_unstable();
        let percentile = |q: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            let rank = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len());
            latencies[rank - 1]
        };
        let completed = latencies.len();
        let mean_us = if completed == 0 {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / completed as f64
        };
        ClassStats {
            completed,
            failed,
            p50_us: percentile(0.50),
            p99_us: percentile(0.99),
            mean_us,
        }
    }

    /// One-line human summary for bench output.
    pub fn summary(&self) -> String {
        format!(
            "{} ok / {} failed, p50 {}us, p99 {}us, mean {:.0}us",
            self.completed, self.failed, self.p50_us, self.p99_us, self.mean_us
        )
    }
}

/// Aggregated results of one mixed read/write run: per-class exact
/// percentiles plus combined throughput.
#[derive(Debug, Clone)]
pub struct MixedLoadReport {
    /// `POST /score` read requests.
    pub score: ClassStats,
    /// `GET /topk` read requests.
    pub topk: ClassStats,
    /// `POST /events` write requests.
    pub events: ClassStats,
    /// Completed requests per wall-clock second, all classes combined.
    pub throughput_rps: f64,
}

impl MixedLoadReport {
    /// Multi-line human summary for bench output.
    pub fn summary(&self) -> String {
        format!(
            "score  {}\ntopk   {}\nevents {}\n{:.0} req/s combined",
            self.score.summary(),
            self.topk.summary(),
            self.events.summary(),
            self.throughput_rps
        )
    }
}

/// Request class of slot `req` in a connection's sequence. Writes fire
/// whenever the running `write_ratio` quota crosses an integer — evenly
/// spaced, deterministic, and exact over any window where
/// `requests * ratio` is whole. Reads alternate `/score` and `/topk`.
fn slot_class(req: usize, write_ratio: f64) -> RequestClass {
    let quota = |n: usize| (n as f64 * write_ratio.clamp(0.0, 1.0)).floor() as usize;
    if quota(req + 1) > quota(req) {
        RequestClass::Events
    } else if (req - quota(req)) % 2 == 0 {
        RequestClass::Score
    } else {
        RequestClass::TopK
    }
}

/// One request class of the mixed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestClass {
    Score,
    TopK,
    Events,
}

/// Deterministic event batch for connection `conn`, request `req`: adds
/// with distinct in-range members on alternating hypergraph levels,
/// plus a mild decay every fourth event. Only self-validating event
/// shapes are generated — removes and reweights need a live edge id,
/// which concurrent connections cannot agree on.
fn events_body(conn: usize, req: usize, events: usize, n_users: usize) -> String {
    let mut items = Vec::with_capacity(events);
    for e in 0..events {
        if e % 4 == 3 {
            items.push("{\"op\":\"decay\",\"factor\":0.999}".to_string());
            continue;
        }
        let a = (conn * 7919 + req * 104_729 + e * 31) % n_users;
        let mut b = (conn * 15_485_863 + req * 6_700_417 + e * 97 + 1) % n_users;
        if b == a {
            b = (b + 1) % n_users;
        }
        let group = if e % 2 == 0 { "node" } else { "structure" };
        let weight = 0.5 + ((conn + req + e) % 10) as f64 / 10.0;
        items.push(format!(
            "{{\"op\":\"add\",\"group\":\"{group}\",\"members\":[{a},{b}],\"weight\":{weight}}}"
        ));
    }
    format!("{{\"events\":[{}]}}", items.join(","))
}

/// Runs the mixed closed loop against a live serving endpoint and
/// aggregates latencies per request class.
///
/// # Panics
///
/// Panics when no connection can be established at all, or when
/// `n_users < 2` (add events need two distinct members).
pub fn run_mixed_load(addr: SocketAddr, config: &MixedLoadConfig) -> MixedLoadReport {
    assert!(config.n_users >= 2, "n_users must be at least 2");
    let started = Instant::now();
    let workers: Vec<_> = (0..config.connections.max(1))
        .map(|conn| {
            let config = config.clone();
            std::thread::spawn(move || {
                // Latency samples and failure counts indexed by class:
                // [score, topk, events].
                let mut latencies: [Vec<u64>; 3] = Default::default();
                let mut failed = [0usize; 3];
                let Ok(mut client) = Client::connect(addr, TIMEOUT) else {
                    return (false, latencies, failed);
                };
                for req in 0..config.requests_per_connection {
                    let class = slot_class(req, config.write_ratio);
                    // `None` body: a GET.
                    let (target, body) = match class {
                        RequestClass::Score => (
                            "/score".to_string(),
                            Some(request_body(conn, req, config.pairs_per_request, config.n_users)),
                        ),
                        RequestClass::TopK => {
                            let u = (conn * 7919 + req * 104_729) % config.n_users;
                            (format!("/topk?user={u}&k=5"), None)
                        }
                        RequestClass::Events => (
                            "/events".to_string(),
                            Some(events_body(conn, req, config.events_per_request, config.n_users)),
                        ),
                    };
                    let slot = class as usize;
                    let sent = Instant::now();
                    let reply = match &body {
                        Some(body) => client.post(&target, body),
                        None => client.get(&target),
                    };
                    match reply {
                        Ok(resp) if resp.status == 200 => {
                            latencies[slot].push(sent.elapsed().as_micros() as u64);
                        }
                        Ok(_) | Err(_) => failed[slot] += 1,
                    }
                }
                (true, latencies, failed)
            })
        })
        .collect();

    let mut latencies: [Vec<u64>; 3] = Default::default();
    let mut failed = [0usize; 3];
    let mut connected = false;
    for w in workers {
        let (ok, l, f) = w.join().expect("mixed load worker panicked");
        connected |= ok;
        for (slot, mut samples) in l.into_iter().enumerate() {
            latencies[slot].append(&mut samples);
            failed[slot] += f[slot];
        }
    }
    assert!(connected, "mixed load generator could not reach {addr}");
    let wall = started.elapsed().max(Duration::from_micros(1));
    let completed: usize = latencies.iter().map(Vec::len).sum();
    let [score, topk, events] = latencies;
    MixedLoadReport {
        score: ClassStats::from_samples(score, failed[0]),
        topk: ClassStats::from_samples(topk, failed[1]),
        events: ClassStats::from_samples(events, failed[2]),
        throughput_rps: completed as f64 / wall.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_valid_pair_lists() {
        let body = request_body(1, 2, 3, 10);
        assert!(body.starts_with("{\"pairs\":[["), "{body}");
        assert_eq!(body.matches('[').count(), 4); // outer + 3 pairs
        // Every id stays under n_users.
        for token in body
            .split(|c: char| !c.is_ascii_digit())
            .filter(|t| !t.is_empty())
        {
            assert!(token.parse::<usize>().unwrap() < 10, "{body}");
        }
    }

    #[test]
    fn write_slots_hit_the_ratio_exactly_and_spread_evenly() {
        // Over 100 slots at ratio 0.25, exactly 25 writes, never two in
        // a row, and reads alternate between the two read classes.
        let classes: Vec<_> = (0..100).map(|r| slot_class(r, 0.25)).collect();
        let writes = classes
            .iter()
            .filter(|c| **c == RequestClass::Events)
            .count();
        assert_eq!(writes, 25);
        for pair in classes.windows(2) {
            assert!(
                pair != [RequestClass::Events, RequestClass::Events],
                "writes must not clump"
            );
        }
        let scores = classes
            .iter()
            .filter(|c| **c == RequestClass::Score)
            .count();
        let topks = classes
            .iter()
            .filter(|c| **c == RequestClass::TopK)
            .count();
        assert_eq!(scores, 38);
        assert_eq!(topks, 37);
        // Degenerate ratios collapse to pure-read / pure-write loops.
        assert!((0..50).all(|r| slot_class(r, 0.0) != RequestClass::Events));
        assert!((0..50).all(|r| slot_class(r, 1.0) == RequestClass::Events));
    }

    #[test]
    fn event_bodies_are_valid_wire_events() {
        let body = events_body(2, 3, 8, 10);
        assert!(body.starts_with("{\"events\":[{"), "{body}");
        assert_eq!(body.matches("\"op\":\"add\"").count(), 6, "{body}");
        assert_eq!(body.matches("\"op\":\"decay\"").count(), 2, "{body}");
        assert!(body.contains("\"group\":\"node\""), "{body}");
        assert!(body.contains("\"group\":\"structure\""), "{body}");
        // Every member id stays under n_users, and the two members of
        // each add are distinct.
        for event in body.split("\"members\":[").skip(1) {
            let ids: Vec<usize> = event
                .split(']')
                .next()
                .unwrap()
                .split(',')
                .map(|t| t.parse().unwrap())
                .collect();
            assert_eq!(ids.len(), 2, "{body}");
            assert_ne!(ids[0], ids[1], "{body}");
            assert!(ids.iter().all(|&id| id < 10), "{body}");
        }
    }

    #[test]
    fn class_stats_report_exact_percentiles() {
        let stats = ClassStats::from_samples((1..=100).rev().collect(), 3);
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.p50_us, 50);
        assert_eq!(stats.p99_us, 99);
        assert!((stats.mean_us - 50.5).abs() < 1e-9);
        let empty = ClassStats::from_samples(Vec::new(), 2);
        assert_eq!((empty.p50_us, empty.p99_us, empty.completed), (0, 0, 0));
    }

    #[test]
    fn percentiles_come_from_sorted_samples() {
        // Exercise run_load's percentile logic indirectly: a report over an
        // unreachable address is a panic, not a zeroed report.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let result = std::panic::catch_unwind(|| {
            run_load(
                addr,
                &LoadConfig {
                    connections: 1,
                    requests_per_connection: 1,
                    ..LoadConfig::default()
                },
            )
        });
        assert!(result.is_err(), "connecting to a closed port must panic");
    }
}
