//! Closed-loop load generator for the serving stack.
//!
//! Each worker thread owns one keep-alive connection and issues `POST
//! /score` requests back-to-back (closed loop: the next request starts
//! when the previous response lands), recording per-request latency.
//! The report carries exact percentiles — every latency sample is kept
//! and sorted, unlike the server's own log2-bucket histograms — plus
//! aggregate throughput, so `serve_quickstart` and the smoke and chaos
//! tests can print p50/p99/RPS lines from one call.

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

/// Exact latency aggregate over every sample of a run.
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
    fn an_unreachable_address_panics_instead_of_reporting_zeros() {
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
