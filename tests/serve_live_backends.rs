//! Live trust × scoring backends: `serve_live` under every
//! `AHNTP_BACKEND` value ingests the same mixed event stream as
//! `tests/stream_exactness.rs` (hyperedge adds, removes, reweights, and
//! decays on both hypergraph levels), and after every batch the served
//! scores must stay within the backend's *stated* envelope of a
//! from-scratch rebuild oracle — so head patches re-derive each backend's
//! state (int8 re-quantization, ivf posting-list reassignment) correctly,
//! not just the f32 rows.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_eval::TrustModel;
use ahntp_serve::{serve_live, BackendKind, IvfParams, ServeConfig, TrustIndex};
use ahntp_stream::{HyperGroup, LiveTrustModel, StalenessBound, TrustEvent};
use ahntp_telemetry::json::{parse, Json};
use ahntp_serve::client::Client;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

const N_USERS: usize = 70;
const N_EVENTS: usize = 120;

/// Deterministic across threads: the server's factory and the test's
/// rebuild-oracle mirror build bitwise-identical models.
fn build_model() -> Ahntp {
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(N_USERS, 5));
    let split = ds.split(0.8, 0.2, 2, 42);
    let cfg = AhntpConfig {
        conv_dims: vec![16, 8],
        tower_dims: vec![8],
        ..AhntpConfig::default()
    };
    let mut model = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
    for _ in 0..2 {
        model.train_epoch(&split.train);
    }
    model
}

/// Deterministic LCG, same constants and seed as `stream_exactness`.
fn lcg(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

/// The `stream_exactness` event mix: mostly adds, with removes,
/// reweights, and decays interleaved on both hypergraph levels.
fn event_stream(n_node: usize, n_struct: usize) -> Vec<TrustEvent> {
    let mut counts = [n_node, n_struct];
    let mut rng: u64 = 0x5eed_2024;
    let mut events = Vec::with_capacity(N_EVENTS);
    for i in 0..N_EVENTS {
        let g = i % 2;
        let group = if g == 0 { HyperGroup::Node } else { HyperGroup::Structure };
        let event = match i % 8 {
            3 if counts[g] > 4 => TrustEvent::RemoveEdge {
                group,
                edge: lcg(&mut rng) % counts[g],
            },
            5 if counts[g] > 0 => TrustEvent::ReweightEdge {
                group,
                edge: lcg(&mut rng) % counts[g],
                weight: 0.3 + (lcg(&mut rng) % 90) as f32 / 60.0,
            },
            7 => TrustEvent::Decay {
                factor: 0.9 + (lcg(&mut rng) % 9) as f32 / 100.0,
            },
            _ => {
                let a = lcg(&mut rng) % N_USERS;
                let mut b = lcg(&mut rng) % N_USERS;
                if b == a {
                    b = (b + 1) % N_USERS;
                }
                let mut members = vec![a, b];
                if lcg(&mut rng) % 2 == 0 {
                    let mut c = lcg(&mut rng) % N_USERS;
                    while c == a || c == b {
                        c = (c + 1) % N_USERS;
                    }
                    members.push(c);
                }
                TrustEvent::AddEdge {
                    group,
                    members,
                    weight: 0.4 + (lcg(&mut rng) % 100) as f32 / 50.0,
                }
            }
        };
        match &event {
            TrustEvent::AddEdge { .. } => counts[g] += 1,
            TrustEvent::RemoveEdge { .. } => counts[g] -= 1,
            _ => {}
        }
        events.push(event);
    }
    events
}

const TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, TIMEOUT).expect("connect")
}

fn get(addr: SocketAddr, path: &str) -> (u16, BTreeMap<String, String>, String) {
    let r = connect(addr).get(path).expect("GET");
    (r.status, r.headers, r.body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, BTreeMap<String, String>, String) {
    let r = connect(addr).post(path, body).expect("POST");
    (r.status, r.headers, r.body)
}

/// Renders events in the `POST /events` wire form.
fn wire(events: &[TrustEvent]) -> String {
    let entries: Vec<String> = events
        .iter()
        .map(|e| match e {
            TrustEvent::AddEdge { group, members, weight } => format!(
                r#"{{"op":"add","group":"{}","members":[{}],"weight":{weight}}}"#,
                group.name(),
                members.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
            ),
            TrustEvent::RemoveEdge { group, edge } => {
                format!(r#"{{"op":"remove","group":"{}","edge":{edge}}}"#, group.name())
            }
            TrustEvent::ReweightEdge { group, edge, weight } => format!(
                r#"{{"op":"reweight","group":"{}","edge":{edge},"weight":{weight}}}"#,
                group.name()
            ),
            TrustEvent::Decay { factor } => format!(r#"{{"op":"decay","factor":{factor}}}"#),
        })
        .collect();
    format!(r#"{{"events":[{}]}}"#, entries.join(","))
}

/// `POST /score` over the wire, also asserting the backend header.
fn server_scores(addr: SocketAddr, pairs: &[(usize, usize)], backend: &str) -> Vec<f64> {
    let body = format!(
        r#"{{"pairs":[{}]}}"#,
        pairs
            .iter()
            .map(|&(u, v)| format!("[{u},{v}]"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, headers, body) = post(addr, "/score", &body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        headers.get("x-ahntp-backend").map(String::as_str),
        Some(backend),
        "X-Ahntp-Backend header"
    );
    let doc = parse(&body).expect("score JSON");
    assert_eq!(doc.get("backend").and_then(Json::as_str), Some(backend), "{body}");
    let Some(Json::Arr(scores)) = doc.get("scores") else {
        panic!("no scores in {body}");
    };
    scores.iter().map(|s| s.as_f64().expect("numeric score")).collect()
}

/// The live backend's current stated envelope, read off `/healthz` (int8
/// re-quantization after patches can move the bound, so read it live).
fn served_error_bound(addr: SocketAddr, backend: &str) -> f64 {
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).expect("healthz JSON");
    assert_eq!(doc.get("backend").and_then(Json::as_str), Some(backend), "{body}");
    doc.get("backend_score_error_bound")
        .and_then(Json::as_f64)
        .expect("healthz states the error bound")
}

#[test]
fn live_patches_keep_every_backend_inside_its_envelope_of_the_rebuild_oracle() {
    ahntp_telemetry::set_enabled(true);
    // Probe every user once, with a non-trivial trustee permutation.
    let probes: Vec<(usize, usize)> =
        (0..N_USERS).map(|u| (u, (u * 7 + 3) % N_USERS)).collect();
    // Slack on top of the stated envelope for the delta-maintenance
    // drift stream_exactness bounds at 1e-6 per artifact element.
    const DELTA_SLACK: f64 = 1e-4;

    for kind in [
        BackendKind::Exact,
        BackendKind::Int8,
        BackendKind::Ivf(IvfParams::default()),
    ] {
        let server = serve_live(
            || Box::new(build_model()) as Box<dyn LiveTrustModel>,
            StalenessBound::immediate(),
            &ServeConfig {
                workers: 2,
                deadline: Duration::from_secs(10),
                backend: Some(kind),
                ..ServeConfig::default()
            },
        )
        .expect("bind live server");
        let addr = server.addr();
        let backend = kind.name();

        // The rebuild-oracle mirror: an identically built model that
        // applies the same events; its from-scratch rebuild is the truth
        // the served (patched) index must track.
        let mut mirror = build_model();
        let (n_node, n_struct) = mirror.hyperedge_counts();
        let events = event_stream(n_node, n_struct);

        for (ckpt, batch) in events.chunks(30).enumerate() {
            let (status, _, body) = post(addr, "/events", &wire(batch));
            assert_eq!(status, 200, "[{backend}] checkpoint {ckpt}: {body}");
            let doc = parse(&body).unwrap();
            assert_eq!(
                doc.get("applied").and_then(Json::as_f64),
                Some(batch.len() as f64),
                "[{backend}] checkpoint {ckpt}: {body}"
            );
            for event in batch {
                let applied = mirror.apply_event(event).expect("mirror apply");
                // Immediate staleness bound server-side: the mirror can
                // discard the incremental patch and rely on the rebuild.
                let _ = mirror.refresh_heads(&applied.affected_users);
            }

            let oracle =
                TrustIndex::from_artifact(mirror.rebuild_artifact()).expect("oracle index");
            let want = oracle.score_pairs(&probes).unwrap();
            let got = server_scores(addr, &probes, backend);
            let tol = served_error_bound(addr, backend) + DELTA_SLACK;
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - f64::from(*w)).abs() <= tol,
                    "[{backend}] checkpoint {ckpt}: probe {i} served {g} vs oracle {w} \
                     (tolerance {tol})"
                );
            }

            // /topk keeps answering through the patched backend state:
            // well-formed, documented order, no stale out-of-range ids.
            let (status, _, body) = get(addr, "/topk?user=3&k=8");
            assert_eq!(status, 200, "[{backend}] checkpoint {ckpt}: {body}");
            let doc = parse(&body).unwrap();
            assert_eq!(doc.get("backend").and_then(Json::as_str), Some(backend));
            let Some(Json::Arr(trustees)) = doc.get("trustees") else {
                panic!("[{backend}] no trustees in {body}");
            };
            assert_eq!(trustees.len(), 8, "[{backend}] {body}");
            let ranked: Vec<(usize, f64)> = trustees
                .iter()
                .map(|t| {
                    (
                        t.get("user").and_then(Json::as_f64).unwrap() as usize,
                        t.get("score").and_then(Json::as_f64).unwrap(),
                    )
                })
                .collect();
            for w in ranked.windows(2) {
                assert!(
                    w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "[{backend}] checkpoint {ckpt}: bad top-k order {ranked:?}"
                );
            }
            for &(v, _) in &ranked {
                assert!(v < N_USERS && v != 3, "[{backend}] bad candidate {v}");
            }
        }
        server.shutdown();
    }
}
