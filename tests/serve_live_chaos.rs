//! Chaos suite for the live-trust ingest path: armed failpoints
//! (`ahntp-faultz`) fail event batches at every stage — before dispatch
//! (`serve.ingest`), mid-apply (`stream.apply`), and at refresh time
//! (`stream.refresh`) — and the serving index must stay *consistent*
//! throughout: after any fault, `/score` and `/topk` answer exactly what a
//! mirror model that applied the same successful prefix would answer. The
//! mirror refreshes after every event while the server refreshes once per
//! batch, so every comparison also checks the batch refresh against the
//! per-event one.
//!
//! Every test runs under an execution context of its own
//! (`ahntp_par::Context::fresh`), which the server it starts inherits: its
//! failpoints fault only its own server and the ingest counters it reads
//! are exactly its own, so the tests run in parallel.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_eval::TrustModel;
use ahntp_faultz::{self as faultz, Action, FaultSpec};
use ahntp_par::Context;
use ahntp_serve::client::Client;
use ahntp_serve::{serve_live, ServeConfig, ServerHandle, TrustIndex};
use ahntp_stream::{
    AppliedEvent, EventApplier, HyperGroup, LiveTrustModel, StalenessBound, StreamError, TrustEvent,
};
use ahntp_telemetry::json::{parse, Json};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::Duration;

const N_USERS: usize = 40;

/// Deterministic across threads and processes: the server's factory and
/// the test's mirror build bitwise-identical models.
fn build_model() -> Ahntp {
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(N_USERS, 5));
    let split = ds.split(0.8, 0.2, 2, 42);
    let cfg = AhntpConfig {
        conv_dims: vec![8, 4],
        tower_dims: vec![4],
        ..AhntpConfig::default()
    };
    let mut model = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
    model.train_epoch(&split.train);
    model
}

fn start() -> ServerHandle {
    ahntp_telemetry::set_enabled(true);
    serve_live(
        || Box::new(build_model()) as Box<dyn LiveTrustModel>,
        StalenessBound::immediate(),
        &ServeConfig {
            workers: 2,
            deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        },
    )
    .expect("bind live server")
}

/// The mirror side: an applier over an identically built model plus a
/// local index it patches, exactly as the server's applier thread does.
struct Mirror {
    applier: EventApplier<Ahntp>,
    index: TrustIndex,
}

impl Mirror {
    fn new() -> Mirror {
        let model = build_model();
        let index = TrustIndex::from_artifact(Ahntp::export_artifact(&model)).unwrap();
        Mirror {
            applier: EventApplier::new(model, StalenessBound::immediate()),
            index,
        }
    }

    /// Applies one event and flushes its refresh into the mirror index —
    /// per event, so it cross-checks the server's one refresh per batch.
    fn apply(&mut self, event: &TrustEvent) -> Result<AppliedEvent, StreamError> {
        let applied = self.applier.apply(event)?;
        if let Some(patch) = self.applier.maybe_refresh()? {
            self.index.apply_head_patch(&patch).expect("mirror patch");
        }
        Ok(applied)
    }

    fn scores(&self, pairs: &[(usize, usize)]) -> Vec<f32> {
        self.index.score_pairs(pairs).expect("mirror scores")
    }
}

/// What the applier thread of this test's server has counted so far:
/// `(serve.ingest.errors, batches it picked up, events in those batches)`.
fn ingest_counts() -> (u64, u64, u64) {
    let errors = ahntp_telemetry::counter_get("serve.ingest.errors");
    match ahntp_telemetry::metrics_snapshot().get("serve.ingest.batch_size") {
        Some(ahntp_telemetry::MetricValue::Histogram(h)) => (errors, h.count, h.sum),
        _ => (errors, 0, 0),
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut conn = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    let r = conn.post(path, body).expect("POST");
    (r.status, r.body)
}

/// Renders events in the `POST /events` wire form.
fn wire(events: &[TrustEvent]) -> String {
    let entries: Vec<String> = events
        .iter()
        .map(|e| match e {
            TrustEvent::AddEdge {
                group,
                members,
                weight,
            } => format!(
                r#"{{"op":"add","group":"{}","members":[{}],"weight":{weight}}}"#,
                group.name(),
                members
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            TrustEvent::RemoveEdge { group, edge } => {
                format!(
                    r#"{{"op":"remove","group":"{}","edge":{edge}}}"#,
                    group.name()
                )
            }
            TrustEvent::ReweightEdge {
                group,
                edge,
                weight,
            } => format!(
                r#"{{"op":"reweight","group":"{}","edge":{edge},"weight":{weight}}}"#,
                group.name()
            ),
            TrustEvent::Decay { factor } => format!(r#"{{"op":"decay","factor":{factor}}}"#),
        })
        .collect();
    format!(r#"{{"events":[{}]}}"#, entries.join(","))
}

fn server_scores(addr: SocketAddr, pairs: &[(usize, usize)]) -> Vec<f64> {
    let body = format!(
        r#"{{"pairs":[{}]}}"#,
        pairs
            .iter()
            .map(|&(u, v)| format!("[{u},{v}]"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, body) = post(addr, "/score", &body);
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).expect("score JSON");
    let Some(Json::Arr(scores)) = doc.get("scores") else {
        panic!("no scores in {body}");
    };
    scores
        .iter()
        .map(|s| s.as_f64().expect("numeric score"))
        .collect()
}

fn assert_matches_mirror(addr: SocketAddr, mirror: &Mirror, what: &str) {
    let pairs: Vec<(usize, usize)> = (0..N_USERS).map(|u| (u, (u * 7 + 3) % N_USERS)).collect();
    let got = server_scores(addr, &pairs);
    let want = mirror.scores(&pairs);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            (g - f64::from(*w)).abs() < 1e-6,
            "{what}: pair {i} server {g} vs mirror {w}"
        );
    }
    // `/topk` answers from the patched panels: the mirror's ranking —
    // ids in range, (score desc, id asc) order, the same scores.
    let topk = Client::connect(addr, Duration::from_secs(10))
        .and_then(|mut conn| conn.get("/topk?user=3&k=8"))
        .expect("GET /topk");
    assert_eq!(topk.status, 200, "{what}: {}", topk.body);
    let doc = parse(&topk.body).expect("topk JSON");
    let Some(Json::Arr(trustees)) = doc.get("trustees") else {
        panic!("{what}: no trustees in {}", topk.body);
    };
    let field = |t: &Json, name: &str| t.get(name).and_then(Json::as_f64).expect("numeric field");
    let got: Vec<(f64, f64)> = trustees
        .iter()
        .map(|t| (field(t, "user"), field(t, "score")))
        .collect();
    let want: Vec<(f64, f64)> = mirror
        .index
        .top_k_trustees(3, 8)
        .expect("mirror top-k")
        .into_iter()
        .map(|(v, s)| (v as f64, f64::from(s)))
        .collect();
    assert_eq!(got, want, "{what}: /topk");
}

fn sample_events() -> Vec<TrustEvent> {
    vec![
        TrustEvent::AddEdge {
            group: HyperGroup::Node,
            members: vec![1, 5, 9],
            weight: 1.2,
        },
        TrustEvent::AddEdge {
            group: HyperGroup::Structure,
            members: vec![0, 7],
            weight: 0.8,
        },
        TrustEvent::RemoveEdge {
            group: HyperGroup::Node,
            edge: 2,
        },
        TrustEvent::Decay { factor: 0.95 },
        TrustEvent::AddEdge {
            group: HyperGroup::Node,
            members: vec![3, 11],
            weight: 0.6,
        },
    ]
}

/// An armed `serve.ingest` fault rejects the batch at the door: `500`,
/// nothing applied, the live index bitwise untouched.
#[test]
fn ingest_fault_rejects_the_batch_before_any_mutation() {
    Context::fresh().run(ingest_fault);
}

fn ingest_fault() {
    let server = start();
    let addr = server.addr();
    let mirror = Mirror::new();
    let before = server_scores(addr, &[(0, 1), (5, 9), (11, 3)]);

    {
        let _fault = faultz::scoped("serve.ingest", FaultSpec::new(Action::Err));
        let (status, body) = post(addr, "/events", &wire(&sample_events()));
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("injected"), "{body}");
    }
    // No event reached the applier: scores are exactly what they were.
    let after = server_scores(addr, &[(0, 1), (5, 9), (11, 3)]);
    assert_eq!(before, after, "index mutated by a rejected batch");
    assert_matches_mirror(addr, &mirror, "after serve.ingest fault");
    assert_eq!(
        ingest_counts(),
        (0, 0, 0),
        "the rejected batch reached the applier"
    );

    // Disarmed, the same batch lands.
    let (status, body) = post(addr, "/events", &wire(&sample_events()));
    assert_eq!(status, 200, "{body}");
    assert_eq!(ingest_counts(), (0, 1, 5));
    server.shutdown();
}

/// A `stream.apply` fault mid-batch: the applied prefix is flushed to the
/// index, the reply reports exactly how far the batch got, and the index
/// answers like a mirror that applied the same prefix.
#[test]
fn apply_fault_mid_batch_keeps_the_live_index_on_the_applied_prefix() {
    Context::fresh().run(apply_fault_mid_batch);
}

fn apply_fault_mid_batch() {
    let server = start();
    let addr = server.addr();
    let mut mirror = Mirror::new();
    let events = sample_events();

    let (status, body) = {
        // The 3rd apply in the batch faults; events 1 and 2 stand.
        let _fault = faultz::scoped("stream.apply", FaultSpec::new(Action::Err).on_nth(3));
        post(addr, "/events", &wire(&events))
    };
    assert_eq!(status, 500, "{body}");
    let doc = parse(&body).expect("ingest JSON");
    assert_eq!(
        doc.get("applied").and_then(Json::as_f64),
        Some(2.0),
        "{body}"
    );
    assert!(
        doc.get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .contains("stream.apply"),
        "{body}"
    );
    for event in &events[..2] {
        mirror.apply(event).expect("mirror prefix");
    }
    assert_matches_mirror(addr, &mirror, "after stream.apply fault");
    assert_eq!(ingest_counts(), (1, 1, 5));

    // The rest of the batch can be replayed once the fault clears.
    let (status, body) = post(addr, "/events", &wire(&events[2..]));
    assert_eq!(status, 200, "{body}");
    assert_eq!(ingest_counts(), (1, 2, 8));
    for event in &events[2..] {
        mirror.apply(event).expect("mirror tail");
    }
    assert_matches_mirror(addr, &mirror, "after replaying the tail");
    server.shutdown();
}

/// A `stream.refresh` fault: the event applies but its refresh fails, so
/// the index serves consistent-but-stale rows (the pre-event state); the
/// dirty set survives and the next healthy batch flushes everything.
#[test]
fn refresh_fault_leaves_rows_stale_but_consistent_until_the_next_flush() {
    Context::fresh().run(refresh_fault);
}

fn refresh_fault() {
    let server = start();
    let addr = server.addr();
    let mut mirror = Mirror::new();
    let stale_mirror = Mirror::new(); // never mutated: the pre-event state

    let first = TrustEvent::AddEdge {
        group: HyperGroup::Node,
        members: vec![2, 6, 13],
        weight: 1.5,
    };
    {
        let _fault = faultz::scoped("stream.refresh", FaultSpec::new(Action::Err));
        let (status, body) = post(addr, "/events", &wire(std::slice::from_ref(&first)));
        assert_eq!(status, 500, "{body}");
        let doc = parse(&body).expect("ingest JSON");
        assert_eq!(
            doc.get("applied").and_then(Json::as_f64),
            Some(1.0),
            "{body}"
        );
        assert!(
            doc.get("dirty_users").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
            "dirty set must survive a refresh fault: {body}"
        );
    }
    // Consistent-but-stale: the index still answers the pre-event rows.
    assert_matches_mirror(addr, &stale_mirror, "stale rows after stream.refresh fault");
    assert_eq!(ingest_counts(), (1, 1, 1));

    // The next healthy event flushes the retained dirty set too.
    let second = TrustEvent::AddEdge {
        group: HyperGroup::Structure,
        members: vec![2, 20],
        weight: 0.7,
    };
    let (status, body) = post(addr, "/events", &wire(std::slice::from_ref(&second)));
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).expect("ingest JSON");
    assert_eq!(
        doc.get("dirty_users").and_then(Json::as_f64),
        Some(0.0),
        "{body}"
    );
    mirror.apply(&first).expect("mirror first");
    mirror.apply(&second).expect("mirror second");
    assert_matches_mirror(addr, &mirror, "after the flush catches up");
    assert_eq!(ingest_counts(), (1, 2, 2));
    server.shutdown();
}

/// A `stream.refresh` fault under a multi-event batch: every event
/// applies (the refresh runs once, after the batch), the failed refresh
/// keeps the dirty set, the index keeps the pre-batch rows, and the next
/// healthy batch lands on the per-event mirror.
#[test]
fn refresh_fault_after_a_batch_applies_every_event_and_keeps_rows_stale() {
    Context::fresh().run(refresh_fault_after_a_batch);
}

fn refresh_fault_after_a_batch() {
    let server = start();
    let addr = server.addr();
    let mut mirror = Mirror::new();
    let stale_mirror = Mirror::new();
    let events = sample_events();
    {
        let _fault = faultz::scoped("stream.refresh", FaultSpec::new(Action::Err));
        let (status, body) = post(addr, "/events", &wire(&events));
        assert_eq!(status, 500, "{body}");
        let doc = parse(&body).expect("ingest JSON");
        assert_eq!(
            doc.get("applied").and_then(Json::as_f64),
            Some(events.len() as f64),
            "{body}"
        );
        assert_eq!(
            doc.get("refreshed_users").and_then(Json::as_f64),
            Some(0.0),
            "{body}"
        );
        assert!(
            doc.get("dirty_users").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
            "dirty set must survive a refresh fault: {body}"
        );
        assert!(
            doc.get("error")
                .and_then(Json::as_str)
                .unwrap_or("")
                .contains("stream.refresh"),
            "{body}"
        );
    }
    assert_matches_mirror(
        addr,
        &stale_mirror,
        "stale rows after a batch's refresh fault",
    );
    assert_eq!(ingest_counts(), (1, 1, events.len() as u64));

    let next = TrustEvent::AddEdge {
        group: HyperGroup::Structure,
        members: vec![4, 17],
        weight: 0.9,
    };
    let (status, body) = post(addr, "/events", &wire(std::slice::from_ref(&next)));
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).expect("ingest JSON");
    assert_eq!(
        doc.get("dirty_users").and_then(Json::as_f64),
        Some(0.0),
        "{body}"
    );
    for event in events.iter().chain([&next]) {
        mirror.apply(event).expect("mirror event");
    }
    assert_matches_mirror(addr, &mirror, "after the next batch flushes the backlog");
    server.shutdown();
}

/// A healthy batch's reply: `affected_users` sums the events' affected
/// sets, `refreshed_users` is the size of their union — one refresh, each
/// dirty user once — and the index lands on the per-event mirror.
#[test]
fn a_healthy_batch_refreshes_the_union_of_its_affected_users_once() {
    Context::fresh().run(healthy_batch);
}

fn healthy_batch() {
    let server = start();
    let addr = server.addr();
    let mut mirror = Mirror::new();
    let events = sample_events();
    let (status, body) = post(addr, "/events", &wire(&events));
    assert_eq!(status, 200, "{body}");
    let (mut sum, mut union) = (0usize, BTreeSet::new());
    for event in &events {
        let applied = mirror.apply(event).expect("mirror event");
        sum += applied.affected_users.len();
        union.extend(applied.affected_users);
    }
    assert!(
        union.len() < sum,
        "the batch's affected sets must overlap for this test to bite"
    );
    let doc = parse(&body).expect("ingest JSON");
    let field = |name: &str| doc.get(name).and_then(Json::as_f64);
    assert_eq!(field("applied"), Some(events.len() as f64), "{body}");
    assert_eq!(field("affected_users"), Some(sum as f64), "{body}");
    assert_eq!(field("refreshed_users"), Some(union.len() as f64), "{body}");
    assert_eq!(field("dirty_users"), Some(0.0), "{body}");
    assert_matches_mirror(addr, &mirror, "after one healthy batch");
    server.shutdown();
}
