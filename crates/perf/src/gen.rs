//! Seed-driven input generators. The program under test only ever sees
//! what these produce; the same seed gives the same inputs.

use ahntp_nn::TrustArtifact;
use ahntp_stream::{HyperGroup, TrustEvent};
use ahntp_telemetry::json::Json;
use ahntp_tensor::SplitMix64;

/// Uniform in `[0, n)`.
pub fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Uniform in `[-1, 1)`.
fn signed_unit(rng: &mut SplitMix64) -> f32 {
    (rng.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// A serving artifact whose head rows cluster around `N_CLUSTERS` random
/// directions (users resemble their community, as trained heads do), each
/// row L2-normalised exactly as artifact export leaves them.
pub fn clustered_artifact(seed: u64, n_users: usize, head_dim: usize) -> TrustArtifact {
    const N_CLUSTERS: usize = 64;
    const NOISE: f32 = 0.35;
    let mut rng = SplitMix64::new(SplitMix64::derive(seed, "perf.artifact"));
    let centres: Vec<f32> = (0..N_CLUSTERS * head_dim)
        .map(|_| signed_unit(&mut rng))
        .collect();
    let heads = |rng: &mut SplitMix64| -> Vec<f32> {
        let mut out = Vec::with_capacity(n_users * head_dim);
        for _ in 0..n_users {
            let c = below(rng, N_CLUSTERS) * head_dim;
            let row: Vec<f32> = (0..head_dim)
                .map(|j| centres[c + j] + NOISE * signed_unit(rng))
                .collect();
            let norm = row
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt()
                .max(f32::MIN_POSITIVE);
            out.extend(row.iter().map(|v| v / norm));
        }
        out
    };
    let trustor_head = heads(&mut rng);
    let trustee_head = heads(&mut rng);
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: SplitMix64::derive(seed, "perf.artifact.fingerprint"),
        calibration: 0.5,
        n_users,
        emb_dim: 1,
        head_dim,
        embeddings: vec![0.0; n_users].into(),
        trustor_head: trustor_head.into(),
        trustee_head: trustee_head.into(),
    }
}

/// `count` batches of `per_request` `(trustor, trustee)` pairs, all ids in
/// range.
pub fn pair_batches(
    seed: u64,
    n_users: usize,
    count: usize,
    per_request: usize,
) -> Vec<Vec<(usize, usize)>> {
    let mut rng = SplitMix64::new(SplitMix64::derive(seed, "perf.pairs"));
    (0..count)
        .map(|_| {
            (0..per_request)
                .map(|_| (below(&mut rng, n_users), below(&mut rng, n_users)))
                .collect()
        })
        .collect()
}

/// `count` trustor ids for `/topk`, all in range.
pub fn topk_users(seed: u64, n_users: usize, count: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(SplitMix64::derive(seed, "perf.topk"));
    (0..count).map(|_| below(&mut rng, n_users)).collect()
}

/// The `POST /score` body for a pair batch.
pub fn score_body(pairs: &[(usize, usize)]) -> String {
    let pairs = pairs
        .iter()
        .map(|&(u, v)| Json::Arr(vec![u.into(), v.into()]))
        .collect();
    Json::obj([("pairs", Json::Arr(pairs))]).to_line()
}

/// Generates `POST /events` batches against running hyperedge counts, so
/// every remove/reweight id is valid when the server applies it in order.
pub struct EventGen {
    rng: SplitMix64,
    n_users: usize,
    /// Live hyperedge counts: `[node level, structure level]`.
    counts: [usize; 2],
    requests: usize,
}

/// Events per `POST /events` request: one of each kind.
pub const EVENTS_PER_REQUEST: usize = 4;

impl EventGen {
    pub fn new(seed: u64, n_users: usize, node_edges: usize, struct_edges: usize) -> EventGen {
        EventGen {
            rng: SplitMix64::new(SplitMix64::derive(seed, "perf.events")),
            n_users,
            counts: [node_edges, struct_edges],
            requests: 0,
        }
    }

    #[cfg(test)]
    pub fn counts(&self) -> [usize; 2] {
        self.counts
    }

    /// The next batch: add, remove, reweight, decay. Requests alternate
    /// between the node and the structure level, so both are exercised
    /// and both counts stay where they started.
    pub fn next_request(&mut self) -> Vec<TrustEvent> {
        let g = self.requests % 2;
        self.requests += 1;
        let group = [HyperGroup::Node, HyperGroup::Structure][g];
        let a = below(&mut self.rng, self.n_users);
        let b = (a + 1 + below(&mut self.rng, self.n_users - 1)) % self.n_users;
        let add = TrustEvent::AddEdge {
            group,
            members: vec![a, b],
            weight: 0.4 + below(&mut self.rng, 100) as f32 / 50.0,
        };
        self.counts[g] += 1;
        let remove = TrustEvent::RemoveEdge {
            group,
            edge: below(&mut self.rng, self.counts[g]),
        };
        self.counts[g] -= 1;
        let reweight = TrustEvent::ReweightEdge {
            group,
            edge: below(&mut self.rng, self.counts[g]),
            weight: 0.3 + below(&mut self.rng, 90) as f32 / 60.0,
        };
        // Close to 1 so hundreds of requests cannot underflow the weights.
        let decay = TrustEvent::Decay {
            factor: 0.97 + below(&mut self.rng, 30) as f32 / 1000.0,
        };
        vec![add, remove, reweight, decay]
    }
}

/// Renders events in the `POST /events` wire form. Weights are widened to
/// `f64` exactly, so the server parses back the very `f32` a mirror
/// applier is given.
pub fn events_body(events: &[TrustEvent]) -> String {
    let entries = events
        .iter()
        .map(|e| match e {
            TrustEvent::AddEdge {
                group,
                members,
                weight,
            } => Json::obj([
                ("op", "add".into()),
                ("group", group.name().into()),
                (
                    "members",
                    Json::Arr(members.iter().map(|&m| m.into()).collect()),
                ),
                ("weight", (*weight).into()),
            ]),
            TrustEvent::RemoveEdge { group, edge } => Json::obj([
                ("op", "remove".into()),
                ("group", group.name().into()),
                ("edge", (*edge).into()),
            ]),
            TrustEvent::ReweightEdge {
                group,
                edge,
                weight,
            } => Json::obj([
                ("op", "reweight".into()),
                ("group", group.name().into()),
                ("edge", (*edge).into()),
                ("weight", (*weight).into()),
            ]),
            TrustEvent::Decay { factor } => {
                Json::obj([("op", "decay".into()), ("factor", (*factor).into())])
            }
        })
        .collect();
    Json::obj([("events", Json::Arr(entries))]).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahntp_stream::parse_events;

    #[test]
    fn request_generators_stay_in_range_and_repeat_per_seed() {
        let batches = pair_batches(7, 50, 40, 8);
        assert_eq!(batches.len(), 40);
        assert!(batches.iter().all(|b| b.len() == 8));
        assert!(batches.iter().flatten().all(|&(u, v)| u < 50 && v < 50));
        assert_eq!(batches, pair_batches(7, 50, 40, 8));
        assert_ne!(batches, pair_batches(8, 50, 40, 8));
        let users = topk_users(7, 50, 100);
        assert!(users.iter().all(|&u| u < 50));
        assert_eq!(users, topk_users(7, 50, 100));
        let body = score_body(&[(1, 2), (3, 4)]);
        assert_eq!(body, r#"{"pairs":[[1,2],[3,4]]}"#);
    }

    #[test]
    fn artifact_rows_are_unit_norm_and_seeded() {
        let a = clustered_artifact(3, 200, 16);
        a.validate().expect("valid artifact");
        for row in a.trustee_head.chunks(16) {
            let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "{norm}");
        }
        let b = clustered_artifact(3, 200, 16);
        assert_eq!(&a.trustor_head[..], &b.trustor_head[..]);
        assert_ne!(
            &a.trustor_head[..],
            &clustered_artifact(4, 200, 16).trustor_head[..]
        );
    }

    #[test]
    fn event_ids_are_valid_against_running_counts() {
        let mut gen = EventGen::new(11, 30, 6, 9);
        let mut counts = [6usize, 9];
        for r in 0..500 {
            let events = gen.next_request();
            assert_eq!(events.len(), EVENTS_PER_REQUEST);
            for e in &events {
                match e {
                    TrustEvent::AddEdge {
                        group,
                        members,
                        weight,
                    } => {
                        assert!(members.len() == 2 && members[0] != members[1]);
                        assert!(members.iter().all(|&m| m < 30));
                        assert!(*weight > 0.0);
                        counts[*group as usize] += 1;
                    }
                    TrustEvent::RemoveEdge { group, edge } => {
                        assert!(*edge < counts[*group as usize], "request {r}");
                        counts[*group as usize] -= 1;
                    }
                    TrustEvent::ReweightEdge {
                        group,
                        edge,
                        weight,
                    } => {
                        assert!(*edge < counts[*group as usize], "request {r}");
                        assert!(*weight > 0.0);
                    }
                    TrustEvent::Decay { factor } => assert!(*factor > 0.9 && *factor <= 1.0),
                }
            }
            assert_eq!(gen.counts(), counts);
        }
        assert_eq!(counts, [6, 9], "adds and removes balance");
    }

    #[test]
    fn events_round_trip_through_the_wire_form_bit_exactly() {
        let mut gen = EventGen::new(5, 40, 10, 10);
        for _ in 0..50 {
            let events = gen.next_request();
            assert_eq!(parse_events(&events_body(&events)).expect("parses"), events);
        }
    }
}
