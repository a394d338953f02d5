//! The streaming exactness harness: the defining invariant of the live
//! trust path, end to end through the public API.
//!
//! A trained model absorbs 120 mixed mutation events (hyperedge adds,
//! removes, reweights, and decays on both hypergraph levels); after each
//! event the delta-maintained head refresh is patched into an artifact,
//! and the patched artifact must be bitwise equal to a from-scratch
//! rebuild of the mutated structure. The whole run must also be bitwise
//! identical at 1 and 4 kernel threads (the deterministic-kernel
//! contract of `ahntp-par`).
//!
//! A second test feeds the same stream the way the server ingests it:
//! `EventApplier::apply_batch` in 4-event batches under `immediate()`,
//! one refresh per batch. The artifact must stay on the rebuild oracle
//! after every batch and end bitwise equal to the per-event artifact.
//!
//! A third test lets the same stream age under a *batched* staleness
//! bound: rows go stale between refreshes, and once the last patch is
//! folded in the artifact must land on the same rebuild oracle.
//!
//! A fourth test guards what the model reports: across every 4-event
//! batch, the rebuilt rows of users outside the union of the batch's
//! affected sets must not move by a bit.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_eval::TrustModel;
use ahntp_nn::TrustArtifact;
use ahntp_stream::{EventApplier, HyperGroup, LiveTrustModel, StalenessBound, TrustEvent};
use std::collections::BTreeSet;

const N_USERS: usize = 70;
const N_EVENTS: usize = 120;

fn trained_model() -> Ahntp {
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

/// Deterministic LCG so the event stream is identical across runs and
/// thread counts.
fn lcg(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

/// The mixed event stream: mostly adds, with removes, reweights, and
/// decays interleaved on both hypergraph levels. Generated against the
/// running edge counts so every structural id is valid at apply time.
fn event_stream(n_node: usize, n_struct: usize) -> Vec<TrustEvent> {
    let mut counts = [n_node, n_struct];
    let mut rng: u64 = 0x5eed_2024;
    let mut events = Vec::with_capacity(N_EVENTS);
    for i in 0..N_EVENTS {
        let g = i % 2;
        let group = if g == 0 {
            HyperGroup::Node
        } else {
            HyperGroup::Structure
        };
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
                if lcg(&mut rng).is_multiple_of(2) {
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

/// Folds `patch` into the flat head matrices of `artifact`.
fn apply_patch(artifact: &mut TrustArtifact, patch: &ahntp_stream::HeadPatch) {
    patch.check().expect("well-formed patch");
    for (k, &u) in patch.users.iter().enumerate() {
        let (ed, hd) = (patch.emb_dim, patch.head_dim);
        artifact.embeddings.to_mut()[u * ed..(u + 1) * ed]
            .copy_from_slice(&patch.emb_rows[k * ed..(k + 1) * ed]);
        artifact.trustor_head.to_mut()[u * hd..(u + 1) * hd]
            .copy_from_slice(&patch.trustor_rows[k * hd..(k + 1) * hd]);
        artifact.trustee_head.to_mut()[u * hd..(u + 1) * hd]
            .copy_from_slice(&patch.trustee_rows[k * hd..(k + 1) * hd]);
    }
}

/// Runs the full event sequence at a given thread count, checking the
/// patched artifact against the rebuild oracle after every event.
fn run_sequence(threads: usize) -> TrustArtifact {
    ahntp_par::with_pool(threads, ahntp_par::DEFAULT_PAR_THRESHOLD, || {
        sequence(threads)
    })
}

fn sequence(threads: usize) -> TrustArtifact {
    let mut model = trained_model();
    let mut artifact = Ahntp::export_artifact(&model);
    let (n_node, n_struct) = model.hyperedge_counts();
    let events = event_stream(n_node, n_struct);
    let mut ops = [0usize; 4];
    for (i, event) in events.iter().enumerate() {
        ops[match event.op() {
            "add" => 0,
            "remove" => 1,
            "reweight" => 2,
            _ => 3,
        }] += 1;
        let applied = model
            .apply_event(event)
            .unwrap_or_else(|e| panic!("event {i} ({}) rejected: {e}", event.op()));
        let patch = model.refresh_heads(&applied.affected_users);
        apply_patch(&mut artifact, &patch);
        let oracle = model.rebuild_artifact();
        assert_artifacts_bitwise(
            &artifact,
            &oracle,
            &format!("event {i} ({}) at {threads} threads", event.op()),
        );
    }
    // The stream genuinely mixed every operation.
    assert!(events.len() >= 100, "only {} events", events.len());
    for (op, n) in ["add", "remove", "reweight", "decay"].iter().zip(&ops) {
        assert!(*n > 0, "stream never exercised {op}");
    }
    artifact
}

fn assert_artifacts_bitwise(a: &TrustArtifact, b: &TrustArtifact, what: &str) {
    for (name, a, b) in [
        ("embeddings", &a.embeddings, &b.embeddings),
        ("trustor_head", &a.trustor_head, &b.trustor_head),
        ("trustee_head", &a.trustee_head, &b.trustee_head),
    ] {
        assert_eq!(a.len(), b.len(), "{what}: {name} length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name}[{i}] {x} vs {y}");
        }
    }
}

#[test]
fn mixed_event_stream_lands_bitwise_on_the_rebuild_oracle() {
    let serial = run_sequence(1);
    let parallel = run_sequence(4);
    // Same events, same bits: the delta path is thread-invariant.
    assert_artifacts_bitwise(&serial, &parallel, "1 vs 4 threads");
}

/// Events per `apply_batch` call: a `serve_live` request's size.
const BATCH_LEN: usize = 4;

/// The stream through `apply_batch` under `immediate()`, checked against
/// the rebuild oracle after every batch; returns the artifact and how
/// many refreshes produced a patch.
fn run_batches(threads: usize) -> (TrustArtifact, usize) {
    ahntp_par::with_pool(threads, ahntp_par::DEFAULT_PAR_THRESHOLD, || {
        let model = trained_model();
        let mut artifact = Ahntp::export_artifact(&model);
        let (n_node, n_struct) = model.hyperedge_counts();
        let mut applier = EventApplier::new(model, StalenessBound::immediate());
        let mut refreshes = 0usize;
        for (k, chunk) in event_stream(n_node, n_struct).chunks(BATCH_LEN).enumerate() {
            let batch = applier.apply_batch(chunk);
            assert!(batch.error.is_none(), "batch {k}: {:?}", batch.error);
            assert_eq!(batch.applied, chunk.len(), "batch {k}");
            if let Some(patch) = &batch.patch {
                apply_patch(&mut artifact, patch);
                refreshes += 1;
            }
            assert!(
                applier.dirty_users().is_empty(),
                "batch {k} left rows dirty"
            );
            assert_artifacts_bitwise(
                &artifact,
                &applier.model().rebuild_artifact(),
                &format!("batch {k} at {threads} threads"),
            );
        }
        (artifact, refreshes)
    })
}

#[test]
fn batches_refresh_once_each_and_land_bitwise_on_the_per_event_artifact() {
    let per_event = run_sequence(1);
    for threads in [1, 4] {
        let (batched, refreshes) = run_batches(threads);
        // Every 4-event window of the stream holds an add, so each batch
        // refreshes exactly once.
        assert_eq!(
            refreshes,
            N_EVENTS / BATCH_LEN,
            "refreshes at {threads} threads"
        );
        assert_artifacts_bitwise(
            &batched,
            &per_event,
            &format!("4-event batches at {threads} threads vs per-event"),
        );
    }
}

#[test]
fn a_batched_staleness_bound_converges_to_the_rebuild_oracle() {
    const BATCH: usize = 32;
    let model = trained_model();
    let mut artifact = Ahntp::export_artifact(&model);
    let (n_node, n_struct) = model.hyperedge_counts();
    let mut applier = EventApplier::new(model, StalenessBound::batched(BATCH));
    let mut patches = 0usize;
    for (i, event) in event_stream(n_node, n_struct).iter().enumerate() {
        applier
            .apply(event)
            .unwrap_or_else(|e| panic!("event {i} ({}) rejected: {e}", event.op()));
        if let Some(patch) = applier.maybe_refresh().expect("no faults armed") {
            apply_patch(&mut artifact, &patch);
            patches += 1;
        }
    }
    // Whatever the bound left dirty is flushed by the final refresh; without
    // this fold the rows touched since the last batch stay stale.
    if let Some(patch) = applier.force_refresh().expect("no faults armed") {
        apply_patch(&mut artifact, &patch);
        patches += 1;
    }
    assert_artifacts_bitwise(
        &artifact,
        &applier.model().rebuild_artifact(),
        "batched bound after the final refresh",
    );
    // The bound really batched: one refresh each time a pending event
    // exceeds it, plus the flush.
    assert_eq!(
        patches,
        N_EVENTS / (BATCH + 1) + 1,
        "patches for {N_EVENTS} events"
    );
}

/// User `u`'s rows of `a`: embedding, trustor head, trustee head.
fn user_rows(a: &TrustArtifact, u: usize) -> [&[f32]; 3] {
    let (ed, hd) = (a.emb_dim, a.head_dim);
    [
        &a.embeddings[u * ed..(u + 1) * ed],
        &a.trustor_head[u * hd..(u + 1) * hd],
        &a.trustee_head[u * hd..(u + 1) * hd],
    ]
}

#[test]
fn rows_outside_the_reported_affected_sets_never_move() {
    let mut model = trained_model();
    let (n_node, n_struct) = model.hyperedge_counts();
    let mut before = model.rebuild_artifact();
    let mut untouched_rows = 0usize;
    for (k, chunk) in event_stream(n_node, n_struct).chunks(BATCH_LEN).enumerate() {
        let mut affected = BTreeSet::new();
        for event in chunk {
            let applied = model.apply_event(event).expect("valid event");
            affected.extend(applied.affected_users);
        }
        let users: Vec<usize> = affected.iter().copied().collect();
        model.refresh_heads(&users);
        let after = model.rebuild_artifact();
        for u in (0..N_USERS).filter(|u| !affected.contains(u)) {
            let names = ["embeddings", "trustor_head", "trustee_head"];
            let rows = user_rows(&before, u).into_iter().zip(user_rows(&after, u));
            for (name, (a, b)) in names.iter().zip(rows) {
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "batch {k}: user {u} is outside the affected sets but its {name} row moved"
                );
            }
            untouched_rows += 1;
        }
        let what = format!("batch {k}");
        assert_artifacts_bitwise(&Ahntp::export_artifact(&model), &after, &what);
        before = after;
    }
    // The guard is not vacuous: batches leave some users out.
    assert!(untouched_rows > 0, "every batch affected every user");
}
