//! The scoring contract, property-tested: the panel scan is bitwise equal
//! to the seed's scalar loop, kept here as the oracle (before and after a
//! live patch), the bound-pruned walk over a grouped trustee head answers
//! that oracle bitwise too, and the defended blend is bitwise that oracle
//! blended with the prior.

use ahntp_nn::TrustArtifact;
use ahntp_serve::{DefensePrior, TrustIndex};
use ahntp_stream::HeadPatch;
use proptest::prelude::*;
use proptest::TestRng;

/// Random (unnormalised is fine — the index never assumes norms) artifact
/// driven by one seed, so proptest shrinking/reporting stays one number.
fn random_artifact(seed: u64, n_users: usize, head_dim: usize) -> TrustArtifact {
    let mut rng = TestRng::from_label(&format!("backend-exactness-{seed}"));
    let mut row = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
            .collect()
    };
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: seed,
        calibration: 0.5,
        n_users,
        emb_dim: 1,
        head_dim,
        embeddings: vec![0.0; n_users].into(),
        trustor_head: row(n_users * head_dim).into(),
        trustee_head: row(n_users * head_dim).into(),
    }
}

/// Every (trustor, trustee) pair of the index, in row-major order.
fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn ranked_bits(list: Vec<(usize, f32)>) -> Vec<(usize, u32)> {
    list.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
}

/// The seed's exact arithmetic, kept as the oracle: one scalar dot per
/// pair over the row-major heads, the calibrated sigmoid, and an
/// exhaustive ranking — raw dot desc then id asc picks the `k`, and the
/// served (score desc, id asc) order sorts them.
struct Oracle<'a>(&'a TrustArtifact);

impl Oracle<'_> {
    fn dot(&self, u: usize, v: usize) -> f32 {
        let (a, d) = (self.0, self.0.head_dim);
        a.trustor_head[u * d..(u + 1) * d]
            .iter()
            .zip(&a.trustee_head[v * d..(v + 1) * d])
            .map(|(a, b)| a * b)
            .sum()
    }

    fn score(&self, u: usize, v: usize) -> f32 {
        1.0 / (1.0 + (-self.dot(u, v) / self.0.calibration).exp())
    }

    fn top_k_in(&self, u: usize, k: usize, lo: usize, hi: usize) -> Vec<(usize, u32)> {
        let mut ranked: Vec<(usize, f32)> = (lo..hi)
            .filter(|&v| v != u)
            .map(|v| (v, self.dot(u, v)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        let mut out: Vec<(usize, f32)> = ranked
            .into_iter()
            .map(|(v, _)| (v, self.score(u, v)))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked_bits(out)
    }
}

/// Users enough for the trustee head to split into two groups (one per
/// 384 users).
const GROUPED: std::ops::Range<usize> = 770..1000;

/// A head shape for the grouped walk, with the trustor rows it is
/// queried by.
#[derive(Debug, Clone, Copy)]
enum Head {
    /// Rows scattered around a few directions.
    Clustered,
    /// Rows uniform in the cube: no structure to prune by.
    Uniform,
    /// Exact copies of two rows sharing their first element, ids
    /// interleaved, queried by `e₀` among others: each row is a group of
    /// radius 0 whose bound is exactly every member's score, all scores
    /// tie, and a walk that skipped a group tying the heap's `k`-th score
    /// would drop ids the tie-break wants.
    Duplicates,
    /// One row for everyone: k-means finds one group.
    AllEqual,
}

/// An `n`-user artifact of shape `head`, driven by one seed.
fn grouped_artifact(seed: u64, head: Head, n: usize, d: usize) -> TrustArtifact {
    let mut rng = TestRng::from_label(&format!("backend-grouped-{seed}"));
    let mut signed = || (rng.next_f64() * 2.0 - 1.0) as f32;
    let distinct: Vec<Vec<f32>> = (0..6)
        .map(|_| {
            (0..d)
                .map(|j| if j == 0 { 1.0 } else { signed() })
                .collect()
        })
        .collect();
    let trustee: Vec<f32> = (0..n)
        .flat_map(|v| -> Vec<f32> {
            match head {
                Head::Clustered => distinct[v % 6]
                    .iter()
                    .map(|c| c * 2.0 + 0.2 * signed())
                    .collect(),
                Head::Uniform => (0..d).map(|_| signed()).collect(),
                // Rows 0 and n/2, where k-means seeds its two centres,
                // hold different rows.
                Head::Duplicates => distinct[if v < n / 2 {
                    v % 2
                } else {
                    (v - n / 2 + 1) % 2
                }]
                .clone(),
                Head::AllEqual => distinct[0].clone(),
            }
        })
        .collect();
    let trustor: Vec<f32> = (0..n)
        .flat_map(|u| -> Vec<f32> {
            if u % 3 == 0 {
                (0..d).map(|j| f32::from(j == 0)).collect()
            } else {
                (0..d).map(|_| signed()).collect()
            }
        })
        .collect();
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: seed,
        calibration: 0.5,
        n_users: n,
        emb_dim: 1,
        head_dim: d,
        embeddings: vec![0.0; n].into(),
        trustor_head: trustor.into(),
        trustee_head: trustee.into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `exact`'s whole visible surface — every pair's score, every
    /// user's top-k, and shard-range top-k at random `lo..hi` that cut
    /// through panels — is bitwise the scalar oracle, then again after a
    /// live patch rewrites one panel row and one tail row.
    /// `n` spans zero to four full 16-user panels plus a ragged tail.
    #[test]
    fn exact_is_bitwise_equal_to_the_scalar_oracle(seed in 0u64..1_000_000, n in 2usize..80, d in 1usize..19) {
        let mut artifact = random_artifact(seed, n, d);
        let mut index = TrustIndex::from_artifact(artifact.clone()).unwrap();
        let pairs = all_pairs(n);
        let k = (n / 2).max(1);
        let mut rng = TestRng::from_label(&format!("backend-oracle-{seed}"));
        let ranges: Vec<(usize, usize)> = (0..4)
            .map(|_| {
                let (a, b) = (rng.below(n + 1), rng.below(n + 1));
                (a.min(b), a.max(b))
            })
            .collect();
        // A row inside the first panel (when there is one) and the last
        // row, which is a tail row unless `n` is a multiple of 16.
        let patched: Vec<usize> = if n >= 16 { vec![seed as usize % 15, n - 1] } else { vec![n - 1] };

        for round in ["built", "patched"] {
            if round == "patched" {
                let mut patch = HeadPatch::empty(1, d);
                for &u in &patched {
                    let row: Vec<f32> = (0..d).map(|_| (rng.next_f64() * 2.0 - 1.0) as f32).collect();
                    artifact.trustor_head.to_mut()[u * d..(u + 1) * d].copy_from_slice(&row);
                    artifact.trustee_head.to_mut()[u * d..(u + 1) * d].copy_from_slice(&row);
                    patch.users.push(u);
                    patch.emb_rows.push(0.0);
                    patch.trustor_rows.extend(&row);
                    patch.trustee_rows.extend(&row);
                }
                index.apply_head_patch(&patch).unwrap();
            }
            let oracle = Oracle(&artifact);
            let want_scores: Vec<u32> = pairs.iter().map(|&(u, v)| oracle.score(u, v).to_bits()).collect();
            prop_assert_eq!(
                bits(&index.score_pairs(&pairs).unwrap()), want_scores,
                "{} score_pairs", round
            );
            for u in 0..n {
                prop_assert_eq!(
                    ranked_bits(index.top_k_trustees(u, k).unwrap()), oracle.top_k_in(u, k, 0, n),
                    "{} top_k({})", round, u
                );
            }
            for &(lo, hi) in &ranges {
                let u = (lo + hi) % n;
                prop_assert_eq!(
                    ranked_bits(index.top_k_trustees_in(u, k, lo, hi).unwrap()),
                    oracle.top_k_in(u, k, lo, hi),
                    "{} top_k_in({}, {}..{})", round, u, lo, hi
                );
            }
        }
    }

    /// The defended (PPR-blended) path is bitwise the oracle blended:
    /// every pair score is `(1 − α) · score + α · prior[trustee]`, and the
    /// defended top-k ranks every candidate by that blend — a dot-ordered
    /// pre-ranking is not a valid filter once the prior reweights
    /// candidates — under the same (score desc, id asc) order.
    #[test]
    fn defended_blend_preserves_each_backend_contract(
        seed in 0u64..1_000_000,
        n in 2usize..26,
        d in 1usize..16,
    ) {
        let artifact = random_artifact(seed.wrapping_add(131), n, d);
        let mut rng = TestRng::from_label(&format!("backend-defense-{seed}"));
        let alpha = (0.05 + rng.next_f64() * 0.9) as f32;
        let trust: Vec<f32> = (0..n).map(|_| rng.next_f64() as f32).collect();
        let prior = DefensePrior::new(alpha, trust.clone()).unwrap();
        let index = TrustIndex::from_artifact(artifact.clone())
            .unwrap()
            .with_defense(prior)
            .unwrap();
        let oracle = Oracle(&artifact);
        let blend = |u: usize, v: usize| (1.0 - alpha) * oracle.score(u, v) + alpha * trust[v];

        let pairs = all_pairs(n);
        let want: Vec<u32> = pairs.iter().map(|&(u, v)| blend(u, v).to_bits()).collect();
        prop_assert_eq!(bits(&index.score_pairs(&pairs).unwrap()), want);

        let k = (n / 2).max(1);
        for u in 0..n {
            let mut ranked: Vec<(usize, f32)> =
                (0..n).filter(|&v| v != u).map(|v| (v, blend(u, v))).collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(k);
            prop_assert_eq!(
                ranked_bits(index.top_k_trustees(u, k).unwrap()),
                ranked_bits(ranked),
                "defended top_k({})", u
            );
        }
    }

    /// The walk over an explicitly grouped head is bitwise the scalar
    /// oracle for every head shape, every `k` from 0 past `n`, random,
    /// empty, inverted and past-`n` ranges, and the defended blend; then
    /// again after live patches move rows to the far side of their group
    /// (the trustee row negated) and point a trustor at each moved row, so
    /// a group whose radius did not grow with the patch would be skipped
    /// wrongly.
    #[test]
    fn the_grouped_walk_is_bitwise_equal_to_the_scalar_oracle(
        seed in 0u64..1_000_000,
        head in 0usize..4,
        n in GROUPED,
        d in 1usize..9,
    ) {
        let head = [Head::Clustered, Head::Uniform, Head::Duplicates, Head::AllEqual][head];
        let base = grouped_artifact(seed, head, n, d);
        let mut rng = TestRng::from_label(&format!("backend-grouped-oracle-{seed}"));
        let mut trustors: Vec<usize> = (0..6).map(|_| rng.below(n)).chain([0, 3, n - 1]).collect();
        let mut ranges: Vec<(usize, usize)> = (0..3)
            .map(|_| {
                let (a, b) = (rng.below(n + 1), rng.below(n + 1));
                (a.min(b), a.max(b))
            })
            .collect();
        ranges.extend([(n / 2, n / 2), (n / 2, n / 3), (n - 5, n + 40), (n + 3, n + 9)]);
        let ks = [0, 1, 10, n - 1, n, n + 5];
        let alpha = (0.05 + rng.next_f64() * 0.9) as f32;
        let prior: Vec<f32> = (0..n).map(|_| rng.next_f64() as f32).collect();

        // Each moved user `v`'s trustee row flips to the far side of its
        // group, and trustor `v + 1` points straight at it.
        let mut patched = base.clone();
        let mut patch = HeadPatch::empty(1, d);
        let mut moved = Vec::new();
        while moved.len() < 3 {
            let v = rng.below(n - 1);
            if moved.iter().any(|&m: &usize| m.abs_diff(v) < 2) {
                continue;
            }
            moved.push(v);
            let far: Vec<f32> = base.trustee_head[v * d..(v + 1) * d].iter().map(|x| -x).collect();
            let next = &base.trustee_head[(v + 1) * d..(v + 2) * d];
            for (u, trustor_row, trustee_row) in [
                (v, &base.trustor_head[v * d..(v + 1) * d], &far[..]),
                (v + 1, &far[..], next),
            ] {
                patched.trustor_head.to_mut()[u * d..(u + 1) * d].copy_from_slice(trustor_row);
                patched.trustee_head.to_mut()[u * d..(u + 1) * d].copy_from_slice(trustee_row);
                patch.users.push(u);
                patch.emb_rows.push(0.0);
                patch.trustor_rows.extend(trustor_row);
                patch.trustee_rows.extend(trustee_row);
            }
            trustors.push(v + 1);
        }

        for (round, artifact, live) in [("built", &base, None), ("patched", &patched, Some(&patch))] {
            let oracle = Oracle(artifact);
            let mut index = TrustIndex::from_artifact(base.clone()).unwrap();
            index.group_trustees();
            if let Some(patch) = live {
                index.apply_head_patch(patch).unwrap();
            }
            for &u in &trustors {
                for &k in &ks {
                    prop_assert_eq!(
                        ranked_bits(index.top_k_trustees(u, k).unwrap()),
                        oracle.top_k_in(u, k, 0, n),
                        "{:?} {} top_k({}, {})", head, round, u, k
                    );
                    for &(lo, hi) in &ranges {
                        let want = if lo >= hi.min(n) {
                            Vec::new()
                        } else {
                            oracle.top_k_in(u, k, lo, hi.min(n))
                        };
                        prop_assert_eq!(
                            ranked_bits(index.top_k_trustees_in(u, k, lo, hi).unwrap()),
                            want,
                            "{:?} {} top_k_in({}, {}, {}..{})",
                            head, round, u, k, lo, hi
                        );
                    }
                }
            }
            let defended = index
                .with_defense(DefensePrior::new(alpha, prior.clone()).unwrap())
                .unwrap();
            let blend = |u: usize, v: usize| (1.0 - alpha) * oracle.score(u, v) + alpha * prior[v];
            for &u in &trustors[..3] {
                let mut ranked: Vec<(usize, f32)> =
                    (0..n).filter(|&v| v != u).map(|v| (v, blend(u, v))).collect();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                ranked.truncate(10);
                prop_assert_eq!(
                    ranked_bits(defended.top_k_trustees(u, 10).unwrap()),
                    ranked_bits(ranked),
                    "{:?} {} defended top_k({})", head, round, u
                );
            }
        }
    }
}
