//! The scoring contract, property-tested: the panel scan is bitwise equal
//! to the seed's scalar loop, kept here as the oracle (at 1 and 4 kernel
//! threads, before and after a live patch), and the defended blend is
//! bitwise that oracle blended with the prior.

use ahntp_nn::TrustArtifact;
use ahntp_serve::{DefensePrior, TrustIndex};
use ahntp_stream::HeadPatch;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use proptest::TestRng;

/// Random (unnormalised is fine — the index never assumes norms) artifact
/// driven by one seed, so proptest shrinking/reporting stays one number.
fn random_artifact(seed: u64, n_users: usize, head_dim: usize) -> TrustArtifact {
    let mut rng = TestRng::from_label(&format!("backend-exactness-{seed}"));
    let mut row = |len: usize| -> Vec<f32> {
        (0..len).map(|_| (rng.next_f64() * 2.0 - 1.0) as f32).collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `exact`'s whole visible surface — every pair's score, every
    /// user's top-k, and shard-range top-k at random `lo..hi` that cut
    /// through panels — is bitwise the scalar oracle, with the
    /// `ahntp-par` pool at 1 and 4 threads and banding forced on, then
    /// again after a live patch rewrites one panel row and one tail row.
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
            for threads in [1usize, 4] {
                ahntp_par::with_pool(threads, 0, || -> Result<(), TestCaseError> {
                    prop_assert_eq!(
                        bits(&index.score_pairs(&pairs).unwrap()), want_scores,
                        "{} score_pairs at {} threads", round, threads
                    );
                    for u in 0..n {
                        prop_assert_eq!(
                            ranked_bits(index.top_k_trustees(u, k).unwrap()), oracle.top_k_in(u, k, 0, n),
                            "{} top_k({}) at {} threads", round, u, threads
                        );
                    }
                    for &(lo, hi) in &ranges {
                        let u = (lo + hi) % n;
                        prop_assert_eq!(
                            ranked_bits(index.top_k_trustees_in(u, k, lo, hi).unwrap()),
                            oracle.top_k_in(u, k, lo, hi),
                            "{} top_k_in({}, {}..{}) at {} threads", round, u, lo, hi, threads
                        );
                    }
                    Ok(())
                })?;
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
}
