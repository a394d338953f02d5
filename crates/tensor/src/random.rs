//! Deterministic random initialisation helpers.
//!
//! Every stochastic component in the reproduction (weight init, dataset
//! generation, negative sampling) is seeded so that experiment tables are
//! bit-reproducible run to run. [`SplitMix64`] is used to derive independent
//! sub-streams from a single experiment seed; the actual sampling goes
//! through `rand`.

use crate::{Shape, Tensor};
use rand::{Rng, SeedableRng};

/// A tiny, fast, well-mixed 64-bit PRNG used purely for *seed derivation*:
/// hashing a parent seed plus a stream label into an independent child seed.
///
/// This is the SplitMix64 generator of Steele, Lea & Flood (OOPSLA'14) — the
/// same one `rand` uses internally to seed other generators.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives an independent child seed for the given stream label.
    /// Identical `(seed, label)` pairs always produce the same child.
    pub fn derive(seed: u64, label: &str) -> u64 {
        let mut g = SplitMix64::new(seed);
        let mut acc = g.next_u64();
        for b in label.bytes() {
            acc ^= u64::from(b);
            let mut h = SplitMix64::new(acc);
            acc = h.next_u64();
        }
        acc
    }
}

/// Glorot/Xavier uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The standard choice for the tanh /
/// linear / attention parameters in the model.
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = (6.0 / (rows + cols) as f32).sqrt();
    let data = (0..rows * cols).map(|_| rng.gen_range(-a..=a)).collect();
    Tensor {
        data,
        shape: Shape::Matrix(rows, cols),
    }
}

/// He/Kaiming normal initialisation: `N(0, sqrt(2 / fan_in))`. The standard
/// choice for the ReLU MLP towers (Eqs. 17–18).
pub fn he_normal(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let std = (2.0 / rows as f32).sqrt();
    // Box–Muller from uniform draws keeps us independent of rand_distr.
    let mut data = Vec::with_capacity(rows * cols);
    while data.len() < rows * cols {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < rows * cols {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor {
        data,
        shape: Shape::Matrix(rows, cols),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_label_sensitive() {
        assert_eq!(
            SplitMix64::derive(42, "weights"),
            SplitMix64::derive(42, "weights")
        );
        assert_ne!(
            SplitMix64::derive(42, "weights"),
            SplitMix64::derive(42, "bias")
        );
        assert_ne!(
            SplitMix64::derive(42, "weights"),
            SplitMix64::derive(43, "weights")
        );
    }

    #[test]
    fn splitmix_sequence_changes() {
        let mut g = SplitMix64::new(0);
        let a = g.next_u64();
        let b = g.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn xavier_respects_bound_and_seed() {
        let t = xavier_uniform(30, 50, 7);
        let a = (6.0f32 / 80.0).sqrt();
        assert!(t.as_slice().iter().all(|&v| v.abs() <= a));
        assert_eq!(t, xavier_uniform(30, 50, 7));
        assert_ne!(t, xavier_uniform(30, 50, 8));
    }

    #[test]
    fn he_normal_has_plausible_moments() {
        let t = he_normal(200, 100, 3);
        let mean = t.mean();
        let var: f32 = t
            .as_slice()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / t.len() as f32;
        let expected_var = 2.0 / 200.0;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!(
            (var - expected_var).abs() < expected_var * 0.2,
            "var {var} vs expected {expected_var}"
        );
    }

    #[test]
    fn he_normal_handles_odd_element_count() {
        let t = he_normal(1, 3, 11);
        assert_eq!(t.len(), 3);
        assert!(t.all_finite());
    }
}
