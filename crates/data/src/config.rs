//! Generator configuration and the Ciao/Epinions calibration presets.

/// Parameters of the synthetic trust-network generator.
///
/// The two presets scale the paper's Table III statistics down to a chosen
/// user count while keeping per-user averages: Epinions (8,935 users,
/// 21,335 items, 220,673 purchases ≈ 24.7/user, 65,948 trust relations ≈
/// 7.4/user) and Ciao (4,104 users, 75,071 items, 171,405 purchases ≈
/// 41.8/user, 41,675 trust relations ≈ 10.2/user).
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Dataset label used in reports ("ciao-like", "epinions-like").
    pub name: String,
    /// Number of users.
    pub n_users: usize,
    /// Number of items in the catalogue.
    pub n_items: usize,
    /// Number of item categories (also the attribute vocabulary base).
    pub n_categories: usize,
    /// Number of latent interest communities.
    pub n_communities: usize,
    /// Mean purchases per user.
    pub purchases_per_user: f64,
    /// Mean outgoing trust relations per user.
    pub trust_per_user: f64,
    /// Probability that a trust edge is drawn inside a shared community
    /// (the homophily signal; the remainder is influence/noise driven).
    pub homophily: f64,
    /// Probability that a trust edge is reciprocated.
    pub reciprocity: f64,
    /// Fraction of trust edges created by triadic closure (trusting a
    /// trusted user's trustee).
    pub triadic_closure: f64,
    /// Preferential-attachment strength for trustee selection (0 = uniform;
    /// 1 = linear in current in-degree).
    pub preferential_attachment: f64,
    /// Number of spurious "noise" attributes: attribute ids that group
    /// random, unrelated users (think shared birth month or city-sized
    /// coincidences). They create hyperedges that carry no trust signal —
    /// the heterogeneity that motivates the paper's adaptive hyperedge
    /// weighting (§I, second limitation).
    pub n_noise_attributes: usize,
    /// Master seed for the whole dataset.
    pub seed: u64,
}

impl DatasetConfig {
    /// A Ciao-like dataset: denser trust network, fewer users, more
    /// purchases per user, higher reciprocity (Ciao is a tighter
    /// product-review community).
    pub fn ciao_like(n_users: usize, seed: u64) -> DatasetConfig {
        DatasetConfig {
            name: "ciao-like".into(),
            n_users,
            // Ciao's catalogue is ~18x its user count; cap the synthetic
            // catalogue so tiny datasets keep several raters per item.
            n_items: (n_users * 6).max(50),
            n_categories: 24,
            n_communities: (n_users / 25).clamp(4, 64),
            purchases_per_user: 41.8,
            trust_per_user: 10.2,
            homophily: 0.78,
            reciprocity: 0.38,
            triadic_closure: 0.30,
            preferential_attachment: 0.8,
            n_noise_attributes: 8,
            seed,
        }
    }

    /// An Epinions-like dataset: larger and sparser, fewer purchases per
    /// user, weaker reciprocity.
    pub fn epinions_like(n_users: usize, seed: u64) -> DatasetConfig {
        DatasetConfig {
            name: "epinions-like".into(),
            n_users,
            n_items: (n_users * 5 / 2).max(50),
            n_categories: 24,
            n_communities: (n_users / 35).clamp(4, 64),
            purchases_per_user: 24.7,
            trust_per_user: 7.4,
            homophily: 0.72,
            reciprocity: 0.25,
            triadic_closure: 0.30,
            preferential_attachment: 1.0,
            n_noise_attributes: 8,
            seed,
        }
    }

    /// Validates parameter ranges, returning a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_users < 10 {
            return Err(format!("need at least 10 users, got {}", self.n_users));
        }
        if self.n_items == 0 || self.n_categories == 0 || self.n_communities == 0 {
            return Err("items, categories and communities must be positive".into());
        }
        for (label, v) in [
            ("homophily", self.homophily),
            ("reciprocity", self.reciprocity),
            ("triadic_closure", self.triadic_closure),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{label} must be in [0, 1], got {v}"));
            }
        }
        if self.preferential_attachment < 0.0 {
            return Err(format!(
                "preferential_attachment must be non-negative, got {}",
                self.preferential_attachment
            ));
        }
        if self.trust_per_user <= 0.0 || self.purchases_per_user <= 0.0 {
            return Err("per-user rates must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        DatasetConfig::ciao_like(500, 1)
            .validate()
            .expect("ciao preset");
        DatasetConfig::epinions_like(500, 1)
            .validate()
            .expect("epinions preset");
    }

    #[test]
    fn presets_follow_table3_ratios() {
        let ciao = DatasetConfig::ciao_like(1000, 1);
        let epi = DatasetConfig::epinions_like(1000, 1);
        // Ciao is the denser trust network and the heavier purchaser.
        assert!(ciao.trust_per_user > epi.trust_per_user);
        assert!(ciao.purchases_per_user > epi.purchases_per_user);
    }

    #[test]
    fn validate_catches_bad_values() {
        let mut c = DatasetConfig::ciao_like(100, 1);
        c.homophily = 1.5;
        assert!(c.validate().is_err());
        let mut c = DatasetConfig::ciao_like(5, 1);
        c.n_users = 5;
        assert!(c.validate().is_err());
        let mut c = DatasetConfig::ciao_like(100, 1);
        c.trust_per_user = 0.0;
        assert!(c.validate().is_err());
    }
}
