//! Model configuration and the §V-C ablation variants.

use ahntp_graph::Motif;
use ahntp_nn::AdamConfig;

/// Which components of the model are active — the ablation axis of
/// Table V / Figs. 7–8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AhntpVariant {
    /// The full model.
    Full,
    /// `AHNTP_nompr`: plain PageRank replaces Motif-based PageRank when
    /// building the social-influence hypergroup.
    NoMpr,
    /// `AHNTP_noatt`: standard hypergraph convolution (Eqs. 10–13 only)
    /// replaces the adaptive attention layer.
    NoAttention,
    /// `AHNTP_nocon`: plain cross-entropy replaces the combined
    /// contrastive + cross-entropy objective.
    NoContrastive,
}

impl std::fmt::Display for AhntpVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AhntpVariant::Full => "AHNTP",
            AhntpVariant::NoMpr => "AHNTP_nompr",
            AhntpVariant::NoAttention => "AHNTP_noatt",
            AhntpVariant::NoContrastive => "AHNTP_nocon",
        };
        f.write_str(s)
    }
}

/// Hyperparameters of the AHNTP model. Defaults follow §V-A-4: three
/// hypergraph convolution layers with dimensions 256-128-64, `α = 0.8`,
/// `t = 0.3`, Adam with lr 1e-3 and weight decay 1e-4.
#[derive(Debug, Clone)]
pub struct AhntpConfig {
    /// Output width of each hypergraph convolution layer; the first entry
    /// is also the hypergroup-MLP output width. `[256, 128, 64]` is the
    /// paper's architecture; the length is the depth swept in Figs. 9–10.
    pub conv_dims: Vec<usize>,
    /// Hidden widths of the pairwise towers of Eqs. 17–18 (appended after
    /// the concatenated embedding width).
    pub tower_dims: Vec<usize>,
    /// `K`: neighbours per social-influence hyperedge (Eq. 6).
    pub top_k_influence: usize,
    /// `N`: hop levels in the multi-hop hypergroup (Eq. 9); the Table VI
    /// sweep axis.
    pub multi_hops: usize,
    /// The triangular motif driving Motif-based PageRank. The paper
    /// illustrates its computations with M6 (Fig. 6), the out-fan onto a
    /// mutual pair, which is also the natural "shared trusted friends"
    /// pattern for trust prediction.
    pub motif: Motif,
    /// `α` of Eq. 4: mixing between pairwise and motif adjacency.
    pub alpha: f64,
    /// Contrastive temperature `t` of Eq. 20.
    pub temperature: f32,
    /// `λ₁`: weight of the contrastive term in Eq. 22. (The paper leaves
    /// the values unspecified; 1.0/1.0 keeps both terms at natural scale.)
    pub lambda1: f32,
    /// `λ₂`: weight of the cross-entropy term in Eq. 22.
    pub lambda2: f32,
    /// Weight of the hypergraph smoothness regulariser `R(f)` (Eq. 23).
    pub smoothness_weight: f32,
    /// Which components are active (ablations).
    pub variant: AhntpVariant,
    /// Optimizer settings.
    pub adam: AdamConfig,
    /// Seed for all weight initialisation.
    pub seed: u64,
}

impl Default for AhntpConfig {
    fn default() -> Self {
        AhntpConfig {
            conv_dims: vec![256, 128, 64],
            tower_dims: vec![64, 32],
            top_k_influence: 5,
            multi_hops: 1,
            motif: Motif::M6,
            alpha: 0.8,
            temperature: 0.3,
            lambda1: 1.0,
            lambda2: 1.0,
            smoothness_weight: 1e-3,
            variant: AhntpVariant::Full,
            adam: AdamConfig::default(),
            seed: 2024,
        }
    }
}

impl AhntpConfig {
    /// A smaller architecture (64-32-16, Table VI's second dimension
    /// setting) that trains fast — useful for tests and quick sweeps.
    pub fn small() -> AhntpConfig {
        AhntpConfig {
            conv_dims: vec![64, 32, 16],
            tower_dims: vec![16],
            ..AhntpConfig::default()
        }
    }

    /// The `AHNTP_nompr` ablation.
    pub fn no_mpr(mut self) -> AhntpConfig {
        self.variant = AhntpVariant::NoMpr;
        self
    }

    /// The `AHNTP_noatt` ablation.
    pub fn no_attention(mut self) -> AhntpConfig {
        self.variant = AhntpVariant::NoAttention;
        self
    }

    /// The `AHNTP_nocon` ablation.
    pub fn no_contrastive(mut self) -> AhntpConfig {
        self.variant = AhntpVariant::NoContrastive;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.conv_dims.is_empty() {
            return Err("conv_dims must not be empty".into());
        }
        if self.conv_dims.contains(&0) || self.tower_dims.contains(&0) {
            return Err("layer widths must be positive".into());
        }
        if self.top_k_influence == 0 {
            return Err("top_k_influence must be positive".into());
        }
        if self.multi_hops == 0 {
            return Err("multi_hops must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha must be in [0, 1], got {}", self.alpha));
        }
        if self.temperature <= 0.0 {
            return Err(format!(
                "temperature must be positive, got {}",
                self.temperature
            ));
        }
        if self.lambda1 < 0.0 || self.lambda2 < 0.0 || self.smoothness_weight < 0.0 {
            return Err("loss weights must be non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = AhntpConfig::default();
        c.validate().expect("default config is valid");
        assert_eq!(c.conv_dims, vec![256, 128, 64]);
        assert!((c.alpha - 0.8).abs() < 1e-12);
        assert!((c.temperature - 0.3).abs() < 1e-12);
        assert!((c.adam.lr - 1e-3).abs() < 1e-12);
        assert!((c.adam.weight_decay - 1e-4).abs() < 1e-12);
        assert_eq!(c.variant, AhntpVariant::Full);
    }

    #[test]
    fn ablation_builders_set_variants() {
        assert_eq!(AhntpConfig::default().no_mpr().variant, AhntpVariant::NoMpr);
        assert_eq!(
            AhntpConfig::default().no_attention().variant,
            AhntpVariant::NoAttention
        );
        assert_eq!(
            AhntpConfig::default().no_contrastive().variant,
            AhntpVariant::NoContrastive
        );
    }

    #[test]
    fn variant_names_match_the_paper() {
        assert_eq!(AhntpVariant::Full.to_string(), "AHNTP");
        assert_eq!(AhntpVariant::NoMpr.to_string(), "AHNTP_nompr");
        assert_eq!(AhntpVariant::NoAttention.to_string(), "AHNTP_noatt");
        assert_eq!(AhntpVariant::NoContrastive.to_string(), "AHNTP_nocon");
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = AhntpConfig::default();
        c.conv_dims.clear();
        assert!(c.validate().is_err());
        let c = AhntpConfig {
            alpha: 1.2,
            ..AhntpConfig::default()
        };
        assert!(c.validate().is_err());
        let c = AhntpConfig {
            temperature: -0.1,
            ..AhntpConfig::default()
        };
        assert!(c.validate().is_err());
        let c = AhntpConfig {
            multi_hops: 0,
            ..AhntpConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
