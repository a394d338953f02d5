//! Sybil attack scenarios: dense fake clusters wired into a host dataset.
//!
//! [`inject_sybil`] appends a budget-controlled Sybil region to a
//! generated [`TrustDataset`]: `n_clusters` dense fake clusters of
//! colluding reviewers, connected to the honest host graph through a
//! configurable number of *attack edges*. The attack surfaces at both
//! hypergraph levels the models consume:
//!
//! * **structural** — the dense intra-cluster trust edges (plus the
//!   attack edges) flow into the pairwise / social-influence / multi-hop
//!   hypergroups, exactly like organic edges would;
//! * **attribute** — every cluster shares fresh *colluding attribute
//!   ids* (one hyperedge spanning the whole cluster per id), and each
//!   Sybil also copies the attribute list and feature row of a random
//!   honest template user, so nothing in the feature space gives the
//!   fakes away.
//!
//! The injection is seed-deterministic (all randomness derives from
//! `SybilConfig::seed` via `SplitMix64`) and labels the result: honest
//! node ids, Sybil node ids, per-cluster membership, and the attack-edge
//! list — which is what the personalized-PageRank bound
//! (`ahntp_graph::sybil_mass_bound`) is stated in terms of.
//!
//! Mirroring the `sample_edges` ratio-1.0 contract, a configuration that
//! produces **zero Sybils** (`sybil_fraction = 0`) returns the host
//! dataset bitwise unchanged without constructing an RNG.

use crate::{LabeledPair, TrustDataset};
use ahntp_graph::DiGraph;
use ahntp_tensor::{SplitMix64, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Parameters of a Sybil injection scenario.
#[derive(Debug, Clone, Copy)]
pub struct SybilConfig {
    /// Sybil nodes as a fraction of the host user count (rounded).
    /// `0.0` is the identity: the host dataset comes back bitwise
    /// unchanged and no RNG is constructed.
    pub sybil_fraction: f64,
    /// Number of dense fake clusters the Sybil nodes are split into
    /// (near-equal contiguous chunks; clusters that would be empty are
    /// dropped).
    pub n_clusters: usize,
    /// Attack-edge budget: the number of distinct honest → Sybil trust
    /// edges wired across the boundary. Each attack edge is
    /// reciprocated (the Sybil follows back) for camouflage; the bound
    /// and the returned [`SybilInjection::attack_edges`] count only the
    /// honest → Sybil direction, which is what carries PPR mass in. The
    /// budget may exceed the Sybil count — targets then receive several
    /// attack edges each — and is capped at the number of distinct
    /// cross pairs.
    pub attack_edges: usize,
    /// Probability of a directed edge between two distinct Sybils of the
    /// same cluster. A deterministic intra-cluster ring is always added
    /// on top, so clusters are internally connected at any density.
    pub intra_density: f64,
    /// Fresh colluding attribute ids shared by every member of a
    /// cluster (each becomes one cluster-spanning hyperedge in the
    /// attribute hypergroup).
    pub colluding_attributes: usize,
    /// Seed all injection randomness derives from.
    pub seed: u64,
}

impl Default for SybilConfig {
    fn default() -> SybilConfig {
        SybilConfig {
            sybil_fraction: 0.10,
            n_clusters: 2,
            attack_edges: 8,
            intra_density: 0.8,
            colluding_attributes: 2,
            seed: 0,
        }
    }
}

impl SybilConfig {
    /// Checks the knobs are usable.
    ///
    /// # Errors
    ///
    /// Describes the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.sybil_fraction >= 0.0 && self.sybil_fraction.is_finite()) {
            return Err(format!(
                "sybil_fraction must be finite and >= 0, got {}",
                self.sybil_fraction
            ));
        }
        if self.n_clusters == 0 {
            return Err("n_clusters must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.intra_density) {
            return Err(format!(
                "intra_density must be in [0, 1], got {}",
                self.intra_density
            ));
        }
        Ok(())
    }
}

/// Two matched probe sets for measuring score inflation: honest trustors
/// paired with Sybil targets vs. the same trustors paired with honest
/// targets. Both sides are non-edges (label `false`), so any score gap
/// between them is pure inflation, not memorised training edges.
#[derive(Debug, Clone)]
pub struct SybilProbes {
    /// `(honest trustor, Sybil trustee)` non-edge pairs.
    pub sybil: Vec<LabeledPair>,
    /// `(honest trustor, honest trustee)` non-edge control pairs drawn
    /// from the same trustor pool.
    pub honest: Vec<LabeledPair>,
}

/// A host dataset with an injected, fully labelled Sybil region.
#[derive(Debug, Clone)]
pub struct SybilInjection {
    /// Host + Sybil region as one dataset (`name` gains a `+sybil`
    /// suffix; host node ids are unchanged, Sybils occupy
    /// `n_host..n_total`).
    pub dataset: TrustDataset,
    /// Honest node ids (`0..n_host`) — the PPR seed set.
    pub honest: Vec<usize>,
    /// Sybil node ids (`n_host..n_total`).
    pub sybil: Vec<usize>,
    /// Sybil node ids per cluster (non-empty clusters only).
    pub clusters: Vec<Vec<usize>>,
    /// The honest → Sybil attack edges actually wired (≤ the budget only
    /// when the budget exceeds the number of distinct cross pairs).
    pub attack_edges: Vec<(usize, usize)>,
}

impl SybilInjection {
    /// Draws `per_side` Sybil probes and `per_side` honest control
    /// probes (see [`SybilProbes`]). Trustors come from the honest
    /// endpoints of the attack edges — the users the attacker has
    /// already courted, where learned inflation concentrates — falling
    /// back to arbitrary honest users when there are no attack edges.
    /// Deterministic in `(self, seed)`; both sides may come back shorter
    /// than `per_side` on tiny graphs where distinct non-edges run out.
    pub fn probe_pairs(&self, per_side: usize, seed: u64) -> SybilProbes {
        let mut rng = StdRng::seed_from_u64(SplitMix64::derive(seed, "sybil.probes"));
        let mut trustors: Vec<usize> = self.attack_edges.iter().map(|&(h, _)| h).collect();
        trustors.sort_unstable();
        trustors.dedup();
        if trustors.is_empty() {
            trustors = self.honest.clone();
        }
        let g = &self.dataset.graph;
        let draw = |targets: &[usize], rng: &mut StdRng| -> Vec<LabeledPair> {
            let mut out = Vec::with_capacity(per_side);
            let mut used = HashSet::new();
            let mut guard = 0usize;
            while out.len() < per_side && guard < per_side * 200 && !targets.is_empty() {
                guard += 1;
                let u = trustors[rng.gen_range(0..trustors.len())];
                let v = targets[rng.gen_range(0..targets.len())];
                if u == v || g.has_edge(u, v) || !used.insert((u, v)) {
                    continue;
                }
                out.push(LabeledPair {
                    trustor: u,
                    trustee: v,
                    label: false,
                });
            }
            out
        };
        SybilProbes {
            sybil: draw(&self.sybil, &mut rng),
            honest: draw(&self.honest, &mut rng),
        }
    }
}

/// Appends a Sybil region to `host` per `cfg` (module docs describe the
/// attack model). When the configured fraction rounds to zero Sybils the
/// host comes back bitwise unchanged — cloned fields, empty labels, and
/// no RNG is ever constructed (the `sample_edges` ratio-1.0 contract).
///
/// # Panics
///
/// Panics when `cfg.validate()` fails.
pub fn inject_sybil(host: &TrustDataset, cfg: &SybilConfig) -> SybilInjection {
    cfg.validate()
        .unwrap_or_else(|e| panic!("inject_sybil: {e}"));
    let n_host = host.graph.n();
    let n_sybil = (cfg.sybil_fraction * n_host as f64).round() as usize;
    if n_sybil == 0 {
        // Identity: bitwise-unchanged host, RNG untouched.
        return SybilInjection {
            dataset: host.clone(),
            honest: (0..n_host).collect(),
            sybil: Vec::new(),
            clusters: Vec::new(),
            attack_edges: Vec::new(),
        };
    }
    let mut rng = StdRng::seed_from_u64(SplitMix64::derive(cfg.seed, "sybil"));
    let n_total = n_host + n_sybil;
    let sybil: Vec<usize> = (n_host..n_total).collect();

    // Near-equal contiguous clusters; drop the empty tail when the
    // cluster count exceeds the Sybil count.
    let k = cfg.n_clusters.min(n_sybil);
    let (base, extra) = (n_sybil / k, n_sybil % k);
    let mut clusters: Vec<Vec<usize>> = Vec::with_capacity(k);
    let mut next = n_host;
    for c in 0..k {
        let size = base + usize::from(c < extra);
        clusters.push((next..next + size).collect());
        next += size;
    }

    // ---- Edges: host ∪ intra-cluster ∪ attack -------------------------
    let mut edges: Vec<(usize, usize)> = host.positives.clone();
    let mut present: HashSet<(usize, usize)> = edges.iter().copied().collect();
    let add = |edges: &mut Vec<(usize, usize)>,
               present: &mut HashSet<(usize, usize)>,
               u: usize,
               v: usize| {
        if u != v && present.insert((u, v)) {
            edges.push((u, v));
        }
    };
    for members in &clusters {
        // Deterministic ring keeps every cluster internally connected.
        if members.len() > 1 {
            for i in 0..members.len() {
                add(
                    &mut edges,
                    &mut present,
                    members[i],
                    members[(i + 1) % members.len()],
                );
            }
        }
        for &i in members {
            for &j in members {
                if i != j && rng.gen_bool(cfg.intra_density) {
                    add(&mut edges, &mut present, i, j);
                }
            }
        }
    }
    let budget = cfg.attack_edges.min(n_host * n_sybil);
    let mut attack_edges: Vec<(usize, usize)> = Vec::with_capacity(budget);
    let mut guard = 0usize;
    while attack_edges.len() < budget && guard < budget * 200 + 200 {
        guard += 1;
        let h = rng.gen_range(0..n_host);
        // Round-robin targets spread the budget across the whole region,
        // so budgets ≥ cluster size land several edges per Sybil.
        let s = sybil[attack_edges.len() % n_sybil];
        if present.contains(&(h, s)) {
            continue;
        }
        add(&mut edges, &mut present, h, s);
        add(&mut edges, &mut present, s, h); // camouflage follow-back
        attack_edges.push((h, s));
    }
    edges.sort_unstable();
    let graph = DiGraph::from_edges(n_total, &edges)
        .expect("sybil injection produces in-range, loop-free edges");

    // ---- Features and attributes: template camouflage -----------------
    // Each Sybil copies the feature row and attribute list of a random
    // honest template, then the cluster's fresh colluding attribute ids
    // are appended — indistinguishable per-node, colluding per-cluster.
    let d = host.features.cols();
    let mut features = Tensor::zeros(n_total, d);
    for u in 0..n_host {
        features.row_mut(u).copy_from_slice(host.features.row(u));
    }
    let colluding_base = host
        .attributes
        .iter()
        .flatten()
        .copied()
        .max()
        .map_or(0, |m| m + 1);
    let community_base = host
        .communities
        .iter()
        .flatten()
        .copied()
        .max()
        .map_or(0, |m| m + 1);
    let mut attributes = host.attributes.clone();
    let mut communities = host.communities.clone();
    for (c, members) in clusters.iter().enumerate() {
        let colluding: Vec<usize> = (0..cfg.colluding_attributes)
            .map(|a| colluding_base + c * cfg.colluding_attributes + a)
            .collect();
        for &s in members {
            let template = rng.gen_range(0..n_host);
            features
                .row_mut(s)
                .copy_from_slice(host.features.row(template));
            let mut attrs = host.attributes[template].clone();
            attrs.extend_from_slice(&colluding);
            attributes.push(attrs);
            communities.push(vec![community_base + c]);
        }
    }

    let positives = edges;
    SybilInjection {
        dataset: TrustDataset {
            name: format!("{}+sybil", host.name),
            graph,
            features,
            attributes,
            communities,
            positives,
            n_items: host.n_items,
            n_purchases: host.n_purchases,
        },
        honest: (0..n_host).collect(),
        sybil,
        clusters,
        attack_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetConfig;

    fn host() -> TrustDataset {
        TrustDataset::generate(&DatasetConfig::ciao_like(80, 11))
    }

    fn cfg() -> SybilConfig {
        SybilConfig {
            sybil_fraction: 0.15,
            attack_edges: 6,
            seed: 5,
            ..SybilConfig::default()
        }
    }

    #[test]
    fn injection_is_seed_deterministic() {
        let h = host();
        let a = inject_sybil(&h, &cfg());
        let b = inject_sybil(&h, &cfg());
        assert_eq!(a.dataset.positives, b.dataset.positives);
        assert_eq!(a.dataset.features, b.dataset.features);
        assert_eq!(a.dataset.attributes, b.dataset.attributes);
        assert_eq!(a.attack_edges, b.attack_edges);
        let c = inject_sybil(&h, &SybilConfig { seed: 6, ..cfg() });
        assert_ne!(a.dataset.positives, c.dataset.positives);
    }

    #[test]
    fn zero_fraction_is_the_bitwise_identity() {
        let h = host();
        let inj = inject_sybil(
            &h,
            &SybilConfig {
                sybil_fraction: 0.0,
                ..cfg()
            },
        );
        assert_eq!(inj.dataset.positives, h.positives);
        assert_eq!(inj.dataset.features, h.features);
        assert_eq!(inj.dataset.attributes, h.attributes);
        assert_eq!(inj.dataset.communities, h.communities);
        assert_eq!(inj.dataset.name, h.name);
        assert_eq!(inj.dataset.graph.n(), h.graph.n());
        assert_eq!(inj.honest.len(), h.graph.n());
        assert!(inj.sybil.is_empty() && inj.attack_edges.is_empty() && inj.clusters.is_empty());
        // A fraction that rounds to zero Sybils is the same identity.
        let tiny = inject_sybil(
            &h,
            &SybilConfig {
                sybil_fraction: 1e-9,
                ..cfg()
            },
        );
        assert_eq!(tiny.dataset.positives, h.positives);
    }

    #[test]
    fn labels_partition_the_node_space() {
        let h = host();
        let inj = inject_sybil(&h, &cfg());
        let n_host = h.graph.n();
        let n_sybil = (0.15f64 * n_host as f64).round() as usize;
        assert_eq!(inj.dataset.graph.n(), n_host + n_sybil);
        assert_eq!(inj.honest, (0..n_host).collect::<Vec<_>>());
        assert_eq!(inj.sybil, (n_host..n_host + n_sybil).collect::<Vec<_>>());
        let clustered: Vec<usize> = inj.clusters.iter().flatten().copied().collect();
        assert_eq!(clustered, inj.sybil, "clusters partition the Sybil region");
        assert_eq!(inj.dataset.features.rows(), n_host + n_sybil);
        assert_eq!(inj.dataset.attributes.len(), n_host + n_sybil);
        assert_eq!(inj.dataset.communities.len(), n_host + n_sybil);
    }

    #[test]
    fn host_subgraph_is_preserved_and_attack_edges_are_the_only_inbound_cut() {
        let h = host();
        let inj = inject_sybil(&h, &cfg());
        // Every host edge survives verbatim.
        for &(u, v) in &h.positives {
            assert!(
                inj.dataset.graph.has_edge(u, v),
                "host edge ({u}, {v}) lost"
            );
        }
        // The only honest → Sybil edges are the declared attack edges.
        let n_host = h.graph.n();
        let declared: HashSet<(usize, usize)> = inj.attack_edges.iter().copied().collect();
        for &(u, v) in &inj.dataset.positives {
            if u < n_host && v >= n_host {
                assert!(
                    declared.contains(&(u, v)),
                    "undeclared attack edge ({u}, {v})"
                );
            }
        }
        assert_eq!(inj.attack_edges.len(), 6, "budget fully spent");
        // Every attack edge is reciprocated for camouflage.
        for &(hh, s) in &inj.attack_edges {
            assert!(inj.dataset.graph.has_edge(s, hh));
        }
    }

    #[test]
    fn zero_attack_edges_leave_the_region_disconnected() {
        let h = host();
        let inj = inject_sybil(
            &h,
            &SybilConfig {
                attack_edges: 0,
                ..cfg()
            },
        );
        assert!(inj.attack_edges.is_empty());
        let n_host = h.graph.n();
        for &(u, v) in &inj.dataset.positives {
            assert_eq!(
                u >= n_host,
                v >= n_host,
                "edge ({u}, {v}) crosses the boundary with a zero budget"
            );
        }
        // Clusters are still internally connected (the deterministic ring).
        for members in &inj.clusters {
            for w in members.windows(2) {
                assert!(inj.dataset.graph.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn budget_at_least_cluster_size_lands_multiple_edges_per_sybil() {
        let h = host();
        // 80 users at fraction 0.1 → 8 Sybils; budget 20 > 8.
        let inj = inject_sybil(
            &h,
            &SybilConfig {
                sybil_fraction: 0.1,
                attack_edges: 20,
                n_clusters: 1,
                ..cfg()
            },
        );
        assert_eq!(inj.attack_edges.len(), 20);
        let mut per_target = std::collections::HashMap::new();
        for &(_, s) in &inj.attack_edges {
            *per_target.entry(s).or_insert(0usize) += 1;
        }
        assert!(
            per_target.values().all(|&c| c >= 2),
            "round-robin spreads the budget"
        );
        // An absurd budget caps at the distinct cross-pair count.
        let capped = inject_sybil(
            &h,
            &SybilConfig {
                sybil_fraction: 0.05,
                attack_edges: 1_000_000,
                ..cfg()
            },
        );
        let n_sybil = capped.sybil.len();
        assert!(capped.attack_edges.len() <= h.graph.n() * n_sybil);
        assert!(
            capped.attack_edges.len() > n_sybil,
            "cap still exceeds one edge per Sybil"
        );
    }

    #[test]
    fn sybils_carry_colluding_attributes_and_template_camouflage() {
        let h = host();
        let inj = inject_sybil(&h, &cfg());
        let host_vocab = h.attributes.iter().flatten().copied().max().unwrap() + 1;
        for (c, members) in inj.clusters.iter().enumerate() {
            let colluding: Vec<usize> = (0..2).map(|a| host_vocab + c * 2 + a).collect();
            for &s in members {
                let attrs = &inj.dataset.attributes[s];
                for id in &colluding {
                    assert!(attrs.contains(id), "Sybil {s} missing colluding attr {id}");
                }
                // The rest of the attribute list is a real honest user's.
                let organic: Vec<usize> =
                    attrs.iter().copied().filter(|&a| a < host_vocab).collect();
                assert!(
                    h.attributes.contains(&organic),
                    "Sybil {s} organic attrs match no honest template"
                );
                // Features are a verbatim honest row.
                assert!(
                    (0..h.graph.n()).any(|u| h.features.row(u) == inj.dataset.features.row(s)),
                    "Sybil {s} features match no honest template"
                );
            }
        }
    }

    #[test]
    fn injected_dataset_splits_and_probes() {
        let h = host();
        let inj = inject_sybil(&h, &cfg());
        let split = inj.dataset.split(0.8, 0.2, 2, 42);
        assert!(!split.train.is_empty() && !split.test.is_empty());
        let probes = inj.probe_pairs(30, 9);
        assert_eq!(probes.sybil.len(), 30);
        assert_eq!(probes.honest.len(), 30);
        let trustors: HashSet<usize> = inj.attack_edges.iter().map(|&(hh, _)| hh).collect();
        for p in &probes.sybil {
            assert!(trustors.contains(&p.trustor));
            assert!(inj.sybil.contains(&p.trustee));
            assert!(!p.label && !inj.dataset.graph.has_edge(p.trustor, p.trustee));
        }
        for p in &probes.honest {
            assert!(trustors.contains(&p.trustor));
            assert!(p.trustee < h.graph.n());
            assert!(!p.label && !inj.dataset.graph.has_edge(p.trustor, p.trustee));
        }
        // Deterministic in the probe seed.
        let again = inj.probe_pairs(30, 9);
        assert_eq!(probes.sybil, again.sybil);
        assert_eq!(probes.honest, again.honest);
    }

    #[test]
    #[should_panic(expected = "intra_density")]
    fn invalid_config_rejected() {
        inject_sybil(
            &host(),
            &SybilConfig {
                intra_density: 1.5,
                ..cfg()
            },
        );
    }
}
