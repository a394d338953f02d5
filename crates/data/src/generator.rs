//! The synthetic social-commerce generator.

use crate::{DatasetConfig, TrustDataset};
use ahntp_graph::DiGraph;
use ahntp_tensor::{SplitMix64, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Per-purchase record (user, item, rating in 1..=5).
pub(crate) struct Purchase {
    pub user: usize,
    pub item: usize,
    pub rating: u8,
}

/// Number of behavioural summary columns appended to the category
/// histogram in the feature matrix.
pub(crate) const BEHAVIOR_FEATURES: usize = 4;

pub(crate) struct Generated {
    pub graph: DiGraph,
    pub features: Tensor,
    pub attributes: Vec<Vec<usize>>,
    pub n_purchases: usize,
    pub communities: Vec<Vec<usize>>,
    /// Trust edges in creation order — the temporal dimension the paper's
    /// future-work section points at (used by `TemporalTrustDataset`).
    pub edge_order: Vec<(usize, usize)>,
}

/// Zipf-ish discrete sampler: picks index `k ∈ 0..n` with weight
/// `1 / (k + 1)^s` using inverse-CDF over precomputed cumulative weights.
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, s: f64) -> ZipfSampler {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        ZipfSampler { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("non-empty sampler");
        let u = rng.gen_range(0.0..total);
        self.cdf.partition_point(|&c| c < u)
    }
}

/// Tournament sampler approximating preferential attachment: draw `t`
/// uniform candidates and pick one with probability proportional to
/// `(in_degree + 1)^pa`. For `pa = 0` this is uniform; larger `pa`
/// concentrates mass on hubs. O(t) per draw, which keeps generation linear.
fn preferential_pick(
    rng: &mut StdRng,
    candidates: &[usize],
    in_degree: &[usize],
    pa: f64,
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    const TOURNAMENT: usize = 8;
    let mut pool = Vec::with_capacity(TOURNAMENT);
    for _ in 0..TOURNAMENT {
        pool.push(candidates[rng.gen_range(0..candidates.len())]);
    }
    let weights: Vec<f64> = pool
        .iter()
        .map(|&c| ((in_degree[c] + 1) as f64).powf(pa))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (c, w) in pool.iter().zip(&weights) {
        if u < *w {
            return Some(*c);
        }
        u -= w;
    }
    pool.last().copied()
}

pub(crate) fn generate(cfg: &DatasetConfig) -> Generated {
    cfg.validate().expect("invalid DatasetConfig");
    let mut rng = StdRng::seed_from_u64(SplitMix64::derive(cfg.seed, &cfg.name));

    // ---- Communities ------------------------------------------------
    // Zipf community sizes: early communities are large.
    let community_sampler = ZipfSampler::new(cfg.n_communities, 1.0);
    let mut communities: Vec<Vec<usize>> = vec![Vec::new(); cfg.n_communities];
    let mut user_communities: Vec<Vec<usize>> = Vec::with_capacity(cfg.n_users);
    for u in 0..cfg.n_users {
        let k = if rng.gen_bool(0.35) { 2 } else { 1 };
        let mut mine = Vec::with_capacity(k);
        while mine.len() < k {
            let c = community_sampler.sample(&mut rng);
            if !mine.contains(&c) {
                mine.push(c);
            }
        }
        for &c in &mine {
            communities[c].push(u);
        }
        user_communities.push(mine);
    }

    // ---- Catalogue ---------------------------------------------------
    // Each community prefers a handful of categories; items get a category
    // and a popularity rank.
    let prefs_per_community = 3usize.min(cfg.n_categories);
    let community_prefs: Vec<Vec<usize>> = (0..cfg.n_communities)
        .map(|_| {
            let mut prefs = Vec::with_capacity(prefs_per_community);
            while prefs.len() < prefs_per_community {
                let c = rng.gen_range(0..cfg.n_categories);
                if !prefs.contains(&c) {
                    prefs.push(c);
                }
            }
            prefs
        })
        .collect();
    let item_category: Vec<usize> = (0..cfg.n_items)
        .map(|_| rng.gen_range(0..cfg.n_categories))
        .collect();
    let mut items_by_category: Vec<Vec<usize>> = vec![Vec::new(); cfg.n_categories];
    for (item, &cat) in item_category.iter().enumerate() {
        items_by_category[cat].push(item);
    }

    // ---- Purchases ----------------------------------------------------
    let mut purchases: Vec<Purchase> = Vec::new();
    // Per-user rating bias in [2, 5): some users are generous raters.
    let rating_bias: Vec<f64> = (0..cfg.n_users).map(|_| rng.gen_range(2.0..5.0)).collect();
    for u in 0..cfg.n_users {
        // Geometric-ish spread around the mean: 0.5x .. 1.5x.
        let count = (cfg.purchases_per_user * rng.gen_range(0.5..1.5)).round() as usize;
        for _ in 0..count.max(1) {
            let in_community = rng.gen_bool(0.8);
            let item = if in_community {
                let cs = &user_communities[u];
                let comm = cs[rng.gen_range(0..cs.len())];
                let prefs = &community_prefs[comm];
                let cat = prefs[rng.gen_range(0..prefs.len())];
                let pool = &items_by_category[cat];
                if pool.is_empty() {
                    rng.gen_range(0..cfg.n_items)
                } else {
                    // Popularity within a category: low item ids are hot.
                    pool[ZipfSampler::new(pool.len(), 0.8).sample(&mut rng)]
                }
            } else {
                rng.gen_range(0..cfg.n_items)
            };
            let rating = (rating_bias[u] + rng.gen_range(-1.0..1.0))
                .round()
                .clamp(1.0, 5.0) as u8;
            purchases.push(Purchase {
                user: u,
                item,
                rating,
            });
        }
    }

    // ---- Taste profiles ---------------------------------------------------
    // Normalised category histograms, used to steer homophily edges toward
    // users with similar tastes (the homophily effect of trust formation:
    // readers trust reviewers whose preferences match their own).
    let mut taste: Vec<Vec<f64>> = vec![vec![0.0; cfg.n_categories]; cfg.n_users];
    for p in &purchases {
        taste[p.user][item_category[p.item]] += 1.0;
    }
    for t in &mut taste {
        let norm: f64 = t.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in t.iter_mut() {
                *v /= norm;
            }
        }
    }
    let taste_sim =
        |a: usize, b: usize| -> f64 { taste[a].iter().zip(&taste[b]).map(|(x, y)| x * y).sum() };

    // ---- Trust edges ----------------------------------------------------
    let target_edges = (cfg.n_users as f64 * cfg.trust_per_user) as usize;
    let mut edges: HashSet<(usize, usize)> = HashSet::with_capacity(target_edges * 2);
    let mut out_adj: Vec<Vec<usize>> = vec![Vec::new(); cfg.n_users];
    let mut in_degree = vec![0usize; cfg.n_users];
    let all_users: Vec<usize> = (0..cfg.n_users).collect();
    let mut edge_order: Vec<(usize, usize)> = Vec::with_capacity(target_edges);
    let add_edge = |edges: &mut HashSet<(usize, usize)>,
                    out_adj: &mut Vec<Vec<usize>>,
                    in_degree: &mut Vec<usize>,
                    edge_order: &mut Vec<(usize, usize)>,
                    u: usize,
                    w: usize|
     -> bool {
        if u == w || edges.contains(&(u, w)) {
            return false;
        }
        edges.insert((u, w));
        out_adj[u].push(w);
        in_degree[w] += 1;
        edge_order.push((u, w));
        true
    };
    // Trust personas: each user leans either homophily-driven (trusts
    // similar tastes) or popularity-driven (trusts visible hubs). The
    // population mean matches cfg.homophily, but the per-user variation is
    // what makes hyperedge relevance user-specific — the paper's "different
    // users have different concerns in trust establishment" (§I).
    let spread = cfg.homophily.min(1.0 - cfg.homophily).min(0.22);
    let persona: Vec<f64> = (0..cfg.n_users)
        .map(|_| {
            if rng.gen_bool(0.5) {
                cfg.homophily + spread
            } else {
                cfg.homophily - spread
            }
        })
        .collect();
    let mut attempts = 0usize;
    let max_attempts = target_edges * 20;
    while edges.len() < target_edges && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..cfg.n_users);
        // Mechanism choice: triadic closure, then the user's persona
        // decides between homophily and global influence.
        let mechanism = rng.gen_range(0.0..1.0);
        let w = if mechanism < cfg.triadic_closure && !out_adj[u].is_empty() {
            // Close a triangle: u → v → w becomes u → w.
            let v = out_adj[u][rng.gen_range(0..out_adj[u].len())];
            if out_adj[v].is_empty() {
                continue;
            }
            Some(out_adj[v][rng.gen_range(0..out_adj[v].len())])
        } else if mechanism < cfg.triadic_closure + persona[u] * (1.0 - cfg.triadic_closure) {
            // Homophily: a fellow community member, weighted by hub status
            // and taste similarity (trust follows matching preferences).
            let cs = &user_communities[u];
            let comm = cs[rng.gen_range(0..cs.len())];
            let members = &communities[comm];
            if members.len() < 2 {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for _ in 0..8 {
                let cand = members[rng.gen_range(0..members.len())];
                if cand == u {
                    continue;
                }
                let hub = ((in_degree[cand] + 1) as f64).powf(cfg.preferential_attachment);
                let sim = (0.05 + taste_sim(u, cand)).powi(2);
                let weight = hub * sim * rng.gen_range(0.5..1.0);
                if best.is_none_or(|(_, w)| weight > w) {
                    best = Some((cand, weight));
                }
            }
            best.map(|(c, _)| c)
        } else {
            // Global influence edge.
            preferential_pick(
                &mut rng,
                &all_users,
                &in_degree,
                cfg.preferential_attachment,
            )
        };
        let Some(w) = w else { continue };
        if add_edge(
            &mut edges,
            &mut out_adj,
            &mut in_degree,
            &mut edge_order,
            u,
            w,
        ) && rng.gen_bool(cfg.reciprocity)
        {
            add_edge(
                &mut edges,
                &mut out_adj,
                &mut in_degree,
                &mut edge_order,
                w,
                u,
            );
        }
    }
    let edge_list: Vec<(usize, usize)> = {
        let mut v: Vec<(usize, usize)> = edges.into_iter().collect();
        v.sort_unstable();
        v
    };
    let graph = DiGraph::from_edges(cfg.n_users, &edge_list)
        .expect("generator produces in-range, loop-free edges");

    // ---- Features -------------------------------------------------------
    // Category purchase histogram (L1-normalised) + behavioural summary.
    let d = cfg.n_categories + BEHAVIOR_FEATURES;
    let mut features = Tensor::zeros(cfg.n_users, d);
    let mut counts = vec![0usize; cfg.n_users];
    let mut rating_sum = vec![0.0f32; cfg.n_users];
    let mut rating_sq = vec![0.0f32; cfg.n_users];
    for p in &purchases {
        let cat = item_category[p.item];
        let row = features.row_mut(p.user);
        row[cat] += 1.0;
        counts[p.user] += 1;
        rating_sum[p.user] += f32::from(p.rating);
        rating_sq[p.user] += f32::from(p.rating) * f32::from(p.rating);
    }
    let max_log = ((cfg.purchases_per_user * 2.0) as f32).ln_1p();
    for u in 0..cfg.n_users {
        let c = counts[u] as f32;
        let row = features.row_mut(u);
        if c > 0.0 {
            for v in row[..cfg.n_categories].iter_mut() {
                *v /= c;
            }
        }
        let mean = if c > 0.0 { rating_sum[u] / c } else { 0.0 };
        let var = if c > 0.0 {
            (rating_sq[u] / c - mean * mean).max(0.0)
        } else {
            0.0
        };
        row[cfg.n_categories] = c.ln_1p() / max_log; // activity
        row[cfg.n_categories + 1] = mean / 5.0; // generosity
        row[cfg.n_categories + 2] = var.sqrt() / 2.0; // rating spread
                                                      // Engagement breadth: fraction of categories touched.
        let touched = row[..cfg.n_categories].iter().filter(|&&v| v > 0.0).count();
        row[cfg.n_categories + 3] = touched as f32 / cfg.n_categories as f32;
    }

    // ---- Attributes -------------------------------------------------------
    // Observable attribute ids: interest communities (0..n_communities),
    // favourite categories (n_communities..n_communities + n_categories),
    // and spurious noise attributes (the remaining ids) that group random
    // users — hyperedges an adaptive model should learn to ignore.
    let noise_base = cfg.n_communities + cfg.n_categories;
    let mut attributes: Vec<Vec<usize>> = Vec::with_capacity(cfg.n_users);
    for (u, user_comms) in user_communities.iter().enumerate() {
        let mut attrs = user_comms.clone();
        // Top-2 purchased categories.
        let hist = &features.row(u)[..cfg.n_categories];
        let mut cats: Vec<usize> = (0..cfg.n_categories).collect();
        cats.sort_by(|&a, &b| {
            hist[b]
                .partial_cmp(&hist[a])
                .expect("histogram values are finite")
        });
        for &c in cats.iter().take(2) {
            if hist[c] > 0.0 {
                attrs.push(cfg.n_communities + c);
            }
        }
        if cfg.n_noise_attributes > 0 {
            attrs.push(noise_base + rng.gen_range(0..cfg.n_noise_attributes));
        }
        attributes.push(attrs);
    }

    Generated {
        graph,
        features,
        attributes,
        n_purchases: purchases.len(),
        communities: user_communities,
        edge_order,
    }
}

impl TrustDataset {
    /// Generates a dataset from the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn generate(cfg: &DatasetConfig) -> TrustDataset {
        let g = generate(cfg);
        let positives: Vec<(usize, usize)> = (0..g.graph.n())
            .flat_map(|u| g.graph.out_neighbors(u).into_iter().map(move |v| (u, v)))
            .collect();
        TrustDataset {
            name: cfg.name.clone(),
            graph: g.graph,
            features: g.features,
            attributes: g.attributes,
            communities: g.communities,
            positives,
            n_items: cfg.n_items,
            n_purchases: g.n_purchases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DatasetConfig {
        DatasetConfig::ciao_like(120, 3)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TrustDataset::generate(&small_cfg());
        let b = TrustDataset::generate(&small_cfg());
        assert_eq!(a.positives, b.positives);
        assert_eq!(a.features, b.features);
        let mut other = small_cfg();
        other.seed = 4;
        let c = TrustDataset::generate(&other);
        assert_ne!(a.positives, c.positives);
    }

    #[test]
    fn trust_volume_near_target() {
        let cfg = small_cfg();
        let ds = TrustDataset::generate(&cfg);
        let target = cfg.n_users as f64 * cfg.trust_per_user;
        let got = ds.positives.len() as f64;
        assert!(
            got > target * 0.85 && got < target * 1.15,
            "edge count {got} vs target {target}"
        );
    }

    #[test]
    fn features_are_normalised_and_finite() {
        let ds = TrustDataset::generate(&small_cfg());
        assert!(ds.features.all_finite());
        let cats = 24;
        for u in 0..ds.graph.n() {
            let hist_sum: f32 = ds.features.row(u)[..cats].iter().sum();
            assert!(
                (hist_sum - 1.0).abs() < 1e-4 || hist_sum == 0.0,
                "user {u} histogram sums to {hist_sum}"
            );
            assert!(ds.features.row(u).iter().all(|&v| (0.0..=1.5).contains(&v)));
        }
    }

    #[test]
    fn hubs_emerge_from_preferential_attachment() {
        let ds = TrustDataset::generate(&DatasetConfig::epinions_like(300, 5));
        let mut in_degs: Vec<usize> = (0..ds.graph.n()).map(|u| ds.graph.in_degree(u)).collect();
        in_degs.sort_unstable_by(|a, b| b.cmp(a));
        let top_share: usize = in_degs[..30].iter().sum();
        let total: usize = in_degs.iter().sum();
        // Top 10% of users hold well over 10% of incoming trust.
        assert!(
            top_share as f64 > total as f64 * 0.25,
            "hub share {top_share}/{total}"
        );
    }

    #[test]
    fn homophily_shapes_trust() {
        let ds = TrustDataset::generate(&small_cfg());
        let mut within = 0usize;
        let mut across = 0usize;
        for &(u, v) in &ds.positives {
            let shared = ds.communities[u]
                .iter()
                .any(|c| ds.communities[v].contains(c));
            if shared {
                within += 1;
            } else {
                across += 1;
            }
        }
        assert!(
            within > across,
            "homophily must dominate: {within} within vs {across} across"
        );
    }

    #[test]
    fn triangles_exist() {
        let ds = TrustDataset::generate(&small_cfg());
        let total: usize = ds.graph.triangle_counts().iter().sum();
        assert!(
            total > 20,
            "triadic closure must create triangles, got {total}"
        );
    }

    #[test]
    fn reciprocity_is_present() {
        let ds = TrustDataset::generate(&small_cfg());
        let mutual = ds.graph.bidirectional().nnz() / 2;
        assert!(
            mutual * 10 > ds.positives.len(),
            "expected ≥10% mutual edges, got {mutual}/{}",
            ds.positives.len()
        );
    }

    #[test]
    fn attributes_reference_valid_vocabulary() {
        let cfg = small_cfg();
        let ds = TrustDataset::generate(&cfg);
        let vocab = cfg.n_communities + cfg.n_categories + cfg.n_noise_attributes;
        for (u, attrs) in ds.attributes.iter().enumerate() {
            assert!(!attrs.is_empty(), "user {u} has no attributes");
            assert!(attrs.iter().all(|&a| a < vocab));
        }
    }
}
