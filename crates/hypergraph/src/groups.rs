//! The two-tier hypergroup builders of §IV-B.
//!
//! A *hypergroup* is a set of hyperedges sharing one construction rule; the
//! trust hypergraph is the concatenation of four of them (Eqs. 6–9). All
//! builders return a [`Hypergraph`] over the same vertex set so they can be
//! combined with [`Hypergraph::concat`].

use crate::Hypergraph;
use ahntp_graph::DiGraph;
use ahntp_telemetry::{KernelKind, KernelSpan};

/// The high-social-influence hypergroup (§IV-B-1, Eq. 6).
///
/// For each user `u`, forms the hyperedge `{u} ∪ top-K(neighbours of u by
/// influence score)`, where `scores` is a social-influence ranking —
/// normally the Motif-based PageRank `s'` of Eq. 5 (`ahntp_graph::motif_pagerank`),
/// or plain PageRank for the `AHNTP_nompr` ablation. Neighbourhood is
/// undirected (followers and followees both shape a user's trust circle).
/// Ties break by ascending node id for determinism. Users with no
/// neighbours contribute a singleton hyperedge so that isolated nodes —
/// which the paper identifies as a weakness of plain GNNs — still receive
/// an embedding pathway.
///
/// # Panics
///
/// Panics if `scores.len() != g.n()` or `k == 0`.
pub fn social_influence_hypergroup(g: &DiGraph, scores: &[f64], k: usize) -> Hypergraph {
    assert_eq!(
        scores.len(),
        g.n(),
        "social_influence_hypergroup: {} scores for {} users",
        scores.len(),
        g.n()
    );
    assert!(k > 0, "social_influence_hypergroup: k must be positive");
    let _span = KernelSpan::enter("hypergroup.social_influence", KernelKind::Other);
    let mut h = Hypergraph::new(g.n());
    for u in 0..g.n() {
        let mut neighbors: Vec<usize> = g.out_neighbors(u);
        neighbors.extend(g.in_neighbors(u));
        neighbors.sort_unstable();
        neighbors.dedup();
        // Highest influence first; ties by id.
        neighbors.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .expect("influence scores must not be NaN")
                .then(a.cmp(&b))
        });
        neighbors.truncate(k);
        let mut members = vec![u];
        members.extend(neighbors);
        h.add_edge(&members)
            .expect("members are valid node ids by construction");
    }
    h
}

/// The attribute-based hypergroup (§IV-B-2, Eq. 7).
///
/// `attributes[u]` lists the attribute ids of user `u` (hobbies, interest
/// communities, cities…). Each attribute id shared by at least two users
/// becomes one hyperedge containing all its holders; singleton attributes
/// carry no correlation and are skipped.
///
/// # Panics
///
/// Panics if `attributes.len() != n`.
pub fn attribute_hypergroup(n: usize, attributes: &[Vec<usize>]) -> Hypergraph {
    assert_eq!(
        attributes.len(),
        n,
        "attribute_hypergroup: {} attribute lists for {n} users",
        attributes.len()
    );
    let _span = KernelSpan::enter("hypergroup.attribute", KernelKind::Other);
    let max_attr = attributes
        .iter()
        .flat_map(|a| a.iter().copied())
        .max()
        .map_or(0, |m| m + 1);
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); max_attr];
    for (u, attrs) in attributes.iter().enumerate() {
        for &a in attrs {
            holders[a].push(u);
        }
    }
    let mut h = Hypergraph::new(n);
    for members in holders.iter_mut() {
        members.sort_unstable();
        members.dedup();
        if members.len() >= 2 {
            h.add_edge(members)
                .expect("user ids validated by the length assertion");
        }
    }
    h
}

/// The pairwise hypergroup (§IV-B-3, Eq. 8): one 2-uniform hyperedge per
/// undirected social tie, covering the basic low-order correlation.
/// Reciprocated edges produce a single hyperedge.
pub fn pairwise_hypergroup(g: &DiGraph) -> Hypergraph {
    let _span = KernelSpan::enter("hypergroup.pairwise", KernelKind::Other);
    let mut h = Hypergraph::new(g.n());
    let mut seen = std::collections::HashSet::new();
    for u in 0..g.n() {
        for v in g.out_neighbors(u) {
            let key = (u.min(v), u.max(v));
            if seen.insert(key) {
                h.add_edge(&[key.0, key.1])
                    .expect("edge endpoints are valid node ids");
            }
        }
    }
    h
}

/// The multi-hop hypergroup (§IV-B-4, Eq. 9).
///
/// For each hop level `t ∈ 1..=hops` and each user `u`, forms the hyperedge
/// `{u} ∪ {v : dist(u, v) ≤ t}` over undirected distance — capturing trust
/// propagation along multi-step paths. Users whose neighbourhood is empty
/// at a level contribute singletons (isolated-node pathway, as above).
///
/// # Panics
///
/// Panics if `hops == 0`.
pub fn multi_hop_hypergroup(g: &DiGraph, hops: usize) -> Hypergraph {
    assert!(hops >= 1, "multi_hop_hypergroup: hops must be >= 1");
    let _span = KernelSpan::enter("hypergroup.multi_hop", KernelKind::Other);
    let mut h = Hypergraph::new(g.n());
    for t in 1..=hops {
        for u in 0..g.n() {
            let mut members = vec![u];
            members.extend(g.k_hop_neighbors(u, t));
            h.add_edge(&members).expect("BFS yields valid node ids");
        }
    }
    h
}

/// [`multi_hop_hypergroup`] with a cap on hyperedge cardinality.
///
/// High hop counts make neighbourhoods approach the whole graph, which both
/// dilutes the signal (the effect the paper observes in Table VI) and makes
/// attention over incidence pairs quadratic. This variant keeps, for each
/// hyperedge, the `max_size` closest neighbours (breadth-first: all of hop 1
/// before any of hop 2, ties broken by ascending id) plus the central user —
/// deterministic and distance-respecting.
///
/// # Panics
///
/// Panics if `hops == 0` or `max_size == 0`.
pub fn multi_hop_hypergroup_capped(g: &DiGraph, hops: usize, max_size: usize) -> Hypergraph {
    assert!(hops >= 1, "multi_hop_hypergroup_capped: hops must be >= 1");
    assert!(
        max_size >= 1,
        "multi_hop_hypergroup_capped: max_size must be >= 1"
    );
    let _span = KernelSpan::enter("hypergroup.multi_hop_capped", KernelKind::Other);
    let mut h = Hypergraph::new(g.n());
    for t in 1..=hops {
        for u in 0..g.n() {
            let mut members = vec![u];
            'levels: for level in 1..=t {
                for v in g.exact_hop_neighbors(u, level) {
                    if members.len() > max_size {
                        break 'levels;
                    }
                    members.push(v);
                }
            }
            members.truncate(max_size + 1);
            h.add_edge(&members).expect("BFS yields valid node ids");
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahntp_graph::{motif_pagerank, Motif, MotifPageRankConfig};

    fn fig2() -> DiGraph {
        DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 1), (0, 4)]).expect("valid")
    }

    #[test]
    fn social_influence_group_selects_top_k() {
        let g = fig2();
        // Hand-crafted scores: user 2 most influential, then 1, 0, 4, 3.
        let scores = [0.3, 0.35, 0.4, 0.05, 0.1];
        let h = social_influence_hypergroup(&g, &scores, 1);
        assert_eq!(h.n_edges(), 5);
        // User 0's neighbours are {1, 2, 4}; top-1 by score is 2.
        assert_eq!(h.edge(0), &[0, 2]);
        // User 4's only neighbour is 0.
        assert_eq!(h.edge(4), &[0, 4]);
        // User 3 is isolated → singleton hyperedge.
        assert_eq!(h.edge(3), &[3]);
    }

    #[test]
    fn social_influence_group_with_mpr_scores() {
        let g = fig2();
        let scores = motif_pagerank(&g, Motif::M6, &MotifPageRankConfig::default());
        let h = social_influence_hypergroup(&g, &scores, 2);
        assert_eq!(h.n_edges(), g.n());
        // Every hyperedge contains its central user.
        for u in 0..g.n() {
            assert!(
                h.edge(u).contains(&u),
                "hyperedge {u} must contain user {u}"
            );
            assert!(h.edge_degree(u) <= 3, "at most k + 1 members");
        }
    }

    #[test]
    fn social_influence_ties_break_deterministically() {
        let g = DiGraph::from_edges(3, &[(0, 1), (0, 2)]).expect("valid");
        let scores = [0.2, 0.4, 0.4]; // 1 and 2 tied
        let h = social_influence_hypergroup(&g, &scores, 1);
        assert_eq!(h.edge(0), &[0, 1], "lowest id wins a tie");
    }

    #[test]
    fn attribute_group_links_holders_and_skips_singletons() {
        // attr 0: users {0, 2}; attr 1: user {1} only; attr 2: {1, 2, 3}.
        let attrs = vec![vec![0], vec![1, 2], vec![0, 2], vec![2]];
        let h = attribute_hypergroup(4, &attrs);
        assert_eq!(h.n_edges(), 2);
        assert_eq!(h.edge(0), &[0, 2]);
        assert_eq!(h.edge(1), &[1, 2, 3]);
    }

    #[test]
    fn attribute_group_empty_attributes() {
        let h = attribute_hypergroup(3, &[vec![], vec![], vec![]]);
        assert_eq!(h.n_edges(), 0);
        assert_eq!(h.stats().isolated_vertices, 3);
    }

    #[test]
    fn pairwise_group_collapses_reciprocal_edges() {
        let g = fig2();
        let h = pairwise_hypergroup(&g);
        // Edges: {0,1}, {0,2}, {1,2} (collapsed from 1→2 and 2→1), {0,4}.
        assert_eq!(h.n_edges(), 4);
        for e in 0..h.n_edges() {
            assert_eq!(h.edge_degree(e), 2, "pairwise hyperedges are 2-uniform");
        }
    }

    #[test]
    fn multi_hop_group_grows_with_hops() {
        // Path 0 - 1 - 2 - 3.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).expect("valid");
        let h1 = multi_hop_hypergroup(&g, 1);
        assert_eq!(h1.n_edges(), 4);
        assert_eq!(h1.edge(0), &[0, 1]);
        let h2 = multi_hop_hypergroup(&g, 2);
        assert_eq!(h2.n_edges(), 8, "one layer of hyperedges per hop level");
        // Second level for user 0 covers distance ≤ 2.
        assert_eq!(h2.edge(4), &[0, 1, 2]);
    }

    #[test]
    fn full_trust_hypergraph_composition() {
        let g = fig2();
        let scores = motif_pagerank(&g, Motif::M6, &MotifPageRankConfig::default());
        let hss = social_influence_hypergroup(&g, &scores, 2);
        let attr = attribute_hypergroup(5, &[vec![0], vec![0], vec![1], vec![1], vec![0]]);
        let pair = pairwise_hypergroup(&g);
        let hop = multi_hop_hypergroup(&g, 2);
        let full = Hypergraph::concat(&[&hss, &attr, &pair, &hop]);
        assert_eq!(
            full.n_edges(),
            hss.n_edges() + attr.n_edges() + pair.n_edges() + hop.n_edges()
        );
        // All users covered (no isolated vertices) thanks to singleton
        // fallbacks in the influence group.
        assert_eq!(full.stats().isolated_vertices, 0);
    }
}

#[cfg(test)]
mod capped_tests {
    use super::*;

    #[test]
    fn capped_multi_hop_respects_max_size_and_prefers_closer() {
        // Star: 0 connected to 1..=5; 1 connected to 6.
        let g = DiGraph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6)])
            .expect("valid");
        let h = multi_hop_hypergroup_capped(&g, 2, 3);
        // Two levels × 7 users.
        assert_eq!(h.n_edges(), 14);
        for e in 0..h.n_edges() {
            assert!(h.edge_degree(e) <= 4, "cap is max_size + central user");
        }
        // User 0's level-2 hyperedge keeps hop-1 neighbours (1, 2, 3) ahead
        // of the hop-2 neighbour 6.
        let level2_edge_of_0 = h.edge(7);
        assert_eq!(level2_edge_of_0, &[0, 1, 2, 3]);
    }

    #[test]
    fn capped_equals_uncapped_when_cap_is_large() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).expect("valid");
        let capped = multi_hop_hypergroup_capped(&g, 2, 100);
        let full = multi_hop_hypergroup(&g, 2);
        assert_eq!(capped.n_edges(), full.n_edges());
        for e in 0..full.n_edges() {
            assert_eq!(capped.edge(e), full.edge(e), "edge {e}");
        }
    }
}
