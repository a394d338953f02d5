//! Property tests on hypergraph invariants over random structures.

use ahntp_graph::DiGraph;
use ahntp_hypergraph::{
    attribute_hypergroup, multi_hop_hypergroup_capped, pairwise_hypergroup,
    social_influence_hypergroup, AggregationCache, AggregationOps, Hypergraph, SmoothnessFactor,
};
use ahntp_tensor::{CsrMatrix, SplitMix64, Tensor};
use proptest::prelude::*;
use std::collections::BTreeSet;

const N: usize = 12;

fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    proptest::collection::vec(proptest::collection::btree_set(0usize..N, 1..6), 1..15).prop_map(
        |edge_sets| {
            let mut h = Hypergraph::new(N);
            for members in edge_sets {
                let v: Vec<usize> = members.into_iter().collect();
                h.add_edge(&v).expect("members in range by construction");
            }
            h
        },
    )
}

/// One streaming mutation; `Remove`/`Reweight` carry a raw index reduced
/// modulo the live edge count at apply time.
#[derive(Clone, Debug)]
enum Mutation {
    Add(Vec<usize>, f32),
    Remove(usize),
    Reweight(usize, f32),
    Decay(f32),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        3 => (proptest::collection::btree_set(0usize..N, 1..5), 0.1f32..4.0)
            .prop_map(|(m, w)| Mutation::Add(m.into_iter().collect(), w)),
        2 => (0usize..64).prop_map(Mutation::Remove),
        2 => (0usize..64, 0.1f32..4.0).prop_map(|(e, w)| Mutation::Reweight(e, w)),
        1 => (0.5f32..0.999).prop_map(Mutation::Decay),
    ]
}

/// A CSR matrix as `(cols, row_ptr, col_idx, value bits)`: equal tuples
/// mean equal matrices entry-for-entry in bits.
fn csr_bits(m: &CsrMatrix<f32>) -> (usize, &[usize], &[usize], Vec<u32>) {
    let bits = m.values().iter().map(|v| v.to_bits()).collect();
    (m.cols(), m.row_ptr(), m.col_indices(), bits)
}

/// A CSR row as `(column, value bits)` pairs.
fn row_bits(m: &CsrMatrix<f32>, r: usize) -> Vec<(usize, u32)> {
    m.row_entries(r).map(|(c, v)| (c, v.to_bits())).collect()
}

/// Asserts the operator rows a live refresh reads off the lists around
/// `seed` — `v2e` rows for the hyperedges of its one-hop closure, `e2v`
/// rows (values and pattern) for its two-hop closure — equal in bits those
/// a cache built fresh on the mutated hypergraph reads, and the same rows
/// of the full operator set.
fn assert_rows_exact(
    cache: &AggregationCache,
    rebuilt: &AggregationCache,
    seed: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let walk = |c: &AggregationCache| {
        (
            c.incident_edges(&c.closure(&[seed], 1)),
            c.closure(&[seed], 2),
        )
    };
    let (edges, vertices) = walk(cache);
    prop_assert_eq!(walk(rebuilt), (edges.clone(), vertices.clone()));
    let full = cache.full_ops();
    let v2e = cache.edge_rows(&edges);
    let fresh_v2e = rebuilt.edge_rows(&edges);
    prop_assert_eq!(csr_bits(&v2e), csr_bits(&fresh_v2e));
    for (j, &e) in edges.iter().enumerate() {
        prop_assert_eq!(
            row_bits(&v2e, j),
            row_bits(&full.v2e, e),
            "v2e row of edge {}",
            e
        );
    }
    let live = cache.vertex_rows(&vertices);
    let fresh = rebuilt.vertex_rows(&vertices);
    prop_assert_eq!(csr_bits(&live.e2v), csr_bits(&fresh.e2v));
    prop_assert_eq!(live.e2v.cols(), full.rows.e2v.cols());
    for (i, &v) in vertices.iter().enumerate() {
        prop_assert_eq!(
            row_bits(&live.e2v, i),
            row_bits(&full.rows.e2v, v),
            "e2v row of vertex {}",
            v
        );
    }
    Ok(())
}

/// Asserts an operator set's vertex-side entries, in CSR order (the order
/// the attention reads them), are `pairs`.
fn assert_pairs(
    ops: &AggregationOps,
    pairs: &[(usize, usize)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let e2v = &ops.rows.e2v;
    let entries: Vec<(usize, usize)> = (0..e2v.rows())
        .flat_map(|r| e2v.row_entries(r).map(move |(c, _)| (r, c)))
        .collect();
    prop_assert_eq!(&entries[..], pairs);
    Ok(())
}

/// The slice of `h` keeping hyperedges `ids`, built densely from the
/// incidence matrix: `v2e` row `j` is column `ids[j]` divided by its
/// count, `e2v` keeps the columns `ids` and divides each row by its count,
/// and the pairs are `e2v`'s nonzeros in row-major order.
fn dense_slice(h: &Hypergraph, ids: &[usize]) -> (Tensor, Tensor, Vec<(usize, usize)>) {
    let inc = h.incidence().to_dense();
    let mut v2e = Tensor::zeros(ids.len(), N);
    for (j, &e) in ids.iter().enumerate() {
        let size = (0..N).filter(|&v| inc.get(v, e) != 0.0).count();
        for v in 0..N {
            v2e.set(j, v, inc.get(v, e) / size as f32);
        }
    }
    let mut e2v = Tensor::zeros(N, ids.len());
    let mut pairs = Vec::new();
    for v in 0..N {
        let kept = ids.iter().filter(|&&e| inc.get(v, e) != 0.0).count();
        for (j, &e) in ids.iter().enumerate() {
            if inc.get(v, e) != 0.0 {
                e2v.set(v, j, inc.get(v, e) / kept as f32);
                pairs.push((v, j));
            }
        }
    }
    (v2e, e2v, pairs)
}

/// Asserts a CSR operator equals a dense reference entry for entry in
/// bits, and stores exactly the reference's nonzeros.
fn assert_dense_bits(
    m: &CsrMatrix<f32>,
    reference: &Tensor,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert!(m.validate().is_ok());
    prop_assert_eq!((m.rows(), m.cols()), (reference.rows(), reference.cols()));
    let nonzeros = reference.as_slice().iter().filter(|&&x| x != 0.0).count();
    prop_assert_eq!(m.nnz(), nonzeros);
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            prop_assert_eq!(
                m.get(r, c).to_bits(),
                reference.get(r, c).to_bits(),
                "entry ({}, {}) differs in bits",
                r,
                c
            );
        }
    }
    Ok(())
}

/// Asserts the lists a mutation maintains, and the operator rows read off
/// them, equal those of a cache built fresh on the mutated hypergraph; that
/// the full set equals the triplet-built operators of [`Hypergraph`] and
/// the Laplacian a from-scratch one, entry-for-entry in bits; and that one
/// ascending slice, drawn from `seed`, equals the dense reference.
fn assert_cache_exact(
    cache: &AggregationCache,
    seed: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let rebuilt = AggregationCache::new(cache.hypergraph().clone());
    prop_assert_eq!(cache.adjacency(), rebuilt.adjacency());
    assert_rows_exact(cache, &rebuilt, seed % N)?;
    let h = cache.hypergraph();
    let live = cache.full_ops();
    let (v2e, e2v) = (h.vertex_to_edge_mean(), h.edge_to_vertex_mean());
    prop_assert_eq!(csr_bits(&live.v2e), csr_bits(&v2e));
    prop_assert_eq!(csr_bits(&live.rows.e2v), csr_bits(&e2v));
    assert_pairs(&live, &h.incidence_pairs())?;
    let mut rng = SplitMix64::new(seed as u64);
    let ids: Vec<usize> = (0..h.n_edges())
        .filter(|_| rng.next_u64().is_multiple_of(2))
        .collect();
    let slice = cache.slice_ops(&ids);
    let (v2e, e2v, pairs) = dense_slice(h, &ids);
    assert_dense_bits(&slice.v2e, &v2e)?;
    assert_dense_bits(&slice.rows.e2v, &e2v)?;
    assert_pairs(&slice, &pairs)?;
    let every: Vec<usize> = (0..h.n_edges()).collect();
    prop_assert_eq!(slice.edge_ids.as_deref().unwrap_or(&every), &ids);
    let lap_fresh = h.laplacian();
    let lap_live = cache.full_laplacian();
    for r in 0..N {
        for c in 0..N {
            prop_assert_eq!(
                lap_live.get(r, c).to_bits(),
                lap_fresh.get(r, c).to_bits(),
                "Laplacian entry ({}, {}) drifted",
                r,
                c
            );
        }
    }
    Ok(())
}

fn arb_digraph() -> impl Strategy<Value = DiGraph> {
    proptest::collection::vec(proptest::bool::weighted(0.2), N * N).prop_map(|bits| {
        let mut edges = Vec::new();
        for (k, &b) in bits.iter().enumerate() {
            let (u, v) = (k / N, k % N);
            if b && u != v {
                edges.push((u, v));
            }
        }
        DiGraph::from_edges(N, &edges).expect("indices in range")
    })
}

/// A hypergraph for the cone walks: random hyperedges that often leave
/// vertices isolated, or the same over a path through every vertex, whose
/// diameter `N − 1` the hop counts reach past.
fn arb_cone_hypergraph() -> impl Strategy<Value = Hypergraph> {
    let edges =
        || proptest::collection::vec(proptest::collection::btree_set(0usize..N, 1..6), 0..10);
    prop_oneof![
        1 => edges().prop_map(|sets| (false, sets)),
        1 => edges().prop_map(|sets| (true, sets)),
    ]
    .prop_map(|(path, sets)| {
        let mut h = Hypergraph::new(N);
        if path {
            for v in 1..N {
                h.add_edge(&[v - 1, v]).expect("in range");
            }
        }
        for members in sets {
            let v: Vec<usize> = members.into_iter().collect();
            h.add_edge(&v).expect("members in range by construction");
        }
        h
    })
}

/// One hop of the reference walk: every hyperedge with a member in `set`,
/// ascending, and `set` grown by their members. No frontier, no marker
/// over edges.
fn naive_hop(h: &Hypergraph, set: &BTreeSet<usize>) -> (Vec<usize>, BTreeSet<usize>) {
    let mut next = set.clone();
    let mut edges = Vec::new();
    for (e, members) in h.edges().iter().enumerate() {
        if members.iter().any(|v| set.contains(v)) {
            edges.push(e);
            next.extend(members.iter().copied());
        }
    }
    (edges, next)
}

#[test]
fn cone_walks_match_a_naive_bfs() {
    // Seeds repeat, and the hop counts run past the path's diameter.
    let cases = (
        arb_cone_hypergraph(),
        proptest::collection::vec(0usize..N, 0..5),
        0usize..N + 3,
    );
    let mut rng = proptest::TestRng::from_label("cone_walks_match_a_naive_bfs");
    let (mut full_early, mut never_full) = (0, 0);
    for case in 0..256 {
        let (h, seeds, hops) = cases.generate(&mut rng);
        let cache = AggregationCache::new(h.clone());
        let mut set: BTreeSet<usize> = seeds.iter().copied().collect();
        let (edges, next) = naive_hop(&h, &set);
        let want = (edges, next.into_iter().collect::<Vec<_>>());
        assert_eq!(cache.hop(&seeds), want, "case {case}: hop from {seeds:?}");
        let mut full_at = (set.len() == N).then_some(0);
        for hop in 1..=hops {
            let (edges, next) = naive_hop(&h, &set);
            let rows: Vec<usize> = set.iter().copied().collect();
            let want = (edges, next.iter().copied().collect::<Vec<_>>());
            assert_eq!(cache.hop(&rows), want, "case {case}: hop from {rows:?}");
            assert_eq!(cache.incident_edges(&rows), want.0, "case {case}");
            set = next;
            if set.len() == N && full_at.is_none() {
                full_at = Some(hop);
            }
        }
        let want: Vec<usize> = set.into_iter().collect();
        assert_eq!(
            cache.closure(&seeds, hops),
            want,
            "case {case}: {hops} hops from {seeds:?}"
        );
        match full_at {
            Some(k) if k < hops => full_early += 1,
            None => never_full += 1,
            Some(_) => {}
        }
    }
    // Both sides of the early exit are exercised, so neither is vacuous.
    assert!(
        full_early > 0 && never_full > 0,
        "{full_early} cones full early, {never_full} never full"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incidence_agrees_with_membership(h in arb_hypergraph()) {
        let inc = h.incidence();
        prop_assert!(inc.validate().is_ok());
        for (e, members) in h.edges().iter().enumerate() {
            for v in 0..N {
                let expected = f32::from(members.contains(&v));
                prop_assert_eq!(inc.get(v, e), expected, "vertex {} edge {}", v, e);
            }
        }
    }

    #[test]
    fn degree_identities(h in arb_hypergraph()) {
        // Σ vertex degrees (unweighted) = Σ edge degrees = nnz(H).
        let nnz = h.incidence().nnz();
        let v_total: usize = h.vertex_edge_counts().iter().sum();
        let e_total: usize = (0..h.n_edges()).map(|e| h.edge_degree(e)).sum();
        prop_assert_eq!(v_total, nnz);
        prop_assert_eq!(e_total, nnz);
    }

    #[test]
    fn mean_operators_are_row_stochastic(h in arb_hypergraph()) {
        for op in [h.vertex_to_edge_mean(), h.edge_to_vertex_mean()] {
            prop_assert!(op.validate().is_ok());
            for (r, s) in op.row_sums().iter().enumerate() {
                prop_assert!(
                    *s == 0.0 || (s - 1.0).abs() < 1e-5,
                    "row {} sums to {}", r, s
                );
            }
        }
    }

    #[test]
    fn laplacian_is_positive_semidefinite(h in arb_hypergraph(), seed in 0u64..1000) {
        let f = ahntp_tensor::xavier_uniform(N, 3, seed);
        prop_assert!(h.smoothness(&f) > -1e-4);
    }

    #[test]
    fn laplacian_annihilates_sqrt_degree_vector(h in arb_hypergraph()) {
        let null: Vec<f32> = h.vertex_degrees().iter().map(|&d| d.sqrt()).collect();
        let f = Tensor::from_vec(N, 1, null).expect("N degrees");
        prop_assert!(h.smoothness(&f).abs() < 1e-4);
    }

    #[test]
    fn incidence_pairs_are_sorted_and_complete(h in arb_hypergraph()) {
        let pairs = h.incidence_pairs();
        prop_assert_eq!(pairs.len(), h.incidence().nnz());
        for w in pairs.windows(2) {
            prop_assert!(w[0] < w[1], "pairs must be sorted and distinct");
        }
        let inc = h.incidence();
        prop_assert!(pairs.iter().all(|&(v, e)| inc.get(v, e) == 1.0));
    }

    #[test]
    fn closure_matches_a_naive_bfs(
        h in arb_hypergraph(),
        seeds in proptest::collection::vec(0usize..N, 0..4),
        hops in 0usize..4,
    ) {
        // The reference expands every hyperedge that touches the set, once
        // per hop, with no frontier and no marker over edges.
        let mut set: BTreeSet<usize> = seeds.iter().copied().collect();
        for _ in 0..hops {
            set = naive_hop(&h, &set).1;
        }
        let cache = AggregationCache::new(h);
        prop_assert_eq!(cache.closure(&seeds, hops), set.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concat_preserves_edge_multiset(h1 in arb_hypergraph(), h2 in arb_hypergraph()) {
        let c = Hypergraph::concat(&[&h1, &h2]);
        prop_assert_eq!(c.n_edges(), h1.n_edges() + h2.n_edges());
        for e in 0..h1.n_edges() {
            prop_assert_eq!(c.edge(e), h1.edge(e));
        }
        for e in 0..h2.n_edges() {
            prop_assert_eq!(c.edge(h1.n_edges() + e), h2.edge(e));
        }
    }

    #[test]
    fn influence_group_invariants(g in arb_digraph(), k in 1usize..5) {
        let scores: Vec<f64> = (0..N).map(|i| 1.0 / (i + 1) as f64).collect();
        let h = social_influence_hypergroup(&g, &scores, k);
        prop_assert_eq!(h.n_edges(), N, "one hyperedge per user");
        for u in 0..N {
            prop_assert!(h.edge(u).contains(&u), "central user {} missing", u);
            prop_assert!(h.edge_degree(u) <= k + 1);
        }
        prop_assert_eq!(h.stats().isolated_vertices, 0);
    }

    #[test]
    fn pairwise_group_is_two_uniform(g in arb_digraph()) {
        let h = pairwise_hypergroup(&g);
        for e in 0..h.n_edges() {
            prop_assert_eq!(h.edge_degree(e), 2);
        }
        // One hyperedge per undirected tie.
        let mut ties = std::collections::HashSet::new();
        for u in 0..N {
            for v in g.out_neighbors(u) {
                ties.insert((u.min(v), u.max(v)));
            }
        }
        prop_assert_eq!(h.n_edges(), ties.len());
    }

    #[test]
    fn capped_multihop_respects_bounds(g in arb_digraph(), hops in 1usize..4, cap in 1usize..8) {
        let h = multi_hop_hypergroup_capped(&g, hops, cap);
        prop_assert_eq!(h.n_edges(), hops * N);
        for e in 0..h.n_edges() {
            prop_assert!(h.edge_degree(e) <= cap + 1);
        }
    }

    #[test]
    fn sliced_identity_is_bitwise_full(h in arb_hypergraph()) {
        // The mini-batch exactness keystone: the identity slice must equal
        // the full extraction *bitwise*, not just numerically.
        let identity: Vec<usize> = (0..h.n_edges()).collect();
        let full = AggregationOps::full(&h);
        let cache = AggregationCache::new(h.clone());
        let sl = cache.slice_ops(&identity);
        prop_assert_eq!(sl.n_edges(), full.n_edges());
        prop_assert!(sl.edge_ids.is_none());
        prop_assert_eq!(csr_bits(&sl.v2e), csr_bits(&full.v2e));
        prop_assert_eq!(csr_bits(&sl.rows.e2v), csr_bits(&full.rows.e2v));
        // Same for Eq. 23's factor.
        let factor_full = SmoothnessFactor::build(&[(&cache, None)]);
        let factor_id = SmoothnessFactor::build(&[(&cache, Some(&identity))]);
        prop_assert_eq!(csr_bits(&factor_full.b), csr_bits(&factor_id.b));
        prop_assert_eq!(csr_bits(&factor_full.bt), csr_bits(&factor_id.bt));
    }

    #[test]
    fn mutation_sequences_keep_caches_exact(
        h in arb_hypergraph(),
        steps in proptest::collection::vec(arb_mutation(), 200),
    ) {
        // The streaming keystone: 200 interleaved add/remove/reweight/decay
        // steps, and after EVERY one the maintained incident-edge lists and
        // the operator rows read off them equal a fresh cache's, the full
        // set and Laplacian the cache hands out are bitwise the triplet
        // and from-scratch builds, and a slice is bitwise a dense one. Under
        // a telemetry context of its own, the `delta_*` counters are
        // exactly the mutations this case applied.
        ahntp_telemetry::Scope::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            let mut cache = AggregationCache::new(h);
            // Build the lists first so every mutation must update them.
            cache.adjacency();
            // Applied adds, removes, reweights, decays.
            let mut applied = [0u64; 4];
            for (k, step) in steps.into_iter().enumerate() {
                match step {
                    Mutation::Add(members, w) => {
                        cache.apply_add(&members, w).expect("valid by construction");
                        applied[0] += 1;
                    }
                    Mutation::Remove(raw) => {
                        if cache.n_edges() > 0 {
                            let e = raw % cache.n_edges();
                            cache.apply_remove(e).expect("id reduced into range");
                            applied[1] += 1;
                        }
                    }
                    Mutation::Reweight(raw, w) => {
                        if cache.n_edges() > 0 {
                            let e = raw % cache.n_edges();
                            cache.apply_reweight(e, w).expect("id reduced into range");
                            applied[2] += 1;
                        }
                    }
                    Mutation::Decay(f) => {
                        cache.apply_decay(f).expect("factor in (0, 1)");
                        applied[3] += 1;
                    }
                }
                assert_cache_exact(&cache, k)?;
            }
            let counted = ["add", "remove", "reweight", "decay"].map(|kind| {
                ahntp_telemetry::counter_get(&format!("hypergraph.cache.delta_{kind}"))
            });
            prop_assert_eq!(counted, applied);
            Ok(())
        })?;
    }

    #[test]
    fn attribute_group_members_share_the_attribute(
        attrs in proptest::collection::vec(proptest::collection::vec(0usize..6, 0..3), N)
    ) {
        let h = attribute_hypergroup(N, &attrs);
        for e in 0..h.n_edges() {
            prop_assert!(h.edge_degree(e) >= 2, "singleton attribute hyperedge");
            // All members share at least one attribute.
            let members = h.edge(e);
            let shared = (0..6).any(|a| {
                members.iter().all(|&u| attrs[u].contains(&a))
            });
            prop_assert!(shared, "edge {} members {:?} share nothing", e, members);
        }
    }
}
