//! Cross-crate integration of the substrates: motif PageRank feeding
//! hypergroups, hypergroups feeding convolutions, convolutions feeding the
//! losses — checking the joints the unit tests cannot see.

use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_graph::{motif_pagerank, Motif, MotifPageRankConfig};
use ahntp_hypergraph::{
    attribute_hypergroup, multi_hop_hypergroup_capped, pairwise_hypergroup,
    social_influence_hypergroup, Hypergraph,
};
use ahntp_nn::loss::{bce_from_similarity, supervised_contrastive, ContrastiveBatch};
use ahntp_nn::{AdaptiveHypergraphConv, Mlp, Module, Session};
use ahntp_tensor::Tensor;
use std::rc::Rc;

fn dataset() -> TrustDataset {
    TrustDataset::generate(&DatasetConfig::epinions_like(120, 31))
}

#[test]
fn trust_hypergraph_covers_every_user() {
    let ds = dataset();
    let scores = motif_pagerank(&ds.graph, Motif::M6, &MotifPageRankConfig::default());
    let hss = social_influence_hypergroup(&ds.graph, &scores, 5);
    let attr = attribute_hypergroup(ds.graph.n(), &ds.attributes);
    let pair = pairwise_hypergroup(&ds.graph);
    let hop = multi_hop_hypergroup_capped(&ds.graph, 2, 32);
    let full = Hypergraph::concat(&[&hss, &attr, &pair, &hop]);
    let stats = full.stats();
    assert_eq!(stats.isolated_vertices, 0, "every user must be embedded");
    assert!(stats.n_edges > ds.graph.n(), "rich hyperedge structure");
    // Incidence structure round-trips through the conv operators.
    let v2e = full.vertex_to_edge_mean();
    let e2v = full.edge_to_vertex_mean();
    assert_eq!(v2e.rows(), full.n_edges());
    assert_eq!(e2v.rows(), full.n_vertices());
    // Mean operators are row-stochastic where defined.
    for sums in [v2e.row_sums(), e2v.row_sums()] {
        for s in sums {
            assert!(s == 0.0 || (s - 1.0).abs() < 1e-4, "row sum {s}");
        }
    }
}

#[test]
fn gradients_flow_from_losses_through_conv_to_mlp() {
    // Build a miniature of the model manually from public APIs and check
    // that both loss terms propagate gradients into every layer.
    let ds = dataset();
    let scores = motif_pagerank(&ds.graph, Motif::M6, &MotifPageRankConfig::default());
    let hss = social_influence_hypergroup(&ds.graph, &scores, 4);
    let pair = pairwise_hypergroup(&ds.graph);
    let hg = Hypergraph::concat(&[&hss, &pair]);

    let mlp = Mlp::new("mlp", &[ds.feature_dim(), 16], true, 1);
    let conv = AdaptiveHypergraphConv::new("conv", &hg, 16, 8, 2);
    let tower = Mlp::new("tower", &[8, 8], false, 3);

    let s = Session::new();
    let x = s.constant(ds.features.clone());
    let h = conv.forward(&s, &mlp.forward(&s, &x));
    let t = tower.forward(&s, &h);

    // Pairs: first 10 positives as anchors' positives, 10 random negatives.
    let trustors: Vec<usize> = ds.positives.iter().take(10).map(|&(u, _)| u).collect();
    let trustees: Vec<usize> = ds.positives.iter().take(10).map(|&(_, v)| v).collect();
    let mut anchors = trustors.clone();
    let mut partners = trustees.clone();
    let mut labels = vec![true; 10];
    for k in 0..10usize {
        anchors.push(trustors[k]);
        partners.push((trustees[k] + 37) % ds.graph.n());
        labels.push(false);
    }
    let cs = s
        .graph()
        .pair_cosine(&t, &t, &Rc::new(anchors.clone()), &Rc::new(partners));

    let label_t = Tensor::vector(labels.iter().map(|&b| f32::from(b)).collect());
    let l2 = bce_from_similarity(&s, &cs, &label_t);
    let batch = ContrastiveBatch::new(&anchors, &labels);
    let l1 = supervised_contrastive(&s, &cs, &batch, 0.3);
    let loss = l1.add(&l2);
    assert!(loss.value().all_finite());
    loss.backward();
    s.harvest();

    let mut with_grad = 0usize;
    let mut total = 0usize;
    for p in mlp
        .params()
        .into_iter()
        .chain(conv.params())
        .chain(tower.params())
    {
        total += 1;
        if let Some(g) = p.grad() {
            assert!(g.all_finite(), "{}: non-finite gradient", p.name());
            if g.frobenius_norm() > 0.0 {
                with_grad += 1;
            }
        }
    }
    assert!(
        with_grad * 10 >= total * 8,
        "at least 80% of parameters receive nonzero gradients ({with_grad}/{total})"
    );
}

#[test]
fn attention_reacts_to_feature_change() {
    // The adaptive layer's coefficients must depend on the inputs — the
    // "dynamic weights" claim of §IV-C.
    let ds = dataset();
    let pair = pairwise_hypergroup(&ds.graph);
    let attr = attribute_hypergroup(ds.graph.n(), &ds.attributes);
    let hg = Hypergraph::concat(&[&pair, &attr]);
    let conv = AdaptiveHypergraphConv::new("conv", &hg, ds.feature_dim(), 8, 5);
    // β is zero-initialised (uniform attention at the start); give it a
    // nonzero value so the coefficients can respond to the inputs, as they
    // do after the first training steps.
    for p in conv.params() {
        if p.name().ends_with("beta") {
            p.set_value(ahntp_tensor::xavier_uniform(16, 1, 7));
        }
    }
    let a1 = conv.attention_coefficients(&ds.features);
    let mut bumped = ds.features.clone();
    for v in bumped.row_mut(0) {
        *v += 1.0;
    }
    let a2 = conv.attention_coefficients(&bumped);
    let diff: f32 = a1.iter().zip(&a2).map(|(x, y)| (x - y).abs()).sum();
    assert!(
        diff > 1e-4,
        "attention must be input-dependent, diff {diff}"
    );
}

#[test]
fn multihop_depth_changes_the_hypergraph_not_the_vertex_set() {
    let ds = dataset();
    let h1 = multi_hop_hypergroup_capped(&ds.graph, 1, 32);
    let h3 = multi_hop_hypergroup_capped(&ds.graph, 3, 32);
    assert_eq!(h1.n_vertices(), h3.n_vertices());
    assert_eq!(h3.n_edges(), 3 * h1.n_edges());
    // Deeper levels reach at least as many users per hyperedge on average.
    assert!(h3.stats().mean_edge_size >= h1.stats().mean_edge_size);
}
