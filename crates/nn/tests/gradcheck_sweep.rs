//! One parameterized finite-difference sweep over every layer and loss in
//! the crate: each case builds its module, runs the analytic backward
//! through the real `Session` machinery, then re-evaluates the scalar loss
//! under per-coordinate perturbations of every trainable parameter. A
//! mismatch fails with the case name and the offending parameter, e.g.
//! `case `adaptive_hypergraph_conv`: c.w_att[2]: analytic … vs numeric …`.
//!
//! This complements the per-op gradcheck in `ahntp-autograd` (which proves
//! each adjoint in isolation): the sweep catches *wiring* bugs — a
//! parameter bound twice, a dropped term, a slice path that scatters
//! gradients to the wrong edge rows.

use ahntp_graph::DiGraph;
use ahntp_hypergraph::{AggregationCache, Hypergraph, SmoothnessFactor};
use ahntp_nn::loss::{
    bce_from_similarity, combined_loss, similarity_to_probability, smoothness_penalty,
    supervised_contrastive, ContrastiveBatch,
};
use ahntp_nn::{
    AdaptiveHypergraphConv, GatConv, GcnConv, HypergraphConv, Linear, Mlp, Module, Param, Session,
};
use ahntp_tensor::{xavier_uniform, Tensor};
use std::rc::Rc;

const EPS: f32 = 4e-3;
const TOL: f32 = 3e-2;

fn toy_hypergraph() -> Hypergraph {
    let mut h = Hypergraph::new(5);
    h.add_edge(&[0, 1, 2]).expect("valid");
    h.add_edge(&[2, 3]).expect("valid");
    h.add_edge(&[0, 3, 4]).expect("valid");
    h.add_edge(&[1, 4]).expect("valid");
    h
}

fn toy_digraph() -> DiGraph {
    DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 0), (1, 3)]).expect("valid")
}

/// Runs one sweep case: analytic backward once, then central differences
/// on every parameter, a strided sample of coordinates each.
fn run_case(case: &str, params: Vec<Param>, forward: Box<dyn Fn(&Session) -> Var>) {
    assert!(!params.is_empty(), "case `{case}`: no parameters to check");
    // Analytic pass.
    let s = Session::new();
    forward(&s).backward();
    s.harvest();
    let loss_fn = || {
        let s = Session::new();
        forward(&s).value().as_slice()[0]
    };

    let mut grand_checked = 0usize;
    let mut grand_sampled = 0usize;
    for p in &params {
        let analytic = p.grad().unwrap_or_else(|| p.value().map(|_| 0.0));
        let original = p.value();
        let stride = (original.len() / 6).max(1);
        for i in (0..original.len()).step_by(stride) {
            let numeric_at = |eps: f32| -> f32 {
                let mut up = original.clone();
                up.as_mut_slice()[i] += eps;
                p.set_value(up);
                let loss_up = loss_fn();
                let mut down = original.clone();
                down.as_mut_slice()[i] -= eps;
                p.set_value(down);
                let loss_down = loss_fn();
                p.set_value(original.clone());
                (loss_up - loss_down) / (2.0 * eps)
            };
            // Two step sizes: disagreement means the coordinate straddles a
            // kink (ReLU / LeakyReLU) or a singularity, where central
            // differences are meaningless — skip it.
            let n1 = numeric_at(EPS);
            let n2 = numeric_at(EPS / 4.0);
            let instability = (n1 - n2).abs() / 1.0f32.max(n1.abs()).max(n2.abs());
            if instability > 0.05 {
                continue;
            }
            let a = analytic.as_slice()[i];
            let rel = (a - n2).abs() / 1.0f32.max(a.abs()).max(n2.abs());
            assert!(
                rel <= TOL,
                "case `{case}`: {}[{}]: analytic {} vs numeric {} (rel {})",
                p.name(),
                i,
                a,
                n2,
                rel
            );
            grand_checked += 1;
        }
        grand_sampled += original.len().div_ceil(stride);
    }
    assert!(
        grand_checked * 3 >= grand_sampled * 2,
        "case `{case}`: too many coordinates skipped as non-smooth \
         ({grand_checked}/{grand_sampled})"
    );
}

use ahntp_autograd::Var;

/// One sweep case: trainable parameters plus the scalar-loss closure.
type SweepCase = (Vec<Param>, Box<dyn Fn(&Session) -> Var>);

/// `(params, forward)` for a layer fed a fixed input, with a smooth
/// sum-of-squares readout.
fn layer_case<L: 'static>(
    layer: L,
    x: Tensor,
    forward: impl Fn(&L, &Session, &Var) -> Var + 'static,
    params: Vec<Param>,
) -> SweepCase {
    let f = move |s: &Session| {
        let xv = s.constant(x.clone());
        let y = forward(&layer, s, &xv);
        y.mul(&y).sum()
    };
    (params, Box::new(f))
}

/// Moves the adaptive layer's zero-initialised β off the LeakyReLU kink so
/// finite differences are well-posed.
fn nudge_beta(conv: &AdaptiveHypergraphConv) {
    for p in conv.params() {
        if p.name().ends_with("beta") {
            p.set_value(xavier_uniform(p.value().rows(), p.value().cols(), 99));
        }
    }
}

macro_rules! sweep {
    ($($name:ident => $setup:expr;)*) => {$(
        #[test]
        fn $name() {
            let (params, forward) = $setup;
            run_case(stringify!($name), params, forward);
        }
    )*};
}

sweep! {
    linear => {
        let l = Linear::new("lin", 4, 3, 11);
        let p = l.params();
        layer_case(l, xavier_uniform(5, 4, 1), |l, s, x| l.forward(s, x), p)
    };

    linear_he_no_bias => {
        let l = Linear::new_he_no_bias("he", 4, 3, 13);
        let p = l.params();
        layer_case(l, xavier_uniform(5, 4, 2), |l, s, x| l.forward(s, x), p)
    };

    mlp_two_layer => {
        let m = Mlp::new("mlp", &[4, 5, 3], false, 17);
        let p = m.params();
        layer_case(m, xavier_uniform(5, 4, 3), |m, s, x| m.forward(s, x), p)
    };

    hypergraph_conv => {
        let c = HypergraphConv::new("c", &toy_hypergraph(), 4, 3, 19);
        let p = c.params();
        layer_case(c, xavier_uniform(5, 4, 4), |c, s, x| c.forward(s, x), p)
    };

    hypergraph_conv_sliced => {
        // Gradients through the mini-batch slice path: edge weights of the
        // selected hyperedges must receive gradients at their *full-matrix*
        // rows, unselected ones must stay untouched.
        let h = toy_hypergraph();
        let c = HypergraphConv::new("c", &h, 4, 3, 23);
        let ops = AggregationCache::new(h.clone()).slice_ops(&[0, 2, 3]);
        let p = c.params();
        layer_case(
            c,
            xavier_uniform(5, 4, 5),
            move |c, s, x| c.forward_on(s, &ops, x),
            p,
        )
    };

    adaptive_hypergraph_conv => {
        let c = AdaptiveHypergraphConv::new("a", &toy_hypergraph(), 4, 3, 29);
        nudge_beta(&c);
        let p = c.params();
        layer_case(c, xavier_uniform(5, 4, 6), |c, s, x| c.forward(s, x), p)
    };

    adaptive_hypergraph_conv_sliced => {
        let h = toy_hypergraph();
        let c = AdaptiveHypergraphConv::new("a", &h, 4, 3, 31);
        nudge_beta(&c);
        let ops = AggregationCache::new(h.clone()).slice_ops(&[1, 2, 3]);
        let p = c.params();
        layer_case(
            c,
            xavier_uniform(5, 4, 7),
            move |c, s, x| c.forward_on(s, &ops, x),
            p,
        )
    };

    gcn_conv => {
        let g = toy_digraph();
        let adj = Rc::new(ahntp_nn::gcn_norm_adjacency(&g));
        let c = GcnConv::new("g", adj, 4, 3, false, 37);
        let p = c.params();
        layer_case(c, xavier_uniform(5, 4, 8), |c, s, x| c.forward(s, x), p)
    };

    gat_conv => {
        let c = GatConv::new("gat", &toy_digraph(), 4, 3, false, 41);
        let p = c.params();
        layer_case(c, xavier_uniform(5, 4, 9), |c, s, x| c.forward(s, x), p)
    };

    loss_similarity_to_probability => {
        // The input itself is the trainable: a cosine-similarity vector.
        let cs = Param::new("cs", Tensor::vector(vec![-0.7, -0.2, 0.1, 0.6, 0.85]));
        let p = vec![cs.clone()];
        let f = move |s: &Session| similarity_to_probability(&s.var(&cs)).sum();
        (p, Box::new(f) as Box<dyn Fn(&Session) -> Var>)
    };

    loss_bce_from_similarity => {
        let cs = Param::new("cs", Tensor::vector(vec![-0.6, -0.1, 0.2, 0.5, 0.8]));
        let labels = Tensor::vector(vec![0.0, 1.0, 0.0, 1.0, 1.0]);
        let p = vec![cs.clone()];
        let f = move |s: &Session| bce_from_similarity(s, &s.var(&cs), &labels);
        (p, Box::new(f) as Box<dyn Fn(&Session) -> Var>)
    };

    loss_supervised_contrastive => {
        let cs = Param::new("cs", Tensor::vector(vec![0.4, -0.3, 0.6, 0.1, -0.5, 0.2]));
        let batch = ContrastiveBatch::new(
            &[0, 0, 0, 1, 1, 1],
            &[true, false, true, true, false, false],
        );
        let p = vec![cs.clone()];
        let f = move |s: &Session| supervised_contrastive(s, &s.var(&cs), &batch, 0.3);
        (p, Box::new(f) as Box<dyn Fn(&Session) -> Var>)
    };

    loss_combined => {
        let cs = Param::new("cs", Tensor::vector(vec![0.3, -0.4, 0.7, -0.1]));
        let labels = Tensor::vector(vec![1.0, 0.0, 1.0, 0.0]);
        let batch = ContrastiveBatch::new(&[0, 0, 1, 1], &[true, false, true, false]);
        let p = vec![cs.clone()];
        let f = move |s: &Session| {
            let v = s.var(&cs);
            let l1 = supervised_contrastive(s, &v, &batch, 0.3);
            let l2 = bce_from_similarity(s, &v, &labels);
            combined_loss(&l1, &l2, 0.7, 1.3)
        };
        (p, Box::new(f) as Box<dyn Fn(&Session) -> Var>)
    };

    loss_smoothness_penalty => {
        let f_param = Param::new("f", xavier_uniform(5, 3, 43));
        let cache = AggregationCache::new(toy_hypergraph());
        let factor = SmoothnessFactor::build(&[(&cache, None)]);
        let p = vec![f_param.clone()];
        let f = move |s: &Session| smoothness_penalty(s, &factor, &s.var(&f_param));
        (p, Box::new(f) as Box<dyn Fn(&Session) -> Var>)
    };
}

/// The slice path must route edge-weight gradients to the *selected* rows
/// of the full weight column and leave unselected rows at zero — a
/// scatter-indexing bug here would silently corrupt mini-batch training.
#[test]
fn sliced_edge_weight_gradients_land_on_selected_rows() {
    let h = toy_hypergraph();
    let c = HypergraphConv::new("c", &h, 4, 3, 47);
    let ops = AggregationCache::new(h.clone()).slice_ops(&[0, 2]);
    let x = xavier_uniform(5, 4, 10);
    let s = Session::new();
    let xv = s.constant(x);
    let y = c.forward_on(&s, &ops, &xv);
    y.mul(&y).sum().backward();
    s.harvest();
    let w = c
        .params()
        .into_iter()
        .find(|p| p.name().ends_with("edge_w"))
        .expect("edge weight param");
    let grad = w.grad().expect("edge weights used");
    assert_eq!(grad.len(), 4, "gradient spans the full weight column");
    let g = grad.as_slice();
    assert!(g[0] != 0.0, "selected edge 0 gets gradient");
    assert!(g[2] != 0.0, "selected edge 2 gets gradient");
    assert_eq!(g[1], 0.0, "unselected edge 1 untouched");
    assert_eq!(g[3], 0.0, "unselected edge 3 untouched");
}
