//! Parameter-space finite-difference validation of whole layers: perturb
//! individual parameter entries through the real `Session` machinery and
//! compare against the harvested analytic gradients. This catches wiring
//! bugs (a parameter bound twice, a missing term in a layer's forward)
//! that per-op gradcheck cannot see.

use ahntp_hypergraph::Hypergraph;
use ahntp_nn::loss::{bce_from_similarity, supervised_contrastive, ContrastiveBatch};
use ahntp_nn::{AdaptiveHypergraphConv, HypergraphConv, Mlp, Module, Param, Session};
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

/// Checks every parameter of `params` against central differences of
/// `loss_fn` (which must be deterministic).
fn check_params(params: &[Param], loss_fn: &dyn Fn() -> f32) {
    // Analytic pass happens inside loss_fn via a Session the caller builds;
    // here we only re-evaluate the scalar loss under perturbations.
    let mut grand_checked = 0usize;
    let mut grand_sampled = 0usize;
    for p in params {
        let analytic = p.grad().unwrap_or_else(|| p.value().map(|_| 0.0));
        let original = p.value();
        let mut checked = 0usize;
        // Sample a handful of coordinates per parameter to keep runtime sane.
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
            // Two step sizes: if they disagree, the coordinate straddles a
            // kink (ReLU) or the cosine's zero-norm singularity and central
            // differences are meaningless there — skip it.
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
                "{}[{}]: analytic {} vs numeric {} (rel {})",
                p.name(),
                i,
                a,
                n2,
                rel
            );
            checked += 1;
        }
        grand_checked += checked;
        grand_sampled += original.len().div_ceil(stride);
    }
    // Individual coordinates may sit on a kink or the cosine's zero-norm
    // singularity (skipped above); across the whole parameter set most
    // coordinates must be smooth and verified.
    assert!(
        grand_checked * 3 >= grand_sampled * 2,
        "too many coordinates skipped as non-smooth ({grand_checked}/{grand_sampled})"
    );
}

#[test]
fn plain_hypergraph_conv_parameter_gradients() {
    let h = toy_hypergraph();
    let conv = HypergraphConv::new("c", &h, 4, 3, 11);
    let x = xavier_uniform(5, 4, 3);
    let loss_fn = || {
        let s = Session::new();
        let xv = s.constant(x.clone());
        let y = conv.forward(&s, &xv);
        y.mul(&y).sum().value().as_slice()[0]
    };
    // Analytic gradients.
    let s = Session::new();
    let xv = s.constant(x.clone());
    let y = conv.forward(&s, &xv);
    y.mul(&y).sum().backward();
    s.harvest();
    check_params(&conv.params(), &loss_fn);
}

#[test]
fn adaptive_hypergraph_conv_parameter_gradients() {
    let h = toy_hypergraph();
    let conv = AdaptiveHypergraphConv::new("a", &h, 4, 3, 13);
    // β is zero-initialised (uniform attention), which parks every
    // attention score exactly on the LeakyReLU kink; move it off zero so
    // the finite differences are well-posed.
    for p in conv.params() {
        if p.name().ends_with("beta") {
            p.set_value(xavier_uniform(6, 1, 99));
        }
    }
    let x = xavier_uniform(5, 4, 5);
    let loss_fn = || {
        let s = Session::new();
        let xv = s.constant(x.clone());
        let y = conv.forward(&s, &xv);
        y.mul(&y).sum().value().as_slice()[0]
    };
    let s = Session::new();
    let xv = s.constant(x.clone());
    let y = conv.forward(&s, &xv);
    y.mul(&y).sum().backward();
    s.harvest();
    check_params(&conv.params(), &loss_fn);
}

#[test]
fn full_loss_pipeline_parameter_gradients() {
    // MLP → conv → towers → cosine → contrastive + balanced BCE: the exact
    // shape of the AHNTP objective, checked in parameter space.
    let h = toy_hypergraph();
    let mlp = Mlp::new("m", &[4, 6], true, 17);
    let conv = HypergraphConv::new("c", &h, 6, 4, 19);
    let tower_a = Mlp::new("ta", &[4, 3], false, 23);
    let tower_b = Mlp::new("tb", &[4, 3], false, 29);
    let x = xavier_uniform(5, 4, 7);
    let anchors = vec![0usize, 0, 1, 1];
    let partners = Rc::new(vec![1usize, 3, 2, 4]);
    let anchor_idx = Rc::new(anchors.clone());
    let labels = [true, false, true, false];
    let label_t = Tensor::vector(labels.iter().map(|&b| f32::from(b)).collect());

    let forward = |s: &Session| {
        let xv = s.constant(x.clone());
        let emb = conv.forward(s, &mlp.forward(s, &xv));
        let ta = tower_a.forward(s, &emb);
        let tb = tower_b.forward(s, &emb);
        let cs = s.graph().pair_cosine(&ta, &tb, &anchor_idx, &partners);
        let l2 = bce_from_similarity(s, &cs, &label_t);
        let batch = ContrastiveBatch::new(&anchors, &labels);
        let l1 = supervised_contrastive(s, &cs, &batch, 0.3);
        l1.add(&l2)
    };
    let loss_fn = || {
        let s = Session::new();
        forward(&s).value().as_slice()[0]
    };
    let s = Session::new();
    forward(&s).backward();
    s.harvest();
    // exp(cs / t) at t = 0.3 is strongly curved; central differences need a
    // finer step here than the layer-level checks.
    let mut params = mlp.params();
    params.extend(conv.params());
    params.extend(tower_a.params());
    params.extend(tower_b.params());
    check_params(&params, &loss_fn);
}
