//! Parameters and the parameter-binding session.

use ahntp_autograd::{Graph, Var};
use ahntp_tensor::{Shape, Tensor};
use std::cell::RefCell;
use std::rc::Rc;

/// A trainable parameter: a named tensor that persists across training
/// steps, plus the gradient harvested from the most recent backward pass.
///
/// `Param` is a shared handle (`Clone` aliases the same storage), which is
/// how layers and optimizers see the same values without lifetimes.
#[derive(Clone)]
pub struct Param {
    inner: Rc<RefCell<ParamData>>,
}

struct ParamData {
    name: String,
    value: Tensor,
    grad: Option<Tensor>,
}

impl std::fmt::Debug for Param {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.inner.borrow();
        write!(f, "Param({}, {})", d.name, d.value.shape())
    }
}

impl Param {
    /// Creates a parameter with the given diagnostic name and initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Param {
        Param {
            inner: Rc::new(RefCell::new(ParamData {
                name: name.into(),
                value,
                grad: None,
            })),
        }
    }

    /// The parameter's diagnostic name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// A copy of the current value.
    pub fn value(&self) -> Tensor {
        self.inner.borrow().value.clone()
    }

    /// The value's shape, without copying the value.
    pub fn shape(&self) -> Shape {
        self.inner.borrow().value.shape()
    }

    /// Runs `f` on the current value where it lies — what a caller that
    /// only reads the value uses instead of [`Param::value`]'s copy. `f`
    /// must not update this parameter.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.inner.borrow().value)
    }

    /// Replaces the value (used by optimizers and tests).
    pub fn set_value(&self, value: Tensor) {
        self.inner.borrow_mut().value = value;
    }

    /// The gradient from the most recent harvested backward pass.
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.borrow().grad.clone()
    }

    /// Clears the stored gradient.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad = None;
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.inner.borrow().value.len()
    }

    /// In-place SGD-style update `value += alpha * delta` (optimizer hook).
    pub fn axpy(&self, alpha: f32, delta: &Tensor) {
        self.inner.borrow_mut().value.axpy_inplace(alpha, delta);
    }

    fn ptr_id(&self) -> usize {
        Rc::as_ptr(&self.inner) as usize
    }
}

/// Anything with trainable parameters. `params()` must return a stable
/// ordering so optimizer state stays aligned across steps.
pub trait Module {
    /// All parameters of this module (and its children), in a stable order.
    fn params(&self) -> Vec<Param>;

    /// Total scalar parameter count.
    fn numel(&self) -> usize {
        self.params().iter().map(Param::numel).sum()
    }
}

/// Binds [`Param`]s into one autograd [`Graph`] for a single forward /
/// backward pass, and harvests gradients back afterwards.
///
/// Binding is cached per parameter: if the same `Param` is used at several
/// places in the forward pass it maps to a single tape leaf, so its
/// gradient contributions accumulate exactly as weight sharing requires.
pub struct Session {
    graph: Graph,
    bound: RefCell<Vec<(Param, Var)>>,
}

impl Session {
    /// Starts a session on a fresh tape.
    pub fn new() -> Session {
        Session {
            graph: Graph::new(),
            bound: RefCell::new(Vec::new()),
        }
    }

    /// The underlying tape.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Leafs `p`'s current value into the tape (cached per parameter).
    pub fn var(&self, p: &Param) -> Var {
        let mut bound = self.bound.borrow_mut();
        if let Some((_, v)) = bound.iter().find(|(q, _)| q.ptr_id() == p.ptr_id()) {
            return v.clone();
        }
        let v = self.graph.leaf(p.value());
        bound.push((p.clone(), v.clone()));
        v
    }

    /// Records a non-differentiable input on this session's tape.
    pub fn constant(&self, t: Tensor) -> Var {
        self.graph.constant(t)
    }

    /// Moves each bound parameter's tape gradient into the parameter.
    /// Call once after `loss.backward()`: the tape's leaves are left
    /// without gradients. Parameters that did not influence the loss keep
    /// `grad = None`.
    pub fn harvest(&self) {
        for (p, v) in self.bound.borrow().iter() {
            p.inner.borrow_mut().grad = v.take_grad();
        }
    }

    /// Number of distinct parameters bound so far.
    pub fn n_bound(&self) -> usize {
        self.bound.borrow().len()
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_roundtrip() {
        let p = Param::new("w", Tensor::full(2, 2, 1.5));
        assert_eq!(p.name(), "w");
        assert_eq!(p.numel(), 4);
        p.axpy(-1.0, &Tensor::full(2, 2, 0.5));
        assert_eq!(p.value().as_slice(), &[1.0; 4]);
    }

    #[test]
    fn session_binds_each_param_once() {
        let p = Param::new("w", Tensor::full(1, 2, 2.0));
        let s = Session::new();
        let v1 = s.var(&p);
        let v2 = s.var(&p);
        assert_eq!(s.n_bound(), 1);
        // Shared binding → gradients accumulate through both uses.
        let loss = v1.add(&v2).sum();
        loss.backward();
        s.harvest();
        assert_eq!(p.grad().expect("bound param").as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn harvest_leaves_unused_params_without_grad() {
        let used = Param::new("a", Tensor::full(1, 1, 1.0));
        let unused = Param::new("b", Tensor::full(1, 1, 1.0));
        let s = Session::new();
        let v = s.var(&used);
        let _dangling = s.var(&unused);
        v.sum().backward();
        s.harvest();
        assert!(used.grad().is_some());
        assert!(unused.grad().is_none());
        used.zero_grad();
        assert!(used.grad().is_none());
    }

    #[test]
    fn clones_alias_storage() {
        let p = Param::new("w", Tensor::full(1, 1, 1.0));
        let q = p.clone();
        q.set_value(Tensor::full(1, 1, 9.0));
        assert_eq!(p.value().as_slice(), &[9.0]);
    }
}
