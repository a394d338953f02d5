//! Optimizers: Adam (the paper's choice — lr 1e-3, weight decay 1e-4) and
//! SGD with momentum.

use crate::Param;
use ahntp_tensor::Tensor;

/// Publishes the global gradient L2 norm (over every param that has a
/// gradient) to the `train.grad_norm` gauge. Called by both optimizers at
/// the top of `step`, so the trainer and the run ledger can read the norm
/// of the step that was just applied. No-op while telemetry is disabled.
fn record_grad_norm(params: &[Param]) {
    if !ahntp_telemetry::enabled() {
        return;
    }
    let mut sq = 0.0f64;
    for p in params {
        if let Some(g) = p.grad() {
            sq += g
                .as_slice()
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>();
        }
    }
    ahntp_telemetry::gauge_set("train.grad_norm", sq.sqrt());
    ahntp_telemetry::counter_add("optim.steps", 1);
}

/// A first-order optimizer over a fixed parameter list.
pub trait Optimizer {
    /// Applies one update step from the gradients currently stored on the
    /// parameters (see [`crate::Session::harvest`]); parameters without a
    /// gradient are skipped.
    fn step(&mut self);

    /// Clears all parameter gradients.
    fn zero_grad(&mut self);

    /// The parameters being optimized.
    fn params(&self) -> &[Param];
}

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate (paper: 1e-3).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// L2 weight decay added to the gradient (paper: 1e-4).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 1e-4,
        }
    }
}

/// The Adam optimizer (Kingma & Ba) with L2 weight decay.
pub struct Adam {
    params: Vec<Param>,
    cfg: AdamConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u32,
}

impl Adam {
    /// Creates an optimizer over the given parameters with the paper's
    /// defaults.
    pub fn new(params: Vec<Param>, cfg: AdamConfig) -> Adam {
        let m = params.iter().map(|p| p.value().map(|_| 0.0)).collect();
        let v = params.iter().map(|p| p.value().map(|_| 0.0)).collect();
        Adam {
            params,
            cfg,
            m,
            v,
            t: 0,
        }
    }

    /// Number of update steps applied so far (the bias-correction clock).
    pub fn step_count(&self) -> u32 {
        self.t
    }

    /// The first and second moment estimates, aligned index-for-index with
    /// [`Optimizer::params`]. Exposed so training checkpoints can capture
    /// the full optimizer state — resuming with zeroed moments would not
    /// reproduce an uninterrupted trajectory.
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    /// Restores the optimizer clock and moment estimates captured by
    /// [`Adam::step_count`]/[`Adam::moments`] (via a training checkpoint).
    ///
    /// # Errors
    ///
    /// Rejects state whose length or tensor shapes disagree with the
    /// parameter list, leaving the optimizer untouched.
    pub fn restore_state(&mut self, t: u32, m: Vec<Tensor>, v: Vec<Tensor>) -> Result<(), String> {
        if m.len() != self.params.len() || v.len() != self.params.len() {
            return Err(format!(
                "moment count mismatch: {} params, {} first moments, {} second moments",
                self.params.len(),
                m.len(),
                v.len()
            ));
        }
        for (i, p) in self.params.iter().enumerate() {
            let shape = p.shape();
            if m[i].shape() != shape || v[i].shape() != shape {
                return Err(format!(
                    "moment shape mismatch for {}: param is {shape}, moments are {} / {}",
                    p.name(),
                    m[i].shape(),
                    v[i].shape()
                ));
            }
        }
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        record_grad_norm(&self.params);
        self.t += 1;
        let c = self.cfg;
        let bias1 = 1.0 - c.beta1.powi(self.t as i32);
        let bias2 = 1.0 - c.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let Some(mut g) = p.grad() else { continue };
            if c.weight_decay > 0.0 {
                p.with_value(|w| g.axpy_inplace(c.weight_decay, w));
            }
            // Each gradient entry is read once, then overwritten with its
            // update direction. The moments have the parameter's shape
            // (`new` and `restore_state` see to it), so the zip covers every
            // entry, and walking the three buffers together rather than
            // indexing them lets the loop vectorise with the same
            // per-element arithmetic.
            let (m, v) = (self.m[i].as_mut_slice(), self.v[i].as_mut_slice());
            for ((gk, mk), vk) in g.as_mut_slice().iter_mut().zip(m).zip(v) {
                *mk = c.beta1 * *mk + (1.0 - c.beta1) * *gk;
                *vk = c.beta2 * *vk + (1.0 - c.beta2) * *gk * *gk;
                let m_hat = *mk / bias1;
                let v_hat = *vk / bias2;
                *gk = m_hat / (v_hat.sqrt() + c.eps);
            }
            p.axpy(-c.lr, &g);
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Param] {
        &self.params
    }
}

/// Stochastic gradient descent with classical momentum and L2 weight decay.
pub struct Sgd {
    params: Vec<Param>,
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(params: Vec<Param>, lr: f32, momentum: f32, weight_decay: f32) -> Sgd {
        let velocity = params.iter().map(|p| p.value().map(|_| 0.0)).collect();
        Sgd {
            params,
            lr,
            momentum,
            weight_decay,
            velocity,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        record_grad_norm(&self.params);
        for (i, p) in self.params.iter().enumerate() {
            let Some(mut g) = p.grad() else { continue };
            if self.weight_decay > 0.0 {
                p.with_value(|w| g.axpy_inplace(self.weight_decay, w));
            }
            let v = &mut self.velocity[i];
            for k in 0..g.len() {
                v.as_mut_slice()[k] = self.momentum * v.as_slice()[k] + g.as_slice()[k];
            }
            p.axpy(-self.lr, v);
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Param] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    /// Minimise `(w - 3)^2` and check convergence.
    fn quadratic_grad(p: &Param) {
        let s = Session::new();
        let w = s.var(p);
        let target = s.constant(Tensor::full(1, 1, 3.0));
        let err = w.sub(&target);
        err.mul(&err).sum().backward();
        s.harvest();
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = Param::new("w", Tensor::full(1, 1, 0.0));
        let mut opt = Adam::new(
            vec![p.clone()],
            AdamConfig {
                lr: 0.1,
                weight_decay: 0.0,
                ..AdamConfig::default()
            },
        );
        for _ in 0..200 {
            opt.zero_grad();
            quadratic_grad(&p);
            opt.step();
        }
        let w = p.value().as_slice()[0];
        assert!((w - 3.0).abs() < 0.05, "Adam ended at {w}");
    }

    #[test]
    fn sgd_with_momentum_converges_on_quadratic() {
        let p = Param::new("w", Tensor::full(1, 1, 0.0));
        let mut opt = Sgd::new(vec![p.clone()], 0.05, 0.9, 0.0);
        for _ in 0..200 {
            opt.zero_grad();
            quadratic_grad(&p);
            opt.step();
        }
        let w = p.value().as_slice()[0];
        assert!((w - 3.0).abs() < 0.05, "SGD ended at {w}");
    }

    #[test]
    fn weight_decay_shrinks_unused_directions() {
        // With pure decay (no data gradient), weights decay towards zero...
        // but Adam skips params with no grad, so supply a zero gradient by
        // binding into a loss with coefficient 0.
        let p = Param::new("w", Tensor::full(1, 1, 1.0));
        let mut opt = Adam::new(
            vec![p.clone()],
            AdamConfig {
                lr: 0.05,
                weight_decay: 0.5,
                ..AdamConfig::default()
            },
        );
        for _ in 0..50 {
            opt.zero_grad();
            let s = Session::new();
            let w = s.var(&p);
            w.scale(0.0).sum().backward();
            s.harvest();
            opt.step();
        }
        assert!(
            p.value().as_slice()[0] < 0.7,
            "decay must shrink the weight, got {}",
            p.value().as_slice()[0]
        );
    }

    #[test]
    fn optimizers_skip_gradient_free_params() {
        let p = Param::new("w", Tensor::full(1, 1, 5.0));
        let mut opt = Adam::new(vec![p.clone()], AdamConfig::default());
        opt.step(); // no gradients harvested
        assert_eq!(p.value().as_slice()[0], 5.0);
        assert_eq!(opt.params().len(), 1);
    }
}
