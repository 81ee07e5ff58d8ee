//! Light-weight multi-layer perceptrons with Adam.
//!
//! §3.1 implements the prior generator `H` and the neural acquisition
//! function as "light-weight" networks (small MLPs). This module provides
//! exactly that: dense layers, ReLU/tanh activations, manual backprop, and
//! an Adam optimizer. Callers can train against mean-squared error directly
//! ([`Mlp::train_mse`]) or supply custom output gradients
//! ([`Mlp::train_with_output_grads`]) for softmax/cross-entropy heads and
//! policy-gradient objectives.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }

    fn derivative(self, activated: f64) -> f64 {
        match self {
            Activation::Relu => {
                if activated > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - activated * activated,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    rows: usize, // outputs
    cols: usize, // inputs
    w: Vec<f64>,
    b: Vec<f64>,
    // Adam state.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        // He-style initialization.
        let scale = (2.0 / inputs as f64).sqrt();
        let w = (0..inputs * outputs).map(|_| rng.gen_range(-scale..scale)).collect();
        Self {
            rows: outputs,
            cols: inputs,
            w,
            b: vec![0.0; outputs],
            mw: vec![0.0; inputs * outputs],
            vw: vec![0.0; inputs * outputs],
            mb: vec![0.0; outputs],
            vb: vec![0.0; outputs],
        }
    }

    /// Checks that every buffer is as long as `rows × cols` implies.
    fn check_shape(&self) -> Result<(), String> {
        let weights = [self.w.len(), self.mw.len(), self.vw.len()];
        let biases = [self.b.len(), self.mb.len(), self.vb.len()];
        let cells = self.rows.checked_mul(self.cols);
        if weights.iter().any(|&n| Some(n) != cells) || biases.iter().any(|&n| n != self.rows) {
            return Err(format!(
                "{}x{} layer has weight buffers of {weights:?} and bias buffers of {biases:?}",
                self.rows, self.cols
            ));
        }
        Ok(())
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        (0..self.rows)
            .map(|o| {
                let row = &self.w[o * self.cols..(o + 1) * self.cols];
                self.b[o] + row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>()
            })
            .collect()
    }
}

/// A multi-layer perceptron with identity output head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    activation: Activation,
    step: u64,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[16, 32, 32, 4]`.
    /// Hidden layers use `activation`; the output layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(widths: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(widths.len() >= 2, "an MLP needs input and output widths");
        assert!(widths.iter().all(|w| *w > 0), "layer widths must be positive");
        let layers = widths.windows(2).map(|w| Dense::new(w[0], w[1], rng)).collect();
        Self {
            layers,
            activation,
            step: 0,
        }
    }

    /// Checks a decoded net's shape: at least one layer, every buffer as
    /// long as its layer's `rows × cols`, and each layer's inputs equal to
    /// the previous layer's outputs. Only lengths are compared, so the cost
    /// does not grow with the weights.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("the net has no layers".into());
        }
        for (i, layer) in self.layers.iter().enumerate() {
            layer.check_shape().map_err(|e| format!("layer {i}: {e}"))?;
        }
        for (i, pair) in self.layers.windows(2).enumerate() {
            if pair[1].cols != pair[0].rows {
                return Err(format!(
                    "layer {} takes {} inputs but layer {i} gives {}",
                    i + 1,
                    pair[1].cols,
                    pair[0].rows
                ));
            }
        }
        Ok(())
    }

    /// Input width.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.layers[0].cols
    }

    /// Output width.
    // `new` installs at least one layer, and the artifact loader rejects a
    // decoded net that `check_shape` refuses, so `last()` cannot be empty.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.layers.last().expect("at least one layer").rows
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_width()`.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_width(), "input width mismatch");
        let mut h = x.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i != last {
                for v in &mut h {
                    *v = self.activation.apply(*v);
                }
            }
        }
        h
    }

    /// One Adam step on mean-squared error over a batch. Returns the batch
    /// MSE before the update.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or an empty batch.
    pub fn train_mse(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], lr: f64) -> f64 {
        assert_eq!(xs.len(), ys.len(), "batch inputs/targets must align");
        let mut loss = 0.0;
        let outputs: Vec<Vec<f64>> = xs.iter().map(|x| self.predict(x)).collect();
        let grads: Vec<Vec<f64>> = outputs
            .iter()
            .zip(ys)
            .map(|(o, y)| {
                assert_eq!(o.len(), y.len(), "target width mismatch");
                o.iter()
                    .zip(y)
                    .map(|(oi, yi)| {
                        let d = oi - yi;
                        loss += d * d;
                        2.0 * d / (xs.len() * o.len()) as f64
                    })
                    .collect()
            })
            .collect();
        self.train_with_output_grads(xs, &grads, lr);
        loss / (xs.len().max(1) * self.output_width()) as f64
    }

    /// One Adam step given per-sample gradients of the loss w.r.t. the
    /// network **output** (linear head). This is the hook for softmax
    /// cross-entropy heads (`∂L/∂logits = p − onehot`) and policy-gradient
    /// objectives.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or an empty batch.
    pub fn train_with_output_grads(&mut self, xs: &[Vec<f64>], output_grads: &[Vec<f64>], lr: f64) {
        assert!(!xs.is_empty(), "empty training batch");
        assert_eq!(xs.len(), output_grads.len());
        let n_layers = self.layers.len();
        // Accumulated gradients.
        let mut gw: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        for (x, out_grad) in xs.iter().zip(output_grads) {
            assert_eq!(out_grad.len(), self.output_width(), "output grad width mismatch");
            // Forward, caching activations per layer: layer `i` consumes
            // activation `i` and pushes activation `i + 1`.
            let mut acts: Vec<Vec<f64>> = vec![x.clone()];
            for (i, layer) in self.layers.iter().enumerate() {
                let mut h = layer.forward(&acts[i]);
                if i != n_layers - 1 {
                    for v in &mut h {
                        *v = self.activation.apply(*v);
                    }
                }
                acts.push(h);
            }
            // Backward.
            let mut delta = out_grad.clone();
            for i in (0..n_layers).rev() {
                let input = &acts[i];
                for (o, d) in delta.iter().enumerate() {
                    gb[i][o] += d;
                    let row = &mut gw[i][o * self.layers[i].cols..(o + 1) * self.layers[i].cols];
                    for (g, xi) in row.iter_mut().zip(input) {
                        *g += d * xi;
                    }
                }
                if i > 0 {
                    let layer = &self.layers[i];
                    let mut prev = vec![0.0; layer.cols];
                    for (o, d) in delta.iter().enumerate() {
                        let row = &layer.w[o * layer.cols..(o + 1) * layer.cols];
                        for (p, w) in prev.iter_mut().zip(row) {
                            *p += d * w;
                        }
                    }
                    // Activation derivative uses the *activated* value.
                    for (p, a) in prev.iter_mut().zip(&acts[i]) {
                        *p *= self.activation.derivative(*a);
                    }
                    delta = prev;
                }
            }
        }

        // Adam update.
        self.step += 1;
        let t = self.step as f64;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            for (j, g) in gw[i].iter().enumerate() {
                layer.mw[j] = b1 * layer.mw[j] + (1.0 - b1) * g;
                layer.vw[j] = b2 * layer.vw[j] + (1.0 - b2) * g * g;
                layer.w[j] -= lr * (layer.mw[j] / bias1) / ((layer.vw[j] / bias2).sqrt() + eps);
            }
            for (j, g) in gb[i].iter().enumerate() {
                layer.mb[j] = b1 * layer.mb[j] + (1.0 - b1) * g;
                layer.vb[j] = b2 * layer.vb[j] + (1.0 - b2) * g * g;
                layer.b[j] -= lr * (layer.mb[j] / bias1) / ((layer.vb[j] / bias2).sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.input_width(), 4);
        assert_eq!(mlp.output_width(), 3);
        assert_eq!(mlp.parameter_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(mlp.predict(&[0.1, 0.2, 0.3, 0.4]).len(), 3);
    }

    #[test]
    fn learns_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut rng);
        use rand::Rng;
        let xs: Vec<Vec<f64>> = (0..64).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![0.7 * x[0] - 0.3 * x[1] + 0.1]).collect();
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            last = mlp.train_mse(&xs, &ys, 0.01);
        }
        assert!(last < 1e-3, "final MSE {last}");
    }

    #[test]
    fn learns_xor_with_relu() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[2, 16, 16, 1], Activation::Relu, &mut rng);
        let xs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let ys = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        for _ in 0..2000 {
            mlp.train_mse(&xs, &ys, 0.01);
        }
        for (x, y) in xs.iter().zip(&ys) {
            let p = mlp.predict(x)[0];
            assert!((p - y[0]).abs() < 0.2, "xor({x:?}) = {p}");
        }
    }

    #[test]
    fn softmax_head_gradient_decreases_cross_entropy() {
        use crate::stats::softmax;
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[3, 16, 4], Activation::Relu, &mut rng);
        let xs = vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let targets = [0usize, 1, 2];
        let ce = |mlp: &Mlp| -> f64 { xs.iter().zip(targets).map(|(x, t)| -softmax(&mlp.predict(x))[t].ln()).sum::<f64>() };
        let before = ce(&mlp);
        for _ in 0..200 {
            let grads: Vec<Vec<f64>> = xs
                .iter()
                .zip(targets)
                .map(|(x, t)| {
                    let mut p = softmax(&mlp.predict(x));
                    p[t] -= 1.0;
                    p
                })
                .collect();
            mlp.train_with_output_grads(&xs, &grads, 0.01);
        }
        let after = ce(&mlp);
        assert!(after < before * 0.2, "CE {before} -> {after}");
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(9);
            Mlp::new(&[2, 4, 1], Activation::Relu, &mut rng).predict(&[0.5, -0.5])
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn check_shape_accepts_built_nets_and_rejects_broken_ones() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&[3, 4, 2], Activation::Relu, &mut rng);
        assert_eq!(mlp.check_shape(), Ok(()));

        let mut empty = mlp.clone();
        empty.layers.clear();
        assert!(empty.check_shape().is_err());

        let mut short = mlp.clone();
        short.layers[0].w.truncate(3);
        assert!(short.check_shape().is_err());

        let mut short_adam = mlp.clone();
        short_adam.layers[1].vb.pop();
        assert!(short_adam.check_shape().is_err());

        let mut unchained = mlp;
        unchained.layers.swap(0, 1);
        assert!(unchained.check_shape().is_err());
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn predict_checks_width() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&[3, 4, 1], Activation::Relu, &mut rng);
        let _ = mlp.predict(&[1.0]);
    }
}
