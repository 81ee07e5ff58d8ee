//! Light-weight multi-layer perceptrons and the Adam optimizer that trains
//! them.
//!
//! §3.1 implements the prior generator `H` and the neural acquisition
//! function as "light-weight" networks (small MLPs). An [`Mlp`] holds only
//! dense-layer weights and ReLU/tanh activations, for inference. Training
//! state lives in an [`Adam`] for one training run; its step backpropagates
//! MSE ([`Adam::step_mse`]) or caller-supplied output gradients
//! ([`Adam::step`]) for softmax/cross-entropy heads.

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
        }
    }

    /// A layer of the same shape with every weight and bias zero.
    fn zeros_like(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            w: vec![0.0; self.w.len()],
            b: vec![0.0; self.b.len()],
        }
    }

    /// Checks that `w` holds `rows × cols` values and `b` holds `rows`.
    fn check_shape(&self) -> Result<(), String> {
        let (rows, cols, w, b) = (self.rows, self.cols, self.w.len(), self.b.len());
        if Some(w) != rows.checked_mul(cols) || b != rows {
            return Err(format!("{rows}x{cols} layer has {w} values in w and {b} in b"));
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

/// A multi-layer perceptron with identity output head. It holds weights
/// only; [`Adam`] trains it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    activation: Activation,
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
        Self { layers, activation }
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

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_width()`.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.forward(x, None)
    }

    /// Forward pass. With `inputs`, it keeps each layer's input there, in
    /// layer order, for backprop: entry `i` is what layer `i` consumed.
    fn forward(&self, x: &[f64], mut inputs: Option<&mut Vec<Vec<f64>>>) -> Vec<f64> {
        assert_eq!(x.len(), self.input_width(), "input width mismatch");
        let mut h = x.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut next = layer.forward(&h);
            if i != last {
                for v in &mut next {
                    *v = self.activation.apply(*v);
                }
            }
            if let Some(inputs) = inputs.as_deref_mut() {
                inputs.push(h);
            }
            h = next;
        }
        h
    }
}

/// The Adam optimizer state of one training run: the step count and the
/// first and second moments, laid out like the net's layers and starting at
/// zero. It lives only as long as the training loop that drives it; the
/// trained [`Mlp`] does not keep it.
#[derive(Debug)]
pub struct Adam {
    step: u64,
    m: Vec<Dense>,
    v: Vec<Dense>,
}

impl Adam {
    /// Fresh optimizer state shaped like `mlp`.
    #[must_use]
    pub fn new(mlp: &Mlp) -> Self {
        let zeros = mlp.layers.iter().map(Dense::zeros_like).collect::<Vec<_>>();
        Self {
            step: 0,
            m: zeros.clone(),
            v: zeros,
        }
    }

    /// One Adam step on mean-squared error over a batch.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or an empty batch.
    pub fn step_mse(&mut self, mlp: &mut Mlp, xs: &[Vec<f64>], ys: &[Vec<f64>], lr: f64) {
        assert_eq!(xs.len(), ys.len(), "batch inputs/targets must align");
        self.step(mlp, xs, lr, |i, o| {
            assert_eq!(o.len(), ys[i].len(), "target width mismatch");
            o.iter()
                .zip(&ys[i])
                .map(|(oi, yi)| 2.0 * (oi - yi) / (xs.len() * o.len()) as f64)
                .collect()
        });
    }

    /// One Adam step over a batch. Each sample runs forward once, keeping
    /// each layer's input; `output_grad(i, output)` returns the gradient of the
    /// loss w.r.t. sample `i`'s **output** (linear head), which is then
    /// backpropagated. This is the hook for MSE ([`Adam::step_mse`]),
    /// softmax cross-entropy heads (`∂L/∂logits = p − onehot`) and
    /// policy-gradient objectives.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or an empty batch.
    pub fn step<G>(&mut self, mlp: &mut Mlp, xs: &[Vec<f64>], lr: f64, mut output_grad: G)
    where
        G: FnMut(usize, &[f64]) -> Vec<f64>,
    {
        assert!(!xs.is_empty(), "empty training batch");
        let n_layers = mlp.layers.len();
        // Accumulated gradients.
        let mut grads: Vec<Dense> = mlp.layers.iter().map(Dense::zeros_like).collect();

        for (sample, x) in xs.iter().enumerate() {
            let mut inputs = Vec::with_capacity(n_layers);
            let output = mlp.forward(x, Some(&mut inputs));
            let mut delta = output_grad(sample, &output);
            assert_eq!(delta.len(), mlp.output_width(), "output grad width mismatch");
            for i in (0..n_layers).rev() {
                let layer = &mlp.layers[i];
                let grad = &mut grads[i];
                for (o, d) in delta.iter().enumerate() {
                    grad.b[o] += d;
                    let row = &mut grad.w[o * layer.cols..(o + 1) * layer.cols];
                    for (g, xi) in row.iter_mut().zip(&inputs[i]) {
                        *g += d * xi;
                    }
                }
                if i > 0 {
                    let mut prev = vec![0.0; layer.cols];
                    for (o, d) in delta.iter().enumerate() {
                        let row = &layer.w[o * layer.cols..(o + 1) * layer.cols];
                        for (p, w) in prev.iter_mut().zip(row) {
                            *p += d * w;
                        }
                    }
                    // Activation derivative uses the *activated* value,
                    // which is layer `i`'s input.
                    for (p, a) in prev.iter_mut().zip(&inputs[i]) {
                        *p *= mlp.activation.derivative(*a);
                    }
                    delta = prev;
                }
            }
        }

        // Adam update, weights then biases of each layer.
        self.step += 1;
        let t = self.step as f64;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        for (((layer, grad), m), v) in mlp.layers.iter_mut().zip(&grads).zip(&mut self.m).zip(&mut self.v) {
            for (param, g, m, v) in [
                (&mut layer.w, &grad.w, &mut m.w, &mut v.w),
                (&mut layer.b, &grad.b, &mut m.b, &mut v.b),
            ] {
                for (j, g) in g.iter().enumerate() {
                    m[j] = b1 * m[j] + (1.0 - b1) * g;
                    v[j] = b2 * v[j] + (1.0 - b2) * g * g;
                    param[j] -= lr * (m[j] / bias1) / ((v[j] / bias2).sqrt() + eps);
                }
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
        assert_eq!(mlp.predict(&[0.1, 0.2, 0.3, 0.4]).len(), 3);
    }

    #[test]
    fn learns_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut rng);
        let mut adam = Adam::new(&mlp);
        use rand::Rng;
        let xs: Vec<Vec<f64>> = (0..64).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![0.7 * x[0] - 0.3 * x[1] + 0.1]).collect();
        for _ in 0..400 {
            adam.step_mse(&mut mlp, &xs, &ys, 0.01);
        }
        let mse = xs.iter().zip(&ys).map(|(x, y)| (mlp.predict(x)[0] - y[0]).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mse < 1e-3, "final MSE {mse}");
    }

    #[test]
    fn learns_xor_with_relu() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[2, 16, 16, 1], Activation::Relu, &mut rng);
        let mut adam = Adam::new(&mlp);
        let xs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let ys = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        for _ in 0..2000 {
            adam.step_mse(&mut mlp, &xs, &ys, 0.01);
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
        let mut adam = Adam::new(&mlp);
        for _ in 0..200 {
            adam.step(&mut mlp, &xs, 0.01, |i, out| {
                let mut p = softmax(out);
                p[targets[i]] -= 1.0;
                p
            });
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
