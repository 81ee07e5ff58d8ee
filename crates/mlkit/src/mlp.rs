//! Light-weight multi-layer perceptrons and the Adam optimizer that trains
//! them.
//!
//! §3.1 implements the prior generator `H` and the neural acquisition
//! function as "light-weight" networks (small MLPs). An [`Mlp`] holds only
//! dense-layer weights and ReLU/tanh activations, for inference. Training
//! state lives in an [`Adam`] for one training run; its step backpropagates
//! MSE ([`Adam::step_mse`]) or caller-supplied output gradients
//! ([`Adam::step`]) for softmax/cross-entropy heads.
//!
//! A training batch is one flat row-major buffer. It runs through the same
//! forward routine as [`Mlp::predict`], which keeps one buffer per layer
//! for the whole batch, and every sum runs in the order a one-row forward
//! and a sample-by-sample backward would use, so a batch step is
//! bit-identical to accumulating its samples one at a time.

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

    /// Writes `b + W·x` for every `cols`-wide row `x` of `xs` into `out`,
    /// row after row.
    ///
    /// Each dot product is summed in input order from `-0.0`, exactly as
    /// `Iterator::sum` does, but four outputs are summed side by side: the
    /// four chains of dependent adds overlap instead of waiting on each
    /// other, and every output keeps its bits.
    fn forward(&self, xs: &[f64], out: &mut Vec<f64>) {
        let cols = self.cols;
        out.clear();
        for x in xs.chunks_exact(cols) {
            let mut quads = self.w.chunks_exact(4 * cols);
            for quad in &mut quads {
                let (w0, rest) = quad.split_at(cols);
                let (w1, rest) = rest.split_at(cols);
                let (w2, w3) = rest.split_at(cols);
                let mut sums = [-0.0f64; 4];
                for ((((a, b), c), d), xi) in w0.iter().zip(w1).zip(w2).zip(w3).zip(x) {
                    sums[0] += a * xi;
                    sums[1] += b * xi;
                    sums[2] += c * xi;
                    sums[3] += d * xi;
                }
                out.extend(sums);
            }
            for row in quads.remainder().chunks_exact(cols) {
                out.push(row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>());
            }
            let start = out.len() - self.rows;
            for (o, b) in out[start..].iter_mut().zip(&self.b) {
                *o += b;
            }
        }
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
        assert_eq!(x.len(), self.input_width(), "input width mismatch");
        let mut outputs = Vec::new();
        self.forward(x, &mut outputs);
        outputs.pop().expect("at least one layer")
    }

    /// Forward pass over the flat row-major batch `xs`. Afterwards
    /// `outputs[i]` holds layer `i`'s output for every row (activated for
    /// hidden layers), so layer `i > 0` consumed `outputs[i - 1]` and the
    /// last entry is the net's output.
    fn forward(&self, xs: &[f64], outputs: &mut Vec<Vec<f64>>) {
        assert_eq!(xs.len() % self.input_width(), 0, "input width mismatch");
        outputs.resize_with(self.layers.len(), Vec::new);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = outputs.split_at_mut(i);
            let input = done.last().map_or(xs, Vec::as_slice);
            layer.forward(input, &mut rest[0]);
            if i != last {
                for v in &mut rest[0] {
                    *v = self.activation.apply(*v);
                }
            }
        }
    }
}

/// The Adam optimizer state of one training run: the step count and the
/// first and second moments, laid out like the net's layers and starting at
/// zero, plus the per-batch buffers a step reuses. It lives only as long as
/// the training loop that drives it; the trained [`Mlp`] does not keep it.
#[derive(Debug)]
pub struct Adam {
    step: u64,
    m: Vec<Dense>,
    v: Vec<Dense>,
    grads: Vec<Dense>,
    outputs: Vec<Vec<f64>>,
    delta: Vec<f64>,
    prev: Vec<f64>,
}

impl Adam {
    /// Fresh optimizer state shaped like `mlp`.
    #[must_use]
    pub fn new(mlp: &Mlp) -> Self {
        let zeros = mlp.layers.iter().map(Dense::zeros_like).collect::<Vec<_>>();
        Self {
            step: 0,
            m: zeros.clone(),
            v: zeros.clone(),
            grads: zeros,
            outputs: Vec::new(),
            delta: Vec::new(),
            prev: Vec::new(),
        }
    }

    /// One Adam step on mean-squared error over a batch: `xs` holds the
    /// inputs and `ys` the targets, one row after another.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or an empty batch.
    pub fn step_mse(&mut self, mlp: &mut Mlp, xs: &[f64], ys: &[f64], lr: f64) {
        let width = mlp.output_width();
        let n = xs.len() / mlp.input_width();
        assert_eq!(ys.len(), n * width, "batch inputs/targets must align");
        let scale = (n * width) as f64;
        self.step(mlp, xs, lr, |i, o, grad| {
            for ((g, oi), yi) in grad.iter_mut().zip(o).zip(&ys[i * width..(i + 1) * width]) {
                *g = 2.0 * (oi - yi) / scale;
            }
        });
    }

    /// One Adam step over the flat row-major batch `xs`. The batch runs
    /// forward once; `output_grad(i, output, grad)` then writes into `grad`
    /// the gradient of the loss w.r.t. sample `i`'s **output** (linear
    /// head), which is backpropagated. This is the hook for MSE
    /// ([`Adam::step_mse`]), softmax cross-entropy heads
    /// (`∂L/∂logits = p − onehot`) and policy-gradient objectives.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or an empty batch.
    pub fn step<G>(&mut self, mlp: &mut Mlp, xs: &[f64], lr: f64, mut output_grad: G)
    where
        G: FnMut(usize, &[f64], &mut [f64]),
    {
        assert!(!xs.is_empty(), "empty training batch");
        mlp.forward(xs, &mut self.outputs);
        let n = xs.len() / mlp.input_width();
        let width = mlp.output_width();
        let (delta, prev) = (&mut self.delta, &mut self.prev);
        delta.clear();
        delta.resize(n * width, 0.0);
        let outputs = self.outputs.last().expect("at least one layer");
        for (i, (o, d)) in outputs.chunks_exact(width).zip(delta.chunks_exact_mut(width)).enumerate() {
            output_grad(i, o, d);
        }

        // Backprop layer by layer, samples in order within each layer: every
        // gradient entry still sums its samples in batch order.
        for g in &mut self.grads {
            g.w.fill(0.0);
            g.b.fill(0.0);
        }
        for i in (0..mlp.layers.len()).rev() {
            let layer = &mlp.layers[i];
            let (rows, cols) = (layer.rows, layer.cols);
            let input = if i == 0 { xs } else { &self.outputs[i - 1] };
            let grad = &mut self.grads[i];
            for (d, x) in delta.chunks_exact(rows).zip(input.chunks_exact(cols)) {
                for (o, d) in d.iter().enumerate() {
                    grad.b[o] += d;
                    for (g, xi) in grad.w[o * cols..(o + 1) * cols].iter_mut().zip(x) {
                        *g += d * xi;
                    }
                }
            }
            if i > 0 {
                prev.clear();
                prev.resize(n * cols, 0.0);
                for ((d, p), a) in delta
                    .chunks_exact(rows)
                    .zip(prev.chunks_exact_mut(cols))
                    .zip(input.chunks_exact(cols))
                {
                    for (o, d) in d.iter().enumerate() {
                        for (p, w) in p.iter_mut().zip(&layer.w[o * cols..(o + 1) * cols]) {
                            *p += d * w;
                        }
                    }
                    // Activation derivative uses the *activated* value,
                    // which is layer `i`'s input.
                    for (p, a) in p.iter_mut().zip(a) {
                        *p *= mlp.activation.derivative(*a);
                    }
                }
                std::mem::swap(delta, prev);
            }
        }

        // Adam update, weights then biases of each layer.
        self.step += 1;
        let t = self.step as f64;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        for (((layer, grad), m), v) in mlp.layers.iter_mut().zip(&self.grads).zip(&mut self.m).zip(&mut self.v) {
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
        let xs: Vec<f64> = (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let ys: Vec<f64> = xs.chunks_exact(2).map(|x| 0.7 * x[0] - 0.3 * x[1] + 0.1).collect();
        for _ in 0..400 {
            adam.step_mse(&mut mlp, &xs, &ys, 0.01);
        }
        let mse = xs
            .chunks_exact(2)
            .zip(&ys)
            .map(|(x, y)| (mlp.predict(x)[0] - y).powi(2))
            .sum::<f64>()
            / ys.len() as f64;
        assert!(mse < 1e-3, "final MSE {mse}");
    }

    #[test]
    fn learns_xor_with_relu() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[2, 16, 16, 1], Activation::Relu, &mut rng);
        let mut adam = Adam::new(&mlp);
        let xs = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        let ys = [0.0, 1.0, 1.0, 0.0];
        for _ in 0..2000 {
            adam.step_mse(&mut mlp, &xs, &ys, 0.01);
        }
        for (x, y) in xs.chunks_exact(2).zip(&ys) {
            let p = mlp.predict(x)[0];
            assert!((p - y).abs() < 0.2, "xor({x:?}) = {p}");
        }
    }

    #[test]
    fn softmax_head_gradient_decreases_cross_entropy() {
        use crate::stats::softmax;
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[3, 16, 4], Activation::Relu, &mut rng);
        let xs = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let targets = [0usize, 1, 2];
        let ce = |mlp: &Mlp| -> f64 {
            xs.chunks_exact(3)
                .zip(targets)
                .map(|(x, t)| -softmax(&mlp.predict(x))[t].ln())
                .sum::<f64>()
        };
        let before = ce(&mlp);
        let mut adam = Adam::new(&mlp);
        for _ in 0..200 {
            adam.step(&mut mlp, &xs, 0.01, |i, out, grad| {
                grad.copy_from_slice(&softmax(out));
                grad[targets[i]] -= 1.0;
            });
        }
        let after = ce(&mlp);
        assert!(after < before * 0.2, "CE {before} -> {after}");
    }

    #[test]
    fn batched_forward_matches_a_plain_per_row_reference_bitwise() {
        // Widths that leave remainders after the four-output blocks.
        let mut rng = StdRng::seed_from_u64(6);
        let mlp = Mlp::new(&[7, 9, 6, 3], Activation::Tanh, &mut rng);
        let reference = |x: &[f64]| -> Vec<f64> {
            let mut h = x.to_vec();
            for (i, layer) in mlp.layers.iter().enumerate() {
                h = (0..layer.rows)
                    .map(|o| {
                        let row = &layer.w[o * layer.cols..(o + 1) * layer.cols];
                        let z = layer.b[o] + row.iter().zip(&h).map(|(w, xi)| w * xi).sum::<f64>();
                        if i + 1 < mlp.layers.len() {
                            mlp.activation.apply(z)
                        } else {
                            z
                        }
                    })
                    .collect();
            }
            h
        };
        let xs: Vec<f64> = (0..5 * 7).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut outputs = Vec::new();
        mlp.forward(&xs, &mut outputs);
        for (x, batched) in xs.chunks_exact(7).zip(outputs[2].chunks_exact(3)) {
            let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&mlp.predict(x)), bits(&reference(x)));
            assert_eq!(bits(batched), bits(&reference(x)));
        }
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
