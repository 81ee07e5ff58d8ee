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
//! Every matrix product goes through one kernel, `mul_acc`, which keeps
//! eight outputs in registers while it sums their products in order: the
//! forward pass (one row in [`Mlp::predict`], a whole batch in training),
//! the weight gradient and backprop. A layer's weights are stored
//! input-major in memory, so the forward reads them contiguously; the
//! serialized form is row-major, one row of inputs per output, and decode
//! transposes it back. A training batch is one flat row-major buffer, kept
//! per layer because backprop reads it. Every sum runs in the order a
//! one-row forward and a sample-by-sample backward would use, so a batch
//! step is bit-identical to accumulating its samples one at a time.

use rand::Rng;
use serde::{Deserialize, Serialize, Value};

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

/// `c[i][..m] += Σ_l a[i][l] · b[l][..m]` for every `m`-wide row `i` of
/// `c`, where `b` is row-major with `m` columns and `a` holds one row of
/// `b.len() / m` values per row of `c`.
///
/// Each output adds its products to its current value in `l` order, so it
/// has the bits of a plain loop that does the same. Eight outputs are
/// summed side by side in registers, so neither add latency nor a load and
/// a store per product holds the loop up.
fn mul_acc(c: &mut [f64], a: &[f64], b: &[f64], m: usize) {
    let k = b.len() / m;
    for (c, a) in c.chunks_exact_mut(m).zip(a.chunks_exact(k)) {
        let mut blocks = c.chunks_exact_mut(8);
        for (j, block) in (0..).step_by(8).zip(&mut blocks) {
            let mut acc = [0.0f64; 8];
            acc.copy_from_slice(block);
            for (x, row) in a.iter().zip(b.chunks_exact(m)) {
                for (acc, y) in acc.iter_mut().zip(&row[j..j + 8]) {
                    *acc += x * y;
                }
            }
            block.copy_from_slice(&acc);
        }
        for (j, c) in (m / 8 * 8..).zip(blocks.into_remainder()) {
            let mut acc = *c;
            for (x, row) in a.iter().zip(b.chunks_exact(m)) {
                acc += x * row[j];
            }
            *c = acc;
        }
    }
}

/// Writes the row-major matrix `src`, `cols` wide, into `dst` transposed.
fn transpose(src: &[f64], cols: usize, dst: &mut Vec<f64>) {
    dst.clear();
    dst.reserve(src.len());
    for k in 0..cols {
        dst.extend(src[k..].iter().step_by(cols));
    }
}

/// One dense layer. `w[k * rows + o]` is the weight from input `k` to
/// output `o`: input-major, so that the forward product reads it row by
/// row.
#[derive(Debug, Clone)]
struct Dense {
    rows: usize, // outputs
    cols: usize, // inputs
    w: Vec<f64>,
    b: Vec<f64>,
}

/// A [`Dense`] as it is serialized: `w` row-major, `w[o * cols + k]`.
#[derive(Serialize, Deserialize)]
struct DenseWire {
    rows: usize,
    cols: usize,
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Serialize for Dense {
    fn to_value(&self) -> Value {
        let mut w = Vec::new();
        transpose(&self.w, self.rows, &mut w);
        DenseWire {
            rows: self.rows,
            cols: self.cols,
            w,
            b: self.b.clone(),
        }
        .to_value()
    }
}

impl Deserialize for Dense {
    /// Refuses a zero width, or a `w` or `b` whose length is not
    /// `rows × cols` or `rows`, before it transposes `w`.
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let DenseWire { rows, cols, w, b } = DenseWire::from_value(value)?;
        if rows == 0 || cols == 0 || Some(w.len()) != rows.checked_mul(cols) || b.len() != rows {
            let (w, b) = (w.len(), b.len());
            return Err(serde::Error::msg(format!("{rows}x{cols} layer has {w} values in w and {b} in b")));
        }
        let mut input_major = Vec::new();
        transpose(&w, cols, &mut input_major);
        Ok(Self {
            rows,
            cols,
            w: input_major,
            b,
        })
    }
}

impl Dense {
    fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        // He-style initialization, drawn row by row.
        let scale = (2.0 / inputs as f64).sqrt();
        let drawn: Vec<f64> = (0..inputs * outputs).map(|_| rng.gen_range(-scale..scale)).collect();
        let mut w = Vec::new();
        transpose(&drawn, inputs, &mut w);
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

    /// Writes `b + W·x` for every `cols`-wide row `x` of `xs` into `out`,
    /// row after row. Each dot product is summed in input order from
    /// `-0.0`, exactly as `Iterator::sum` does, and the bias comes last.
    fn forward(&self, xs: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(xs.len() / self.cols * self.rows, -0.0);
        mul_acc(out, xs, &self.w, self.rows);
        for row in out.chunks_exact_mut(self.rows) {
            for (o, b) in row.iter_mut().zip(&self.b) {
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

    /// Checks a decoded net's shape: at least one layer, and each layer's
    /// inputs equal to the previous layer's outputs. (Decoding a layer
    /// already checked its own buffers against its widths.) Only widths are
    /// compared, so the cost does not grow with the weights.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("the net has no layers".into());
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

    /// Forward pass. Layers ping-pong between two buffers sized to the
    /// widest layer, through the same kernel as the batched forward.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_width()`.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_width(), "input width mismatch");
        let widest = self.layers.iter().map(|layer| layer.rows).max().unwrap_or(0);
        let (mut input, mut output) = (Vec::with_capacity(widest), Vec::with_capacity(widest));
        for i in 0..self.layers.len() {
            self.run_layer(i, if i == 0 { x } else { &input }, &mut output);
            std::mem::swap(&mut input, &mut output);
        }
        input
    }

    /// Forward pass over the flat row-major batch `xs`. Afterwards
    /// `outputs[i]` holds layer `i`'s output for every row (activated for
    /// hidden layers), so layer `i > 0` consumed `outputs[i - 1]` and the
    /// last entry is the net's output.
    fn forward(&self, xs: &[f64], outputs: &mut Vec<Vec<f64>>) {
        assert_eq!(xs.len() % self.input_width(), 0, "input width mismatch");
        outputs.resize_with(self.layers.len(), Vec::new);
        for i in 0..self.layers.len() {
            let (done, rest) = outputs.split_at_mut(i);
            self.run_layer(i, done.last().map_or(xs, Vec::as_slice), &mut rest[0]);
        }
    }

    /// Runs layer `i` over the flat batch `input` into `out`, activated
    /// unless it is the output layer.
    fn run_layer(&self, i: usize, input: &[f64], out: &mut Vec<f64>) {
        self.layers[i].forward(input, out);
        if i + 1 < self.layers.len() {
            for v in out.iter_mut() {
                *v = self.activation.apply(*v);
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
    /// One input of a layer across the batch.
    column: Vec<f64>,
    /// A layer's weights, row-major, as backprop multiplies by them.
    w_rows: Vec<f64>,
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
            column: Vec::new(),
            w_rows: Vec::new(),
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

        // Backprop layer by layer. Every gradient entry sums its samples in
        // batch order from `0.0`, and every backpropagated entry sums its
        // outputs in order from `0.0`.
        for i in (0..mlp.layers.len()).rev() {
            let layer = &mlp.layers[i];
            let (rows, cols) = (layer.rows, layer.cols);
            let input = if i == 0 { xs } else { &self.outputs[i - 1] };
            let grad = &mut self.grads[i];
            grad.b.fill(0.0);
            for d in delta.chunks_exact(rows) {
                for (g, d) in grad.b.iter_mut().zip(d) {
                    *g += d;
                }
            }
            // Input `k`'s weight gradients are the batch's column `k` times
            // `delta`. Gathering one column at a time, rather than
            // transposing the whole batch, keeps the scratch one column long.
            grad.w.fill(0.0);
            for (k, g) in grad.w.chunks_exact_mut(rows).enumerate() {
                self.column.clear();
                self.column.extend(input[k..].iter().step_by(cols));
                mul_acc(g, &self.column, delta, rows);
            }
            if i > 0 {
                transpose(&layer.w, rows, &mut self.w_rows);
                prev.clear();
                prev.resize(n * cols, 0.0);
                mul_acc(prev, delta, &self.w_rows, cols);
                // Activation derivative uses the *activated* value, which is
                // layer `i`'s input.
                for (p, a) in prev.iter_mut().zip(input) {
                    *p *= mlp.activation.derivative(*a);
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
    use proptest::prelude::*;
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

    /// A layer with row-major weights, `w[o * cols + k]`.
    #[derive(Clone)]
    struct RowMajor {
        rows: usize,
        cols: usize,
        w: Vec<f64>,
        b: Vec<f64>,
    }

    impl RowMajor {
        fn of(layer: &Dense) -> Self {
            let (rows, cols) = (layer.rows, layer.cols);
            let w = (0..rows * cols).map(|i| layer.w[i % cols * rows + i / cols]).collect();
            Self {
                rows,
                cols,
                w,
                b: layer.b.clone(),
            }
        }

        fn zeros_like(&self) -> Self {
            Self {
                w: vec![0.0; self.w.len()],
                b: vec![0.0; self.b.len()],
                ..*self
            }
        }
    }

    /// A plain, sample-by-sample MLP over row-major weights that sums in
    /// the order the kernel must keep: each output from `-0.0` in input
    /// order with the bias last; each gradient entry from `0.0` in sample
    /// order; each backpropagated entry from `0.0` in output order.
    struct Reference {
        layers: Vec<RowMajor>,
        m: Vec<RowMajor>,
        v: Vec<RowMajor>,
        activation: Activation,
        step: u64,
    }

    #[allow(clippy::needless_range_loop, reason = "the reference spells out each sum's index order, which is what it pins")]
    impl Reference {
        fn of(mlp: &Mlp) -> Self {
            let layers: Vec<RowMajor> = mlp.layers.iter().map(RowMajor::of).collect();
            let zeros: Vec<RowMajor> = layers.iter().map(RowMajor::zeros_like).collect();
            Self {
                layers,
                m: zeros.clone(),
                v: zeros,
                activation: mlp.activation,
                step: 0,
            }
        }

        /// Every layer's output for the one row `x`, activated for hidden
        /// layers.
        fn forward(&self, x: &[f64]) -> Vec<Vec<f64>> {
            let mut outputs: Vec<Vec<f64>> = Vec::new();
            for (i, layer) in self.layers.iter().enumerate() {
                let input = outputs.last().map_or(x, Vec::as_slice);
                let mut out = Vec::new();
                for o in 0..layer.rows {
                    let mut z = -0.0;
                    for k in 0..layer.cols {
                        z += layer.w[o * layer.cols + k] * input[k];
                    }
                    z += layer.b[o];
                    out.push(if i + 1 < self.layers.len() { self.activation.apply(z) } else { z });
                }
                outputs.push(out);
            }
            outputs
        }

        /// One Adam step over `xs`; returns the net's outputs and the
        /// gradients.
        fn step(&mut self, xs: &[f64], lr: f64, output_grad: impl Fn(usize, &[f64], &mut [f64])) -> (Vec<f64>, Vec<RowMajor>) {
            let mut grads: Vec<RowMajor> = self.layers.iter().map(RowMajor::zeros_like).collect();
            let mut net_outputs = Vec::new();
            for (s, x) in xs.chunks_exact(self.layers[0].cols).enumerate() {
                let outputs = self.forward(x);
                let out = outputs.last().expect("a layer");
                let mut delta = vec![0.0; out.len()];
                output_grad(s, out, &mut delta);
                net_outputs.extend_from_slice(out);
                for i in (0..self.layers.len()).rev() {
                    let (layer, grad) = (&self.layers[i], &mut grads[i]);
                    let input = if i == 0 { x } else { &outputs[i - 1] };
                    for o in 0..layer.rows {
                        grad.b[o] += delta[o];
                        for k in 0..layer.cols {
                            grad.w[o * layer.cols + k] += delta[o] * input[k];
                        }
                    }
                    if i > 0 {
                        let mut prev = vec![0.0; layer.cols];
                        for o in 0..layer.rows {
                            for k in 0..layer.cols {
                                prev[k] += delta[o] * layer.w[o * layer.cols + k];
                            }
                        }
                        for k in 0..layer.cols {
                            prev[k] *= self.activation.derivative(input[k]);
                        }
                        delta = prev;
                    }
                }
            }
            self.step += 1;
            let t = self.step as f64;
            let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
            let (bias1, bias2) = (1.0 - b1.powf(t), 1.0 - b2.powf(t));
            for (((layer, grad), m), v) in self.layers.iter_mut().zip(&grads).zip(&mut self.m).zip(&mut self.v) {
                for (param, g, m, v) in [
                    (&mut layer.w, &grad.w, &mut m.w, &mut v.w),
                    (&mut layer.b, &grad.b, &mut m.b, &mut v.b),
                ] {
                    for j in 0..g.len() {
                        m[j] = b1 * m[j] + (1.0 - b1) * g[j];
                        v[j] = b2 * v[j] + (1.0 - b2) * g[j] * g[j];
                        param[j] -= lr * (m[j] / bias1) / ((v[j] / bias2).sqrt() + eps);
                    }
                }
            }
            (net_outputs, grads)
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that the net's layers, or the optimizer's gradients, equal
    /// the reference's row-major layers bit for bit.
    fn assert_layers_match(ours: &[Dense], theirs: &[RowMajor], what: &str) {
        assert_eq!(ours.len(), theirs.len());
        for (i, (ours, theirs)) in ours.iter().zip(theirs).enumerate() {
            let ours = RowMajor::of(ours);
            assert_eq!(bits(&ours.w), bits(&theirs.w), "{what}: layer {i} weights");
            assert_eq!(bits(&ours.b), bits(&theirs.b), "{what}: layer {i} biases");
        }
    }

    /// One case of the kernel-vs-reference property: a net of the given
    /// widths, three Adam steps on one batch of `batch` rows, then a
    /// one-row predict of every row.
    fn matches_reference_case(widths: &[usize], batch: usize, activation: Activation, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(widths, activation, &mut rng);
        // Random biases too, so a zero start cannot hide an ordering slip.
        for layer in &mut mlp.layers {
            for b in &mut layer.b {
                *b = rng.gen_range(-0.5..0.5);
            }
        }
        let mut reference = Reference::of(&mlp);
        let xs: Vec<f64> = (0..batch * widths[0]).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let width = widths[widths.len() - 1];
        let ys: Vec<f64> = (0..batch * width).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let output_grad = |s: usize, out: &[f64], grad: &mut [f64]| {
            for ((g, o), y) in grad.iter_mut().zip(out).zip(&ys[s * width..]) {
                *g = (o - y) * (1.0 + o.abs()).ln();
            }
        };
        let mut adam = Adam::new(&mlp);
        for step in 0..3 {
            let mut outputs = Vec::new();
            adam.step(&mut mlp, &xs, 0.05, |s, out, grad| {
                outputs.extend_from_slice(out);
                output_grad(s, out, grad);
            });
            let (ref_outputs, ref_grads) = reference.step(&xs, 0.05, output_grad);
            assert_eq!(bits(&outputs), bits(&ref_outputs), "step {step}: outputs");
            assert_layers_match(&adam.grads, &ref_grads, &format!("step {step}: gradients"));
            assert_layers_match(&mlp.layers, &reference.layers, &format!("step {step}: parameters"));
        }
        for x in xs.chunks_exact(widths[0]) {
            let theirs = reference.forward(x);
            assert_eq!(bits(&mlp.predict(x)), bits(theirs.last().expect("a layer")), "predict");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Widths up to 20 leave every remainder after the 8-wide blocks.
        #[test]
        fn kernel_matches_a_plain_sample_by_sample_reference_bitwise(
            widths in proptest::collection::vec(1usize..=20, 2..5),
            batch in 1usize..=9,
            tanh in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            let activation = if tanh == 1 { Activation::Tanh } else { Activation::Relu };
            matches_reference_case(&widths, batch, activation, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The same property at 512 cases, for release builds:
        /// `cargo test --release -p glimpse-mlkit -- --ignored`.
        #[test]
        #[ignore = "512 cases: run in release with --ignored"]
        fn kernel_matches_a_plain_sample_by_sample_reference_bitwise_512_cases(
            widths in proptest::collection::vec(1usize..=20, 2..5),
            batch in 1usize..=9,
            tanh in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            let activation = if tanh == 1 { Activation::Tanh } else { Activation::Relu };
            matches_reference_case(&widths, batch, activation, seed);
        }
    }

    #[test]
    fn serializes_row_major_and_round_trips() {
        // Two inputs, three outputs: the weight from input k to output o is
        // 10·o + k, so a row-major `w` reads 0, 1, 10, 11, 20, 21.
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng);
        mlp.layers[0].w = vec![0.0, 10.0, 20.0, 1.0, 11.0, 21.0];
        mlp.layers[0].b = vec![0.5, -0.5, 0.25];
        mlp.layers[1].w = vec![1.0, -2.0, 3.0];
        mlp.layers[1].b = vec![-1.0];
        let golden = concat!(
            r#"{"layers":[{"rows":3,"cols":2,"w":[0.0,1.0,10.0,11.0,20.0,21.0],"b":[0.5,-0.5,0.25]},"#,
            r#"{"rows":1,"cols":3,"w":[1.0,-2.0,3.0],"b":[-1.0]}],"activation":"Relu"}"#
        );
        let text = serde_json::to_string(&mlp).expect("net encodes");
        assert_eq!(text, golden);
        let decoded: Mlp = serde_json::from_str(&text).expect("net decodes");
        assert_eq!(decoded.layers[0].w, mlp.layers[0].w);
        // Input 0 alone reads column 0: relu(0.5, 9.5, 20.25), then
        // 0.5 - 19 + 60.75 - 1.
        assert_eq!(decoded.predict(&[1.0, 0.0]), [41.25]);
        assert_eq!(serde_json::to_string(&decoded).expect("net encodes"), golden);
    }

    #[test]
    fn decode_refuses_buffers_that_disagree_with_the_widths() {
        let golden = r#"{"layers":[{"rows":2,"cols":1,"w":[1.0,2.0],"b":[0.0,0.0]}],"activation":"Tanh"}"#;
        assert!(serde_json::from_str::<Mlp>(golden).is_ok());
        for broken in [
            r#"{"layers":[{"rows":2,"cols":1,"w":[1.0],"b":[0.0,0.0]}],"activation":"Tanh"}"#,
            r#"{"layers":[{"rows":2,"cols":1,"w":[1.0,2.0],"b":[0.0]}],"activation":"Tanh"}"#,
            r#"{"layers":[{"rows":0,"cols":1,"w":[],"b":[]}],"activation":"Tanh"}"#,
            r#"{"layers":[{"rows":2,"cols":0,"w":[],"b":[0.0,0.0]}],"activation":"Tanh"}"#,
        ] {
            assert!(serde_json::from_str::<Mlp>(broken).is_err(), "{broken}");
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
