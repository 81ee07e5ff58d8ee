//! Gaussian-process regression with an RBF kernel.
//!
//! Substrate for the DGP baseline (Sun et al., ICCV '21), which places a
//! Gaussian process over a learned feature embedding and transfers its
//! prior mean across tasks.

use crate::linalg::{LinalgError, Matrix};
use crate::parallel::{parallel_map_range, Threads};
use serde::{Deserialize, Serialize};

/// Radial-basis-function (squared-exponential) kernel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RbfKernel {
    /// Signal variance σ_f².
    pub variance: f64,
    /// Isotropic length scale ℓ.
    pub length_scale: f64,
}

impl RbfKernel {
    /// Kernel value `k(a, b) = σ_f² exp(-‖a−b‖² / 2ℓ²)`.
    #[must_use]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
        self.variance * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

impl Default for RbfKernel {
    fn default() -> Self {
        Self {
            variance: 1.0,
            length_scale: 1.0,
        }
    }
}

/// A fitted GP regressor (exact inference, Cholesky).
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: RbfKernel,
    noise: f64,
    x: Vec<Vec<f64>>,
    l: Matrix,
    alpha: Vec<f64>,
    mean_offset: f64,
}

impl GaussianProcess {
    /// Fits the GP to `(x, y)` with observation noise `noise` (σ_n²).
    /// The empirical mean of `y` is subtracted and restored at prediction
    /// (a constant mean function).
    ///
    /// # Examples
    ///
    /// ```
    /// use glimpse_mlkit::gp::{GaussianProcess, RbfKernel};
    ///
    /// let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
    /// let ys = [0.0, 1.0, 4.0];
    /// let gp = GaussianProcess::fit(RbfKernel::default(), 1e-6, xs, &ys).unwrap();
    /// let (mean, var) = gp.predict(&[1.5]);
    /// assert!(mean > 1.0 && mean < 4.0);
    /// assert!(var >= 0.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError`] if the kernel matrix is numerically singular
    /// even after jitter.
    pub fn fit(kernel: RbfKernel, noise: f64, x: Vec<Vec<f64>>, y: &[f64]) -> Result<Self, LinalgError> {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "GP needs at least one observation");
        let n = x.len();
        let mean_offset = y.iter().sum::<f64>() / n as f64;
        // Kernel rows (upper triangle) build in parallel — each row is a
        // pure function of `x`, so assembly order cannot change the matrix.
        let threads = if n >= 64 { Threads::AUTO } else { Threads::fixed(1) };
        let rows: Vec<Vec<f64>> = parallel_map_range(threads, n, |i| (i..n).map(|j| kernel.eval(&x[i], &x[j])).collect());
        let mut k = Matrix::zeros(n, n);
        for (i, row) in rows.iter().enumerate() {
            for (offset, &v) in row.iter().enumerate() {
                let j = i + offset;
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += noise;
        }
        // Jittered Cholesky.
        let mut jitter = 1e-10;
        let l = loop {
            match k.cholesky() {
                Ok(l) => break l,
                Err(e) => {
                    if jitter > 1e-2 {
                        return Err(e);
                    }
                    for i in 0..n {
                        k[(i, i)] += jitter;
                    }
                    jitter *= 10.0;
                }
            }
        };
        let centered: Vec<f64> = y.iter().map(|v| v - mean_offset).collect();
        let alpha = l.cholesky_solve(&centered);
        Ok(Self {
            kernel,
            noise,
            x,
            l,
            alpha,
            mean_offset,
        })
    }

    /// Number of observations the GP conditions on.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the GP has no observations (never true for a fitted GP).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Predictive mean and variance at `q`.
    #[must_use]
    pub fn predict(&self, q: &[f64]) -> (f64, f64) {
        let ks: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(xi, q)).collect();
        let mean = self.mean_offset + ks.iter().zip(&self.alpha).map(|(k, a)| k * a).sum::<f64>();
        // v = L⁻¹ k_s via forward substitution.
        let n = self.x.len();
        let mut v = vec![0.0; n];
        for i in 0..n {
            let mut sum = ks[i];
            #[allow(clippy::needless_range_loop, reason = "triangular solve: `j` indexes both `l` and `v`")]
            for j in 0..i {
                sum -= self.l[(i, j)] * v[j];
            }
            v[i] = sum / self.l[(i, i)];
        }
        let var = (self.kernel.variance + self.noise - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
        (mean, var)
    }

    /// Expected improvement of `q` over the incumbent best `best_y`
    /// (maximization form) — a classic Bayesian-optimization acquisition.
    #[must_use]
    pub fn expected_improvement(&self, q: &[f64], best_y: f64) -> f64 {
        let (mu, var) = self.predict(q);
        let sigma = var.sqrt();
        if sigma < 1e-12 {
            return (mu - best_y).max(0.0);
        }
        let z = (mu - best_y) / sigma;
        sigma * (z * standard_normal_cdf(z) + standard_normal_pdf(z))
    }
}

fn standard_normal_pdf(z: f64) -> f64 {
    (-(z * z) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Abramowitz–Stegun 7.1.26 rational approximation of erf (|ε| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t * (0.254_829_592 + t * (-0.284_496_736 + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64 * 6.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = sine_data(20);
        let gp = GaussianProcess::fit(
            RbfKernel {
                variance: 1.0,
                length_scale: 0.8,
            },
            1e-6,
            xs.clone(),
            &ys,
        )
        .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (mu, _) = gp.predict(x);
            assert!((mu - y).abs() < 1e-2, "at {x:?}: {mu} vs {y}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (xs, ys) = sine_data(10);
        let gp = GaussianProcess::fit(RbfKernel::default(), 1e-6, xs, &ys).unwrap();
        let (_, var_near) = gp.predict(&[3.0]);
        let (_, var_far) = gp.predict(&[30.0]);
        assert!(var_far > var_near * 10.0);
    }

    #[test]
    fn predicts_smooth_interpolation() {
        let (xs, ys) = sine_data(30);
        let gp = GaussianProcess::fit(
            RbfKernel {
                variance: 1.0,
                length_scale: 0.8,
            },
            1e-6,
            xs,
            &ys,
        )
        .unwrap();
        let (mu, _) = gp.predict(&[1.55]);
        assert!((mu - 1.55f64.sin()).abs() < 0.05);
    }

    #[test]
    fn expected_improvement_positive_in_unexplored_regions() {
        let (xs, ys) = sine_data(10);
        let best = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let gp = GaussianProcess::fit(RbfKernel::default(), 1e-6, xs, &ys).unwrap();
        assert!(gp.expected_improvement(&[100.0], best) > 0.0);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
    }

    #[test]
    fn fit_identical_across_thread_counts() {
        // 80 observations crosses the parallel-assembly threshold.
        let (xs, ys) = sine_data(80);
        let predict_at = |threads: usize| {
            crate::parallel::set_default_threads(threads);
            let gp = GaussianProcess::fit(RbfKernel::default(), 1e-6, xs.clone(), &ys).unwrap();
            crate::parallel::set_default_threads(0);
            let (mu, var) = gp.predict(&[1.23]);
            (mu.to_bits(), var.to_bits())
        };
        let one = predict_at(1);
        assert_eq!(one, predict_at(4));
        assert_eq!(one, predict_at(9));
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let xs = vec![vec![1.0], vec![1.0], vec![2.0]];
        let ys = vec![0.5, 0.5, 1.0];
        let gp = GaussianProcess::fit(RbfKernel::default(), 0.0, xs, &ys).unwrap();
        assert_eq!(gp.len(), 3);
    }
}
