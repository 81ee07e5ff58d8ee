//! Principal component analysis.
//!
//! §3.1: "We perform a dimensionality reduction of the original feature
//! vectors using Principal Component Analysis (PCA) to get the minimal
//! mathematical embedding vector that summarizes the hardware. We use PCA
//! over neural autoencoders as PCA provides an intuitive knob that allows us
//! to balance the size with the information loss." Fig. 8 sweeps that knob;
//! [`Pca::reconstruction_rmse`] is its y-axis.

use crate::linalg::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fitted PCA model: mean vector plus the top-k principal axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pca {
    mean: Vec<f64>,
    /// Principal axes as rows, sorted by descending eigenvalue.
    components: Matrix,
    eigenvalues: Vec<f64>,
}

/// Error fitting a PCA model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcaError {
    reason: String,
}

impl fmt::Display for PcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PCA fit failed: {}", self.reason)
    }
}

impl std::error::Error for PcaError {}

impl Pca {
    /// Fits a PCA with `k` components on `rows` (one sample per row).
    ///
    /// # Errors
    ///
    /// Returns [`PcaError`] if fewer than two samples are given, rows are
    /// ragged, or `k` is zero or exceeds the feature width.
    pub fn fit(rows: &[Vec<f64>], k: usize) -> Result<Self, PcaError> {
        if rows.len() < 2 {
            return Err(PcaError {
                reason: "need at least two samples".into(),
            });
        }
        let d = rows[0].len();
        if rows.iter().any(|r| r.len() != d) {
            return Err(PcaError {
                reason: "ragged sample rows".into(),
            });
        }
        if k == 0 || k > d {
            return Err(PcaError {
                reason: format!("k = {k} out of range 1..={d}"),
            });
        }
        let n = rows.len() as f64;
        let mut mean = vec![0.0; d];
        for r in rows {
            for (m, v) in mean.iter_mut().zip(r) {
                *m += v / n;
            }
        }
        // Covariance matrix (population).
        let mut cov = Matrix::zeros(d, d);
        for r in rows {
            let centered: Vec<f64> = r.iter().zip(&mean).map(|(v, m)| v - m).collect();
            for i in 0..d {
                for j in i..d {
                    let add = centered[i] * centered[j] / n;
                    cov[(i, j)] += add;
                    if i != j {
                        cov[(j, i)] += add;
                    }
                }
            }
        }
        let (eigenvalues, vectors) = cov.symmetric_eigen();
        let mut components = Matrix::zeros(k, d);
        for i in 0..k {
            components.row_mut(i).copy_from_slice(vectors.row(i));
        }
        Ok(Self {
            mean,
            components,
            eigenvalues: eigenvalues.into_iter().take(k).collect(),
        })
    }

    /// Checks a decoded model's shape: a well-formed axis matrix with one
    /// eigenvalue per axis and one mean per input feature. Only lengths are
    /// compared.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check_shape(&self) -> Result<(), String> {
        self.components.check_shape()?;
        let (axes, width) = (self.components.rows(), self.components.cols());
        if self.eigenvalues.len() != axes || self.mean.len() != width {
            return Err(format!(
                "{axes} axes of width {width} come with {} eigenvalues and {} means",
                self.eigenvalues.len(),
                self.mean.len()
            ));
        }
        Ok(())
    }

    /// Number of components `k`.
    #[must_use]
    pub fn components(&self) -> usize {
        self.components.rows()
    }

    /// Input feature width `d`.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.mean.len()
    }

    /// Eigenvalues of the kept components, descending.
    #[must_use]
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Projects a sample onto the principal axes (length = `components()`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_width()`.
    #[must_use]
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_width(), "sample width mismatch");
        let centered: Vec<f64> = x.iter().zip(&self.mean).map(|(v, m)| v - m).collect();
        self.components.matvec(&centered)
    }

    /// Reconstructs a sample from its projection.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != components()`.
    #[must_use]
    pub fn inverse_transform(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.components(), "projection width mismatch");
        let mut out = self.mean.clone();
        for (i, zi) in z.iter().enumerate() {
            for (o, c) in out.iter_mut().zip(self.components.row(i)) {
                *o += zi * c;
            }
        }
        out
    }

    /// Root-mean-squared reconstruction error over a sample set — the
    /// *information loss* axis of Fig. 8.
    #[must_use]
    pub fn reconstruction_rmse(&self, rows: &[Vec<f64>]) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for r in rows {
            let back = self.inverse_transform(&self.transform(r));
            for (a, b) in r.iter().zip(&back) {
                sum += (a - b).powi(2);
                count += 1;
            }
        }
        (sum / count.max(1) as f64).sqrt()
    }

    /// Fraction of total variance captured by the kept components, assuming
    /// the model was fitted with all eigenvalues available up to `k`.
    #[must_use]
    pub fn explained_variance_ratio(&self, total_variance: f64) -> f64 {
        if total_variance <= 0.0 {
            return 1.0;
        }
        self.eigenvalues.iter().sum::<f64>() / total_variance
    }
}

/// Total variance (trace of the covariance) of a sample set; pairs with
/// [`Pca::explained_variance_ratio`].
#[must_use]
pub fn total_variance(rows: &[Vec<f64>]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let d = rows[0].len();
    let n = rows.len() as f64;
    let mut mean = vec![0.0; d];
    for r in rows {
        for (m, v) in mean.iter_mut().zip(r) {
            *m += v / n;
        }
    }
    rows.iter()
        .map(|r| r.iter().zip(&mean).map(|(v, m)| (v - m).powi(2)).sum::<f64>())
        .sum::<f64>()
        / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy_plane(n: usize, seed: u64) -> Vec<Vec<f64>> {
        // Data living near a 2-D plane inside 5-D space.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a = rng.gen_range(-3.0..3.0);
                let b = rng.gen_range(-1.0..1.0);
                let mut eps = || rng.gen_range(-0.01..0.01);
                vec![a + eps(), b + eps(), a - b + eps(), 2.0 * a + eps(), 0.5 * b + eps()]
            })
            .collect()
    }

    #[test]
    fn two_components_capture_planar_data() {
        let data = noisy_plane(200, 1);
        let pca = Pca::fit(&data, 2).unwrap();
        assert!(pca.reconstruction_rmse(&data) < 0.05);
    }

    #[test]
    fn rmse_decreases_with_more_components() {
        let data = noisy_plane(100, 2);
        let mut last = f64::INFINITY;
        for k in 1..=5 {
            let pca = Pca::fit(&data, k).unwrap();
            let rmse = pca.reconstruction_rmse(&data);
            assert!(rmse <= last + 1e-9, "k={k}: {rmse} > {last}");
            last = rmse;
        }
    }

    #[test]
    fn full_rank_pca_is_lossless() {
        let data = noisy_plane(50, 3);
        let pca = Pca::fit(&data, 5).unwrap();
        assert!(pca.reconstruction_rmse(&data) < 1e-8);
    }

    #[test]
    fn transform_width_is_k() {
        let data = noisy_plane(50, 4);
        let pca = Pca::fit(&data, 3).unwrap();
        assert_eq!(pca.transform(&data[0]).len(), 3);
        assert_eq!(pca.inverse_transform(&pca.transform(&data[0])).len(), 5);
    }

    #[test]
    fn fit_rejects_bad_inputs() {
        assert!(Pca::fit(&[vec![1.0, 2.0]], 1).is_err());
        assert!(Pca::fit(&[vec![1.0], vec![2.0, 3.0]], 1).is_err());
        assert!(Pca::fit(&noisy_plane(10, 5), 0).is_err());
        assert!(Pca::fit(&noisy_plane(10, 5), 6).is_err());
    }

    #[test]
    fn check_shape_rejects_mismatched_vectors() {
        let pca = Pca::fit(&noisy_plane(20, 7), 2).unwrap();
        assert_eq!(pca.check_shape(), Ok(()));

        let mut short_mean = pca.clone();
        short_mean.mean.truncate(2);
        assert!(short_mean.check_shape().is_err());

        let mut extra_eigenvalue = pca;
        extra_eigenvalue.eigenvalues.push(1.0);
        assert!(extra_eigenvalue.check_shape().is_err());
    }

    #[test]
    fn explained_variance_ratio_increases_with_k() {
        let data = noisy_plane(100, 6);
        let tv = total_variance(&data);
        let mut last = 0.0;
        for k in 1..=5 {
            let pca = Pca::fit(&data, k).unwrap();
            let r = pca.explained_variance_ratio(tv);
            assert!(r >= last - 1e-12);
            assert!(r <= 1.0 + 1e-9);
            last = r;
        }
        assert!(last > 0.999);
    }
}
