//! Dense row-major matrices with the factorizations the rest of the kit needs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or `rows` is empty.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let data = rows.iter().flatten().copied().collect();
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Checks that the buffer holds exactly `rows × cols` values (a decoded
    /// matrix's fields arrive independently).
    pub(crate) fn check_shape(&self) -> Result<(), String> {
        if self.rows.checked_mul(self.cols) == Some(self.data.len()) {
            Ok(())
        } else {
            Err(format!("{}x{} matrix holds {} values", self.rows, self.cols, self.data.len()))
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    #[must_use]
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix, returning lower-triangular `L`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is
    /// non-positive (callers typically add jitter and retry).
    pub fn cholesky(&self) -> Result<Matrix, LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solves `A x = b` via this matrix's Cholesky factor (call on `L`).
    /// Forward-substitutes `L y = b` then back-substitutes `Lᵀ x = y`.
    #[must_use]
    pub fn cholesky_solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        assert_eq!(b.len(), n);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self[(i, k)] * y[k];
            }
            y[i] = sum / self[(i, i)];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self[(k, i)] * x[k];
            }
            x[i] = sum / self[(i, i)];
        }
        x
    }

    /// Eigen decomposition of a symmetric matrix by cyclic Jacobi rotation.
    /// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
    /// eigenvectors are the **rows** of the returned matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn symmetric_eigen(&self) -> (Vec<f64>, Matrix) {
        assert_eq!(self.rows, self.cols, "eigen decomposition needs a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        for _sweep in 0..100 {
            let mut off: f64 = 0.0;
            for i in 0..n {
                for j in i + 1..n {
                    off += a[(i, j)] * a[(i, j)];
                }
            }
            if off.sqrt() < 1e-12 {
                break;
            }
            for p in 0..n {
                for q in p + 1..n {
                    if a[(p, q)].abs() < 1e-15 {
                        continue;
                    }
                    let theta = (a[(q, q)] - a[(p, p)]) / (2.0 * a[(p, q)]);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| a[(j, j)].total_cmp(&a[(i, i)]));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| a[(i, i)]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (row, &i) in order.iter().enumerate() {
            for k in 0..n {
                vectors[(row, k)] = v[(k, i)];
            }
        }
        (eigenvalues, vectors)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}x{} matrix", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Errors from matrix factorizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Cholesky hit a non-positive pivot.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn check_shape_rejects_a_torn_buffer() {
        assert_eq!(Matrix::zeros(2, 5).check_shape(), Ok(()));
        let torn = Matrix {
            rows: 2,
            cols: 5,
            data: vec![0.0; 9],
        };
        assert!(torn.check_shape().is_err());
    }

    #[test]
    fn matmul_matches_hand_example() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0, 0.6], vec![2.0, 5.0, 1.0], vec![0.6, 1.0, 3.0]]);
        let l = a.cholesky().unwrap();
        let back = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(a.cholesky(), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn cholesky_solve_inverts() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 5.0]]);
        let l = a.cholesky().unwrap();
        let x = l.cholesky_solve(&[8.0, 9.0]);
        let b = a.matvec(&x);
        assert!((b[0] - 8.0).abs() < 1e-10 && (b[1] - 9.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]);
        let (vals, _) = a.symmetric_eigen();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_reconstructs_symmetric_matrix() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0, 0.0], vec![1.0, 3.0, 0.5], vec![0.0, 0.5, 1.5]]);
        let (vals, vecs) = a.symmetric_eigen();
        // A = Vᵀ diag(vals) V with eigenvectors as rows of V.
        let mut d = Matrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = vals[i];
        }
        let back = vecs.transpose().matmul(&d).matmul(&vecs);
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let a = Matrix::from_rows(&[vec![1.0, 0.2, 0.1], vec![0.2, 5.0, 0.0], vec![0.1, 0.0, 2.0]]);
        let (vals, _) = a.symmetric_eigen();
        assert!(vals[0] >= vals[1] && vals[1] >= vals[2]);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    proptest! {
        #[test]
        fn matvec_is_linear(scale in -3.0f64..3.0) {
            let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 4.0]]);
            let v = vec![2.0, 3.0];
            let scaled: Vec<f64> = v.iter().map(|x| x * scale).collect();
            let lhs = a.matvec(&scaled);
            let rhs: Vec<f64> = a.matvec(&v).iter().map(|x| x * scale).collect();
            for (l, r) in lhs.iter().zip(&rhs) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }

        #[test]
        fn gram_matrices_are_psd(rows in 2usize..5, cols in 2usize..5, seed in 0u64..100) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let rows_v: Vec<Vec<f64>> = (0..rows).map(|_| (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
            let x = Matrix::from_rows(&rows_v);
            let gram = x.matmul(&x.transpose());
            let (vals, _) = gram.symmetric_eigen();
            for v in vals {
                prop_assert!(v > -1e-8);
            }
        }
    }
}
