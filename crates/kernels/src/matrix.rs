//! Small dense matrix type plus the verification helpers the kernel tests
//! need (reconstruction of orthogonal factors from stored reflectors).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense row-major `rows × cols` f64 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major contents.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity of order `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Deterministic pseudo-random matrix with entries in `(-1, 1)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Matrix product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
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

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Largest absolute entry of `self - other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `‖selfᵀ·self − I‖_∞`: deviation of the columns from orthonormality.
    pub fn orthonormality_error(&self) -> f64 {
        let g = self.transpose().matmul(self);
        g.max_abs_diff(&Matrix::identity(self.cols))
    }

    /// Largest |entry| strictly below the main diagonal.
    pub fn below_diagonal_max(&self) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols.min(i) {
                m = m.max(self[(i, j)].abs());
            }
        }
        m
    }

    /// Largest |entry| outside the upper-bidiagonal band (diagonal + first
    /// super-diagonal).
    pub fn off_bidiagonal_max(&self) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j != i && j != i + 1 {
                    m = m.max(self[(i, j)].abs());
                }
            }
        }
        m
    }

    /// Largest |entry| strictly below the first sub-diagonal (Hessenberg
    /// structure violation).
    pub fn below_hessenberg_max(&self) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i > j + 1 {
                    m = m.max(self[(i, j)].abs());
                }
            }
        }
        m
    }

    /// Extracts the upper-triangular part of the top `n × n` block.
    pub fn upper_triangular(&self, n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| if j >= i { self[(i, j)] } else { 0.0 })
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Applies the Householder reflector `H = I − τ·v·vᵀ` to `m` from the left,
/// where `v` has `v[offset] = 1`, `v[offset+1..] = essentials`, zeros above.
pub fn apply_reflector_left(m: &mut Matrix, offset: usize, essentials: &[f64], tau: f64) {
    let rows = m.rows;
    let mut v = vec![0.0; rows];
    v[offset] = 1.0;
    v[offset + 1..offset + 1 + essentials.len()].copy_from_slice(essentials);
    for j in 0..m.cols {
        let dot: f64 = (offset..rows).map(|i| v[i] * m[(i, j)]).sum();
        let t = tau * dot;
        for i in offset..rows {
            m[(i, j)] -= t * v[i];
        }
    }
}

/// Applies `H = I − τ·v·vᵀ` to `m` from the right (reflector on columns).
pub fn apply_reflector_right(m: &mut Matrix, offset: usize, essentials: &[f64], tau: f64) {
    let cols = m.cols;
    let mut v = vec![0.0; cols];
    v[offset] = 1.0;
    v[offset + 1..offset + 1 + essentials.len()].copy_from_slice(essentials);
    for i in 0..m.rows {
        let dot: f64 = (offset..cols).map(|j| m[(i, j)] * v[j]).sum();
        let t = tau * dot;
        for j in offset..cols {
            m[(i, j)] -= t * v[j];
        }
    }
}

/// Builds the dense `M × M` orthogonal factor `Q = H₀·H₁·⋯·H_{N−1}` from
/// reflectors stored LAPACK-style below the diagonal of `vmat` (unit lower)
/// with scalars `tau`, where reflector `k` starts at row `k + shift`.
pub fn dense_q_from_reflectors(vmat: &Matrix, tau: &[f64], shift: usize) -> Matrix {
    let m = vmat.rows;
    let mut q = Matrix::identity(m);
    // Q = H_0 (H_1 (… I)) — apply in reverse to the identity.
    for k in (0..tau.len()).rev() {
        let offset = k + shift;
        if offset >= m {
            continue;
        }
        let essentials: Vec<f64> = (offset + 1..m).map(|i| vmat[(i, k)]).collect();
        apply_reflector_left(&mut q, offset, &essentials, tau[k]);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_matmul() {
        let a = Matrix::random(4, 3, 7);
        let i4 = Matrix::identity(4);
        assert!(i4.matmul(&a).max_abs_diff(&a) == 0.0);
        let b = Matrix::random(3, 5, 8);
        let c = a.matmul(&b);
        assert_eq!((c.rows, c.cols), (4, 5));
        // Spot check one entry.
        let c00: f64 = (0..3).map(|k| a[(0, k)] * b[(k, 0)]).sum();
        assert!((c[(0, 0)] - c00).abs() < 1e-14);
    }

    #[test]
    fn reflector_is_orthogonal_involution() {
        // H² = I for any reflector.
        let mut m = Matrix::identity(5);
        let ess = [0.3, -0.7, 0.2];
        apply_reflector_left(&mut m, 1, &ess, 2.0 / (1.0 + 0.09 + 0.49 + 0.04));
        let h = m.clone();
        let hh = h.matmul(&h);
        assert!(hh.max_abs_diff(&Matrix::identity(5)) < 1e-12);
        assert!(h.orthonormality_error() < 1e-12);
    }

    #[test]
    fn right_application_matches_transpose_trick() {
        // (H Aᵀ)ᵀ = A H for symmetric H.
        let a = Matrix::random(4, 5, 3);
        let ess = [0.5, -0.25];
        let tau = 2.0 / (1.0 + 0.25 + 0.0625);
        let mut right = a.clone();
        apply_reflector_right(&mut right, 2, &ess, tau);
        let mut tr = a.transpose();
        apply_reflector_left(&mut tr, 2, &ess, tau);
        assert!(right.max_abs_diff(&tr.transpose()) < 1e-12);
    }

    #[test]
    fn structure_checks() {
        let mut m = Matrix::zeros(4, 4);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 1)] = 3.0;
        m[(1, 2)] = 4.0;
        assert_eq!(m.off_bidiagonal_max(), 0.0);
        assert_eq!(m.below_diagonal_max(), 0.0);
        m[(3, 0)] = 5.0;
        assert_eq!(m.off_bidiagonal_max(), 5.0);
        assert_eq!(m.below_hessenberg_max(), 5.0);
        m[(3, 0)] = 0.0;
        m[(3, 1)] = 7.0;
        assert_eq!(m.below_hessenberg_max(), 7.0);
        m[(3, 1)] = 0.0;
        m[(1, 0)] = 9.0; // allowed in Hessenberg
        assert_eq!(m.below_hessenberg_max(), 0.0);
    }
}
