//! Small dense linear algebra, from scratch.
//!
//! GENESIS needs singular value decompositions (to separate
//! fully-connected layers, §5.2) and small least-squares solves (for the
//! alternating HOOI-style Tucker decomposition of convolutions). Matrices
//! here are tiny by numerical-computing standards (at most a few thousand
//! entries per factor), so simple, robust algorithms win: one-sided Jacobi
//! for the SVD and Gaussian elimination with partial pivoting for solves.

/// A dense row-major matrix of `f64` (numerics run in double precision;
/// results are cast back to `f32` at the model boundary).
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f64>,
}

impl Mat {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Mat { rows, cols, data }
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *t.at_mut(c, r) = self.at(r, c);
            }
        }
        t
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.at(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    *out.at_mut(r, c) += a * other.at(k, c);
                }
            }
        }
        out
    }
}

/// A thin singular value decomposition `A ≈ U · diag(s) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `rows × k`.
    pub u: Mat,
    /// Singular values, descending, length `k = min(rows, cols)`.
    pub s: Vec<f64>,
    /// Right singular vectors, `cols × k`.
    pub v: Mat,
}

/// Computes the thin SVD by one-sided Jacobi rotations.
///
/// One-sided Jacobi orthogonalizes the columns of `A` by repeated plane
/// rotations; at convergence the column norms are the singular values, the
/// normalized columns form `U`, and the accumulated rotations form `V`.
/// For `rows < cols` the transposed problem is solved and factors are
/// swapped.
pub fn svd(a: &Mat) -> Svd {
    if a.rows < a.cols {
        let t = svd(&a.transpose());
        return Svd {
            u: t.v,
            s: t.s,
            v: t.u,
        };
    }
    let (m, n) = (a.rows, a.cols);
    let mut w = a.clone(); // columns get rotated in place
    let mut v = Mat::zeros(n, n);
    for i in 0..n {
        *v.at_mut(i, i) = 1.0;
    }

    let eps = 1e-12;
    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Column dot products.
                let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                for r in 0..m {
                    let (x, y) = (w.at(r, p), w.at(r, q));
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                off += apq * apq;
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) off-diagonal.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for r in 0..m {
                    let (x, y) = (w.at(r, p), w.at(r, q));
                    *w.at_mut(r, p) = c * x - s * y;
                    *w.at_mut(r, q) = s * x + c * y;
                }
                for r in 0..n {
                    let (x, y) = (v.at(r, p), v.at(r, q));
                    *v.at_mut(r, p) = c * x - s * y;
                    *v.at_mut(r, q) = s * x + c * y;
                }
            }
        }
        if off.sqrt() < 1e-14 {
            break;
        }
    }

    // Extract singular values and normalize U's columns.
    let mut order: Vec<usize> = (0..n).collect();
    let mut sigmas = vec![0.0; n];
    for (j, s) in sigmas.iter_mut().enumerate() {
        *s = (0..m).map(|r| w.at(r, j).powi(2)).sum::<f64>().sqrt();
    }
    order.sort_by(|&i, &j| sigmas[j].partial_cmp(&sigmas[i]).expect("finite"));

    let mut u = Mat::zeros(m, n);
    let mut vv = Mat::zeros(n, n);
    let mut s_sorted = vec![0.0; n];
    for (dst, &src) in order.iter().enumerate() {
        let sigma = sigmas[src];
        s_sorted[dst] = sigma;
        for r in 0..m {
            *u.at_mut(r, dst) = if sigma > 1e-300 {
                w.at(r, src) / sigma
            } else {
                0.0
            };
        }
        for r in 0..n {
            *vv.at_mut(r, dst) = v.at(r, src);
        }
    }
    Svd {
        u,
        s: s_sorted,
        v: vv,
    }
}

impl Svd {
    /// Reconstructs the best rank-`k` approximation `U_k Σ_k V_kᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the number of singular values.
    pub fn truncate(&self, k: usize) -> Mat {
        assert!(k <= self.s.len(), "rank exceeds decomposition");
        let (m, n) = (self.u.rows, self.v.rows);
        let mut out = Mat::zeros(m, n);
        for r in 0..m {
            for c in 0..n {
                let mut acc = 0.0;
                for j in 0..k {
                    acc += self.u.at(r, j) * self.s[j] * self.v.at(c, j);
                }
                *out.at_mut(r, c) = acc;
            }
        }
        out
    }
}

/// Solves `A · X = B` for square `A` by Gaussian elimination with partial
/// pivoting; `B` may have multiple right-hand-side columns.
///
/// Returns `None` for (numerically) singular systems.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn solve(a: &Mat, b: &Mat) -> Option<Mat> {
    assert_eq!(a.rows, a.cols, "solve requires a square matrix");
    assert_eq!(a.rows, b.rows, "rhs row mismatch");
    let n = a.rows;
    let nrhs = b.cols;
    let mut aug = Mat::zeros(n, n + nrhs);
    for r in 0..n {
        for c in 0..n {
            *aug.at_mut(r, c) = a.at(r, c);
        }
        for c in 0..nrhs {
            *aug.at_mut(r, n + c) = b.at(r, c);
        }
    }
    for col in 0..n {
        // Partial pivot.
        let mut piv = col;
        for r in (col + 1)..n {
            if aug.at(r, col).abs() > aug.at(piv, col).abs() {
                piv = r;
            }
        }
        if aug.at(piv, col).abs() < 1e-12 {
            return None;
        }
        if piv != col {
            for c in 0..(n + nrhs) {
                let tmp = aug.at(col, c);
                *aug.at_mut(col, c) = aug.at(piv, c);
                *aug.at_mut(piv, c) = tmp;
            }
        }
        let d = aug.at(col, col);
        for c in col..(n + nrhs) {
            *aug.at_mut(col, c) /= d;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = aug.at(r, col);
            if factor == 0.0 {
                continue;
            }
            for c in col..(n + nrhs) {
                let v = aug.at(col, c) * factor;
                *aug.at_mut(r, c) -= v;
            }
        }
    }
    let mut x = Mat::zeros(n, nrhs);
    for r in 0..n {
        for c in 0..nrhs {
            *x.at_mut(r, c) = aug.at(r, n + c);
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Mat::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrips() {
        let a = random_mat(3, 5, 1);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn svd_reconstructs_matrix() {
        for (m, n, seed) in [(6, 4, 2), (4, 6, 3), (5, 5, 4)] {
            let a = random_mat(m, n, seed);
            let d = svd(&a);
            let k = m.min(n);
            let approx = d.truncate(k);
            let mut err = 0.0;
            for i in 0..a.data.len() {
                err += (a.data[i] - approx.data[i]).powi(2);
            }
            assert!(
                err.sqrt() < 1e-8,
                "{m}x{n}: reconstruction error {}",
                err.sqrt()
            );
        }
    }

    #[test]
    fn svd_singular_values_descend_and_are_nonnegative() {
        let a = random_mat(8, 5, 7);
        let d = svd(&a);
        for w in d.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(d.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_columns_are_orthonormal() {
        let a = random_mat(7, 4, 9);
        let d = svd(&a);
        for i in 0..4 {
            for j in 0..4 {
                let dot_u: f64 = (0..7).map(|r| d.u.at(r, i) * d.u.at(r, j)).sum();
                let dot_v: f64 = (0..4).map(|r| d.v.at(r, i) * d.v.at(r, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot_u - expect).abs() < 1e-8, "U not orthonormal");
                assert!((dot_v - expect).abs() < 1e-8, "V not orthonormal");
            }
        }
    }

    #[test]
    fn truncated_svd_is_best_low_rank_for_known_matrix() {
        // Rank-2 matrix: truncating at 2 must be (near) exact, at 1 lossy.
        let u = random_mat(6, 2, 11);
        let v = random_mat(2, 5, 12);
        let a = u.matmul(&v);
        let d = svd(&a);
        let r2 = d.truncate(2);
        let mut err2 = 0.0;
        let mut err1 = 0.0;
        let r1 = d.truncate(1);
        for i in 0..a.data.len() {
            err2 += (a.data[i] - r2.data[i]).powi(2);
            err1 += (a.data[i] - r1.data[i]).powi(2);
        }
        assert!(err2.sqrt() < 1e-8, "rank-2 should be exact");
        assert!(err1 > err2, "rank-1 must be lossier");
        assert!(d.s[2] < 1e-8, "third singular value should vanish");
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Mat::from_vec(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let x_true = Mat::from_vec(3, 2, vec![1.0, -1.0, 2.0, 0.5, -1.0, 2.0]);
        let b = a.matmul(&x_true);
        let x = solve(&a, &b).expect("nonsingular");
        for i in 0..x.data.len() {
            assert!((x.data[i] - x_true.data[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let b = Mat::from_vec(2, 1, vec![1.0, 2.0]);
        assert!(solve(&a, &b).is_none());
    }
}
