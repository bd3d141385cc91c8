//! Sparse representations for pruned layers (`f32`, host side).
//!
//! GENESIS prunes near-zero weights (§5.2); the deployed kernels then store
//! and traverse only the nonzeros. This module provides the host-side
//! compressed formats; [`crate::quant`] mirrors them in Q1.15 for the
//! device.

use crate::tensor::Tensor;

/// A compressed-sparse-row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows (outputs).
    pub rows: usize,
    /// Number of columns (inputs).
    pub cols: usize,
    /// Row start offsets into `col_idx`/`values` (length `rows + 1`).
    pub row_ptr: Vec<u32>,
    /// Column index of each nonzero.
    pub col_idx: Vec<u32>,
    /// Value of each nonzero.
    pub values: Vec<f32>,
}

impl CsrMatrix {
    /// Compresses a dense row-major `[rows, cols]` matrix, dropping exact
    /// zeros.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn from_dense(w: &Tensor) -> Self {
        assert_eq!(w.shape().len(), 2, "CSR requires a rank-2 tensor");
        let (rows, cols) = (w.shape()[0], w.shape()[1]);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = w.data()[r * cols + c];
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are nonzero.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Sparse matrix × dense vector (allocating wrapper over
    /// [`CsrMatrix::matvec_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        self.matvec_into(x, &mut y);
        y
    }

    /// Sparse matrix × dense vector into a caller-provided buffer
    /// (cleared and refilled), so repeated products never allocate. Each
    /// row's nonzeros are walked as a pair of zipped slices, keeping the
    /// gather loop free of bounds checks on the CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_into(&self, x: &[f32], y: &mut Vec<f32>) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        y.clear();
        y.reserve(self.rows);
        for r in 0..self.rows {
            let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0;
            for (&v, &c) in self.values[s..e].iter().zip(self.col_idx[s..e].iter()) {
                acc += v * x[c as usize];
            }
            y.push(acc);
        }
    }

    /// Reconstructs the dense `[rows, cols]` tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut t = Tensor::zeros(vec![self.rows, self.cols]);
        for r in 0..self.rows {
            let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for i in s..e {
                t.data_mut()[r * self.cols + self.col_idx[i] as usize] = self.values[i];
            }
        }
        t
    }
}

/// One nonzero tap of a sparse convolution filter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FilterTap {
    /// Input channel.
    pub c: u16,
    /// Kernel row.
    pub ky: u16,
    /// Kernel column.
    pub kx: u16,
    /// Tap value.
    pub w: f32,
}

/// A pruned convolution: per-filter lists of nonzero taps.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseConv {
    /// Kernel dims `[C, KH, KW]` (shared by all filters).
    pub kernel: [usize; 3],
    /// `taps[f]` holds filter `f`'s nonzeros in (c, ky, kx) order.
    pub taps: Vec<Vec<FilterTap>>,
}

impl SparseConv {
    /// Compresses dense filters `[F, C, KH, KW]`, dropping exact zeros.
    ///
    /// # Panics
    ///
    /// Panics if `filters` is not rank-4.
    pub fn from_dense(filters: &Tensor) -> Self {
        assert_eq!(filters.shape().len(), 4, "filters must be rank-4");
        let s = filters.shape();
        let (nf, nc, kh, kw) = (s[0], s[1], s[2], s[3]);
        let mut taps = Vec::with_capacity(nf);
        for f in 0..nf {
            let mut list = Vec::new();
            for c in 0..nc {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let v = filters.data()[((f * nc + c) * kh + ky) * kw + kx];
                        if v != 0.0 {
                            list.push(FilterTap {
                                c: c as u16,
                                ky: ky as u16,
                                kx: kx as u16,
                                w: v,
                            });
                        }
                    }
                }
            }
            taps.push(list);
        }
        SparseConv {
            kernel: [nc, kh, kw],
            taps,
        }
    }

    /// Total nonzero taps across all filters.
    pub fn nnz(&self) -> usize {
        self.taps.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        Tensor::from_vec(vec![2, 3], vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0])
    }

    #[test]
    fn csr_roundtrip() {
        let d = sample();
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row_ptr, vec![0, 2, 3]);
        assert_eq!(csr.col_idx, vec![0, 2, 2]);
        assert_eq!(csr.to_dense(), d);
        assert!((csr.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn csr_matvec_matches_dense() {
        let csr = CsrMatrix::from_dense(&sample());
        let y = csr.matvec(&[1.0, 10.0, 100.0]);
        assert_eq!(y, vec![201.0, 300.0]);
    }

    #[test]
    fn csr_matvec_into_reuses_buffer() {
        let csr = CsrMatrix::from_dense(&sample());
        let mut y = vec![9.0; 17]; // stale garbage to overwrite
        csr.matvec_into(&[1.0, 10.0, 100.0], &mut y);
        assert_eq!(y, vec![201.0, 300.0]);
        csr.matvec_into(&[0.0, 0.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn csr_matvec_validates() {
        let _ = CsrMatrix::from_dense(&sample()).matvec(&[1.0]);
    }

    #[test]
    fn sparse_conv_collects_taps_per_filter() {
        let filters = Tensor::from_vec(
            vec![2, 1, 2, 2],
            vec![0.5, 0.0, 0.0, -0.5, 0.0, 0.0, 0.0, 1.0],
        );
        let sc = SparseConv::from_dense(&filters);
        assert_eq!(sc.kernel, [1, 2, 2]);
        assert_eq!(sc.nnz(), 3);
        assert_eq!(sc.taps[0].len(), 2);
        assert_eq!(sc.taps[1].len(), 1);
        assert_eq!(
            sc.taps[1][0],
            FilterTap {
                c: 0,
                ky: 1,
                kx: 1,
                w: 1.0
            }
        );
    }

    #[test]
    fn empty_filter_yields_empty_tap_list() {
        let filters = Tensor::zeros(vec![1, 1, 2, 2]);
        let sc = SparseConv::from_dense(&filters);
        assert_eq!(sc.nnz(), 0);
    }
}
