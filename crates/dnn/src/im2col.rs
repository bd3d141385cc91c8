//! im2col patch extraction and a cache-blocked f32 GEMM for convolutions.
//!
//! The naive convolution walks a 6-deep loop nest whose inner accesses
//! stride across the input image, paying a bounds check and an index
//! computation per multiply. The kernels here restructure that work the
//! way TAILS restructures it for the LEA (§7): gather each receptive
//! field into a *contiguous* row once ([`im2col_into`]), then reduce the
//! whole convolution to dot products of contiguous slices
//! ([`gemm_nt_bias`]) that the compiler can iterate without bounds checks.
//!
//! **Bit-exactness.** Every output element is accumulated *sequentially
//! in k order* starting from its bias — exactly the order of the naive
//! loop nest (channel, kernel-row, kernel-column). Instruction-level
//! parallelism comes from computing several independent outputs at once,
//! never from reordering one output's sum, so results are bit-identical
//! to [`conv2d_naive`] / a plain dot product. The equivalence proptests
//! in this module pin that down. The dense layer's minibatch kernels
//! ([`matmat_bias_lanes`], [`kept_matmat_bias_lanes`]) keep the same
//! contract: one accumulator per sample, each equal to [`matvec_bias`].
//!
//! All entry points write into caller-provided buffers; steady-state
//! inference does not allocate.

/// Output spatial size of a valid convolution.
///
/// # Panics
///
/// Panics if the kernel is larger than the input.
#[inline]
pub fn conv_out_dims(h: usize, w: usize, kh: usize, kw: usize) -> (usize, usize) {
    assert!(h >= kh && w >= kw, "conv input smaller than kernel");
    (h - kh + 1, w - kw + 1)
}

/// Gathers convolution patches into rows of a `[oh*ow, c*kh*kw]`
/// row-major matrix.
///
/// Row `p = oy*ow + ox` holds the receptive field of output position
/// `(oy, ox)` laid out in `(c, ky, kx)` order — the same order the naive
/// loop nest reduces in, and the same order filters are stored in, so a
/// filter row · patch row dot product is a contiguous × contiguous scan.
///
/// # Panics
///
/// Panics if `x` is not `c*h*w` long, `patches` is not `oh*ow*c*kh*kw`
/// long, or the kernel exceeds the input.
pub fn im2col_into(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    patches: &mut [f32],
) {
    assert_eq!(x.len(), c * h * w, "input length mismatch");
    let (oh, ow) = conv_out_dims(h, w, kh, kw);
    let k = c * kh * kw;
    assert_eq!(patches.len(), oh * ow * k, "patch matrix length mismatch");
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &mut patches[(oy * ow + ox) * k..(oy * ow + ox + 1) * k];
            let mut dst = 0;
            for cc in 0..c {
                for ky in 0..kh {
                    let src = (cc * h + oy + ky) * w + ox;
                    row[dst..dst + kw].copy_from_slice(&x[src..src + kw]);
                    dst += kw;
                }
            }
        }
    }
}

/// One output element's sequential-k dot product, seeded with `init`.
///
/// Kept sequential on purpose: reassociating the sum (e.g. 4-lane
/// partials) would change the f32 result and break bit-equivalence with
/// the reference loops.
#[inline]
fn dot_seq(init: f32, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = init;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// `C[i, j] = bias[i] + A[i, :] · B[j, :]` — a GEMM against a transposed
/// `B`, which is exactly the filter-matrix × patch-matrix product of an
/// im2col convolution (`A = filters [m, k]`, `B = patches [n, k]`).
///
/// Blocked 4 rows × 2 columns: eight independent accumulators hide FP
/// latency while each accumulator still sums its `k` terms in order (see
/// the module docs on bit-exactness). `B` rows are streamed through the
/// cache once per 4-row block of `A`.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m`, `n`, `k`.
pub fn gemm_nt_bias(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    n: usize,
    k: usize,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), n * k, "B shape mismatch");
    assert_eq!(bias.len(), m, "bias length mismatch");
    assert_eq!(c.len(), m * n, "C shape mismatch");
    let mut i = 0;
    while i + 4 <= m {
        let (a0, a1, a2, a3) = (
            &a[i * k..(i + 1) * k],
            &a[(i + 1) * k..(i + 2) * k],
            &a[(i + 2) * k..(i + 3) * k],
            &a[(i + 3) * k..(i + 4) * k],
        );
        let mut j = 0;
        while j + 2 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let (mut c00, mut c01) = (bias[i], bias[i]);
            let (mut c10, mut c11) = (bias[i + 1], bias[i + 1]);
            let (mut c20, mut c21) = (bias[i + 2], bias[i + 2]);
            let (mut c30, mut c31) = (bias[i + 3], bias[i + 3]);
            for kk in 0..k {
                let (x0, x1) = (b0[kk], b1[kk]);
                c00 += a0[kk] * x0;
                c01 += a0[kk] * x1;
                c10 += a1[kk] * x0;
                c11 += a1[kk] * x1;
                c20 += a2[kk] * x0;
                c21 += a2[kk] * x1;
                c30 += a3[kk] * x0;
                c31 += a3[kk] * x1;
            }
            c[i * n + j] = c00;
            c[i * n + j + 1] = c01;
            c[(i + 1) * n + j] = c10;
            c[(i + 1) * n + j + 1] = c11;
            c[(i + 2) * n + j] = c20;
            c[(i + 2) * n + j + 1] = c21;
            c[(i + 3) * n + j] = c30;
            c[(i + 3) * n + j + 1] = c31;
            j += 2;
        }
        if j < n {
            let bj = &b[j * k..(j + 1) * k];
            c[i * n + j] = dot_seq(bias[i], a0, bj);
            c[(i + 1) * n + j] = dot_seq(bias[i + 1], a1, bj);
            c[(i + 2) * n + j] = dot_seq(bias[i + 2], a2, bj);
            c[(i + 3) * n + j] = dot_seq(bias[i + 3], a3, bj);
        }
        i += 4;
    }
    while i < m {
        let ai = &a[i * k..(i + 1) * k];
        for j in 0..n {
            c[i * n + j] = dot_seq(bias[i], ai, &b[j * k..(j + 1) * k]);
        }
        i += 1;
    }
}

/// Dense matrix–vector product `y[o] = bias[o] + W[o, :] · x`, blocked
/// over four output rows (independent sequential-k accumulators).
///
/// # Panics
///
/// Panics if slice lengths are inconsistent.
pub fn matvec_bias(w: &[f32], x: &[f32], bias: &[f32], y: &mut [f32]) {
    let (out, inp) = (bias.len(), x.len());
    assert_eq!(w.len(), out * inp, "weight shape mismatch");
    assert_eq!(y.len(), out, "output length mismatch");
    let mut o = 0;
    while o + 4 <= out {
        let (w0, w1, w2, w3) = (
            &w[o * inp..(o + 1) * inp],
            &w[(o + 1) * inp..(o + 2) * inp],
            &w[(o + 2) * inp..(o + 3) * inp],
            &w[(o + 3) * inp..(o + 4) * inp],
        );
        let mut y0 = bias[o];
        let mut y1 = bias[o + 1];
        let mut y2 = bias[o + 2];
        let mut y3 = bias[o + 3];
        for i in 0..inp {
            let xi = x[i];
            y0 += w0[i] * xi;
            y1 += w1[i] * xi;
            y2 += w2[i] * xi;
            y3 += w3[i] * xi;
        }
        y[o] = y0;
        y[o + 1] = y1;
        y[o + 2] = y2;
        y[o + 3] = y3;
        o += 4;
    }
    while o < out {
        y[o] = dot_seq(bias[o], &w[o * inp..(o + 1) * inp], x);
        o += 1;
    }
}

/// Samples per lane group of the minibatch kernels. A lane group keeps
/// one accumulator per sample side by side, so each weight it loads
/// serves `LANES` samples; the dense forward is bound by weight loads,
/// and this reuse is its speed-up.
pub const LANES: usize = 8;

/// The lane count of a minibatch of `samples`: the sample count rounded
/// up to a multiple of [`LANES`].
pub fn lanes_for(samples: usize) -> usize {
    samples.div_ceil(LANES) * LANES
}

/// Lays a minibatch out lane-major for the minibatch kernels:
/// `xt[j * lanes + s] = rows[s][j]`, with `lanes` from [`lanes_for`] and
/// the pad lanes holding +0.0. Returns `lanes`.
///
/// # Panics
///
/// Panics if a row is not `k` long.
pub fn to_lanes<'a>(
    rows: impl ExactSizeIterator<Item = &'a [f32]>,
    k: usize,
    xt: &mut Vec<f32>,
) -> usize {
    let lanes = lanes_for(rows.len());
    xt.clear();
    xt.resize(k * lanes, 0.0);
    for (s, row) in rows.enumerate() {
        assert_eq!(row.len(), k, "row length mismatch");
        for (j, &v) in row.iter().enumerate() {
            xt[j * lanes + s] = v;
        }
    }
    lanes
}

/// One lane group's slice of a lane-major row.
#[inline(always)]
fn lane_group(xt: &[f32], at: usize) -> &[f32; LANES] {
    xt[at..at + LANES].try_into().expect("LANES-long slice")
}

/// `R` weight rows against lane group `c` of `xt`: each accumulator
/// starts at its row's bias and sums its terms in column order.
#[inline(always)]
fn rows_dot_lanes<const R: usize>(
    rows: [&[f32]; R],
    bias: [f32; R],
    xt: &[f32],
    lanes: usize,
    c: usize,
) -> [[f32; LANES]; R] {
    let mut acc = bias.map(|b| [b; LANES]);
    for k in 0..rows[0].len() {
        let x = lane_group(xt, k * lanes + c);
        for (acc, row) in acc.iter_mut().zip(&rows) {
            let wv = row[k];
            for (a, &xv) in acc.iter_mut().zip(x) {
                *a += wv * xv;
            }
        }
    }
    acc
}

/// `(out, in)` of a lane kernel's operands.
///
/// # Panics
///
/// Panics if `lanes` is not a positive multiple of [`LANES`] or a slice
/// length is inconsistent.
fn lane_dims(w: &[f32], xt: &[f32], bias: &[f32], lanes: usize, y: &[f32]) -> (usize, usize) {
    assert!(
        lanes > 0 && lanes.is_multiple_of(LANES),
        "lanes must be a multiple of LANES"
    );
    let (out, inp) = (bias.len(), xt.len() / lanes);
    assert_eq!(xt.len(), inp * lanes, "lane-major input shape mismatch");
    assert_eq!(w.len(), out * inp, "weight shape mismatch");
    assert_eq!(y.len(), out * lanes, "output length mismatch");
    (out, inp)
}

/// The minibatch form of [`matvec_bias`]:
/// `y[o * lanes + s] = bias[o] + W[o, :] · xt[:, s]` for a lane-major
/// batch from [`to_lanes`]. Each sum starts at its bias and adds its
/// terms in column order, exactly as [`matvec_bias`] does for one sample,
/// so every lane is bit-identical to it. Blocked two rows × [`LANES`]
/// samples: each weight is loaded once per lane group instead of once
/// per sample.
///
/// # Panics
///
/// Panics if `lanes` is not a positive multiple of [`LANES`] or a slice
/// length is inconsistent.
pub fn matmat_bias_lanes(w: &[f32], xt: &[f32], bias: &[f32], lanes: usize, y: &mut [f32]) {
    let (out, inp) = lane_dims(w, xt, bias, lanes, y);
    let mut o = 0;
    while o < out {
        for c in (0..lanes).step_by(LANES) {
            let store = |y: &mut [f32], o: usize, acc: &[f32; LANES]| {
                y[o * lanes + c..][..LANES].copy_from_slice(acc);
            };
            if o + 2 <= out {
                let rows = [&w[o * inp..][..inp], &w[(o + 1) * inp..][..inp]];
                let [y0, y1] = rows_dot_lanes(rows, [bias[o], bias[o + 1]], xt, lanes, c);
                store(y, o, &y0);
                store(y, o + 1, &y1);
            } else {
                let [y0] = rows_dot_lanes([&w[o * inp..][..inp]], [bias[o]], xt, lanes, c);
                store(y, o, &y0);
            }
        }
        o += 2;
    }
}

/// [`matmat_bias_lanes`] for a pruned weight matrix whose other entries
/// are +0.0: row `o` sums only over `row_cols(o)`, the flat indices
/// (`o * in + column`, ascending) of its kept weights, from its bias in
/// column order. A row whose bias is −0.0 sums over the full row.
///
/// Bit-identical to [`matmat_bias_lanes`] over the full matrix for finite
/// inputs: a skipped term is `+0.0 · x = ±0.0`, and adding ±0.0 leaves an
/// accumulator's bits unchanged unless it is −0.0. An accumulator that
/// starts at a bias other than −0.0 never becomes −0.0, since a sum is
/// −0.0 only if both addends are; a −0.0 bias would be flipped to +0.0 by
/// a skipped `+0.0 · x`, which is why such a row keeps every term.
///
/// # Panics
///
/// Panics as [`matmat_bias_lanes`] does, or if a kept index lies outside
/// its row.
pub fn kept_matmat_bias_lanes<'a>(
    w: &[f32],
    xt: &[f32],
    bias: &[f32],
    lanes: usize,
    row_cols: impl Fn(usize) -> &'a [u32],
    y: &mut [f32],
) {
    let (_, inp) = lane_dims(w, xt, bias, lanes, y);
    let neg_zero = (-0.0f32).to_bits();
    for (o, &b) in bias.iter().enumerate() {
        let (row, cols) = (&w[o * inp..][..inp], row_cols(o));
        for c in (0..lanes).step_by(LANES) {
            let acc = if b.to_bits() == neg_zero {
                rows_dot_lanes([row], [b], xt, lanes, c)[0]
            } else {
                let mut acc = [b; LANES];
                for &k in cols {
                    let col = k as usize - o * inp;
                    let wv = row[col];
                    for (a, &xv) in acc.iter_mut().zip(lane_group(xt, col * lanes + c)) {
                        *a += wv * xv;
                    }
                }
                acc
            };
            y[o * lanes + c..][..LANES].copy_from_slice(&acc);
        }
    }
}

/// One sample of [`kept_matmat_bias_lanes`]: `y[o]` sums row `o`'s kept
/// weights (`row_cols(o)`, flat indices `o * in + column`, ascending)
/// against `x` from its bias in column order, and a row whose bias is
/// −0.0 sums over the full row. The terms and their order are the lane
/// kernel's for one sample, so it is bit-identical to [`matvec_bias`]
/// over the full matrix for finite inputs.
///
/// # Panics
///
/// Panics if a slice length is inconsistent or a kept index lies outside
/// its row.
pub fn kept_matvec_bias<'a>(
    w: &[f32],
    x: &[f32],
    bias: &[f32],
    row_cols: impl Fn(usize) -> &'a [u32],
    y: &mut [f32],
) {
    let inp = x.len();
    assert_eq!(w.len(), bias.len() * inp, "weight shape mismatch");
    assert_eq!(y.len(), bias.len(), "output length mismatch");
    let neg_zero = (-0.0f32).to_bits();
    for (o, (yv, &b)) in y.iter_mut().zip(bias).enumerate() {
        let row = &w[o * inp..][..inp];
        *yv = if b.to_bits() == neg_zero {
            dot_seq(b, row, x)
        } else {
            let mut acc = b;
            for &k in row_cols(o) {
                let col = k as usize - o * inp;
                acc += row[col] * x[col];
            }
            acc
        };
    }
}

/// Full im2col convolution: patches into `patches` (scratch, reused
/// across calls), result into `out` (`[nf, oh, ow]` flattened).
///
/// # Panics
///
/// Panics if any buffer length is inconsistent with the shapes.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_im2col(
    x: &[f32],
    filters: &[f32],
    bias: &[f32],
    c: usize,
    h: usize,
    w: usize,
    nf: usize,
    kh: usize,
    kw: usize,
    patches: &mut Vec<f32>,
    out: &mut [f32],
) {
    let (oh, ow) = conv_out_dims(h, w, kh, kw);
    let k = c * kh * kw;
    assert_eq!(filters.len(), nf * k, "filter length mismatch");
    assert_eq!(out.len(), nf * oh * ow, "output length mismatch");
    // No clear() first: every element is overwritten, and resize() alone
    // is a no-op when the size is unchanged (steady-state reuse).
    patches.resize(oh * ow * k, 0.0);
    im2col_into(x, c, h, w, kh, kw, patches);
    gemm_nt_bias(filters, patches, bias, nf, oh * ow, k, out);
}

/// The naive 6-deep loop-nest convolution — the reference the optimized
/// path must match bit-for-bit (and the baseline the `kernels` criterion
/// bench compares against).
///
/// # Panics
///
/// Panics if any buffer length is inconsistent with the shapes.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_naive(
    x: &[f32],
    filters: &[f32],
    bias: &[f32],
    c: usize,
    h: usize,
    w: usize,
    nf: usize,
    kh: usize,
    kw: usize,
    out: &mut [f32],
) {
    let (oh, ow) = conv_out_dims(h, w, kh, kw);
    assert_eq!(x.len(), c * h * w, "input length mismatch");
    assert_eq!(filters.len(), nf * c * kh * kw, "filter length mismatch");
    assert_eq!(out.len(), nf * oh * ow, "output length mismatch");
    for f in 0..nf {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias[f];
                for cc in 0..c {
                    for ky in 0..kh {
                        let xrow = (cc * h + oy + ky) * w + ox;
                        let frow = ((f * c + cc) * kh + ky) * kw;
                        for kx in 0..kw {
                            acc += x[xrow + kx] * filters[frow + kx];
                        }
                    }
                }
                out[(f * oh + oy) * ow + ox] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[allow(clippy::type_complexity)]
    fn random_case(
        seed: u64,
    ) -> (
        Vec<f32>,
        Vec<f32>,
        Vec<f32>,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
    ) {
        let mut r = rng(seed);
        let c = r.gen_range(1..4usize);
        let kh = r.gen_range(1..4usize);
        let kw = r.gen_range(1..5usize);
        let h = kh + r.gen_range(0..6usize);
        let w = kw + r.gen_range(0..6usize);
        let nf = r.gen_range(1..7usize);
        let x: Vec<f32> = (0..c * h * w).map(|_| r.gen_range(-1.0..1.0)).collect();
        let filters: Vec<f32> = (0..nf * c * kh * kw)
            .map(|_| r.gen_range(-1.0..1.0))
            .collect();
        let bias: Vec<f32> = (0..nf).map(|_| r.gen_range(-0.5..0.5)).collect();
        (x, filters, bias, c, h, w, nf, kh, kw)
    }

    #[test]
    fn im2col_rows_are_receptive_fields() {
        // 1 channel, 3x3 image, 2x2 kernel: row for output (0,0) is the
        // top-left 2x2 block in row-major order.
        let x: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let mut p = vec![0.0; 4 * 4];
        im2col_into(&x, 1, 3, 3, 2, 2, &mut p);
        assert_eq!(&p[0..4], &[0.0, 1.0, 3.0, 4.0]);
        assert_eq!(&p[12..16], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn gemm_matches_sequential_dot_bitwise() {
        let mut r = rng(3);
        // Sizes straddling the 4x2 blocking (remainders in both dims).
        for (m, n, k) in [(1, 1, 1), (4, 2, 8), (5, 3, 7), (9, 5, 13), (3, 2, 4)] {
            let a: Vec<f32> = (0..m * k).map(|_| r.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..n * k).map(|_| r.gen_range(-1.0..1.0)).collect();
            let bias: Vec<f32> = (0..m).map(|_| r.gen_range(-1.0..1.0)).collect();
            let mut c = vec![0.0; m * n];
            gemm_nt_bias(&a, &b, &bias, m, n, k, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let want = dot_seq(bias[i], &a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_eq!(c[i * n + j].to_bits(), want.to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn matvec_matches_sequential_dot_bitwise() {
        let mut r = rng(4);
        for (out, inp) in [(1, 3), (4, 5), (6, 8), (11, 2)] {
            let w: Vec<f32> = (0..out * inp).map(|_| r.gen_range(-1.0..1.0)).collect();
            let x: Vec<f32> = (0..inp).map(|_| r.gen_range(-1.0..1.0)).collect();
            let bias: Vec<f32> = (0..out).map(|_| r.gen_range(-1.0..1.0)).collect();
            let mut y = vec![0.0; out];
            matvec_bias(&w, &x, &bias, &mut y);
            for o in 0..out {
                let want = dot_seq(bias[o], &w[o * inp..(o + 1) * inp], &x);
                assert_eq!(y[o].to_bits(), want.to_bits(), "row {o}");
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(60))]

            /// The tentpole contract: the im2col-GEMM convolution is
            /// bit-for-bit equal to the naive 6-loop reference in f32.
            #[test]
            fn im2col_gemm_conv_matches_naive_bitwise(seed in any::<u64>()) {
                let (x, filters, bias, c, h, w, nf, kh, kw) = random_case(seed);
                let (oh, ow) = conv_out_dims(h, w, kh, kw);
                let mut patches = Vec::new();
                let mut fast = vec![0.0; nf * oh * ow];
                let mut naive = vec![0.0; nf * oh * ow];
                conv2d_im2col(
                    &x, &filters, &bias, c, h, w, nf, kh, kw, &mut patches, &mut fast,
                );
                conv2d_naive(&x, &filters, &bias, c, h, w, nf, kh, kw, &mut naive);
                let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
                let naive_bits: Vec<u32> = naive.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(fast_bits, naive_bits);
            }
        }
    }

    #[test]
    fn im2col_conv_matches_naive_bitwise_on_random_shapes() {
        for seed in 0..50 {
            let (x, filters, bias, c, h, w, nf, kh, kw) = random_case(seed);
            let (oh, ow) = conv_out_dims(h, w, kh, kw);
            let mut patches = Vec::new();
            let mut fast = vec![0.0; nf * oh * ow];
            let mut naive = vec![0.0; nf * oh * ow];
            conv2d_im2col(
                &x,
                &filters,
                &bias,
                c,
                h,
                w,
                nf,
                kh,
                kw,
                &mut patches,
                &mut fast,
            );
            conv2d_naive(&x, &filters, &bias, c, h, w, nf, kh, kw, &mut naive);
            let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
            let naive_bits: Vec<u32> = naive.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, naive_bits, "seed {seed}");
        }
    }
}
