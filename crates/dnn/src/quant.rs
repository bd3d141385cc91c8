//! Post-training quantization to the deployable Q1.15 form.
//!
//! The MSP430 kernels (and LEA) compute in 16-bit fixed point. Trained
//! `f32` weights can exceed `[-1, 1)`, so each weight tensor is scaled
//! down by a power of two, and the accumulated result is scaled back with
//! a bit shift — the very shifts the paper laments LEA cannot do in
//! hardware ("LEA does not have a left-shift operation", §9.2), which
//! TAILS therefore performs in software.
//!
//! Activations are kept in range by per-layer power-of-two output scaling
//! chosen from a calibration pass. All scalings are uniform within a
//! layer, so the final argmax (classification) is unaffected.
//!
//! The resulting [`QModel`] is the single source of truth that every
//! implementation in the evaluation — naïve baseline, tiled Alpaca, SONIC,
//! TAILS — deploys and executes.

use crate::model::Model;
use crate::tensor::Tensor;
use fxp::{Accum, Q15};

/// Quantized layer kinds.
#[derive(Clone, Debug)]
pub enum QLayer {
    /// Convolution (dense storage always present; sparse taps when pruned).
    Conv(QConv),
    /// Fully-connected (dense storage always present; CSR when pruned).
    Dense(QDense),
    /// Max pooling.
    Pool(QPool),
    /// ReLU.
    Relu,
    /// Flatten (shape bookkeeping only).
    Flatten,
}

/// A quantized convolution.
#[derive(Clone, Debug)]
pub struct QConv {
    /// `[F, C, KH, KW]`.
    pub dims: [usize; 4],
    /// Dense scaled weights, length `F*C*KH*KW` (zeros where pruned).
    pub weights: Vec<Q15>,
    /// Scaled biases, length `F`.
    pub bias: Vec<Q15>,
    /// Net bit shift applied to each accumulated output (positive =
    /// left/saturating, negative = right).
    pub shift: i32,
    /// Sparse tap lists when the layer is deployed sparse.
    pub sparse: Option<QSparseConv>,
}

/// One nonzero tap of a quantized sparse convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QTap {
    /// Input channel.
    pub c: u16,
    /// Kernel row.
    pub ky: u16,
    /// Kernel column.
    pub kx: u16,
    /// Scaled tap value.
    pub w: Q15,
}

/// Per-filter nonzero taps of a pruned convolution.
#[derive(Clone, Debug)]
pub struct QSparseConv {
    /// `taps[f]` lists filter `f`'s nonzeros in (c, ky, kx) order.
    pub taps: Vec<Vec<QTap>>,
}

/// A quantized fully-connected layer.
#[derive(Clone, Debug)]
pub struct QDense {
    /// `[out, in]`.
    pub dims: [usize; 2],
    /// Dense scaled weights, length `out*in` (zeros where pruned).
    pub weights: Vec<Q15>,
    /// Scaled biases, length `out`.
    pub bias: Vec<Q15>,
    /// Net bit shift applied to each accumulated output.
    pub shift: i32,
    /// CSR form when the layer is deployed sparse.
    pub sparse: Option<QCsr>,
}

/// Quantized CSR matrix.
#[derive(Clone, Debug)]
pub struct QCsr {
    /// Row start offsets (length `out + 1`).
    pub row_ptr: Vec<u32>,
    /// Column of each nonzero.
    pub col: Vec<u32>,
    /// Scaled value of each nonzero.
    pub val: Vec<Q15>,
}

/// Derives the canonical per-filter sparse tap lists from dense conv
/// weights (`dims = [F, C, KH, KW]`), dropping exact zeros in
/// `(c, ky, kx)` order. The single source of truth shared by
/// [`quantize`], the equivalence proptests, and the kernel benches.
///
/// # Panics
///
/// Panics if `weights` does not match `dims`.
pub fn sparse_taps_from_weights(dims: [usize; 4], weights: &[Q15]) -> QSparseConv {
    let (nf, nc, kh, kw) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(weights.len(), nf * nc * kh * kw, "weight length mismatch");
    let mut taps = Vec::with_capacity(nf);
    for f in 0..nf {
        let mut list = Vec::new();
        for cc in 0..nc {
            for ky in 0..kh {
                for kx in 0..kw {
                    let w = weights[((f * nc + cc) * kh + ky) * kw + kx];
                    if !w.is_zero() {
                        list.push(QTap {
                            c: cc as u16,
                            ky: ky as u16,
                            kx: kx as u16,
                            w,
                        });
                    }
                }
            }
        }
        taps.push(list);
    }
    QSparseConv { taps }
}

/// Derives the canonical CSR form from dense fully-connected weights
/// (`dims = [out, in]`), dropping exact zeros row by row. The single
/// source of truth shared by [`quantize`], the equivalence proptests,
/// and the kernel benches.
///
/// # Panics
///
/// Panics if `weights` does not match `dims`.
pub fn csr_from_weights(dims: [usize; 2], weights: &[Q15]) -> QCsr {
    assert_eq!(weights.len(), dims[0] * dims[1], "weight length mismatch");
    let mut row_ptr = Vec::with_capacity(dims[0] + 1);
    let mut col = Vec::new();
    let mut val = Vec::new();
    row_ptr.push(0u32);
    for r in 0..dims[0] {
        for c in 0..dims[1] {
            let w = weights[r * dims[1] + c];
            if !w.is_zero() {
                col.push(c as u32);
                val.push(w);
            }
        }
        row_ptr.push(col.len() as u32);
    }
    QCsr { row_ptr, col, val }
}

/// Quantized max pooling.
#[derive(Clone, Copy, Debug)]
pub struct QPool {
    /// Window height (and vertical stride).
    pub kh: usize,
    /// Window width (and horizontal stride).
    pub kw: usize,
}

/// Layers deployed sparse when density falls below this fraction.
pub const SPARSE_DENSITY_THRESHOLD: f64 = 0.5;

/// Calibration headroom: activations are scaled to stay below this
/// magnitude.
const HEADROOM: f32 = 0.95;

/// A quantized, deployable model.
#[derive(Clone, Debug)]
pub struct QModel {
    /// Input tensor shape.
    pub input_shape: Vec<usize>,
    /// The quantized layer stack.
    pub layers: Vec<QLayer>,
}

impl QLayer {
    /// Output shape for a given input shape (mirrors
    /// [`crate::layers::Layer::output_shape`]).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        match self {
            QLayer::Conv(c) => {
                assert_eq!(input.len(), 3, "conv input must be rank-3");
                assert_eq!(input[0], c.dims[1], "conv channel mismatch");
                vec![
                    c.dims[0],
                    input[1] - c.dims[2] + 1,
                    input[2] - c.dims[3] + 1,
                ]
            }
            QLayer::Dense(d) => {
                let n: usize = input.iter().product();
                assert_eq!(n, d.dims[1], "dense input size mismatch");
                vec![d.dims[0]]
            }
            QLayer::Pool(p) => {
                assert_eq!(input.len(), 3, "pool input must be rank-3");
                vec![input[0], input[1] / p.kh, input[2] / p.kw]
            }
            QLayer::Relu | QLayer::Flatten => {
                if matches!(self, QLayer::Flatten) {
                    vec![input.iter().product()]
                } else {
                    input.to_vec()
                }
            }
        }
    }

    /// `true` when the layer is deployed in a sparse representation.
    pub fn is_sparse(&self) -> bool {
        match self {
            QLayer::Conv(c) => c.sparse.is_some(),
            QLayer::Dense(d) => d.sparse.is_some(),
            _ => false,
        }
    }

    /// FRAM words needed to store this layer's parameters in its deployed
    /// representation (16-bit words; sparse entries cost a value word plus
    /// a packed index word).
    pub fn param_words(&self) -> u64 {
        match self {
            QLayer::Conv(c) => {
                let w = match &c.sparse {
                    Some(s) => s.taps.iter().map(|t| 2 * t.len() as u64 + 1).sum::<u64>(),
                    None => c.weights.len() as u64,
                };
                w + c.bias.len() as u64
            }
            QLayer::Dense(d) => {
                let w = match &d.sparse {
                    Some(s) => (2 * s.val.len() + s.row_ptr.len()) as u64,
                    None => d.weights.len() as u64,
                };
                w + d.bias.len() as u64
            }
            _ => 0,
        }
    }
}

/// Applies a net bit shift to an accumulated value and converts to Q1.15.
///
/// This is the *canonical finishing step* shared by every kernel
/// implementation (host reference, baseline, tiled, SONIC, TAILS), so all
/// of them agree on arithmetic semantics.
#[inline]
pub fn finish_acc(acc: Accum, shift: i32, bias: Q15) -> Q15 {
    let q = acc.to_q15();
    let shifted = if shift >= 0 {
        q.saturating_shl(shift as u32)
    } else {
        q.shr((-shift) as u32)
    };
    shifted.saturating_add(bias)
}

fn pow2_shift_for(max_abs: f32) -> i32 {
    // Smallest s >= 0 with max_abs / 2^s < 1.0.
    let mut s = 0;
    let mut m = max_abs;
    while m >= 1.0 && s < 15 {
        m /= 2.0;
        s += 1;
    }
    s
}

fn quantize_scaled(data: &[f32], down_shift: i32) -> Vec<Q15> {
    let scale = (2.0f32).powi(-down_shift);
    data.iter().map(|&v| Q15::from_f32(v * scale)).collect()
}

/// Quantizes a trained model for deployment.
///
/// `calib` supplies a few representative inputs used to choose per-layer
/// activation scales; with an empty slice, activations are assumed to stay
/// in `[-1, 1)` (risking saturation).
///
/// # Panics
///
/// Panics if the model contains shapes inconsistent with `input_shape`.
pub fn quantize(model: &mut Model, input_shape: &[usize], calib: &[Tensor]) -> QModel {
    // 1. Calibration: per-layer max |output| in the *real* (float) domain.
    let n_layers = model.layers().len();
    let mut max_out = vec![0.0f32; n_layers];
    for x in calib {
        let mut t = x.clone();
        for (li, l) in model.layers_mut().iter_mut().enumerate() {
            t = l.forward(&t);
            max_out[li] = max_out[li].max(t.max_abs());
        }
    }

    // 2. Walk layers, tracking the activation scale exponent `a` (<= 0):
    //    quantized activations = real · 2^a.
    let mut a: i32 = 0;
    let mut layers = Vec::with_capacity(n_layers);
    for (li, l) in model.layers().iter().enumerate() {
        match l {
            crate::layers::Layer::Dense(d) => {
                let ws = pow2_shift_for(d.w.max_abs());
                let a_out = -(pow2_shift_for(max_out[li] / HEADROOM));
                let shift = a_out - a + ws;
                let weights = quantize_scaled(d.w.data(), ws);
                let bias_scale = (2.0f32).powi(a_out);
                let bias =
                    d.b.data()
                        .iter()
                        .map(|&b| Q15::from_f32(b * bias_scale))
                        .collect();
                let dims = [d.w.shape()[0], d.w.shape()[1]];
                let nnz = weights.iter().filter(|w| !w.is_zero()).count();
                let density = nnz as f64 / weights.len() as f64;
                let sparse =
                    (density < SPARSE_DENSITY_THRESHOLD).then(|| csr_from_weights(dims, &weights));
                layers.push(QLayer::Dense(QDense {
                    dims,
                    weights,
                    bias,
                    shift,
                    sparse,
                }));
                a = a_out;
            }
            crate::layers::Layer::Conv2d(c) => {
                let ws = pow2_shift_for(c.filters.max_abs());
                let a_out = -(pow2_shift_for(max_out[li] / HEADROOM));
                let shift = a_out - a + ws;
                let weights = quantize_scaled(c.filters.data(), ws);
                let bias_scale = (2.0f32).powi(a_out);
                let bias = c
                    .bias
                    .data()
                    .iter()
                    .map(|&b| Q15::from_f32(b * bias_scale))
                    .collect();
                let s = c.filters.shape();
                let dims = [s[0], s[1], s[2], s[3]];
                let nnz = weights.iter().filter(|w| !w.is_zero()).count();
                let density = nnz as f64 / weights.len() as f64;
                let sparse = (density < SPARSE_DENSITY_THRESHOLD)
                    .then(|| sparse_taps_from_weights(dims, &weights));
                layers.push(QLayer::Conv(QConv {
                    dims,
                    weights,
                    bias,
                    shift,
                    sparse,
                }));
                a = a_out;
            }
            crate::layers::Layer::MaxPool2d(p) => {
                layers.push(QLayer::Pool(QPool { kh: p.kh, kw: p.kw }))
            }
            crate::layers::Layer::Relu(_) => layers.push(QLayer::Relu),
            crate::layers::Layer::Flatten(_) => layers.push(QLayer::Flatten),
        }
    }
    QModel {
        input_shape: input_shape.to_vec(),
        layers,
    }
}

/// The conv and fully-connected kernels of one arithmetic family.
///
/// [`QModel::forward_with`] runs a family over the one host layer walk
/// (ping-pong activations, max pooling, ReLU); [`FullPrecision`] is the
/// naïve baseline's family, the one [`QModel::forward_host`] runs.
pub trait QKernels {
    /// Writes the conv's output planes for input `x` of `shape` to `out`.
    fn conv(&mut self, c: &QConv, x: &[Q15], shape: &[usize], out: &mut Vec<Q15>);
    /// Writes the fully-connected layer's outputs for input `x` to `out`.
    fn dense(&mut self, d: &QDense, x: &[Q15], out: &mut Vec<Q15>);
}

/// Full-precision accumulation per output element (the naïve baseline's
/// semantics), through [`conv_host_into`] and [`dense_host_into`].
#[derive(Clone, Debug, Default)]
pub struct FullPrecision {
    /// One output row of wide accumulators.
    acc_row: Vec<Accum>,
    /// One filter's [`filter_taps`].
    tap_bases: Vec<(usize, Q15)>,
}

impl QKernels for FullPrecision {
    fn conv(&mut self, c: &QConv, x: &[Q15], shape: &[usize], out: &mut Vec<Q15>) {
        conv_host_into(c, x, shape, &mut self.acc_row, &mut self.tap_bases, out);
    }

    fn dense(&mut self, d: &QDense, x: &[Q15], out: &mut Vec<Q15>) {
        dense_host_into(d, x, out);
    }
}

/// Reusable buffers for [`QModel::forward_with`], so repeated host
/// inferences (calibration sweeps, GENESIS accuracy evaluation, lockstep
/// twins) reuse their activation and kernel buffers.
#[derive(Clone, Debug, Default)]
pub struct HostScratch<K = FullPrecision> {
    /// The arithmetic family the pass runs, with its own scratch.
    pub kernels: K,
    /// Activation ping buffer.
    ping: Vec<Q15>,
    /// Activation pong buffer.
    pong: Vec<Q15>,
}

impl QModel {
    /// Quantizes an input tensor to Q1.15 (inputs are expected in
    /// `[-1, 1)`, which all generators in [`crate::data`] guarantee).
    pub fn quantize_input(&self, x: &Tensor) -> Vec<Q15> {
        x.data().iter().map(|&v| Q15::from_f32(v)).collect()
    }

    /// Host forward pass, with full-precision accumulation per output
    /// element (the naïve baseline's semantics). Allocates fresh scratch;
    /// hot loops should hold a [`HostScratch`] and call
    /// [`QModel::forward_host_with`].
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input shape.
    pub fn forward_host(&self, x: &[Q15]) -> Vec<Q15> {
        self.forward_host_with(x, &mut HostScratch::default())
    }

    /// Host forward pass through caller-provided scratch buffers: the
    /// baseline family of [`QModel::forward_with`].
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input shape.
    pub fn forward_host_with(&self, x: &[Q15], s: &mut HostScratch) -> Vec<Q15> {
        self.forward_with(x, s)
    }

    /// Host forward pass of an arithmetic family's kernels.
    ///
    /// Activations ping-pong between two reused buffers, so a steady-state
    /// inference allocates no activation buffer beyond the returned logits.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input shape.
    pub fn forward_with<K: QKernels>(&self, x: &[Q15], s: &mut HostScratch<K>) -> Vec<Q15> {
        let expect: usize = self.input_shape.iter().product();
        assert_eq!(x.len(), expect, "input size mismatch");
        let mut shape = self.input_shape.clone();
        s.ping.clear();
        s.ping.extend_from_slice(x);
        for l in &self.layers {
            let out_shape = l.output_shape(&shape);
            match l {
                QLayer::Conv(c) => {
                    s.kernels.conv(c, &s.ping, &shape, &mut s.pong);
                    std::mem::swap(&mut s.ping, &mut s.pong);
                }
                QLayer::Dense(d) => {
                    s.kernels.dense(d, &s.ping, &mut s.pong);
                    std::mem::swap(&mut s.ping, &mut s.pong);
                }
                QLayer::Pool(p) => {
                    pool_host_into(p, &s.ping, &shape, &mut s.pong);
                    std::mem::swap(&mut s.ping, &mut s.pong);
                }
                QLayer::Relu => {
                    for v in s.ping.iter_mut() {
                        *v = v.relu();
                    }
                }
                QLayer::Flatten => {}
            }
            shape = out_shape;
        }
        s.ping.clone()
    }

    /// Classifies an input: argmax over the quantized logits.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input shape.
    pub fn predict_host(&self, x: &Tensor) -> usize {
        self.predict_host_with(x, &mut HostScratch::default())
    }

    /// [`QModel::predict_host`] through caller-provided scratch (the form
    /// GENESIS's accuracy sweeps use).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input shape.
    pub fn predict_host_with(&self, x: &Tensor, s: &mut HostScratch) -> usize {
        let logits = self.forward_host_with(&self.quantize_input(x), s);
        fxp::vecops::argmax(&logits).expect("empty logits")
    }

    /// FRAM words needed for all parameters in deployed form.
    pub fn param_words(&self) -> u64 {
        self.layers.iter().map(QLayer::param_words).sum()
    }

    /// FRAM words needed for activation buffers: SONIC's loop-ordered
    /// buffering double-buffers the largest inter-layer activation.
    pub fn activation_words(&self) -> u64 {
        let mut shape = self.input_shape.clone();
        let mut largest: usize = shape.iter().product();
        for l in &self.layers {
            shape = l.output_shape(&shape);
            largest = largest.max(shape.iter().product());
        }
        2 * largest as u64
    }

    /// Total FRAM words (parameters + activation double buffers).
    pub fn fram_words(&self) -> u64 {
        self.param_words() + self.activation_words()
    }

    /// Output shape of the whole model.
    pub fn output_shape(&self) -> Vec<usize> {
        let mut shape = self.input_shape.clone();
        for l in &self.layers {
            shape = l.output_shape(&shape);
        }
        shape
    }
}

/// Quantized convolution on the host (allocating wrapper over
/// [`conv_host_into`]). Bit-identical to [`conv_host_reference`]; the
/// equivalence proptests in this module pin that down.
pub fn conv_host(c: &QConv, x: &[Q15], shape: &[usize]) -> Vec<Q15> {
    let mut out = Vec::new();
    let (mut acc_row, mut tap_bases) = (Vec::new(), Vec::new());
    conv_host_into(c, x, shape, &mut acc_row, &mut tap_bases, &mut out);
    out
}

/// Filter `f`'s taps, in `(c, ky, kx)` order, as (offset of the tap's
/// input for output element 0, weight) over `h × w` input planes: the
/// sparse taps when the layer is pruned, every dense weight otherwise.
pub fn filter_taps(c: &QConv, f: usize, h: usize, w: usize, taps: &mut Vec<(usize, Q15)>) {
    taps.clear();
    match &c.sparse {
        Some(s) => taps.extend(s.taps[f].iter().map(|t| {
            let (cc, ky, kx) = (t.c as usize, t.ky as usize, t.kx as usize);
            ((cc * h + ky) * w + kx, t.w)
        })),
        None => {
            let (nc, kh, kw) = (c.dims[1], c.dims[2], c.dims[3]);
            let n = nc * kh * kw;
            let weights = c.weights[f * n..(f + 1) * n].iter().enumerate();
            taps.extend(weights.map(|(pos, &wq)| {
                let (cc, ky, kx) = (pos / (kh * kw), pos / kw % kh, pos % kw);
                ((cc * h + ky) * w + kx, wq)
            }));
        }
    }
}

/// Restructured quantized convolution.
///
/// Each (filter, output-row) pair keeps a row of wide accumulators, and
/// each of the filter's [`filter_taps`] is one [`fxp::vecops::mac_acc`]
/// of a contiguous image row into it. Because [`Accum`] arithmetic is
/// exact, this reordering is bit-identical to the reference
/// element-at-a-time loops.
///
/// # Panics
///
/// Panics if `x`/`shape` do not match the layer.
pub fn conv_host_into(
    c: &QConv,
    x: &[Q15],
    shape: &[usize],
    acc_row: &mut Vec<Accum>,
    tap_bases: &mut Vec<(usize, Q15)>,
    out: &mut Vec<Q15>,
) {
    let (nf, nc, kh, kw) = (c.dims[0], c.dims[1], c.dims[2], c.dims[3]);
    let (h, w) = (shape[1], shape[2]);
    assert_eq!(x.len(), nc * h * w, "conv input mismatch");
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    // Every output element and every accumulator lane is written below,
    // so plain resize() suffices (no-op re-zeroing in steady state).
    out.resize(nf * oh * ow, Q15::ZERO);
    acc_row.resize(ow, Accum::ZERO);
    for f in 0..nf {
        let bias = c.bias[f];
        filter_taps(c, f, h, w, tap_bases);
        for oy in 0..oh {
            acc_row.fill(Accum::ZERO);
            for &(base, tw) in tap_bases.iter() {
                let xrow = &x[base + oy * w..base + oy * w + ow];
                fxp::vecops::mac_acc(acc_row, xrow, tw);
            }
            let orow = &mut out[(f * oh + oy) * ow..(f * oh + oy + 1) * ow];
            for (o, &acc) in orow.iter_mut().zip(acc_row.iter()) {
                *o = finish_acc(acc, c.shift, bias);
            }
        }
    }
}

/// Quantized fully-connected layer on the host (allocating wrapper over
/// [`dense_host_into`]). Bit-identical to [`dense_host_reference`].
pub fn dense_host(d: &QDense, x: &[Q15]) -> Vec<Q15> {
    let mut out = Vec::new();
    dense_host_into(d, x, &mut out);
    out
}

/// Restructured quantized fully-connected kernel: the sparse/dense
/// dispatch is hoisted out of the output loop, the dense path is one
/// [`fxp::vecops::dot`] per contiguous weight row, and the sparse path
/// walks each CSR row as a pair of zipped slices.
///
/// # Panics
///
/// Panics if `x` does not match the layer.
pub fn dense_host_into(d: &QDense, x: &[Q15], out: &mut Vec<Q15>) {
    let (out_n, in_n) = (d.dims[0], d.dims[1]);
    assert_eq!(x.len(), in_n, "dense input mismatch");
    out.clear();
    out.reserve(out_n);
    match &d.sparse {
        None => {
            for o in 0..out_n {
                let row = &d.weights[o * in_n..(o + 1) * in_n];
                let acc = fxp::vecops::dot(x, row);
                out.push(finish_acc(acc, d.shift, d.bias[o]));
            }
        }
        Some(s) => {
            for o in 0..out_n {
                let (lo, hi) = (s.row_ptr[o] as usize, s.row_ptr[o + 1] as usize);
                let mut acc = Accum::ZERO;
                for (&col, &val) in s.col[lo..hi].iter().zip(s.val[lo..hi].iter()) {
                    acc.mac(x[col as usize], val);
                }
                out.push(finish_acc(acc, d.shift, d.bias[o]));
            }
        }
    }
}

fn pool_host_into(p: &QPool, x: &[Q15], shape: &[usize], out: &mut Vec<Q15>) {
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (oh, ow) = (h / p.kh, w / p.kw);
    // Every element is written below; plain resize() avoids a re-zeroing
    // pass over a reused buffer.
    out.resize(c * oh * ow, Q15::MIN);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = Q15::MIN;
                for py in 0..p.kh {
                    for px in 0..p.kw {
                        let v = x[(ch * h + oy * p.kh + py) * w + ox * p.kw + px];
                        if v > best {
                            best = v;
                        }
                    }
                }
                out[(ch * oh + oy) * ow + ox] = best;
            }
        }
    }
}

/// The original element-at-a-time convolution loop, kept as the
/// semantic reference: the optimized [`conv_host`] must produce
/// byte-identical output (sparse and dense variants).
#[allow(clippy::needless_range_loop)] // deliberately the original naive loops
pub fn conv_host_reference(c: &QConv, x: &[Q15], shape: &[usize]) -> Vec<Q15> {
    let (nf, nc, kh, kw) = (c.dims[0], c.dims[1], c.dims[2], c.dims[3]);
    let (h, w) = (shape[1], shape[2]);
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let mut out = vec![Q15::ZERO; nf * oh * ow];
    for f in 0..nf {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = Accum::ZERO;
                match &c.sparse {
                    Some(s) => {
                        for t in &s.taps[f] {
                            let xi =
                                (t.c as usize * h + oy + t.ky as usize) * w + ox + t.kx as usize;
                            acc.mac(x[xi], t.w);
                        }
                    }
                    None => {
                        for cc in 0..nc {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let xi = (cc * h + oy + ky) * w + ox + kx;
                                    let wi = ((f * nc + cc) * kh + ky) * kw + kx;
                                    acc.mac(x[xi], c.weights[wi]);
                                }
                            }
                        }
                    }
                }
                out[(f * oh + oy) * ow + ox] = finish_acc(acc, c.shift, c.bias[f]);
            }
        }
    }
    out
}

/// The original fully-connected loop, kept as the semantic reference:
/// the optimized [`dense_host`] must produce byte-identical output
/// (sparse and dense variants).
#[allow(clippy::needless_range_loop)] // deliberately the original naive loops
pub fn dense_host_reference(d: &QDense, x: &[Q15]) -> Vec<Q15> {
    let (out_n, in_n) = (d.dims[0], d.dims[1]);
    assert_eq!(x.len(), in_n, "dense input mismatch");
    let mut out = vec![Q15::ZERO; out_n];
    for o in 0..out_n {
        let mut acc = Accum::ZERO;
        match &d.sparse {
            Some(s) => {
                for i in s.row_ptr[o] as usize..s.row_ptr[o + 1] as usize {
                    acc.mac(x[s.col[i] as usize], s.val[i]);
                }
            }
            None => {
                for i in 0..in_n {
                    acc.mac(x[i], d.weights[o * in_n + i]);
                }
            }
        }
        out[o] = finish_acc(acc, d.shift, d.bias[o]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layer;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    fn calib(n: usize, shape: &[usize]) -> Vec<Tensor> {
        let mut r = rng();
        (0..n)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut r))
            .collect()
    }

    #[test]
    fn finish_acc_applies_shift_and_bias() {
        let mut acc = Accum::ZERO;
        acc.mac(Q15::from_f32(0.25), Q15::from_f32(0.5)); // 0.125
        let y = finish_acc(acc, 1, Q15::from_f32(0.1));
        assert!((y.to_f32() - 0.35).abs() < 1e-3);
        let y2 = finish_acc(acc, -1, Q15::ZERO);
        assert!((y2.to_f32() - 0.0625).abs() < 1e-3);
    }

    #[test]
    fn pow2_shift_covers_range() {
        assert_eq!(pow2_shift_for(0.5), 0);
        assert_eq!(pow2_shift_for(1.0), 1);
        assert_eq!(pow2_shift_for(1.7), 1);
        assert_eq!(pow2_shift_for(2.0), 2);
        assert_eq!(pow2_shift_for(7.9), 3);
    }

    #[test]
    fn quantized_forward_tracks_float_forward() {
        let mut r = rng();
        let mut model = Model::new(vec![
            Layer::conv2d(3, 1, 3, 3, &mut r),
            Layer::relu(),
            Layer::maxpool(2),
            Layer::flatten(),
            Layer::dense(3 * 3 * 3, 4, &mut r),
        ]);
        let shape = [1usize, 8, 8];
        let cal = calib(4, &shape);
        let qm = quantize(&mut model, &shape, &cal);
        // On fresh inputs the quantized logits track float logits closely
        // and the argmax agrees almost always.
        let mut agree = 0;
        let mut r2 = rand::rngs::StdRng::seed_from_u64(99);
        let n = 30;
        for _ in 0..n {
            let x = Tensor::uniform(shape.to_vec(), 0.9, &mut r2);
            let fp = model.predict(&x);
            let qp = qm.predict_host(&x);
            if fp == qp {
                agree += 1;
            }
        }
        assert!(agree >= n * 8 / 10, "only {agree}/{n} argmax agreement");
    }

    #[test]
    fn large_weights_get_weight_shift() {
        let w = Tensor::from_vec(vec![1, 2], vec![3.0, -2.5]);
        let b = Tensor::from_vec(vec![1], vec![0.0]);
        let mut model = Model::new(vec![Layer::dense_from(w, b)]);
        let qm = quantize(&mut model, &[2], &calib(3, &[2]));
        match &qm.layers[0] {
            QLayer::Dense(d) => {
                // Weights stored scaled into range: 3.0/2^2 = 0.75,
                // -2.5/2^2 = -0.625.
                assert!((d.weights[0].to_f32() - 0.75).abs() < 1e-3);
                assert!((d.weights[1].to_f32() + 0.625).abs() < 1e-3);
            }
            _ => unreachable!(),
        }
        // End-to-end value check: y = 3*x0 - 2.5*x1.
        let x = Tensor::from_vec(vec![2], vec![0.1, 0.1]);
        let y = qm.forward_host(&qm.quantize_input(&x));
        // Output scale may be reduced by calibration; check ratio against a
        // second input instead of the absolute value.
        let x2 = Tensor::from_vec(vec![2], vec![0.2, 0.2]);
        let y2 = qm.forward_host(&qm.quantize_input(&x2));
        let ratio = y2[0].to_f32() / y[0].to_f32();
        assert!((ratio - 2.0).abs() < 0.1, "linearity broken: ratio {ratio}");
    }

    #[test]
    fn pruned_dense_is_deployed_sparse() {
        let mut w = Tensor::zeros(vec![4, 10]);
        w.data_mut()[3] = 0.5;
        w.data_mut()[17] = -0.25;
        let b = Tensor::zeros(vec![4]);
        let mut model = Model::new(vec![Layer::dense_from(w, b)]);
        let qm = quantize(&mut model, &[10], &calib(2, &[10]));
        match &qm.layers[0] {
            QLayer::Dense(d) => {
                let s = d.sparse.as_ref().expect("should be sparse");
                assert_eq!(s.val.len(), 2);
                assert_eq!(s.row_ptr.len(), 5);
                assert!(qm.layers[0].is_sparse());
            }
            _ => unreachable!(),
        }
        // Sparse param words < dense param words would have been.
        assert!(qm.param_words() < 44);
    }

    #[test]
    fn dense_conv_stays_dense() {
        let mut r = rng();
        let mut model = Model::new(vec![Layer::conv2d(2, 1, 3, 3, &mut r)]);
        let qm = quantize(&mut model, &[1, 6, 6], &calib(2, &[1, 6, 6]));
        assert!(!qm.layers[0].is_sparse());
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        // A conv pruned to 30% density: the sparse representation must
        // produce bit-identical outputs to the dense loop.
        let mut r = rng();
        let mut filters = Tensor::uniform(vec![2, 1, 3, 3], 0.5, &mut r);
        for (i, v) in filters.data_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let bias = Tensor::zeros(vec![2]);
        let mut model = Model::new(vec![Layer::conv2d_from(filters, bias)]);
        let shape = [1usize, 5, 5];
        let qm = quantize(&mut model, &shape, &calib(2, &shape));
        let qc = match &qm.layers[0] {
            QLayer::Conv(c) => c.clone(),
            _ => unreachable!(),
        };
        assert!(qc.sparse.is_some());
        let mut dense_version = qc.clone();
        dense_version.sparse = None;
        let x: Vec<Q15> = (0..25).map(|i| Q15::from_f32(i as f32 / 40.0)).collect();
        let a = conv_host(&qc, &x, &shape);
        let b = conv_host(&dense_version, &x, &shape);
        assert_eq!(a, b);
    }

    #[test]
    fn forward_host_with_reuses_scratch_and_matches_fresh() {
        let mut r = rng();
        let mut model = Model::new(vec![
            Layer::conv2d(3, 1, 3, 3, &mut r),
            Layer::relu(),
            Layer::maxpool(2),
            Layer::flatten(),
            Layer::dense(3 * 3 * 3, 4, &mut r),
        ]);
        let shape = [1usize, 8, 8];
        let qm = quantize(&mut model, &shape, &calib(4, &shape));
        let mut scratch = HostScratch::default();
        let mut r2 = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..5 {
            let x = qm.quantize_input(&Tensor::uniform(shape.to_vec(), 0.9, &mut r2));
            assert_eq!(qm.forward_host_with(&x, &mut scratch), qm.forward_host(&x));
        }
    }

    #[test]
    fn fram_accounting_includes_double_buffers() {
        let mut r = rng();
        let mut model = Model::new(vec![
            Layer::conv2d(4, 1, 3, 3, &mut r),
            Layer::flatten(),
            Layer::dense(4 * 6 * 6, 2, &mut r),
        ]);
        let shape = [1usize, 8, 8];
        let qm = quantize(&mut model, &shape, &calib(2, &shape));
        // Largest activation is conv output: 4*6*6 = 144 words, doubled.
        assert_eq!(qm.activation_words(), 288);
        assert!(qm.fram_words() > qm.param_words());
        assert_eq!(qm.output_shape(), vec![2]);
    }
}

#[cfg(test)]
mod proptests {
    //! The deployment-correctness contract: the restructured kernels that
    //! every backend's host-side reference runs through must be
    //! *byte-identical* to the original element-at-a-time loops, for both
    //! the dense and the sparse representations.

    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn random_q15(r: &mut rand::rngs::StdRng) -> Q15 {
        Q15::from_raw(r.gen_range(-32768..32768i32) as i16)
    }

    /// Builds a random conv layer; when `sparse`, ~70% of taps are pruned
    /// and the tap lists are derived exactly as `quantize` derives them.
    fn random_qconv(seed: u64, sparse: bool) -> (QConv, Vec<Q15>, Vec<usize>) {
        let mut r = rng(seed);
        let nc = r.gen_range(1..4usize);
        let kh = r.gen_range(1..4usize);
        let kw = r.gen_range(1..5usize);
        let nf = r.gen_range(1..6usize);
        let h = kh + r.gen_range(0..7usize);
        let w = kw + r.gen_range(0..7usize);
        let mut weights: Vec<Q15> = (0..nf * nc * kh * kw).map(|_| random_q15(&mut r)).collect();
        if sparse {
            for v in weights.iter_mut() {
                if r.gen_bool(0.7) {
                    *v = Q15::ZERO;
                }
            }
        }
        let taps = sparse.then(|| sparse_taps_from_weights([nf, nc, kh, kw], &weights));
        let conv = QConv {
            dims: [nf, nc, kh, kw],
            weights,
            bias: (0..nf).map(|_| random_q15(&mut r)).collect(),
            shift: r.gen_range(-2..3),
            sparse: taps,
        };
        let x: Vec<Q15> = (0..nc * h * w).map(|_| random_q15(&mut r)).collect();
        (conv, x, vec![nc, h, w])
    }

    fn random_qdense(seed: u64, sparse: bool) -> (QDense, Vec<Q15>) {
        let mut r = rng(seed);
        let out_n = r.gen_range(1..12usize);
        let in_n = r.gen_range(1..40usize);
        let mut weights: Vec<Q15> = (0..out_n * in_n).map(|_| random_q15(&mut r)).collect();
        if sparse {
            for v in weights.iter_mut() {
                if r.gen_bool(0.8) {
                    *v = Q15::ZERO;
                }
            }
        }
        let csr = sparse.then(|| csr_from_weights([out_n, in_n], &weights));
        let dense = QDense {
            dims: [out_n, in_n],
            weights,
            bias: (0..out_n).map(|_| random_q15(&mut r)).collect(),
            shift: r.gen_range(-2..3),
            sparse: csr,
        };
        let x: Vec<Q15> = (0..in_n).map(|_| random_q15(&mut r)).collect();
        (dense, x)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn conv_host_matches_reference_bytewise(seed in 0u64..100_000, sparse in any::<bool>()) {
            let (conv, x, shape) = random_qconv(seed, sparse);
            let fast = conv_host(&conv, &x, &shape);
            let reference = conv_host_reference(&conv, &x, &shape);
            let fast_raw: Vec<i16> = fast.iter().map(|q| q.raw()).collect();
            let ref_raw: Vec<i16> = reference.iter().map(|q| q.raw()).collect();
            prop_assert_eq!(fast_raw, ref_raw);
        }

        #[test]
        fn dense_host_matches_reference_bytewise(seed in 0u64..100_000, sparse in any::<bool>()) {
            let (dense, x) = random_qdense(seed, sparse);
            let fast = dense_host(&dense, &x);
            let reference = dense_host_reference(&dense, &x);
            let fast_raw: Vec<i16> = fast.iter().map(|q| q.raw()).collect();
            let ref_raw: Vec<i16> = reference.iter().map(|q| q.raw()).collect();
            prop_assert_eq!(fast_raw, ref_raw);
        }
    }
}
