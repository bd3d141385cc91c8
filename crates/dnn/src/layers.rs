//! Network layers with forward and backward passes.
//!
//! Every pass runs over a minibatch ([`Layer::forward_batch`],
//! [`Layer::backward_batch`]); the one-sample `forward`/`backward` are its
//! one-sample case. A layer caches, per sample, whatever its backward pass
//! needs during the forward pass, so a training step is a forward over
//! the minibatch → the loss gradients → a backward over the minibatch →
//! optimizer step. Pruned layers carry the [`Kept`] index lists of their unpruned
//! weights; masked weights stay +0.0 through re-training (GENESIS
//! re-trains after compression, §5.2), and the training kernels walk only
//! the kept ones (see the [`crate::train`] module docs).

use crate::im2col;
use crate::tensor::Tensor;
use rand::Rng;

/// A mutable view over one parameter tensor during optimization.
pub struct ParamSet<'a> {
    /// The parameter values.
    pub values: &'a mut [f32],
    /// The accumulated gradients (same length).
    pub grads: &'a mut [f32],
    /// Flat indices of the kept entries of a pruned tensor, ascending.
    /// Every other entry of `values` and `grads` is +0.0 and stays so: an
    /// optimizer updates only the kept ones.
    pub mask: Option<&'a [u32]>,
}

/// The kept weights of a pruned layer, as per-row lists over its weight
/// matrix: `[out, in]` for a dense layer, `[F, C·KH·KW]` for a
/// convolution. Built once by [`Layer::set_mask`]; the mask is fixed for
/// the whole re-training.
#[derive(Clone, Debug)]
pub struct Kept {
    /// Flat indices of the kept weights, ascending.
    idx: Vec<u32>,
    /// `idx[starts[r]..starts[r + 1]]` are row `r`'s kept weights.
    starts: Vec<usize>,
}

impl Kept {
    /// Reads a 0/1 mask over a `[rows, cols]` matrix.
    ///
    /// # Panics
    ///
    /// Panics on an entry other than 0 or 1, or a matrix too large for
    /// `u32` indices.
    fn from_mask(mask: &[f32], cols: usize) -> Kept {
        let (mut idx, mut starts) = (Vec::new(), vec![0]);
        for (i, &m) in mask.iter().enumerate() {
            assert!(m == 0.0 || m == 1.0, "mask entries must be 0 or 1");
            if m == 1.0 {
                idx.push(u32::try_from(i).expect("layer too large for u32 mask indices"));
            }
            if (i + 1) % cols == 0 {
                starts.push(idx.len());
            }
        }
        Kept { idx, starts }
    }

    /// Flat indices of every kept weight, ascending.
    fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// Flat indices of row `r`'s kept weights, ascending.
    fn row(&self, r: usize) -> &[u32] {
        &self.idx[self.starts[r]..self.starts[r + 1]]
    }
}

/// A fully-connected layer: `y = W·x + b`.
///
/// When pruned, the forward sum, the weight-gradient rows, the
/// input-gradient rows and the optimizer step run over the kept weights
/// only, and each remaining f32 sum keeps its terms in their dense order.
/// That is bit-identical to the full-width loops for finite inputs: a
/// dropped term is `+0.0·x` or `go·(+0.0)`, i.e. ±0.0, and adding ±0.0
/// changes no accumulator that is not −0.0. Gradient accumulators start
/// at +0.0 and so never hold −0.0; a forward row starts at its bias, so
/// a row whose bias is −0.0 takes the full-width forward sum. The full
/// argument is in the [`crate::train`] module docs.
///
/// Over a minibatch, the forward pass and a pruned layer's backward pass
/// run the lane kernels of [`crate::im2col`], which load each weight once
/// per [`im2col::LANES`] samples; every sum still adds its terms in the
/// one-sample order.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Weights, shape `[out, in]`.
    pub w: Tensor,
    /// Bias, shape `[out]`.
    pub b: Tensor,
    /// Kept weights, when pruned.
    pub mask: Option<Kept>,
    gw: Tensor,
    gb: Tensor,
    /// The minibatch's inputs, in sample order.
    cache_x: Vec<Tensor>,
    /// The same inputs lane-major ([`im2col::to_lanes`]) when the forward
    /// pass ran a lane kernel; empty otherwise.
    cache_xt: Vec<f32>,
}

/// A valid (no padding), stride-1 2-D convolution.
///
/// Input shape `[C, H, W]`, filters `[F, C, KH, KW]`, output
/// `[F, H-KH+1, W-KW+1]`. One-dimensional convolutions are expressed with
/// degenerate dims (e.g. `KH = 1`), which is how the separated "3×1D"
/// layers of Table 2 are represented.
#[derive(Debug)]
pub struct Conv2d {
    /// Filters, shape `[F, C, KH, KW]`.
    pub filters: Tensor,
    /// Bias, shape `[F]`.
    pub bias: Tensor,
    /// Kept filter weights, when pruned.
    pub mask: Option<Kept>,
    gf: Tensor,
    gb: Tensor,
    /// The minibatch's inputs, in sample order.
    cache_x: Vec<Tensor>,
    /// Each sample's im2col patch matrix, in sample order; scratch reused
    /// across forward calls.
    patches: Vec<f32>,
}

impl Clone for Conv2d {
    fn clone(&self) -> Self {
        Conv2d {
            filters: self.filters.clone(),
            bias: self.bias.clone(),
            mask: self.mask.clone(),
            gf: self.gf.clone(),
            gb: self.gb.clone(),
            cache_x: self.cache_x.clone(),
            // Scratch is not model state: an empty clone re-grows it on
            // first forward instead of copying up to ~100 KB per layer
            // (GENESIS clones the base model once per sweep plan).
            patches: Vec::new(),
        }
    }
}

/// Max pooling with window `(kh, kw)` and the same stride (floor
/// semantics). Rectangular windows express the 1-D pooling of the HAR and
/// OkG networks (`1×2`, `1×3`).
#[derive(Clone, Debug)]
pub struct MaxPool2d {
    /// Window height (and vertical stride).
    pub kh: usize,
    /// Window width (and horizontal stride).
    pub kw: usize,
    cache_shape: Vec<usize>,
    /// Each sample's argmax indices, in sample order.
    cache_argmax: Vec<usize>,
}

/// Rectified linear activation.
#[derive(Clone, Debug)]
pub struct Relu {
    /// Each sample's `x > 0` mask, in sample order.
    cache_mask: Vec<bool>,
}

/// Reshapes any input to rank-1 (parameters: none).
#[derive(Clone, Debug)]
pub struct Flatten {
    cache_shape: Vec<usize>,
}

/// A network layer.
#[derive(Clone, Debug)]
pub enum Layer {
    /// Fully-connected.
    Dense(Dense),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// ReLU activation.
    Relu(Relu),
    /// Flatten to rank-1.
    Flatten(Flatten),
}

impl Layer {
    /// A dense layer with Glorot-uniform initialization.
    pub fn dense<R: Rng>(input: usize, output: usize, rng: &mut R) -> Layer {
        let scale = (6.0 / (input + output) as f32).sqrt();
        Layer::Dense(Dense {
            w: Tensor::uniform(vec![output, input], scale, rng),
            b: Tensor::zeros(vec![output]),
            mask: None,
            gw: Tensor::zeros(vec![output, input]),
            gb: Tensor::zeros(vec![output]),
            cache_x: Vec::new(),
            cache_xt: Vec::new(),
        })
    }

    /// A dense layer from explicit weights/bias (used by GENESIS when it
    /// rebuilds factored layers).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn dense_from(w: Tensor, b: Tensor) -> Layer {
        assert_eq!(w.shape().len(), 2, "dense weights must be rank-2");
        assert_eq!(w.shape()[0], b.shape()[0], "bias/output mismatch");
        let (gw, gb) = (
            Tensor::zeros(w.shape().to_vec()),
            Tensor::zeros(b.shape().to_vec()),
        );
        Layer::Dense(Dense {
            w,
            b,
            mask: None,
            gw,
            gb,
            cache_x: Vec::new(),
            cache_xt: Vec::new(),
        })
    }

    /// A convolution with Glorot-uniform initialization.
    pub fn conv2d<R: Rng>(out_ch: usize, in_ch: usize, kh: usize, kw: usize, rng: &mut R) -> Layer {
        let fan_in = (in_ch * kh * kw) as f32;
        let fan_out = (out_ch * kh * kw) as f32;
        let scale = (6.0 / (fan_in + fan_out)).sqrt();
        Layer::Conv2d(Conv2d {
            filters: Tensor::uniform(vec![out_ch, in_ch, kh, kw], scale, rng),
            bias: Tensor::zeros(vec![out_ch]),
            mask: None,
            gf: Tensor::zeros(vec![out_ch, in_ch, kh, kw]),
            gb: Tensor::zeros(vec![out_ch]),
            cache_x: Vec::new(),
            patches: Vec::new(),
        })
    }

    /// A convolution from explicit filters/bias.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn conv2d_from(filters: Tensor, bias: Tensor) -> Layer {
        assert_eq!(filters.shape().len(), 4, "filters must be rank-4");
        assert_eq!(filters.shape()[0], bias.shape()[0], "bias/filter mismatch");
        let (gf, gb) = (
            Tensor::zeros(filters.shape().to_vec()),
            Tensor::zeros(bias.shape().to_vec()),
        );
        Layer::Conv2d(Conv2d {
            filters,
            bias,
            mask: None,
            gf,
            gb,
            cache_x: Vec::new(),
            patches: Vec::new(),
        })
    }

    /// Max pooling with window and stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn maxpool(k: usize) -> Layer {
        Layer::maxpool_rect(k, k)
    }

    /// Max pooling with a rectangular window and stride `(kh, kw)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn maxpool_rect(kh: usize, kw: usize) -> Layer {
        assert!(kh > 0 && kw > 0, "pool window must be positive");
        Layer::MaxPool2d(MaxPool2d {
            kh,
            kw,
            cache_shape: Vec::new(),
            cache_argmax: Vec::new(),
        })
    }

    /// ReLU activation.
    pub fn relu() -> Layer {
        Layer::Relu(Relu {
            cache_mask: Vec::new(),
        })
    }

    /// Flatten to rank-1.
    pub fn flatten() -> Layer {
        Layer::Flatten(Flatten {
            cache_shape: Vec::new(),
        })
    }

    /// Installs a pruning mask (0/1 tensor shaped like the weights): sets
    /// the masked weights to +0.0 and keeps the [`Kept`] lists of the
    /// others.
    ///
    /// # Panics
    ///
    /// Panics on parameterless layers, shape mismatch, or a mask entry
    /// other than 0 or 1.
    pub fn set_mask(&mut self, mask: Tensor) {
        let (w, slot) = match self {
            Layer::Dense(d) => (&mut d.w, &mut d.mask),
            Layer::Conv2d(c) => (&mut c.filters, &mut c.mask),
            _ => panic!("set_mask on a parameterless layer"),
        };
        assert_eq!(mask.shape(), w.shape(), "mask shape mismatch");
        let cols = w.len() / w.shape()[0].max(1);
        let kept = Kept::from_mask(mask.data(), cols);
        for (w, &m) in w.data_mut().iter_mut().zip(mask.data()) {
            if m == 0.0 {
                *w = 0.0;
            }
        }
        *slot = Some(kept);
    }

    /// Forward pass over a minibatch: one output per input, in sample
    /// order. Caches, per sample, what [`Layer::backward_batch`] reads.
    ///
    /// # Panics
    ///
    /// Panics if the minibatch is empty, its samples differ in shape, or
    /// the input shape does not match the layer.
    pub fn forward_batch(&mut self, xs: &[Tensor]) -> Vec<Tensor> {
        let first = xs.first().expect("empty minibatch");
        assert!(
            xs.iter().all(|x| x.shape() == first.shape()),
            "minibatch samples differ in shape"
        );
        match self {
            Layer::Dense(d) => d.forward_batch(xs),
            Layer::Conv2d(c) => c.forward_batch(xs),
            Layer::MaxPool2d(p) => p.forward_batch(xs),
            Layer::Relu(r) => r.forward_batch(xs),
            Layer::Flatten(f) => f.forward_batch(xs),
        }
    }

    /// The one-sample case of [`Layer::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the layer.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        one(self.forward_batch(std::slice::from_ref(x)))
    }

    /// Backward pass over the minibatch of the last forward pass, one
    /// loss gradient per sample in the same order: accumulates parameter
    /// gradients in sample order and returns each sample's gradient with
    /// respect to its input.
    ///
    /// # Panics
    ///
    /// Panics if the last forward pass ran a different number of samples
    /// (or none), or on a mismatched gradient shape.
    pub fn backward_batch(&mut self, gs: &[Tensor]) -> Vec<Tensor> {
        match self {
            Layer::Dense(d) => d.backward_batch::<true>(gs),
            Layer::Conv2d(c) => c.backward_batch::<true>(gs),
            Layer::MaxPool2d(p) => p.backward_batch(gs),
            Layer::Relu(r) => r.backward_batch(gs),
            Layer::Flatten(f) => f.backward_batch(gs),
        }
    }

    /// The one-sample case of [`Layer::backward_batch`].
    ///
    /// # Panics
    ///
    /// Panics as [`Layer::backward_batch`] does.
    pub fn backward(&mut self, g: &Tensor) -> Tensor {
        one(self.backward_batch(std::slice::from_ref(g)))
    }

    /// [`Layer::backward_batch`] that only accumulates parameter
    /// gradients: no input gradient is computed. A no-op on parameterless
    /// layers.
    ///
    /// # Panics
    ///
    /// Panics as [`Layer::backward_batch`] does.
    pub fn backward_params_batch(&mut self, gs: &[Tensor]) {
        match self {
            Layer::Dense(d) => {
                d.backward_batch::<false>(gs);
            }
            Layer::Conv2d(c) => {
                c.backward_batch::<false>(gs);
            }
            _ => {}
        }
    }

    /// The one-sample case of [`Layer::backward_params_batch`].
    ///
    /// # Panics
    ///
    /// Panics as [`Layer::backward_batch`] does.
    pub fn backward_params(&mut self, g: &Tensor) {
        self.backward_params_batch(std::slice::from_ref(g));
    }

    /// Drops the per-sample caches of the last forward pass; a backward
    /// pass then panics until the next forward pass.
    pub(crate) fn clear_cache(&mut self) {
        match self {
            Layer::Dense(d) => (d.cache_x, d.cache_xt) = (Vec::new(), Vec::new()),
            Layer::Conv2d(c) => (c.cache_x, c.patches) = (Vec::new(), Vec::new()),
            Layer::MaxPool2d(p) => (p.cache_shape, p.cache_argmax) = (Vec::new(), Vec::new()),
            Layer::Relu(r) => r.cache_mask = Vec::new(),
            Layer::Flatten(f) => f.cache_shape = Vec::new(),
        }
    }

    /// `true` for layers with trainable parameters (dense and conv).
    pub fn has_params(&self) -> bool {
        matches!(self, Layer::Dense(_) | Layer::Conv2d(_))
    }

    /// Visits each parameter tensor (values, gradients, mask).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamSet<'_>)) {
        match self {
            Layer::Dense(d) => {
                f(ParamSet {
                    values: d.w.data_mut(),
                    grads: d.gw.data_mut(),
                    mask: d.mask.as_ref().map(Kept::indices),
                });
                f(ParamSet {
                    values: d.b.data_mut(),
                    grads: d.gb.data_mut(),
                    mask: None,
                });
            }
            Layer::Conv2d(c) => {
                f(ParamSet {
                    values: c.filters.data_mut(),
                    grads: c.gf.data_mut(),
                    mask: c.mask.as_ref().map(Kept::indices),
                });
                f(ParamSet {
                    values: c.bias.data_mut(),
                    grads: c.gb.data_mut(),
                    mask: None,
                });
            }
            _ => {}
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| {
            for g in p.grads.iter_mut() {
                *g = 0.0;
            }
        });
    }

    /// Output shape for a given input shape (shape inference).
    ///
    /// # Panics
    ///
    /// Panics if the input shape is invalid for this layer.
    pub fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        match self {
            Layer::Dense(d) => {
                let n: usize = input.iter().product();
                assert_eq!(n, d.w.shape()[1], "dense input size mismatch");
                vec![d.w.shape()[0]]
            }
            Layer::Conv2d(c) => {
                assert_eq!(input.len(), 3, "conv input must be rank-3");
                let (ci, h, w) = (input[0], input[1], input[2]);
                let fs = c.filters.shape();
                assert_eq!(ci, fs[1], "conv channel mismatch");
                assert!(h >= fs[2] && w >= fs[3], "conv input smaller than kernel");
                vec![fs[0], h - fs[2] + 1, w - fs[3] + 1]
            }
            Layer::MaxPool2d(p) => {
                assert_eq!(input.len(), 3, "pool input must be rank-3");
                vec![input[0], input[1] / p.kh, input[2] / p.kw]
            }
            Layer::Relu(_) => input.to_vec(),
            Layer::Flatten(_) => vec![input.iter().product()],
        }
    }

    /// Multiply-accumulate operations for one inference at this input
    /// shape (the x-axis of the paper's Fig. 4). Zero (pruned) weights are
    /// excluded, since the deployed sparse kernels skip them.
    pub fn macs(&self, input: &[usize]) -> u64 {
        match self {
            Layer::Dense(d) => d.w.data().iter().filter(|&&w| w != 0.0).count() as u64,
            Layer::Conv2d(c) => {
                let out = self.output_shape(input);
                let nnz = c.filters.data().iter().filter(|&&w| w != 0.0).count() as u64;
                nnz * (out[1] * out[2]) as u64
            }
            _ => 0,
        }
    }

    /// Number of (nonzero) parameters this layer stores, the unit of the
    /// paper's memory-feasibility constraint.
    pub fn nonzero_params(&self) -> u64 {
        match self {
            Layer::Dense(d) => {
                d.w.data().iter().filter(|&&w| w != 0.0).count() as u64 + d.b.len() as u64
            }
            Layer::Conv2d(c) => {
                c.filters.data().iter().filter(|&&w| w != 0.0).count() as u64 + c.bias.len() as u64
            }
            _ => 0,
        }
    }

    /// Total parameter slots (including zeros), i.e. the dense footprint.
    pub fn dense_params(&self) -> u64 {
        match self {
            Layer::Dense(d) => (d.w.len() + d.b.len()) as u64,
            Layer::Conv2d(c) => (c.filters.len() + c.bias.len()) as u64,
            _ => 0,
        }
    }

    /// A short human-readable description ("conv 20x1x5x5", "fc 200x1600").
    pub fn describe(&self) -> String {
        match self {
            Layer::Dense(d) => format!("fc {}x{}", d.w.shape()[0], d.w.shape()[1]),
            Layer::Conv2d(c) => {
                let s = c.filters.shape();
                format!("conv {}x{}x{}x{}", s[0], s[1], s[2], s[3])
            }
            Layer::MaxPool2d(p) => format!("maxpool {}x{}", p.kh, p.kw),
            Layer::Relu(_) => "relu".to_string(),
            Layer::Flatten(_) => "flatten".to_string(),
        }
    }
}

/// The single result of a one-sample minibatch pass.
fn one(mut ys: Vec<Tensor>) -> Tensor {
    debug_assert_eq!(ys.len(), 1);
    ys.pop().expect("one result per sample")
}

/// Splits a lane-major `[len, lanes]` matrix into `n` tensors of `len`.
fn from_lanes(t: &[f32], lanes: usize, n: usize, len: usize) -> Vec<Tensor> {
    (0..n)
        .map(|s| Tensor::from_vec(vec![len], (0..len).map(|j| t[j * lanes + s]).collect()))
        .collect()
}

impl Dense {
    /// One sample runs [`im2col::matvec_bias`] at full width and
    /// [`im2col::kept_matvec_bias`] when pruned; every other minibatch
    /// runs a lane kernel over the lane-major inputs. Debug builds check
    /// every result sample by sample against `matvec_bias`. A pruned
    /// one-sample forward leaves the lane-major inputs for its backward
    /// to build.
    fn forward_batch(&mut self, xs: &[Tensor]) -> Vec<Tensor> {
        let (out, inp) = (self.w.shape()[0], self.w.shape()[1]);
        assert_eq!(xs[0].len(), inp, "dense input size mismatch");
        self.cache_x = xs.to_vec();
        let (w, b) = (self.w.data(), self.b.data());
        let ys = if let [x] = xs {
            self.cache_xt.clear();
            let mut y = Tensor::zeros(vec![out]);
            match &self.mask {
                Some(kept) => {
                    im2col::kept_matvec_bias(w, x.data(), b, |o| kept.row(o), y.data_mut());
                }
                None => {
                    im2col::matvec_bias(w, x.data(), b, y.data_mut());
                    return vec![y];
                }
            }
            vec![y]
        } else {
            let xt = &mut self.cache_xt;
            let lanes = im2col::to_lanes(xs.iter().map(Tensor::data), inp, xt);
            let mut yt = vec![0.0; out * lanes];
            match &self.mask {
                Some(kept) => {
                    im2col::kept_matmat_bias_lanes(w, xt, b, lanes, |o| kept.row(o), &mut yt);
                }
                None => im2col::matmat_bias_lanes(w, xt, b, lanes, &mut yt),
            }
            from_lanes(&yt, lanes, xs.len(), out)
        };
        if cfg!(debug_assertions) {
            let mut twin = vec![0.0; out];
            for (x, y) in xs.iter().zip(&ys) {
                im2col::matvec_bias(w, x.data(), b, &mut twin);
                assert!(
                    y.data()
                        .iter()
                        .zip(&twin)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "minibatch dense forward differs from matvec_bias"
                );
            }
        }
        ys
    }

    /// Accumulates `gw`/`gb` and, when `DX`, returns each sample's input
    /// gradient (empty tensors otherwise). Every accumulator adds the
    /// samples' terms in sample order, and each `dx` element sums over the
    /// rows in ascending order, as one-sample passes in a row would. A row
    /// is skipped for each sample whose upstream gradient there is zero,
    /// as in [`Conv2d::backward_batch`].
    ///
    /// At full width each row takes one axpy per sample into its `gw` row
    /// (and the sample's `dx`). A pruned layer walks only its kept weights:
    /// it folds each kept `gw` entry over the row's nonzero gradients from
    /// the lane-major inputs, so it loads and stores the entry once per
    /// minibatch, and adds each term to those samples' `dx`. Masked `gw`
    /// entries are never written.
    fn backward_batch<const DX: bool>(&mut self, gs: &[Tensor]) -> Vec<Tensor> {
        let (out, inp) = (self.w.shape()[0], self.w.shape()[1]);
        let n = gs.len();
        assert!(
            n > 0 && n == self.cache_x.len(),
            "backward without a forward of the same minibatch"
        );
        assert!(
            gs.iter().all(|g| g.len() == out),
            "dense gradient size mismatch"
        );
        let (w, gw, gb) = (self.w.data(), self.gw.data_mut(), self.gb.data_mut());
        let dx_len = if DX { inp } else { 0 };
        let mut dx: Vec<Tensor> = gs.iter().map(|_| Tensor::zeros(vec![dx_len])).collect();
        let Some(kept) = &self.mask else {
            let rows = w.chunks_exact(inp).zip(gw.chunks_exact_mut(inp));
            for (o, ((row, grow), gb)) in rows.zip(gb).enumerate() {
                for ((g, x), dx) in gs.iter().zip(&self.cache_x).zip(&mut dx) {
                    let go = g.data()[o];
                    if go == 0.0 {
                        continue;
                    }
                    *gb += go;
                    for (gw, &xv) in grow.iter_mut().zip(x.data()) {
                        *gw += go * xv;
                    }
                    if DX {
                        for (dxv, &wv) in dx.data_mut().iter_mut().zip(row) {
                            *dxv += go * wv;
                        }
                    }
                }
            }
            return dx;
        };
        if self.cache_xt.is_empty() {
            // A pruned one-sample forward leaves the lanes to build here.
            im2col::to_lanes(
                self.cache_x.iter().map(Tensor::data),
                inp,
                &mut self.cache_xt,
            );
        }
        let (xt, lanes) = (&self.cache_xt, im2col::lanes_for(n));
        assert_eq!(xt.len(), inp * lanes, "pruned backward before its forward");
        let mut nonzero = Vec::with_capacity(n);
        for (o, gb) in gb.iter_mut().enumerate() {
            nonzero.clear();
            let gos = gs.iter().map(|g| g.data()[o]).enumerate();
            nonzero.extend(gos.filter(|&(_, go)| go != 0.0));
            if nonzero.is_empty() {
                continue;
            }
            for &(_, go) in &nonzero {
                *gb += go;
            }
            for &k in kept.row(o) {
                let (k, col) = (k as usize, k as usize - o * inp);
                let xl = &xt[col * lanes..][..lanes];
                let mut acc = gw[k];
                for &(s, go) in &nonzero {
                    acc += go * xl[s];
                }
                gw[k] = acc;
                if DX {
                    let wv = w[k];
                    for &(s, go) in &nonzero {
                        dx[s].data_mut()[col] += go * wv;
                    }
                }
            }
        }
        dx
    }
}

impl Conv2d {
    fn forward_batch(&mut self, xs: &[Tensor]) -> Vec<Tensor> {
        let fs = self.filters.shape().to_vec();
        let (nf, nc, kh, kw) = (fs[0], fs[1], fs[2], fs[3]);
        let xs0 = xs[0].shape();
        assert_eq!(xs0.len(), 3, "conv input must be rank-3");
        assert_eq!(xs0[0], nc, "conv channel mismatch");
        let (h, w) = (xs0[1], xs0[2]);
        let (oh, ow) = im2col::conv_out_dims(h, w, kh, kw);
        let (np, k) = (oh * ow, nc * kh * kw);
        // No clear() first: every element is overwritten below.
        self.patches.resize(xs.len() * np * k, 0.0);
        let (fd, bd) = (self.filters.data(), self.bias.data());
        let ys = xs
            .iter()
            .zip(self.patches.chunks_exact_mut(np * k))
            .map(|(x, patches)| {
                im2col::im2col_into(x.data(), nc, h, w, kh, kw, patches);
                let mut y = Tensor::zeros(vec![nf, oh, ow]);
                im2col::gemm_nt_bias(fd, patches, bd, nf, np, k, y.data_mut());
                y
            })
            .collect();
        self.cache_x = xs.to_vec();
        ys
    }

    /// Accumulates `gf`/`gb` and, when `DX`, returns each sample's input
    /// gradient (empty tensors otherwise), one sample after the other.
    ///
    /// The filter gradient is one axpy per output position over the im2col
    /// patch rows the forward pass built, `gf[f, :] += go · patch[p, :]`
    /// (kept columns only, when pruned), so each accumulator sums its terms
    /// in position order, as the direct loop nest does. Positions whose
    /// upstream gradient is zero are skipped. The input gradient is one
    /// axpy of a gradient row into a contiguous `ow`-long `dx` row per
    /// (f, c, ky, kx, oy), with `ky` and `kx` running backwards, so each
    /// `dx` element still sums in (f, oy, ox) order; it includes the
    /// zero-gradient terms. Consecutive axpys write different `dx` rows
    /// whenever the output has more than one row.
    ///
    /// Skipping or adding those terms is bit-exact for finite inputs and
    /// weights: every accumulator (`gf`, `gb`, `dx`) starts at +0.0 and,
    /// under round-to-nearest, a sum can only be −0.0 if both addends are,
    /// so none ever holds −0.0; adding ±0·(finite) = ±0.0 to such a value
    /// leaves its bits unchanged. (An infinite or NaN input would make the
    /// product NaN.)
    fn backward_batch<const DX: bool>(&mut self, gs: &[Tensor]) -> Vec<Tensor> {
        let n = gs.len();
        assert!(
            n > 0 && n == self.cache_x.len(),
            "backward without a forward of the same minibatch"
        );
        let fs = self.filters.shape().to_vec();
        let (nf, nc, kh, kw) = (fs[0], fs[1], fs[2], fs[3]);
        let (h, w) = (self.cache_x[0].shape()[1], self.cache_x[0].shape()[2]);
        let (oh, ow) = (h - kh + 1, w - kw + 1);
        let (np, k) = (oh * ow, nc * kh * kw);
        assert!(
            gs.iter().all(|g| g.shape() == [nf, oh, ow]),
            "conv gradient shape mismatch"
        );
        // A clone drops the scratch; rebuild the patches of `cache_x`.
        if self.patches.len() != n * np * k {
            self.patches.resize(n * np * k, 0.0);
            for (x, patches) in self
                .cache_x
                .iter()
                .zip(self.patches.chunks_exact_mut(np * k))
            {
                im2col::im2col_into(x.data(), nc, h, w, kh, kw, patches);
            }
        }
        let (fd, gfd, gbd) = (self.filters.data(), self.gf.data_mut(), self.gb.data_mut());
        let samples = gs.iter().zip(self.patches.chunks_exact(np * k));
        samples
            .map(|(g, patches)| {
                let gd = g.data();
                let frows = gd.chunks_exact(np).zip(gfd.chunks_exact_mut(k));
                for (f, (grow, gfrow)) in frows.enumerate() {
                    let positions = grow
                        .iter()
                        .zip(patches.chunks_exact(k))
                        .filter(|(&go, _)| go != 0.0);
                    let mut bsum = 0.0;
                    match &self.mask {
                        None => {
                            for (&go, patch) in positions {
                                bsum += go;
                                for (gf, &xv) in gfrow.iter_mut().zip(patch) {
                                    *gf += go * xv;
                                }
                            }
                        }
                        Some(kept) => {
                            let (cols, base) = (kept.row(f), f * k);
                            for (&go, patch) in positions {
                                bsum += go;
                                for &i in cols {
                                    let j = i as usize - base;
                                    gfrow[j] += go * patch[j];
                                }
                            }
                        }
                    }
                    gbd[f] += bsum;
                }
                let mut dx = Tensor::zeros(if DX { vec![nc, h, w] } else { vec![0] });
                if DX {
                    let dxd = dx.data_mut();
                    for (f, gmap) in gd.chunks_exact(np).enumerate() {
                        for c in 0..nc {
                            for ky in (0..kh).rev() {
                                let frow = &fd[((f * nc + c) * kh + ky) * kw..][..kw];
                                for kx in (0..kw).rev() {
                                    let fv = frow[kx];
                                    for (oy, grow) in gmap.chunks_exact(ow).enumerate() {
                                        let drow = &mut dxd[(c * h + oy + ky) * w + kx..][..ow];
                                        for (d, &go) in drow.iter_mut().zip(grow) {
                                            *d += go * fv;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                dx
            })
            .collect()
    }
}

impl MaxPool2d {
    fn forward_batch(&mut self, xs: &[Tensor]) -> Vec<Tensor> {
        let xs0 = xs[0].shape();
        assert_eq!(xs0.len(), 3, "pool input must be rank-3");
        let (c, h, w) = (xs0[0], xs0[1], xs0[2]);
        let (oh, ow) = (h / self.kh, w / self.kw);
        assert!(oh > 0 && ow > 0, "pool window larger than input");
        self.cache_shape = xs0.to_vec();
        self.cache_argmax.clear();
        xs.iter()
            .map(|x| {
                let mut y = Tensor::zeros(vec![c, oh, ow]);
                let xd = x.data();
                for ch in 0..c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_idx = 0;
                            for py in 0..self.kh {
                                for px in 0..self.kw {
                                    let idx = (ch * h + oy * self.kh + py) * w + ox * self.kw + px;
                                    // Selects, not a branch: which value wins is
                                    // data-dependent and mispredicts often.
                                    let take = xd[idx] > best;
                                    best = if take { xd[idx] } else { best };
                                    best_idx = if take { idx } else { best_idx };
                                }
                            }
                            y.data_mut()[(ch * oh + oy) * ow + ox] = best;
                            self.cache_argmax.push(best_idx);
                        }
                    }
                }
                y
            })
            .collect()
    }

    fn backward_batch(&mut self, gs: &[Tensor]) -> Vec<Tensor> {
        let per = gs.first().map_or(0, Tensor::len);
        assert!(
            per > 0 && gs.len() * per == self.cache_argmax.len(),
            "backward without a forward of the same minibatch"
        );
        gs.iter()
            .zip(self.cache_argmax.chunks_exact(per))
            .map(|(g, argmax)| {
                let mut dx = Tensor::zeros(self.cache_shape.clone());
                for (&gv, &iidx) in g.data().iter().zip(argmax) {
                    dx.data_mut()[iidx] += gv;
                }
                dx
            })
            .collect()
    }
}

impl Relu {
    fn forward_batch(&mut self, xs: &[Tensor]) -> Vec<Tensor> {
        self.cache_mask.clear();
        xs.iter()
            .map(|x| {
                self.cache_mask.extend(x.data().iter().map(|&v| v > 0.0));
                let mut y = x.clone();
                y.map_inplace(|v| v.max(0.0));
                y
            })
            .collect()
    }

    fn backward_batch(&mut self, gs: &[Tensor]) -> Vec<Tensor> {
        let total: usize = gs.iter().map(Tensor::len).sum();
        assert_eq!(total, self.cache_mask.len(), "backward before forward");
        let mut masks = self.cache_mask.as_slice();
        gs.iter()
            .map(|g| {
                let (mask, rest) = masks.split_at(g.len());
                masks = rest;
                let mut dx = g.clone();
                // A select, not a branch: the mask is data-dependent.
                for (v, &m) in dx.data_mut().iter_mut().zip(mask) {
                    *v = if m { *v } else { 0.0 };
                }
                dx
            })
            .collect()
    }
}

impl Flatten {
    fn forward_batch(&mut self, xs: &[Tensor]) -> Vec<Tensor> {
        self.cache_shape = xs[0].shape().to_vec();
        xs.iter()
            .map(|x| x.clone().reshape(vec![x.len()]))
            .collect()
    }

    fn backward_batch(&mut self, gs: &[Tensor]) -> Vec<Tensor> {
        assert!(!self.cache_shape.is_empty(), "backward before forward");
        gs.iter()
            .map(|g| g.clone().reshape(self.cache_shape.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn dense_forward_matches_manual() {
        let w = Tensor::from_vec(vec![2, 3], vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]);
        let b = Tensor::from_vec(vec![2], vec![0.1, -0.1]);
        let mut l = Layer::dense_from(w, b);
        let y = l.forward(&Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]));
        assert!((y.data()[0] - (1.0 - 3.0 + 0.1)).abs() < 1e-6);
        assert!((y.data()[1] - (0.5 + 1.0 + 1.5 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn conv_forward_matches_manual() {
        // 1 filter, 1 channel, 2x2 kernel of ones over a 3x3 ramp.
        let f = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0; 4]);
        let b = Tensor::from_vec(vec![1], vec![0.0]);
        let mut l = Layer::conv2d_from(f, b);
        let x = Tensor::from_vec(vec![1, 3, 3], (0..9).map(|i| i as f32).collect());
        let y = l.forward(&x);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.data(), &[8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let mut l = Layer::maxpool(2);
        let x = Tensor::from_vec(vec![1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 6.0]);
        let y = l.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2]);
        assert_eq!(y.data(), &[5.0, 6.0]);
        // Gradient routes only to the max positions.
        let dx = l.backward(&Tensor::from_vec(vec![1, 1, 2], vec![1.0, 2.0]));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_clamps_and_gates_gradient() {
        let mut l = Layer::relu();
        let y = l.forward(&Tensor::from_vec(vec![3], vec![-1.0, 0.5, 2.0]));
        assert_eq!(y.data(), &[0.0, 0.5, 2.0]);
        let dx = l.backward(&Tensor::from_vec(vec![3], vec![1.0, 1.0, 1.0]));
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn flatten_roundtrips_shape() {
        let mut l = Layer::flatten();
        let y = l.forward(&Tensor::zeros(vec![2, 3, 4]));
        assert_eq!(y.shape(), &[24]);
        let dx = l.backward(&Tensor::zeros(vec![24]));
        assert_eq!(dx.shape(), &[2, 3, 4]);
    }

    #[test]
    fn output_shape_inference() {
        let mut r = rng();
        let conv = Layer::conv2d(20, 1, 5, 5, &mut r);
        assert_eq!(conv.output_shape(&[1, 28, 28]), vec![20, 24, 24]);
        let pool = Layer::maxpool(2);
        assert_eq!(pool.output_shape(&[20, 24, 24]), vec![20, 12, 12]);
        let dense = Layer::dense(200, 10, &mut r);
        assert_eq!(dense.output_shape(&[200]), vec![10]);
    }

    #[test]
    fn macs_count_skips_zeros() {
        let f = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let b = Tensor::from_vec(vec![1], vec![0.0]);
        let l = Layer::conv2d_from(f, b);
        // 2 nonzeros * 2x2 output positions = 8 MACs.
        assert_eq!(l.macs(&[1, 3, 3]), 8);
        assert_eq!(l.nonzero_params(), 3); // 2 weights + 1 bias
        assert_eq!(l.dense_params(), 5);
    }

    #[test]
    fn set_mask_zeroes_weights_and_sticks() {
        let w = Tensor::from_vec(vec![1, 5], vec![1.0, 2.0, 3.0, 4.0, -5.0]);
        let b = Tensor::zeros(vec![1]);
        let mut l = Layer::dense_from(w, b);
        l.set_mask(Tensor::from_vec(vec![1, 5], vec![1.0, 0.0, 1.0, 0.0, 0.0]));
        let Layer::Dense(d) = &l else { unreachable!() };
        // A masked negative weight becomes +0.0, not −0.0.
        let want = Tensor::from_vec(vec![1, 5], vec![1.0, 0.0, 3.0, 0.0, 0.0]);
        assert_eq!(bits(&d.w), bits(&want));
        assert_eq!(d.mask.as_ref().map(Kept::indices), Some(&[0u32, 2][..]));
    }

    /// An upstream gradient mixing +0.0, −0.0 and non-zero entries.
    fn signed_zero_grad(shape: Vec<usize>, r: &mut rand::rngs::StdRng) -> Tensor {
        let mut g = Tensor::uniform(shape, 1.0, r);
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            match i % 3 {
                0 => *v = 0.0,
                1 if i % 2 == 0 => *v = -0.0,
                _ => {}
            }
        }
        g
    }

    fn vbits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        vbits(t.data())
    }

    /// The no-skip dense backward: every row, in order.
    fn dense_reference(
        w: &Tensor,
        x: &Tensor,
        g: &Tensor,
        gw: &mut Tensor,
        gb: &mut Tensor,
    ) -> Tensor {
        let (out, inp) = (w.shape()[0], w.shape()[1]);
        let mut dx = Tensor::zeros(vec![inp]);
        for o in 0..out {
            let go = g.data()[o];
            gb.data_mut()[o] += go;
            for i in 0..inp {
                gw.data_mut()[o * inp + i] += go * x.data()[i];
                dx.data_mut()[i] += go * w.data()[o * inp + i];
            }
        }
        dx
    }

    /// The no-skip conv backward: every output position, in order.
    fn conv_reference(
        f: &Tensor,
        x: &Tensor,
        g: &Tensor,
        gf: &mut Tensor,
        gb: &mut Tensor,
    ) -> Tensor {
        let fs = f.shape();
        let (nf, nc, kh, kw) = (fs[0], fs[1], fs[2], fs[3]);
        let (h, w) = (x.shape()[1], x.shape()[2]);
        let (oh, ow) = (h - kh + 1, w - kw + 1);
        let mut dx = Tensor::zeros(vec![nc, h, w]);
        for fi in 0..nf {
            let mut bsum = 0.0;
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g.data()[(fi * oh + oy) * ow + ox];
                    bsum += go;
                    for c in 0..nc {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let xi = (c * h + oy + ky) * w + ox + kx;
                                let fi_ = ((fi * nc + c) * kh + ky) * kw + kx;
                                gf.data_mut()[fi_] += go * x.data()[xi];
                                dx.data_mut()[xi] += go * f.data()[fi_];
                            }
                        }
                    }
                }
            }
            gb.data_mut()[fi] += bsum;
        }
        dx
    }

    #[test]
    fn dense_backward_matches_the_no_skip_reference() {
        let mut r = rng();
        let mut l = Layer::dense(7, 9, &mut r);
        let Layer::Dense(d) = &l else { unreachable!() };
        let w = d.w.clone();
        let (mut gw, mut gb) = (Tensor::zeros(vec![9, 7]), Tensor::zeros(vec![9]));
        let mut pl = l.clone();
        // Two accumulating passes, so the second starts from non-zero
        // gradients.
        for _ in 0..2 {
            let x = Tensor::uniform(vec![7], 1.0, &mut r);
            let g = signed_zero_grad(vec![9], &mut r);
            l.forward(&x);
            pl.forward(&x);
            let dx = l.backward(&g);
            pl.backward_params(&g);
            let want = dense_reference(&w, &x, &g, &mut gw, &mut gb);
            assert_eq!(bits(&dx), bits(&want));
        }
        for layer in [&l, &pl] {
            let Layer::Dense(d) = layer else {
                unreachable!()
            };
            assert_eq!(bits(&d.gw), bits(&gw));
            assert_eq!(bits(&d.gb), bits(&gb));
        }
    }

    #[test]
    fn conv_backward_matches_the_no_skip_reference() {
        let mut r = rng();
        for pruned in [false, true] {
            let mut l = Layer::conv2d(4, 2, 2, 3, &mut r);
            // Pruned: filter 1 keeps nothing, the others every third tap.
            let mask: Vec<f32> = (0..4 * 2 * 2 * 3)
                .map(|i| (!pruned || (i / 12 != 1 && i % 3 == 0)) as u8 as f32)
                .collect();
            if pruned {
                l.set_mask(Tensor::from_vec(vec![4, 2, 2, 3], mask.clone()));
            }
            let Layer::Conv2d(c) = &l else { unreachable!() };
            let f = c.filters.clone();
            let (mut gf, mut gb) = (Tensor::zeros(vec![4, 2, 2, 3]), Tensor::zeros(vec![4]));
            // Cloned before the first forward, and `cl` again between
            // forward and backward (a clone carries no patch scratch).
            let mut pl = l.clone();
            for _ in 0..2 {
                let x = signed_zero_grad(vec![2, 5, 6], &mut r);
                let g = signed_zero_grad(vec![4, 4, 4], &mut r);
                l.forward(&x);
                pl.forward(&x);
                let mut cl = l.clone();
                let dx = l.backward(&g);
                assert_eq!(bits(&cl.backward(&g)), bits(&dx));
                pl.backward_params(&g);
                let want = conv_reference(&f, &x, &g, &mut gf, &mut gb);
                assert_eq!(bits(&dx), bits(&want));
            }
            // Masked filter-gradient entries are never written.
            let want_gf: Vec<u32> = gf
                .data()
                .iter()
                .zip(&mask)
                .map(|(&v, &m)| if m == 1.0 { v.to_bits() } else { 0 })
                .collect();
            for layer in [&l, &pl] {
                let Layer::Conv2d(c) = layer else {
                    unreachable!()
                };
                assert_eq!(bits(&c.gf), want_gf, "pruned {pruned}");
                assert_eq!(bits(&c.gb), bits(&gb));
            }
        }
    }

    /// The full-width dense layer and SGD step over a 0/1 mask: every
    /// weight, every row, no skips.
    struct DenseReference {
        w: Vec<f32>,
        b: Vec<f32>,
        mask: Vec<f32>,
        gw: Vec<f32>,
        gb: Vec<f32>,
        vw: Vec<f32>,
        vb: Vec<f32>,
    }

    impl DenseReference {
        fn forward(&self, x: &[f32]) -> Vec<f32> {
            let inp = x.len();
            (0..self.b.len())
                .map(|o| {
                    let mut acc = self.b[o];
                    for (&wv, &xv) in self.w[o * inp..(o + 1) * inp].iter().zip(x) {
                        acc += wv * xv;
                    }
                    acc
                })
                .collect()
        }

        fn backward(&mut self, x: &[f32], g: &[f32]) -> Vec<f32> {
            let inp = x.len();
            let mut dx = vec![0.0; inp];
            for (o, &go) in g.iter().enumerate() {
                self.gb[o] += go;
                for i in 0..inp {
                    self.gw[o * inp + i] += go * x[i];
                    dx[i] += go * self.w[o * inp + i];
                }
            }
            dx
        }

        fn step(&mut self, lr: f32, mu: f32, scale: f32) {
            let ones = vec![1.0; self.b.len()];
            for (v, g, vel, m) in [
                (&mut self.w, &mut self.gw, &mut self.vw, &self.mask),
                (&mut self.b, &mut self.gb, &mut self.vb, &ones),
            ] {
                for i in 0..v.len() {
                    vel[i] = mu * vel[i] - lr * (g[i] * scale);
                    v[i] += vel[i];
                    if m[i] == 0.0 {
                        v[i] = 0.0;
                        vel[i] = 0.0;
                    }
                    g[i] = 0.0;
                }
            }
        }
    }

    #[test]
    fn dense_masked_matches_the_dense_reference() {
        use crate::model::Model;
        use crate::train::Sgd;
        let (out, inp) = (8, 25);
        let (lr, mu) = (0.1, 0.9);
        let mut r = rng();
        for density in [0.0, 0.04, 0.5, 1.0] {
            for neg_zero_bias in [false, true] {
                // Row 1 keeps nothing; its bias is the signed zero under
                // test, as is row 2's +0.0.
                let mask: Vec<f32> = (0..out * inp)
                    .map(|i| (i / inp != 1 && r.gen_bool(density)) as u8 as f32)
                    .collect();
                let w = Tensor::uniform(vec![out, inp], 1.0, &mut r);
                let mut b = Tensor::uniform(vec![out], 0.5, &mut r);
                b.data_mut()[1] = if neg_zero_bias { -0.0 } else { 0.0 };
                b.data_mut()[2] = 0.0;
                let mut reference = DenseReference {
                    w: w.data()
                        .iter()
                        .zip(&mask)
                        .map(|(&v, &m)| if m == 1.0 { v } else { 0.0 })
                        .collect(),
                    b: b.data().to_vec(),
                    mask: mask.clone(),
                    gw: vec![0.0; out * inp],
                    gb: vec![0.0; out],
                    vw: vec![0.0; out * inp],
                    vb: vec![0.0; out],
                };
                let mut l = Layer::dense_from(w, b);
                l.set_mask(Tensor::from_vec(vec![out, inp], mask.clone()));
                // [0] runs `backward` (DX on), [1] `backward_params`.
                let mut models = [Model::new(vec![l.clone()]), Model::new(vec![l])];
                let mut opts: Vec<Sgd> = models.iter_mut().map(|m| Sgd::new(m, lr, mu)).collect();
                let ctx = format!("density {density}, -0.0 bias {neg_zero_bias}");
                for _step in 0..2 {
                    // Two accumulating passes per step.
                    for _pass in 0..2 {
                        let x = signed_zero_grad(vec![inp], &mut r);
                        let g = signed_zero_grad(vec![out], &mut r);
                        let want_y = reference.forward(x.data());
                        let want_dx = reference.backward(x.data(), g.data());
                        for (mi, m) in models.iter_mut().enumerate() {
                            let layer = &mut m.layers_mut()[0];
                            let y = layer.forward(&x);
                            assert_eq!(bits(&y), vbits(&want_y), "{ctx}");
                            if mi == 0 {
                                let dx = layer.backward(&g);
                                assert_eq!(bits(&dx), vbits(&want_dx), "{ctx}");
                            } else {
                                layer.backward_params(&g);
                            }
                        }
                    }
                    // Kept gradients match; masked ones were never written.
                    let kept_gw = reference.gw.iter().zip(&mask);
                    let want: Vec<f32> = kept_gw
                        .map(|(&g, &m)| if m == 1.0 { g } else { 0.0 })
                        .chain(reference.gb.iter().copied())
                        .collect();
                    for m in &mut models {
                        let mut got = Vec::new();
                        m.visit_params(&mut |p| got.extend_from_slice(p.grads));
                        assert_eq!(vbits(&got), vbits(&want), "{ctx}");
                    }
                    reference.step(lr, mu, 0.5);
                    let want: Vec<f32> = reference.w.iter().chain(&reference.b).copied().collect();
                    for (m, opt) in models.iter_mut().zip(&mut opts) {
                        opt.step(m, 2);
                        let (mut values, mut grads) = (Vec::new(), Vec::new());
                        m.visit_params(&mut |p| {
                            values.extend_from_slice(p.values);
                            grads.extend_from_slice(p.grads);
                        });
                        assert_eq!(vbits(&values), vbits(&want), "{ctx}");
                        assert!(grads.iter().all(|g| g.to_bits() == 0), "{ctx}");
                    }
                }
            }
        }
    }

    /// The full-width dense forward: every weight, from the bias in column
    /// order.
    fn dense_forward_reference(w: &Tensor, b: &Tensor, x: &Tensor) -> Tensor {
        let inp = x.len();
        let rows = w.data().chunks_exact(inp).zip(b.data());
        let y = rows.map(|(row, &bv)| {
            let mut acc = bv;
            for (&wv, &xv) in row.iter().zip(x.data()) {
                acc += wv * xv;
            }
            acc
        });
        Tensor::from_vec(vec![b.len()], y.collect())
    }

    /// `n` samples of `shape` mixing +0.0, −0.0 and non-zero entries.
    fn signed_zero_batch(n: usize, shape: &[usize], r: &mut rand::rngs::StdRng) -> Vec<Tensor> {
        (0..n)
            .map(|_| signed_zero_grad(shape.to_vec(), r))
            .collect()
    }

    /// Upstream gradients for `n` samples whose entry `zero_row` is +0.0
    /// or −0.0 in every sample: a row no sample of the minibatch reaches.
    fn batch_grads(
        n: usize,
        len: usize,
        zero_row: usize,
        r: &mut rand::rngs::StdRng,
    ) -> Vec<Tensor> {
        let mut gs = signed_zero_batch(n, &[len], r);
        for (s, g) in gs.iter_mut().enumerate() {
            g.data_mut()[zero_row] = if s % 2 == 0 { 0.0 } else { -0.0 };
        }
        gs
    }

    /// `grads` with every entry outside the 0/1 `mask` read as +0.0.
    fn kept_bits(grads: &Tensor, mask: &[f32]) -> Vec<u32> {
        let kept = grads.data().iter().zip(mask);
        kept.map(|(&v, &m)| if m == 1.0 { v.to_bits() } else { 0 })
            .collect()
    }

    #[test]
    fn dense_minibatch_matches_the_per_sample_reference() {
        let (out, inp) = (9, 25);
        let mut r = rng();
        for density in [0.0, 0.04, 0.5, 1.0] {
            // Rows 1 and 2 keep nothing when pruned; row 1's bias is −0.0
            // and row 2's +0.0. Density 1 is the unpruned layer.
            let mask: Vec<f32> = (0..out * inp)
                .map(|i| (!(1..=2).contains(&(i / inp)) && r.gen_bool(density)) as u8 as f32)
                .collect();
            let mut b = Tensor::uniform(vec![out], 0.5, &mut r);
            b.data_mut()[1] = -0.0;
            b.data_mut()[2] = 0.0;
            let mut base =
                Layer::dense_from(Tensor::uniform(vec![out, inp], 1.0, &mut r), b.clone());
            let mask = if density < 1.0 {
                base.set_mask(Tensor::from_vec(vec![out, inp], mask.clone()));
                mask
            } else {
                vec![1.0; out * inp]
            };
            let Layer::Dense(d) = &base else {
                unreachable!()
            };
            let w = d.w.clone();
            for n in [1, 2, 15, 16, 17] {
                let ctx = format!("density {density}, batch {n}");
                // `l` runs `backward_batch`, `pl` `backward_params_batch`.
                let (mut l, mut pl) = (base.clone(), base.clone());
                let (mut gw, mut gb) = (Tensor::zeros(vec![out, inp]), Tensor::zeros(vec![out]));
                // Two minibatches accumulate into the same gradients.
                for _ in 0..2 {
                    let xs = signed_zero_batch(n, &[inp], &mut r);
                    let gs = batch_grads(n, out, 3, &mut r);
                    let ys = l.forward_batch(&xs);
                    pl.forward_batch(&xs);
                    let dxs = l.backward_batch(&gs);
                    pl.backward_params_batch(&gs);
                    assert_eq!((ys.len(), dxs.len()), (n, n), "{ctx}");
                    for (s, (x, g)) in xs.iter().zip(&gs).enumerate() {
                        let want_y = dense_forward_reference(&w, &b, x);
                        assert_eq!(bits(&ys[s]), bits(&want_y), "{ctx}, sample {s}");
                        let want_dx = dense_reference(&w, x, g, &mut gw, &mut gb);
                        assert_eq!(bits(&dxs[s]), bits(&want_dx), "{ctx}, sample {s}");
                    }
                }
                // Masked gradient entries are never written.
                for layer in [&l, &pl] {
                    let Layer::Dense(d) = layer else {
                        unreachable!()
                    };
                    assert_eq!(bits(&d.gw), kept_bits(&gw, &mask), "{ctx}");
                    assert_eq!(bits(&d.gb), bits(&gb), "{ctx}");
                }
            }
        }
    }

    /// The per-sample reference of the conv → relu → 2×2 pool → flatten →
    /// dense stack below, written out loop by loop. Returns the logits and
    /// the input gradient, and accumulates the four parameter gradients
    /// `[gf, gb_conv, gw, gb_dense]`.
    fn stack_reference(
        params: &[Tensor; 4],
        x: &Tensor,
        g: &Tensor,
        grads: &mut [Tensor; 4],
    ) -> (Tensor, Tensor) {
        let [f, cb, w, db] = params;
        let fs = f.shape();
        let (nf, nc, kh, kw) = (fs[0], fs[1], fs[2], fs[3]);
        let (h, wd) = (x.shape()[1], x.shape()[2]);
        let (oh, ow) = (h - kh + 1, wd - kw + 1);
        let mut conv = vec![0.0; nf * oh * ow];
        im2col::conv2d_naive(
            x.data(),
            f.data(),
            cb.data(),
            nc,
            h,
            wd,
            nf,
            kh,
            kw,
            &mut conv,
        );
        let relu: Vec<f32> = conv.iter().map(|&v| v.max(0.0)).collect();
        let (ph, pw) = (oh / 2, ow / 2);
        let (mut pooled, mut argmax) = (Vec::new(), Vec::new());
        for c in 0..nf {
            for py in 0..ph {
                for px in 0..pw {
                    let (mut best, mut at) = (f32::NEG_INFINITY, 0);
                    for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let i = (c * oh + 2 * py + dy) * ow + 2 * px + dx;
                        if relu[i] > best {
                            (best, at) = (relu[i], i);
                        }
                    }
                    pooled.push(best);
                    argmax.push(at);
                }
            }
        }
        let flat = Tensor::from_vec(vec![pooled.len()], pooled);
        let logits = dense_forward_reference(w, db, &flat);
        let [gf, gcb, gw, gdb] = grads;
        let dflat = dense_reference(w, &flat, g, gw, gdb);
        let mut drelu = vec![0.0; nf * oh * ow];
        for (&at, &gv) in argmax.iter().zip(dflat.data()) {
            drelu[at] += gv;
        }
        for (d, &v) in drelu.iter_mut().zip(&conv) {
            if v <= 0.0 {
                *d = 0.0;
            }
        }
        let dconv = Tensor::from_vec(vec![nf, oh, ow], drelu);
        let dx = conv_reference(f, x, &dconv, gf, gcb);
        (logits, dx)
    }

    #[test]
    fn stack_minibatch_matches_the_per_sample_reference() {
        use crate::model::Model;
        let mut r = rng();
        // conv 3×2×2×3 over [2, 5, 8] → [3, 4, 6] → pool → [3, 2, 3] → 18.
        let mut conv = Layer::conv2d(3, 2, 2, 3, &mut r);
        let conv_mask: Vec<f32> = (0..3 * 2 * 2 * 3)
            .map(|i| (i / 12 != 1 && i % 3 != 0) as u8 as f32)
            .collect();
        conv.set_mask(Tensor::from_vec(vec![3, 2, 2, 3], conv_mask.clone()));
        let mut dense = Layer::dense(18, 5, &mut r);
        let dense_mask: Vec<f32> = (0..5 * 18)
            .map(|i| (i / 18 != 0 && r.gen_bool(0.5)) as u8 as f32)
            .collect();
        dense.set_mask(Tensor::from_vec(vec![5, 18], dense_mask.clone()));
        let (Layer::Conv2d(c), Layer::Dense(d)) = (&conv, &dense) else {
            unreachable!()
        };
        let params = [c.filters.clone(), c.bias.clone(), d.w.clone(), d.b.clone()];
        let masks = [conv_mask, vec![1.0; 3], dense_mask, vec![1.0; 5]];
        let stack = vec![
            conv,
            Layer::relu(),
            Layer::maxpool(2),
            Layer::flatten(),
            dense,
        ];
        for n in [1, 2, 15, 16, 17] {
            let xs = signed_zero_batch(n, &[2, 5, 8], &mut r);
            let gs = batch_grads(n, 5, 1, &mut r);
            // Every layer's minibatch pass, input gradients included.
            let mut walk = stack.clone();
            let mut ys = xs.clone();
            for l in &mut walk {
                ys = l.forward_batch(&ys);
            }
            let mut dxs = gs.clone();
            for l in walk.iter_mut().rev() {
                dxs = l.backward_batch(&dxs);
            }
            let mut model = Model::new(stack.clone());
            let logits = model.forward_batch(&xs);
            model.backward_batch(&gs);
            let mut grads = params.clone().map(|p| Tensor::zeros(p.shape().to_vec()));
            for (s, (x, g)) in xs.iter().zip(&gs).enumerate() {
                let (want_y, want_dx) = stack_reference(&params, x, g, &mut grads);
                assert_eq!(bits(&ys[s]), bits(&want_y), "batch {n}, sample {s}");
                assert_eq!(bits(&logits[s]), bits(&want_y), "batch {n}, sample {s}");
                assert_eq!(bits(&dxs[s]), bits(&want_dx), "batch {n}, sample {s}");
            }
            let want: Vec<Vec<u32>> = grads
                .iter()
                .zip(&masks)
                .map(|(g, m)| kept_bits(g, m))
                .collect();
            for layers in [&mut walk, model.layers_mut()] {
                let mut got = Vec::new();
                for l in layers.iter_mut() {
                    l.visit_params(&mut |p| got.push(vbits(p.grads)));
                }
                assert_eq!(got, want, "batch {n}");
            }
        }
    }

    #[test]
    fn describe_is_informative() {
        let mut r = rng();
        assert_eq!(
            Layer::conv2d(20, 1, 5, 5, &mut r).describe(),
            "conv 20x1x5x5"
        );
        assert_eq!(Layer::dense(1600, 200, &mut r).describe(), "fc 200x1600");
        assert_eq!(Layer::maxpool(2).describe(), "maxpool 2x2");
    }

    /// Finite-difference gradient check for every parameterized layer and
    /// for the input gradient. This is the test that pins down backprop
    /// correctness, which everything GENESIS does depends on.
    #[test]
    fn gradient_check_dense_and_conv() {
        let mut r = rng();
        let eps = 1e-3f32;
        let tol = 2e-2f32;

        // A small conv -> relu -> flatten -> dense stack; loss = sum(output).
        let mut layers = vec![
            Layer::conv2d(2, 1, 3, 3, &mut r),
            Layer::relu(),
            Layer::flatten(),
            Layer::dense(2 * 4 * 4, 3, &mut r),
        ];
        let x = Tensor::uniform(vec![1, 6, 6], 1.0, &mut r);

        let loss = |layers: &mut Vec<Layer>, x: &Tensor| -> f32 {
            let mut t = x.clone();
            for l in layers.iter_mut() {
                t = l.forward(&t);
            }
            t.data().iter().sum()
        };

        // Analytic gradients.
        let base = loss(&mut layers, &x);
        assert!(base.is_finite());
        let out_len = 3;
        let g = Tensor::from_vec(vec![out_len], vec![1.0; out_len]);
        let mut grad = g;
        for l in layers.iter_mut().rev() {
            grad = l.backward(&grad);
        }

        // Check a sample of parameter gradients in each layer.
        for li in [0usize, 3] {
            let mut analytic: Vec<f32> = Vec::new();
            layers[li].visit_params(&mut |p| {
                analytic.extend_from_slice(p.grads);
            });
            // Probe a handful of parameters per tensor.
            let mut offset = 0;
            let probes: Vec<usize> = vec![0, 1, analytic.len() / 2, analytic.len() - 1];
            let mut param_lens: Vec<usize> = Vec::new();
            layers[li].visit_params(&mut |p| param_lens.push(p.values.len()));
            let _ = offset; // parameters are probed through the flat view below
            for &pi in &probes {
                // Locate tensor + index for this flat probe.
                let mut remaining = pi;
                let mut tensor_idx = 0;
                for (ti, &len) in param_lens.iter().enumerate() {
                    if remaining < len {
                        tensor_idx = ti;
                        break;
                    }
                    remaining -= len;
                }
                let perturb = |layers: &mut Vec<Layer>, delta: f32| {
                    let mut seen = 0;
                    layers[li].visit_params(&mut |p| {
                        if seen == tensor_idx {
                            p.values[remaining] += delta;
                        }
                        seen += 1;
                    });
                };
                perturb(&mut layers, eps);
                let plus = loss(&mut layers, &x);
                perturb(&mut layers, -2.0 * eps);
                let minus = loss(&mut layers, &x);
                perturb(&mut layers, eps);
                let numeric = (plus - minus) / (2.0 * eps);
                let got = analytic[pi];
                assert!(
                    (numeric - got).abs() <= tol * (1.0 + numeric.abs().max(got.abs())),
                    "layer {li} param {pi}: numeric {numeric} vs analytic {got}"
                );
            }
            offset += 1;
            let _ = offset;
        }

        // Input gradient check at a few positions.
        for idx in [0usize, 7, 20, 35] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let plus = loss(&mut layers, &xp);
            xp.data_mut()[idx] -= 2.0 * eps;
            let minus = loss(&mut layers, &xp);
            let numeric = (plus - minus) / (2.0 * eps);
            let got = grad.data()[idx];
            assert!(
                (numeric - got).abs() <= tol * (1.0 + numeric.abs().max(got.abs())),
                "input {idx}: numeric {numeric} vs analytic {got}"
            );
        }
        let _ = base;
    }
}
