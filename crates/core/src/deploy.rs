//! Lowering a quantized model onto the device.
//!
//! `deploy` is the "link + flash" step: it allocates every FRAM structure
//! inference needs and installs the weights, without consuming energy
//! (programming happens before deployment, like flashing the binary in
//! the paper's measurement setup).
//!
//! # Memory layout
//!
//! - Two **activation buffers** (`act_a`, `act_b`) sized to the largest
//!   inter-layer activation; layers ping-pong between them.
//! - Two **scratch planes** (`plane_a`, `plane_b`) sized to the largest
//!   single output plane; SONIC's loop-ordered buffering alternates
//!   between them tap by tap (§6.2.2), and the finishing pass (shift +
//!   bias) writes from the final plane into the activation buffer — the
//!   read and write sets of every pass stay disjoint, which is what makes
//!   each iteration idempotent.
//! - Per layer: weights (dense array, or compressed sparse form), biases,
//!   and the **non-volatile control words** (`idx`, `pos`, `filt`,
//!   `stage`, plus an undo slot) that loop continuation and sparse
//!   undo-logging live in.
//!
//! Sparse formats (16-bit words):
//!
//! - Sparse conv: a `row_ptr` array (`F + 1` entries) plus 2 words per
//!   tap — the flattened kernel offset `(c·KH + ky)·KW + kx` and the
//!   Q1.15 value.
//! - Sparse FC: a *column*-major layout (`col_ptr` over inputs, then
//!   2 words per nonzero: output row and value) so the kernels scatter
//!   each input activation to the outputs it feeds, the access order
//!   sparse undo-logging assumes.

use dnn::quant::{QCsr, QLayer, QModel};
use fxp::Q15;
use mcu::{AllocError, Device, FramBuf, FramWord, RegionId};

/// Sentinel for an empty undo-slot tag.
pub const UNDO_EMPTY: u16 = u16::MAX;

/// Per-layer input/output routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoBuf {
    /// Activation buffer A.
    A,
    /// Activation buffer B.
    B,
}

impl IoBuf {
    fn other(self) -> IoBuf {
        match self {
            IoBuf::A => IoBuf::B,
            IoBuf::B => IoBuf::A,
        }
    }
}

/// The weights of one deployed layer.
#[derive(Clone, Debug)]
pub enum DeployedKind {
    /// Convolution.
    Conv {
        /// `[F, C, KH, KW]`.
        dims: [u32; 4],
        /// Dense weights (`F*C*KH*KW` words), present even for sparse
        /// layers (TAILS pads sparse filters to dense, §7.2).
        weights: FramBuf,
        /// Sparse form: (`row_ptr` of `F+1` words, taps of 2 words each).
        sparse: Option<(FramBuf, FramBuf)>,
        /// Biases (`F` words).
        bias: FramBuf,
        /// Net result shift.
        shift: i32,
    },
    /// Fully-connected.
    Dense {
        /// `[out, in]`.
        dims: [u32; 2],
        /// Dense weights (`out*in` words).
        weights: FramBuf,
        /// Sparse forms, both written when the layer is pruned.
        sparse: Option<SparseFc>,
        /// Biases (`out` words).
        bias: FramBuf,
        /// Net result shift.
        shift: i32,
    },
    /// Max pooling.
    Pool {
        /// Window height (and vertical stride).
        kh: u32,
        /// Window width (and horizontal stride).
        kw: u32,
    },
    /// ReLU (in-place, idempotent).
    Relu,
    /// Flatten (no data movement; shapes only).
    Flatten,
}

/// The two flashed forms of a sparse fully-connected layer.
#[derive(Clone, Copy, Debug)]
pub struct SparseFc {
    /// Column-major: (`col_ptr` of `in+1` words, entries of 2 words each:
    /// output row, value). This is the access order sparse undo-logging
    /// needs (scatter per input).
    pub cols: (FramBuf, FramBuf),
    /// Row-major: (`row_ptr` of `out+1` words, entries of 2 words each:
    /// column, value). Gather order, used by register-accumulating
    /// implementations (baseline, stateful).
    pub rows: (FramBuf, FramBuf),
}

/// One deployed layer: weights, routing, shapes, control words, region.
#[derive(Clone, Debug)]
pub struct DeployedLayer {
    /// The layer's weights and parameters.
    pub kind: DeployedKind,
    /// Input shape `[c, h, w]` (dense layers use `[n, 1, 1]`).
    pub in_shape: [u32; 3],
    /// Output shape.
    pub out_shape: [u32; 3],
    /// Which activation buffer the layer reads.
    pub src: IoBuf,
    /// Which activation buffer the layer writes (equal to `src` for
    /// in-place layers).
    pub dst: IoBuf,
    /// Loop-continuation inner index.
    pub idx: FramWord,
    /// Loop-continuation tap/position index.
    pub pos: FramWord,
    /// Loop-continuation filter index / stage word.
    pub filt: FramWord,
    /// Sparse undo-logging: saved value.
    pub undo_val: FramWord,
    /// Sparse undo-logging: saved iteration tag.
    pub undo_tag: FramWord,
    /// Accounting region for this layer.
    pub region: RegionId,
}

/// A model deployed to device FRAM.
#[derive(Clone, Debug)]
pub struct DeployedModel {
    /// The layers in execution order.
    pub layers: Vec<DeployedLayer>,
    /// Activation buffer A.
    pub act_a: FramBuf,
    /// Activation buffer B.
    pub act_b: FramBuf,
    /// Scratch plane A (loop-ordered buffering).
    pub plane_a: FramBuf,
    /// Scratch plane B.
    pub plane_b: FramBuf,
    /// Where the input must be loaded.
    pub input: IoBuf,
    /// Number of input words.
    pub input_len: u32,
    /// Where the logits end up.
    pub output: IoBuf,
    /// Number of output words.
    pub output_len: u32,
    /// Region used for non-layer work (calibration, misc).
    pub other_region: RegionId,
    /// TAILS: the calibrated LEA/DMA tile size (0 = not yet calibrated).
    pub calib: FramWord,
    /// TAILS: the candidate tile being probed by calibration.
    pub calib_cand: FramWord,
}

impl DeployedModel {
    /// Resolves an [`IoBuf`] to its buffer handle.
    pub fn buf(&self, which: IoBuf) -> FramBuf {
        match which {
            IoBuf::A => self.act_a,
            IoBuf::B => self.act_b,
        }
    }

    /// Loads a quantized input into the input buffer (host-side, no
    /// energy — the sensor writes its reading before inference starts).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn load_input(&self, dev: &mut Device, x: &[Q15]) {
        assert_eq!(x.len() as u32, self.input_len, "input length mismatch");
        dev.flash(self.buf(self.input).slice(0, self.input_len), x);
    }

    /// Reads the logits back out (host-side measurement port).
    pub fn read_output(&self, dev: &Device) -> Vec<Q15> {
        dev.peek(self.buf(self.output).slice(0, self.output_len))
    }
}

fn shape3(shape: &[usize]) -> [u32; 3] {
    match shape.len() {
        3 => [shape[0] as u32, shape[1] as u32, shape[2] as u32],
        1 => [shape[0] as u32, 1, 1],
        _ => panic!("unsupported shape rank {}", shape.len()),
    }
}

/// Lowers a row-major CSR FC (`out_n × in_n`) to the flashed column-major
/// words: `col_ptr` (`in_n + 1` prefix offsets) and 2 words per nonzero
/// (output row, value). A counting-sort transpose: count per column,
/// prefix-sum, then scatter in row order, so each column's entries stay
/// sorted by output row.
fn csr_to_csc(s: &QCsr, out_n: usize, in_n: usize) -> (Vec<Q15>, Vec<Q15>) {
    let nz = s.row_ptr[0] as usize..s.row_ptr[out_n] as usize;
    let mut next = vec![0usize; in_n + 1];
    for &c in &s.col[nz] {
        next[c as usize + 1] += 1;
    }
    for c in 0..in_n {
        next[c + 1] += next[c];
    }
    let ptr_words: Vec<Q15> = next.iter().map(|&p| Q15::from_raw(p as i16)).collect();
    let mut ent_words = vec![Q15::from_raw(0); 2 * next[in_n]];
    for o in 0..out_n {
        for i in s.row_ptr[o] as usize..s.row_ptr[o + 1] as usize {
            let slot = &mut next[s.col[i] as usize];
            ent_words[2 * *slot] = Q15::from_raw(o as i16);
            ent_words[2 * *slot + 1] = s.val[i];
            *slot += 1;
        }
    }
    (ptr_words, ent_words)
}

/// Deploys a quantized model, flashing weights and allocating buffers.
///
/// # Errors
///
/// Returns [`AllocError`] when the model does not fit in FRAM — the
/// paper's feasibility constraint, checked for real here.
pub fn deploy(dev: &mut Device, qm: &QModel) -> Result<DeployedModel, AllocError> {
    // Shapes and buffer sizing.
    let mut shape = qm.input_shape.clone();
    let mut max_act: usize = shape.iter().product();
    let mut max_plane: usize = 0;
    for l in &qm.layers {
        let out = l.output_shape(&shape);
        let elems: usize = out.iter().product();
        max_act = max_act.max(elems);
        match l {
            QLayer::Conv(_) => max_plane = max_plane.max(out[1] * out[2]),
            QLayer::Dense(d) => max_plane = max_plane.max(d.dims[0]),
            _ => {}
        }
        shape = out;
    }
    assert!(
        max_act <= u16::MAX as usize,
        "activation too large for u16 indices"
    );

    let calib = dev.fram_alloc_word()?;
    let calib_cand = dev.fram_alloc_word()?;
    let act_a = dev.fram_alloc(max_act as u32)?;
    let act_b = dev.fram_alloc(max_act as u32)?;
    let plane_a = dev.fram_alloc(max_plane.max(1) as u32)?;
    let plane_b = dev.fram_alloc(max_plane.max(1) as u32)?;

    let other_region = dev.register_region("other");

    // Region naming: consecutive convs share a region (a separated conv
    // is one logical layer); all dense layers share "fc"; the rest is
    // "other".
    let mut conv_group = 0u32;
    let mut prev_was_conv = false;

    let mut cur = IoBuf::A;
    let mut shape = qm.input_shape.clone();
    let mut layers = Vec::with_capacity(qm.layers.len());
    for l in &qm.layers {
        let out_shape_v = l.output_shape(&shape);
        let in_shape = shape3(&shape);
        let out_shape = shape3(&out_shape_v);
        let region = match l {
            QLayer::Conv(_) => {
                if !prev_was_conv {
                    conv_group += 1;
                }
                prev_was_conv = true;
                dev.register_region(&format!("conv{conv_group}"))
            }
            QLayer::Dense(_) => {
                prev_was_conv = false;
                dev.register_region("fc")
            }
            _ => {
                prev_was_conv = false;
                other_region
            }
        };
        let (kind, in_place) = match l {
            QLayer::Conv(c) => {
                let weights = dev.fram_alloc(c.weights.len() as u32)?;
                dev.flash(weights, &c.weights);
                let bias = dev.fram_alloc(c.bias.len() as u32)?;
                dev.flash(bias, &c.bias);
                let sparse = match &c.sparse {
                    Some(s) => {
                        let nf = c.dims[0];
                        let row_ptr = dev.fram_alloc(nf as u32 + 1)?;
                        let total: usize = s.taps.iter().map(Vec::len).sum();
                        let taps = dev.fram_alloc(2 * total as u32)?;
                        let mut ptr_words = Vec::with_capacity(nf + 1);
                        let mut tap_words = Vec::with_capacity(2 * total);
                        let mut n = 0u16;
                        ptr_words.push(Q15::from_raw(0));
                        let (kh, kw) = (c.dims[2] as u16, c.dims[3] as u16);
                        for f in 0..nf {
                            for t in &s.taps[f] {
                                let off = (t.c * kh + t.ky) * kw + t.kx;
                                tap_words.push(Q15::from_raw(off as i16));
                                tap_words.push(t.w);
                                n += 1;
                            }
                            ptr_words.push(Q15::from_raw(n as i16));
                        }
                        dev.flash(row_ptr, &ptr_words);
                        dev.flash(taps, &tap_words);
                        Some((row_ptr, taps))
                    }
                    None => None,
                };
                (
                    DeployedKind::Conv {
                        dims: [
                            c.dims[0] as u32,
                            c.dims[1] as u32,
                            c.dims[2] as u32,
                            c.dims[3] as u32,
                        ],
                        weights,
                        sparse,
                        bias,
                        shift: c.shift,
                    },
                    false,
                )
            }
            QLayer::Dense(d) => {
                // Sparse FC layers never run on LEA (§7.2), so they carry
                // no dense copy — only conv filters are padded dense.
                let weights = if d.sparse.is_some() {
                    dev.fram_alloc(0)?
                } else {
                    let w = dev.fram_alloc(d.weights.len() as u32)?;
                    dev.flash(w, &d.weights);
                    w
                };
                let bias = dev.fram_alloc(d.bias.len() as u32)?;
                dev.flash(bias, &d.bias);
                let sparse = match &d.sparse {
                    Some(s) => {
                        // Column-major scatter lists (for sparse
                        // undo-logging) from the row-major CSR.
                        let (out_n, in_n) = (d.dims[0], d.dims[1]);
                        let (ptr_words, ent_words) = csr_to_csc(s, out_n, in_n);
                        let col_ptr = dev.fram_alloc(in_n as u32 + 1)?;
                        let entries = dev.fram_alloc(ent_words.len() as u32)?;
                        dev.flash(col_ptr, &ptr_words);
                        dev.flash(entries, &ent_words);

                        // Row-major gather lists (for register-accumulating
                        // implementations).
                        let row_ptr = dev.fram_alloc(out_n as u32 + 1)?;
                        let row_entries = dev.fram_alloc(2 * s.val.len() as u32)?;
                        let rp_words: Vec<Q15> =
                            s.row_ptr.iter().map(|&p| Q15::from_raw(p as i16)).collect();
                        let mut re_words = Vec::with_capacity(2 * s.val.len());
                        for (&c, &v) in s.col.iter().zip(&s.val) {
                            re_words.push(Q15::from_raw(c as i16));
                            re_words.push(v);
                        }
                        dev.flash(row_ptr, &rp_words);
                        dev.flash(row_entries, &re_words);
                        Some(SparseFc {
                            cols: (col_ptr, entries),
                            rows: (row_ptr, row_entries),
                        })
                    }
                    None => None,
                };
                (
                    DeployedKind::Dense {
                        dims: [d.dims[0] as u32, d.dims[1] as u32],
                        weights,
                        sparse,
                        bias,
                        shift: d.shift,
                    },
                    false,
                )
            }
            QLayer::Pool(p) => (
                DeployedKind::Pool {
                    kh: p.kh as u32,
                    kw: p.kw as u32,
                },
                false,
            ),
            QLayer::Relu => (DeployedKind::Relu, true),
            QLayer::Flatten => (DeployedKind::Flatten, true),
        };
        let src = cur;
        let dst = if in_place { cur } else { cur.other() };
        cur = dst;
        layers.push(DeployedLayer {
            kind,
            in_shape,
            out_shape,
            src,
            dst,
            idx: dev.fram_alloc_word()?,
            pos: dev.fram_alloc_word()?,
            filt: dev.fram_alloc_word()?,
            undo_val: dev.fram_alloc_word()?,
            undo_tag: dev.fram_alloc_word()?,
            region,
        });
        shape = out_shape_v;
    }

    // Initialize control words (flash-time, no energy).
    let model = DeployedModel {
        input: IoBuf::A,
        input_len: qm.input_shape.iter().product::<usize>() as u32,
        output: layers.last().map(|l| l.dst).unwrap_or(IoBuf::A),
        output_len: shape.iter().product::<usize>() as u32,
        layers,
        act_a,
        act_b,
        plane_a,
        plane_b,
        other_region,
        calib,
        calib_cand,
    };
    reset_control_words(dev, &model);
    guard_control_words(dev, &model);
    Ok(model)
}

/// Registers every control word — the per-layer loop-continuation block
/// (`idx`, `pos`, `filt`) and undo slot (`undo_val`, `undo_tag`), plus
/// the TAILS calibration pair — under the device's ECC integrity guard.
/// Legitimate writes refresh the guard transparently; injected memory
/// faults diverge from it and are caught at the runtimes' control-read
/// chokepoints. Weights and activations stay unguarded (the paper's
/// platform has no ECC over bulk data), which bounds the guard to a
/// handful of words per layer.
pub fn guard_control_words(dev: &mut Device, m: &DeployedModel) {
    dev.guard_word(m.calib);
    dev.guard_word(m.calib_cand);
    for l in &m.layers {
        for w in [l.idx, l.pos, l.filt, l.undo_val, l.undo_tag] {
            dev.guard_word(w);
        }
    }
}

/// Host-side reset of a layer's control words (flash-time initialization;
/// kernels reset their own words as part of normal execution so repeated
/// inferences work without host help).
pub fn reset_control_words(dev: &mut Device, m: &DeployedModel) {
    dev.flash_word(m.calib, 0);
    dev.flash_word(m.calib_cand, 0);
    for l in &m.layers {
        for w in [l.idx, l.pos, l.filt] {
            dev.flash_word(w, 0);
        }
        dev.flash_word(l.undo_tag, UNDO_EMPTY);
        dev.flash_word(l.undo_val, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::quant::QDense;
    use mcu::{DeviceSpec, PowerSystem};

    /// The per-column bucket transpose the counting sort replaced: the
    /// reference for the flashed column-major words.
    fn naive_csc(s: &QCsr, out_n: usize, in_n: usize) -> (Vec<i16>, Vec<i16>) {
        let mut cols: Vec<Vec<(usize, Q15)>> = vec![Vec::new(); in_n];
        for o in 0..out_n {
            for i in s.row_ptr[o] as usize..s.row_ptr[o + 1] as usize {
                cols[s.col[i] as usize].push((o, s.val[i]));
            }
        }
        let (mut ptr, mut ent) = (vec![0i16], Vec::new());
        for col in &cols {
            for &(o, w) in col {
                ent.extend([o as i16, w.raw()]);
            }
            ptr.push((ent.len() / 2) as i16);
        }
        (ptr, ent)
    }

    #[test]
    fn sparse_fc_lowering_matches_the_naive_transpose_word_for_word() {
        // 5 outputs × 7 inputs: columns 0 (first), 3 (middle) and 6
        // (last) are empty, column 4 is full, the rest are scattered.
        let (out_n, in_n) = (5usize, 7usize);
        let mut weights = vec![Q15::from_raw(0); out_n * in_n];
        for o in 0..out_n {
            for i in 0..in_n {
                let keep = i == 4 || (matches!(i, 1 | 2 | 5) && (o + i) % 2 == 0);
                if keep {
                    weights[o * in_n + i] = Q15::from_raw((100 * o + i + 1) as i16);
                }
            }
        }
        let mut csr = QCsr {
            row_ptr: vec![0],
            col: Vec::new(),
            val: Vec::new(),
        };
        for o in 0..out_n {
            for i in 0..in_n {
                let w = weights[o * in_n + i];
                if w.raw() != 0 {
                    csr.col.push(i as u32);
                    csr.val.push(w);
                }
            }
            csr.row_ptr.push(csr.col.len() as u32);
        }
        let qm = QModel {
            input_shape: vec![in_n],
            layers: vec![QLayer::Dense(QDense {
                dims: [out_n, in_n],
                weights,
                bias: vec![Q15::from_raw(0); out_n],
                shift: 0,
                sparse: Some(csr.clone()),
            })],
        };
        let mut dev = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).unwrap();
        let DeployedKind::Dense {
            sparse:
                Some(SparseFc {
                    cols: (col_ptr, entries),
                    ..
                }),
            ..
        } = dm.layers[0].kind
        else {
            panic!("the FC must deploy sparse");
        };
        let raw = |b: FramBuf| dev.peek(b).iter().map(|q| q.raw()).collect::<Vec<_>>();
        let (ptr, ent) = naive_csc(&csr, out_n, in_n);
        assert_eq!(raw(col_ptr), ptr, "col_ptr words");
        assert_eq!(raw(entries), ent, "entry words");
        // The edge cases the fixture exists for.
        assert_eq!(ptr[0], ptr[1], "empty first column");
        assert_eq!(ptr[3], ptr[4], "empty middle column");
        assert_eq!(ptr[6], ptr[7], "empty last column");
        assert_eq!(ptr[5] - ptr[4], out_n as i16, "full column");
    }
}
