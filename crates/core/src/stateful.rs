//! The stateful progress-embedding backend (fifth backend).
//!
//! Reproduces the Stateful-NN idea from DynBal ("Stateful Neural Networks
//! for Intermittent Systems"; see also "Accelerate Intermittent Deep
//! Inference"): inference progress is embedded *in the NVM output buffers
//! themselves* instead of SONIC's loop-index control words or Alpaca's
//! redo log. Every activation word a layer writes carries an in-band
//! progress tag; on reboot a progress seeker probes the activation
//! buffers and binary-searches the deepest tagged prefix to find the
//! resume point. There are no continuity control words and no undo log —
//! the written data *is* the checkpoint.
//!
//! # Word layout
//!
//! Activations are stored as 16-bit words packing value, parity, and tag:
//!
//! ```text
//! bit 15..5   value  — top 11 bits of the Q15 activation
//! bit 4       parity — makes the total popcount of the word odd
//! bit 3..0    tag    — which write pass produced this word (0..=6)
//! ```
//!
//! A word is *valid* iff its popcount is odd. Erased words are flashed to
//! the clear pattern [`CLEAR_WORD`] (`0x000F`: tag 15, even popcount —
//! invalid). Write passes are assigned tags `0..=6` per buffer (at most
//! [`MAX_PASSES_PER_BUF`] passes per activation buffer, checked by
//! [`preflight`]), which yields the single-flip safety theorem the
//! corruption sweep pins:
//!
//! - flipping any bit of a *valid* word makes it invalid (parity), and
//! - every valid single-flip neighbour of the clear pattern carries a tag
//!   ≥ 7 — outside the assigned range — so a flip can never forge
//!   progress the seeker would trust.
//!
//! Hence any single bit flip in an activation word is either detected by
//! the per-read tag/parity verify (bounded retries exhausted →
//! `RunError::Corrupted`, the *Aborted* verdict), repaired by the final
//! audit recompute (*Recovered*), or never observed (*Masked*) — never
//! silently wrong. The documented limitation is multi-bit faults: a
//! double flip confined to value bits preserves parity and is accepted;
//! the corruption bench's teeth control demonstrates exactly that.
//!
//! # Recovery
//!
//! On every (re-)entry the task runs the progress seeker: probe word 0 of
//! each write pass's region, deepest pass first; the first pass whose
//! word 0 carries its tag is the resume pass, and a binary search over
//! that pass's region finds the frontier (writes are in-order, so tagged
//! words form a prefix — the monotonicity [`crate::spec::StatefulAbs`]
//! checks at every crash boundary). Execution resumes at the frontier;
//! each element write atomically advances it. A final audit rescans the
//! last pass and recomputes from the first invalid word, so a flip
//! landing *after* an element was written is still caught before the
//! output is consumed.
//!
//! # Conventions
//!
//! [`prepare_run`] is host-side (free, like `DeployedModel::load_input`):
//! it flashes the clear pattern over both activation buffers and re-flashes
//! the staged input in embedded form. Outputs are read back through
//! [`cleared_output`], which strips tags/parity. The backend's arithmetic
//! is self-consistently 11-bit: inputs and activations alike are read
//! through [`VALUE_MASK`], and the MACs accumulate exactly. Its host
//! reference is therefore the lockstep module's masked twin: the
//! full-precision kernels over masked inputs and masked conv/FC outputs.
//! Lockstep serves continuous-power runs from that twin once the trace
//! reaches its fixed point.

use crate::baseline::{charge_finish, unpack_tap};
use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel, IoBuf, SparseFc};
use dnn::quant::finish_acc;
use fxp::{Accum, Q15};
use intermittent::task::{TaskGraph, Transition};
use mcu::{AllocError, Device, FramBuf, Op, OpBundle, Phase, PowerFailure, RegionId};

/// Bits of an embedded word holding the (truncated) activation value.
pub const VALUE_MASK: u16 = 0xFFE0;
/// The parity bit: set so the total popcount of the word is odd.
pub const PARITY_BIT: u16 = 0x0010;
/// Bits holding the write-pass tag.
pub const TAG_MASK: u16 = 0x000F;
/// The erased-cell pattern flashed by [`prepare_run`]: tag field 15,
/// popcount even — invalid, and every valid single-flip neighbour of it
/// carries a tag ≥ 7 (outside the assigned `0..=6` range).
pub const CLEAR_WORD: u16 = 0x000F;
/// Maximum write passes per activation buffer: tags `0..=6`. Tags 7..=15
/// are reserved as the clear pattern's flip-neighbourhood (see module
/// docs); [`preflight`] rejects models that would need more.
pub const MAX_PASSES_PER_BUF: u32 = 7;

/// Packs a Q15 value and a pass tag into a valid embedded word.
#[inline]
pub fn embed(v: Q15, tag: u16) -> Q15 {
    let w = (v.raw() as u16 & VALUE_MASK) | (tag & TAG_MASK);
    let parity = (w.count_ones() as u16 ^ 1) & 1;
    Q15::from_raw((w | (parity * PARITY_BIT)) as i16)
}

/// Strips tag and parity, recovering the (truncated) activation value.
#[inline]
pub fn value_of(w: Q15) -> Q15 {
    Q15::from_raw((w.raw() as u16 & VALUE_MASK) as i16)
}

/// The pass tag carried by an embedded word.
#[inline]
pub fn tag_of(w: Q15) -> u16 {
    w.raw() as u16 & TAG_MASK
}

/// Whether the word's popcount parity marks it as a completed write.
#[inline]
pub fn is_valid(w: Q15) -> bool {
    (w.raw() as u16).count_ones() & 1 == 1
}

/// Valid *and* carrying exactly this pass tag.
#[inline]
pub fn valid_with(w: Q15, tag: u16) -> bool {
    is_valid(w) && tag_of(w) == tag
}

/// One write pass over an activation buffer.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Index into `DeployedModel::layers`; `None` for the virtual input
    /// pass (pass 0, embedded by the host in [`prepare_run`]).
    pub layer: Option<usize>,
    /// Which activation buffer this pass writes.
    pub buf: IoBuf,
    /// Number of words the pass writes (its region is `[0, len)`).
    pub len: u32,
    /// Per-buffer tag this pass stamps into every word it writes.
    pub tag: u16,
    /// Tag the pass expects on the activations it *reads*. In-place
    /// passes (ReLU) additionally accept their own `tag` on re-reads.
    pub in_tag: u16,
}

/// The static write-pass plan for a deployed model: the state assigner.
#[derive(Clone, Debug)]
pub struct StatefulPlan {
    /// Passes in execution order. Pass 0 is the embedded input.
    pub passes: Vec<Pass>,
    /// Write passes assigned per buffer (`[A, B]`), including the input
    /// pass — must each stay ≤ [`MAX_PASSES_PER_BUF`].
    pub tags_used: [u32; 2],
}

fn elems(shape: [u32; 3]) -> u32 {
    shape[0] * shape[1] * shape[2]
}

/// Assigns a tag to every write pass of the model. Flatten writes
/// nothing; ReLU is an in-place pass over its source buffer.
pub fn plan(m: &DeployedModel) -> StatefulPlan {
    let mut passes = Vec::new();
    // Per-buffer next tag and last-written tag. The input arrives in
    // buffer A as pass 0.
    let mut next = [0u32; 2];
    let mut last = [0u16; 2];
    let bi = |b: IoBuf| match b {
        IoBuf::A => 0usize,
        IoBuf::B => 1usize,
    };
    let ib = bi(m.input);
    passes.push(Pass {
        layer: None,
        buf: m.input,
        len: m.input_len,
        tag: 0,
        in_tag: 0,
    });
    next[ib] = 1;
    for (i, l) in m.layers.iter().enumerate() {
        let (buf, len) = match l.kind {
            DeployedKind::Flatten => continue,
            DeployedKind::Relu => (l.src, elems(l.in_shape)),
            _ => (l.dst, elems(l.out_shape)),
        };
        let in_tag = last[bi(l.src)];
        let tag = next[bi(buf)] as u16;
        next[bi(buf)] += 1;
        last[bi(buf)] = tag;
        passes.push(Pass {
            layer: Some(i),
            buf,
            len,
            tag,
            in_tag,
        });
    }
    StatefulPlan {
        passes,
        tags_used: next,
    }
}

/// Checks the model fits the tag space: at most [`MAX_PASSES_PER_BUF`]
/// write passes per activation buffer.
pub fn preflight(m: &DeployedModel) -> Result<(), AllocError> {
    let p = plan(m);
    for used in p.tags_used {
        if used > MAX_PASSES_PER_BUF {
            return Err(AllocError {
                requested: used,
                available: MAX_PASSES_PER_BUF,
                fram: true,
            });
        }
    }
    Ok(())
}

/// Host-side run preparation (free, like `DeployedModel::load_input`):
/// the state clearer. Flashes [`CLEAR_WORD`] over both activation
/// buffers, then re-flashes the staged input in embedded form (tag 0).
pub fn prepare_run(dev: &mut Device, m: &DeployedModel) {
    let input = dev.peek(m.buf(m.input).slice(0, m.input_len));
    let clear = Q15::from_raw(CLEAR_WORD as i16);
    dev.flash(m.act_a, &vec![clear; m.act_a.len() as usize]);
    dev.flash(m.act_b, &vec![clear; m.act_b.len() as usize]);
    let embedded: Vec<Q15> = input.iter().map(|&v| embed(v, 0)).collect();
    dev.flash(m.buf(m.input).slice(0, m.input_len), &embedded);
}

/// Reads the final output, stripping tags and parity.
pub fn cleared_output(dev: &Device, m: &DeployedModel) -> Vec<Q15> {
    m.read_output(dev).into_iter().map(value_of).collect()
}

/// A detected activation fault is unrecoverable data loss: exhaust the
/// bounded retry budget so the scheduler surfaces `RunError::Corrupted`
/// instead of rebooting into the same corrupted state forever.
fn data_corrupt(dev: &mut Device, region: RegionId) -> PowerFailure {
    while dev.note_corruption(region) {}
    PowerFailure
}

/// Reads an activation through the tag/parity verify on the *prepaid*
/// (funded-bundle) path. `tags` lists the accepted pass tags.
#[inline]
fn verified_prepaid(
    dev: &mut Device,
    buf: FramBuf,
    i: u32,
    tags: &[u16],
    region: RegionId,
) -> Result<Q15, PowerFailure> {
    let w = dev.prepaid_read(buf, i);
    if is_valid(w) && tags.contains(&tag_of(w)) {
        Ok(value_of(w))
    } else {
        Err(data_corrupt(dev, region))
    }
}

/// Reads an activation through the tag/parity verify on the scalar-replay
/// path (read, then the verify ALU op).
#[inline]
fn verified_read(
    dev: &mut Device,
    buf: FramBuf,
    i: u32,
    tags: &[u16],
    region: RegionId,
) -> Result<Q15, PowerFailure> {
    let w = dev.read(buf, i)?;
    dev.consume(Op::Alu)?; // tag/parity verify
    if is_valid(w) && tags.contains(&tag_of(w)) {
        Ok(value_of(w))
    } else {
        Err(data_corrupt(dev, region))
    }
}

/// One dense MAC iteration with the activation verify:
/// weight read, address ALU, input read, verify ALU, mul, add, incr, branch.
fn mac_bundle() -> OpBundle {
    let mut b = OpBundle::new();
    b.push(Op::FramRead, Phase::Kernel);
    b.push(Op::Alu, Phase::Kernel);
    b.push(Op::FramRead, Phase::Kernel);
    b.push(Op::Alu, Phase::Kernel); // tag/parity verify
    b.push(Op::FxpMul, Phase::Kernel);
    b.push(Op::FxpAdd, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

/// One sparse-conv tap with the verify: offset read + unpack precede.
fn sparse_mac_bundle() -> OpBundle {
    let mut b = OpBundle::new();
    b.push(Op::FramRead, Phase::Kernel); // packed offset
    b.push(Op::Alu, Phase::Kernel); // unpack
    b.push(Op::FramRead, Phase::Kernel); // weight
    b.push(Op::Alu, Phase::Kernel); // address
    b.push(Op::FramRead, Phase::Kernel); // input
    b.push(Op::Alu, Phase::Kernel); // tag/parity verify
    b.push(Op::FxpMul, Phase::Kernel);
    b.push(Op::FxpAdd, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

/// One sparse-FC tap with the verify: column, weight, address, input,
/// verify, mul, add, incr, branch.
fn fc_sparse_bundle() -> OpBundle {
    let mut b = OpBundle::new();
    b.push(Op::FramRead, Phase::Kernel); // column
    b.push(Op::FramRead, Phase::Kernel); // weight
    b.push(Op::Alu, Phase::Kernel);
    b.push(Op::FramRead, Phase::Kernel); // input
    b.push(Op::Alu, Phase::Kernel); // tag/parity verify
    b.push(Op::FxpMul, Phase::Kernel);
    b.push(Op::FxpAdd, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

/// One max-pool output: window scan (each read verified) + embed + write.
fn pool_bundle(kh: u32, kw: u32) -> OpBundle {
    let mut b = OpBundle::new();
    for _ in 0..kh * kw {
        b.push(Op::Alu, Phase::Kernel);
        b.push(Op::FramRead, Phase::Kernel);
        b.push(Op::Alu, Phase::Kernel); // tag/parity verify
        b.push(Op::Branch, Phase::Kernel);
    }
    b.push(Op::Alu, Phase::Kernel); // embed pack
    b.push(Op::FramWrite, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

/// One in-place ReLU element: read, verify, clamp-branch, embed, write.
fn relu_bundle() -> OpBundle {
    let mut b = OpBundle::new();
    b.push(Op::FramRead, Phase::Kernel);
    b.push(Op::Alu, Phase::Kernel); // tag/parity verify
    b.push(Op::Branch, Phase::Kernel);
    b.push(Op::Alu, Phase::Kernel); // embed pack
    b.push(Op::FramWrite, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

/// One seek/audit probe: address ALU, read, tag check, branch.
fn probe_bundle() -> OpBundle {
    let mut b = OpBundle::new();
    b.push(Op::Alu, Phase::Control);
    b.push(Op::FramRead, Phase::Control);
    b.push(Op::Alu, Phase::Control);
    b.push(Op::Branch, Phase::Control);
    b
}

/// Charges and performs one probe of `buf[i]` against `tag`.
fn probe(
    dev: &mut Device,
    pb: &OpBundle,
    buf: FramBuf,
    i: u32,
    tag: u16,
) -> Result<bool, PowerFailure> {
    if dev.consume_bundle(pb, 1)? == 1 {
        Ok(valid_with(dev.prepaid_read(buf, i), tag))
    } else {
        // Scalar replay: the brown-out lands on the exact op.
        dev.consume(Op::Alu)?;
        let w = dev.read(buf, i)?;
        dev.consume(Op::Alu)?;
        dev.consume(Op::Branch)?;
        Ok(valid_with(w, tag))
    }
}

/// The progress seeker: finds `(pass, frontier)` to resume from.
///
/// Probes word 0 of each pass's region, deepest pass first — a pass's tag
/// appears at word 0 iff the pass has started, and a started pass implies
/// every earlier pass completed (writes are in execution order). Then
/// binary-searches the frontier of the resume pass: its tagged words form
/// a prefix `[0, f)`, so `valid_with` at an index is monotone.
fn seek(
    dev: &mut Device,
    m: &DeployedModel,
    p: &StatefulPlan,
) -> Result<(usize, u32), PowerFailure> {
    dev.set_context(m.other_region, Phase::Control);
    let pb = probe_bundle();
    for pi in (1..p.passes.len()).rev() {
        let pass = &p.passes[pi];
        let buf = m.buf(pass.buf);
        if probe(dev, &pb, buf, 0, pass.tag)? {
            let (mut lo, mut hi) = (1u32, pass.len);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if probe(dev, &pb, buf, mid, pass.tag)? {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            return Ok((pi, lo));
        }
    }
    Ok((1, 0))
}

/// Computes and writes conv output element `o`; `iter` is the layer's
/// [`sparse_mac_bundle`] or [`mac_bundle`].
fn conv_element(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    o: u32,
    iter: &OpBundle,
    in_tags: &[u16],
    out_tag: u16,
) -> Result<(), PowerFailure> {
    let DeployedKind::Conv {
        dims,
        weights,
        sparse,
        bias,
        shift,
    } = &l.kind
    else {
        unreachable!("conv_element on non-conv")
    };
    let [_, nc, kh, kw] = *dims;
    let [_, h, w] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);
    let f = o / (oh * ow);
    let oy = (o / ow) % oh;
    let ox = o % ow;
    let ntaps = nc * kh * kw;
    let mut acc = Accum::ZERO;
    match sparse {
        Some((row_ptr, taps)) => {
            let start = dev.read(*row_ptr, f)?.raw() as u16 as u32;
            let end = dev.read(*row_ptr, f + 1)?.raw() as u16 as u32;
            let mut t = start;
            while t < end {
                let funded = dev.consume_bundle(iter, (end - t) as u64)? as u32;
                for k in t..t + funded {
                    let off = dev.prepaid_read(*taps, 2 * k).raw() as u16;
                    let (c, ky, kx) = unpack_tap(off, kh, kw);
                    let wq = dev.prepaid_read(*taps, 2 * k + 1);
                    let xq = verified_prepaid(
                        dev,
                        src,
                        (c * h + oy + ky) * w + ox + kx,
                        in_tags,
                        l.region,
                    )?;
                    acc.mac(xq, wq);
                }
                t += funded;
                if t < end {
                    let off = dev.read(*taps, 2 * t)?.raw() as u16;
                    dev.consume(Op::Alu)?; // unpack
                    let (c, ky, kx) = unpack_tap(off, kh, kw);
                    let wq = dev.read(*taps, 2 * t + 1)?;
                    dev.consume(Op::Alu)?; // address
                    let xq = verified_read(
                        dev,
                        src,
                        (c * h + oy + ky) * w + ox + kx,
                        in_tags,
                        l.region,
                    )?;
                    dev.consume(Op::FxpMul)?;
                    dev.consume(Op::FxpAdd)?;
                    acc.mac(xq, wq);
                    dev.consume(Op::Incr)?;
                    dev.consume(Op::Branch)?;
                    t += 1;
                }
            }
        }
        None => {
            let mut pos = 0u32;
            while pos < ntaps {
                let funded = dev.consume_bundle(iter, (ntaps - pos) as u64)? as u32;
                for t in pos..pos + funded {
                    let (c, ky, kx) = unpack_tap(t as u16, kh, kw);
                    let wq = dev.prepaid_read(*weights, f * ntaps + t);
                    let xq = verified_prepaid(
                        dev,
                        src,
                        (c * h + oy + ky) * w + ox + kx,
                        in_tags,
                        l.region,
                    )?;
                    acc.mac(xq, wq);
                }
                pos += funded;
                if pos < ntaps {
                    let (c, ky, kx) = unpack_tap(pos as u16, kh, kw);
                    let wq = dev.read(*weights, f * ntaps + pos)?;
                    dev.consume(Op::Alu)?; // address
                    let xq = verified_read(
                        dev,
                        src,
                        (c * h + oy + ky) * w + ox + kx,
                        in_tags,
                        l.region,
                    )?;
                    dev.consume(Op::FxpMul)?;
                    dev.consume(Op::FxpAdd)?;
                    acc.mac(xq, wq);
                    dev.consume(Op::Incr)?;
                    dev.consume(Op::Branch)?;
                    pos += 1;
                }
            }
        }
    }
    let b = dev.read(*bias, f)?;
    charge_finish(dev)?;
    dev.consume(Op::Alu)?; // embed pack
    dev.write(dst, o, embed(finish_acc(acc, *shift, b), out_tag))
}

/// Computes and writes dense output element `o`; `iter` is the layer's
/// [`fc_sparse_bundle`] or [`mac_bundle`].
fn dense_element(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    o: u32,
    iter: &OpBundle,
    in_tags: &[u16],
    out_tag: u16,
) -> Result<(), PowerFailure> {
    let DeployedKind::Dense {
        dims,
        weights,
        sparse,
        bias,
        shift,
        ..
    } = &l.kind
    else {
        unreachable!("dense_element on non-dense")
    };
    let [_, in_n] = *dims;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);
    let mut acc = Accum::ZERO;
    match sparse {
        Some(SparseFc {
            rows: (row_ptr, entries),
            ..
        }) => {
            let start = dev.read(*row_ptr, o)?.raw() as u16 as u32;
            let end = dev.read(*row_ptr, o + 1)?.raw() as u16 as u32;
            let mut t = start;
            while t < end {
                let funded = dev.consume_bundle(iter, (end - t) as u64)? as u32;
                for k in t..t + funded {
                    let col = dev.prepaid_read(*entries, 2 * k).raw() as u16 as u32;
                    let wq = dev.prepaid_read(*entries, 2 * k + 1);
                    let xq = verified_prepaid(dev, src, col, in_tags, l.region)?;
                    acc.mac(xq, wq);
                }
                t += funded;
                if t < end {
                    let col = dev.read(*entries, 2 * t)?.raw() as u16 as u32;
                    let wq = dev.read(*entries, 2 * t + 1)?;
                    dev.consume(Op::Alu)?;
                    let xq = verified_read(dev, src, col, in_tags, l.region)?;
                    dev.consume(Op::FxpMul)?;
                    dev.consume(Op::FxpAdd)?;
                    acc.mac(xq, wq);
                    dev.consume(Op::Incr)?;
                    dev.consume(Op::Branch)?;
                    t += 1;
                }
            }
        }
        None => {
            let mut i = 0u32;
            while i < in_n {
                let funded = dev.consume_bundle(iter, (in_n - i) as u64)? as u32;
                for k in i..i + funded {
                    let wq = dev.prepaid_read(*weights, o * in_n + k);
                    let xq = verified_prepaid(dev, src, k, in_tags, l.region)?;
                    acc.mac(xq, wq);
                }
                i += funded;
                if i < in_n {
                    let wq = dev.read(*weights, o * in_n + i)?;
                    dev.consume(Op::Alu)?;
                    let xq = verified_read(dev, src, i, in_tags, l.region)?;
                    dev.consume(Op::FxpMul)?;
                    dev.consume(Op::FxpAdd)?;
                    acc.mac(xq, wq);
                    dev.consume(Op::Incr)?;
                    dev.consume(Op::Branch)?;
                    i += 1;
                }
            }
        }
    }
    let b = dev.read(*bias, o)?;
    charge_finish(dev)?;
    dev.consume(Op::Alu)?; // embed pack
    dev.write(dst, o, embed(finish_acc(acc, *shift, b), out_tag))
}

fn pool_pass(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    from: u32,
    total: u32,
    in_tags: &[u16],
    out_tag: u16,
) -> Result<(), PowerFailure> {
    let DeployedKind::Pool { kh, kw } = l.kind else {
        unreachable!("pool_pass on non-pool")
    };
    let [_, h, w] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);
    let iter = pool_bundle(kh, kw);
    let mut o = from;
    while o < total {
        let funded = dev.consume_bundle(&iter, (total - o) as u64)? as u32;
        for k in o..o + funded {
            let ch = k / (oh * ow);
            let oy = (k / ow) % oh;
            let ox = k % ow;
            let mut best = Q15::MIN;
            for py in 0..kh {
                for px in 0..kw {
                    let v = verified_prepaid(
                        dev,
                        src,
                        (ch * h + oy * kh + py) * w + ox * kw + px,
                        in_tags,
                        l.region,
                    )?;
                    if v > best {
                        best = v;
                    }
                }
            }
            dev.prepaid_write(dst, k, embed(best, out_tag));
            dev.mark_progress();
        }
        o += funded;
        if o < total {
            let ch = o / (oh * ow);
            let oy = (o / ow) % oh;
            let ox = o % ow;
            let mut best = Q15::MIN;
            for py in 0..kh {
                for px in 0..kw {
                    dev.consume(Op::Alu)?;
                    let v = verified_read(
                        dev,
                        src,
                        (ch * h + oy * kh + py) * w + ox * kw + px,
                        in_tags,
                        l.region,
                    )?;
                    dev.consume(Op::Branch)?;
                    if v > best {
                        best = v;
                    }
                }
            }
            dev.consume(Op::Alu)?; // embed pack
            dev.write(dst, o, embed(best, out_tag))?;
            dev.consume(Op::Incr)?;
            dev.consume(Op::Branch)?;
            dev.mark_progress();
            o += 1;
        }
    }
    Ok(())
}

fn relu_pass(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    from: u32,
    total: u32,
    in_tags: &[u16],
    out_tag: u16,
) -> Result<(), PowerFailure> {
    let buf = m.buf(l.src);
    let iter = relu_bundle();
    let mut i = from;
    while i < total {
        let funded = dev.consume_bundle(&iter, (total - i) as u64)? as u32;
        for k in i..i + funded {
            let v = verified_prepaid(dev, buf, k, in_tags, l.region)?;
            dev.prepaid_write(buf, k, embed(v.relu(), out_tag));
            dev.mark_progress();
        }
        i += funded;
        if i < total {
            let v = verified_read(dev, buf, i, in_tags, l.region)?;
            dev.consume(Op::Branch)?;
            dev.consume(Op::Alu)?; // embed pack
            dev.write(buf, i, embed(v.relu(), out_tag))?;
            dev.consume(Op::Incr)?;
            dev.consume(Op::Branch)?;
            dev.mark_progress();
            i += 1;
        }
    }
    Ok(())
}

/// Runs pass `pi` from element `from` to completion, embedding `tag`
/// into every word written. Each element write atomically advances the
/// progress frontier the seeker recovers.
fn run_pass(
    dev: &mut Device,
    m: &DeployedModel,
    p: &StatefulPlan,
    pi: usize,
    from: u32,
) -> Result<(), PowerFailure> {
    let pass = &p.passes[pi];
    let l = &m.layers[pass.layer.expect("pass 0 is never executed")];
    dev.set_context(l.region, Phase::Kernel);
    // The MAC bundles are built once per pass, not once per element.
    match &l.kind {
        DeployedKind::Conv { sparse, .. } => {
            let iter = match sparse {
                Some(_) => sparse_mac_bundle(),
                None => mac_bundle(),
            };
            for o in from..pass.len {
                conv_element(dev, m, l, o, &iter, &[pass.in_tag], pass.tag)?;
                dev.mark_progress();
            }
            Ok(())
        }
        DeployedKind::Dense { sparse, .. } => {
            let iter = match sparse {
                Some(_) => fc_sparse_bundle(),
                None => mac_bundle(),
            };
            for o in from..pass.len {
                dense_element(dev, m, l, o, &iter, &[pass.in_tag], pass.tag)?;
                dev.mark_progress();
            }
            Ok(())
        }
        DeployedKind::Pool { .. } => pool_pass(dev, m, l, from, pass.len, &[pass.in_tag], pass.tag),
        // In-place: elements `< from` already carry `tag`, re-reads after
        // a crash accept either tag (relu is idempotent on its output).
        DeployedKind::Relu => relu_pass(
            dev,
            m,
            l,
            from,
            pass.len,
            &[pass.in_tag, pass.tag],
            pass.tag,
        ),
        DeployedKind::Flatten => unreachable!("flatten never gets a pass"),
    }
}

/// The final audit: a charged rescan of the last pass's region. A word
/// invalidated *after* it was written (and so past every verified read)
/// is caught here and recomputed from the layer's intact inputs; the
/// rescan repeats until clean. Detection is noted against the layer's
/// corruption budget, so a repaired run reports `corruption_detected`.
fn audit(dev: &mut Device, m: &DeployedModel, p: &StatefulPlan) -> Result<(), PowerFailure> {
    let pi = p.passes.len() - 1;
    let pass = &p.passes[pi];
    if pass.layer.is_none() {
        return Ok(()); // degenerate model: output is the embedded input
    }
    let l = &m.layers[pass.layer.unwrap()];
    let buf = m.buf(pass.buf);
    let pb = probe_bundle();
    loop {
        dev.set_context(l.region, Phase::Control);
        let mut bad: Option<u32> = None;
        let mut i = 0u32;
        while i < pass.len && bad.is_none() {
            let funded = dev.consume_bundle(&pb, (pass.len - i) as u64)? as u32;
            for k in i..i + funded {
                if !valid_with(dev.prepaid_read(buf, k), pass.tag) {
                    bad = Some(k);
                    break;
                }
            }
            i += funded;
            if bad.is_none() && i < pass.len {
                dev.consume(Op::Alu)?;
                let w = dev.read(buf, i)?;
                dev.consume(Op::Alu)?;
                dev.consume(Op::Branch)?;
                if !valid_with(w, pass.tag) {
                    bad = Some(i);
                }
                i += 1;
            }
        }
        match bad {
            None => return Ok(()),
            Some(k) => {
                if !dev.note_corruption(l.region) {
                    return Err(PowerFailure);
                }
                run_pass(dev, m, p, pi, k)?;
            }
        }
    }
}

/// Builds the stateful inference graph: a single task that seeks, then
/// executes from the recovered frontier, then audits the output.
pub fn build(m: &DeployedModel) -> TaskGraph<()> {
    let m = m.clone();
    let p = plan(&m);
    debug_assert!(
        p.tags_used.iter().all(|&u| u <= MAX_PASSES_PER_BUF),
        "stateful::preflight must gate deployment"
    );
    let mut g = TaskGraph::new();
    g.add("stateful-inference", move |dev, _| {
        if p.passes.len() > 1 {
            let (sp, frontier) = seek(dev, &m, &p)?;
            for pi in sp..p.passes.len() {
                let from = if pi == sp { frontier } else { 0 };
                run_pass(dev, &m, &p, pi, from)?;
            }
            audit(dev, &m, &p)?;
        }
        Ok(Transition::Done)
    });
    g
}
