//! SONIC: software-only neural intermittent computing (paper §6).
//!
//! SONIC "breaks the rules" of task-based intermittent systems: loop
//! indices and loop data are written *directly* to non-volatile memory,
//! with no redo log and no privatization. Three mechanisms make that safe:
//!
//! - **Loop continuation** (§6.2.1): each layer task loads its loop
//!   indices from FRAM on entry and stores the inner index after every
//!   iteration. After a power failure the task resumes *from the last
//!   attempted iteration* — no wasted work, no tiling, no non-termination.
//! - **Loop-ordered buffering** (§6.2.2): convolutions and dense
//!   fully-connected layers are computed filter-element by filter-element
//!   ("tap by tap"), ping-ponging partial sums between two scratch planes.
//!   An iteration reads only the *previous* plane and the inputs, and
//!   writes only the *current* plane, so no location is read and then
//!   written within an iteration — every iteration is idempotent, with no
//!   commits at all. (On a cache-based machine this loop order would be a
//!   locality disaster; the MSP430 has no cache, which SONIC exploits.)
//! - **Sparse undo-logging** (§6.2.2): sparse fully-connected layers
//!   update output activations in place (work proportional to the
//!   nonzeros, not the buffer size). A two-word undo slot (saved value +
//!   iteration tag) written *before* each in-place update makes the
//!   read-modify-write idempotent: on restart, a matching tag means the
//!   update may have landed, so the saved value is restored and the
//!   iteration redone.
//!
//! The non-idempotent hazard in sparse layers is *partial accumulation
//! state*, so the (stage, iteration) pair is packed into a single 16-bit
//! word — FRAM's word-write atomicity then makes every state transition
//! atomic. All other layer-level restarts are idempotent because a layer
//! is a deterministic function of its (unmodified) input buffer.
//!
//! # Bundled accounting
//!
//! Every inner loop is one body run by [`Device::run_bundled`] against a
//! [`Site`] per loop variant (a first or later tap pass, a finishing pass
//! with or without a partial plane), captured by the layer's task
//! closure, so each op bundle is recorded from the body once per graph
//! build. Whole iterations the buffer funds run uncharged with the
//! loop-continuation store and progress beacons landed once per funded
//! run, and the first unfunded iteration runs the same body op by op, so
//! a brown-out lands on exactly the same op with exactly the same partial
//! memory effects as an all-scalar execution. The iterations a
//! loop runs outside any bundle (a sparse layer's column advance, the
//! loop-ordered ablation's entry hits) call the same helpers through
//! [`Device::step`]. The root `bundles` test suite pins bit-identical
//! traces and outputs against digests recorded from the scalar
//! implementation.

use crate::baseline::{self, charge_finish, unpack_tap};
use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel, UNDO_EMPTY};
use dnn::quant::finish_acc;
use fxp::{Accum, Q15};
use intermittent::task::{TaskGraph, Transition};
use mcu::{Device, FramBuf, FramWord, Op, Phase, PowerFailure, Site, Step};

/// Reads a control word under the ECC integrity guard, charging exactly
/// like a plain [`Device::load_word`] when the check bits pass. A read
/// that flags corruption is scrubbed back to its last durable (checked)
/// value and the caller resumes from that checkpoint; corruption that
/// keeps re-flagging (a stuck control cell) exhausts the device's
/// bounded retry budget, after which the run aborts as unrecoverable.
/// Does not touch the accounting context — callers charge the read
/// under whatever (region, phase) is current.
pub(crate) fn load_guarded(
    dev: &mut Device,
    w: mcu::FramWord,
    region: mcu::RegionId,
) -> Result<u16, PowerFailure> {
    let v = dev.load_word(w)?;
    if dev.verify_word(w) {
        return Ok(v);
    }
    if !dev.note_corruption(region) {
        return Err(PowerFailure);
    }
    let fixed = dev
        .guarded_intended(w.addr())
        .expect("a flagged word is guarded");
    // The scrub write is real (metered) work: ECC correction writes the
    // repaired word back through the FRAM controller.
    dev.store_word(w, fixed)?;
    Ok(fixed)
}

/// Reads a control word (loop continuation state) with control-phase
/// accounting, under the ECC integrity guard (see [`load_guarded`]).
pub(crate) fn load_ctl(
    dev: &mut Device,
    w: mcu::FramWord,
    region: mcu::RegionId,
) -> Result<u16, PowerFailure> {
    dev.set_context(region, Phase::Control);
    load_guarded(dev, w, region)
}

/// Writes a control word with control-phase accounting (the FRAM writes
/// to loop indices called out in §9.4 / Fig. 12).
fn store_ctl(
    dev: &mut Device,
    w: mcu::FramWord,
    v: u16,
    region: mcu::RegionId,
) -> Result<(), PowerFailure> {
    dev.set_context(region, Phase::Control);
    dev.store_word(w, v)
}

/// The per-iteration loop-continuation epilogue shared by every SONIC
/// and TAILS loop: checkpoints the next loop index `next` in `ctl` (the
/// control-phase index write), increments and branches; the iteration's
/// progress is then durable.
#[inline(always)]
pub(crate) fn continue_at(s: &mut Step<'_>, ctl: FramWord, next: u16) -> Result<(), PowerFailure> {
    s.checkpoint(ctl, next)?;
    s.op(Op::Incr)?;
    s.op(Op::Branch)?;
    s.progress();
    Ok(())
}

/// Tap metadata resolved once per task entry (held in registers).
struct Tap {
    w: Q15,
    c: u32,
    ky: u32,
    kx: u32,
}

fn read_conv_tap(
    dev: &mut Device,
    weights: FramBuf,
    sparse: &Option<(FramBuf, FramBuf)>,
    dims: [u32; 4],
    f: u32,
    pos: u32,
) -> Result<Tap, PowerFailure> {
    let [_, nc, kh, kw] = dims;
    match sparse {
        Some((row_ptr, taps)) => {
            let start = dev.read(*row_ptr, f)?.raw() as u16 as u32;
            let off = dev.read(*taps, 2 * (start + pos))?.raw() as u16;
            dev.consume(Op::Alu)?;
            let (c, ky, kx) = unpack_tap(off, kh, kw);
            let w = dev.read(*taps, 2 * (start + pos) + 1)?;
            Ok(Tap { w, c, ky, kx })
        }
        None => {
            let (c, ky, kx) = unpack_tap(pos as u16, kh, kw);
            dev.consume(Op::Alu)?;
            let w = dev.read(weights, f * (nc * kh * kw) + pos)?;
            Ok(Tap { w, c, ky, kx })
        }
    }
}

fn conv_ntaps(
    dev: &mut Device,
    sparse: &Option<(FramBuf, FramBuf)>,
    dims: [u32; 4],
    f: u32,
) -> Result<u32, PowerFailure> {
    match sparse {
        Some((row_ptr, _)) => {
            let start = dev.read(*row_ptr, f)?.raw() as u16 as u32;
            let end = dev.read(*row_ptr, f + 1)?.raw() as u16 as u32;
            Ok(end - start)
        }
        None => Ok(dims[1] * dims[2] * dims[3]),
    }
}

/// The shift+bias finishing loop shared (modulo sources) by conv, dense,
/// and sparse-dense layers — SONIC's and TAILS's alike: reads the
/// partial, applies shift+bias, writes the output, checkpoints the index.
///
/// `partial_src`: `Some(plane)` reads `plane[j]`; `None` means a zero
/// partial (fully pruned filter). `per_elem_bias`: per-element bias
/// reads, or the filter-constant `bias_const` read before the loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_pass(
    dev: &mut Device,
    l: &DeployedLayer,
    site: &mut Site,
    ctl: FramWord,
    partial_src: Option<FramBuf>,
    per_elem_bias: Option<FramBuf>,
    bias_const: Q15,
    dst: FramBuf,
    dst_base: u32,
    total: u32,
    shift: i32,
    pack: impl Fn(u32) -> u16,
    j: u32,
) -> Result<(), PowerFailure> {
    dev.set_context(l.region, Phase::Kernel);
    dev.run_bundled(
        site,
        j..total,
        #[inline(always)]
        |s, t| {
            let partial = match partial_src {
                Some(p) => Accum::from_q15(s.read(p, t)?),
                None => Accum::ZERO,
            };
            let b = match per_elem_bias {
                Some(bb) => s.read(bb, t)?,
                None => bias_const,
            };
            charge_finish(s)?;
            s.write(dst, dst_base + t, finish_acc(partial, shift, b))?;
            continue_at(s, ctl, pack(t + 1))
        },
    )
}

/// The rest of a loop-ordered MAC iteration once its product is formed:
/// add the previous partial from `inter` (`None` on the first pass),
/// write the new partial to `dest[t]`, loop continuation.
#[inline(always)]
fn accumulate(
    s: &mut Step<'_>,
    prod: Q15,
    inter: Option<FramBuf>,
    dest: FramBuf,
    t: u32,
    ctl: FramWord,
) -> Result<(), PowerFailure> {
    let v = match inter {
        None => prod,
        Some(inter) => {
            s.op(Op::FxpAdd)?;
            s.read(inter, t)? + prod
        }
    };
    s.write(dest, t, v)?;
    continue_at(s, ctl, (t + 1) as u16)
}

/// The convolution layer task (Listing 1's `Task_Convolve` +
/// `Task_Next_Filter` + the per-filter finishing pass, fused into one
/// self-transitioning task). Sites: the first and later tap passes, and
/// the finishing pass from a partial plane or (a fully pruned filter)
/// from zero.
#[allow(clippy::too_many_lines)]
fn conv_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    [tap_first, tap_rest, finish, finish_zero]: &mut [Site; 4],
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Conv {
        dims,
        weights,
        sparse,
        bias,
        shift,
    } = &l.kind
    else {
        unreachable!("conv_task on non-conv")
    };
    let [nf, _, _, _] = *dims;
    let [_, h, w_in] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let plane = oh * ow;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);

    let f = load_ctl(dev, l.filt, l.region)? as u32;
    dev.consume(Op::Branch)?;
    if f >= nf {
        // Layer complete: reset for the next inference and move on.
        store_ctl(dev, l.filt, 0, l.region)?;
        return Ok(next);
    }

    let pos = load_ctl(dev, l.pos, l.region)? as u32;
    dev.set_context(l.region, Phase::Control);
    let ntaps = conv_ntaps(dev, sparse, *dims, f)?;
    dev.consume(Op::Branch)?;

    if pos >= ntaps {
        // Finishing pass for filter f: shift + bias from the final
        // partial plane into the output buffer. Read and write sets are
        // disjoint, so resuming (or re-running) is idempotent.
        let b = dev.read(*bias, f)?;
        let src_plane = if ntaps == 0 {
            None
        } else {
            Some(if (ntaps - 1) % 2 == 0 {
                m.plane_a
            } else {
                m.plane_b
            })
        };
        let j = load_ctl(dev, l.idx, l.region)? as u32;
        let site = if src_plane.is_some() {
            finish
        } else {
            finish_zero
        };
        finish_pass(
            dev,
            l,
            site,
            l.idx,
            src_plane,
            None,
            b,
            dst,
            f * plane,
            plane,
            *shift,
            |j| j as u16,
            j,
        )?;
        // Advance: idx, pos reset before filt increments; a crash between
        // these re-runs the (idempotent) finishing pass.
        store_ctl(dev, l.idx, 0, l.region)?;
        store_ctl(dev, l.pos, 0, l.region)?;
        store_ctl(dev, l.filt, (f + 1) as u16, l.region)?;
        return Ok(Transition::To(self_id));
    }

    // Apply filter element `pos` across the whole plane (loop-ordered
    // buffering): dest[i] = inter[i] + src[window(i)] * tap, with dest and
    // inter alternating between the scratch planes.
    dev.set_context(l.region, Phase::Control);
    let tap = read_conv_tap(dev, *weights, sparse, *dims, f, pos)?;
    let (dest, inter) = if pos.is_multiple_of(2) {
        (m.plane_a, m.plane_b)
    } else {
        (m.plane_b, m.plane_a)
    };
    let site = if pos == 0 { tap_first } else { tap_rest };

    let i = load_ctl(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    // The input window index advances incrementally (no per-element
    // div/mod): for output (oy, ox) it is row_base + ox with
    // row_base = (c·h + oy + ky)·w_in + kx.
    let mut ox = i % ow;
    let mut row_base = (tap.c * h + i / ow + tap.ky) * w_in + tap.kx;
    let inter = (pos != 0).then_some(inter);
    dev.run_bundled(
        site,
        i..plane,
        #[inline(always)]
        |s, t| {
            s.op(Op::Alu)?;
            let x = s.read(src, row_base + ox)?;
            s.op(Op::FxpMul)?;
            ox += 1;
            if ox == ow {
                ox = 0;
                row_base += w_in;
            }
            accumulate(s, x * tap.w, inter, dest, t, l.idx)
        },
    )?;
    // Next filter element; crash between these stores re-runs this tap,
    // which is idempotent.
    store_ctl(dev, l.idx, 0, l.region)?;
    store_ctl(dev, l.pos, (pos + 1) as u16, l.region)?;
    Ok(Transition::To(self_id))
}

/// Dense fully-connected layers use the same loop-ordered buffering with
/// the input elements as "filter elements". Sites: the first and later
/// input passes, and the finishing pass.
fn dense_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    [first, rest, finish]: &mut [Site; 3],
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Dense {
        dims,
        weights,
        bias,
        shift,
        ..
    } = &l.kind
    else {
        unreachable!("dense_task on non-dense")
    };
    let [out_n, in_n] = *dims;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);

    let j = load_ctl(dev, l.pos, l.region)? as u32;
    dev.consume(Op::Branch)?;
    if j >= in_n {
        // Finishing pass: shift + per-output bias into the output buffer.
        let from = if (in_n - 1) % 2 == 0 {
            m.plane_a
        } else {
            m.plane_b
        };
        let o = load_ctl(dev, l.idx, l.region)? as u32;
        finish_pass(
            dev,
            l,
            finish,
            l.idx,
            Some(from),
            Some(*bias),
            Q15::ZERO,
            dst,
            0,
            out_n,
            *shift,
            |o| o as u16,
            o,
        )?;
        store_ctl(dev, l.idx, 0, l.region)?;
        store_ctl(dev, l.pos, 0, l.region)?;
        return Ok(next);
    }

    // Apply input element j to every output partial.
    dev.set_context(l.region, Phase::Control);
    let x = dev.read(src, j)?;
    let (dest, inter) = if j.is_multiple_of(2) {
        (m.plane_a, m.plane_b)
    } else {
        (m.plane_b, m.plane_a)
    };
    let site = if j == 0 { first } else { rest };

    let o = load_ctl(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    let inter = (j != 0).then_some(inter);
    dev.run_bundled(
        site,
        o..out_n,
        #[inline(always)]
        |s, t| {
            s.op(Op::Alu)?;
            let wq = s.read(*weights, t * in_n + j)?;
            s.op(Op::FxpMul)?;
            accumulate(s, x * wq, inter, dest, t, l.idx)
        },
    )?;
    store_ctl(dev, l.idx, 0, l.region)?;
    store_ctl(dev, l.pos, (j + 1) as u16, l.region)?;
    Ok(Transition::To(self_id))
}

const STAGE_ZERO: u16 = 0;
const STAGE_ACCUM: u16 = 1;
const STAGE_FINISH: u16 = 2;

/// Sparse-FC state machine packed into ONE 16-bit word so every stage
/// transition is a single (atomic) FRAM word write. Range encoding keeps
/// the full u16 range available:
///
/// - `[0, out_n)`               → ZERO pass at index `state`
/// - `[out_n, out_n + nnz]`     → ACCUM at `k = state - out_n`
///   (the `+ nnz` endpoint means "accumulation finished")
/// - `(out_n + nnz, …]`         → FINISH at `state - out_n - nnz - 1`
#[derive(Clone, Copy)]
struct SparseState {
    out_n: u32,
    nnz: u32,
}

impl SparseState {
    fn unpack(self, state: u16) -> (u16, u32) {
        let s = state as u32;
        if s < self.out_n {
            (STAGE_ZERO, s)
        } else if s <= self.out_n + self.nnz {
            (STAGE_ACCUM, s - self.out_n)
        } else {
            (STAGE_FINISH, s - self.out_n - self.nnz - 1)
        }
    }

    fn pack(self, stage: u16, idx: u32) -> u16 {
        let v = match stage {
            STAGE_ZERO => idx,
            STAGE_ACCUM => self.out_n + idx,
            _ => self.out_n + self.nnz + 1 + idx,
        };
        debug_assert!(v <= u16::MAX as u32);
        v as u16
    }
}

/// One undo-logged scatter update of entry `k` from its entry reads on:
/// the two-phase undo log, the MAC, the in-place write, and loop
/// continuation.
#[inline(always)]
fn scatter(
    s: &mut Step<'_>,
    l: &DeployedLayer,
    entries: FramBuf,
    acc_plane: FramBuf,
    x: Q15,
    st: SparseState,
    k: u32,
) -> Result<(), PowerFailure> {
    let o = s.read(entries, 2 * k)?.raw() as u16 as u32;
    let wq = s.read(entries, 2 * k + 1)?;
    let val = s.read(acc_plane, o)?;
    // Two-phase undo log: save value, then tag (word-atomic). This is
    // data buffering, not loop control — it stays in the kernel phase (the
    // paper's Fig. 10 counts Alpaca's analogous dynamic buffering as
    // kernel time).
    s.store_word(l.undo_val, val.raw() as u16)?;
    s.store_word(l.undo_tag, k as u16)?;
    s.op(Op::FxpMul)?;
    s.op(Op::FxpAdd)?;
    s.write(acc_plane, o, val + x * wq)?;
    continue_at(s, l.idx, st.pack(STAGE_ACCUM, k + 1))
}

/// Sparse fully-connected layers: in-place scatter accumulation protected
/// by sparse undo-logging (§6.2.2). Sites: the zero pass, the in-column
/// scatter runs, and the finishing pass.
#[allow(clippy::too_many_lines)]
pub(crate) fn sparse_dense_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    [zero, accum, finish]: &mut [Site; 3],
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Dense {
        dims,
        sparse,
        bias,
        shift,
        ..
    } = &l.kind
    else {
        unreachable!("sparse_dense_task on non-dense")
    };
    let (col_ptr, entries) = &sparse.as_ref().expect("sparse layer").cols;
    let [out_n, in_n] = *dims;
    let nnz = entries.len() / 2;
    let st = SparseState { out_n, nnz };
    assert!(
        nnz + 2 * out_n + 2 <= u16::MAX as u32,
        "sparse layer exceeds the one-word state range"
    );
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);
    let acc_plane = m.plane_a;

    let state = load_ctl(dev, l.idx, l.region)?;
    let (stage, idx) = st.unpack(state);
    dev.consume(Op::Branch)?;

    match stage {
        STAGE_ZERO => {
            // Zero the accumulation plane (idempotent writes of zero).
            dev.set_context(l.region, Phase::Kernel);
            dev.run_bundled(
                zero,
                idx..out_n,
                #[inline(always)]
                |s, t| {
                    s.write(acc_plane, t, Q15::ZERO)?;
                    // Clamp so the zero pass cannot roll into ACCUM before
                    // the column cache (`pos`) is reset below; re-zeroing the
                    // last element on resume is idempotent.
                    continue_at(s, l.idx, st.pack(STAGE_ZERO, (t + 1).min(out_n - 1)))
                },
            )?;
            // Reset the column cache BEFORE the atomic stage transition:
            // ACCUM must never start with a stale (too-advanced) cache.
            store_ctl(dev, l.pos, 0, l.region)?;
            store_ctl(dev, l.idx, st.pack(STAGE_ACCUM, 0), l.region)?;
            Ok(Transition::To(self_id))
        }
        STAGE_ACCUM => {
            let mut k = idx;
            // Undo check: if the saved tag matches the current iteration,
            // the in-place update may have landed — restore and redo.
            let tag = load_ctl(dev, l.undo_tag, l.region)?;
            dev.consume(Op::Branch)?;
            if tag as u32 == k && k < nnz {
                let saved = load_ctl(dev, l.undo_val, l.region)?;
                let o = dev.read(*entries, 2 * k)?.raw() as u16 as u32;
                dev.write(acc_plane, o, Q15::from_raw(saved as i16))?;
            }
            // Recover the cached column; `pos` may lag (it is only a
            // cache), so advance it until it covers k.
            let mut j = load_ctl(dev, l.pos, l.region)? as u32;
            dev.set_context(l.region, Phase::Control);
            while j < in_n && (dev.read(*col_ptr, j + 1)?.raw() as u16 as u32) <= k {
                dev.consume(Op::Incr)?;
                j += 1;
            }
            let mut x = if j < in_n {
                dev.read(src, j)?
            } else {
                Q15::ZERO
            };
            dev.set_context(l.region, Phase::Kernel);
            while k < nnz {
                // Iterations stay in column j until k reaches col_ptr[j+1]
                // (the column-advance loop body never runs for them):
                // bundle that run. The iteration that advances the column
                // runs unbundled.
                let col_end = (dev.peek_at(col_ptr.addr(j + 1)).raw() as u16 as u32).min(nnz);
                if col_end > k {
                    dev.run_bundled(
                        accum,
                        k..col_end,
                        #[inline(always)]
                        |s, t| {
                            s.op(Op::Branch)?;
                            // The column check fails (t is still in-column).
                            let _ = s.read(*col_ptr, j + 1)?;
                            scatter(s, l, *entries, acc_plane, x, st, t)
                        },
                    )?;
                    k = col_end;
                } else {
                    // Column advance (amortized: once per input element):
                    // the loop branch plus the check-read/advance sequence
                    // until the check fails.
                    dev.consume(Op::Branch)?;
                    while (dev.read(*col_ptr, j + 1)?.raw() as u16 as u32) <= k {
                        j += 1;
                        store_ctl(dev, l.pos, j as u16, l.region)?;
                        x = dev.read(src, j)?;
                        dev.set_context(l.region, Phase::Kernel);
                    }
                    scatter(&mut dev.step(), l, *entries, acc_plane, x, st, k)?;
                    k += 1;
                }
            }
            store_ctl(dev, l.idx, st.pack(STAGE_FINISH, 0), l.region)?;
            store_ctl(dev, l.undo_tag, UNDO_EMPTY, l.region)?;
            Ok(Transition::To(self_id))
        }
        _ => {
            // Finish: shift + bias from the accumulation plane into the
            // output buffer (disjoint read/write sets: idempotent).
            finish_pass(
                dev,
                l,
                finish,
                l.idx,
                Some(acc_plane),
                Some(*bias),
                Q15::ZERO,
                dst,
                0,
                out_n,
                *shift,
                |o| st.pack(STAGE_FINISH, o),
                idx,
            )?;
            store_ctl(dev, l.idx, st.pack(STAGE_ZERO, 0), l.region)?;
            store_ctl(dev, l.pos, 0, l.region)?;
            Ok(next)
        }
    }
}

/// One input column's pass of the loop-ordered sparse ablation.
struct ColumnPass {
    first: bool,
    x: Q15,
    inter: FramBuf,
    dest: FramBuf,
    entries: FramBuf,
    end: u32,
    ctl: FramWord,
}

impl ColumnPass {
    /// Output row `o`: carry the previous partial (zero on the first
    /// pass), merge column entry `k` when it hits this row, write, loop
    /// continuation.
    #[inline(always)]
    fn row(&self, s: &mut Step<'_>, k: &mut u32, o: u32) -> Result<(), PowerFailure> {
        let mut v = if self.first {
            Q15::ZERO
        } else {
            s.read(self.inter, o)?
        };
        s.op(Op::Branch)?;
        if *k < self.end {
            let row = s.read(self.entries, 2 * *k)?.raw() as u16 as u32;
            if row == o {
                let wq = s.read(self.entries, 2 * *k + 1)?;
                s.op(Op::FxpMul)?;
                s.op(Op::FxpAdd)?;
                v += self.x * wq;
                *k += 1;
            }
        }
        s.write(self.dest, o, v)?;
        continue_at(s, self.ctl, (o + 1) as u16)
    }
}

/// The §6.2.2 counterfactual: a sparse FC computed with plain
/// loop-ordered buffering instead of sparse undo-logging. Each input
/// column pass copies the *entire* partial output plane between the
/// scratch buffers — "most of its time and energy copying unmodified
/// activations between buffers" — which is exactly the waste sparse
/// undo-logging exists to eliminate. Kept as an ablation. Sites: the
/// pass-through rows of the first and later columns, each with entries
/// left to check or drained, and the finishing pass.
#[allow(clippy::too_many_lines)]
fn sparse_dense_loop_ordered_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    [pass_first, pass_rest, drain_first, drain_rest, finish]: &mut [Site; 5],
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Dense {
        dims,
        sparse,
        bias,
        shift,
        ..
    } = &l.kind
    else {
        unreachable!("sparse_dense_loop_ordered_task on non-dense")
    };
    let (col_ptr, entries) = &sparse.as_ref().expect("sparse layer").cols;
    let [out_n, in_n] = *dims;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);

    let j = load_ctl(dev, l.pos, l.region)? as u32;
    dev.consume(Op::Branch)?;
    if j >= in_n {
        // Finishing pass, identical to the dense layer's.
        let from = if (in_n - 1) % 2 == 0 {
            m.plane_a
        } else {
            m.plane_b
        };
        let o = load_ctl(dev, l.idx, l.region)? as u32;
        finish_pass(
            dev,
            l,
            finish,
            l.idx,
            Some(from),
            Some(*bias),
            Q15::ZERO,
            dst,
            0,
            out_n,
            *shift,
            |o| o as u16,
            o,
        )?;
        store_ctl(dev, l.idx, 0, l.region)?;
        store_ctl(dev, l.pos, 0, l.region)?;
        return Ok(next);
    }

    // Pass for input column j: dest[o] = inter[o] (+ column entries that
    // hit o). Column entries are sorted by output row, so a volatile
    // cursor recovered on task entry merges them in one sweep.
    dev.set_context(l.region, Phase::Control);
    let x = dev.read(src, j)?;
    let (start, end) = (
        dev.read(*col_ptr, j)?.raw() as u16 as u32,
        dev.read(*col_ptr, j + 1)?.raw() as u16 as u32,
    );
    let (dest, inter) = if j.is_multiple_of(2) {
        (m.plane_a, m.plane_b)
    } else {
        (m.plane_b, m.plane_a)
    };
    let mut o = load_ctl(dev, l.idx, l.region)? as u32;
    // Recover the entry cursor: count entries with row < o.
    let mut k = start;
    while k < end {
        dev.consume(Op::Branch)?;
        if (dev.read(*entries, 2 * k)?.raw() as u16 as u32) >= o {
            break;
        }
        k += 1;
    }
    // Pass-through iterations (no entry hits this row). Two variants:
    // while entries remain, each iteration reads the next entry's row for
    // the hit check; after the last entry, it does not.
    let (pass_site, drain_site) = if j == 0 {
        (pass_first, drain_first)
    } else {
        (pass_rest, drain_rest)
    };

    let pass = ColumnPass {
        first: j == 0,
        x,
        inter,
        dest,
        entries: *entries,
        end,
        ctl: l.idx,
    };
    dev.set_context(l.region, Phase::Kernel);
    while o < out_n {
        // Rows up to the next entry hit (or the end) are pass-throughs.
        let (site, run_end) = if k < end {
            let row = dev.peek_at(entries.addr(2 * k)).raw() as u16 as u32;
            (&mut *pass_site, row.min(out_n))
        } else {
            (&mut *drain_site, out_n)
        };
        if run_end > o {
            dev.run_bundled(
                site,
                o..run_end,
                #[inline(always)]
                |s, t| pass.row(s, &mut k, t),
            )?;
            o = run_end;
        } else {
            // Entry hit: the full iteration including the MAC, unbundled.
            pass.row(&mut dev.step(), &mut k, o)?;
            o += 1;
        }
    }
    store_ctl(dev, l.idx, 0, l.region)?;
    store_ctl(dev, l.pos, (j + 1) as u16, l.region)?;
    Ok(Transition::To(self_id))
}

/// Pool layer with loop continuation (write-only destination).
pub(crate) fn pool_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    site: &mut Site,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let from = load_ctl(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    let [c, _, _] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let (src, dst) = (m.buf(l.src), m.buf(l.dst));
    dev.run_bundled(
        site,
        from..c * oh * ow,
        #[inline(always)]
        |s, o| {
            let best = baseline::pool_window(s, l, o, |s, i| s.read(src, i))?;
            s.write(dst, o, best)?;
            continue_at(s, l.idx, (o + 1) as u16)
        },
    )?;
    store_ctl(dev, l.idx, 0, l.region)?;
    Ok(next)
}

/// ReLU with loop continuation; in-place is safe because ReLU is
/// idempotent.
pub(crate) fn relu_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    site: &mut Site,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let [c, h, w] = l.in_shape;
    let buf = m.buf(l.src);
    let total = c * h * w;
    let i = load_ctl(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    dev.run_bundled(
        site,
        i..total,
        #[inline(always)]
        |s, t| {
            let v = s.read(buf, t)?;
            s.op(Op::Branch)?;
            s.write(buf, t, v.relu())?;
            continue_at(s, l.idx, (t + 1) as u16)
        },
    )?;
    store_ctl(dev, l.idx, 0, l.region)?;
    Ok(next)
}

/// Builds the SONIC task graph: one self-transitioning task per layer,
/// each capturing its loops' [`Site`]s. `undo_log` picks the sparse-FC
/// task: sparse undo-logging (the paper's design), or — the §6.2.2
/// ablation, [`crate::exec::Backend::SonicNoUndo`] — plain loop-ordered
/// buffering, which wastes energy copying unmodified activations.
pub fn build(m: &DeployedModel, undo_log: bool) -> TaskGraph<()> {
    let mut g: TaskGraph<()> = TaskGraph::new();
    let n = m.layers.len();
    for (li, l) in m.layers.iter().enumerate() {
        let self_id = li;
        let next = if li + 1 < n {
            Transition::To(li + 1)
        } else {
            Transition::Done
        };
        let name = format!("sonic-{}", layer_name(l));
        let m = m.clone();
        // Each task captures its own sites, so every loop variant records
        // its bundle once per graph build.
        match &l.kind {
            DeployedKind::Conv { .. } => {
                let mut sites = Default::default();
                g.add(&name, move |dev, _| {
                    conv_task(dev, &m, &m.layers[li], &mut sites, self_id, next)
                });
            }
            DeployedKind::Dense { sparse, .. } if sparse.is_some() && undo_log => {
                let mut sites = Default::default();
                g.add(&name, move |dev, _| {
                    sparse_dense_task(dev, &m, &m.layers[li], &mut sites, self_id, next)
                });
            }
            DeployedKind::Dense { sparse, .. } if sparse.is_some() => {
                let mut sites = Default::default();
                g.add(&name, move |dev, _| {
                    sparse_dense_loop_ordered_task(
                        dev,
                        &m,
                        &m.layers[li],
                        &mut sites,
                        self_id,
                        next,
                    )
                });
            }
            DeployedKind::Dense { .. } => {
                let mut sites = Default::default();
                g.add(&name, move |dev, _| {
                    dense_task(dev, &m, &m.layers[li], &mut sites, self_id, next)
                });
            }
            DeployedKind::Pool { .. } => {
                let mut site = Site::default();
                g.add(&name, move |dev, _| {
                    pool_task(dev, &m, &m.layers[li], &mut site, next)
                });
            }
            DeployedKind::Relu => {
                let mut site = Site::default();
                g.add(&name, move |dev, _| {
                    relu_task(dev, &m, &m.layers[li], &mut site, next)
                });
            }
            DeployedKind::Flatten => {
                g.add(&name, move |_, _| Ok(next));
            }
        }
    }
    if n == 0 {
        g.add("sonic-empty", |_, _| Ok(Transition::Done));
    }
    g
}

fn layer_name(l: &DeployedLayer) -> &'static str {
    match l.kind {
        DeployedKind::Conv { .. } => "conv",
        DeployedKind::Dense { .. } => "dense",
        DeployedKind::Pool { .. } => "pool",
        DeployedKind::Relu => "relu",
        DeployedKind::Flatten => "flatten",
    }
}
