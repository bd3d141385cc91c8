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
//! memory effects as an all-scalar execution.
//!
//! The sparse loops take one of a few op sequences per iteration and run
//! under [`Device::run_shaped`], one [`Site`] per shape. A sparse layer's
//! whole ACCUM stage is one driver call per task entry: the column
//! advance is part of the scatter body, and a predictor peeks `col_ptr`
//! in FRAM to tell an iteration that stays in its column from one that
//! advances exactly one column (one that skips empty columns runs in
//! scalar mode), so funded runs cross column boundaries. The undo slot
//! and the column cache (`pos`) are last-value stores
//! ([`Step::store_last`]): a funded run lands each once. The
//! loop-ordered ablation runs each column pass as one call, its rows
//! shaped as pass-through, drained pass-through, or entry hit. The root
//! `bundles` test suite pins bit-identical traces and outputs against
//! digests recorded from the scalar implementation, and this module's
//! tests pin a sparse FC with empty and single-entry columns against the
//! column-at-a-time loop it replaced.

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
    s.store_last(l.undo_val, val.raw() as u16)?;
    s.store_last(l.undo_tag, k as u16)?;
    s.op(Op::FxpMul)?;
    s.op(Op::FxpAdd)?;
    s.write(acc_plane, o, val + x * wq)?;
    continue_at(s, l.idx, st.pack(STAGE_ACCUM, k + 1))
}

/// Sparse fully-connected layers: in-place scatter accumulation protected
/// by sparse undo-logging (§6.2.2). Sites: the zero pass, the two scatter
/// shapes (stay in the column, advance exactly one column), and the
/// finishing pass.
#[allow(clippy::too_many_lines)]
pub(crate) fn sparse_dense_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    (zero, accum, finish): &mut (Site, [Site; 2], Site),
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
            let k = idx;
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
            // Every iteration runs the loop branch and the column-advance
            // loop — read `col_ptr[j+1]`, and while it does not exceed k
            // move to the next column (cache it in `pos`, read its input)
            // — then the scatter. The advance loop runs zero times (stay
            // in the column), once, or more (empty columns skipped: a
            // sequence of variable length, always run in scalar mode).
            let col_end =
                |dev: &Device, j: u32| dev.peek_at(col_ptr.addr(j + 1)).raw() as u16 as u32;
            dev.run_shaped(
                accum,
                k..nnz,
                &mut j,
                #[inline(always)]
                |dev, j, k| {
                    if col_end(dev, *j) > k {
                        return Some(0);
                    }
                    *j += 1;
                    (col_end(dev, *j) > k).then_some(1)
                },
                #[inline(always)]
                |s, j, k| {
                    s.op(Op::Branch)?;
                    while (s.read(*col_ptr, *j + 1)?.raw() as u16 as u32) <= k {
                        *j += 1;
                        s.set_context(l.region, Phase::Control);
                        s.store_last(l.pos, *j as u16)?;
                        x = s.read(src, *j)?;
                        s.set_context(l.region, Phase::Kernel);
                    }
                    scatter(s, l, *entries, acc_plane, x, st, k)
                },
            )?;
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

/// The shapes of a column-pass row, each with its own [`Site`].
const PASS: usize = 0;
const DRAIN: usize = 1;
const HIT: usize = 2;

impl ColumnPass {
    /// The shape of row `o` with the entry cursor at `k`, advancing the
    /// cursor past a hit: a pass-through that checks the next entry's row,
    /// a pass-through after the last entry, or an entry hit.
    #[inline(always)]
    fn shape(&self, dev: &Device, k: &mut u32, o: u32) -> usize {
        if *k >= self.end {
            return DRAIN;
        }
        if dev.peek_at(self.entries.addr(2 * *k)).raw() as u16 as u32 != o {
            return PASS;
        }
        *k += 1;
        HIT
    }

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
/// undo-logging exists to eliminate. Kept as an ablation. Sites: the three
/// row shapes (pass-through, drained pass-through, entry hit) of the first
/// and of later columns, and the finishing pass.
fn sparse_dense_loop_ordered_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    (columns, finish): &mut ([[Site; 3]; 2], Site),
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
    let o = load_ctl(dev, l.idx, l.region)? as u32;
    // Recover the entry cursor: count entries with row < o.
    let mut k = start;
    while k < end {
        dev.consume(Op::Branch)?;
        if (dev.read(*entries, 2 * k)?.raw() as u16 as u32) >= o {
            break;
        }
        k += 1;
    }
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
    dev.run_shaped(
        &mut columns[usize::from(j != 0)],
        o..out_n,
        &mut k,
        #[inline(always)]
        |dev, k, o| Some(pass.shape(dev, k, o)),
        #[inline(always)]
        |s, k, o| pass.row(s, k, o),
    )?;
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

#[cfg(test)]
pub(crate) mod tests {
    //! A pruned sparse FC with every column shape the ACCUM loop meets —
    //! an empty first column, two consecutive empty columns, an empty
    //! last column, single-entry columns — pinned for SONIC, TAILS and
    //! the loop-ordered ablation against digests recorded from the
    //! column-at-a-time implementation this loop replaced.
    //!
    //! Regenerate (after an *intentional* accounting change) with:
    //! `GOLDEN_PRINT=1 cargo test -p sonic gappy -- --nocapture`

    use super::*;
    use crate::deploy::deploy;
    use crate::exec::{run_deployed_observed, Backend, InferenceOutcome, TailsConfig};
    use crate::spec::{
        abs_model, check_corruption, check_exhaustive, fault_free_reference, LayerAbs, SparseAbs,
    };
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::{quantize, QModel};
    use dnn::tensor::Tensor;
    use mcu::{DeviceSpec, FaultKind, FaultPlan, PowerSystem};
    use rand::SeedableRng;

    /// The kept output rows of each input column of the fixture's FC.
    const COLUMNS: [&[usize]; 12] = [
        &[],
        &[0, 2, 5],
        &[1, 3],
        &[],
        &[],
        &[0, 1, 2, 3, 4, 5],
        &[4],
        &[2, 5],
        &[0, 3],
        &[1],
        &[0, 4, 5],
        &[],
    ];
    const IN: usize = COLUMNS.len();
    const OUT: usize = 6;

    /// The fixture: the gappy sparse FC, then a ReLU.
    fn gappy_fc() -> (QModel, Vec<Q15>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut model = Model::new(vec![Layer::dense(IN, OUT, &mut rng), Layer::relu()]);
        let mut mask = Tensor::zeros(vec![OUT, IN]);
        if let Layer::Dense(d) = &mut model.layers_mut()[0] {
            // Weights well away from zero, so quantization keeps every
            // kept entry.
            for (i, w) in d.w.data_mut().iter_mut().enumerate() {
                let mag = 0.15 + 0.1 * (i % 4) as f32;
                *w = if i % 3 == 0 { -mag } else { mag };
            }
        }
        for (c, rows) in COLUMNS.iter().enumerate() {
            for &r in *rows {
                mask.data_mut()[r * IN + c] = 1.0;
            }
        }
        model.layers_mut()[0].set_mask(mask);
        let shape = [IN];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
        let input = qm.quantize_input(&x);
        (qm, input)
    }

    fn backends() -> [Backend; 3] {
        [
            Backend::Sonic,
            Backend::Tails(TailsConfig::default()),
            Backend::SonicNoUndo,
        ]
    }

    fn msp() -> DeviceSpec {
        DeviceSpec::msp430fr5994()
    }

    /// Folds `x` into the FNV-1a digest `h`.
    pub(crate) fn fnv(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// Folds the allocated FRAM (everything below the break) into `h`.
    pub(crate) fn fold_fram(h: &mut u64, dev: &Device) {
        let brk = dev.alloc_watermarks().0 as usize;
        for &w in &dev.fram_image()[..brk] {
            fnv(h, u64::from(w as u16));
        }
    }

    /// Every bit-relevant field of an outcome, the full per-region trace
    /// included.
    pub(crate) fn fold_outcome(h: &mut u64, o: &InferenceOutcome) {
        fnv(h, u64::from(o.completed));
        for q in &o.output {
            fnv(h, u64::from(q.raw() as u16));
        }
        fold_report(h, &o.trace);
        if let Some(s) = &o.stats {
            fnv(h, s.transitions);
            fnv(h, s.body_attempts);
            fnv(h, s.reboots);
        }
        if let Some(f) = &o.failure {
            for b in f.error.to_string().as_bytes() {
                fnv(h, u64::from(*b));
            }
        }
        fnv(h, o.corruption_detected);
    }

    /// Every bit-relevant field of a trace report, per region.
    pub(crate) fn fold_report(h: &mut u64, t: &mcu::TraceReport) {
        fnv(h, t.live_cycles);
        fnv(h, t.dead_secs.to_bits());
        fnv(h, t.reboots);
        fnv(h, t.total_energy_pj);
        for r in &t.regions {
            for b in r.name.as_bytes() {
                fnv(h, u64::from(*b));
            }
            fnv(h, r.kernel_cycles);
            fnv(h, r.control_cycles);
            fnv(h, r.kernel_energy_pj);
            fnv(h, r.control_energy_pj);
            fnv(h, r.index_write_energy_pj);
            for (op, e) in &r.energy_by_op {
                fnv(h, op.index() as u64);
                fnv(h, *e);
            }
        }
    }

    /// One run of the fixture with `faults` armed (inference-relative op
    /// indices): the outcome, the FRAM image and op index at every
    /// brown-out, and the final FRAM image.
    fn run_digest(backend: &Backend, power: PowerSystem, faults: &[(u64, FaultKind)]) -> u64 {
        let (qm, input) = gappy_fc();
        let mut dev = Device::new(msp(), power);
        let dm = deploy(&mut dev, &qm).expect("fits");
        dm.load_input(&mut dev, &input);
        let base = dev.ops_consumed();
        dev.arm_faults(&FaultPlan::faults(
            faults.iter().map(|&(t, k)| (base + t, k)),
        ));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let out = run_deployed_observed(&mut dev, &dm, backend, |dev, _, _| {
            fnv(&mut h, dev.ops_consumed() - base);
            fold_fram(&mut h, dev);
        });
        fold_outcome(&mut h, &out);
        fnv(&mut h, dev.ops_consumed() - base);
        fold_fram(&mut h, &dev);
        h
    }

    /// Two op indices inside the sparse layer's accumulation (the ACCUM
    /// stage, or the ablation's column passes), per backend.
    fn accum_points(backend: &Backend) -> [u64; 2] {
        match backend {
            Backend::Sonic => [120, 250],
            Backend::SonicNoUndo => [250, 500],
            _ => [150, 280],
        }
    }

    /// The sparse layer's state when a lone brown-out lands at `t`.
    fn crash_state(backend: &Backend, t: u64) -> LayerAbs {
        let (qm, input) = gappy_fc();
        let mut dev = Device::new(msp(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).expect("fits");
        dm.load_input(&mut dev, &input);
        dev.arm_faults(&FaultPlan::at(dev.ops_consumed() + t));
        let mut state = None;
        run_deployed_observed(&mut dev, &dm, backend, |dev, _, _| {
            state.get_or_insert(abs_model(dev, &dm, backend).expect("refines")[0]);
        });
        state.expect("the brown-out fired")
    }

    /// A pinned scenario: name, power system, armed faults.
    type Scenario = (String, PowerSystem, Vec<(u64, FaultKind)>);

    /// The pinned scenarios.
    fn scenarios(backend: &Backend) -> Vec<Scenario> {
        let (qm, input) = gappy_fc();
        let mut dev = Device::new(msp(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).expect("fits");
        dm.load_input(&mut dev, &input);
        let l = &dm.layers[0];
        let [t1, t2] = accum_points(backend);
        let flip = |w: FramWord, bit| FaultKind::BitFlip {
            addr: w.addr(),
            bit,
        };
        let bo = FaultKind::Brownout;
        vec![
            ("Cont".into(), PowerSystem::continuous(), vec![]),
            ("100uF".into(), PowerSystem::harvested(100e-6), vec![]),
            ("brownout".into(), PowerSystem::continuous(), vec![(t2, bo)]),
            (
                "pos-flip".into(),
                PowerSystem::continuous(),
                vec![(t1, flip(l.pos, 1))],
            ),
            (
                "pos-flip+brownout".into(),
                PowerSystem::continuous(),
                vec![(t1, flip(l.pos, 1)), (t1 + 1, bo)],
            ),
            (
                "tag-flip".into(),
                PowerSystem::continuous(),
                vec![(t1, flip(l.undo_tag, 0))],
            ),
            (
                "tag-flip+brownout".into(),
                PowerSystem::continuous(),
                vec![(t1, flip(l.undo_tag, 2)), (t1 + 1, bo)],
            ),
        ]
    }

    fn golden_print() -> bool {
        std::env::var("GOLDEN_PRINT").is_ok()
    }

    #[test]
    fn gappy_fixture_deploys_its_column_shapes() {
        let (qm, input) = gappy_fc();
        let mut dev = Device::new(msp(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).expect("fits");
        dm.load_input(&mut dev, &input);
        let DeployedKind::Dense {
            sparse: Some(sp), ..
        } = &dm.layers[0].kind
        else {
            panic!("the FC must deploy sparse")
        };
        let ptr = dev.peek(sp.cols.0);
        let lens: Vec<usize> = ptr
            .windows(2)
            .map(|w| (w[1].raw() - w[0].raw()) as usize)
            .collect();
        let want: Vec<usize> = COLUMNS.iter().map(|c| c.len()).collect();
        assert_eq!(lens, want);
    }

    #[test]
    fn gappy_fault_points_land_in_the_accumulation() {
        let nnz: u32 = COLUMNS.iter().map(|c| c.len() as u32).sum();
        for b in backends() {
            for t in accum_points(&b) {
                let s = crash_state(&b, t);
                let inside = match s {
                    LayerAbs::Sparse(SparseAbs::Accum { k, .. }) => k > 0 && k < nnz,
                    LayerAbs::Dense { col, .. } => col > 0 && (col as usize) < IN - 1,
                    _ => false,
                };
                assert!(inside, "{} @{t}: {s:?}", b.label());
            }
        }
    }

    /// Digests recorded from the column-at-a-time ACCUM loop, scenario
    /// order: backend-major (see `backends` and `scenarios`).
    const GOLDEN: &[u64] = &[
        0xfd0a72e7d45e1dd7, // SONIC/Cont
        0xfd0a72e7d45e1dd7, // SONIC/100uF
        0x6deb8babd765764b, // SONIC/brownout
        0xfd0a72e7d45e1dd7, // SONIC/pos-flip
        0xb07bb78b15e71429, // SONIC/pos-flip+brownout
        0xfd0a72e7d45e1dd7, // SONIC/tag-flip
        0x11c4c72de8d492eb, // SONIC/tag-flip+brownout
        0xc48a7295a08aa0f9, // TAILS/Cont
        0xc48a7295a08aa0f9, // TAILS/100uF
        0x5f0a4f7a68367d47, // TAILS/brownout
        0xc48a7295a08aa0f9, // TAILS/pos-flip
        0x66bd5f6004fd4aeb, // TAILS/pos-flip+brownout
        0xc48a7295a08aa0f9, // TAILS/tag-flip
        0x10a80de5e1d99845, // TAILS/tag-flip+brownout
        0xd59cfa45f4274f4e, // SONIC-no-undo/Cont
        0xd59cfa45f4274f4e, // SONIC-no-undo/100uF
        0x11cf4e88ba1c482b, // SONIC-no-undo/brownout
        0xd59cfa45f4274f4e, // SONIC-no-undo/pos-flip
        0x506cbb824ff52802, // SONIC-no-undo/pos-flip+brownout
        0x57341cd8ab30c60f, // SONIC-no-undo/tag-flip
        0xf36f266cd1ed08f1, // SONIC-no-undo/tag-flip+brownout
    ];

    #[test]
    fn gappy_fc_digests_match_the_column_at_a_time_record() {
        let mut got = Vec::new();
        for b in backends() {
            for (name, power, faults) in scenarios(&b) {
                got.push((
                    format!("{}/{name}", b.label()),
                    run_digest(&b, power, &faults),
                ));
            }
        }
        if golden_print() {
            for (name, d) in &got {
                println!("        {d:#018x}, // {name}");
            }
            return;
        }
        assert_eq!(got.len(), GOLDEN.len(), "scenario list changed");
        for ((name, d), g) in got.iter().zip(GOLDEN) {
            assert_eq!(d, g, "{name}: digest diverged");
        }
    }

    /// Per backend, the digests of a lone brown-out at every op boundary
    /// of the fault-free run, folded: every crash's FRAM image, the
    /// recovered trace and output.
    const GOLDEN_SWEEP: &[u64] = &[
        0x516f4136ed0dc1aa, // SONIC/420
        0x14990671db000034, // TAILS/450
        0x08630f949a69c61a, // SONIC-no-undo/742
    ];

    #[test]
    fn gappy_fc_every_brownout_boundary_matches_the_record() {
        let (qm, input) = gappy_fc();
        let mut got = Vec::new();
        for b in backends() {
            let (_, ops) = fault_free_reference(&qm, &input, &msp(), &b);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for t in 0..ops {
                fnv(
                    &mut h,
                    run_digest(&b, PowerSystem::continuous(), &[(t, FaultKind::Brownout)]),
                );
            }
            got.push((format!("{}/{ops}", b.label()), h));
        }
        if golden_print() {
            for (name, d) in &got {
                println!("        {d:#018x}, // {name}");
            }
            return;
        }
        assert_eq!(got.len(), GOLDEN_SWEEP.len(), "backend list changed");
        for ((name, d), g) in got.iter().zip(GOLDEN_SWEEP) {
            assert_eq!(d, g, "{name}: sweep digest diverged");
        }
    }

    #[test]
    fn gappy_fc_exhaustive_sweep_is_clean() {
        let (qm, input) = gappy_fc();
        for b in backends() {
            let report = check_exhaustive(&qm, &input, &msp(), &b);
            assert!(report.boundaries > 100, "{}: sweep too small", b.label());
            report.assert_clean();
        }
    }

    #[test]
    fn gappy_fc_corruption_sweep_has_no_silent_wrong() {
        let (qm, input) = gappy_fc();
        for b in backends() {
            let report = check_corruption(&qm, &input, &msp(), &b, 3);
            assert!(report.flips > 0);
            report.assert_no_silent_wrong();
        }
    }
}
