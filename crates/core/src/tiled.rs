//! Prior state of the art: Alpaca task-tiling (`Tile-N`, §6.2, Fig. 6).
//!
//! The same loop-ordered computation as SONIC, but expressed the way a
//! task-based intermittent system requires: every loop index and every
//! written activation is *task-shared* state that goes through the redo
//! log ([`intermittent::alpaca::AlpacaRt`]), each task executes at most
//! `N` loop iterations, and the log is committed at every transition.
//! Partial accumulation happens **in place** (`a[i] += b·c`, Fig. 6's
//! loop) — safe only because the log defers the writes — so there is no
//! double buffering, but every access pays lookup/append/commit costs,
//! and a power failure wastes the whole current tile.
//!
//! A tile that needs more energy than the device buffers never completes:
//! with large `N` (Tile-128) the scheduler reports non-termination on
//! small capacitors, exactly as in the paper's Fig. 9.
//!
//! # Taped accounting
//!
//! An Alpaca task body has no durable side effects before commit — its
//! writes privatize into the host-side redo log, which a body-time power
//! failure discards. Each body therefore runs host-side through a
//! [`mcu::Taped`] handle and settles its charge once, at its end
//! ([`mcu::Device::run_tape`]): one funded charge when the buffer covers
//! it, otherwise an op-by-op replay, so a brown-out charges exactly the
//! scalar prefix and a shortfall stays a body failure. The body's
//! accesses are the runtime's own ([`AlpacaRt::ts_read`],
//! [`AlpacaRt::ts_write`]), which take the handle and record their ops
//! on it. Every inner loop iteration runs at a [`Site`] of the
//! layer's, one per shape: whether the iteration's log write appends or
//! updates, which the body names from the log before the iteration
//! runs. The sparse FC's column walk adds two one-shape steps: the
//! column check that opens each nonzero, and each advance to the next
//! column. A shape's first iteration records its bundle; every later one
//! records one repeat of it (and, in debug builds, is checked against
//! it). Each layer's closure owns its sites, so they persist from body to
//! body.
//!
//! The commit that follows each body (the flag raise, the fixed
//! bookkeeping, the walk writing every home location, the transition
//! and the flag lower) settles in one funded charge through
//! `AlpacaRt`'s [`intermittent::task::RuntimeCtx::commit_transition`]
//! whenever nothing can interrupt it; otherwise it runs op by op, its
//! walk a [`mcu::Device::run_bundled`] loop whose bundle is recorded
//! from the walk's body.

use crate::baseline::unpack_tap;
use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel};
use dnn::quant::finish_acc;
use fxp::{Accum, Q15};
use intermittent::alpaca::AlpacaRt;
use intermittent::task::{TaskGraph, Transition};
use mcu::{FramBuf, Iteration, NvAddr, Op, Phase, PowerFailure, Site, Taped};

const ST_ZERO: u16 = 0;
const ST_ACCUM: u16 = 1;
const ST_FINISH: u16 = 2;

/// A layer's iteration shapes, each a [`Site`]. The first three are
/// pairs, indexed from there by whether the iteration's log write
/// appends: ZERO clears one accumulator word; BODY is the main loop
/// (conv/dense accumulate, ReLU, pool, or the update that ends one
/// sparse-FC nonzero); FINISH shifts and biases one accumulator into the
/// output.
const ZERO: usize = 0;
const BODY: usize = 2;
const FINISH: usize = 4;
/// Sparse FC, per nonzero: the column check, then one advance per column
/// the walk moves on, then BODY.
const HEAD: usize = 6;
const ADVANCE: usize = 7;
const SHAPES: usize = 8;

/// One iteration of a loop whose log write lands at `addr`, at `pair`'s
/// update or append shape: `body`, then the index bump and loop test.
#[inline(always)]
fn iterate(
    t: &mut Taped<'_>,
    rt: &mut AlpacaRt,
    pair: usize,
    addr: NvAddr,
    body: impl FnOnce(&mut Iteration<'_>, &mut AlpacaRt) -> Result<(), PowerFailure>,
) -> Result<(), PowerFailure> {
    t.iterate(
        pair + usize::from(rt.appends(addr)),
        #[inline(always)]
        |t| {
            body(t, rt)?;
            t.op(Op::Incr)?;
            t.op(Op::Branch)
        },
    )
}

/// FINISH's work for one output: the accumulator, then
/// `charge_finish`'s shift and bias add, into the output.
#[inline(always)]
fn finish(
    t: &mut Iteration<'_>,
    rt: &mut AlpacaRt,
    partial: NvAddr,
    bias: FramBuf,
    b_idx: u32,
    shift: i32,
    out: NvAddr,
) -> Result<(), PowerFailure> {
    let partial = Accum::from_q15(rt.ts_read(t, partial)?);
    let b = t.read(bias, b_idx)?;
    t.op(Op::Alu)?;
    t.op(Op::FxpAdd)?;
    rt.ts_write(t, out, finish_acc(partial, shift, b))
}

/// Budget-bounded stage driver shared by conv and dense layers.
///
/// Returns `To(self)` while work remains, `next` when the layer is done.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn accum_layer_tiled(
    t: &mut Taped<'_>,
    rt: &mut AlpacaRt,
    m: &DeployedModel,
    l: &DeployedLayer,
    self_id: usize,
    next: Transition,
    tile: u32,
    is_conv: bool,
) -> Result<Transition, PowerFailure> {
    // Layer geometry.
    let (nf, ntaps_dense, plane): (u32, u32, u32) = match &l.kind {
        DeployedKind::Conv { dims, .. } => (
            dims[0],
            dims[1] * dims[2] * dims[3],
            l.out_shape[1] * l.out_shape[2],
        ),
        DeployedKind::Dense { dims, .. } => (1, dims[1], dims[0]),
        _ => unreachable!("accum layer on non-accum kind"),
    };
    let acc = m.plane_a;
    let dst = m.buf(l.dst);
    let src = m.buf(l.src);

    let mut budget = tile;
    let mut stage = rt.ts_load_word(t, l.undo_tag.addr())?;
    if stage > ST_FINISH {
        stage = ST_ZERO; // deploy initializes the word to UNDO_EMPTY
    }
    let mut f = u32::from(rt.ts_load_word(t, l.filt.addr())?);
    t.op(Op::Branch)?;

    while budget > 0 {
        match stage {
            ST_ZERO => {
                let mut i = u32::from(rt.ts_load_word(t, l.idx.addr())?);
                while i < plane && budget > 0 {
                    let a = acc.addr(i);
                    iterate(
                        t,
                        rt,
                        ZERO,
                        a,
                        #[inline(always)]
                        |t, rt| rt.ts_write(t, a, Q15::ZERO),
                    )?;
                    i += 1;
                    budget -= 1;
                }
                rt.ts_store_word(t, l.idx.addr(), i as u16)?;
                if i >= plane {
                    rt.ts_store_word(t, l.idx.addr(), 0)?;
                    rt.ts_store_word(t, l.pos.addr(), 0)?;
                    rt.ts_store_word(t, l.undo_tag.addr(), ST_ACCUM)?;
                    stage = ST_ACCUM;
                }
            }
            ST_ACCUM => {
                let ntaps = match &l.kind {
                    DeployedKind::Conv {
                        sparse: Some((row_ptr, _)),
                        ..
                    } => {
                        let s = t.read(*row_ptr, f)?.raw() as u16 as u32;
                        let e = t.read(*row_ptr, f + 1)?.raw() as u16 as u32;
                        e - s
                    }
                    _ => ntaps_dense,
                };
                let mut pos = u32::from(rt.ts_load_word(t, l.pos.addr())?);
                t.op(Op::Branch)?;
                if pos >= ntaps {
                    rt.ts_store_word(t, l.idx.addr(), 0)?;
                    rt.ts_store_word(t, l.undo_tag.addr(), ST_FINISH)?;
                    stage = ST_FINISH;
                    continue;
                }
                let mut i = u32::from(rt.ts_load_word(t, l.idx.addr())?);
                // Resolve the tap (read-only metadata: direct reads).
                match &l.kind {
                    DeployedKind::Conv {
                        dims,
                        weights,
                        sparse,
                        ..
                    } => {
                        let [_, _, kh, kw] = *dims;
                        let [_, h, w_in] = l.in_shape;
                        let ow = l.out_shape[2];
                        let (wq, c, ky, kx) = match sparse {
                            Some((row_ptr, taps)) => {
                                let s = t.read(*row_ptr, f)?.raw() as u16 as u32;
                                let off = t.read(*taps, 2 * (s + pos))?.raw() as u16;
                                t.op(Op::Alu)?;
                                let (c, ky, kx) = unpack_tap(off, kh, kw);
                                (t.read(*taps, 2 * (s + pos) + 1)?, c, ky, kx)
                            }
                            None => {
                                let (c, ky, kx) = unpack_tap(pos as u16, kh, kw);
                                t.op(Op::Alu)?;
                                (t.read(*weights, f * ntaps_dense + pos)?, c, ky, kx)
                            }
                        };
                        // Incremental window index (no per-iteration
                        // div/mod): row_base + ox tracks
                        // (c·h + oy + ky)·w_in + ox + kx.
                        let mut ox = i % ow;
                        let mut row_base = (c * h + i / ow + ky) * w_in + kx;
                        while i < plane && budget > 0 {
                            // Activations are task-shared: reads go through
                            // the log-presence check. In-place accumulate
                            // through the redo log.
                            let (a, x_at) = (acc.addr(i), src.addr(row_base + ox));
                            iterate(
                                t,
                                rt,
                                BODY,
                                a,
                                #[inline(always)]
                                |t, rt| {
                                    t.op(Op::Alu)?;
                                    let x = rt.ts_read(t, x_at)?;
                                    t.op(Op::FxpMul)?;
                                    t.op(Op::FxpAdd)?;
                                    let cur = rt.ts_read(t, a)?;
                                    rt.ts_write(t, a, cur + x * wq)
                                },
                            )?;
                            i += 1;
                            budget -= 1;
                            ox += 1;
                            if ox == ow {
                                ox = 0;
                                row_base += w_in;
                            }
                        }
                    }
                    DeployedKind::Dense { dims, weights, .. } => {
                        let in_n = dims[1];
                        let x = rt.ts_read(t, src.addr(pos))?;
                        while i < plane && budget > 0 {
                            let a = acc.addr(i);
                            iterate(
                                t,
                                rt,
                                BODY,
                                a,
                                #[inline(always)]
                                |t, rt| {
                                    t.op(Op::Alu)?;
                                    let wq = t.read(*weights, i * in_n + pos)?;
                                    t.op(Op::FxpMul)?;
                                    t.op(Op::FxpAdd)?;
                                    let cur = rt.ts_read(t, a)?;
                                    rt.ts_write(t, a, cur + x * wq)
                                },
                            )?;
                            i += 1;
                            budget -= 1;
                        }
                    }
                    _ => unreachable!(),
                }
                if i >= plane {
                    pos += 1;
                    rt.ts_store_word(t, l.idx.addr(), 0)?;
                    rt.ts_store_word(t, l.pos.addr(), pos as u16)?;
                } else {
                    rt.ts_store_word(t, l.idx.addr(), i as u16)?;
                }
            }
            _ => {
                // FINISH: shift + bias into the output buffer.
                let (bias, shift) = match &l.kind {
                    DeployedKind::Conv { bias, shift, .. } => (*bias, *shift),
                    DeployedKind::Dense { bias, shift, .. } => (*bias, *shift),
                    _ => unreachable!(),
                };
                let mut i = u32::from(rt.ts_load_word(t, l.idx.addr())?);
                while i < plane && budget > 0 {
                    let b_idx = if is_conv { f } else { i };
                    let out = dst.addr(if is_conv { f * plane + i } else { i });
                    iterate(
                        t,
                        rt,
                        FINISH,
                        out,
                        #[inline(always)]
                        |t, rt| finish(t, rt, acc.addr(i), bias, b_idx, shift, out),
                    )?;
                    i += 1;
                    budget -= 1;
                }
                if i >= plane {
                    f += 1;
                    rt.ts_store_word(t, l.idx.addr(), 0)?;
                    t.op(Op::Branch)?;
                    if f >= nf {
                        // Layer done: reset everything for the next
                        // inference and move on.
                        rt.ts_store_word(t, l.filt.addr(), 0)?;
                        rt.ts_store_word(t, l.pos.addr(), 0)?;
                        rt.ts_store_word(t, l.undo_tag.addr(), ST_ZERO)?;
                        return Ok(next);
                    }
                    rt.ts_store_word(t, l.filt.addr(), f as u16)?;
                    rt.ts_store_word(t, l.undo_tag.addr(), ST_ZERO)?;
                    stage = ST_ZERO;
                } else {
                    rt.ts_store_word(t, l.idx.addr(), i as u16)?;
                }
            }
        }
    }
    Ok(Transition::To(self_id))
}

/// Sparse FC under Alpaca: the in-place scatter with every access logged.
#[allow(clippy::too_many_arguments)]
fn sparse_dense_tiled(
    t: &mut Taped<'_>,
    rt: &mut AlpacaRt,
    m: &DeployedModel,
    l: &DeployedLayer,
    self_id: usize,
    next: Transition,
    tile: u32,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Dense {
        dims,
        sparse,
        bias,
        shift,
        ..
    } = &l.kind
    else {
        unreachable!("sparse dense on non-dense")
    };
    let (col_ptr, entries) = sparse.as_ref().expect("sparse layer").cols;
    let [out_n, _in_n] = *dims;
    let nnz = entries.len() / 2;
    let acc = m.plane_a;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);

    let mut budget = tile;
    let mut stage = rt.ts_load_word(t, l.undo_tag.addr())?;
    if stage > ST_FINISH {
        stage = ST_ZERO; // deploy initializes the word to UNDO_EMPTY
    }
    t.op(Op::Branch)?;
    Ok(match stage {
        ST_ZERO => {
            let mut i = u32::from(rt.ts_load_word(t, l.idx.addr())?);
            while i < out_n && budget > 0 {
                let a = acc.addr(i);
                iterate(
                    t,
                    rt,
                    ZERO,
                    a,
                    #[inline(always)]
                    |t, rt| rt.ts_write(t, a, Q15::ZERO),
                )?;
                i += 1;
                budget -= 1;
            }
            if i >= out_n {
                rt.ts_store_word(t, l.idx.addr(), 0)?;
                rt.ts_store_word(t, l.pos.addr(), 0)?;
                rt.ts_store_word(t, l.undo_tag.addr(), ST_ACCUM)?;
            } else {
                rt.ts_store_word(t, l.idx.addr(), i as u16)?;
            }
            Transition::To(self_id)
        }
        ST_ACCUM => {
            let mut k = u32::from(rt.ts_load_word(t, l.idx.addr())?);
            let mut j = u32::from(rt.ts_load_word(t, l.pos.addr())?);
            let mut x = rt.ts_read(t, src.addr(j.min(dims[1] - 1)))?;
            while k < nnz && budget > 0 {
                // The loop test and the column-pointer check, then per
                // column moved on: the next column's activation and the
                // check again.
                let mut end = t.iterate(
                    HEAD,
                    #[inline(always)]
                    |t| {
                        t.op(Op::Branch)?;
                        t.read(col_ptr, j + 1)
                    },
                )?;
                while (end.raw() as u16 as u32) <= k {
                    end = t.iterate(
                        ADVANCE,
                        #[inline(always)]
                        |t| {
                            t.op(Op::Incr)?;
                            j += 1;
                            x = rt.ts_read(t, src.addr(j))?;
                            t.read(col_ptr, j + 1)
                        },
                    )?;
                }
                // Entry row + weight reads, then the in-place accumulate.
                let a = acc.addr(t.peek_at(entries.addr(2 * k)).raw() as u16 as u32);
                iterate(
                    t,
                    rt,
                    BODY,
                    a,
                    #[inline(always)]
                    |t, rt| {
                        let a = acc.addr(t.read(entries, 2 * k)?.raw() as u16 as u32);
                        let wq = t.read(entries, 2 * k + 1)?;
                        t.op(Op::FxpMul)?;
                        t.op(Op::FxpAdd)?;
                        let cur = rt.ts_read(t, a)?;
                        rt.ts_write(t, a, cur + x * wq)
                    },
                )?;
                k += 1;
                budget -= 1;
            }
            rt.ts_store_word(t, l.pos.addr(), j as u16)?;
            if k >= nnz {
                rt.ts_store_word(t, l.idx.addr(), 0)?;
                rt.ts_store_word(t, l.undo_tag.addr(), ST_FINISH)?;
            } else {
                rt.ts_store_word(t, l.idx.addr(), k as u16)?;
            }
            Transition::To(self_id)
        }
        _ => {
            let mut o = u32::from(rt.ts_load_word(t, l.idx.addr())?);
            while o < out_n && budget > 0 {
                let out = dst.addr(o);
                iterate(
                    t,
                    rt,
                    FINISH,
                    out,
                    #[inline(always)]
                    |t, rt| finish(t, rt, acc.addr(o), *bias, o, *shift, out),
                )?;
                o += 1;
                budget -= 1;
            }
            if o >= out_n {
                rt.ts_store_word(t, l.idx.addr(), 0)?;
                rt.ts_store_word(t, l.pos.addr(), 0)?;
                rt.ts_store_word(t, l.undo_tag.addr(), ST_ZERO)?;
                next
            } else {
                rt.ts_store_word(t, l.idx.addr(), o as u16)?;
                Transition::To(self_id)
            }
        }
    })
}

/// Pool/ReLU under Alpaca: tiled loops with logged writes.
fn map_layer_tiled(
    t: &mut Taped<'_>,
    rt: &mut AlpacaRt,
    m: &DeployedModel,
    l: &DeployedLayer,
    self_id: usize,
    next: Transition,
    tile: u32,
) -> Result<Transition, PowerFailure> {
    let mut budget = tile;
    let mut i = u32::from(rt.ts_load_word(t, l.idx.addr())?);
    let total = match l.kind {
        DeployedKind::Pool { kh, kw } => {
            let [c, h, w] = l.in_shape;
            let [_, oh, ow] = l.out_shape;
            let src = m.buf(l.src);
            let dst = m.buf(l.dst);
            while i < c * oh * ow && budget > 0 {
                let ch = i / (oh * ow);
                let oy = (i / ow) % oh;
                let ox = i % ow;
                iterate(
                    t,
                    rt,
                    BODY,
                    dst.addr(i),
                    #[inline(always)]
                    |t, rt| {
                        let mut best = Q15::MIN;
                        for py in 0..kh {
                            for px in 0..kw {
                                t.op(Op::Alu)?;
                                let v = t.read(src, (ch * h + oy * kh + py) * w + ox * kw + px)?;
                                t.op(Op::Branch)?;
                                best = best.max(v);
                            }
                        }
                        rt.ts_write(t, dst.addr(i), best)
                    },
                )?;
                i += 1;
                budget -= 1;
            }
            c * oh * ow
        }
        DeployedKind::Relu => {
            let [c, h, w] = l.in_shape;
            let buf = m.buf(l.src);
            while i < c * h * w && budget > 0 {
                // Read-then-write of the same location: both sides go
                // through the log (the WAR pair Alpaca exists for).
                let a = buf.addr(i);
                iterate(
                    t,
                    rt,
                    BODY,
                    a,
                    #[inline(always)]
                    |t, rt| {
                        let v = rt.ts_read(t, a)?;
                        t.op(Op::Branch)?;
                        rt.ts_write(t, a, v.relu())
                    },
                )?;
                i += 1;
                budget -= 1;
            }
            c * h * w
        }
        DeployedKind::Flatten => return Ok(next),
        _ => unreachable!("map layer on accum kind"),
    };
    if i >= total {
        rt.ts_store_word(t, l.idx.addr(), 0)?;
        Ok(next)
    } else {
        rt.ts_store_word(t, l.idx.addr(), i as u16)?;
        Ok(Transition::To(self_id))
    }
}

/// Builds the Tile-`N` task graph over the Alpaca runtime.
pub fn build(m: &DeployedModel, tile: u32) -> TaskGraph<AlpacaRt> {
    assert!(tile > 0, "tile must be positive");
    let mut g: TaskGraph<AlpacaRt> = TaskGraph::new();
    let n = m.layers.len();
    for li in 0..n {
        let self_id = li;
        let next = if li + 1 < n {
            Transition::To(li + 1)
        } else {
            Transition::Done
        };
        let m = m.clone();
        let name = format!("tile{tile}-layer{li}");
        // The layer's iteration shapes, recorded once and kept from body
        // to body.
        let mut sites: [Site; SHAPES] = Default::default();
        g.add(&name, move |dev, rt| {
            let l = &m.layers[li];
            dev.set_context(l.region, Phase::Kernel);
            dev.run_tape(&mut sites, |t| match &l.kind {
                DeployedKind::Conv { .. } => {
                    accum_layer_tiled(t, rt, &m, l, self_id, next, tile, true)
                }
                DeployedKind::Dense {
                    sparse: Some(_), ..
                } => sparse_dense_tiled(t, rt, &m, l, self_id, next, tile),
                DeployedKind::Dense { .. } => {
                    accum_layer_tiled(t, rt, &m, l, self_id, next, tile, false)
                }
                _ => map_layer_tiled(t, rt, &m, l, self_id, next, tile),
            })
        });
    }
    if n == 0 {
        g.add("tiled-empty", |_, _| Ok(Transition::Done));
    }
    g
}

#[cfg(test)]
mod tests {
    //! A tiny CNN — conv, ReLU, pool, a pruned (sparse) FC, a dense FC —
    //! under Tile-4 and Tile-8, pinned against digests recorded from the
    //! op-by-op commit sequence: continuous power, 100 µF, bit flips of
    //! the commit flag, a poisoned redo-log entry, and a lone brown-out
    //! at every op boundary of one whole transition (a body's tape, the
    //! commit prologue, the walk, the task transition and the flag
    //! lower).
    //!
    //! Regenerate (after an *intentional* accounting change) with:
    //! `GOLDEN_PRINT=1 cargo test -p sonic tiled::tests -- --nocapture`

    use super::*;
    use crate::deploy::deploy;
    use crate::exec::tests_support::tiny_cnn;
    use crate::sonic::tests::{fnv, fold_fram, fold_report};
    use intermittent::sched::{run_observed, SchedulerConfig};
    use mcu::{Device, DeviceSpec, FaultKind, FaultPlan, PowerSystem};
    use std::sync::{Arc, Mutex};

    fn msp() -> DeviceSpec {
        DeviceSpec::msp430fr5994()
    }

    /// What one fixture run injects: faults armed at inference-relative
    /// op indices, and optionally a poisoned log entry (`(c, k)`: entry
    /// `k` of the log that body attempt `c`, counted from 1, leaves for
    /// its commit).
    #[derive(Default)]
    struct Inject {
        faults: Vec<(u64, FaultKind)>,
        poison: Option<(u64, usize)>,
    }

    /// One fixture run through the scheduler (as `exec` runs Tile-N),
    /// folding the op index and FRAM image at every crash, then the
    /// result, the trace, the output and the final FRAM. Also returns
    /// the inference-relative op index at which each body attempt began.
    fn run_tiled(tile: u32, power: PowerSystem, inject: &Inject) -> (u64, Vec<u64>) {
        let (qm, input) = tiny_cnn();
        let mut dev = Device::new(msp(), power);
        let dm = deploy(&mut dev, &qm).expect("fits");
        dm.load_input(&mut dev, &input);
        dev.begin_epoch();
        dev.reset_corruption_stats();
        let base = dev.ops_consumed();
        dev.arm_faults(&FaultPlan::faults(
            inject.faults.iter().map(|&(t, k)| (base + t, k)),
        ));
        let mut rt = AlpacaRt::new(&mut dev).expect("FRAM for the commit flag");
        // Each task of the built graph, wrapped to note where its body
        // starts and to poison the log before the chosen commit.
        let inner = Arc::new(Mutex::new(build(&dm, tile)));
        let starts = Arc::new(Mutex::new(Vec::new()));
        let mut g: TaskGraph<AlpacaRt> = TaskGraph::new();
        let tasks = inner.lock().unwrap().len();
        for id in 0..tasks {
            let (inner, starts, poison) = (Arc::clone(&inner), Arc::clone(&starts), inject.poison);
            let name = inner.lock().unwrap().name(id).to_string();
            g.add(&name, move |dev, rt| {
                starts.lock().unwrap().push(dev.ops_consumed() - base);
                let t = inner.lock().unwrap().run_body(id, dev, rt)?;
                if let Some((c, k)) = poison {
                    if starts.lock().unwrap().len() as u64 == c {
                        rt.poison_log_entry(k);
                    }
                }
                Ok(t)
            });
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let cfg = SchedulerConfig::task_based();
        let r = run_observed(&mut g, &mut rt, &mut dev, 0, &cfg, |dev, rt, ev| {
            fnv(&mut h, dev.ops_consumed() - base);
            fnv(&mut h, u64::from(ev.mid_commit));
            fnv(&mut h, u64::from(rt.flag_lower_pending()));
            fold_fram(&mut h, dev);
        });
        match &r {
            Ok(s) => {
                fnv(&mut h, s.transitions);
                fnv(&mut h, s.body_attempts);
                fnv(&mut h, s.reboots);
                for q in dm.read_output(&dev) {
                    fnv(&mut h, u64::from(q.raw() as u16));
                }
            }
            Err(e) => {
                for b in e.to_string().as_bytes() {
                    fnv(&mut h, u64::from(*b));
                }
            }
        }
        fold_report(&mut h, &dev.epoch_report());
        fnv(&mut h, dev.corruption_detected());
        fnv(&mut h, dev.ops_consumed() - base);
        fold_fram(&mut h, &dev);
        let starts = starts.lock().unwrap().clone();
        (h, starts)
    }

    /// The body attempt whose transition the brown-out window spans: a
    /// mid-run conv task, whose log holds a tile of accumulator entries
    /// plus its control words.
    const WINDOW_TASK: usize = 9;

    /// The brown-out window of a fault-free continuous run: from the
    /// start of body `WINDOW_TASK`'s tape to the first op of the next
    /// body's, inclusive.
    fn window(tile: u32) -> std::ops::Range<u64> {
        let (_, starts) = run_tiled(tile, PowerSystem::continuous(), &Inject::default());
        starts[WINDOW_TASK]..starts[WINDOW_TASK + 1] + 1
    }

    /// Three op indices in the window's transition: inside the body's
    /// tape, inside the commit's fixed prologue, and at the home write
    /// of the walk's last entry. The window ends with the 1,571-op
    /// prologue, the walk's entries (five ops each), the transition, the
    /// flag lower and the next body's first op, so these hold while the
    /// body's log has fewer than 39 entries.
    fn fault_points(tile: u32) -> [u64; 3] {
        let w = window(tile);
        [w.start + 20, w.end - 200, w.end - 6]
    }

    /// Where a lone brown-out at `t` lands: whether mid-commit, and the
    /// op and phase it hit.
    fn crash_at(tile: u32, t: u64) -> (bool, Op, Phase) {
        let (qm, input) = tiny_cnn();
        let mut dev = Device::new(msp(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).expect("fits");
        dm.load_input(&mut dev, &input);
        dev.arm_faults(&FaultPlan::at(dev.ops_consumed() + t));
        let mut rt = AlpacaRt::new(&mut dev).expect("FRAM for the commit flag");
        let mut g = build(&dm, tile);
        let mut hit = None;
        let cfg = SchedulerConfig::task_based();
        run_observed(&mut g, &mut rt, &mut dev, 0, &cfg, |dev, _, ev| {
            let b = dev.last_brownout().expect("a brown-out");
            hit.get_or_insert((ev.mid_commit, b.op, b.phase));
        })
        .expect("recovers");
        hit.expect("the brown-out fired")
    }

    #[test]
    fn tiled_fixture_fault_points_land_where_named() {
        for tile in TILES {
            let w = window(tile);
            let [t_body, t_pro, t_walk] = fault_points(tile);
            let (mid_commit, _, phase) = crash_at(tile, t_body);
            assert_eq!((mid_commit, phase), (false, Phase::Kernel));
            assert_eq!(crash_at(tile, t_pro), (true, Op::Alu, Phase::Control));
            assert_eq!(
                crash_at(tile, t_walk),
                (true, Op::FramWrite, Phase::Control)
            );
            assert_eq!(
                crash_at(tile, w.end - 3),
                (true, Op::TaskTransition, Phase::Control)
            );
            // The flag lower's brown-out is swallowed: the next body fails
            // on a dead device, reporting the lower as the brown-out.
            assert_eq!(
                crash_at(tile, w.end - 2),
                (false, Op::FramWrite, Phase::Control)
            );
            assert!(!crash_at(tile, w.end - 1).0, "the next body's first op");
        }
    }

    /// The pinned scenarios of one tile size.
    fn scenarios(tile: u32) -> Vec<(String, PowerSystem, Inject)> {
        let (qm, _) = tiny_cnn();
        let mut dev = Device::new(msp(), PowerSystem::continuous());
        deploy(&mut dev, &qm).expect("fits");
        // `AlpacaRt::new` allocates the commit flag at the FRAM break.
        let flag = mcu::NvAddr::word(dev.alloc_watermarks().0);
        let [t_body, t_pro, t_walk] = fault_points(tile);
        let flip = |t, bit| (t, FaultKind::BitFlip { addr: flag, bit });
        let bo = FaultKind::Brownout;
        let cont = PowerSystem::continuous;
        let inj = |faults: Vec<(u64, FaultKind)>| Inject {
            faults,
            poison: None,
        };
        vec![
            ("Cont".into(), cont(), Inject::default()),
            (
                "100uF".into(),
                PowerSystem::harvested(100e-6),
                Inject::default(),
            ),
            ("flag-flip-body".into(), cont(), inj(vec![flip(t_body, 0)])),
            (
                "flag-flip-prologue".into(),
                cont(),
                inj(vec![flip(t_pro, 0)]),
            ),
            ("flag-flip-walk".into(), cont(), inj(vec![flip(t_walk, 3)])),
            (
                "flag-flip+brownout".into(),
                cont(),
                inj(vec![flip(t_body, 0), (t_body + 1, bo)]),
            ),
            (
                "flag-flip-prologue+brownout".into(),
                cont(),
                inj(vec![flip(t_pro, 0), (t_walk, bo)]),
            ),
            (
                "flag-flip-walk+brownout".into(),
                cont(),
                inj(vec![flip(t_walk, 3), (t_walk + 1, bo)]),
            ),
            (
                "poison".into(),
                cont(),
                Inject {
                    faults: vec![],
                    poison: Some((WINDOW_TASK as u64 + 1, 1)),
                },
            ),
            (
                "poison-100uF".into(),
                PowerSystem::harvested(100e-6),
                Inject {
                    faults: vec![],
                    poison: Some((WINDOW_TASK as u64 + 1, 0)),
                },
            ),
        ]
    }

    fn golden_print() -> bool {
        std::env::var("GOLDEN_PRINT").is_ok()
    }

    const TILES: [u32; 2] = [4, 8];

    #[test]
    fn tiled_fixture_digests_match_the_ordered_commit_record() {
        let mut got = Vec::new();
        for tile in TILES {
            for (name, power, inject) in scenarios(tile) {
                got.push((
                    format!("Tile-{tile}/{name}"),
                    run_tiled(tile, power, &inject).0,
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

    /// Digests recorded from the op-by-op commit sequence, tile-major.
    const GOLDEN: &[u64] = &[
        0x88512bbcca3902c5, // Tile-4/Cont
        0x10a8ce587664ef3f, // Tile-4/100uF
        0x4d24f1f20c6047f0, // Tile-4/flag-flip-body
        0x88512bbcca3902c5, // Tile-4/flag-flip-prologue
        0x88512bbcca3902c5, // Tile-4/flag-flip-walk
        0x6fa65344cadb6564, // Tile-4/flag-flip+brownout
        0xe15f5d43f9b826c6, // Tile-4/flag-flip-prologue+brownout
        0x21dc8d1b4c83a0e6, // Tile-4/flag-flip-walk+brownout
        0x8dacd2effd88be2f, // Tile-4/poison
        0x22a5e0a08503e121, // Tile-4/poison-100uF
        0x88db211eac2b5f67, // Tile-8/Cont
        0xef1d0bb4dd233885, // Tile-8/100uF
        0xa27f920f90a12f36, // Tile-8/flag-flip-body
        0x88db211eac2b5f67, // Tile-8/flag-flip-prologue
        0x88db211eac2b5f67, // Tile-8/flag-flip-walk
        0xa26afd1a82a384f5, // Tile-8/flag-flip+brownout
        0xf940772a5fb1c176, // Tile-8/flag-flip-prologue+brownout
        0x8359cf8503f6e870, // Tile-8/flag-flip-walk+brownout
        0x06425f918cd98a58, // Tile-8/poison
        0x279c1e68c169e76a, // Tile-8/poison-100uF
    ];

    #[test]
    fn tiled_fixture_every_brownout_in_a_transition_matches_the_record() {
        let mut got = Vec::new();
        for tile in TILES {
            let w = window(tile);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for t in w.clone() {
                let inject = Inject {
                    faults: vec![(t, FaultKind::Brownout)],
                    poison: None,
                };
                fnv(
                    &mut h,
                    run_tiled(tile, PowerSystem::continuous(), &inject).0,
                );
            }
            got.push((format!("Tile-{tile}/{}..{}", w.start, w.end), h));
        }
        if golden_print() {
            for (name, d) in &got {
                println!("        {d:#018x}, // {name}");
            }
            return;
        }
        assert_eq!(got.len(), GOLDEN_SWEEP.len(), "tile list changed");
        for ((name, d), g) in got.iter().zip(GOLDEN_SWEEP) {
            assert_eq!(d, g, "{name}: sweep digest diverged");
        }
    }

    /// Per tile size, the folded digests of a lone brown-out at every op
    /// boundary of the window.
    const GOLDEN_SWEEP: &[u64] = &[
        0x0407c6e5ac24eb81, // Tile-4/15882..17674
        0xbddf3411e45af056, // Tile-8/17422..19400
    ];
}
