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
//! failure discards. The bodies therefore execute host-side while
//! *recording* the exact op sequence they would have consumed onto an
//! [`mcu::OpTape`], and the graph closure settles the tape in one step
//! ([`mcu::Device::consume_tape`]) — replaying it op by op only when the
//! buffer cannot cover it, so a brown-out charges exactly the scalar
//! prefix. Every inner loop (zero, conv/dense accumulate, finish, ReLU,
//! pool, and the sparse-FC column walk's pieces) has a fixed
//! per-iteration sequence whose only variable is whether the iteration's
//! log write appends or updates an entry, so each layer builds its
//! iteration bundles once per graph (`LayerPatterns`) and a loop
//! records one pattern repeat per iteration. The per-body control-word
//! loads and stores record repeats of the runtime's read and write
//! patterns, and the few remaining ops record single-op runs. Each
//! layer's closure owns its tape, so capacity and registered patterns
//! persist from body to body. The commit walk itself (which *does* write
//! home locations) is a [`mcu::Device::run_bundled`] loop inside
//! `AlpacaRt::commit`, whose bundle is recorded from the walk's body.
//! The tape patterns cannot be recorded that way — a taped body runs
//! host-side and never charges the device — so `LayerPatterns` and
//! `AlpacaRt::read_ops`/`write_ops` stay written by hand.

use crate::baseline::unpack_tap;
use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel};
use dnn::quant::finish_acc;
use fxp::{Accum, Q15};
use intermittent::alpaca::AlpacaRt;
use intermittent::task::{TaskGraph, Transition};
use mcu::{Device, FramBuf, Op, OpBundle, OpTape, Phase, PowerFailure};
use std::sync::Arc;

const ST_ZERO: u16 = 0;
const ST_ACCUM: u16 = 1;
const ST_FINISH: u16 = 2;

/// A loop's iteration patterns, indexed by whether the iteration's
/// task-shared write appended a log entry (`[update, append]`).
type WritePair = [Arc<OpBundle>; 2];

/// One step of an iteration pattern: a kernel-phase op, or one
/// task-shared read or write through the redo log.
#[derive(Clone, Copy)]
enum Step {
    K(Op),
    Read,
    Write,
}

/// Builds one iteration pattern; its `Write` step appends when `append`.
fn pattern(steps: &[Step], append: bool) -> Arc<OpBundle> {
    let mut b = OpBundle::new();
    for &step in steps {
        match step {
            Step::K(op) => b.push(op, Phase::Kernel),
            Step::Read => AlpacaRt::read_ops(&mut b),
            Step::Write => AlpacaRt::write_ops(&mut b, append),
        }
    }
    Arc::new(b)
}

fn write_pair(steps: &[Step]) -> WritePair {
    [false, true].map(|append| pattern(steps, append))
}

/// One layer's iteration patterns, built once per graph.
struct LayerPatterns {
    /// ZERO: clear one accumulator word.
    zero: WritePair,
    /// The main loop: conv/dense accumulate, ReLU, pool, or the update
    /// that ends one sparse-FC nonzero.
    body: WritePair,
    /// FINISH: shift + bias one accumulator into the output.
    finish: WritePair,
    /// Sparse FC, per nonzero: `head`, then `advance` once per column
    /// skipped, then `body`.
    head: Arc<OpBundle>,
    advance: Arc<OpBundle>,
}

impl LayerPatterns {
    fn new(l: &DeployedLayer) -> Self {
        use Op::{Alu, Branch, FramRead, FxpAdd, FxpMul, Incr};
        use Step::{Read, Write, K};
        // Every loop iteration ends with the index bump and loop test.
        let with_loop = |mut steps: Vec<Step>| {
            steps.extend([K(Incr), K(Branch)]);
            write_pair(&steps)
        };
        let body = match &l.kind {
            // Entry row + weight reads, then the in-place accumulate.
            DeployedKind::Dense {
                sparse: Some(_), ..
            } => vec![K(FramRead), K(FramRead), K(FxpMul), K(FxpAdd), Read, Write],
            // Conv activations are task-shared and read through the log.
            DeployedKind::Conv { .. } => vec![K(Alu), Read, K(FxpMul), K(FxpAdd), Read, Write],
            DeployedKind::Dense { .. } => {
                vec![K(Alu), K(FramRead), K(FxpMul), K(FxpAdd), Read, Write]
            }
            DeployedKind::Pool { kh, kw } => {
                let mut steps = [K(Alu), K(FramRead), K(Branch)].repeat((kh * kw) as usize);
                steps.push(Write);
                steps
            }
            // ReLU (Flatten never iterates): the WAR pair Alpaca exists for.
            _ => vec![Read, K(Branch), Write],
        };
        LayerPatterns {
            zero: with_loop(vec![Write]),
            body: with_loop(body),
            // Accumulator, bias, then charge_finish's shift and bias add.
            finish: with_loop(vec![Read, K(FramRead), K(Alu), K(FxpAdd), Write]),
            // Loop test, then the column-pointer check.
            head: pattern(&[K(Branch), K(FramRead)], false),
            // The next column's activation, then the check again.
            advance: pattern(&[K(Incr), Read, K(FramRead)], false),
        }
    }
}

/// Taped read of read-only metadata (weights, pointers) outside a
/// patterned loop: recorded as one FRAM read, value fetched host-side.
#[inline]
fn read_t(dev: &Device, tape: &mut OpTape, buf: FramBuf, i: u32) -> Q15 {
    tape.push(Op::FramRead, Phase::Kernel);
    dev.prepaid_read(buf, i)
}

#[inline]
fn op_t(tape: &mut OpTape, op: Op) {
    tape.push(op, Phase::Kernel);
}

/// Taped task-shared read of an activation outside a patterned loop.
#[inline]
fn load_t(
    dev: &mut Device,
    rt: &mut AlpacaRt,
    tape: &mut OpTape,
    addr: mcu::NvAddr,
) -> Result<Q15, PowerFailure> {
    Ok(Q15::from_raw(rt.ts_load_word_taped(dev, tape, addr)? as i16))
}

/// Privatizes one iteration's write and records the iteration.
#[inline]
fn iterate(rt: &mut AlpacaRt, tape: &mut OpTape, pair: &WritePair, addr: mcu::NvAddr, v: Q15) {
    let append = rt.privatize(addr, v);
    tape.repeat(&pair[append as usize], 1);
}

/// Budget-bounded stage driver shared by conv and dense layers.
///
/// Returns `To(self)` while work remains, `next` when the layer is done.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn accum_layer_tiled(
    dev: &mut Device,
    rt: &mut AlpacaRt,
    tape: &mut OpTape,
    pats: &LayerPatterns,
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

    dev.set_context(l.region, Phase::Kernel);
    let mut budget = tile;
    let mut stage = rt.ts_load_word_taped(dev, tape, l.undo_tag.addr())?;
    if stage > ST_FINISH {
        stage = ST_ZERO; // deploy initializes the word to UNDO_EMPTY
    }
    let mut f = rt.ts_load_word_taped(dev, tape, l.filt.addr())? as u32;
    op_t(tape, Op::Branch);

    while budget > 0 {
        match stage {
            ST_ZERO => {
                let mut i = rt.ts_load_word_taped(dev, tape, l.idx.addr())? as u32;
                while i < plane && budget > 0 {
                    iterate(rt, tape, &pats.zero, acc.addr(i), Q15::ZERO);
                    i += 1;
                    budget -= 1;
                }
                rt.ts_store_word_taped(tape, l.idx.addr(), i as u16);
                if i >= plane {
                    rt.ts_store_word_taped(tape, l.idx.addr(), 0);
                    rt.ts_store_word_taped(tape, l.pos.addr(), 0);
                    rt.ts_store_word_taped(tape, l.undo_tag.addr(), ST_ACCUM);
                    stage = ST_ACCUM;
                }
            }
            ST_ACCUM => {
                let ntaps = match &l.kind {
                    DeployedKind::Conv {
                        sparse: Some((row_ptr, _)),
                        ..
                    } => {
                        let s = read_t(dev, tape, *row_ptr, f).raw() as u16 as u32;
                        let e = read_t(dev, tape, *row_ptr, f + 1).raw() as u16 as u32;
                        e - s
                    }
                    _ => ntaps_dense,
                };
                let mut pos = rt.ts_load_word_taped(dev, tape, l.pos.addr())? as u32;
                op_t(tape, Op::Branch);
                if pos >= ntaps {
                    rt.ts_store_word_taped(tape, l.idx.addr(), 0);
                    rt.ts_store_word_taped(tape, l.undo_tag.addr(), ST_FINISH);
                    stage = ST_FINISH;
                    continue;
                }
                let mut i = rt.ts_load_word_taped(dev, tape, l.idx.addr())? as u32;
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
                                let s = read_t(dev, tape, *row_ptr, f).raw() as u16 as u32;
                                let off = read_t(dev, tape, *taps, 2 * (s + pos)).raw() as u16;
                                op_t(tape, Op::Alu);
                                let (c, ky, kx) = unpack_tap(off, kh, kw);
                                (read_t(dev, tape, *taps, 2 * (s + pos) + 1), c, ky, kx)
                            }
                            None => {
                                let (c, ky, kx) = unpack_tap(pos as u16, kh, kw);
                                op_t(tape, Op::Alu);
                                (
                                    read_t(dev, tape, *weights, f * ntaps_dense + pos),
                                    c,
                                    ky,
                                    kx,
                                )
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
                            let x = rt.peek_shared(dev, src.addr(row_base + ox));
                            let cur = rt.peek_shared(dev, acc.addr(i));
                            iterate(rt, tape, &pats.body, acc.addr(i), cur + x * wq);
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
                        let x = load_t(dev, rt, tape, src.addr(pos))?;
                        while i < plane && budget > 0 {
                            let wq = dev.prepaid_read(*weights, i * in_n + pos);
                            let cur = rt.peek_shared(dev, acc.addr(i));
                            iterate(rt, tape, &pats.body, acc.addr(i), cur + x * wq);
                            i += 1;
                            budget -= 1;
                        }
                    }
                    _ => unreachable!(),
                }
                if i >= plane {
                    pos += 1;
                    rt.ts_store_word_taped(tape, l.idx.addr(), 0);
                    rt.ts_store_word_taped(tape, l.pos.addr(), pos as u16);
                } else {
                    rt.ts_store_word_taped(tape, l.idx.addr(), i as u16);
                }
            }
            _ => {
                // FINISH: shift + bias into the output buffer.
                let (bias, shift) = match &l.kind {
                    DeployedKind::Conv { bias, shift, .. } => (*bias, *shift),
                    DeployedKind::Dense { bias, shift, .. } => (*bias, *shift),
                    _ => unreachable!(),
                };
                let mut i = rt.ts_load_word_taped(dev, tape, l.idx.addr())? as u32;
                while i < plane && budget > 0 {
                    let partial = Accum::from_q15(rt.peek_shared(dev, acc.addr(i)));
                    let b = dev.prepaid_read(bias, if is_conv { f } else { i });
                    let out_idx = if is_conv { f * plane + i } else { i };
                    let out = finish_acc(partial, shift, b);
                    iterate(rt, tape, &pats.finish, dst.addr(out_idx), out);
                    i += 1;
                    budget -= 1;
                }
                if i >= plane {
                    f += 1;
                    rt.ts_store_word_taped(tape, l.idx.addr(), 0);
                    op_t(tape, Op::Branch);
                    if f >= nf {
                        // Layer done: reset everything for the next
                        // inference and move on.
                        rt.ts_store_word_taped(tape, l.filt.addr(), 0);
                        rt.ts_store_word_taped(tape, l.pos.addr(), 0);
                        rt.ts_store_word_taped(tape, l.undo_tag.addr(), ST_ZERO);
                        return Ok(next);
                    }
                    rt.ts_store_word_taped(tape, l.filt.addr(), f as u16);
                    rt.ts_store_word_taped(tape, l.undo_tag.addr(), ST_ZERO);
                    stage = ST_ZERO;
                } else {
                    rt.ts_store_word_taped(tape, l.idx.addr(), i as u16);
                }
            }
        }
    }
    Ok(Transition::To(self_id))
}

/// Sparse FC under Alpaca: the in-place scatter with every access logged.
#[allow(clippy::too_many_arguments)]
fn sparse_dense_tiled(
    dev: &mut Device,
    rt: &mut AlpacaRt,
    tape: &mut OpTape,
    pats: &LayerPatterns,
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
    let (col_ptr, entries) = &sparse.as_ref().expect("sparse layer").cols;
    let [out_n, _in_n] = *dims;
    let nnz = entries.len() / 2;
    let acc = m.plane_a;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);

    dev.set_context(l.region, Phase::Kernel);
    let mut budget = tile;
    let mut stage = rt.ts_load_word_taped(dev, tape, l.undo_tag.addr())?;
    if stage > ST_FINISH {
        stage = ST_ZERO; // deploy initializes the word to UNDO_EMPTY
    }
    op_t(tape, Op::Branch);
    Ok(match stage {
        ST_ZERO => {
            let mut i = rt.ts_load_word_taped(dev, tape, l.idx.addr())? as u32;
            while i < out_n && budget > 0 {
                iterate(rt, tape, &pats.zero, acc.addr(i), Q15::ZERO);
                i += 1;
                budget -= 1;
            }
            if i >= out_n {
                rt.ts_store_word_taped(tape, l.idx.addr(), 0);
                rt.ts_store_word_taped(tape, l.pos.addr(), 0);
                rt.ts_store_word_taped(tape, l.undo_tag.addr(), ST_ACCUM);
            } else {
                rt.ts_store_word_taped(tape, l.idx.addr(), i as u16);
            }
            Transition::To(self_id)
        }
        ST_ACCUM => {
            let mut k = rt.ts_load_word_taped(dev, tape, l.idx.addr())? as u32;
            let mut j = rt.ts_load_word_taped(dev, tape, l.pos.addr())? as u32;
            let mut x = load_t(dev, rt, tape, src.addr(j.min(dims[1] - 1)))?;
            while k < nnz && budget > 0 {
                tape.repeat(&pats.head, 1);
                let j0 = j;
                while (dev.prepaid_read(*col_ptr, j + 1).raw() as u16 as u32) <= k {
                    j += 1;
                    x = rt.peek_shared(dev, src.addr(j));
                }
                tape.repeat(&pats.advance, (j - j0) as u64);
                let o = dev.prepaid_read(*entries, 2 * k).raw() as u16 as u32;
                let wq = dev.prepaid_read(*entries, 2 * k + 1);
                let cur = rt.peek_shared(dev, acc.addr(o));
                iterate(rt, tape, &pats.body, acc.addr(o), cur + x * wq);
                k += 1;
                budget -= 1;
            }
            rt.ts_store_word_taped(tape, l.pos.addr(), j as u16);
            if k >= nnz {
                rt.ts_store_word_taped(tape, l.idx.addr(), 0);
                rt.ts_store_word_taped(tape, l.undo_tag.addr(), ST_FINISH);
            } else {
                rt.ts_store_word_taped(tape, l.idx.addr(), k as u16);
            }
            Transition::To(self_id)
        }
        _ => {
            let mut o = rt.ts_load_word_taped(dev, tape, l.idx.addr())? as u32;
            while o < out_n && budget > 0 {
                let partial = Accum::from_q15(rt.peek_shared(dev, acc.addr(o)));
                let b = dev.prepaid_read(*bias, o);
                let out = finish_acc(partial, *shift, b);
                iterate(rt, tape, &pats.finish, dst.addr(o), out);
                o += 1;
                budget -= 1;
            }
            if o >= out_n {
                rt.ts_store_word_taped(tape, l.idx.addr(), 0);
                rt.ts_store_word_taped(tape, l.pos.addr(), 0);
                rt.ts_store_word_taped(tape, l.undo_tag.addr(), ST_ZERO);
                next
            } else {
                rt.ts_store_word_taped(tape, l.idx.addr(), o as u16);
                Transition::To(self_id)
            }
        }
    })
}

/// Pool/ReLU under Alpaca: tiled loops with logged writes.
#[allow(clippy::too_many_arguments)]
fn map_layer_tiled(
    dev: &mut Device,
    rt: &mut AlpacaRt,
    tape: &mut OpTape,
    pats: &LayerPatterns,
    m: &DeployedModel,
    l: &DeployedLayer,
    self_id: usize,
    next: Transition,
    tile: u32,
) -> Result<Transition, PowerFailure> {
    dev.set_context(l.region, Phase::Kernel);
    let mut budget = tile;
    let mut i = rt.ts_load_word_taped(dev, tape, l.idx.addr())? as u32;
    Ok(match l.kind {
        DeployedKind::Pool { kh, kw } => {
            let [c, h, w] = l.in_shape;
            let [_, oh, ow] = l.out_shape;
            let src = m.buf(l.src);
            let dst = m.buf(l.dst);
            let total = c * oh * ow;
            while i < total && budget > 0 {
                let ch = i / (oh * ow);
                let oy = (i / ow) % oh;
                let ox = i % ow;
                let mut best = Q15::MIN;
                for py in 0..kh {
                    for px in 0..kw {
                        let v = dev.prepaid_read(src, (ch * h + oy * kh + py) * w + ox * kw + px);
                        if v > best {
                            best = v;
                        }
                    }
                }
                iterate(rt, tape, &pats.body, dst.addr(i), best);
                i += 1;
                budget -= 1;
            }
            finish_map(rt, tape, l, i, total, self_id, next)
        }
        DeployedKind::Relu => {
            let [c, h, w] = l.in_shape;
            let buf = m.buf(l.src);
            let total = c * h * w;
            while i < total && budget > 0 {
                // Read-then-write of the same location: both sides go
                // through the log (the WAR pair Alpaca exists for).
                let v = rt.peek_shared(dev, buf.addr(i));
                iterate(rt, tape, &pats.body, buf.addr(i), v.relu());
                i += 1;
                budget -= 1;
            }
            finish_map(rt, tape, l, i, total, self_id, next)
        }
        DeployedKind::Flatten => next,
        _ => unreachable!("map layer on accum kind"),
    })
}

fn finish_map(
    rt: &mut AlpacaRt,
    tape: &mut OpTape,
    l: &DeployedLayer,
    i: u32,
    total: u32,
    self_id: usize,
    next: Transition,
) -> Transition {
    if i >= total {
        rt.ts_store_word_taped(tape, l.idx.addr(), 0);
        next
    } else {
        rt.ts_store_word_taped(tape, l.idx.addr(), i as u16);
        Transition::To(self_id)
    }
}

/// Builds the Tile-`N` task graph over the Alpaca runtime.
pub fn build(m: &DeployedModel, tile: u32) -> TaskGraph<AlpacaRt> {
    assert!(tile > 0, "tile must be positive");
    let mut g: TaskGraph<AlpacaRt> = TaskGraph::new();
    let n = m.layers.len();
    for (li, l) in m.layers.iter().enumerate() {
        let self_id = li;
        let next = if li + 1 < n {
            Transition::To(li + 1)
        } else {
            Transition::Done
        };
        let m = m.clone();
        let name = format!("tile{tile}-layer{li}");
        let kind_tag = match l.kind {
            DeployedKind::Conv { .. } => 0u8,
            DeployedKind::Dense { .. } => 1,
            _ => 2,
        };
        let pats = LayerPatterns::new(l);
        // The layer's tape, reused body after body: its capacity and
        // pattern table persist.
        let mut tape = OpTape::new();
        g.add(&name, move |dev, rt| {
            let l = &m.layers[li];
            // The body executes host-side, recording its op sequence;
            // the settle below charges it (or replays it scalar-wise to
            // the exact brown-out op on a shortfall).
            tape.clear();
            let p = &pats;
            let t = match (kind_tag, &l.kind) {
                (0, _) => {
                    accum_layer_tiled(dev, rt, &mut tape, p, &m, l, self_id, next, tile, true)
                }
                (1, DeployedKind::Dense { sparse, .. }) => {
                    if sparse.is_some() {
                        sparse_dense_tiled(dev, rt, &mut tape, p, &m, l, self_id, next, tile)
                    } else {
                        accum_layer_tiled(dev, rt, &mut tape, p, &m, l, self_id, next, tile, false)
                    }
                }
                _ => map_layer_tiled(dev, rt, &mut tape, p, &m, l, self_id, next, tile),
            };
            dev.consume_tape(&tape)?;
            t
        });
    }
    if n == 0 {
        g.add("tiled-empty", |_, _| Ok(Transition::Done));
    }
    g
}
