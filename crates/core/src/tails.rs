//! TAILS: tile-accelerated intermittent LEA support (paper §7).
//!
//! TAILS keeps all of SONIC's intermittence machinery and swaps the
//! compute kernels for hardware-accelerated ones:
//!
//! - **One-time calibration** (§7.1): before the first inference a
//!   recursive calibration task finds the largest tile that survives a
//!   DMA-in → LEA FIR → DMA-out round trip on the device's energy buffer,
//!   halving the candidate on every power failure. The result is stored in
//!   FRAM and reused forever after.
//! - **Convolutions** (§7.2): decomposed into 1-D FIR discrete-time
//!   convolutions over rows. Each (filter, channel, kernel-row) group DMAs
//!   the padded-dense tap row and input row segments into the 4 KB SRAM,
//!   bit-shifts the activations *in software* (LEA has no vector
//!   left-shift), runs FIR on LEA, accumulates against the previous
//!   partial plane, and DMAs the result to the inactive scratch plane —
//!   loop-ordered buffering, so everything stays idempotent.
//! - **Dense fully-connected layers**: LEA vector-MAC over
//!   calibration-sized chunks of each weight row.
//! - **Sparse filters** are padded with zeros (reading the dense weight
//!   array), which wastes LEA work exactly as the paper observes; sparse
//!   fully-connected layers fall back to SONIC's software path (§7.2).
//!
//! The `use_lea` / `use_dma` switches reproduce the paper's ablation
//! ("LEA consistently improved performance by 1.4×, while DMA improved it
//! by 14%").
//!
//! # Bundled accounting
//!
//! DMA transfers and LEA commands are span-charged. Every loop — a conv
//! output row, a dense output, and inside them the software word loops
//! (CPU staging, the left-shift pass, the software FIR/dot ablations,
//! partial-plane accumulation) — is one body run by
//! [`Device::run_bundled`], as in `sonic`. The row body is the one
//! `stage_in → shift → fir → vec_add → stage_out` sequence, and its
//! bundle is recorded from that body into the conv task's [`Site`] for
//! the row variant (full or all-zero tap group, first or later group);
//! the dense output's body is `stage_in → dot → add → write`, with a
//! site per chunk variant (first or later chunk, full or short). A
//! funded iteration runs its nested loops and LEA/DMA commands uncharged
//! (its bundle paid for them), while a recording or unfunded one runs
//! them charged, each nested loop recording its own first iteration and
//! funding the rest — bit-identical traces, brown-out op included
//! (pinned by the root `bundles` tests and this module's fixture).

use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel};
use crate::sonic;
use fxp::{Accum, Q15};
use intermittent::task::{TaskGraph, Transition};
use mcu::{Device, FramBuf, Op, Phase, PowerFailure, Site, SramBuf, Step};

/// Hardware usage switches (both `true` for real TAILS; ablations flip
/// them to software emulations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailsConfig {
    /// Use the LEA vector unit (otherwise software loops over SRAM).
    pub use_lea: bool,
    /// Use DMA block transfer (otherwise CPU word-copy loops).
    pub use_dma: bool,
}

impl Default for TailsConfig {
    fn default() -> Self {
        TailsConfig {
            use_lea: true,
            use_dma: true,
        }
    }
}

/// Initial calibration candidate (words); also the tile cap.
pub const CALIB_INITIAL: u16 = 512;
/// A zero row as wide as any SRAM staging buffer, for the all-zero tap
/// group's first pass.
static ZERO_ROW: [Q15; CALIB_INITIAL as usize] = [Q15::ZERO; CALIB_INITIAL as usize];
/// Smallest tile calibration will accept.
pub const CALIB_MIN: u16 = 8;

/// SRAM working set used by the TAILS kernels.
#[derive(Clone, Copy, Debug)]
struct SramBufs {
    src: SramBuf,
    taps: SramBuf,
    out: SramBuf,
    inter: SramBuf,
}

fn try_alloc_sram(dev: &mut Device) -> Result<SramBufs, mcu::AllocError> {
    let cap = CALIB_INITIAL as u32;
    Ok(SramBufs {
        src: dev.sram_alloc(cap + 64)?,
        taps: dev.sram_alloc(64)?,
        out: dev.sram_alloc(cap)?,
        inter: dev.sram_alloc(cap)?,
    })
}

fn alloc_sram(dev: &mut Device) -> SramBufs {
    // 512*3 + 64 words = ~3.2 KB of the 4 KB SRAM; allocation is
    // link-time and panics only on a mis-sized device spec (which
    // [`crate::exec::preflight_runtime`] lets callers probe fallibly).
    try_alloc_sram(dev).expect("SRAM staging buffers")
}

/// Checks that the TAILS SRAM staging buffers fit `dev`, releasing the
/// probe allocations again.
pub(crate) fn preflight_sram(dev: &mut Device) -> Result<(), mcu::AllocError> {
    let marks = dev.alloc_watermarks();
    let r = try_alloc_sram(dev).map(|_| ());
    dev.rewind_allocs(marks);
    r
}

/// Copies FRAM → SRAM by DMA or CPU loop depending on config.
fn stage_in(
    s: &mut Step<'_>,
    cfg: TailsConfig,
    src: FramBuf,
    dst: SramBuf,
) -> Result<(), PowerFailure> {
    if cfg.use_dma {
        return s.dma_fram_to_sram(src, dst);
    }
    s.run_bundled(
        0..src.len(),
        #[inline(always)]
        |s, t| {
            let v = s.read(src, t)?;
            s.sram_write(dst, t, v)?;
            s.op(Op::Incr)?;
            s.op(Op::Branch)
        },
    )
}

/// Copies SRAM → FRAM by DMA or CPU loop depending on config.
fn stage_out(
    s: &mut Step<'_>,
    cfg: TailsConfig,
    src: SramBuf,
    dst: FramBuf,
) -> Result<(), PowerFailure> {
    if cfg.use_dma {
        return s.dma_sram_to_fram(src, dst);
    }
    s.run_bundled(
        0..src.len(),
        #[inline(always)]
        |s, t| {
            let v = s.sram_read(src, t)?;
            s.write(dst, t, v)?;
            s.op(Op::Incr)?;
            s.op(Op::Branch)
        },
    )
}

/// The software left-shift pass LEA cannot do (charged to the control
/// phase: "these shifts account for most of the control time", §9.2).
fn software_shift(
    s: &mut Step<'_>,
    buf: SramBuf,
    region: mcu::RegionId,
) -> Result<(), PowerFailure> {
    s.set_context(region, Phase::Control);
    s.run_bundled(
        0..buf.len(),
        #[inline(always)]
        |s, t| {
            let v = s.sram_read(buf, t)?;
            s.op(Op::Alu)?;
            s.sram_write(buf, t, v)
        },
    )
}

/// FIR over SRAM: LEA or the software emulation.
fn fir(
    s: &mut Step<'_>,
    cfg: TailsConfig,
    src: SramBuf,
    taps: SramBuf,
    out: SramBuf,
) -> Result<(), PowerFailure> {
    if cfg.use_lea {
        return s.lea_fir(src, taps, out);
    }
    let mut t = vec![Q15::ZERO; taps.len() as usize];
    s.sram_read_block(taps, 0, &mut t)?;
    s.run_bundled(
        0..src.len() - taps.len() + 1,
        #[inline(always)]
        |s, o| {
            let mut acc = Accum::ZERO;
            for (j, tq) in (o..).zip(&t) {
                let x = s.sram_read(src, j)?;
                s.op(Op::FxpMul)?;
                s.op(Op::FxpAdd)?;
                acc.mac(x, *tq);
            }
            s.sram_write(out, o, acc.to_q15())
        },
    )
}

/// Vector dot over SRAM: LEA or the software emulation.
fn dot(s: &mut Step<'_>, cfg: TailsConfig, a: SramBuf, b: SramBuf) -> Result<Accum, PowerFailure> {
    if cfg.use_lea {
        return s.lea_dot(a, b);
    }
    let mut acc = Accum::ZERO;
    s.run_bundled(
        0..a.len(),
        #[inline(always)]
        |s, i| {
            let x = s.sram_read(a, i)?;
            let y = s.sram_read(b, i)?;
            s.op(Op::FxpMul)?;
            s.op(Op::FxpAdd)?;
            acc.mac(x, y);
            Ok(())
        },
    )?;
    Ok(acc)
}

/// Element-wise SRAM add `dst += src` (partial-plane accumulation),
/// charged as LEA MACs chained onto the preceding FIR when the
/// accelerator is on.
fn vec_add(
    s: &mut Step<'_>,
    cfg: TailsConfig,
    dst: SramBuf,
    src: SramBuf,
) -> Result<(), PowerFailure> {
    if cfg.use_lea {
        return s.lea_add(dst, src);
    }
    s.run_bundled(
        0..dst.len(),
        #[inline(always)]
        |s, t| {
            let a = s.sram_read(dst, t)?;
            let b = s.sram_read(src, t)?;
            s.op(Op::FxpAdd)?;
            s.sram_write(dst, t, a + b)
        },
    )
}

/// The one-time calibration task (§7.1).
fn calibrate_task(
    dev: &mut Device,
    m: &DeployedModel,
    sram: SramBufs,
    cfg: TailsConfig,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    dev.set_context(m.other_region, Phase::Control);
    let done = sonic::load_guarded(dev, m.calib, m.other_region)?;
    dev.consume(Op::Branch)?;
    if done != 0 {
        return Ok(next);
    }
    // Halve the candidate on every re-entry (a re-entry with calib still
    // unset means the previous attempt browned out).
    let prev = sonic::load_guarded(dev, m.calib_cand, m.other_region)?;
    let cand = if prev == 0 {
        CALIB_INITIAL
    } else {
        (prev / 2).max(CALIB_MIN)
    };
    dev.store_word(m.calib_cand, cand)?;

    // Probe: one full DMA-in → FIR → DMA-out round trip at `cand` words.
    let n = cand as u32;
    let probe_src = m.plane_a.slice(0, n.min(m.plane_a.len()));
    let probe_n = probe_src.len();
    stage_in(&mut dev.step(), cfg, probe_src, sram.src.slice(0, probe_n))?;
    dev.sram_write_block(sram.taps, 0, &[Q15::HALF; 8])?;
    fir(
        &mut dev.step(),
        cfg,
        sram.src.slice(0, probe_n),
        sram.taps.slice(0, 8.min(probe_n)),
        sram.out.slice(0, probe_n - 8.min(probe_n) + 1),
    )?;
    stage_out(
        &mut dev.step(),
        cfg,
        sram.out.slice(0, probe_n - 8.min(probe_n) + 1),
        m.plane_b.slice(0, probe_n - 8.min(probe_n) + 1),
    )?;

    dev.store_word(m.calib, cand)?;
    Ok(next)
}

/// TAILS convolution: per (filter, channel, kernel-row) FIR groups with
/// loop continuation over output rows. Sites: full rows of the first and
/// later tap groups, pass-through rows of all-zero first and later
/// groups, and the finishing pass.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn conv_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    sram: SramBufs,
    cfg: TailsConfig,
    [row_first, row_rest, zero_row_first, zero_row_rest, finish]: &mut [Site; 5],
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Conv {
        dims,
        weights,
        bias,
        shift,
        ..
    } = &l.kind
    else {
        unreachable!("conv_task on non-conv")
    };
    let [nf, nc, kh, kw] = *dims;
    let [_, h, w_in] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let plane = oh * ow;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);
    let groups = nc * kh; // one FIR tap-row per (channel, kernel-row)

    dev.set_context(l.region, Phase::Control);
    let f = sonic::load_guarded(dev, l.filt, l.region)? as u32;
    dev.consume(Op::Branch)?;
    if f >= nf {
        dev.store_word(l.filt, 0)?;
        return Ok(next);
    }
    let g = sonic::load_guarded(dev, l.pos, l.region)? as u32;
    dev.consume(Op::Branch)?;

    if g >= groups {
        // Finishing pass for filter f (software, like SONIC).
        let b = dev.read(*bias, f)?;
        let from_plane = if (groups - 1) % 2 == 0 {
            m.plane_a
        } else {
            m.plane_b
        };
        let j = sonic::load_guarded(dev, l.idx, l.region)? as u32;
        sonic::finish_pass(
            dev,
            l,
            finish,
            l.idx,
            Some(from_plane),
            None,
            b,
            dst,
            f * plane,
            plane,
            *shift,
            |j| j as u16,
            j,
        )?;
        dev.set_context(l.region, Phase::Control);
        dev.store_word(l.idx, 0)?;
        dev.store_word(l.pos, 0)?;
        dev.store_word(l.filt, (f + 1) as u16)?;
        return Ok(Transition::To(self_id));
    }

    // Group g = (channel c, kernel row ky): stage the padded-dense tap
    // row (zero-padding sparse filters costs dense reads, §7.2).
    let c = g / kh;
    let ky = g % kh;
    let (dest, inter) = if g.is_multiple_of(2) {
        (m.plane_a, m.plane_b)
    } else {
        (m.plane_b, m.plane_a)
    };
    stage_in(
        &mut dev.step(),
        cfg,
        weights.slice(((f * nc + c) * kh + ky) * kw, kw),
        sram.taps.slice(0, kw),
    )?;
    // Zero-padded sparse rows: when every tap in this row is zero (the
    // common case in pruned filters), the FIR would contribute nothing.
    // Pass the partials through with a plain copy instead — parity still
    // advances, so loop-ordered buffering stays intact.
    let all_zero = dev
        .sram_peek(sram.taps.slice(0, kw))
        .iter()
        .all(|q| q.is_zero());
    dev.consume(Op::Branch)?;
    if all_zero {
        let oy = sonic::load_guarded(dev, l.idx, l.region)? as u32;
        dev.set_context(l.region, Phase::Kernel);
        let site = if g > 0 { zero_row_rest } else { zero_row_first };
        dev.run_bundled(
            site,
            oy..oh,
            #[inline(always)]
            |s, oy| {
                if g > 0 {
                    stage_in(s, cfg, inter.slice(oy * ow, ow), sram.out.slice(0, ow))?;
                } else {
                    s.sram_write_block(sram.out, 0, &ZERO_ROW[..ow as usize])?;
                }
                stage_out(s, cfg, sram.out.slice(0, ow), dest.slice(oy * ow, ow))?;
                sonic::continue_at(s, l.idx, (oy + 1) as u16)
            },
        )?;
        dev.set_context(l.region, Phase::Control);
        dev.store_word(l.idx, 0)?;
        dev.store_word(l.pos, (g + 1) as u16)?;
        return Ok(Transition::To(self_id));
    }
    // LEA cannot left-shift: pre-shift taps in software.
    software_shift(&mut dev.step(), sram.taps.slice(0, kw), l.region)?;

    let oy = sonic::load_guarded(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    let site = if g > 0 { row_rest } else { row_first };
    dev.run_bundled(
        site,
        oy..oh,
        #[inline(always)]
        |s, oy| {
            let src_row = src.slice((c * h + oy + ky) * w_in, w_in);
            stage_in(s, cfg, src_row, sram.src.slice(0, w_in))?;
            software_shift(s, sram.src.slice(0, w_in), l.region)?;
            s.set_context(l.region, Phase::Kernel);
            fir(
                s,
                cfg,
                sram.src.slice(0, w_in),
                sram.taps.slice(0, kw),
                sram.out.slice(0, ow),
            )?;
            if g > 0 {
                stage_in(s, cfg, inter.slice(oy * ow, ow), sram.inter.slice(0, ow))?;
                vec_add(s, cfg, sram.out.slice(0, ow), sram.inter.slice(0, ow))?;
            }
            // Write the new partial row to the inactive plane (idempotent).
            stage_out(s, cfg, sram.out.slice(0, ow), dest.slice(oy * ow, ow))?;
            sonic::continue_at(s, l.idx, (oy + 1) as u16)
        },
    )?;
    dev.set_context(l.region, Phase::Control);
    dev.store_word(l.idx, 0)?;
    dev.store_word(l.pos, (g + 1) as u16)?;
    Ok(Transition::To(self_id))
}

/// TAILS dense fully-connected layer: LEA vector MAC over
/// calibration-sized chunks, loop-ordered across chunks, with loop
/// continuation over outputs. Sites: the outputs of the first and of a
/// later chunk, each full or the short last one, and the finishing pass.
#[allow(clippy::too_many_arguments)]
fn dense_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    sram: SramBufs,
    cfg: TailsConfig,
    [first, first_short, later, later_short, finish]: &mut [Site; 5],
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

    dev.set_context(l.region, Phase::Control);
    // Calibration-word range check, promoted from the spec harness's
    // post-hoc invariant to a runtime guard: by the time a dense task
    // runs, calibration has completed, so the word must be in
    // [CALIB_MIN, CALIB_INITIAL]. An out-of-range value would silently
    // change the chunking — and thus the layer's fixed-point rounding —
    // so it is treated as corruption, not clamped: restore the guard's
    // intended value when it has a valid one, else abort the run as
    // unrecoverable.
    let raw = sonic::load_guarded(dev, m.calib, l.region)?;
    let calib_ok = |v: u16| (CALIB_MIN..=CALIB_INITIAL).contains(&v);
    let tile = if calib_ok(raw) {
        raw as u32
    } else {
        let intended = dev
            .guarded_intended(m.calib.addr())
            .filter(|&v| calib_ok(v));
        match intended {
            Some(v) if dev.note_corruption(l.region) => {
                dev.store_word(m.calib, v)?;
                v as u32
            }
            _ => {
                // No trustworthy value to restore: spend the remaining
                // retry budget so the abort is classified as corruption
                // rather than non-termination, and fail the task.
                while dev.note_corruption(l.region) {}
                return Err(PowerFailure);
            }
        }
    };
    let nchunks = in_n.div_ceil(tile);
    let ci = sonic::load_guarded(dev, l.pos, l.region)? as u32;
    dev.consume(Op::Branch)?;

    if ci >= nchunks {
        // Finishing pass.
        let from = if (nchunks - 1) % 2 == 0 {
            m.plane_a
        } else {
            m.plane_b
        };
        let o = sonic::load_guarded(dev, l.idx, l.region)? as u32;
        sonic::finish_pass(
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
        dev.set_context(l.region, Phase::Control);
        dev.store_word(l.idx, 0)?;
        dev.store_word(l.pos, 0)?;
        return Ok(next);
    }

    // Chunk ci of the inputs, applied to every output's partial.
    let base = ci * tile;
    let n = tile.min(in_n - base);
    stage_in(
        &mut dev.step(),
        cfg,
        src.slice(base, n),
        sram.src.slice(0, n),
    )?;
    software_shift(&mut dev.step(), sram.src.slice(0, n), l.region)?;
    let (dest, inter) = if ci.is_multiple_of(2) {
        (m.plane_a, m.plane_b)
    } else {
        (m.plane_b, m.plane_a)
    };
    let o = sonic::load_guarded(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    let site = match (ci > 0, n < tile) {
        (false, false) => first,
        (false, true) => first_short,
        (true, false) => later,
        (true, true) => later_short,
    };
    dev.run_bundled(
        site,
        o..out_n,
        #[inline(always)]
        |s, o| {
            // The weight-row chunk stages into the (tile-sized) inter
            // buffer.
            stage_in(
                s,
                cfg,
                weights.slice(o * in_n + base, n),
                sram.inter.slice(0, n),
            )?;
            let prod = dot(s, cfg, sram.src.slice(0, n), sram.inter.slice(0, n))?.to_q15();
            let v = if ci == 0 {
                prod
            } else {
                s.op(Op::FxpAdd)?;
                s.read(inter, o)? + prod
            };
            s.write(dest, o, v)?;
            sonic::continue_at(s, l.idx, (o + 1) as u16)
        },
    )?;
    dev.set_context(l.region, Phase::Control);
    dev.store_word(l.idx, 0)?;
    dev.store_word(l.pos, (ci + 1) as u16)?;
    Ok(Transition::To(self_id))
}

/// Builds the TAILS task graph: calibration first, then one task per
/// layer; sparse FC, pooling, and ReLU reuse SONIC's software tasks.
pub fn build(m: &DeployedModel, cfg: TailsConfig, dev: &mut Device) -> TaskGraph<()> {
    let sram = alloc_sram(dev);
    let mut g: TaskGraph<()> = TaskGraph::new();
    let n = m.layers.len();
    // Task 0: calibration.
    {
        let m = m.clone();
        let next = if n > 0 {
            Transition::To(1)
        } else {
            Transition::Done
        };
        g.add("tails-calibrate", move |dev, _| {
            calibrate_task(dev, &m, sram, cfg, next)
        });
    }
    for (li, l) in m.layers.iter().enumerate() {
        let self_id = li + 1;
        let next = if li + 1 < n {
            Transition::To(self_id + 1)
        } else {
            Transition::Done
        };
        let name = format!("tails-layer{li}");
        match &l.kind {
            DeployedKind::Conv { .. } => {
                let m = m.clone();
                let mut sites = Default::default();
                g.add(&name, move |dev, _| {
                    conv_task(dev, &m, &m.layers[li], sram, cfg, &mut sites, self_id, next)
                });
            }
            DeployedKind::Dense { sparse, .. } if sparse.is_some() => {
                // §7.2: sparse FC stays in software, exactly like SONIC.
                let m = m.clone();
                let mut sites = Default::default();
                g.add(&name, move |dev, _| {
                    sonic::sparse_dense_task(dev, &m, &m.layers[li], &mut sites, self_id, next)
                });
            }
            DeployedKind::Dense { .. } => {
                let m = m.clone();
                let mut sites = Default::default();
                g.add(&name, move |dev, _| {
                    dense_task(dev, &m, &m.layers[li], sram, cfg, &mut sites, self_id, next)
                });
            }
            DeployedKind::Pool { .. } => {
                let m = m.clone();
                let mut site = Site::default();
                g.add(&name, move |dev, _| {
                    sonic::pool_task(dev, &m, &m.layers[li], &mut site, next)
                });
            }
            DeployedKind::Relu => {
                let m = m.clone();
                let mut site = Site::default();
                g.add(&name, move |dev, _| {
                    sonic::relu_task(dev, &m, &m.layers[li], &mut site, next)
                });
            }
            DeployedKind::Flatten => {
                g.add(&name, move |_, _| Ok(next));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    //! A small dense network on 100 µF, on a device calibrated to a
    //! 16-word tile: an FC whose outputs run in two full chunks and a
    //! short last one, a ReLU, and a one-chunk FC. Under TAILS and under
    //! TAILS with neither LEA nor DMA, pinned against digests recorded
    //! from the dense outputs stepped one at a time: the fault-free run,
    //! and a lone brown-out at every op boundary after calibration.
    //!
    //! Regenerate (after an *intentional* accounting change) with:
    //! `GOLDEN_PRINT=1 cargo test -p sonic tails::tests -- --nocapture`

    use super::TailsConfig;
    use crate::deploy::{deploy, DeployedModel};
    use crate::exec::{run_deployed_observed, Backend, Session};
    use crate::sonic::tests::{fnv, fold_fram, fold_outcome};
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::quantize;
    use dnn::tensor::Tensor;
    use mcu::{Device, DeviceSpec, FaultPlan, PowerSystem};
    use rand::SeedableRng;

    /// The calibrated tile, in words.
    const TILE: u16 = 16;
    /// The first FC's inputs: two full chunks and a short one.
    const IN: usize = 2 * TILE as usize + 8;

    /// The fixture deployed on 100 µF with its input loaded and its tile
    /// calibrated.
    fn deployed() -> (Device, DeployedModel) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut model = Model::new(vec![
            Layer::dense(IN, 4, &mut rng),
            Layer::relu(),
            Layer::dense(4, 3, &mut rng),
        ]);
        let shape = [IN];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let input = qm.quantize_input(&Tensor::uniform(shape.to_vec(), 0.9, &mut rng));
        let mut dev = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::harvested(100e-6));
        let dm = deploy(&mut dev, &qm).expect("fits");
        dm.load_input(&mut dev, &input);
        dev.flash_word(dm.calib, TILE);
        (dev, dm)
    }

    /// One run on a copy of the deployed fixture with a brown-out armed
    /// at inference op `t` (none for `None`): the op index and FRAM image
    /// at every crash, the outcome with its per-region trace, the op
    /// count and the final FRAM image. Also returns the run's op count.
    fn run((dev, dm): &(Device, DeployedModel), backend: &Backend, t: Option<u64>) -> (u64, u64) {
        let mut dev = dev.clone();
        let base = dev.ops_consumed();
        if let Some(t) = t {
            dev.arm_faults(&FaultPlan::at(base + t));
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let o = run_deployed_observed(&mut dev, dm, backend, |dev, _, _| {
            fnv(&mut h, dev.ops_consumed() - base);
            fold_fram(&mut h, dev);
        });
        fold_outcome(&mut h, &o);
        let ops = dev.ops_consumed() - base;
        fnv(&mut h, ops);
        fold_fram(&mut h, &dev);
        (h, ops)
    }

    /// The inference op at which the calibration task has ended: its
    /// transition charged.
    fn calibrated_at((dev, dm): &(Device, DeployedModel), backend: &Backend) -> u64 {
        let mut dev = dev.clone();
        let base = dev.ops_consumed();
        let mut s = Session::start(&mut dev, dm, backend);
        assert!(s.step(&mut dev, &mut |_, _, _| {}).is_none());
        assert_eq!(dev.peek_word(dm.calib), TILE);
        dev.ops_consumed() - base
    }

    #[test]
    fn tails_dense_fixture_every_brownout_matches_the_record() {
        let fixture = deployed();
        let mut got = Vec::new();
        for (name, cfg) in [
            ("TAILS", TailsConfig::default()),
            (
                "TAILS(lea=0,dma=0)",
                TailsConfig {
                    use_lea: false,
                    use_dma: false,
                },
            ),
        ] {
            let backend = Backend::Tails(cfg);
            let (clean, total) = run(&fixture, &backend, None);
            let from = calibrated_at(&fixture, &backend);
            let mut sweep = 0xcbf2_9ce4_8422_2325u64;
            for t in from..=total {
                fnv(&mut sweep, run(&fixture, &backend, Some(t)).0);
            }
            got.push((format!("{name} clean/{total} ops"), clean));
            got.push((format!("{name} every brown-out from op {from}"), sweep));
        }
        if std::env::var("GOLDEN_PRINT").is_ok() {
            for (name, d) in &got {
                println!("        {d:#018x}, // {name}");
            }
            return;
        }
        for ((name, d), g) in got.iter().zip(GOLDEN) {
            assert_eq!(*d, g, "{name}: digest diverged");
        }
    }

    /// Recorded from TAILS with each dense output stepped by hand.
    const GOLDEN: [u64; 4] = [
        0x74873f7cc4140db2, // TAILS clean/758 ops
        0x78357a1566e8130c, // TAILS every brown-out from op 3
        0x9a0218358f5919be, // TAILS(lea=0,dma=0) clean/1888 ops
        0x732bb409030989fa, // TAILS(lea=0,dma=0) every brown-out from op 3
    ];
}
