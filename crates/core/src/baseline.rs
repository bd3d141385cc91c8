//! The naïve baseline: fast, register-accumulating, intermittence-unsafe.
//!
//! This is the "standard, baseline implementation that does not tolerate
//! intermittent operation" of §8: each output element's dot product
//! accumulates in a (volatile) register and is written to FRAM once. All
//! loop state is volatile, so a power failure restarts the *whole
//! inference* (the scheduler's `FromEntry` policy); if total inference
//! energy exceeds the device's buffer it never terminates.
//!
//! # Bundled accounting
//!
//! Every inner loop is one body run by [`Device::run_bundled`], which
//! records the loop's op bundle from the body's first iteration into a
//! [`Site`] each layer call owns: whole iterations the buffer funds then
//! run with their charge settled in bulk, and the first unfunded one runs
//! the same body charging op by op, so a brown-out lands on exactly the
//! op of an all-scalar execution (see `mcu::bundle`). The root `bundles`
//! test suite pins bit-identical traces against the scalar
//! implementation.

use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel, SparseFc};
use dnn::quant::finish_acc;
use fxp::{Accum, Q15};
use intermittent::task::{TaskGraph, Transition};
use mcu::{Device, Op, Phase, PowerFailure, Site, Step};

/// Unpacks a flattened kernel offset into (c, ky, kx).
#[inline]
pub(crate) fn unpack_tap(off: u16, kh: u32, kw: u32) -> (u32, u32, u32) {
    let off = off as u32;
    let c = off / (kh * kw);
    let rem = off % (kh * kw);
    (c, rem / kw, rem % kw)
}

/// Charges the shift/bias finishing arithmetic (shared semantics with
/// [`dnn::quant::finish_acc`]).
#[inline(always)]
pub(crate) fn charge_finish(s: &mut Step<'_>) -> Result<(), PowerFailure> {
    s.op(Op::Alu)?; // shift
    s.op(Op::FxpAdd) // bias add
}

/// The tail shared by every MAC iteration: multiply, accumulate, loop
/// increment and back-branch.
#[inline(always)]
fn mac(s: &mut Step<'_>, acc: &mut Accum, x: Q15, w: Q15) -> Result<(), PowerFailure> {
    s.op(Op::FxpMul)?;
    s.op(Op::FxpAdd)?;
    acc.mac(x, w);
    s.op(Op::Incr)?;
    s.op(Op::Branch)
}

/// Conv output `(f, oy, ox)`'s dot product: one bundled MAC loop over
/// the filter's taps, sparse or dense, run against `site` (the layer's
/// MAC loop). `read_x` reads input word `i` (the stateful backend adds
/// its tag/parity verify).
pub(crate) fn conv_acc(
    dev: &mut Device,
    l: &DeployedLayer,
    site: &mut Site,
    [f, oy, ox]: [u32; 3],
    mut read_x: impl FnMut(&mut Step<'_>, u32) -> Result<Q15, PowerFailure>,
) -> Result<Accum, PowerFailure> {
    let DeployedKind::Conv {
        dims,
        weights,
        sparse,
        ..
    } = &l.kind
    else {
        unreachable!("conv_acc on non-conv")
    };
    let [_, nc, kh, kw] = *dims;
    let [_, h, w] = l.in_shape;
    let at = |c: u32, ky: u32, kx: u32| (c * h + oy + ky) * w + ox + kx;
    let mut acc = Accum::ZERO;
    match sparse {
        Some((row_ptr, taps)) => {
            let start = dev.read(*row_ptr, f)?.raw() as u16 as u32;
            let end = dev.read(*row_ptr, f + 1)?.raw() as u16 as u32;
            dev.run_bundled(
                site,
                start..end,
                #[inline(always)]
                |s, t| {
                    let off = s.read(*taps, 2 * t)?.raw() as u16;
                    s.op(Op::Alu)?; // unpack
                    let (c, ky, kx) = unpack_tap(off, kh, kw);
                    let wq = s.read(*taps, 2 * t + 1)?;
                    s.op(Op::Alu)?; // address
                    let xq = read_x(s, at(c, ky, kx))?;
                    mac(s, &mut acc, xq, wq)
                },
            )?;
        }
        None => {
            // (c, ky, kx) advance incrementally — same values as
            // unpack_tap, without the per-tap divisions.
            let ntaps = nc * kh * kw;
            let (mut c, mut ky, mut kx) = (0, 0, 0);
            dev.run_bundled(
                site,
                0..ntaps,
                #[inline(always)]
                |s, t| {
                    let wq = s.read(*weights, f * ntaps + t)?;
                    s.op(Op::Alu)?; // address
                    let xq = read_x(s, at(c, ky, kx))?;
                    kx += 1;
                    if kx == kw {
                        kx = 0;
                        ky += 1;
                        if ky == kh {
                            ky = 0;
                            c += 1;
                        }
                    }
                    mac(s, &mut acc, xq, wq)
                },
            )?;
        }
    }
    Ok(acc)
}

/// Dense output `o`'s dot product: one bundled MAC loop over the row's
/// entries (sparse) or inputs (dense); `site` and `read_x` as in
/// [`conv_acc`].
pub(crate) fn dense_acc(
    dev: &mut Device,
    l: &DeployedLayer,
    site: &mut Site,
    o: u32,
    mut read_x: impl FnMut(&mut Step<'_>, u32) -> Result<Q15, PowerFailure>,
) -> Result<Accum, PowerFailure> {
    let DeployedKind::Dense {
        dims,
        weights,
        sparse,
        ..
    } = &l.kind
    else {
        unreachable!("dense_acc on non-dense")
    };
    let in_n = dims[1];
    let mut acc = Accum::ZERO;
    match sparse {
        Some(SparseFc {
            rows: (row_ptr, entries),
            ..
        }) => {
            let start = dev.read(*row_ptr, o)?.raw() as u16 as u32;
            let end = dev.read(*row_ptr, o + 1)?.raw() as u16 as u32;
            dev.run_bundled(
                site,
                start..end,
                #[inline(always)]
                |s, t| {
                    let col = s.read(*entries, 2 * t)?.raw() as u16 as u32;
                    let wq = s.read(*entries, 2 * t + 1)?;
                    s.op(Op::Alu)?;
                    let xq = read_x(s, col)?;
                    mac(s, &mut acc, xq, wq)
                },
            )?;
        }
        None => dev.run_bundled(
            site,
            0..in_n,
            #[inline(always)]
            |s, i| {
                let wq = s.read(*weights, o * in_n + i)?;
                s.op(Op::Alu)?;
                let xq = read_x(s, i)?;
                mac(s, &mut acc, xq, wq)
            },
        )?,
    }
    Ok(acc)
}

fn conv_layer(dev: &mut Device, m: &DeployedModel, l: &DeployedLayer) -> Result<(), PowerFailure> {
    let DeployedKind::Conv {
        dims, bias, shift, ..
    } = &l.kind
    else {
        unreachable!("conv_layer on non-conv")
    };
    let [_, oh, ow] = l.out_shape;
    let (src, dst) = (m.buf(l.src), m.buf(l.dst));
    let mut site = Site::default();
    for f in 0..dims[0] {
        let b = dev.read(*bias, f)?;
        for oy in 0..oh {
            for ox in 0..ow {
                let acc = conv_acc(dev, l, &mut site, [f, oy, ox], |s, i| s.read(src, i))?;
                charge_finish(&mut dev.step())?;
                dev.write(dst, (f * oh + oy) * ow + ox, finish_acc(acc, *shift, b))?;
            }
        }
    }
    Ok(())
}

fn dense_layer(dev: &mut Device, m: &DeployedModel, l: &DeployedLayer) -> Result<(), PowerFailure> {
    let DeployedKind::Dense {
        dims, bias, shift, ..
    } = &l.kind
    else {
        unreachable!("dense_layer on non-dense")
    };
    let (src, dst) = (m.buf(l.src), m.buf(l.dst));
    let mut site = Site::default();
    for o in 0..dims[0] {
        let acc = dense_acc(dev, l, &mut site, o, |s, i| s.read(src, i))?;
        let b = dev.read(*bias, o)?;
        charge_finish(&mut dev.step())?;
        dev.write(dst, o, finish_acc(acc, *shift, b))?;
    }
    Ok(())
}

/// The max of output `o`'s pooling window: per window element the
/// address ALU, the read (`read_x`, as in [`conv_acc`]) and the compare
/// branch.
#[inline(always)]
pub(crate) fn pool_window(
    s: &mut Step<'_>,
    l: &DeployedLayer,
    o: u32,
    mut read_x: impl FnMut(&mut Step<'_>, u32) -> Result<Q15, PowerFailure>,
) -> Result<Q15, PowerFailure> {
    let DeployedKind::Pool { kh, kw } = l.kind else {
        unreachable!("pool window on non-pool")
    };
    let [_, h, w] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let ch = o / (oh * ow);
    let oy = (o / ow) % oh;
    let ox = o % ow;
    let mut best = Q15::MIN;
    for py in 0..kh {
        for px in 0..kw {
            s.op(Op::Alu)?;
            let v = read_x(s, (ch * h + oy * kh + py) * w + ox * kw + px)?;
            s.op(Op::Branch)?;
            if v > best {
                best = v;
            }
        }
    }
    Ok(best)
}

fn pool_layer(dev: &mut Device, m: &DeployedModel, l: &DeployedLayer) -> Result<(), PowerFailure> {
    let [c, _, _] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let (src, dst) = (m.buf(l.src), m.buf(l.dst));
    dev.run_bundled(
        &mut Site::default(),
        0..c * oh * ow,
        #[inline(always)]
        |s, o| {
            let best = pool_window(s, l, o, |s, i| s.read(src, i))?;
            s.write(dst, o, best)?;
            s.op(Op::Incr)?;
            s.op(Op::Branch)
        },
    )
}

fn relu_layer(dev: &mut Device, m: &DeployedModel, l: &DeployedLayer) -> Result<(), PowerFailure> {
    let [c, h, w] = l.in_shape;
    let buf = m.buf(l.src);
    dev.run_bundled(
        &mut Site::default(),
        0..c * h * w,
        #[inline(always)]
        |s, i| {
            let v = s.read(buf, i)?;
            s.op(Op::Branch)?;
            // In-place: idempotent because relu(relu(x)) == relu(x).
            s.write(buf, i, v.relu())?;
            s.op(Op::Incr)?;
            s.op(Op::Branch)
        },
    )
}

/// Runs one layer with baseline semantics (shared with TAILS's software
/// paths where noted).
pub(crate) fn run_layer(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
) -> Result<(), PowerFailure> {
    dev.set_context(l.region, Phase::Kernel);
    match &l.kind {
        DeployedKind::Conv { .. } => conv_layer(dev, m, l),
        DeployedKind::Dense { .. } => dense_layer(dev, m, l),
        DeployedKind::Pool { .. } => pool_layer(dev, m, l),
        DeployedKind::Relu => relu_layer(dev, m, l),
        DeployedKind::Flatten => Ok(()),
    }
}

/// Builds the baseline inference graph: a single unprotected task.
pub fn build(m: &DeployedModel) -> TaskGraph<()> {
    let m = m.clone();
    let mut g = TaskGraph::new();
    g.add("baseline-inference", move |dev, _| {
        for l in &m.layers {
            run_layer(dev, &m, l)?;
        }
        Ok(Transition::Done)
    });
    g
}
