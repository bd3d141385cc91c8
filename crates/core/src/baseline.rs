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
//! The inner MAC loops charge the device per loop body via
//! [`mcu::OpBundle`] instead of one [`Device::consume`] per op: the
//! funded iterations execute through pre-charged accessors, and the first
//! unfunded iteration replays through the original scalar sequence so a
//! brown-out lands on exactly the same op (see `mcu::bundle`). The root
//! `bundles` test suite pins bit-identical traces against the scalar
//! implementation.

use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel, SparseFc};
use dnn::quant::finish_acc;
use fxp::{Accum, Q15};
use intermittent::task::{TaskGraph, Transition};
use mcu::{Device, Op, OpBundle, Phase, PowerFailure};

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
#[inline]
pub(crate) fn charge_finish(dev: &mut Device) -> Result<(), PowerFailure> {
    dev.consume(Op::Alu)?; // shift
    dev.consume(Op::FxpAdd) // bias add
}

/// One dense-conv/dense-FC MAC iteration:
/// weight read, address ALU, input read, multiply, add, incr, branch.
fn mac_bundle() -> OpBundle {
    let mut b = OpBundle::new();
    b.push(Op::FramRead, Phase::Kernel);
    b.push(Op::Alu, Phase::Kernel);
    b.push(Op::FramRead, Phase::Kernel);
    b.push(Op::FxpMul, Phase::Kernel);
    b.push(Op::FxpAdd, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

/// One sparse-tap MAC iteration: offset read + unpack ALU precede the
/// dense sequence.
fn sparse_mac_bundle() -> OpBundle {
    let mut b = OpBundle::new();
    b.push(Op::FramRead, Phase::Kernel); // packed offset / column
    b.push(Op::Alu, Phase::Kernel); // unpack
    b.push(Op::FramRead, Phase::Kernel); // weight
    b.push(Op::Alu, Phase::Kernel); // address
    b.push(Op::FramRead, Phase::Kernel); // input
    b.push(Op::FxpMul, Phase::Kernel);
    b.push(Op::FxpAdd, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

fn conv_layer(dev: &mut Device, m: &DeployedModel, l: &DeployedLayer) -> Result<(), PowerFailure> {
    let DeployedKind::Conv {
        dims,
        weights,
        sparse,
        bias,
        shift,
    } = &l.kind
    else {
        unreachable!("conv_layer on non-conv")
    };
    let [nf, nc, kh, kw] = *dims;
    let [_, h, w] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);
    let dense_iter = mac_bundle();
    let sparse_iter = sparse_mac_bundle();
    let ntaps = nc * kh * kw;
    for f in 0..nf {
        let b = dev.read(*bias, f)?;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = Accum::ZERO;
                match sparse {
                    Some((row_ptr, taps)) => {
                        let start = dev.read(*row_ptr, f)?.raw() as u16 as u32;
                        let end = dev.read(*row_ptr, f + 1)?.raw() as u16 as u32;
                        let mut t = start;
                        while t < end {
                            let funded = dev.consume_bundle(&sparse_iter, (end - t) as u64)? as u32;
                            for k in t..t + funded {
                                let off = dev.prepaid_read(*taps, 2 * k).raw() as u16;
                                let (c, ky, kx) = unpack_tap(off, kh, kw);
                                let wq = dev.prepaid_read(*taps, 2 * k + 1);
                                let xq = dev.prepaid_read(src, (c * h + oy + ky) * w + ox + kx);
                                acc.mac(xq, wq);
                            }
                            t += funded;
                            if t < end {
                                // Scalar replay of the unfunded iteration:
                                // the brown-out lands on the exact op.
                                let off = dev.read(*taps, 2 * t)?.raw() as u16;
                                dev.consume(Op::Alu)?; // unpack
                                let (c, ky, kx) = unpack_tap(off, kh, kw);
                                let wq = dev.read(*taps, 2 * t + 1)?;
                                dev.consume(Op::Alu)?; // address
                                let xq = dev.read(src, (c * h + oy + ky) * w + ox + kx)?;
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
                            let funded =
                                dev.consume_bundle(&dense_iter, (ntaps - pos) as u64)? as u32;
                            // (c, ky, kx) advance incrementally — same
                            // values as unpack_tap, without the per-tap
                            // divisions.
                            let (mut c, mut ky, mut kx) = unpack_tap(pos as u16, kh, kw);
                            for t in pos..pos + funded {
                                let wq = dev.prepaid_read(*weights, f * ntaps + t);
                                let xq = dev.prepaid_read(src, (c * h + oy + ky) * w + ox + kx);
                                acc.mac(xq, wq);
                                kx += 1;
                                if kx == kw {
                                    kx = 0;
                                    ky += 1;
                                    if ky == kh {
                                        ky = 0;
                                        c += 1;
                                    }
                                }
                            }
                            pos += funded;
                            if pos < ntaps {
                                let (c, ky, kx) = unpack_tap(pos as u16, kh, kw);
                                let wq = dev.read(*weights, f * ntaps + pos)?;
                                dev.consume(Op::Alu)?; // address
                                let xq = dev.read(src, (c * h + oy + ky) * w + ox + kx)?;
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
                charge_finish(dev)?;
                dev.write(dst, (f * oh + oy) * ow + ox, finish_acc(acc, *shift, b))?;
            }
        }
    }
    Ok(())
}

fn dense_layer(dev: &mut Device, m: &DeployedModel, l: &DeployedLayer) -> Result<(), PowerFailure> {
    let DeployedKind::Dense {
        dims,
        weights,
        sparse,
        bias,
        shift,
        ..
    } = &l.kind
    else {
        unreachable!("dense_layer on non-dense")
    };
    let [out_n, in_n] = *dims;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);
    let dense_iter = mac_bundle();
    let sparse_iter = fc_sparse_bundle();
    for o in 0..out_n {
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
                    let funded = dev.consume_bundle(&sparse_iter, (end - t) as u64)? as u32;
                    for k in t..t + funded {
                        let col = dev.prepaid_read(*entries, 2 * k).raw() as u16 as u32;
                        let wq = dev.prepaid_read(*entries, 2 * k + 1);
                        let xq = dev.prepaid_read(src, col);
                        acc.mac(xq, wq);
                    }
                    t += funded;
                    if t < end {
                        let col = dev.read(*entries, 2 * t)?.raw() as u16 as u32;
                        let wq = dev.read(*entries, 2 * t + 1)?;
                        dev.consume(Op::Alu)?;
                        let xq = dev.read(src, col)?;
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
                    let funded = dev.consume_bundle(&dense_iter, (in_n - i) as u64)? as u32;
                    for k in i..i + funded {
                        let wq = dev.prepaid_read(*weights, o * in_n + k);
                        let xq = dev.prepaid_read(src, k);
                        acc.mac(xq, wq);
                    }
                    i += funded;
                    if i < in_n {
                        let wq = dev.read(*weights, o * in_n + i)?;
                        dev.consume(Op::Alu)?;
                        let xq = dev.read(src, i)?;
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
        dev.write(dst, o, finish_acc(acc, *shift, b))?;
    }
    Ok(())
}

/// One sparse-FC (row-gather) MAC iteration: column read, weight read,
/// address ALU, input read, multiply, add, incr, branch.
fn fc_sparse_bundle() -> OpBundle {
    let mut b = OpBundle::new();
    b.push(Op::FramRead, Phase::Kernel); // column
    b.push(Op::FramRead, Phase::Kernel); // weight
    b.push(Op::Alu, Phase::Kernel);
    b.push(Op::FramRead, Phase::Kernel); // input
    b.push(Op::FxpMul, Phase::Kernel);
    b.push(Op::FxpAdd, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

/// One max-pool output: the window scan plus the result write.
fn pool_bundle(kh: u32, kw: u32) -> OpBundle {
    let mut b = OpBundle::new();
    for _ in 0..kh * kw {
        b.push(Op::Alu, Phase::Kernel);
        b.push(Op::FramRead, Phase::Kernel);
        b.push(Op::Branch, Phase::Kernel);
    }
    b.push(Op::FramWrite, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

pub(crate) fn pool_layer_direct(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    from: u32,
) -> Result<(), PowerFailure> {
    let DeployedKind::Pool { kh, kw } = l.kind else {
        unreachable!("pool_layer on non-pool")
    };
    let [c, h, w] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let src = m.buf(l.src);
    let dst = m.buf(l.dst);
    let total = c * oh * ow;
    let iter = pool_bundle(kh, kw);
    let pool_one = |dev: &Device, o: u32| -> Q15 {
        let ch = o / (oh * ow);
        let oy = (o / ow) % oh;
        let ox = o % ow;
        let mut best = Q15::MIN;
        for py in 0..kh {
            for px in 0..kw {
                let v = dev.prepaid_read(src, (ch * h + oy * kh + py) * w + ox * kw + px);
                if v > best {
                    best = v;
                }
            }
        }
        best
    };
    let mut o = from;
    while o < total {
        let funded = dev.consume_bundle(&iter, (total - o) as u64)? as u32;
        for k in o..o + funded {
            let best = pool_one(dev, k);
            dev.prepaid_write(dst, k, best);
        }
        o += funded;
        if o < total {
            // Scalar replay of the unfunded output.
            let ch = o / (oh * ow);
            let oy = (o / ow) % oh;
            let ox = o % ow;
            let mut best = Q15::MIN;
            for py in 0..kh {
                for px in 0..kw {
                    dev.consume(Op::Alu)?;
                    let v = dev.read(src, (ch * h + oy * kh + py) * w + ox * kw + px)?;
                    dev.consume(Op::Branch)?;
                    if v > best {
                        best = v;
                    }
                }
            }
            dev.write(dst, o, best)?;
            dev.consume(Op::Incr)?;
            dev.consume(Op::Branch)?;
            o += 1;
        }
    }
    Ok(())
}

/// One in-place ReLU element.
fn relu_bundle() -> OpBundle {
    let mut b = OpBundle::new();
    b.push(Op::FramRead, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b.push(Op::FramWrite, Phase::Kernel);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
    b
}

pub(crate) fn relu_layer_direct(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    from: u32,
) -> Result<(), PowerFailure> {
    let [c, h, w] = l.in_shape;
    let buf = m.buf(l.src);
    let total = c * h * w;
    let iter = relu_bundle();
    let mut i = from;
    while i < total {
        let funded = dev.consume_bundle(&iter, (total - i) as u64)? as u32;
        for k in i..i + funded {
            let v = dev.prepaid_read(buf, k);
            dev.prepaid_write(buf, k, v.relu());
        }
        i += funded;
        if i < total {
            let v = dev.read(buf, i)?;
            dev.consume(Op::Branch)?;
            // In-place: idempotent because relu(relu(x)) == relu(x).
            dev.write(buf, i, v.relu())?;
            dev.consume(Op::Incr)?;
            dev.consume(Op::Branch)?;
            i += 1;
        }
    }
    Ok(())
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
        DeployedKind::Pool { .. } => pool_layer_direct(dev, m, l, 0),
        DeployedKind::Relu => relu_layer_direct(dev, m, l, 0),
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
