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
//! op of an all-scalar execution (see `mcu::bundle`). Each conv and dense
//! output is itself one iteration of an outer loop, its MAC loop nested
//! through [`Step::run_at`], so a funded run covers whole outputs with
//! their finish charge and store. The root `bundles` test suite pins
//! bit-identical traces against the scalar implementation, and this
//! module's tests pin a small network with a brown-out at every op and
//! check its sparse conv, with a `row_ptr` fault at every op, against
//! the same layer charged op by op.

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
/// the filter's taps, sparse or dense, nested in `s` against `site` (the
/// layer's MAC loop). `read_x` reads input word `i` (the stateful
/// backend adds its tag/parity verify).
#[inline(always)]
pub(crate) fn conv_acc(
    s: &mut Step<'_>,
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
            let start = s.read(*row_ptr, f)?.raw() as u16 as u32;
            let end = s.read(*row_ptr, f + 1)?.raw() as u16 as u32;
            s.run_at(
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
            s.run_at(
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
/// entries (sparse) or inputs (dense); `s`, `site` and `read_x` as in
/// [`conv_acc`].
#[inline(always)]
pub(crate) fn dense_acc(
    s: &mut Step<'_>,
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
            let start = s.read(*row_ptr, o)?.raw() as u16 as u32;
            let end = s.read(*row_ptr, o + 1)?.raw() as u16 as u32;
            s.run_at(
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
        None => s.run_at(
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

/// Conv output `p` of filter `f`, whose bias is `b`: its MAC loop
/// against `macs`, the finish and the store.
#[inline(always)]
fn conv_output(
    s: &mut Step<'_>,
    m: &DeployedModel,
    l: &DeployedLayer,
    macs: &mut Site,
    b: Q15,
    [f, p]: [u32; 2],
) -> Result<(), PowerFailure> {
    let DeployedKind::Conv { shift, .. } = &l.kind else {
        unreachable!("conv_output on non-conv")
    };
    let [_, oh, ow] = l.out_shape;
    let src = m.buf(l.src);
    let acc = conv_acc(s, l, macs, [f, p / ow, p % ow], |s, i| s.read(src, i))?;
    charge_finish(s)?;
    s.write(m.buf(l.dst), f * oh * ow + p, finish_acc(acc, *shift, b))
}

/// Every conv output is one iteration of an outer bundled loop — its
/// MAC loop nested against the layer's MAC site, then the finish and
/// the store — so a funded run covers whole outputs. A dense filter's
/// outputs all take one op sequence. A sparse filter's outputs each read
/// the filter's tap range from FRAM, so each sparse filter runs its
/// outputs against a fresh site, and an output is funded only while a
/// peek of that range still gives the tap count the filter started with
/// (an injected flip or stuck bit in `row_ptr` sends it op by op).
fn conv_layer(dev: &mut Device, m: &DeployedModel, l: &DeployedLayer) -> Result<(), PowerFailure> {
    let DeployedKind::Conv {
        dims, bias, sparse, ..
    } = &l.kind
    else {
        unreachable!("conv_layer on non-conv")
    };
    let [_, oh, ow] = l.out_shape;
    let (mut outputs, mut macs) = (Site::default(), Site::default());
    for f in 0..dims[0] {
        let b = dev.read(*bias, f)?;
        let taps = |d: &Device| {
            sparse.map(|(row_ptr, _)| {
                let at = |i| d.peek_at(row_ptr.addr(i)).raw() as u16 as u32;
                at(f + 1).saturating_sub(at(f))
            })
        };
        let taps0 = taps(dev);
        if sparse.is_some() {
            outputs = Site::default();
        }
        dev.run_shaped(
            std::array::from_mut(&mut outputs),
            0..oh * ow,
            &mut (),
            #[inline(always)]
            |d, (), _| (taps(d) == taps0).then_some(0),
            #[inline(always)]
            |s, (), p| conv_output(s, m, l, &mut macs, b, [f, p]),
        )?;
    }
    Ok(())
}

/// Dense output `o`: its MAC loop against `macs`, the bias read, the
/// finish and the store.
#[inline(always)]
fn dense_output(
    s: &mut Step<'_>,
    m: &DeployedModel,
    l: &DeployedLayer,
    macs: &mut Site,
    o: u32,
) -> Result<(), PowerFailure> {
    let DeployedKind::Dense { bias, shift, .. } = &l.kind else {
        unreachable!("dense_output on non-dense")
    };
    let src = m.buf(l.src);
    let acc = dense_acc(s, l, macs, o, |s, i| s.read(src, i))?;
    let b = s.read(*bias, o)?;
    charge_finish(s)?;
    s.write(m.buf(l.dst), o, finish_acc(acc, *shift, b))
}

/// Every dense output is one iteration of an outer bundled loop, as in
/// [`conv_layer`]. A sparse FC's rows each take their own entry count, so
/// its outputs run one at a time, each MAC loop funded from the layer's
/// MAC site.
fn dense_layer(dev: &mut Device, m: &DeployedModel, l: &DeployedLayer) -> Result<(), PowerFailure> {
    let DeployedKind::Dense { dims, sparse, .. } = &l.kind else {
        unreachable!("dense_layer on non-dense")
    };
    let mut macs = Site::default();
    if sparse.is_some() {
        return (0..dims[0]).try_for_each(|o| dense_output(&mut dev.step(), m, l, &mut macs, o));
    }
    dev.run_bundled(
        &mut Site::default(),
        0..dims[0],
        #[inline(always)]
        |s, o| dense_output(s, m, l, &mut macs, o),
    )
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

#[cfg(test)]
mod tests {
    //! A small Base network — a sparse-filter conv, a dense-filter conv
    //! and a dense FC — on 100 µF, pinned against digests recorded from
    //! Base with every output's finish charge and store made op by op:
    //! the fault-free run, and a lone brown-out at every op boundary of
    //! that run. Base bodies fail only by brown-out, so funded and
    //! scalar charging agree exactly.
    //!
    //! Regenerate (after an *intentional* accounting change) with:
    //! `GOLDEN_PRINT=1 cargo test -p sonic baseline::tests -- --nocapture`
    //!
    //! A bit flip or stuck bit in the sparse conv's `row_ptr`, at every op
    //! of that layer, is checked against the same layer charged op by op.

    use super::{conv_output, run_layer};
    use crate::deploy::{deploy, DeployedKind, DeployedLayer, DeployedModel};
    use crate::exec::{run_deployed_observed, Backend};
    use crate::sonic::tests::{fnv, fold_fram, fold_outcome, fold_report};
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::{quantize, QModel};
    use dnn::tensor::Tensor;
    use fxp::Q15;
    use mcu::{Device, DeviceSpec, FaultKind, FaultPlan, Phase, PowerFailure, PowerSystem, Site};
    use rand::SeedableRng;

    /// The fixture: a 2-filter 3×3 conv pruned to every fourth tap
    /// (deployed sparse), ReLU, a dense 2-filter 2×2 conv, and a dense
    /// FC, on a 1×6×6 input.
    fn fixture() -> (QModel, Vec<Q15>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut model = Model::new(vec![
            Layer::conv2d(2, 1, 3, 3, &mut rng),
            Layer::relu(),
            Layer::conv2d(2, 2, 2, 2, &mut rng),
            Layer::flatten(),
            Layer::dense(18, 3, &mut rng),
        ]);
        let mut mask = Tensor::zeros(vec![2, 1, 3, 3]);
        for (i, m) in mask.data_mut().iter_mut().enumerate() {
            if i % 4 == 1 {
                *m = 1.0;
            }
        }
        model.layers_mut()[0].set_mask(mask);
        let shape = [1usize, 6, 6];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
        let input = qm.quantize_input(&x);
        (qm, input)
    }

    /// The fixture deployed on `power` with its input loaded.
    fn deployed(power: PowerSystem) -> (Device, DeployedModel) {
        let (qm, input) = fixture();
        let mut dev = Device::new(DeviceSpec::msp430fr5994(), power);
        let dm = deploy(&mut dev, &qm).expect("fits");
        assert!(
            dm.layers.iter().any(|l| matches!(
                l.kind,
                DeployedKind::Conv {
                    sparse: Some(_),
                    ..
                }
            )),
            "the first conv must deploy sparse"
        );
        dm.load_input(&mut dev, &input);
        (dev, dm)
    }

    /// One Base run on a copy of the deployed fixture with a brown-out
    /// armed at inference op `t` (none for `None`): the op index and
    /// FRAM image at every crash, the outcome with its per-region trace,
    /// the op count and the final FRAM image. Also returns the run's op
    /// count.
    fn run_base((dev, dm): &(Device, DeployedModel), t: Option<u64>) -> (u64, u64) {
        let mut dev = dev.clone();
        let base = dev.ops_consumed();
        if let Some(t) = t {
            dev.arm_faults(&FaultPlan::at(base + t));
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let o = run_deployed_observed(&mut dev, dm, &Backend::Baseline, |dev, _, _| {
            fnv(&mut h, dev.ops_consumed() - base);
            fold_fram(&mut h, dev);
        });
        fold_outcome(&mut h, &o);
        let ops = dev.ops_consumed() - base;
        fnv(&mut h, ops);
        fold_fram(&mut h, &dev);
        (h, ops)
    }

    #[test]
    fn base_fixture_every_brownout_matches_the_record() {
        let fixture = deployed(PowerSystem::harvested(100e-6));
        let (clean, total) = run_base(&fixture, None);
        let mut sweep = 0xcbf2_9ce4_8422_2325u64;
        for t in 0..=total {
            fnv(&mut sweep, run_base(&fixture, Some(t)).0);
        }
        let got = [
            (format!("clean/{total} ops"), clean),
            ("every brown-out".into(), sweep),
        ];
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

    /// Base's conv layer `l` with every output charged op by op: each
    /// runs its production body through a scalar-mode step.
    fn conv_op_by_op(
        dev: &mut Device,
        m: &DeployedModel,
        l: &DeployedLayer,
    ) -> Result<(), PowerFailure> {
        let DeployedKind::Conv { dims, bias, .. } = &l.kind else {
            unreachable!("a conv layer")
        };
        let [_, oh, ow] = l.out_shape;
        dev.set_context(l.region, Phase::Kernel);
        let mut macs = Site::default();
        for f in 0..dims[0] {
            let b = dev.read(*bias, f)?;
            for p in 0..oh * ow {
                conv_output(&mut dev.step(), m, l, &mut macs, b, [f, p])?;
            }
        }
        Ok(())
    }

    /// Everything a layer pass leaves: whether it completed,
    /// the op count, the remaining charge, the trace and the FRAM image.
    fn digest(dev: &Device, r: Result<(), PowerFailure>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut h, u64::from(r.is_ok()));
        fnv(&mut h, dev.ops_consumed());
        fnv(&mut h, dev.charge_pj());
        fold_report(&mut h, &dev.trace().report());
        fold_fram(&mut h, dev);
        h
    }

    #[test]
    fn a_row_ptr_fault_mid_filter_charges_like_the_op_by_op_run() {
        for power in [PowerSystem::continuous(), PowerSystem::harvested(100e-6)] {
            let (dev, dm) = deployed(power.clone());
            let conv = &dm.layers[0];
            let DeployedKind::Conv {
                sparse: Some((row_ptr, _)),
                ..
            } = conv.kind
            else {
                panic!("the first layer is the sparse conv")
            };
            // Bit 0 of the filter boundary moves it by one tap; both
            // filters keep a tap, so either way it stays in the tap array.
            let ptr = |i| dev.peek_at(row_ptr.addr(i)).raw();
            assert!(0 < ptr(1) && ptr(1) < ptr(2), "both filters keep a tap");
            let addr = row_ptr.addr(1);
            let flip = FaultKind::BitFlip { addr, bit: 0 };
            let stuck = |high| FaultKind::StuckAt { addr, bit: 0, high };
            let run = |plan: &[(u64, FaultKind)], op_by_op: bool| {
                let mut dev = dev.clone();
                let base = dev.ops_consumed();
                dev.arm_faults(&FaultPlan::faults(plan.iter().map(|&(t, k)| (base + t, k))));
                let r = if op_by_op {
                    conv_op_by_op(&mut dev, &dm, conv)
                } else {
                    run_layer(&mut dev, &dm, conv)
                };
                digest(&dev, r)
            };
            let conv_ops = {
                let mut d = dev.clone();
                run_layer(&mut d, &dm, conv).expect("the conv fits the buffer");
                d.ops_consumed() - dev.ops_consumed()
            };
            // A lone fault, and a flip undone about one output later.
            for t in 0..conv_ops {
                for plan in [
                    &[(t, flip)][..],
                    &[(t, stuck(false))],
                    &[(t, stuck(true))],
                    &[(t, flip), (t + 40, flip)],
                ] {
                    assert_eq!(
                        run(plan, false),
                        run(plan, true),
                        "{power:?}, faults {plan:?}: Base diverged from its op-by-op run"
                    );
                }
            }
        }
    }

    /// Recorded from Base with each output's finish and store charged
    /// op by op.
    const GOLDEN: [u64; 2] = [
        0x574810f9917294a7, // clean/2497 ops
        0x3faec3d1ea31accc, // every brown-out
    ];
}
