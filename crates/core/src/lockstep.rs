//! Lockstep batching: amortizing the energy-metered simulator across
//! same-plan inference runs.
//!
//! A fleet cell runs the *same deployed model* on the *same power system*
//! over many inputs. On continuous, fault-free power every run charges the
//! identical op sequence — the per-run [`TraceReport`] is input-invariant
//! — so metering each run individually repeats the same accounting
//! arithmetic N times. This module exploits that:
//!
//! 1. **Leader runs** execute on the real [`Device`], fully metered.
//!    Consecutive completed runs whose trace reports compare equal prove
//!    the deployment has reached its *steady trace* (TAILS needs one
//!    extra run for LEA/DMA calibration).
//! 2. **Twin runs** then compute the logits on the host from the
//!    [`QModel`] the cell was deployed from, in the backend family's exact
//!    Q1.15 arithmetic, and inherit the leader's trace and scheduler stats
//!    verbatim. The baseline twin is [`QModel::forward_host_with`]; the
//!    loop-ordered (SONIC, Tile-N), TAILS and stateful twins are
//!    [`QKernels`] run over the same layer walk ([`QModel::forward_with`]).
//!    The stateful twin is [`FullPrecision`] over words masked to
//!    [`VALUE_MASK`](crate::stateful::VALUE_MASK). Its tags, parity and
//!    seek/audit state need no model: [`crate::stateful::prepare_run`]
//!    clears them before every metered run and the logits are read with
//!    them stripped. The only device state a twin reads is TAILS's
//!    calibrated tile, once, when the fixed point is reached.
//! 3. Every `lanes`-th run re-meters on the real device and re-checks the
//!    trace fixed point; any divergence (or any non-completed run) drops
//!    back to scalar metering until the fixed point is re-established.
//!    Debug builds also run the twin on every steady leader's input and
//!    assert that its logits equal the metered ones.
//!
//! Harvested power, armed fault plans, and `lanes < 2` never enter the
//! twin path: those runs drain through the untouched scalar simulator, so
//! brown-out tails, fault injection, and corruption semantics are
//! byte-for-byte what they always were.

use crate::deploy::{deploy, DeployedModel};
use crate::exec::{run_deployed, Backend, InferenceOutcome};
use crate::stateful::value_of;
use dnn::quant::{
    filter_taps, finish_acc, FullPrecision, HostScratch, QConv, QDense, QKernels, QModel,
};
use fxp::vecops::dot;
use fxp::{Accum, Q15};
use mcu::{Device, DeviceSpec, PowerSystem, TraceReport};

/// Lane width used when the caller does not pick one explicitly: 8.
/// Lane width never changes a result; callers that want another width
/// (1 is pure scalar metering) pass it explicitly.
pub fn default_lanes() -> usize {
    8
}

/// The shift + bias finishing pass over saturating Q1.15 chains.
fn finish(chains: &mut [Q15], shift: i32, bias: Q15) {
    for v in chains {
        *v = finish_acc(Accum::from_q15(*v), shift, bias);
    }
}

/// A fully-connected layer as per-output saturating chains `v += x * w`
/// over ascending columns, from zero. That is SONIC's and Tile-N's dense
/// walk, and the column-major sparse scatter reaches each output's
/// entries in the same ascending-column order, so the CSR rows give the
/// same chains. TAILS runs sparse FC in this software path too (§7.2).
fn dense_chains(d: &QDense, x: &[Q15], out: &mut Vec<Q15>) {
    let in_n = d.dims[1];
    out.clear();
    for (o, &b) in d.bias.iter().enumerate() {
        let v = match &d.sparse {
            Some(s) => {
                let k = s.row_ptr[o] as usize..s.row_ptr[o + 1] as usize;
                let terms = s.col[k.clone()].iter().zip(&s.val[k]);
                terms.fold(Q15::ZERO, |v, (&j, &w)| v + x[j as usize] * w)
            }
            None => {
                let row = &d.weights[o * in_n..(o + 1) * in_n];
                row.iter().zip(x).fold(Q15::ZERO, |v, (&w, &xv)| v + xv * w)
            }
        };
        out.push(finish_acc(Accum::from_q15(v), d.shift, b));
    }
}

/// Loop-ordered buffering (SONIC, SONIC-no-undo, Tile-N). Each conv
/// output element is a saturating chain `v += x * w` over its filter's
/// taps in `(c, ky, kx)` order, from zero: SONIC's tap-by-tap plane
/// ping-pong and Tile-N's in-place accumulation into a zeroed plane both
/// compute exactly that chain. The planes are per-element dataflow, so
/// the twin keeps each chain in the output buffer and never materializes
/// them.
#[derive(Default)]
struct LoopOrdered {
    /// One filter's [`filter_taps`].
    taps: Vec<(usize, Q15)>,
}

impl QKernels for LoopOrdered {
    fn conv(&mut self, c: &QConv, x: &[Q15], shape: &[usize], out: &mut Vec<Q15>) {
        let [nf, _, kh, kw] = c.dims;
        let (h, w) = (shape[1], shape[2]);
        let (oh, ow) = (h - kh + 1, w - kw + 1);
        out.clear();
        out.resize(nf * oh * ow, Q15::ZERO);
        for (f, plane) in out.chunks_exact_mut(oh * ow).enumerate() {
            filter_taps(c, f, h, w, &mut self.taps);
            // Row-wise: each tap is one slice-contiguous pass over an
            // output row, taps in chain order, which vectorizes.
            for (r, row) in plane.chunks_exact_mut(ow).enumerate() {
                for &(base, wq) in &self.taps {
                    for (v, &xv) in row.iter_mut().zip(&x[base + r * w..][..ow]) {
                        *v += xv * wq;
                    }
                }
                finish(row, c.shift, c.bias[f]);
            }
        }
    }

    fn dense(&mut self, d: &QDense, x: &[Q15], out: &mut Vec<Q15>) {
        dense_chains(d, x, out);
    }
}

/// TAILS (§7): LEA FIR convolution per (channel, kernel row) group and
/// calibrated chunked dot products for dense FC.
#[derive(Default)]
struct Tails {
    /// The calibrated LEA/DMA tile ([`DeployedModel::calib`]); 0 until the
    /// fixed point is reached.
    tile: usize,
}

impl QKernels for Tails {
    /// Each output element is a chain of per-group FIR results, each an
    /// exact wide sum rounded to Q1.15, joined by saturating adds in
    /// ascending group order (the group ping-pong is per-element
    /// dataflow). The dense weights are the LEA's zero-padded filters; an
    /// all-zero group adds an exact zero and is skipped.
    fn conv(&mut self, c: &QConv, x: &[Q15], shape: &[usize], out: &mut Vec<Q15>) {
        let [nf, nc, kh, kw] = c.dims;
        let (h, w) = (shape[1], shape[2]);
        let (oh, ow) = (h - kh + 1, w - kw + 1);
        out.clear();
        out.resize(nf * oh * ow, Q15::ZERO);
        for (f, plane) in out.chunks_exact_mut(oh * ow).enumerate() {
            for g in 0..nc * kh {
                let taps = &c.weights[(f * nc * kh + g) * kw..][..kw];
                if taps.iter().all(|t| t.is_zero()) {
                    continue;
                }
                let src = &x[(g / kh * h + g % kh) * w..];
                for (r, row) in plane.chunks_exact_mut(ow).enumerate() {
                    let xs = &src[r * w..][..ow + kw - 1];
                    for (v, win) in row.iter_mut().zip(xs.windows(kw)) {
                        *v += dot(win, taps).to_q15();
                    }
                }
            }
            finish(plane, c.shift, c.bias[f]);
        }
    }

    /// Each output joins its per-chunk dot products (exact wide sums, each
    /// rounded to Q1.15) with saturating adds in ascending chunk order.
    fn dense(&mut self, d: &QDense, x: &[Q15], out: &mut Vec<Q15>) {
        if d.sparse.is_some() {
            return dense_chains(d, x, out);
        }
        out.clear();
        for (row, &b) in d.weights.chunks_exact(d.dims[1]).zip(&d.bias) {
            let chunks = x.chunks(self.tile).zip(row.chunks(self.tile));
            let v = chunks.fold(Q15::ZERO, |v, (xs, ws)| v + dot(xs, ws).to_q15());
            out.push(finish_acc(Accum::from_q15(v), d.shift, b));
        }
    }
}

/// The stateful backend: exact wide accumulation in any tap order, so
/// [`FullPrecision`], except that every stored word keeps only its
/// [`VALUE_MASK`](crate::stateful::VALUE_MASK) bits. Max-pool and ReLU
/// map masked words to masked words, so masking the input and each
/// conv/FC output is exact.
#[derive(Default)]
struct Masked(FullPrecision);

impl QKernels for Masked {
    fn conv(&mut self, c: &QConv, x: &[Q15], shape: &[usize], out: &mut Vec<Q15>) {
        self.0.conv(c, x, shape, out);
        out.iter_mut().for_each(|v| *v = value_of(*v));
    }

    fn dense(&mut self, d: &QDense, x: &[Q15], out: &mut Vec<Q15>) {
        self.0.dense(d, x, out);
        out.iter_mut().for_each(|v| *v = value_of(*v));
    }
}

/// The twin of one backend family, with its reusable scratch.
enum Twin {
    Baseline(HostScratch),
    LoopOrdered(HostScratch<LoopOrdered>),
    Tails(HostScratch<Tails>),
    /// With the masked copy of the input.
    Stateful(HostScratch<Masked>, Vec<Q15>),
}

impl Twin {
    fn forward(&mut self, qm: &QModel, x: &[Q15]) -> Vec<Q15> {
        match self {
            Twin::Baseline(s) => qm.forward_host_with(x, s),
            Twin::LoopOrdered(s) => qm.forward_with(x, s),
            Twin::Tails(s) => qm.forward_with(x, s),
            Twin::Stateful(s, masked) => {
                masked.clear();
                masked.extend(x.iter().copied().map(value_of));
                qm.forward_with(masked, s)
            }
        }
    }
}

/// Drives a sequence of same-deployment runs through the steady-trace
/// batching policy: metered leader runs on the real device, twin runs on
/// the host once the per-run trace has reached its fixed point.
pub(crate) struct BatchRunner<'a> {
    qm: &'a QModel,
    lanes: usize,
    enabled: bool,
    backend: Backend,
    twin: Twin,
    idx: usize,
    prev: Option<TraceReport>,
    /// The last metered run, while the trace is at its fixed point.
    leader: Option<InferenceOutcome>,
    twin_runs: u64,
}

impl<'a> BatchRunner<'a> {
    /// Twin runs only ever engage on continuous power with `lanes >= 2`;
    /// any other configuration meters every run (the scalar drain). `qm`
    /// is the model the device was deployed from.
    pub(crate) fn new(
        qm: &'a QModel,
        backend: &Backend,
        power: &PowerSystem,
        lanes: usize,
    ) -> BatchRunner<'a> {
        BatchRunner {
            qm,
            lanes: lanes.max(1),
            enabled: lanes >= 2 && matches!(power, PowerSystem::Continuous),
            backend: *backend,
            twin: match backend {
                Backend::Tails(_) => Twin::Tails(HostScratch::default()),
                Backend::Tiled(_) | Backend::Sonic | Backend::SonicNoUndo => {
                    Twin::LoopOrdered(HostScratch::default())
                }
                // Every metered stateful run starts from the same cleared
                // buffers and its logits are read with tags and parity
                // stripped, so the twin models only the masked values.
                Backend::Stateful => Twin::Stateful(HostScratch::default(), Vec::new()),
                Backend::Baseline => Twin::Baseline(HostScratch::default()),
            },
            idx: 0,
            prev: None,
            leader: None,
            twin_runs: 0,
        }
    }

    pub(crate) fn twin_runs(&self) -> u64 {
        self.twin_runs
    }

    /// Runs one inference, choosing the metered or twin path. The caller
    /// must not arm fault plans on `dev` while using a runner with
    /// `lanes >= 2` — faulted jobs take the scalar path upstream.
    pub(crate) fn run(
        &mut self,
        dev: &mut Device,
        dm: &DeployedModel,
        input: &[Q15],
    ) -> InferenceOutcome {
        let i = self.idx;
        self.idx += 1;
        if let Some(leader) = &self.leader {
            if !i.is_multiple_of(self.lanes) {
                let mut out = leader.clone();
                out.output = self.twin.forward(self.qm, input);
                out.class = fxp::vecops::argmax(&out.output);
                self.twin_runs += 1;
                return out;
            }
        }
        if self.enabled {
            debug_assert_eq!(dev.pending_faults(), 0, "BatchRunner on a faulted device");
        }
        dm.load_input(dev, input);
        let out = run_deployed(dev, dm, &self.backend);
        self.observe(dev, dm, input, &out);
        out
    }

    fn observe(&mut self, dev: &Device, dm: &DeployedModel, input: &[Q15], out: &InferenceOutcome) {
        if !self.enabled {
            return;
        }
        if !out.completed || out.corruption_detected != 0 {
            self.prev = None;
            self.leader = None;
            return;
        }
        if self.prev.as_ref() == Some(&out.trace) {
            if let (None, Twin::Tails(s)) = (&self.leader, &mut self.twin) {
                // The calibrated tile persists in FRAM; the fixed point
                // needs two completed runs, so calibration has settled.
                let tile = dev.peek_word(dm.calib);
                assert!(tile > 0, "TAILS calibration word unset at the fixed point");
                s.kernels.tile = tile as usize;
            }
            debug_assert_eq!(
                self.twin.forward(self.qm, input),
                out.output,
                "{}: twin logits diverge from the metered leader",
                self.backend
            );
            self.leader = Some(out.clone());
        } else {
            self.leader = None;
        }
        self.prev = Some(out.trace.clone());
    }
}

/// Deploys `qm` once and runs every input through the lockstep batch
/// runner: metered leader runs plus bit-identical host twins with lane
/// width `lanes` (see the [module docs](self)). `lanes = 1` is exactly
/// the scalar sequence of [`run_deployed`] calls on one deployment;
/// harvested power and `lanes < 2` always meter every run.
///
/// # Panics
///
/// Panics if the model does not fit in FRAM (see
/// [`crate::run_inference`]).
pub fn run_inference_batch(
    qm: &QModel,
    inputs: &[Vec<Q15>],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
    lanes: usize,
) -> Vec<InferenceOutcome> {
    run_inference_batch_counted(qm, inputs, spec, power, backend, lanes).0
}

/// [`run_inference_batch`] plus the number of runs the twin path served
/// (diagnostics for tests and benches).
pub(crate) fn run_inference_batch_counted(
    qm: &QModel,
    inputs: &[Vec<Q15>],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
    lanes: usize,
) -> (Vec<InferenceOutcome>, u64) {
    let mut dev = Device::new(spec.clone(), power);
    let dm = deploy(&mut dev, qm).expect("model must fit in FRAM");
    let mut runner = BatchRunner::new(qm, backend, dev.power(), lanes);
    let outs = inputs
        .iter()
        .map(|x| runner.run(&mut dev, &dm, x))
        .collect();
    (outs, runner.twin_runs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::TailsConfig;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::{quantize, QLayer};
    use dnn::tensor::Tensor;
    use rand::SeedableRng;

    /// Small CNN exercising every twin kernel: a dense 3×3 conv, a pruned
    /// (sparse-tap) conv with some all-zero kernel rows, a separated
    /// `[R, C, 1, 5]` conv, relu, pool, sparse FC (scatter), dense FC —
    /// plus `n` distinct quantized inputs.
    fn fixture(n: usize) -> (QModel, Vec<Vec<Q15>>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let mut model = Model::new(vec![
            Layer::conv2d(4, 1, 3, 3, &mut rng),
            Layer::conv2d(4, 4, 3, 3, &mut rng),
            Layer::conv2d(4, 4, 1, 5, &mut rng),
            Layer::relu(),
            Layer::maxpool(2),
            Layer::flatten(),
            Layer::dense(4 * 6 * 4, 12, &mut rng),
            Layer::relu(),
            Layer::dense(12, 4, &mut rng),
        ]);
        let mask = |shape: Vec<usize>, keep: fn(usize) -> bool| {
            let mut m = Tensor::zeros(shape);
            for (i, v) in m.data_mut().iter_mut().enumerate() {
                *v = if keep(i) { 1.0 } else { 0.0 };
            }
            m
        };
        // Every third kernel row all zero, the others kept in part:
        // density 1/3.
        model.layers_mut()[1].set_mask(mask(vec![4, 4, 3, 3], |i| i / 3 % 3 != 0 && i % 2 == 0));
        model.layers_mut()[6].set_mask(mask(vec![12, 4 * 6 * 4], |i| i % 7 == 0));
        let shape = [1usize, 16, 16];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let convs: Vec<&QConv> = qm
            .layers
            .iter()
            .filter_map(|l| match l {
                QLayer::Conv(c) => Some(c),
                _ => None,
            })
            .collect();
        assert!(convs[1].sparse.is_some() && convs[2].dims[3] == 5);
        let inputs = (0..n)
            .map(|_| qm.quantize_input(&Tensor::uniform(shape.to_vec(), 0.9, &mut rng)))
            .collect();
        (qm, inputs)
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::msp430fr5994()
    }

    fn backends() -> Vec<Backend> {
        vec![
            Backend::Baseline,
            Backend::Tiled(32),
            Backend::Sonic,
            Backend::SonicNoUndo,
            Backend::Tails(TailsConfig::default()),
            Backend::Stateful,
        ]
    }

    #[test]
    fn batched_outcomes_are_bit_identical_to_scalar() {
        let (qm, inputs) = fixture(12);
        for b in backends() {
            let (scalar, t_scalar) = run_inference_batch_counted(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &b,
                1,
            );
            assert_eq!(t_scalar, 0, "{b}: lanes=1 must never twin");
            let (batched, t_batch) = run_inference_batch_counted(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &b,
                4,
            );
            assert!(
                t_batch >= 4,
                "{b}: twins never engaged ({t_batch} twin runs)"
            );
            for (i, (s, x)) in scalar.iter().zip(&batched).enumerate() {
                assert!(s.completed && x.completed, "{b}: run {i} not completed");
                assert_eq!(s.output, x.output, "{b}: run {i} output diverges");
                assert_eq!(s.class, x.class, "{b}: run {i} class diverges");
                assert_eq!(s.trace, x.trace, "{b}: run {i} trace diverges");
                assert_eq!(s.stats, x.stats, "{b}: run {i} stats diverge");
                assert_eq!(s.corruption_detected, x.corruption_detected);
                assert!(x.failure.is_none());
            }
        }
    }

    #[test]
    fn stateful_twins_are_bit_identical_at_every_width() {
        // The stateful twin models only the masked arithmetic: tags and
        // parity are cleared before every metered run and stripped from
        // its logits. Every lane width must twin and stay bit-identical.
        let (qm, inputs) = fixture(8);
        let b = Backend::Stateful;
        let (scalar, t1) =
            run_inference_batch_counted(&qm, &inputs, &spec(), PowerSystem::continuous(), &b, 1);
        assert_eq!(t1, 0);
        for lanes in [2, 4, 8] {
            let (batched, twins) = run_inference_batch_counted(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &b,
                lanes,
            );
            assert!(twins > 0, "lanes={lanes}: stateful runs never twinned");
            for (i, (s, x)) in scalar.iter().zip(&batched).enumerate() {
                assert!(s.completed && x.completed, "run {i} not completed");
                assert_eq!(s.output, x.output, "lanes={lanes}: run {i} output diverges");
                assert_eq!(s.trace, x.trace, "lanes={lanes}: run {i} trace diverges");
                assert_eq!(s.stats, x.stats, "lanes={lanes}: run {i} stats diverge");
            }
        }
    }

    #[test]
    fn intermittent_stateful_runs_match_the_masked_twin() {
        // Brown-outs, seeks and resumed passes must not change the
        // logits: every completed harvested run equals the stateful twin.
        let (qm, inputs) = fixture(4);
        let outs = run_inference_batch(
            &qm,
            &inputs,
            &spec(),
            PowerSystem::harvested(100e-6),
            &Backend::Stateful,
            1,
        );
        assert!(
            outs.iter().any(|o| o.trace.reboots > 0),
            "no harvested stateful run rebooted"
        );
        let mut twin = Twin::Stateful(HostScratch::default(), Vec::new());
        let mut completed = 0;
        for (i, (o, x)) in outs.iter().zip(&inputs).enumerate() {
            if o.completed {
                completed += 1;
                assert_eq!(
                    o.output,
                    twin.forward(&qm, x),
                    "run {i} diverges from the twin"
                );
            }
        }
        assert!(completed > 0, "no harvested stateful run completed");
    }

    #[test]
    fn harvested_power_always_meters() {
        let (qm, inputs) = fixture(4);
        let power = || PowerSystem::harvested(100e-6);
        let (scalar, _) =
            run_inference_batch_counted(&qm, &inputs, &spec(), power(), &Backend::Sonic, 1);
        let (batched, twins) =
            run_inference_batch_counted(&qm, &inputs, &spec(), power(), &Backend::Sonic, 8);
        assert_eq!(twins, 0, "harvested runs must drain through the meter");
        for (s, x) in scalar.iter().zip(&batched) {
            assert_eq!(s.output, x.output);
            assert_eq!(s.trace, x.trace);
        }
    }

    #[test]
    fn lane_width_does_not_change_results() {
        let (qm, inputs) = fixture(10);
        let base = run_inference_batch(
            &qm,
            &inputs,
            &spec(),
            PowerSystem::continuous(),
            &Backend::Sonic,
            1,
        );
        for lanes in [2, 4, 8] {
            let got = run_inference_batch(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &Backend::Sonic,
                lanes,
            );
            for (s, x) in base.iter().zip(&got) {
                assert_eq!(s.output, x.output, "lanes={lanes}");
                assert_eq!(s.trace, x.trace, "lanes={lanes}");
            }
        }
    }
}
