//! Tier-1 crash-consistency suite: differential brown-out injection
//! against the executable spec in `sonic::spec`.
//!
//! The `exhaustive_*` tests force a brown-out at **every** charged op
//! boundary of a small network — including mid-commit-walk and mid-DMA
//! boundaries — for each backend, and require (a) the post-reboot
//! concrete state to refine the abstract machine at every crash and
//! (b) the recovered output to be bit-equal to the fault-free run. The
//! strided tests run the same check over a deeper conv/pool/sparse-FC
//! network at sampled boundaries, and the proptest samples multi-fault
//! schedules.

use proptest::prelude::*;
use rand::SeedableRng;
use sonic_tails::dnn::layers::Layer;
use sonic_tails::dnn::model::Model;
use sonic_tails::dnn::quant::{quantize, QModel};
use sonic_tails::dnn::tensor::Tensor;
use sonic_tails::mcu::{Device, DeviceSpec, FaultKind, PowerSystem};
use sonic_tails::sonic::exec::{Backend, TailsConfig};
use sonic_tails::sonic::spec::{
    check_exhaustive, check_model_state, check_schedule, check_strided, classify_faults,
    control_words, fault_free_reference, CorruptionOutcome,
};

fn msp() -> DeviceSpec {
    DeviceSpec::msp430fr5994()
}

/// The smallest network every backend — including the restart-from-
/// scratch baseline — can run through arbitrary reboots: one dense
/// layer and a ReLU, so the input buffer is never overwritten by the
/// activation ping-pong.
fn small_qmodel() -> (QModel, Vec<fxp::Q15>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut model = Model::new(vec![Layer::dense(10, 8, &mut rng), Layer::relu()]);
    let shape = [10usize];
    let calib: Vec<Tensor> = (0..3)
        .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
        .collect();
    let qm = quantize(&mut model, &shape, &calib);
    let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
    let input = qm.quantize_input(&x);
    (qm, input)
}

/// A deeper network exercising every mechanism the spec models: a DMA-
/// staged convolution (under TAILS), pooling, a pruned sparse FC layer
/// (undo-logged under SONIC, redo-logged under Tile-N), and a plain FC.
fn deep_qmodel() -> (QModel, Vec<fxp::Q15>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let mut model = Model::new(vec![
        Layer::conv2d(2, 1, 3, 3, &mut rng),
        Layer::relu(),
        Layer::maxpool(2),
        Layer::flatten(),
        Layer::dense(8, 6, &mut rng),
        Layer::relu(),
        Layer::dense(6, 3, &mut rng),
    ]);
    let l = &mut model.layers_mut()[4];
    if let Layer::Dense(d) = l {
        let mut mask = Tensor::zeros(d.w.shape().to_vec());
        for (i, m) in mask.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *m = 1.0;
            }
        }
        l.set_mask(mask);
    }
    let shape = [1usize, 6, 6];
    let calib: Vec<Tensor> = (0..2)
        .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
        .collect();
    let qm = quantize(&mut model, &shape, &calib);
    let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
    let input = qm.quantize_input(&x);
    (qm, input)
}

fn exhaustive(backend: Backend) {
    let (qm, input) = small_qmodel();
    let report = check_exhaustive(&qm, &input, &msp(), &backend);
    assert!(report.boundaries > 100, "sweep too small to mean anything");
    assert!(report.crashes >= report.boundaries);
    report.assert_clean();
}

#[test]
fn exhaustive_single_fault_baseline() {
    exhaustive(Backend::Baseline);
}

#[test]
fn exhaustive_single_fault_sonic() {
    exhaustive(Backend::Sonic);
}

#[test]
fn exhaustive_single_fault_tails() {
    exhaustive(Backend::Tails(TailsConfig::default()));
}

#[test]
fn exhaustive_single_fault_tiled() {
    exhaustive(Backend::Tiled(4));
}

#[test]
fn exhaustive_single_fault_stateful() {
    exhaustive(Backend::Stateful);
}

/// Strided sweep over the deep model: a few hundred boundaries per
/// backend, with backend-specific offsets so repeated suite runs cover
/// different residues of the boundary space. Exhaustive coverage of
/// this model is the `crash_spec` bench target.
fn strided(backend: Backend, offset: u64) {
    let (qm, input) = deep_qmodel();
    let (_, ops) = fault_free_reference(&qm, &input, &msp(), &backend);
    let stride = (ops / 199).max(1);
    let report = check_strided(&qm, &input, &msp(), &backend, stride, offset);
    assert!(
        report.boundaries > 50,
        "sweep too small: {}",
        report.boundaries
    );
    report.assert_clean();
}

#[test]
fn strided_deep_sonic() {
    strided(Backend::Sonic, 0);
}

#[test]
fn strided_deep_sonic_no_undo() {
    strided(Backend::SonicNoUndo, 1);
}

#[test]
fn strided_deep_tails() {
    strided(Backend::Tails(TailsConfig::default()), 2);
}

#[test]
fn strided_deep_tiled() {
    strided(Backend::Tiled(8), 3);
}

#[test]
fn strided_deep_stateful() {
    strided(Backend::Stateful, 4);
}

/// A concrete state the runtimes can never produce must be *detected* —
/// the deliberately-broken-invariant check proving the spec has teeth
/// end to end (the in-crate unit tests cover each machine's decode
/// paths individually).
#[test]
fn corrupted_control_words_fail_refinement() {
    let (qm, input) = deep_qmodel();
    let mut dev = Device::new(msp(), PowerSystem::continuous());
    let dm = sonic_tails::sonic::deploy(&mut dev, &qm).unwrap();
    dm.load_input(&mut dev, &input);
    // A conv filter counter past the filter count is unreachable under
    // every discipline.
    let conv = &dm.layers[0];
    dev.store_word(conv.filt, 7).unwrap();
    for backend in [
        Backend::Baseline,
        Backend::Sonic,
        Backend::Tails(TailsConfig::default()),
        Backend::Tiled(8),
        // Stateful never writes loop words, so any non-reset control
        // word is unreachable for it too.
        Backend::Stateful,
    ] {
        let v = check_model_state(&dev, &dm, &backend)
            .expect_err("filt=7 on a 2-filter conv must violate");
        assert!(
            v.divergence.contains("filt") || v.divergence.contains("reset value"),
            "[{}] {v}",
            backend.label()
        );
    }
}

/// Case count for the multi-fault property: 6 in the tier-1 run, raised
/// via `PROPTEST_CASES` in the gating CI smoke job.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Sampled multi-fault schedules: up to five brown-outs per run at
    /// arbitrary boundaries (duplicates collapse via the fault queue),
    /// across the two state disciplines with non-trivial recovery.
    #[test]
    fn multi_fault_schedules_recover_bit_equal(
        raw in prop::collection::vec(0.0f64..1.0, 1..6),
        tiled in any::<bool>(),
    ) {
        let (qm, input) = small_qmodel();
        let backend = if tiled { Backend::Tiled(4) } else { Backend::Sonic };
        let (expected, ops) = fault_free_reference(&qm, &input, &msp(), &backend);
        let mut targets: Vec<u64> = raw
            .iter()
            .map(|f| ((f * ops as f64) as u64).min(ops - 1))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let out = check_schedule(&qm, &input, &msp(), &backend, &targets, &expected);
        prop_assert_eq!(out.crashes, targets.len() as u64);
        prop_assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    /// A brown-out and a control-word bit flip in one schedule, in
    /// either order (or coincident): whatever the interleaving, the run
    /// must end masked, recovered, aborted, or unfired — never a silent
    /// wrong answer and never an undetected wedge. On failure proptest
    /// prints the minimized counterexample and its reproduction seed.
    #[test]
    fn brownout_plus_bit_flip_never_silently_corrupts(
        flip_frac in 0.0f64..1.0,
        bo_frac in 0.0f64..1.0,
        word_frac in 0.0f64..1.0,
        bit in 0u8..16,
        backend_sel in 0usize..3,
    ) {
        let (qm, input) = small_qmodel();
        let backend = match backend_sel {
            0 => Backend::Sonic,
            1 => Backend::Tails(TailsConfig::default()),
            _ => Backend::Tiled(4),
        };
        let (expected, ops) = fault_free_reference(&qm, &input, &msp(), &backend);
        let mut probe = Device::new(msp(), PowerSystem::continuous());
        let pm = sonic_tails::sonic::deploy(&mut probe, &qm).unwrap();
        let words = control_words(&pm);
        let wi = ((word_frac * words.len() as f64) as usize).min(words.len() - 1);
        let (name, w) = &words[wi];
        let t_flip = ((flip_frac * ops as f64) as u64).min(ops - 1);
        let t_bo = ((bo_frac * ops as f64) as u64).min(ops - 1);
        let plan = [
            (t_bo, FaultKind::Brownout),
            (t_flip, FaultKind::BitFlip { addr: w.addr(), bit }),
        ];
        let out = classify_faults(&qm, &input, &msp(), &backend, &plan, &expected);
        prop_assert!(
            !matches!(out, CorruptionOutcome::SilentWrong | CorruptionOutcome::Wedged),
            "{}.bit{} flip @#{} with brown-out @#{} under {}: {:?}",
            name, bit, t_flip, t_bo, backend.label(), out
        );
    }
}
