//! Property tests: for randomly generated networks and inputs, each
//! runtime's intermittent execution is bit-identical to its continuous
//! execution — the paper's core correctness guarantee.
//!
//! Brown-outs are sampled two ways. The deterministic properties drive
//! [`FaultPlan`] through [`run_inference_faulted`]: the sampled fault
//! schedule pins a brown-out to an exact charged-op boundary, so a
//! failure shrinks to a reproducible (seed, boundary) pair instead of a
//! capacitor size whose natural failure points drift with any accounting
//! change. One property keeps the organic path — a harvested capacitor
//! whose buffer genuinely runs dry mid-inference — so the natural
//! brown-out machinery stays covered end to end.

use proptest::prelude::*;
use rand::SeedableRng;
use sonic_tails::dnn::layers::Layer;
use sonic_tails::dnn::model::Model;
use sonic_tails::dnn::quant::quantize;
use sonic_tails::dnn::tensor::Tensor;
use sonic_tails::mcu::{Device, DeviceSpec, FaultKind, FaultPlan, PowerSystem};
use sonic_tails::sonic::exec::{run_inference, run_inference_faulted, Backend, TailsConfig};
use sonic_tails::sonic::spec::{
    classify_faults, fault_free_reference, stateful_tag_words, CorruptionOutcome,
};

/// Case count: 12 in the tier-1 run, raised via `PROPTEST_CASES` in the
/// gating CI smoke job.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

fn random_qmodel(
    seed: u64,
    filters: usize,
    hidden: usize,
    prune: bool,
) -> (sonic_tails::dnn::quant::QModel, Vec<fxp::Q15>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut model = Model::new(vec![
        Layer::conv2d(filters, 1, 3, 3, &mut rng),
        Layer::relu(),
        Layer::maxpool(2),
        Layer::flatten(),
        Layer::dense(filters * 5 * 5, hidden, &mut rng),
        Layer::relu(),
        Layer::dense(hidden, 4, &mut rng),
    ]);
    if prune {
        let l = &mut model.layers_mut()[4];
        if let Layer::Dense(d) = l {
            let mut mask = Tensor::zeros(d.w.shape().to_vec());
            for (i, m) in mask.data_mut().iter_mut().enumerate() {
                if i % 5 == 0 {
                    *m = 1.0;
                }
            }
            l.set_mask(mask);
        }
    }
    let shape = [1usize, 12, 12];
    let calib: Vec<Tensor> = (0..2)
        .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
        .collect();
    let qm = quantize(&mut model, &shape, &calib);
    let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
    let input = qm.quantize_input(&x);
    (qm, input)
}

/// Maps sampled unit-interval fractions onto concrete charged-op
/// boundaries of the fault-free run.
fn boundaries(fracs: &[f64], ops: u64) -> Vec<u64> {
    let mut t: Vec<u64> = fracs
        .iter()
        .map(|f| ((f * ops as f64) as u64).min(ops - 1))
        .collect();
    t.sort_unstable();
    t.dedup();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    #[test]
    fn sonic_faulted_matches_continuous(
        seed in 0u64..1000,
        filters in 2usize..5,
        hidden in 4usize..12,
        prune in any::<bool>(),
        fracs in prop::collection::vec(0.0f64..1.0, 1..5),
    ) {
        let (qm, input) = random_qmodel(seed, filters, hidden, prune);
        let spec = DeviceSpec::msp430fr5994();
        let b = Backend::Sonic;
        let (expected, ops) = fault_free_reference(&qm, &input, &spec, &b);
        let plan = FaultPlan::at_each(boundaries(&fracs, ops));
        let out = run_inference_faulted(
            &qm, &input, &spec, PowerSystem::continuous(), &b, &plan,
        );
        prop_assert!(out.completed, "{:?}", out.failure);
        prop_assert_eq!(out.output, expected);
    }

    #[test]
    fn tails_faulted_matches_continuous(
        seed in 0u64..1000,
        fracs in prop::collection::vec(0.0f64..1.0, 1..5),
    ) {
        let (qm, input) = random_qmodel(seed, 3, 8, true);
        let spec = DeviceSpec::msp430fr5994();
        let b = Backend::Tails(TailsConfig::default());
        let (expected, ops) = fault_free_reference(&qm, &input, &spec, &b);
        let plan = FaultPlan::at_each(boundaries(&fracs, ops));
        let out = run_inference_faulted(
            &qm, &input, &spec, PowerSystem::continuous(), &b, &plan,
        );
        prop_assert!(out.completed, "{:?}", out.failure);
        prop_assert_eq!(out.output, expected);
    }

    #[test]
    fn tiled_faulted_matches_continuous(
        seed in 0u64..1000,
        tile in prop::sample::select(vec![8u32, 32]),
        fracs in prop::collection::vec(0.0f64..1.0, 1..5),
    ) {
        let (qm, input) = random_qmodel(seed, 3, 8, false);
        let spec = DeviceSpec::msp430fr5994();
        let b = Backend::Tiled(tile);
        let (expected, ops) = fault_free_reference(&qm, &input, &spec, &b);
        let plan = FaultPlan::at_each(boundaries(&fracs, ops));
        let out = run_inference_faulted(
            &qm, &input, &spec, PowerSystem::continuous(), &b, &plan,
        );
        prop_assert!(out.completed, "{:?}", out.failure);
        prop_assert_eq!(out.output, expected);
    }

    /// The stateful progress-embedding backend on random networks: with
    /// no loop words and no redo log, arbitrary multi-fault brown-out
    /// schedules must still recover bit-exactly through the reboot-time
    /// binary search over the embedded tags.
    #[test]
    fn stateful_faulted_matches_continuous(
        seed in 0u64..1000,
        filters in 2usize..5,
        hidden in 4usize..12,
        prune in any::<bool>(),
        fracs in prop::collection::vec(0.0f64..1.0, 1..5),
    ) {
        let (qm, input) = random_qmodel(seed, filters, hidden, prune);
        let spec = DeviceSpec::msp430fr5994();
        let b = Backend::Stateful;
        let (expected, ops) = fault_free_reference(&qm, &input, &spec, &b);
        let plan = FaultPlan::at_each(boundaries(&fracs, ops));
        let out = run_inference_faulted(
            &qm, &input, &spec, PowerSystem::continuous(), &b, &plan,
        );
        prop_assert!(out.completed, "{:?}", out.failure);
        prop_assert_eq!(out.output, expected);
    }

    /// Compound faults against the stateful backend: a brown-out, a
    /// second brown-out a few ops later (often landing inside the
    /// reboot-time seek itself), and a bit flip in an embedded tag word.
    /// Whatever the interleaving, the run must end masked, recovered,
    /// aborted, or with faults left unfired after a detected abort —
    /// never a silent wrong answer and never an undetected wedge.
    #[test]
    fn stateful_brownout_mid_seek_plus_tag_flip_never_silently_corrupts(
        seed in 0u64..1000,
        bo_frac in 0.0f64..1.0,
        seek_delta in 1u64..40,
        flip_frac in 0.0f64..1.0,
        word_frac in 0.0f64..1.0,
        bit in 0u8..16,
    ) {
        let (qm, input) = random_qmodel(seed, 2, 6, false);
        let spec = DeviceSpec::msp430fr5994();
        let b = Backend::Stateful;
        let (expected, ops) = fault_free_reference(&qm, &input, &spec, &b);
        let mut probe = Device::new(spec.clone(), PowerSystem::continuous());
        let pm = sonic_tails::sonic::deploy(&mut probe, &qm).unwrap();
        let words = stateful_tag_words(&pm);
        let wi = ((word_frac * words.len() as f64) as usize).min(words.len() - 1);
        let (name, addr) = &words[wi];
        let t_bo = ((bo_frac * ops as f64) as u64).min(ops - 1);
        let t_flip = ((flip_frac * ops as f64) as u64).min(ops - 1);
        let plan = [
            (t_bo, FaultKind::Brownout),
            // The recovery seek starts right after the reboot; a second
            // brown-out a handful of charged ops later interrupts it.
            (t_bo + seek_delta, FaultKind::Brownout),
            (t_flip, FaultKind::BitFlip { addr: *addr, bit }),
        ];
        let out = classify_faults(&qm, &input, &spec, &b, &plan, &expected);
        prop_assert!(
            !matches!(out, CorruptionOutcome::SilentWrong | CorruptionOutcome::Wedged),
            "{}.bit{} flip @#{} with brown-outs @#{}/#{}: {:?}",
            name, bit, t_flip, t_bo, t_bo + seek_delta, out
        );
    }

    /// The organic path: a harvested capacitor small enough that the
    /// buffer runs dry mid-inference, exercising natural brown-out
    /// detection (no injection) across all the moving parts at once.
    #[test]
    fn sonic_natural_harvest_matches_continuous(
        seed in 0u64..1000,
        filters in 2usize..5,
        hidden in 4usize..12,
        prune in any::<bool>(),
        cap_uf in 3.0f64..40.0,
    ) {
        let (qm, input) = random_qmodel(seed, filters, hidden, prune);
        let spec = DeviceSpec::msp430fr5994();
        let cont = run_inference(&qm, &input, &spec, PowerSystem::continuous(), &Backend::Sonic);
        let inter = run_inference(
            &qm, &input, &spec,
            PowerSystem::harvested(cap_uf * 1e-6),
            &Backend::Sonic,
        );
        prop_assert!(inter.completed);
        prop_assert_eq!(inter.output, cont.output);
    }
}
