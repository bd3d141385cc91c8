//! NVM-corruption smoke target: the corruption-differential harness's
//! exhaustive single-bit-flip sweep, at bench scale.
//!
//! For every guarded backend, flips each bit of every control/commit
//! word of a network that exercises each protected mechanism (conv,
//! pool, undo-logged sparse FC, dense, the TAILS calibration pair, the
//! Alpaca commit flag) at several charged-op boundaries, and classifies
//! each flip as masked / recovered / aborted / silent-wrong against the
//! fault-free run. The gate: **zero silent-wrong-output cases** — a
//! guarded backend may lose a run to detected corruption, never emit a
//! wrong answer.
//!
//! A teeth control then flips an *unguarded* activation word and
//! requires the classifier to report silent wrong output, proving the
//! green table above is not vacuous.
//!
//! The stateful progress-embedding backend has no control words; its
//! sweep instead flips every bit of every embedded activation word (the
//! in-band progress tags), under the same gate, and its teeth control is
//! a parity-preserving double flip in one word's value bits.
//!
//! Each sweep runs only the flips whose word is read after the flip
//! point; a first-access watch pass per point decides the rest (see
//! `sonic::spec::check_corruption`). The count it decided is printed per
//! backend below each table.
//!
//! A second table sweeps the Table-2 HAR network (loaded from the model
//! cache, trained on a cold one) under SONIC and TAILS: every control
//! word x 16 bits x 8 boundaries, under the same gate.
//!
//! Environment knobs:
//! - `CORRUPTION_POINTS=n` — op boundaries sampled per (word, bit)
//!   (default 4).
//! - `CORRUPTION_STATEFUL_STRIDE=n` — check every n-th embedded tag word
//!   in the stateful sweep (default 1: every word).
//! - `CORRUPTION_FUZZ_SEED=s` — skip the sweep and instead fuzz random
//!   mixed schedules (a guarded-word flip, half the time with a
//!   brown-out in the same plan) from the given RNG seed; the seed is
//!   printed so any failure replays exactly. `CORRUPTION_FUZZ_CASES=n`
//!   sets the case count (default 64).
//!
//! Exits non-zero on any silent-wrong case (or a toothless control), so
//! it doubles as a CI gate: `cargo bench --bench corruption`.

use rand::Rng as _;
use rand::SeedableRng;
use sonic::exec::{Backend, TailsConfig};
use sonic::spec::{
    check_corruption, check_stateful_corruption, classify_faults, classify_flip, control_words,
    fault_free_reference, stateful_tag_words, unguarded_activation_addr, CorruptionOutcome,
    CorruptionReport,
};

fn deep_qmodel() -> (dnn::quant::QModel, Vec<fxp::Q15>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let mut model = dnn::model::Model::new(vec![
        dnn::layers::Layer::conv2d(2, 1, 3, 3, &mut rng),
        dnn::layers::Layer::relu(),
        dnn::layers::Layer::maxpool(2),
        dnn::layers::Layer::flatten(),
        dnn::layers::Layer::dense(8, 6, &mut rng),
        dnn::layers::Layer::relu(),
        dnn::layers::Layer::dense(6, 3, &mut rng),
    ]);
    let l = &mut model.layers_mut()[4];
    if let dnn::layers::Layer::Dense(d) = l {
        let mut mask = dnn::tensor::Tensor::zeros(d.w.shape().to_vec());
        for (i, m) in mask.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *m = 1.0;
            }
        }
        l.set_mask(mask);
    }
    let shape = [1usize, 6, 6];
    let calib: Vec<dnn::tensor::Tensor> = (0..2)
        .map(|_| dnn::tensor::Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
        .collect();
    let qm = dnn::quant::quantize(&mut model, &shape, &calib);
    let x = dnn::tensor::Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
    let input = qm.quantize_input(&x);
    (qm, input)
}

/// Randomized corruption fuzz: `cases` mixed fault schedules — a bit
/// flip on a random guarded word at a random boundary, joined half the
/// time by a brown-out at another — across random backends, seeded so
/// any finding replays exactly. Returns the silent-wrong count.
fn fuzz(seed: u64, cases: u64) -> usize {
    println!("== corruption fuzz: seed={seed} cases={cases} ==");
    println!("   replay: CORRUPTION_FUZZ_SEED={seed} cargo bench --bench corruption");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (qm, input) = deep_qmodel();
    let spec = mcu::DeviceSpec::msp430fr5994();
    let backends = [
        Backend::Sonic,
        Backend::SonicNoUndo,
        Backend::Tails(TailsConfig::default()),
        Backend::Tiled(8),
    ];
    let refs: Vec<(Vec<fxp::Q15>, u64)> = backends
        .iter()
        .map(|b| fault_free_reference(&qm, &input, &spec, b))
        .collect();
    let mut probe = mcu::Device::new(spec.clone(), mcu::PowerSystem::continuous());
    let pm = sonic::deploy::deploy(&mut probe, &qm).expect("model must fit in FRAM");
    let mut words = control_words(&pm);
    let tiled_only_from = words.len();
    words.push((
        "commit_flag".to_string(),
        probe.fram_alloc_word().expect("FRAM for commit flag"),
    ));
    let mut silent = 0usize;
    for case in 0..cases {
        let bi = rng.gen_range(0..backends.len());
        let (expected, ops) = &refs[bi];
        // The commit flag is only a guarded word under the tiled runtime.
        let limit = if matches!(backends[bi], Backend::Tiled(_)) {
            words.len()
        } else {
            tiled_only_from
        };
        let (name, w) = &words[rng.gen_range(0..limit)];
        let bit = rng.gen_range(0..16u32) as u8;
        let t_flip = rng.gen_range(0..*ops);
        let mut plan = vec![(
            t_flip,
            mcu::FaultKind::BitFlip {
                addr: w.addr(),
                bit,
            },
        )];
        if rng.gen_range(0..2u32) == 1 {
            plan.push((rng.gen_range(0..*ops), mcu::FaultKind::Brownout));
        }
        let out = classify_faults(&qm, &input, &spec, &backends[bi], &plan, expected);
        if out == CorruptionOutcome::SilentWrong {
            silent += 1;
            println!(
                "  case {case}: SILENT WRONG OUTPUT under {}: {}.bit{bit} @ op#{t_flip}, plan {plan:?}",
                backends[bi].label(),
                name
            );
        }
    }
    println!("fuzz: {silent}/{cases} silent-wrong case(s)");
    silent
}

/// Op boundaries per (word, bit) in the Table-2 HAR sweep.
const HAR_POINTS: u64 = 8;

const HEADER: &str =
    "backend        flips   masked  recovered  aborted  wedged  unfired  SILENT  secs";

/// Prints one sweep's table row (`note` appended) and its silent-wrong
/// cases; returns how many there were.
fn print_row(r: &CorruptionReport, t0: std::time::Instant, note: &str) -> usize {
    println!(
        "{:<14} {:<7} {:<7} {:<10} {:<8} {:<7} {:<8} {:<7} {:.1}{note}",
        r.backend,
        r.flips,
        r.masked,
        r.recovered,
        r.aborted,
        r.wedged,
        r.unfired,
        r.silent_wrong.len(),
        t0.elapsed().as_secs_f64()
    );
    for c in &r.silent_wrong {
        println!(
            "  SILENT WRONG OUTPUT: {}.bit{} @ op#{}",
            c.word, c.bit, c.op_index
        );
    }
    r.silent_wrong.len()
}

/// One line per sweep above: the flips its watch passes decided.
fn print_decided(reports: &[CorruptionReport]) {
    for r in reports {
        println!(
            "{}: {} of {} flips decided by the first-access watch",
            r.backend, r.decided, r.flips
        );
    }
}

fn main() {
    if let Ok(seed) = std::env::var("CORRUPTION_FUZZ_SEED") {
        let seed: u64 = seed.parse().expect("CORRUPTION_FUZZ_SEED must be a u64");
        let cases: u64 = std::env::var("CORRUPTION_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        if fuzz(seed, cases) > 0 {
            std::process::exit(1);
        }
        return;
    }
    let points: u64 = std::env::var("CORRUPTION_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let (qm, input) = deep_qmodel();
    let spec = mcu::DeviceSpec::msp430fr5994();
    let backends = [
        Backend::Sonic,
        Backend::SonicNoUndo,
        Backend::Tails(TailsConfig::default()),
        Backend::Tiled(8),
    ];

    println!("== corruption sweep: every control/commit word x 16 bits x {points} boundaries ==");
    println!("{HEADER}");
    let mut silent = 0usize;
    let mut decided = Vec::new();
    for b in &backends {
        let t0 = std::time::Instant::now();
        let r = check_corruption(&qm, &input, &spec, b, points);
        silent += print_row(&r, t0, "");
        decided.push(r);
    }

    // The stateful backend has no control words at all — its progress
    // lives in-band, in the tag/parity bits of every activation word. Its
    // sweep therefore runs over the embedded words themselves: every
    // `CORRUPTION_STATEFUL_STRIDE`-th tagged word (default all) x 16 bits
    // x the same boundary count, under the same zero-silent-wrong gate.
    let stateful_stride: usize = std::env::var("CORRUPTION_STATEFUL_STRIDE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let t0 = std::time::Instant::now();
    let r = check_stateful_corruption(&qm, &input, &spec, points, stateful_stride);
    let note = format!("  (embedded tag words, stride {stateful_stride})");
    silent += print_row(&r, t0, &note);
    decided.push(r);
    print_decided(&decided);

    // The Table-2 HAR network: every control word of the deployed
    // network under the two paper backends, at more boundaries than the
    // ledger's single midpoint.
    let har = models::trained(models::Network::Har);
    let har_input = har.qmodel.quantize_input(&har.test.input(0));
    println!();
    println!("== Table-2 HAR: every control word x 16 bits x {HAR_POINTS} boundaries ==");
    println!("{HEADER}");
    let mut decided = Vec::new();
    for b in [Backend::Sonic, Backend::Tails(TailsConfig::default())] {
        let t0 = std::time::Instant::now();
        let r = check_corruption(&har.qmodel, &har_input, &spec, &b, HAR_POINTS);
        silent += print_row(&r, t0, "");
        decided.push(r);
    }
    print_decided(&decided);
    println!();

    // Stateful teeth control: the guard is a parity bit, so its documented
    // boundary is multi-bit faults — a *double* flip confined to the value
    // bits of one embedded word preserves parity and must be able to slip
    // through as silent wrong output.
    let b = Backend::Stateful;
    let (expected, _ops) = fault_free_reference(&qm, &input, &spec, &b);
    let mut probe = mcu::Device::new(spec.clone(), mcu::PowerSystem::continuous());
    let pm = sonic::deploy::deploy(&mut probe, &qm).expect("model must fit in FRAM");
    let tag_words = stateful_tag_words(&pm);
    let stateful_teeth = [(0usize, 15u8, 14u8), (0, 15, 13), (1, 15, 14)]
        .iter()
        .filter(|&&(wi, b1, b2)| {
            let addr = tag_words[wi].1;
            classify_faults(
                &qm,
                &input,
                &spec,
                &b,
                &[
                    (0, mcu::FaultKind::BitFlip { addr, bit: b1 }),
                    (0, mcu::FaultKind::BitFlip { addr, bit: b2 }),
                ],
                &expected,
            ) == CorruptionOutcome::SilentWrong
        })
        .count();
    println!(
        "stateful teeth control: {stateful_teeth}/3 parity-preserving double flips were silent wrong"
    );
    if stateful_teeth == 0 {
        eprintln!("stateful double-flip corruption went UNDETECTED: the sweep has lost its teeth");
        std::process::exit(1);
    }

    // Teeth control: an unguarded activation word must be able to
    // silently corrupt the output — otherwise the sweep above proves
    // nothing. Several (bit, boundary) combinations are tried; at least
    // one must land as silent wrong.
    let b = Backend::Sonic;
    let (expected, ops) = fault_free_reference(&qm, &input, &spec, &b);
    let mut probe = mcu::Device::new(spec.clone(), mcu::PowerSystem::continuous());
    let pm = sonic::deploy::deploy(&mut probe, &qm).expect("model must fit in FRAM");
    let addr = unguarded_activation_addr(&pm);
    let teeth = [(14u8, 0u64), (13, 0), (14, ops / 10)]
        .iter()
        .filter(|&&(bit, t)| {
            classify_flip(&qm, &input, &spec, &b, addr, bit, t, &expected)
                == CorruptionOutcome::SilentWrong
        })
        .count();
    println!("teeth control: {teeth}/3 unguarded-activation flips were silent wrong");
    if teeth == 0 {
        eprintln!("unguarded corruption went UNDETECTED: the classifier has lost its teeth");
        std::process::exit(1);
    }

    if silent > 0 {
        eprintln!("{silent} silent-wrong-output case(s) on guarded words");
        std::process::exit(1);
    }
    println!("no guarded control/commit word can silently corrupt an output");
}
