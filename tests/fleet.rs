//! Fleet-engine integration tests: determinism, per-run trace epochs,
//! and time-varying harvest power, end to end through the facade crate.

use rand::SeedableRng;
use sonic_tails::dnn::layers::Layer;
use sonic_tails::dnn::model::Model;
use sonic_tails::dnn::quant::{quantize, QModel};
use sonic_tails::dnn::tensor::Tensor;
use sonic_tails::mcu::{Device, DeviceSpec, FaultKind, FaultPlan, HarvestProfile, PowerSystem};
use sonic_tails::sonic::exec::Backend;
use sonic_tails::sonic::fleet::{
    assemble_cells, fleet_digest, plan_shards, run_fleet, run_fleet_with_lanes, run_shard,
    FleetCell, FleetInput, FleetJob,
};
use sonic_tails::sonic::spec::{fault_free_reference, unguarded_activation_addr};

fn tiny_model() -> (QModel, Vec<Vec<fxp::Q15>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);
    let mut model = Model::new(vec![
        Layer::dense(24, 20, &mut rng),
        Layer::relu(),
        Layer::dense(20, 4, &mut rng),
    ]);
    let shape = [24usize];
    let calib: Vec<Tensor> = (0..3)
        .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
        .collect();
    let qm = quantize(&mut model, &shape, &calib);
    let inputs = (0..4)
        .map(|_| qm.quantize_input(&Tensor::uniform(shape.to_vec(), 0.9, &mut rng)))
        .collect();
    (qm, inputs)
}

fn job<'a>(qm: &'a QModel, inputs: &[Vec<fxp::Q15>]) -> FleetJob<'a> {
    FleetJob {
        qmodel: qm,
        spec: DeviceSpec::msp430fr5994(),
        inputs: inputs
            .iter()
            .map(|i| FleetInput {
                input: i.clone(),
                label: Some(1),
            })
            .collect(),
        backends: vec![Backend::Sonic, Backend::Tiled(8)],
        powers: vec![
            PowerSystem::continuous(),
            PowerSystem::harvested(6e-6),
            PowerSystem::harvested_with(
                6e-6,
                HarvestProfile::Square {
                    high_w: 150e-6,
                    low_w: 0.0,
                    // Dark windows of 10 ms every 20 ms: recharges (~5 ms
                    // each at this buffer) keep crossing occlusions.
                    period_s: 0.02,
                    duty: 0.5,
                },
            ),
        ],
        replicas: 1,
        faults: None,
    }
}

/// The serial reference the threaded fan-out is tested against: one
/// shard at a time, in plan order.
fn run_fleet_serial(job: &FleetJob<'_>) -> Vec<FleetCell> {
    let plan = plan_shards(job);
    let results = plan.iter().map(|s| run_shard(job, s)).collect();
    assemble_cells(job, &plan, results)
}

#[test]
fn fleet_results_are_bit_identical_serial_vs_parallel_and_across_runs() {
    let (qm, inputs) = tiny_model();
    let j = job(&qm, &inputs);
    let a = run_fleet(&j);
    let b = run_fleet_serial(&j);
    let c = run_fleet(&j);
    assert_eq!(fleet_digest(&a), fleet_digest(&b), "parallel == serial");
    assert_eq!(fleet_digest(&a), fleet_digest(&c), "repeatable");
    // Every continuous-power run completed with a classification.
    for cell in a.iter().filter(|c| c.power == "Cont") {
        for run in &cell.runs {
            assert!(run.outcome.completed);
            assert!(run.outcome.class.is_some());
        }
    }
}

/// Absolute digest of the `job` fleet, recorded from the scalar
/// accounting path. Regenerate (after an *intentional* accounting
/// change) with `GOLDEN_PRINT=1 cargo test --test fleet -- --nocapture`.
const FLEET_GOLDEN_DIGEST: u64 = 0x5f9baa1a835b9b4a;

/// The golden holds for the default entry point, for scalar metering
/// (lanes 1) and lockstep twinning (lanes 8) picked explicitly, and for
/// the one-shard-at-a-time reference — all in one build.
#[test]
fn fleet_digest_matches_scalar_golden() {
    let (qm, inputs) = tiny_model();
    let j = job(&qm, &inputs);
    let d = fleet_digest(&run_fleet(&j));
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("    fleet golden digest: {d:#018x}");
        return;
    }
    assert_eq!(
        d, FLEET_GOLDEN_DIGEST,
        "fleet digest diverged from the scalar accounting path"
    );
    for (path, cells) in [
        ("lanes 1", run_fleet_with_lanes(&j, 1)),
        ("lanes 8", run_fleet_with_lanes(&j, 8)),
        ("serial", run_fleet_serial(&j)),
    ] {
        assert_eq!(
            fleet_digest(&cells),
            FLEET_GOLDEN_DIGEST,
            "{path} fleet digest diverged from the golden"
        );
    }
}

/// Lane width never changes a result. Over the recorded indoor-solar
/// trace and continuous power, with every paper backend plus Stateful
/// (whose continuous cells twin through the masked twin), the fleet is
/// the same fully scalar (lanes 1) and batched (lanes 8). Four inputs:
/// the trace fixed point needs two metered runs, so with fewer no cell
/// ever twins.
#[test]
fn solar_fleet_digest_is_the_same_scalar_and_batched() {
    let (qm, inputs) = tiny_model();
    let trace = include_str!("../data/harvest/indoor_solar_diurnal.csv");
    let solar = PowerSystem::harvested_with(
        1e-3,
        HarvestProfile::piecewise_from_csv(trace).expect("the indoor-solar trace parses"),
    );
    let mut backends = Backend::paper_suite();
    backends.push(Backend::Stateful);
    let j = FleetJob {
        backends,
        powers: vec![PowerSystem::continuous(), solar],
        ..job(&qm, &inputs)
    };
    assert_eq!(j.inputs.len(), 4);
    let scalar = run_fleet_with_lanes(&j, 1);
    assert_eq!(
        fleet_digest(&scalar),
        fleet_digest(&run_fleet_with_lanes(&j, 8)),
        "lanes 8 diverged from scalar metering"
    );
    assert!(scalar
        .iter()
        .filter(|c| c.power == "Cont")
        .all(|c| c.runs.iter().all(|r| r.outcome.completed)));
}

/// Fault-armed fleets surface their failure-mode accounting: a flip on
/// a *guarded* control word is detected (and never counted as silent
/// data corruption), while the same-schedule flip on an *unguarded*
/// activation word completes with a diverged output and lands in the
/// SDC column. Fault injection stays deterministic: two runs of the
/// same armed job produce identical digests.
#[test]
fn fault_armed_fleet_surfaces_detection_and_sdc() {
    let (qm, inputs) = tiny_model();
    let spec = DeviceSpec::msp430fr5994();
    let mut probe = Device::new(spec.clone(), PowerSystem::continuous());
    let pm = sonic_tails::sonic::deploy(&mut probe, &qm).unwrap();
    let backend = Backend::Sonic;
    let (_, ops) = fault_free_reference(&qm, &inputs[0], &spec, &backend);

    let armed_job = |plan: FaultPlan| FleetJob {
        qmodel: &qm,
        spec: spec.clone(),
        inputs: inputs
            .iter()
            .map(|i| FleetInput {
                input: i.clone(),
                label: Some(1),
            })
            .collect(),
        backends: vec![backend],
        powers: vec![PowerSystem::continuous()],
        replicas: 1,
        faults: Some(plan),
    };

    // A high bit of the first layer's loop counter, flipped mid-layer,
    // then a brown-out one op later: recovery re-reads the counter from
    // FRAM, and the guards must notice before it steers the restart.
    // (Without the reboot the live register shadows the word and the
    // next checkpoint store silently overwrites the flip.)
    let guarded = armed_job(FaultPlan::faults([
        (
            ops / 4,
            FaultKind::BitFlip {
                addr: pm.layers[0].idx.addr(),
                bit: 13,
            },
        ),
        (ops / 4 + 1, FaultKind::Brownout),
    ]));
    let cells = run_fleet(&guarded);
    assert_eq!(fleet_digest(&cells), fleet_digest(&run_fleet(&guarded)));
    let s = cells[0].summarize(&spec);
    assert!(
        s.corruption_detected > 0,
        "guarded control-word flips must be detected: {s:?}"
    );
    assert_eq!(s.sdc, 0, "a guarded flip must never be silent: {s:?}");

    // The same schedule against an unguarded activation word: the run
    // completes, the answer is wrong, and the SDC column says so.
    let silent = armed_job(FaultPlan::faults([(
        1,
        FaultKind::BitFlip {
            addr: unguarded_activation_addr(&pm),
            bit: 14,
        },
    )]));
    let s = run_fleet(&silent)[0].summarize(&spec);
    assert!(
        s.sdc > 0,
        "an unguarded input-word flip must surface as SDC: {s:?}"
    );
    assert_eq!(s.corruption_detected, 0, "nothing guards that word: {s:?}");
}

#[test]
fn occluded_power_runs_complete_but_wait_out_the_dark_windows() {
    let (qm, inputs) = tiny_model();
    let j = job(&qm, &inputs);
    let cells = run_fleet(&j);
    let spec = DeviceSpec::msp430fr5994();
    let constant = cells
        .iter()
        .find(|c| c.power == "6uF" && c.backend == "SONIC")
        .expect("constant harvested cell");
    let occluded = cells
        .iter()
        .find(|c| c.power == "6uF~sq" && c.backend == "SONIC")
        .expect("occluded cell");
    let sum = |cell: &sonic_tails::sonic::fleet::FleetCell| -> f64 {
        cell.runs
            .iter()
            .filter(|r| r.outcome.completed)
            .map(|r| r.outcome.trace.dead_secs)
            .sum()
    };
    let (s_const, s_occ) = (sum(constant), sum(occluded));
    assert!(
        occluded.runs.iter().any(|r| r.outcome.completed),
        "occluded cells must still make progress"
    );
    assert!(
        s_occ > s_const,
        "half-duty occlusion must add dead time: {s_occ} vs {s_const}"
    );
    // Identical compute either way: live time per completed run matches.
    for (a, b) in constant.runs.iter().zip(&occluded.runs) {
        if a.outcome.completed && b.outcome.completed {
            assert_eq!(a.outcome.trace.live_cycles, b.outcome.trace.live_cycles);
            assert_eq!(a.outcome.output, b.outcome.output);
        }
    }
    let summary = occluded.summarize(&spec);
    assert_eq!(summary.runs, 4);
}
