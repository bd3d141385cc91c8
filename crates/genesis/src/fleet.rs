//! Fleet-backed scoring: re-rank the Pareto frontier with real runs.
//!
//! The sweep in [`crate::search`] scores every configuration with an
//! *analytic* energy model ([`crate::energy`]) — fast, but blind to what
//! actually decides deployability: whether inference **completes** under
//! the target harvest profile, what it really costs once reboots and
//! recharge time are included, and what accuracy survives when a run that
//! does not complete transmits nothing. This module closes that loop:
//! after the analytic sweep marks the Pareto frontier
//! ([`crate::search::mark_pareto`]), [`fleet_score`] deploys each
//! surviving feasible plan through a real backend (`sonic::fleet`) on a
//! caller-chosen power system and test-input set, and
//! [`choose_measured`] then ranks plans on the **measured** numbers —
//! accuracy with DNC counted as wrong, DNC rate, mean measured energy,
//! p95 latency — with the analytic score only as a tiebreak.
//!
//! Runs that do not complete are made actionable: every DNC is
//! attributed to the layer the device starved in (the per-layer reboot
//! attribution of `mcu::trace`), aggregated into the cell's starvation
//! histogram ([`sonic::fleet::CellSummary::starved`]). A search loop can
//! read it to penalize — or re-knob — exactly the offending layer.
//!
//! Scoring is deterministic: plans fan out with the same indexed-collect
//! work queue as the sweep, each plan's fleet is a pure function of the
//! job, and [`fleet_scored_digest`] pins the whole ranking bit-for-bit,
//! serial or parallel.

use crate::search::{calibration_inputs, ConfigResult, EvalContext, CALIB_INPUTS};
use dnn::quant::quantize;
use mcu::{Device, DeviceSpec, PowerSystem};
use sonic::exec::Backend;
use sonic::fleet::{run_fleet, CellSummary, FleetCell, FleetInput, FleetJob};

/// How the Pareto frontier is re-scored on the simulated device.
#[derive(Clone, Debug)]
pub struct FleetScoreConfig {
    /// Device to deploy on.
    pub spec: DeviceSpec,
    /// The target power system (typically a harvested supply with the
    /// deployment's recorded [`mcu::HarvestProfile`]).
    pub power: PowerSystem,
    /// The runtime the deployment will ship with.
    pub backend: Backend,
    /// Test inputs per plan, taken in order from the context's test set.
    pub inputs: usize,
    /// Replica devices for the scoring cell
    /// ([`sonic::fleet::FleetJob::replicas`]); `1` reproduces the
    /// historical single-deployment score bit-for-bit.
    pub replicas: usize,
}

impl FleetScoreConfig {
    /// SONIC on the paper's 100 µF RF-harvested supply, 8 test inputs.
    pub fn sonic_100uf() -> Self {
        FleetScoreConfig {
            spec: DeviceSpec::msp430fr5994(),
            power: PowerSystem::cap_100uf(),
            backend: Backend::Sonic,
            inputs: 8,
            replicas: 1,
        }
    }
}

/// One Pareto-frontier plan, re-scored by deployment.
#[derive(Clone, Debug)]
pub struct FleetScored {
    /// Index of the plan in the sweep's result vector.
    pub plan_index: usize,
    /// The plan's label ([`crate::search::PlanKnobs::label`]).
    pub label: String,
    /// The analytic IMpJ score from the sweep (the tiebreak).
    pub analytic_impj: f64,
    /// Host-measured quantized accuracy from the sweep, for comparison.
    pub analytic_accuracy: f64,
    /// Deployed runs (= the configured input count).
    pub runs: usize,
    /// Runs that completed under the target power system.
    pub completed: usize,
    /// Fraction of runs that did **not** complete.
    pub dnc_rate: f64,
    /// Measured accuracy over the deployed runs, DNC counted as wrong.
    pub measured_accuracy: f64,
    /// Measured true-positive rate for the interesting class. A DNC
    /// transmits nothing, so it counts as a missed detection here.
    pub measured_tp: f64,
    /// Measured true-negative rate. A DNC also transmits nothing for an
    /// uninteresting event, so it is indistinguishable from a true
    /// negative — its cost shows up in energy and `dnc_rate` instead.
    pub measured_tn: f64,
    /// Mean measured energy per run in millijoules, over **all** runs —
    /// aborted attempts drained the harvester too.
    pub mean_energy_mj: f64,
    /// 95th-percentile wall-clock seconds (live + recharging) over
    /// completed runs; `None` when nothing completed.
    pub p95_total_secs: Option<f64>,
    /// IMpJ recomputed from the measured energy and measured tp/tn.
    /// Zero when nothing completes (no detections, no messages).
    pub measured_impj: f64,
    /// `Some(reason)` when the plan did not even deploy: the analytic
    /// FRAM-budget check passed but flashing the model onto the real
    /// device (weights **plus** activation ping-pong buffers, scratch
    /// planes, and control words) exhausted memory — or the backend's
    /// runtime working state (TAILS SRAM staging buffers, the Alpaca
    /// commit flag) did not fit. Such plans score zero and run
    /// nothing — one of the mispredictions fleet scoring exists to
    /// catch.
    pub deploy_error: Option<String>,
    /// The full cell summary, including the per-layer DNC starvation
    /// histogram ([`CellSummary::starved`]).
    pub summary: CellSummary,
}

impl FleetScored {
    /// The per-layer DNC starvation histogram: `(region, DNC runs)` in
    /// layer order. Empty when every run completed.
    pub fn starved(&self) -> &[(String, u64)] {
        &self.summary.starved
    }
}

/// Deploys one sweep result and measures it.
fn score_plan(
    result: &ConfigResult,
    plan_index: usize,
    ctx: &EvalContext<'_>,
    cfg: &FleetScoreConfig,
) -> FleetScored {
    // Re-quantize exactly as the sweep did (same shape, same calibration
    // inputs), so the deployed weights are bit-identical to the plan the
    // analytic score described.
    let mut model = result.model.clone();
    let input_shape = ctx.train.shape().to_vec();
    let calib = calibration_inputs(ctx.train, CALIB_INPUTS);
    let qm = quantize(&mut model, &input_shape, &calib);

    // Pre-flight the deployment on a scratch device: the sweep's FRAM
    // feasibility check models weights + activations, but a real deploy
    // also links scratch planes and control words, and the backend's
    // runtime build allocates per-run working state (TAILS SRAM staging,
    // the Alpaca commit flag). A plan the device cannot even be flashed
    // or link a runtime for scores zero instead of panicking the fleet.
    let mut probe = Device::new(cfg.spec.clone(), PowerSystem::continuous());
    let probed = sonic::deploy::deploy(&mut probe, &qm)
        .and_then(|dm| sonic::exec::preflight_runtime(&mut probe, &dm, &cfg.backend));
    if let Err(e) = probed {
        return FleetScored {
            plan_index,
            label: result.label.clone(),
            analytic_impj: result.impj,
            analytic_accuracy: result.accuracy,
            runs: 0,
            completed: 0,
            dnc_rate: 1.0,
            measured_accuracy: 0.0,
            measured_tp: 0.0,
            measured_tn: 0.0,
            mean_energy_mj: 0.0,
            p95_total_secs: None,
            measured_impj: 0.0,
            deploy_error: Some(e.to_string()),
            // The summary of a cell that never ran a single input.
            summary: FleetCell {
                backend_index: 0,
                power_index: 0,
                backend: cfg.backend.label(),
                power: cfg.power.label(),
                runs: Vec::new(),
            }
            .summarize(&cfg.spec),
        };
    }

    let n = cfg.inputs.min(ctx.test.len());
    let inputs: Vec<FleetInput> = (0..n)
        .map(|i| FleetInput {
            input: qm.quantize_input(&ctx.test.input(i)),
            label: Some(ctx.test.label(i)),
        })
        .collect();
    let job = FleetJob {
        qmodel: &qm,
        spec: cfg.spec.clone(),
        inputs,
        backends: vec![cfg.backend],
        powers: vec![cfg.power.clone()],
        replicas: cfg.replicas,
        faults: None,
    };
    // A 1×1 fleet: `run_fleet`'s own fan-out degenerates to an inline
    // loop, so nesting it under the per-plan fan-out stays deterministic.
    let cell: FleetCell = run_fleet(&job).remove(0);
    let summary = cell.summarize(&cfg.spec);

    let mut right = 0usize;
    let (mut tp_num, mut tp_den, mut tn_num, mut tn_den) = (0usize, 0usize, 0usize, 0usize);
    let mut energy_mj = 0.0f64;
    for run in &cell.runs {
        energy_mj += run.outcome.energy_mj();
        let label = job.inputs[run.input_index].label.expect("labeled input");
        let predicted = run.outcome.completed.then_some(run.outcome.class).flatten();
        if predicted == Some(label) {
            right += 1;
        }
        // Detection semantics: only a completed run that classifies the
        // input as interesting transmits; a DNC transmits nothing.
        let flagged = predicted == Some(ctx.interesting_class);
        if label == ctx.interesting_class {
            tp_den += 1;
            tp_num += flagged as usize;
        } else {
            tn_den += 1;
            tn_num += !flagged as usize;
        }
    }
    let runs = cell.runs.len();
    let measured_accuracy = if runs > 0 {
        right as f64 / runs as f64
    } else {
        0.0
    };
    // A one-sided sample has no tp (or tn) denominator; fall back to the
    // overall measured accuracy, the convention of the paper's Figs. 1–2.
    let rate = |num: usize, den: usize| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            measured_accuracy
        }
    };
    let (measured_tp, measured_tn) = (rate(tp_num, tp_den), rate(tn_num, tn_den));
    let mean_energy_mj = if runs > 0 {
        energy_mj / runs as f64
    } else {
        0.0
    };
    let measured_impj = if summary.completed == 0 {
        0.0
    } else {
        ctx.app
            .inference_impj(mean_energy_mj, measured_tp, measured_tn)
    };
    FleetScored {
        plan_index,
        label: result.label.clone(),
        analytic_impj: result.impj,
        analytic_accuracy: result.accuracy,
        runs,
        completed: summary.completed,
        dnc_rate: 1.0 - summary.completion_rate,
        measured_accuracy,
        measured_tp,
        measured_tn,
        mean_energy_mj,
        p95_total_secs: summary.total_secs.map(|t| t.p95),
        measured_impj,
        deploy_error: None,
        summary,
    }
}

/// The sweep results that qualify for deployment scoring: the feasible
/// members of the accuracy-vs-MACs Pareto frontier.
fn frontier_indices(results: &[ConfigResult]) -> Vec<usize> {
    results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.pareto && r.feasible)
        .map(|(i, _)| i)
        .collect()
}

/// Re-scores the feasible Pareto frontier of a sweep by deploying every
/// surviving plan through a real backend under the target power system.
///
/// Plans fan out across threads through [`sonic::fleet::par_map`];
/// results come back in plan order and are bit-identical on any thread
/// count (see [`fleet_scored_digest`]).
pub fn fleet_score(
    results: &[ConfigResult],
    ctx: &EvalContext<'_>,
    cfg: &FleetScoreConfig,
) -> Vec<FleetScored> {
    sonic::fleet::par_map(frontier_indices(results), &|i| {
        score_plan(&results[i], i, ctx, cfg)
    })
}

/// Chooses the deployment configuration from the measured ranking: best
/// measured IMpJ, with the analytic score as tiebreak (and plan order as
/// the final, deterministic tiebreak).
pub fn choose_measured(scored: &[FleetScored]) -> Option<&FleetScored> {
    scored.iter().reduce(|best, s| {
        let better = (s.measured_impj, s.analytic_impj) > (best.measured_impj, best.analytic_impj);
        if better {
            s
        } else {
            best
        }
    })
}

/// An order-sensitive FNV-1a digest over every bit-relevant field of a
/// fleet-scored ranking. Equal digests mean the measured accuracies,
/// energies, scores, and starvation histograms are identical — the
/// determinism anchor for the fleet-scored sweep.
pub fn fleet_scored_digest(scored: &[FleetScored]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for s in scored {
        put(s.plan_index as u64);
        put(s.runs as u64);
        put(s.completed as u64);
        put(s.measured_accuracy.to_bits());
        put(s.measured_tp.to_bits());
        put(s.measured_tn.to_bits());
        put(s.mean_energy_mj.to_bits());
        put(s.p95_total_secs.map(f64::to_bits).unwrap_or(0));
        put(s.measured_impj.to_bits());
        put(s.analytic_impj.to_bits());
        put(s.deploy_error.is_some() as u64);
        for (name, count) in &s.summary.starved {
            for b in name.bytes() {
                put(b as u64);
            }
            put(*count);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imp::WILDLIFE;
    use crate::search::{sweep, SearchSpace};
    use dnn::data::Dataset;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::train::TrainConfig;
    use mcu::CostTable;
    use rand::SeedableRng;

    fn tiny_dataset() -> (Dataset, Dataset) {
        dnn::train::toy_blobs(30, 3, 12, 42).split(0.8)
    }

    fn tiny_base() -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        Model::new(vec![
            Layer::dense(12, 16, &mut rng),
            Layer::relu(),
            Layer::dense(16, 3, &mut rng),
        ])
    }

    fn ctx<'a>(train: &'a Dataset, test: &'a Dataset, costs: &'a CostTable) -> EvalContext<'a> {
        EvalContext {
            train,
            test,
            retrain: TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
            fram_budget_words: 120_000,
            costs,
            interesting_class: 0,
            app: WILDLIFE,
        }
    }

    fn tiny_space() -> SearchSpace {
        SearchSpace {
            conv_seps: vec![None],
            conv_densities: vec![1.0],
            fc_ranks: vec![None, Some(4), Some(8)],
            fc_densities: vec![1.0, 0.5, 0.3],
        }
    }

    fn score_cfg(inputs: usize) -> FleetScoreConfig {
        FleetScoreConfig {
            inputs,
            ..FleetScoreConfig::sonic_100uf()
        }
    }

    #[test]
    fn fleet_score_covers_the_feasible_frontier_in_plan_order() {
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let results = sweep(&tiny_base(), &tiny_space(), &c);
        let scored = fleet_score(&results, &c, &score_cfg(3));
        let expect: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.pareto && r.feasible)
            .map(|(i, _)| i)
            .collect();
        assert!(!scored.is_empty());
        assert_eq!(
            scored.iter().map(|s| s.plan_index).collect::<Vec<_>>(),
            expect,
            "plan order preserved"
        );
        for s in &scored {
            assert_eq!(s.runs, 3);
            assert!(s.deploy_error.is_none(), "{}", s.label);
            assert_eq!(s.label, results[s.plan_index].label);
            assert!((0.0..=1.0).contains(&s.measured_accuracy));
            assert!((0.0..=1.0).contains(&s.dnc_rate));
            assert!(s.mean_energy_mj > 0.0, "runs consumed energy");
            // SONIC on 100 µF completes this tiny model.
            assert_eq!(s.completed, s.runs, "{}: unexpected DNC", s.label);
            assert!(s.measured_impj > 0.0);
            assert!(s.starved().is_empty());
            assert!(s.p95_total_secs.is_some());
        }
    }

    #[test]
    fn fleet_score_is_bit_identical_serial_vs_parallel_and_repeatable() {
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let results = sweep(&tiny_base(), &tiny_space(), &c);
        let par = fleet_score(&results, &c, &score_cfg(2));
        // The serial specification: each frontier plan scored in turn.
        let ser: Vec<FleetScored> = frontier_indices(&results)
            .into_iter()
            .map(|i| score_plan(&results[i], i, &c, &score_cfg(2)))
            .collect();
        let again = fleet_score(&results, &c, &score_cfg(2));
        assert_eq!(par.len(), ser.len());
        assert_eq!(
            fleet_scored_digest(&par),
            fleet_scored_digest(&ser),
            "parallel == serial"
        );
        assert_eq!(
            fleet_scored_digest(&par),
            fleet_scored_digest(&again),
            "repeatable"
        );
    }

    /// Absolute digest of the fleet-scored ranking above: the sweep is
    /// seeded and every fleet cell is a pure function of the job, so the
    /// whole pipeline — train, compress, re-train, quantize, deploy,
    /// simulate — must reproduce this bit for bit. Regenerate after an
    /// *intentional* accounting or training change with
    /// `GOLDEN_PRINT=1 cargo test -p genesis fleet_scored_digest_is_pinned -- --nocapture`.
    const PINNED_DIGEST: u64 = 0xea426f4fdb6bd171;

    #[test]
    fn fleet_scored_digest_is_pinned() {
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let results = sweep(&tiny_base(), &tiny_space(), &c);
        let d = fleet_scored_digest(&fleet_score(&results, &c, &score_cfg(2)));
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("    pinned fleet-scored digest: {d:#018x}");
            return;
        }
        assert_eq!(d, PINNED_DIGEST, "fleet-scored sweep drifted");
    }

    #[test]
    fn stateful_backend_fleet_scores_the_frontier() {
        // The fifth backend through the GENESIS measurement loop: every
        // feasible frontier plan preflights (the tag space covers the
        // swept models), deploys, and completes on the 100 µF supply
        // with a real measured score.
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let results = sweep(&tiny_base(), &tiny_space(), &c);
        let cfg = FleetScoreConfig {
            backend: Backend::Stateful,
            ..score_cfg(2)
        };
        let scored = fleet_score(&results, &c, &cfg);
        assert!(!scored.is_empty());
        for s in &scored {
            assert!(
                s.deploy_error.is_none(),
                "{}: {:?}",
                s.label,
                s.deploy_error
            );
            assert_eq!(s.completed, s.runs, "{}: unexpected DNC", s.label);
            assert!(s.measured_impj > 0.0);
            assert_eq!(s.summary.backend, "Stateful");
            assert_eq!(s.summary.sdc, 0);
        }
    }

    #[test]
    fn runtime_that_does_not_fit_reports_deploy_error_instead_of_panicking() {
        // A device whose SRAM cannot hold the TAILS staging buffers: the
        // model itself flashes fine, but the runtime build would panic
        // mid-fleet. The pre-flight must catch it and zero the plan.
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let results = sweep(&tiny_base(), &tiny_space(), &c);
        let mut spec = DeviceSpec::msp430fr5994();
        spec.sram_words = 256; // < the ~1.7 K words TAILS stages through
        let cfg = FleetScoreConfig {
            spec,
            backend: Backend::Tails(Default::default()),
            ..score_cfg(2)
        };
        let scored = fleet_score(&results, &c, &cfg);
        assert!(!scored.is_empty());
        for s in &scored {
            let err = s.deploy_error.as_deref().expect("runtime cannot fit");
            assert!(err.contains("SRAM"), "{err}");
            assert_eq!(s.runs, 0);
            assert_eq!(s.measured_impj, 0.0);
        }
    }

    #[test]
    fn choose_measured_ranks_on_measured_score_with_analytic_tiebreak() {
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let results = sweep(&tiny_base(), &tiny_space(), &c);
        let scored = fleet_score(&results, &c, &score_cfg(3));
        let best = choose_measured(&scored).expect("non-empty frontier");
        for s in &scored {
            assert!(
                (best.measured_impj, best.analytic_impj) >= (s.measured_impj, s.analytic_impj),
                "{} should not outrank the chosen {}",
                s.label,
                best.label
            );
        }
        assert!(choose_measured(&[]).is_none());
    }

    #[test]
    fn dnc_under_the_target_profile_zeroes_the_measured_score() {
        // The same frontier, deployed on a tiny buffer whose harvest
        // profile is fully occluded: whatever the initial charge does
        // not fund never runs, and the device never comes back. Heavy
        // plans collapse to a zero measured score with every DNC
        // attributed to the layer the device starved in — exactly the
        // signal the analytic model cannot see. (The most compressed
        // plans may still squeeze a run out of the initial charge; the
        // measured ranking is what separates them.)
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let results = sweep(&tiny_base(), &tiny_space(), &c);
        let cfg = FleetScoreConfig {
            // ~0.25 µJ usable: far less than the uncompressed plan's
            // inference energy, close to the cheapest plans'.
            power: PowerSystem::harvested_with(2e-6, mcu::HarvestProfile::Constant(0.0)),
            ..score_cfg(2)
        };
        let scored = fleet_score(&results, &c, &cfg);
        assert!(!scored.is_empty());
        assert!(
            scored.iter().any(|s| s.completed == 0),
            "at least one frontier plan must starve outright"
        );
        for s in &scored {
            // Every DNC run is attributed to a starved region.
            let total: u64 = s.starved().iter().map(|(_, n)| n).sum();
            assert_eq!(total, (s.runs - s.completed) as u64, "{}", s.label);
            if s.completed == 0 {
                assert_eq!(s.dnc_rate, 1.0);
                assert_eq!(s.measured_impj, 0.0, "{}", s.label);
                assert_eq!(s.measured_accuracy, 0.0);
            }
        }
        // The chooser ranks on the measured score, so an all-DNC plan
        // can never beat one that produced detections.
        let best = choose_measured(&scored).unwrap();
        let top_measured = scored
            .iter()
            .map(|s| s.measured_impj)
            .fold(f64::MIN, f64::max);
        assert_eq!(best.measured_impj, top_measured);
    }
}
