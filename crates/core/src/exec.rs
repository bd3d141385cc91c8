//! One entry point to run any implementation on any power system.

use crate::deploy::{deploy, DeployedModel};
use crate::{baseline, sonic, stateful, tails, tiled};
use dnn::quant::QModel;
use fxp::Q15;
use intermittent::alpaca::AlpacaRt;
use intermittent::sched::{FailureEvent, RunError, RunState, RunStats, SchedulerConfig};
use intermittent::task::TaskGraph;
use mcu::{Device, DeviceSpec, FaultPlan, PowerSystem, TraceReport};

pub use crate::tails::TailsConfig;

/// Which inference implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Naïve baseline (no intermittence support; restarts from scratch).
    Baseline,
    /// Alpaca-style task tiling with `N` iterations per task.
    Tiled(u32),
    /// SONIC (software only).
    Sonic,
    /// SONIC with sparse undo-logging disabled (loop-ordered buffering on
    /// sparse FC layers) — the §6.2.2 design-choice ablation.
    SonicNoUndo,
    /// TAILS (LEA + DMA per the config).
    Tails(TailsConfig),
    /// DynBal-style stateful progress embedding: activation words carry
    /// an in-band tag/parity, and a reboot binary-searches the output
    /// buffer for the resume point — no control words, no redo log (see
    /// [`crate::stateful`]).
    Stateful,
}

impl Backend {
    /// The six implementations evaluated in the paper's Fig. 9.
    pub fn paper_suite() -> Vec<Backend> {
        vec![
            Backend::Baseline,
            Backend::Tiled(8),
            Backend::Tiled(32),
            Backend::Tiled(128),
            Backend::Sonic,
            Backend::Tails(TailsConfig::default()),
        ]
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            Backend::Baseline => "Base".to_string(),
            Backend::Tiled(n) => format!("Tile-{n}"),
            Backend::Sonic => "SONIC".to_string(),
            Backend::SonicNoUndo => "SONIC-no-undo".to_string(),
            Backend::Tails(cfg) if *cfg == TailsConfig::default() => "TAILS".to_string(),
            Backend::Tails(cfg) => {
                format!("TAILS(lea={},dma={})", cfg.use_lea as u8, cfg.use_dma as u8)
            }
            Backend::Stateful => "Stateful".to_string(),
        }
    }
}

impl core::fmt::Display for Backend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The exact op the final brown-out of a failed run landed on, resolved
/// to human-readable accounting names (see [`mcu::BrownoutInfo`] for the
/// raw device-side record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BrownoutRecord {
    /// Index of the failed op in the device's charged-op stream.
    pub op_index: u64,
    /// The op class that failed to complete.
    pub op: mcu::Op,
    /// The accounting phase the failed op was charged under.
    pub phase: mcu::Phase,
    /// Name of the accounting region (layer/task) the op belonged to.
    pub region: String,
    /// `true` for a [`FaultPlan`]-injected failure, `false` for a buffer
    /// that genuinely ran dry.
    pub injected: bool,
}

impl core::fmt::Display for BrownoutRecord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} op#{} ({:?}/{:?}) in {}",
            if self.injected { "injected" } else { "natural" },
            self.op_index,
            self.op,
            self.phase,
            self.region
        )
    }
}

/// The result of one inference run on the device.
#[derive(Clone, Debug)]
pub struct InferenceOutcome {
    /// Which backend ran.
    pub backend: String,
    /// Which power system it ran on.
    pub power: String,
    /// `true` when inference finished ("completes" in Fig. 9's terms).
    pub completed: bool,
    /// The output logits (empty when not completed).
    pub output: Vec<Q15>,
    /// Predicted class (argmax), when completed.
    pub class: Option<usize>,
    /// The full energy/time trace (valid either way — for non-terminating
    /// runs it covers the attempts made before giving up).
    pub trace: TraceReport,
    /// Scheduler statistics, when completed.
    pub stats: Option<RunStats>,
    /// Corruption detections the integrity guards noted during the run
    /// (each either recovered or escalated). Zero on fault-free runs.
    pub corruption_detected: u64,
    /// Why the run did not complete; `None` for completed runs.
    pub failure: Option<Failure>,
}

/// Why a run did not complete ("does not complete" in Fig. 9's terms),
/// with the forensics the device still holds after the run gave up.
///
/// `B` is the brown-out's representation: the resolved
/// [`BrownoutRecord`] in RAM, its display string in an experiment's
/// [`RunRecord`](crate::experiment::RunRecord).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure<B = BrownoutRecord> {
    /// The scheduler's typed verdict. A [`RunError::Corrupted`] run is
    /// *corrupted*, not merely incomplete: its detected corruption could
    /// not be recovered.
    pub error: RunError,
    /// The accounting region (layer/task) that was executing when the
    /// run gave up — the layer the device *starved* in.
    /// [`crate::fleet::CellSummary::starved`] aggregates these into a
    /// starvation histogram, and the per-region reboot counts behind it
    /// are in [`mcu::trace::RegionReport::reboots`].
    pub starved_region: String,
    /// The exact op the *final* brown-out landed on (op index, op class,
    /// phase, region, and whether it was injected), when one happened.
    pub brownout: Option<B>,
}

impl<B> Failure<B> {
    /// The region an unrecoverable-corruption abort was detected in.
    pub fn corrupted_region(&self) -> Option<&str> {
        match &self.error {
            RunError::Corrupted { region, .. } => Some(region),
            _ => None,
        }
    }

    /// The stuck task of a [`RunError::NonTermination`] run — fleets
    /// count these separately from generic "does not complete".
    pub fn non_termination_task(&self) -> Option<&str> {
        match &self.error {
            RunError::NonTermination { task, .. } => Some(task),
            _ => None,
        }
    }
}

impl InferenceOutcome {
    /// Live execution time in seconds (at the device clock).
    pub fn live_secs(&self, spec: &DeviceSpec) -> f64 {
        spec.cycles_to_secs(self.trace.live_cycles)
    }

    /// Total wall-clock time in seconds: live + recharging.
    pub fn total_secs(&self, spec: &DeviceSpec) -> f64 {
        self.live_secs(spec) + self.trace.dead_secs
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.trace.total_energy_pj as f64 * 1e-9
    }
}

/// Deploys `qm` and runs one inference on a fresh device.
///
/// # Panics
///
/// Panics if the model does not fit in FRAM (use
/// [`dnn::quant::QModel::fram_words`] to check feasibility first — that is
/// GENESIS's job).
pub fn run_inference(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
) -> InferenceOutcome {
    let mut dev = Device::new(spec.clone(), power);
    let dm = deploy(&mut dev, qm).expect("model must fit in FRAM");
    dm.load_input(&mut dev, input);
    run_deployed(&mut dev, &dm, backend)
}

/// Like [`run_inference`], but arms a deterministic [`FaultPlan`] before
/// the run: each target fires at that charged-op index — a brown-out, a
/// torn store, a bit flip, or a stuck-at cell ([`mcu::FaultKind`]) —
/// *relative to the start of inference* (deployment ops are excluded, so
/// the same plan means the same boundary across power systems). Injection
/// works on continuous power too — the recovery paths execute without any
/// recharge dead time, which is how the crash-consistency suite gets
/// exhaustive schedules cheaply.
///
/// # Panics
///
/// Panics if the model does not fit in FRAM (see [`run_inference`]).
pub fn run_inference_faulted(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
    plan: &FaultPlan,
) -> InferenceOutcome {
    let mut dev = Device::new(spec.clone(), power);
    let dm = deploy(&mut dev, qm).expect("model must fit in FRAM");
    dm.load_input(&mut dev, input);
    let base = dev.ops_consumed();
    dev.arm_faults(&plan.shifted(base));
    run_deployed(&mut dev, &dm, backend)
}

/// Runs one inference over an already-deployed model (the input must be
/// loaded). Useful for repeated inferences on one device.
///
/// The returned [`InferenceOutcome::trace`] is a **per-run** report: a
/// trace epoch begins when this function is entered, so back-to-back runs
/// on one deployment report their own energy, live cycles, dead time, and
/// reboots instead of device-lifetime cumulative totals (which silently
/// double-counted for every run after the first).
pub fn run_deployed(dev: &mut Device, dm: &DeployedModel, backend: &Backend) -> InferenceOutcome {
    run_deployed_observed(dev, dm, backend, |_, _, _| {})
}

/// [`run_deployed`], calling `observe` on every power failure, between
/// the brown-out and the reboot (see [`run_observed`]), with the run's
/// Alpaca runtime when the backend has one. The crash-consistency spec
/// checks every crash state through it.
///
/// [`run_observed`]: intermittent::sched::run_observed
pub(crate) fn run_deployed_observed(
    dev: &mut Device,
    dm: &DeployedModel,
    backend: &Backend,
    observe: impl FnMut(&Device, Option<&AlpacaRt>, FailureEvent),
) -> InferenceOutcome {
    Session::start(dev, dm, backend).finish(dev, dm, observe)
}

/// A backend's task graph with the runtime context it runs against.
#[derive(Clone)]
enum Graph {
    /// Tile-N over the Alpaca redo-log runtime.
    Alpaca(TaskGraph<AlpacaRt>, Box<AlpacaRt>),
    /// Every other backend: no runtime context.
    Plain(TaskGraph<()>),
}

/// One inference run in progress on a device: the backend's task graph,
/// its runtime context, the scheduler's loop state and the allocation
/// marks the run rewinds to when it ends.
///
/// [`Session::step`] runs one task transition at a time. Between steps
/// the run stands at a task boundary, where the session and the device
/// hold all of its state: the FRAM image, trace epoch, power and op
/// counter on the device; the task bodies with their recorded sites, the
/// Alpaca log and commit phase, and the scheduler's counters in the
/// session. A clone of both therefore continues exactly as the original
/// would — the crash-consistency sweeps fork their faulted runs from
/// such snapshots (see [`crate::spec`]).
#[derive(Clone)]
pub(crate) struct Session {
    backend: Backend,
    graph: Graph,
    state: RunState,
    cfg: SchedulerConfig,
    alloc_marks: (u32, u32),
    start_ops: u64,
}

impl Session {
    /// Starts a run of `backend` over the deployment `dm` on `dev` (the
    /// input must be loaded): begins the trace epoch, resets the
    /// corruption accounting and builds the runtime. Charges no op.
    pub(crate) fn start(dev: &mut Device, dm: &DeployedModel, backend: &Backend) -> Session {
        dev.begin_epoch();
        dev.reset_corruption_stats();
        // Runtime construction allocates per-run working state (TAILS
        // SRAM staging buffers, the Alpaca commit flag); the run rewinds
        // it when it ends, so a reused deployment links every run against
        // the identical layout instead of leaking the arenas.
        let alloc_marks = dev.alloc_watermarks();
        let graph = match backend {
            Backend::Tiled(n) => {
                let rt = AlpacaRt::new(dev).expect("FRAM for commit flag");
                Graph::Alpaca(tiled::build(dm, *n), Box::new(rt))
            }
            Backend::Baseline => Graph::Plain(baseline::build(dm)),
            Backend::Sonic => Graph::Plain(sonic::build(dm, true)),
            Backend::SonicNoUndo => Graph::Plain(sonic::build(dm, false)),
            Backend::Tails(cfg) => Graph::Plain(tails::build(dm, *cfg, dev)),
            Backend::Stateful => {
                stateful::prepare_run(dev, dm);
                Graph::Plain(stateful::build(dm))
            }
        };
        let cfg = if *backend == Backend::Baseline {
            SchedulerConfig::from_entry()
        } else {
            SchedulerConfig::task_based()
        };
        Session {
            backend: *backend,
            graph,
            state: RunState::new(dev, 0),
            cfg,
            alloc_marks,
            start_ops: dev.ops_consumed(),
        }
    }

    /// The device's op counter when the run started: fault targets are
    /// relative to it.
    pub(crate) fn start_ops(&self) -> u64 {
        self.start_ops
    }

    /// The run's Alpaca runtime, when the backend has one.
    pub(crate) fn alpaca(&self) -> Option<&AlpacaRt> {
        match &self.graph {
            Graph::Alpaca(_, rt) => Some(&**rt),
            Graph::Plain(_) => None,
        }
    }

    /// Runs one task transition (see [`RunState::step`]): `None` at the
    /// next task boundary, the run's result once it has ended.
    pub(crate) fn step(
        &mut self,
        dev: &mut Device,
        observe: &mut impl FnMut(&Device, Option<&AlpacaRt>, FailureEvent),
    ) -> Option<Result<RunStats, RunError>> {
        let r = match &mut self.graph {
            Graph::Alpaca(g, rt) => {
                self.state
                    .step(g, &mut **rt, dev, &self.cfg, &mut |d, rt, ev| {
                        observe(d, Some(rt), ev)
                    })
            }
            Graph::Plain(g) => self
                .state
                .step(g, &mut (), dev, &self.cfg, &mut |d, _, ev| {
                    observe(d, None, ev)
                }),
        };
        r.transpose()
    }

    /// Runs the session to its end and reports the outcome.
    pub(crate) fn finish(
        mut self,
        dev: &mut Device,
        dm: &DeployedModel,
        mut observe: impl FnMut(&Device, Option<&AlpacaRt>, FailureEvent),
    ) -> InferenceOutcome {
        loop {
            if let Some(result) = self.step(dev, &mut observe) {
                return self.outcome(dev, dm, result);
            }
        }
    }

    /// The outcome of the ended run, `result` being its last step's.
    pub(crate) fn outcome(
        self,
        dev: &mut Device,
        dm: &DeployedModel,
        result: Result<RunStats, RunError>,
    ) -> InferenceOutcome {
        let backend = &self.backend;
        dev.rewind_allocs(self.alloc_marks);
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => return failed_outcome(dev, backend, e),
        };
        let output = match backend {
            // Stateful activations carry in-band tags; strip them.
            Backend::Stateful => stateful::cleared_output(dev, dm),
            _ => dm.read_output(dev),
        };
        InferenceOutcome {
            backend: backend.label(),
            power: dev.power().label(),
            completed: true,
            class: fxp::vecops::argmax(&output),
            output,
            trace: dev.epoch_report(),
            stats: Some(stats),
            corruption_detected: dev.corruption_detected(),
            failure: None,
        }
    }
}

/// The outcome of a run that ended in `error` on `dev`: the current trace
/// epoch, plus the region and brown-out the device is parked on.
pub(crate) fn failed_outcome(dev: &Device, backend: &Backend, error: RunError) -> InferenceOutcome {
    InferenceOutcome {
        backend: backend.label(),
        power: dev.power().label(),
        completed: false,
        output: Vec::new(),
        class: None,
        trace: dev.epoch_report(),
        stats: None,
        corruption_detected: dev.corruption_detected(),
        failure: Some(Failure {
            error,
            starved_region: starved_region_name(dev),
            brownout: brownout_record(dev),
        }),
    }
}

/// Resolves the device's most recent brown-out into region-named form.
fn brownout_record(dev: &Device) -> Option<BrownoutRecord> {
    dev.last_brownout().map(|b| BrownoutRecord {
        op_index: b.op_index,
        op: b.op,
        phase: b.phase,
        region: dev
            .trace()
            .region_names()
            .get(b.region.index())
            .cloned()
            .unwrap_or_else(|| "other".to_string()),
        injected: b.injected,
    })
}

/// Verifies that `backend`'s per-run runtime working state can be
/// allocated on `dev` — the TAILS SRAM staging buffers, the Alpaca
/// commit flag, the stateful backend's per-buffer tag budget against
/// the deployed model `dm` — releasing the probe allocations again.
///
/// [`deploy`](crate::deploy()) checks the *model's* footprint; this
/// checks the rest: [`run_deployed`] builds the runtime with
/// `expect` (a mis-sized device spec is normally a programming error,
/// not a runtime condition), so search loops that machine-generate
/// configurations ([`genesis`-style fleet scoring]) should pre-flight
/// with this instead of panicking mid-fleet.
///
/// [`genesis`-style fleet scoring]: crate::fleet
///
/// # Errors
///
/// Returns the [`mcu::AllocError`] the runtime build would have
/// panicked on.
pub fn preflight_runtime(
    dev: &mut Device,
    dm: &DeployedModel,
    backend: &Backend,
) -> Result<(), mcu::AllocError> {
    match backend {
        Backend::Baseline | Backend::Sonic | Backend::SonicNoUndo => Ok(()),
        Backend::Tiled(_) => {
            let marks = dev.alloc_watermarks();
            let r = AlpacaRt::new(dev).map(|_| ());
            dev.rewind_allocs(marks);
            r
        }
        Backend::Tails(_) => tails::preflight_sram(dev),
        // The stateful backend needs no runtime arenas, but the model
        // must fit the in-band tag space: ≤ 7 write passes per buffer.
        Backend::Stateful => stateful::preflight(dm),
    }
}

/// The name of the region the device was executing when it gave up: the
/// accounting context survives the failure (tasks set it on entry and
/// nothing resets it on a brown-out), so after an aborted run it still
/// names the starving layer/task.
pub(crate) fn starved_region_name(dev: &Device) -> String {
    let (region, _) = dev.context();
    dev.trace()
        .region_names()
        .get(region.index())
        .cloned()
        .unwrap_or_else(|| "other".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::quantize;
    use dnn::tensor::Tensor;
    use rand::SeedableRng;

    /// A small CNN with a pruned (sparse) FC layer, exercising every
    /// kernel kind: conv, relu, pool, sparse dense, dense.
    fn tiny_qmodel() -> (QModel, Vec<Q15>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let mut model = Model::new(vec![
            Layer::conv2d(4, 1, 3, 3, &mut rng),
            Layer::relu(),
            Layer::maxpool(2),
            Layer::flatten(),
            Layer::dense(4 * 7 * 7, 12, &mut rng),
            Layer::relu(),
            Layer::dense(12, 4, &mut rng),
        ]);
        genesis_like_prune(&mut model);
        let shape = [1usize, 16, 16];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
        let input = qm.quantize_input(&x);
        (qm, input)
    }

    /// Prunes the big FC layer so a sparse-deployed layer exists.
    fn genesis_like_prune(model: &mut Model) {
        let l = &mut model.layers_mut()[4];
        if let Layer::Dense(d) = l {
            let mut mask = Tensor::zeros(d.w.shape().to_vec());
            for (i, m) in mask.data_mut().iter_mut().enumerate() {
                if i % 7 == 0 {
                    *m = 1.0;
                }
            }
            l.set_mask(mask);
        }
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::msp430fr5994()
    }

    #[test]
    fn all_backends_complete_on_continuous_power() {
        let (qm, input) = tiny_qmodel();
        let host = qm.forward_host(&input);
        let host_class = fxp::vecops::argmax(&host);
        for b in Backend::paper_suite() {
            let out = run_inference(&qm, &input, &spec(), PowerSystem::continuous(), &b);
            assert!(out.completed, "{b} must complete on continuous power");
            assert_eq!(out.output.len(), host.len());
            // All implementations compute the same network; rounding-order
            // differences stay small.
            for (a, h) in out.output.iter().zip(&host) {
                let diff = (a.to_f32() - h.to_f32()).abs();
                assert!(diff < 0.02, "{b}: output diverges by {diff}");
            }
            assert_eq!(out.class, host_class, "{b}: classification changed");
        }
    }

    #[test]
    fn baseline_matches_host_reference_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let host = qm.forward_host(&input);
        let out = run_inference(
            &qm,
            &input,
            &spec(),
            PowerSystem::continuous(),
            &Backend::Baseline,
        );
        assert_eq!(out.output, host, "baseline shares the host semantics");
    }

    #[test]
    fn intermittent_sonic_matches_continuous_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let cont = run_inference(
            &qm,
            &input,
            &spec(),
            PowerSystem::continuous(),
            &Backend::Sonic,
        );
        let inter = run_inference(
            &qm,
            &input,
            &spec(),
            PowerSystem::cap_100uf(),
            &Backend::Sonic,
        );
        assert!(inter.completed, "SONIC must complete on 100 µF");
        assert!(inter.trace.reboots > 0, "test needs real power failures");
        assert_eq!(inter.output, cont.output, "intermittent == continuous");
    }

    #[test]
    fn intermittent_tails_matches_continuous_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let b = Backend::Tails(TailsConfig::default());
        let cont = run_inference(&qm, &input, &spec(), PowerSystem::continuous(), &b);
        // TAILS is efficient enough that 100 µF never browns out on this
        // tiny model; use a smaller buffer to force failures.
        let inter = run_inference(&qm, &input, &spec(), PowerSystem::harvested(10e-6), &b);
        assert!(inter.completed, "TAILS must complete on 10 µF");
        assert!(inter.trace.reboots > 0, "test needs real power failures");
        assert_eq!(inter.output, cont.output, "intermittent == continuous");
    }

    #[test]
    fn intermittent_tile8_matches_continuous_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let b = Backend::Tiled(8);
        let cont = run_inference(&qm, &input, &spec(), PowerSystem::continuous(), &b);
        let inter = run_inference(&qm, &input, &spec(), PowerSystem::cap_100uf(), &b);
        assert!(inter.completed, "Tile-8 must complete on 100 µF");
        assert!(inter.trace.reboots > 0, "test needs real power failures");
        assert_eq!(inter.output, cont.output, "intermittent == continuous");
    }

    #[test]
    fn intermittent_stateful_matches_continuous_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let b = Backend::Stateful;
        let host = qm.forward_host(&input);
        let cont = run_inference(&qm, &input, &spec(), PowerSystem::continuous(), &b);
        assert!(cont.completed, "Stateful must complete on continuous power");
        // The tag/parity fields cost the low 5 bits of every activation,
        // so the output is near the host reference, not bit-equal to it.
        let worst = cont
            .output
            .iter()
            .zip(&host)
            .map(|(a, b)| (a.to_f32() - b.to_f32()).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 0.05, "embedding cost too much precision: {worst}");
        let inter = run_inference(&qm, &input, &spec(), PowerSystem::cap_100uf(), &b);
        assert!(inter.completed, "Stateful must complete on 100 µF");
        assert!(inter.trace.reboots > 0, "test needs real power failures");
        assert_eq!(inter.output, cont.output, "intermittent == continuous");
    }

    #[test]
    fn stateful_preflight_rejects_models_beyond_the_tag_space() {
        // Seven dense+relu pairs put 8 write passes on one activation
        // buffer — one more than the 7-tag budget.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut layers = Vec::new();
        for _ in 0..7 {
            layers.push(Layer::dense(6, 6, &mut rng));
            layers.push(Layer::relu());
        }
        let mut model = Model::new(layers);
        let shape = [6usize];
        let calib: Vec<Tensor> = (0..2)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let mut dev = Device::new(spec(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).unwrap();
        let e = preflight_runtime(&mut dev, &dm, &Backend::Stateful)
            .expect_err("8 passes on one buffer must be rejected");
        assert_eq!(e.available, crate::stateful::MAX_PASSES_PER_BUF);
        // The paper-suite backends are unaffected by the pass budget.
        preflight_runtime(&mut dev, &dm, &Backend::Sonic).unwrap();
    }

    #[test]
    fn sonic_is_slower_than_baseline_but_much_faster_than_tiles() {
        let (qm, input) = tiny_qmodel();
        let s = spec();
        let base = run_inference(
            &qm,
            &input,
            &s,
            PowerSystem::continuous(),
            &Backend::Baseline,
        );
        let son = run_inference(&qm, &input, &s, PowerSystem::continuous(), &Backend::Sonic);
        let t8 = run_inference(
            &qm,
            &input,
            &s,
            PowerSystem::continuous(),
            &Backend::Tiled(8),
        );
        let (eb, es, et) = (base.energy_mj(), son.energy_mj(), t8.energy_mj());
        assert!(es > eb, "SONIC adds overhead over base");
        assert!(et > es * 2.0, "tiling should cost much more than SONIC");
    }

    #[test]
    fn tails_calibration_shrinks_on_small_buffers() {
        let (qm, input) = tiny_qmodel();
        let s = spec();
        // Continuous: first candidate survives.
        let mut dev = Device::new(s.clone(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).unwrap();
        dm.load_input(&mut dev, &input);
        let out = run_deployed(&mut dev, &dm, &Backend::Tails(TailsConfig::default()));
        assert!(out.completed);
        let calibrated = dev.peek_word(dm.calib);
        assert_eq!(calibrated, crate::tails::CALIB_INITIAL);
    }

    #[test]
    fn outcome_reports_time_and_energy() {
        let (qm, input) = tiny_qmodel();
        let s = spec();
        let out = run_inference(&qm, &input, &s, PowerSystem::cap_1mf(), &Backend::Sonic);
        assert!(out.completed);
        assert!(out.live_secs(&s) > 0.0);
        assert!(out.total_secs(&s) >= out.live_secs(&s));
        assert!(out.energy_mj() > 0.0);
        assert_eq!(out.power, "1mF");
        assert_eq!(out.backend, "SONIC");
    }

    /// Runs `backend` on `power` uninterrupted, then once more, forking a
    /// clone of the device and the session at every task boundary and
    /// finishing it: every fork must end in the uninterrupted run's
    /// outcome (Debug-equal, so trace and stats included), FRAM image and
    /// op counter. Returns the number of boundaries forked and the run's
    /// reboots.
    fn assert_forks_finish_alike(
        qm: &QModel,
        input: &[Q15],
        backend: &Backend,
        power: PowerSystem,
    ) -> (usize, u64) {
        let mut tmpl = Device::new(spec(), power);
        let dm = deploy(&mut tmpl, qm).expect("fits");
        dm.load_input(&mut tmpl, input);
        let mut whole = tmpl.clone();
        let want = run_deployed(&mut whole, &dm, backend);
        let reboots = want.trace.reboots;
        let want = format!("{want:?}");
        let same = |dev: &Device, got: InferenceOutcome, at: &str| {
            let label = format!("{backend} on {}: {at}", dev.power().label());
            assert_eq!(format!("{got:?}"), want, "{label}: outcome");
            assert_eq!(dev.fram_image(), whole.fram_image(), "{label}: FRAM");
            assert_eq!(dev.ops_consumed(), whole.ops_consumed(), "{label}: ops");
        };
        let mut dev = tmpl;
        let mut session = Session::start(&mut dev, &dm, backend);
        let mut forks = 0;
        let result = loop {
            let (mut fork, s) = (dev.clone(), session.clone());
            let got = s.finish(&mut fork, &dm, |_, _, _| {});
            same(&fork, got, &format!("fork at boundary {forks}"));
            forks += 1;
            if let Some(r) = session.step(&mut dev, &mut |_, _, _| {}) {
                break r;
            }
        };
        let got = session.outcome(&mut dev, &dm, result);
        same(&dev, got, "the stepped run");
        (forks, reboots)
    }

    #[test]
    fn resumed_runs_finish_like_the_uninterrupted_run() {
        // The multi-task backends on the Tile-N fixture CNN and the
        // pruned-FC model. 10 µF browns out every backend on one of the
        // models, so forks also carry a mid-run power state and the
        // scheduler's no-progress counters.
        for b in [
            Backend::Sonic,
            Backend::SonicNoUndo,
            Backend::Tails(TailsConfig::default()),
            Backend::Tiled(4),
            Backend::Tiled(8),
        ] {
            let mut rebooted = 0;
            for (qm, input) in [
                tests_support::tiny_cnn(),
                tests_support::tiny_pruned_qmodel(),
            ] {
                for power in [
                    PowerSystem::continuous(),
                    PowerSystem::cap_100uf(),
                    PowerSystem::harvested(10e-6),
                ] {
                    let (forks, reboots) = assert_forks_finish_alike(&qm, &input, &b, power);
                    assert!(forks > 3, "{b}: only {forks} task boundaries");
                    rebooted += reboots;
                }
            }
            assert!(rebooted > 0, "{b}: no run browned out");
        }
    }

    #[test]
    fn backend_labels_match_paper() {
        let labels: Vec<String> = Backend::paper_suite().iter().map(|b| b.label()).collect();
        assert_eq!(
            labels,
            vec!["Base", "Tile-8", "Tile-32", "Tile-128", "SONIC", "TAILS"]
        );
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::exec::tests_support::tiny_pruned_qmodel;

    #[test]
    fn sonic_no_undo_matches_sonic_outputs_but_costs_more() {
        let (qm, input) = tiny_pruned_qmodel();
        let spec = DeviceSpec::msp430fr5994();
        let a = run_inference(
            &qm,
            &input,
            &spec,
            PowerSystem::continuous(),
            &Backend::Sonic,
        );
        let b = run_inference(
            &qm,
            &input,
            &spec,
            PowerSystem::continuous(),
            &Backend::SonicNoUndo,
        );
        assert!(a.completed && b.completed);
        assert_eq!(a.output, b.output, "both variants compute the same layer");
        assert!(
            b.trace.live_cycles > a.trace.live_cycles,
            "loop-ordered buffering must waste work on sparse FC: {} vs {}",
            b.trace.live_cycles,
            a.trace.live_cycles
        );
    }

    #[test]
    fn sonic_no_undo_intermittent_matches_continuous() {
        let (qm, input) = tiny_pruned_qmodel();
        let spec = DeviceSpec::msp430fr5994();
        let b = Backend::SonicNoUndo;
        let cont = run_inference(&qm, &input, &spec, PowerSystem::continuous(), &b);
        let inter = run_inference(&qm, &input, &spec, PowerSystem::harvested(8e-6), &b);
        assert!(inter.completed);
        assert!(inter.trace.reboots > 0, "needs real power failures");
        assert_eq!(inter.output, cont.output);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::quantize;
    use dnn::tensor::Tensor;
    use rand::SeedableRng;

    /// The Tile-N fixture network (`tiled::tests`) and its input: conv,
    /// ReLU, pool, a pruned (sparse) FC and a dense FC on a 6×6 input.
    pub(crate) fn tiny_cnn() -> (QModel, Vec<Q15>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
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
                if i % 3 == 0 {
                    *m = 1.0;
                }
            }
            l.set_mask(mask);
        }
        let shape = [1usize, 6, 6];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
        let input = qm.quantize_input(&x);
        (qm, input)
    }

    /// A model whose dominant layer is a heavily pruned (sparse) FC.
    pub(crate) fn tiny_pruned_qmodel() -> (QModel, Vec<Q15>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut model = Model::new(vec![
            Layer::dense(40, 64, &mut rng),
            Layer::relu(),
            Layer::dense(64, 5, &mut rng),
        ]);
        let l = &mut model.layers_mut()[0];
        if let Layer::Dense(d) = l {
            let mut mask = Tensor::zeros(d.w.shape().to_vec());
            for (i, m) in mask.data_mut().iter_mut().enumerate() {
                if i % 9 == 0 {
                    *m = 1.0;
                }
            }
            l.set_mask(mask);
        }
        let shape = [40usize];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
        let input = qm.quantize_input(&x);
        (qm, input)
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::quantize;
    use dnn::tensor::Tensor;
    use rand::SeedableRng;

    /// A conv layer where one filter is pruned to ZERO taps: the SONIC
    /// finishing pass must still write that filter's plane (bias only),
    /// and intermittent execution must stay bit-exact.
    #[test]
    fn fully_pruned_filter_still_produces_its_plane() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut model = Model::new(vec![
            Layer::conv2d(3, 1, 3, 3, &mut rng),
            Layer::flatten(),
            Layer::dense(3 * 6 * 6, 4, &mut rng),
        ]);
        // Zero out filter 1 entirely; keep the layer sparse.
        let l = &mut model.layers_mut()[0];
        if let Layer::Conv2d(c) = l {
            let mut mask = Tensor::zeros(c.filters.shape().to_vec());
            for (i, m) in mask.data_mut().iter_mut().enumerate() {
                // filter index = i / 9; keep filters 0 and 2 sparse-ish.
                let f = i / 9;
                if f != 1 && i % 3 == 0 {
                    *m = 1.0;
                }
            }
            l.set_mask(mask);
        }
        let shape = [1usize, 8, 8];
        let calib: Vec<Tensor> = (0..2)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        assert!(qm.layers[0].is_sparse(), "conv should deploy sparse");
        let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
        let input = qm.quantize_input(&x);
        let spec = DeviceSpec::msp430fr5994();
        let host = qm.forward_host(&input);
        for b in [Backend::Sonic, Backend::Tiled(16)] {
            let cont = run_inference(&qm, &input, &spec, PowerSystem::continuous(), &b);
            assert!(cont.completed, "{b}");
            // Same classification as the host reference.
            assert_eq!(cont.class, fxp::vecops::argmax(&host), "{b}");
            let inter = run_inference(&qm, &input, &spec, PowerSystem::harvested(6e-6), &b);
            assert!(inter.completed, "{b} intermittent");
            assert_eq!(inter.output, cont.output, "{b} bit-exactness");
        }
    }

    /// Repeated inferences on one deployed model: control words must
    /// self-reset so back-to-back runs agree.
    #[test]
    fn repeated_inferences_on_one_deployment_agree() {
        let (qm, input) = crate::exec::tests_support::tiny_pruned_qmodel();
        let spec = DeviceSpec::msp430fr5994();
        let mut dev = Device::new(spec, PowerSystem::continuous());
        let dm = crate::deploy::deploy(&mut dev, &qm).unwrap();
        // The activation buffers ping-pong, so the (consumed) input is
        // clobbered by later layers: each inference starts by loading its
        // reading, exactly as a sensor pipeline would.
        dm.load_input(&mut dev, &input);
        let first = run_deployed(&mut dev, &dm, &Backend::Sonic);
        dm.load_input(&mut dev, &input);
        let second = run_deployed(&mut dev, &dm, &Backend::Sonic);
        assert!(first.completed && second.completed);
        assert_eq!(first.output, second.output, "state must self-reset");
    }

    /// Regression test for the cumulative-trace bug: `run_deployed` used
    /// to report the device-lifetime trace, so the second of two
    /// identical runs reported double the energy and live time.
    #[test]
    fn back_to_back_runs_report_per_run_traces_not_cumulative() {
        let (qm, input) = crate::exec::tests_support::tiny_pruned_qmodel();
        let spec = DeviceSpec::msp430fr5994();

        // Continuous power: the second run must report the same (not
        // doubled) energy and live cycles, and zero dead time/reboots.
        let mut dev = Device::new(spec.clone(), PowerSystem::continuous());
        let dm = crate::deploy::deploy(&mut dev, &qm).unwrap();
        dm.load_input(&mut dev, &input);
        let first = run_deployed(&mut dev, &dm, &Backend::Sonic);
        dm.load_input(&mut dev, &input);
        let second = run_deployed(&mut dev, &dm, &Backend::Sonic);
        assert!(first.completed && second.completed);
        assert!(first.trace.total_energy_pj > 0);
        assert_eq!(first.trace.total_energy_pj, second.trace.total_energy_pj);
        assert_eq!(first.trace.live_cycles, second.trace.live_cycles);
        assert_eq!(first.trace.dead_secs, second.trace.dead_secs);
        assert_eq!(first.trace.reboots, second.trace.reboots);

        // Harvested power with real reboots: drain and reboot before each
        // run (outside any epoch) so both runs start from the identical
        // post-boot charge — identical physics, so *all four* per-run
        // quantities must match exactly, including dead seconds and
        // reboots.
        let mut dev = Device::new(spec, PowerSystem::harvested(8e-6));
        let dm = crate::deploy::deploy(&mut dev, &qm).unwrap();
        while dev.consume(mcu::Op::Nop).is_ok() {}
        dev.reboot().unwrap();
        dm.load_input(&mut dev, &input);
        let first = run_deployed(&mut dev, &dm, &Backend::Sonic);
        assert!(first.completed);
        assert!(first.trace.reboots > 0, "test needs real power failures");
        while dev.consume(mcu::Op::Nop).is_ok() {}
        dev.reboot().unwrap();
        dm.load_input(&mut dev, &input);
        let second = run_deployed(&mut dev, &dm, &Backend::Sonic);
        assert!(second.completed);
        assert_eq!(first.trace.total_energy_pj, second.trace.total_energy_pj);
        assert_eq!(first.trace.live_cycles, second.trace.live_cycles);
        assert_eq!(first.trace.reboots, second.trace.reboots);
        assert_eq!(first.trace.dead_secs, second.trace.dead_secs);
    }
}
