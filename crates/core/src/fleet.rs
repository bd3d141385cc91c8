//! The fleet evaluation engine: populations of inferences per cell.
//!
//! The paper's headline results (Fig. 9, Table 2) are statements about
//! *populations* of inferences — accuracy over a test set, completion
//! rates, latency distributions — under harvested power. A [`FleetJob`]
//! runs many test-set inputs through every `(backend, power system)` cell
//! and reports per-run outcomes plus distributional summaries
//! ([`CellSummary`]), replacing the one-input-per-cell serial harness.
//!
//! # Execution model
//!
//! Each cell is served by [`FleetJob::replicas`] simulated devices: the
//! cell's inputs are split into contiguous shards ([`plan_shards`]), and
//! each shard deploys (flashes) the model once onto a fresh replica and
//! runs its input span over that same deployment, exactly like a fielded
//! sensor running inference after inference. Per-run numbers come from
//! trace epochs (see [`crate::exec::run_deployed`]), so runs do not
//! accumulate into each other; time-varying harvest profiles keep
//! integrating on the device's absolute clock across runs, so a run that
//! starts mid-occlusion really waits. The historical `replicas == 1`
//! configuration is exactly the original one-deployment-per-cell engine.
//!
//! # Determinism and the shard purity rule
//!
//! Shards are fanned across threads by [`par_map`], a
//! `std::thread::scope` work queue with an indexed collect (one `Device`
//! per in-flight shard, results sorted back into submission order).
//! Every shard is a pure function of `(job, cell, shard span)` — a
//! fresh replica never observes another shard's buffer charge, harvest
//! clock, or FRAM — so fleet results are bit-identical on any thread
//! count (one included), across repeated runs, and across
//! kill/resume boundaries (the experiment service in
//! [`crate::experiment`] leans on this), which the test suite pins via
//! [`fleet_digest`]. Note the replica count itself is *job semantics*,
//! not a parallelism knob: device state legitimately carries across runs
//! within one deployment (buffer charge, absolute harvest time, TAILS
//! calibration words), so changing `replicas` may legitimately change
//! physics — and therefore digests — on state-dependent cells.
//!
//! # Lockstep batching and replicas
//!
//! Continuous fault-free shards route their runs through
//! [`crate::lockstep`]: once a shard's per-run trace reaches its fixed
//! point, most runs execute as bit-exact host twins instead of per-op
//! metering, with every `lanes`-th run re-metered on the real device.
//! Batching is *temporal within one shard*: each replica's `BatchRunner`
//! is private to its deployment, so a replica shard boundary can never
//! split a batch, and the `replicas` semantics are exactly those of the
//! scalar engine at any lane width. Harvested cells, faulted jobs, and
//! non-completing runs always drain scalar; the digests are pinned equal
//! across lane widths by the test suite.

use crate::deploy::{deploy, reset_control_words};
use crate::exec::{failed_outcome, run_deployed, starved_region_name, Backend, InferenceOutcome};
use crate::experiment::{summarize_records, RunRecord};
use crate::lockstep::{self, BatchRunner};
use dnn::quant::QModel;
use fxp::Q15;
use intermittent::sched::RunError;
use mcu::{Device, DeviceSpec, FaultPlan, PowerSystem};

/// One input for fleet evaluation: the quantized sensor reading plus its
/// ground-truth label (when known).
#[derive(Clone, Debug)]
pub struct FleetInput {
    /// The quantized input vector.
    pub input: Vec<Q15>,
    /// Ground-truth class, for accuracy accounting.
    pub label: Option<usize>,
}

/// A fleet evaluation: every input through every (backend, power) cell.
#[derive(Clone, Debug)]
pub struct FleetJob<'a> {
    /// The quantized model to deploy.
    pub qmodel: &'a QModel,
    /// Device specification for every cell.
    pub spec: DeviceSpec,
    /// Inputs run in order on each cell's deployment.
    pub inputs: Vec<FleetInput>,
    /// Backends under evaluation.
    pub backends: Vec<Backend>,
    /// Power systems under evaluation (profiles may be time-varying).
    pub powers: Vec<PowerSystem>,
    /// Replica devices per cell: each cell's inputs are split into
    /// `min(replicas, inputs)` contiguous shards, every shard running on
    /// its own freshly-deployed device. `1` (the historical
    /// configuration) reproduces the original one-deployment-per-cell
    /// trajectory bit-for-bit. The count is part of the job's
    /// *semantics*, not just a parallelism knob: within one deployment,
    /// buffer charge, the absolute harvest clock, and TAILS calibration
    /// words legitimately carry across runs, so a cell split `R` ways
    /// models `R` physical sensors each seeing a slice of the input
    /// stream. For any fixed value, serial, parallel, and resumed
    /// execution are bit-identical.
    pub replicas: usize,
    /// NVM fault schedule armed before *every* run, with op indices
    /// relative to that run's start (like
    /// [`crate::exec::run_inference_faulted`]). `None` — the fault-free
    /// configuration — is bit-identical to a job that never heard of
    /// fault injection. When armed, each run is also scored against a
    /// fault-free continuous-power reference of the same backend, so
    /// [`CellSummary`] can report silent-data-corruption and
    /// detected-corruption rates. Stuck-at cells persist across a
    /// replica's runs, as worn FRAM cells do on a real sensor.
    pub faults: Option<FaultPlan>,
}

/// One inference of a fleet cell.
#[derive(Clone, Debug)]
pub struct FleetRun {
    /// Index into [`FleetJob::inputs`].
    pub input_index: usize,
    /// `Some(predicted == label)` when both are known; DNC counts as
    /// incorrect in [`CellSummary::accuracy`].
    pub correct: Option<bool>,
    /// Silent-data-corruption verdict, populated only when the job armed
    /// a [`FleetJob::faults`] plan: `Some(true)` when the run completed
    /// with output diverging from its fault-free reference — the
    /// injected corruption slipped past every guard — `Some(false)` when
    /// the run completed bit-equal to the reference. `None` for
    /// fault-free jobs and for runs that did not complete.
    pub sdc: Option<bool>,
    /// The full per-run outcome (epoch-delta trace included).
    pub outcome: InferenceOutcome,
}

/// All runs of one (backend, power) cell, on one long-lived deployment.
#[derive(Clone, Debug)]
pub struct FleetCell {
    /// Index into [`FleetJob::backends`].
    pub backend_index: usize,
    /// Index into [`FleetJob::powers`].
    pub power_index: usize,
    /// Backend label.
    pub backend: String,
    /// Power-system label.
    pub power: String,
    /// One entry per job input, in input order.
    pub runs: Vec<FleetRun>,
}

/// Distributional summary of one cell, for the Fig. 9-style population
/// report.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSummary {
    /// Backend label.
    pub backend: String,
    /// Power-system label.
    pub power: String,
    /// Total runs.
    pub runs: usize,
    /// Runs that completed ("does not complete" excluded).
    pub completed: usize,
    /// Fraction of runs that completed.
    pub completion_rate: f64,
    /// Correct predictions over *labeled* runs (DNC counts as wrong), or
    /// `None` when no input carried a label.
    pub accuracy: Option<f64>,
    /// Mean / p50 / p95 total wall-clock seconds (live + dead) over
    /// completed runs; `None` when nothing completed.
    pub total_secs: Option<Stats>,
    /// Mean / p50 / p95 energy in millijoules over completed runs.
    pub energy_mj: Option<Stats>,
    /// Mean / p50 / p95 reboots over completed runs.
    pub reboots: Option<Stats>,
    /// Per-layer DNC starvation histogram: for every run that did not
    /// complete, one count against the region (layer/task) the device
    /// was executing when the run gave up
    /// ([`crate::exec::Failure::starved_region`]). Entries are
    /// `(region name, DNC runs)` in region-registration order (layer
    /// order), omitting regions that starved nothing; empty when every
    /// run completed. GENESIS's fleet scoring uses this to point the
    /// search at the offending layer.
    pub starved: Vec<(String, u64)>,
    /// Completed runs whose output silently diverged from the fault-free
    /// reference (see [`FleetRun::sdc`]); always 0 on fault-free jobs.
    pub sdc: usize,
    /// Total corruption detections by the integrity guards across every
    /// run of the cell (recovered and unrecoverable alike).
    pub corruption_detected: u64,
    /// Runs aborted with an unrecoverable-corruption verdict
    /// ([`RunError::Corrupted`]).
    pub corrupted_runs: usize,
    /// Runs that failed with [`RunError::NonTermination`] specifically —
    /// its own counter, no longer folded into the generic DNC bucket.
    pub non_termination: usize,
    /// The stuck task of the first non-terminating run, when any.
    pub non_termination_task: Option<String>,
}

/// Mean and percentiles of one per-run metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

/// Nearest-rank percentile of an unsorted sample; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN metric"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

pub(crate) fn stats(values: &[f64]) -> Option<Stats> {
    if values.is_empty() {
        return None;
    }
    Some(Stats {
        mean: values.iter().sum::<f64>() / values.len() as f64,
        p50: percentile(values, 50.0).expect("non-empty"),
        p95: percentile(values, 95.0).expect("non-empty"),
    })
}

impl FleetCell {
    /// Summarizes this cell's run population: the runs' [`RunRecord`]s
    /// through the one summary fold an experiment replays from disk, with
    /// the first run's region list (the deployment's layer order) as the
    /// starvation histogram's order.
    pub fn summarize(&self, spec: &DeviceSpec) -> CellSummary {
        let records: Vec<RunRecord> = self.runs.iter().map(RunRecord::from_run).collect();
        let regions: Vec<String> = self
            .runs
            .first()
            .map(|r| {
                r.outcome
                    .trace
                    .regions
                    .iter()
                    .map(|x| x.name.clone())
                    .collect()
            })
            .unwrap_or_default();
        summarize_records(spec, &self.backend, &self.power, &records, &regions)
    }

    /// An order-sensitive FNV-1a digest over every bit-relevant per-run
    /// field. Two fleets with equal digests produced identical outputs,
    /// traces, and timings — the test suite's determinism anchor.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.put(self.backend_index as u64);
        h.put(self.power_index as u64);
        for r in &self.runs {
            digest_run_fields(
                &mut h,
                r.input_index as u64,
                r.outcome.completed,
                r.outcome.class,
                r.outcome.output.iter().map(|q| q.raw()),
                r.outcome.trace.live_cycles,
                r.outcome.trace.dead_secs.to_bits(),
                r.outcome.trace.total_energy_pj,
                r.outcome.trace.reboots,
            );
        }
        h.finish()
    }
}

/// An order-sensitive FNV-1a hasher over little-endian 64-bit words —
/// the digest primitive behind [`FleetCell::digest`], [`fleet_digest`],
/// and the experiment service's record files, so a cell digest replayed
/// from streamed records is structurally guaranteed to match the in-RAM
/// one.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes the eight little-endian bytes of `x`.
    pub fn put(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The digest accumulated so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Feeds one run's bit-relevant fields into `h` — the single definition
/// of the per-run digest layout, shared between in-RAM cells
/// ([`FleetCell::digest`]) and records replayed from an experiment's
/// shard files ([`crate::experiment`]).
#[allow(clippy::too_many_arguments)]
pub fn digest_run_fields(
    h: &mut Fnv,
    input_index: u64,
    completed: bool,
    class: Option<usize>,
    output_raws: impl IntoIterator<Item = i16>,
    live_cycles: u64,
    dead_secs_bits: u64,
    total_energy_pj: u64,
    reboots: u64,
) {
    h.put(input_index);
    h.put(completed as u64);
    h.put(class.map(|c| c as u64 + 1).unwrap_or(0));
    for q in output_raws {
        h.put(q as u16 as u64);
    }
    h.put(live_cycles);
    h.put(dead_secs_bits);
    h.put(total_energy_pj);
    h.put(reboots);
}

/// Digest of a whole fleet (cells in submission order).
pub fn fleet_digest(cells: &[FleetCell]) -> u64 {
    let mut h = Fnv::new();
    for c in cells {
        h.put(c.digest());
    }
    h.finish()
}

/// One unit of fleet work: a contiguous span of one cell's inputs, run
/// on its own freshly-deployed replica device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Index into [`FleetJob::powers`].
    pub power_index: usize,
    /// Index into [`FleetJob::backends`].
    pub backend_index: usize,
    /// Replica index within the cell (shards in input order).
    pub shard_index: usize,
    /// First input index (into [`FleetJob::inputs`]) of the span.
    pub start: usize,
    /// Number of inputs in the span.
    pub len: usize,
}

/// Splits `n_inputs` into the near-equal contiguous spans run by one
/// cell's replicas: `min(replicas, n_inputs)` shards — but always at
/// least one, so an empty input set still yields an (empty) cell —
/// with earlier shards one input longer when the division is uneven.
pub fn plan_cell_shards(n_inputs: usize, replicas: usize) -> Vec<(usize, usize)> {
    let shards = replicas.max(1).min(n_inputs).max(1);
    let base = n_inputs / shards;
    let extra = n_inputs % shards;
    let mut spans = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + (s < extra) as usize;
        spans.push((start, len));
        start += len;
    }
    spans
}

/// The fleet's full shard plan, cell-major: cells in `(power, backend)`
/// submission order, shards in input order within each cell. The plan is
/// a pure function of the job, so a resumed experiment recomputes the
/// identical plan and can key checkpoints by position in it.
pub fn plan_shards(job: &FleetJob<'_>) -> Vec<ShardSpec> {
    let spans = plan_cell_shards(job.inputs.len(), job.replicas);
    let mut plan = Vec::with_capacity(job.powers.len() * job.backends.len() * spans.len());
    for (power_index, backend_index) in cell_order(job) {
        for (shard_index, &(start, len)) in spans.iter().enumerate() {
            plan.push(ShardSpec {
                power_index,
                backend_index,
                shard_index,
                start,
                len,
            });
        }
    }
    plan
}

/// Runs one shard: a fresh replica device, one deployment, the shard's
/// input span in order. Pure in `(job, shard)` — no state flows between
/// shards — which is what makes shard results cacheable on disk and a
/// resumed experiment bit-identical to an uninterrupted one.
pub fn run_shard(job: &FleetJob<'_>, shard: &ShardSpec) -> Vec<FleetRun> {
    run_shard_with(job, shard, &mut |_| {})
}

/// [`run_shard`] with an observer invoked after each run finishes (the
/// experiment service streams per-run records from it).
pub fn run_shard_with(
    job: &FleetJob<'_>,
    shard: &ShardSpec,
    on_run: &mut dyn FnMut(&FleetRun),
) -> Vec<FleetRun> {
    run_shard_with_lanes(job, shard, lockstep::default_lanes(), on_run)
}

/// [`run_shard_with`] at an explicit lockstep lane width (the public
/// entries use [`lockstep::default_lanes`]).
///
/// Lane width never changes results — only how many of the shard's runs
/// the twin path serves (see [`crate::lockstep`]) — and batching is
/// *temporal within one shard*, so a replica shard boundary can never
/// split a batch: the [`FleetJob::replicas`] semantics are exactly what
/// they are at `lanes = 1`. Jobs with an armed fault plan, harvested
/// cells, and non-completing runs always drain through scalar metering.
pub fn run_shard_with_lanes(
    job: &FleetJob<'_>,
    shard: &ShardSpec,
    lanes: usize,
    on_run: &mut dyn FnMut(&FleetRun),
) -> Vec<FleetRun> {
    let power = job.powers[shard.power_index].clone();
    let backend = &job.backends[shard.backend_index];
    let mut dev = Device::new(job.spec.clone(), power.clone());
    let dm = deploy(&mut dev, job.qmodel).expect("model must fit in FRAM");
    let mut runner = BatchRunner::new(
        job.qmodel,
        backend,
        &power,
        if job.faults.is_some() { 1 } else { lanes },
    );
    let mut runs = Vec::with_capacity(shard.len);
    let mut supply_dead = false;
    for i in shard.start..shard.start + shard.len {
        let inp = &job.inputs[i];
        // Recover from a previous DNC: bring the device back up (dead
        // time between runs lands outside any epoch) and host-reset the
        // control words the aborted run left mid-flight.
        if !dev.is_on() && dev.reboot().is_err() {
            supply_dead = true;
        }
        if supply_dead {
            // The harvest profile will never power the device again:
            // every remaining input is an immediate DNC, parked in the
            // region the original starving run was executing.
            dev.begin_epoch();
            dev.reset_corruption_stats();
            let task = starved_region_name(&dev);
            let run = FleetRun {
                input_index: i,
                correct: inp.label.map(|_| false),
                sdc: None,
                outcome: failed_outcome(&dev, backend, RunError::SupplyDead { task }),
            };
            on_run(&run);
            runs.push(run);
            continue;
        }
        let outcome = if let Some(plan) = &job.faults {
            dm.load_input(&mut dev, &inp.input);
            dev.arm_faults(&plan.shifted(dev.ops_consumed()));
            run_deployed(&mut dev, &dm, backend)
        } else {
            runner.run(&mut dev, &dm, &inp.input)
        };
        if !outcome.completed {
            reset_control_words(&mut dev, &dm);
        }
        let correct = match (inp.label, outcome.class, outcome.completed) {
            (Some(l), Some(c), true) => Some(c == l),
            (Some(_), _, _) => Some(false),
            (None, _, _) => None,
        };
        // Under injected faults, a completed run is only trustworthy if
        // it matches the fault-free reference: a completed-but-diverged
        // run is a silent data corruption — the failure mode the
        // integrity guards exist to eliminate.
        let sdc = match &job.faults {
            Some(_) if outcome.completed => {
                let reference = fault_free_output(job, backend, &inp.input);
                Some(reference.as_deref() != Some(outcome.output.as_slice()))
            }
            _ => None,
        };
        let run = FleetRun {
            input_index: i,
            correct,
            sdc,
            outcome,
        };
        on_run(&run);
        runs.push(run);
    }
    runs
}

/// Fault-free reference output for `input` under `backend`: a fresh
/// continuous-power deployment, no faults armed. Every backend is pinned
/// bit-equal between continuous and intermittent execution, so this is
/// *the* correct output on any power system. `None` when even the
/// reference does not complete.
fn fault_free_output(job: &FleetJob<'_>, backend: &Backend, input: &[Q15]) -> Option<Vec<Q15>> {
    let mut dev = Device::new(job.spec.clone(), PowerSystem::continuous());
    let dm = deploy(&mut dev, job.qmodel).expect("model must fit in FRAM");
    dm.load_input(&mut dev, input);
    let out = run_deployed(&mut dev, &dm, backend);
    out.completed.then_some(out.output)
}

/// Groups per-shard run vectors (given in [`plan_shards`] order) back
/// into `(power, backend)`-ordered cells, concatenating each cell's
/// shards in input order — the indexed collect that makes sharded and
/// unsharded execution of the same job bit-identical.
pub fn assemble_cells(
    job: &FleetJob<'_>,
    plan: &[ShardSpec],
    results: Vec<Vec<FleetRun>>,
) -> Vec<FleetCell> {
    assert_eq!(plan.len(), results.len(), "one result per planned shard");
    let mut cells: Vec<FleetCell> = Vec::new();
    for (shard, runs) in plan.iter().zip(results) {
        match cells.last_mut() {
            Some(c)
                if c.power_index == shard.power_index && c.backend_index == shard.backend_index =>
            {
                c.runs.extend(runs)
            }
            _ => cells.push(FleetCell {
                backend_index: shard.backend_index,
                power_index: shard.power_index,
                backend: job.backends[shard.backend_index].label(),
                power: job.powers[shard.power_index].label(),
                runs,
            }),
        }
    }
    cells
}

pub(crate) fn cell_order(job: &FleetJob<'_>) -> Vec<(usize, usize)> {
    let mut cells = Vec::with_capacity(job.powers.len() * job.backends.len());
    for pi in 0..job.powers.len() {
        for bi in 0..job.backends.len() {
            cells.push((pi, bi));
        }
    }
    cells
}

/// Runs the fleet at the [`lockstep::default_lanes`] width, fanning
/// shards across threads (`#cells × min(replicas, inputs)` units of
/// work). Cells come back in deterministic `(power, backend)` submission
/// order, and the results are bit-identical to running the shards one at
/// a time ([`plan_shards`], [`run_shard`] per shard, [`assemble_cells`])
/// and to [`run_fleet_with_lanes`] at any width.
pub fn run_fleet(job: &FleetJob<'_>) -> Vec<FleetCell> {
    run_fleet_with_lanes(job, lockstep::default_lanes())
}

/// [`run_fleet`] at an explicit lockstep lane width (see
/// [`run_shard_with_lanes`]); results are bit-identical for every width.
pub fn run_fleet_with_lanes(job: &FleetJob<'_>, lanes: usize) -> Vec<FleetCell> {
    let plan = plan_shards(job);
    let results = par_map(plan.clone(), &|s: ShardSpec| {
        run_shard_with_lanes(job, &s, lanes, &mut |_| {})
    });
    assemble_cells(job, &plan, results)
}

/// Maps `f` over `items` on up to `available_parallelism` threads,
/// returning results in submission order.
///
/// The one ordered fan-out of the workspace: fleet shards, experiment
/// shards, the `spec` sweeps' schedules and flips, and GENESIS's plan
/// evaluations all go through it. `rayon` is unavailable offline (see
/// `vendor/README.md`), so this is a small `std::thread::scope` work
/// queue: each worker pops the *last* remaining indexed item, so a caller
/// that wants its costliest items started first submits them last (the
/// GENESIS sweep does), and results are sorted back into submission
/// order — the "indexed collect" that makes every caller's output
/// independent of the thread count. With one available core it maps
/// serially in place.
pub fn par_map<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    use std::sync::Mutex;

    let n = items.len();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = queue.lock().expect("queue poisoned").pop();
                let Some((i, item)) = job else { break };
                let r = f(item);
                results.lock().expect("results poisoned").push((i, r));
            });
        }
    });
    let mut out = results.into_inner().expect("results poisoned");
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests_support::tiny_pruned_qmodel;
    use mcu::HarvestProfile;

    /// The serial reference the threaded fan-out is tested against: one
    /// shard at a time, in plan order.
    fn run_fleet_serial(job: &FleetJob<'_>) -> Vec<FleetCell> {
        let plan = plan_shards(job);
        let results = plan.iter().map(|s| run_shard(job, s)).collect();
        assemble_cells(job, &plan, results)
    }

    fn tiny_job<'a>(qm: &'a QModel, input: &[Q15], n_inputs: usize) -> FleetJob<'a> {
        FleetJob {
            qmodel: qm,
            spec: DeviceSpec::msp430fr5994(),
            inputs: (0..n_inputs)
                .map(|i| FleetInput {
                    input: input.to_vec(),
                    label: Some(i % 2),
                })
                .collect(),
            // TAILS and Tiled allocate per-run runtime state (SRAM
            // staging, Alpaca log): including them pins the allocator
            // rewind on reused deployments.
            backends: vec![
                Backend::Sonic,
                Backend::Tails(crate::exec::TailsConfig::default()),
                Backend::Tiled(8),
            ],
            powers: vec![PowerSystem::continuous(), PowerSystem::cap_100uf()],
            replicas: 1,
            faults: None,
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items, &|x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), &|x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], &|x| x + 1), vec![8]);
    }

    #[test]
    fn fleet_is_bit_identical_serial_vs_parallel() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 3);
        let par = run_fleet(&job);
        let ser = run_fleet_serial(&job);
        assert_eq!(par.len(), ser.len());
        assert_eq!(fleet_digest(&par), fleet_digest(&ser));
        for (a, b) in par.iter().zip(&ser) {
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.power, b.power);
            assert_eq!(a.digest(), b.digest());
        }
    }

    /// Absolute digest of the `tiny_job` fleet, recorded when the bundled
    /// op-accounting fast path was verified bit-identical to the original
    /// scalar (one-consume-per-op) path: any accounting drift anywhere in
    /// the stack moves it. Regenerate after an *intentional* accounting
    /// change with
    /// `GOLDEN_PRINT=1 cargo test -p sonic fleet_digest_is_pinned -- --nocapture`.
    const PINNED_DIGEST: u64 = 0x5c64888e938b4964;

    #[test]
    fn fleet_digest_is_pinned() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 2);
        let d = fleet_digest(&run_fleet(&job));
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("    pinned fleet digest: {d:#018x}");
            return;
        }
        assert_eq!(d, PINNED_DIGEST, "fleet accounting drifted");
    }

    #[test]
    fn fleet_is_identical_across_repeated_runs() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 2);
        assert_eq!(
            fleet_digest(&run_fleet(&job)),
            fleet_digest(&run_fleet(&job))
        );
    }

    #[test]
    fn cells_come_back_in_power_major_submission_order() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 1);
        let cells = run_fleet(&job);
        let order: Vec<(usize, usize)> = cells
            .iter()
            .map(|c| (c.power_index, c.backend_index))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn per_run_traces_do_not_accumulate_across_the_fleet() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 3);
        let cells = run_fleet(&job);
        // Identical inputs on continuous power: every run of a cell must
        // report the same energy — the cumulative-trace bug would make
        // run k report k times run 1.
        let cont_sonic = &cells[0];
        assert_eq!(cont_sonic.power, "Cont");
        let e0 = cont_sonic.runs[0].outcome.trace.total_energy_pj;
        for r in &cont_sonic.runs {
            assert!(r.outcome.completed);
            assert_eq!(r.outcome.trace.total_energy_pj, e0);
        }
    }

    #[test]
    fn summary_reports_population_statistics() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 4);
        let cells = run_fleet(&job);
        let spec = DeviceSpec::msp430fr5994();
        let s = cells[0].summarize(&spec);
        assert_eq!(s.runs, 4);
        assert_eq!(s.completed, 4);
        assert!((s.completion_rate - 1.0).abs() < 1e-12);
        // Labels alternate 0/1 but the input is constant, so accuracy is
        // determined and between 0 and 1.
        let acc = s.accuracy.expect("labeled runs");
        assert!((0.0..=1.0).contains(&acc));
        let t = s.total_secs.expect("completed runs");
        assert!(t.mean > 0.0 && t.p50 > 0.0 && t.p95 >= t.p50);
        // Identical runs: the distribution is a point mass.
        assert_eq!(t.p50, t.p95);
    }

    #[test]
    fn dead_supply_cell_marks_every_run_dnc() {
        let (qm, input) = tiny_pruned_qmodel();
        let mut job = tiny_job(&qm, &input, 3);
        // Small enough that one inference outlives the buffer (cf. the
        // 8 µF intermittence tests in `exec`), so run 1 browns out and
        // the dead profile can never bring the device back.
        job.powers = vec![PowerSystem::harvested_with(
            8e-6,
            HarvestProfile::Constant(0.0),
        )];
        job.backends = vec![Backend::Sonic];
        let cells = run_fleet(&job);
        assert_eq!(cells.len(), 1);
        let s = cells[0].summarize(&DeviceSpec::msp430fr5994());
        assert_eq!(s.completed, 0);
        assert_eq!(s.accuracy, Some(0.0), "DNC counts as wrong");
        assert!(s.total_secs.is_none());
        for r in &cells[0].runs {
            assert!(!r.outcome.completed);
            assert!(r.outcome.trace.dead_secs.is_finite());
            let f = r
                .outcome
                .failure
                .as_ref()
                .expect("DNC runs carry a failure");
            let err = f.error.to_string();
            assert!(
                err.contains("never recharges") || err.contains("supply dead"),
                "unexpected error: {err}"
            );
        }
        // Every DNC run is attributed to a region; the dead-supply cell
        // parks all of them on the layer the original run starved in.
        let total: u64 = s.starved.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 3, "all 3 DNC runs attributed: {:?}", s.starved);
        assert_eq!(s.starved.len(), 1, "one starving region: {:?}", s.starved);
    }

    #[test]
    fn starved_layer_shows_up_in_the_attribution_histogram() {
        // Tile-128's giant tasks exceed an 8 µF buffer on the sparse-FC
        // model: the run never terminates, and the attribution must point
        // at the fully-connected layer it starves in — not at "other".
        let (qm, input) = tiny_pruned_qmodel();
        let mut job = tiny_job(&qm, &input, 3);
        job.backends = vec![Backend::Tiled(128)];
        job.powers = vec![PowerSystem::continuous(), PowerSystem::harvested(8e-6)];
        let cells = run_fleet(&job);
        let spec = DeviceSpec::msp430fr5994();

        // Continuous power: everything completes, nothing starves.
        let cont = cells[0].summarize(&spec);
        assert_eq!(cont.completed, cont.runs);
        assert!(cont.starved.is_empty(), "{:?}", cont.starved);

        // Harvested: every run DNCs in the starving FC layer.
        let starved = cells[1].summarize(&spec);
        assert_eq!(starved.completed, 0, "Tile-128 must DNC on 8 µF");
        let total: u64 = starved.starved.iter().map(|(_, c)| c).sum();
        assert_eq!(total, starved.runs as u64, "every DNC run attributed");
        let (top_region, top_count) = starved
            .starved
            .iter()
            .max_by_key(|&&(_, c)| c)
            .expect("non-empty histogram");
        assert_eq!(top_region, "fc", "attribution: {:?}", starved.starved);
        assert_eq!(*top_count, starved.runs as u64);
        for r in &cells[1].runs {
            let f = r
                .outcome
                .failure
                .as_ref()
                .expect("DNC runs carry a failure");
            assert_eq!(f.starved_region, "fc");
            // The per-region reboot counts behind the attribution: the
            // starving layer absorbed the power failures.
            let fc = r
                .outcome
                .trace
                .regions
                .iter()
                .find(|x| x.name == "fc")
                .expect("fc region");
            assert!(fc.reboots > 0, "starving layer must show reboots");
        }
    }

    #[test]
    fn plan_cell_shards_covers_inputs_contiguously() {
        assert_eq!(plan_cell_shards(0, 4), vec![(0, 0)]);
        assert_eq!(plan_cell_shards(5, 1), vec![(0, 5)]);
        assert_eq!(plan_cell_shards(3, 8), vec![(0, 1), (1, 1), (2, 1)]);
        assert_eq!(
            plan_cell_shards(10, 4),
            vec![(0, 3), (3, 3), (6, 2), (8, 2)]
        );
        // replicas == 0 is treated as 1 (a plan always has work units).
        assert_eq!(plan_cell_shards(4, 0), vec![(0, 4)]);
        for (n, r) in [(1, 1), (7, 3), (16, 5), (9, 9), (2, 6)] {
            let spans = plan_cell_shards(n, r);
            let mut next = 0;
            for (start, len) in spans {
                assert_eq!(start, next, "contiguous spans");
                next += len;
            }
            assert_eq!(next, n, "spans cover every input");
        }
    }

    #[test]
    fn sharded_fleet_is_bit_identical_serial_vs_parallel() {
        let (qm, input) = tiny_pruned_qmodel();
        let mut job = tiny_job(&qm, &input, 5);
        job.replicas = 3;
        let par = run_fleet(&job);
        let ser = run_fleet_serial(&job);
        assert_eq!(fleet_digest(&par), fleet_digest(&ser));
        for cell in &par {
            // Indexed collect: every cell's runs merge back in input order.
            let order: Vec<usize> = cell.runs.iter().map(|r| r.input_index).collect();
            assert_eq!(order, (0..5).collect::<Vec<_>>());
        }
    }

    #[test]
    fn state_independent_cells_are_shard_count_invariant() {
        // On continuous power with stateless backends, every run starts
        // from identical device conditions, so the shard split cannot be
        // observed: R=1, R=4, and serial R=4 are all bit-identical. (On
        // harvested cells — or with TAILS calibration — the replica
        // count is job semantics and digests legitimately differ; see
        // the module docs' shard purity rule.)
        let (qm, input) = tiny_pruned_qmodel();
        let mut job = tiny_job(&qm, &input, 4);
        job.backends = vec![Backend::Sonic, Backend::Tiled(8)];
        job.powers = vec![PowerSystem::continuous()];
        job.replicas = 1;
        let r1 = fleet_digest(&run_fleet(&job));
        job.replicas = 4;
        let r4 = fleet_digest(&run_fleet(&job));
        let r4_serial = fleet_digest(&run_fleet_serial(&job));
        assert_eq!(r1, r4, "continuous cells must not see the shard split");
        assert_eq!(r4, r4_serial);
    }

    #[test]
    fn lane_width_is_digest_invariant_for_fleets() {
        // Continuous cells may twin, harvested cells must drain scalar;
        // either way the fleet digest cannot move with the lane width.
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 5);
        let base = fleet_digest(&run_fleet_with_lanes(&job, 1));
        for lanes in [2, 4, 8] {
            let d = fleet_digest(&run_fleet_with_lanes(&job, lanes));
            assert_eq!(base, d, "lanes={lanes} moved the fleet digest");
        }
    }

    #[test]
    fn stateful_cells_complete_and_stay_lane_invariant() {
        // The fifth backend on the same fleet accounting: intermittent
        // stateful cells complete (seek-based recovery), score against
        // their labels, and the lane width must be invisible in the
        // digest: continuous stateful cells twin through the masked twin,
        // harvested ones drain through the meter.
        let (qm, input) = tiny_pruned_qmodel();
        let mut job = tiny_job(&qm, &input, 3);
        job.backends = vec![Backend::Sonic, Backend::Stateful];
        job.powers = vec![PowerSystem::continuous(), PowerSystem::harvested(8e-6)];
        let cells = run_fleet(&job);
        let spec = DeviceSpec::msp430fr5994();
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            let s = cell.summarize(&spec);
            assert_eq!(
                s.completed, s.runs,
                "{} {} must complete",
                cell.power, cell.backend
            );
            let acc = s.accuracy.expect("labeled runs");
            assert!((0.0..=1.0).contains(&acc));
        }
        // Intermittent stateful really rebooted (the cell exercised the
        // seek path, not a lucky single-charge run).
        let harvested = cells
            .iter()
            .find(|c| c.backend == "Stateful" && c.power != "Cont")
            .expect("harvested stateful cell");
        assert!(
            harvested.runs.iter().any(|r| r.outcome.trace.reboots > 0),
            "harvested stateful cell never rebooted"
        );
        let base = fleet_digest(&run_fleet_with_lanes(&job, 1));
        for lanes in [2, 8] {
            let d = fleet_digest(&run_fleet_with_lanes(&job, lanes));
            assert_eq!(base, d, "stateful lanes={lanes} moved the fleet digest");
        }
    }

    #[test]
    fn faulted_jobs_ignore_lane_width() {
        use mcu::FaultKind;
        let (qm, input) = tiny_pruned_qmodel();
        let mut job = tiny_job(&qm, &input, 3);
        job.backends = vec![Backend::Sonic];
        job.faults = Some(FaultPlan::faults([
            (2_000, FaultKind::Brownout),
            (
                5_000,
                FaultKind::BitFlip {
                    addr: mcu::NvAddr::word(40),
                    bit: 3,
                },
            ),
        ]));
        let base = fleet_digest(&run_fleet_with_lanes(&job, 1));
        for lanes in [4, 8] {
            let d = fleet_digest(&run_fleet_with_lanes(&job, lanes));
            assert_eq!(base, d, "faulted lanes={lanes} moved the digest");
        }
    }

    #[test]
    fn replica_and_lane_widths_compose_on_continuous_cells() {
        // The R-invariance guarantee extended to batched execution: on
        // continuous power with stateless backends, neither the shard
        // split nor the lane width is observable, in any combination —
        // replica boundaries never split a batch (batching is temporal
        // within one shard).
        let (qm, input) = tiny_pruned_qmodel();
        let mut job = tiny_job(&qm, &input, 6);
        job.backends = vec![Backend::Sonic, Backend::Tiled(8)];
        job.powers = vec![PowerSystem::continuous()];
        job.replicas = 1;
        let base = fleet_digest(&run_fleet_with_lanes(&job, 1));
        for replicas in [1, 2, 4] {
            for lanes in [1, 3, 8] {
                job.replicas = replicas;
                let d = fleet_digest(&run_fleet_with_lanes(&job, lanes));
                assert_eq!(base, d, "replicas={replicas} lanes={lanes} diverged");
            }
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 95.0), Some(4.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
    }
}
