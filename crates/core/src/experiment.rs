//! The experiment service: streamed, resumable fleet evaluations.
//!
//! The paper's headline claims (Fig. 9, Table 2) are population
//! statements, and the city-scale deployment study on the roadmap is
//! millions of simulated inferences — far past the point where "hold
//! every run in RAM and hope the process lives" is acceptable. This
//! module wraps the shard engine in [`crate::fleet`] with a persistence
//! layer:
//!
//! - **Streamed run records.** Each shard appends one compact text
//!   record per run ([`RunRecord`]) to `<root>/<name>/shards/` *as it
//!   executes*; a shard file is sealed with a `done` line carrying the
//!   shard's run count and digest. A process killed mid-shard leaves an
//!   unsealed file, which is simply re-run on the next invocation.
//! - **A manifest.** `manifest.txt` records an FNV-1a hash of the whole
//!   job ([`job_hash`]: device spec and cost table, quantized weights,
//!   inputs and labels, backend and power-system parameters, replica
//!   count), so a resume against a directory recorded for a different
//!   job is rejected instead of silently merging incompatible records.
//! - **Resumable checkpoints + incremental aggregation.** On restart
//!   with the same manifest hash ([`ExperimentConfig::resume`]), sealed
//!   shards are loaded instead of re-run, and cell summaries are rebuilt
//!   by merging per-shard record buffers in plan order. Because every
//!   shard is a pure function of `(job, cell, input span)` — the shard
//!   purity rule of [`crate::fleet`] — a killed-and-resumed experiment's
//!   report and digest are bit-identical to an uninterrupted run's, and
//!   to the in-RAM [`crate::fleet::run_fleet`] path.
//!
//! Merged aggregation is *bit*-exact, not just approximately right: the
//! per-shard buffers hold raw per-run metric values ("percentile-ready"
//! rather than pre-reduced), cells concatenate them in shard (= input)
//! order, and the one summary fold — the same function
//! [`crate::fleet::FleetCell::summarize`] calls on its in-RAM runs —
//! runs over the concatenation, so means and nearest-rank percentiles
//! see the identical f64 sequence.

use crate::exec::Failure;
use crate::fleet::{
    cell_order, digest_run_fields, plan_cell_shards, plan_shards, run_shard_with, stats,
    CellSummary, FleetJob, FleetRun, Fnv, ShardSpec,
};
use dnn::quant::QLayer;
use fxp::Q15;
use intermittent::sched::RunError;
use mcu::{DeviceSpec, FaultKind, HarvestProfile, Op, PowerSystem};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// How an experiment runs and where its records live.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Experiment name — the directory under `root` holding the
    /// manifest and shard records.
    pub name: String,
    /// Root directory for experiments (conventionally
    /// `target/experiments`).
    pub root: PathBuf,
    /// When set, sealed shards already on disk are loaded instead of
    /// re-run (after the manifest hash check); when clear, any existing
    /// directory for `name` is wiped and the experiment starts fresh.
    pub resume: bool,
    /// Run at most this many pending shards in this invocation (`None`
    /// = all). The resume tests and the CI smoke use it to kill an
    /// experiment mid-flight at a deterministic point; an interactive
    /// user can use it to slice a multi-hour study into sessions.
    pub shard_budget: Option<usize>,
}

impl ExperimentConfig {
    /// A fresh (non-resuming, unbudgeted) experiment under
    /// `target/experiments`.
    pub fn new(name: &str) -> Self {
        ExperimentConfig {
            name: name.to_string(),
            root: PathBuf::from("target/experiments"),
            resume: false,
            shard_budget: None,
        }
    }
}

/// Why an experiment invocation failed.
#[derive(Debug)]
pub enum ExperimentError {
    /// A filesystem operation under the experiment directory failed.
    Io(String),
    /// A manifest or record file exists but cannot be parsed.
    Malformed(String),
    /// `resume` was requested against a directory whose manifest records
    /// a different job: the on-disk records would not merge with this
    /// job's runs.
    ManifestMismatch {
        /// The offending manifest.
        path: PathBuf,
        /// This job's hash.
        expected: u64,
        /// The hash recorded on disk.
        found: u64,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Io(msg) => write!(f, "experiment I/O error: {msg}"),
            ExperimentError::Malformed(msg) => write!(f, "malformed experiment file: {msg}"),
            ExperimentError::ManifestMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "manifest {} records job {found:#018x} but this job hashes to \
                 {expected:#018x}: refusing to merge records from a different job \
                 (run without --resume to start over)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// One streamed per-run record — the on-disk unit of experiment state.
/// Carries every field that feeds the cell digest and the population
/// summary, plus the failure forensics an analyst greps for.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Index into the job's inputs.
    pub input_index: usize,
    /// Whether the inference completed.
    pub completed: bool,
    /// Predicted class, when the run completed.
    pub class: Option<usize>,
    /// `Some(predicted == label)` for labeled inputs (DNC = wrong).
    pub correct: Option<bool>,
    /// Raw Q15 output activations.
    pub output: Vec<i16>,
    /// Live CPU cycles of the run's epoch.
    pub live_cycles: u64,
    /// Dead (recharging) seconds of the run's epoch; persisted as exact
    /// bits, so replayed digests match.
    pub dead_secs: f64,
    /// Charged energy of the run's epoch, in picojoules.
    pub total_energy_pj: u64,
    /// Reboots during the run's epoch.
    pub reboots: u64,
    /// Silent-data-corruption verdict for fault-injected runs
    /// ([`FleetRun::sdc`]); `None` for fault-free jobs and DNC runs.
    pub sdc: Option<bool>,
    /// Corruption detections the integrity guards raised during the run.
    pub corruption_detected: u64,
    /// Why the run did not complete ([`crate::exec::Failure`], its
    /// brown-out kept as [`crate::exec::BrownoutRecord`]'s display form);
    /// `None` for completed runs.
    pub failure: Option<Failure<String>>,
}

impl RunRecord {
    /// Captures a fleet run as a persistable record.
    pub fn from_run(r: &FleetRun) -> Self {
        RunRecord {
            input_index: r.input_index,
            completed: r.outcome.completed,
            class: r.outcome.class,
            correct: r.correct,
            output: r.outcome.output.iter().map(|q| q.raw()).collect(),
            live_cycles: r.outcome.trace.live_cycles,
            dead_secs: r.outcome.trace.dead_secs,
            total_energy_pj: r.outcome.trace.total_energy_pj,
            reboots: r.outcome.trace.reboots,
            sdc: r.sdc,
            corruption_detected: r.outcome.corruption_detected,
            failure: r.outcome.failure.as_ref().map(|f| Failure {
                error: f.error.clone(),
                starved_region: f.starved_region.clone(),
                brownout: f.brownout.as_ref().map(|b| b.to_string()),
            }),
        }
    }

    /// The record's one-line on-disk form: space-separated tokens, strings
    /// percent-encoded so they never contain separators. A failed run
    /// appends its starved region, brown-out, and a tag naming the
    /// [`RunError`] variant followed by that variant's fields — the error
    /// text is rebuilt by `Display`, never stored.
    fn encode_line(&self) -> String {
        let opt_num = |v: Option<usize>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
        let opt_bool = |v: Option<bool>| match v {
            None => "-".to_string(),
            Some(b) => (b as u8).to_string(),
        };
        let out = if self.output.is_empty() {
            "-".to_string()
        } else {
            let vals: Vec<String> = self.output.iter().map(|x| x.to_string()).collect();
            format!("={}", vals.join(","))
        };
        let mut line = format!(
            "run {} {} {} {} {} {:016x} {} {} {} {} {}",
            self.input_index,
            self.completed as u8,
            opt_num(self.class),
            opt_bool(self.correct),
            self.live_cycles,
            self.dead_secs.to_bits(),
            self.total_energy_pj,
            self.reboots,
            out,
            opt_bool(self.sdc),
            self.corruption_detected,
        );
        if let Some(f) = &self.failure {
            let brownout = match &f.brownout {
                None => "-".to_string(),
                Some(b) => format!("={}", enc(b)),
            };
            let error = match &f.error {
                RunError::NonTermination { task, attempts } => {
                    format!("nonterm ={} {attempts}", enc(task))
                }
                RunError::TransitionLimit { limit } => format!("limit {limit}"),
                RunError::SupplyDead { task } => format!("dead ={}", enc(task)),
                RunError::Corrupted { task, region } => {
                    format!("corrupt ={} ={}", enc(task), enc(region))
                }
            };
            line.push_str(&format!(" ={} {brownout} {error}", enc(&f.starved_region)));
        }
        line
    }

    /// Parses one `run` line back into a record.
    fn decode_line(line: &str) -> Result<Self, String> {
        let t: Vec<&str> = line.split(' ').collect();
        if t.len() < 12 || t[0] != "run" {
            return Err(format!("malformed run record: {line:?}"));
        }
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("bad number {s:?}: {e}"))
        };
        let opt_num = |s: &str| -> Result<Option<usize>, String> {
            if s == "-" {
                Ok(None)
            } else {
                Ok(Some(num(s)? as usize))
            }
        };
        let opt_bool = |s: &str| -> Result<Option<bool>, String> {
            match s {
                "-" => Ok(None),
                "0" => Ok(Some(false)),
                "1" => Ok(Some(true)),
                _ => Err(format!("bad flag {s:?}")),
            }
        };
        let string = |s: &str| -> Result<String, String> {
            dec(s
                .strip_prefix('=')
                .ok_or_else(|| format!("bad string field {s:?}"))?)
        };
        let output = match t[9].strip_prefix('=') {
            Some(body) => body
                .split(',')
                .map(|x| {
                    x.parse::<i16>()
                        .map_err(|e| format!("bad output {x:?}: {e}"))
                })
                .collect::<Result<Vec<i16>, String>>()?,
            None if t[9] == "-" => Vec::new(),
            None => return Err(format!("bad output field {:?}", t[9])),
        };
        let completed = opt_bool(t[2])?.ok_or_else(|| "missing completed flag".to_string())?;
        // The verdict keys the tail: nothing after a completed run; the
        // starved region, brown-out, and tagged error after a failed one.
        let failure = match (completed, &t[12..]) {
            (true, []) => None,
            (false, [starved, brownout, tag, fields @ ..]) => {
                let error = match (*tag, fields) {
                    ("nonterm", [task, attempts]) => RunError::NonTermination {
                        task: string(task)?,
                        attempts: attempts
                            .parse()
                            .map_err(|e| format!("bad attempts {attempts:?}: {e}"))?,
                    },
                    ("limit", [limit]) => RunError::TransitionLimit { limit: num(limit)? },
                    ("dead", [task]) => RunError::SupplyDead {
                        task: string(task)?,
                    },
                    ("corrupt", [task, region]) => RunError::Corrupted {
                        task: string(task)?,
                        region: string(region)?,
                    },
                    _ => return Err(format!("bad run error in {line:?}")),
                };
                Some(Failure {
                    error,
                    starved_region: string(starved)?,
                    brownout: match *brownout {
                        "-" => None,
                        b => Some(string(b)?),
                    },
                })
            }
            _ => return Err(format!("malformed run record: {line:?}")),
        };
        Ok(RunRecord {
            input_index: num(t[1])? as usize,
            completed,
            class: opt_num(t[3])?,
            correct: opt_bool(t[4])?,
            live_cycles: num(t[5])?,
            dead_secs: f64::from_bits(
                u64::from_str_radix(t[6], 16).map_err(|e| format!("bad dead bits: {e}"))?,
            ),
            total_energy_pj: num(t[7])?,
            reboots: num(t[8])?,
            output,
            sdc: opt_bool(t[10])?,
            corruption_detected: num(t[11])?,
            failure,
        })
    }
}

/// One cell of an experiment's report, rebuilt from records.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Index into the job's power systems.
    pub power_index: usize,
    /// Index into the job's backends.
    pub backend_index: usize,
    /// Backend label.
    pub backend: String,
    /// Power-system label.
    pub power: String,
    /// Whether every one of the cell's shards is sealed on disk. A
    /// partial cell still summarizes (over the records it has) so an
    /// analyst can render an in-flight report.
    pub complete: bool,
    /// Population summary over the available records; bit-equal to
    /// [`crate::fleet::FleetCell::summarize`] when the cell is complete.
    pub summary: CellSummary,
    /// Cell digest over the available records; equals
    /// [`crate::fleet::FleetCell::digest`] when the cell is complete.
    pub digest: u64,
    /// The available records, in shard (= input) order.
    pub records: Vec<RunRecord>,
}

/// The result of one experiment invocation.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// The experiment's directory (`root/name`).
    pub dir: PathBuf,
    /// The job's manifest hash.
    pub job_hash: u64,
    /// Whether every planned shard is sealed on disk.
    pub complete: bool,
    /// Fleet digest over all cells; when `complete`, bit-equal to
    /// [`crate::fleet::fleet_digest`] of [`crate::fleet::run_fleet`] on
    /// the same job.
    pub digest: u64,
    /// Shards executed by this invocation.
    pub executed_shards: usize,
    /// Sealed shards loaded from disk instead of re-run.
    pub loaded_shards: usize,
    /// Shards still pending (non-zero only under a shard budget).
    pub pending_shards: usize,
    /// Per-cell reports in `(power, backend)` submission order.
    pub cells: Vec<CellReport>,
}

/// Runs (or resumes) an experiment: plans shards, loads sealed ones,
/// executes the rest with the fleet engine's deterministic fan-out,
/// streams records to disk as shards run, and rebuilds the report by
/// merging per-shard buffers.
pub fn run_experiment(
    job: &FleetJob<'_>,
    cfg: &ExperimentConfig,
) -> Result<ExperimentOutcome, ExperimentError> {
    run_experiment_observed(job, cfg, &|_, _| {})
}

/// [`run_experiment`] with a per-run observer, invoked from worker
/// threads as runs finish (callers needing raw
/// [`crate::exec::InferenceOutcome`]s — e.g. the Fig. 10–12 pipelines —
/// collect them here instead of re-running cells).
pub fn run_experiment_observed(
    job: &FleetJob<'_>,
    cfg: &ExperimentConfig,
    on_run: &(dyn Fn(&ShardSpec, &FleetRun) + Sync),
) -> Result<ExperimentOutcome, ExperimentError> {
    let dir = cfg.root.join(&cfg.name);
    let hash = job_hash(job);
    let plan = plan_shards(job);
    let manifest_path = dir.join("manifest.txt");

    if cfg.resume && manifest_path.exists() {
        let found = read_manifest_hash(&manifest_path)?;
        if found != hash {
            return Err(ExperimentError::ManifestMismatch {
                path: manifest_path,
                expected: hash,
                found,
            });
        }
    } else if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| io_at(&dir, &e))?;
    }
    let shard_dir = dir.join("shards");
    fs::create_dir_all(&shard_dir).map_err(|e| io_at(&shard_dir, &e))?;
    write_manifest(&dir, job, &cfg.name, hash, plan.len())?;

    // Checkpoint recovery: a sealed shard on disk is trusted (its `done`
    // digest re-verified) and loaded; anything unsealed or malformed is
    // re-run.
    let mut slots: Vec<Option<ShardData>> = Vec::with_capacity(plan.len());
    let mut loaded = 0;
    for shard in &plan {
        let data = if cfg.resume {
            load_shard(&shard_dir.join(shard_file_name(shard)), shard, hash)
        } else {
            None
        };
        loaded += data.is_some() as usize;
        slots.push(data);
    }

    let mut pending: Vec<(usize, ShardSpec)> = plan
        .iter()
        .copied()
        .enumerate()
        .filter(|&(i, _)| slots[i].is_none())
        .collect();
    if let Some(budget) = cfg.shard_budget {
        pending.truncate(budget);
    }
    let executed = pending.len();
    let results = crate::fleet::par_map(pending, &|(i, shard): (usize, ShardSpec)| {
        (i, execute_shard(job, &shard, &shard_dir, hash, on_run))
    });
    for (i, res) in results {
        slots[i] = Some(res?);
    }

    // Incremental aggregation: concatenate each cell's per-shard record
    // buffers in plan order and summarize the concatenation — the merge
    // that is bit-equal to the in-RAM path.
    let per_cell = plan_cell_shards(job.inputs.len(), job.replicas).len();
    let mut cells = Vec::new();
    let mut fleet = Fnv::new();
    let mut all_complete = true;
    for (ci, (pi, bi)) in cell_order(job).into_iter().enumerate() {
        let slot = &slots[ci * per_cell..(ci + 1) * per_cell];
        let complete = slot.iter().all(|s| s.is_some());
        let mut records: Vec<RunRecord> = Vec::new();
        let mut regions: Option<Vec<String>> = None;
        for s in slot.iter().flatten() {
            if regions.is_none() && !s.records.is_empty() {
                regions = Some(s.regions.clone());
            }
            records.extend(s.records.iter().cloned());
        }
        let backend = job.backends[bi].label();
        let power = job.powers[pi].label();
        let summary = summarize_records(
            &job.spec,
            &backend,
            &power,
            &records,
            regions.as_deref().unwrap_or(&[]),
        );
        let digest = cell_digest(bi, pi, &records);
        fleet.put(digest);
        all_complete &= complete;
        cells.push(CellReport {
            power_index: pi,
            backend_index: bi,
            backend,
            power,
            complete,
            summary,
            digest,
            records,
        });
    }

    Ok(ExperimentOutcome {
        dir,
        job_hash: hash,
        complete: all_complete,
        digest: fleet.finish(),
        executed_shards: executed,
        loaded_shards: loaded,
        pending_shards: plan.len() - loaded - executed,
        cells,
    })
}

/// FNV-1a hash over everything that determines a job's bit-exact
/// results: device spec and cost table, quantized model (dense and
/// sparse storage), inputs and labels, backend labels (which encode
/// their configuration), power-system parameters down to profile
/// segment bits, and the replica count. Equal hashes mean the identical
/// physics, so this hash gates resume.
pub fn job_hash(job: &FleetJob<'_>) -> u64 {
    let mut h = Fnv::new();
    h.put(job.spec.clock_hz);
    h.put(job.spec.sram_words as u64);
    h.put(job.spec.fram_words as u64);
    for op in Op::ALL {
        let c = job.spec.costs.cost(op);
        h.put(c.cycles as u64);
        h.put(c.energy_pj);
    }
    h.put(job.qmodel.input_shape.len() as u64);
    for &d in &job.qmodel.input_shape {
        h.put(d as u64);
    }
    h.put(job.qmodel.layers.len() as u64);
    for layer in &job.qmodel.layers {
        hash_layer(&mut h, layer);
    }
    h.put(job.inputs.len() as u64);
    for inp in &job.inputs {
        hash_q15s(&mut h, &inp.input);
        h.put(inp.label.map(|l| l as u64 + 1).unwrap_or(0));
    }
    h.put(job.backends.len() as u64);
    for b in &job.backends {
        hash_str(&mut h, &b.label());
    }
    h.put(job.powers.len() as u64);
    for p in &job.powers {
        hash_power(&mut h, p);
    }
    h.put(job.replicas as u64);
    // Fault plans change every run's physics, so they gate resume too.
    // Fault-free jobs (`None`) hash exactly as before the fault layer
    // existed, keeping old experiment directories resumable.
    if let Some(plan) = &job.faults {
        h.put(0xfa17);
        h.put(plan.targets().len() as u64);
        for &(t, kind) in plan.targets() {
            h.put(t);
            match kind {
                FaultKind::BitFlip { addr, bit } => {
                    h.put(1);
                    h.put(addr.index() as u64);
                    h.put(bit as u64);
                }
                FaultKind::StuckAt { addr, bit, high } => {
                    h.put(2);
                    h.put(addr.index() as u64);
                    h.put(bit as u64);
                    h.put(high as u64);
                }
                FaultKind::Brownout => h.put(3),
                FaultKind::TornWrite => h.put(4),
            }
        }
    }
    h.finish()
}

fn hash_str(h: &mut Fnv, s: &str) {
    h.put(s.len() as u64);
    for b in s.bytes() {
        h.put(b as u64);
    }
}

fn hash_q15s(h: &mut Fnv, qs: &[Q15]) {
    h.put(qs.len() as u64);
    for q in qs {
        h.put(q.raw() as u16 as u64);
    }
}

fn hash_layer(h: &mut Fnv, layer: &QLayer) {
    match layer {
        QLayer::Conv(c) => {
            h.put(1);
            for &d in &c.dims {
                h.put(d as u64);
            }
            hash_q15s(h, &c.weights);
            hash_q15s(h, &c.bias);
            h.put(c.shift as i64 as u64);
            match &c.sparse {
                None => h.put(0),
                Some(sc) => {
                    h.put(1);
                    h.put(sc.taps.len() as u64);
                    for taps in &sc.taps {
                        h.put(taps.len() as u64);
                        for t in taps {
                            h.put(t.c as u64);
                            h.put(t.ky as u64);
                            h.put(t.kx as u64);
                            h.put(t.w.raw() as u16 as u64);
                        }
                    }
                }
            }
        }
        QLayer::Dense(d) => {
            h.put(2);
            for &x in &d.dims {
                h.put(x as u64);
            }
            hash_q15s(h, &d.weights);
            hash_q15s(h, &d.bias);
            h.put(d.shift as i64 as u64);
            match &d.sparse {
                None => h.put(0),
                Some(csr) => {
                    h.put(1);
                    h.put(csr.row_ptr.len() as u64);
                    for &x in &csr.row_ptr {
                        h.put(x as u64);
                    }
                    h.put(csr.col.len() as u64);
                    for &x in &csr.col {
                        h.put(x as u64);
                    }
                    hash_q15s(h, &csr.val);
                }
            }
        }
        QLayer::Pool(p) => {
            h.put(3);
            h.put(p.kh as u64);
            h.put(p.kw as u64);
        }
        QLayer::Relu => h.put(4),
        QLayer::Flatten => h.put(5),
    }
}

fn hash_power(h: &mut Fnv, p: &PowerSystem) {
    match p {
        PowerSystem::Continuous => h.put(0),
        PowerSystem::Harvested(hv) => {
            h.put(1);
            h.put(hv.capacitance_f.to_bits());
            h.put(hv.v_on.to_bits());
            h.put(hv.v_off.to_bits());
            match &hv.profile {
                HarvestProfile::Constant(w) => {
                    h.put(10);
                    h.put(w.to_bits());
                }
                HarvestProfile::Square {
                    high_w,
                    low_w,
                    period_s,
                    duty,
                } => {
                    h.put(11);
                    h.put(high_w.to_bits());
                    h.put(low_w.to_bits());
                    h.put(period_s.to_bits());
                    h.put(duty.to_bits());
                }
                HarvestProfile::Piecewise(segs) => {
                    h.put(12);
                    h.put(segs.len() as u64);
                    for &(d, w) in segs {
                        h.put(d.to_bits());
                        h.put(w.to_bits());
                    }
                }
            }
        }
    }
}

/// A loaded or freshly-executed shard: its record buffer plus the
/// deployment's region-name order (seeded from the shard's first run,
/// for rebuilding the starvation histogram without traces).
struct ShardData {
    records: Vec<RunRecord>,
    regions: Vec<String>,
}

fn shard_file_name(s: &ShardSpec) -> String {
    format!(
        "p{:03}-b{:03}-s{:04}.runs",
        s.power_index, s.backend_index, s.shard_index
    )
}

fn header_line(s: &ShardSpec, job_hash: u64) -> String {
    format!(
        "shard v2 {} {} {} {} {} {job_hash:016x}",
        s.power_index, s.backend_index, s.shard_index, s.start, s.len
    )
}

fn shard_digest(records: &[RunRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        put_record(&mut h, r);
    }
    h.finish()
}

fn put_record(h: &mut Fnv, r: &RunRecord) {
    digest_run_fields(
        h,
        r.input_index as u64,
        r.completed,
        r.class,
        r.output.iter().copied(),
        r.live_cycles,
        r.dead_secs.to_bits(),
        r.total_energy_pj,
        r.reboots,
    );
}

/// The cell digest rebuilt from records — the same field layout as
/// [`crate::fleet::FleetCell::digest`], via the shared [`digest_run_fields`].
fn cell_digest(backend_index: usize, power_index: usize, records: &[RunRecord]) -> u64 {
    let mut h = Fnv::new();
    h.put(backend_index as u64);
    h.put(power_index as u64);
    for r in records {
        put_record(&mut h, r);
    }
    h.finish()
}

fn io_at(path: &Path, e: &std::io::Error) -> ExperimentError {
    ExperimentError::Io(format!("{}: {e}", path.display()))
}

/// Executes one shard, streaming each record to the shard file as the
/// run finishes and sealing the file with a `done` line.
fn execute_shard(
    job: &FleetJob<'_>,
    shard: &ShardSpec,
    shard_dir: &Path,
    job_hash: u64,
    on_run: &(dyn Fn(&ShardSpec, &FleetRun) + Sync),
) -> Result<ShardData, ExperimentError> {
    let path = shard_dir.join(shard_file_name(shard));
    let file = fs::File::create(&path).map_err(|e| io_at(&path, &e))?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "{}", header_line(shard, job_hash)).map_err(|e| io_at(&path, &e))?;

    let mut regions: Vec<String> = Vec::new();
    let mut first = true;
    let mut records: Vec<RunRecord> = Vec::new();
    let mut write_err: Option<std::io::Error> = None;
    run_shard_with(job, shard, &mut |run| {
        if first {
            first = false;
            regions = run
                .outcome
                .trace
                .regions
                .iter()
                .map(|x| x.name.clone())
                .collect();
        }
        let rec = RunRecord::from_run(run);
        if write_err.is_none() {
            // Stream (line-buffered): an analyst can tail the file, and
            // a kill loses at most the unsealed shard.
            let r = writeln!(w, "{}", rec.encode_line()).and_then(|()| w.flush());
            if let Err(e) = r {
                write_err = Some(e);
            }
        }
        on_run(shard, run);
        records.push(rec);
    });
    if let Some(e) = write_err {
        return Err(io_at(&path, &e));
    }

    let mut regions_line = String::from("regions");
    for r in &regions {
        regions_line.push_str(" =");
        regions_line.push_str(&enc(r));
    }
    writeln!(w, "{regions_line}").map_err(|e| io_at(&path, &e))?;
    writeln!(w, "done {} {:016x}", records.len(), shard_digest(&records))
        .map_err(|e| io_at(&path, &e))?;
    w.flush().map_err(|e| io_at(&path, &e))?;
    Ok(ShardData { records, regions })
}

/// Loads a sealed shard file, returning `None` (re-run it) on any
/// missing, unsealed, or inconsistent content.
fn load_shard(path: &Path, shard: &ShardSpec, job_hash: u64) -> Option<ShardData> {
    let text = fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()? != header_line(shard, job_hash) {
        return None;
    }
    let mut records: Vec<RunRecord> = Vec::new();
    let mut regions: Option<Vec<String>> = None;
    let mut sealed = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if sealed {
            return None; // trailing garbage after the seal
        }
        if let Some(rest) = line.strip_prefix("regions") {
            let mut names = Vec::new();
            for tok in rest.split_whitespace() {
                names.push(dec(tok.strip_prefix('=')?).ok()?);
            }
            regions = Some(names);
        } else if let Some(rest) = line.strip_prefix("done ") {
            let (n, digest) = rest.split_once(' ')?;
            if n.parse::<usize>().ok()? != records.len() {
                return None;
            }
            if u64::from_str_radix(digest, 16).ok()? != shard_digest(&records) {
                return None;
            }
            sealed = true;
        } else {
            records.push(RunRecord::decode_line(line).ok()?);
        }
    }
    if !sealed || records.len() != shard.len {
        return None;
    }
    for (k, r) in records.iter().enumerate() {
        if r.input_index != shard.start + k {
            return None;
        }
    }
    Some(ShardData {
        records,
        regions: regions?,
    })
}

fn write_manifest(
    dir: &Path,
    job: &FleetJob<'_>,
    name: &str,
    hash: u64,
    shards: usize,
) -> Result<(), ExperimentError> {
    let path = dir.join("manifest.txt");
    let mut s = String::from("sonic-experiment v1\n");
    s.push_str(&format!("name ={}\n", enc(name)));
    s.push_str(&format!("job {hash:016x}\n"));
    s.push_str(&format!(
        "grid powers={} backends={} inputs={} replicas={} shards={}\n",
        job.powers.len(),
        job.backends.len(),
        job.inputs.len(),
        job.replicas,
        shards
    ));
    for (i, p) in job.powers.iter().enumerate() {
        s.push_str(&format!("power {i} ={}\n", enc(&p.label())));
    }
    for (i, b) in job.backends.iter().enumerate() {
        s.push_str(&format!("backend {i} ={}\n", enc(&b.label())));
    }
    fs::write(&path, s).map_err(|e| io_at(&path, &e))
}

fn read_manifest_hash(path: &Path) -> Result<u64, ExperimentError> {
    let text = fs::read_to_string(path).map_err(|e| io_at(path, &e))?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("job ") {
            return u64::from_str_radix(rest.trim(), 16).map_err(|_| {
                ExperimentError::Malformed(format!("{}: bad job hash {rest:?}", path.display()))
            });
        }
    }
    Err(ExperimentError::Malformed(format!(
        "{}: no job line",
        path.display()
    )))
}

/// The one [`CellSummary`] fold, over run records in run order: an
/// experiment replays it from disk and [`crate::fleet::FleetCell::summarize`]
/// runs it over its in-RAM runs, so the two summaries are bit-equal by
/// construction. `region_order` (the deployment's region list) orders
/// the starvation histogram; regions it lacks follow in first-seen order.
pub(crate) fn summarize_records(
    spec: &DeviceSpec,
    backend: &str,
    power: &str,
    records: &[RunRecord],
    region_order: &[String],
) -> CellSummary {
    let completed: Vec<&RunRecord> = records.iter().filter(|r| r.completed).collect();
    let failures: Vec<&Failure<String>> =
        records.iter().filter_map(|r| r.failure.as_ref()).collect();
    let labeled = records.iter().filter(|r| r.correct.is_some()).count();
    let right = records
        .iter()
        .filter(|r| r.correct == Some(true) && r.completed)
        .count();
    let metric =
        |f: &dyn Fn(&RunRecord) -> f64| -> Vec<f64> { completed.iter().map(|r| f(r)).collect() };
    let starved = {
        let mut order: Vec<String> = region_order.to_vec();
        let mut counts: Vec<u64> = vec![0; order.len()];
        for f in &failures {
            match order.iter().position(|n| *n == f.starved_region) {
                Some(i) => counts[i] += 1,
                None => {
                    order.push(f.starved_region.clone());
                    counts.push(1);
                }
            }
        }
        order
            .into_iter()
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .collect()
    };
    CellSummary {
        backend: backend.to_string(),
        power: power.to_string(),
        runs: records.len(),
        completed: completed.len(),
        completion_rate: if records.is_empty() {
            0.0
        } else {
            completed.len() as f64 / records.len() as f64
        },
        accuracy: (labeled > 0).then(|| right as f64 / labeled as f64),
        total_secs: stats(&metric(&|r| {
            spec.cycles_to_secs(r.live_cycles) + r.dead_secs
        })),
        energy_mj: stats(&metric(&|r| r.total_energy_pj as f64 * 1e-9)),
        reboots: stats(&metric(&|r| r.reboots as f64)),
        starved,
        sdc: records.iter().filter(|r| r.sdc == Some(true)).count(),
        corruption_detected: records.iter().map(|r| r.corruption_detected).sum(),
        corrupted_runs: failures
            .iter()
            .filter(|f| f.corrupted_region().is_some())
            .count(),
        non_termination: failures
            .iter()
            .filter(|f| f.non_termination_task().is_some())
            .count(),
        non_termination_task: failures
            .iter()
            .find_map(|f| f.non_termination_task())
            .map(str::to_string),
    }
}

/// Percent-encodes bytes outside a conservative whitelist so encoded
/// strings are single space-free tokens.
fn enc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        let plain = b.is_ascii_alphanumeric()
            || matches!(
                b,
                b'_' | b'.'
                    | b':'
                    | b'#'
                    | b'('
                    | b')'
                    | b'/'
                    | b','
                    | b'+'
                    | b'~'
                    | b'\''
                    | b'*'
                    | b'-'
            );
        if plain {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02x}"));
        }
    }
    out
}

fn dec(s: &str) -> Result<String, String> {
    let raw = s.as_bytes();
    let mut bytes = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex = raw
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .ok_or_else(|| format!("truncated escape in {s:?}"))?;
            bytes.push(u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape in {s:?}"))?);
            i += 3;
        } else {
            bytes.push(raw[i]);
            i += 1;
        }
    }
    String::from_utf8(bytes).map_err(|_| format!("non-UTF-8 escape in {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests_support::tiny_pruned_qmodel;
    use crate::exec::{Backend, TailsConfig};
    use crate::fleet::{fleet_digest, run_fleet, FleetInput};
    use dnn::quant::QModel;

    fn test_root(name: &str) -> PathBuf {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/exp-unit-tests")
            .join(name);
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn tiny_job<'a>(
        qm: &'a QModel,
        input: &[Q15],
        n_inputs: usize,
        replicas: usize,
    ) -> FleetJob<'a> {
        FleetJob {
            qmodel: qm,
            spec: DeviceSpec::msp430fr5994(),
            inputs: (0..n_inputs)
                .map(|i| FleetInput {
                    input: input.to_vec(),
                    label: Some(i % 2),
                })
                .collect(),
            backends: vec![
                Backend::Sonic,
                Backend::Tails(TailsConfig::default()),
                Backend::Tiled(8),
            ],
            powers: vec![PowerSystem::continuous(), PowerSystem::cap_100uf()],
            replicas,
            faults: None,
        }
    }

    #[test]
    fn run_record_round_trips_through_the_line_codec() {
        let failed = RunRecord {
            input_index: 42,
            completed: false,
            class: None,
            correct: Some(false),
            output: vec![-32768, -1, 0, 17, 32767],
            live_cycles: 123_456_789,
            dead_secs: 0.1 + 0.2, // a value with messy bits
            total_energy_pj: 987_654_321,
            reboots: 7,
            sdc: None,
            corruption_detected: 0,
            failure: Some(Failure {
                error: RunError::SupplyDead {
                    task: "fc layer\nline2 =%-".into(),
                },
                starved_region: "fc".into(),
                brownout: Some("natural op#91 (FramWrite/Kernel) in fc — 100% á".into()),
            }),
        };
        let completed = RunRecord {
            input_index: 0,
            completed: true,
            class: Some(3),
            correct: None,
            output: vec![],
            live_cycles: 1,
            dead_secs: 0.0,
            total_energy_pj: 2,
            reboots: 0,
            sdc: Some(false),
            corruption_detected: 5,
            failure: None,
        };
        for rec in [&failed, &completed] {
            let line = rec.encode_line();
            assert!(!line.contains('\n'), "records are single lines: {line:?}");
            assert_eq!(&RunRecord::decode_line(&line).unwrap(), rec);
        }

        // One record per `RunError` variant: the tag and fields rebuild
        // the typed error, so its text is the in-RAM text.
        let errors = [
            RunError::NonTermination {
                task: "tile128-layer0".into(),
                attempts: 17,
            },
            RunError::TransitionLimit { limit: 1_000_000 },
            // Some("") must survive, distinct from a missing field.
            RunError::SupplyDead {
                task: String::new(),
            },
            RunError::Corrupted {
                task: "conv 1".into(),
                region: "fc".into(),
            },
        ];
        for error in errors {
            let text = error.to_string();
            let mut rec = failed.clone();
            rec.sdc = Some(true);
            rec.failure = Some(Failure {
                error,
                starved_region: String::new(),
                brownout: None,
            });
            let decoded = RunRecord::decode_line(&rec.encode_line()).unwrap();
            assert_eq!(decoded, rec);
            assert_eq!(decoded.failure.unwrap().error.to_string(), text);
        }

        // The verdict keys the tail: a completed flag with failure tokens,
        // or a failed flag without them, is malformed.
        let line = failed.encode_line();
        assert!(RunRecord::decode_line(&line.replacen(" 0 ", " 1 ", 1)).is_err());
        let line = completed.encode_line();
        assert!(RunRecord::decode_line(&line.replacen(" 1 ", " 0 ", 1)).is_err());
    }

    #[test]
    fn experiment_matches_the_in_ram_fleet_bit_for_bit() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 3, 2);
        let mut cfg = ExperimentConfig::new("in-ram-equivalence");
        cfg.root = test_root("in-ram-equivalence");
        let out = run_experiment(&job, &cfg).expect("experiment runs");
        assert!(out.complete);
        assert_eq!(out.pending_shards, 0);

        let cells = run_fleet(&job);
        assert_eq!(out.digest, fleet_digest(&cells));
        let spec = DeviceSpec::msp430fr5994();
        for (report, cell) in out.cells.iter().zip(&cells) {
            assert!(report.complete);
            assert_eq!(report.digest, cell.digest());
            assert_eq!(report.summary, cell.summarize(&spec), "summaries bit-equal");
            assert_eq!(report.records.len(), cell.runs.len());
        }
    }

    #[test]
    fn killed_experiment_resumes_bit_equal_to_an_uninterrupted_run() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 4, 2);
        let root = test_root("kill-resume");

        let mut clean = ExperimentConfig::new("clean");
        clean.root = root.clone();
        let clean_out = run_experiment(&job, &clean).expect("clean run");
        assert!(clean_out.complete);

        // "Kill after k shards": the runner stops after 3 of 12.
        let mut killed = ExperimentConfig::new("killed");
        killed.root = root.clone();
        killed.shard_budget = Some(3);
        let partial = run_experiment(&job, &killed).expect("budgeted run");
        assert!(!partial.complete);
        assert_eq!(partial.executed_shards, 3);
        assert_eq!(partial.pending_shards, 9);
        // A partial report still renders: the first cell's shards ran
        // first in plan order, so it has records already.
        assert!(partial.cells[0].summary.runs > 0);

        // Resume: sealed shards load, the rest run, digest is bit-equal.
        let mut resume = killed.clone();
        resume.resume = true;
        resume.shard_budget = None;
        let resumed = run_experiment(&job, &resume).expect("resumed run");
        assert!(resumed.complete);
        assert_eq!(resumed.loaded_shards, 3);
        assert_eq!(resumed.executed_shards, 9);
        assert_eq!(resumed.digest, clean_out.digest);
        for (a, b) in resumed.cells.iter().zip(&clean_out.cells) {
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.summary, b.summary);
        }
    }

    #[test]
    fn a_shard_killed_mid_write_is_rerun_on_resume() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 4, 2);
        let root = test_root("mid-shard-kill");

        let mut cfg = ExperimentConfig::new("exp");
        cfg.root = root.clone();
        let clean = run_experiment(&job, &cfg).expect("clean run");

        // Simulate a kill mid-shard: chop a sealed shard file short so
        // it has records but no `done` seal.
        let shard_dir = root.join("exp").join("shards");
        let victim = shard_dir.join("p000-b000-s0000.runs");
        let text = fs::read_to_string(&victim).unwrap();
        let truncated: Vec<&str> = text.lines().take(2).collect();
        fs::write(&victim, truncated.join("\n")).unwrap();

        let mut resume = cfg.clone();
        resume.resume = true;
        let resumed = run_experiment(&job, &resume).expect("resumed run");
        assert!(resumed.complete);
        assert_eq!(resumed.executed_shards, 1, "only the torn shard re-runs");
        assert_eq!(resumed.digest, clean.digest);
    }

    #[test]
    fn failed_runs_survive_the_disk_round_trip() {
        // Tile-128 never terminates on 8 µF; a zero-power profile kills
        // the supply for good after the first brown-out.
        let (qm, input) = tiny_pruned_qmodel();
        let mut job = tiny_job(&qm, &input, 3, 1);
        job.backends = vec![Backend::Tiled(128)];
        job.powers = vec![
            PowerSystem::harvested(8e-6),
            PowerSystem::harvested_with(8e-6, HarvestProfile::Constant(0.0)),
        ];
        let mut cfg = ExperimentConfig::new("failures");
        cfg.root = test_root("failures");
        let out = run_experiment(&job, &cfg).expect("experiment runs");
        let cells = run_fleet(&job);
        let spec = DeviceSpec::msp430fr5994();
        for (report, cell) in out.cells.iter().zip(&cells) {
            let records: Vec<RunRecord> = cell.runs.iter().map(RunRecord::from_run).collect();
            assert_eq!(report.records, records, "{}: records", report.power);
            assert_eq!(report.summary, cell.summarize(&spec), "{}", report.power);
            assert_eq!(report.summary.completed, 0);
            let starved: u64 = report.summary.starved.iter().map(|(_, c)| c).sum();
            assert_eq!(starved, 3, "every failed run attributed");
            assert_eq!(report.summary.corrupted_runs, 0);
        }
        let nonterm = &out.cells[0].summary;
        assert_eq!(nonterm.non_termination, 3);
        assert!(nonterm.non_termination_task.is_some());
        let dead = &out.cells[1];
        assert_eq!(dead.summary.non_termination, 0);
        for rec in &dead.records {
            let f = rec.failure.as_ref().expect("dead-supply runs fail");
            assert!(matches!(f.error, RunError::SupplyDead { .. }), "{f:?}");
        }
    }

    #[test]
    fn a_v1_shard_is_rerun_on_resume() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 4, 2);
        let root = test_root("v1-shard");
        let mut cfg = ExperimentConfig::new("exp");
        cfg.root = root.clone();
        let clean = run_experiment(&job, &cfg).expect("clean run");

        // Rewrite one sealed (fault-free, all-completed) shard in the v1
        // layout: its header, and the 13-token run line whose starved
        // region, brown-out, and error are `-`. The `done` digest covers
        // only format-independent fields, so the file is sealed and valid
        // v1 — the header alone must send it back to the runner.
        let victim = root.join("exp/shards/p000-b000-s0000.runs");
        let text = fs::read_to_string(&victim).unwrap();
        let v1: Vec<String> = text
            .lines()
            .map(|line| match line.strip_prefix("shard v2 ") {
                Some(rest) => format!("shard v1 {rest}"),
                None if line.starts_with("run ") => {
                    let t: Vec<&str> = line.split(' ').collect();
                    assert_eq!(t.len(), 12, "a completed v2 record: {line}");
                    format!("{} - - -", t[..10].join(" "))
                }
                None => line.to_string(),
            })
            .collect();
        fs::write(&victim, v1.join("\n") + "\n").unwrap();

        let mut resume = cfg.clone();
        resume.resume = true;
        let resumed = run_experiment(&job, &resume).expect("resumed run");
        assert!(resumed.complete);
        assert_eq!(resumed.executed_shards, 1, "only the v1 shard re-runs");
        assert_eq!(resumed.digest, clean.digest);
        assert!(fs::read_to_string(&victim)
            .unwrap()
            .starts_with("shard v2 "));
    }

    #[test]
    fn resume_rejects_a_different_job() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 2, 1);
        let root = test_root("mismatch");
        let mut cfg = ExperimentConfig::new("exp");
        cfg.root = root.clone();
        run_experiment(&job, &cfg).expect("first run");

        let other = tiny_job(&qm, &input, 3, 1); // different input count
        let mut resume = cfg.clone();
        resume.resume = true;
        match run_experiment(&other, &resume) {
            Err(ExperimentError::ManifestMismatch {
                expected, found, ..
            }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected manifest mismatch, got {other:?}"),
        }
        // Replica count is job semantics, so it also gates resume.
        let mut r4 = tiny_job(&qm, &input, 2, 1);
        r4.replicas = 4;
        assert!(matches!(
            run_experiment(&r4, &resume),
            Err(ExperimentError::ManifestMismatch { .. })
        ));
    }

    #[test]
    fn fresh_run_wipes_stale_records() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 2, 2);
        let root = test_root("fresh-wipe");
        let mut cfg = ExperimentConfig::new("exp");
        cfg.root = root;
        let first = run_experiment(&job, &cfg).expect("first run");
        assert_eq!(first.loaded_shards, 0);
        // Without --resume the directory is wiped: nothing is loaded.
        let second = run_experiment(&job, &cfg).expect("second run");
        assert_eq!(second.loaded_shards, 0);
        assert_eq!(second.executed_shards, first.executed_shards);
        assert_eq!(second.digest, first.digest);
    }

    #[test]
    fn observer_sees_every_run_with_its_shard() {
        use std::sync::Mutex;
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 3, 2);
        let mut cfg = ExperimentConfig::new("observer");
        cfg.root = test_root("observer");
        let seen: Mutex<Vec<(usize, usize, usize)>> = Mutex::new(Vec::new());
        run_experiment_observed(&job, &cfg, &|shard, run| {
            seen.lock()
                .unwrap()
                .push((shard.power_index, shard.backend_index, run.input_index));
        })
        .expect("experiment runs");
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let mut expect = Vec::new();
        for pi in 0..job.powers.len() {
            for bi in 0..job.backends.len() {
                for i in 0..job.inputs.len() {
                    expect.push((pi, bi, i));
                }
            }
        }
        assert_eq!(seen, expect);
    }
}
