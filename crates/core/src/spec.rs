//! Executable crash-consistency specification (refinement checking).
//!
//! The paper's correctness argument is informal: SONIC's loop
//! continuation keeps one non-volatile index per loop level and writes it
//! *last* in every iteration, so a power failure at any op boundary
//! resumes without losing or repeating observable work (§6.1); Alpaca's
//! redo log defers every task-shared write until an idempotent two-phase
//! commit (§6.2, Maeng et al.). This module turns that argument into an
//! executable spec:
//!
//! 1. **Abstract machines.** [`LayerAbs`] is the abstract state of one
//!    layer's loop-continuity machine (filter/tap/index counters, the
//!    sparse-FC stage machine, the TAILS calibration word); [`CommitAbs`]
//!    is the abstract Alpaca two-phase-commit machine (`Idle` vs
//!    `Committing` with a pending redo log). Both come with *abstraction
//!    functions* ([`abs_model`], [`abs_commit`]) that map the concrete
//!    [`Device`] NVM state to abstract state — or fail with a divergence
//!    description when the concrete state is outside the abstract state
//!    space (a refinement violation).
//!
//! 2. **Differential fault injection.** [`check_schedule`] runs one
//!    inference with a deterministic [`FaultPlan`], applies the
//!    abstraction function at *every* crash (between the brown-out and
//!    the reboot, via [`intermittent::sched::run_observed`], so the exact
//!    post-crash FRAM image is inspected), runs recovery to completion,
//!    and requires the final output to be bit-equal to the fault-free
//!    run. [`check_exhaustive`] sweeps a single fault over every charged
//!    op boundary of the fault-free run — including mid-commit-walk and
//!    mid-DMA-span boundaries, which the injection hook
//!    ([`Device::arm_faults`]) lands exactly.
//!
//! 3. **Forked runs.** The sweeps ([`check_strided`], [`check_exhaustive`],
//!    [`check_corruption`], [`check_stateful_corruption`]) do not
//!    re-simulate each faulted run's fault-free prefix. A run is a
//!    session over the device (`exec::Session`): the task graph with
//!    each body's recorded sites, the Alpaca runtime, and the
//!    scheduler's loop state, stepped one task transition at a time. The
//!    sweeps step the fault-free reference, keep a snapshot (a device
//!    clone plus a session clone) at the last task boundary strictly
//!    before each target, in target order, and run every schedule or
//!    flip from a clone of its snapshot with the fault plan armed;
//!    targets stay relative to the run start. The fork is the same
//!    computation as a run from the start with the plan armed: nothing
//!    armed after the boundary can act before it — a fault fires only
//!    when execution reaches its op index, and every funding decision
//!    before the boundary covers ops that end at or before it, so a
//!    later target never limits it — and the snapshot holds every piece
//!    of state the run carries (`forked` in the source spells the
//!    argument out). From the boundary to the target the run executes
//!    with the plan armed, so the armed-fault capping in the bundled-loop
//!    and taped-body drivers still lands every fault on its exact op.
//!    Single-task backends (Base, Stateful) have only the entry
//!    boundary, so their runs start at the entry. The public
//!    single-schedule entry points ([`check_schedule`],
//!    [`classify_faults`]) run from the deployed template, as before.
//!
//! 4. **Dead-word flips decided from one watched pass.** A bit flip of a
//!    word that is rewritten before it is read, or never accessed again,
//!    can only end as the fault-free run does. The bit-flip sweeps
//!    ([`check_corruption`], [`check_stateful_corruption`]) run one
//!    forked pass per flip point with a first-access watch armed
//!    ([`Device::arm_watch`]) over every swept word; only the flips whose
//!    word is read first run on forks of their own, and the watched run's
//!    outcome classifies the rest ([`CorruptionReport::decided`]). The
//!    def-use argument is at `flip_sweep` in the source. Each decision is
//!    checked against a full run at run time — every one in debug builds,
//!    the first of each point in release builds — and a mismatch panics.
//!
//! Violations are actionable: each [`Violation`] reports the backend,
//! the accounting region (layer/task), the charged-op index and phase of
//! the crash, the injected schedule, and the abstract-vs-concrete
//! divergence.

use crate::deploy::{
    deploy, DeployedKind, DeployedLayer, DeployedModel, IoBuf, SparseFc, UNDO_EMPTY,
};
use crate::exec::{Backend, InferenceOutcome, Session};
use crate::fleet::par_map;
use crate::tails::{CALIB_INITIAL, CALIB_MIN};
use dnn::quant::QModel;
use fxp::Q15;
use intermittent::alpaca::AlpacaRt;
use mcu::{
    Device, DeviceSpec, FaultKind, FaultPlan, FirstAccess, FramWord, NvAddr, Phase, PowerSystem,
    RegionId,
};

/// Which persistent-state discipline a backend's concrete state follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StateStyle {
    /// No intermittence support: control words must stay at their
    /// deploy-time reset values forever.
    Baseline,
    /// SONIC-style loop continuation (also TAILS, which reuses it with
    /// LEA/DMA kernels and adds the calibration word).
    Loop {
        /// Sparse FC layers use the undo-logged stage machine (`false`
        /// for the `SONIC-no-undo` ablation, which runs them as plain
        /// loop-ordered passes).
        sparse_undo: bool,
        /// TAILS: the calibration words are live.
        tails: bool,
    },
    /// Alpaca task tiling: control words are task-shared redo-logged
    /// state and the per-layer stage lives in the `undo_tag` word.
    Tiled,
    /// Stateful progress embedding: no control words at all — progress
    /// lives in the activation buffers as in-band tags, abstracted by
    /// [`StatefulAbs`].
    Stateful,
}

impl StateStyle {
    fn of(backend: &Backend) -> StateStyle {
        match backend {
            Backend::Baseline => StateStyle::Baseline,
            Backend::Sonic => StateStyle::Loop {
                sparse_undo: true,
                tails: false,
            },
            Backend::SonicNoUndo => StateStyle::Loop {
                sparse_undo: false,
                tails: false,
            },
            Backend::Tails(_) => StateStyle::Loop {
                sparse_undo: true,
                tails: true,
            },
            Backend::Tiled(_) => StateStyle::Tiled,
            Backend::Stateful => StateStyle::Stateful,
        }
    }
}

/// Abstract state of one layer's loop-continuity machine, produced by
/// the abstraction function [`abs_model`] from concrete FRAM control
/// words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerAbs {
    /// Convolution: current filter, tap (or FIR tap-group) position, and
    /// plane index.
    Conv {
        /// Filter counter, in `[0, F]`.
        filt: u32,
        /// Tap / tap-group counter.
        pos: u32,
        /// Output-plane loop index.
        idx: u32,
    },
    /// Dense FC: input column (or TAILS chunk) and output index.
    Dense {
        /// Input column / chunk counter.
        col: u32,
        /// Output loop index.
        out: u32,
    },
    /// Sparse FC under sparse undo-logging: the decoded stage machine.
    Sparse(SparseAbs),
    /// Element-wise map (pool / ReLU): the flat output index.
    Map {
        /// Flat element loop index.
        idx: u32,
    },
    /// No persistent per-layer state (flatten, or the baseline's
    /// untouched words).
    Inert,
}

/// The sparse-FC stage machine (§6.2.2), decoded from the one-word
/// range-packed state (`[0, out)` = ZERO, `[out, out+nnz]` = ACCUM,
/// above = FINISH).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparseAbs {
    /// Zeroing the accumulation plane at `idx`.
    Zero {
        /// Plane index being zeroed.
        idx: u32,
    },
    /// Accumulating non-zero `k`; `undo_armed` is whether the undo slot
    /// currently tags an iteration (vs `UNDO_EMPTY`).
    Accum {
        /// Non-zero entry counter.
        k: u32,
        /// Whether the two-word undo slot holds a live (value, tag) pair.
        undo_armed: bool,
    },
    /// Finishing pass at output `idx`.
    Finish {
        /// Output index of the finishing pass.
        idx: u32,
    },
}

/// Abstract state of the Alpaca two-phase-commit machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitAbs {
    /// No commit in progress; the redo log is dead storage.
    Idle,
    /// A commit walk may have partially updated home locations; the log
    /// holds `pending` entries that recovery must replay.
    Committing {
        /// Live redo-log entries awaiting (re-)commit.
        pending: usize,
    },
}

/// One refinement violation: the concrete device state diverged from the
/// abstract machine, or recovery failed the differential check.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Backend label (`"SONIC"`, `"Tile-8"`, ...).
    pub backend: String,
    /// Accounting region (layer/task) the violation was found in.
    pub region: String,
    /// Charged-op index at the point of detection (the crash's op index,
    /// or the end-of-run op count for final-state checks).
    pub op_index: u64,
    /// Accounting phase of the crashed op, when the detection point was
    /// a crash.
    pub phase: Option<Phase>,
    /// The injected fault schedule (inference-relative op indices).
    pub schedule: Vec<u64>,
    /// Human-readable abstract-vs-concrete divergence.
    pub divergence: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{}] region `{}` op#{}{}: {} (schedule {:?})",
            self.backend,
            self.region,
            self.op_index,
            match self.phase {
                Some(p) => format!(" ({p:?})"),
                None => String::new(),
            },
            self.divergence,
            self.schedule,
        )
    }
}

/// The result of a fault-injection sweep over one backend.
#[derive(Clone, Debug)]
pub struct CrashSpecReport {
    /// Backend label.
    pub backend: String,
    /// Fault boundaries checked.
    pub boundaries: u64,
    /// Crashes observed across all runs (every injected fault must
    /// actually fire, so this is at least `boundaries`).
    pub crashes: u64,
    /// All refinement violations found (empty on success).
    pub violations: Vec<Violation>,
}

impl CrashSpecReport {
    /// Panics with every violation listed if any were found. Keeps test
    /// output actionable: one line per violating boundary.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "{} crash-consistency violation(s) for {} over {} boundaries:\n{}",
            self.violations.len(),
            self.backend,
            self.boundaries,
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Outcome of checking one fault schedule.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Crashes the scheduler observed during the run.
    pub crashes: u64,
    /// Violations found at crash points or in the final state.
    pub violations: Vec<Violation>,
}

// ---------------------------------------------------------------------
// Abstraction functions: concrete NVM -> abstract state (or divergence).
// ---------------------------------------------------------------------

fn word(dev: &Device, w: FramWord) -> u32 {
    dev.peek_word(w) as u32
}

fn bounded(val: u32, max: u32, what: &str) -> Result<u32, String> {
    if val > max {
        Err(format!(
            "concrete {what}={val} exceeds abstract bound {max}"
        ))
    } else {
        Ok(val)
    }
}

fn must_reset(dev: &Device, l: &DeployedLayer, what: &str) -> Result<(), String> {
    for (w, name, reset) in [
        (l.idx, "idx", 0u32),
        (l.pos, "pos", 0),
        (l.filt, "filt", 0),
        (l.undo_val, "undo_val", 0),
        (l.undo_tag, "undo_tag", UNDO_EMPTY as u32),
    ] {
        let v = word(dev, w);
        if v != reset {
            return Err(format!(
                "{what} must leave {name} at its reset value {reset}, found {v}"
            ));
        }
    }
    Ok(())
}

fn undo_abs(dev: &Device, l: &DeployedLayer, nnz: u32) -> Result<bool, String> {
    let tag = word(dev, l.undo_tag);
    if tag == UNDO_EMPTY as u32 {
        Ok(false)
    } else if tag < nnz {
        Ok(true)
    } else {
        Err(format!(
            "undo_tag={tag} is neither UNDO_EMPTY nor a valid entry index (< {nnz})"
        ))
    }
}

fn decode_sparse(state: u32, out_n: u32, nnz: u32, undo_armed: bool) -> Result<SparseAbs, String> {
    if state < out_n {
        Ok(SparseAbs::Zero { idx: state })
    } else if state <= out_n + nnz {
        Ok(SparseAbs::Accum {
            k: state - out_n,
            undo_armed,
        })
    } else if state <= 2 * out_n + nnz + 1 {
        Ok(SparseAbs::Finish {
            idx: state - out_n - nnz - 1,
        })
    } else {
        Err(format!(
            "packed sparse state {state} is outside every stage range \
             (out={out_n}, nnz={nnz})"
        ))
    }
}

/// Abstraction function for one layer under the SONIC/TAILS
/// loop-continuation discipline.
fn abs_loop_layer(dev: &Device, l: &DeployedLayer, sparse_undo: bool) -> Result<LayerAbs, String> {
    match &l.kind {
        DeployedKind::Conv { dims, .. } => {
            let [nf, nc, kh, kw] = *dims;
            let plane = l.out_shape[1] * l.out_shape[2];
            let filt = bounded(word(dev, l.filt), nf, "filt")?;
            let pos = bounded(word(dev, l.pos), nc * kh * kw, "pos")?;
            let idx = bounded(word(dev, l.idx), plane, "idx")?;
            if word(dev, l.undo_tag) != UNDO_EMPTY as u32 {
                return Err("conv layers never arm the undo slot".to_string());
            }
            Ok(LayerAbs::Conv { filt, pos, idx })
        }
        DeployedKind::Dense { dims, sparse, .. } => {
            let [out_n, in_n] = *dims;
            match sparse {
                Some(SparseFc {
                    cols: (_, entries), ..
                }) if sparse_undo => {
                    let nnz = entries.len() / 2;
                    let undo_armed = undo_abs(dev, l, nnz)?;
                    let state = word(dev, l.idx);
                    bounded(word(dev, l.pos), in_n, "pos (column cache)")?;
                    Ok(LayerAbs::Sparse(decode_sparse(
                        state, out_n, nnz, undo_armed,
                    )?))
                }
                _ => {
                    // Plain dense, or the no-undo ablation's loop-ordered
                    // sparse pass: column/chunk in `pos`, output in `idx`.
                    let col = bounded(word(dev, l.pos), in_n, "pos")?;
                    let out = bounded(word(dev, l.idx), out_n, "idx")?;
                    if word(dev, l.undo_tag) != UNDO_EMPTY as u32 {
                        return Err(
                            "dense layers without undo-logging never arm the undo slot".to_string()
                        );
                    }
                    Ok(LayerAbs::Dense { col, out })
                }
            }
        }
        DeployedKind::Pool { .. } => {
            let total = l.out_shape.iter().product::<u32>();
            let idx = bounded(word(dev, l.idx), total, "idx")?;
            Ok(LayerAbs::Map { idx })
        }
        DeployedKind::Relu => {
            let total = l.in_shape.iter().product::<u32>();
            let idx = bounded(word(dev, l.idx), total, "idx")?;
            Ok(LayerAbs::Map { idx })
        }
        DeployedKind::Flatten => {
            must_reset(dev, l, "flatten")?;
            Ok(LayerAbs::Inert)
        }
    }
}

/// Tiled (Alpaca) stage-word decode: `undo_tag` holds the stage; the
/// deploy-time `UNDO_EMPTY` reads as the initial ZERO stage.
fn tiled_stage(dev: &Device, l: &DeployedLayer) -> Result<u32, String> {
    let s = word(dev, l.undo_tag);
    if s == UNDO_EMPTY as u32 {
        Ok(0)
    } else {
        bounded(s, 2, "stage word (undo_tag)")
    }
}

/// Abstraction function for one layer under Alpaca task tiling. The
/// home words only ever hold *committed* snapshots (or, mid-commit-walk,
/// a per-word mix of two committed snapshots), so every word must
/// individually satisfy its abstract bound.
fn abs_tiled_layer(dev: &Device, l: &DeployedLayer) -> Result<LayerAbs, String> {
    match &l.kind {
        DeployedKind::Conv { dims, .. } => {
            let [nf, nc, kh, kw] = *dims;
            let plane = l.out_shape[1] * l.out_shape[2];
            tiled_stage(dev, l)?;
            let filt = bounded(word(dev, l.filt), nf, "filt")?;
            let pos = bounded(word(dev, l.pos), nc * kh * kw, "pos")?;
            let idx = bounded(word(dev, l.idx), plane, "idx")?;
            Ok(LayerAbs::Conv { filt, pos, idx })
        }
        DeployedKind::Dense { dims, sparse, .. } => {
            let [out_n, in_n] = *dims;
            let stage = tiled_stage(dev, l)?;
            let col = bounded(word(dev, l.pos), in_n, "pos")?;
            match sparse {
                Some(SparseFc {
                    cols: (_, entries), ..
                }) => {
                    let nnz = entries.len() / 2;
                    let idx = bounded(word(dev, l.idx), out_n.max(nnz), "idx")?;
                    Ok(LayerAbs::Sparse(match stage {
                        0 => SparseAbs::Zero {
                            idx: idx.min(out_n),
                        },
                        1 => SparseAbs::Accum {
                            k: idx,
                            undo_armed: false,
                        },
                        _ => SparseAbs::Finish { idx },
                    }))
                }
                None => {
                    if word(dev, l.filt) != 0 {
                        return Err("tiled dense layers commit filt only as 0".to_string());
                    }
                    let out = bounded(word(dev, l.idx), out_n, "idx")?;
                    Ok(LayerAbs::Dense { col, out })
                }
            }
        }
        DeployedKind::Pool { .. } | DeployedKind::Relu => {
            let total = if matches!(l.kind, DeployedKind::Relu) {
                l.in_shape.iter().product::<u32>()
            } else {
                l.out_shape.iter().product::<u32>()
            };
            let idx = bounded(word(dev, l.idx), total, "idx")?;
            if word(dev, l.undo_tag) != UNDO_EMPTY as u32 {
                return Err("tiled map layers never write their stage word".to_string());
            }
            Ok(LayerAbs::Map { idx })
        }
        DeployedKind::Flatten => {
            must_reset(dev, l, "flatten")?;
            Ok(LayerAbs::Inert)
        }
    }
}

/// The TAILS calibration words: `calib` is `0` (uncalibrated) or a
/// committed tile in `[CALIB_MIN, CALIB_INITIAL]` equal to the last
/// candidate; non-TAILS backends must leave both words at `0`.
fn check_calib(dev: &Device, m: &DeployedModel, tails_live: bool) -> Result<(), String> {
    let calib = dev.peek_word(m.calib);
    let cand = dev.peek_word(m.calib_cand);
    if !tails_live {
        if calib != 0 || cand != 0 {
            return Err(format!(
                "calibration words written by a non-TAILS backend (calib={calib}, cand={cand})"
            ));
        }
        return Ok(());
    }
    for (v, name) in [(calib, "calib"), (cand, "calib_cand")] {
        if v != 0 && !(CALIB_MIN..=CALIB_INITIAL).contains(&v) {
            return Err(format!(
                "{name}={v} outside {{0}} ∪ [{CALIB_MIN}, {CALIB_INITIAL}]"
            ));
        }
    }
    if calib != 0 && calib != cand {
        return Err(format!(
            "calib={calib} committed without its candidate (calib_cand={cand})"
        ));
    }
    Ok(())
}

fn abs_model_styled(
    dev: &Device,
    m: &DeployedModel,
    style: StateStyle,
) -> Result<Vec<LayerAbs>, (RegionId, String)> {
    let mut out = Vec::with_capacity(m.layers.len());
    for l in &m.layers {
        let abs = match style {
            StateStyle::Baseline => must_reset(dev, l, "the baseline").map(|()| LayerAbs::Inert),
            StateStyle::Loop { sparse_undo, .. } => abs_loop_layer(dev, l, sparse_undo),
            StateStyle::Tiled => abs_tiled_layer(dev, l),
            StateStyle::Stateful => {
                must_reset(dev, l, "the stateful backend").map(|()| LayerAbs::Inert)
            }
        };
        out.push(abs.map_err(|d| (l.region, d))?);
    }
    let tails_live = matches!(style, StateStyle::Loop { tails: true, .. });
    check_calib(dev, m, tails_live).map_err(|d| (m.other_region, d))?;
    // The stateful backend's progress lives in the activation buffers,
    // not the (reset) control words: check the buffer machine too.
    if style == StateStyle::Stateful {
        abs_stateful(dev, m)?;
    }
    Ok(out)
}

/// Abstract state of the stateful backend's progress machine, produced
/// by [`abs_stateful`] from the concrete activation buffers.
///
/// The concrete state refines it iff (per write pass, in execution
/// order): every word in the pass region is either *covered* (valid
/// parity, tag at or deeper than the pass's own) or not, the covered
/// words form exactly a prefix `[0, f)` — the progress frontier the
/// seeker recovers by binary search — and across passes the frontiers
/// are monotone: complete passes, then at most one partial pass, then
/// untouched ones. Any valid word carrying a tag outside the buffer's
/// assigned range (the clear pattern's flip-neighbourhood, tags ≥ 7) is
/// a violation: forged progress the seeker could trust.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatefulAbs {
    /// Per write pass (execution order, pass 0 = the embedded input):
    /// the recovered progress frontier.
    pub frontiers: Vec<u32>,
}

/// Abstraction function for the stateful backend: maps the concrete
/// activation buffers to the progress-frontier machine, or fails with
/// the offending region and a divergence description.
///
/// Only meaningful after [`crate::stateful::prepare_run`] (the raw
/// staged input does not carry tags yet).
///
/// # Errors
///
/// Returns the accounting region and divergence when the buffers are
/// outside the abstract state space.
pub fn abs_stateful(dev: &Device, m: &DeployedModel) -> Result<StatefulAbs, (RegionId, String)> {
    use crate::stateful::{is_valid, tag_of};
    let p = crate::stateful::plan(m);
    let pass_region = |pass: &crate::stateful::Pass| match pass.layer {
        Some(i) => m.layers[i].region,
        None => m.other_region,
    };
    // Tag-range validity over the full buffers: a valid word must carry
    // a tag the assigner actually handed out for that buffer.
    for (which, used) in [(IoBuf::A, p.tags_used[0]), (IoBuf::B, p.tags_used[1])] {
        let buf = m.buf(which);
        for (i, &w) in dev.peek(buf).iter().enumerate() {
            if is_valid(w) && u32::from(tag_of(w)) >= used {
                return Err((
                    m.other_region,
                    format!(
                        "activation word {which:?}[{i}] carries tag {} outside \
                         the assigned range 0..{used}",
                        tag_of(w)
                    ),
                ));
            }
        }
    }
    // Per-pass prefix frontiers. On one buffer tags are assigned in
    // execution order, so "written by this pass or deeper" is exactly
    // `tag >= pass.tag`.
    let mut frontiers = Vec::with_capacity(p.passes.len());
    for pass in &p.passes {
        let words = dev.peek(m.buf(pass.buf).slice(0, pass.len));
        let covered = |w: &Q15| is_valid(*w) && tag_of(*w) >= pass.tag;
        let f = words.iter().take_while(|w| covered(w)).count();
        if let Some(i) = words.iter().skip(f).position(covered) {
            return Err((
                pass_region(pass),
                format!(
                    "pass tag {} on {:?}: covered word at index {} beyond \
                     the frontier {f} — progress is not a prefix",
                    pass.tag,
                    pass.buf,
                    f + i,
                ),
            ));
        }
        frontiers.push(f as u32);
    }
    // Monotone progress across passes: after the first incomplete pass,
    // every later pass must be untouched.
    if let Some(first) = frontiers
        .iter()
        .zip(&p.passes)
        .position(|(&f, pass)| f < pass.len)
    {
        if let Some(j) = frontiers.iter().skip(first + 1).position(|&f| f > 0) {
            let j = first + 1 + j;
            return Err((
                pass_region(&p.passes[j]),
                format!(
                    "pass {j} (tag {} on {:?}) has frontier {} but pass \
                     {first} is incomplete ({}/{}) — progress is not monotone",
                    p.passes[j].tag,
                    p.passes[j].buf,
                    frontiers[j],
                    frontiers[first],
                    p.passes[first].len,
                ),
            ));
        }
    }
    Ok(StatefulAbs { frontiers })
}

/// Maps the concrete NVM control-word state of a deployed model to the
/// abstract per-layer state for `backend`'s state discipline.
///
/// # Errors
///
/// Returns the accounting region and a divergence description when any
/// concrete word is outside the abstract state space — a refinement
/// violation.
pub fn abs_model(
    dev: &Device,
    m: &DeployedModel,
    backend: &Backend,
) -> Result<Vec<LayerAbs>, (RegionId, String)> {
    abs_model_styled(dev, m, StateStyle::of(backend))
}

/// Abstraction function for the Alpaca two-phase-commit machine, from
/// the concrete commit-flag word and the (non-volatile) redo log.
///
/// # Errors
///
/// Returns a divergence description when flag, log, and runtime phase
/// disagree (e.g. a raised flag with a live log but no commit in
/// progress, under which recovery would misinterpret the log).
pub fn abs_commit(dev: &Device, rt: &AlpacaRt) -> Result<CommitAbs, String> {
    let flag = dev.peek_word(rt.commit_flag_word());
    if flag > 1 {
        return Err(format!("commit flag holds {flag}, not a boolean"));
    }
    if rt.is_committing() {
        if rt.log_len() == 0 {
            return Err("commit in progress with an empty redo log".to_string());
        }
        Ok(CommitAbs::Committing {
            pending: rt.log_len(),
        })
    } else {
        // Outside a commit the flag may stay raised only in the
        // stale-high window: the previous transition's flag-lower store
        // was swallowed by a brown-out after every home was written (see
        // `AlpacaRt::after_commit`). Any log entries accumulated since
        // belong to an uncommitted body that reboot discards.
        if flag == 1 && !rt.flag_lower_pending() {
            return Err(format!(
                "commit flag raised with {} live log entries but no commit in progress",
                rt.log_len()
            ));
        }
        if flag == 0 && rt.flag_lower_pending() {
            return Err("flag-lower recorded as swallowed but the flag is low".to_string());
        }
        Ok(CommitAbs::Idle)
    }
}

/// Public abstraction-check entry point: applies [`abs_model`] and wraps
/// any divergence as a reportable [`Violation`]. The deliberately-broken
/// state tests drive this directly.
///
/// # Errors
///
/// Returns the violation when the concrete state does not refine the
/// abstract machine.
pub fn check_model_state(
    dev: &Device,
    m: &DeployedModel,
    backend: &Backend,
) -> Result<Vec<LayerAbs>, Violation> {
    abs_model(dev, m, backend).map_err(|(region, divergence)| Violation {
        backend: backend.label(),
        region: region_name(dev, region),
        op_index: dev.ops_consumed(),
        phase: None,
        schedule: Vec::new(),
        divergence,
    })
}

fn region_name(dev: &Device, region: RegionId) -> String {
    dev.trace()
        .region_names()
        .get(region.index())
        .cloned()
        .unwrap_or_else(|| "other".to_string())
}

// ---------------------------------------------------------------------
// The differential fault-injection harness.
// ---------------------------------------------------------------------

/// A freshly deployed device on continuous power with `input` loaded:
/// the state every harness run starts from. The sweeps build it once
/// and clone it per schedule or flip — a clone is bit-identical to
/// a redeploy at a fraction of the host cost.
///
/// # Panics
///
/// Panics if the model does not fit in FRAM.
fn template(qm: &QModel, input: &[Q15], spec: &DeviceSpec) -> (Device, DeployedModel) {
    let mut dev = Device::new(spec.clone(), PowerSystem::continuous());
    let dm = deploy(&mut dev, qm).expect("model must fit in FRAM");
    dm.load_input(&mut dev, input);
    (dev, dm)
}

/// A run standing at a task boundary: the device and the session that
/// drives it. A clone continues exactly as the original would (see
/// [`Session`] and the module docs).
#[derive(Clone)]
struct Snapshot {
    dev: Device,
    session: Session,
}

impl Snapshot {
    /// A run of `backend` started on a clone of the template `tmpl`: the
    /// entry boundary.
    fn start(tmpl: &Device, dm: &DeployedModel, backend: &Backend) -> Snapshot {
        let mut dev = tmpl.clone();
        let session = Session::start(&mut dev, dm, backend);
        Snapshot { dev, session }
    }

    /// Charged ops since the run started.
    fn ran(&self) -> u64 {
        self.dev.ops_consumed() - self.session.start_ops()
    }

    /// Arms `plan`, whose targets are relative to the run start.
    fn arm(&mut self, plan: &FaultPlan) {
        self.dev.arm_faults(&plan.shifted(self.session.start_ops()));
    }

    /// Arms a first-access watch over `words` landing at `t`, relative to
    /// the run start ([`Device::arm_watch`]).
    fn watch(&mut self, t: u64, words: &[NvAddr]) {
        let at = self.session.start_ops() + t;
        self.dev.arm_watch(at, words.iter().copied());
    }

    /// Runs one task transition with no fault armed; `false` once the run
    /// has ended.
    fn step(&mut self) -> bool {
        self.session
            .step(&mut self.dev, &mut |_, _, _| {})
            .is_none()
    }
}

/// The fault-free reference run of a sweep.
struct Reference {
    /// The completed output.
    output: Vec<Q15>,
    /// Charged ops the inference took (the boundary space a sweep
    /// enumerates).
    ops: u64,
    /// The op count, relative to the run start, at each task boundary:
    /// the entry (`0`), then after every transition but the last.
    boundaries: Vec<u64>,
}

/// Runs the fault-free reference on continuous power: returns the
/// completed output and the number of charged ops the inference took
/// (the boundary space an exhaustive sweep enumerates).
///
/// # Panics
///
/// Panics if the model does not fit in FRAM or the fault-free run does
/// not complete (both mean the harness is misconfigured, not that the
/// spec is violated).
pub fn fault_free_reference(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    backend: &Backend,
) -> (Vec<Q15>, u64) {
    let (dev, dm) = template(qm, input, spec);
    let r = reference_on(&dev, &dm, backend);
    (r.output, r.ops)
}

/// [`fault_free_reference`] from the template `tmpl` holding the
/// deployment `dm` and its input, stepped one task transition at a time
/// to record the task boundaries.
fn reference_on(tmpl: &Device, dm: &DeployedModel, backend: &Backend) -> Reference {
    let mut run = Snapshot::start(tmpl, dm, backend);
    let mut boundaries = vec![0];
    let result = loop {
        match run.session.step(&mut run.dev, &mut |_, _, _| {}) {
            None => boundaries.push(run.ran()),
            Some(r) => break r,
        }
    };
    let ops = run.ran();
    let out = run.session.outcome(&mut run.dev, dm, result);
    assert!(
        out.completed,
        "fault-free reference must complete: {:?}",
        out.failure
    );
    Reference {
        output: out.output,
        ops,
        boundaries,
    }
}

/// Snapshots a batch holds at most before its jobs run: bounds a sweep's
/// memory to this many device images.
const BATCH_SNAPSHOTS: usize = 16;

/// Jobs a batch collects before they run, so the fan-out stays wide when
/// each snapshot serves few jobs.
const BATCH_JOBS: usize = 64;

/// Runs `f` once per `(target, item)`, each on its own clone of the
/// fault-free run forked at the last task boundary strictly before the
/// target (the entry boundary for targets at `0`), and returns the
/// results in item order.
///
/// The reference is stepped once more, as far as the last boundary any
/// target needs, and snapshots are taken in target order, only at the
/// boundaries some target needs; one snapshot serves every target that
/// shares it. Jobs fan out over [`par_map`] a batch at a time, so at most
/// [`BATCH_SNAPSHOTS`] snapshots are alive at once.
///
/// Why a forked run equals a run from the template with the same plan
/// armed: before the boundary `b`, the faulted run executes exactly what
/// the fault-free run does, because nothing armed at `t > b` can act
/// before `b`:
///
/// - a brown-out or torn write fires only when the op at index `t` is
///   attempted, and every op before `b` has an index below `b`;
/// - a memory fault fires at the first charge that starts at index
///   `t` or later, and every charge before `b` starts below `b` (the
///   strict `b < t` also covers a zero-length charge issued after the
///   last op of a transition);
/// - every funding decision ([`Device::fund_whole`], the bundled-loop
///   driver's funded runs, a taped body's settle) covers ops that end at
///   or before `b`, so a target at `t > b` is outside it and the
///   decision is the one the unarmed run takes.
///
/// At `b` the snapshot holds every piece of state the run carries — the
/// device (FRAM, guard shadows, trace epoch, power, op counter), the
/// scheduler's counters, the Alpaca runtime, and the task bodies with
/// their recorded sites — so arming the plan there and continuing is the
/// same computation: every report, trace and digest is bit-identical.
fn forked<T, U, F>(
    tmpl: &Device,
    dm: &DeployedModel,
    backend: &Backend,
    reference: &Reference,
    items: Vec<(u64, T)>,
    f: &F,
) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(Snapshot, T) -> U + Sync,
{
    let boundaries = &reference.boundaries;
    let fork_at = |t: u64| boundaries.partition_point(|&b| b < t).saturating_sub(1);
    let mut jobs: Vec<(usize, usize, T)> = items
        .into_iter()
        .enumerate()
        .map(|(i, (t, item))| (fork_at(t), i, item))
        .collect();
    // Stable: items that share a boundary keep their order.
    jobs.sort_by_key(|&(k, _, _)| k);
    let mut out: Vec<Option<U>> = (0..jobs.len()).map(|_| None).collect();
    let mut run = Snapshot::start(tmpl, dm, backend);
    let mut at = 0;
    let mut snaps: Vec<Snapshot> = Vec::new();
    let mut batch: Vec<(usize, usize, T)> = Vec::new();
    let mut jobs = jobs.into_iter().peekable();
    let mut group = None;
    while let Some((k, i, item)) = jobs.next() {
        if group != Some(k) {
            while at < k {
                assert!(run.step(), "the reference ended before boundary {k}");
                at += 1;
            }
            debug_assert_eq!(run.ran(), boundaries[k], "boundary {k} moved");
            snaps.push(run.clone());
            group = Some(k);
        }
        batch.push((snaps.len() - 1, i, item));
        let group_done = jobs.peek().is_none_or(|&(next, _, _)| next != k);
        if group_done && (snaps.len() >= BATCH_SNAPSHOTS || batch.len() >= BATCH_JOBS) {
            run_batch(&mut snaps, &mut batch, &mut out, f);
        }
    }
    run_batch(&mut snaps, &mut batch, &mut out, f);
    out.into_iter().map(|u| u.expect("every job ran")).collect()
}

/// Runs one batch of [`forked`]'s jobs over [`par_map`] and empties it.
fn run_batch<T, U, F>(
    snaps: &mut Vec<Snapshot>,
    batch: &mut Vec<(usize, usize, T)>,
    out: &mut [Option<U>],
    f: &F,
) where
    T: Send,
    U: Send,
    F: Fn(Snapshot, T) -> U + Sync,
{
    let from: &[Snapshot] = snaps;
    let done = par_map(std::mem::take(batch), &|(s, i, item)| {
        (i, f(from[s].clone(), item))
    });
    for (i, u) in done {
        out[i] = Some(u);
    }
    snaps.clear();
}

/// Where a tiled run on `dev` keeps its Alpaca commit flag: the next word
/// the runtime allocates after deploy (the FRAM layout is a
/// deterministic bump allocation).
fn commit_flag_addr(dev: &Device) -> NvAddr {
    NvAddr::word(dev.alloc_watermarks().0)
}

/// Checks one fault schedule differentially: runs the inference with
/// brown-outs forced at `targets` (inference-relative charged-op
/// indices), applies the abstraction function at every crash, and
/// requires recovery to completion with output bit-equal to `expected`.
pub fn check_schedule(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    backend: &Backend,
    targets: &[u64],
    expected: &[Q15],
) -> ScheduleOutcome {
    let (dev, dm) = template(qm, input, spec);
    check_schedule_on(
        Snapshot::start(&dev, &dm, backend),
        &dm,
        backend,
        targets,
        expected,
    )
}

/// [`check_schedule`] continuing the run `run` of the deployment `dm`
/// (its entry, or a task boundary before every target).
fn check_schedule_on(
    mut run: Snapshot,
    dm: &DeployedModel,
    backend: &Backend,
    targets: &[u64],
    expected: &[Q15],
) -> ScheduleOutcome {
    let style = StateStyle::of(backend);
    let label = backend.label();
    run.arm(&FaultPlan::at_each(targets.iter().copied()));

    let mut crashes = 0u64;
    let mut violations: Vec<Violation> = Vec::new();
    let schedule = targets.to_vec();

    let crash_violation = |dev: &Device, divergence: String, region: Option<RegionId>| {
        let b = dev.last_brownout();
        Violation {
            backend: label.clone(),
            region: region.map_or_else(
                || crate::exec::starved_region_name(dev),
                |r| region_name(dev, r),
            ),
            op_index: b.map_or_else(|| dev.ops_consumed(), |b| b.op_index),
            phase: b.map(|b| b.phase),
            schedule: schedule.clone(),
            divergence,
        }
    };

    let flag = run.session.alpaca().map(|rt| rt.commit_flag_word().addr());
    let Snapshot { mut dev, session } = run;
    let out = session.finish(&mut dev, dm, |dev, rt, ev| {
        crashes += 1;
        if let Err((region, d)) = abs_model_styled(dev, dm, style) {
            violations.push(crash_violation(dev, d, Some(region)));
        }
        let Some(rt) = rt else { return };
        match abs_commit(dev, rt) {
            Err(d) => violations.push(crash_violation(dev, d, None)),
            Ok(CommitAbs::Idle) if ev.mid_commit && rt.log_len() > 0 => {
                violations.push(crash_violation(
                    dev,
                    "mid-commit crash with a live log but the machine is Idle".to_string(),
                    None,
                ));
            }
            Ok(_) => {}
        }
    });
    // The commit flag must be lowered at rest; the one exception is a
    // fault swallowed on the final flag-lower write itself, which leaves
    // the device off with every home already written.
    if let Some(flag) = flag {
        let v = dev.peek_at(flag).raw() as u16;
        if v != 0 && dev.is_on() {
            violations.push(crash_violation(
                &dev,
                format!("commit flag still {v} after the run settled"),
                None,
            ));
        }
    }
    match out.failure {
        None => {
            // A run that settles with the supply dead absorbed a final
            // brown-out the scheduler never saw (the swallowed
            // flag-lower store at the last transition): count it, since
            // the injected fault did fire.
            if !dev.is_on() && dev.last_brownout().is_some() {
                crashes += 1;
            }
            if out.output != expected {
                let first = out
                    .output
                    .iter()
                    .zip(expected)
                    .position(|(a, b)| a != b)
                    .unwrap_or(usize::MAX);
                violations.push(crash_violation(
                    &dev,
                    format!(
                        "recovered output diverges from the fault-free run \
                         (first difference at logit {first})"
                    ),
                    None,
                ));
            }
        }
        Some(f) => violations.push(crash_violation(
            &dev,
            format!("did not recover to completion: {}", f.error),
            None,
        )),
    }
    if let Err((region, d)) = abs_model_styled(&dev, dm, style) {
        violations.push(crash_violation(
            &dev,
            format!("final state: {d}"),
            Some(region),
        ));
    }
    if dev.pending_faults() != 0 {
        violations.push(crash_violation(
            &dev,
            format!("{} armed fault(s) never fired", dev.pending_faults()),
            None,
        ));
    }
    ScheduleOutcome {
        crashes,
        violations,
    }
}

/// Exhaustive single-fault sweep: forces a brown-out at **every** charged
/// op boundary of the fault-free run in turn, checking refinement and
/// bit-equal recovery at each. This is the spec's main theorem, checked
/// by enumeration.
pub fn check_exhaustive(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    backend: &Backend,
) -> CrashSpecReport {
    check_strided(qm, input, spec, backend, 1, 0)
}

/// Strided single-fault sweep: like [`check_exhaustive`] but faulting
/// every `stride`-th boundary starting at `offset` — for larger models
/// where full enumeration is a bench-scale job, with `offset` varied
/// across runs so repeated sweeps cover different residues.
///
/// The model is deployed once, and every boundary's run forks from the
/// fault-free run at the last task boundary before it (see the
/// [module docs](self)): it skips re-simulating the fault-free prefix.
/// Boundaries fan out over [`par_map`], whose indexed collect keeps the
/// report identical to a serial loop over [`check_schedule`] at any
/// thread count.
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn check_strided(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    backend: &Backend,
    stride: u64,
    offset: u64,
) -> CrashSpecReport {
    assert!(stride > 0, "stride must be positive");
    let (tmpl, dm) = template(qm, input, spec);
    let reference = reference_on(&tmpl, &dm, backend);
    let targets: Vec<(u64, u64)> = std::iter::successors(Some(offset), |t| t.checked_add(stride))
        .take_while(|&t| t < reference.ops)
        .map(|t| (t, t))
        .collect();
    let outcomes = forked(&tmpl, &dm, backend, &reference, targets, &|run, t| {
        check_schedule_on(run, &dm, backend, &[t], &reference.output)
    });
    let mut report = CrashSpecReport {
        backend: backend.label(),
        boundaries: outcomes.len() as u64,
        crashes: 0,
        violations: Vec::new(),
    };
    for outcome in outcomes {
        report.crashes += outcome.crashes;
        report.violations.extend(outcome.violations);
    }
    report
}

// ---------------------------------------------------------------------
// The corruption-differential harness (NVM data faults, not brown-outs).
// ---------------------------------------------------------------------

/// End-to-end effect of one injected NVM bit flip, classified
/// differentially against the fault-free run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorruptionOutcome {
    /// Completed with bit-identical output and the guards never fired:
    /// the flip landed on a word whose value was dead or overwritten
    /// before its next use.
    Masked,
    /// The guards detected the corruption and the run still completed
    /// with bit-identical output (scrubbed from the ECC shadow).
    Recovered {
        /// Guard detections noted during the run.
        detections: u64,
    },
    /// Detected but unrecoverable: the run aborted with a `Corrupted`
    /// verdict instead of emitting a wrong answer.
    Aborted {
        /// Region (layer/task) where recovery was abandoned.
        region: String,
    },
    /// The run did not complete and the guards never saw the flip
    /// (e.g. a wedged loop caught by the scheduler's progress bound).
    Wedged,
    /// Completed with a **wrong** output and no abort: silent data
    /// corruption. The corruption theorem forbids this for every
    /// guarded control/commit word.
    SilentWrong,
    /// The armed flip never fired: the run ended before its op index.
    Unfired,
}

/// One classified flip, for forensic reporting.
#[derive(Clone, Debug)]
pub struct CorruptionCase {
    /// Stable name of the word the flip targeted (`layer0.idx`, ...).
    pub word: String,
    /// Bit position flipped.
    pub bit: u8,
    /// Inference-relative charged-op index the flip was armed at.
    pub op_index: u64,
    /// What happened.
    pub outcome: CorruptionOutcome,
}

/// The result of a bit-flip sweep over one backend's control/commit
/// words.
#[derive(Clone, Debug)]
pub struct CorruptionReport {
    /// Backend label.
    pub backend: String,
    /// Total flips injected.
    pub flips: u64,
    /// Flips with no observable effect.
    pub masked: u64,
    /// Flips detected and scrubbed, output unaffected.
    pub recovered: u64,
    /// Flips that aborted the run with a `Corrupted` verdict.
    pub aborted: u64,
    /// Flips that wedged the run without detection.
    pub wedged: u64,
    /// Armed flips that never fired.
    pub unfired: u64,
    /// Silent-wrong-output cases — must be empty for guarded words.
    pub silent_wrong: Vec<CorruptionCase>,
    /// Flips classified from a watch pass instead of a run of their own:
    /// their word was overwritten or never accessed after the flip point,
    /// or the point was never reached (see [`check_corruption`]). Counted
    /// within the outcome counts above.
    pub decided: u64,
}

impl CorruptionReport {
    /// An empty report for `backend`.
    fn new(backend: &Backend) -> CorruptionReport {
        CorruptionReport {
            backend: backend.label(),
            flips: 0,
            masked: 0,
            recovered: 0,
            aborted: 0,
            wedged: 0,
            unfired: 0,
            silent_wrong: Vec::new(),
            decided: 0,
        }
    }

    fn record(&mut self, word: &str, bit: u8, t: u64, outcome: CorruptionOutcome) {
        self.flips += 1;
        match outcome {
            CorruptionOutcome::Masked => self.masked += 1,
            CorruptionOutcome::Recovered { .. } => self.recovered += 1,
            CorruptionOutcome::Aborted { .. } => self.aborted += 1,
            CorruptionOutcome::Wedged => self.wedged += 1,
            CorruptionOutcome::Unfired => self.unfired += 1,
            CorruptionOutcome::SilentWrong => {
                self.silent_wrong.push(CorruptionCase {
                    word: word.to_string(),
                    bit,
                    op_index: t,
                    outcome,
                });
            }
        }
    }

    /// Panics, listing every case, if any flip produced a silent wrong
    /// output.
    pub fn assert_no_silent_wrong(&self) {
        assert!(
            self.silent_wrong.is_empty(),
            "{} silent-wrong-output case(s) for {} across {} flips:\n{}",
            self.silent_wrong.len(),
            self.backend,
            self.flips,
            self.silent_wrong
                .iter()
                .map(|c| format!("  - {}.bit{} @ op#{}", c.word, c.bit, c.op_index))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Every guarded control word of a deployment, with stable names for
/// reporting: the TAILS calibration pair plus each layer's loop/stage
/// words. The Alpaca commit flag (allocated by the runtime, not the
/// deployment) is appended by [`check_corruption`] for tiled backends.
pub fn control_words(m: &DeployedModel) -> Vec<(String, FramWord)> {
    let mut ws = vec![
        ("calib".to_string(), m.calib),
        ("calib_cand".to_string(), m.calib_cand),
    ];
    for (i, l) in m.layers.iter().enumerate() {
        for (n, w) in [
            ("idx", l.idx),
            ("pos", l.pos),
            ("filt", l.filt),
            ("undo_val", l.undo_val),
            ("undo_tag", l.undo_tag),
        ] {
            ws.push((format!("layer{i}.{n}"), w));
        }
    }
    ws
}

/// An **unguarded** activation word (the first word of the first
/// layer's source buffer): the sweep's teeth control. Flipping it
/// mid-run must classify as [`CorruptionOutcome::SilentWrong`], proving
/// the differential classifier can actually see silent corruption.
pub fn unguarded_activation_addr(m: &DeployedModel) -> NvAddr {
    m.buf(m.layers[0].src).addr(0)
}

/// Classifies an arbitrary schedule of injected faults
/// (inference-relative charged-op indices): runs the inference on
/// continuous power with the whole plan armed, and compares the outcome
/// against the fault-free output `expected`. Brown-outs in the plan cut
/// power at their boundary; memory faults land without a reboot.
pub fn classify_faults(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    backend: &Backend,
    faults: &[(u64, FaultKind)],
    expected: &[Q15],
) -> CorruptionOutcome {
    let (dev, dm) = template(qm, input, spec);
    classify_faults_on(Snapshot::start(&dev, &dm, backend), &dm, faults, expected)
}

/// [`classify_faults`] continuing the run `run` of the deployment `dm`
/// (its entry, or a task boundary before every fault).
fn classify_faults_on(
    mut run: Snapshot,
    dm: &DeployedModel,
    faults: &[(u64, FaultKind)],
    expected: &[Q15],
) -> CorruptionOutcome {
    run.arm(&FaultPlan::faults(faults.iter().copied()));
    let Snapshot { mut dev, session } = run;
    let out = session.finish(&mut dev, dm, |_, _, _| {});
    classify_end(&dev, &out, expected)
}

/// Classifies the ended run `out` on `dev` against the fault-free output
/// `expected`.
fn classify_end(dev: &Device, out: &InferenceOutcome, expected: &[Q15]) -> CorruptionOutcome {
    if dev.pending_faults() != 0 {
        return CorruptionOutcome::Unfired;
    }
    if out.completed {
        if out.output == expected {
            if out.corruption_detected > 0 {
                CorruptionOutcome::Recovered {
                    detections: out.corruption_detected,
                }
            } else {
                CorruptionOutcome::Masked
            }
        } else {
            CorruptionOutcome::SilentWrong
        }
    } else if let Some(region) = out.failure.as_ref().and_then(|f| f.corrupted_region()) {
        CorruptionOutcome::Aborted {
            region: region.to_string(),
        }
    } else {
        CorruptionOutcome::Wedged
    }
}

/// Classifies one injected bit flip: [`classify_faults`] with a
/// single-entry plan of [`FaultKind::BitFlip`] armed at
/// inference-relative charged-op index `t`.
#[allow(clippy::too_many_arguments)]
pub fn classify_flip(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    backend: &Backend,
    addr: NvAddr,
    bit: u8,
    t: u64,
    expected: &[Q15],
) -> CorruptionOutcome {
    classify_faults(
        qm,
        input,
        spec,
        backend,
        &[(t, FaultKind::BitFlip { addr, bit })],
        expected,
    )
}

/// Single-bit-flip sweep over every control/commit word of the model
/// under `backend`: all 16 bits of each word, each armed at `points`
/// midpoint charged-op boundaries spread evenly across the fault-free
/// run. Words and bits are exhaustive; the op boundaries are a sample of
/// `points` out of the whole run. The corruption theorem — no
/// guarded-word flip may produce a silent wrong output — is
/// [`CorruptionReport::assert_no_silent_wrong`].
///
/// Only the flips whose word is read before it is rewritten run: one
/// watch pass per point decides the rest ([`CorruptionReport::decided`];
/// the argument is at `flip_sweep` in the source).
///
/// # Panics
///
/// Panics if `points` is zero or the model does not fit in FRAM.
pub fn check_corruption(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    backend: &Backend,
    points: u64,
) -> CorruptionReport {
    assert!(points > 0, "points must be positive");
    let (tmpl, dm) = template(qm, input, spec);
    let mut words: Vec<(String, NvAddr)> = control_words(&dm)
        .into_iter()
        .map(|(name, w)| (name, w.addr()))
        .collect();
    if matches!(backend, Backend::Tiled(_)) {
        words.push(("commit_flag".to_string(), commit_flag_addr(&tmpl)));
    }
    flip_sweep(&tmpl, &dm, backend, &words, 1, points)
}

/// What one watch pass saw at a flip point: the outcome of the watched
/// run, and each swept word's first access after the landing.
struct Watched {
    outcome: CorruptionOutcome,
    first: Vec<FirstAccess>,
}

/// Runs `run` to its end with a first-access watch over `words` landing
/// at `t` (relative to the run start), and classifies the watched run
/// against the fault-free output `expected` as [`classify_faults_on`]
/// classifies a flipped one.
fn watch_pass(
    mut run: Snapshot,
    dm: &DeployedModel,
    t: u64,
    words: &[NvAddr],
    expected: &[Q15],
) -> Watched {
    run.watch(t, words);
    let Snapshot { mut dev, session } = run;
    let out = session.finish(&mut dev, dm, |_, _, _| {});
    Watched {
        outcome: classify_end(&dev, &out, expected),
        first: words
            .iter()
            .map(|&a| dev.first_access(a).expect("a watched word"))
            .collect(),
    }
}

/// The shared bit-flip sweep behind [`check_corruption`] and
/// [`check_stateful_corruption`]: every `word_stride`-th word × all 16
/// bits × `points` midpoint boundaries of the fault-free run, reported
/// in that order, so the report equals a serial loop over
/// [`classify_flip`].
///
/// One watch pass per distinct point (forked like every run here, see
/// [`forked`]) records each swept word's first access after the point
/// ([`Device::arm_watch`]). A flip whose word is read first is classified
/// on a fork of its own; every other flip at the point shares the
/// watched run's outcome, and [`CorruptionReport::decided`] counts them.
/// Flips and watch passes fan out over [`par_map`].
///
/// Why a flip of word `w` at `t` that the watch saw written first, or
/// not at all, ends exactly as the watched run does (a def-use argument
/// over the two runs forked from the same snapshot):
///
/// - *Before the landing they are one computation.* Both arm one memory
///   fault at `t` — the flip, and the watch's flip of no bit — so every
///   funding decision and armed-target split is the same, and nothing
///   else differs. Both land at the same op, counting one memory fault
///   and leaving the guards' pristine state.
/// - *After it they differ only in `w`,* whose guard shadow is the same
///   in both (injected faults bypass it), and they take the same steps
///   for as long as nothing reads `w`: every way a value of `w` can
///   reach the computation — a metered, pre-charged, funded or taped
///   read, a DMA from FRAM, an ECC verify of a guarded `w`, a torn store
///   (which keeps half of the old word), a peek by a shape predictor or
///   by the outcome's output read — is one the watch records as a read.
/// - *A whole-word write of `w` before any read makes the states equal,*
///   so the runs end alike; if `w` is never accessed again they end
///   alike too, differing in a word nothing reads.
/// - *Order is host order.* A taped body runs host-side before its
///   settle charges its ops, so a flip landing in the settle comes after
///   the body's reads in both runs ([`Device::run_tape`]), and the watch
///   sees only what follows.
///
/// If the watch never lands, the run ended before `t` and every flip at
/// the point is [`CorruptionOutcome::Unfired`], as its own run would be.
///
/// Each prediction is also checked against its slow twin at run time:
/// debug builds run every decided flip in full, release builds the first
/// one of each point, and a mismatch panics.
fn flip_sweep(
    tmpl: &Device,
    dm: &DeployedModel,
    backend: &Backend,
    words: &[(String, NvAddr)],
    word_stride: usize,
    points: u64,
) -> CorruptionReport {
    let reference = reference_on(tmpl, dm, backend);
    let ops = reference.ops;
    let swept: Vec<&(String, NvAddr)> = words.iter().step_by(word_stride).collect();
    let addrs: Vec<NvAddr> = swept.iter().map(|&(_, a)| *a).collect();
    // Midpoint sampling: never exactly 0 or `ops`, spread across the run.
    let at: Vec<u64> = (0..points)
        .map(|k| ops * (2 * k + 1) / (2 * points))
        .collect();
    let mut distinct = at.clone();
    distinct.dedup();
    let passes = forked(
        tmpl,
        dm,
        backend,
        &reference,
        distinct.iter().map(|&t| (t, t)).collect(),
        &|run, t| watch_pass(run, dm, t, &addrs, &reference.output),
    );
    // Every flip in report order with the watch's prediction, and the
    // runs the sweep still makes: the read-first flips, plus the decided
    // ones whose prediction is checked.
    let mut flips = Vec::new();
    let mut runs = Vec::new();
    let mut checked = vec![false; distinct.len()];
    for (w, &(name, addr)) in swept.iter().enumerate() {
        for bit in 0..16u8 {
            for &t in &at {
                let p = distinct.partition_point(|&d| d < t);
                let watched = &passes[p];
                let predicted =
                    (watched.first[w] != FirstAccess::Read).then(|| watched.outcome.clone());
                let check = predicted.is_some() && (cfg!(debug_assertions) || !checked[p]);
                checked[p] |= check;
                if predicted.is_none() || check {
                    runs.push((t, (flips.len(), *addr, bit, t)));
                }
                flips.push((name.as_str(), bit, t, predicted));
            }
        }
    }
    let classify = |run, (i, addr, bit, t)| {
        let flip = [(t, FaultKind::BitFlip { addr, bit })];
        (i, classify_faults_on(run, dm, &flip, &reference.output))
    };
    // Results come back in item order, so in flip order.
    let mut ran = forked(tmpl, dm, backend, &reference, runs, &classify)
        .into_iter()
        .peekable();
    let mut report = CorruptionReport::new(backend);
    for (i, (name, bit, t, predicted)) in flips.into_iter().enumerate() {
        let outcome = match (ran.next_if(|&(j, _)| j == i), predicted) {
            (Some((_, outcome)), Some(predicted)) => {
                assert_eq!(
                    outcome, predicted,
                    "the first-access watch mispredicted {name}.bit{bit} @ op#{t} under {backend}"
                );
                report.decided += 1;
                outcome
            }
            (Some((_, outcome)), None) => outcome,
            (None, predicted) => {
                report.decided += 1;
                predicted.expect("an undecided flip ran")
            }
        };
        report.record(name, bit, t, outcome);
    }
    report
}

/// Every embedded-activation word of a stateful deployment — the union
/// of the write-pass regions per buffer — with stable names for
/// reporting. These are the words that carry in-band progress tags; the
/// stateful backend has no control words to guard.
pub fn stateful_tag_words(m: &DeployedModel) -> Vec<(String, NvAddr)> {
    let p = crate::stateful::plan(m);
    let mut out = Vec::new();
    for (which, label) in [(IoBuf::A, "A"), (IoBuf::B, "B")] {
        let len = p
            .passes
            .iter()
            .filter(|ps| ps.buf == which)
            .map(|ps| ps.len)
            .max()
            .unwrap_or(0);
        let buf = m.buf(which);
        for i in 0..len {
            out.push((format!("{label}[{i}]"), buf.addr(i)));
        }
    }
    out
}

/// Single-bit-flip sweep over the stateful backend's embedded progress
/// tags: every `word_stride`-th tagged activation word × all 16 bits ×
/// `points` midpoint boundaries. The stateful corruption theorem — the
/// tag/parity guard plus the final audit turn every single flip into
/// Masked, Recovered, or Aborted, never a silent wrong output — is
/// [`CorruptionReport::assert_no_silent_wrong`]. (The documented
/// boundary is *multi*-bit faults: a double flip confined to value bits
/// preserves parity — the corruption bench's stateful teeth control.)
///
/// # Panics
///
/// Panics if `points` or `word_stride` is zero, or the model does not
/// fit in FRAM.
pub fn check_stateful_corruption(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    points: u64,
    word_stride: usize,
) -> CorruptionReport {
    assert!(points > 0, "points must be positive");
    assert!(word_stride > 0, "word_stride must be positive");
    let (tmpl, dm) = template(qm, input, spec);
    let words = stateful_tag_words(&dm);
    flip_sweep(&tmpl, &dm, &Backend::Stateful, &words, word_stride, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests_support::tiny_pruned_qmodel;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::quantize;
    use dnn::tensor::Tensor;
    use rand::SeedableRng;

    fn msp() -> DeviceSpec {
        DeviceSpec::msp430fr5994()
    }

    /// The smallest model every backend (incl. the restart-from-scratch
    /// baseline) runs safely: one dense layer plus ReLU, so the input
    /// buffer is never clobbered by the ping-pong.
    fn dense_relu_qmodel() -> (QModel, Vec<Q15>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
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

    #[test]
    fn freshly_deployed_state_refines_every_machine() {
        let (qm, input) = tiny_pruned_qmodel();
        for backend in [
            Backend::Baseline,
            Backend::Sonic,
            Backend::SonicNoUndo,
            Backend::Tiled(8),
            Backend::Tails(crate::exec::TailsConfig::default()),
            Backend::Stateful,
        ] {
            let mut dev = Device::new(msp(), PowerSystem::continuous());
            let dm = deploy(&mut dev, &qm).unwrap();
            dm.load_input(&mut dev, &input);
            if backend == Backend::Stateful {
                // The stateful abstraction is defined over embedded
                // buffers, which is exactly the backend's pre-run state.
                crate::stateful::prepare_run(&mut dev, &dm);
            }
            let abs = check_model_state(&dev, &dm, &backend)
                .unwrap_or_else(|v| panic!("fresh deploy must refine: {v}"));
            assert_eq!(abs.len(), dm.layers.len());
        }
    }

    #[test]
    fn broken_stateful_invariants_are_detected() {
        use crate::stateful::embed;
        let (qm, input) = dense_relu_qmodel();
        let mut dev = Device::new(msp(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).unwrap();
        dm.load_input(&mut dev, &input);
        crate::stateful::prepare_run(&mut dev, &dm);
        let b = dm.buf(dm.output);
        let clear = Q15::from_raw(crate::stateful::CLEAR_WORD as i16);

        // A valid word with an out-of-range tag: forged progress from
        // the clear pattern's flip-neighbourhood.
        dev.flash(b.slice(0, 1), &[embed(Q15::from_f32(0.1), 9)]);
        let v = check_model_state(&dev, &dm, &Backend::Stateful)
            .expect_err("out-of-range tag must violate");
        assert!(v.divergence.contains("outside the assigned range"), "{v}");
        dev.flash(b.slice(0, 1), &[clear]);

        // A tagged word beyond the frontier: covered progress that is
        // not a prefix (word 3 written, words 0..3 still cleared).
        dev.flash(b.slice(3, 1), &[embed(Q15::from_f32(0.1), 0)]);
        let v = check_model_state(&dev, &dm, &Backend::Stateful)
            .expect_err("island beyond the frontier must violate");
        assert!(v.divergence.contains("not a prefix"), "{v}");
        dev.flash(b.slice(3, 1), &[clear]);

        // Progress on a deeper pass while a shallower one is incomplete:
        // truncate the embedded input to a clean 5-word prefix, then
        // give the dense pass a frontier of 1.
        let a = dm.buf(dm.input);
        dev.flash(a.slice(5, 5), &[clear; 5]);
        dev.flash(b.slice(0, 1), &[embed(Q15::from_f32(0.1), 0)]);
        let v = check_model_state(&dev, &dm, &Backend::Stateful)
            .expect_err("non-monotone pass progress must violate");
        assert!(v.divergence.contains("not monotone"), "{v}");

        // The stateful backend must never touch a control word.
        crate::stateful::prepare_run(&mut dev, &dm);
        dev.store_word(dm.layers[0].pos, 1).unwrap();
        let v = check_model_state(&dev, &dm, &Backend::Stateful)
            .expect_err("control-word poke must violate");
        assert!(v.divergence.contains("reset value"), "{v}");
    }

    #[test]
    fn broken_invariants_are_detected() {
        let (qm, input) = tiny_pruned_qmodel();
        let mut dev = Device::new(msp(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).unwrap();
        dm.load_input(&mut dev, &input);

        // Sparse stage word beyond every stage range (layer 0 is the
        // pruned 40->64 FC: out=64, nnz far below the poke).
        let l0 = &dm.layers[0];
        dev.store_word(l0.idx, u16::MAX - 1).unwrap();
        let v = check_model_state(&dev, &dm, &Backend::Sonic)
            .expect_err("sparse state poke must violate");
        assert!(v.divergence.contains("outside every stage range"), "{v}");
        assert_eq!(v.region, "fc");
        dev.store_word(l0.idx, 0).unwrap();

        // An undo tag that names a non-existent entry.
        dev.store_word(l0.undo_tag, u16::MAX - 7).unwrap();
        let v =
            check_model_state(&dev, &dm, &Backend::Sonic).expect_err("undo tag poke must violate");
        assert!(v.divergence.contains("undo_tag"), "{v}");
        dev.store_word(l0.undo_tag, UNDO_EMPTY).unwrap();

        // Tiled stage word outside {ZERO, ACCUM, FINISH, UNDO_EMPTY}.
        dev.store_word(l0.undo_tag, 3).unwrap();
        let v =
            check_model_state(&dev, &dm, &Backend::Tiled(8)).expect_err("stage poke must violate");
        assert!(v.divergence.contains("stage word"), "{v}");
        dev.store_word(l0.undo_tag, UNDO_EMPTY).unwrap();

        // The baseline must never touch a control word at all.
        dev.store_word(l0.pos, 1).unwrap();
        let v = check_model_state(&dev, &dm, &Backend::Baseline)
            .expect_err("baseline poke must violate");
        assert!(v.divergence.contains("reset value"), "{v}");
        dev.store_word(l0.pos, 0).unwrap();

        // Calibration words written under a non-TAILS backend.
        dev.store_word(dm.calib, 64).unwrap();
        let v = check_model_state(&dev, &dm, &Backend::Sonic).expect_err("calib poke must violate");
        assert!(v.divergence.contains("non-TAILS"), "{v}");
        // ... and an out-of-range tile under TAILS itself.
        dev.store_word(dm.calib_cand, CALIB_INITIAL + 1).unwrap();
        let v = check_model_state(&dev, &dm, &Backend::Tails(Default::default()))
            .expect_err("calib range poke must violate");
        assert!(v.divergence.contains("calib_cand"), "{v}");
    }

    #[test]
    fn single_fault_schedules_pass_on_a_sparse_model() {
        // Smoke-level differential checks on the pruned-FC model (the
        // exhaustive sweeps are the `crash_spec` integration suite);
        // boundaries probe the undo-logged accumulation specifically.
        let (qm, input) = tiny_pruned_qmodel();
        let b = Backend::Sonic;
        let (expected, ops) = fault_free_reference(&qm, &input, &msp(), &b);
        assert!(ops > 1000, "the sweep space must be non-trivial: {ops}");
        for t in [0, 1, ops / 3, ops / 2, ops - 2, ops - 1] {
            let out = check_schedule(&qm, &input, &msp(), &b, &[t], &expected);
            assert_eq!(out.crashes, 1, "boundary {t} must crash exactly once");
            assert!(
                out.violations.is_empty(),
                "boundary {t}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn stateful_single_fault_schedules_recover_bit_equal() {
        // The seek-on-reboot recovery at unit scale (the exhaustive
        // sweep is the `crash_spec` integration suite): brown-outs at
        // the ends and middle of the run, refinement checked at every
        // crash, recovery bit-equal.
        let (qm, input) = dense_relu_qmodel();
        let b = Backend::Stateful;
        let (expected, ops) = fault_free_reference(&qm, &input, &msp(), &b);
        assert!(ops > 500, "the sweep space must be non-trivial: {ops}");
        for t in [0, 1, ops / 3, ops / 2, ops - 2, ops - 1] {
            let out = check_schedule(&qm, &input, &msp(), &b, &[t], &expected);
            assert_eq!(out.crashes, 1, "boundary {t} must crash exactly once");
            assert!(
                out.violations.is_empty(),
                "boundary {t}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn multi_fault_schedule_recovers_through_repeated_crashes() {
        let (qm, input) = dense_relu_qmodel();
        for b in [Backend::Sonic, Backend::Tiled(4), Backend::Stateful] {
            let (expected, ops) = fault_free_reference(&qm, &input, &msp(), &b);
            let targets = [ops / 5, ops / 2, ops / 2 + 1, ops - 1];
            let out = check_schedule(&qm, &input, &msp(), &b, &targets, &expected);
            assert_eq!(out.crashes, targets.len() as u64, "{b}");
            assert!(out.violations.is_empty(), "{b}: {:?}", out.violations);
        }
    }

    #[test]
    fn control_word_flips_never_silently_corrupt_output() {
        // The corruption theorem on the dense+ReLU model: every bit of
        // every control/commit word, flipped at boundaries across the
        // run, is masked, recovered, or aborted — never a silent wrong
        // output — for all three guarded backends.
        let (qm, input) = dense_relu_qmodel();
        for b in [
            Backend::Sonic,
            Backend::Tails(crate::exec::TailsConfig::default()),
            Backend::Tiled(4),
        ] {
            let r = check_corruption(&qm, &input, &msp(), &b, 3);
            r.assert_no_silent_wrong();
            assert!(r.flips >= 16 * 12 * 3, "{}: {} flips", r.backend, r.flips);
            assert!(
                r.masked + r.recovered + r.aborted > 0,
                "{}: sweep must classify something",
                r.backend
            );
        }
    }

    #[test]
    fn sparse_stage_and_undo_flips_never_silently_corrupt_output() {
        // Same theorem on the pruned-FC model, whose packed sparse
        // stage word and undo slot are the paper's trickiest control
        // state.
        let (qm, input) = tiny_pruned_qmodel();
        let r = check_corruption(&qm, &input, &msp(), &Backend::Sonic, 2);
        r.assert_no_silent_wrong();
    }

    #[test]
    fn stateful_tag_flips_never_silently_corrupt_output() {
        // The stateful corruption theorem on the dense+ReLU model:
        // every bit of every embedded activation word, flipped at
        // boundaries across the run, is masked, recovered (the audit
        // recompute), or aborted — never a silent wrong output. This is
        // the sweep the in-band tag/parity guard exists for: progress
        // lives in data words no control-word guard covers.
        let (qm, input) = dense_relu_qmodel();
        let r = check_stateful_corruption(&qm, &input, &msp(), 3, 1);
        r.assert_no_silent_wrong();
        // 10 input + 8 output words, 16 bits, 3 boundaries.
        assert_eq!(r.flips, 18 * 16 * 3, "{}: {} flips", r.backend, r.flips);
        assert!(
            r.aborted + r.recovered > 0,
            "{}: the guard never fired across {} flips",
            r.backend,
            r.flips
        );
    }

    #[test]
    fn stateful_double_flip_in_value_bits_is_silent_wrong() {
        // Teeth control and documented boundary: the parity bit detects
        // every single flip, so the sweep above is non-vacuous only if a
        // parity-preserving *double* flip (two value bits of the same
        // embedded input word) slips through as silent wrong output.
        let (qm, input) = dense_relu_qmodel();
        let b = Backend::Stateful;
        let (expected, _) = fault_free_reference(&qm, &input, &msp(), &b);
        let mut probe = Device::new(msp(), PowerSystem::continuous());
        let pm = deploy(&mut probe, &qm).unwrap();
        let addr = pm.buf(pm.input).addr(0);
        let out = classify_faults(
            &qm,
            &input,
            &msp(),
            &b,
            &[
                (0, FaultKind::BitFlip { addr, bit: 15 }),
                (0, FaultKind::BitFlip { addr, bit: 14 }),
            ],
            &expected,
        );
        assert_eq!(out, CorruptionOutcome::SilentWrong);
    }

    #[test]
    fn unguarded_activation_flip_is_silent_wrong() {
        // Teeth control: a high bit of an unguarded activation word,
        // flipped before the first layer consumes it, must surface as
        // silent wrong output — proving the classifier can see SDC and
        // the sweeps above are not vacuously green.
        let (qm, input) = dense_relu_qmodel();
        let b = Backend::Sonic;
        let (expected, _) = fault_free_reference(&qm, &input, &msp(), &b);
        let mut probe = Device::new(msp(), PowerSystem::continuous());
        let pm = deploy(&mut probe, &qm).unwrap();
        let addr = unguarded_activation_addr(&pm);
        let out = classify_flip(&qm, &input, &msp(), &b, addr, 14, 0, &expected);
        assert_eq!(out, CorruptionOutcome::SilentWrong);
    }

    #[test]
    fn a_read_first_flip_is_never_pruned() {
        // Teeth control for the watch: the unguarded activation word is
        // read again after the early flip points under the Baseline's
        // output-major dense loop and Tile-8's tiles, so the sweep must
        // run those flips and surface their silent wrong outputs rather
        // than decide them; after its last read its flips are decided.
        let (qm, input) = dense_relu_qmodel();
        let (tmpl, dm) = template(&qm, &input, &msp());
        let words = [("input[0]".to_string(), unguarded_activation_addr(&dm))];
        for b in [Backend::Baseline, Backend::Tiled(8)] {
            let r = flip_sweep(&tmpl, &dm, &b, &words, 1, 8);
            assert!(!r.silent_wrong.is_empty(), "{r:?}");
            assert!(0 < r.decided && r.decided < r.flips, "{r:?}");
        }
    }

    #[test]
    fn a_wrong_reference_output_is_reported_as_divergence() {
        // Differential detection: hand the harness a corrupted expected
        // output and the (correct) recovery must be flagged, proving the
        // bit-equality check has teeth.
        let (qm, input) = dense_relu_qmodel();
        let b = Backend::Sonic;
        let (mut expected, ops) = fault_free_reference(&qm, &input, &msp(), &b);
        expected[0] += Q15::from_f32(0.25);
        let out = check_schedule(&qm, &input, &msp(), &b, &[ops / 2], &expected);
        assert!(
            out.violations
                .iter()
                .any(|v| v.divergence.contains("diverges from the fault-free run")),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn a_cloned_template_runs_exactly_like_a_fresh_deploy() {
        // The sweeps' premise: a clone of the deployed template is
        // the same device a redeploy would produce — including TAILS's
        // calibration words (written by the first run) and the stateful
        // backend's `prepare_run` embedding — with and without a
        // brown-out mid-run.
        let (qm, input) = tiny_pruned_qmodel();
        let (tmpl, dm) = template(&qm, &input, &msp());
        for b in [
            Backend::Baseline,
            Backend::Sonic,
            Backend::SonicNoUndo,
            Backend::Tiled(4),
            Backend::Tails(crate::exec::TailsConfig::default()),
            Backend::Stateful,
        ] {
            let (_, ops) = fault_free_reference(&qm, &input, &msp(), &b);
            for fault in [None, Some(ops / 2)] {
                let run = |mut dev: Device, dm: &DeployedModel| {
                    if let Some(t) = fault {
                        let base = dev.ops_consumed();
                        dev.arm_faults(&FaultPlan::at_each([base + t]));
                    }
                    let out = crate::exec::run_deployed(&mut dev, dm, &b);
                    (dev, out)
                };
                let mut fresh = Device::new(msp(), PowerSystem::continuous());
                let fresh_dm = deploy(&mut fresh, &qm).unwrap();
                fresh_dm.load_input(&mut fresh, &input);
                let (fresh, want) = run(fresh, &fresh_dm);
                let (cloned, got) = run(tmpl.clone(), &dm);
                assert_eq!(
                    cloned.fram_image(),
                    fresh.fram_image(),
                    "{b} {fault:?}: FRAM"
                );
                assert_eq!(cloned.epoch_report(), fresh.epoch_report(), "{b} {fault:?}");
                assert_eq!(got.completed, want.completed, "{b} {fault:?}");
                assert_eq!(got.output, want.output, "{b} {fault:?}: output");
            }
        }
    }

    fn assert_same_corruption(fanned: &CorruptionReport, serial: &CorruptionReport) {
        let counts = |r: &CorruptionReport| {
            let cases: Vec<_> = r
                .silent_wrong
                .iter()
                .map(|c| (c.word.clone(), c.bit, c.op_index, c.outcome.clone()))
                .collect();
            let n = [
                r.flips,
                r.masked,
                r.recovered,
                r.aborted,
                r.wedged,
                r.unfired,
            ];
            (r.backend.clone(), n, cases)
        };
        assert_eq!(counts(fanned), counts(serial));
    }

    /// [`check_corruption`]'s enumeration, rebuilt as a serial loop over
    /// the public fresh-deploy [`classify_flip`].
    fn serial_flips(
        qm: &QModel,
        input: &[Q15],
        b: &Backend,
        words: &[(String, NvAddr)],
        points: u64,
    ) -> CorruptionReport {
        let (expected, ops) = fault_free_reference(qm, input, &msp(), b);
        let mut r = CorruptionReport::new(b);
        for (name, addr) in words {
            for bit in 0..16u8 {
                for k in 0..points {
                    let t = ops * (2 * k + 1) / (2 * points);
                    let o = classify_flip(qm, input, &msp(), b, *addr, bit, t, &expected);
                    r.record(name, bit, t, o);
                }
            }
        }
        r
    }

    /// The backends whose graphs have task boundaries past the entry, so
    /// the sweeps fork their runs mid-inference.
    fn multi_task() -> [Backend; 5] {
        [
            Backend::Sonic,
            Backend::SonicNoUndo,
            Backend::Tails(crate::exec::TailsConfig::default()),
            Backend::Tiled(4),
            Backend::Tiled(8),
        ]
    }

    #[test]
    fn fanned_out_sweeps_equal_serial_fresh_deploy_loops() {
        // The forked, fanned-out sweeps against serial loops over the
        // public single-run entry points, each a fresh deploy run from
        // the start: reports must be identical.
        let named = |ws: Vec<(String, FramWord)>| -> Vec<(String, NvAddr)> {
            ws.into_iter().map(|(n, w)| (n, w.addr())).collect()
        };

        // Control-word flips, which the watch prunes, at three and five
        // op indices on both models (the pruned one holds SONIC's packed
        // sparse stage and undo words): every multi-task backend, the
        // tiled ones with the commit flag appended after the deployment,
        // and the Baseline, which never reads its control words, so the
        // watch decides every flip. The cases run side by side; each
        // serial loop stays one fresh deploy per flip, in order.
        let models = [dense_relu_qmodel(), tiny_pruned_qmodel()];
        let mut cases = Vec::new();
        for m in 0..models.len() {
            for b in multi_task().into_iter().chain([Backend::Baseline]) {
                cases.extend([(m, b, 3), (m, b, 5)]);
            }
        }
        let reports = par_map(cases, &|(m, b, points)| {
            let (qm, input) = &models[m];
            let mut probe = Device::new(msp(), PowerSystem::continuous());
            let pm = deploy(&mut probe, qm).unwrap();
            let mut words = named(control_words(&pm));
            if let Backend::Tiled(_) = b {
                let flag = probe.fram_alloc_word().unwrap();
                words.push(("commit_flag".to_string(), flag.addr()));
            }
            let fanned = check_corruption(qm, input, &msp(), &b, points);
            (b, fanned, serial_flips(qm, input, &b, &words, points))
        });
        for (b, fanned, serial) in reports {
            assert_same_corruption(&fanned, &serial);
            assert!(fanned.decided > 0, "{b}: the watch decided nothing");
            if b == Backend::Baseline {
                assert_eq!(fanned.decided, fanned.flips);
            }
        }

        // Embedded-tag flips on every tagged word; the guard must fire for
        // some, so the compared outcome mix is non-trivial.
        let (qm, input) = dense_relu_qmodel();
        let mut probe = Device::new(msp(), PowerSystem::continuous());
        let pm = deploy(&mut probe, &qm).unwrap();
        let fanned = check_stateful_corruption(&qm, &input, &msp(), 3, 1);
        let serial = serial_flips(&qm, &input, &Backend::Stateful, &stateful_tag_words(&pm), 3);
        assert!(serial.aborted + serial.recovered > 0);
        assert_same_corruption(&fanned, &serial);

        // Strided brown-outs: every multi-task backend (clean), the
        // Stateful backend, and the Baseline control on the pruned model,
        // whose ping-pong clobbers the input so restarts diverge — the
        // violation lists must match in order.
        let (qm, input) = tiny_pruned_qmodel();
        for b in multi_task()
            .into_iter()
            .chain([Backend::Stateful, Backend::Baseline])
        {
            let (expected, ops) = fault_free_reference(&qm, &input, &msp(), &b);
            let (stride, offset) = (ops / 24 + 1, 5);
            let fanned = check_strided(&qm, &input, &msp(), &b, stride, offset);
            let (mut boundaries, mut crashes, mut violations) = (0, 0, Vec::new());
            for t in (offset..ops).step_by(stride as usize) {
                let o = check_schedule(&qm, &input, &msp(), &b, &[t], &expected);
                boundaries += 1;
                crashes += o.crashes;
                violations.extend(o.violations.iter().map(Violation::to_string));
            }
            let got: Vec<_> = fanned.violations.iter().map(Violation::to_string).collect();
            assert_eq!(fanned.backend, b.label());
            assert_eq!(
                (fanned.boundaries, fanned.crashes),
                (boundaries, crashes),
                "{b}"
            );
            assert_eq!(got, violations, "{b}");
            assert_eq!(violations.is_empty(), b != Backend::Baseline, "{b}");
        }
    }
}
