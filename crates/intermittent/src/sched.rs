//! The intermittent scheduler: run, fail, recharge, reboot, resume.
//!
//! The scheduler drives a [`TaskGraph`] to completion over a metered
//! [`Device`]. On continuous power this is a plain trampoline. On harvested
//! power, tasks die mid-body when the buffer empties; the scheduler then
//! simulates the recharge ([`Device::reboot`]), notifies the runtime
//! context (so e.g. the Alpaca log can be discarded or preserved for
//! commit replay), and resumes according to the [`RestartPolicy`]:
//!
//! - [`RestartPolicy::CurrentTask`] — task-based systems (Alpaca, SONIC)
//!   restart the interrupted task from its entry.
//! - [`RestartPolicy::FromEntry`] — the unprotected baseline restarts the
//!   whole program, like a reset vector jumping back to `main()`.
//!
//! # Non-termination detection
//!
//! A task that needs more energy than the device can buffer will fail
//! forever ("the non-termination problem", §2). The scheduler detects this
//! by counting consecutive reboots with no forward progress, where progress
//! is either a completed task transition or an explicit
//! [`Device::mark_progress`] beacon (SONIC pings one per committed loop
//! iteration; under bundled accounting a funded run of iterations posts
//! the same number of beacons at once through [`mcu::Step::progress`],
//! so the count the detector compares is identical). Runs that exceed
//! the limit return [`RunError::NonTermination`], which the experiment
//! harness reports as "does not complete" — the grey bars of the paper's
//! Fig. 9.

use crate::task::{RuntimeCtx, TaskGraph, TaskId, Transition};
use mcu::{Device, Phase};

/// What the scheduler restarts after a reboot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Restart the interrupted task (task-based systems).
    #[default]
    CurrentTask,
    /// Restart the whole graph from the entry task (unprotected baseline).
    FromEntry,
}

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Restart policy after power failures.
    pub restart: RestartPolicy,
    /// Consecutive reboots without progress before declaring
    /// non-termination.
    pub max_attempts_without_progress: u32,
    /// Safety valve on total transitions (guards against accidental
    /// infinite task cycles on continuous power).
    pub max_transitions: u64,
}

impl SchedulerConfig {
    /// Configuration for task-based runtimes (Alpaca, SONIC, TAILS).
    pub fn task_based() -> Self {
        SchedulerConfig {
            restart: RestartPolicy::CurrentTask,
            max_attempts_without_progress: 8,
            max_transitions: 50_000_000,
        }
    }

    /// Configuration for the unprotected baseline.
    pub fn from_entry() -> Self {
        SchedulerConfig {
            restart: RestartPolicy::FromEntry,
            ..Self::task_based()
        }
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self::task_based()
    }
}

/// Statistics from a completed run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Completed task transitions (including the final `Done`).
    pub transitions: u64,
    /// Task-body executions, including interrupted attempts.
    pub body_attempts: u64,
    /// Reboots observed during the run.
    pub reboots: u64,
}

/// Why a run did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A task kept draining full energy buffers without progress; the
    /// workload cannot complete on this power system.
    NonTermination {
        /// Name of the stuck task.
        task: String,
        /// Reboots spent on it without progress.
        attempts: u32,
    },
    /// The transition safety valve fired.
    TransitionLimit {
        /// The configured limit.
        limit: u64,
    },
    /// The harvest profile can never refill the buffer (zero average
    /// input power): [`Device::reboot`] returned [`mcu::SupplyDead`], so
    /// the device is off for good and retrying is pointless. Distinct
    /// from [`RunError::NonTermination`] (the device keeps recharging
    /// but one task never fits a full buffer) — here no recharge will
    /// ever happen, no dead time accrues, and a fleet marks every
    /// remaining queued input "does not complete" immediately.
    SupplyDead {
        /// Name of the task that was running when the supply died.
        task: String,
    },
    /// Integrity guards detected NVM corruption that bounded-retry
    /// recovery could not clear ([`Device::corruption_unrecoverable`]).
    /// Continuing would risk a silently wrong inference, so the run
    /// aborts with the corruption's location instead of an answer.
    Corrupted {
        /// Name of the task that was running when recovery was abandoned.
        task: String,
        /// Name of the accounting region the corruption was detected in.
        region: String,
    },
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::NonTermination { task, attempts } => write!(
                f,
                "non-termination: task `{task}` made no progress over {attempts} charge cycles"
            ),
            RunError::TransitionLimit { limit } => {
                write!(f, "exceeded {limit} task transitions")
            }
            RunError::SupplyDead { task } => write!(
                f,
                "supply dead: task `{task}` lost power and the harvest profile never recharges"
            ),
            RunError::Corrupted { task, region } => write!(
                f,
                "unrecoverable NVM corruption in `{region}` (task `{task}` abandoned recovery)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// A power-failure notification delivered to a crash observer (see
/// [`run_observed`]) after a task body or commit browned out, *before*
/// the scheduler reboots the device — so the observer sees the exact
/// post-crash NVM state (volatile state is already garbage by the model's
/// rules only after the reboot wipes it; the crash-consistency harness
/// inspects persistent words here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailureEvent {
    /// The task that was running when power failed.
    pub task: TaskId,
    /// `true` when the failure landed inside the commit + transition
    /// sequence rather than the task body.
    pub mid_commit: bool,
}

/// Runs `graph` from `entry` until `Done`.
///
/// # Errors
///
/// Returns [`RunError::NonTermination`] when a task cannot complete within
/// the device's energy buffer, or [`RunError::TransitionLimit`] if the
/// transition safety valve fires.
pub fn run<C: RuntimeCtx>(
    graph: &mut TaskGraph<C>,
    ctx: &mut C,
    dev: &mut Device,
    entry: TaskId,
    cfg: &SchedulerConfig,
) -> Result<RunStats, RunError> {
    run_observed(graph, ctx, dev, entry, cfg, |_, _, _| {})
}

/// Like [`run`], but invokes `observer` on every power failure, between
/// the brown-out and the reboot: the device still holds the exact crash
/// state (FRAM as the failed op left it), and the runtime context has not
/// yet been notified. The crash-consistency spec harness uses this to
/// check that every reachable crash state refines the abstract machine.
///
/// # Errors
///
/// Same contract as [`run`].
pub fn run_observed<C: RuntimeCtx>(
    graph: &mut TaskGraph<C>,
    ctx: &mut C,
    dev: &mut Device,
    entry: TaskId,
    cfg: &SchedulerConfig,
    mut observer: impl FnMut(&Device, &C, FailureEvent),
) -> Result<RunStats, RunError> {
    let mut state = RunState::new(dev, entry);
    loop {
        if let Some(stats) = state.step(graph, ctx, dev, cfg, &mut observer)? {
            return Ok(stats);
        }
    }
}

/// The scheduler's loop state between task transitions: the task to run
/// next, the statistics so far, and the non-termination detector's
/// counters.
///
/// At a task boundary (after [`RunState::step`] returned `Ok(None)`),
/// this, the graph (with its bodies' captured state), the runtime context
/// and the device are everything the rest of the run depends on. Cloning
/// all four therefore forks the run: each clone continues exactly as the
/// original would.
#[derive(Clone, Debug)]
pub struct RunState {
    entry: TaskId,
    current: TaskId,
    stats: RunStats,
    attempts_no_progress: u32,
    marks_at_last_check: u64,
    transitions_at_last_check: u64,
    reboots_at_start: u64,
}

impl RunState {
    /// The state of a run about to start at `entry` on `dev`.
    pub fn new(dev: &Device, entry: TaskId) -> Self {
        RunState {
            entry,
            current: entry,
            stats: RunStats::default(),
            attempts_no_progress: 0,
            marks_at_last_check: dev.trace().progress_marks(),
            transitions_at_last_check: 0,
            reboots_at_start: dev.trace().reboots(),
        }
    }

    /// Runs the current task until one transition completes: its body,
    /// then the runtime's commit and the transition charge, with every
    /// power failure on the way rebooted and resumed by the restart
    /// policy. Returns `Ok(None)` at the next task boundary and
    /// `Ok(Some(stats))` once the graph is `Done`.
    ///
    /// # Errors
    ///
    /// Same contract as [`run`]; the run is over after an error.
    pub fn step<C: RuntimeCtx>(
        &mut self,
        graph: &mut TaskGraph<C>,
        ctx: &mut C,
        dev: &mut Device,
        cfg: &SchedulerConfig,
        observer: &mut impl FnMut(&Device, &C, FailureEvent),
    ) -> Result<Option<RunStats>, RunError> {
        // `Some(t)` means the body finished and produced transition `t`,
        // but the commit + transition sequence has not completed yet.
        let mut pending: Option<Transition> = None;
        loop {
            if self.stats.transitions >= cfg.max_transitions {
                return Err(RunError::TransitionLimit {
                    limit: cfg.max_transitions,
                });
            }

            // Phase 1: the task body.
            if pending.is_none() {
                self.stats.body_attempts += 1;
                match graph.run_body(self.current, dev, ctx) {
                    Ok(t) => pending = Some(t),
                    Err(_) => {
                        self.handle_failure(graph, ctx, dev, cfg, false, &mut pending, observer)?;
                        continue;
                    }
                }
            }

            // Phase 2: commit buffered effects and take the transition.
            // Accounted to the current region's control phase.
            let (region, phase) = dev.context();
            dev.set_context(region, Phase::Control);
            let commit_result = ctx.commit_transition(dev);
            dev.set_context(region, phase);
            match commit_result {
                Ok(()) => {
                    self.stats.transitions += 1;
                    match pending.take().expect("pending transition") {
                        Transition::Done => {
                            self.stats.reboots = dev.trace().reboots() - self.reboots_at_start;
                            return Ok(Some(self.stats));
                        }
                        Transition::To(next) => {
                            self.current = next;
                            return Ok(None);
                        }
                    }
                }
                Err(_) => {
                    self.handle_failure(graph, ctx, dev, cfg, true, &mut pending, observer)?;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_failure<C: RuntimeCtx>(
        &mut self,
        graph: &TaskGraph<C>,
        ctx: &mut C,
        dev: &mut Device,
        cfg: &SchedulerConfig,
        mid_commit: bool,
        pending: &mut Option<Transition>,
        observer: &mut impl FnMut(&Device, &C, FailureEvent),
    ) -> Result<(), RunError> {
        let failed_task = self.current;
        // Unrecoverable NVM corruption: a runtime exhausted its bounded
        // recovery retries and aborted. Rebooting would resume into the
        // same corrupted state forever, so surface the verdict instead.
        if let Some(region) = dev.corruption_unrecoverable() {
            return Err(RunError::Corrupted {
                task: graph.name(failed_task).to_string(),
                region: dev
                    .trace()
                    .region_names()
                    .get(region.index())
                    .cloned()
                    .unwrap_or_else(|| "other".to_string()),
            });
        }
        // The crash state: FRAM exactly as the failed op left it, reboot
        // not yet simulated, runtime context not yet notified.
        observer(
            dev,
            ctx,
            FailureEvent {
                task: failed_task,
                mid_commit,
            },
        );
        let marks_now = dev.trace().progress_marks();
        let transitions_now = self.stats.transitions;
        // Under FromEntry a restart discards everything the program did,
        // so beacons and transitions are not durable progress: every
        // failure counts toward non-termination (a baseline that fails
        // once will fail identically forever, since each retry starts
        // from the same full buffer minus the boot overhead).
        let progressed = cfg.restart == RestartPolicy::CurrentTask
            && (marks_now != self.marks_at_last_check
                || transitions_now != self.transitions_at_last_check);
        if progressed {
            self.attempts_no_progress = 1;
        } else {
            self.attempts_no_progress += 1;
        }
        self.marks_at_last_check = marks_now;
        self.transitions_at_last_check = transitions_now;

        if self.attempts_no_progress > cfg.max_attempts_without_progress {
            return Err(RunError::NonTermination {
                task: graph.name(failed_task).to_string(),
                attempts: self.attempts_no_progress,
            });
        }

        if dev.reboot().is_err() {
            return Err(RunError::SupplyDead {
                task: graph.name(failed_task).to_string(),
            });
        }
        ctx.on_power_failure(dev, mid_commit);

        match cfg.restart {
            RestartPolicy::CurrentTask => {
                // A failure in the body re-runs the body (pending is
                // None); a failure mid-commit keeps `pending` so only the
                // idempotent commit replays.
                if !mid_commit {
                    *pending = None;
                }
            }
            RestartPolicy::FromEntry => {
                *pending = None;
                self.current = self.entry;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxp::Q15;
    use mcu::{DeviceSpec, Op, PowerFailure, PowerSystem};

    fn continuous_dev() -> Device {
        Device::new(DeviceSpec::tiny(), PowerSystem::continuous())
    }

    fn harvested_dev() -> Device {
        Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf())
    }

    #[test]
    fn runs_linear_chain_to_done() {
        let mut dev = continuous_dev();
        let out = dev.fram_alloc(2).unwrap();
        let mut g: TaskGraph<()> = TaskGraph::new();
        let b = g.next_id() + 1;
        g.add("first", move |dev, _| {
            dev.write(out, 0, Q15::HALF)?;
            Ok(Transition::To(b))
        });
        g.add("second", move |dev, _| {
            dev.write(out, 1, Q15::MAX)?;
            Ok(Transition::Done)
        });
        let stats = run(&mut g, &mut (), &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert_eq!(stats.transitions, 2);
        assert_eq!(stats.body_attempts, 2);
        assert_eq!(dev.peek(out), vec![Q15::HALF, Q15::MAX]);
    }

    #[test]
    fn charges_one_transition_per_task() {
        let mut dev = continuous_dev();
        let mut g: TaskGraph<()> = TaskGraph::new();
        g.add("only", |_, _| Ok(Transition::Done));
        run(&mut g, &mut (), &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert_eq!(dev.trace().op_count(Op::TaskTransition), 1);
    }

    #[test]
    fn restarts_current_task_after_power_failure() {
        let mut dev = harvested_dev();
        let word = dev.fram_alloc_word().unwrap();
        let mut g: TaskGraph<()> = TaskGraph::new();
        // Task 0 drains ~70% of the buffer and commits (so the charge is
        // durable). Task 1 needs ~40%: its first attempt starts from the
        // ~30% left by task 0 and browns out; the retry starts from a full
        // buffer and succeeds. This is the task-based restart in action.
        let buffer = dev.power().buffer_energy_pj().unwrap();
        let per_op = dev.spec().costs.cost(Op::FxpMul).energy_pj;
        let burner = g.next_id() + 1;
        let drain_ops = (buffer * 7 / 10) / per_op;
        let burn_ops = (buffer * 2 / 5) / per_op;
        g.add("drain", move |dev, _| {
            dev.consume_n(Op::FxpMul, drain_ops)?;
            dev.mark_progress();
            Ok(Transition::To(burner))
        });
        g.add("burner", move |dev, _| {
            dev.consume_n(Op::FxpMul, burn_ops)?;
            let n = dev.load_word(word)?;
            dev.store_word(word, n + 1)?;
            dev.mark_progress();
            Ok(Transition::Done)
        });
        let stats = run(&mut g, &mut (), &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert_eq!(stats.transitions, 2);
        assert!(stats.reboots >= 1, "expected at least one power failure");
        assert!(stats.body_attempts >= 3, "burner must have re-run");
        assert_eq!(dev.peek_word(word), 1, "only the completed attempt commits");
    }

    #[test]
    fn detects_non_termination_of_oversized_task() {
        let mut dev = harvested_dev();
        let mut g: TaskGraph<()> = TaskGraph::new();
        let buffer = dev.power().buffer_energy_pj().unwrap();
        let per_op = dev.spec().costs.cost(Op::FxpMul).energy_pj;
        let ops = buffer / per_op + 10; // more than one full buffer of work
        g.add("too-big", move |dev, _| {
            dev.consume_n(Op::FxpMul, ops)?;
            Ok(Transition::Done)
        });
        let err = run(&mut g, &mut (), &mut dev, 0, &SchedulerConfig::task_based()).unwrap_err();
        match err {
            RunError::NonTermination { task, .. } => assert_eq!(task, "too-big"),
            other => panic!("expected non-termination, got {other:?}"),
        }
    }

    #[test]
    fn progress_beacons_defeat_non_termination_detection() {
        let mut dev = harvested_dev();
        let idx = dev.fram_alloc_word().unwrap();
        let mut g: TaskGraph<()> = TaskGraph::new();
        let buffer = dev.power().buffer_energy_pj().unwrap();
        let per_op = dev.spec().costs.cost(Op::FxpMul).energy_pj;
        // Total work is several buffers' worth, but each chunk commits its
        // index to FRAM and pings progress — the SONIC pattern.
        let chunk = (buffer / 4) / per_op;
        g.add("loop-continuation", move |dev, _| loop {
            let i = dev.load_word(idx)?;
            if i >= 20 {
                return Ok(Transition::Done);
            }
            dev.consume_n(Op::FxpMul, chunk)?;
            dev.store_word(idx, i + 1)?;
            dev.mark_progress();
        });
        let stats = run(&mut g, &mut (), &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert_eq!(dev.peek_word(idx), 20);
        assert!(stats.reboots > 3, "should have spanned many charge cycles");
    }

    #[test]
    fn from_entry_policy_restarts_whole_graph_then_reports_dnc() {
        // An unprotected program whose total energy exceeds the buffer: it
        // restarts from the entry on every failure (we observe the entry
        // task's side effect repeating) and, because each retry has the same
        // budget, it can never finish — the scheduler reports
        // non-termination, the paper's "does not complete".
        let mut dev = harvested_dev();
        let scratch = dev.fram_alloc_word().unwrap();
        let mut g: TaskGraph<()> = TaskGraph::new();
        let second = g.next_id() + 1;
        let buffer = dev.power().buffer_energy_pj().unwrap();
        let per_op = dev.spec().costs.cost(Op::FxpMul).energy_pj;
        let ops = buffer / per_op + 1; // more than one full buffer
        g.add("entry", move |dev, _| {
            let n = dev.load_word(scratch)?;
            dev.store_word(scratch, n + 1)?;
            Ok(Transition::To(second))
        });
        g.add("late", move |dev, _| {
            dev.consume_n(Op::FxpMul, ops)?;
            Ok(Transition::Done)
        });
        let err = run(&mut g, &mut (), &mut dev, 0, &SchedulerConfig::from_entry()).unwrap_err();
        assert!(matches!(err, RunError::NonTermination { .. }));
        assert!(
            dev.peek_word(scratch) >= 2,
            "entry task should have re-run under FromEntry"
        );
    }

    #[test]
    fn dead_supply_reported_not_looped() {
        // A fully occluded harvest profile: the first charge runs, the
        // first recharge is impossible, and the scheduler must report it
        // (finite dead time, no infinite retry loop).
        let mut dev = Device::new(
            DeviceSpec::tiny(),
            PowerSystem::harvested_with(100e-6, mcu::HarvestProfile::Constant(0.0)),
        );
        let mut g: TaskGraph<()> = TaskGraph::new();
        let buffer = dev.power().buffer_energy_pj().unwrap();
        let per_op = dev.spec().costs.cost(Op::FxpMul).energy_pj;
        let ops = buffer / per_op + 10;
        g.add("solar-eclipse", move |dev, _| {
            dev.consume_n(Op::FxpMul, ops)?;
            Ok(Transition::Done)
        });
        let err = run(&mut g, &mut (), &mut dev, 0, &SchedulerConfig::task_based()).unwrap_err();
        match err {
            RunError::SupplyDead { task } => assert_eq!(task, "solar-eclipse"),
            other => panic!("expected supply-dead, got {other:?}"),
        }
        assert!(dev.trace().dead_secs().is_finite());
        assert!(!dev.is_on());
    }

    #[test]
    fn transition_limit_fires_on_cycles() {
        let mut dev = continuous_dev();
        let mut g: TaskGraph<()> = TaskGraph::new();
        g.add("spin", |_, _| Ok(Transition::To(0)));
        let cfg = SchedulerConfig {
            max_transitions: 100,
            ..SchedulerConfig::task_based()
        };
        let err = run(&mut g, &mut (), &mut dev, 0, &cfg).unwrap_err();
        assert_eq!(err, RunError::TransitionLimit { limit: 100 });
        assert!(!err.to_string().is_empty());
    }

    /// A runtime context that records hook invocations, to pin down the
    /// scheduler's commit protocol.
    #[derive(Default)]
    struct SpyCtx {
        commits: u32,
        after_commits: u32,
        failures_body: u32,
        failures_commit: u32,
        fail_first_commit: bool,
    }

    impl RuntimeCtx for SpyCtx {
        fn commit_transition(&mut self, dev: &mut Device) -> Result<(), PowerFailure> {
            self.commits += 1;
            if self.fail_first_commit {
                self.fail_first_commit = false;
                // Drain the device to force a brown-out inside commit.
                while dev.consume(Op::Nop).is_ok() {}
                return Err(PowerFailure);
            }
            dev.consume(Op::TaskTransition)?;
            self.after_commits += 1;
            Ok(())
        }
        fn on_power_failure(&mut self, _dev: &mut Device, mid_commit: bool) {
            if mid_commit {
                self.failures_commit += 1;
            } else {
                self.failures_body += 1;
            }
        }
    }

    #[test]
    fn commit_replays_without_rerunning_body() {
        let mut dev = harvested_dev();
        let runs = dev.fram_alloc_word().unwrap();
        let mut ctx = SpyCtx {
            fail_first_commit: true,
            ..SpyCtx::default()
        };
        let mut g: TaskGraph<SpyCtx> = TaskGraph::new();
        g.add("body", move |dev, _| {
            let n = dev.load_word(runs)?;
            dev.store_word(runs, n + 1)?;
            dev.mark_progress();
            Ok(Transition::Done)
        });
        run(
            &mut g,
            &mut ctx,
            &mut dev,
            0,
            &SchedulerConfig::task_based(),
        )
        .unwrap();
        // Body ran exactly once; the commit was attempted twice (one
        // failure, one replay) and after_commit fired exactly once.
        assert_eq!(dev.peek_word(runs), 1);
        assert_eq!(ctx.commits, 2);
        assert_eq!(ctx.after_commits, 1);
        assert_eq!(ctx.failures_commit, 1);
        assert_eq!(ctx.failures_body, 0);
    }

    #[test]
    fn observer_sees_every_crash_before_the_reboot() {
        // Inject faults on continuous power: each failure must surface to
        // the observer with the failed task, the commit/body flag, and a
        // device that is OFF but not yet rebooted (crash-state FRAM).
        let mut dev = Device::new(DeviceSpec::tiny(), PowerSystem::continuous());
        let word = dev.fram_alloc_word().unwrap();
        let mut g: TaskGraph<()> = TaskGraph::new();
        g.add("crashy", move |dev, _| {
            let n = dev.load_word(word)?;
            dev.consume_n(Op::FxpMul, 64)?;
            dev.store_word(word, n + 1)?;
            dev.mark_progress();
            Ok(Transition::Done)
        });
        let start = dev.ops_consumed();
        dev.arm_faults(&mcu::FaultPlan::at_each([start + 10, start + 70]));
        let mut seen: Vec<(TaskId, bool, bool, u64)> = Vec::new();
        let stats = run_observed(
            &mut g,
            &mut (),
            &mut dev,
            0,
            &SchedulerConfig::task_based(),
            |dev, _, ev| {
                let b = dev.last_brownout().expect("crash recorded");
                seen.push((ev.task, ev.mid_commit, dev.is_on(), b.op_index));
            },
        )
        .unwrap();
        assert_eq!(stats.reboots, 2);
        assert_eq!(seen.len(), 2, "one observation per crash");
        for &(task, mid_commit, on, _) in &seen {
            assert_eq!(task, 0);
            assert!(!mid_commit, "faults landed in the body");
            assert!(!on, "observed between brown-out and reboot");
        }
        assert_eq!(seen[0].3, start + 10);
        assert_eq!(dev.peek_word(word), 1, "exactly one attempt committed");
    }
}
