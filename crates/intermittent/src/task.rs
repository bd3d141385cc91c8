//! Tasks, transitions, and the runtime-context hook.

use mcu::{Device, Op, PowerFailure};

/// Index of a task within a [`TaskGraph`].
pub type TaskId = usize;

/// Where control goes after a task completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Transfer to another task (possibly the same one).
    To(TaskId),
    /// The computation is finished.
    Done,
}

/// Hook implemented by runtime systems that attach per-task semantics
/// (privatization, commit) to the scheduler.
///
/// The Alpaca-style runtime uses this to commit its redo log at task
/// transitions and discard it on power failure. Runtimes with no such
/// machinery — the naïve baseline and SONIC, which manages non-volatile
/// state directly — use `()`, whose transition is the
/// [`Op::TaskTransition`] charge alone.
pub trait RuntimeCtx {
    /// The scheduler's whole commit sequence at a task transition: commit
    /// the task's buffered effects to their home locations, charge the
    /// [`Op::TaskTransition`], then retire the buffer.
    ///
    /// Must be **idempotent**: if power fails inside it the scheduler
    /// reboots and calls it again, exactly like Alpaca's two-phase commit
    /// replay.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the commit or the transition browns
    /// out.
    fn commit_transition(&mut self, dev: &mut Device) -> Result<(), PowerFailure>;

    /// Called after every reboot. `mid_commit` is `true` when the failure
    /// interrupted a commit (the log must be preserved for replay) and
    /// `false` when it interrupted the task body (the log is discarded so
    /// the body re-executes from clean state).
    fn on_power_failure(&mut self, dev: &mut Device, mid_commit: bool);
}

impl RuntimeCtx for () {
    fn commit_transition(&mut self, dev: &mut Device) -> Result<(), PowerFailure> {
        dev.consume(Op::TaskTransition)
    }
    fn on_power_failure(&mut self, _dev: &mut Device, _mid_commit: bool) {}
}

/// A task body: resumable code over the device and the runtime context.
///
/// Implemented for every `FnMut(&mut Device, &mut C) -> Result<Transition,
/// PowerFailure>` closure that is `Clone + Send + Sync`. A body's captured
/// state (the bundled-loop [`mcu::Site`]s it records into, above all) is
/// part of the run's state, so cloning a [`TaskGraph`] clones every body
/// with its state, and a cloned graph continues exactly where the
/// original stood.
pub trait TaskBody<C>: Send + Sync {
    /// Runs the body once.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the device browns out mid-body.
    fn run(&mut self, dev: &mut Device, ctx: &mut C) -> Result<Transition, PowerFailure>;

    /// A boxed copy of the body and its captured state.
    fn clone_box(&self) -> Box<dyn TaskBody<C>>;
}

impl<C, F> TaskBody<C> for F
where
    F: FnMut(&mut Device, &mut C) -> Result<Transition, PowerFailure>
        + Clone
        + Send
        + Sync
        + 'static,
{
    fn run(&mut self, dev: &mut Device, ctx: &mut C) -> Result<Transition, PowerFailure> {
        self(dev, ctx)
    }

    fn clone_box(&self) -> Box<dyn TaskBody<C>> {
        Box::new(self.clone())
    }
}

/// A boxed task body.
pub type TaskFn<C> = Box<dyn TaskBody<C>>;

struct TaskEntry<C> {
    name: String,
    body: TaskFn<C>,
}

impl<C> Clone for TaskEntry<C> {
    fn clone(&self) -> Self {
        TaskEntry {
            name: self.name.clone(),
            body: self.body.clone_box(),
        }
    }
}

/// A static graph of tasks, the unit the scheduler executes.
///
/// Tasks are added once at "link time" and referenced by [`TaskId`]; a
/// task that needs to transition to itself can reserve its id with
/// [`TaskGraph::next_id`] before adding itself. A clone copies every
/// task body with its captured state (see [`TaskBody`]).
pub struct TaskGraph<C> {
    tasks: Vec<TaskEntry<C>>,
}

impl<C> TaskGraph<C> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph { tasks: Vec::new() }
    }

    /// The id the next added task will receive.
    pub fn next_id(&self) -> TaskId {
        self.tasks.len()
    }

    /// Adds a task, returning its id.
    pub fn add<F>(&mut self, name: &str, body: F) -> TaskId
    where
        F: FnMut(&mut Device, &mut C) -> Result<Transition, PowerFailure>
            + Clone
            + Send
            + Sync
            + 'static,
    {
        let id = self.tasks.len();
        self.tasks.push(TaskEntry {
            name: name.to_string(),
            body: Box::new(body),
        });
        id
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The name of task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn name(&self, id: TaskId) -> &str {
        &self.tasks[id].name
    }

    /// Runs one task body (used by the scheduler).
    ///
    /// # Errors
    ///
    /// Propagates the task's [`PowerFailure`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn run_body(
        &mut self,
        id: TaskId,
        dev: &mut Device,
        ctx: &mut C,
    ) -> Result<Transition, PowerFailure> {
        self.tasks[id].body.run(dev, ctx)
    }
}

impl<C> Clone for TaskGraph<C> {
    fn clone(&self) -> Self {
        TaskGraph {
            tasks: self.tasks.clone(),
        }
    }
}

impl<C> Default for TaskGraph<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> core::fmt::Debug for TaskGraph<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TaskGraph")
            .field(
                "tasks",
                &self.tasks.iter().map(|t| &t.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu::{DeviceSpec, PowerSystem};

    #[test]
    fn graph_assigns_sequential_ids() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.next_id(), 0);
        let a = g.add("a", |_, _| Ok(Transition::Done));
        let b = g.add("b", |_, _| Ok(Transition::Done));
        assert_eq!((a, b), (0, 1));
        assert_eq!(g.len(), 2);
        assert_eq!(g.name(a), "a");
        assert!(format!("{g:?}").contains("\"b\""));
    }

    #[test]
    fn run_body_invokes_task() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let id = g.add("bump", |_, n| {
            *n += 1;
            Ok(Transition::Done)
        });
        let mut dev = Device::new(DeviceSpec::tiny(), PowerSystem::continuous());
        let mut n = 0u32;
        assert_eq!(g.run_body(id, &mut dev, &mut n).unwrap(), Transition::Done);
        assert_eq!(n, 1);
    }

    #[test]
    fn unit_runtime_ctx_is_noop() {
        let mut dev = Device::new(DeviceSpec::tiny(), PowerSystem::continuous());
        let mut ctx = ();
        ctx.commit_transition(&mut dev).unwrap();
        ctx.on_power_failure(&mut dev, false);
        assert_eq!(dev.ops_consumed(), 1);
        assert_eq!(dev.trace().op_count(Op::TaskTransition), 1);
    }
}
