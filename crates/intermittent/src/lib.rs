//! Task-based intermittent execution substrate.
//!
//! This crate provides the execution model that both the prior-work
//! baseline (an Alpaca-style task system with redo logging) and SONIC's
//! specialized runtime build on:
//!
//! - [`task`]: a task graph whose nodes are resumable functions over a
//!   [`mcu::Device`]. A task returns a [`Transition`] on success or
//!   propagates a [`mcu::PowerFailure`].
//! - [`sched`]: the scheduler. It runs tasks, commits their effects at
//!   transitions, reboots the device after power failures (restarting the
//!   current task, or the whole graph for unprotected baselines), and
//!   detects non-termination — a task that repeatedly drains a full energy
//!   buffer without making forward progress, the condition the paper calls
//!   a task that "does not complete".
//! - [`alpaca`]: task-shared memory with dynamic redo logging and
//!   two-phase commit, modelling Alpaca \[Maeng et al., OOPSLA'17\], the
//!   state-of-the-art system the paper compares against. Reads check the
//!   log, writes are privatized into the log, and the log is committed to
//!   the home locations atomically at task transition. This is what makes
//!   write-after-read (WAR) data safe across re-execution — and what SONIC
//!   selectively bypasses.
//!
//! # Example: a WAR-safe counter increment
//!
//! ```
//! use intermittent::{alpaca::AlpacaRt, sched, task::{TaskGraph, Transition}};
//! use mcu::{Device, DeviceSpec, PowerSystem};
//!
//! let mut dev = Device::new(DeviceSpec::tiny(), PowerSystem::continuous());
//! let counter = dev.fram_alloc_word().unwrap();
//! let mut rt = AlpacaRt::new(&mut dev).unwrap();
//!
//! let mut graph = TaskGraph::new();
//! let addr = counter.addr();
//! graph.add("increment", move |dev: &mut Device, rt: &mut AlpacaRt| {
//!     // The body runs taped: its log accesses settle in one charge.
//!     dev.run_tape(&mut [], |t| {
//!         let v = rt.ts_load_word(t, addr)?; // read...
//!         rt.ts_store_word(t, addr, v + 1) // ...then write: a WAR pair
//!     })?;
//!     Ok(Transition::Done)
//! });
//!
//! sched::run(&mut graph, &mut rt, &mut dev, 0, &sched::SchedulerConfig::task_based()).unwrap();
//! assert_eq!(dev.peek_word(counter), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpaca;
pub mod sched;
pub mod task;

pub use alpaca::AlpacaRt;
pub use sched::{run, run_observed, FailureEvent, RunError, RunState, RunStats, SchedulerConfig};
pub use task::{RuntimeCtx, TaskBody, TaskGraph, TaskId, Transition};
