//! GENESIS: generating energy-aware networks for efficiency on
//! intermittent systems.
//!
//! GENESIS (paper §5) takes a programmer's network description and
//! automatically compresses it — by **pruning** near-zero weights and by
//! **separating** (low-rank factorization of) layers — then *re-trains*
//! each configuration, builds the accuracy-vs-cost Pareto frontier
//! (Fig. 4), and finally chooses the feasible configuration that maximizes
//! end-to-end application performance under the IMpJ model of §3
//! (Fig. 5), rather than merely the most accurate one.
//!
//! Modules:
//!
//! - [`linalg`]: one-sided Jacobi SVD and small dense solvers, written
//!   from scratch (no external linear-algebra dependency).
//! - [`prune`]: magnitude pruning with masks that survive re-training.
//! - [`separate`]: SVD separation of fully-connected layers and a
//!   HOOI-style alternating-least-squares Tucker-2 decomposition that
//!   splits a convolution into three 1-D convolutions (Table 2's
//!   "3×1D Conv").
//! - [`search`]: the configuration sweep with a median-stopping rule, plus
//!   Pareto-frontier computation and feasibility checks against the
//!   device's FRAM budget.
//! - [`energy`]: per-configuration inference-energy estimates from
//!   operation counts and the device cost table.
//! - [`imp`]: the IMpJ application model (Eqs. 1–3, Table 1) and the
//!   wildlife-monitoring case study behind Figs. 1 and 2.
//! - [`fleet`]: fleet-backed scoring — the feasible Pareto frontier is
//!   re-ranked by *deploying* each plan through a real backend under the
//!   target harvest profile, measuring accuracy, DNC rate, energy, and
//!   latency, with per-layer DNC starvation attribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod fleet;
pub mod imp;
pub mod linalg;
pub mod prune;
pub mod search;
pub mod separate;

pub use fleet::{choose_measured, fleet_score, FleetScoreConfig, FleetScored};
pub use imp::AppModel;
pub use search::{ConfigResult, SearchSpace};
