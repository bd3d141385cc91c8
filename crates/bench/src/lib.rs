//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (one `benches/` target each; see the README's module map).
//!
//! Each `fig*` function returns the data and a formatted report; the
//! `benches/` targets print the report and write CSV under
//! `target/experiments/` (ARCHITECTURE.md, "Where results land").

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
