//! Bundled op accounting: charge a loop body per iteration, not per op.
//!
//! Metering every ALU op, loop increment, and memory word with one
//! [`Device::consume`](crate::Device::consume) call makes the *simulator*
//! the bottleneck long before the simulated MSP430 is: a SONIC inference
//! is a few hundred thousand `consume` calls, each a cost lookup, a power
//! branch, and a trace update. An [`OpBundle`] precomputes the ordered op
//! sequence of one inner-loop iteration so the device can charge whole
//! iterations with one arithmetic step
//! ([`Device::consume_bundle`](crate::Device::consume_bundle)) while
//! staying **cycle- and energy-exact**, brown-out op included:
//!
//! - The number of *complete* iterations the remaining buffer funds is
//!   `charge / iter_energy` — exactly the number the scalar path would
//!   have completed, because per-op energies are non-negative integers
//!   (if the remaining charge covers a whole iteration it covers every
//!   prefix of it).
//! - The first unfunded iteration is then replayed op by op through the
//!   original scalar code, so the brown-out lands on *exactly* the same
//!   op, with exactly the same partial memory effects, as an all-scalar
//!   execution.
//!
//! Trace cells are plain accumulators, so charging `n` iterations of each
//! `(phase, op)` entry in bulk produces bit-identical totals to `n`
//! interleaved scalar charges. The root `bundles` test suite pins this
//! equivalence against digests recorded from the scalar implementation.
//!
//! For loop bodies whose op sequence is data-dependent but which have
//! **no durable side effects** until a later commit (the Alpaca redo-log
//! bodies), an [`OpTape`] records what the body would have consumed
//! while it executes host-side. Each op sequence the body repeats — a
//! loop iteration, a redo-log access — is built once as a shared pattern
//! bundle and recorded as one *repeat* per occurrence (consecutive
//! repeats merge); the few other ops are recorded as single-op runs. The
//! device settles the tape in one step
//! ([`Device::consume_tape`](crate::Device::consume_tape)) from counts
//! folded once per distinct pattern, and expands the patterns op by op
//! only when the buffer cannot cover the tape.

use crate::spec::{CostTable, Op};
use crate::trace::Phase;
use std::sync::Arc;

/// Per-`(phase, op)` op counts, indexed `[phase.index()][op.index()]`.
pub(crate) type OpCounts = [[u64; Op::COUNT]; 2];

/// One run-length-encoded entry of a bundle's ordered op sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BundleOp {
    /// The operation class.
    pub op: Op,
    /// The accounting phase the op is charged to.
    pub phase: Phase,
    /// How many consecutive ops of this class (≥ 1).
    pub count: u64,
}

/// The precomputed op sequence of one inner-loop iteration (also an
/// [`OpTape`] pattern). See the [module docs](self).
///
/// Alongside the ordered sequence (needed only for the exact scalar
/// replay on a brown-out) the bundle maintains per-`(phase, op)`
/// aggregate counts, so bulk charging and cost totals are O(op classes)
/// however long the sequence grows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpBundle {
    seq: Vec<BundleOp>,
    counts: OpCounts,
}

impl Default for OpBundle {
    fn default() -> Self {
        Self::new()
    }
}

impl OpBundle {
    /// An empty bundle.
    pub const fn new() -> Self {
        OpBundle {
            seq: Vec::new(),
            counts: [[0; Op::COUNT]; 2],
        }
    }

    /// Appends one op to the sequence.
    #[inline]
    pub fn push(&mut self, op: Op, phase: Phase) {
        self.push_n(op, phase, 1);
    }

    /// Appends `count` consecutive ops of one class (merged with the tail
    /// entry when it matches, keeping tapes compact).
    #[inline]
    pub fn push_n(&mut self, op: Op, phase: Phase, count: u64) {
        if count == 0 {
            return;
        }
        self.counts[phase.index()][op.index()] += count;
        if let Some(last) = self.seq.last_mut() {
            if last.op == op && last.phase == phase {
                last.count += count;
                return;
            }
        }
        self.seq.push(BundleOp { op, phase, count });
    }

    /// The ordered (run-length-encoded) op sequence.
    pub fn ops(&self) -> &[BundleOp] {
        &self.seq
    }

    /// Aggregate count of one `(phase, op)` cell.
    #[inline]
    pub fn count(&self, phase: Phase, op: Op) -> u64 {
        self.counts[phase.index()][op.index()]
    }

    /// Aggregate counts of every `(phase, op)` cell.
    pub(crate) fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// `true` when the bundle holds no ops.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Total ops in one iteration.
    pub fn len(&self) -> u64 {
        counts_len(&self.counts)
    }

    /// Total `(cycles, energy_pj)` of one iteration under `costs`.
    pub fn iter_cost(&self, costs: &CostTable) -> (u64, u64) {
        counts_cost(&self.counts, costs)
    }
}

/// Total ops in a counts table.
pub(crate) fn counts_len(counts: &OpCounts) -> u64 {
    counts.iter().flatten().sum()
}

/// Total `(cycles, energy_pj)` of a counts table under `costs`.
pub(crate) fn counts_cost(counts: &OpCounts, costs: &CostTable) -> (u64, u64) {
    let mut cycles = 0u64;
    let mut energy = 0u64;
    for op in Op::ALL {
        let n = counts[0][op.index()] + counts[1][op.index()];
        if n > 0 {
            let c = costs.cost(op);
            cycles += n * c.cycles as u64;
            energy += n * c.energy_pj;
        }
    }
    (cycles, energy)
}

/// One run of an [`OpTape`].
#[derive(Debug)]
pub(crate) enum TapeRun {
    /// `count` consecutive ops of one class.
    Ops(BundleOp),
    /// Back-to-back repeats of a pattern's ordered sequence.
    Repeat {
        /// Index of the pattern in the tape's pattern table.
        pattern: usize,
        /// How many repeats (≥ 1).
        n: u64,
    },
}

/// A recorded op tape: the ordered ops a side-effect-free body would
/// have consumed, as single-op runs and pattern repeats. See the
/// [module docs](self).
///
/// Alongside the ordered runs (needed only for the in-order replay on a
/// shortfall) the tape keeps the aggregate counts of its single-op runs
/// and the total repeats of each distinct pattern, so folding the whole
/// tape costs its few distinct patterns, not its runs.
#[derive(Debug, Default)]
pub struct OpTape {
    runs: Vec<TapeRun>,
    /// The distinct patterns recorded, each with its total repeats.
    patterns: Vec<(Arc<OpBundle>, u64)>,
    /// Aggregate counts of the single-op runs.
    singles: OpCounts,
}

impl OpTape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one op.
    #[inline]
    pub fn push(&mut self, op: Op, phase: Phase) {
        self.push_n(op, phase, 1);
    }

    /// Records `count` consecutive ops of one class (merged with a
    /// matching single-op tail run).
    #[inline]
    pub fn push_n(&mut self, op: Op, phase: Phase, count: u64) {
        if count == 0 {
            return;
        }
        self.singles[phase.index()][op.index()] += count;
        if let Some(TapeRun::Ops(last)) = self.runs.last_mut() {
            if last.op == op && last.phase == phase {
                last.count += count;
                return;
            }
        }
        self.runs.push(TapeRun::Ops(BundleOp { op, phase, count }));
    }

    /// Records `n` repeats of `pattern`, merged with a tail run of the
    /// same pattern (the same allocation, compared by pointer).
    #[inline]
    pub fn repeat(&mut self, pattern: &Arc<OpBundle>, n: u64) {
        if n == 0 {
            return;
        }
        let k = match self.runs.last_mut() {
            Some(TapeRun::Repeat {
                pattern: k,
                n: last,
            }) if Arc::ptr_eq(&self.patterns[*k].0, pattern) => {
                *last += n;
                *k
            }
            _ => {
                let k = match self
                    .patterns
                    .iter()
                    .position(|(p, _)| Arc::ptr_eq(p, pattern))
                {
                    Some(k) => k,
                    None => {
                        self.patterns.push((Arc::clone(pattern), 0));
                        self.patterns.len() - 1
                    }
                };
                self.runs.push(TapeRun::Repeat { pattern: k, n });
                k
            }
        };
        self.patterns[k].1 += n;
    }

    /// The ordered runs.
    pub(crate) fn runs(&self) -> &[TapeRun] {
        &self.runs
    }

    /// The pattern a [`TapeRun::Repeat`] refers to.
    pub(crate) fn pattern(&self, k: usize) -> &OpBundle {
        &self.patterns[k].0
    }

    /// Empties the tape for reuse. Capacity and the pattern table stay:
    /// a reused tape records the same few patterns body after body, so
    /// they stay registered (with zero repeats) instead of being
    /// re-registered each time.
    pub fn clear(&mut self) {
        self.runs.clear();
        for (_, n) in &mut self.patterns {
            *n = 0;
        }
        self.singles = [[0; Op::COUNT]; 2];
    }

    /// Aggregate per-`(phase, op)` counts of the whole tape, folded once
    /// per distinct pattern.
    pub(crate) fn counts(&self) -> OpCounts {
        let mut counts = self.singles;
        for (pattern, n) in &self.patterns {
            for e in pattern.ops() {
                counts[e.phase.index()][e.op.index()] += e.count * n;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merges_consecutive_runs() {
        let mut b = OpBundle::new();
        b.push(Op::Alu, Phase::Kernel);
        b.push(Op::Alu, Phase::Kernel);
        b.push_n(Op::Alu, Phase::Kernel, 3);
        b.push(Op::Alu, Phase::Control); // phase differs: new entry
        b.push(Op::FramRead, Phase::Control);
        b.push_n(Op::Nop, Phase::Kernel, 0); // no-op
        assert_eq!(b.ops().len(), 3);
        assert_eq!(b.ops()[0].count, 5);
        assert_eq!(b.len(), 7);
    }

    #[test]
    fn iter_cost_sums_the_cost_table() {
        let costs = CostTable::msp430fr5994();
        let mut b = OpBundle::new();
        b.push_n(Op::FramRead, Phase::Kernel, 2);
        b.push(Op::FramWrite, Phase::Control);
        let (cycles, energy) = b.iter_cost(&costs);
        let r = costs.cost(Op::FramRead);
        let w = costs.cost(Op::FramWrite);
        assert_eq!(cycles, 2 * r.cycles as u64 + w.cycles as u64);
        assert_eq!(energy, 2 * r.energy_pj + w.energy_pj);
    }

    #[test]
    fn tape_merges_runs_and_folds_pattern_counts() {
        let mut pat = OpBundle::new();
        pat.push_n(Op::FramRead, Phase::Kernel, 2);
        pat.push(Op::Incr, Phase::Kernel);
        let pat = Arc::new(pat);
        let twin = Arc::new((*pat).clone()); // equal, but a distinct pattern
        let mut t = OpTape::new();
        t.push(Op::Alu, Phase::Kernel);
        t.push_n(Op::Alu, Phase::Kernel, 2);
        t.repeat(&pat, 1);
        t.repeat(&pat, 3);
        t.repeat(&twin, 1);
        t.repeat(&pat, 0); // no-op
        t.push(Op::Incr, Phase::Kernel);
        t.repeat(&pat, 2); // a later run of an already-registered pattern
        assert_eq!(t.runs().len(), 5);
        assert!(matches!(t.runs()[1], TapeRun::Repeat { pattern: 0, n: 4 }));
        assert!(matches!(t.runs()[2], TapeRun::Repeat { pattern: 1, n: 1 }));
        assert!(matches!(t.runs()[4], TapeRun::Repeat { pattern: 0, n: 2 }));
        let c = t.counts();
        assert_eq!(c[Phase::Kernel.index()][Op::Alu.index()], 3);
        assert_eq!(c[Phase::Kernel.index()][Op::FramRead.index()], 14);
        assert_eq!(c[Phase::Kernel.index()][Op::Incr.index()], 8);
        assert_eq!(counts_len(&c), 25);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut t = OpTape::new();
        t.push_n(Op::Alu, Phase::Kernel, 4);
        t.repeat(&Arc::new(OpBundle::new()), 2);
        let cap = t.runs.capacity();
        t.clear();
        assert!(t.runs().is_empty());
        assert_eq!(t.patterns.len(), 1, "patterns stay registered");
        assert_eq!(t.runs.capacity(), cap);
        assert_eq!(counts_len(&t.counts()), 0);
    }
}
