//! Bundled op accounting: charge a loop body per iteration, not per op.
//!
//! Metering every ALU op, loop increment, and memory word with one
//! [`Device::consume`] call makes the *simulator* the bottleneck long
//! before the simulated MSP430 is: a SONIC inference is a few hundred
//! thousand `consume` calls, each a cost lookup, a power branch, and a
//! trace update. [`Device::run_shaped`] runs an inner loop with one body,
//! written once against a [`Step`], and charges whole iterations at a
//! time from [`OpBundle`]s — the ordered op sequence of one iteration —
//! that it *records from the body itself*.
//!
//! # Shapes
//!
//! An iteration's op sequence is its *shape*. Most loops have one; some
//! take one of a few fixed sequences depending on data — a sparse FC's
//! scatter that stays in its column, or first advances to the next one.
//! Each shape keeps its bundle in its own [`Site`], and the loop passes a
//! *predictor* that names the shape of the next iteration before it runs.
//! The predictor reads, with uncharged peeks at live device memory, the
//! words the body is about to read, and advances a copy of the loop's
//! cursor (the state the body carries from one index to the next) the way
//! the body will. Peeking live FRAM, not a deploy-time copy, keeps
//! injected bit flips and stuck-at cells in the prediction exactly as the
//! body will see them. A shape the predictor does not name (`None`: a
//! sequence of variable length, say) always runs in scalar mode.
//! [`Device::run_bundled`] is the one-shape case.
//!
//! Each index runs in one of three modes the driver picks:
//!
//! - **Recording.** While the predicted shape's site is empty, the driver
//!   runs the index in scalar mode (below) and records the `(op, phase)`
//!   of every charge it makes. If the iteration completes, the record
//!   becomes the site's bundle; a brown-out or body error leaves the site
//!   empty, and the next iteration of that shape records again.
//! - **Funded mode.** The driver predicts shapes forward and funds the
//!   longest run of *whole* iterations, across shapes, that both the
//!   remaining buffer and the next armed fault target allow, charges it in
//!   one step, then runs it with every [`Step`] call uncharged: memory
//!   effects happen directly, and progress beacons land once per funded
//!   run. The funded count is exactly the number of complete iterations
//!   an all-scalar execution would have finished, because per-op energies
//!   are non-negative integers (if the remaining charge covers a whole
//!   iteration it covers every prefix of it). A run stops before an
//!   iteration whose shape has no bundle.
//! - **Scalar mode.** The first unfunded iteration runs the same body
//!   with every call charging through [`Device::consume`] /
//!   [`Device::read`] / [`Device::write`] in body order, so a brown-out
//!   lands on *exactly* the op, with exactly the partial memory effects,
//!   of an all-scalar execution. If the iteration completes — an
//!   injected bit flip or stuck-at cell stopped the funding without
//!   cutting power, or its shape runs only in scalar mode — bulk funding
//!   resumes at the next index.
//!
//! # Last-value stores
//!
//! No brown-out and no memory fault can fire inside a funded run, so a
//! word the body stores every iteration but never reads back within the
//! run needs only its last value. The loop-continuation store
//! ([`Step::checkpoint`]) and [`Step::store_last`] keep the run's latest
//! value per word and land it once when the run settles — one FRAM store
//! (and one integrity-guard update) per run, not per iteration. Scalar
//! mode stores every value, charged, as the device method would.
//!
//! # Why the modes agree
//!
//! Scalar mode is the ground truth, and each bundle is a record of it, so
//! the modes agree as long as every iteration the predictor gives a shape
//! charges that shape's op sequence. That is the one way to break the
//! energy model: a site shared by two loop variants (a first pass and a
//! later one, say) funds the second from the first's record, and a
//! predictor that misnames a shape funds an iteration from another
//! shape's record. Debug builds check both: the driver records every
//! later scalar-mode iteration too and asserts it is a prefix of its
//! predicted shape's bundle — equal to it when the iteration completes —
//! unless the loop has several shapes and a memory fault fired inside the
//! iteration (a flipped word may change the path the prediction saw; such
//! an iteration also records nothing); it
//! asserts that the body ends each funded run on the cursor the predictor
//! reached; and it asserts that the run's bulk charge equals its
//! iterations' bundles summed one by one. Trace cells are plain
//! accumulators, so charging `n` iterations of each `(phase, op)` entry in
//! bulk produces bit-identical totals to `n` interleaved scalar charges.
//! The root `bundles` test suite pins this equivalence against digests
//! recorded from the scalar implementation.
//!
//! For loop bodies whose op sequence is data-dependent but which have
//! **no durable side effects** until a later commit (the Alpaca redo-log
//! bodies), an [`OpTape`] records what the body would have consumed
//! while it executes host-side. Each op sequence the body repeats — a
//! loop iteration, a redo-log access — is registered with the tape once
//! as a pattern ([`OpTape::register`]) and recorded by its [`PatternId`]
//! as one *repeat* per occurrence (consecutive repeats merge); the few
//! other ops are recorded as single-op runs. The device settles the tape
//! in one step ([`Device::consume_tape`]) from counts folded once per
//! pattern the body repeated, and expands the patterns op by op only
//! when the buffer cannot cover the tape.
//!
//! A fixed op sequence that no brown-out or fault can interrupt — the
//! Alpaca commit, when the buffer covers it — needs no record at all:
//! [`Device::fund_whole`] charges it in one funding decision, and the
//! caller lands its memory effects.

use crate::device::{Device, FramBuf, FramWord, NvAddr, PowerFailure, SramBuf};
use crate::spec::{CostTable, Op};
use crate::trace::{Phase, RegionId};
use fxp::{Accum, Q15};
use std::ops::Range;

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

/// The op sequence of one inner-loop iteration: a [`Site`]'s record, or
/// an [`OpTape`] pattern. See the [module docs](self).
///
/// Alongside the ordered sequence (the charge order a scalar-mode
/// iteration must follow) the bundle maintains per-`(phase, op)`
/// aggregate counts, so bulk charging and cost totals are O(op classes)
/// however long the sequence grows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpBundle {
    seq: Vec<BundleOp>,
    counts: OpCounts,
    /// Total ops, kept with `counts`.
    len: u64,
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
            len: 0,
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
        self.len += count;
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
        self.len
    }
}

/// Total ops in a counts table.
pub(crate) fn counts_len(counts: &OpCounts) -> u64 {
    counts.iter().flatten().sum()
}

/// Adds `n` iterations of `bundle` to a counts table.
#[cfg(debug_assertions)]
pub(crate) fn add_counts(into: &mut OpCounts, bundle: &OpBundle, n: u64) {
    for (row, add) in into.iter_mut().zip(bundle.counts()) {
        for (c, a) in row.iter_mut().zip(add) {
            *c += n * a;
        }
    }
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

/// A pattern registered with an [`OpTape`]: the handle
/// [`OpTape::repeat`] records it by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternId(usize);

/// A recorded op tape: the ordered ops a side-effect-free body would
/// have consumed, as single-op runs and pattern repeats. See the
/// [module docs](self).
///
/// Alongside the ordered runs (needed only for the in-order replay on a
/// shortfall) the tape keeps the aggregate counts of its single-op runs
/// and the total repeats of each pattern, with the list of patterns the
/// tape repeats since its last clear: folding the tape, and clearing it,
/// cost the few patterns a body repeated, not every pattern registered.
#[derive(Debug, Default)]
pub struct OpTape {
    runs: Vec<TapeRun>,
    /// The registered patterns, each with its repeats since the last
    /// clear.
    patterns: Vec<(OpBundle, u64)>,
    /// The patterns with repeats since the last clear, in first-repeat
    /// order.
    used: Vec<usize>,
    /// Aggregate counts of the single-op runs.
    singles: OpCounts,
}

impl OpTape {
    /// An empty tape with no patterns registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pattern — an op sequence the body repeats — and
    /// returns its handle. Patterns stay registered across
    /// [`OpTape::clear`].
    pub fn register(&mut self, pattern: OpBundle) -> PatternId {
        self.patterns.push((pattern, 0));
        PatternId(self.patterns.len() - 1)
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

    /// Records `n` repeats of a registered pattern, merged with a tail
    /// run of the same pattern.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` was registered with another tape that has
    /// fewer patterns.
    #[inline]
    pub fn repeat(&mut self, pattern: PatternId, n: u64) {
        if n == 0 {
            return;
        }
        let k = pattern.0;
        match self.runs.last_mut() {
            Some(TapeRun::Repeat {
                pattern: last,
                n: m,
            }) if *last == k => *m += n,
            _ => self.runs.push(TapeRun::Repeat { pattern: k, n }),
        }
        let total = &mut self.patterns[k].1;
        if *total == 0 {
            self.used.push(k);
        }
        *total += n;
    }

    /// The ordered runs.
    pub(crate) fn runs(&self) -> &[TapeRun] {
        &self.runs
    }

    /// The pattern a [`TapeRun::Repeat`] refers to.
    pub(crate) fn pattern(&self, k: usize) -> &OpBundle {
        &self.patterns[k].0
    }

    /// Empties the tape for reuse. Capacity and the registered patterns
    /// stay; only the patterns repeated since the last clear are reset.
    pub fn clear(&mut self) {
        self.runs.clear();
        for k in self.used.drain(..) {
            self.patterns[k].1 = 0;
        }
        self.singles = [[0; Op::COUNT]; 2];
    }

    /// Aggregate per-`(phase, op)` counts of the whole tape, folded once
    /// per pattern repeated.
    pub(crate) fn counts(&self) -> OpCounts {
        let mut counts = self.singles;
        for &k in &self.used {
            let (pattern, n) = &self.patterns[k];
            for e in pattern.ops() {
                counts[e.phase.index()][e.op.index()] += e.count * n;
            }
        }
        counts
    }
}

// ----- the bundled-loop driver ---------------------------------------

/// Where a bundled loop keeps the [`OpBundle`] of one iteration shape:
/// empty until [`Device::run_shaped`] records it from the first completed
/// iteration of that shape, then reused by every later call. See the
/// [module docs](self).
///
/// A site belongs to one loop *variant* and shape: every iteration run
/// against it must charge the same op sequence. Loops whose sequence
/// depends on something fixed per call (a first or later pass, a layer's
/// geometry) keep one site per variant; a site shared by two variants
/// funds one from the other's record.
#[derive(Clone, Debug, Default)]
pub struct Site(Option<OpBundle>);

impl Site {
    /// The recorded bundle; `None` until an iteration has completed.
    pub fn bundle(&self) -> Option<&OpBundle> {
        self.0.as_ref()
    }
}

/// A funded run planned and charged by [`Device::fund_run`].
pub(crate) struct FundedRun {
    /// Iterations funded.
    pub(crate) iters: u32,
    /// The predicted shape of the first unfunded iteration, when the run
    /// stopped before the end of the range.
    pub(crate) next: Option<usize>,
}

impl Device {
    /// Runs the loop `for i in range { body(step, i)? }` under bundled
    /// accounting, every iteration one shape: the one-shape case of
    /// [`Device::run_shaped`]. While `site` is empty the driver records
    /// its bundle from the body, then runs each index in funded or scalar
    /// mode against it (see the [module docs](self)). Indices are visited
    /// in ascending order with no gaps, so a body may carry incremental
    /// state across them.
    ///
    /// A body error propagates at once. In funded mode that means the
    /// rest of the funded run stays charged but does not execute; a body
    /// may use this to end a scan early. In a recording or scalar-mode
    /// iteration only the ops before the error are charged.
    ///
    /// The driver calls the body from its funded loop and from its
    /// scalar-mode step; mark the body closure `#[inline(always)]` so the
    /// compiler inlines it at both and drops every mode check from the
    /// funded loop (a body that is not inlined still runs exactly, only
    /// slower).
    ///
    /// ```
    /// use mcu::{Device, DeviceSpec, Op, PowerSystem, Site};
    ///
    /// let mut dev = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::continuous());
    /// let w = dev.fram_alloc(1000).unwrap();
    /// let mut site = Site::default();
    /// let mut sum = 0i64;
    /// // One iteration: read a weight, multiply-accumulate, bump the index.
    /// dev.run_bundled(&mut site, 0..1000, #[inline(always)] |s, i| {
    ///     sum += i64::from(s.read(w, i)?.raw());
    ///     s.op(Op::FxpMul)?;
    ///     s.op(Op::Incr)
    /// })
    /// .unwrap();
    /// assert_eq!(sum, 0);
    /// assert_eq!(dev.trace().op_count(Op::FramRead), 1000);
    /// // Index 0 ran in scalar mode and recorded the bundle that funded
    /// // the other 999.
    /// assert_eq!(site.bundle().unwrap().len(), 3);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the device is off, a recording or
    /// scalar-mode iteration browns out, or the body fails.
    #[inline(always)]
    pub fn run_bundled<F>(
        &mut self,
        site: &mut Site,
        range: Range<u32>,
        mut body: F,
    ) -> Result<(), PowerFailure>
    where
        F: FnMut(&mut Step<'_>, u32) -> Result<(), PowerFailure>,
    {
        self.run_shaped(
            std::array::from_mut(site),
            range,
            &mut (),
            #[inline(always)]
            |_, (), _| Some(0),
            #[inline(always)]
            |s, (), i| body(s, i),
        )
    }

    /// Runs the loop `for i in range { body(step, cursor, i)? }` under
    /// bundled accounting, each iteration one of `N` shapes with a
    /// [`Site`] each (see the [module docs](self)).
    ///
    /// `cursor` is the state the body carries from one index to the next
    /// (a column, an entry cursor). Before an index runs, the driver calls
    /// `shape(dev, cursor, i)` on a copy of the cursor: the predictor
    /// returns the iteration's shape — an index into `sites`, or `None`
    /// for one that always runs in scalar mode — and advances the copy to
    /// the state the body will leave. It must read device memory only
    /// through peeks, at the words the body is about to read, so its
    /// prediction sees every injected fault the body will. The predictor
    /// runs exactly once per index, in order, before the index runs; each
    /// funded run starts it from the body's own cursor.
    ///
    /// Indices are visited in ascending order with no gaps. Errors
    /// propagate as in [`Device::run_bundled`].
    ///
    /// ```
    /// use mcu::{Device, DeviceSpec, Op, PowerSystem, Site};
    ///
    /// let mut dev = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::continuous());
    /// let flags = dev.fram_alloc(100).unwrap();
    /// for i in (0..100).step_by(7) {
    ///     dev.write(flags, i, fxp::Q15::HALF).unwrap();
    /// }
    /// let before = dev.trace().op_count(Op::FramRead);
    /// // Shape 0 reads a flag; shape 1, a set flag, also pays a multiply.
    /// let mut sites: [Site; 2] = Default::default();
    /// let mut hits = 0u32;
    /// dev.run_shaped(
    ///     &mut sites,
    ///     0..100,
    ///     &mut hits,
    ///     #[inline(always)]
    ///     |d, hits, i| {
    ///         let set = d.peek_at(flags.addr(i)).raw() != 0;
    ///         *hits += u32::from(set);
    ///         Some(usize::from(set))
    ///     },
    ///     #[inline(always)]
    ///     |s, hits, i| {
    ///         if s.read(flags, i)?.raw() != 0 {
    ///             s.op(Op::FxpMul)?;
    ///             *hits += 1;
    ///         }
    ///         Ok(())
    ///     },
    /// )
    /// .unwrap();
    /// assert_eq!(hits, 15);
    /// assert_eq!(dev.trace().op_count(Op::FramRead) - before, 100);
    /// assert_eq!(dev.trace().op_count(Op::FxpMul), 15);
    /// assert_eq!(sites[1].bundle().unwrap().len(), 2);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the device is off, a recording or
    /// scalar-mode iteration browns out, or the body fails.
    ///
    /// # Panics
    ///
    /// Panics if `shape` returns an index outside `sites`.
    #[inline(always)]
    pub fn run_shaped<const N: usize, C, P, F>(
        &mut self,
        sites: &mut [Site; N],
        range: Range<u32>,
        cursor: &mut C,
        mut shape: P,
        mut body: F,
    ) -> Result<(), PowerFailure>
    where
        C: Copy + PartialEq + std::fmt::Debug,
        P: FnMut(&Device, &mut C, u32) -> Option<usize>,
        F: FnMut(&mut Step<'_>, &mut C, u32) -> Result<(), PowerFailure>,
    {
        let Range { mut start, end } = range;
        while start < end {
            let mut planned = *cursor;
            let run = self.fund_run(
                sites.each_ref().map(Site::bundle),
                start..end,
                &mut planned,
                &mut shape,
            )?;
            if run.iters > 0 {
                let mut s = Step::new(self, true);
                let mut r = Ok(());
                for i in start..start + run.iters {
                    r = body(&mut s, cursor, i);
                    if r.is_err() {
                        break;
                    }
                }
                s.settle();
                r?;
                debug_assert_eq!(
                    *cursor, planned,
                    "a funded run ended off the predicted cursor: the shape predictor and \
                     the loop body disagree"
                );
                start += run.iters;
            }
            if start < end {
                let site = run.next.map(|k| &mut sites[k]);
                // Record the iteration to fill an empty site, and in debug
                // builds to check it against a recorded one.
                let record = site
                    .as_ref()
                    .is_some_and(|s| cfg!(debug_assertions) || s.0.is_none());
                let outer = record.then(|| self.record.replace(Box::default()));
                let faults = self.mem_faults_injected();
                let r = body(&mut Step::new(self, false), cursor, start);
                if let (Some(outer), Some(site)) = (outer, site) {
                    let rec = self.close_record(outer);
                    // A memory fault inside the iteration may have sent it
                    // down another shape's path than the one predicted.
                    if N == 1 || self.mem_faults_injected() == faults {
                        match &site.0 {
                            None if r.is_ok() => site.0 = Some(*rec),
                            None => {}
                            #[cfg(debug_assertions)]
                            Some(bundle) => check_tail(bundle, &rec, r.is_ok()),
                            #[cfg(not(debug_assertions))]
                            Some(_) => {}
                        }
                    }
                }
                r?;
                start += 1;
            }
        }
        Ok(())
    }

    /// A scalar-mode [`Step`] outside any bundled loop: every call
    /// charges, exactly like the device's own methods. For task code
    /// that calls a helper written against `Step` — a kernel that
    /// bundled bodies run too.
    pub fn step(&mut self) -> Step<'_> {
        Step::new(self, false)
    }

    /// Closes the open iteration record and reopens `outer`, the
    /// enclosing scalar-mode iteration's, which also gets the closed
    /// record's charges (a nested loop's charges are also its parent's).
    fn close_record(&mut self, outer: Option<Box<OpBundle>>) -> Box<OpBundle> {
        let rec = std::mem::replace(&mut self.record, outer).expect("an open record");
        if let Some(outer) = &mut self.record {
            for e in rec.ops() {
                outer.push_n(e.op, e.phase, e.count);
            }
        }
        rec
    }
}

/// Debug builds: checks the record of a scalar-mode iteration against
/// its predicted shape's bundle.
#[cfg(debug_assertions)]
fn check_tail(bundle: &OpBundle, rec: &OpBundle, completed: bool) {
    let (got, want) = (rec.ops(), bundle.ops());
    let ok = if completed {
        got == want
    } else {
        got.split_last().is_none_or(|(last, head)| {
            want.get(..head.len()) == Some(head)
                && want.get(head.len()).is_some_and(|w| {
                    (w.op, w.phase) == (last.op, last.phase) && last.count <= w.count
                })
        })
    };
    assert!(
        ok,
        "a scalar-mode iteration charged {got:?}, which is not {} of its bundle {want:?}",
        if completed {
            "the sequence"
        } else {
            "a prefix"
        }
    );
}

/// How many distinct words one funded run may hold [`Step::store_last`]
/// values for.
const LAST_STORES: usize = 4;

/// A funded run's [`Step::store_last`] values: the latest per word,
/// landed when the run settles. The device holds them rather than the
/// [`Step`], so a step stays small enough to live in registers in the
/// many loops that never make such a store.
#[derive(Clone, Debug, Default)]
pub(crate) struct LastStores {
    /// `(raw FRAM address, value)` in the first `n` slots.
    slots: [(u32, u16); LAST_STORES],
    n: usize,
    /// The slot the next store most likely goes to: a body stores its
    /// words in the same order every iteration.
    next: usize,
}

impl LastStores {
    /// Keeps `v` as the run's last value for the word at `a`.
    #[inline]
    fn keep(&mut self, a: u32, v: u16) {
        let i = self.next;
        if i < self.n && self.slots[i].0 == a {
            self.set(i, v);
        } else {
            self.keep_off_turn(a, v);
        }
    }

    /// [`LastStores::keep`] off the predicted slot: finds or opens the
    /// word's slot.
    #[cold]
    #[inline(never)]
    fn keep_off_turn(&mut self, a: u32, v: u16) {
        let n = self.n;
        let i = self.slots[..n]
            .iter()
            .position(|s| s.0 == a)
            .unwrap_or_else(|| {
                assert!(
                    n < LAST_STORES,
                    "a funded run stores to more than {LAST_STORES} last-value words"
                );
                self.slots[n].0 = a;
                self.n = n + 1;
                n
            });
        self.set(i, v);
    }

    #[inline]
    fn set(&mut self, i: usize, v: u16) {
        self.slots[i].1 = v;
        self.next = if i + 1 == self.n { 0 } else { i + 1 };
    }
}

impl Device {
    /// Lands and clears a funded run's [`Step::store_last`] values.
    #[cold]
    fn land_last_stores(&mut self) {
        let n = std::mem::take(&mut self.last_stores.n);
        self.last_stores.next = 0;
        for i in 0..n {
            let (a, v) = self.last_stores.slots[i];
            self.prepaid_write_at(NvAddr::word(a), Q15::from_raw(v as i16));
        }
    }
}

/// One iteration's handle on the device inside [`Device::run_shaped`]:
/// every metered operation a loop body performs goes through it. The
/// driver picks the mode; in funded mode every call is uncharged (the
/// bundle already paid), in scalar mode every call charges exactly like
/// the [`Device`] method it names.
#[derive(Debug)]
pub struct Step<'d> {
    dev: &'d mut Device,
    pub(crate) funded: bool,
    /// Funded mode: the run's latest loop-continuation store, landed once
    /// when the run ends.
    last_checkpoint: Option<(FramWord, u16)>,
    /// Funded mode: the run's progress beacons, added once when it ends.
    beacons: u64,
}

/// [`Step`] calls that mirror a [`Device`] method: scalar mode calls the
/// method, funded mode performs its effect uncharged.
macro_rules! step_calls {
    ($($(#[$doc:meta])* $name:ident => $method:ident($($arg:ident: $ty:ty),*) -> $ret:ty,
        |$d:ident| $funded:expr;)*) => {$(
        $(#[$doc])*
        ///
        /// # Errors
        ///
        /// Returns [`PowerFailure`] on brown-out (scalar mode only).
        #[inline]
        pub fn $name(&mut self, $($arg: $ty),*) -> Result<$ret, PowerFailure> {
            if self.funded {
                let $d = &mut *self.dev;
                Ok($funded)
            } else {
                self.dev.$method($($arg),*)
            }
        }
    )*};
}

impl<'d> Step<'d> {
    fn new(dev: &'d mut Device, funded: bool) -> Self {
        Step {
            dev,
            funded,
            last_checkpoint: None,
            beacons: 0,
        }
    }

    /// Lands a funded run's last-value stores and beacons.
    #[inline]
    fn settle(self) {
        if let Some((w, v)) = self.last_checkpoint {
            self.dev.prepaid_store_word(w, v);
        }
        if self.dev.last_stores.n > 0 {
            self.dev.land_last_stores();
        }
        if self.beacons > 0 {
            self.dev.mark_progress_n(self.beacons);
        }
    }

    step_calls! {
        /// One op with no memory effect ([`Device::consume`]).
        op => consume(op: Op) -> (), |_d| ();
        /// `n` ops of one class ([`Device::consume_n`]).
        op_n => consume_n(op: Op, n: u64) -> (), |_d| ();
        /// [`Device::read`].
        read => read(buf: FramBuf, i: u32) -> Q15, |d| d.prepaid_read(buf, i);
        /// [`Device::write`].
        write => write(buf: FramBuf, i: u32, v: Q15) -> (), |d| d.prepaid_write(buf, i, v);
        /// [`Device::write_at`].
        write_at => write_at(addr: NvAddr, v: Q15) -> (), |d| d.prepaid_write_at(addr, v);
        /// [`Device::store_word`].
        store_word => store_word(w: FramWord, v: u16) -> (), |d| d.prepaid_store_word(w, v);
        /// [`Device::sram_read`].
        sram_read => sram_read(buf: SramBuf, i: u32) -> Q15, |d| d.prepaid_sram_read(buf, i);
        /// [`Device::sram_write`].
        sram_write => sram_write(buf: SramBuf, i: u32, v: Q15) -> (),
            |d| d.prepaid_sram_write(buf, i, v);
        /// [`Device::sram_read_block`].
        sram_read_block => sram_read_block(buf: SramBuf, offset: u32, out: &mut [Q15]) -> (),
            |d| for (i, slot) in (offset..).zip(out) {
                *slot = d.prepaid_sram_read(buf, i);
            };
        /// [`Device::sram_write_block`].
        sram_write_block => sram_write_block(buf: SramBuf, offset: u32, data: &[Q15]) -> (),
            |d| for (i, &v) in (offset..).zip(data) {
                d.prepaid_sram_write(buf, i, v);
            };
        /// [`Device::dma_fram_to_sram`].
        dma_fram_to_sram => dma_fram_to_sram(src: FramBuf, dst: SramBuf) -> (),
            |d| d.dma_in(src, dst, src.len() as usize);
        /// [`Device::dma_sram_to_fram`].
        dma_sram_to_fram => dma_sram_to_fram(src: SramBuf, dst: FramBuf) -> (),
            |d| d.dma_out(src, dst, src.len() as usize);
        /// [`Device::lea_fir`].
        lea_fir => lea_fir(src: SramBuf, taps: SramBuf, out: SramBuf) -> (),
            |d| d.fir_effect(src, taps, out);
        /// [`Device::lea_dot`].
        lea_dot => lea_dot(a: SramBuf, b: SramBuf) -> Accum, |d| d.dot_effect(a, b);
        /// [`Device::lea_add`].
        lea_add => lea_add(dst: SramBuf, src: SramBuf) -> (),
            |d| d.add_effect(dst, src, dst.len() as usize);
    }

    /// The loop-continuation store: writes the next loop index `v` to
    /// the control word `ctl`, charged to the control phase of the
    /// current region. In funded mode only the run's last store lands,
    /// once, when the run ends: after an uninterrupted run no earlier one
    /// is observable.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out (leaving the control phase
    /// current, like any failed control-phase op).
    #[inline]
    pub fn checkpoint(&mut self, ctl: FramWord, v: u16) -> Result<(), PowerFailure> {
        if self.funded {
            self.last_checkpoint = Some((ctl, v));
            return Ok(());
        }
        let (region, phase) = self.dev.context();
        self.dev.set_context(region, Phase::Control);
        self.dev.store_word(ctl, v)?;
        self.dev.set_context(region, phase);
        Ok(())
    }

    /// [`Device::store_word`] for a word the loop body never reads back:
    /// in funded mode only the run's last value per word lands, once,
    /// when the run ends (no brown-out or memory fault fires inside a
    /// funded run, so no earlier value is observable). A run may hold up
    /// to four such words; a body must not also write them through
    /// [`Step::store_word`] or [`Step::checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out (scalar mode only).
    ///
    /// # Panics
    ///
    /// Panics if one funded run stores to more than four such words.
    #[inline]
    pub fn store_last(&mut self, w: FramWord, v: u16) -> Result<(), PowerFailure> {
        if self.funded {
            self.dev.last_stores.keep(w.addr().index(), v);
            Ok(())
        } else {
            self.dev.store_word(w, v)
        }
    }

    /// One forward-progress beacon ([`Device::mark_progress`]); funded
    /// runs add theirs at once when the run ends.
    #[inline]
    pub fn progress(&mut self) {
        if self.funded {
            self.beacons += 1;
        } else {
            self.dev.mark_progress();
        }
    }

    /// The current accounting context ([`Device::context`]).
    pub fn context(&self) -> (RegionId, Phase) {
        self.dev.context()
    }

    /// Sets the accounting context ([`Device::set_context`]).
    pub fn set_context(&mut self, region: RegionId, phase: Phase) {
        self.dev.set_context(region, phase);
    }

    /// Reports a detected corruption ([`Device::note_corruption`]; free
    /// in both modes).
    pub fn note_corruption(&mut self, region: RegionId) -> bool {
        self.dev.note_corruption(region)
    }

    /// A loop nested in this iteration. In funded mode the enclosing
    /// bundle already charged it, so it runs uncharged; in scalar mode it
    /// gets its own driver and a fresh [`Site`], so its first iteration
    /// records the bundle that funds the rest of this call.
    ///
    /// # Errors
    ///
    /// As [`Device::run_bundled`].
    #[inline(always)]
    pub fn run_bundled<F>(&mut self, range: Range<u32>, mut body: F) -> Result<(), PowerFailure>
    where
        F: FnMut(&mut Step<'_>, u32) -> Result<(), PowerFailure>,
    {
        if self.funded {
            for i in range {
                body(self, i)?;
            }
            Ok(())
        } else {
            self.dev.run_bundled(&mut Site::default(), range, body)
        }
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
    fn tape_merges_runs_and_folds_pattern_counts() {
        let mut pat = OpBundle::new();
        pat.push_n(Op::FramRead, Phase::Kernel, 2);
        pat.push(Op::Incr, Phase::Kernel);
        let mut t = OpTape::new();
        let twin = t.register(pat.clone()); // equal, but a distinct pattern
        let pat = t.register(pat);
        t.register(pat_of(Op::Alu)); // registered, never repeated
        t.push(Op::Alu, Phase::Kernel);
        t.push_n(Op::Alu, Phase::Kernel, 2);
        t.repeat(pat, 1);
        t.repeat(pat, 3);
        t.repeat(twin, 1);
        t.repeat(pat, 0); // no-op
        t.push(Op::Incr, Phase::Kernel);
        t.repeat(pat, 2); // a later run of an already-repeated pattern
        assert_eq!(t.runs().len(), 5);
        assert!(matches!(t.runs()[1], TapeRun::Repeat { pattern: 1, n: 4 }));
        assert!(matches!(t.runs()[2], TapeRun::Repeat { pattern: 0, n: 1 }));
        assert!(matches!(t.runs()[4], TapeRun::Repeat { pattern: 1, n: 2 }));
        assert_eq!(t.used, [1, 0], "the idle pattern is never folded");
        let c = t.counts();
        assert_eq!(c[Phase::Kernel.index()][Op::Alu.index()], 3);
        assert_eq!(c[Phase::Kernel.index()][Op::FramRead.index()], 14);
        assert_eq!(c[Phase::Kernel.index()][Op::Incr.index()], 8);
        assert_eq!(counts_len(&c), 25);
    }

    fn pat_of(op: Op) -> OpBundle {
        let mut b = OpBundle::new();
        b.push(op, Phase::Kernel);
        b
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut t = OpTape::new();
        let p = t.register(pat_of(Op::Alu));
        t.push_n(Op::Alu, Phase::Kernel, 4);
        t.repeat(p, 2);
        let cap = t.runs.capacity();
        t.clear();
        assert!(t.runs().is_empty());
        assert!(t.used.is_empty());
        assert_eq!(t.patterns.len(), 1, "patterns stay registered");
        assert_eq!(t.patterns[0].1, 0, "repeats reset");
        assert_eq!(t.runs.capacity(), cap);
        assert_eq!(counts_len(&t.counts()), 0);
        t.repeat(p, 1);
        assert_eq!(
            counts_len(&t.counts()),
            1,
            "a cleared pattern repeats again"
        );
    }
}
