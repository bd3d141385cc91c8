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
//! unless a memory fault fired inside the iteration (a flipped word may
//! change the path the prediction saw, or a length it peeked; such an
//! iteration also records nothing, in every build); it
//! asserts that the body ends each funded run on the cursor the predictor
//! reached; and it asserts that the run's bulk charge equals its
//! iterations' bundles summed one by one. Trace cells are plain
//! accumulators, so charging `n` iterations of each `(phase, op)` entry in
//! bulk produces bit-identical totals to `n` interleaved scalar charges.
//! The root `bundles` test suite pins this equivalence against digests
//! recorded from the scalar implementation.
//!
//! # Taped bodies
//!
//! A task body with **no durable side effects** until a later commit
//! (an Alpaca redo-log body) runs host-side through a [`Taped`] handle
//! and settles its charge once, at its end ([`Device::run_tape`]). The
//! handle drives each access's effect and records the ops it would have
//! consumed. A loop iteration runs at a [`Site`] per shape, named by the
//! caller before the iteration runs: its first iteration records the
//! site's bundle, and each later one records one repeat of that site
//! (debug builds also record it op by op and check it against the
//! bundle, as [`Device::run_shaped`] checks a scalar-mode iteration).
//! The other ops record as single runs.
//!
//! Besides the ordered record, the handle keeps running totals: a repeat
//! count per site, and every op outside an iteration in one dense
//! [`Charge`], priced as it is added. Each site priced its bundle when it
//! recorded it, so the settle's funding decision is arithmetic over the
//! used sites — the charge's op count and energy plus each used site's
//! per-iteration price times its repeats — and its trace charge adds the
//! charge's counts and each used site's nonzero counts once. That is one
//! [`Device::fund_whole`], taken when the buffer covers the body and no
//! armed fault target lies inside it; debug builds first check the
//! running totals against a walk of the record. Otherwise the settle
//! replays the record in order through the scalar charge, so a brown-out
//! lands on exactly the op a scalar execution would have died on, and a
//! memory fault fires there, after the body has read memory. Each run of
//! site repeats replays as a [`Device::run_bundled`] loop over its site,
//! whose body charges the site's bundle through its [`Step`]: the driver
//! funds whole repeats while they fit and steps the first that does not
//! op by op, as it runs any bundled loop.
//!
//! # Whole sequences
//!
//! A fixed op sequence that no brown-out or fault can interrupt — the
//! Alpaca commit, when the buffer covers it — needs no record at all:
//! [`Device::fund_whole`] charges it in one funding decision and lands
//! its stores. The sequence is a dense [`Charge`] plus repeats of
//! recorded sites; the commit prices its fixed part (the flag raise and
//! lower, its bookkeeping, the transition) once per runtime, and its walk
//! is the walk site's bundle repeated once per log entry.

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

/// The op sequence of one inner-loop iteration: a [`Site`]'s record. See
/// the [module docs](self).
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
    /// entry when it matches).
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

    /// Empties the bundle, keeping its capacity.
    fn clear(&mut self) {
        self.seq.clear();
        self.counts = [[0; Op::COUNT]; 2];
        self.len = 0;
    }
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
///
/// When a site records its bundle it also prices it: one iteration's op
/// count and energy under the recording device's cost table, which every
/// funding decision reads instead of re-pricing the bundle, and its
/// nonzero `(phase, op)` counts, which every trace charge walks. A site
/// belongs to devices of one [`crate::DeviceSpec`]; debug builds check
/// the cached price at every use.
#[derive(Clone, Debug, Default)]
pub struct Site(Option<Recorded>);

/// A site's bundle and its price.
#[derive(Clone, Debug)]
struct Recorded {
    bundle: OpBundle,
    energy_pj: u64,
    /// The bundle's nonzero counts, in `(phase, op)` order.
    cells: Vec<Cell>,
}

/// One nonzero `(phase, op)` count of a recorded bundle.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    pub(crate) phase: Phase,
    pub(crate) op: Op,
    pub(crate) count: u64,
}

impl Site {
    /// The recorded bundle; `None` until an iteration has completed.
    pub fn bundle(&self) -> Option<&OpBundle> {
        self.0.as_ref().map(|r| &r.bundle)
    }

    /// One iteration's `(ops, energy_pj)`, priced when the site recorded
    /// its bundle; `None` while it is empty.
    #[inline]
    pub(crate) fn cost(&self, costs: &CostTable) -> Option<(u64, u64)> {
        let r = self.0.as_ref()?;
        debug_assert_eq!(
            r.energy_pj,
            counts_cost(r.bundle.counts(), costs).1,
            "a site priced under another cost table"
        );
        Some((r.bundle.len(), r.energy_pj))
    }

    /// The recorded bundle's nonzero `(phase, op)` counts; empty while
    /// the site is.
    #[inline]
    pub(crate) fn cells(&self) -> &[Cell] {
        self.0.as_ref().map_or(&[], |r| &r.cells)
    }

    /// Records `bundle` as the site's, priced under `costs`.
    fn fill(&mut self, bundle: OpBundle, costs: &CostTable) {
        let energy_pj = counts_cost(bundle.counts(), costs).1;
        let mut cells = Vec::new();
        for phase in Phase::ALL {
            for op in Op::ALL {
                let count = bundle.counts()[phase.index()][op.index()];
                if count > 0 {
                    cells.push(Cell { phase, op, count });
                }
            }
        }
        self.0 = Some(Recorded {
            bundle,
            energy_pj,
            cells,
        });
    }
}

/// A dense op charge at one accounting phase: a count per op class, with
/// the total and its energy under a cost table kept current as ops are
/// added. With a few site repeats it is everything
/// [`Device::fund_whole`] charges at once — a taped body's ops outside
/// its iterations, or the Alpaca commit's fixed part — so the funding
/// decision is a few additions, not a walk over the ops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Charge {
    counts: [u64; Op::COUNT],
    len: u64,
    energy_pj: u64,
}

impl Default for Charge {
    fn default() -> Self {
        Self::new()
    }
}

impl Charge {
    /// No ops.
    pub const fn new() -> Self {
        Charge {
            counts: [0; Op::COUNT],
            len: 0,
            energy_pj: 0,
        }
    }

    /// Adds `n` ops of class `op`, priced under `costs`.
    #[inline(always)]
    pub fn add(&mut self, op: Op, n: u64, costs: &CostTable) {
        self.counts[op.index()] += n;
        self.len += n;
        self.energy_pj += n * costs.cost(op).energy_pj;
    }

    /// Total ops.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the charge holds no ops.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ops of each class, indexed by [`Op::index`].
    pub(crate) fn counts(&self) -> &[u64; Op::COUNT] {
        &self.counts
    }

    /// The energy of every op, priced as they were added.
    pub(crate) fn energy_pj(&self) -> u64 {
        self.energy_pj
    }

    /// Empties the charge.
    fn clear(&mut self) {
        *self = Self::new();
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
            let run = self.fund_run(sites, start..end, &mut planned, &mut shape)?;
            if run.iters > 0 {
                let iters = start..start + run.iters;
                // One copy of the funded loop per watch state, so that an
                // unwatched device's funded accesses carry no watch test.
                if self.watched() {
                    Step::new(self, Mode::FundedWatched).run_funded(iters, cursor, &mut body)?;
                } else {
                    Step::new(self, Mode::Funded).run_funded(iters, cursor, &mut body)?;
                }
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
                let r = body(&mut Step::new(self, Mode::Scalar), cursor, start);
                if let (Some(outer), Some(site)) = (outer, site) {
                    let rec = self.close_record(outer);
                    // A memory fault inside the iteration may have sent it
                    // down another path than the one predicted: another
                    // shape's, or a data-dependent length the predictor
                    // peeked before the fault landed.
                    if self.mem_faults_injected() == faults {
                        match site.bundle() {
                            None if r.is_ok() => site.fill(*rec, &self.spec().costs),
                            None => {}
                            #[cfg(debug_assertions)]
                            Some(bundle) => {
                                check_tail("a scalar-mode", bundle, &rec, r.is_ok());
                            }
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
        Step::new(self, Mode::Scalar)
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

/// Debug builds: checks the record of a scalar-mode or taped iteration
/// (`what`) against its shape's bundle.
#[cfg(debug_assertions)]
fn check_tail(what: &str, bundle: &OpBundle, rec: &OpBundle, completed: bool) {
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
        "{what} iteration charged {got:?}, which is not {} of its bundle {want:?}",
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
        let watched = self.watched();
        for i in 0..n {
            let (a, v) = self.last_stores.slots[i];
            self.prepaid_write_at(NvAddr::word(a), Q15::from_raw(v as i16), watched);
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
    mode: Mode,
    /// Funded mode: the run's latest loop-continuation store, landed once
    /// when the run ends.
    last_checkpoint: Option<(FramWord, u16)>,
    /// Funded mode: the run's progress beacons, added once when it ends.
    beacons: u64,
}

/// A [`Step`]'s mode. Funded mode comes in two, after whether a
/// first-access watch is armed ([`Device::arm_watch`]), so that a funded
/// access of an unwatched device tests the mode once and the watch not
/// at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Scalar,
    Funded,
    FundedWatched,
}

/// [`Step`] calls that mirror a [`Device`] method: scalar mode calls the
/// method, funded mode performs its effect uncharged (`$w` tells a FRAM
/// access whether to report to the watch).
macro_rules! step_calls {
    ($($(#[$doc:meta])* $name:ident => $method:ident($($arg:ident: $ty:ty),*) -> $ret:ty,
        |$d:ident, $w:ident| $funded:expr;)*) => {$(
        $(#[$doc])*
        ///
        /// # Errors
        ///
        /// Returns [`PowerFailure`] on brown-out (scalar mode only).
        #[inline(always)]
        pub fn $name(&mut self, $($arg: $ty),*) -> Result<$ret, PowerFailure> {
            match self.mode {
                Mode::Funded => {
                    let $d = &mut *self.dev;
                    let $w = false;
                    Ok($funded)
                }
                Mode::FundedWatched => {
                    let $d = &mut *self.dev;
                    let $w = true;
                    Ok($funded)
                }
                Mode::Scalar => self.dev.$method($($arg),*),
            }
        }
    )*};
}

impl<'d> Step<'d> {
    /// A step in `mode`, which the funded loop passes as a constant.
    #[inline(always)]
    fn new(dev: &'d mut Device, mode: Mode) -> Self {
        debug_assert!(
            mode == Mode::Scalar || (mode == Mode::FundedWatched) == dev.watched(),
            "a funded step's mode disagrees with the device's watch"
        );
        Step {
            dev,
            mode,
            last_checkpoint: None,
            beacons: 0,
        }
    }

    /// `true` in funded mode.
    #[inline(always)]
    pub(crate) fn funded(&self) -> bool {
        self.mode != Mode::Scalar
    }

    /// Runs the funded iterations `iters` of a [`Device::run_shaped`]
    /// body, then lands their deferred stores. A body error ends the run
    /// at once.
    #[inline(always)]
    fn run_funded<C, F>(
        mut self,
        iters: Range<u32>,
        cursor: &mut C,
        body: &mut F,
    ) -> Result<(), PowerFailure>
    where
        F: FnMut(&mut Step<'_>, &mut C, u32) -> Result<(), PowerFailure>,
    {
        let mut r = Ok(());
        for i in iters {
            r = body(&mut self, cursor, i);
            if r.is_err() {
                break;
            }
        }
        self.settle();
        r
    }

    /// Lands a funded run's last-value stores and beacons.
    #[inline]
    fn settle(self) {
        if let Some((w, v)) = self.last_checkpoint {
            let watched = self.mode == Mode::FundedWatched;
            self.dev.prepaid_store_word(w, v, watched);
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
        op => consume(op: Op) -> (), |_d, _w| ();
        /// `n` ops of one class ([`Device::consume_n`]).
        op_n => consume_n(op: Op, n: u64) -> (), |_d, _w| ();
        /// [`Device::read`].
        read => read(buf: FramBuf, i: u32) -> Q15, |d, w| d.prepaid_read(buf, i, w);
        /// [`Device::write`].
        write => write(buf: FramBuf, i: u32, v: Q15) -> (), |d, w| d.prepaid_write(buf, i, v, w);
        /// [`Device::write_at`].
        write_at => write_at(addr: NvAddr, v: Q15) -> (), |d, w| d.prepaid_write_at(addr, v, w);
        /// [`Device::store_word`].
        store_word => store_word(w: FramWord, v: u16) -> (),
            |d, watched| d.prepaid_store_word(w, v, watched);
        /// [`Device::sram_read`].
        sram_read => sram_read(buf: SramBuf, i: u32) -> Q15, |d, _w| d.prepaid_sram_read(buf, i);
        /// [`Device::sram_write`].
        sram_write => sram_write(buf: SramBuf, i: u32, v: Q15) -> (),
            |d, _w| d.prepaid_sram_write(buf, i, v);
        /// [`Device::sram_read_block`].
        sram_read_block => sram_read_block(buf: SramBuf, offset: u32, out: &mut [Q15]) -> (),
            |d, _w| for (i, slot) in (offset..).zip(out) {
                *slot = d.prepaid_sram_read(buf, i);
            };
        /// [`Device::sram_write_block`].
        sram_write_block => sram_write_block(buf: SramBuf, offset: u32, data: &[Q15]) -> (),
            |d, _w| for (i, &v) in (offset..).zip(data) {
                d.prepaid_sram_write(buf, i, v);
            };
        /// [`Device::dma_fram_to_sram`].
        dma_fram_to_sram => dma_fram_to_sram(src: FramBuf, dst: SramBuf) -> (),
            |d, _w| d.dma_in(src, dst, src.len() as usize);
        /// [`Device::dma_sram_to_fram`].
        dma_sram_to_fram => dma_sram_to_fram(src: SramBuf, dst: FramBuf) -> (),
            |d, _w| d.dma_out(src, dst, src.len() as usize);
        /// [`Device::lea_fir`].
        lea_fir => lea_fir(src: SramBuf, taps: SramBuf, out: SramBuf) -> (),
            |d, _w| d.fir_effect(src, taps, out);
        /// [`Device::lea_dot`].
        lea_dot => lea_dot(a: SramBuf, b: SramBuf) -> Accum, |d, _w| d.dot_effect(a, b);
        /// [`Device::lea_add`].
        lea_add => lea_add(dst: SramBuf, src: SramBuf) -> (),
            |d, _w| d.add_effect(dst, src, dst.len() as usize);
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
        if self.funded() {
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
        if self.funded() {
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
        if self.funded() {
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
    pub fn run_bundled<F>(&mut self, range: Range<u32>, body: F) -> Result<(), PowerFailure>
    where
        F: FnMut(&mut Step<'_>, u32) -> Result<(), PowerFailure>,
    {
        self.run_at(&mut Site::default(), range, body)
    }

    /// [`Step::run_bundled`] against a [`Site`] the caller keeps, so a
    /// scalar-mode iteration's nested loop funds from a bundle an earlier
    /// call recorded: the MAC loop of a layer's outputs, say, whether the
    /// output runs funded or op by op.
    ///
    /// # Errors
    ///
    /// As [`Device::run_bundled`].
    #[inline(always)]
    pub fn run_at<F>(
        &mut self,
        site: &mut Site,
        range: Range<u32>,
        mut body: F,
    ) -> Result<(), PowerFailure>
    where
        F: FnMut(&mut Step<'_>, u32) -> Result<(), PowerFailure>,
    {
        if self.funded() {
            for i in range {
                body(self, i)?;
            }
            Ok(())
        } else {
            self.dev.run_bundled(site, range, body)
        }
    }
}

// ----- taped bodies ---------------------------------------------------

/// One run of a taped body's record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Run {
    /// `n` ops of one class, outside any iteration.
    Ops(Op, u64),
    /// A fixed op sequence ([`Taped::ops`]), outside any iteration.
    Seq(&'static [(Op, u64)]),
    /// Back-to-back repeats of one site's bundle.
    Repeat { site: usize, n: u64 },
}

/// The record of the taped body in flight, kept on the device between
/// bodies so its capacity persists.
///
/// Besides the ordered runs, which only the in-order replay reads, it
/// keeps running totals — the ops outside iterations as one dense
/// [`Charge`], and a repeat count per site — so the whole settle is a
/// [`Device::fund_whole`] of those, with no walk over the runs. Debug
/// builds check the totals against a walk at every settle.
#[derive(Clone, Debug, Default)]
pub(crate) struct TapeRecord {
    /// The body's ordered runs.
    runs: Vec<Run>,
    /// The ops of the iteration being recorded, or of the site whose
    /// repeats the settle replays.
    iter: OpBundle,
    /// Every op recorded outside an iteration.
    loose: Charge,
    /// Repeats recorded per site.
    repeats: Vec<u64>,
}

impl TapeRecord {
    /// Restarts the record for a body with `sites` iteration shapes.
    fn restart(&mut self, sites: usize) {
        self.runs.clear();
        self.loose.clear();
        self.repeats.clear();
        self.repeats.resize(sites, 0);
    }

    #[inline]
    fn push(&mut self, op: Op, n: u64, costs: &CostTable) {
        self.runs.push(Run::Ops(op, n));
        self.loose.add(op, n, costs);
    }

    /// Records a fixed op sequence outside any iteration.
    #[inline(always)]
    fn push_seq(&mut self, seq: &'static [(Op, u64)], costs: &CostTable) {
        self.runs.push(Run::Seq(seq));
        for &(op, n) in seq {
            self.loose.add(op, n, costs);
        }
    }

    /// Records one repeat of site `k`.
    #[inline]
    fn repeat(&mut self, k: usize) {
        self.repeats[k] += 1;
        match self.runs.last_mut() {
            Some(Run::Repeat { site, n }) if *site == k => *n += 1,
            _ => self.runs.push(Run::Repeat { site: k, n: 1 }),
        }
    }

    /// Debug builds: the running totals are what a walk of the runs
    /// counts.
    #[cfg(debug_assertions)]
    fn check_totals(&self, costs: &CostTable) {
        let mut loose = Charge::new();
        let mut repeats = vec![0; self.repeats.len()];
        for &run in &self.runs {
            match run {
                Run::Ops(op, n) => loose.add(op, n, costs),
                Run::Seq(seq) => seq.iter().for_each(|&(op, n)| loose.add(op, n, costs)),
                Run::Repeat { site, n } => repeats[site] += n,
            }
        }
        assert_eq!(
            loose, self.loose,
            "a taped body's running totals drifted from its runs"
        );
        assert_eq!(
            repeats, self.repeats,
            "a taped body's repeat counts drifted from its runs"
        );
    }

    /// Closes an iteration that recorded itself: fills an empty site from
    /// the record or (debug builds) checks the record against the site's
    /// bundle, then records the iteration.
    fn close_iteration(&mut self, site: &mut Site, k: usize, completed: bool, costs: &CostTable) {
        match site.bundle() {
            None if completed => site.fill(self.iter.clone(), costs),
            #[cfg(debug_assertions)]
            Some(bundle) => check_tail("a taped", bundle, &self.iter, completed),
            _ => {}
        }
        if completed {
            self.repeat(k);
        } else {
            let iter = std::mem::take(&mut self.iter);
            self.keep_prefix(&iter, u64::MAX, costs);
            self.iter = iter;
        }
    }

    /// Records the first `n` ops of `bundle` outside any iteration: what
    /// an iteration that failed after them charged.
    #[cold]
    fn keep_prefix(&mut self, bundle: &OpBundle, mut n: u64, costs: &CostTable) {
        for e in bundle.ops() {
            let k = e.count.min(n);
            if k == 0 {
                break;
            }
            self.push(e.op, k, costs);
            n -= k;
        }
    }
}

/// A taped task body's handle on the device inside [`Device::run_tape`]:
/// every access lands its effect host-side, uncharged, and records the
/// ops the settle charges. See the [module docs](self).
///
/// A loop iteration runs against a handle of its own, an [`Iteration`]
/// (`ITERATION = true`), so that each kind of handle compiles to its own
/// recording code.
#[derive(Debug)]
pub struct Taped<'a, const ITERATION: bool = false> {
    dev: &'a mut Device,
    sites: &'a mut [Site],
    rec: &'a mut TapeRecord,
    /// The accounting phase of every op the body records.
    phase: Phase,
    /// An iteration's: whether it records its ops (to fill or check its
    /// site) or only repeats its site.
    record: bool,
    /// A repeating iteration's ops so far.
    skipped: u64,
    /// Whether a first-access watch is armed, read once when the body
    /// starts: its accesses test this copy instead of the device.
    watched: bool,
}

/// The handle a [`Taped::iterate`] iteration runs against.
pub type Iteration<'a> = Taped<'a, true>;

impl Taped<'_> {
    /// A handle on the same body for one iteration; `watched` is the
    /// body's, passed as a constant by the repeating iteration.
    #[inline(always)]
    fn iteration(&mut self, record: bool, watched: bool) -> Iteration<'_> {
        debug_assert_eq!(watched, self.watched);
        Taped {
            dev: &mut *self.dev,
            sites: &mut *self.sites,
            rec: &mut *self.rec,
            phase: self.phase,
            record,
            skipped: 0,
            watched,
        }
    }

    /// Runs one loop iteration of shape `k`, an index into the body's
    /// sites, named before it runs. While site `k` is empty the iteration
    /// records its bundle; every later one records one repeat of it.
    /// Debug builds record every iteration and assert that it is its
    /// site's sequence (a prefix of it, if the iteration fails).
    ///
    /// The body is called from two places; mark it `#[inline(always)]`,
    /// so that a repeating iteration's op calls compile to register adds.
    ///
    /// # Errors
    ///
    /// Propagates the iteration's error; its ops up to the error stay
    /// recorded.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the body's sites.
    #[inline(always)]
    pub fn iterate<R>(
        &mut self,
        k: usize,
        body: impl FnOnce(&mut Iteration<'_>) -> Result<R, PowerFailure>,
    ) -> Result<R, PowerFailure> {
        if cfg!(debug_assertions) || self.sites[k].0.is_none() {
            return self.record_iteration(k, body);
        }
        // The iteration's handle is never passed on by reference, so it
        // stays in registers and every op call folds into `skipped`. One
        // copy per watch state, so that an unwatched iteration's accesses
        // carry no watch test.
        let (r, skipped) = if self.watched {
            let mut it = self.iteration(false, true);
            (body(&mut it), it.skipped)
        } else {
            let mut it = self.iteration(false, false);
            (body(&mut it), it.skipped)
        };
        match r {
            Ok(_) => self.rec.repeat(k),
            Err(_) => {
                let bundle = self.sites[k].bundle().expect("a repeated site");
                self.rec
                    .keep_prefix(bundle, skipped, &self.dev.spec().costs);
            }
        }
        r
    }

    /// [`Taped::iterate`] recording the iteration's ops; out of line, so
    /// loops keep only the repeating iteration's code.
    #[cold]
    #[inline(never)]
    fn record_iteration<R>(
        &mut self,
        k: usize,
        body: impl FnOnce(&mut Iteration<'_>) -> Result<R, PowerFailure>,
    ) -> Result<R, PowerFailure> {
        self.rec.iter.clear();
        let watched = self.watched;
        let r = body(&mut self.iteration(true, watched));
        let costs = &self.dev.spec().costs;
        self.rec
            .close_iteration(&mut self.sites[k], k, r.is_ok(), costs);
        r
    }
}

/// The body's accesses. None of them fails — the settle charges the ops
/// and reports a brown-out — but each returns a `Result`, so a runtime
/// access written with `?` reads like device code.
impl<const ITERATION: bool> Taped<'_, ITERATION> {
    /// `n` ops of one class with no memory effect ([`Device::consume_n`]).
    #[inline(always)]
    pub fn op_n(&mut self, op: Op, n: u64) -> Result<(), PowerFailure> {
        self.note(op, n);
        Ok(())
    }

    /// One op with no memory effect ([`Device::consume`]).
    #[inline(always)]
    pub fn op(&mut self, op: Op) -> Result<(), PowerFailure> {
        self.op_n(op, 1)
    }

    /// A fixed op sequence with no memory effect: one [`Taped::op_n`] per
    /// entry, in order, recorded in one step.
    #[inline(always)]
    pub fn ops(&mut self, seq: &'static [(Op, u64)]) -> Result<(), PowerFailure> {
        if ITERATION {
            // A plain loop: a closure would take the handle by reference.
            for &(op, n) in seq {
                self.note(op, n);
            }
        } else {
            self.rec.push_seq(seq, &self.dev.spec().costs);
        }
        Ok(())
    }

    /// A FRAM read ([`Device::read`]).
    #[inline(always)]
    pub fn read(&mut self, buf: FramBuf, i: u32) -> Result<Q15, PowerFailure> {
        self.note(Op::FramRead, 1);
        Ok(self.dev.prepaid_read(buf, i, self.watched))
    }

    /// A FRAM write at a raw address ([`Device::write_at`]). Lands at
    /// once: a taped body's only direct FRAM write is a scrub, which
    /// restores a word's last durable value.
    #[inline(always)]
    pub fn write_at(&mut self, addr: NvAddr, v: Q15) -> Result<(), PowerFailure> {
        self.note(Op::FramWrite, 1);
        self.dev.prepaid_write_at(addr, v, self.watched);
        Ok(())
    }

    /// Reports a detected corruption ([`Device::note_corruption`]; free).
    #[inline(always)]
    pub fn note_corruption(&mut self, region: RegionId) -> bool {
        self.dev.note_corruption(region)
    }

    /// The device, for uncharged checks: ECC verifies, the accounting
    /// context.
    #[inline(always)]
    pub fn device(&self) -> &Device {
        self.dev
    }

    /// An uncharged host-side read of a raw FRAM address
    /// ([`Device::peek_at`]): the runtime's own look at a word, such as a
    /// redo log's home read. Prefer it to a peek through
    /// [`Taped::device`]: a repeating iteration's copy for an unwatched
    /// device tests no watch.
    #[inline(always)]
    pub fn peek_at(&self, addr: NvAddr) -> Q15 {
        self.dev.prepaid_peek(addr, self.watched)
    }

    #[inline(always)]
    fn note(&mut self, op: Op, n: u64) {
        if !ITERATION {
            self.rec.push(op, n, &self.dev.spec().costs);
        } else if self.record {
            self.rec.iter.push_n(op, self.phase, n);
        } else {
            self.skipped += n;
        }
    }
}

impl Device {
    /// Runs a task body with no durable effects before a later commit
    /// host-side through a [`Taped`] handle, at the current accounting
    /// context, then settles what it recorded, even when the body fails:
    /// in one charge, or — when the buffer cannot cover it or an armed
    /// fault target lies inside it — in body order through the scalar
    /// charge, so a brown-out charges exactly the prefix a scalar
    /// execution would have, and a memory fault fires at its op, after
    /// the body's reads. `sites` hold the bundles of the body's iteration
    /// shapes ([`Taped::iterate`]); keep them from body to body. See the
    /// [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the device is off, the settle
    /// browns out, or the body fails.
    pub fn run_tape<R>(
        &mut self,
        sites: &mut [Site],
        body: impl FnOnce(&mut Taped<'_>) -> Result<R, PowerFailure>,
    ) -> Result<R, PowerFailure> {
        let mut rec = self.tape.take().unwrap_or_default();
        rec.restart(sites.len());
        let phase = self.context().1;
        let watched = self.watched();
        let r = body(&mut Taped {
            watched,
            dev: self,
            sites,
            rec: &mut rec,
            phase,
            record: false,
            skipped: 0,
        });
        let settled = self.settle_tape(&mut rec, sites, phase);
        self.tape = Some(rec);
        settled.and(r)
    }

    /// Charges a taped body's record: one [`Device::fund_whole`] of its
    /// running totals, or an in-order replay through the scalar charge
    /// whose runs of site repeats are [`Device::run_bundled`] loops over
    /// their site, each iteration charging the site's bundle through its
    /// [`Step`]: the driver funds as many whole repeats at a time as the
    /// buffer and the next armed target allow, and steps the first
    /// unfunded one op by op.
    fn settle_tape(
        &mut self,
        rec: &mut TapeRecord,
        sites: &mut [Site],
        phase: Phase,
    ) -> Result<(), PowerFailure> {
        if !self.is_on() {
            return Err(PowerFailure);
        }
        #[cfg(debug_assertions)]
        rec.check_totals(&self.spec().costs);
        if self.fund_whole(&rec.loose, sites, &rec.repeats, []) {
            return Ok(());
        }
        let TapeRecord { runs, iter, .. } = rec;
        for &run in &*runs {
            match run {
                Run::Ops(op, n) => self.consume_upto_at(op, phase, n).1?,
                Run::Seq(seq) => {
                    for &(op, n) in seq {
                        self.consume_upto_at(op, phase, n).1?;
                    }
                }
                Run::Repeat { site, n } => {
                    // The loop holds the site, so its body charges a copy
                    // of the bundle, kept in the record's iteration buffer.
                    iter.clear();
                    for e in sites[site].bundle().expect("a repeated site").ops() {
                        debug_assert_eq!(e.phase, phase);
                        iter.push_n(e.op, e.phase, e.count);
                    }
                    let n = u32::try_from(n).expect("a taped loop's repeats fit a u32");
                    let ops = iter.ops();
                    self.run_bundled(
                        &mut sites[site],
                        0..n,
                        #[inline(always)]
                        |s, _| ops.iter().try_for_each(|e| s.op_n(e.op, e.count)),
                    )?;
                }
            }
        }
        Ok(())
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

    fn costs() -> CostTable {
        crate::DeviceSpec::tiny().costs
    }

    fn site_of(ops: &[(Op, u64)]) -> Site {
        let mut b = OpBundle::new();
        for &(op, n) in ops {
            b.push_n(op, Phase::Kernel, n);
        }
        let mut site = Site::default();
        site.fill(b, &costs());
        site
    }

    #[test]
    fn tape_merges_runs_and_folds_pattern_counts() {
        let sites = [
            site_of(&[(Op::FramRead, 2), (Op::Incr, 1)]),
            site_of(&[(Op::FramRead, 2), (Op::Incr, 1)]), // equal, but a distinct site
            Site::default(),                              // never repeated
        ];
        let costs = costs();
        let mut t = TapeRecord::default();
        t.restart(sites.len());
        t.push(Op::Alu, 1, &costs);
        t.push(Op::Alu, 2, &costs);
        for k in [0, 0, 0, 0, 1] {
            t.repeat(k);
        }
        const SEQ: [(Op, u64); 2] = [(Op::Incr, 1), (Op::Alu, 2)];
        t.push_seq(&SEQ, &costs);
        t.repeat(0);
        t.repeat(0); // a later run of an already-repeated site
        assert_eq!(
            t.runs,
            [
                Run::Ops(Op::Alu, 1),
                Run::Ops(Op::Alu, 2),
                Run::Repeat { site: 0, n: 4 },
                Run::Repeat { site: 1, n: 1 },
                Run::Seq(&SEQ),
                Run::Repeat { site: 0, n: 2 },
            ]
        );
        #[cfg(debug_assertions)]
        t.check_totals(&costs);
        assert_eq!(t.repeats, [6, 1, 0]);
        // The whole record's totals: the loose ops plus each site's
        // bundle per repeat.
        let mut c = *t.loose.counts();
        for (site, &n) in sites.iter().zip(&t.repeats) {
            for e in site.bundle().map_or(&[][..], OpBundle::ops) {
                c[e.op.index()] += e.count * n;
            }
        }
        assert_eq!(c[Op::Alu.index()], 5);
        assert_eq!(c[Op::FramRead.index()], 14);
        assert_eq!(c[Op::Incr.index()], 8);
        assert_eq!(c.iter().sum::<u64>(), 27);
        let priced: u64 = Op::ALL
            .iter()
            .map(|&op| c[op.index()] * costs.cost(op).energy_pj)
            .sum();
        let site_energy = |k: usize| sites[k].cost(&costs).map_or(0, |(_, e)| e);
        assert_eq!(
            t.loose.energy_pj() + 6 * site_energy(0) + site_energy(1),
            priced
        );
    }

    #[test]
    fn clear_keeps_capacity() {
        let sites = [site_of(&[(Op::Alu, 1)])];
        let mut d = Device::new(crate::DeviceSpec::tiny(), crate::PowerSystem::continuous());
        let body = |t: &mut Taped<'_>| {
            t.op_n(Op::Alu, 4)?;
            (0..20).try_for_each(|_| t.iterate(0, |t| t.op(Op::Alu)))
        };
        d.run_tape(&mut sites.clone(), body).unwrap();
        let cap = d.tape.as_ref().expect("kept").runs.capacity();
        d.run_tape(&mut sites.clone(), |t| t.op(Op::Alu)).unwrap();
        let rec = d.tape.as_ref().expect("kept");
        assert_eq!(rec.runs, [Run::Ops(Op::Alu, 1)], "the record restarts");
        assert_eq!(rec.runs.capacity(), cap);
        assert_eq!(d.trace().op_count(Op::Alu), 25);
    }
}
