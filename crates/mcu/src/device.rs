//! The device itself: metered memories, power state, LEA, and DMA.
//!
//! # Execution and failure model
//!
//! Every operation a program performs goes through [`Device::consume`] (or
//! the typed memory/peripheral methods that call it). On harvested power
//! each operation drains the capacitor; when the buffer cannot cover an
//! operation the device *browns out*: the operation does not take effect,
//! [`PowerFailure`] is returned, and the device is off until
//! [`Device::reboot`] is called (by the scheduler, after simulating the
//! recharge time). A reboot clears SRAM to a garbage pattern — volatile
//! state is gone — while FRAM contents persist, including any partial
//! writes an interrupted task performed. This is exactly the hazard that
//! SONIC's idempotence machinery exists to make safe.
//!
//! # Write atomicity
//!
//! Energy is consumed *before* a word is written, so individual 16-bit
//! writes are atomic (they either happen or they don't), matching FRAM's
//! word-level write atomicity on real hardware. There is no atomicity
//! across words: multi-word structures can be torn by a power failure.
//! The one deliberate exception is an injected [`FaultKind::TornWrite`]:
//! its brown-out catches the in-flight FRAM store mid-word, landing the
//! intended value's low byte over the old high byte — the sub-word
//! tearing real controllers can exhibit when the write pulse is cut.
//!
//! # Memory faults and integrity guards
//!
//! Beyond clean brown-outs, a [`FaultPlan`] can arm deterministic NVM
//! data faults ([`FaultKind`]): single-bit flips, torn stores, and
//! stuck-at cells, all addressed on the same charged-op index axis so
//! schedules stay reproducible. The defense is ECC-style guarding
//! ([`Device::guard_word`]): legitimate writes transparently refresh a
//! shadow of each guarded word's intended value, injected faults bypass
//! it, and [`Device::verify_word`] compares the two on read. Detection,
//! bounded-retry recovery accounting, and the unrecoverable verdict live
//! on the device ([`Device::note_corruption`]); the runtimes decide what
//! to scrub and when to give up.
//!
//! # First-access watch
//!
//! [`Device::arm_watch`] arms an opt-in probe for bit-flip sweeps: it
//! lands exactly where a [`FaultKind::BitFlip`] armed at the same op
//! index would, changing no bit, and from then on records, per watched
//! FRAM word, whether the word's first access is a read, a whole-word
//! write, or none ([`FirstAccess`]). Every path that touches FRAM —
//! metered, pre-charged, funded and taped accesses, DMA, flashing, ECC
//! verifies and host peeks — reports to it, in host-time order. A device
//! with no watch armed behaves bit-identically. Its funded loops and
//! taped iterations run in a copy compiled for the unwatched case, so
//! their accesses test nothing; the metered, block and host paths test
//! the watch once per call.

#[cfg(debug_assertions)]
use crate::bundle::add_counts;
#[cfg(debug_assertions)]
use crate::bundle::OpCounts;
use crate::bundle::{Charge, FundedRun, LastStores, OpBundle, Site, TapeRecord};
use crate::power::PowerSystem;
use crate::spec::{DeviceSpec, Op};
use crate::trace::{Phase, RegionId, Trace, TraceReport};
use core::fmt;
use fxp::{Accum, Q15};
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// The device browned out: the capacitor cannot cover the next operation.
///
/// Propagate this out of the current task with `?`; all volatile state
/// (Rust locals) is dropped on the way out, exactly like losing SRAM and
/// registers on real hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerFailure;

impl fmt::Display for PowerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("power failure: energy buffer exhausted")
    }
}

impl std::error::Error for PowerFailure {}

/// The harvest profile can never refill the buffer (zero average input
/// power — e.g. a fully occluded trace): the device is permanently dead.
///
/// Returned by [`Device::reboot`] instead of silently accruing infinite
/// dead time; schedulers report it as non-termination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupplyDead;

impl fmt::Display for SupplyDead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("supply dead: harvest profile never recharges the buffer")
    }
}

impl std::error::Error for SupplyDead {}

/// Memory allocation failed: the arena is out of words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocError {
    /// Words requested.
    pub requested: u32,
    /// Words still available.
    pub available: u32,
    /// `true` for FRAM, `false` for SRAM.
    pub fram: bool,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exhausted: requested {} words, {} available",
            if self.fram { "FRAM" } else { "SRAM" },
            self.requested,
            self.available
        )
    }
}

impl std::error::Error for AllocError {}

/// The pattern uninitialized/cleared SRAM reads as after a reboot.
///
/// Real SRAM powers up with unpredictable contents; a fixed, obviously
/// wrong pattern keeps the simulation deterministic while still making
/// code that relies on volatile state across failures visibly incorrect.
pub const SRAM_GARBAGE: i16 = 0x5A5Au16 as i16;

/// Handle to an array of Q1.15 words in FRAM (non-volatile).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FramBuf {
    base: u32,
    len: u32,
}

/// Handle to an array of Q1.15 words in SRAM (volatile).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SramBuf {
    base: u32,
    len: u32,
}

/// Handle to a single 16-bit counter/flag word in FRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FramWord {
    addr: u32,
}

/// A raw non-volatile word address.
///
/// Runtime systems (like the Alpaca-style redo log) operate on addresses
/// rather than typed handles: a log entry records *which word* to patch at
/// commit time. Obtain addresses from [`FramBuf::addr`] or
/// [`FramWord::addr`] and dereference them with [`Device::read_at`] /
/// [`Device::write_at`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NvAddr(u32);

impl NvAddr {
    /// The raw word index inside FRAM (for diagnostics).
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// An address from a raw FRAM word index — for fault-injection
    /// specs (e.g. a command-line `flip:WORD:BIT@OP`) that name cells
    /// numerically rather than through typed handles.
    pub fn word(index: u32) -> NvAddr {
        NvAddr(index)
    }
}

impl FramWord {
    /// The raw non-volatile address of this word.
    pub fn addr(self) -> NvAddr {
        NvAddr(self.addr)
    }
}

macro_rules! impl_buf {
    ($name:ident) => {
        impl $name {
            /// Number of 16-bit words in the buffer.
            #[inline]
            pub fn len(self) -> u32 {
                self.len
            }

            /// `true` when the buffer holds zero words.
            #[inline]
            pub fn is_empty(self) -> bool {
                self.len == 0
            }

            /// A sub-range of this buffer.
            ///
            /// # Panics
            ///
            /// Panics if `offset + len` exceeds the buffer.
            #[inline]
            pub fn slice(self, offset: u32, len: u32) -> $name {
                assert!(
                    offset.checked_add(len).is_some_and(|end| end <= self.len),
                    "slice out of range: {}+{} > {}",
                    offset,
                    len,
                    self.len
                );
                $name {
                    base: self.base + offset,
                    len,
                }
            }
        }
    };
}

impl_buf!(FramBuf);
impl_buf!(SramBuf);

impl FramBuf {
    /// The raw non-volatile address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn addr(self, i: u32) -> NvAddr {
        assert!(i < self.len, "addr out of bounds: {i} >= {}", self.len);
        NvAddr(self.base + i)
    }
}

/// The kind of fault a [`FaultPlan`] target injects when the charged-op
/// stream reaches its index.
///
/// Memory faults ([`FaultKind::BitFlip`], [`FaultKind::StuckAt`]) mutate
/// FRAM *without* interrupting execution: the device keeps running on the
/// corrupted state, which is exactly the silent-data-corruption hazard
/// the runtime integrity guards exist to catch. Brown-out-class faults
/// ([`FaultKind::Brownout`], [`FaultKind::TornWrite`]) cut power at the
/// target boundary like a natural energy failure.
///
/// The derived ordering sorts memory faults before brown-out faults at
/// the same op index, so a flip armed at the same boundary as a
/// brown-out lands before the power is cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Flip one bit of the FRAM word at `addr`. Execution continues; the
    /// guard shadow is *not* updated, so a later ECC read check can see
    /// the divergence.
    BitFlip {
        /// The corrupted word's non-volatile address.
        addr: NvAddr,
        /// Bit position in `[0, 16)` (masked).
        bit: u8,
    },
    /// From this op index on, one bit of the word at `addr` is stuck:
    /// the current value and every subsequent write have the bit forced
    /// to `high`. Models a worn-out FRAM cell; never heals.
    StuckAt {
        /// The stuck word's non-volatile address.
        addr: NvAddr,
        /// Bit position in `[0, 16)` (masked).
        bit: u8,
        /// The level the cell is stuck at.
        high: bool,
    },
    /// A clean brown-out: energy gone, no memory effect (the historical
    /// fault model).
    Brownout,
    /// A brown-out that tears the in-flight FRAM store: the failing
    /// word's *low byte* of the new value lands while the high byte
    /// keeps its old contents — sub-word atomicity violated, exactly
    /// what the word-atomic FRAM model otherwise rules out. If the
    /// interrupted op is not an FRAM store, it degrades to a clean
    /// brown-out.
    TornWrite,
}

impl FaultKind {
    /// `true` when this fault cuts power at its target boundary.
    pub fn browns_out(self) -> bool {
        matches!(self, FaultKind::Brownout | FaultKind::TornWrite)
    }
}

/// A deterministic fault-injection plan: a set of charged-op indices at
/// which a fault fires — a forced brown-out, a torn store, a bit flip,
/// or a stuck-at cell — regardless of remaining charge (injection works
/// on continuous power too, which is how the crash-consistency harness
/// gets exhaustive, recharge-free schedules).
///
/// Op indices count every charged operation on the device
/// ([`Device::ops_consumed`]): scalar consumes, span charges (DMA words,
/// LEA MACs, block accessors), bundled iterations, and boot charges all
/// advance the same counter, so an index identifies one exact op
/// boundary. A brown-out target at index `k` means: the first `k`
/// charged ops execute, and the op that would have been charged `k`-th
/// fails exactly like a natural brown-out. A memory-fault target at `k`
/// mutates FRAM at that boundary and lets the `k`-th op proceed. Each
/// target fires once; boot charges themselves are not interruptible (a
/// reboot always completes).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Pending targets, ascending by op index (memory faults before
    /// brown-outs at equal indices).
    targets: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// A plan with a single brown-out at charged-op index `op_index`.
    pub fn at(op_index: u64) -> Self {
        FaultPlan {
            targets: vec![(op_index, FaultKind::Brownout)],
        }
    }

    /// A plan with a brown-out at each of the given charged-op indices
    /// (sorted and deduplicated).
    pub fn at_each(targets: impl IntoIterator<Item = u64>) -> Self {
        Self::faults(targets.into_iter().map(|t| (t, FaultKind::Brownout)))
    }

    /// A plan with an arbitrary mix of fault kinds (sorted by op index,
    /// exact duplicates removed).
    pub fn faults(targets: impl IntoIterator<Item = (u64, FaultKind)>) -> Self {
        let mut targets: Vec<(u64, FaultKind)> = targets.into_iter().collect();
        targets.sort_unstable();
        targets.dedup();
        FaultPlan { targets }
    }

    /// The same plan with every op index shifted by `base` — rebasing an
    /// inference-relative schedule onto a device's absolute op counter
    /// while preserving each target's fault kind.
    pub fn shifted(&self, base: u64) -> Self {
        FaultPlan {
            targets: self.targets.iter().map(|&(t, k)| (t + base, k)).collect(),
        }
    }

    /// The pending targets, ascending by op index.
    pub fn targets(&self) -> &[(u64, FaultKind)] {
        &self.targets
    }

    /// The pending target op indices, ascending.
    pub fn indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.targets.iter().map(|&(t, _)| t)
    }

    /// `true` when the plan has no pending targets.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// The first access a word watched by [`Device::arm_watch`] sees after
/// the watch lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirstAccess {
    /// Not accessed since the landing, or the watch never landed.
    Untouched,
    /// Read first — or partly overwritten, which keeps part of the old
    /// value: later work may depend on what the word held at the landing.
    Read,
    /// Overwritten whole before any read.
    Written,
}

/// The flip a watch arms in place of a real one: an address beyond every
/// FRAM, so landing it changes no word.
const WATCH_LANDING: FaultKind = FaultKind::BitFlip {
    addr: NvAddr(u32::MAX),
    bit: 0,
};

/// Watch slot states: not a watched word, watched and untouched since
/// the landing, then the [`FirstAccess`] it saw.
const UNWATCHED: u8 = 0;
const UNTOUCHED: u8 = 1;
const READ: u8 = 2;
const WRITTEN: u8 = 3;

/// A first-access watch (see [`Device::arm_watch`]). Its slots are
/// atomics because host peeks, which take `&Device`, are reads too.
#[derive(Debug)]
struct Watch {
    /// `true` once the watch's target has fired.
    landed: bool,
    /// Raw address of `slots[0]`.
    lo: u32,
    /// One state per word of `lo..lo + slots.len()`.
    slots: Box<[AtomicU8]>,
}

impl Clone for Watch {
    fn clone(&self) -> Self {
        Watch {
            landed: self.landed,
            lo: self.lo,
            slots: self
                .slots
                .iter()
                .map(|s| AtomicU8::new(s.load(Relaxed)))
                .collect(),
        }
    }
}

impl Watch {
    /// Records `access` as the first access of every watched word in
    /// `addr..addr + n` that has seen none since the landing. Out of line:
    /// only a watched device calls it.
    #[cold]
    #[inline(never)]
    fn note(&self, addr: u32, n: u32, access: u8) {
        if !self.landed {
            return;
        }
        let hi = self.lo + self.slots.len() as u32;
        let (a, b) = (addr.max(self.lo), addr.saturating_add(n).min(hi));
        if a < b {
            for s in &self.slots[(a - self.lo) as usize..(b - self.lo) as usize] {
                if s.load(Relaxed) == UNTOUCHED {
                    s.store(access, Relaxed);
                }
            }
        }
    }
}

/// Bounded-retry budget for corruption recovery: how many detected
/// corruptions a single device will attempt to recover from before
/// declaring the state unrecoverable (a stuck-at cell in a control word
/// re-corrupts on every scrub and must eventually surface as an error
/// rather than spin forever).
pub const CORRUPTION_RETRY_LIMIT: u32 = 32;

/// The exact op a brown-out (natural or injected) landed on: the op
/// class and accounting context of the first operation that did *not*
/// complete, plus its index in the device's charged-op stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrownoutInfo {
    /// Index of the failed op in the charged-op stream (equals
    /// [`Device::ops_consumed`] at the moment of failure: all ops before
    /// it completed, this one did not).
    pub op_index: u64,
    /// The op class that failed to complete.
    pub op: Op,
    /// The accounting phase the failed op was charged under.
    pub phase: Phase,
    /// The accounting region (layer/task) active at the failure.
    pub region: RegionId,
    /// `true` when the brown-out was forced by a [`FaultPlan`] target,
    /// `false` when the energy buffer genuinely ran dry.
    pub injected: bool,
}

/// How many times `per` fits in `budget`: unlimited for an unlimited
/// budget or a free item (and no division on that path).
#[inline]
fn whole_runs(budget: u64, per: u64) -> u64 {
    if budget == u64::MAX || per == 0 {
        u64::MAX
    } else {
        budget / per
    }
}

/// The simulated MCU.
///
/// See the [module docs](self) for the execution and failure model.
#[derive(Clone, Debug)]
pub struct Device {
    spec: DeviceSpec,
    power: PowerSystem,
    charge_pj: u64,
    on: bool,
    fram: Vec<i16>,
    fram_brk: u32,
    sram: Vec<i16>,
    sram_brk: u32,
    trace: Trace,
    region: RegionId,
    phase: Phase,
    /// Total charged operations over the device's lifetime (the op-index
    /// axis [`FaultPlan`] targets live on).
    ops_consumed: u64,
    /// Pending injected-fault targets, *descending* by op index (pop()
    /// yields the next target). Empty unless a [`FaultPlan`] is armed.
    fault_queue: Vec<(u64, FaultKind)>,
    /// The most recent brown-out, natural or injected.
    last_brownout: Option<BrownoutInfo>,
    /// A fired [`FaultKind::TornWrite`] waiting for its victim: the next
    /// FRAM store interrupted by the brown-out lands torn. Cleared on
    /// reboot if no store was in flight.
    torn_pending: bool,
    /// Stuck-at cells armed so far: `(addr, bit, high)`. Applied to every
    /// subsequent write of the matching word.
    stuck: Vec<(u32, u8, bool)>,
    /// ECC-style guard shadows, sorted by address: `(addr, intended)`.
    /// Legitimate writes update the shadow with the value software meant
    /// to store; injected faults bypass it, so a read-time compare
    /// detects corruption. Empty (zero overhead) unless guards are
    /// registered.
    guard_shadow: Vec<(u32, i16)>,
    /// Guarded-word index in front of `guard_shadow`, one `(bits, rank)`
    /// entry per 64 FRAM words: bit `b` of entry `i` is set iff word
    /// `64·i + b` has a shadow entry, and `rank` counts the guarded
    /// words below `64·i`. An unguarded store or verify costs one bit
    /// test; a guarded word's shadow slot is `rank` plus a popcount, no
    /// search. Sized to the highest guarded word; empty with no guards.
    guard_bits: Vec<(u64, u32)>,
    /// Memory faults injected so far (bit flips + stuck-at armings).
    mem_faults_injected: u64,
    /// `true` until an injected fault lands in FRAM (a flip, a stuck-at
    /// cell or a torn store): until then every guarded word matches its
    /// shadow, so [`Device::verify_at`] needs no lookup.
    pristine: bool,
    /// Corruption detections reported via [`Device::note_corruption`].
    corruption_detected: u64,
    /// Remaining recovery attempts before corruption is declared
    /// unrecoverable.
    corruption_budget: u32,
    /// Region of the first unrecoverable corruption, if any.
    unrecoverable: Option<RegionId>,
    /// The ops charged (or attempted, for the op a brown-out lands on) by
    /// the scalar-mode iteration in flight that [`Device::run_bundled`]
    /// records: the one that fills an empty site, and in debug builds
    /// every one it checks against a site's bundle. `None` outside such
    /// an iteration.
    pub(crate) record: Option<Box<OpBundle>>,
    /// The [`crate::Step::store_last`] values of the funded run in flight,
    /// landed when it settles; empty between runs.
    pub(crate) last_stores: LastStores,
    /// The record of [`Device::run_tape`]'s body, kept between bodies.
    pub(crate) tape: Option<Box<TapeRecord>>,
    /// The first-access watch [`Device::arm_watch`] armed, if any.
    watch: Option<Box<Watch>>,
}

impl Device {
    /// Creates a device, fully charged (the first charge's dead time is not
    /// counted, matching how the paper's measurements start).
    pub fn new(spec: DeviceSpec, power: PowerSystem) -> Self {
        let charge = power.buffer_energy_pj().unwrap_or(0);
        let fram = vec![0i16; spec.fram_words as usize];
        let sram = vec![SRAM_GARBAGE; spec.sram_words as usize];
        let trace = Trace::with_costs(spec.costs.clone());
        Device {
            spec,
            power,
            charge_pj: charge,
            on: true,
            fram,
            fram_brk: 0,
            sram,
            sram_brk: 0,
            trace,
            region: RegionId::OTHER,
            phase: Phase::Kernel,
            ops_consumed: 0,
            fault_queue: Vec::new(),
            last_brownout: None,
            torn_pending: false,
            stuck: Vec::new(),
            guard_shadow: Vec::new(),
            guard_bits: Vec::new(),
            mem_faults_injected: 0,
            pristine: true,
            corruption_detected: 0,
            corruption_budget: CORRUPTION_RETRY_LIMIT,
            unrecoverable: None,
            record: None,
            last_stores: LastStores::default(),
            tape: None,
            watch: None,
        }
    }

    /// Total operations charged over the device's lifetime: the op-index
    /// axis that [`FaultPlan`] targets address. Every metered path —
    /// scalar consumes, span charges, bundled iterations, boot charges —
    /// advances this counter by the ops it charged.
    pub fn ops_consumed(&self) -> u64 {
        self.ops_consumed
    }

    /// Arms a fault-injection plan, replacing any pending targets. Each
    /// target fires once at its exact charged-op index (see
    /// [`FaultPlan`] and [`FaultKind`]); an unarmed device behaves
    /// bit-identically to one that never heard of fault injection. Drops
    /// any first-access watch ([`Device::arm_watch`]).
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.fault_queue = plan.targets.clone();
        // Descending, so pop() yields the next (smallest) target.
        self.fault_queue.reverse();
        self.watch = None;
    }

    /// Arms a first-access watch over the FRAM words `words`, replacing
    /// any pending fault targets: its one target is a
    /// [`FaultKind::BitFlip`] at op index `at` that changes no bit. So the
    /// watch lands exactly where a flip armed at `at` would — every
    /// funding decision splits at it the same way, and landing counts in
    /// [`Device::mem_faults_injected`] and ends the guards' pristine state
    /// as a flip does — and until it lands the device runs exactly as a
    /// device with that flip armed. From the landing on, the watch
    /// records each word's first access ([`Device::first_access`]) from
    /// every FRAM path, in host-time order: metered, pre-charged, funded
    /// and taped reads and writes, DMA both ways, flashing, torn stores,
    /// ECC verifies of guarded words and the host peeks. A store that
    /// replaces the whole word is a write; a torn store keeps part of the
    /// old value, so it is a read.
    ///
    /// [`Device::pending_faults`] counts the target until it lands.
    pub fn arm_watch(&mut self, at: u64, words: impl IntoIterator<Item = NvAddr>) {
        let mut words: Vec<u32> = words.into_iter().map(|a| a.0).collect();
        words.sort_unstable();
        let (lo, hi) = match (words.first(), words.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi + 1),
            _ => (0, 0),
        };
        let slots: Box<[AtomicU8]> = (lo..hi).map(|_| AtomicU8::new(UNWATCHED)).collect();
        for a in words {
            slots[(a - lo) as usize].store(UNTOUCHED, Relaxed);
        }
        self.arm_faults(&FaultPlan::faults([(at, WATCH_LANDING)]));
        self.watch = Some(Box::new(Watch {
            landed: false,
            lo,
            slots,
        }));
    }

    /// The first access the watched word at `addr` saw after the watch
    /// landed; `None` when no watch is armed or `addr` is not watched.
    pub fn first_access(&self, addr: NvAddr) -> Option<FirstAccess> {
        let w = self.watch.as_ref()?;
        let slot = w.slots.get(addr.0.checked_sub(w.lo)? as usize)?;
        match slot.load(Relaxed) {
            UNWATCHED => None,
            UNTOUCHED => Some(FirstAccess::Untouched),
            READ => Some(FirstAccess::Read),
            _ => Some(FirstAccess::Written),
        }
    }

    /// `true` while a first-access watch is armed.
    #[inline]
    pub(crate) fn watched(&self) -> bool {
        self.watch.is_some()
    }

    /// Reports a read of the `n` FRAM words from raw address `addr` to the
    /// watch, if one is armed.
    #[inline(always)]
    fn watch_read(&self, addr: u32, n: u32) {
        if let Some(w) = &self.watch {
            w.note(addr, n, READ);
        }
    }

    /// Reports whole-word writes of the `n` FRAM words from raw address
    /// `addr` to the watch, if one is armed.
    #[inline(always)]
    fn watch_write(&self, addr: u32, n: u32) {
        if let Some(w) = &self.watch {
            w.note(addr, n, WRITTEN);
        }
    }

    /// Number of armed fault targets that have not fired yet.
    pub fn pending_faults(&self) -> usize {
        self.fault_queue.len()
    }

    /// The most recent brown-out (natural or injected): the exact op it
    /// landed on. `None` until the first power failure.
    pub fn last_brownout(&self) -> Option<BrownoutInfo> {
        self.last_brownout
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The power system the device runs on.
    pub fn power(&self) -> &PowerSystem {
        &self.power
    }

    /// Remaining buffer charge in picojoules (meaningless on continuous
    /// power).
    pub fn charge_pj(&self) -> u64 {
        self.charge_pj
    }

    /// `true` while the device has power.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The execution trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total wall-clock seconds the device has existed: live execution at
    /// the device clock plus dead (recharging) time. This is the absolute
    /// time axis that time-varying harvest profiles are sampled on.
    pub fn elapsed_secs(&self) -> f64 {
        self.spec.cycles_to_secs(self.trace.live_cycles()) + self.trace.dead_secs()
    }

    /// Starts a new trace epoch: [`Device::epoch_report`] will cover only
    /// work done after this call. Use one epoch per inference to get
    /// per-run numbers from a long-lived deployment instead of
    /// device-lifetime accumulation.
    pub fn begin_epoch(&mut self) {
        self.trace.begin_epoch();
    }

    /// Summary of the current trace epoch (delta since the last
    /// [`Device::begin_epoch`]; the full lifetime when no epoch was
    /// started).
    pub fn epoch_report(&self) -> TraceReport {
        self.trace.epoch_report()
    }

    /// Registers an accounting region (e.g. a layer name).
    pub fn register_region(&mut self, name: &str) -> RegionId {
        self.trace.register_region(name)
    }

    /// Sets the accounting context for subsequent operations.
    pub fn set_context(&mut self, region: RegionId, phase: Phase) {
        self.region = region;
        self.phase = phase;
    }

    /// Current accounting context.
    pub fn context(&self) -> (RegionId, Phase) {
        (self.region, self.phase)
    }

    /// Signals that forward progress was durably committed (e.g. a loop
    /// iteration's results reached FRAM). The scheduler uses this to
    /// distinguish "slow but progressing" from "non-terminating".
    pub fn mark_progress(&mut self) {
        self.trace.mark_progress();
    }

    /// Consumes one operation's cycles and energy.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the buffer cannot cover the operation
    /// (the operation does not take effect) or when the device is already
    /// off.
    #[inline]
    pub fn consume(&mut self, op: Op) -> Result<(), PowerFailure> {
        self.consume_n(op, 1)
    }

    /// Consumes `n` operations of the same class, stopping at the first one
    /// the buffer cannot cover.
    ///
    /// A zero-energy operation can never brown the device out: all `n`
    /// execute "for free" regardless of remaining charge. That is only a
    /// sound spec when the operation also costs zero cycles (otherwise a
    /// finite buffer would fund unbounded live time), which a debug
    /// assertion enforces.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] if fewer than `n` operations fit in the
    /// remaining charge; the ones that fit are still charged (they executed
    /// before the failure).
    pub fn consume_n(&mut self, op: Op, n: u64) -> Result<(), PowerFailure> {
        let phase = self.phase;
        self.consume_upto_at(op, phase, n).1
    }

    /// Like [`Device::consume_n`] but at an explicit accounting phase,
    /// reporting how many of the `n` operations were charged before any
    /// failure. The backbone of every span-charged accessor.
    pub(crate) fn consume_upto_at(
        &mut self,
        op: Op,
        phase: Phase,
        n: u64,
    ) -> (u64, Result<(), PowerFailure>) {
        if !self.on {
            return (0, Err(PowerFailure));
        }
        let mut done = 0u64;
        loop {
            // Memory faults (bit flips, stuck-at armings) scheduled at or
            // before the current boundary fire here; execution continues
            // on the corrupted state. Only brown-out-class faults below
            // interrupt the charged stream.
            while let Some(&(t, kind)) = self.fault_queue.last() {
                if t <= self.ops_consumed && !kind.browns_out() {
                    self.fault_queue.pop();
                    self.apply_memory_fault(kind);
                } else {
                    break;
                }
            }
            let want = n - done;
            // Injected faults: when the next armed target falls inside
            // this span, only the ops before it may execute — reaching
            // the target fires it exactly there (continuous power
            // included).
            let n_allowed = match self.fault_queue.last() {
                Some(&(t, _)) => t.saturating_sub(self.ops_consumed).min(want),
                None => want,
            };
            let cost = self.spec.costs.cost(op);
            let (fit, starved) = match &self.power {
                PowerSystem::Continuous => {
                    self.trace.charge(self.region, phase, op, n_allowed);
                    (n_allowed, false)
                }
                PowerSystem::Harvested(_) => {
                    let per = cost.energy_pj;
                    debug_assert!(
                        per > 0 || cost.cycles == 0,
                        "op {op:?} costs {} cycles but zero energy: a zero-energy op \
                         executes for free on harvested power, so it must also be \
                         zero-cycle (fix the cost table)",
                        cost.cycles
                    );
                    // `checked_div` returns `None` exactly when `per == 0`:
                    // the documented free-execution path.
                    let fit = self
                        .charge_pj
                        .checked_div(per)
                        .map_or(n_allowed, |q| q.min(n_allowed));
                    if fit > 0 {
                        self.trace.charge(self.region, phase, op, fit);
                        self.charge_pj -= fit * per;
                    }
                    (fit, fit < n_allowed)
                }
            };
            self.ops_consumed += fit;
            done += fit;
            self.record(op, phase, fit);
            if starved {
                // Natural brown-out before the span (or any armed target)
                // was reached. The interrupted operation's residual
                // charge is wasted in the brown-out. An armed target
                // beyond this point stays pending: it only fires if
                // execution reaches it.
                self.force_brownout(op, phase, false);
                return (done, Err(PowerFailure));
            }
            if done < n {
                // The span reached an armed target.
                let &(_, kind) = self
                    .fault_queue
                    .last()
                    .expect("a pending target bounded the span");
                if kind.browns_out() {
                    self.fault_queue.pop();
                    if kind == FaultKind::TornWrite {
                        self.torn_pending = true;
                    }
                    self.force_brownout(op, phase, true);
                    return (done, Err(PowerFailure));
                }
                // Memory fault: applied at the top of the next turn, then
                // charging resumes within the same span.
                continue;
            }
            return (done, Ok(()));
        }
    }

    /// Applies a non-brown-out fault effect to FRAM. Injected mutations
    /// deliberately bypass the guard shadow: that divergence is what the
    /// ECC read check detects.
    fn apply_memory_fault(&mut self, kind: FaultKind) {
        self.mem_faults_injected += 1;
        self.pristine = false;
        match kind {
            FaultKind::BitFlip { addr, bit } => {
                if let Some(w) = self.fram.get_mut(addr.0 as usize) {
                    *w ^= 1i16 << (bit & 15);
                } else if let Some(watch) = &mut self.watch {
                    // Only a watch's own target flips beyond FRAM.
                    watch.landed = true;
                }
            }
            FaultKind::StuckAt { addr, bit, high } => {
                if (addr.0 as usize) < self.fram.len() {
                    self.stuck.push((addr.0, bit & 15, high));
                    self.fram[addr.0 as usize] =
                        Self::force_bit(self.fram[addr.0 as usize], bit & 15, high);
                }
            }
            FaultKind::Brownout | FaultKind::TornWrite => {
                unreachable!("brown-out faults fire through force_brownout")
            }
        }
    }

    /// Forces one bit of a raw FRAM word to a level.
    fn force_bit(v: i16, bit: u8, high: bool) -> i16 {
        let mask = 1i16 << bit;
        if high {
            v | mask
        } else {
            v & !mask
        }
    }

    /// Cuts power at the current op boundary, recording exactly which op
    /// failed: op number [`Device::ops_consumed`] (everything before it
    /// completed, it did not).
    fn force_brownout(&mut self, op: Op, phase: Phase, injected: bool) {
        self.record(op, phase, 1);
        self.charge_pj = 0;
        self.on = false;
        self.last_brownout = Some(BrownoutInfo {
            op_index: self.ops_consumed,
            op,
            phase,
            region: self.region,
            injected,
        });
    }

    /// Appends `n` ops to the open iteration record, if any. Outside a
    /// recording iteration this is one test of an empty `Option`: the
    /// push stays out of line, off the scalar charging path.
    #[inline(always)]
    fn record(&mut self, op: Op, phase: Phase, n: u64) {
        #[cold]
        #[inline(never)]
        fn push(rec: &mut OpBundle, op: Op, phase: Phase, n: u64) {
            rec.push_n(op, phase, n);
        }
        if let Some(rec) = &mut self.record {
            push(rec, op, phase, n);
        }
    }

    /// Span variant of [`Device::consume_n`] at the current phase.
    fn consume_upto(&mut self, op: Op, n: u64) -> (u64, Result<(), PowerFailure>) {
        let phase = self.phase;
        self.consume_upto_at(op, phase, n)
    }

    // ----- bundled op accounting (see [`crate::bundle`]) ---------------

    /// Plans and charges one funded run of a shaped loop (see
    /// [`Device::run_shaped`]) from `range.start`: predicts the shape of
    /// each next index with `shape`, advancing `cursor`, and funds the
    /// longest run of whole iterations that both the remaining buffer and
    /// the next armed fault target allow. A run stops before an iteration
    /// whose shape is `None` or has no bundle in `bundles`. The run is
    /// charged in one step — energy, op counter, and one trace charge per
    /// shape present — and `cursor` ends at the state after it.
    ///
    /// The funded count is exactly the number of complete iterations the
    /// scalar path (one [`Device::consume`] per op) would have executed,
    /// whatever mix of shapes the run holds: per-op energies are
    /// non-negative, so a buffer that covers an iteration's total covers
    /// every prefix of it. Ops are charged to the current region at each
    /// entry's own phase; trace cells are order-independent accumulators,
    /// so bulk totals are bit-identical to interleaved scalar charges.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] only when the device is already off.
    #[inline]
    pub(crate) fn fund_run<const N: usize, C, P>(
        &mut self,
        sites: &[Site; N],
        range: Range<u32>,
        cursor: &mut C,
        shape: &mut P,
    ) -> Result<FundedRun, PowerFailure>
    where
        C: Copy,
        P: FnMut(&Device, &mut C, u32) -> Option<usize>,
    {
        if !self.on {
            return Err(PowerFailure);
        }
        let harvested = matches!(self.power, PowerSystem::Harvested(_));
        // Per recorded shape: (ops, energy) of one iteration, priced when
        // its site recorded it. Continuous power never drains, so its
        // energies stay zero.
        let cost: [Option<(u64, u64)>; N] = sites.each_ref().map(|s| {
            let (len, energy) = s.cost(&self.spec.costs)?;
            if !harvested {
                return Some((len, 0));
            }
            #[cfg(debug_assertions)]
            self.check_free_ops(s.bundle().expect("recorded").counts());
            Some((len, energy))
        });
        let bundles = sites.each_ref().map(Site::bundle);
        let (len_max, e_max) = cost
            .iter()
            .flatten()
            .fold((0, 0), |(l, e), &(bl, be)| (l.max(bl), e.max(be)));
        let mut energy_left = if harvested { self.charge_pj } else { u64::MAX };
        // Never fund an iteration that straddles an armed target, so the
        // scalar-mode run of the next iteration reaches exactly the
        // targeted op.
        let mut ops_left = self
            .fault_queue
            .last()
            .map_or(u64::MAX, |&(t, _)| t.saturating_sub(self.ops_consumed));
        // A loop nested in a recorded iteration appends each funded
        // iteration's bundle to the record, in order: one at a time.
        let recording = self.record.is_some();
        #[cfg(debug_assertions)]
        let mut one_by_one: OpCounts = [[0; Op::COUNT]; 2];
        let mut n = [0u64; N];
        let mut i = range.start;
        let stop = 'plan: loop {
            if i == range.end {
                break None;
            }
            // Iterations every recorded shape fits need no budget test.
            let sure = if recording || energy_left < e_max || ops_left < len_max {
                0
            } else {
                u64::from(range.end - i)
                    .min(whole_runs(energy_left, e_max))
                    .min(whole_runs(ops_left, len_max))
            };
            if sure == 0 {
                let before = *cursor;
                let k = shape(self, cursor, i);
                let fits = k.and_then(|k| cost[k].map(|c| (k, c)));
                let Some((k, (len, e))) =
                    fits.filter(|&(_, (len, e))| len <= ops_left && e <= energy_left)
                else {
                    *cursor = before;
                    break Some(k);
                };
                n[k] += 1;
                i += 1;
                ops_left -= len;
                energy_left -= e;
                let b = bundles[k].expect("recorded");
                if let Some(rec) = &mut self.record {
                    for op in b.ops() {
                        rec.push_n(op.op, op.phase, op.count);
                    }
                }
                #[cfg(debug_assertions)]
                add_counts(&mut one_by_one, b, 1);
                continue;
            }
            let from = n;
            for _ in 0..sure {
                let before = *cursor;
                match shape(self, cursor, i) {
                    Some(k) if cost[k].is_some() => {
                        n[k] += 1;
                        i += 1;
                        #[cfg(debug_assertions)]
                        add_counts(&mut one_by_one, bundles[k].expect("recorded"), 1);
                    }
                    k => {
                        *cursor = before;
                        break 'plan Some(k);
                    }
                }
            }
            for ((c, &now), &was) in cost.iter().zip(&n).zip(&from) {
                if let Some((len, e)) = c {
                    ops_left -= (now - was) * len;
                    energy_left -= (now - was) * e;
                }
            }
        };
        let mut ops = 0;
        let mut energy = 0;
        for ((site, c), &fit) in sites.iter().zip(cost).zip(&n) {
            if let Some((len, e)) = c {
                if fit > 0 {
                    ops += fit * len;
                    energy += fit * e;
                    self.charge_site_trace(site, fit);
                }
            }
        }
        self.ops_consumed += ops;
        if harvested {
            self.charge_pj -= energy;
        }
        #[cfg(debug_assertions)]
        {
            let mut bulk: OpCounts = [[0; Op::COUNT]; 2];
            for (b, &fit) in bundles.iter().zip(&n) {
                if let Some(b) = b {
                    add_counts(&mut bulk, b, fit);
                }
            }
            assert_eq!(
                bulk, one_by_one,
                "a funded run's bulk charge is not the sum of its iterations' bundles"
            );
            assert_eq!(ops, one_by_one.iter().flatten().sum::<u64>());
            if harvested {
                assert_eq!(
                    energy,
                    crate::bundle::counts_cost(&one_by_one, &self.spec.costs).1
                );
            }
        }
        Ok(FundedRun {
            iters: i - range.start,
            next: stop.flatten(),
        })
    }

    /// Debug builds: a bundled op that costs cycles must cost energy too
    /// (a free op executes without limit on harvested power).
    #[cfg(debug_assertions)]
    fn check_free_ops(&self, counts: &OpCounts) {
        for op in Op::ALL {
            let c = self.spec.costs.cost(op);
            assert!(
                counts[0][op.index()] + counts[1][op.index()] == 0
                    || c.energy_pj > 0
                    || c.cycles == 0,
                "bundled op {op:?} costs {} cycles but zero energy (fix the cost table)",
                c.cycles
            );
        }
    }

    /// Settles `fit` funded iterations of `site`'s bundle into the trace,
    /// one charge per nonzero `(phase, op)` count, for
    /// [`Device::fund_run`]. Trace cells are plain accumulators, so
    /// charging aggregate counts and charging the ordered sequence are
    /// bit-identical.
    #[inline]
    fn charge_site_trace(&mut self, site: &Site, fit: u64) {
        let cells = site.cells().iter().map(|c| (c.phase, c.op, c.count));
        self.trace.charge_cells(self.region, cells, fit);
    }

    /// Charges a whole op sequence in one funding decision, when nothing
    /// can interrupt it: the device is on, no bundled-loop iteration is
    /// recording, the buffer covers every op, and no armed fault target
    /// of any kind lies inside the sequence. The sequence is `loose`, a
    /// dense charge at the current accounting context, plus `repeats[k]`
    /// iterations of each site `sites[k]`'s bundle, in any order. Then
    /// lands `writes`, the sequence's FRAM stores, in order.
    ///
    /// The funding decision reads the prices `loose` and the sites keep,
    /// so it costs a few additions per repeated site; the trace charge
    /// adds `loose`'s counts and each repeated site's nonzero counts.
    ///
    /// Returns `false`, having charged and stored nothing, when any of
    /// these fails; the caller then runs the sequence op by op. Per-op
    /// energies are non-negative integers, so a buffer that covers the
    /// whole sequence covers every prefix: when this returns `true` the
    /// op-by-op run would have completed too, with the same trace, op
    /// counter and charge. The caller performs the sequence's other
    /// effects.
    ///
    /// # Panics
    ///
    /// Panics if a site with repeats has recorded no bundle, or `repeats`
    /// and `sites` differ in length.
    pub fn fund_whole(
        &mut self,
        loose: &Charge,
        sites: &[Site],
        repeats: &[u64],
        writes: impl IntoIterator<Item = (NvAddr, Q15)>,
    ) -> bool {
        assert_eq!(sites.len(), repeats.len(), "one repeat count per site");
        if !self.on || self.record.is_some() {
            return false;
        }
        let (mut len, mut energy) = (loose.len(), loose.energy_pj());
        for (site, &n) in sites.iter().zip(repeats) {
            if n > 0 {
                let (l, e) = site.cost(&self.spec.costs).expect("a repeated site");
                len += n * l;
                energy += n * e;
            }
        }
        let end = self.ops_consumed + len;
        if self.fault_queue.last().is_some_and(|&(t, _)| t < end) {
            return false;
        }
        if matches!(self.power, PowerSystem::Harvested(_)) {
            #[cfg(debug_assertions)]
            self.check_whole(loose, sites, repeats, energy);
            if energy > self.charge_pj {
                return false;
            }
            self.charge_pj -= energy;
        }
        if !loose.is_empty() {
            self.trace
                .charge_row(self.region, self.phase, loose.counts());
        }
        for (site, &n) in sites.iter().zip(repeats) {
            if n > 0 {
                self.charge_site_trace(site, n);
            }
        }
        self.ops_consumed = end;
        let watched = self.watched();
        for (addr, v) in writes {
            self.prepaid_write_at(addr, v, watched);
        }
        true
    }

    /// Debug builds: [`Device::fund_whole`]'s priced energy is its ops
    /// priced one class at a time, and no op it funds costs cycles but
    /// zero energy.
    #[cfg(debug_assertions)]
    fn check_whole(&self, loose: &Charge, sites: &[Site], repeats: &[u64], energy: u64) {
        let mut counts = *loose.counts();
        for (site, &n) in sites.iter().zip(repeats) {
            if let Some(b) = site.bundle().filter(|_| n > 0) {
                for e in b.ops() {
                    counts[e.op.index()] += e.count * n;
                }
            }
        }
        self.check_free_ops(&[counts, [0; Op::COUNT]]);
        let priced: u64 = Op::ALL
            .iter()
            .map(|&op| counts[op.index()] * self.spec.costs.cost(op).energy_pj)
            .sum();
        assert_eq!(
            energy, priced,
            "a whole charge's price drifted from its ops"
        );
    }

    /// Adds `n` forward-progress beacons at once (the bundled counterpart
    /// of calling [`Device::mark_progress`] per loop iteration).
    pub(crate) fn mark_progress_n(&mut self, n: u64) {
        self.trace.mark_progress_n(n);
    }

    /// Recharges the buffer and reboots the device after a power failure:
    /// dead time accrues while the harvest profile — integrated from the
    /// device's current absolute time — refills the deficit, SRAM is
    /// cleared to [`SRAM_GARBAGE`], FRAM persists, and the boot overhead
    /// is charged.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyDead`] when the harvest profile can never refill
    /// the buffer (zero average input power); the device stays off and no
    /// dead time is accrued.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is too small to even cover the boot sequence
    /// (a misconfigured power system, not a runtime condition).
    pub fn reboot(&mut self) -> Result<(), SupplyDead> {
        if let PowerSystem::Harvested(h) = &self.power {
            let buffer = h.buffer_energy_pj();
            let deficit = buffer - self.charge_pj;
            let t0 = self.elapsed_secs();
            let Some(dead) = h.recharge_secs_at(t0, deficit) else {
                return Err(SupplyDead);
            };
            self.trace.add_dead_time(dead);
            self.charge_pj = buffer;
        }
        self.on = true;
        // A torn-write fault whose brown-out caught no FRAM store in
        // flight degrades to a clean brown-out.
        self.torn_pending = false;
        // Attribute the power failure to the region that was executing
        // when the buffer emptied: the raw signal behind per-layer DNC
        // (starvation) attribution.
        self.trace.add_reboot(self.region);
        for w in &mut self.sram {
            *w = SRAM_GARBAGE;
        }
        // The boot sequence is not an injectable boundary: an armed fault
        // target landing inside it would re-kill the device before any
        // program op ran. Boot ops still advance the op counter, but the
        // queue is parked while they charge.
        let queue = std::mem::take(&mut self.fault_queue);
        self.consume(Op::Boot)
            .expect("power buffer smaller than boot overhead");
        self.fault_queue = queue;
        Ok(())
    }

    // ----- allocation ------------------------------------------------

    /// Allocates a FRAM array (a link-time concept; costs no energy).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when FRAM is exhausted.
    pub fn fram_alloc(&mut self, len: u32) -> Result<FramBuf, AllocError> {
        let available = self.spec.fram_words - self.fram_brk;
        if len > available {
            return Err(AllocError {
                requested: len,
                available,
                fram: true,
            });
        }
        let buf = FramBuf {
            base: self.fram_brk,
            len,
        };
        self.fram_brk += len;
        Ok(buf)
    }

    /// Allocates a single FRAM counter word.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when FRAM is exhausted.
    pub fn fram_alloc_word(&mut self) -> Result<FramWord, AllocError> {
        let buf = self.fram_alloc(1)?;
        Ok(FramWord { addr: buf.base })
    }

    /// Allocates an SRAM array.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when SRAM is exhausted (it is only 4 KB).
    pub fn sram_alloc(&mut self, len: u32) -> Result<SramBuf, AllocError> {
        let available = self.spec.sram_words - self.sram_brk;
        if len > available {
            return Err(AllocError {
                requested: len,
                available,
                fram: false,
            });
        }
        let buf = SramBuf {
            base: self.sram_brk,
            len,
        };
        self.sram_brk += len;
        Ok(buf)
    }

    /// The current (FRAM, SRAM) allocation watermarks — a link-time
    /// concept, like recording the data-segment break.
    pub fn alloc_watermarks(&self) -> (u32, u32) {
        (self.fram_brk, self.sram_brk)
    }

    /// Rewinds both allocators to watermarks previously returned by
    /// [`Device::alloc_watermarks`], releasing everything allocated since.
    ///
    /// Runtimes allocate per-run working state (TAILS's SRAM staging
    /// buffers, the Alpaca redo log) when they are built; on a long-lived
    /// deployment each inference rebuilds its runtime, so the harness
    /// rewinds between runs — every run then links against the identical
    /// layout instead of leaking the arena.
    ///
    /// # Panics
    ///
    /// Panics if a watermark lies beyond the current break.
    pub fn rewind_allocs(&mut self, marks: (u32, u32)) {
        let (fram, sram) = marks;
        assert!(fram <= self.fram_brk, "FRAM watermark in the future");
        assert!(sram <= self.sram_brk, "SRAM watermark in the future");
        self.fram_brk = fram;
        self.sram_brk = sram;
    }

    /// Words of FRAM still unallocated.
    pub fn fram_available(&self) -> u32 {
        self.spec.fram_words - self.fram_brk
    }

    // ----- NVM write chokepoint ----------------------------------------
    //
    // Every *legitimate* FRAM mutation funnels through `nv_store`: it
    // refreshes the ECC-style guard shadow with the value software
    // intended to store, then lands the value through any stuck-at
    // cells. Injected faults mutate `fram` directly (bypassing the
    // shadow), which is exactly the divergence read-time verification
    // detects. With no guards and no stuck cells both helpers reduce to
    // a plain array store, so the fault-free fast path is unchanged.

    /// Stores `v` at raw FRAM index `addr` as a legitimate write. A
    /// caller passes `watched = false` only when it knows no watch is
    /// armed ([`crate::Step`] and [`crate::Taped`] know it when they are
    /// built, so that their hot paths skip the watch test).
    #[inline]
    fn nv_store(&mut self, addr: u32, v: i16, watched: bool) {
        debug_assert!(
            watched || self.watch.is_none(),
            "an unwatched store on a watched device"
        );
        if watched {
            self.watch_write(addr, 1);
        }
        if let Some(k) = self.guard_index(addr) {
            self.guard_shadow[k].1 = v;
        }
        let v = if self.stuck.is_empty() {
            v
        } else {
            self.stuck_adjust(addr, v)
        };
        self.fram[addr as usize] = v;
    }

    /// [`Device::nv_store`] without the watch test, for the per-word
    /// loops of block stores, which report their whole span to the watch
    /// once. A copy rather than a call from `nv_store`: routing
    /// `nv_store` through it changed inlining in release and slowed
    /// SONIC's funded loops by 5–15%.
    #[inline]
    fn nv_land(&mut self, addr: u32, v: i16) {
        if let Some(k) = self.guard_index(addr) {
            self.guard_shadow[k].1 = v;
        }
        let v = if self.stuck.is_empty() {
            v
        } else {
            self.stuck_adjust(addr, v)
        };
        self.fram[addr as usize] = v;
    }

    /// Forces every stuck bit registered for `addr` in a value about to
    /// land there.
    fn stuck_adjust(&self, addr: u32, mut v: i16) -> i16 {
        for &(a, bit, high) in &self.stuck {
            if a == addr {
                v = Self::force_bit(v, bit, high);
            }
        }
        v
    }

    /// Applies a pending [`FaultKind::TornWrite`] to the FRAM store the
    /// brown-out interrupted: the intended value's low byte lands, the
    /// high byte keeps its old contents. An injected effect, so the
    /// guard shadow is *not* updated.
    #[inline]
    fn maybe_tear(&mut self, addr: u32, intended: i16) {
        if self.torn_pending {
            self.torn_pending = false;
            self.pristine = false;
            self.watch_read(addr, 1);
            let old = self.fram[addr as usize];
            let torn = (old & !0xFF) | (intended & 0xFF);
            let torn = if self.stuck.is_empty() {
                torn
            } else {
                self.stuck_adjust(addr, torn)
            };
            self.fram[addr as usize] = torn;
        }
    }

    // ----- metered memory access --------------------------------------

    /// Reads one Q1.15 word from FRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn read(&mut self, buf: FramBuf, i: u32) -> Result<Q15, PowerFailure> {
        assert!(i < buf.len, "FRAM read out of bounds: {i} >= {}", buf.len);
        self.consume(Op::FramRead)?;
        self.watch_read(buf.base + i, 1);
        Ok(Q15::from_raw(self.fram[(buf.base + i) as usize]))
    }

    /// Writes one Q1.15 word to FRAM (atomic at word granularity).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; the word is unmodified —
    /// unless the brown-out was a [`FaultKind::TornWrite`], which lands
    /// a half-written word.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn write(&mut self, buf: FramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        assert!(i < buf.len, "FRAM write out of bounds: {i} >= {}", buf.len);
        if let Err(e) = self.consume(Op::FramWrite) {
            self.maybe_tear(buf.base + i, v.raw());
            return Err(e);
        }
        self.nv_store(buf.base + i, v.raw(), true);
        Ok(())
    }

    /// Reads one Q1.15 word from SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn sram_read(&mut self, buf: SramBuf, i: u32) -> Result<Q15, PowerFailure> {
        assert!(i < buf.len, "SRAM read out of bounds: {i} >= {}", buf.len);
        self.consume(Op::SramRead)?;
        Ok(Q15::from_raw(self.sram[(buf.base + i) as usize]))
    }

    /// Writes one Q1.15 word to SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; the word is unmodified.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn sram_write(&mut self, buf: SramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        assert!(i < buf.len, "SRAM write out of bounds: {i} >= {}", buf.len);
        self.consume(Op::SramWrite)?;
        self.sram[(buf.base + i) as usize] = v.raw();
        Ok(())
    }

    /// Reads a 16-bit counter from FRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    #[inline]
    pub fn load_word(&mut self, w: FramWord) -> Result<u16, PowerFailure> {
        self.consume(Op::FramRead)?;
        self.watch_read(w.addr, 1);
        Ok(self.fram[w.addr as usize] as u16)
    }

    /// Writes a 16-bit counter to FRAM (atomic).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; the word is unmodified —
    /// unless the brown-out was a [`FaultKind::TornWrite`], which lands
    /// a half-written word.
    #[inline]
    pub fn store_word(&mut self, w: FramWord, v: u16) -> Result<(), PowerFailure> {
        if let Err(e) = self.consume(Op::FramWrite) {
            self.maybe_tear(w.addr, v as i16);
            return Err(e);
        }
        self.nv_store(w.addr, v as i16, true);
        Ok(())
    }

    /// Reads the FRAM word at a raw address (metered as a FRAM read).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    #[inline]
    pub fn read_at(&mut self, addr: NvAddr) -> Result<Q15, PowerFailure> {
        self.consume(Op::FramRead)?;
        self.watch_read(addr.0, 1);
        Ok(Q15::from_raw(self.fram[addr.0 as usize]))
    }

    /// Writes the FRAM word at a raw address (metered, atomic).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; the word is unmodified —
    /// unless the brown-out was a [`FaultKind::TornWrite`], which lands
    /// a half-written word.
    #[inline]
    pub fn write_at(&mut self, addr: NvAddr, v: Q15) -> Result<(), PowerFailure> {
        if let Err(e) = self.consume(Op::FramWrite) {
            self.maybe_tear(addr.0, v.raw());
            return Err(e);
        }
        self.nv_store(addr.0, v.raw(), true);
        Ok(())
    }

    /// Host-side read of a raw FRAM address (no energy).
    #[inline]
    pub fn peek_at(&self, addr: NvAddr) -> Q15 {
        self.watch_read(addr.0, 1);
        Q15::from_raw(self.fram[addr.0 as usize])
    }

    /// [`Device::peek_at`] that tests the watch only when `watched` (see
    /// [`Device::nv_store`]).
    #[inline(always)]
    pub(crate) fn prepaid_peek(&self, addr: NvAddr, watched: bool) -> Q15 {
        debug_assert!(
            watched || self.watch.is_none(),
            "an unwatched peek on a watched device"
        );
        if watched {
            self.watch_read(addr.0, 1);
        }
        Q15::from_raw(self.fram[addr.0 as usize])
    }

    // ----- pre-charged access (bundled accounting) ---------------------
    //
    // The unmetered data movement behind a funded charge: when a bundle,
    // a taped body's settle or [`Device::fund_whole`] has already charged
    // the memory ops in bulk, their effects happen through these. They
    // back the funded mode of `Step`, the `Taped` handle, and
    // the stores `fund_whole` lands. Using them without a matching charge
    // breaks the energy model.

    /// Pre-charged FRAM read.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline(always)]
    pub(crate) fn prepaid_read(&self, buf: FramBuf, i: u32, watched: bool) -> Q15 {
        assert!(i < buf.len, "FRAM read out of bounds: {i} >= {}", buf.len);
        debug_assert!(
            watched || self.watch.is_none(),
            "an unwatched read on a watched device"
        );
        if watched {
            self.watch_read(buf.base + i, 1);
        }
        Q15::from_raw(self.fram[(buf.base + i) as usize])
    }

    /// Pre-charged FRAM write.
    #[inline]
    pub(crate) fn prepaid_write(&mut self, buf: FramBuf, i: u32, v: Q15, watched: bool) {
        assert!(i < buf.len, "FRAM write out of bounds: {i} >= {}", buf.len);
        self.nv_store(buf.base + i, v.raw(), watched);
    }

    /// Pre-charged SRAM read.
    #[inline]
    pub(crate) fn prepaid_sram_read(&self, buf: SramBuf, i: u32) -> Q15 {
        assert!(i < buf.len, "SRAM read out of bounds: {i} >= {}", buf.len);
        Q15::from_raw(self.sram[(buf.base + i) as usize])
    }

    /// Pre-charged SRAM write.
    #[inline]
    pub(crate) fn prepaid_sram_write(&mut self, buf: SramBuf, i: u32, v: Q15) {
        assert!(i < buf.len, "SRAM write out of bounds: {i} >= {}", buf.len);
        self.sram[(buf.base + i) as usize] = v.raw();
    }

    /// Pre-charged write of a FRAM counter word.
    #[inline]
    pub(crate) fn prepaid_store_word(&mut self, w: FramWord, v: u16, watched: bool) {
        self.nv_store(w.addr, v as i16, watched);
    }

    /// Pre-charged write of a raw FRAM address.
    #[inline]
    pub(crate) fn prepaid_write_at(&mut self, addr: NvAddr, v: Q15, watched: bool) {
        self.nv_store(addr.0, v.raw(), watched);
    }

    // ----- span-charged block access -----------------------------------

    /// Reads `out.len()` consecutive SRAM words starting at
    /// `buf[offset]`, charging the whole span with one arithmetic step.
    ///
    /// Bit-identical to a read-one-word-at-a-time loop: on a brown-out
    /// the reads that fit were charged (and delivered — though the `?` on
    /// the error usually drops them, matching volatile loss).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the span does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `offset + out.len()` exceeds the buffer.
    pub fn sram_read_block(
        &mut self,
        buf: SramBuf,
        offset: u32,
        out: &mut [Q15],
    ) -> Result<(), PowerFailure> {
        let len = out.len() as u32;
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= buf.len),
            "SRAM block read out of bounds: {offset}+{len} > {}",
            buf.len
        );
        let (fit, r) = self.consume_upto(Op::SramRead, len as u64);
        let base = (buf.base + offset) as usize;
        for (i, slot) in out.iter_mut().take(fit as usize).enumerate() {
            *slot = Q15::from_raw(self.sram[base + i]);
        }
        r
    }

    /// Writes `data` to consecutive SRAM words starting at `buf[offset]`,
    /// charging the whole span with one arithmetic step. On a brown-out
    /// exactly the words that fit are written, like the scalar loop.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the span does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds the buffer.
    pub fn sram_write_block(
        &mut self,
        buf: SramBuf,
        offset: u32,
        data: &[Q15],
    ) -> Result<(), PowerFailure> {
        let len = data.len() as u32;
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= buf.len),
            "SRAM block write out of bounds: {offset}+{len} > {}",
            buf.len
        );
        let (fit, r) = self.consume_upto(Op::SramWrite, len as u64);
        let base = (buf.base + offset) as usize;
        for (i, q) in data.iter().take(fit as usize).enumerate() {
            self.sram[base + i] = q.raw();
        }
        r
    }

    // ----- unmetered host ports (the "measurement MCU") ----------------

    /// Installs data into FRAM without consuming energy, like flashing the
    /// binary image before deployment. Shorter data leaves the tail intact.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than `buf`.
    pub fn flash(&mut self, buf: FramBuf, data: &[Q15]) {
        assert!(data.len() <= buf.len as usize, "flash overflows buffer");
        let (lo, hi) = (buf.base, buf.base + data.len() as u32);
        self.watch_write(lo, hi - lo);
        if self.guarded_in(lo, hi) || self.stuck.iter().any(|&(a, ..)| (lo..hi).contains(&a)) {
            for (i, q) in data.iter().enumerate() {
                self.nv_land(lo + i as u32, q.raw());
            }
        } else {
            // No shadow to refresh and no stuck cell to apply: the span
            // lands as one copy.
            for (w, q) in self.fram[lo as usize..hi as usize].iter_mut().zip(data) {
                *w = q.raw();
            }
        }
    }

    /// Installs a single counter word without consuming energy (flash-time
    /// initialization of runtime control words).
    pub fn flash_word(&mut self, w: FramWord, v: u16) {
        self.nv_store(w.addr, v as i16, true);
    }

    /// Host-side snapshot of a FRAM buffer (no energy): the debug port the
    /// measurement MCU uses to extract results.
    pub fn peek(&self, buf: FramBuf) -> Vec<Q15> {
        self.watch_read(buf.base, buf.len);
        self.fram[buf.base as usize..(buf.base + buf.len) as usize]
            .iter()
            .map(|&w| Q15::from_raw(w))
            .collect()
    }

    /// Host-side read of a FRAM counter word (no energy).
    pub fn peek_word(&self, w: FramWord) -> u16 {
        self.watch_read(w.addr, 1);
        self.fram[w.addr as usize] as u16
    }

    /// Host-side view of the allocated FRAM image (no energy): every word
    /// the allocator has handed out so far, in address order, so raw
    /// indices into the slice coincide with [`NvAddr`] word indices.
    /// Whole-image comparisons (a cloned device against a fresh one) read
    /// it through this debug port.
    pub fn fram_image(&self) -> &[i16] {
        self.watch_read(0, self.fram_brk);
        &self.fram[..self.fram_brk as usize]
    }

    /// Host-side snapshot of an SRAM buffer (no energy), for tests.
    pub fn sram_peek(&self, buf: SramBuf) -> Vec<Q15> {
        self.sram[buf.base as usize..(buf.base + buf.len) as usize]
            .iter()
            .map(|&w| Q15::from_raw(w))
            .collect()
    }

    // ----- DMA ---------------------------------------------------------
    //
    // Each DMA and LEA command charges its ops, then performs its effect
    // through an uncharged helper that a funded [`Step`] calls directly.

    /// DMA block copy FRAM → SRAM. Words are moved one at a time, so a
    /// brown-out mid-transfer leaves a partial (volatile) copy.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn dma_fram_to_sram(&mut self, src: FramBuf, dst: SramBuf) -> Result<(), PowerFailure> {
        assert_eq!(src.len, dst.len, "dma: length mismatch");
        self.consume(Op::DmaSetup)?;
        // Span-charged: one arithmetic step funds the transfer, and on a
        // brown-out exactly the words that fit have moved — identical to
        // the historical consume-per-word loop.
        let (fit, r) = self.consume_upto(Op::DmaWord, src.len as u64);
        self.dma_in(src, dst, fit as usize);
        r
    }

    /// The effect of a FRAM → SRAM transfer's first `n` words.
    pub(crate) fn dma_in(&mut self, src: FramBuf, dst: SramBuf, n: usize) {
        assert_eq!(src.len, dst.len, "dma: length mismatch");
        self.watch_read(src.base, n as u32);
        let (s, d) = (src.base as usize, dst.base as usize);
        self.sram[d..d + n].copy_from_slice(&self.fram[s..s + n]);
    }

    /// DMA block copy SRAM → FRAM. A brown-out mid-transfer leaves a
    /// partial *non-volatile* copy — callers must make this safe (TAILS
    /// writes only to the inactive half of a double buffer).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn dma_sram_to_fram(&mut self, src: SramBuf, dst: FramBuf) -> Result<(), PowerFailure> {
        assert_eq!(src.len, dst.len, "dma: length mismatch");
        self.consume(Op::DmaSetup)?;
        let (fit, r) = self.consume_upto(Op::DmaWord, src.len as u64);
        let n = fit as usize;
        self.dma_out(src, dst, n);
        if r.is_err() && (fit as u32) < dst.len {
            let v = self.sram[src.base as usize + n];
            self.maybe_tear(dst.base + fit as u32, v);
        }
        r
    }

    /// The effect of an SRAM → FRAM transfer's first `n` words.
    pub(crate) fn dma_out(&mut self, src: SramBuf, dst: FramBuf, n: usize) {
        assert_eq!(src.len, dst.len, "dma: length mismatch");
        let (s, d) = (src.base as usize, dst.base as usize);
        self.watch_write(dst.base, n as u32);
        if self.guard_shadow.is_empty() && self.stuck.is_empty() {
            self.fram[d..d + n].copy_from_slice(&self.sram[s..s + n]);
        } else {
            for i in 0..n {
                let v = self.sram[s + i];
                self.nv_land(dst.base + i as u32, v);
            }
        }
    }

    // ----- LEA ----------------------------------------------------------

    /// LEA FIR discrete-time convolution over SRAM buffers:
    /// `out[i] = Σ_j src[i+j]·taps[j]` (valid correlation).
    ///
    /// LEA can only address SRAM, which the signature enforces with
    /// [`SramBuf`] operands. Charges one setup plus one MAC per
    /// tap-multiply; results land in SRAM (volatile, safe to lose).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty, longer than `src`, or `out` is not
    /// exactly `src.len() - taps.len() + 1` words.
    pub fn lea_fir(
        &mut self,
        src: SramBuf,
        taps: SramBuf,
        out: SramBuf,
    ) -> Result<(), PowerFailure> {
        let n = Self::fir_outputs(src, taps, out);
        self.consume(Op::LeaSetup)?;
        self.consume_n(Op::LeaMac, n as u64 * taps.len as u64)?;
        self.fir_effect(src, taps, out);
        Ok(())
    }

    /// The output count of a FIR over these operands, checking their
    /// shapes.
    fn fir_outputs(src: SramBuf, taps: SramBuf, out: SramBuf) -> u32 {
        assert!(!taps.is_empty(), "lea_fir: empty taps");
        assert!(taps.len <= src.len, "lea_fir: taps longer than input");
        let n = src.len - taps.len + 1;
        assert_eq!(out.len, n, "lea_fir: bad output length");
        n
    }

    /// The arithmetic of [`Device::lea_fir`].
    pub(crate) fn fir_effect(&mut self, src: SramBuf, taps: SramBuf, out: SramBuf) {
        for i in 0..Self::fir_outputs(src, taps, out) {
            let mut acc = Accum::ZERO;
            for j in 0..taps.len {
                let s = Q15::from_raw(self.sram[(src.base + i + j) as usize]);
                let t = Q15::from_raw(self.sram[(taps.base + j) as usize]);
                acc.mac(s, t);
            }
            self.sram[(out.base + i) as usize] = acc.to_q15().raw();
        }
    }

    /// LEA vector multiply-accumulate (dot product) over SRAM buffers.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn lea_dot(&mut self, a: SramBuf, b: SramBuf) -> Result<Accum, PowerFailure> {
        assert_eq!(a.len, b.len, "lea_dot: length mismatch");
        self.consume(Op::LeaSetup)?;
        self.consume_n(Op::LeaMac, a.len as u64)?;
        Ok(self.dot_effect(a, b))
    }

    /// The arithmetic of [`Device::lea_dot`].
    pub(crate) fn dot_effect(&self, a: SramBuf, b: SramBuf) -> Accum {
        assert_eq!(a.len, b.len, "lea_dot: length mismatch");
        let mut acc = Accum::ZERO;
        for i in 0..a.len {
            acc.mac(
                Q15::from_raw(self.sram[(a.base + i) as usize]),
                Q15::from_raw(self.sram[(b.base + i) as usize]),
            );
        }
        acc
    }

    /// LEA element-wise add `dst += src` over SRAM buffers, chained onto
    /// the preceding LEA command (no fresh setup): one MAC per element,
    /// then one SRAM write per result word. On a brown-out among the
    /// writes exactly the words that fit have landed.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn lea_add(&mut self, dst: SramBuf, src: SramBuf) -> Result<(), PowerFailure> {
        assert_eq!(dst.len, src.len, "lea_add: length mismatch");
        self.consume_n(Op::LeaMac, dst.len as u64)?;
        let (fit, r) = self.consume_upto(Op::SramWrite, dst.len as u64);
        self.add_effect(dst, src, fit as usize);
        r
    }

    /// The effect of [`Device::lea_add`] on its first `n` words.
    pub(crate) fn add_effect(&mut self, dst: SramBuf, src: SramBuf, n: usize) {
        assert_eq!(dst.len, src.len, "lea_add: length mismatch");
        for i in 0..n {
            let (d, s) = (dst.base as usize + i, src.base as usize + i);
            self.sram[d] = (Q15::from_raw(self.sram[d]) + Q15::from_raw(self.sram[s])).raw();
        }
    }

    // ----- integrity guards (FRAM-controller ECC model) -----------------
    //
    // The MSP430's FRAM controller keeps ECC bits beside every word and
    // corrects/flags on read. The simulator models the check bits as a
    // host-side shadow of each guarded word's *intended* value: every
    // legitimate write path refreshes the shadow transparently and for
    // free (the controller computes ECC inside the write it already
    // charged), while injected faults (bit flips, stuck cells, torn
    // stores) mutate the array behind the shadow's back. Runtimes call
    // [`Device::verify_word`] at control-read chokepoints to surface the
    // divergence. A device with no registered guards has zero overhead
    // and bit-identical behavior.
    //
    // Each layer guards only a handful of control words, so almost every
    // store and verify is of an unguarded word. A one-bit-per-word
    // prefilter (`guard_bits`) answers those with a single bit test; its
    // per-block ranks locate a guarded word's shadow without a search.

    /// The shadow slot of a guarded word, `None` for an unguarded one:
    /// one bit test, then the block's rank plus the guarded words below
    /// `addr` in its block.
    #[inline]
    fn guard_index(&self, addr: u32) -> Option<usize> {
        let &(bits, rank) = self.guard_bits.get((addr >> 6) as usize)?;
        let below = bits & ((1u64 << (addr & 63)) - 1);
        ((bits >> (addr & 63)) & 1 != 0).then(|| rank as usize + below.count_ones() as usize)
    }

    /// Registers `len` consecutive FRAM words starting at `addr` under
    /// ECC guarding, snapshotting their current contents as the intended
    /// values. Re-registering a guarded word refreshes its snapshot.
    fn guard_span(&mut self, addr: NvAddr, len: u32) {
        // Ranks below the span's first block, or below the first block
        // appended here, stay valid: re-rank from the lower of the two.
        let first = ((addr.0 >> 6) as usize).min(self.guard_bits.len());
        self.watch_read(addr.0, len);
        for a in addr.0..addr.0 + len {
            let v = self.fram[a as usize];
            match self.guard_shadow.binary_search_by_key(&a, |e| e.0) {
                Ok(k) => self.guard_shadow[k].1 = v,
                Err(k) => self.guard_shadow.insert(k, (a, v)),
            }
            let w = (a >> 6) as usize;
            if w >= self.guard_bits.len() {
                self.guard_bits.resize(w + 1, (0, 0));
            }
            self.guard_bits[w].0 |= 1 << (a & 63);
        }
        let mut rank = match first.checked_sub(1) {
            Some(p) => self.guard_bits[p].1 + self.guard_bits[p].0.count_ones(),
            None => 0,
        };
        for (bits, r) in &mut self.guard_bits[first..] {
            *r = rank;
            rank += bits.count_ones();
        }
    }

    /// `true` when some word in `[lo, hi)` is guarded.
    fn guarded_in(&self, lo: u32, hi: u32) -> bool {
        let k = self.guard_shadow.partition_point(|e| e.0 < lo);
        self.guard_shadow.get(k).is_some_and(|e| e.0 < hi)
    }

    /// Registers a single counter word under ECC guarding.
    pub fn guard_word(&mut self, w: FramWord) {
        self.guard_span(NvAddr(w.addr), 1);
    }

    /// ECC read check: `true` when the word at `addr` matches its guard
    /// shadow, or is not guarded at all. No energy: the controller
    /// verifies check bits inside the read that was already charged.
    #[inline]
    pub fn verify_at(&self, addr: NvAddr) -> bool {
        self.pristine
            || self.guard_index(addr.0).is_none_or(|k| {
                self.watch_read(addr.0, 1);
                self.guard_shadow[k].1 == self.fram[addr.0 as usize]
            })
    }

    /// ECC read check of a counter word; see [`Device::verify_at`].
    pub fn verify_word(&self, w: FramWord) -> bool {
        self.verify_at(NvAddr(w.addr))
    }

    /// The guard shadow's intended value for `addr`, if the word is
    /// guarded — what ECC correction would reconstruct.
    pub fn guarded_intended(&self, addr: NvAddr) -> Option<u16> {
        self.guard_index(addr.0)
            .map(|k| self.guard_shadow[k].1 as u16)
    }

    /// Memory faults injected so far (bit flips fired + stuck-at cells
    /// armed); brown-outs are counted separately via the trace.
    pub fn mem_faults_injected(&self) -> u64 {
        self.mem_faults_injected
    }

    /// Notes a detected corruption in `region` and spends one recovery
    /// attempt. Returns `true` while recovery may proceed; returns
    /// `false` once the bounded-retry budget
    /// ([`CORRUPTION_RETRY_LIMIT`]) is exhausted, at which point the
    /// corruption is recorded as unrecoverable and the caller must abort
    /// rather than retry (a stuck control cell re-corrupts every scrub).
    pub fn note_corruption(&mut self, region: RegionId) -> bool {
        self.corruption_detected += 1;
        if self.corruption_budget == 0 {
            if self.unrecoverable.is_none() {
                self.unrecoverable = Some(region);
            }
            return false;
        }
        self.corruption_budget -= 1;
        true
    }

    /// Corruption detections noted since the last
    /// [`Device::reset_corruption_stats`].
    pub fn corruption_detected(&self) -> u64 {
        self.corruption_detected
    }

    /// The region of the first unrecoverable corruption, if recovery has
    /// been abandoned.
    pub fn corruption_unrecoverable(&self) -> Option<RegionId> {
        self.unrecoverable
    }

    /// Resets the per-run corruption accounting (detection count, retry
    /// budget, unrecoverable flag). Injected state — stuck cells, armed
    /// faults — is untouched.
    pub fn reset_corruption_stats(&mut self) {
        self.corruption_detected = 0;
        self.corruption_budget = CORRUPTION_RETRY_LIMIT;
        self.unrecoverable = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::Site;
    use crate::spec::CostTable;

    fn continuous() -> Device {
        Device::new(DeviceSpec::tiny(), PowerSystem::continuous())
    }

    #[test]
    fn fram_roundtrip_and_energy() {
        let mut d = continuous();
        let buf = d.fram_alloc(8).unwrap();
        d.write(buf, 3, Q15::HALF).unwrap();
        assert_eq!(d.read(buf, 3).unwrap(), Q15::HALF);
        let t = CostTable::msp430fr5994();
        let expect = t.cost(Op::FramWrite).energy_pj + t.cost(Op::FramRead).energy_pj;
        assert_eq!(d.trace().total_energy_pj(), expect);
    }

    #[test]
    fn sram_cleared_on_reboot_fram_persists() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let f = d.fram_alloc(1).unwrap();
        let s = d.sram_alloc(1).unwrap();
        d.write(f, 0, Q15::HALF).unwrap();
        d.sram_write(s, 0, Q15::HALF).unwrap();
        // Drain the buffer.
        while d.consume(Op::FxpMul).is_ok() {}
        assert!(!d.is_on());
        d.reboot().unwrap();
        assert!(d.is_on());
        assert_eq!(d.peek(f)[0], Q15::HALF, "FRAM must persist");
        assert_eq!(
            d.sram_peek(s)[0].raw(),
            SRAM_GARBAGE,
            "SRAM must be cleared"
        );
        assert_eq!(d.trace().reboots(), 1);
        assert!(d.trace().dead_secs() > 0.0);
    }

    #[test]
    fn failing_write_has_no_effect() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let f = d.fram_alloc(1).unwrap();
        d.write(f, 0, Q15::HALF).unwrap();
        while d.consume(Op::Nop).is_ok() {}
        assert_eq!(d.write(f, 0, Q15::ZERO), Err(PowerFailure));
        assert_eq!(d.peek(f)[0], Q15::HALF, "interrupted write must not land");
    }

    #[test]
    fn consume_n_partial_charge_then_failure() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let before = d.charge_pj();
        let per = d.spec().costs.cost(Op::FxpMul).energy_pj;
        let fits = before / per;
        // Ask for more than fits: should charge exactly `fits` and fail.
        assert_eq!(d.consume_n(Op::FxpMul, fits + 10), Err(PowerFailure));
        assert_eq!(d.trace().op_count(Op::FxpMul), fits);
        assert_eq!(d.charge_pj(), 0);
    }

    #[test]
    fn continuous_power_never_fails() {
        let mut d = continuous();
        for _ in 0..100_000 {
            d.consume(Op::FramWrite).unwrap();
        }
        assert!(d.is_on());
        assert!(d.trace().total_energy_pj() > 0);
    }

    #[test]
    fn operations_fail_while_off() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        while d.consume(Op::Nop).is_ok() {}
        assert_eq!(d.consume(Op::Alu), Err(PowerFailure));
        let f = d.fram_alloc(1).unwrap();
        assert_eq!(d.read(f, 0), Err(PowerFailure));
    }

    #[test]
    fn alloc_errors_when_exhausted() {
        let mut d = continuous();
        let sram_words = d.spec().sram_words;
        assert!(d.sram_alloc(sram_words).is_ok());
        let err = d.sram_alloc(1).unwrap_err();
        assert!(!err.fram);
        assert_eq!(err.available, 0);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn fram_alloc_respects_capacity() {
        let mut d = continuous();
        let cap = d.fram_available();
        assert!(d.fram_alloc(cap + 1).is_err());
        assert!(d.fram_alloc(cap).is_ok());
        assert_eq!(d.fram_available(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        let _ = d.read(buf, 4);
    }

    #[test]
    fn slice_narrows_handle() {
        let mut d = continuous();
        let buf = d.fram_alloc(10).unwrap();
        d.flash(buf, &fxp::vecops::quantize(&[0.1; 10]));
        let sub = buf.slice(4, 3);
        assert_eq!(sub.len(), 3);
        d.write(sub, 0, Q15::HALF).unwrap();
        assert_eq!(d.peek(buf)[4], Q15::HALF);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_out_of_range_panics() {
        let mut d = continuous();
        let buf = d.fram_alloc(10).unwrap();
        let _ = buf.slice(8, 3);
    }

    #[test]
    fn raw_addresses_alias_typed_handles() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        let a = buf.addr(2);
        d.write_at(a, Q15::HALF).unwrap();
        assert_eq!(d.read(buf, 2).unwrap(), Q15::HALF);
        assert_eq!(d.read_at(a).unwrap(), Q15::HALF);
        assert_eq!(d.peek_at(a), Q15::HALF);
        let w = d.fram_alloc_word().unwrap();
        d.store_word(w, 9).unwrap();
        assert_eq!(d.peek_at(w.addr()).raw() as u16, 9);
    }

    #[test]
    #[should_panic(expected = "addr out of bounds")]
    fn addr_out_of_bounds_panics() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        let _ = buf.addr(4);
    }

    #[test]
    fn word_counters_roundtrip() {
        let mut d = continuous();
        let w = d.fram_alloc_word().unwrap();
        d.store_word(w, 12345).unwrap();
        assert_eq!(d.load_word(w).unwrap(), 12345);
        assert_eq!(d.peek_word(w), 12345);
    }

    #[test]
    fn dma_roundtrip_matches_flash() {
        let mut d = continuous();
        let f = d.fram_alloc(16).unwrap();
        let s = d.sram_alloc(16).unwrap();
        let data = fxp::vecops::quantize(&[0.25; 16]);
        d.flash(f, &data);
        d.dma_fram_to_sram(f, s).unwrap();
        assert_eq!(d.sram_peek(s), data);
        let f2 = d.fram_alloc(16).unwrap();
        d.dma_sram_to_fram(s, f2).unwrap();
        assert_eq!(d.peek(f2), data);
        assert_eq!(d.trace().op_count(Op::DmaWord), 32);
        assert_eq!(d.trace().op_count(Op::DmaSetup), 2);
    }

    #[test]
    fn dma_partial_on_power_failure() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let f = d.fram_alloc(16).unwrap();
        d.flash(f, &fxp::vecops::quantize(&[0.5; 16]));
        let s = d.sram_alloc(16).unwrap();
        // Drain almost all energy so the DMA dies partway.
        let per_word = d.spec().costs.cost(Op::DmaWord).energy_pj;
        while d.charge_pj() > 8 * per_word {
            if d.consume(Op::Nop).is_err() {
                break;
            }
        }
        let r = d.dma_fram_to_sram(f, s);
        assert_eq!(r, Err(PowerFailure));
        // Some words may have moved; the transfer charged what it did.
        assert!(d.trace().op_count(Op::DmaWord) < 16);
    }

    #[test]
    fn lea_fir_matches_software_reference() {
        let mut d = continuous();
        let vals = [0.1f32, -0.2, 0.3, 0.05, -0.4, 0.2, 0.15, -0.1];
        let taps_f = [0.5f32, -0.25, 0.125];
        let src = d.sram_alloc(8).unwrap();
        let taps = d.sram_alloc(3).unwrap();
        let out = d.sram_alloc(6).unwrap();
        let qv = fxp::vecops::quantize(&vals);
        let qt = fxp::vecops::quantize(&taps_f);
        for (i, q) in qv.iter().enumerate() {
            d.sram_write(src, i as u32, *q).unwrap();
        }
        for (i, q) in qt.iter().enumerate() {
            d.sram_write(taps, i as u32, *q).unwrap();
        }
        d.lea_fir(src, taps, out).unwrap();
        assert_eq!(d.sram_peek(out), fxp::vecops::fir(&qv, &qt));
        assert_eq!(d.trace().op_count(Op::LeaMac), 18);
        assert_eq!(d.trace().op_count(Op::LeaSetup), 1);
    }

    #[test]
    fn lea_dot_matches_software_reference() {
        let mut d = continuous();
        let a = d.sram_alloc(4).unwrap();
        let b = d.sram_alloc(4).unwrap();
        let qa = fxp::vecops::quantize(&[0.1, 0.2, 0.3, 0.4]);
        let qb = fxp::vecops::quantize(&[0.4, 0.3, 0.2, 0.1]);
        for i in 0..4u32 {
            d.sram_write(a, i, qa[i as usize]).unwrap();
            d.sram_write(b, i, qb[i as usize]).unwrap();
        }
        let acc = d.lea_dot(a, b).unwrap();
        assert_eq!(acc, fxp::vecops::dot(&qa, &qb));
    }

    #[test]
    fn context_routes_charges_to_region() {
        let mut d = continuous();
        let conv = d.register_region("conv1");
        d.set_context(conv, Phase::Control);
        d.consume(Op::TaskTransition).unwrap();
        assert!(d.trace().region_phase_energy_pj(conv, Phase::Control) > 0);
        assert_eq!(d.trace().region_phase_energy_pj(conv, Phase::Kernel), 0);
        assert_eq!(d.context(), (conv, Phase::Control));
    }

    #[test]
    fn progress_marks_visible_in_trace() {
        let mut d = continuous();
        d.mark_progress();
        assert_eq!(d.trace().progress_marks(), 1);
    }

    #[test]
    fn zero_energy_zero_cycle_ops_execute_for_free_on_harvested_power() {
        // Pins the documented semantics of the `per == 0` path: a
        // zero-energy (and zero-cycle) op never browns the device out and
        // consumes no charge, however many are batched.
        let mut spec = DeviceSpec::tiny();
        spec.costs.set_cost(Op::Nop, crate::spec::Cost::new(0, 0));
        let mut d = Device::new(spec, PowerSystem::cap_100uf());
        let before = d.charge_pj();
        d.consume_n(Op::Nop, 1_000_000).unwrap();
        assert_eq!(d.charge_pj(), before, "free ops must not drain charge");
        assert_eq!(d.trace().op_count(Op::Nop), 1_000_000);
        assert_eq!(d.trace().live_cycles(), 0);
        assert!(d.is_on());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero-energy op")]
    fn zero_energy_op_with_cycles_is_a_spec_bug() {
        let mut spec = DeviceSpec::tiny();
        spec.costs.set_cost(Op::Nop, crate::spec::Cost::new(3, 0));
        let mut d = Device::new(spec, PowerSystem::cap_100uf());
        let _ = d.consume(Op::Nop);
    }

    #[test]
    fn reboot_on_dead_supply_reports_instead_of_infinite_dead_time() {
        let mut d = Device::new(
            DeviceSpec::tiny(),
            PowerSystem::harvested_with(100e-6, crate::power::HarvestProfile::Constant(0.0)),
        );
        // The first charge is free (device starts full), so it runs...
        while d.consume(Op::FxpMul).is_ok() {}
        assert!(!d.is_on());
        // ...but can never recharge: reboot reports it, no inf anywhere.
        assert_eq!(d.reboot(), Err(crate::device::SupplyDead));
        assert!(!d.is_on(), "a failed reboot leaves the device off");
        assert!(d.trace().dead_secs().is_finite());
        assert_eq!(d.trace().reboots(), 0);
    }

    #[test]
    fn recharge_integrates_time_varying_profile_from_current_time() {
        // A trace that is occluded for its first 100 s, then delivers the
        // paper's 150 µW for 10 s, repeating. The constant-profile
        // recharge of a full 100 µF buffer at 150 µW takes well under a
        // second, so the windows dwarf it.
        let profile = crate::power::HarvestProfile::Piecewise(vec![(100.0, 0.0), (10.0, 150e-6)]);
        let constant = crate::power::Harvester::constant(100e-6, 150e-6);
        let full = constant.recharge_secs(constant.buffer_energy_pj()).unwrap();
        assert!(full < 1.0);
        // The constant-profile device still reproduces exactly that (the
        // back-compat guarantee).
        let mut c = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        while c.consume(Op::FxpMul).is_ok() {}
        c.reboot().unwrap();
        assert_eq!(c.trace().dead_secs(), full);

        // First failure happens at t ≈ 0, mid-occlusion: the recharge must
        // wait out the rest of the dark window before charging.
        let mut d = Device::new(
            DeviceSpec::tiny(),
            PowerSystem::harvested_with(100e-6, profile),
        );
        while d.consume(Op::FxpMul).is_ok() {}
        d.reboot().unwrap();
        let first_dead = d.trace().dead_secs();
        assert!(
            first_dead > 99.0 && first_dead < 100.0 + full + 1e-6,
            "mid-occlusion recharge must wait for light: {first_dead} s"
        );
        // The device is now just inside the lit window. A second failure
        // recharges at full input power — same energy, far less dead time:
        // the profile is integrated from the *current* time, not t=0.
        while d.consume(Op::FxpMul).is_ok() {}
        let before = d.trace().dead_secs();
        d.reboot().unwrap();
        let second_dead = d.trace().dead_secs() - before;
        assert!(
            (second_dead - full).abs() < 1e-6,
            "lit-window recharge matches constant power: {second_dead} vs {full}"
        );
    }

    /// The canonical SONIC-ish loop iteration used by the differential
    /// bundle tests: mixed phases, mixed op classes.
    fn test_iteration() -> Vec<(Op, Phase)> {
        vec![
            (Op::Alu, Phase::Kernel),
            (Op::FramRead, Phase::Kernel),
            (Op::FxpMul, Phase::Kernel),
            (Op::FramWrite, Phase::Kernel),
            (Op::FramWrite, Phase::Control),
            (Op::Incr, Phase::Kernel),
            (Op::Branch, Phase::Kernel),
        ]
    }

    /// Runs `iters` iterations of the scalar path, one consume per op,
    /// stopping at the brown-out. Returns the consumed-op count at death.
    fn run_scalar(dev: &mut Device, seq: &[(Op, Phase)], iters: u64) -> Result<(), PowerFailure> {
        let region = dev.context().0;
        for _ in 0..iters {
            for &(op, phase) in seq {
                dev.set_context(region, phase);
                dev.consume(op)?;
            }
        }
        Ok(())
    }

    /// The differential loop's memory: an input row `x`, an output row
    /// `y`, and its loop-continuation word.
    struct TestLoop {
        x: FramBuf,
        y: FramBuf,
        ctl: FramWord,
    }

    const LOOP_WORDS: u32 = 16;

    fn test_loop(dev: &mut Device) -> TestLoop {
        let x = dev.fram_alloc(LOOP_WORDS).unwrap();
        let y = dev.fram_alloc(LOOP_WORDS).unwrap();
        let ctl = dev.fram_alloc_word().unwrap();
        let data: Vec<Q15> = (0..LOOP_WORDS as i16)
            .map(|i| Q15::from_raw(1000 * i - 7000))
            .collect();
        dev.flash(x, &data);
        TestLoop { x, y, ctl }
    }

    /// `iters` iterations of [`test_iteration`] with FRAM effects, one
    /// device call per op: `y[i] = x[i]·½`, then the loop-continuation
    /// store of `i + 1` and a progress beacon.
    fn scalar_loop(dev: &mut Device, lp: &TestLoop, iters: u32) -> Result<(), PowerFailure> {
        let region = dev.context().0;
        for i in 0..iters {
            dev.set_context(region, Phase::Kernel);
            dev.consume(Op::Alu)?;
            let v = dev.read(lp.x, i % LOOP_WORDS)?;
            dev.consume(Op::FxpMul)?;
            dev.write(lp.y, i % LOOP_WORDS, v * Q15::HALF)?;
            dev.set_context(region, Phase::Control);
            dev.store_word(lp.ctl, (i + 1) as u16)?;
            dev.set_context(region, Phase::Kernel);
            dev.consume(Op::Incr)?;
            dev.consume(Op::Branch)?;
            dev.mark_progress();
        }
        Ok(())
    }

    /// The same loop through [`Device::run_bundled`] against `site`,
    /// counting the iterations that run in scalar mode (recording
    /// included) into `scalar_iters`.
    fn driven_loop_at(
        dev: &mut Device,
        lp: &TestLoop,
        site: &mut Site,
        iters: u32,
        scalar_iters: &mut u32,
    ) -> Result<(), PowerFailure> {
        let region = dev.context().0;
        dev.set_context(region, Phase::Kernel);
        dev.run_bundled(site, 0..iters, |s, i| {
            *scalar_iters += u32::from(!s.funded());
            s.op(Op::Alu)?;
            let v = s.read(lp.x, i % LOOP_WORDS)?;
            s.op(Op::FxpMul)?;
            s.write(lp.y, i % LOOP_WORDS, v * Q15::HALF)?;
            s.checkpoint(lp.ctl, (i + 1) as u16)?;
            s.op(Op::Incr)?;
            s.op(Op::Branch)?;
            s.progress();
            Ok(())
        })
    }

    /// [`driven_loop_at`] on a fresh site.
    fn driven_loop(dev: &mut Device, lp: &TestLoop, iters: u32) -> Result<(), PowerFailure> {
        driven_loop_at(dev, lp, &mut Site::default(), iters, &mut 0)
    }

    /// Traces, FRAM, op counters, brown-out records and progress beacons
    /// all agree.
    fn assert_devices_identical(a: &Device, b: &Device) {
        assert_traces_identical(a, b);
        assert_eq!(a.fram_image(), b.fram_image());
        assert_eq!(a.ops_consumed(), b.ops_consumed());
        assert_eq!(a.last_brownout(), b.last_brownout());
        assert_eq!(a.trace().progress_marks(), b.trace().progress_marks());
        assert_eq!(a.mem_faults_injected(), b.mem_faults_injected());
    }

    fn assert_traces_identical(a: &Device, b: &Device) {
        assert_eq!(a.charge_pj(), b.charge_pj());
        assert_eq!(a.is_on(), b.is_on());
        assert_eq!(a.trace().live_cycles(), b.trace().live_cycles());
        assert_eq!(a.trace().total_energy_pj(), b.trace().total_energy_pj());
        for op in Op::ALL {
            assert_eq!(a.trace().op_count(op), b.trace().op_count(op), "{op:?}");
            for phase in Phase::ALL {
                let sa = a.trace().stat(RegionId::OTHER, phase, op);
                let sb = b.trace().stat(RegionId::OTHER, phase, op);
                assert_eq!(sa, sb, "{op:?}/{phase:?}");
            }
        }
    }

    use crate::trace::RegionId;

    #[test]
    fn bundle_matches_scalar_on_continuous_power() {
        let mut a = continuous();
        let lp = test_loop(&mut a);
        let mut b = a.clone();
        scalar_loop(&mut a, &lp, 1000).unwrap();
        driven_loop(&mut b, &lp, 1000).unwrap();
        assert_devices_identical(&a, &b);
        assert_eq!(b.peek_word(lp.ctl), 1000);
    }

    #[test]
    fn bundle_brownout_lands_on_the_same_op_as_scalar() {
        // Enough work to kill the buffer several times over; compare the
        // full device state at every brown-out across repeated recharge
        // cycles.
        for _ in 0..4 {
            let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
            let lp = test_loop(&mut a);
            let mut b = a.clone();
            let mut iters = 10_000u32;
            loop {
                let ra = scalar_loop(&mut a, &lp, iters);
                let rb = driven_loop(&mut b, &lp, iters);
                assert_eq!(ra.is_err(), rb.is_err());
                assert_devices_identical(&a, &b);
                if ra.is_ok() {
                    break;
                }
                a.reboot().unwrap();
                b.reboot().unwrap();
                assert_devices_identical(&a, &b);
                // Remaining work is unknown after a failure mid-iteration;
                // keep hammering the same count to cross several reboots.
                iters /= 2;
                if iters == 0 {
                    break;
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not the sequence of its bundle")]
    fn a_scalar_iteration_that_strays_from_its_bundle_panics() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let lp = test_loop(&mut d);
        let mut site = Site::default();
        // Iteration 2 skips the increment its recorded bundle lists.
        let mut body = |s: &mut crate::Step<'_>, i: u32| {
            s.read(lp.x, i)?;
            if i != 2 {
                s.op(Op::Incr)?;
            }
            Ok(())
        };
        // Iteration 0 records a read and an increment, iteration 1 funds.
        d.run_bundled(&mut site, 0..2, &mut body).unwrap();
        // Drain the buffer to cover a read but not the bundle, so
        // iteration 2 runs in scalar mode and completes.
        let energy = |op| d.spec().costs.cost(op).energy_pj;
        let (read, incr) = (energy(Op::FramRead), energy(Op::Incr));
        d.consume_n(Op::Incr, (d.charge_pj() - read) / incr)
            .unwrap();
        assert!(read <= d.charge_pj() && d.charge_pj() < read + incr);
        let _ = d.run_bundled(&mut site, 2..3, &mut body);
    }

    #[test]
    fn a_brownout_while_recording_leaves_the_site_empty() {
        let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let lp = test_loop(&mut a);
        // An injected brown-out on op 3: inside the recording iteration.
        let start = a.ops_consumed();
        a.arm_faults(&FaultPlan::at(start + 3));
        let mut b = a.clone();
        let mut site = Site::default();
        let mut scalar_iters = 0;
        assert!(scalar_loop(&mut a, &lp, 100).is_err());
        assert!(driven_loop_at(&mut b, &lp, &mut site, 100, &mut scalar_iters).is_err());
        assert_devices_identical(&a, &b);
        assert_eq!(b.last_brownout().unwrap().op_index, start + 3);
        assert!(
            site.bundle().is_none(),
            "a failed recording records nothing"
        );
        assert_eq!(scalar_iters, 1);
        // The next call records again, then funds the rest.
        a.reboot().unwrap();
        b.reboot().unwrap();
        scalar_loop(&mut a, &lp, 100).unwrap();
        driven_loop_at(&mut b, &lp, &mut site, 100, &mut scalar_iters).unwrap();
        assert_devices_identical(&a, &b);
        assert_eq!(site.bundle().map(OpBundle::len), Some(7));
        assert_eq!(scalar_iters, 2);
    }

    #[test]
    fn a_recorded_site_funds_every_later_call() {
        let mut a = continuous();
        let lp = test_loop(&mut a);
        let mut b = a.clone();
        let mut site = Site::default();
        let mut scalar_iters = 0;
        scalar_loop(&mut a, &lp, 50).unwrap();
        driven_loop_at(&mut b, &lp, &mut site, 50, &mut scalar_iters).unwrap();
        assert_devices_identical(&a, &b);
        assert_eq!(scalar_iters, 1, "only the recording iteration is scalar");
        let mut want = OpBundle::new();
        for (op, phase) in test_iteration() {
            want.push(op, phase);
        }
        assert_eq!(site.bundle(), Some(&want));
        // A second call runs no scalar-mode iteration.
        scalar_loop(&mut a, &lp, 50).unwrap();
        driven_loop_at(&mut b, &lp, &mut site, 50, &mut scalar_iters).unwrap();
        assert_devices_identical(&a, &b);
        assert_eq!(scalar_iters, 1);
    }

    /// A row loop with a nested word loop, one device call per op: per
    /// row, copy `x` into SRAM word by word, then an ALU op and the
    /// row's loop continuation.
    fn scalar_rows(
        dev: &mut Device,
        lp: &TestLoop,
        buf: SramBuf,
        rows: u32,
    ) -> Result<(), PowerFailure> {
        let region = dev.context().0;
        for r in 0..rows {
            for t in 0..buf.len {
                let v = dev.read(lp.x, t)?;
                dev.sram_write(buf, t, v)?;
                dev.consume(Op::Incr)?;
            }
            dev.consume(Op::Alu)?;
            dev.set_context(region, Phase::Control);
            dev.store_word(lp.ctl, (r + 1) as u16)?;
            dev.set_context(region, Phase::Kernel);
            dev.consume(Op::Incr)?;
            dev.consume(Op::Branch)?;
            dev.mark_progress();
        }
        Ok(())
    }

    /// The same rows through nested [`Device::run_bundled`] loops.
    fn driven_rows(
        dev: &mut Device,
        lp: &TestLoop,
        buf: SramBuf,
        rows: u32,
    ) -> Result<(), PowerFailure> {
        dev.run_bundled(&mut Site::default(), 0..rows, |s, r| {
            s.run_bundled(0..buf.len, |s, t| {
                let v = s.read(lp.x, t)?;
                s.sram_write(buf, t, v)?;
                s.op(Op::Incr)
            })?;
            s.op(Op::Alu)?;
            s.checkpoint(lp.ctl, (r + 1) as u16)?;
            s.op(Op::Incr)?;
            s.op(Op::Branch)?;
            s.progress();
            Ok(())
        })
    }

    #[test]
    fn nested_loops_match_a_scalar_run_across_brownouts() {
        let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let lp = test_loop(&mut a);
        let buf = a.sram_alloc(LOOP_WORDS).unwrap();
        // A flip mid-run lands in a scalar-mode row; brown-outs land in
        // the nested loop's own tails.
        a.arm_faults(&FaultPlan::faults([(
            500,
            FaultKind::BitFlip {
                addr: lp.x.addr(7),
                bit: 9,
            },
        )]));
        let mut b = a.clone();
        let mut rows = 4000;
        loop {
            let ra = scalar_rows(&mut a, &lp, buf, rows);
            let rb = driven_rows(&mut b, &lp, buf, rows);
            assert_eq!(ra.is_err(), rb.is_err());
            assert_devices_identical(&a, &b);
            assert_eq!(a.sram_peek(buf), b.sram_peek(buf));
            if ra.is_ok() {
                break;
            }
            a.reboot().unwrap();
            b.reboot().unwrap();
            rows /= 2;
        }
        assert!(rows < 4000, "the run must cross brown-outs");
        assert_eq!(b.mem_faults_injected(), 1);
    }

    #[test]
    fn a_step_outside_a_loop_charges_like_the_device() {
        let mut a = continuous();
        let lp = test_loop(&mut a);
        let s_buf = a.sram_alloc(4).unwrap();
        let mut b = a.clone();
        let region = a.context().0;
        a.consume(Op::Alu).unwrap();
        let v = a.read(lp.x, 3).unwrap();
        a.write(lp.y, 3, v).unwrap();
        a.sram_write(s_buf, 1, v).unwrap();
        a.set_context(region, Phase::Control);
        a.store_word(lp.ctl, 9).unwrap();
        a.set_context(region, Phase::Kernel);
        a.dma_fram_to_sram(lp.x.slice(0, 4), s_buf).unwrap();
        a.mark_progress();

        let s = &mut b.step();
        s.op(Op::Alu).unwrap();
        let v = s.read(lp.x, 3).unwrap();
        s.write(lp.y, 3, v).unwrap();
        s.sram_write(s_buf, 1, v).unwrap();
        s.checkpoint(lp.ctl, 9).unwrap();
        s.dma_fram_to_sram(lp.x.slice(0, 4), s_buf).unwrap();
        s.progress();
        assert_eq!(b.context(), (region, Phase::Kernel));
        assert_devices_identical(&a, &b);
        assert_eq!(a.sram_peek(s_buf), b.sram_peek(s_buf));
    }

    #[test]
    fn lea_add_lands_exactly_the_result_words_that_fit() {
        let mut d = continuous();
        let dst = d.sram_alloc(8).unwrap();
        let src = d.sram_alloc(8).unwrap();
        for i in 0..8u32 {
            d.sram_write(dst, i, Q15::from_raw(1000 * i as i16))
                .unwrap();
            d.sram_write(src, i, Q15::from_raw(7)).unwrap();
        }
        // Eight MACs, then the fourth result write browns out.
        let start = d.ops_consumed();
        d.arm_faults(&FaultPlan::at(start + 8 + 3));
        assert!(d.lea_add(dst, src).is_err());
        assert_eq!(d.last_brownout().unwrap().op, Op::SramWrite);
        assert_eq!(d.trace().op_count(Op::LeaMac), 8);
        let want: Vec<Q15> = (0..8)
            .map(|i| Q15::from_raw(1000 * i + if i < 3 { 7 } else { 0 }))
            .collect();
        assert_eq!(d.sram_peek(dst), want);
    }

    #[test]
    fn fund_whole_reports_a_shortfall_without_browning_out() {
        let seq = test_iteration();
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let per_iter: u64 = seq
            .iter()
            .map(|&(op, _)| d.spec().costs.cost(op).energy_pj)
            .sum();
        let costs = d.spec().costs.clone();
        let iters = |n| charge_of(&costs, seq.iter().map(|&(op, _)| (op, n)));
        let fundable = d.charge_pj() / per_iter;
        let charge = d.charge_pj();
        assert!(!d.fund_whole(&iters(fundable + 1), &[], &[], []));
        assert!(d.is_on(), "a shortfall must not brown the device out");
        assert_eq!((d.ops_consumed(), d.charge_pj()), (0, charge));
        assert!(d.fund_whole(&iters(fundable), &[], &[], []));
        assert!(d.charge_pj() < per_iter);
        // A scalar run of the next iteration then browns out.
        assert!(run_scalar(&mut d, &seq, 1).is_err());
        assert!(!d.is_on());
        assert_eq!(d.charge_pj(), 0);
    }

    /// The dense charge of an `(op, count)` list, priced under `costs`.
    fn charge_of(costs: &CostTable, ops: impl IntoIterator<Item = (Op, u64)>) -> Charge {
        let mut c = Charge::new();
        for (op, n) in ops {
            c.add(op, n, costs);
        }
        c
    }

    /// One piece of a taped body's program: a single-op run, or a loop of
    /// `n` iterations, each of shape [`shape_of`] its index.
    #[derive(Clone, Copy)]
    enum Piece {
        Ops(Op, u64),
        Loop(u32),
    }

    /// The taped loops' two iteration shapes (a taped body records at one
    /// phase).
    const SHAPES: [&[Op]; 2] = [
        &[Op::Alu, Op::FramRead, Op::FxpMul, Op::FramWrite, Op::Incr],
        &[Op::FramRead, Op::FramRead, Op::Alu, Op::Branch],
    ];

    fn shape_of(i: u32) -> usize {
        usize::from(i % 3 == 1)
    }

    /// `len` single-op runs of varying lengths between loops, different
    /// per round.
    fn taped_program(round: u64, len: u64) -> Vec<Piece> {
        let mut prog = Vec::new();
        for k in 0..len {
            let op = [Op::FramRead, Op::Alu, Op::FramWrite, Op::FxpMul][((round + k) % 4) as usize];
            prog.push(Piece::Ops(op, 1 + k % 3));
            if k % 3 != 2 {
                prog.push(Piece::Loop(1 + ((k * 7 + round) % 9) as u32));
            }
        }
        prog
    }

    /// The program charged op by op.
    fn program_scalar(dev: &mut Device, prog: &[Piece]) -> Result<(), PowerFailure> {
        for &piece in prog {
            match piece {
                Piece::Ops(op, n) => dev.consume_n(op, n)?,
                Piece::Loop(n) => {
                    for i in 0..n {
                        for &op in SHAPES[shape_of(i)] {
                            dev.consume(op)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The program as one taped body against `sites`.
    fn program_taped(
        dev: &mut Device,
        sites: &mut [Site],
        prog: &[Piece],
    ) -> Result<(), PowerFailure> {
        dev.run_tape(sites, |t| {
            for &piece in prog {
                match piece {
                    Piece::Ops(op, n) => t.op_n(op, n)?,
                    Piece::Loop(n) => {
                        for i in 0..n {
                            let k = shape_of(i);
                            t.iterate(k, |t| SHAPES[k].iter().try_for_each(|&op| t.op(op)))?;
                        }
                    }
                }
            }
            Ok(())
        })
    }

    fn assert_tape_settle_identical(a: &Device, b: &Device) {
        assert_traces_identical(a, b);
        assert_eq!(a.last_brownout(), b.last_brownout());
        assert_eq!(a.ops_consumed(), b.ops_consumed());
        assert_eq!(a.fram_image(), b.fram_image());
        assert_eq!(a.pending_faults(), b.pending_faults());
    }

    #[test]
    fn a_taped_body_matches_scalar_charging_at_every_brownout() {
        // A brown-out forced at every op boundary of one body (and one
        // past its end), with its sites empty and recorded.
        let prog = taped_program(0, 12);
        let mut recorded: [Site; 2] = Default::default();
        let mut d = continuous();
        program_taped(&mut d, &mut recorded, &prog).unwrap();
        let total = d.ops_consumed();
        assert!(recorded.iter().all(|s| s.bundle().is_some()));
        for sites in [Default::default(), recorded] {
            for t in 0..=total {
                let mut a = continuous();
                a.arm_faults(&FaultPlan::at(t));
                let mut b = a.clone();
                let ra = program_scalar(&mut a, &prog);
                let rb = program_taped(&mut b, &mut sites.clone(), &prog);
                assert_eq!(ra, rb, "boundary {t}");
                assert_eq!(ra.is_err(), t < total, "boundary {t}");
                assert_tape_settle_identical(&a, &b);
            }
        }
        // Bodies settled through natural shortfalls, across several
        // brown-outs.
        let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let mut b = a.clone();
        let mut sites: [Site; 2] = Default::default();
        let mut brownouts = 0;
        for round in 0..24u64 {
            let prog = taped_program(round, 240);
            let ra = program_scalar(&mut a, &prog);
            let rb = program_taped(&mut b, &mut sites, &prog);
            assert_eq!(ra, rb, "round {round}");
            assert_tape_settle_identical(&a, &b);
            if ra.is_err() {
                brownouts += 1;
                a.reboot().unwrap();
                b.reboot().unwrap();
            }
        }
        assert!(
            brownouts >= 3,
            "the sweep must cross several brown-outs, got {brownouts}"
        );
    }

    /// One piece of a random taped body ([`random_body`]).
    #[derive(Clone, Copy, Debug)]
    enum Part {
        Ops(Op, u64),
        Seq(&'static [(Op, u64)]),
        /// `n` iterations at site `k`.
        Repeat(usize, u32),
        /// An iteration at site `k` that fails after its first `j` ops,
        /// failing the body.
        Fail(usize, usize),
    }

    /// The random bodies' three iteration shapes.
    const SHAPES3: [&[Op]; 3] = [
        &[Op::Alu, Op::FramRead, Op::FxpMul, Op::FramWrite, Op::Incr],
        &[Op::FramRead, Op::FramRead, Op::Alu, Op::Branch],
        &[Op::TaskTransition, Op::Alu, Op::Alu, Op::FramWrite],
    ];

    /// The random bodies' fixed sequences.
    const SEQS: [&[(Op, u64)]; 2] = [
        &[(Op::FramRead, 2), (Op::Alu, 4), (Op::FramRead, 1)],
        &[(Op::FramWrite, 7), (Op::Alu, 4), (Op::Branch, 1)],
    ];

    /// A random taped body from `seed`: single-op runs, fixed sequences
    /// and runs of repeats over three sites, sometimes ending in an
    /// iteration that fails partway through.
    fn random_body(seed: u64) -> Vec<Part> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut body = Vec::new();
        for _ in 0..1 + next(12) {
            body.push(match next(4) {
                0 => Part::Ops(Op::ALL[next(11) as usize], 1 + next(5)),
                1 => Part::Seq(SEQS[next(2) as usize]),
                _ => Part::Repeat(next(3) as usize, 1 + next(40) as u32),
            });
        }
        if next(3) == 0 {
            let k = next(3) as usize;
            body.push(Part::Fail(k, next(SHAPES3[k].len() as u64) as usize));
        }
        body
    }

    /// The body charged op by op.
    fn body_scalar(dev: &mut Device, body: &[Part]) -> Result<(), PowerFailure> {
        for &part in body {
            match part {
                Part::Ops(op, n) => dev.consume_n(op, n)?,
                Part::Seq(seq) => seq.iter().try_for_each(|&(op, n)| dev.consume_n(op, n))?,
                Part::Repeat(k, n) => {
                    for _ in 0..n {
                        SHAPES3[k].iter().try_for_each(|&op| dev.consume(op))?;
                    }
                }
                Part::Fail(k, j) => {
                    SHAPES3[k][..j].iter().try_for_each(|&op| dev.consume(op))?;
                    return Err(PowerFailure);
                }
            }
        }
        Ok(())
    }

    /// The body taped against `sites`, settled at its end.
    fn body_taped(dev: &mut Device, sites: &mut [Site], body: &[Part]) -> Result<(), PowerFailure> {
        dev.run_tape(sites, |t| {
            for &part in body {
                match part {
                    Part::Ops(op, n) => t.op_n(op, n)?,
                    Part::Seq(seq) => t.ops(seq)?,
                    Part::Repeat(k, n) => {
                        for _ in 0..n {
                            t.iterate(k, |t| SHAPES3[k].iter().try_for_each(|&op| t.op(op)))?;
                        }
                    }
                    Part::Fail(k, j) => {
                        return t.iterate(k, |t| {
                            SHAPES3[k][..j].iter().try_for_each(|&op| t.op(op))?;
                            Err(PowerFailure)
                        })
                    }
                }
            }
            Ok(())
        })
    }

    #[test]
    fn random_taped_bodies_settle_like_their_op_by_op_record() {
        // Per case, random bodies against sites kept from body to body (so
        // a few iterations record their site and most repeat it): on
        // continuous power and on a buffer that covers each body, where
        // every settle is one dense charge, and on a buffer drained to
        // half the body's energy first, where the dense charge is refused
        // and the record replays in order until it browns out.
        for case in 0..3 {
            let mut sites: [Site; 3] = Default::default();
            let mut brownouts = 0;
            for seed in 0..300u64 {
                let body = random_body(seed * 3 + case);
                let power = match case {
                    0 => PowerSystem::continuous(),
                    _ => PowerSystem::cap_100uf(),
                };
                let mut a = Device::new(DeviceSpec::tiny(), power);
                if case == 2 {
                    let mut probe = Device::new(DeviceSpec::tiny(), PowerSystem::continuous());
                    let _ = body_scalar(&mut probe, &body);
                    let energy = probe.trace().total_energy_pj();
                    let nop = a.spec().costs.cost(Op::Nop).energy_pj;
                    a.consume_n(Op::Nop, (a.charge_pj() - energy / 2) / nop)
                        .unwrap();
                }
                let mut b = a.clone();
                let ra = body_scalar(&mut a, &body);
                let rb = body_taped(&mut b, &mut sites, &body);
                assert_eq!(ra, rb, "case {case}, body {body:?}");
                assert_tape_settle_identical(&a, &b);
                brownouts += u64::from(!a.is_on());
            }
            match case {
                2 => assert!(brownouts > 250, "the drained buffer runs out: {brownouts}"),
                _ => assert_eq!(brownouts, 0, "case {case}: the buffer covers every body"),
            }
        }
        // On continuous power, a bit flip and a brown-out armed inside
        // runs of site repeats: the dense charge is refused, and the
        // replay funds whole repeats up to each target and steps the
        // repeat it lands in op by op.
        let mut sites: [Site; 3] = Default::default();
        let (mut flips, mut brownouts) = (0, 0);
        for seed in 0..300u64 {
            let body = random_body(seed);
            let spans = repeat_spans(&body);
            let (Some(first), Some(last)) = (spans.first(), spans.last()) else {
                continue;
            };
            let mut a = continuous();
            let w = a.fram_alloc(1).unwrap();
            let inside =
                |s: &Range<u64>, k: u64| a.ops_consumed() + s.start + k % (s.end - s.start);
            let flip = FaultKind::BitFlip {
                addr: w.addr(0),
                bit: (seed % 16) as u8,
            };
            a.arm_faults(&FaultPlan::faults([
                (inside(first, seed), flip),
                (inside(last, seed / 3), FaultKind::Brownout),
            ]));
            let mut b = a.clone();
            let ra = body_scalar(&mut a, &body);
            let rb = body_taped(&mut b, &mut sites, &body);
            assert_eq!(ra, rb, "seed {seed}, body {body:?}");
            assert_tape_settle_identical(&a, &b);
            flips += a.mem_faults_injected();
            brownouts += u64::from(!a.is_on());
        }
        assert!(
            flips > 150 && brownouts > 150,
            "{flips} flips, {brownouts} brown-outs"
        );
    }

    /// The op offsets each run of site repeats spans in `body`, up to a
    /// failing iteration.
    fn repeat_spans(body: &[Part]) -> Vec<Range<u64>> {
        let (mut at, mut spans) = (0, Vec::new());
        for &part in body {
            let len = match part {
                Part::Ops(_, n) => n,
                Part::Seq(seq) => seq.iter().map(|&(_, n)| n).sum(),
                Part::Repeat(k, n) => {
                    let len = SHAPES3[k].len() as u64 * u64::from(n);
                    spans.push(at..at + len);
                    len
                }
                Part::Fail(..) => break,
            };
            at += len;
        }
        spans
    }

    #[test]
    fn a_bit_flip_inside_a_taped_body_fires_at_the_settle_after_its_reads() {
        for power in [PowerSystem::continuous(), PowerSystem::cap_100uf()] {
            let mut a = Device::new(DeviceSpec::tiny(), power);
            let w = a.fram_alloc(1).unwrap();
            a.flash(w, &[Q15::from_raw(0x0F0F)]);
            let flip = FaultKind::BitFlip {
                addr: w.addr(0),
                bit: 9,
            };
            // Before the fourth op: the second iteration's ALU op.
            a.arm_faults(&FaultPlan::faults([(a.ops_consumed() + 3, flip)]));
            let mut b = a.clone();
            let taped = a
                .run_tape(&mut [Site::default()], |t| {
                    (0..4)
                        .map(|_| {
                            t.iterate(0, |t| {
                                let v = t.read(w, 0)?;
                                t.op(Op::Alu)?;
                                Ok(v.raw() as u16)
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .unwrap();
            assert_eq!(taped, [0x0F0F; 4], "the body reads before the flip");
            assert_eq!(a.peek(w)[0].raw(), 0x0F0F ^ 1 << 9, "the flip fired");
            assert_eq!((a.pending_faults(), a.mem_faults_injected()), (0, 1));
            // Op by op, the reads after the flip see it; the charge is
            // the same.
            let scalar: Vec<u16> = (0..4)
                .map(|_| {
                    let v = b.read(w, 0).unwrap().raw() as u16;
                    b.consume(Op::Alu).unwrap();
                    v
                })
                .collect();
            assert_eq!(scalar, [0x0F0F, 0x0F0F, 0x0F0F ^ 1 << 9, 0x0F0F ^ 1 << 9]);
            assert_tape_settle_identical(&a, &b);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a taped iteration charged")]
    fn a_taped_iteration_that_strays_from_its_bundle_panics() {
        let mut d = continuous();
        // Iteration 0 records one op; iteration 2 charges another.
        let _ = d.run_tape(&mut [Site::default()], |t| {
            for i in 0..3 {
                t.iterate(0, |t| {
                    t.op(Op::Incr)?;
                    if i == 2 {
                        t.op(Op::Branch)?;
                    }
                    Ok(())
                })?;
            }
            Ok(())
        });
    }

    #[test]
    fn block_accessors_match_scalar_word_loops() {
        // Partial block write on a draining buffer: the words that fit
        // must land, the rest must not, exactly like the scalar loop.
        let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let sa = a.sram_alloc(64).unwrap();
        let mut b = a.clone();
        let data: Vec<Q15> = (0..64).map(|i| Q15::from_raw(i as i16 + 1)).collect();
        loop {
            let ra = (|| -> Result<(), PowerFailure> {
                for (i, q) in data.iter().enumerate() {
                    a.sram_write(sa, i as u32, *q)?;
                }
                Ok(())
            })();
            let rb = b.sram_write_block(sa, 0, &data);
            assert_eq!(ra.is_err(), rb.is_err());
            assert_eq!(
                a.sram_peek(sa),
                b.sram_peek(sa),
                "partial writes must agree"
            );
            assert_traces_identical(&a, &b);
            if ra.is_ok() {
                break;
            }
            a.reboot().unwrap();
            b.reboot().unwrap();
        }
        // Block read round-trip.
        let mut out = vec![Q15::ZERO; 64];
        b.sram_read_block(sa, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn prepaid_accessors_move_data_without_energy() {
        let mut d = continuous();
        let f = d.fram_alloc(4).unwrap();
        let s = d.sram_alloc(4).unwrap();
        let w = d.fram_alloc_word().unwrap();
        let before = d.trace().total_energy_pj();
        d.prepaid_write(f, 2, Q15::HALF, true);
        assert_eq!(d.prepaid_read(f, 2, true), Q15::HALF);
        d.prepaid_sram_write(s, 1, Q15::MAX);
        assert_eq!(d.prepaid_sram_read(s, 1), Q15::MAX);
        d.prepaid_store_word(w, 99, true);
        assert_eq!(d.peek_word(w), 99);
        d.prepaid_write_at(f.addr(0), Q15::HALF, true);
        assert_eq!(d.peek_at(f.addr(0)), Q15::HALF);
        assert_eq!(
            d.trace().total_energy_pj(),
            before,
            "prepaid access must not double-charge"
        );
    }

    #[test]
    fn free_bundles_never_brown_out() {
        let mut spec = DeviceSpec::tiny();
        spec.costs.set_cost(Op::Nop, crate::spec::Cost::new(0, 0));
        let mut d = Device::new(spec, PowerSystem::cap_100uf());
        let before = d.charge_pj();
        d.run_tape(&mut [Site::default()], |t| {
            (0..1000).try_for_each(|_| t.iterate(0, |t| t.op_n(Op::Nop, 1000)))
        })
        .unwrap();
        assert_eq!(d.charge_pj(), before);
        assert_eq!(d.trace().op_count(Op::Nop), 1_000_000);
    }

    #[test]
    fn a_taped_body_while_off_fails() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        while d.consume(Op::Nop).is_ok() {}
        assert_eq!(d.run_tape(&mut [], |t| t.op(Op::Alu)), Err(PowerFailure));
        assert_eq!(d.run_tape(&mut [], |_| Ok(())), Err(PowerFailure));
        assert!(!d.fund_whole(&Charge::new(), &[], &[], []));
    }

    #[test]
    fn fund_whole_charges_what_the_op_by_op_run_charges_or_nothing() {
        let seq = [(Op::FramWrite, 3), (Op::Alu, 40), (Op::TaskTransition, 1)];
        let by_op = |d: &mut Device| {
            seq.iter()
                .try_for_each(|&(op, n)| d.consume_n(op, n))
                .is_ok()
        };
        let priced = charge_of(&DeviceSpec::tiny().costs, seq);
        for power in [PowerSystem::continuous(), PowerSystem::cap_100uf()] {
            let mut a = Device::new(DeviceSpec::tiny(), power);
            a.set_context(RegionId::OTHER, Phase::Control);
            let w = a.fram_alloc_word().unwrap();
            let mut b = a.clone();
            assert!(a.fund_whole(&priced, &[], &[], [(w.addr(), Q15::HALF)]));
            assert!(by_op(&mut b));
            b.prepaid_write_at(w.addr(), Q15::HALF, true);
            assert_devices_identical(&a, &b);
        }
        let fresh = || Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let whole: u64 = seq.iter().map(|&(_, n)| n).sum();
        // An armed target just past the sequence allows it; one inside,
        // a memory fault included, refuses it.
        let mut d = fresh();
        d.arm_faults(&FaultPlan::at(whole));
        assert!(d.fund_whole(&priced, &[], &[], []));
        assert_eq!(d.pending_faults(), 1);
        for kind in [
            FaultKind::Brownout,
            FaultKind::BitFlip {
                addr: NvAddr(0),
                bit: 0,
            },
        ] {
            let mut d = fresh();
            let w = d.fram_alloc_word().unwrap();
            d.arm_faults(&FaultPlan::faults([(whole - 1, kind)]));
            assert!(
                !d.fund_whole(&priced, &[], &[], [(w.addr(), Q15::HALF)]),
                "{kind:?}"
            );
            assert_eq!((d.ops_consumed(), d.pending_faults()), (0, 1));
            assert_eq!(d.peek_word(w), 0, "{kind:?}: a refused store never lands");
        }
        // A buffer one op short of the sequence refuses it, charging
        // nothing; the op-by-op run browns out on the last op.
        let mut d = fresh();
        let energy: u64 = seq
            .iter()
            .map(|&(op, n)| n * d.spec().costs.cost(op).energy_pj)
            .sum();
        let nop = d.spec().costs.cost(Op::Nop).energy_pj;
        let last = d.spec().costs.cost(Op::TaskTransition).energy_pj;
        d.consume_n(Op::Nop, (d.charge_pj() - energy + last) / nop)
            .unwrap();
        let (ops, charge) = (d.ops_consumed(), d.charge_pj());
        assert!(charge < energy);
        assert!(!d.fund_whole(&priced, &[], &[], []));
        assert_eq!((d.ops_consumed(), d.charge_pj()), (ops, charge));
        assert!(!by_op(&mut d));
        assert_eq!(d.last_brownout().unwrap().op, Op::TaskTransition);
        // Off, or recording a bundled iteration: refused.
        assert!(!d.fund_whole(&priced, &[], &[], []));
        let mut d = fresh();
        d.record = Some(Box::default());
        assert!(!d.fund_whole(&priced, &[], &[], []));
    }

    #[test]
    fn device_epochs_isolate_back_to_back_work() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        d.write(buf, 0, Q15::HALF).unwrap();
        d.begin_epoch();
        d.write(buf, 1, Q15::HALF).unwrap();
        let e = d.epoch_report();
        let w = d.spec().costs.cost(Op::FramWrite);
        assert_eq!(e.total_energy_pj, w.energy_pj);
        assert_eq!(e.live_cycles, w.cycles as u64);
        assert_eq!(d.trace().report().total_energy_pj, 2 * w.energy_pj);
    }

    // ----- fault injection -------------------------------------------

    #[test]
    fn injected_fault_fires_at_the_exact_op_index_on_continuous_power() {
        let seq = test_iteration();
        for target in [0u64, 1, 7, 8, 23] {
            let mut d = continuous();
            d.arm_faults(&FaultPlan::at(target));
            let r = run_scalar(&mut d, &seq, 100);
            assert!(r.is_err(), "target {target} must brown the device out");
            assert!(!d.is_on());
            assert_eq!(d.ops_consumed(), target, "ops before the target ran");
            let b = d.last_brownout().expect("brown-out recorded");
            assert_eq!(b.op_index, target);
            assert!(b.injected);
            // The op that failed is the one the scalar sequence charges at
            // position `target` (mod the iteration length).
            let (op, phase) = seq[(target as usize) % seq.len()];
            assert_eq!(b.op, op);
            assert_eq!(b.phase, phase);
            assert_eq!(d.pending_faults(), 0, "the target fired and disarmed");
            // After a reboot the device runs fault-free to completion.
            d.reboot().unwrap();
            run_scalar(&mut d, &seq, 100).unwrap();
        }
    }

    #[test]
    fn bundled_path_hits_the_same_injected_boundary_as_scalar() {
        let iter_len = test_iteration().len() as u64;
        let probe = {
            let mut d = continuous();
            test_loop(&mut d)
        };
        let x3 = probe.x.addr(3);
        let (y5, ctl) = (probe.y.addr(5), probe.ctl.addr());
        // Brown-outs inside the first iteration, at an iteration
        // boundary, and deep into the run (forcing the bundle cap to
        // matter); then memory faults inside the range, where the scalar
        // iteration completes and bulk funding resumes: a flip of an
        // input word read again later, and stuck bits under an output
        // word and under the batched continuation store.
        let brownouts =
            [3u64, iter_len, 5 * iter_len + 2, 40 * iter_len - 1].map(|t| (t, FaultKind::Brownout));
        let memory = [
            (5 * iter_len + 2, FaultKind::BitFlip { addr: x3, bit: 14 }),
            (
                2 * iter_len + 4,
                FaultKind::StuckAt {
                    addr: y5,
                    bit: 3,
                    high: true,
                },
            ),
            (
                7 * iter_len,
                FaultKind::StuckAt {
                    addr: ctl,
                    bit: 0,
                    high: false,
                },
            ),
        ];
        for (target, kind) in brownouts.into_iter().chain(memory) {
            let mut a = continuous();
            let lp = test_loop(&mut a);
            let plan = FaultPlan::faults([(target, kind)]);
            a.arm_faults(&plan);
            let mut b = a.clone();
            let ra = scalar_loop(&mut a, &lp, 100);
            let rb = driven_loop(&mut b, &lp, 100);
            assert_eq!(ra.is_err(), rb.is_err(), "{kind:?} at {target}");
            assert_eq!(ra.is_err(), kind.browns_out(), "{kind:?} at {target}");
            assert_eq!(b.pending_faults(), 0, "{kind:?} at {target} fired");
            assert_devices_identical(&a, &b);
        }
    }

    #[test]
    fn injected_fault_lands_inside_a_span_charge() {
        // A DMA transfer is charged as one span of per-word ops; a target
        // inside the span must move exactly the words before it.
        let mut d = continuous();
        let f = d.fram_alloc(16).unwrap();
        let s = d.sram_alloc(16).unwrap();
        let data: Vec<Q15> = (0..16).map(|i| Q15::from_raw(i as i16 + 1)).collect();
        d.flash(f, &data);
        let start = d.ops_consumed();
        // DmaSetup is charged first, then one DmaWord per word: aim at the
        // 5th word (start + 1 setup + 4 words).
        d.arm_faults(&FaultPlan::at(start + 5));
        let r = d.dma_fram_to_sram(f, s);
        assert!(r.is_err());
        let b = d.last_brownout().unwrap();
        assert!(b.injected);
        assert_eq!(b.op, Op::DmaWord);
        assert_eq!(b.op_index, start + 5);
        // Exactly 4 words landed before the failure.
        d.reboot().unwrap();
        // SRAM was wiped by the reboot, but the trace pins the charge:
        assert_eq!(d.trace().op_count(Op::DmaWord), 4);
    }

    #[test]
    fn multi_fault_plan_fires_across_reboots_in_order() {
        let seq = test_iteration();
        let mut d = continuous();
        d.arm_faults(&FaultPlan::at_each([5u64, 5, 17, 30]));
        assert_eq!(d.pending_faults(), 3, "duplicates collapse");
        let mut fired = Vec::new();
        loop {
            match run_scalar(&mut d, &seq, 10) {
                Ok(()) => break,
                Err(PowerFailure) => {
                    fired.push(d.last_brownout().unwrap().op_index);
                    d.reboot().unwrap();
                }
            }
        }
        // Boot charges advance the op counter, so later targets that a
        // reboot overtakes fire on the first op after it; order holds.
        assert_eq!(fired.len(), 3);
        assert!(fired.windows(2).all(|w| w[0] < w[1]), "{fired:?}");
        assert_eq!(fired[0], 5);
        assert_eq!(d.pending_faults(), 0);
    }

    #[test]
    fn unarmed_device_is_bit_identical_to_one_that_never_heard_of_faults() {
        let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let lp = test_loop(&mut a);
        let mut b = a.clone();
        b.arm_faults(&FaultPlan::default());
        loop {
            let ra = scalar_loop(&mut a, &lp, 500);
            let rb = driven_loop(&mut b, &lp, 500);
            assert_eq!(ra.is_err(), rb.is_err());
            assert_devices_identical(&a, &b);
            if ra.is_ok() {
                break;
            }
            a.reboot().unwrap();
            b.reboot().unwrap();
        }
    }

    #[test]
    fn natural_brownout_records_op_and_leaves_later_targets_armed() {
        let seq = test_iteration();
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        d.arm_faults(&FaultPlan::at(u64::MAX));
        assert!(run_scalar(&mut d, &seq, u64::MAX / 8).is_err());
        let b = d.last_brownout().expect("natural brown-out recorded");
        assert!(!b.injected, "buffer genuinely ran dry");
        assert_eq!(b.op_index, d.ops_consumed());
        assert_eq!(d.pending_faults(), 1, "unreached target stays armed");
    }

    #[test]
    fn fault_target_on_boot_defers_to_the_first_program_op() {
        // A target at or before the boot charge's own op index must not
        // kill the reboot (whose consume would panic on failure); it
        // fires on the first program op after the boot instead.
        let seq = test_iteration();
        let mut d = continuous();
        d.arm_faults(&FaultPlan::at(4));
        assert!(run_scalar(&mut d, &seq, 10).is_err());
        // Re-arm a stale target below the current op index: the reboot's
        // parked queue must let the Boot charge through.
        d.arm_faults(&FaultPlan::at(2));
        d.reboot().unwrap();
        assert!(d.is_on(), "boot is not an injectable boundary");
        let boot_end = d.ops_consumed();
        // The stale target fires immediately on the next charged op.
        assert!(run_scalar(&mut d, &seq, 10).is_err());
        let b = d.last_brownout().unwrap();
        assert!(b.injected);
        assert_eq!(b.op_index, boot_end, "fires at the first op boundary");
        d.reboot().unwrap();
        run_scalar(&mut d, &seq, 10).unwrap();
    }

    #[test]
    fn bit_flip_fires_at_its_index_without_interrupting_execution() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        d.write(buf, 2, Q15::HALF).unwrap();
        let ops = d.ops_consumed();
        // Arm a flip of bit 0 at the very next op boundary.
        d.arm_faults(&FaultPlan::faults([(
            ops,
            FaultKind::BitFlip {
                addr: buf.addr(2),
                bit: 0,
            },
        )]));
        // The next op both fires the flip and completes normally.
        d.consume(Op::Alu).unwrap();
        assert!(d.is_on(), "memory faults never cut power");
        assert_eq!(d.pending_faults(), 0);
        assert_eq!(d.mem_faults_injected(), 1);
        assert_eq!(d.peek(buf)[2].raw(), Q15::HALF.raw() ^ 1);
        assert_eq!(d.ops_consumed(), ops + 1, "the op itself was charged");
    }

    #[test]
    fn bit_flip_inside_a_span_charge_lands_mid_span() {
        let mut d = continuous();
        let buf = d.fram_alloc(8).unwrap();
        let start = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(
            start + 3,
            FaultKind::BitFlip {
                addr: buf.addr(0),
                bit: 15,
            },
        )]));
        // An 8-op span: the flip fires after 3 charged ops, then the
        // remaining 5 charge on — no failure, full span completes.
        assert!(d.consume_n(Op::FramRead, 8).is_ok());
        assert_eq!(d.ops_consumed(), start + 8);
        assert_eq!(d.pending_faults(), 0);
        assert_eq!(d.peek(buf)[0].raw(), 1i16 << 15);
    }

    #[test]
    fn stuck_at_cell_forces_the_bit_on_every_subsequent_write() {
        let mut d = continuous();
        let buf = d.fram_alloc(2).unwrap();
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(
            ops,
            FaultKind::StuckAt {
                addr: buf.addr(1),
                bit: 3,
                high: true,
            },
        )]));
        d.consume(Op::Alu).unwrap();
        // Armed: the current value has the bit forced immediately...
        assert_eq!(d.peek(buf)[1].raw(), 1i16 << 3);
        // ...and every later write re-forces it, forever.
        d.write(buf, 1, Q15::ZERO).unwrap();
        assert_eq!(d.peek(buf)[1].raw(), 1i16 << 3, "cell never heals");
        d.write(buf, 0, Q15::ZERO).unwrap();
        assert_eq!(d.peek(buf)[0].raw(), 0, "neighbor words unaffected");
    }

    #[test]
    fn torn_write_lands_a_half_written_word_at_the_brownout() {
        let mut d = continuous();
        let buf = d.fram_alloc(1).unwrap();
        d.write(buf, 0, Q15::from_raw(0x1234)).unwrap();
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(ops, FaultKind::TornWrite)]));
        // The interrupted store: low byte of the new value lands, high
        // byte keeps the old contents.
        assert_eq!(d.write(buf, 0, Q15::from_raw(0x56AB)), Err(PowerFailure));
        assert!(!d.is_on(), "torn write is a brown-out class fault");
        assert_eq!(d.peek(buf)[0].raw(), 0x12AB);
        let b = d.last_brownout().unwrap();
        assert!(b.injected);
        // The tear is one-shot: after reboot, writes are clean again.
        d.reboot().unwrap();
        d.write(buf, 0, Q15::from_raw(0x7FFF)).unwrap();
        assert_eq!(d.peek(buf)[0].raw(), 0x7FFF);
    }

    #[test]
    fn torn_write_on_a_non_store_op_degrades_to_a_clean_brownout() {
        let mut d = continuous();
        let buf = d.fram_alloc(1).unwrap();
        d.write(buf, 0, Q15::HALF).unwrap();
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(ops, FaultKind::TornWrite)]));
        assert_eq!(d.consume(Op::Alu), Err(PowerFailure));
        d.reboot().unwrap();
        // No store was in flight: the pending tear must not leak into
        // the first write after reboot.
        d.write(buf, 0, Q15::from_raw(0x0100)).unwrap();
        assert_eq!(d.peek(buf)[0].raw(), 0x0100);
    }

    #[test]
    fn torn_write_tears_the_first_unfunded_word_of_a_dma_store() {
        let mut d = continuous();
        let f = d.fram_alloc(4).unwrap();
        let s = d.sram_alloc(4).unwrap();
        for i in 0..4 {
            d.write(f, i, Q15::from_raw(0x1100)).unwrap();
            d.sram_write(s, i, Q15::from_raw(0x22FF)).unwrap();
        }
        // Fault after DmaSetup + 2 DmaWords: words 0-1 land whole, word
        // 2 lands torn, word 3 is untouched.
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(ops + 3, FaultKind::TornWrite)]));
        assert_eq!(d.dma_sram_to_fram(s, f), Err(PowerFailure));
        let out = d.peek(f);
        assert_eq!(out[0].raw(), 0x22FF);
        assert_eq!(out[1].raw(), 0x22FF);
        assert_eq!(out[2].raw(), 0x11FF, "prefix landed, victim torn");
        assert_eq!(out[3].raw(), 0x1100);
    }

    #[test]
    fn guards_detect_injected_faults_but_pass_legitimate_writes() {
        let mut d = continuous();
        let w = d.fram_alloc_word().unwrap();
        d.flash_word(w, 7);
        d.guard_word(w);
        assert!(d.verify_word(w));
        // Legitimate writes — metered, prepaid, flash — track the shadow.
        d.store_word(w, 19).unwrap();
        assert!(d.verify_word(w));
        d.prepaid_store_word(w, 23, true);
        assert!(d.verify_word(w));
        d.flash_word(w, 42);
        assert!(d.verify_word(w));
        // An injected flip bypasses the shadow and is detected; the
        // shadow still knows the intended value.
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(
            ops,
            FaultKind::BitFlip {
                addr: w.addr(),
                bit: 4,
            },
        )]));
        d.consume(Op::Alu).unwrap();
        assert!(!d.verify_word(w), "ECC check sees the divergence");
        assert_eq!(d.guarded_intended(w.addr()), Some(42));
        // Scrubbing with the intended value restores a clean state.
        d.store_word(w, 42).unwrap();
        assert!(d.verify_word(w));
    }

    #[test]
    fn guard_ranks_match_a_search_of_the_shadow_under_scrambled_registration() {
        // Words registered out of address order, several bitmap blocks
        // apart (so the bitmap grows over empty blocks), some sharing a
        // block, one re-registered, and a span over three blocks: after
        // every registration each word's slot is the shadow's own.
        let mut d = continuous();
        d.fram_alloc(4096).unwrap();
        let check = |d: &Device| {
            for a in 0..4096 {
                let want = d.guard_shadow.binary_search_by_key(&a, |e| e.0).ok();
                assert_eq!(d.guard_index(a), want, "word {a}");
            }
        };
        for a in [700u32, 5, 3000, 64, 65, 1900, 1, 4095, 63, 2100, 700, 0] {
            d.guard_span(NvAddr(a), 1);
            check(&d);
        }
        d.guard_span(NvAddr(1500), 130);
        check(&d);
        // A flash over guarded words refreshes their shadows; one over
        // unguarded words lands all the same.
        let buf = FramBuf { base: 0, len: 4096 };
        let data: Vec<Q15> = (0..200).map(|i| Q15::from_raw(i as i16 - 100)).collect();
        d.flash(buf.slice(1450, 200), &data);
        d.flash(buf.slice(200, 200), &data);
        for i in 0..200u32 {
            let v = data[i as usize];
            assert_eq!(d.peek_at(NvAddr(1450 + i)), v);
            assert_eq!(d.peek_at(NvAddr(200 + i)), v);
            let shadow = (1500..1630).contains(&(1450 + i)).then_some(v.raw() as u16);
            assert_eq!(
                d.guarded_intended(NvAddr(1450 + i)),
                shadow,
                "word {}",
                1450 + i
            );
        }
    }

    #[test]
    fn guard_bitmap_tracks_words_across_a_word_boundary() {
        // Guarded words on both sides of a 64-word bitmap boundary, with
        // unguarded neighbours on every side.
        let mut d = continuous();
        let buf = d.fram_alloc(200).unwrap();
        assert_eq!(
            buf.addr(64).index() % 64,
            0,
            "63 | 64 straddles a bitmap word"
        );
        // Registered out of address order, so a later span shifts the
        // shadow slots of an earlier one.
        let guarded = [130u32, 63, 64];
        for &i in &guarded {
            d.flash(buf.slice(i, 1), &[Q15::from_raw(i as i16)]);
            d.guard_span(buf.addr(i), 1);
        }
        // Stores to unguarded neighbours leave every shadow untouched.
        for i in [0u32, 62, 65, 127, 128, 129, 131, 199] {
            d.write(buf, i, Q15::from_raw(-1)).unwrap();
            d.prepaid_write(buf, i, Q15::from_raw(-2), true);
            assert_eq!(d.guarded_intended(buf.addr(i)), None, "word {i}");
            for &g in &guarded {
                assert_eq!(d.guarded_intended(buf.addr(g)), Some(g as u16));
            }
        }
        // Stores to guarded words refresh their own shadow only.
        d.write(buf, 64, Q15::from_raw(640)).unwrap();
        assert_eq!(d.guarded_intended(buf.addr(63)), Some(63));
        assert_eq!(d.guarded_intended(buf.addr(64)), Some(640));
        // A flip on a guarded word is caught; one on an unguarded
        // neighbour is invisible to the check.
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([
            (
                ops,
                FaultKind::BitFlip {
                    addr: buf.addr(63),
                    bit: 1,
                },
            ),
            (
                ops,
                FaultKind::BitFlip {
                    addr: buf.addr(65),
                    bit: 1,
                },
            ),
        ]));
        d.consume(Op::Alu).unwrap();
        assert!(!d.verify_at(buf.addr(63)));
        assert!(d.verify_at(buf.addr(64)));
        assert!(d.verify_at(buf.addr(65)), "unguarded words always verify");
        // A cloned device (the fault sweeps clone a deployed device per
        // fault) keeps its guards.
        let mut c = d.clone();
        assert!(!c.verify_at(buf.addr(63)));
        c.write(buf, 63, Q15::from_raw(7)).unwrap();
        assert!(c.verify_at(buf.addr(63)));
        assert_eq!(c.guarded_intended(buf.addr(63)), Some(7));
        c.write(buf, 62, Q15::from_raw(8)).unwrap();
        assert_eq!(c.guarded_intended(buf.addr(130)), Some(130));
        assert!(!d.verify_at(buf.addr(63)), "the original is independent");
    }

    #[test]
    fn corruption_retry_budget_is_bounded() {
        let mut d = continuous();
        let region = d.register_region("layer0");
        for _ in 0..CORRUPTION_RETRY_LIMIT {
            assert!(d.note_corruption(region), "within budget: may recover");
        }
        assert!(!d.note_corruption(region), "budget exhausted");
        assert_eq!(d.corruption_unrecoverable(), Some(region));
        assert_eq!(d.corruption_detected(), CORRUPTION_RETRY_LIMIT as u64 + 1);
        d.reset_corruption_stats();
        assert_eq!(d.corruption_detected(), 0);
        assert_eq!(d.corruption_unrecoverable(), None);
    }

    #[test]
    fn memory_fault_at_the_same_index_as_a_brownout_fires_first() {
        let mut d = continuous();
        let buf = d.fram_alloc(1).unwrap();
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([
            (ops + 1, FaultKind::Brownout),
            (
                ops + 1,
                FaultKind::BitFlip {
                    addr: buf.addr(0),
                    bit: 2,
                },
            ),
        ]));
        d.consume(Op::Alu).unwrap();
        assert_eq!(d.consume(Op::Alu), Err(PowerFailure));
        assert_eq!(
            d.peek(buf)[0].raw(),
            1i16 << 2,
            "flip landed before the cut"
        );
        assert_eq!(d.pending_faults(), 0);
    }

    #[test]
    fn shifted_plan_rebases_indices_and_preserves_kinds() {
        let flip = FaultKind::BitFlip {
            addr: NvAddr(3),
            bit: 1,
        };
        let plan = FaultPlan::faults([(2, flip), (7, FaultKind::Brownout)]);
        let shifted = plan.shifted(100);
        assert_eq!(
            shifted.targets(),
            &[(102, flip), (107, FaultKind::Brownout)]
        );
        assert_eq!(shifted.indices().collect::<Vec<_>>(), vec![102, 107]);
    }

    /// One FRAM path driven against the watched word `f[1]`.
    struct WatchCase {
        name: &'static str,
        /// Register `f[1]` with the guards before the watch lands.
        guarded: bool,
        expect: FirstAccess,
        drive: fn(&mut Device, FramBuf, SramBuf),
    }

    /// The counter-word handle of the watched word `f[1]`.
    fn watched(f: FramBuf) -> FramWord {
        FramWord { addr: f.base + 1 }
    }

    /// Records `site`'s bundle from `body` at index 3 (the raw address of
    /// the unwatched `f[3]`), so that a later call with the site runs
    /// funded from its first index.
    fn prerecord(
        d: &mut Device,
        site: &mut Site,
        body: fn(&mut crate::Step<'_>, u32) -> Result<(), PowerFailure>,
    ) {
        d.run_bundled(site, 3..4, body).unwrap();
    }

    fn watch_cases() -> Vec<WatchCase> {
        use FirstAccess::{Read, Untouched, Written};
        let case = |name, guarded, expect, drive| WatchCase {
            name,
            guarded,
            expect,
            drive,
        };
        vec![
            case("read", false, Read, |d, f, _| {
                d.read(f, 1).unwrap();
            }),
            case("read_at", false, Read, |d, f, _| {
                d.read_at(f.addr(1)).unwrap();
            }),
            case("load_word", false, Read, |d, f, _| {
                d.load_word(watched(f)).unwrap();
            }),
            case("write", false, Written, |d, f, _| {
                d.write(f, 1, Q15::HALF).unwrap();
            }),
            case("write_at", false, Written, |d, f, _| {
                d.write_at(f.addr(1), Q15::HALF).unwrap();
            }),
            case("store_word", false, Written, |d, f, _| {
                d.store_word(watched(f), 7).unwrap();
            }),
            case("store_word to a guarded word", true, Written, |d, f, _| {
                d.store_word(watched(f), 7).unwrap();
            }),
            case("torn store", false, Read, |d, f, _| {
                d.torn_pending = true;
                d.on = false;
                assert!(d.write(f, 1, Q15::HALF).is_err());
            }),
            case("prepaid_read", false, Read, |d, f, _| {
                d.prepaid_read(f, 1, true);
            }),
            case("prepaid_write", false, Written, |d, f, _| {
                d.prepaid_write(f, 1, Q15::HALF, true);
            }),
            case("prepaid_write_at", false, Written, |d, f, _| {
                d.prepaid_write_at(f.addr(1), Q15::HALF, true);
            }),
            case("prepaid_store_word", false, Written, |d, f, _| {
                d.prepaid_store_word(watched(f), 7, true);
            }),
            case("funded read", false, Read, |d, f, _| {
                let mut site = Site::default();
                d.run_bundled(&mut site, 0..4, |s, i| {
                    assert_eq!(s.funded(), i > 0);
                    s.read(f, i).map(drop)
                })
                .unwrap();
            }),
            case("funded write", false, Written, |d, f, _| {
                let mut site = Site::default();
                d.run_bundled(&mut site, 0..4, |s, i| {
                    assert_eq!(s.funded(), i > 0);
                    s.write(f, i, Q15::HALF)
                })
                .unwrap();
            }),
            case("funded checkpoint", false, Written, |d, f, _| {
                let mut site = Site::default();
                prerecord(d, &mut site, |s, i| s.checkpoint(FramWord { addr: i }, 1));
                d.run_bundled(&mut site, 0..2, |s, i| {
                    assert!(s.funded());
                    s.checkpoint(watched(f), i as u16)
                })
                .unwrap();
            }),
            case("funded store_last", false, Written, |d, f, _| {
                let mut site = Site::default();
                prerecord(d, &mut site, |s, i| s.store_last(FramWord { addr: i }, 1));
                d.run_bundled(&mut site, 0..2, |s, i| {
                    assert!(s.funded());
                    s.store_last(watched(f), i as u16)
                })
                .unwrap();
            }),
            case("funded DMA in", false, Read, |d, f, s| {
                d.run_bundled(&mut Site::default(), 0..2, |st, i| {
                    assert_eq!(st.funded(), i > 0);
                    st.dma_fram_to_sram(f.slice(i, 1), s.slice(i, 1))
                })
                .unwrap();
            }),
            case("funded DMA out", false, Written, |d, f, s| {
                d.run_bundled(&mut Site::default(), 0..2, |st, i| {
                    assert_eq!(st.funded(), i > 0);
                    st.dma_sram_to_fram(s.slice(i, 1), f.slice(i, 1))
                })
                .unwrap();
            }),
            case("taped read", false, Read, |d, f, _| {
                d.run_tape(&mut [], |t| t.read(f, 1).map(drop)).unwrap();
            }),
            case("taped iteration read", false, Read, |d, f, _| {
                d.run_tape(&mut [Site::default()], |t| {
                    (0..4).try_for_each(|i| t.iterate(0, |t| t.read(f, i).map(drop)))
                })
                .unwrap();
            }),
            case("taped write_at", false, Written, |d, f, _| {
                d.run_tape(&mut [], |t| t.write_at(f.addr(1), Q15::HALF))
                    .unwrap();
            }),
            case("taped peek", false, Read, |d, f, _| {
                d.run_tape(&mut [], |t| {
                    t.device().peek_at(f.addr(1));
                    Ok(())
                })
                .unwrap();
            }),
            case("taped peek_at", false, Read, |d, f, _| {
                d.run_tape(&mut [], |t| {
                    t.peek_at(f.addr(1));
                    Ok(())
                })
                .unwrap();
            }),
            case("taped iteration peek_at", false, Read, |d, f, _| {
                d.run_tape(&mut [Site::default()], |t| {
                    (0..4).try_for_each(|i| {
                        t.iterate(0, |t| {
                            t.peek_at(f.addr(i));
                            t.op(Op::Alu)
                        })
                    })
                })
                .unwrap();
            }),
            case("dma_fram_to_sram", false, Read, |d, f, s| {
                d.dma_fram_to_sram(f, s).unwrap();
            }),
            case("dma_sram_to_fram", false, Written, |d, f, s| {
                d.dma_sram_to_fram(s, f).unwrap();
            }),
            case(
                "dma_sram_to_fram over a guarded word",
                true,
                Written,
                |d, f, s| {
                    d.dma_sram_to_fram(s, f).unwrap();
                },
            ),
            case("flash", false, Written, |d, f, _| {
                d.flash(f, &[Q15::HALF; 4]);
            }),
            case("flash over a guarded word", true, Written, |d, f, _| {
                d.flash(f, &[Q15::HALF; 4]);
            }),
            case("flash_word", false, Written, |d, f, _| {
                d.flash_word(watched(f), 7);
            }),
            case("peek", false, Read, |d, f, _| {
                d.peek(f);
            }),
            case("peek beside the word", false, Untouched, |d, f, _| {
                d.peek(f.slice(2, 2));
                d.peek(f.slice(0, 1));
            }),
            case("peek_at", false, Read, |d, f, _| {
                d.peek_at(f.addr(1));
            }),
            case("peek_word", false, Read, |d, f, _| {
                d.peek_word(watched(f));
            }),
            case("fram_image", false, Read, |d, _, _| {
                let _ = d.fram_image();
            }),
            case("verify_at a guarded word", true, Read, |d, f, _| {
                d.verify_at(f.addr(1));
            }),
            case(
                "verify_at an unguarded word",
                false,
                Untouched,
                |d, f, _| {
                    d.verify_at(f.addr(1));
                },
            ),
            case("guard_word", false, Read, |d, f, _| {
                d.guard_word(watched(f));
            }),
            case("write, then read", false, Written, |d, f, _| {
                d.write(f, 1, Q15::HALF).unwrap();
                d.read(f, 1).unwrap();
            }),
            case("read, then write", false, Read, |d, f, _| {
                d.read(f, 1).unwrap();
                d.write(f, 1, Q15::HALF).unwrap();
            }),
        ]
    }

    #[test]
    fn a_watch_records_the_first_access_of_every_fram_path() {
        for c in watch_cases() {
            let mut d = continuous();
            let f = d.fram_alloc(4).unwrap();
            assert_eq!(f.base, 0, "`prerecord` names f[3] by its raw address");
            let s = d.sram_alloc(4).unwrap();
            d.flash(f, &[1, 2, 3, 4].map(Q15::from_raw));
            if c.guarded {
                d.guard_word(watched(f));
            }
            let mut plain = d.clone();
            d.arm_watch(d.ops_consumed(), [f.addr(1)]);
            assert_eq!(d.pending_faults(), 1);
            for dev in [&mut d, &mut plain] {
                dev.consume(Op::Alu).unwrap();
                (c.drive)(dev, f, s);
            }
            assert_eq!(d.pending_faults(), 0, "{}", c.name);
            assert_eq!(d.first_access(f.addr(1)), Some(c.expect), "{}", c.name);
            assert_eq!(d.first_access(f.addr(0)), None, "{}", c.name);
            // Watching changes nothing the run computes.
            assert_eq!(d.fram_image(), plain.fram_image(), "{}: FRAM", c.name);
            assert_eq!(d.epoch_report(), plain.epoch_report(), "{}", c.name);
            assert_eq!(d.mem_faults_injected(), 1, "{}", c.name);
        }
    }

    #[test]
    fn a_watch_lands_where_a_flip_would_and_ignores_earlier_accesses() {
        let mut d = continuous();
        let f = d.fram_alloc(4).unwrap();
        let at = d.ops_consumed() + 1;
        let mut flipped = d.clone();
        flipped.arm_faults(&FaultPlan::faults([(
            at,
            FaultKind::BitFlip {
                addr: f.addr(1),
                bit: 3,
            },
        )]));
        d.arm_watch(at, [f.addr(1)]);
        // Op `at - 1` reads before the landing; op `at` lands it.
        for dev in [&mut d, &mut flipped] {
            dev.read(f, 1).unwrap();
            assert_eq!(dev.pending_faults(), 1);
            dev.consume(Op::Alu).unwrap();
            assert_eq!(dev.pending_faults(), 0);
        }
        assert_eq!(d.first_access(f.addr(1)), Some(FirstAccess::Untouched));
        assert_eq!(d.peek_at(f.addr(1)).raw(), 0, "the watch flips no bit");
        assert_eq!(flipped.peek_at(f.addr(1)).raw(), 1 << 3);
        assert_eq!(d.mem_faults_injected(), flipped.mem_faults_injected());
        // A watch that never lands stays pending; re-arming faults drops it.
        d.arm_watch(u64::MAX, [f.addr(1)]);
        d.read(f, 1).unwrap();
        assert_eq!(d.pending_faults(), 1);
        assert_eq!(d.first_access(f.addr(1)), Some(FirstAccess::Untouched));
        d.arm_faults(&FaultPlan::default());
        assert_eq!(d.first_access(f.addr(1)), None);
    }
}
