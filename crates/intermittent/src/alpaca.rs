//! An Alpaca-style runtime: dynamic redo logging with two-phase commit.
//!
//! Alpaca \[Maeng et al., OOPSLA'17\] keeps *task-shared* data consistent
//! across power failures by privatizing writes into a redo log and
//! committing the log to the home locations atomically at task transition.
//! A task that is interrupted re-executes from its entry against the
//! unmodified home values, so write-after-read (WAR) dependences cannot
//! expose partial execution.
//!
//! The costs modelled here (and charged to the [`mcu::Device`]) follow the
//! structure of Alpaca's implementation:
//!
//! - **Reads** of task-shared data first check the log (a metadata read
//!   plus address comparisons); a hit pays an extra log-entry read.
//! - **Writes** append an entry to the non-volatile log — address word,
//!   value word, and list link — on first write, and update the entry on
//!   subsequent writes.
//! - **Commit** walks the log, reading each entry and writing its home
//!   location, guarded by a non-volatile commit flag so an interrupted
//!   commit replays idempotently after reboot.
//!
//! This is the per-access overhead that SONIC's loop continuation exists
//! to eliminate (paper §2, §6).
//!
//! # Host-side cost
//!
//! The simulator pays none of these costs per access. A task body that
//! uses the log runs as a taped body ([`Device::run_tape`]; see
//! [`add_tiled_loop`] and `core::tiled`): every access records its ops
//! on the body's [`Taped`] handle, so the body runs host-side against
//! the redo log and its record settles in one charge when the buffer
//! covers it, or op by op, brown-out included, when it does not. The
//! log's slot index is generation-stamped: a lookup is two indexed loads
//! and clearing the log is O(1). And the scheduler's whole commit
//! sequence — the flag raise, the fixed bookkeeping, the walk over the
//! log, the task transition and the flag lower — settles in one funded
//! charge ([`RuntimeCtx::commit_transition`], [`Device::fund_whole`])
//! whenever no op of it can brown out, meet an armed fault or detect
//! corruption; otherwise it runs op by op, exactly as the device would.

use crate::task::{RuntimeCtx, TaskGraph, TaskId, Transition};
use fxp::Q15;
use mcu::{
    AllocError, Charge, CostTable, Device, FramWord, NvAddr, Op, Phase, PowerFailure, Site, Step,
    Taped,
};

/// A redo-log entry: the home address, the privatized value, and a
/// per-entry checksum. The checksum is computed when the entry is
/// appended or updated and validated by the commit walk: commit must not
/// redo an entry whose non-volatile cells decayed or were corrupted,
/// because home locations may already be partially updated and a bogus
/// redo is a silent wrong write. Computing it rides in the ALU ops the
/// append already charges.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    addr: NvAddr,
    v: Q15,
    ck: u16,
}

/// log2 of the words covered by one page of the log's slot index.
const SLOT_PAGE_BITS: u32 = 8;

/// One page of the log's slot index.
type SlotPage = [u64; 1 << SLOT_PAGE_BITS];

/// The per-entry checksum: an address/value mix, one word like Alpaca's
/// log metadata.
fn log_ck(addr: NvAddr, v: Q15) -> u16 {
    (addr.index() as u16).wrapping_mul(0x9E37) ^ (v.raw() as u16) ^ 0x5A5A
}

impl LogEntry {
    /// `true` when the entry's checksum still matches its address and
    /// value.
    fn verifies(&self) -> bool {
        self.ck == log_ck(self.addr, self.v)
    }
}

/// FRAM words written when a log entry is created (20-bit address pair,
/// value, bucket link, dirty-list link, size tag, canonical pointer).
/// Calibrated, with the `COMMIT_FIXED_*` constants below, against
/// Alpaca's measured overhead.
pub const LOG_ENTRY_WORDS: u64 = 7;

/// FRAM reads per log-presence check (bucket head + probe).
pub const LOOKUP_READS: u64 = 2;
/// ALU ops per log-presence check (hashing + compares).
pub const LOOKUP_ALU: u64 = 4;

/// The ops of a task-shared read: the log-presence check (bucket reads
/// plus hashing and compares), then the log entry's read on a hit or the
/// home read on a miss.
const READ: [(Op, u64); 3] = [
    (Op::FramRead, LOOKUP_READS),
    (Op::Alu, LOOKUP_ALU),
    (Op::FramRead, 1),
];

/// The ops of a task-shared write that updates its entry: the presence
/// check, then the value and dirty words.
const UPDATE: [(Op, u64); 4] = [
    (Op::FramRead, LOOKUP_READS),
    (Op::Alu, LOOKUP_ALU),
    (Op::FramWrite, 2),
    (Op::Alu, 1),
];

/// The ops of a task-shared write that appends an entry: the presence
/// check, then the whole entry.
const APPEND: [(Op, u64); 4] = [
    (Op::FramRead, LOOKUP_READS),
    (Op::Alu, LOOKUP_ALU),
    (Op::FramWrite, LOG_ENTRY_WORDS),
    (Op::Alu, LOOKUP_ALU),
];

/// Per-task commit bookkeeping: Alpaca privatizes task-local scalars at
/// entry, walks its swap/dirty lists, and performs a two-phase update of
/// the NV task pointer at every transition. These constants are the
/// calibration knob for the paper's measured tiled-Alpaca overhead
/// (Tile-8 ≈ 13.4× the naïve baseline in Fig. 9). With them the model
/// reads Tile-8 ≈ 10.46×; the gap to the paper is open and not yet
/// explained.
pub const COMMIT_FIXED_ALU: u64 = 1500;
/// Fixed FRAM writes per commit (scalar privatization + list resets).
pub const COMMIT_FIXED_WRITES: u64 = 40;
/// Fixed FRAM reads per commit.
pub const COMMIT_FIXED_READS: u64 = 30;

/// The commit's fixed bookkeeping after the flag raise, in charge order.
const COMMIT_FIXED: [(Op, u64); 3] = [
    (Op::Alu, COMMIT_FIXED_ALU),
    (Op::FramWrite, COMMIT_FIXED_WRITES),
    (Op::FramRead, COMMIT_FIXED_READS),
];

/// The Alpaca-style runtime context: redo log plus commit protocol.
///
/// The log's *contents* are non-volatile (they survive power failures, as
/// they must for commit replay); whether they are *valid* is governed by
/// the commit flag, exactly as in Alpaca's two-phase commit.
///
/// A clone is an independent runtime in the same state: a run resumed
/// from a snapshot carries its log, commit phase and recorded sites.
#[derive(Clone, Debug)]
pub struct AlpacaRt {
    /// The redo log in append order, which is also the commit-walk order.
    log: Vec<LogEntry>,
    /// Per-word index into `log`, addressed by FRAM word:
    /// `stamp << 32 | k` for the word's entry `k`, live only while
    /// `stamp` is the current `generation`. Paged, so it only occupies
    /// the pages a run actually logs into. A lookup is a page load and a
    /// cell load; clearing the log bumps the generation, so it costs
    /// nothing per entry.
    slot: Vec<Option<Box<SlotPage>>>,
    /// The stamp of live `slot` cells; never 0, the stamp of a cell
    /// never written.
    generation: u32,
    commit_flag: FramWord,
    committing: bool,
    /// `true` when the most recent `after_commit` flag-lower store was
    /// swallowed by a brown-out, leaving the flag stale-high. Real
    /// Alpaca charges the lower on the next task's budget; this records
    /// the window so the crash-consistency spec can tell the benign
    /// stale flag from a genuinely unsafe raised-while-idle flag.
    flag_lower_pending: bool,
    /// The commit walk's bundled-loop sites, one per accounting phase the
    /// commit may run under (recorded once per runtime; commits happen
    /// every task transition).
    commit_entry: [Site; 2],
    /// The one-charge commit's ops besides its walk, priced once under
    /// the device's cost table: `[0]` for an empty log (the transition
    /// and the flag lower), `[1]` for a non-empty one (also the flag
    /// raise and `COMMIT_FIXED`).
    commit_fixed: [Charge; 2],
    /// The address [`AlpacaRt::appends`] last looked up, with its log
    /// slot: the write that follows reuses the lookup.
    named: Option<(NvAddr, Option<usize>)>,
}

/// [`AlpacaRt::commit_fixed`] under `costs`.
fn commit_fixed(costs: &CostTable) -> [Charge; 2] {
    [false, true].map(|logged| {
        let mut c = Charge::new();
        c.add(Op::TaskTransition, 1, costs);
        c.add(Op::FramWrite, 1 + u64::from(logged), costs);
        if logged {
            for (op, n) in COMMIT_FIXED {
                c.add(op, n, costs);
            }
        }
        c
    })
}

impl AlpacaRt {
    /// Creates the runtime, allocating its commit flag in FRAM.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if FRAM is exhausted.
    pub fn new(dev: &mut Device) -> Result<Self, AllocError> {
        let commit_flag = dev.fram_alloc_word()?;
        // The flag gates commit replay across reboots; register it under
        // the ECC guard so a decayed/flipped flag is detected at the next
        // commit rather than trusted.
        dev.guard_word(commit_flag);
        Ok(AlpacaRt {
            log: Vec::new(),
            slot: Vec::new(),
            generation: 1,
            commit_flag,
            committing: false,
            flag_lower_pending: false,
            commit_entry: Default::default(),
            commit_fixed: commit_fixed(&dev.spec().costs),
            named: None,
        })
    }

    /// Number of live log entries (distinct privatized words).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    // ----- crash-consistency spec probes -------------------------------
    //
    // Read-only views of the two-phase-commit machinery, for the
    // crash-consistency harness's abstraction function (`core::spec`):
    // the abstract Alpaca machine is (phase, pending log), and these
    // expose exactly the concrete state it is abstracted from.

    /// The non-volatile commit flag's word: `1` while a commit walk may
    /// have partially updated home locations (the log must be preserved
    /// and replayed), `0` otherwise.
    pub fn commit_flag_word(&self) -> FramWord {
        self.commit_flag
    }

    /// `true` between the first commit attempt of a transition and its
    /// `after_commit` — the window where a power failure must preserve
    /// the redo log for replay.
    pub fn is_committing(&self) -> bool {
        self.committing
    }

    /// `true` while the commit flag is stale-high: the last transition's
    /// flag-lower store was swallowed by a brown-out after every home
    /// location was already written. The flag stays raised until the
    /// next successful lower, and any log entries accumulated meanwhile
    /// belong to an uncommitted body that a reboot discards.
    pub fn flag_lower_pending(&self) -> bool {
        self.flag_lower_pending
    }

    /// Fault-injection hook: corrupts the stored checksum of the `k`-th
    /// (append-order) log entry, as a decayed non-volatile log cell
    /// would. Returns `false` if the log has no such entry.
    pub fn poison_log_entry(&mut self, k: usize) -> bool {
        match self.log.get_mut(k) {
            Some(e) => {
                e.ck ^= 1;
                true
            }
            None => false,
        }
    }

    // ----- the indexed redo log ----------------------------------------

    /// The log slot of `addr`'s entry, if the word is logged: a page
    /// load, a cell load and a stamp compare.
    #[inline]
    fn find(&self, addr: NvAddr) -> Option<usize> {
        let a = addr.index();
        let page = self.slot.get((a >> SLOT_PAGE_BITS) as usize)?.as_deref()?;
        let cell = page[(a & ((1 << SLOT_PAGE_BITS) - 1)) as usize];
        ((cell >> 32) as u32 == self.generation).then_some(cell as u32 as usize)
    }

    /// `true` when a task-shared write of `addr` would append a log entry,
    /// `false` when it would update one: which of its two op sequences
    /// the write charges.
    #[inline]
    pub fn appends(&mut self, addr: NvAddr) -> bool {
        let slot = self.find(addr);
        self.named = Some((addr, slot));
        slot.is_none()
    }

    /// Privatizes `v` at `addr` into the log, host-side, given the log
    /// slot of `addr`'s entry if it has one.
    #[inline]
    fn privatize(&mut self, slot: Option<usize>, addr: NvAddr, v: Q15) {
        let e = LogEntry {
            addr,
            v,
            ck: log_ck(addr, v),
        };
        if let Some(k) = slot {
            self.log[k] = e;
            return;
        }
        let a = addr.index();
        let p = (a >> SLOT_PAGE_BITS) as usize;
        if p >= self.slot.len() {
            self.slot.resize_with(p + 1, || None);
        }
        let page = self.slot[p].get_or_insert_with(|| Box::new([0; 1 << SLOT_PAGE_BITS]));
        page[(a & ((1 << SLOT_PAGE_BITS) - 1)) as usize] =
            u64::from(self.generation) << 32 | self.log.len() as u64;
        self.log.push(e);
    }

    /// Empties the log: a new generation retires every slot-index cell.
    fn clear_log(&mut self) {
        self.log.clear();
        self.named = None;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slot.clear();
            self.generation = 1;
        }
    }

    /// A commit-walk checksum mismatch: the redo log itself is corrupt.
    /// There is no durable value to fall back on — home locations may
    /// already be partially updated — so spend the remaining retry
    /// budget and fail, surfacing as unrecoverable corruption instead
    /// of replaying a poisoned commit forever.
    fn log_corrupt(s: &mut Step<'_>) -> Result<(), PowerFailure> {
        let region = s.context().0;
        while s.note_corruption(region) {}
        Err(PowerFailure)
    }

    /// Reads a task-shared word: log hit returns the privatized value,
    /// miss falls through to the home location. A home read of a
    /// guarded word is ECC-checked: divergence is scrubbed back to the
    /// intended value (a metered write) under the device's bounded
    /// corruption-retry budget. The check itself is free — the
    /// controller verifies check bits inside the read.
    ///
    /// The read returns the value at once and a scrub lands at once: it
    /// restores the word's last durable value, so a body whose settle
    /// fails re-executes against an identical home.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when corruption is detected and the retry
    /// budget is exhausted.
    #[inline(always)]
    pub fn ts_read<const I: bool>(
        &mut self,
        t: &mut Taped<'_, I>,
        addr: NvAddr,
    ) -> Result<Q15, PowerFailure> {
        t.ops(&READ)?;
        if let Some(k) = self.find(addr) {
            return Ok(self.log[k].v);
        }
        let v = t.peek_at(addr);
        if t.device().verify_at(addr) {
            return Ok(v);
        }
        let region = t.device().context().0;
        if !t.note_corruption(region) {
            return Err(PowerFailure);
        }
        let fixed = Self::intended(t.device(), addr);
        t.write_at(addr, fixed)?;
        Ok(fixed)
    }

    /// The value ECC correction restores a flagged word to.
    #[cold]
    fn intended(dev: &Device, addr: NvAddr) -> Q15 {
        Q15::from_raw(
            dev.guarded_intended(addr)
                .expect("a flagged word is guarded") as i16,
        )
    }

    /// Writes a task-shared word into the redo log (privatization). The
    /// home location is untouched until commit.
    ///
    /// The body's settle charges the append or update; a brown-out there
    /// fails the body, whose log the scheduler discards.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` lets a taped body use `?` throughout.
    #[inline(always)]
    pub fn ts_write<const I: bool>(
        &mut self,
        t: &mut Taped<'_, I>,
        addr: NvAddr,
        v: Q15,
    ) -> Result<(), PowerFailure> {
        let slot = match self.named.take() {
            Some((a, slot)) if a == addr => slot,
            _ => self.find(addr),
        };
        t.ops(if slot.is_none() { &APPEND } else { &UPDATE })?;
        self.privatize(slot, addr, v);
        Ok(())
    }

    /// Reads a task-shared 16-bit counter ([`AlpacaRt::ts_read`]).
    ///
    /// # Errors
    ///
    /// As [`AlpacaRt::ts_read`].
    #[inline(always)]
    pub fn ts_load_word<const I: bool>(
        &mut self,
        t: &mut Taped<'_, I>,
        addr: NvAddr,
    ) -> Result<u16, PowerFailure> {
        Ok(self.ts_read(t, addr)?.raw() as u16)
    }

    /// Writes a task-shared 16-bit counter into the redo log
    /// ([`AlpacaRt::ts_write`]).
    ///
    /// # Errors
    ///
    /// Never fails, as [`AlpacaRt::ts_write`].
    #[inline(always)]
    pub fn ts_store_word<const I: bool>(
        &mut self,
        t: &mut Taped<'_, I>,
        addr: NvAddr,
        v: u16,
    ) -> Result<(), PowerFailure> {
        self.ts_write(t, addr, Q15::from_raw(v as i16))
    }

    // ----- the one-charge commit ---------------------------------------

    /// The scheduler's whole commit sequence — the flag raise, the fixed
    /// bookkeeping, the walk, the task transition and the flag lower —
    /// in one funding decision ([`Device::fund_whole`]), which also lands
    /// the flag and the homes. Everything but the walk is priced once per
    /// runtime; the walk is its site's recorded bundle, priced when
    /// recorded, repeated once per log entry. Taken only when the ordered
    /// path would detect nothing (the flag verifies and every entry's
    /// checksum holds) and the device funds the whole sequence, so it
    /// leaves exactly the state, trace and op counter the ordered path
    /// would. Returns `false`, having done nothing, otherwise.
    ///
    /// A walk runs through the ordered path until its site has recorded
    /// its bundle, as it would with no one-charge commit: how much of a
    /// walk is charged before a poisoned entry stops it depends on
    /// whether the walk was funded.
    fn commit_whole(&mut self, dev: &mut Device) -> bool {
        let n = self.log.len() as u64;
        let phase = dev.context().1;
        let site = &self.commit_entry[usize::from(phase == Phase::Control)];
        // An empty log commits nothing: the transition and the lower.
        if n > 0 {
            let Some(entry) = site.bundle() else {
                return false;
            };
            if !dev.verify_word(self.commit_flag) || !self.log.iter().all(LogEntry::verifies) {
                return false;
            }
            // The fixed part charges at the commit's phase, the walk at
            // each entry's own: the same, as the ordered walk runs at the
            // commit's phase.
            debug_assert!(entry.ops().iter().all(|e| e.phase == phase));
        }
        let flag = self.commit_flag.addr();
        let raise = (n > 0).then_some((flag, Q15::from_raw(1)));
        let homes = self.log.iter().map(|e| (e.addr, e.v));
        if !dev.fund_whole(
            &self.commit_fixed[usize::from(n > 0)],
            std::slice::from_ref(site),
            &[n],
            raise.into_iter().chain(homes).chain([(flag, Q15::ZERO)]),
        ) {
            return false;
        }
        self.flag_lower_pending = false;
        self.clear_log();
        self.committing = false;
        true
    }

    /// Commits the log to its home locations, op by op: the flag raise,
    /// the fixed bookkeeping and the walk. **Idempotent**: after a
    /// mid-commit brown-out the scheduler reboots and commits again,
    /// exactly like Alpaca's two-phase commit replay.
    fn commit(&mut self, dev: &mut Device) -> Result<(), PowerFailure> {
        if self.log.is_empty() {
            return Ok(());
        }
        if !self.committing {
            self.committing = true;
        }
        // ECC check of the commit flag before reuse: a flipped flag is
        // detected here (free — rides in the raise that follows, which
        // also scrubs it) and counted against the retry budget.
        if !dev.verify_word(self.commit_flag) && !dev.note_corruption(dev.context().0) {
            return Err(PowerFailure);
        }
        // Commit-flag raise (idempotent on replay: same write again).
        dev.store_word(self.commit_flag, 1)?;
        // Fixed task-epilogue bookkeeping (see the constants above).
        for (op, n) in COMMIT_FIXED {
            dev.consume_n(op, n)?;
        }
        // Walk the log in append order; replay after a failure re-walks the
        // whole list, which is idempotent because entries hold absolute
        // values. The walk is uniform per entry, so it runs as a bundled
        // loop: a mid-commit brown-out leaves exactly the scalar path's
        // partial home writes, and its recorded bundle is what the
        // one-charge commit charges per entry.
        let site = &mut self.commit_entry[usize::from(dev.context().1 == Phase::Control)];
        let log = &self.log;
        dev.run_bundled(
            site,
            0..log.len() as u32,
            #[inline(always)]
            |s, i| {
                let e = log[i as usize];
                // Read the entry (address + value).
                s.op_n(Op::FramRead, 2)?;
                // A checksum mismatch means the log cells decayed and the
                // redo value cannot be trusted.
                if !e.verifies() {
                    return Self::log_corrupt(s);
                }
                s.write_at(e.addr, e.v)?; // write home location
                s.op_n(Op::Incr, 2) // list cursor + canonical update
            },
        )
    }

    /// After a successful commit and transition charge: lowers the
    /// commit flag and clears the log.
    fn after_commit(&mut self, dev: &mut Device) {
        // Lower the commit flag; the log becomes dead storage. The flag
        // write is charged on the next task's budget in real Alpaca; here
        // it is charged immediately, and a brown-out that swallows it
        // leaves the flag stale-high (every home is already written, so
        // recovery is unaffected) — recorded so the crash-consistency
        // spec can scope its raised-while-idle exception to exactly this
        // window.
        // The flag is high entering this call iff a non-empty commit
        // just raised it (`committing`) or it is stale-high from an
        // earlier swallowed lower; a failed store on an already-low flag
        // (empty commit) leaves nothing pending.
        let was_high = self.committing || self.flag_lower_pending;
        self.flag_lower_pending = dev.store_word(self.commit_flag, 0).is_err() && was_high;
        self.clear_log();
        self.committing = false;
    }
}

impl RuntimeCtx for AlpacaRt {
    fn commit_transition(&mut self, dev: &mut Device) -> Result<(), PowerFailure> {
        if self.commit_whole(dev) {
            return Ok(());
        }
        self.commit(dev)?;
        dev.consume(Op::TaskTransition)?;
        self.after_commit(dev);
        Ok(())
    }

    fn on_power_failure(&mut self, _dev: &mut Device, mid_commit: bool) {
        if mid_commit {
            // Keep the log: the scheduler will replay commit.
            debug_assert!(self.committing);
        } else {
            // Discard privatized state; the task body re-executes against
            // the home values.
            self.clear_log();
            self.committing = false;
        }
    }
}

/// Builds a task-tiled loop in the style of the paper's `Tile-N`
/// implementations (Fig. 6): each task execution runs up to `tile`
/// iterations, keeps the loop index as WAR-protected task-shared state,
/// and self-transitions until `total` iterations have run, then resets the
/// index and takes `next`. Each task execution is one taped body
/// ([`Device::run_tape`]), `body` one iteration of it.
///
/// Returns the id of the loop task.
///
/// # Panics
///
/// Panics if `total` exceeds `u16::MAX` (the index is one FRAM word; the
/// DNN kernels nest loops so each level stays within this) or `tile` is 0.
pub fn add_tiled_loop<F>(
    graph: &mut TaskGraph<AlpacaRt>,
    name: &str,
    index: NvAddr,
    total: u32,
    tile: u32,
    next: Transition,
    mut body: F,
) -> TaskId
where
    F: FnMut(&mut Taped<'_>, &mut AlpacaRt, u32) -> Result<(), PowerFailure>
        + Clone
        + Send
        + Sync
        + 'static,
{
    assert!(
        total <= u16::MAX as u32,
        "tiled loop too long for u16 index"
    );
    assert!(tile > 0, "tile must be positive");
    let self_id = graph.next_id();
    graph.add(name, move |dev, rt| {
        dev.run_tape(&mut [], |t| {
            let base = rt.ts_load_word(t, index)? as u32;
            t.op(Op::Branch)?;
            if base >= total {
                // Reset for the next invocation of the whole loop.
                rt.ts_store_word(t, index, 0)?;
                return Ok(next);
            }
            let end = (base + tile).min(total);
            for i in base..end {
                body(t, rt, i)?;
                t.op(Op::Incr)?;
                t.op(Op::Branch)?;
            }
            rt.ts_store_word(t, index, end as u16)?;
            Ok(Transition::To(self_id))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run, run_observed, SchedulerConfig};
    use mcu::{DeviceSpec, PowerSystem};

    fn continuous_dev() -> Device {
        Device::new(DeviceSpec::tiny(), PowerSystem::continuous())
    }

    #[test]
    fn reads_fall_through_to_home() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        dev.store_word(w, 42).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        let v = dev.run_tape(&mut [], |t| rt.ts_load_word(t, w.addr()));
        assert_eq!(v.unwrap(), 42);
    }

    #[test]
    fn writes_are_privatized_until_commit() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        dev.store_word(w, 1).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        let v = dev.run_tape(&mut [], |t| {
            rt.ts_store_word(t, w.addr(), 99)?;
            // Home unchanged; read-own-write sees the new value.
            assert_eq!(t.device().peek_word(w), 1);
            rt.ts_load_word(t, w.addr())
        });
        assert_eq!(v.unwrap(), 99);
        assert_eq!(rt.log_len(), 1);
        // Commit lands it.
        rt.commit(&mut dev).unwrap();
        rt.after_commit(&mut dev);
        assert_eq!(dev.peek_word(w), 99);
        assert_eq!(rt.log_len(), 0);
    }

    #[test]
    fn commit_is_idempotent() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        dev.run_tape(&mut [], |t| rt.ts_store_word(t, w.addr(), 7))
            .unwrap();
        rt.commit(&mut dev).unwrap();
        rt.commit(&mut dev).unwrap(); // replay, as after a mid-commit failure
        rt.after_commit(&mut dev);
        assert_eq!(dev.peek_word(w), 7);
    }

    #[test]
    fn power_failure_discards_uncommitted_writes() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        dev.store_word(w, 5).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        dev.run_tape(&mut [], |t| rt.ts_store_word(t, w.addr(), 50))
            .unwrap();
        rt.on_power_failure(&mut dev, false);
        assert_eq!(rt.log_len(), 0);
        // Re-executed read sees the home value again.
        let v = dev.run_tape(&mut [], |t| rt.ts_load_word(t, w.addr()));
        assert_eq!(v.unwrap(), 5);
        rt.commit(&mut dev).unwrap();
        assert_eq!(dev.peek_word(w), 5);
    }

    #[test]
    fn first_write_costs_a_full_log_entry() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        let mut store = |dev: &mut Device, v| {
            let before = dev.trace().op_count(Op::FramWrite);
            dev.run_tape(&mut [], |t| rt.ts_store_word(t, w.addr(), v))
                .unwrap();
            dev.trace().op_count(Op::FramWrite) - before
        };
        assert_eq!(store(&mut dev, 1), LOG_ENTRY_WORDS);
        assert_eq!(
            store(&mut dev, 2),
            2,
            "updates touch the value and dirty words"
        );
    }

    #[test]
    fn tiled_loop_runs_all_iterations_in_order() {
        let mut dev = continuous_dev();
        let idx = dev.fram_alloc_word().unwrap();
        let hits = dev.fram_alloc(23).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        let mut g = TaskGraph::new();
        add_tiled_loop(
            &mut g,
            "loop",
            idx.addr(),
            23,
            5,
            Transition::Done,
            move |t, rt, i| rt.ts_write(t, hits.addr(i), Q15::HALF),
        );
        let stats = run(&mut g, &mut rt, &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert_eq!(dev.peek(hits), vec![Q15::HALF; 23]);
        assert_eq!(dev.peek_word(idx), 0, "index reset for next invocation");
        // ceil(23/5) = 5 working tasks + 1 exit task.
        assert_eq!(stats.transitions, 6);
    }

    #[test]
    fn tiled_loop_survives_intermittent_power() {
        let mut dev = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let idx = dev.fram_alloc_word().unwrap();
        let acc = dev.fram_alloc_word().unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        let mut g = TaskGraph::new();
        // Each iteration burns ~1.6 µJ (vs a ~12 µJ buffer) and increments
        // a WAR-protected accumulator: the classic intermittence test.
        add_tiled_loop(
            &mut g,
            "war-loop",
            idx.addr(),
            50,
            5,
            Transition::Done,
            move |t, rt, _i| {
                let v = rt.ts_load_word(t, acc.addr())?;
                t.op_n(Op::FxpMul, 600)?;
                rt.ts_store_word(t, acc.addr(), v + 1)
            },
        );
        let stats = run(&mut g, &mut rt, &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert!(stats.reboots > 0, "test requires actual power failures");
        assert_eq!(
            dev.peek_word(acc),
            50,
            "WAR protection must yield exactly-once"
        );
        assert_eq!(dev.peek_word(idx), 0);
    }

    #[test]
    fn commit_walk_survives_a_brownout_between_any_two_home_writes() {
        // Exhaustive mid-commit-walk injection: a task privatizes several
        // words, then a fault is forced at every op boundary of the
        // commit + transition sequence in turn — including between
        // log-entry home writes. After recovery the homes must hold
        // exactly the logged values (redo idempotence) and the commit
        // flag must be lowered. The fault-free run bounds the boundary
        // range to sweep.
        let run_once = |fault: Option<u64>| -> (Device, Vec<u16>, u16, bool) {
            let mut dev = continuous_dev();
            let words = dev.fram_alloc(6).unwrap();
            let mut rt = AlpacaRt::new(&mut dev).unwrap();
            let mut g = TaskGraph::new();
            g.add("privatize", move |dev, rt: &mut AlpacaRt| {
                dev.run_tape(&mut [], |t| {
                    (0..6u32).try_for_each(|k| rt.ts_store_word(t, words.addr(k), 100 + k as u16))
                })?;
                Ok(Transition::Done)
            });
            if let Some(f) = fault {
                dev.arm_faults(&mcu::FaultPlan::at(f));
            }
            let mut saw_mid_commit_flag_up = false;
            run_observed(
                &mut g,
                &mut rt,
                &mut dev,
                0,
                &SchedulerConfig::task_based(),
                |dev, rt: &AlpacaRt, ev| {
                    if ev.mid_commit {
                        assert!(rt.is_committing(), "log must be kept for replay");
                        if dev.peek_word(rt.commit_flag_word()) == 1 {
                            saw_mid_commit_flag_up = true;
                        }
                    }
                },
            )
            .unwrap();
            let flag = dev.peek_word(rt.commit_flag_word());
            let homes: Vec<u16> = (0..6).map(|k| dev.peek(words)[k].raw() as u16).collect();
            (dev, homes, flag, saw_mid_commit_flag_up)
        };

        let (clean_dev, clean_homes, clean_flag, _) = run_once(None);
        assert_eq!(clean_homes, vec![100, 101, 102, 103, 104, 105]);
        assert_eq!(clean_flag, 0);

        let mut mid_commit_crashes = 0u64;
        for boundary in 0..clean_dev.ops_consumed() {
            let (dev, homes, flag, mid_flag_up) = run_once(Some(boundary));
            assert_eq!(
                homes, clean_homes,
                "boundary {boundary}: recovery must redo every home write"
            );
            // The very last charged op of the run is `after_commit`'s
            // flag-lowering write, whose failure the model deliberately
            // swallows (see `after_commit`): a fault there leaves the
            // flag raised — harmless, since the walk already landed every
            // home value — and every earlier boundary must lower it.
            if flag != 0 {
                assert!(
                    boundary == clean_dev.ops_consumed() - 1 && !dev.is_on(),
                    "boundary {boundary}: commit flag raised outside the \
                     final swallowed flag-lower write"
                );
            }
            assert_eq!(dev.pending_faults(), 0, "boundary {boundary}: fired");
            if mid_flag_up {
                mid_commit_crashes += 1;
            }
        }
        assert!(
            mid_commit_crashes > LOG_ENTRY_WORDS,
            "the sweep must have crashed inside the raised-flag commit \
             window many times (got {mid_commit_crashes})"
        );
    }

    #[test]
    fn poisoned_log_entry_fails_commit_as_unrecoverable() {
        // A decayed log cell must not be redone into a home location:
        // the walk detects the checksum mismatch, burns the bounded
        // retry budget, and fails — never a silent wrong home write.
        let mut dev = continuous_dev();
        let words = dev.fram_alloc(3).unwrap();
        dev.write_at(words.addr(1), Q15::from_raw(7)).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        dev.run_tape(&mut [], |t| {
            (0..3u32).try_for_each(|k| rt.ts_store_word(t, words.addr(k), 200 + k as u16))
        })
        .unwrap();
        assert!(rt.poison_log_entry(1));
        assert!(rt.commit(&mut dev).is_err());
        assert!(
            dev.corruption_unrecoverable().is_some(),
            "log corruption has no durable fallback"
        );
        assert!(dev.corruption_detected() >= 1);
        assert_ne!(
            dev.peek_at(words.addr(1)).raw(),
            201,
            "the poisoned entry's redo must not land"
        );
    }

    #[test]
    fn one_charge_commit_matches_the_ordered_sequence() {
        // The same privatized words committed through the scheduler's
        // hook (one charge) and through the ordered calls it replaces,
        // on continuous power and on a buffer that covers the sequence.
        for power in [PowerSystem::continuous(), PowerSystem::cap_100uf()] {
            let setup = || {
                let mut dev = Device::new(DeviceSpec::tiny(), power.clone());
                let words = dev.fram_alloc(5).unwrap();
                let mut rt = AlpacaRt::new(&mut dev).unwrap();
                dev.set_context(mcu::RegionId::OTHER, Phase::Control);
                // The first walk records its bundle through the ordered
                // path.
                dev.run_tape(&mut [], |t| rt.ts_store_word(t, words.addr(4), 1))
                    .unwrap();
                rt.commit_transition(&mut dev).unwrap();
                dev.run_tape(&mut [], |t| {
                    (0..5u32).try_for_each(|k| rt.ts_store_word(t, words.addr(k), 10 + k as u16))
                })
                .unwrap();
                (dev, rt)
            };
            let ((mut a, mut ra), (mut b, mut rb)) = (setup(), setup());
            let (ops, energy) = (a.ops_consumed(), a.trace().total_energy_pj());
            ra.commit_transition(&mut a).unwrap();
            rb.commit(&mut b).unwrap();
            b.consume(Op::TaskTransition).unwrap();
            rb.after_commit(&mut b);
            assert_eq!(a.ops_consumed() - ops, 1 + 1570 + 5 * 5 + 2);
            assert!(a.trace().total_energy_pj() > energy);
            assert_eq!(a.ops_consumed(), b.ops_consumed());
            assert_eq!(a.charge_pj(), b.charge_pj());
            assert_eq!(a.trace().report(), b.trace().report());
            assert_eq!(a.fram_image(), b.fram_image());
            assert_eq!(a.peek_word(ra.commit_flag_word()), 0);
            assert_eq!(ra.log_len() + rb.log_len(), 0);
            assert!(!ra.is_committing() && !ra.flag_lower_pending());
        }
    }

    #[test]
    fn a_wrapped_log_generation_retires_every_slot() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc(2).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        rt.generation = u32::MAX;
        let v = dev.run_tape(&mut [], |t| {
            assert!(rt.appends(w.addr(0)));
            rt.ts_write(t, w.addr(0), Q15::HALF)?;
            rt.clear_log();
            assert_eq!(rt.generation, 1);
            assert_eq!(rt.find(w.addr(0)), None, "a slot of the old generation");
            assert!(rt.appends(w.addr(1)));
            rt.ts_write(t, w.addr(1), Q15::HALF)?;
            assert!(!rt.appends(w.addr(1)));
            rt.ts_write(t, w.addr(1), Q15::MAX)?;
            assert_eq!(rt.find(w.addr(1)), Some(0));
            rt.ts_read(t, w.addr(1))
        });
        assert_eq!(v.unwrap(), Q15::MAX);
    }

    #[test]
    fn flipped_commit_flag_is_detected_and_scrubbed() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        // Flip the idle (low) flag high at the next op boundary — the
        // raised-while-idle state the crash-consistency spec forbids.
        let flag = rt.commit_flag_word();
        dev.arm_faults(&mcu::FaultPlan::faults([(
            dev.ops_consumed(),
            mcu::FaultKind::BitFlip {
                addr: flag.addr(),
                bit: 0,
            },
        )]));
        dev.run_tape(&mut [], |t| rt.ts_store_word(t, w.addr(), 9))
            .unwrap();
        assert_eq!(dev.peek_word(flag), 1, "fault must have fired");
        rt.commit(&mut dev).unwrap();
        rt.after_commit(&mut dev);
        assert_eq!(dev.corruption_detected(), 1, "flip seen at commit");
        assert!(dev.corruption_unrecoverable().is_none());
        assert_eq!(dev.peek_word(flag), 0, "flag lowered after commit");
        assert_eq!(dev.peek_word(w), 9);
    }

    #[test]
    fn unprotected_war_loop_is_incorrect_under_intermittence() {
        // The same loop with DIRECT non-volatile writes (no redo log): a
        // power failure between the accumulator update and the index update
        // replays iterations, double-counting work. This is "the WAR
        // problem" the paper describes in §2.
        let mut dev = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let idx = dev.fram_alloc_word().unwrap();
        let acc = dev.fram_alloc_word().unwrap();
        let mut g: TaskGraph<()> = TaskGraph::new();
        let self_id = g.next_id();
        g.add("unsafe-loop", move |dev, _| {
            let i = dev.load_word(idx)?;
            dev.consume(Op::Branch)?;
            if i >= 50 {
                return Ok(Transition::Done);
            }
            let v = dev.load_word(acc)?;
            dev.store_word(acc, v + 1)?; // effect lands...
            dev.consume_n(Op::FxpMul, 600)?; // ...then a long window...
            dev.store_word(idx, i + 1)?; // ...before progress is recorded
            dev.mark_progress();
            Ok(Transition::To(self_id))
        });
        let stats = run(&mut g, &mut (), &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert!(stats.reboots > 0, "test requires actual power failures");
        assert!(
            dev.peek_word(acc) > 50,
            "unprotected WAR state must double-count; got {}",
            dev.peek_word(acc)
        );
    }
}
