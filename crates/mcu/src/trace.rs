//! Execution accounting: cycles and energy per (region, phase, operation).
//!
//! The paper's measurement MCU counts charge cycles between GPIO pulses to
//! attribute energy to code regions (§8). This module is the simulator's
//! equivalent "measurement MCU": the device charges every operation to the
//! currently active *region* (for example, a network layer) and *phase*
//! (kernel vs control), and this trace aggregates them. Figs. 9–12 are all
//! views over this data:
//!
//! - Fig. 9: live time per region + dead (recharging) time.
//! - Fig. 10: kernel vs control cycles per layer.
//! - Fig. 11: total energy.
//! - Fig. 12: energy per operation class per layer.

use crate::spec::{CostTable, Op};
use core::fmt;
use std::collections::HashMap;

/// Identifies a registered accounting region (e.g. a network layer).
///
/// Region 0 is always available as the catch-all "other" region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub(crate) u16);

impl RegionId {
    /// The default catch-all region.
    pub const OTHER: RegionId = RegionId(0);

    /// The raw index of the region.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether an operation belongs to a layer's main loop (kernel) or its
/// bookkeeping (control: task transitions, setup/teardown, buffer swaps,
/// index maintenance). Fig. 10 splits time along this axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Main-loop compute.
    #[default]
    Kernel,
    /// Bookkeeping required for intermittence or loop management.
    Control,
}

impl Phase {
    /// Both phases, in display order.
    pub const ALL: [Phase; 2] = [Phase::Kernel, Phase::Control];

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Kernel => 0,
            Phase::Control => 1,
        }
    }

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Kernel => "kernel",
            Phase::Control => "control",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated statistics for one operation class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Number of operations performed.
    pub count: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Total energy in picojoules.
    pub energy_pj: u64,
}

/// Op counts of one region, indexed `[phase.index()][op.index()]`.
type PhaseCounts = [[u64; Op::COUNT]; 2];

/// Snapshot of the cumulative counters at [`Trace::begin_epoch`] time.
/// Epoch reports subtract it from the current totals, yielding per-run
/// deltas instead of device-lifetime accumulation.
#[derive(Clone, Debug, Default)]
struct EpochMark {
    counts: Vec<PhaseCounts>,
    reboots: u64,
    region_reboots: Vec<u64>,
    progress_marks: u64,
    /// Dead time is re-accumulated per epoch rather than recovered by
    /// subtracting cumulative `f64` sums, so identical runs report
    /// bit-identical per-run dead seconds.
    dead_secs: f64,
}

/// The execution trace: everything the "measurement MCU" observed.
///
/// The trace keeps one op count per (region, phase, op class). Every
/// count is charged at one cost table's prices — its device's — so the
/// cycles and energy of a cell are its count times the op's cost, exactly
/// the sum of the charges that made it up (integer products distribute
/// over sums), and a charge is one addition.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The prices of every count.
    costs: CostTable,
    region_names: Vec<String>,
    /// Name → id, so re-registration (once per layer per deployment, for
    /// every fleet cell) is a hash probe instead of an O(regions) scan.
    region_ids: HashMap<String, u16>,
    counts: Vec<PhaseCounts>,
    dead_secs: f64,
    reboots: u64,
    /// Reboots attributed to the region that was executing when the
    /// power failure struck — the raw data behind per-layer DNC
    /// (starvation) attribution.
    region_reboots: Vec<u64>,
    progress_marks: u64,
    epoch: Option<EpochMark>,
}

impl Trace {
    /// Creates an empty trace with only the "other" region registered,
    /// priced under `costs` (its device's cost table): every op it is
    /// charged costs what `costs` says.
    pub fn with_costs(costs: CostTable) -> Self {
        Trace {
            costs,
            region_names: vec!["other".to_string()],
            region_ids: HashMap::from([("other".to_string(), 0)]),
            counts: vec![[[0; Op::COUNT]; 2]],
            dead_secs: 0.0,
            reboots: 0,
            region_reboots: vec![0],
            progress_marks: 0,
            epoch: None,
        }
    }

    /// Registers a new accounting region, returning its id. Re-registering
    /// an existing name returns the original id.
    pub fn register_region(&mut self, name: &str) -> RegionId {
        if let Some(&i) = self.region_ids.get(name) {
            return RegionId(i);
        }
        let id = RegionId(self.region_names.len() as u16);
        self.region_ids.insert(name.to_string(), id.0);
        self.region_names.push(name.to_string());
        self.counts.push([[0; Op::COUNT]; 2]);
        self.region_reboots.push(0);
        id
    }

    /// The registered region names, indexable by [`RegionId::index`].
    pub fn region_names(&self) -> &[String] {
        &self.region_names
    }

    /// Charges `n` ops of class `op` to one region and phase.
    #[inline]
    pub(crate) fn charge(&mut self, region: RegionId, phase: Phase, op: Op, n: u64) {
        self.counts[region.index()][phase.index()][op.index()] += n;
    }

    /// Charges `counts[op.index()]` ops of every class to one region and
    /// phase: [`Trace::charge`] for a whole dense row.
    #[inline]
    pub(crate) fn charge_row(&mut self, region: RegionId, phase: Phase, counts: &[u64; Op::COUNT]) {
        let row = &mut self.counts[region.index()][phase.index()];
        for (c, &n) in row.iter_mut().zip(counts) {
            *c += n;
        }
    }

    /// Charges `fit` times each `(phase, op, count)` of `cells` to one
    /// region.
    #[inline]
    pub(crate) fn charge_cells(
        &mut self,
        region: RegionId,
        cells: impl IntoIterator<Item = (Phase, Op, u64)>,
        fit: u64,
    ) {
        let counts = &mut self.counts[region.index()];
        for (phase, op, n) in cells {
            counts[phase.index()][op.index()] += n * fit;
        }
    }

    pub(crate) fn add_dead_time(&mut self, secs: f64) {
        self.dead_secs += secs;
        if let Some(mark) = &mut self.epoch {
            mark.dead_secs += secs;
        }
    }

    pub(crate) fn add_reboot(&mut self, region: RegionId) {
        self.reboots += 1;
        self.region_reboots[region.index()] += 1;
    }

    pub(crate) fn mark_progress(&mut self) {
        self.progress_marks += 1;
    }

    pub(crate) fn mark_progress_n(&mut self, n: u64) {
        self.progress_marks += n;
    }

    /// Number of power failures (reboots) observed.
    pub fn reboots(&self) -> u64 {
        self.reboots
    }

    /// Reboots attributed to one region: power failures that struck while
    /// the region was the active accounting context. A non-terminating
    /// run concentrates these on the layer/task that starves.
    pub fn region_reboots(&self, region: RegionId) -> u64 {
        self.region_reboots[region.index()]
    }

    /// Number of forward-progress beacons (used for non-termination
    /// detection by the scheduler).
    pub fn progress_marks(&self) -> u64 {
        self.progress_marks
    }

    /// Cycles of `counts`, one phase's row.
    fn row_cycles(&self, counts: &[u64; Op::COUNT]) -> u64 {
        Op::ALL
            .iter()
            .map(|&op| counts[op.index()] * u64::from(self.costs.cost(op).cycles))
            .sum()
    }

    /// Energy of `counts`, one phase's row.
    fn row_energy_pj(&self, counts: &[u64; Op::COUNT]) -> u64 {
        Op::ALL
            .iter()
            .map(|&op| counts[op.index()] * self.costs.cost(op).energy_pj)
            .sum()
    }

    /// Total cycles spent executing (live).
    pub fn live_cycles(&self) -> u64 {
        self.counts
            .iter()
            .flatten()
            .map(|row| self.row_cycles(row))
            .sum()
    }

    /// Total time spent dead, recharging, in seconds.
    pub fn dead_secs(&self) -> f64 {
        self.dead_secs
    }

    /// Total energy consumed across all regions, phases, and ops.
    pub fn total_energy_pj(&self) -> u64 {
        self.counts
            .iter()
            .flatten()
            .map(|row| self.row_energy_pj(row))
            .sum()
    }

    /// Statistics for one (region, phase, op) cell.
    pub fn stat(&self, region: RegionId, phase: Phase, op: Op) -> OpStat {
        let count = self.counts[region.index()][phase.index()][op.index()];
        let cost = self.costs.cost(op);
        OpStat {
            count,
            cycles: count * u64::from(cost.cycles),
            energy_pj: count * cost.energy_pj,
        }
    }

    /// Cycles spent in one phase of a region.
    pub fn region_phase_cycles(&self, region: RegionId, phase: Phase) -> u64 {
        self.row_cycles(&self.counts[region.index()][phase.index()])
    }

    /// Energy spent in one phase of a region.
    pub fn region_phase_energy_pj(&self, region: RegionId, phase: Phase) -> u64 {
        self.row_energy_pj(&self.counts[region.index()][phase.index()])
    }

    /// Energy per operation class, summed over a region's phases.
    pub fn region_energy_by_op(&self, region: RegionId) -> [(Op, u64); Op::COUNT] {
        Op::ALL.map(|op| {
            let n: u64 = self.counts[region.index()]
                .iter()
                .map(|row| row[op.index()])
                .sum();
            (op, n * self.costs.cost(op).energy_pj)
        })
    }

    /// Energy per operation class, totalled over all regions.
    pub fn energy_by_op(&self) -> [(Op, u64); Op::COUNT] {
        Op::ALL.map(|op| (op, self.op_count(op) * self.costs.cost(op).energy_pj))
    }

    /// Count of one op class, totalled over all regions and phases.
    pub fn op_count(&self, op: Op) -> u64 {
        self.counts
            .iter()
            .flatten()
            .map(|row| row[op.index()])
            .sum()
    }

    /// Produces an immutable summary snapshot.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            regions: self
                .region_names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let id = RegionId(i as u16);
                    RegionReport {
                        name: name.clone(),
                        kernel_cycles: self.region_phase_cycles(id, Phase::Kernel),
                        control_cycles: self.region_phase_cycles(id, Phase::Control),
                        kernel_energy_pj: self.region_phase_energy_pj(id, Phase::Kernel),
                        control_energy_pj: self.region_phase_energy_pj(id, Phase::Control),
                        index_write_energy_pj: self
                            .stat(id, Phase::Control, Op::FramWrite)
                            .energy_pj,
                        energy_by_op: self.region_energy_by_op(id),
                        reboots: self.region_reboots[i],
                    }
                })
                .collect(),
            live_cycles: self.live_cycles(),
            dead_secs: self.dead_secs,
            reboots: self.reboots,
            total_energy_pj: self.total_energy_pj(),
        }
    }

    // ----- epochs -----------------------------------------------------

    /// Starts a new accounting epoch: [`Trace::epoch_report`] will report
    /// only what happened *after* this call. Cumulative queries
    /// ([`Trace::report`], [`Trace::live_cycles`], …) are unaffected —
    /// they keep covering the device's whole lifetime, which is also what
    /// recharge-time integration over a time-varying harvest profile
    /// anchors to.
    pub fn begin_epoch(&mut self) {
        self.epoch = Some(EpochMark {
            counts: self.counts.clone(),
            reboots: self.reboots,
            region_reboots: self.region_reboots.clone(),
            progress_marks: self.progress_marks,
            dead_secs: 0.0,
        });
    }

    /// Summary of the current epoch only: the delta since the last
    /// [`Trace::begin_epoch`]. Without an epoch mark this equals
    /// [`Trace::report`], so fresh-device callers see identical numbers.
    ///
    /// Regions registered after the mark simply have an all-zero
    /// baseline.
    pub fn epoch_report(&self) -> TraceReport {
        let Some(mark) = &self.epoch else {
            return self.report();
        };
        let zero: PhaseCounts = [[0; Op::COUNT]; 2];
        let counts: Vec<PhaseCounts> = self
            .counts
            .iter()
            .enumerate()
            .map(|(r, cur)| {
                let base = mark.counts.get(r).unwrap_or(&zero);
                let mut d = zero;
                for p in 0..2 {
                    for o in 0..Op::COUNT {
                        d[p][o] = cur[p][o] - base[p][o];
                    }
                }
                d
            })
            .collect();
        let delta = Trace {
            costs: self.costs.clone(),
            region_names: self.region_names.clone(),
            region_ids: HashMap::new(), // delta views never register regions
            counts,
            dead_secs: mark.dead_secs,
            reboots: self.reboots - mark.reboots,
            region_reboots: self
                .region_reboots
                .iter()
                .enumerate()
                .map(|(r, &cur)| cur - mark.region_reboots.get(r).copied().unwrap_or(0))
                .collect(),
            progress_marks: self.progress_marks - mark.progress_marks,
            epoch: None,
        };
        delta.report()
    }
}

/// Per-region summary inside a [`TraceReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct RegionReport {
    /// Region name as registered.
    pub name: String,
    /// Cycles in the kernel phase.
    pub kernel_cycles: u64,
    /// Cycles in the control phase.
    pub control_cycles: u64,
    /// Energy in the kernel phase (pJ).
    pub kernel_energy_pj: u64,
    /// Energy in the control phase (pJ).
    pub control_energy_pj: u64,
    /// Energy of control-phase FRAM writes (pJ): SONIC's loop-index
    /// writes, reported separately in the paper's §9.4.
    pub index_write_energy_pj: u64,
    /// Energy per op class (pJ).
    pub energy_by_op: [(Op, u64); Op::COUNT],
    /// Power failures that struck while this region was executing. A
    /// non-terminating run piles these onto the starving layer, which is
    /// what per-layer DNC attribution reads.
    pub reboots: u64,
}

/// Immutable summary of a [`Trace`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// One entry per registered region, in registration order.
    pub regions: Vec<RegionReport>,
    /// Total live cycles.
    pub live_cycles: u64,
    /// Total dead (recharge) seconds.
    pub dead_secs: f64,
    /// Number of reboots.
    pub reboots: u64,
    /// Total energy (pJ).
    pub total_energy_pj: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Cost;

    /// A trace priced at the costs these tests charge.
    fn trace() -> Trace {
        let mut costs = CostTable::msp430fr5994();
        for (op, cycles, energy) in [
            (Op::FxpMul, 11, 825),
            (Op::Branch, 2, 150),
            (Op::FramRead, 2, 200),
            (Op::FramWrite, 4, 700),
            (Op::Incr, 1, 75),
            (Op::Alu, 1, 75),
        ] {
            costs.set_cost(op, Cost::new(cycles, energy));
        }
        Trace::with_costs(costs)
    }

    #[test]
    fn register_region_is_idempotent() {
        let mut t = trace();
        let a = t.register_region("conv1");
        let b = t.register_region("conv1");
        assert_eq!(a, b);
        let c = t.register_region("fc");
        assert_ne!(a, c);
        assert_eq!(t.region_names(), &["other", "conv1", "fc"]);
    }

    #[test]
    fn charge_accumulates_per_cell() {
        let mut t = trace();
        let r = t.register_region("conv1");
        t.charge(r, Phase::Kernel, Op::FxpMul, 3);
        t.charge(r, Phase::Control, Op::Branch, 1);
        let s = t.stat(r, Phase::Kernel, Op::FxpMul);
        assert_eq!(s.count, 3);
        assert_eq!(s.cycles, 33);
        assert_eq!(s.energy_pj, 2475);
        assert_eq!(t.region_phase_cycles(r, Phase::Control), 2);
        assert_eq!(t.live_cycles(), 35);
        assert_eq!(t.total_energy_pj(), 2625);
    }

    #[test]
    fn energy_by_op_totals_across_regions() {
        let mut t = trace();
        let a = t.register_region("a");
        let b = t.register_region("b");
        t.charge(a, Phase::Kernel, Op::Incr, 1);
        t.charge(b, Phase::Kernel, Op::Incr, 2);
        let by_op = t.energy_by_op();
        let incr = by_op.iter().find(|(op, _)| *op == Op::Incr).unwrap().1;
        assert_eq!(incr, 225);
        assert_eq!(t.op_count(Op::Incr), 3);
    }

    #[test]
    fn report_snapshot_matches_queries() {
        let mut t = trace();
        let r = t.register_region("conv");
        t.charge(r, Phase::Kernel, Op::FxpMul, 10);
        t.add_dead_time(1.5);
        t.add_reboot(r);
        let rep = t.report();
        assert_eq!(rep.reboots, 1);
        assert_eq!(rep.regions[1].reboots, 1, "reboot attributed to conv");
        assert_eq!(rep.regions[0].reboots, 0);
        assert_eq!(t.region_reboots(r), 1);
        assert!((rep.dead_secs - 1.5).abs() < 1e-12);
        assert_eq!(rep.live_cycles, 110);
        assert_eq!(rep.regions.len(), 2);
        assert_eq!(rep.regions[1].name, "conv");
        assert_eq!(rep.regions[1].kernel_cycles, 110);
        assert_eq!(rep.regions[1].control_cycles, 0);
    }

    #[test]
    fn progress_marks_count() {
        let mut t = trace();
        t.mark_progress();
        t.mark_progress();
        assert_eq!(t.progress_marks(), 2);
    }

    #[test]
    fn epoch_report_is_a_delta_not_a_cumulative_view() {
        let mut t = trace();
        let r = t.register_region("conv");
        t.charge(r, Phase::Kernel, Op::FxpMul, 10);
        t.add_dead_time(1.0);
        t.add_reboot(r);
        t.begin_epoch();
        t.charge(r, Phase::Kernel, Op::FxpMul, 3);
        t.add_dead_time(0.5);
        let rep = t.epoch_report();
        assert_eq!(rep.live_cycles, 33, "epoch must exclude pre-mark work");
        assert_eq!(rep.total_energy_pj, 3 * 825);
        assert!((rep.dead_secs - 0.5).abs() < 1e-12);
        assert_eq!(rep.reboots, 0);
        assert_eq!(rep.regions[1].reboots, 0, "pre-mark reboot excluded");
        assert_eq!(rep.regions[1].kernel_cycles, 33);
        // The cumulative view still covers the whole lifetime.
        let full = t.report();
        assert_eq!(full.live_cycles, 143);
        assert_eq!(full.reboots, 1);
    }

    #[test]
    fn epoch_report_without_mark_equals_full_report() {
        let mut t = trace();
        let r = t.register_region("fc");
        t.charge(r, Phase::Control, Op::FramWrite, 2);
        let a = t.report();
        let b = t.epoch_report();
        assert_eq!(a.live_cycles, b.live_cycles);
        assert_eq!(a.total_energy_pj, b.total_energy_pj);
        assert_eq!(a.regions.len(), b.regions.len());
    }

    #[test]
    fn epoch_handles_regions_registered_after_the_mark() {
        let mut t = trace();
        t.begin_epoch();
        let late = t.register_region("late");
        t.charge(late, Phase::Kernel, Op::Alu, 4);
        let rep = t.epoch_report();
        assert_eq!(rep.regions.len(), 2);
        assert_eq!(rep.regions[1].kernel_cycles, 4);
        assert_eq!(rep.total_energy_pj, 300);
    }

    #[test]
    fn reboots_attribute_to_the_active_region() {
        let mut t = trace();
        let conv = t.register_region("conv");
        let fc = t.register_region("fc");
        t.add_reboot(conv);
        t.add_reboot(fc);
        t.add_reboot(fc);
        assert_eq!(t.region_reboots(conv), 1);
        assert_eq!(t.region_reboots(fc), 2);
        assert_eq!(t.reboots(), 3);
        // Epochs see only post-mark attributions, including for regions
        // registered after the mark.
        t.begin_epoch();
        let late = t.register_region("late");
        t.add_reboot(late);
        let rep = t.epoch_report();
        assert_eq!(rep.reboots, 1);
        let by_name = |n: &str| rep.regions.iter().find(|r| r.name == n).unwrap().reboots;
        assert_eq!(by_name("conv"), 0);
        assert_eq!(by_name("fc"), 0);
        assert_eq!(by_name("late"), 1);
    }

    #[test]
    fn phase_labels() {
        assert_eq!(Phase::Kernel.label(), "kernel");
        assert_eq!(format!("{}", Phase::Control), "control");
    }
}
