//! Device specification: memory geometry and per-operation cost tables.
//!
//! All constants live here so that calibrating the model touches exactly
//! one file. Costs are expressed as `(cycles, picojoules)`
//! pairs. Energy per cycle includes instruction fetch and decode — the paper
//! (§10) estimates ~40% of SONIC's energy goes to fetch/decode, which is why
//! even single-cycle ALU ops carry a non-trivial energy price.

use core::fmt;

/// Operation classes metered by the device.
///
/// These deliberately mirror the categories of the paper's Fig. 12 energy
/// breakdown (loads, stores, adds, increments, multiplies, fixed-point
/// ops, task transitions) plus the peripheral operations used by TAILS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// 16-bit read from SRAM (volatile).
    SramRead,
    /// 16-bit write to SRAM (volatile).
    SramWrite,
    /// 16-bit read from FRAM (non-volatile; wait-stated above 8 MHz).
    FramRead,
    /// 16-bit write to FRAM (non-volatile; the most expensive memory op).
    FramWrite,
    /// Integer ALU operation (address arithmetic, compares, logic).
    Alu,
    /// Loop-index increment (tracked separately for the Fig. 12 breakdown).
    Incr,
    /// Conditional/unconditional branch.
    Branch,
    /// Integer multiply on the memory-mapped hardware multiplier
    /// ("four instructions and nine cycles", §10).
    Mul,
    /// Fixed-point (Q1.15) addition in the kernel.
    FxpAdd,
    /// Fixed-point (Q1.15) multiply: hardware multiplier plus the rounding
    /// shift sequence.
    FxpMul,
    /// Task transition: control transfer between tasks, including updating
    /// the non-volatile "current task" pointer.
    TaskTransition,
    /// Per-reboot overhead: reset vector, runtime re-initialization.
    Boot,
    /// DMA channel configuration (per block transfer).
    DmaSetup,
    /// One 16-bit word moved by DMA.
    DmaWord,
    /// LEA command setup (per invocation).
    LeaSetup,
    /// One multiply-accumulate performed inside LEA (CPU asleep).
    LeaMac,
    /// No-op / everything else.
    Nop,
}

impl Op {
    /// All operation classes, in a fixed order used for table indexing.
    pub const ALL: [Op; 17] = [
        Op::SramRead,
        Op::SramWrite,
        Op::FramRead,
        Op::FramWrite,
        Op::Alu,
        Op::Incr,
        Op::Branch,
        Op::Mul,
        Op::FxpAdd,
        Op::FxpMul,
        Op::TaskTransition,
        Op::Boot,
        Op::DmaSetup,
        Op::DmaWord,
        Op::LeaSetup,
        Op::LeaMac,
        Op::Nop,
    ];

    /// The number of operation classes.
    pub const COUNT: usize = Self::ALL.len();

    /// Index of this class within [`Op::ALL`] (used for dense tables).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Op::SramRead => 0,
            Op::SramWrite => 1,
            Op::FramRead => 2,
            Op::FramWrite => 3,
            Op::Alu => 4,
            Op::Incr => 5,
            Op::Branch => 6,
            Op::Mul => 7,
            Op::FxpAdd => 8,
            Op::FxpMul => 9,
            Op::TaskTransition => 10,
            Op::Boot => 11,
            Op::DmaSetup => 12,
            Op::DmaWord => 13,
            Op::LeaSetup => 14,
            Op::LeaMac => 15,
            Op::Nop => 16,
        }
    }

    /// A short human-readable label (used by the experiment reports).
    pub fn label(self) -> &'static str {
        match self {
            Op::SramRead => "sram-read",
            Op::SramWrite => "sram-write",
            Op::FramRead => "fram-read",
            Op::FramWrite => "fram-write",
            Op::Alu => "add",
            Op::Incr => "increment",
            Op::Branch => "branch",
            Op::Mul => "multiply",
            Op::FxpAdd => "fxp-add",
            Op::FxpMul => "fxp-multiply",
            Op::TaskTransition => "task-transition",
            Op::Boot => "boot",
            Op::DmaSetup => "dma-setup",
            Op::DmaWord => "dma-word",
            Op::LeaSetup => "lea-setup",
            Op::LeaMac => "lea-mac",
            Op::Nop => "nop",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The cost of a single operation: CPU cycles and energy in picojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Cost {
    /// CPU cycles consumed (determines live time at the device clock).
    pub cycles: u32,
    /// Energy consumed, in picojoules (determines intermittence behaviour).
    pub energy_pj: u64,
}

impl Cost {
    /// Creates a cost entry.
    pub const fn new(cycles: u32, energy_pj: u64) -> Self {
        Cost { cycles, energy_pj }
    }
}

/// Per-operation cost table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostTable {
    costs: [Cost; Op::COUNT],
}

/// Baseline CPU energy per active cycle in picojoules, including instruction
/// fetch and decode. ~1.2 mW at 16 MHz ⇒ 75 pJ/cycle.
pub const ENERGY_PER_CYCLE_PJ: u64 = 75;

/// Fraction of per-cycle energy attributable to instruction fetch/decode
/// (§10 of the paper estimates ~40% for SONIC). Informational: used by the
/// future-architecture analysis in the experiment reports.
pub const FETCH_DECODE_FRACTION: f64 = 0.40;

const fn cyc(n: u32) -> Cost {
    Cost::new(n, n as u64 * ENERGY_PER_CYCLE_PJ)
}

const fn cyc_plus(n: u32, extra_pj: u64) -> Cost {
    Cost::new(n, n as u64 * ENERGY_PER_CYCLE_PJ + extra_pj)
}

impl CostTable {
    /// The calibrated MSP430FR5994 cost table.
    ///
    /// Sources for the shape of these numbers:
    /// - FRAM reads are wait-stated at 16 MHz (the FRAM array runs at
    ///   8 MHz), and FRAM writes cost substantially more energy than SRAM.
    /// - Integer multiplication uses the memory-mapped hardware multiplier:
    ///   "four instructions and nine cycles" (§10).
    /// - A fixed-point multiply is the hardware multiply plus the rounding
    ///   shift sequence.
    /// - DMA moves one word per cycle at lower energy than a CPU copy loop.
    /// - LEA retires one MAC per cycle while the CPU sleeps, so its energy
    ///   per MAC is well below a CPU cycle.
    pub fn msp430fr5994() -> Self {
        let mut costs = [Cost::default(); Op::COUNT];
        costs[Op::SramRead.index()] = cyc(1);
        costs[Op::SramWrite.index()] = cyc(1);
        costs[Op::FramRead.index()] = cyc_plus(2, 50);
        costs[Op::FramWrite.index()] = cyc_plus(4, 400);
        costs[Op::Alu.index()] = cyc(1);
        costs[Op::Incr.index()] = cyc(1);
        costs[Op::Branch.index()] = cyc(2);
        costs[Op::Mul.index()] = cyc(9);
        costs[Op::FxpAdd.index()] = cyc(1);
        costs[Op::FxpMul.index()] = cyc(34); // Q15 multiply routine: call/ret,
                                             // operand staging, 9-cycle HW
                                             // multiply, rounding shift
        costs[Op::TaskTransition.index()] = cyc_plus(120, 800); // incl. NV task-pointer update
        costs[Op::Boot.index()] = cyc_plus(2000, 20_000);
        costs[Op::DmaSetup.index()] = cyc(20);
        costs[Op::DmaWord.index()] = Cost::new(1, 45);
        costs[Op::LeaSetup.index()] = cyc(60);
        costs[Op::LeaMac.index()] = Cost::new(1, 30);
        costs[Op::Nop.index()] = cyc(1);
        CostTable { costs }
    }

    /// Returns the cost of `op`.
    #[inline]
    pub fn cost(&self, op: Op) -> Cost {
        self.costs[op.index()]
    }

    /// Overrides the cost of `op` (used by calibration experiments and
    /// what-if ablations).
    pub fn set_cost(&mut self, op: Op, cost: Cost) {
        self.costs[op.index()] = cost;
    }
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable::msp430fr5994()
    }
}

/// Full device specification: clock, memory geometry, cost table.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// CPU clock frequency in Hz.
    pub clock_hz: u64,
    /// Volatile SRAM capacity in 16-bit words (4 KB on the MSP430FR5994;
    /// this is also LEA's only addressable memory).
    pub sram_words: u32,
    /// Non-volatile FRAM capacity in 16-bit words (256 KB).
    pub fram_words: u32,
    /// Per-operation costs.
    pub costs: CostTable,
}

impl DeviceSpec {
    /// The TI MSP430FR5994 at 16 MHz: 4 KB SRAM, 256 KB FRAM.
    pub fn msp430fr5994() -> Self {
        DeviceSpec {
            clock_hz: 16_000_000,
            sram_words: 4 * 1024 / 2,
            fram_words: 256 * 1024 / 2,
            costs: CostTable::msp430fr5994(),
        }
    }

    /// A tiny spec for unit tests: 64-word SRAM, 4096-word FRAM, same costs.
    pub fn tiny() -> Self {
        DeviceSpec {
            clock_hz: 16_000_000,
            sram_words: 64,
            fram_words: 4096,
            costs: CostTable::msp430fr5994(),
        }
    }

    /// Converts a cycle count to seconds at this device's clock.
    #[inline]
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::msp430fr5994()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_indices_are_dense_and_unique() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn op_labels_are_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for op in Op::ALL {
            assert!(!op.label().is_empty());
            assert!(seen.insert(op.label()), "duplicate label {}", op.label());
            assert_eq!(format!("{op}"), op.label());
        }
    }

    #[test]
    fn fram_write_is_most_expensive_memory_op() {
        let t = CostTable::msp430fr5994();
        let fw = t.cost(Op::FramWrite).energy_pj;
        assert!(fw > t.cost(Op::FramRead).energy_pj);
        assert!(fw > t.cost(Op::SramWrite).energy_pj);
        assert!(fw > t.cost(Op::SramRead).energy_pj);
    }

    #[test]
    fn lea_mac_cheaper_than_cpu_multiply() {
        let t = CostTable::msp430fr5994();
        assert!(t.cost(Op::LeaMac).energy_pj < t.cost(Op::FxpMul).energy_pj / 5);
        assert!(t.cost(Op::LeaMac).cycles < t.cost(Op::FxpMul).cycles);
    }

    #[test]
    fn dma_word_cheaper_than_cpu_copy() {
        let t = CostTable::msp430fr5994();
        let cpu_copy = t.cost(Op::SramRead).energy_pj + t.cost(Op::SramWrite).energy_pj;
        assert!(t.cost(Op::DmaWord).energy_pj < cpu_copy);
    }

    #[test]
    fn set_cost_overrides() {
        let mut t = CostTable::msp430fr5994();
        t.set_cost(Op::Nop, Cost::new(5, 123));
        assert_eq!(t.cost(Op::Nop), Cost::new(5, 123));
    }

    #[test]
    fn spec_memory_geometry_matches_datasheet() {
        let s = DeviceSpec::msp430fr5994();
        assert_eq!(s.sram_words, 2048); // 4 KB
        assert_eq!(s.fram_words, 131_072); // 256 KB
        assert_eq!(s.clock_hz, 16_000_000);
    }

    #[test]
    fn cycles_to_secs_converts_at_clock() {
        let s = DeviceSpec::msp430fr5994();
        assert!((s.cycles_to_secs(16_000_000) - 1.0).abs() < 1e-12);
    }
}
