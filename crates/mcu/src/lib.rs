//! An MSP430FR5994-like device model for intermittent-computing research.
//!
//! This crate is the hardware substrate of the SONIC & TAILS reproduction.
//! The paper evaluates on a TI MSP430FR5994 microcontroller powered by an RF
//! energy harvester; this crate models the properties of that platform that
//! the paper's results depend on:
//!
//! - **A mixed volatile/non-volatile memory system.** 4 KB of SRAM that is
//!   *cleared on every power failure* and 256 KB of FRAM that persists, with
//!   distinct per-access cycle and energy costs ([`spec`], [`device`]).
//! - **Energy-metered execution.** Every load, store, ALU op, hardware
//!   multiply, task transition, DMA word, and LEA MAC drains a finite energy
//!   buffer; when the buffer empties the device browns out and all volatile
//!   state is lost ([`Device::consume`], [`PowerFailure`]). Inner loops
//!   charge whole bodies at a time — cycle- and energy-exact, brown-out op
//!   included — through the bundled-loop driver ([`bundle`],
//!   [`Device::run_shaped`], [`Device::run_bundled`], [`Site`],
//!   [`Step`]); task bodies with no durable effects before a commit run
//!   host-side and settle once ([`Device::run_tape`], [`Taped`]).
//! - **A capacitor-based power system.** Usable buffer energy follows
//!   `E = ½·C·(V_on² − V_off²)` and recharge time integrates the
//!   harvester's input-power *profile* — constant (the paper's RF setup),
//!   square-wave occlusion, or a cyclic recorded trace — from the
//!   device's current absolute time, producing the duty-cycled,
//!   intermittent execution the paper studies ([`power`],
//!   [`HarvestProfile`]).
//! - **Deterministic fault injection.** A [`FaultPlan`] forces brown-outs,
//!   torn stores, bit flips, and stuck-at cells at exact charged-op
//!   indices — continuous power included — so a crash-consistency harness
//!   can enumerate every op boundary ([`Device::arm_faults`],
//!   [`FaultKind`], [`BrownoutInfo`]), and ECC-style integrity guards let
//!   runtimes detect the data faults on read ([`Device::guard_word`],
//!   [`Device::verify_word`]). A first-access watch lands where a bit
//!   flip would and reports whether each watched word is next read or
//!   overwritten ([`Device::arm_watch`], [`FirstAccess`]), so a flip
//!   sweep need not run flips of dead words.
//! - **The LEA vector accelerator and DMA engine**, including LEA's
//!   restrictions that shape TAILS: it can only access SRAM, supports only
//!   dense fixed-point operations, and has no vector left-shift
//!   ([`Device::lea_fir`], [`Device::dma_fram_to_sram`]).
//! - **Fine-grained accounting** of cycles and energy per (region, phase,
//!   operation class), which regenerates the paper's time/energy breakdown
//!   figures ([`trace`]). Power failures are attributed to the region that
//!   was executing when the buffer emptied
//!   ([`trace::RegionReport::reboots`]), the raw signal behind per-layer
//!   "does not complete" (starvation) attribution.
//!
//! # Example
//!
//! ```
//! use mcu::{Device, DeviceSpec, Op, PowerSystem};
//!
//! // A continuously powered device: operations always succeed.
//! let mut dev = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::continuous());
//! let buf = dev.fram_alloc(16).unwrap();
//! dev.write(buf, 0, fxp::Q15::HALF).unwrap();
//! assert_eq!(dev.read(buf, 0).unwrap(), fxp::Q15::HALF);
//! assert!(dev.trace().total_energy_pj() > 0);
//! # let _ = dev.consume(Op::Alu);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod device;
pub mod power;
pub mod spec;
pub mod trace;

pub use bundle::{BundleOp, Charge, Iteration, OpBundle, Site, Step, Taped};
pub use device::{
    AllocError, BrownoutInfo, Device, FaultKind, FaultPlan, FirstAccess, FramBuf, FramWord, NvAddr,
    PowerFailure, SramBuf, SupplyDead, CORRUPTION_RETRY_LIMIT,
};
pub use power::{HarvestProfile, Harvester, PowerSystem};
pub use spec::{Cost, CostTable, DeviceSpec, Op};
pub use trace::{OpStat, Phase, RegionId, Trace, TraceReport};
