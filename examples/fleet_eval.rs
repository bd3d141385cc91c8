//! Fleet evaluation of the HAR wearable: a population of inferences per
//! (backend, power system) cell, over long-lived deployments, including
//! time-varying harvest power (square-wave occlusion, seeded
//! pseudo-random occlusion, and a recorded trace imported from CSV) and
//! per-layer DNC starvation attribution (the `starved-in` column) — run
//! through the resumable experiment service, which streams per-run
//! records to disk as shards complete.
//!
//! Run with: `cargo run --release --example fleet_eval`
//!
//! Flags (all optional):
//!
//! ```sh
//! cargo run --release --example fleet_eval -- \
//!     [--inputs N]        # test-set windows per cell (default 8)
//!     [--replicas R]      # replica devices per cell (default 1)
//!     [--experiment NAME] # experiment directory name (default fleet-eval)
//!     [--out DIR]         # experiments root (default target/experiments)
//!     [--resume]          # load sealed shards from a killed run
//!     [--max-shards K]    # stop after K shards (deterministic "kill")
//!     [--fault SPEC]      # arm an NVM fault on every run (repeatable)
//!     [my_trace.csv]      # recorded (duration_s, power_w) harvest trace
//! ```
//!
//! `--fault` specs (op indices are charged-op counts from each run's
//! start; word addresses are raw FRAM word indices):
//!
//! ```sh
//!     --fault flip:WORD:BIT@OP    # XOR bit BIT of FRAM word WORD at op OP
//!     --fault stuck:WORD:BIT:V@OP # cell bit sticks at V (0|1) from op OP
//!     --fault torn@OP             # brown-out at OP tears the in-flight store
//!     --fault brownout@OP         # plain injected brown-out at OP
//! ```
//!
//! With faults armed, the table gains `sdc` (completed runs whose output
//! diverged from the fault-free reference — silent data corruptions),
//! `corr-det` (guard detections), and `corrupted` (unrecoverable-
//! corruption aborts) columns, and the forensics dump below the table
//! includes per-run corruption records streamed from the shard files.
//!
//! The trace defaults to the bundled `data/harvest/office_rf_walkby.csv`;
//! see the README's "Harvest-trace CSV format" section for the format
//! rules (one `duration_s,power_w` segment per line, seconds and watts,
//! cycled forever). A killed run resumes bit-identically: re-invoke with
//! `--resume` and the same flags, and the final digest equals an
//! uninterrupted run's.

use sonic_tails::mcu::{DeviceSpec, FaultKind, FaultPlan, HarvestProfile, PowerSystem};
use sonic_tails::models::{trained, Network};
use sonic_tails::sonic::exec::Backend;
use sonic_tails::sonic::experiment::{run_experiment, ExperimentConfig};
use sonic_tails::sonic::fleet::{FleetInput, FleetJob};

struct Args {
    inputs: usize,
    replicas: usize,
    experiment: String,
    out: std::path::PathBuf,
    resume: bool,
    max_shards: Option<usize>,
    trace_path: String,
    faults: Vec<(u64, FaultKind)>,
}

/// Parses one `--fault` spec: `flip:WORD:BIT@OP`, `stuck:WORD:BIT:V@OP`,
/// `torn@OP`, or `brownout@OP`.
fn parse_fault(spec: &str) -> (u64, FaultKind) {
    let bad = || panic!("bad --fault spec {spec:?} (see the example's header comment)");
    let Some((kind, op)) = spec.rsplit_once('@') else {
        bad()
    };
    let op: u64 = op.parse().unwrap_or_else(|_| bad());
    let parts: Vec<&str> = kind.split(':').collect();
    let num = |s: &str| -> u32 { s.parse().unwrap_or_else(|_| bad()) };
    let fault = match parts.as_slice() {
        ["flip", w, b] => FaultKind::BitFlip {
            addr: sonic_tails::mcu::NvAddr::word(num(w)),
            bit: num(b) as u8,
        },
        ["stuck", w, b, v] => FaultKind::StuckAt {
            addr: sonic_tails::mcu::NvAddr::word(num(w)),
            bit: num(b) as u8,
            high: match *v {
                "0" => false,
                "1" => true,
                _ => bad(),
            },
        },
        ["torn"] => FaultKind::TornWrite,
        ["brownout"] => FaultKind::Brownout,
        _ => bad(),
    };
    (op, fault)
}

fn parse_args() -> Args {
    let mut args = Args {
        inputs: 8,
        replicas: 1,
        experiment: "fleet-eval".to_string(),
        out: std::path::PathBuf::from("target/experiments"),
        resume: false,
        max_shards: None,
        trace_path: "data/harvest/office_rf_walkby.csv".to_string(),
        faults: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| panic!("{flag} requires a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--inputs" => {
                args.inputs = value(&mut it, "--inputs")
                    .parse()
                    .expect("--inputs: not a number")
            }
            "--replicas" => {
                args.replicas = value(&mut it, "--replicas")
                    .parse()
                    .expect("--replicas: not a number")
            }
            "--experiment" => args.experiment = value(&mut it, "--experiment"),
            "--fault" => args.faults.push(parse_fault(&value(&mut it, "--fault"))),
            "--out" => args.out = value(&mut it, "--out").into(),
            "--resume" => args.resume = true,
            "--max-shards" => {
                args.max_shards = Some(
                    value(&mut it, "--max-shards")
                        .parse()
                        .expect("--max-shards: not a number"),
                )
            }
            other if !other.starts_with("--") => args.trace_path = other.to_string(),
            other => panic!("unknown flag {other} (see the example's header comment)"),
        }
    }
    assert!(args.replicas > 0, "--replicas must be at least 1");
    args
}

fn main() {
    let args = parse_args();
    let net = trained(Network::Har);
    let spec = DeviceSpec::msp430fr5994();
    let rf = 150e-6; // the paper's 150 µW RF harvest

    // A recorded harvest trace (ROADMAP "real harvest-trace import"):
    // the bundled office walk-by RF recording, or a user-supplied CSV.
    let recorded = HarvestProfile::piecewise_from_csv_file(&args.trace_path)
        .unwrap_or_else(|e| panic!("loading harvest trace: {e}"));
    println!(
        "recorded trace {}: {:.1} uW average harvest",
        args.trace_path,
        recorded.avg_power_w() * 1e6
    );

    // Test-set windows, run in order on each cell's deployments — the
    // sensor pipeline pattern: one flash, many inferences. With
    // `--replicas R`, the windows are sliced across R fielded sensors.
    let inputs: Vec<FleetInput> = (0..args.inputs)
        .map(|i| FleetInput {
            input: net.qmodel.quantize_input(&net.test.input(i)),
            label: Some(net.test.label(i)),
        })
        .collect();

    let job = FleetJob {
        qmodel: &net.qmodel,
        spec: spec.clone(),
        inputs,
        // Tile-128 rides along because its huge tasks starve on small
        // buffers: its DNCs demonstrate the per-layer attribution below.
        // Stateful is the progress-embedding backend: no control words
        // at all — recovery binary-searches the in-band tags, and its
        // `corr-det` column counts audit-scrubbed tag corruptions.
        backends: vec![
            Backend::Sonic,
            Backend::Tails(Default::default()),
            Backend::Tiled(128),
            Backend::Stateful,
        ],
        powers: vec![
            PowerSystem::continuous(),
            PowerSystem::cap_1mf(),
            // Small enough that one Tile-128 task outlives the buffer.
            PowerSystem::harvested(8e-6),
            // The transmitter is blocked half of every 2 s.
            PowerSystem::harvested_with(
                1e-3,
                HarvestProfile::Square {
                    high_w: rf,
                    low_w: 0.0,
                    period_s: 2.0,
                    duty: 0.5,
                },
            ),
            // A seeded pseudo-random occlusion trace (deterministic).
            PowerSystem::harvested_with(1e-3, HarvestProfile::seeded_occlusion(rf, 4.0, 8, 7)),
            // The recorded (imported) trace.
            PowerSystem::harvested_with(1e-3, recorded),
        ],
        replicas: args.replicas,
        faults: (!args.faults.is_empty()).then(|| FaultPlan::faults(args.faults.iter().copied())),
    };

    let cfg = ExperimentConfig {
        name: args.experiment.clone(),
        root: args.out.clone(),
        resume: args.resume,
        shard_budget: args.max_shards,
    };
    let outcome = run_experiment(&job, &cfg).unwrap_or_else(|e| panic!("experiment: {e}"));
    println!(
        "{} shards run, {} loaded from checkpoints, {} pending",
        outcome.executed_shards, outcome.loaded_shards, outcome.pending_shards
    );

    let faulted = job.faults.is_some();
    let fault_cols = if faulted {
        "sdc   corr-det  corrupted  "
    } else {
        ""
    };
    println!(
        "impl      power   runs  done  nonterm  {fault_cols}accuracy  p50-total(s)  p95-total(s)  mean-reboots  starved-in"
    );
    for cell in &outcome.cells {
        let s = &cell.summary;
        let fmt = |v: Option<f64>| v.map(|x| format!("{x:<12.4}")).unwrap_or("-".into());
        // The starvation histogram: each run that did not complete is
        // attributed to the layer (region) the device starved in.
        let starved = if s.starved.is_empty() {
            "-".to_string()
        } else {
            s.starved
                .iter()
                .map(|(name, n)| format!("{name}:{n}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        // Non-terminating runs (commit-loop livelock, not starvation)
        // get their own column: they are scheduler pathologies, and fold
        // very differently into a deployment story than a DNC.
        let nonterm = match (&s.non_termination_task, s.non_termination) {
            (Some(task), n) => format!("{n}({task})"),
            (None, _) => "0".to_string(),
        };
        let fault_vals = if faulted {
            format!(
                "{:<5} {:<9} {:<10} ",
                s.sdc, s.corruption_detected, s.corrupted_runs
            )
        } else {
            String::new()
        };
        println!(
            "{:<9} {:<7} {:<5} {:<5} {:<8} {}{:<9} {}  {}  {:<12.1}  {}",
            s.backend,
            s.power,
            s.runs,
            s.completed,
            nonterm,
            fault_vals,
            s.accuracy.map(|a| format!("{a:.3}")).unwrap_or("-".into()),
            fmt(s.total_secs.map(|t| t.p50)),
            fmt(s.total_secs.map(|t| t.p95)),
            s.reboots.map(|r| r.mean).unwrap_or(0.0),
            starved,
        );
    }
    // Brown-out forensics: every failed run records the exact charged op
    // the supply died on (index, op class, accounting phase, layer/task)
    // — replayed here from the streamed records, not from RAM.
    let mut header_printed = false;
    for cell in &outcome.cells {
        for rec in &cell.records {
            if let Some(b) = rec.failure.as_ref().and_then(|f| f.brownout.as_ref()) {
                if !header_printed {
                    println!("\nfinal brown-out of each DNC run:");
                    header_printed = true;
                }
                println!(
                    "  {:<9} {:<7} input {}: {b}",
                    cell.backend, cell.power, rec.input_index
                );
            }
        }
    }
    // Corruption forensics: detections, unrecoverable aborts, and silent
    // data corruptions per run — also replayed from streamed records.
    let mut corr_header = false;
    for cell in &outcome.cells {
        for rec in &cell.records {
            let corrupted = rec.failure.as_ref().and_then(|f| f.corrupted_region());
            if rec.corruption_detected == 0 && corrupted.is_none() && rec.sdc != Some(true) {
                continue;
            }
            if !corr_header {
                println!("\ncorruption forensics:");
                corr_header = true;
            }
            let verdict = match (corrupted, rec.sdc) {
                (Some(region), _) => format!("UNRECOVERABLE in {region}"),
                (None, Some(true)) => "SILENT WRONG OUTPUT".to_string(),
                _ => "detected and recovered".to_string(),
            };
            println!(
                "  {:<9} {:<7} input {}: {} detections, {verdict}",
                cell.backend, cell.power, rec.input_index, rec.corruption_detected
            );
        }
    }

    if outcome.complete {
        println!(
            "\nfleet digest {:#018x}: identical on every run, serial or parallel, \
             killed-and-resumed or not",
            outcome.digest
        );
    } else {
        println!(
            "\nexperiment partial ({} shards pending): re-run with --resume to finish",
            outcome.pending_shards
        );
    }
    println!("experiment records: {}", outcome.dir.display());
}
