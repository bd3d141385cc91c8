//! Drivers for every evaluation figure and table.

use crate::report::{ratio, save_csv, secs, starved_label, FleetReport, Table};
use dnn::data::Dataset;
use dnn::model::Model;
use dnn::train::TrainConfig;
use genesis::fleet::{choose_measured, fleet_score, FleetScoreConfig};
use genesis::imp::{sweep_accuracy, WILDLIFE};
use genesis::search::{choose, sweep, EvalContext, SearchSpace};
use mcu::{CostTable, DeviceSpec, HarvestProfile, Op, PowerSystem};
use models::{trained, Network, TrainedNetwork};
use rand::{Rng, SeedableRng};
use sonic::exec::{Backend, InferenceOutcome, TailsConfig};
use sonic::experiment::{run_experiment_observed, ExperimentConfig};
use sonic::fleet::{run_fleet, FleetInput, FleetJob};
use std::sync::Mutex;

/// Figs. 1 and 2: IMpJ vs accuracy for the wildlife-monitoring case study.
pub fn fig_imp(result_only: bool) -> Table {
    let pts = sweep_accuracy(&WILDLIFE, 10, result_only);
    let mut t = Table::new(&["accuracy", "always-send", "ideal", "naive", "SONIC&TAILS"]);
    for p in &pts {
        t.row(vec![
            format!("{:.1}", p.accuracy),
            format!("{:.2}", p.baseline),
            format!("{:.2}", p.ideal),
            format!("{:.2}", p.naive),
            format!("{:.2}", p.sonic_tails),
        ]);
    }
    let name = if result_only { "fig02" } else { "fig01" };
    save_csv(name, &t);
    t
}

/// Key headline ratios from the Fig. 1 / Fig. 2 analysis, at the given
/// accuracy.
pub fn imp_headlines(result_only: bool, accuracy: f64) -> String {
    let pts = sweep_accuracy(&WILDLIFE, 100, result_only);
    let i = ((accuracy * 100.0).round() as usize).min(100);
    let p = &pts[i];
    format!(
        "at accuracy {:.2}: S&T/baseline = {}, S&T/naive = {}, ideal/S&T = {}",
        p.accuracy,
        ratio(p.sonic_tails / p.baseline),
        ratio(p.sonic_tails / p.naive),
        ratio(p.ideal / p.sonic_tails),
    )
}

/// The reduced GENESIS evaluation context shared by the Fig. 4/5 sweep
/// and the fleet-scored re-ranking: small dataset, short retraining, so
/// the benches complete in minutes.
fn reduced_ctx<'a>(
    network: Network,
    train: &'a Dataset,
    test: &'a Dataset,
    costs: &'a CostTable,
) -> EvalContext<'a> {
    EvalContext {
        train,
        test,
        retrain: TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
        // 128 K words of FRAM minus runtime reserve.
        fram_budget_words: 125_000,
        costs,
        interesting_class: network.interesting_class(),
        app: WILDLIFE,
    }
}

/// The reduced sweep grid (8 configurations; same axes as Fig. 4). The
/// compressed corner mirrors the Table-2 recipe (separated convolutions,
/// heavily pruned FC layers), so the frontier contains plans that
/// actually deploy on the 256 KB device alongside ones that only the
/// analytic FRAM model believes fit.
fn reduced_space() -> SearchSpace {
    SearchSpace {
        conv_seps: vec![None, Some((4, 4))],
        conv_densities: vec![1.0, 0.15],
        fc_ranks: vec![None],
        fc_densities: vec![1.0, 0.04],
    }
}

/// GENESIS compresses a *trained* network (§5.2): warm the base up
/// before sweeping so separation/pruning transfer real structure.
fn reduced_base(network: Network, train: &Dataset) -> Model {
    let mut base = network.base_model(7);
    dnn::train::train(
        &mut base,
        train,
        &TrainConfig {
            epochs: 3,
            lr: 0.01,
            ..TrainConfig::default()
        },
    );
    base
}

/// Figs. 4 and 5 + the GENESIS choice, for one network. Uses a reduced
/// sweep (small dataset, short retraining) so the bench completes in
/// minutes; the Pareto/choice *shape* is what the paper's figures show.
pub fn fig_genesis(network: Network) -> (Table, Table, String) {
    let (train, test) = network.datasets(300, 42);
    let costs = CostTable::msp430fr5994();
    let ctx = reduced_ctx(network, &train, &test, &costs);
    let base = reduced_base(network, &train);
    let results = sweep(&base, &reduced_space(), &ctx);

    let mut fig4 = Table::new(&[
        "config",
        "technique",
        "MACs",
        "fram-words",
        "feasible",
        "accuracy",
        "pareto",
    ]);
    for r in &results {
        fig4.row(vec![
            r.label.clone(),
            r.technique.label().to_string(),
            r.macs.to_string(),
            r.fram_words.to_string(),
            r.feasible.to_string(),
            format!("{:.3}", r.accuracy),
            r.pareto.to_string(),
        ]);
    }
    save_csv(&format!("fig04-{}", network.label()), &fig4);

    let mut fig5 = Table::new(&["config", "E_infer(mJ)", "tp", "tn", "IMpJ", "feasible"]);
    for r in &results {
        fig5.row(vec![
            r.label.clone(),
            format!("{:.3}", r.e_infer_mj),
            format!("{:.3}", r.tp),
            format!("{:.3}", r.tn),
            format!("{:.3}", r.impj),
            r.feasible.to_string(),
        ]);
    }
    save_csv(&format!("fig05-{}", network.label()), &fig5);

    let chosen = choose(&results)
        .map(|c| {
            format!(
                "chosen: {} (IMpJ {:.3}, accuracy {:.3})",
                c.label, c.impj, c.accuracy
            )
        })
        .unwrap_or_else(|| "no feasible configuration".to_string());
    (fig4, fig5, chosen)
}

/// Fleet-scored GENESIS (ROADMAP "Fleet-driven GENESIS"): the analytic
/// sweep marks the Pareto frontier, then every feasible frontier plan is
/// *deployed* — compressed, quantized, flashed, and run through each
/// `(backend, power)` scenario over `inputs` test-set readings — and
/// re-ranked on the measured numbers. The (expensive) train + sweep
/// stage runs once; only the cheap fleet scoring repeats per scenario.
/// Each returned entry is the scenario's analytic-vs-measured table
/// (non-completing plans carry their per-layer DNC starvation
/// histogram) plus a one-line choice comparison.
pub fn genesis_fleet(
    network: Network,
    scenarios: &[(Backend, PowerSystem)],
    inputs: usize,
) -> Vec<(Table, String)> {
    let (train, test) = network.datasets(300, 42);
    let costs = CostTable::msp430fr5994();
    let ctx = reduced_ctx(network, &train, &test, &costs);
    let base = reduced_base(network, &train);
    let results = sweep(&base, &reduced_space(), &ctx);
    scenarios
        .iter()
        .map(|(backend, power)| {
            genesis_fleet_scenario(network, &results, &ctx, backend, power, inputs)
        })
        .collect()
}

/// One fleet-scored scenario over an existing sweep (see
/// [`genesis_fleet`]).
fn genesis_fleet_scenario(
    network: Network,
    results: &[genesis::ConfigResult],
    ctx: &EvalContext<'_>,
    backend: &Backend,
    power: &PowerSystem,
    inputs: usize,
) -> (Table, String) {
    let cfg = FleetScoreConfig {
        spec: DeviceSpec::msp430fr5994(),
        power: power.clone(),
        backend: *backend,
        inputs,
        replicas: 1,
    };
    let scored = fleet_score(results, ctx, &cfg);

    let mut t = Table::new(&[
        "config",
        "analytic-acc",
        "analytic-IMpJ",
        "meas-acc",
        "DNC-rate",
        "mean-E(mJ)",
        "p95-t(s)",
        "meas-IMpJ",
        "starved-in",
    ]);
    for s in &scored {
        t.row(vec![
            s.label.clone(),
            format!("{:.3}", s.analytic_accuracy),
            format!("{:.4}", s.analytic_impj),
            format!("{:.3}", s.measured_accuracy),
            format!("{:.2}", s.dnc_rate),
            format!("{:.3}", s.mean_energy_mj),
            s.p95_total_secs.map(secs).unwrap_or_else(|| "-".into()),
            format!("{:.4}", s.measured_impj),
            // A plan the device could not even be flashed with (the
            // analytic FRAM check missed the runtime reserve) is its own
            // kind of failure.
            if s.deploy_error.is_some() {
                "no-fit(FRAM)".to_string()
            } else {
                starved_label(s.starved())
            },
        ]);
    }
    save_csv(
        &format!(
            "genesis-fleet-{}-{}-{}",
            network.label(),
            backend.label(),
            power.label()
        ),
        &t,
    );

    let analytic = choose(results)
        .map(|c| c.label.clone())
        .unwrap_or_else(|| "none".into());
    let measured = choose_measured(&scored)
        .map(|s| {
            format!(
                "{} (meas-IMpJ {:.4}, DNC {:.0}%)",
                s.label,
                s.measured_impj,
                s.dnc_rate * 100.0
            )
        })
        .unwrap_or_else(|| "none".into());
    let summary = format!(
        "analytic choice: {analytic} | measured choice ({} on {power}): {measured}",
        backend.label()
    );
    (t, summary)
}

/// Table 2: the deployed networks — layer inventory, compression, size,
/// accuracy.
pub fn table2(nets: &[TrainedNetwork]) -> Table {
    let mut t = Table::new(&[
        "network",
        "layer",
        "deployed",
        "params(words)",
        "accuracy(q)",
        "paper-acc",
    ]);
    for tn in nets {
        let mut shape = tn.qmodel.input_shape.clone();
        for l in &tn.qmodel.layers {
            let out = l.output_shape(&shape);
            let desc = match l {
                dnn::quant::QLayer::Conv(c) => format!(
                    "conv {}x{}x{}x{}{}",
                    c.dims[0],
                    c.dims[1],
                    c.dims[2],
                    c.dims[3],
                    if c.sparse.is_some() { " (sparse)" } else { "" }
                ),
                dnn::quant::QLayer::Dense(d) => format!(
                    "fc {}x{}{}",
                    d.dims[0],
                    d.dims[1],
                    if d.sparse.is_some() { " (sparse)" } else { "" }
                ),
                dnn::quant::QLayer::Pool(p) => format!("pool {}x{}", p.kh, p.kw),
                dnn::quant::QLayer::Relu => "relu".to_string(),
                dnn::quant::QLayer::Flatten => "flatten".to_string(),
            };
            let words = l.param_words();
            if words > 0 {
                t.row(vec![
                    tn.network.label().to_string(),
                    desc.clone(),
                    desc,
                    words.to_string(),
                    format!("{:.3}", tn.accuracy),
                    format!("{:.3}", tn.network.paper_accuracy()),
                ]);
            }
            shape = out;
        }
    }
    save_csv("table2", &t);
    t
}

/// Seed for fleet input selection; fixed so every harness invocation
/// evaluates the same population.
pub const FLEET_SEED: u64 = 0xF1EE7;

/// Number of test inputs per fleet cell: `FLEET_INPUTS` env override,
/// default 8 (the paper-suite acceptance floor).
pub fn fleet_inputs_count() -> usize {
    std::env::var("FLEET_INPUTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(8)
}

/// Draws `n` seeded test-set inputs for a fleet run. The first input is
/// always test index 0 (the input the historical single-run harness
/// used); the rest are a seeded uniform sample of the test set.
pub fn fleet_inputs(tn: &TrainedNetwork, n: usize, seed: u64) -> Vec<FleetInput> {
    // Mix the network label into the seed (FNV-1a) so each network
    // samples its own input population.
    let label_hash = tn
        .network
        .label()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        });
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ label_hash);
    (0..n)
        .map(|k| {
            let i = if k == 0 {
                0
            } else {
                rng.gen_range(0..tn.test.len())
            };
            FleetInput {
                input: tn.qmodel.quantize_input(&tn.test.input(i)),
                label: Some(tn.test.label(i)),
            }
        })
        .collect()
}

/// The power systems for the extended fleet evaluation: the paper suite
/// plus two time-varying harvest scenarios on the 1 mF buffer — a
/// square-wave occlusion (transmitter blocked half the time) and a
/// seeded pseudo-random occlusion trace.
pub fn fleet_powers() -> Vec<PowerSystem> {
    let mut powers = PowerSystem::paper_suite().to_vec();
    powers.push(PowerSystem::harvested_with(
        1e-3,
        HarvestProfile::Square {
            high_w: mcu::power::RF_HARVEST_UW * 1e-6,
            low_w: 0.0,
            period_s: 2.0,
            duty: 0.5,
        },
    ));
    powers.push(PowerSystem::harvested_with(
        1e-3,
        HarvestProfile::seeded_occlusion(mcu::power::RF_HARVEST_UW * 1e-6, 4.0, 8, FLEET_SEED),
    ));
    powers
}

/// The bundled adversarial flicker-burst harvest preset
/// (`data/harvest/flicker_burst.csv`): millisecond on/off chatter near
/// the buffer's recharge timescale, irregular stutter, a multi-second
/// blackout, and one strong recovery burst — built to maximize reboots
/// per unit of forward progress. Paired with the 1 mF buffer.
pub fn flicker_power() -> PowerSystem {
    let profile =
        HarvestProfile::piecewise_from_csv(include_str!("../../../data/harvest/flicker_burst.csv"))
            .expect("bundled flicker preset must parse");
    PowerSystem::harvested_with(1e-3, profile)
}

/// Extra named power scenarios for the fleet bench, selected by the
/// `FLEET_SCENARIO` environment variable (comma-separated names). The
/// default bench run (variable unset) uses [`fleet_powers`] alone, so
/// its digest is independent of the scenarios bundled here.
pub fn named_scenario(name: &str) -> Option<PowerSystem> {
    match name.trim().to_lowercase().as_str() {
        "flicker" => Some(flicker_power()),
        "burst" => Some(burst_power()),
        "fading" => Some(fading_power()),
        "solar" => Some(solar_power()),
        _ => None,
    }
}

/// The `burst` scenario: the paper's 150 µW RF transmitter polling on a
/// 25% duty cycle (0.5 s bursts every 2 s), on the 1 mF buffer — the
/// parameterized [`HarvestProfile::burst_duty`] generator rather than a
/// bundled CSV.
pub fn burst_power() -> PowerSystem {
    PowerSystem::harvested_with(
        1e-3,
        HarvestProfile::burst_duty(mcu::power::RF_HARVEST_UW * 1e-6, 2.0, 0.25),
    )
}

/// The `fading` scenario: a wearable harvester walking away from a
/// 600 µW (at the 1 m reference) transmitter out to 3 m and back every
/// 8 s, received power following the inverse square of distance
/// ([`HarvestProfile::fading_rf`]), on the 1 mF buffer. The far point
/// fades to 1/9th of the reference power — around the paper's 67 µW
/// weak-RF operating point.
pub fn fading_power() -> PowerSystem {
    PowerSystem::harvested_with(
        1e-3,
        HarvestProfile::fading_rf(4.0 * mcu::power::RF_HARVEST_UW * 1e-6, 3.0, 8.0, 16),
    )
}

/// The `solar` scenario: the bundled indoor-solar diurnal trace
/// (`data/harvest/indoor_solar_diurnal.csv`) — a desk-mounted PV cell
/// over one 24 h office day, ~0.5 µW overnight up to a 250 µW midday
/// peak — on the 1 mF buffer. Where the RF presets stress millisecond
/// flicker, this one stresses the other extreme: multi-hour outages
/// with slow, smooth recoveries.
pub fn solar_power() -> PowerSystem {
    let profile = HarvestProfile::piecewise_from_csv(include_str!(
        "../../../data/harvest/indoor_solar_diurnal.csv"
    ))
    .expect("bundled indoor-solar preset must parse");
    PowerSystem::harvested_with(1e-3, profile)
}

/// One Fig. 9 cell: a single inference of `net` with `backend` on
/// `power`, executed through the fleet engine (a 1×1×1 fleet).
pub fn run_cell(tn: &TrainedNetwork, backend: &Backend, power: PowerSystem) -> InferenceOutcome {
    let job = FleetJob {
        qmodel: &tn.qmodel,
        spec: DeviceSpec::msp430fr5994(),
        inputs: fleet_inputs(tn, 1, FLEET_SEED),
        backends: vec![*backend],
        powers: vec![power],
        replicas: 1,
        faults: None,
    };
    let mut cells = run_fleet(&job);
    cells.remove(0).runs.remove(0).outcome
}

/// Fig. 9, population edition: `inputs_per_cell` test inputs through
/// every (network, backend, power system) cell via the experiment
/// service — per-run records stream to
/// `target/experiments/fig09-<net>/` as shards complete, and the
/// summaries are the service's merged per-shard aggregates (bit-equal
/// to the in-RAM fleet path). The table reports per-cell accuracy,
/// completion (DNC) rate, and latency/energy/reboot distributions; the
/// raw vector carries each cell's *first* run (test input 0 — the
/// historical single-run cell) for reuse by Figs. 10–12, collected from
/// the service's run observer.
pub fn fig9(
    nets: &[TrainedNetwork],
    powers: &[PowerSystem],
    backends: &[Backend],
    inputs_per_cell: usize,
) -> (Table, Vec<(String, String, String, InferenceOutcome)>) {
    let spec = DeviceSpec::msp430fr5994();
    let mut report = FleetReport::default();
    let mut raw = Vec::new();
    for tn in nets {
        let job = FleetJob {
            qmodel: &tn.qmodel,
            spec: spec.clone(),
            inputs: fleet_inputs(tn, inputs_per_cell, FLEET_SEED),
            backends: backends.to_vec(),
            powers: powers.to_vec(),
            replicas: fleet_replicas(),
            faults: None,
        };
        let mut cfg =
            ExperimentConfig::new(&format!("fig09-{}", tn.network.label().to_lowercase()));
        cfg.root = crate::report::experiments_dir();
        // Figs. 10–12 dissect each cell's first run (full traces, which
        // records don't carry): lift them out of the worker threads as
        // they happen instead of re-running cells.
        let firsts: Mutex<Vec<((usize, usize), InferenceOutcome)>> = Mutex::new(Vec::new());
        let outcome = run_experiment_observed(&job, &cfg, &|shard, run| {
            if run.input_index == 0 {
                firsts.lock().expect("fig9 observer poisoned").push((
                    (shard.power_index, shard.backend_index),
                    run.outcome.clone(),
                ));
            }
        })
        .unwrap_or_else(|e| panic!("fig09 experiment: {e}"));
        let mut firsts = firsts.into_inner().expect("fig9 observer poisoned");
        firsts.sort_by_key(|&(key, _)| key);
        for (cell, (_, first)) in outcome.cells.iter().zip(firsts) {
            report
                .rows
                .push((tn.network.label().to_string(), cell.summary.clone()));
            raw.push((
                tn.network.label().to_string(),
                cell.power.clone(),
                cell.backend.clone(),
                first,
            ));
        }
    }
    let t = report.table();
    save_csv("fig09", &t);
    (t, raw)
}

/// Replica devices per fleet cell, from `FLEET_REPLICAS` (default 1 —
/// the historical single-deployment cells, whose digests are pinned).
pub fn fleet_replicas() -> usize {
    std::env::var("FLEET_REPLICAS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Geometric-mean slowdown vs the baseline on continuous power (the §9.1
/// headline numbers).
pub fn continuous_ratios(raw: &[(String, String, String, InferenceOutcome)]) -> Table {
    let mut t = Table::new(&["impl", "gmean time vs Base", "paper"]);
    let nets: Vec<String> = {
        let mut v: Vec<String> = raw.iter().map(|r| r.0.clone()).collect();
        v.dedup();
        v
    };
    let lookup = |net: &str, imp: &str| -> Option<f64> {
        raw.iter()
            .find(|(n, p, i, _)| n == net && p == "Cont" && i == imp)
            .filter(|(_, _, _, o)| o.completed)
            .map(|(_, _, _, o)| o.trace.live_cycles as f64)
    };
    let paper: &[(&str, &str)] = &[
        ("Tile-8", "13.4x slower"),
        ("Tile-32", "~10x slower"),
        ("Tile-128", "~7.5x slower"),
        ("SONIC", "1.45x slower"),
        ("TAILS", "1.2x faster"),
    ];
    for (imp, paper_note) in paper {
        let mut prod = 1.0f64;
        let mut n = 0u32;
        for net in &nets {
            if let (Some(x), Some(b)) = (lookup(net, imp), lookup(net, "Base")) {
                prod *= x / b;
                n += 1;
            }
        }
        let g = if n > 0 {
            prod.powf(1.0 / n as f64)
        } else {
            f64::NAN
        };
        t.row(vec![imp.to_string(), ratio(g), paper_note.to_string()]);
    }
    save_csv("fig09-ratios", &t);
    t
}

/// Fig. 10: kernel vs control cycles per region, per implementation
/// (continuous power).
pub fn fig10(raw: &[(String, String, String, InferenceOutcome)]) -> Table {
    let mut t = Table::new(&["network", "impl", "region", "kernel(Mcyc)", "control(Mcyc)"]);
    for (net, power, imp, out) in raw {
        if power != "Cont" || !["Base", "Tile-32", "SONIC", "TAILS"].contains(&imp.as_str()) {
            continue;
        }
        for r in &out.trace.regions {
            if r.kernel_cycles + r.control_cycles == 0 {
                continue;
            }
            t.row(vec![
                net.clone(),
                imp.clone(),
                r.name.clone(),
                format!("{:.3}", r.kernel_cycles as f64 / 1e6),
                format!("{:.3}", r.control_cycles as f64 / 1e6),
            ]);
        }
    }
    save_csv("fig10", &t);
    t
}

/// Fig. 11: inference energy with the 1 mF capacitor.
pub fn fig11(raw: &[(String, String, String, InferenceOutcome)]) -> Table {
    let mut t = Table::new(&["network", "impl", "completed", "energy(mJ)"]);
    for (net, power, imp, out) in raw {
        if power != "1mF" {
            continue;
        }
        t.row(vec![
            net.clone(),
            imp.clone(),
            if out.completed {
                "yes".into()
            } else {
                "DNC".into()
            },
            format!("{:.3}", out.energy_mj()),
        ]);
    }
    save_csv("fig11", &t);
    t
}

/// Fig. 12: SONIC's energy by operation class per region, with the
/// paper's category mapping (loads, stores, adds, increments, multiplies,
/// fixed-point ops, task transitions, loop-index FRAM writes).
pub fn fig12(raw: &[(String, String, String, InferenceOutcome)]) -> Table {
    let mut t = Table::new(&["network", "region", "category", "energy(uJ)", "share"]);
    for (net, power, imp, out) in raw {
        if power != "Cont" || imp != "SONIC" {
            continue;
        }
        let total = out.trace.total_energy_pj as f64;
        for r in &out.trace.regions {
            let mut cat = |name: &str, e_pj: f64| {
                if e_pj > 0.0 {
                    t.row(vec![
                        net.clone(),
                        r.name.clone(),
                        name.to_string(),
                        format!("{:.2}", e_pj / 1e6),
                        format!("{:.1}%", 100.0 * e_pj / total),
                    ]);
                }
            };
            let by_op = |op: Op| -> f64 {
                r.energy_by_op
                    .iter()
                    .find(|(o, _)| *o == op)
                    .map(|(_, e)| *e as f64)
                    .unwrap_or(0.0)
            };
            cat("load", by_op(Op::FramRead) + by_op(Op::SramRead));
            // Control-phase FRAM writes are the loop-index writes (§9.4).
            let index_writes = r.index_write_energy_pj as f64;
            cat(
                "store",
                by_op(Op::FramWrite) + by_op(Op::SramWrite) - index_writes,
            );
            cat("index-writes", index_writes);
            cat("add", by_op(Op::Alu));
            cat("increment", by_op(Op::Incr));
            cat("multiply", by_op(Op::Mul));
            cat("fxp-add", by_op(Op::FxpAdd));
            cat("fxp-multiply", by_op(Op::FxpMul));
            cat("task-transition", by_op(Op::TaskTransition));
            cat("branch", by_op(Op::Branch));
        }
    }
    save_csv("fig12", &t);
    t
}

/// Whole-run SONIC shares: control instructions and loop-index FRAM
/// writes as fractions of total energy (§9.4 headline: 26% and 14%).
pub fn sonic_shares(out: &InferenceOutcome) -> (f64, f64) {
    let total = out.trace.total_energy_pj as f64;
    let mut control = 0.0;
    let mut index_writes = 0.0;
    for r in &out.trace.regions {
        let iw = r.index_write_energy_pj as f64;
        index_writes += iw;
        control += r.control_energy_pj as f64 - iw;
    }
    (control / total, index_writes / total)
}

/// §10 analysis: where a better intermittent architecture could save
/// energy — instruction fetch/decode (the paper estimates SONIC spends
/// ~40% there) and the FRAM loop-index writes that targeted hardware
/// support (e.g. just-in-time checkpointing caches) could eliminate.
pub fn future_architecture(out: &InferenceOutcome) -> Table {
    let total = out.trace.total_energy_pj as f64;
    let (_, idx_share) = sonic_shares(out);
    let fetch_decode = mcu::spec::FETCH_DECODE_FRACTION;
    let mut t = Table::new(&["opportunity", "share of SONIC energy", "paper estimate"]);
    t.row(vec![
        "instruction fetch/decode".into(),
        format!("{:.1}% (modelled)", fetch_decode * 100.0),
        "~40%".into(),
    ]);
    t.row(vec![
        "FRAM loop-index writes".into(),
        format!("{:.1}% (measured)", idx_share * 100.0),
        "~14%".into(),
    ]);
    t.row(vec![
        "total energy".into(),
        format!("{:.3} mJ", total * 1e-9),
        "-".into(),
    ]);
    save_csv("future-architecture", &t);
    t
}

/// The §9.1 TAILS ablation: LEA and DMA contributions.
pub fn ablation_tails(tn: &TrainedNetwork) -> Table {
    let spec = DeviceSpec::msp430fr5994();
    let variants = [
        (
            "TAILS",
            TailsConfig {
                use_lea: true,
                use_dma: true,
            },
        ),
        (
            "no-LEA",
            TailsConfig {
                use_lea: false,
                use_dma: true,
            },
        ),
        (
            "no-DMA",
            TailsConfig {
                use_lea: true,
                use_dma: false,
            },
        ),
        (
            "software",
            TailsConfig {
                use_lea: false,
                use_dma: false,
            },
        ),
    ];
    let mut t = Table::new(&["variant", "live(s)", "energy(mJ)", "vs TAILS"]);
    let mut base_cycles = None;
    for (name, cfg) in variants {
        let out = run_cell(tn, &Backend::Tails(cfg), PowerSystem::continuous());
        let cycles = out.trace.live_cycles as f64;
        let base = *base_cycles.get_or_insert(cycles);
        t.row(vec![
            name.to_string(),
            secs(out.live_secs(&spec)),
            format!("{:.3}", out.energy_mj()),
            ratio(cycles / base),
        ]);
    }
    save_csv("ablation-tails", &t);
    t
}

/// §6.2.2 ablation: sparse undo-logging vs loop-ordered buffering on the
/// sparse fully-connected layers.
pub fn ablation_sparse_undo(tn: &TrainedNetwork) -> Table {
    let spec = DeviceSpec::msp430fr5994();
    let mut t = Table::new(&["variant", "live(s)", "energy(mJ)", "vs undo-logging"]);
    let mut base = None;
    for (name, backend) in [
        ("sparse undo-logging", Backend::Sonic),
        ("loop-ordered buffering", Backend::SonicNoUndo),
    ] {
        let out = run_cell(tn, &backend, PowerSystem::continuous());
        let e = out.trace.live_cycles as f64;
        let b = *base.get_or_insert(e);
        t.row(vec![
            name.to_string(),
            secs(out.live_secs(&spec)),
            format!("{:.3}", out.energy_mj()),
            ratio(e / b),
        ]);
    }
    save_csv("ablation-sparse-undo", &t);
    t
}

/// Buffer-size sweep locating the "does not complete" crossover of each
/// implementation (the paper's Fig. 9b shows Tile-128 failing at 100 µF;
/// with this port's calibrated costs the same crossover lands at a
/// smaller buffer, and this sweep shows where).
pub fn dnc_crossover(tn: &TrainedNetwork) -> Table {
    let caps_uf = [20.0f64, 15.0, 10.0, 5.0, 2.0];
    let mut t = Table::new(&["impl", "20uF", "15uF", "10uF", "5uF", "2uF"]);
    for backend in Backend::paper_suite() {
        let mut row = vec![backend.label()];
        for cap in caps_uf {
            let out = run_cell(tn, &backend, PowerSystem::harvested(cap * 1e-6));
            row.push(if out.completed {
                "yes".into()
            } else {
                "DNC".into()
            });
        }
        t.row(row);
    }
    save_csv("fig09-crossover", &t);
    t
}

/// Fig. 6: the loop-continuation vs task-tiling demonstration — a long
/// dot-product loop on a tiny energy buffer.
pub fn fig6() -> Table {
    use intermittent::alpaca::{add_tiled_loop, AlpacaRt};
    use intermittent::sched::{run, SchedulerConfig};
    use intermittent::task::{TaskGraph, Transition};
    use mcu::Device;

    let spec = DeviceSpec::msp430fr5994();
    // A buffer (~8 uJ) that fits ~8 iterations of work per charge: Tile-5
    // fits with waste, Tile-12 exceeds the buffer and never terminates.
    let power = PowerSystem::harvested(64e-6);
    let iters = 40u32;
    let work_per_iter = 400u64; // FxpMul ops, ~1 uJ per iteration

    let mut t = Table::new(&["strategy", "completed", "reboots", "live(Mcyc)"]);

    for tile in [5u32, 12] {
        let mut dev = Device::new(spec.clone(), power.clone());
        let idx = dev.fram_alloc_word().unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        let mut g = TaskGraph::new();
        add_tiled_loop(
            &mut g,
            &format!("tile-{tile}"),
            idx.addr(),
            iters,
            tile,
            Transition::Done,
            move |t, _rt, _i| t.op_n(Op::FxpMul, work_per_iter),
        );
        let r = run(&mut g, &mut rt, &mut dev, 0, &SchedulerConfig::task_based());
        t.row(vec![
            format!("Tile-{tile}"),
            if r.is_ok() {
                "yes".into()
            } else {
                "non-termination".into()
            },
            dev.trace().reboots().to_string(),
            format!("{:.3}", dev.trace().live_cycles() as f64 / 1e6),
        ]);
    }

    // SONIC-style loop continuation: index written directly to FRAM.
    let mut dev = Device::new(spec, power);
    let idx = dev.fram_alloc_word().unwrap();
    let mut g: TaskGraph<()> = TaskGraph::new();
    g.add("loop-continuation", move |dev, _| loop {
        let i = dev.load_word(idx)?;
        dev.consume(Op::Branch)?;
        if i as u32 >= iters {
            dev.store_word(idx, 0)?;
            return Ok(Transition::Done);
        }
        dev.consume_n(Op::FxpMul, work_per_iter)?;
        dev.store_word(idx, i + 1)?;
        dev.mark_progress();
    });
    let r = run(
        &mut g,
        &mut (),
        &mut dev,
        0,
        &intermittent::sched::SchedulerConfig::task_based(),
    );
    t.row(vec![
        "SONIC (loop continuation)".to_string(),
        if r.is_ok() {
            "yes".into()
        } else {
            "non-termination".into()
        },
        dev.trace().reboots().to_string(),
        format!("{:.3}", dev.trace().live_cycles() as f64 / 1e6),
    ]);
    save_csv("fig06", &t);
    t
}

/// Loads (or trains) the three paper networks.
pub fn paper_networks() -> Vec<TrainedNetwork> {
    Network::ALL.iter().map(|n| trained(*n)).collect()
}

/// Fast subset for unit tests: power systems of Fig. 9b.
pub fn fig9_powers() -> Vec<PowerSystem> {
    PowerSystem::paper_suite().to_vec()
}

/// The Fig. 9 implementations.
pub fn fig9_backends() -> Vec<Backend> {
    Backend::paper_suite()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imp_tables_have_eleven_rows() {
        let t = fig_imp(false);
        assert_eq!(t.render().lines().count(), 13); // header + sep + 11
        let headline = imp_headlines(true, 0.99);
        assert!(headline.contains("S&T/baseline"));
    }

    #[test]
    fn fig6_shows_tiling_tradeoff() {
        // Tile-5 wastes work, Tile-12 needs more energy per task than the
        // buffer holds, and SONIC resumes mid-loop.
        let csv = fig6().to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(
            rows,
            [
                "Tile-5,yes,7,0.812",
                "Tile-12,non-termination,8,0.952",
                "SONIC (loop continuation),yes,5,0.599",
            ]
        );
    }

    #[test]
    fn solar_scenario_is_registered_and_diurnal() {
        let power = named_scenario("solar").expect("solar scenario registered");
        let p = power.profile().expect("solar is a harvested scenario");
        // Diurnal shape: dark at 3 am, peaked near noon, dim evening.
        assert!(p.power_at(3.0 * 3600.0) < 1e-6);
        assert!((p.power_at(12.5 * 3600.0) - 250e-6).abs() < 1e-9);
        assert!(p.power_at(20.0 * 3600.0) < 20e-6);
        // The cycle is a full day and averages to a daytime-harvest mean
        // well under the paper's 150 µW RF nominal.
        let avg = p.avg_power_w();
        assert!(avg > 20e-6 && avg < 120e-6, "avg {avg}");
        assert!(named_scenario("SOLAR").is_some(), "names are case-folded");
    }
}
