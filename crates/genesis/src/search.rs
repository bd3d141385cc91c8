//! The GENESIS configuration sweep (paper §5.2–5.3).
//!
//! GENESIS "sweeps parameters for both separation and pruning across each
//! layer of the network, re-training the network after compression to
//! improve accuracy", prunes bad configurations early with a
//! median-stopping rule, builds the Pareto frontier of Fig. 4, and then
//! maps every configuration through the IMpJ model to pick the deployed
//! configuration (Fig. 5) — which is generally *not* the most accurate
//! one.
//!
//! The analytic ranking ([`choose`]) can be upgraded to a *measured* one:
//! [`fleet_score`] deploys every feasible frontier plan through a real
//! backend under the target harvest profile and [`choose_measured`]
//! ranks on measured accuracy / DNC rate / energy / latency, with
//! per-layer DNC starvation attribution (re-exported here from
//! [`crate::fleet`]).

use crate::energy::estimate_inference_mj;
use crate::imp::AppModel;
use crate::prune::prune_layer;
use crate::separate::{separate_conv, separate_dense};
use dnn::data::Dataset;
use dnn::layers::Layer;
use dnn::metrics::Confusion;
use dnn::model::Model;
use dnn::quant::{quantize, QModel};
use dnn::tensor::Tensor;
use dnn::train::{train, TrainConfig};
use mcu::CostTable;

pub use crate::fleet::{
    choose_measured, fleet_score, fleet_scored_digest, FleetScoreConfig, FleetScored,
};

/// Which compression techniques a configuration uses (the Fig. 4 legend).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Technique {
    /// The original network.
    Uncompressed,
    /// Separation (low-rank factorization) only.
    SeparateOnly,
    /// Pruning only.
    PruneOnly,
    /// Separation and pruning combined.
    Both,
}

impl Technique {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Technique::Uncompressed => "uncompressed",
            Technique::SeparateOnly => "separate-only",
            Technique::PruneOnly => "prune-only",
            Technique::Both => "separate+prune",
        }
    }
}

/// Global compression knobs defining one configuration.
///
/// Knobs apply uniformly to all compressible layers of their kind; the
/// final classifier layer is never compressed (as in Table 2, where the
/// last FC layer of every network is left intact).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanKnobs {
    /// Tucker-2 ranks for convolutions (`None` keeps them unfactored).
    pub conv_sep: Option<(usize, usize)>,
    /// Density kept in convolution weights (1.0 = no pruning).
    pub conv_density: f64,
    /// SVD rank for hidden fully-connected layers (`None` keeps them).
    pub fc_rank: Option<usize>,
    /// Density kept in fully-connected weights (1.0 = no pruning).
    pub fc_density: f64,
}

impl PlanKnobs {
    /// The identity configuration.
    pub fn uncompressed() -> Self {
        PlanKnobs {
            conv_sep: None,
            conv_density: 1.0,
            fc_rank: None,
            fc_density: 1.0,
        }
    }

    /// The technique class of this configuration.
    pub fn technique(&self) -> Technique {
        let separates = self.conv_sep.is_some() || self.fc_rank.is_some();
        let prunes = self.conv_density < 1.0 || self.fc_density < 1.0;
        match (separates, prunes) {
            (false, false) => Technique::Uncompressed,
            (true, false) => Technique::SeparateOnly,
            (false, true) => Technique::PruneOnly,
            (true, true) => Technique::Both,
        }
    }

    /// Short label like `sep(3,3) conv@0.30 fc(r8)@0.05`.
    pub fn label(&self) -> String {
        let sep = match self.conv_sep {
            Some((a, b)) => format!("sep({a},{b})"),
            None => "full".to_string(),
        };
        let fc = match self.fc_rank {
            Some(r) => format!("fc(r{r})"),
            None => "fc(full)".to_string(),
        };
        format!(
            "{sep} conv@{:.2} {fc}@{:.2}",
            self.conv_density, self.fc_density
        )
    }
}

/// The sweep grid: the cross product of these choices is evaluated.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// Convolution separation choices.
    pub conv_seps: Vec<Option<(usize, usize)>>,
    /// Convolution pruning densities.
    pub conv_densities: Vec<f64>,
    /// Fully-connected SVD ranks.
    pub fc_ranks: Vec<Option<usize>>,
    /// Fully-connected pruning densities.
    pub fc_densities: Vec<f64>,
}

impl SearchSpace {
    /// A compact default grid (35 compressed configurations plus the
    /// uncompressed original).
    ///
    /// ```
    /// use genesis::search::{PlanKnobs, SearchSpace, Technique};
    ///
    /// let plans = SearchSpace::default_grid().plans();
    /// assert_eq!(plans.len(), 36);
    /// // The uncompressed original always sweeps first...
    /// assert_eq!(plans[0], PlanKnobs::uncompressed());
    /// // ...and the grid covers every technique class of Fig. 4.
    /// for t in [
    ///     Technique::SeparateOnly,
    ///     Technique::PruneOnly,
    ///     Technique::Both,
    /// ] {
    ///     assert!(plans.iter().any(|p| p.technique() == t));
    /// }
    /// ```
    pub fn default_grid() -> Self {
        SearchSpace {
            conv_seps: vec![None, Some((4, 4)), Some((2, 2))],
            conv_densities: vec![1.0, 0.3, 0.1],
            fc_ranks: vec![None, Some(12)],
            fc_densities: vec![1.0, 0.1],
        }
    }

    /// All configurations in the grid (always including the uncompressed
    /// original first).
    pub fn plans(&self) -> Vec<PlanKnobs> {
        let mut out = vec![PlanKnobs::uncompressed()];
        for &conv_sep in &self.conv_seps {
            for &conv_density in &self.conv_densities {
                for &fc_rank in &self.fc_ranks {
                    for &fc_density in &self.fc_densities {
                        let k = PlanKnobs {
                            conv_sep,
                            conv_density,
                            fc_rank,
                            fc_density,
                        };
                        if k != PlanKnobs::uncompressed() {
                            out.push(k);
                        }
                    }
                }
            }
        }
        out
    }
}

/// Applies compression knobs to a copy of `base`, returning the
/// compressed (untrained) model.
///
/// The final dense layer (the classifier) is left untouched; separation
/// happens before pruning, and pruning applies to the factored layers.
pub fn apply_knobs(base: &Model, knobs: &PlanKnobs) -> Model {
    let last_dense = base
        .layers()
        .iter()
        .rposition(|l| matches!(l, Layer::Dense(_)));
    let mut out: Vec<Layer> = Vec::new();
    for (i, l) in base.layers().iter().enumerate() {
        match l {
            Layer::Conv2d(c) => {
                let spatial = c.filters.shape()[2] * c.filters.shape()[3] > 1;
                let mut produced: Vec<Layer> = match knobs.conv_sep {
                    Some((r1, r2)) if spatial => {
                        let sep = separate_conv(l, r1, r2);
                        vec![sep.vertical, sep.horizontal, sep.pointwise]
                    }
                    _ => vec![l.clone()],
                };
                if knobs.conv_density < 1.0 {
                    for p in &mut produced {
                        prune_layer(p, knobs.conv_density);
                    }
                }
                out.extend(produced);
            }
            Layer::Dense(_) if Some(i) != last_dense => {
                let mut produced: Vec<Layer> = match knobs.fc_rank {
                    Some(r) => {
                        let max_rank = match l {
                            Layer::Dense(d) => d.w.shape()[0].min(d.w.shape()[1]),
                            _ => unreachable!(),
                        };
                        let (h, o) = separate_dense(l, r.min(max_rank));
                        vec![h, o]
                    }
                    None => vec![l.clone()],
                };
                if knobs.fc_density < 1.0 {
                    for p in &mut produced {
                        prune_layer(p, knobs.fc_density);
                    }
                }
                out.extend(produced);
            }
            other => out.push(other.clone()),
        }
    }
    Model::new(out)
}

/// Everything the sweep needs to evaluate configurations.
pub struct EvalContext<'a> {
    /// Training split (used for re-training and calibration).
    pub train: &'a Dataset,
    /// Held-out split (used for accuracy / tp / tn).
    pub test: &'a Dataset,
    /// Re-training schedule applied after compression.
    pub retrain: TrainConfig,
    /// FRAM budget in 16-bit words available to weights + activations.
    pub fram_budget_words: u64,
    /// Device cost table for energy estimation.
    pub costs: &'a CostTable,
    /// The class whose detection is "interesting" for tp/tn.
    pub interesting_class: usize,
    /// Application model used to score configurations.
    pub app: AppModel,
}

/// The outcome of evaluating one configuration.
#[derive(Clone, Debug)]
pub struct ConfigResult {
    /// Human-readable configuration label.
    pub label: String,
    /// Technique class (Fig. 4 legend).
    pub technique: Technique,
    /// Multiply-accumulates per inference (Fig. 4 x-axis).
    pub macs: u64,
    /// FRAM words for parameters + activation buffers.
    pub fram_words: u64,
    /// `true` when the configuration fits the device (Fig. 4 green dots).
    pub feasible: bool,
    /// Quantized test accuracy (Fig. 4 y-axis).
    pub accuracy: f64,
    /// True-positive rate for the interesting class.
    pub tp: f64,
    /// True-negative rate for the interesting class.
    pub tn: f64,
    /// Estimated inference energy, mJ (Fig. 5 x-axis).
    pub e_infer_mj: f64,
    /// Estimated application performance (Fig. 5 y-axis).
    pub impj: f64,
    /// `true` when on the accuracy-vs-MACs Pareto frontier.
    pub pareto: bool,
    /// `true` when the median-stopping rule abandoned re-training early.
    pub early_stopped: bool,
    /// The re-trained model.
    pub model: Model,
}

fn quantized_confusion(qm: &QModel, data: &Dataset) -> Confusion {
    let mut c = Confusion::new(data.num_classes());
    let mut scratch = dnn::quant::HostScratch::default();
    for i in 0..data.len() {
        c.record(
            data.label(i),
            qm.predict_host_with(&data.input(i), &mut scratch),
        );
    }
    c
}

/// Calibration inputs per quantization; shared with the fleet-scoring
/// stage so a re-quantized plan is bit-identical to the sweep's.
pub(crate) const CALIB_INPUTS: usize = 8;

pub(crate) fn calibration_inputs(data: &Dataset, n: usize) -> Vec<Tensor> {
    (0..n.min(data.len())).map(|i| data.input(i)).collect()
}

/// Evaluates one configuration end to end: re-train (optionally truncated
/// by the median-stopping rule via `first_epoch_median`), quantize,
/// measure, estimate energy, and score IMpJ. `model` is the compressed,
/// untrained plan, `apply_knobs(base, knobs)`.
pub fn evaluate_plan(
    mut model: Model,
    knobs: &PlanKnobs,
    ctx: &EvalContext<'_>,
    first_epoch_median: Option<f32>,
) -> ConfigResult {
    let mut early_stopped = false;

    // Re-train: one probe epoch, then the median-stopping decision.
    let probe_cfg = TrainConfig {
        epochs: 1,
        ..ctx.retrain
    };
    let probe_loss = *train(&mut model, ctx.train, &probe_cfg)
        .last()
        .expect("one epoch");
    let keep_training = match first_epoch_median {
        Some(median) => probe_loss <= median * 1.05,
        None => true,
    };
    if keep_training && ctx.retrain.epochs > 1 {
        let rest = TrainConfig {
            epochs: ctx.retrain.epochs - 1,
            ..ctx.retrain
        };
        train(&mut model, ctx.train, &rest);
    } else if !keep_training {
        early_stopped = true;
    }

    let input_shape = ctx.train.shape().to_vec();
    let calib = calibration_inputs(ctx.train, CALIB_INPUTS);
    let qm = quantize(&mut model, &input_shape, &calib);
    let conf = quantized_confusion(&qm, ctx.test);
    let fram_words = qm.fram_words();
    let e_infer_mj = estimate_inference_mj(&qm, ctx.costs);
    let (tp, tn) = (
        conf.tp_rate(ctx.interesting_class),
        conf.tn_rate(ctx.interesting_class),
    );
    ConfigResult {
        label: knobs.label(),
        technique: knobs.technique(),
        macs: model.macs(&input_shape),
        fram_words,
        feasible: fram_words <= ctx.fram_budget_words,
        accuracy: conf.accuracy(),
        tp,
        tn,
        e_infer_mj,
        impj: ctx.app.inference_impj(e_infer_mj, tp, tn),
        pareto: false,
        early_stopped,
        model,
    }
}

/// Plans evaluated without a stopping threshold (the warm-up) before the
/// median of their statistics is frozen for the remaining plans.
pub const MEDIAN_WARMUP_PLANS: usize = 4;

/// Runs the full sweep with the median-stopping rule and marks the Pareto
/// frontier.
///
/// The sweep runs in two parallel stages with one barrier between them.
/// The first [`MEDIAN_WARMUP_PLANS`] configurations are evaluated with no
/// stopping threshold, so they are independent of each other and fan out
/// across cores. Once all of them are done, the median of their
/// statistics is taken in plan order and *frozen*, and every remaining
/// configuration is evaluated independently against it, again on all
/// cores. Results are collected back in plan order, and each evaluation
/// is fully seeded, so the sweep is deterministic — the same `Vec` comes
/// back on any thread count, equal to evaluating the plans one by one.
pub fn sweep(base: &Model, space: &SearchSpace, ctx: &EvalContext<'_>) -> Vec<ConfigResult> {
    let mut warmup = space.plans();
    let rest = warmup.split_off(warmup.len().min(MEDIAN_WARMUP_PLANS));
    let mut results = sweep_stage(base, warmup, ctx, None);
    if !rest.is_empty() {
        // A non-empty remainder implies the full warm-up ran, so a median
        // always exists. The probe loss is not persisted in the result;
        // the stopping statistic is the observed accuracy inverted.
        let median = {
            let mut sorted: Vec<f32> = results.iter().map(|r| 1.0 - r.accuracy as f32).collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            sorted[sorted.len() / 2]
        };
        results.extend(sweep_stage(base, rest, ctx, Some(median)));
    }
    mark_pareto(&mut results);
    results
}

/// Evaluates one stage of the sweep on all cores, returning results in
/// plan order.
///
/// Every plan is compressed once, in parallel. Re-training then dominates
/// and costs about a plan's nonzero MACs (the pruned layers walk only
/// their kept weights), so the plans are handed to the workers costliest
/// first: a cheap plan never delays the start of a dense one at the end
/// of the stage.
fn sweep_stage(
    base: &Model,
    plans: Vec<PlanKnobs>,
    ctx: &EvalContext<'_>,
    median: Option<f32>,
) -> Vec<ConfigResult> {
    let shape = ctx.train.shape();
    let mut jobs = sonic::fleet::par_map(plans.into_iter().enumerate().collect(), &|(i, knobs)| {
        let model = apply_knobs(base, &knobs);
        (i, model.macs(shape), knobs, model)
    });
    // `par_map`'s workers take items from the back of the list, so the
    // costliest plan goes last (on a tie, the earlier plan).
    jobs.sort_by_key(|&(i, macs, ..)| (macs, std::cmp::Reverse(i)));
    let mut evaluated = sonic::fleet::par_map(jobs, &|(i, _, knobs, model)| {
        (i, evaluate_plan(model, &knobs, ctx, median))
    });
    evaluated.sort_by_key(|&(i, _)| i);
    evaluated.into_iter().map(|(_, r)| r).collect()
}

/// Marks the accuracy-vs-MACs Pareto frontier (maximize accuracy,
/// minimize MACs) in place.
pub fn mark_pareto(results: &mut [ConfigResult]) {
    for i in 0..results.len() {
        let dominated = results.iter().any(|other| {
            (other.accuracy > results[i].accuracy && other.macs <= results[i].macs)
                || (other.accuracy >= results[i].accuracy && other.macs < results[i].macs)
        });
        results[i].pareto = !dominated;
    }
}

/// Chooses the deployment configuration: the *feasible* one with the best
/// IMpJ (paper §5.3 — not simply the most accurate).
pub fn choose(results: &[ConfigResult]) -> Option<&ConfigResult> {
    results
        .iter()
        .filter(|r| r.feasible)
        .max_by(|a, b| a.impj.partial_cmp(&b.impj).expect("finite impj"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imp::WILDLIFE;
    use dnn::data::Dataset;
    use rand::SeedableRng;

    fn tiny_dataset() -> (Dataset, Dataset) {
        dnn::train::toy_blobs(30, 3, 12, 42).split(0.8)
    }

    fn tiny_base() -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        Model::new(vec![
            Layer::dense(12, 16, &mut rng),
            Layer::relu(),
            Layer::dense(16, 3, &mut rng),
        ])
    }

    fn ctx<'a>(train: &'a Dataset, test: &'a Dataset, costs: &'a CostTable) -> EvalContext<'a> {
        EvalContext {
            train,
            test,
            retrain: TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
            fram_budget_words: 120_000,
            costs,
            interesting_class: 0,
            app: WILDLIFE,
        }
    }

    #[test]
    fn plans_include_uncompressed_first() {
        let plans = SearchSpace::default_grid().plans();
        assert_eq!(plans[0], PlanKnobs::uncompressed());
        assert_eq!(plans[0].technique(), Technique::Uncompressed);
        // 3*3*2*2 = 36 minus the identity duplicate + 1 explicit = 36.
        assert_eq!(plans.len(), 36);
    }

    #[test]
    fn technique_classification() {
        let mut k = PlanKnobs::uncompressed();
        k.fc_density = 0.1;
        assert_eq!(k.technique(), Technique::PruneOnly);
        k.fc_rank = Some(4);
        assert_eq!(k.technique(), Technique::Both);
        k.fc_density = 1.0;
        assert_eq!(k.technique(), Technique::SeparateOnly);
        assert!(k.label().contains("fc(r4)"));
    }

    #[test]
    fn apply_knobs_preserves_classifier_layer() {
        let base = tiny_base();
        let knobs = PlanKnobs {
            conv_sep: None,
            conv_density: 1.0,
            fc_rank: Some(4),
            fc_density: 0.5,
        };
        let compressed = apply_knobs(&base, &knobs);
        // Hidden dense became two layers; classifier untouched: 4 dense
        // layers total -> last one is 3x16.
        let dense_count = compressed
            .layers()
            .iter()
            .filter(|l| matches!(l, Layer::Dense(_)))
            .count();
        assert_eq!(dense_count, 3);
        assert_eq!(compressed.layers().last().unwrap().describe(), "fc 3x16");
        assert!(compressed.nonzero_params() < base.nonzero_params());
    }

    #[test]
    fn evaluate_plan_produces_consistent_result() {
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let k = PlanKnobs::uncompressed();
        let r = evaluate_plan(apply_knobs(&tiny_base(), &k), &k, &c, None);
        assert!(r.accuracy > 0.5, "uncompressed should fit blobs");
        assert!(r.feasible);
        assert!(r.e_infer_mj > 0.0);
        assert!(r.impj > 0.0);
        assert!((0.0..=1.0).contains(&r.tp));
        assert!((0.0..=1.0).contains(&r.tn));
    }

    #[test]
    fn sweep_marks_a_nonempty_pareto_frontier() {
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let space = SearchSpace {
            conv_seps: vec![None],
            conv_densities: vec![1.0],
            fc_ranks: vec![None, Some(4)],
            fc_densities: vec![1.0, 0.3],
        };
        let results = sweep(&tiny_base(), &space, &c);
        assert_eq!(results.len(), 4);
        let frontier: Vec<_> = results.iter().filter(|r| r.pareto).collect();
        assert!(!frontier.is_empty());
        // Every non-frontier point is dominated by some frontier point.
        for r in &results {
            if !r.pareto {
                assert!(frontier.iter().any(|f| {
                    (f.accuracy >= r.accuracy && f.macs < r.macs)
                        || (f.accuracy > r.accuracy && f.macs <= r.macs)
                }));
            }
        }
    }

    #[test]
    fn choose_respects_feasibility() {
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let mut c = ctx(&train, &test, &costs);
        // With a generous budget something is chosen...
        let space = SearchSpace {
            conv_seps: vec![None],
            conv_densities: vec![1.0],
            fc_ranks: vec![None],
            fc_densities: vec![1.0, 0.3],
        };
        let results = sweep(&tiny_base(), &space, &c);
        assert!(choose(&results).is_some());
        // ...with an impossible budget, nothing is.
        c.fram_budget_words = 1;
        let results2 = sweep(&tiny_base(), &space, &c);
        assert!(choose(&results2).is_none());
    }

    /// Every field of two results, the trained weights bit for bit.
    fn assert_same_result(x: &ConfigResult, y: &ConfigResult) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.technique, y.technique);
        assert_eq!(x.macs, y.macs);
        assert_eq!(x.fram_words, y.fram_words);
        assert_eq!(x.feasible, y.feasible);
        assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
        assert_eq!(x.tp.to_bits(), y.tp.to_bits());
        assert_eq!(x.tn.to_bits(), y.tn.to_bits());
        assert_eq!(x.e_infer_mj.to_bits(), y.e_infer_mj.to_bits());
        assert_eq!(x.impj.to_bits(), y.impj.to_bits());
        assert_eq!(x.pareto, y.pareto);
        assert_eq!(x.early_stopped, y.early_stopped);
        let bits = |m: &Model| {
            let mut v = Vec::new();
            m.clone()
                .visit_params(&mut |p| v.extend(p.values.iter().map(|w| w.to_bits())));
            v
        };
        assert_eq!(x.model.describe(), y.model.describe());
        assert_eq!(bits(&x.model), bits(&y.model), "{}", x.label);
    }

    #[test]
    fn parallel_sweep_is_deterministic() {
        // More plans than the warm-up, so both parallel stages run; two
        // sweeps must agree with each other and with the serial
        // specification of the median-stopping rule, in order and in
        // every field.
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let space = SearchSpace {
            conv_seps: vec![None],
            conv_densities: vec![1.0],
            fc_ranks: vec![None, Some(4), Some(8)],
            fc_densities: vec![1.0, 0.5, 0.3],
        };
        let base = tiny_base();
        let a = sweep(&base, &space, &c);
        let b = sweep(&base, &space, &c);

        // The serial specification: the warm-up plans in order with no
        // threshold, the median of their `1 - accuracy`, then the rest
        // against that median.
        let plans = space.plans();
        let mut serial: Vec<ConfigResult> = plans[..MEDIAN_WARMUP_PLANS]
            .iter()
            .map(|k| evaluate_plan(apply_knobs(&base, k), k, &c, None))
            .collect();
        let mut stats: Vec<f32> = serial.iter().map(|r| 1.0 - r.accuracy as f32).collect();
        stats.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let median = stats[stats.len() / 2];
        for k in &plans[MEDIAN_WARMUP_PLANS..] {
            serial.push(evaluate_plan(apply_knobs(&base, k), k, &c, Some(median)));
        }
        mark_pareto(&mut serial);
        assert!(serial.iter().any(|r| r.early_stopped));

        assert!(a.len() > MEDIAN_WARMUP_PLANS);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), serial.len());
        for ((x, y), s) in a.iter().zip(&b).zip(&serial) {
            assert_same_result(x, y);
            assert_same_result(x, s);
        }
    }

    #[test]
    fn pareto_dominance_is_strict() {
        // Two identical points must both stay on the frontier.
        let (train, test) = tiny_dataset();
        let costs = CostTable::msp430fr5994();
        let c = ctx(&train, &test, &costs);
        let k = PlanKnobs::uncompressed();
        let r = evaluate_plan(apply_knobs(&tiny_base(), &k), &k, &c, None);
        let mut pair = vec![r.clone(), r];
        mark_pareto(&mut pair);
        assert!(pair[0].pareto && pair[1].pareto);
    }
}
