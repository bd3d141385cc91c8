//! Training: minibatch SGD with momentum and softmax cross-entropy.
//!
//! GENESIS re-trains every compressed configuration (§5.2), so the trainer
//! must respect pruning masks: masked weights stay exactly +0.0, which
//! keeps the deployed sparse kernels sparse.
//!
//! Each minibatch runs layer by layer ([`Model::forward_batch`],
//! [`Model::backward_batch`]), so a dense layer's lane kernels
//! ([`crate::im2col::matmat_bias_lanes`]) load each weight once per
//! [`crate::im2col::LANES`] samples instead of once per sample.
//!
//! Training does only the work a parameter update reads, and every f32
//! sum keeps its terms in the order of the full-width loops:
//!
//! - Dense rows, and conv output positions in the filter gradient, whose
//!   upstream gradient is zero (after a ReLU, about half of them) are
//!   skipped, and the first parameterized layer computes no input
//!   gradient (see [`Model::backward_batch`]).
//! - A pruned layer walks only its kept weights ([`crate::layers::Kept`]):
//!   the dense forward sum (bias, then the kept terms in column order),
//!   the dense `gw` and `dx` rows, the conv filter gradient, and
//!   [`Sgd::step`]. Masked gradient entries are never written, so
//!   they, the masked weights and their velocities stay +0.0, which is
//!   what the full-width step would have reset them to.
//!
//! **Why minibatch-major order is bit-exact.** It computes what one
//! sample's forward and backward pass after another computed, because of
//! two facts. First, weights are fixed within a minibatch: only
//! [`Sgd::step`] writes them, once the minibatch's last backward pass is
//! done, so every sample's forward and backward pass reads the same
//! weights whichever sample runs first. Second, each accumulator keeps
//! its term order: a forward sum starts at its bias and adds its terms in
//! column order (a lane kernel keeps one accumulator per sample), every
//! parameter-gradient accumulator (`gw`, `gb`, `gf`) adds the samples'
//! contributions in sample order, each sample's `dx` element sums over
//! the rows in ascending order, and the epoch loss adds the samples'
//! losses in sample order. Nothing else is shared between samples.
//!
//! **Why dropping terms is bit-exact.** Precondition: inputs and weights
//! are finite (an infinite or NaN value would turn a dropped product
//! into NaN). Every dropped term is then ±0·(finite) = ±0.0: its upstream
//! gradient is zero, or its weight is a masked +0.0. Under
//! round-to-nearest, `a + ±0.0 == a` bit for bit unless `a` is −0.0, and
//! a sum is −0.0 only if both addends are. Every gradient accumulator
//! (`gw`, `gb`, `gf`, `dx`) starts at +0.0, so it never holds −0.0; for
//! the same reason a pruned dense layer's lane-major `dx` may add the
//! ±0.0 terms of samples whose upstream gradient is zero. A dense forward accumulator starts at
//! its bias, so it can hold −0.0 only if the bias is −0.0 (then a dropped
//! `+0.0·x` would flip it to +0.0). Training never creates such a bias,
//! since it starts at +0.0 or at a caller's value and `b + v` is −0.0
//! only if `b` already is, but `dense_from`, separation and decoded
//! models take biases as given; so a pruned dense row whose bias is −0.0
//! runs the full-width forward sum instead. Debug builds check every
//! dense forward that runs a lane kernel, pruned or not, sample by sample
//! against [`crate::im2col::matvec_bias`].

use crate::data::Dataset;
use crate::model::Model;
use crate::tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// Softmax + cross-entropy: returns `(loss, dlogits)`.
///
/// # Panics
///
/// Panics if `label` is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, label: usize) -> (f32, Tensor) {
    let n = logits.len();
    assert!(label < n, "label {label} out of range {n}");
    let max = logits
        .data()
        .iter()
        .cloned()
        .fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.data().iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let mut dlogits = Tensor::zeros(vec![n]);
    for (i, e) in exps.iter().enumerate() {
        dlogits.data_mut()[i] = e / sum;
    }
    let loss = -(exps[label] / sum).max(1e-12).ln();
    dlogits.data_mut()[label] -= 1.0;
    (loss, dlogits)
}

/// SGD-with-momentum optimizer. Velocity buffers are laid out in the
/// model's stable parameter-visit order.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocities: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer for `model`.
    pub fn new(model: &mut Model, lr: f32, momentum: f32) -> Self {
        let mut velocities = Vec::new();
        model.visit_params(&mut |p| velocities.push(vec![0.0; p.values.len()]));
        Sgd {
            lr,
            momentum,
            velocities,
        }
    }

    /// Applies one step from the accumulated gradients (scaled by
    /// `1/batch`), then clears them. A pruned tensor steps only its kept
    /// entries; its masked weights, velocities and gradients stay +0.0.
    pub fn step(&mut self, model: &mut Model, batch: usize) {
        let scale = 1.0 / batch.max(1) as f32;
        let (lr, mu) = (self.lr, self.momentum);
        let mut idx = 0;
        let velocities = &mut self.velocities;
        model.visit_params(&mut |p| {
            let vel = &mut velocities[idx];
            let update = |v: &mut f32, g: &mut f32, vel: &mut f32| {
                *vel = mu * *vel - lr * (*g * scale);
                *v += *vel;
                *g = 0.0;
            };
            match p.mask {
                Some(kept) => {
                    for &i in kept {
                        let i = i as usize;
                        update(&mut p.values[i], &mut p.grads[i], &mut vel[i]);
                    }
                }
                None => {
                    for ((v, g), vel) in p.values.iter_mut().zip(p.grads.iter_mut()).zip(vel) {
                        update(v, g, vel);
                    }
                }
            }
            idx += 1;
        });
    }
}

/// Training configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size (at least 1); the last minibatch of an epoch takes
    /// the remainder.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch: 16,
            lr: 0.05,
            momentum: 0.9,
            seed: 0x50_4e_1c,
        }
    }
}

/// Trains `model` on `data`, returning the mean loss of each epoch.
///
/// Each minibatch runs layer by layer: the forward pass of every sample
/// through each layer ([`Model::forward_batch`]), the losses in sample
/// order, the backward pass of every sample through each layer
/// ([`Model::backward_batch`]), then one [`Sgd::step`]. The trained model
/// carries no per-sample caches.
///
/// # Panics
///
/// Panics if `cfg.batch` is 0, the dataset is empty, or shapes are
/// inconsistent.
pub fn train(model: &mut Model, data: &Dataset, cfg: &TrainConfig) -> Vec<f32> {
    assert!(cfg.batch > 0, "TrainConfig::batch must be at least 1");
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut opt = Sgd::new(model, cfg.lr, cfg.momentum);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(cfg.batch) {
            let xs: Vec<Tensor> = batch.iter().map(|&i| data.input(i)).collect();
            let logits = model.forward_batch(&xs);
            let dlogits: Vec<Tensor> = logits
                .iter()
                .zip(batch)
                .map(|(y, &i)| {
                    let (loss, dlogits) = softmax_cross_entropy(y, data.label(i));
                    epoch_loss += loss;
                    dlogits
                })
                .collect();
            model.backward_batch(&dlogits);
            opt.step(model, batch.len());
        }
        losses.push(epoch_loss / data.len() as f32);
    }
    // GENESIS keeps every trained plan: leave no minibatch behind.
    model.clear_cache();
    losses
}

/// Classification accuracy of `model` on `data`, in `[0, 1]`.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn accuracy(model: &mut Model, data: &Dataset) -> f64 {
    assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
    let mut correct = 0usize;
    for i in 0..data.len() {
        if model.predict(&data.input(i)) == data.label(i) {
            correct += 1;
        }
    }
    correct as f64 / data.len() as f64
}

use rand::SeedableRng;

/// Generates a linearly-separable toy dataset for trainer tests.
pub fn toy_blobs(n_per_class: usize, classes: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    // Well-separated class centers on coordinate axes. Classes are
    // interleaved (label = i mod classes) so that the prefix split of
    // [`Dataset::split`] stays class-balanced.
    for i in 0..n_per_class * classes {
        let c = i % classes;
        let mut x = vec![0.0f32; dim];
        for (j, v) in x.iter_mut().enumerate() {
            *v = if j % classes == c { 0.8 } else { 0.0 } + rng.gen_range(-0.15..0.15);
        }
        inputs.push(x);
        labels.push(c);
    }
    Dataset::new(vec![dim], inputs, labels, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layer;

    #[test]
    fn softmax_ce_gradient_sums_to_zero() {
        let logits = Tensor::from_vec(vec![3], vec![1.0, 2.0, 0.5]);
        let (loss, g) = softmax_cross_entropy(&logits, 1);
        assert!(loss > 0.0);
        let s: f32 = g.data().iter().sum();
        assert!(s.abs() < 1e-5, "gradient must sum to 0, got {s}");
        // The true-label entry must be negative (we push its logit up).
        assert!(g.data()[1] < 0.0);
    }

    #[test]
    fn softmax_ce_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(vec![2], vec![1000.0, -1000.0]);
        let (loss, g) = softmax_cross_entropy(&logits, 0);
        assert!(loss.is_finite() && loss >= 0.0);
        assert!(g.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_fits_separable_blobs() {
        let data = toy_blobs(40, 3, 6, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut model = Model::new(vec![
            Layer::dense(6, 16, &mut rng),
            Layer::relu(),
            Layer::dense(16, 3, &mut rng),
        ]);
        let losses = train(&mut model, &data, &TrainConfig::default());
        assert!(
            losses.last().unwrap() < &0.2,
            "loss should drop; got {losses:?}"
        );
        assert!(
            accuracy(&mut model, &data) > 0.95,
            "separable data should be fit"
        );
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let data = toy_blobs(30, 2, 4, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut model = Model::new(vec![Layer::dense(4, 2, &mut rng)]);
        let losses = train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 8,
                ..TrainConfig::default()
            },
        );
        assert!(losses.first().unwrap() > losses.last().unwrap());
    }

    #[test]
    fn masked_weights_stay_zero_through_training() {
        let data = toy_blobs(20, 2, 4, 13);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut model = Model::new(vec![Layer::dense(4, 2, &mut rng)]);
        let mask = Tensor::from_vec(vec![2, 4], vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]);
        model.layers_mut()[0].set_mask(mask.clone());
        train(&mut model, &data, &TrainConfig::default());
        if let Layer::Dense(d) = &model.layers()[0] {
            for (w, m) in d.w.data().iter().zip(mask.data()) {
                if *m == 0.0 {
                    assert_eq!(*w, 0.0, "masked weight drifted");
                }
            }
        } else {
            unreachable!();
        }
    }

    /// FNV-1a over the bits of every epoch loss and every trained
    /// parameter of a small pruned CNN. Backward-pass rewrites must keep
    /// each f32 sum in its order, so this digest never moves.
    #[test]
    fn training_is_bit_stable() {
        let data = crate::data::synth_har(48, 21);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut model = Model::new(vec![
            Layer::conv2d(6, 3, 1, 5, &mut rng),
            Layer::relu(),
            Layer::conv2d(8, 6, 1, 3, &mut rng),
            Layer::relu(),
            Layer::maxpool_rect(1, 2),
            Layer::flatten(),
            Layer::dense(8 * 27, 16, &mut rng),
            Layer::relu(),
            Layer::dense(16, 6, &mut rng),
        ]);
        let mask = (0..16 * 8 * 27)
            .map(|i| if i % 3 == 0 { 0.0 } else { 1.0 })
            .collect();
        model.layers_mut()[6].set_mask(Tensor::from_vec(vec![16, 8 * 27], mask));
        let losses = train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |bits: u32| {
            h ^= bits as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        losses.iter().for_each(|l| put(l.to_bits()));
        model.visit_params(&mut |p| p.values.iter().for_each(|v| put(v.to_bits())));
        assert_eq!(h, 0xc731_31e7_72de_546b, "training digest moved");
    }

    /// Training as it ran before minibatch-major order: each sample's
    /// forward and backward pass in turn, a step after every `cfg.batch`
    /// samples and after the epoch's remainder.
    fn interleaved_train(model: &mut Model, data: &Dataset, cfg: &TrainConfig) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let mut opt = Sgd::new(model, cfg.lr, cfg.momentum);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut losses = Vec::new();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let (mut epoch_loss, mut in_batch) = (0.0, 0);
            for &i in &order {
                let logits = model.forward(&data.input(i));
                let (loss, dlogits) = softmax_cross_entropy(&logits, data.label(i));
                epoch_loss += loss;
                model.backward(&dlogits);
                in_batch += 1;
                if in_batch == cfg.batch {
                    opt.step(model, in_batch);
                    in_batch = 0;
                }
            }
            if in_batch > 0 {
                opt.step(model, in_batch);
            }
            losses.push(epoch_loss / data.len() as f32);
        }
        losses
    }

    fn param_bits(model: &mut Model) -> Vec<u32> {
        let mut bits = Vec::new();
        model.visit_params(&mut |p| bits.extend(p.values.iter().map(|v| v.to_bits())));
        bits
    }

    #[test]
    fn train_matches_the_interleaved_loop() {
        // 23 samples: every batch size below leaves a short last batch.
        let data = crate::data::synth_har(23, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut base = Model::new(vec![
            Layer::conv2d(4, 3, 1, 5, &mut rng),
            Layer::relu(),
            Layer::maxpool_rect(1, 2),
            Layer::flatten(),
            Layer::dense(4 * 28, 12, &mut rng),
            Layer::relu(),
            Layer::dense(12, 6, &mut rng),
        ]);
        let mask = (0..12 * 4 * 28)
            .map(|i| if i % 5 == 0 { 1.0 } else { 0.0 })
            .collect();
        base.layers_mut()[4].set_mask(Tensor::from_vec(vec![12, 4 * 28], mask));
        for batch in [1, 2, 16] {
            let cfg = TrainConfig {
                epochs: 2,
                batch,
                ..TrainConfig::default()
            };
            let (mut model, mut reference) = (base.clone(), base.clone());
            let losses = train(&mut model, &data, &cfg);
            let want = interleaved_train(&mut reference, &data, &cfg);
            let loss_bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(loss_bits(&losses), loss_bits(&want), "batch {batch}");
            assert_eq!(
                param_bits(&mut model),
                param_bits(&mut reference),
                "batch {batch}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "TrainConfig::batch must be at least 1")]
    fn zero_batch_is_rejected() {
        let data = toy_blobs(4, 2, 3, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut model = Model::new(vec![Layer::dense(3, 2, &mut rng)]);
        train(
            &mut model,
            &data,
            &TrainConfig {
                batch: 0,
                ..TrainConfig::default()
            },
        );
    }

    #[test]
    fn sgd_momentum_accelerates_along_consistent_gradients() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut model = Model::new(vec![Layer::dense(1, 1, &mut rng)]);
        let mut opt = Sgd::new(&mut model, 0.1, 0.9);
        // Apply the same gradient twice: with momentum, the second step is
        // larger than the first.

        let mut w0 = 0.0;
        model.visit_params(&mut |p| {
            if p.values.len() == 1 && w0 == 0.0 {
                w0 = p.values[0];
            }
        });
        let set_grad = |model: &mut Model| {
            model.visit_params(&mut |p| {
                for g in p.grads.iter_mut() {
                    *g = 1.0;
                }
            })
        };
        set_grad(&mut model);
        opt.step(&mut model, 1);
        let mut w1 = 0.0;
        let mut seen = false;
        model.visit_params(&mut |p| {
            if !seen {
                w1 = p.values[0];
                seen = true;
            }
        });
        let first_step = (w1 - w0).abs();
        set_grad(&mut model);
        opt.step(&mut model, 1);
        let mut w2 = 0.0;
        let mut seen = false;
        model.visit_params(&mut |p| {
            if !seen {
                w2 = p.values[0];
                seen = true;
            }
        });
        let second_step = (w2 - w1).abs();
        assert!(
            second_step > first_step,
            "momentum should grow steps: {first_step} vs {second_step}"
        );
    }
}
