//! Magnitude pruning (paper §5.2: "pruning involves removing parameters
//! below a given threshold, since they have small impact on results").
//!
//! Pruning installs a 0/1 mask on the layer so the zeros survive the
//! re-training pass that follows compression.

use dnn::layers::Layer;
use dnn::model::Model;
use dnn::tensor::Tensor;

/// Prunes a weight tensor to the given density (fraction of weights kept,
/// by magnitude). Returns the mask.
///
/// The kept set is the first `keep` indices under "|w| descending, then
/// index ascending" — a total order, so a linear-time selection picks
/// exactly the set a stable sort by magnitude would.
fn magnitude_mask(w: &Tensor, density: f64) -> Tensor {
    let n = w.len();
    let keep = (((n as f64) * density).round().max(1.0) as usize).min(n);
    let wd = w.data();
    let mut order: Vec<usize> = (0..n).collect();
    if keep > 0 {
        order.select_nth_unstable_by(keep - 1, |&i, &j| {
            wd[j]
                .abs()
                .partial_cmp(&wd[i].abs())
                .expect("finite weights")
                .then(i.cmp(&j))
        });
    }
    let mut mask = Tensor::zeros(w.shape().to_vec());
    for &i in &order[..keep] {
        mask.data_mut()[i] = 1.0;
    }
    mask
}

/// Prunes one layer in place to `density` (fraction kept). No-op on
/// parameterless layers.
///
/// # Panics
///
/// Panics if `density` is not in `(0, 1]`.
pub fn prune_layer(layer: &mut Layer, density: f64) {
    assert!(density > 0.0 && density <= 1.0, "density must be in (0,1]");
    if density >= 1.0 {
        return;
    }
    let mask = match layer {
        Layer::Dense(d) => magnitude_mask(&d.w, density),
        Layer::Conv2d(c) => magnitude_mask(&c.filters, density),
        _ => return,
    };
    layer.set_mask(mask);
}

/// Prunes every parameterized layer of `model` to the corresponding entry
/// of `densities` (iterating over prunable layers in order; missing
/// entries mean "keep dense").
pub fn prune_model(model: &mut Model, densities: &[f64]) {
    let mut di = 0;
    for l in model.layers_mut() {
        if l.has_params() {
            if let Some(&d) = densities.get(di) {
                prune_layer(l, d);
            }
            di += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mask_keeps_largest_magnitudes() {
        let w = Tensor::from_vec(vec![1, 5], vec![0.1, -0.9, 0.5, -0.05, 0.3]);
        let mask = magnitude_mask(&w, 0.4);
        assert_eq!(mask.data(), &[0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    /// Reference selection: the first `keep` indices of a stable sort by
    /// descending magnitude.
    fn stable_sort_mask(w: &Tensor, density: f64) -> Tensor {
        let n = w.len();
        let keep = ((n as f64) * density).round().max(1.0) as usize;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            w.data()[j]
                .abs()
                .partial_cmp(&w.data()[i].abs())
                .expect("finite weights")
        });
        let mut mask = Tensor::zeros(w.shape().to_vec());
        for &i in order.iter().take(keep) {
            mask.data_mut()[i] = 1.0;
        }
        mask
    }

    #[test]
    fn selection_matches_stable_sort_on_ties() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        // Few distinct magnitudes, both signs, and signed zeros, so most
        // of the kept/dropped boundary falls inside a run of ties.
        let levels = [0.0f32, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0];
        for n in [1usize, 2, 7, 64, 257] {
            let data: Vec<f32> = (0..n)
                .map(|_| levels[rng.gen_range(0..levels.len())])
                .collect();
            let w = Tensor::from_vec(vec![1, n], data);
            for density in [0.01, 0.1, 0.3, 0.5, 0.77, 0.999, 1.0] {
                assert_eq!(
                    magnitude_mask(&w, density),
                    stable_sort_mask(&w, density),
                    "n {n} density {density}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite weights")]
    fn mask_rejects_nan_weights() {
        let w = Tensor::from_vec(vec![1, 3], vec![0.1, f32::NAN, 0.3]);
        magnitude_mask(&w, 1.0);
    }

    #[test]
    fn prune_layer_zeroes_small_weights() {
        let w = Tensor::from_vec(vec![2, 2], vec![0.9, 0.01, -0.02, -0.8]);
        let mut l = Layer::dense_from(w, Tensor::zeros(vec![2]));
        prune_layer(&mut l, 0.5);
        assert_eq!(l.nonzero_params(), 2 + 2); // 2 weights + 2 biases
        if let Layer::Dense(d) = &l {
            assert_eq!(d.w.data()[1], 0.0);
            assert_eq!(d.w.data()[2], 0.0);
            assert!(d.mask.is_some());
        }
    }

    #[test]
    fn density_one_is_noop() {
        let w = Tensor::from_vec(vec![1, 3], vec![0.1, 0.2, 0.3]);
        let mut l = Layer::dense_from(w.clone(), Tensor::zeros(vec![1]));
        prune_layer(&mut l, 1.0);
        if let Layer::Dense(d) = &l {
            assert_eq!(d.w, w);
            assert!(d.mask.is_none());
        }
    }

    #[test]
    #[should_panic(expected = "density")]
    fn rejects_zero_density() {
        let mut l = Layer::dense_from(
            Tensor::from_vec(vec![1, 2], vec![0.1, 0.2]),
            Tensor::zeros(vec![1]),
        );
        prune_layer(&mut l, 0.0);
    }

    #[test]
    fn prune_model_walks_prunable_layers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut m = Model::new(vec![
            Layer::conv2d(4, 1, 3, 3, &mut rng),
            Layer::relu(),
            Layer::dense(16, 8, &mut rng),
        ]);
        let dense_before = m.nonzero_params();
        prune_model(&mut m, &[0.25, 0.5]);
        let after = m.nonzero_params();
        assert!(after < dense_before);
        // conv kept 9 of 36; dense kept 64 of 128; biases intact (4 + 8).
        assert_eq!(after, 9 + 64 + 4 + 8);
    }

    #[test]
    fn pruned_conv_reduces_macs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut m = Model::new(vec![Layer::conv2d(4, 1, 3, 3, &mut rng)]);
        let before = m.macs(&[1, 8, 8]);
        prune_model(&mut m, &[0.25]);
        let after = m.macs(&[1, 8, 8]);
        assert_eq!(after * 4, before);
    }
}
