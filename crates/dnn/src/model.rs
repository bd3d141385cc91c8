//! Sequential models: the network container used everywhere else.

use crate::layers::{Layer, ParamSet};
use crate::tensor::Tensor;
use std::fmt;

/// A sequential feed-forward network.
#[derive(Clone, Debug)]
pub struct Model {
    layers: Vec<Layer>,
}

impl Model {
    /// Creates a model from a layer stack.
    pub fn new(layers: Vec<Layer>) -> Self {
        Model { layers }
    }

    /// The layers, immutably.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The layers, mutably (used by GENESIS to swap compressed layers in).
    pub fn layers_mut(&mut self) -> &mut Vec<Layer> {
        &mut self.layers
    }

    /// Forward pass of a minibatch through all layers, layer by layer:
    /// every sample passes a layer before any sample enters the next.
    /// Returns one output per input, in sample order.
    ///
    /// # Panics
    ///
    /// Panics if the minibatch is empty, its samples differ in shape, or
    /// shapes are inconsistent.
    pub fn forward_batch(&mut self, xs: &[Tensor]) -> Vec<Tensor> {
        let mut ys: Option<Vec<Tensor>> = None;
        for l in &mut self.layers {
            ys = Some(l.forward_batch(ys.as_deref().unwrap_or(xs)));
        }
        ys.unwrap_or_else(|| xs.to_vec())
    }

    /// The one-sample case of [`Model::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut ys = self.forward_batch(std::slice::from_ref(x));
        ys.pop().expect("one output per sample")
    }

    /// Backward pass of the last forward minibatch, layer by layer; `gs`
    /// holds each sample's loss gradient at the output, in sample order.
    /// Accumulates every parameter gradient and returns nothing: the
    /// first parameterized layer computes no input gradient (see
    /// [`Layer::backward_params_batch`]), and the parameterless layers
    /// before it are not visited, since no parameter reads their
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if the last forward pass ran a different number of samples
    /// (or none), or on a mismatched gradient shape.
    pub fn backward_batch(&mut self, gs: &[Tensor]) {
        let Some(first) = self.layers.iter().position(Layer::has_params) else {
            return;
        };
        let (head, tail) = self.layers.split_at_mut(first + 1);
        let mut grads: Option<Vec<Tensor>> = None;
        for l in tail.iter_mut().rev() {
            grads = Some(l.backward_batch(grads.as_deref().unwrap_or(gs)));
        }
        head[first].backward_params_batch(grads.as_deref().unwrap_or(gs));
    }

    /// The one-sample case of [`Model::backward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, g: &Tensor) {
        self.backward_batch(std::slice::from_ref(g));
    }

    /// Drops every layer's per-sample caches (see [`Layer::clear_cache`]).
    pub(crate) fn clear_cache(&mut self) {
        self.layers.iter_mut().for_each(Layer::clear_cache);
    }

    /// Classification: argmax of the logits.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn predict(&mut self, x: &Tensor) -> usize {
        self.forward(x).argmax()
    }

    /// Visits all parameter tensors in a stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamSet<'_>)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Output shape for a given input shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let mut s = input.to_vec();
        for l in &self.layers {
            s = l.output_shape(&s);
        }
        s
    }

    /// Total multiply-accumulates per inference (paper Fig. 4 x-axis).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn macs(&self, input: &[usize]) -> u64 {
        let mut s = input.to_vec();
        let mut total = 0;
        for l in &self.layers {
            total += l.macs(&s);
            s = l.output_shape(&s);
        }
        total
    }

    /// Total nonzero parameters (the memory-feasibility metric).
    pub fn nonzero_params(&self) -> u64 {
        self.layers.iter().map(Layer::nonzero_params).sum()
    }

    /// Total dense parameter slots.
    pub fn dense_params(&self) -> u64 {
        self.layers.iter().map(Layer::dense_params).sum()
    }

    /// One-line architecture summary.
    pub fn describe(&self) -> String {
        self.layers
            .iter()
            .map(Layer::describe)
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    fn tiny_cnn() -> Model {
        let mut r = rng();
        Model::new(vec![
            Layer::conv2d(4, 1, 3, 3, &mut r),
            Layer::relu(),
            Layer::maxpool(2),
            Layer::flatten(),
            Layer::dense(4 * 3 * 3, 5, &mut r),
        ])
    }

    #[test]
    fn forward_produces_logits() {
        let mut m = tiny_cnn();
        let x = Tensor::uniform(vec![1, 8, 8], 1.0, &mut rng());
        let y = m.forward(&x);
        assert_eq!(y.shape(), &[5]);
        let p = m.predict(&x);
        assert!(p < 5);
    }

    #[test]
    fn output_shape_matches_forward() {
        let mut m = tiny_cnn();
        let shape = m.output_shape(&[1, 8, 8]);
        let y = m.forward(&Tensor::zeros(vec![1, 8, 8]));
        assert_eq!(shape, y.shape());
    }

    #[test]
    fn macs_accumulate_across_layers() {
        let m = tiny_cnn();
        // conv: 4*1*3*3 nnz (all nonzero after init) * 6*6 positions.
        // dense: 36*5 weights.
        let expected = 4 * 9 * 36 + 36 * 5;
        assert_eq!(m.macs(&[1, 8, 8]), expected as u64);
    }

    #[test]
    fn param_counts() {
        let m = tiny_cnn();
        assert_eq!(m.dense_params(), (4 * 9 + 4) + (36 * 5 + 5));
        assert!(m.nonzero_params() <= m.dense_params());
    }

    #[test]
    fn zero_grad_clears() {
        let mut m = tiny_cnn();
        let x = Tensor::uniform(vec![1, 8, 8], 1.0, &mut rng());
        let y = m.forward(&x);
        m.backward(&Tensor::from_vec(vec![5], vec![1.0; 5]));
        let mut any_nonzero = false;
        m.visit_params(&mut |p| any_nonzero |= p.grads.iter().any(|&g| g != 0.0));
        assert!(any_nonzero, "backward should have produced gradients");
        m.zero_grad();
        m.visit_params(&mut |p| assert!(p.grads.iter().all(|&g| g == 0.0)));
        let _ = y;
    }

    fn grad_bits(m: &mut Model) -> Vec<u32> {
        let mut v = Vec::new();
        m.visit_params(&mut |p| v.extend(p.grads.iter().map(|g| g.to_bits())));
        v
    }

    #[test]
    fn backward_matches_the_full_layer_chain() {
        let mut r = rng();
        // One model starts with its parameterized layer, one with a
        // parameterless layer that `backward` never visits.
        let flat_first = Model::new(vec![
            Layer::flatten(),
            Layer::dense(64, 6, &mut r),
            Layer::relu(),
            Layer::dense(6, 5, &mut r),
        ]);
        for mut m in [tiny_cnn(), flat_first] {
            let mut chain = m.clone();
            for _ in 0..3 {
                let x = Tensor::uniform(vec![1, 8, 8], 1.0, &mut r);
                let g = Tensor::uniform(vec![5], 1.0, &mut r);
                m.forward(&x);
                m.backward(&g);
                chain.forward(&x);
                let mut grad = g;
                for l in chain.layers_mut().iter_mut().rev() {
                    grad = l.backward(&grad);
                }
            }
            assert_eq!(grad_bits(&mut m), grad_bits(&mut chain));
        }
    }

    #[test]
    fn describe_chains_layers() {
        let m = tiny_cnn();
        let d = m.describe();
        assert!(d.contains("conv 4x1x3x3"));
        assert!(d.contains("->"));
        assert_eq!(format!("{m}"), d);
    }
}
