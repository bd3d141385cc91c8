//! Neural-network substrate for the SONIC & TAILS reproduction.
//!
//! The paper deploys three trained, compressed DNNs (MNIST image
//! recognition, human-activity recognition, and keyword spotting) on an
//! energy-harvesting MCU. Reproducing that end-to-end requires everything
//! a small ML framework provides, built here from scratch:
//!
//! - [`tensor`]: dense row-major `f32` tensors.
//! - [`layers`]: dense/convolutional/pooling/activation layers with both
//!   forward *and backward* passes, so networks (and GENESIS's
//!   re-training after compression) train entirely in-repo.
//! - [`model`]: a sequential network, parameter visitation, inference.
//! - [`train`]: minibatch SGD with momentum and cross-entropy loss.
//! - [`data`]: deterministic synthetic datasets with the same shapes and
//!   class structure as the paper's MNIST / HAR / OkG workloads (the real
//!   datasets and trained checkpoints are a data gate).
//! - [`quant`]: post-training quantization to Q1.15 with per-layer
//!   power-of-two scaling — the deployable form SONIC & TAILS execute.
//! - [`sparse`]: CSR matrices and sparse filter lists for pruned layers.
//! - [`metrics`]: accuracy and true-positive/negative rates (the `tp`/`tn`
//!   of the paper's IMpJ model).
//! - [`codec`]: a compact self-contained binary format for caching trained
//!   models on disk.
//!
//! # Example
//!
//! ```
//! use dnn::layers::Layer;
//! use dnn::model::Model;
//! use dnn::tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut model = Model::new(vec![
//!     Layer::dense(4, 3, &mut rng),
//!     Layer::relu(),
//!     Layer::dense(3, 2, &mut rng),
//! ]);
//! let logits = model.forward(&Tensor::from_vec(vec![4], vec![0.1, 0.2, 0.3, 0.4]));
//! assert_eq!(logits.shape(), &[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod data;
pub mod im2col;
pub mod layers;
pub mod metrics;
pub mod model;
pub mod quant;
pub mod sparse;
pub mod tensor;
pub mod train;

pub use layers::Layer;
pub use model::Model;
pub use tensor::Tensor;
