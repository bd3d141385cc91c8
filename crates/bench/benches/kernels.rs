//! Criterion micro-benchmarks for the inference hot paths.
//!
//! Six sections:
//!
//! 1. **f32 convolution** — the naive 6-loop reference vs. the
//!    im2col/GEMM path, on the Table-2 network shapes. The acceptance
//!    bar for the kernel rework is a ≥3× speedup on these; the printed
//!    `speedup` lines make that visible directly.
//! 2. **Q15 deployed kernels** — the restructured `conv_host` /
//!    `dense_host` vs. the element-at-a-time reference loops, dense and
//!    sparse, with MAC throughput.
//! 3. **f32 training kernels** — one HAR sample's forward, backward and
//!    SGD step of the 192×2450 fully-connected layer, dense vs pruned to
//!    density 0.04 (the kept-weight loops of GENESIS re-training), and the
//!    convolution backward pass at the HAR conv and `sep(4,4)` pointwise
//!    shapes.
//! 4. **Sparse FC on the device** — host time per SONIC and per TAILS run
//!    of the HAR Table-2 network's pruned fully-connected layer
//!    (192×2450) alone, on continuous power and on a 100 µF buffer: the
//!    per-layer view of the simulator's costliest loop, sparse
//!    undo-logging's scatter.
//! 5. **Metered Tile-N** — host time per run and per task transition of
//!    the HAR Table-2 network under Tile-8, Tile-32 and Tile-128 (the
//!    Alpaca redo-log backends), on continuous power and on a 100 µF
//!    buffer: the per-layer view of taped bodies and one-charge commits.
//!    Then Base's host time per run on 1 mF, where it retries its one
//!    task nine times per run: the view of whole-output funded runs.
//! 6. **Simulator backends** — end-to-end `run_inference` on the
//!    energy-metered device model (the original contents of this bench).
//!
//! `CRITERION_QUICK=1` shrinks the measurement budget for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use dnn::im2col::{conv2d_im2col, conv2d_naive, conv_out_dims};
use dnn::layers::Layer;
use dnn::model::Model;
use dnn::quant::{
    conv_host, conv_host_reference, csr_from_weights, dense_host, dense_host_reference, quantize,
    sparse_taps_from_weights, QConv, QDense, QLayer, QModel,
};
use dnn::tensor::Tensor;
use dnn::train::Sgd;
use fxp::Q15;
use mcu::{DeviceSpec, PowerSystem};
use rand::{Rng, SeedableRng};
use sonic::exec::{run_deployed, run_inference, Backend, TailsConfig};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// The Table-2 convolution shapes: (label, nf, c, kh, kw, h, w).
const CONV_SHAPES: [(&str, usize, usize, usize, usize, usize, usize); 4] = [
    ("mnist-conv1-20x1x5x5", 20, 1, 5, 5, 28, 28),
    ("mnist-conv2-100x20x5x5", 100, 20, 5, 5, 12, 12),
    ("har-conv-98x3x1x12", 98, 3, 1, 12, 1, 61),
    ("okg-conv-186x1x98x8", 186, 1, 98, 8, 98, 34),
];

fn report_throughput(label: &str, macs: u64, ns: f64) {
    println!("    {label}: {:.0} MMAC/s", macs as f64 / ns * 1e3);
}

fn bench_f32_conv(c: &mut Criterion) {
    println!("== f32 convolution: naive loop nest vs im2col/GEMM (Table 2 shapes) ==");
    let mut speedups = Vec::new();
    for (label, nf, nc, kh, kw, h, w) in CONV_SHAPES {
        let mut r = rng(11);
        let x: Vec<f32> = (0..nc * h * w).map(|_| r.gen_range(-1.0..1.0)).collect();
        let filters: Vec<f32> = (0..nf * nc * kh * kw)
            .map(|_| r.gen_range(-1.0..1.0))
            .collect();
        let bias: Vec<f32> = (0..nf).map(|_| r.gen_range(-0.5..0.5)).collect();
        let (oh, ow) = conv_out_dims(h, w, kh, kw);
        let macs = (nf * nc * kh * kw * oh * ow) as u64;
        let mut out = vec![0.0f32; nf * oh * ow];
        let mut patches = Vec::new();

        let naive_id = format!("conv-f32-naive/{label}");
        c.bench_function(&naive_id, |b| {
            b.iter(|| {
                conv2d_naive(&x, &filters, &bias, nc, h, w, nf, kh, kw, &mut out);
                out[0]
            })
        });
        let im2col_id = format!("conv-f32-im2col/{label}");
        c.bench_function(&im2col_id, |b| {
            b.iter(|| {
                conv2d_im2col(
                    &x,
                    &filters,
                    &bias,
                    nc,
                    h,
                    w,
                    nf,
                    kh,
                    kw,
                    &mut patches,
                    &mut out,
                );
                out[0]
            })
        });
        let (naive_ns, fast_ns) = (
            c.median_ns(&naive_id).expect("naive measured"),
            c.median_ns(&im2col_id).expect("im2col measured"),
        );
        let speedup = naive_ns / fast_ns;
        report_throughput("im2col", macs, fast_ns);
        println!("    speedup {label}: {speedup:.2}x");
        speedups.push(speedup);
    }
    let geomean = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
    println!("  conv forward geomean speedup: {:.2}x\n", geomean.exp());
}

fn random_q15(r: &mut rand::rngs::StdRng) -> Q15 {
    Q15::from_raw(r.gen_range(-32768..32768i32) as i16)
}

fn q15_conv_case(
    nf: usize,
    nc: usize,
    kh: usize,
    kw: usize,
    h: usize,
    w: usize,
    density: Option<f64>,
) -> (QConv, Vec<Q15>) {
    let mut r = rng(13);
    let mut weights: Vec<Q15> = (0..nf * nc * kh * kw).map(|_| random_q15(&mut r)).collect();
    let sparse = density.map(|d| {
        for v in weights.iter_mut() {
            if r.gen_bool(1.0 - d) {
                *v = Q15::ZERO;
            }
        }
        sparse_taps_from_weights([nf, nc, kh, kw], &weights)
    });
    let conv = QConv {
        dims: [nf, nc, kh, kw],
        weights,
        bias: (0..nf).map(|_| random_q15(&mut r)).collect(),
        shift: 0,
        sparse,
    };
    let x: Vec<Q15> = (0..nc * h * w).map(|_| random_q15(&mut r)).collect();
    (conv, x)
}

fn bench_q15_kernels(c: &mut Criterion) {
    println!("== Q15 deployed kernels: reference loops vs restructured vecops paths ==");
    // Dense conv (MNIST conv1 shape) and a 30%-density sparse variant.
    let (nf, nc, kh, kw, h, w) = (20, 1, 5, 5, 28, 28);
    for (label, density) in [("dense", None), ("sparse30", Some(0.3))] {
        let (conv, x) = q15_conv_case(nf, nc, kh, kw, h, w, density);
        let shape = [nc, h, w];
        let nnz: u64 = match &conv.sparse {
            Some(s) => s.taps.iter().map(|t| t.len() as u64).sum(),
            None => conv.weights.len() as u64,
        };
        let (oh, ow) = conv_out_dims(h, w, kh, kw);
        let (oh, ow) = (oh as u64, ow as u64);
        let ref_id = format!("conv-q15-reference/{label}");
        c.bench_function(&ref_id, |b| {
            b.iter(|| conv_host_reference(&conv, &x, &shape))
        });
        let opt_id = format!("conv-q15-optimized/{label}");
        c.bench_function(&opt_id, |b| b.iter(|| conv_host(&conv, &x, &shape)));
        let (ref_ns, opt_ns) = (
            c.median_ns(&ref_id).expect("measured"),
            c.median_ns(&opt_id).expect("measured"),
        );
        report_throughput("optimized", nnz * oh * ow, opt_ns);
        println!("    speedup conv-q15/{label}: {:.2}x", ref_ns / opt_ns);
    }

    // Fully-connected fc 200x1600 (MNIST's big layer), dense and 5% CSR.
    let (out_n, in_n) = (200usize, 1600usize);
    let mut r = rng(17);
    for (label, density) in [("dense", 1.0f64), ("sparse05", 0.05)] {
        let mut weights: Vec<Q15> = (0..out_n * in_n).map(|_| random_q15(&mut r)).collect();
        let sparse = (density < 1.0).then(|| {
            for v in weights.iter_mut() {
                if r.gen_bool(1.0 - density) {
                    *v = Q15::ZERO;
                }
            }
            csr_from_weights([out_n, in_n], &weights)
        });
        let nnz = match &sparse {
            Some(s) => s.val.len() as u64,
            None => (out_n * in_n) as u64,
        };
        let dense_layer = QDense {
            dims: [out_n, in_n],
            weights,
            bias: (0..out_n).map(|_| random_q15(&mut r)).collect(),
            shift: 0,
            sparse,
        };
        let x: Vec<Q15> = (0..in_n).map(|_| random_q15(&mut r)).collect();
        let ref_id = format!("fc-q15-reference/{label}");
        c.bench_function(&ref_id, |b| {
            b.iter(|| dense_host_reference(&dense_layer, &x))
        });
        let opt_id = format!("fc-q15-optimized/{label}");
        c.bench_function(&opt_id, |b| b.iter(|| dense_host(&dense_layer, &x)));
        let (ref_ns, opt_ns) = (
            c.median_ns(&ref_id).expect("measured"),
            c.median_ns(&opt_id).expect("measured"),
        );
        report_throughput("optimized", nnz, opt_ns);
        println!("    speedup fc-q15/{label}: {:.2}x", ref_ns / opt_ns);
    }
    println!();
}

/// A `[out, inp]` dense layer, pruned to `density` when below 1.
fn fc_layer(out: usize, inp: usize, density: f64, r: &mut rand::rngs::StdRng) -> Layer {
    let mut l = Layer::dense(inp, out, r);
    if density < 1.0 {
        let mask: Vec<f32> = (0..out * inp)
            .map(|_| r.gen_bool(density) as u8 as f32)
            .collect();
        l.set_mask(Tensor::from_vec(vec![out, inp], mask));
    }
    l
}

fn bench_training(c: &mut Criterion) {
    println!("== f32 training kernels: HAR fc 192x2450, dense vs kept-weight loops ==");
    let (out, inp) = (192usize, 2450usize);
    for (label, density) in [("dense", 1.0f64), ("masked04", 0.04)] {
        let mut r = rng(19);
        let mut m = Model::new(vec![fc_layer(out, inp, density, &mut r)]);
        let xs: Vec<Tensor> = (0..16)
            .map(|_| Tensor::uniform(vec![inp], 1.0, &mut r))
            .collect();
        let gs: Vec<Tensor> = (0..16)
            .map(|_| Tensor::uniform(vec![out], 1.0, &mut r))
            .collect();
        // Per-sample cost of one pass over a minibatch of 1 and of 16.
        for pass in ["forward", "backward"] {
            let mut us = [0.0; 2];
            for (us, batch) in us.iter_mut().zip([1usize, 16]) {
                let l = &mut m.layers_mut()[0];
                l.forward_batch(&xs[..batch]);
                let id = format!("fc-train-{pass}/{label}/batch{batch}");
                c.bench_function(&id, |b| match pass {
                    "forward" => b.iter(|| std::hint::black_box(l.forward_batch(&xs[..batch]))),
                    _ => b.iter(|| std::hint::black_box(l.backward_batch(&gs[..batch]))),
                });
                *us = c.median_ns(&id).expect("measured") / batch as f64 / 1e3;
            }
            println!(
                "    {pass} {label}: {:.1} us/sample at batch 1, {:.1} us/sample at batch 16 ({:.2}x)",
                us[0],
                us[1],
                us[0] / us[1]
            );
        }
        let mut opt = Sgd::new(&mut m, 0.01, 0.9);
        let id = format!("fc-train-step/{label}");
        c.bench_function(&id, |b| b.iter(|| opt.step(&mut m, 16)));
        if density < 1.0 {
            let ns = c.median_ns(&id).expect("measured");
            let dense_ns = c
                .median_ns("fc-train-step/dense")
                .expect("dense measured first");
            println!("    speedup {id}: {:.2}x", dense_ns / ns);
        }
    }
    // The HAR conv and the pointwise conv of a `sep(4,4)` plan, filter
    // and input gradients both.
    for (label, nf, nc, kw, w) in [
        ("har-conv-98x3x1x12", 98, 3, 12, 61),
        ("har-pointwise-98x4x1x1", 98, 4, 1, 50),
    ] {
        let mut r = rng(23);
        let mut l = Layer::conv2d(nf, nc, 1, kw, &mut r);
        let x = Tensor::uniform(vec![nc, 1, w], 1.0, &mut r);
        let ow = w - kw + 1;
        l.forward(&x);
        let g = Tensor::uniform(vec![nf, 1, ow], 1.0, &mut r);
        let id = format!("conv-train-backward/{label}");
        c.bench_function(&id, |b| b.iter(|| std::hint::black_box(l.backward(&g))));
        let ns = c.median_ns(&id).expect("measured");
        report_throughput("backward", (2 * nf * nc * kw * ow) as u64, ns);
    }
    println!();
}

/// The HAR Table-2 network's sparse fully-connected layer alone, as a
/// one-layer model, with a seeded random input.
fn har_sparse_fc() -> (QModel, Vec<Q15>) {
    let har = models::trained(models::Network::Har);
    let fc = har
        .qmodel
        .layers
        .iter()
        .find_map(|l| match l {
            QLayer::Dense(d) if d.sparse.is_some() => Some(d.clone()),
            _ => None,
        })
        .expect("the HAR network has a sparse FC");
    let mut r = rng(31);
    let input = (0..fc.dims[1]).map(|_| random_q15(&mut r)).collect();
    let qm = QModel {
        input_shape: vec![fc.dims[1]],
        layers: vec![QLayer::Dense(fc)],
    };
    (qm, input)
}

fn bench_sparse_fc(c: &mut Criterion) {
    let (qm, input) = har_sparse_fc();
    let QLayer::Dense(fc) = &qm.layers[0] else {
        unreachable!("a one-dense-layer model")
    };
    let nnz = fc.sparse.as_ref().map_or(0, |s| s.val.len());
    println!(
        "== sparse FC on the device: HAR fc {}x{}, {nnz} nonzeros, host time per run ==",
        fc.dims[0], fc.dims[1]
    );
    let spec = DeviceSpec::msp430fr5994();
    for b in [Backend::Sonic, Backend::Tails(TailsConfig::default())] {
        for power in [PowerSystem::continuous(), PowerSystem::harvested(100e-6)] {
            // One deployment, inference after inference: each run resets
            // the layer's control words, so every run repeats the layer.
            let mut dev = mcu::Device::new(spec.clone(), power.clone());
            let dm = sonic::deploy(&mut dev, &qm).expect("the FC fits in FRAM");
            dm.load_input(&mut dev, &input);
            let id = format!("sparse-fc/{}/{}", b.label(), power.label());
            c.bench_function(&id, |bench| {
                bench.iter(|| std::hint::black_box(run_deployed(&mut dev, &dm, &b)))
            });
            let us = c.median_ns(&id).expect("measured") / 1e3;
            println!("    {}/{}: {us:.0} us/run", b.label(), power.label());
        }
    }
    println!();
}

fn bench_tiled(c: &mut Criterion) {
    println!(
        "== metered Tile-N and Base on the device: HAR network, host time per run and transition =="
    );
    let har = models::trained(models::Network::Har);
    let input = har.qmodel.quantize_input(&har.test.input(0));
    let spec = DeviceSpec::msp430fr5994();
    for tile in [8, 32, 128] {
        let b = Backend::Tiled(tile);
        for power in [PowerSystem::continuous(), PowerSystem::harvested(100e-6)] {
            // One deployment, inference after inference (each run resets
            // the control words).
            let mut dev = mcu::Device::new(spec.clone(), power.clone());
            let dm = sonic::deploy(&mut dev, &har.qmodel).expect("HAR fits in FRAM");
            dm.load_input(&mut dev, &input);
            let out = run_deployed(&mut dev, &dm, &b);
            let id = format!("tiled/{}/{}", b.label(), power.label());
            c.bench_function(&id, |bench| {
                bench.iter(|| std::hint::black_box(run_deployed(&mut dev, &dm, &b)))
            });
            let us = c.median_ns(&id).expect("measured") / 1e3;
            match out.stats {
                Some(s) => println!(
                    "    {}/{}: {us:.0} us/run, {:.0} ns/transition ({} transitions)",
                    b.label(),
                    power.label(),
                    us * 1e3 / s.transitions as f64,
                    s.transitions
                ),
                None => println!(
                    "    {}/{}: {us:.0} us/run, does not complete",
                    b.label(),
                    power.label()
                ),
            }
        }
    }
    // Base on 1 mF, the fleet-harvest power where it retries its one
    // task nine times per run: every output one funded iteration.
    let power = PowerSystem::harvested(1e-3);
    let mut dev = mcu::Device::new(spec.clone(), power.clone());
    let dm = sonic::deploy(&mut dev, &har.qmodel).expect("HAR fits in FRAM");
    dm.load_input(&mut dev, &input);
    let out = run_deployed(&mut dev, &dm, &Backend::Baseline);
    let id = format!("tiled/Base/{}", power.label());
    c.bench_function(&id, |bench| {
        bench.iter(|| std::hint::black_box(run_deployed(&mut dev, &dm, &Backend::Baseline)))
    });
    let us = c.median_ns(&id).expect("measured") / 1e3;
    println!(
        "    Base/{}: {us:.0} us/run ({} attempts per run)",
        power.label(),
        out.trace.reboots + 1
    );
    println!();
}

fn tiny() -> (dnn::quant::QModel, Vec<fxp::Q15>) {
    let mut rng = rng(5);
    let mut m = Model::new(vec![
        Layer::conv2d(4, 1, 3, 3, &mut rng),
        Layer::relu(),
        Layer::flatten(),
        Layer::dense(4 * 10 * 10, 6, &mut rng),
    ]);
    let shape = [1usize, 12, 12];
    let calib: Vec<Tensor> = (0..2)
        .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
        .collect();
    let qm = quantize(&mut m, &shape, &calib);
    let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
    let input = qm.quantize_input(&x);
    (qm, input)
}

fn bench_backends(c: &mut Criterion) {
    println!("== end-to-end simulator throughput per backend ==");
    let (qm, input) = tiny();
    let spec = DeviceSpec::msp430fr5994();
    for b in [
        Backend::Baseline,
        Backend::Sonic,
        Backend::Tiled(32),
        Backend::Tails(TailsConfig::default()),
    ] {
        c.bench_function(&format!("simulate-{}", b.label()), |bench| {
            bench.iter(|| {
                std::hint::black_box(run_inference(
                    &qm,
                    &input,
                    &spec,
                    PowerSystem::continuous(),
                    &b,
                ))
            })
        });
    }
}

criterion_group!(
    benches,
    bench_f32_conv,
    bench_q15_kernels,
    bench_training,
    bench_sparse_fc,
    bench_tiled,
    bench_backends
);
criterion_main!(benches);
