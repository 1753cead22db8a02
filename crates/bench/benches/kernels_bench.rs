//! Criterion benches of the core simulation kernels: functional crossbar
//! operations, the analytical simulator, mapping engines and the DNN
//! framework's convolution.

use criterion::{criterion_group, criterion_main, Criterion};
use inca_arch::{mapping, ArchConfig};
use inca_nn::{layers, Layer as _, Tensor};
use inca_sim::{simulate_inference, simulate_training};
use inca_workloads::Model;
use inca_xbar::quant::bit_serial_dot;
use inca_xbar::{Crossbar2d, Stack3d, VerticalPlane};
use std::hint::black_box;

fn xbar_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("xbar");

    group.bench_function("plane_direct_conv_16x16_3x3", |b| {
        let mut plane = VerticalPlane::paper_default();
        let bits: Vec<u8> = (0..256).map(|i| (i % 2) as u8).collect();
        plane.write_bits(&bits).unwrap();
        let kernel = [1u8, 0, 1, 1, 1, 0, 0, 1, 1];
        b.iter(|| {
            let mut acc = 0u32;
            for r in 0..14 {
                for col in 0..14 {
                    acc += plane.direct_conv_window(r, col, 3, 3, &kernel).unwrap();
                }
            }
            black_box(acc)
        });
    });

    // Scalar byte-loop window sums, swept over kernel sizes on the
    // paper's 16x16 plane (every valid window).
    for k in [1usize, 3, 5, 7] {
        let mut plane = VerticalPlane::paper_default();
        let bits: Vec<u8> = (0..256).map(|i| ((i * 11) % 3 == 0) as u8).collect();
        plane.write_bits(&bits).unwrap();
        let kernel: Vec<u8> = (0..k * k).map(|i| ((i * 5) % 2) as u8).collect();
        let span = 16 - k + 1;
        group.bench_function(format!("plane_window_sum_scalar_k{k}"), |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for r in 0..span {
                    for col in 0..span {
                        acc += plane.conv_window_sum(r, col, k, k, &kernel).unwrap();
                    }
                }
                black_box(acc)
            });
        });
    }

    group.bench_function("stack3d_batch64_conv", |b| {
        let mut stack = Stack3d::new(16, 16, 64);
        let bits: Vec<u8> = (0..256).map(|i| ((i * 7) % 2) as u8).collect();
        for p in 0..64 {
            stack.write_plane(p, &bits).unwrap();
        }
        let kernel = [1u8, 1, 0, 0, 1, 1, 1, 0, 1];
        b.iter(|| black_box(stack.direct_conv_window(4, 4, 3, 3, &kernel).unwrap()));
    });

    group.bench_function("crossbar_mvm_128x128", |b| {
        let mut xbar = Crossbar2d::new(128, 128);
        let weights: Vec<u8> = (0..128 * 128).map(|i| ((i * 31) % 2) as u8).collect();
        for col in 0..128 {
            let bits: Vec<u8> = (0..128).map(|row| weights[row * 128 + col]).collect();
            xbar.program_column(col, &bits).unwrap();
        }
        let input: Vec<u8> = (0..128).map(|i| (i % 2) as u8).collect();
        b.iter(|| black_box(xbar.mvm_binary(&input).unwrap()));
    });

    group.bench_function("bit_serial_dot_1k_8bit", |b| {
        let xs: Vec<u32> = (0..1024).map(|i| (i * 37) % 256).collect();
        let ws: Vec<u32> = (0..1024).map(|i| (i * 91) % 256).collect();
        b.iter(|| black_box(bit_serial_dot(&xs, &ws, 8, 8)));
    });
    group.finish();
}

fn simulator_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    let inca = ArchConfig::inca_paper();
    let base = ArchConfig::baseline_paper();

    for model in [Model::ResNet18, Model::Vgg16, Model::MobileNetV2] {
        let spec = model.spec();
        group.bench_function(format!("inference_inca_{}", model.name()), |b| {
            b.iter(|| black_box(simulate_inference(&inca, &spec)))
        });
        group.bench_function(format!("training_baseline_{}", model.name()), |b| {
            b.iter(|| black_box(simulate_training(&base, &spec)))
        });
    }

    group.bench_function("mapping_is_vgg16", |b| {
        let spec = Model::Vgg16.spec();
        let engine = mapping::IsMapping::new(&inca);
        b.iter(|| black_box(engine.utilization(&spec)))
    });
    group.bench_function("spec_build_resnet50", |b| b.iter(|| black_box(Model::ResNet50.spec())));
    group.finish();
}

fn scheduling_kernels(c: &mut Criterion) {
    use inca_sim::schedule::{layer_jobs, schedule};
    use inca_xbar::{simulate_pipeline, PipelineConfig};
    let mut group = c.benchmark_group("scheduling");
    let cfg = ArchConfig::inca_paper();
    let spec = Model::Vgg16.spec();
    let jobs = layer_jobs(&cfg, &spec);
    group.bench_function("list_schedule_vgg16", |b| b.iter(|| black_box(schedule(&jobs, 16_128))));
    group.bench_function("schedule_network_resnet18", |b| {
        let rn = Model::ResNet18.spec();
        b.iter(|| black_box(schedule(&layer_jobs(&cfg, &rn), cfg.units_per_chip() as u64)))
    });
    group.bench_function("pipeline_4096_events", |b| {
        b.iter(|| black_box(simulate_pipeline(&PipelineConfig::paper_default(), 4096)))
    });
    group.finish();
}

fn hw_exec_kernels(c: &mut Criterion) {
    use inca_core::HwConv;
    let mut group = c.benchmark_group("hw-exec");
    group.sample_size(10);
    let mut w = Tensor::zeros(&[4, 2, 3, 3]);
    for (i, v) in w.data_mut().iter_mut().enumerate() {
        *v = ((i % 7) as f32 - 3.0) / 10.0;
    }
    let bias = [0.0f32; 4];
    let x = Tensor::full(&[1, 2, 16, 16], 0.5);
    group.bench_function("hw_conv_2ch_16x16", |b| {
        let conv = HwConv::from_float(&w, &bias, 1, 1).unwrap();
        b.iter(|| black_box(conv.forward(&x).unwrap()))
    });
    let xb = Tensor::full(&[8, 2, 12, 12], 0.5);
    group.bench_function("hw_batch_conv_8x12x12", |b| {
        let conv = HwConv::from_float(&w, &bias, 1, 1).unwrap();
        b.iter(|| black_box(conv.forward(&xb).unwrap()))
    });
    group.finish();
}

fn nn_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn");
    group.sample_size(20);

    group.bench_function("conv2d_fwd_bwd_8ch_16x16", |b| {
        let x = Tensor::full(&[4, 8, 16, 16], 0.5);
        b.iter(|| {
            let mut conv = layers::Conv2d::new(8, 8, 3, 1, 1, 0);
            let y = conv.forward(&x);
            let g = conv.backward(&Tensor::full(y.shape(), 1.0));
            black_box(g)
        });
    });
    group.finish();
}

criterion_group!(benches, xbar_kernels, simulator_kernels, scheduling_kernels, hw_exec_kernels, nn_kernels);
criterion_main!(benches);
