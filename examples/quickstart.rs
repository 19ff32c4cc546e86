//! Quickstart: train a CNN on a synthetic CIFAR-10-shaped task, convert it
//! to a T2FSNN with gradient-optimized kernels and early firing, and run
//! time-to-first-spike inference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::error::Error;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn::eval::{build_variant, Variant};
use t2fsnn::optimize::GoConfig;
use t2fsnn::KernelParams;
use t2fsnn_data::{DatasetSpec, SyntheticConfig};
use t2fsnn_dnn::architectures::{vgg_scaled, VggScale};
use t2fsnn_dnn::{evaluate, normalize_for_snn, train, TrainConfig};

fn main() -> Result<(), Box<dyn Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(42);

    // 1. A CIFAR-10-shaped synthetic dataset and a scaled VGG (the
    //    README's "Datasets and scaled networks" gives the rationale).
    println!("== T2FSNN quickstart ==");
    let spec = DatasetSpec::cifar10_like();
    let data = SyntheticConfig::new(spec.clone(), 7).generate(320);
    let (train_set, test_set) = data.split(256);
    let mut dnn = vgg_scaled(&mut rng, &spec, VggScale::default());
    println!("network: {}", dnn.summary());

    // 2. Train the source DNN. The deep scaled VGG wants a cooler
    //    learning rate than the shallow-net default.
    println!("\ntraining the source DNN…");
    let report = train(
        &mut dnn,
        &train_set,
        &TrainConfig {
            epochs: 8,
            sgd: t2fsnn_dnn::SgdConfig {
                lr: 0.02,
                momentum: 0.9,
                weight_decay: 5e-4,
            },
            ..TrainConfig::default()
        },
        &mut rng,
    )?;
    let dnn_acc = evaluate(&mut dnn, &test_set, 32)?;
    println!(
        "  final train acc {:.1}%, test acc {:.1}%",
        report.final_accuracy() * 100.0,
        dnn_acc * 100.0
    );

    // 3. Data-based normalization (bounds activations to [0, 1], θ0 = 1).
    normalize_for_snn(&mut dnn, &train_set.images, 0.999)?;

    // 4. Convert to T2FSNN+GO+EF: kernels trained by SGD, early firing at
    //    T/2 — the paper's best variant.
    println!("\nconverting to T2FSNN+GO+EF (T = 32)…");
    let model = build_variant(
        &mut dnn,
        &train_set.images,
        32,
        Variant { go: true, ef: true },
        KernelParams::new(8.0, 0.0),
        &GoConfig::default(),
        &mut rng,
    )?;
    for (i, k) in model.kernels().iter().enumerate() {
        println!("  layer {i}: τ = {:.2}, t_d = {:.2}", k.tau, k.t_d);
    }

    // 5. Spiking inference: one spike per neuron, spike time = value.
    let run = model.run(&test_set.images, &test_set.labels)?;
    println!("\n== results ==");
    println!(
        "  accuracy        {:.1}% (DNN: {:.1}%)",
        run.accuracy * 100.0,
        dnn_acc * 100.0
    );
    println!("  latency         {} time steps", run.latency);
    println!("  spikes/image    {:.0}", run.spikes_per_image());
    println!(
        "  synops          {} adds, {} kernel mults",
        run.synop_adds, run.synop_mults
    );
    for layer in &run.layers {
        println!(
            "  {:>10}: {:>8} spikes, first at t = {:?}",
            layer.name,
            layer.count,
            layer.first_spike_global()
        );
    }
    Ok(())
}
