//! Reproduces **Figure 6**: accuracy-versus-time-step inference curves for
//! rate, phase, burst and the four T2FSNN variants, on the CIFAR-10-like
//! and CIFAR-100-like scenarios.
//!
//! ```sh
//! cargo run --release -p t2fsnn-bench --bin repro_fig6
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use t2fsnn::eval::{build_variant_calibrated, Variant};
use t2fsnn::optimize::{GoCalibration, GoConfig};
use t2fsnn_bench::report::save_json;
use t2fsnn_bench::{prepare, Scenario};
use t2fsnn_snn::coding::{BurstCoding, Coding, PhaseCoding, RateCoding};
use t2fsnn_snn::{simulate, CurvePoint, SimConfig, SnnNetwork};

#[derive(Serialize)]
struct Fig6Series {
    scenario: &'static str,
    series: String,
    curve: Vec<CurvePoint>,
}

fn print_curve(name: &str, curve: &[CurvePoint]) {
    let pts: Vec<String> = curve
        .iter()
        .map(|p| format!("({}, {:.1}%)", p.step, p.accuracy * 100.0))
        .collect();
    println!("{name:<14} {}", pts.join(" "));
}

fn main() {
    let mut all = Vec::new();
    for scenario in [Scenario::Cifar10Like, Scenario::Cifar100Like] {
        println!("\n==== Fig. 6: {} ====", scenario.name());
        let mut prepared = prepare(scenario);
        let (images, labels) = prepared.eval_subset(scenario.eval_images());
        let snn = SnnNetwork::from_dnn(&prepared.dnn).expect("conversion");

        let baselines: Vec<(Box<dyn Coding>, usize)> = vec![
            (Box::new(RateCoding::new()), scenario.rate_steps()),
            (Box::new(PhaseCoding::new(8)), scenario.fast_coding_steps()),
            (Box::new(BurstCoding::new(5)), scenario.fast_coding_steps()),
        ];
        for (mut coding, steps) in baselines {
            let name = coding.name().to_string();
            eprintln!("[fig6] {}: {name} for {steps} steps…", scenario.name());
            let outcome = simulate(
                &snn,
                coding.as_mut(),
                &images,
                &labels,
                &SimConfig::new(steps, (steps / 16).max(1)),
            )
            .expect("simulation");
            print_curve(&name, &outcome.curve);
            all.push(Fig6Series {
                scenario: scenario.name(),
                series: name,
                curve: outcome.curve,
            });
        }

        // One streamed DNN forward over the training split collects the
        // GO ground truth that every GO variant trains against.
        let calibration =
            GoCalibration::collect(&mut prepared.dnn, &prepared.train.images).expect("calibration");
        for variant in Variant::ALL {
            let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed() + 6);
            let model = build_variant_calibrated(
                &prepared.dnn,
                &calibration,
                scenario.time_window(),
                variant,
                scenario.initial_kernel(),
                &GoConfig::default(),
                &mut rng,
            )
            .expect("variant build");
            let run = model.run(&images, &labels).expect("run");
            print_curve(&variant.name(), &run.curve);
            all.push(Fig6Series {
                scenario: scenario.name(),
                series: variant.name(),
                curve: run.curve,
            });
        }
    }
    save_json("fig6_inference_curves", &all);
    println!("\nPaper's Fig. 6 shape to verify: rate coding converges slowest;");
    println!("T2FSNN+GO+EF reaches its final accuracy at the earliest time step;");
    println!("EF variants finish roughly twice as early as their non-EF versions.");
    // With T2FSNN_PROFILE=1: where the wall-clock went, per phase/op
    // (written to stderr so harnesses that capture stdout still show it).
    t2fsnn_tensor::profile::eprint_report("repro_fig6");
    // With T2FSNN_TRACE=<path>: the flight recorder's span tree as
    // Chrome trace-event JSON (open in Perfetto / chrome://tracing).
    t2fsnn_tensor::trace::export_env_trace();
}
