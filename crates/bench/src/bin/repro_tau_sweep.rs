//! Extension experiment (README, *Extension experiments*): sweep of the
//! kernel time constant
//! τ at fixed window T — the precision-versus-representable-range
//! trade-off of Sec. III-B, measured end to end instead of through the
//! loss proxies.
//!
//! ```sh
//! cargo run --release -p t2fsnn-bench --bin repro_tau_sweep
//! ```

use serde::Serialize;
use t2fsnn::kernel::{ExpKernel, KernelParams};
use t2fsnn::{T2fsnn, T2fsnnConfig};
use t2fsnn_bench::report::{percent, print_table, save_json};
use t2fsnn_bench::{prepare, Scenario};

#[derive(Serialize)]
struct TauSweepPoint {
    tau: f32,
    min_representable: f32,
    precision_error_at_half: f32,
    accuracy: f32,
    spikes_per_image: f64,
}

fn main() {
    let scenario = Scenario::Cifar10Like;
    let prepared = prepare(scenario);
    let (images, labels) = prepared.eval_subset(scenario.eval_images());
    let window = scenario.time_window();

    let mut points = Vec::new();
    for tau in [2.0f32, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0] {
        let params = KernelParams::new(tau, 0.0);
        let kernel = ExpKernel::new(params, window);
        let model =
            T2fsnn::from_dnn(&prepared.dnn, T2fsnnConfig::new(window), params).expect("conversion");
        let run = model.run(&images, &labels).expect("run");
        points.push(TauSweepPoint {
            tau,
            min_representable: kernel.min_representable(),
            precision_error_at_half: kernel.precision_error_bound(0.5),
            accuracy: run.accuracy,
            spikes_per_image: run.spikes_per_image(),
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.tau),
                format!("{:.2e}", p.min_representable),
                format!("{:.3}", p.precision_error_at_half),
                percent(p.accuracy),
                format!("{:.0}", p.spikes_per_image),
            ]
        })
        .collect();
    print_table(
        &format!(
            "τ sweep ({}, T = {window}, DNN acc {:.2}%)",
            scenario.name(),
            prepared.dnn_accuracy * 100.0
        ),
        &[
            "tau",
            "min repr.",
            "prec err @0.5",
            "Accuracy(%)",
            "Spikes/img",
        ],
        &rows,
    );
    save_json("tau_sweep", &points);
    println!("\nExpected shape (Sec. III-B): small τ → coarse precision hurts;");
    println!("large τ → small activations become unrepresentable and die; the");
    println!("sweet spot sits in between — which is exactly what GO finds");
    println!("automatically.");
}
