//! Extension experiment (README, *Extension experiments*): sweep of the
//! **early-firing start time**. The paper fixes the EF offset to `T/2` "based on the
//! experiments" without showing the sweep — this binary generates it,
//! exposing the latency/accuracy trade-off that motivates the choice.
//!
//! ```sh
//! cargo run --release -p t2fsnn-bench --bin repro_ef_sweep
//! ```

use serde::Serialize;
use t2fsnn::{T2fsnn, T2fsnnConfig};
use t2fsnn_bench::report::{percent, print_table, save_json};
use t2fsnn_bench::{prepare, Scenario};

#[derive(Serialize)]
struct EfSweepPoint {
    offset: usize,
    offset_fraction: f32,
    latency: usize,
    accuracy: f32,
    spikes_per_image: f64,
}

fn main() {
    let scenario = Scenario::Cifar10Like;
    let prepared = prepare(scenario);
    let (images, labels) = prepared.eval_subset(scenario.eval_images());
    let window = scenario.time_window();

    let mut points = Vec::new();
    // offset = T is the no-early-firing baseline; smaller offsets overlap
    // the pipeline more aggressively.
    let offsets: Vec<usize> = [1.0f32, 0.75, 0.5, 0.375, 0.25, 0.125]
        .iter()
        .map(|f| ((window as f32 * f).round() as usize).max(1))
        .collect();
    for &offset in &offsets {
        let config = if offset >= window {
            T2fsnnConfig::new(window)
        } else {
            T2fsnnConfig::new(window).with_early_start(offset)
        };
        let model =
            T2fsnn::from_dnn(&prepared.dnn, config, scenario.initial_kernel()).expect("conversion");
        let run = model.run(&images, &labels).expect("run");
        points.push(EfSweepPoint {
            offset,
            offset_fraction: offset as f32 / window as f32,
            latency: run.latency,
            accuracy: run.accuracy,
            spikes_per_image: run.spikes_per_image(),
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{} ({:.0}% of T)", p.offset, p.offset_fraction * 100.0),
                p.latency.to_string(),
                percent(p.accuracy),
                format!("{:.0}", p.spikes_per_image),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Early-firing start-time sweep ({}, T = {window}, DNN acc {:.2}%)",
            scenario.name(),
            prepared.dnn_accuracy * 100.0
        ),
        &["EF offset", "Latency", "Accuracy(%)", "Spikes/img"],
        &rows,
    );
    save_json("ef_sweep", &points);
    println!("\nExpected shape: latency falls linearly with the offset while");
    println!("accuracy holds until the offset gets small enough that critical");
    println!("information misses the non-guaranteed integration — supporting the");
    println!("paper's choice of T/2.");
}
