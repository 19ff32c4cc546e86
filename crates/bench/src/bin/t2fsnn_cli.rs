//! Command-line front end for the reproduction: train source networks,
//! run TTFS inference with any variant, and compare codings — without
//! writing Rust.
//!
//! ```sh
//! cargo run --release -p t2fsnn-bench --bin t2fsnn_cli -- help
//! cargo run --release -p t2fsnn-bench --bin t2fsnn_cli -- train --scenario cifar10-like
//! cargo run --release -p t2fsnn-bench --bin t2fsnn_cli -- run --scenario mnist-like --go --ef
//! cargo run --release -p t2fsnn-bench --bin t2fsnn_cli -- compare --scenario tiny
//! ```
//!
//! Argument parsing is hand-rolled to keep the dependency set at the
//! workspace's approved list.

use std::process::ExitCode;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn::eval::{build_variant, energy_table, CodingMeasurement, Variant};
use t2fsnn::optimize::GoConfig;
use t2fsnn_bench::report::{percent, print_table};
use t2fsnn_bench::{prepare, Scenario};
use t2fsnn_snn::coding::{BurstCoding, Coding, PhaseCoding, RateCoding};
use t2fsnn_snn::{simulate, SimConfig, SnnNetwork};

const USAGE: &str = "\
t2fsnn_cli — T2FSNN (DAC 2020) reproduction driver

USAGE:
    t2fsnn_cli <COMMAND> [OPTIONS]

COMMANDS:
    train      train (or load) a scenario's source DNN and report accuracy
    run        convert the DNN to a T2FSNN and run spiking inference
    compare    run rate/phase/burst/T2FSNN and print a Table II-style row set
    help       show this message

OPTIONS:
    --scenario <name>   mnist-like | cifar10-like | cifar100-like | tiny
                        (default: tiny)
    --go                enable gradient-based kernel optimization (run)
    --ef                enable early firing (run)
    --window <T>        override the TTFS time window (run)
    --images <N>        evaluation subset size (run/compare)

Set T2FSNN_QUICK=1 to shrink training for smoke tests.";

struct Args {
    command: String,
    scenario: Scenario,
    go: bool,
    ef: bool,
    window: Option<usize>,
    images: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_string());
    let mut args = Args {
        command,
        scenario: Scenario::Tiny,
        go: false,
        ef: false,
        window: None,
        images: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--scenario" => {
                let name = argv.next().ok_or("--scenario needs a value")?;
                args.scenario = Scenario::from_name(&name)
                    .ok_or_else(|| format!("unknown scenario `{name}`"))?;
            }
            "--go" => args.go = true,
            "--ef" => args.ef = true,
            "--window" => {
                let v = argv.next().ok_or("--window needs a value")?;
                args.window = Some(v.parse().map_err(|_| format!("bad window `{v}`"))?);
            }
            "--images" => {
                let v = argv.next().ok_or("--images needs a value")?;
                args.images = Some(v.parse().map_err(|_| format!("bad image count `{v}`"))?);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

fn cmd_train(args: &Args) {
    let prepared = prepare(args.scenario);
    println!(
        "{}: {} train / {} test samples, DNN test accuracy {:.2}%",
        args.scenario.name(),
        prepared.train.len(),
        prepared.test.len(),
        prepared.dnn_accuracy * 100.0
    );
    println!("network: {}", prepared.dnn.summary());
}

fn cmd_run(args: &Args) {
    let mut prepared = prepare(args.scenario);
    let n = args.images.unwrap_or_else(|| args.scenario.eval_images());
    let (images, labels) = prepared.eval_subset(n);
    let window = args.window.unwrap_or_else(|| args.scenario.time_window());
    let variant = Variant {
        go: args.go,
        ef: args.ef,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let model = build_variant(
        &mut prepared.dnn,
        &prepared.train.images,
        window,
        variant,
        args.scenario.initial_kernel(),
        &GoConfig::default(),
        &mut rng,
    )
    .expect("conversion failed");
    let run = model.run(&images, &labels).expect("inference failed");
    println!(
        "{} on {} ({} images, T = {window})",
        variant.name(),
        args.scenario.name(),
        labels.len()
    );
    println!(
        "  accuracy      {:.2}% (DNN {:.2}%)",
        run.accuracy * 100.0,
        prepared.dnn_accuracy * 100.0
    );
    println!("  latency       {} steps", run.latency);
    println!("  spikes/image  {:.0}", run.spikes_per_image());
    for layer in &run.layers {
        println!(
            "    {:>10}: {:>8} spikes, first at {:?}",
            layer.name,
            layer.count,
            layer.first_spike_global()
        );
    }
}

fn cmd_compare(args: &Args) {
    let mut prepared = prepare(args.scenario);
    let n = args.images.unwrap_or_else(|| args.scenario.eval_images());
    let (images, labels) = prepared.eval_subset(n);
    let snn = SnnNetwork::from_dnn(&prepared.dnn).expect("conversion failed");
    let mut measurements = Vec::new();
    let baselines: Vec<(Box<dyn Coding>, usize)> = vec![
        (Box::new(RateCoding::new()), args.scenario.rate_steps()),
        (
            Box::new(PhaseCoding::new(8)),
            args.scenario.fast_coding_steps(),
        ),
        (
            Box::new(BurstCoding::new(5)),
            args.scenario.fast_coding_steps(),
        ),
    ];
    for (mut coding, steps) in baselines {
        eprintln!("simulating {} for {steps} steps…", coding.name());
        let outcome = simulate(
            &snn,
            coding.as_mut(),
            &images,
            &labels,
            &SimConfig::new(steps, (steps / 16).max(1)),
        )
        .expect("simulation failed");
        measurements.push(CodingMeasurement::from_sim(&outcome, 0.005));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let model = build_variant(
        &mut prepared.dnn,
        &prepared.train.images,
        args.scenario.time_window(),
        Variant { go: true, ef: true },
        args.scenario.initial_kernel(),
        &GoConfig::default(),
        &mut rng,
    )
    .expect("conversion failed");
    let run = model.run(&images, &labels).expect("inference failed");
    measurements.push(CodingMeasurement::from_ttfs("T2FSNN+GO+EF", &run));

    let reference = measurements[0].clone();
    let energy = energy_table(&measurements, &reference).expect("energy");
    let rows: Vec<Vec<String>> = measurements
        .iter()
        .zip(&energy)
        .map(|(m, e)| {
            vec![
                m.coding.clone(),
                percent(m.accuracy),
                m.latency.to_string(),
                format!("{:.0}", m.spikes_per_image()),
                format!("{:.3}", e.truenorth),
                format!("{:.3}", e.spinnaker),
            ]
        })
        .collect();
    print_table(
        &format!("{} comparison", args.scenario.name()),
        &["Coding", "Acc(%)", "Latency", "Spk/img", "E(TN)", "E(SN)"],
        &rows,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match args.command.as_str() {
        "train" => cmd_train(&args),
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    // With T2FSNN_PROFILE=1 / T2FSNN_TRACE=<path>: the per-phase time
    // table on stderr and the flight recorder as Chrome trace JSON.
    t2fsnn_tensor::profile::eprint_report("t2fsnn_cli");
    t2fsnn_tensor::trace::export_env_trace();
    ExitCode::SUCCESS
}
