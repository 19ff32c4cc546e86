//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-solo --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads run in-process, calling the public functions of the
//! repository's crates and timing each call from here:
//!
//! * `serve-solo` — an in-process server on the `tiny` model, one
//!   keep-alive connection in a closed loop. The request path when no
//!   batch company can arrive.
//! * `serve-pair` — the same on the `cifar100-like` model with two
//!   connections, one client thread each. The engine-bound path, where
//!   batches of two form.
//! * `fig6-repro` — the Fig. 6 pipeline on `cifar10-like` and
//!   `cifar100-like` (see [`fig6`]). The offline research path.
//!
//! The seed fixes the order in which each workload visits its scenario's
//! held-out test split. Every end-to-end metric is reported for every
//! workload (unit in brackets):
//!
//! | metric | serving workloads | `fig6-repro` |
//! |---|---|---|
//! | `setup_s` [s] | `Registry::load` + `start`, median of ≥ 5 repeats | both `prepare` calls, median of ≥ 5 |
//! | `latency_p50_us` [us] | client latency per request, median | wall time per pass, median |
//! | `latency_p99_us` [us] | the tail under the rank rule ([`stats`]) | same, over passes |
//! | `throughput_rps` [1/s] | answered requests per second | passes per second |
//! | `wall_s` [s] | time to answer the whole test split once | wall time per pass, median |
//! | `success_rate` [ratio] | 1 − error rate | 1 − error rate |
//! | `peak_rss_mb` [MB] | `VmHWM` of this process | same |
//! | `accuracy` [ratio] | answers against test labels | T2FSNN+GO+EF, mean of the two scenarios |
//! | `spikes_per_image` [count] | input + hidden spikes per answer | same variant |
//! | `steps_per_image` [count] | simulated steps per answer | same variant |
//!
//! The error rate is (failed + refused + wrong answers) ÷ attempted; it
//! is printed as such, and reported as `success_rate` because a metric
//! that is 0 on a healthy run has no relative spread. The JSON result
//! carries the metrics `BENCHMARK.json` bounds; `latency_p99_us`,
//! `throughput_rps` and `wall_s` are printed but not bounded, because on
//! a shared VM they move too much from run to run (see [`end_to_end`]). Every served `200`
//! must equal a solo in-process `T2fsnn::infer` of the same image bit
//! for bit, and `fig6-repro` must repeat itself across passes and match
//! `SimEngine::Dense` on a fixed subset. Any mismatch fails the run.
//!
//! `--trace 1` is the separate traced run: the program's flight recorder
//! is on (the serve default), the benchmark records its own span around
//! every timed call and writes them to `perfbench/out/`, and the per-layer
//! metrics are printed with their share of the end-to-end metric each
//! should move. A run first measures half its time untraced, so
//! `trace.overhead_pct` compares the two halves. Layers off a workload's
//! own path are measured by a short probe of the other path on the
//! workload's model(s) and marked as such in the table.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod fig6;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime};

use t2fsnn_bench::{prepare, Prepared, Scenario};
use t2fsnn_serve::Registry;
use t2fsnn_tensor::ThreadPool;

use crate::spans::Spans;
use crate::stats::{median, Summary};

const USAGE: &str = "usage: perfbench --workload <serve-solo|serve-pair|fig6-repro> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// A run sets up at least this many times, and for at least
/// [`SETUP_SECONDS`], reporting the median: a millisecond set-up needs
/// many repeats before its median stops moving with machine noise.
const SETUP_REPEATS: usize = 5;

/// Minimum wall time a run spends repeating its set-up.
const SETUP_SECONDS: f64 = 1.0;

/// Whether a set-up loop started at `start` with `done` repeats is done.
fn setups_done(start: Instant, done: usize) -> bool {
    done >= SETUP_REPEATS && start.elapsed().as_secs_f64() >= SETUP_SECONDS
}

/// Direct `infer` calls per kind when timing the core engine.
const CORE_CALLS: usize = 200;

/// Measured seconds of the serving probe a traced `fig6-repro` run makes.
const SERVE_PROBE_SECONDS: f64 = 2.0;

#[derive(Clone, Copy)]
enum Workload {
    ServeSolo,
    ServePair,
    Fig6,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-solo" => Some(Workload::ServeSolo),
            "serve-pair" => Some(Workload::ServePair),
            "fig6-repro" => Some(Workload::Fig6),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeSolo => "serve-solo",
            Workload::ServePair => "serve-pair",
            Workload::Fig6 => "fig6-repro",
        }
    }

    fn scenarios(self) -> Vec<Scenario> {
        match self.serving() {
            Some((scenario, _)) => vec![scenario],
            None => fig6::SCENARIOS.to_vec(),
        }
    }

    /// `(scenario, client connections)` of a serving workload.
    fn serving(self) -> Option<(Scenario, usize)> {
        match self {
            Workload::ServeSolo => Some((Scenario::Tiny, 1)),
            Workload::ServePair => Some((Scenario::Cifar100Like, 2)),
            Workload::Fig6 => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One run's result: what was attempted, what failed, what was wrong,
/// and the metrics, in print order.
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--warm-cache") {
        // Child-process mode: train the named scenarios' cold caches so
        // the training never shares a process (or a peak RSS) with a run.
        for name in &raw[1..] {
            if let Some(s) = t2fsnn_serve::registry::scenario_by_name(name) {
                prepare(s);
            }
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("T2FSNN_"))
    {
        eprintln!(
            "error: refusing to run with {var} set: T2FSNN_* variables change the program \
             being measured; unset it and rerun"
        );
        return ExitCode::from(2);
    }
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "machine: available_parallelism={} pool_workers={} avx2_detected={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        ThreadPool::global().workers(),
        t2fsnn_tensor::simd::available()
    );
    let prepared = match warm_cache(&args.workload.scenarios()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cache warm-up: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spans = Spans::new();
    let result = match (args.workload.serving(), args.trace) {
        (Some((scenario, conns)), false) => serve_run(scenario, conns, prepared, &args, &spans),
        (Some((scenario, conns)), true) => serve_traced(scenario, conns, prepared, &args, &spans),
        (None, false) => fig6_run(prepared, &args, &spans),
        (None, true) => fig6_traced(prepared, &args, &spans),
    };
    match result {
        Ok(report) => {
            for p in &report.problems {
                println!("PROBLEM: {p}");
            }
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where `t2fsnn_bench` keeps its scenario cache for this build: the
/// target directory (`CARGO_TARGET_DIR`, relative paths anchored at the
/// repository root) plus `t2fsnn-cache`.
fn cache_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let target = match std::env::var("CARGO_TARGET_DIR") {
        Ok(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
        Ok(dir) => root.join(dir),
        Err(_) => root.join("target"),
    };
    target.join("t2fsnn-cache")
}

/// The newest full-mode cache entry of `scenario`, with its mtime.
fn cache_entry(scenario: Scenario) -> Option<(PathBuf, SystemTime)> {
    let prefix = format!("{}-full-v", scenario.name());
    std::fs::read_dir(cache_dir())
        .ok()?
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            (name.starts_with(&prefix) && name.ends_with(".bin"))
                .then(|| Some((e.path(), e.metadata().ok()?.modified().ok()?)))?
        })
        .max_by_key(|(_, modified)| *modified)
}

/// Warms the scenario cache once, untimed, and returns the prepared
/// scenarios. A cold cache is trained in a child process first, so
/// training time and memory never reach a reported metric; the line
/// printed says so.
fn warm_cache(scenarios: &[Scenario]) -> Result<Vec<Prepared>, String> {
    let started = SystemTime::now();
    let cold: Vec<&str> = scenarios
        .iter()
        .filter(|s| cache_entry(**s).is_none())
        .map(|s| s.name())
        .collect();
    if !cold.is_empty() {
        println!(
            "warm-up: no cached network for {}; training now (untimed, not part of setup_s)",
            cold.join(", ")
        );
        let status = std::process::Command::new(
            std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?,
        )
        .arg("--warm-cache")
        .args(&cold)
        .status()
        .map_err(|e| format!("spawning the warm-up: {e}"))?;
        if !status.success() {
            return Err(format!("warm-up process failed: {status}"));
        }
    }
    let prepared: Vec<Prepared> = scenarios.iter().map(|s| prepare(*s)).collect();
    for s in scenarios {
        match cache_entry(*s) {
            Some((path, modified)) => {
                println!("cache: {} {}", s.name(), path.display());
                if cold.is_empty() && modified >= started {
                    println!("warm-up: {} was retrained in this run (untimed)", s.name());
                }
            }
            None => println!(
                "cache: {} not found under {}",
                s.name(),
                cache_dir().display()
            ),
        }
    }
    Ok(prepared)
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("reading VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Prints the ten end-to-end metrics (and the error rate) as a table
/// and returns the ones `BENCHMARK.json` bounds, in its order.
///
/// Only median-based timings are bounded. On a shared two-core VM the
/// p99 tail, and the mean-based throughput and split wall time, move by
/// more than any usable bound from one run to the next while the medians
/// hold, so those are printed but not bounded; for `fig6-repro` the
/// median pass time is bounded as `latency_p50_us`. The error rate is 0
/// on a healthy run and has no relative spread, so it is bounded as
/// `success_rate`.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    setup_s: f64,
    latency: Summary,
    throughput: f64,
    wall_s: f64,
    error_rate: f64,
    accuracy: f64,
    spikes: f64,
    steps: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let tail = format!("latency {}", latency.describe_tail());
    let rows = [
        ("setup_s", setup_s, "s", true),
        ("latency_p50_us", latency.p50, "us", true),
        ("latency_p99_us", latency.tail, "us", false),
        ("throughput_rps", throughput, "1/s", false),
        ("wall_s", wall_s, "s", false),
        ("success_rate", 1.0 - error_rate, "ratio", true),
        ("error_rate", error_rate, "ratio", false),
        ("peak_rss_mb", peak_rss_mb()?, "MB", true),
        ("accuracy", accuracy, "ratio", true),
        ("spikes_per_image", spikes, "count", true),
        ("steps_per_image", steps, "count", true),
    ];
    println!(
        "{:<20} {:>16} {:<6} bounded",
        "end-to-end metric", "value", "unit"
    );
    for (name, value, unit, bounded) in rows {
        let note = if name == "latency_p99_us" { &tail } else { "" };
        println!("{name:<20} {value:>16.4} {unit:<6} {bounded:<7} {note}");
    }
    Ok(rows
        .into_iter()
        .filter(|r| r.3)
        .map(|(name, value, unit, _)| (name, value, unit))
        .collect())
}

/// Sets a server up repeatedly (tracing off, see [`setups_done`]),
/// stopping all but the last; returns it with every set-up's split.
fn serve_setups(
    scenario: Scenario,
    spans: &Spans,
) -> Result<(t2fsnn_serve::ServerHandle, Vec<serve::SetupTimes>), String> {
    let mut times = Vec::new();
    let mut handle = None;
    let start = Instant::now();
    while !setups_done(start, times.len()) {
        if let Some(previous) = handle.take() {
            serve::stop(previous);
        }
        let (h, t) = serve::set_up(scenario, false, spans)?;
        times.push(t);
        handle = Some(h);
    }
    Ok((handle.expect("at least one set-up"), times))
}

fn setup_median(times: &[serve::SetupTimes]) -> f64 {
    median(
        &times
            .iter()
            .map(|t| t.registry_load + t.start)
            .collect::<Vec<_>>(),
    )
}

/// The in-process reference answers, from a model converted exactly as
/// the registry converts it.
fn serve_reference(
    scenario: Scenario,
    traffic: &serve::Traffic,
) -> Result<(t2fsnn_serve::ServeModel, Vec<t2fsnn::ImageInference>), String> {
    let model = Registry::convert_model(scenario.name(), None, 1)?;
    let reference = serve::reference(&model.model, traffic)?;
    Ok((model, reference))
}

fn serve_report(
    setup_s: f64,
    checked: &serve::Checked,
    traffic: &serve::Traffic,
) -> Result<Report, String> {
    if checked.latency_us.is_empty() {
        return Err(format!("no request succeeded: {:?}", checked.problems));
    }
    let metrics = end_to_end(
        setup_s,
        Summary::of(&checked.latency_us),
        checked.throughput,
        traffic.len() as f64 / checked.throughput,
        checked.error_rate(),
        checked.accuracy,
        checked.spikes_per_image,
        checked.steps_per_image,
    )?;
    Ok(Report {
        attempted: checked.attempted,
        failed: checked.failed_total(),
        problems: checked.problems.clone(),
        metrics,
    })
}

fn serve_run(
    scenario: Scenario,
    connections: usize,
    prepared: Vec<Prepared>,
    args: &Args,
    spans: &Spans,
) -> Result<Report, String> {
    let traffic = serve::Traffic::new(&prepared[0], args.seed);
    drop(prepared);
    let (handle, setups) = serve_setups(scenario, spans)?;
    let drive = serve::drive(handle.addr(), &traffic, connections, args.seconds, spans);
    serve::stop(handle);
    let (_, reference) = serve_reference(scenario, &traffic)?;
    let checked = serve::check(drive, &traffic, &reference);
    serve_report(setup_median(&setups), &checked, &traffic)
}

/// Per-layer metrics: name, unit, the end-to-end metric it should move
/// (its share is printed when both are times; work counts and the trace
/// overhead move none), and whether it is on the serving path (`true`)
/// or the `fig6-repro` path (`false`). Preparation and the trace
/// overhead are on every path.
const LAYERS: [(&str, &str, &str, Option<bool>); 23] = [
    ("bench.prepare_s", "s", "setup_s", None),
    ("serve.registry_load_s", "s", "setup_s", Some(true)),
    ("serve.start_s", "s", "setup_s", Some(true)),
    ("serve.queue_us_p50", "us", "latency_p50_us", Some(true)),
    ("serve.infer_us_p50", "us", "latency_p50_us", Some(true)),
    ("serve.overhead_us_p50", "us", "latency_p50_us", Some(true)),
    (
        "serve.batch_size_mean",
        "count",
        "throughput_rps",
        Some(true),
    ),
    ("core.infer_solo_us_p50", "us", "latency_p50_us", Some(true)),
    ("core.infer_pair_us_p50", "us", "latency_p50_us", Some(true)),
    ("core.infer_fixed_us", "us", "latency_p50_us", Some(true)),
    ("serve.synop_adds_per_image", "count", "-", Some(true)),
    ("snn.convert_s", "s", "wall_s", Some(false)),
    ("snn.simulate_rate_s", "s", "wall_s", Some(false)),
    ("snn.simulate_phase_s", "s", "wall_s", Some(false)),
    ("snn.simulate_burst_s", "s", "wall_s", Some(false)),
    ("core.go_collect_s", "s", "wall_s", Some(false)),
    ("core.go_build_s", "s", "wall_s", Some(false)),
    ("core.run_s", "s", "wall_s", Some(false)),
    ("snn.spikes_rate", "count", "-", Some(false)),
    ("snn.spikes_phase", "count", "-", Some(false)),
    ("snn.spikes_burst", "count", "-", Some(false)),
    ("core.run_synop_adds", "count", "-", Some(false)),
    ("trace.overhead_pct", "%", "-", None),
];

/// Per-layer values gathered by a traced run.
type Layers = BTreeMap<&'static str, f64>;

/// The fig6 layers of one traced pass set: median times over passes and
/// the (pass-invariant) work counts.
fn fig6_layers(layers: &mut Layers, passes: &[fig6::PassTimes], outputs: &[fig6::ScenarioOutput]) {
    let med = |f: fn(&fig6::PassTimes) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    layers.insert("snn.convert_s", med(|p| p.convert));
    layers.insert("snn.simulate_rate_s", med(|p| p.rate));
    layers.insert("snn.simulate_phase_s", med(|p| p.phase));
    layers.insert("snn.simulate_burst_s", med(|p| p.burst));
    layers.insert("core.go_collect_s", med(|p| p.collect));
    layers.insert("core.go_build_s", med(|p| p.build));
    layers.insert("core.run_s", med(|p| p.run));
    let spikes = |i: usize| {
        outputs
            .iter()
            .map(|o| o.baselines[i].total_spikes() as f64)
            .sum()
    };
    layers.insert("snn.spikes_rate", spikes(0));
    layers.insert("snn.spikes_phase", spikes(1));
    layers.insert("snn.spikes_burst", spikes(2));
    layers.insert(
        "core.run_synop_adds",
        outputs
            .iter()
            .flat_map(|o| &o.runs)
            .map(|r| r.synop_adds as f64)
            .sum(),
    );
}

/// The serving layers of one traced drive, plus the direct core timings.
fn serve_layers(layers: &mut Layers, checked: &serve::Checked, core: (f64, f64, f64)) {
    layers.insert("serve.queue_us_p50", median(&checked.queue_us));
    layers.insert("serve.infer_us_p50", median(&checked.infer_us));
    layers.insert("serve.overhead_us_p50", median(&checked.overhead_us));
    layers.insert(
        "serve.batch_size_mean",
        checked.batch_size.iter().sum::<f64>() / checked.batch_size.len() as f64,
    );
    layers.insert("serve.synop_adds_per_image", checked.synop_adds_per_image);
    layers.insert("core.infer_solo_us_p50", core.0);
    layers.insert("core.infer_pair_us_p50", core.1);
    layers.insert("core.infer_fixed_us", core.2);
}

/// Prints the per-layer table, writes the spans, and completes the
/// traced run's `report` with the per-layer metrics.
fn layer_report(
    serving: bool,
    layers: &Layers,
    e2e: &BTreeMap<&'static str, f64>,
    mut report: Report,
    spans: &Spans,
    workload: &str,
) -> Result<Report, String> {
    println!(
        "{:<28} {:>14} {:<6} {:<16} share",
        "per-layer metric", "value", "unit", "moves"
    );
    for (name, unit, moves, path) in LAYERS {
        let value = *layers
            .get(name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        let share = match (path, e2e.get(moves)) {
            (Some(p), _) if p != serving => "off-path probe".to_string(),
            (_, Some(total)) if unit == "s" || unit == "us" => {
                format!("{:.1}%", 100.0 * value / total)
            }
            _ => "-".to_string(),
        };
        println!("{name:<28} {value:>14.3} {unit:<6} {moves:<16} {share}");
        report.metrics.push((name, value, unit));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let own = dir.join(format!("spans-{workload}.json"));
    spans
        .write_chrome_trace(&own)
        .map_err(|e| format!("writing {}: {e}", own.display()))?;
    let recorder = dir.join(format!("flight-{workload}.json"));
    t2fsnn_tensor::trace::write_chrome_trace(&recorder)
        .map_err(|e| format!("writing {}: {e}", recorder.display()))?;
    println!(
        "spans: {} benchmark spans -> {}; program flight recorder -> {}",
        spans.len(),
        own.display(),
        recorder.display()
    );
    Ok(report)
}

fn serve_traced(
    scenario: Scenario,
    connections: usize,
    prepared: Vec<Prepared>,
    args: &Args,
    spans: &Spans,
) -> Result<Report, String> {
    let traffic = serve::Traffic::new(&prepared[0], args.seed);
    let mut probe_case = vec![fig6::Case::new(
        prepared.into_iter().next().expect("one scenario"),
        args.seed,
    )];
    let half = args.seconds / 2.0;
    let mut layers = Layers::new();
    spans.set_recording(true);
    let mut prepares = Vec::new();
    let begin = Instant::now();
    while !setups_done(begin, prepares.len()) {
        prepares.push(
            spans
                .time("bench.prepare", || prepare(scenario))
                .1
                .as_secs_f64(),
        );
    }
    layers.insert("bench.prepare_s", median(&prepares));
    let (handle, setups) = serve_setups(scenario, spans)?;
    layers.insert(
        "serve.registry_load_s",
        median(&setups.iter().map(|t| t.registry_load).collect::<Vec<_>>()),
    );
    layers.insert(
        "serve.start_s",
        median(&setups.iter().map(|t| t.start).collect::<Vec<_>>()),
    );

    spans.set_recording(false);
    let untraced = serve::drive(handle.addr(), &traffic, connections, half, spans);
    serve::stop(handle);
    spans.set_recording(true);
    let (handle, _) = serve::set_up(scenario, true, spans)?;
    let traced = serve::drive(handle.addr(), &traffic, connections, half, spans);
    serve::stop(handle);

    let (model, reference) = serve_reference(scenario, &traffic)?;
    let untraced = serve::check(untraced, &traffic, &reference);
    let traced = serve::check(traced, &traffic, &reference);
    if untraced.latency_us.is_empty() || traced.latency_us.is_empty() {
        return Err(format!(
            "no request succeeded: {:?} {:?}",
            untraced.problems, traced.problems
        ));
    }
    let core = serve::core_infer(&model.model, &traffic, CORE_CALLS, spans)?;
    serve_layers(&mut layers, &traced, core);
    let (p50_off, p50_on) = (median(&untraced.latency_us), median(&traced.latency_us));
    layers.insert("trace.overhead_pct", 100.0 * (p50_on / p50_off - 1.0));

    let (times, outputs) = fig6::pass(&mut probe_case, spans)?;
    fig6_layers(&mut layers, &[times], &outputs);

    let e2e = BTreeMap::from([
        ("setup_s", setup_median(&setups)),
        ("latency_p50_us", p50_on),
        ("throughput_rps", traced.throughput),
    ]);
    let report = Report {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed_total() + traced.failed_total(),
        problems: [untraced.problems, traced.problems].concat(),
        metrics: Vec::new(),
    };
    layer_report(true, &layers, &e2e, report, spans, args.workload.name())
}

/// Prepares both Fig. 6 scenarios repeatedly (see [`setups_done`]);
/// returns the last set with the per-repeat set-up times.
fn fig6_setups(spans: &Spans) -> (Vec<Prepared>, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = Vec::new();
    let begin = Instant::now();
    while !setups_done(begin, times.len()) {
        let start = Instant::now();
        last = fig6::SCENARIOS
            .iter()
            .map(|s| spans.time("bench.prepare", || prepare(*s)).0)
            .collect();
        times.push(start.elapsed().as_secs_f64());
    }
    (last, times)
}

/// Runs passes until the next one would overrun `seconds` (at least
/// one), checking each against the first.
fn fig6_passes(
    cases: &mut [fig6::Case],
    seconds: f64,
    spans: &Spans,
    first: &mut Option<Vec<fig6::ScenarioOutput>>,
    problems: &mut Vec<String>,
) -> Result<Vec<fig6::PassTimes>, String> {
    let start = Instant::now();
    let mut passes: Vec<fig6::PassTimes> = Vec::new();
    while passes.is_empty()
        || start.elapsed().as_secs_f64()
            + median(&passes.iter().map(|p| p.wall).collect::<Vec<_>>())
            <= seconds
    {
        let (times, outputs) = fig6::pass(cases, spans)?;
        passes.push(times);
        match first {
            None => *first = Some(outputs),
            Some(reference) => {
                if *reference != outputs {
                    problems.push(format!("pass {} results differ from pass 1", passes.len()));
                }
            }
        }
    }
    Ok(passes)
}

/// The Fig. 6 e2e report: per-pass latency and the GO+EF variant's
/// paper measures, averaged over the two scenarios.
fn fig6_report(
    setups: &[f64],
    passes: &[fig6::PassTimes],
    outputs: &[fig6::ScenarioOutput],
    problems: Vec<String>,
) -> Result<Report, String> {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let latency = Summary::of(&walls.iter().map(|w| w * 1e6).collect::<Vec<_>>());
    let attempted = (passes.len() * outputs.len() * fig6::CODINGS) as u64;
    let failed = problems.len() as u64;
    let n = outputs.len() as f64;
    let go_ef = |f: fn(&t2fsnn::TtfsRun) -> f64| {
        outputs.iter().map(|o| f(&o.runs[fig6::GO_EF])).sum::<f64>() / n
    };
    let timed = median(
        &passes
            .iter()
            .map(fig6::PassTimes::timed)
            .collect::<Vec<_>>(),
    );
    println!(
        "passes: {} (timed calls {:.3} s of {:.3} s median wall)",
        passes.len(),
        timed,
        median(&walls)
    );
    let metrics = end_to_end(
        median(setups),
        latency,
        passes.len() as f64 / walls.iter().sum::<f64>(),
        median(&walls),
        failed as f64 / attempted as f64,
        go_ef(|r| f64::from(r.accuracy)),
        go_ef(|r| r.spikes_per_image()),
        go_ef(|r| r.latency as f64),
    )?;
    Ok(Report {
        attempted,
        failed,
        problems,
        metrics,
    })
}

fn fig6_run(prepared: Vec<Prepared>, args: &Args, spans: &Spans) -> Result<Report, String> {
    drop(prepared);
    let (prepared, setups) = fig6_setups(spans);
    let mut cases: Vec<fig6::Case> = prepared
        .into_iter()
        .map(|p| fig6::Case::new(p, args.seed))
        .collect();
    let mut first = None;
    let mut problems = Vec::new();
    let passes = fig6_passes(&mut cases, args.seconds, spans, &mut first, &mut problems)?;
    let outputs = first.expect("at least one pass");
    problems.extend(fig6::dense_check(&cases, &outputs)?);
    fig6_report(&setups, &passes, &outputs, problems)
}

fn fig6_traced(prepared: Vec<Prepared>, args: &Args, spans: &Spans) -> Result<Report, String> {
    drop(prepared);
    let half = args.seconds / 2.0;
    let mut layers = Layers::new();
    spans.set_recording(true);
    let (prepared, setups) = fig6_setups(spans);
    layers.insert("bench.prepare_s", median(&setups));
    let mut cases: Vec<fig6::Case> = prepared
        .into_iter()
        .map(|p| fig6::Case::new(p, args.seed))
        .collect();
    let mut first = None;
    let mut problems = Vec::new();

    spans.set_recording(false);
    let untraced = fig6_passes(&mut cases, half, spans, &mut first, &mut problems)?;
    spans.set_recording(true);
    t2fsnn_tensor::trace::set_enabled(true);
    let traced = fig6_passes(&mut cases, half, spans, &mut first, &mut problems)?;
    let outputs = first.expect("at least one pass");
    problems.extend(fig6::dense_check(&cases, &outputs)?);
    fig6_layers(&mut layers, &traced, &outputs);
    let wall = |p: &[fig6::PassTimes]| median(&p.iter().map(|t| t.wall).collect::<Vec<_>>());
    let (wall_off, wall_on) = (wall(&untraced), wall(&traced));
    layers.insert("trace.overhead_pct", 100.0 * (wall_on / wall_off - 1.0));
    let timed = median(
        &traced
            .iter()
            .map(fig6::PassTimes::timed)
            .collect::<Vec<_>>(),
    );
    println!(
        "timed calls: {timed:.3} s of {wall_on:.3} s wall_s ({:.1}%)",
        100.0 * timed / wall_on
    );

    // Probe of the serving path on the larger Fig. 6 model.
    let scenario = Scenario::Cifar100Like;
    let cifar100 = cases.pop().expect("two scenarios").prepared;
    let traffic = serve::Traffic::new(&cifar100, args.seed);
    drop(cases);
    let (handle, setup) = serve::set_up(scenario, true, spans)?;
    layers.insert("serve.registry_load_s", setup.registry_load);
    layers.insert("serve.start_s", setup.start);
    let drive = serve::drive(handle.addr(), &traffic, 2, SERVE_PROBE_SECONDS, spans);
    serve::stop(handle);
    let (model, reference) = serve_reference(scenario, &traffic)?;
    let checked = serve::check(drive, &traffic, &reference);
    if checked.latency_us.is_empty() {
        return Err(format!(
            "serving probe: no request succeeded: {:?}",
            checked.problems
        ));
    }
    let core = serve::core_infer(&model.model, &traffic, CORE_CALLS / 4, spans)?;
    serve_layers(&mut layers, &checked, core);

    let e2e = BTreeMap::from([("setup_s", median(&setups)), ("wall_s", wall_on)]);
    let report = Report {
        attempted: ((untraced.len() + traced.len()) * outputs.len() * fig6::CODINGS) as u64
            + checked.attempted,
        failed: problems.len() as u64 + checked.failed_total(),
        problems: [problems, checked.problems].concat(),
        metrics: Vec::new(),
    };
    layer_report(false, &layers, &e2e, report, spans, args.workload.name())
}
