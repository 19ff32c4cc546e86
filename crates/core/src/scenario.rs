//! Experiment scenarios: one per dataset the paper evaluates, plus a tiny
//! one for fast benches. Each scenario defines one [`Recipe`] (synthetic
//! dataset, scaled architecture, training loop), its TTFS time window and
//! its evaluation sizes, and caches the fitted network on disk.

use std::fs;
use std::path::PathBuf;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use t2fsnn_data::{Dataset, DatasetSpec};
use t2fsnn_dnn::architectures::{Architecture, VggScale};
use t2fsnn_dnn::layers::PoolKind;
use t2fsnn_dnn::{evaluate, Fitted, Network, Recipe, SgdConfig, TrainConfig};
use t2fsnn_tensor::Tensor;

/// One of the paper's evaluation scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// MNIST-shaped (1×28×28, 10 classes) with the small two-block CNN.
    MnistLike,
    /// CIFAR-10-shaped (3×32×32, 10 classes) with the scaled VGG.
    Cifar10Like,
    /// CIFAR-100-shaped (3×32×32, 100 classes) with a wider scaled VGG.
    Cifar100Like,
    /// A deliberately tiny scenario for Criterion micro-benchmarks.
    Tiny,
}

impl Scenario {
    /// All paper scenarios (excluding [`Scenario::Tiny`]).
    pub const PAPER: [Scenario; 3] = [
        Scenario::MnistLike,
        Scenario::Cifar10Like,
        Scenario::Cifar100Like,
    ];

    /// Every scenario, [`Scenario::Tiny`] included.
    pub const ALL: [Scenario; 4] = [
        Scenario::Tiny,
        Scenario::MnistLike,
        Scenario::Cifar10Like,
        Scenario::Cifar100Like,
    ];

    /// The scenario whose [`name`](Scenario::name) is `name`, if any.
    pub fn from_name(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Stable name used in cache files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::MnistLike => "mnist-like",
            Scenario::Cifar10Like => "cifar10-like",
            Scenario::Cifar100Like => "cifar100-like",
            Scenario::Tiny => "tiny",
        }
    }

    /// This scenario's recipe, TTFS window and rate-baseline budget: the
    /// one place a scenario is defined. `T2FSNN_QUICK=1` shrinks the
    /// datasets, epochs and step budgets.
    fn setup(&self) -> Setup {
        let quick = quick_mode();
        let pick = |quick_value: usize, full: usize| if quick { quick_value } else { full };
        match self {
            // For the MNIST-like CNN (4 weighted layers) T = 16 with early
            // firing gives a pipeline latency of exactly 40 steps — the
            // paper's own MNIST latency.
            Scenario::MnistLike => Setup {
                recipe: Recipe {
                    spec: DatasetSpec::mnist_like(),
                    data_seed: 1001,
                    samples: pick(192, 640),
                    train_size: pick(144, 480),
                    architecture: Architecture::CnnSmall(PoolKind::Avg),
                    init_seed: 1001 ^ INIT_SALT,
                    train: TrainConfig {
                        epochs: pick(3, 7),
                        ..TrainConfig::default()
                    },
                    ..Recipe::default()
                },
                time_window: 16,
                rate_steps: pick(128, 384),
            },
            // The deep scaled VGGs need a cooler learning rate than the
            // shallow nets (lr 0.05 diverges at this depth without
            // batch norm). lr 0.02 does not make cifar10-like learn: its
            // DNN measures 10.0 % test accuracy, chance (ROADMAP item 1A).
            Scenario::Cifar10Like => Setup {
                recipe: Recipe {
                    spec: DatasetSpec::cifar10_like(),
                    data_seed: 1002,
                    samples: pick(192, 640),
                    train_size: pick(144, 480),
                    architecture: Architecture::Vgg(VggScale::default()),
                    init_seed: 1002 ^ INIT_SALT,
                    train: TrainConfig {
                        epochs: pick(4, 10),
                        batch_size: 16,
                        sgd: SgdConfig {
                            lr: 0.02,
                            momentum: 0.9,
                            weight_decay: 5e-4,
                        },
                        lr_decay: 0.9,
                    },
                    ..Recipe::default()
                },
                time_window: 24,
                rate_steps: pick(192, 640),
            },
            // Lower noise than the synthesis default: with only ~16
            // samples per class, full noise leaves the small VGG
            // data-starved (the paper trains on 500 real images per
            // class). The test split is 100 images (a fifth in quick mode).
            Scenario::Cifar100Like => Setup {
                recipe: Recipe {
                    spec: DatasetSpec::cifar100_like(),
                    data_seed: 1003,
                    noise: 0.10,
                    samples: pick(300, 1700),
                    train_size: pick(240, 1600),
                    architecture: Architecture::Vgg(VggScale {
                        base_channels: 8,
                        fc_width: 128,
                        ..VggScale::default()
                    }),
                    init_seed: 1003 ^ INIT_SALT,
                    train: TrainConfig {
                        epochs: pick(4, 18),
                        batch_size: 16,
                        sgd: SgdConfig {
                            lr: 0.02,
                            momentum: 0.9,
                            weight_decay: 1e-4,
                        },
                        lr_decay: 0.93,
                    },
                    ..Recipe::default()
                },
                time_window: 24,
                rate_steps: pick(192, 640),
            },
            Scenario::Tiny => Setup {
                recipe: Recipe {
                    spec: DatasetSpec::new("tiny16", 1, 16, 16, 4),
                    data_seed: 1004,
                    samples: 128,
                    train_size: 96,
                    architecture: Architecture::CnnSmall(PoolKind::Avg),
                    init_seed: 1004 ^ INIT_SALT,
                    train: TrainConfig {
                        epochs: pick(3, 7),
                        ..TrainConfig::default()
                    },
                    ..Recipe::default()
                },
                time_window: 24,
                rate_steps: 128,
            },
        }
    }

    /// The recipe this scenario's source network is fitted with.
    fn recipe(&self) -> Recipe {
        self.setup().recipe
    }

    /// Dataset specification.
    pub fn spec(&self) -> DatasetSpec {
        self.recipe().spec
    }

    /// Generates this scenario's dataset deterministically.
    pub fn dataset(&self) -> Dataset {
        self.recipe().dataset()
    }

    /// Master RNG seed: the dataset synthesis' seed (training draws from
    /// it xor a fixed salt).
    pub fn seed(&self) -> u64 {
        self.recipe().data_seed
    }

    /// The per-layer TTFS time window `T` used in this scenario's
    /// experiments. Chosen at the paper's operating point: the smallest
    /// window whose kernel precision does not cost accuracy (`repro_tau_sweep`
    /// measures the precision trade-off at this window; see the README's
    /// *Extension experiments*).
    pub fn time_window(&self) -> usize {
        self.setup().time_window
    }

    /// Initial (pre-GO) kernel parameters: τ0 = T/4, t_d = 0 — the
    /// empirical starting point the paper describes ("We empirically set
    /// the τ, t_d, and T at the initial stage").
    pub fn initial_kernel(&self) -> crate::KernelParams {
        crate::KernelParams::new(self.time_window() as f32 / 4.0, 0.0)
    }

    /// Evaluation-subset size for clock-driven simulations.
    pub fn eval_images(&self) -> usize {
        if quick_mode() {
            16
        } else {
            32
        }
    }

    /// Simulated steps for the rate-coding baseline (the slowest scheme;
    /// the paper runs it for 10,000 steps on CIFAR).
    pub fn rate_steps(&self) -> usize {
        self.setup().rate_steps
    }

    /// Simulated steps for phase/burst baselines (converge much faster).
    pub fn fast_coding_steps(&self) -> usize {
        (self.rate_steps() / 4).max(64)
    }
}

/// What one scenario fixes: see [`Scenario::setup`].
struct Setup {
    /// The recipe of its source network.
    recipe: Recipe,
    /// Its per-layer TTFS window `T`.
    time_window: usize,
    /// Simulated steps of its rate-coding baseline.
    rate_steps: usize,
}

/// A scenario's training stream is seeded with its data seed xor this
/// salt, so weight init and shuffling do not replay the synthesis.
const INIT_SALT: u64 = 0xDEAD_BEEF;

/// Parameter count of `recipe`'s freshly initialized network — a cheap
/// architecture fingerprint for cache validation.
fn param_count(recipe: &Recipe) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(recipe.data_seed);
    recipe
        .architecture
        .build(&mut rng, &recipe.spec)
        .param_count() as u64
}

/// `T2FSNN_QUICK=1` shrinks every scenario for CI-speed runs.
pub fn quick_mode() -> bool {
    std::env::var("T2FSNN_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// A scenario's trained, normalized network plus its data splits.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Which scenario this is.
    pub scenario: Scenario,
    /// Trained and data-normalized source network.
    pub dnn: Network,
    /// Training split (also the calibration set for normalization/GO).
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
    /// Source-DNN test accuracy.
    pub dnn_accuracy: f32,
}

impl Prepared {
    /// Copies the first `n` test images (and labels) as an evaluation
    /// subset for expensive clock-driven simulations: one contiguous run
    /// of `[N, C, H, W]` storage, copied once.
    pub fn eval_subset(&self, n: usize) -> (Tensor, Vec<usize>) {
        let n = n.min(self.test.len());
        let spec = &self.test.spec;
        let images = Tensor::from_vec(
            [n, spec.channels, spec.height, spec.width],
            self.test.images.data()[..n * spec.image_numel()].to_vec(),
        )
        .expect("a run of whole images");
        (images, self.test.labels[..n].to_vec())
    }
}

#[derive(Serialize, Deserialize)]
struct CacheFile {
    version: u32,
    quick: bool,
    /// Fingerprint of the training recipe: the scenario seed plus the
    /// parameter count of the architecture it was trained with. Guards
    /// against silently loading a network cached under an older
    /// scenario definition (seed or architecture change without a
    /// CACHE_VERSION bump).
    seed: u64,
    params: u64,
    dnn: Network,
    dnn_accuracy: f32,
    /// The deterministic synthetic dataset. Caching it saves the few
    /// hundred ms of per-pixel noise synthesis on every warm run; its
    /// size is validated so a scenario-definition change
    /// invalidates it. (Kept optional on read so a cache written without
    /// it is treated as a miss rather than a parse error.)
    dataset: Option<Dataset>,
}

const CACHE_VERSION: u32 = 1;

fn cache_path(scenario: Scenario, extension: &str) -> PathBuf {
    // Anchor at the workspace target dir regardless of the process cwd
    // (cargo runs test binaries with cwd = the package root, and the
    // release binaries may be invoked from anywhere).
    let root = if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        let dir = PathBuf::from(dir);
        if dir.is_absolute() {
            dir
        } else {
            // Cargo resolves a relative CARGO_TARGET_DIR against its own
            // invocation cwd, which this process cannot recover (test
            // binaries run with cwd = the package root). Anchor at the
            // workspace root — correct for the common run-from-root case
            // and never scatters caches into crates/*/.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(dir)
        }
    } else {
        // Compile-time anchor: <workspace>/crates/core -> ../../target.
        let build_anchor = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target");
        if build_anchor.exists() {
            build_anchor
        } else {
            // Relocated binary (build path gone): use the target/ dir the
            // executable itself lives under, if any.
            std::env::current_exe()
                .ok()
                .and_then(|exe| {
                    exe.ancestors()
                        .find(|a| a.file_name().is_some_and(|n| n == "target"))
                        .map(PathBuf::from)
                })
                .unwrap_or_else(|| PathBuf::from("target"))
        }
    };
    // The quick flag is part of the key (like CACHE_VERSION) so quick
    // and full runs do not evict each other's entries.
    let mode = if quick_mode() { "quick" } else { "full" };
    root.join("t2fsnn-cache").join(format!(
        "{}-{mode}-v{}.{extension}",
        scenario.name(),
        CACHE_VERSION
    ))
}

/// Trains (or loads from cache) a scenario's source network, normalized
/// for conversion, together with its dataset splits.
///
/// The network, its DNN accuracy and its dataset are cached under
/// `target/t2fsnn-cache/`; a miss fits the scenario's [`Recipe`].
///
/// # Panics
///
/// Panics if training fails — the harness treats that as a fatal setup
/// error.
pub fn prepare(scenario: Scenario) -> Prepared {
    // Only the binary `T2FB` format is read: legacy JSON, version-1 or
    // corrupt entries are cache misses and fall back to retraining.
    if let Some(prepared) = load_cache(scenario) {
        return prepared;
    }

    let recipe = scenario.recipe();
    eprintln!(
        "[prepare] training {} on {} samples…",
        scenario.name(),
        recipe.train_size
    );
    let Fitted {
        mut dnn,
        data,
        train,
        test,
    } = recipe.fit().expect("training failed");
    let dnn_accuracy = evaluate(&mut dnn, &test, 32).expect("evaluation failed");
    eprintln!(
        "[prepare] {}: {} params, DNN test accuracy {:.1}%",
        scenario.name(),
        dnn.param_count(),
        dnn_accuracy * 100.0
    );

    let path = cache_path(scenario, "bin");
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let cache = CacheFile {
        version: CACHE_VERSION,
        quick: quick_mode(),
        seed: recipe.data_seed,
        params: dnn.param_count() as u64,
        dnn: dnn.clone(),
        dnn_accuracy,
        dataset: Some(data),
    };
    write_cache(&path, &cache);
    Prepared {
        scenario,
        dnn,
        train,
        test,
        dnn_accuracy,
    }
}

/// Atomically writes a cache file in the binary format (write-then-
/// rename, so parallel writers racing on a cold cache can never leave a
/// truncated/interleaved file behind; the last complete write wins).
/// The tmp name is unique per process AND per writer (test threads
/// within one binary share a pid).
fn write_cache(path: &std::path::Path, cache: &CacheFile) {
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let bytes = crate::binfmt::to_bytes(&serde::Serialize::to_value(cache));
    static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let writer = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{writer}", std::process::id()));
    if fs::write(&tmp, bytes).is_ok() {
        let _ = fs::rename(&tmp, path);
    }
}

/// Attempts to load and validate a cached scenario (binary `T2FB`
/// format only). Returns `None` on any miss, mismatch, or parse error —
/// including legacy JSON entries — and the caller falls back to
/// retraining.
fn load_cache(scenario: Scenario) -> Option<Prepared> {
    load_cache_from(&cache_path(scenario, "bin"), scenario)
}

fn load_cache_from(path: &std::path::Path, scenario: Scenario) -> Option<Prepared> {
    // Non-binary (legacy JSON), version-1 or corrupt entries are plain
    // misses: `from_bytes` rejects them. The file bytes are freed before
    // `from_value` runs and the decoded tree before the dataset is
    // split, so no more than two copies of the cache are alive at once.
    let value = crate::binfmt::from_bytes(&fs::read(path).ok()?).ok()?;
    let cache: CacheFile = serde::Deserialize::from_value(&value).ok()?;
    drop(value);
    prepared_from(cache, scenario)
}

/// Validates a decoded cache entry against the scenario definition and
/// splits its dataset; `None` on any mismatch.
fn prepared_from(cache: CacheFile, scenario: Scenario) -> Option<Prepared> {
    let recipe = scenario.recipe();
    if cache.version != CACHE_VERSION
        || cache.quick != quick_mode()
        || cache.seed != recipe.data_seed
        || cache.params != cache.dnn.param_count() as u64
        || cache.params != param_count(&recipe)
    {
        return None;
    }
    // A cached dataset must still match the scenario definition (size
    // changes invalidate it without a seed change); an entry without one
    // is a miss.
    let data = match cache.dataset {
        Some(data) if data.len() == recipe.samples && data.spec == recipe.spec => data,
        _ => return None,
    };
    let (train_set, test_set) = data.split(recipe.train_size);
    Some(Prepared {
        scenario,
        dnn: cache.dnn,
        train: train_set,
        test: test_set,
        dnn_accuracy: cache.dnn_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::from_name(s.name()), Some(s));
        }
        assert_eq!(Scenario::from_name("nope"), None);
    }

    #[test]
    fn scenario_metadata_is_consistent() {
        for s in Scenario::PAPER {
            let recipe = s.recipe();
            assert!(recipe.train_size < recipe.samples);
            assert!(s.time_window() > 0);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn tiny_prepare_trains_and_caches() {
        let first = prepare(Scenario::Tiny);
        assert!(
            first.dnn_accuracy > 0.4,
            "tiny scenario should be learnable"
        );
        // Second call must hit the cache (same result, no retraining).
        let second = prepare(Scenario::Tiny);
        assert_eq!(first.dnn_accuracy, second.dnn_accuracy);
        assert_eq!(first.test.len(), second.test.len());
    }

    /// Writes a `tiny` cache entry to a scratch directory named after
    /// `tag`, so a test cannot race other tests using the shared on-disk
    /// cache. Its network is freshly initialised, not loaded, so the
    /// entry does not pass through the loader under test. Returns the
    /// entry and its path; the caller removes the path's directory.
    fn scratch_cache(tag: &str) -> (CacheFile, PathBuf) {
        let recipe = Scenario::Tiny.recipe();
        let dnn = recipe
            .architecture
            .build(&mut ChaCha8Rng::seed_from_u64(7), &recipe.spec);
        let cache = CacheFile {
            version: CACHE_VERSION,
            quick: quick_mode(),
            seed: Scenario::Tiny.seed(),
            params: dnn.param_count() as u64,
            dnn,
            dnn_accuracy: 0.625,
            dataset: Some(Scenario::Tiny.dataset()),
        };
        let dir = std::env::temp_dir().join(format!("t2fsnn-{tag}-cache-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        let path = dir.join("tiny-scratch-v1.bin");
        write_cache(&path, &cache);
        (cache, path)
    }

    #[test]
    fn corrupt_cache_is_a_miss_not_a_silent_load() {
        let (_, path) = scratch_cache("corrupt");
        assert!(
            load_cache_from(&path, Scenario::Tiny).is_some(),
            "pristine entry must load"
        );
        // Flip one bit at a header byte, a mid-payload byte (deep inside
        // the weights section), and the final byte: every one must read
        // as a miss — the per-section CRC quarantines payload damage and
        // the framing checks catch header damage — so `prepare` falls
        // back to retraining instead of serving corrupted weights.
        let original = fs::read(&path).expect("read scratch cache");
        for idx in [9, original.len() / 2, original.len() - 1] {
            let mut corrupt = original.clone();
            corrupt[idx] ^= 0x10;
            fs::write(&path, &corrupt).expect("write corrupted cache");
            assert!(
                load_cache_from(&path, Scenario::Tiny).is_none(),
                "flipped byte {idx} must quarantine the entry"
            );
        }
        let _ = fs::remove_dir_all(path.parent().expect("scratch dir"));
    }

    /// `value` with every packed f32 array spelled out as one
    /// `Value::Float` per element: the tree an element-wise decoder
    /// builds from the same file.
    fn elementwise(value: &serde::Value) -> serde::Value {
        use serde::Value;
        match value {
            Value::Array(_) | Value::F32Array(_) => {
                Value::Array(value.as_array().unwrap().iter().map(elementwise).collect())
            }
            Value::Object(pairs) => Value::Object(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), elementwise(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn packed_decode_loads_what_was_written() {
        let (cache, path) = scratch_cache("packed");
        let bytes = fs::read(&path).expect("read scratch cache");
        let loaded = load_cache_from(&path, Scenario::Tiny).expect("pristine entry");
        let _ = fs::remove_dir_all(path.parent().expect("scratch dir"));

        // Re-encoding the decoded tree reproduces the file byte for byte.
        let tree = crate::binfmt::from_bytes(&bytes).expect("decode");
        assert_eq!(crate::binfmt::to_bytes(&tree), bytes);

        // The packed load equals, field for field, both the network and
        // splits that were written and the load of the element-wise tree
        // (`Debug` prints every f32 exactly, -0.0 included).
        let (train, test) = cache
            .dataset
            .as_ref()
            .expect("written with its dataset")
            .split(Scenario::Tiny.recipe().train_size);
        let written = Prepared {
            scenario: Scenario::Tiny,
            dnn: cache.dnn,
            train,
            test,
            dnn_accuracy: cache.dnn_accuracy,
        };
        let reference = serde::Deserialize::from_value(&elementwise(&tree))
            .ok()
            .and_then(|cache| prepared_from(cache, Scenario::Tiny))
            .expect("element-wise load");
        assert_eq!(format!("{loaded:?}"), format!("{written:?}"));
        assert_eq!(format!("{loaded:?}"), format!("{reference:?}"));
    }

    #[test]
    fn eval_subset_truncates() {
        let prepared = prepare(Scenario::Tiny);
        let (images, labels) = prepared.eval_subset(8);
        assert_eq!(images.dims(), &[8, 1, 16, 16]);
        assert_eq!(labels, prepared.test.labels[..8]);
        // The subset's bits are the first 8 test images'.
        let bits = |data: &[f32]| data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(images.data()),
            bits(&prepared.test.images.data()[..8 * 256])
        );
        let (all, _) = prepared.eval_subset(10_000);
        assert_eq!(all.dims()[0], prepared.test.len());
        let (none, labels) = prepared.eval_subset(0);
        assert_eq!(none.dims(), &[0, 1, 16, 16]);
        assert!(labels.is_empty());
    }

    /// CRC-32 of the `binfmt` bytes of the `tiny` scenario's network,
    /// fitted fresh (not loaded), pinned per mode: the guard that its
    /// recipe keeps the synthesis → init → train → normalize order of
    /// random draws the cached networks were trained with.
    #[test]
    fn tiny_recipe_fits_pinned_weights() {
        let fitted = Scenario::Tiny.recipe().fit().expect("fit");
        let bytes = crate::binfmt::to_bytes(&serde::Serialize::to_value(&fitted.dnn));
        let pinned = if quick_mode() { 1511614001 } else { 3812675446 };
        assert_eq!(crate::binfmt::crc32(&bytes), pinned);
    }
}
