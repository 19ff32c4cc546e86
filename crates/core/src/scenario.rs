//! Experiment scenarios: one per dataset the paper evaluates, plus a tiny
//! one for fast benches. Each scenario defines one [`Recipe`] (synthetic
//! dataset, scaled architecture, training loop), its TTFS time window and
//! its evaluation sizes, and caches the fitted network on disk.
//!
//! A cache entry holds the network, its DNN accuracy and the scenario's
//! dataset. Two readers share one acceptance rule: [`prepare`] reads the
//! whole entry (network plus dataset splits, for the experiments), and
//! [`prepare_network`] reads only the network (for serving), seeking past
//! the image data. Either one fits the recipe on a miss.

use std::fs::{self, File};
use std::io::BufReader;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};
use t2fsnn_data::{Dataset, DatasetSpec};
use t2fsnn_dnn::architectures::{Architecture, VggScale};
use t2fsnn_dnn::layers::PoolKind;
use t2fsnn_dnn::{evaluate, Fitted, Network, Recipe, SgdConfig, TrainConfig};
use t2fsnn_tensor::Tensor;

use crate::binfmt::{self, Take};

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

/// A cache file's sections ahead of its last one, `dataset` (see
/// [`write_cache`]): the key the entry was written under, its network
/// and that network's test accuracy.
#[derive(Serialize, Deserialize)]
struct CacheEntry {
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
}

/// The head of the `dataset` section: its spec and its images' shape,
/// both ahead of the image data. [`prepare_network`] reads no more of
/// the section; [`prepare`] builds the dataset from it, the labels and
/// the image data.
#[derive(Deserialize)]
struct DatasetHead {
    spec: DatasetSpec,
    images: ImagesHead,
}

/// The head of a cached image tensor: its `[N, C, H, W]` shape.
#[derive(Deserialize)]
struct ImagesHead {
    shape: Vec<usize>,
}

/// The acceptance rule both readers apply to a decoded entry: its key
/// is this build's for `recipe`, its network has the recipe's parameter
/// count, and its dataset the recipe's spec and sample count.
fn accepts(entry: &CacheEntry, spec: &DatasetSpec, samples: usize, recipe: &Recipe) -> bool {
    let params = recipe.architecture.param_count(&recipe.spec) as u64;
    entry.version == CACHE_VERSION
        && entry.quick == quick_mode()
        && entry.seed == recipe.data_seed
        && entry.params == params
        && entry.dnn.param_count() as u64 == params
        && samples == recipe.samples
        && *spec == recipe.spec
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
/// `target/t2fsnn-cache/`; a miss fits the scenario's [`Recipe`]. A hit
/// checksums and decodes the whole file; [`prepare_network`] reads only
/// the network.
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

    let entry = CacheEntry {
        version: CACHE_VERSION,
        quick: quick_mode(),
        seed: recipe.data_seed,
        params: dnn.param_count() as u64,
        dnn,
        dnn_accuracy,
    };
    write_cache(&cache_path(scenario, "bin"), &entry, &data);
    Prepared {
        scenario,
        dnn: entry.dnn,
        train,
        test,
        dnn_accuracy,
    }
}

/// Reads a scenario's source network and its DNN test accuracy from the
/// cache without its dataset: the serving path, which needs no data.
///
/// It checksums and decodes the entry's key, network and accuracy
/// sections, reads only the head of the dataset section (its spec and
/// image shape) to apply [`prepare`]'s acceptance rule, and seeks past
/// the image data and labels unread. So it is a hit on every entry
/// `prepare` accepts, and also on one whose image data or labels hold a
/// flipped byte, which `prepare` reads as a miss: no byte it returns is
/// unchecked. A miss falls back to [`prepare`] (which trains and writes
/// the entry).
///
/// # Panics
///
/// Panics if training fails, as [`prepare`] does.
pub fn prepare_network(scenario: Scenario) -> (Network, f32) {
    if let Some(found) = load_network_from(&cache_path(scenario, "bin"), scenario) {
        return found;
    }
    let prepared = prepare(scenario);
    (prepared.dnn, prepared.dnn_accuracy)
}

/// Atomically writes a cache file in the binary format: `entry`'s
/// sections, then `dataset` last (write-then-rename, so parallel
/// writers racing on a cold cache can never leave a truncated or
/// interleaved file behind; the last complete write wins). The tmp name
/// is unique per process AND per writer (test threads within one binary
/// share a pid).
fn write_cache(path: &Path, entry: &CacheEntry, dataset: &Dataset) {
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let Value::Object(mut sections) = entry.to_value() else {
        unreachable!("a struct serializes to an object");
    };
    sections.push(("dataset".to_string(), dataset.to_value()));
    let bytes = binfmt::to_bytes(&Value::Object(sections));
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

fn load_cache_from(path: &Path, scenario: Scenario) -> Option<Prepared> {
    // Non-binary (legacy JSON), version-1 or corrupt entries are plain
    // misses: `from_bytes` rejects them. The file bytes are a temporary
    // of this statement, freed before the dataset is built.
    let tree = binfmt::from_bytes(&fs::read(path).ok()?).ok()?;
    prepared_from(tree, scenario)
}

/// Validates a decoded cache file against the scenario definition and
/// splits its dataset; `None` on any mismatch, a label count that
/// disagrees with the image shape included.
///
/// The decoded image data moves out of the tree into the training
/// split, so the only copy of the dataset is its test tail.
fn prepared_from(mut tree: Value, scenario: Scenario) -> Option<Prepared> {
    let entry = CacheEntry::from_value(&tree).ok()?;
    let dataset = tree.get_mut("dataset")?;
    let data = dataset.get_mut("images")?.get_mut("data")?.take();
    let head = DatasetHead::from_value(dataset).ok()?;
    let labels = Vec::<usize>::from_value(dataset.get("labels")?).ok()?;
    drop(tree);
    let recipe = scenario.recipe();
    let spec = head.spec;
    let shape = [labels.len(), spec.channels, spec.height, spec.width];
    if head.images.shape != shape || !accepts(&entry, &spec, labels.len(), &recipe) {
        return None;
    }
    // An image array holding a non-finite value is stored element-wise.
    let data = match data {
        Value::F32Array(packed) => packed,
        elementwise => Vec::<f32>::from_value(&elementwise).ok()?,
    };
    let mut train = Dataset {
        spec,
        images: Tensor::from_vec(shape, data).ok()?,
        labels,
    };
    let test = train.split_off(recipe.train_size);
    Some(Prepared {
        scenario,
        dnn: entry.dnn,
        train,
        test,
        dnn_accuracy: entry.dnn_accuracy,
    })
}

/// [`prepare_network`]'s cache reader: `None` on any miss, as
/// [`load_cache_from`].
fn load_network_from(path: &Path, scenario: Scenario) -> Option<(Network, f32)> {
    let mut file = BufReader::new(File::open(path).ok()?);
    let tree = binfmt::read_sections(&mut file, |key| {
        if key == "dataset" {
            Take::Head(&["images", "data"])
        } else {
            Take::Whole
        }
    })
    .ok()?;
    let entry = CacheEntry::from_value(&tree).ok()?;
    let head = Option::<DatasetHead>::from_value(tree.get("dataset")?).ok()??;
    let samples = *head.images.shape.first()?;
    if !accepts(&entry, &head.spec, samples, &scenario.recipe()) {
        return None;
    }
    Some((entry.dnn, entry.dnn_accuracy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    /// Writes a `tiny` cache entry holding `dataset` to a scratch
    /// directory named after `tag`, so a test cannot race other tests
    /// using the shared on-disk cache. Its network is freshly
    /// initialised, not loaded, so the entry does not pass through the
    /// loader under test. Returns the entry and its path; the caller
    /// removes the path's directory.
    fn scratch_cache_of(tag: &str, dataset: &Dataset) -> (CacheEntry, PathBuf) {
        let recipe = Scenario::Tiny.recipe();
        let dnn = recipe
            .architecture
            .build(&mut ChaCha8Rng::seed_from_u64(7), &recipe.spec);
        let entry = CacheEntry {
            version: CACHE_VERSION,
            quick: quick_mode(),
            seed: Scenario::Tiny.seed(),
            params: dnn.param_count() as u64,
            dnn,
            dnn_accuracy: 0.625,
        };
        let dir = std::env::temp_dir().join(format!("t2fsnn-{tag}-cache-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        let path = dir.join("tiny-scratch-v1.bin");
        write_cache(&path, &entry, dataset);
        (entry, path)
    }

    /// [`scratch_cache_of`] with the `tiny` scenario's own dataset.
    fn scratch_cache(tag: &str) -> (CacheEntry, PathBuf) {
        scratch_cache_of(tag, &Scenario::Tiny.dataset())
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

    /// The byte range of section `key`'s payload in a cache file, found
    /// by walking the section framing (see the `binfmt` module docs).
    fn payload_range(file: &[u8], key: &str) -> std::ops::Range<usize> {
        let len_at = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
        let count = len_at(7);
        let mut at = 15;
        for _ in 0..count {
            let key_len = len_at(at);
            let name = &file[at + 8..at + 8 + key_len];
            let payload_len = len_at(at + 8 + key_len);
            let start = at + 8 + key_len + 8 + 4;
            if name == key.as_bytes() {
                return start..start + payload_len;
            }
            at = start + payload_len;
        }
        panic!("no section `{key}`");
    }

    /// The `binfmt` bytes of a network: what "the same network" means.
    fn network_bytes(dnn: &Network) -> Vec<u8> {
        binfmt::to_bytes(&dnn.to_value())
    }

    #[test]
    fn both_readers_return_the_same_network() {
        let (entry, path) = scratch_cache("readers");
        let full = load_cache_from(&path, Scenario::Tiny).expect("prepare's reader hits");
        let (dnn, accuracy) =
            load_network_from(&path, Scenario::Tiny).expect("the network reader hits");
        let _ = fs::remove_dir_all(path.parent().expect("scratch dir"));
        assert_eq!(network_bytes(&dnn), network_bytes(&full.dnn));
        assert_eq!(network_bytes(&dnn), network_bytes(&entry.dnn));
        assert_eq!(accuracy.to_bits(), full.dnn_accuracy.to_bits());

        // The same holds for the scenario's own cache entry, which
        // re-encodes to its file byte for byte.
        let prepared = prepare(Scenario::Tiny);
        let (dnn, accuracy) = prepare_network(Scenario::Tiny);
        assert_eq!(network_bytes(&dnn), network_bytes(&prepared.dnn));
        assert_eq!(accuracy.to_bits(), prepared.dnn_accuracy.to_bits());
        let file = fs::read(cache_path(Scenario::Tiny, "bin")).expect("tiny cache");
        let tree = binfmt::from_bytes(&file).expect("decode");
        assert_eq!(binfmt::to_bytes(&tree), file);
    }

    #[test]
    fn a_flipped_network_byte_is_a_miss_for_both_readers() {
        let (_, path) = scratch_cache("dnn-flip");
        let original = fs::read(&path).expect("read scratch cache");
        let dnn = payload_range(&original, "dnn");
        for idx in [dnn.start, (dnn.start + dnn.end) / 2, dnn.end - 1] {
            let mut corrupt = original.clone();
            corrupt[idx] ^= 0x10;
            fs::write(&path, &corrupt).expect("write corrupted cache");
            assert!(
                load_cache_from(&path, Scenario::Tiny).is_none(),
                "byte {idx}"
            );
            assert!(
                load_network_from(&path, Scenario::Tiny).is_none(),
                "byte {idx}"
            );
        }
        let _ = fs::remove_dir_all(path.parent().expect("scratch dir"));
    }

    #[test]
    fn a_dataset_off_the_recipe_is_a_miss_for_both_readers() {
        let recipe = Scenario::Tiny.recipe();
        let fewer = Recipe {
            samples: recipe.samples - 8,
            ..recipe.clone()
        };
        let renamed = Recipe {
            spec: DatasetSpec::new("other16", 1, 16, 16, 4),
            ..recipe
        };
        for (tag, recipe) in [("fewer", fewer), ("renamed", renamed)] {
            let (_, path) = scratch_cache_of(tag, &recipe.dataset());
            assert!(load_cache_from(&path, Scenario::Tiny).is_none(), "{tag}");
            assert!(load_network_from(&path, Scenario::Tiny).is_none(), "{tag}");
            let _ = fs::remove_dir_all(path.parent().expect("scratch dir"));
        }
    }

    /// A checksum-valid entry whose label count disagrees with its
    /// image shape is a miss for `prepare`, whichever side is longer
    /// (labels longer than the images once passed the key check and
    /// panicked in the split).
    #[test]
    fn labels_off_the_image_shape_are_a_miss() {
        let dataset = Scenario::Tiny.dataset();
        let n = dataset.len();
        let [c, h, w] = [
            dataset.spec.channels,
            dataset.spec.height,
            dataset.spec.width,
        ];
        let images = |count: usize| {
            let data = dataset.images.data()[..count * c * h * w].to_vec();
            Tensor::from_vec([count, c, h, w], data).expect("whole images")
        };
        let longer_labels = Dataset {
            images: images(n - 8),
            ..dataset.clone()
        };
        let shorter_labels = Dataset {
            labels: dataset.labels[..n - 8].to_vec(),
            ..dataset.clone()
        };
        for (tag, dataset) in [("longer", longer_labels), ("shorter", shorter_labels)] {
            let (_, path) = scratch_cache_of(&format!("labels-{tag}"), &dataset);
            assert!(
                binfmt::from_bytes(&fs::read(&path).unwrap()).is_ok(),
                "{tag}"
            );
            assert!(load_cache_from(&path, Scenario::Tiny).is_none(), "{tag}");
            let _ = fs::remove_dir_all(path.parent().expect("scratch dir"));
        }
    }

    /// The one intended difference between the readers: the network
    /// reader checksums only what it reads, so damage to the image data
    /// it seeks past is a miss for `prepare` alone, and it still returns
    /// the network that was written.
    #[test]
    fn a_flipped_image_byte_is_a_miss_only_for_prepare() {
        let (entry, path) = scratch_cache("image-flip");
        let original = fs::read(&path).expect("read scratch cache");
        let dataset = payload_range(&original, "dataset");
        // Images fill all but the last ~2 KB (the labels) of the section.
        let mut corrupt = original.clone();
        corrupt[(dataset.start + dataset.end) / 2] ^= 0x10;
        fs::write(&path, &corrupt).expect("write corrupted cache");
        assert!(load_cache_from(&path, Scenario::Tiny).is_none());
        let (dnn, _) = load_network_from(&path, Scenario::Tiny).expect("the network reader hits");
        assert_eq!(network_bytes(&dnn), network_bytes(&entry.dnn));
        let _ = fs::remove_dir_all(path.parent().expect("scratch dir"));
    }

    #[test]
    fn shape_param_count_matches_every_scenario_network() {
        for scenario in Scenario::ALL {
            let recipe = scenario.recipe();
            let built = recipe.architecture.build(
                &mut ChaCha8Rng::seed_from_u64(recipe.init_seed),
                &recipe.spec,
            );
            assert_eq!(
                recipe.architecture.param_count(&recipe.spec),
                built.param_count(),
                "{}",
                scenario.name()
            );
        }
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
        let (entry, path) = scratch_cache("packed");
        let bytes = fs::read(&path).expect("read scratch cache");
        let loaded = load_cache_from(&path, Scenario::Tiny).expect("pristine entry");
        let _ = fs::remove_dir_all(path.parent().expect("scratch dir"));

        // Re-encoding the decoded tree reproduces the file byte for byte.
        let tree = crate::binfmt::from_bytes(&bytes).expect("decode");
        assert_eq!(crate::binfmt::to_bytes(&tree), bytes);

        // The packed load equals, field for field, both the network and
        // splits that were written and the load of the element-wise tree
        // (`Debug` prints every f32 exactly, -0.0 included).
        let (train, test) = Scenario::Tiny
            .dataset()
            .split(Scenario::Tiny.recipe().train_size);
        let written = Prepared {
            scenario: Scenario::Tiny,
            dnn: entry.dnn,
            train,
            test,
            dnn_accuracy: entry.dnn_accuracy,
        };
        let reference =
            prepared_from(elementwise(&tree), Scenario::Tiny).expect("element-wise load");
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
