//! Training recipes as data: one [`Recipe`] value fixes everything that
//! makes a conversion-ready source network, and [`Recipe::fit`] is the
//! one driver that makes it.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn_data::{Dataset, DatasetSpec, SyntheticConfig};
use t2fsnn_tensor::Result;

use crate::architectures::Architecture;
use crate::network::Network;
use crate::normalize::normalize_for_snn;
use crate::train::{train, TrainConfig};

/// Everything that makes one trained, data-normalized source network:
/// its synthetic dataset and split, its architecture, its seeds, its
/// training loop and its normalization percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// Shape and class count of the synthetic dataset.
    pub spec: DatasetSpec,
    /// Seed of the dataset synthesis.
    pub data_seed: u64,
    /// Standard deviation of the synthesis' pixel noise.
    pub noise: f32,
    /// Samples synthesized, train and test together.
    pub samples: usize,
    /// The leading samples that form the training split; the rest are
    /// the test split.
    pub train_size: usize,
    /// The network trained.
    pub architecture: Architecture,
    /// Seed of the one stream that draws the initial weights and then
    /// shuffles the training batches.
    pub init_seed: u64,
    /// The training loop's configuration.
    pub train: TrainConfig,
    /// Activation percentile [`normalize_for_snn`] scales to 1 (`1.0`
    /// is max-normalization).
    pub percentile: f32,
}

impl Default for Recipe {
    /// The tiny MLP on 160 samples of [`DatasetSpec::tiny`] (128 train),
    /// at the synthesis' default noise (σ 0.20), with the default
    /// training loop and the 99.9th-percentile normalization every
    /// experiment uses.
    fn default() -> Self {
        Recipe {
            spec: DatasetSpec::tiny(),
            data_seed: 0,
            noise: 0.20,
            samples: 160,
            train_size: 128,
            architecture: Architecture::MlpTiny,
            init_seed: 0,
            train: TrainConfig::default(),
            percentile: 0.999,
        }
    }
}

/// A fitted [`Recipe`]: its trained, normalized network and its data.
#[derive(Debug, Clone)]
pub struct Fitted {
    /// The trained, data-normalized network.
    pub dnn: Network,
    /// The whole synthesized dataset, training split first.
    pub data: Dataset,
    /// The training split (also the normalization set).
    pub train: Dataset,
    /// The held-out test split.
    pub test: Dataset,
}

impl Recipe {
    /// Synthesizes this recipe's dataset, deterministically.
    pub fn dataset(&self) -> Dataset {
        SyntheticConfig::new(self.spec.clone(), self.data_seed)
            .with_noise(self.noise)
            .generate(self.samples)
    }

    /// Synthesizes the dataset, splits it, builds the network from
    /// `init_seed`, trains it on the training split with that same
    /// stream and normalizes it on the training images.
    ///
    /// # Errors
    ///
    /// Propagates the tensor shape errors of an architecture that does
    /// not fit the dataset's shape.
    ///
    /// # Panics
    ///
    /// Panics if `train_size > samples`.
    pub fn fit(&self) -> Result<Fitted> {
        let data = self.dataset();
        let (train_set, test_set) = data.split(self.train_size);
        let mut rng = ChaCha8Rng::seed_from_u64(self.init_seed);
        let mut dnn = self.architecture.build(&mut rng, &self.spec);
        train(&mut dnn, &train_set, &self.train, &mut rng)?;
        normalize_for_snn(&mut dnn, &train_set.images, self.percentile)?;
        Ok(Fitted {
            dnn,
            data,
            train: train_set,
            test: test_set,
        })
    }
}
