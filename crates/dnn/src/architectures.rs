//! Network builders: the scaled VGG family used throughout the
//! reproduction, plus small nets for tests.
//!
//! The paper evaluates VGG-16. This environment is a single CPU core, so we
//! train a *scaled* VGG (see the README's *Datasets and scaled
//! networks*): the same five conv-block
//! structure and naming (`conv1_1 … conv5_2`, `fc6`, `fc7`) with fewer
//! convolutions per block and narrower channels. Figure 5's layer labels
//! (`conv2_1`, `conv3_1`, `conv4_1`, `conv5_1`) resolve 1:1 against these
//! names.

use rand::Rng;
use t2fsnn_data::DatasetSpec;
use t2fsnn_tensor::ops::Conv2dSpec;

use crate::layers::{BatchNorm2d, Conv2d, Flatten, Linear, Pool, PoolKind, Relu};
use crate::network::Network;

/// Width/depth configuration for [`vgg_scaled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VggScale {
    /// Channel width of block 1; later blocks use multiples of it.
    pub base_channels: usize,
    /// Convolutions per block (VGG-11 uses `[1, 1, 2, 2, 2]`,
    /// VGG-16 `[2, 2, 3, 3, 3]`).
    pub convs_per_block: [usize; 5],
    /// Width of the hidden fully connected layer.
    pub fc_width: usize,
    /// Pooling operator between blocks.
    pub pool: PoolKind,
    /// Insert batch norm after every convolution (fold with
    /// [`Network::fold_batchnorm`] before conversion).
    pub batch_norm: bool,
}

impl Default for VggScale {
    /// VGG-11 block structure at 1/8 width — trainable in seconds on one
    /// core while preserving the 5-block depth the pipeline experiments
    /// need.
    fn default() -> Self {
        VggScale {
            base_channels: 8,
            convs_per_block: [1, 1, 2, 2, 2],
            fc_width: 64,
            pool: PoolKind::Avg,
            batch_norm: false,
        }
    }
}

impl VggScale {
    /// Channel width of block `b` (0-based): `[c, 2c, 4c, 4c, 4c]`.
    pub fn block_channels(&self, b: usize) -> usize {
        match b {
            0 => self.base_channels,
            1 => self.base_channels * 2,
            _ => self.base_channels * 4,
        }
    }
}

/// Builds a scaled VGG for `spec`-shaped inputs.
///
/// The input spatial size must be divisible by 32 (five 2× poolings);
/// use [`cnn_small`] for MNIST-shaped 28×28 inputs.
///
/// # Panics
///
/// Panics if `spec.height`/`spec.width` are not divisible by 32.
pub fn vgg_scaled<R: Rng + ?Sized>(rng: &mut R, spec: &DatasetSpec, scale: VggScale) -> Network {
    assert!(
        spec.height.is_multiple_of(32) && spec.width.is_multiple_of(32),
        "vgg_scaled needs spatial dims divisible by 32, got {}x{}",
        spec.height,
        spec.width
    );
    let conv_spec = Conv2dSpec::new(1, 1);
    let mut net = Network::new();
    let mut in_ch = spec.channels;
    for block in 0..5 {
        let out_ch = scale.block_channels(block);
        for conv in 0..scale.convs_per_block[block] {
            let name = format!("conv{}_{}", block + 1, conv + 1);
            net.push(&name, Conv2d::new(rng, in_ch, out_ch, 3, conv_spec));
            if scale.batch_norm {
                net.push(
                    &format!("bn{}_{}", block + 1, conv + 1),
                    BatchNorm2d::new(out_ch),
                );
            }
            net.push(&format!("relu{}_{}", block + 1, conv + 1), Relu::new());
            in_ch = out_ch;
        }
        net.push(&format!("pool{}", block + 1), Pool::down2(scale.pool));
    }
    let spatial = (spec.height / 32) * (spec.width / 32);
    net.push("flatten", Flatten::new());
    net.push("fc6", Linear::new(rng, in_ch * spatial, scale.fc_width));
    net.push("relu6", Relu::new());
    net.push("fc7", Linear::new(rng, scale.fc_width, spec.classes));
    net
}

/// Builds a small two-block CNN for MNIST-shaped inputs
/// (`conv1_1`-pool-`conv2_1`-pool-`fc3`-`fc4`).
pub fn cnn_small<R: Rng + ?Sized>(rng: &mut R, spec: &DatasetSpec, pool: PoolKind) -> Network {
    let conv_spec = Conv2dSpec::new(1, 1);
    let mut net = Network::new();
    net.push("conv1_1", Conv2d::new(rng, spec.channels, 8, 3, conv_spec));
    net.push("relu1_1", Relu::new());
    net.push("pool1", Pool::down2(pool));
    net.push("conv2_1", Conv2d::new(rng, 8, 16, 3, conv_spec));
    net.push("relu2_1", Relu::new());
    net.push("pool2", Pool::down2(pool));
    let spatial = (spec.height / 4) * (spec.width / 4);
    net.push("flatten", Flatten::new());
    net.push("fc3", Linear::new(rng, 16 * spatial, 64));
    net.push("relu3", Relu::new());
    net.push("fc4", Linear::new(rng, 64, spec.classes));
    net
}

/// A minimal multi-layer perceptron for unit tests:
/// flatten → dense(32) → ReLU → dense(classes).
pub fn mlp_tiny<R: Rng + ?Sized>(rng: &mut R, spec: &DatasetSpec) -> Network {
    let mut net = Network::new();
    net.push("flatten", Flatten::new());
    net.push("fc1", Linear::new(rng, spec.image_numel(), 32));
    net.push("relu1", Relu::new());
    net.push("fc2", Linear::new(rng, 32, spec.classes));
    net
}

/// One of the builders above as a value, so a [`Recipe`](crate::Recipe)
/// can hold its network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Architecture {
    /// [`mlp_tiny`].
    MlpTiny,
    /// [`cnn_small`] with this pooling operator.
    CnnSmall(PoolKind),
    /// [`vgg_scaled`] at this scale.
    Vgg(VggScale),
}

impl Architecture {
    /// Builds this architecture for `spec`-shaped inputs, drawing its
    /// initial weights from `rng`.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R, spec: &DatasetSpec) -> Network {
        match *self {
            Architecture::MlpTiny => mlp_tiny(rng, spec),
            Architecture::CnnSmall(pool) => cnn_small(rng, spec, pool),
            Architecture::Vgg(scale) => vgg_scaled(rng, spec, scale),
        }
    }

    /// [`Network::param_count`] of what [`build`](Architecture::build)
    /// makes for `spec`, counted from the layer shapes alone: no weights
    /// are drawn or allocated.
    pub fn param_count(&self, spec: &DatasetSpec) -> usize {
        let conv = |inputs: usize, outputs: usize| outputs * inputs * 3 * 3 + outputs;
        let linear = |inputs: usize, outputs: usize| inputs * outputs + outputs;
        match *self {
            Architecture::MlpTiny => linear(spec.image_numel(), 32) + linear(32, spec.classes),
            Architecture::CnnSmall(_) => {
                let spatial = (spec.height / 4) * (spec.width / 4);
                conv(spec.channels, 8)
                    + conv(8, 16)
                    + linear(16 * spatial, 64)
                    + linear(64, spec.classes)
            }
            Architecture::Vgg(scale) => {
                // Batch norm learns a scale and a shift per channel.
                let norm = if scale.batch_norm { 2 } else { 0 };
                let mut count = 0;
                let mut in_ch = spec.channels;
                for block in 0..5 {
                    let out_ch = scale.block_channels(block);
                    for _ in 0..scale.convs_per_block[block] {
                        count += conv(in_ch, out_ch) + norm * out_ch;
                        in_ch = out_ch;
                    }
                }
                let spatial = (spec.height / 32) * (spec.width / 32);
                count
                    + linear(in_ch * spatial, scale.fc_width)
                    + linear(scale.fc_width, spec.classes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_tensor::Tensor;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(2)
    }

    #[test]
    fn vgg_scaled_forward_shape() {
        let spec = DatasetSpec::cifar10_like();
        let mut net = vgg_scaled(&mut rng(), &spec, VggScale::default());
        let y = net.forward(&Tensor::zeros([2, 3, 32, 32]), false).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn vgg_has_figure5_layer_names() {
        let spec = DatasetSpec::cifar10_like();
        let net = vgg_scaled(&mut rng(), &spec, VggScale::default());
        for name in ["conv1_1", "conv2_1", "conv3_1", "conv4_1", "conv5_1"] {
            assert!(net.index_of(name).is_some(), "missing layer {name}");
        }
        assert!(net.index_of("fc6").is_some());
        assert!(net.index_of("fc7").is_some());
    }

    #[test]
    fn vgg16_depth_option() {
        let spec = DatasetSpec::cifar10_like();
        let scale = VggScale {
            convs_per_block: [2, 2, 3, 3, 3],
            ..VggScale::default()
        };
        let net = vgg_scaled(&mut rng(), &spec, scale);
        let convs = net.layers().iter().filter(|l| l.kind() == "conv").count();
        assert_eq!(convs, 13, "VGG-16 has 13 conv layers");
        assert!(net.index_of("conv5_3").is_some());
    }

    #[test]
    #[should_panic(expected = "divisible by 32")]
    fn vgg_rejects_mnist_shape() {
        let spec = DatasetSpec::mnist_like();
        let _ = vgg_scaled(&mut rng(), &spec, VggScale::default());
    }

    #[test]
    fn cnn_small_forward_shape_mnist() {
        let spec = DatasetSpec::mnist_like();
        let mut net = cnn_small(&mut rng(), &spec, PoolKind::Avg);
        let y = net.forward(&Tensor::zeros([1, 1, 28, 28]), false).unwrap();
        assert_eq!(y.dims(), &[1, 10]);
    }

    #[test]
    fn mlp_tiny_forward_shape() {
        let spec = DatasetSpec::tiny();
        let mut net = mlp_tiny(&mut rng(), &spec);
        let y = net.forward(&Tensor::zeros([5, 1, 8, 8]), false).unwrap();
        assert_eq!(y.dims(), &[5, 4]);
    }

    #[test]
    fn batch_norm_variant_builds_and_folds() {
        let spec = DatasetSpec::cifar10_like();
        let scale = VggScale {
            batch_norm: true,
            ..VggScale::default()
        };
        let mut net = vgg_scaled(&mut rng(), &spec, scale);
        assert!(net.index_of("bn1_1").is_some());
        let x = Tensor::from_fn([2, 3, 32, 32], |i| ((i[1] + i[2] + i[3]) % 9) as f32 * 0.1);
        // Touch the running stats so folding is non-trivial.
        net.forward(&x, true).unwrap();
        let before = net.forward(&x, false).unwrap();
        let folded = net.fold_batchnorm().unwrap();
        assert_eq!(folded, 8, "one BN per conv in the default depth");
        assert!(net.index_of("bn1_1").is_none());
        let after = net.forward(&x, false).unwrap();
        assert!(
            before.all_close(&after, 1e-3),
            "folding must preserve the inference function"
        );
    }

    #[test]
    fn param_count_matches_the_built_network() {
        let fixture_vgg = VggScale {
            base_channels: 4,
            convs_per_block: [1, 1, 1, 1, 1],
            fc_width: 16,
            ..VggScale::default()
        };
        let vgg16 = VggScale {
            convs_per_block: [2, 2, 3, 3, 3],
            base_channels: 2,
            fc_width: 16,
            ..VggScale::default()
        };
        let wide = VggScale {
            fc_width: 128,
            ..VggScale::default()
        };
        let normed = VggScale {
            batch_norm: true,
            pool: PoolKind::Max,
            ..VggScale::default()
        };
        let cases = [
            (Architecture::MlpTiny, DatasetSpec::tiny()),
            (Architecture::MlpTiny, DatasetSpec::new("rgb", 3, 8, 8, 5)),
            (
                Architecture::CnnSmall(PoolKind::Avg),
                DatasetSpec::mnist_like(),
            ),
            (
                Architecture::CnnSmall(PoolKind::Max),
                DatasetSpec::new("max-pool-cnn", 1, 16, 16, 4),
            ),
            (
                Architecture::Vgg(VggScale::default()),
                DatasetSpec::cifar10_like(),
            ),
            (Architecture::Vgg(wide), DatasetSpec::cifar100_like()),
            (
                Architecture::Vgg(fixture_vgg),
                DatasetSpec::new("go", 3, 32, 32, 5),
            ),
            (Architecture::Vgg(vgg16), DatasetSpec::cifar10_like()),
            (Architecture::Vgg(normed), DatasetSpec::cifar10_like()),
        ];
        for (architecture, spec) in cases {
            assert_eq!(
                architecture.param_count(&spec),
                architecture.build(&mut rng(), &spec).param_count(),
                "{architecture:?} on {}",
                spec.name
            );
        }
    }

    #[test]
    fn block_channels_progression() {
        let scale = VggScale::default();
        assert_eq!(scale.block_channels(0), 8);
        assert_eq!(scale.block_channels(1), 16);
        assert_eq!(scale.block_channels(2), 32);
        assert_eq!(scale.block_channels(4), 32);
    }
}
