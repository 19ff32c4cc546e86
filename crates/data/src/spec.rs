//! Dataset specifications mirroring the benchmarks used in the paper.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Shape and label-space description of an image-classification dataset.
///
/// The paper evaluates on MNIST, CIFAR-10 and CIFAR-100; this reproduction
/// substitutes procedurally generated datasets with identical tensor shapes
/// and class counts (the README's *Datasets and scaled networks* gives the
/// substitution rationale). The
/// three presets below match those benchmarks.
///
/// # Examples
///
/// ```
/// use t2fsnn_data::DatasetSpec;
///
/// let spec = DatasetSpec::cifar10_like();
/// assert_eq!(spec.image_dims(), [3, 32, 32]);
/// assert_eq!(spec.classes, 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Human-readable dataset name (used in experiment reports).
    pub name: String,
    /// Number of image channels (1 for MNIST-like, 3 for CIFAR-like).
    pub channels: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Number of target classes.
    pub classes: usize,
}

impl DatasetSpec {
    /// Creates a custom specification.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the class count is zero.
    pub fn new(name: &str, channels: usize, height: usize, width: usize, classes: usize) -> Self {
        assert!(
            channels > 0 && height > 0 && width > 0 && classes > 0,
            "dataset dimensions and class count must be positive"
        );
        DatasetSpec {
            name: name.to_string(),
            channels,
            height,
            width,
            classes,
        }
    }

    /// MNIST-shaped: 1×28×28 grayscale, 10 classes.
    pub fn mnist_like() -> Self {
        DatasetSpec::new("mnist-like", 1, 28, 28, 10)
    }

    /// CIFAR-10-shaped: 3×32×32 colour, 10 classes.
    pub fn cifar10_like() -> Self {
        DatasetSpec::new("cifar10-like", 3, 32, 32, 10)
    }

    /// CIFAR-100-shaped: 3×32×32 colour, 100 classes.
    pub fn cifar100_like() -> Self {
        DatasetSpec::new("cifar100-like", 3, 32, 32, 100)
    }

    /// A deliberately tiny spec (1×8×8, 4 classes) for fast unit tests.
    pub fn tiny() -> Self {
        DatasetSpec::new("tiny", 1, 8, 8, 4)
    }

    /// `[channels, height, width]` dims of one image.
    pub fn image_dims(&self) -> [usize; 3] {
        [self.channels, self.height, self.width]
    }

    /// Number of scalar values in one image.
    pub fn image_numel(&self) -> usize {
        self.channels * self.height * self.width
    }
}

impl fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{}x{}, {} classes)",
            self.name, self.channels, self.height, self.width, self.classes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_benchmarks() {
        let m = DatasetSpec::mnist_like();
        assert_eq!(m.image_dims(), [1, 28, 28]);
        assert_eq!(m.classes, 10);

        let c10 = DatasetSpec::cifar10_like();
        assert_eq!(c10.image_dims(), [3, 32, 32]);
        assert_eq!(c10.classes, 10);

        let c100 = DatasetSpec::cifar100_like();
        assert_eq!(c100.image_dims(), [3, 32, 32]);
        assert_eq!(c100.classes, 100);
    }

    #[test]
    fn image_numel_is_product() {
        assert_eq!(DatasetSpec::mnist_like().image_numel(), 784);
        assert_eq!(DatasetSpec::cifar10_like().image_numel(), 3072);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_rejected() {
        let _ = DatasetSpec::new("bad", 0, 8, 8, 2);
    }

    #[test]
    fn display_mentions_name_and_dims() {
        let s = DatasetSpec::tiny().to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("8x8"));
    }
}
