//! Event-list (sparse) spike representation.
//!
//! TTFS coding's core promise is that every neuron fires *at most once*,
//! and even rate/phase/burst spike tensors are mostly zeros at any given
//! time step. A [`SpikeBatch`] stores only the non-zero entries of a
//! `[N, ...]` activation tensor in CSR style: one `(flat index, value)`
//! list per image, with indices in ascending (row-major) order. Sparse
//! kernels (see [`crate::ops::sparse`]) iterate these lists instead of
//! scanning dense tensors, and — because the event order equals the dense
//! row-major scan order — produce **bit-identical** results to their
//! dense counterparts.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Sparse events of one batch: per-image CSR index/value lists.
///
/// Indices are flat offsets *within one image* (i.e. into the
/// `[feature_dims]` sub-tensor), stored as `u32` — a single image layer
/// above 4 G elements is far outside this workspace's scale.
///
/// # Examples
///
/// ```
/// use t2fsnn_tensor::{SpikeBatch, Tensor};
///
/// # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
/// let dense = Tensor::from_vec([2, 3], vec![0.0, 1.5, 0.0, 2.0, 0.0, 3.0])?;
/// let sparse = SpikeBatch::from_dense(&dense)?;
/// assert_eq!(sparse.nnz(), 3);
/// assert_eq!(sparse.image_events(0), (&[1u32][..], &[1.5f32][..]));
/// assert_eq!(sparse.to_dense(), dense);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpikeBatch {
    feature_dims: Vec<usize>,
    /// `offsets[i]..offsets[i + 1]` is image `i`'s slice of
    /// `indices`/`values`; length `batch + 1`.
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SpikeBatch {
    /// An empty batch with no images; useful as a reusable scratch buffer
    /// for [`SpikeBatch::refill_bounded`].
    pub fn empty() -> Self {
        SpikeBatch::default()
    }

    /// Extracts all non-zero entries of a `[N, ...]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors (no batch axis).
    pub fn from_dense(dense: &Tensor) -> Result<Self> {
        let mut batch = SpikeBatch::empty();
        let filled = batch.refill_bounded(dense, usize::MAX)?;
        debug_assert!(filled, "usize::MAX bound cannot be exceeded");
        Ok(batch)
    }

    /// Refills this batch from `dense`, reusing existing allocations.
    ///
    /// Returns `false` — leaving the contents unspecified — as soon as
    /// more than `max_nnz` non-zeros are found, so engines can bail out
    /// to a dense kernel after bounded work.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors (no batch axis).
    pub fn refill_bounded(&mut self, dense: &Tensor, max_nnz: usize) -> Result<bool> {
        if dense.rank() == 0 {
            return Err(TensorError::InvalidArgument {
                op: "SpikeBatch::refill_bounded",
                message: "need at least a batch axis, got a scalar".to_string(),
            });
        }
        let n = dense.dims()[0];
        let feature_numel: usize = dense.dims()[1..].iter().product();
        self.feature_dims.clear();
        self.feature_dims.extend_from_slice(&dense.dims()[1..]);
        self.offsets.clear();
        self.offsets.push(0);
        self.indices.clear();
        self.values.clear();
        let data = dense.data();
        for img in 0..n {
            let slice = &data[img * feature_numel..(img + 1) * feature_numel];
            for (i, &v) in slice.iter().enumerate() {
                if v != 0.0 {
                    if self.indices.len() >= max_nnz {
                        return Ok(false);
                    }
                    self.indices.push(i as u32);
                    self.values.push(v);
                }
            }
            self.offsets.push(self.indices.len());
        }
        Ok(true)
    }

    /// Starts building a batch in place (clearing previous contents but
    /// keeping allocations): events are appended with
    /// [`SpikeBatch::push`] and image boundaries closed with
    /// [`SpikeBatch::end_image`]. Producers that already scan their
    /// source (e.g. a fire phase thresholding every membrane) use this
    /// to emit events without materializing a dense tensor first.
    pub fn begin(&mut self, feature_dims: &[usize]) {
        self.feature_dims.clear();
        self.feature_dims.extend_from_slice(feature_dims);
        self.offsets.clear();
        self.offsets.push(0);
        self.indices.clear();
        self.values.clear();
    }

    /// Appends one event of the image currently being built. Indices
    /// must be pushed in ascending order within each image.
    #[inline]
    pub fn push(&mut self, index: u32, value: f32) {
        debug_assert!(
            self.indices.len() == *self.offsets.last().expect("begin() called")
                || *self.indices.last().expect("non-empty") < index,
            "event indices must ascend within an image"
        );
        self.indices.push(index);
        self.values.push(value);
    }

    /// Closes the current image started by [`SpikeBatch::begin`] /
    /// the previous `end_image`.
    pub fn end_image(&mut self) {
        self.offsets.push(self.indices.len());
    }

    /// Appends one whole image whose events all carry `value`: `fill`
    /// appends the image's indices, ascending, straight onto the batch's
    /// index list (e.g. [`crate::simd::fire_subtract`]), so a fire scan
    /// needs no hit buffer of its own. Closes the image and returns its
    /// event count.
    pub fn push_image_with(&mut self, value: f32, fill: impl FnOnce(&mut Vec<u32>)) -> usize {
        let start = self.indices.len();
        debug_assert_eq!(start, *self.offsets.last().expect("begin() called"));
        fill(&mut self.indices);
        assert!(
            self.indices.len() >= start,
            "push_image_with: fill may only append"
        );
        debug_assert!(
            self.indices[start..].windows(2).all(|p| p[0] < p[1]),
            "event indices must ascend within an image"
        );
        self.values.resize(self.indices.len(), value);
        self.end_image();
        self.indices.len() - start
    }

    /// Reinterprets the per-image feature shape (e.g. flattening
    /// `[C, H, W]` to `[C·H·W]`): flat indices are unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error if the element count differs.
    pub fn reshape_features(&mut self, dims: &[usize]) -> Result<()> {
        if dims.iter().product::<usize>() != self.feature_numel() {
            return Err(TensorError::InvalidArgument {
                op: "SpikeBatch::reshape_features",
                message: format!(
                    "cannot reshape features {:?} to {dims:?}",
                    self.feature_dims
                ),
            });
        }
        self.feature_dims.clear();
        self.feature_dims.extend_from_slice(dims);
        Ok(())
    }

    /// Number of images.
    pub fn batch(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Per-image dimensions (the dense shape minus the batch axis).
    pub fn feature_dims(&self) -> &[usize] {
        &self.feature_dims
    }

    /// Elements per image.
    pub fn feature_numel(&self) -> usize {
        self.feature_dims.iter().product()
    }

    /// Total number of stored events.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fraction of non-zero entries (0 for an empty batch).
    pub fn density(&self) -> f32 {
        let total = self.batch() * self.feature_numel();
        if total == 0 {
            0.0
        } else {
            self.nnz() as f32 / total as f32
        }
    }

    /// Image `i`'s `(indices, values)` event lists, ascending by index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.batch()`.
    pub fn image_events(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Materializes the dense `[N, ...]` tensor.
    pub fn to_dense(&self) -> Tensor {
        let feature_numel = self.feature_numel();
        let mut dims = vec![self.batch()];
        dims.extend_from_slice(&self.feature_dims);
        let mut out = Tensor::zeros(Shape::new(&dims));
        let od = out.data_mut();
        for img in 0..self.batch() {
            let (idx, val) = self.image_events(img);
            let base = img * feature_numel;
            for (&i, &v) in idx.iter().zip(val) {
                od[base + i as usize] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_dense() {
        let dense = Tensor::from_fn([3, 2, 4], |i| {
            if (i[0] + i[1] + i[2]) % 3 == 0 {
                0.0
            } else {
                (i[0] * 8 + i[1] * 4 + i[2]) as f32
            }
        });
        let sparse = SpikeBatch::from_dense(&dense).unwrap();
        assert_eq!(sparse.batch(), 3);
        assert_eq!(sparse.feature_dims(), &[2, 4]);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn indices_are_ascending_row_major() {
        let dense = Tensor::from_vec([1, 6], vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0]).unwrap();
        let sparse = SpikeBatch::from_dense(&dense).unwrap();
        assert_eq!(sparse.image_events(0).0, &[0, 2, 5]);
        assert_eq!(sparse.image_events(0).1, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn bounded_refill_bails_beyond_cap() {
        let dense = Tensor::ones([2, 8]);
        let mut scratch = SpikeBatch::empty();
        assert!(!scratch.refill_bounded(&dense, 3).unwrap());
        assert!(scratch.refill_bounded(&dense, 16).unwrap());
        assert_eq!(scratch.nnz(), 16);
        // Reuse after a bailed refill must fully reset state.
        let small = Tensor::from_vec([1, 2], vec![0.0, 5.0]).unwrap();
        assert!(scratch.refill_bounded(&small, 1).unwrap());
        assert_eq!(scratch.nnz(), 1);
        assert_eq!(scratch.to_dense(), small);
    }

    #[test]
    fn density_and_empty_batch() {
        let empty = SpikeBatch::empty();
        assert_eq!(empty.batch(), 0);
        assert_eq!(empty.density(), 0.0);
        let dense = Tensor::from_vec([2, 2], vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        let sparse = SpikeBatch::from_dense(&dense).unwrap();
        assert!((sparse.density() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn incremental_builder_matches_from_dense() {
        let dense = Tensor::from_vec([2, 4], vec![0.0, 1.0, 0.0, 2.0, 3.0, 0.0, 0.0, 0.0]).unwrap();
        let reference = SpikeBatch::from_dense(&dense).unwrap();
        let mut built = SpikeBatch::empty();
        built.begin(&[4]);
        built.push(1, 1.0);
        built.push(3, 2.0);
        built.end_image();
        built.push(0, 3.0);
        built.end_image();
        assert_eq!(built, reference);
        // Flatten-style reshape keeps indices valid.
        let mut shaped = SpikeBatch::from_dense(&Tensor::ones([1, 2, 3])).unwrap();
        shaped.reshape_features(&[6]).unwrap();
        assert_eq!(shaped.feature_dims(), &[6]);
        assert!(shaped.reshape_features(&[5]).is_err());
    }

    #[test]
    fn rejects_scalar() {
        assert!(SpikeBatch::from_dense(&Tensor::scalar(1.0)).is_err());
    }

    #[test]
    fn negative_zero_is_treated_as_zero() {
        // -0.0 == 0.0 in IEEE; the event path must agree with the dense
        // kernels' `v == 0.0` skip.
        let dense = Tensor::from_vec([1, 2], vec![-0.0, 1.0]).unwrap();
        let sparse = SpikeBatch::from_dense(&dense).unwrap();
        assert_eq!(sparse.nnz(), 1);
    }
}
