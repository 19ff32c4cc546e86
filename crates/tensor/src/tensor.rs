//! The dense, row-major, `f32` tensor type.

use std::fmt;
use std::ops::{Add, Div, Index, IndexMut, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::error::{Result, TensorError};
use crate::shape::Shape;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// `Tensor` is the single numeric container used by every crate in the
/// T2FSNN workspace: DNN activations and weights, spike maps, membrane
/// potentials and kernel tables are all `Tensor`s. It deliberately supports
/// only what the reproduction needs — owned contiguous storage, element-wise
/// arithmetic, reductions, and reshaping — with the heavier operations
/// (matmul, convolution, pooling) provided by [`crate::ops`].
///
/// # Examples
///
/// ```
/// use t2fsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::full([2, 2], 0.5);
/// let c = a.mul(&b)?;
/// assert_eq!(c.data(), &[0.5, 1.0, 1.5, 2.0]);
/// assert_eq!(c.sum(), 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor where every element equals `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    /// Creates a tensor from an existing data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if `data.len()` does not match
    /// the element count of `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::InvalidReshape {
                from: Shape::new(&[data.len()]),
                to: shape,
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at every multi-dimensional index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        for flat in 0..n {
            let idx = shape.multi_index(flat).expect("flat index in range");
            data.push(f(&idx));
        }
        Tensor { shape, data }
    }

    /// Returns the tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Returns the rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Returns the underlying data as a flat row-major slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data as a mutable flat row-major slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at `index`, or `None` if out of bounds.
    pub fn get(&self, index: &[usize]) -> Option<f32> {
        self.shape.flat_index(index).map(|i| self.data[i])
    }

    /// Sets the element at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index is invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        match self.shape.flat_index(index) {
            Some(i) => {
                self.data[i] = value;
                Ok(())
            }
            None => Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            }),
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_with",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "sub", |a, b| a - b)
    }

    /// Element-wise multiplication (Hadamard product).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "mul", |a, b| a * b)
    }

    /// Element-wise division.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "div", |a, b| a / b)
    }

    fn binary(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Adds `other * alpha` into `self` in place (`axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "add_scaled",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        crate::simd::add_scaled(&mut self.data, &other.data, alpha);
        Ok(())
    }

    /// Multiplies every element by `alpha`, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Self {
        self.map(|x| x * alpha)
    }

    /// Adds `alpha` to every element, returning a new tensor.
    pub fn add_scalar(&self, alpha: f32) -> Self {
        self.map(|x| x + alpha)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Flat index of the maximum element, or `None` for an empty tensor.
    /// Ties break toward the lowest index.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &x) in self.data.iter().enumerate() {
            match best {
                Some((_, bx)) if bx >= x => {}
                _ => best = Some((i, x)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(TensorError::InvalidReshape {
                from: self.shape.clone(),
                to: shape,
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::InvalidArgument {
                op: "transpose",
                message: format!("expected rank 2, got shape {}", self.shape),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut data = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor {
            shape: Shape::new(&[c, r]),
            data,
        })
    }

    /// Permutes a channel-major `[N, C, H, W]` batch into the
    /// position-major `[N, H, W, C]` layout the spiking engine's membrane
    /// state uses natively (each spatial position's channels contiguous).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the tensor is not rank 4.
    ///
    /// # Examples
    ///
    /// ```
    /// use t2fsnn_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
    /// let nchw = Tensor::from_fn([1, 2, 2, 3], |i| (i[1] * 100 + i[2] * 10 + i[3]) as f32);
    /// let nhwc = nchw.to_position_major()?;
    /// assert_eq!(nhwc.dims(), &[1, 2, 3, 2]);
    /// assert_eq!(nhwc.get(&[0, 1, 2, 1]), nchw.get(&[0, 1, 1, 2]));
    /// assert_eq!(nhwc.to_channel_major()?, nchw);
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_position_major(&self) -> Result<Self> {
        let [n, c, h, w] = self.layout_dims("to_position_major")?;
        let mut data = vec![0.0f32; self.data.len()];
        let plane = h * w;
        for ni in 0..n {
            let src_img = &self.data[ni * c * plane..(ni + 1) * c * plane];
            let dst_img = &mut data[ni * c * plane..(ni + 1) * c * plane];
            for (ci, src_plane) in src_img.chunks_exact(plane.max(1)).enumerate().take(c) {
                for (p, &v) in src_plane.iter().enumerate() {
                    dst_img[p * c + ci] = v;
                }
            }
        }
        Ok(Tensor {
            shape: Shape::new(&[n, h, w, c]),
            data,
        })
    }

    /// Inverse of [`Tensor::to_position_major`]: permutes `[N, H, W, C]`
    /// back into `[N, C, H, W]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the tensor is not rank 4.
    pub fn to_channel_major(&self) -> Result<Self> {
        let [n, h, w, c] = self.layout_dims("to_channel_major")?;
        let mut data = vec![0.0f32; self.data.len()];
        let plane = h * w;
        for ni in 0..n {
            let src_img = &self.data[ni * c * plane..(ni + 1) * c * plane];
            let dst_img = &mut data[ni * c * plane..(ni + 1) * c * plane];
            for (ci, dst_plane) in dst_img.chunks_exact_mut(plane.max(1)).enumerate().take(c) {
                for (p, slot) in dst_plane.iter_mut().enumerate() {
                    *slot = src_img[p * c + ci];
                }
            }
        }
        Ok(Tensor {
            shape: Shape::new(&[n, c, h, w]),
            data,
        })
    }

    fn layout_dims(&self, op: &'static str) -> Result<[usize; 4]> {
        if self.rank() != 4 {
            return Err(TensorError::InvalidArgument {
                op,
                message: format!("expected a rank-4 batch, got shape {}", self.shape),
            });
        }
        let d = self.shape.dims();
        Ok([d[0], d[1], d[2], d[3]])
    }

    /// Copies the sub-tensor `self[index, ...]` along the first axis.
    ///
    /// For a shape `[N, ...rest]` tensor this returns a `[...rest]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index and
    /// [`TensorError::InvalidArgument`] for a rank-0 tensor.
    pub fn index_axis0(&self, index: usize) -> Result<Self> {
        if self.rank() == 0 {
            return Err(TensorError::InvalidArgument {
                op: "index_axis0",
                message: "cannot index a scalar".to_string(),
            });
        }
        let n = self.shape.dim(0);
        if index >= n {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![index],
                shape: self.shape.clone(),
            });
        }
        let rest: Vec<usize> = self.shape.dims()[1..].to_vec();
        let chunk = rest.iter().product::<usize>().max(1);
        let data = self.data[index * chunk..(index + 1) * chunk].to_vec();
        Ok(Tensor {
            shape: Shape::from(rest),
            data,
        })
    }

    /// Stacks same-shaped tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `tensors` is empty and
    /// [`TensorError::ShapeMismatch`] if any shapes differ.
    pub fn stack(tensors: &[Tensor]) -> Result<Self> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::InvalidArgument {
                op: "stack",
                message: "cannot stack zero tensors".to_string(),
            })?;
        let mut dims = vec![tensors.len()];
        dims.extend_from_slice(first.dims());
        let mut data = Vec::with_capacity(first.numel() * tensors.len());
        for t in tensors {
            if t.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.shape.clone(),
                    rhs: t.shape.clone(),
                });
            }
            data.extend_from_slice(&t.data);
        }
        Ok(Tensor {
            shape: Shape::from(dims),
            data,
        })
    }

    /// Returns `true` if every element differs from `other` by at most `tol`.
    ///
    /// Shapes must match exactly; `NaN`s never compare close.
    pub fn all_close(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        const MAX: usize = 8;
        write!(f, "[")?;
        for (i, x) in self.data.iter().take(MAX).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        if self.data.len() > MAX {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Index<&[usize]> for Tensor {
    type Output = f32;

    /// # Panics
    ///
    /// Panics if `index` is out of bounds; use [`Tensor::get`] for a
    /// non-panicking variant.
    fn index(&self, index: &[usize]) -> &f32 {
        let flat = self
            .shape
            .flat_index(index)
            .unwrap_or_else(|| panic!("index {index:?} out of bounds for {}", self.shape));
        &self.data[flat]
    }
}

impl IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, index: &[usize]) -> &mut f32 {
        let flat = self
            .shape
            .flat_index(index)
            .unwrap_or_else(|| panic!("index {index:?} out of bounds for {}", self.shape));
        &mut self.data[flat]
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;

            /// # Panics
            ///
            /// Panics on shape mismatch; use the inherent `Result` method
            /// for a non-panicking variant.
            fn $method(self, rhs: &Tensor) -> Tensor {
                Tensor::$method(self, rhs).expect("operator shape mismatch")
            }
        }
    };
}

impl_binop!(Add, add);
impl_binop!(Sub, sub);
impl_binop!(Mul, mul);
impl_binop!(Div, div);

impl Neg for &Tensor {
    type Output = Tensor;

    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_correctly() {
        assert!(Tensor::zeros([2, 2]).iter().all(|&x| x == 0.0));
        assert!(Tensor::ones([3]).iter().all(|&x| x == 1.0));
        assert!(Tensor::full([4], 2.5).iter().all(|&x| x == 2.5));
        assert_eq!(Tensor::scalar(7.0).numel(), 1);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec([2, 2], vec![1.0; 3]),
            Err(TensorError::InvalidReshape { .. })
        ));
    }

    #[test]
    fn from_fn_sees_multi_indices() {
        let t = Tensor::from_fn([2, 3], |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros([2, 2]);
        t.set(&[1, 0], 5.0).unwrap();
        assert_eq!(t.get(&[1, 0]), Some(5.0));
        assert_eq!(t.get(&[2, 0]), None);
        assert!(t.set(&[0, 2], 1.0).is_err());
    }

    #[test]
    fn index_operator_matches_get() {
        let t = Tensor::from_fn([3, 3], |i| (i[0] + i[1]) as f32);
        assert_eq!(t[&[2, 1][..]], 3.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_operator_panics_out_of_bounds() {
        let t = Tensor::zeros([2]);
        let _ = t[&[5][..]];
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec([3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!((&a + &b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * &b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!((&b / &a).data(), &[4.0, 2.5, 2.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn arithmetic_rejects_mismatched_shapes() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.mul(&b).is_err());
        assert!(a.div(&b).is_err());
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::ones([3]);
        let b = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        a.add_scaled(&b, 0.5).unwrap();
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
        assert!(a.add_scaled(&Tensor::zeros([1, 3]), 1.0).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1.0, -2.0, 3.0, 0.5]).unwrap();
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.mean(), 0.625);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), Some(2));
        assert!((t.norm_sq() - (1.0 + 4.0 + 9.0 + 0.25)).abs() < 1e-6);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        let t = Tensor::from_vec([3], vec![5.0, 5.0, 1.0]).unwrap();
        assert_eq!(t.argmax(), Some(0));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1., 4., 2., 5., 3., 6.]);
        assert!(Tensor::zeros([2, 2, 2]).transpose().is_err());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let t = Tensor::from_fn([3, 5], |i| (i[0] * 5 + i[1]) as f32);
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn index_axis0_extracts_rows() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.index_axis0(1).unwrap();
        assert_eq!(r.dims(), &[3]);
        assert_eq!(r.data(), &[4., 5., 6.]);
        assert!(t.index_axis0(2).is_err());
    }

    #[test]
    fn stack_then_index_round_trips() {
        let a = Tensor::from_vec([2], vec![1., 2.]).unwrap();
        let b = Tensor::from_vec([2], vec![3., 4.]).unwrap();
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.index_axis0(0).unwrap(), a);
        assert_eq!(s.index_axis0(1).unwrap(), b);
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn all_close_tolerance() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec([2], vec![1.0005, 2.0]).unwrap();
        assert!(a.all_close(&b, 1e-3));
        assert!(!a.all_close(&b, 1e-5));
        assert!(!a.all_close(&Tensor::zeros([3]), 1.0));
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros([100]);
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(s.contains("[100]"));
    }
}
