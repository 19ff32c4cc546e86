//! Dense matrix multiplication kernels.
//!
//! Register-blocked and cache-tiled for a single CPU core:
//!
//! * [`matmul`] and [`matmul_at_b`] are axpy-form kernels that process
//!   **four accumulator rows per pass**, so each streamed row of `B` is
//!   loaded once per four output rows instead of once per row (4× less
//!   `B` traffic). [`matmul`] keeps a 4-row × 16-column output tile in
//!   registers across the whole contraction.
//! * [`matmul_a_bt`] is a dot-form kernel that processes **two output
//!   columns × eight vector lanes** per pass: the shared `A` row is read
//!   once per column pair and the eight-lane partial sums map directly
//!   onto SIMD registers.
//!
//! Remainders (rows/columns beyond the blocking factor, tail elements
//! beyond the lane width) run the runtime-length axpy and keep the
//! zero-skipping fast path for sparse operands.
//!
//! The axpy-form kernels are plain loops (`simd::gemm_block4`,
//! `simd::at_b_block4`, `simd::axpy_row`) that run a whole product in
//! one `simd::vectorized` context; the dot form runs on the hand-written
//! [`crate::simd::dot2`] reduction. Either way the results are
//! bit-identical with SIMD on and off: vectorization is across the
//! output columns (independent elements), so per output element the
//! contraction still accumulates in strictly ascending `p` order.

use crate::error::{Result, TensorError};
use crate::simd;
use crate::tensor::Tensor;

fn check_2d(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!("expected rank-2 tensor, got shape {}", t.shape()),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Computes `A · B` for `A: [m, k]`, `B: [k, n]`, returning `[m, n]`.
///
/// # Errors
///
/// Returns an error if either operand is not rank 2 or if the inner
/// dimensions disagree.
///
/// # Examples
///
/// ```
/// use t2fsnn_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let id = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0])?;
/// assert_eq!(ops::matmul(&a, &id)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_2d(a, "matmul")?;
    let (k2, n) = check_2d(b, "matmul")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    if m == 0 || n == 0 {
        return Tensor::from_vec([m, n], vec![0.0; m * n]);
    }
    let mut out = vec![0.0f32; m * n];
    gemm_accumulate(&mut out, a.data(), m, k, b.data(), n);
    Tensor::from_vec([m, n], out)
}

/// Accumulates `A · B` into `out` (`+=` semantics; pass zeros for a plain
/// product). This is the blocked core behind [`matmul`], exposed at crate
/// level so the convolution path can run it on reused buffers.
///
/// Per output element, contributions are accumulated in strictly
/// ascending `p` (contraction index) order — the property the spiking
/// engine's dense/event equivalence relies on.
///
/// # Panics
///
/// Panics (in debug builds) if slice lengths disagree with `m`/`k`/`n`.
pub(crate) fn gemm_accumulate(
    out: &mut [f32],
    ad: &[f32],
    m: usize,
    k: usize,
    bd: &[f32],
    n: usize,
) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(ad.len(), m * k);
    debug_assert_eq!(bd.len(), k * n);
    if m == 0 || n == 0 {
        return;
    }
    // Four-row blocks stream B once per four output rows; the whole
    // product runs in one dispatch context.
    simd::vectorized(
        #[inline(always)]
        || {
            let mut i = 0;
            while i + 4 <= m {
                let (r0, rest) = out[i * n..(i + 4) * n].split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let a = [
                    &ad[i * k..(i + 1) * k],
                    &ad[(i + 1) * k..(i + 2) * k],
                    &ad[(i + 2) * k..(i + 3) * k],
                    &ad[(i + 3) * k..(i + 4) * k],
                ];
                simd::gemm_block4([r0, r1, r2, r3], a, bd, n);
                i += 4;
            }
            for row in i..m {
                let orow = &mut out[row * n..(row + 1) * n];
                for p in 0..k {
                    // Spike matrices are sparse: skip zero entries cheaply.
                    let av = ad[row * k + p];
                    if av != 0.0 {
                        simd::axpy_row(orow, av, &bd[p * n..(p + 1) * n]);
                    }
                }
            }
        },
    )
}

/// Computes `Aᵀ · B` for `A: [k, m]`, `B: [k, n]`, returning `[m, n]`.
///
/// Used for weight gradients (`∂L/∂W = Xᵀ · ∂L/∂Y`) without an explicit
/// transpose.
///
/// # Errors
///
/// Returns an error on non-rank-2 operands or mismatched leading dimensions.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = check_2d(a, "matmul_at_b")?;
    let (k2, n) = check_2d(b, "matmul_at_b")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    at_b_into(&mut out, a.data(), k, m, b.data(), n);
    Tensor::from_vec([m, n], out)
}

/// Computes `Aᵀ · B` into a reused buffer (`out` is overwritten) —
/// the allocation-free core behind [`matmul_at_b`], used by the
/// batch-parallel convolution backward pass.
pub(crate) fn at_b_into(out: &mut [f32], ad: &[f32], k: usize, m: usize, bd: &[f32], n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(ad.len(), k * m);
    debug_assert_eq!(bd.len(), k * n);
    out.fill(0.0);
    if m == 0 || n == 0 {
        return;
    }
    // Four-deep blocks over the contraction axis: the output matrix is
    // swept once per four `k` rows instead of once per row, all in one
    // dispatch context.
    simd::vectorized(
        #[inline(always)]
        || {
            let mut p = 0;
            while p + 4 <= k {
                let a = [
                    &ad[p * m..(p + 1) * m],
                    &ad[(p + 1) * m..(p + 2) * m],
                    &ad[(p + 2) * m..(p + 3) * m],
                    &ad[(p + 3) * m..(p + 4) * m],
                ];
                let b = [
                    &bd[p * n..(p + 1) * n],
                    &bd[(p + 1) * n..(p + 2) * n],
                    &bd[(p + 2) * n..(p + 3) * n],
                    &bd[(p + 3) * n..(p + 4) * n],
                ];
                simd::at_b_block4(out, n, a, b);
                p += 4;
            }
            for p in p..k {
                let brow = &bd[p * n..(p + 1) * n];
                for i in 0..m {
                    let av = ad[p * m + i];
                    if av != 0.0 {
                        simd::axpy_row(&mut out[i * n..(i + 1) * n], av, brow);
                    }
                }
            }
        },
    )
}

/// Eight-lane dot product of two equal-length slices (the SIMD
/// primitive keeps the eight-lane-accumulator semantics either way).
#[inline]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    simd::dot(x, y)
}

/// Computes `A · Bᵀ` for `A: [m, k]`, `B: [n, k]`, returning `[m, n]`.
///
/// Used for input gradients (`∂L/∂X = ∂L/∂Y · Wᵀ`) without an explicit
/// transpose.
///
/// # Errors
///
/// Returns an error on non-rank-2 operands or mismatched trailing dimensions.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_2d(a, "matmul_a_bt")?;
    let (n, k2) = check_2d(b, "matmul_a_bt")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    a_bt_into(&mut out, a.data(), m, k, b.data(), n);
    Tensor::from_vec([m, n], out)
}

/// Computes `A · Bᵀ` into a reused buffer (`out` is overwritten) —
/// the allocation-free core behind [`matmul_a_bt`], used by the
/// batch-parallel convolution backward pass.
pub(crate) fn a_bt_into(out: &mut [f32], ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(ad.len(), m * k);
    debug_assert_eq!(bd.len(), n * k);
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        // Column pairs: the A row is read once per two output columns,
        // with 2×8 independent lanes of partial sums.
        let mut j = 0;
        while j + 2 <= n {
            let b0 = &bd[j * k..(j + 1) * k];
            let b1 = &bd[(j + 1) * k..(j + 2) * k];
            let (s0, s1) = simd::dot2(arow, b0, b1);
            orow[j] = s0;
            orow[j + 1] = s1;
            j += 2;
        }
        if j < n {
            orow[j] = dot(arow, &bd[j * k..(j + 1) * k]);
        }
    }
}

/// Computes the matrix-vector product `A · x` for `A: [m, k]`, `x: [k]`.
///
/// # Errors
///
/// Returns an error if `A` is not rank 2, `x` not rank 1, or sizes disagree.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    let (m, k) = check_2d(a, "matvec")?;
    if x.rank() != 1 || x.dims()[0] != k {
        return Err(TensorError::ShapeMismatch {
            op: "matvec",
            lhs: a.shape().clone(),
            rhs: x.shape().clone(),
        });
    }
    let ad = a.data();
    let xd = x.data();
    let mut out = vec![0.0f32; m];
    for (i, o) in out.iter_mut().enumerate() {
        *o = dot(&ad[i * k..(i + 1) * k], xd);
    }
    Tensor::from_vec([m], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: [usize; 2], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape, data.to_vec()).unwrap()
    }

    /// Reference triple loop used as an oracle for the blocked kernels.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec([m, n], out).unwrap()
    }

    fn pattern(shape: [usize; 2], seed: usize) -> Tensor {
        Tensor::from_fn(shape, |i| {
            (((i[0] * 7 + i[1] * 13 + seed) % 23) as f32) * 0.11 - 1.2
        })
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = t([2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t([3, 2], &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = t([2, 2], &[1., 2., 3., 4.]);
        let id = t([2, 2], &[1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &id).unwrap(), a);
        assert_eq!(matmul(&id, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t([2, 3], &[0.; 6]);
        let b = t([2, 3], &[0.; 6]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn blocked_kernels_agree_on_one_odd_shape() {
        // One smoke case here; the exhaustive odd-shape sweep lives in
        // tests/properties.rs (`blocked_matmul_family_matches_naive_oracle`).
        let (m, k, n) = (7, 17, 11);
        let a = pattern([m, k], 3);
        let b = pattern([k, n], 5);
        let want = matmul_naive(&a, &b);
        assert!(matmul(&a, &b).unwrap().all_close(&want, 1e-4));
        assert!(matmul_at_b(&a.transpose().unwrap(), &b)
            .unwrap()
            .all_close(&want, 1e-4));
        assert!(matmul_a_bt(&a, &b.transpose().unwrap())
            .unwrap()
            .all_close(&want, 1e-4));
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = t([3, 2], &[1., 2., 3., 4., 5., 6.]);
        let b = t([3, 4], &[1., 0., 2., -1., 3., 1., 0., 2., -2., 1., 1., 0.]);
        let expect = matmul(&a.transpose().unwrap(), &b).unwrap();
        assert!(matmul_at_b(&a, &b).unwrap().all_close(&expect, 1e-6));

        let c = t([2, 4], &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let expect = matmul(&b, &c.transpose().unwrap()).unwrap();
        let got = matmul_a_bt(&b, &c).unwrap();
        assert!(got.all_close(&expect, 1e-6));
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = t([2, 3], &[1., 2., 3., 4., 5., 6.]);
        let x = Tensor::from_vec([3], vec![1., 0., -1.]).unwrap();
        let y = matvec(&a, &x).unwrap();
        assert_eq!(y.data(), &[-2.0, -2.0]);
        assert!(matvec(&a, &Tensor::zeros([2])).is_err());
    }

    #[test]
    fn matmul_skips_zero_rows_correctly() {
        // Regression guard for the sparsity fast-path: zeros in A must not
        // change the result.
        let a = t([2, 3], &[0., 2., 0., 4., 0., 6.]);
        let b = t([3, 2], &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[18., 20., 94., 104.]);
    }

    #[test]
    fn empty_dimensions_are_handled() {
        let a = Tensor::zeros([0, 3]);
        let b = Tensor::zeros([3, 2]);
        assert_eq!(matmul(&a, &b).unwrap().dims(), &[0, 2]);
        let a = Tensor::zeros([2, 0]);
        let b = Tensor::zeros([0, 2]);
        assert_eq!(matmul(&a, &b).unwrap().data(), &[0.0; 4]);
        assert_eq!(
            matmul_a_bt(&a, &Tensor::zeros([2, 0])).unwrap().dims(),
            &[2, 2]
        );
    }
}
