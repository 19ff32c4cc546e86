//! 2-D max- and average-pooling with backward passes.
//!
//! DNN→SNN conversion pipelines traditionally prefer average pooling
//! (it is linear, so it converts exactly to synaptic weights); max pooling
//! is provided for completeness and for the VGG-16 architecture fidelity.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

fn check_pool_input(input: &Tensor, op: &'static str, window: usize, stride: usize) -> Result<()> {
    if input.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!("expected [N, C, H, W], got {}", input.shape()),
        });
    }
    if window == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument {
            op,
            message: "window and stride must be positive".to_string(),
        });
    }
    Ok(())
}

pub(crate) fn pooled_dim(input: usize, window: usize, stride: usize) -> usize {
    if input < window {
        0
    } else {
        (input - window) / stride + 1
    }
}

/// Max pooling over `window × window` regions with the given stride.
///
/// Returns the pooled tensor and the flat argmax index (into the input) of
/// every output element, which [`max_pool2d_backward`] uses to route
/// gradients.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or a zero window/stride.
pub fn max_pool2d(input: &Tensor, window: usize, stride: usize) -> Result<(Tensor, Vec<usize>)> {
    check_pool_input(input, "max_pool2d", window, stride)?;
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let oh = pooled_dim(h, window, stride);
    let ow = pooled_dim(w, window, stride);
    let mut out = Vec::with_capacity(n * c * oh * ow);
    let mut argmax = Vec::with_capacity(n * c * oh * ow);
    let data = input.data();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ki in 0..window {
                        for kj in 0..window {
                            let idx = base + (oi * stride + ki) * w + (oj * stride + kj);
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_idx);
                }
            }
        }
    }
    Ok((Tensor::from_vec([n, c, oh, ow], out)?, argmax))
}

/// Backward pass of [`max_pool2d`]: routes each upstream gradient to the
/// input element that produced the maximum.
///
/// # Errors
///
/// Returns an error if `grad_out.numel() != argmax.len()`.
pub fn max_pool2d_backward(
    input_shape: &[usize],
    argmax: &[usize],
    grad_out: &Tensor,
) -> Result<Tensor> {
    if grad_out.numel() != argmax.len() {
        return Err(TensorError::InvalidArgument {
            op: "max_pool2d_backward",
            message: format!(
                "grad_out has {} elements but argmax has {}",
                grad_out.numel(),
                argmax.len()
            ),
        });
    }
    let mut grad_input = Tensor::zeros(input_shape);
    let gi = grad_input.data_mut();
    for (&idx, &g) in argmax.iter().zip(grad_out.data()) {
        gi[idx] += g;
    }
    Ok(grad_input)
}

/// Average pooling over `window × window` regions with the given stride.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or a zero window/stride.
pub fn avg_pool2d(input: &Tensor, window: usize, stride: usize) -> Result<Tensor> {
    check_pool_input(input, "avg_pool2d", window, stride)?;
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let oh = pooled_dim(h, window, stride);
    let ow = pooled_dim(w, window, stride);
    let inv_area = 1.0 / (window * window) as f32;
    let data = input.data();
    if window == 2 && stride == 2 && h * w > 0 && oh * ow > 0 {
        // The down2 pooling every bundled architecture uses: unrolled
        // pairwise sums with the same left-to-right association as the
        // generic loop below, so results are identical.
        let mut out = vec![0.0f32; n * c * oh * ow];
        for (plane, slot) in data
            .chunks_exact(h * w)
            .zip(out.chunks_exact_mut((oh * ow).max(1)))
            .take(n * c)
        {
            for oi in 0..oh {
                let row0 = &plane[2 * oi * w..2 * oi * w + w];
                let row1 = &plane[(2 * oi + 1) * w..(2 * oi + 1) * w + w];
                let orow = &mut slot[oi * ow..(oi + 1) * ow];
                for (oj, o) in orow.iter_mut().enumerate() {
                    *o = (row0[2 * oj] + row0[2 * oj + 1] + row1[2 * oj] + row1[2 * oj + 1])
                        * inv_area;
                }
            }
        }
        return Tensor::from_vec([n, c, oh, ow], out);
    }
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = 0.0f32;
                    for ki in 0..window {
                        for kj in 0..window {
                            acc += data[base + (oi * stride + ki) * w + (oj * stride + kj)];
                        }
                    }
                    out.push(acc * inv_area);
                }
            }
        }
    }
    Tensor::from_vec([n, c, oh, ow], out)
}

/// Backward pass of [`avg_pool2d`]: spreads each upstream gradient evenly
/// over its pooling window.
///
/// # Errors
///
/// Returns an error if `grad_out`'s shape is inconsistent with pooling
/// `input_shape` by `window`/`stride`.
pub fn avg_pool2d_backward(
    input_shape: &[usize],
    window: usize,
    stride: usize,
    grad_out: &Tensor,
) -> Result<Tensor> {
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let oh = pooled_dim(h, window, stride);
    let ow = pooled_dim(w, window, stride);
    if grad_out.dims() != [n, c, oh, ow] {
        return Err(TensorError::InvalidArgument {
            op: "avg_pool2d_backward",
            message: format!(
                "expected grad_out [{n}, {c}, {oh}, {ow}], got {}",
                grad_out.shape()
            ),
        });
    }
    let inv_area = 1.0 / (window * window) as f32;
    let mut grad_input = Tensor::zeros(input_shape);
    let gi = grad_input.data_mut();
    let god = grad_out.data();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let obase = (ni * c + ci) * oh * ow;
            for oi in 0..oh {
                for oj in 0..ow {
                    let g = god[obase + oi * ow + oj] * inv_area;
                    for ki in 0..window {
                        for kj in 0..window {
                            gi[base + (oi * stride + ki) * w + (oj * stride + kj)] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(grad_input)
}

fn check_pool_input_pm(
    input: &Tensor,
    op: &'static str,
    window: usize,
    stride: usize,
) -> Result<()> {
    if input.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!("expected [N, H, W, C], got {}", input.shape()),
        });
    }
    if window == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument {
            op,
            message: "window and stride must be positive".to_string(),
        });
    }
    Ok(())
}

/// The `oy`/`ox` window range covering source coordinate `s`
/// (`o·stride ≤ s < o·stride + window`, `o < limit`).
#[inline]
pub(crate) fn covering_windows(
    s: usize,
    window: usize,
    stride: usize,
    limit: usize,
) -> std::ops::Range<usize> {
    let lo = (s + 1).saturating_sub(window).div_ceil(stride);
    let hi = (s / stride + 1).min(limit);
    lo..hi.max(lo)
}

/// Average pooling over a **position-major** `[N, H, W, C]` batch,
/// returning `[N, OH, OW, C]`.
///
/// The accumulation order is the spiking engine's canonical one: the
/// input is scanned in storage order (ascending `(y, x, c)`) and each
/// element is added to every window covering it, with one final
/// `× 1/window²` pass — term for term and rounding for rounding what
/// [`crate::ops::sparse::avg_pool2d_events`] computes, so the dense and
/// event paths are bit-identical.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or a zero window/stride.
pub fn avg_pool2d_pm(input: &Tensor, window: usize, stride: usize) -> Result<Tensor> {
    check_pool_input_pm(input, "avg_pool2d_pm", window, stride)?;
    let (n, h, w, c) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let oh = pooled_dim(h, window, stride);
    let ow = pooled_dim(w, window, stride);
    let mut out = Tensor::zeros([n, oh, ow, c]);
    let od = out.data_mut();
    let data = input.data();
    let ys: Vec<std::ops::Range<usize>> = (0..h)
        .map(|y| covering_windows(y, window, stride, oh))
        .collect();
    let xs: Vec<std::ops::Range<usize>> = (0..w)
        .map(|x| covering_windows(x, window, stride, ow))
        .collect();
    let in_image = h * w * c;
    let out_image = oh * ow * c;
    for ni in 0..n {
        let is = &data[ni * in_image..(ni + 1) * in_image];
        let os = &mut od[ni * out_image..(ni + 1) * out_image];
        let mut idx = 0usize;
        for oys in &ys {
            for oxs in &xs {
                for ci in 0..c {
                    let v = is[idx];
                    idx += 1;
                    if v == 0.0 {
                        continue; // spike signals are mostly zeros
                    }
                    for oy in oys.clone() {
                        for ox in oxs.clone() {
                            os[(oy * ow + ox) * c + ci] += v;
                        }
                    }
                }
            }
        }
    }
    let inv_area = 1.0 / (window * window) as f32;
    for v in od.iter_mut() {
        *v *= inv_area;
    }
    Ok(out)
}

/// Max pooling over a **position-major** `[N, H, W, C]` batch, values
/// only (no argmax tracking), returning `[N, OH, OW, C]`.
///
/// Window elements are compared in window scan order (`(wy, wx)`
/// ascending) with `>` — the same comparator sequence the event-form
/// first-spike pooling uses, so on non-negative spike signals the two
/// produce bit-identical window maxima.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or a zero window/stride.
pub fn max_pool2d_pm(input: &Tensor, window: usize, stride: usize) -> Result<Tensor> {
    check_pool_input_pm(input, "max_pool2d_pm", window, stride)?;
    let (n, h, w, c) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let oh = pooled_dim(h, window, stride);
    let ow = pooled_dim(w, window, stride);
    let mut out = Tensor::zeros([n, oh, ow, c]);
    let od = out.data_mut();
    let data = input.data();
    let in_image = h * w * c;
    let out_image = oh * ow * c;
    for ni in 0..n {
        let is = &data[ni * in_image..(ni + 1) * in_image];
        let os = &mut od[ni * out_image..(ni + 1) * out_image];
        for oy in 0..oh {
            for ox in 0..ow {
                for ci in 0..c {
                    let mut best = f32::NEG_INFINITY;
                    for wy in 0..window {
                        for wx in 0..window {
                            let v = is[((oy * stride + wy) * w + (ox * stride + wx)) * c + ci];
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    os[(oy * ow + ox) * c + ci] = best;
                }
            }
        }
    }
    Ok(out)
}

/// First-spike gating, the TTFS max-pool rule, applied in place to a
/// pooled signal: a window whose `gate` entry is already set outputs
/// zero; a window that outputs a non-zero value latches its gate.
/// `gate` has the pooled signal's shape and persists across time steps.
///
/// Composed with [`max_pool2d_pm`] this is the dense twin of
/// [`crate::ops::sparse::max_pool2d_events`]: on non-negative spike
/// signals the two are bit-identical.
///
/// # Errors
///
/// Returns an error if `gate` and `pooled` differ in shape.
pub fn first_spike_gate(pooled: &mut Tensor, gate: &mut Tensor) -> Result<()> {
    if gate.dims() != pooled.dims() {
        return Err(TensorError::InvalidArgument {
            op: "first_spike_gate",
            message: format!(
                "gate shape {} does not match pooled shape {}",
                gate.shape(),
                pooled.shape()
            ),
        });
    }
    for (v, g) in pooled.data_mut().iter_mut().zip(gate.data_mut()) {
        if *g != 0.0 {
            *v = 0.0; // window already fired: suppress
        } else if *v != 0.0 {
            *g = 1.0; // first spike through this window: latch
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 10., 11., 12., //
                13., 14., 15., 16.,
            ],
        )
        .unwrap()
    }

    #[test]
    fn max_pool_known_answer() {
        let (out, argmax) = max_pool2d(&sample(), 2, 2).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[6., 8., 14., 16.]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn avg_pool_known_answer() {
        let out = avg_pool2d(&sample(), 2, 2).unwrap();
        assert_eq!(out.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let input = sample();
        let (out, argmax) = max_pool2d(&input, 2, 2).unwrap();
        let gout = Tensor::from_vec(out.shape().clone(), vec![1., 2., 3., 4.]).unwrap();
        let gin = max_pool2d_backward(input.dims(), &argmax, &gout).unwrap();
        assert_eq!(gin.get(&[0, 0, 1, 1]), Some(1.0));
        assert_eq!(gin.get(&[0, 0, 1, 3]), Some(2.0));
        assert_eq!(gin.get(&[0, 0, 3, 1]), Some(3.0));
        assert_eq!(gin.get(&[0, 0, 3, 3]), Some(4.0));
        assert_eq!(gin.sum(), 10.0);
    }

    #[test]
    fn avg_pool_backward_spreads_evenly() {
        let input = sample();
        let gout = Tensor::ones([1, 1, 2, 2]);
        let gin = avg_pool2d_backward(input.dims(), 2, 2, &gout).unwrap();
        assert!(gin.iter().all(|&g| (g - 0.25).abs() < 1e-6));
        assert!((gin.sum() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn avg_pool_gradient_matches_finite_difference() {
        let input = sample();
        let eps = 1e-2;
        let gout = Tensor::ones([1, 1, 2, 2]);
        let gin = avg_pool2d_backward(input.dims(), 2, 2, &gout).unwrap();
        for flat in 0..input.numel() {
            let mut ip = input.clone();
            ip.data_mut()[flat] += eps;
            let mut im = input.clone();
            im.data_mut()[flat] -= eps;
            let fd = (avg_pool2d(&ip, 2, 2).unwrap().sum() - avg_pool2d(&im, 2, 2).unwrap().sum())
                / (2.0 * eps);
            assert!((fd - gin.data()[flat]).abs() < 1e-3);
        }
    }

    #[test]
    fn pool_validates_arguments() {
        assert!(max_pool2d(&Tensor::zeros([4, 4]), 2, 2).is_err());
        assert!(max_pool2d(&Tensor::zeros([1, 1, 4, 4]), 0, 2).is_err());
        assert!(avg_pool2d(&Tensor::zeros([1, 1, 4, 4]), 2, 0).is_err());
        assert!(max_pool2d_backward(&[1, 1, 4, 4], &[0, 1], &Tensor::zeros([3])).is_err());
        assert!(avg_pool2d_backward(&[1, 1, 4, 4], 2, 2, &Tensor::zeros([1, 1, 3, 3])).is_err());
        let mut gate = Tensor::zeros([1, 2, 2, 2]);
        assert!(first_spike_gate(&mut Tensor::zeros([1, 2, 2, 1]), &mut gate).is_err());
    }

    #[test]
    fn non_square_input_pools() {
        let t = Tensor::from_fn([1, 2, 6, 4], |i| (i[2] * 4 + i[3]) as f32);
        let out = avg_pool2d(&t, 2, 2).unwrap();
        assert_eq!(out.dims(), &[1, 2, 3, 2]);
        let (out, _) = max_pool2d(&t, 2, 2).unwrap();
        assert_eq!(out.dims(), &[1, 2, 3, 2]);
    }

    #[test]
    fn window_larger_than_input_yields_empty() {
        let t = Tensor::zeros([1, 1, 2, 2]);
        let out = avg_pool2d(&t, 3, 1).unwrap();
        assert_eq!(out.dims(), &[1, 1, 0, 0]);
        // Zero-sized spatial inputs must not panic the 2×2 fast path.
        let empty = Tensor::zeros([1, 1, 0, 4]);
        let out = avg_pool2d(&empty, 2, 2).unwrap();
        assert_eq!(out.dims(), &[1, 1, 0, 2]);
        let tall = Tensor::zeros([1, 1, 1, 4]);
        let out = avg_pool2d(&tall, 2, 2).unwrap();
        assert_eq!(out.dims(), &[1, 1, 0, 2]);
    }
}
