//! 2-D convolution via im2col, with full backward passes.
//!
//! Layout conventions (matching the rest of the workspace):
//! * activations: `[N, C, H, W]` (batch, channels, height, width)
//! * weights: `[O, I, KH, KW]` (out-channels, in-channels, kernel h/w)
//! * biases: `[O]`

use serde::{Deserialize, Serialize};

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Stride and zero-padding configuration for a 2-D convolution.
///
/// # Examples
///
/// ```
/// use t2fsnn_tensor::ops::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(1, 1); // "same" conv for a 3×3 kernel
/// assert_eq!(spec.output_dim(32, 3), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Step between kernel applications, identical for both axes.
    pub stride: usize,
    /// Zero padding added on every border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec from a stride and a symmetric padding.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(stride: usize, padding: usize) -> Self {
        assert!(stride > 0, "convolution stride must be positive");
        Conv2dSpec { stride, padding }
    }

    /// Output spatial size for an input of size `input` and kernel `kernel`.
    ///
    /// Returns zero when the kernel does not fit at all.
    pub fn output_dim(&self, input: usize, kernel: usize) -> usize {
        let padded = input + 2 * self.padding;
        if padded < kernel {
            0
        } else {
            (padded - kernel) / self.stride + 1
        }
    }
}

impl Default for Conv2dSpec {
    /// Stride 1, no padding.
    fn default() -> Self {
        Conv2dSpec::new(1, 0)
    }
}

/// Unfolds one `[C, H, W]` image into an im2col matrix
/// `[C·KH·KW, OH·OW]` where each column is a flattened receptive field.
pub fn im2col(image: &Tensor, kernel: (usize, usize), spec: Conv2dSpec) -> Result<Tensor> {
    if image.rank() != 3 {
        return Err(TensorError::InvalidArgument {
            op: "im2col",
            message: format!("expected [C, H, W], got {}", image.shape()),
        });
    }
    let (c, h, w) = (image.dims()[0], image.dims()[1], image.dims()[2]);
    let (kh, kw) = kernel;
    let oh = spec.output_dim(h, kh);
    let ow = spec.output_dim(w, kw);
    let mut out = Vec::new();
    im2col_into(image.data(), (c, h, w), kernel, spec, &mut out);
    Tensor::from_vec([c * kh * kw, oh * ow], out)
}

/// [`im2col`] on raw data into a reused buffer (resized, every entry
/// written — callers can recycle the allocation across images without
/// clearing it).
pub fn im2col_into(
    data: &[f32],
    chw: (usize, usize, usize),
    kernel: (usize, usize),
    spec: Conv2dSpec,
    out: &mut Vec<f32>,
) {
    let (c, h, w) = chw;
    let (kh, kw) = kernel;
    let cols = spec.output_dim(h, kh) * spec.output_dim(w, kw);
    out.resize(c * kh * kw * cols, 0.0);
    im2col_rows(data, chw, kernel, spec, out, cols);
}

/// Writes one image's im2col rows into `out`, row `r` at
/// `out[r·row_stride..r·row_stride + OH·OW]` (every entry of those
/// ranges written, nothing else touched): with `row_stride = G·OH·OW`,
/// image `j` of a group fills columns `j·OH·OW..(j+1)·OH·OW` of a
/// shared `[C·KH·KW, G·OH·OW]` matrix.
fn im2col_rows(
    data: &[f32],
    chw: (usize, usize, usize),
    kernel: (usize, usize),
    spec: Conv2dSpec,
    out: &mut [f32],
    row_stride: usize,
) {
    let (c, h, w) = chw;
    let (kh, kw) = kernel;
    let oh = spec.output_dim(h, kh);
    let ow = spec.output_dim(w, kw);
    let cols = oh * ow;
    let (stride, pad) = (spec.stride, spec.padding);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let orow = &mut out[row * row_stride..row * row_stride + cols];
                // Output columns `lo..hi` read input column
                // `oj·stride + kj − pad` inside `[0, w)`; the rest read
                // padding.
                let lo = pad.saturating_sub(kj).div_ceil(stride).min(ow);
                let hi = (w + pad).saturating_sub(kj).div_ceil(stride).clamp(lo, ow);
                for oi in 0..oh {
                    let oline = &mut orow[oi * ow..(oi + 1) * ow];
                    // A row in the top padding wraps to ≥ h.
                    let ii = (oi * stride + ki).wrapping_sub(pad);
                    if ii >= h {
                        oline.fill(0.0);
                        continue;
                    }
                    let iline = &data[(ci * h + ii) * w..(ci * h + ii + 1) * w];
                    oline[..lo].fill(0.0);
                    oline[hi..].fill(0.0);
                    if lo == hi {
                        continue;
                    }
                    let first = lo * stride + kj - pad;
                    if stride == 1 {
                        oline[lo..hi].copy_from_slice(&iline[first..first + hi - lo]);
                    } else {
                        for (slot, &v) in oline[lo..hi]
                            .iter_mut()
                            .zip(iline[first..].iter().step_by(stride))
                        {
                            *slot = v;
                        }
                    }
                }
            }
        }
    }
}

/// Folds an im2col matrix back into a `[C, H, W]` image, *summing*
/// contributions of overlapping receptive fields (the adjoint of [`im2col`],
/// as needed for input gradients).
pub fn col2im(
    cols_mat: &Tensor,
    channels: usize,
    image_hw: (usize, usize),
    kernel: (usize, usize),
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (h, w) = image_hw;
    let (kh, kw) = kernel;
    let oh = spec.output_dim(h, kh);
    let ow = spec.output_dim(w, kw);
    let rows = channels * kh * kw;
    if cols_mat.dims() != [rows, oh * ow] {
        return Err(TensorError::InvalidArgument {
            op: "col2im",
            message: format!("expected [{rows}, {}], got {}", oh * ow, cols_mat.shape()),
        });
    }
    let mut out = vec![0.0f32; channels * h * w];
    col2im_into(cols_mat.data(), channels, image_hw, kernel, spec, &mut out);
    Tensor::from_vec([channels, h, w], out)
}

/// [`col2im`] on raw data into a caller-provided `[C·H·W]` slice, which
/// is zeroed and then accumulated into — so the batch-parallel backward
/// pass can fold directly into each image's slot of the gradient tensor
/// without allocating.
pub fn col2im_into(
    data: &[f32],
    channels: usize,
    image_hw: (usize, usize),
    kernel: (usize, usize),
    spec: Conv2dSpec,
    out: &mut [f32],
) {
    let (h, w) = image_hw;
    let (kh, kw) = kernel;
    let oh = spec.output_dim(h, kh);
    let ow = spec.output_dim(w, kw);
    debug_assert_eq!(data.len(), channels * kh * kw * oh * ow);
    debug_assert_eq!(out.len(), channels * h * w);
    out.fill(0.0);
    let pad = spec.padding as isize;
    let colw = oh * ow;
    for ci in 0..channels {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                for oi in 0..oh {
                    let ii = (oi * spec.stride) as isize + ki as isize - pad;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for oj in 0..ow {
                        let jj = (oj * spec.stride) as isize + kj as isize - pad;
                        if jj < 0 || jj >= w as isize {
                            continue;
                        }
                        let dst = (ci * h + ii as usize) * w + jj as usize;
                        out[dst] += data[row * colw + oi * ow + oj];
                    }
                }
            }
        }
    }
}

fn check_conv_args(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Result<()> {
    if input.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d",
            message: format!("expected input [N, C, H, W], got {}", input.shape()),
        });
    }
    if weight.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d",
            message: format!("expected weight [O, I, KH, KW], got {}", weight.shape()),
        });
    }
    if input.dims()[1] != weight.dims()[1] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: input.shape().clone(),
            rhs: weight.shape().clone(),
        });
    }
    if bias.rank() != 1 || bias.dims()[0] != weight.dims()[0] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: weight.shape().clone(),
            rhs: bias.shape().clone(),
        });
    }
    Ok(())
}

/// 2-D convolution forward pass.
///
/// `input: [N, C, H, W]`, `weight: [O, C, KH, KW]`, `bias: [O]` →
/// `[N, O, OH, OW]`.
///
/// # Errors
///
/// Returns an error if any operand has the wrong rank or if channel counts
/// disagree.
///
/// # Examples
///
/// ```
/// use t2fsnn_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
/// let input = Tensor::ones([1, 1, 3, 3]);
/// let weight = Tensor::ones([1, 1, 3, 3]);
/// let bias = Tensor::zeros([1]);
/// let out = ops::conv2d(&input, &weight, &bias, ops::Conv2dSpec::new(1, 1))?;
/// assert_eq!(out.dims(), &[1, 1, 3, 3]);
/// assert_eq!(out.get(&[0, 0, 1, 1]), Some(9.0)); // full 3×3 overlap
/// # Ok(())
/// # }
/// ```
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    check_conv_args(input, weight, bias)?;
    let geometry = ConvGeometry::new(input, weight, spec);
    let mut out = vec![0.0f32; geometry.n * geometry.item_len()];
    if geometry.item_len() > 0 {
        let pool = crate::ThreadPool::global();
        let args = (input.data(), weight.data(), bias.data());
        if geometry.plane() < SMALL_PLANE {
            conv2d_grouped(
                &geometry,
                args,
                GROUP_COLUMNS / geometry.plane(),
                pool,
                &mut out,
            );
        } else {
            conv2d_per_image(&geometry, args, pool, &mut out);
        }
    }
    Tensor::from_vec(geometry.output_dims(), out)
}

/// Output planes narrower than this many positions take the grouped
/// path. On one image their GEMM never fills the 16-column register
/// tile of `gemm_block4` (a plane under 8 positions runs entirely in its
/// column-remainder loop): a 32→32-channel conv on a 2×2 plane (a VGG's
/// last block) costs ~28 µs per image that way and ~7 µs grouped, on
/// one worker of a 2-vCPU AVX2 VM. A 4×4 plane already fills one tile
/// and runs no faster grouped.
const SMALL_PLANE: usize = 16;

/// GEMM width a group of small-plane images is filled up to: a group
/// holds `GROUP_COLUMNS / (OH·OW)` images (32 to 256 columns measured
/// alike).
const GROUP_COLUMNS: usize = 64;

/// Shapes of one forward convolution.
struct ConvGeometry {
    n: usize,
    chw: (usize, usize, usize),
    o: usize,
    kernel: (usize, usize),
    out_hw: (usize, usize),
    spec: Conv2dSpec,
}

impl ConvGeometry {
    fn new(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Self {
        let d = input.dims();
        let (kh, kw) = (weight.dims()[2], weight.dims()[3]);
        ConvGeometry {
            n: d[0],
            chw: (d[1], d[2], d[3]),
            o: weight.dims()[0],
            kernel: (kh, kw),
            out_hw: (spec.output_dim(d[2], kh), spec.output_dim(d[3], kw)),
            spec,
        }
    }

    fn plane(&self) -> usize {
        self.out_hw.0 * self.out_hw.1
    }

    /// `C·KH·KW`: the contraction length.
    fn ckk(&self) -> usize {
        self.chw.0 * self.kernel.0 * self.kernel.1
    }

    fn in_image(&self) -> usize {
        self.chw.0 * self.chw.1 * self.chw.2
    }

    fn item_len(&self) -> usize {
        self.o * self.plane()
    }

    fn output_dims(&self) -> [usize; 4] {
        [self.n, self.o, self.out_hw.0, self.out_hw.1]
    }
}

/// One image at a time: unfold it into `[C·KH·KW, OH·OW]`, run one
/// `[O, C·KH·KW]` GEMM into its output slot, add the bias. Weight
/// `[O, I, KH, KW]` is row-major, i.e. already the GEMM operand. Images
/// are independent, so the batch parallelizes with bit-identical results
/// for any worker count; the im2col buffer is thread-local and reused
/// across images and calls (every entry is rewritten, so no clearing).
fn conv2d_per_image(
    g: &ConvGeometry,
    (id, wd, bd): (&[f32], &[f32], &[f32]),
    pool: &crate::ThreadPool,
    out: &mut [f32],
) {
    thread_local! {
        static COLS: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    let (plane, in_image) = (g.plane(), g.in_image());
    pool.scatter_items(out, g.item_len(), |img, slot| {
        COLS.with(|cols| {
            let cols = &mut *cols.borrow_mut();
            let image = &id[img * in_image..(img + 1) * in_image];
            im2col_into(image, g.chw, g.kernel, g.spec, cols);
            super::matmul::gemm_accumulate(slot, wd, g.o, g.ckk(), cols, plane);
        });
        for (oc, dst) in slot.chunks_exact_mut(plane).enumerate() {
            let b = bd[oc];
            for v in dst.iter_mut() {
                *v += b;
            }
        }
    });
}

/// Up to `group` images at a time: unfold them side by side into one
/// `[C·KH·KW, G·OH·OW]` matrix, run one GEMM over it, then scatter each
/// image's columns into its output slot with the bias added.
///
/// Bit-identical to [`conv2d_per_image`]: `gemm_accumulate` adds each
/// output element's products in ascending contraction order, with a
/// separate multiply and add, whatever the GEMM width, and its zero
/// skip looks only at the weights. Each worker takes a contiguous range
/// of images (so a small batch still spreads over the pool) and groups
/// within it.
fn conv2d_grouped(
    g: &ConvGeometry,
    (id, wd, bd): (&[f32], &[f32], &[f32]),
    group: usize,
    pool: &crate::ThreadPool,
    out: &mut [f32],
) {
    let (plane, in_image, item_len, ckk) = (g.plane(), g.in_image(), g.item_len(), g.ckk());
    let mut tasks = Vec::new();
    let mut rest = out;
    for range in pool.chunk_ranges(g.n) {
        let (head, tail) = rest.split_at_mut(range.len() * item_len);
        tasks.push((range.start, head));
        rest = tail;
    }
    pool.run_tasks(tasks, |(first, slots)| {
        let mut cols = Vec::new();
        let mut product = Vec::new();
        for (k, slots) in slots.chunks_mut(group * item_len).enumerate() {
            let images = first + k * group;
            let width = slots.len() / item_len * plane;
            cols.resize(ckk * width, 0.0);
            for (j, img) in (images..images + width / plane).enumerate() {
                let image = &id[img * in_image..(img + 1) * in_image];
                im2col_rows(
                    image,
                    g.chw,
                    g.kernel,
                    g.spec,
                    &mut cols[j * plane..],
                    width,
                );
            }
            product.clear();
            product.resize(g.o * width, 0.0);
            super::matmul::gemm_accumulate(&mut product, wd, g.o, ckk, &cols, width);
            for (j, slot) in slots.chunks_exact_mut(item_len).enumerate() {
                for (oc, dst) in slot.chunks_exact_mut(plane).enumerate() {
                    let src = &product[oc * width + j * plane..oc * width + (j + 1) * plane];
                    for (v, &p) in dst.iter_mut().zip(src) {
                        *v = p + bd[oc];
                    }
                }
            }
        }
    });
}

/// Gradients of [`conv2d`] with respect to input, weight and bias.
///
/// Returns `(grad_input, grad_weight, grad_bias)` given the forward `input`,
/// `weight` and upstream gradient `grad_out: [N, O, OH, OW]`.
///
/// All three per-image GEMMs (`dW += gout·colsᵀ`, `dX = col2im(Wᵀ·gout)`)
/// run on the register-blocked matmul cores with im2col/col2im buffers
/// reused across the batch. Images are distributed over the scoped
/// [`crate::ThreadPool`]; the input gradient is written into disjoint
/// per-image slices and the parameter gradients are merged **image by
/// image in batch order**, so the result is bit-identical to a
/// sequential run for every worker count.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with the forward pass.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    conv2d_backward_on(input, weight, grad_out, spec, crate::ThreadPool::global())
}

/// [`conv2d_backward`] with an explicit thread pool (the result is
/// bit-identical for every worker count — the test suite asserts it).
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with the forward pass.
pub fn conv2d_backward_on(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
    pool: &crate::ThreadPool,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (o, i, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    let oh = spec.output_dim(h, kh);
    let ow = spec.output_dim(w, kw);
    if grad_out.dims() != [n, o, oh, ow] {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_backward",
            message: format!(
                "expected grad_out [{n}, {o}, {oh}, {ow}], got {}",
                grad_out.shape()
            ),
        });
    }
    let ckk = i * kh * kw;
    let in_image = c * h * w;
    let out_image = o * oh * ow;
    let id = input.data();
    let wd = weight.data(); // `[O, I, KH, KW]` row-major == `[O, I·KH·KW]`
    let god = grad_out.data();

    /// One image's parameter gradients, returned from its worker.
    struct ImageGrads {
        gw: Vec<f32>,
        gb: Vec<f32>,
    }
    /// One contiguous batch chunk's outputs.
    struct ChunkGrads {
        grad_input: Vec<f32>,
        per_image: Vec<ImageGrads>,
    }

    let chunks = pool.run_chunks(n, |range| {
        let mut grad_input = vec![0.0f32; range.len() * in_image];
        let mut per_image = Vec::with_capacity(range.len());
        // im2col / Wᵀ·gout buffers are reused across the chunk's images.
        let mut cols = Vec::new();
        let mut gcols = vec![0.0f32; ckk * oh * ow];
        for (slot, img) in range.enumerate() {
            let image = &id[img * in_image..(img + 1) * in_image];
            let gout = &god[img * out_image..(img + 1) * out_image];
            im2col_into(image, (c, h, w), (kh, kw), spec, &mut cols);
            // dW_img = gout · colsᵀ  ([O, OH·OW] × [OH·OW, C·KH·KW])
            let mut gw = vec![0.0f32; o * ckk];
            super::matmul::a_bt_into(&mut gw, gout, o, oh * ow, &cols, ckk);
            // db_img = Σ gout per output channel.
            let mut gb = vec![0.0f32; o];
            for (oc, acc) in gb.iter_mut().enumerate() {
                *acc = gout[oc * oh * ow..(oc + 1) * oh * ow].iter().sum::<f32>();
            }
            // dX_img = col2im(Wᵀ · gout), folded straight into the
            // image's slice of the gradient tensor.
            super::matmul::at_b_into(&mut gcols, wd, o, ckk, gout, oh * ow);
            col2im_into(
                &gcols,
                c,
                (h, w),
                (kh, kw),
                spec,
                &mut grad_input[slot * in_image..(slot + 1) * in_image],
            );
            per_image.push(ImageGrads { gw, gb });
        }
        ChunkGrads {
            grad_input,
            per_image,
        }
    });

    // Chunks are contiguous in batch order: concatenating their input
    // gradients and folding their per-image parameter gradients in order
    // reproduces the sequential accumulation exactly.
    let mut grad_input = Vec::with_capacity(n * in_image);
    let mut grad_weight = vec![0.0f32; o * ckk];
    let mut grad_bias = vec![0.0f32; o];
    for chunk in chunks {
        grad_input.extend_from_slice(&chunk.grad_input);
        for img in chunk.per_image {
            for (acc, v) in grad_weight.iter_mut().zip(&img.gw) {
                *acc += v;
            }
            for (acc, v) in grad_bias.iter_mut().zip(&img.gb) {
                *acc += v;
            }
        }
    }
    grad_input.resize(n * in_image, 0.0); // n == 0: keep the empty shape
    Ok((
        Tensor::from_vec([n, c, h, w], grad_input)?,
        Tensor::from_vec([o, i, kh, kw], grad_weight)?,
        Tensor::from_vec([o], grad_bias)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (quadruple-loop) convolution used as an oracle.
    fn conv2d_naive(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (o, _i, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        let oh = spec.output_dim(h, kh);
        let ow = spec.output_dim(w, kw);
        Tensor::from_fn([n, o, oh, ow], |idx| {
            let (ni, oc, oi, oj) = (idx[0], idx[1], idx[2], idx[3]);
            let mut acc = bias.data()[oc];
            for ci in 0..c {
                for ki in 0..kh {
                    for kj in 0..kw {
                        let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                        let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                        if ii < 0 || jj < 0 || ii >= h as isize || jj >= w as isize {
                            continue;
                        }
                        acc += input[&[ni, ci, ii as usize, jj as usize][..]]
                            * weight[&[oc, ci, ki, kj][..]];
                    }
                }
            }
            acc
        })
    }

    fn arange(shape: impl Into<crate::shape::Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        // Small magnitudes and a sign flip keep accumulated f32 error well
        // below the comparison tolerance while still exercising negatives.
        Tensor::from_vec(
            shape,
            (0..n).map(|i| ((i % 13) as f32) * 0.05 - 0.3).collect(),
        )
        .unwrap()
    }

    #[test]
    fn output_dim_formula() {
        let spec = Conv2dSpec::new(1, 1);
        assert_eq!(spec.output_dim(32, 3), 32);
        let spec = Conv2dSpec::new(2, 0);
        assert_eq!(spec.output_dim(8, 2), 4);
        let spec = Conv2dSpec::new(1, 0);
        assert_eq!(spec.output_dim(2, 5), 0);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_panics() {
        let _ = Conv2dSpec::new(0, 0);
    }

    #[test]
    fn conv_matches_naive_oracle() {
        // Padding 3 leaves whole output columns in the padding; stride 9
        // on a 6-wide input leaves kernel columns that read only padding.
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 0), (2, 1), (1, 3), (9, 1)] {
            let spec = Conv2dSpec::new(stride, padding);
            let input = arange([2, 3, 6, 6]);
            let weight = arange([4, 3, 3, 3]);
            let bias = Tensor::from_vec([4], vec![0.1, -0.2, 0.3, 0.0]).unwrap();
            let fast = conv2d(&input, &weight, &bias, spec).unwrap();
            let slow = conv2d_naive(&input, &weight, &bias, spec);
            assert!(
                fast.all_close(&slow, 1e-4),
                "mismatch at stride={stride} padding={padding}"
            );
        }
    }

    #[test]
    fn grouped_conv_is_bit_identical_to_per_image() {
        // (channels, outputs, input side, kernel, stride, padding, images):
        // planes 1, 4 and 9 (stride 2) below the threshold, 16 (also with
        // stride 2 and no padding) and 64 above it; one image, and batches
        // that leave a partial group on some worker.
        let cases = [
            (3, 5, 1, 3, 1, 1, 1),
            (3, 5, 2, 3, 1, 1, 37),
            (2, 6, 6, 3, 2, 1, 13),
            (4, 5, 4, 3, 1, 1, 9),
            (2, 3, 8, 2, 2, 0, 7),
            (2, 5, 8, 3, 1, 1, 5),
        ];
        for (c, o, hw, k, stride, padding, n) in cases {
            let spec = Conv2dSpec::new(stride, padding);
            let input = Tensor::from_fn([n, c, hw, hw], |i| {
                let h = (i[0] * 131 + i[1] * 31 + i[2] * 7 + i[3]) % 17;
                if h == 0 {
                    0.0
                } else {
                    h as f32 * 0.37 - 2.9
                }
            });
            // Output channel 0 is a zero row, and input channel 0 is zero
            // for every output: the GEMM's zero skips must not depend on
            // how many images share it.
            let weight = Tensor::from_fn([o, c, k, k], |i| {
                if i[0] == 0 || i[1] == 0 {
                    0.0
                } else {
                    ((i[0] * 5 + i[1] * 3 + i[2] * 2 + i[3]) % 11) as f32 * 0.13 - 0.6
                }
            });
            let bias = Tensor::from_fn([o], |i| i[0] as f32 * 0.25 - 0.5);
            let geometry = ConvGeometry::new(&input, &weight, spec);
            let args = (input.data(), weight.data(), bias.data());
            let mut reference = vec![0.0f32; n * geometry.item_len()];
            conv2d_per_image(&geometry, args, &crate::ThreadPool::new(1), &mut reference);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want = bits(&reference);
            let plane = geometry.plane();
            for group in [1, 3, GROUP_COLUMNS / plane] {
                for workers in [1, 2, 3] {
                    let mut out = vec![f32::NAN; n * geometry.item_len()];
                    let pool = crate::ThreadPool::new(workers);
                    conv2d_grouped(&geometry, args, group, &pool, &mut out);
                    assert_eq!(
                        bits(&out),
                        want,
                        "plane {plane}, {n} images, group {group}, {workers} workers"
                    );
                }
            }
            let public = conv2d(&input, &weight, &bias, spec).unwrap();
            assert_eq!(bits(public.data()), want, "conv2d, plane {plane}");
        }
    }

    #[test]
    fn conv_validates_shapes() {
        let spec = Conv2dSpec::default();
        let input = Tensor::zeros([1, 3, 4, 4]);
        let weight = Tensor::zeros([2, 4, 3, 3]); // wrong in-channels
        let bias = Tensor::zeros([2]);
        assert!(conv2d(&input, &weight, &bias, spec).is_err());
        let weight = Tensor::zeros([2, 3, 3, 3]);
        let bias = Tensor::zeros([3]); // wrong bias length
        assert!(conv2d(&input, &weight, &bias, spec).is_err());
        assert!(conv2d(
            &Tensor::zeros([3, 4, 4]),
            &weight,
            &Tensor::zeros([2]),
            spec
        )
        .is_err());
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.
        let spec = Conv2dSpec::new(1, 1);
        let x = arange([2, 4, 4]);
        let cols_x = im2col(&x, (3, 3), spec).unwrap();
        let y = arange(cols_x.shape().clone());
        let folded = col2im(&y, 2, (4, 4), (3, 3), spec).unwrap();
        let lhs: f32 = cols_x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(folded.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let spec = Conv2dSpec::new(1, 1);
        let input = arange([1, 2, 4, 4]);
        let weight = arange([2, 2, 3, 3]).scale(0.3);
        let bias = Tensor::from_vec([2], vec![0.05, -0.05]).unwrap();
        // Loss = sum(conv output); upstream gradient of ones.
        let out = conv2d(&input, &weight, &bias, spec).unwrap();
        let gout = Tensor::ones(out.shape().clone());
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &gout, spec).unwrap();

        let eps = 1e-2f32;
        let loss =
            |inp: &Tensor, wgt: &Tensor, b: &Tensor| conv2d(inp, wgt, b, spec).unwrap().sum();
        // Check a scattering of coordinates for each gradient.
        for &flat in &[0usize, 5, 17, 31] {
            let mut ip = input.clone();
            ip.data_mut()[flat] += eps;
            let mut im = input.clone();
            im.data_mut()[flat] -= eps;
            let fd = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            assert!(
                (fd - gi.data()[flat]).abs() < 2e-2,
                "input grad {flat}: fd={fd} analytic={}",
                gi.data()[flat]
            );
        }
        for &flat in &[0usize, 7, 20, 35] {
            let mut wp = weight.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[flat] -= eps;
            let fd = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            assert!(
                (fd - gw.data()[flat]).abs() < 2e-2,
                "weight grad {flat}: fd={fd} analytic={}",
                gw.data()[flat]
            );
        }
        for flat in 0..2 {
            let mut bp = bias.clone();
            bp.data_mut()[flat] += eps;
            let mut bm = bias.clone();
            bm.data_mut()[flat] -= eps;
            let fd = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * eps);
            assert!((fd - gb.data()[flat]).abs() < 2e-2);
        }
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let spec = Conv2dSpec::default();
        let input = Tensor::zeros([1, 1, 4, 4]);
        let weight = Tensor::zeros([1, 1, 3, 3]);
        let bad = Tensor::zeros([1, 1, 9, 9]);
        assert!(conv2d_backward(&input, &weight, &bad, spec).is_err());
    }
}
