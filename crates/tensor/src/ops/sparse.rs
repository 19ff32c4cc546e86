//! Sparse (event-driven) propagation kernels, with dense zero-skipping
//! twins, in the spiking engine's **position-major** layout.
//!
//! Every kernel pair performs **exactly the same floating-point
//! operations in the same order** per output element, so the dense and
//! event paths are bit-identical — the property the spiking simulator's
//! engine dispatch relies on. The canonical accumulation order is the
//! position-major scan of the source signal: ascending `(y, x, c)`.
//! Position-major `[H, W, C]` feature maps make that order the *storage*
//! order, so fire phases emit events with a contiguous scan and dense
//! walks stream the signal linearly.
//!
//! The convolution kernels scatter **straight into the position-major
//! target** (normally a layer's membrane-potential tensor): each valid
//! kernel tap of an event is one contiguous `value × weight-row` axpy
//! over all `O` output channels of one output position, and with stride 1
//! a whole kernel row is one contiguous span of taps. There is no
//! intermediate accumulator — and therefore no per-step clear or
//! transpose flush; work is strictly proportional to
//! `events × taps × O`.
//!
//! Every weighted kernel only accumulates: it takes the target to add
//! into and a **synop ledger**, a `&mut [u64]` with one slot per image,
//! and adds each image's synaptic accumulates (`O` per valid tap per
//! non-zero input, the paper's Table III count) to its slot while it
//! scatters. A caller that needs a fresh output passes a zeroed target.
//! The im2col GEMM ([`conv2d_gemm_pm_acc`]) adds every tap, active or
//! not, so its caller bills the ledger through the one tap-table counter,
//! [`conv2d_synops_events_by_image`].
//!
//! Each conv scatter call (event list or dense walk) runs the whole
//! batch inside **one** `simd::vectorized` dispatch context, with the
//! per-event kernel monomorphised on the output width `O` ∈ {8, 16, 32}
//! (every conv width of the bundled architectures): every valid tap is
//! then a fixed-length `O`-float multiply, then add, that compiles to
//! whole vectors (a full row of a 3-wide kernel is one `3·O`-float
//! span). Other widths run a runtime-length fallback compiled from the
//! same source in the same context. Per-event work (8–32 floats per
//! tap) is too small to pay a dispatch each.
//!
//! Every weighted kernel here is position-major; nothing in production
//! convolves a channel-major map. Two test-only oracles check the
//! kernels from the outside, over channel-major input: an im2col GEMM
//! (`conv2d_gemm`), f32-equal to the scatter modulo the layout
//! permutation, and a scan-based synop count (`conv2d_synops`).

use crate::error::{Result, TensorError};
use crate::events::SpikeBatch;
use crate::ops::conv::Conv2dSpec;
use crate::ops::pool::{covering_windows, pooled_dim};
use crate::simd;
use crate::tensor::Tensor;

/// Convolution geometry shared by the kernels.
struct ConvGeom {
    c: usize,
    o: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: isize,
    pad: isize,
}

impl ConvGeom {
    fn build(
        (c, h, w): (usize, usize, usize),
        o: usize,
        ckk: usize,
        kernel: (usize, usize),
        spec: Conv2dSpec,
        op: &'static str,
        layout: &str,
    ) -> Result<Self> {
        let (kh, kw) = kernel;
        if c * kh * kw != ckk {
            return Err(TensorError::InvalidArgument {
                op,
                message: format!(
                    "{layout} input features ({c}, {h}, {w}) do not match a [{ckk}, {o}] filter \
                     with kernel {kh}x{kw}"
                ),
            });
        }
        Ok(ConvGeom {
            c,
            o,
            h,
            w,
            kh,
            kw,
            oh: spec.output_dim(h, kh),
            ow: spec.output_dim(w, kw),
            stride: spec.stride as isize,
            pad: spec.padding as isize,
        })
    }

    /// Geometry from channel-major `[C, H, W]` feature dims (the test
    /// oracles' layout).
    #[cfg(test)]
    fn new_cm(
        input_chw: &[usize],
        o: usize,
        ckk: usize,
        kernel: (usize, usize),
        spec: Conv2dSpec,
        op: &'static str,
    ) -> Result<Self> {
        if input_chw.len() != 3 {
            return Err(TensorError::InvalidArgument {
                op,
                message: format!("expected [C, H, W] features, got {input_chw:?}"),
            });
        }
        Self::build(
            (input_chw[0], input_chw[1], input_chw[2]),
            o,
            ckk,
            kernel,
            spec,
            op,
            "channel-major",
        )
    }

    /// Geometry from position-major `[H, W, C]` feature dims.
    fn new_pm(
        input_hwc: &[usize],
        o: usize,
        ckk: usize,
        kernel: (usize, usize),
        spec: Conv2dSpec,
        op: &'static str,
    ) -> Result<Self> {
        if input_hwc.len() != 3 {
            return Err(TensorError::InvalidArgument {
                op,
                message: format!("expected [H, W, C] features, got {input_hwc:?}"),
            });
        }
        Self::build(
            (input_hwc[2], input_hwc[0], input_hwc[1]),
            o,
            ckk,
            kernel,
            spec,
            op,
            "position-major",
        )
    }
}

/// Transposes a `[O, C, KH, KW]` filter bank into the scatter kernels'
/// `[C, KH, KW, O]` tap-major layout **with the KW axis reversed**
/// (`out[((ci·KH + ki)·KW + (KW−1−kj))·O + oc] = w[oc, ci, ki, kj]`).
/// Reversing KW makes the taps a stride-1 event touches along one kernel
/// row *contiguous in the same order as the output positions they feed*,
/// so the whole row collapses into a single long axpy. Done once per run
/// by the engine; spiking weights never change between steps.
///
/// # Errors
///
/// Returns an error if `weight` is not rank 4.
pub fn transpose_filter(weight: &Tensor) -> Result<Tensor> {
    if weight.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "transpose_filter",
            message: format!("expected weight [O, I, KH, KW], got {}", weight.shape()),
        });
    }
    let (o, c, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    let ckk = c * kh * kw;
    let wd = weight.data();
    let mut out = vec![0.0f32; ckk * o];
    for oc in 0..o {
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let tap = (ci * kh + ki) * kw + (kw - 1 - kj);
                    out[tap * o + oc] = wd[((oc * c + ci) * kh + ki) * kw + kj];
                }
            }
        }
    }
    Tensor::from_vec([ckk, o], out)
}

/// Reorders a `[O, C, KH, KW]` filter bank into the **tap-major**
/// `[KH·KW·C, O]` layout (`out[((ki·KW + kj)·C + ci)·O + oc]`) that the
/// position-major im2col GEMM path consumes: its contraction axis then
/// runs in the canonical `(ki, kj, ci) ⇔ (y, x, c)` order, keeping the
/// GEMM bit-identical to the scatter kernels.
///
/// # Errors
///
/// Returns an error if `weight` is not rank 4.
pub fn reorder_filter_taps(weight: &Tensor) -> Result<Tensor> {
    if weight.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "reorder_filter_taps",
            message: format!("expected weight [O, I, KH, KW], got {}", weight.shape()),
        });
    }
    let (o, c, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    let ckk = c * kh * kw;
    let wd = weight.data();
    let mut out = vec![0.0f32; ckk * o];
    for oc in 0..o {
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let tap = (ki * kw + kj) * c + ci;
                    out[tap * o + oc] = wd[((oc * c + ci) * kh + ki) * kw + kj];
                }
            }
        }
    }
    Tensor::from_vec([ckk, o], out)
}

/// Fills `taps` with the `(kernel offset, output coordinate)` pairs a
/// source coordinate `src` reaches: all `k` with
/// `out·stride + k − pad = src`, `out < out_limit`.
#[inline]
fn valid_taps(
    taps: &mut Vec<(usize, usize)>,
    src: usize,
    kernel: usize,
    out_limit: usize,
    stride: isize,
    pad: isize,
) {
    taps.clear();
    for k in 0..kernel {
        let num = src as isize + pad - k as isize;
        if num < 0 {
            break; // `num` only decreases with k
        }
        if num % stride == 0 {
            let out = (num / stride) as usize;
            if out < out_limit {
                taps.push((k, out));
            }
        }
    }
}

/// Decodes flat position-major `[H, W, C]` event indices
/// (`flat = (y·W + x)·C + c`) into coordinates, using shift/mask
/// arithmetic when `C` and `W` are powers of two (every bundled
/// architecture) — a hardware division per event is one of the larger
/// per-event costs otherwise.
#[derive(Clone, Copy)]
struct PmDecoder {
    c: usize,
    w: usize,
    shifts: Option<(u32, u32)>,
}

impl PmDecoder {
    fn new(w: usize, c: usize) -> Self {
        let shifts = (c.is_power_of_two() && w.is_power_of_two())
            .then(|| (c.trailing_zeros(), w.trailing_zeros()));
        PmDecoder { c, w, shifts }
    }

    /// `flat → (ci, yi, xi)`.
    #[inline]
    fn decode(&self, flat: usize) -> (usize, usize, usize) {
        match self.shifts {
            Some((cs, ws)) => {
                let pos = flat >> cs;
                (flat & (self.c - 1), pos >> ws, pos & (self.w - 1))
            }
            None => {
                let pos = flat / self.c;
                (flat % self.c, pos / self.w, pos % self.w)
            }
        }
    }
}

/// Reused per-event valid-tap lists for strided convolutions.
struct TapScratch {
    ky: Vec<(usize, usize)>,
    kx: Vec<(usize, usize)>,
}

impl TapScratch {
    fn new(g: &ConvGeom) -> Self {
        TapScratch {
            ky: Vec::with_capacity(g.kh),
            kx: Vec::with_capacity(g.kw),
        }
    }
}

// The per-event kernels below run inlined inside one
// [`simd::vectorized`] context, so they use plain index loops and
// slicing only: an iterator adapter the inliner declines would be an
// out-of-line call compiled without the context's vector width.

/// `out[i] += v · w[i]` over the first `N` floats — one kernel tap's
/// `O` output channels. The tap is summed in a local array between one
/// load and one store of `out`, so the compiler needs no aliasing proof
/// to vectorize it; each element is a separate multiply and add, so the
/// result is the same bits at every vector width.
#[inline(always)]
fn axpy_fixed<const N: usize>(out: &mut [f32], v: f32, w: &[f32]) {
    let (out, w) = (&mut out[..N], &w[..N]);
    let mut acc = [0.0f32; N];
    acc.copy_from_slice(out);
    for i in 0..N {
        acc[i] += v * w[i];
    }
    out.copy_from_slice(&acc);
}

/// `out[i] += v · w[i]` over a runtime-length row (the runtime-width
/// fallback), eight floats at a time through [`axpy_fixed`].
#[inline(always)]
fn axpy_row(out: &mut [f32], v: f32, w: &[f32]) {
    let len = out.len().min(w.len());
    let mut i = 0;
    while i + 8 <= len {
        axpy_fixed::<8>(&mut out[i..], v, &w[i..]);
        i += 8;
    }
    while i < len {
        out[i] += v * w[i];
        i += 1;
    }
}

/// `taps` consecutive kernel taps of `O` floats each; with the
/// runtime-width fallback (`O == 0`), one runtime-length row.
#[inline(always)]
fn axpy_taps<const O: usize>(out: &mut [f32], v: f32, w: &[f32], taps: usize) {
    if O == 0 {
        axpy_row(out, v, w);
    } else {
        for t in 0..taps {
            axpy_fixed::<O>(&mut out[t * O..], v, &w[t * O..]);
        }
    }
}

/// Scatters one input event **directly into a position-major
/// `[OH·OW, O]` target block** (normally one image's membrane
/// potentials). Returns the synaptic accumulate count charged
/// (`taps × O`).
///
/// `O` is the output width when it is one of the specialised widths,
/// or 0 for the runtime-width fallback (`g.o`). With a fixed width each
/// valid tap is one fixed-length `O`-float multiply-then-add that the
/// surrounding [`simd::vectorized`] context compiles to whole vectors
/// with no remainder loop. `ROW` is `3·O` (stable Rust cannot derive it
/// from `O`): a full row of a 3-wide kernel, run as one fixed-length
/// span.
///
/// With stride 1 (every conv in the paper's architectures) the valid
/// taps of one kernel row are contiguous in the reversed-KW filter
/// layout *and* feed contiguous output positions, so each kernel row is
/// one `value × weight-span` pass over `taps·O` contiguous floats.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one private hot-loop helper; splitting costs clarity
fn scatter_event_into<const O: usize, const ROW: usize>(
    out: &mut [f32],
    s: &mut TapScratch,
    wt: &[f32],
    v: f32,
    ci: usize,
    yi: usize,
    xi: usize,
    g: &ConvGeom,
) -> u64 {
    let o = if O == 0 { g.o } else { O };
    if g.stride == 1 {
        // `oy = yi + pad − ki` must land in `0..oh` (same for x).
        let klo =
            |src: usize, limit: usize| (src as isize + g.pad + 1 - limit as isize).max(0) as usize;
        let khi = |src: usize, kernel: usize| (src as isize + g.pad).min(kernel as isize - 1);
        let (ky_lo, ky_hi) = (klo(yi, g.oh), khi(yi, g.kh));
        let (kx_lo, kx_hi) = (klo(xi, g.ow), khi(xi, g.kw));
        if ky_hi < ky_lo as isize || kx_hi < kx_lo as isize {
            return 0;
        }
        let (ky_hi, kx_hi) = (ky_hi as usize, kx_hi as usize);
        let ox_lo = (xi as isize + g.pad) as usize - kx_hi;
        let row_len = (kx_hi - kx_lo + 1) * o;
        // kj descending kx_hi..=kx_lo ⇔ reversed-KW index ascending —
        // aligned with output positions ox ascending from ox_lo. As ki
        // ascends, the weight row advances by KW·O and the output row
        // retreats by OW·O. The whole event runs inside the caller's
        // one SIMD context, so no row pays a dispatch.
        let rows = ky_hi - ky_lo + 1;
        let w0 = ((ci * g.kh + ky_lo) * g.kw + (g.kw - 1 - kx_hi)) * o;
        let oy0 = (yi as isize + g.pad) as usize - ky_lo;
        let o0 = (oy0 * g.ow + ox_lo) * o;
        for r in 0..rows {
            let orow = &mut out[o0 - r * g.ow * o..][..row_len];
            let wrow = &wt[w0 + r * g.kw * o..][..row_len];
            if O != 0 && row_len == ROW {
                axpy_fixed::<ROW>(orow, v, wrow);
            } else {
                axpy_taps::<O>(orow, v, wrow, kx_hi - kx_lo + 1);
            }
        }
        return (rows * row_len) as u64;
    }
    valid_taps(&mut s.ky, yi, g.kh, g.oh, g.stride, g.pad);
    valid_taps(&mut s.kx, xi, g.kw, g.ow, g.stride, g.pad);
    if s.ky.is_empty() || s.kx.is_empty() {
        return 0;
    }
    for &(ki, oy) in &s.ky {
        let wrow_base = (ci * g.kh + ki) * g.kw;
        let orow_base = oy * g.ow * o;
        for &(kj, ox) in &s.kx {
            let wstart = (wrow_base + (g.kw - 1 - kj)) * o;
            axpy_taps::<O>(
                &mut out[orow_base + ox * o..][..o],
                v,
                &wt[wstart..][..o],
                1,
            );
        }
    }
    (s.ky.len() * s.kx.len() * o) as u64
}

fn check_filter_t(filter_t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if filter_t.rank() != 2 {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!("expected filter [C·KH·KW, O], got {}", filter_t.shape()),
        });
    }
    Ok((filter_t.dims()[0], filter_t.dims()[1]))
}

fn check_pm_target(g: &ConvGeom, n: usize, target: &Tensor, op: &'static str) -> Result<()> {
    if target.dims() != [n, g.oh, g.ow, g.o] {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!(
                "expected position-major target [{n}, {}, {}, {}], got {}",
                g.oh,
                g.ow,
                g.o,
                target.shape()
            ),
        });
    }
    Ok(())
}

/// Rejects a synop ledger that does not hold one slot per image.
fn check_ledger(n: usize, synops: &[u64], op: &'static str) -> Result<()> {
    if synops.len() != n {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!("{n} images but the synop ledger has {} slots", synops.len()),
        });
    }
    Ok(())
}

/// Sparse scatter convolution over a **dense position-major**
/// `[N, H, W, C]` input with a cached `[C·KH·KW, O]` filter from
/// [`transpose_filter`], accumulating into an existing position-major
/// `[N, OH, OW, O]` target (normally a layer's membrane potentials): only
/// non-zero entries do work, and the target *is* the accumulator, so
/// there is no per-step clear and no flush — exactly the event-driven
/// cost. A caller that needs a fresh output passes a zeroed target. Bias
/// currents are injected by the caller in a separate pass (they are owed
/// whether or not any event arrives).
///
/// `synops[i]` is the ledger slot of image `i`: it grows by the `O`
/// accumulates of every valid kernel tap of every non-zero entry of that
/// image, the paper's Table III accounting.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches, or if `synops` does
/// not hold one slot per image.
pub fn conv2d_scatter_pm_acc(
    input: &Tensor,
    filter_t: &Tensor,
    kernel: (usize, usize),
    spec: Conv2dSpec,
    target: &mut Tensor,
    synops: &mut [u64],
) -> Result<()> {
    if input.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_scatter_pm_acc",
            message: format!("expected [N, H, W, C] input, got {}", input.shape()),
        });
    }
    let n = input.dims()[0];
    let (ckk, o) = check_filter_t(filter_t, "conv2d_scatter_pm_acc")?;
    let g = ConvGeom::new_pm(
        &input.dims()[1..],
        o,
        ckk,
        kernel,
        spec,
        "conv2d_scatter_pm_acc",
    )?;
    check_pm_target(&g, n, target, "conv2d_scatter_pm_acc")?;
    check_ledger(n, synops, "conv2d_scatter_pm_acc")?;
    let signal = DenseSignal {
        data: input.data(),
        n,
        g: &g,
    };
    scatter_pm_batch(target.data_mut(), &signal, filter_t.data(), &g, synops);
    Ok(())
}

/// Event-list twin of [`conv2d_scatter_pm_acc`] (events carry
/// position-major `[H, W, C]` feature indices): the hot path of the
/// spiking simulator — each event's axpy rows land directly in the
/// membrane-potential tensor, with the same results and the same ledger
/// charges, bit for bit, without scanning zeros.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches, or if `synops` does
/// not hold one slot per image.
pub fn conv2d_scatter_events_pm_acc(
    events: &SpikeBatch,
    filter_t: &Tensor,
    kernel: (usize, usize),
    spec: Conv2dSpec,
    target: &mut Tensor,
    synops: &mut [u64],
) -> Result<()> {
    let n = events.batch();
    let (ckk, o) = check_filter_t(filter_t, "conv2d_scatter_events_pm_acc")?;
    let g = ConvGeom::new_pm(
        events.feature_dims(),
        o,
        ckk,
        kernel,
        spec,
        "conv2d_scatter_events_pm_acc",
    )?;
    check_pm_target(&g, n, target, "conv2d_scatter_events_pm_acc")?;
    check_ledger(n, synops, "conv2d_scatter_events_pm_acc")?;
    let signal = EventSignal {
        events,
        decoder: PmDecoder::new(g.w, g.c),
    };
    scatter_pm_batch(target.data_mut(), &signal, filter_t.data(), &g, synops);
    Ok(())
}

/// A batch of position-major input signal as the conv scatter walks it:
/// image by image, each in the canonical ascending `(y, x, c)` order.
trait PmSignal {
    fn batch(&self) -> usize;
    /// Calls `f(v, ci, yi, xi)` for every non-zero entry of image `ni`.
    fn for_each_event(&self, ni: usize, f: impl FnMut(f32, usize, usize, usize));
}

/// A dense `[N, H, W, C]` signal, streamed in storage order with zeros
/// skipped.
struct DenseSignal<'a> {
    data: &'a [f32],
    n: usize,
    g: &'a ConvGeom,
}

impl PmSignal for DenseSignal<'_> {
    fn batch(&self) -> usize {
        self.n
    }

    #[inline(always)]
    fn for_each_event(&self, ni: usize, mut f: impl FnMut(f32, usize, usize, usize)) {
        let g = self.g;
        let in_image = g.c * g.h * g.w;
        let is = &self.data[ni * in_image..(ni + 1) * in_image];
        let mut idx = 0usize;
        for yi in 0..g.h {
            for xi in 0..g.w {
                for ci in 0..g.c {
                    let v = is[idx];
                    idx += 1;
                    if v != 0.0 {
                        f(v, ci, yi, xi);
                    }
                }
            }
        }
    }
}

/// An event list with position-major `[H, W, C]` feature indices.
struct EventSignal<'a> {
    events: &'a SpikeBatch,
    decoder: PmDecoder,
}

impl PmSignal for EventSignal<'_> {
    fn batch(&self) -> usize {
        self.events.batch()
    }

    #[inline(always)]
    fn for_each_event(&self, ni: usize, mut f: impl FnMut(f32, usize, usize, usize)) {
        let (idx, val) = self.events.image_events(ni);
        for k in 0..idx.len().min(val.len()) {
            let (ci, yi, xi) = self.decoder.decode(idx[k] as usize);
            f(val[k], ci, yi, xi);
        }
    }
}

/// Scatters a whole batch inside **one** [`simd::vectorized`] context,
/// with the per-event kernel monomorphised on the output width (8, 16
/// and 32 — every conv width of the bundled architectures — and a
/// runtime-width fallback compiled from the same source). Per-event
/// dispatch would cost an un-inlinable call per 8–32-float tap. Image
/// `i`'s synop adds go to `synops[i]`.
fn scatter_pm_batch(
    od: &mut [f32],
    signal: &impl PmSignal,
    wt: &[f32],
    g: &ConvGeom,
    synops: &mut [u64],
) {
    simd::vectorized(
        #[inline(always)]
        || match g.o {
            8 => scatter_pm_images::<8, 24>(od, signal, wt, g, synops),
            16 => scatter_pm_images::<16, 48>(od, signal, wt, g, synops),
            32 => scatter_pm_images::<32, 96>(od, signal, wt, g, synops),
            _ => scatter_pm_images::<0, 0>(od, signal, wt, g, synops),
        },
    )
}

#[inline(always)]
fn scatter_pm_images<const O: usize, const ROW: usize>(
    od: &mut [f32],
    signal: &impl PmSignal,
    wt: &[f32],
    g: &ConvGeom,
    synops: &mut [u64],
) {
    let mut s = TapScratch::new(g);
    let out_image = g.o * g.oh * g.ow;
    for ni in 0..signal.batch() {
        let os = &mut od[ni * out_image..(ni + 1) * out_image];
        let mut charged = 0u64;
        signal.for_each_event(
            ni,
            #[inline(always)]
            |v, ci, yi, xi| {
                charged += scatter_event_into::<O, ROW>(os, &mut s, wt, v, ci, yi, xi, g)
            },
        );
        synops[ni] += charged;
    }
}

#[cfg(test)]
/// Unfolds one channel-major `[C, H, W]` image into a **tap-major**
/// im2col matrix `[KH·KW·C, OH·OW]` (row order `(ki, kj, ci)` — the
/// canonical contraction order) into a reused buffer. Every entry is
/// rewritten, so callers can recycle the allocation without clearing.
fn im2col_taps_into(data: &[f32], g: &ConvGeom, out: &mut Vec<f32>) {
    let cols = g.oh * g.ow;
    out.resize(g.c * g.kh * g.kw * cols, 0.0);
    for ki in 0..g.kh {
        for kj in 0..g.kw {
            for ci in 0..g.c {
                let row = (ki * g.kw + kj) * g.c + ci;
                let orow = &mut out[row * cols..(row + 1) * cols];
                for oi in 0..g.oh {
                    let ii = (oi as isize) * g.stride + ki as isize - g.pad;
                    let oline = &mut orow[oi * g.ow..(oi + 1) * g.ow];
                    if ii < 0 || ii >= g.h as isize {
                        oline.fill(0.0);
                        continue;
                    }
                    let iline = &data[(ci * g.h + ii as usize) * g.w..][..g.w];
                    for (oj, slot) in oline.iter_mut().enumerate() {
                        let jj = (oj as isize) * g.stride + kj as isize - g.pad;
                        *slot = if jj < 0 || jj >= g.w as isize {
                            0.0
                        } else {
                            iline[jj as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Unfolds one position-major `[H, W, C]` image into a **position-major**
/// im2col matrix `[OH·OW, KH·KW·C]` (one row per output position, taps in
/// the canonical `(ki, kj, ci)` order, with the `C` channels of each tap
/// copied contiguously) into a reused buffer.
fn im2col_pm_into(data: &[f32], g: &ConvGeom, out: &mut Vec<f32>) {
    let ckk = g.c * g.kh * g.kw;
    out.resize(g.oh * g.ow * ckk, 0.0);
    for oi in 0..g.oh {
        for oj in 0..g.ow {
            let row = &mut out[(oi * g.ow + oj) * ckk..(oi * g.ow + oj + 1) * ckk];
            for ki in 0..g.kh {
                let ii = (oi as isize) * g.stride + ki as isize - g.pad;
                for kj in 0..g.kw {
                    let jj = (oj as isize) * g.stride + kj as isize - g.pad;
                    let slot = &mut row[(ki * g.kw + kj) * g.c..(ki * g.kw + kj + 1) * g.c];
                    if ii < 0 || ii >= g.h as isize || jj < 0 || jj >= g.w as isize {
                        slot.fill(0.0);
                    } else {
                        let src = (ii as usize * g.w + jj as usize) * g.c;
                        slot.copy_from_slice(&data[src..src + g.c]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
/// Test oracle: dense convolution via im2col + blocked GEMM over a
/// **channel-major** input, without bias. The contraction runs in
/// the canonical tap order `(ki, kj, ci)` — for each output element this
/// is the same `(y, x, c)` sequence the scatter kernels accumulate in,
/// so the GEMM is f32-equal to them (it additionally adds the zero
/// entries they skip, which can never change an IEEE sum beyond the sign
/// of an all-zero result).
///
/// # Errors
///
/// Returns an error on rank or channel mismatches.
fn conv2d_gemm(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_gemm",
            message: format!("expected [N, C, H, W] input, got {}", input.shape()),
        });
    }
    if weight.rank() != 4 || input.dims()[1] != weight.dims()[1] {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_gemm",
            message: format!(
                "expected weight [O, {}, KH, KW], got {}",
                input.dims()[1],
                weight.shape()
            ),
        });
    }
    let (o, kh, kw) = (weight.dims()[0], weight.dims()[2], weight.dims()[3]);
    let n = input.dims()[0];
    let g = ConvGeom::new_cm(
        &input.dims()[1..],
        o,
        weight.dims()[1] * kh * kw,
        (kh, kw),
        spec,
        "conv2d_gemm",
    )?;
    // Tap-major weight operand `[O, KH·KW·C]` matching the tap-major
    // im2col rows (one small copy per call; the engine caches its own).
    let wr = reorder_filter_taps(weight)?;
    let wr_t = wr.transpose()?; // [O, KH·KW·C] row-major
    let mut out = Tensor::zeros([n, g.o, g.oh, g.ow]);
    let od = out.data_mut();
    let in_image = g.c * g.h * g.w;
    let out_image = g.o * g.oh * g.ow;
    let ckk = g.c * g.kh * g.kw;
    let mut cols = Vec::new();
    for ni in 0..n {
        im2col_taps_into(
            &input.data()[ni * in_image..(ni + 1) * in_image],
            &g,
            &mut cols,
        );
        super::matmul::gemm_accumulate(
            &mut od[ni * out_image..(ni + 1) * out_image],
            wr_t.data(),
            g.o,
            ckk,
            &cols,
            g.oh * g.ow,
        );
    }
    Ok(out)
}

/// Dense convolution via position-major im2col + blocked GEMM,
/// **accumulating straight into a position-major `[N, OH, OW, O]`
/// target** (normally membrane potentials). `weight_r` is the tap-major
/// `[KH·KW·C, O]` operand from [`reorder_filter_taps`].
///
/// Per output element the contraction accumulates into the existing
/// target value in ascending `(ki, kj, ci) ⇔ (y, x, c)` order — the
/// canonical order — so on the same signal this is bit-identical to the
/// scatter kernels (modulo `+0.0` no-op terms for inactive taps). Used
/// by the engine for near-dense event steps, where the vectorized GEMM
/// overtakes the sparsity-proportional scatter.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches.
pub fn conv2d_gemm_pm_acc(
    input: &Tensor,
    weight_r: &Tensor,
    kernel: (usize, usize),
    spec: Conv2dSpec,
    target: &mut Tensor,
) -> Result<()> {
    if input.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_gemm_pm_acc",
            message: format!("expected [N, H, W, C] input, got {}", input.shape()),
        });
    }
    let n = input.dims()[0];
    let (ckk, o) = check_filter_t(weight_r, "conv2d_gemm_pm_acc")?;
    let g = ConvGeom::new_pm(
        &input.dims()[1..],
        o,
        ckk,
        kernel,
        spec,
        "conv2d_gemm_pm_acc",
    )?;
    check_pm_target(&g, n, target, "conv2d_gemm_pm_acc")?;
    let od = target.data_mut();
    let in_image = g.c * g.h * g.w;
    let out_image = g.o * g.oh * g.ow;
    // The im2col buffer is reused across images *and calls* (this runs
    // once per dense time step in the simulator's GEMM fallback; every
    // entry is rewritten, so no clearing is needed).
    thread_local! {
        static PM_COLS: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    PM_COLS.with(|cols| {
        let cols = &mut *cols.borrow_mut();
        for ni in 0..n {
            im2col_pm_into(&input.data()[ni * in_image..(ni + 1) * in_image], &g, cols);
            super::matmul::gemm_accumulate(
                &mut od[ni * out_image..(ni + 1) * out_image],
                cols,
                g.oh * g.ow,
                ckk,
                weight_r.data(),
                g.o,
            );
        }
    });
    Ok(())
}

#[cfg(test)]
/// Test oracle: per-image synaptic-operation counts of a convolution
/// over a dense **channel-major** input: each non-zero entry is charged
/// `valid taps × O` accumulates — exactly what the scatter kernels bill
/// to their ledgers, computed without doing the arithmetic.
///
/// # Errors
///
/// Returns an error on rank or channel mismatches.
fn conv2d_synops(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<Vec<u64>> {
    if input.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_synops",
            message: format!("expected [N, C, H, W] input, got {}", input.shape()),
        });
    }
    if weight.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_synops",
            message: format!("expected weight [O, I, KH, KW], got {}", weight.shape()),
        });
    }
    let (o, kh, kw) = (weight.dims()[0], weight.dims()[2], weight.dims()[3]);
    let g = ConvGeom::new_cm(
        &input.dims()[1..],
        o,
        weight.dims()[1] * kh * kw,
        (kh, kw),
        spec,
        "conv2d_synops",
    )?;
    let (ty, tx) = tap_tables(&g);
    let mut by_image = Vec::with_capacity(input.dims()[0]);
    for image in input.data().chunks_exact(g.c * g.h * g.w) {
        let mut taps = 0u64;
        for channel in image.chunks_exact(g.h * g.w) {
            for (row, &t_row) in channel.chunks_exact(g.w).zip(&ty) {
                for (&v, &t_col) in row.iter().zip(&tx) {
                    if v != 0.0 {
                        taps += t_row * t_col;
                    }
                }
            }
        }
        by_image.push(taps * g.o as u64);
    }
    Ok(by_image)
}

/// Per-axis valid-tap-count tables (tap counts factor over the axes:
/// `taps(yi, xi) = ty[yi]·tx[xi]`).
fn tap_tables(g: &ConvGeom) -> (Vec<u64>, Vec<u64>) {
    let mut scratch = Vec::new();
    let mut count = |src: usize, kernel: usize, limit: usize| {
        valid_taps(&mut scratch, src, kernel, limit, g.stride, g.pad);
        scratch.len() as u64
    };
    let ty: Vec<u64> = (0..g.h).map(|yi| count(yi, g.kh, g.oh)).collect();
    let tx: Vec<u64> = (0..g.w).map(|xi| count(xi, g.kw, g.ow)).collect();
    (ty, tx)
}

/// Synaptic-operation count of a convolution over a **position-major**
/// event list (`[H, W, C]` features), resolved **per image**: `out[i]`
/// grows by image `i`'s `valid taps × O` accumulates, looked up in
/// per-axis tap-count tables — no arithmetic, no scan. The scatter
/// kernels bill their ledger as they go; this is the ledger of the
/// im2col GEMM path, which adds every tap and cannot count the active
/// ones itself.
///
/// # Errors
///
/// Returns an error on shape mismatches or if `out.len()` differs from
/// the batch size.
pub fn conv2d_synops_events_by_image(
    events: &SpikeBatch,
    o: usize,
    kernel: (usize, usize),
    spec: Conv2dSpec,
    out: &mut [u64],
) -> Result<()> {
    check_ledger(events.batch(), out, "conv2d_synops_events_by_image")?;
    let dims = events.feature_dims().to_vec();
    let g = ConvGeom::new_pm(
        &dims,
        o,
        dims.last().copied().unwrap_or(0) * kernel.0 * kernel.1,
        kernel,
        spec,
        "conv2d_synops_events_by_image",
    )?;
    let (ty, tx) = tap_tables(&g);
    let decoder = PmDecoder::new(g.w, g.c);
    for (ni, slot) in out.iter_mut().enumerate() {
        let (idx, _) = events.image_events(ni);
        let mut taps = 0u64;
        for &flat in idx {
            let (_, yi, xi) = decoder.decode(flat as usize);
            taps += ty[yi] * tx[xi];
        }
        *slot += taps * g.o as u64;
    }
    Ok(())
}

/// Reused buffers of the event-form pooling kernels: a dense per-window
/// accumulator over one image's pooled cells with an occupancy bitmap
/// beside it (one bit per cell, set when a window receives an event),
/// and the per-axis covering-window tables cached by pooling geometry.
/// Both kernels accumulate an image's events into the windows covering
/// them, then `PoolScratch::drain` scans the set bits in ascending
/// order — the emission order — and zeroes each emitted cell, so the
/// accumulator is all zeros again at the start of every image with no
/// per-image clear and no sort. These kernels run once per pool layer
/// per time step, so nothing here allocates on a warm call.
#[derive(Debug, Default)]
pub struct PoolScratch {
    acc: Vec<f32>,
    occupied: Vec<u64>,
    /// `(h, w, window, stride)` the cached window tables were built for.
    geom: Option<(usize, usize, usize, usize)>,
    ys: Vec<std::ops::Range<usize>>,
    xs: Vec<std::ops::Range<usize>>,
}

impl PoolScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        PoolScratch::default()
    }

    /// Rebuilds `self.ys`/`self.xs` (the windows covering each source
    /// coordinate) only when the pooling geometry changed since the last
    /// call — per-step reuse is allocation-free — and sizes the
    /// accumulator and bitmap for `len` pooled cells.
    #[allow(clippy::too_many_arguments)] // one geometry, spelled out
    fn prepare(
        &mut self,
        h: usize,
        w: usize,
        window: usize,
        stride: usize,
        oh: usize,
        ow: usize,
        len: usize,
    ) {
        if self.acc.len() < len {
            self.acc.resize(len, 0.0);
            self.occupied.resize(len.div_ceil(64), 0);
        }
        if self.geom == Some((h, w, window, stride)) {
            return;
        }
        self.ys.clear();
        self.ys
            .extend((0..h).map(|y| covering_windows(y, window, stride, oh)));
        self.xs.clear();
        self.xs
            .extend((0..w).map(|x| covering_windows(x, window, stride, ow)));
        self.geom = Some((h, w, window, stride));
    }

    /// Folds every event of one image into the window cells covering it,
    /// in event order, with `combine(cell, value)`, marking each cell
    /// occupied.
    fn accumulate(
        &mut self,
        (idx, val): (&[u32], &[f32]),
        decoder: &PmDecoder,
        ow: usize,
        combine: impl Fn(&mut f32, f32),
    ) {
        let c = decoder.c;
        for (&flat, &v) in idx.iter().zip(val) {
            let (ci, yi, xi) = decoder.decode(flat as usize);
            for oy in self.ys[yi].clone() {
                for ox in self.xs[xi].clone() {
                    let slot = (oy * ow + ox) * c + ci;
                    combine(&mut self.acc[slot], v);
                    self.occupied[slot >> 6] |= 1 << (slot & 63);
                }
            }
        }
    }

    /// Hands every occupied cell among the first `len` to `emit(slot,
    /// value)` in ascending slot order, leaving the accumulator zeroed
    /// and the bitmap clear for the next image.
    fn drain(&mut self, len: usize, mut emit: impl FnMut(u32, f32)) {
        let acc = &mut self.acc;
        for (wi, word) in self.occupied[..len.div_ceil(64)].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let slot = wi * 64 + bits.trailing_zeros() as usize;
                emit(slot as u32, std::mem::take(&mut acc[slot]));
                bits &= bits - 1;
            }
        }
    }
}

fn pooled_features(
    events: &SpikeBatch,
    window: usize,
    stride: usize,
    op: &'static str,
) -> Result<(usize, usize, usize, usize, usize)> {
    let dims = events.feature_dims();
    if dims.len() != 3 {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!("expected [H, W, C] event features, got {dims:?}"),
        });
    }
    if window == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument {
            op,
            message: "window and stride must be positive".to_string(),
        });
    }
    let (h, w, c) = (dims[0], dims[1], dims[2]);
    Ok((
        h,
        w,
        c,
        pooled_dim(h, window, stride),
        pooled_dim(w, window, stride),
    ))
}

/// Average pooling over a **position-major** event list, staying in
/// event form: each input event adds its value to the window sums
/// covering it (in event order — the canonical accumulation order), the
/// sums are scaled by `1/window²`, and every window that received an
/// event is emitted in ascending index order into `out` (reusing its
/// allocations). Bit-identical to [`crate::ops::avg_pool2d_pm`] on the
/// densified signal, with work proportional to the event count plus one
/// bitmap word per 64 pooled cells of each image that has events — no
/// dense round trip between a fire phase and the next integrate.
///
/// Window sums start from `0.0` rather than from their first event,
/// which is exact because `0.0 + v == v` bit for bit for every `v` but
/// `-0.0` — and event values are never zero (spiking producers emit
/// only non-zero values; this is debug-asserted).
///
/// # Errors
///
/// Returns an error if the events are not `[H, W, C]`-shaped or the
/// window/stride is zero.
pub fn avg_pool2d_events(
    events: &SpikeBatch,
    window: usize,
    stride: usize,
    out: &mut SpikeBatch,
    scratch: &mut PoolScratch,
) -> Result<()> {
    let (h, w, c, oh, ow) = pooled_features(events, window, stride, "avg_pool2d_events")?;
    let decoder = PmDecoder::new(w, c);
    let out_image = oh * ow * c;
    scratch.prepare(h, w, window, stride, oh, ow, out_image);
    let inv_area = 1.0 / (window * window) as f32;
    out.begin(&[oh, ow, c]);
    for ni in 0..events.batch() {
        let image = events.image_events(ni);
        if !image.0.is_empty() {
            debug_assert!(
                image.1.iter().all(|&v| v != 0.0),
                "event values must be non-zero"
            );
            scratch.accumulate(image, &decoder, ow, |cell, v| *cell += v);
            scratch.drain(out_image, |slot, sum| out.push(slot, sum * inv_area));
        }
        out.end_image();
    }
    Ok(())
}

/// Max pooling over a **position-major** event list under the TTFS
/// first-spike-wins rule, staying in event form: per output window with
/// at least one event this step, the window maximum (the same `>` scan
/// the dense kernel performs) is emitted **once per inference** — the
/// first step a window produces a spike latches its `gate` entry and
/// later steps are suppressed. `gate` has the pooled shape
/// `[N, OH, OW, C]` and persists across steps. Windows are accumulated
/// and emitted through the same occupancy bitmap as
/// [`avg_pool2d_events`]; a window maximum starts from `0.0`, which the
/// non-negative values below never lose to.
///
/// On non-negative spike values (all spiking PSPs in this workspace)
/// this is bit-identical to densifying, running
/// [`crate::ops::max_pool2d_pm`] and then [`crate::ops::first_spike_gate`],
/// with work proportional to the
/// event count — max-pool networks no longer densify between fire and
/// integrate phases.
///
/// # Errors
///
/// Returns an error on feature/gate shape mismatches or a zero
/// window/stride.
pub fn max_pool2d_events(
    events: &SpikeBatch,
    window: usize,
    stride: usize,
    gate: &mut Tensor,
    out: &mut SpikeBatch,
    scratch: &mut PoolScratch,
) -> Result<()> {
    let (h, w, c, oh, ow) = pooled_features(events, window, stride, "max_pool2d_events")?;
    let n = events.batch();
    if gate.dims() != [n, oh, ow, c] {
        return Err(TensorError::InvalidArgument {
            op: "max_pool2d_events",
            message: format!("expected gate [{n}, {oh}, {ow}, {c}], got {}", gate.shape()),
        });
    }
    let decoder = PmDecoder::new(w, c);
    let out_image = oh * ow * c;
    scratch.prepare(h, w, window, stride, oh, ow, out_image);
    let gd = gate.data_mut();
    out.begin(&[oh, ow, c]);
    for ni in 0..n {
        let gimg = &mut gd[ni * out_image..(ni + 1) * out_image];
        let image = events.image_events(ni);
        if !image.0.is_empty() {
            debug_assert!(
                image.1.iter().all(|&v| v >= 0.0),
                "TTFS max pooling expects non-negative PSP values"
            );
            scratch.accumulate(image, &decoder, ow, |cell, v| {
                if v > *cell {
                    *cell = v;
                }
            });
            scratch.drain(out_image, |slot, v| {
                let g = &mut gimg[slot as usize];
                if *g == 0.0 && v != 0.0 {
                    *g = 1.0;
                    out.push(slot, v);
                }
            });
        }
        out.end_image();
    }
    Ok(())
}

fn check_linear_t(input_features: usize, weight_t: &Tensor, op: &'static str) -> Result<usize> {
    if weight_t.rank() != 2 || weight_t.dims()[0] != input_features {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!(
                "expected transposed weight [{input_features}, O], got {}",
                weight_t.shape()
            ),
        });
    }
    Ok(weight_t.dims()[1])
}

/// Sparse dense-layer propagation over a **dense** `[N, I]` input with a
/// *transposed* weight `[I, O]` (row-contiguous per input feature),
/// accumulating into an existing `[N, O]` target (normally a layer's
/// membrane potentials): only non-zero inputs touch weights, and the
/// target is the accumulator — no intermediate drive tensor. Each
/// non-zero input of image `i` adds `O` to its ledger slot `synops[i]`.
///
/// Accumulation order per output element is ascending input index —
/// whatever feature order the weight rows are laid out in, so callers
/// holding position-major features pass a row-permuted weight and keep
/// the canonical order.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches, or if `synops` does
/// not hold one slot per image.
pub fn linear_scatter_t_acc(
    input: &Tensor,
    weight_t: &Tensor,
    target: &mut Tensor,
    synops: &mut [u64],
) -> Result<()> {
    if input.rank() != 2 {
        return Err(TensorError::InvalidArgument {
            op: "linear_scatter_t_acc",
            message: format!("expected [N, I] input, got {}", input.shape()),
        });
    }
    let (n, i) = (input.dims()[0], input.dims()[1]);
    let o = check_linear_t(i, weight_t, "linear_scatter_t_acc")?;
    check_linear_target(n, o, target, "linear_scatter_t_acc")?;
    check_ledger(n, synops, "linear_scatter_t_acc")?;
    let (od, id, wtd) = (target.data_mut(), input.data(), weight_t.data());
    for (ni, slot) in synops.iter_mut().enumerate() {
        let orow = &mut od[ni * o..(ni + 1) * o];
        for (ii, &v) in id[ni * i..(ni + 1) * i].iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            simd::axpy(orow, v, &wtd[ii * o..(ii + 1) * o]);
            *slot += o as u64;
        }
    }
    Ok(())
}

/// Event-list twin of [`linear_scatter_t_acc`]: weight rows scatter
/// straight into the `[N, O]` membrane potentials, with the same results
/// and ledger charges, bit for bit, without scanning zeros.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches, or if `synops` does
/// not hold one slot per image.
pub fn linear_scatter_events_acc(
    events: &SpikeBatch,
    weight_t: &Tensor,
    target: &mut Tensor,
    synops: &mut [u64],
) -> Result<()> {
    let i = events.feature_numel();
    let o = check_linear_t(i, weight_t, "linear_scatter_events_acc")?;
    let n = events.batch();
    check_linear_target(n, o, target, "linear_scatter_events_acc")?;
    check_ledger(n, synops, "linear_scatter_events_acc")?;
    let (od, wtd) = (target.data_mut(), weight_t.data());
    for (ni, slot) in synops.iter_mut().enumerate() {
        let orow = &mut od[ni * o..(ni + 1) * o];
        let (idx, val) = events.image_events(ni);
        for (&ii, &v) in idx.iter().zip(val) {
            simd::axpy(orow, v, &wtd[ii as usize * o..(ii as usize + 1) * o]);
            *slot += o as u64;
        }
    }
    Ok(())
}

fn check_linear_target(n: usize, o: usize, target: &Tensor, op: &'static str) -> Result<()> {
    if target.dims() != [n, o] {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!("expected target [{n}, {o}], got {}", target.shape()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{avg_pool2d_pm, conv2d, first_spike_gate, matmul_a_bt, max_pool2d_pm};

    fn weight(o: usize, c: usize, k: usize) -> Tensor {
        Tensor::from_fn([o, c, k, k], |i| {
            ((i[0] * 31 + i[1] * 17 + i[2] * 5 + i[3]) % 13) as f32 * 0.07 - 0.4
        })
    }

    /// A sparse channel-major batch.
    fn sparse_input(n: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn([n, c, h, w], |i| {
            let key = i[0] * 1009 + i[1] * 101 + i[2] * 11 + i[3];
            if key % 5 == 0 {
                (key % 7) as f32 * 0.3 + 0.1
            } else {
                0.0
            }
        })
    }

    /// The dense walk into a zeroed target: the fresh output and its
    /// per-image synop ledger.
    fn dense_walk(input: &Tensor, wt: &Tensor, k: usize, spec: Conv2dSpec) -> (Tensor, Vec<u64>) {
        let d = input.dims();
        let (oh, ow) = (spec.output_dim(d[1], k), spec.output_dim(d[2], k));
        let mut out = Tensor::zeros([d[0], oh, ow, wt.dims()[1]]);
        let mut synops = vec![0; d[0]];
        conv2d_scatter_pm_acc(input, wt, (k, k), spec, &mut out, &mut synops).unwrap();
        (out, synops)
    }

    /// [`dense_walk`] for the event scatter.
    fn event_scatter(
        events: &SpikeBatch,
        wt: &Tensor,
        k: usize,
        spec: Conv2dSpec,
    ) -> (Tensor, Vec<u64>) {
        let d = events.feature_dims();
        let (oh, ow) = (spec.output_dim(d[0], k), spec.output_dim(d[1], k));
        let mut out = Tensor::zeros([events.batch(), oh, ow, wt.dims()[1]]);
        let mut synops = vec![0; events.batch()];
        conv2d_scatter_events_pm_acc(events, wt, (k, k), spec, &mut out, &mut synops).unwrap();
        (out, synops)
    }

    #[test]
    fn pm_dense_and_event_conv_are_bit_identical() {
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 0), (2, 1), (3, 2)] {
            let spec = Conv2dSpec::new(stride, padding);
            let input_cm = sparse_input(2, 3, 7, 6);
            let input = input_cm.to_position_major().unwrap();
            let w = weight(4, 3, 3);
            let wt = transpose_filter(&w).unwrap();
            let (dense, s1) = dense_walk(&input, &wt, 3, spec);
            let events = SpikeBatch::from_dense(&input).unwrap();
            let (sparse, s2) = event_scatter(&events, &wt, 3, spec);
            assert_eq!(dense, sparse, "stride={stride} padding={padding}");
            assert_eq!(s1, s2);
            assert_eq!(s1, conv2d_synops(&input_cm, &w, spec).unwrap());
        }
    }

    #[test]
    fn pm_and_cm_layouts_are_bit_identical_modulo_transpose() {
        // The cross-layout invariant: the position-major kernels and the
        // channel-major GEMM oracle accumulate each output element in the
        // same canonical (y, x, c) order, so their results are the same
        // values in permuted storage.
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let spec = Conv2dSpec::new(stride, padding);
            let input_cm = sparse_input(2, 3, 7, 6);
            let w = weight(4, 3, 3);
            let wt = transpose_filter(&w).unwrap();
            let out_cm = conv2d_gemm(&input_cm, &w, spec).unwrap();
            let input_pm = input_cm.to_position_major().unwrap();
            let (out_pm, s_pm) = dense_walk(&input_pm, &wt, 3, spec);
            assert_eq!(out_pm.to_channel_major().unwrap(), out_cm);
            assert_eq!(s_pm, conv2d_synops(&input_cm, &w, spec).unwrap());
        }
    }

    #[test]
    fn scatter_matches_im2col_conv_and_gemm() {
        for &(stride, padding) in &[(1usize, 1usize), (2, 0)] {
            let spec = Conv2dSpec::new(stride, padding);
            let input = sparse_input(2, 3, 6, 6);
            let w = weight(4, 3, 3);
            let wt = transpose_filter(&w).unwrap();
            let (out_pm, synops) = dense_walk(&input.to_position_major().unwrap(), &wt, 3, spec);
            let out = out_pm.to_channel_major().unwrap();
            let reference = conv2d(&input, &w, &Tensor::zeros([4]), spec).unwrap();
            assert!(out.all_close(&reference, 1e-4));
            assert!(synops.iter().all(|&s| s > 0));
            let gemm = conv2d_gemm(&input, &w, spec).unwrap();
            // GEMM performs the identical term sequence plus `± 0.0`
            // additions for inactive taps, so it is f32-equal (not merely
            // close) to the scatter paths.
            assert_eq!(out, gemm);
        }
    }

    #[test]
    fn gemm_pm_acc_is_bit_identical_to_event_scatter() {
        for &(stride, padding) in &[(1usize, 1usize), (2, 0)] {
            let spec = Conv2dSpec::new(stride, padding);
            let input_cm = sparse_input(2, 3, 6, 6);
            let input = input_cm.to_position_major().unwrap();
            let w = weight(4, 3, 3);
            let wt = transpose_filter(&w).unwrap();
            let wr = reorder_filter_taps(&w).unwrap();
            let base = Tensor::from_fn([2, spec.output_dim(6, 3), spec.output_dim(6, 3), 4], |i| {
                (i[1] + i[2] + i[3]) as f32 * 0.01 - 0.05
            });
            let mut via_scatter = base.clone();
            let events = SpikeBatch::from_dense(&input).unwrap();
            let mut scatter_synops = vec![0; 2];
            conv2d_scatter_events_pm_acc(
                &events,
                &wt,
                (3, 3),
                spec,
                &mut via_scatter,
                &mut scatter_synops,
            )
            .unwrap();
            let mut via_gemm = base.clone();
            conv2d_gemm_pm_acc(&input, &wr, (3, 3), spec, &mut via_gemm).unwrap();
            assert_eq!(via_scatter, via_gemm, "stride={stride} padding={padding}");
            // The GEMM path's ledger comes from the tap tables.
            let mut gemm_synops = vec![0; 2];
            conv2d_synops_events_by_image(&events, 4, (3, 3), spec, &mut gemm_synops).unwrap();
            assert_eq!(gemm_synops, scatter_synops);
            assert_eq!(gemm_synops, conv2d_synops(&input_cm, &w, spec).unwrap());
        }
    }

    #[test]
    fn synops_count_taps_times_out_channels() {
        // A single interior event of a 3×3 stride-1 padded conv touches
        // all 9 taps.
        let spec = Conv2dSpec::new(1, 1);
        let mut input = Tensor::zeros([1, 1, 5, 5]);
        input.set(&[0, 0, 2, 2], 1.0).unwrap();
        let w = weight(4, 1, 3);
        assert_eq!(conv2d_synops(&input, &w, spec).unwrap(), [9 * 4]);
        let wt = transpose_filter(&w).unwrap();
        let pm = input.to_position_major().unwrap();
        assert_eq!(dense_walk(&pm, &wt, 3, spec).1, [9 * 4]);
        // A corner event without padding reaches only 1 tap.
        let spec = Conv2dSpec::new(1, 0);
        let mut corner = Tensor::zeros([1, 1, 5, 5]);
        corner.set(&[0, 0, 0, 0], 1.0).unwrap();
        assert_eq!(conv2d_synops(&corner, &w, spec).unwrap(), [4]);
        let pm = corner.to_position_major().unwrap();
        assert_eq!(dense_walk(&pm, &wt, 3, spec).1, [4]);
    }

    #[test]
    fn synops_scan_matches_scatter_count() {
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 0), (2, 1)] {
            let spec = Conv2dSpec::new(stride, padding);
            let input = sparse_input(2, 3, 7, 6);
            let w = weight(4, 3, 3);
            let from_scan = conv2d_synops(&input, &w, spec).unwrap();
            let what = format!("stride={stride} padding={padding}");
            let wt = transpose_filter(&w).unwrap();
            let (_, ledger) = dense_walk(&input.to_position_major().unwrap(), &wt, 3, spec);
            assert_eq!(ledger, from_scan, "{what}");
            let events = SpikeBatch::from_dense(&input.to_position_major().unwrap()).unwrap();
            assert_eq!(event_scatter(&events, &wt, 3, spec).1, from_scan, "{what}");
        }
    }

    #[test]
    fn event_synops_match_scatter_count() {
        for &(stride, padding) in &[(1usize, 1usize), (2, 0)] {
            let spec = Conv2dSpec::new(stride, padding);
            let input = sparse_input(2, 3, 7, 6);
            let w = weight(4, 3, 3);
            let events = SpikeBatch::from_dense(&input.to_position_major().unwrap()).unwrap();
            let mut got = vec![0; 2];
            conv2d_synops_events_by_image(&events, 4, (3, 3), spec, &mut got).unwrap();
            assert_eq!(got, conv2d_synops(&input, &w, spec).unwrap());
            let wt = transpose_filter(&w).unwrap();
            assert_eq!(got, event_scatter(&events, &wt, 3, spec).1);
        }
    }

    #[test]
    fn per_image_synops_sum_to_batch_totals() {
        for &(stride, padding) in &[(1usize, 1usize), (2, 0)] {
            let spec = Conv2dSpec::new(stride, padding);
            let input = sparse_input(3, 2, 6, 5);
            let w = weight(4, 2, 3);
            let pm = input.to_position_major().unwrap();
            let events = SpikeBatch::from_dense(&pm).unwrap();
            let wt = transpose_filter(&w).unwrap();
            let total: u64 = dense_walk(&pm, &wt, 3, spec).1.iter().sum();
            let mut by_image = vec![0u64; 3];
            conv2d_synops_events_by_image(&events, 4, (3, 3), spec, &mut by_image).unwrap();
            assert_eq!(by_image.iter().sum::<u64>(), total);
            assert_eq!(
                by_image,
                conv2d_synops(&input, &w, spec).unwrap(),
                "stride={stride} padding={padding}"
            );
            // The ledger accumulates: a second call doubles every slot.
            let mut twice = by_image.clone();
            conv2d_synops_events_by_image(&events, 4, (3, 3), spec, &mut twice).unwrap();
            assert!(twice.iter().zip(&by_image).all(|(&t, &b)| t == 2 * b));
            // A solo image is charged exactly its batched count.
            for (ni, &batched) in by_image.iter().enumerate() {
                let solo = pm.index_axis0(ni).unwrap();
                let solo_pm = solo.reshape([1, 6, 5, 2]).unwrap();
                let solo_events = SpikeBatch::from_dense(&solo_pm).unwrap();
                assert_eq!(event_scatter(&solo_events, &wt, 3, spec).1, [batched]);
            }
        }
        // A ledger without one slot per image is rejected.
        let spec = Conv2dSpec::new(1, 1);
        let events = SpikeBatch::from_dense(&Tensor::ones([2, 4, 4, 1])).unwrap();
        let mut short = vec![0u64; 1];
        assert!(conv2d_synops_events_by_image(&events, 4, (3, 3), spec, &mut short).is_err());
        let wt = transpose_filter(&weight(4, 1, 3)).unwrap();
        let mut target = Tensor::zeros([2, 4, 4, 4]);
        assert!(
            conv2d_scatter_events_pm_acc(&events, &wt, (3, 3), spec, &mut target, &mut short)
                .is_err()
        );
        assert!(conv2d_scatter_pm_acc(
            &Tensor::ones([2, 4, 4, 1]),
            &wt,
            (3, 3),
            spec,
            &mut target,
            &mut short
        )
        .is_err());
    }

    /// A two-image linear input with two non-zeros per image, its weight
    /// and the transposed weight the kernels take.
    fn linear_case() -> (Tensor, Tensor, Tensor) {
        let input =
            Tensor::from_vec([2, 4], vec![1.0, 0.0, 0.5, 0.0, 0.0, 2.0, 0.0, -1.0]).unwrap();
        let w = Tensor::from_fn([3, 4], |i| (i[0] * 4 + i[1]) as f32 * 0.1 - 0.2);
        let wt = w.transpose().unwrap();
        (input, w, wt)
    }

    #[test]
    fn linear_dense_and_event_paths_agree_with_matmul() {
        let (input, w, wt) = linear_case();
        let mut dense = Tensor::zeros([2, 3]);
        let mut s1 = vec![0; 2];
        linear_scatter_t_acc(&input, &wt, &mut dense, &mut s1).unwrap();
        let events = SpikeBatch::from_dense(&input).unwrap();
        let mut sparse = Tensor::zeros([2, 3]);
        let mut s2 = vec![0; 2];
        linear_scatter_events_acc(&events, &wt, &mut sparse, &mut s2).unwrap();
        assert_eq!(dense, sparse);
        assert_eq!(s1, s2);
        assert_eq!(s1, [2 * 3, 2 * 3]); // 2 non-zeros × 3 outputs per image
        let reference = matmul_a_bt(&input, &w).unwrap();
        assert!(dense.all_close(&reference, 1e-6));
    }

    #[test]
    fn linear_acc_variants_accumulate_in_place() {
        let (input, _, wt) = linear_case();
        let base = Tensor::from_fn([2, 3], |i| (i[0] * 3 + i[1]) as f32 * 0.25);
        // The kernels must equal "target += each contribution in order".
        let mut want = base.clone();
        for ni in 0..2 {
            for ii in 0..4 {
                let v = input.data()[ni * 4 + ii];
                if v != 0.0 {
                    for oc in 0..3 {
                        want.data_mut()[ni * 3 + oc] += v * wt.data()[ii * 3 + oc];
                    }
                }
            }
        }
        let mut dense_acc = base.clone();
        let mut s1 = vec![5, 7];
        linear_scatter_t_acc(&input, &wt, &mut dense_acc, &mut s1).unwrap();
        assert_eq!(dense_acc, want);
        assert_eq!(s1, [5 + 6, 7 + 6], "the ledger grows by nnz × O");
        let events = SpikeBatch::from_dense(&input).unwrap();
        let mut event_acc = base.clone();
        let mut s2 = vec![5, 7];
        linear_scatter_events_acc(&events, &wt, &mut event_acc, &mut s2).unwrap();
        assert_eq!(event_acc, want);
        assert_eq!(s2, s1);
        // Shape validation, short ledgers included.
        let mut ledger = vec![0; 2];
        assert!(
            linear_scatter_t_acc(&input, &wt, &mut Tensor::zeros([2, 4]), &mut ledger).is_err()
        );
        assert!(
            linear_scatter_events_acc(&events, &wt, &mut Tensor::zeros([3, 3]), &mut ledger)
                .is_err()
        );
        let mut short = vec![0; 1];
        assert!(linear_scatter_t_acc(&input, &wt, &mut dense_acc, &mut short).is_err());
        assert!(linear_scatter_events_acc(&events, &wt, &mut event_acc, &mut short).is_err());
    }

    #[test]
    fn conv_acc_variants_accumulate_in_place() {
        let spec = Conv2dSpec::new(1, 1);
        let input = sparse_input(2, 3, 6, 6).to_position_major().unwrap();
        let w = weight(4, 3, 3);
        let wt = transpose_filter(&w).unwrap();
        let base = Tensor::from_fn([2, 6, 6, 4], |i| (i[0] + i[1] + i[2]) as f32 * 0.01);
        let (fresh, synops_ref) = dense_walk(&input, &wt, 3, spec);
        let mut dense_acc = base.clone();
        let mut s1 = vec![0; 2];
        conv2d_scatter_pm_acc(&input, &wt, (3, 3), spec, &mut dense_acc, &mut s1).unwrap();
        let events = SpikeBatch::from_dense(&input).unwrap();
        let mut event_acc = base.clone();
        let mut s2 = vec![0; 2];
        conv2d_scatter_events_pm_acc(&events, &wt, (3, 3), spec, &mut event_acc, &mut s2).unwrap();
        assert_eq!(dense_acc, event_acc);
        assert_eq!(s1, synops_ref);
        assert_eq!(s2, synops_ref);
        // Accumulation really starts from the base values.
        assert_ne!(dense_acc, fresh);
        // Shape validation.
        assert!(conv2d_scatter_pm_acc(
            &input,
            &wt,
            (3, 3),
            spec,
            &mut Tensor::zeros([2, 6, 6, 3]),
            &mut s1
        )
        .is_err());
    }

    #[test]
    fn kernels_validate_shapes() {
        let w = weight(2, 3, 3);
        let wt = transpose_filter(&w).unwrap();
        let spec = Conv2dSpec::default();
        assert!(conv2d_synops(&Tensor::zeros([1, 2, 4, 4]), &w, spec).is_err());
        assert!(conv2d_synops(&Tensor::zeros([2, 4, 4]), &w, spec).is_err());
        let mut target = Tensor::zeros([1, 2, 2, 2]);
        let mut ledger = vec![0; 1];
        assert!(conv2d_scatter_pm_acc(
            &Tensor::zeros([1, 4, 4, 2]),
            &wt,
            (3, 3),
            spec,
            &mut target,
            &mut ledger
        )
        .is_err());
        let events = SpikeBatch::from_dense(&Tensor::zeros([1, 4, 4, 2])).unwrap();
        assert!(
            conv2d_scatter_events_pm_acc(&events, &wt, (3, 3), spec, &mut target, &mut ledger)
                .is_err()
        );
        assert!(conv2d_gemm(&Tensor::zeros([1, 2, 4, 4]), &w, spec).is_err());
        let mut target = Tensor::zeros([1, 2]);
        let weight_t = Tensor::zeros([4, 2]);
        assert!(
            linear_scatter_t_acc(&Tensor::zeros([1, 3]), &weight_t, &mut target, &mut ledger)
                .is_err()
        );
        let events = SpikeBatch::from_dense(&Tensor::zeros([1, 3])).unwrap();
        assert!(linear_scatter_events_acc(&events, &weight_t, &mut target, &mut ledger).is_err());
        assert!(transpose_filter(&Tensor::zeros([2, 3])).is_err());
        assert!(reorder_filter_taps(&Tensor::zeros([2, 3])).is_err());
    }

    /// Strictly positive position-major `[n, h, w, c]` spikes at about
    /// one in five positions, different per `salt`; image `empty` (if
    /// any) is all zero.
    fn pm_spikes(dims: [usize; 4], salt: usize, empty: Option<usize>) -> Tensor {
        Tensor::from_fn(dims, |i| {
            let key = i[0] * 1009 + i[1] * 101 + i[2] * 11 + i[3] * 3 + salt * 37;
            if Some(i[0]) != empty && key.is_multiple_of(5) {
                (key % 7) as f32 * 0.3 + 0.1
            } else {
                0.0
            }
        })
    }

    /// Pooling inputs: several images with an empty one in the middle,
    /// power-of-two W/C (shift decoder) and not (division decoder), and
    /// a map shorter than a 3-wide window (`oh = 0` there).
    const POOL_INPUTS: [([usize; 4], Option<usize>); 4] = [
        ([2, 7, 6, 3], None),
        ([3, 7, 6, 3], Some(1)),
        ([3, 8, 8, 4], Some(1)),
        ([2, 2, 5, 3], None),
    ];

    /// Non-overlapping and overlapping window/stride geometries.
    const POOL_GEOMETRIES: [(usize, usize); 3] = [(2, 2), (2, 1), (3, 2)];

    #[test]
    fn event_avg_pool_is_bit_identical_to_dense_pm_pool() {
        // The pooled event list itself is compared (not its densified
        // tensor, where a duplicate or out-of-order event would hide
        // behind the last write). One scratch serves every case, so a
        // window left non-zero by an earlier call would show up.
        let mut scratch = PoolScratch::new();
        let mut pooled = SpikeBatch::empty();
        for (dims, empty) in POOL_INPUTS {
            for (window, stride) in POOL_GEOMETRIES {
                let input = pm_spikes(dims, window + stride, empty);
                let events = SpikeBatch::from_dense(&input).unwrap();
                avg_pool2d_events(&events, window, stride, &mut pooled, &mut scratch).unwrap();
                let dense = avg_pool2d_pm(&input, window, stride).unwrap();
                assert_eq!(
                    pooled,
                    SpikeBatch::from_dense(&dense).unwrap(),
                    "dims={dims:?} window={window} stride={stride}"
                );
            }
        }
        assert!(avg_pool2d_events(
            &SpikeBatch::from_dense(&Tensor::zeros([1, 4])).unwrap(),
            2,
            2,
            &mut SpikeBatch::empty(),
            &mut PoolScratch::new()
        )
        .is_err());
    }

    #[test]
    fn event_max_pool_matches_densify_then_gated_dense_pool() {
        // The oracle the TTFS engine relies on: first-spike-wins pooling
        // over events, step by step, is bitwise what densify →
        // max_pool2d_pm → first_spike_gate computes. Event lists are compared as
        // lists, and one scratch serves every case.
        let mut scratch = PoolScratch::new();
        let mut pooled = SpikeBatch::empty();
        for (dims, empty) in POOL_INPUTS {
            for (window, stride) in POOL_GEOMETRIES {
                let [n, h, w, c] = dims;
                let pooled_dims = [
                    n,
                    pooled_dim(h, window, stride),
                    pooled_dim(w, window, stride),
                    c,
                ];
                let mut gate_ev = Tensor::zeros(pooled_dims);
                let mut gate_dn = gate_ev.clone();
                for step in 0..4 {
                    // A different sparse positive spike pattern per step.
                    let spikes = pm_spikes(dims, step, empty);
                    let events = SpikeBatch::from_dense(&spikes).unwrap();
                    max_pool2d_events(
                        &events,
                        window,
                        stride,
                        &mut gate_ev,
                        &mut pooled,
                        &mut scratch,
                    )
                    .unwrap();
                    let mut dense = max_pool2d_pm(&spikes, window, stride).unwrap();
                    first_spike_gate(&mut dense, &mut gate_dn).unwrap();
                    let what = format!("dims={dims:?} window={window} stride={stride} step {step}");
                    assert_eq!(pooled, SpikeBatch::from_dense(&dense).unwrap(), "{what}");
                    assert_eq!(gate_ev, gate_dn, "{what}");
                }
                // Every window fires at most once over the whole run.
                assert!(gate_ev.iter().all(|&g| g == 0.0 || g == 1.0));
            }
        }
        // Shape validation.
        let events = SpikeBatch::from_dense(&Tensor::zeros([1, 4, 4, 2])).unwrap();
        assert!(max_pool2d_events(
            &events,
            2,
            2,
            &mut Tensor::zeros([1, 2, 2, 3]),
            &mut SpikeBatch::empty(),
            &mut PoolScratch::new()
        )
        .is_err());
    }

    #[test]
    fn kernel_larger_than_input_yields_empty_output() {
        // oh = ow = 0: the scatter paths must leave the empty target and
        // charge nothing, not panic.
        let spec = Conv2dSpec::new(1, 0);
        let mut input = Tensor::zeros([1, 2, 2, 1]);
        input.set(&[0, 1, 1, 0], 1.0).unwrap();
        let w = weight(2, 1, 3);
        let wt = transpose_filter(&w).unwrap();
        let (out, synops) = dense_walk(&input, &wt, 3, spec);
        assert_eq!(out.dims(), &[1, 0, 0, 2]);
        assert_eq!(synops, [0]);
        let events = SpikeBatch::from_dense(&input).unwrap();
        let (out, synops) = event_scatter(&events, &wt, 3, spec);
        assert_eq!(out.dims(), &[1, 0, 0, 2]);
        assert_eq!(synops, [0]);
    }

    #[test]
    fn zero_input_is_free() {
        let w = weight(2, 1, 3);
        let wt = transpose_filter(&w).unwrap();
        let spec = Conv2dSpec::new(1, 1);
        let (out, synops) = dense_walk(&Tensor::zeros([1, 4, 4, 1]), &wt, 3, spec);
        assert_eq!(synops, [0]);
        assert_eq!(out.sum(), 0.0);
    }
}
