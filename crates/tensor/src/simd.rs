//! SIMD slice primitives: one source per kernel, runtime-dispatched to
//! AVX2 or to baseline code.
//!
//! Every primitive here vectorizes across an **independent-output axis
//! only**: each vector lane owns exactly one output element, performs the
//! same scalar IEEE-754 operations in the same order for that element,
//! and lanes never share an accumulator (and no FMA contraction is used —
//! every multiply and add is a separate rounding). Results are therefore
//! **bit-identical** with SIMD on and off, which is what lets the
//! spiking engine's canonical-accumulation-order contract (see
//! [`crate::ops::sparse`]) survive vectorization: per output element the
//! contribution *sequence* is untouched, only how many elements advance
//! per instruction changes.
//!
//! There is one mechanism for lane-parallel arithmetic: a kernel is a
//! plain safe index loop run through `vectorized`, which compiles the
//! inlined loop for AVX2 in one `target_feature` context when SIMD is
//! on, and as baseline code otherwise — the same source twice. The
//! elementwise maps and bias injection here run this way, one dispatch
//! per call; so do the blocked GEMM cores (`gemm_block4`, `at_b_block4`,
//! defined here and run by [`crate::ops::matmul`] inside one context
//! per product) and the conv and linear scatters of
//! [`crate::ops::sparse`] (one context per batch).
//! A runtime-length row axpy steps eight lanes at a time, and the bias
//! rows run at the conv widths' fixed lengths, so a short row (a
//! layer's 8–128 channels) still runs whole vectors.
//!
//! Four kernels keep hand-written `std::arch` AVX2 with a scalar twin,
//! each because its plain-loop form measured slower (the doc comment of
//! each says by how much): the mask scans [`collect_ge`] and
//! [`fire_subtract`], which left-pack a compare mask into an index list,
//! and the multi-accumulator reductions [`dot`] and [`dot2`], whose eight
//! fixed lane accumulators are summed in lane order like the twins'.
//!
//! Dispatch is decided once at runtime: AVX2 must be detected via
//! `is_x86_feature_detected!` **and** the `T2FSNN_SIMD` environment
//! variable must not be `0` (the escape hatch for measuring the scalar
//! fallback on modern hardware). [`set_enabled`] can override the
//! decision at any time — flipping it mid-run is safe precisely because
//! both paths produce the same bits.
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! crate is `deny(unsafe_code)`); every unsafe block is either an
//! `std::arch` intrinsic call or a call into the `vectorized` AVX2
//! context, each guarded by the runtime AVX2 check, an in-bounds pointer
//! offset derived from a slice length computed in safe code, or (in
//! [`fire_subtract`]) a store into reserved `Vec` capacity followed by a
//! `set_len` over the elements it initialized.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Whether the CPU supports the AVX2 kernels (cached detection).
pub fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Dispatch state: 0 = undecided, 1 = scalar, 2 = AVX2.
static STATE: AtomicU8 = AtomicU8::new(0);

fn decide() -> u8 {
    let on = available()
        && !matches!(std::env::var("T2FSNN_SIMD"), Ok(v) if v.trim() == "0" || v.trim().eq_ignore_ascii_case("off"));
    let state = if on { 2 } else { 1 };
    // Racing first calls decide identically (env + CPUID are stable).
    STATE.store(state, Ordering::Relaxed);
    state
}

/// Whether the AVX2 kernels are currently dispatched to. Decided on
/// first use from [`available`] and `T2FSNN_SIMD` (`0`/`off` disables),
/// overridable via [`set_enabled`].
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => decide() == 2,
        s => s == 2,
    }
}

/// Forces SIMD dispatch on or off, returning the previous state.
/// Enabling on hardware without AVX2 support is ignored (stays scalar).
/// Safe to flip at any time — both paths are bit-identical — so tests
/// can compare the two back to back in one process.
pub fn set_enabled(on: bool) -> bool {
    let prev = enabled();
    let state = if on && available() { 2 } else { 1 };
    STATE.store(state, Ordering::Relaxed);
    prev
}

// ---------------------------------------------------------------------
// Plain-loop kernels: the one source of every lane-parallel kernel,
// compiled for AVX2 inside `vectorized` or as baseline code.
// ---------------------------------------------------------------------

/// Runs `f` once in the dispatched code-generation context: compiled
/// for AVX2 when [`enabled`], as plain baseline code otherwise. Mark the
/// closure `#[inline(always)]` (and the helpers it calls) so its body is
/// generated inside the context; plain safe loops there autovectorize
/// to the context's width. Call it once per kernel call over a whole
/// batch, never once per row or event: a dispatch is an un-inlinable
/// call, and per-row or per-event work (8–128 floats) is too small to
/// pay one each.
///
/// Only code that is bit-identical whatever the vector width may run
/// here — lane-independent loops with separate multiply and add
/// roundings (Rust never contracts to FMA, and the AVX2 context does
/// not enable FMA). Both arms then produce the same bits.
#[inline]
pub(crate) fn vectorized<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        return unsafe { avx2::run(f) };
    }
    f()
}

/// `out[i] += v · w[i]` over the first `N` floats — one conv kernel
/// tap's `O` output channels, or a whole `3·O` kernel row. The tap is
/// summed in a local array between one load and one store of `out`, so
/// the compiler needs no aliasing proof to vectorize it.
#[inline(always)]
pub(crate) fn axpy_fixed<const N: usize>(out: &mut [f32], v: f32, w: &[f32]) {
    let (out, w) = (&mut out[..N], &w[..N]);
    let mut acc = [0.0f32; N];
    acc.copy_from_slice(out);
    for i in 0..N {
        acc[i] += v * w[i];
    }
    out.copy_from_slice(&acc);
}

/// `out[i] += v · w[i]` over the common length: the one runtime-length
/// axpy, behind the conv scatter's runtime-width fallback, the linear
/// scatters, the GEMM remainders and the bias rows that are not 8, 16
/// or 32 floats wide. Eight floats at a time through
/// [`axpy_fixed`], so a short row (a layer's 10–128 outputs) still runs
/// whole vectors: a plain loop would be unrolled four vectors deep and
/// leave a row under 32 floats to its scalar remainder. Run it inside
/// the caller's [`vectorized`] context.
#[inline(always)]
pub(crate) fn axpy_row(out: &mut [f32], v: f32, w: &[f32]) {
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

/// Whole four-row GEMM block (the core of `matmul`): for each ascending
/// contraction index `p`, skip if all four `a[q][p]` are zero, else add
/// `a[q][p] · bd[p·n..(p+1)·n]` into output row `r[q]`. Run it inside
/// the caller's [`vectorized`] context.
///
/// A 4-row × 16-column tile of the output lives in four `[f32; 16]`
/// accumulators (eight ymm registers under AVX2) across the whole
/// contraction, so each output element is loaded and stored once
/// instead of once per `p`; an 8-column tile takes the next eight
/// columns. Per element the contributions still add in ascending `p`
/// order. The last `n % 8` columns stream each `B` row through
/// [`axpy_row`] in the same order.
#[inline(always)]
pub(crate) fn gemm_block4(mut r: [&mut [f32]; 4], a: [&[f32]; 4], bd: &[f32], n: usize) {
    let k = a[0].len().min(a[1].len()).min(a[2].len()).min(a[3].len());
    let a = [&a[0][..k], &a[1][..k], &a[2][..k], &a[3][..k]];
    let mut j = 0;
    while j + 16 <= n {
        gemm_tile::<16>(&mut r, a, bd, n, j);
        j += 16;
    }
    if j + 8 <= n {
        gemm_tile::<8>(&mut r, a, bd, n, j);
        j += 8;
    }
    if j < n {
        for p in 0..k {
            let v = [a[0][p], a[1][p], a[2][p], a[3][p]];
            if v == [0.0; 4] {
                continue;
            }
            let brow = &bd[p * n + j..(p + 1) * n];
            for q in 0..4 {
                axpy_row(&mut r[q][j..], v[q], brow);
            }
        }
    }
}

/// Columns `j..j + W` of [`gemm_block4`], accumulated in registers over
/// the whole contraction.
#[inline(always)]
fn gemm_tile<const W: usize>(
    r: &mut [&mut [f32]; 4],
    a: [&[f32]; 4],
    bd: &[f32],
    n: usize,
    j: usize,
) {
    let mut c = [[0.0f32; W]; 4];
    for q in 0..4 {
        c[q].copy_from_slice(&r[q][j..j + W]);
    }
    for p in 0..a[0].len() {
        let v = [a[0][p], a[1][p], a[2][p], a[3][p]];
        if v == [0.0; 4] {
            continue;
        }
        let b = &bd[p * n + j..p * n + j + W];
        for q in 0..4 {
            for l in 0..W {
                c[q][l] += v[q] * b[l];
            }
        }
    }
    for q in 0..4 {
        r[q][j..j + W].copy_from_slice(&c[q]);
    }
}

/// Whole four-deep `Aᵀ·B` block (the core of `matmul_at_b`): one sweep
/// of the `n`-wide output rows per four contraction rows,
/// `out[i·n..] += Σ_q a[q][i] · b[q]` with the four products summed
/// first, left to right, and the all-zero skip. Run it inside the
/// caller's [`vectorized`] context.
#[inline(always)]
pub(crate) fn at_b_block4(out: &mut [f32], n: usize, a: [&[f32]; 4], b: [&[f32]; 4]) {
    let m = a[0].len().min(a[1].len()).min(a[2].len()).min(a[3].len());
    let (b0, b1, b2, b3) = (&b[0][..n], &b[1][..n], &b[2][..n], &b[3][..n]);
    for i in 0..m.min(out.len() / n) {
        let v = [a[0][i], a[1][i], a[2][i], a[3][i]];
        if v == [0.0; 4] {
            continue;
        }
        let orow = &mut out[i * n..(i + 1) * n];
        for j in 0..n {
            orow[j] += v[0] * b0[j] + v[1] * b1[j] + v[2] * b2[j] + v[3] * b3[j];
        }
    }
}

/// `out[i] += src[i] * scale` — bias injection and tensor axpy.
pub fn add_scaled(out: &mut [f32], src: &[f32], scale: f32) {
    vectorized(
        #[inline(always)]
        || {
            let n = out.len().min(src.len());
            let (out, src) = (&mut out[..n], &src[..n]);
            for i in 0..n {
                out[i] += src[i] * scale;
            }
        },
    )
}

/// Broadcast row axpy: `out[r·len + i] += scale · src[i]` for every
/// complete `len = src.len()` row of `out` — bias injection over a
/// whole position-major tensor in one context. Rows of 8, 16 and 32
/// floats (every conv width of the bundled architectures) run as one
/// fixed-width axpy each, the other widths through the runtime-length
/// axpy that steps eight lanes at a time. A plain runtime-length row
/// loop measured about 3× slower than the fixed width on 8–32-float
/// rows, and 3–4× slower than the eight-lane axpy on 64–128-float rows
/// (one process, min of 10–15 interleaved rounds, 2-vCPU AVX2 VM).
pub fn add_scaled_rows(out: &mut [f32], src: &[f32], scale: f32) {
    vectorized(
        #[inline(always)]
        || match src.len() {
            0 => {}
            8 => add_scaled_rows_fixed::<8>(out, src, scale),
            16 => add_scaled_rows_fixed::<16>(out, src, scale),
            32 => add_scaled_rows_fixed::<32>(out, src, scale),
            len => {
                for r in 0..out.len() / len {
                    axpy_row(&mut out[r * len..(r + 1) * len], scale, src);
                }
            }
        },
    )
}

/// [`add_scaled_rows`] at a fixed row width `N`.
#[inline(always)]
fn add_scaled_rows_fixed<const N: usize>(out: &mut [f32], src: &[f32], scale: f32) {
    for r in 0..out.len() / N {
        axpy_fixed::<N>(&mut out[r * N..], scale, src);
    }
}

/// `out[i] = (src[i] - mean) * inv_std` — batch-norm standardization.
pub fn normalize(out: &mut [f32], src: &[f32], mean: f32, inv_std: f32) {
    vectorized(
        #[inline(always)]
        || {
            let n = out.len().min(src.len());
            let (out, src) = (&mut out[..n], &src[..n]);
            for i in 0..n {
                out[i] = (src[i] - mean) * inv_std;
            }
        },
    )
}

/// `out[i] = scale * src[i] + shift` — batch-norm γ/β application.
pub fn affine(out: &mut [f32], src: &[f32], scale: f32, shift: f32) {
    vectorized(
        #[inline(always)]
        || {
            let n = out.len().min(src.len());
            let (out, src) = (&mut out[..n], &src[..n]);
            for i in 0..n {
                out[i] = scale * src[i] + shift;
            }
        },
    )
}

/// `out[i] = scale * ((src[i] - mean) * inv_std) + shift` — the fused
/// eval-mode batch-norm map.
pub fn normalize_affine(
    out: &mut [f32],
    src: &[f32],
    mean: f32,
    inv_std: f32,
    scale: f32,
    shift: f32,
) {
    vectorized(
        #[inline(always)]
        || {
            let n = out.len().min(src.len());
            let (out, src) = (&mut out[..n], &src[..n]);
            for i in 0..n {
                out[i] = scale * ((src[i] - mean) * inv_std) + shift;
            }
        },
    )
}

/// `out[i] = scale * (gout[i] - m_dy - xhat[i] * m_dy_xh)` — the
/// batch-norm input gradient.
pub fn bn_input_grad(
    out: &mut [f32],
    gout: &[f32],
    xhat: &[f32],
    scale: f32,
    m_dy: f32,
    m_dy_xh: f32,
) {
    vectorized(
        #[inline(always)]
        || {
            let n = out.len().min(gout.len()).min(xhat.len());
            let (out, gout, xhat) = (&mut out[..n], &gout[..n], &xhat[..n]);
            for i in 0..n {
                out[i] = scale * (gout[i] - m_dy - xhat[i] * m_dy_xh);
            }
        },
    )
}

// ---------------------------------------------------------------------
// Hand-written kernels: scalar twins (the reference semantics) and
// their AVX2 copies, for the mask scans and the reductions only.
// ---------------------------------------------------------------------

fn dot_scalar(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = x.len().min(y.len()) / 8;
    for c in 0..chunks {
        let xs = &x[c * 8..c * 8 + 8];
        let ys = &y[c * 8..c * 8 + 8];
        for l in 0..8 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (xv, yv) in x[chunks * 8..].iter().zip(&y[chunks * 8..]) {
        tail += xv * yv;
    }
    acc.iter().sum::<f32>() + tail
}

fn dot2_scalar(x: &[f32], y0: &[f32], y1: &[f32]) -> (f32, f32) {
    let mut acc0 = [0.0f32; 8];
    let mut acc1 = [0.0f32; 8];
    let chunks = x.len().min(y0.len()).min(y1.len()) / 8;
    for c in 0..chunks {
        let xs = &x[c * 8..c * 8 + 8];
        let y0s = &y0[c * 8..c * 8 + 8];
        let y1s = &y1[c * 8..c * 8 + 8];
        for l in 0..8 {
            acc0[l] += xs[l] * y0s[l];
            acc1[l] += xs[l] * y1s[l];
        }
    }
    let mut t0 = 0.0f32;
    let mut t1 = 0.0f32;
    for ((xv, y0v), y1v) in x[chunks * 8..]
        .iter()
        .zip(&y0[chunks * 8..])
        .zip(&y1[chunks * 8..])
    {
        t0 += xv * y0v;
        t1 += xv * y1v;
    }
    (acc0.iter().sum::<f32>() + t0, acc1.iter().sum::<f32>() + t1)
}

fn collect_ge_scalar(data: &[f32], threshold: f32, hits: &mut Vec<u32>) {
    for (j, &v) in data.iter().enumerate() {
        if v >= threshold {
            hits.push(j as u32);
        }
    }
}

fn fire_subtract_scalar(data: &mut [f32], threshold: f32, hits: &mut Vec<u32>) {
    for (j, u) in data.iter_mut().enumerate() {
        if *u >= threshold {
            *u -= threshold;
            hits.push(j as u32);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Runs `f` with AVX2 code generation enabled: an `#[inline(always)]`
    /// closure (and every `#[inline(always)]` function it calls) is
    /// inlined here and compiled for AVX2, so a whole kernel loop runs
    /// in one context instead of paying a dispatch per call.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn run<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Sums the eight lanes of `acc` in lane order (the scalar twins'
    /// `acc.iter().sum()` fold), *not* via `hadd` — order matters for
    /// bit-identity.
    #[target_feature(enable = "avx2")]
    unsafe fn lane_sum(acc: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        lanes.iter().sum()
    }

    /// Eight-lane dot product with the scalar twin's lane layout.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len().min(y.len());
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let xs = _mm256_loadu_ps(x.as_ptr().add(c * 8));
            let ys = _mm256_loadu_ps(y.as_ptr().add(c * 8));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(xs, ys));
        }
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += x[i] * y[i];
        }
        lane_sum(acc) + tail
    }

    /// Two dot products sharing the `x` operand.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot2(x: &[f32], y0: &[f32], y1: &[f32]) -> (f32, f32) {
        let n = x.len().min(y0.len()).min(y1.len());
        let chunks = n / 8;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for c in 0..chunks {
            let xs = _mm256_loadu_ps(x.as_ptr().add(c * 8));
            acc0 = _mm256_add_ps(
                acc0,
                _mm256_mul_ps(xs, _mm256_loadu_ps(y0.as_ptr().add(c * 8))),
            );
            acc1 = _mm256_add_ps(
                acc1,
                _mm256_mul_ps(xs, _mm256_loadu_ps(y1.as_ptr().add(c * 8))),
            );
        }
        let mut t0 = 0.0f32;
        let mut t1 = 0.0f32;
        for i in chunks * 8..n {
            t0 += x[i] * y0[i];
            t1 += x[i] * y1[i];
        }
        (lane_sum(acc0) + t0, lane_sum(acc1) + t1)
    }

    /// Appends every index with `data[j] >= threshold` in ascending
    /// order (NaN compares false, exactly like the scalar `>=`).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn collect_ge(data: &[f32], threshold: f32, hits: &mut Vec<u32>) {
        let n = data.len();
        let tv = _mm256_set1_ps(threshold);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(data.as_ptr().add(i));
            // Ordered greater-equal: NaN lanes produce 0, like scalar `>=`.
            let mut mask = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, tv)) as u32;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                hits.push((i as u32) + lane);
                mask &= mask - 1;
            }
            i += 8;
        }
        while i < n {
            if data[i] >= threshold {
                hits.push(i as u32);
            }
            i += 1;
        }
    }

    /// Left-pack table: byte `k` of entry `m` is the lane of the `k`-th
    /// set bit of the 8-bit mask `m` (unused bytes are 0).
    const PACK_LANES: [u64; 256] = {
        let mut table = [0u64; 256];
        let mut m = 0;
        while m < 256 {
            let (mut packed, mut k, mut lane) = (0u64, 0, 0);
            while lane < 8 {
                if m & (1 << lane) != 0 {
                    packed |= (lane as u64) << (8 * k);
                    k += 1;
                }
                lane += 1;
            }
            table[m] = packed;
            m += 1;
        }
        table
    };

    /// Subtract-reset fire in one pass: every lane with
    /// `data[j] >= threshold` becomes `data[j] - threshold` and its index
    /// is appended to `hits`, ascending (NaN compares false, exactly like
    /// the scalar `>=`). Per block of eight: compare, blend the reduced
    /// value into the hit lanes, and left-pack the hit lane indices
    /// through [`PACK_LANES`] — no branch on the hit pattern.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fire_subtract(data: &mut [f32], threshold: f32, hits: &mut Vec<u32>) {
        let n = data.len();
        let tv = _mm256_set1_ps(threshold);
        let mut i = 0;
        while i + 8 <= n {
            // Room for a full block of eight indices past `len`.
            hits.reserve(8);
            let p = data.as_mut_ptr().add(i);
            let v = _mm256_loadu_ps(p);
            // Ordered greater-equal: NaN lanes produce 0, like scalar `>=`.
            let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(v, tv);
            _mm256_storeu_ps(p, _mm256_blendv_ps(v, _mm256_sub_ps(v, tv), ge));
            let mask = _mm256_movemask_ps(ge) as usize;
            let lanes = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(PACK_LANES[mask] as i64));
            let len = hits.len();
            // In bounds: `reserve(8)` above leaves capacity for the eight
            // lanes stored at `len..len + 8`.
            _mm256_storeu_si256(
                hits.as_mut_ptr().add(len) as *mut __m256i,
                _mm256_add_epi32(lanes, _mm256_set1_epi32(i as i32)),
            );
            // The first `popcount ≤ 8` lanes just stored are the hits, so
            // every element below the new length is initialized; the
            // rest stays spare capacity.
            hits.set_len(len + mask.count_ones() as usize);
            i += 8;
        }
        while i < n {
            if data[i] >= threshold {
                data[i] -= threshold;
                hits.push(i as u32);
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Dispatching entry points of the hand-written kernels.
// ---------------------------------------------------------------------

/// Eight-lane dot product: eight fixed lane accumulators (lane `l` sums
/// `x[8c+l]·y[8c+l]`), a scalar tail, and a lane-order horizontal sum.
///
/// Hand-written: the same loop in a `vectorized` context measured
/// 1.2–1.6× slower (64 dots of 128–4608 floats, min of ten interleaved
/// rounds in one process on a 2-vCPU AVX2 VM), because the compiler
/// does not keep the eight lane accumulators in one register.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        return unsafe { avx2::dot(x, y) };
    }
    dot_scalar(x, y)
}

/// Two [`dot`]s sharing the `x` operand (`x` is read once per column
/// pair) — the `A·Bᵀ` kernel's inner loop. Truncates to the shortest
/// operand, like every primitive here.
///
/// Hand-written: the same loop in a `vectorized` context measured
/// 3.5–4.4× slower (32 column pairs of 128–4608 floats, measured as
/// for [`dot`]), because LLVM's SLP vectorizer pairs lanes across the
/// two accumulators instead of keeping each in its own register.
#[inline]
pub fn dot2(x: &[f32], y0: &[f32], y1: &[f32]) -> (f32, f32) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime; the
        // kernel clamps to the shortest operand's length.
        return unsafe { avx2::dot2(x, y0, y1) };
    }
    dot2_scalar(x, y0, y1)
}

/// Appends to `hits` the indices `j` with `data[j] >= threshold`, in
/// ascending order (the fire-phase threshold scan: most blocks of eight
/// are entirely sub-threshold and are skipped with one compare+mask).
/// `hits` is *not* cleared — callers reuse it across images.
///
/// Hand-written: a plain loop cannot turn the compare into a movemask.
/// A blocked plain loop (one any-hit test per block of eight) in a
/// `vectorized` context measured 1.3× slower at 2 % hits and 1.7–1.9×
/// at 20 % (a 16 Ki-float scan, measured as for [`dot`]).
#[inline]
pub fn collect_ge(data: &[f32], threshold: f32, hits: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::collect_ge(data, threshold, hits) };
        return;
    }
    collect_ge_scalar(data, threshold, hits);
}

/// Subtract-reset fire phase in one pass: every `data[j] >= threshold`
/// is reduced by `threshold` and `j` is appended to `hits`, in ascending
/// order. `hits` is *not* cleared. Unlike [`collect_ge`] it does the same
/// work on every block of eight whatever the hit pattern, which pays off
/// at the hit rates of rate/phase coding but not on a near-silent scan.
///
/// Hand-written: the branch-free left-pack of the hit lanes has no
/// plain-loop form; the plain loop in a `vectorized` context measured
/// 2.2–2.9× slower at 2–20 % hits (a 16 Ki-float scan, measured as for
/// [`dot`]).
#[inline]
pub fn fire_subtract(data: &mut [f32], threshold: f32, hits: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::fire_subtract(data, threshold, hits) };
        return;
    }
    fire_subtract_scalar(data, threshold, hits);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes every test that toggles or asserts the process-global
    /// dispatch state — the parallel test harness would otherwise
    /// interleave `set_enabled` calls between a sibling's toggle and its
    /// assertion (only the state-*asserting* test can actually fail —
    /// the kernel-comparison tests pass in either mode — but the race
    /// is real either way).
    static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `f` once with SIMD forced on (a no-op without AVX2) and once
    /// forced off, restoring the previous state. Holds [`MODE_LOCK`].
    fn with_both_modes(mut f: impl FnMut(bool)) {
        let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = enabled();
        set_enabled(true);
        f(available());
        set_enabled(false);
        f(false);
        set_enabled(prev);
    }

    fn pattern(n: usize, seed: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 7 + seed * 13) % 23) as f32 * 0.11 - 1.2)
            .collect()
    }

    /// The one-element reference `out[i] = f(out[i], src[i])`, written
    /// as an iterator loop that shares no code with the kernels.
    fn reference(out: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32) {
        for (o, &s) in out.iter_mut().zip(src) {
            *o = f(*o, s);
        }
    }

    #[test]
    fn axpy_matches_scalar_on_odd_lengths() {
        // The runtime-length axpy in its dispatched context, on rows
        // shorter than, equal to and longer than the eight-lane block,
        // and a `w` longer than `out` (truncates to the common length).
        for n in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let b = pattern(n + 3, 1);
            let mut want = pattern(n, 2);
            reference(&mut want, &b, |o, w| o + 0.7 * w);
            with_both_modes(|_| {
                let mut got = pattern(n, 2);
                vectorized(|| axpy_row(&mut got, 0.7, &b));
                assert_eq!(got, want, "n={n}");
            });
        }
    }

    #[test]
    fn gemm_block_cores_match_reference() {
        // The blocked GEMM cores against per-element loops in ascending
        // contraction order: `gemm_block4` on widths that reach its
        // 16- and 8-column tiles and the streamed remainder in every
        // combination, `at_b_block4` on the same widths. Zero entries
        // of `a` cover the all-zero skip (p = 1 skips in every row;
        // p = 2 in one row only).
        let k = 5;
        for n in [1usize, 5, 8, 13, 16, 17, 24, 33, 40, 45] {
            let mut a: Vec<Vec<f32>> = (0..4).map(|s| pattern(k, s + 3)).collect();
            for (q, row) in a.iter_mut().enumerate() {
                row[1] = 0.0;
                if q == 2 {
                    row[2] = 0.0;
                }
            }
            let bd = pattern(k * n, 7);
            let mut want: Vec<Vec<f32>> = (0..4).map(|s| pattern(n, s + 9)).collect();
            for (q, row) in want.iter_mut().enumerate() {
                for p in 0..k {
                    if (0..4).any(|r| a[r][p] != 0.0) {
                        let v = a[q][p];
                        reference(row, &bd[p * n..(p + 1) * n], |o, w| o + v * w);
                    }
                }
            }
            with_both_modes(|_| {
                let mut got: Vec<Vec<f32>> = (0..4).map(|s| pattern(n, s + 9)).collect();
                let [g0, g1, g2, g3] = &mut got[..] else {
                    unreachable!("four rows")
                };
                let rows = [&mut g0[..], &mut g1[..], &mut g2[..], &mut g3[..]];
                let cols = [&a[0][..], &a[1][..], &a[2][..], &a[3][..]];
                vectorized(|| gemm_block4(rows, cols, &bd, n));
                assert_eq!(got, want, "gemm_block4 n={n}");
            });

            let m = k;
            let bs: Vec<Vec<f32>> = (0..4).map(|s| pattern(n, s + 11)).collect();
            let mut want_q = pattern(m * n, 20);
            for i in 0..m {
                let v = [a[0][i], a[1][i], a[2][i], a[3][i]];
                if v == [0.0; 4] {
                    continue;
                }
                for (j, o) in want_q[i * n..(i + 1) * n].iter_mut().enumerate() {
                    *o += v[0] * bs[0][j] + v[1] * bs[1][j] + v[2] * bs[2][j] + v[3] * bs[3][j];
                }
            }
            with_both_modes(|_| {
                let mut got_q = pattern(m * n, 20);
                let cols = [&a[0][..], &a[1][..], &a[2][..], &a[3][..]];
                let b = [&bs[0][..], &bs[1][..], &bs[2][..], &bs[3][..]];
                vectorized(|| at_b_block4(&mut got_q, n, cols, b));
                assert_eq!(got_q, want_q, "at_b_block4 n={n}");
            });
        }
    }

    #[test]
    fn dot_family_matches_scalar_bitwise() {
        for n in [0usize, 3, 8, 15, 16, 33, 100] {
            let x = pattern(n, 1);
            let y0 = pattern(n, 2);
            let y1 = pattern(n, 3);
            let want = dot_scalar(&x, &y0);
            let want2 = dot2_scalar(&x, &y0, &y1);
            with_both_modes(|_| {
                assert_eq!(dot(&x, &y0).to_bits(), want.to_bits(), "n={n}");
                let got2 = dot2(&x, &y0, &y1);
                assert_eq!(got2.0.to_bits(), want2.0.to_bits(), "n={n}");
                assert_eq!(got2.1.to_bits(), want2.1.to_bits(), "n={n}");
            });
        }
    }

    #[test]
    fn collect_ge_matches_scalar_and_handles_nan() {
        for n in [0usize, 5, 8, 9, 24, 61] {
            let mut data = pattern(n, 4);
            if n > 3 {
                data[3] = f32::NAN; // must never be collected
            }
            let mut want = Vec::new();
            collect_ge_scalar(&data, 0.1, &mut want);
            with_both_modes(|_| {
                let mut got = Vec::new();
                collect_ge(&data, 0.1, &mut got);
                assert_eq!(got, want, "n={n}");
            });
        }

        // The one-pass fire-and-reset against its scalar twin: lengths
        // across the eight-lane boundary and hit densities from silent
        // to saturated, with hits exactly at threshold and at +∞, and
        // NaN / −∞ / −0.0 among the misses. Compares the hit lists
        // (appended after a stale entry, which must survive) and the
        // updated data bitwise.
        let threshold = 0.5f32;
        let hit_values = [threshold, threshold + 1.25, f32::INFINITY];
        let miss_values = [threshold - 0.25, f32::NAN, f32::NEG_INFINITY, -0.0];
        for n in 0..=17usize {
            for density in [0usize, 5, 50, 100] {
                let data: Vec<f32> = (0..n)
                    .map(|i| {
                        if (i * 37 + n * 11) % 100 < density {
                            hit_values[i % hit_values.len()]
                        } else {
                            miss_values[i % miss_values.len()]
                        }
                    })
                    .collect();
                let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let mut want_data = data.clone();
                let mut want = vec![99];
                fire_subtract_scalar(&mut want_data, threshold, &mut want);
                let mut scan = vec![99];
                collect_ge_scalar(&data, threshold, &mut scan);
                assert_eq!(want, scan, "n={n} density={density}");
                with_both_modes(|_| {
                    let mut got_data = data.clone();
                    let mut got = vec![99];
                    fire_subtract(&mut got_data, threshold, &mut got);
                    assert_eq!(got, want, "n={n} density={density}");
                    assert_eq!(bits(&got_data), bits(&want_data), "n={n} density={density}");
                });
            }
        }
    }

    #[test]
    fn elementwise_maps_match_scalar() {
        for n in [1usize, 8, 13, 16, 32, 50] {
            let src = pattern(n, 5);
            let g = pattern(n, 6);
            let (mean, inv_std, scale, shift) = (0.2f32, 1.7, 0.9, -0.3);
            let mut w1 = vec![0.0; n];
            reference(&mut w1, &src, |_, v| (v - mean) * inv_std);
            let mut w2 = vec![0.0; n];
            reference(&mut w2, &src, |_, v| scale * v + shift);
            let mut w3 = vec![0.0; n];
            reference(&mut w3, &src, |_, v| scale * ((v - mean) * inv_std) + shift);
            let mut w4 = g.clone();
            for (o, &x) in w4.iter_mut().zip(&src) {
                *o = scale * (*o - 0.05 - x * 0.07);
            }
            let mut w5 = pattern(n, 7);
            reference(&mut w5, &src, |o, s| o + s * 0.4);
            with_both_modes(|_| {
                let mut o = vec![0.0; n];
                normalize(&mut o, &src, mean, inv_std);
                assert_eq!(o, w1);
                affine(&mut o, &src, scale, shift);
                assert_eq!(o, w2);
                normalize_affine(&mut o, &src, mean, inv_std, scale, shift);
                assert_eq!(o, w3);
                bn_input_grad(&mut o, &g, &src, scale, 0.05, 0.07);
                assert_eq!(o, w4);
                let mut acc = pattern(n, 7);
                add_scaled(&mut acc, &src, 0.4);
                assert_eq!(acc, w5);
                // Broadcast rows: three rows of `src` each get the same
                // per-row update as a single add_scaled, at the fixed
                // widths (8, 16, 32) and at runtime widths.
                let mut tiled = pattern(3 * n, 8);
                let mut want_tiled = tiled.clone();
                for row in want_tiled.chunks_exact_mut(n) {
                    reference(row, &src, |o, s| o + s * 0.4);
                }
                add_scaled_rows(&mut tiled, &src, 0.4);
                assert_eq!(tiled, want_tiled);
            });
        }
    }

    #[test]
    fn set_enabled_round_trips_and_respects_hardware() {
        let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert_eq!(enabled(), available());
        set_enabled(prev);
        assert_eq!(enabled(), prev);
    }
}
