//! Runtime-dispatched SIMD slice primitives (AVX2) with always-available
//! scalar twins.
//!
//! Every primitive here vectorizes across an **independent-output axis
//! only**: each vector lane owns exactly one output element, performs the
//! same scalar IEEE-754 operations in the same order the scalar twin
//! performs for that element, and lanes never share an accumulator (and
//! no FMA contraction is used — every multiply and add is a separate
//! rounding, exactly as in scalar code). Results are therefore
//! **bit-identical** between the AVX2 and scalar paths, which is what
//! lets the spiking engine's canonical-accumulation-order contract (see
//! [`crate::ops::sparse`]) survive vectorization: per output element the
//! contribution *sequence* is untouched, only how many elements advance
//! per instruction changes.
//!
//! Dispatch is decided once at runtime: AVX2 must be detected via
//! `is_x86_feature_detected!` **and** the `T2FSNN_SIMD` environment
//! variable must not be `0` (the escape hatch for measuring the scalar
//! fallback on modern hardware). [`set_enabled`] can override the
//! decision at any time — flipping it mid-run is safe precisely because
//! both paths produce the same bits. The horizontal reductions in
//! [`dot`]/[`dot2`] keep eight fixed lane accumulators summed in lane
//! order, matching the scalar twin's eight-wide accumulator array.
//!
//! Besides the hand-written kernels, `vectorized` runs a caller's
//! inlined closure inside one AVX2 `target_feature` context, so kernels
//! written as plain safe loops elsewhere in the crate (the conv event
//! scatter in [`crate::ops::sparse`]) compile for AVX2 with one dispatch
//! per call rather than per event.
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
// Scalar twins. These are the reference semantics: the AVX2 kernels
// below perform exactly these per-element operation sequences.
// ---------------------------------------------------------------------

fn axpy_scalar(out: &mut [f32], a: f32, b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

#[allow(clippy::too_many_arguments)] // hot four-row microkernel; a struct would obscure it
fn axpy4_scalar(
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
    v: [f32; 4],
    b: &[f32],
) {
    for (((o0, o1), (o2, o3)), &bv) in r0
        .iter_mut()
        .zip(r1.iter_mut())
        .zip(r2.iter_mut().zip(r3.iter_mut()))
        .zip(b)
    {
        *o0 += v[0] * bv;
        *o1 += v[1] * bv;
        *o2 += v[2] * bv;
        *o3 += v[3] * bv;
    }
}

fn quad_axpy_scalar(out: &mut [f32], v: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    for ((((o, &w0), &w1), &w2), &w3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
        *o += v[0] * w0 + v[1] * w1 + v[2] * w2 + v[3] * w3;
    }
}

#[allow(clippy::too_many_arguments)] // the whole-block GEMM core; a struct would obscure it
fn gemm_block4_scalar(
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    bd: &[f32],
    n: usize,
) {
    let k = a0.len().min(a1.len()).min(a2.len()).min(a3.len());
    for p in 0..k {
        let v = [a0[p], a1[p], a2[p], a3[p]];
        if v == [0.0; 4] {
            continue;
        }
        axpy4_scalar(r0, r1, r2, r3, v, &bd[p * n..(p + 1) * n]);
    }
}

#[allow(clippy::too_many_arguments)] // the whole-block Aᵀ·B core; a struct would obscure it
fn at_b_block4_scalar(
    out: &mut [f32],
    n: usize,
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let m = a0.len().min(a1.len()).min(a2.len()).min(a3.len());
    for (i, orow) in out.chunks_exact_mut(n).enumerate().take(m) {
        let v = [a0[i], a1[i], a2[i], a3[i]];
        if v == [0.0; 4] {
            continue;
        }
        quad_axpy_scalar(orow, v, b0, b1, b2, b3);
    }
}

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

fn add_scaled_scalar(out: &mut [f32], src: &[f32], scale: f32) {
    for (o, &s) in out.iter_mut().zip(src) {
        *o += s * scale;
    }
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

fn normalize_scalar(out: &mut [f32], src: &[f32], mean: f32, inv_std: f32) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = (v - mean) * inv_std;
    }
}

fn affine_scalar(out: &mut [f32], src: &[f32], scale: f32, shift: f32) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = scale * v + shift;
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the fused eval-mode loop 1:1
fn normalize_affine_scalar(
    out: &mut [f32],
    src: &[f32],
    mean: f32,
    inv_std: f32,
    scale: f32,
    shift: f32,
) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = scale * ((v - mean) * inv_std) + shift;
    }
}

fn bn_input_grad_scalar(
    out: &mut [f32],
    gout: &[f32],
    xhat: &[f32],
    scale: f32,
    m_dy: f32,
    m_dy_xh: f32,
) {
    for ((o, &g), &x) in out.iter_mut().zip(gout).zip(xhat) {
        *o = scale * (g - m_dy - x * m_dy_xh);
    }
}

// ---------------------------------------------------------------------
// AVX2 kernels. One lane = one output element; per lane the operation
// sequence is exactly the scalar twin's.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// `out[i] += a * b[i]`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
        let n = out.len().min(b.len());
        let av = _mm256_set1_ps(a);
        let mut i = 0;
        // Two ymm per iteration keeps more loads in flight. Lanes stay
        // independent — per-element arithmetic is unchanged.
        while i + 16 <= n {
            let oa = _mm256_loadu_ps(out.as_ptr().add(i));
            let ob = _mm256_loadu_ps(out.as_ptr().add(i + 8));
            let ba = _mm256_loadu_ps(b.as_ptr().add(i));
            let bb = _mm256_loadu_ps(b.as_ptr().add(i + 8));
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm256_add_ps(oa, _mm256_mul_ps(av, ba)),
            );
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i + 8),
                _mm256_add_ps(ob, _mm256_mul_ps(av, bb)),
            );
            i += 16;
        }
        while i + 8 <= n {
            let ov = _mm256_loadu_ps(out.as_ptr().add(i));
            let bv = _mm256_loadu_ps(b.as_ptr().add(i));
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm256_add_ps(ov, _mm256_mul_ps(av, bv)),
            );
            i += 8;
        }
        while i < n {
            out[i] += a * b[i];
            i += 1;
        }
    }

    /// Four-row axpy: `r{0..3}[i] += v{0..3} * b[i]`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn axpy4(
        r0: &mut [f32],
        r1: &mut [f32],
        r2: &mut [f32],
        r3: &mut [f32],
        v: [f32; 4],
        b: &[f32],
    ) {
        let n = r0
            .len()
            .min(r1.len())
            .min(r2.len())
            .min(r3.len())
            .min(b.len());
        let v0 = _mm256_set1_ps(v[0]);
        let v1 = _mm256_set1_ps(v[1]);
        let v2 = _mm256_set1_ps(v[2]);
        let v3 = _mm256_set1_ps(v[3]);
        let mut i = 0;
        // Two ymm per row per iteration (16 lanes): matches what the
        // autovectorizer unrolls to and keeps more loads in flight.
        // Lanes stay independent, so per-element arithmetic (and
        // therefore the result) is unchanged.
        while i + 16 <= n {
            let ba = _mm256_loadu_ps(b.as_ptr().add(i));
            let bb = _mm256_loadu_ps(b.as_ptr().add(i + 8));
            let o0a = _mm256_loadu_ps(r0.as_ptr().add(i));
            let o0b = _mm256_loadu_ps(r0.as_ptr().add(i + 8));
            _mm256_storeu_ps(
                r0.as_mut_ptr().add(i),
                _mm256_add_ps(o0a, _mm256_mul_ps(v0, ba)),
            );
            _mm256_storeu_ps(
                r0.as_mut_ptr().add(i + 8),
                _mm256_add_ps(o0b, _mm256_mul_ps(v0, bb)),
            );
            let o1a = _mm256_loadu_ps(r1.as_ptr().add(i));
            let o1b = _mm256_loadu_ps(r1.as_ptr().add(i + 8));
            _mm256_storeu_ps(
                r1.as_mut_ptr().add(i),
                _mm256_add_ps(o1a, _mm256_mul_ps(v1, ba)),
            );
            _mm256_storeu_ps(
                r1.as_mut_ptr().add(i + 8),
                _mm256_add_ps(o1b, _mm256_mul_ps(v1, bb)),
            );
            let o2a = _mm256_loadu_ps(r2.as_ptr().add(i));
            let o2b = _mm256_loadu_ps(r2.as_ptr().add(i + 8));
            _mm256_storeu_ps(
                r2.as_mut_ptr().add(i),
                _mm256_add_ps(o2a, _mm256_mul_ps(v2, ba)),
            );
            _mm256_storeu_ps(
                r2.as_mut_ptr().add(i + 8),
                _mm256_add_ps(o2b, _mm256_mul_ps(v2, bb)),
            );
            let o3a = _mm256_loadu_ps(r3.as_ptr().add(i));
            let o3b = _mm256_loadu_ps(r3.as_ptr().add(i + 8));
            _mm256_storeu_ps(
                r3.as_mut_ptr().add(i),
                _mm256_add_ps(o3a, _mm256_mul_ps(v3, ba)),
            );
            _mm256_storeu_ps(
                r3.as_mut_ptr().add(i + 8),
                _mm256_add_ps(o3b, _mm256_mul_ps(v3, bb)),
            );
            i += 16;
        }
        while i + 8 <= n {
            let bv = _mm256_loadu_ps(b.as_ptr().add(i));
            let o0 = _mm256_loadu_ps(r0.as_ptr().add(i));
            _mm256_storeu_ps(
                r0.as_mut_ptr().add(i),
                _mm256_add_ps(o0, _mm256_mul_ps(v0, bv)),
            );
            let o1 = _mm256_loadu_ps(r1.as_ptr().add(i));
            _mm256_storeu_ps(
                r1.as_mut_ptr().add(i),
                _mm256_add_ps(o1, _mm256_mul_ps(v1, bv)),
            );
            let o2 = _mm256_loadu_ps(r2.as_ptr().add(i));
            _mm256_storeu_ps(
                r2.as_mut_ptr().add(i),
                _mm256_add_ps(o2, _mm256_mul_ps(v2, bv)),
            );
            let o3 = _mm256_loadu_ps(r3.as_ptr().add(i));
            _mm256_storeu_ps(
                r3.as_mut_ptr().add(i),
                _mm256_add_ps(o3, _mm256_mul_ps(v3, bv)),
            );
            i += 8;
        }
        while i < n {
            let bv = b[i];
            r0[i] += v[0] * bv;
            r1[i] += v[1] * bv;
            r2[i] += v[2] * bv;
            r3[i] += v[3] * bv;
            i += 1;
        }
    }

    /// `out[i] += v0·b0[i] + v1·b1[i] + v2·b2[i] + v3·b3[i]`
    /// (left-associated adds, no FMA — matching the scalar twin).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quad_axpy(
        out: &mut [f32],
        v: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out
            .len()
            .min(b0.len())
            .min(b1.len())
            .min(b2.len())
            .min(b3.len());
        let v0 = _mm256_set1_ps(v[0]);
        let v1 = _mm256_set1_ps(v[1]);
        let v2 = _mm256_set1_ps(v[2]);
        let v3 = _mm256_set1_ps(v[3]);
        let mut i = 0;
        while i + 8 <= n {
            let mut t = _mm256_mul_ps(v0, _mm256_loadu_ps(b0.as_ptr().add(i)));
            t = _mm256_add_ps(t, _mm256_mul_ps(v1, _mm256_loadu_ps(b1.as_ptr().add(i))));
            t = _mm256_add_ps(t, _mm256_mul_ps(v2, _mm256_loadu_ps(b2.as_ptr().add(i))));
            t = _mm256_add_ps(t, _mm256_mul_ps(v3, _mm256_loadu_ps(b3.as_ptr().add(i))));
            let ov = _mm256_loadu_ps(out.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(ov, t));
            i += 8;
        }
        while i < n {
            out[i] += v[0] * b0[i] + v[1] * b1[i] + v[2] * b2[i] + v[3] * b3[i];
            i += 1;
        }
    }

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

    /// Whole four-row GEMM block: for every contraction index `p` in
    /// ascending order (with the all-zero skip), `r{0..3} += a{0..3}[p]
    /// · bd[p·n..]`. Hoisting the loop into one `target_feature` context
    /// lets the per-`p` [`axpy4`] inline (a per-`p` dispatch costs an
    /// atomic load and an un-inlinable call on the hottest loop).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_block4(
        r0: &mut [f32],
        r1: &mut [f32],
        r2: &mut [f32],
        r3: &mut [f32],
        a0: &[f32],
        a1: &[f32],
        a2: &[f32],
        a3: &[f32],
        bd: &[f32],
        n: usize,
    ) {
        // Defensive clamps so the raw-pointer tile loads below are
        // in-bounds for any caller-supplied slice lengths.
        let n = n.min(r0.len()).min(r1.len()).min(r2.len()).min(r3.len());
        let k = a0
            .len()
            .min(a1.len())
            .min(a2.len())
            .min(a3.len())
            .min(bd.len().checked_div(n).unwrap_or(0));
        // Register-tiled core: a 4-row × 16-column tile of the output
        // lives in eight ymm accumulators across the whole contraction,
        // so each output element is loaded and stored **once** instead
        // of once per `p`. Per element the contributions still add in
        // ascending `p` order (each accumulator lane owns one element),
        // so results are bit-identical to the streaming form.
        let mut j = 0;
        while j + 16 <= n {
            let mut c0a = _mm256_loadu_ps(r0.as_ptr().add(j));
            let mut c0b = _mm256_loadu_ps(r0.as_ptr().add(j + 8));
            let mut c1a = _mm256_loadu_ps(r1.as_ptr().add(j));
            let mut c1b = _mm256_loadu_ps(r1.as_ptr().add(j + 8));
            let mut c2a = _mm256_loadu_ps(r2.as_ptr().add(j));
            let mut c2b = _mm256_loadu_ps(r2.as_ptr().add(j + 8));
            let mut c3a = _mm256_loadu_ps(r3.as_ptr().add(j));
            let mut c3b = _mm256_loadu_ps(r3.as_ptr().add(j + 8));
            for p in 0..k {
                let v = [a0[p], a1[p], a2[p], a3[p]];
                if v == [0.0; 4] {
                    continue;
                }
                let ba = _mm256_loadu_ps(bd.as_ptr().add(p * n + j));
                let bb = _mm256_loadu_ps(bd.as_ptr().add(p * n + j + 8));
                let v0 = _mm256_set1_ps(v[0]);
                c0a = _mm256_add_ps(c0a, _mm256_mul_ps(v0, ba));
                c0b = _mm256_add_ps(c0b, _mm256_mul_ps(v0, bb));
                let v1 = _mm256_set1_ps(v[1]);
                c1a = _mm256_add_ps(c1a, _mm256_mul_ps(v1, ba));
                c1b = _mm256_add_ps(c1b, _mm256_mul_ps(v1, bb));
                let v2 = _mm256_set1_ps(v[2]);
                c2a = _mm256_add_ps(c2a, _mm256_mul_ps(v2, ba));
                c2b = _mm256_add_ps(c2b, _mm256_mul_ps(v2, bb));
                let v3 = _mm256_set1_ps(v[3]);
                c3a = _mm256_add_ps(c3a, _mm256_mul_ps(v3, ba));
                c3b = _mm256_add_ps(c3b, _mm256_mul_ps(v3, bb));
            }
            _mm256_storeu_ps(r0.as_mut_ptr().add(j), c0a);
            _mm256_storeu_ps(r0.as_mut_ptr().add(j + 8), c0b);
            _mm256_storeu_ps(r1.as_mut_ptr().add(j), c1a);
            _mm256_storeu_ps(r1.as_mut_ptr().add(j + 8), c1b);
            _mm256_storeu_ps(r2.as_mut_ptr().add(j), c2a);
            _mm256_storeu_ps(r2.as_mut_ptr().add(j + 8), c2b);
            _mm256_storeu_ps(r3.as_mut_ptr().add(j), c3a);
            _mm256_storeu_ps(r3.as_mut_ptr().add(j + 8), c3b);
            j += 16;
        }
        if j < n {
            // Column remainder: stream the tail of each B row with the
            // 8-lane/scalar axpy (same per-element order).
            for p in 0..k {
                let v = [a0[p], a1[p], a2[p], a3[p]];
                if v == [0.0; 4] {
                    continue;
                }
                let brow = &bd[p * n + j..(p + 1) * n];
                axpy4(
                    &mut r0[j..],
                    &mut r1[j..],
                    &mut r2[j..],
                    &mut r3[j..],
                    v,
                    brow,
                );
            }
        }
    }

    /// Whole four-deep `Aᵀ·B` block: one sweep of the output matrix per
    /// four contraction rows, `out[i·n..] += Σ a{j}[i] · b{j}` (with the
    /// all-zero skip), dispatched once per block.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn at_b_block4(
        out: &mut [f32],
        n: usize,
        a0: &[f32],
        a1: &[f32],
        a2: &[f32],
        a3: &[f32],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let m = a0.len().min(a1.len()).min(a2.len()).min(a3.len());
        for (i, orow) in out.chunks_exact_mut(n).enumerate().take(m) {
            let v = [a0[i], a1[i], a2[i], a3[i]];
            if v == [0.0; 4] {
                continue;
            }
            quad_axpy(orow, v, b0, b1, b2, b3);
        }
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

    /// `out[r·len + i] += src[i] * scale` for every complete row `r` —
    /// the broadcast bias injection, one dispatch per tensor.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_scaled_rows(out: &mut [f32], src: &[f32], scale: f32) {
        let len = src.len();
        if len == 0 {
            return;
        }
        for row in out.chunks_exact_mut(len) {
            add_scaled(row, src, scale);
        }
    }

    /// `out[i] += src[i] * scale`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn add_scaled(out: &mut [f32], src: &[f32], scale: f32) {
        let n = out.len().min(src.len());
        let sv = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let ov = _mm256_loadu_ps(out.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm256_add_ps(ov, _mm256_mul_ps(s, sv)),
            );
            i += 8;
        }
        while i < n {
            out[i] += src[i] * scale;
            i += 1;
        }
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

    /// `out[i] = (src[i] - mean) * inv_std`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn normalize(out: &mut [f32], src: &[f32], mean: f32, inv_std: f32) {
        let n = out.len().min(src.len());
        let mv = _mm256_set1_ps(mean);
        let iv = _mm256_set1_ps(inv_std);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm256_mul_ps(_mm256_sub_ps(v, mv), iv),
            );
            i += 8;
        }
        while i < n {
            out[i] = (src[i] - mean) * inv_std;
            i += 1;
        }
    }

    /// `out[i] = scale * src[i] + shift` (mul then add, no FMA).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn affine(out: &mut [f32], src: &[f32], scale: f32, shift: f32) {
        let n = out.len().min(src.len());
        let sv = _mm256_set1_ps(scale);
        let bv = _mm256_set1_ps(shift);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm256_add_ps(_mm256_mul_ps(sv, v), bv),
            );
            i += 8;
        }
        while i < n {
            out[i] = scale * src[i] + shift;
            i += 1;
        }
    }

    /// `out[i] = scale * ((src[i] - mean) * inv_std) + shift`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn normalize_affine(
        out: &mut [f32],
        src: &[f32],
        mean: f32,
        inv_std: f32,
        scale: f32,
        shift: f32,
    ) {
        let n = out.len().min(src.len());
        let mv = _mm256_set1_ps(mean);
        let iv = _mm256_set1_ps(inv_std);
        let sv = _mm256_set1_ps(scale);
        let bv = _mm256_set1_ps(shift);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            let xh = _mm256_mul_ps(_mm256_sub_ps(v, mv), iv);
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm256_add_ps(_mm256_mul_ps(sv, xh), bv),
            );
            i += 8;
        }
        while i < n {
            out[i] = scale * ((src[i] - mean) * inv_std) + shift;
            i += 1;
        }
    }

    /// `out[i] = scale * (gout[i] - m_dy - xhat[i] * m_dy_xh)`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bn_input_grad(
        out: &mut [f32],
        gout: &[f32],
        xhat: &[f32],
        scale: f32,
        m_dy: f32,
        m_dy_xh: f32,
    ) {
        let n = out.len().min(gout.len()).min(xhat.len());
        let sv = _mm256_set1_ps(scale);
        let mv = _mm256_set1_ps(m_dy);
        let mxv = _mm256_set1_ps(m_dy_xh);
        let mut i = 0;
        while i + 8 <= n {
            let g = _mm256_loadu_ps(gout.as_ptr().add(i));
            let x = _mm256_loadu_ps(xhat.as_ptr().add(i));
            // (g - m_dy) - x·m_dy_xh, then × scale — the scalar order.
            let inner = _mm256_sub_ps(_mm256_sub_ps(g, mv), _mm256_mul_ps(x, mxv));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(sv, inner));
            i += 8;
        }
        while i < n {
            out[i] = scale * (gout[i] - m_dy - xhat[i] * m_dy_xh);
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Dispatching entry points.
// ---------------------------------------------------------------------

/// `out[i] += a * b[i]` over `min(out.len(), b.len())` elements — the
/// contiguous axpy behind the linear scatter kernels and the GEMM
/// remainder rows. Rows shorter than 64 floats stay on the
/// (autovectorized) scalar twin: repeated accumulation into the same
/// row is store-forwarding-bound, and the un-inlinable AVX2 call costs
/// more than wide lanes recover (measured on `event_scatter`).
#[inline]
pub fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if out.len() >= 64 && enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::axpy(out, a, b) };
        return;
    }
    axpy_scalar(out, a, b);
}

/// Four-row axpy `r{0..3}[i] += v{0..3} * b[i]` — the blocked GEMM's
/// inner loop (`b` is streamed once per four output rows).
#[inline]
#[allow(clippy::too_many_arguments)] // hot four-row microkernel; a struct would obscure it
pub fn axpy4(
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
    v: [f32; 4],
    b: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::axpy4(r0, r1, r2, r3, v, b) };
        return;
    }
    axpy4_scalar(r0, r1, r2, r3, v, b);
}

/// `out[i] += v[0]·b0[i] + v[1]·b1[i] + v[2]·b2[i] + v[3]·b3[i]` — the
/// four-deep contraction block of `Aᵀ·B`.
#[inline]
pub fn quad_axpy(out: &mut [f32], v: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::quad_axpy(out, v, b0, b1, b2, b3) };
        return;
    }
    quad_axpy_scalar(out, v, b0, b1, b2, b3);
}

/// Runs `f` once in the dispatched code-generation context: compiled
/// for AVX2 when [`enabled`], as plain baseline code otherwise. Mark the
/// closure `#[inline(always)]` (and the helpers it calls) so its body is
/// generated inside the context; plain safe loops there autovectorize
/// to the context's width. This is how a kernel whose per-call work is
/// too small to amortize a dispatch (the conv event scatter: one event
/// is 8–32 floats per tap) pays one dispatch per batch instead.
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

/// Whole four-row GEMM block (the core of `matmul`): for each ascending
/// contraction index `p`, skip if all four `a{j}[p]` are zero, else
/// [`axpy4`] row `bd[p·n..(p+1)·n]` into the four output rows. One
/// dispatch per block keeps the hot loop inside a single AVX2 context.
#[inline]
#[allow(clippy::too_many_arguments)] // the whole-block GEMM core; a struct would obscure it
pub fn gemm_block4(
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    bd: &[f32],
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::gemm_block4(r0, r1, r2, r3, a0, a1, a2, a3, bd, n) };
        return;
    }
    gemm_block4_scalar(r0, r1, r2, r3, a0, a1, a2, a3, bd, n);
}

/// Whole four-deep `Aᵀ·B` block: one sweep of `out` per four
/// contraction rows, `out[i·n..] += Σ_j a{j}[i] · b{j}` with the
/// all-zero skip, dispatched once per block.
#[inline]
#[allow(clippy::too_many_arguments)] // the whole-block Aᵀ·B core; a struct would obscure it
pub fn at_b_block4(
    out: &mut [f32],
    n: usize,
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::at_b_block4(out, n, a0, a1, a2, a3, b0, b1, b2, b3) };
        return;
    }
    at_b_block4_scalar(out, n, a0, a1, a2, a3, b0, b1, b2, b3);
}

/// Eight-lane dot product: eight fixed lane accumulators (lane `l` sums
/// `x[8c+l]·y[8c+l]`), a scalar tail, and a lane-order horizontal sum.
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

/// `out[i] += src[i] * scale` — bias injection and tensor axpy.
#[inline]
pub fn add_scaled(out: &mut [f32], src: &[f32], scale: f32) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::add_scaled(out, src, scale) };
        return;
    }
    add_scaled_scalar(out, src, scale);
}

/// Broadcast row axpy: `out[r·len + i] += src[i] * scale` for every
/// complete `len = src.len()` row of `out` — bias injection over a
/// whole position-major tensor with a single dispatch.
pub fn add_scaled_rows(out: &mut [f32], src: &[f32], scale: f32) {
    if src.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::add_scaled_rows(out, src, scale) };
        return;
    }
    for row in out.chunks_exact_mut(src.len()) {
        add_scaled_scalar(row, src, scale);
    }
}

/// Appends to `hits` the indices `j` with `data[j] >= threshold`, in
/// ascending order (the fire-phase threshold scan: most blocks of eight
/// are entirely sub-threshold and are skipped with one compare+mask).
/// `hits` is *not* cleared — callers reuse it across images.
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

/// `out[i] = (src[i] - mean) * inv_std` — batch-norm standardization.
#[inline]
pub fn normalize(out: &mut [f32], src: &[f32], mean: f32, inv_std: f32) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::normalize(out, src, mean, inv_std) };
        return;
    }
    normalize_scalar(out, src, mean, inv_std);
}

/// `out[i] = scale * src[i] + shift` — batch-norm γ/β application.
#[inline]
pub fn affine(out: &mut [f32], src: &[f32], scale: f32, shift: f32) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::affine(out, src, scale, shift) };
        return;
    }
    affine_scalar(out, src, scale, shift);
}

/// `out[i] = scale * ((src[i] - mean) * inv_std) + shift` — the fused
/// eval-mode batch-norm map.
#[inline]
pub fn normalize_affine(
    out: &mut [f32],
    src: &[f32],
    mean: f32,
    inv_std: f32,
    scale: f32,
    shift: f32,
) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::normalize_affine(out, src, mean, inv_std, scale, shift) };
        return;
    }
    normalize_affine_scalar(out, src, mean, inv_std, scale, shift);
}

/// `out[i] = scale * (gout[i] - m_dy - xhat[i] * m_dy_xh)` — the
/// batch-norm input gradient.
#[inline]
pub fn bn_input_grad(
    out: &mut [f32],
    gout: &[f32],
    xhat: &[f32],
    scale: f32,
    m_dy: f32,
    m_dy_xh: f32,
) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { avx2::bn_input_grad(out, gout, xhat, scale, m_dy, m_dy_xh) };
        return;
    }
    bn_input_grad_scalar(out, gout, xhat, scale, m_dy, m_dy_xh);
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

    #[test]
    fn axpy_matches_scalar_on_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let b = pattern(n, 1);
            let mut want = pattern(n, 2);
            axpy_scalar(&mut want, 0.7, &b);
            with_both_modes(|_| {
                let mut got = pattern(n, 2);
                axpy(&mut got, 0.7, &b);
                assert_eq!(got, want, "n={n}");
            });
        }
    }

    #[test]
    fn axpy4_and_quad_axpy_match_scalar() {
        for n in [1usize, 5, 8, 17, 40] {
            let v = [0.3f32, -1.1, 0.0, 2.5];
            let bs: Vec<Vec<f32>> = (0..4).map(|s| pattern(n, s + 3)).collect();
            let mut w: Vec<Vec<f32>> = (0..4).map(|s| pattern(n, s + 9)).collect();
            let (w01, w23) = w.split_at_mut(2);
            let (wa, wb) = w01.split_at_mut(1);
            let (wc, wd) = w23.split_at_mut(1);
            axpy4_scalar(&mut wa[0], &mut wb[0], &mut wc[0], &mut wd[0], v, &bs[0]);
            with_both_modes(|_| {
                let mut g: Vec<Vec<f32>> = (0..4).map(|s| pattern(n, s + 9)).collect();
                let (g01, g23) = g.split_at_mut(2);
                let (ga, gb) = g01.split_at_mut(1);
                let (gc, gd) = g23.split_at_mut(1);
                axpy4(&mut ga[0], &mut gb[0], &mut gc[0], &mut gd[0], v, &bs[0]);
                assert_eq!(g[0], w[0]);
                assert_eq!(g[1], w[1]);
                assert_eq!(g[2], w[2]);
                assert_eq!(g[3], w[3]);
            });

            let mut want_q = pattern(n, 20);
            quad_axpy_scalar(&mut want_q, v, &bs[0], &bs[1], &bs[2], &bs[3]);
            with_both_modes(|_| {
                let mut got_q = pattern(n, 20);
                quad_axpy(&mut got_q, v, &bs[0], &bs[1], &bs[2], &bs[3]);
                assert_eq!(got_q, want_q, "n={n}");
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
        for n in [1usize, 8, 13, 50] {
            let src = pattern(n, 5);
            let g = pattern(n, 6);
            let (mean, inv_std, scale, shift) = (0.2f32, 1.7, 0.9, -0.3);
            let mut w1 = vec![0.0; n];
            normalize_scalar(&mut w1, &src, mean, inv_std);
            let mut w2 = vec![0.0; n];
            affine_scalar(&mut w2, &src, scale, shift);
            let mut w3 = vec![0.0; n];
            normalize_affine_scalar(&mut w3, &src, mean, inv_std, scale, shift);
            let mut w4 = vec![0.0; n];
            bn_input_grad_scalar(&mut w4, &g, &src, scale, 0.05, 0.07);
            let mut w5 = pattern(n, 7);
            add_scaled_scalar(&mut w5, &src, 0.4);
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
                // per-row update as a single add_scaled.
                let mut tiled = pattern(3 * n, 8);
                let mut want_tiled = tiled.clone();
                for row in want_tiled.chunks_exact_mut(n) {
                    add_scaled_scalar(row, &src, 0.4);
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
