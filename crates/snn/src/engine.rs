//! The execution engine: per-step dense vs event-driven dispatch over
//! **position-major** membrane state.
//!
//! Spiking workloads spend almost all their time pushing *mostly-zero*
//! signals through weighted ops. The engine exploits that with a simple
//! rule, applied independently at every weighted op of every time step:
//!
//! 1. scan the incoming signal into a [`SpikeBatch`] event list, **bailing
//!    out** as soon as more than `sparsity_threshold × numel` non-zeros
//!    are seen (so the scan never costs more than a bounded prefix);
//! 2. if the scan completed, scatter the event list straight into the
//!    target membrane potentials (work ∝ events); otherwise fall back to
//!    the dense zero-skipping twin, which walks the signal row-major
//!    instead of materializing the event list.
//!
//! All feature maps downstream of the first weighted op live in the
//! **position-major** `[N, H, W, C]` layout: membrane potentials, spike
//! flags and pooling gates alike. Fire phases therefore emit events with
//! a contiguous scan whose order — ascending `(y, x, c)` — is the
//! canonical accumulation order every kernel follows, and the conv
//! scatter's axpy rows land directly in the next layer's membrane tensor
//! with no intermediate accumulator to clear or flush.
//!
//! Weighted ops only accumulate. [`OpExecutor::accumulate_weighted`] and
//! its event-form twin integrate a signal straight into a target (a
//! caller that needs a fresh drive passes a zeroed one) and hand the
//! kernel a **synop ledger**, a `&mut [u64]` with one slot per image that
//! the kernel bills as it scatters; only the near-dense GEMM path bills
//! it from tap tables instead. [`OpExecutor::propagate`] carries the
//! pass-through ops (pooling, flatten), and
//! [`OpExecutor::accumulate_first_weighted`] is the one place a
//! channel-major image-domain signal turns position-major.
//!
//! Execution state splits in two. An [`OpPlan`] is compiled once per
//! network and input shape (and cached by
//! [`SnnNetwork::plan`](crate::SnnNetwork::plan)) and never changes:
//! the re-laid-out weights (linear: `[I, O]`, row-permuted to the
//! position-major feature order after a flatten; conv: `[C·KH·KW, O]`
//! reversed-KW plus a tap-major `[KH·KW·C, O]` GEMM operand) and every
//! op's per-image output dims. It is `Sync`, so one plan serves any
//! number of calls and pool chunks at once. An [`OpExecutor`] borrows a plan for one call and adds what a
//! call mutates: the engine's sparsity threshold and the event-list and
//! pooling scratch buffers.
//!
//! Dispatch can never change a result: every kernel of a pair performs
//! the same floating-point operations on each output element in the same
//! canonical order, so `SimOutcome`s are bit-identical between
//! [`SimEngine::Dense`] and any event threshold (the simulator's test
//! suite asserts this across engines, codings, and worker counts).

use serde::{Deserialize, Serialize};
use t2fsnn_tensor::ops::sparse::{self, PoolScratch};
use t2fsnn_tensor::ops::{avg_pool2d, avg_pool2d_pm, max_pool2d, max_pool2d_pm};
use t2fsnn_tensor::{trace, Result, SpikeBatch, Tensor, TensorError};

use crate::network::SnnOp;

/// Engine selection for clock-driven simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimEngine {
    /// Always use the dense zero-skipping kernels (the reference path).
    Dense,
    /// Use event-list propagation whenever a signal's density is at or
    /// below the threshold (fraction of non-zero entries in `0..=1`);
    /// fall back to dense above it. Results are bit-identical to
    /// [`SimEngine::Dense`] at every threshold.
    Event {
        /// Maximum signal density still propagated as events.
        sparsity_threshold: f32,
    },
}

impl SimEngine {
    /// The default event engine (threshold 0.25: spike tensors denser
    /// than one non-zero in four are propagated densely).
    pub fn event() -> Self {
        SimEngine::Event {
            sparsity_threshold: 0.25,
        }
    }

    /// The dense reference engine.
    pub fn dense() -> Self {
        SimEngine::Dense
    }

    fn threshold(&self) -> f32 {
        match self {
            SimEngine::Dense => 0.0,
            SimEngine::Event { sparsity_threshold } => sparsity_threshold.clamp(0.0, 1.0),
        }
    }
}

impl Default for SimEngine {
    /// [`SimEngine::event`].
    fn default() -> Self {
        SimEngine::event()
    }
}

/// Above this density an event-form convolution signal is densified and
/// propagated through position-major im2col + blocked GEMM straight into
/// the membrane: with the fill/flush gone the direct scatter stays ahead
/// of the vectorized GEMM until roughly every second entry is active
/// (measured on the workspace's scaled-VGG shapes; PR 2's accumulator
/// scatter lost to the GEMM already at ~1/3).
const GEMM_DENSITY: f32 = 0.5;

/// The per-image state dims of a feature shape in the simulator's native
/// layout: 3-D channel-major `[C, H, W]` shapes become position-major
/// `[H, W, C]`; everything else (dense-layer `[O]` vectors) is unchanged.
pub fn position_major_dims(dims: &[usize]) -> Vec<usize> {
    match dims {
        [c, h, w] => vec![*h, *w, *c],
        other => other.to_vec(),
    }
}

/// The compiled, immutable half of execution: one op sequence's
/// re-laid-out weights and per-image state dims over one input shape.
///
/// Build it once per network and input shape and share it
/// ([`SnnNetwork::plan`](crate::SnnNetwork::plan) does both); every
/// [`OpExecutor`] borrowing it propagates through the same weights. The
/// plan is only valid for the exact `ops` it was compiled from — a
/// caller that rewrites weights must compile a new one.
#[derive(Debug)]
pub struct OpPlan {
    /// `[I, O]` transposed weight for every [`SnnOp::Linear`] — rows
    /// permuted to the position-major feature order when the layer
    /// consumes flattened conv features — else `None`.
    weight_t: Vec<Option<Tensor>>,
    /// `[C·KH·KW, O]` reversed-KW filter for every [`SnnOp::Conv`]
    /// (consumed by the scatter kernels), else `None`.
    filter_t: Vec<Option<Tensor>>,
    /// `[KH·KW·C, O]` tap-major filter for every [`SnnOp::Conv`]
    /// (consumed by the GEMM fallback), else `None`.
    filter_r: Vec<Option<Tensor>>,
    /// Per-image output dims of every op in the layout the engine holds
    /// it: channel-major before the first weighted op, position-major
    /// from it on.
    dims: Vec<Vec<usize>>,
    /// Index of the first weighted op: everything before it runs in the
    /// channel-major image domain, everything after in position-major.
    first_weighted: usize,
}

impl OpPlan {
    /// Compiles a fixed op sequence over `[C, H, W]` inputs
    /// (`input_dims` excludes the batch axis).
    ///
    /// # Errors
    ///
    /// Returns an error if the op shapes do not chain over `input_dims`
    /// or the network has no weighted op.
    pub fn new(ops: &[SnnOp], input_dims: &[usize]) -> Result<Self> {
        let first_weighted =
            ops.iter()
                .position(SnnOp::is_weighted)
                .ok_or(TensorError::InvalidArgument {
                    op: "OpPlan::new",
                    message: "network has no weighted ops".to_string(),
                })?;
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(ops.len());
        let mut cur = input_dims.to_vec();
        for op in ops {
            cur = op.output_shape(&cur)?;
            shapes.push(cur.clone());
        }
        let mut weight_t: Vec<Option<Tensor>> = Vec::with_capacity(ops.len());
        let mut filter_t: Vec<Option<Tensor>> = Vec::with_capacity(ops.len());
        let mut filter_r: Vec<Option<Tensor>> = Vec::with_capacity(ops.len());
        // `[C, H, W]` dims recorded at a position-major flatten: the next
        // linear layer's weight rows are permuted to match the flattened
        // (y, x, c) feature order.
        let mut pm_flatten_src: Option<[usize; 3]> = None;
        let mut prev_dims = input_dims.to_vec();
        for (i, op) in ops.iter().enumerate() {
            match op {
                SnnOp::Conv { weight, .. } => {
                    filter_t.push(Some(sparse::transpose_filter(weight)?));
                    filter_r.push(Some(sparse::reorder_filter_taps(weight)?));
                    weight_t.push(None);
                }
                SnnOp::Linear { weight, .. } => {
                    let wt = match pm_flatten_src.take() {
                        Some([c, h, w]) => permuted_weight_t(weight, c, h * w)?,
                        None => weight.transpose()?,
                    };
                    weight_t.push(Some(wt));
                    filter_t.push(None);
                    filter_r.push(None);
                }
                SnnOp::Flatten => {
                    if i > first_weighted && prev_dims.len() == 3 {
                        pm_flatten_src = Some([prev_dims[0], prev_dims[1], prev_dims[2]]);
                    }
                    weight_t.push(None);
                    filter_t.push(None);
                    filter_r.push(None);
                }
                _ => {
                    weight_t.push(None);
                    filter_t.push(None);
                    filter_r.push(None);
                }
            }
            prev_dims = shapes[i].clone();
        }
        let dims = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i < first_weighted {
                    s.clone()
                } else {
                    position_major_dims(s)
                }
            })
            .collect();
        Ok(OpPlan {
            weight_t,
            filter_t,
            filter_r,
            dims,
            first_weighted,
        })
    }

    /// Index of the first weighted op (the boundary between the
    /// channel-major input domain and the position-major layer domain).
    pub fn first_weighted(&self) -> usize {
        self.first_weighted
    }

    /// Per-image output dims of op `i` in the layout the engine holds
    /// it: position-major from the first weighted op on (for a weighted
    /// op, the shape of its membrane state), channel-major before it.
    pub fn state_dims(&self, i: usize) -> &[usize] {
        &self.dims[i]
    }
}

/// The per-call half of execution: a borrowed [`OpPlan`] plus the
/// engine's sparsity threshold and reusable event-list and pooling
/// scratch buffers.
///
/// Create one per simulation call (or per pool chunk) and route every op
/// through it; all paths are bit-identical to each other (the
/// canonical-order invariant).
pub struct OpExecutor<'p> {
    plan: &'p OpPlan,
    threshold: f32,
    scratch: SpikeBatch,
    pool_out: SpikeBatch,
    pool_scratch: PoolScratch,
}

impl<'p> OpExecutor<'p> {
    /// An executor over `plan` dispatching by `engine`'s rule.
    pub fn new(plan: &'p OpPlan, engine: SimEngine) -> Self {
        OpExecutor {
            plan,
            threshold: engine.threshold(),
            scratch: SpikeBatch::empty(),
            pool_out: SpikeBatch::empty(),
            pool_scratch: PoolScratch::new(),
        }
    }

    /// Scans `signal` into the scratch event list; `true` when its
    /// density is at or below the engine threshold.
    fn try_events(&mut self, signal: &Tensor) -> Result<bool> {
        if self.threshold <= 0.0 {
            return Ok(false);
        }
        let cap = (self.threshold as f64 * signal.numel() as f64) as usize;
        self.scratch.refill_bounded(signal, cap)
    }

    /// Propagates `signal` through the pass-through op `ops[i]` (pooling
    /// or flatten). Signals before the first weighted op are channel-major
    /// (the image domain), everything downstream position-major. Max
    /// pooling is the stateless spatial max; the TTFS engine adds
    /// first-spike gating on top. Weighted ops only accumulate: integrate
    /// them with [`OpExecutor::accumulate_weighted`].
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or if `ops[i]` is a weighted op.
    pub fn propagate(&self, ops: &[SnnOp], i: usize, signal: &Tensor) -> Result<Tensor> {
        let image_domain = i < self.plan.first_weighted;
        match &ops[i] {
            SnnOp::Conv { .. } | SnnOp::Linear { .. } => Err(TensorError::InvalidArgument {
                op: "OpExecutor::propagate",
                message: format!("op {i} is a weighted op; accumulate it instead"),
            }),
            SnnOp::AvgPool { window, stride } if image_domain => {
                avg_pool2d(signal, *window, *stride)
            }
            SnnOp::MaxPool { window, stride } if image_domain => {
                Ok(max_pool2d(signal, *window, *stride)?.0)
            }
            SnnOp::AvgPool { window, stride } => avg_pool2d_pm(signal, *window, *stride),
            SnnOp::MaxPool { window, stride } => max_pool2d_pm(signal, *window, *stride),
            SnnOp::Flatten => {
                let n = signal.dims()[0];
                let rest: usize = signal.dims()[1..].iter().product();
                signal.reshape([n, rest])
            }
        }
    }

    /// [`OpExecutor::accumulate_weighted`] at the first weighted op, fed
    /// from the image domain: `signal` is the channel-major output of
    /// the pass-through ops before it. A conv's signal switches to
    /// position-major here, the one place the engine changes layout.
    ///
    /// # Errors
    ///
    /// As [`OpExecutor::accumulate_weighted`].
    pub fn accumulate_first_weighted(
        &mut self,
        ops: &[SnnOp],
        signal: &Tensor,
        bias_scale: f32,
        potential: &mut Tensor,
        synops: &mut [u64],
    ) -> Result<()> {
        let i = self.plan.first_weighted;
        if matches!(ops[i], SnnOp::Conv { .. }) {
            let pm_signal = signal.to_position_major()?;
            self.accumulate_weighted(ops, i, &pm_signal, bias_scale, potential, synops)
        } else {
            self.accumulate_weighted(ops, i, signal, bias_scale, potential, synops)
        }
    }

    /// Computes a weighted op's synaptic drive and integrates it — plus
    /// `bias · bias_scale` — **straight into `potential`**: the membrane
    /// tensor is the accumulator, so there is no intermediate drive
    /// tensor, no per-step clear, and no flush. The signal must be
    /// position-major (i.e. `ops[i]` is downstream of the first weighted
    /// op, or the caller went through
    /// [`OpExecutor::accumulate_first_weighted`]). The kernel adds each
    /// image's synop count to its slot of the `synops` ledger as it
    /// scatters.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch, if `ops[i]` is not a weighted
    /// op, or if `synops` does not hold one slot per image.
    pub fn accumulate_weighted(
        &mut self,
        ops: &[SnnOp],
        i: usize,
        signal: &Tensor,
        bias_scale: f32,
        potential: &mut Tensor,
        synops: &mut [u64],
    ) -> Result<()> {
        match &ops[i] {
            SnnOp::Conv { weight, spec, .. } => {
                let kernel = (weight.dims()[2], weight.dims()[3]);
                let use_events = self.try_events(signal)?;
                let filter_t = self.plan.filter_t[i]
                    .as_ref()
                    .expect("conv op has a transposed filter");
                if use_events {
                    let _s = trace::span("op/conv_scatter_events");
                    sparse::conv2d_scatter_events_pm_acc(
                        &self.scratch,
                        filter_t,
                        kernel,
                        *spec,
                        potential,
                        synops,
                    )?;
                } else {
                    let _s = trace::span("op/conv_dense_walk");
                    sparse::conv2d_scatter_pm_acc(
                        signal, filter_t, kernel, *spec, potential, synops,
                    )?;
                }
            }
            SnnOp::Linear { .. } => {
                let use_events = self.try_events(signal)?;
                let weight_t = self.plan.weight_t[i]
                    .as_ref()
                    .expect("linear op has a transposed weight");
                if use_events {
                    let _s = trace::span("op/linear_events");
                    sparse::linear_scatter_events_acc(&self.scratch, weight_t, potential, synops)?;
                } else {
                    let _s = trace::span("op/linear_dense");
                    sparse::linear_scatter_t_acc(signal, weight_t, potential, synops)?;
                }
            }
            _ => {
                return Err(TensorError::InvalidArgument {
                    op: "OpExecutor::accumulate_weighted",
                    message: format!("op {i} is not a weighted op"),
                })
            }
        }
        ops[i].inject_bias_pm(potential, bias_scale)
    }

    /// [`OpExecutor::accumulate_weighted`] for a signal already in event
    /// form (e.g. produced by [`crate::coding::Coding::fire_events`]):
    /// no scan, no dense intermediate. Very dense steps (phase/burst
    /// re-transmissions) take the position-major im2col GEMM, which
    /// accumulates into the membrane in the same canonical order as the
    /// scatter — same results either way — and bills the ledger through
    /// the tap-table counter, since it adds inactive taps too.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch, if `ops[i]` is not a weighted
    /// op, or if `synops` does not hold one slot per image.
    pub fn accumulate_weighted_events(
        &mut self,
        ops: &[SnnOp],
        i: usize,
        events: &SpikeBatch,
        bias_scale: f32,
        potential: &mut Tensor,
        synops: &mut [u64],
    ) -> Result<()> {
        match &ops[i] {
            SnnOp::Conv { weight, spec, .. } => {
                let kernel = (weight.dims()[2], weight.dims()[3]);
                if events.density() > GEMM_DENSITY {
                    let _s = trace::span("op/conv_gemm_pm");
                    let dense = events.to_dense();
                    let weight_r = self.plan.filter_r[i]
                        .as_ref()
                        .expect("conv op has a tap-major filter");
                    sparse::conv2d_synops_events_by_image(
                        events,
                        weight.dims()[0],
                        kernel,
                        *spec,
                        synops,
                    )?;
                    sparse::conv2d_gemm_pm_acc(&dense, weight_r, kernel, *spec, potential)?;
                } else {
                    let _s = trace::span("op/conv_scatter_events");
                    let filter_t = self.plan.filter_t[i]
                        .as_ref()
                        .expect("conv op has a transposed filter");
                    sparse::conv2d_scatter_events_pm_acc(
                        events, filter_t, kernel, *spec, potential, synops,
                    )?;
                }
            }
            SnnOp::Linear { .. } => {
                let _s = trace::span("op/linear_events");
                let weight_t = self.plan.weight_t[i]
                    .as_ref()
                    .expect("linear op has a transposed weight");
                sparse::linear_scatter_events_acc(events, weight_t, potential, synops)?;
            }
            _ => {
                return Err(TensorError::InvalidArgument {
                    op: "OpExecutor::accumulate_weighted_events",
                    message: format!("op {i} is not a weighted op"),
                })
            }
        }
        ops[i].inject_bias_pm(potential, bias_scale)
    }

    /// Average-pools an event stream in place (position-major `[H, W, C]`
    /// features), reusing internal buffers: the signal stays in event
    /// form between a fire phase and the next integrate.
    ///
    /// # Errors
    ///
    /// Returns an error on feature-shape mismatches.
    pub fn avg_pool_events(
        &mut self,
        events: &mut SpikeBatch,
        window: usize,
        stride: usize,
    ) -> Result<()> {
        let _s = trace::span("op/pool_events");
        sparse::avg_pool2d_events(
            events,
            window,
            stride,
            &mut self.pool_out,
            &mut self.pool_scratch,
        )?;
        std::mem::swap(events, &mut self.pool_out);
        Ok(())
    }

    /// Max-pools an event stream in place under the TTFS first-spike
    /// rule, latching `gate` (position-major pooled shape) — max-pool
    /// networks never densify between fire and integrate.
    ///
    /// # Errors
    ///
    /// Returns an error on feature/gate shape mismatches.
    pub fn max_pool_events(
        &mut self,
        events: &mut SpikeBatch,
        window: usize,
        stride: usize,
        gate: &mut Tensor,
    ) -> Result<()> {
        let _s = trace::span("op/pool_events");
        sparse::max_pool2d_events(
            events,
            window,
            stride,
            gate,
            &mut self.pool_out,
            &mut self.pool_scratch,
        )?;
        std::mem::swap(events, &mut self.pool_out);
        Ok(())
    }
}

/// Builds the `[I, O]` transposed weight of a linear layer with rows
/// permuted from the channel-major flatten order (`c·HW + p`) to the
/// position-major order (`p·C + c`) its flattened input arrives in.
fn permuted_weight_t(weight: &Tensor, c: usize, hw: usize) -> Result<Tensor> {
    let (o, i) = (weight.dims()[0], weight.dims()[1]);
    if c * hw != i {
        return Err(TensorError::InvalidArgument {
            op: "permuted_weight_t",
            message: format!("flatten of [{c}, {hw}] features does not match weight [{o}, {i}]"),
        });
    }
    let wd = weight.data();
    let mut out = vec![0.0f32; i * o];
    for p in 0..hw {
        for ci in 0..c {
            let row = p * c + ci;
            let src = ci * hw + p;
            for (oc, slot) in out[row * o..(row + 1) * o].iter_mut().enumerate() {
                *slot = wd[oc * i + src];
            }
        }
    }
    Tensor::from_vec([i, o], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2fsnn_tensor::ops::Conv2dSpec;

    fn ops() -> Vec<SnnOp> {
        vec![
            SnnOp::Conv {
                name: "c".into(),
                weight: Tensor::from_fn([2, 1, 3, 3], |i| {
                    ((i[0] * 9 + i[2] * 3 + i[3]) % 5) as f32 * 0.2 - 0.3
                }),
                bias: Tensor::zeros([2]),
                spec: Conv2dSpec::new(1, 1),
            },
            SnnOp::AvgPool {
                window: 2,
                stride: 2,
            },
            SnnOp::Flatten,
            SnnOp::Linear {
                name: "l".into(),
                weight: Tensor::from_fn([3, 8], |i| ((i[0] * 8 + i[1]) % 7) as f32 * 0.1),
                bias: Tensor::zeros([3]),
            },
        ]
    }

    fn sparse_signal() -> Tensor {
        let mut t = Tensor::zeros([2, 1, 4, 4]);
        t.set(&[0, 0, 1, 2], 1.0).unwrap();
        t.set(&[1, 0, 3, 3], 0.5).unwrap();
        t
    }

    /// Chains the full op list through a fresh executor, returning the
    /// final signal and the per-image synop ledger.
    fn run_chain(engine: SimEngine) -> (Tensor, Vec<u64>) {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        run_chain_from(&mut OpExecutor::new(&plan, engine), &ops, sparse_signal())
    }

    /// Weighted ops accumulate into a zeroed membrane (the first one from
    /// the channel-major image domain), pass-through ops propagate.
    fn run_chain_from(
        exec: &mut OpExecutor<'_>,
        ops: &[SnnOp],
        mut signal: Tensor,
    ) -> (Tensor, Vec<u64>) {
        let n = signal.dims()[0];
        let mut synops = vec![0; n];
        for i in 0..ops.len() {
            signal = if ops[i].is_weighted() {
                let mut dims = vec![n];
                dims.extend_from_slice(exec.plan.state_dims(i));
                let mut z = Tensor::zeros(dims);
                if i == exec.plan.first_weighted() {
                    exec.accumulate_first_weighted(ops, &signal, 0.0, &mut z, &mut synops)
                } else {
                    exec.accumulate_weighted(ops, i, &signal, 0.0, &mut z, &mut synops)
                }
                .unwrap();
                z
            } else {
                exec.propagate(ops, i, &signal).unwrap()
            };
        }
        (signal, synops)
    }

    #[test]
    fn engines_are_bit_identical_across_the_chain() {
        let (dense, s_dense) = run_chain(SimEngine::Dense);
        for engine in [
            SimEngine::event(),
            SimEngine::Event {
                sparsity_threshold: 1.0,
            },
        ] {
            let (event, s_event) = run_chain(engine);
            assert_eq!(dense, event, "{engine:?}");
            assert_eq!(s_dense, s_event, "{engine:?}");
        }
    }

    #[test]
    fn first_conv_matches_reference_modulo_layout() {
        // The executor's position-major output must carry the same bits
        // as a plain-loop channel-major reference, permuted: each output
        // adds its taps in ascending (ki, kj) order, the canonical (y, x)
        // order of its sources.
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::event());
        let signal = sparse_signal();
        let mut got = Tensor::zeros([2, 4, 4, 2]);
        let mut synops = vec![0; 2];
        exec.accumulate_first_weighted(&ops, &signal, 0.0, &mut got, &mut synops)
            .unwrap();
        let SnnOp::Conv { weight, .. } = &ops[0] else {
            unreachable!("op 0 is the conv")
        };
        let (sd, wd) = (signal.data(), weight.data());
        let want = Tensor::from_fn([2, 2, 4, 4], |i| {
            let mut acc = 0.0f32;
            for ki in 0..3 {
                for kj in 0..3 {
                    let (y, x) = ((i[2] + ki).wrapping_sub(1), (i[3] + kj).wrapping_sub(1));
                    if y < 4 && x < 4 && sd[(i[0] * 4 + y) * 4 + x] != 0.0 {
                        acc += sd[(i[0] * 4 + y) * 4 + x] * wd[(i[1] * 3 + ki) * 3 + kj];
                    }
                }
            }
            acc
        });
        assert_eq!(got.to_channel_major().unwrap(), want);
        // 9 taps × 2 channels for the interior spike, 4 × 2 for the corner.
        assert_eq!(synops, [18, 8]);
        // Weighted ops only accumulate.
        assert!(exec.propagate(&ops, 0, &signal).is_err());
        assert!(exec.propagate(&ops, 3, &Tensor::zeros([2, 8])).is_err());
    }

    #[test]
    fn accumulate_paths_agree_between_dense_and_event_signals() {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::event());
        // A sparse position-major signal entering the hidden linear op.
        let signal = linear_signal();
        let base = Tensor::from_fn([2, 3], |i| (i[0] + i[1]) as f32 * 0.1);
        let mut via_dense = base.clone();
        let mut s1 = vec![0; 2];
        exec.accumulate_weighted(&ops, 3, &signal, 0.5, &mut via_dense, &mut s1)
            .unwrap();
        let events = SpikeBatch::from_dense(&signal).unwrap();
        let mut via_events = base.clone();
        let mut s2 = vec![0; 2];
        exec.accumulate_weighted_events(&ops, 3, &events, 0.5, &mut via_events, &mut s2)
            .unwrap();
        assert_eq!(via_dense, via_events);
        assert_eq!(s1, s2);
        // Non-weighted ops are rejected.
        assert!(exec
            .accumulate_weighted(&ops, 1, &signal, 0.0, &mut via_dense, &mut s1)
            .is_err());
        assert!(exec
            .accumulate_weighted_events(&ops, 1, &events, 0.0, &mut via_events, &mut s2)
            .is_err());
    }

    #[test]
    fn dense_engine_never_builds_events() {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::dense());
        let mut potential = Tensor::zeros([2, 4, 4, 2]);
        let mut synops = vec![0; 2];
        exec.accumulate_first_weighted(&ops, &sparse_signal(), 0.0, &mut potential, &mut synops)
            .unwrap();
        assert!(synops.iter().all(|&s| s > 0));
        assert_eq!(exec.scratch.nnz(), 0, "dense engine skips the scan");
    }

    #[test]
    fn state_dims_are_position_major() {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        assert_eq!(plan.state_dims(0), &[4, 4, 2]); // conv output [H, W, C]
        assert_eq!(plan.state_dims(1), &[2, 2, 2]); // pooled, still [H, W, C]
        assert_eq!(plan.state_dims(3), &[3]); // linear output
        assert_eq!(plan.first_weighted(), 0);
        // One plan is shared across pool workers.
        fn shareable<T: Send + Sync>(_: &T) {}
        shareable(&plan);
        assert_eq!(position_major_dims(&[2, 4, 4]), vec![4, 4, 2]);
        assert_eq!(position_major_dims(&[7]), vec![7]);
    }

    #[test]
    fn permuted_linear_weights_match_flatten_order() {
        // Feed a sparse signal through conv, pool and flatten on both
        // layouts: the executor's permuted weight must produce the same
        // logits the channel-major dense ops produce.
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::dense());
        let signal = sparse_signal();
        let (SnnOp::Conv { weight, spec, .. }, SnnOp::Linear { weight: fc, .. }) =
            (&ops[0], &ops[3])
        else {
            unreachable!("ops are conv, pool, flatten, linear")
        };
        let conv = t2fsnn_tensor::ops::conv2d(&signal, weight, &Tensor::zeros([2]), *spec).unwrap();
        let pooled = avg_pool2d(&conv, 2, 2).unwrap().reshape([2, 8]).unwrap();
        let want = t2fsnn_tensor::ops::matmul_a_bt(&pooled, fc).unwrap();
        let (got, _) = run_chain_from(&mut exec, &ops, signal);
        assert!(got.all_close(&want, 1e-5));
    }

    /// A sparse `[2, 8]` signal into the linear op: two non-zeros in the
    /// first image, one in the second.
    fn linear_signal() -> Tensor {
        Tensor::from_vec(
            [2, 8],
            vec![
                0.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0,
            ],
        )
        .unwrap()
    }

    #[test]
    fn per_image_synops_sum_to_accumulate_charge() {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::event());
        // Oracle for the 3×3, stride-1, pad-1 conv on a 4×4 plane with 2
        // output channels: a non-zero at (y, x) reaches taps(y)·taps(x)
        // kernel taps, each charged once per output channel.
        let taps = |p: usize| {
            let valid = |k: &usize| (p + 1).checked_sub(*k).is_some_and(|o| o < 4);
            (0..3).filter(valid).count()
        };
        let oracle = |cm: &Tensor| -> Vec<u64> {
            cm.data()
                .chunks_exact(16)
                .map(|image| {
                    let nonzero = (0..16).filter(|&p| image[p] != 0.0);
                    nonzero
                        .map(|p| (taps(p / 4) * taps(p % 4) * 2) as u64)
                        .sum()
                })
                .collect()
        };
        // Event scatter and dense walk: each image's ledger slot is its
        // oracle count, on top of what the slot already held.
        let cm = sparse_signal();
        let pm = cm.to_position_major().unwrap();
        let events = SpikeBatch::from_dense(&pm).unwrap();
        let want = oracle(&cm);
        assert_eq!(want, [18, 8]);
        let mut via_events = Tensor::zeros([2, 4, 4, 2]);
        let mut ledger = vec![0; 2];
        exec.accumulate_weighted_events(&ops, 0, &events, 0.0, &mut via_events, &mut ledger)
            .unwrap();
        assert_eq!(ledger, want);
        let mut via_dense = Tensor::zeros([2, 4, 4, 2]);
        let mut dense_ledger = vec![100, 200];
        OpExecutor::new(&plan, SimEngine::dense())
            .accumulate_weighted(&ops, 0, &pm, 0.0, &mut via_dense, &mut dense_ledger)
            .unwrap();
        assert_eq!(dense_ledger, [100 + want[0], 200 + want[1]]);
        assert_eq!(via_dense, via_events);
        // The GEMM branch (an event list denser than one in two) between
        // two full images, with an empty image in the middle.
        let cm = Tensor::from_fn([3, 1, 4, 4], |i| if i[0] == 1 { 0.0 } else { 0.25 });
        let pm = cm.to_position_major().unwrap();
        let events = SpikeBatch::from_dense(&pm).unwrap();
        assert!(events.density() > GEMM_DENSITY);
        let mut via_gemm = Tensor::zeros([3, 4, 4, 2]);
        let mut gemm_ledger = vec![0; 3];
        exec.accumulate_weighted_events(&ops, 0, &events, 0.0, &mut via_gemm, &mut gemm_ledger)
            .unwrap();
        assert_eq!(gemm_ledger, oracle(&cm));
        assert_eq!(gemm_ledger, [200, 0, 200]);
        let mut via_walk = Tensor::zeros([3, 4, 4, 2]);
        let mut walk_ledger = vec![0; 3];
        OpExecutor::new(&plan, SimEngine::dense())
            .accumulate_weighted(&ops, 0, &pm, 0.0, &mut via_walk, &mut walk_ledger)
            .unwrap();
        assert_eq!(via_gemm, via_walk);
        assert_eq!(walk_ledger, gemm_ledger);
        // Linear op: nnz × O per image, dense or events.
        let signal = linear_signal();
        let lin_events = SpikeBatch::from_dense(&signal).unwrap();
        let mut lin = vec![0u64; 2];
        exec.accumulate_weighted_events(
            &ops,
            3,
            &lin_events,
            0.0,
            &mut Tensor::zeros([2, 3]),
            &mut lin,
        )
        .unwrap();
        assert_eq!(lin, vec![2 * 3, 3]);
        let mut lin_dense = vec![0u64; 2];
        OpExecutor::new(&plan, SimEngine::dense())
            .accumulate_weighted(
                &ops,
                3,
                &signal,
                0.0,
                &mut Tensor::zeros([2, 3]),
                &mut lin_dense,
            )
            .unwrap();
        assert_eq!(lin_dense, lin);
        // A ledger without one slot per image is rejected.
        let mut short = vec![0; 1];
        assert!(exec
            .accumulate_weighted_events(&ops, 0, &events, 0.0, &mut via_gemm, &mut short)
            .is_err());
        assert!(exec
            .accumulate_weighted(
                &ops,
                3,
                &signal,
                0.0,
                &mut Tensor::zeros([2, 3]),
                &mut short
            )
            .is_err());
    }

    #[test]
    fn default_is_event_engine() {
        assert_eq!(SimEngine::default(), SimEngine::event());
        assert_eq!(SimEngine::dense().threshold(), 0.0);
    }
}
