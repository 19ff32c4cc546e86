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
//! Execution state splits in two. An [`OpPlan`] is compiled once per
//! network and input shape and never changes: the re-laid-out weights
//! (linear: `[I, O]`, row-permuted to the position-major feature order
//! after a flatten; conv: `[C·KH·KW, O]` reversed-KW plus a tap-major
//! `[KH·KW·C, O]` GEMM operand) and every op's per-image output dims. It
//! is `Sync`, so one plan serves any number of calls and pool chunks at
//! once. An [`OpExecutor`] borrows a plan for one call and adds what a
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
use t2fsnn_tensor::ops::{avg_pool2d_pm, max_pool2d_pm};
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
/// Build it once per network and input shape and share it; every
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
/// propagation through it; all paths are bit-identical to each other
/// (the canonical-order invariant) and the membrane-accumulating entry
/// points are the fast ones.
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

    /// Propagates `signal` through `ops[i]`, dispatching weighted ops to
    /// the sparse or dense kernel by the engine rule. Signals before the
    /// first weighted op are channel-major (the image domain); the first
    /// weighted conv transposes once and everything downstream — input
    /// and output — is position-major. Returns the postsynaptic drive
    /// and the synaptic accumulate count.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn propagate(&mut self, ops: &[SnnOp], i: usize, signal: &Tensor) -> Result<(Tensor, u64)> {
        match &ops[i] {
            SnnOp::Conv { weight, spec, .. } => {
                let kernel = (weight.dims()[2], weight.dims()[3]);
                let spec = *spec;
                if i == self.plan.first_weighted {
                    let pm_signal = signal.to_position_major()?;
                    self.conv_dispatch(i, kernel, spec, &pm_signal)
                } else {
                    self.conv_dispatch(i, kernel, spec, signal)
                }
            }
            SnnOp::Linear { .. } => {
                let use_events = self.try_events(signal)?;
                let weight_t = self.plan.weight_t[i]
                    .as_ref()
                    .expect("linear op has a transposed weight");
                if use_events {
                    sparse::linear_scatter_events(&self.scratch, weight_t)
                } else {
                    sparse::linear_scatter_t(signal, weight_t)
                }
            }
            op if i < self.plan.first_weighted => op.propagate(signal),
            SnnOp::AvgPool { window, stride } => Ok((avg_pool2d_pm(signal, *window, *stride)?, 0)),
            SnnOp::MaxPool { window, stride } => Ok((max_pool2d_pm(signal, *window, *stride)?, 0)),
            SnnOp::Flatten => {
                let n = signal.dims()[0];
                let rest: usize = signal.dims()[1..].iter().product();
                Ok((signal.reshape([n, rest])?, 0))
            }
        }
    }

    /// [`OpExecutor::propagate`] for a signal **already in position-major
    /// layout** at the first weighted conv (e.g. the TTFS input drive,
    /// built position-major at encode time): skips the per-step
    /// transpose. Identical to [`OpExecutor::propagate`] for every other
    /// op.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn propagate_input_pm(
        &mut self,
        ops: &[SnnOp],
        i: usize,
        signal: &Tensor,
    ) -> Result<(Tensor, u64)> {
        match &ops[i] {
            SnnOp::Conv { weight, spec, .. } if i == self.plan.first_weighted => {
                let kernel = (weight.dims()[2], weight.dims()[3]);
                self.conv_dispatch(i, kernel, *spec, signal)
            }
            _ => self.propagate(ops, i, signal),
        }
    }

    /// Event-or-dense dispatch of a position-major conv signal.
    fn conv_dispatch(
        &mut self,
        i: usize,
        kernel: (usize, usize),
        spec: t2fsnn_tensor::ops::Conv2dSpec,
        pm_signal: &Tensor,
    ) -> Result<(Tensor, u64)> {
        let use_events = self.try_events(pm_signal)?;
        let filter_t = self.plan.filter_t[i]
            .as_ref()
            .expect("conv op has a transposed filter");
        if use_events {
            let _s = trace::span("op/conv_scatter_events");
            sparse::conv2d_scatter_events_pm(&self.scratch, filter_t, kernel, spec)
        } else {
            let _s = trace::span("op/conv_dense_walk");
            sparse::conv2d_scatter_pm(pm_signal, filter_t, kernel, spec)
        }
    }

    /// Computes a weighted op's synaptic drive and integrates it — plus
    /// `bias · bias_scale` — **straight into `potential`**: the membrane
    /// tensor is the accumulator, so there is no intermediate drive
    /// tensor, no per-step clear, and no flush. The signal must be
    /// position-major (i.e. `ops[i]` is downstream of the first weighted
    /// op).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or if `ops[i]` is not a
    /// weighted op.
    pub fn accumulate_weighted(
        &mut self,
        ops: &[SnnOp],
        i: usize,
        signal: &Tensor,
        bias_scale: f32,
        potential: &mut Tensor,
    ) -> Result<u64> {
        let synops = match &ops[i] {
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
                    )?
                } else {
                    let _s = trace::span("op/conv_dense_walk");
                    sparse::conv2d_scatter_pm_acc(signal, filter_t, kernel, *spec, potential)?
                }
            }
            SnnOp::Linear { .. } => {
                let use_events = self.try_events(signal)?;
                let weight_t = self.plan.weight_t[i]
                    .as_ref()
                    .expect("linear op has a transposed weight");
                if use_events {
                    let _s = trace::span("op/linear_events");
                    sparse::linear_scatter_events_acc(&self.scratch, weight_t, potential)?
                } else {
                    let _s = trace::span("op/linear_dense");
                    sparse::linear_scatter_t_acc(signal, weight_t, potential)?
                }
            }
            _ => {
                return Err(TensorError::InvalidArgument {
                    op: "OpExecutor::accumulate_weighted",
                    message: format!("op {i} is not a weighted op"),
                })
            }
        };
        ops[i].inject_bias_pm(potential, bias_scale)?;
        Ok(synops)
    }

    /// [`OpExecutor::accumulate_weighted`] for a signal already in event
    /// form (e.g. produced by [`crate::coding::Coding::fire_events`]):
    /// no scan, no dense intermediate. Very dense steps (phase/burst
    /// re-transmissions) take the position-major im2col GEMM, which
    /// accumulates into the membrane in the same canonical order as the
    /// scatter — same results either way.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or if `ops[i]` is not a
    /// weighted op.
    pub fn accumulate_weighted_events(
        &mut self,
        ops: &[SnnOp],
        i: usize,
        events: &SpikeBatch,
        bias_scale: f32,
        potential: &mut Tensor,
    ) -> Result<u64> {
        let synops = match &ops[i] {
            SnnOp::Conv { weight, spec, .. } => {
                let kernel = (weight.dims()[2], weight.dims()[3]);
                if events.density() > GEMM_DENSITY {
                    let _s = trace::span("op/conv_gemm_pm");
                    let dense = events.to_dense();
                    let weight_r = self.plan.filter_r[i]
                        .as_ref()
                        .expect("conv op has a tap-major filter");
                    sparse::conv2d_gemm_pm_acc(&dense, weight_r, kernel, *spec, potential)?;
                    sparse::conv2d_synops_events(events, weight.dims()[0], kernel, *spec)?
                } else {
                    let _s = trace::span("op/conv_scatter_events");
                    let filter_t = self.plan.filter_t[i]
                        .as_ref()
                        .expect("conv op has a transposed filter");
                    sparse::conv2d_scatter_events_pm_acc(
                        events, filter_t, kernel, *spec, potential,
                    )?
                }
            }
            SnnOp::Linear { .. } => {
                let _s = trace::span("op/linear_events");
                let weight_t = self.plan.weight_t[i]
                    .as_ref()
                    .expect("linear op has a transposed weight");
                sparse::linear_scatter_events_acc(events, weight_t, potential)?
            }
            _ => {
                return Err(TensorError::InvalidArgument {
                    op: "OpExecutor::accumulate_weighted_events",
                    message: format!("op {i} is not a weighted op"),
                })
            }
        };
        ops[i].inject_bias_pm(potential, bias_scale)?;
        Ok(synops)
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

    /// Chains the full op list through the executor, returning the final
    /// signal and total synops.
    fn run_chain(engine: SimEngine) -> (Tensor, u64) {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, engine);
        let mut signal = sparse_signal();
        let mut synops = 0u64;
        for i in 0..ops.len() {
            let (next, s) = exec.propagate(&ops, i, &signal).unwrap();
            synops += s;
            signal = next;
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
        // as the channel-major reference kernel, permuted.
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::event());
        let signal = sparse_signal();
        let (got, synops) = exec.propagate(&ops, 0, &signal).unwrap();
        let (want, want_synops) = ops[0].propagate(&signal).unwrap();
        assert_eq!(got.to_channel_major().unwrap(), want);
        assert_eq!(synops, want_synops);
    }

    #[test]
    fn accumulate_paths_agree_between_dense_and_event_signals() {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::event());
        // A sparse position-major signal entering the hidden linear op.
        let signal = Tensor::from_vec(
            [2, 8],
            vec![
                0.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0,
            ],
        )
        .unwrap();
        let base = Tensor::from_fn([2, 3], |i| (i[0] + i[1]) as f32 * 0.1);
        let mut via_dense = base.clone();
        let s1 = exec
            .accumulate_weighted(&ops, 3, &signal, 0.5, &mut via_dense)
            .unwrap();
        let events = SpikeBatch::from_dense(&signal).unwrap();
        let mut via_events = base.clone();
        let s2 = exec
            .accumulate_weighted_events(&ops, 3, &events, 0.5, &mut via_events)
            .unwrap();
        assert_eq!(via_dense, via_events);
        assert_eq!(s1, s2);
        // Non-weighted ops are rejected.
        assert!(exec
            .accumulate_weighted(&ops, 1, &signal, 0.0, &mut via_dense)
            .is_err());
        assert!(exec
            .accumulate_weighted_events(&ops, 1, &events, 0.0, &mut via_events)
            .is_err());
    }

    #[test]
    fn dense_engine_never_builds_events() {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::dense());
        let (_, synops) = exec.propagate(&ops, 0, &sparse_signal()).unwrap();
        assert!(synops > 0);
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
        // Feed a one-hot through pool+flatten on both layouts: the
        // executor's permuted weight must produce the same logits the
        // reference channel-major chain produces.
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::dense());
        let signal = sparse_signal();
        // Reference: channel-major propagation all the way.
        let mut want = signal.clone();
        for op in &ops {
            want = op.propagate(&want).unwrap().0;
        }
        let (got, _) = run_chain_from(&mut exec, &ops, signal);
        assert!(got.all_close(&want, 1e-5));
    }

    fn run_chain_from(
        exec: &mut OpExecutor<'_>,
        ops: &[SnnOp],
        mut signal: Tensor,
    ) -> (Tensor, u64) {
        let mut synops = 0u64;
        for i in 0..ops.len() {
            let (next, s) = exec.propagate(ops, i, &signal).unwrap();
            synops += s;
            signal = next;
        }
        (signal, synops)
    }

    #[test]
    fn per_image_synops_sum_to_accumulate_charge() {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&plan, SimEngine::event());
        // Conv op on a position-major signal.
        let pm = sparse_signal().to_position_major().unwrap();
        let events = SpikeBatch::from_dense(&pm).unwrap();
        let mut potential = Tensor::zeros([2, 4, 4, 2]);
        let charged = exec
            .accumulate_weighted_events(&ops, 0, &events, 0.0, &mut potential)
            .unwrap();
        let mut by_image = vec![0u64; 2];
        ops[0]
            .synops_events_by_image(&events, &mut by_image)
            .unwrap();
        assert_eq!(by_image.iter().sum::<u64>(), charged);
        let mut by_image_dense = vec![0u64; 2];
        ops[0].synops_pm_by_image(&pm, &mut by_image_dense).unwrap();
        assert_eq!(by_image_dense, by_image);
        // Linear op: nnz × O per image.
        let signal = Tensor::from_vec(
            [2, 8],
            vec![
                0.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0,
            ],
        )
        .unwrap();
        let lin_events = SpikeBatch::from_dense(&signal).unwrap();
        let mut lin = vec![0u64; 2];
        ops[3]
            .synops_events_by_image(&lin_events, &mut lin)
            .unwrap();
        assert_eq!(lin, vec![2 * 3, 3]);
        let mut lin_dense = vec![0u64; 2];
        ops[3].synops_pm_by_image(&signal, &mut lin_dense).unwrap();
        assert_eq!(lin_dense, lin);
        // Non-weighted ops are rejected.
        assert!(ops[1]
            .synops_events_by_image(&events, &mut by_image)
            .is_err());
        assert!(ops[1].synops_pm_by_image(&pm, &mut by_image).is_err());
    }

    #[test]
    fn default_is_event_engine() {
        assert_eq!(SimEngine::default(), SimEngine::event());
        assert_eq!(SimEngine::dense().threshold(), 0.0);
    }
}
