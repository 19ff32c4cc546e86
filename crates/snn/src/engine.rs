//! The execution engine: per-step dense vs event-driven dispatch over
//! **position-major** membrane state.
//!
//! Spiking workloads spend almost all their time pushing *mostly-zero*
//! signals through weighted ops. Fire phases therefore emit event lists,
//! which stay events up to the next weighted op's scatter (a conv step
//! denser than one in two takes an im2col GEMM instead). A dense signal,
//! such as an encoded input image, meets a simple rule at its weighted
//! op:
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
//! Execution walks an op chain one **segment** at a time: the
//! pass-through ops (pooling, flatten) before a weighted op plus that
//! weighted op, so segment `k` feeds weighted layer `k` (the plan cuts
//! the chain once). [`OpExecutor::integrate_events`] is the one segment
//! walk: it carries a fired event list through segment `k`'s pass-through
//! ops in event form (average pooling, first-spike max pooling against
//! the caller's gates, flatten) into layer `k`'s membrane, and a silent
//! layer gets only its bias current. [`OpExecutor::integrate_image`] is
//! its entry for segment 0, fed a dense channel-major image-domain
//! signal, and the one place a signal turns position-major. The TTFS
//! step loop, the rate/phase/burst step loop and the TTFS analytic pass
//! all run through these two.
//!
//! Weighted ops only accumulate: each kernel integrates its drive plus
//! `bias · scale` straight into the target membrane (a caller that needs
//! a fresh drive passes a zeroed one) and bills a **synop ledger**, a
//! `&mut [u64]` with one slot per image, as it scatters; only the
//! near-dense GEMM path bills it from tap tables instead.
//!
//! Execution state splits in two. An [`OpPlan`] is compiled once per
//! network and input shape (and cached by
//! [`SnnNetwork::plan`](crate::SnnNetwork::plan)) and never changes: the
//! segments, the re-laid-out weights (linear: `[I, O]`, row-permuted to
//! the position-major feature order after a flatten; conv:
//! `[C·KH·KW, O]` reversed-KW plus a tap-major `[KH·KW·C, O]` GEMM
//! operand) and every op's per-image output dims. It is `Sync`, so one
//! plan serves any number of calls and pool chunks at once. An
//! [`OpExecutor`] borrows a plan and its ops for one call and adds what a
//! call mutates: the engine's dispatch rule and the event-list and
//! pooling scratch buffers.
//!
//! Dispatch can never change a result: [`SimEngine::Dense`] densifies
//! every event list and runs the dense twins, and every kernel of a pair
//! performs the same floating-point operations on each output element in
//! the same canonical order, so `SimOutcome`s are bit-identical between
//! [`SimEngine::Dense`] and any event threshold (the simulator's test
//! suite asserts this across engines, codings, and worker counts).

use std::ops::Range;

use serde::{Deserialize, Serialize};
use t2fsnn_tensor::ops::sparse::{self, PoolScratch};
use t2fsnn_tensor::ops::{avg_pool2d, avg_pool2d_pm, first_spike_gate, max_pool2d, max_pool2d_pm};
use t2fsnn_tensor::{trace, Result, SpikeBatch, Tensor, TensorError};

use crate::network::{output_shapes, SnnOp};

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

/// One segment of a compiled op chain: the pass-through ops `pass`
/// (pooling, flatten) and the weighted op they feed. Every weighted op
/// ends exactly one segment, so segment `k` is weighted layer `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Indices of the pass-through ops before the weighted op.
    pub pass: Range<usize>,
    /// Index of the weighted op that ends the segment.
    pub weighted: usize,
}

/// The compiled, immutable half of execution: one op sequence's
/// segments, re-laid-out weights and per-image state dims over one
/// input shape.
///
/// Build it once per network and input shape and share it
/// ([`SnnNetwork::plan`](crate::SnnNetwork::plan) does both); every
/// [`OpExecutor`] borrowing it propagates through the same weights. The
/// plan is only valid for the exact `ops` it was compiled from — a
/// caller that rewrites weights must compile a new one.
#[derive(Debug)]
pub struct OpPlan {
    /// The op chain cut at its weighted ops (ops after the last weighted
    /// op belong to no segment and never run).
    segments: Vec<Segment>,
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
        let mut segments = Vec::new();
        let mut start = 0;
        for (i, op) in ops.iter().enumerate() {
            if op.is_weighted() {
                segments.push(Segment {
                    pass: start..i,
                    weighted: i,
                });
                start = i + 1;
            }
        }
        let first_weighted = segments.first().map(|seg| seg.weighted).ok_or_else(|| {
            TensorError::InvalidArgument {
                op: "OpPlan::new",
                message: "network has no weighted ops".to_string(),
            }
        })?;
        let shapes = output_shapes(ops, input_dims)?;
        let mut weight_t: Vec<Option<Tensor>> = Vec::with_capacity(ops.len());
        let mut filter_t: Vec<Option<Tensor>> = Vec::with_capacity(ops.len());
        let mut filter_r: Vec<Option<Tensor>> = Vec::with_capacity(ops.len());
        // `[C, H, W]` dims recorded at a position-major flatten: the next
        // linear layer's weight rows are permuted to match the flattened
        // (y, x, c) feature order.
        let mut pm_flatten_src: Option<[usize; 3]> = None;
        for (i, op) in ops.iter().enumerate() {
            let (mut wt, mut ft, mut fr) = (None, None, None);
            match op {
                SnnOp::Conv { weight, .. } => {
                    ft = Some(sparse::transpose_filter(weight)?);
                    fr = Some(sparse::reorder_filter_taps(weight)?);
                }
                SnnOp::Linear { weight, .. } => {
                    wt = Some(match pm_flatten_src.take() {
                        Some([c, h, w]) => permuted_weight_t(weight, c, h * w)?,
                        None => weight.transpose()?,
                    });
                }
                SnnOp::Flatten if i > first_weighted => {
                    if let [c, h, w] = shapes[i - 1][..] {
                        pm_flatten_src = Some([c, h, w]);
                    }
                }
                _ => {}
            }
            weight_t.push(wt);
            filter_t.push(ft);
            filter_r.push(fr);
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
            segments,
            weight_t,
            filter_t,
            filter_r,
            dims,
        })
    }

    /// The op chain's segments, one per weighted op, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Per-image output dims of op `i` in the layout the engine holds
    /// it: position-major from the first weighted op on (for a weighted
    /// op, the shape of its membrane state), channel-major before it.
    pub fn state_dims(&self, i: usize) -> &[usize] {
        &self.dims[i]
    }
}

/// The per-call half of execution: a borrowed [`OpPlan`] plus the
/// engine's dispatch rule and reusable event-list and pooling scratch
/// buffers.
///
/// Create one per simulation call (or per pool chunk) and carry every
/// signal through it one segment at a time:
/// [`OpExecutor::integrate_image`] feeds segment 0 from the image
/// domain, [`OpExecutor::integrate_events`] feeds any segment a fired
/// event list. All paths are bit-identical to each other (the
/// canonical-order invariant).
pub struct OpExecutor<'p> {
    ops: &'p [SnnOp],
    plan: &'p OpPlan,
    /// [`SimEngine::Dense`]: event lists are densified and every op runs
    /// its dense twin.
    dense: bool,
    threshold: f32,
    scratch: SpikeBatch,
    pool_out: SpikeBatch,
    pool_scratch: PoolScratch,
}

impl<'p> OpExecutor<'p> {
    /// An executor over `ops` and the `plan` compiled from them,
    /// dispatching by `engine`'s rule.
    pub fn new(ops: &'p [SnnOp], plan: &'p OpPlan, engine: SimEngine) -> Self {
        OpExecutor {
            ops,
            plan,
            dense: matches!(engine, SimEngine::Dense),
            threshold: engine.threshold(),
            scratch: SpikeBatch::empty(),
            pool_out: SpikeBatch::empty(),
            pool_scratch: PoolScratch::new(),
        }
    }

    /// The image-domain entry of the segment walk: carries the
    /// channel-major `[N, C, H, W]` `signal` through segment 0's
    /// pass-through ops and accumulates it, plus `bias · bias_scale`,
    /// into the first weighted op's `potential`. A conv's signal switches
    /// to position-major here, the one place the engine changes layout.
    /// Max pooling is first-spike gated where `gates` holds a gate at the
    /// op's index, else the plain spatial max. The weighted kernel adds
    /// each image's synop adds to its slot of the `synops` ledger.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or if `synops` does not hold
    /// one slot per image.
    pub fn integrate_image(
        &mut self,
        signal: Tensor,
        gates: &mut [Option<Tensor>],
        bias_scale: f32,
        potential: &mut Tensor,
        synops: &mut [u64],
    ) -> Result<()> {
        let signal = self.pass_dense(0, signal, gates)?;
        let w = self.plan.segments[0].weighted;
        if matches!(self.ops[w], SnnOp::Conv { .. }) {
            let pm_signal = signal.to_position_major()?;
            self.accumulate_weighted(w, &pm_signal, bias_scale, potential, synops)
        } else {
            self.accumulate_weighted(w, &signal, bias_scale, potential, synops)
        }
    }

    /// The segment walk: carries a fired event list (position-major
    /// features) through segment `k`'s pass-through ops in event form
    /// (average pooling, max pooling first-spike gated against the gate
    /// `gates` holds at the op's index, flatten) and accumulates it, plus
    /// `bias · bias_scale`, into weighted layer `k`'s `potential`,
    /// billing each image's synop adds to the `synops` ledger. An empty
    /// list (a silent layer) only injects the bias current. The
    /// [`SimEngine::Dense`] reference engine densifies the list and runs
    /// the dense twins instead (bit-identical: the canonical-order
    /// invariant). `events` is scratch: it holds the pooled list after.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch, if an event-form max pool has
    /// no gate, or if `synops` does not hold one slot per image.
    pub fn integrate_events(
        &mut self,
        k: usize,
        events: &mut SpikeBatch,
        gates: &mut [Option<Tensor>],
        bias_scale: f32,
        potential: &mut Tensor,
        synops: &mut [u64],
    ) -> Result<()> {
        let (ops, plan) = (self.ops, self.plan);
        let seg = &plan.segments[k];
        let w = seg.weighted;
        if events.nnz() == 0 {
            return ops[w].inject_bias_pm(potential, bias_scale);
        }
        if self.dense {
            let signal = self.pass_dense(k, events.to_dense(), gates)?;
            return self.accumulate_weighted(w, &signal, bias_scale, potential, synops);
        }
        for i in seg.pass.clone() {
            let (out, scratch) = (&mut self.pool_out, &mut self.pool_scratch);
            match &ops[i] {
                SnnOp::AvgPool { window, stride } => {
                    let _s = trace::span("op/pool_events");
                    sparse::avg_pool2d_events(events, *window, *stride, out, scratch)?;
                    std::mem::swap(events, out);
                }
                SnnOp::MaxPool { window, stride } => {
                    let gate = gates.get_mut(i).and_then(Option::as_mut).ok_or_else(|| {
                        TensorError::InvalidArgument {
                            op: "OpExecutor::integrate_events",
                            message: format!("max pool op {i} has no first-spike gate"),
                        }
                    })?;
                    let _s = trace::span("op/pool_events");
                    sparse::max_pool2d_events(events, *window, *stride, gate, out, scratch)?;
                    std::mem::swap(events, out);
                }
                SnnOp::Flatten => {
                    let numel = events.feature_numel();
                    events.reshape_features(&[numel])?;
                }
                SnnOp::Conv { .. } | SnnOp::Linear { .. } => {
                    unreachable!("a segment's pass-through ops are unweighted")
                }
            }
        }
        self.accumulate_events(w, events, bias_scale, potential, synops)
    }

    /// Runs segment `k`'s pass-through ops on a dense signal, gating
    /// max pools that have a gate.
    fn pass_dense(
        &self,
        k: usize,
        mut signal: Tensor,
        gates: &mut [Option<Tensor>],
    ) -> Result<Tensor> {
        for i in self.plan.segments[k].pass.clone() {
            signal = self.propagate(i, &signal)?;
            if let Some(gate) = gates.get_mut(i).and_then(Option::as_mut) {
                first_spike_gate(&mut signal, gate)?;
            }
        }
        Ok(signal)
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

    /// Propagates a dense `signal` through the pass-through op `ops[i]`
    /// (pooling or flatten). Signals before the first weighted op are
    /// channel-major (the image domain), everything downstream
    /// position-major. Max pooling is the stateless spatial max.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or if `ops[i]` is a weighted op.
    pub(crate) fn propagate(&self, i: usize, signal: &Tensor) -> Result<Tensor> {
        let image_domain = i < self.plan.segments[0].weighted;
        match &self.ops[i] {
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

    /// Computes a weighted op's synaptic drive from a dense
    /// position-major `signal` and integrates it — plus
    /// `bias · bias_scale` — **straight into `potential`**: the membrane
    /// tensor is the accumulator, so there is no intermediate drive
    /// tensor, no per-step clear, and no flush. The signal is scanned
    /// into events when the engine's threshold allows. The kernel adds
    /// each image's synop count to its slot of the `synops` ledger as it
    /// scatters.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch, if `ops[i]` is not a weighted
    /// op, or if `synops` does not hold one slot per image.
    fn accumulate_weighted(
        &mut self,
        i: usize,
        signal: &Tensor,
        bias_scale: f32,
        potential: &mut Tensor,
        synops: &mut [u64],
    ) -> Result<()> {
        let ops = self.ops;
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
    /// form: no scan, no dense intermediate. Very dense steps
    /// (phase/burst re-transmissions) take the position-major im2col
    /// GEMM, which accumulates into the membrane in the same canonical
    /// order as the scatter — same results either way — and bills the
    /// ledger through the tap-table counter, since it adds inactive taps
    /// too.
    ///
    /// # Errors
    ///
    /// As [`OpExecutor::accumulate_weighted`].
    fn accumulate_events(
        &mut self,
        i: usize,
        events: &SpikeBatch,
        bias_scale: f32,
        potential: &mut Tensor,
        synops: &mut [u64],
    ) -> Result<()> {
        let ops = self.ops;
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
                    op: "OpExecutor::accumulate_events",
                    message: format!("op {i} is not a weighted op"),
                })
            }
        }
        ops[i].inject_bias_pm(potential, bias_scale)
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
        // Spike values are positive, as every coding fires them.
        let fire = |v: f32| v.max(0.0);
        run_chain_from(
            &mut OpExecutor::new(&ops, &plan, engine),
            sparse_signal(),
            fire,
        )
    }

    /// Walks every segment, each weighted op accumulating into a zeroed
    /// membrane: segment 0 from the channel-major image domain, each
    /// later one from the previous membrane, mapped through `fire`, as an
    /// event list.
    fn run_chain_from(
        exec: &mut OpExecutor<'_>,
        signal: Tensor,
        fire: impl Fn(f32) -> f32,
    ) -> (Tensor, Vec<u64>) {
        let n = signal.dims()[0];
        let mut synops = vec![0; n];
        let zeros = |k: usize| {
            let mut dims = vec![n];
            dims.extend_from_slice(exec.plan.state_dims(exec.plan.segments()[k].weighted));
            Tensor::zeros(dims)
        };
        let mut z = zeros(0);
        exec.integrate_image(signal, &mut [], 0.0, &mut z, &mut synops)
            .unwrap();
        for k in 1..exec.plan.segments().len() {
            let mut events = SpikeBatch::from_dense(&z.map(&fire)).unwrap();
            z = zeros(k);
            exec.integrate_events(k, &mut events, &mut [], 0.0, &mut z, &mut synops)
                .unwrap();
        }
        (z, synops)
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
    fn walk_injects_only_bias_when_silent_and_gates_event_max_pools() {
        // A silent layer's membrane gets `bias · scale` and no synops.
        let mut chain = ops();
        if let SnnOp::Linear { bias, .. } = &mut chain[3] {
            *bias = Tensor::from_vec([3], vec![1.0, -2.0, 0.5]).unwrap();
        }
        let plan = OpPlan::new(&chain, &[1, 4, 4]).unwrap();
        let mut silent = SpikeBatch::from_dense(&Tensor::zeros([2, 4, 4, 2])).unwrap();
        for engine in [SimEngine::Dense, SimEngine::event()] {
            let mut z = Tensor::zeros([2, 3]);
            let mut synops = vec![0; 2];
            OpExecutor::new(&chain, &plan, engine)
                .integrate_events(1, &mut silent, &mut [], 0.5, &mut z, &mut synops)
                .unwrap();
            assert_eq!(z.data(), &[0.5, -1.0, 0.25, 0.5, -1.0, 0.25], "{engine:?}");
            assert_eq!(synops, [0, 0], "{engine:?}");
        }
        // Event-form max pooling latches a first-spike gate, so it needs
        // one; with gates both engines agree, and a second pass of the
        // same spikes is fully gated.
        let mut chain = ops();
        chain[1] = SnnOp::MaxPool {
            window: 2,
            stride: 2,
        };
        let plan = OpPlan::new(&chain, &[1, 4, 4]).unwrap();
        let fired = Tensor::from_fn([2, 4, 4, 2], |i| ((i[1] + i[3]) % 3 == 0) as u8 as f32);
        let fired = SpikeBatch::from_dense(&fired).unwrap();
        let walk = |engine, gates: &mut [Option<Tensor>]| {
            let mut z = Tensor::zeros([2, 3]);
            let mut synops = vec![0; 2];
            OpExecutor::new(&chain, &plan, engine)
                .integrate_events(1, &mut fired.clone(), gates, 0.0, &mut z, &mut synops)
                .map(|()| (z, synops))
        };
        assert!(walk(SimEngine::event(), &mut []).is_err());
        let gates = || vec![None, Some(Tensor::zeros([2, 2, 2, 2])), None, None];
        let (mut dense_gates, mut event_gates) = (gates(), gates());
        let dense = walk(SimEngine::Dense, &mut dense_gates).unwrap();
        assert_eq!(dense, walk(SimEngine::event(), &mut event_gates).unwrap());
        assert!(dense.1.iter().all(|&s| s > 0));
        assert_eq!(dense_gates, event_gates);
        let (z, synops) = walk(SimEngine::event(), &mut event_gates).unwrap();
        assert_eq!((z.sum(), synops), (0.0, vec![0, 0]));
    }

    #[test]
    fn first_conv_matches_reference_modulo_layout() {
        // The executor's position-major output must carry the same bits
        // as a plain-loop channel-major reference, permuted: each output
        // adds its taps in ascending (ki, kj) order, the canonical (y, x)
        // order of its sources.
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&ops, &plan, SimEngine::event());
        let signal = sparse_signal();
        let mut got = Tensor::zeros([2, 4, 4, 2]);
        let mut synops = vec![0; 2];
        exec.integrate_image(signal.clone(), &mut [], 0.0, &mut got, &mut synops)
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
        assert!(exec.propagate(0, &signal).is_err());
        assert!(exec.propagate(3, &Tensor::zeros([2, 8])).is_err());
    }

    #[test]
    fn accumulate_paths_agree_between_dense_and_event_signals() {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&ops, &plan, SimEngine::event());
        // A sparse position-major signal entering the hidden linear op.
        let signal = linear_signal();
        let base = Tensor::from_fn([2, 3], |i| (i[0] + i[1]) as f32 * 0.1);
        let mut via_dense = base.clone();
        let mut s1 = vec![0; 2];
        exec.accumulate_weighted(3, &signal, 0.5, &mut via_dense, &mut s1)
            .unwrap();
        let events = SpikeBatch::from_dense(&signal).unwrap();
        let mut via_events = base.clone();
        let mut s2 = vec![0; 2];
        exec.accumulate_events(3, &events, 0.5, &mut via_events, &mut s2)
            .unwrap();
        assert_eq!(via_dense, via_events);
        assert_eq!(s1, s2);
        // Non-weighted ops are rejected.
        assert!(exec
            .accumulate_weighted(1, &signal, 0.0, &mut via_dense, &mut s1)
            .is_err());
        assert!(exec
            .accumulate_events(1, &events, 0.0, &mut via_events, &mut s2)
            .is_err());
    }

    #[test]
    fn dense_engine_never_builds_events() {
        let ops = ops();
        let plan = OpPlan::new(&ops, &[1, 4, 4]).unwrap();
        let mut exec = OpExecutor::new(&ops, &plan, SimEngine::dense());
        let mut potential = Tensor::zeros([2, 4, 4, 2]);
        let mut synops = vec![0; 2];
        exec.integrate_image(sparse_signal(), &mut [], 0.0, &mut potential, &mut synops)
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
        let segment = |pass, weighted| Segment { pass, weighted };
        assert_eq!(plan.segments(), &[segment(0..0, 0), segment(1..3, 3)]);
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
        let mut exec = OpExecutor::new(&ops, &plan, SimEngine::dense());
        let signal = sparse_signal();
        let (SnnOp::Conv { weight, spec, .. }, SnnOp::Linear { weight: fc, .. }) =
            (&ops[0], &ops[3])
        else {
            unreachable!("ops are conv, pool, flatten, linear")
        };
        let conv = t2fsnn_tensor::ops::conv2d(&signal, weight, &Tensor::zeros([2]), *spec).unwrap();
        let pooled = avg_pool2d(&conv, 2, 2).unwrap().reshape([2, 8]).unwrap();
        let want = t2fsnn_tensor::ops::matmul_a_bt(&pooled, fc).unwrap();
        let (got, _) = run_chain_from(&mut exec, signal, |v| v);
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
        let mut exec = OpExecutor::new(&ops, &plan, SimEngine::event());
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
        exec.accumulate_events(0, &events, 0.0, &mut via_events, &mut ledger)
            .unwrap();
        assert_eq!(ledger, want);
        let mut via_dense = Tensor::zeros([2, 4, 4, 2]);
        let mut dense_ledger = vec![100, 200];
        OpExecutor::new(&ops, &plan, SimEngine::dense())
            .accumulate_weighted(0, &pm, 0.0, &mut via_dense, &mut dense_ledger)
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
        exec.accumulate_events(0, &events, 0.0, &mut via_gemm, &mut gemm_ledger)
            .unwrap();
        assert_eq!(gemm_ledger, oracle(&cm));
        assert_eq!(gemm_ledger, [200, 0, 200]);
        let mut via_walk = Tensor::zeros([3, 4, 4, 2]);
        let mut walk_ledger = vec![0; 3];
        OpExecutor::new(&ops, &plan, SimEngine::dense())
            .accumulate_weighted(0, &pm, 0.0, &mut via_walk, &mut walk_ledger)
            .unwrap();
        assert_eq!(via_gemm, via_walk);
        assert_eq!(walk_ledger, gemm_ledger);
        // Linear op: nnz × O per image, dense or events.
        let signal = linear_signal();
        let lin_events = SpikeBatch::from_dense(&signal).unwrap();
        let mut lin = vec![0u64; 2];
        exec.accumulate_events(3, &lin_events, 0.0, &mut Tensor::zeros([2, 3]), &mut lin)
            .unwrap();
        assert_eq!(lin, vec![2 * 3, 3]);
        let mut lin_dense = vec![0u64; 2];
        OpExecutor::new(&ops, &plan, SimEngine::dense())
            .accumulate_weighted(3, &signal, 0.0, &mut Tensor::zeros([2, 3]), &mut lin_dense)
            .unwrap();
        assert_eq!(lin_dense, lin);
        // A ledger without one slot per image is rejected.
        let mut short = vec![0; 1];
        assert!(exec
            .accumulate_events(0, &events, 0.0, &mut via_gemm, &mut short)
            .is_err());
        assert!(exec
            .accumulate_weighted(3, &signal, 0.0, &mut Tensor::zeros([2, 3]), &mut short)
            .is_err());
    }

    #[test]
    fn default_is_event_engine() {
        assert_eq!(SimEngine::default(), SimEngine::event());
        assert_eq!(SimEngine::dense().threshold(), 0.0);
    }
}
