//! Hierarchical span tracing with a bounded lock-free flight recorder.
//!
//! This module is the successor of the flat [`crate::profile`] table:
//! every `span(key)` site now feeds *two* sinks sharing one enablement
//! check —
//!
//! 1. the **profile aggregate** (per-key call count + total nanos,
//!    `T2FSNN_PROFILE=1`), unchanged in spirit from PR 4, and
//! 2. the **flight recorder** (`T2FSNN_TRACE=<path>`): a bounded ring
//!    of completed spans with parent/child links, per-thread ids,
//!    per-request trace ids, and wall-clock timestamps, exportable as
//!    Chrome trace-event JSON (`chrome://tracing` / Perfetto).
//!
//! **Cost contract.** When both sinks are off, a span site is a single
//! relaxed atomic load and an early return — no clock read, no TLS
//! touch, no allocation. The enablement decision is cached in one
//! atomic (`STATE`) holding both the profile and trace bits, so the
//! hot path never consults the environment twice.
//!
//! **Read-only contract.** Tracing observes; it never feeds back into
//! computation. The bit-identity property tests run the engines with
//! tracing+profiling on and off and compare outputs bit for bit
//! (`tests/trace_identity.rs` at the workspace root mirror the SIMD
//! on/off discipline).
//!
//! # Span model
//!
//! A [`span`] measures one region on one thread. Spans nest through a
//! thread-local parent stack: the span open while another opens is its
//! parent. A [`trace_scope`] tags every span opened inside it with a
//! *trace id* — the serve path allocates one per request ([`next_trace_id`])
//! so a single request's admission → queue → exec → respond tree can
//! be filtered out of the recorder. Work handed to the scoped thread
//! pool keeps its trace: [`capture_context`] at the fork point,
//! [`install_context`] inside each pool closure (wired in
//! [`crate::parallel`]).
//!
//! Spans for phases that are only known retroactively (queue wait
//! measured at dequeue) are recorded with [`record_complete`].
//!
//! # Coarse scopes
//!
//! A hot loop opens the same span sites hundreds of times per call (one
//! per layer per time step). Recording each costs two clock reads plus a
//! ring write — on a small model more than the work it measures, which
//! matters on a path the recorder is always on for (serving). Such a call
//! runs inside a [`coarse`] scope: the scope is one recorded span, the
//! call marks a few contiguous [`CoarseScope::stage`]s of its own as child
//! spans, and every other span opened on the thread inside the scope
//! skips the flight recorder (no clock read, no ring write). The profile
//! aggregate still sees every span, so `T2FSNN_PROFILE=1` keeps the
//! per-step detail.
//!
//! # Flight recorder
//!
//! A fixed ring of `T2FSNN_TRACE_CAP` slots (default 65 536, ~64 B
//! each) written lock-free: a writer claims a ticket with one
//! `fetch_add`, then publishes through a per-slot seqlock (odd =
//! mid-write). A writer that finds its slot still claimed by a lapped
//! writer *drops* its event rather than spin — the recorder sheds
//! under wrap pressure, it never blocks the traced code. Readers
//! ([`snapshot`]) re-check the sequence around the field loads and
//! skip torn slots. The ring keeps the most recent events; older ones
//! are overwritten.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// `STATE` bit: the environment has been consulted.
pub(crate) const DECIDED: u8 = 1;
/// `STATE` bit: profile aggregation is on (`T2FSNN_PROFILE=1`).
pub(crate) const PROFILE_ON: u8 = 2;
/// `STATE` bit: flight recording is on (`T2FSNN_TRACE` nonempty).
pub(crate) const TRACE_ON: u8 = 4;

/// Combined enablement word — the only thing a disabled span site
/// reads.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Reads the combined state, deciding from the environment on first
/// use.
#[inline]
pub(crate) fn state() -> u8 {
    let s = STATE.load(Ordering::Relaxed);
    if s & DECIDED != 0 {
        s
    } else {
        decide()
    }
}

#[cold]
fn decide() -> u8 {
    let profile_on = std::env::var("T2FSNN_PROFILE").is_ok_and(|v| v == "1");
    let trace_on = std::env::var("T2FSNN_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut s = DECIDED;
    if profile_on {
        s |= PROFILE_ON;
    }
    if trace_on {
        s |= TRACE_ON;
        let _ = recorder();
        let _ = epoch();
    }
    // Racing threads compute the same value from the same environment;
    // keep whichever landed first so explicit setters are not undone.
    let _ = STATE.compare_exchange(0, s, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed)
}

/// Is the flight recorder on?
#[inline]
pub fn enabled() -> bool {
    state() & TRACE_ON != 0
}

/// Turns the flight recorder on or off at runtime (overrides the
/// `T2FSNN_TRACE` decision; the serve binary enables it at startup so
/// `/debug/trace` always has data).
pub fn set_enabled(on: bool) {
    state(); // force the DECIDED bit first
    if on {
        let _ = recorder();
        let _ = epoch();
        STATE.fetch_or(TRACE_ON, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!TRACE_ON, Ordering::Relaxed);
    }
}

/// Turns profile aggregation on or off at runtime (the `profile`
/// module's setter delegates here — one state word serves both).
pub(crate) fn set_profiling(on: bool) {
    state();
    if on {
        STATE.fetch_or(PROFILE_ON, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!PROFILE_ON, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Clock epoch — all recorder timestamps are nanos since this Instant.
// ---------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

#[inline]
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------
// Key interning — `&'static str` → dense u32 id for the ring slots.
// ---------------------------------------------------------------------

fn key_registry() -> &'static Mutex<Vec<&'static str>> {
    static KEYS: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    KEYS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Pointer-identity cache so interning a hot key is one HashMap
    /// probe, no global lock.
    static KEY_CACHE: RefCell<HashMap<usize, u32>> = RefCell::new(HashMap::new());
}

fn intern(key: &'static str) -> u32 {
    let ptr = key.as_ptr() as usize;
    KEY_CACHE
        .try_with(|cache| {
            if let Some(&id) = cache.borrow().get(&ptr) {
                return id;
            }
            let id = intern_slow(key);
            cache.borrow_mut().insert(ptr, id);
            id
        })
        .unwrap_or_else(|_| intern_slow(key))
}

fn intern_slow(key: &'static str) -> u32 {
    let mut keys = key_registry().lock().unwrap();
    if let Some(pos) = keys.iter().position(|k| *k == key) {
        return pos as u32;
    }
    keys.push(key);
    (keys.len() - 1) as u32
}

// ---------------------------------------------------------------------
// Thread identity + per-thread trace context.
// ---------------------------------------------------------------------

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

fn thread_names() -> &'static Mutex<Vec<(u32, String)>> {
    static NAMES: OnceLock<Mutex<Vec<(u32, String)>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

#[derive(Default)]
struct TraceCtx {
    tid: u32,
    trace_id: u64,
    parent: u64,
    /// A [`coarse`] scope is open on this thread: spans opened now skip
    /// the flight recorder.
    coarse: bool,
}

thread_local! {
    static CTX: RefCell<TraceCtx> = RefCell::new(TraceCtx::default());
}

fn ensure_tid(ctx: &mut TraceCtx) -> u32 {
    if ctx.tid == 0 {
        ctx.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{}", ctx.tid));
        thread_names().lock().unwrap().push((ctx.tid, name));
    }
    ctx.tid
}

/// Allocates a fresh trace id (serve: one per request, one per batch).
/// Never returns 0 — 0 means "no trace".
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The trace id spans on this thread are currently tagged with (0 when
/// none or tracing is off).
pub fn current_trace_id() -> u64 {
    if state() & TRACE_ON == 0 {
        return 0;
    }
    CTX.try_with(|c| c.borrow().trace_id).unwrap_or(0)
}

/// Guard restoring the thread's previous trace context on drop
/// (returned by [`trace_scope`] and [`install_context`]).
pub struct TraceScope {
    prev_trace: u64,
    prev_parent: u64,
    active: bool,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let _ = CTX.try_with(|c| {
            let mut c = c.borrow_mut();
            c.trace_id = self.prev_trace;
            c.parent = self.prev_parent;
        });
    }
}

/// Tags every span opened on this thread (until the guard drops) with
/// `trace_id`, starting a fresh parent stack so the first span inside
/// becomes the trace's root.
pub fn trace_scope(trace_id: u64) -> TraceScope {
    if state() & TRACE_ON == 0 {
        return TraceScope {
            prev_trace: 0,
            prev_parent: 0,
            active: false,
        };
    }
    CTX.try_with(|c| {
        let mut c = c.borrow_mut();
        let scope = TraceScope {
            prev_trace: c.trace_id,
            prev_parent: c.parent,
            active: true,
        };
        c.trace_id = trace_id;
        c.parent = 0;
        scope
    })
    .unwrap_or(TraceScope {
        prev_trace: 0,
        prev_parent: 0,
        active: false,
    })
}

/// A snapshot of the calling thread's trace context, for handing work
/// to another thread. `Copy` so fork-join call sites can move it into
/// many closures.
#[derive(Clone, Copy)]
pub struct TraceContext {
    trace_id: u64,
    parent: u64,
    on: bool,
}

/// Captures the current thread's trace context (cheap no-op when
/// tracing is off). Pair with [`install_context`] in the receiving
/// thread so pool workers' spans keep the forker's trace id and nest
/// under its open span.
pub fn capture_context() -> TraceContext {
    if state() & TRACE_ON == 0 {
        return TraceContext {
            trace_id: 0,
            parent: 0,
            on: false,
        };
    }
    CTX.try_with(|c| {
        let c = c.borrow();
        TraceContext {
            trace_id: c.trace_id,
            parent: c.parent,
            on: true,
        }
    })
    .unwrap_or(TraceContext {
        trace_id: 0,
        parent: 0,
        on: false,
    })
}

/// Installs a captured context on the calling thread until the guard
/// drops.
pub fn install_context(tc: TraceContext) -> TraceScope {
    if !tc.on || state() & TRACE_ON == 0 {
        return TraceScope {
            prev_trace: 0,
            prev_parent: 0,
            active: false,
        };
    }
    CTX.try_with(|c| {
        let mut c = c.borrow_mut();
        let scope = TraceScope {
            prev_trace: c.trace_id,
            prev_parent: c.parent,
            active: true,
        };
        c.trace_id = tc.trace_id;
        c.parent = tc.parent;
        scope
    })
    .unwrap_or(TraceScope {
        prev_trace: 0,
        prev_parent: 0,
        active: false,
    })
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// Measures the region from construction to drop. Obtain via [`span`]
/// / [`span_with_aux`]; inert (zero work beyond the constructor's one
/// atomic load) when both sinks are off.
#[must_use = "a span records its time when dropped — bind it to a variable"]
pub struct Span {
    key: &'static str,
    /// `None` only for inert spans — the disabled path must not even
    /// read the clock.
    start: Option<Instant>,
    /// Active sink bits (`PROFILE_ON` / `TRACE_ON`); 0 = inert.
    flags: u8,
    tid: u32,
    span_id: u64,
    parent: u64,
    trace_id: u64,
    start_ns: u64,
    aux: u64,
}

impl Span {
    #[inline]
    const fn inert() -> Span {
        Span {
            key: "",
            start: None,
            flags: 0,
            tid: 0,
            span_id: 0,
            parent: 0,
            trace_id: 0,
            start_ns: 0,
            aux: 0,
        }
    }

    /// Attaches an auxiliary value recorded with the span (serve uses
    /// it for batch sizes and cross-links). No-op when inert.
    pub fn set_aux(&mut self, aux: u64) {
        self.aux = aux;
    }

    /// The span's recorder id (0 when inert or profile-only) — pass as
    /// `parent` to [`record_complete`] to hang retro-spans under it.
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

/// Opens a span for `key`. One relaxed atomic load when disabled.
#[inline]
pub fn span(key: &'static str) -> Span {
    span_with_aux(key, 0)
}

/// [`span`] with an auxiliary u64 recorded alongside (flight recorder
/// only; the profile aggregate ignores it).
#[inline]
pub fn span_with_aux(key: &'static str, aux: u64) -> Span {
    let s = state();
    if s & (PROFILE_ON | TRACE_ON) == 0 {
        return Span::inert();
    }
    open_span(key, aux, s)
}

fn open_span(key: &'static str, aux: u64, s: u8) -> Span {
    if s & TRACE_ON == 0 {
        return profile_only(key);
    }
    let opened = CTX.try_with(|c| {
        let mut c = c.borrow_mut();
        if c.coarse {
            return None;
        }
        let tid = ensure_tid(&mut c);
        let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = c.parent;
        c.parent = span_id;
        Some((tid, c.trace_id, parent, span_id))
    });
    match opened {
        Ok(Some((tid, trace_id, parent, span_id))) => {
            let start = Instant::now();
            Span {
                key,
                start: Some(start),
                flags: s & (PROFILE_ON | TRACE_ON),
                tid,
                span_id,
                parent,
                trace_id,
                start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
                aux,
            }
        }
        // Inside a coarse scope, or during TLS teardown: profile only
        // (inert when profiling is off — not even a clock read).
        _ if s & PROFILE_ON != 0 => profile_only(key),
        _ => Span::inert(),
    }
}

/// A span feeding only the profile aggregate: by key on drop, no
/// recorder record.
fn profile_only(key: &'static str) -> Span {
    let mut sp = Span::inert();
    sp.key = key;
    sp.start = Some(Instant::now());
    sp.flags = PROFILE_ON;
    sp
}

/// Guard of a [`coarse`] scope: ends the open stage, then the scope's
/// own span, when dropped.
#[must_use = "a coarse scope ends when dropped — bind it to a variable"]
pub struct CoarseScope {
    stage: Option<Span>,
    /// This guard switched the thread to coarse recording (false when
    /// the recorder is off or an enclosing scope already did — then
    /// stages are not recorded either).
    active: bool,
    /// The scope's own span, recorded after its last stage when the
    /// guard drops.
    _span: Span,
}

/// Opens a span for `key` (with `aux`, as [`span_with_aux`]) and, until
/// the guard drops, keeps every other span opened on this thread out of
/// the flight recorder — see [Coarse scopes](self#coarse-scopes). Mark
/// the call's phases with [`CoarseScope::stage`]. One relaxed atomic load
/// when both sinks are off.
pub fn coarse(key: &'static str, aux: u64) -> CoarseScope {
    let span = span_with_aux(key, aux);
    let active =
        span.flags & TRACE_ON != 0 && CTX.try_with(|c| c.borrow_mut().coarse = true).is_ok();
    CoarseScope {
        stage: None,
        active,
        _span: span,
    }
}

impl CoarseScope {
    /// Closes the current stage (if any) and opens `key`/`aux` as the
    /// next one: a recorded child span of the scope lasting until the
    /// next `stage` call or the scope's end. No-op unless this scope
    /// records.
    pub fn stage(&mut self, key: &'static str, aux: u64) {
        if !self.active {
            return;
        }
        self.stage = None;
        let _ = CTX.try_with(|c| c.borrow_mut().coarse = false);
        self.stage = Some(span_with_aux(key, aux));
        let _ = CTX.try_with(|c| c.borrow_mut().coarse = true);
    }
}

impl Drop for CoarseScope {
    fn drop(&mut self) {
        self.stage = None;
        if self.active {
            let _ = CTX.try_with(|c| c.borrow_mut().coarse = false);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.flags == 0 {
            return;
        }
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        if self.flags & PROFILE_ON != 0 {
            crate::profile::record(self.key, dur.as_nanos());
        }
        if self.flags & TRACE_ON != 0 {
            // Pop the parent stack even if the ring drops the event.
            let _ = CTX.try_with(|c| c.borrow_mut().parent = self.parent);
            recorder().record(RawSpan {
                key_id: intern(self.key),
                tid: self.tid,
                span_id: self.span_id,
                parent: self.parent,
                trace_id: self.trace_id,
                start_ns: self.start_ns,
                dur_ns: dur.as_nanos() as u64,
                aux: self.aux,
            });
        }
    }
}

/// Records an already-elapsed region (phases only measurable
/// retroactively, e.g. queue wait observed at dequeue). `parent` 0
/// roots the span; returns the allocated span id (0 when tracing is
/// off) so callers can parent further retro-spans under it.
pub fn record_complete(
    key: &'static str,
    start: Instant,
    dur: Duration,
    trace_id: u64,
    parent: u64,
    aux: u64,
) -> u64 {
    if state() & TRACE_ON == 0 {
        return 0;
    }
    let tid = CTX
        .try_with(|c| ensure_tid(&mut c.borrow_mut()))
        .unwrap_or(0);
    let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    recorder().record(RawSpan {
        key_id: intern(key),
        tid,
        span_id,
        parent,
        trace_id,
        start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
        dur_ns: dur.as_nanos() as u64,
        aux,
    });
    span_id
}

// ---------------------------------------------------------------------
// Flight recorder ring.
// ---------------------------------------------------------------------

const SLOT_WORDS: usize = 7;

struct Slot {
    /// Seqlock word: 0 = never written, odd = writer mid-flight, even
    /// nonzero = stable (value `ticket * 2 + 2`).
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct RawSpan {
    key_id: u32,
    tid: u32,
    span_id: u64,
    parent: u64,
    trace_id: u64,
    start_ns: u64,
    dur_ns: u64,
    aux: u64,
}

struct Recorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl Recorder {
    fn with_capacity(cap: usize) -> Recorder {
        let cap = cap.clamp(16, 1 << 22);
        Recorder {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn record(&self, r: RawSpan) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let cur = slot.seq.load(Ordering::Relaxed);
        if cur & 1 == 1 {
            // A lapped writer still owns this slot — shed, never block.
            return;
        }
        if slot
            .seq
            .compare_exchange(cur, ticket * 2 + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        slot.words[0].store(
            u64::from(r.key_id) | (u64::from(r.tid) << 32),
            Ordering::Relaxed,
        );
        slot.words[1].store(r.span_id, Ordering::Relaxed);
        slot.words[2].store(r.parent, Ordering::Relaxed);
        slot.words[3].store(r.trace_id, Ordering::Relaxed);
        slot.words[4].store(r.start_ns, Ordering::Relaxed);
        slot.words[5].store(r.dur_ns, Ordering::Relaxed);
        slot.words[6].store(r.aux, Ordering::Relaxed);
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    fn snapshot(&self) -> Vec<RawSpan> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let words: [u64; SLOT_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn by a concurrent writer — skip
            }
            out.push(RawSpan {
                key_id: (words[0] & 0xFFFF_FFFF) as u32,
                tid: (words[0] >> 32) as u32,
                span_id: words[1],
                parent: words[2],
                trace_id: words[3],
                start_ns: words[4],
                dur_ns: words[5],
                aux: words[6],
            });
        }
        out.sort_by_key(|r| (r.start_ns, r.span_id));
        out
    }

    fn clear(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        self.head.store(0, Ordering::Relaxed);
    }
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| {
        let cap = std::env::var("T2FSNN_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(65_536);
        Recorder::with_capacity(cap)
    })
}

// ---------------------------------------------------------------------
// Snapshot + Chrome trace-event export.
// ---------------------------------------------------------------------

/// One completed span drained from the flight recorder.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// The span site's key (`sim/fire`, `serve/request`, …).
    pub key: &'static str,
    /// Recorder-assigned thread ordinal (1-based).
    pub tid: u32,
    /// Unique span id.
    pub span_id: u64,
    /// Enclosing span's id, 0 for roots.
    pub parent_id: u64,
    /// Request/batch trace id from the enclosing [`trace_scope`], 0 if
    /// none.
    pub trace_id: u64,
    /// Start, nanos since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanos.
    pub dur_ns: u64,
    /// Site-provided auxiliary value (batch size, cross-link, …).
    pub aux: u64,
}

/// Drains a consistent copy of the flight recorder, oldest first.
/// Empty when tracing never ran.
pub fn snapshot() -> Vec<SpanEvent> {
    let Some(rec) = RECORDER.get() else {
        return Vec::new();
    };
    let keys = key_registry().lock().unwrap().clone();
    rec.snapshot()
        .into_iter()
        .filter_map(|r| {
            // A torn slot that slipped the seqlock check can carry a
            // garbage key id; drop it rather than export junk.
            let key = *keys.get(r.key_id as usize)?;
            Some(SpanEvent {
                key,
                tid: r.tid,
                span_id: r.span_id,
                parent_id: r.parent,
                trace_id: r.trace_id,
                start_ns: r.start_ns,
                dur_ns: r.dur_ns,
                aux: r.aux,
            })
        })
        .collect()
}

/// Resets the recorder (drops all retained events). Races benignly
/// with concurrent writers; meant for tests and the debug endpoint.
pub fn clear() {
    if let Some(rec) = RECORDER.get() {
        rec.clear();
    }
}

/// Escapes `s` into `out` as JSON string *contents* (no surrounding
/// quotes). Shared with the structured logger.
pub(crate) fn json_escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders the current recorder contents as a Chrome trace-event JSON
/// document (`{"traceEvents":[...]}`): complete (`ph:"X"`) events in
/// microseconds plus thread-name metadata. Load it in Perfetto
/// (ui.perfetto.dev) or `chrome://tracing`.
pub fn chrome_trace_json() -> String {
    let events = snapshot();
    let names = thread_names().lock().unwrap().clone();
    let mut out = String::with_capacity(256 + events.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"t2fsnn\"}}",
    );
    for (tid, name) in &names {
        out.push_str(",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{tid}");
        out.push_str(",\"args\":{\"name\":\"");
        json_escape_into(&mut out, name);
        out.push_str("\"}}");
    }
    for e in &events {
        out.push_str(",{\"name\":\"");
        json_escape_into(&mut out, e.key);
        out.push_str("\",\"cat\":\"t2fsnn\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{}", e.tid);
        out.push_str(",\"ts\":");
        push_us(&mut out, e.start_ns);
        out.push_str(",\"dur\":");
        push_us(&mut out, e.dur_ns);
        let _ = write!(
            out,
            ",\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}",
            e.trace_id, e.span_id, e.parent_id
        );
        if e.aux != 0 {
            let _ = write!(out, ",\"aux\":{}", e.aux);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<usize> {
    let events = snapshot().len();
    std::fs::write(path, chrome_trace_json())?;
    Ok(events)
}

/// The export path from `T2FSNN_TRACE`, when the value names a file
/// (`1` enables recording without an export file; empty/`0` disables).
pub fn env_trace_path() -> Option<PathBuf> {
    let v = std::env::var("T2FSNN_TRACE").ok()?;
    if v.is_empty() || v == "0" || v == "1" {
        return None;
    }
    Some(PathBuf::from(v))
}

/// End-of-run hook for the repro binaries: when `T2FSNN_TRACE` names a
/// file, writes the Chrome trace there and reports to stderr.
pub fn export_env_trace() {
    let Some(path) = env_trace_path() else {
        return;
    };
    match write_chrome_trace(&path) {
        Ok(n) => eprintln!(
            "[trace] wrote {n} spans to {} (Chrome trace JSON)",
            path.display()
        ),
        Err(e) => eprintln!("[trace] FAILED writing {}: {e}", path.display()),
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};

    fn lock_state() -> std::sync::MutexGuard<'static, ()> {
        match test_lock().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn spans_nest_and_carry_trace_ids() {
        let _g = lock_state();
        set_enabled(true);
        clear();
        let trace = next_trace_id();
        let (outer_id, inner_parent);
        {
            let _scope = trace_scope(trace);
            let outer = span("test/outer");
            outer_id = outer.span_id;
            {
                let inner = span_with_aux("test/inner", 7);
                inner_parent = inner.parent;
                assert_eq!(inner.trace_id, trace);
            }
        }
        set_enabled(false);
        assert_eq!(inner_parent, outer_id, "inner span must parent under outer");
        let events = snapshot();
        let outer = events
            .iter()
            .find(|e| e.key == "test/outer")
            .expect("outer recorded");
        let inner = events
            .iter()
            .find(|e| e.key == "test/inner")
            .expect("inner recorded");
        assert_eq!(outer.parent_id, 0, "scope root has no parent");
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(inner.aux, 7);
        assert_eq!(outer.trace_id, trace);
        assert_eq!(inner.trace_id, trace);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(outer.tid > 0);
    }

    #[test]
    fn coarse_scope_records_only_itself_and_its_stages() {
        let _g = lock_state();
        set_enabled(true);
        clear();
        let trace = next_trace_id();
        let scope_id;
        {
            let _scope = trace_scope(trace);
            let mut coarse_scope = coarse("test/coarse", 3);
            scope_id = coarse_scope._span.span_id;
            {
                let _hidden = span("test/hidden");
            }
            for stage in 0..2u64 {
                coarse_scope.stage("test/stage", stage);
                let _hidden = span("test/hidden");
                // A nested scope records nothing either.
                let mut nested = coarse("test/nested", 0);
                nested.stage("test/nested_stage", 0);
            }
        }
        {
            let _s = span("test/after");
        }
        set_enabled(false);
        let events = snapshot();
        let keys: Vec<&str> = events.iter().map(|e| e.key).collect();
        for hidden in ["test/hidden", "test/nested", "test/nested_stage"] {
            assert!(!keys.contains(&hidden), "{hidden} leaked: {keys:?}");
        }
        let scope = events.iter().find(|e| e.key == "test/coarse").unwrap();
        assert_eq!(
            (scope.span_id, scope.aux, scope.trace_id),
            (scope_id, 3, trace)
        );
        let stages: Vec<&SpanEvent> = events.iter().filter(|e| e.key == "test/stage").collect();
        assert_eq!(stages.len(), 2);
        for (k, stage) in stages.iter().enumerate() {
            assert_eq!(stage.aux, k as u64);
            assert_eq!(stage.parent_id, scope_id, "stages hang under the scope");
            assert_eq!(stage.trace_id, trace);
            assert!(stage.start_ns + stage.dur_ns <= scope.start_ns + scope.dur_ns);
        }
        assert!(stages[0].start_ns + stages[0].dur_ns <= stages[1].start_ns);
        // Recording resumes when the scope ends.
        assert!(keys.contains(&"test/after"));
    }

    #[test]
    fn ring_keeps_most_recent_and_sheds_under_wrap() {
        let rec = Recorder::with_capacity(16);
        for i in 0..100u64 {
            rec.record(RawSpan {
                key_id: 0,
                tid: 1,
                span_id: i + 1,
                parent: 0,
                trace_id: 0,
                start_ns: i,
                dur_ns: 1,
                aux: i,
            });
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 16);
        for r in &snap {
            assert!(
                r.aux >= 84,
                "ring must retain the newest events, got aux {}",
                r.aux
            );
        }
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_snapshot() {
        let rec = Arc::new(Recorder::with_capacity(32));
        let barrier = Arc::new(Barrier::new(4));
        let torn = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = Arc::clone(&rec);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..2_000u64 {
                    // Every writer encodes its payload self-consistently:
                    // span_id == aux. A mixed write would break it.
                    let v = t * 1_000_000 + i;
                    rec.record(RawSpan {
                        key_id: 0,
                        tid: t as u32 + 1,
                        span_id: v,
                        parent: v,
                        trace_id: v,
                        start_ns: v,
                        dur_ns: v,
                        aux: v,
                    });
                }
            }));
        }
        for _ in 0..50 {
            for r in rec.snapshot() {
                if !(r.span_id == r.aux && r.span_id == r.trace_id) {
                    torn.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        for r in rec.snapshot() {
            assert_eq!(r.span_id, r.aux, "stable snapshot must be self-consistent");
        }
        assert_eq!(
            torn.load(Ordering::Relaxed),
            0,
            "seqlock let a torn record through"
        );
    }

    #[test]
    fn chrome_json_is_wellformed_and_escapes() {
        let _g = lock_state();
        set_enabled(true);
        clear();
        {
            let _s = span("test/chrome");
        }
        set_enabled(false);
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"test/chrome\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"thread_name\""));
        let mut escaped = String::new();
        json_escape_into(&mut escaped, "a\"b\\c\nd\u{1}");
        assert_eq!(escaped, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn record_complete_is_linked_and_exported() {
        let _g = lock_state();
        set_enabled(true);
        clear();
        let t0 = Instant::now();
        let id = record_complete("test/retro", t0, Duration::from_micros(250), 99, 0, 5);
        assert_ne!(id, 0);
        let child = record_complete(
            "test/retro_child",
            t0,
            Duration::from_micros(100),
            99,
            id,
            0,
        );
        set_enabled(false);
        let events = snapshot();
        let retro = events.iter().find(|e| e.key == "test/retro").unwrap();
        let kid = events.iter().find(|e| e.key == "test/retro_child").unwrap();
        assert_eq!(retro.span_id, id);
        assert_eq!(retro.dur_ns, 250_000);
        assert_eq!(retro.trace_id, 99);
        assert_eq!(kid.parent_id, id);
        assert_eq!(kid.span_id, child);
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = lock_state();
        set_enabled(false);
        set_profiling(false);
        clear();
        {
            let _s = span("test/off");
        }
        assert!(
            snapshot().iter().all(|e| e.key != "test/off"),
            "disabled span leaked into the recorder"
        );
        assert_eq!(current_trace_id(), 0);
        let scope = trace_scope(5);
        assert!(!scope.active);
    }
}
