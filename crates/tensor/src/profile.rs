//! Lightweight opt-in per-phase/per-op wall-clock profiler — the
//! *aggregate* sink of [`crate::trace`]'s span sites.
//!
//! Enabled by `T2FSNN_PROFILE=1`: every [`crate::trace::span`] close is
//! aggregated per key into a process-global view that `repro_fig6`
//! reports at exit and `t2fsnn-serve` exposes on
//! `/metrics`. When disabled (the default), a span site is one relaxed
//! atomic load — the enablement word lives in [`crate::trace`] and is
//! shared with the flight recorder, so one check serves both sinks.
//!
//! Keys are free-form `&'static str` labels, by convention `area/what`
//! (`sim/encode`, `op/conv_scatter_events`, `train/backward`, …).
//! Spans may **nest** — an `op/…` span usually runs inside a `sim/…`
//! or `ttfs/…` span — so the report shows *inclusive* times per key,
//! not a disjoint partition of wall clock.
//!
//! Aggregation is **sharded per thread with global drain**: each
//! thread owns a registered shard (its own mutex, uncontended on the
//! hot path), and [`entries`] drains *every live thread's* shard plus
//! the residue of exited threads — a reader always sees every closed
//! span, no matter which thread recorded it and whether it flushed.
//! (The old design only merged the calling thread's table on read,
//! so a `/metrics` scrape missed whatever the batcher thread had
//! accumulated since its last explicit flush — that blind spot is
//! gone.)

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::trace;

/// Aggregated numbers of one span key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The span key (`area/what`).
    pub key: &'static str,
    /// How many spans closed under this key.
    pub calls: u64,
    /// Total inclusive wall-clock, nanoseconds.
    pub nanos: u128,
}

/// Re-export: [`span`] returns the shared span guard from
/// [`crate::trace`] — one guard feeds both the aggregate table and the
/// flight recorder.
pub use crate::trace::Span;

type KeyMap = HashMap<&'static str, (u64, u128)>;

/// One thread's aggregate. The mutex is uncontended except while
/// [`entries`]/[`reset`] drain it.
#[derive(Default)]
struct Shard {
    map: Mutex<KeyMap>,
}

/// Residue of exited threads plus everything drained so far.
fn global() -> &'static Mutex<KeyMap> {
    static GLOBAL: OnceLock<Mutex<KeyMap>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Registry of live thread shards ([`Weak`] so exited threads don't
/// accumulate; pruned on every drain).
fn shards() -> &'static Mutex<Vec<Weak<Shard>>> {
    static SHARDS: OnceLock<Mutex<Vec<Weak<Shard>>>> = OnceLock::new();
    SHARDS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn merge(into: &mut KeyMap, from: KeyMap) {
    for (key, (calls, nanos)) in from {
        let slot = into.entry(key).or_insert((0, 0));
        slot.0 += calls;
        slot.1 += nanos;
    }
}

/// Thread-local handle keeping the shard alive; on thread exit the
/// drop folds the shard's remainder into the global residue.
struct ShardHandle(Arc<Shard>);

impl Drop for ShardHandle {
    fn drop(&mut self) {
        let residue = std::mem::take(&mut *lock(&self.0.map));
        if !residue.is_empty() {
            merge(&mut lock(global()), residue);
        }
    }
}

thread_local! {
    static LOCAL: ShardHandle = {
        let shard = Arc::new(Shard::default());
        lock(shards()).push(Arc::downgrade(&shard));
        ShardHandle(shard)
    };
}

/// Records one closed span: into the calling thread's shard when
/// available, straight into the global residue during thread teardown
/// (when the thread-local has already been destroyed).
pub(crate) fn record(key: &'static str, nanos: u128) {
    let direct = LOCAL
        .try_with(|local| {
            let mut map = lock(&local.0.map);
            let slot = map.entry(key).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += nanos;
        })
        .is_err();
    if direct {
        let mut table = lock(global());
        let slot = table.entry(key).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += nanos;
    }
}

/// Drains every live shard into the global residue and prunes dead
/// shard registrations. Shard locks are held one at a time and never
/// together with the global lock.
fn drain_all() {
    let live: Vec<Arc<Shard>> = {
        let mut registry = lock(shards());
        registry.retain(|w| w.strong_count() > 0);
        registry.iter().filter_map(Weak::upgrade).collect()
    };
    let mut drained: KeyMap = HashMap::new();
    for shard in live {
        merge(&mut drained, std::mem::take(&mut *lock(&shard.map)));
    }
    if !drained.is_empty() {
        merge(&mut lock(global()), drained);
    }
}

/// Kept for call sites that want to bound staleness explicitly (the
/// serve batcher calls it per batch); readers no longer depend on it —
/// [`entries`] drains every live thread itself.
pub fn flush() {
    let _ = LOCAL.try_with(|local| {
        let residue = std::mem::take(&mut *lock(&local.0.map));
        if !residue.is_empty() {
            merge(&mut lock(global()), residue);
        }
    });
}

/// Whether profile aggregation is active (`T2FSNN_PROFILE=1`, decided
/// once on first use; overridable via [`set_enabled`]).
#[inline]
pub fn enabled() -> bool {
    trace::state() & trace::PROFILE_ON != 0
}

/// Turns profile aggregation on or off at runtime.
pub fn set_enabled(on: bool) {
    trace::set_profiling(on);
}

/// Opens a span under `key`; time accrues until the returned guard
/// drops. A no-op unless [`enabled`] (or the flight recorder is on —
/// the guard serves both sinks).
#[inline]
pub fn span(key: &'static str) -> Span {
    trace::span(key)
}

/// All recorded entries, sorted by total time descending. Drains every
/// live thread's shard first, so spans closed by *any* thread are
/// visible — including long-lived threads that never flushed.
pub fn entries() -> Vec<Entry> {
    drain_all();
    let table = lock(global());
    let mut out: Vec<Entry> = table
        .iter()
        .map(|(&key, &(calls, nanos))| Entry { key, calls, nanos })
        .collect();
    out.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.key.cmp(b.key)));
    out
}

/// Clears the aggregate — every live shard and the global residue
/// (spans still open keep their start time and record into the fresh
/// table when they close).
pub fn reset() {
    drain_all();
    lock(global()).clear();
}

/// Prints the aggregated spans to stderr under a header — a no-op when
/// profiling is disabled or nothing was recorded. Written to stderr so
/// harnesses that capture a child's stdout still surface the
/// breakdown.
pub fn eprint_report(header: &str) {
    if !enabled() {
        return;
    }
    let entries = entries();
    if entries.is_empty() {
        return;
    }
    eprintln!("[profile] {header} (inclusive wall-clock per key; spans nest)");
    for e in &entries {
        eprintln!(
            "[profile]   {:<28} {:>12.3} ms  ({} calls)",
            e.key,
            e.nanos as f64 / 1e6,
            e.calls
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn lock_state() -> std::sync::MutexGuard<'static, ()> {
        match trace::test_lock().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Recording off → spans inert; recording on → spans aggregate per
    /// key, merged across threads at exit (the trace test lock
    /// serializes every test that toggles the process-global state).
    #[test]
    fn spans_are_inert_when_off_and_aggregate_when_on() {
        let _g = lock_state();
        let was_on = enabled();
        set_enabled(false);
        {
            let _s = span("test/disabled");
        }
        assert!(entries().iter().all(|e| e.key != "test/disabled"));

        set_enabled(true);
        reset();
        {
            let _a = span("test/a");
            let _b = span("test/b");
        }
        {
            let _a = span("test/a");
        }
        let recorded = entries();
        let a = recorded.iter().find(|e| e.key == "test/a").unwrap();
        assert_eq!(a.calls, 2);
        let b = recorded.iter().find(|e| e.key == "test/b").unwrap();
        assert_eq!(b.calls, 1);

        // Concurrent recorders: per-thread shards, drained on read.
        reset();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..300 {
                            let _s = span("test/worker");
                        }
                    })
                })
                .collect();
            for _ in 0..10 {
                let _s = span("test/worker");
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        let recorded = entries();
        let w = recorded.iter().find(|e| e.key == "test/worker").unwrap();
        assert_eq!(w.calls, 4 * 300 + 10);

        reset();
        set_enabled(was_on);
    }

    /// Satellite regression test for the flush blind spot: spans closed
    /// on threads that are still alive (and have *not* flushed) must be
    /// visible to another thread's [`entries`] call, with nesting
    /// aggregated per key.
    #[test]
    fn entries_drains_live_unflushed_threads() {
        let _g = lock_state();
        let was_on = enabled();
        set_enabled(true);
        reset();

        // Two phases: (A) workers record nested spans, then park;
        // main reads while they are alive. (B) release and join.
        let recorded = Barrier::new(3);
        let release = Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    {
                        let _outer = span("test/drain_outer");
                        let _inner = span("test/drain_inner");
                    }
                    recorded.wait();
                    release.wait(); // stay alive across the read
                });
            }
            recorded.wait();
            let live = entries();
            let outer = live
                .iter()
                .find(|e| e.key == "test/drain_outer")
                .expect("live thread's spans visible without flush");
            let inner = live.iter().find(|e| e.key == "test/drain_inner").unwrap();
            assert_eq!(outer.calls, 2, "both live threads drained");
            assert_eq!(inner.calls, 2);
            assert!(
                inner.nanos <= outer.nanos,
                "nested span cannot exceed its enclosing span's inclusive time"
            );
            release.wait();
        });

        // After the threads exit, a second read must not double-count:
        // the drain moved their counts into the global residue and the
        // exit-merge found empty shards.
        let after = entries();
        let outer = after.iter().find(|e| e.key == "test/drain_outer").unwrap();
        assert_eq!(outer.calls, 2, "drain + exit-merge must not double-count");

        reset();
        set_enabled(was_on);
    }
}
