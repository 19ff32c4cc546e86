//! The benchmark's own spans: one per timed call into the program,
//! kept in memory and written out as Chrome trace-event JSON when the
//! traced run ends.
//!
//! Timing is always taken (the untraced run needs the durations too);
//! only the span record is conditional, so both runs execute the same
//! benchmark code.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct SpanRecord {
    name: String,
    start: Instant,
    duration: Duration,
    thread: u64,
}

/// Span sink shared by every thread of a run.
pub struct Spans {
    on: AtomicBool,
    epoch: Instant,
    records: Mutex<Vec<SpanRecord>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Spans {
    /// A sink that records only once [`Spans::set_recording`] turns it on.
    pub fn new() -> Spans {
        Spans {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Starts or stops recording.
    pub fn set_recording(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Records a completed span when recording is on.
    pub fn record(&self, name: &str, start: Instant, duration: Duration) {
        if !self.on.load(Ordering::Relaxed) {
            return;
        }
        let thread = THREAD.with(|t| *t);
        self.records
            .lock()
            .expect("no thread panics while holding the span log")
            .push(SpanRecord {
                name: name.to_string(),
                start,
                duration,
                thread,
            });
    }

    /// Runs `f`, returning its result and wall time, and records a span
    /// named `name` around it.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let duration = start.elapsed();
        self.record(name, start, duration);
        (out, duration)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.records
            .lock()
            .expect("no thread panics while holding the span log")
            .len()
    }

    /// Writes every recorded span as Chrome trace-event JSON.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let records = self
            .records
            .lock()
            .expect("no thread panics while holding the span log");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = r.start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let _ = write!(
                out,
                "{{\"name\":{:?},\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                r.name,
                r.duration.as_secs_f64() * 1e6,
                r.thread
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
