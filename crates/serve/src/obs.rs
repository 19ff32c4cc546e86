//! Slow-request exemplars — the bounded ring behind `GET /debug/slow`.
//!
//! A latency histogram says *that* the tail exists; an exemplar says
//! *which request* was in it and where the time went. Every completed
//! inference whose end-to-end latency reaches the configured threshold
//! ([`crate::ServeConfig::slow_us`]) is captured here with its trace id,
//! so the operator can jump from the exemplar straight to the request's
//! span tree in `/debug/trace` (filter by `args.trace`).
//!
//! The ring is bounded ([`SlowLog::CAP`] entries, newest win) and
//! mutex-guarded — it is touched only on the slow path, by definition.

use std::collections::VecDeque;
use std::sync::Mutex;

use serde::Serialize;

/// One captured slow request.
#[derive(Debug, Clone, Serialize)]
pub struct SlowExemplar {
    /// The request's trace id (0 when tracing was off) — filter
    /// `/debug/trace` spans by `args.trace == <this>`.
    pub trace: u64,
    /// Trace id of the micro-batch that executed it.
    pub batch_trace: u64,
    /// Model that served the request.
    pub model: String,
    /// End-to-end latency, admission to response assembly (µs).
    pub total_us: u64,
    /// Time queued before its batch started (µs).
    pub queue_us: u64,
    /// Time its batch spent in inference (µs).
    pub infer_us: u64,
    /// Size of the micro-batch it executed in.
    pub batch_size: usize,
}

/// Bounded ring of the most recent slow requests.
#[derive(Default)]
pub struct SlowLog {
    entries: Mutex<VecDeque<SlowExemplar>>,
}

impl SlowLog {
    /// Ring capacity; the newest exemplars evict the oldest.
    pub const CAP: usize = 64;

    /// Captures one exemplar, evicting the oldest past [`Self::CAP`].
    pub fn record(&self, exemplar: SlowExemplar) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() == Self::CAP {
            entries.pop_front();
        }
        entries.push_back(exemplar);
    }

    /// The retained exemplars, oldest first.
    pub fn snapshot(&self) -> Vec<SlowExemplar> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.iter().cloned().collect()
    }

    /// Serialized `GET /debug/slow` body:
    /// `{"threshold_us":…,"exemplars":[…]}`.
    pub fn to_json(&self, threshold_us: u64) -> Vec<u8> {
        #[derive(Serialize)]
        struct Body {
            threshold_us: u64,
            exemplars: Vec<SlowExemplar>,
        }
        serde_json::to_vec(&Body {
            threshold_us,
            exemplars: self.snapshot(),
        })
        .unwrap_or_else(|_| b"{\"threshold_us\":0,\"exemplars\":[]}".to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplar(trace: u64, total_us: u64) -> SlowExemplar {
        SlowExemplar {
            trace,
            batch_trace: trace + 1,
            model: "tiny".into(),
            total_us,
            queue_us: total_us / 4,
            infer_us: total_us / 2,
            batch_size: 2,
        }
    }

    #[test]
    fn ring_keeps_newest_and_bounds_memory() {
        let log = SlowLog::default();
        for i in 0..(SlowLog::CAP as u64 + 10) {
            log.record(exemplar(i, 1000 + i));
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), SlowLog::CAP);
        assert_eq!(snap.first().unwrap().trace, 10, "oldest evicted");
        assert_eq!(snap.last().unwrap().trace, SlowLog::CAP as u64 + 9);
    }

    #[test]
    fn json_body_carries_threshold_and_fields() {
        let log = SlowLog::default();
        log.record(exemplar(7, 60_000));
        let body = String::from_utf8(log.to_json(50_000)).unwrap();
        assert!(body.contains("\"threshold_us\":50000"), "{body}");
        assert!(body.contains("\"trace\":7"), "{body}");
        assert!(body.contains("\"total_us\":60000"), "{body}");
        assert!(body.contains("\"model\":\"tiny\""), "{body}");
    }
}
