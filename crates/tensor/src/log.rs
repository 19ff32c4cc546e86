//! Std-only leveled JSON-lines structured logger.
//!
//! One event per stderr line, machine-parseable, human-skimmable:
//!
//! ```text
//! {"ts_ms":1723111845123,"level":"info","event":"model_promoted","model":"tiny","version":3}
//! ```
//!
//! The threshold comes from `T2FSNN_LOG` (`error`, `warn`, `info`
//! (default), `debug`, or `off`/`0`), decided once and cached — a
//! suppressed call site is one relaxed atomic load. Each line is
//! written with a single locked write, so lines from concurrent
//! threads never interleave. Lines go through `eprint!` rather than a
//! raw `stderr()` handle so the test harness captures them: an
//! uncaptured line from an in-process server would otherwise land in
//! the middle of the harness's own `test name ... ok` result lines.
//!
//! Call sites pass an event name plus typed key/value fields:
//!
//! ```
//! use t2fsnn_tensor::log;
//! log::info("model_promoted", &[("model", "tiny".into()), ("version", 3u64.into())]);
//! ```
//!
//! Field keys are emitted verbatim after the built-in `ts_ms`, `level`
//! and `event` keys; avoid reusing those three.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::trace::json_escape_into;

/// Log severities, most severe first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Unrecoverable or correctness-relevant conditions.
    Error = 0,
    /// Degradations the operator should know about (quarantine trips,
    /// canary rejections, injected faults).
    Warn = 1,
    /// Lifecycle milestones (loads, promotions, unloads). Default.
    Info = 2,
    /// Per-decision detail (probe scheduling, slow-request exemplars).
    Debug = 3,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

const UNDECIDED: u8 = u8::MAX;
/// Threshold encoding: `most verbose level + 1` (0 = everything off),
/// so `enabled` is a single strict compare against one atomic.
const OFF: u8 = 0;

static THRESHOLD: AtomicU8 = AtomicU8::new(UNDECIDED);

#[inline]
fn threshold() -> u8 {
    let t = THRESHOLD.load(Ordering::Relaxed);
    if t != UNDECIDED {
        t
    } else {
        decide()
    }
}

#[cold]
fn decide() -> u8 {
    let t = match std::env::var("T2FSNN_LOG").ok().as_deref() {
        Some("error") => Level::Error as u8 + 1,
        Some("warn") => Level::Warn as u8 + 1,
        Some("debug") => Level::Debug as u8 + 1,
        Some("off") | Some("0") | Some("none") => OFF,
        // `info`, unset, or unrecognized: the default.
        _ => Level::Info as u8 + 1,
    };
    let _ = THRESHOLD.compare_exchange(UNDECIDED, t, Ordering::Relaxed, Ordering::Relaxed);
    THRESHOLD.load(Ordering::Relaxed)
}

/// Overrides the `T2FSNN_LOG` threshold at runtime; `None` silences
/// everything.
pub fn set_level(level: Option<Level>) {
    THRESHOLD.store(level.map_or(OFF, |l| l as u8 + 1), Ordering::Relaxed);
}

/// Would an event at `level` be emitted? One relaxed atomic load —
/// guard expensive field construction with this.
#[inline]
pub fn enabled(level: Level) -> bool {
    (level as u8) < threshold()
}

/// A typed field value. Use the `From` impls: `"x".into()`,
/// `3u64.into()`, `2.5f64.into()`, `true.into()`.
pub enum Value<'a> {
    /// JSON string (escaped on emit).
    Str(&'a str),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (`NaN`/infinite emit as `null`, like JSON demands).
    F64(f64),
    /// Boolean.
    Bool(bool),
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl<'a> From<&'a String> for Value<'a> {
    fn from(v: &'a String) -> Self {
        Value::Str(v)
    }
}
impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Renders one event line (without the trailing newline). Public to
/// the crate for tests; emission goes through [`log`].
fn render(level: Level, event: &str, fields: &[(&str, Value<'_>)]) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis() as u64;
    let mut out = String::with_capacity(80 + fields.len() * 24);
    out.push_str("{\"ts_ms\":");
    out.push_str(&ts_ms.to_string());
    out.push_str(",\"level\":\"");
    out.push_str(level.name());
    out.push_str("\",\"event\":\"");
    json_escape_into(&mut out, event);
    out.push('"');
    for (key, value) in fields {
        out.push_str(",\"");
        json_escape_into(&mut out, key);
        out.push_str("\":");
        match value {
            Value::Str(s) => {
                out.push('"');
                json_escape_into(&mut out, s);
                out.push('"');
            }
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// Emits one event at `level` if it clears the threshold.
pub fn log(level: Level, event: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled(level) {
        return;
    }
    let mut line = render(level, event, fields);
    line.push('\n');
    eprint!("{line}");
}

/// [`log`] at [`Level::Error`].
pub fn error(event: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Error, event, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(event: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Warn, event, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(event: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Info, event, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(event: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Debug, event, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_typed_fields() {
        let line = render(
            Level::Warn,
            "canary \"rejected\"",
            &[
                ("model", "a\nb".into()),
                ("version", 3u64.into()),
                ("delta", (-2i64).into()),
                ("ratio", 0.5f64.into()),
                ("nan", f64::NAN.into()),
                ("ok", false.into()),
            ],
        );
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(line.contains("\"level\":\"warn\""), "{line}");
        assert!(
            line.contains("\"event\":\"canary \\\"rejected\\\"\""),
            "{line}"
        );
        assert!(line.contains("\"model\":\"a\\nb\""), "{line}");
        assert!(line.contains("\"version\":3"), "{line}");
        assert!(line.contains("\"delta\":-2"), "{line}");
        assert!(line.contains("\"ratio\":0.5"), "{line}");
        assert!(line.contains("\"nan\":null"), "{line}");
        assert!(line.contains("\"ok\":false"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }

    #[test]
    fn threshold_orders_levels() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        set_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(None);
        assert!(!enabled(Level::Error));
        // Restore the env-derived default for any test that follows.
        set_level(Some(Level::Info));
    }
}
