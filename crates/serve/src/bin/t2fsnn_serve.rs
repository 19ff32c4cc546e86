//! The serving binary: loads the registry from the scenario cache
//! (training on a cold cache), binds, and serves until the ctrl channel
//! (`POST /admin/shutdown`) asks it to stop.
//!
//! Configuration is environment-only (see [`t2fsnn_serve::ServeConfig`]):
//! `T2FSNN_SERVE_ADDR`, `T2FSNN_SERVE_MODELS`, `T2FSNN_SERVE_MAX_BATCH`,
//! `T2FSNN_SERVE_MAX_DELAY_US`, `T2FSNN_SERVE_QUEUE`,
//! `T2FSNN_SERVE_WORKERS`, `T2FSNN_SERVE_READ_TIMEOUT_MS`,
//! `T2FSNN_SERVE_MAX_BODY`, `T2FSNN_SERVE_DEADLINE_MS`,
//! `T2FSNN_SERVE_FAULTS`, `T2FSNN_SERVE_PERTURB`,
//! `T2FSNN_SERVE_MODEL_QUOTA`, `T2FSNN_SERVE_QUARANTINE_THRESHOLD`,
//! `T2FSNN_SERVE_QUARANTINE_BACKOFF_MS`, `T2FSNN_SERVE_TRACE`,
//! `T2FSNN_SERVE_SLOW_US` — plus the engine-wide
//! `T2FSNN_THREADS`/`T2FSNN_SIMD`/`T2FSNN_PROFILE` and the
//! observability pair `T2FSNN_TRACE` (flight recorder, exported at
//! `GET /debug/trace`) / `T2FSNN_LOG` (structured JSON-lines log level
//! on stderr).
//!
//! A model that fails to load does not kill the process: its slot
//! answers `503` and `/healthz` reports it, so a fleet can keep the
//! healthy models serving. Only a bind failure (or zero configured
//! model names) is fatal. At runtime the registry is mutable:
//! `POST /admin/models/<name>/{load,unload,reload}` hot-swap model
//! versions behind a canary gate, and a per-model circuit breaker
//! quarantines a model that keeps failing (see the crate docs).

use std::io::Write;

use t2fsnn_serve::{start, Registry, ServeConfig};
use t2fsnn_tensor::log;
use t2fsnn_tensor::perturb::PerturbSpec;

fn main() {
    let config = ServeConfig::from_env();
    // A malformed perturbation spec fails startup loudly: a robustness
    // run must never silently serve clean models.
    let perturb = match config.perturb.as_deref().map(PerturbSpec::parse) {
        None => None,
        Some(Ok(spec)) => Some(spec),
        Some(Err(e)) => {
            log::error(
                "startup_failed",
                &[("error", (&format!("bad T2FSNN_SERVE_PERTURB: {e}")).into())],
            );
            std::process::exit(2);
        }
    };
    let registry = match Registry::load_perturbed(&config.models, perturb.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            log::error("startup_failed", &[("error", (&e.to_string()).into())]);
            std::process::exit(2);
        }
    };
    if !registry.any_ready() {
        log::warn(
            "no_model_ready",
            &[("effect", "every inference will answer 503".into())],
        );
    }
    let handle = match start(config.clone(), registry) {
        Ok(h) => h,
        Err(e) => {
            let error = format!("cannot start on {}: {e}", config.addr);
            log::error("startup_failed", &[("error", (&error).into())]);
            std::process::exit(2);
        }
    };
    // The "listening" line is the readiness signal harnesses wait for;
    // flush so a piped parent sees it immediately.
    println!("[serve] listening on {}", handle.addr());
    println!(
        "[serve] models: {}; max_batch {}, max_delay {} µs, queue {}, workers {}",
        config.models.join(","),
        config.max_batch,
        config.max_delay_us,
        config.queue_capacity,
        config.workers,
    );
    if config.default_deadline_ms > 0 {
        println!("[serve] default deadline {} ms", config.default_deadline_ms);
    }
    if let Ok(spec) = std::env::var("T2FSNN_SERVE_FAULTS") {
        if !spec.trim().is_empty() {
            println!("[serve] FAULT INJECTION ACTIVE: {}", spec.trim());
        }
    }
    if let Some(spec) = &perturb {
        if spec.is_identity() {
            println!(
                "[serve] perturbation spec `{}` is identity: serving clean models",
                spec.render()
            );
        } else {
            println!("[serve] PERTURBATION ACTIVE: {}", spec.render());
        }
    }
    let _ = std::io::stdout().flush();
    handle.join();
    println!("[serve] shut down cleanly");
}
