//! The model registry: named, versioned, ready-to-serve T2FSNN models
//! loaded from the `T2FB` scenario cache of [`t2fsnn::scenario`] — a
//! *mutable* runtime component, not a boot-time constant.
//!
//! [`Registry::load`] resolves model names with [`Scenario::from_name`]
//! and loads them with [`prepare_network`], which reads only the cached
//! trained+normalized network (its key, network and accuracy sections,
//! seeking past the scenario's dataset) when warm and trains it when
//! cold — a server on a fresh machine comes up self-contained, just
//! slower on first boot. A model's input spec is its scenario's
//! [`Scenario::spec`]. The
//! DNN→SNN conversion and the compile of the model's execution plan
//! ([`t2fsnn_snn::SnnNetwork::plan`]) happen once per model *version* at load
//! time; every batch of that version shares the plan.
//!
//! Lifecycle: every slot is a small state machine
//! ([`SlotState`]) — `Ready`, `Loading` (a conversion/canary in flight;
//! an incumbent version keeps serving), `Failed`, `Unloaded`
//! (explicitly retired) and `Quarantined` (fenced off by the circuit
//! breaker, kept around for canary probes). Promotion is an **atomic
//! `Arc` swap** under a short [`RwLock`] write section: conversion,
//! training and the canary battery all run *off-lock* on the loader
//! thread, and the write lock is held only to exchange an
//! `Option<Arc<ServeModel>>` — readers never block on a load. In-flight
//! jobs hold their own `Arc` clone resolved at admission, so they
//! finish on the version they were admitted against even across a
//! swap.
//!
//! Loading is hardened: a model whose preparation or conversion fails
//! (including by panic — the load runs under
//! [`std::panic::catch_unwind`]) occupies a failed slot instead of
//! killing the process, and a failed *re*load rolls back to the
//! incumbent version. Requests for an unservable slot are answered
//! `503` with the reason, `/healthz` reports its state, and every other
//! model keeps serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use t2fsnn::scenario::{prepare_network, Scenario};
use t2fsnn::{NoiseConfig, T2fsnn, T2fsnnConfig};
use t2fsnn_data::DatasetSpec;
use t2fsnn_tensor::log;
use t2fsnn_tensor::perturb::PerturbSpec;

use crate::lifecycle;
use crate::protocol::{ModelHealth, ModelInfo};

/// One servable model version.
pub struct ServeModel {
    /// Registry name (the scenario name).
    pub name: String,
    /// Monotonic per-slot version, starting at 1; responses echo it so
    /// clients can verify which version answered.
    pub version: u64,
    /// The converted, ready-to-run model.
    pub model: T2fsnn,
    /// Input/output specification of the scenario dataset.
    pub spec: DatasetSpec,
    /// Source-DNN test accuracy (from the scenario cache).
    pub dnn_accuracy: f32,
    /// Weight rows rewritten by the load-time perturbation (0 = clean
    /// or event-only perturbation).
    pub perturbed_weight_rows: u64,
}

impl ServeModel {
    /// Flat image length a request must carry (`C·H·W`).
    pub fn input_len(&self) -> usize {
        self.spec.channels * self.spec.height * self.spec.width
    }

    /// `[C, H, W]` input dims.
    pub fn image_dims(&self) -> [usize; 3] {
        [self.spec.channels, self.spec.height, self.spec.width]
    }

    /// The `GET /v1/models` description of this model.
    pub fn info(&self) -> ModelInfo {
        ModelInfo {
            name: self.name.clone(),
            version: self.version,
            channels: self.spec.channels,
            height: self.spec.height,
            width: self.spec.width,
            classes: self.spec.classes,
            time_window: self.model.config().time_window,
            weighted_layers: self.model.weighted_count(),
            latency_steps: self.model.total_steps(),
            dnn_accuracy: self.dnn_accuracy,
        }
    }
}

/// Scenario lookup by stable name: [`Scenario::from_name`], kept under
/// the registry for callers that resolve model names through it.
pub fn scenario_by_name(name: &str) -> Option<Scenario> {
    Scenario::from_name(name)
}

/// Lifecycle state of one registry slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Loaded, canary-passed, serving.
    Ready,
    /// A load/reload is in flight on the loader thread; the incumbent
    /// version (if any) keeps serving until the new one is promoted.
    Loading,
    /// Load, conversion or canary failed and there is no incumbent to
    /// serve; requests answer `503` with the error.
    Failed,
    /// Explicitly retired via `POST /admin/models/<name>/unload`;
    /// requests answer `503` until a load brings it back.
    Unloaded,
    /// Fenced off by the per-model circuit breaker after repeated
    /// execution failures; only canary probes touch it until it
    /// re-admits.
    Quarantined,
}

impl SlotState {
    /// The state's wire string for `/healthz`.
    pub fn as_str(self) -> &'static str {
        match self {
            SlotState::Ready => "ready",
            SlotState::Loading => "loading",
            SlotState::Failed => "failed",
            SlotState::Unloaded => "unloaded",
            SlotState::Quarantined => "quarantined",
        }
    }
}

/// One named registry slot.
struct Slot {
    name: String,
    /// The serving version; `None` while failed/unloaded/quarantined or
    /// during an initial load.
    current: Option<Arc<ServeModel>>,
    state: SlotState,
    /// The most recent load/canary/quarantine message.
    error: Option<String>,
    /// Canary response digest recorded when the serving version was
    /// promoted; a reload's candidate must reproduce it bit-exact.
    digest: Option<u32>,
    /// Version number the next promoted load will carry.
    next_version: u64,
    /// Consecutive batch-execution failures (the breaker's counter).
    failures: u32,
    /// Quarantine trips so far (seeds the probe backoff jitter).
    trips: u32,
    /// Probes attempted since the current trip.
    probes: u32,
    /// When the next quarantine probe is due; `None` when one has been
    /// handed out (or the slot is not quarantined).
    next_probe_at: Option<Instant>,
    /// The fenced-off version, kept for canary probes and re-admission
    /// with its bits (and version) intact.
    quarantined: Option<Arc<ServeModel>>,
}

impl Slot {
    fn empty(name: &str) -> Slot {
        Slot {
            name: name.to_string(),
            current: None,
            state: SlotState::Failed,
            error: None,
            digest: None,
            next_version: 1,
            failures: 0,
            trips: 0,
            probes: 0,
            next_probe_at: None,
            quarantined: None,
        }
    }

    /// Whether a request naming this slot would be served right now.
    fn servable(&self) -> bool {
        self.state != SlotState::Quarantined && self.current.is_some()
    }

    fn version(&self) -> u64 {
        self.current
            .as_deref()
            .or(self.quarantined.as_deref())
            .map_or(0, |m| m.version)
    }
}

/// What a request's model name resolves to.
pub enum Resolution {
    /// A serving model, pinned: the `Arc` is cloned out of the slot, so
    /// the caller keeps this exact version across any later swap.
    Ready(Arc<ServeModel>),
    /// A configured model that cannot serve right now (`503`).
    Unavailable {
        /// The model's registry name.
        name: String,
        /// Why it cannot serve, echoed to the client.
        error: String,
    },
    /// A name the registry never heard of (`404`).
    Unknown,
}

/// When and how the per-model circuit breaker trips and probes.
#[derive(Debug, Clone, Copy)]
pub struct QuarantinePolicy {
    /// Consecutive batch-execution failures that trip the quarantine.
    pub threshold: u32,
    /// Base probe backoff; doubles per failed probe (capped at `<< 6`)
    /// plus deterministic seeded jitter of up to half the base.
    pub backoff: Duration,
    /// Seed of the backoff jitter stream (fixed → probe schedules are
    /// machine-independent for a given trip history).
    pub seed: u64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            threshold: 3,
            backoff: Duration::from_millis(250),
            seed: 0x51ED_CA4A,
        }
    }
}

/// What the loader thread needs to carry a load through off-lock.
pub struct LoadTicket {
    /// Slot name being (re)loaded.
    pub name: String,
    /// Version the candidate will carry if promoted.
    pub version: u64,
    /// Digest the candidate's canary battery must reproduce (`None` on
    /// a first load — the digest is recorded at promotion).
    pub expected_digest: Option<u32>,
    /// Whether an incumbent version (serving or quarantined) exists —
    /// i.e. whether a canary rejection has something to roll back to.
    pub replaces_incumbent: bool,
}

/// Named, versioned model slots behind a read-mostly lock. The first
/// *configured* slot is the default for requests that name none — even
/// when it cannot serve, so a broken default answers `503` rather than
/// silently serving a different model.
pub struct Registry {
    slots: RwLock<Vec<Slot>>,
    /// Perturbation applied to every load, boot and runtime alike (the
    /// robustness harness path); `None` = clean.
    perturb: Option<PerturbSpec>,
    policy: QuarantinePolicy,
}

impl Registry {
    /// Loads (training on a cold cache) every named scenario, converts
    /// it for TTFS serving with the scenario's time window and initial
    /// kernel, and gates it behind the canary battery
    /// ([`lifecycle::canary`]). A model that fails to load — by error,
    /// panic or canary rejection — degrades to a failed slot; the
    /// registry itself always comes up.
    ///
    /// # Errors
    ///
    /// Only an empty name list is a hard error: a server with nothing
    /// configured to serve is a deployment bug, not a degraded state.
    pub fn load(names: &[String]) -> Result<Registry, String> {
        Registry::load_perturbed(names, None)
    }

    /// [`Registry::load`] with an optional perturbation applied to every
    /// model as it comes up (the robustness harness path). Event
    /// families (`jitter`, `drop`) become the model's
    /// [`NoiseConfig`]; weight families (`wgauss`, `wstuck`,
    /// `wbitflip`) rewrite the converted weights through per-row seeded
    /// streams, so a given `(spec, model)` pair always serves the same
    /// bits. An identity spec (or `None`) loads clean models and counts
    /// nothing. The spec is remembered and applied identically to every
    /// *runtime* load, so a reload reproduces the boot bits.
    ///
    /// # Errors
    ///
    /// Only an empty name list is a hard error, as for
    /// [`Registry::load`].
    pub fn load_perturbed(
        names: &[String],
        spec: Option<&PerturbSpec>,
    ) -> Result<Registry, String> {
        if names.is_empty() {
            return Err("registry needs at least one model name".to_string());
        }
        let spec = spec.filter(|s| !s.is_identity()).copied();
        let slots = names
            .iter()
            .map(|name| Registry::boot_slot(name, spec.as_ref()))
            .collect();
        Ok(Registry {
            slots: RwLock::new(slots),
            perturb: spec,
            policy: QuarantinePolicy::default(),
        })
    }

    /// Replaces the breaker policy (call before serving starts).
    pub fn set_quarantine_policy(&mut self, policy: QuarantinePolicy) {
        self.policy = policy;
    }

    /// The perturbation spec every load applies (`None` = clean).
    pub fn perturb_spec(&self) -> Option<PerturbSpec> {
        self.perturb
    }

    /// Models currently serving with a non-identity perturbation.
    pub fn perturbed_models(&self) -> u64 {
        if self.perturb.is_none() {
            return 0;
        }
        self.read().iter().filter(|s| s.servable()).count() as u64
    }

    /// Weight rows rewritten across all serving perturbed models.
    pub fn perturbed_weight_rows(&self) -> u64 {
        self.read()
            .iter()
            .filter_map(|s| s.current.as_deref())
            .map(|m| m.perturbed_weight_rows)
            .sum()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<Slot>> {
        self.slots.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Slot>> {
        self.slots.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Boot-time slot: convert + canary synchronously (the readiness
    /// line must mean "these models serve"), no incumbent to fall back
    /// to.
    fn boot_slot(name: &str, spec: Option<&PerturbSpec>) -> Slot {
        let mut slot = Slot::empty(name);
        match Registry::convert_model(name, spec, 1) {
            Ok(model) => match lifecycle::canary(&model, None) {
                Ok(digest) => {
                    slot.current = Some(Arc::new(model));
                    slot.state = SlotState::Ready;
                    slot.digest = Some(digest);
                    slot.next_version = 2;
                }
                Err(e) => {
                    let error = format!("canary rejected `{name}`: {e}");
                    log::error(
                        "model_unavailable",
                        &[("model", name.into()), ("error", (&error).into())],
                    );
                    slot.error = Some(error);
                }
            },
            Err(error) => {
                log::error(
                    "model_unavailable",
                    &[("model", name.into()), ("error", (&error).into())],
                );
                slot.error = Some(error);
            }
        }
        slot
    }

    /// Reads (or trains) the network, converts and perturbs one model
    /// version, entirely off any registry lock. A panic anywhere inside
    /// costs this load, not the process.
    ///
    /// # Errors
    ///
    /// Returns the preparation/conversion failure (or panic) message.
    pub fn convert_model(
        name: &str,
        spec: Option<&PerturbSpec>,
        version: u64,
    ) -> Result<ServeModel, String> {
        let Some(scenario) = Scenario::from_name(name) else {
            return Err(format!("unknown scenario `{name}` (see /v1/models names)"));
        };
        log::info(
            "model_loading",
            &[("model", name.into()), ("version", version.into())],
        );
        // catch_unwind: a panic in cache/train/convert/perturb must cost
        // one load, not the process. Nothing mutable outlives the
        // closure.
        let data = scenario.spec();
        let loaded = catch_unwind(AssertUnwindSafe(|| {
            let (dnn, dnn_accuracy) = prepare_network(scenario);
            let mut config = T2fsnnConfig::new(scenario.time_window());
            if let Some(p) = spec {
                if p.has_event() {
                    config.noise = Some(NoiseConfig {
                        jitter: p.event_jitter,
                        drop_prob: p.event_drop,
                        seed: p.seed,
                    });
                }
            }
            T2fsnn::from_dnn(&dnn, config, scenario.initial_kernel()).and_then(|mut model| {
                let mut rows = 0u64;
                if let Some(p) = spec {
                    if p.has_weight() {
                        let (changed, total) = model.perturb_weights(p);
                        rows = changed;
                        let spec_text = p.render();
                        log::info(
                            "model_perturbed",
                            &[
                                ("model", name.into()),
                                ("rows_rewritten", changed.into()),
                                ("rows_total", total.into()),
                                ("spec", (&spec_text).into()),
                            ],
                        );
                    }
                }
                // Compile the execution plan now, so the load (not the
                // first request) pays for the weight re-layout.
                model
                    .network()
                    .plan(&[data.channels, data.height, data.width])?;
                Ok((model, dnn_accuracy, rows))
            })
        }));
        match loaded {
            Ok(Ok((model, dnn_accuracy, perturbed_weight_rows))) => {
                log::info(
                    "model_converted",
                    &[
                        ("model", name.into()),
                        ("version", version.into()),
                        ("weighted_layers", model.weighted_count().into()),
                        ("time_window", scenario.time_window().into()),
                        ("latency_steps", model.total_steps().into()),
                        ("dnn_accuracy", f64::from(dnn_accuracy).into()),
                    ],
                );
                Ok(ServeModel {
                    name: name.to_string(),
                    version,
                    model,
                    spec: data,
                    dnn_accuracy,
                    perturbed_weight_rows,
                })
            }
            Ok(Err(e)) => Err(format!("cannot convert `{name}` for serving: {e}")),
            Err(_) => Err(format!("panic while loading `{name}`")),
        }
    }

    /// Resolves a request's model name; `None` means the default (first
    /// configured) slot. A `Ready` resolution clones the slot's `Arc` —
    /// the caller is pinned to that version from here on.
    pub fn resolve(&self, name: Option<&str>) -> Resolution {
        let slots = self.read();
        let slot = match name {
            None => slots.first(),
            Some(n) => slots.iter().find(|s| s.name == n),
        };
        let Some(slot) = slot else {
            return Resolution::Unknown;
        };
        if slot.servable() {
            return Resolution::Ready(Arc::clone(slot.current.as_ref().expect("servable")));
        }
        let error = match slot.state {
            SlotState::Quarantined => slot
                .error
                .clone()
                .unwrap_or_else(|| "quarantined by the circuit breaker".to_string()),
            SlotState::Loading => "still loading".to_string(),
            SlotState::Unloaded => {
                format!(
                    "unloaded (POST /admin/models/{}/load restores it)",
                    slot.name
                )
            }
            _ => slot
                .error
                .clone()
                .unwrap_or_else(|| "failed to load".to_string()),
        };
        Resolution::Unavailable {
            name: slot.name.clone(),
            error,
        }
    }

    /// Resolves to a *ready* model only (legacy accessor; prefer
    /// [`Registry::resolve`] where `503` vs `404` matters).
    pub fn get(&self, name: Option<&str>) -> Option<Arc<ServeModel>> {
        match self.resolve(name) {
            Resolution::Ready(m) => Some(m),
            _ => None,
        }
    }

    /// Every serving model, in configured order.
    pub fn models(&self) -> Vec<Arc<ServeModel>> {
        self.read()
            .iter()
            .filter(|s| s.servable())
            .filter_map(|s| s.current.clone())
            .collect()
    }

    /// Whether a slot with this name exists (in any state).
    pub fn is_configured(&self, name: &str) -> bool {
        self.read().iter().any(|s| s.name == name)
    }

    /// Whether at least one model serves.
    pub fn any_ready(&self) -> bool {
        self.read().iter().any(Slot::servable)
    }

    /// One slot's `(state, version)` — version 0 when no version exists.
    pub fn lifecycle_state(&self, name: &str) -> Option<(SlotState, u64)> {
        self.read()
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.state, s.version()))
    }

    /// Per-slot lifecycle report for `/healthz`.
    pub fn health(&self) -> Vec<ModelHealth> {
        self.read()
            .iter()
            .map(|slot| ModelHealth {
                name: slot.name.clone(),
                available: slot.servable(),
                state: slot.state.as_str().to_string(),
                version: slot.version(),
                error: slot.error.clone(),
            })
            .collect()
    }

    /// Marks a slot `Loading` (creating it for a never-configured name)
    /// and hands the loader thread its ticket. The incumbent version,
    /// if any, keeps serving until [`Registry::promote`].
    ///
    /// # Errors
    ///
    /// Refuses when a load for this slot is already in flight.
    pub fn begin_load(&self, name: &str) -> Result<LoadTicket, String> {
        let mut slots = self.write();
        let slot = match slots.iter_mut().find(|s| s.name == name) {
            Some(slot) => slot,
            None => {
                slots.push(Slot::empty(name));
                slots.last_mut().expect("just pushed")
            }
        };
        if slot.state == SlotState::Loading {
            return Err(format!("a load of `{name}` is already in flight"));
        }
        let replaces_incumbent = slot.current.is_some() || slot.quarantined.is_some();
        let ticket = LoadTicket {
            name: name.to_string(),
            version: slot.next_version,
            expected_digest: slot.digest,
            replaces_incumbent,
        };
        slot.next_version += 1;
        slot.state = SlotState::Loading;
        Ok(ticket)
    }

    /// Promotes a canary-passed candidate: the atomic swap. In-flight
    /// jobs keep their pinned `Arc` to the old version; new admissions
    /// resolve the new one. Clears any quarantine and breaker state.
    ///
    /// # Errors
    ///
    /// Refuses when the slot left `Loading` since [`Registry::begin_load`]
    /// (e.g. an unload raced the load) — the candidate is discarded.
    pub fn promote(&self, name: &str, model: ServeModel, digest: u32) -> Result<u64, String> {
        let mut slots = self.write();
        let slot = slots
            .iter_mut()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("slot `{name}` vanished during load"))?;
        if slot.state != SlotState::Loading {
            return Err(format!(
                "slot `{name}` is {} (load superseded)",
                slot.state.as_str()
            ));
        }
        let version = model.version;
        slot.current = Some(Arc::new(model));
        slot.state = SlotState::Ready;
        slot.error = None;
        slot.digest = Some(digest);
        slot.failures = 0;
        slot.probes = 0;
        slot.next_probe_at = None;
        slot.quarantined = None;
        Ok(version)
    }

    /// Rejects an in-flight load (conversion failure or canary
    /// rejection) and rolls back: an incumbent keeps serving
    /// (`Ready`), a quarantined version stays fenced (`Quarantined`),
    /// otherwise the slot is `Failed`. The error is surfaced in
    /// `/healthz` either way.
    pub fn reject_load(&self, name: &str, error: String) {
        let mut slots = self.write();
        let Some(slot) = slots.iter_mut().find(|s| s.name == name) else {
            return;
        };
        if slot.state != SlotState::Loading {
            return;
        }
        slot.state = if slot.current.is_some() {
            SlotState::Ready
        } else if slot.quarantined.is_some() {
            SlotState::Quarantined
        } else {
            SlotState::Failed
        };
        slot.error = Some(error);
    }

    /// Retires a slot: the serving (or quarantined) version is dropped,
    /// requests answer `503` until a load brings the slot back, and the
    /// recorded digest is cleared so that a later load records a fresh
    /// reference (an unload+load is the operator's escape hatch for an
    /// intentionally changed artifact). Idempotent.
    ///
    /// # Errors
    ///
    /// Refuses a name that was never configured (`404` material).
    pub fn unload(&self, name: &str) -> Result<(), String> {
        let mut slots = self.write();
        let slot = slots
            .iter_mut()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("model `{name}` is not configured"))?;
        slot.current = None;
        slot.quarantined = None;
        slot.state = SlotState::Unloaded;
        slot.error = None;
        slot.digest = None;
        slot.failures = 0;
        slot.probes = 0;
        slot.next_probe_at = None;
        Ok(())
    }

    /// The circuit breaker's input: one batch execution outcome
    /// attributed to `name`. Success resets the consecutive-failure
    /// counter; `threshold` consecutive failures on a `Ready` slot trip
    /// the quarantine (the serving version is fenced off for probing
    /// and the first probe is scheduled). Returns the trip ordinal when
    /// this call tripped.
    pub fn record_execution(&self, name: &str, ok: bool) -> Option<u32> {
        let mut slots = self.write();
        let slot = slots.iter_mut().find(|s| s.name == name)?;
        if ok {
            slot.failures = 0;
            return None;
        }
        slot.failures += 1;
        if slot.state != SlotState::Ready || slot.failures < self.policy.threshold {
            return None;
        }
        slot.trips += 1;
        slot.failures = 0;
        slot.probes = 0;
        slot.quarantined = slot.current.take();
        slot.state = SlotState::Quarantined;
        slot.error = Some(format!(
            "quarantined after {} consecutive execution failures (trip {})",
            self.policy.threshold, slot.trips
        ));
        let now = Instant::now();
        schedule_probe(slot, now, &self.policy);
        Some(slot.trips)
    }

    /// Claims the next due quarantine probe, if any: returns the slot
    /// name, the fenced version and its recorded digest, and unarms the
    /// timer so the probe runs exactly once. The loader thread reports
    /// back via [`Registry::readmit`] or [`Registry::probe_failed`].
    pub fn due_probe(&self, now: Instant) -> Option<(String, Arc<ServeModel>, Option<u32>)> {
        let mut slots = self.write();
        let slot = slots.iter_mut().find(|s| {
            s.state == SlotState::Quarantined
                && s.quarantined.is_some()
                && s.next_probe_at.is_some_and(|at| now >= at)
        })?;
        slot.next_probe_at = None;
        Some((
            slot.name.clone(),
            Arc::clone(slot.quarantined.as_ref().expect("quarantined version")),
            slot.digest,
        ))
    }

    /// A probe's canary passed: the fenced version — bits and version
    /// number intact — goes back to serving. Returns its version.
    pub fn readmit(&self, name: &str) -> Option<u64> {
        let mut slots = self.write();
        let slot = slots
            .iter_mut()
            .find(|s| s.name == name && s.state == SlotState::Quarantined)?;
        slot.current = slot.quarantined.take();
        slot.state = SlotState::Ready;
        slot.error = None;
        slot.failures = 0;
        slot.probes = 0;
        slot.next_probe_at = None;
        slot.current.as_deref().map(|m| m.version)
    }

    /// A probe's canary failed: escalate the backoff and schedule the
    /// next probe.
    pub fn probe_failed(&self, name: &str, now: Instant, error: String) {
        let mut slots = self.write();
        let Some(slot) = slots
            .iter_mut()
            .find(|s| s.name == name && s.state == SlotState::Quarantined)
        else {
            return;
        };
        slot.probes += 1;
        slot.error = Some(format!(
            "quarantined (probe {} failed: {error})",
            slot.probes
        ));
        schedule_probe(slot, now, &self.policy);
    }
}

/// Deterministic seeded backoff: base `<< min(probes, 6)` plus jitter
/// of up to half that from a SplitMix64 stream keyed on
/// `(seed, name, trip, probe)` — the schedule depends only on the trip
/// history, never on wall-clock or thread timing.
fn schedule_probe(slot: &mut Slot, now: Instant, policy: &QuarantinePolicy) {
    let base_ms = (policy.backoff.as_millis() as u64).max(1) << slot.probes.min(6);
    let key = policy
        .seed
        .wrapping_add(fnv1a(slot.name.as_bytes()))
        .wrapping_add(u64::from(slot.trips) << 32)
        .wrapping_add(u64::from(slot.probes));
    let jitter = splitmix64(key) % (base_ms / 2 + 1);
    slot.next_probe_at = Some(now + Duration::from_millis(base_ms + jitter));
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_rejects_only_empty() {
        assert!(Registry::load(&[]).is_err());
    }

    #[test]
    fn unknown_scenario_degrades_to_unavailable() {
        let registry = Registry::load(&["not-a-scenario".to_string()]).unwrap();
        assert!(!registry.any_ready());
        assert!(registry.get(None).is_none());
        match registry.resolve(None) {
            Resolution::Unavailable { name, error } => {
                assert_eq!(name, "not-a-scenario");
                assert!(error.contains("unknown scenario"));
            }
            _ => panic!("expected Unavailable"),
        }
        match registry.resolve(Some("never-configured")) {
            Resolution::Unknown => {}
            _ => panic!("expected Unknown"),
        }
        let health = registry.health();
        assert_eq!(health.len(), 1);
        assert!(!health[0].available);
        assert_eq!(health[0].state, "failed");
        assert_eq!(health[0].version, 0);
        assert!(health[0].error.is_some());
    }

    /// The registry's network reader serves the network and spec that
    /// `prepare` would: the same `binfmt` bytes once converted.
    #[test]
    fn converted_model_matches_one_built_from_prepare() {
        let served = Registry::convert_model("tiny", None, 1).unwrap();
        let scenario = Scenario::Tiny;
        let prepared = t2fsnn::scenario::prepare(scenario);
        let reference = T2fsnn::from_dnn(
            &prepared.dnn,
            T2fsnnConfig::new(scenario.time_window()),
            scenario.initial_kernel(),
        )
        .unwrap();
        let bytes = |model: &T2fsnn| t2fsnn::binfmt::to_bytes(&serde::Serialize::to_value(model));
        assert_eq!(bytes(&served.model), bytes(&reference));
        assert_eq!(served.spec, prepared.test.spec);
        assert_eq!(
            served.dnn_accuracy.to_bits(),
            prepared.dnn_accuracy.to_bits()
        );
    }

    #[test]
    fn tiny_model_loads_and_describes_itself() {
        let registry = Registry::load(&["tiny".to_string()]).unwrap();
        let model = registry.get(None).unwrap();
        assert_eq!(model.name, "tiny");
        assert_eq!(model.version, 1);
        assert_eq!(model.input_len(), 16 * 16);
        let info = model.info();
        assert_eq!(info.classes, 4);
        assert_eq!(info.version, 1);
        assert!(info.weighted_layers >= 2);
        assert_eq!(registry.get(Some("tiny")).unwrap().name, "tiny");
        assert!(registry.get(Some("missing")).is_none());
        assert!(registry.any_ready());
        let health = registry.health();
        assert!(health[0].available);
        assert_eq!(health[0].state, "ready");
        assert_eq!(health[0].version, 1);
    }

    #[test]
    fn perturbed_load_is_deterministic_and_counted() {
        let spec = PerturbSpec::parse("7:jitter=2,drop=0.1,wstuck=0.5").unwrap();
        let names = ["tiny".to_string()];
        let a = Registry::load_perturbed(&names, Some(&spec)).unwrap();
        let b = Registry::load_perturbed(&names, Some(&spec)).unwrap();
        assert_eq!(a.perturbed_models(), 1);
        assert!(a.perturbed_weight_rows() > 0, "wstuck=0.5 must hit rows");
        // Same spec, fresh load: the same rows are rewritten.
        assert_eq!(a.perturbed_weight_rows(), b.perturbed_weight_rows());
        // Event families flow into the model's noise config.
        let model = a.get(None).unwrap();
        let noise = model.model.config().noise.expect("noise config set");
        assert_eq!(noise.jitter, 2);
        assert_eq!(noise.seed, 7);
        assert_eq!(model.perturbed_weight_rows, a.perturbed_weight_rows());
        // An identity spec loads clean and counts nothing.
        let clean = Registry::load_perturbed(&names, Some(&PerturbSpec::identity(7))).unwrap();
        assert_eq!(clean.perturbed_models(), 0);
        assert_eq!(clean.perturbed_weight_rows(), 0);
        let clean_model = clean.get(None).unwrap();
        assert!(clean_model.model.config().noise.is_none());
        assert_eq!(clean_model.perturbed_weight_rows, 0);
    }

    #[test]
    fn mixed_registry_serves_the_ready_model() {
        let registry = Registry::load(&["tiny".to_string(), "bogus".to_string()]).unwrap();
        assert!(registry.any_ready());
        assert_eq!(registry.models().len(), 1);
        assert!(registry.get(Some("tiny")).is_some());
        match registry.resolve(Some("bogus")) {
            Resolution::Unavailable { .. } => {}
            _ => panic!("expected Unavailable"),
        }
    }

    #[test]
    fn reload_promotes_a_new_version_and_rejection_rolls_back() {
        let registry = Registry::load(&["tiny".to_string()]).unwrap();
        let v1 = registry.get(None).unwrap();
        assert_eq!(v1.version, 1);

        // Reload: the incumbent serves while Loading, and the recorded
        // digest gates the candidate.
        let ticket = registry.begin_load("tiny").unwrap();
        assert_eq!(ticket.version, 2);
        assert!(ticket.replaces_incumbent);
        let expected = ticket.expected_digest.expect("boot digest recorded");
        assert!(registry.begin_load("tiny").is_err(), "double load refused");
        assert_eq!(
            registry.lifecycle_state("tiny"),
            Some((SlotState::Loading, 1))
        );
        assert!(
            registry.get(None).is_some(),
            "incumbent serves while loading"
        );

        // A rejected candidate rolls back to the incumbent.
        registry.reject_load("tiny", "canary rejected: injected".to_string());
        assert_eq!(
            registry.lifecycle_state("tiny"),
            Some((SlotState::Ready, 1))
        );
        let still_v1 = registry.get(None).unwrap();
        assert!(Arc::ptr_eq(&v1, &still_v1), "old Arc keeps serving");
        assert!(registry.health()[0]
            .error
            .as_deref()
            .unwrap()
            .contains("canary"));

        // A promoted candidate swaps atomically; pinned Arcs survive.
        let ticket = registry.begin_load("tiny").unwrap();
        assert_eq!(ticket.version, 3);
        let model = Registry::convert_model("tiny", None, ticket.version).expect("tiny converts");
        let digest = crate::lifecycle::canary(&model, ticket.expected_digest)
            .expect("same scenario, same bits");
        assert_eq!(digest, expected, "deterministic conversion, same digest");
        registry.promote("tiny", model, digest).unwrap();
        let v3 = registry.get(None).unwrap();
        assert_eq!(v3.version, 3);
        assert_eq!(v1.version, 1, "pinned old version intact");
    }

    #[test]
    fn unload_retires_and_load_restores() {
        let registry = Registry::load(&["tiny".to_string()]).unwrap();
        registry.unload("tiny").unwrap();
        assert!(!registry.any_ready());
        assert_eq!(
            registry.lifecycle_state("tiny"),
            Some((SlotState::Unloaded, 0))
        );
        match registry.resolve(Some("tiny")) {
            Resolution::Unavailable { error, .. } => assert!(error.contains("unloaded")),
            _ => panic!("expected Unavailable"),
        }
        assert!(registry.unload("nope").is_err());
        // A fresh load has no digest to match (unload cleared it) and
        // brings the slot back at the next version.
        let ticket = registry.begin_load("tiny").unwrap();
        assert_eq!(ticket.expected_digest, None);
        assert!(!ticket.replaces_incumbent);
        let model = Registry::convert_model("tiny", None, ticket.version).unwrap();
        let digest = crate::lifecycle::canary(&model, None).unwrap();
        registry.promote("tiny", model, digest).unwrap();
        assert!(registry.any_ready());
        assert_eq!(registry.get(None).unwrap().version, 2);
    }

    #[test]
    fn unload_during_load_supersedes_the_promotion() {
        let registry = Registry::load(&["tiny".to_string()]).unwrap();
        let ticket = registry.begin_load("tiny").unwrap();
        registry.unload("tiny").unwrap();
        let model = Registry::convert_model("tiny", None, ticket.version).unwrap();
        let digest = crate::lifecycle::canary(&model, None).unwrap();
        assert!(registry.promote("tiny", model, digest).is_err());
        assert_eq!(
            registry.lifecycle_state("tiny"),
            Some((SlotState::Unloaded, 0))
        );
    }

    #[test]
    fn breaker_trips_probes_and_readmits_deterministically() {
        let mut registry = Registry::load(&["tiny".to_string()]).unwrap();
        registry.set_quarantine_policy(QuarantinePolicy {
            threshold: 3,
            backoff: Duration::from_millis(50),
            seed: 9,
        });
        let v1 = registry.get(None).unwrap();
        // Successes reset the counter; only consecutive failures trip.
        assert_eq!(registry.record_execution("tiny", false), None);
        assert_eq!(registry.record_execution("tiny", false), None);
        assert_eq!(registry.record_execution("tiny", true), None);
        assert_eq!(registry.record_execution("tiny", false), None);
        assert_eq!(registry.record_execution("tiny", false), None);
        let tripped = registry.record_execution("tiny", false);
        assert_eq!(tripped, Some(1));
        assert_eq!(
            registry.lifecycle_state("tiny"),
            Some((SlotState::Quarantined, 1))
        );
        assert!(registry.get(Some("tiny")).is_none());
        assert!(!registry.any_ready());

        // The probe is due after the deterministic backoff, not before.
        let now = Instant::now();
        assert!(registry.due_probe(now).is_none());
        let later = now + Duration::from_millis(200);
        let (name, fenced, digest) = registry.due_probe(later).expect("probe due");
        assert_eq!(name, "tiny");
        assert!(
            Arc::ptr_eq(&fenced, &v1),
            "probes run on the fenced version"
        );
        assert!(digest.is_some());
        // Claimed: no double probe until the outcome is reported.
        assert!(registry.due_probe(later).is_none());

        // A failed probe escalates; a passed probe re-admits v1 intact.
        registry.probe_failed("tiny", later, "still broken".to_string());
        let next = later + Duration::from_millis(400);
        let (_, _, _) = registry.due_probe(next).expect("escalated probe due");
        assert_eq!(registry.readmit("tiny"), Some(1));
        assert_eq!(
            registry.lifecycle_state("tiny"),
            Some((SlotState::Ready, 1))
        );
        let back = registry.get(Some("tiny")).unwrap();
        assert!(Arc::ptr_eq(&back, &v1), "re-admission preserves the bits");
    }
}
