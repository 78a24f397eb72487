//! The resident engine: registered datasets, owned prepared joins, and a
//! unified query-serving surface.
//!
//! The paper's whole economy is that Step-0 preprocessing — R*-trees,
//! raster signatures, TR*-tree object representations — is built *once*
//! and amortized over many executions
//! ("time and storage is invested in the representation of the spatial
//! objects", §4.2). A [`SpatialEngine`] makes that shape first-class:
//!
//! * [`SpatialEngine::register`] runs Step 0 for one relation and **owns**
//!   the result behind [`Arc`]; the returned [`DatasetHandle`] is a
//!   cheap, clonable, thread-safe reference;
//! * [`SpatialEngine::prepare_join`] assembles (and caches) an owned
//!   [`PreparedJoin`] from the two datasets' shared Step-0 state plus the
//!   pair-level raster signatures; it is shared across threads and
//!   re-run indefinitely, each run byte-identical in its response set;
//! * join, self-join, point and window queries go through one
//!   [`Request`]/[`Response`] surface ([`SpatialEngine::submit`],
//!   [`SpatialEngine::submit_batch`]), and every response carries the §5
//!   cost-model accounting ([`Admission`]): the admission-time estimate
//!   next to the observed breakdown;
//! * join requests are admission-controlled:
//!   [`SpatialEngine::with_admission_limit`] makes the engine refuse
//!   (with [`EngineError::AdmissionDenied`]) any join whose §5 modeled
//!   cost — from the prepared join's observed history, or the a-priori
//!   estimate before a first run — exceeds the limit.
//!
//! ```
//! use msj_core::{JoinConfig, Request, Response, SpatialEngine};
//!
//! let engine = SpatialEngine::new(JoinConfig::default());
//! let forests = engine.register(msj_datagen::small_carto(24, 20.0, 7));
//! let cities = engine.register(msj_datagen::small_carto(24, 20.0, 8));
//!
//! // A resident prepared join: Step 0 is already paid; every run is
//! // Steps 1–3 only.
//! let prepared = engine.prepare_join(&forests, &cities);
//! let first = prepared.run();
//!
//! // The same join through the serving surface, plus a point probe.
//! let responses = engine.submit_batch([
//!     Request::Join { a: forests.id(), b: cities.id(), execution: None },
//!     Request::Point { dataset: forests.id(), point: msj_geom::Point::new(0.0, 0.0) },
//! ]);
//! let Ok(Response::Join(join)) = &responses[0] else { panic!() };
//! assert_eq!(join.pairs, first.pairs);
//! assert!(responses[1].is_ok());
//! ```

mod datasets;
mod join;
mod obs;
mod select;
mod types;

pub use datasets::{DatasetHandle, StoreConfig};
pub use join::PreparedJoin;
pub use types::{
    Admission, DatasetId, EngineError, JoinResponse, Request, Response, SelectionResponse,
};

use crate::config::{EngineConfig, DEFAULT_PREPARED_CACHE_CAP};
use crate::cost::CostModelParams;
use datasets::{DatasetState, StoreBackend};
use join::PreparedCache;
use msj_fault::FaultSession;
use msj_geom::CancelToken;
use msj_obs::{MetricsRegistry, Trace};
use obs::EngineObs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

// Every lock in the engine guards plain data (Vec pushes, HashMap
// inserts, a bounded ring) that a worker panic can't leave half-written —
// the panic is contained at the run boundary before any guard here
// unwinds — so poisoning is recovered from rather than cascaded.

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The resident spatial query engine (see the module docs).
///
/// All methods take `&self`; the engine is `Send + Sync` and intended to
/// be shared (`Arc<SpatialEngine>`) across serving threads.
pub struct SpatialEngine {
    config: EngineConfig,
    params: CostModelParams,
    /// The §5 admission limit in seconds, stored as `f64` bits so it can
    /// be tightened or lifted at runtime through `&self` (a serving
    /// front adjusts it under load). `+inf` means *no limit*.
    admission_limit_bits: AtomicU64,
    /// The configured fault plan and its engine-wide latch: every join
    /// run, store load and wire session arms a [`FaultSession::rearm`] of
    /// it, so the plan fires at most once per engine and the run after
    /// an injected failure is fault-free — the recover-and-serve sequence
    /// the chaos suite exercises.
    fault: FaultSession,
    /// Registry + trace ring, `Arc`-shared into every prepared join.
    obs: Arc<EngineObs>,
    datasets: RwLock<Vec<Arc<DatasetState>>>,
    /// Prepared-join cache keyed by dataset-id pair, LRU-capped at
    /// [`DEFAULT_PREPARED_CACHE_CAP`].
    prepared: Mutex<PreparedCache>,
    /// The persistent artifact store, when armed
    /// ([`SpatialEngine::with_store`] / [`SpatialEngine::open`]).
    store: Option<StoreBackend>,
    /// Fingerprint of the artifact-shaping configuration fields,
    /// stamped into every written segment and checked on every load.
    tag: u64,
}

impl SpatialEngine {
    /// An engine applying `config`'s join plan to every dataset it
    /// registers and every query it serves. Takes a [`JoinConfig`]
    /// (instance settings at their defaults) or an [`EngineConfig`].
    ///
    /// # Panics
    ///
    /// If the plan sets `conservative`, `progressive` or
    /// `false_area_test`: the engine's Step 2 is the raster stage alone.
    /// The paper's §5 versions 2 and 3 run as a one-shot
    /// [`crate::MultiStepJoin`].
    ///
    /// [`JoinConfig`]: crate::JoinConfig
    pub fn new(config: impl Into<EngineConfig>) -> Self {
        let config = config.into();
        let plan = &config.join;
        assert!(
            plan.conservative.is_none() && plan.progressive.is_none() && !plan.false_area_test,
            "SpatialEngine runs no conservative, progressive or false-area stage; \
             run the paper's versions 2 and 3 through MultiStepJoin"
        );
        SpatialEngine {
            obs: Arc::new(EngineObs::new(config.obs, config.kernel_dispatch())),
            prepared: Mutex::new(PreparedCache::new(DEFAULT_PREPARED_CACHE_CAP)),
            tag: datasets::config_tag(&config.join),
            fault: FaultSession::new(config.fault),
            config,
            params: CostModelParams::default(),
            admission_limit_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            datasets: RwLock::new(Vec::new()),
            store: None,
        }
    }

    /// The engine's metrics registry: always present (and always
    /// renderable via [`MetricsRegistry::snapshot_json`] /
    /// [`MetricsRegistry::render_prometheus`]); with
    /// [`msj_obs::ObsConfig::disabled`] it stays at the described schema
    /// and records nothing.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs.registry
    }

    /// The retained request traces, oldest first — empty unless the
    /// engine was configured with [`msj_obs::ObsConfig::with_traces`].
    pub fn recent_traces(&self) -> Vec<Trace> {
        self.obs.traces.recent()
    }

    /// Enables admission control: join requests whose §5 modeled cost
    /// exceeds `limit_s` seconds are refused with
    /// [`EngineError::AdmissionDenied`] instead of executed.
    pub fn with_admission_limit(self, limit_s: f64) -> Self {
        self.set_admission_limit(Some(limit_s));
        self
    }

    /// Sets or lifts the admission limit at runtime (`None` = admit
    /// everything). Takes `&self`: a serving front tightens the limit
    /// under load without exclusive access to the engine.
    pub fn set_admission_limit(&self, limit_s: Option<f64>) {
        let value = limit_s.unwrap_or(f64::INFINITY);
        self.admission_limit_bits
            .store(value.to_bits(), Ordering::Release);
    }

    /// The currently configured admission limit, if any.
    pub fn admission_limit(&self) -> Option<f64> {
        let value = f64::from_bits(self.admission_limit_bits.load(Ordering::Acquire));
        (value != f64::INFINITY).then_some(value)
    }

    /// The configuration every dataset and query runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// A session of the engine's fault plan for a serving front's own
    /// (wire) injection sites. It shares the engine's latch: inert once
    /// the plan has fired anywhere on this engine.
    pub fn fault_session(&self) -> FaultSession {
        self.fault.rearm()
    }

    /// Serves one request.
    pub fn submit(&self, request: Request) -> Result<Response, EngineError> {
        self.submit_inner(request, None)
    }

    /// Serves one request under a caller-owned cancel token. Cancel the
    /// token from any thread (or arm it with a deadline via
    /// [`CancelToken::with_deadline`]) and the request stops
    /// cooperatively at the next batch boundary, returning
    /// [`EngineError::Cancelled`] / [`EngineError::DeadlineExceeded`].
    /// The engine stays fully serviceable afterwards.
    pub fn submit_with_cancel(
        &self,
        request: Request,
        cancel: &CancelToken,
    ) -> Result<Response, EngineError> {
        self.submit_inner(request, Some(cancel))
    }

    fn submit_inner(
        &self,
        request: Request,
        cancel: Option<&CancelToken>,
    ) -> Result<Response, EngineError> {
        // A single selection is a batch of one.
        let one = |mut batch: Vec<SelectionResponse>| {
            Response::Selection(batch.pop().expect("one response per probe"))
        };
        let result = match request {
            Request::Join { a, b, execution } => self.run_join_request(a, b, execution, cancel),
            Request::SelfJoin { dataset, execution } => {
                self.run_join_request(dataset, dataset, execution, cancel)
            }
            Request::Point { dataset, point } => self
                .require(dataset)
                .map(|handle| one(self.select(&handle, &[point]))),
            Request::Window { dataset, window } => self
                .require(dataset)
                .map(|handle| one(self.select(&handle, &[window]))),
        };
        if let Err(err) = &result {
            self.obs.request_failed(err);
        }
        result
    }

    /// Serves a batch of requests in order, one result per request.
    /// Failures are per-request — a denied or malformed request never
    /// blocks the rest of the batch.
    pub fn submit_batch(
        &self,
        requests: impl IntoIterator<Item = Request>,
    ) -> Vec<Result<Response, EngineError>> {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }
}

#[cfg(test)]
mod tests;
