//! Joins: the owned [`PreparedJoin`], the engine's prepared-join cache,
//! pair-level Step 0 and the admission-controlled join request.

use super::datasets::{adopt, DatasetArtifacts, DatasetHandle};
use super::obs::EngineObs;
use super::types::{Admission, DatasetId, EngineError, JoinResponse, Request, Response};
use super::{lock, SpatialEngine};
use crate::candidates::{self, CandidateSource};
use crate::config::{EngineConfig, JoinConfig};
use crate::cost::{estimate_cost, figure18_cost, CostModelParams, ExactCostKind};
use crate::execution::{run_steps, Execution};
use crate::filter::GeometricFilter;
use crate::pipeline::JoinResult;
use crate::stats::MultiStepStats;
use msj_approx::RasterStore;
use msj_exact::{ExactAlgorithm, ExactProcessor};
use msj_fault::FaultSession;
use msj_geom::{
    panic_message, CancelToken, LazyRelation, RelHandle, Relation, SharedBytes, WorkerPanic,
};
use msj_obs::Span;
use msj_store::Section;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-run statistics a [`PreparedJoin`] retains as admission history
/// ([`PreparedJoin::run_history`]).
pub const RUN_HISTORY: usize = 32;

/// What an engine's [`PreparedJoin`] answers to and a one-shot join
/// ([`crate::MultiStepJoin::execute`]) does not: instruments, §5
/// constants and the fault plan.
struct Serving {
    obs: Arc<EngineObs>,
    /// §5 constants for the trace-time estimate.
    params: CostModelParams,
    /// The engine's fault plan; every run arms a rearmed session of it.
    fault: FaultSession,
}

/// A join with Step 0 (preprocessing, the paper's "insertion time") done:
/// the Step-1 candidate source, the filter's stores and the exact-step
/// object representations are built, and Steps 1–3 can run —
/// repeatedly, under any [`Execution`] policy — without paying that cost
/// again. It is an **owned** value with no borrowed lifetime: both
/// relations and their Step-0 state are co-owned behind `Arc`, so it can
/// be cached, moved, held in an `Arc` and executed from any thread,
/// indefinitely. Every run takes `&self` — per-run mutability lives
/// inside the candidate source — so it serves concurrent callers.
///
/// Every run produces the identical response set (canonically sorted
/// under fused execution) and the identical statistics but for the
/// wall-clock `*_nanos` and the fused fan-out's
/// `peak_buffered_candidates`, whether runs follow each other or overlap
/// on several threads. The [`RUN_HISTORY`] most recent runs' statistics
/// are retained as the admission history the engine's §5 cost model
/// estimates from.
pub struct PreparedJoin {
    datasets: (DatasetId, DatasetId),
    /// Objects per side — all the a-priori §5 estimate needs.
    sizes: (usize, usize),
    execution: Execution,
    source: Box<dyn CandidateSource>,
    pub(super) filter: GeometricFilter,
    exact: ExactProcessor<'static>,
    /// Step-0 wall-clock, attached to every run's statistics.
    step0_nanos: u64,
    /// Whether runs read clocks and collect worker telemetry
    /// ([`msj_obs::ObsConfig::enabled`]).
    timed: bool,
    exact_cost_kind: ExactCostKind,
    serving: Option<Serving>,
    /// Bounded ring of per-run statistics, newest last (admission
    /// history).
    history: Mutex<VecDeque<MultiStepStats>>,
}

/// One side of a join being assembled: the relation, its dataset id and
/// its Step-0 artifacts.
type Side<'a> = (DatasetId, &'a Arc<LazyRelation>, &'a DatasetArtifacts);

impl PreparedJoin {
    /// The one assembly of Step-0 state into a runnable join — shared by
    /// the engine's cached pairs and the one-shot front. `filter` arrives
    /// with its pair-level raster stage already decided.
    fn assemble(
        config: &EngineConfig,
        (id_a, rel_a, arts_a): Side<'_>,
        (id_b, rel_b, arts_b): Side<'_>,
        filter: GeometricFilter,
        step0_nanos: u64,
        serving: Option<Serving>,
    ) -> PreparedJoin {
        // Lazy handles, only where read: a default join decodes neither.
        let handle = |relation: &Arc<LazyRelation>| RelHandle::from(relation.clone());
        let side_a = (handle(rel_a), arts_a.tree.clone());
        let side_b = (handle(rel_b), arts_b.tree.clone());
        let plan = &config.join;
        let source = candidates::source_with(plan, config.kernel_dispatch(), side_a, side_b);
        let exact = match (arts_a.trstar.clone(), arts_b.trstar.clone()) {
            (Some(a), Some(b)) => ExactProcessor::from_trees(plan.exact, a, b),
            _ => ExactProcessor::with_handles(plan.exact, handle(rel_a), handle(rel_b)),
        };
        PreparedJoin {
            datasets: (id_a, id_b),
            sizes: (rel_a.len(), rel_b.len()),
            execution: plan.execution,
            source,
            filter,
            exact,
            step0_nanos,
            timed: config.obs.enabled,
            exact_cost_kind: exact_cost_kind(plan),
            serving,
            history: Mutex::new(VecDeque::with_capacity(RUN_HISTORY)),
        }
    }

    /// Step 0 for both relations from scratch, outside any engine — what
    /// [`crate::MultiStepJoin::execute`] runs once and drops: timed, on
    /// the default kernel dispatch, with no fault plan. The filter is the
    /// plan's whole Step 2 ([`GeometricFilter::from_config`]), §5's
    /// approximations included. A self-join (`rel_a` is `rel_b`) copies
    /// and prepares its relation once and uses it on both sides.
    pub(crate) fn one_shot(plan: &JoinConfig, rel_a: &Relation, rel_b: &Relation) -> Self {
        let t_prep = Instant::now();
        let config = EngineConfig::from(*plan);
        let step0 = |rel: &Relation| {
            let rel = Arc::new(LazyRelation::resident(Arc::new(rel.clone())));
            let (artifacts, _) = DatasetArtifacts::build(&config, &rel, None, None);
            (rel, artifacts)
        };
        let a = step0(rel_a);
        let b = (!std::ptr::eq(rel_a, rel_b)).then(|| step0(rel_b));
        let ((rel_a, arts_a), (rel_b, arts_b)) = (&a, b.as_ref().unwrap_or(&a));
        let filter = GeometricFilter::from_config(plan, rel_a.get(), rel_b.get());
        let step0_nanos = t_prep.elapsed().as_nanos() as u64;
        let (a, b) = ((0, rel_a, arts_a), (1, rel_b, arts_b));
        Self::assemble(&config, a, b, filter, step0_nanos, None)
    }

    /// Runs Steps 1–3 under the configured execution policy.
    ///
    /// Panics on cancellation / worker panic; use
    /// [`Self::try_run_with`] when a deadline or fault plan is armed.
    pub fn run(&self) -> JoinResult {
        self.run_with(self.execution)
    }

    /// Runs Steps 1–3 under an explicit policy (the preparation is
    /// policy-independent), panicking on failure.
    pub fn run_with(&self, execution: Execution) -> JoinResult {
        match self.try_run_with(execution, None) {
            Ok(result) => result,
            Err(err) => panic!("prepared join failed: {err}"),
        }
    }

    /// Runs Steps 1–3 under an explicit policy — the one run function
    /// everything above and every join request goes through. The run
    /// polls `cancel` at every batch boundary and catches worker panics
    /// at the join boundary: deadline, cancellation and a panicking
    /// worker surface as structured errors instead of unwinding through
    /// the caller, leaving the prepared join reusable.
    ///
    /// On an engine's prepared join every run — successful or failed —
    /// records into the engine's registry and trace ring: direct runs
    /// and submitted requests are indistinguishable to the exporters.
    pub fn try_run_with(
        &self,
        execution: Execution,
        cancel: Option<&CancelToken>,
    ) -> Result<JoinResult, EngineError> {
        let serving = self.serving.as_ref();
        let session = serving.map_or_else(FaultSession::inert, |s| s.fault.rearm());
        let recorder = serving.filter(|s| s.obs.enabled);
        // The trace carries the estimate the run would have been
        // admitted under — taken before this run extends the history.
        let estimated_s = recorder
            .filter(|s| s.obs.traces.enabled())
            .map_or(0.0, |s| self.admission_estimate(&s.params).0);
        let t_run = recorder.map(|_| Span::start());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_steps(
                &*self.source,
                &self.filter,
                &self.exact,
                execution,
                self.timed,
                cancel,
                &session,
            )
        }));
        let latency_nanos = t_run.map_or(0, |t| t.elapsed_nanos());
        if let (Some(site), Some(serving)) = (session.fired(), serving) {
            serving.obs.fault_fired(site);
        }
        let outcome = match outcome {
            Ok(mut result) => match cancel.filter(|token| token.reason().is_some()) {
                Some(token) => Err(EngineError::from_cancel(
                    token,
                    result.stats.mbr_join.candidates,
                )),
                None => {
                    result.stats.step0_nanos = self.step0_nanos;
                    Ok(result)
                }
            },
            Err(payload) => {
                let panic = match payload.downcast::<WorkerPanic>() {
                    Ok(panic) => *panic,
                    Err(payload) => WorkerPanic {
                        worker: 0,
                        message: panic_message(payload.as_ref()),
                    },
                };
                Err(EngineError::WorkerPanicked {
                    worker: panic.worker,
                    message: panic.message,
                })
            }
        };
        match &outcome {
            Ok(result) => {
                let mut history = lock(&self.history);
                if history.len() == RUN_HISTORY {
                    history.pop_front();
                }
                history.push_back(result.stats);
                drop(history);
                if let Some(s) = recorder {
                    let kind = join_kind(self.datasets);
                    s.obs
                        .join_finished(kind, self.datasets, result, latency_nanos, estimated_s);
                }
            }
            Err(err) => {
                if let Some(s) = recorder {
                    s.obs
                        .join_failed(self.datasets, err, latency_nanos, estimated_s);
                }
            }
        }
        outcome
    }

    /// The joined dataset ids `(a, b)`.
    pub fn datasets(&self) -> (DatasetId, DatasetId) {
        self.datasets
    }

    /// Statistics of the most recent run, if any ran yet.
    pub fn last_stats(&self) -> Option<MultiStepStats> {
        lock(&self.history).back().copied()
    }

    /// Statistics of up to [`RUN_HISTORY`] most recent runs, oldest
    /// first.
    pub fn run_history(&self) -> Vec<MultiStepStats> {
        lock(&self.history).iter().copied().collect()
    }

    /// The §5 modeled cost this join would be admitted under right now:
    /// the observed history when a run happened (`from_history = true`),
    /// its Step-1 node visits priced as page accesses, the a-priori
    /// estimate otherwise.
    pub fn admission_estimate(&self, params: &CostModelParams) -> (f64, bool) {
        match self.last_stats() {
            Some(s) => {
                let cost = figure18_cost(&s, s.mbr_join.io.logical, self.exact_cost_kind, params);
                (cost.total_s(), true)
            }
            None => (
                a_priori_estimate(self.sizes.0, self.sizes.1, self.exact_cost_kind, params),
                false,
            ),
        }
    }
}

/// The §5 estimate for a join that never ran: on the paper's
/// cartographic workloads each object meets on the order of one join
/// partner (Table 2), so the larger side bounds the expected candidate
/// count. Needs only the dataset sizes — admission can refuse a request
/// before any pair-level Step 0 is built.
fn a_priori_estimate(
    len_a: usize,
    len_b: usize,
    kind: ExactCostKind,
    params: &CostModelParams,
) -> f64 {
    estimate_cost(len_a.max(len_b) as u64, 0, kind, params).total_s()
}

/// Request-kind label of a join over `datasets`.
fn join_kind((a, b): (DatasetId, DatasetId)) -> &'static str {
    if a == b {
        "self_join"
    } else {
        "join"
    }
}

pub(super) fn exact_cost_kind(config: &JoinConfig) -> ExactCostKind {
    match config.exact {
        ExactAlgorithm::TrStar { .. } => ExactCostKind::TrStar,
        _ => ExactCostKind::PlaneSweep,
    }
}

/// The engine's prepared-join cache: id-pair keyed, bounded by an LRU
/// count cap. Entries carry a recency stamp refreshed on every hit; an
/// insert beyond the cap evicts the stalest pair (its Step-0 state is
/// rebuilt transparently on next use — results are unaffected, only the
/// pair-level build cost is paid again).
pub(super) struct PreparedCache {
    cap: usize,
    clock: u64,
    map: HashMap<(DatasetId, DatasetId), (Arc<PreparedJoin>, u64)>,
}

impl PreparedCache {
    pub fn new(cap: usize) -> Self {
        PreparedCache {
            cap: cap.max(1),
            clock: 0,
            map: HashMap::new(),
        }
    }

    /// Cache lookup; a hit refreshes the entry's recency stamp.
    fn get(&mut self, key: (DatasetId, DatasetId)) -> Option<Arc<PreparedJoin>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&key).map(|(join, stamp)| {
            *stamp = clock;
            join.clone()
        })
    }

    /// Inserts `built` unless the key landed concurrently (the first
    /// insert wins — callers build outside the lock), then evicts
    /// least-recently-used entries beyond the cap. Returns the `Arc`
    /// actually cached and the number of evictions.
    fn insert(
        &mut self,
        key: (DatasetId, DatasetId),
        built: Arc<PreparedJoin>,
    ) -> (Arc<PreparedJoin>, u64) {
        self.clock += 1;
        let entry = self.map.entry(key).or_insert((built, 0));
        entry.1 = self.clock;
        let served = entry.0.clone();
        let mut evicted = 0;
        while self.map.len() > self.cap {
            let stalest = self.map.iter().min_by_key(|(_, (_, stamp))| *stamp);
            let Some(stalest) = stalest.map(|(&key, _)| key) else {
                break;
            };
            self.map.remove(&stalest);
            evicted += 1;
        }
        (served, evicted)
    }

    /// Drops every pair over dataset `id`.
    pub fn forget_dataset(&mut self, id: DatasetId) {
        self.map.retain(|&(a, b), _| a != id && b != id);
    }
}

impl SpatialEngine {
    /// The §5 cost the engine would model for `request` right now,
    /// plus whether that estimate is history-informed (`true` when the
    /// pair is already prepared and carries observed run statistics).
    /// `None` when the request names an unregistered dataset.
    ///
    /// This is the read-only face of the admission estimate: a network
    /// front uses it to derive `retry_after` hints for requests it
    /// sheds *before* they reach the engine (full queue, connection
    /// cap), keeping those hints on the same model admission itself
    /// applies. Selections are modeled as one index descent of
    /// page-access cost (coarse, a-priori — selections keep no
    /// per-pair history).
    pub fn estimate_request(&self, request: &Request) -> Option<(f64, bool)> {
        let (a, b) = match *request {
            Request::Join { a, b, .. } => (a, b),
            Request::SelfJoin { dataset, .. } => (dataset, dataset),
            Request::Point { dataset, .. } | Request::Window { dataset, .. } => {
                let handle = self.dataset(dataset)?;
                // One root-to-leaf descent plus a leaf page, in the
                // model's page-access currency.
                let depth = (handle.len().max(2) as f64).log2().ceil().max(1.0);
                return Some(((depth + 1.0) * self.params.page_access_ms / 1000.0, false));
            }
        };
        Some(self.join_estimate(&self.dataset(a)?, &self.dataset(b)?))
    }

    /// The admission estimate of a join: history is consulted when the
    /// pair was already prepared; otherwise the a-priori size-based
    /// estimate decides.
    fn join_estimate(&self, a: &DatasetHandle, b: &DatasetHandle) -> (f64, bool) {
        match self.cached_join((a.id(), b.id())) {
            Some(prepared) => prepared.admission_estimate(&self.params),
            None => {
                let kind = exact_cost_kind(&self.config.join);
                (
                    a_priori_estimate(a.len(), b.len(), kind, &self.params),
                    false,
                )
            }
        }
    }

    /// The cached prepared join of a dataset-id pair, if one was built
    /// (refreshes the pair's LRU recency).
    pub(super) fn cached_join(&self, key: (DatasetId, DatasetId)) -> Option<Arc<PreparedJoin>> {
        lock(&self.prepared).get(key)
    }

    /// The owned prepared join of two registered datasets, building it
    /// on first use and serving the cached `Arc` afterwards. A self-join
    /// is `prepare_join(&h, &h)`. Panics if either handle was registered
    /// on a different engine.
    ///
    /// Per-dataset Step-0 state (trees and TR* representations) is
    /// *shared* with the datasets — only the pair-level state (the raster
    /// signatures on the pair's shared grid, the Step-1 source wiring) is
    /// built here.
    pub fn prepare_join(&self, a: &DatasetHandle, b: &DatasetHandle) -> Arc<PreparedJoin> {
        self.assert_registered(a);
        self.assert_registered(b);
        let key = (a.id(), b.id());
        let obs = &self.obs;
        if let Some(prepared) = self.cached_join(key) {
            obs.cache_hits.inc();
            return prepared;
        }
        obs.cache_misses.inc();
        // Build outside the cache lock so a slow pair-level Step 0 never
        // blocks requests for other pairs; a concurrent double build is
        // harmless (both are deterministic over the same shared state)
        // and the first insert wins.
        let built = Arc::new(self.build_prepared(a, b));
        let (served, evicted) = lock(&self.prepared).insert(key, built);
        obs.cache_evictions.add(evicted);
        served
    }

    fn build_prepared(&self, a: &DatasetHandle, b: &DatasetHandle) -> PreparedJoin {
        let t_pair = self.obs.enabled.then(Instant::now);
        let (sa, sb) = (&a.state, &b.state);
        let arts_a = self.artifacts(sa);
        let arts_b = if Arc::ptr_eq(sa, sb) {
            arts_a.clone()
        } else {
            self.artifacts(sb)
        };
        let filter = match self.config.join.raster {
            true => self.attach_raster(a, b),
            false => GeometricFilter::disabled(),
        };
        // A self-join shares one dataset on both sides — count its
        // registration cost once.
        let datasets_step0 = if Arc::ptr_eq(sa, sb) {
            sa.step0_nanos
        } else {
            sa.step0_nanos + sb.step0_nanos
        };
        let step0_nanos = datasets_step0 + t_pair.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let serving = Serving {
            obs: self.obs.clone(),
            params: self.params,
            fault: self.fault.rearm(),
        };
        PreparedJoin::assemble(
            &self.config,
            (sa.id, &sa.relation, &arts_a),
            (sb.id, &sb.relation, &arts_b),
            filter,
            step0_nanos,
            Some(serving),
        )
    }

    /// Pair-level Step 0: the Step-2a raster stage, the engine's whole
    /// Step 2. Like every dataset artifact, the pair's signatures are
    /// adopted from its persisted segment when both sides decode, each is
    /// as long as its relation and the two share one grid; a self-join
    /// decodes `RasterA` alone and serves both sides from it. Otherwise —
    /// no segment, a stale tag, a corrupt side or a grid mismatch — both
    /// relations are rasterized on one shared grid (signatures are only
    /// comparable on the same grid, so they cannot be a per-dataset
    /// artifact) and written through. A section that was written but
    /// could not be used is counted under
    /// `msj_store_checksum_failures_total`.
    fn attach_raster(&self, a: &DatasetHandle, b: &DatasetHandle) -> GeometricFilter {
        let (sa, sb) = (&a.state, &b.state);
        let filter = GeometricFilter::disabled();
        let Some(backend) = &self.store else {
            return filter.with_raster(sa.relation.get(), sb.relation.get());
        };
        let read = self.with_store_fault(|tamper| backend.store.read_pair(sa.id, sb.id, tamper));
        let stored = read.ok().flatten().filter(|p| p.config_tag == self.tag);
        let mut corrupt: Vec<Section> = Vec::new();
        let decode = |b: SharedBytes| RasterStore::from_bytes(&b);
        let (stored, len) = (stored.as_ref(), RasterStore::len);
        let mut side =
            |section, objects| adopt(stored, section, objects, decode, len, &mut corrupt);
        let ra = side(Section::RasterA, sa.relation.len()).map(Arc::new);
        let rb = match Arc::ptr_eq(sa, sb) {
            true => ra.clone(),
            false => side(Section::RasterB, sb.relation.len()).map(Arc::new),
        };
        match (ra, rb) {
            (Some(ra), Some(rb)) if ra.grid() == rb.grid() => {
                return filter.with_shared_raster(ra, rb);
            }
            // Signatures on two grids are not comparable: neither side
            // can be trusted.
            (Some(_), Some(_)) => corrupt.extend([Section::RasterA, Section::RasterB]),
            _ => {}
        }
        self.obs.checksum_failed(&corrupt);
        let filter = filter.with_raster(sa.relation.get(), sb.relation.get());
        if let Some((ra, rb)) = filter.raster_stores() {
            let sections = [
                (Section::RasterA, ra.to_bytes()),
                (Section::RasterB, rb.to_bytes()),
            ];
            let _ = backend.store.write_pair(sa.id, sb.id, self.tag, &sections);
        }
        filter
    }

    pub(super) fn run_join_request(
        &self,
        a: DatasetId,
        b: DatasetId,
        execution: Option<Execution>,
        cancel: Option<&CancelToken>,
    ) -> Result<Response, EngineError> {
        let obs = &self.obs;
        // A token cancelled before any work begins short-circuits the
        // whole request — no admission, no preparation.
        if let Some(token) = cancel.filter(|token| token.is_cancelled()) {
            let err = EngineError::from_cancel(token, 0);
            match err {
                EngineError::DeadlineExceeded { .. } => obs.deadline_exceeded.inc(),
                _ => obs.cancelled.inc(),
            }
            return Err(err);
        }
        let (ha, hb) = (self.require(a)?, self.require(b)?);
        // Admission runs before any pair-level Step 0 is built: a
        // request the limit refuses must not pay the preparation the
        // limit exists to avoid.
        let (estimated_s, from_history) = self.join_estimate(&ha, &hb);
        if let Some(limit_s) = self.admission_limit().filter(|limit| estimated_s > *limit) {
            obs.admission_shed.inc();
            obs.trace(join_kind((a, b)), (a, b), |t| {
                t.admitted = false;
                t.estimated_s = estimated_s;
            });
            return Err(EngineError::AdmissionDenied {
                estimated_s,
                limit_s,
                from_history,
            });
        }
        obs.admission_accept.inc();
        let prepared = self.prepare_join(&ha, &hb);
        let plan = &self.config.join;
        let result = prepared.try_run_with(execution.unwrap_or(plan.execution), cancel)?;
        let (stats, kind) = (&result.stats, exact_cost_kind(plan));
        let cost = figure18_cost(stats, stats.mbr_join.io.logical, kind, &self.params);
        obs.admission_error(estimated_s, cost.total_s());
        Ok(Response::Join(JoinResponse {
            pairs: result.pairs,
            stats: result.stats,
            admission: Admission {
                estimated_s,
                from_history,
                cost,
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_cache_evicts_least_recently_used_beyond_cap() {
        let config = JoinConfig::default();
        let rel = msj_datagen::small_carto(8, 16.0, 2001);
        let join = || Arc::new(PreparedJoin::one_shot(&config, &rel, &rel));
        let mut cache = PreparedCache::new(2);
        let (ab, _) = cache.insert((0, 1), join());
        cache.insert((0, 2), join());
        // Touch (0,1) so (0,2) is the stalest pair, then overflow the cap.
        assert!(Arc::ptr_eq(&ab, &cache.get((0, 1)).unwrap()));
        assert_eq!(cache.insert((1, 2), join()).1, 1);
        assert!(Arc::ptr_eq(&ab, &cache.get((0, 1)).unwrap()));
        assert!(cache.get((0, 2)).is_none());
        // A concurrent double build keeps the first insert.
        let (served, evicted) = cache.insert((0, 1), join());
        assert!(Arc::ptr_eq(&served, &ab));
        assert_eq!(evicted, 0);
        cache.forget_dataset(1);
        assert!(cache.get((0, 1)).is_none() && cache.get((1, 2)).is_none());
    }
}
