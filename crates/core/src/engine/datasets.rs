//! The dataset registry: Step 0 per registered relation, the persistent
//! store backend, and the residency accounting its byte budget evicts by.

use super::obs::{EngineObs, PERSIST};
use super::types::{DatasetId, EngineError};
use super::{lock, read, write, SpatialEngine};
use crate::candidates;
use crate::config::{Backend, EngineConfig, JoinConfig};
use crate::queries::SelectionState;
use msj_approx::{ConservativeStore, ProgressiveStore};
use msj_exact::{ExactAlgorithm, TrStarStore};
use msj_geom::{bytes::shrink_before_free, LazyRelation, Relation, SharedBytes};
use msj_obs::Gauge;
use msj_sam::RStarTree;
use msj_store::{Section, Segment, Store};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// One registered dataset: the relation (under TR*, an opened store's
/// validated image until first need) plus a residency slot for its
/// Step-0 artifacts.
///
/// The artifacts live behind an `RwLock<Option<…>>` so a store-backed
/// engine can **evict** a cold dataset's artifacts under a byte budget
/// and re-materialize them on next touch — from the persistent store when
/// one is armed ([`adopt`]), from the relation otherwise (a full Step-0
/// rebuild). In-flight work is never invalidated: anything using the
/// artifacts holds the `Arc`, so eviction only drops this state's reference.
pub(super) struct DatasetState {
    pub id: DatasetId,
    pub relation: Arc<LazyRelation>,
    /// Wall-clock of this dataset's share of Step 0 at registration (or
    /// of the store load that materialized it on an opened engine).
    pub step0_nanos: u64,
    /// Bytes this dataset's artifacts account for under the residency
    /// budget: the segment file size when a store is armed, 0 otherwise
    /// (no store means no budget and no eviction).
    bytes: u64,
    /// This dataset's `msj_store_bytes` gauge, on a store-backed engine
    /// that records.
    store_bytes: Option<Arc<Gauge>>,
    /// Recency stamp off the store's clock — the LRU order the byte
    /// budget evicts in.
    touched: AtomicU64,
    artifacts: RwLock<Option<Arc<DatasetArtifacts>>>,
}

/// Every per-relation Step-0 artifact the engine's configuration calls
/// for, all `Arc`-shared — the evictable half of a [`DatasetState`].
pub(super) struct DatasetArtifacts {
    /// The paged R*-tree (only under [`Backend::RStarTraversal`]; the
    /// partitioned backend indexes lazily inside its sources).
    pub tree: Option<Arc<RStarTree>>,
    pub conservative: Option<Arc<ConservativeStore>>,
    pub progressive: Option<Arc<ProgressiveStore>>,
    /// TR*-tree object representations (only when the exact step is
    /// [`ExactAlgorithm::TrStar`]).
    pub trstar: Option<Arc<TrStarStore>>,
    /// Resident selection state serving point/window queries.
    pub selection: SelectionState,
}

/// The one way a stored section becomes a resident artifact: its verified bytes
/// (decoded, or kept as a range of the segment's mapping) must be adopted by
/// `from_bytes` *and* describe exactly the `objects` of the relation the
/// artifact is about to be attached to — a checksum-valid image of another
/// length would index out of bounds at query time. `None` means rebuild; a
/// section that was written but cannot be adopted is listed in `corrupt` for
/// `msj_store_checksum_failures_total`, one that was never written is not.
pub(super) fn adopt<T, E>(
    stored: Option<&Segment>,
    section: Section,
    objects: usize,
    from_bytes: impl FnOnce(SharedBytes) -> Result<T, E>,
    len: impl FnOnce(&T) -> usize,
    corrupt: &mut Vec<Section>,
) -> Option<T> {
    let adopted = stored?
        .shared_section(section)?
        .ok()
        .and_then(|bytes| from_bytes(bytes).ok())
        .filter(|artifact| len(artifact) == objects);
    corrupt.extend(adopted.is_none().then_some(section));
    adopted
}

/// One relation's Step 0 in progress: where its artifacts may be adopted
/// from, what they must describe, who times the ones that get built, and
/// which stored sections turned out unusable.
struct Step0<'a> {
    stored: Option<&'a Segment>,
    objects: usize,
    obs: Option<&'a EngineObs>,
    corrupt: Vec<Section>,
}

impl Step0<'_> {
    /// One artifact, adopted from its stored `section` — one validating
    /// pass over the image, no recomputation — or, when there is no
    /// segment or the section cannot be adopted, built (answers are
    /// identical; only that section's load speedup is lost).
    fn artifact<T, E>(
        &mut self,
        section: Section,
        from_bytes: impl FnOnce(SharedBytes) -> Result<T, E>,
        len: impl FnOnce(&T) -> usize,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let (stored, objects) = (self.stored, self.objects);
        let adopted = adopt(stored, section, objects, from_bytes, len, &mut self.corrupt);
        adopted.map_or_else(|| self.built(section.name(), build), Arc::new)
    }

    /// One artifact built from the relation, charged to `artifact`'s timer.
    fn built<T>(&self, artifact: &str, build: impl FnOnce() -> T) -> Arc<T> {
        Arc::new(match self.obs {
            Some(obs) => obs.time_artifact(artifact, build),
            None => build(),
        })
    }
}

impl DatasetArtifacts {
    /// One relation's share of Step 0 under `config`, each artifact
    /// adopted from `stored` where possible. Returns the artifacts and
    /// the sections that were written but could not be used. With `obs`,
    /// every build is charged to its artifact's timer.
    pub fn build(
        engine: &EngineConfig,
        relation: &Arc<LazyRelation>,
        stored: Option<&Segment>,
        obs: Option<&EngineObs>,
    ) -> (DatasetArtifacts, Vec<Section>) {
        let config = &engine.join;
        let mut step0 = Step0 {
            stored,
            objects: relation.len(),
            obs,
            corrupt: Vec::new(),
        };
        let tree = matches!(config.backend, Backend::RStarTraversal).then(|| {
            let decode = |b: SharedBytes| RStarTree::from_bytes(&b);
            step0.artifact(Section::Tree, decode, RStarTree::len, || {
                candidates::build_tree(config, relation.get())
            })
        });
        // The store keeps no approximation: an engine that runs one
        // builds it at every load.
        let rel = || relation.get();
        let conservative = config
            .conservative
            .map(|kind| step0.built("conservative", || ConservativeStore::build(kind, rel())));
        let progressive = config
            .progressive
            .map(|kind| step0.built("progressive", || ProgressiveStore::build(kind, rel())));
        let trstar = match config.exact {
            ExactAlgorithm::TrStar { max_entries } => Some(step0.artifact(
                Section::TrStar,
                TrStarStore::adopt,
                TrStarStore::len,
                || TrStarStore::build(relation.get(), max_entries),
            )),
            _ => None,
        };
        let selection = SelectionState::new(
            relation.clone().into(),
            config,
            tree.clone(),
            conservative.clone(),
            progressive.clone(),
            trstar.clone(),
        );
        let artifacts = DatasetArtifacts {
            tree,
            conservative,
            progressive,
            trstar,
            selection,
        };
        (artifacts, step0.corrupt)
    }
}

/// A cheap, clonable, thread-safe reference to a registered dataset.
#[derive(Clone)]
pub struct DatasetHandle {
    pub(super) state: Arc<DatasetState>,
}

impl DatasetHandle {
    /// The dataset's engine-assigned id (what [`crate::Request`]s name).
    pub fn id(&self) -> DatasetId {
        self.state.id
    }

    /// The registered relation (an opened one decoded on first need).
    pub fn relation(&self) -> &Arc<Relation> {
        self.state.relation.get()
    }

    /// Objects in the relation.
    pub fn len(&self) -> usize {
        self.state.relation.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.state.relation.is_empty()
    }

    /// Nanoseconds spent on this dataset's Step-0 preprocessing at
    /// registration.
    pub fn step0_nanos(&self) -> u64 {
        self.state.step0_nanos
    }
}

impl std::fmt::Debug for DatasetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetHandle")
            .field("id", &self.state.id)
            .field("objects", &self.state.relation.len())
            .finish()
    }
}

/// Configuration of the engine's **persistent Step-0 artifact store**
/// (`msj-store`): a directory of page-aligned, per-section checksummed
/// segment files plus an optional dataset-residency byte budget — what
/// [`SpatialEngine::with_store`] writes through to and
/// [`SpatialEngine::open`] restarts from. With a budget the registered
/// set may exceed RAM: the stalest dataset's artifacts are evicted and
/// re-materialized from the store on next touch.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    root: PathBuf,
    byte_budget: Option<u64>,
}

impl StoreConfig {
    /// A store rooted at `root` (created if absent), with no residency
    /// budget — everything registered stays resident.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        StoreConfig {
            root: root.into(),
            byte_budget: None,
        }
    }

    /// Caps resident artifact bytes: beyond `bytes`, the
    /// least-recently-touched datasets' artifacts are evicted (and
    /// reloaded from the store on next touch).
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget = Some(bytes);
        self
    }
}

/// The armed store of a [`SpatialEngine`]: segment I/O, the residency
/// byte budget, and the clock datasets are stamped most-recently-used
/// from.
pub(super) struct StoreBackend {
    pub store: Store,
    byte_budget: Option<u64>,
    clock: AtomicU64,
}

/// Fingerprint of the configuration fields that shape Step-0 artifacts
/// (tree layout, approximation kinds, exact representations, raster
/// grid). A persisted segment whose tag differs was built under an
/// incompatible configuration; the engine rebuilds from the relation
/// instead of loading it.
pub(super) fn config_tag(config: &JoinConfig) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.push(match config.backend {
        Backend::RStarTraversal => 1u8,
        Backend::PartitionedSweep { .. } => 2,
    });
    bytes.extend((config.page_size as u64).to_le_bytes());
    bytes.push(config.conservative.map_or(0xFF, |k| k.code()));
    bytes.push(config.progressive.map_or(0xFF, |k| k.code()));
    match config.exact {
        ExactAlgorithm::TrStar { max_entries } => {
            // 2 since `decompose` cuts at every distinct vertex y (1 merged
            // y's within 1e-12): a segment of the tolerant arena is rebuilt.
            bytes.push(2);
            bytes.extend((max_entries as u64).to_le_bytes());
        }
        _ => bytes.push(0),
    }
    // Where the tree-loader choice used to be tagged: trees are always
    // STR-packed (the former 0), so segments written before the choice
    // went away keep matching.
    bytes.push(0);
    bytes.push(config.raster as u8);
    // Where an explicit grid resolution used to be tagged: grids are
    // always auto-sized (the former 0).
    bytes.extend(0u32.to_le_bytes());
    msj_geom::fnv1a64(&bytes)
}

impl SpatialEngine {
    /// Arms the persistent artifact store: every subsequent
    /// [`SpatialEngine::register`] writes the dataset's Step-0 artifacts
    /// through to a segment file under `store.root()`, pair raster
    /// signatures persist on first preparation, and the residency budget
    /// (if set) starts evicting cold datasets' artifacts.
    pub fn with_store(mut self, store: StoreConfig) -> io::Result<Self> {
        self.store = Some(StoreBackend {
            store: Store::open(&store.root)?,
            byte_budget: store.byte_budget,
            clock: AtomicU64::new(0),
        });
        Ok(self)
    }

    /// Re-opens an engine from a persisted store: every dataset written
    /// by a previous engine's write-through comes back registered, in id
    /// order, with its Step-0 artifacts **loaded** from the segment
    /// files (checksums verified per section) instead of rebuilt — the
    /// store's cold-start path; approximations, never stored, are built.
    /// The relation section is checksummed and validated, and decoded at
    /// the open only without TR*. An artifact section that fails its
    /// checksum or shape is rebuilt from the relation (counted under
    /// `msj_store_checksum_failures_total{section}`); a corrupt manifest
    /// or relation section fails the open, since there is nothing to
    /// rebuild from.
    pub fn open(config: impl Into<EngineConfig>, store: StoreConfig) -> io::Result<Self> {
        let engine = SpatialEngine::new(config).with_store(store)?;
        let backend = engine.store.as_ref().expect("store just armed");
        let ids = backend.store.dataset_ids()?;
        for (slot, id) in ids.iter().enumerate() {
            if *id != slot as DatasetId {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("store is missing dataset {slot} (found id {id})"),
                ));
            }
        }
        for id in ids {
            engine.load_dataset(id)?;
        }
        Ok(engine)
    }

    /// Registers a relation: runs its share of Step 0 (index build,
    /// approximation stores, exact-step representations — whatever the
    /// engine configuration calls for) and takes ownership of the
    /// results. Accepts an owned [`Relation`] or an existing
    /// `Arc<Relation>` (no copy either way).
    pub fn register(&self, relation: impl Into<Arc<Relation>>) -> DatasetHandle {
        let relation = Arc::new(LazyRelation::resident(relation.into()));
        let t_step0 = self.obs.enabled.then(Instant::now);
        let (artifacts, _) =
            DatasetArtifacts::build(&self.config, &relation, None, Some(&self.obs));
        let step0_nanos = t_step0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.obs.registered(step0_nanos);
        // Write-through: the id is assigned under the datasets lock, so
        // the segment write happens there too — registration is cold
        // relative to serving, and concurrent registers must not race
        // for the same segment file.
        let state = self.install(relation, artifacts, step0_nanos, |id, rel, arts| {
            self.persist_dataset(id, || rel.get().to_bytes(), arts)
                .unwrap_or(0)
        });
        DatasetHandle { state }
    }

    /// Publishes a dataset whose Step 0 is done under the next id, its
    /// residency bytes decided by `bytes_for` under the registry lock,
    /// then accounts for it: most recently used, gauge published, budget
    /// enforced.
    fn install(
        &self,
        relation: Arc<LazyRelation>,
        artifacts: DatasetArtifacts,
        step0_nanos: u64,
        bytes_for: impl FnOnce(DatasetId, &LazyRelation, &DatasetArtifacts) -> u64,
    ) -> Arc<DatasetState> {
        let mut datasets = write(&self.datasets);
        let id = datasets.len() as DatasetId;
        let bytes = bytes_for(id, &relation, &artifacts);
        let recorded = self.store.is_some() && self.obs.enabled;
        let state = Arc::new(DatasetState {
            id,
            relation,
            step0_nanos,
            bytes,
            store_bytes: recorded.then(|| self.obs.store_bytes_gauge(id)),
            touched: AtomicU64::new(0),
            artifacts: RwLock::new(Some(Arc::new(artifacts))),
        });
        datasets.push(state.clone());
        drop(datasets);
        self.note_resident(&state);
        self.evict_over_budget(id);
        state
    }

    /// Writes one dataset's relation image (made only when a store is
    /// armed) and artifacts through, trimming each image before it is freed;
    /// returns the segment size, `None` with no store or a failed write.
    fn persist_dataset(
        &self,
        id: DatasetId,
        relation: impl FnOnce() -> Vec<u8>,
        artifacts: &DatasetArtifacts,
    ) -> Option<u64> {
        let backend = self.store.as_ref()?;
        self.obs.time_artifact(PERSIST, || {
            let mut sections = vec![(Section::Relation, relation())];
            sections.extend(artifacts.tree.iter().map(|t| (Section::Tree, t.to_bytes())));
            let trstar = artifacts.trstar.iter().map(|t| t.to_bytes());
            sections.extend(trstar.map(|image| (Section::TrStar, image)));
            let size = backend.store.write_dataset(id, self.tag, &sections).ok();
            sections.iter_mut().for_each(|(_, v)| shrink_before_free(v));
            size
        })
    }

    /// Runs `read` with the engine's `store_corrupt` fault plan armed as
    /// the store's tamper hook (a seed-deterministic single-byte flip in
    /// the named section, applied *before* checksum verification so the
    /// corruption flows through the store's real detection path), and
    /// counts the injection if it fired.
    pub(super) fn with_store_fault<T>(
        &self,
        read: impl FnOnce(Option<msj_store::Tamper<'_>>) -> T,
    ) -> T {
        let session = self.fault.rearm();
        let mut fired = false;
        let mut hook = |section: Section, bytes: &mut [u8]| {
            if let Some(seed) = session.corrupt_store(section) {
                fired = true;
                if !bytes.is_empty() {
                    let idx = (msj_fault::splitmix64(seed) % bytes.len() as u64) as usize;
                    bytes[idx] ^= 1;
                }
            }
        };
        let out = read(Some(&mut hook));
        if fired {
            self.obs.fault_fired("store_corrupt");
        }
        out
    }

    /// Registers one persisted dataset on an opening engine — the
    /// cold-start path of [`SpatialEngine::open`].
    fn load_dataset(&self, id: DatasetId) -> io::Result<()> {
        let backend = self.store.as_ref().expect("load_dataset requires a store");
        let t_load = self.obs.enabled.then(Instant::now);
        let elapsed = || t_load.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let segment = self.with_store_fault(|tamper| backend.store.read_dataset(id, tamper))?;
        // Validated, not decoded: only TR* serves without the relation, so
        // other configurations (and a stale segment's rebuild) decode it
        // here. A byte budget copies the image out, so eviction frees it.
        let tr_star = matches!(self.config.join.exact, ExactAlgorithm::TrStar { .. });
        let copy = tr_star && backend.byte_budget.is_some();
        let own = |b: SharedBytes| if copy { SharedBytes::copy_of(&b) } else { b };
        let image = segment
            .shared_section(Section::Relation)
            .and_then(Result::ok);
        let lazy = |b| LazyRelation::from_image(own(b), self.obs.relation_decode()).ok();
        let Some(relation) = image.clone().and_then(lazy).map(Arc::new) else {
            // The relation is the one section with no rebuild source;
            // without it the open fails.
            self.obs.store_load(elapsed(), &[Section::Relation]);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("dataset {id}: relation section missing or corrupt"),
            ));
        };
        if !tr_star {
            relation.get();
        }
        let current = segment.config_tag == self.tag;
        let (artifacts, corrupt) = DatasetArtifacts::build(
            &self.config,
            &relation,
            current.then_some(&segment),
            Some(&self.obs),
        );
        // A segment written under an artifact-shaping configuration this
        // engine does not run was rebuilt in full: refresh it in place,
        // the relation section as it was read.
        let stale = image.filter(|_| !current);
        let refreshed =
            stale.and_then(|image| self.persist_dataset(id, || image.to_vec(), &artifacts));
        let bytes = refreshed.unwrap_or(segment.bytes);
        let step0_nanos = elapsed();
        self.obs.store_load(step0_nanos, &corrupt);
        self.install(relation, artifacts, step0_nanos, |slot, _, _| {
            debug_assert_eq!(slot, id, "open loads ids in order");
            bytes
        });
        Ok(())
    }

    /// The dataset's artifacts, re-materializing them first if the
    /// residency budget evicted them: a store load when a usable segment
    /// exists, a Step-0 rebuild from the relation otherwise. Refreshes
    /// the dataset's LRU recency either way.
    pub(super) fn artifacts(&self, state: &Arc<DatasetState>) -> Arc<DatasetArtifacts> {
        let resident = read(&state.artifacts).clone();
        if let Some(artifacts) = resident {
            self.touch(state);
            return artifacts;
        }
        // Materialize outside every lock: a concurrent double
        // materialization is deterministic over the same inputs and the
        // first publish wins.
        let built = Arc::new(self.materialize(state));
        let artifacts = write(&state.artifacts).get_or_insert(built).clone();
        self.note_resident(state);
        self.evict_over_budget(state.id);
        artifacts
    }

    /// Re-materializes evicted artifacts (see [`SpatialEngine::artifacts`]).
    fn materialize(&self, state: &DatasetState) -> DatasetArtifacts {
        let t_load = self.obs.enabled.then(Instant::now);
        let segment = self.store.as_ref().and_then(|backend| {
            self.with_store_fault(|tamper| backend.store.read_dataset(state.id, tamper))
                .ok()
                .filter(|segment| segment.config_tag == self.tag)
        });
        let (artifacts, corrupt) = DatasetArtifacts::build(
            &self.config,
            &state.relation,
            segment.as_ref(),
            Some(&self.obs),
        );
        if segment.is_some() {
            let nanos = t_load.map_or(0, |t| t.elapsed().as_nanos() as u64);
            self.obs.store_load(nanos, &corrupt);
        }
        artifacts
    }

    /// Stamps `state` most recently used. No-op without an armed store.
    fn touch(&self, state: &DatasetState) {
        if let Some(backend) = &self.store {
            let now = backend.clock.fetch_add(1, Ordering::Relaxed) + 1;
            state.touched.store(now, Ordering::Relaxed);
        }
    }

    /// Residency changed — the dataset's artifacts just became resident:
    /// most recently used, and its resident bytes published.
    fn note_resident(&self, state: &DatasetState) {
        self.touch(state);
        if let Some(gauge) = &state.store_bytes {
            gauge.set(state.bytes as f64);
        }
    }

    /// Evicts least-recently-touched datasets' artifacts until the
    /// resident total fits the byte budget. `keep` (the dataset that
    /// triggered the check) is evicted only when nothing else is left —
    /// a budget smaller than a single dataset still serves correctly,
    /// just re-materializing on every touch.
    fn evict_over_budget(&self, keep: DatasetId) {
        let Some(budget) = self.store.as_ref().and_then(|backend| backend.byte_budget) else {
            return;
        };
        loop {
            let victim = {
                let datasets = read(&self.datasets);
                let resident = || datasets.iter().filter(|s| read(&s.artifacts).is_some());
                if resident().map(|s| s.bytes).sum::<u64>() <= budget {
                    return;
                }
                let stalest = resident()
                    .filter(|s| s.id != keep)
                    .min_by_key(|s| s.touched.load(Ordering::Relaxed));
                match stalest.or_else(|| resident().next()) {
                    Some(state) => state.clone(),
                    None => return,
                }
            };
            self.drop_artifacts(&victim);
        }
    }

    /// Drops one dataset's resident artifacts and every prepared join
    /// holding them (prepared pair state over an evicted dataset would
    /// otherwise keep the artifacts alive). In-flight runs keep their
    /// `Arc`s and finish unaffected.
    fn drop_artifacts(&self, state: &DatasetState) {
        if write(&state.artifacts).take().is_none() {
            return; // a concurrent eviction got here first
        }
        if let Some(gauge) = &state.store_bytes {
            gauge.set(0.0);
        }
        lock(&self.prepared).forget_dataset(state.id);
        self.obs.store_evictions.inc();
    }

    /// The handle of a registered dataset (`None` for unknown ids).
    pub fn dataset(&self, id: DatasetId) -> Option<DatasetHandle> {
        let state = read(&self.datasets).get(id as usize).cloned();
        state.map(|state| DatasetHandle { state })
    }

    /// Number of registered datasets.
    pub fn num_datasets(&self) -> usize {
        read(&self.datasets).len()
    }

    pub(super) fn require(&self, id: DatasetId) -> Result<DatasetHandle, EngineError> {
        self.dataset(id).ok_or(EngineError::UnknownDataset(id))
    }

    /// Panics unless `handle` was registered on *this* engine: foreign
    /// handles carry their own engine's ids, and admitting one would
    /// poison the id-keyed prepared-join cache with results computed
    /// over the wrong datasets.
    pub(super) fn assert_registered(&self, handle: &DatasetHandle) {
        let owned = read(&self.datasets)
            .get(handle.id() as usize)
            .is_some_and(|state| Arc::ptr_eq(state, &handle.state));
        assert!(
            owned,
            "dataset handle {} was not registered on this engine",
            handle.id()
        );
    }
}
