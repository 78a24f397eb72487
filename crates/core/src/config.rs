//! Configuration of the multi-step join processor.

use crate::execution::Execution;
use msj_approx::{ConservativeKind, ProgressiveKind};
use msj_exact::ExactAlgorithm;
use msj_fault::FaultConfig;
use msj_geom::KernelDispatch;
use msj_obs::ObsConfig;

/// The Step-1 candidate backend (see [`crate::candidates`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Synchronized R*-tree traversal — the paper's MBR-join and the
    /// default.
    #[default]
    RStarTraversal,
    /// Uniform-grid partitioned plane sweep with reference-point
    /// deduplication, tiles executed over scoped threads
    /// (`msj-partition`). A join algorithm only: selections descend the
    /// dataset's R*-tree, which the engine builds on either backend.
    PartitionedSweep {
        /// Tiles per grid side (the grid has `tiles_per_axis²` tiles).
        tiles_per_axis: usize,
        /// Step-1 tile-sweep threads (0 = available parallelism), under
        /// either execution policy; their pairs are funneled back to the
        /// calling thread in tile order. Steps 2–3 are
        /// [`Execution::Fused`]'s `threads`.
        threads: usize,
    },
}

impl Backend {
    /// A partitioned backend sized for the machine: two tiles per
    /// available core on each axis, clamped to `4..=64`, swept on all
    /// cores.
    pub fn partitioned_auto() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Backend::PartitionedSweep {
            tiles_per_axis: (2 * cores).clamp(4, 64),
            threads: 0,
        }
    }
}

/// Default candidate batch size (pairs per
/// [`msj_geom::PairSink::consume_batch`] delivery, and so per chunk of
/// the fused fan-out's queue).
pub const DEFAULT_BATCH_PAIRS: usize = 1024;

/// Prepared joins a [`crate::SpatialEngine`] keeps resident at once; the
/// least-recently-used pair is evicted beyond it (and rebuilt
/// transparently on next use). Generous enough that typical engines never
/// evict, small enough to bound resident pair state on engines joining
/// many dataset combinations.
pub const DEFAULT_PREPARED_CACHE_CAP: usize = 64;

/// The plan of a spatial join — the paper's §5 *version*: which
/// approximations are stored, which exact algorithm runs, and how the
/// steps are scheduled. A resident [`crate::SpatialEngine`] applies it to
/// every dataset it registers; the settings of the running engine
/// itself are [`EngineConfig`]'s.
///
/// The struct is `#[non_exhaustive]`: outside `msj-core` it is
/// constructed through the presets ([`JoinConfig::default`],
/// [`JoinConfig::version1`]…) or the builder, never by struct literal —
/// so the configuration surface can grow without breaking callers.
///
/// ```
/// use msj_core::{Execution, JoinConfig};
///
/// let config = JoinConfig::builder()
///     .execution(Execution::Fused { threads: 4 })
///     .raster(false)
///     .build();
/// assert_eq!(config.execution, Execution::Fused { threads: 4 });
/// assert!(!config.raster);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinConfig {
    /// Step-1 candidate backend (R*-tree traversal unless configured
    /// otherwise).
    pub backend: Backend,
    /// R*-tree page size in bytes (the paper uses 2 KB and 4 KB); with
    /// [`JoinConfig::extra_leaf_bytes`], at least 16, it sets the fanout.
    pub page_size: usize,
    /// LRU buffer size in bytes of the paper's §3.4/§5 disk model (128 KB
    /// in §3.4; 32 pages in §5). The engine is in memory and simulates no
    /// buffer; the paper tables size theirs from this.
    pub buffer_bytes: usize,
    /// Conservative approximation stored in addition to the MBR; `None`
    /// disables the false-hit filter (version 1 of §5). This and the next
    /// two fields are §5's versions 2 and 3: a one-shot
    /// [`crate::MultiStepJoin`] runs them, [`crate::SpatialEngine::new`]
    /// refuses a plan that sets any of them.
    pub conservative: Option<ConservativeKind>,
    /// Progressive approximation stored in addition; `None` disables the
    /// hit filter.
    pub progressive: Option<ProgressiveKind>,
    /// Whether to run the false-area test (§3.3) on candidates that the
    /// progressive test could not identify.
    pub false_area_test: bool,
    /// Whether the Step-2a raster-interval pre-filter runs
    /// ([`msj_approx::raster`]): A/F Hilbert-run signatures on one grid
    /// per dataset pair, auto-sized from the workload by
    /// [`msj_approx::auto_grid_bits`]. On by default; the response set is
    /// identical either way (the stage only decides candidates it can
    /// prove).
    pub raster: bool,
    /// Exact geometry algorithm for the final step.
    pub exact: ExactAlgorithm,
    /// How Steps 2–3 are scheduled relative to Step 1: serially on the
    /// calling thread, or on a pool of sink threads fed as Step 1
    /// produces ([`crate::execution`]).
    pub execution: Execution,
    /// Candidate pairs per batched sink delivery
    /// ([`msj_geom::PairSink::consume_batch`]), and so per chunk of the
    /// fused fan-out's queue. Larger batches amortize
    /// dispatch and synchronization; smaller ones bound latency and the
    /// in-flight candidate count. Clamped to at least 1.
    pub batch_pairs: usize,
}

/// TR*-tree node capacity of [`JoinConfig::default`], measured on this
/// engine's flat arena: M ∈ {3, …, 10} swept over the Step-3 candidates
/// of three benchmark inputs (the table is in `CHANGES.md`, PR 22). Time
/// per test falls until M = 6 and is flat to 8 while the arena shrinks
/// by a quarter; the paper's M = 3 ([`JoinConfig::version3`]) minimises
/// *weighted operation counts*, which rise ≈ 23 % at 6.
const MEASURED_TRSTAR_CAPACITY: usize = 6;

impl Default for JoinConfig {
    /// The paper's §5 version 3 (TR*-trees for the exact step, 4 KB
    /// pages, a 128 KB LRU buffer for the §5 model) with choices measured
    /// on this engine instead of inherited (`CHANGES.md` has the pairs):
    ///
    /// * no approximation beyond the MBR, so the chain is raster → TR*.
    ///   Behind the raster, 5-C costs more Step-2 time than it spares,
    ///   and MER decides 28 of 237,786 filter-join candidates for half
    ///   the set-up; windows prove hits from the MBR in Step 1 instead.
    ///   [`JoinConfig::version3`] keeps 5-C and MER;
    /// * a TR*-tree node capacity of 6, not the paper's 3 (see
    ///   `MEASURED_TRSTAR_CAPACITY` in this file).
    fn default() -> Self {
        JoinConfig {
            backend: Backend::RStarTraversal,
            page_size: 4096,
            buffer_bytes: 128 * 1024,
            conservative: None,
            progressive: None,
            false_area_test: false,
            raster: true,
            exact: ExactAlgorithm::TrStar {
                max_entries: MEASURED_TRSTAR_CAPACITY,
            },
            execution: Execution::Serial,
            batch_pairs: DEFAULT_BATCH_PAIRS,
        }
    }
}

impl JoinConfig {
    /// §5 "version 1": no additional approximations (and no raster
    /// signatures — this version models the filterless join, every
    /// candidate reaching the exact step), plane-sweep exact step.
    pub fn version1() -> Self {
        JoinConfig {
            conservative: None,
            progressive: None,
            false_area_test: false,
            raster: false,
            exact: ExactAlgorithm::PlaneSweep { restrict: true },
            ..JoinConfig::default()
        }
    }

    /// §5 "version 2": 5-C and MER approximations, plane-sweep exact step.
    pub fn version2() -> Self {
        JoinConfig {
            conservative: Some(ConservativeKind::FiveCorner),
            progressive: Some(ProgressiveKind::Mer),
            false_area_test: false,
            exact: ExactAlgorithm::PlaneSweep { restrict: true },
            ..JoinConfig::default()
        }
    }

    /// §5 "version 3": 5-C + MER, TR*-tree exact step with the paper's
    /// M = 3 (Figure 17) — the paper's final recommendation.
    pub fn version3() -> Self {
        JoinConfig {
            conservative: Some(ConservativeKind::FiveCorner),
            progressive: Some(ProgressiveKind::Mer),
            exact: ExactAlgorithm::TrStar { max_entries: 3 },
            ..JoinConfig::default()
        }
    }

    /// Starts a builder seeded with the defaults
    /// ([`JoinConfig::default`]).
    pub fn builder() -> JoinConfigBuilder {
        JoinConfigBuilder {
            config: JoinConfig::default(),
        }
    }

    /// Re-opens this configuration as a builder (the replacement for
    /// functional-update syntax on the now-`#[non_exhaustive]` struct:
    /// `JoinConfig::version2().to_builder().false_area_test(true).build()`).
    pub fn to_builder(self) -> JoinConfigBuilder {
        JoinConfigBuilder { config: self }
    }

    /// The kernel dispatch path a join under this plan runs on outside
    /// an engine — and on a default engine: [`KernelDispatch::auto`], the
    /// widest path the CPU supports unless the `MSJ_FORCE_SCALAR`
    /// environment variable pins the scalar one.
    pub fn kernel_dispatch(&self) -> KernelDispatch {
        KernelDispatch::auto()
    }

    /// Extra leaf-entry bytes for the stored approximations (MBR itself
    /// and the 32-byte object info are part of the baseline layout).
    pub fn extra_leaf_bytes(&self) -> usize {
        let cons = self
            .conservative
            .map_or(0, |k| msj_approx::conservative_bytes(k, None));
        let prog = self.progressive.map_or(0, msj_approx::progressive_bytes);
        cons + prog
    }
}

/// Builder for [`JoinConfig`] — the only way to assemble a non-preset
/// configuration outside `msj-core`.
///
/// Every setter overrides one knob; unset knobs keep the seed value
/// ([`JoinConfig::builder`] seeds the defaults, [`JoinConfig::to_builder`]
/// seeds an existing configuration).
#[derive(Debug, Clone)]
pub struct JoinConfigBuilder {
    config: JoinConfig,
}

impl JoinConfigBuilder {
    /// Step-1 candidate backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// R*-tree page size in bytes.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.config.page_size = bytes;
        self
    }

    /// Conservative approximation stored in addition to the MBR
    /// (`None` disables the false-hit filter).
    pub fn conservative(mut self, kind: impl Into<Option<ConservativeKind>>) -> Self {
        self.config.conservative = kind.into();
        self
    }

    /// Progressive approximation stored in addition (`None` disables the
    /// hit filter).
    pub fn progressive(mut self, kind: impl Into<Option<ProgressiveKind>>) -> Self {
        self.config.progressive = kind.into();
        self
    }

    /// Whether to run the false-area test (§3.3).
    pub fn false_area_test(mut self, enabled: bool) -> Self {
        self.config.false_area_test = enabled;
        self
    }

    /// Whether the Step-2a raster pre-filter stage runs.
    pub fn raster(mut self, enabled: bool) -> Self {
        self.config.raster = enabled;
        self
    }

    /// Exact geometry algorithm for the final step.
    pub fn exact(mut self, exact: ExactAlgorithm) -> Self {
        self.config.exact = exact;
        self
    }

    /// How Steps 2–3 are scheduled relative to Step 1.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.config.execution = execution;
        self
    }

    /// Candidate pairs per batched sink delivery (clamped to ≥ 1).
    pub fn batch_pairs(mut self, pairs: usize) -> Self {
        self.config.batch_pairs = pairs;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> JoinConfig {
        self.config
    }
}

/// The configuration of a resident [`crate::SpatialEngine`]: the join
/// plan it applies to every dataset and query, plus the settings of the
/// running instance. Every [`JoinConfig`] converts into one with the
/// instance defaults, so `SpatialEngine::new(JoinConfig::default())`
/// reads as before; set the others with struct-update syntax.
///
/// ```
/// use msj_core::{EngineConfig, JoinConfig, ObsConfig, SpatialEngine};
///
/// let engine = SpatialEngine::new(EngineConfig {
///     obs: ObsConfig::with_traces(8),
///     ..JoinConfig::version1().into()
/// });
/// assert_eq!(engine.config().join, JoinConfig::version1());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineConfig {
    /// The join plan.
    pub join: JoinConfig,
    /// Runtime observability: step/request timing, worker telemetry and
    /// opt-in per-request traces ([`msj_obs::ObsConfig`]). Enabled by
    /// default (no traces); [`msj_obs::ObsConfig::disabled`] skips every
    /// clock read, leaving all `*_nanos` statistics at zero.
    pub obs: ObsConfig,
    /// Deterministic fault injection ([`msj_fault::FaultConfig`]),
    /// disabled by default (one never-taken branch per batch). An armed
    /// plan fires at most once per engine, across join runs, store loads
    /// and a serving front's wire session alike.
    pub fault: FaultConfig,
    /// Pin every hot-loop kernel to the scalar reference path instead of
    /// the widest SIMD path the CPU supports. Results are byte-identical
    /// either way (the agreement gate enforces it); this knob exists for
    /// A/B measurement. The `MSJ_FORCE_SCALAR` environment variable
    /// forces scalar even when this is `false`.
    pub force_scalar: bool,
}

impl From<JoinConfig> for EngineConfig {
    fn from(join: JoinConfig) -> Self {
        EngineConfig {
            join,
            ..EngineConfig::default()
        }
    }
}

impl EngineConfig {
    /// The kernel dispatch path the engine runs on: scalar when
    /// [`EngineConfig::force_scalar`] (or `MSJ_FORCE_SCALAR`) is set,
    /// otherwise the widest path the CPU supports.
    pub fn kernel_dispatch(&self) -> KernelDispatch {
        KernelDispatch::select(self.force_scalar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_version3_but_for_its_approximations_and_the_measured_capacity() {
        let (default, paper) = (JoinConfig::default(), JoinConfig::version3());
        assert_eq!(paper.exact, ExactAlgorithm::TrStar { max_entries: 3 });
        assert_eq!(
            JoinConfig {
                conservative: paper.conservative,
                progressive: paper.progressive,
                exact: paper.exact,
                ..default
            },
            paper
        );
        // The default stores neither approximation: no extra leaf bytes,
        // where version 3 has 5-C's 40 + MER's 16.
        assert_eq!((default.conservative, default.progressive), (None, None));
        assert_eq!(default.extra_leaf_bytes(), 0);
        assert_eq!(paper.extra_leaf_bytes(), 56);
        assert_eq!(
            default.exact,
            ExactAlgorithm::TrStar {
                max_entries: MEASURED_TRSTAR_CAPACITY
            }
        );
    }

    #[test]
    fn paper_presets_name_their_approximations() {
        // Versions 2 and 3 store 5-C and MER whatever the default stores.
        for paper in [JoinConfig::version2(), JoinConfig::version3()] {
            assert_eq!(paper.conservative, Some(ConservativeKind::FiveCorner));
            assert_eq!(paper.progressive, Some(ProgressiveKind::Mer));
        }
    }

    #[test]
    fn engine_leaves_keep_a_mer_slot() {
        // A default R*-tree leaf holds 64 entries at 4 KB, as when the
        // default stored a MER; version 3's holds 39.
        let leaf = |c: JoinConfig| {
            let rel = msj_datagen::small_carto(200, 24.0, 7);
            crate::candidates::build_tree(&c, &rel)
                .layout()
                .max_leaf_entries()
        };
        assert_eq!(leaf(JoinConfig::default()), 64);
        assert_eq!(leaf(JoinConfig::version3()), 39);
        let bare = msj_sam::PageLayout::with_extra_bytes(4096, 0);
        assert_eq!(bare.max_leaf_entries(), 85);
    }

    #[test]
    fn version1_has_no_filter() {
        let c = JoinConfig::version1();
        assert!(c.conservative.is_none());
        assert!(c.progressive.is_none());
        assert_eq!(c.extra_leaf_bytes(), 0);
    }

    #[test]
    fn default_backend_is_rstar() {
        assert_eq!(JoinConfig::default().backend, Backend::RStarTraversal);
        assert_eq!(Backend::default(), Backend::RStarTraversal);
    }

    #[test]
    fn default_execution_is_serial() {
        assert_eq!(JoinConfig::default().execution, Execution::Serial);
        assert_eq!(Execution::default(), Execution::Serial);
    }

    #[test]
    fn partitioned_auto_is_bounded() {
        let Backend::PartitionedSweep {
            tiles_per_axis,
            threads,
        } = Backend::partitioned_auto()
        else {
            panic!("partitioned_auto must be a partitioned backend");
        };
        assert!((4..=64).contains(&tiles_per_axis));
        assert_eq!(threads, 0);
    }

    #[test]
    fn default_batch_is_bounded() {
        let c = JoinConfig::default();
        assert_eq!(c.batch_pairs, DEFAULT_BATCH_PAIRS);
        assert!(c.batch_pairs >= 1);
    }

    #[test]
    fn raster_defaults_on() {
        assert!(JoinConfig::default().raster);
        // Version 1 models the filterless join: no raster either.
        assert!(!JoinConfig::version1().raster);
    }

    #[test]
    fn builder_round_trips_and_overrides() {
        // Untouched builder == defaults.
        assert_eq!(JoinConfig::builder().build(), JoinConfig::default());
        // Every setter lands on its field.
        let c = JoinConfig::builder()
            .backend(Backend::PartitionedSweep {
                tiles_per_axis: 8,
                threads: 2,
            })
            .page_size(2048)
            .conservative(ConservativeKind::ConvexHull)
            .progressive(None)
            .false_area_test(true)
            .raster(false)
            .exact(ExactAlgorithm::Quadratic)
            .execution(Execution::Fused { threads: 3 })
            .batch_pairs(64)
            .build();
        assert_eq!(
            c.backend,
            Backend::PartitionedSweep {
                tiles_per_axis: 8,
                threads: 2
            }
        );
        assert_eq!(c.page_size, 2048);
        assert_eq!(c.conservative, Some(ConservativeKind::ConvexHull));
        assert_eq!(c.progressive, None);
        assert!(c.false_area_test);
        assert!(!c.raster);
        assert_eq!(c.exact, ExactAlgorithm::Quadratic);
        assert_eq!(c.execution, Execution::Fused { threads: 3 });
        assert_eq!(c.batch_pairs, 64);
        // to_builder picks up a preset.
        let v2 = JoinConfig::version2().to_builder().build();
        assert_eq!(v2, JoinConfig::version2());
    }

    #[test]
    fn engine_config_keeps_the_plan_and_instance_defaults() {
        let c = EngineConfig::from(JoinConfig::version2());
        assert_eq!(c.join, JoinConfig::version2());
        assert_eq!(EngineConfig::default().join, JoinConfig::default());
        // Robustness knobs default to off.
        assert_eq!(c.fault, FaultConfig::disabled());
        assert!(!c.force_scalar);
        assert_eq!(c.kernel_dispatch(), KernelDispatch::auto());
        assert_eq!(JoinConfig::default().kernel_dispatch(), c.kernel_dispatch());
        // Observability stays on (no traces).
        assert!(c.obs.enabled);
        assert_eq!(c.obs.trace_capacity, 0);
        let forced = EngineConfig {
            force_scalar: true,
            ..c
        };
        assert_eq!(forced.kernel_dispatch(), KernelDispatch::Scalar);
    }

    #[test]
    fn extra_bytes_follow_storage_model() {
        // 5-C (40 B) + MER (16 B) = 56 B extra per leaf entry.
        assert_eq!(JoinConfig::version2().extra_leaf_bytes(), 56);
        let rmbr_mer = JoinConfig {
            conservative: Some(ConservativeKind::Rmbr),
            progressive: Some(ProgressiveKind::Mer),
            ..JoinConfig::default()
        };
        assert_eq!(rmbr_mer.extra_leaf_bytes(), 20 + 16);
    }
}
