//! Pluggable Step-1 candidate backends.
//!
//! Step 1 of the multi-step pipeline only has to deliver every pair of
//! objects whose MBRs intersect (for joins) or every object whose MBR
//! meets the query point/window (for selections); *how* the candidates
//! are found is an implementation choice. [`CandidateSource`] abstracts
//! that choice so joins and selections are backend-agnostic:
//!
//! * [`Backend::RStarTraversal`] — the paper's synchronized R*-tree
//!   traversal ([BKS 93a]), the default;
//! * [`Backend::PartitionedSweep`] — the uniform-grid partitioned join of
//!   `msj-partition` (Tsitsigkos & Mamoulis 2019): per-tile plane sweeps
//!   with reference-point deduplication, executed over the backend's own
//!   scoped tile threads.
//!
//! Both deliver the identical candidate *set*; downstream filter and
//! exact steps are provably unaffected (the property tests in
//! `tests/backend_agreement.rs` assert it).
//!
//! A source is a serial producer: it delivers every batch on the calling
//! thread, into one sink, and spawns nothing for Steps 2–3. Scheduling
//! those over threads is [`crate::execution`]'s job alone.

use crate::config::{Backend, JoinConfig};
use msj_approx::{progressive_bytes, ProgressiveKind};
use msj_geom::{
    CancelToken, KernelDispatch, ObjectId, PairBatchBuffer, PairSink, Point, Rect, RelHandle,
    Relation,
};
use msj_partition::{partition_join_funneled, GridIndex, PartitionStats};
use msj_sam::{tree_join_chunked, JoinControl, JoinStats, PageLayout, RStarTree};
use std::sync::{Arc, OnceLock};

/// Step-1 statistics, backend detail included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step1Stats {
    /// The common MBR-join counters: candidates, comparison tests and node
    /// visits (`io.logical`; `io.physical` is 0, no buffer is simulated).
    /// For the partitioned backend, `mbr_tests` counts sweep y-overlap
    /// tests and `io` stays zero (the grid has no nodes).
    pub join: JoinStats,
    /// Partition detail when the partitioned backend ran.
    pub partition: Option<PartitionSummary>,
}

/// Copyable summary of a [`PartitionStats`] (the full per-tile candidate
/// vector lives on `msj_partition::PartitionStats`; this is the digest
/// that travels inside [`crate::MultiStepStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PartitionSummary {
    /// Tiles per grid side.
    pub tiles_per_axis: u64,
    /// Tiles that emitted at least one candidate.
    pub nonempty_tiles: u64,
    /// Candidates of the busiest tile (skew indicator).
    pub busiest_tile_candidates: u64,
    /// Extra `(rectangle, tile)` assignments created by replication.
    pub replicated_assignments: u64,
    /// Sweep matches suppressed by reference-point deduplication.
    pub dedup_skipped: u64,
    /// Threads the Step-1 tile sweeps ran on.
    pub threads: u64,
    /// Mean tile assignments per input rectangle (1.0 = no replication).
    pub replication_factor: f64,
}

impl From<&PartitionStats> for PartitionSummary {
    fn from(stats: &PartitionStats) -> Self {
        PartitionSummary {
            tiles_per_axis: stats.tiles_per_axis as u64,
            nonempty_tiles: stats.nonempty_tiles() as u64,
            busiest_tile_candidates: stats.busiest_tile().map_or(0, |(_, c)| c),
            replicated_assignments: stats.replicated_a() + stats.replicated_b(),
            dedup_skipped: stats.dedup_skipped,
            threads: stats.threads as u64,
            replication_factor: stats.replication_factor(),
        }
    }
}

/// Step-1 statistics of one selection (point or window) probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Candidate ids delivered (MBR hits).
    pub candidates: u64,
    /// R*-tree nodes the probe visited (0 for the grid, which has none).
    pub node_visits: u64,
}

/// A prepared Step-1 backend over one or two relations (the engine's
/// prepared joins and registered datasets; [`selection_source`] builds a
/// borrowed one).
///
/// Candidate delivery is serial: one [`PairSink`], on the calling thread,
/// in batches of at most [`JoinConfig::batch_pairs`] — the executor
/// decides whether Steps 2–3 run right there or on its worker pool.
///
/// Every method takes `&self` and takes no lock on the way (the grid's
/// lazily built state is a `OnceLock`), so a prepared source is resident,
/// `Sync`, and serves concurrent joins and probes from an `Arc`-shared
/// [`crate::PreparedJoin`] side by side.
pub trait CandidateSource: Send + Sync {
    /// The backend's display name (used by reports and benches).
    fn name(&self) -> &'static str;

    /// Delivers every candidate pair `(id_a, id_b)` with intersecting
    /// MBRs, each exactly once, into `sink` on the calling thread, in the
    /// backend's deterministic order and in batches of at most
    /// [`JoinConfig::batch_pairs`] ([`PairSink::consume_batch`]).
    ///
    /// With `cancel`, delivery stops at the backend's next batch/tile
    /// boundary once the token reads cancelled, reporting the partial
    /// counts accumulated so far; it is otherwise identical without it.
    fn join_candidates(&self, sink: &mut dyn PairSink, cancel: Option<&CancelToken>) -> Step1Stats;

    /// Point probes, batch-shaped (a single probe is a batch of one):
    /// for each point in order, every id of the primary relation whose
    /// MBR contains it is appended to `out` contiguously and one
    /// [`SelectionStats`] (segment length = `candidates`) is pushed onto
    /// `stats`. How probes are grouped shows in neither the ids, nor
    /// their order, nor the statistics.
    fn point_candidates(
        &self,
        points: &[Point],
        out: &mut Vec<ObjectId>,
        stats: &mut Vec<SelectionStats>,
    );

    /// Window probes — ids whose MBR intersects each window, each with
    /// [`Rect::covers_an_extent_of`] (a proved hit) pushed onto `proved`;
    /// same contract as [`point_candidates`](CandidateSource::point_candidates).
    fn window_candidates(
        &self,
        windows: &[Rect],
        out: &mut Vec<ObjectId>,
        proved: &mut Vec<bool>,
        stats: &mut Vec<SelectionStats>,
    );
}

/// Builds the configured backend over one relation (Step 1 of selection
/// queries; a join over this source is a self-join).
pub fn selection_source<'a>(
    config: &JoinConfig,
    relation: &'a Relation,
) -> Box<dyn CandidateSource + 'a> {
    let dispatch = config.kernel_dispatch();
    source_with(config, dispatch, relation.into(), None, None, None)
}

/// The configured backend over explicit handles — `rel_b` is `None` for a
/// single-relation source — plus optionally pre-built shared trees (the
/// resident engine's: Step 0 ran at dataset registration). A missing tree
/// is built here; the grid backend indexes nothing up front and ignores
/// them. The source's wide scans run on `dispatch`.
pub(crate) fn source_with<'a>(
    config: &JoinConfig,
    dispatch: KernelDispatch,
    rel_a: RelHandle<'a>,
    rel_b: Option<RelHandle<'a>>,
    tree_a: Option<Arc<RStarTree>>,
    tree_b: Option<Arc<RStarTree>>,
) -> Box<dyn CandidateSource + 'a> {
    match config.backend {
        Backend::RStarTraversal => {
            let tree = |shared: Option<Arc<RStarTree>>, relation: &RelHandle| {
                shared.unwrap_or_else(|| Arc::new(build_tree(config, relation)))
            };
            let tree_b = rel_b.map(|rel_b| tree(tree_b, &rel_b));
            Box::new(RStarSource {
                tree_a: tree(tree_a, &rel_a),
                tree_b,
                batch: config.batch_pairs.max(1),
                dispatch,
            })
        }
        Backend::PartitionedSweep {
            tiles_per_axis,
            threads,
        } => Box::new(GridSource {
            rel_a,
            rel_b,
            tiles_per_axis,
            threads,
            batch: config.batch_pairs.max(1),
            dispatch,
            index: OnceLock::new(),
            join_items: OnceLock::new(),
        }),
    }
}

/// Step 0 for one relation: STR bulk loading, once per registered dataset
/// (per source for the borrowed sources). Leaves keep a MER's 16 B per
/// entry at least: 64 per 4 KB, as measured.
pub(crate) fn build_tree(config: &JoinConfig, relation: &Relation) -> RStarTree {
    let extra = progressive_bytes(ProgressiveKind::Mer).max(config.extra_leaf_bytes());
    let layout = PageLayout::with_extra_bytes(config.page_size, extra);
    RStarTree::bulk_load(layout, relation.iter().map(|o| (o.mbr(), o.id)))
}

/// The default backend: paged R*-trees, synchronized traversal. Trees are
/// `Arc`-shared so registered datasets pay Step 0 once; the source holds
/// nothing mutable, so concurrent runs and probes never wait on each
/// other.
struct RStarSource {
    tree_a: Arc<RStarTree>,
    /// `None` for single-relation (selection) sources; joins then run
    /// `tree_a ⋈ tree_a`.
    tree_b: Option<Arc<RStarTree>>,
    /// Candidate pairs per batched delivery / cross-thread chunk.
    batch: usize,
    /// Kernel path for the traversal's wide scans, resolved once at
    /// source construction.
    dispatch: KernelDispatch,
}

impl CandidateSource for RStarSource {
    fn name(&self) -> &'static str {
        "rstar-traversal"
    }

    fn join_candidates(&self, sink: &mut dyn PairSink, cancel: Option<&CancelToken>) -> Step1Stats {
        let tree_a = &*self.tree_a;
        let tree_b = self.tree_b.as_deref().unwrap_or(tree_a);
        let control = JoinControl {
            dispatch: self.dispatch,
            cancel,
            chunk_capacity: self.batch,
        };
        // The traversal's chunks double as sink batches — one virtual
        // dispatch per `batch` pairs, and the one chunk buffer refilled
        // in place.
        let join = tree_join_chunked(&control, tree_a, tree_b, &mut (), |chunk| {
            sink.consume_batch(chunk)
        });
        Step1Stats {
            join,
            partition: None,
        }
    }

    fn point_candidates(
        &self,
        points: &[Point],
        out: &mut Vec<ObjectId>,
        stats: &mut Vec<SelectionStats>,
    ) {
        let tree = &*self.tree_a;
        for &p in points {
            stats.push(probe(out, |out| tree.point_query(p, &mut (), out)));
        }
    }

    fn window_candidates(
        &self,
        windows: &[Rect],
        out: &mut Vec<ObjectId>,
        proved: &mut Vec<bool>,
        stats: &mut Vec<SelectionStats>,
    ) {
        let tree = &*self.tree_a;
        for &w in windows {
            stats.push(probe(out, |out| {
                tree.window_query_proving(w, &mut (), out, proved)
            }));
        }
    }
}

/// One relation's `(MBR, id)` list — a side of the partitioned join.
type MbrItems = Vec<(Rect, ObjectId)>;
type MbrItemsSlice<'b> = &'b [(Rect, ObjectId)];

/// The partitioned backend: uniform grid, per-tile plane sweeps,
/// reference-point deduplication, the tile sweeps on `threads` scoped
/// threads of its own.
struct GridSource<'a> {
    rel_a: RelHandle<'a>,
    rel_b: Option<RelHandle<'a>>,
    tiles_per_axis: usize,
    /// Step-1 tile-sweep threads (`Backend::PartitionedSweep::threads`).
    threads: usize,
    /// Candidate pairs per batched sink delivery.
    batch: usize,
    /// Kernel path for the tile sweeps, resolved once at source
    /// construction.
    dispatch: KernelDispatch,
    /// Single-relation grid for selection probes, built on first use.
    index: OnceLock<GridIndex>,
    /// `(items_a, items_b)` MBR lists for joins, collected on first use
    /// and reused across repeated `PreparedJoin` runs (`items_b` is
    /// `None` for self-joins — side A doubles as side B).
    join_items: OnceLock<(MbrItems, Option<MbrItems>)>,
}

impl<'a> GridSource<'a> {
    fn items(relation: &Relation) -> Vec<(Rect, ObjectId)> {
        relation.iter().map(|o| (o.mbr(), o.id)).collect()
    }

    fn join_items(&self) -> (MbrItemsSlice<'_>, MbrItemsSlice<'_>) {
        let (a, b) = self.join_items.get_or_init(|| {
            (
                Self::items(&self.rel_a),
                self.rel_b.as_deref().map(Self::items),
            )
        });
        let a: MbrItemsSlice = a;
        (a, b.as_deref().unwrap_or(a))
    }

    fn index(&self) -> &GridIndex {
        self.index
            .get_or_init(|| GridIndex::build(&Self::items(&self.rel_a), self.tiles_per_axis))
    }
}

impl CandidateSource for GridSource<'_> {
    fn name(&self) -> &'static str {
        "partitioned-sweep"
    }

    fn join_candidates(&self, sink: &mut dyn PairSink, cancel: Option<&CancelToken>) -> Step1Stats {
        let (items_a, items_b) = self.join_items();
        // Tile sweeps may parallelize internally (`threads`) but funnel
        // into the calling thread in deterministic tile order, re-batched
        // caller-side so the sink still sees runs.
        let mut buffer = PairBatchBuffer::new(sink, self.batch);
        let stats = partition_join_funneled(
            self.dispatch,
            items_a,
            items_b,
            self.tiles_per_axis,
            self.threads,
            cancel,
            |id_a, id_b| buffer.pair(id_a, id_b),
        );
        drop(buffer); // flush the tail
        Step1Stats {
            join: JoinStats {
                candidates: stats.candidates(),
                mbr_tests: stats.pair_tests,
                restriction_tests: 0,
                io: Default::default(),
            },
            partition: Some(PartitionSummary::from(&stats)),
        }
    }

    fn point_candidates(
        &self,
        points: &[Point],
        out: &mut Vec<ObjectId>,
        stats: &mut Vec<SelectionStats>,
    ) {
        let index = self.index();
        for &p in points {
            stats.push(probe(out, |out| no_nodes(index.point_candidates(p, out))));
        }
    }

    fn window_candidates(
        &self,
        windows: &[Rect],
        out: &mut Vec<ObjectId>,
        proved: &mut Vec<bool>,
        stats: &mut Vec<SelectionStats>,
    ) {
        let index = self.index();
        for &w in windows {
            stats.push(probe(out, |out| {
                no_nodes(index.window_candidates(w, out, proved))
            }));
        }
    }
}

/// One probe appending into `out`; `descend` returns its node visits.
fn probe(
    out: &mut Vec<ObjectId>,
    descend: impl FnOnce(&mut Vec<ObjectId>) -> u64,
) -> SelectionStats {
    let before = out.len();
    let node_visits = descend(out);
    SelectionStats {
        candidates: (out.len() - before) as u64,
        node_visits,
    }
}

/// A grid probe's node visits: none. (The probe returns its bucket tests,
/// which selections do not report.)
fn no_nodes(_bucket_tests: u64) -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The configured backend over a borrowed relation pair.
    fn join_source<'a>(
        config: &JoinConfig,
        rel_a: &'a Relation,
        rel_b: &'a Relation,
    ) -> Box<dyn CandidateSource + 'a> {
        let dispatch = config.kernel_dispatch();
        source_with(
            config,
            dispatch,
            rel_a.into(),
            Some(rel_b.into()),
            None,
            None,
        )
    }

    fn sorted(mut v: Vec<(ObjectId, ObjectId)>) -> Vec<(ObjectId, ObjectId)> {
        v.sort_unstable();
        v
    }

    fn configs() -> [JoinConfig; 3] {
        [
            JoinConfig::default(),
            JoinConfig {
                backend: Backend::PartitionedSweep {
                    tiles_per_axis: 4,
                    threads: 2,
                },
                ..JoinConfig::default()
            },
            JoinConfig {
                backend: Backend::PartitionedSweep {
                    tiles_per_axis: 1,
                    threads: 1,
                },
                ..JoinConfig::default()
            },
        ]
    }

    #[test]
    fn backends_deliver_the_same_join_candidates() {
        let a = msj_datagen::small_carto(40, 24.0, 301);
        let b = msj_datagen::small_carto(40, 24.0, 302);
        let mut reference: Option<Vec<(ObjectId, ObjectId)>> = None;
        for config in configs() {
            let source = join_source(&config, &a, &b);
            let mut got = Vec::new();
            let stats = source.join_candidates(&mut |x, y| got.push((x, y)), None);
            assert_eq!(stats.join.candidates, got.len() as u64, "{}", source.name());
            let got = sorted(got);
            match &reference {
                None => reference = Some(got),
                Some(expect) => assert_eq!(&got, expect, "{} diverged", source.name()),
            }
        }
    }

    #[test]
    fn partitioned_source_reports_partition_summary() {
        let a = msj_datagen::small_carto(30, 20.0, 311);
        let b = msj_datagen::small_carto(30, 20.0, 312);
        let config = JoinConfig {
            backend: Backend::PartitionedSweep {
                tiles_per_axis: 4,
                threads: 2,
            },
            ..JoinConfig::default()
        };
        let source = join_source(&config, &a, &b);
        let stats = source.join_candidates(&mut |_, _| {}, None);
        let summary = stats.partition.expect("partition summary");
        assert_eq!(summary.tiles_per_axis, 4);
        // Tiny input: the sweep may fall back to serial, but never exceeds
        // the requested worker count.
        assert!((1..=2).contains(&summary.threads));
        assert!(summary.replication_factor >= 1.0);
        assert!(summary.busiest_tile_candidates <= stats.join.candidates);
        // The R*-tree backend reports none.
        let rstar = join_source(&JoinConfig::default(), &a, &b);
        let stats = rstar.join_candidates(&mut |_, _| {}, None);
        assert!(stats.partition.is_none());
    }

    #[test]
    fn selection_probes_agree_across_backends() {
        let rel = msj_datagen::small_carto(50, 24.0, 321);
        let world = rel.bounding_rect().unwrap();
        let sources: Vec<_> = configs()
            .iter()
            .map(|c| selection_source(c, &rel))
            .collect();
        for i in 0..30 {
            let p = Point::new(
                world.xmin() + world.width() * (i as f64 * 0.37).fract(),
                world.ymin() + world.height() * (i as f64 * 0.61).fract(),
            );
            let window = Rect::from_bounds(
                p.x,
                p.y,
                p.x + world.width() * 0.1,
                p.y + world.height() * 0.08,
            );
            let mut expect_point: Option<Vec<ObjectId>> = None;
            let mut expect_window: Option<Vec<(ObjectId, bool)>> = None;
            for source in &sources {
                let (mut got, mut stats) = (Vec::new(), Vec::new());
                source.point_candidates(&[p], &mut got, &mut stats);
                assert_eq!(stats[0].candidates, got.len() as u64);
                got.sort_unstable();
                match &expect_point {
                    None => expect_point = Some(got),
                    Some(e) => assert_eq!(&got, e, "{} point probe", source.name()),
                }
                let (mut got, mut proved) = (Vec::new(), Vec::new());
                source.window_candidates(&[window], &mut got, &mut proved, &mut stats);
                let mut got: Vec<_> = got.into_iter().zip(proved).collect();
                got.sort_unstable();
                match &expect_window {
                    None => expect_window = Some(got),
                    Some(e) => assert_eq!(&got, e, "{} window probe", source.name()),
                }
            }
        }
    }

    #[test]
    fn self_join_source_works_without_second_relation() {
        let rel = msj_datagen::small_carto(25, 20.0, 331);
        for config in configs() {
            let source = selection_source(&config, &rel);
            let mut pairs = Vec::new();
            source.join_candidates(&mut |x, y| pairs.push((x, y)), None);
            // Every object pairs with itself in a self-join.
            for o in rel.iter() {
                assert!(pairs.contains(&(o.id, o.id)), "{} missing ({0}, {0})", o.id);
            }
        }
    }
}
