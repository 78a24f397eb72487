//! Pluggable Step-1 candidate backends for joins.
//!
//! Step 1 of a join only has to deliver every pair of objects whose MBRs
//! intersect; *how* the candidates are found is an implementation
//! choice. [`CandidateSource`] abstracts that choice so joins are
//! backend-agnostic:
//!
//! * [`Backend::RStarTraversal`] — the paper's synchronized R*-tree
//!   traversal ([BKS 93a]), the default;
//! * [`Backend::PartitionedSweep`] — the uniform-grid partitioned join of
//!   `msj-partition` (Tsitsigkos & Mamoulis 2019): per-tile plane sweeps
//!   with reference-point deduplication, executed over the backend's own
//!   scoped tile threads; the independent Step 1 an oracle joins with.
//!
//! Both deliver the identical candidate *set*; downstream filter and
//! exact steps are provably unaffected (the property tests in
//! `tests/backend_agreement.rs` assert it). Selections are not a
//! backend's business: every dataset's R*-tree serves them
//! ([`crate::queries`]).
//!
//! A source is a serial producer: it delivers every batch on the calling
//! thread, into one sink, and spawns nothing for Steps 2–3. Scheduling
//! those over threads is [`crate::execution`]'s job alone.

use crate::config::{Backend, JoinConfig};
use msj_approx::{progressive_bytes, ProgressiveKind};
use msj_geom::{
    CancelToken, KernelDispatch, ObjectId, PairBatchBuffer, PairSink, Rect, RelHandle, Relation,
};
use msj_partition::{partition_join_funneled, PartitionStats};
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

/// A prepared Step-1 backend over two relations (a self-join's one
/// relation on both sides).
///
/// Candidate delivery is serial: one [`PairSink`], on the calling thread,
/// in batches of at most [`JoinConfig::batch_pairs`] — the executor
/// decides whether Steps 2–3 run right there or on its worker pool.
///
/// It takes `&self` and no lock on the way (the grid's lazily collected
/// MBR lists are a `OnceLock`), so a prepared source is resident, `Sync`,
/// and serves concurrent joins from an `Arc`-shared
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
}

/// One side of a join's Step 1: the relation and its R*-tree, both built
/// or adopted at Step 0.
pub(crate) type Step1Side = (RelHandle<'static>, Arc<RStarTree>);

/// The configured backend over two sides. The R*-tree traversal joins
/// the sides' trees, its wide scans on `dispatch`; the grid backend
/// collects the relations' MBRs on its first run and ignores the trees,
/// so that it stays independent of the tree build ([`GridSource`]).
pub(crate) fn source_with(
    config: &JoinConfig,
    dispatch: KernelDispatch,
    (rel_a, tree_a): Step1Side,
    (rel_b, tree_b): Step1Side,
) -> Box<dyn CandidateSource> {
    let batch = config.batch_pairs.max(1);
    match config.backend {
        Backend::RStarTraversal => Box::new(RStarSource {
            tree_a,
            tree_b,
            batch,
            dispatch,
        }),
        Backend::PartitionedSweep {
            tiles_per_axis,
            threads,
        } => Box::new(GridSource {
            rel_a,
            rel_b,
            tiles_per_axis,
            threads,
            batch,
            join_items: OnceLock::new(),
        }),
    }
}

/// Step 0 for one relation: STR bulk loading, once per registered dataset
/// on either backend. Leaves keep a MER's 16 B per entry at least: 64 per
/// 4 KB, as measured.
pub(crate) fn build_tree(config: &JoinConfig, relation: &Relation) -> RStarTree {
    let extra = progressive_bytes(ProgressiveKind::Mer).max(config.extra_leaf_bytes());
    let layout = PageLayout::with_extra_bytes(config.page_size, extra);
    RStarTree::bulk_load(layout, relation.iter().map(|o| (o.mbr(), o.id)))
}

/// The default backend: paged R*-trees, synchronized traversal. Trees are
/// `Arc`-shared so registered datasets pay Step 0 once; the source holds
/// nothing mutable, so concurrent runs never wait on each other.
struct RStarSource {
    tree_a: Arc<RStarTree>,
    tree_b: Arc<RStarTree>,
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
        let control = JoinControl {
            dispatch: self.dispatch,
            cancel,
            chunk_capacity: self.batch,
        };
        // The traversal's chunks double as sink batches — one virtual
        // dispatch per `batch` pairs, and the one chunk buffer refilled
        // in place.
        let (tree_a, tree_b) = (&*self.tree_a, &*self.tree_b);
        let join = tree_join_chunked(&control, tree_a, tree_b, &mut (), |chunk| {
            sink.consume_batch(chunk)
        });
        Step1Stats {
            join,
            partition: None,
        }
    }
}

/// One relation's `(MBR, id)` list — a side of the partitioned join.
type MbrItems = Vec<(Rect, ObjectId)>;

/// The partitioned backend: uniform grid, per-tile plane sweeps,
/// reference-point deduplication, the tile sweeps on `threads` scoped
/// threads of its own. Its MBR lists come from the relations, not the
/// R*-trees' leaves: an oracle joining on it shares no code with the
/// default Step 1, so a `bulk_load` bug that drops an entry shows as a
/// disagreement instead of passing unseen. The price is a relation
/// decode on the first grid join over an opened store.
struct GridSource {
    rel_a: RelHandle<'static>,
    rel_b: RelHandle<'static>,
    tiles_per_axis: usize,
    /// Step-1 tile-sweep threads (`Backend::PartitionedSweep::threads`).
    threads: usize,
    /// Candidate pairs per batched sink delivery.
    batch: usize,
    /// `(items_a, items_b)` MBR lists, collected on first use and reused
    /// across repeated `PreparedJoin` runs.
    join_items: OnceLock<(MbrItems, MbrItems)>,
}

impl CandidateSource for GridSource {
    fn name(&self) -> &'static str {
        "partitioned-sweep"
    }

    fn join_candidates(&self, sink: &mut dyn PairSink, cancel: Option<&CancelToken>) -> Step1Stats {
        let items = |rel: &Relation| rel.iter().map(|o| (o.mbr(), o.id)).collect();
        let (items_a, items_b) = self
            .join_items
            .get_or_init(|| (items(&self.rel_a), items(&self.rel_b)));
        // Tile sweeps may parallelize internally (`threads`) but funnel
        // into the calling thread in deterministic tile order, re-batched
        // caller-side so the sink still sees runs.
        let mut buffer = PairBatchBuffer::new(sink, self.batch);
        let stats = partition_join_funneled(
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The configured backend over two relations, each with the tree
    /// Step 0 builds for it.
    fn join_source(
        config: &JoinConfig,
        rel_a: &Relation,
        rel_b: &Relation,
    ) -> Box<dyn CandidateSource> {
        let side = |rel: &Relation| -> Step1Side {
            let tree = Arc::new(build_tree(config, rel));
            (Arc::new(rel.clone()).into(), tree)
        };
        source_with(config, config.kernel_dispatch(), side(rel_a), side(rel_b))
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
    fn a_self_join_pairs_every_object_with_itself() {
        let rel = msj_datagen::small_carto(25, 20.0, 331);
        for config in configs() {
            let source = join_source(&config, &rel, &rel);
            let mut pairs = Vec::new();
            source.join_candidates(&mut |x, y| pairs.push((x, y)), None);
            for o in rel.iter() {
                assert!(pairs.contains(&(o.id, o.id)), "{} missing ({0}, {0})", o.id);
            }
        }
    }
}
