//! # msj-partition — the partitioned parallel MBR join
//!
//! An alternative Step-1 candidate backend for the multi-step join,
//! following the uniform-grid partitioning of Tsitsigkos & Mamoulis
//! (*"Parallel In-Memory Evaluation of Spatial Joins"*, SIGSPATIAL 2019)
//! rather than the paper's synchronized R*-tree traversal:
//!
//! 1. **Partition** — a uniform `n × n` [`Grid`] over the union of both
//!    data spaces; every MBR is assigned to *every* tile it overlaps
//!    (replication), so each tile join is independent;
//! 2. **Per-tile mini-join** — inside each tile, a forward plane sweep
//!    over the two xmin-sorted rectangle lists reports the intersecting
//!    pairs ([`tile_sweep`]);
//! 3. **Deduplication** — replicated pairs are reported exactly once via
//!    the *reference-point* method: a pair counts only in the tile that
//!    contains the lower-left corner of the MBR intersection;
//! 4. **Parallelism** — tiles are distributed round-robin over scoped
//!    worker threads, and [`partition_join`] funnels the results onto the
//!    calling thread in tile order (deterministic for every thread
//!    count). These threads are Step 1's alone: the execution engine in
//!    `msj-core` schedules the downstream filter + exact steps over its
//!    own worker pool, fed from the calling thread.
//!
//! [`PartitionStats`] surfaces per-tile candidate counts, replication and
//! dedup counters. The grid is a join algorithm only: selections descend
//! each dataset's R*-tree, which the engine builds on either backend.
//!
//! The candidate *set* is provably identical to any other MBR join: a
//! pair is emitted iff the rectangles intersect, and the reference point
//! of an intersecting pair lies in exactly one tile.

pub mod grid;
pub mod join;
pub mod stats;

pub use grid::Grid;
pub use join::{partition_join, partition_join_funneled, tile_sweep, SweepScratch};
pub use stats::PartitionStats;
