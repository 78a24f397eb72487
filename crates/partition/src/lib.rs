//! # msj-partition — the partitioned parallel MBR join
//!
//! The oracle's independent Step 1: a second MBR join beside the paper's
//! synchronized R*-tree traversal, following the uniform-grid
//! partitioning of Tsitsigkos & Mamoulis (*"Parallel In-Memory
//! Evaluation of Spatial Joins"*, SIGSPATIAL 2019). It shares no code
//! with the traversal beyond `msj-geom`, so a join on it checks the
//! default Step 1 instead of repeating it:
//!
//! 1. **Partition** — a uniform `n × n` [`Grid`] over the union of both
//!    data spaces; every MBR is assigned to *every* tile it overlaps
//!    (replication), so each tile join is independent;
//! 2. **Per-tile mini-join** — inside each tile, a plain scalar forward
//!    plane sweep over the two xmin-sorted rectangle lists reports the
//!    intersecting pairs;
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
//! It is not the fast path. Single-threaded it trailed the traversal
//! 1.7 × on the refine-heavy and 3.6 × on the filter-heavy benchmark
//! join even with a wide sweep kernel: every join re-buckets, sorts and
//! sweeps every tile, where the trees are built once per dataset. No
//! measured phase of the benchmark runs it, so the sweep stays scalar.
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
pub use join::{partition_join, partition_join_funneled};
pub use stats::PartitionStats;
