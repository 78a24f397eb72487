//! # msj — Multi-Step Processing of Spatial Joins
//!
//! A from-scratch Rust reproduction of *"Multi-Step Processing of Spatial
//! Joins"* (Thomas Brinkhoff, Hans-Peter Kriegel, Ralf Schneider, Bernhard
//! Seeger; SIGMOD 1994): intersection joins over relations of complex
//! polygonal objects executed as **MBR-join → geometric filter → exact
//! geometry**.
//!
//! This crate is a façade re-exporting the workspace:
//!
//! * [`geom`] — geometry kernel (points, rectangles, polygons with holes,
//!   predicates, hulls, clipping) and the spatial object model;
//! * [`approx`] — conservative (MBR, RMBR, CH, 4-C/5-C, MBC, MBE) and
//!   progressive (MEC, MER) approximations, the false-area test, quality
//!   metrics;
//! * [`sam`] — a paged R*-tree with byte-level layout and the
//!   synchronized-traversal MBR join, counting node visits, with the
//!   paper's LRU buffer I/O model for the paper tables;
//! * [`partition`] — the partitioned parallel MBR join (uniform grid,
//!   per-tile plane sweeps, reference-point deduplication) selectable as
//!   the Step-1 backend via [`core::Backend::PartitionedSweep`];
//! * [`exact`] — exact geometry processors (quadratic, plane sweep,
//!   trapezoid decomposition + TR*-trees) with the Table 6 cost model;
//! * [`datagen`] — seeded synthetic cartography calibrated against the
//!   paper's dataset statistics;
//! * [`obs`] — always-on runtime observability (lock-free counters,
//!   gauges and log-bucketed latency histograms, per-request traces,
//!   JSON + Prometheus-style exporters) threaded through the engine;
//! * [`core`] — the multi-step join pipeline, the `Serial`/`Fused`
//!   execution engine ([`core::Execution`]), statistics and the §5
//!   total cost model;
//! * [`serve`] — the overload-safe network front: bounded per-pair
//!   queues with wire backpressure (§5-derived `retry_after_ms`),
//!   client deadlines over the engine's cancel tokens, connection
//!   hardening, graceful drain, and cross-request batching of
//!   concurrent selection probes.
//!
//! ## Quickstart
//!
//! ```
//! use msj::core::{JoinConfig, MultiStepJoin};
//!
//! // Two small synthetic map layers.
//! let forests = msj::datagen::small_carto(32, 24.0, 7);
//! let cities = msj::datagen::small_carto(32, 24.0, 8);
//!
//! // The default chain: raster → TR*. Raster signatures, then TR*-trees
//! // for the exact step (node capacity 6, measured). `JoinConfig::version3()`
//! // is the paper's choice: 5-corner + MER and M = 3.
//! let join = MultiStepJoin::new(JoinConfig::default());
//! let result = join.execute(&forests, &cities);
//!
//! println!(
//!     "{} intersecting pairs; {} of {} candidates decided by the filter",
//!     result.pairs.len(),
//!     result.stats.identified(),
//!     result.stats.mbr_join.candidates,
//! );
//! # assert!(result.stats.mbr_join.candidates >= result.pairs.len() as u64);
//! ```
//!
//! ## Scaling out Step 1
//!
//! The MBR-join backend is pluggable. On multi-core hardware the
//! partitioned parallel sweep replaces the serial R*-tree traversal
//! without changing any result:
//!
//! ```
//! use msj::core::{Backend, JoinConfig, MultiStepJoin};
//!
//! let forests = msj::datagen::small_carto(32, 24.0, 7);
//! let cities = msj::datagen::small_carto(32, 24.0, 8);
//!
//! let serial = MultiStepJoin::new(JoinConfig::default());
//! let partitioned = MultiStepJoin::new(
//!     JoinConfig::builder()
//!         .backend(Backend::PartitionedSweep { tiles_per_axis: 8, threads: 0 })
//!         .build(),
//! );
//! let mut expect = serial.execute(&forests, &cities).pairs;
//! let mut got = partitioned.execute(&forests, &cities).pairs;
//! expect.sort_unstable();
//! got.sort_unstable();
//! assert_eq!(expect, got);
//! ```

pub use msj_approx as approx;
pub use msj_core as core;
pub use msj_datagen as datagen;
pub use msj_exact as exact;
pub use msj_fault as fault;
pub use msj_geom as geom;
pub use msj_obs as obs;
pub use msj_partition as partition;
pub use msj_sam as sam;
pub use msj_serve as serve;

/// The crate version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
