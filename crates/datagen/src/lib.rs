//! # msj-datagen — synthetic cartography-like datasets
//!
//! The paper evaluates on proprietary cartographic relations (*Europe*:
//! 810 EC county polygons; *BW*: 374 Baden-Württemberg municipality
//! polygons; plus two ≈130 000-object relations from [BKS 93a]). Those maps
//! are not available, so this crate generates seeded synthetic substitutes
//! whose *statistics* — vertex-count distribution, MBR normalized false
//! area, pairwise candidate/hit ratios — are calibrated against the values
//! the paper publishes (Figure 2, Table 1, Table 2). The paper's results
//! are ratios — filter selectivity, false area, cost shares per step —
//! and those depend on these statistics, not on the particular
//! coastlines, so the `repro` tables compare ratios and shapes against
//! the published ones, never absolute object identities.
//!
//! Main entry points:
//! * [`relations::europe_like`], [`relations::bw_like`] — the two
//!   evaluation maps;
//! * [`relations::test_series`] / [`relations::all_series`] — the four join
//!   series Europe A/B, BW A/B (strategies of §3.1);
//! * [`relations::large_relation`] — the §3.4/§5 bulk relations;
//! * [`blob::blob`] — the underlying single-polygon generator.

pub mod blob;
pub mod calibrate;
pub mod holes;
pub mod layout;
pub mod relations;
pub mod series;

pub use blob::{blob, BlobParams};
pub use calibrate::{mbr_false_area_stats, Stats};
pub use holes::{carto_with_holes, carve_hole, with_holes, HoleParams};
pub use layout::{generate_relation, LayoutParams};
pub use relations::{
    all_series, bw_like, europe_like, large_relation, skewed_carto, small_carto, test_series,
    world, BaseMap, Strategy,
};
pub use series::{strategy_a, strategy_b, TestSeries};
