//! # msj-approx — conservative and progressive polygon approximations
//!
//! Implementation of §3 of *"Multi-Step Processing of Spatial Joins"*: the
//! geometric-filter toolbox of the multi-step join processor.
//!
//! **Conservative approximations** (contain the object; disjoint
//! approximations prove a *false hit*):
//! * [`ConservativeKind::Mbr`] — minimum bounding rectangle (4 params);
//! * [`ConservativeKind::Rmbr`] — rotated MBR via rotating calipers (5);
//! * [`ConservativeKind::ConvexHull`] — the convex hull (variable);
//! * [`ConservativeKind::FourCorner`] / [`ConservativeKind::FiveCorner`] —
//!   minimum bounding m-corner by greedy hull-edge elimination (8 / 10);
//! * [`ConservativeKind::Mbc`] — minimum bounding circle, Welzl (3);
//! * [`ConservativeKind::Mbe`] — minimum bounding ellipse, Khachiyan (5).
//!
//! **Progressive approximations** (contained in the object; intersecting
//! approximations prove a *hit*):
//! * [`ProgressiveKind::Mec`] — maximum enclosed circle (pole of
//!   inaccessibility refinement);
//! * [`ProgressiveKind::Mer`] — maximum enclosed rectangle (anchored band
//!   search following the paper's restricted definition).
//!
//! Plus the [`false_area::false_area_test`] (§3.3), the quality metrics of
//! Figures 4/8/9 ([`quality`]), per-relation stores with the byte-level
//! storage model of §3.4 ([`store`]), and the **raster-interval
//! signatures** of the Step-2a pre-filter ([`raster`]): per object an A
//! list (all cells) and an F list (FULL cells) of Hilbert-order cell runs,
//! decided by at most three binary-search list intersections — a conservative
//! and a progressive test in one stage.

pub mod circle;
pub mod ellipse;
pub mod false_area;
pub mod kinds;
pub mod mbc;
pub mod mbe;
pub mod mcorner;
pub mod mec;
pub mod mer;
pub mod quality;
pub mod raster;
pub mod store;

pub use circle::Circle;
pub use ellipse::Ellipse;
pub use false_area::{
    conservative_intersection_area, false_area_test, view_intersection_area, FalseAreaEntry,
    AREA_RESOLUTION,
};
pub use kinds::{
    is_conservative_for, ConsView, Conservative, ConservativeKind, Progressive, ProgressiveKind,
};
pub use mbc::min_bounding_circle;
pub use mbe::min_bounding_ellipse;
pub use mcorner::min_bounding_corner;
pub use mec::max_enclosed_circle;
pub use mer::{
    longest_horizontal_chord, max_enclosed_rect, max_enclosed_rect_counted, MerSearchStats,
};
pub use quality::{
    area_extension, area_extension_overhead, mbr_based_false_area, normalized_false_area,
    progressive_quality,
};
pub use raster::{
    auto_grid_bits, hilbert_index, raster_decide, rasterize, CellRun, RasterDecision, RasterGrid,
    RasterSignature, RasterStore, Rasterizer, MAX_GRID_BITS, MIN_GRID_BITS,
};
pub use store::{conservative_bytes, progressive_bytes, ConservativeStore, ProgressiveStore};
