//! # msj-exact — exact geometry processors for the spatial join
//!
//! Implementation of §4 of *"Multi-Step Processing of Spatial Joins"*: the
//! third join step, which decides the join predicate on the exact polygon
//! geometry for every candidate surviving the geometric filter.
//!
//! Three interchangeable algorithms (compared in Table 7 / Figure 16):
//!
//! * [`quadratic::quadratic_intersects`] — brute-force all-pairs edge
//!   test with MBR-pretested point-in-polygon containment fallback;
//! * [`sweep::sweep_intersects`] — Shamos–Hoey plane sweep with optional
//!   *search-space restriction* to the MBR intersection window (§4.1);
//! * [`trstar`] — the paper's proposal: trapezoid decomposition
//!   ([`trapezoid::decompose`]) organized per object in a main-memory
//!   TR*-tree with tiny node capacity — all trees of a relation in one
//!   flat [`trstar::TrStarStore`] arena — intersected by a dual-tree
//!   traversal over [`trstar::TrStarView`]s.
//!
//! All three implement the same *closed-region* predicate (touching and
//! containment count as intersection); a cross-algorithm agreement
//! property test enforces this. Costs are accounted by counting the
//! geometric operations of Table 6 ([`cost::OpCounts`]) and weighting them
//! with the paper's microsecond constants ([`cost::Weights`]).
//!
//! The crate's one `unsafe` is a pair of marker impls: the TR* arena's
//! node and trapezoid records are [`msj_geom::Plain`], so a stored arena
//! is viewed in place rather than decoded (see [`trstar`]).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod containment;
pub mod cost;
pub mod processor;
pub mod quadratic;
pub mod selection;
pub mod sweep;
pub mod trapezoid;
pub mod trstar;
pub mod window;

pub use containment::{intersect_by_containment, point_in_region_counted};
pub use cost::{OpCounts, Weights};
pub use processor::{ExactAlgorithm, ExactProcessor, ExactTester};
pub use quadratic::quadratic_intersects;
pub use selection::{SelectProbe, SelectionRefiner};
pub use sweep::sweep_intersects;
pub use trapezoid::{decompose, SelectMargin, Trapezoid, XSpan};
pub use trstar::{trees_intersect, TrStarColumns, TrStarFormatError, TrStarStore, TrStarView};
pub use window::{region_contains_point, region_intersects_rect};
