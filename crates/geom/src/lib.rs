//! # msj-geom — geometry kernel for the multi-step spatial join
//!
//! This crate provides the planar geometry substrate shared by the
//! reproduction of *"Multi-Step Processing of Spatial Joins"* (Brinkhoff,
//! Kriegel, Schneider, Seeger; SIGMOD 1994):
//!
//! * [`Point`], [`Rect`] (the minimum bounding rectangle), [`Segment`];
//! * orientation predicates with a numeric collinearity band
//!   ([`predicates`]);
//! * simple [`Polygon`]s and [`PolygonWithHoles`] regions with closed-region
//!   membership semantics;
//! * convex hulls ([`hull`]), minimum-area oriented rectangles
//!   ([`calipers`]), and convex clipping / SAT intersection tests
//!   ([`clip`]);
//! * structural validators ([`validate`]) used by tests and the data
//!   generator;
//! * the execution plumbing shared by every join path ([`exec`]): the
//!   batched [`PairSink`] every Step-1 producer delivers into and
//!   thread-count resolution, plus the
//!   cooperative [`CancelToken`] every backend polls at batch boundaries
//!   ([`cancel`]);
//! * the inline traversal stack shared by the flat tree arenas
//!   ([`stack`]);
//! * runtime-dispatched wide kernels for the hot loops ([`kernels`]):
//!   SoA MBR scans, MER fast-accept and probe masks, with a scalar
//!   reference path selectable via [`KernelDispatch`].
//!
//! All coordinates are `f64`. Every region predicate in this workspace uses
//! *closed* semantics: touching boundaries intersect and containment counts
//! as intersection, matching the intersection join of the paper.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bytes;
pub mod calipers;
pub mod cancel;
pub mod clip;
pub mod exec;
pub mod hull;
pub mod kernels;
pub mod object;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod rect;
pub mod segment;
pub mod stack;
pub mod svg;
pub mod validate;
pub mod wkt;

pub use bytes::{
    cast_slice, checksum, fnv1a64, fnv1a64_update, AlignedBuf, Plain, SharedBytes, PAGE_SIZE,
};
pub use calipers::{min_area_rect, OrientedRect};
pub use cancel::{CancelReason, CancelToken};
pub use clip::{
    clip_convex, convex_intersect, convex_intersect_slices, convex_intersection_area,
    edge_separates, ring_area,
};
pub use exec::{panic_message, resolve_threads, PairBatchBuffer, PairSink, WorkerPanic};
pub use hull::{convex_contains_point, convex_hull};
pub use kernels::KernelDispatch;
pub use object::{DecodeHook, LazyRelation, ObjectId, RelHandle, Relation, SpatialObject};
pub use point::Point;
pub use polygon::{Polygon, PolygonError, PolygonWithHoles};
pub use predicates::{collinear, orient2d, orient2d_raw, Orientation};
pub use rect::Rect;
pub use segment::Segment;
pub use svg::{Style, SvgCanvas};
pub use validate::{is_simple, region_is_valid};
pub use wkt::{parse_polygon, parse_regions, read_relation, to_wkt, write_relation, WktError};
