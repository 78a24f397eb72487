//! # msj-sam — the spatial access method substrate
//!
//! Step one of the multi-step join runs on a spatial access method. This
//! crate provides:
//!
//! * a paged [`RStarTree`] ([BKSS 90]) whose node capacity derives from a
//!   byte-level [`PageLayout`] (page size, leaf/directory entry sizes) so
//!   that storing approximations *in addition to the MBR* (§3.4, approach
//!   2) costs fanout exactly as in the paper;
//! * a simulated [`LruBuffer`] counting physical page accesses — the I/O
//!   metric of §3.4/§5 — as one [`PageObserver`] of the node visits;
//! * point and window queries;
//! * the [BKS 93a] [`tree_join`]: synchronized R*-tree traversal with
//!   search-space restriction and plane-sweep entry matching, streaming
//!   candidate pairs to the next step ([`tree_join_chunked`] is the same
//!   traversal under a [`JoinControl`]: kernel dispatch, cancellation,
//!   chunked delivery).
//!
//! # One form of the tree
//!
//! A tree is a frozen, flat column arena ([`rstar`]) built by STR
//! packing, and nothing traverses anything else. Its eight columns — node
//! levels, node rectangles, entry offsets, the entries' `xmin` / `ymin` /
//! `ymax` / `xmax`, entry values — are the persistent image, byte for
//! byte: `to_bytes` writes them, `from_bytes` validates and adopts them.
//! Each node's entries are stored once, stably sorted by `xmin`: [BKS 93a]
//! assumes entries are *kept* in sweep order on the page, and here they
//! are, so a join sorts nothing — it masks, merges and emits — and
//! because a subsequence of a stable sort is the stable sort of the
//! subsequence, the candidate stream of equal-level node pairs, its
//! order and every `mbr_tests` / I/O count are exactly those of sorting
//! per node pair. Descents read the same order.

pub mod buffer;
pub mod inl;
pub mod join;
pub mod rstar;

pub use buffer::{IoStats, LruBuffer, PageId, PageObserver};
pub use inl::index_nested_loop_join;
pub use join::{nested_loops_join, tree_join, tree_join_chunked, JoinControl, JoinStats};
pub use rstar::{PageLayout, RStarTree};
