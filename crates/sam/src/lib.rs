//! # msj-sam — the spatial access method substrate
//!
//! Step one of the multi-step join runs on a spatial access method. This
//! crate provides:
//!
//! * a paged [`RStarTree`] ([BKSS 90]) whose node capacity derives from a
//!   byte-level [`PageLayout`] (page size, leaf/directory entry sizes) so
//!   that storing approximations *in addition to the MBR* (§3.4, approach
//!   2) costs fanout exactly as in the paper;
//! * a simulated [`LruBuffer`] counting logical and physical page
//!   accesses — the I/O metric of §3.4/§5;
//! * point and window queries;
//! * the [BKS 93a] [`tree_join`]: synchronized R*-tree traversal with
//!   search-space restriction and plane-sweep entry matching, streaming
//!   candidate pairs to the next step.

pub mod buffer;
pub mod inl;
pub mod join;
pub mod rstar;

pub use buffer::{IoStats, LruBuffer, PageId};
pub use inl::index_nested_loop_join;
pub use join::{
    nested_loops_join, tree_join, tree_join_cancellable_with, tree_join_chunked,
    tree_join_chunked_observed, tree_join_chunked_observed_with, tree_join_with, JoinStats,
};
pub use rstar::{Entry, PageLayout, RStarTree};
