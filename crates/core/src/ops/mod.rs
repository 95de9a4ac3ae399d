//! Executors for the §4 operations. Each submodule turns the pure plans
//! of [`crate::reshuffle`] and the tree plumbing of [`crate::tree`] into
//! volume reads/writes and buddy-allocator calls.

pub(crate) mod append;
pub(crate) mod delete;
pub(crate) mod insert;
pub(crate) mod read;
pub(crate) mod replace;
pub(crate) mod rewrite;
