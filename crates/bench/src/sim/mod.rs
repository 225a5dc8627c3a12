//! Simulation drivers for the paper's experiments.
//!
//! These reproduce the methodology of §3.4/§4.5: corpus-scale insertion
//! simulations run against the storage-cache simulator with metadata-only
//! state (so a million-document run needs O(cache + vocabulary) memory),
//! and query simulations run against real index structures counting block
//! reads.  Each figure binary under `src/bin/` wraps one of these.

pub mod insertion;
pub mod queries;

pub use insertion::{insertion_ios, jump_insertion_ios, InsertionSimResult};
pub use queries::{btree_conjunctive_cost, build_engine, build_term_btrees, scan_merge_blocks};
