//! # `tks-shard` — hash-partitioned WORM shards with scatter-gather queries
//!
//! The paper's single-archive design caps ingest and query throughput at
//! one WORM device's bandwidth.  This crate scales the archive *without
//! weakening its trust story* by running `N` fully independent
//! [`SearchEngine`](tks_core::SearchEngine)s — each with its own WORM
//! devices, merged lists, caches, and recovery state — behind one
//! sharded service:
//!
//! * [`ShardRouter`] — a stable FNV-1a hash of the document key picks the
//!   shard, and a **global document-id namespace** encodes
//!   `(shard_id, local_id)` in one [`DocId`](tks_postings::DocId) so
//!   merged responses stay meaningful;
//! * [`ShardedWriter`] — routes `commit`/`commit_to`/`commit_terms_to`
//!   to per-shard [`IndexWriter`](tks_core::IndexWriter)s, one document
//!   at a time;
//! * [`ShardedSearcher`] — answers a [`Query`](tks_core::Query) in two
//!   halves: `scatter` names the per-shard
//!   [`Searcher`](tks_core::Searcher) snapshot to consult, `gather`
//!   merges the per-shard responses: result union in global-id order
//!   (ranked queries re-rank across shards), summed I/O and
//!   decoded-cache statistics, `trusted` = AND over the shards actually
//!   consulted, quarantined bytes reported per shard and in aggregate.
//!   `execute` is `gather` over `scatter` on the calling thread; this
//!   crate starts no thread, and the network server runs the per-shard
//!   executions on its own executor;
//! * [`ShardedArchive`] — per-shard crash recovery that **isolates** a
//!   dead or tampered shard into an explicit degraded state instead of
//!   failing the whole archive: queries keep serving from healthy shards
//!   (their `trusted` verdict is unaffected) while every response names
//!   the shards it could not consult.
//!
//! Everything here goes through the per-shard service API
//! (`tks_core::service`); `cargo xtask audit` rule `shard-isolation`
//! denies direct storage-layer access (`WormFs`, `ListStore`, …) from
//! this crate, so a shard's WORM discipline cannot be bypassed from the
//! routing layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod archive;
pub mod error;
pub mod router;
pub mod service;
pub mod session;

pub use archive::{ReplicatedShardParts, ShardRecovery, ShardedArchive};
pub use error::ShardError;
pub use router::{local_of, shard_of, ShardRouter, MAX_SHARDS, SHARD_ID_SHIFT};
pub use service::{
    DegradedShard, ReplicaReader, ShardStatus, ShardedResponse, ShardedSearcher, ShardedWriter,
};
pub use session::QuerySession;
