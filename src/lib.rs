//! # trustworthy-search
//!
//! A production-quality Rust reproduction of **Mitra, Hsu & Winslett,
//! "Trustworthy Keyword Search for Regulatory-Compliant Records
//! Retention", VLDB 2006** — a keyword-search engine over WORM
//! (write-once-read-many) storage whose *index* is as tamper-resistant as
//! the records themselves.
//!
//! Simply storing records on WORM is not enough: if the index an
//! investigator searches through can be manipulated, a record can be
//! hidden without touching its bytes.  This crate family provides:
//!
//! * [`worm`] — the WORM storage model: append-only blocks/files,
//!   retention enforcement, tamper-attempt logging, and the storage-cache
//!   simulator used by the paper's experiments;
//! * [`postings`] — document/term identifiers and WORM-backed posting
//!   lists with merged-list term tags;
//! * [`jump`] — **jump indexes**: fossilized `O(log N)`
//!   `Insert`/`Lookup`/`FindGeq` structures over monotone document IDs
//!   whose lookup paths can never be subverted by later writes;
//! * [`btree`] — the untrustworthy baseline: an append-only B+ tree plus
//!   the paper's Figure 6 hiding attack, demonstrating *why* jump indexes
//!   exist;
//! * [`ght`] — the Generalized Hash Tree exact-match baseline;
//! * [`corpus`] — synthetic corpus & query-log generators calibrated to
//!   the paper's IBM intranet workload;
//! * [`core`] — the assembled engine: merged posting lists with real-time
//!   index update, ranked disjunctive search (BM25/cosine), conjunctive
//!   zigzag joins over jump indexes, trustworthy commit-time ranges, and
//!   the phantom-posting countermeasure to ranking attacks (the cost
//!   model, figure drivers, attack simulations and epoch learner are the
//!   paper lab's, in the `tks-bench` crate);
//! * [`shard`] — the sharded multi-archive engine: hash-partitioned WORM
//!   shards behind one writer/searcher pair, scatter-gather query
//!   execution with conservative trust merging, and per-shard fault
//!   isolation (a dead shard degrades, the archive keeps answering);
//! * [`replica`] — chain-verified per-shard replication: deterministic
//!   primary/backup append streams fan each shard's WORM writes to
//!   backup devices, commit points carry the sealed chain links a
//!   replica verifies before advancing, and recovery promotes the
//!   replica with the longest verified chain prefix when the primary is
//!   lost (surviving verified replicas serve reads round-robin).
//!
//! ## Quickstart
//!
//! ```
//! use trustworthy_search::prelude::*;
//!
//! // An engine with 64 merged posting lists and jump indexes (B = 32),
//! // via the validating configuration builder.
//! let config = EngineConfig::builder()
//!     .assignment(MergeAssignment::uniform(64))
//!     .jump(JumpConfig::new(8192, 32, 1 << 32))
//!     .build()
//!     .unwrap();
//! let mut engine = SearchEngine::new(config).unwrap();
//!
//! // Committing a record indexes it *before* the call returns — there is
//! // no window in which an insider can suppress the index entry.
//! let doc = engine
//!     .add_document("quarterly earnings restatement draft", Timestamp(1_700_000_000))
//!     .unwrap();
//!
//! // Every read is one Query through one entry point; the response
//! // carries the hits plus per-query I/O cost and trust metadata.
//! let ranked = engine.execute(&Query::disjunctive("earnings restatement", 10)).unwrap();
//! assert_eq!(ranked.hits[0].doc, doc);
//! assert!(ranked.trusted);
//!
//! let exact = engine.execute(&Query::conjunctive("quarterly earnings")).unwrap();
//! assert_eq!(exact.docs(), vec![doc]);
//!
//! // Audits surface any tampering detectable from the WORM bytes.
//! assert!(engine.audit().is_clean());
//! ```
//!
//! ## Concurrent deployments
//!
//! Split the engine into an exclusive [`IndexWriter`](core::service::IndexWriter)
//! and cheaply cloneable [`Searcher`](core::service::Searcher) handles to
//! serve queries from many threads while documents are being committed:
//!
//! ```
//! use trustworthy_search::prelude::*;
//!
//! let (mut writer, searcher) = service(SearchEngine::new(EngineConfig::default()).unwrap());
//! writer.commit("board meeting minutes", Timestamp(100)).unwrap();
//!
//! let handle = searcher.clone(); // Send + Sync: share freely across threads
//! let resp = handle.execute(Query::disjunctive("board minutes", 10)).unwrap();
//! assert_eq!(resp.hits.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Facade crate: re-exports only; outside the production no-panic surface
// gated by clippy + `cargo xtask audit`.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub use tks_btree as btree;
pub use tks_core as core;
pub use tks_corpus as corpus;
pub use tks_ght as ght;
pub use tks_jump as jump;
pub use tks_postings as postings;
pub use tks_replica as replica;
pub use tks_shard as shard;
pub use tks_worm as worm;

/// The most commonly used types, re-exported for `use
/// trustworthy_search::prelude::*`.
pub mod prelude {
    pub use tks_core::engine::{
        AuditReport, ConfigError, EngineConfig, RecoveryReport, SearchEngine, SearchHit,
    };
    pub use tks_core::merge::MergeAssignment;
    pub use tks_core::query::{Query, QueryResponse, TermSelector, TimeRange};
    pub use tks_core::ranking::RankingModel;
    pub use tks_core::service::{service, IndexWriter, Searcher};
    pub use tks_jump::JumpConfig;
    pub use tks_postings::{DocId, ListId, TermId, Timestamp};
    pub use tks_shard::{ShardRouter, ShardedArchive, ShardedSearcher, ShardedWriter};
    pub use tks_worm::{AtomicIoStats, FaultPolicy, IoStats, WormDevice, WormFs};
}
