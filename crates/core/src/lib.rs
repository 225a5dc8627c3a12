//! # `tks-core` — trustworthy keyword search for compliant records retention
//!
//! The primary contribution of *Mitra, Hsu & Winslett, VLDB 2006*,
//! assembled over the substrate crates:
//!
//! * **merged posting lists** (paper §3): a merge assignment maps each
//!   term to one of `M` physical lists, `M` = storage-cache blocks, so
//!   every index append hits the non-volatile cache and index updates
//!   happen in *real time* — no buffering window for the adversary to
//!   exploit ([`merge`]);
//! * the **functional search engine** ([`engine`]): WORM-backed documents
//!   and posting lists, real-time per-document index update, disjunctive
//!   queries with cosine/Okapi-BM25 ranking, conjunctive queries via
//!   zigzag joins over jump indexes, trustworthy commit-time range
//!   restriction, and audits that surface tamper evidence;
//! * **zigzag joins** (paper Figure 5) over jump indexes or in-memory
//!   runs ([`zigzag`]);
//! * the §5 **phantom-posting countermeasure** ([`rank_attack`]).
//!
//! The paper's evaluation — the Eq. 1 cost model, the figure drivers,
//! the §5 attack simulations and the §3.3 epoch learner — lives in the
//! paper lab, `tks-bench`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod merge;
pub mod positions;
pub mod query;
pub mod rank_attack;
pub mod ranking;
pub mod service;
pub mod tokenizer;
pub mod zigzag;

pub use engine::{
    ConfigError, EngineConfig, EngineParts, RecoveryReport, SearchEngine, SearchError, SearchHit,
};
pub use error::TksError;
pub use merge::MergeAssignment;
pub use query::{Query, QueryResponse, TermSelector, TimeRange};
pub use ranking::RankingModel;
pub use service::{service, IndexWriter, Searcher};
