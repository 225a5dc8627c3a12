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
//! * an **analytic cost model** (Eq. 1) and per-query cost accounting
//!   driving the Figure 3 experiments ([`cost`]);
//! * the **functional search engine** ([`engine`]): WORM-backed documents
//!   and posting lists, real-time per-document index update, disjunctive
//!   queries with cosine/Okapi-BM25 ranking, conjunctive queries via
//!   zigzag joins over jump indexes, trustworthy commit-time range
//!   restriction, and audits that surface tamper evidence;
//! * **zigzag joins** (paper Figure 5) over pluggable access paths — jump
//!   index, B+ tree, or plain scan ([`zigzag`]);
//! * **epoch-based statistics learning** (paper §3.3): per-epoch indexes
//!   whose merge assignment is chosen from the previous epoch's observed
//!   statistics ([`epoch`]);
//! * the **ranking attack** of §5 and its countermeasures ([`rank_attack`]);
//! * **simulation drivers** that reproduce the paper's Figures 2, 3, 4
//!   and 8 at configurable scale ([`sim`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod merge;
pub mod positions;
pub mod query;
pub mod rank_attack;
pub mod ranking;
pub mod sched;
pub mod service;
pub mod sim;
pub mod tokenizer;
pub mod zigzag;

pub use cost::{cumulative_workload_curve, unmerged_workload_cost, workload_cost};
pub use engine::{
    ConfigError, EngineConfig, EngineParts, RecoveryReport, SearchEngine, SearchError, SearchHit,
};
pub use error::TksError;
pub use merge::MergeAssignment;
pub use query::{Query, QueryResponse, TermSelector, TimeRange};
pub use ranking::RankingModel;
pub use service::{service, IndexWriter, Searcher};
