//! # `tks-postings` — posting-list data model
//!
//! Shared identifier types and the posting-list storage layer for the
//! trustworthy inverted index of *Mitra, Hsu & Winslett (VLDB 2006)*.
//!
//! An inverted index maps each keyword to a **posting list** of document
//! identifiers (plus per-posting metadata).  In the trustworthy setting:
//!
//! * document IDs are assigned by a strictly increasing counter, so every
//!   posting list is a strictly monotonically increasing sequence — the
//!   property jump indexes exploit (paper §4.1);
//! * posting lists live in append-only WORM files: entries are durable and
//!   the path to each entry is durable;
//! * when several terms' lists are **merged** (paper §3) to make every
//!   index append hit the storage cache, each entry additionally carries an
//!   encoding of its keyword (a *term tag*) so false positives can be
//!   eliminated at query time.
//!
//! Postings are encoded in 8 bytes, matching the paper's accounting
//! ("500 8-byte postings per document"): a 32-bit document ID (the paper
//! sizes N = 2³² documents), a 24-bit term tag, and an 8-bit in-document
//! term frequency (saturating) used by the rankers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block_lru;
pub mod block_reader;
pub mod codec;
pub mod list;
pub mod summary;
pub mod tagcode;
pub mod types;

pub use block_reader::{BlockReader, DecodedBlockCache, DecodedCacheStats};
pub use codec::{decode_block, decode_posting, encode_posting, CodecError, Posting, POSTING_SIZE};
pub use list::{ListStore, PostingListReader, StoreRecovery};
pub use summary::{BlockSummary, BlockSummaryCache, SummaryCacheStats};
pub use types::{DocId, ListId, TermId, Timestamp};
