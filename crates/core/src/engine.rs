//! The trustworthy search engine.
//!
//! [`SearchEngine`] assembles the paper's design into a usable system:
//!
//! * **documents on WORM** — record text is committed to an append-only
//!   WORM file system before the insert call returns;
//! * **real-time index update** (paper §2.3) — the posting-list appends
//!   for *every* keyword of a document happen inside the same insert call,
//!   before control returns to the application.  There is no buffer, no
//!   recovery log, no time window in which the adversary can suppress an
//!   index entry;
//! * **merged posting lists** (paper §3) — the configured
//!   [`MergeAssignment`] maps terms to physical lists so appends stay
//!   inside the storage cache; the engine reports every block touch to a
//!   [`StorageCache`] so experiments can read real I/O counts off a live
//!   engine (the paper's §3.5 validation);
//! * **jump indexes** (paper §4, optional) — per-list block jump indexes
//!   accelerate conjunctive queries via zigzag joins while preserving
//!   trustworthiness;
//! * **commit-time jump index** (paper §5) — a jump index over commit
//!   timestamps supports trustworthy time-range restriction ("Mala must
//!   not be able to retroactively insert email supposedly committed during
//!   an earlier period");
//! * **audits** — every invariant violation detectable from the WORM bytes
//!   is surfaced as tamper evidence.

use crate::merge::MergeAssignment;
use crate::query::{Query, QueryResponse, TermSelector, TimeRange};
use crate::ranking::{CollectionStats, RankingModel};
use crate::tokenizer;
use crate::zigzag::{zigzag_join_multi, DocCursor, JumpCursor, ALL_DOCS};
use std::collections::HashMap;
use std::ops::Range;
use tks_jump::block::{BlockJumpIndex, JumpEntry, Touch};
use tks_jump::{JumpConfig, JumpError, TamperEvidence};
use tks_postings::list::{ListError, ListStore};
use tks_postings::{DocId, ListId, Posting, TermId, Timestamp};
use tks_worm::{
    AccessKind, BlockId, CacheConfig, ChainHead, ChainLink, CommitChain, IoStats, StorageCache,
    WormDevice, WormError, WormFs,
};

/// Engine configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EngineConfig {
    /// Disk block size in bytes (paper: 8 KB).
    pub block_size: usize,
    /// Storage-server non-volatile cache size in bytes.
    pub cache_bytes: u64,
    /// Term → physical-list mapping (paper §3).
    pub assignment: MergeAssignment,
    /// Enable per-list jump indexes for conjunctive queries (paper §4).
    pub jump: Option<JumpConfig>,
    /// Similarity measure for disjunctive ranking.
    pub ranking: RankingModel,
    /// Keep full document text on WORM (disable for corpus-scale
    /// simulations where only the index matters).
    pub store_documents: bool,
    /// Record per-posting token positions (a lockstep WORM sidecar per
    /// list), enabling exact phrase queries via
    /// [`Query::phrase`](crate::query::Query::phrase).
    #[serde(default)]
    pub positional: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            block_size: 8192,
            cache_bytes: 4 << 20,
            assignment: MergeAssignment::uniform(1024),
            jump: None,
            ranking: RankingModel::default(),
            store_documents: true,
            positional: false,
        }
    }
}

impl EngineConfig {
    /// Start building a validated configuration.  Unlike constructing the
    /// struct literally, [`EngineConfigBuilder::build`] rejects
    /// inconsistent settings up front instead of panicking deep inside
    /// [`SearchEngine::new`] or silently behaving like a different
    /// configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// Check an already-constructed configuration (the struct's fields are
    /// public, so literals can bypass the builder).  [`SearchEngine::new`]
    /// runs this, so an adversarial configuration is rejected with a
    /// [`ConfigError`] instead of overflowing geometry arithmetic deep in
    /// a storage layer.
    pub fn validate(&self) -> Result<(), ConfigError> {
        EngineConfig::builder()
            .block_size(self.block_size)
            .cache_bytes(self.cache_bytes)
            .assignment(self.assignment.clone())
            .ranking(self.ranking)
            .store_documents(self.store_documents)
            .positional(self.positional)
            .maybe_jump(self.jump)
            .build()
            .map(|_| ())
    }
}

/// A rejected [`EngineConfigBuilder`] combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid engine configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`EngineConfig`] (see [`EngineConfig::builder`]).
///
/// ```
/// use tks_core::engine::EngineConfig;
/// use tks_core::merge::MergeAssignment;
///
/// let config = EngineConfig::builder()
///     .block_size(8192)
///     .cache_blocks(512)
///     .assignment(MergeAssignment::uniform(512))
///     .build()
///     .unwrap();
/// assert_eq!(config.cache_bytes, 512 * 8192);
///
/// // A cache smaller than one block cannot hold anything: rejected.
/// assert!(EngineConfig::builder().cache_bytes(100).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    block_size: Option<usize>,
    cache_bytes: Option<u64>,
    cache_blocks: Option<u64>,
    assignment: Option<MergeAssignment>,
    jump: Option<JumpConfig>,
    ranking: Option<RankingModel>,
    store_documents: Option<bool>,
    positional: Option<bool>,
}

impl EngineConfigBuilder {
    /// Disk block size in bytes (default 8192).
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.block_size = Some(bytes);
        self
    }

    /// Storage-cache size in bytes (default 4 MB).  `0` explicitly models
    /// an uncached device.  Mutually exclusive with
    /// [`cache_blocks`](Self::cache_blocks).
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Storage-cache size in whole blocks (the paper's natural unit —
    /// `M` lists want `M` cache blocks).  Mutually exclusive with
    /// [`cache_bytes`](Self::cache_bytes).
    pub fn cache_blocks(mut self, blocks: u64) -> Self {
        self.cache_blocks = Some(blocks);
        self
    }

    /// Term → physical-list merge assignment (default: uniform over 1024
    /// lists).
    pub fn assignment(mut self, assignment: MergeAssignment) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Enable per-list jump indexes with this configuration.
    pub fn jump(mut self, jump: JumpConfig) -> Self {
        self.jump = Some(jump);
        self
    }

    /// Set or clear the jump-index configuration (re-validation path).
    pub fn maybe_jump(mut self, jump: Option<JumpConfig>) -> Self {
        self.jump = jump;
        self
    }

    /// Ranking model for disjunctive queries.
    pub fn ranking(mut self, ranking: RankingModel) -> Self {
        self.ranking = Some(ranking);
        self
    }

    /// Keep full document text on WORM (default true).
    pub fn store_documents(mut self, yes: bool) -> Self {
        self.store_documents = Some(yes);
        self
    }

    /// Record per-posting token positions, enabling phrase queries
    /// (default false).
    pub fn positional(mut self, yes: bool) -> Self {
        self.positional = Some(yes);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        let defaults = EngineConfig::default();
        let block_size = self.block_size.unwrap_or(defaults.block_size);
        if block_size < 64 {
            return Err(ConfigError(format!(
                "block size {block_size} is below the 64-byte minimum"
            )));
        }
        if !block_size.is_multiple_of(tks_postings::POSTING_SIZE) {
            return Err(ConfigError(format!(
                "block size {block_size} is not a multiple of the {}-byte posting",
                tks_postings::POSTING_SIZE
            )));
        }
        let cache_bytes = match (self.cache_bytes, self.cache_blocks) {
            (Some(_), Some(_)) => {
                return Err(ConfigError(
                    "cache_bytes and cache_blocks are mutually exclusive".to_string(),
                ))
            }
            (Some(bytes), None) => bytes,
            (None, Some(blocks)) => blocks.checked_mul(block_size as u64).ok_or_else(|| {
                ConfigError(format!(
                    "cache of {blocks} blocks of {block_size} bytes overflows u64"
                ))
            })?,
            (None, None) => defaults.cache_bytes,
        };
        if cache_bytes > 0 && cache_bytes < block_size as u64 {
            return Err(ConfigError(format!(
                "cache of {cache_bytes} bytes cannot hold even one {block_size}-byte \
                 block (use 0 for an explicitly uncached device)"
            )));
        }
        let assignment = self.assignment.unwrap_or(defaults.assignment);
        if assignment.num_lists() == 0 {
            return Err(ConfigError(
                "merge assignment maps terms to zero lists (M = 0)".to_string(),
            ));
        }
        if let Some(jump) = &self.jump {
            // JumpConfig::new panics on these; a builder reports instead.
            if jump.branching < 2 {
                return Err(ConfigError(format!(
                    "jump branching factor {} is below the minimum of 2",
                    jump.branching
                )));
            }
            if jump.max_key < 2 {
                return Err(ConfigError(format!(
                    "jump key space {} is below the minimum of 2",
                    jump.max_key
                )));
            }
            if jump.entries_per_block() < 1 {
                return Err(ConfigError(format!(
                    "jump block size {} cannot hold one entry beside its \
                     pointer region",
                    jump.block_size
                )));
            }
        }
        Ok(EngineConfig {
            block_size,
            cache_bytes,
            assignment,
            jump: self.jump,
            ranking: self.ranking.unwrap_or(defaults.ranking),
            store_documents: self.store_documents.unwrap_or(defaults.store_documents),
            positional: self.positional.unwrap_or(defaults.positional),
        })
    }
}

/// Errors surfaced by engine operations.
#[derive(Debug)]
pub enum SearchError {
    /// WORM device/file-system failure.
    Worm(WormError),
    /// Posting-list failure (including monotonicity violations).
    List(ListError),
    /// Jump-index failure (including tamper evidence).
    Jump(JumpError),
    /// Tamper evidence detected at query time.
    Tamper(TamperEvidence),
    /// A term falls outside the configured assignment's vocabulary.
    VocabOverflow {
        /// The term that did not fit.
        term: TermId,
    },
    /// Phrase queries need a positional engine
    /// ([`EngineConfig::positional`]).
    NotPositional,
    /// Commit timestamps must be non-decreasing.
    NonMonotonicTimestamp {
        /// Last committed timestamp.
        last: Timestamp,
        /// The offending timestamp.
        attempted: Timestamp,
    },
    /// A commit timestamp past the commit-time index's 32-bit seconds.
    TimestampOutOfRange {
        /// The offending timestamp.
        attempted: Timestamp,
    },
    /// A commit collided with quarantined crash residue: a torn commit's
    /// orphan document text already occupies the next document's WORM
    /// file.  WORM cannot truncate, and the engine refuses to guess
    /// whether the residue happens to equal the new document's text, so
    /// ingest must resume on a fresh device.
    QuarantinedResidue {
        /// The WORM file occupied by crash residue.
        file: String,
        /// Residue bytes in the way.
        bytes: u64,
    },
    /// A token is too long for the term dictionary's length-prefixed
    /// record format (`u16` length prefix).  Rejected up front: the
    /// legacy behaviour silently truncated the length with `as u16`,
    /// corrupting every subsequent dictionary record.
    TokenTooLong {
        /// Byte length of the offending token.
        len: usize,
    },
    /// The engine configuration was rejected (see [`EngineConfig::builder`]).
    Config(ConfigError),
    /// An internal invariant failed in a way that is neither tamper
    /// evidence nor caller error — reported instead of aborting, because a
    /// crash during a compliance lookup is indistinguishable from a hidden
    /// record.
    Internal(String),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Worm(e) => write!(f, "{e}"),
            SearchError::List(e) => write!(f, "{e}"),
            SearchError::Jump(e) => write!(f, "{e}"),
            SearchError::Tamper(t) => write!(f, "{t}"),
            SearchError::VocabOverflow { term } => {
                write!(f, "{term} exceeds the merge assignment's vocabulary")
            }
            SearchError::NotPositional => {
                write!(
                    f,
                    "phrase queries require a positional engine (EngineConfig::positional)"
                )
            }
            SearchError::NonMonotonicTimestamp { last, attempted } => {
                write!(f, "commit time {attempted} precedes committed {last}")
            }
            SearchError::TimestampOutOfRange { attempted } => {
                write!(
                    f,
                    "commit time {attempted} exceeds the 32-bit commit-time index"
                )
            }
            SearchError::QuarantinedResidue { file, bytes } => {
                write!(
                    f,
                    "commit collides with {bytes} byte(s) of quarantined crash residue at {file}"
                )
            }
            SearchError::TokenTooLong { len } => {
                write!(
                    f,
                    "token of {len} bytes exceeds the term dictionary's {} byte limit",
                    u16::MAX
                )
            }
            SearchError::Config(e) => write!(f, "{e}"),
            SearchError::Internal(msg) => write!(f, "internal invariant failure: {msg}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<WormError> for SearchError {
    fn from(e: WormError) -> Self {
        SearchError::Worm(e)
    }
}
impl From<ListError> for SearchError {
    fn from(e: ListError) -> Self {
        SearchError::List(e)
    }
}
impl From<JumpError> for SearchError {
    fn from(e: JumpError) -> Self {
        SearchError::Jump(e)
    }
}
impl From<crate::positions::PositionError> for SearchError {
    fn from(e: crate::positions::PositionError) -> Self {
        SearchError::Internal(format!("positional sidecar: {e}"))
    }
}
impl From<TamperEvidence> for SearchError {
    fn from(e: TamperEvidence) -> Self {
        SearchError::Tamper(e)
    }
}
impl From<ConfigError> for SearchError {
    fn from(e: ConfigError) -> Self {
        SearchError::Config(e)
    }
}

/// A ranked disjunctive-query result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matching document.
    pub doc: DocId,
    /// Similarity score (higher is better).
    pub score: f64,
}

/// Commit-time index entry: timestamp (key) + document ID (payload),
/// 32 bits each, packed into the standard 8-byte entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimeEntry(u64);

impl TimeEntry {
    fn new(ts: Timestamp, doc: DocId) -> Result<Self, SearchError> {
        if ts.0 > u32::MAX as u64 {
            return Err(SearchError::TimestampOutOfRange { attempted: ts });
        }
        let doc = u32::try_from(doc.0)
            .map_err(|_| SearchError::Internal(format!("{doc} overflows the time index")))?;
        Ok(Self((ts.0 << 32) | doc as u64))
    }
    fn doc(self) -> DocId {
        DocId(self.0 & 0xFFFF_FFFF)
    }
}

impl JumpEntry for TimeEntry {
    fn jump_key(&self) -> u64 {
        self.0 >> 32
    }
    fn to_bytes(&self) -> [u8; 8] {
        self.0.to_le_bytes()
    }
    fn from_bytes(bytes: [u8; 8]) -> Self {
        Self(u64::from_le_bytes(bytes))
    }
}

#[derive(Debug, Clone)]
struct DocMeta {
    timestamp: Timestamp,
    /// Length in tokens (Σ tf), for ranking.
    len: u64,
}

/// Engine-wide audit findings (see [`SearchEngine::audit`]).
#[derive(Debug, Default, Clone)]
pub struct AuditReport {
    /// Lists whose raw WORM bytes violate doc-ID monotonicity, with the
    /// position of the first bad posting.
    pub list_violations: Vec<(ListId, u64)>,
    /// Lists whose raw file length differs from the engine's logical
    /// posting count × 8 — the signature of raw adversarial appends,
    /// including misaligned garbage that would otherwise shift every
    /// later decode (found by the adversary fuzz test).  Entries are
    /// `(list, logical bytes, raw bytes)`.
    pub length_mismatches: Vec<(ListId, u64, u64)>,
    /// Jump indexes whose structure fails the full audit.
    pub jump_violations: Vec<(ListId, String)>,
    /// Lists whose positional sidecar lost lockstep with the postings.
    pub position_lockstep_violations: Vec<ListId>,
    /// Rejected overwrites / early deletes recorded by the WORM devices.
    pub device_tamper_attempts: usize,
    /// Whether the commit-time index passes its audit.
    pub commit_time_ok: bool,
}

impl AuditReport {
    /// True when nothing suspicious was found.
    pub fn is_clean(&self) -> bool {
        self.list_violations.is_empty()
            && self.length_mismatches.is_empty()
            && self.jump_violations.is_empty()
            && self.position_lockstep_violations.is_empty()
            && self.device_tamper_attempts == 0
            && self.commit_time_ok
    }
}

/// What [`SearchEngine::recover`] quarantined: torn-commit residue left
/// by a crash mid-document.
///
/// The DOCMETA record is the commit point — it is the *last* WORM append
/// of a document, so everything on the devices past the last whole
/// DOCMETA record belongs to a document that never committed.  WORM
/// media cannot be truncated, so recovery walls the residue off
/// (quarantines it) and reports the byte counts here as evidence.
/// Anomalies a single torn append cannot produce — interior garbage,
/// out-of-order postings, postings referencing documents beyond the next
/// one — still fail recovery with a typed error.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Per-list quarantined posting-store bytes: a torn partial posting
    /// and/or whole postings of the uncommitted document.
    pub list_bytes: Vec<(ListId, u64)>,
    /// Partial tag-dictionary record bytes in the posting store.
    pub dict_tail_bytes: u64,
    /// Partial term-dictionary record bytes on the document device.
    pub terms_tail_bytes: u64,
    /// Partial DOCMETA record bytes on the document device.
    pub docmeta_tail_bytes: u64,
    /// Per-list quarantined positional-sidecar bytes.
    pub position_bytes: Vec<(u32, u64)>,
    /// Bytes of stored record text belonging to documents whose DOCMETA
    /// record never committed (the text reaches WORM first, so a crash
    /// can orphan a whole text file).
    pub doc_text_bytes: u64,
    /// Quarantined commit-chain bytes: a partial link record torn
    /// mid-append, and/or one whole link sealed for the document whose
    /// DOCMETA never committed (the link reaches WORM just before the
    /// commit point).
    pub chain_tail_bytes: u64,
    /// The commit-chain head recomputed over the surviving committed
    /// documents (genesis for an empty archive).
    pub chain_head: ChainHead,
    /// `Some(detail)` when the persisted chain links diverge from the
    /// chain recomputed over the surviving bytes — tamper evidence a
    /// single torn append cannot produce.  Taints every response's
    /// `trusted` flag (see [`QueryResponse::trusted`]).
    pub chain_mismatch: Option<String>,
}

impl RecoveryReport {
    /// Total quarantined bytes across every device and file.
    pub fn total_quarantined_bytes(&self) -> u64 {
        self.list_bytes.iter().map(|&(_, b)| b).sum::<u64>()
            + self.dict_tail_bytes
            + self.terms_tail_bytes
            + self.docmeta_tail_bytes
            + self.position_bytes.iter().map(|&(_, b)| b).sum::<u64>()
            + self.doc_text_bytes
            + self.chain_tail_bytes
    }

    /// `true` when recovery found no torn-commit residue.
    pub fn is_clean(&self) -> bool {
        self.total_quarantined_bytes() == 0
    }
}

/// The trustworthy keyword-search engine (see module docs).
///
/// # Example
///
/// ```
/// use tks_core::engine::{EngineConfig, SearchEngine};
/// use tks_core::Query;
/// use tks_postings::Timestamp;
///
/// let mut engine = SearchEngine::new(EngineConfig::default()).unwrap();
/// let d0 = engine.add_document("quarterly earnings restatement draft", Timestamp(100)).unwrap();
/// let _d1 = engine.add_document("lunch menu for the cafeteria", Timestamp(101)).unwrap();
/// let hits = engine.execute(&Query::disjunctive("earnings restatement", 10)).unwrap().hits;
/// assert_eq!(hits[0].doc, d0);
/// ```
#[derive(Debug)]
pub struct SearchEngine {
    config: EngineConfig,
    dict: HashMap<String, TermId>,
    term_names: Vec<String>,
    store: ListStore,
    cache: StorageCache,
    /// Per-list jump indexes (empty when disabled).
    jump: Vec<BlockJumpIndex<Posting>>,
    doc_fs: WormFs,
    docs: Vec<DocMeta>,
    doc_freq: Vec<u64>,
    commit_times: BlockJumpIndex<TimeEntry>,
    total_tokens: u64,
    /// Smallest committed document length ≥ 1 token (`u64::MAX` before
    /// any such document).  Feeds the block-level score upper bound: both
    /// ranking models are non-increasing in document length, so scoring a
    /// block's `max_tf` at this length bounds every posting in it.
    /// Zero-length documents are excluded — they contribute no scoring
    /// postings, and including them would only loosen nothing (the bound
    /// clamps at 1) while a stray empty document would pin the clamp.
    min_doc_len: u64,
    /// Lockstep positional sidecar (present iff `config.positional`).
    positions: Option<crate::positions::PositionStore>,
    /// What the last recovery quarantined (all-zero for a fresh engine).
    recovery: RecoveryReport,
    /// Bytes that reached WORM during commits that then failed on this
    /// live engine: dead weight behind the commit point, counted so trust
    /// metadata stays truthful without waiting for a restart.
    torn_tail_bytes: u64,
    /// The running SHA-256 commit chain.  One head per committed
    /// watermark; each commit absorbs its canonical bytes into the
    /// in-flight digest and seals a [`ChainLink`] persisted to
    /// [`CHAIN_FILE`] just before the DOCMETA commit point.
    chain: CommitChain,
}

fn recovery_err(msg: &str) -> SearchError {
    SearchError::List(tks_postings::list::ListError::Recovery(msg.to_string()))
}

/// One query term's evaluation plan for the disjunctive evaluators: the
/// resolved physical list and tag, the ranking inputs, and the list-level
/// score upper bound (see
/// [`SearchEngine::disjunctive_plans`](SearchEngine)).
struct TermPlan {
    term: TermId,
    tag: u32,
    list: ListId,
    df: u64,
    blocks: u64,
    /// The term's own largest saturated tf on its list (not the merged
    /// list's overall maximum — neighbour terms' frequencies are
    /// irrelevant to this term's score ceiling).
    max_tf: u8,
    ub: f64,
}

/// Sorted-deduplicated view of a caller-supplied term-ID list.  Strictly
/// increasing input — the common case, since generated workloads emit
/// canonical queries — is borrowed without cloning; anything else is
/// normalised into an owned copy.
fn normalized_ids(ids: &[TermId]) -> std::borrow::Cow<'_, [TermId]> {
    if ids.is_sorted_by(|a, b| a < b) {
        std::borrow::Cow::Borrowed(ids)
    } else {
        let mut owned = ids.to_vec();
        owned.sort_unstable();
        owned.dedup();
        std::borrow::Cow::Owned(owned)
    }
}

/// Boolean query shapes report hits with a zero score.
fn unranked_hits(docs: Vec<DocId>) -> Vec<SearchHit> {
    docs.into_iter()
        .map(|doc| SearchHit { doc, score: 0.0 })
        .collect()
}

/// Synthetic block-ID namespace for jump-index touches, disjoint from the
/// list store's device blocks.
fn jump_block_id(list: ListId, chain_block: u32) -> BlockId {
    BlockId((1 << 63) | ((list.0 as u64) << 32) | chain_block as u64)
}

/// Namespace for the commit-time index's blocks.
fn time_block_id(chain_block: u32) -> BlockId {
    BlockId((1 << 62) | chain_block as u64)
}

/// Engine metadata files kept on the document WORM device so the whole
/// engine is recoverable from raw bytes.
const TERMS_FILE: &str = "engine/terms";
const DOCMETA_FILE: &str = "engine/docmeta";
const DOCMETA_RECORD: usize = 16;
/// Persisted commit-chain links, one fixed-width record per commit,
/// appended immediately *before* the DOCMETA commit point.
const CHAIN_FILE: &str = "engine/chain";
const CHAIN_RECORD: usize = ChainLink::ENCODED;

/// The WORM file systems surviving an engine shutdown; everything a
/// [`SearchEngine::recover`] needs.
#[derive(Debug)]
pub struct EngineParts {
    /// The posting-list store's device (lists, tag dictionary, header).
    pub store_fs: WormFs,
    /// The document device (record text, term dictionary, doc metadata).
    pub doc_fs: WormFs,
    /// The positional sidecar device, when the engine was positional.
    pub pos_fs: Option<WormFs>,
}

impl SearchEngine {
    /// Create an empty engine.
    ///
    /// The configuration is re-validated (see [`EngineConfig::validate`]);
    /// a rejected configuration surfaces as [`SearchError::Config`] here
    /// instead of panicking inside a storage layer.
    pub fn new(config: EngineConfig) -> Result<Self, SearchError> {
        config.validate().map_err(SearchError::Config)?;
        let num_lists = config.assignment.num_lists() as usize;
        let jump = match &config.jump {
            Some(cfg) => (0..num_lists).map(|_| BlockJumpIndex::new(*cfg)).collect(),
            None => Vec::new(),
        };
        // The commit-time index needs room for its pointer region (B = 32
        // over 32-bit timestamps needs 868 bytes), so floor its block size.
        let time_cfg = JumpConfig::try_new(config.block_size.max(2048), 32, 1 << 32)?;
        let mut doc_fs = WormFs::new(WormDevice::new(config.block_size.max(64)));
        doc_fs.create(TERMS_FILE, u64::MAX)?;
        doc_fs.create(DOCMETA_FILE, u64::MAX)?;
        doc_fs.create(CHAIN_FILE, u64::MAX)?;
        Ok(Self {
            cache: StorageCache::new(CacheConfig::new(
                config.cache_bytes,
                config.block_size as u32,
            )),
            store: ListStore::new(config.block_size, num_lists)?,
            jump,
            doc_fs,
            docs: Vec::new(),
            doc_freq: Vec::new(),
            commit_times: BlockJumpIndex::new(time_cfg),
            total_tokens: 0,
            min_doc_len: u64::MAX,
            dict: HashMap::new(),
            term_names: Vec::new(),
            positions: if config.positional {
                Some(crate::positions::PositionStore::new(
                    config.block_size,
                    num_lists,
                )?)
            } else {
                None
            },
            recovery: RecoveryReport::default(),
            torn_tail_bytes: 0,
            chain: CommitChain::new(),
            config,
        })
    }

    /// Shut the engine down, keeping only what a real deployment keeps:
    /// the WORM devices.
    pub fn into_parts(self) -> EngineParts {
        EngineParts {
            store_fs: self.store.into_fs(),
            doc_fs: self.doc_fs,
            pos_fs: self.positions.map(|p| p.into_fs()),
        }
    }

    /// Rebuild an engine from raw WORM bytes, re-verifying every
    /// structural invariant on the way (paper §2.3: recovery cannot trust
    /// logs or end-of-log markers, only the committed structures).
    ///
    /// `config` must describe the engine that wrote the devices (the merge
    /// assignment in particular); mismatches are detected where possible.
    ///
    /// Recovery is **torn-tail tolerant**: the DOCMETA record is the last
    /// WORM append of a document (the commit point), so a crash mid-commit
    /// leaves at most one partial record per file plus whole index entries
    /// for the document whose DOCMETA never landed.  That residue is
    /// quarantined and reported (see [`SearchEngine::recovery_report`]),
    /// and the engine converges to the last fully committed document.
    /// Interior anomalies — which a single torn append cannot produce —
    /// still fail with a typed error.
    pub fn recover(parts: EngineParts, config: EngineConfig) -> Result<Self, SearchError> {
        let mut report = RecoveryReport::default();
        let (mut store, store_rec) = ListStore::recover_with_report(parts.store_fs)?;
        report.dict_tail_bytes = store_rec.dict_tail_bytes;
        let mut list_bytes: HashMap<u32, u64> = store_rec.torn_lists.iter().copied().collect();
        if store.num_lists() != config.assignment.num_lists() as usize {
            return Err(SearchError::List(tks_postings::list::ListError::Recovery(
                format!(
                    "store has {} lists but the assignment expects {}",
                    store.num_lists(),
                    config.assignment.num_lists()
                ),
            )));
        }
        let doc_fs = parts.doc_fs;

        // Rebuild the token dictionary.
        let mut dict = HashMap::new();
        let mut term_names = Vec::new();
        let terms_file = doc_fs
            .open(TERMS_FILE)
            .map_err(|_| recovery_err("missing term dictionary file"))?;
        let terms_len = doc_fs.len(terms_file);
        let mut off = 0u64;
        while off < terms_len {
            // A length prefix or entry body running past EOF is the torn
            // tail of an intern killed mid-append: quarantine the
            // remainder and stop replaying.  Whole entries that decode
            // but violate invariants (non-UTF-8, duplicates) cannot come
            // from a torn append and still fail hard.
            if off + 2 > terms_len {
                report.terms_tail_bytes = terms_len - off;
                break;
            }
            // Length-prefixed dictionary replay, once per recovery.
            // audit:allow(hot-path-io)
            let len_bytes = doc_fs.read(terms_file, off, 2)?;
            let len = u16::from_le_bytes(
                <[u8; 2]>::try_from(&len_bytes[..])
                    .map_err(|_| recovery_err("short term dictionary length"))?,
            ) as u64;
            if off + 2 + len > terms_len {
                report.terms_tail_bytes = terms_len - off;
                break;
            }
            off += 2;
            let name = String::from_utf8(doc_fs.read(terms_file, off, len as usize)?)
                .map_err(|_| recovery_err("term dictionary entry is not UTF-8"))?;
            off += len;
            let id = TermId(term_names.len() as u32);
            if dict.insert(name.clone(), id).is_some() {
                return Err(recovery_err("duplicate term in dictionary"));
            }
            term_names.push(name);
        }

        // Rebuild document metadata and the commit-time index.
        let docmeta_file = doc_fs
            .open(DOCMETA_FILE)
            .map_err(|_| recovery_err("missing document metadata file"))?;
        let meta_len = doc_fs.len(docmeta_file);
        // DOCMETA is an append-only stream of fixed-width records, so a
        // non-multiple length can only be a record torn mid-append — the
        // crash signature at the commit point itself.  The partial record
        // is quarantined; whole records before it are the committed
        // document set.
        report.docmeta_tail_bytes = meta_len % DOCMETA_RECORD as u64;
        let time_cfg = JumpConfig::try_new(config.block_size.max(2048), 32, 1 << 32)?;
        let mut commit_times = BlockJumpIndex::new(time_cfg);
        let mut docs = Vec::new();
        let mut total_tokens = 0u64;
        let mut min_doc_len = u64::MAX;
        for i in 0..(meta_len / DOCMETA_RECORD as u64) {
            // Fixed-width metadata replay, once per recovery.
            // audit:allow(hot-path-io)
            let rec = doc_fs.read(docmeta_file, i * DOCMETA_RECORD as u64, DOCMETA_RECORD)?;
            let ts = Timestamp(u64::from_le_bytes(
                <[u8; 8]>::try_from(&rec[0..8])
                    .map_err(|_| recovery_err("short document metadata record"))?,
            ));
            let len = u64::from_le_bytes(
                <[u8; 8]>::try_from(&rec[8..16])
                    .map_err(|_| recovery_err("short document metadata record"))?,
            );
            // The commit-time index refuses a decreasing timestamp.
            commit_times.insert(TimeEntry::new(ts, DocId(i))?)?;
            total_tokens += len;
            if len >= 1 {
                min_doc_len = min_doc_len.min(len);
            }
            docs.push(DocMeta { timestamp: ts, len });
        }

        // Quarantine index entries of the uncommitted document.  DOCMETA
        // is the commit point (the last WORM append of a document), so a
        // crash can leave whole postings for exactly the *next* document
        // id, and doc-ID monotonicity (verified by the store recovery
        // audit) puts them at each list's tail.  Postings beyond the next
        // document, or phantom postings not at the tail, cannot come from
        // a single crash — those remain hard tamper evidence.
        let committed = docs.len() as u64;
        for l in 0..store.num_lists() as u32 {
            let list = ListId(l);
            let mut phantom = 0u64;
            for p in store.postings(list)? {
                if p.doc.0 > committed {
                    return Err(recovery_err(
                        "posting references a document with no metadata record",
                    ));
                }
                if p.doc.0 == committed {
                    phantom += 1;
                } else if phantom > 0 {
                    return Err(recovery_err(
                        "posting for an uncommitted document is not at the list tail",
                    ));
                }
            }
            if phantom > 0 {
                store.quarantine_tail(list, phantom)?;
                *list_bytes.entry(l).or_insert(0) += phantom * 8;
            }
        }
        report.list_bytes = {
            let mut v: Vec<(ListId, u64)> = list_bytes
                .into_iter()
                .map(|(l, b)| (ListId(l), b))
                .collect();
            v.sort_unstable_by_key(|&(l, _)| l.0);
            v
        };

        // Record text reaches WORM before DOCMETA, so a crash can orphan
        // whole text files of the uncommitted document.  Count them as
        // quarantined residue (they are unreachable: document_text only
        // serves ids below the committed count).
        report.doc_text_bytes = doc_fs
            .file_names()
            .filter_map(|name| {
                let n: u64 = name.strip_prefix("docs/")?.parse().ok()?;
                (n >= committed).then_some(name)
            })
            .filter_map(|name| doc_fs.open(name).ok())
            .map(|f| doc_fs.len(f))
            .sum();

        // Recompute document frequencies from the recovered (post-
        // quarantine) lists, and cross-check tags and list assignment.
        // The same pass collects each committed document's (term, tf)
        // postings so the commit chain can be recomputed below.
        let mut doc_freq = vec![0u64; term_names.len()];
        let mut doc_terms: Vec<Vec<(TermId, u8)>> = vec![Vec::new(); docs.len()];
        for l in 0..store.num_lists() as u32 {
            let list = ListId(l);
            for p in store.postings(list)? {
                let term = store
                    .term_of_tag(list, p.term_tag)?
                    .ok_or_else(|| recovery_err("posting tag has no dictionary entry"))?;
                if config.assignment.list_of(term) != list {
                    return Err(recovery_err(
                        "posting stored in a list its term does not map to",
                    ));
                }
                let slot = term.0 as usize;
                if slot >= doc_freq.len() {
                    doc_freq.resize(slot + 1, 0);
                }
                doc_freq[slot] += 1;
                if let Some(entry) = doc_terms.get_mut(p.doc.0 as usize) {
                    entry.push((term, p.tf));
                }
            }
        }

        // Recompute the commit chain over the surviving committed
        // documents and check it against the persisted links.  Commits
        // absorb their postings in ascending term-ID order, so sorting
        // the recovered postings reproduces the canonical frame.
        let mut chain = CommitChain::new();
        for (i, (meta, terms)) in docs.iter().zip(doc_terms.iter_mut()).enumerate() {
            terms.sort_unstable_by_key(|&(t, _)| t);
            chain.absorb_commit_header(i as u64, meta.timestamp.0, meta.len);
            let text = doc_fs
                .open(&format!("docs/{i}"))
                .ok()
                .and_then(|f| doc_fs.read(f, 0, doc_fs.len(f) as usize).ok());
            chain.absorb_text(text.as_deref());
            for &(term, tf) in terms.iter() {
                let name = term_names.get(term.0 as usize).map(|s| s.as_str());
                chain.absorb_term(term.0, name, tf);
            }
            let link = chain.seal(i as u64 + 1);
            chain
                .advance(&link)
                .map_err(|e| recovery_err(&format!("chain recompute: {e}")))?;
        }
        report.chain_head = chain.head();

        // Replay the persisted links.  A torn link record, or one whole
        // link for the document whose DOCMETA never committed, is crash
        // residue; anything else that diverges from the recomputed chain
        // is tamper evidence a single torn append cannot produce.
        let chain_file = doc_fs
            .open(CHAIN_FILE)
            .map_err(|_| recovery_err("missing commit chain file"))?;
        let chain_len = doc_fs.len(chain_file);
        report.chain_tail_bytes = chain_len % CHAIN_RECORD as u64;
        let whole_links = chain_len / CHAIN_RECORD as u64;
        if whole_links > committed + 1 {
            return Err(recovery_err(
                "commit chain has more than one link beyond the committed documents",
            ));
        }
        if whole_links == committed + 1 {
            // The sealed link of the uncommitted document: quarantined
            // residue, like its postings and text.
            report.chain_tail_bytes += CHAIN_RECORD as u64;
        }
        if whole_links < committed {
            report.chain_mismatch = Some(format!(
                "commit chain holds {whole_links} link(s) for {committed} committed document(s)"
            ));
        }
        for i in 0..whole_links.min(committed) {
            // Fixed-width chain replay, once per recovery.
            // audit:allow(hot-path-io)
            let rec = doc_fs.read(chain_file, i * CHAIN_RECORD as u64, CHAIN_RECORD)?;
            let persisted = ChainLink::decode(&rec)
                .map_err(|e| recovery_err(&format!("chain link {i}: {e}")))?;
            // The link head hashes prev_head ‖ commit_digest ‖ watermark,
            // so one comparison binds all three fields.
            let recomputed_head = chain
                .head_at(i + 1)
                .ok_or_else(|| recovery_err("chain head watermark out of range"))?;
            if persisted.head() != recomputed_head {
                report.chain_mismatch = Some(format!(
                    "chain link {i} diverges: persisted head {}, recomputed {recomputed_head}",
                    persisted.head()
                ));
                break;
            }
        }

        // Rebuild jump indexes by replaying the recovered lists (entries
        // are already in key order).
        let jump = match &config.jump {
            Some(cfg) => {
                let mut idxs: Vec<BlockJumpIndex<Posting>> = (0..store.num_lists())
                    .map(|_| BlockJumpIndex::new(*cfg))
                    .collect();
                for l in 0..store.num_lists() as u32 {
                    for p in store.postings(ListId(l))? {
                        idxs[l as usize].insert(p)?;
                    }
                }
                idxs
            }
            None => Vec::new(),
        };

        // Rebuild the positional sidecar, verifying lockstep with the
        // recovered posting counts.
        let positions = if config.positional {
            let pos_fs = parts
                .pos_fs
                .ok_or_else(|| recovery_err("positional engine but no position device"))?;
            let counts: Vec<u64> = (0..store.num_lists() as u32)
                .map(|l| store.len(ListId(l)).unwrap_or(0))
                .collect();
            let (ps, quarantined) =
                crate::positions::PositionStore::recover_with_report(pos_fs, &counts)
                    .map_err(|e| recovery_err(&e.to_string()))?;
            report.position_bytes = quarantined;
            Some(ps)
        } else {
            None
        };

        Ok(Self {
            cache: StorageCache::new(CacheConfig::new(
                config.cache_bytes,
                config.block_size as u32,
            )),
            store,
            jump,
            doc_fs,
            docs,
            doc_freq,
            commit_times,
            total_tokens,
            min_doc_len,
            dict,
            term_names,
            positions,
            recovery: report,
            torn_tail_bytes: 0,
            chain,
            config,
        })
    }

    /// What the recovery that built this engine quarantined (all-zero
    /// for an engine created with [`SearchEngine::new`]).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The commit chain's current head (after the last committed
    /// document; genesis for an empty engine).
    pub fn chain_head(&self) -> ChainHead {
        self.chain.head()
    }

    /// The chain head at a historical watermark, if that many documents
    /// have committed.  Pinned-snapshot readers report the head their
    /// watermark was sealed under, so a response's head is stable for
    /// the lifetime of the pin regardless of writer progress.
    pub fn chain_head_at(&self, watermark: u64) -> Option<ChainHead> {
        self.chain.head_at(watermark)
    }

    /// `Some(detail)` when the last recovery found the persisted chain
    /// links diverging from the chain recomputed over surviving bytes.
    /// A mismatch taints every response's `trusted` flag.
    pub fn chain_mismatch(&self) -> Option<&str> {
        self.recovery.chain_mismatch.as_deref()
    }

    /// Total torn-commit residue behind the commit point, in bytes:
    /// what recovery quarantined plus residue of commits that failed on
    /// this live engine.  Surfaced on every
    /// [`QueryResponse`](crate::query::QueryResponse).
    pub fn quarantined_bytes(&self) -> u64 {
        self.recovery.total_quarantined_bytes() + self.torn_tail_bytes
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of committed documents.
    pub fn num_docs(&self) -> u64 {
        self.docs.len() as u64
    }

    /// Number of distinct terms interned from text.
    pub fn vocab_size(&self) -> u32 {
        self.term_names.len() as u32
    }

    /// Cumulative storage-cache I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.cache.stats()
    }

    /// Counters of the decoded-block LRU shared by this engine's readers
    /// (the level *above* the storage cache in the two-level read path).
    pub fn decoded_cache_stats(&self) -> tks_postings::DecodedCacheStats {
        self.store.decoded_cache_stats()
    }

    /// The posting-list store (audits, attack harnesses).
    pub fn list_store(&self) -> &ListStore {
        &self.store
    }

    /// Raw mutable access to the posting-list store — the adversary's
    /// entry point in attack simulations.
    pub fn list_store_mut(&mut self) -> &mut ListStore {
        &mut self.store
    }

    /// The document WORM file system (records, term dictionary, document
    /// metadata) — for audits, persistence and attack harnesses.
    pub fn doc_fs(&self) -> &WormFs {
        &self.doc_fs
    }

    /// Raw mutable access to the document file system — for attack and
    /// fault-injection harnesses (e.g. arming a
    /// [`FaultPolicy`](tks_worm::FaultPolicy) on the device).
    pub fn doc_fs_mut(&mut self) -> &mut WormFs {
        &mut self.doc_fs
    }

    /// The positional sidecar's file system, when the engine is positional.
    pub fn positions_fs(&self) -> Option<&WormFs> {
        self.positions.as_ref().map(|p| p.fs())
    }

    /// Mutable positional file system — fault-injection harnesses.
    pub fn positions_fs_mut(&mut self) -> Option<&mut WormFs> {
        self.positions.as_mut().map(|p| p.fs_mut())
    }

    /// Document frequency of a term (postings in its list).
    pub fn doc_freq(&self, term: TermId) -> u64 {
        self.doc_freq.get(term.0 as usize).copied().unwrap_or(0)
    }

    /// Intern a token, assigning the next dense [`TermId`] and persisting
    /// the assignment to the WORM term dictionary.
    ///
    /// Fails only on a WORM fault while appending the dictionary record
    /// (the dictionary file is created at engine construction).
    pub fn intern(&mut self, token: &str) -> Result<TermId, SearchError> {
        if let Some(&t) = self.dict.get(token) {
            return Ok(t);
        }
        let bytes = token.as_bytes();
        // The dictionary record is length-prefixed with a u16; a longer
        // token must be rejected *before* anything reaches WORM — the
        // legacy `as u16` cast silently truncated the length, making
        // every subsequent dictionary record unparseable.
        let len = u16::try_from(bytes.len())
            .map_err(|_| SearchError::TokenTooLong { len: bytes.len() })?;
        let t = TermId(self.term_names.len() as u32);
        let file = self.doc_fs.open(TERMS_FILE)?;
        let mut rec = Vec::with_capacity(2 + bytes.len());
        rec.extend_from_slice(&len.to_le_bytes());
        rec.extend_from_slice(bytes);
        // The dictionary bytes are bound transitively: every commit
        // absorbs each posting's term *name* into the chain, so a
        // tampered dictionary record changes the recomputed digest of
        // the first commit that uses the term.
        // audit:allow(chain-append-discipline)
        self.doc_fs.append(file, &rec)?;
        self.term_names.push(token.to_string());
        self.dict.insert(token.to_string(), t);
        Ok(t)
    }

    /// Look up a token without interning.
    pub fn term_of(&self, token: &str) -> Option<TermId> {
        self.dict.get(token).copied()
    }

    /// Commit a text document with the given (non-decreasing) timestamp.
    /// The document and all of its index entries are durably on WORM when
    /// this returns — the real-time property of §2.3.
    pub fn add_document(&mut self, text: &str, ts: Timestamp) -> Result<DocId, SearchError> {
        let with_positions = tokenizer::term_positions(text);
        let mut entries: Vec<(TermId, Vec<u32>)> = Vec::with_capacity(with_positions.len());
        for (tok, ps) in with_positions {
            entries.push((self.intern(&tok)?, ps));
        }
        entries.sort_unstable_by_key(|&(t, _)| t);
        let terms: Vec<(TermId, u32)> = entries
            .iter()
            .map(|(t, ps)| (*t, ps.len() as u32))
            .collect();
        let positions: Vec<Vec<u32>> = entries.into_iter().map(|(_, ps)| ps).collect();
        self.add_document_impl(&terms, ts, Some(text), Some(&positions))
    }

    /// Commit a pre-tokenised document (the synthetic-corpus path).
    /// `terms` must be sorted by term ID and duplicate-free.  On a
    /// positional engine, empty position records keep the sidecar in
    /// lockstep (such documents never match phrases).
    pub fn add_document_terms(
        &mut self,
        terms: &[(TermId, u32)],
        ts: Timestamp,
        raw_text: Option<&str>,
    ) -> Result<DocId, SearchError> {
        self.add_document_impl(terms, ts, raw_text, None)
    }

    fn add_document_impl(
        &mut self,
        terms: &[(TermId, u32)],
        ts: Timestamp,
        raw_text: Option<&str>,
        positions: Option<&[Vec<u32>]>,
    ) -> Result<DocId, SearchError> {
        let before = self.device_bytes_committed();
        let result = self.add_document_inner(terms, ts, raw_text, positions);
        if result.is_err() {
            // WORM bytes cannot be taken back: whatever the failed commit
            // managed to append sits behind the commit point forever.
            // Count it so live trust metadata matches what a recovery of
            // these devices would quarantine.
            self.torn_tail_bytes += self.device_bytes_committed() - before;
            // The failed commit's partial content must not leak into the
            // next commit's digest.
            self.chain.abort();
        }
        result
    }

    /// Total bytes committed across all of the engine's WORM devices.
    fn device_bytes_committed(&self) -> u64 {
        self.store.fs().device().bytes_committed()
            + self.doc_fs.device().bytes_committed()
            + self
                .positions
                .as_ref()
                .map_or(0, |p| p.fs().device().bytes_committed())
    }

    fn add_document_inner(
        &mut self,
        terms: &[(TermId, u32)],
        ts: Timestamp,
        raw_text: Option<&str>,
        positions: Option<&[Vec<u32>]>,
    ) -> Result<DocId, SearchError> {
        if let Some(last) = self.docs.last() {
            if ts < last.timestamp {
                return Err(SearchError::NonMonotonicTimestamp {
                    last: last.timestamp,
                    attempted: ts,
                });
            }
        }
        let doc = DocId(self.docs.len() as u64);
        let time_entry = TimeEntry::new(ts, doc)?;
        // Validate the whole document against the assignment up front so a
        // failed insert leaves no partial state.
        for &(t, _) in terms {
            let covered = match &self.config.assignment {
                MergeAssignment::Unmerged { vocab_size } => t.0 < *vocab_size,
                MergeAssignment::Uniform { .. } => true,
                MergeAssignment::Table { list_of, .. } => (t.0 as usize) < list_of.len(),
            };
            if !covered {
                return Err(SearchError::VocabOverflow { term: t });
            }
        }

        let len: u64 = terms.iter().map(|&(_, tf)| tf as u64).sum();
        // Every byte this commit writes is absorbed into the in-flight
        // chain digest in canonical order; the sealed link lands on WORM
        // just before the DOCMETA commit point (step 4).
        self.chain.absorb_commit_header(doc.0, ts.0, len);
        // 1. The record itself reaches WORM first (we trust the insertion
        //    application at commit time; see paper §2.1).  Its DOCMETA
        //    record is deliberately *not* written yet: DOCMETA is the
        //    commit point, appended last (step 4), so a crash anywhere in
        //    this function leaves index entries that recovery can
        //    recognise as uncommitted and quarantine.
        let mut stored_text = None;
        if self.config.store_documents {
            if let Some(text) = raw_text {
                let name = format!("docs/{}", doc.0);
                // The engine never creates the same doc file twice, so a
                // collision here means orphan text from a torn commit
                // already occupies this document's slot — quarantined
                // residue, not a generic file-system error.
                let f = match self.doc_fs.create(&name, u64::MAX) {
                    Ok(f) => f,
                    Err(WormError::FileExists(_)) => {
                        let bytes = self
                            .doc_fs
                            .open(&name)
                            .map(|f| self.doc_fs.len(f))
                            .unwrap_or(0);
                        return Err(SearchError::QuarantinedResidue { file: name, bytes });
                    }
                    Err(e) => return Err(e.into()),
                };
                self.doc_fs.append(f, text.as_bytes())?;
                stored_text = Some(text.as_bytes());
            }
        }
        // The frame records text absence too, so "no stored text" and
        // "empty stored text" hash differently.
        self.chain.absorb_text(stored_text);

        // 2. Index entries, one per distinct keyword, before returning.
        let jump_enabled = !self.jump.is_empty();
        for (i, &(term, tf)) in terms.iter().enumerate() {
            let list = self.config.assignment.list_of(term);
            // When jump indexes are enabled the jump blocks *are* the
            // posting blocks (paper §4.4), so cache accounting comes from
            // the jump touches; otherwise from the plain list append.
            let cache = if jump_enabled {
                None
            } else {
                Some(&mut self.cache)
            };
            self.store.append(list, term, doc, tf, cache)?;
            if jump_enabled {
                let tag = self.store.tag_of(list, term)?.ok_or_else(|| {
                    SearchError::Internal(format!("tag for {term} in {list} missing after append"))
                })?;
                let posting = Posting::new(doc, tag, tf);
                let cache = &mut self.cache;
                self.jump[list.0 as usize].insert_with(posting, |t| match t {
                    Touch::Append {
                        block,
                        was_empty,
                        fills,
                    } => {
                        cache.access(
                            jump_block_id(list, block),
                            AccessKind::Append { was_empty, fills },
                        );
                    }
                    Touch::PointerSet { block, .. } => {
                        cache.access(jump_block_id(list, block), AccessKind::Update);
                    }
                })?;
            }
            if let Some(ps) = &mut self.positions {
                // Lockstep sidecar: one record per appended posting.
                static EMPTY: &[u32] = &[];
                let record = positions
                    .and_then(|p| p.get(i))
                    .map(|v| &v[..])
                    .unwrap_or(EMPTY);
                ps.append(list.0, record)
                    .map_err(|e| recovery_err(&e.to_string()))?;
            }
            // Absorb the posting as stored: the saturated tf is what a
            // recovery sees when it recomputes the chain from postings.
            let name = self.term_names.get(term.0 as usize).map(|s| s.as_str());
            self.chain.absorb_term(term.0, name, tf.min(255) as u8);
            let slot = term.0 as usize;
            if slot >= self.doc_freq.len() {
                self.doc_freq.resize(slot + 1, 0);
            }
            self.doc_freq[slot] += 1;
        }

        // 3. Commit-time index (paper §5): trustworthy time-range queries.
        let cache = &mut self.cache;
        self.commit_times.insert_with(time_entry, |t| match t {
            Touch::Append {
                block,
                was_empty,
                fills,
            } => {
                cache.access(
                    time_block_id(block),
                    AccessKind::Append { was_empty, fills },
                );
            }
            Touch::PointerSet { block, .. } => {
                cache.access(time_block_id(block), AccessKind::Update);
            }
        })?;

        // 4. Seal and persist the chain link, then the commit point.
        //    The link reaches WORM first so DOCMETA stays the LAST append
        //    of the document: a crash between the two leaves one whole
        //    link for an uncommitted document, which recovery quarantines
        //    like the document's other residue.  Until DOCMETA is durably
        //    whole, every byte written above is quarantinable residue; a
        //    failure here (or anywhere above) leaves the document
        //    uncommitted and the in-memory shadow state invisible behind
        //    the `docs.len()` watermark.
        let link = self.chain.seal(doc.0 + 1);
        {
            let f = self.doc_fs.open(CHAIN_FILE)?;
            self.doc_fs.append(f, &link.encode())?;
        }
        {
            let f = self.doc_fs.open(DOCMETA_FILE)?;
            let mut rec = [0u8; DOCMETA_RECORD];
            rec[0..8].copy_from_slice(&ts.0.to_le_bytes());
            rec[8..16].copy_from_slice(&len.to_le_bytes());
            self.doc_fs.append(f, &rec)?;
        }
        // The in-memory chain only advances once the commit point has
        // landed, mirroring the `docs.len()` watermark.
        self.chain
            .advance(&link)
            .map_err(|e| SearchError::Internal(format!("commit chain: {e}")))?;

        self.total_tokens += len;
        if len >= 1 {
            self.min_doc_len = self.min_doc_len.min(len);
        }
        self.docs.push(DocMeta { timestamp: ts, len });
        Ok(doc)
    }

    /// Retrieve a committed document's text.
    pub fn document_text(&self, doc: DocId) -> Option<String> {
        let f = self.doc_fs.open(&format!("docs/{}", doc.0)).ok()?;
        let bytes = self.doc_fs.read(f, 0, self.doc_fs.len(f) as usize).ok()?;
        String::from_utf8(bytes).ok()
    }

    /// Commit timestamp of a document.
    pub fn document_timestamp(&self, doc: DocId) -> Option<Timestamp> {
        self.docs.get(doc.0 as usize).map(|m| m.timestamp)
    }

    fn collection_stats(&self) -> CollectionStats {
        let n = self.docs.len() as u64;
        CollectionStats {
            num_docs: n,
            avg_doc_len: if n == 0 {
                0.0
            } else {
                self.total_tokens as f64 / n as f64
            },
        }
    }

    /// Execute a [`Query`] against the full committed state.
    ///
    /// This is the single read entry point: every query shape — ranked
    /// disjunctive, conjunctive (optionally time-restricted), phrase, and
    /// commit-time range — is implemented exactly once behind it.  The
    /// response carries per-query I/O cost and trust metadata alongside
    /// the hits.
    pub fn execute(&self, query: &Query) -> Result<QueryResponse, SearchError> {
        self.execute_bounded(query, self.num_docs())
    }

    /// Execute a [`Query`] against a snapshot: only documents with
    /// `doc.0 < visible` can appear in the results.  Concurrent services
    /// ([`Searcher`](crate::service::Searcher)) pass a published
    /// watermark here so readers see a stable prefix of the commit
    /// sequence regardless of writer progress.
    ///
    /// Every evaluator is bounded at the watermark, never filtered after:
    /// a time range and the watermark are one doc-id interval (see
    /// `doc_interval`) that joins stop at and `TimeRange` answers.
    ///
    /// Ranking statistics (document frequencies, collection averages)
    /// reflect the live collection; the result *set* respects the
    /// watermark.
    pub fn execute_bounded(
        &self,
        query: &Query,
        visible: u64,
    ) -> Result<QueryResponse, SearchError> {
        let visible = visible.min(self.num_docs());
        let (hits, blocks, skipped) = match query {
            Query::Disjunctive { terms, top_k } => {
                let ids = self.resolve_any(terms);
                self.disjunctive_ranked(&ids, *top_k, visible)
            }
            Query::Conjunctive { terms, range } => match self.resolve_all(terms) {
                None => (Vec::new(), 0, 0),
                Some(ids) => {
                    let (docs, probes) = self.doc_interval(range.as_ref(), visible)?;
                    let (docs, blocks) = self.conjunctive_in(&ids, docs)?;
                    (unranked_hits(docs), blocks + probes, 0)
                }
            },
            Query::Phrase { text } => {
                let (docs, blocks) = self.phrase_docs(text, visible)?;
                (unranked_hits(docs), blocks, 0)
            }
            Query::TimeRange(r) => {
                let (docs, probes) = self.doc_interval(Some(r), visible)?;
                let docs = (docs.start.0..docs.end.0).map(DocId).collect();
                (unranked_hits(docs), probes, 0)
            }
        };
        Ok(QueryResponse {
            hits,
            blocks_read: blocks,
            blocks_skipped: skipped,
            io: IoStats {
                read_ios: blocks,
                misses: blocks,
                ..IoStats::default()
            },
            visible_docs: visible,
            trusted: self.tamper_logs_clean() && self.recovery.chain_mismatch.is_none(),
            quarantined_bytes: self.quarantined_bytes(),
            chain_head: self
                .chain
                .head_at(visible)
                .unwrap_or_else(|| self.chain.head()),
        })
    }

    /// Resolve a disjunctive selector: unknown text tokens are dropped.
    /// Pre-resolved ID lists that are already strictly increasing — the
    /// common case for generated workloads, which emit canonical queries —
    /// are borrowed as-is instead of being cloned and re-sorted per query.
    fn resolve_any<'a>(&self, terms: &'a TermSelector) -> std::borrow::Cow<'a, [TermId]> {
        match terms {
            TermSelector::Text(text) => {
                let mut ids: Vec<TermId> = tokenizer::tokenize(text)
                    .iter()
                    .filter_map(|t| self.term_of(t))
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                std::borrow::Cow::Owned(ids)
            }
            TermSelector::Ids(ids) => normalized_ids(ids),
        }
    }

    /// Resolve a conjunctive selector: `None` when a text token is
    /// unknown (no document can contain it, so the result is empty).
    fn resolve_all<'a>(&self, terms: &'a TermSelector) -> Option<std::borrow::Cow<'a, [TermId]>> {
        match terms {
            TermSelector::Text(text) => {
                let toks = tokenizer::tokenize(text);
                let mut ids = Vec::with_capacity(toks.len());
                for t in &toks {
                    ids.push(self.term_of(t)?);
                }
                ids.sort_unstable();
                ids.dedup();
                Some(std::borrow::Cow::Owned(ids))
            }
            TermSelector::Ids(ids) => Some(normalized_ids(ids)),
        }
    }

    /// Build the per-term evaluation plans shared by both disjunctive
    /// evaluators: resolved tag/list/df, the list's block count, and the
    /// term's list-level score upper bound — sorted by descending bound.
    ///
    /// The sort is stable and the order is **canonical**: both the
    /// block-max evaluator and the exhaustive reference accumulate each
    /// document's per-term contributions in exactly this sequence, so
    /// their floating-point sums (and therefore hits, scores, and
    /// tie-break order) are bit-identical.  Terms never indexed are
    /// dropped — they have no postings and contribute nothing.
    fn disjunctive_plans(&self, terms: &[TermId], stats: CollectionStats) -> Vec<TermPlan> {
        let mut plans: Vec<TermPlan> = Vec::with_capacity(terms.len());
        for &term in terms {
            let list = self.config.assignment.list_of(term);
            let Ok(Some(tag)) = self.store.tag_of(list, term) else {
                continue;
            };
            let df = self.doc_freq(term);
            let blocks = self.store.num_blocks(list).unwrap_or(0);
            let max_tf = self.store.max_tf_for_tag(list, tag).unwrap_or(u8::MAX);
            // Clamped at 0 so the pruning reach in the evaluator is never
            // negative (scores only go negative under out-of-range BM25
            // parameters; 0 still bounds them from above).
            let ub = self
                .config
                .ranking
                .score_bound(max_tf as u32, self.min_doc_len, df, stats)
                .max(0.0);
            plans.push(TermPlan {
                term,
                tag,
                list,
                df,
                blocks,
                max_tf,
                ub,
            });
        }
        // Highest upper bound first: the terms most able to produce large
        // scores fill the threshold before the low-impact tails are even
        // looked at.  Stable, so bound ties keep the callers' canonical
        // (ascending term id) order.
        plans.sort_by(|a, b| b.ub.total_cmp(&a.ub));
        plans
    }

    /// Ranked disjunctive search: block-max top-k with early termination.
    ///
    /// Terms are evaluated term-at-a-time in descending order of their
    /// list-level score upper bound ([`RankingModel::score_bound`] at the
    /// term's own largest tf and the collection's minimum document
    /// length), so
    /// the highest-impact terms establish the pruning threshold first.
    /// θ — the k-th best *partial* score accumulated so far — only ever
    /// grows, and every final score is at least its partial, so θ is a
    /// sound lower bound on the final k-th score throughout the run.
    ///
    /// A block is skipped, without I/O, when its cache-resident
    /// [`BlockSummary`](tks_postings::BlockSummary) proves one of:
    ///
    /// * **watermark** — `min_doc ≥ visible`: the block (and, doc IDs
    ///   being non-decreasing, every later block of the list) holds only
    ///   documents beyond the snapshot;
    /// * **score bound** — the block's bound plus the bounds of all
    ///   remaining terms cannot lift any document past θ (strictly), *and*
    ///   no currently tracked contender lies in the block's doc range (a
    ///   contender's partial score must stay exact, so its blocks are
    ///   scanned regardless).
    ///
    /// Both rules are strict, so the result — hits, scores, tie-break
    /// order — is bit-identical to
    /// [`disjunctive_ranked_exhaustive`](Self::disjunctive_ranked_exhaustive)
    /// (property-tested in `tests/blockmax_equivalence.rs`).  A block with
    /// no resident summary is simply scanned — which summarises it as a
    /// decode by-product for every later query.
    ///
    /// Returns `(hits, blocks_scanned, blocks_skipped)`.  Only *scanned*
    /// blocks are charged to the Figure 8(c) cost; a skip touches nothing
    /// but an in-memory summary.
    fn disjunctive_ranked(
        &self,
        terms: &[TermId],
        top_k: usize,
        visible: u64,
    ) -> (Vec<SearchHit>, u64, u64) {
        /// `f64` ordered by `total_cmp` so partial scores can live in the
        /// top-k min-heap.
        #[derive(PartialEq)]
        struct OrdScore(f64);
        impl Eq for OrdScore {}
        impl PartialOrd for OrdScore {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for OrdScore {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        let stats = self.collection_stats();
        let plans = self.disjunctive_plans(terms, stats);
        if top_k == 0 || visible == 0 {
            // Nothing can be returned, so nothing needs scanning: every
            // block of every selected list is skipped outright.
            let mut lists: Vec<(u32, u64)> = plans.iter().map(|p| (p.list.0, p.blocks)).collect();
            lists.sort_unstable();
            lists.dedup();
            let skipped = lists.iter().map(|&(_, b)| b).sum();
            return (Vec::new(), 0, skipped);
        }
        // tail_ub[i] = Σ ub of plans i.. — what terms i.. can still add.
        let mut tail_ub = vec![0.0f64; plans.len() + 1];
        let mut running_ub = 0.0f64;
        for (slot, plan) in tail_ub.iter_mut().rev().skip(1).zip(plans.iter().rev()) {
            running_ub += plan.ub;
            *slot = running_ub;
        }

        let mut acc: HashMap<DocId, f64> = HashMap::new();
        let mut scanned: Vec<(u32, u64)> = Vec::new();
        let mut skipped = 0u64;
        let mut theta = f64::NEG_INFINITY;
        // Capacity is a hint only: `top_k` is caller-controlled and may
        // be absurd (usize::MAX in the fuzz suite), but the heap can
        // never hold more than the visible documents.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<OrdScore>> =
            std::collections::BinaryHeap::with_capacity(
                top_k
                    .saturating_add(1)
                    .min((visible as usize).saturating_add(1)),
            );
        let mut contenders: Vec<u64> = Vec::new();

        for (i, plan) in plans.iter().enumerate() {
            let tail = tail_ub.get(i + 1).copied().unwrap_or(0.0);
            if i > 0 {
                // Freeze θ for this term: the k-th best accumulated
                // partial.  Partials only grow, so θ never decreases.
                if acc.len() >= top_k {
                    let mut vals: Vec<f64> = acc.values().copied().collect();
                    let (_, kth, _) = vals.select_nth_unstable_by(top_k - 1, |a, b| b.total_cmp(a));
                    theta = theta.max(*kth);
                }
                if theta > f64::NEG_INFINITY {
                    // Prune documents that provably cannot reach θ even
                    // with a maximal contribution from every remaining
                    // term.  (A pruned document that resurfaces in a later
                    // scanned block re-enters with an underestimated
                    // partial — harmless, since its true total is already
                    // known to fall below the final k-th score.)
                    let reach = plan.ub + tail;
                    acc.retain(|_, v| *v + reach >= theta);
                }
                // The survivors are this term's *contenders*: documents
                // whose partial score must stay exact, so blocks holding
                // them are scanned regardless of the score bound.
                contenders.clear();
                contenders.extend(acc.keys().map(|d| d.0));
                contenders.sort_unstable();
            }
            let mut b = 0u64;
            'blocks: while b < plan.blocks {
                if let Ok(Some(summary)) = self.store.cached_block_summary(plan.list, b) {
                    if summary.min_doc.0 >= visible {
                        // Docs are non-decreasing along the list: every
                        // later block is beyond the watermark too.
                        skipped += plan.blocks - b;
                        break 'blocks;
                    }
                    // For the first term θ lives in the heap; afterwards it
                    // is frozen per term (the heap would go stale once
                    // documents accumulate across terms).
                    let th = if i == 0 {
                        if heap.len() == top_k {
                            heap.peek().map(|r| r.0 .0).unwrap_or(f64::NEG_INFINITY)
                        } else {
                            f64::NEG_INFINITY
                        }
                    } else {
                        theta
                    };
                    if th > f64::NEG_INFINITY {
                        // The block cannot hold a posting of this term
                        // with tf above either the block-wide or the
                        // term-wide maximum, so the tighter of the two
                        // bounds its contribution.
                        let bound = self.config.ranking.score_bound(
                            summary.max_tf.min(plan.max_tf) as u32,
                            self.min_doc_len,
                            plan.df,
                            stats,
                        ) + tail;
                        // First term: nothing is tracked beyond this list's
                        // own scanned prefix, and a term's docs strictly
                        // increase, so no tracked document can reappear —
                        // no overlap check needed.  Later terms: a tracked
                        // contender inside the block forces a scan.
                        let overlap = i > 0 && {
                            let at = contenders.partition_point(|&d| d < summary.min_doc.0);
                            contenders.get(at).is_some_and(|&d| d <= summary.max_doc.0)
                        };
                        if bound < th && !overlap {
                            skipped += 1;
                            b += 1;
                            continue 'blocks;
                        }
                    }
                }
                // Scan (and, as a decode by-product, summarise) the block.
                let Ok(block) = self.store.decoded_block(plan.list, b) else {
                    break 'blocks;
                };
                scanned.push((plan.list.0, b));
                for p in block.iter() {
                    if p.doc.0 >= visible {
                        // Everything after this posting is ≥ visible too.
                        skipped += plan.blocks - b - 1;
                        break 'blocks;
                    }
                    if p.term_tag != plan.tag {
                        continue;
                    }
                    let doc_len = self.docs.get(p.doc.0 as usize).map(|m| m.len).unwrap_or(1);
                    let s = self
                        .config
                        .ranking
                        .score_term(p.tf as u32, doc_len, plan.df, stats);
                    if i == 0 {
                        // Each document appears at most once per term, so
                        // the heap never holds a stale duplicate.
                        acc.insert(p.doc, s);
                        if heap.len() < top_k {
                            heap.push(std::cmp::Reverse(OrdScore(s)));
                        } else if heap.peek().is_some_and(|r| s > r.0 .0) {
                            heap.pop();
                            heap.push(std::cmp::Reverse(OrdScore(s)));
                        }
                    } else {
                        match acc.entry(p.doc) {
                            std::collections::hash_map::Entry::Occupied(e) => {
                                *e.into_mut() += s;
                            }
                            std::collections::hash_map::Entry::Vacant(slot) => {
                                // A document first seen here tops out at
                                // `s` plus every remaining term's bound;
                                // strictly below θ it can never reach the
                                // final top-k (the block-skip argument,
                                // applied per posting), so tracking it
                                // would only bloat the accumulator and
                                // the contender set.
                                if theta == f64::NEG_INFINITY || s + tail >= theta {
                                    slot.insert(s);
                                }
                            }
                        }
                    }
                }
                b += 1;
            }
        }
        // Figure 8(c) charges *distinct* blocks: terms sharing a merged
        // list read each block once (the decoded-block LRU makes repeat
        // visits cache hits).
        scanned.sort_unstable();
        scanned.dedup();
        let mut hits: Vec<SearchHit> = acc
            .into_iter()
            .map(|(doc, score)| SearchHit { doc, score })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(top_k);
        (hits, scanned.len() as u64, skipped)
    }

    /// The reference disjunctive evaluator: scores *every* posting of
    /// every selected list and charges every block — the paper's original
    /// full-scan cost model.  Kept public as the correctness oracle for
    /// the block-max evaluator (the equivalence property tests assert
    /// bit-identical results against it) and as the baseline the
    /// `at_scale` bench compares against.  `terms` must be sorted and
    /// deduplicated (as [`Query`] execution always provides them);
    /// duplicates would double-score.
    ///
    /// Terms are processed in the same canonical bound-descending order as
    /// the block-max evaluator, so per-document floating-point sums are
    /// accumulated in an identical sequence and the two evaluators'
    /// results can be compared for bit-equality.
    ///
    /// Returns the hits and the total posting-list blocks of the scanned
    /// lists.
    pub fn disjunctive_ranked_exhaustive(
        &self,
        terms: &[TermId],
        top_k: usize,
        visible: u64,
    ) -> (Vec<SearchHit>, u64) {
        let stats = self.collection_stats();
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        let mut lists: Vec<u32> = terms
            .iter()
            .map(|&t| self.config.assignment.list_of(t).0)
            .collect();
        lists.sort_unstable();
        lists.dedup();
        let blocks: u64 = lists
            .iter()
            .map(|&l| self.store.num_blocks(ListId(l)).unwrap_or(0))
            .sum();
        for plan in self.disjunctive_plans(terms, stats) {
            let (list, term, df) = (plan.list, plan.term, plan.df);
            let Ok(postings) = self.store.postings_for_term(list, term) else {
                continue;
            };
            for p in postings {
                if p.doc.0 >= visible {
                    continue;
                }
                let doc_len = self.docs.get(p.doc.0 as usize).map(|m| m.len).unwrap_or(1);
                let s = self
                    .config
                    .ranking
                    .score_term(p.tf as u32, doc_len, df, stats);
                *scores.entry(p.doc).or_insert(0.0) += s;
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(doc, score)| SearchHit { doc, score })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(top_k);
        (hits, blocks)
    }

    /// Every WORM device the engine writes — the one list the per-query
    /// `trusted` check and [`audit`](Self::audit) both read (no allocation).
    fn devices(&self) -> impl Iterator<Item = &WormDevice> {
        [self.store.fs(), &self.doc_fs]
            .into_iter()
            .chain(self.positions_fs())
            .map(WormFs::device)
    }

    /// Whether every WORM device's tamper log is empty.  One of the two
    /// conjuncts behind a response's `trusted` flag (the other is a
    /// clean commit-chain recheck); public so audit tooling like
    /// `tks archive verify` can report it separately.
    pub fn tamper_logs_clean(&self) -> bool {
        self.devices().all(|d| d.tamper_log().is_empty())
    }

    /// The documents committed in `range` and visible at `visible` as one
    /// interval `[lo, hi)`, plus the distinct commit-time-index blocks
    /// read.  Timestamps never decrease in doc order, so `lo` is the first
    /// doc stamped `≥ from` and `hi` the first `> to` (no probe if open).
    fn doc_interval(
        &self,
        range: Option<&TimeRange>,
        visible: u64,
    ) -> Result<(Range<DocId>, u64), SearchError> {
        let mut touched = Vec::new();
        let mut first_at = |ts: Option<u64>| -> Result<u64, SearchError> {
            let Some(ts) = ts else { return Ok(visible) };
            let pos = self.commit_times.find_geq_with(ts, |b| touched.push(b))?;
            let entry = pos.and_then(|p| self.commit_times.entry_at(p));
            Ok(entry.map_or(visible, |e| e.doc().0.min(visible)))
        };
        let (lo, hi) = match range {
            None => (0, visible),
            Some(r) if r.is_empty() => (0, 0),
            Some(r) => (first_at(Some(r.from.0))?, first_at(r.to.0.checked_add(1))?),
        };
        touched.sort_unstable();
        touched.dedup();
        Ok((DocId(lo.min(hi))..DocId(hi), touched.len() as u64))
    }

    /// Conjunctive search over term IDs, returning the matching documents
    /// and the distinct index blocks read (the Figure 8(c) cost unit).
    /// Uses zigzag joins over jump indexes when enabled, else scan-merge.
    pub fn conjunctive_terms(&self, terms: &[TermId]) -> Result<(Vec<DocId>, u64), SearchError> {
        self.conjunctive_in(terms, ALL_DOCS)
    }

    /// [`conjunctive_terms`](Self::conjunctive_terms) within `docs` only.
    fn conjunctive_in(
        &self,
        terms: &[TermId],
        docs: Range<DocId>,
    ) -> Result<(Vec<DocId>, u64), SearchError> {
        if terms.is_empty() || docs.is_empty() {
            return Ok((Vec::new(), 0));
        }
        if !self.jump.is_empty() {
            let mut cursors: Vec<Box<dyn DocCursor + '_>> = Vec::with_capacity(terms.len());
            for &term in terms {
                let list = self.config.assignment.list_of(term);
                let tag = self.store.tag_of(list, term)?;
                let Some(tag) = tag else {
                    return Ok((Vec::new(), 0));
                };
                cursors.push(Box::new(JumpCursor::new(
                    &self.jump[list.0 as usize],
                    Some(tag),
                    self.doc_freq(term),
                )));
            }
            return Ok(zigzag_join_multi(cursors, docs));
        }
        // Scan-merge fallback.  The cost is whole merged lists, charged up
        // front for every distinct list exactly as materialising scans
        // would (Figure 8(c) accounting is unchanged by the streaming
        // rewrite below and by `docs`, which only ends the work early).
        let mut lists: Vec<u32> = terms
            .iter()
            .map(|&t| self.config.assignment.list_of(t).0)
            .collect();
        lists.sort_unstable();
        lists.dedup();
        let mut blocks = 0u64;
        for &l in &lists {
            blocks += self.store.num_blocks(ListId(l))?;
        }
        // Seed the accumulator from the rarest term, then intersect the
        // remaining terms' lists into it one decoded block at a time —
        // never materialising another term's full doc vector.  Each term's
        // docs are strictly increasing, so this is a sorted-set
        // intersection and the result is independent of term order.
        let mut order: Vec<TermId> = terms.to_vec();
        order.sort_by_key(|&t| self.doc_freq(t));
        let Some((&rarest, rest)) = order.split_first() else {
            return Ok((Vec::new(), blocks));
        };
        let rarest_list = self.config.assignment.list_of(rarest);
        let mut acc: Vec<DocId> = self
            .store
            .postings_for_term(rarest_list, rarest)?
            .map(|p| p.doc)
            .skip_while(|d| *d < docs.start)
            .take_while(|d| *d < docs.end)
            .collect();
        for &term in rest {
            if acc.is_empty() {
                break;
            }
            let list = self.config.assignment.list_of(term);
            let Some(tag) = self.store.tag_of(list, term)? else {
                return Ok((Vec::new(), blocks));
            };
            let mut next: Vec<DocId> = Vec::with_capacity(acc.len());
            let mut ai = 0usize;
            'scan: for block in self.store.block_reader(list)? {
                for p in block.iter().filter(|p| p.term_tag == tag) {
                    // Gallop the (short) accumulator forward to this doc.
                    ai += acc
                        .get(ai..)
                        .map(|rest| rest.partition_point(|&d| d < p.doc))
                        .unwrap_or(0);
                    match acc.get(ai) {
                        Some(&d) if d == p.doc => {
                            next.push(d);
                            ai += 1;
                        }
                        Some(_) => {}
                        None => break 'scan,
                    }
                }
            }
            acc = next;
        }
        Ok((acc, blocks))
    }

    /// The one implementation of phrase matching.  Returns the matching
    /// documents (ascending) and the blocks read: the conjunctive
    /// candidate join's blocks plus one read per position record fetched.
    ///
    /// Completeness note: candidates come from the trustworthy conjunctive
    /// join, so a committed phrase occurrence can only be missed if the
    /// positional sidecar is tampered with — which the position reader and
    /// the lockstep audit surface as evidence.
    fn phrase_docs(&self, phrase: &str, visible: u64) -> Result<(Vec<DocId>, u64), SearchError> {
        let Some(positions) = &self.positions else {
            return Err(SearchError::NotPositional);
        };
        let tokens = tokenizer::tokenize(phrase);
        if tokens.is_empty() {
            return Ok((Vec::new(), 0));
        }
        let mut terms = Vec::with_capacity(tokens.len());
        for t in &tokens {
            match self.term_of(t) {
                Some(id) => terms.push(id),
                None => return Ok((Vec::new(), 0)),
            }
        }
        let mut distinct = terms.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let (candidates, mut blocks) = self.conjunctive_in(&distinct, DocId(0)..DocId(visible))?;
        let mut out = Vec::new();
        'docs: for doc in candidates {
            let mut tok_pos = Vec::with_capacity(terms.len());
            for &term in &terms {
                let list = self.config.assignment.list_of(term);
                let Some(ord) = self.store.posting_ordinal(list, term, doc)? else {
                    continue 'docs;
                };
                let ps = positions.read(list.0, ord as usize).map_err(|e| {
                    SearchError::Tamper(TamperEvidence {
                        invariant: "position-sidecar",
                        detail: e.to_string(),
                    })
                })?;
                blocks += 1;
                tok_pos.push(ps);
            }
            if crate::positions::phrase_match(&tok_pos) {
                out.push(doc);
            }
        }
        Ok((out, blocks))
    }

    /// Deep audit: everything [`audit`](Self::audit) checks, plus
    /// posting-vs-document verification (the §5 countermeasure) — every
    /// posting must reference a committed document that actually contains
    /// the keyword.  Requires stored documents; O(total postings).
    pub fn audit_deep(
        &self,
    ) -> Result<(AuditReport, Vec<crate::rank_attack::PhantomPosting>), SearchError> {
        let report = self.audit();
        let phantoms = crate::rank_attack::detect_phantom_postings(self)?;
        Ok((report, phantoms))
    }

    /// Full audit: posting-list monotonicity, jump-index structure,
    /// commit-time index structure, and device tamper logs.
    pub fn audit(&self) -> AuditReport {
        let mut report = AuditReport {
            commit_time_ok: true,
            ..AuditReport::default()
        };
        for l in 0..self.store.num_lists() as u32 {
            let list = ListId(l);
            if let Ok(Some(pos)) = self.store.audit_monotonic(list) {
                report.list_violations.push((list, pos));
            }
            if let (Ok(count), Ok(raw), Ok(quarantined)) = (
                self.store.len(list),
                self.store.raw_len(list),
                self.store.quarantined_bytes(list),
            ) {
                // Quarantined torn-tail bytes are accounted dead weight,
                // not adversarial appends: raw length must equal logical
                // postings plus exactly the quarantined residue.
                let logical = count * tks_postings::POSTING_SIZE as u64;
                if logical + quarantined != raw {
                    report
                        .length_mismatches
                        .push((list, logical + quarantined, raw));
                }
            }
            if let (Some(ps), Ok(count)) = (&self.positions, self.store.len(list)) {
                if ps.num_records(l) as u64 != count {
                    report.position_lockstep_violations.push(list);
                }
            }
        }
        for (l, idx) in self.jump.iter().enumerate() {
            if let Err(t) = idx.audit() {
                report
                    .jump_violations
                    .push((ListId(l as u32), t.to_string()));
            }
        }
        if self.commit_times.audit().is_err() {
            report.commit_time_ok = false;
        }
        report.device_tamper_attempts = self.devices().map(|d| d.tamper_log().len()).sum();
        report
    }
}

// All tests go through the unified `execute` path.
#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SearchEngine {
        SearchEngine::new(EngineConfig {
            assignment: MergeAssignment::uniform(8),
            cache_bytes: 1 << 20,
            block_size: 512,
            ..Default::default()
        })
        .unwrap()
    }

    fn engine_with_jump() -> SearchEngine {
        SearchEngine::new(EngineConfig {
            assignment: MergeAssignment::uniform(8),
            cache_bytes: 1 << 20,
            block_size: 1024,
            jump: Some(JumpConfig::new(1024, 4, 1 << 32)),
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn index_and_disjunctive_search() {
        let mut e = engine();
        let d0 = e.add_document("the quick brown fox", Timestamp(1)).unwrap();
        let d1 = e.add_document("the lazy dog sleeps", Timestamp(2)).unwrap();
        let d2 = e
            .add_document("quick quick quick dog", Timestamp(3))
            .unwrap();
        let hits = e
            .execute(&Query::disjunctive("quick", 10))
            .map(|r| r.hits)
            .unwrap_or_default();
        let docs: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
        assert!(docs.contains(&d0) && docs.contains(&d2) && !docs.contains(&d1));
        // d2 mentions "quick" three times → ranks above d0.
        assert_eq!(hits[0].doc, d2);
    }

    #[test]
    fn conjunctive_search_scan_and_jump_agree() {
        let mut plain = engine();
        let mut jumped = engine_with_jump();
        let docs = [
            "alpha beta gamma",
            "alpha beta",
            "beta gamma delta",
            "alpha gamma",
            "alpha beta gamma delta",
        ];
        for (i, d) in docs.iter().enumerate() {
            plain.add_document(d, Timestamp(i as u64)).unwrap();
            jumped.add_document(d, Timestamp(i as u64)).unwrap();
        }
        let a = plain
            .execute(&Query::conjunctive("alpha beta gamma"))
            .map(|r| r.docs())
            .unwrap();
        let b = jumped
            .execute(&Query::conjunctive("alpha beta gamma"))
            .map(|r| r.docs())
            .unwrap();
        assert_eq!(a, vec![DocId(0), DocId(4)]);
        assert_eq!(a, b);
        // Unknown keyword → empty.
        assert!(plain
            .execute(&Query::conjunctive("alpha zeta"))
            .map(|r| r.docs())
            .unwrap()
            .is_empty());
        assert!(jumped
            .execute(&Query::conjunctive("alpha zeta"))
            .map(|r| r.docs())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn document_text_roundtrip() {
        let mut e = engine();
        let d = e.add_document("retain this record", Timestamp(5)).unwrap();
        assert_eq!(e.document_text(d).unwrap(), "retain this record");
        assert_eq!(e.document_timestamp(d), Some(Timestamp(5)));
        assert_eq!(e.document_text(DocId(99)), None);
    }

    #[test]
    fn timestamps_must_be_non_decreasing() {
        let mut e = engine();
        e.add_document("a", Timestamp(10)).unwrap();
        let err = e.add_document("b", Timestamp(9)).unwrap_err();
        assert!(matches!(err, SearchError::NonMonotonicTimestamp { .. }));
        // Equal timestamps are fine (same-second commits).
        e.add_document("c", Timestamp(10)).unwrap();
        assert_eq!(e.num_docs(), 2);

        // A timestamp past the commit-time index's 32 bits is refused
        // before anything reaches WORM or the chain, instead of wrapping.
        // (The text's terms are already interned, so the dictionary does
        // not grow either.)
        let (head, bytes) = (e.chain_head(), e.device_bytes_committed());
        let err = e
            .add_document("a c", Timestamp(u32::MAX as u64 + 101))
            .unwrap_err();
        assert!(
            matches!(err, SearchError::TimestampOutOfRange { .. }),
            "{err}"
        );
        assert_eq!(
            (e.num_docs(), e.chain_head(), e.device_bytes_committed()),
            (2, head, bytes)
        );
        e.add_document("e", Timestamp(u32::MAX as u64)).unwrap();

        // Recovery refuses a DOCMETA record past 32 bits, or one that goes
        // back in time (the commit-time index itself refuses it).
        for ts in [1u64 << 32, 9] {
            let mut e = engine();
            e.add_document("a", Timestamp(10)).unwrap();
            let config = e.config().clone();
            let mut parts = e.into_parts();
            let f = parts.doc_fs.open(DOCMETA_FILE).unwrap();
            let mut rec = [0u8; DOCMETA_RECORD];
            rec[0..8].copy_from_slice(&ts.to_le_bytes());
            parts.doc_fs.append(f, &rec).unwrap();
            let err = SearchEngine::recover(parts, config).unwrap_err();
            let typed = matches!(err, SearchError::TimestampOutOfRange { .. });
            assert_eq!(typed, ts > u32::MAX as u64, "{err}");
        }
    }

    #[test]
    fn time_range_queries() {
        let mut e = engine();
        for i in 0..10u64 {
            e.add_document(&format!("memo number {i}"), Timestamp(100 + i * 10))
                .unwrap();
        }
        let range = |from: u64, to: u64, visible: u64| {
            let q = Query::time_range(Timestamp(from), Timestamp(to));
            let r = e.execute_bounded(&q, visible).unwrap();
            (r.docs(), r.blocks_read)
        };
        let ids = |v: std::ops::Range<u64>| v.map(DocId).collect::<Vec<_>>();
        assert_eq!(range(120, 150, 10), (ids(2..6), 1));
        assert_eq!(range(125, 150, 10), (ids(3..6), 1));
        assert_eq!(range(120, 150, 4), (ids(2..4), 1));
        assert_eq!(range(120, u64::MAX, 10), (ids(2..10), 1));
        assert_eq!(range(0, u64::MAX, 7), (ids(0..7), 1));
        assert_eq!(range(500, 600, 10).0, ids(0..0));
        assert_eq!(range(150, 120, 10), (ids(0..0), 0));
        assert_eq!(range(1 << 40, u64::MAX, 10).0, ids(0..0));
        assert_eq!(range(0, (1 << 40) - 1, 10).0, ids(0..10));
    }

    #[test]
    fn conjunctive_in_time_range() {
        let mut e = engine();
        e.add_document("stewart waksal imclone trade", Timestamp(1000))
            .unwrap();
        e.add_document("unrelated waksal note", Timestamp(1500))
            .unwrap();
        e.add_document("stewart waksal imclone memo", Timestamp(2000))
            .unwrap();
        let hits = e
            .execute(&Query::conjunctive_in_range(
                "stewart waksal imclone",
                Timestamp(900),
                Timestamp(1500),
            ))
            .map(|r| r.docs())
            .unwrap();
        assert_eq!(hits, vec![DocId(0)]);
    }

    #[test]
    fn audit_clean_engine() {
        let mut e = engine_with_jump();
        for i in 0..30u64 {
            e.add_document(&format!("record {i} compliance text"), Timestamp(i))
                .unwrap();
        }
        let report = e.audit();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn audit_detects_raw_list_tampering() {
        let mut e = engine();
        e.add_document("target evidence document", Timestamp(1))
            .unwrap();
        // A later document containing the same keyword guarantees the
        // keyword's list ends at a doc ID greater than the forged one.
        e.add_document("more evidence material", Timestamp(2))
            .unwrap();
        // Mala appends an out-of-order posting to some list's raw file.
        let term = e.term_of("evidence").unwrap();
        let list = e.config().assignment.list_of(term);
        let name = format!("lists/{}", list.0);
        let evil = tks_postings::encode_posting(Posting::new(DocId(0), 0, 1));
        let file = e.list_store().fs().open(&name).unwrap();
        e.list_store_mut().fs_mut().append(file, &evil).unwrap();
        // The raw append is on WORM now — but the audit flags the list.
        let report = e.audit();
        assert!(report.list_violations.iter().any(|&(l, _)| l == list));
    }

    #[test]
    fn io_stats_accumulate_and_merging_reduces_io() {
        // Unmerged vs merged: with a tiny cache, per-term lists miss
        // constantly; a merged assignment with as many lists as cache
        // blocks stays hot.
        let mk = |assignment: MergeAssignment| {
            SearchEngine::new(EngineConfig {
                assignment,
                cache_bytes: 16 * 512, // 16 blocks
                block_size: 512,
                store_documents: false,
                ..Default::default()
            })
            .unwrap()
        };
        let mut unmerged = mk(MergeAssignment::unmerged(4096));
        let mut merged = mk(MergeAssignment::uniform(16));
        // Synthetic docs with many distinct terms each.
        for doc in 0..200u64 {
            let terms: Vec<(TermId, u32)> = (0..40)
                .map(|j| (TermId((doc as u32 * 7 + j * 13) % 4000), 1))
                .collect();
            let mut sorted = terms.clone();
            sorted.sort_unstable_by_key(|&(t, _)| t);
            sorted.dedup_by_key(|&mut (t, _)| t);
            unmerged
                .add_document_terms(&sorted, Timestamp(doc), None)
                .unwrap();
            merged
                .add_document_terms(&sorted, Timestamp(doc), None)
                .unwrap();
        }
        let u = unmerged.io_stats().total_ios();
        let m = merged.io_stats().total_ios();
        assert!(
            m * 3 < u,
            "merged {m} I/Os should be far below unmerged {u}"
        );
    }

    #[test]
    fn vocab_overflow_rejected_atomically() {
        let mut e = SearchEngine::new(EngineConfig {
            assignment: MergeAssignment::unmerged(4),
            ..Default::default()
        })
        .unwrap();
        let ok = [(TermId(0), 1), (TermId(3), 1)];
        e.add_document_terms(&ok, Timestamp(1), None).unwrap();
        let bad = [(TermId(1), 1), (TermId(9), 1)];
        let err = e.add_document_terms(&bad, Timestamp(2), None).unwrap_err();
        assert!(matches!(
            err,
            SearchError::VocabOverflow { term: TermId(9) }
        ));
        // Nothing from the failed document reached the index.
        assert_eq!(e.doc_freq(TermId(1)), 0);
        assert_eq!(e.num_docs(), 1);
    }

    fn positional_engine() -> SearchEngine {
        SearchEngine::new(EngineConfig {
            assignment: MergeAssignment::uniform(8),
            positional: true,
            block_size: 512,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn phrase_search_requires_adjacency() {
        let mut e = positional_engine();
        let hit = e
            .add_document(
                "board approved the earnings restatement draft",
                Timestamp(1),
            )
            .unwrap();
        let near_miss = e
            .add_document(
                "earnings were strong; restatement of goals followed",
                Timestamp(2),
            )
            .unwrap();
        let phrase = e
            .execute(&Query::phrase("earnings restatement"))
            .map(|r| r.docs())
            .unwrap();
        assert_eq!(phrase, vec![hit]);
        // The conjunctive query still finds both.
        let conj = e
            .execute(&Query::conjunctive("earnings restatement"))
            .map(|r| r.docs())
            .unwrap();
        assert_eq!(conj, vec![hit, near_miss]);
        // Longer phrase, repeated words, and misses.
        assert_eq!(
            e.execute(&Query::phrase("the earnings restatement draft"))
                .map(|r| r.docs())
                .unwrap(),
            vec![hit]
        );
        assert!(e
            .execute(&Query::phrase("restatement earnings"))
            .map(|r| r.docs())
            .unwrap()
            .is_empty());
        assert!(e
            .execute(&Query::phrase("unknown words entirely"))
            .map(|r| r.docs())
            .unwrap()
            .is_empty());
        assert!(e
            .execute(&Query::phrase(""))
            .map(|r| r.docs())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn phrase_search_with_repeated_tokens() {
        let mut e = positional_engine();
        let d = e
            .add_document("buffalo buffalo buffalo graze", Timestamp(1))
            .unwrap();
        assert_eq!(
            e.execute(&Query::phrase("buffalo buffalo buffalo"))
                .map(|r| r.docs())
                .unwrap(),
            vec![d]
        );
        assert!(e
            .execute(&Query::phrase("buffalo graze buffalo"))
            .map(|r| r.docs())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn phrase_on_non_positional_engine_errors() {
        let mut e = engine();
        e.add_document("a b", Timestamp(1)).unwrap();
        assert!(matches!(
            e.execute(&Query::phrase("a b")).map(|r| r.docs()),
            Err(SearchError::NotPositional)
        ));
    }

    #[test]
    fn positional_engine_survives_recovery() {
        let mut e = positional_engine();
        let hit = e
            .add_document("exact phrase match here", Timestamp(1))
            .unwrap();
        e.add_document("phrase exact no match", Timestamp(2))
            .unwrap();
        // Pre-tokenised docs on a positional engine get empty records and
        // never match phrases, but keep lockstep.
        e.add_document_terms(&[(TermId(0), 1)], Timestamp(3), None)
            .unwrap();
        let config = e.config().clone();
        assert!(e.audit().is_clean());
        let r = SearchEngine::recover(e.into_parts(), config).unwrap();
        assert_eq!(
            r.execute(&Query::phrase("exact phrase"))
                .map(|r| r.docs())
                .unwrap(),
            vec![hit]
        );
        assert!(r.audit().is_clean());
    }

    #[test]
    fn positional_lockstep_tampering_detected() {
        let mut e = positional_engine();
        e.add_document("target evidence record", Timestamp(1))
            .unwrap();
        e.add_document("more evidence here", Timestamp(2)).unwrap();
        // Mala appends a raw posting without a position record.
        let term = e.term_of("evidence").unwrap();
        let list = e.config().assignment.list_of(term);
        let evil = tks_postings::encode_posting(Posting::new(DocId(1), 0, 1));
        let f = e
            .list_store()
            .fs()
            .open(&format!("lists/{}", list.0))
            .unwrap();
        e.list_store_mut().fs_mut().append(f, &evil).unwrap();
        let report = e.audit();
        assert!(!report.is_clean());

        // A rejected overwrite on the positions device alone is tamper
        // evidence to the audit and to every answer's `trusted` flag.
        let mut e = positional_engine();
        e.add_document("target evidence record", Timestamp(1))
            .unwrap();
        let pos = e.positions_fs_mut().unwrap().device_mut();
        assert!(pos.try_overwrite(BlockId(0), 0, b"x").is_err());
        assert!(!e.audit().is_clean());
        let resp = e.execute(&Query::disjunctive("evidence", 10)).unwrap();
        assert!(!resp.trusted);
    }

    #[test]
    fn oversized_token_is_a_typed_error_and_leaves_dictionary_parseable() {
        let mut e = engine();
        e.add_document("normal prefix", Timestamp(1)).unwrap();
        let huge = "x".repeat(70 * 1024);
        match e.intern(&huge) {
            Err(SearchError::TokenTooLong { len }) => assert_eq!(len, 70 * 1024),
            other => panic!("expected TokenTooLong, got {other:?}"),
        }
        match e.add_document(&huge, Timestamp(2)) {
            Err(SearchError::TokenTooLong { .. }) => {}
            other => panic!("expected TokenTooLong, got {other:?}"),
        }
        // The rejection happened before any dictionary bytes reached
        // WORM: later commits succeed and the dictionary replays.
        e.add_document("normal suffix", Timestamp(3)).unwrap();
        let config = e.config().clone();
        let r = SearchEngine::recover(e.into_parts(), config).unwrap();
        assert_eq!(r.num_docs(), 2);
        assert!(r.chain_mismatch().is_none());
        assert_eq!(r.vocab_size(), 3); // normal, prefix, suffix
    }

    #[test]
    fn chain_heads_are_per_watermark_and_survive_recovery() {
        let mut e = engine();
        let genesis = e.chain_head();
        let mut heads = vec![genesis];
        for (i, text) in ["alpha beta", "beta gamma", "gamma delta"]
            .iter()
            .enumerate()
        {
            e.add_document(text, Timestamp(10 + i as u64)).unwrap();
            let head = e.chain_head();
            assert!(!heads.contains(&head), "every commit must advance the head");
            heads.push(head);
        }
        // Watermark-indexed heads are stable: the head at watermark w
        // never changes once commit w lands.
        for (w, expected) in heads.iter().enumerate() {
            assert_eq!(e.chain_head_at(w as u64), Some(*expected));
        }
        let config = e.config().clone();
        let r = SearchEngine::recover(e.into_parts(), config).unwrap();
        assert!(r.chain_mismatch().is_none());
        assert_eq!(r.chain_head(), heads[3], "recomputed head must match");
        for (w, expected) in heads.iter().enumerate() {
            assert_eq!(r.chain_head_at(w as u64), Some(*expected));
        }
    }

    /// An adversary who edits a persisted image *and* regenerates its
    /// integrity footer gets past `load_fs` — only the chain recompute
    /// against the persisted links catches the edit, and the engine
    /// must refuse `trusted` from then on.
    #[test]
    fn reforged_image_tamper_surfaces_as_chain_mismatch() {
        let mut e = engine();
        e.add_document("merger escrow instructions", Timestamp(100))
            .unwrap();
        e.add_document("quarterly retention audit", Timestamp(200))
            .unwrap();
        let config = e.config().clone();
        let mut parts = e.into_parts();
        let mut img = tks_worm::save_fs(&parts.doc_fs).unwrap();
        let at = img.windows(6).position(|w| w == b"merger").unwrap();
        img[at] ^= 0x01;
        let body = img.len() - 32;
        let footer = tks_worm::sha256(&img[..body]);
        img[body..].copy_from_slice(&footer);
        parts.doc_fs = tks_worm::load_fs(&img).expect("reforged footer defeats load_fs");
        let r = SearchEngine::recover(parts, config).unwrap();
        assert!(
            r.chain_mismatch().is_some(),
            "chain recompute must flag the edit"
        );
        let resp = r.execute(&Query::disjunctive("retention", 5)).unwrap();
        assert!(!resp.trusted, "a mismatched chain can never be trusted");
    }

    #[test]
    fn recovery_roundtrip_preserves_search_results() {
        let mut e = engine_with_jump();
        let docs = [
            "alpha beta gamma compliance",
            "beta gamma delta records",
            "alpha gamma retention",
            "alpha beta gamma delta audit",
        ];
        for (i, d) in docs.iter().enumerate() {
            e.add_document(d, Timestamp(100 + i as u64)).unwrap();
        }
        let config = e.config().clone();
        let disjunctive_before = e
            .execute(&Query::disjunctive("alpha gamma", 10))
            .map(|r| r.hits)
            .unwrap_or_default();
        let conjunctive_before = e
            .execute(&Query::conjunctive("alpha beta gamma"))
            .map(|r| r.docs())
            .unwrap();
        let range_query = Query::time_range(Timestamp(101), Timestamp(102));
        let range_before = e.execute(&range_query).unwrap().docs();

        let r = SearchEngine::recover(e.into_parts(), config).unwrap();
        assert_eq!(r.num_docs(), 4);
        assert_eq!(r.vocab_size(), 8);
        assert_eq!(
            r.execute(&Query::disjunctive("alpha gamma", 10))
                .map(|r| r.hits)
                .unwrap_or_default(),
            disjunctive_before
        );
        assert_eq!(
            r.execute(&Query::conjunctive("alpha beta gamma"))
                .map(|r| r.docs())
                .unwrap(),
            conjunctive_before
        );
        assert_eq!(r.execute(&range_query).unwrap().docs(), range_before);
        assert_eq!(r.document_text(DocId(0)).unwrap(), docs[0]);
        assert!(r.audit().is_clean());
        // The recovered engine keeps working.
        let mut r = r;
        let d = r
            .add_document("alpha epsilon new record", Timestamp(200))
            .unwrap();
        assert_eq!(d, DocId(4));
        assert!(r
            .execute(&Query::conjunctive("alpha epsilon"))
            .map(|r| r.docs())
            .unwrap()
            .contains(&d));
    }

    #[test]
    fn recovery_refuses_tampered_lists() {
        let mut e = engine();
        e.add_document("evidence one", Timestamp(1)).unwrap();
        e.add_document("evidence two", Timestamp(2)).unwrap();
        let config = e.config().clone();
        let term = e.term_of("evidence").unwrap();
        let list = config.assignment.list_of(term);
        let name = format!("lists/{}", list.0);
        let evil = tks_postings::encode_posting(Posting::new(DocId(0), 0, 1));
        let f = e.list_store().fs().open(&name).unwrap();
        e.list_store_mut().fs_mut().append(f, &evil).unwrap();
        let err = SearchEngine::recover(e.into_parts(), config).unwrap_err();
        assert!(err.to_string().contains("recovery refused"), "{err}");
    }

    #[test]
    fn recovery_refuses_phantom_doc_postings() {
        let mut e = engine();
        e.add_document("ledger entry", Timestamp(1)).unwrap();
        let config = e.config().clone();
        let term = e.term_of("ledger").unwrap();
        let list = config.assignment.list_of(term);
        // A forged posting for a document that was never committed —
        // monotone, registered tag, but no metadata record.
        let evil = tks_postings::encode_posting(Posting::new(DocId(50), 0, 1));
        let f = e
            .list_store()
            .fs()
            .open(&format!("lists/{}", list.0))
            .unwrap();
        e.list_store_mut().fs_mut().append(f, &evil).unwrap();
        let err = SearchEngine::recover(e.into_parts(), config).unwrap_err();
        assert!(err.to_string().contains("no metadata record"), "{err}");
    }

    #[test]
    fn torn_commit_fails_invisibly_and_recovery_quarantines_residue() {
        // End-to-end crash simulation: a fault kills the write path
        // mid-document, the live engine stays truthful, and recovery of
        // the raw devices converges to the last whole document with the
        // residue quarantined and reported.
        let mut e = engine();
        e.add_document("alpha beta", Timestamp(1)).unwrap();
        e.add_document("beta gamma", Timestamp(2)).unwrap();
        let config = e.config().clone();
        let before = e.execute(&Query::conjunctive("beta")).unwrap().docs();

        // Tear the posting-store device partway into doc 2's entries.
        let offset = e.list_store().fs().device().bytes_committed() + 3;
        e.list_store_mut()
            .fs_mut()
            .arm_faults(tks_worm::FaultPolicy::torn_at_offset(offset));
        e.add_document("alpha beta gamma", Timestamp(3))
            .unwrap_err();
        // The failed document never becomes visible, and the residue its
        // commit left on WORM is counted immediately: 16 bytes of record
        // text (committed before the fault) plus the 3 torn store bytes.
        assert_eq!(e.num_docs(), 2);
        assert_eq!(e.quarantined_bytes(), 19);
        assert!(
            e.execute(&Query::conjunctive("beta"))
                .unwrap()
                .quarantined_bytes
                > 0
        );

        // Restart: surface device-committed bytes the fs metadata missed,
        // then recover.
        let mut parts = e.into_parts();
        parts.store_fs.disarm_faults();
        parts.store_fs.crash_recover().unwrap();
        parts.doc_fs.crash_recover().unwrap();
        let r = SearchEngine::recover(parts, config).unwrap();
        assert_eq!(r.num_docs(), 2);
        let report = r.recovery_report();
        assert!(!report.is_clean(), "torn residue must be reported");
        // Recovery sees the same residue the live engine counted: the
        // orphaned text file plus the torn store bytes.
        assert_eq!(report.doc_text_bytes, 16);
        assert_eq!(report.total_quarantined_bytes(), 19);
        let resp = r.execute(&Query::conjunctive("beta")).unwrap();
        assert_eq!(resp.docs(), before);
        assert_eq!(resp.quarantined_bytes, 19);
        assert!(resp.trusted, "a torn tail is not tamper evidence");
        assert!(r.audit().is_clean(), "quarantined bytes are accounted");
    }

    #[test]
    fn recovery_quarantines_whole_postings_of_uncommitted_doc() {
        // Whole index entries whose DOCMETA record never landed — the
        // crash-after-postings-before-commit-point shape.  They carry the
        // next document id, sit at the list tail, and are quarantined.
        let mut e = engine();
        e.add_document("ledger entry", Timestamp(1)).unwrap();
        let config = e.config().clone();
        let term = e.term_of("ledger").unwrap();
        let list = config.assignment.list_of(term);
        let tag = e.list_store().tag_of(list, term).unwrap().unwrap();
        let orphan = tks_postings::encode_posting(Posting::new(DocId(1), tag, 1));
        let f = e
            .list_store()
            .fs()
            .open(&format!("lists/{}", list.0))
            .unwrap();
        e.list_store_mut().fs_mut().append(f, &orphan).unwrap();
        let r = SearchEngine::recover(e.into_parts(), config).unwrap();
        assert_eq!(r.num_docs(), 1);
        assert_eq!(r.recovery_report().list_bytes, vec![(list, 8)]);
        // The quarantined posting never matches queries.
        assert_eq!(
            r.execute(&Query::conjunctive("ledger")).unwrap().docs(),
            vec![DocId(0)]
        );
        // doc_freq counts only surviving postings.
        assert_eq!(r.doc_freq(term), 1);
        assert!(r.audit().is_clean());
    }

    #[test]
    fn recovery_quarantines_torn_docmeta_record() {
        // The commit point itself torn: a partial DOCMETA record means
        // the last document never committed — its index entries are
        // quarantined along with the partial record.
        let mut e = engine();
        e.add_document("alpha beta", Timestamp(1)).unwrap();
        e.add_document("gamma delta", Timestamp(2)).unwrap();
        let config = e.config().clone();
        let mut parts = e.into_parts();
        // Chop the doc-metadata stream mid-record by rebuilding it as a
        // torn copy: simulate with a device-level tear on a fresh commit.
        // Simpler equivalent: append a partial record directly.
        let f = parts.doc_fs.open(DOCMETA_FILE).unwrap();
        parts.doc_fs.append(f, &[0x09, 0x00, 0x00]).unwrap();
        let r = SearchEngine::recover(parts, config).unwrap();
        assert_eq!(r.num_docs(), 2);
        assert_eq!(r.recovery_report().docmeta_tail_bytes, 3);
        assert_eq!(r.quarantined_bytes(), 3);
    }

    #[test]
    fn recovery_quarantines_torn_term_dictionary_tail() {
        let mut e = engine();
        e.add_document("alpha beta", Timestamp(1)).unwrap();
        let config = e.config().clone();
        let mut parts = e.into_parts();
        // A torn intern: length prefix promises more bytes than exist.
        let f = parts.doc_fs.open(TERMS_FILE).unwrap();
        parts.doc_fs.append(f, &[0x05, 0x00, b'g', b'a']).unwrap();
        let r = SearchEngine::recover(parts, config).unwrap();
        assert_eq!(r.recovery_report().terms_tail_bytes, 4);
        assert_eq!(r.vocab_size(), 2);
        assert_eq!(
            r.execute(&Query::conjunctive("alpha")).unwrap().docs(),
            vec![DocId(0)]
        );
    }

    #[test]
    fn recovery_refuses_wrong_assignment() {
        let mut e = engine();
        e.add_document("some text", Timestamp(1)).unwrap();
        let err = SearchEngine::recover(
            e.into_parts(),
            EngineConfig {
                assignment: MergeAssignment::uniform(99),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("recovery refused"), "{err}");
    }

    #[test]
    fn empty_queries_and_empty_engine() {
        let e = engine();
        assert!(e
            .execute(&Query::disjunctive("anything", 5))
            .map(|r| r.hits)
            .unwrap_or_default()
            .is_empty());
        assert!(e
            .execute(&Query::conjunctive("anything"))
            .map(|r| r.docs())
            .unwrap()
            .is_empty());
        let mut e = engine();
        e.add_document("something", Timestamp(0)).unwrap();
        assert!(e
            .execute(&Query::disjunctive("", 5))
            .map(|r| r.hits)
            .unwrap_or_default()
            .is_empty());
        assert_eq!(e.conjunctive_terms(&[]).unwrap().0, Vec::<DocId>::new());
    }
}
