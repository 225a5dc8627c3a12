//! The versioned wire envelope and frame codec.
//!
//! Everything that crosses the TCP boundary lives in this module — the
//! `wire-versioning` audit rule denies (de)serialization anywhere else
//! in the server and client crates, so the network contract has exactly
//! one home.  The engine's internal `Query`/`QueryResponse` types are
//! **not** wire types: the envelope mirrors them with distinct
//! `Wire`-prefixed structs so the protocol can stay stable (or evolve
//! deliberately, behind [`PROTOCOL_VERSION`]) while engine internals
//! keep moving.
//!
//! ## Frame format (protocol version 1)
//!
//! ```text
//! +----------------+---------+---------------------------+
//! | length: u32 LE | version | JSON payload              |
//! | (of the rest)  | 1 byte  | (length - 1 bytes, UTF-8) |
//! +----------------+---------+---------------------------+
//! ```
//!
//! * the length prefix is validated against the receiver's
//!   `max_frame_bytes` **before any allocation**, so a hostile peer
//!   cannot make the server reserve gigabytes with five bytes of input;
//! * the version byte travels outside the JSON so an incompatible peer
//!   is detected without parsing its payload;
//! * the payload is one JSON-encoded [`WireRequest`] or
//!   [`WireResponse`].  Deserialization ignores unknown map keys, so a
//!   v1 peer tolerates fields added by later minor revisions
//!   (forward compatibility); unknown enum variants fail with a typed
//!   [`FrameError::Malformed`] and never kill the process.
//!
//! Errors travel as data: a [`WireError`] with a machine-checkable
//! [`WireErrorCode`] (`Overloaded`, `DeadlineExceeded`, `Degraded`, …)
//! mapped from the engine's typed error taxonomy.

use std::io::{Read, Write};
use std::time::Duration;

use tks_core::{Query, TermSelector, TimeRange};
use tks_postings::{TermId, Timestamp};
use tks_shard::{ShardError, ShardStatus, ShardedResponse};
use tks_worm::{ChainHead, Sha256};

/// The wire protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default ceiling on a single frame's payload (version byte + JSON).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Envelope types
// ---------------------------------------------------------------------------

/// How a wire query names its terms (mirror of the engine's
/// `TermSelector`).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WireTerms {
    /// Free text, tokenised server-side.
    Text(String),
    /// Pre-resolved term ids (harness / synthetic-corpus path).
    Ids(Vec<u32>),
}

/// One query shape, as it travels on the wire (mirror of the engine's
/// `Query`).  Commit-time bounds are plain `u64` seconds.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WireQuery {
    /// Ranked OR-query returning the best `top_k` documents.
    Disjunctive {
        /// The query terms.
        terms: WireTerms,
        /// Result-list cutoff.
        top_k: u64,
    },
    /// AND-query, optionally restricted to a commit-time range.  Both
    /// bounds absent means no restriction; a single absent bound is
    /// open-ended on that side.
    Conjunctive {
        /// The query terms.
        terms: WireTerms,
        /// Earliest commit timestamp included.
        from: Option<u64>,
        /// Latest commit timestamp included.
        to: Option<u64>,
    },
    /// Exact phrase query.
    Phrase {
        /// The phrase, as raw text.
        text: String,
    },
    /// All documents committed inside `[from, to]`.
    TimeRange {
        /// Earliest commit timestamp included.
        from: u64,
        /// Latest commit timestamp included.
        to: u64,
    },
}

impl WireTerms {
    fn to_selector(&self) -> TermSelector {
        match self {
            WireTerms::Text(s) => TermSelector::Text(s.clone()),
            WireTerms::Ids(ids) => TermSelector::Ids(ids.iter().map(|&i| TermId(i)).collect()),
        }
    }
}

impl WireQuery {
    /// Lower the wire shape onto the engine's internal query model.
    pub fn to_query(&self) -> Query {
        match self {
            WireQuery::Disjunctive { terms, top_k } => Query::Disjunctive {
                terms: terms.to_selector(),
                top_k: usize::try_from(*top_k).unwrap_or(usize::MAX),
            },
            WireQuery::Conjunctive { terms, from, to } => Query::Conjunctive {
                terms: terms.to_selector(),
                range: match (from, to) {
                    (None, None) => None,
                    (f, t) => Some(TimeRange::new(
                        Timestamp(f.unwrap_or(0)),
                        Timestamp(t.unwrap_or(u64::MAX)),
                    )),
                },
            },
            WireQuery::Phrase { text } => Query::Phrase { text: text.clone() },
            WireQuery::TimeRange { from, to } => {
                Query::TimeRange(TimeRange::new(Timestamp(*from), Timestamp(*to)))
            }
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WireRequest {
    /// Liveness probe; answered with [`WireResponse::Pong`].
    Ping,
    /// Archive status: shard count, watermarks, degraded shards.
    Status,
    /// Execute one query against the connection's pinned session.
    Query {
        /// The query to execute.
        query: WireQuery,
        /// Per-query deadline in milliseconds; the server's default
        /// applies when absent.
        deadline_ms: Option<u64>,
    },
    /// Re-pin the connection's session at the current commit frontier.
    Refresh,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WireResponse {
    /// Answer to [`WireRequest::Ping`].
    Pong,
    /// Answer to [`WireRequest::Status`].
    Status(WireStatus),
    /// Successful query execution.
    Query(WireQueryResponse),
    /// Answer to [`WireRequest::Refresh`]: the new watermark vector.
    Refreshed {
        /// Per-shard watermarks the session is now pinned at.
        watermarks: Vec<u64>,
    },
    /// Any failure, as a typed error value.
    Error(WireError),
}

/// Archive status snapshot.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireStatus {
    /// The wire protocol version the server speaks.
    pub protocol_version: u8,
    /// Number of shards (healthy or degraded).
    pub shards: u32,
    /// Documents visible to this connection's pinned session.
    pub visible_docs: u64,
    /// The session's per-shard watermark vector.
    pub watermarks: Vec<u64>,
    /// Shards the server cannot consult, with reasons.
    pub degraded: Vec<WireDegraded>,
}

/// One degraded shard in a [`WireStatus`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireDegraded {
    /// The degraded shard's id.
    pub shard: u32,
    /// Why recovery refused it.
    pub reason: String,
}

/// One ranked hit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireHit {
    /// Global document id (shard id in the high bits).
    pub doc: u64,
    /// Similarity score (higher is better; 0 for boolean queries).
    pub score: f64,
}

/// Per-shard breakdown of one query execution.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireShardStatus {
    /// The shard id.
    pub shard: u32,
    /// Whether this execution consulted the shard.
    pub consulted: bool,
    /// The shard's snapshot watermark (0 if not consulted).
    pub visible_docs: u64,
    /// The shard's own trust verdict (false if not consulted).
    pub trusted: bool,
    /// Torn-commit residue quarantined on this shard, in bytes.
    pub quarantined_bytes: u64,
    /// The shard's commit-chain head at its snapshot watermark, as
    /// lowercase hex (64 chars; empty from servers predating the
    /// field).  Compare against a head held out-of-band to verify this
    /// shard's slice of the response came from an untampered prefix.
    #[serde(default)]
    pub chain_head: String,
    /// Why the shard was not consulted, when degraded.
    pub degraded: Option<String>,
}

impl WireShardStatus {
    /// Parse the shard's chain head out of its hex encoding.
    pub fn parsed_chain_head(&self) -> Result<ChainHead, WireError> {
        ChainHead::from_hex(&self.chain_head).map_err(|e| {
            WireError::new(
                WireErrorCode::DigestMismatch,
                format!("shard {} chain head unparseable: {e}", self.shard),
            )
            .with_shard(self.shard)
        })
    }
}

/// A merged query response, as it travels on the wire (mirror of the
/// engine's `ShardedResponse`, with I/O counters flattened).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireQueryResponse {
    /// Matching documents under global ids.
    pub hits: Vec<WireHit>,
    /// Total distinct index blocks read across shards.
    pub blocks_read: u64,
    /// Total index blocks skipped by block-max early termination across
    /// shards (never read, so not in `blocks_read`).  `#[serde(default)]`
    /// keeps responses from servers predating the field decodable.
    #[serde(default)]
    pub blocks_skipped: u64,
    /// Random read I/Os attributable to this query.
    pub read_ios: u64,
    /// Cache hits attributable to this query.
    pub cache_hits: u64,
    /// Cache misses attributable to this query.
    pub cache_misses: u64,
    /// Summed snapshot watermarks of the consulted shards.
    pub visible_docs: u64,
    /// AND of the consulted shards' trust verdicts.
    pub trusted: bool,
    /// Total quarantined torn-commit residue across consulted shards.
    pub quarantined_bytes: u64,
    /// Per-shard breakdown, indexed by shard id.
    pub shards: Vec<WireShardStatus>,
    /// SHA-256 digest (lowercase hex) binding the snapshot this
    /// response was computed over: the summed watermark plus every
    /// shard's `(id, consulted, visible_docs, chain_head)` tuple.
    /// Clients recompute it with
    /// [`verify_digest`](WireQueryResponse::verify_digest); comparing
    /// the bound shard heads against heads held out-of-band then proves
    /// the response came from the untampered archive prefix.  Empty
    /// from servers predating the field.
    #[serde(default)]
    pub response_digest: String,
}

/// Domain-separation tag for the response digest.
const RESPONSE_DIGEST_TAG: &[u8] = b"tks-response-digest-v1";

/// The digest a [`WireQueryResponse`] with these trust fields carries.
fn response_digest(visible_docs: u64, shards: &[WireShardStatus]) -> String {
    let mut h = Sha256::new();
    h.update(RESPONSE_DIGEST_TAG);
    h.update(&visible_docs.to_le_bytes());
    for s in shards {
        h.update(&s.shard.to_le_bytes());
        h.update(&[s.consulted as u8]);
        h.update(&s.visible_docs.to_le_bytes());
        h.update(&(s.chain_head.len() as u64).to_le_bytes());
        h.update(s.chain_head.as_bytes());
    }
    ChainHead(h.finalize()).to_hex()
}

impl WireQueryResponse {
    /// Recompute the digest over this response's trust fields.
    pub fn compute_digest(&self) -> String {
        response_digest(self.visible_docs, &self.shards)
    }

    /// Verify the carried digest binds this response's watermark and
    /// per-shard chain heads.  A mismatch means the trust fields were
    /// altered in flight (or the digest was forged for different ones).
    pub fn verify_digest(&self) -> Result<(), WireError> {
        let expected = self.compute_digest();
        if self.response_digest != expected {
            return Err(WireError::new(
                WireErrorCode::DigestMismatch,
                format!(
                    "response digest {} does not match recomputed {expected}",
                    if self.response_digest.is_empty() {
                        "(absent)"
                    } else {
                        &self.response_digest
                    }
                ),
            ));
        }
        Ok(())
    }

    /// Verify the digest *and* compare one shard's bound chain head
    /// against a head obtained out-of-band (printed at archival time,
    /// escrowed with the investigator, …).  Success proves the shard's
    /// slice of this response was computed over the prefix that head
    /// commits to.
    pub fn verify_shard_head(&self, shard: u32, expected: &ChainHead) -> Result<(), WireError> {
        self.verify_digest()?;
        let status = self
            .shards
            .iter()
            .find(|s| s.shard == shard)
            .ok_or_else(|| {
                WireError::new(
                    WireErrorCode::DigestMismatch,
                    format!("response names no shard {shard}"),
                )
                .with_shard(shard)
            })?;
        let head = status.parsed_chain_head()?;
        if head != *expected {
            return Err(WireError::new(
                WireErrorCode::DigestMismatch,
                format!("shard {shard} chain head {head} does not match expected {expected}"),
            )
            .with_shard(shard));
        }
        Ok(())
    }
}

impl From<&ShardedResponse> for WireQueryResponse {
    fn from(r: &ShardedResponse) -> WireQueryResponse {
        let shards: Vec<WireShardStatus> = r.shards.iter().map(WireShardStatus::from).collect();
        let response_digest = response_digest(r.visible_docs, &shards);
        WireQueryResponse {
            hits: r
                .hits
                .iter()
                .map(|h| WireHit {
                    doc: h.doc.0,
                    score: h.score,
                })
                .collect(),
            blocks_read: r.blocks_read,
            blocks_skipped: r.blocks_skipped,
            read_ios: r.io.read_ios,
            cache_hits: r.io.hits,
            cache_misses: r.io.misses,
            visible_docs: r.visible_docs,
            trusted: r.trusted,
            quarantined_bytes: r.quarantined_bytes,
            shards,
            response_digest,
        }
    }
}

impl From<&ShardStatus> for WireShardStatus {
    fn from(s: &ShardStatus) -> WireShardStatus {
        WireShardStatus {
            shard: s.shard,
            consulted: s.consulted,
            visible_docs: s.visible_docs,
            trusted: s.trusted,
            quarantined_bytes: s.quarantined_bytes,
            chain_head: s.chain_head.to_hex(),
            degraded: s.degraded.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// The typed wire error taxonomy
// ---------------------------------------------------------------------------

/// Machine-checkable failure classes.  Clients branch on the code, not
/// the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WireErrorCode {
    /// The bounded in-flight queue is full; retry with backoff.
    Overloaded,
    /// The query did not complete inside its deadline.
    DeadlineExceeded,
    /// A required shard is degraded.
    Degraded,
    /// Every shard of the archive is degraded.
    NoHealthyShards,
    /// A per-shard engine operation failed.
    Engine,
    /// The request payload was not a valid envelope.
    Malformed,
    /// The frame's length prefix exceeded the receiver's limit.
    FrameTooLarge,
    /// The frame's protocol version byte is not supported.
    UnsupportedVersion,
    /// The server is draining and accepts no new queries.
    ShuttingDown,
    /// A response's trust digest or chain head failed client-side
    /// verification (raised locally by the verifying client, never sent
    /// by a server).
    DigestMismatch,
    /// An internal invariant failed (a bug, not bad input).
    Internal,
}

/// A typed error value, transportable on the wire.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireError {
    /// The failure class.
    pub code: WireErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// The shard at fault, when the failure is shard-scoped.
    pub shard: Option<u32>,
}

impl WireError {
    /// A new error with no shard attribution.
    pub fn new(code: WireErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            shard: None,
        }
    }

    /// Attribute the error to one shard.
    pub fn with_shard(mut self, shard: u32) -> WireError {
        self.shard = Some(shard);
        self
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)?;
        if let Some(shard) = self.shard {
            write!(f, " (shard {shard})")?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

impl From<&ShardError> for WireError {
    fn from(e: &ShardError) -> WireError {
        match e {
            ShardError::Degraded { shard, .. } => {
                WireError::new(WireErrorCode::Degraded, e.to_string()).with_shard(*shard)
            }
            ShardError::Engine { shard, .. } => {
                WireError::new(WireErrorCode::Engine, e.to_string()).with_shard(*shard)
            }
            ShardError::NoHealthyShards => {
                WireError::new(WireErrorCode::NoHealthyShards, e.to_string())
            }
            ShardError::Config(_) | ShardError::UnknownShard { .. } | ShardError::Internal(_) => {
                WireError::new(WireErrorCode::Internal, e.to_string())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Transport-level failures of the frame codec.
///
/// The first three variants describe *where* the stream ended so the
/// server can tell a clean goodbye ([`Closed`](Self::Closed)) from an
/// idle poll tick ([`IdleTimeout`](Self::IdleTimeout)) from a peer that
/// vanished mid-frame ([`Truncated`](Self::Truncated)).
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary: the peer closed the connection.
    Closed,
    /// The read timed out before any byte of a new frame arrived (only
    /// on sockets with a read timeout; used as a shutdown poll tick).
    IdleTimeout,
    /// The peer disconnected or stalled in the middle of a frame.
    Truncated,
    /// The length prefix exceeds the receiver's frame limit.  Raised
    /// **before** any allocation: the declared length never reserves
    /// memory.
    TooLarge {
        /// The declared payload length.
        len: u64,
        /// The receiver's limit.
        max: usize,
    },
    /// The frame carried an unsupported protocol version byte.  The
    /// frame was consumed, so the stream remains usable.
    UnsupportedVersion(u8),
    /// The payload was not a valid envelope (bad UTF-8, bad JSON, or an
    /// unknown shape).  The frame was consumed, so the stream remains
    /// usable.
    Malformed(String),
    /// Any other I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed at a frame boundary"),
            FrameError::IdleTimeout => write!(f, "read timed out waiting for a frame"),
            FrameError::Truncated => write!(f, "connection ended mid-frame"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::Malformed(msg) => write!(f, "malformed frame payload: {msg}"),
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

fn is_timeout(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one frame's payload (version byte stripped, length validated
/// against `max` before allocating).
fn read_payload(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    // The first header byte is read separately so a clean EOF or an
    // idle-poll timeout at a frame boundary is distinguishable from a
    // peer that vanished mid-frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(e.kind()) => return Err(FrameError::IdleTimeout),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let mut rest = [0u8; 3];
    read_exact_mid_frame(r, &mut rest)?;
    let [f0] = first;
    let [r0, r1, r2] = rest;
    let len = u32::from_le_bytes([f0, r0, r1, r2]) as u64;
    if len > max as u64 {
        // Reject by the declared length alone; never allocate for it.
        return Err(FrameError::TooLarge { len, max });
    }
    if len < 2 {
        return Err(FrameError::Malformed(format!(
            "frame too short ({len} bytes; need version byte + payload)"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_mid_frame(r, &mut payload)?;
    Ok(payload)
}

/// `read_exact` with mid-frame error classification: EOF and timeouts
/// both mean the peer abandoned a frame in progress.
fn read_exact_mid_frame(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof || is_timeout(e.kind()) => {
            Err(FrameError::Truncated)
        }
        Err(e) => Err(FrameError::Io(e)),
    }
}

fn decode_payload<T: serde::Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let Some((&version, json)) = payload.split_first() else {
        return Err(FrameError::Malformed("empty frame payload".to_string()));
    };
    if version != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let text = std::str::from_utf8(json)
        .map_err(|e| FrameError::Malformed(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| FrameError::Malformed(e.to_string()))
}

fn encode_frame<T: serde::Serialize>(msg: &T) -> Result<Vec<u8>, FrameError> {
    let json = serde_json::to_string(msg).map_err(|e| FrameError::Malformed(e.to_string()))?;
    let len = json
        .len()
        .checked_add(1)
        .filter(|l| *l <= u32::MAX as usize)
        .ok_or(FrameError::TooLarge {
            len: json.len() as u64,
            max: u32::MAX as usize,
        })?;
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(PROTOCOL_VERSION);
    frame.extend_from_slice(json.as_bytes());
    Ok(frame)
}

fn write_frame<T: serde::Serialize>(w: &mut impl Write, msg: &T) -> Result<(), FrameError> {
    let frame = encode_frame(msg)?;
    w.write_all(&frame).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

/// Write one [`WireRequest`] as a v1 frame.
pub fn write_request(w: &mut impl Write, req: &WireRequest) -> Result<(), FrameError> {
    write_frame(w, req)
}

/// Write one [`WireResponse`] as a v1 frame.
pub fn write_response(w: &mut impl Write, resp: &WireResponse) -> Result<(), FrameError> {
    write_frame(w, resp)
}

/// Read one [`WireRequest`] frame, enforcing `max_frame_bytes`.
pub fn read_request(r: &mut impl Read, max_frame_bytes: usize) -> Result<WireRequest, FrameError> {
    decode_payload(&read_payload(r, max_frame_bytes)?)
}

/// Read one [`WireResponse`] frame, enforcing `max_frame_bytes`.
pub fn read_response(
    r: &mut impl Read,
    max_frame_bytes: usize,
) -> Result<WireResponse, FrameError> {
    decode_payload(&read_payload(r, max_frame_bytes)?)
}

/// The suggested poll interval for servers multiplexing reads with a
/// shutdown flag (exposed so tests and the CLI agree with the server).
pub const IDLE_POLL: Duration = Duration::from_millis(100);

/// How long a server lets a response write make no progress before it
/// gives the connection up: a peer that pipelines requests and never
/// reads must not hold its connection thread, and with it a graceful
/// drain, forever.
pub const WRITE_STALL: Duration = Duration::from_secs(2);

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_of(req: &WireRequest) -> Vec<u8> {
        let mut out = Vec::new();
        write_request(&mut out, req).expect("encode");
        out
    }

    /// The canonical v1 query request, byte for byte.  If this test
    /// breaks, the wire protocol changed: bump [`PROTOCOL_VERSION`] and
    /// document the migration — do not update the pinned bytes casually.
    #[test]
    fn v1_query_request_bytes_are_pinned() {
        let req = WireRequest::Query {
            query: WireQuery::Disjunctive {
                terms: WireTerms::Text("alpha beta".to_string()),
                top_k: 10,
            },
            deadline_ms: Some(250),
        };
        let json = r#"{"Query":{"query":{"Disjunctive":{"terms":{"Text":"alpha beta"},"top_k":10}},"deadline_ms":250}}"#;
        let mut expect = Vec::new();
        expect.extend_from_slice(&(1 + json.len() as u32).to_le_bytes());
        expect.push(1u8); // PROTOCOL_VERSION
        expect.extend_from_slice(json.as_bytes());
        assert_eq!(frame_of(&req), expect, "v1 frame bytes moved");

        // And the same bytes decode back to the same request.
        let mut cur = Cursor::new(expect);
        let back = read_request(&mut cur, DEFAULT_MAX_FRAME_BYTES).expect("decode");
        assert_eq!(back, req);
    }

    #[test]
    fn v1_error_response_bytes_are_pinned() {
        let resp = WireResponse::Error(
            WireError::new(WireErrorCode::DeadlineExceeded, "too slow").with_shard(3),
        );
        let json = r#"{"Error":{"code":"DeadlineExceeded","message":"too slow","shard":3}}"#;
        let mut expect = Vec::new();
        expect.extend_from_slice(&(1 + json.len() as u32).to_le_bytes());
        expect.push(1u8);
        expect.extend_from_slice(json.as_bytes());
        let mut got = Vec::new();
        write_response(&mut got, &resp).expect("encode");
        assert_eq!(got, expect, "v1 frame bytes moved");
        let mut cur = Cursor::new(expect);
        let back = read_response(&mut cur, DEFAULT_MAX_FRAME_BYTES).expect("decode");
        assert_eq!(back, resp);
    }

    #[test]
    fn every_request_shape_round_trips() {
        let reqs = vec![
            WireRequest::Ping,
            WireRequest::Status,
            WireRequest::Refresh,
            WireRequest::Query {
                query: WireQuery::Conjunctive {
                    terms: WireTerms::Ids(vec![1, 7]),
                    from: Some(100),
                    to: None,
                },
                deadline_ms: None,
            },
            WireRequest::Query {
                query: WireQuery::Phrase {
                    text: "exact words".to_string(),
                },
                deadline_ms: Some(5),
            },
            WireRequest::Query {
                query: WireQuery::TimeRange { from: 3, to: 9 },
                deadline_ms: None,
            },
        ];
        for req in reqs {
            let bytes = frame_of(&req);
            let mut cur = Cursor::new(bytes);
            let back = read_request(&mut cur, DEFAULT_MAX_FRAME_BYTES).expect("decode");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn every_response_shape_round_trips() {
        let resps = vec![
            WireResponse::Pong,
            WireResponse::Refreshed {
                watermarks: vec![4, 0, 9],
            },
            WireResponse::Status(WireStatus {
                protocol_version: PROTOCOL_VERSION,
                shards: 3,
                visible_docs: 13,
                watermarks: vec![4, 0, 9],
                degraded: vec![WireDegraded {
                    shard: 1,
                    reason: "torn tail".to_string(),
                }],
            }),
            WireResponse::Query(WireQueryResponse {
                hits: vec![WireHit {
                    doc: (1u64 << 48) | 5,
                    score: 0.5,
                }],
                blocks_read: 7,
                blocks_skipped: 3,
                read_ios: 2,
                cache_hits: 5,
                cache_misses: 2,
                visible_docs: 13,
                trusted: true,
                quarantined_bytes: 0,
                shards: vec![WireShardStatus {
                    shard: 0,
                    consulted: true,
                    visible_docs: 13,
                    trusted: true,
                    quarantined_bytes: 0,
                    chain_head: ChainHead::genesis().to_hex(),
                    degraded: None,
                }],
                response_digest: "ab".repeat(32),
            }),
            WireResponse::Error(WireError::new(WireErrorCode::Overloaded, "queue full")),
        ];
        for resp in resps {
            let mut bytes = Vec::new();
            write_response(&mut bytes, &resp).expect("encode");
            let mut cur = Cursor::new(bytes);
            let back = read_response(&mut cur, DEFAULT_MAX_FRAME_BYTES).expect("decode");
            assert_eq!(back, resp);
        }
    }

    /// A response whose trust fields are intact verifies; altering any
    /// bound field — watermark, a shard head, a shard's visibility —
    /// breaks the digest.
    #[test]
    fn response_digest_binds_watermark_and_shard_heads() {
        let mut resp = WireQueryResponse {
            hits: vec![],
            blocks_read: 0,
            blocks_skipped: 0,
            read_ios: 0,
            cache_hits: 0,
            cache_misses: 0,
            visible_docs: 13,
            trusted: true,
            quarantined_bytes: 0,
            shards: vec![
                WireShardStatus {
                    shard: 0,
                    consulted: true,
                    visible_docs: 7,
                    trusted: true,
                    quarantined_bytes: 0,
                    chain_head: "11".repeat(32),
                    degraded: None,
                },
                WireShardStatus {
                    shard: 1,
                    consulted: false,
                    visible_docs: 6,
                    trusted: true,
                    quarantined_bytes: 0,
                    chain_head: ChainHead::genesis().to_hex(),
                    degraded: Some("draining".to_string()),
                },
            ],
            response_digest: String::new(),
        };
        resp.response_digest = resp.compute_digest();
        resp.verify_digest().expect("intact response verifies");

        let mut tampered = resp.clone();
        tampered.visible_docs = 14;
        assert!(tampered.verify_digest().is_err(), "watermark is bound");

        let mut tampered = resp.clone();
        tampered.shards[0].chain_head = "22".repeat(32);
        assert!(tampered.verify_digest().is_err(), "shard head is bound");

        let mut tampered = resp.clone();
        tampered.shards[0].visible_docs = 8;
        assert!(
            tampered.verify_digest().is_err(),
            "shard visibility is bound"
        );

        let mut tampered = resp.clone();
        tampered.shards[1].consulted = true;
        assert!(
            tampered.verify_digest().is_err(),
            "consultation flag is bound"
        );

        let mut absent = resp.clone();
        absent.response_digest = String::new();
        let err = absent.verify_digest().expect_err("absent digest rejected");
        assert_eq!(err.code, WireErrorCode::DigestMismatch);
    }

    /// End-to-end head check: a verifier holding a shard's chain head
    /// out-of-band accepts a matching response and rejects a forged one.
    #[test]
    fn out_of_band_head_comparison_accepts_and_rejects() {
        let head = ChainHead::genesis();
        let mut resp = WireQueryResponse {
            hits: vec![],
            blocks_read: 0,
            blocks_skipped: 0,
            read_ios: 0,
            cache_hits: 0,
            cache_misses: 0,
            visible_docs: 3,
            trusted: true,
            quarantined_bytes: 0,
            shards: vec![WireShardStatus {
                shard: 0,
                consulted: true,
                visible_docs: 3,
                trusted: true,
                quarantined_bytes: 0,
                chain_head: head.to_hex(),
                degraded: None,
            }],
            response_digest: String::new(),
        };
        resp.response_digest = resp.compute_digest();

        resp.verify_shard_head(0, &head).expect("matching head");

        let other = ChainHead(tks_worm::sha256(b"someone else's archive"));
        let err = resp
            .verify_shard_head(0, &other)
            .expect_err("foreign head rejected");
        assert_eq!(err.code, WireErrorCode::DigestMismatch);

        let err = resp
            .verify_shard_head(9, &head)
            .expect_err("unknown shard rejected");
        assert_eq!(err.code, WireErrorCode::DigestMismatch);
        assert_eq!(err.shard, Some(9));
    }

    /// Responses from servers predating the digest fields decode with
    /// empty defaults instead of failing the whole frame.
    #[test]
    fn pre_digest_responses_decode_with_empty_trust_fields() {
        let json = r#"{"Query":{"hits":[],"blocks_read":0,"read_ios":0,"cache_hits":0,"cache_misses":0,"visible_docs":2,"trusted":true,"quarantined_bytes":0,"shards":[{"shard":0,"consulted":true,"visible_docs":2,"trusted":true,"quarantined_bytes":0,"degraded":null}]}}"#;
        let mut frame = Vec::new();
        frame.extend_from_slice(&(1 + json.len() as u32).to_le_bytes());
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(json.as_bytes());
        let mut cur = Cursor::new(frame);
        let resp = read_response(&mut cur, DEFAULT_MAX_FRAME_BYTES).expect("decode");
        match resp {
            WireResponse::Query(q) => {
                assert!(q.response_digest.is_empty());
                assert!(q.shards[0].chain_head.is_empty());
                assert!(q.verify_digest().is_err(), "absent digest never verifies");
            }
            other => panic!("expected Query, got {other:?}"),
        }
    }

    /// Unknown map keys must be ignored: a v1 peer tolerates fields
    /// added by later revisions.
    #[test]
    fn unknown_fields_are_tolerated() {
        let json = r#"{"Query":{"query":{"Phrase":{"text":"hi","hl":true}},"deadline_ms":9,"priority":"high"}}"#;
        let mut frame = Vec::new();
        frame.extend_from_slice(&(1 + json.len() as u32).to_le_bytes());
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(json.as_bytes());
        let mut cur = Cursor::new(frame);
        let req = read_request(&mut cur, DEFAULT_MAX_FRAME_BYTES).expect("decode");
        assert_eq!(
            req,
            WireRequest::Query {
                query: WireQuery::Phrase {
                    text: "hi".to_string()
                },
                deadline_ms: Some(9),
            }
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(b"whatever");
        let mut cur = Cursor::new(frame);
        match read_request(&mut cur, 1024) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_byte_is_typed_and_consumes_the_frame() {
        let json = r#""Ping""#;
        let mut frame = Vec::new();
        frame.extend_from_slice(&(1 + json.len() as u32).to_le_bytes());
        frame.push(9); // a future protocol version
        frame.extend_from_slice(json.as_bytes());
        // A valid v1 Ping follows in the same stream.
        write_request(&mut frame, &WireRequest::Ping).expect("encode");
        let mut cur = Cursor::new(frame);
        match read_request(&mut cur, DEFAULT_MAX_FRAME_BYTES) {
            Err(FrameError::UnsupportedVersion(9)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // The stream is still in sync: the next frame parses.
        let next = read_request(&mut cur, DEFAULT_MAX_FRAME_BYTES).expect("decode");
        assert_eq!(next, WireRequest::Ping);
    }

    #[test]
    fn garbage_json_is_malformed_not_fatal() {
        let payload = b"not json at all {";
        let mut frame = Vec::new();
        frame.extend_from_slice(&(1 + payload.len() as u32).to_le_bytes());
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(payload);
        let mut cur = Cursor::new(frame);
        assert!(matches!(
            read_request(&mut cur, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_frame_reports_truncated() {
        let full = frame_of(&WireRequest::Status);
        let cut = full.len() / 2;
        let mut cur = Cursor::new(full.into_iter().take(cut).collect::<Vec<u8>>());
        assert!(matches!(
            read_request(&mut cur, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn eof_at_frame_boundary_is_closed() {
        let mut cur = Cursor::new(Vec::new());
        assert!(matches!(
            read_request(&mut cur, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn shard_errors_map_to_typed_codes() {
        let cases: Vec<(ShardError, WireErrorCode, Option<u32>)> = vec![
            (
                ShardError::Degraded {
                    shard: 2,
                    reason: "torn tail".to_string(),
                },
                WireErrorCode::Degraded,
                Some(2),
            ),
            (
                ShardError::NoHealthyShards,
                WireErrorCode::NoHealthyShards,
                None,
            ),
            (
                ShardError::Config("bad".to_string()),
                WireErrorCode::Internal,
                None,
            ),
        ];
        for (src, code, shard) in cases {
            let we = WireError::from(&src);
            assert_eq!(we.code, code);
            assert_eq!(we.shard, shard);
            assert!(!we.message.is_empty());
        }
    }

    #[test]
    fn wire_query_lowers_onto_the_engine_model() {
        let q = WireQuery::Conjunctive {
            terms: WireTerms::Text("alpha".to_string()),
            from: Some(5),
            to: None,
        }
        .to_query();
        match q {
            Query::Conjunctive { range: Some(r), .. } => {
                assert_eq!(r.from, Timestamp(5));
                assert_eq!(r.to, Timestamp(u64::MAX));
            }
            other => panic!("unexpected lowering: {other:?}"),
        }
        let both_open = WireQuery::Conjunctive {
            terms: WireTerms::Text("alpha".to_string()),
            from: None,
            to: None,
        }
        .to_query();
        assert!(matches!(both_open, Query::Conjunctive { range: None, .. }));
    }
}
