//! The replication log: sequenced entries describing one primary WORM
//! mutation each.
//!
//! An entry is exactly what the [`AppendTap`](tks_worm::AppendTap)
//! observed — one successful create/append/delete on one file of one of
//! the primary's devices — plus a global sequence number assigned in
//! commit order.  Replaying the entries in sequence against an empty
//! image reconstructs the primary byte for byte; the commit chain
//! embedded in the `engine/chain` stream lets the replica *prove* that,
//! commit point by commit point (see [`apply`](crate::apply)).

use std::fmt;

/// Which of the primary engine's WORM devices a stream belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// The posting-list store device.
    Store,
    /// The document device (record text, term dictionary, doc metadata,
    /// commit chain).
    Doc,
    /// The positional sidecar device (positional engines only).
    Pos,
}

impl fmt::Display for FsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsKind::Store => "store",
            FsKind::Doc => "doc",
            FsKind::Pos => "pos",
        })
    }
}

/// One replicated stream: a file on one of the primary's devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// The device the file lives on.
    pub kind: FsKind,
    /// The file's name on that device.
    pub file: String,
}

impl fmt::Display for Stream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind, self.file)
    }
}

/// The mutation an entry replicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplOp {
    /// The file was created, retained until the given logical time.
    Create {
        /// Logical time after which deletion of the file becomes legal.
        retention_expires_at: u64,
    },
    /// Bytes were appended at `offset` (the file's committed length on
    /// the primary before the append).  The replica replays them at the
    /// same offset and refuses anything else — see
    /// [`WormFs::replay`](tks_worm::WormFs::replay).
    Append {
        /// Offset the bytes were committed at on the primary.
        offset: u64,
    },
    /// The file was legally deleted at logical time `now`.
    Delete {
        /// The logical deletion time (at or past retention expiry).
        now: u64,
    },
}

/// One sequenced entry of the replication log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplEntry {
    /// Position in the global replication log (dense, starting at the
    /// sequence the replica was aligned to when it attached).
    pub seq: u64,
    /// The stream (device + file) the mutation targets.
    pub stream: Stream,
    /// What happened.
    pub op: ReplOp,
    /// The appended bytes (empty for creates and deletes).
    pub bytes: Vec<u8>,
}
