//! The WORM block device: software-enforced write-once semantics with the
//! append extension of Section 2.2 of the paper.
//!
//! Commercial compliance appliances (EMC Centera, IBM DR550, NetApp
//! SnapLock) are rewritable magnetic disks whose firmware/software refuses
//! modification of committed data.  The paper additionally assumes — based
//! on discussions with storage vendors — that the interface is extended to
//! allow *appending* new bytes to partially-written blocks and files, which
//! is what makes real-time inverted-index maintenance feasible.
//!
//! [`WormDevice`] models exactly that contract:
//!
//! * blocks are allocated with [`WormDevice::alloc_block`] and have a fixed
//!   capacity ([`WormDevice::block_size`]);
//! * [`WormDevice::append`] adds bytes after the committed tail of a block —
//!   this is the *only* mutation the device accepts;
//! * [`WormDevice::try_overwrite`] models an adversarial attempt to rewrite
//!   committed bytes: it always fails and is recorded in the tamper log;
//! * reads never fail for committed ranges and never change state.
//!
//! The adversary Mala may freely call `alloc_block` and `append` — write
//! access control is explicitly *not* part of the trust base (she can act as
//! superuser).  Trustworthiness of the structures built above this device
//! therefore may rely **only** on the immutability of committed bytes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a block on a [`WormDevice`].
///
/// Blocks are numbered densely in allocation order, which the experiment
/// harnesses exploit to model disk layout (consecutive IDs ≈ consecutive
/// LBAs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

/// Why an operation on the WORM device was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WormError {
    /// The block ID does not exist on this device.
    NoSuchBlock(BlockId),
    /// An append would exceed the fixed block capacity.
    BlockFull {
        /// Target block.
        block: BlockId,
        /// Bytes already committed in the block.
        committed: usize,
        /// Bytes the caller attempted to append.
        requested: usize,
        /// Fixed capacity of every block on the device.
        capacity: usize,
    },
    /// A read touched bytes beyond the committed tail of the block.
    ReadBeyondCommitted {
        /// Target block.
        block: BlockId,
        /// Requested end offset.
        end: usize,
        /// Bytes committed in the block.
        committed: usize,
    },
    /// An attempt was made to modify committed bytes.  The device refuses
    /// and logs a [`TamperAttempt`]; see [`WormDevice::tamper_log`].
    OverwriteRejected {
        /// Target block.
        block: BlockId,
        /// Offset of the first committed byte the caller tried to change.
        offset: usize,
    },
    /// The named file does not exist (file-system layer).
    NoSuchFile(String),
    /// A file with this name already exists (file-system layer).
    FileExists(String),
    /// Premature deletion refused: the retention period has not expired.
    RetentionNotExpired {
        /// File name.
        name: String,
        /// Earliest time at which deletion becomes legal.
        expires_at: u64,
        /// The (logical) time of the deletion attempt.
        now: u64,
    },
    /// A read touched a byte range beyond the end of a file.
    ReadPastEof {
        /// File name.
        name: String,
        /// Requested end offset.
        end: u64,
        /// Committed length of the file.
        len: u64,
    },
    /// A sharded directory layout defect (duplicate or missing shard
    /// directory, unreadable archive root); see
    /// [`LayoutError`](crate::LayoutError).
    Layout(crate::LayoutError),
    /// A replicated append arrived at the wrong offset: the replica's
    /// committed length does not match where the primary committed these
    /// bytes, i.e. the replica missed, duplicated, or reordered part of
    /// the append stream (see [`WormFs::replay`](crate::WormFs::replay)).
    ReplayMismatch {
        /// File name.
        name: String,
        /// Offset the entry was committed at on the primary.
        expected: u64,
        /// Committed length of the file on this replica.
        actual: u64,
    },
    /// An armed [`FaultPolicy`](crate::FaultPolicy) killed this append
    /// (crash/fault simulation).  The first `committed` bytes of the
    /// append are durably on the device — a torn write — and the rest
    /// are lost.  This is an availability fault, never tampering.
    InjectedFault {
        /// The block targeted by the failed append.
        block: BlockId,
        /// Bytes of the failed append that still committed (torn prefix).
        committed: usize,
        /// Bytes the caller attempted to append.
        requested: usize,
    },
}

impl fmt::Display for WormError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WormError::NoSuchBlock(b) => write!(f, "no such block: {b}"),
            WormError::BlockFull { block, committed, requested, capacity } => write!(
                f,
                "append of {requested} B to {block} would exceed capacity ({committed}/{capacity} B committed)"
            ),
            WormError::ReadBeyondCommitted { block, end, committed } => write!(
                f,
                "read to offset {end} of {block} exceeds committed length {committed}"
            ),
            WormError::OverwriteRejected { block, offset } => write!(
                f,
                "WORM violation: overwrite of committed byte {offset} in {block} rejected"
            ),
            WormError::NoSuchFile(n) => write!(f, "no such file: {n}"),
            WormError::FileExists(n) => write!(f, "file already exists: {n}"),
            WormError::RetentionNotExpired { name, expires_at, now } => write!(
                f,
                "deletion of '{name}' at t={now} rejected: retention expires at t={expires_at}"
            ),
            WormError::ReadPastEof { name, end, len } => {
                write!(f, "read to offset {end} of '{name}' exceeds length {len}")
            }
            WormError::Layout(e) => write!(f, "archive layout: {e}"),
            WormError::ReplayMismatch { name, expected, actual } => write!(
                f,
                "replay of '{name}' at offset {expected} refused: replica committed length is {actual}"
            ),
            WormError::InjectedFault {
                block,
                committed,
                requested,
            } => write!(
                f,
                "injected fault: append of {requested} B to {block} failed after {committed} B"
            ),
        }
    }
}

impl std::error::Error for WormError {}

/// The kind of rejected operation recorded in the tamper log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TamperKind {
    /// Attempt to overwrite committed bytes in a block.
    Overwrite,
    /// Attempt to delete a file before its retention period expired.
    EarlyDelete,
}

/// A record of a rejected mutation.
///
/// In the paper's model, Bob's audits treat any entry here as evidence of a
/// cover-up attempt ("violations … should trigger a report of attempted
/// malicious activity").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TamperAttempt {
    /// What was attempted.
    pub kind: TamperKind,
    /// The block involved, when the attempt targeted a block.
    pub block: Option<BlockId>,
    /// The file involved, when the attempt targeted a file.
    pub file: Option<String>,
    /// Human-readable detail for the audit report.
    pub detail: String,
}

#[derive(Debug, Default, Clone)]
struct Block {
    /// Committed bytes; `data.len()` is the committed length.
    data: Vec<u8>,
}

/// An in-memory model of a WORM block device with the append extension.
///
/// See the [module documentation](self) for the contract.  All methods are
/// infallible for well-formed callers; the `Err` paths model either
/// programming errors (out-of-range reads) or adversarial behaviour
/// (overwrites), the latter being additionally recorded in the tamper log.
///
/// # Example
///
/// ```
/// use tks_worm::{WormDevice, WormError};
///
/// let mut dev = WormDevice::new(4096);
/// let b = dev.alloc_block();
/// let off = dev.append(b, b"posting").unwrap();
/// assert_eq!(off, 0);
/// assert_eq!(dev.read(b, 0, 7).unwrap(), b"posting");
/// // Committed bytes are immutable, even for a superuser:
/// let err = dev.try_overwrite(b, 0, b"POSTING").unwrap_err();
/// assert!(matches!(err, WormError::OverwriteRejected { .. }));
/// assert_eq!(dev.tamper_log().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WormDevice {
    block_size: usize,
    blocks: Vec<Block>,
    tamper_log: Vec<TamperAttempt>,
    bytes_appended: u64,
    /// Armed fault-injection policy, if any (crash simulation).
    fault: Option<crate::fault::FaultPolicy>,
}

impl WormDevice {
    /// Create an empty device whose blocks all have `block_size` bytes of
    /// capacity.  The paper uses 4 KB in Section 3's motivating example and
    /// 8 KB everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            blocks: Vec::new(),
            tamper_log: Vec::new(),
            bytes_appended: 0,
            fault: None,
        }
    }

    /// Arm a fault-injection policy: every subsequent [`append`]
    /// (Self::append) consults it and may fail or tear (see
    /// [`FaultPolicy`](crate::FaultPolicy)).  Replaces any armed policy.
    pub fn arm_faults(&mut self, policy: crate::fault::FaultPolicy) {
        self.fault = Some(policy);
    }

    /// Disarm fault injection, returning the policy (so harnesses can
    /// inspect [`FaultPolicy::tripped`](crate::FaultPolicy::tripped)).
    pub fn disarm_faults(&mut self) -> Option<crate::fault::FaultPolicy> {
        self.fault.take()
    }

    /// Fixed capacity of every block, in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks allocated so far.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total bytes committed across all blocks.
    pub fn bytes_committed(&self) -> u64 {
        self.bytes_appended
    }

    /// Allocate a fresh, empty block and return its ID.
    ///
    /// Allocation itself performs no I/O in the paper's accounting — cost is
    /// charged when the block is written out of the storage cache.
    pub fn alloc_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u64);
        self.blocks.push(Block::default());
        id
    }

    /// Append `bytes` after the committed tail of `block`; returns the
    /// offset at which the bytes were committed.
    ///
    /// This is the device's *only* mutation.  Appends are permitted to
    /// anyone (including Mala), per the threat model.
    pub fn append(&mut self, block: BlockId, bytes: &[u8]) -> crate::Result<usize> {
        let cap = self.block_size;
        let committed = self.block_ref(block)?.data.len();
        if committed + bytes.len() > cap {
            return Err(WormError::BlockFull {
                block,
                committed,
                requested: bytes.len(),
                capacity: cap,
            });
        }
        // Fault injection sees only legal appends (a capacity error above
        // must never be masked by — or counted as — an injected fault).
        if let Some(policy) = self.fault.as_mut() {
            if let crate::fault::FaultAction::Tear { keep } =
                policy.on_append(self.bytes_appended, bytes.len())
            {
                let keep = keep.min(bytes.len());
                self.block_mut(block)?
                    .data
                    .extend_from_slice(&bytes[..keep]);
                self.bytes_appended += keep as u64;
                return Err(WormError::InjectedFault {
                    block,
                    committed: keep,
                    requested: bytes.len(),
                });
            }
        }
        self.block_mut(block)?.data.extend_from_slice(bytes);
        self.bytes_appended += bytes.len() as u64;
        Ok(committed)
    }

    /// Committed length of `block`, in bytes.
    pub fn committed_len(&self, block: BlockId) -> crate::Result<usize> {
        Ok(self.block_ref(block)?.data.len())
    }

    /// Remaining append capacity of `block`, in bytes.
    pub fn remaining(&self, block: BlockId) -> crate::Result<usize> {
        Ok(self.block_size - self.block_ref(block)?.data.len())
    }

    /// Read `len` committed bytes of `block` starting at `offset`.
    pub fn read(&self, block: BlockId, offset: usize, len: usize) -> crate::Result<&[u8]> {
        let blk = self.block_ref(block)?;
        let end = offset + len;
        if end > blk.data.len() {
            return Err(WormError::ReadBeyondCommitted {
                block,
                end,
                committed: blk.data.len(),
            });
        }
        Ok(&blk.data[offset..end])
    }

    /// Read all committed bytes of `block`.
    pub fn read_all(&self, block: BlockId) -> crate::Result<&[u8]> {
        let blk = self.block_ref(block)?;
        Ok(&blk.data)
    }

    /// Adversarial entry point: attempt to modify committed bytes.
    ///
    /// Always fails with [`WormError::OverwriteRejected`] (the hardware/
    /// firmware trust assumption of the paper: "the WORM device operates
    /// properly, i.e. it never overwrites data") and records a
    /// [`TamperAttempt`] for later audit.
    pub fn try_overwrite(
        &mut self,
        block: BlockId,
        offset: usize,
        bytes: &[u8],
    ) -> crate::Result<()> {
        // Validate the block exists first so the caller can distinguish a
        // bad ID from a genuine violation.
        self.block_ref(block)?;
        self.tamper_log.push(TamperAttempt {
            kind: TamperKind::Overwrite,
            block: Some(block),
            file: None,
            detail: format!(
                "overwrite of {} byte(s) at offset {offset} of {block} rejected",
                bytes.len()
            ),
        });
        Err(WormError::OverwriteRejected { block, offset })
    }

    /// The audit log of rejected mutations.
    pub fn tamper_log(&self) -> &[TamperAttempt] {
        &self.tamper_log
    }

    /// Record a tamper attempt detected by a higher layer (e.g. the
    /// file-system layer refusing an early delete, or an index structure
    /// detecting a monotonicity violation).
    pub fn report_tamper(&mut self, attempt: TamperAttempt) {
        self.tamper_log.push(attempt);
    }

    fn block_ref(&self, block: BlockId) -> crate::Result<&Block> {
        self.blocks
            .get(block.0 as usize)
            .ok_or(WormError::NoSuchBlock(block))
    }

    fn block_mut(&mut self, block: BlockId) -> crate::Result<&mut Block> {
        self.blocks
            .get_mut(block.0 as usize)
            .ok_or(WormError::NoSuchBlock(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_dense_and_ordered() {
        let mut dev = WormDevice::new(64);
        let a = dev.alloc_block();
        let b = dev.alloc_block();
        assert_eq!(a, BlockId(0));
        assert_eq!(b, BlockId(1));
        assert_eq!(dev.num_blocks(), 2);
    }

    #[test]
    fn append_returns_offsets_and_reads_back() {
        let mut dev = WormDevice::new(64);
        let b = dev.alloc_block();
        assert_eq!(dev.append(b, b"abc").unwrap(), 0);
        assert_eq!(dev.append(b, b"defg").unwrap(), 3);
        assert_eq!(dev.read(b, 0, 7).unwrap(), b"abcdefg");
        assert_eq!(dev.read(b, 3, 4).unwrap(), b"defg");
        assert_eq!(dev.committed_len(b).unwrap(), 7);
        assert_eq!(dev.remaining(b).unwrap(), 57);
        assert_eq!(dev.bytes_committed(), 7);
    }

    #[test]
    fn append_rejected_when_block_full() {
        let mut dev = WormDevice::new(4);
        let b = dev.alloc_block();
        dev.append(b, b"abcd").unwrap();
        let err = dev.append(b, b"e").unwrap_err();
        assert!(matches!(
            err,
            WormError::BlockFull {
                committed: 4,
                requested: 1,
                ..
            }
        ));
        // The failed append must not have changed state.
        assert_eq!(dev.read_all(b).unwrap(), b"abcd");
    }

    #[test]
    fn append_exactly_filling_succeeds() {
        let mut dev = WormDevice::new(4);
        let b = dev.alloc_block();
        dev.append(b, b"ab").unwrap();
        assert_eq!(dev.append(b, b"cd").unwrap(), 2);
        assert_eq!(dev.remaining(b).unwrap(), 0);
    }

    #[test]
    fn read_beyond_committed_rejected() {
        let mut dev = WormDevice::new(64);
        let b = dev.alloc_block();
        dev.append(b, b"abc").unwrap();
        let err = dev.read(b, 1, 3).unwrap_err();
        assert!(matches!(
            err,
            WormError::ReadBeyondCommitted {
                end: 4,
                committed: 3,
                ..
            }
        ));
    }

    #[test]
    fn unknown_block_is_error() {
        let dev = WormDevice::new(64);
        assert!(matches!(
            dev.read(BlockId(9), 0, 0),
            Err(WormError::NoSuchBlock(BlockId(9)))
        ));
    }

    #[test]
    fn overwrite_always_rejected_and_logged() {
        let mut dev = WormDevice::new(64);
        let b = dev.alloc_block();
        dev.append(b, b"record").unwrap();
        for i in 0..3 {
            let err = dev.try_overwrite(b, i, b"x").unwrap_err();
            assert!(matches!(err, WormError::OverwriteRejected { .. }));
        }
        assert_eq!(dev.tamper_log().len(), 3);
        assert!(dev
            .tamper_log()
            .iter()
            .all(|t| t.kind == TamperKind::Overwrite));
        // Data unchanged.
        assert_eq!(dev.read_all(b).unwrap(), b"record");
    }

    #[test]
    fn overwrite_on_missing_block_is_not_logged() {
        let mut dev = WormDevice::new(64);
        let err = dev.try_overwrite(BlockId(3), 0, b"x").unwrap_err();
        assert!(matches!(err, WormError::NoSuchBlock(_)));
        assert!(dev.tamper_log().is_empty());
    }

    #[test]
    fn errors_display() {
        let e = WormError::OverwriteRejected {
            block: BlockId(1),
            offset: 7,
        };
        assert!(e.to_string().contains("WORM violation"));
        let e = WormError::NoSuchFile("x".into());
        assert!(e.to_string().contains("no such file"));
    }
}
