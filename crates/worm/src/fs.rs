//! Append-only file layer over the WORM block device.
//!
//! Commercial WORM boxes expose "a file-system-like (or object) interface …
//! with file modification and premature deletion operations disallowed"
//! (paper §2.2).  [`WormFs`] provides that interface, extended — per the
//! paper's proposal — with the ability to *append* to committed files, which
//! is what posting lists require.
//!
//! Each file is a chain of device blocks.  Appends fill the tail block and
//! allocate a new one when it is exactly full, so a file of length `L` with
//! block size `S` occupies `ceil(L / S)` blocks (the tail possibly partial).
//! Files carry a retention period; deletion before expiry is refused and
//! logged as a tamper attempt.

use crate::device::{BlockId, TamperAttempt, TamperKind, WormDevice, WormError};
use crate::persist::PersistError;
use crate::tap::AppendTap;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to an open append-only file (an index into the fs file table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle(pub u32);

/// A file-table entry in serializable form (see
/// [`persist`](crate::persist)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedFile {
    /// File name.
    pub name: String,
    /// Backing blocks, in order.
    pub blocks: Vec<BlockId>,
    /// Committed length in bytes.
    pub len: u64,
    /// Logical time after which deletion is legal.
    pub retention_expires_at: u64,
    /// Whether the file was (legally) deleted.
    pub deleted: bool,
}

#[derive(Debug, Clone)]
struct FileMeta {
    name: String,
    blocks: Vec<BlockId>,
    len: u64,
    /// Logical time after which the file may be deleted; `u64::MAX` means
    /// "retain forever".
    retention_expires_at: u64,
    deleted: bool,
}

/// An append-only, retention-enforcing file system over a [`WormDevice`].
///
/// # Example
///
/// ```
/// use tks_worm::{WormDevice, WormFs};
///
/// let mut fs = WormFs::new(WormDevice::new(8));
/// let f = fs.create("postings/term-42", u64::MAX).unwrap();
/// fs.append(f, b"0123456789").unwrap(); // spans two 8-byte blocks
/// assert_eq!(fs.len(f), 10);
/// assert_eq!(fs.read(f, 6, 4).unwrap(), b"6789");
/// ```
#[derive(Debug)]
pub struct WormFs {
    device: WormDevice,
    files: Vec<FileMeta>,
    by_name: HashMap<String, FileHandle>,
    /// Runtime-only replication observer; never persisted (see
    /// [`tap`](crate::tap)).
    tap: TapSlot,
}

/// Holder for the optional [`AppendTap`], so `WormFs` keeps deriving
/// `Debug` without requiring it of tap implementations.
#[derive(Default)]
struct TapSlot(Option<Arc<dyn AppendTap>>);

impl std::fmt::Debug for TapSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "TapSlot(attached)"
        } else {
            "TapSlot(none)"
        })
    }
}

impl WormFs {
    /// Wrap a device in a fresh, empty file system.
    pub fn new(device: WormDevice) -> Self {
        Self {
            device,
            files: Vec::new(),
            by_name: HashMap::new(),
            tap: TapSlot(None),
        }
    }

    /// Attach a replication tap, replacing any previous one.
    ///
    /// The tap is notified after every subsequent successful mutation
    /// (see [`AppendTap`]); it observes, never vetoes.  Taps are
    /// runtime-only state: they survive neither
    /// [`export_file_table`](Self::export_file_table)/[`import`](Self::import)
    /// nor the image persistence built on them.
    pub fn set_tap(&mut self, tap: Arc<dyn AppendTap>) {
        self.tap = TapSlot(Some(tap));
    }

    /// Detach the replication tap, returning it if one was attached.
    pub fn clear_tap(&mut self) -> Option<Arc<dyn AppendTap>> {
        self.tap.0.take()
    }

    /// The underlying device (read-only access, e.g. for audits).
    pub fn device(&self) -> &WormDevice {
        &self.device
    }

    /// Mutable access to the underlying device.
    ///
    /// Exposed because the threat model explicitly grants the adversary raw
    /// device access (she can bypass the file-system layer entirely); tests
    /// and attack harnesses use this.
    pub fn device_mut(&mut self) -> &mut WormDevice {
        &mut self.device
    }

    /// Create an empty file retained until logical time
    /// `retention_expires_at` (use `u64::MAX` for indefinite retention).
    pub fn create(&mut self, name: &str, retention_expires_at: u64) -> crate::Result<FileHandle> {
        if self.by_name.contains_key(name) {
            return Err(WormError::FileExists(name.to_string()));
        }
        // Bounds: the persisted image stores the file count as a checked
        // u32 (`persist::u32_of`), so an in-memory table that outgrew u32
        // could never round-trip; creating the 2^32-th file would fail at
        // save time with a typed PersistError rather than truncate here.
        let handle = FileHandle(self.files.len() as u32);
        self.files.push(FileMeta {
            name: name.to_string(),
            blocks: Vec::new(),
            len: 0,
            retention_expires_at,
            deleted: false,
        });
        self.by_name.insert(name.to_string(), handle);
        if let Some(tap) = self.tap.0.as_ref() {
            tap.on_create(name, retention_expires_at);
        }
        Ok(handle)
    }

    /// Look up a file by name.
    pub fn open(&self, name: &str) -> crate::Result<FileHandle> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| WormError::NoSuchFile(name.to_string()))
    }

    /// Committed length of the file in bytes.
    pub fn len(&self, f: FileHandle) -> u64 {
        self.files[f.0 as usize].len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self, f: FileHandle) -> bool {
        self.len(f) == 0
    }

    /// The device blocks backing the file, in order.
    pub fn blocks(&self, f: FileHandle) -> &[BlockId] {
        &self.files[f.0 as usize].blocks
    }

    /// The block currently accepting appends, if any bytes were written.
    pub fn tail_block(&self, f: FileHandle) -> Option<BlockId> {
        self.files[f.0 as usize].blocks.last().copied()
    }

    /// Append bytes to the end of the file, allocating blocks as needed.
    ///
    /// Returns the file offset at which the bytes begin.  Per the WORM
    /// append extension, this is legal on committed files; it can never
    /// disturb previously committed bytes.
    pub fn append(&mut self, f: FileHandle, bytes: &[u8]) -> crate::Result<u64> {
        let start = self.files[f.0 as usize].len;
        let block_size = self.device.block_size();
        let mut bytes = bytes;
        let whole = bytes;
        while !bytes.is_empty() {
            let meta = &self.files[f.0 as usize];
            let tail = match meta.blocks.last() {
                Some(&b) if self.device.remaining(b)? > 0 => b,
                _ => {
                    let b = self.device.alloc_block();
                    self.files[f.0 as usize].blocks.push(b);
                    b
                }
            };
            let room = self.device.remaining(tail)?;
            debug_assert!(room > 0 && room <= block_size);
            let take = room.min(bytes.len());
            self.device.append(tail, &bytes[..take])?;
            self.files[f.0 as usize].len += take as u64;
            bytes = &bytes[take..];
        }
        // Post-commit notification: a fault above returned early, so the
        // tap only ever observes fully durable appends.
        if let (Some(tap), Some(meta)) = (self.tap.0.as_ref(), self.files.get(f.0 as usize)) {
            if !whole.is_empty() {
                tap.on_append(&meta.name, start, whole);
            }
        }
        Ok(start)
    }

    /// Apply one replicated append at its expected offset — the
    /// replay-apply half of the replication protocol (see
    /// [`tap`](crate::tap) and `tks-replica`).
    ///
    /// Verifies the file's committed length equals `at` before writing:
    /// a mismatch means this device missed, duplicated, or reordered
    /// part of the replicated append stream, and blindly appending
    /// would silently diverge from the primary.  Refused replays return
    /// the typed [`WormError::ReplayMismatch`] so the caller can
    /// quarantine the device instead.
    pub fn replay(&mut self, file: &str, at: u64, bytes: &[u8]) -> crate::Result<u64> {
        let f = self.open(file)?;
        let actual = self.len(f);
        if actual != at {
            return Err(WormError::ReplayMismatch {
                name: file.to_string(),
                expected: at,
                actual,
            });
        }
        self.append(f, bytes)
    }

    /// Read `len` bytes at `offset`, crossing block boundaries as needed.
    pub fn read(&self, f: FileHandle, offset: u64, len: usize) -> crate::Result<Vec<u8>> {
        let meta = &self.files[f.0 as usize];
        // Checked: an adversarial offset near `u64::MAX` must not wrap
        // past the EOF guard and reach the block indexing below.
        let end = match offset.checked_add(len as u64) {
            Some(end) if end <= meta.len => end,
            overflowed_or_past_eof => {
                return Err(WormError::ReadPastEof {
                    name: meta.name.clone(),
                    end: overflowed_or_past_eof.unwrap_or(u64::MAX),
                    len: meta.len,
                });
            }
        };
        let block_size = self.device.block_size() as u64;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while pos < end {
            let bi = (pos / block_size) as usize;
            let in_block = (pos % block_size) as usize;
            let take = ((end - pos) as usize).min(block_size as usize - in_block);
            out.extend_from_slice(self.device.read(meta.blocks[bi], in_block, take)?);
            pos += take as u64;
        }
        Ok(out)
    }

    /// Read exactly `buf.len()` bytes at `offset` into a caller-provided
    /// buffer, crossing block boundaries as needed.
    ///
    /// Same EOF contract as [`read`](Self::read), but without allocating a
    /// `Vec` per call — hot read paths reuse one buffer across many reads.
    pub fn read_exact_at(&self, f: FileHandle, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
        let meta = &self.files[f.0 as usize];
        // Same checked-overflow guard as `read`.
        let end = match offset.checked_add(buf.len() as u64) {
            Some(end) if end <= meta.len => end,
            overflowed_or_past_eof => {
                return Err(WormError::ReadPastEof {
                    name: meta.name.clone(),
                    end: overflowed_or_past_eof.unwrap_or(u64::MAX),
                    len: meta.len,
                });
            }
        };
        let block_size = self.device.block_size() as u64;
        let mut pos = offset;
        let mut filled = 0usize;
        while pos < end {
            let bi = (pos / block_size) as usize;
            let in_block = (pos % block_size) as usize;
            let take = ((end - pos) as usize).min(block_size as usize - in_block);
            let src = self.device.read(meta.blocks[bi], in_block, take)?;
            if let Some(dst) = buf.get_mut(filled..filled + take) {
                dst.copy_from_slice(src);
            }
            filled += take;
            pos += take as u64;
        }
        Ok(())
    }

    /// Borrow the committed bytes of the file's `block_no`-th block (0-based
    /// file-relative index) in a single call.
    ///
    /// The returned slice holds every committed byte of that block: a full
    /// `block_size` bytes for interior blocks, possibly fewer for the tail.
    /// This is the batch unit of the block-granular read path — one call,
    /// one logical block, no per-record allocation.
    pub fn read_block(&self, f: FileHandle, block_no: u64) -> crate::Result<&[u8]> {
        let meta = &self.files[f.0 as usize];
        let block_size = self.device.block_size() as u64;
        let start = block_no.saturating_mul(block_size);
        if start >= meta.len {
            return Err(WormError::ReadPastEof {
                name: meta.name.clone(),
                end: start.saturating_add(1),
                len: meta.len,
            });
        }
        let len = (meta.len - start).min(block_size) as usize;
        match meta.blocks.get(block_no as usize) {
            Some(&b) => self.device.read(b, 0, len),
            None => Err(WormError::ReadPastEof {
                name: meta.name.clone(),
                end: start.saturating_add(len as u64),
                len: meta.len,
            }),
        }
    }

    /// Number of device blocks the file's committed bytes occupy
    /// (`ceil(len / block_size)`).
    pub fn num_blocks(&self, f: FileHandle) -> u64 {
        self.len(f).div_ceil(self.device.block_size() as u64)
    }

    /// Attempt to delete the file at logical time `now`.
    ///
    /// Deletion succeeds only once the retention period has expired;
    /// premature attempts are refused and recorded in the device tamper log
    /// (this mirrors the appliance behaviour the paper assumes).
    pub fn delete(&mut self, f: FileHandle, now: u64) -> crate::Result<()> {
        let meta = &self.files[f.0 as usize];
        if now < meta.retention_expires_at {
            let name = meta.name.clone();
            let expires_at = meta.retention_expires_at;
            self.device.report_tamper(TamperAttempt {
                kind: TamperKind::EarlyDelete,
                block: None,
                file: Some(name.clone()),
                detail: format!("early delete of '{name}' at t={now} (expires t={expires_at})"),
            });
            return Err(WormError::RetentionNotExpired {
                name,
                expires_at,
                now,
            });
        }
        let name = self.files[f.0 as usize].name.clone();
        self.files[f.0 as usize].deleted = true;
        self.by_name.remove(&name);
        if let Some(tap) = self.tap.0.as_ref() {
            tap.on_delete(&name, now);
        }
        Ok(())
    }

    /// Whether the file has been (legally) deleted.
    pub fn is_deleted(&self, f: FileHandle) -> bool {
        self.files[f.0 as usize].deleted
    }

    /// Iterate over the names of all live files.
    pub fn file_names(&self) -> impl Iterator<Item = &str> {
        self.by_name.keys().map(|s| s.as_str())
    }

    /// Export the file table for serialization (see
    /// [`persist`](crate::persist)).
    pub fn export_file_table(&self) -> Vec<ExportedFile> {
        self.files
            .iter()
            .map(|f| ExportedFile {
                name: f.name.clone(),
                blocks: f.blocks.clone(),
                len: f.len,
                retention_expires_at: f.retention_expires_at,
                deleted: f.deleted,
            })
            .collect()
    }

    /// Rebuild a file system from a device and an exported file table,
    /// validating that every file's length is exactly the bytes committed
    /// in its blocks.  Returns a [`PersistError`] describing the first
    /// inconsistency.
    pub fn import(device: WormDevice, table: Vec<ExportedFile>) -> Result<Self, PersistError> {
        let block_size = device.block_size() as u64;
        let mut files = Vec::with_capacity(table.len());
        let mut by_name = HashMap::new();
        for (i, f) in table.into_iter().enumerate() {
            let committed: u64 = f
                .blocks
                .iter()
                .map(|&b| device.committed_len(b).map(|l| l as u64))
                .sum::<Result<u64, _>>()
                .map_err(|e| PersistError(format!("file '{}': {e}", f.name)))?;
            if committed != f.len {
                return Err(PersistError(format!(
                    "file '{}': length {} but {} bytes committed in its blocks",
                    f.name, f.len, committed
                )));
            }
            if f.len.div_ceil(block_size) != f.blocks.len() as u64 {
                return Err(PersistError(format!(
                    "file '{}': {} bytes cannot occupy {} blocks of {}",
                    f.name,
                    f.len,
                    f.blocks.len(),
                    block_size
                )));
            }
            // Bounds: `i` indexes the decoded file table, whose count the
            // image carries as a u32 (checked at save by `u32_of`), so it
            // always fits.
            if !f.deleted
                && by_name
                    .insert(f.name.clone(), FileHandle(i as u32))
                    .is_some()
            {
                return Err(PersistError(format!(
                    "duplicate live file name '{}'",
                    f.name
                )));
            }
            files.push(FileMeta {
                name: f.name,
                blocks: f.blocks,
                len: f.len,
                retention_expires_at: f.retention_expires_at,
                deleted: f.deleted,
            });
        }
        Ok(Self {
            device,
            files,
            by_name,
            tap: TapSlot(None),
        })
    }

    /// Number of live (non-deleted) files.
    pub fn num_files(&self) -> usize {
        self.by_name.len()
    }

    /// Arm a fault-injection policy on the underlying device (see
    /// [`WormDevice::arm_faults`]).
    pub fn arm_faults(&mut self, policy: crate::fault::FaultPolicy) {
        self.device.arm_faults(policy);
    }

    /// Disarm fault injection on the underlying device, returning the
    /// policy so the caller can inspect whether it fired.
    pub fn disarm_faults(&mut self) -> Option<crate::fault::FaultPolicy> {
        self.device.disarm_faults()
    }

    /// Remount after a (simulated) crash: trust only the device.
    ///
    /// A torn append commits a prefix of its bytes on the device while
    /// the in-flight file length was never advanced past the completed
    /// chunks — exactly what a restarted process sees when its in-memory
    /// state is gone.  This method re-derives every live file's length
    /// from the bytes actually committed in its blocks, and drops a
    /// trailing block that was allocated but never received a byte (an
    /// append that died between allocation and the first write).
    ///
    /// Returns the total number of torn-tail bytes surfaced (bytes on the
    /// device beyond the lengths the file table recorded).  Higher layers
    /// decide what part of that tail is a quarantinable torn record and
    /// what is evidence of tampering.
    pub fn crash_recover(&mut self) -> crate::Result<u64> {
        let mut surfaced = 0u64;
        for meta in &mut self.files {
            if let Some(&tail) = meta.blocks.last() {
                if self.device.committed_len(tail)? == 0 {
                    meta.blocks.pop();
                }
            }
            let committed: u64 = meta
                .blocks
                .iter()
                .map(|&b| self.device.committed_len(b).map(|l| l as u64))
                .sum::<crate::Result<u64>>()?;
            // Appends only ever grow a file, and the length is advanced
            // chunk-by-chunk behind the device commits, so the recorded
            // length can lag the device but never lead it.
            surfaced += committed.saturating_sub(meta.len);
            meta.len = committed;
        }
        Ok(surfaced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(block: usize) -> WormFs {
        WormFs::new(WormDevice::new(block))
    }

    #[test]
    fn create_open_roundtrip() {
        let mut fs = fs(16);
        let f = fs.create("a", u64::MAX).unwrap();
        assert_eq!(fs.open("a").unwrap(), f);
        assert!(matches!(fs.open("b"), Err(WormError::NoSuchFile(_))));
        assert!(matches!(fs.create("a", 0), Err(WormError::FileExists(_))));
    }

    #[test]
    fn append_spans_blocks() {
        let mut fs = fs(4);
        let f = fs.create("a", u64::MAX).unwrap();
        assert_eq!(fs.append(f, b"0123456789").unwrap(), 0);
        assert_eq!(fs.len(f), 10);
        assert_eq!(fs.blocks(f).len(), 3); // 4 + 4 + 2
        assert_eq!(fs.read(f, 0, 10).unwrap(), b"0123456789");
        // Reads crossing block boundaries:
        assert_eq!(fs.read(f, 3, 4).unwrap(), b"3456");
        // Further appends return increasing offsets:
        assert_eq!(fs.append(f, b"ab").unwrap(), 10);
        assert_eq!(fs.read(f, 8, 4).unwrap(), b"89ab");
    }

    #[test]
    fn append_fills_partial_tail_first() {
        let mut fs = fs(8);
        let f = fs.create("a", u64::MAX).unwrap();
        fs.append(f, b"abc").unwrap();
        fs.append(f, b"de").unwrap();
        assert_eq!(fs.blocks(f).len(), 1, "partial tail must be reused");
        fs.append(f, b"fghij").unwrap();
        assert_eq!(fs.blocks(f).len(), 2);
        assert_eq!(fs.read(f, 0, 10).unwrap(), b"abcdefghij");
    }

    #[test]
    fn read_past_eof_rejected() {
        let mut fs = fs(8);
        let f = fs.create("a", u64::MAX).unwrap();
        fs.append(f, b"abc").unwrap();
        assert!(matches!(
            fs.read(f, 2, 2),
            Err(WormError::ReadPastEof { .. })
        ));
        assert!(fs.read(f, 3, 0).unwrap().is_empty());
    }

    #[test]
    fn early_delete_refused_and_logged() {
        let mut fs = fs(8);
        let f = fs.create("email-2001-11", 1000).unwrap();
        let err = fs.delete(f, 999).unwrap_err();
        assert!(matches!(err, WormError::RetentionNotExpired { .. }));
        assert!(!fs.is_deleted(f));
        assert_eq!(fs.device().tamper_log().len(), 1);
        assert_eq!(fs.device().tamper_log()[0].kind, TamperKind::EarlyDelete);
        // After expiry the delete is legal and not logged.
        fs.delete(f, 1000).unwrap();
        assert!(fs.is_deleted(f));
        assert_eq!(fs.device().tamper_log().len(), 1);
        assert!(matches!(
            fs.open("email-2001-11"),
            Err(WormError::NoSuchFile(_))
        ));
    }

    #[test]
    fn tail_block_tracks_growth() {
        let mut fs = fs(4);
        let f = fs.create("a", u64::MAX).unwrap();
        assert_eq!(fs.tail_block(f), None);
        fs.append(f, b"abcd").unwrap();
        let t1 = fs.tail_block(f).unwrap();
        fs.append(f, b"e").unwrap();
        let t2 = fs.tail_block(f).unwrap();
        assert_ne!(t1, t2, "full tail forces a new block");
    }

    #[test]
    fn read_exact_at_matches_read() {
        let mut fs = fs(4);
        let f = fs.create("a", u64::MAX).unwrap();
        fs.append(f, b"0123456789").unwrap();
        let mut buf = [0u8; 4];
        fs.read_exact_at(f, 3, &mut buf).unwrap();
        assert_eq!(&buf, b"3456", "must cross the 4-byte block boundary");
        assert!(matches!(
            fs.read_exact_at(f, 8, &mut buf),
            Err(WormError::ReadPastEof { .. })
        ));
        let mut empty: [u8; 0] = [];
        fs.read_exact_at(f, 10, &mut empty).unwrap();
    }

    #[test]
    fn read_block_returns_committed_bytes_per_block() {
        let mut fs = fs(4);
        let f = fs.create("a", u64::MAX).unwrap();
        fs.append(f, b"0123456789").unwrap();
        assert_eq!(fs.num_blocks(f), 3);
        assert_eq!(fs.read_block(f, 0).unwrap(), b"0123");
        assert_eq!(fs.read_block(f, 1).unwrap(), b"4567");
        assert_eq!(fs.read_block(f, 2).unwrap(), b"89", "partial tail");
        assert!(matches!(
            fs.read_block(f, 3),
            Err(WormError::ReadPastEof { .. })
        ));
        // The tail block grows as the file does.
        fs.append(f, b"ab").unwrap();
        assert_eq!(fs.read_block(f, 2).unwrap(), b"89ab");
    }

    #[test]
    fn read_offset_overflow_is_eof_not_panic() {
        // Regression: `offset + len` used to wrap for offsets near
        // `u64::MAX`, bypass the EOF check, and panic indexing blocks.
        let mut fs = fs(8);
        let f = fs.create("a", u64::MAX).unwrap();
        fs.append(f, b"abc").unwrap();
        assert!(matches!(
            fs.read(f, u64::MAX - 1, 4),
            Err(WormError::ReadPastEof { .. })
        ));
        assert!(matches!(
            fs.read(f, u64::MAX, 1),
            Err(WormError::ReadPastEof { .. })
        ));
        let mut buf = [0u8; 4];
        assert!(matches!(
            fs.read_exact_at(f, u64::MAX - 1, &mut buf),
            Err(WormError::ReadPastEof { .. })
        ));
        // In-range reads still work.
        assert_eq!(fs.read(f, 1, 2).unwrap(), b"bc");
    }

    #[test]
    fn torn_append_surfaces_via_crash_recover() {
        use crate::fault::FaultPolicy;
        let mut fs = fs(4);
        let f = fs.create("a", u64::MAX).unwrap();
        fs.append(f, b"0123").unwrap();
        // Tear the next multi-block append mid-way: the 6-byte write
        // spans blocks (4 + 2); tear after 5 device bytes total commit.
        fs.arm_faults(FaultPolicy::torn_at_offset(9));
        let err = fs.append(f, b"456789").unwrap_err();
        assert!(matches!(err, WormError::InjectedFault { .. }), "{err}");
        // The file length counts only fully committed chunks...
        assert_eq!(fs.len(f), 8, "first chunk (4..8) completed");
        // ...but the device holds one more torn byte.
        fs.disarm_faults();
        let surfaced = fs.crash_recover().unwrap();
        assert_eq!(surfaced, 1);
        assert_eq!(fs.len(f), 9);
        assert_eq!(fs.read(f, 0, 9).unwrap(), b"012345678");
    }

    #[test]
    fn crash_recover_drops_empty_trailing_block() {
        use crate::fault::FaultPolicy;
        let mut fs = fs(4);
        let f = fs.create("a", u64::MAX).unwrap();
        fs.append(f, b"0123").unwrap(); // tail block exactly full
        assert_eq!(fs.blocks(f).len(), 1);
        // The next append allocates a new block, then dies before any
        // byte lands in it.
        fs.arm_faults(FaultPolicy::torn_at_offset(4));
        assert!(fs.append(f, b"45").is_err());
        assert_eq!(fs.blocks(f).len(), 2, "block allocated before the tear");
        fs.disarm_faults();
        assert_eq!(fs.crash_recover().unwrap(), 0);
        assert_eq!(fs.blocks(f).len(), 1, "empty tail block dropped");
        assert_eq!(fs.len(f), 4);
        // The remount is import-clean: lens match committed bytes.
        let table = fs.export_file_table();
        let device = fs.device().clone();
        assert!(WormFs::import(device, table).is_ok());
    }

    #[test]
    fn many_files_unique_blocks() {
        let mut fs = fs(8);
        let f1 = fs.create("f1", u64::MAX).unwrap();
        let f2 = fs.create("f2", u64::MAX).unwrap();
        fs.append(f1, b"xxxx").unwrap();
        fs.append(f2, b"yyyy").unwrap();
        assert_ne!(fs.blocks(f1)[0], fs.blocks(f2)[0]);
        assert_eq!(fs.num_files(), 2);
        assert_eq!(fs.read(f1, 0, 4).unwrap(), b"xxxx");
        assert_eq!(fs.read(f2, 0, 4).unwrap(), b"yyyy");
    }
}
