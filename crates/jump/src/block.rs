//! The block-structured jump index of paper §4.4.
//!
//! Posting entries are stored `p` to a block of size `L`; each block
//! reserves room for `(B−1)·⌈log_B N⌉` jump pointers.  Let `n_b` be the
//! largest key in block `b`; the `(i, j)` pointer of `b` leads to the block
//! containing the smallest key `s` with `n_b + j·Bⁱ ≤ s < n_b + (j+1)·Bⁱ`.
//!
//! The structure is fossilized: inserts only append entries to the tail
//! block and set previously-null pointers — both legal WORM appends — and
//! the path `Lookup(k)` takes is exactly the path `Insert(k)` wired, so
//! entries can never be hidden retroactively (Propositions 2 and 3).
//!
//! I/O accounting follows §4.5: the index code keeps the largest ID and
//! last pointer of every block on the root→tail path in *its own* memory,
//! so following pointers during an insert costs no storage I/O — only
//! appending the entry (tail block) and *setting* a pointer (a
//! read-modify-write of an interior block) touch storage.  Each such touch
//! is reported through the [`Touch`] callback so experiment harnesses can
//! feed a [`StorageCache`](tks_worm::StorageCache).
//!
//! Duplicate keys (the same document appearing under several terms of a
//! merged list) are appended as entries but do not participate in the jump
//! structure; readers reach them by sequential advance, which is safe
//! because blocks are chained in allocation order within an append-only
//! file.

use crate::config::JumpConfig;
use crate::{JumpError, TamperEvidence};

const NULL: u32 = u32::MAX;

/// An 8-byte entry storable in a block jump index.
///
/// The jump key must be non-decreasing over the insertion sequence (doc
/// IDs from the commit counter).  Implemented for `u64` (key = value) and
/// for [`tks_postings::Posting`] (key = document ID).
pub trait JumpEntry: Copy + std::fmt::Debug {
    /// The monotone key the jump structure is organised around.
    fn jump_key(&self) -> u64;
    /// On-WORM encoding (8 bytes, like the paper's postings).
    fn to_bytes(&self) -> [u8; 8];
    /// Decode from the on-WORM representation.
    fn from_bytes(bytes: [u8; 8]) -> Self;
}

impl JumpEntry for u64 {
    fn jump_key(&self) -> u64 {
        *self
    }
    fn to_bytes(&self) -> [u8; 8] {
        self.to_le_bytes()
    }
    fn from_bytes(bytes: [u8; 8]) -> Self {
        u64::from_le_bytes(bytes)
    }
}

impl JumpEntry for tks_postings::Posting {
    fn jump_key(&self) -> u64 {
        self.doc.0
    }
    fn to_bytes(&self) -> [u8; 8] {
        tks_postings::encode_posting(*self)
    }
    fn from_bytes(bytes: [u8; 8]) -> Self {
        tks_postings::decode_posting(bytes)
    }
}

/// A storage touch performed by an index mutation, for cache-simulation
/// accounting.  Block numbers are indices into this index's block chain;
/// the caller maps them to device-wide [`BlockId`](tks_worm::BlockId)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// An entry was appended to the (tail) block.
    Append {
        /// Chain index of the block.
        block: u32,
        /// The block held no entries before this append.
        was_empty: bool,
        /// The append filled the block's entry area to capacity `p`.
        fills: bool,
    },
    /// A jump pointer was set in the block (read-modify-write).
    PointerSet {
        /// Chain index of the block whose pointer was set.
        block: u32,
        /// Flat slot number of the pointer (see [`JumpConfig::flat_slot`]).
        flat: u32,
        /// Chain index of the target block.
        target: u32,
    },
}

/// A location in the index: block `block` of the chain, entry `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Position {
    /// Index of the block in the chain (allocation order).
    pub block: u32,
    /// Entry index within the block.
    pub slot: u32,
}

#[derive(Debug, Clone)]
struct JBlock<E> {
    entries: Vec<E>,
    /// Flat pointer slots (see [`JumpConfig::flat_slot`]); `NULL` = unset.
    ptrs: Vec<u32>,
}

impl<E: JumpEntry> JBlock<E> {
    /// Largest key in the block; `None` only for an empty block, which
    /// legitimate operation never produces (blocks are created non-empty)
    /// and which callers therefore treat as tamper evidence.
    fn largest(&self) -> Option<u64> {
        self.entries.last().map(|e| e.jump_key())
    }
}

/// Tamper evidence for an empty block encountered mid-walk: legitimate
/// operation creates every block with at least one entry.
fn empty_block_evidence(invariant: &'static str, b: u32) -> TamperEvidence {
    TamperEvidence {
        invariant,
        detail: format!("block {b} holds no entries"),
    }
}

/// Running mutation statistics, used by the update-cost experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Entries appended (including duplicates).
    pub entries: u64,
    /// Jump pointers set.
    pub pointers_set: u64,
    /// Blocks allocated.
    pub blocks_allocated: u64,
}

/// Block-structured jump index (paper §4.4), generic over the 8-byte entry
/// type.
///
/// # Example
///
/// ```
/// use tks_jump::{BlockJumpIndex, JumpConfig};
///
/// // Tiny blocks for the example: B = 3 over keys < 2¹⁶ needs 88 bytes of
/// // pointer region, leaving room for p = 4 entries per 120-byte block.
/// let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(JumpConfig::new(120, 3, 1 << 16));
/// for k in [1u64, 2, 5, 7, 8, 10, 15, 19, 21, 22, 25] {
///     idx.insert(k).unwrap();
/// }
/// assert!(idx.lookup(8).unwrap());
/// assert!(!idx.lookup(9).unwrap());
/// let pos = idx.find_geq(9).unwrap().unwrap();
/// assert_eq!(idx.entry_at(pos).unwrap(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct BlockJumpIndex<E> {
    cfg: JumpConfig,
    blocks: Vec<JBlock<E>>,
    last_key: Option<u64>,
    stats: UpdateStats,
}

impl<E: JumpEntry> BlockJumpIndex<E> {
    /// Create an empty index with the given geometry.
    pub fn new(cfg: JumpConfig) -> Self {
        Self {
            cfg,
            blocks: Vec::new(),
            last_key: None,
            stats: UpdateStats::default(),
        }
    }

    /// The geometry this index was built with.
    pub fn config(&self) -> JumpConfig {
        self.cfg
    }

    /// Number of entries (including duplicate keys).
    pub fn len(&self) -> u64 {
        self.stats.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.stats.entries == 0
    }

    /// Number of blocks in the chain.
    pub fn num_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// The largest key inserted so far.
    pub fn last_key(&self) -> Option<u64> {
        self.last_key
    }

    /// Mutation statistics.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Insert an entry, reporting no storage touches.
    pub fn insert(&mut self, entry: E) -> Result<(), JumpError> {
        self.insert_with(entry, |_| {})
    }

    /// Insert an entry (paper: `Insert_block(k)`), reporting each storage
    /// touch to `on_touch` for cache-simulation accounting.
    ///
    /// Keys must be non-decreasing; an equal key is a duplicate entry
    /// (merged-list case) that bypasses the jump-pointer walk.
    pub fn insert_with<F: FnMut(Touch)>(
        &mut self,
        entry: E,
        mut on_touch: F,
    ) -> Result<(), JumpError> {
        let k = entry.jump_key();
        if k >= self.cfg.max_key {
            return Err(JumpError::KeyTooLarge {
                key: k,
                max: self.cfg.max_key,
            });
        }
        if let Some(last) = self.last_key {
            if k < last {
                return Err(JumpError::NonMonotonicInsert { last, attempted: k });
            }
        }
        let duplicate = self.last_key == Some(k);
        let p = self.cfg.entries_per_block();

        // Steps 1–3: append the entry to the tail block, allocating a new
        // one if the tail is full (or the index is empty).
        let tail_full = self.blocks.last().is_none_or(|b| b.entries.len() >= p);
        if tail_full {
            self.blocks.push(JBlock {
                entries: Vec::with_capacity(p),
                ptrs: vec![NULL; self.cfg.pointer_slots() as usize],
            });
            self.stats.blocks_allocated += 1;
        }
        let tail_idx = self.blocks.len() as u32 - 1;
        let Some(tail) = self.blocks.last_mut() else {
            return Err(JumpError::Internal(
                "tail block missing after allocation".into(),
            ));
        };
        let was_empty = tail.entries.is_empty();
        tail.entries.push(entry);
        let fills = tail.entries.len() >= p;
        on_touch(Touch::Append {
            block: tail_idx,
            was_empty,
            fills,
        });
        self.stats.entries += 1;
        self.last_key = Some(k);

        // Duplicate keys are reachable by sequential advance; they take no
        // part in the jump structure (no block's `largest` grows, and the
        // walk's `n_b < k` assertion would reject them).
        if duplicate {
            return Ok(());
        }

        // Steps 4–19: walk from the first block, following pointers; set
        // the first null pointer encountered to the tail block.  Following
        // costs no I/O (in-memory path memo, §4.5); setting does.
        let mut b = 0u32;
        loop {
            if b == tail_idx {
                return Ok(());
            }
            let Some(nb) = self.blocks[b as usize].largest() else {
                return Err(JumpError::Tamper(empty_block_evidence("insert-walk", b)));
            };
            // Step 10 assert.
            if nb >= k {
                return Err(JumpError::Tamper(TamperEvidence {
                    invariant: "insert-walk",
                    detail: format!("block {b} has largest {nb} ≥ inserted key {k}"),
                }));
            }
            let (i, j) = self.cfg.slot_for_delta(k - nb);
            let flat = self.cfg.flat_slot(i, j) as usize;
            let target = self.blocks[b as usize].ptrs[flat];
            if target == NULL {
                self.blocks[b as usize].ptrs[flat] = tail_idx;
                self.stats.pointers_set += 1;
                on_touch(Touch::PointerSet {
                    block: b,
                    flat: flat as u32,
                    target: tail_idx,
                });
                return Ok(());
            }
            b = target;
        }
    }

    /// Whether `k` was inserted (paper: `Lookup_block(k)`), reporting each
    /// block visited to `on_visit` (query-time block reads).
    pub fn lookup_with<F: FnMut(u32)>(
        &self,
        k: u64,
        mut on_visit: F,
    ) -> Result<bool, TamperEvidence> {
        if self.blocks.is_empty() {
            return Ok(false);
        }
        let mut b = 0u32;
        loop {
            on_visit(b);
            let blk = &self.blocks[b as usize];
            let Some(nb) = blk.largest() else {
                return Err(empty_block_evidence("lookup-walk", b));
            };
            if k <= nb {
                // Step 5: search within the block.
                return Ok(blk.entries.iter().any(|e| e.jump_key() == k));
            }
            let (i, j) = self.cfg.slot_for_delta(k - nb);
            let flat = self.cfg.flat_slot(i, j) as usize;
            // A key beyond the index's domain has no pointer slot: no
            // stored key reaches it.
            let target = blk.ptrs.get(flat).copied().unwrap_or(NULL);
            if target == NULL {
                return Ok(false);
            }
            let smallest_next = self.blocks[target as usize].entries[0].jump_key();
            // The target block must hold keys no smaller than anything in
            // the chain before it; a reversal is tamper evidence.
            if smallest_next < blk.entries[0].jump_key() {
                return Err(TamperEvidence {
                    invariant: "lookup-order",
                    detail: format!(
                        "pointer from block {b} reaches block {target} with smaller keys"
                    ),
                });
            }
            b = target;
        }
    }

    /// Whether `k` was inserted.
    pub fn lookup(&self, k: u64) -> Result<bool, TamperEvidence> {
        self.lookup_with(k, |_| {})
    }

    /// Position of the first entry with key ≥ `k`, or `None`
    /// (paper: `FindGeq(k)`, generalised from the binary pseudocode).
    pub fn find_geq(&self, k: u64) -> Result<Option<Position>, TamperEvidence> {
        self.find_geq_with(k, |_| {})
    }

    /// [`find_geq`](Self::find_geq), reporting visited blocks.
    pub fn find_geq_with<F: FnMut(u32)>(
        &self,
        k: u64,
        mut on_visit: F,
    ) -> Result<Option<Position>, TamperEvidence> {
        if self.blocks.is_empty() {
            return Ok(None);
        }
        self.find_geq_rec(0, k, &mut on_visit)
    }

    fn find_geq_rec<F: FnMut(u32)>(
        &self,
        b: u32,
        k: u64,
        on_visit: &mut F,
    ) -> Result<Option<Position>, TamperEvidence> {
        on_visit(b);
        let blk = &self.blocks[b as usize];
        let Some(nb) = blk.largest() else {
            return Err(empty_block_evidence("find-geq-walk", b));
        };
        if k <= nb {
            // Blocks hold contiguous runs of the global sequence, so the
            // first in-block entry ≥ k is the global successor.
            let slot = blk.entries.partition_point(|e| e.jump_key() < k) as u32;
            debug_assert!((slot as usize) < blk.entries.len());
            return Ok(Some(Position { block: b, slot }));
        }
        let (i, j) = self.cfg.slot_for_delta(k - nb);
        let flat = self.cfg.flat_slot(i, j);
        // A key beyond the index's domain has no pointer slot (and no
        // later one): no stored key reaches it.
        let target = blk.ptrs.get(flat as usize).copied().unwrap_or(NULL);
        if target != NULL {
            // Unlike the binary variant, the result may legitimately exceed
            // the pointer's range end: the target block stores a contiguous
            // run of the global sequence, so when no committed key lies in
            // [k, range-end) the in-block successor is the global one.  The
            // paper's step-10 range assert therefore does not carry over;
            // structural tampering is caught by `audit` and the per-jump
            // order check in `lookup_with` instead.
            if let Some(pos) = self.find_geq_rec(target, k, on_visit)? {
                debug_assert!(self.entry_at(pos).is_some_and(|e| e.jump_key() >= k));
                return Ok(Some(pos));
            }
        }
        // No key ≥ k under pointer (i, j); the first later non-null
        // pointer leads to the next larger committed key.
        for f in flat + 1..self.cfg.pointer_slots() {
            let t = blk.ptrs[f as usize];
            if t != NULL {
                return self.find_geq_rec(t, k, on_visit);
            }
        }
        Ok(None)
    }

    /// The entry at `pos`, if valid.
    pub fn entry_at(&self, pos: Position) -> Option<E> {
        self.blocks
            .get(pos.block as usize)?
            .entries
            .get(pos.slot as usize)
            .copied()
    }

    /// Advance to the next entry in key order (sequential chain traversal),
    /// reporting a block visit when crossing into the next block.
    pub fn advance<F: FnMut(u32)>(&self, pos: Position, mut on_visit: F) -> Option<Position> {
        let blk = self.blocks.get(pos.block as usize)?;
        if ((pos.slot + 1) as usize) < blk.entries.len() {
            return Some(Position {
                block: pos.block,
                slot: pos.slot + 1,
            });
        }
        let next = pos.block + 1;
        if (next as usize) < self.blocks.len() {
            on_visit(next);
            Some(Position {
                block: next,
                slot: 0,
            })
        } else {
            None
        }
    }

    /// Iterate all entries in key order, starting at `pos`.
    pub fn iter_from(&self, pos: Position) -> impl Iterator<Item = E> + '_ {
        let mut cur = Some(pos);
        std::iter::from_fn(move || {
            let pos = cur?;
            let e = self.entry_at(pos)?;
            cur = self.advance(pos, |_| {});
            Some(e)
        })
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = E> + '_ {
        self.blocks.iter().flat_map(|b| b.entries.iter().copied())
    }

    /// Full-structure audit: global key order, pointer-target validity and
    /// pointer-range containment.  Any violation is tamper evidence,
    /// because legitimate operation cannot produce one and WORM appends
    /// cannot remove one.
    pub fn audit(&self) -> Result<(), TamperEvidence> {
        let mut prev: Option<u64> = None;
        for (bi, blk) in self.blocks.iter().enumerate() {
            if blk.entries.is_empty() {
                return Err(TamperEvidence {
                    invariant: "audit-empty-block",
                    detail: format!("block {bi} holds no entries"),
                });
            }
            for e in &blk.entries {
                let k = e.jump_key();
                if let Some(p) = prev {
                    if k < p {
                        return Err(TamperEvidence {
                            invariant: "audit-order",
                            detail: format!("key {k} in block {bi} follows larger key {p}"),
                        });
                    }
                }
                prev = Some(k);
            }
        }
        for (bi, blk) in self.blocks.iter().enumerate() {
            let Some(nb) = blk.largest() else {
                return Err(empty_block_evidence("audit-empty-block", bi as u32));
            };
            for flat in 0..self.cfg.pointer_slots() {
                let t = blk.ptrs[flat as usize];
                if t == NULL {
                    continue;
                }
                if t as usize >= self.blocks.len() || t as usize <= bi {
                    return Err(TamperEvidence {
                        invariant: "audit-target",
                        detail: format!("block {bi} pointer {flat} targets invalid block {t}"),
                    });
                }
                let (i, j) = self.cfg.slot_ij(flat);
                let power = (self.cfg.branching as u64).pow(i);
                let lo = nb.saturating_add(j as u64 * power);
                let hi = nb.saturating_add((j as u64 + 1) * power);
                let target = &self.blocks[t as usize];
                let has_in_range = target
                    .entries
                    .iter()
                    .any(|e| (lo..hi).contains(&e.jump_key()));
                if !has_in_range {
                    return Err(TamperEvidence {
                        invariant: "audit-range",
                        detail: format!(
                            "block {bi} pointer ({i},{j}) targets block {t} with no key in [{lo},{hi})"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internal access for the persistence layer.
    // ------------------------------------------------------------------

    /// The flat pointer slots of chain block `b`, `u32::MAX` meaning unset
    /// (diagnostics).
    pub fn block_ptrs(&self, b: u32) -> &[u32] {
        &self.blocks[b as usize].ptrs
    }

    pub(crate) fn set_recovered_ptr(
        &mut self,
        block: u32,
        flat: u32,
        target: u32,
    ) -> Result<(), JumpError> {
        let slot = &mut self.blocks[block as usize].ptrs[flat as usize];
        if *slot != NULL {
            return Err(JumpError::Tamper(TamperEvidence {
                invariant: "recover-double-set",
                detail: format!(
                    "pointer slot {flat} of block {block} assigned twice ({} then {target})",
                    *slot
                ),
            }));
        }
        *slot = target;
        self.stats.pointers_set += 1;
        Ok(())
    }

    pub(crate) fn push_raw_block(&mut self, entries: Vec<E>, ptrs: Vec<u32>) {
        self.stats.entries += entries.len() as u64;
        self.stats.blocks_allocated += 1;
        self.stats.pointers_set += ptrs.iter().filter(|&&p| p != NULL).count() as u64;
        self.last_key = entries.last().map(|e| e.jump_key()).or(self.last_key);
        self.blocks.push(JBlock { entries, ptrs });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny(branching: u32) -> JumpConfig {
        // Small blocks so tests exercise multi-block behaviour: pointer
        // region + a handful of entries.
        let ptr_bytes = {
            let probe = JumpConfig::new(1 << 14, branching, 1 << 16);
            probe.pointer_region_bytes()
        };
        JumpConfig::new(ptr_bytes + 8 * 4, branching, 1 << 16) // p = 4
    }

    #[test]
    fn paper_figure_7b_example() {
        // Figure 7(b): p = 4, B = 3, entries 1,2,5,7 | 8,10,15,19 | 21,22,25.
        let cfg = tiny(3);
        assert_eq!(cfg.entries_per_block(), 4);
        let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(cfg);
        for k in [1u64, 2, 5, 7, 8, 10, 15, 19, 21, 22, 25] {
            idx.insert(k).unwrap();
        }
        assert_eq!(idx.num_blocks(), 3);
        // "The (0,1) pointer [of block 0] points to block 1 because the
        // latter contains 8 and 7 + 1·3⁰ ≤ 8 < 7 + 1·3¹" — n_b = 7.
        let flat01 = cfg.flat_slot(0, 1) as usize;
        assert_eq!(idx.block_ptrs(0)[flat01], 1);
        // "the (2,2) pointer of block 0 points to block 2, because block 2
        // contains 25 and 7 + 2·3² ≤ 25 < 7 + 3·3²".
        let flat22 = cfg.flat_slot(2, 2) as usize;
        assert_eq!(idx.block_ptrs(0)[flat22], 2);
        idx.audit().unwrap();
    }

    #[test]
    fn lookup_and_find_geq_across_blocks() {
        let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(tiny(3));
        let keys = [1u64, 2, 5, 7, 8, 10, 15, 19, 21, 22, 25];
        for &k in &keys {
            idx.insert(k).unwrap();
        }
        for &k in &keys {
            assert!(idx.lookup(k).unwrap(), "lost {k}");
        }
        for miss in [0u64, 3, 9, 20, 26, 1000] {
            assert!(!idx.lookup(miss).unwrap(), "phantom {miss}");
        }
        for probe in 0..=26u64 {
            let expect = keys.iter().copied().find(|&v| v >= probe);
            let got = idx
                .find_geq(probe)
                .unwrap()
                .map(|p| idx.entry_at(p).unwrap());
            assert_eq!(got, expect, "probe {probe}");
        }
        // Keys past the index's domain (1 << 16) have no pointer slot:
        // absent, not a panic.
        for beyond in [1u64 << 16, 1 << 40, u64::MAX] {
            assert!(!idx.lookup(beyond).unwrap(), "phantom {beyond}");
            assert_eq!(idx.find_geq(beyond).unwrap(), None, "probe {beyond}");
        }
    }

    #[test]
    fn duplicates_are_stored_and_scannable() {
        let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(tiny(3));
        for k in [1u64, 1, 1, 1, 1, 2, 2, 7] {
            idx.insert(k).unwrap();
        }
        assert_eq!(idx.len(), 8);
        // Duplicates span a block boundary (p = 4) and stay reachable via
        // sequential advance from the first occurrence.
        let pos = idx.find_geq(1).unwrap().unwrap();
        let run: Vec<u64> = idx.iter_from(pos).collect();
        assert_eq!(run, vec![1, 1, 1, 1, 1, 2, 2, 7]);
        assert!(idx.lookup(1).unwrap());
        assert!(idx.lookup(7).unwrap());
        idx.audit().unwrap();
    }

    #[test]
    fn non_monotonic_and_oversized_rejected() {
        let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(tiny(3));
        idx.insert(10).unwrap();
        assert!(matches!(
            idx.insert(9),
            Err(JumpError::NonMonotonicInsert { .. })
        ));
        assert!(matches!(
            idx.insert(1 << 16),
            Err(JumpError::KeyTooLarge { .. })
        ));
    }

    #[test]
    fn touches_report_fills_and_pointer_sets() {
        let mut touches = Vec::new();
        let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(tiny(3)); // p = 4
        for k in 0..9u64 {
            idx.insert_with(k * 3 + 1, |t| touches.push(t)).unwrap();
        }
        let fills = touches
            .iter()
            .filter(|t| matches!(t, Touch::Append { fills: true, .. }))
            .count();
        assert_eq!(fills, 2, "two blocks filled after 9 inserts with p=4");
        let sets = touches
            .iter()
            .filter(|t| matches!(t, Touch::PointerSet { .. }))
            .count();
        assert_eq!(sets as u64, idx.stats().pointers_set);
        assert!(sets >= 2, "pointers must be set once later blocks exist");
    }

    #[test]
    fn insert_walk_terminates_at_tail_without_setting() {
        // Keys landing in the same block as their predecessor chain reuse
        // existing pointers; pointers_set stays bounded by inserts.
        let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(tiny(3));
        for k in 0..200u64 {
            idx.insert(k).unwrap();
        }
        assert!(idx.stats().pointers_set <= 200);
        idx.audit().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Proposition 2 for the block variant, at several branching
        /// factors: everything inserted stays visible.
        #[test]
        fn prop2_block_everything_findable(mut raw in proptest::collection::vec(0u64..10_000, 1..250),
                                           b in prop_oneof![Just(2u32), Just(3), Just(8), Just(32)]) {
            raw.sort_unstable();
            raw.dedup();
            let cfg = JumpConfig::new(JumpConfig::new(1 << 14, b, 1 << 14).pointer_region_bytes() + 8 * 4, b, 1 << 14);
            let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(cfg);
            for &k in &raw {
                if k < (1 << 14) {
                    idx.insert(k).unwrap();
                }
            }
            for &k in &raw {
                if k < (1 << 14) {
                    prop_assert!(idx.lookup(k).unwrap());
                }
            }
            idx.audit().unwrap();
        }

        /// Proposition 3 for the block variant: find_geq returns exactly
        /// the successor, so zigzag joins can never skip a committed ID.
        #[test]
        fn prop3_block_findgeq_exact(mut raw in proptest::collection::vec(0u64..8000, 1..200),
                                     probes in proptest::collection::vec(0u64..8200, 1..80),
                                     b in prop_oneof![Just(2u32), Just(5), Just(32)]) {
            raw.sort_unstable();
            raw.dedup();
            let cfg = JumpConfig::new(JumpConfig::new(1 << 13, b, 1 << 13).pointer_region_bytes() + 8 * 3, b, 1 << 13);
            let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(cfg);
            let raw: Vec<u64> = raw.into_iter().filter(|&k| k < (1 << 13)).collect();
            for &k in &raw {
                idx.insert(k).unwrap();
            }
            for &q in &probes {
                let expect = raw.iter().copied().find(|&v| v >= q);
                let got = idx.find_geq(q).unwrap().map(|p| idx.entry_at(p).unwrap());
                prop_assert_eq!(got, expect, "probe {}", q);
            }
        }

        /// §4.4 complexity claim: "one can show that if the lookup proceeds
        /// by following pointers i₁, …, i_k, then i₁ < · · · < i_k.  This
        /// gives a bound of log_B(N) jumps for Lookup()" — so a lookup
        /// visits at most levels + 1 blocks.
        #[test]
        fn prop_lookup_block_visits_bounded_by_levels(
            mut raw in proptest::collection::vec(0u64..16_000, 1..300),
            probes in proptest::collection::vec(0u64..16_000, 1..50),
            b in prop_oneof![Just(2u32), Just(4), Just(16)],
        ) {
            raw.sort_unstable();
            raw.dedup();
            let cfg = JumpConfig::new(
                JumpConfig::new(1 << 14, b, 1 << 14).pointer_region_bytes() + 8 * 4,
                b,
                1 << 14,
            );
            let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(cfg);
            for &k in &raw {
                idx.insert(k).unwrap();
            }
            let bound = cfg.levels() as usize + 1;
            for &q in probes.iter().chain(raw.iter()) {
                let mut visits = 0usize;
                idx.lookup_with(q, |_| visits += 1).unwrap();
                prop_assert!(
                    visits <= bound,
                    "lookup({}) visited {} blocks, bound {} (B={})",
                    q, visits, bound, b
                );
            }
        }

        /// Entries with duplicates: iteration from find_geq yields the
        /// whole tail of the sequence, in order.
        #[test]
        fn iteration_yields_sorted_tail(mut raw in proptest::collection::vec(0u64..4000, 1..150)) {
            raw.sort_unstable();
            let cfg = JumpConfig::new(JumpConfig::new(1 << 13, 4, 1 << 13).pointer_region_bytes() + 8 * 4, 4, 1 << 13);
            let mut idx: BlockJumpIndex<u64> = BlockJumpIndex::new(cfg);
            for &k in &raw {
                idx.insert(k).unwrap();
            }
            let q = raw[raw.len() / 2];
            let pos = idx.find_geq(q).unwrap().unwrap();
            let tail: Vec<u64> = idx.iter_from(pos).collect();
            let expect: Vec<u64> = raw.iter().copied().filter(|&v| v >= q).collect();
            prop_assert_eq!(tail, expect);
        }
    }
}
