//! Zigzag joins for conjunctive queries (paper §4, Figure 5).
//!
//! Conjunctive queries intersect the posting lists of their keywords.
//! Because posting lists are sorted on document ID, the **zigzag join**
//! alternately advances each side to the other's frontier with
//! `FindGeq()`, skipping runs that cannot match.  With an auxiliary index
//! supporting `FindGeq` in O(log N) — a jump index, or the untrustworthy
//! B+ tree baseline — the join degenerates gracefully: O(l₁ + l₂) for
//! similar-sized lists, O(l₁ log l₂) when one list is much shorter (§4.5).
//!
//! The join is generic over [`DocCursor`], with implementations for:
//!
//! * [`JumpCursor`] — a (possibly merged) posting list stored in a block
//!   jump index, filtered to one term's tag;
//! * [`MemCursor`] — an in-memory sorted run (intermediate join results);
//!
//! each counting the *distinct* blocks it reads, the unit in which
//! Figure 8(c) reports query cost (`tks-bench` adds a B+ tree cursor).
//!
//! Proposition 3 guarantees the join is *complete*: `FindGeq` over a jump
//! index can never skip a committed document, so a document present in
//! every keyword's list always appears in the result — the property that
//! makes conjunctive search trustworthy.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::Range;
use tks_jump::block::BlockJumpIndex;
use tks_jump::Position;
use tks_postings::{DocId, Posting};

/// Every document ID: the interval of an unrestricted join.
pub const ALL_DOCS: Range<DocId> = DocId(0)..DocId(u64::MAX);

/// A sorted stream of document IDs supporting index-assisted skipping.
pub trait DocCursor {
    /// The smallest document ID ≥ `k` (paper: `FindGeq`).
    fn find_geq(&mut self, k: DocId) -> Option<DocId>;
    /// Distinct blocks read so far (query-cost unit).
    fn blocks_read(&self) -> u64;
    /// Approximate stream length, for join ordering (shortest first).
    fn len_hint(&self) -> u64;
}

/// `FindGeq` clipped to the join's interval: a document at or past
/// `docs.end` ends the stream.
fn find_in(c: &mut dyn DocCursor, k: DocId, docs: &Range<DocId>) -> Option<DocId> {
    c.find_geq(k).filter(|d| *d < docs.end)
}

/// Figure 5's two-way zigzag join over the documents in `docs`: both
/// cursors start at `FindGeq(docs.start)` and stop at `docs.end`.
pub fn zigzag_join(
    l1: &mut dyn DocCursor,
    l2: &mut dyn DocCursor,
    docs: Range<DocId>,
) -> Vec<DocId> {
    let mut out = Vec::new();
    let mut tops = find_in(l1, docs.start, &docs).zip(find_in(l2, docs.start, &docs));
    while let Some((top1, top2)) = tops {
        tops = match top1.cmp(&top2) {
            Ordering::Less => find_in(l1, top2, &docs).map(|t| (t, top2)),
            Ordering::Greater => find_in(l2, top1, &docs).map(|t| (top1, t)),
            Ordering::Equal => {
                out.push(top1);
                find_in(l1, top1.next(), &docs).zip(find_in(l2, top1.next(), &docs))
            }
        };
    }
    out
}

/// Multi-way conjunctive join over the documents in `docs`: "Multi-keyword
/// queries are answered with zigzag joins of the posting lists, starting
/// with the shortest two lists" (§4.5); each partial result is then
/// zigzag-joined with the next shortest list.  Returns the matching
/// documents and the total distinct blocks read.
pub fn zigzag_join_multi(
    mut cursors: Vec<Box<dyn DocCursor + '_>>,
    docs: Range<DocId>,
) -> (Vec<DocId>, u64) {
    cursors.sort_by_key(|c| c.len_hint());
    let mut iter = cursors.into_iter();
    let Some(mut a) = iter.next() else {
        return (Vec::new(), 0);
    };
    let Some(mut b) = iter.next() else {
        // Degenerate conjunction: stream the single list.
        let first = find_in(a.as_mut(), docs.start, &docs);
        let out = std::iter::successors(first, |d| find_in(a.as_mut(), d.next(), &docs)).collect();
        return (out, a.blocks_read());
    };
    let mut partial = zigzag_join(a.as_mut(), b.as_mut(), docs.clone());
    let mut blocks = a.blocks_read() + b.blocks_read();
    for mut c in iter {
        if partial.is_empty() {
            // An engine stops as soon as the intersection is empty.
            break;
        }
        let mut mem = MemCursor::new(&partial);
        partial = zigzag_join(&mut mem, c.as_mut(), docs.clone());
        blocks += c.blocks_read();
    }
    (partial, blocks)
}

// ---------------------------------------------------------------------
// Cursor implementations
// ---------------------------------------------------------------------

/// Cursor over an in-memory sorted run (intermediate results).  Free of
/// block I/O by definition.
#[derive(Debug)]
pub struct MemCursor<'a> {
    docs: &'a [DocId],
    pos: usize,
}

impl<'a> MemCursor<'a> {
    /// Wrap a sorted, duplicate-free slice.
    pub fn new(docs: &'a [DocId]) -> Self {
        debug_assert!(docs.windows(2).all(|w| w[0] < w[1]), "runs must be sorted");
        Self { docs, pos: 0 }
    }
}

impl DocCursor for MemCursor<'_> {
    fn find_geq(&mut self, k: DocId) -> Option<DocId> {
        // Monotone access pattern: gallop from the current position.  A
        // zigzag join between lists of very different sizes advances the
        // long cursor by small hops, so probing 1, 2, 4, … from `pos`
        // costs O(log(step)) instead of O(log(remaining)) per call.
        let rest = self.docs.get(self.pos..).unwrap_or(&[]);
        if rest.first().is_none_or(|&d| d >= k) {
            return rest.first().copied();
        }
        // Invariant: rest[lo] < k; probe until rest[lo + step] >= k or
        // the run ends.
        let mut lo = 0usize;
        let mut step = 1usize;
        while let Some(&d) = rest.get(lo + step) {
            if d < k {
                lo += step;
                step <<= 1;
            } else {
                break;
            }
        }
        let hi = rest.len().min(lo + step + 1);
        let tail = rest.get(lo + 1..hi).unwrap_or(&[]);
        self.pos += lo + 1 + tail.partition_point(|&d| d < k);
        self.docs.get(self.pos).copied()
    }

    fn blocks_read(&self) -> u64 {
        0
    }

    fn len_hint(&self) -> u64 {
        self.docs.len() as u64
    }
}

/// Cursor over a (possibly merged) posting list held in a block jump
/// index, yielding only postings whose term tag matches.
#[derive(Debug)]
pub struct JumpCursor<'a> {
    idx: &'a BlockJumpIndex<Posting>,
    /// Accept only postings with this tag (`None` = unmerged list, accept
    /// all).
    tag: Option<u32>,
    len_hint: u64,
    visited: HashSet<u32>,
}

impl<'a> JumpCursor<'a> {
    /// Cursor over `idx`, filtered to `tag`.  `len_hint` orders joins; use
    /// the term's posting count when known, else the index length.
    pub fn new(idx: &'a BlockJumpIndex<Posting>, tag: Option<u32>, len_hint: u64) -> Self {
        Self {
            idx,
            tag,
            len_hint,
            visited: HashSet::new(),
        }
    }

    /// Walk forward from `pos` until the tag matches.
    fn settle(&mut self, mut pos: Position) -> Option<DocId> {
        loop {
            let e = self.idx.entry_at(pos)?;
            match self.tag {
                Some(t) if e.term_tag != t => {
                    let visited = &mut self.visited;
                    pos = self.idx.advance(pos, |b| {
                        visited.insert(b);
                    })?;
                }
                _ => return Some(e.doc),
            }
        }
    }
}

impl DocCursor for JumpCursor<'_> {
    fn find_geq(&mut self, k: DocId) -> Option<DocId> {
        let visited = &mut self.visited;
        let pos = self
            .idx
            .find_geq_with(k.0, |b| {
                visited.insert(b);
            })
            .unwrap_or_else(|tamper| {
                // Surfacing tamper evidence mid-join is the engine's job;
                // at this level a corrupt path reads as stream end.  The
                // audit API reports the details.
                debug_assert!(false, "tamper during find_geq: {tamper}");
                None
            })?;
        self.settle(pos)
    }

    fn blocks_read(&self) -> u64 {
        self.visited.len() as u64
    }

    fn len_hint(&self) -> u64 {
        self.len_hint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tks_jump::JumpConfig;

    fn mem(v: &[u64]) -> Vec<DocId> {
        v.iter().map(|&d| DocId(d)).collect()
    }

    #[test]
    fn two_way_join_basic() {
        let a = mem(&[1, 3, 5, 7, 9, 11]);
        let b = mem(&[2, 3, 4, 9, 10, 11, 12]);
        let mut ca = MemCursor::new(&a);
        let mut cb = MemCursor::new(&b);
        assert_eq!(zigzag_join(&mut ca, &mut cb, ALL_DOCS), mem(&[3, 9, 11]));
        // The interval is half-open and bounds both ends of the join.
        for (docs, expect) in [
            (DocId(3)..DocId(11), mem(&[3, 9])),
            (DocId(4)..DocId(12), mem(&[9, 11])),
            (DocId(10)..DocId(11), mem(&[])),
            (DocId(9)..DocId(9), mem(&[])),
        ] {
            let mut ca = MemCursor::new(&a);
            let mut cb = MemCursor::new(&b);
            assert_eq!(zigzag_join(&mut ca, &mut cb, docs), expect);
        }
    }

    #[test]
    fn galloping_find_geq_matches_binary_search() {
        // Deterministic skewed run; compare the galloping cursor against a
        // plain partition_point over the remaining suffix for a monotone
        // probe sequence.
        let docs: Vec<DocId> = (0..500u64).map(|i| DocId(i * i % 7 + 11 * i)).collect();
        let mut sorted = docs.clone();
        sorted.sort();
        sorted.dedup();
        let mut cur = MemCursor::new(&sorted);
        assert_eq!(cur.find_geq(DocId(0)), sorted.first().copied());
        let mut reference = 0usize;
        for probe in (0..6000u64).step_by(7).map(DocId) {
            reference += sorted[reference..].partition_point(|&d| d < probe);
            assert_eq!(
                cur.find_geq(probe),
                sorted.get(reference).copied(),
                "find_geq({probe}) diverged from binary search"
            );
        }
        // Past the end: stays exhausted.
        assert_eq!(cur.find_geq(DocId(u64::MAX)), None);
        assert_eq!(cur.find_geq(DocId(u64::MAX)), None);
    }

    #[test]
    fn join_with_empty_side() {
        let a = mem(&[]);
        let b = mem(&[1, 2]);
        let mut ca = MemCursor::new(&a);
        let mut cb = MemCursor::new(&b);
        assert!(zigzag_join(&mut ca, &mut cb, ALL_DOCS).is_empty());
    }

    #[test]
    fn disjoint_lists_join_empty() {
        let a = mem(&[1, 3, 5]);
        let b = mem(&[2, 4, 6]);
        let mut ca = MemCursor::new(&a);
        let mut cb = MemCursor::new(&b);
        assert!(zigzag_join(&mut ca, &mut cb, ALL_DOCS).is_empty());
    }

    #[test]
    fn identical_lists_join_to_themselves() {
        let a = mem(&[10, 20, 30]);
        let mut ca = MemCursor::new(&a);
        let b = a.clone();
        let mut cb = MemCursor::new(&b);
        assert_eq!(zigzag_join(&mut ca, &mut cb, ALL_DOCS), a);
    }

    fn jump_list(postings: &[(u64, u32)]) -> BlockJumpIndex<Posting> {
        let cfg = JumpConfig::new(
            JumpConfig::new(1 << 13, 3, 1 << 13).pointer_region_bytes() + 8 * 4,
            3,
            1 << 13,
        );
        let mut idx = BlockJumpIndex::new(cfg);
        for &(d, tag) in postings {
            idx.insert(Posting::new(DocId(d), tag, 1)).unwrap();
        }
        idx
    }

    #[test]
    fn jump_cursor_filters_tags() {
        // A merged list with two terms interleaved.
        let idx = jump_list(&[(1, 0), (1, 1), (2, 0), (5, 1), (7, 0), (7, 1), (9, 0)]);
        let mut c = JumpCursor::new(&idx, Some(1), 3);
        assert_eq!(c.find_geq(DocId(0)), Some(DocId(1)));
        assert_eq!(c.find_geq(DocId(2)), Some(DocId(5)));
        assert_eq!(c.find_geq(DocId(6)), Some(DocId(7)));
        assert_eq!(c.find_geq(DocId(8)), None);
        assert!(c.blocks_read() >= 1);
    }

    #[test]
    fn jump_join_matches_reference_intersection() {
        let l1: Vec<(u64, u32)> = (0..300).map(|i| (i * 2, 0)).collect(); // evens
        let l2: Vec<(u64, u32)> = (0..200).map(|i| (i * 3, 0)).collect(); // multiples of 3
        let i1 = jump_list(&l1);
        let i2 = jump_list(&l2);
        let mut c1 = JumpCursor::new(&i1, Some(0), l1.len() as u64);
        let mut c2 = JumpCursor::new(&i2, Some(0), l2.len() as u64);
        let got = zigzag_join(&mut c1, &mut c2, ALL_DOCS);
        let expect: Vec<DocId> = (0..600).filter(|d| d % 6 == 0).map(DocId).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn multi_way_join_shrinks_with_each_list() {
        let a = mem(&(0..120).map(|i| i * 2).collect::<Vec<_>>()); // evens
        let b = mem(&(0..80).map(|i| i * 3).collect::<Vec<_>>()); // 3s
        let c = mem(&(0..60).map(|i| i * 4).collect::<Vec<_>>()); // 4s
        let cursors: Vec<Box<dyn DocCursor>> = vec![
            Box::new(MemCursor::new(&a)),
            Box::new(MemCursor::new(&b)),
            Box::new(MemCursor::new(&c)),
        ];
        let (result, _blocks) = zigzag_join_multi(cursors, ALL_DOCS);
        let expect: Vec<DocId> = (0..240).filter(|d| d % 12 == 0).map(DocId).collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn multi_way_empty_and_single() {
        let (r, b) = zigzag_join_multi(Vec::new(), ALL_DOCS);
        assert!(r.is_empty());
        assert_eq!(b, 0);
        let a = mem(&[4, 8]);
        let cursors: Vec<Box<dyn DocCursor>> = vec![Box::new(MemCursor::new(&a))];
        let (r, _) = zigzag_join_multi(cursors, ALL_DOCS);
        assert_eq!(r, mem(&[4, 8]));
        let cursors: Vec<Box<dyn DocCursor>> = vec![Box::new(MemCursor::new(&a))];
        let (r, _) = zigzag_join_multi(cursors, DocId(5)..DocId(8));
        assert!(r.is_empty());
    }

    #[test]
    fn zigzag_completeness_proposition_3_in_action() {
        // A doc present in both lists is always in the join: exhaustive
        // check over a pseudo-random workload.
        let mut x = 1u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % 2000
        };
        for round in 0..20 {
            let mut l1: Vec<u64> = (0..150).map(|_| next()).collect();
            let mut l2: Vec<u64> = (0..150).map(|_| next()).collect();
            l1.sort_unstable();
            l1.dedup();
            l2.sort_unstable();
            l2.dedup();
            let i1 = jump_list(&l1.iter().map(|&d| (d, 0)).collect::<Vec<_>>());
            let i2 = jump_list(&l2.iter().map(|&d| (d, 0)).collect::<Vec<_>>());
            let mut c1 = JumpCursor::new(&i1, Some(0), l1.len() as u64);
            let mut c2 = JumpCursor::new(&i2, Some(0), l2.len() as u64);
            let got = zigzag_join(&mut c1, &mut c2, ALL_DOCS);
            let set2: std::collections::HashSet<u64> = l2.iter().copied().collect();
            let expect: Vec<DocId> = l1
                .iter()
                .copied()
                .filter(|d| set2.contains(d))
                .map(DocId)
                .collect();
            assert_eq!(got, expect, "round {round}");
        }
    }
}
