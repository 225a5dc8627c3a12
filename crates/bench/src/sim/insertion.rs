//! Insertion-cost simulations (Figures 2 and 8(b)).
//!
//! Figure 2: "we simulated the incremental insertion of one million
//! documents … the tail blocks of as many posting lists as possible are
//! cached in the storage server's (initially dirty) cache" — per-term
//! (unmerged) lists, LRU tail caching, I/Os counted per the
//! [`StorageCache`] policy.
//!
//! Figure 8(b): the same insertion stream against *merged* lists stored as
//! block jump indexes; appending a document touches the tail block of each
//! of its terms' lists plus the interior blocks whose jump pointers get
//! set (the paper's §4.5 memo optimisation means *following* pointers is
//! free).
//!
//! Both simulations are metadata-only with respect to posting bytes: list
//! state is a posting count per list (Figure 2) or an in-memory jump-index
//! skeleton (Figure 8(b)); the storage cache tracks block identities.

use tks_core::merge::MergeAssignment;
use tks_corpus::DocumentGenerator;
use tks_jump::block::{BlockJumpIndex, Touch};
use tks_jump::JumpConfig;
use tks_postings::POSTING_SIZE;
use tks_worm::{AccessKind, BlockId, CacheConfig, IoStats, StorageCache};

/// Outcome of an insertion simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertionSimResult {
    /// Documents inserted.
    pub docs: u64,
    /// Postings appended (Σ distinct terms per document).
    pub postings: u64,
    /// Random-I/O counters from the cache simulator.
    pub stats: IoStats,
}

impl InsertionSimResult {
    /// The paper's y-axis: random I/Os per inserted document.
    pub fn ios_per_doc(&self) -> f64 {
        self.stats.total_ios() as f64 / self.docs.max(1) as f64
    }
}

/// Synthetic device-wide block ID for block `idx` of list `list`.
fn list_block(list: u32, idx: u64) -> BlockId {
    BlockId(((list as u64) << 32) | idx)
}

/// Simulate inserting documents `0..num_docs` into posting lists under
/// `assignment`, with an LRU storage cache of `cache_bytes` and
/// `block_size`-byte blocks.  With [`MergeAssignment::unmerged`] this is
/// exactly the Figure 2 experiment; with a uniform assignment it is the
/// merged-list update path of §3.
pub fn insertion_ios(
    gen: &DocumentGenerator,
    assignment: &MergeAssignment,
    num_docs: u64,
    cache_bytes: u64,
    block_size: u32,
) -> InsertionSimResult {
    assert!((block_size as usize).is_multiple_of(POSTING_SIZE));
    let mut cache = StorageCache::new(CacheConfig::new(cache_bytes, block_size));
    let mut list_postings = vec![0u64; assignment.num_lists() as usize];
    let bs = block_size as u64;
    let per_block = bs / POSTING_SIZE as u64;
    let mut postings = 0u64;
    for doc in gen.docs(0..num_docs) {
        for &(term, _tf) in &doc.terms {
            let l = assignment.list_of(term).0;
            let n = list_postings[l as usize];
            let idx = n / per_block;
            let off = n % per_block;
            cache.access(
                list_block(l, idx),
                AccessKind::Append {
                    was_empty: off == 0,
                    fills: off + 1 == per_block,
                },
            );
            list_postings[l as usize] = n + 1;
            postings += 1;
        }
    }
    InsertionSimResult {
        docs: num_docs,
        postings,
        stats: cache.stats(),
    }
}

/// Synthetic block ID for jump-index chain block `idx` of list `list`
/// (disjoint namespace from [`list_block`]).
fn jump_block(list: u32, idx: u32) -> BlockId {
    BlockId((1 << 63) | ((list as u64) << 32) | idx as u64)
}

/// Figure 8(b): insertion I/O with merged lists stored as block jump
/// indexes.  Each posting appends to its list's tail block; setting a jump
/// pointer is a read-modify-write of an interior block.  Returns the
/// result plus the total jump pointers set.
pub fn jump_insertion_ios(
    gen: &DocumentGenerator,
    assignment: &MergeAssignment,
    jump: JumpConfig,
    num_docs: u64,
    cache_bytes: u64,
) -> Result<(InsertionSimResult, u64), tks_jump::JumpError> {
    let mut cache = StorageCache::new(CacheConfig::new(cache_bytes, jump.block_size as u32));
    let mut lists: Vec<BlockJumpIndex<u64>> = (0..assignment.num_lists())
        .map(|_| BlockJumpIndex::new(jump))
        .collect();
    let mut postings = 0u64;
    for doc in gen.docs(0..num_docs) {
        for &(term, _tf) in &doc.terms {
            let l = assignment.list_of(term).0;
            let cache = &mut cache;
            lists[l as usize].insert_with(doc.id.0, |t| match t {
                Touch::Append {
                    block,
                    was_empty,
                    fills,
                } => {
                    cache.access(
                        jump_block(l, block),
                        AccessKind::Append { was_empty, fills },
                    );
                }
                Touch::PointerSet { block, .. } => {
                    cache.access(jump_block(l, block), AccessKind::Update);
                }
            })?;
            postings += 1;
        }
    }
    let pointers_set = lists.iter().map(|x| x.stats().pointers_set).sum();
    Ok((
        InsertionSimResult {
            docs: num_docs,
            postings,
            stats: cache.stats(),
        },
        pointers_set,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tks_corpus::CorpusConfig;

    fn gen() -> DocumentGenerator {
        DocumentGenerator::new(CorpusConfig {
            num_docs: 300,
            vocab_size: 3_000,
            mean_distinct_terms: 30,
            ..Default::default()
        })
    }

    #[test]
    fn bigger_cache_means_fewer_ios_unmerged() {
        let g = gen();
        let a = MergeAssignment::unmerged(3_000);
        let small = insertion_ios(&g, &a, 300, 16 * 8192, 8192);
        let big = insertion_ios(&g, &a, 300, 2_048 * 8192, 8192);
        assert!(small.ios_per_doc() > big.ios_per_doc());
        assert_eq!(small.postings, big.postings, "same corpus stream");
    }

    #[test]
    fn merging_to_cache_size_gets_near_one_io_per_doc() {
        // The §3 headline: lists merged to the number of cache blocks make
        // every append a hit; I/O ≈ postings/block-capacity per doc.
        let g = gen();
        let m = 64u32;
        let merged = insertion_ios(&g, &MergeAssignment::uniform(m), 300, m as u64 * 8192, 8192);
        // 30 postings/doc, 1024 postings per 8K block → ~0.03 write I/Os
        // per doc from block fills; anything below 0.5 shows the effect.
        assert!(
            merged.ios_per_doc() < 0.5,
            "merged insertion should be nearly free, got {}",
            merged.ios_per_doc()
        );
        let unmerged = insertion_ios(
            &g,
            &MergeAssignment::unmerged(3_000),
            300,
            m as u64 * 8192,
            8192,
        );
        assert!(unmerged.ios_per_doc() > merged.ios_per_doc() * 10.0);
    }

    #[test]
    fn jump_insertion_costs_more_than_plain_but_converges() {
        let g = gen();
        let m = 64u32;
        // Small blocks (p = 19 with B = 32 over N = 2³²) so each list
        // spans several blocks and pointers actually get set.
        let jump = JumpConfig::new(1024, 32, 1 << 32);
        let assignment = MergeAssignment::uniform(m);
        let plain = insertion_ios(&g, &assignment, 300, m as u64 * 1024, 1024);
        let (small_cache, ptrs) =
            jump_insertion_ios(&g, &assignment, jump, 300, m as u64 * 1024).unwrap();
        let (big_cache, _) =
            jump_insertion_ios(&g, &assignment, jump, 300, 8 * m as u64 * 1024).unwrap();
        assert!(ptrs > 0, "multi-block lists must set pointers");
        // Jump maintenance adds I/O at tight cache sizes…
        assert!(small_cache.stats.total_ios() >= plain.stats.total_ios());
        // …and a larger cache absorbs (most of) it.
        assert!(big_cache.stats.total_ios() <= small_cache.stats.total_ios());
    }

    #[test]
    fn deterministic_replay() {
        let g = gen();
        let a = MergeAssignment::uniform(32);
        let r1 = insertion_ios(&g, &a, 200, 1 << 20, 8192);
        let r2 = insertion_ios(&g, &a, 200, 1 << 20, 8192);
        assert_eq!(r1, r2);
    }
}
