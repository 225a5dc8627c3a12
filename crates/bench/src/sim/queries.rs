//! Query-cost simulation helpers (Figures 4 and 8(c)).
//!
//! Figure 8(c) compares, by blocks read per conjunctive query:
//!
//! * zigzag joins over merged lists **with jump indexes** (B ∈ {2,32,64});
//! * sequential **scan-merge** joins over the same merged lists (no jump
//!   index) — the "no jump index" denominator of the speedup;
//! * the ideal **unmerged + per-term B+ tree** baseline.
//!
//! The first two run on a real [`SearchEngine`]; the baseline builds
//! actual [`AppendOnlyBPlusTree`]s for the queried terms and joins them
//! through [`BTreeCursor`].

use std::collections::{HashMap, HashSet};
use tks_btree::{AppendOnlyBPlusTree, BTreeConfig};
use tks_core::engine::{EngineConfig, SearchEngine, SearchError};
use tks_core::zigzag::{zigzag_join_multi, DocCursor, ALL_DOCS};
use tks_corpus::DocumentGenerator;
use tks_postings::{DocId, TermId};

/// Ingest documents `0..num_docs` from the generator into a fresh engine
/// with the given configuration (document text is not stored).
pub fn build_engine(
    gen: &DocumentGenerator,
    num_docs: u64,
    mut config: EngineConfig,
) -> Result<SearchEngine, SearchError> {
    config.store_documents = false;
    let mut engine = SearchEngine::new(config)?;
    for doc in gen.docs(0..num_docs) {
        engine.add_document_terms(&doc.terms, doc.timestamp, None)?;
    }
    Ok(engine)
}

/// Blocks a sequential scan-merge join reads: every block of every
/// distinct merged list the query's terms map to.
pub fn scan_merge_blocks(engine: &SearchEngine, terms: &[TermId]) -> u64 {
    let mut lists: Vec<u32> = terms
        .iter()
        .map(|&t| engine.config().assignment.list_of(t).0)
        .collect();
    lists.sort_unstable();
    lists.dedup();
    lists
        .into_iter()
        .map(|l| {
            engine
                .list_store()
                .num_blocks(tks_postings::ListId(l))
                .unwrap_or(0)
        })
        .sum()
}

/// Build one append-only B+ tree per term in `needed`, from a single scan
/// of the corpus — the paper's ideal unmerged baseline.
pub fn build_term_btrees(
    gen: &DocumentGenerator,
    num_docs: u64,
    needed: &HashSet<TermId>,
    cfg: BTreeConfig,
) -> Result<HashMap<TermId, AppendOnlyBPlusTree>, SearchError> {
    let mut trees: HashMap<TermId, AppendOnlyBPlusTree> = needed
        .iter()
        .map(|&t| (t, AppendOnlyBPlusTree::new(cfg)))
        .collect();
    for doc in gen.docs(0..num_docs) {
        for &(t, _) in &doc.terms {
            if let Some(tree) = trees.get_mut(&t) {
                tree.insert(doc.id.0).map_err(|k| {
                    SearchError::Internal(format!(
                        "generator emitted non-increasing doc id {k} for {t}"
                    ))
                })?;
            }
        }
    }
    Ok(trees)
}

/// Conjunctive query over per-term B+ trees via zigzag join; returns the
/// matches and distinct blocks read, or `None` if a term has no tree.
pub fn btree_conjunctive_cost(
    trees: &HashMap<TermId, AppendOnlyBPlusTree>,
    terms: &[TermId],
) -> Option<(Vec<DocId>, u64)> {
    let mut cursors: Vec<Box<dyn DocCursor + '_>> = Vec::with_capacity(terms.len());
    for t in terms {
        cursors.push(Box::new(BTreeCursor::new(trees.get(t)?)));
    }
    Some(zigzag_join_multi(cursors, ALL_DOCS))
}

/// Cursor over the paper's baseline: one B+ tree per (unmerged) posting
/// list.
#[derive(Debug)]
pub struct BTreeCursor<'a> {
    tree: &'a AppendOnlyBPlusTree,
    visited: HashSet<u32>,
}

impl<'a> BTreeCursor<'a> {
    /// Wrap a tree whose keys are the posting list's document IDs.
    pub fn new(tree: &'a AppendOnlyBPlusTree) -> Self {
        Self {
            tree,
            visited: HashSet::new(),
        }
    }
}

impl DocCursor for BTreeCursor<'_> {
    fn find_geq(&mut self, k: DocId) -> Option<DocId> {
        let visited = &mut self.visited;
        self.tree
            .find_geq(k.0, &mut |n| {
                visited.insert(n.0);
            })
            .map(DocId)
    }

    fn blocks_read(&self) -> u64 {
        self.visited.len() as u64
    }

    fn len_hint(&self) -> u64 {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tks_core::merge::MergeAssignment;
    use tks_core::zigzag::zigzag_join;
    use tks_corpus::CorpusConfig;
    use tks_jump::JumpConfig;

    fn gen() -> DocumentGenerator {
        DocumentGenerator::new(CorpusConfig {
            num_docs: 400,
            vocab_size: 800,
            mean_distinct_terms: 25,
            ..Default::default()
        })
    }

    fn reference_conjunction(
        gen: &DocumentGenerator,
        num_docs: u64,
        terms: &[TermId],
    ) -> Vec<DocId> {
        gen.docs(0..num_docs)
            .filter(|d| {
                terms
                    .iter()
                    .all(|t| d.terms.iter().any(|&(dt, _)| dt == *t))
            })
            .map(|d| d.id)
            .collect()
    }

    #[test]
    fn engine_paths_and_btree_baseline_agree() {
        let g = gen();
        let terms = vec![TermId(0), TermId(1), TermId(3)];
        let expect = reference_conjunction(&g, 400, &terms);
        assert!(!expect.is_empty(), "head terms must co-occur at this scale");

        let merged = MergeAssignment::uniform(16);
        let jump_cfg = JumpConfig::new(2048, 4, 1 << 32);
        let with_jump = build_engine(
            &g,
            400,
            EngineConfig {
                assignment: merged.clone(),
                jump: Some(jump_cfg),
                ..Default::default()
            },
        )
        .unwrap();
        let without = build_engine(
            &g,
            400,
            EngineConfig {
                assignment: merged,
                jump: None,
                ..Default::default()
            },
        )
        .unwrap();
        let (a, jump_blocks) = with_jump.conjunctive_terms(&terms).unwrap();
        let (b, scan_blocks) = without.conjunctive_terms(&terms).unwrap();
        assert_eq!(a, expect);
        assert_eq!(b, expect);
        assert_eq!(scan_blocks, scan_merge_blocks(&without, &terms));
        assert!(jump_blocks > 0 && scan_blocks > 0);

        let needed: HashSet<TermId> = terms.iter().copied().collect();
        let trees = build_term_btrees(&g, 400, &needed, BTreeConfig::tiny(32, 32)).unwrap();
        let (c, btree_blocks) = btree_conjunctive_cost(&trees, &terms).unwrap();
        assert_eq!(c, expect);
        assert!(btree_blocks > 0);
    }

    #[test]
    fn btree_cursor_joins() {
        let mut t1 = AppendOnlyBPlusTree::new(BTreeConfig::tiny(4, 4));
        let mut t2 = AppendOnlyBPlusTree::new(BTreeConfig::tiny(4, 4));
        for k in (0..100).map(|i| i * 2) {
            t1.insert(k).unwrap();
        }
        for k in (0..70).map(|i| i * 3) {
            t2.insert(k).unwrap();
        }
        let mut c1 = BTreeCursor::new(&t1);
        let mut c2 = BTreeCursor::new(&t2);
        let got = zigzag_join(&mut c1, &mut c2, ALL_DOCS);
        let expect: Vec<DocId> = (0..200).filter(|d| d % 6 == 0).map(DocId).collect();
        assert_eq!(got, expect);
        assert!(c1.blocks_read() > 0 && c2.blocks_read() > 0);
    }

    #[test]
    fn missing_term_tree_is_none() {
        let trees = HashMap::new();
        assert!(btree_conjunctive_cost(&trees, &[TermId(9)]).is_none());
    }
}
