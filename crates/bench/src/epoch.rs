//! Epoch-based indexing with learned statistics (paper §3.3).
//!
//! "One possible approach is to divide time into epochs and maintain a
//! separate index for the documents inserted in each epoch.  The choice of
//! posting lists to merge in any particular epoch can be determined by the
//! statistics collected during the previous epoch.  Queries must be
//! answered by scanning the indexes of all epochs. … For [time-restricted]
//! queries, one only needs to consider those indexes whose epochs overlap
//! with the time interval specified in the query."
//!
//! [`EpochManager`] maintains one [`SearchEngine`] per epoch over a fixed
//! term-ID vocabulary (the synthetic-workload setting in which the paper
//! evaluates learning, Figures 3(f)–3(g)).  When an epoch fills, the next
//! epoch's merge assignment keeps the previously-hottest terms unmerged —
//! ranked by observed query frequency when query statistics exist, else by
//! observed document frequency.

use tks_core::engine::{EngineConfig, SearchEngine, SearchError, SearchHit};
use tks_core::merge::MergeAssignment;
use tks_core::query::Query;
use tks_postings::{DocId, TermId, Timestamp};

/// Epoch-manager configuration.
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// Documents per epoch before rolling over.
    pub docs_per_epoch: u64,
    /// Fixed vocabulary size (term IDs must stay below this).
    pub vocab_size: u32,
    /// Physical lists per epoch index (`M` = cache blocks).
    pub num_lists: u32,
    /// How many of the previous epoch's hottest terms stay unmerged.
    pub unmerged_terms: usize,
    /// Prefer query-frequency ranking (Figure 3(f)) over document-
    /// frequency ranking (Figure 3(g)) when query statistics exist.
    pub rank_by_query_freq: bool,
    /// Candidate jump-index geometry for *adaptive* per-epoch decisions
    /// (paper §4.5: "One can use the epoch scheme … to learn the query
    /// pattern in one epoch and use it to decide whether to include a
    /// jump index for the next epoch").  When set, each new epoch enables
    /// the jump index iff the previous epoch's workload was dominated by
    /// many-keyword conjunctive queries; when `None`, the template's
    /// `engine.jump` is used unconditionally.
    pub adaptive_jump: Option<tks_jump::JumpConfig>,
    /// Mean conjunctive keyword count above which the jump index pays off
    /// (the paper's crossover is between three and four keywords).
    pub jump_keyword_threshold: f64,
    /// Template for each epoch's engine (its `assignment` is replaced).
    pub engine: EngineConfig,
}

impl Default for EpochConfig {
    fn default() -> Self {
        Self {
            docs_per_epoch: 1_000,
            vocab_size: 10_000,
            num_lists: 64,
            unmerged_terms: 8,
            rank_by_query_freq: true,
            adaptive_jump: None,
            jump_keyword_threshold: 3.5,
            engine: EngineConfig {
                store_documents: false,
                ..EngineConfig::default()
            },
        }
    }
}

#[derive(Debug)]
struct Epoch {
    engine: SearchEngine,
    /// Global ID of this epoch's first document.
    first_doc: u64,
    start_ts: Timestamp,
    end_ts: Timestamp,
}

/// Multi-epoch trustworthy index (see module docs).
#[derive(Debug)]
pub struct EpochManager {
    config: EpochConfig,
    epochs: Vec<Epoch>,
    total_docs: u64,
    /// Per-term document frequency observed in the *current* epoch.
    doc_counts: Vec<u64>,
    /// Per-term query frequency observed in the *current* epoch.
    query_counts: Vec<u64>,
    /// Statistics frozen from the previous epoch, used for the current
    /// epoch's merge assignment.
    prev_doc_counts: Option<Vec<u64>>,
    prev_query_counts: Option<Vec<u64>>,
    /// Query-shape statistics of the *current* epoch, for the adaptive
    /// jump-index decision: (disjunctive queries, conjunctive queries,
    /// total conjunctive keywords).
    query_shape: (u64, u64, u64),
    prev_query_shape: Option<(u64, u64, u64)>,
}

impl EpochManager {
    /// Create an empty manager; the first epoch opens on first insert.
    pub fn new(config: EpochConfig) -> Self {
        let v = config.vocab_size as usize;
        Self {
            config,
            epochs: Vec::new(),
            total_docs: 0,
            doc_counts: vec![0; v],
            query_counts: vec![0; v],
            prev_doc_counts: None,
            prev_query_counts: None,
            query_shape: (0, 0, 0),
            prev_query_shape: None,
        }
    }

    /// Number of epochs opened so far.
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Total committed documents across epochs.
    pub fn num_docs(&self) -> u64 {
        self.total_docs
    }

    /// The merge assignment the *current* epoch runs with (diagnostics).
    pub fn current_assignment(&self) -> Option<&MergeAssignment> {
        self.epochs.last().map(|e| &e.engine.config().assignment)
    }

    fn next_assignment(&self) -> MergeAssignment {
        let ranked_source = if self.config.rank_by_query_freq {
            self.prev_query_counts
                .as_ref()
                .or(self.prev_doc_counts.as_ref())
        } else {
            self.prev_doc_counts.as_ref()
        };
        match ranked_source {
            Some(counts) if self.config.unmerged_terms > 0 => {
                let mut ranked: Vec<TermId> = (0..self.config.vocab_size).map(TermId).collect();
                ranked.sort_by_key(|t| std::cmp::Reverse(counts[t.0 as usize]));
                MergeAssignment::popular_unmerged(
                    &ranked,
                    self.config.unmerged_terms,
                    self.config.num_lists,
                    self.config.vocab_size,
                )
            }
            _ => MergeAssignment::uniform(self.config.num_lists),
        }
    }

    /// The §4.5 decision: enable the jump index when the learned workload
    /// is dominated by many-keyword conjunctive queries.
    fn next_jump(&self) -> Option<tks_jump::JumpConfig> {
        let Some(candidate) = self.config.adaptive_jump else {
            return self.config.engine.jump;
        };
        match self.prev_query_shape {
            Some((disj, conj, conj_kw)) if conj > 0 => {
                let conj_dominates = conj >= disj;
                let avg_kw = conj_kw as f64 / conj as f64;
                (conj_dominates && avg_kw >= self.config.jump_keyword_threshold)
                    .then_some(candidate)
            }
            // No learned statistics yet: start conservative (no index),
            // as the paper's default for disjunctive-or-short workloads.
            _ => None,
        }
    }

    fn roll_epoch(&mut self, ts: Timestamp) -> Result<(), SearchError> {
        // Freeze the closing epoch's statistics for the next one.
        if !self.epochs.is_empty() {
            self.prev_doc_counts = Some(std::mem::replace(
                &mut self.doc_counts,
                vec![0; self.config.vocab_size as usize],
            ));
            self.prev_query_counts = Some(std::mem::replace(
                &mut self.query_counts,
                vec![0; self.config.vocab_size as usize],
            ));
            self.prev_query_shape = Some(std::mem::take(&mut self.query_shape));
        }
        let assignment = self.next_assignment();
        let jump = self.next_jump();
        let engine = SearchEngine::new(EngineConfig {
            assignment,
            jump,
            ..self.config.engine.clone()
        })?;
        self.epochs.push(Epoch {
            engine,
            first_doc: self.total_docs,
            start_ts: ts,
            end_ts: ts,
        });
        Ok(())
    }

    /// Whether the current epoch runs with a jump index (diagnostics).
    pub fn current_jump_enabled(&self) -> Option<bool> {
        self.epochs.last().map(|e| e.engine.config().jump.is_some())
    }

    /// Commit a document; returns its *global* document ID.
    pub fn add_document_terms(
        &mut self,
        terms: &[(TermId, u32)],
        ts: Timestamp,
    ) -> Result<DocId, SearchError> {
        let needs_new = match self.epochs.last() {
            None => true,
            Some(e) => e.engine.num_docs() >= self.config.docs_per_epoch,
        };
        if needs_new {
            self.roll_epoch(ts)?;
        }
        let Some(epoch) = self.epochs.last_mut() else {
            return Err(SearchError::Internal("no epoch open after roll".into()));
        };
        epoch.engine.add_document_terms(terms, ts, None)?;
        epoch.end_ts = ts;
        for &(t, _) in terms {
            self.doc_counts[t.0 as usize] += 1;
        }
        self.total_docs += 1;
        Ok(DocId(self.total_docs - 1))
    }

    fn record_query(&mut self, terms: &[TermId]) {
        for &t in terms {
            if let Some(c) = self.query_counts.get_mut(t.0 as usize) {
                *c += 1;
            }
        }
    }

    /// Ranked disjunctive search across *all* epochs ("queries must be
    /// answered by scanning the indexes of all epochs").
    pub fn search_terms(&mut self, terms: &[TermId], top_k: usize) -> Vec<SearchHit> {
        self.record_query(terms);
        self.query_shape.0 += 1;
        let mut hits: Vec<SearchHit> = Vec::new();
        for e in &self.epochs {
            let epoch_hits = e
                .engine
                .execute(&Query::disjunctive(terms, top_k))
                .map(|r| r.hits)
                .unwrap_or_default();
            for h in epoch_hits {
                hits.push(SearchHit {
                    doc: DocId(e.first_doc + h.doc.0),
                    score: h.score,
                });
            }
        }
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(top_k);
        hits
    }

    /// Conjunctive search across all epochs (per-epoch intersections,
    /// concatenated in global doc order).
    pub fn conjunctive_terms(&mut self, terms: &[TermId]) -> Result<Vec<DocId>, SearchError> {
        self.record_query(terms);
        self.query_shape.1 += 1;
        self.query_shape.2 += terms.len() as u64;
        let mut out = Vec::new();
        for e in &self.epochs {
            let (docs, _) = e.engine.conjunctive_terms(terms)?;
            out.extend(docs.into_iter().map(|d| DocId(e.first_doc + d.0)));
        }
        Ok(out)
    }

    /// Conjunctive search restricted to a commit-time range: only epochs
    /// whose span overlaps the range are consulted — the §3.3 payoff.
    /// Returns the matches and the number of epochs actually scanned.
    pub fn conjunctive_in_range(
        &mut self,
        terms: &[TermId],
        from: Timestamp,
        to: Timestamp,
    ) -> Result<(Vec<DocId>, usize), SearchError> {
        self.record_query(terms);
        self.query_shape.1 += 1;
        self.query_shape.2 += terms.len() as u64;
        let mut out = Vec::new();
        let mut scanned = 0;
        for e in &self.epochs {
            if e.end_ts < from || e.start_ts > to {
                continue; // epoch disjoint from the query interval
            }
            scanned += 1;
            let (docs, _) = e.engine.conjunctive_terms(terms)?;
            for d in docs {
                let global = DocId(e.first_doc + d.0);
                let ts = e.engine.document_timestamp(d).ok_or_else(|| {
                    SearchError::Internal(format!("epoch-local {d} has no timestamp"))
                })?;
                if ts >= from && ts <= to {
                    out.push(global);
                }
            }
        }
        Ok((out, scanned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(docs_per_epoch: u64) -> EpochConfig {
        EpochConfig {
            docs_per_epoch,
            vocab_size: 100,
            num_lists: 8,
            unmerged_terms: 2,
            ..Default::default()
        }
    }

    fn doc(terms: &[u32]) -> Vec<(TermId, u32)> {
        let mut v: Vec<(TermId, u32)> = terms.iter().map(|&t| (TermId(t), 1)).collect();
        v.sort_unstable_by_key(|&(t, _)| t);
        v
    }

    #[test]
    fn epochs_roll_at_capacity() {
        let mut m = EpochManager::new(config(3));
        for i in 0..10u64 {
            m.add_document_terms(&doc(&[1, 2, 3]), Timestamp(i))
                .unwrap();
        }
        assert_eq!(m.num_epochs(), 4); // 3+3+3+1
        assert_eq!(m.num_docs(), 10);
    }

    #[test]
    fn first_epoch_is_uniform_then_learned() {
        let mut m = EpochManager::new(config(3));
        m.add_document_terms(&doc(&[7, 8]), Timestamp(0)).unwrap();
        assert!(matches!(
            m.current_assignment(),
            Some(MergeAssignment::Uniform { .. })
        ));
        // Make term 7 clearly hottest, both in docs and queries.
        m.add_document_terms(&doc(&[7]), Timestamp(1)).unwrap();
        m.search_terms(&[TermId(7)], 5);
        m.search_terms(&[TermId(7)], 5);
        m.add_document_terms(&doc(&[7, 9]), Timestamp(2)).unwrap();
        // Next insert rolls the epoch; the new assignment is learned.
        m.add_document_terms(&doc(&[1]), Timestamp(3)).unwrap();
        match m.current_assignment() {
            Some(MergeAssignment::Table { list_of, .. }) => {
                // Term 7 (hottest by query freq) holds private list 0.
                assert_eq!(list_of[7], 0);
            }
            other => panic!("expected learned Table assignment, got {other:?}"),
        }
    }

    #[test]
    fn search_spans_epochs_with_global_ids() {
        let mut m = EpochManager::new(config(2));
        m.add_document_terms(&doc(&[5]), Timestamp(0)).unwrap(); // global 0
        m.add_document_terms(&doc(&[6]), Timestamp(1)).unwrap(); // global 1
        m.add_document_terms(&doc(&[5, 6]), Timestamp(2)).unwrap(); // global 2, epoch 2
        let hits = m.search_terms(&[TermId(5)], 10);
        let docs: Vec<u64> = hits.iter().map(|h| h.doc.0).collect();
        assert!(docs.contains(&0) && docs.contains(&2) && !docs.contains(&1));
        let conj = m.conjunctive_terms(&[TermId(5), TermId(6)]).unwrap();
        assert_eq!(conj, vec![DocId(2)]);
    }

    #[test]
    fn time_range_skips_disjoint_epochs() {
        let mut m = EpochManager::new(config(2));
        for i in 0..8u64 {
            m.add_document_terms(&doc(&[3]), Timestamp(i * 100))
                .unwrap();
        }
        assert_eq!(m.num_epochs(), 4);
        // Range covering only epoch 2 (timestamps 400, 500).
        let (docs, scanned) = m
            .conjunctive_in_range(&[TermId(3)], Timestamp(400), Timestamp(500))
            .unwrap();
        assert_eq!(docs, vec![DocId(4), DocId(5)]);
        assert_eq!(scanned, 1, "only the overlapping epoch is consulted");
    }

    #[test]
    fn adaptive_jump_follows_query_shape() {
        let jump_cfg = tks_jump::JumpConfig::new(2048, 4, 1 << 32);
        let mut m = EpochManager::new(EpochConfig {
            adaptive_jump: Some(jump_cfg),
            jump_keyword_threshold: 3.5,
            ..config(2)
        });
        // Epoch 1: no statistics yet → conservative, no jump index.
        m.add_document_terms(&doc(&[1, 2, 3, 4, 5]), Timestamp(0))
            .unwrap();
        assert_eq!(m.current_jump_enabled(), Some(false));
        // Workload: many-keyword conjunctive queries.
        for _ in 0..10 {
            m.conjunctive_terms(&[TermId(1), TermId(2), TermId(3), TermId(4), TermId(5)])
                .unwrap();
        }
        m.add_document_terms(&doc(&[1, 2]), Timestamp(1)).unwrap();
        // Epoch 2 learns the pattern and enables the jump index.
        m.add_document_terms(&doc(&[1]), Timestamp(2)).unwrap();
        assert_eq!(m.current_jump_enabled(), Some(true));
        // Workload flips to disjunctive-dominated…
        for _ in 0..20 {
            m.search_terms(&[TermId(1)], 5);
        }
        m.add_document_terms(&doc(&[2]), Timestamp(3)).unwrap();
        // …so epoch 3 drops the index again.
        m.add_document_terms(&doc(&[3]), Timestamp(4)).unwrap();
        assert_eq!(m.current_jump_enabled(), Some(false));
    }

    #[test]
    fn non_adaptive_uses_template_jump() {
        let jump_cfg = tks_jump::JumpConfig::new(2048, 4, 1 << 32);
        let mut m = EpochManager::new(EpochConfig {
            engine: EngineConfig {
                jump: Some(jump_cfg),
                store_documents: false,
                ..EngineConfig::default()
            },
            ..config(2)
        });
        m.add_document_terms(&doc(&[1]), Timestamp(0)).unwrap();
        assert_eq!(m.current_jump_enabled(), Some(true));
    }

    #[test]
    fn rank_by_doc_freq_variant() {
        let mut m = EpochManager::new(EpochConfig {
            rank_by_query_freq: false,
            ..config(2)
        });
        m.add_document_terms(&doc(&[9, 1]), Timestamp(0)).unwrap();
        m.add_document_terms(&doc(&[9]), Timestamp(1)).unwrap();
        m.add_document_terms(&doc(&[0]), Timestamp(2)).unwrap(); // rolls
        match m.current_assignment() {
            Some(MergeAssignment::Table { list_of, .. }) => assert_eq!(list_of[9], 0),
            other => panic!("expected Table, got {other:?}"),
        }
    }
}
