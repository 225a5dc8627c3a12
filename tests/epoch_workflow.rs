//! Integration test of the full epoch workflow (paper §3.3 + §4.5 end):
//! per-epoch indexes, statistics learned across epoch boundaries, queries
//! spanning epochs with globally consistent results, time-restricted
//! investigations touching only overlapping epochs, and the adaptive
//! jump-index decision.

use tks_bench::epoch::{EpochConfig, EpochManager};
use trustworthy_search::core::merge::MergeAssignment;
use trustworthy_search::corpus::{CorpusConfig, DocumentGenerator};
use trustworthy_search::jump::JumpConfig;
use trustworthy_search::prelude::*;

const DOCS: u64 = 900;
const PER_EPOCH: u64 = 300;

fn corpus() -> DocumentGenerator {
    DocumentGenerator::new(CorpusConfig {
        num_docs: DOCS,
        vocab_size: 800,
        mean_distinct_terms: 25,
        ..Default::default()
    })
}

fn manager() -> EpochManager {
    EpochManager::new(EpochConfig {
        docs_per_epoch: PER_EPOCH,
        vocab_size: 800,
        num_lists: 32,
        unmerged_terms: 4,
        rank_by_query_freq: false,
        ..Default::default()
    })
}

fn ingest(m: &mut EpochManager, gen: &DocumentGenerator) {
    for d in gen.docs(0..DOCS) {
        let global = m.add_document_terms(&d.terms, d.timestamp).unwrap();
        assert_eq!(global, d.id, "global IDs must track commit order");
    }
}

#[test]
fn epoch_results_match_single_engine_reference() {
    let gen = corpus();
    let mut epochs = manager();
    ingest(&mut epochs, &gen);
    assert_eq!(epochs.num_epochs(), 3);

    // Reference: one flat engine over the same corpus.
    let mut flat = SearchEngine::new(EngineConfig {
        assignment: MergeAssignment::uniform(32),
        store_documents: false,
        ..Default::default()
    })
    .unwrap();
    for d in gen.docs(0..DOCS) {
        flat.add_document_terms(&d.terms, d.timestamp, None)
            .unwrap();
    }

    for probe in 0..30u32 {
        let terms = [TermId(probe), TermId(probe * 3 + 1)];
        let mut a = epochs.conjunctive_terms(&terms).unwrap();
        let (b, _) = flat.conjunctive_terms(&terms).unwrap();
        a.sort_unstable();
        assert_eq!(a, b, "terms {terms:?}");
    }
}

#[test]
fn later_epochs_learn_assignments() {
    let gen = corpus();
    let mut epochs = manager();
    ingest(&mut epochs, &gen);
    // The current (3rd) epoch must use a learned Table assignment with
    // the corpus's hottest terms (low IDs, by construction) unmerged.
    match epochs.current_assignment() {
        Some(MergeAssignment::Table { list_of, .. }) => {
            let private: Vec<u32> = (0..800u32).filter(|&t| list_of[t as usize] < 4).collect();
            assert_eq!(private.len(), 4);
            assert!(
                private.iter().all(|&t| t < 32),
                "unmerged terms should be head terms, got {private:?}"
            );
        }
        other => panic!("expected learned assignment, got {other:?}"),
    }
}

#[test]
fn time_restriction_prunes_epochs() {
    let gen = corpus();
    let mut epochs = manager();
    ingest(&mut epochs, &gen);
    // Query an always-present head term within epoch 2's time span only.
    let from = gen.doc(PER_EPOCH).timestamp;
    let to = gen.doc(2 * PER_EPOCH - 1).timestamp;
    let (docs, scanned) = epochs.conjunctive_in_range(&[TermId(0)], from, to).unwrap();
    assert_eq!(scanned, 1, "only the middle epoch overlaps");
    assert!(docs
        .iter()
        .all(|d| (PER_EPOCH..2 * PER_EPOCH).contains(&d.0)));
    assert!(!docs.is_empty());
}

#[test]
fn adaptive_jump_workflow() {
    let gen = corpus();
    let mut epochs = EpochManager::new(EpochConfig {
        docs_per_epoch: PER_EPOCH,
        vocab_size: 800,
        num_lists: 32,
        unmerged_terms: 0,
        adaptive_jump: Some(JumpConfig::new(2048, 4, 1 << 32)),
        ..Default::default()
    });
    // Epoch 1 while issuing long conjunctive queries.
    for d in gen.docs(0..PER_EPOCH) {
        epochs.add_document_terms(&d.terms, d.timestamp).unwrap();
    }
    assert_eq!(
        epochs.current_jump_enabled(),
        Some(false),
        "no statistics yet"
    );
    for i in 0..20u32 {
        let terms: Vec<TermId> = (0..5).map(|j| TermId((i + j * 7) % 50)).collect();
        epochs.conjunctive_terms(&terms).unwrap();
    }
    // Epoch 2 sees the learned many-keyword pattern.
    for d in gen.docs(PER_EPOCH..2 * PER_EPOCH) {
        epochs.add_document_terms(&d.terms, d.timestamp).unwrap();
    }
    assert_eq!(epochs.current_jump_enabled(), Some(true));
    // Queries still return correct results with the jump index on.
    let docs = epochs.conjunctive_terms(&[TermId(0), TermId(1)]).unwrap();
    let reference: Vec<u64> = gen
        .docs(0..2 * PER_EPOCH)
        .filter(|d| {
            d.terms.iter().any(|&(t, _)| t == TermId(0))
                && d.terms.iter().any(|&(t, _)| t == TermId(1))
        })
        .map(|d| d.id.0)
        .collect();
    let got: Vec<u64> = docs.iter().map(|d| d.0).collect();
    assert_eq!(got, reference);
}
