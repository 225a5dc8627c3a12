//! End-to-end integration: synthetic corpus → engine → queries, checked
//! against brute-force reference results across merge strategies and
//! access paths.

use tks_bench::sim::build_engine;
use trustworthy_search::core::engine::{EngineConfig, SearchEngine};
use trustworthy_search::core::merge::MergeAssignment;
use trustworthy_search::corpus::{CorpusConfig, DocumentGenerator, QueryConfig, QueryGenerator};
use trustworthy_search::jump::JumpConfig;
use trustworthy_search::prelude::*;

const DOCS: u64 = 600;

fn corpus() -> DocumentGenerator {
    DocumentGenerator::new(CorpusConfig {
        num_docs: DOCS,
        vocab_size: 1_500,
        mean_distinct_terms: 30,
        ..Default::default()
    })
}

fn reference_conjunction(gen: &DocumentGenerator, terms: &[TermId]) -> Vec<DocId> {
    gen.docs(0..DOCS)
        .filter(|d| {
            terms
                .iter()
                .all(|t| d.terms.iter().any(|&(dt, _)| dt == *t))
        })
        .map(|d| d.id)
        .collect()
}

fn reference_disjunction(gen: &DocumentGenerator, terms: &[TermId]) -> Vec<DocId> {
    gen.docs(0..DOCS)
        .filter(|d| {
            terms
                .iter()
                .any(|t| d.terms.iter().any(|&(dt, _)| dt == *t))
        })
        .map(|d| d.id)
        .collect()
}

fn engines() -> Vec<(&'static str, SearchEngine)> {
    let gen = corpus();
    vec![
        (
            "unmerged",
            build_engine(
                &gen,
                DOCS,
                EngineConfig {
                    assignment: MergeAssignment::unmerged(1_500),
                    ..Default::default()
                },
            )
            .unwrap(),
        ),
        (
            "uniform-32",
            build_engine(
                &gen,
                DOCS,
                EngineConfig {
                    assignment: MergeAssignment::uniform(32),
                    ..Default::default()
                },
            )
            .unwrap(),
        ),
        (
            "uniform-32+jump-b4",
            build_engine(
                &gen,
                DOCS,
                EngineConfig {
                    assignment: MergeAssignment::uniform(32),
                    jump: Some(JumpConfig::new(2048, 4, 1 << 32)),
                    ..Default::default()
                },
            )
            .unwrap(),
        ),
        (
            "uniform-32+jump-b32",
            build_engine(
                &gen,
                DOCS,
                EngineConfig {
                    assignment: MergeAssignment::uniform(32),
                    jump: Some(JumpConfig::new(8192, 32, 1 << 32)),
                    ..Default::default()
                },
            )
            .unwrap(),
        ),
    ]
}

#[test]
fn conjunctive_queries_match_reference_across_configurations() {
    let gen = corpus();
    let qgen = QueryGenerator::new(QueryConfig {
        query_vocab: 400,
        ..Default::default()
    });
    let engines = engines();
    for qid in 0..40u64 {
        let q = qgen.query(qid);
        let expect = reference_conjunction(&gen, &q.terms);
        for (name, e) in &engines {
            let (got, _) = e.conjunctive_terms(&q.terms).unwrap();
            assert_eq!(got, expect, "config {name}, query {qid} ({:?})", q.terms);
        }
    }
}

#[test]
fn disjunctive_result_sets_match_reference_across_configurations() {
    let gen = corpus();
    let qgen = QueryGenerator::new(QueryConfig {
        query_vocab: 400,
        ..Default::default()
    });
    let engines = engines();
    for qid in 0..25u64 {
        let q = qgen.query(qid);
        let mut expect = reference_disjunction(&gen, &q.terms);
        expect.sort_unstable();
        for (name, e) in &engines {
            let mut got: Vec<DocId> = e
                .execute(&Query::disjunctive(&q.terms[..], usize::MAX))
                .unwrap()
                .hits
                .iter()
                .map(|h| h.doc)
                .collect();
            got.sort_unstable();
            assert_eq!(got, expect, "config {name}, query {qid}");
        }
    }
}

#[test]
fn rankings_are_identical_regardless_of_merging() {
    // Merging changes the physical layout, never the logical result: the
    // ranked lists must be identical across configurations.
    let qgen = QueryGenerator::new(QueryConfig {
        query_vocab: 400,
        ..Default::default()
    });
    let engines = engines();
    for qid in 0..25u64 {
        let q = qgen.query(qid);
        let baseline = engines[0]
            .1
            .execute(&Query::disjunctive(&q.terms[..], 20))
            .unwrap()
            .hits;
        for (name, e) in &engines[1..] {
            let hits = e
                .execute(&Query::disjunctive(&q.terms[..], 20))
                .unwrap()
                .hits;
            assert_eq!(hits.len(), baseline.len(), "config {name}");
            for (a, b) in hits.iter().zip(&baseline) {
                assert_eq!(a.doc, b.doc, "config {name}, query {qid}");
                assert!(
                    (a.score - b.score).abs() < 1e-9,
                    "config {name}, query {qid}"
                );
            }
        }
    }
}

#[test]
fn time_range_queries_match_reference() {
    let gen = corpus();
    let e = build_engine(
        &gen,
        DOCS,
        EngineConfig {
            assignment: MergeAssignment::uniform(16),
            ..Default::default()
        },
    )
    .unwrap();
    let ts = |d: u64| gen.doc(d).timestamp;
    let (from, to) = (ts(100), ts(399));
    let got = e.execute(&Query::time_range(from, to)).unwrap().docs();
    let expect: Vec<DocId> = gen
        .docs(0..DOCS)
        .filter(|d| d.timestamp >= from && d.timestamp <= to)
        .map(|d| d.id)
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn audits_clean_after_large_ingest() {
    for (name, e) in engines() {
        let report = e.audit();
        assert!(report.is_clean(), "config {name}: {report:?}");
    }
}

#[test]
fn io_accounting_is_deterministic() {
    let gen = corpus();
    let cfg = || EngineConfig {
        assignment: MergeAssignment::uniform(32),
        cache_bytes: 64 * 8192,
        store_documents: false,
        ..Default::default()
    };
    let a = build_engine(&gen, DOCS, cfg()).unwrap();
    let b = build_engine(&gen, DOCS, cfg()).unwrap();
    assert_eq!(a.io_stats(), b.io_stats());
    assert!(a.io_stats().total_ios() > 0 || a.io_stats().hits > 0);
}
