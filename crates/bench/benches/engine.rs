//! Micro-benchmarks for the end-to-end engine: real-time document
//! insertion (the §2.3 requirement), disjunctive ranked search, and
//! conjunctive zigzag search — with and without jump indexes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tks_bench::buffered::BufferedIndex;
use tks_bench::sim::build_engine;
use tks_core::engine::{EngineConfig, SearchEngine};
use tks_core::merge::MergeAssignment;
use tks_core::query::Query;
use tks_corpus::{CorpusConfig, DocumentGenerator, QueryConfig, QueryGenerator};
use tks_jump::JumpConfig;
use tks_postings::Timestamp;

fn corpus() -> DocumentGenerator {
    DocumentGenerator::new(CorpusConfig {
        num_docs: 5_000,
        vocab_size: 20_000,
        mean_distinct_terms: 60,
        ..Default::default()
    })
}

fn queries() -> QueryGenerator {
    QueryGenerator::new(QueryConfig {
        query_vocab: 5_000,
        ..Default::default()
    })
}

fn bench_insert(c: &mut Criterion) {
    let gen = corpus();
    let docs: Vec<_> = gen.docs(0..2_000).collect();
    let mut g = c.benchmark_group("engine_insert");
    for (name, jump) in [
        ("plain", None),
        ("jump_b32", Some(JumpConfig::new(8192, 32, 1 << 32))),
    ] {
        g.bench_function(name, |bench| {
            bench.iter(|| {
                let mut e = SearchEngine::new(EngineConfig {
                    assignment: MergeAssignment::uniform(128),
                    jump,
                    store_documents: false,
                    ..Default::default()
                })
                .unwrap();
                for d in &docs {
                    e.add_document_terms(&d.terms, d.timestamp, None).unwrap();
                }
                black_box(e.num_docs())
            });
        });
    }
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let gen = corpus();
    let qgen = queries();
    let qs: Vec<_> = qgen.queries(0..200).collect();
    let configs = [
        ("scan", None),
        ("jump_b32", Some(JumpConfig::new(8192, 32, 1 << 32))),
    ];
    let mut g = c.benchmark_group("engine_search");
    for (name, jump) in configs {
        let engine = build_engine(
            &gen,
            5_000,
            EngineConfig {
                assignment: MergeAssignment::uniform(128),
                jump,
                ..Default::default()
            },
        )
        .unwrap();
        g.bench_with_input(
            BenchmarkId::new("disjunctive_top10", name),
            &engine,
            |bench, e| {
                let mut i = 0;
                bench.iter(|| {
                    i = (i + 1) % qs.len();
                    black_box(
                        e.execute(&Query::disjunctive(&qs[i].terms[..], 10))
                            .unwrap()
                            .hits,
                    )
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("conjunctive", name),
            &engine,
            |bench, e| {
                let mut i = 0;
                bench.iter(|| {
                    i = (i + 1) % qs.len();
                    black_box(e.conjunctive_terms(&qs[i].terms).unwrap())
                });
            },
        );
    }
    g.finish();
}

fn bench_text_path(c: &mut Criterion) {
    c.bench_function("engine/add_document_text", |bench| {
        let mut e = SearchEngine::new(EngineConfig {
            assignment: MergeAssignment::uniform(64),
            ..Default::default()
        })
        .unwrap();
        let mut i = 0u64;
        bench.iter(|| {
            i += 1;
            let text = format!(
                "compliance record {i} quarterly filing earnings statement audit retention"
            );
            black_box(e.add_document(&text, Timestamp(i)).unwrap())
        });
    });
}

/// The §2.3 tradeoff, timed: real-time trustworthy insertion vs the
/// buffered (untrustworthy) baseline over the same merged store.
fn bench_buffered_vs_realtime(c: &mut Criterion) {
    let gen = corpus();
    let docs: Vec<_> = gen.docs(0..2_000).collect();
    let mut g = c.benchmark_group("buffered_vs_realtime");
    g.bench_function("realtime_engine", |bench| {
        bench.iter(|| {
            let mut e = SearchEngine::new(EngineConfig {
                assignment: MergeAssignment::uniform(128),
                store_documents: false,
                ..Default::default()
            })
            .unwrap();
            for d in &docs {
                e.add_document_terms(&d.terms, d.timestamp, None).unwrap();
            }
            black_box(e.num_docs())
        });
    });
    g.bench_function("buffered_flush_500", |bench| {
        bench.iter(|| {
            let mut idx = BufferedIndex::new(MergeAssignment::uniform(128), 8192, 500).unwrap();
            for d in &docs {
                idx.add_document_terms(&d.terms, None).unwrap();
            }
            idx.flush(None).unwrap();
            black_box(idx.num_docs())
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_insert, bench_search, bench_text_path, bench_buffered_vs_realtime
}
criterion_main!(benches);
