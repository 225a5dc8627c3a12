//! Small-scale smoke versions of the paper's experiments, asserting the
//! *shape* claims that EXPERIMENTS.md reports at full harness scale.

use std::collections::HashSet;
use tks_bench::cost::{cumulative_workload_curve, unmerged_workload_cost, workload_cost};
use tks_bench::sim::{
    btree_conjunctive_cost, build_engine, build_term_btrees, insertion_ios, jump_insertion_ios,
    scan_merge_blocks,
};
use trustworthy_search::core::engine::EngineConfig;
use trustworthy_search::core::merge::MergeAssignment;
use trustworthy_search::corpus::{
    CorpusConfig, DocumentGenerator, QueryConfig, QueryGenerator, QueryTermStats, TermStats,
};
use trustworthy_search::jump::{space_overhead, JumpConfig};
use trustworthy_search::postings::{DocId, ListId, TermId};

fn corpus(docs: u64) -> DocumentGenerator {
    DocumentGenerator::new(CorpusConfig {
        num_docs: docs,
        vocab_size: 5_000,
        mean_distinct_terms: 40,
        ..Default::default()
    })
}

#[test]
fn fig2_shape_caching_helps_but_plateaus() {
    let gen = corpus(800);
    let a = MergeAssignment::unmerged(5_000);
    let tiny = insertion_ios(&gen, &a, 800, 32 * 8192, 8192);
    let medium = insertion_ios(&gen, &a, 800, 512 * 8192, 8192);
    let huge = insertion_ios(&gen, &a, 800, 1 << 30, 8192);
    assert!(tiny.ios_per_doc() > medium.ios_per_doc());
    assert!(medium.ios_per_doc() > huge.ios_per_doc());
    // Even a medium cache leaves many I/Os — the Zipf-tail effect.
    assert!(medium.ios_per_doc() > 1.0);
}

#[test]
fn fig3_shape_merging_cost_falls_with_cache_and_few_terms_dominate() {
    let gen = corpus(800);
    let qgen = QueryGenerator::new(QueryConfig {
        query_vocab: 1_500,
        ..Default::default()
    });
    let ti = TermStats::collect(&gen, 0..800).doc_freq;
    let qi = QueryTermStats::collect(&qgen, 0..5_000, 5_000).query_freq;
    let unmerged = unmerged_workload_cost(&ti, &qi);

    // 3(d)/(e): the ratio improves monotonically (within noise) with M.
    let r = |m: u32| workload_cost(&MergeAssignment::uniform(m), &ti, &qi) as f64 / unmerged as f64;
    assert!(r(16) > r(256));
    assert!(r(256) > r(2_048));
    assert!(
        r(2_048) < 1.5,
        "large M must approach the unmerged cost, got {}",
        r(2_048)
    );

    // 3(c): the top 5% of QF-ranked terms carry most of the cost.
    let curve = cumulative_workload_curve(&ti, &qi, true, 5_000);
    let total = *curve.last().unwrap() as f64;
    let head = curve[249] as f64; // top 250 of 5000
    assert!(head / total > 0.5, "head fraction {}", head / total);

    // Popular-terms-unmerged beats uniform at the same M.
    let ranked = QueryTermStats {
        query_freq: qi.clone(),
        num_queries: 5_000,
    }
    .terms_by_rank();
    let uniform = workload_cost(&MergeAssignment::uniform(64), &ti, &qi);
    let popular = workload_cost(
        &MergeAssignment::popular_unmerged(&ranked, 16, 64, 5_000),
        &ti,
        &qi,
    );
    assert!(popular < uniform);
}

#[test]
fn fig3fg_shape_learned_statistics_are_stable() {
    let gen = corpus(1_000);
    let qgen = QueryGenerator::new(QueryConfig {
        query_vocab: 1_500,
        ..Default::default()
    });
    let ti = TermStats::collect(&gen, 0..1_000).doc_freq;
    let qi = QueryTermStats::collect(&qgen, 0..5_000, 5_000).query_freq;
    let unmerged = unmerged_workload_cost(&ti, &qi) as f64;

    let full_rank = TermStats {
        doc_freq: ti.clone(),
        num_docs: 1_000,
        total_postings: 0,
    }
    .terms_by_rank();
    let learned_rank = TermStats::collect(&gen, 0..100).terms_by_rank();
    let m = 128;
    let q_full = workload_cost(
        &MergeAssignment::popular_unmerged(&full_rank, 32, m, 5_000),
        &ti,
        &qi,
    ) as f64;
    let q_learned = workload_cost(
        &MergeAssignment::popular_unmerged(&learned_rank, 32, m, 5_000),
        &ti,
        &qi,
    ) as f64;
    // Learned ranking performs within 20% of the oracle ranking (paper:
    // "almost unchanged").
    assert!(
        (q_learned / unmerged) < (q_full / unmerged) * 1.2,
        "learned {} vs full {}",
        q_learned / unmerged,
        q_full / unmerged
    );
}

#[test]
fn fig8a_shape_overhead_grows_with_b_shrinks_with_l() {
    let n = 1u64 << 32;
    assert!(space_overhead(8192, 2, n) < space_overhead(8192, 32, n));
    assert!(space_overhead(8192, 32, n) < space_overhead(8192, 64, n));
    assert!(space_overhead(4096, 32, n) > space_overhead(16384, 32, n));
    let headline = space_overhead(8192, 32, n);
    assert!(
        (0.10..=0.13).contains(&headline),
        "paper says ~11%, got {headline}"
    );
}

#[test]
fn fig8b_shape_jump_update_cost_converges_with_cache() {
    let gen = corpus(600);
    let m = 32;
    let assignment = MergeAssignment::uniform(m);
    let jump = JumpConfig::new(1024, 32, 1 << 32);
    let (tight, _) = jump_insertion_ios(&gen, &assignment, jump, 600, m as u64 * 1024).unwrap();
    let (roomy, _) = jump_insertion_ios(&gen, &assignment, jump, 600, 1 << 30).unwrap();
    assert!(tight.ios_per_doc() >= roomy.ios_per_doc());
    // With a cache holding the whole working set, the cost per document
    // approaches the geometric floor: one block-fill write per p postings
    // (plus at most one read-back per block for its pointer set).  The
    // paper's "1.1 vs 1.0 I/Os per doc" is this bound at p ≈ 500; here
    // p = 19, so the floor is proportionally higher but still bounded.
    let postings_per_doc = roomy.postings as f64 / roomy.docs as f64;
    let fill_floor = postings_per_doc / jump.entries_per_block() as f64;
    assert!(
        roomy.ios_per_doc() <= 2.5 * fill_floor,
        "roomy {} vs floor {}",
        roomy.ios_per_doc(),
        fill_floor
    );
}

#[test]
fn fig8c_shape_speedup_grows_with_keywords() {
    let gen = corpus(2_000);
    let qgen = QueryGenerator::new(QueryConfig {
        query_vocab: 600,
        ..Default::default()
    });
    let engine = build_engine(
        &gen,
        2_000,
        EngineConfig {
            assignment: MergeAssignment::uniform(24),
            jump: Some(JumpConfig::new(2048, 32, 1 << 32)),
            block_size: 2048,
            ..Default::default()
        },
    )
    .unwrap();
    let ratio_for = |len: usize| {
        let (mut scan, mut jump) = (0u64, 0u64);
        for i in 0..40 {
            let q = qgen.query_of_len(i, len);
            scan += scan_merge_blocks(&engine, &q.terms);
            jump += engine.conjunctive_terms(&q.terms).unwrap().1;
        }
        scan as f64 / jump.max(1) as f64
    };
    let s2 = ratio_for(2);
    let s7 = ratio_for(7);
    assert!(
        s7 > s2,
        "speedup must grow with keywords: 2kw {s2:.2} vs 7kw {s7:.2}"
    );
    assert!(s7 > 1.2, "7-keyword queries must benefit, got {s7:.2}");
}

/// Without a jump index `conjunctive_terms` streams its scan-merge join
/// one decoded block at a time.  That is an I/O batching choice only: the
/// answer must equal a join over each term's fully materialised doc
/// vector, and the Figure 8(c) charge must stay every block of every
/// distinct merged list the query touches.
#[test]
fn streaming_scan_merge_equals_materialized_join_and_its_block_charge() {
    let gen = corpus(2_000);
    let qgen = QueryGenerator::new(QueryConfig {
        num_queries: 2_000,
        query_vocab: 600,
        ..Default::default()
    });
    let engine = build_engine(
        &gen,
        2_000,
        EngineConfig {
            assignment: MergeAssignment::uniform(24),
            jump: None,
            block_size: 2048,
            ..Default::default()
        },
    )
    .unwrap();
    let store = engine.list_store();
    for l in 0..24 {
        assert!(store.num_blocks(ListId(l)).unwrap() > 1, "list {l}");
    }
    let queries: Vec<Vec<TermId>> = qgen
        .queries(0..2_000)
        .filter(|q| q.terms.len() >= 2)
        .take(250)
        .map(|q| q.terms)
        .collect();
    assert!(queries.len() >= 200, "only {} queries", queries.len());
    let mut matches = 0;
    let docs_of = |t: TermId| -> Vec<DocId> {
        let list = engine.config().assignment.list_of(t);
        let postings = store.postings_for_term(list, t).unwrap();
        postings.map(|p| p.doc).collect()
    };
    for q in &queries {
        let mut reference = docs_of(q[0]);
        for &t in &q[1..] {
            let docs = docs_of(t);
            reference.retain(|d| docs.binary_search(d).is_ok());
        }
        let (docs, blocks) = engine.conjunctive_terms(q).unwrap();
        assert_eq!(docs, reference, "query {q:?}");
        assert_eq!(blocks, scan_merge_blocks(&engine, q), "query {q:?}");
        matches += docs.len();
    }
    assert!(matches > 0, "the log must contain co-occurring terms");
}

#[test]
fn btree_ideal_baseline_agrees_with_engine_results() {
    let gen = corpus(1_500);
    let qgen = QueryGenerator::new(QueryConfig {
        query_vocab: 600,
        ..Default::default()
    });
    let engine = build_engine(
        &gen,
        1_500,
        EngineConfig {
            assignment: MergeAssignment::uniform(16),
            ..Default::default()
        },
    )
    .unwrap();
    let mut needed: HashSet<TermId> = HashSet::new();
    let queries: Vec<Vec<TermId>> = (0..20).map(|i| qgen.query_of_len(i, 3).terms).collect();
    for q in &queries {
        needed.extend(q.iter().copied());
    }
    let trees = build_term_btrees(
        &gen,
        1_500,
        &needed,
        trustworthy_search::btree::BTreeConfig::tiny(64, 64),
    )
    .unwrap();
    for q in &queries {
        let (a, _) = engine.conjunctive_terms(q).unwrap();
        let (b, _) = btree_conjunctive_cost(&trees, q).unwrap();
        assert_eq!(a, b, "query {q:?}");
    }
}
