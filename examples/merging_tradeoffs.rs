//! The §3 tradeoff in miniature: sweep merge strategies on a synthetic
//! corpus and print, for each, the insertion I/O per document and the
//! disjunctive workload-cost ratio — the two axes the paper trades
//! against each other.
//!
//! ```text
//! cargo run --release --example merging_tradeoffs
//! ```

use tks_bench::cost::{unmerged_workload_cost, workload_cost};
use tks_bench::sim::insertion_ios;
use trustworthy_search::core::merge::MergeAssignment;
use trustworthy_search::corpus::{
    CorpusConfig, DocumentGenerator, QueryConfig, QueryGenerator, QueryTermStats, TermStats,
};

fn main() {
    let docs = 10_000u64;
    let vocab = 30_000u32;
    let gen = DocumentGenerator::new(CorpusConfig {
        num_docs: docs,
        vocab_size: vocab,
        mean_distinct_terms: 80,
        ..Default::default()
    });
    let qgen = QueryGenerator::new(QueryConfig {
        query_vocab: 8_000,
        ..Default::default()
    });

    println!("collecting workload statistics…");
    let ti = TermStats::collect(&gen, 0..docs).doc_freq;
    let qi = QueryTermStats::collect(&qgen, 0..20_000, vocab).query_freq;
    let q_unmerged = unmerged_workload_cost(&ti, &qi);
    let ranked_by_qf = QueryTermStats {
        query_freq: qi.clone(),
        num_queries: 20_000,
    }
    .terms_by_rank();

    // Cache: 64 blocks of 8 KB — deliberately tiny so the unmerged
    // strategy hurts.
    let block = 8192u32;
    let cache = 512 * block as u64;

    let strategies: Vec<(&str, MergeAssignment)> = vec![
        ("unmerged (1 list/term)", MergeAssignment::unmerged(vocab)),
        ("uniform M=512", MergeAssignment::uniform(512)),
        ("uniform M=128", MergeAssignment::uniform(128)),
        (
            "top-64 QF unmerged + 448 merged",
            MergeAssignment::popular_unmerged(&ranked_by_qf, 64, 512, vocab),
        ),
    ];

    println!(
        "\n{:<34} {:>14} {:>18}",
        "strategy", "I/Os per doc", "query-cost ratio"
    );
    for (name, assignment) in strategies {
        let ins = insertion_ios(&gen, &assignment, docs, cache, block);
        let q = workload_cost(&assignment, &ti, &qi);
        println!(
            "{:<34} {:>14.2} {:>17.2}×",
            name,
            ins.ios_per_doc(),
            q as f64 / q_unmerged as f64
        );
    }
    println!(
        "\nReading: unmerged gives the best query cost (1.0×) but pays dozens of random\n\
         I/Os per inserted document; merging to the cache size makes insertion nearly\n\
         free at a small query-cost premium — and keeping a few popular query terms\n\
         unmerged claws most of that premium back (paper §3.3–3.4)."
    );
}
