//! Shared driver for the Figure 3(d)–3(g) merging-strategy sweeps.
//!
//! Each figure plots the Eq. 1 workload-cost ratio (merged / unmerged) as
//! a function of cache size, for 0 / 1,000 / 10,000 popular terms kept
//! unmerged, with the remaining terms hashed uniformly.  The figures
//! differ in how "popular" is ranked:
//!
//! | figure | ranked by | statistics from |
//! |---|---|---|
//! | 3(d) | query frequency `qi` | full workload |
//! | 3(e) | term frequency `ti` | full workload |
//! | 3(f) | query frequency | first 10% of queries (learned) |
//! | 3(g) | term frequency | first 10% of documents (learned) |
//!
//! Unmerged-term counts and cache sizes are scaled through the vocabulary
//! ratio (see the crate docs).

use crate::cost::{unmerged_workload_cost, workload_cost};
use crate::{print_table, save_json, Scale};
use serde::Serialize;
use tks_core::merge::MergeAssignment;
use tks_corpus::{DocumentGenerator, QueryGenerator, QueryTermStats, TermStats};
use tks_postings::TermId;

/// Which statistic ranks the "popular" (kept-unmerged) terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankBy {
    /// Query frequency `qi` (Figures 3(d)/3(f)).
    QueryFreq,
    /// Term frequency `ti` (Figures 3(e)/3(g)).
    TermFreq,
}

/// One data point of the sweep.
#[derive(Debug, Serialize)]
pub struct SweepPoint {
    /// Paper-axis cache size in MB.
    pub paper_cache_mb: u64,
    /// Physical lists `M` at the simulated scale.
    pub num_lists: u32,
    /// Paper-axis unmerged-term count (0 / 1,000 / 10,000).
    pub paper_unmerged: usize,
    /// Scaled unmerged-term count actually applied.
    pub scaled_unmerged: usize,
    /// `Q(merged) / Q(unmerged)`, or `None` when the configuration is
    /// infeasible (more unmerged terms than lists).
    pub ratio: Option<f64>,
}

/// Run one of the Figure 3(d)–(g) sweeps and print/save its table.
pub fn run_merge_ratio_figure(figure: &str, title: &str, rank_by: RankBy, learned: bool) {
    let scale = Scale::from_args();
    let gen = DocumentGenerator::new(scale.corpus());
    let qgen = QueryGenerator::new(scale.query_log());

    // Full-workload statistics define the cost being measured.
    let ti = TermStats::collect(&gen, 0..scale.docs).doc_freq;
    let qi = QueryTermStats::collect(&qgen, 0..scale.queries, scale.vocab).query_freq;
    let unmerged_q = unmerged_workload_cost(&ti, &qi).max(1);

    // The ranking may instead be *learned* from the first 10% of the
    // workload (paper §3.3: "we computed the most popular terms for the
    // first 10% of the documents crawled and the first 10% of the queries
    // submitted, and used those statistics to make merging decisions").
    let ranked: Vec<TermId> = match (rank_by, learned) {
        (RankBy::QueryFreq, false) => QueryTermStats {
            query_freq: qi.clone(),
            num_queries: scale.queries,
        }
        .terms_by_rank(),
        (RankBy::QueryFreq, true) => {
            QueryTermStats::collect(&qgen, 0..scale.queries / 10, scale.vocab).terms_by_rank()
        }
        (RankBy::TermFreq, false) => TermStats {
            doc_freq: ti.clone(),
            num_docs: scale.docs,
            total_postings: 0,
        }
        .terms_by_rank(),
        (RankBy::TermFreq, true) => TermStats::collect(&gen, 0..scale.docs / 10).terms_by_rank(),
    };

    let ratio = scale.vocab_ratio();
    let paper_unmerged = [0usize, 1_000, 10_000];
    let paper_mb: Vec<u64> = vec![4, 8, 16, 32, 64, 128, 256, 512];

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &mb in &paper_mb {
        let paper_lists = (mb << 20) / 8192;
        let m = ((paper_lists as f64 / ratio).round() as u32).max(2);
        let mut row = vec![format!("{mb}"), format!("{m}")];
        for &u in &paper_unmerged {
            let su = (u as f64 / ratio).round() as usize;
            let assignment = if su == 0 {
                Some(MergeAssignment::uniform(m))
            } else if (su as u32) < m {
                Some(MergeAssignment::popular_unmerged(
                    &ranked,
                    su,
                    m,
                    scale.vocab,
                ))
            } else {
                None
            };
            let r = assignment.map(|a| workload_cost(&a, &ti, &qi) as f64 / unmerged_q as f64);
            row.push(match r {
                Some(v) => format!("{v:.2}"),
                None => "—".to_string(),
            });
            points.push(SweepPoint {
                paper_cache_mb: mb,
                num_lists: m,
                paper_unmerged: u,
                scaled_unmerged: su,
                ratio: r,
            });
        }
        eprintln!("[{figure}] {mb} MB done");
        rows.push(row);
    }
    print_table(
        title,
        &[
            "paper cache (MB)",
            "lists M",
            "0 terms",
            "1000 terms",
            "10000 terms",
        ],
        &rows,
    );
    println!(
        "\nRatios are Q(merged)/Q(unmerged) per Eq. 1; unmerged-term counts are the paper's,\n\
         scaled by the vocabulary ratio ({ratio:.0}×).  Paper shape: ratios fall toward ~1 by\n\
         128–256 MB, and the '0 term' uniform curve tracks the others closely."
    );
    save_json(figure, &points);
}
