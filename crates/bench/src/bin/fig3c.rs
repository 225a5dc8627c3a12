//! Figure 3(c) — cumulative workload cost: terms ranked by query
//! frequency (QF) or by term frequency (TF); the cumulative sum of their
//! `ti·qi` contributions to the Eq. 1 workload cost.
//!
//! Paper observations: "a very small fraction of the terms account for
//! almost the entire workload cost", and the TF-ranked curve "peaks
//! slowly, compared to the query-popularity curve, due to terms that occur
//! in many documents but few queries".

// Experiment binary: expect() on malformed synthetic input is acceptable
// (the production no-panic surface is gated by clippy + `cargo xtask audit`).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use tks_bench::cost::cumulative_workload_curve;
use tks_bench::{print_table, save_json, Scale};
use tks_corpus::{DocumentGenerator, QueryGenerator, QueryTermStats, TermStats};

#[derive(Serialize)]
struct Point {
    rank: usize,
    qf_cum_fraction: f64,
    tf_cum_fraction: f64,
}

fn main() {
    let scale = Scale::from_args();
    let gen = DocumentGenerator::new(scale.corpus());
    let qgen = QueryGenerator::new(scale.query_log());
    let ti = TermStats::collect(&gen, 0..scale.docs).doc_freq;
    let qi = QueryTermStats::collect(&qgen, 0..scale.queries, scale.vocab).query_freq;

    let limit = (scale.vocab as usize).min(50_000);
    let by_qf = cumulative_workload_curve(&ti, &qi, true, limit);
    let by_tf = cumulative_workload_curve(&ti, &qi, false, limit);
    let total = *by_qf.last().unwrap_or(&1) as f64;

    let sample_ranks = [100usize, 500, 1_000, 2_500, 5_000, 10_000, 25_000];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &r in &sample_ranks {
        if r == 0 || r > by_qf.len() {
            continue;
        }
        let qf = by_qf[r - 1] as f64 / total;
        let tf = by_tf[r - 1] as f64 / total;
        rows.push(vec![
            format!("{r}"),
            format!("{:.1}%", qf * 100.0),
            format!("{:.1}%", tf * 100.0),
        ]);
        out.push(Point {
            rank: r,
            qf_cum_fraction: qf,
            tf_cum_fraction: tf,
        });
    }
    print_table(
        "Figure 3(c): cumulative workload cost captured by the top-k ranked terms",
        &["top-k terms", "ranked by QF", "ranked by TF"],
        &rows,
    );
    println!(
        "\nPaper shape: both curves saturate with a small fraction of terms; the QF curve\n\
         rises faster (TF rank order is diluted by doc-popular / query-rare terms)."
    );
    save_json("fig3c", &(&scale, &out));
}
