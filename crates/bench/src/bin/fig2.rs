//! Figure 2 — random I/Os per inserted document vs. storage-cache size,
//! with *unmerged* (one-list-per-term) posting lists and LRU caching of
//! list tail blocks.
//!
//! Paper result: the curve falls with cache size but levels off slowly due
//! to the Zipfian term distribution; "even for very large caches beyond
//! 4 GB, the number of random I/Os remains very high, at about 21 per
//! document".
//!
//! Cache sizes are the paper's 4 MB – 64 GB sweep, mapped through the
//! vocabulary ratio (see `tks-bench` crate docs).

// Experiment binary: expect() on malformed synthetic input is acceptable
// (the production no-panic surface is gated by clippy + `cargo xtask audit`).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use tks_bench::sim::insertion_ios;
use tks_bench::{fmt_bytes, print_table, save_json, Scale};
use tks_core::merge::MergeAssignment;
use tks_corpus::DocumentGenerator;

#[derive(Serialize)]
struct Row {
    paper_cache_mb: u64,
    sim_cache_bytes: u64,
    ios_per_doc: f64,
    read_ios: u64,
    write_ios: u64,
    /// Estimated seconds per inserted document at the paper's 2 ms
    /// random-I/O latency (§2.3's "1 second to index a document" scale).
    est_seconds_per_doc: f64,
}

fn main() {
    let scale = Scale::from_args();
    let gen = DocumentGenerator::new(scale.corpus());
    let assignment = MergeAssignment::unmerged(scale.vocab);
    let block_size = 8192u32;

    // The paper sweeps 4 MB … 64 GB (powers of 4 on its log axis).
    let paper_mb: Vec<u64> = vec![4, 16, 64, 256, 1024, 4096, 16384, 65536];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &mb in &paper_mb {
        let cache = scale.scaled_cache(mb << 20).max(block_size as u64);
        let r = insertion_ios(&gen, &assignment, scale.docs, cache, block_size);
        let secs = r.ios_per_doc() * tks_worm::stats::PAPER_RANDOM_IO_SECONDS;
        rows.push(vec![
            format!("{mb}"),
            fmt_bytes(cache),
            format!("{:.1}", r.ios_per_doc()),
            format!("{}", r.stats.read_ios),
            format!("{}", r.stats.write_ios),
            format!("{:.0} ms", secs * 1e3),
        ]);
        out.push(Row {
            paper_cache_mb: mb,
            sim_cache_bytes: cache,
            ios_per_doc: r.ios_per_doc(),
            read_ios: r.stats.read_ios,
            write_ios: r.stats.write_ios,
            est_seconds_per_doc: secs,
        });
        eprintln!(
            "[fig2] paper {:>6} MB -> {:>8}: {:.1} I/Os per doc",
            mb,
            fmt_bytes(cache),
            r.ios_per_doc()
        );
    }
    print_table(
        "Figure 2: random I/Os per inserted document (unmerged posting lists)",
        &[
            "paper cache (MB)",
            "sim cache",
            "I/Os per doc",
            "read I/Os",
            "write I/Os",
            "est. time/doc @2ms",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: steep drop then slow level-off; ~21 I/Os/doc even at multi-GB caches\n\
         because the Zipf tail of rare terms defeats caching."
    );
    save_json("fig2", &(&scale, &out));
}
