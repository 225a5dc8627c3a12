//! # `tks-bench` — experiment harness
//!
//! The paper lab: one binary per figure of the paper (`cargo run --release
//! -p tks-bench --bin fig2`, `fig3a` … `fig3i`, `fig4`, `fig8a`, `fig8b`,
//! `fig8c`, `summary`), `ablation`, the `at_scale` ranked-query campaign,
//! Criterion micro-benchmarks in `benches/`, and the code behind them: the
//! Eq. 1 cost model ([`cost`]), the Figure 2/4/8 drivers ([`sim`]), the
//! §3.3 epoch learner ([`epoch`]), the §5 ranking attacks ([`rank_attack`])
//! and the §2.3 baseline the paper rejects ([`buffered`]).  Claims about
//! the served, sharded, replicated archive are measured by the repo
//! benchmark in `e2e/`, not here.
//!
//! ## Scaling
//!
//! The paper's corpus is 1M documents × ~500 distinct terms (≈500M
//! postings, >1M-term vocabulary) with 300k logged queries.  The default
//! harness scale is laptop-sized and preserves the distributional *shape*;
//! every binary accepts:
//!
//! ```text
//! --docs N        documents               (default 50,000)
//! --vocab V       vocabulary size         (default 100,000)
//! --terms T       mean distinct terms/doc (default 100)
//! --queries Q     query-log length        (default 30,000)
//! --qvocab W      queryable head terms    (default 20,000)
//! --seed S        RNG seed                (default 0xC0FFEE)
//! --full          the paper's full scale  (slow; hours)
//! ```
//!
//! Cache-size axes are mapped through the **vocabulary ratio**
//! `paper_vocab / vocab` (merging behaviour depends on cache blocks *per
//! distinct term*): each binary prints both the paper-equivalent cache
//! size and the simulated one.  EXPERIMENTS.md records the shapes measured
//! at the default scale against the paper's.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Experiment harness: panicking on malformed synthetic input is fine here;
// the production no-panic surface is gated by clippy + `cargo xtask audit`.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod buffered;
pub mod cost;
pub mod epoch;
pub mod merging;
pub mod rank_attack;
pub mod sim;

use serde::Serialize;
use std::io::Write as _;

/// Workload scale parameters shared by every figure binary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Scale {
    /// Number of documents.
    pub docs: u64,
    /// Vocabulary size.
    pub vocab: u32,
    /// Mean distinct terms per document.
    pub terms_per_doc: u32,
    /// Query-log length.
    pub queries: u64,
    /// Queryable head-term count.
    pub query_vocab: u32,
    /// Base RNG seed.
    pub seed: u64,
}

/// The paper's vocabulary size, used for cache-axis mapping.
pub const PAPER_VOCAB: f64 = 1_200_000.0;

impl Default for Scale {
    fn default() -> Self {
        Self {
            docs: 50_000,
            vocab: 100_000,
            terms_per_doc: 100,
            queries: 30_000,
            query_vocab: 20_000,
            seed: 0xC0FFEE,
        }
    }
}

impl Scale {
    /// Parse `--docs/--vocab/--terms/--queries/--qvocab/--seed/--full`
    /// from the process arguments; unknown flags abort with usage help.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|flag| usage_and_exit(&flag))
    }

    /// [`from_args`](Self::from_args) over an explicit argument list;
    /// `Err` names the unknown or malformed flag (empty for `--help`).
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut s = Scale::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--docs" => s.docs = value(args.next(), flag)?,
                "--queries" => s.queries = value(args.next(), flag)?,
                "--seed" => s.seed = value(args.next(), flag)?,
                "--vocab" => s.vocab = value(args.next(), flag)?,
                "--terms" => s.terms_per_doc = value(args.next(), flag)?,
                "--qvocab" => s.query_vocab = value(args.next(), flag)?,
                "--full" => {
                    s = Scale {
                        docs: 1_000_000,
                        vocab: 1_200_000,
                        terms_per_doc: 500,
                        queries: 300_000,
                        query_vocab: 60_000,
                        seed: s.seed,
                    };
                }
                "--help" | "-h" => return Err(String::new()),
                _ => return Err(flag.clone()),
            }
        }
        Ok(s)
    }

    /// `paper_vocab / vocab`: the factor by which cache sizes are scaled
    /// down to keep cache-blocks-per-term comparable.
    pub fn vocab_ratio(&self) -> f64 {
        PAPER_VOCAB / self.vocab as f64
    }

    /// Translate a paper cache size (bytes) into the simulated one.
    pub fn scaled_cache(&self, paper_cache_bytes: u64) -> u64 {
        ((paper_cache_bytes as f64 / self.vocab_ratio()) as u64).max(1)
    }

    /// Whether the user left the workload at its defaults (binaries with
    /// figure-specific geometry override only in that case).
    pub fn is_default_workload(&self) -> bool {
        let d = Scale {
            seed: self.seed,
            ..Scale::default()
        };
        *self == d
    }

    /// The join-experiment geometry of §4.5: the paper's Figure 8(b)/(c)
    /// setup has ~500 documents per term (df), ~30 terms per merged list,
    /// and therefore ~15,000 postings (≈30 blocks) per merged list —
    /// ratios that hold at any absolute scale as long as
    /// `docs × terms/doc = 500 × vocab` and `M = vocab / 30`.  Applied
    /// only when the user did not override the workload.
    pub fn with_join_geometry(mut self) -> Self {
        if self.is_default_workload() {
            self.docs = 15_000;
            self.terms_per_doc = 200;
            self.vocab = 6_000;
            self.query_vocab = 2_000;
        }
        self
    }

    /// Merged-list count for the join geometry: ~30 terms per list, as in
    /// the paper's 1M-term / 32,768-list setup.
    pub fn merged_lists_for_join(&self) -> u32 {
        (self.vocab / 30).max(8)
    }

    /// Corpus configuration for this scale.
    pub fn corpus(&self) -> tks_corpus::CorpusConfig {
        tks_corpus::CorpusConfig {
            num_docs: self.docs,
            vocab_size: self.vocab,
            mean_distinct_terms: self.terms_per_doc,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// Query-log configuration for this scale.
    pub fn query_log(&self) -> tks_corpus::QueryConfig {
        tks_corpus::QueryConfig {
            num_queries: self.queries,
            query_vocab: self.query_vocab.min(self.vocab),
            seed: self.seed ^ 0x51EE7,
            ..Default::default()
        }
    }
}

/// A flag's value, parsed at the width of the field it sets: a `--vocab`
/// past `u32::MAX` is malformed, not a silently truncated vocabulary.
fn value<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> Result<T, String> {
    v.and_then(|v| v.parse().ok()).ok_or_else(|| flag.into())
}

fn usage_and_exit(flag: &str) -> ! {
    if !flag.is_empty() {
        eprintln!("unknown or malformed flag: {flag}");
    }
    eprintln!(
        "usage: <fig-binary> [--docs N] [--vocab V] [--terms T] [--queries Q] \
         [--qvocab W] [--seed S] [--full]"
    );
    std::process::exit(2)
}

/// Print a Markdown-style table: header row then aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:>w$} |", c, w = widths[i]));
        }
        line
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Persist an experiment result as JSON under `results/` (best-effort:
/// failures are reported to stderr, not fatal).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    if let Err(e) = try_save_json(name, value) {
        eprintln!("[warn] could not save results/{name}.json: {e}");
    }
}

/// [`save_json`] for a binary whose saved report is a committed baseline
/// that CI compares: the caller must fail when it cannot be written.
pub fn try_save_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<()> {
    let dir = std::path::Path::new("results");
    let path = dir.join(format!("{name}.json"));
    std::fs::create_dir_all(dir)?;
    let body = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::File::create(&path)?.write_all(body.as_bytes())?;
    eprintln!("[saved {}]", path.display());
    Ok(())
}

/// Pretty byte counts for axis labels.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1}GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.0}KB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_cache_maps_by_vocab_ratio() {
        let s = Scale {
            vocab: 120_000,
            ..Scale::default()
        };
        assert!((s.vocab_ratio() - 10.0).abs() < 1e-9);
        assert_eq!(s.scaled_cache(100 << 20), 10 << 20);
        assert_eq!(s.scaled_cache(1), 1, "never scales to zero");
    }

    #[test]
    fn narrow_flags_reject_values_past_u32() {
        let parse =
            |args: &[&str]| Scale::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let s = parse(&["--vocab", "4096", "--docs", "4294967297"]).unwrap();
        assert_eq!((s.vocab, s.docs), (4096, 4_294_967_297));
        for flag in ["--vocab", "--terms", "--qvocab"] {
            // 2^32 + 1 used to wrap to 1.
            assert_eq!(parse(&[flag, "4294967297"]), Err(flag.to_string()));
            assert_eq!(parse(&[flag]), Err(flag.to_string()), "missing value");
        }
        assert_eq!(parse(&["--bogus"]), Err("--bogus".to_string()));
    }

    #[test]
    fn fmt_bytes_ranges() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(4096), "4KB");
        assert_eq!(fmt_bytes(8 << 20), "8.0MB");
        assert_eq!(fmt_bytes(3 << 30), "3.0GB");
    }

    #[test]
    fn corpus_and_query_configs_inherit_scale() {
        let s = Scale::default();
        let c = s.corpus();
        assert_eq!(c.num_docs, s.docs);
        assert_eq!(c.vocab_size, s.vocab);
        let q = s.query_log();
        assert_eq!(q.num_queries, s.queries);
        assert!(q.query_vocab <= s.vocab);
    }
}
