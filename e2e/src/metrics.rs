//! The benchmark's metric and workload names: the single definition
//! that `BENCHMARK.json`, the printed report and `--selfcheck` share.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the archive sees.  Every workload reports every one:
/// the serve workloads take the commit, space and recovery figures from
/// building their archive, `ingest_recover` takes the query figures from
/// the probes it replays against the recovered archive.
///
/// Every wall-clock metric carries the widest bound the driver allows.
/// The sandbox this was defined on changes speed by a third over tens of
/// minutes and by a tenth from run to run; a tighter bound would reject
/// unchanged code.  The counts are exact per seed and their bounds only
/// cover seed-to-seed sampling.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_p50_ms", "ms", Lower, 0.25),
    e2e("query_p99_ms", "ms", Lower, 0.25),
    e2e("query_qps", "1/s", Higher, 0.25),
    e2e("query_blocks_per_query", "blocks", Lower, 0.10),
    e2e("commit_p50_ms", "ms", Lower, 0.25),
    e2e("commit_p99_ms", "ms", Lower, 0.25),
    e2e("ingest_docs_per_s", "1/s", Higher, 0.25),
    e2e("ingest_ios_per_doc", "I/Os", Lower, 0.10),
    e2e("index_bytes_per_doc", "B", Lower, 0.05),
    e2e("recover_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// The three metrics that are counts of the program's own work: the
/// same seed must give the same value, bit for bit.
pub const EXACT: &[&str] = &[
    "query_blocks_per_query",
    "ingest_ios_per_doc",
    "index_bytes_per_doc",
];

/// Single-layer figures, measured from outside each layer's public
/// functions and counters.  The README's table says which end-to-end
/// metric each should move, and on which workload.
pub const PER_LAYER: &[Def] = &[
    layer("worm.append_ns_per_kib", "ns/KiB", Lower),
    layer("worm.read_block_ns", "ns", Lower),
    layer("worm.cache_hit_rate", "ratio", Higher),
    layer("worm.read_ios_per_doc", "I/Os", Lower),
    layer("worm.write_ios_per_doc", "I/Os", Lower),
    layer("worm.sha256_mib_per_s", "MiB/s", Higher),
    layer("worm.chain_seal_ns", "ns", Lower),
    layer("worm.save_fs_ms", "ms", Lower),
    layer("worm.load_fs_ms", "ms", Lower),
    layer("worm.tamper_rejects", "count", Higher),
    layer("postings.decode_block_ns", "ns", Lower),
    layer("postings.scan_postings_per_s", "1/s", Higher),
    layer("postings.decoded_cache_hit_rate", "ratio", Higher),
    layer("postings.decoded_cache_lookups_per_query", "count", Lower),
    layer("postings.decoded_cache_invalidations", "count", Lower),
    layer("postings.summary_cache_hit_rate", "ratio", Higher),
    layer("postings.append_ns_per_posting", "ns", Lower),
    layer("jump.insert_ns", "ns", Lower),
    layer("jump.find_geq_ns", "ns", Lower),
    layer("jump.blocks_touched_per_find", "blocks", Lower),
    layer("core.ranked.execute_ms_p50", "ms", Lower),
    layer("core.ranked.execute_ms_p99", "ms", Lower),
    layer("core.conjunctive.execute_ms_p50", "ms", Lower),
    layer("core.conjunctive.execute_ms_p99", "ms", Lower),
    layer("core.time_range.execute_ms_p50", "ms", Lower),
    layer("core.time_range.execute_ms_p99", "ms", Lower),
    layer("core.execute_share", "ratio", Lower),
    layer("core.blocks_read_per_query", "blocks", Lower),
    layer("core.blocks_skipped_per_query", "blocks", Higher),
    layer("core.skip_ratio", "ratio", Higher),
    layer("core.hits_per_query", "count", Lower),
    layer("core.commit_terms_us", "us", Lower),
    layer("core.tokenise_us", "us", Lower),
    layer("core.recover_ms_per_shard", "ms", Lower),
    layer("replica.apply_us_per_commit", "us", Lower),
    layer("replica.drain_entries_per_s", "1/s", Higher),
    layer("replica.recover_shard_ms", "ms", Lower),
    layer("replica.eligible_standbys", "count", Higher),
    layer("replica.quarantined", "count", Lower),
    layer("shard.execute_ms_p50", "ms", Lower),
    layer("shard.execute_ms_p99", "ms", Lower),
    layer("shard.gather_self_ms", "ms", Lower),
    layer("shard.gather_share", "ratio", Lower),
    layer("shard.fanout", "count", Lower),
    layer("shard.commit_us", "us", Lower),
    layer("shard.degraded_consults", "count", Lower),
    layer("server.wire_encode_us", "us", Lower),
    layer("server.wire_decode_us", "us", Lower),
    layer("server.digest_us", "us", Lower),
    layer("server.wire_share", "ratio", Lower),
    layer("server.response_bytes_p50", "B", Lower),
    layer("server.response_bytes_p99", "B", Lower),
    layer("server.ping_us", "us", Lower),
    layer("server.refresh_us", "us", Lower),
    layer("server.residual_ms", "ms", Lower),
    layer("server.residual_share", "ratio", Lower),
    layer("server.shed", "count", Lower),
    layer("server.deadline_exceeded", "count", Lower),
    layer("client.verify_us", "us", Lower),
    layer("corpus.generate_s", "s", Lower),
    layer("gen.pacer_late_ms_p99", "ms", Lower),
    layer("gen.trace_overhead_share", "ratio", Lower),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeRanked,
    ServeWideBoolean,
    ServeUnderIngest,
    IngestRecover,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::ServeRanked,
    Workload::ServeWideBoolean,
    Workload::ServeUnderIngest,
    Workload::IngestRecover,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRanked => "serve_ranked",
            Workload::ServeWideBoolean => "serve_wide_boolean",
            Workload::ServeUnderIngest => "serve_under_ingest",
            Workload::IngestRecover => "ingest_recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeRanked => {
                "ranked top-10 over a log far larger than the decoded cache: block-max evaluator \
                 and block decode dominate, responses are tiny so the wire does nothing"
            }
            Workload::ServeWideBoolean => {
                "hot log of wide conjunctive and time-range answers: jump zigzag, doc-order \
                 gather and big JSON frames dominate, the ranked evaluator and block decode idle"
            }
            Workload::ServeUnderIngest => {
                "one client beside a writer paced at 1000 docs/s: standbys drop out, readers and \
                 the writer meet at the engine lock, so a read gain bought with write cost shows"
            }
            Workload::IngestRecover => {
                "single-threaded commit, persist, recover and probe replay: query layers idle; \
                 tokenise, append, jump insert, chain seal, replica apply and recovery dominate"
            }
        }
    }
}

/// The measured values of one run, by metric name, each with the number
/// of samples behind it.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, (f64, usize)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn samples(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, |&(_, n)| n)
    }

    /// Names from `defs` that are missing or not finite.
    pub fn missing(&self, defs: &[Def]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: one JSON object with exactly the keys the driver
/// reads.  Values print with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(d.name),
                values.get(d.name).unwrap_or(f64::NAN),
                json_string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} is used twice", d.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
            assert!(d.bound <= setup.bound, "setup_s carries the largest bound");
        }
        for name in EXACT {
            assert!(END_TO_END.iter().any(|d| d.name == *name));
        }
    }

    /// `BENCHMARK.json` as the tables above spell it.
    fn benchmark_json(run_seconds: u64) -> String {
        let better = |b: Better| match b {
            Lower => "lower",
            Higher => "higher",
        };
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_string(w.name()),
                    json_string(w.why())
                )
            })
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                    json_string(d.name),
                    json_string(d.unit),
                    better(d.better),
                    d.bound
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                    json_string(d.name),
                    json_string(d.unit),
                    better(d.better)
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
             \"e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"e2e\"],\n  \"run_seconds\": {run_seconds},\n  \
             \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n")
        )
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(crate::RUN_SECONDS));
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Values::default();
        for d in END_TO_END {
            v.set(d.name, 1.25, 3);
        }
        assert!(v.missing(END_TO_END).is_empty());
        assert_eq!(v.missing(PER_LAYER).len(), PER_LAYER.len());
        let line = result_line(true, 7, 0, END_TO_END, &v);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}"
        ));
        assert!(line.ends_with("}}}") && !line.contains('\n'));
    }
}
