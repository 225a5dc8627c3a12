//! `tks` — a command-line trustworthy record archive.
//!
//! One durable archive format (see [`archive`]): N hash-partitioned WORM
//! shards, each optionally fanned out to R chain-verified replicas,
//! behind one writer/searcher pair.  Every invocation reloads the images
//! through the **full per-shard recovery path** (paper §2.3: recovery
//! trusts committed structures, never markers or logs), so any
//! byte-level tampering with the images is caught before a single query
//! runs.
//!
//! `tks archive VERB …` is the older spelling of `tks VERB …` (with
//! `query` for `search`) and is rewritten to it.

// Experiment binary: expect() on malformed synthetic input is acceptable
// (the production no-panic surface is gated by clippy + `cargo xtask audit`).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tks_core::engine::EngineConfig;
use tks_core::merge::MergeAssignment;
use tks_core::query::Query;
use tks_jump::JumpConfig;
use tks_postings::Timestamp;
use tks_shard::{local_of, shard_of, QuerySession, ShardedResponse};

mod archive;
mod inspect;
mod serve;
#[cfg(test)]
mod tests;

use archive::{ArchiveWriter, Manifest};

const USAGE: &str = "usage:
  tks init ARCHIVE [--shards N] [--replicas R] [--lists M] [--jump B] [--block-size L] [--positional]
  tks add ARCHIVE FILE...                      index text files (mtime = commit time)
  tks note ARCHIVE TS TEXT...                  index an inline note at timestamp TS
  tks search ARCHIVE KEYWORD... [--top K]      ranked disjunctive search
  tks all ARCHIVE KEYWORD...                   conjunctive (all keywords)
  tks phrase ARCHIVE WORD...                   exact phrase (--positional archives)
  tks range ARCHIVE FROM TO KEYWORD...         conjunctive within [FROM, TO]
  tks audit ARCHIVE                            structural + deep audit, per shard
  tks verify ARCHIVE                           recompute every commit chain
  tks replicas ARCHIVE                         per-replica health
  tks info ARCHIVE
  tks serve ARCHIVE [--addr HOST:PORT] [--workers N] [--queue-depth D]
            [--deadline-ms MS] [--max-frame-bytes B]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Some(Ok(())) => ExitCode::SUCCESS,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// Dispatch one command line (`None`: no such verb).
fn run(args: &[String]) -> Option<CliResult> {
    let (verb, args) = match args {
        [archive, verb, rest @ ..] if archive == "archive" => {
            (if verb == "query" { "search" } else { verb }, rest)
        }
        [verb, rest @ ..] => (verb.as_str(), rest),
        [] => return None,
    };
    Some(match verb {
        "init" => cmd_init(args),
        "add" => cmd_add(args),
        "note" => cmd_note(args),
        "search" => cmd_search(args, false),
        "all" => cmd_search(args, true),
        "phrase" => cmd_phrase(args),
        "range" => cmd_range(args),
        "audit" => inspect::cmd_audit(args),
        "verify" => inspect::cmd_verify(args),
        "replicas" => inspect::cmd_replicas(args),
        "info" => inspect::cmd_info(args),
        "serve" => serve::cmd_serve(args),
        _ => return None,
    })
}

fn archive_path(args: &[String]) -> CliResult<PathBuf> {
    args.first()
        .map(PathBuf::from)
        .ok_or_else(|| "missing ARCHIVE argument".into())
}

fn cmd_init(args: &[String]) -> CliResult {
    let dir = archive_path(args)?;
    let mut shards = 1u32;
    let mut replicas = 0u32;
    let mut lists = 1024u32;
    let mut jump_b = 32u32;
    let mut block = 8192usize;
    let mut positional = false;
    let mut flags = args[1..].iter();
    while let Some(flag) = flags.next() {
        let mut value = || flags.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--shards" => shards = value()?.parse()?,
            "--replicas" => replicas = value()?.parse()?,
            "--lists" => lists = value()?.parse()?,
            "--jump" => jump_b = value()?.parse()?,
            "--block-size" => block = value()?.parse()?,
            "--positional" => positional = true,
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    // MergeAssignment::uniform asserts on 0, so guard it before building.
    if lists == 0 {
        return Err("--lists must be at least 1".into());
    }
    // The validating builder turns bad flag combinations (tiny blocks,
    // --jump 1, ...) into errors instead of panics deep in the engine.
    let mut builder = EngineConfig::builder()
        .block_size(block)
        .assignment(MergeAssignment::uniform(lists))
        .positional(positional);
    if jump_b != 0 {
        builder = builder.jump(JumpConfig {
            block_size: block.max(2048),
            branching: jump_b,
            max_key: 1 << 32,
        });
    }
    let manifest = Manifest {
        shards,
        replicas,
        config: builder.build()?,
    };
    archive::create(&dir, manifest)?;
    println!(
        "initialized archive at {} ({shards} shard(s), {replicas} replica(s) each)",
        dir.display()
    );
    Ok(())
}

fn read_text_file(path: &Path) -> CliResult<(String, Timestamp)> {
    let text = std::fs::read_to_string(path)?;
    let mtime = std::fs::metadata(path)?
        .modified()?
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    Ok((text, Timestamp(mtime)))
}

/// Commit `text` (the contents of `file`, or an inline note) at `ts`, or
/// at the archive head `floor` when `ts` lies below it.
fn commit(
    w: &mut ArchiveWriter,
    floor: Timestamp,
    file: Option<&str>,
    text: &str,
    mut ts: Timestamp,
) -> CliResult {
    if ts < floor {
        eprintln!(
            "note: {} {} before the archive head {}; committing at the head \
             (backdating is impossible by design)",
            file.map_or("timestamp".to_string(), |f| format!("{f} has mtime")),
            ts.0,
            floor.0
        );
        ts = floor;
    }
    let doc = w.writer.commit(text, ts)?;
    println!(
        "committed {}{doc} @ t={} (shard {})",
        file.map_or(String::new(), |f| format!("{f} as ")),
        ts.0,
        shard_of(doc)
    );
    Ok(())
}

fn cmd_add(args: &[String]) -> CliResult {
    let dir = archive_path(args)?;
    if args.len() < 2 {
        return Err("add needs at least one FILE".into());
    }
    let mut w = archive::open_serving(&dir)?.into_writer();
    // Commit in mtime order so the monotone commit-time invariant holds.
    let mut inputs = Vec::new();
    for f in &args[1..] {
        let (text, ts) = read_text_file(Path::new(f))?;
        inputs.push((ts, f, text));
    }
    inputs.sort_by_key(|(ts, ..)| *ts);
    let floor = w.head();
    for (ts, path, text) in inputs {
        commit(&mut w, floor, Some(path), &text, ts)?;
    }
    w.save()
}

fn cmd_note(args: &[String]) -> CliResult {
    let dir = archive_path(args)?;
    let ts: u64 = args.get(1).ok_or("note needs TS")?.parse()?;
    if args.len() < 3 {
        return Err("note needs TEXT".into());
    }
    let text = args[2..].join(" ");
    let mut w = archive::open_serving(&dir)?.into_writer();
    let floor = w.head();
    commit(&mut w, floor, None, &text, Timestamp(ts))?;
    w.save()
}

/// A query's merged response plus each hit's commit time and text
/// preview, in hit order.
struct Answer {
    resp: ShardedResponse,
    rows: Vec<(u64, String)>,
}

/// Recover the archive and answer `query` from one pinned session, so
/// the result list and the trust line describe the same snapshot.
fn answer(dir: &Path, query: Query) -> CliResult<Answer> {
    let (mut writer, searcher) = archive::open_serving(dir)?.archive.into_service();
    let resp = QuerySession::open(&searcher).execute(query)?;
    let rows = resp
        .hits
        .iter()
        .map(|h| {
            let local = local_of(h.doc);
            writer
                .with_engine(shard_of(h.doc), |e| {
                    (
                        e.document_timestamp(local).map(|t| t.0).unwrap_or(0),
                        e.document_text(local)
                            .map(|t| t.chars().take(70).collect::<String>())
                            .unwrap_or_else(|| "<text not stored>".into()),
                    )
                })
                .unwrap_or((0, "<shard degraded>".into()))
        })
        .collect();
    Ok(Answer { resp, rows })
}

/// Answer `query` and print it: a heading (given the hit count), one
/// line per hit, and a line of trust/cost metadata naming any shards the
/// answer could not consult.
fn show(dir: &Path, query: Query, heading: impl FnOnce(usize) -> String) -> CliResult {
    let scored = matches!(query, Query::Disjunctive { .. });
    let Answer { resp, rows } = answer(dir, query)?;
    println!("{}", heading(resp.hits.len()));
    for (h, (ts, preview)) in resp.hits.iter().zip(rows) {
        let score = if scored {
            format!(" (score {:.3})", h.score)
        } else {
            String::new()
        };
        println!(
            "  {} (shard {}) @ t={ts}{score}: {preview}",
            h.doc,
            shard_of(h.doc)
        );
    }
    print!(
        "  [{} block read(s); {} docs visible; {}",
        resp.blocks_read,
        resp.visible_docs,
        if resp.trusted {
            "consulted shards clean"
        } else {
            "DEVICES REPORT TAMPER ATTEMPTS — run `tks audit`"
        }
    );
    if resp.quarantined_bytes > 0 {
        print!("; {} quarantined byte(s)", resp.quarantined_bytes);
    }
    let degraded = resp.degraded();
    if !degraded.is_empty() {
        let ids: Vec<String> = degraded.iter().map(|s| s.shard.to_string()).collect();
        print!("; shard(s) {} DEGRADED and not consulted", ids.join(", "));
    }
    println!("]");
    Ok(())
}

fn cmd_search(args: &[String], conjunctive: bool) -> CliResult {
    let dir = archive_path(args)?;
    let mut top = 10usize;
    let mut keywords = Vec::new();
    let mut words = args[1..].iter();
    while let Some(word) = words.next() {
        if word == "--top" {
            top = words.next().ok_or("--top needs a value")?.parse()?;
        } else {
            keywords.push(word.as_str());
        }
    }
    if keywords.is_empty() {
        return Err("no keywords given".into());
    }
    let query = keywords.join(" ");
    if conjunctive {
        show(&dir, Query::conjunctive(query.as_str()), |n| {
            format!("{n} document(s) contain all of [{query}]:")
        })
    } else {
        show(&dir, Query::disjunctive(query.as_str(), top), |n| {
            format!("top {n} of [{query}]:")
        })
    }
}

fn cmd_phrase(args: &[String]) -> CliResult {
    let dir = archive_path(args)?;
    if args.len() < 2 {
        return Err("phrase needs WORDs".into());
    }
    let phrase = args[1..].join(" ");
    show(&dir, Query::phrase(phrase.as_str()), |n| {
        format!("{n} document(s) contain the exact phrase [{phrase}]:")
    })
}

fn cmd_range(args: &[String]) -> CliResult {
    let dir = archive_path(args)?;
    let from: u64 = args.get(1).ok_or("range needs FROM")?.parse()?;
    let to: u64 = args.get(2).ok_or("range needs TO")?.parse()?;
    if args.len() < 4 {
        return Err("range needs KEYWORDs".into());
    }
    let query = args[3..].join(" ");
    show(
        &dir,
        Query::conjunctive_in_range(query.as_str(), Timestamp(from), Timestamp(to)),
        |n| format!("{n} document(s) match [{query}] committed in [{from}, {to}]:"),
    )
}
