//! `tks serve` — put an archive on the network.
//!
//! Opens the archive through the full per-shard recovery path (degraded
//! shards are reported and excluded, exactly like `tks search`), then
//! serves read-only queries over the versioned wire protocol until the
//! process is killed.  Ingest stays process-local (`tks add`/`note`):
//! the WORM trust story wants writes going through the archive owner,
//! not an open socket.
//!
//! ```text
//! tks serve ARCHIVE [--addr HOST:PORT] [--workers N] [--queue-depth D]
//!                   [--deadline-ms MS] [--max-frame-bytes B]
//! ```

use std::path::PathBuf;

use tks_server::server::{ArchiveServer, ServerConfig};

use crate::CliResult;

/// Parsed `tks serve` arguments.
#[derive(Debug)]
pub(crate) struct ServeArgs {
    pub dir: PathBuf,
    pub addr: String,
    pub config: ServerConfig,
}

pub(crate) fn parse_args(args: &[String]) -> CliResult<ServeArgs> {
    let dir = args
        .first()
        .map(PathBuf::from)
        .ok_or("missing ARCHIVE argument")?;
    let mut addr = "127.0.0.1:7045".to_string();
    let mut config = ServerConfig::default();
    let mut flags = args[1..].iter();
    while let Some(flag) = flags.next() {
        let mut value = || flags.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value()?.clone(),
            "--workers" => config.workers = value()?.parse()?,
            "--queue-depth" => config.queue_depth = value()?.parse()?,
            "--deadline-ms" => config.default_deadline_ms = value()?.parse()?,
            "--max-frame-bytes" => config.max_frame_bytes = value()?.parse()?,
            other => return Err(format!("unknown serve option {other}").into()),
        }
    }
    Ok(ServeArgs { dir, addr, config })
}

pub(crate) fn cmd_serve(args: &[String]) -> CliResult {
    let parsed = parse_args(args)?;
    // Full recovery first: a tampered shard comes up degraded before the
    // socket opens, so remote investigators never see it as healthy.
    let (_writer, searcher) = crate::archive::open_serving(&parsed.dir)?
        .archive
        .into_service();
    let degraded = searcher.degraded().to_vec();
    let handle = ArchiveServer::bind(&parsed.addr, searcher, parsed.config.clone())?;
    println!(
        "serving {} on {} ({} worker(s), queue depth {}, default deadline {}ms)",
        parsed.dir.display(),
        handle.addr(),
        parsed.config.workers,
        parsed.config.queue_depth,
        parsed.config.default_deadline_ms,
    );
    for d in &degraded {
        eprintln!("  warning: shard {} is degraded: {}", d.shard, d.reason);
    }
    println!("press Ctrl-C to stop");
    // Serve until the process is killed.  The handle's Drop performs the
    // graceful drain if this thread ever unparks (it should not).
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_overrides() {
        let parsed = parse_args(&s(&["arch"])).expect("parse");
        assert_eq!(parsed.dir, PathBuf::from("arch"));
        assert_eq!(parsed.addr, "127.0.0.1:7045");
        assert_eq!(parsed.config.workers, ServerConfig::default().workers);

        let parsed = parse_args(&s(&[
            "arch",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--queue-depth",
            "32",
            "--deadline-ms",
            "1500",
            "--max-frame-bytes",
            "65536",
        ]))
        .expect("parse");
        assert_eq!(parsed.addr, "0.0.0.0:9000");
        assert_eq!(parsed.config.workers, 8);
        assert_eq!(parsed.config.queue_depth, 32);
        assert_eq!(parsed.config.default_deadline_ms, 1500);
        assert_eq!(parsed.config.max_frame_bytes, 65536);
    }

    #[test]
    fn parse_rejects_unknown_flags_and_missing_archive() {
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["arch", "--bogus"])).is_err());
        assert!(parse_args(&s(&["arch", "--workers"])).is_err());
    }
}
