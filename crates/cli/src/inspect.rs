//! The inspection verbs: `audit`, `verify`, `replicas`, `info`.

use crate::{archive, archive_path, CliResult};

/// The verdict `tks audit` and `tks verify` exit with: nonzero naming
/// every shard-level finding (`shard N: <failing check>`), in shard
/// order, so an investigator's script can both branch on the exit code
/// and parse the evidence.
fn verdict(what: &str, findings: &[String]) -> CliResult {
    if findings.is_empty() {
        return Ok(());
    }
    let n = findings.len();
    Err(format!(
        "{what} FAILED ({n} finding(s)):\n  {}",
        findings.join("\n  ")
    )
    .into())
}

/// Structural audit plus posting verification of every shard.  A shard
/// that refused recovery is itself a finding.
pub(crate) fn cmd_audit(args: &[String]) -> CliResult {
    let dir = archive_path(args)?;
    let opened = archive::open_serving(&dir)?;
    let mut findings: Vec<String> = opened
        .archive
        .degraded()
        .iter()
        .map(|(shard, reason)| format!("shard {shard}: recovery refused: {reason}"))
        .collect();
    for shard in 0..opened.archive.shards() {
        let Some(engine) = opened.archive.engine(shard) else {
            continue;
        };
        let (report, phantoms) = engine.audit_deep()?;
        println!(
            "shard {shard}: {} list monotonicity violation(s), {} list length mismatch(es), \
             {} jump-index violation(s), {} position lockstep violation(s), \
             {} device tamper attempt(s), commit-time index ok: {}, {} phantom posting(s)",
            report.list_violations.len(),
            report.length_mismatches.len(),
            report.jump_violations.len(),
            report.position_lockstep_violations.len(),
            report.device_tamper_attempts,
            report.commit_time_ok,
            phantoms.len()
        );
        for p in phantoms.iter().take(10) {
            println!(
                "  {} in {} [{}]: {:?}",
                p.posting.doc, p.list, p.position, p.reason
            );
        }
        if !report.is_clean() || !phantoms.is_empty() {
            findings.push(format!("shard {shard}: tamper evidence found"));
        }
    }
    if findings.is_empty() {
        println!("VERDICT: clean");
    }
    verdict("archive audit", &findings)
}

/// Full-archive chain recheck: recovery recomputes every image's commit
/// chain over the surviving bytes and compares it against the persisted
/// links.  Exits nonzero if any shard refuses recovery or lost its
/// primary to a replica, any image's chain fails to match, or any WORM
/// tamper log is non-empty.
pub(crate) fn cmd_verify(args: &[String]) -> CliResult {
    let dir = archive_path(args)?;
    let opened = archive::open(&dir)?;
    let mut findings = Vec::new();
    for r in &opened.recoveries {
        if let Some(reason) = &r.error {
            findings.push(format!("shard {}: recovery refused: {reason}", r.shard));
        }
        if let Some(p) = r.promoted_from {
            findings.push(format!(
                "shard {}: primary image lost to replica {p}",
                r.shard
            ));
        }
        for v in &r.replicas {
            if let Some(err) = &v.error {
                findings.push(format!("shard {} replica {}: {err}", r.shard, v.replica));
            }
        }
    }
    let archive = &opened.archive;
    for shard in 0..archive.shards() {
        let Some(engine) = archive.engine(shard) else {
            continue;
        };
        let quarantined = engine.recovery_report().total_quarantined_bytes();
        print!(
            "shard {shard}: {} committed link(s), head {}",
            engine.num_docs(),
            engine.chain_head()
        );
        if quarantined > 0 {
            print!(", {quarantined} quarantined byte(s)");
        }
        if let Some(mismatch) = engine.chain_mismatch() {
            println!(" — CHAIN MISMATCH");
            findings.push(format!("shard {shard}: commit-chain mismatch: {mismatch}"));
        } else if !engine.tamper_logs_clean() {
            println!(" — TAMPER LOG NON-EMPTY");
            findings.push(format!(
                "shard {shard}: a WORM device rejected overwrite/early-delete attempts"
            ));
        } else {
            println!(" — chain verified");
        }
    }
    if findings.is_empty() {
        println!(
            "OK: all {} shard(s) verified against their commit chains",
            archive.shards()
        );
    }
    verdict("archive verification", &findings)
}

/// Per-replica health: each shard's replica verdicts — watermark, chain
/// head, verified/quarantined, and whether it will serve reads.
pub(crate) fn cmd_replicas(args: &[String]) -> CliResult {
    let dir = archive_path(args)?;
    let opened = archive::open(&dir)?;
    println!("archive:  {}", dir.display());
    println!("replicas: {} per shard", opened.manifest.replicas);
    if opened.manifest.replicas == 0 {
        println!("(archive is unreplicated; re-init with --replicas R to replicate)");
        return Ok(());
    }
    let standby_counts = opened.archive.standby_counts();
    for r in &opened.recoveries {
        let role = match (&r.error, r.promoted_from) {
            (Some(reason), _) => format!("DEGRADED: {reason}"),
            (None, Some(p)) => format!("serving from PROMOTED replica {p}"),
            (None, None) => "serving from primary".to_string(),
        };
        let standbys = standby_counts.get(r.shard as usize).copied().unwrap_or(0);
        println!("shard {}: {role} ({standbys} read standby(s))", r.shard);
        for v in &r.replicas {
            let state = match (&v.error, v.verified) {
                (Some(err), _) => format!("UNUSABLE: {err}"),
                (None, false) => "recovered but unverified".to_string(),
                (None, true) => "verified".to_string(),
            };
            let head = match &v.chain_head {
                Some(h) => h.to_string(),
                None => "-".to_string(),
            };
            print!(
                "  replica {}: {state}; {} doc(s) verified, head {head}",
                v.replica, v.watermark
            );
            if v.quarantined_bytes > 0 {
                print!(", {} quarantined byte(s)", v.quarantined_bytes);
            }
            println!();
        }
    }
    Ok(())
}

pub(crate) fn cmd_info(args: &[String]) -> CliResult {
    let dir = archive_path(args)?;
    let opened = archive::open(&dir)?;
    let archive = &opened.archive;
    println!("archive:     {}", dir.display());
    println!("shards:      {}", archive.shards());
    println!("replicas:    {} per shard", opened.manifest.replicas);
    println!("documents:   {} (healthy shards)", archive.num_docs());
    for shard in 0..archive.shards() {
        match archive.engine(shard) {
            Some(e) => println!(
                "  shard {shard}: {} document(s), {} term(s)",
                e.num_docs(),
                e.vocab_size()
            ),
            None => println!("  shard {shard}: DEGRADED"),
        }
    }
    for (shard, reason) in archive.degraded() {
        println!("degraded {shard}: {reason}");
    }
    let c = archive.config();
    println!("lists/shard: {}", c.assignment.num_lists());
    match &c.jump {
        Some(j) => println!(
            "jump index:  B={} (block {} B, {} entries/block)",
            j.branching,
            j.block_size,
            j.entries_per_block()
        ),
        None => println!("jump index:  disabled"),
    }
    Ok(())
}
