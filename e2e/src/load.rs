//! The load generator: closed-loop investigators and the open-loop
//! writer, with the correctness oracle riding along.
//!
//! An investigator waits for each answer before asking again, so every
//! query load is a closed loop of a stated number of connections.  The
//! writer models a feed that does not wait: it is paced at a fixed rate
//! and each commit is timed from the moment it was due.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tks_client::Client;
use tks_server::wire::{WireErrorCode, WireQuery, WireQueryResponse};
use tks_shard::{QuerySession, ShardedResponse, ShardedSearcher, ShardedWriter};

use crate::env::Pacer;
use crate::inputs::{Class, Doc};
use crate::trace::{query_ladder, QueryLadder, Tracer, LADDER_EVERY};

/// Every this-many-th query is re-executed in process and compared.
pub const ORACLE_EVERY: usize = 97;
/// An operation slower than this has failed its investigator.
pub const LATENCY_LIMIT: Duration = Duration::from_secs(1);
/// Failure messages kept for the report (all failures are counted).
const KEPT_MESSAGES: usize = 8;

/// Operations attempted and failed, with the first few reasons.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The failures that were right answers arriving too late.
    pub slow: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(why.into());
        }
    }

    /// A right answer that blew the latency limit: failed, but not wrong.
    pub fn slow(&mut self, why: impl Into<String>) {
        self.slow += 1;
        self.fail(why);
    }

    /// No output was wrong (late answers do not make a run incorrect).
    pub fn correct(&self) -> bool {
        self.failed == self.slow
    }

    /// One checked condition: attempted, and failed if it does not hold.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.slow += other.slow;
        for m in other.messages {
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(m);
            }
        }
    }
}

/// Compare a served answer with the same query executed directly
/// through a session pinned at the same watermarks: hits, score bits,
/// watermark, trust verdict and per-shard chain heads.
pub fn answers_agree(served: &WireQueryResponse, direct: &ShardedResponse) -> Result<(), String> {
    if served.hits.len() != direct.hits.len() {
        return Err(format!(
            "{} hits served, {} direct",
            served.hits.len(),
            direct.hits.len()
        ));
    }
    for (i, (s, d)) in served.hits.iter().zip(&direct.hits).enumerate() {
        if s.doc != d.doc.0 || s.score.to_bits() != d.score.to_bits() {
            return Err(format!(
                "hit {i}: served ({}, {:e}), direct ({}, {:e})",
                s.doc, s.score, d.doc.0, d.score
            ));
        }
    }
    if served.visible_docs != direct.visible_docs || served.trusted != direct.trusted {
        return Err("watermark or trust verdict differs".to_string());
    }
    if served.shards.len() != direct.shards.len() {
        return Err("shard count differs".to_string());
    }
    for (s, d) in served.shards.iter().zip(&direct.shards) {
        if s.chain_head != d.chain_head.to_hex() || s.visible_docs != d.visible_docs {
            return Err(format!("shard {} chain head or watermark differs", s.shard));
        }
    }
    Ok(())
}

/// What an answer must keep across a crash and recovery: the hits with
/// their score bits, and the chain heads it was computed under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    hits: Vec<(u64, u64)>,
    heads: Vec<String>,
}

impl Answer {
    pub fn of_direct(r: &ShardedResponse) -> Answer {
        Answer {
            hits: r
                .hits
                .iter()
                .map(|h| (h.doc.0, h.score.to_bits()))
                .collect(),
            heads: r.shards.iter().map(|s| s.chain_head.to_hex()).collect(),
        }
    }

    pub fn of_served(r: &WireQueryResponse) -> Answer {
        Answer {
            hits: r.hits.iter().map(|h| (h.doc, h.score.to_bits())).collect(),
            heads: r.shards.iter().map(|s| s.chain_head.clone()).collect(),
        }
    }
}

/// Committed documents per shard, read under each engine's read lock:
/// equal before and after an interval means no commit ran inside it.
fn committed(searcher: &ShardedSearcher) -> Vec<u64> {
    (0..searcher.shards())
        .map(|s| searcher.shard(s).map_or(0, |sh| sh.engine().num_docs()))
        .collect()
}

/// What one closed-loop client is to do.
pub struct ClientPlan<'a> {
    pub addr: SocketAddr,
    /// The live searcher the server serves (for the oracle's session).
    pub searcher: &'a ShardedSearcher,
    pub log: &'a [WireQuery],
    /// Where in the log this client starts; it then cycles.
    pub offset: usize,
    /// Operations per window.
    pub window: usize,
    /// `Client::refresh` after this many queries (live-ingest workloads).
    pub refresh_every: Option<usize>,
    /// Whether a writer commits beside this client.
    pub live_writer: bool,
    /// Stop once a query completes after this instant…
    pub deadline: Instant,
    /// …or after this many whole windows, whichever comes first.
    pub max_windows: usize,
    /// Answers recorded before a crash, by log position: every served
    /// answer must equal them (hits, score bits, chain heads).
    pub expect: Option<&'a [Answer]>,
    /// `Some(first)`: every other window, starting with window `first`
    /// (0 or 1), records spans and climbs the ladder.
    pub trace: Option<usize>,
}

#[derive(Default)]
pub struct ClientOut {
    /// Latency of every query, in issue order (nanoseconds).
    pub lat_ns: Vec<u64>,
    /// `blocks_read` summed over the answers (Figure 8(c) unit).
    pub blocks_read: u64,
    /// Wall time of each complete window (seconds).
    pub window_s: Vec<f64>,
    pub tally: Tally,
    pub oracle_checked: u64,
    /// Oracle checks skipped because the writer moved the frontier.
    pub oracle_skipped: u64,
    pub shed: u64,
    pub deadline_exceeded: u64,
    pub refresh_ns: Vec<u64>,
    pub ladders: Vec<QueryLadder>,
    pub spans: Option<Tracer>,
    /// The plan's `trace`, for telling traced windows from the others.
    pub trace: Option<usize>,
}

impl ClientOut {
    /// Whether window `w` recorded spans and climbed the ladder.
    pub fn traced_window(&self, w: usize) -> bool {
        self.trace.is_some_and(|first| w % 2 == first % 2)
    }
}

/// Re-pin the oracle's session, then the connection's.  If both pin the
/// same watermark vector no commit slipped between the two, and answers
/// compare until the next refresh.
fn refresh_both(client: &mut Client, session: &mut QuerySession, out: &mut ClientOut) -> bool {
    let mine = session.refresh().to_vec();
    let t = Instant::now();
    out.tally.attempt(1);
    match client.refresh() {
        Ok(theirs) => {
            out.refresh_ns.push(t.elapsed().as_nanos() as u64);
            theirs == mine
        }
        Err(e) => {
            out.tally.fail(format!("refresh: {e}"));
            false
        }
    }
}

/// Execute `q` again in process and hold the served answer to it.
/// `before` is the committed-document vector read just before the query
/// was served, when the comparison needs the archive to have stood still.
fn oracle(
    plan: &ClientPlan<'_>,
    session: &QuerySession,
    i: usize,
    q: &WireQuery,
    served: &WireQueryResponse,
    before: Option<Vec<u64>>,
    out: &mut ClientOut,
) {
    let direct = session.execute(q.to_query());
    if before.is_some_and(|b| b != committed(plan.searcher)) {
        out.oracle_skipped += 1;
        return;
    }
    out.oracle_checked += 1;
    out.tally.attempt(1);
    match direct {
        Ok(direct) => {
            if let Err(why) = answers_agree(served, &direct) {
                out.tally.fail(format!("query {i} oracle: {why}"));
            }
        }
        Err(e) => out.tally.fail(format!("query {i} oracle: {e}")),
    }
}

/// Run one investigator: connect, then query in a closed loop until the
/// plan says stop.  Every answer must verify and be trusted.
pub fn run_client(plan: &ClientPlan<'_>, epoch: Instant) -> ClientOut {
    let mut out = ClientOut {
        trace: plan.trace,
        ..ClientOut::default()
    };
    let mut tracer = plan.trace.map(|_| Tracer::new(epoch));
    let mut client = match Client::connect(plan.addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.attempt(1);
            out.tally.fail(format!("connect: {e}"));
            return out;
        }
    };
    // The connection's server-side session pins at accept time; without
    // a live writer any session opened now pins the same watermarks.
    let mut session = QuerySession::open(plan.searcher);
    let mut comparable = true;
    let mut window_start = Instant::now();
    let mut i = 0usize;
    loop {
        let w = i / plan.window;
        if i > 0 && i.is_multiple_of(plan.window) {
            let now = Instant::now();
            out.window_s.push((now - window_start).as_secs_f64());
            window_start = now;
            if w >= plan.max_windows {
                break;
            }
        }
        if plan
            .refresh_every
            .is_some_and(|every| i.is_multiple_of(every))
        {
            comparable = refresh_both(&mut client, &mut session, &mut out);
        }
        let at = (plan.offset + i) % plan.log.len();
        let q = &plan.log[at];
        let sampled = i.is_multiple_of(ORACLE_EVERY);
        // Ranking statistics follow the live collection, so beside a
        // writer a ranked answer only compares if no commit ran between
        // its two executions; boolean answers depend on nothing but the
        // pinned watermarks.
        let needs_quiet = sampled && plan.live_writer && Class::of(q) == Class::Ranked;
        let before = needs_quiet.then(|| committed(plan.searcher));
        let wire_q = q.clone();
        let t0 = Instant::now();
        let answer = client.query_verified(wire_q);
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        out.tally.attempt(1);
        match answer {
            Ok(resp) => {
                out.lat_ns.push(ns);
                out.blocks_read += resp.blocks_read;
                if !resp.trusted {
                    out.tally.fail(format!("query {i}: answer not trusted"));
                } else if t1 - t0 > LATENCY_LIMIT {
                    out.tally
                        .slow(format!("query {i}: {ns} ns exceeds the latency limit"));
                }
                if let Some(expect) = plan.expect {
                    out.tally.check(expect[at] == Answer::of_served(&resp), || {
                        format!("query {i}: answer differs from the pre-crash one")
                    });
                }
                if sampled && comparable {
                    oracle(plan, &session, i, q, &resp, before, &mut out);
                } else if sampled {
                    out.oracle_skipped += 1;
                }
                if let Some(tr) = tracer.as_mut().filter(|_| out.traced_window(w)) {
                    let request = ((plan.offset as u64) << 32) | i as u64;
                    let root = tr.record("client.query_verified", t0, t1, None, request);
                    if i.is_multiple_of(LADDER_EVERY) {
                        match query_ladder(tr, root, request, &session, q, ns) {
                            Ok(l) => out.ladders.push(l),
                            Err(why) => {
                                out.tally.attempt(1);
                                out.tally.fail(format!("query {i} ladder: {why}"));
                            }
                        }
                    }
                }
            }
            Err(e) => {
                match e.as_wire().map(|w| w.code) {
                    Some(WireErrorCode::Overloaded) => out.shed += 1,
                    Some(WireErrorCode::DeadlineExceeded) => out.deadline_exceeded += 1,
                    _ => {}
                }
                // A failed query still occupies its slot, so that windows
                // stay aligned with the latencies.
                out.lat_ns.push(ns);
                out.tally.fail(format!("query {i}: {e}"));
            }
        }
        i += 1;
        if t1 >= plan.deadline {
            break;
        }
    }
    out.spans = tracer;
    out
}

#[derive(Default)]
pub struct WriterOut {
    /// Commit latency from the due time (nanoseconds).
    pub commit_ns: Vec<u64>,
    /// How late each commit started (nanoseconds).
    pub late_ns: Vec<u64>,
    pub tally: Tally,
    /// The pool ran dry before the readers finished.
    pub exhausted: bool,
}

/// Commit `docs` one at a time at `per_second`, open loop, until `stop`.
pub fn run_paced_writer(
    writer: &mut ShardedWriter,
    docs: &[Doc],
    per_second: u32,
    stop: &AtomicBool,
) -> WriterOut {
    let mut out = WriterOut::default();
    let pacer = Pacer::new(Instant::now(), per_second);
    for (i, d) in docs.iter().enumerate() {
        let due = pacer.wait_for(i as u32);
        if stop.load(Ordering::Acquire) {
            return out;
        }
        let started = Instant::now();
        out.tally.attempt(1);
        match writer.commit(&d.text, d.ts) {
            Ok(_) => {
                let done = Instant::now();
                out.late_ns.push((started - due).as_nanos() as u64);
                out.commit_ns.push((done - due).as_nanos() as u64);
                if done - due > LATENCY_LIMIT {
                    out.tally
                        .slow(format!("commit {i}: over the latency limit"));
                }
            }
            Err(e) => out.tally.fail(format!("commit {i}: {e}")),
        }
    }
    out.exhausted = !stop.load(Ordering::Acquire);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_every_failure_and_keeps_the_first_messages() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        for i in 0..20 {
            t.check(false, || format!("bad {i}"));
        }
        assert_eq!((t.attempted, t.failed), (21, 20));
        assert_eq!(t.messages.len(), KEPT_MESSAGES);
        let mut sum = Tally::default();
        sum.absorb(t);
        assert_eq!((sum.attempted, sum.failed), (21, 20));
        assert!(!sum.correct());
        let mut late = Tally::default();
        late.attempt(1);
        late.slow("late");
        assert_eq!((late.failed, late.correct()), (1, true));
    }

    #[test]
    fn traced_windows_alternate_from_the_planned_first_one() {
        let untraced = ClientOut::default();
        assert!(!untraced.traced_window(0) && !untraced.traced_window(1));
        let odd = ClientOut {
            trace: Some(1),
            ..ClientOut::default()
        };
        assert!(!odd.traced_window(0) && odd.traced_window(1) && !odd.traced_window(2));
        let even = ClientOut {
            trace: Some(0),
            ..ClientOut::default()
        };
        assert!(even.traced_window(0) && !even.traced_window(1));
    }
}
