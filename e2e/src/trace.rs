//! Harness-side tracing: spans kept in memory and written out when the
//! run ends, and the **layer ladder** that re-issues a sampled query at
//! each public boundary below the client.
//!
//! The ladder is an outside view.  A sampled request is timed once for
//! real (`client.query_verified`); its inner structure is then rebuilt
//! by calling the same query through `QuerySession::execute`, each
//! shard's `Searcher::execute`, and the wire codec on in-memory buffers.
//! Those replayed spans carry the request's id and name their logical
//! parent, so a span's self time is its duration minus what its children
//! cover.  Children of one name ran side by side in the program (the
//! per-shard scatter), so they cover their maximum; children of
//! different names ran one after another, so they add up.  What no
//! boundary explains stays visible as `server.residual`.

use std::collections::BTreeMap;
use std::io::{Cursor, Write as _};
use std::time::Instant;

use tks_server::wire::{
    self, WireQuery, WireQueryResponse, WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES,
};
use tks_shard::QuerySession;

use crate::inputs::Class;

/// One in this many operations of a traced pass climbs the ladder.
pub const LADDER_EVERY: usize = 16;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share this id.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Time `f` as a span and hand back its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64, u32) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, start, end, parent, request);
        (out, (end - start).as_nanos() as u64, id)
    }

    /// Append another thread's spans, keeping its parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Total self time and span count per span name (see the module docs
/// for how children cover their parent).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut covered: Vec<BTreeMap<&'static str, u64>> = vec![BTreeMap::new(); spans.len()];
    for s in spans {
        if let Some(by_name) = s.parent.and_then(|p| covered.get_mut(p as usize)) {
            let slot = by_name.entry(s.name).or_insert(0);
            *slot = (*slot).max(s.duration());
        }
    }
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, by_name) in spans.iter().zip(&covered) {
        let children: u64 = by_name.values().sum();
        let slot = out.entry(s.name).or_insert((0, 0));
        slot.0 += s.duration().saturating_sub(children);
        slot.1 += 1;
    }
    out
}

/// Write the spans and their self-time table as one JSON document.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_time_ns\": {{"
    )?;
    for (i, (name, (ns, count))) in self_time_by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"total\": {ns}, \"spans\": {count}}}"
        )?;
    }
    writeln!(out, "}}, \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"request\": {}}}{sep}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// One sampled query, timed at every boundary (nanoseconds).
#[derive(Clone, Debug)]
pub struct QueryLadder {
    pub class: Class,
    /// `Client::query_verified`, as the investigator saw it.
    pub client_ns: u64,
    /// `QuerySession::execute`: scatter, per-shard execution, gather.
    pub session_ns: u64,
    /// Each consulted shard's `Searcher::execute`.
    pub shard_ns: Vec<u64>,
    pub request_codec_ns: u64,
    /// Response build and frame encode, digest included.
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub digest_ns: u64,
    pub verify_ns: u64,
    pub response_bytes: usize,
    pub blocks_read: u64,
    pub blocks_skipped: u64,
    pub hits: usize,
    pub fanout: usize,
    pub degraded: usize,
}

impl QueryLadder {
    pub fn slowest_shard_ns(&self) -> u64 {
        self.shard_ns.iter().copied().max().unwrap_or(0)
    }

    pub fn gather_self_ns(&self) -> u64 {
        self.session_ns.saturating_sub(self.slowest_shard_ns())
    }

    pub fn wire_ns(&self) -> u64 {
        self.request_codec_ns + self.encode_ns + self.decode_ns
    }

    /// Client latency no boundary accounts for: sockets, the connection
    /// thread's hop to the executor, queue wait.
    pub fn residual_ns(&self) -> u64 {
        self.client_ns
            .saturating_sub(self.session_ns + self.wire_ns() + self.verify_ns)
    }
}

/// Climb the ladder for one request that `Client::query_verified` just
/// answered in `client_ns`; `root` is that request's span.
pub fn query_ladder(
    tr: &mut Tracer,
    root: u32,
    request: u64,
    session: &QuerySession,
    q: &WireQuery,
    client_ns: u64,
) -> Result<QueryLadder, String> {
    let up = Some(root);
    let wire_req = WireRequest::Query {
        query: q.clone(),
        deadline_ms: None,
    };
    let (decoded_req, request_codec_ns, _) = tr.time("server.request_codec", up, request, || {
        let mut frame = Vec::new();
        wire::write_request(&mut frame, &wire_req)
            .and_then(|()| wire::read_request(&mut Cursor::new(frame), DEFAULT_MAX_FRAME_BYTES))
    });
    decoded_req.map_err(|e| format!("request codec: {e}"))?;

    let query = q.to_query();
    let (resp, session_ns, session_span) = tr.time("shard.session_execute", up, request, || {
        session.execute(query.clone())
    });
    let resp = resp.map_err(|e| format!("session execute: {e}"))?;
    let mut shard_ns = Vec::new();
    for sid in 0..session.searcher().shards() {
        if let Some(searcher) = session.searcher().shard(sid) {
            let (r, ns, _) = tr.time("core.searcher_execute", Some(session_span), request, || {
                searcher.execute(query.clone())
            });
            r.map_err(|e| format!("shard {sid} execute: {e}"))?;
            shard_ns.push(ns);
        }
    }

    let (frame, encode_ns, encode_span) = tr.time("server.wire_encode", up, request, || {
        let mut frame = Vec::new();
        let wire_resp = WireResponse::Query(WireQueryResponse::from(&resp));
        wire::write_response(&mut frame, &wire_resp).map(|()| frame)
    });
    let frame = frame.map_err(|e| format!("response encode: {e}"))?;
    let response_bytes = frame.len();
    let (decoded, decode_ns, _) = tr.time("server.wire_decode", up, request, || {
        wire::read_response(&mut Cursor::new(frame), DEFAULT_MAX_FRAME_BYTES)
    });
    let decoded = match decoded.map_err(|e| format!("response decode: {e}"))? {
        WireResponse::Query(r) => r,
        other => return Err(format!("response decoded to {other:?}")),
    };
    let (digest, digest_ns, _) = tr.time("server.digest", Some(encode_span), request, || {
        decoded.compute_digest()
    });
    if digest != decoded.response_digest {
        return Err("replayed response digest does not bind its fields".to_string());
    }
    let (verified, verify_ns, _) = tr.time("client.verify_digest", up, request, || {
        decoded.verify_digest()
    });
    verified.map_err(|e| format!("verify: {e}"))?;

    Ok(QueryLadder {
        class: Class::of(q),
        client_ns,
        session_ns,
        shard_ns,
        request_codec_ns,
        encode_ns,
        decode_ns,
        digest_ns,
        verify_ns,
        response_bytes,
        blocks_read: resp.blocks_read,
        blocks_skipped: resp.blocks_skipped,
        hits: resp.hits.len(),
        fanout: resp.shards.iter().filter(|s| s.consulted).count(),
        degraded: resp.shards.iter().filter(|s| !s.consulted).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children_and_the_slowest_parallel_one() {
        let spans = vec![
            span("client", 0, 1000, None),
            span("session", 2000, 2600, Some(0)),
            span("shard", 3000, 3200, Some(1)),
            span("shard", 3300, 3700, Some(1)),
            span("encode", 4000, 4100, Some(0)),
        ];
        let t = self_time_by_name(&spans);
        // client: 1000 − (session 600 + encode 100).
        assert_eq!(t["client"], (300, 1));
        // session: 600 − the slower shard (400), not both.
        assert_eq!(t["session"], (200, 1));
        assert_eq!(t["shard"], (600, 2));
        assert_eq!(t["encode"], (100, 1));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.record("x", epoch, epoch, None, 1);
        let mut b = Tracer::new(epoch);
        let root = b.record("y", epoch, epoch, None, 2);
        b.record("z", epoch, epoch, Some(root), 2);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].request, 2);
    }
}
