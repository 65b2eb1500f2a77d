//! In-memory spans around the benchmark's own calls into the program.
//!
//! The program has no spans of its own yet (a later change), so the
//! layer boundaries traced here are the ones the benchmark can see:
//! each RPC, each inject chunk, each compile, each probe. Spans are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::J;

/// Index + 1 of a span in its tracer; 0 = no span (tracing off, or no
/// parent).
#[derive(Clone, Copy, Default)]
pub struct SpanId(u32);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Spans of one request (one mutation, one window) share this.
    request: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run (same clock zero).
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: parent.0,
            request,
        });
        SpanId(self.spans.len() as u32)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 > 0 {
            self.spans[id.0 as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let r = f();
        self.end(id);
        r
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent > 0 {
                s.parent += offset;
            }
            s
        }));
    }

    /// Every span, plus per-name totals. A name's self time is its
    /// spans' duration minus what their direct children cover.
    pub fn to_json(&self) -> J {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(*covered);
        }
        let totals = by_name
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    J::obj([
                        ("count", J::U(count)),
                        ("total_ms", J::F(total as f64 / 1e6)),
                        ("self_ms", J::F(own as f64 / 1e6)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                J::obj([
                    ("id", J::U(i as u64 + 1)),
                    ("name", J::s(s.name)),
                    ("start_ns", J::U(s.start_ns)),
                    ("end_ns", J::U(s.end_ns)),
                    ("parent", J::U(u64::from(s.parent))),
                    ("request", J::U(s.request)),
                ])
            })
            .collect();
        J::obj([("by_name", J::O(totals)), ("spans", J::A(spans))])
    }
}
