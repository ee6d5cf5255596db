//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the simulator's layers
//! from the benchmark's own code; nothing inside the simulator is touched.
//! Each span carries a name, start and end (ns since the recorder was
//! created), the span that was open when it began, the run id shared by
//! all spans of one mechanism run, and a work count recorded at the same
//! boundary. Everything stays in memory until [`Tracer::write_jsonl`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    run: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

/// Span recorder. When disabled every call is a single branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// Total and self time of every span with one name.
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new run id; later spans belong to it.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run: self.run,
            parent,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id` (the innermost open span) with its work count.
    pub fn end(&mut self, id: SpanId, count: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        debug_assert_eq!(
            self.open.last().copied(),
            Some(id.0),
            "spans close in order"
        );
        self.open.pop();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Record an already-measured interval as a closed child of the open
    /// span (used where a loop times many small calls as one batch).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, count: u64) {
        if !self.enabled {
            return;
        }
        let to_ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            run: self.run,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: to_ns(start),
            end_ns: to_ns(end),
            count,
        };
        self.spans.push(span);
    }

    /// Per-span self time: the span's duration minus the part covered by
    /// its direct children (children never overlap one another).
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Totals per span name, sorted by name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_insert(SpanTotals {
                calls: 0,
                total_ns: 0,
                self_ns: 0,
                count: 0,
            });
            t.calls += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
            t.count += s.count;
        }
        out
    }

    /// Every span as one JSON object per line, with its derived self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 120);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"count\":{}}}",
                s.name, s.run, s.start_ns, s.end_ns, s.count
            );
        }
        std::fs::write(path, text)
    }
}
