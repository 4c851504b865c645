//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into the library's public functions from
//! the benchmark's own code. Each span carries the id of the request (or
//! probe item) it belongs to and the index of its parent, so the self time
//! of a layer is its duration minus the time its children cover. Spans stay
//! in memory until [`Tracer::write_jsonl`] writes them out at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `graph.canon`.
    pub name: &'static str,
    /// Request or probe-item id shared by every span of that item.
    pub item: u64,
    /// Free tag, e.g. the query's node count.
    pub tag: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Span recorder. When disabled, [`Tracer::enter`] and [`Tracer::exit`]
/// record nothing, so the same code path runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; pass it to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder that keeps spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str, item: u64, tag: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            item,
            tag,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`]; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.open.retain(|&i| i != idx);
        self.spans[idx].end_ns = end;
    }

    /// Self time of every span, in microseconds: duration minus the
    /// durations of its direct children (children never overlap, since
    /// spans nest on one thread).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c) as f64 / 1_000.0)
            .collect()
    }

    /// Self times (µs) of the spans named `name` whose tag passes `keep`.
    pub fn self_us_where(&self, name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        let selfs = self.self_times_us();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name && keep(s))
            .map(|(_, t)| t)
            .collect()
    }

    /// Self times (µs) of every span named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.self_us_where(name, |_| true)
    }

    /// All spans as JSON lines, with self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_us)) in self.spans.iter().zip(self.self_times_us()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"item\":{},\"tag\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_us\":{self_us}}}",
                s.name, s.item, s.tag, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Write every span to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 1, 0);
        let inner = t.enter("inner", 1, 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let outer_us = (t.spans[0].end_ns - t.spans[0].start_ns) as f64 / 1_000.0;
        let selfs = t.self_times_us();
        assert!(selfs[1] >= 5_000.0);
        // the parent's self time excludes the child's sleep
        assert!(selfs[0] < outer_us - 4_000.0);
        assert_eq!(t.self_us("inner").len(), 1);
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("x", 0, 0);
        t.exit(open);
        assert!(t.spans.is_empty());
    }
}
