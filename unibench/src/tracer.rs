//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function: name, start,
//! end, parent span and certificate id. Spans stay in memory (up to a
//! cap; later ones still count toward the per-name totals) and are
//! written out once, at exit. A disabled tracer reads no clock, so the
//! same staged loop run with tracing on and off measures the tracer's own
//! overhead.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name, `layer.operation`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if kept.
    pub parent: Option<u32>,
    /// Input index (or batch / shard index for store spans).
    pub cert: u64,
}

/// Count and total duration of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations, ns.
    pub ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    stack: Vec<u32>,
    totals: HashMap<&'static str, Total>,
}

impl Tracer {
    /// A recorder keeping at most `cap` spans (`enabled == false`: a no-op
    /// pass-through).
    pub fn new(enabled: bool, cap: usize) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
            stack: Vec::new(),
            totals: HashMap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, 0)
    }

    /// Switch recording on or off (kept spans and totals stay).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Run `f` as span `name` for input `cert`; spans opened inside `f`
    /// through the tracer it receives become children.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cert: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let slot = if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: (parent != NO_PARENT).then_some(parent),
                cert,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.stack.push(slot);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let ns = end.duration_since(start).as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(slot as usize) {
            span.start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            span.end_ns = span.start_ns + ns;
        }
        let total = self.totals.entry(name).or_default();
        total.count += 1;
        total.ns += ns;
        out
    }

    /// Take the per-name totals accumulated since the last call.
    pub fn take_totals(&mut self) -> HashMap<&'static str, Total> {
        std::mem::take(&mut self.totals)
    }

    /// Spans kept.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every kept span as TSV (`id name start_ns end_ns parent cert`),
    /// with a header noting how many spans exceeded the cap.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# spans kept {} dropped {}",
            self.spans.len(),
            self.dropped
        )?;
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tcert")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.cert
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_caps_and_totals() {
        let mut t = Tracer::new(true, 2);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| ());
            t.span("inner", 1, |_| ());
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let totals = t.take_totals();
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["outer"].count, 1);
        assert!(t.take_totals().is_empty());

        let mut off = Tracer::off();
        assert_eq!(off.span("x", 0, |_| 7), 7);
        assert!(off.spans().is_empty() && off.take_totals().is_empty());
    }
}
