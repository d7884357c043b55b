//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (in
//! nanoseconds from the recorder's origin), the span that was open when
//! it started (its parent), and the id of the request it belongs to.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. A disabled recorder (the untraced runs) records nothing.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `server.decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one operation.
    pub request: u64,
}

impl Span {
    /// Wall time of the span.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; single-threaded (the traced replay runs on one
/// thread so that layer times are not inflated by contention).
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (see [`Recorder::enter`]).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or drops them.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Recorder::enter`]; spans close in
    /// reverse order of opening.
    pub fn exit(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, request);
        let out = f();
        self.exit(span);
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one span never overlap, because the
/// recorder is single-threaded).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per request id, per span name: summed self time in nanoseconds.
#[must_use]
pub fn self_time_by_request(spans: &[Span]) -> HashMap<u64, HashMap<&'static str, u64>> {
    let selfs = self_times(spans);
    let mut out: HashMap<u64, HashMap<&'static str, u64>> = HashMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *out.entry(s.request).or_default().entry(s.name).or_default() += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        let root = rec.enter("request", 7);
        rec.time("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + spans[1].duration_ns(), spans[0].duration_ns());
        assert!(spans[1].duration_ns() >= 2_000_000);

        let mut off = Recorder::new(false);
        let span = off.enter("request", 1);
        off.exit(span);
        assert!(off.spans().is_empty());
    }
}
