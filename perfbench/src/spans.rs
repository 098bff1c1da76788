//! In-memory spans around the benchmark's own calls into each layer, with
//! self time and a Chrome trace-event export (plain JSON; Perfetto and
//! `chrome://tracing` open it).
//!
//! Spans are recorded only by the benchmark, at the boundary of each call
//! it makes into a crate; spans inside the program are not recorded here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span ids of the `sparse` probes start here, clear of request ids.
pub const PROBE_IDS: u64 = 1 << 40;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The request (or set-up step) the span belongs to; children share
    /// their parent's id.
    pub id: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A tracer that is either recording or a no-op, so the untraced run pays
/// one branch per call site.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for request `id`; nested calls
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name` (µs).
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .sum()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children of one span do not overlap, since one
/// thread records them).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut child_cover = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_cover[p] += s.duration_us();
        }
    }
    spans
        .iter()
        .zip(child_cover)
        .map(|(s, covered)| (s.duration_us() - covered).max(0.0))
        .collect()
}

/// Self time summed per span name (µs), in name order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        *out.entry(s.name).or_insert(0.0) += own;
    }
    out
}

/// The spans as a Chrome trace-event JSON document: one complete (`"X"`)
/// event per span on a single thread, the request id and parent index in
/// `args`.
pub fn chrome_trace_json(spans: &[Span], process_name: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{{\"name\":\"{process_name}\"}}}}"
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"id\":{},\"parent\":{parent}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_us,
            s.duration_us(),
            s.id,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            id: 7,
            parent,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", None, 0.0, 100.0),
            span("core.submit", Some(0), 10.0, 70.0),
            span("sparse.encode", Some(0), 75.0, 80.0),
            span("sparse.compress", Some(2), 76.0, 79.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own, vec![35.0, 60.0, 2.0, 3.0]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], 35.0);
        assert_eq!(by_name.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 3, |t| t.span("inner", 3, |_| 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us);
        assert!(spans[1].end_us <= spans[0].end_us);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 1, |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_export_has_one_event_per_span() {
        let spans = vec![
            span("request", None, 0.0, 10.0),
            span("core.submit", Some(0), 1.0, 9.0),
        ];
        let json = chrome_trace_json(&spans, "bulk-queue");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"cat\":\"core\""));
        assert!(json.trim_end().ends_with('}'));
    }
}
