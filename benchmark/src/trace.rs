//! In-memory spans recorded by the harness around its calls into each
//! layer. Nothing inside the scheduler is instrumented: a span is the wall
//! time of one call as its caller sees it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The rep this span belongs to (0 = set-up and warm-up).
    pub rep: u32,
}

/// Span recorder. When disabled every method is a branch and a call, so
/// the untraced run pays nothing for sharing code with the traced one.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Turns recording on or off; the traced run alternates the two to
    /// price the recording itself.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Records a span whose ends were timed by the caller — for intervals
    /// that overlap, such as pipelined requests in flight.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A position in the recording, for [`Tracer::durations`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of the spans called `name` recorded since
    /// `mark`.
    pub fn durations(&self, name: &str, mark: usize) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per span name: how many, their total time, and their self time —
    /// the total minus what their direct children cover. Seconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 * 1e-9;
            // Overlapping children (pipelined requests) can cover more
            // than their parent; self time stops at zero.
            e.2 += total.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 72);
        let _ = write!(
            s,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \
                 \"parent\": {parent}, \"rep\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.rep
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_rep() {
        let mut tr = Tracer::new(true);
        tr.set_rep(3);
        let got = tr.span("outer", |tr| {
            tr.span("inner", |_| 1) + tr.span("inner", |_| 2)
        });
        assert_eq!(got, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let sum = tr.summary();
        assert_eq!(sum["inner"].0, 2);
        // The outer span's self time excludes both children.
        assert!(sum["outer"].2 <= sum["outer"].1);
        assert_eq!(tr.durations("inner", 0).len(), 2);
        assert_eq!(tr.durations("inner", 2).len(), 1);
        assert_eq!(tr.mark(), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 5), 5);
        tr.record("y", Instant::now(), Instant::now());
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn json_lists_every_span() {
        let mut tr = Tracer::new(true);
        tr.span("a", |tr| tr.record("b", Instant::now(), Instant::now()));
        let json = tr.to_json("w", 9);
        assert!(json.contains("\"workload\": \"w\""));
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"name\": \"b\""));
        assert!(json.contains("\"parent\": 0"));
    }
}
