//! Spans recorded from the benchmark's own code around each call into a
//! layer: name, start, end and parent, kept in memory and written once at
//! the end of a traced run. A layer's self time is its span minus the
//! time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;
use tracefill_util::Json;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// Records nested spans; does nothing but call through when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Total and self seconds of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_s: f64,
    /// Summed durations minus the time their child spans cover.
    pub self_s: f64,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`; the span's parent is the
    /// innermost span open when it starts.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Per-name totals over the closed spans.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.end_s - s.start_s;
            e.self_s += s.end_s - s.start_s - child;
        }
        out
    }

    /// Every span, in start order, as `[name, start_s, end_s, parent]`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    s.name.into(),
                    s.start_s.into(),
                    s.end_s.into(),
                    s.parent.map_or(Json::Null, |p| (p as u64).into()),
                ])
            })
            .collect();
        Json::object()
            .with("format", "[name, start_s, end_s, parent index]")
            .with("spans", Json::Arr(spans))
    }

    /// A human table of self and total time per span name.
    pub fn self_time_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:32} {:>8} {:>12} {:>12}",
            "span", "count", "self_s", "total_s"
        );
        for (name, t) in self.totals() {
            let _ = writeln!(
                s,
                "{:32} {:>8} {:>12.6} {:>12.6}",
                name, t.count, t.self_s, t.total_s
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = tr.totals();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!((outer.self_s + inner.total_s - outer.total_s).abs() < 1e-9);
        assert!(inner.self_s >= 0.004 && outer.self_s >= 0.004);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.totals().is_empty());
    }
}
