//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the program's public functions,
//! from the benchmark's own code: the program itself carries no tracing.
//! Every span keeps its name, start, end, parent and the request, query or
//! job id it belongs to; the whole set is written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, named `module.function`.
    pub name: &'static str,
    /// Job, query or request id the span belongs to.
    pub id: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans on one thread. A disabled tracer runs the same
/// code and records nothing, so the untraced run takes the traced run's
/// path minus the clock reads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `id`. Spans opened inside
    /// `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the span at `idx`, ms.
    pub fn ms(&self, idx: usize) -> f64 {
        self.spans[idx].ms()
    }

    /// Duration of every span named `name`, ms, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration of every span named `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Self time of span `idx`: its duration minus the part of its
    /// interval that its children cover, ms.
    pub fn self_ms(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns - covered) as f64 / 1e6
    }

    /// Self time summed per span name, ms.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += self.self_ms(i);
        }
        out
    }

    /// Indices of the top-level spans.
    pub fn top_level(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none())
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                s,
                "  {{\"idx\": {i}, \"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"self_ms\": {}}}{}",
                sp.name,
                sp.id,
                sp.start_ns,
                sp.end_ns,
                self.self_ms(i),
                if i + 1 < self.spans.len() { "," } else { "" }
            )
            .expect("writing to a String cannot fail");
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(spans: &[(u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::enabled();
        for &(start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name: "x",
                id: 0,
                start_ns,
                end_ns,
                parent,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 ms; children 10..30, 20..40 (overlapping) and 90..120
        // (clipped to the parent): covered 10..40 + 90..100 = 40 ms.
        let ms = 1_000_000;
        let t = synthetic(&[
            (0, 100 * ms, None),
            (10 * ms, 30 * ms, Some(0)),
            (20 * ms, 40 * ms, Some(0)),
            (90 * ms, 120 * ms, Some(0)),
        ]);
        assert_eq!(t.self_ms(0), 60.0);
        assert_eq!(t.self_ms(1), 20.0);
        assert_eq!(t.top_level().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn nested_spans_record_parents_and_ids() {
        let mut t = Tracer::enabled();
        t.span("outer", 7, |t| {
            t.span("inner", 8, |_| ());
            t.span("inner", 9, |_| ());
        });
        t.span("after", 1, |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].id, s[0].parent), ("outer", 7, None));
        assert_eq!((s[1].name, s[1].id, s[1].parent), ("inner", 8, Some(0)));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(t.self_ms(0) <= t.ms(0));
        assert_eq!(t.top_level().count(), 2);
        assert!(t.to_json().contains("\"name\": \"inner\", \"id\": 9"));
    }

    #[test]
    fn disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::disabled();
        let v = t.span("outer", 1, |t| t.span("inner", 2, |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }
}
