//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)`; spans are kept in a `Vec` and
//! only read back when the workload ends.  With tracing off every call is a
//! straight pass-through, so the untraced run measures the program alone.

use crate::stats::median;
use std::time::Instant;

/// One timed call into a layer, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 * 1e-6)
            .collect()
    }

    /// Median duration in milliseconds of the spans named `name`; 0 when
    /// the workload made no such call.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name)).unwrap_or(0.0)
    }

    /// Share of the time of the spans named `root` that no child span
    /// covers: the ledger's unattributed fraction.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let selfs = self_times(&self.spans);
        let (mut own, mut total) = (0u64, 0u64);
        for (s, own_ns) in self.spans.iter().zip(&selfs) {
            if s.name == root {
                own += own_ns;
                total += s.duration();
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", 0, 100, None),
            // Overlapping children cover [10, 50); a child sticking out of
            // its parent only counts inside it.
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 130, Some(0)),
            // A grandchild reduces its parent's self time only.
            span("d", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 8, 20, 40, 8]);
    }

    #[test]
    fn nested_spans_and_ledger() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            t.span("exec.eval", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        let frac = t.unattributed_frac("op");
        assert!((0.0..0.5).contains(&frac), "{frac}");
        assert!(t.median_ms("exec.eval") >= 2.0);
        assert_eq!(t.median_ms("absent"), 0.0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |_| 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.unattributed_frac("op"), 0.0);
    }
}
