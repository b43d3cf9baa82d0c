//! In-memory spans for the traced run: one per call the benchmark
//! makes into a layer, kept as (name, start, end, parent, operation)
//! and written out once the run ends.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `solar.trace`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (request id, column or rep) the span belongs to;
    /// 0 for set-up.
    pub op: u64,
}

impl Span {
    /// Span duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. Spans nest: a span entered while another is open
/// becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the operation id later spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}"#,
                    s.name,
                    s.start,
                    s.end,
                    s.parent
                        .map_or_else(|| "null".to_string(), |p| p.to_string()),
                    s.op
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Self time of every span in `spans` (see [`Tracer::self_times`]).
/// Overlapping children are counted once, and only inside the parent.
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
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered.min(s.duration())
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
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: only 30..50 is new.
            span("b", 20, 50, Some(0)),
            // Runs past the parent's end: only 90..100 counts.
            span("c", 90, 120, Some(0)),
            span("d", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::default();
        t.set_op(3);
        let op = t.enter("op");
        t.time("leaf", || std::hint::black_box(1 + 1));
        let inner = t.enter("mid");
        t.time("leaf", || ());
        t.exit(inner);
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 3 && s.end >= s.start));
        assert_eq!(spans.iter().filter(|s| s.name == "leaf").count(), 2);
        let total: u64 = t.self_times().iter().sum();
        assert_eq!(total, spans[0].duration(), "self times partition the root");
        assert!(t.to_json().starts_with("[\n{\"name\":\"op\""));
    }
}
