//! Spans recorded from the benchmark's own calls into each layer, kept in
//! memory and written out when the run ends, plus the counters recorded at
//! the same boundaries.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rrm_serve::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    pub parent: Option<u64>,
    /// Spans of one request share this id.
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// When disabled, [`Tracer::span`] only runs its closure, and counters are
/// dropped: the untraced run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id so it can parent
    /// child spans. Returns `f`'s result.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(Span {
            id,
            name,
            start: self.nanos(start),
            end: self.nanos(Instant::now()),
            parent,
            request,
        });
        out
    }

    /// Record a span whose bounds were measured elsewhere (e.g. an
    /// open-loop request, which starts at its due time). Returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            name,
            start: self.nanos(start),
            end: self.nanos(end),
            parent,
            request,
        });
        Some(id)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    pub fn count(&self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counters.lock().expect("counters poisoned").entry(name).or_insert(0.0) += by;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.lock().expect("counters poisoned").get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = Json::Obj(vec![
                ("id".into(), s.id.into()),
                ("name".into(), s.name.into()),
                ("start_ns".into(), s.start.into()),
                ("end_ns".into(), s.end.into()),
                ("parent".into(), s.parent.map_or(Json::Null, Json::from)),
                ("request".into(), s.request.into()),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Per-name aggregate over a span set: calls, total and self nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub calls: u64,
    pub total: u64,
    pub self_time: u64,
}

impl Agg {
    pub fn mean_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total as f64 / self.calls as f64 / 1e9
        }
    }
}

/// Aggregate spans by name, with self time computed against each span's
/// direct children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], |v| v.as_slice());
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.total += s.nanos();
        a.self_time += self_time(s.start, s.end, kids);
    }
    out
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (parallel work) or
/// spill past the parent; each instant is subtracted at most once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Nested child inside another child.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(0, 10), (90, 100)]), 80);
        // A child spilling past the parent is clipped.
        assert_eq!(self_time(50, 100, &[(40, 60), (95, 120)]), 35);
        // Children covering everything leave no self time.
        assert_eq!(self_time(0, 10, &[(0, 5), (5, 10)]), 0);
        assert_eq!(self_time(0, 10, &[]), 10);
    }

    #[test]
    fn aggregate_uses_direct_children() {
        let span = |id, name, start, end, parent| Span { id, name, start, end, parent, request: 1 };
        let spans = vec![
            span(1, "replay", 0, 100, None),
            span(2, "topk", 10, 50, Some(1)),
            span(3, "kernel", 10, 30, Some(2)),
            span(4, "cover", 40, 90, Some(1)),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["replay"].self_time, 100 - 80);
        assert_eq!(agg["topk"].self_time, 20);
        assert_eq!(agg["kernel"].self_time, 20);
        assert_eq!(agg["cover"].total, 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 1, |id| id), None);
        t.count("c", 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0.0);
        let t = Tracer::new(true);
        let id = t.span("x", None, 1, |id| id);
        assert!(id.is_some());
        assert_eq!(t.spans().len(), 1);
    }
}
