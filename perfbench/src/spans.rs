//! The benchmark's own span recorder and the self-time arithmetic over it.
//!
//! Spans are taken in the benchmark's files, around each call into a layer
//! of the system (the program's internal trace rings stay at their shipped
//! default, off). Each unit of work — a batch, a read, a query — gets a
//! root span; the calls it makes into layers are its children. Spans are
//! kept in memory and written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval that
//! its children cover. A root's self time is the time no layer span
//! accounts for; a root whose children cover less than [`ATTRIBUTED`] of
//! its wall time counts as unattributed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Sample;

/// Share of a root's wall time its children must cover for the root to
/// count as attributed.
pub const ATTRIBUTED: f64 = 0.90;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `persist.append`; roots are
    /// `workload.unit`, e.g. `ingest.batch`.
    pub name: &'static str,
    /// Nanoseconds since the run's clock epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Batch sequence number or query id.
    pub tag: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-thread span store. Disabled tracers record nothing and cost one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer { on, epoch, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span when tracing is on and `traced` is set (the traced
    /// run leaves some units untraced to measure the tracing overhead).
    pub fn root(&mut self, name: &'static str, tag: u64, traced: bool) -> Option<usize> {
        if !self.on || !traced {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: None, tag });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`root`](Self::root).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a child span of `parent`; with no parent (tracing
    /// off or an untraced unit) it only runs `f`.
    pub fn child<R>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        tag: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(p) = parent else { return f() };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(p), tag });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// Writes every span as a tab-separated line:
    /// `index name start_ns end_ns parent tag` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\ttag")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.tag)?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans.iter().zip(children).map(|(s, kids)| s.duration_ns() - covered(s, kids)).collect()
}

/// Nanoseconds of `s` covered by the union of `kids`.
fn covered(s: &Span, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut reach = s.start_ns;
    for (a, b) in kids {
        let (a, b) = (a.max(reach), b.min(s.end_ns));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Default)]
pub struct NameStat {
    pub count: u64,
    pub self_ns: u64,
    /// Span durations in microseconds.
    pub durations_us: Sample,
}

/// The per-layer view of a run's spans.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    pub by_name: BTreeMap<&'static str, NameStat>,
    /// Self time summed per layer (roots count under their workload name).
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    pub roots: u64,
    pub root_wall_ns: u64,
    /// Roots whose children cover less than [`ATTRIBUTED`] of them.
    pub unattributed_roots: u64,
    /// Root self time: wall time no child span accounts for.
    pub unattributed_ns: u64,
}

impl Attribution {
    /// Self time of `layer` as a share of all root wall time.
    pub fn share(&self, layer: &str) -> f64 {
        if self.root_wall_ns == 0 {
            return 0.0;
        }
        *self.layer_self_ns.get(layer).unwrap_or(&0) as f64 / self.root_wall_ns as f64
    }

    pub fn stat(&self, name: &str) -> NameStat {
        self.by_name.get(name).cloned().unwrap_or_default()
    }
}

pub fn attribute(spans: &[Span]) -> Attribution {
    let selfs = self_times(spans);
    let mut a = Attribution::default();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = a.by_name.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += own;
        e.durations_us.push(s.duration_ns() as f64 / 1e3);
        *a.layer_self_ns.entry(s.layer()).or_default() += own;
        if s.parent.is_none() {
            a.roots += 1;
            a.root_wall_ns += s.duration_ns();
            a.unattributed_ns += own;
            let dur = s.duration_ns();
            if dur > 0 && ((dur - own) as f64) < ATTRIBUTED * dur as f64 {
                a.unattributed_roots += 1;
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, tag: 0 }
    }

    /// root [0,100) ← a [10,40) ← a1 [15,25)
    ///             ← b [50,95)
    ///             ← c [90,120) overlaps b and runs past the root's end
    fn tree() -> Vec<Span> {
        vec![
            span("w.unit", 0, 100, None),
            span("persist.append", 10, 40, Some(0)),
            span("persist.sync", 15, 25, Some(1)),
            span("pool.apply", 50, 95, Some(0)),
            span("engine.run", 90, 120, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let st = self_times(&tree());
        // Root: children cover [10,40) + [50,100) = 80 of 100.
        assert_eq!(st[0], 20);
        // a: its child covers 10 of 30.
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 10);
        assert_eq!(st[3], 45);
        assert_eq!(st[4], 30);
    }

    #[test]
    fn attribution_sums_per_layer_and_flags_thin_roots() {
        let a = attribute(&tree());
        assert_eq!(a.roots, 1);
        assert_eq!(a.root_wall_ns, 100);
        assert_eq!(a.unattributed_ns, 20);
        // 80% covered < 90%: unattributed.
        assert_eq!(a.unattributed_roots, 1);
        assert_eq!(a.layer_self_ns["persist"], 30);
        assert_eq!(a.layer_self_ns["pool"], 45);
        assert!((a.share("pool") - 0.45).abs() < 1e-12);
        assert_eq!(a.stat("persist.append").count, 1);
        assert_eq!(a.stat("missing.name").count, 0);
    }

    #[test]
    fn well_covered_root_is_attributed() {
        let spans = vec![
            span("w.unit", 0, 100, None),
            span("pool.apply", 0, 60, Some(0)),
            span("pool.apply", 60, 95, Some(0)),
        ];
        let a = attribute(&spans);
        assert_eq!(a.unattributed_roots, 0);
        assert_eq!(a.unattributed_ns, 5);
    }

    #[test]
    fn untraced_units_record_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.root("w.unit", 1, false);
        assert_eq!(t.child(root, "pool.apply", 1, || 7), 7);
        t.end(root);
        assert!(t.spans().is_empty());
        let mut off = Tracer::new(false, Instant::now());
        assert!(off.root("w.unit", 1, true).is_none());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let r = a.root("w.unit", 0, true);
        a.child(r, "pool.apply", 0, || ());
        a.end(r);
        let mut b = Tracer::new(true, epoch);
        let r = b.root("w.read", 1, true);
        b.child(r, "epoch.pin", 1, || ());
        b.end(r);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[2].parent, None);
    }
}
