//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public functions (and, for GC pauses and serve queue/exec time,
//! rebuilt from what the program already reports). They stay in memory
//! and are written out as JSON Lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The op id of spans recorded during set-up.
pub const SETUP_OP: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from (trace buffers handed to
    /// the program use it too, so their event times line up).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that ends at [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.record(name, op, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.at(Instant::now());
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let op = if s.op == SETUP_OP {
                "\"setup\"".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Summed self time (span minus the part its children cover), ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Number of spans of each name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Root spans whose tree's self times sum to more than the root's
    /// own duration (children overlapping or outside their parent).
    pub inconsistent_ops: u64,
}

impl Breakdown {
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Mean self time per span of this name, ms (0 when none ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.self_ms(name) / n as f64,
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_lo, mut cur_hi) = (0, 0, 0);
    let mut open = false;
    for (s, e) in intervals {
        let (s, e) = (s.clamp(lo, hi), e.clamp(lo, hi));
        if open && s <= cur_hi {
            cur_hi = cur_hi.max(e);
        } else {
            if open {
                total += cur_hi - cur_lo;
            }
            (cur_lo, cur_hi, open) = (s, e, true);
        }
    }
    if open {
        total += cur_hi - cur_lo;
    }
    total
}

/// Self times of every span, and the per-root consistency check: within
/// one root span's tree the self times must sum to no more than the
/// root's duration.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let self_of: Vec<u64> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kids = children[i]
                .iter()
                .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                .collect();
            (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns)
        })
        .collect();
    let mut b = Breakdown::default();
    let mut tree_self: Vec<u64> = vec![0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        *b.self_ns.entry(s.name).or_insert(0) += self_of[i];
        *b.calls.entry(s.name).or_insert(0) += 1;
        let mut root = i;
        while let Some(p) = spans[root].parent {
            root = p;
        }
        tree_self[root] += self_of[i];
    }
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && tree_self[i] > s.end_ns - s.start_ns {
            b.inconsistent_ops += 1;
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
            span("gc", Some(2), 60, 70),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.self_ns["op"], 30);
        assert_eq!(b.self_ns["a"], 30);
        assert_eq!(b.self_ns["b"], 30);
        assert_eq!(b.self_ns["gc"], 10);
        assert_eq!(b.inconsistent_ops, 0);
    }

    #[test]
    fn overlapping_children_are_flagged() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 50, 120),
        ];
        assert_eq!(breakdown(&spans).inconsistent_ops, 1);
    }
}
