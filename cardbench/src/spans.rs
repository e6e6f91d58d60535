//! The benchmark's own spans, recorded around each public call it makes into
//! a layer: name, start, end, parent span and request id. They stay in
//! memory while the run measures and are written out when it ends.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the recorder's origin, nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Client request id, for spans that belong to one served request.
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log. A disabled recorder keeps nothing, so timed runs
/// pay one branch per call site.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant) -> Spans {
        Spans {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is set later with [`Spans::close`]; children
    /// can name it as their parent meanwhile.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            let end = self.offset(Instant::now());
            self.spans[i].end_ns = end;
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, None);
        out
    }

    /// Moves another recorder's spans in (same origin), re-parenting its
    /// roots under `parent`.
    pub fn absorb(&mut self, other: Spans, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// The share of parent time that child spans explain: over every span
    /// that has children, the summed child time over the summed parent time.
    pub fn explained_frac(&self) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let (mut covered, mut total) = (0u64, 0u64);
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            if c > 0 {
                covered += c.min(s.dur_ns());
                total += s.dur_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false, Instant::now());
        let id = s.open("root", None);
        s.close(id);
        assert_eq!(s.time("x", id, || 3), 3);
        assert!(id.is_none() && s.all().is_empty());
    }

    #[test]
    fn explained_share_counts_children_against_parents() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut s = Spans::new(true, t0);
        let root = s.record("root", ms(0), ms(100), None, None);
        s.record("a", ms(0), ms(60), root, None);
        s.record("b", ms(60), ms(90), root, Some(7));
        assert!((s.explained_frac() - 0.9).abs() < 1e-9);
        assert_eq!(s.durations_us("b"), vec![30_000.0]);
        let mut other = Spans::new(true, t0);
        let inner = other.record("c", ms(0), ms(10), None, None);
        other.record("d", ms(0), ms(5), inner, None);
        s.absorb(other, root);
        assert_eq!(s.all()[3].parent, root);
        assert_eq!(s.all()[4].parent, Some(3));
    }
}
