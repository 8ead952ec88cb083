//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions (no tracing inside the program itself).
//!
//! A span has a name (the layer), start and end, a parent and a request
//! id.  Spans stay in memory and are written out as JSON lines when the
//! run ends.  A layer's *self* time is its span's duration minus the
//! part its child spans cover; root spans (`request`, `sweep`, `setup`)
//! are the benchmark's own bookkeeping, so their self time is the part
//! of the traced total no layer accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span (times in seconds since the tracer's origin).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Span recorder.  A disabled tracer records nothing, so one replay
/// loop serves both the untraced and the traced pass.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-layer totals derived from the spans.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Self time per span name, milliseconds.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Span count per name.
    pub calls: BTreeMap<&'static str, usize>,
    /// Sum of root-span durations, milliseconds.
    pub total_ms: f64,
    /// Self time of the root spans (not attributed to any layer), ms.
    pub unattributed_ms: f64,
}

impl Attribution {
    /// `1 - (sum of layer self time) / traced total`.
    pub fn unattributed_frac(&self) -> f64 {
        if self.total_ms > 0.0 {
            self.unattributed_ms / self.total_ms
        } else {
            0.0
        }
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn calls(&self, name: &str) -> usize {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span under the innermost open one; returns its handle.
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        idx
    }

    /// Close the span `idx` (must be the innermost open one).
    pub fn close(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, req);
        let out = f();
        self.close(s);
        out
    }

    /// Self time and call count per span name.
    pub fn attribution(&self) -> Attribution {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += (s.end - s.start) * 1e3;
            }
        }
        let mut a = Attribution::default();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end - s.start) * 1e3;
            let own = dur - child_ms[i];
            *a.self_ms.entry(s.name).or_default() += own;
            *a.calls.entry(s.name).or_default() += 1;
            if s.parent.is_none() {
                a.total_ms += dur;
                a.unattributed_ms += own;
            }
        }
        a
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_roots_are_unattributed() {
        let mut t = Tracer::new(true);
        let root = t.open("request", 0);
        t.time("epod.translate", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.time("gpusim.exec", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        t.close(root);
        let a = t.attribution();
        assert!(a.ms("epod.translate") >= 20.0);
        assert!(a.ms("gpusim.exec") >= 10.0);
        let sum = a.ms("epod.translate") + a.ms("gpusim.exec") + a.unattributed_ms;
        assert!((sum - a.total_ms).abs() < 1e-6);
        assert!(a.unattributed_frac() < 0.2);
        assert_eq!(a.calls("request"), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("request", 1);
        t.close(s);
        assert!(t.spans.is_empty());
        assert_eq!(t.attribution().total_ms, 0.0);
    }
}
