//! In-memory spans for the traced run.
//!
//! A span is `(name, start, end, parent, op_id)`. The benchmark records
//! them only around its own calls into the product's public API — no file
//! outside this directory gains a timer. Spans stay in memory during the
//! run and are written out once, at exit.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operations of one client request share an id.
    pub op_id: u64,
}

/// Collects spans from every client thread. Disabled (`Tracer::off`), a
/// `span` call is one branch and no clock read, so the untraced run pays
/// nothing measurable for sharing the traced run's code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` under a span. `f` receives the span's own index, to pass
    /// as the `parent` of the spans it opens.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let index = {
            let mut spans = self.spans.lock().expect("span lock");
            spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                op_id,
            });
            spans.len() - 1
        };
        let out = f(Some(index));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span lock")[index].end_ns = end_ns;
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Write every span, with the run's header fields and counters, as one
    /// JSON document.
    pub fn write_json(&self, path: &Path, header: &str, counters: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span lock");
        let mut out = String::with_capacity(64 + spans.len() * 72);
        let _ = write!(
            out,
            "{{\"run\":{header},\"counters\":{counters},\"spans\":["
        );
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
