//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public entry
//! point; nothing inside the program is instrumented. A layer's self time
//! is its span's duration minus the time its child spans cover. Spans are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the root span of request `id`; later spans until the matching
    /// [`Tracer::exit`] are its descendants.
    pub fn begin_request(&mut self, id: u64) -> Open {
        self.request = id;
        self.enter("request")
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        Open(index)
    }

    pub fn exit(&mut self, open: Open) {
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
        self.spans[open.0].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Self time and call count per span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(span.name).or_default();
            t.calls += 1;
            t.self_ns += (span.end_ns - span.start_ns).saturating_sub(children);
        }
        totals
    }

    /// Total duration of every root (`request`) span, in nanoseconds.
    pub fn request_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `index parent request name start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut tracer = Tracer::new();
        let root = tracer.begin_request(1);
        tracer.span("driver", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.exit(root);
        let totals = tracer.layer_totals();
        let driver = totals["driver"].self_ns;
        assert!(driver >= 5_000_000);
        assert!(totals["request"].self_ns < driver);
        assert_eq!(tracer.request_ns(), totals["request"].self_ns + driver);
    }
}
