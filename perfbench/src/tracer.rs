//! In-memory spans around the public calls each layer is entered through.
//!
//! A span records its name, an optional tag (the scheduler of a `sim.run`
//! span, the protocol of a `core.check` span), its start and end relative to
//! the tracer's epoch, the span that encloses it and the manifest index of
//! the unit it belongs to. Spans stay in memory until the run ends and are
//! written out once; self time per layer is computed from the file by
//! `run.py`. A disabled tracer records nothing, so the same pipeline code
//! gives the untraced baseline for the tracing overhead.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    tag: &'static str,
    unit: Option<usize>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; closing it with [`Tracer::close`] ends the span.
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str, unit: Option<usize>) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag: "",
            unit,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open span, setting its tag.
    pub fn close(&mut self, span: Open, tag: &'static str) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans close in LIFO order");
        let s = &mut self.spans[span.0];
        s.end_ns = end;
        s.tag = tag;
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, unit: Option<usize>, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, unit);
        let out = f();
        self.close(span, "");
        out
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes one tab-separated line per span:
    /// `id parent unit name tag start_ns end_ns` (`-` for an absent field).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "every span is closed before writing");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            let tag = if s.tag.is_empty() { "-" } else { s.tag };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{tag}\t{}\t{}",
                opt(s.parent),
                opt(s.unit),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
