//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent and the id of the
//! request it belongs to. Spans stay in memory while the workload runs
//! and are written out once at the end. A disabled tracer records
//! nothing and only runs the wrapped call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `call` inside a span named `name`; spans opened inside
    /// `call` become its children.
    pub fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        call: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return call(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            request,
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(index);
        let start = Instant::now();
        let out = call(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[index].start_ns = self.offset(start);
        self.spans[index].end_ns = self.offset(end);
        out
    }

    /// Records a root span whose ends were stamped elsewhere (a request
    /// that was in flight while other work ran).
    pub fn record(&mut self, request: u64, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                request,
                name,
                parent: None,
                start_ns: self.offset(start),
                end_ns: self.offset(end),
            });
        }
    }

    /// Mean self time in nanoseconds of every span name below the root
    /// spans named `root` (the root's own self time included), per root.
    /// Self time is a span's duration minus what its children cover.
    pub fn self_times_per_root(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let mut roots = 0;
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if self.spans[root_of(i)].name != root {
                continue;
            }
            if span.parent.is_none() {
                roots += 1;
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            *totals.entry(span.name).or_default() += own as f64;
        }
        if roots > 0 {
            for v in totals.values_mut() {
                *v /= roots as f64;
            }
        }
        totals
    }

    /// Mean duration in nanoseconds of the root spans named `name`.
    pub fn mean_root_ns(&self, name: &str) -> f64 {
        let durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            durations.iter().sum::<u64>() as f64 / durations.len() as f64
        }
    }

    /// Writes every span as one tab-separated line:
    /// `index request name parent start_ns end_ns` (parent `-` for roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("index\trequest\tname\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
