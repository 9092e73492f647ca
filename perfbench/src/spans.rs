//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span records its name, start, end, parent span and run id. Spans
//! stay in memory while the workload runs and are written out as JSONL
//! once it ends. A disabled tracer records nothing, so the untraced run
//! pays only a branch per call.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span covers (`fragments`, `partition`, …).
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one run or job.
    pub run: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder; shareable across threads.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and is a no-op otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panic")
    }

    /// Records the interval `[start, end]` as a finished span and
    /// returns its index (`None` when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            run,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children may
    /// name it as parent in between.
    pub fn open(&self, name: &'static str, parent: Option<usize>, run: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, run)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = Instant::now().saturating_duration_since(self.origin);
            self.spans()[id].end = end;
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// wall time (measured even when the tracer is disabled).
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, run);
        (out, end - start)
    }

    /// A copy of every recorded span.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }

    /// Wall time the recorded spans added, in seconds: the cost of
    /// recording one span, timed in a loop, times the spans recorded.
    pub fn overhead_s(&self) -> f64 {
        const N: u32 = 20_000;
        let t = Tracer::new(true);
        let start = Instant::now();
        for i in 0..N {
            let now = Instant::now();
            t.record("calibration", now, now, None, u64::from(i));
        }
        let per_span = start.elapsed().as_secs_f64() / f64::from(N);
        per_span * self.spans().len() as f64
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.run
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Sum of the self times of the spans named `name`.
pub fn self_time_of(spans: &[Span], selfs: &[Duration], name: &str) -> Duration {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, d)| *d)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a by 10
            span("c", 45, 50, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], Duration::from_millis(50));
        assert_eq!(selfs[1], Duration::from_millis(30));
        assert_eq!(selfs[2], Duration::from_millis(25));
        assert_eq!(selfs[3], Duration::from_millis(5));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, _) = t.time("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(t.open("y", None, 0).is_none());
        assert!(t.snapshot().is_empty());
    }
}
