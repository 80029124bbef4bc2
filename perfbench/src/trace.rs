//! In-memory spans: name, start, end, parent and request id. Spans are
//! kept in memory while the benchmark runs and written out at the end;
//! self times are derived from the parent links.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The request this span served (0 for set-up and layer probes).
    pub req: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A span store.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
    /// Set by [`Recorder::off`]: spans run their bodies and record
    /// nothing, not even the clock.
    off: bool,
}

impl Recorder {
    /// A recorder that records nothing: the untraced baseline the
    /// tracing overhead is measured against.
    pub fn off() -> Recorder {
        Recorder {
            spans: Vec::new(),
            off: true,
        }
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if self.off {
            return 0;
        }
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; `f` receives the recorder and the span's
    /// index so it can record children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Recorder, usize) -> R,
    ) -> R {
        if self.off {
            return f(self, 0);
        }
        let now = Instant::now();
        let idx = self.push(name, req, parent, now, now);
        let out = f(self, idx);
        self.spans[idx].end = Instant::now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Median duration (ms) of the spans named `name`.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        stats::median(&self.durations_ms(name))
    }

    /// Each span's self time (ms): its duration minus the part of it
    /// that its children cover.
    pub fn self_times_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(span.start), c.end.min(span.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                covered.sort();
                let mut busy = 0.0;
                let mut cursor: Option<(Instant, Instant)> = None;
                for (a, b) in covered {
                    match cursor {
                        Some((ca, cb)) if a <= cb => cursor = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            busy += (cb - ca).as_secs_f64();
                            cursor = Some((a, b));
                        }
                        None => cursor = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cursor {
                    busy += (cb - ca).as_secs_f64();
                }
                (span.dur_ms() - busy * 1e3).max(0.0)
            })
            .collect()
    }

    /// Per span name: count, median duration, median self time and total
    /// self time (all ms), sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64, f64)> {
        let selfs = self.self_times_ms();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, self_ms) in self.spans.iter().zip(selfs) {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.dur_ms());
            entry.1.push(self_ms);
        }
        by_name
            .into_iter()
            .map(|(name, (durs, selfs))| {
                (
                    name,
                    durs.len(),
                    stats::median(&durs).unwrap_or(0.0),
                    stats::median(&selfs).unwrap_or(0.0),
                    selfs.iter().sum(),
                )
            })
            .collect()
    }

    /// Writes every span as one JSON line, times in µs from `epoch`.
    pub fn write_jsonl(&self, path: &Path, epoch: Instant) -> std::io::Result<()> {
        let selfs = self.self_times_ms();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ms)) in self.spans.iter().zip(selfs).enumerate() {
            let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                s.req,
                s.name,
                us(s.start),
                us(s.end),
                self_ms * 1e3
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
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut rec = Recorder::default();
        let root = rec.push("root", 1, None, ms(0), ms(10));
        rec.push("a", 1, Some(root), ms(1), ms(4));
        rec.push("b", 1, Some(root), ms(3), ms(6));
        rec.push("c", 1, Some(root), ms(8), ms(12));
        let selfs = rec.self_times_ms();
        assert!((selfs[root] - 3.0).abs() < 1e-9, "{selfs:?}");
        assert!((selfs[1] - 3.0).abs() < 1e-9);
    }
}
