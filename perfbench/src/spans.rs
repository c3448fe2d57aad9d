//! The traced run's span recorder: spans (name, start, end, parent)
//! kept in memory and written out once the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Single-threaded recorder. Spans nest by scope: a span opened while
/// another is open becomes its child.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    peaks: RefCell<BTreeMap<String, f64>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        self.rec.spans.borrow_mut()[self.id].end_ns = end;
        let popped = self.rec.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.id), "spans must close in reverse order");
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::default(),
            open: RefCell::default(),
            peaks: RefCell::default(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn span(&self, name: &str) -> Guard<'_> {
        let start = self.now_ns();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span { name: name.to_owned(), start_ns: start, end_ns: start, parent });
        self.open.borrow_mut().push(id);
        Guard { rec: self, id }
    }

    /// Record a span timed elsewhere (e.g. on a client thread) as a
    /// child of the innermost open span.
    pub fn record(&self, name: &str, start: Instant, dur: Duration) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let parent = self.open.borrow().last().copied();
        let end_ns = start_ns + dur.as_nanos() as u64;
        self.spans.borrow_mut().push(Span { name: name.to_owned(), start_ns, end_ns, parent });
    }

    /// Keep the largest value seen for gauge `name`.
    pub fn peak(&self, name: &str, value: f64) {
        let mut peaks = self.peaks.borrow_mut();
        let v = peaks.entry(name.to_owned()).or_insert(value);
        *v = v.max(value);
    }

    /// The largest value recorded for gauge `name`, 0 if none.
    pub fn peak_of(&self, name: &str) -> f64 {
        self.peaks.borrow().get(name).copied().unwrap_or(0.0)
    }

    #[cfg(test)]
    fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.borrow().iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Summed duration (seconds) of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of span `id`: its duration minus the part of it that
    /// its children cover.
    fn self_secs(&self, id: usize) -> f64 {
        let spans = self.spans.borrow();
        let children: f64 = spans.iter().filter(|s| s.parent == Some(id)).map(Span::secs).sum();
        spans[id].secs() - children
    }

    /// Share (percent) of the last span called `root` that its children
    /// cover.
    pub fn coverage_pct(&self, root: &str) -> f64 {
        let Some(id) = self.spans.borrow().iter().rposition(|s| s.name == root) else {
            return 0.0;
        };
        let total = self.spans.borrow()[id].secs();
        if total <= 0.0 {
            return 0.0;
        }
        (1.0 - self.self_secs(id) / total) * 100.0
    }

    /// One JSON object per line: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent` (null for a root span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_parents_self_time_and_coverage() {
        let rec = Recorder::default();
        {
            let _root = rec.span("pass");
            {
                let _a = rec.span("exec");
                std::thread::sleep(Duration::from_millis(4));
            }
            let _b = rec.span("analysis");
            std::thread::sleep(Duration::from_millis(4));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(rec.self_secs(0) >= 0.0 && rec.self_secs(0) < spans[0].secs());
        assert!(rec.coverage_pct("pass") > 50.0);
        assert_eq!(rec.to_jsonl().lines().count(), 3);
    }
}
