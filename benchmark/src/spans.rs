//! The driver's own span list: one span around every call the benchmark
//! makes into a product crate, kept in memory and written out when the run
//! ends. Spans inside the program are `mega_obs`'s business; these are the
//! layer boundaries as seen from outside.

use serde::{Deserialize, Serialize};

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Span {
    /// `<layer>.<call>`, e.g. `core.preprocess`.
    pub(crate) name: String,
    /// Start offset from the recorder's creation, nanoseconds.
    pub(crate) start_ns: u64,
    /// End offset; equals `start_ns` while the span is open.
    pub(crate) end_ns: u64,
    /// Index of the enclosing span in the list, if any.
    pub(crate) parent: Option<usize>,
}

/// Records spans with nesting by parent index.
#[derive(Debug)]
pub(crate) struct Recorder {
    clock: mega_obs::Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

fn now_ns(clock: &mega_obs::Stopwatch) -> u64 {
    clock.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A fresh recorder whose clock starts now.
pub(crate) fn recorder() -> Recorder {
    Recorder {
        clock: mega_obs::Stopwatch::start(),
        spans: Vec::new(),
        open: Vec::new(),
    }
}

/// Runs `f` inside a span called `name` and returns its result with the
/// span's wall-clock seconds.
pub(crate) fn timed<T>(
    rec: &mut Recorder,
    name: &str,
    f: impl FnOnce(&mut Recorder) -> T,
) -> (T, f64) {
    let id = rec.spans.len();
    let start_ns = now_ns(&rec.clock);
    rec.spans.push(Span {
        name: name.to_string(),
        start_ns,
        end_ns: start_ns,
        parent: rec.open.last().copied(),
    });
    rec.open.push(id);
    let out = f(rec);
    let end_ns = now_ns(&rec.clock);
    rec.open.pop();
    rec.spans[id].end_ns = end_ns;
    (out, (end_ns - start_ns) as f64 / 1e9)
}

/// The recorded spans, in start order.
pub(crate) fn finish(rec: Recorder) -> Vec<Span> {
    rec.spans
}

/// Self time per span: its duration minus the durations of its direct
/// children (each child is subtracted from its own parent only, so a
/// grandchild never counts twice).
pub(crate) fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn children_are_subtracted_once_from_their_own_parent() {
        let spans = vec![
            span("run", 0, 100, None),
            span("train", 10, 90, Some(0)),
            span("epoch", 20, 50, Some(1)),
            span("epoch", 50, 80, Some(1)),
            span("report", 90, 95, Some(0)),
        ];
        // run: 100 - (80 + 5); train: 80 - (30 + 30); leaves keep theirs.
        assert_eq!(self_ns(&spans), vec![15, 20, 30, 30, 5]);
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_parent_index() {
        let mut rec = recorder();
        let ((), outer_s) = timed(&mut rec, "outer", |rec| {
            timed(rec, "first", |_| ());
            timed(rec, "second", |rec| {
                timed(rec, "leaf", |_| ());
            });
        });
        timed(&mut rec, "sibling", |_| ());
        let spans = finish(rec);
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(outer_s >= 0.0);
        let own = self_ns(&spans);
        let total: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(own.iter().sum::<u64>(), total);
    }
}
