//! The bench's own span recorder: one span around every call the bench
//! makes into a public function of the program, kept in memory and
//! written when the run ends. Spans of one operation share an op id and
//! name their parent, so a layer's self time is its span minus the part
//! its children cover.
//!
//! Every call is timed through the recorder whether or not it keeps the
//! span, so the traced and the untraced run execute the same bench code
//! and differ only by one `Vec` push per span (plus the program's own
//! obs gate, which the traced run turns on).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

/// One thread's recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tid: u32,
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// A started span; hand it back to [`Recorder::end`].
#[derive(Debug)]
pub struct Open {
    start: Instant,
    idx: u32,
}

impl Recorder {
    /// `origin` is shared by all threads of a run so their spans line up;
    /// `keep` is false on untraced runs (time only).
    pub fn new(origin: Instant, tid: u32, keep: bool) -> Self {
        Recorder {
            origin,
            tid,
            keep,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn keeping(&self) -> bool {
        self.keep
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        let mut idx = NO_PARENT;
        if self.keep {
            idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                op,
            });
            self.stack.push(idx);
        }
        Open { start, idx }
    }

    /// Close the span and return its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let ns = open.start.elapsed().as_nanos() as u64;
        if open.idx != NO_PARENT {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(open.idx), "spans must close innermost first");
            let span = &mut self.spans[open.idx as usize];
            span.end_ns = span.start_ns + ns;
        }
        ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: how many, their total duration, and their self time
/// (duration minus the children's), in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

/// Chrome `trace_event` JSON (load in Perfetto or `chrome://tracing`):
/// one complete (`"ph":"X"`) event per span, one track per recorder.
pub fn chrome_trace(recorders: &[&Recorder]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for r in recorders {
        for (i, s) in r.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"perf\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                r.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                i,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                }
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// One JSON object per span per line.
pub fn jsonl(recorders: &[&Recorder]) -> String {
    let mut out = String::new();
    for r in recorders {
        for (i, s) in r.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"tid\":{},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"op\":{}}}",
                r.tid,
                i,
                s.name,
                s.start_ns,
                s.end_ns,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.op
            );
        }
    }
    out
}

/// The structural rules a recorded trace obeys; the smoke test runs this
/// over every workload's spans.
#[cfg(test)]
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if s.parent == NO_PARENT {
            continue;
        }
        let Some(p) = spans
            .get(s.parent as usize)
            .filter(|_| (s.parent as usize) < i)
        else {
            return Err(format!("span {i} ({}) has no earlier parent", s.name));
        };
        if p.op != s.op {
            return Err(format!(
                "span {i} ({}) and its parent differ in op id",
                s.name
            ));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {i} ({}) does not fit inside its parent",
                s.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Recorder {
        let mut r = Recorder::new(Instant::now(), 3, true);
        for op in 0..3 {
            let outer = r.begin("fresh", op);
            let a = r.begin("core.apply", op);
            std::hint::black_box((0..200).sum::<u64>());
            r.end(a);
            let b = r.begin("serve.epoch_visible", op);
            r.end(b);
            r.end(outer);
        }
        r
    }

    #[test]
    fn parents_ops_and_nesting_hold() {
        let r = sample();
        assert_eq!(r.spans().len(), 9);
        check_well_formed(r.spans()).unwrap();
        for s in r.spans().iter().filter(|s| s.name != "fresh") {
            let p = &r.spans()[s.parent as usize];
            assert_eq!((p.name, p.op), ("fresh", s.op));
        }
        let t = totals_by_name(r.spans());
        assert_eq!(t["fresh"].count, 3);
        assert_eq!(
            t["fresh"].self_ns,
            t["fresh"].total_ns - t["core.apply"].total_ns - t["serve.epoch_visible"].total_ns
        );
        assert_eq!(t["core.apply"].self_ns, t["core.apply"].total_ns);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        let mut spans = sample().spans().to_vec();
        spans[1].op = 99;
        assert!(check_well_formed(&spans).unwrap_err().contains("op id"));
        let mut spans = sample().spans().to_vec();
        spans[1].end_ns = spans[0].end_ns + 1;
        assert!(check_well_formed(&spans)
            .unwrap_err()
            .contains("fit inside"));
        let mut spans = sample().spans().to_vec();
        spans[1].parent = 5;
        assert!(check_well_formed(&spans)
            .unwrap_err()
            .contains("earlier parent"));
    }

    #[test]
    fn untraced_recorder_times_but_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        let o = r.begin("core.apply", 1);
        std::hint::black_box((0..200).sum::<u64>());
        assert!(r.end(o) > 0);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn exports_are_loadable_json() {
        let r = sample();
        let trace = json::parse(&chrome_trace(&[&r])).unwrap();
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 9);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("tid").unwrap().as_f64(), Some(3.0));
        let lines = jsonl(&[&r]);
        assert_eq!(lines.lines().count(), 9);
        for line in lines.lines() {
            json::parse(line).unwrap();
        }
    }
}
