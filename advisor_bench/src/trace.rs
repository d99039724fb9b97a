//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! program's public functions: a name, start and end (nanoseconds since
//! the recorder was made) and the index of the enclosing span. Nothing
//! is written until the run ends. With tracing off every call is a
//! plain function call.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `api.predict_time`.
    pub name: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turn recording on for this thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Run `f` inside a span named `name` (a plain call when tracing is
/// off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            let parent = rec.open.last().copied();
            rec.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            rec.open.push(idx);
            rec.spans[idx].start_ns = rec.origin.elapsed().as_nanos() as u64;
            idx
        })
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Add spans recorded elsewhere (a child process) under the currently
/// open span, shifting their times by `offset_ns`.
pub fn adopt(spans: Vec<Span>, offset_ns: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let base = rec.spans.len();
            let parent = rec.open.last().copied();
            for s in spans {
                rec.spans.push(Span {
                    name: s.name,
                    start_ns: s.start_ns + offset_ns,
                    end_ns: s.end_ns + offset_ns,
                    parent: s.parent.map(|p| p + base).or(parent),
                });
            }
        }
    });
}

/// Nanoseconds since the recorder's origin (0 when tracing is off).
pub fn now_ns() -> u64 {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map_or(0, |rec| rec.origin.elapsed().as_nanos() as u64)
    })
}

/// A copy of every recorded span.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map_or(Vec::new(), |rec| rec.spans.clone())
    })
}

/// Total seconds and count of the spans named `name`.
pub fn total(name: &str) -> (f64, usize) {
    RECORDER.with(|r| {
        r.borrow().as_ref().map_or((0.0, 0), |rec| {
            rec.spans
                .iter()
                .filter(|s| s.name == name)
                .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
        })
    })
}

/// Durations (seconds) of the spans named `name`, in record order.
pub fn durations(name: &str) -> Vec<f64> {
    RECORDER.with(|r| {
        r.borrow().as_ref().map_or(Vec::new(), |rec| {
            rec.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::secs)
                .collect()
        })
    })
}
