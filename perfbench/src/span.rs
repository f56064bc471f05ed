//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)`, recorded around a call from the
//! benchmark into one crate. Names are `"<layer>.<stage>"`; the layer is
//! the part before the first dot. Spans live in memory until the run ends
//! and are then written out as JSON. With tracing off, [`span`] is one
//! relaxed atomic load around the call, so the untraced runs execute the
//! same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished (or, after a panic, abandoned) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `"<layer>.<stage>"`.
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start_s: f64,
    /// Seconds since the recorder's epoch; `None` while open.
    pub end_s: Option<f64>,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds (zero for a span a panic left open).
    pub fn dur_s(&self) -> f64 {
        self.end_s.map_or(0.0, |e| e - self.start_s)
    }
}

// Relaxed: the flag publishes no data; spans themselves go through the
// mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_s() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread, to hand to work that runs on
/// another thread (see [`span_under`]).
pub fn current() -> Option<usize> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Closes its span on drop, so a panicking call still leaves a closed
/// span and a balanced stack for the `catch_unwind` above it.
struct Open(usize);

impl Drop for Open {
    fn drop(&mut self) {
        let end = now_s();
        if let Ok(mut spans) = SPANS.lock() {
            spans[self.0].end_s = Some(end);
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

fn open(name: &'static str, parent: Option<usize>) -> Open {
    let start_s = now_s();
    let id = {
        let mut spans = SPANS.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_s,
            end_s: None,
            parent,
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(id));
    Open(id)
}

/// Run `f` inside a span named `name`, child of this thread's innermost
/// open span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let _open = open(name, current());
    f()
}

/// [`span`] with an explicit parent, for the first span a worker thread
/// opens on behalf of work the main thread started.
pub fn span_under<T>(parent: Option<usize>, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let _open = open(name, parent);
    f()
}

/// Remove and return every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Self time of span `i`: its duration minus the part of its interval
/// that its children cover (children on several threads may overlap, so
/// the union of their intervals is subtracted, not their sum).
pub fn self_time(spans: &[Span], i: usize) -> f64 {
    let (Some(end), start) = (spans[i].end_s, spans[i].start_s) else {
        return 0.0;
    };
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .filter_map(|s| Some((s.start_s.max(start), s.end_s?.min(end))))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            _ => {
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (end - start) - covered
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.layer()).or_insert(0.0) += self_time(spans, i);
    }
    out
}

/// Indices of `root` and every span below it.
pub fn subtree(spans: &[Span], root: usize) -> Vec<usize> {
    let mut out = vec![root];
    let mut k = 0;
    while k < out.len() {
        let p = out[k];
        out.extend((0..spans.len()).filter(|&i| spans[i].parent == Some(p)));
        k += 1;
    }
    out
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                r#"  {{"name":"{}","start_s":{:.9},"end_s":{},"parent":{}}}"#,
                s.name,
                s.start_s,
                s.end_s.map_or("null".to_string(), |e| format!("{e:.9}")),
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s: a,
            end_s: Some(b),
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("sweep.pool", 0.0, 10.0, None),
            sp("sweep.job", 1.0, 5.0, Some(0)),
            sp("sweep.job", 2.0, 6.0, Some(0)),
            sp("netsim.run", 2.0, 3.0, Some(1)),
        ];
        assert!((self_time(&spans, 0) - 5.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 3.0).abs() < 1e-12);
        let layers = layer_self_times(&spans);
        assert!((layers["sweep"] - 12.0).abs() < 1e-12);
        assert!((layers["netsim"] - 1.0).abs() < 1e-12);
        assert_eq!(subtree(&spans, 1), vec![1, 3]);
    }
}
