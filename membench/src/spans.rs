//! Bench-side spans around each public call into a layer.
//!
//! A span records its name, start, end, parent span, and an item id
//! shared by the spans of one item (one machine point, one fleet cell,
//! one report section). Spans stay in memory while the benchmark runs
//! and are written once at exit as a Chrome/Perfetto trace. Recording is
//! off unless [`enable`] was called, so untraced runs pay one atomic load
//! per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub item: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn finished() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Open spans on this thread: (id, item).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_ID.fetch_add(1, Ordering::Relaxed);
}

pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Open span; records itself when dropped.
pub struct Guard(Option<Span>);

/// Opens a span that inherits its parent's item id.
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// Opens a span that starts a new item.
pub fn item(name: &'static str) -> Guard {
    open(name, Some(NEXT_ID.fetch_add(1, Ordering::Relaxed)))
}

fn open(name: &'static str, item: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, inherited) = STACK.with(|s| s.borrow().last().copied()).unzip();
    let item = item.or(inherited).unwrap_or(id);
    STACK.with(|s| s.borrow_mut().push((id, item)));
    Guard(Some(Span {
        id,
        parent,
        name,
        item,
        thread: THREAD.with(|t| *t),
        start_ns: epoch().elapsed().as_nanos() as u64,
        end_ns: 0,
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.0.take() {
            span.end_ns = epoch().elapsed().as_nanos() as u64;
            STACK.with(|s| s.borrow_mut().pop());
            if let Ok(mut spans) = finished().lock() {
                spans.push(span);
            }
        }
    }
}

/// Every span recorded so far, in completion order.
pub fn recorded() -> Vec<Span> {
    finished().lock().expect("span table poisoned").clone()
}

/// Total seconds of all spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Self time per layer: each span's duration minus the part of it its
/// child spans cover, summed by layer.
pub fn self_secs_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *by_layer.entry(s.layer()).or_default() += own as f64 / 1e9;
    }
    by_layer
}

/// Renders spans as Chrome trace-event JSON (loadable in Perfetto).
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"item\":{}}}}}",
            s.name,
            s.layer(),
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.item,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            item: 1,
            thread: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, "bench.pass", 0, 100),
            span(2, Some(1), "system.run_cold", 10, 50),
            span(3, Some(1), "system.run_warm", 50, 90),
        ];
        let by_layer = self_secs_by_layer(&spans);
        assert_eq!(by_layer["bench"], 20e-9);
        assert_eq!(by_layer["system"], 80e-9);
        assert!(to_chrome_json(&spans).contains("\"parent\":1"));
    }
}
