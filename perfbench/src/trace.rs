//! The span recorder of the traced run (`--trace 1`).
//!
//! Spans are recorded in memory around each public call the benchmark
//! makes and each wrapper method, and written out when the run ends. A
//! span carries its name, start, end, the span that caused it and a
//! request id (network index in the high 32 bits, operation index in the
//! low 32). Nestable spans are opened on the benchmark's main thread and
//! form a stack; leaf spans (the RPCs a coordinator fans out on its own
//! threads) take the innermost open nestable span as parent without
//! nesting.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover (the union, since fanned-out children
//! overlap). While tracing is off, opening a span costs one atomic load.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start: u64,
    pub end: u64,
}

struct State {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

// A statistic flag: it publishes no data (the state sits behind the mutex).
static ON: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<State>> = Mutex::new(None);

fn state() -> MutexGuard<'static, Option<State>> {
    STATE.lock().expect("a thread panicked while recording a span")
}

/// Starts recording (dropping anything recorded before).
pub fn start() {
    *state() =
        Some(State { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 });
    ON.store(true, Ordering::Relaxed);
}

/// Stops recording and returns the spans.
pub fn stop() -> Vec<Span> {
    ON.store(false, Ordering::Relaxed);
    state().take().map(|s| s.spans).unwrap_or_default()
}

/// Whether spans are being recorded.
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Sets the request id stamped on spans opened from now on.
pub fn set_request(network: usize, op: usize) {
    if on() {
        if let Some(s) = state().as_mut() {
            s.request = ((network as u64) << 32) | (op as u64 & 0xFFFF_FFFF);
        }
    }
}

/// An open span; closes when dropped.
pub struct Guard {
    index: Option<usize>,
    nested: bool,
}

fn open(name: &'static str, nested: bool) -> Guard {
    if !on() {
        return Guard { index: None, nested };
    }
    let mut guard = state();
    let Some(s) = guard.as_mut() else { return Guard { index: None, nested } };
    let index = s.spans.len();
    let start = s.epoch.elapsed().as_nanos() as u64;
    s.spans.push(Span {
        name,
        parent: s.stack.last().copied(),
        request: s.request,
        start,
        end: start,
    });
    if nested {
        s.stack.push(index);
    }
    Guard { index: Some(index), nested }
}

/// Opens a nestable span on the benchmark's main thread.
pub fn enter(name: &'static str) -> Guard {
    open(name, true)
}

/// Opens a leaf span from any thread, parented by the innermost open
/// nestable span.
pub fn leaf(name: &'static str) -> Guard {
    open(name, false)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        // never panic in drop: a poisoned recorder just loses the span
        let Ok(mut guard) = STATE.lock() else { return };
        let Some(s) = guard.as_mut() else { return };
        let end = s.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = s.spans.get_mut(index) {
            span.end = end;
        }
        if self.nested && s.stack.last() == Some(&index) {
            s.stack.pop();
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(span.end));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: count, total nanoseconds and self nanoseconds.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end - span.start;
        entry.2 += own;
    }
    out
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start) as f64 / 1e3).collect()
}

/// Writes the spans as tab-separated lines, one header comment first.
pub fn write(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(out, "{id}\t{parent}\t{}\t{:#x}\t{}\t{}", s.name, s.request, s.start, s.end)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, parent, request: 0, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60), // overlaps a: union 10..60
            span("c", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
        let t = totals(&spans);
        assert_eq!(t["root"], (1, 100, 50));
    }
}
