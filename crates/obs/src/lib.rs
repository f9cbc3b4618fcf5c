//! `mega-obs` — unified tracing and metrics for the MEGA reproduction.
//!
//! The paper's whole argument is a profiling argument: Figs. 4–6 attribute
//! DGL's slowdown to memory-stalled graph kernels and MEGA's win to banded,
//! sequential access. This crate gives the reproduction first-class
//! instrumentation of its own hot paths so that claim stays measurable:
//!
//! * **Spans** — RAII scoped timers ([`span`]) with thread-aware nesting.
//!   Each thread keeps its own span stack; a span's *path* is the
//!   `/`-joined chain of the enclosing spans on its thread (work fanned out
//!   to pool workers therefore roots at the worker, by design).
//! * **Counters and gauges** — monotonically accumulated `u64` counters
//!   ([`counter_add`]) and last-write-wins `f64` gauges ([`gauge_set`]).
//! * **Histograms** — fixed log-scale buckets with p50/p90/p99
//!   ([`record_value`] for deterministic quantities such as chunk sizes,
//!   [`record_time_ns`] for wall-clock samples).
//! * **Snapshot** — [`snapshot`] aggregates everything into a [`Snapshot`]
//!   whose [`Snapshot::to_json`] has a *deterministic* mode: counters,
//!   gauges, value-histograms, and span/timing **counts** only — bit-identical
//!   across identical runs — while wall-clock totals and percentiles are
//!   reserved for the full mode and the Chrome trace.
//! * **Chrome trace** — [`trace_json`] emits every completed span in the
//!   Chrome `chrome://tracing` / Perfetto JSON array format.
//! * **Reporting** — [`report`] provides the `--quiet`/`MEGA_LOG`-gated
//!   [`data!`]/[`info!`]/[`debug!`]/[`error!`] macros the CLI and benchmark
//!   binaries print through.
//!
//! # Cost model
//!
//! Everything is gated on one process-global [`AtomicBool`]: with
//! instrumentation disabled (the default) every entry point is a single
//! relaxed load and a branch — a few nanoseconds — so instrumented code can
//! stay instrumented. The enabled path takes a mutex on a global registry;
//! it is meant for profiling runs, not for the steady-state hot loop.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod report;

pub use hist::Histogram;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A completed span, as stored in the registry.
#[derive(Debug, Clone)]
struct SpanRecord {
    /// Full `/`-joined path, ending in this span's name.
    path: String,
    /// Small sequential id of the recording thread.
    tid: u64,
    /// Start offset from the process-wide epoch, in nanoseconds.
    start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    dur_ns: u64,
}

/// One sample of a counter track, as stored in the registry and emitted as
/// a Chrome-trace `ph: "C"` counter event.
#[derive(Debug, Clone)]
struct CounterSample {
    name: String,
    tid: u64,
    ts_ns: u64,
    value: f64,
}

/// Spans retained in the flight-recorder ring (most recent last).
const FLIGHT_CAPACITY: usize = 128;

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    values: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
    /// Timestamped counter-track samples ([`trace_counter`]); trace-only —
    /// they carry wall-clock timestamps, so they never enter deterministic
    /// snapshots.
    counter_tracks: Vec<CounterSample>,
    /// Bounded ring of the most recent completed spans — the black box the
    /// NaN/Inf sentinel dumps when training aborts. Unlike `spans` (which
    /// grows for the whole run), this stays at [`FLIGHT_CAPACITY`] entries.
    flight: std::collections::VecDeque<SpanRecord>,
    /// Total enabled-path API calls — used by `benches/obs_overhead.rs` to
    /// bound the disabled-path overhead of an instrumented workload.
    api_calls: u64,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Turns instrumentation on or off, process-wide. Off by default.
pub fn set_enabled(on: bool) {
    epoch(); // Pin the trace epoch no later than the first enable.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently enabled. This is the few-nanosecond
/// check every entry point performs first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded metrics and spans (thread-local span stacks of
/// in-flight spans are untouched; such spans record into the new state).
pub fn reset() {
    let mut r = registry().lock().expect("obs registry poisoned");
    *r = Registry::default();
}

/// Adds `delta` to the named counter. No-op (one atomic load) when disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut r = registry().lock().expect("obs registry poisoned");
    r.api_calls += 1;
    match r.counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            r.counters.insert(name.to_string(), delta);
        }
    }
}

/// Sets the named gauge (last write wins). No-op when disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut r = registry().lock().expect("obs registry poisoned");
    r.api_calls += 1;
    r.gauges.insert(name.to_string(), value);
}

/// Records a timestamped sample on the named *counter track* — rendered by
/// [`trace_json`] as a Chrome-trace `ph: "C"` counter event, so quantities
/// like pool resident bytes or the gradient norm plot as their own lanes
/// next to the span events. Trace-only: samples carry wall-clock
/// timestamps and never appear in snapshots. No-op when disabled.
pub fn trace_counter(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let ts_ns = epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let tid = thread_id();
    let mut r = registry().lock().expect("obs registry poisoned");
    r.api_calls += 1;
    r.counter_tracks.push(CounterSample {
        name: name.to_string(),
        tid,
        ts_ns,
        value,
    });
}

fn record_hist(timing: bool, name: &str, v: u64) {
    let mut r = registry().lock().expect("obs registry poisoned");
    r.api_calls += 1;
    let map = if timing {
        &mut r.timings
    } else {
        &mut r.values
    };
    match map.get_mut(name) {
        Some(h) => h.record(v),
        None => {
            let mut h = Histogram::new();
            h.record(v);
            map.insert(name.to_string(), h);
        }
    }
}

/// Records a *deterministic* sample (a size, a count, a plan statistic) into
/// the named value-histogram. Included in full detail in deterministic
/// snapshots. No-op when disabled.
pub fn record_value(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    record_hist(false, name, v);
}

/// Records every sample of `values` into the named value-histogram under
/// one registry lock: the same histogram as one [`record_value`] call per
/// sample (none for an empty `values`), for a distribution taken whole.
/// No-op when disabled.
pub fn record_values(name: &str, values: impl IntoIterator<Item = u64>) {
    if !enabled() {
        return;
    }
    let mut values = values.into_iter().peekable();
    if values.peek().is_none() {
        return;
    }
    let mut r = registry().lock().expect("obs registry poisoned");
    r.api_calls += 1;
    let h = r.values.entry(name.to_string()).or_default();
    values.for_each(|v| h.record(v));
}

/// Records a wall-clock sample in nanoseconds into the named
/// timing-histogram. Deterministic snapshots keep only its sample count.
/// No-op when disabled.
pub fn record_time_ns(name: &str, ns: u64) {
    if !enabled() {
        return;
    }
    record_hist(true, name, ns);
}

/// A wall-clock stopwatch that measures regardless of the global enable
/// flag.
///
/// This is the sanctioned way for the rest of the workspace to take host
/// timings that must always be captured (training-phase breakdowns,
/// preprocessing cost): the `obs-routing` lint (`mega-lint`) forbids raw
/// `Instant::now` outside this crate and the benchmark binaries, so
/// timing flows through one auditable choke point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in (fractional) seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// An optional timer that is live only while instrumentation is enabled.
///
/// [`timer`] costs one atomic load when disabled (no clock read at all);
/// enabled, [`Timer::observe`] records the elapsed wall-clock time into the
/// named timing-histogram, exactly like [`record_time_ns`]. Instrumented
/// hot paths use this instead of hand-rolling
/// `enabled().then(Instant::now)` — which the `obs-routing` lint would
/// reject outside this crate.
#[must_use = "a timer measures until observed; an unused timer records nothing"]
#[derive(Debug)]
pub struct Timer {
    start: Option<Instant>,
}

/// Starts a [`Timer`]: live when instrumentation is enabled, inert (a
/// single atomic load, no clock read) when disabled.
pub fn timer() -> Timer {
    Timer {
        start: enabled().then(Instant::now),
    }
}

impl Timer {
    /// Records the elapsed time into the named timing-histogram, when the
    /// timer is live. Consumes the timer; the disabled path does nothing.
    pub fn observe(self, name: &str) {
        if let Some(t0) = self.start {
            record_time_ns(name, t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// An in-flight RAII span; the measured interval ends when it drops.
///
/// Spans must be dropped in LIFO order per thread (the natural order of
/// stack-scoped guards); interleaved drops would misattribute nesting.
#[must_use = "a span measures until dropped; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    name: &'static str,
    /// `/`-joined names of the enclosing spans on this thread at start.
    prefix: String,
    start: Instant,
    start_ns: u64,
}

/// Opens a named span. With instrumentation disabled this is a single atomic
/// load; enabled, it notes the start time and this thread's span stack.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let prefix = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let prefix = s.join("/");
        s.push(name);
        prefix
    });
    let start = Instant::now();
    let start_ns = start
        .duration_since(epoch())
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    SpanGuard {
        inner: Some(SpanInner {
            name,
            prefix,
            start,
            start_ns,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(
                s.last().copied(),
                Some(inner.name),
                "span drops must be LIFO"
            );
            s.pop();
        });
        let path = if inner.prefix.is_empty() {
            inner.name.to_string()
        } else {
            format!("{}/{}", inner.prefix, inner.name)
        };
        let record = SpanRecord {
            path,
            tid: thread_id(),
            start_ns: inner.start_ns,
            dur_ns,
        };
        let mut r = registry().lock().expect("obs registry poisoned");
        r.api_calls += 2; // open + close both touch the enabled check
        if r.flight.len() == FLIGHT_CAPACITY {
            r.flight.pop_front();
        }
        r.flight.push_back(record.clone());
        r.spans.push(record);
    }
}

/// Aggregated histogram statistics in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Approximate percentiles (bucket upper bounds).
    pub p50: u64,
    /// The 90th percentile.
    pub p90: u64,
    /// The 99th percentile.
    pub p99: u64,
}

impl HistSummary {
    fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            sum: h.sum(),
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
        }
    }
}

/// Aggregated statistics for one span path in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// Full `/`-joined path.
    pub path: String,
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub total_ns: u64,
}

/// A point-in-time aggregation of everything recorded so far.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Deterministic value-histograms, sorted by name.
    pub values: Vec<(String, HistSummary)>,
    /// Wall-clock timing-histograms, sorted by name.
    pub timings: Vec<(String, HistSummary)>,
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanAgg>,
    /// Total enabled-path API calls that produced this snapshot.
    pub api_calls: u64,
}

/// Takes a snapshot of the current registry contents.
pub fn snapshot() -> Snapshot {
    let r = registry().lock().expect("obs registry poisoned");
    let mut span_map: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in &r.spans {
        let e = span_map.entry(&s.path).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.dur_ns;
    }
    Snapshot {
        counters: r.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        gauges: r.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        values: r
            .values
            .iter()
            .map(|(k, h)| (k.clone(), HistSummary::of(h)))
            .collect(),
        timings: r
            .timings
            .iter()
            .map(|(k, h)| (k.clone(), HistSummary::of(h)))
            .collect(),
        spans: span_map
            .into_iter()
            .map(|(path, (count, total_ns))| SpanAgg {
                path: path.to_string(),
                count,
                total_ns,
            })
            .collect(),
        api_calls: r.api_calls,
    }
}

fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            let _ = write!(out, "{v:.1}");
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push_str("null");
    }
}

impl Snapshot {
    /// Serializes the snapshot as pretty JSON.
    ///
    /// With `deterministic == true` the output is **bit-identical across
    /// identical runs**: counters, gauges, and value-histograms appear in
    /// full, while timing-histograms and spans are reduced to their sample
    /// counts (wall-clock totals and percentiles — the nondeterministic
    /// part — are omitted; they live in the full mode and the Chrome trace).
    pub fn to_json(&self, deterministic: bool) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n  \"deterministic\": ");
        o.push_str(if deterministic { "true" } else { "false" });
        o.push_str(",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json_escape(k, &mut o);
            let _ = write!(o, ": {v}");
        }
        o.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json_escape(k, &mut o);
            o.push_str(": ");
            json_f64(*v, &mut o);
        }
        o.push_str("\n  },\n  \"values\": {");
        for (i, (k, h)) in self.values.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json_escape(k, &mut o);
            let _ = write!(
                o,
                ": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.count, h.sum, h.p50, h.p90, h.p99
            );
        }
        o.push_str("\n  },\n  \"timings\": {");
        for (i, (k, h)) in self.timings.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json_escape(k, &mut o);
            if deterministic {
                let _ = write!(o, ": {{\"count\": {}}}", h.count);
            } else {
                let _ = write!(
                    o,
                    ": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
                    h.count, h.sum, h.p50, h.p90, h.p99
                );
            }
        }
        o.push_str("\n  },\n  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json_escape(&s.path, &mut o);
            if deterministic {
                let _ = write!(o, ": {{\"count\": {}}}", s.count);
            } else {
                let _ = write!(
                    o,
                    ": {{\"count\": {}, \"total_ns\": {}}}",
                    s.count, s.total_ns
                );
            }
        }
        o.push_str("\n  }\n}\n");
        o
    }

    /// Renders the span aggregates as an indented tree with counts, total
    /// milliseconds, and the share of all root-span time — the reproduction's
    /// answer to the paper's Fig. 5 time-share plot.
    pub fn render_span_tree(&self) -> String {
        let root_total: u64 = self
            .spans
            .iter()
            .filter(|s| !s.path.contains('/'))
            .map(|s| s.total_ns)
            .sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<42} {:>8} {:>12} {:>7}",
            "span", "count", "total(ms)", "share"
        );
        let _ = writeln!(out, "{}", "-".repeat(73));
        for s in &self.spans {
            let depth = s.path.matches('/').count();
            let name = s.path.rsplit('/').next().unwrap_or(&s.path);
            let label = format!("{}{}", "  ".repeat(depth), name);
            let share = if root_total == 0 {
                0.0
            } else {
                s.total_ns as f64 / root_total as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "{:<42} {:>8} {:>12.3} {:>6.1}%",
                label,
                s.count,
                s.total_ns as f64 / 1e6,
                share
            );
        }
        out
    }
}

/// Serializes every completed span in Chrome trace-event JSON (an array of
/// `"ph": "X"` complete events plus `"ph": "C"` counter events from
/// [`trace_counter`], loadable in `chrome://tracing` / Perfetto).
/// Timestamps are microseconds since the process-wide trace epoch.
pub fn trace_json() -> String {
    let r = registry().lock().expect("obs registry poisoned");
    let mut o = String::with_capacity(64 + (r.spans.len() + r.counter_tracks.len()) * 96);
    o.push_str("[\n");
    let mut first = true;
    for s in &r.spans {
        if !first {
            o.push_str(",\n");
        }
        first = false;
        let name = s.path.rsplit('/').next().unwrap_or(&s.path);
        o.push_str("  {\"name\": ");
        json_escape(name, &mut o);
        o.push_str(", \"cat\": \"mega\", \"ph\": \"X\", \"pid\": 1, ");
        let _ = write!(
            o,
            "\"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"path\": ",
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3
        );
        json_escape(&s.path, &mut o);
        o.push_str("}}");
    }
    for c in &r.counter_tracks {
        if !first {
            o.push_str(",\n");
        }
        first = false;
        o.push_str("  {\"name\": ");
        json_escape(&c.name, &mut o);
        o.push_str(", \"cat\": \"mega\", \"ph\": \"C\", \"pid\": 1, ");
        let _ = write!(
            o,
            "\"tid\": {}, \"ts\": {:.3}, \"args\": {{\"value\": ",
            c.tid,
            c.ts_ns as f64 / 1e3
        );
        json_f64(c.value, &mut o);
        o.push_str("}}");
    }
    o.push_str("\n]\n");
    o
}

/// One entry of the flight-recorder ring (a recently completed span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Full `/`-joined span path.
    pub path: String,
    /// Sequential id of the recording thread.
    pub tid: u64,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
}

/// The flight recorder: the most recent completed spans (oldest first,
/// at most [`FLIGHT_CAPACITY`](self) entries). This is the bounded black
/// box the training NaN/Inf sentinel dumps on abort — cheap enough to
/// keep populated for a whole run, detailed enough to show what the
/// process was doing when a non-finite value appeared.
pub fn flight_recorder() -> Vec<FlightEvent> {
    let r = registry().lock().expect("obs registry poisoned");
    r.flight
        .iter()
        .map(|s| FlightEvent {
            path: s.path.clone(),
            tid: s.tid,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        })
        .collect()
}

/// Renders the flight recorder as one line per event (oldest first), for
/// inclusion in diagnostic dumps. Empty when instrumentation never ran.
pub fn render_flight_recorder() -> String {
    let events = flight_recorder();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder ({} events, most recent last):",
        events.len()
    );
    for e in &events {
        let _ = writeln!(
            out,
            "  t={:>12.3}us +{:>10.3}us tid={} {}",
            e.start_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
            e.tid,
            e.path
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Serializes tests that touch the process-global registry/flag.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        set_enabled(false);
        reset();
        counter_add("x", 5);
        gauge_set("g", 1.0);
        record_value("v", 10);
        record_time_ns("t", 10);
        let s = span("nothing");
        drop(s);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.values.is_empty());
        assert!(snap.timings.is_empty());
        assert!(snap.spans.is_empty());
        assert_eq!(snap.api_calls, 0);
    }

    #[test]
    fn deterministic_snapshot_is_stable_across_runs() {
        let _g = guard();
        // Two "runs" with identical logical work but different wall-clock
        // timings: the deterministic JSON must match byte for byte; the
        // full JSON generally differs.
        let run = |time_ns: u64, sleep_us: u64| {
            reset();
            set_enabled(true);
            counter_add("det.counter", 7);
            gauge_set("det.gauge", 0.25);
            record_value("det.value", 1024);
            record_time_ns("det.timing", time_ns);
            {
                let _outer = span("det_outer");
                std::thread::sleep(std::time::Duration::from_micros(sleep_us));
                let _inner = span("det_inner");
            }
            set_enabled(false);
            let snap = snapshot();
            (snap.to_json(true), snap.to_json(false))
        };
        let (det_a, full_a) = run(1_000, 1);
        let (det_b, full_b) = run(999_999, 17);
        assert_eq!(det_a, det_b, "deterministic snapshots diverged");
        assert_ne!(full_a, full_b, "full snapshots should carry wall clock");
        // And the deterministic form still names every metric family.
        for key in [
            "det.counter",
            "det.gauge",
            "det.value",
            "det.timing",
            "det_outer/det_inner",
        ] {
            assert!(
                det_a.contains(key),
                "missing {key} in deterministic snapshot"
            );
        }
        reset();
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let _g = guard();
        set_enabled(true);
        reset();
        counter_add("a.b", 2);
        counter_add("a.b", 3);
        gauge_set("g", 0.5);
        gauge_set("g", 0.75);
        for v in [1u64, 2, 4, 8] {
            record_value("sizes", v);
        }
        record_time_ns("lat", 1000);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counters, vec![("a.b".to_string(), 5)]);
        assert_eq!(snap.gauges, vec![("g".to_string(), 0.75)]);
        assert_eq!(snap.values[0].1.count, 4);
        assert_eq!(snap.values[0].1.sum, 15);
        assert_eq!(snap.timings[0].1.count, 1);
        assert!(snap.api_calls >= 8);
        reset();
    }

    #[test]
    fn batched_values_snapshot_like_single_records() {
        let _g = guard();
        let samples = [3u64, 0, 7, 7, 1 << 20, 12];
        let json = |batched: bool| {
            set_enabled(true);
            reset();
            record_value("sizes", 5);
            if batched {
                record_values("sizes", samples);
                record_values("empty", []);
            } else {
                samples.iter().for_each(|&v| record_value("sizes", v));
            }
            set_enabled(false);
            let out = snapshot().to_json(true);
            reset();
            out
        };
        assert_eq!(json(true), json(false));
    }

    #[test]
    fn span_nesting_builds_paths() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let paths: Vec<(&str, u64)> = snap
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.count))
            .collect();
        assert_eq!(paths, vec![("outer", 1), ("outer/inner", 2)]);
        reset();
    }

    #[test]
    fn json_modes_and_escaping() {
        let _g = guard();
        set_enabled(true);
        reset();
        counter_add("weird\"name", 1);
        record_time_ns("t", 5);
        {
            let _s = span("root");
        }
        set_enabled(false);
        let snap = snapshot();
        let det = snap.to_json(true);
        assert!(det.contains("\\\"")); // escaped quote
        assert!(
            !det.contains("total_ns"),
            "deterministic mode must omit wall-clock"
        );
        assert!(!det.contains("sum_ns"));
        let full = snap.to_json(false);
        assert!(full.contains("total_ns"));
        assert!(full.contains("sum_ns"));
        reset();
    }

    #[test]
    fn trace_contains_complete_events() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _a = span("alpha");
            let _b = span("beta");
        }
        set_enabled(false);
        let t = trace_json();
        assert!(t.trim_start().starts_with('['));
        assert!(t.trim_end().ends_with(']'));
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"alpha\""));
        assert!(t.contains("alpha/beta"));
        reset();
    }

    #[test]
    fn counter_tracks_emit_chrome_counter_events() {
        let _g = guard();
        set_enabled(true);
        reset();
        trace_counter("pool.resident", 4096.0);
        trace_counter("pool.resident", 8192.0);
        {
            let _s = span("work");
        }
        set_enabled(false);
        trace_counter("pool.resident", 1.0); // disabled: dropped
        let t = trace_json();
        assert_eq!(t.matches("\"ph\": \"C\"").count(), 2);
        assert_eq!(t.matches("\"ph\": \"X\"").count(), 1);
        assert!(t.contains("\"value\": 8192.0"));
        // Counter samples are trace-only: snapshots ignore them.
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        reset();
    }

    #[test]
    fn flight_recorder_keeps_a_bounded_recent_window() {
        let _g = guard();
        set_enabled(true);
        reset();
        for _ in 0..FLIGHT_CAPACITY + 22 {
            let _s = span("tick");
        }
        {
            let _s = span("last_thing");
        }
        set_enabled(false);
        let events = flight_recorder();
        assert_eq!(events.len(), FLIGHT_CAPACITY, "ring must stay bounded");
        assert_eq!(
            events.last().map(|e| e.path.as_str()),
            Some("last_thing"),
            "most recent span must be retained"
        );
        let rendered = render_flight_recorder();
        assert!(rendered.contains("last_thing"));
        assert!(rendered.contains("128 events"));
        reset();
    }

    #[test]
    fn span_tree_renders_indented() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _a = span("train");
            {
                let _b = span("forward");
            }
        }
        set_enabled(false);
        let tree = snapshot().render_span_tree();
        assert!(tree.contains("train"));
        assert!(tree.contains("  forward"));
        reset();
    }
}
