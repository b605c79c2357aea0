//! Deterministic telemetry for the noisy-radio workspace.
//!
//! Every performance-critical layer of the workspace — the sparse
//! word-parallel round loop, the delivery sweep, the adaptive
//! routing runner, the sweep harness's cells — can attribute wall
//! clock to *phases* through this crate instead of whole-run timings.
//! The design constraints (DESIGN.md §12):
//!
//! * **Telemetry never changes artifacts.** Sinks only *observe*:
//!   producers compute their results first and emit timing data
//!   afterwards, so suite JSON, tables, traces, and stats are
//!   byte-identical with any sink attached. Nothing here draws
//!   randomness or feeds back into a simulation.
//! * **Zero cost when disabled.** The default [`NullSink`] reports
//!   [`TelemetrySink::enabled`]` = false` and producers gate every
//!   `Instant` read on that answer, so the engine's hot loops stay
//!   allocation-free and branch-cheap (one predictable branch per
//!   sweep, no clock reads).
//! * **Serde-free.** [`JsonlSink`] hand-rolls its JSON lines exactly
//!   like `radio_sweep::Json` renders artifacts; the event log parses
//!   with that same parser.
//!
//! Three sinks cover the use cases: [`NullSink`] (default, no-op),
//! [`CounterSink`] (in-memory span/counter aggregation with a
//! rendered summary table), and [`JsonlSink`] (structured event log,
//! one JSON object per line). [`SpanTimer`] and [`PhaseSet`] are the
//! producer-side helpers: an enabled-gated stopwatch and an ordered
//! phase → (nanos, calls) accumulator with a wall-clock breakdown
//! table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::time::Instant;

/// A telemetry event consumer: named spans (wall-clock nanoseconds)
/// and named counters.
///
/// The determinism contract: a sink observes, it never influences.
/// Producers must compute results before emitting and must gate any
/// timing work on [`TelemetrySink::enabled`] so the disabled path
/// ([`NullSink`]) costs nothing but an untaken branch.
pub trait TelemetrySink {
    /// Whether this sink wants events. Producers use the answer to
    /// skip clock reads and per-phase bookkeeping wholesale.
    fn enabled(&self) -> bool {
        true
    }

    /// Records a completed span: `name` took `nanos` wall-clock
    /// nanoseconds (accumulated if the name repeats).
    fn span(&mut self, name: &str, nanos: u64);

    /// Records a counter observation: `value` is *added* to `name`'s
    /// running total.
    fn counter(&mut self, name: &str, value: u64);
}

/// Forwarding impl so producers generic over `S: TelemetrySink` also
/// accept `&mut dyn TelemetrySink` (binaries pick a sink at runtime).
impl<T: TelemetrySink + ?Sized> TelemetrySink for &mut T {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn span(&mut self, name: &str, nanos: u64) {
        (**self).span(name, nanos);
    }
    fn counter(&mut self, name: &str, value: u64) {
        (**self).counter(name, value);
    }
}

/// The default sink: drops everything and reports itself disabled, so
/// producers skip all timing work. Every method is an inlined no-op —
/// attaching it is observationally identical to attaching nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn span(&mut self, _name: &str, _nanos: u64) {}
    #[inline(always)]
    fn counter(&mut self, _name: &str, _value: u64) {}
}

/// An in-memory aggregating sink: spans accumulate in a [`PhaseSet`]
/// (`(nanos, count)` per name), counters accumulate totals, both in
/// first-seen order so rendering and replay are deterministic for a
/// fixed event sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSink {
    spans: PhaseSet,
    counters: Vec<(String, u64)>,
}

impl CounterSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        CounterSink::default()
    }

    /// The accumulated spans, in first-seen order.
    pub fn spans(&self) -> &[(String, PhaseStat)] {
        self.spans.entries()
    }

    /// The accumulated counters, in first-seen order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// Total nanoseconds recorded under span `name`, if any.
    pub fn span_nanos(&self, name: &str) -> Option<u64> {
        self.spans()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.nanos)
    }

    /// The running total of counter `name`, if any.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Folds another sink's accumulations into this one (used to merge
    /// per-trial sinks back on the main thread, in trial order).
    pub fn merge(&mut self, other: &CounterSink) {
        self.spans.merge(&other.spans);
        for (name, value) in &other.counters {
            self.counter(name, *value);
        }
    }

    /// Replays every accumulated span and counter into `sink` (one
    /// event per name), e.g. to dump a merged summary into a
    /// [`JsonlSink`].
    pub fn emit_into<S: TelemetrySink>(&self, sink: &mut S) {
        self.spans.emit(sink);
        for (name, value) in &self.counters {
            sink.counter(name, *value);
        }
    }

    /// Renders the accumulation as a human-readable summary: a span
    /// breakdown (calls, total ms, share of the span total) followed
    /// by the counters.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&self.spans.render_table("telemetry spans"));
        }
        if !self.counters.is_empty() {
            let width = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0)
                .max(7);
            out.push_str("== telemetry counters\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:width$}  {value}\n"));
            }
        }
        out
    }
}

impl TelemetrySink for CounterSink {
    fn span(&mut self, name: &str, nanos: u64) {
        self.spans.add(name, nanos);
    }

    fn counter(&mut self, name: &str, value: u64) {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            self.counters[i].1 += value;
        } else {
            self.counters.push((name.to_string(), value));
        }
    }
}

/// A structured event log: one hand-rolled JSON object per event,
/// newline-delimited, serde-free — the same dialect `radio_sweep::Json`
/// parses.
///
/// Line schema (DESIGN.md §12): `{"span": "<name>", "value": <nanos>}`
/// for spans, `{"counter": "<name>", "value": <total>}` for counters —
/// exactly one of the `span`/`counter` keys (a string name) plus a
/// `value` key (an unsigned integer).
///
/// IO errors are latched: the first failure stops further writes and
/// is surfaced by [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (a `Vec<u8>`, a `BufWriter<File>`, …).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            lines: 0,
            error: None,
        }
    }

    /// Number of event lines successfully written.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer, or the first latched IO error.
    ///
    /// # Errors
    ///
    /// The first write or flush failure, if any occurred.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }

    fn write_line(&mut self, kind: &str, name: &str, value: u64) {
        if self.error.is_some() {
            return;
        }
        let mut line = String::with_capacity(32 + name.len());
        line.push_str("{\"");
        line.push_str(kind);
        line.push_str("\": \"");
        escape_into(&mut line, name);
        line.push_str("\", \"value\": ");
        line.push_str(&value.to_string());
        line.push_str("}\n");
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> TelemetrySink for JsonlSink<W> {
    fn span(&mut self, name: &str, nanos: u64) {
        self.write_line("span", name, nanos);
    }

    fn counter(&mut self, name: &str, value: u64) {
        self.write_line("counter", name, value);
    }
}

/// Minimal JSON string escaping (names are ASCII identifiers in
/// practice, but the log must stay parseable for any input).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// An enabled-gated stopwatch: reads the clock only when a sink asked
/// for events, so the disabled path never touches `Instant`.
///
/// ```
/// use radio_obs::{CounterSink, SpanTimer, TelemetrySink};
///
/// let mut sink = CounterSink::new();
/// let timer = SpanTimer::start(sink.enabled());
/// // ... the measured work ...
/// timer.stop(&mut sink, "work");
/// assert_eq!(sink.spans().len(), 1);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    start: Option<Instant>,
}

impl SpanTimer {
    /// Starts the stopwatch iff `enabled` (pass
    /// [`TelemetrySink::enabled`]).
    pub fn start(enabled: bool) -> Self {
        SpanTimer {
            start: enabled.then(Instant::now),
        }
    }

    /// Whether the stopwatch is running.
    pub fn enabled(&self) -> bool {
        self.start.is_some()
    }

    /// Elapsed nanoseconds so far (0 when disabled).
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Elapsed milliseconds so far (0.0 when disabled).
    pub fn elapsed_ms(&self) -> f64 {
        self.start.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3)
    }

    /// Stops the stopwatch, records the span on `sink` (when running),
    /// and returns the elapsed nanoseconds.
    pub fn stop<S: TelemetrySink>(self, sink: &mut S, name: &str) -> u64 {
        match self.start {
            Some(t) => {
                let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                sink.span(name, nanos);
                nanos
            }
            None => 0,
        }
    }
}

/// Accumulated statistics of one phase in a [`PhaseSet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Total wall-clock nanoseconds attributed to the phase.
    pub nanos: u64,
    /// Number of times the phase ran.
    pub count: u64,
}

/// An ordered phase → [`PhaseStat`] accumulator: the producer-side
/// building block for per-phase wall-clock breakdowns (engine
/// act/receive/reach/merge, routing decide/resolve, schedule
/// setup/run). Insertion-ordered, so tables and emitted events are
/// deterministic for a fixed call sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSet {
    entries: Vec<(String, PhaseStat)>,
}

impl PhaseSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PhaseSet::default()
    }

    /// Adds `nanos` to `name`, counting one call.
    pub fn add(&mut self, name: &str, nanos: u64) {
        self.add_counted(name, nanos, 1);
    }

    /// Adds `nanos` and `count` calls to `name`.
    pub fn add_counted(&mut self, name: &str, nanos: u64, count: u64) {
        if let Some(i) = self.entries.iter().position(|(n, _)| n == name) {
            self.entries[i].1.nanos += nanos;
            self.entries[i].1.count += count;
        } else {
            self.entries
                .push((name.to_string(), PhaseStat { nanos, count }));
        }
    }

    /// Folds another set into this one.
    pub fn merge(&mut self, other: &PhaseSet) {
        for (name, stat) in &other.entries {
            self.add_counted(name, stat.nanos, stat.count);
        }
    }

    /// The accumulated phases, in first-seen order.
    pub fn entries(&self) -> &[(String, PhaseStat)] {
        &self.entries
    }

    /// Total nanoseconds of phase `name` (0 if absent).
    pub fn nanos(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, s)| s.nanos)
    }

    /// Total nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.nanos).sum()
    }

    /// Whether no phase has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Emits one span per phase into `sink`.
    pub fn emit<S: TelemetrySink>(&self, sink: &mut S) {
        for (name, stat) in &self.entries {
            sink.span(name, stat.nanos);
        }
    }

    /// Renders the per-phase wall-clock breakdown table: phase, calls,
    /// total ms, and share of the set's total.
    pub fn render_table(&self, title: &str) -> String {
        let total = self.total_nanos().max(1) as f64;
        let width = self
            .entries
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max(5);
        let mut out = format!("== {title}\n");
        out.push_str(&format!(
            "{:width$}  {:>10}  {:>12}  {:>6}\n",
            "phase", "calls", "total ms", "share"
        ));
        for (name, stat) in &self.entries {
            out.push_str(&format!(
                "{:width$}  {:>10}  {:>12.2}  {:>5.1}%\n",
                name,
                stat.count,
                stat.nanos as f64 / 1e6,
                100.0 * stat.nanos as f64 / total
            ));
        }
        out.push_str(&format!(
            "{:width$}  {:>10}  {:>12.2}\n",
            "total",
            "",
            self.total_nanos() as f64 / 1e6
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.span("x", 1);
        sink.counter("y", 2);
    }

    #[test]
    fn counter_sink_accumulates_in_order() {
        let mut sink = CounterSink::new();
        assert!(sink.enabled());
        sink.span("act", 10);
        sink.span("receive", 5);
        sink.span("act", 7);
        sink.counter("deliveries", 3);
        sink.counter("deliveries", 4);
        assert_eq!(sink.span_nanos("act"), Some(17));
        assert_eq!(sink.span_nanos("receive"), Some(5));
        assert_eq!(sink.span_nanos("missing"), None);
        assert_eq!(sink.counter_total("deliveries"), Some(7));
        assert_eq!(sink.spans()[0].0, "act", "first-seen order");
        assert_eq!(sink.spans()[0].1.count, 2);
    }

    #[test]
    fn counter_sink_merge_and_replay() {
        let mut a = CounterSink::new();
        a.span("act", 10);
        a.counter("c", 1);
        let mut b = CounterSink::new();
        b.span("act", 5);
        b.span("merge", 2);
        b.counter("c", 2);
        a.merge(&b);
        assert_eq!(a.span_nanos("act"), Some(15));
        assert_eq!(a.span_nanos("merge"), Some(2));
        assert_eq!(a.counter_total("c"), Some(3));
        let mut replay = CounterSink::new();
        a.emit_into(&mut replay);
        assert_eq!(replay.span_nanos("act"), Some(15));
        assert_eq!(replay.counter_total("c"), Some(3));
    }

    #[test]
    fn jsonl_sink_writes_schema_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.span("engine/act", 1234);
        sink.counter("engine/deliveries", 42);
        assert_eq!(sink.lines(), 2);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "{\"span\": \"engine/act\", \"value\": 1234}\n\
             {\"counter\": \"engine/deliveries\", \"value\": 42}\n"
        );
    }

    #[test]
    fn jsonl_escapes_names() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.span("a\"b\\c\nd", 1);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(text, "{\"span\": \"a\\\"b\\\\c\\nd\", \"value\": 1}\n");
    }

    #[test]
    fn jsonl_latches_io_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.span("x", 1);
        sink.span("y", 2);
        assert_eq!(sink.lines(), 0);
        assert!(sink.finish().is_err());
    }

    #[test]
    fn span_timer_disabled_is_free_and_silent() {
        let mut sink = CounterSink::new();
        let t = SpanTimer::start(false);
        assert!(!t.enabled());
        assert_eq!(t.elapsed_nanos(), 0);
        assert_eq!(t.elapsed_ms(), 0.0);
        assert_eq!(t.stop(&mut sink, "x"), 0);
        assert!(sink.is_empty());
    }

    #[test]
    fn span_timer_enabled_records() {
        let mut sink = CounterSink::new();
        let t = SpanTimer::start(true);
        std::hint::black_box(0u64);
        let nanos = t.stop(&mut sink, "x");
        assert_eq!(sink.span_nanos("x"), Some(nanos));
    }

    #[test]
    fn phase_set_accumulates_merges_and_renders() {
        let mut p = PhaseSet::new();
        p.add("act", 3_000_000);
        p.add("act", 1_000_000);
        p.add_counted("receive", 4_000_000, 2);
        assert_eq!(p.nanos("act"), 4_000_000);
        assert_eq!(p.total_nanos(), 8_000_000);
        assert_eq!(p.entries()[0].1.count, 2);
        let mut q = PhaseSet::new();
        q.add("merge", 2_000_000);
        p.merge(&q);
        assert_eq!(p.nanos("merge"), 2_000_000);
        let table = p.render_table("engine");
        assert!(table.contains("engine"));
        assert!(table.contains("act"));
        assert!(table.contains("total"));
        let mut sink = CounterSink::new();
        p.emit(&mut sink);
        assert_eq!(sink.span_nanos("act"), Some(4_000_000));
    }

    #[test]
    fn dyn_sink_forwarding() {
        let mut counter = CounterSink::new();
        let sink: &mut dyn TelemetrySink = &mut counter;
        fn record<S: TelemetrySink>(mut s: S) {
            s.span("x", 1);
        }
        record(sink);
        assert_eq!(counter.span_nanos("x"), Some(1));
    }
}
