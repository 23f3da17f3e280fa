//! Virtual-time span tracing with a crash-safe journal sink.
//!
//! A [`Tracer`] records nested stage spans. Each span carries two time
//! scales: **virtual** start/end milliseconds read from the shared
//! [`VirtualClock`] (deterministic — part of the byte-compared run
//! surface) and an **observability-only** wall-clock duration (never
//! compared, excluded from [`SpanRecord::deterministic_line`]).
//!
//! Spans are entered from the orchestrating thread at stage boundaries
//! (survey, detector fit, ensemble voting, bootstrap), never from inside
//! parallel workers — that is what makes span paths and enter order
//! deterministic.
//!
//! When a sink is attached ([`Tracer::attach_sink`]), completed spans
//! are journaled as `"obs-span"` records through the same length+FNV
//! framed [`CheckpointStore`] as every other unit of work. Saves are
//! best-effort (a failure to journal telemetry must never fail the run)
//! and deduplicated load-before-save, so a kill/resume cycle never
//! writes the same span key twice.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nbhd_journal::{CheckpointStore, Replayable};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::VirtualClock;

/// Journal record kind for completed spans.
pub const SPAN_RECORD_KIND: &str = "obs-span";

/// Percent-escapes the characters that would let a span name corrupt
/// the deterministic surface: `/` (the key separator — a name
/// containing it would fake a child span), `\n`/`\r` (line separators —
/// a name containing them would forge extra lines in the byte-compared
/// text), and `%` itself (so the escaping is injective: two distinct
/// names can never sanitize to the same string).
pub fn sanitize_span_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for ch in name.chars() {
        match ch {
            '%' => out.push_str("%25"),
            '/' => out.push_str("%2F"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(ch),
        }
    }
    out
}

/// One completed stage span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Full `/`-separated span path, e.g. `"run/survey/shard-0"`.
    pub key: String,
    /// Leaf stage name, e.g. `"shard-0"`.
    pub name: String,
    /// Nesting depth (0 for top-level spans).
    pub depth: usize,
    /// Enter order among all spans of the run (deterministic).
    pub seq: u64,
    /// Virtual time at enter, milliseconds.
    pub start_vms: u64,
    /// Virtual time at record, milliseconds.
    pub end_vms: u64,
    /// Wall-clock duration, microseconds. Observability-only.
    pub wall_us: u64,
}

impl SpanRecord {
    /// Virtual duration of the span in milliseconds.
    pub fn virtual_ms(&self) -> u64 {
        self.end_vms.saturating_sub(self.start_vms)
    }

    /// The span rendered without its wall-clock field: the
    /// deterministic surface line used for byte comparison.
    pub fn deterministic_line(&self) -> String {
        format!(
            "{seq:>4} {key} [{start}..{end}]\n",
            seq = self.seq,
            key = self.key,
            start = self.start_vms,
            end = self.end_vms
        )
    }
}

impl Replayable for SpanRecord {
    const KIND: &'static str = SPAN_RECORD_KIND;

    fn validate(&self, key: &str) -> Result<(), String> {
        if self.key != key {
            return Err(format!("the record is span {}", self.key));
        }
        if self.end_vms < self.start_vms {
            return Err(format!(
                "ends at {} ms, before its start at {} ms",
                self.end_vms, self.start_vms
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct TracerInner {
    stack: Vec<String>,
    spans: Vec<SpanRecord>,
    next_seq: u64,
    sink: Option<Arc<dyn CheckpointStore>>,
}

/// Records nested virtual-time spans; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    clock: Arc<VirtualClock>,
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// A tracer reading virtual time from `clock`.
    pub fn new(clock: Arc<VirtualClock>) -> Tracer {
        Tracer {
            clock,
            inner: Mutex::new(TracerInner::default()),
        }
    }

    /// The clock this tracer stamps spans with.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Attaches a journal sink for completed spans, if none is attached
    /// yet. The first sink wins; later calls are no-ops, so a run driver
    /// can attach its store without clobbering a caller-provided sink.
    pub fn attach_sink(&self, sink: Arc<dyn CheckpointStore>) {
        let mut inner = self.inner.lock();
        if inner.sink.is_none() {
            inner.sink = Some(sink);
        }
    }

    /// Opens a stage span. Call [`Stage::record`] when the stage ends
    /// (dropping the guard records it too, so early returns via `?`
    /// still close their spans).
    ///
    /// The name is sanitized with [`sanitize_span_name`]: `/`, newlines,
    /// and `%` are percent-escaped so a hostile or buggy stage name can
    /// neither fake a child span in the `/`-separated key nor forge an
    /// extra line in the byte-compared deterministic surface.
    pub fn enter(&self, name: &str) -> Stage<'_> {
        let name = sanitize_span_name(name);
        let mut inner = self.inner.lock();
        inner.stack.push(name.clone());
        let key = inner.stack.join("/");
        let depth = inner.stack.len() - 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        Stage {
            tracer: self,
            key,
            name,
            depth,
            seq,
            start_vms: self.clock.now_ms(),
            started: Instant::now(),
            recorded: false,
        }
    }

    /// All spans recorded so far, in enter (`seq`) order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.inner.lock().spans.clone();
        spans.sort_by_key(|span| span.seq);
        spans
    }

    fn finish(&self, span: SpanRecord) {
        let mut inner = self.inner.lock();
        // Pop this span's frame. Stages close LIFO on the orchestrating
        // thread; tolerate a missing frame rather than panicking in a
        // telemetry path.
        if inner.stack.last() == Some(&span.name) {
            inner.stack.pop();
        }
        if let Some(sink) = inner.sink.clone() {
            // Best-effort, deduplicated: telemetry must never fail the
            // run, and a resumed run must not journal a span key twice.
            if let Ok(None) = nbhd_journal::load::<SpanRecord>(sink.as_ref(), &span.key) {
                let _ = nbhd_journal::save(sink.as_ref(), &span.key, &span);
            }
        }
        inner.spans.push(span);
    }
}

/// An open stage span; see [`Tracer::enter`].
#[derive(Debug)]
pub struct Stage<'a> {
    tracer: &'a Tracer,
    key: String,
    name: String,
    depth: usize,
    seq: u64,
    start_vms: u64,
    started: Instant,
    recorded: bool,
}

impl Stage<'_> {
    /// The full span path this stage will record under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Closes the span, recording virtual and wall durations.
    pub fn record(mut self) {
        self.close(None);
    }

    /// Closes the span with `wall` as its wall-clock duration: for a stage
    /// whose work ran off the orchestrating thread and measured its own
    /// wall time, entered and closed afterwards in a deterministic order.
    pub fn record_wall(mut self, wall: Duration) {
        self.close(Some(wall));
    }

    fn close(&mut self, wall: Option<Duration>) {
        if self.recorded {
            return;
        }
        self.recorded = true;
        let span = SpanRecord {
            key: std::mem::take(&mut self.key),
            name: std::mem::take(&mut self.name),
            depth: self.depth,
            seq: self.seq,
            start_vms: self.start_vms,
            end_vms: self.tracer.clock.now_ms(),
            wall_us: wall.unwrap_or_else(|| self.started.elapsed()).as_micros() as u64,
        };
        self.tracer.finish(span);
    }
}

impl Drop for Stage<'_> {
    fn drop(&mut self) {
        self.close(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_journal::MemoryStore;

    fn tracer() -> (Arc<VirtualClock>, Tracer) {
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(Arc::clone(&clock));
        (clock, tracer)
    }

    #[test]
    fn spans_nest_and_stamp_virtual_time() {
        let (clock, tracer) = tracer();
        let outer = tracer.enter("run");
        clock.advance_ms(10);
        let inner = tracer.enter("survey");
        clock.advance_ms(5);
        inner.record();
        outer.record();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].key, "run");
        assert_eq!(spans[0].depth, 0);
        assert_eq!((spans[0].start_vms, spans[0].end_vms), (0, 15));
        assert_eq!(spans[1].key, "run/survey");
        assert_eq!(spans[1].depth, 1);
        assert_eq!((spans[1].start_vms, spans[1].end_vms), (10, 15));
    }

    #[test]
    fn dropping_a_stage_records_it() {
        let (clock, tracer) = tracer();
        {
            let _stage = tracer.enter("aborted");
            clock.advance_ms(3);
            // dropped via early exit, never explicitly recorded
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end_vms, 3);
    }

    #[test]
    fn record_wall_keeps_virtual_time_and_takes_the_given_wall_time() {
        let (clock, tracer) = tracer();
        let stage = tracer.enter("shard-0");
        clock.advance_ms(12);
        stage.record_wall(Duration::from_micros(4_321));
        let spans = tracer.spans();
        assert_eq!((spans[0].start_vms, spans[0].end_vms), (0, 12));
        assert_eq!(spans[0].wall_us, 4_321);
    }

    #[test]
    fn sink_saves_are_deduplicated_by_key() {
        let (_clock, tracer) = tracer();
        let store = Arc::new(MemoryStore::new());
        tracer.attach_sink(store.clone());
        tracer.enter("survey").record();
        tracer.enter("survey").record(); // resumed run re-enters the stage
        let saved = store.load_kind(SPAN_RECORD_KIND);
        assert_eq!(saved.len(), 1);
        assert_eq!(saved[0].0, "survey");
    }

    #[test]
    fn first_sink_wins() {
        let (_clock, tracer) = tracer();
        let first = Arc::new(MemoryStore::new());
        let second = Arc::new(MemoryStore::new());
        tracer.attach_sink(first.clone());
        tracer.attach_sink(second.clone());
        tracer.enter("s").record();
        assert_eq!(first.load_kind(SPAN_RECORD_KIND).len(), 1);
        assert!(second.load_kind(SPAN_RECORD_KIND).is_empty());
    }

    #[test]
    fn hostile_span_names_cannot_forge_lines_or_children() {
        let (_clock, tracer) = tracer();
        // a `/` would fake a child; a `\n` would forge an extra line in
        // the byte-compared surface; `%` must round-trip injectively
        tracer.enter("a/b").record();
        tracer.enter("x\ny").record();
        tracer.enter("p%q").record();
        let spans = tracer.spans();
        assert_eq!(spans[0].key, "a%2Fb");
        assert_eq!(spans[0].depth, 0, "no fake child was created");
        assert_eq!(spans[1].name, "x%0Ay");
        assert_eq!(spans[2].name, "p%25q");
        for span in &spans {
            let line = span.deterministic_line();
            assert_eq!(line.matches('\n').count(), 1, "one line per span");
        }
        // injective: the sanitized form of a hostile name never collides
        // with the sanitized form of the name it tries to imitate
        assert_ne!(sanitize_span_name("a/b"), sanitize_span_name("a%2Fb"));
    }

    #[test]
    fn sanitized_stages_still_pop_their_stack_frame() {
        let (_clock, tracer) = tracer();
        let outer = tracer.enter("run");
        tracer.enter("bad/name").record();
        let sibling = tracer.enter("next");
        sibling.record();
        outer.record();
        let spans = tracer.spans();
        assert_eq!(spans[1].key, "run/bad%2Fname");
        // "next" is a child of "run", not of the sanitized bad name:
        // the hostile stage's frame was popped correctly
        assert_eq!(spans[2].key, "run/next");
        assert_eq!(spans[2].depth, 1);
    }

    #[test]
    fn deterministic_line_excludes_wall_clock() {
        let span = SpanRecord {
            key: "run/survey".into(),
            name: "survey".into(),
            depth: 1,
            seq: 3,
            start_vms: 10,
            end_vms: 25,
            wall_us: 123_456,
        };
        let line = span.deterministic_line();
        assert!(line.contains("run/survey [10..25]"));
        assert!(!line.contains("123"));
    }
}
