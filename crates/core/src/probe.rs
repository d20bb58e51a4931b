//! Pluggable instrumentation: a zero-cost event layer threaded through
//! task generation, tile extraction, and the accelerator engines.
//!
//! Every interesting action of a simulated run — a tile planned, a grow
//! step rejected, a fallback subdivision, a task emitted or skipped, a
//! tile fetched from DRAM or served resident, an output partial spilled —
//! is describable as an [`Event`]. Components emit events through a
//! [`Probe`] handle:
//!
//! * A **disabled** probe (the default) is a `None` behind one branch: the
//!   event is never even constructed, so instrumented code paths cost
//!   nothing when tracing is off.
//! * [`CountingSink`] tallies events and their byte/cycle payloads with
//!   atomics — cheap aggregate observability for tests and overhead
//!   studies.
//! * [`JsonlSink`] writes one JSON object per event to any `Write` target.
//!   Its rows use the same key/value formatting as `drt-bench`'s `--json`
//!   output (see [`write_json_fields`]), so one downstream parser handles
//!   both bench rows and traces.
//!
//! Sinks are shared across worker threads (`Arc<dyn EventSink>`), so they
//! must be `Send + Sync`; both provided sinks are.

use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One instrumented action inside a simulated run.
///
/// Borrowed string fields keep emission allocation-free; sinks that need
/// to persist an event copy what they need.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// A tile plan was produced for one task (DRT or S-U-C measurement).
    TilePlanned {
        /// Emitted-task sequence number the plan belongs to.
        task: u64,
        /// Successful dimension-grow steps in the plan.
        grow_steps: u32,
        /// Rejected (reverted) grow attempts.
        rejected_grows: u32,
        /// Fallback subdivisions (Algorithm 1 line 13).
        fallbacks: u32,
        /// Metadata words the Aggregate step scanned.
        meta_words: u64,
    },
    /// The fallback path subdivided a pinned rank; the remainder will be
    /// re-issued as extra tasks.
    FallbackSubdivision {
        /// Task whose plan was shortened.
        task: u64,
        /// The subdivided rank.
        rank: char,
    },
    /// A non-empty task was emitted to the engine.
    TaskEmitted {
        /// Sequence number among emitted tasks.
        index: u64,
    },
    /// A task was skipped because an input tile was empty.
    TaskSkipped {
        /// Skipped tasks so far (running count).
        total_skipped: u64,
    },
    /// An input tile was fetched from the level above (its coordinate
    /// ranges changed).
    Fetch {
        /// Tensor name.
        tensor: &'a str,
        /// Fetched bytes.
        bytes: u64,
    },
    /// An input tile was served resident (stationary reuse hit).
    Hit {
        /// Tensor name.
        tensor: &'a str,
        /// Bytes served without a DRAM fetch.
        bytes: u64,
    },
    /// Output partials were spilled from the output cache.
    Spill {
        /// Spilled bytes (written to DRAM).
        bytes: u64,
    },
    /// A previously spilled output tile was refilled for merging.
    Refill {
        /// Re-read bytes.
        bytes: u64,
    },
    /// Cycle cost of extracting one macro tile (per step, pre-pipelining).
    Extraction {
        /// Aggregate-step cycles.
        aggregate: u64,
        /// Metadata-build cycles.
        md_build: u64,
        /// Distribution cycles.
        distribute: u64,
    },
    /// Aggregate byte/cycle totals for one named pipeline phase of a run.
    Phase {
        /// Phase name (`"load"`, `"extract"`, `"compute"`, `"merge"`,
        /// `"writeback"`).
        phase: &'static str,
        /// Cycles attributed to the phase.
        cycles: u64,
        /// Bytes attributed to the phase.
        bytes: u64,
    },
    /// The run terminated early (cancellation, deadline, or fault). Always
    /// the **last** record of a degraded trace, so `--trace` JSONL stays
    /// parseable and a reader can tell a truncated file from a clean abort.
    Aborted {
        /// Stable reason tag (`"cancelled"`, `"deadline"`,
        /// `"shard_panicked"`, ...).
        reason: &'static str,
        /// Tasks whose events were fully committed before the abort.
        completed_tasks: u64,
    },
}

impl Event<'_> {
    /// Stable event-kind tag (the `"event"` key of a trace row).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TilePlanned { .. } => "tile_planned",
            Event::FallbackSubdivision { .. } => "fallback",
            Event::TaskEmitted { .. } => "task_emitted",
            Event::TaskSkipped { .. } => "task_skipped",
            Event::Fetch { .. } => "fetch",
            Event::Hit { .. } => "hit",
            Event::Spill { .. } => "spill",
            Event::Refill { .. } => "refill",
            Event::Extraction { .. } => "extraction",
            Event::Phase { .. } => "phase",
            Event::Aborted { .. } => "aborted",
        }
    }
}

/// A destination for [`Event`]s. Implementations must be cheap enough to
/// call from inner simulation loops and safe to share across threads.
pub trait EventSink: Send + Sync {
    /// Record one event.
    fn record(&self, event: &Event<'_>);
}

/// A cloneable handle components hold to emit events.
///
/// The disabled handle (default) is `None` inside: [`Probe::emit`] takes a
/// closure so a disabled probe never constructs the event at all.
#[derive(Clone, Default)]
pub struct Probe(Option<Arc<dyn EventSink>>);

impl Probe {
    /// The disabled probe: every emission is a single branch on `None`.
    pub fn disabled() -> Probe {
        Probe(None)
    }

    /// A probe feeding `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> Probe {
        Probe(Some(sink))
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emit the event produced by `make` if a sink is attached.
    #[inline]
    pub fn emit<'a>(&self, make: impl FnOnce() -> Event<'a>) {
        if let Some(sink) = &self.0 {
            sink.record(&make());
        }
    }
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Probe")
            .field(&if self.0.is_some() { "enabled" } else { "disabled" })
            .finish()
    }
}

/// Atomic per-kind event tallies plus byte/cycle sums.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Tile plans recorded.
    pub tiles_planned: AtomicU64,
    /// Successful grow steps across all plans.
    pub grow_steps: AtomicU64,
    /// Rejected grow attempts across all plans.
    pub rejected_grows: AtomicU64,
    /// Fallback subdivisions.
    pub fallbacks: AtomicU64,
    /// Tasks emitted.
    pub tasks_emitted: AtomicU64,
    /// Tasks skipped as empty.
    pub tasks_skipped: AtomicU64,
    /// Input-tile fetches.
    pub fetches: AtomicU64,
    /// Bytes fetched.
    pub fetch_bytes: AtomicU64,
    /// Stationary-reuse hits.
    pub hits: AtomicU64,
    /// Output-cache spill bytes.
    pub spill_bytes: AtomicU64,
    /// Output-cache refill bytes.
    pub refill_bytes: AtomicU64,
    /// Extraction cycles (serialized sum of all steps).
    pub extraction_cycles: AtomicU64,
    /// Early-termination records.
    pub aborts: AtomicU64,
    /// Events of any kind.
    pub events: AtomicU64,
}

impl CountingSink {
    /// A fresh all-zero sink.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }
}

impl EventSink for CountingSink {
    fn record(&self, event: &Event<'_>) {
        self.events.fetch_add(1, Ordering::Relaxed);
        match *event {
            Event::TilePlanned { grow_steps, rejected_grows, fallbacks, .. } => {
                self.tiles_planned.fetch_add(1, Ordering::Relaxed);
                self.grow_steps.fetch_add(grow_steps as u64, Ordering::Relaxed);
                self.rejected_grows.fetch_add(rejected_grows as u64, Ordering::Relaxed);
                self.fallbacks.fetch_add(fallbacks as u64, Ordering::Relaxed);
            }
            Event::FallbackSubdivision { .. } => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
            }
            Event::TaskEmitted { .. } => {
                self.tasks_emitted.fetch_add(1, Ordering::Relaxed);
            }
            Event::TaskSkipped { .. } => {
                self.tasks_skipped.fetch_add(1, Ordering::Relaxed);
            }
            Event::Fetch { bytes, .. } => {
                self.fetches.fetch_add(1, Ordering::Relaxed);
                self.fetch_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Event::Hit { .. } => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            Event::Spill { bytes } => {
                self.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Event::Refill { bytes } => {
                self.refill_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Event::Extraction { aggregate, md_build, distribute } => {
                self.extraction_cycles
                    .fetch_add(aggregate + md_build + distribute, Ordering::Relaxed);
            }
            Event::Phase { .. } => {}
            Event::Aborted { .. } => {
                self.aborts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A JSON scalar for one field of a trace or bench row.
#[derive(Debug, Clone)]
pub enum JsonValue<'a> {
    /// String (escaped on write).
    S(&'a str),
    /// Unsigned integer.
    U(u64),
    /// Float (written with Rust's shortest-roundtrip formatting).
    F(f64),
}

/// Append `s` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters).
pub fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `{"k": v, ...}` to `out`. This is the one formatter shared by
/// the JSONL trace sink and `drt-bench`'s `--json` rows, so both speak the
/// same schema dialect (same escaping, same number formatting).
pub fn write_json_fields(out: &mut String, fields: &[(&str, JsonValue<'_>)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        push_json_escaped(out, k);
        out.push_str("\": ");
        match v {
            JsonValue::S(s) => {
                out.push('"');
                push_json_escaped(out, s);
                out.push('"');
            }
            JsonValue::U(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::F(x) => {
                let _ = write!(out, "{x}");
            }
        }
    }
    out.push('}');
}

/// Render one event as a single-line JSON object.
///
/// Every row carries an `"event"` key with the [`Event::kind`] tag plus
/// the event's own fields.
pub fn event_json(event: &Event<'_>) -> String {
    let mut fields: Vec<(&str, JsonValue<'_>)> = vec![("event", JsonValue::S(event.kind()))];
    match *event {
        Event::TilePlanned { task, grow_steps, rejected_grows, fallbacks, meta_words } => {
            fields.push(("task", JsonValue::U(task)));
            fields.push(("grow_steps", JsonValue::U(grow_steps as u64)));
            fields.push(("rejected_grows", JsonValue::U(rejected_grows as u64)));
            fields.push(("fallbacks", JsonValue::U(fallbacks as u64)));
            fields.push(("meta_words", JsonValue::U(meta_words)));
        }
        Event::FallbackSubdivision { task, rank } => {
            fields.push(("task", JsonValue::U(task)));
            fields.push(("rank", JsonValue::U(rank as u64)));
        }
        Event::TaskEmitted { index } => {
            fields.push(("index", JsonValue::U(index)));
        }
        Event::TaskSkipped { total_skipped } => {
            fields.push(("total_skipped", JsonValue::U(total_skipped)));
        }
        Event::Fetch { tensor, bytes } => {
            fields.push(("tensor", JsonValue::S(tensor)));
            fields.push(("bytes", JsonValue::U(bytes)));
        }
        Event::Hit { tensor, bytes } => {
            fields.push(("tensor", JsonValue::S(tensor)));
            fields.push(("bytes", JsonValue::U(bytes)));
        }
        Event::Spill { bytes } => {
            fields.push(("bytes", JsonValue::U(bytes)));
        }
        Event::Refill { bytes } => {
            fields.push(("bytes", JsonValue::U(bytes)));
        }
        Event::Extraction { aggregate, md_build, distribute } => {
            fields.push(("aggregate", JsonValue::U(aggregate)));
            fields.push(("md_build", JsonValue::U(md_build)));
            fields.push(("distribute", JsonValue::U(distribute)));
        }
        Event::Phase { phase, cycles, bytes } => {
            fields.push(("phase", JsonValue::S(phase)));
            fields.push(("cycles", JsonValue::U(cycles)));
            fields.push(("bytes", JsonValue::U(bytes)));
        }
        Event::Aborted { reason, completed_tasks } => {
            fields.push(("reason", JsonValue::S(reason)));
            fields.push(("completed_tasks", JsonValue::U(completed_tasks)));
        }
    }
    let mut out = String::new();
    write_json_fields(&mut out, &fields);
    out
}

/// Writes one JSON object per event, newline-delimited, to any writer.
pub struct JsonlSink {
    writer: Mutex<Box<dyn std::io::Write + Send>>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// A sink writing to `writer`.
    pub fn new(writer: Box<dyn std::io::Write + Send>) -> JsonlSink {
        JsonlSink { writer: Mutex::new(writer) }
    }

    /// A sink appending to the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn append_to(path: &str) -> std::io::Result<JsonlSink> {
        let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(f))))
    }

    /// Flush the underlying writer. Poisoned guards are recovered so a
    /// panicking worker cannot silently drop buffered trace rows.
    pub fn flush(&self) {
        let mut w = self.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = w.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: &Event<'_>) {
        let row = event_json(event);
        let mut w = self.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(w, "{row}");
    }
}

/// An [`Event`] with its borrowed strings copied out, so it can outlive
/// the emission site and be buffered for later replay.
///
/// `Phase` keeps its `&'static str` name — it is already `'static`.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedEvent {
    /// See [`Event::TilePlanned`].
    TilePlanned {
        /// Emitted-task sequence number the plan belongs to.
        task: u64,
        /// Successful dimension-grow steps in the plan.
        grow_steps: u32,
        /// Rejected (reverted) grow attempts.
        rejected_grows: u32,
        /// Fallback subdivisions.
        fallbacks: u32,
        /// Metadata words the Aggregate step scanned.
        meta_words: u64,
    },
    /// See [`Event::FallbackSubdivision`].
    FallbackSubdivision {
        /// Task whose plan was shortened.
        task: u64,
        /// The subdivided rank.
        rank: char,
    },
    /// See [`Event::TaskEmitted`].
    TaskEmitted {
        /// Sequence number among emitted tasks.
        index: u64,
    },
    /// See [`Event::TaskSkipped`].
    TaskSkipped {
        /// Skipped tasks so far (running count).
        total_skipped: u64,
    },
    /// See [`Event::Fetch`].
    Fetch {
        /// Tensor name.
        tensor: String,
        /// Fetched bytes.
        bytes: u64,
    },
    /// See [`Event::Hit`].
    Hit {
        /// Tensor name.
        tensor: String,
        /// Bytes served without a DRAM fetch.
        bytes: u64,
    },
    /// See [`Event::Spill`].
    Spill {
        /// Spilled bytes.
        bytes: u64,
    },
    /// See [`Event::Refill`].
    Refill {
        /// Re-read bytes.
        bytes: u64,
    },
    /// See [`Event::Extraction`].
    Extraction {
        /// Aggregate-step cycles.
        aggregate: u64,
        /// Metadata-build cycles.
        md_build: u64,
        /// Distribution cycles.
        distribute: u64,
    },
    /// See [`Event::Phase`].
    Phase {
        /// Phase name.
        phase: &'static str,
        /// Cycles attributed to the phase.
        cycles: u64,
        /// Bytes attributed to the phase.
        bytes: u64,
    },
    /// See [`Event::Aborted`].
    Aborted {
        /// Stable reason tag.
        reason: &'static str,
        /// Tasks fully committed before the abort.
        completed_tasks: u64,
    },
}

impl OwnedEvent {
    /// Copy a borrowed event into an owned one.
    pub fn from_event(event: &Event<'_>) -> OwnedEvent {
        match *event {
            Event::TilePlanned { task, grow_steps, rejected_grows, fallbacks, meta_words } => {
                OwnedEvent::TilePlanned { task, grow_steps, rejected_grows, fallbacks, meta_words }
            }
            Event::FallbackSubdivision { task, rank } => {
                OwnedEvent::FallbackSubdivision { task, rank }
            }
            Event::TaskEmitted { index } => OwnedEvent::TaskEmitted { index },
            Event::TaskSkipped { total_skipped } => OwnedEvent::TaskSkipped { total_skipped },
            Event::Fetch { tensor, bytes } => OwnedEvent::Fetch { tensor: tensor.into(), bytes },
            Event::Hit { tensor, bytes } => OwnedEvent::Hit { tensor: tensor.into(), bytes },
            Event::Spill { bytes } => OwnedEvent::Spill { bytes },
            Event::Refill { bytes } => OwnedEvent::Refill { bytes },
            Event::Extraction { aggregate, md_build, distribute } => {
                OwnedEvent::Extraction { aggregate, md_build, distribute }
            }
            Event::Phase { phase, cycles, bytes } => OwnedEvent::Phase { phase, cycles, bytes },
            Event::Aborted { reason, completed_tasks } => {
                OwnedEvent::Aborted { reason, completed_tasks }
            }
        }
    }

    /// Borrow this owned event back as an [`Event`] for re-emission.
    pub fn as_event(&self) -> Event<'_> {
        match *self {
            OwnedEvent::TilePlanned { task, grow_steps, rejected_grows, fallbacks, meta_words } => {
                Event::TilePlanned { task, grow_steps, rejected_grows, fallbacks, meta_words }
            }
            OwnedEvent::FallbackSubdivision { task, rank } => {
                Event::FallbackSubdivision { task, rank }
            }
            OwnedEvent::TaskEmitted { index } => Event::TaskEmitted { index },
            OwnedEvent::TaskSkipped { total_skipped } => Event::TaskSkipped { total_skipped },
            OwnedEvent::Fetch { ref tensor, bytes } => Event::Fetch { tensor, bytes },
            OwnedEvent::Hit { ref tensor, bytes } => Event::Hit { tensor, bytes },
            OwnedEvent::Spill { bytes } => Event::Spill { bytes },
            OwnedEvent::Refill { bytes } => Event::Refill { bytes },
            OwnedEvent::Extraction { aggregate, md_build, distribute } => {
                Event::Extraction { aggregate, md_build, distribute }
            }
            OwnedEvent::Phase { phase, cycles, bytes } => Event::Phase { phase, cycles, bytes },
            OwnedEvent::Aborted { reason, completed_tasks } => {
                Event::Aborted { reason, completed_tasks }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_survives_poisoned_lock() {
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        let poisoner = sink.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.writer.lock().expect("first lock");
            panic!("worker dies holding the writer lock");
        })
        .join();
        assert!(sink.writer.is_poisoned(), "setup must actually poison");
        sink.record(&Event::Fetch { tensor: "A", bytes: 8 });
        sink.flush();
        let text = String::from_utf8(
            buf.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone(),
        )
        .expect("utf8");
        assert!(text.contains("\"fetch\""), "row written despite poison: {text:?}");
    }

    #[test]
    fn disabled_probe_never_builds_events() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        let mut built = false;
        p.emit(|| {
            built = true;
            Event::TaskEmitted { index: 0 }
        });
        assert!(!built, "disabled probe must not construct the event");
    }

    #[test]
    fn counting_sink_tallies_kinds() {
        let sink = Arc::new(CountingSink::new());
        let p = Probe::new(sink.clone());
        p.emit(|| Event::TaskEmitted { index: 0 });
        p.emit(|| Event::TaskEmitted { index: 1 });
        p.emit(|| Event::TaskSkipped { total_skipped: 1 });
        p.emit(|| Event::Fetch { tensor: "A", bytes: 128 });
        p.emit(|| Event::Spill { bytes: 64 });
        p.emit(|| Event::TilePlanned {
            task: 0,
            grow_steps: 3,
            rejected_grows: 1,
            fallbacks: 0,
            meta_words: 42,
        });
        assert_eq!(sink.tasks_emitted.load(Ordering::Relaxed), 2);
        assert_eq!(sink.tasks_skipped.load(Ordering::Relaxed), 1);
        assert_eq!(sink.fetch_bytes.load(Ordering::Relaxed), 128);
        assert_eq!(sink.spill_bytes.load(Ordering::Relaxed), 64);
        assert_eq!(sink.grow_steps.load(Ordering::Relaxed), 3);
        assert_eq!(sink.rejected_grows.load(Ordering::Relaxed), 1);
        assert_eq!(sink.events.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn escaping_handles_quotes_backslashes_and_controls() {
        let mut s = String::new();
        push_json_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn event_rows_carry_event_key_and_fields() {
        let row = event_json(&Event::Fetch { tensor: "A", bytes: 10 });
        assert_eq!(row, "{\"event\": \"fetch\", \"tensor\": \"A\", \"bytes\": 10}");
        let phase = event_json(&Event::Phase { phase: "load", cycles: 0, bytes: 5 });
        assert_eq!(
            phase,
            "{\"event\": \"phase\", \"phase\": \"load\", \"cycles\": 0, \"bytes\": 5}"
        );
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        use std::sync::{Arc as StdArc, Mutex as StdMutex};
        #[derive(Clone)]
        struct Shared(StdArc<StdMutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("lock").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = StdArc::new(StdMutex::new(Vec::new()));
        let sink = JsonlSink::new(Box::new(Shared(buf.clone())));
        let p = Probe::new(Arc::new(sink));
        p.emit(|| Event::Spill { bytes: 7 });
        p.emit(|| Event::TaskEmitted { index: 3 });
        drop(p);
        let text = String::from_utf8(buf.lock().expect("lock").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            ["{\"event\": \"spill\", \"bytes\": 7}", "{\"event\": \"task_emitted\", \"index\": 3}"]
        );
    }

    #[test]
    fn owned_event_round_trips() {
        let events = [
            Event::TilePlanned {
                task: 3,
                grow_steps: 2,
                rejected_grows: 1,
                fallbacks: 0,
                meta_words: 9,
            },
            Event::FallbackSubdivision { task: 3, rank: 'k' },
            Event::TaskEmitted { index: 3 },
            Event::TaskSkipped { total_skipped: 2 },
            Event::Fetch { tensor: "A", bytes: 64 },
            Event::Hit { tensor: "B", bytes: 32 },
            Event::Spill { bytes: 8 },
            Event::Refill { bytes: 8 },
            Event::Extraction { aggregate: 1, md_build: 2, distribute: 3 },
            Event::Phase { phase: "load", cycles: 4, bytes: 5 },
            Event::Aborted { reason: "deadline", completed_tasks: 7 },
        ];
        for e in &events {
            let owned = OwnedEvent::from_event(e);
            assert_eq!(&owned.as_event(), e, "round trip must preserve the event");
        }
    }
}
