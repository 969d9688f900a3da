//! Bounded structured trace buffers with JSONL export.
//!
//! A [`TraceBuffer`] is a per-worker (or per-run) append-only event
//! buffer: each [`TraceEvent`] is stamped with microseconds since the
//! buffer's shared origin instant at push time. The buffer is *bounded* —
//! once `cap` events are held, further pushes are counted as dropped
//! instead of growing memory — so tracing a long-running worker can never
//! balloon the process.
//!
//! The runtime keeps every trace hook behind a branch on an `Option`
//! sink: with tracing disabled no buffer exists, nothing allocates, and
//! outputs plus statistics are byte-identical to a build without the
//! hooks (the `observability` differential suite pins this).
//!
//! Export is JSON Lines: [`jsonl`] renders a header line carrying the
//! schema id ([`TRACE_SCHEMA`]) followed by one object per event, sorted
//! by timestamp when buffers from several workers are merged.

use crate::json::Json;
use std::time::Instant;

/// Schema identifier stamped on the JSONL header line.
pub const TRACE_SCHEMA: &str = "jns-trace/1";

/// Which kind of inline-cache site missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcKind {
    /// A field-read site.
    FieldGet,
    /// A field-write site.
    FieldSet,
    /// A method-call site.
    Call,
}

impl IcKind {
    /// The stable schema string (`"get"`, `"set"`, `"call"`).
    pub fn as_str(self) -> &'static str {
        match self {
            IcKind::FieldGet => "get",
            IcKind::FieldSet => "set",
            IcKind::Call => "call",
        }
    }
}

/// One structured runtime event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A front-end phase completed (`parse`, `check` and its parts
    /// `check.resolve`/`.sharing`/`.bodies`/`.constraints`, `lower`).
    Phase {
        /// Phase name.
        name: &'static str,
        /// Wall-clock duration in microseconds.
        micros: u64,
    },
    /// A serving-layer request was picked up by a worker.
    RequestStart {
        /// Caller-chosen request id.
        id: u64,
    },
    /// A serving-layer request finished.
    RequestEnd {
        /// Caller-chosen request id.
        id: u64,
        /// Whether the request completed without a runtime error.
        ok: bool,
        /// Time spent waiting in the bounded queue, microseconds.
        queue_us: u64,
        /// Execution time on the worker VM, microseconds.
        exec_us: u64,
    },
    /// The tracing collector ran on the shared heap.
    Gc {
        /// Collection kind: `"minor"` (nursery-only) or `"major"` (full
        /// mark-compact). A `&'static str` rather than the collector's
        /// own enum so this crate stays dependency-free of `jns-eval`.
        kind: &'static str,
        /// Objects reclaimed by this collection.
        reclaimed: u64,
        /// Objects live after the collection.
        live: u64,
        /// High-water mark of live objects so far.
        peak_live: u64,
        /// Stop-the-world pause for this collection, microseconds.
        pause_us: u64,
    },
    /// An inline-cache site missed and resolved through the global tables.
    IcMiss {
        /// Site kind.
        kind: IcKind,
        /// Site index (matches `ic_sites[].site` in the profile schema).
        site: u32,
        /// Receiver view (raw class id) that caused the resolution.
        view: u32,
    },
}

impl TraceEvent {
    /// The stable `ev` tag of this event.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::RequestStart { .. } => "request_start",
            TraceEvent::RequestEnd { .. } => "request_end",
            TraceEvent::Gc { .. } => "gc",
            TraceEvent::IcMiss { .. } => "ic_miss",
        }
    }

    /// The event-specific JSON fields, in stable order.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        match self {
            TraceEvent::Phase { name, micros } => {
                vec![("name", (*name).into()), ("micros", (*micros).into())]
            }
            TraceEvent::RequestStart { id } => vec![("id", (*id).into())],
            TraceEvent::RequestEnd {
                id,
                ok,
                queue_us,
                exec_us,
            } => vec![
                ("id", (*id).into()),
                ("ok", (*ok).into()),
                ("queue_us", (*queue_us).into()),
                ("exec_us", (*exec_us).into()),
            ],
            TraceEvent::Gc {
                kind,
                reclaimed,
                live,
                peak_live,
                pause_us,
            } => vec![
                ("kind", (*kind).into()),
                ("reclaimed", (*reclaimed).into()),
                ("live", (*live).into()),
                ("peak_live", (*peak_live).into()),
                ("pause_us", (*pause_us).into()),
            ],
            TraceEvent::IcMiss { kind, site, view } => vec![
                ("kind", kind.as_str().into()),
                ("site", (*site).into()),
                ("view", (*view).into()),
            ],
        }
    }
}

/// A [`TraceEvent`] with its timestamp and originating worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// Microseconds since the buffer's origin instant.
    pub t_us: u64,
    /// Worker index the event came from (`None` for single-run traces).
    pub worker: Option<u32>,
    /// The event.
    pub event: TraceEvent,
}

impl TimedEvent {
    /// Renders one JSONL line (no trailing newline): `t_us`, optional
    /// `worker`, the `ev` tag, then the event fields.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![("t_us", self.t_us.into())];
        if let Some(w) = self.worker {
            pairs.push(("worker", w.into()));
        }
        pairs.push(("ev", self.event.tag().into()));
        pairs.extend(self.event.fields());
        Json::obj(pairs)
    }
}

/// A bounded, timestamped event buffer (one per worker or per run).
#[derive(Debug)]
pub struct TraceBuffer {
    origin: Instant,
    worker: Option<u32>,
    cap: usize,
    events: Vec<TimedEvent>,
    dropped: u64,
}

/// Default per-buffer capacity (events kept before dropping).
pub const DEFAULT_TRACE_CAP: usize = 65_536;

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(DEFAULT_TRACE_CAP)
    }
}

impl TraceBuffer {
    /// A buffer with its own origin (timestamps start at ~0).
    pub fn new(cap: usize) -> Self {
        TraceBuffer::with_origin(Instant::now(), cap)
    }

    /// A buffer stamping times relative to a shared `origin` — every
    /// worker of one pool uses the same origin so merged events order
    /// globally.
    pub fn with_origin(origin: Instant, cap: usize) -> Self {
        TraceBuffer {
            origin,
            worker: None,
            cap: cap.max(1),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Tags every subsequent event (and the existing ones) with a worker
    /// index.
    pub fn for_worker(origin: Instant, worker: u32, cap: usize) -> Self {
        let mut b = TraceBuffer::with_origin(origin, cap);
        b.worker = Some(worker);
        b
    }

    /// Appends one event stamped with the current time; counts it as
    /// dropped instead once the buffer is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let t_us = self.origin.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.events.push(TimedEvent {
            t_us,
            worker: self.worker,
            event,
        });
    }

    /// Events held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held events, in push order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Consumes the buffer into its events.
    pub fn into_events(self) -> Vec<TimedEvent> {
        self.events
    }
}

/// Renders events as JSON Lines: a header object
/// (`{"ev":"trace_start","schema":…,"events":…,"dropped":…}`) followed by
/// one line per event. `dropped` is the caller-accumulated drop count
/// across every merged buffer.
pub fn jsonl(events: &[TimedEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(64 + events.len() * 64);
    let header = Json::obj(vec![
        ("ev", "trace_start".into()),
        ("schema", TRACE_SCHEMA.into()),
        ("events", events.len().into()),
        ("dropped", dropped.into()),
    ]);
    out.push_str(&header.to_string());
    out.push('\n');
    for e in events {
        out.push_str(&e.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Merges per-worker event vectors into one stream ordered by timestamp
/// (ties keep worker order, so the merge is deterministic).
pub fn merge_events(mut shards: Vec<Vec<TimedEvent>>) -> Vec<TimedEvent> {
    let mut all: Vec<TimedEvent> = shards.drain(..).flatten().collect();
    all.sort_by_key(|e| (e.t_us, e.worker));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_buffer_counts_drops() {
        let mut b = TraceBuffer::new(2);
        for i in 0..5 {
            b.push(TraceEvent::RequestStart { id: i });
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 3);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_schema() {
        let mut b = TraceBuffer::for_worker(Instant::now(), 3, 16);
        b.push(TraceEvent::RequestStart { id: 1 });
        b.push(TraceEvent::Gc {
            kind: "minor",
            reclaimed: 10,
            live: 2,
            peak_live: 12,
            pause_us: 4,
        });
        let text = jsonl(b.events(), b.dropped());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = crate::json::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some(TRACE_SCHEMA)
        );
        for line in &lines[1..] {
            let v = crate::json::parse(line).unwrap();
            assert!(v.get("t_us").is_some());
            assert_eq!(v.get("worker").and_then(Json::as_u64), Some(3));
            assert!(v.get("ev").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn merged_events_are_time_ordered() {
        let origin = Instant::now();
        let mut a = TraceBuffer::for_worker(origin, 0, 8);
        let mut b = TraceBuffer::for_worker(origin, 1, 8);
        a.push(TraceEvent::RequestStart { id: 0 });
        b.push(TraceEvent::RequestStart { id: 1 });
        a.push(TraceEvent::RequestEnd {
            id: 0,
            ok: true,
            queue_us: 1,
            exec_us: 2,
        });
        let merged = merge_events(vec![a.into_events(), b.into_events()]);
        assert_eq!(merged.len(), 3);
        assert!(merged.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }
}
