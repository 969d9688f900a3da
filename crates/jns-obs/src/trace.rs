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
//! [`parse_jsonl`] is its exact inverse and the one definition of a
//! valid stream: `obs-check trace`, `jns trace-report` and the tests all
//! read traces through it.

use crate::json::{self, Json};
use std::time::Instant;

/// Schema identifier stamped on the JSONL header line.
pub const TRACE_SCHEMA: &str = "jns-trace/1";

/// The collection kinds a [`TraceEvent::Gc`] may carry: nursery-only and
/// full mark-compact.
pub const GC_KINDS: [&str; 2] = ["minor", "major"];

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
    const ALL: [IcKind; 3] = [IcKind::FieldGet, IcKind::FieldSet, IcKind::Call];

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
        name: String,
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
        /// Collection kind, one of [`GC_KINDS`]: `"minor"` (nursery-only)
        /// or `"major"` (full mark-compact). A `&'static str` rather than
        /// the collector's own enum so this crate stays dependency-free
        /// of `jns-eval`.
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
                vec![("name", name.as_str().into()), ("micros", (*micros).into())]
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

/// The one warning for a trace that lost events, printed by `jns run
/// --trace`, `jns serve --stats` and `jns trace-report`: a
/// [`TraceBuffer`] keeps its first [`DEFAULT_TRACE_CAP`] events and only
/// counts the rest.
pub fn dropped_warning(dropped: u64) -> String {
    format!(
        "warning: {dropped} trace events dropped: a trace buffer keeps its first \
         {DEFAULT_TRACE_CAP} events, so the trace covers only the start of the run \
         (a shorter run traces completely)"
    )
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

/// Reads a stream [`jsonl`] wrote back into its events and the header's
/// drop count: `parse_jsonl(&jsonl(events, dropped))` is `Ok((events,
/// dropped))`. A valid stream is a `trace_start` header carrying
/// [`TRACE_SCHEMA`] and numeric `events` and `dropped`, then exactly
/// `events` lines, each with a numeric `t_us` that never decreases, an
/// optional numeric `worker`, an `ev` tag naming a [`TraceEvent`] variant
/// and every field of that variant with its type (a `gc` kind from
/// [`GC_KINDS`], an `ic_miss` kind from [`IcKind::as_str`]). Keys no
/// variant has are ignored.
///
/// # Errors
///
/// The first violation, prefixed with the (1-based) line it is on.
pub fn parse_jsonl(text: &str) -> Result<(Vec<TimedEvent>, u64), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("line 1: empty stream")?;
    let (declared, dropped) = read_header(header).map_err(|e| format!("line 1: {e}"))?;
    let mut events: Vec<TimedEvent> = Vec::new();
    for (i, line) in lines.enumerate() {
        let n = i + 2;
        let e = read_event(line).map_err(|e| format!("line {n}: {e}"))?;
        if let Some(last) = events.last().filter(|last| last.t_us > e.t_us) {
            return Err(format!(
                "line {n}: `t_us` decreases from {} to {}",
                last.t_us, e.t_us
            ));
        }
        events.push(e);
    }
    if events.len() as u64 != declared {
        return Err(format!(
            "line 1: header declares {declared} events, stream has {}",
            events.len()
        ));
    }
    Ok((events, dropped))
}

/// Reads `key` of the object `v` through `read`; the error names the key
/// and, when it is present, the type `ty` it must have.
fn field<'a, T>(
    v: &'a Json,
    key: &str,
    ty: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    let x = v.get(key).ok_or_else(|| format!("missing `{key}`"))?;
    read(x).ok_or_else(|| format!("`{key}` must be {ty}"))
}

fn num(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key, "an unsigned integer", Json::as_u64)
}

fn num32(v: &Json, key: &str) -> Result<u32, String> {
    field(v, key, "a 32-bit unsigned integer", |x| {
        x.as_u64().and_then(|n| u32::try_from(n).ok())
    })
}

fn text<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    field(v, key, "a string", Json::as_str)
}

/// The header's `(events, dropped)` counts.
fn read_header(line: &str) -> Result<(u64, u64), String> {
    let v = json::parse(line)?;
    if text(&v, "ev")? != "trace_start" {
        return Err("expected the trace_start header".to_string());
    }
    if text(&v, "schema")? != TRACE_SCHEMA {
        return Err(format!("schema must be {TRACE_SCHEMA:?}"));
    }
    Ok((num(&v, "events")?, num(&v, "dropped")?))
}

/// One event line; the inverse of [`TimedEvent::to_json`].
fn read_event(line: &str) -> Result<TimedEvent, String> {
    let v = json::parse(line)?;
    let t_us = num(&v, "t_us")?;
    let worker = v.get("worker").map(|_| num32(&v, "worker")).transpose()?;
    let event = match text(&v, "ev")? {
        "phase" => TraceEvent::Phase {
            name: text(&v, "name")?.to_string(),
            micros: num(&v, "micros")?,
        },
        "request_start" => TraceEvent::RequestStart { id: num(&v, "id")? },
        "request_end" => TraceEvent::RequestEnd {
            id: num(&v, "id")?,
            ok: field(&v, "ok", "a boolean", Json::as_bool)?,
            queue_us: num(&v, "queue_us")?,
            exec_us: num(&v, "exec_us")?,
        },
        "gc" => {
            let kind = text(&v, "kind")?;
            TraceEvent::Gc {
                kind: GC_KINDS
                    .into_iter()
                    .find(|k| *k == kind)
                    .ok_or_else(|| format!("unknown gc kind {kind:?}"))?,
                reclaimed: num(&v, "reclaimed")?,
                live: num(&v, "live")?,
                peak_live: num(&v, "peak_live")?,
                pause_us: num(&v, "pause_us")?,
            }
        }
        "ic_miss" => {
            let kind = text(&v, "kind")?;
            TraceEvent::IcMiss {
                kind: IcKind::ALL
                    .into_iter()
                    .find(|k| k.as_str() == kind)
                    .ok_or_else(|| format!("unknown ic_miss kind {kind:?}"))?,
                site: num32(&v, "site")?,
                view: num32(&v, "view")?,
            }
        }
        other => return Err(format!("unknown event {other:?}")),
    };
    Ok(TimedEvent {
        t_us,
        worker,
        event,
    })
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

    #[test]
    fn every_variant_round_trips_with_and_without_a_worker() {
        let mut variants = vec![
            TraceEvent::Phase {
                name: "check.bodies".into(),
                micros: 7,
            },
            TraceEvent::RequestStart { id: 3 },
            TraceEvent::RequestEnd {
                id: 3,
                ok: false,
                queue_us: 4,
                exec_us: u64::MAX,
            },
        ];
        variants.extend(GC_KINDS.map(|kind| TraceEvent::Gc {
            kind,
            reclaimed: 10,
            live: 2,
            peak_live: 12,
            pause_us: 4,
        }));
        variants.extend(IcKind::ALL.map(|kind| TraceEvent::IcMiss {
            kind,
            site: 1,
            view: u32::MAX,
        }));
        for worker in [None, Some(0), Some(u32::MAX)] {
            let events: Vec<TimedEvent> = (0u64..)
                .zip(&variants)
                .map(|(i, event)| TimedEvent {
                    t_us: i / 2,
                    worker,
                    event: event.clone(),
                })
                .collect();
            for dropped in [0, 9] {
                let text = jsonl(&events, dropped);
                assert_eq!(parse_jsonl(&text), Ok((events.clone(), dropped)), "{text}");
            }
        }
        assert_eq!(parse_jsonl(&jsonl(&[], 0)), Ok((Vec::new(), 0)));
    }

    #[test]
    fn each_rejection_names_its_line_and_cause() {
        let valid = [
            r#"{"ev":"trace_start","schema":"jns-trace/1","events":4,"dropped":0}"#,
            r#"{"t_us":1,"ev":"phase","name":"parse","micros":3}"#,
            r#"{"t_us":5,"ev":"gc","kind":"minor","reclaimed":1,"live":2,"peak_live":3,"pause_us":4}"#,
            r#"{"t_us":6,"worker":1,"ev":"ic_miss","kind":"call","site":2,"view":3}"#,
            r#"{"t_us":6,"worker":1,"ev":"request_end","id":0,"ok":true,"queue_us":1,"exec_us":2}"#,
        ]
        .join("\n");
        assert_eq!(parse_jsonl(&valid).map(|(e, d)| (e.len(), d)), Ok((4, 0)));
        let unclosed = r#"{"t_us":1,"ev":"phase","name":"parse","micros":3"#;
        let mut cases = vec![
            (String::new(), "line 1: empty stream".to_string()),
            (
                valid.replacen(r#""micros":3}"#, r#""micros":3"#, 1),
                format!("line 2: {}", json::parse(unclosed).unwrap_err()),
            ),
        ];
        // (text of `valid` to replace, its replacement, the message)
        for (from, to, want) in [
            (
                "trace_start",
                "trace_begin",
                "line 1: expected the trace_start header",
            ),
            (
                "jns-trace/1",
                "jns-trace/9",
                r#"line 1: schema must be "jns-trace/1""#,
            ),
            (
                r#""events":4"#,
                r#""events":"4""#,
                "line 1: `events` must be an unsigned integer",
            ),
            (r#","dropped":0"#, "", "line 1: missing `dropped`"),
            (
                r#""events":4"#,
                r#""events":5"#,
                "line 1: header declares 5 events, stream has 4",
            ),
            (
                r#""name":"parse""#,
                r#""name":3"#,
                "line 2: `name` must be a string",
            ),
            (r#""t_us":5,"#, "", "line 3: missing `t_us`"),
            (
                r#""t_us":5"#,
                r#""t_us":0"#,
                "line 3: `t_us` decreases from 1 to 0",
            ),
            (
                r#""ev":"gc""#,
                r#""ev":"gc2""#,
                r#"line 3: unknown event "gc2""#,
            ),
            (
                r#""kind":"minor""#,
                r#""kind":"medium""#,
                r#"line 3: unknown gc kind "medium""#,
            ),
            (r#""reclaimed":1,"#, "", "line 3: missing `reclaimed`"),
            (
                r#""worker":1"#,
                r#""worker":"1""#,
                "line 4: `worker` must be a 32-bit unsigned integer",
            ),
            (
                r#""kind":"call""#,
                r#""kind":"jump""#,
                r#"line 4: unknown ic_miss kind "jump""#,
            ),
            (
                r#""site":2"#,
                r#""site":4294967296"#,
                "line 4: `site` must be a 32-bit unsigned integer",
            ),
            (
                r#""ok":true"#,
                r#""ok":1"#,
                "line 5: `ok` must be a boolean",
            ),
        ] {
            assert!(valid.contains(from), "{from}");
            cases.push((valid.replacen(from, to, 1), want.to_string()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for (text, want) in cases {
            assert_eq!(parse_jsonl(&text), Err(want.clone()), "{text}");
            assert!(seen.insert(want.clone()), "message given twice: {want}");
        }
    }
}
